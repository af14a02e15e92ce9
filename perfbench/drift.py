"""Machine drift: how steady one fixed piece of work runs over time.

    python3 perfbench/drift.py --seconds 150 --window 10

Repeats two fixed operations back to back, a pure-Python loop and
face_verify over 1,000 enrolled keys, and prints the median time of each per
window. The spread of the window medians bounds how steady any benchmark
figure on this machine can be, whatever the code.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from duplexmem.backends import IdentitySeed, stable_seed  # noqa: E402
from duplexmem.verification import face_verify  # noqa: E402


def python_loop() -> int:
    total = 0
    for i in range(200_000):
        total += i & 7
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=150.0)
    parser.add_argument("--window", type=float, default=10.0)
    args = parser.parse_args()

    seeds = [IdentitySeed(f"u{i}", stable_seed("drift", i)) for i in range(1000)]
    keys = [(f"user_{i:04d}", s.key_embedding("face")) for i, s in enumerate(seeds)]
    probe = seeds[500].key_embedding("face")
    work = {"python_loop": python_loop, "face_verify": lambda: face_verify(probe, keys)}

    print("window  " + "  ".join(f"{name}_ms" for name in work))
    medians: dict[str, list[float]] = {name: [] for name in work}
    end = perf_counter() + args.seconds
    window = 0
    while perf_counter() < end:
        samples: dict[str, list[float]] = {name: [] for name in work}
        stop = perf_counter() + args.window
        while perf_counter() < stop:
            for name, fn in work.items():
                t0 = perf_counter()
                fn()
                samples[name].append(perf_counter() - t0)
        for name in work:
            medians[name].append(statistics.median(samples[name]) * 1000.0)
        print(f"{window:6d}  " + "  ".join(f"{medians[n][-1]:14.2f}" for n in work), flush=True)
        window += 1
    for name, values in medians.items():
        print(f"{name}: window medians {min(values):.2f}-{max(values):.2f} ms, "
              f"max/min {max(values) / min(values):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
