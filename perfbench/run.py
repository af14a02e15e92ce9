"""Day-replay benchmark of duplexmem's three processes.

    python3 perfbench/run.py --workload {lifelong,crowd,recall} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The command sets the workload up from the
seed at least three times (set-up time is the median), replays one day to
warm up, then replays whole passes over its rounds of recorded days until the
time is spent, one operation after another in this one thread. Each day is parsed from its FDTS
bytes with parse_stream, run through run_agent with face and AS-norm voice
identification, checked, persisted at night and loaded back. The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced replay with --trace 1. The exit code is 1 when an output check
fails and 2 when the checkout holds no sources to benchmark.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one numeric-library thread, set before numpy loads

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, Callable, Mapping, Sequence  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 3  # at least this many set-ups, and more until SETUP_SECONDS are spent
SETUP_SECONDS = 2.0


def parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("lifelong", "crowd", "recall"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None, sizes: Mapping[str, int] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "duplexmem", "__init__.py")):
        print("perfbench: no src/duplexmem in this checkout to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import replay  # after the check: it imports duplexmem from src/
    from spans import BackendTally, Tracer, per_layer
    from workloads import BUILDERS, SIZES

    tally = BackendTally()
    tracer = Tracer() if args.trace else None
    span: Callable[..., Any] = tracer.wrap if tracer else (lambda name, fn, value=None: fn)
    setup_s = []
    while len(setup_s) < SETUPS or (sum(setup_s) < SETUP_SECONDS and len(setup_s) < 5 * SETUPS):
        gc.collect()
        start = perf_counter()
        workload = BUILDERS[args.workload](args.seed, tally, span,
                                           **(sizes or SIZES[args.workload]))
        setup_s.append(perf_counter() - start)

    scratch = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        replay.write_checkpoints(workload, scratch)
        bench = replay.Bench(workload, tally, scratch)
        bench.replay_round(workload.rounds[0], days=1)  # warm-up, not measured
        bench.start(tracer)
        gc.collect()
        gc.freeze()
        deadline = perf_counter() + args.seconds
        passes = 0
        while passes == 0 or (perf_counter() < deadline and not bench.errors):
            for rnd in workload.rounds:  # whole passes, so every round weighs the same
                bench.replay_round(rnd)
            bench.end_pass()
            passes += 1
        gc.unfreeze()
        bench.finish()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
        metrics = per_layer(tracer, bench.days)
    else:
        metrics = bench.end_to_end(statistics.median(setup_s))
    for error in bench.errors[:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {passes} passes, {bench.days} days "
          f"at {bench.steps / bench.replay_s:.0f} steps/s, {len(bench.errors)} check errors",
          file=sys.stderr)
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not bench.errors else 1


if __name__ == "__main__":
    sys.exit(main())
