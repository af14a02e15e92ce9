"""Tests of the benchmark itself: each checker rejects a corrupted output, and
every workload runs end to end at a tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import run  # noqa: E402
from duplexmem.backends import MockTextEncoderService  # noqa: E402
from duplexmem.store import MemoryStore, seed_profile  # noqa: E402
from duplexmem.verification import Embedding  # noqa: E402

CAPACITY = 256
DOCS = [
    "Nora, colleague, 2024-05-01, tennis fan",
    "Nora, colleague, 2024-05-02, into chess",
    "Nora, colleague, 2024-05-03, pottery club",
    "Ivan, cousin, 2024-05-04, tennis club",
    "Ivan, cousin, 2024-05-05, into baking",
]


def _key(seed: int, modality: str, dim: int) -> Embedding:
    return Embedding(np.random.default_rng(seed).standard_normal(dim), modality)


def test_ticks_reject_a_swapped_user_id() -> None:
    tokens = np.zeros((100, 17), dtype=np.int32)
    tokens[10:40, 1] = 2
    tokens[40:60, 1] = 3
    tokens[60:62, 1] = 2
    markers = checks.dominant_markers(tokens, [24, 49, 74, 99], window=25)
    assert markers == {24: 2, 49: 2, 74: 3, 99: None}
    users = {2: "user_0001", 3: "user_0002"}
    expected = {step: users.get(m) for step, m in markers.items()}
    observed = [(step, users.get(m)) for step, m in markers.items()]
    assert checks.check_ticks(observed, expected) == []
    observed[2] = (74, "user_0001")
    assert checks.check_ticks(observed, expected)


def test_facts_reject_a_dropped_fact() -> None:
    facts = [("Nora won a match", "2024-05-01"), ("Nora bought gear", "2024-05-02")]
    full, short = MemoryStore(), MemoryStore()
    user = seed_profile(full, _key(1, "face", 512), _key(2, "voice", 256), "Nora", facts=facts)
    seed_profile(short, _key(1, "face", 512), _key(2, "voice", 256), "Nora", facts=facts[:1])
    expected = [(user, text) for text, _ in facts]
    assert checks.check_facts(full, expected) == []
    assert checks.check_facts(short, expected)


def test_relation_window_rejects_another_relation_and_overflow() -> None:
    window = "\n".join(DOCS[:3])
    assert checks.check_relation_window(window, ("colleague",), CAPACITY) == []
    assert checks.check_relation_window("\n".join(DOCS[:2] + DOCS[3:4]), ("colleague",), CAPACITY)
    assert checks.check_relation_window("\n".join(DOCS[:1] * 7), ("colleague",), CAPACITY)


def test_ranked_window_rejects_another_relation_a_lower_rank_and_overflow() -> None:
    matrix = np.stack([MockTextEncoderService.embed_vector(d) for d in DOCS])
    scores = matrix @ MockTextEncoderService.embed_vector("tennis")
    index = {text: row for row, text in enumerate(DOCS)}
    colleague = np.array(["colleague" in checks.words(d) for d in DOCS])
    order = [int(r) for r in np.argsort(-scores, kind="stable") if colleague[r]]

    def check(rows: list[int], capacity: int = CAPACITY) -> list[str]:
        content = "\n".join(DOCS[r] for r in rows)
        return checks.check_ranked_window(content, index, scores, colleague, capacity)

    assert check(order[:2]) == []
    assert check([order[0], 3])  # a document from another relation
    assert check(order[1:2])  # leaves out a better-scored candidate
    assert check(order[:2], capacity=40)  # over capacity
    assert checks.check_ranked_window("", index, scores, colleague, CAPACITY)


def test_enrolment_and_rate_checks() -> None:
    assert checks.check_enrolment(["Stranger001"], ["Stranger001", "Stranger001"]) == []
    assert checks.check_enrolment(["Stranger001", "Stranger001"], ["Stranger001"])
    assert checks.check_enrolment([], ["Stranger001"])
    assert checks.check_rate(19, 20, 0.95, "own fact") == []
    assert checks.check_rate(18, 20, 0.95, "own fact")


TINY = {
    "lifelong": {"households": 1, "days": 2},
    "crowd": {"regulars": 20, "rounds": 1, "days": 2},
    "recall": {"neighbors": 3, "facts": 10, "days": 1, "dialogs": 1, "turns": 5},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_runs_at_a_tiny_size(workload: str, trace: int, capsys: pytest.CaptureFixture) -> None:
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY[workload]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    if trace:
        assert "backends.validate_ms" in metrics and "runtime.loop_self_ms" in metrics
    else:
        assert all(m["value"] > 0 for m in metrics.values()), metrics
