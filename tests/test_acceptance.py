"""Acceptance gate: the seven stand-alone criteria, one visible line each.

Run with -s (or -v) to see the per-criterion verdict lines. Every criterion
carries its stated tolerance and time budget; budgets are asserted from
perf_counter readings around the workload only.
"""

import math
import time

import numpy as np

from duplexmem.backends import (
    BackendClient,
    BackendTransportError,
    FlakyTransport,
    IdentitySeed,
    RetryPolicy,
    UtteranceRow,
    mock_suite,
)
from duplexmem.harness import (
    eval_retrieval,
    eval_streams,
    eval_trigger,
    eval_verification,
    run_walkthrough,
)
from duplexmem.pipeline import CycleConfig, run_management_cycle
from duplexmem.retrieval import DocumentSource, RetrievalDocument, bm25_rank, tokenize
from duplexmem.runtime import AgentConfig, TickObservation, polling_tick
from duplexmem.store import MemoryStore, seed_profile
from duplexmem.stream import DialogScript, StreamBuildConfig, TurnScript, build_stream
from duplexmem.verification import Embedding, cosine_distance, face_verify

EMILY = IdentitySeed("emily", 11)
JOHN = IdentitySeed("john", 11)


def _report(number: int, title: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {title}: {'PASS' if ok else 'FAIL'}  ({detail})", flush=True)


# --------------------------------------------------------------------------
# 1. verification machinery


def test_criterion_1_verification_machinery():
    t0 = time.perf_counter()
    table = eval_verification(n_seeds=20)
    elapsed = time.perf_counter() - t0

    never_worse = table.check("asnorm_never_worse").value
    separable = table.check("separable_eer_zero").value
    invariance = table.check("eer_rank_invariance").value
    hand = table.check("hand_example_eer").value

    ok = (
        never_worse >= 0.0
        and separable == 0.0
        and invariance <= 1e-12
        and abs(hand - 1.0 / 3.0) <= 1e-9
        and elapsed < 10.0
    )
    _report(
        1,
        "verification machinery",
        ok,
        f"worst snorm gain {never_worse:+.4f}, separable eer {separable:.3f}, "
        f"transform gap {invariance:.2e}, hand eer {hand:.6f}, {elapsed:.2f}s",
    )
    assert never_worse >= 0.0, "normalization must not hurt pass@1 on any seed"
    assert table.check("pass_at_1_snorm").value >= table.check("pass_at_1_raw").value
    assert separable == 0.0
    assert invariance <= 1e-12
    assert abs(hand - 1.0 / 3.0) <= 1e-9
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# 2. face rule


def _unit(rng: np.random.Generator, dim: int = 512) -> np.ndarray:
    v = rng.normal(size=dim).astype(np.float32)
    return v / np.linalg.norm(v)


def test_criterion_2_face_rule():
    rng = np.random.default_rng(20)
    t0 = time.perf_counter()
    cases = 0
    violations = 0

    for _ in range(500):
        n_keys = int(rng.integers(0, 9))
        keys = [
            (f"user_{i:04d}", Embedding(_unit(rng), "face")) for i in range(n_keys)
        ]
        query = Embedding(_unit(rng), "face")
        delta = float(rng.uniform(0.05, 1.3))
        decision = face_verify(query, keys, delta)
        distances = [cosine_distance(query, key) for _, key in keys]
        cases += 1
        if distances and min(distances) < delta:
            best = min(
                (dist, user_id) for (user_id, _), dist in zip(keys, distances)
            )
            if decision.outcome != "matched" or decision.user_id != best[1]:
                violations += 1
        elif decision.outcome != "new_user":
            violations += 1

    # exact ties break toward the smallest user id regardless of input order
    shared = Embedding(_unit(rng), "face")
    tie = face_verify(shared, [("user_0007", shared), ("user_0002", shared)], 0.5)
    tie_ok = tie.outcome == "matched" and tie.user_id == "user_0002"

    # strictness at the threshold, checked where float arithmetic is exact
    axis = np.zeros(512, dtype=np.float32)
    axis[0] = 1.0
    other = np.zeros(512, dtype=np.float32)
    other[1] = 1.0
    q = Embedding(axis, "face")
    at_zero = face_verify(q, [("user_0001", Embedding(axis * 2.0, "face"))], 0.0)
    at_one = face_verify(q, [("user_0001", Embedding(other, "face"))], 1.0)
    above = face_verify(q, [("user_0001", Embedding(other, "face"))], 1.0 + 1e-6)
    boundary_ok = (
        at_zero.outcome == "new_user"
        and at_one.outcome == "new_user"
        and above.outcome == "matched"
    )

    elapsed = time.perf_counter() - t0
    ok = violations == 0 and tie_ok and boundary_ok and elapsed < 1.0
    _report(
        2,
        "face rule",
        ok,
        f"{cases} random cases, {violations} violations, tie-break and "
        f"boundary exact, {elapsed:.2f}s",
    )
    assert violations == 0, f"{violations} of {cases} cases broke the distance rule"
    assert tie_ok
    assert boundary_ok
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 3. episodic trigger metrics


def test_criterion_3_trigger_metrics():
    t0 = time.perf_counter()
    table = eval_trigger(n_streams=1000)
    elapsed = time.perf_counter() - t0

    oracle_ok = (
        table.check("oracle_jaccard").value == 1.0
        and table.check("oracle_f1_at_0").value == 1.0
        and table.check("oracle_f1_at_5").value == 1.0
        and table.check("oracle_f1_at_10").value == 1.0
    )
    reference = table.check("reference_f1_at_5").value
    jitter5 = table.check("jitter_f1_at_5").value
    jitter0 = table.check("jitter_f1_at_0_below_one").value

    ok = (
        oracle_ok
        and reference >= 0.95
        and jitter5 == 1.0
        and jitter0 < 1.0
        and elapsed < 10.0
    )
    _report(
        3,
        "episodic trigger metrics",
        ok,
        f"oracle exact, reference f1@5 {reference:.3f}, jitter f1@5 {jitter5:.3f} "
        f"vs f1@0 {jitter0:.3f}, 1000 streams in {elapsed:.2f}s",
    )
    assert oracle_ok, "oracle tags must round-trip exactly"
    assert reference >= 0.95
    assert jitter5 == 1.0, "a 5-step tolerance must absorb 3-step jitter"
    assert jitter0 < 1.0, "exact matching must notice the jitter"
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# 4. text retrieval


def _bm25_oracle(query_words, documents):
    k1, b = 1.2, 0.75
    toks = [tokenize(d.text) for d in documents]
    n = len(documents)
    avgdl = sum(len(t) for t in toks) / n
    scores = {}
    for index, (doc, words) in enumerate(zip(documents, toks)):
        total = 0.0
        for term in [w.lower() for w in query_words]:
            tf = words.count(term)
            if tf == 0:
                continue
            df = sum(1 for t in toks if term in t)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(words) / avgdl))
        if total > 0.0:
            scores[index] = total
    return scores


def test_criterion_4_text_retrieval():
    t0 = time.perf_counter()
    table = eval_retrieval(seed=0, n_neighbors=25, facts_per_neighbor=20, n_queries=200)
    pass_rate = table.check("pass_at_5").value
    budget_rate = table.check("budget_compliance").value

    rng = np.random.default_rng(4)
    vocab = [f"term{i}" for i in range(30)]
    worst_gap = 0.0
    for _ in range(50):
        documents = [
            RetrievalDocument(
                " ".join(rng.choice(vocab, size=int(rng.integers(3, 12)))),
                DocumentSource("user_0001", "fact", i),
            )
            for i in range(int(rng.integers(5, 40)))
        ]
        query = list(rng.choice(vocab, size=int(rng.integers(1, 4))))
        expected = _bm25_oracle(query, documents)
        ranked = bm25_rank(query, documents)
        got = {documents.index(sd.document): sd.score for sd in ranked}
        assert set(got) == set(expected)
        for index, score in expected.items():
            worst_gap = max(worst_gap, abs(score - got[index]))
    elapsed = time.perf_counter() - t0

    ok = (
        pass_rate >= 0.95
        and worst_gap <= 1e-9
        and budget_rate == 1.0
        and elapsed < 5.0
    )
    _report(
        4,
        "text retrieval",
        ok,
        f"pass@5 {pass_rate:.3f} over 200 queries / 500 memories, bm25 oracle "
        f"gap {worst_gap:.2e}, budget compliance {budget_rate:.2f}, {elapsed:.2f}s",
    )
    assert pass_rate >= 0.95
    assert worst_gap <= 1e-9
    assert budget_rate == 1.0
    assert elapsed < 5.0


# --------------------------------------------------------------------------
# 5. supervision masks


def test_criterion_5_supervision_masks():
    t0 = time.perf_counter()
    table = eval_streams(n_scenarios=100)
    elapsed = time.perf_counter() - t0

    profile = table.check("profile_mask_count_exact").value
    per_turn = table.check("query_response_mask_count_exact").value
    lead = table.check("monologue_lead_two_steps").value

    ok = profile == 1.0 and per_turn == 1.0 and lead == 1.0
    _report(
        5,
        "supervision masks",
        ok,
        f"mask-count law {profile:.2f}/{per_turn:.2f}, two-step monologue lead "
        f"{lead:.2f} over 100 scenarios, {elapsed:.2f}s",
    )
    assert profile == 1.0, "every scenario must emit one profile mask per dialog"
    assert per_turn == 1.0, "every scenario must emit two masks per turn"
    assert lead == 1.0, "every response text must start two steps early"
    assert table.all_passed


# --------------------------------------------------------------------------
# 6. end-to-end lifelong scenario


def test_criterion_6_lifelong_walkthrough():
    t0 = time.perf_counter()
    result = run_walkthrough()
    elapsed = time.perf_counter() - t0
    table = result.table
    sim = result.simulation

    emily_id = sim.id_map["emily"]
    identified = all(day.run.tracked_user == emily_id for day in sim.days)
    counters = [day.run.counters for day in sim.days]
    refresh_law = all(
        c.refresh_signals == c.switch_count and c.loss_clear_count == 0
        for c in counters
    )

    ok = table.all_passed and identified and refresh_law and elapsed < 30.0
    _report(
        6,
        "lifelong walkthrough",
        ok,
        f"identified on both days, retrieval and overnight write verified, "
        f"refreshes == switches, deterministic, {elapsed:.2f}s",
    )
    assert table.check("day1_retrieval_mentions_tennis").passed
    assert table.check("day1_cycle_wrote_fact").passed
    assert table.check("day2_profile_carries_fact").passed
    assert table.check("deterministic_event_log").passed
    assert identified, "the enrolled speaker must be tracked on both days"
    assert refresh_law, "every profile refresh must be driven by one switch"
    assert table.all_passed, table.render_text()
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# 7. robustness under backend faults


def _fault_fixture(failure_rate, seed):
    dialogs = [
        DialogScript(
            "d0",
            tuple(
                TurnScript("Emily", "long running check", "acknowledged", 40, 30)
                for _ in range(3)
            ),
        )
    ]
    config = StreamBuildConfig(
        interruption_probability=0.0, echo_probability=0.0, speaker_markers={"Emily": 2}
    )
    built = build_stream(dialogs, config, rng_seed=0)
    rows = [
        UtteranceRow(2, t.instruction_span[0], t.instruction_span[1] - 1, "user", t.instruction_text)
        for d in built.scripts
        for t in d.turns
    ]
    suite = mock_suite(
        {2: EMILY},
        utterances=rows,
        wrap_transport=lambda t: FlakyTransport(t, failure_rate=failure_rate, seed=seed),
    )
    store = MemoryStore()
    seed_profile(store, EMILY.key_embedding("face"), EMILY.key_embedding("voice"), "Emily")
    return built, suite, store


class _PoisonTransport:
    def __init__(self, inner, word):
        self.inner = inner
        self.word = word

    def send(self, kind, envelope):
        if self.word in str(envelope.get("body", {}).get("transcript", "")):
            raise BackendTransportError("extractor shard down")
        return self.inner.send(kind, envelope)


def test_criterion_7_fault_robustness():
    t0 = time.perf_counter()
    built, suite, store = _fault_fixture(failure_rate=0.2, seed=77)
    start, end = built.scripts[0].session_span
    span = end - start
    observations = [
        polling_tick(built.stream, start + (i % span), store, suite, AgentConfig())
        for i in range(1000)
    ]
    completed = sum(1 for o in observations if isinstance(o, TickObservation))
    matched = sum(1 for o in observations if o.identity == "user_0001")
    degraded = sum(1 for o in observations if o.backend_error)

    # isolation: one poisoned extractor call must not fail the whole cycle
    dialogs = [
        DialogScript("e", (TurnScript("Emily", "emily speaking", "noted", 25, 15),)),
        DialogScript("j", (TurnScript("John", "poisoned-session words", "noted", 25, 15),)),
    ]
    config = StreamBuildConfig(
        interruption_probability=0.0,
        echo_probability=0.0,
        speaker_markers={"Emily": 2, "John": 3},
    )
    two = build_stream(dialogs, config, rng_seed=0)
    rows = []
    for dialog in two.scripts:
        marker = {"Emily": 2, "John": 3}[dialog.speaker_user]
        for t in dialog.turns:
            rows.append(UtteranceRow(marker, t.instruction_span[0], t.instruction_span[1] - 1, "user", t.instruction_text))
    clean_suite = mock_suite({2: EMILY, 3: JOHN}, utterances=rows)
    clean_suite.extractor = BackendClient(
        "extractor",
        _PoisonTransport(clean_suite.extractor._transport, "poisoned-session"),
        RetryPolicy(retries=1),
    )
    fresh = MemoryStore()
    report = run_management_cycle(
        two.stream.segment(0, len(two.stream)), fresh, clean_suite, CycleConfig(timestamp="t")
    )
    actions = [r.action for r in report.records]
    isolation_ok = (
        actions == ["created", "failed"]
        and report.records[1].error_type == "BackendTransportError"
        and fresh.user_ids == ("user_0001",)
    )
    elapsed = time.perf_counter() - t0

    ok = completed == 1000 and matched >= 800 and degraded >= 1 and isolation_ok
    _report(
        7,
        "fault robustness",
        ok,
        f"1000/1000 ticks completed at 20% failure rate ({matched} matched, "
        f"{degraded} degraded), poisoned session isolated, {elapsed:.2f}s",
    )
    assert completed == 1000, "every polling tick must return, never stall"
    assert matched >= 800
    assert degraded >= 1, "the fault injection must actually fire"
    assert isolation_ok, f"bad isolation: {actions}"
