"""Verification math against hand-derived and brute-force oracles."""

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexmem import verification
from duplexmem.harness import cohort_sets, demo_scenario
from duplexmem.store import MemoryStore, seed_profile
from duplexmem.verification import (
    DEFAULT_COHORT_TOP_N,
    DEFAULT_FACE_DELTA,
    DEFAULT_SPEAKER_THETA,
    CohortSet,
    DegenerateCohortError,
    Embedding,
    EmbeddingShapeError,
    KeyMatrix,
    ModalityMismatchError,
    VerificationDecision,
    VerificationError,
    _asnorm,
    compute_eer,
    cosine_distance,
    cosine_similarity,
    face_verify,
    pass_at_k,
    speaker_verify,
)


def face_vec(seed: int) -> Embedding:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(512)
    return Embedding(v / np.linalg.norm(v), "face")


def voice_vec(seed: int) -> Embedding:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(256)
    return Embedding(v / np.linalg.norm(v), "voice")


# --------------------------------------------------------------------------
# embeddings and distance


class TestEmbedding:
    def test_zero_norm_rejected(self):
        with pytest.raises(EmbeddingShapeError):
            Embedding(np.zeros(512), "face")

    def test_nan_rejected(self):
        v = np.ones(512)
        v[0] = np.nan
        with pytest.raises(EmbeddingShapeError):
            Embedding(v, "face")

    def test_wrong_dim_rejected(self):
        with pytest.raises(EmbeddingShapeError):
            Embedding(np.ones(256), "face")
        with pytest.raises(EmbeddingShapeError):
            Embedding(np.ones(512), "voice")

    def test_values_read_only_float32(self):
        e = face_vec(0)
        assert e.values.dtype == np.float32
        with pytest.raises(ValueError):
            e.values[0] = 1.0

    def test_distance_identical_is_zero(self):
        e = face_vec(1)
        assert cosine_distance(e, e) == 0.0

    def test_distance_opposite_is_two(self):
        v = np.zeros(512)
        v[0] = 1.0
        a = Embedding(v, "face")
        b = Embedding(-v, "face")
        assert cosine_distance(a, b) == 2.0

    def test_distance_orthogonal_is_one(self):
        v1 = np.zeros(512)
        v2 = np.zeros(512)
        v1[0] = 1.0
        v2[1] = 1.0
        assert cosine_distance(Embedding(v1, "face"), Embedding(v2, "face")) == 1.0

    def test_scale_invariance(self):
        v = np.arange(1, 513, dtype=np.float64)
        a = Embedding(v, "face")
        b = Embedding(3.5 * v, "face")
        assert cosine_distance(a, b) == pytest.approx(0.0, abs=1e-6)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_distance_range_property(self, s1, s2):
        d = cosine_distance(face_vec(s1), face_vec(s2))
        assert 0.0 <= d <= 2.0


# --------------------------------------------------------------------------
# face rule


class TestFaceVerify:
    def test_empty_gallery_is_new_user(self):
        decision = face_verify(face_vec(0), [])
        assert decision.outcome == "new_user"
        assert decision.user_id is None

    def test_close_match_accepted(self):
        key = face_vec(3)
        noisy = Embedding(
            key.values + 0.01 * np.float32(1.0) * face_vec(4).values, "face"
        )
        decision = face_verify(noisy, [("user_0001", key)], delta=0.3)
        assert decision.outcome == "matched"
        assert decision.user_id == "user_0001"

    def test_boundary_is_exclusive(self):
        # orthogonal key: distance exactly 1.0, delta 1.0 must not match
        v1 = np.zeros(512)
        v2 = np.zeros(512)
        v1[0] = 1.0
        v2[1] = 1.0
        q = Embedding(v1, "face")
        decision = face_verify(q, [("u", Embedding(v2, "face"))], delta=1.0)
        assert decision.outcome == "new_user"

    def test_tie_breaks_to_smallest_id(self):
        key = face_vec(7)
        gallery = [("user_0009", key), ("user_0002", key), ("user_0005", key)]
        decision = face_verify(key, gallery, delta=0.5)
        assert decision.user_id == "user_0002"

    def test_modality_checked(self):
        with pytest.raises(ModalityMismatchError):
            face_verify(voice_vec(0), [])
        with pytest.raises(ModalityMismatchError):
            face_verify(face_vec(0), [("u", voice_vec(1))])

    @given(
        st.lists(st.integers(0, 5_000), min_size=1, max_size=6, unique=True),
        st.integers(10_000, 15_000),
        st.floats(0.01, 1.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_matched_iff_min_distance_below_delta(self, key_seeds, query_seed, delta):
        gallery = [(f"user_{i:04d}", face_vec(s)) for i, s in enumerate(key_seeds)]
        query = face_vec(query_seed)
        decision = face_verify(query, gallery, delta=delta)
        min_d = min(cosine_distance(query, key) for _, key in gallery)
        if min_d < delta:
            assert decision.outcome == "matched"
            expect = min(
                (uid for uid, key in gallery if cosine_distance(query, key) == min_d)
            )
            assert decision.user_id == expect
            assert decision.score == min_d
        else:
            assert decision.outcome == "new_user"
            assert decision.user_id is None


# --------------------------------------------------------------------------
# adaptive s-norm


def _top_cohort_stats(scores: Sequence[float] | np.ndarray, top_n: int) -> tuple[float, float]:
    """The per-key statistic that KeyMatrix.key_stats replaced, kept verbatim."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1:
        raise VerificationError("cohort scores must be a flat sequence")
    if arr.shape[0] < top_n:
        raise VerificationError(f"need at least top_n={top_n} cohort scores, got {arr.shape[0]}")
    top = np.sort(arr)[::-1][:top_n]
    mean = float(top.mean())
    std = float(top.std())  # population std over the selected cohort
    if std == 0.0:
        raise DegenerateCohortError("cohort score std is zero")
    return mean, std


def asnorm_score(
    raw_score: float,
    query_cohort_scores: Sequence[float] | np.ndarray,
    key_cohort_scores: Sequence[float] | np.ndarray,
    top_n: int = DEFAULT_COHORT_TOP_N,
) -> float:
    """Adaptive s-norm: average of the two cohort-standardized scores.

    Each side keeps only its top_n highest cohort scores, and the raw score is
    standardized by that side's mean and population standard deviation. The
    returned value is the mean of the two standardized scores.
    """
    mean_q, std_q = _top_cohort_stats(query_cohort_scores, top_n)
    mean_k, std_k = _top_cohort_stats(key_cohort_scores, top_n)
    return _asnorm(raw_score, mean_q, std_q, mean_k, std_k)


class TestAsnorm:
    def test_hand_example_exact(self):
        # query top-2 of {1.0, 0.5, 0.25} -> mean 0.75, std 0.25
        # key top-2 of {0.5, 0.25, 0.0} -> mean 0.375, std 0.125
        # 0.5 * ((1.0-0.75)/0.25 + (1.0-0.375)/0.125) = 0.5 * (1 + 5) = 3
        value = asnorm_score(1.0, [1.0, 0.5, 0.25], [0.5, 0.25, 0.0], top_n=2)
        assert value == 3.0

    def test_hand_example_decimal(self):
        # query top-2 of {0.9, 0.5, 0.1} -> mean 0.7, std 0.2
        # key top-2 of {0.8, 0.4, 0.0} -> mean 0.6, std 0.2
        # 0.5 * (0.05/0.2 + 0.15/0.2) = 0.5
        value = asnorm_score(0.75, [0.9, 0.5, 0.1], [0.8, 0.4, 0.0], top_n=2)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            q = rng.normal(0.2, 0.3, 40)
            k = rng.normal(0.1, 0.4, 40)
            raw = float(rng.normal())
            top_n = int(rng.integers(2, 40))

            def stats(scores):
                top = sorted(scores, reverse=True)[:top_n]
                mean = sum(top) / len(top)
                var = sum((x - mean) ** 2 for x in top) / len(top)
                return mean, math.sqrt(var)

            mq, sq = stats(q.tolist())
            mk, sk = stats(k.tolist())
            expected = 0.5 * ((raw - mq) / sq + (raw - mk) / sk)
            assert asnorm_score(raw, q, k, top_n) == pytest.approx(expected, abs=1e-9)

    def test_population_std_not_sample(self):
        # top-2 of {1.0, 0.0, -1.0}: mean 0.5, population std 0.5 (sample would be ~0.707)
        value = asnorm_score(1.0, [1.0, 0.0, -1.0], [1.0, 0.0, -1.0], top_n=2)
        assert value == 1.0

    def test_degenerate_cohort_raises(self):
        with pytest.raises(DegenerateCohortError):
            asnorm_score(0.5, [0.3, 0.3, 0.3], [0.9, 0.1, 0.0], top_n=2)

    def test_too_few_scores_raises(self):
        with pytest.raises(VerificationError):
            asnorm_score(0.5, [0.3], [0.9, 0.1], top_n=2)


class TestSpeakerVerify:
    def build_cohorts(self, n=8, top_n=4):
        q = CohortSet(tuple(voice_vec(100 + i) for i in range(n)), top_n=top_n)
        k = CohortSet(tuple(voice_vec(200 + i) for i in range(n)), top_n=top_n)
        return q, k

    def test_empty_gallery(self):
        q, k = self.build_cohorts()
        decision = speaker_verify(voice_vec(0), [], q, k)
        assert decision.outcome == "new_user"

    def test_matches_manual_asnorm(self):
        q_cohort, k_cohort = self.build_cohorts()
        query = voice_vec(1)
        users = [("user_0001", voice_vec(2)), ("user_0002", voice_vec(3))]
        q_scores = q_cohort.scores_against(query)
        best = None
        for uid, key in users:
            raw = cosine_similarity(query, key)
            norm = asnorm_score(raw, q_scores, k_cohort.scores_against(key), 4)
            if best is None or norm > best[0]:
                best = (norm, uid)
        decision = speaker_verify(query, users, q_cohort, k_cohort, theta=-100.0)
        assert decision.outcome == "matched"
        assert decision.user_id == best[1]
        assert decision.score == pytest.approx(best[0], abs=1e-12)

    def test_threshold_is_strict(self):
        q_cohort, k_cohort = self.build_cohorts()
        query = voice_vec(1)
        users = [("u", voice_vec(2))]
        decision = speaker_verify(query, users, q_cohort, k_cohort, theta=-100.0)
        exact = decision.score
        at_threshold = speaker_verify(query, users, q_cohort, k_cohort, theta=exact)
        assert at_threshold.outcome == "new_user"

    def test_same_identity_normalized_above_default_theta(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal(256)
        base /= np.linalg.norm(base)
        noisy = base + 0.02 * rng.standard_normal(256)
        key = Embedding(base, "voice")
        query = Embedding(noisy, "voice")
        q_cohort = CohortSet(tuple(voice_vec(300 + i) for i in range(250)), top_n=200)
        k_cohort = CohortSet(tuple(voice_vec(600 + i) for i in range(250)), top_n=200)
        decision = speaker_verify(query, [("u", key)], q_cohort, k_cohort)
        assert decision.outcome == "matched"
        assert decision.score > 6.0

    def test_mismatched_top_n_rejected(self):
        q = CohortSet(tuple(voice_vec(i) for i in range(8)), top_n=4)
        k = CohortSet(tuple(voice_vec(20 + i) for i in range(8)), top_n=5)
        with pytest.raises(VerificationError):
            speaker_verify(voice_vec(0), [("u", voice_vec(1))], q, k)


# --------------------------------------------------------------------------
# key-matrix screen against the per-pair loops it replaced


def reference_face_verify(query, users, delta):
    """The loop over every key that face_verify replaced, kept verbatim."""
    if query.modality != "face":
        raise ModalityMismatchError(f"query modality {query.modality!r}, expected 'face'")
    if not users:
        return VerificationDecision("new_user", None, None, None, delta)
    best_id: str | None = None
    best_d = math.inf
    for user_id, key in sorted(users, key=lambda item: item[0]):
        if key.modality != "face":
            raise ModalityMismatchError(f"key for {user_id!r} has modality {key.modality!r}")
        d = cosine_distance(query, key)
        if d < best_d:
            best_d = d
            best_id = user_id
    if best_d < delta:
        return VerificationDecision("matched", best_id, best_d, best_d, delta)
    return VerificationDecision("new_user", None, None, best_d, delta)


def reference_speaker_verify(query, users, query_cohort, key_cohort, theta):
    """The loop over every key that speaker_verify replaced, kept verbatim."""
    if query.modality != "voice":
        raise ModalityMismatchError(f"query modality {query.modality!r}, expected 'voice'")
    if query_cohort.top_n != key_cohort.top_n:
        raise VerificationError("query and key cohorts must agree on top_n")
    if not users:
        return VerificationDecision("new_user", None, None, None, theta)
    top_n = query_cohort.top_n
    q_scores = query_cohort.scores_against(query)
    best: tuple[float, str, float] | None = None  # (normalized, user_id, raw)
    for user_id, key in sorted(users, key=lambda item: item[0]):
        if key.modality != "voice":
            raise ModalityMismatchError(f"key for {user_id!r} has modality {key.modality!r}")
        raw = cosine_similarity(query, key)
        k_scores = key_cohort.scores_against(key)
        normalized = asnorm_score(raw, q_scores, k_scores, top_n)
        if best is None or normalized > best[0]:
            best = (normalized, user_id, raw)
    assert best is not None
    normalized, user_id, raw = best
    if normalized > theta:
        return VerificationDecision("matched", user_id, normalized, raw, theta)
    return VerificationDecision("new_user", None, normalized, raw, theta)


@st.composite
def galleries(draw, dim):
    """(query, shuffled pairs) with exact duplicates and scaled parallel copies
    of some keys, ids on either side of user_9999/user_10000, and a query that
    is often parallel to a key, so that its similarity clamps at 1."""
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.standard_normal((n, dim))
    for i in range(1, n):
        copy = draw(st.sampled_from(["own", "own", "own", "duplicate", "scaled"]))
        if copy != "own":
            vectors[i] = vectors[int(rng.integers(i))] * (1.0 if copy == "duplicate" else 3.0)
    first = draw(st.sampled_from([1, 9_999 - n // 2, 9_990]))
    pairs = [(f"user_{first + i:04d}", Embedding(v, VECTOR_MODALITY[dim]))
             for i, v in enumerate(vectors)]
    rng.shuffle(pairs)
    if n and draw(st.booleans()):
        query = vectors[int(rng.integers(n))] * draw(st.sampled_from([1.0, 0.5, 7.0]))
        query = query + draw(st.sampled_from([0.0, 1e-3, 0.3])) * rng.standard_normal(dim)
    else:
        query = rng.standard_normal(dim)
    return Embedding(query, VECTOR_MODALITY[dim]), pairs


VECTOR_MODALITY = {512: "face", 256: "voice"}
SPEAKER_COHORTS = (
    CohortSet(tuple(voice_vec(1000 + i) for i in range(40)), top_n=20),
    CohortSet(tuple(voice_vec(2000 + i) for i in range(40)), top_n=20),
)


def appended(pairs, modality):
    """A view of rows appended in the pairs' own (unsorted) order."""
    matrix = KeyMatrix(modality)
    for user_id, key in pairs:
        matrix.append(user_id, key.values)
    return matrix.view()


class TestKeyMatrixEquivalence:
    @given(galleries(512), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_face_decision_equals_the_loop(self, gallery, at_score):
        query, pairs = gallery
        delta = DEFAULT_FACE_DELTA
        expected = reference_face_verify(query, pairs, delta)
        if at_score and expected.raw_score is not None:
            delta = expected.raw_score  # a threshold equal to the best distance
            expected = reference_face_verify(query, pairs, delta)
        assert face_verify(query, pairs, delta) == expected
        assert face_verify(query, appended(pairs, "face"), delta) == expected

    @given(galleries(256), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_speaker_decision_equals_the_loop(self, gallery, at_score):
        query, pairs = gallery
        q_cohort, k_cohort = SPEAKER_COHORTS
        theta = DEFAULT_SPEAKER_THETA
        expected = reference_speaker_verify(query, pairs, q_cohort, k_cohort, theta)
        if at_score and expected.score is not None:
            theta = expected.score  # a threshold equal to the best normalized score
            expected = reference_speaker_verify(query, pairs, q_cohort, k_cohort, theta)
        assert speaker_verify(query, pairs, q_cohort, k_cohort, theta) == expected
        view = appended(pairs, "voice")
        assert speaker_verify(query, view, q_cohort, k_cohort, theta) == expected
        # again from the key statistics cached by the first call
        assert speaker_verify(query, view, q_cohort, k_cohort, theta) == expected

    def test_view_reads_pairs_sorted_by_id(self):
        pairs = [("user_10000", face_vec(1)), ("user_9999", face_vec(2)), ("user_0001", face_vec(3))]
        view = appended(pairs, "face")
        assert len(view) == 3
        assert [uid for uid, _ in view] == ["user_0001", "user_10000", "user_9999"]
        assert view[1] == ("user_10000", face_vec(1))
        assert not view[0][1].values.flags.writeable

    @pytest.mark.parametrize("modality", ["face", "voice"])
    def test_rows_carry_the_norms_embedding_computes(self, modality):
        rng = np.random.default_rng(7)
        dim = 512 if modality == "face" else 256
        scales = [1e-15, 1e-3, 1.0, 3.0, 1e15]
        values = [rng.standard_normal(dim) * scales[i % len(scales)] for i in range(150)]
        ids = [f"user_{i:04d}" for i in range(150)]
        from_empty = KeyMatrix(modality)
        from_empty.extend(ids[:149], values[:149])
        from_empty.append(ids[149], values[149])  # into the spare rows
        part_filled = KeyMatrix(modality)
        part_filled.append(ids[0], values[0])
        part_filled.extend(ids[1:], np.array(values[1:]))  # grows past the first 65 rows
        for row, value in enumerate(values):
            expected = Embedding(value, modality)
            for matrix in (from_empty, part_filled):
                got = matrix.key(row)
                assert got == expected and got.norm == expected.norm
                assert not got.values.flags.writeable
        assert [uid for uid, _ in part_filled.view()] == ids

    @pytest.mark.parametrize("n, grows", [(64, False), (65, True)])
    def test_extend_to_the_spare_rows_and_one_past(self, n, grows):
        rng = np.random.default_rng(17)
        ids = [f"user_{i:04d}" for i in range(1 + n)]
        values = rng.standard_normal((1 + n, 256))
        matrix = KeyMatrix("voice")
        matrix.append(ids[0], values[0])  # one row and 64 spare ones
        rows = matrix._data[0]
        matrix.extend(ids[1:], values[1:])
        assert (matrix._data[0] is not rows) == grows
        assert matrix.view().ids == ids
        assert np.array_equal(matrix.view().rows(), values.astype(np.float32))
        for row, value in enumerate(values):
            expected = Embedding(value, "voice")
            assert matrix.key(row) == expected and matrix.key(row).norm == expected.norm

    @pytest.mark.parametrize("modality", ["face", "voice"])
    def test_view_and_key_read_the_same_after_growth(self, modality):
        rng = np.random.default_rng(19)
        dim = 512 if modality == "face" else 256
        ids = [f"user_{i:04d}" for i in range(200)]
        values = rng.standard_normal((200, dim))
        matrix = KeyMatrix(modality)
        matrix.append(ids[0], values[0])
        matrix.extend(ids[1:65], values[1:65])  # fills the array: the next row grows it
        view, key = matrix.view(), matrix.key(3)
        probes = [values[i] + 0.05 * rng.standard_normal(dim) for i in (3, 40)]
        probes = [Embedding(p, modality) for p in probes + [rng.standard_normal(dim)]]

        def decide(probe):
            if modality == "face":
                return face_verify(probe, view)
            return speaker_verify(probe, view, *SPEAKER_COHORTS)

        def read():
            return (
                list(view.ids), view.rows(), [view.similarities(p) for p in probes],
                [decide(p) for p in probes], list(view),
            )

        before, rows = read(), matrix._data[0]
        for user_id, row in zip(ids[65:], values[65:]):
            matrix.append(user_id, row)
        assert matrix._data[0] is not rows
        after = read()
        assert after[0] == before[0] == ids[:65] and len(view) == 65
        assert np.array_equal(after[1], before[1])
        assert all(np.array_equal(a, b) for a, b in zip(after[2], before[2]))
        assert after[3] == before[3]
        assert {d.outcome for d in after[3]} == {"matched", "new_user"}
        assert after[4] == before[4]
        assert key == Embedding(values[3], modality) and not key.values.flags.writeable

    def test_rejected_row_adds_none(self):
        matrix = KeyMatrix("voice")
        matrix.append("user_0001", voice_vec(1).values)
        good, two = voice_vec(2).values, ["user_0002", "user_0003"]
        bad_inputs = (
            (two, [good, np.zeros(256)]),
            ([f"user_{i:04d}" for i in range(2, 67)], [good] * 64 + [np.zeros(256)]),  # grows
            (two, [good, np.full(256, np.inf)]),
            (two, [good, np.full(256, np.nan)]),
            (two, [good, np.ones(255)]),  # ragged
            (two, np.ones((2, 255))),
            (two, np.ones((2, 257))),
            (two, np.ones((3, 256))),  # more rows than user ids
            (two, np.ones((1, 256))),  # fewer
            (two[:1], good),  # one row, not a (1, 256) array
        )
        data = matrix._data
        for user_ids, values in bad_inputs:
            with pytest.raises(EmbeddingShapeError):
                matrix.extend(user_ids, values)
        assert len(matrix.view()) == 1 and matrix._data is data
        matrix.append("user_0002", voice_vec(2).values)
        assert matrix.key(1) == voice_vec(2)
        assert [uid for uid, _ in matrix.view()] == ["user_0001", "user_0002"]

    def test_view_of_other_modality_rejected(self):
        view = appended([("u", voice_vec(1))], "voice")
        with pytest.raises(ModalityMismatchError):
            face_verify(face_vec(0), view)

    def test_zero_std_key_cohort_raises(self):
        e0, e1 = np.zeros(256), np.zeros(256)
        e0[0], e1[1] = 1.0, 1.0
        key_cohort = CohortSet(tuple(Embedding(e1, "voice") for _ in range(4)), top_n=4)
        query_cohort = CohortSet(tuple(voice_vec(100 + i) for i in range(4)), top_n=4)
        users = [("user_0001", Embedding(e0, "voice"))]
        with pytest.raises(DegenerateCohortError):
            reference_speaker_verify(voice_vec(0), users, query_cohort, key_cohort, 6.0)
        with pytest.raises(DegenerateCohortError):
            speaker_verify(voice_vec(0), users, query_cohort, key_cohort, 6.0)


# --------------------------------------------------------------------------
# key-side AS-norm statistics at the production shape


@pytest.fixture(scope="module")
def production_cohorts():
    """The harness's query and key cohorts: 250 members each, top_n 200."""
    return cohort_sets(demo_scenario())


@pytest.fixture(scope="module")
def crowd_rows():
    rng = np.random.default_rng(11)
    return [f"user_{i:04d}" for i in range(1001)], rng.standard_normal((1001, 256))


def per_key_stats(matrix, cohort):
    """(means, stds) of every row, one key at a time, as key_stats did."""
    keys = [matrix.key(row) for row in range(len(matrix.view()))]
    stats = [_top_cohort_stats(cohort.scores_against(k), cohort.top_n) for k in keys]
    return tuple(np.array(column) for column in zip(*stats))


def assert_stats_equal(got, expected):
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


class TestKeyStats:
    def test_one_extend_equals_per_key(self, production_cohorts, crowd_rows):
        _, cohort = production_cohorts
        matrix = KeyMatrix("voice")
        matrix.extend(*crowd_rows)  # as MemoryStore.load fills a matrix
        assert_stats_equal(matrix.key_stats(cohort, 1001), per_key_stats(matrix, cohort))

    def test_appends_equal_per_key(self, production_cohorts, crowd_rows):
        _, cohort = production_cohorts
        matrix = KeyMatrix("voice")
        for user_id, values in zip(*crowd_rows):
            matrix.append(user_id, values)
        assert_stats_equal(matrix.key_stats(cohort, 1001), per_key_stats(matrix, cohort))

    def test_cached_rows_are_not_scored_again(self, production_cohorts, crowd_rows, monkeypatch):
        _, cohort = production_cohorts
        ids, values = crowd_rows
        matrix = KeyMatrix("voice")
        matrix.extend(ids[:100], values[:100])
        first = matrix.key_stats(cohort, 100)
        for user_id, row in zip(ids[100:300], values[100:300]):  # grows 164 rows to 328
            matrix.append(user_id, row)
        matrix.extend(ids[300:], values[300:])  # grows to 1,065
        scored = []
        real = verification._top_cohort_stats

        def spy(scores, top_n):
            scored.append(scores)
            return real(scores, top_n)

        monkeypatch.setattr(verification, "_top_cohort_stats", spy)
        got = matrix.key_stats(cohort, 1001)
        expected = per_key_stats(matrix, cohort)
        assert_stats_equal(got, expected)
        assert_stats_equal(first, (expected[0][:100], expected[1][:100]))
        new_rows = [cohort.scores_against(matrix.key(row)) for row in range(100, 1001)]
        assert np.array_equal(np.concatenate(scored), np.stack(new_rows))

    def test_switched_cohort_equals_per_key(self, production_cohorts, crowd_rows):
        query_cohort, key_cohort = production_cohorts
        matrix = KeyMatrix("voice")
        matrix.extend(*crowd_rows)
        matrix.key_stats(key_cohort, 500)
        for cohort in (query_cohort, key_cohort):
            assert_stats_equal(matrix.key_stats(cohort, 1001), per_key_stats(matrix, cohort))

    def test_cohort_of_another_dimension_raises(self):
        matrix = KeyMatrix("voice")
        matrix.extend(["user_0001", "user_0002"], [voice_vec(1).values, voice_vec(2).values])
        face_cohort = CohortSet(tuple(face_vec(100 + i) for i in range(4)), top_n=2)
        with pytest.raises(EmbeddingShapeError):
            matrix.key_stats(face_cohort, 2)

    def test_degenerate_row_raises_and_caches_nothing(self):
        rng = np.random.default_rng(3)
        members = np.zeros((8, 256))
        members[:, :128] = rng.standard_normal((8, 128))
        cohort = CohortSet(tuple(Embedding(m, "voice") for m in members), top_n=4)
        matrix = KeyMatrix("voice")
        matrix.extend([f"user_{i:04d}" for i in range(10)], rng.standard_normal((10, 256)))
        means, stds = matrix.key_stats(cohort, 10)
        before = matrix._stats
        rows = rng.standard_normal((60, 256))
        rows[56, :128] = 0.0  # row 66: orthogonal to every member
        matrix.extend([f"user_{i:04d}" for i in range(10, 70)], rows)
        with pytest.raises(DegenerateCohortError):
            matrix.key_stats(cohort, 70)
        assert matrix._stats is before
        assert_stats_equal(matrix.key_stats(cohort, 10), (means, stds))


class TestDecisionsSurviveARoundTrip:
    def test_speaker_decisions_equal_after_persist_and_load(self, production_cohorts, tmp_path):
        query_cohort, key_cohort = production_cohorts
        rng = np.random.default_rng(5)
        voices = rng.standard_normal((70, 256))  # grows past the first 65 rows
        store = MemoryStore()
        for i, voice in enumerate(voices):
            face = Embedding(rng.standard_normal(512), "face")
            seed_profile(store, face, Embedding(voice, "voice"), f"Person {i}")
        probes = [voices[i] + 0.05 * rng.standard_normal(256) for i in range(0, 70, 7)]
        probes += [rng.standard_normal(256) for _ in range(5)]  # strangers
        probes = [Embedding(p, "voice") for p in probes]

        def decide(memory):
            keys = memory.user_keys("voice")
            return [speaker_verify(p, keys, query_cohort, key_cohort) for p in probes]

        before = decide(store)
        store.persist(str(tmp_path / "store"))
        after = decide(MemoryStore.load(str(tmp_path / "store")))
        assert after == before  # outcome, user id and bit-equal score and raw score
        assert {d.outcome for d in before} == {"matched", "new_user"}
        pairs = list(store.user_keys("voice"))
        expected = [reference_speaker_verify(p, pairs, query_cohort, key_cohort,
                                             DEFAULT_SPEAKER_THETA) for p in probes]
        assert before == expected


# --------------------------------------------------------------------------
# EER


class TestComputeEer:
    def test_hand_example_one_third(self):
        eer, threshold = compute_eer([0.9, 0.8, 0.6, 0.7, 0.2, 0.1], [1, 1, 1, 0, 0, 0])
        assert abs(eer - 1.0 / 3.0) <= 1e-9
        assert threshold == 0.7

    def test_separable_zero(self):
        scores = [0.9, 0.8, 0.85, 0.2, 0.1, 0.15]
        labels = [1, 1, 1, 0, 0, 0]
        eer, _ = compute_eer(scores, labels)
        assert eer == 0.0

    def test_reversed_scores_half_or_worse(self):
        # positives strictly below negatives: no threshold separates them
        eer, _ = compute_eer([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert eer >= 0.5

    def test_interpolated_crossing(self):
        # pos {0.6, 0.8}, neg {0.5, 0.7}
        # t=0.5: FAR 1, FRR 0; t=0.6: FAR 1/2, FRR 0; t=0.7: FAR 1/2, FRR 1/2
        eer, threshold = compute_eer([0.6, 0.8, 0.5, 0.7], [1, 1, 0, 0])
        assert eer == 0.5
        assert threshold == 0.7

    def test_monte_carlo_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(10_000)
        labels = np.concatenate([np.ones(5_000, bool), np.zeros(5_000, bool)])
        eer, _ = compute_eer(scores, labels)
        assert abs(eer - 0.5) < 0.02

    def test_single_class_rejected(self):
        with pytest.raises(VerificationError):
            compute_eer([0.5, 0.6], [1, 1])

    @given(st.integers(0, 1_000))
    @settings(max_examples=40, deadline=None)
    def test_rank_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        scores = rng.normal(0, 1, n)
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = True
            labels[1] = False
        base, _ = compute_eer(scores, labels)
        affine, _ = compute_eer(3.0 * scores + 2.0, labels)
        monotone, _ = compute_eer(np.tanh(scores), labels)
        assert abs(base - affine) <= 1e-12
        assert abs(base - monotone) <= 1e-12

    @given(st.integers(0, 1_000))
    @settings(max_examples=40, deadline=None)
    def test_eer_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(0, 1, 30)
        labels = np.concatenate([np.ones(15, bool), np.zeros(15, bool)])
        eer, _ = compute_eer(scores, labels)
        assert 0.0 <= eer <= 1.0


class TestPassAtK:
    def test_basic(self):
        assert pass_at_k([1, 2, 3, 10], 1) == 0.25
        assert pass_at_k([1, 2, 3, 10], 3) == 0.75
        assert pass_at_k([1, 2, 3, 10], 10) == 1.0

    def test_validation(self):
        with pytest.raises(VerificationError):
            pass_at_k([], 1)
        with pytest.raises(VerificationError):
            pass_at_k([0], 1)
        with pytest.raises(VerificationError):
            pass_at_k([1], 0)

    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=30),
        st.integers(1, 49),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_decreasing_in_k(self, ranks, k):
        assert pass_at_k(ranks, k) <= pass_at_k(ranks, k + 1)


class TestCohortSet:
    def test_too_small_for_top_n(self):
        with pytest.raises(VerificationError):
            CohortSet(tuple(voice_vec(i) for i in range(3)), top_n=4)

    def test_mixed_modalities_rejected(self):
        with pytest.raises(ModalityMismatchError):
            CohortSet((voice_vec(0), face_vec(1)), top_n=1)

    def test_scores_against_is_unit_cosine(self):
        cohort = CohortSet(tuple(voice_vec(i) for i in range(4)), top_n=2)
        probe = voice_vec(99)
        scores = cohort.scores_against(probe)
        for member, score in zip(cohort.embeddings, scores):
            assert score == pytest.approx(cosine_similarity(probe, member), abs=1e-6)
