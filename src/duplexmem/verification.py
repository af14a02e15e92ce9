"""Identity verification over embedding vectors.

Face matching is a nearest-neighbor rule in cosine distance with a fixed
acceptance threshold. Speaker matching scores raw cosine similarity and then
applies adaptive score normalization against enrollment- and test-side
cohorts before thresholding. Threshold tuning utilities (EER via linear
interpolation of the FAR/FRR crossing) and retrieval metrics (pass@k) live
here too, since the evaluation harness and the runtime share them.

Stored keys live in a KeyMatrix: append-only float32 rows. Both rules screen
every row with one matrix-vector product and rescore, with the per-pair
functions below, only the rows whose exact score the screen cannot rule out
(see SCREEN_EPS), so every decision is the one a loop over all keys makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Sequence

import numpy as np

FACE_DIM = 512
VOICE_DIM = 256
MODALITY_DIMS = {"face": FACE_DIM, "voice": VOICE_DIM}

DEFAULT_FACE_DELTA = 0.3
DEFAULT_SPEAKER_THETA = 6.0
DEFAULT_COHORT_TOP_N = 200

# Bound on |screened - exact| cosine similarity of one key, used to decide
# which rows the exact per-pair code must rescore. A float32 dot product of d
# terms, summed in any order and with or without FMA, lies within
# gamma_d * sum|q_j k_j| <= gamma_d * |q| |k| of the exact one, where
# gamma_d = d u / (1 - d u) and u = 2**-24: 3.05e-5 at d = 512, the largest
# key dimension. The screen (one sgemv) and cosine_distance (one sdot) take two
# such products of the same vectors and divide both by the same float64
# product of the stored float32 norms, each within gamma_d / 2 + u of exact.
# Their similarities therefore differ by at most
# 2 gamma_d / (1 - gamma_d - 2u) + 2**-52, about 6.1e-5. Clamping to [-1, 1]
# and 1 - s widen no gap (both are 1-Lipschitz); the float64 rounding of 1 - s
# and of the AS-norm arithmetic adds a few ulps, far inside the margin. 1e-3
# keeps a margin of 16x over the whole gap and 32x over gamma_512.
SCREEN_EPS = 1e-3

Modality = Literal["face", "voice", "text"]


class VerificationError(Exception):
    """Base class for verification failures."""


class EmbeddingShapeError(VerificationError):
    """Vector has the wrong dimensionality or a zero norm."""


class ModalityMismatchError(VerificationError):
    """Query and key embeddings come from different modalities."""


class DegenerateCohortError(VerificationError):
    """Cohort score standard deviation is zero; normalization undefined."""


@dataclass(frozen=True, eq=False)
class Embedding:
    """A single unit-agnostic embedding vector with its modality tag."""

    values: np.ndarray
    modality: Modality

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float32)
        if values.ndim != 1:
            raise EmbeddingShapeError(f"expected a 1-d vector, got shape {values.shape}")
        expected = MODALITY_DIMS.get(self.modality)
        if expected is not None and values.shape[0] != expected:
            raise EmbeddingShapeError(
                f"{self.modality} embeddings must have {expected} dims, got {values.shape[0]}"
            )
        norm = float(np.linalg.norm(values))
        if norm == 0.0 or not math.isfinite(norm):
            raise EmbeddingShapeError("embedding norm must be positive and finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_norm", norm)

    @classmethod
    def _of_row(cls, values: np.ndarray, modality: Modality, norm: float) -> "Embedding":
        """A read-only row of a KeyMatrix, whose norm KeyMatrix.extend took
        and checked exactly as __post_init__ does."""
        key = object.__new__(cls)
        fields = key.__dict__  # frozen: the fields are set in place, once
        fields["values"], fields["modality"], fields["_norm"] = values, modality, norm
        return key

    @property
    def norm(self) -> float:
        return self._norm  # type: ignore[attr-defined]

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return self.modality == other.modality and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:  # embeddings are keyed by identity elsewhere
        return hash((self.modality, self.values.tobytes()))


def cosine_distance(a: Embedding, b: Embedding) -> float:
    """1 - cosine similarity, in [0, 2]. Inputs must share dimensionality."""
    if a.dim != b.dim:
        raise EmbeddingShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    sim = float(np.dot(a.values, b.values)) / (a.norm * b.norm)
    # clamp float drift so the [0, 2] contract holds exactly
    sim = max(-1.0, min(1.0, sim))
    return 1.0 - sim


def cosine_similarity(a: Embedding, b: Embedding) -> float:
    return 1.0 - cosine_distance(a, b)


@dataclass(frozen=True)
class CohortSet:
    """Imposter embeddings used for adaptive score normalization."""

    embeddings: tuple[Embedding, ...]
    top_n: int = DEFAULT_COHORT_TOP_N

    def __post_init__(self) -> None:
        if not isinstance(self.embeddings, tuple):
            object.__setattr__(self, "embeddings", tuple(self.embeddings))
        if self.top_n < 1:
            raise VerificationError("top_n must be at least 1")
        if len(self.embeddings) < self.top_n:
            raise VerificationError(
                f"cohort holds {len(self.embeddings)} embeddings, fewer than top_n={self.top_n}"
            )
        mods = {e.modality for e in self.embeddings}
        dims = {e.dim for e in self.embeddings}
        if len(mods) > 1 or len(dims) > 1:
            raise ModalityMismatchError("cohort embeddings must share modality and dimension")

    def __len__(self) -> int:
        return len(self.embeddings)

    @property
    def modality(self) -> Modality:
        return self.embeddings[0].modality

    @cached_property
    def unit_matrix(self) -> np.ndarray:
        mat = np.stack([e.values / e.norm for e in self.embeddings])
        mat.setflags(write=False)
        return mat

    def scores_against(self, probe: Embedding) -> np.ndarray:
        """Cosine similarity of one probe against every cohort member."""
        if probe.dim != self.unit_matrix.shape[1]:
            raise EmbeddingShapeError("probe dimension does not match cohort")
        return self.unit_matrix @ (probe.values / probe.norm)


@dataclass(frozen=True)
class VerificationDecision:
    outcome: Literal["matched", "new_user", "no_signal"]
    user_id: str | None
    score: float | None
    raw_score: float | None
    threshold_used: float

    def __post_init__(self) -> None:
        if self.outcome == "matched" and self.user_id is None:
            raise VerificationError("matched decisions must carry a user id")
        if self.outcome != "matched" and self.user_id is not None:
            raise VerificationError(f"{self.outcome} decisions must not carry a user id")


class KeyMatrix:
    """Append-only float32 key rows of one modality, each with its user id.

    The rows and their float64 norms sit in one array each, with spare rows
    at the end. An extend that does not fit copies the rows in use into
    larger arrays, swaps both in as one tuple and only then adds the new
    ids, so a KeyView (the first n rows) always reads a complete prefix. A
    row's Embedding is built when asked for, by key. Key-side AS-norm
    statistics depend only on a row and the key cohort; they are cached for
    the last cohort used and extended when rows appended since are first
    asked for.
    """

    def __init__(self, modality: Modality):
        self.modality = modality
        self.dim = MODALITY_DIMS[modality]
        self._data = (np.empty((0, self.dim), np.float32), np.empty(0))  # rows, float64 norms
        self._ids: list[str] = []
        self._stats: tuple[CohortSet, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, Embedding]], modality: Modality) -> "KeyView":
        """A view of new rows holding (user_id, key) pairs, in sorted-id order."""
        pairs = sorted(pairs, key=lambda item: item[0])
        for user_id, key in pairs:
            if key.modality != modality:
                raise ModalityMismatchError(f"key for {user_id!r} has modality {key.modality!r}")
        matrix = cls(modality)
        rows = np.array([key.values for _, key in pairs], np.float32)
        # the reshape only turns no pairs into (0, dim): each key has its modality's dims
        matrix.extend([user_id for user_id, _ in pairs], rows.reshape(len(pairs), matrix.dim))
        return matrix.view()

    def append(self, user_id: str, values: np.ndarray) -> None:
        """Copy values into the next row."""
        self.extend([user_id], [values])

    def extend(self, user_ids: Sequence[str], values: np.ndarray | Sequence[np.ndarray]) -> None:
        """Copy row i of the (n, dim) array values into the next row, for
        user_ids[i]. values may be anything np.asarray makes such an array
        of. Any other shape raises EmbeddingShapeError, and a row fails as
        Embedding fails on it; both are checked before anything is written,
        so then no row is added. The rows are one slice copied straight from
        values, so loading a store makes no second copy of all its keys."""
        try:
            values = np.ascontiguousarray(values, dtype=np.float32)
        except ValueError as exc:  # ragged rows, say
            raise EmbeddingShapeError(f"{self.modality} key rows are no array: {exc}") from exc
        if values.shape != (len(user_ids), self.dim):
            raise EmbeddingShapeError(
                f"{len(user_ids)} {self.modality} keys need shape "
                f"({len(user_ids)}, {self.dim}), got {values.shape}"
            )
        # np.linalg.norm of a float32 vector is the float32 sqrt of its own
        # dot product, so these are the norms Embedding computes
        norms = np.sqrt(np.array([row.dot(row) for row in values], np.float32))
        if not np.all(np.isfinite(norms) & (norms != 0.0)):
            raise EmbeddingShapeError("embedding norm must be positive and finite")
        first, end = len(self._ids), len(self._ids) + len(user_ids)
        rows, row_norms = self._data
        if end > len(rows):
            size = max(2 * len(rows), end + 64)
            grown = np.empty((size, self.dim), np.float32), np.empty(size)
            grown[0][:first], grown[1][:first] = rows[:first], row_norms[:first]
            self._data = rows, row_norms = grown
        rows[first:end], row_norms[first:end] = values, norms
        self._ids += user_ids  # last: the id count marks the rows in use

    def key(self, row: int) -> Embedding:
        """The row's key: a read-only Embedding viewing it."""
        rows, norms = self._data
        values = rows[row]
        values.setflags(write=False)  # this view only: extend writes rows past the ids
        return Embedding._of_row(values, self.modality, float(norms[row]))

    def view(self) -> "KeyView":
        return KeyView(self, len(self._ids))

    def key_stats(self, cohort: CohortSet, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Key-side AS-norm (mean, std) of the first n rows against a cohort.

        Rows not yet cached are scored as one slice with one gemv per row, as
        CohortSet.scores_against scores one key, so every statistic is bit
        for bit the per-key one. A cohort of another dimension raises
        EmbeddingShapeError; a degenerate row raises DegenerateCohortError and
        caches nothing. Concurrent callers may compute the same rows twice;
        every copy of a statistic is the same, so whichever result is cached
        last is right.
        """
        cached = self._stats
        if cached is None or cached[0] is not cohort:
            cached = (cohort, np.empty(0), np.empty(0))
        _, means, stds = cached
        if len(means) < n:
            if cohort.unit_matrix.shape[1] != self.dim:
                raise EmbeddingShapeError("key dimension does not match cohort")
            rows, norms = self._data
            units = rows[len(means):n] / norms[len(means):n, None].astype(np.float32)
            scores = np.matmul(cohort.unit_matrix, units[:, :, None])[:, :, 0]
            new_means, new_stds = _top_cohort_stats(scores, cohort.top_n)
            means, stds = np.concatenate([means, new_means]), np.concatenate([stds, new_stds])
            self._stats = (cohort, means, stds)
        return means[:n], stds[:n]


class KeyView(Sequence[tuple[str, Embedding]]):
    """The first n rows of a KeyMatrix, read as (user_id, key) pairs sorted by
    user id. Rows are append-only, so a view never changes."""

    def __init__(self, matrix: KeyMatrix, n: int):
        self.matrix = matrix
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):  # type: ignore[override]
        return self._pairs[index]

    @cached_property
    def _pairs(self) -> list[tuple[str, Embedding]]:
        return [(user_id, key) for _, user_id, key in self.in_id_order(np.ones(self._n, bool))]

    def in_id_order(self, mask: np.ndarray) -> list[tuple[int, str, Embedding]]:
        """(row, user_id, key) where mask holds, by user id, then by row."""
        ids, key = self.matrix._ids, self.matrix.key
        rows = sorted(np.flatnonzero(mask).tolist(), key=lambda r: (ids[r], r))
        return [(r, ids[r], key(r)) for r in rows]

    @property
    def ids(self) -> list[str]:
        """The user id of each row, in row order."""
        return self.matrix._ids[:self._n]

    def rows(self) -> np.ndarray:
        """A little-endian float32 copy of the view's rows, in row order."""
        return self.matrix._data[0][:self._n].astype("<f4")

    def similarities(self, query: Embedding) -> np.ndarray:
        """Clamped cosine similarity of the query to every row, in row order,
        within SCREEN_EPS of cosine_similarity's."""
        if query.dim != self.matrix.dim:
            raise EmbeddingShapeError(f"dimension mismatch: {query.dim} vs {self.matrix.dim}")
        rows, norms = self.matrix._data
        # the same float64 quotient as cosine_distance, of a float32 dot product
        sims = (rows[:self._n] @ query.values) / (query.norm * norms[:self._n])
        return np.clip(sims, -1.0, 1.0)


def _key_view(users: KeyView | Sequence[tuple[str, Embedding]], modality: Modality) -> KeyView:
    if not isinstance(users, KeyView):
        return KeyMatrix.from_pairs(users, modality)
    if users.matrix.modality != modality:
        user_id, key = users[0]
        raise ModalityMismatchError(f"key for {user_id!r} has modality {key.modality!r}")
    return users


def _may_be_best(approx: np.ndarray, err: float | np.ndarray) -> np.ndarray:
    """Rows whose exact score can reach the highest exact score, when every
    |approx - exact| <= err. A NaN anywhere keeps every row."""
    return ~(approx + err < np.max(approx - err))


def face_verify(
    query: Embedding,
    users: KeyView | Sequence[tuple[str, Embedding]],
    delta: float = DEFAULT_FACE_DELTA,
) -> VerificationDecision:
    """Match a face embedding against stored keys by minimum cosine distance.

    The closest key wins when its distance is strictly below delta; exact
    distance ties break toward the smallest user id. An empty key list means
    there is nobody to match, which is a new_user outcome by definition.
    """
    if query.modality != "face":
        raise ModalityMismatchError(f"query modality {query.modality!r}, expected 'face'")
    if not users:
        return VerificationDecision("new_user", None, None, None, delta)
    keys = _key_view(users, "face")
    best_id: str | None = None
    best_d = math.inf
    for _, user_id, key in keys.in_id_order(_may_be_best(keys.similarities(query), SCREEN_EPS)):
        d = cosine_distance(query, key)
        if d < best_d:
            best_d = d
            best_id = user_id
    if best_d < delta:
        return VerificationDecision("matched", best_id, best_d, best_d, delta)
    return VerificationDecision("new_user", None, None, best_d, delta)


def _top_cohort_stats(scores: np.ndarray, top_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of the top_n highest scores along the last axis."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] < top_n:
        raise VerificationError(f"need top_n={top_n} cohort scores, got shape {arr.shape}")
    top = np.sort(arr, axis=-1)[..., ::-1][..., :top_n]
    mean, std = top.mean(-1), top.std(-1)
    if np.any(std == 0.0):
        raise DegenerateCohortError("cohort score std is zero")
    return mean, std


def _asnorm(raw, mean_q, std_q, mean_k, std_k):  # type: ignore[no-untyped-def]
    return 0.5 * ((raw - mean_q) / std_q + (raw - mean_k) / std_k)


def speaker_verify(
    query: Embedding,
    users: KeyView | Sequence[tuple[str, Embedding]],
    query_cohort: CohortSet,
    key_cohort: CohortSet,
    theta: float = DEFAULT_SPEAKER_THETA,
) -> VerificationDecision:
    """Match a voice embedding via cohort-normalized cosine similarity.

    Every stored key is scored raw, normalized with asnorm against the query
    and key cohorts, and the best normalized score wins if strictly above
    theta. Ties break toward the smallest user id.
    """
    if query.modality != "voice":
        raise ModalityMismatchError(f"query modality {query.modality!r}, expected 'voice'")
    if query_cohort.top_n != key_cohort.top_n:
        raise VerificationError("query and key cohorts must agree on top_n")
    if not users:
        return VerificationDecision("new_user", None, None, None, theta)
    keys = _key_view(users, "voice")
    q_scores = query_cohort.scores_against(query)
    mean_k, std_k = keys.matrix.key_stats(key_cohort, len(keys))
    mean_q, std_q = map(float, _top_cohort_stats(q_scores, query_cohort.top_n))
    # asnorm is linear in the raw score with slope (1/std_q + 1/std_k) / 2
    screened = _asnorm(keys.similarities(query), mean_q, std_q, mean_k, std_k)
    err = 0.5 * SCREEN_EPS * (1.0 / std_q + 1.0 / std_k)
    best: tuple[float, str, float] | None = None  # (normalized, user_id, raw)
    for row, user_id, key in keys.in_id_order(_may_be_best(screened, err)):
        raw = cosine_similarity(query, key)
        normalized = _asnorm(raw, mean_q, std_q, float(mean_k[row]), float(std_k[row]))
        if best is None or normalized > best[0]:
            best = (normalized, user_id, raw)
    assert best is not None
    normalized, user_id, raw = best
    if normalized > theta:
        return VerificationDecision("matched", user_id, normalized, raw, theta)
    return VerificationDecision("new_user", None, normalized, raw, theta)


def compute_eer(scores: Sequence[float], labels: Sequence[bool]) -> tuple[float, float]:
    """Equal error rate and its threshold for similarity scores.

    Acceptance rule is score >= threshold. FAR and FRR are evaluated at every
    distinct score (plus a sentinel above the maximum) and the crossing point
    is located by linear interpolation between adjacent thresholds, so the
    returned EER is exact for the piecewise-linear tradeoff curves.

    Returns (eer, threshold). Raises if either class is absent.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape or s.ndim != 1:
        raise VerificationError("scores and labels must be equal-length flat sequences")
    pos = np.sort(s[y])
    neg = np.sort(s[~y])
    if pos.size == 0 or neg.size == 0:
        raise VerificationError("EER needs both positive and negative trials")

    thresholds = np.unique(s)
    thresholds = np.append(thresholds, thresholds[-1] + 1.0)
    # FAR: fraction of negatives at or above t. FRR: fraction of positives below t.
    far = (neg.size - np.searchsorted(neg, thresholds, side="left")) / neg.size
    frr = np.searchsorted(pos, thresholds, side="left") / pos.size
    diff = far - frr  # non-increasing in t

    idx = int(np.argmax(diff <= 0.0))
    if diff[idx] == 0.0:
        return float(far[idx]), float(thresholds[idx])
    if idx == 0:
        # already below zero at the smallest threshold
        return float(0.5 * (far[0] + frr[0])), float(thresholds[0])
    d1, d2 = diff[idx - 1], diff[idx]
    u = d1 / (d1 - d2)
    eer = far[idx - 1] + (far[idx] - far[idx - 1]) * u
    threshold = thresholds[idx - 1] + (thresholds[idx] - thresholds[idx - 1]) * u
    return float(eer), float(threshold)


def pass_at_k(true_key_ranks: Sequence[int], k: int) -> float:
    """Fraction of queries whose true key ranked at or above k (1-indexed)."""
    if k < 1:
        raise VerificationError("k must be at least 1")
    ranks = list(true_key_ranks)
    if not ranks:
        raise VerificationError("pass_at_k needs at least one query")
    if any(r < 1 for r in ranks):
        raise VerificationError("ranks are 1-indexed and must be positive")
    return sum(1 for r in ranks if r <= k) / len(ranks)

