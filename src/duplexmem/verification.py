"""Identity verification over embedding vectors.

Face matching is a nearest-neighbor rule in cosine distance with a fixed
acceptance threshold. Speaker matching scores raw cosine similarity and then
applies adaptive score normalization against enrollment- and test-side
cohorts before thresholding. Threshold tuning utilities (EER via linear
interpolation of the FAR/FRR crossing) and retrieval metrics (pass@k) live
here too, since the evaluation harness and the runtime share them.
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


def face_verify(
    query: Embedding,
    users: Sequence[tuple[str, Embedding]],
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


def _top_cohort_stats(scores: Sequence[float] | np.ndarray, top_n: int) -> tuple[float, float]:
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
    return 0.5 * ((raw_score - mean_q) / std_q + (raw_score - mean_k) / std_k)


def speaker_verify(
    query: Embedding,
    users: Sequence[tuple[str, Embedding]],
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

