"""Dialog-session boundary tagging and span metrics.

A session is one user's contiguous exchange with the agent. Boundaries are
expressed as per-step tags: 0 outside a session, 1 at the first step, 2
inside, 3 at the last step. The reference tagger is rule-based over channel
activity: contiguous audio activity separated by a long enough silence gap
forms a session, and a change of the speaker-identity marker inside a run
splits it (tag 3 then tag 1 at the switch). Extraction back to spans repairs
malformed tag sequences instead of failing, and reports every repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .stream import (
    AUDIO_EMPTY,
    SPEAKER_MARKER_BASE,
    TAG_END,
    TAG_IN,
    TAG_START,
    StreamSegment,
    TokenStream,
    session_tags,
)

DEFAULT_GAP_STEPS = 25  # two seconds of silence at 12.5 steps per second


class SessionError(Exception):
    pass


class TaggerBackendError(SessionError):
    """A tagging backend failed; step carries the position when known."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class TagSequence:
    """Per-step session tags over {0, 1, 2, 3}."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.uint8)
        if labels.ndim != 1:
            raise SessionError("tag sequences are flat per-step arrays")
        if labels.size and labels.max() > TAG_END:
            raise SessionError("tags take values in {0, 1, 2, 3}")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TagSequence):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True, order=True)
class SessionSpan:
    """Inclusive step span of one session."""

    start_step: int
    end_step: int

    def __post_init__(self) -> None:
        if self.start_step < 0 or self.end_step < self.start_step:
            raise SessionError(f"bad span [{self.start_step}, {self.end_step}]")

    def __len__(self) -> int:
        return self.end_step - self.start_step + 1

    def steps(self) -> range:
        return range(self.start_step, self.end_step + 1)


@dataclass(frozen=True)
class RepairNote:
    kind: Literal["auto_closed", "ignored_in", "ignored_end"]
    step: int
    message: str


@dataclass(frozen=True)
class ExtractionResult:
    spans: tuple[SessionSpan, ...]
    repairs: tuple[RepairNote, ...]


TaggerBackend = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ActivityTagger:
    """Reference rule-based tagger over channel activity.

    Active steps are those with any non-empty listen or speak token. Activity
    runs whose silence gap is shorter than gap_steps merge into one session;
    a different user marker inside a run closes the current session at its
    last active step and opens a new one at the marker step.
    """

    gap_steps: int = DEFAULT_GAP_STEPS

    def __post_init__(self) -> None:
        if self.gap_steps < 1:
            raise SessionError("gap_steps must be at least 1")

    def __call__(self, tokens: np.ndarray) -> np.ndarray:
        if tokens.ndim != 2 or tokens.shape[1] != 17:
            raise SessionError("tagger expects a (steps, 17) token grid")
        active = (tokens[:, 1:] != AUDIO_EMPTY).any(axis=1)
        semantic = tokens[:, 1]
        markers = np.where(semantic >= SPEAKER_MARKER_BASE, semantic, 0)

        spans: list[SessionSpan] = []
        start: int | None = None
        last_active = -1
        owner = 0

        def close() -> None:
            nonlocal start
            if start is not None:
                spans.append(SessionSpan(start, last_active))
                start = None

        run_starts, run_ends = _activity_runs(active)
        for rs, re_ in zip(run_starts, run_ends):
            if start is not None and rs - last_active > self.gap_steps:
                close()
            for seg_start, seg_end, value in _marker_segments(markers, rs, re_):
                if start is None:
                    start = seg_start
                    owner = int(value)
                elif value and owner and value != owner:
                    close()
                    start = seg_start
                    owner = int(value)
                elif value and not owner:
                    owner = int(value)
                last_active = seg_end
        close()
        return spans_to_labels(spans, tokens.shape[0]).labels


def _activity_runs(active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and inclusive end indexes of each contiguous active run."""
    padded = np.concatenate(([False], active, [False]))
    deltas = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(deltas == 1)
    ends = np.flatnonzero(deltas == -1) - 1
    return starts, ends


def _marker_segments(markers: np.ndarray, start: int, end: int):
    """Maximal constant-marker segments of [start, end], inclusive."""
    seg = markers[start:end + 1]
    boundaries = np.flatnonzero(np.diff(seg)) + 1
    seg_starts = np.concatenate(([0], boundaries)) + start
    seg_ends = np.concatenate((boundaries, [seg.size])) - 1 + start
    for s, e in zip(seg_starts, seg_ends):
        yield int(s), int(e), int(markers[s])


def tag_stream(
    stream: TokenStream | StreamSegment, backend: TaggerBackend | None = None
) -> TagSequence:
    """Run a tagging backend over a stream or segment and validate its output."""
    tagger = backend if backend is not None else ActivityTagger()
    try:
        labels = tagger(stream.tokens)
    except SessionError:
        raise
    except Exception as exc:  # noqa: BLE001 - backend failures carry context
        raise TaggerBackendError(
            f"tagging backend failed: {exc}", step=getattr(exc, "step", None)
        ) from exc
    labels = np.asarray(labels)
    if labels.shape != (len(stream),):
        raise TaggerBackendError(
            f"backend returned shape {labels.shape}, expected ({len(stream)},)"
        )
    return TagSequence(labels)


def extract_sessions(tags: TagSequence) -> ExtractionResult:
    """Recover session spans from a tag sequence, repairing malformed input.

    A start tag with no matching end closes at the last consecutive in-session
    step (or at itself). In-session or end tags with no open session are
    ignored. Every repair is reported; extraction never fails.
    """
    labels = tags.labels
    spans: list[SessionSpan] = []
    repairs: list[RepairNote] = []
    open_start: int | None = None
    consec_end = -1  # end of the consecutive in-session run following the open start

    def auto_close(reason_step: int) -> None:
        nonlocal open_start
        assert open_start is not None
        spans.append(SessionSpan(open_start, consec_end))
        repairs.append(
            RepairNote(
                "auto_closed",
                reason_step,
                f"session starting at {open_start} had no end tag; closed at {consec_end}",
            )
        )
        open_start = None

    for step, label in enumerate(labels):
        if label == TAG_START:
            if open_start is not None:
                auto_close(step)
            open_start = step
            consec_end = step
        elif label == TAG_IN:
            if open_start is None:
                repairs.append(RepairNote("ignored_in", step, f"stray in-session tag at {step}"))
            elif step == consec_end + 1:
                consec_end = step
            # detached in-session tags inside an open session do not move the close point
        elif label == TAG_END:
            if open_start is None:
                repairs.append(RepairNote("ignored_end", step, f"stray end tag at {step}"))
            else:
                spans.append(SessionSpan(open_start, step))
                open_start = None
    if open_start is not None:
        auto_close(len(labels))
    return ExtractionResult(tuple(spans), tuple(repairs))


def spans_to_labels(spans: Sequence[SessionSpan], length: int) -> TagSequence:
    """Render well-formed spans back to a tag sequence."""
    ordered = sorted(spans)
    for span in ordered:
        if span.end_step >= length:
            raise SessionError(f"span {span} exceeds length {length}")
    return TagSequence(session_tags([(s.start_step, s.end_step) for s in ordered], length))


def jaccard_score(predicted: Sequence[SessionSpan], gold: Sequence[SessionSpan]) -> float:
    """Jaccard overlap of the step sets covered by the two span lists.

    Spans are inclusive, so boundary steps count. Two empty lists score 1.0.
    """
    pred_steps: set[int] = set()
    for span in predicted:
        pred_steps.update(span.steps())
    gold_steps: set[int] = set()
    for span in gold:
        gold_steps.update(span.steps())
    if not pred_steps and not gold_steps:
        return 1.0
    union = pred_steps | gold_steps
    return len(pred_steps & gold_steps) / len(union)


class SpanMatchScore(NamedTuple):
    precision: float
    recall: float
    f1: float


def span_match_at_n(
    predicted: Sequence[SessionSpan], gold: Sequence[SessionSpan], n: int
) -> SpanMatchScore:
    """Precision/recall/F1 under a boundary tolerance of n steps.

    A predicted span matches a gold span when both boundary offsets are at
    most n. Matching is greedy one-to-one in stream order. Empty versus empty
    scores (1, 1, 1); exactly one side empty scores (0, 0, 0).
    """
    if n < 0:
        raise SessionError("tolerance must be non-negative")
    pred = sorted(predicted)
    gld = sorted(gold)
    if not pred and not gld:
        return SpanMatchScore(1.0, 1.0, 1.0)
    if not pred or not gld:
        return SpanMatchScore(0.0, 0.0, 0.0)
    taken = [False] * len(gld)
    matched = 0
    for p in pred:
        for i, g in enumerate(gld):
            if taken[i]:
                continue
            if abs(p.start_step - g.start_step) <= n and abs(p.end_step - g.end_step) <= n:
                taken[i] = True
                matched += 1
                break
    precision = matched / len(pred)
    recall = matched / len(gld)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return SpanMatchScore(precision, recall, f1)
