"""17-channel full-duplex token streams.

Each step carries one text token (the model's running monologue) plus 8
listening and 8 speaking audio tokens, at 12.5 steps per second. Steps
[0, 512) are reserved for the profile context window and [512, 768) for the
retrieval context window; dialog content starts at step 768. Reserved regions
carry pad text and empty audio in every built stream.

Text tokens are byte-level: id 0 is the pad, id b+1 encodes byte b. Audio
tokens are opaque synthetic ids: 0 is silence, 1 is the assistant voice, and
ids >= 2 mark which user produced an utterance, which is what the session
tagger and the verification mocks key on.

TurnScript and DialogScript are plain records: their JSON form, in scenario
files, is dataclasses.asdict, read back by harness.from_payload.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Literal, Mapping, Sequence

import numpy as np

from .retrieval import QueryGroups, format_query_protocol

FRAME_RATE = 12.5
MAX_STREAM_STEPS = 8192
PROFILE_REGION = (0, 512)
RETRIEVAL_REGION = (512, 768)
DIALOG_START = RETRIEVAL_REGION[1]
CHANNELS = 17  # 1 text + 8 listen + 8 speak
LISTEN_SLOTS = slice(1, 9)
SPEAK_SLOTS = slice(9, 17)

TEXT_PAD = 0
AUDIO_EMPTY = 0
ASSISTANT_VOICE = 1
SPEAKER_MARKER_BASE = 2

# Monologue text for a response starts this many steps before its audio.
MONOLOGUE_LEAD_STEPS = 2

# Per-step session tags; 0 is outside any session.
TAG_START = 1
TAG_IN = 2
TAG_END = 3

STREAM_MAGIC = b"FDTS"
STREAM_VERSION = 1
_HEADER = struct.Struct("<4sHIIIIII")  # magic, version, length, l1 bounds, l2 bounds, rate*100
MAX_TOKEN_ID = 2**31 - 1
# An id takes one more varint byte for each of these bounds it reaches.
_VARINT_BOUNDS = np.array([1 << 7, 1 << 14, 1 << 21, 1 << 28], dtype=np.uint32)
_VARINT_MAX_BYTES = 5  # enough for MAX_TOKEN_ID


class StreamError(Exception):
    pass


class StreamBuildError(StreamError):
    pass


class MaskBuildError(StreamError):
    pass


class StreamHeaderError(StreamError):
    """Serialized stream has a bad magic, version, or header field."""


class StreamLengthError(StreamError):
    """Serialized stream body does not hold the declared number of steps."""


class RegionOverlapError(StreamError):
    """Declared reserved regions overlap or are out of order."""


def encode_text(text: str) -> np.ndarray:
    data = text.encode("utf-8")
    return np.frombuffer(data, dtype=np.uint8).astype(np.int32) + 1


@dataclass(frozen=True)
class StreamSegment:
    """A contiguous view of stream steps with its absolute start offset."""

    tokens: np.ndarray
    start_step: int

    def __post_init__(self) -> None:
        if self.tokens.ndim != 2 or self.tokens.shape[1] != CHANNELS:
            raise StreamError("segment tokens must be (steps, 17)")
        if self.start_step < 0:
            raise StreamError("segment start offset is non-negative")

    def __len__(self) -> int:
        return int(self.tokens.shape[0])

    @property
    def end_step(self) -> int:
        return self.start_step + len(self)

    def dominant_marker(self) -> int | None:
        """The most frequent speaker marker in listen slot 1, ties toward the
        smaller id; None when no step carries a user utterance."""
        counts = Counter(m for m in self.tokens[:, 1].tolist() if m >= SPEAKER_MARKER_BASE)
        if not counts:
            return None
        return min(counts, key=lambda m: (-counts[m], m))


@dataclass(frozen=True)
class TokenStream:
    """An immutable token grid of shape (length, 17)."""

    tokens: np.ndarray
    profile_region: tuple[int, int] = PROFILE_REGION
    retrieval_region: tuple[int, int] = RETRIEVAL_REGION
    frame_rate: float = FRAME_RATE

    def __post_init__(self) -> None:
        tokens = np.ascontiguousarray(np.asarray(self.tokens, dtype=np.int32))
        if tokens.ndim != 2 or tokens.shape[1] != CHANNELS:
            raise StreamError(f"stream tokens must be (steps, {CHANNELS})")
        if tokens.shape[0] > MAX_STREAM_STEPS:
            raise StreamError(
                f"stream holds {tokens.shape[0]} steps, over the {MAX_STREAM_STEPS} cap"
            )
        if (tokens < 0).any():
            raise StreamError("token ids are non-negative")
        l1, l2 = self.profile_region, self.retrieval_region
        if not (0 <= l1[0] <= l1[1] <= l2[0] <= l2[1]):
            raise RegionOverlapError(f"reserved regions out of order: {l1} vs {l2}")
        if tokens.shape[0] < l2[1]:
            raise StreamError("stream must cover both reserved regions")
        reserved = tokens[l1[0]:l1[1], 1:], tokens[l2[0]:l2[1], 1:]
        if any((block != AUDIO_EMPTY).any() for block in reserved):
            raise StreamError("reserved regions must carry empty audio in all 16 slots")
        tokens.setflags(write=False)
        object.__setattr__(self, "tokens", tokens)

    def __len__(self) -> int:
        return int(self.tokens.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenStream):
            return NotImplemented
        return (
            np.array_equal(self.tokens, other.tokens)
            and self.profile_region == other.profile_region
            and self.retrieval_region == other.retrieval_region
            and self.frame_rate == other.frame_rate
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def dialog_start(self) -> int:
        return self.retrieval_region[1]

    def segment(self, start: int, stop: int) -> StreamSegment:
        if not 0 <= start <= stop <= len(self):
            raise StreamError(f"segment [{start}, {stop}) out of range [0, {len(self)}]")
        return StreamSegment(self.tokens[start:stop], start)


@dataclass(frozen=True)
class TurnScript:
    """One instruction/response exchange inside a dialog.

    Durations are in steps. Spans are absolute [start, end) step ranges and
    are filled in by the stream builder; scripts with spans set are "placed".
    """

    speaker_user: str
    instruction_text: str
    response_text: str
    instruction_steps: int
    response_steps: int
    query_groups: QueryGroups | None = None
    interrupting: bool = False
    echo: bool = False  # echo mixing is metadata only, no signal is modeled
    instruction_span: tuple[int, int] | None = None
    response_span: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.instruction_steps < 1 or self.response_steps < 1:
            raise StreamBuildError("turn durations must be at least one step")

    @property
    def placed(self) -> bool:
        return self.instruction_span is not None and self.response_span is not None


@dataclass(frozen=True)
class DialogScript:
    """A single user's scripted session: turns plus extraction ground truth."""

    dialog_id: str
    turns: tuple[TurnScript, ...]
    annotation: Mapping[str, Any] | None = None
    session_span: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not self.turns:
            raise StreamBuildError(f"dialog {self.dialog_id!r} has no turns")
        speakers = {t.speaker_user for t in self.turns}
        if len(speakers) != 1:
            raise StreamBuildError(f"dialog {self.dialog_id!r} mixes speakers {sorted(speakers)}")

    @property
    def speaker_user(self) -> str:
        return self.turns[0].speaker_user

    @property
    def placed(self) -> bool:
        return self.session_span is not None and all(t.placed for t in self.turns)


@dataclass(frozen=True)
class StreamBuildConfig:
    interruption_probability: float = 0.3
    echo_probability: float = 0.3
    response_gap: int = 2
    turn_gap: tuple[int, int] = (3, 10)
    dialog_gap: tuple[int, int] = (26, 60)
    max_steps: int = MAX_STREAM_STEPS
    speaker_markers: Mapping[str, int] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.interruption_probability <= 1.0:
            raise StreamBuildError("interruption probability must be in [0, 1]")
        if not 0.0 <= self.echo_probability <= 1.0:
            raise StreamBuildError("echo probability must be in [0, 1]")
        if self.response_gap < 0 or self.turn_gap[0] < 0 or self.dialog_gap[0] < 0:
            raise StreamBuildError("gaps are non-negative")
        if self.turn_gap[0] > self.turn_gap[1] or self.dialog_gap[0] > self.dialog_gap[1]:
            raise StreamBuildError("gap ranges must be (low, high) with low <= high")
        if self.max_steps > MAX_STREAM_STEPS:
            raise StreamBuildError(f"max_steps cannot exceed {MAX_STREAM_STEPS}")


@dataclass(frozen=True)
class StreamBuildResult:
    stream: TokenStream
    scripts: tuple[DialogScript, ...]
    truncated: tuple[str, ...]  # dialog ids dropped for lack of step budget


def _draw(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    low, high = bounds
    if low == high:
        return low
    return int(rng.integers(low, high + 1))


def assign_speaker_markers(dialogs: Sequence[DialogScript]) -> dict[str, int]:
    """Markers by first appearance; the harness usually passes an explicit map."""
    markers: dict[str, int] = {}
    for dialog in dialogs:
        if dialog.speaker_user not in markers:
            markers[dialog.speaker_user] = SPEAKER_MARKER_BASE + len(markers)
    return markers


def build_stream(
    dialogs: Sequence[DialogScript],
    config: StreamBuildConfig = StreamBuildConfig(),
    rng_seed: int = 0,
) -> StreamBuildResult:
    """Lay dialogs out after the reserved regions and render the token grid.

    Dialogs are concatenated in order with seeded gaps. Within a dialog, each
    turn after the first may interrupt the ongoing response (probability from
    config): its instruction start is pulled back into the response span, and
    the overlapped speak tokens are kept. Monologue text for every response
    starts two steps before the response audio; turns with query groups write
    the query marker immediately before the response text.

    Dialogs that do not fit the step budget are dropped and reported in the
    result, never silently truncated mid-dialog.
    """
    if not dialogs:
        raise StreamBuildError("at least one dialog script is required")
    rng = np.random.default_rng(rng_seed)
    markers = dict(config.speaker_markers) if config.speaker_markers else assign_speaker_markers(dialogs)
    for dialog in dialogs:
        if dialog.speaker_user not in markers:
            raise StreamBuildError(f"no speaker marker for user {dialog.speaker_user!r}")
        if markers[dialog.speaker_user] < SPEAKER_MARKER_BASE:
            raise StreamBuildError("speaker markers start at id 2")

    placed: list[DialogScript] = []
    truncated: list[str] = []
    cursor = DIALOG_START
    for j, dialog in enumerate(dialogs):
        if truncated:
            truncated.append(dialog.dialog_id)
            continue
        dialog_start = cursor if j == 0 else cursor + _draw(rng, config.dialog_gap)
        turns: list[TurnScript] = []
        t = dialog_start
        prev_instr_end: int | None = None
        prev_resp: tuple[int, int] | None = None
        for k, turn in enumerate(dialog.turns):
            instr_start = t
            interrupting = False
            roll = rng.random()
            if k > 0 and prev_resp is not None and roll < config.interruption_probability:
                max_overlap = min(8, prev_resp[1] - prev_resp[0] - 1, turn.instruction_steps - 1)
                if max_overlap >= 1:
                    overlap = int(rng.integers(1, max_overlap + 1))
                    pulled = prev_resp[1] - overlap
                    if prev_instr_end is not None:
                        pulled = max(pulled, prev_instr_end + 1)
                    if pulled < instr_start:
                        instr_start = pulled
                        interrupting = True
            instr_end = instr_start + turn.instruction_steps
            resp_start = instr_end + config.response_gap
            resp_end = resp_start + turn.response_steps
            echo = bool(rng.random() < config.echo_probability)
            turns.append(
                replace(
                    turn,
                    interrupting=interrupting,
                    echo=echo,
                    instruction_span=(instr_start, instr_end),
                    response_span=(resp_start, resp_end),
                )
            )
            prev_instr_end = instr_end
            prev_resp = (resp_start, resp_end)
            t = resp_end if k == len(dialog.turns) - 1 else resp_end + _draw(rng, config.turn_gap)
        dialog_end = turns[-1].response_span[1]  # type: ignore[index]
        if dialog_end > config.max_steps:
            truncated.append(dialog.dialog_id)
            continue
        placed.append(replace(dialog, turns=tuple(turns), session_span=(dialog_start, dialog_end)))
        cursor = dialog_end

    length = placed[-1].session_span[1] if placed else DIALOG_START  # type: ignore[index]
    tokens = np.zeros((length, CHANNELS), dtype=np.int32)

    for dialog in placed:
        marker = markers[dialog.speaker_user]
        for turn in dialog.turns:
            i0, i1 = turn.instruction_span  # type: ignore[misc]
            r0, r1 = turn.response_span  # type: ignore[misc]
            tokens[i0:i1, LISTEN_SLOTS] = marker
            tokens[r0:r1, SPEAK_SLOTS] = ASSISTANT_VOICE

            text_start = r0 - MONOLOGUE_LEAD_STEPS
            if turn.query_groups is not None:
                marker_ids = encode_text(format_query_protocol(turn.query_groups))
                q_start = text_start - len(marker_ids)
                if q_start < i0:
                    raise StreamBuildError(
                        f"query marker for dialog {dialog.dialog_id!r} does not fit in the "
                        f"instruction span (needs {len(marker_ids)} steps before the response)"
                    )
                tokens[q_start:text_start, 0] = marker_ids
            response_ids = encode_text(turn.response_text)[: r1 - text_start]
            tokens[text_start:text_start + len(response_ids), 0] = response_ids

    stream = TokenStream(tokens)
    return StreamBuildResult(stream, tuple(placed), tuple(truncated))


MaskKind = Literal["profile", "query", "response", "session_tags"]
MaskTask = Literal["profile", "query_response", "session_tags"]


@dataclass(frozen=True)
class SupervisionMask:
    """Per-step supervision flags for one training sample.

    Binary kinds carry a (length, 2) array over the (text, speak) channels;
    the session_tags kind carries a flat per-step label array over {0,1,2,3}
    (none, session start, in session, session end).
    """

    kind: MaskKind
    sample_id: str
    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=np.uint8)
        if self.kind == "session_tags":
            if mask.ndim != 1:
                raise MaskBuildError("session_tags masks are flat label arrays")
            if mask.max(initial=0) > TAG_END:
                raise MaskBuildError("session tags take values in {0, 1, 2, 3}")
        else:
            if mask.ndim != 2 or mask.shape[1] != 2:
                raise MaskBuildError("binary masks are (length, 2) over (text, speak)")
            if mask.max(initial=0) > 1:
                raise MaskBuildError("binary masks take values in {0, 1}")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    def __len__(self) -> int:
        return int(self.mask.shape[0])


def _require_placed(stream: TokenStream, scripts: Sequence[DialogScript]) -> None:
    for dialog in scripts:
        if not dialog.placed:
            raise MaskBuildError(f"dialog {dialog.dialog_id!r} has no placed spans")
        start, end = dialog.session_span  # type: ignore[misc]
        if start < stream.dialog_start or end > len(stream):
            raise MaskBuildError(
                f"dialog {dialog.dialog_id!r} span [{start}, {end}) falls outside the "
                f"dialog region [{stream.dialog_start}, {len(stream)})"
            )


def make_supervision_masks(
    stream: TokenStream,
    scripts: Sequence[DialogScript],
    task: MaskTask,
) -> list[SupervisionMask]:
    """Build the supervision masks for one training task.

    profile: one mask per dialog, 1s on the text and speak channels across
    that dialog's span. query_response: two masks per turn, a query mask from
    the turn's audio start to the end of the query words and a response mask
    from there to the turn's audio end; every turn must carry query groups.
    session_tags: a single per-step label sequence for the whole stream.
    """
    _require_placed(stream, scripts)
    length = len(stream)
    masks: list[SupervisionMask] = []
    if task == "profile":
        for dialog in scripts:
            start, end = dialog.session_span  # type: ignore[misc]
            flags = np.zeros((length, 2), dtype=np.uint8)
            flags[start:end, :] = 1
            masks.append(SupervisionMask("profile", f"{dialog.dialog_id}/profile", flags))
        return masks
    if task == "query_response":
        for dialog in scripts:
            for k, turn in enumerate(dialog.turns):
                if turn.query_groups is None:
                    raise MaskBuildError(
                        f"dialog {dialog.dialog_id!r} turn {k} lacks query-word annotations"
                    )
                i0, _ = turn.instruction_span  # type: ignore[misc]
                r0, r1 = turn.response_span  # type: ignore[misc]
                query_end = r0 - MONOLOGUE_LEAD_STEPS
                q = np.zeros((length, 2), dtype=np.uint8)
                q[i0:query_end, :] = 1
                masks.append(SupervisionMask("query", f"{dialog.dialog_id}/t{k}/query", q))
                r = np.zeros((length, 2), dtype=np.uint8)
                r[query_end:r1, :] = 1
                masks.append(SupervisionMask("response", f"{dialog.dialog_id}/t{k}/response", r))
        return masks
    if task == "session_tags":
        spans = [(start, end - 1) for start, end in (d.session_span for d in scripts)]
        masks.append(SupervisionMask("session_tags", "session_tags", session_tags(spans, length)))
        return masks
    raise MaskBuildError(f"unknown mask task {task!r}")


def session_tags(spans: Sequence[tuple[int, int]], length: int) -> np.ndarray:
    """Per-step tags for inclusive (start, end) spans, in the order given:
    TAG_START on the first step, TAG_IN inside, TAG_END on the last step."""
    labels = np.zeros(length, dtype=np.uint8)
    for start, end in spans:
        labels[start] = TAG_START
        if end > start:
            labels[start + 1:end] = TAG_IN
            labels[end] = TAG_END
    return labels


def serialize_stream(stream: TokenStream) -> bytes:
    """Header plus one unsigned LEB128 varint per token id, row-major."""
    header = _HEADER.pack(
        STREAM_MAGIC,
        STREAM_VERSION,
        len(stream),
        stream.profile_region[0],
        stream.profile_region[1],
        stream.retrieval_region[0],
        stream.retrieval_region[1],
        int(round(stream.frame_rate * 100)),
    )
    ids = stream.tokens.ravel().view(np.uint32)  # ids are non-negative int32
    extra = (ids >= _VARINT_BOUNDS[0]).view(np.uint8)  # bytes after each id's first
    if not extra.any():
        return header + ids.astype(np.uint8).tobytes()
    for bound in _VARINT_BOUNDS[1:]:
        extra += (ids >= bound).view(np.uint8)
    starts = np.cumsum(extra, dtype=np.intp)
    starts -= extra
    starts += np.arange(ids.size)
    body = np.empty(int(starts[-1]) + int(extra[-1]) + 1, dtype=np.uint8)
    body[starts] = (ids & 0x7F).astype(np.uint8) | ((extra > 0).view(np.uint8) << 7)
    for k in range(1, int(extra.max()) + 1):
        at = np.flatnonzero(extra >= k)
        plane = ((ids[at] >> (7 * k)) & 0x7F).astype(np.uint8)
        body[starts[at] + k] = plane | ((extra[at] > k).view(np.uint8) << 7)
    return header + body.tobytes()


def parse_stream(data: bytes) -> TokenStream:
    """Read serialize_stream bytes back; ids above MAX_TOKEN_ID are rejected."""
    if len(data) < _HEADER.size:
        raise StreamHeaderError("stream header is truncated")
    magic, version, length, l1a, l1b, l2a, l2b, rate100 = _HEADER.unpack_from(data)
    if magic != STREAM_MAGIC:
        raise StreamHeaderError(f"bad magic {magic!r}")
    if version != STREAM_VERSION:
        raise StreamHeaderError(f"unsupported stream format version {version}")
    if not (0 <= l1a <= l1b <= l2a <= l2b):
        raise RegionOverlapError(f"reserved regions out of order: ({l1a}, {l1b}) vs ({l2a}, {l2b})")
    if length > MAX_STREAM_STEPS:
        raise StreamHeaderError(f"declared length {length} exceeds the {MAX_STREAM_STEPS} cap")

    count = length * CHANNELS
    body = np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)
    ends = np.flatnonzero(body < 0x80)  # last byte of each id
    if ends.size < count:
        raise StreamLengthError(f"stream body ended after {ends.size} of {count} token ids")
    used = int(ends[count - 1]) + 1 if count else 0
    if used != body.size:
        raise StreamLengthError(f"{body.size - used} trailing bytes after the declared steps")

    if body.size == count:
        values = body.astype(np.int32)
    else:
        values = _decode_varints(body, ends)
    try:
        return TokenStream(values.reshape(length, CHANNELS), (l1a, l1b), (l2a, l2b), rate100 / 100.0)
    except RegionOverlapError:
        raise
    except StreamError as exc:
        raise StreamHeaderError(str(exc)) from exc


def _decode_varints(body: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Ids of a well-framed body holding some multi-byte varints, as int32."""
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    extra = ends - starts  # bytes after each id's first
    payload = body & 0x7F
    values = payload[starts].astype(np.int64)
    for k in range(1, min(int(extra.max()), _VARINT_MAX_BYTES - 1) + 1):
        at = np.flatnonzero(extra >= k)
        values[at] |= payload[starts[at] + k].astype(np.int64) << (7 * k)
    over = values > MAX_TOKEN_ID
    if extra.max() >= _VARINT_MAX_BYTES:
        # over-long encodings are fine as long as the extra bytes carry no payload
        offsets = np.arange(body.size) - np.repeat(starts, extra + 1)
        high = np.flatnonzero((offsets >= _VARINT_MAX_BYTES) & (payload != 0))
        over[np.searchsorted(ends, high)] = True
    if over.any():
        first = int(np.argmax(over))
        raise StreamHeaderError(
            f"token id {first} of {ends.size} is above the largest id {MAX_TOKEN_ID}"
        )
    return values.astype(np.int32)
