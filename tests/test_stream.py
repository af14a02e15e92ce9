"""Layout, mask, and serialization behavior of the 17-channel stream builder."""

import io
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexmem.harness import from_payload
from duplexmem.retrieval import QueryGroups, format_query_protocol
from duplexmem.stream import (
    ASSISTANT_VOICE,
    CHANNELS,
    DIALOG_START,
    MAX_STREAM_STEPS,
    MAX_TOKEN_ID,
    MONOLOGUE_LEAD_STEPS,
    STREAM_MAGIC,
    STREAM_VERSION,
    TEXT_PAD,
    DialogScript,
    MaskBuildError,
    RegionOverlapError,
    StreamBuildConfig,
    StreamBuildError,
    StreamError,
    StreamHeaderError,
    StreamLengthError,
    TokenStream,
    TurnScript,
    assign_speaker_markers,
    build_stream,
    encode_text,
    make_supervision_masks,
    parse_stream,
    serialize_stream,
)
from duplexmem.stream import _HEADER

GROUPS = QueryGroups(("a",), ("b",))


def decode_text(ids) -> str:
    """Inverse of encode_text: drop pads, map id b+1 back to byte b."""
    data = bytes(int(i) - 1 for i in ids if int(i) != TEXT_PAD)
    return data.decode("utf-8", errors="replace")


def make_turn(speaker, instr=20, resp=15, text="fine by me", groups=None):
    return TurnScript(
        speaker_user=speaker,
        instruction_text="tell me something",
        response_text=text,
        instruction_steps=instr,
        response_steps=resp,
        query_groups=groups,
    )


def fixed_config(**overrides):
    """No interruptions or echo, all gaps pinned, so spans are hand-computable."""
    base = dict(
        interruption_probability=0.0,
        echo_probability=0.0,
        response_gap=2,
        turn_gap=(4, 4),
        dialog_gap=(30, 30),
    )
    base.update(overrides)
    return StreamBuildConfig(**base)


def two_dialog_build(groups=None):
    dialogs = [
        DialogScript("d0", (make_turn("alice", groups=groups), make_turn("alice", groups=groups))),
        DialogScript("d1", (make_turn("bob", instr=19, resp=8, groups=groups),)),
    ]
    return build_stream(dialogs, fixed_config(), rng_seed=7)


class TestTextCodec:
    def test_round_trip(self):
        for text in ("", "hello", "café ✓", "a,b\nc"):
            assert decode_text(encode_text(text)) == text

    def test_byte_offset_law(self):
        ids = encode_text("A")
        assert ids.tolist() == [ord("A") + 1]

    def test_decode_skips_pads(self):
        ids = [0, ord("h") + 1, 0, ord("i") + 1, 0]
        assert decode_text(ids) == "hi"


class TestTokenStreamValidation:
    def test_wrong_channel_count(self):
        with pytest.raises(StreamError):
            TokenStream(np.zeros((800, 16), dtype=np.int32))

    def test_over_step_cap(self):
        with pytest.raises(StreamError):
            TokenStream(np.zeros((MAX_STREAM_STEPS + 1, CHANNELS), dtype=np.int32))

    def test_negative_ids(self):
        tokens = np.zeros((800, CHANNELS), dtype=np.int32)
        tokens[790, 0] = -1
        with pytest.raises(StreamError):
            TokenStream(tokens)

    def test_must_cover_reserved_regions(self):
        with pytest.raises(StreamError):
            TokenStream(np.zeros((700, CHANNELS), dtype=np.int32))

    def test_reserved_audio_must_be_empty(self):
        tokens = np.zeros((800, CHANNELS), dtype=np.int32)
        tokens[100, 5] = 1
        with pytest.raises(StreamError):
            TokenStream(tokens)

    def test_regions_out_of_order(self):
        with pytest.raises(RegionOverlapError):
            TokenStream(
                np.zeros((800, CHANNELS), dtype=np.int32),
                profile_region=(0, 600),
                retrieval_region=(512, 768),
            )

    def test_tokens_are_read_only(self):
        stream = TokenStream(np.zeros((800, CHANNELS), dtype=np.int32))
        with pytest.raises(ValueError):
            stream.tokens[0, 0] = 1

    def test_equality(self):
        a = TokenStream(np.zeros((800, CHANNELS), dtype=np.int32))
        b = TokenStream(np.zeros((800, CHANNELS), dtype=np.int32))
        assert a == b
        assert a != TokenStream(np.zeros((800, CHANNELS), dtype=np.int32), frame_rate=25.0)
        assert a != "not a stream"

    def test_segment_bounds(self):
        stream = TokenStream(np.zeros((800, CHANNELS), dtype=np.int32))
        assert len(stream.segment(100, 150)) == 50
        with pytest.raises(StreamError):
            stream.segment(100, 900)
        with pytest.raises(StreamError):
            stream.segment(200, 100)


class TestSegmentViews:
    def test_dominant_marker_tie_breaks_low(self):
        tokens = np.zeros((800, CHANNELS), dtype=np.int32)
        tokens[770:772, 1] = 5
        tokens[772:774, 1] = 3
        stream = TokenStream(tokens)
        assert stream.segment(768, 800).dominant_marker() == 3

    def test_dominant_marker_ignores_assistant_voice(self):
        tokens = np.zeros((800, CHANNELS), dtype=np.int32)
        tokens[770:775, 1] = ASSISTANT_VOICE
        tokens[775, 1] = 4
        seg = TokenStream(tokens).segment(768, 800)
        assert seg.dominant_marker() == 4
        assert TokenStream(tokens).segment(770, 775).dominant_marker() is None

    def test_empty_segment_has_no_audio(self):
        stream = TokenStream(np.zeros((800, CHANNELS), dtype=np.int32))
        seg = stream.segment(0, 512)
        assert seg.dominant_marker() is None


class TestStreamLayout:
    def test_fixed_gap_spans(self):
        result = two_dialog_build()
        d0, d1 = result.scripts
        assert result.truncated == ()
        assert d0.session_span == (768, 846)
        assert d0.turns[0].instruction_span == (768, 788)
        assert d0.turns[0].response_span == (790, 805)
        assert d0.turns[1].instruction_span == (809, 829)
        assert d0.turns[1].response_span == (831, 846)
        assert d1.session_span == (876, 905)
        assert d1.turns[0].instruction_span == (876, 895)
        assert d1.turns[0].response_span == (897, 905)
        assert len(result.stream) == 905

    def test_reserved_regions_empty(self):
        stream = two_dialog_build().stream
        assert not stream.tokens[:DIALOG_START].any()

    def test_audio_token_placement(self):
        result = two_dialog_build()
        tokens = result.stream.tokens
        markers = assign_speaker_markers(result.scripts)
        assert markers == {"alice": 2, "bob": 3}
        for dialog in result.scripts:
            marker = markers[dialog.speaker_user]
            for turn in dialog.turns:
                i0, i1 = turn.instruction_span
                r0, r1 = turn.response_span
                assert (tokens[i0:i1, 1:9] == marker).all()
                assert (tokens[r0:r1, 9:17] == ASSISTANT_VOICE).all()
                # the response gap carries no audio at all
                assert not tokens[i1:r0, 1:].any()

    def test_monologue_starts_two_steps_early(self):
        result = two_dialog_build()
        tokens = result.stream.tokens
        for dialog in result.scripts:
            for turn in dialog.turns:
                r0, r1 = turn.response_span
                text_start = r0 - MONOLOGUE_LEAD_STEPS
                expected = encode_text(turn.response_text)[: r1 - text_start]
                got = tokens[text_start:text_start + len(expected), 0]
                assert got.tolist() == expected.tolist()
                assert tokens[turn.instruction_span[0]:text_start, 0].tolist() == [0] * (
                    text_start - turn.instruction_span[0]
                )

    def test_long_response_text_is_clipped(self):
        long_text = "x" * 500
        dialogs = [DialogScript("d0", (make_turn("alice", resp=10, text=long_text),))]
        result = build_stream(dialogs, fixed_config(), rng_seed=0)
        turn = result.scripts[0].turns[0]
        r0, r1 = turn.response_span
        text_start = r0 - MONOLOGUE_LEAD_STEPS
        written = result.stream.tokens[text_start:r1, 0]
        assert len(written) == r1 - text_start
        assert (written == ord("x") + 1).all()
        # nothing bleeds past the response span
        assert len(result.stream) == r1

    def test_query_marker_sits_before_response_text(self):
        result = two_dialog_build(groups=GROUPS)
        tokens = result.stream.tokens
        marker_text = format_query_protocol(GROUPS)
        for dialog in result.scripts:
            for turn in dialog.turns:
                r0, _ = turn.response_span
                text_start = r0 - MONOLOGUE_LEAD_STEPS
                q_start = text_start - len(marker_text)
                got = decode_text(tokens[q_start:text_start, 0])
                assert got == marker_text
                # the step right before the response text holds the close tag's last byte
                assert tokens[text_start - 1, 0] == ord(">") + 1

    def test_query_marker_must_fit_instruction_span(self):
        groups = QueryGroups(("colleague",), ("tennis",))
        dialogs = [DialogScript("d0", (make_turn("alice", instr=5, groups=groups),))]
        with pytest.raises(StreamBuildError):
            build_stream(dialogs, fixed_config(), rng_seed=0)

    def test_first_dialog_starts_at_dialog_region(self):
        for seed in range(5):
            result = build_stream(
                [DialogScript("d0", (make_turn("alice"),))],
                StreamBuildConfig(speaker_markers={"alice": 2}),
                rng_seed=seed,
            )
            assert result.scripts[0].session_span[0] == DIALOG_START

    def test_same_seed_same_tokens(self):
        dialogs = [
            DialogScript("d0", tuple(make_turn("alice") for _ in range(3))),
            DialogScript("d1", (make_turn("bob"),)),
        ]
        config = StreamBuildConfig()
        a = build_stream(dialogs, config, rng_seed=11)
        b = build_stream(dialogs, config, rng_seed=11)
        assert a.stream == b.stream
        assert a.scripts == b.scripts

    def test_explicit_marker_map(self):
        config = fixed_config()
        dialogs = [DialogScript("d0", (make_turn("alice"),))]
        result = build_stream(
            dialogs,
            StreamBuildConfig(
                interruption_probability=0.0,
                echo_probability=0.0,
                speaker_markers={"alice": 9},
            ),
            rng_seed=0,
        )
        i0, i1 = result.scripts[0].turns[0].instruction_span
        assert (result.stream.tokens[i0:i1, 1:9] == 9).all()
        with pytest.raises(StreamBuildError):
            build_stream(dialogs, StreamBuildConfig(speaker_markers={"bob": 2}), rng_seed=0)
        with pytest.raises(StreamBuildError):
            build_stream(dialogs, StreamBuildConfig(speaker_markers={"alice": 1}), rng_seed=0)
        del config

    def test_empty_dialog_list_rejected(self):
        with pytest.raises(StreamBuildError):
            build_stream([], fixed_config(), rng_seed=0)

    def test_config_validation(self):
        with pytest.raises(StreamBuildError):
            StreamBuildConfig(interruption_probability=1.5)
        with pytest.raises(StreamBuildError):
            StreamBuildConfig(turn_gap=(10, 3))
        with pytest.raises(StreamBuildError):
            StreamBuildConfig(max_steps=MAX_STREAM_STEPS + 1)
        with pytest.raises(StreamBuildError):
            TurnScript("a", "i", "r", 0, 5)


class TestInterruptions:
    def test_forced_interruptions_overlap_previous_response(self):
        dialogs = [DialogScript("d0", tuple(make_turn("alice") for _ in range(4)))]
        config = StreamBuildConfig(
            interruption_probability=1.0,
            echo_probability=0.0,
            response_gap=2,
            turn_gap=(4, 4),
            dialog_gap=(30, 30),
        )
        for seed in range(25):
            result = build_stream(dialogs, config, rng_seed=seed)
            turns = result.scripts[0].turns
            assert not turns[0].interrupting
            for prev, turn in zip(turns, turns[1:]):
                assert turn.interrupting
                i0 = turn.instruction_span[0]
                overlap = prev.response_span[1] - i0
                assert 1 <= overlap <= 8
                assert i0 > prev.instruction_span[1]

    def test_overlap_keeps_both_audio_tracks(self):
        dialogs = [DialogScript("d0", tuple(make_turn("alice") for _ in range(2)))]
        config = StreamBuildConfig(
            interruption_probability=1.0, echo_probability=0.0, turn_gap=(4, 4)
        )
        result = build_stream(dialogs, config, rng_seed=3)
        first, second = result.scripts[0].turns
        assert second.interrupting
        i0 = second.instruction_span[0]
        prev_r1 = first.response_span[1]
        region = result.stream.tokens[i0:prev_r1]
        assert (region[:, 1:9] == 2).all()
        assert (region[:, 9:17] == ASSISTANT_VOICE).all()

    def test_zero_probability_never_interrupts(self):
        dialogs = [DialogScript("d0", tuple(make_turn("alice") for _ in range(4)))]
        for seed in range(10):
            result = build_stream(dialogs, fixed_config(), rng_seed=seed)
            assert not any(t.interrupting for t in result.scripts[0].turns)


class TestTruncation:
    def test_over_budget_dialog_dropped_whole(self):
        dialogs = [
            DialogScript("d0", (make_turn("alice"), make_turn("alice"))),
            DialogScript("d1", (make_turn("bob", instr=40, resp=30),)),
            DialogScript("d2", (make_turn("carol"),)),
        ]
        result = build_stream(dialogs, fixed_config(max_steps=900), rng_seed=0)
        assert [d.dialog_id for d in result.scripts] == ["d0"]
        assert result.truncated == ("d1", "d2")
        assert len(result.stream) == 846

    def test_everything_truncated_leaves_reserved_regions(self):
        dialogs = [DialogScript("d0", (make_turn("alice", instr=400, resp=400),))]
        result = build_stream(dialogs, fixed_config(max_steps=1000), rng_seed=0)
        assert result.scripts == ()
        assert result.truncated == ("d0",)
        assert len(result.stream) == DIALOG_START

    def test_no_partial_turn_placement(self):
        # the second dialog misses by one step; everything before it is intact
        dialogs = [
            DialogScript("d0", (make_turn("alice"),)),
            DialogScript("d1", (make_turn("bob", instr=20, resp=15),)),
        ]
        # d0 ends 805, d1 start 835, end 835 + 20 + 2 + 15 = 872
        result = build_stream(dialogs, fixed_config(max_steps=871), rng_seed=0)
        assert result.truncated == ("d1",)
        assert len(result.stream) == 805


class TestSupervisionMasks:
    def test_profile_mask_per_dialog(self):
        result = two_dialog_build()
        masks = make_supervision_masks(result.stream, result.scripts, "profile")
        assert len(masks) == len(result.scripts)
        for mask, dialog in zip(masks, result.scripts):
            start, end = dialog.session_span
            assert mask.kind == "profile"
            assert mask.mask.shape == (len(result.stream), 2)
            on = np.flatnonzero(mask.mask.any(axis=1))
            assert on.tolist() == list(range(start, end))
            assert (mask.mask[start:end] == 1).all()

    def test_query_response_masks_two_per_turn(self):
        result = two_dialog_build(groups=GROUPS)
        masks = make_supervision_masks(result.stream, result.scripts, "query_response")
        total_turns = sum(len(d.turns) for d in result.scripts)
        assert len(masks) == 2 * total_turns
        by_id = {m.sample_id: m for m in masks}
        for dialog in result.scripts:
            for k, turn in enumerate(dialog.turns):
                i0, _ = turn.instruction_span
                r0, r1 = turn.response_span
                split = r0 - MONOLOGUE_LEAD_STEPS
                q = by_id[f"{dialog.dialog_id}/t{k}/query"]
                r = by_id[f"{dialog.dialog_id}/t{k}/response"]
                assert np.flatnonzero(q.mask.any(axis=1)).tolist() == list(range(i0, split))
                assert np.flatnonzero(r.mask.any(axis=1)).tolist() == list(range(split, r1))

    def test_query_response_requires_groups_everywhere(self):
        result = two_dialog_build(groups=None)
        with pytest.raises(MaskBuildError):
            make_supervision_masks(result.stream, result.scripts, "query_response")

    def test_session_tag_labels(self):
        result = two_dialog_build()
        (mask,) = make_supervision_masks(result.stream, result.scripts, "session_tags")
        labels = mask.mask
        assert labels.shape == (len(result.stream),)
        for dialog in result.scripts:
            start, end = dialog.session_span
            assert labels[start] == 1
            assert labels[end - 1] == 3
            assert (labels[start + 1:end - 1] == 2).all()
        spans = [d.session_span for d in result.scripts]
        outside = np.ones(len(labels), dtype=bool)
        for start, end in spans:
            outside[start:end] = False
        assert not labels[outside].any()

    def test_unplaced_scripts_rejected(self):
        stream = TokenStream(np.zeros((800, CHANNELS), dtype=np.int32))
        raw = DialogScript("d0", (make_turn("alice"),))
        with pytest.raises(MaskBuildError):
            make_supervision_masks(stream, [raw], "profile")

    def test_unknown_task_rejected(self):
        result = two_dialog_build()
        with pytest.raises(MaskBuildError):
            make_supervision_masks(result.stream, result.scripts, "other")

    def test_mask_value_validation(self):
        from duplexmem.stream import SupervisionMask

        with pytest.raises(MaskBuildError):
            SupervisionMask("session_tags", "x", np.array([0, 4], dtype=np.uint8))
        with pytest.raises(MaskBuildError):
            SupervisionMask("profile", "x", np.array([[0, 2]], dtype=np.uint8))
        with pytest.raises(MaskBuildError):
            SupervisionMask("profile", "x", np.zeros(4, dtype=np.uint8))
        mask = SupervisionMask("profile", "x", np.zeros((4, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            mask.mask[0, 0] = 1


class TestSerialization:
    def test_round_trip(self):
        stream = two_dialog_build().stream
        assert parse_stream(serialize_stream(stream)) == stream

    def test_round_trip_multi_byte_ids(self):
        tokens = np.zeros((800, CHANNELS), dtype=np.int32)
        tokens[770, 3] = 300
        tokens[771, 9] = 16384
        tokens[790, 0] = 127
        stream = TokenStream(tokens)
        parsed = parse_stream(serialize_stream(stream))
        assert parsed == stream
        assert parsed.tokens[771, 9] == 16384

    def test_bad_magic(self):
        data = serialize_stream(two_dialog_build().stream)
        with pytest.raises(StreamHeaderError):
            parse_stream(b"XXXX" + data[4:])

    def test_bad_version(self):
        data = bytearray(serialize_stream(two_dialog_build().stream))
        data[4] = 99
        with pytest.raises(StreamHeaderError):
            parse_stream(bytes(data))

    def test_truncated_header(self):
        data = serialize_stream(two_dialog_build().stream)
        with pytest.raises(StreamHeaderError):
            parse_stream(data[:10])

    def test_truncated_body(self):
        data = serialize_stream(two_dialog_build().stream)
        with pytest.raises(StreamLengthError):
            parse_stream(data[:-1])

    def test_trailing_bytes(self):
        data = serialize_stream(two_dialog_build().stream)
        with pytest.raises(StreamLengthError):
            parse_stream(data + b"\x00")

    def test_declared_length_over_cap(self):
        import struct

        header = struct.pack(
            "<4sHIIIIII", b"FDTS", 1, MAX_STREAM_STEPS + 1, 0, 512, 512, 768, 1250
        )
        with pytest.raises(StreamHeaderError):
            parse_stream(header)

    def test_header_region_order(self):
        import struct

        header = struct.pack("<4sHIIIIII", b"FDTS", 1, 768, 0, 600, 512, 768, 1250)
        body = b"\x00" * (768 * CHANNELS)
        with pytest.raises(RegionOverlapError):
            parse_stream(header + body)

    def test_reserved_audio_violation_caught_on_parse(self):
        import struct

        header = struct.pack("<4sHIIIIII", b"FDTS", 1, 768, 0, 512, 512, 768, 1250)
        values = bytearray(768 * CHANNELS)
        values[5 * CHANNELS + 3] = 1
        with pytest.raises(StreamHeaderError):
            parse_stream(header + bytes(values))


# The pure-Python FDTS codec the numpy one replaced, kept as the reference.
def ref_write_varint(buf: io.BytesIO, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.write(bytes((byte | 0x80,)))
        else:
            buf.write(bytes((byte,)))
            return


def ref_serialize_stream(stream: TokenStream) -> bytes:
    """Header plus one unsigned varint per token id, row-major."""
    buf = io.BytesIO()
    buf.write(
        _HEADER.pack(
            STREAM_MAGIC,
            STREAM_VERSION,
            len(stream),
            stream.profile_region[0],
            stream.profile_region[1],
            stream.retrieval_region[0],
            stream.retrieval_region[1],
            int(round(stream.frame_rate * 100)),
        )
    )
    for value in stream.tokens.ravel():
        ref_write_varint(buf, int(value))
    return buf.getvalue()


def ref_parse_stream(data: bytes) -> TokenStream:
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

    values = np.zeros(length * CHANNELS, dtype=np.int64)
    pos = _HEADER.size
    for i in range(values.shape[0]):
        shift = 0
        value = 0
        while True:
            if pos >= len(data):
                raise StreamLengthError(
                    f"stream body ended after {i} of {values.shape[0]} token ids"
                )
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        values[i] = value
    if pos != len(data):
        raise StreamLengthError(f"{len(data) - pos} trailing bytes after the declared steps")
    tokens = values.reshape(length, CHANNELS).astype(np.int32)
    try:
        return TokenStream(tokens, (l1a, l1b), (l2a, l2b), rate100 / 100.0)
    except RegionOverlapError:
        raise
    except StreamError as exc:
        raise StreamHeaderError(str(exc)) from exc


def outcome(parse, data: bytes):
    """The parsed stream, or the (type, message) of the exception raised."""
    try:
        return parse(data)
    except Exception as exc:  # noqa: BLE001 - the reference may raise OverflowError
        return type(exc), str(exc)


def body_ids(data: bytes) -> list[int]:
    """Unbounded values of the complete varints after the header."""
    values, value, shift = [], 0, 0
    for byte in data[_HEADER.size:]:
        value |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            values.append(value)
            value = shift = 0
    return values


def assert_parses_like_reference(data: bytes) -> None:
    """Same stream or same exception as the reference, except for ids above
    MAX_TOKEN_ID: the reference wraps those to int32 (or reports them as
    negative, or fails with OverflowError), where the codec raises
    StreamHeaderError once the body is well framed."""
    got, want = outcome(parse_stream, data), outcome(ref_parse_stream, data)
    count = _HEADER.unpack_from(data)[2] * CHANNELS if len(data) >= _HEADER.size else 0
    ids = body_ids(data)
    if not any(v > MAX_TOKEN_ID for v in ids[:count]):
        assert got == want
        return
    well_framed = len(ids) == count and data[-1] < 0x80
    if not well_framed:
        # the reference stops at the framing fault or at an id past int64 first
        assert got[0] is StreamLengthError
        assert got == want or want[0] is OverflowError
    else:
        assert got[0] is StreamHeaderError and "above the largest id" in got[1]


ID_VALUES = st.one_of(
    st.integers(0, 127),
    st.integers(0, 300),
    st.integers(0, MAX_TOKEN_ID),
    st.sampled_from([127, 128, 2**14 - 1, 2**14, 2**21 - 1, 2**21, 2**28 - 1, 2**28, MAX_TOKEN_ID]),
)


@st.composite
def token_streams(draw, max_rows=6):
    """Small grids with short reserved regions; audio is empty inside them."""
    rows = draw(st.integers(0, max_rows))
    cuts = sorted(draw(st.lists(st.integers(0, rows), min_size=4, max_size=4)))
    narrow = draw(st.booleans())  # mostly one-byte ids, like recorded days
    values = draw(
        st.lists(st.integers(0, 255) if narrow else ID_VALUES,
                 min_size=rows * CHANNELS, max_size=rows * CHANNELS)
    )
    tokens = np.array(values, dtype=np.int64).reshape(rows, CHANNELS).astype(np.int32)
    tokens[:cuts[3], 1:] = 0
    rate = draw(st.sampled_from([12.5, 25.0, 0.0]))
    return TokenStream(tokens, (cuts[0], cuts[1]), (cuts[2], cuts[3]), rate)


def one_row_stream(varint: bytes) -> bytes:
    """A one-step stream with no reserved steps whose text id is `varint`."""
    header = _HEADER.pack(STREAM_MAGIC, STREAM_VERSION, 1, 0, 0, 0, 0, 1250)
    return header + varint + b"\x00" * (CHANNELS - 1)


def varint_bytes(value: int) -> bytes:
    buf = io.BytesIO()
    ref_write_varint(buf, value)
    return buf.getvalue()


class TestCodecMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(stream=token_streams(max_rows=10))
    def test_bytes_and_round_trip(self, stream):
        data = serialize_stream(stream)
        assert data == ref_serialize_stream(stream)
        assert parse_stream(data) == ref_parse_stream(data) == stream

    @settings(max_examples=40, deadline=None)
    @given(stream=token_streams())
    def test_truncated_at_each_byte(self, stream):
        data = serialize_stream(stream)
        for cut in range(len(data)):
            assert_parses_like_reference(data[:cut])

    @settings(max_examples=80, deadline=None)
    @given(stream=token_streams(), extra=st.binary(min_size=1, max_size=12))
    def test_trailing_bytes(self, stream, extra):
        assert_parses_like_reference(serialize_stream(stream) + extra)

    @settings(max_examples=100, deadline=None)
    @given(stream=token_streams(), data=st.data())
    def test_flipped_continuation_bits(self, stream, data):
        blob = bytearray(serialize_stream(stream))
        if len(blob) == _HEADER.size:
            return
        flips = data.draw(st.lists(st.integers(_HEADER.size, len(blob) - 1), min_size=1, max_size=4))
        for pos in flips:
            blob[pos] ^= 0x80
        assert_parses_like_reference(bytes(blob))

    @settings(max_examples=50, deadline=None)
    @given(stream=token_streams(), data=st.data())
    def test_over_long_encodings(self, stream, data):
        """Padding an id with continuation bytes of zero payload keeps its value."""
        body = []
        for value in stream.tokens.ravel().tolist():
            pad = data.draw(st.sampled_from([0, 0, 0, 1, 3, 6]))
            encoded = bytearray(varint_bytes(value))
            if pad:
                encoded[-1] |= 0x80
                encoded += b"\x80" * (pad - 1) + b"\x00"
            body.append(bytes(encoded))
        blob = serialize_stream(stream)[:_HEADER.size] + b"".join(body)
        assert_parses_like_reference(blob)
        assert parse_stream(blob) == stream

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(0, 3),
        slack=st.integers(-2, 2),
        data=st.data(),
    )
    def test_arbitrary_varints(self, rows, slack, data):
        """Bodies of any varint values, some of them past int32 or int64."""
        count = max(0, rows * CHANNELS + slack)
        values = data.draw(
            st.lists(st.one_of(ID_VALUES, st.integers(0, 2**70)), min_size=count, max_size=count)
        )
        header = _HEADER.pack(STREAM_MAGIC, STREAM_VERSION, rows, 0, 0, 0, 0, 1250)
        assert_parses_like_reference(header + b"".join(varint_bytes(v) for v in values))

    def test_seven_byte_zero(self):
        blob = one_row_stream(bytes.fromhex("80808080808000"))
        assert parse_stream(blob) == ref_parse_stream(blob)
        assert parse_stream(blob).tokens[0, 0] == 0


class TestIdRange:
    def test_largest_id_round_trips(self):
        blob = one_row_stream(varint_bytes(MAX_TOKEN_ID))
        assert parse_stream(blob).tokens[0, 0] == MAX_TOKEN_ID

    @pytest.mark.parametrize("value", [2**31, 2**32 - 1, 2**32 + 5, 2**35, 2**63, 2**70])
    def test_ids_above_range_rejected(self, value):
        with pytest.raises(StreamHeaderError, match="above the largest id"):
            parse_stream(one_row_stream(varint_bytes(value)))

    def test_over_long_payload_above_range_rejected(self):
        # seven bytes whose last one carries payload: the value is 2**42
        with pytest.raises(StreamHeaderError, match="above the largest id"):
            parse_stream(one_row_stream(bytes.fromhex("80808080808001")))

    def test_error_names_the_first_bad_id(self):
        header = _HEADER.pack(STREAM_MAGIC, STREAM_VERSION, 1, 0, 0, 0, 0, 1250)
        ids = [0, 2**40, 0, 2**31] + [0] * (CHANNELS - 4)
        blob = header + b"".join(varint_bytes(v) for v in ids)
        with pytest.raises(StreamHeaderError, match=f"token id 1 of {CHANNELS} "):
            parse_stream(blob)


class TestDialogRecords:
    def test_round_trip_placed(self):
        result = two_dialog_build(groups=GROUPS)
        for dialog in result.scripts:
            assert from_payload(DialogScript, asdict(dialog)) == dialog

    def test_round_trip_unplaced_with_annotation(self):
        dialog = DialogScript(
            "d9",
            (make_turn("alice", groups=GROUPS),),
            annotation={"user_facts": ["likes tea"]},
        )
        assert from_payload(DialogScript, asdict(dialog)) == dialog

    def test_records_are_json_ready(self):
        result = two_dialog_build(groups=GROUPS)
        lines = [json.dumps(asdict(dialog), sort_keys=True) for dialog in result.scripts]
        parsed = [json.loads(line) for line in lines]
        assert [p["dialog_id"] for p in parsed] == ["d0", "d1"]
        rebuilt = [from_payload(DialogScript, p) for p in parsed]
        assert tuple(rebuilt) == result.scripts

    def test_mixed_speakers_rejected(self):
        with pytest.raises(StreamBuildError):
            DialogScript("d0", (make_turn("alice"), make_turn("bob")))
        with pytest.raises(StreamBuildError):
            DialogScript("d0", ())


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    instr=st.integers(19, 30),
    resp=st.integers(10, 20),
)
def test_mask_count_and_offset_laws(seed, shape, instr, resp):
    """For any placed build: N profile masks, 2*sum(T_j) turn masks, and the
    response monologue opens exactly two steps before the response audio."""
    dialogs = [
        DialogScript(
            f"d{j}",
            tuple(
                make_turn(f"user{j}", instr=instr, resp=resp, text="yes indeed", groups=GROUPS)
                for _ in range(turn_count)
            ),
        )
        for j, turn_count in enumerate(shape)
    ]
    result = build_stream(dialogs, StreamBuildConfig(echo_probability=0.0), rng_seed=seed)
    if result.truncated:
        return
    stream, scripts = result.stream, result.scripts
    assert scripts[0].session_span[0] == DIALOG_START
    assert not stream.tokens[:DIALOG_START].any()
    assert len(stream) == scripts[-1].session_span[1]

    profile = make_supervision_masks(stream, scripts, "profile")
    assert len(profile) == len(scripts)
    turn_masks = make_supervision_masks(stream, scripts, "query_response")
    assert len(turn_masks) == 2 * sum(len(d.turns) for d in scripts)

    first_byte = ord("y") + 1
    for dialog in scripts:
        for turn in dialog.turns:
            r0 = turn.response_span[0]
            assert stream.tokens[r0 - MONOLOGUE_LEAD_STEPS, 0] == first_byte

    (tags,) = make_supervision_masks(stream, scripts, "session_tags")
    labels = tags.mask
    assert int((labels == 1).sum()) == len(scripts)
    assert int((labels == 3).sum()) == len(scripts)
    assert int((labels == 2).sum()) == sum(
        (d.session_span[1] - d.session_span[0] - 2) for d in scripts
    )
