"""Session tagging, tag-sequence repair, and span metric conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexmem.sessions import (
    ActivityTagger,
    ExtractionResult,
    SessionError,
    SessionSpan,
    SpanMatchScore,
    TagSequence,
    TaggerBackendError,
    extract_sessions,
    jaccard_score,
    span_match_at_n,
    spans_to_labels,
    tag_stream,
)
from duplexmem.stream import (
    CHANNELS,
    DialogScript,
    StreamBuildConfig,
    TokenStream,
    TurnScript,
    build_stream,
)


def grid(length=900):
    return np.zeros((length, CHANNELS), dtype=np.int32)


def mark(tokens, start, end, marker):
    """Put a user utterance marker on the listen channel over [start, end]."""
    tokens[start:end + 1, 1] = marker


class TestTagSequence:
    def test_validation(self):
        with pytest.raises(SessionError):
            TagSequence(np.zeros((4, 2), dtype=np.uint8))
        with pytest.raises(SessionError):
            TagSequence(np.array([0, 4], dtype=np.uint8))
        seq = TagSequence(np.array([0, 1, 2, 3], dtype=np.uint8))
        with pytest.raises(ValueError):
            seq.labels[0] = 1

    def test_equality(self):
        a = TagSequence(np.array([0, 1, 3], dtype=np.uint8))
        assert a == TagSequence(np.array([0, 1, 3], dtype=np.uint8))
        assert a != TagSequence(np.array([0, 1, 2], dtype=np.uint8))
        assert a != "something else"


class TestSessionSpan:
    def test_inclusive_length(self):
        span = SessionSpan(5, 9)
        assert len(span) == 5
        assert list(span.steps()) == [5, 6, 7, 8, 9]
        assert len(SessionSpan(4, 4)) == 1

    def test_validation(self):
        with pytest.raises(SessionError):
            SessionSpan(-1, 4)
        with pytest.raises(SessionError):
            SessionSpan(5, 4)

    def test_spans_compare_and_sort_by_steps(self):
        assert SessionSpan(1, 2) == SessionSpan(1, 2) != SessionSpan(1, 3)
        assert sorted([SessionSpan(8, 9), SessionSpan(1, 2)])[0].start_step == 1


class TestActivityTagger:
    def test_single_run_tags(self):
        tokens = grid()
        mark(tokens, 770, 779, 2)
        labels = ActivityTagger()(tokens)
        expected = spans_to_labels([SessionSpan(770, 779)], 900)
        assert TagSequence(labels) == expected

    def test_gap_at_threshold_merges(self):
        # 24 silent steps between runs: still one session at gap_steps=25
        tokens = grid()
        mark(tokens, 770, 779, 2)
        mark(tokens, 804, 813, 2)
        result = extract_sessions(TagSequence(ActivityTagger()(tokens)))
        assert result.spans == (SessionSpan(770, 813),)

    def test_gap_past_threshold_splits(self):
        # 25 silent steps: two sessions
        tokens = grid()
        mark(tokens, 770, 779, 2)
        mark(tokens, 805, 814, 2)
        result = extract_sessions(TagSequence(ActivityTagger()(tokens)))
        assert result.spans == (SessionSpan(770, 779), SessionSpan(805, 814))

    def test_custom_gap_steps(self):
        tokens = grid()
        mark(tokens, 770, 779, 2)
        mark(tokens, 785, 790, 2)
        spans = extract_sessions(TagSequence(ActivityTagger(gap_steps=5)(tokens))).spans
        assert len(spans) == 2
        spans = extract_sessions(TagSequence(ActivityTagger(gap_steps=6)(tokens))).spans
        assert len(spans) == 1

    def test_marker_change_splits_contiguous_run(self):
        tokens = grid()
        mark(tokens, 770, 779, 2)
        mark(tokens, 780, 789, 3)
        result = extract_sessions(TagSequence(ActivityTagger()(tokens)))
        assert result.spans == (SessionSpan(770, 779), SessionSpan(780, 789))

    def test_marker_change_closes_at_last_active(self):
        # assistant-only steps between the two users belong to the first session
        tokens = grid()
        mark(tokens, 770, 779, 2)
        tokens[780:785, 9] = 1
        mark(tokens, 785, 789, 3)
        labels = ActivityTagger()(tokens)
        spans = extract_sessions(TagSequence(labels)).spans
        assert spans == (SessionSpan(770, 784), SessionSpan(785, 789))

    def test_owner_backfills_from_later_marker(self):
        tokens = grid()
        tokens[770:775, 9] = 1  # assistant speaks first
        mark(tokens, 775, 780, 2)
        tagger = ActivityTagger()
        labels = tagger(tokens)
        assert TagSequence(labels) == spans_to_labels([SessionSpan(770, 780)], 900)

    def test_validation(self):
        with pytest.raises(SessionError):
            ActivityTagger(gap_steps=0)
        with pytest.raises(SessionError):
            ActivityTagger()(np.zeros((10, 3), dtype=np.int32))

    def test_silent_stream_is_all_zero(self):
        assert not ActivityTagger()(grid()).any()


class TestTagStream:
    def build(self):
        turns = tuple(
            TurnScript("alice", "hi", "hello there", 20, 15) for _ in range(2)
        )
        dialogs = [
            DialogScript("d0", turns),
            DialogScript("d1", (TurnScript("bob", "hey", "sure", 20, 15),)),
        ]
        config = StreamBuildConfig(
            interruption_probability=0.0,
            echo_probability=0.0,
            turn_gap=(4, 4),
            dialog_gap=(30, 30),
        )
        return build_stream(dialogs, config, rng_seed=0)

    def test_reference_tagger_is_exact_on_built_streams(self):
        result = self.build()
        tags = tag_stream(result.stream)
        extracted = extract_sessions(tags)
        assert extracted.repairs == ()
        expected = tuple(
            SessionSpan(d.session_span[0], d.session_span[1] - 1) for d in result.scripts
        )
        assert extracted.spans == expected
        # markers come back from the stream content, not the tag labels
        markers = [
            result.stream.segment(s.start_step, s.end_step + 1).dominant_marker()
            for s in extracted.spans
        ]
        assert markers == [2, 3]

    def test_exactness_holds_under_default_build_settings(self):
        turns = tuple(TurnScript("u", "hi", "hello", 20, 15) for _ in range(4))
        for seed in range(10):
            dialogs = [
                DialogScript("a", turns),
                DialogScript(
                    "b", tuple(TurnScript("v", "hi", "hello", 18, 12) for _ in range(3))
                ),
            ]
            built = build_stream(dialogs, StreamBuildConfig(), rng_seed=seed)
            spans = extract_sessions(tag_stream(built.stream)).spans
            assert spans == tuple(
                SessionSpan(d.session_span[0], d.session_span[1] - 1) for d in built.scripts
            )

    def test_backend_shape_checked(self):
        stream = self.build().stream
        with pytest.raises(TaggerBackendError):
            tag_stream(stream, backend=lambda tokens: np.zeros(3, dtype=np.uint8))

    def test_backend_failure_wrapped_with_step(self):
        class Boom(Exception):
            step = 41

        def backend(tokens):
            raise Boom("no tags today")

        stream = self.build().stream
        with pytest.raises(TaggerBackendError) as info:
            tag_stream(stream, backend=backend)
        assert info.value.step == 41

    def test_session_errors_pass_through(self):
        stream = self.build().stream

        def backend(tokens):
            raise SessionError("direct")

        with pytest.raises(SessionError) as info:
            tag_stream(stream, backend=backend)
        assert not isinstance(info.value, TaggerBackendError)


class TestExtractSessions:
    def run(self, labels):
        return extract_sessions(TagSequence(np.asarray(labels, dtype=np.uint8)))

    def test_well_formed(self):
        result = self.run([0, 1, 2, 3, 0])
        assert result == ExtractionResult((SessionSpan(1, 3),), ())

    def test_unclosed_start_auto_closes(self):
        result = self.run([0, 1, 2, 2, 0, 0])
        assert result.spans == (SessionSpan(1, 3),)
        assert len(result.repairs) == 1
        assert result.repairs[0].kind == "auto_closed"
        assert result.repairs[0].step == 6

    def test_start_inside_open_session(self):
        result = self.run([1, 2, 1, 2, 3])
        assert result.spans == (SessionSpan(0, 1), SessionSpan(2, 4))
        assert [r.kind for r in result.repairs] == ["auto_closed"]
        assert result.repairs[0].step == 2

    def test_single_step_start(self):
        result = self.run([0, 1, 0])
        assert result.spans == (SessionSpan(1, 1),)
        assert result.repairs[0].kind == "auto_closed"

    def test_stray_in_tag_ignored(self):
        result = self.run([2, 0, 0])
        assert result.spans == ()
        assert [r.kind for r in result.repairs] == ["ignored_in"]
        assert result.repairs[0].step == 0

    def test_stray_end_tag_ignored(self):
        result = self.run([0, 3])
        assert result.spans == ()
        assert [r.kind for r in result.repairs] == ["ignored_end"]

    def test_detached_in_tags_do_not_extend_auto_close(self):
        # the in-session tag after the hole is detached; the close point stays
        result = self.run([1, 2, 0, 2, 0])
        assert result.spans == (SessionSpan(0, 1),)
        assert [r.kind for r in result.repairs] == ["auto_closed"]

    def test_end_tag_closes_across_hole(self):
        result = self.run([1, 0, 2, 3])
        assert result.spans == (SessionSpan(0, 3),)
        assert result.repairs == ()

    def test_adjacent_sessions(self):
        labels = spans_to_labels([SessionSpan(5, 9), SessionSpan(10, 12)], 15)
        result = extract_sessions(labels)
        assert result.spans == (SessionSpan(5, 9), SessionSpan(10, 12))
        assert result.repairs == ()

    def test_empty_sequence(self):
        result = self.run([])
        assert result == ExtractionResult((), ())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=60))
    def test_extraction_never_fails_and_yields_disjoint_spans(self, labels):
        result = self.run(labels)
        previous_end = -1
        for span in result.spans:
            assert span.start_step > previous_end
            previous_end = span.end_step
        # re-rendering the recovered spans is a fixpoint
        rendered = spans_to_labels(result.spans, len(labels))
        again = extract_sessions(rendered)
        assert again.spans == result.spans
        assert all(r.kind == "auto_closed" for r in again.repairs)


class TestSpansToLabels:
    def test_out_of_range_rejected(self):
        with pytest.raises(SessionError):
            spans_to_labels([SessionSpan(5, 20)], 10)

    def test_unsorted_input_rendered_in_order(self):
        labels = spans_to_labels([SessionSpan(10, 12), SessionSpan(2, 4)], 15)
        assert labels.labels[2] == 1 and labels.labels[10] == 1


class TestJaccard:
    def test_conventions(self):
        assert jaccard_score([], []) == 1.0
        assert jaccard_score([SessionSpan(0, 4)], []) == 0.0
        assert jaccard_score([], [SessionSpan(0, 4)]) == 0.0

    def test_exact_overlap(self):
        spans = [SessionSpan(3, 9), SessionSpan(20, 30)]
        assert jaccard_score(spans, list(spans)) == 1.0

    def test_partial_overlap_value(self):
        assert jaccard_score([SessionSpan(0, 9)], [SessionSpan(5, 14)]) == pytest.approx(1 / 3)

    def test_inclusive_boundaries_count(self):
        assert jaccard_score([SessionSpan(4, 4)], [SessionSpan(4, 4)]) == 1.0
        assert jaccard_score([SessionSpan(4, 4)], [SessionSpan(5, 5)]) == 0.0


class TestSpanMatch:
    def test_conventions(self):
        assert span_match_at_n([], [], 0) == SpanMatchScore(1.0, 1.0, 1.0)
        assert span_match_at_n([SessionSpan(0, 4)], [], 0) == SpanMatchScore(0.0, 0.0, 0.0)
        assert span_match_at_n([], [SessionSpan(0, 4)], 0) == SpanMatchScore(0.0, 0.0, 0.0)

    def test_tolerance_boundary(self):
        pred = [SessionSpan(1, 11)]
        gold = [SessionSpan(0, 10)]
        assert span_match_at_n(pred, gold, 0).f1 == 0.0
        assert span_match_at_n(pred, gold, 1).f1 == 1.0

    def test_greedy_one_to_one(self):
        pred = [SessionSpan(0, 10), SessionSpan(1, 11)]
        gold = [SessionSpan(1, 11)]
        score = span_match_at_n(pred, gold, 1)
        assert score.precision == 0.5
        assert score.recall == 1.0
        assert score.f1 == pytest.approx(2 / 3)

    def test_mixed_hand_case(self):
        pred = [SessionSpan(0, 9), SessionSpan(20, 29), SessionSpan(50, 59)]
        gold = [SessionSpan(0, 9), SessionSpan(21, 30), SessionSpan(40, 49)]
        score = span_match_at_n(pred, gold, 1)
        assert score == SpanMatchScore(
            pytest.approx(2 / 3), pytest.approx(2 / 3), pytest.approx(2 / 3)
        )

    def test_negative_tolerance_rejected(self):
        with pytest.raises(SessionError):
            span_match_at_n([], [], -1)


def test_tagger_matches_session_tag_masks():
    """The rule-based tagger reproduces the training labels on clean streams."""
    from duplexmem.stream import make_supervision_masks

    turns = tuple(TurnScript("u", "hi", "hello there friend", 20, 15) for _ in range(3))
    dialogs = [DialogScript("a", turns), DialogScript("b", turns[:1])]
    built = build_stream(
        dialogs,
        StreamBuildConfig(interruption_probability=0.0, echo_probability=0.0),
        rng_seed=5,
    )
    (mask,) = make_supervision_masks(built.stream, built.scripts, "session_tags")
    assert tag_stream(built.stream) == TagSequence(mask.mask)
