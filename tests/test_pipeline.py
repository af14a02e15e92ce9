"""Management-cycle behavior: session processing, fault isolation, and
idempotent re-runs over the same chunk."""

import json

import numpy as np
import pytest

from duplexmem.backends import (
    BackendClient,
    BackendTransportError,
    IdentitySeed,
    RetryPolicy,
    UtteranceRow,
    mock_suite,
)
from duplexmem.pipeline import (
    CycleConfig,
    CycleReport,
    EmptyTranscriptError,
    PipelineError,
    SessionRecord,
    clip_session,
    extract_memory,
    process_session,
    run_management_cycle,
)
from duplexmem.sessions import SessionSpan
from duplexmem.store import MemoryItem, MemoryStore, RelationTriplet, seed_profile
from duplexmem.stream import DialogScript, StreamBuildConfig, TurnScript, build_stream
from duplexmem.verification import CohortSet, Embedding

EMILY = IdentitySeed("emily", 11)
JOHN = IdentitySeed("john", 11)
ANN = IdentitySeed("ann", 11)
ROSTER = {2: EMILY, 3: JOHN}
MARKERS = {"Emily": 2, "John": 3}

EMILY_ANNOTATION = {
    "summary_sentences": ["emily talked about a tennis game"],
    "user_facts": ["Emily shows interest in tennis"],
    "persona_trail": {"favorite_sport": "tennis"},
    "user_name": "Emily",
    "relation_facts": [["colleague", "John"]],
}


def build_fixture(dialogs, turn_gap=(4, 4)):
    """Place dialogs and derive the ASR utterance table from the spans."""
    config = StreamBuildConfig(
        interruption_probability=0.0,
        echo_probability=0.0,
        turn_gap=turn_gap,
        dialog_gap=(30, 30),
        speaker_markers=MARKERS,
    )
    built = build_stream(dialogs, config, rng_seed=0)
    rows = []
    for dialog in built.scripts:
        marker = MARKERS[dialog.speaker_user]
        for turn in dialog.turns:
            i0, i1 = turn.instruction_span
            r0, r1 = turn.response_span
            rows.append(UtteranceRow(marker, i0, i1 - 1, "user", turn.instruction_text))
            rows.append(UtteranceRow(marker, r0, r1 - 1, "assistant", turn.response_text))
    return built, rows


def transcript_of(dialog):
    lines = []
    for turn in dialog.turns:
        lines.append(f"user: {turn.instruction_text}")
        lines.append(f"assistant: {turn.response_text}")
    return "\n".join(lines)


def emily_dialog(instr="I went to a tennis game", dialog_id="d0"):
    return DialogScript(
        dialog_id, (TurnScript("Emily", instr, "sounds like fun", 25, 15),)
    )


def john_dialog(instr="thinking about john-things", dialog_id="d1"):
    return DialogScript(
        dialog_id, (TurnScript("John", instr, "tell me more", 25, 15),)
    )


def make_suite(rows, annotations=None, **kwargs):
    return mock_suite(ROSTER, utterances=rows, annotations=annotations, **kwargs)


CONFIG = CycleConfig(timestamp="2024-05-15")


class TestClipSession:
    def test_absolute_coordinates(self):
        built, _ = build_fixture([emily_dialog()])
        stream = built.stream
        chunk = stream.segment(0, len(stream))
        start, end = built.scripts[0].session_span
        clip = clip_session(chunk, SessionSpan(start, end - 1))
        assert clip.start_step == start
        assert clip.end_step == end - 1
        assert clip.marker == 2
        assert clip.sample_index == start

    def test_offset_segments(self):
        built, _ = build_fixture([emily_dialog()])
        stream = built.stream
        chunk = stream.segment(700, len(stream))
        start, end = built.scripts[0].session_span
        clip = clip_session(chunk, SessionSpan(start - 700, end - 1 - 700))
        assert clip.start_step == start

    def test_out_of_range_span(self):
        built, _ = build_fixture([emily_dialog()])
        chunk = built.stream.segment(0, 800)
        with pytest.raises(PipelineError):
            clip_session(chunk, SessionSpan(790, 900))


class TestExtractMemory:
    def test_silent_clip_has_no_marker(self):
        built, rows = build_fixture([emily_dialog()])
        chunk = built.stream.segment(0, len(built.stream))
        clip = clip_session(chunk, SessionSpan(0, 100))
        with pytest.raises(EmptyTranscriptError):
            extract_memory(clip, make_suite(rows), "t")

    def test_marker_without_rows_is_empty_transcript(self):
        built, _ = build_fixture([emily_dialog()])
        chunk = built.stream.segment(0, len(built.stream))
        start, end = built.scripts[0].session_span
        clip = clip_session(chunk, SessionSpan(start, end - 1))
        with pytest.raises(EmptyTranscriptError):
            extract_memory(clip, make_suite([]), "t")

    def test_annotation_lookup(self):
        built, rows = build_fixture([emily_dialog()])
        chunk = built.stream.segment(0, len(built.stream))
        start, end = built.scripts[0].session_span
        clip = clip_session(chunk, SessionSpan(start, end - 1))
        suite = make_suite(rows, {transcript_of(built.scripts[0]): EMILY_ANNOTATION})
        extracted = extract_memory(clip, suite, "2024-05-15")
        assert extracted.user_name == "Emily"
        assert extracted.user_facts == ("Emily shows interest in tennis",)
        assert extracted.session_timestamp == "2024-05-15"


class TestRecordTypes:
    def test_unknown_action_rejected(self):
        with pytest.raises(PipelineError):
            SessionRecord(0, 1, "destroyed")

    def test_report_counters(self):
        report = CycleReport(
            0,
            100,
            (
                SessionRecord(0, 10, "created", facts_added=2, summaries_added=1),
                SessionRecord(20, 30, "updated", edges_added=1),
                SessionRecord(40, 50, "unchanged"),
                SessionRecord(60, 70, "failed", error_type="ValueError"),
            ),
            (),
        )
        assert report.count("created") == 1
        assert report.count("failed") == 1
        assert report.write_count == 2 + 1 + 1 + 1  # items, edge, creation

    def test_report_payload_is_json_ready(self):
        report = CycleReport(
            0, 10, (SessionRecord(0, 5, "skipped", reason="because"),), ()
        )
        payload = json.loads(json.dumps(report.to_payload()))
        assert payload["sessions"][0]["action"] == "skipped"


def run_cycle(built, rows, store, annotations=None, suite=None, config=CONFIG):
    chunk = built.stream.segment(0, len(built.stream))
    suite = suite or make_suite(rows, annotations)
    return run_management_cycle(chunk, store, suite, config)


class TestEnrollment:
    def test_first_contact_creates_profile(self):
        built, rows = build_fixture([emily_dialog()])
        store = MemoryStore()
        report = run_cycle(
            built, rows, store, {transcript_of(built.scripts[0]): EMILY_ANNOTATION}
        )
        (record,) = report.records
        assert record.action == "created"
        assert record.user_id == "user_0001"
        assert record.facts_added == 1 and record.summaries_added == 1
        assert record.unresolved_names == ("John",)
        profile = store.lookup_user("user_0001")
        assert profile.name == "Emily"
        assert profile.facts == (
            MemoryItem("Emily shows interest in tennis", "2024-05-15"),
        )
        assert profile.persona == {"favorite_sport": "tennis"}

    def test_relation_edge_resolved_when_name_known(self):
        built, rows = build_fixture([emily_dialog()])
        store = MemoryStore()
        seed_profile(
            store, JOHN.key_embedding("face"), JOHN.key_embedding("voice"), "John"
        )
        report = run_cycle(
            built, rows, store, {transcript_of(built.scripts[0]): EMILY_ANNOTATION}
        )
        (record,) = report.records
        assert record.action == "created"
        assert record.edges_added == 1
        assert record.unresolved_names == ()
        assert store.connected_users(record.user_id) == [("user_0001", "colleague")]

    def test_fallback_extraction_still_enrolls(self):
        built, rows = build_fixture([emily_dialog()])
        store = MemoryStore()
        report = run_cycle(built, rows, store)  # no annotations registered
        (record,) = report.records
        assert record.action == "created"
        assert record.summaries_added == 1
        profile = store.lookup_user(record.user_id)
        assert profile.name == "unknown_user"
        assert "tennis game" in profile.dialog_summaries[0].text


class TestIdempotence:
    def test_second_cycle_is_a_no_op(self):
        built, rows = build_fixture([emily_dialog(), john_dialog()])
        annotations = {transcript_of(built.scripts[0]): EMILY_ANNOTATION}
        store = MemoryStore()
        suite = make_suite(rows, annotations)
        first = run_cycle(built, rows, store, suite=suite)
        assert first.count("created") == 2
        version_before = store.store_version
        profiles_before = {uid: store.lookup_user(uid).version for uid in store.user_ids}

        second = run_cycle(built, rows, store, suite=suite)
        assert [r.action for r in second.records] == ["unchanged", "unchanged"]
        assert second.write_count == 0
        assert store.store_version == version_before
        assert {
            uid: store.lookup_user(uid).version for uid in store.user_ids
        } == profiles_before

    def test_rerun_matches_by_face(self):
        built, rows = build_fixture([emily_dialog()])
        store = MemoryStore()
        suite = make_suite(rows)
        run_cycle(built, rows, store, suite=suite)
        second = run_cycle(built, rows, store, suite=suite)
        assert second.records[0].user_id == "user_0001"


class TestUpdates:
    def preseeded_store(self, persona=None):
        store = MemoryStore()
        seed_profile(
            store,
            EMILY.key_embedding("face"),
            EMILY.key_embedding("voice"),
            "Emily",
            persona=persona,
        )
        return store

    def test_matched_session_appends_items(self):
        built, rows = build_fixture([emily_dialog()])
        store = self.preseeded_store()
        report = run_cycle(
            built, rows, store, {transcript_of(built.scripts[0]): EMILY_ANNOTATION}
        )
        (record,) = report.records
        assert record.action == "updated"
        assert record.user_id == "user_0001"
        profile = store.lookup_user("user_0001")
        assert profile.version == 2
        assert [i.text for i in profile.facts] == ["Emily shows interest in tennis"]

    def test_conflicting_persona_value_becomes_replacement(self):
        built, rows = build_fixture([emily_dialog()])
        store = self.preseeded_store(persona={"favorite_sport": "golf"})
        run_cycle(built, rows, store, {transcript_of(built.scripts[0]): EMILY_ANNOTATION})
        profile = store.lookup_user("user_0001")
        assert profile.persona["favorite_sport"] == "tennis"
        replacement = [
            e for e in store.audit_entries if e["action"] == "replace_persona"
        ][0]
        assert replacement["old"] == "golf" and replacement["new"] == "tennis"

    def test_matched_session_resolves_relation_names(self):
        """A known name gains an edge, a linked one adds nothing, and an
        unknown name (however often repeated) or the speaker's own name stays
        unresolved. Profile writes land in the audit log before edges."""
        built, rows = build_fixture([emily_dialog()])
        store = self.preseeded_store()
        john = seed_profile(store, JOHN.key_embedding("face"), JOHN.key_embedding("voice"), "John")
        ann = seed_profile(store, ANN.key_embedding("face"), ANN.key_embedding("voice"), "Ann")
        store.add_relation_edge(RelationTriplet("user_0001", "friend", ann))
        audit_before = len(store.audit_entries)
        annotation = {
            **EMILY_ANNOTATION,
            "relation_facts": [
                ["colleague", "John"],
                ["friend", "Ann"],
                ["neighbor", "Ghost"],
                ["colleague", "John"],
                ["cousin", "Ghost"],
                ["twin", "Emily"],
            ],
        }
        annotations = {transcript_of(built.scripts[0]): annotation}
        suite = make_suite(rows, annotations)

        (record,) = run_cycle(built, rows, store, suite=suite).records
        assert (record.action, record.user_id) == ("updated", "user_0001")
        assert (record.facts_added, record.edges_added) == (1, 1)
        assert record.unresolved_names == ("Ghost", "Emily")  # first-seen order
        assert store.connected_users("user_0001") == [
            (john, "colleague"), (ann, "friend")
        ]
        assert [e["action"] for e in store.audit_entries[audit_before:]] == [
            "apply_update", "add_edge"
        ]
        assert store.audit_entries[-1]["edge"] == ["user_0001", "colleague", john]

        (again,) = run_cycle(built, rows, store, suite=suite).records
        assert (again.action, again.edges_added) == ("unchanged", 0)
        assert again.unresolved_names == ("Ghost", "Emily")
        assert [e["action"] for e in store.audit_entries[audit_before:]] == [
            "apply_update", "add_edge"
        ]


class TestFaultIsolation:
    class PoisonTransport:
        """Fails any extractor call whose transcript mentions the poison word."""

        def __init__(self, inner, word):
            self.inner = inner
            self.word = word

        def send(self, kind, envelope):
            body = envelope.get("body", {})
            if self.word in str(body.get("transcript", "")):
                raise BackendTransportError("extractor shard down")
            return self.inner.send(kind, envelope)

    def test_one_failing_session_does_not_poison_the_chunk(self):
        built, rows = build_fixture([emily_dialog(), john_dialog()])
        store = MemoryStore()
        suite = make_suite(rows)
        poisoned = BackendClient(
            "extractor",
            self.PoisonTransport(suite.extractor._transport, "john-things"),
            RetryPolicy(retries=1),
        )
        suite.extractor = poisoned
        report = run_cycle(built, rows, store, suite=suite)
        emily_record, john_record = report.records
        assert emily_record.action == "created"
        assert john_record.action == "failed"
        assert john_record.error_type == "BackendTransportError"
        assert "extractor shard down" in john_record.reason
        assert store.user_ids == ("user_0001",)

    def test_failed_sessions_recover_on_the_next_cycle(self):
        built, rows = build_fixture([emily_dialog(), john_dialog()])
        store = MemoryStore()
        suite = make_suite(rows)
        healthy_transport = suite.extractor._transport
        suite.extractor = BackendClient(
            "extractor",
            self.PoisonTransport(healthy_transport, "john-things"),
            RetryPolicy(retries=1),
        )
        run_cycle(built, rows, store, suite=suite)
        suite.extractor = BackendClient("extractor", healthy_transport)
        report = run_cycle(built, rows, store, suite=suite)
        assert [r.action for r in report.records] == ["unchanged", "created"]
        assert len(store.user_ids) == 2


class TestSkips:
    def test_unknown_marker_has_no_identity_signal(self):
        dialogs = [
            DialogScript("d0", (TurnScript("Ghost", "who am i", "no idea", 25, 15),))
        ]
        config = StreamBuildConfig(
            interruption_probability=0.0,
            echo_probability=0.0,
            speaker_markers={"Ghost": 9},
        )
        built = build_stream(dialogs, config, rng_seed=0)
        store = MemoryStore()
        report = run_management_cycle(
            built.stream.segment(0, len(built.stream)), store, make_suite([]), CONFIG
        )
        (record,) = report.records
        assert record.action == "skipped"
        assert record.reason == "no identity signal"
        assert store.user_ids == ()

    def test_voice_only_without_cohorts_skips(self):
        built, rows = build_fixture([emily_dialog()])
        store = MemoryStore()
        suite = mock_suite({}, voice_roster=ROSTER, utterances=rows)
        report = run_cycle(built, rows, store, suite=suite)
        (record,) = report.records
        assert record.action == "skipped"
        assert "voice fallback is not configured" in record.reason

    def test_unmatched_voice_cannot_enroll_without_face(self):
        built, rows = build_fixture([emily_dialog()])
        store = MemoryStore()
        suite = mock_suite({}, voice_roster=ROSTER, utterances=rows)
        config = CycleConfig(
            timestamp="2024-05-15",
            voice_query_cohort=make_cohort(500),
            voice_key_cohort=make_cohort(600),
        )
        chunk = built.stream.segment(0, len(built.stream))
        report = run_management_cycle(chunk, store, suite, config)
        (record,) = report.records
        assert record.action == "skipped"
        assert "no face key to enroll" in record.reason
        assert store.user_ids == ()


def make_cohort(seed_base, size=60, top_n=50):
    members = tuple(
        IdentitySeed(f"cohort{seed_base + i}", seed_base).key_embedding("voice")
        for i in range(size)
    )
    return CohortSet(members, top_n=top_n)


class TestVoiceFallback:
    def test_voice_match_updates_profile(self):
        built, rows = build_fixture([emily_dialog()])
        store = MemoryStore()
        seed_profile(
            store,
            EMILY.key_embedding("face"),
            EMILY.key_embedding("voice"),
            "Emily",
        )
        suite = mock_suite({}, voice_roster=ROSTER, utterances=rows)
        config = CycleConfig(
            timestamp="2024-05-15",
            voice_query_cohort=make_cohort(500),
            voice_key_cohort=make_cohort(600),
        )
        chunk = built.stream.segment(0, len(built.stream))
        report = run_management_cycle(
            chunk, store, suite, config
        )
        (record,) = report.records
        assert record.action in ("updated", "unchanged")
        assert record.user_id == "user_0001"


class TestTaggerIntegration:
    def test_repairs_surface_in_report(self):
        built, rows = build_fixture([emily_dialog()])
        length = len(built.stream)

        def sloppy_tagger(tokens):
            labels = np.zeros(tokens.shape[0], dtype=np.uint8)
            start, end = built.scripts[0].session_span
            labels[start] = 1
            labels[start + 1:end] = 2  # never closed
            return labels

        store = MemoryStore()
        report = run_management_cycle(
            built.stream.segment(0, length), store, make_suite(rows), CONFIG,
            tagger=sloppy_tagger,
        )
        assert len(report.repairs) == 1
        assert report.repairs[0].kind == "auto_closed"
        assert report.records[0].action == "created"

    def test_gap_override_splits_turns(self):
        dialog = DialogScript(
            "d0",
            tuple(
                TurnScript("Emily", f"instruction {i}", "short reply", 25, 15)
                for i in range(2)
            ),
        )
        built, rows = build_fixture([dialog], turn_gap=(8, 8))
        store = MemoryStore()
        suite = make_suite(rows)
        default_report = run_cycle(built, rows, store, suite=suite)
        assert len(default_report.records) == 1

        split_store = MemoryStore()
        split_suite = make_suite(rows)
        chunk = built.stream.segment(0, len(built.stream))
        split_report = run_management_cycle(
            chunk, split_store, split_suite, CycleConfig(timestamp="t", gap_steps=5)
        )
        assert len(split_report.records) == 2
        # same speaker both times: the second session matches the first's profile
        assert split_report.records[0].action == "created"
        assert split_report.records[1].action in ("updated", "unchanged")
        assert split_store.user_ids == ("user_0001",)

    @staticmethod
    def raising_tagger(tokens):
        raise RuntimeError("tagger host down")

    @pytest.mark.parametrize(
        "tagger, reason",
        [
            (raising_tagger, "tagging backend failed: tagger host down"),
            (lambda tokens: np.zeros(3, dtype=np.uint8), "backend returned shape (3,)"),
        ],
        ids=["raises", "wrong_shape"],
    )
    def test_tagger_failure_fails_the_chunk(self, tagger, reason):
        built, rows = build_fixture([emily_dialog()])
        chunk = built.stream.segment(40, len(built.stream))
        store = MemoryStore()
        report = run_management_cycle(chunk, store, make_suite(rows), CONFIG, tagger=tagger)
        (record,) = report.records
        assert (record.start_step, record.end_step) == (40, len(built.stream) - 1)
        assert (record.action, record.error_type) == ("failed", "TaggerBackendError")
        assert record.reason.startswith(reason)
        assert (report.chunk_start, report.chunk_end, report.repairs) == (
            40, len(built.stream), ())
        assert store.user_ids == () and store.store_version == 0
