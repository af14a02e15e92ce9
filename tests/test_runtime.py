"""Live-loop behavior: polling cadence, window refreshes, query handling,
and chunked management scheduling."""

from dataclasses import asdict

import numpy as np
import pytest

from duplexmem.backends import (
    BackendSchemaError,
    BackendTransportError,
    FlakyTransport,
    IdentitySeed,
    UtteranceRow,
    mock_suite,
)
from duplexmem.pipeline import CycleConfig
from duplexmem.retrieval import QueryGroups
from duplexmem.runtime import (
    UNKNOWN_IDENTITY,
    AgentConfig,
    ContextWindowState,
    WindowOverflowError,
    config_from_mapping,
    handle_retrieval_request,
    polling_tick,
    refresh_profile_window,
    render_profile,
    run_agent,
)
from duplexmem.store import MemoryStore, RelationTriplet, seed_profile
from duplexmem.stream import DialogScript, StreamBuildConfig, TokenStream, TurnScript, build_stream
from duplexmem.verification import CohortSet

EMILY = IdentitySeed("emily", 11)
JOHN = IdentitySeed("john", 11)
ROSTER = {2: EMILY, 3: JOHN}
MARKERS = {"Emily": 2, "John": 3}
GROUPS = QueryGroups(keywords=("tennis",))


def build_fixture(dialogs, trailing_silence=0):
    config = StreamBuildConfig(
        interruption_probability=0.0,
        echo_probability=0.0,
        turn_gap=(4, 4),
        dialog_gap=(30, 30),
        speaker_markers=MARKERS,
    )
    built = build_stream(dialogs, config, rng_seed=0)
    stream = built.stream
    if trailing_silence:
        padded = np.vstack(
            [stream.tokens, np.zeros((trailing_silence, 17), dtype=np.int32)]
        )
        stream = TokenStream(padded)
    rows = []
    for dialog in built.scripts:
        marker = MARKERS[dialog.speaker_user]
        for turn in dialog.turns:
            i0, i1 = turn.instruction_span
            r0, r1 = turn.response_span
            rows.append(UtteranceRow(marker, i0, i1 - 1, "user", turn.instruction_text))
            rows.append(UtteranceRow(marker, r0, r1 - 1, "assistant", turn.response_text))
    return built, stream, rows


def emily_dialog(turns=1, groups=None):
    return DialogScript(
        "d0",
        tuple(
            TurnScript(
                "Emily", f"tell me about tennis {k}", "right away", 30, 15,
                query_groups=groups,
            )
            for k in range(turns)
        ),
    )


def emily_store():
    """Emily plus one neighbor whose memories the retrieval path can surface."""
    store = MemoryStore()
    emily = seed_profile(
        store,
        EMILY.key_embedding("face"),
        EMILY.key_embedding("voice"),
        "Emily",
    )
    john = seed_profile(
        store,
        JOHN.key_embedding("face"),
        JOHN.key_embedding("voice"),
        "John",
        facts=[("plays tennis on sunday", "2024-05-01")],
    )
    store.add_relation_edge(RelationTriplet(emily, "colleague", john))
    return store


class TestAgentConfig:
    def test_defaults_are_valid(self):
        config = AgentConfig()
        assert config.polling_interval_steps == 25
        assert config.loss_ticks_to_clear == 5

    @pytest.mark.parametrize(
        "field",
        [
            "polling_interval_steps",
            "verification_window_steps",
            "management_interval_steps",
            "loss_ticks_to_clear",
            "retrieval_top_k",
        ],
    )
    def test_counts_must_be_positive(self, field):
        with pytest.raises(ValueError):
            config_from_mapping({field: 0})

    @pytest.mark.parametrize("value", [0, 513])
    def test_profile_capacity_bounds(self, value):
        with pytest.raises(ValueError):
            AgentConfig(profile_capacity=value)

    def test_retrieval_capacity_bounds(self):
        with pytest.raises(ValueError):
            AgentConfig(retrieval_capacity=257)
        assert AgentConfig(retrieval_capacity=256).retrieval_capacity == 256

    STEP_FIELDS = (
        "polling_interval_steps",
        "verification_window_steps",
        "management_interval_steps",
        "profile_capacity",
        "retrieval_capacity",
        "loss_ticks_to_clear",
        "retrieval_top_k",
    )

    @pytest.mark.parametrize("field", STEP_FIELDS)
    @pytest.mark.parametrize("value", [True, 2.5, 25.0, "25", None])
    def test_step_fields_are_ints(self, field, value):
        with pytest.raises(TypeError, match=field):
            config_from_mapping({field: value})

    @pytest.mark.parametrize("field", ["face_delta", "speaker_theta"])
    @pytest.mark.parametrize("value", [True, False, "0.3", None, [0.3]])
    def test_thresholds_are_numbers(self, field, value):
        with pytest.raises(TypeError, match=field):
            config_from_mapping({field: value})

    @pytest.mark.parametrize("field", ["face_delta", "speaker_theta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_thresholds_are_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            config_from_mapping({field: value})

    def test_int_thresholds_are_accepted(self):
        config = config_from_mapping({"face_delta": 1, "speaker_theta": 6})
        assert (config.face_delta, config.speaker_theta) == (1, 6)

    def test_mapping_round_trip(self):
        config = config_from_mapping({"retrieval_top_k": 3, "face_delta": 0.4})
        assert config.retrieval_top_k == 3
        assert config.face_delta == 0.4

    def test_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="mystery_knob"):
            config_from_mapping({"mystery_knob": 1})


class TestContextWindow:
    def test_version_counts_changes_only(self):
        window = ContextWindowState("profile", 64)
        assert window.version == 0
        assert window.set_content("hello") is True
        assert window.version == 1
        assert window.set_content("hello") is False
        assert window.version == 1
        assert window.set_content("world") is True
        assert window.version == 2

    def test_capacity_is_measured_in_bytes(self):
        window = ContextWindowState("w", 3)
        window.set_content("é")  # two bytes, fits
        with pytest.raises(WindowOverflowError):
            window.set_content("éé")  # four bytes

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ContextWindowState("w", 0)


class TestRenderProfile:
    def profile(self):
        store = MemoryStore()
        seed_profile(
            store,
            EMILY.key_embedding("face"),
            EMILY.key_embedding("voice"),
            "Emily",
            facts=[("plays tennis", "d1"), ("likes tea", "d2")],
            summaries=[("chatted", "d1")],
            persona={"favorite_sport": "tennis", "favorite_cuisine": "pasta"},
        )
        return store.lookup_user("user_0001")

    def test_full_rendering_order(self):
        text = render_profile(self.profile(), 512)
        assert text.splitlines() == [
            "name: Emily",
            "fact: plays tennis (d1)",
            "fact: likes tea (d2)",
            "summary: chatted (d1)",
            "persona/favorite_cuisine: pasta",
            "persona/favorite_sport: tennis",
        ]

    def test_budget_keeps_a_prefix(self):
        lines = render_profile(self.profile(), 512).splitlines()
        budget = len(lines[0]) + 1 + len(lines[1])
        assert render_profile(self.profile(), budget).splitlines() == lines[:2]
        assert render_profile(self.profile(), budget - 1).splitlines() == lines[:1]

    def test_break_is_hard_even_when_later_lines_fit(self):
        store = MemoryStore()
        seed_profile(
            store,
            EMILY.key_embedding("face"),
            EMILY.key_embedding("voice"),
            "Al",
            facts=[("x" * 300, "d1")],
            persona={"pets": "cat"},
        )
        profile = store.lookup_user("user_0001")
        text = render_profile(profile, 40)
        # the oversized fact stops the scan; the short persona line after it
        # is dropped even though it would fit on its own
        assert text == "name: Al"


class TestRefreshProfileWindow:
    def test_three_targets(self):
        window = ContextWindowState("profile", 512)
        store = emily_store()
        assert refresh_profile_window(window, store.lookup_user("user_0001"))
        assert window.content.startswith("name: Emily")
        assert refresh_profile_window(window, None, unknown=True)
        assert window.content == "name: unknown_user"
        assert refresh_profile_window(window, None)
        assert window.content == ""
        assert refresh_profile_window(window, None) is False


class TestPollingTick:
    def setup(self, store=None):
        built, stream, rows = build_fixture([emily_dialog()])
        suite = mock_suite(ROSTER, utterances=rows)
        return built, stream, suite, store if store is not None else emily_store()

    def tick_step(self, built):
        start, end = built.scripts[0].session_span
        return end - 1

    def test_known_face_matches(self):
        built, stream, suite, store = self.setup()
        obs = polling_tick(stream, self.tick_step(built), store, suite, AgentConfig())
        assert obs.identity == "user_0001"
        assert obs.conflict is False
        assert obs.backend_error == ""

    def test_silence_has_no_signal(self):
        built, stream, suite, store = self.setup()
        obs = polling_tick(stream, 100, store, suite, AgentConfig())
        assert obs.identity is None

    def test_stranger_is_unknown(self):
        built, stream, suite, _ = self.setup()
        obs = polling_tick(stream, self.tick_step(built), MemoryStore(), suite, AgentConfig())
        assert obs.identity == UNKNOWN_IDENTITY

    def test_face_backend_failure_degrades_to_no_signal(self):
        built, stream, rows = build_fixture([emily_dialog()])
        suite = mock_suite(
            ROSTER,
            utterances=rows,
            wrap_transport=lambda t: FlakyTransport(t, failure_rate=1.0, seed=1),
        )
        obs = polling_tick(stream, self.tick_step(built), emily_store(), suite, AgentConfig())
        assert obs.identity is None
        assert obs.backend_error.startswith("face_encoder:")

    def test_voice_disagreement_raises_conflict_but_face_wins(self):
        built, stream, rows = build_fixture([emily_dialog()])
        suite = mock_suite(ROSTER, utterances=rows)
        store = MemoryStore()
        # user 1 pairs Emily's face with John's voice; user 2 holds Emily's voice
        seed_profile(
            store, EMILY.key_embedding("face"), JOHN.key_embedding("voice"), "Mix"
        )
        seed_profile(
            store, JOHN.key_embedding("face"), EMILY.key_embedding("voice"), "Other"
        )
        obs = polling_tick(
            stream,
            self.tick_step(built),
            store,
            suite,
            AgentConfig(),
            voice_query_cohort=make_cohort(700),
            voice_key_cohort=make_cohort(800),
        )
        assert obs.identity == "user_0001"
        assert obs.conflict is True

    def test_voice_fallback_when_face_undetected(self):
        built, stream, rows = build_fixture([emily_dialog()])
        suite = mock_suite({}, voice_roster=ROSTER, utterances=rows)
        obs = polling_tick(
            stream,
            self.tick_step(built),
            emily_store(),
            suite,
            AgentConfig(),
            voice_query_cohort=make_cohort(700),
            voice_key_cohort=make_cohort(800),
        )
        assert obs.identity == "user_0001"


def make_cohort(seed_base, size=60, top_n=50):
    members = tuple(
        IdentitySeed(f"cohort{seed_base + i}", seed_base).key_embedding("voice")
        for i in range(size)
    )
    return CohortSet(members, top_n=top_n)


class TestHandleRetrievalRequest:
    def test_no_marker_is_skipped(self):
        window = ContextWindowState("retrieval", 256)
        suite = mock_suite(ROSTER)
        event = handle_retrieval_request(
            "plain monologue", "user_0001", emily_store(), suite, window, 5, 10
        )
        assert event["status"] == "skipped"
        assert window.version == 0

    def test_no_active_user_is_skipped(self):
        window = ContextWindowState("retrieval", 256)
        suite = mock_suite(ROSTER)
        text = "<retr>:\n\ntennis<answer>"
        for user in (None, UNKNOWN_IDENTITY):
            event = handle_retrieval_request(
                text, user, emily_store(), suite, window, 5, 10
            )
            assert event["status"] == "skipped"
            assert event["reason"] == "no active user"

    def test_malformed_marker_is_an_error(self):
        window = ContextWindowState("retrieval", 256)
        suite = mock_suite(ROSTER)
        event = handle_retrieval_request(
            "<retr>:\nonly one line<answer>",
            "user_0001",
            emily_store(),
            suite,
            window,
            5,
            10,
        )
        assert event["status"] == "error"
        assert window.version == 0

    def test_hit_refreshes_the_window(self):
        window = ContextWindowState("retrieval", 256)
        suite = mock_suite(ROSTER)
        store = emily_store()
        text = "<retr>:\n\ntennis<answer>"
        event = handle_retrieval_request(text, "user_0001", store, suite, window, 5, 10)
        assert event["status"] == "ok"
        assert event["documents"] == 1
        assert event["changed"] is True
        assert "tennis" in window.content
        repeat = handle_retrieval_request(text, "user_0001", store, suite, window, 5, 11)
        assert repeat["changed"] is False
        assert window.version == 1


class TestRunAgent:
    def run(self, dialogs, store=None, trailing_silence=0, config=AgentConfig(), **kwargs):
        built, stream, rows = build_fixture(dialogs, trailing_silence)
        suite = mock_suite(ROSTER, utterances=rows)
        store = store if store is not None else emily_store()
        return built, run_agent(stream, store, suite, config, timestamp="2024-05-15", **kwargs)

    def test_refresh_invariant_and_tracking(self):
        built, result = self.run([emily_dialog()])
        counters = result.counters
        assert counters.refresh_signals == counters.switch_count + counters.loss_clear_count
        assert counters.switch_count == 1
        assert result.tracked_user == "user_0001"
        assert result.profile_window.content.startswith("name: Emily")

    def test_loss_clear_after_fixed_streak(self):
        # six polling intervals of trailing silence: the fifth lossy tick clears
        built, result = self.run([emily_dialog()], trailing_silence=150)
        assert result.counters.loss_clear_count == 1
        assert result.tracked_user is None
        assert result.profile_window.content == ""
        clears = [e for e in result.events if e.get("reason") == "loss_clear"]
        assert len(clears) == 1
        ticks = [e for e in result.events if e["event"] == "tick"]
        assert clears[0]["step"] == [t["step"] for t in ticks if t["cleared"]][0]

    def test_short_loss_does_not_clear(self):
        built, result = self.run([emily_dialog()], trailing_silence=75)
        assert result.counters.loss_clear_count == 0
        assert result.tracked_user == "user_0001"

    def test_unknown_visitor_still_counts_one_switch(self):
        built, result = self.run([emily_dialog()], store=MemoryStore())
        assert result.counters.switch_count == 1
        assert result.tracked_user == UNKNOWN_IDENTITY
        assert result.profile_window.content == "name: unknown_user"

    def test_query_marker_is_answered_at_its_closing_step(self):
        built, result = self.run([emily_dialog(turns=2, groups=GROUPS)])
        events = [e for e in result.events if e["event"] == "retrieval"]
        assert len(events) == 2
        expected_steps = [
            turn.response_span[0] - 3 for turn in built.scripts[0].turns
        ]
        assert [e["step"] for e in events] == expected_steps
        assert events[0]["status"] == "ok"
        assert result.counters.queries_handled == 2
        # identical query content the second time: no new window version
        assert result.counters.retrieval_refreshes == 1
        assert "tennis" in result.retrieval_window.content

    def test_query_without_tracked_user_is_skipped(self):
        built, result = self.run([emily_dialog(groups=GROUPS)], store=MemoryStore())
        events = [e for e in result.events if e["event"] == "retrieval"]
        assert [e["status"] for e in events] == ["skipped"]
        assert result.counters.retrieval_refreshes == 0

    def test_single_trailing_management_cycle(self):
        built, result = self.run([emily_dialog()])
        assert result.counters.management_cycles == 1
        (report,) = result.cycle_reports
        assert (report.chunk_start, report.chunk_end) == (0, len(built.stream))

    def test_chunked_management_covers_the_stream(self):
        config = AgentConfig(management_interval_steps=256)
        built, result = self.run([emily_dialog()], config=config)
        spans = [(r.chunk_start, r.chunk_end) for r in result.cycle_reports]
        length = len(built.stream)
        assert spans[0][0] == 0
        assert spans[-1][1] == length
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start
        assert all(end - start == 256 for start, end in spans[:-1])
        assert result.counters.management_cycles == len(spans)

    def test_management_persists_the_session(self):
        store = MemoryStore()
        built, result = self.run(
            [emily_dialog()], store=store, trailing_silence=0
        )
        assert len(store.user_ids) == 1
        cycle_events = [e for e in result.events if e["event"] == "management_cycle"]
        assert cycle_events[0]["sessions"]["created"] == 1

    def test_run_is_deterministic(self):
        first = self.run([emily_dialog(turns=2, groups=GROUPS)], trailing_silence=120)
        second = self.run([emily_dialog(turns=2, groups=GROUPS)], trailing_silence=120)
        assert first[1].to_jsonl() == second[1].to_jsonl()
        assert asdict(first[1].counters) == asdict(second[1].counters)

    def test_flaky_backends_never_stall_the_loop(self):
        built, stream, rows = build_fixture([emily_dialog()], trailing_silence=100)
        suite = mock_suite(
            ROSTER,
            utterances=rows,
            wrap_transport=lambda t: FlakyTransport(t, failure_rate=0.5, seed=3),
        )
        result = run_agent(stream, emily_store(), suite, AgentConfig(), timestamp="t")
        counters = result.counters
        assert counters.ticks > 0
        assert counters.refresh_signals == counters.switch_count + counters.loss_clear_count

    def test_malformed_encoder_replies_are_contained(self):
        self.check_replies_are_contained(([0.5] * 511, [float("nan")] * 512), [0.5] * 255)

    @pytest.mark.parametrize(
        "voice_reply", [[0.0] * 256, [1e39] + [0.5] * 255], ids=["zero", "beyond_float32"]
    )
    def test_zero_norm_and_overflow_replies_are_contained(self, voice_reply):
        # both pass the schema's finite-number check; neither makes an Embedding
        self.check_replies_are_contained(([0.0] * 512, [1e39] + [0.5] * 511), voice_reply)

    def check_replies_are_contained(self, face_replies, voice_reply):
        """Two bad face replies and one bad voice reply at spoken ticks, the
        second face and the voice reply again at the two sessions."""
        dialogs = [
            DialogScript(f"d{i}", emily_dialog(turns=3).turns) for i in range(2)
        ]
        built, stream, rows = build_fixture(dialogs)
        sessions = [d.session_span[0] for d in built.scripts]
        spoken = [
            step for step in range(24, len(stream), 25)
            if stream.segment(step - 24, step + 1).dominant_marker() is not None
        ]
        bad_face, second_face, bad_voice = spoken[1], spoken[3], spoken[5]
        bad = {
            ("face_encoder", bad_face): face_replies[0],
            ("face_encoder", second_face): face_replies[1],
            ("voice_encoder", bad_voice): voice_reply,
            ("face_encoder", sessions[0]): face_replies[1],
            ("voice_encoder", sessions[1]): voice_reply,
        }
        suite = mock_suite(
            ROSTER, utterances=rows, wrap_transport=lambda t: CorruptingTransport(t, bad)
        )
        cycle_config = CycleConfig(
            timestamp="t", voice_query_cohort=make_cohort(700), voice_key_cohort=make_cohort(800)
        )
        result = run_agent(stream, emily_store(), suite, AgentConfig(), cycle_config=cycle_config)

        ticks = {e["step"]: e for e in result.events if e["event"] == "tick"}
        for step in (bad_face, second_face):
            assert ticks[step]["outcome"] == "no_signal"
            assert ticks[step]["backend_error"].startswith("face_encoder:")
        assert ticks[bad_voice]["outcome"] == "same_user"  # the face decision stands
        assert ticks[bad_voice]["backend_error"].startswith("voice_encoder:")
        errored = [step for step, tick in ticks.items() if tick["backend_error"]]
        assert errored == [bad_face, second_face, bad_voice]
        assert result.counters.backend_error_count == 3
        (report,) = result.cycle_reports
        assert [r.start_step for r in report.records] == sessions
        assert [(r.action, r.error_type) for r in report.records] == [
            ("failed", "BackendSchemaError"),
            ("failed", "BackendSchemaError"),
        ]

    def test_short_text_reply_fails_one_query_and_caches_nothing(self):
        """A batched text reply missing one embedding fails its query only."""
        built, stream, rows = build_fixture([emily_dialog(turns=3, groups=GROUPS)])
        sent = []

        class DroppingTransport:
            def __init__(self, inner):
                self.inner = inner

            def send(self, kind, envelope):
                response = self.inner.send(kind, envelope)
                if kind != "text_encoder":
                    return response
                sent.append(envelope["body"]["texts"])
                if len(sent) > 1:
                    return response
                body = response["body"]
                return {**response, "body": {"embeddings": body["embeddings"][:-1]}}

        suite = mock_suite(ROSTER, utterances=rows, wrap_transport=DroppingTransport)
        result = run_agent(stream, emily_store(), suite, AgentConfig(), timestamp="t")

        events = [e for e in result.events if e["event"] == "retrieval"]
        assert [e["status"] for e in events] == ["error", "ok", "ok"]
        assert events[0]["reason"].startswith("backend: ")
        assert "1 embeddings for 2 texts" in events[0]["reason"]
        assert events[1]["documents"] == 1
        assert "tennis" in result.retrieval_window.content
        fact = "John, colleague, 2024-05-01, plays tennis on sunday"
        # nothing was cached from the failed query, so the next one sends the
        # document again; the third finds it cached and sends the keywords only
        assert sent == [["tennis", fact], ["tennis", fact], ["tennis"]]

    @pytest.mark.parametrize("field", ["face_delta", "speaker_theta"])
    def test_cycle_thresholds_must_match_the_agent(self, field):
        built, stream, rows = build_fixture([emily_dialog()])
        suite = mock_suite(ROSTER, utterances=rows)
        cycle_config = CycleConfig(**{field: getattr(AgentConfig(), field) + 0.1})
        with pytest.raises(ValueError, match="thresholds"):
            run_agent(stream, emily_store(), suite, AgentConfig(), cycle_config=cycle_config)
        run_agent(stream, emily_store(), suite, AgentConfig(), cycle_config=CycleConfig())

    def test_timestamp_beside_a_cycle_config_is_rejected(self):
        built, stream, rows = build_fixture([emily_dialog()])
        suite = mock_suite(ROSTER, utterances=rows)
        cycle_config = CycleConfig(timestamp="2024-05-15")
        with pytest.raises(ValueError, match="timestamp"):
            run_agent(stream, emily_store(), suite, AgentConfig(), timestamp="2024-05-16",
                      cycle_config=cycle_config)


class CorruptingTransport:
    """Replaces the embedding of chosen (kind, sample_index) encoder replies."""

    def __init__(self, inner, bad):
        self.inner = inner
        self.bad = bad

    def send(self, kind, envelope):
        response = self.inner.send(kind, envelope)
        embedding = self.bad.get((kind, envelope["body"].get("sample_index")))
        if embedding is None:
            return response
        return {**response, "body": {"detected": True, "embedding": embedding}}


class TestTickCadence:
    def test_ticks_fire_every_interval(self):
        built, stream, rows = build_fixture([emily_dialog()])
        suite = mock_suite(ROSTER, utterances=rows)
        result = run_agent(stream, emily_store(), suite, AgentConfig(), timestamp="t")
        ticks = [e for e in result.events if e["event"] == "tick"]
        assert len(ticks) == len(stream) // 25
        assert [t["step"] for t in ticks] == [25 * (i + 1) - 1 for i in range(len(ticks))]
