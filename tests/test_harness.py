"""Scenario synthesis, the two-day walkthrough, and the evaluation tables."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexmem import harness
from duplexmem.harness import (
    HarnessError,
    MetricCheck,
    MetricsTable,
    PreseedProfile,
    Scenario,
    ScenarioDay,
    ScenarioIdentity,
    ScenarioSpec,
    build_day_stream,
    demo_scenario,
    dialog_transcript,
    eval_retrieval,
    eval_streams,
    eval_trigger,
    eval_verification,
    from_payload,
    run_walkthrough,
    scenario_from_json,
    scenario_store,
    scenario_suite,
    scenario_to_json,
    simulate_lifelong_run,
    synth_scenario,
)
from duplexmem.backends import IdentitySeed
from duplexmem.retrieval import QueryGroups
from duplexmem.stream import DialogScript, TurnScript


class TestMetricsTable:
    def table(self):
        return MetricsTable(
            "demo",
            (
                MetricCheck("alpha", 1.0, True, detail="fine"),
                MetricCheck("beta", 0.25, False),
            ),
        )

    def test_duplicate_names_rejected(self):
        with pytest.raises(HarnessError):
            MetricsTable("t", (MetricCheck("a", 0, True), MetricCheck("a", 1, True)))

    def test_lookup_and_pass_flag(self):
        table = self.table()
        assert table.all_passed is False
        assert table.check("alpha").value == 1.0
        with pytest.raises(KeyError):
            table.check("gamma")

    def test_render_text_shape(self):
        lines = self.table().render_text().splitlines()
        assert lines[0] == "== demo =="
        assert lines[1].startswith("PASS  alpha")
        assert lines[2].startswith("FAIL  beta")
        assert lines[-1] == "FAILED: 1/2 checks passed"


class TestScenarioData:
    def test_marker_floor(self):
        with pytest.raises(HarnessError):
            ScenarioIdentity("x", "X", 1, IdentitySeed("x", 0))

    def test_unique_ids_and_markers(self):
        a = ScenarioIdentity("a", "A", 2, IdentitySeed("a", 0))
        clash = ScenarioIdentity("b", "B", 2, IdentitySeed("b", 0))
        with pytest.raises(HarnessError):
            Scenario("s", (a, clash), (), (), ())

    @pytest.mark.parametrize(
        "edges, preseed, speaker",
        [((("a", "friend", "zed"),), ("a",), "a"), ((), ("zed",), "a"), ((), ("a",), "zed")],
        ids=["edge", "preseed", "speaker"],
    )
    def test_every_named_identity_exists(self, edges, preseed, speaker):
        a = ScenarioIdentity("a", "A", 2, IdentitySeed("a", 0))
        day = ScenarioDay("2024-06-01", (DialogScript("d", (TurnScript(speaker, "hi", "ok", 4, 4),)),), 1)
        with pytest.raises(HarnessError, match="no identity is named 'zed'"):
            Scenario("s", (a,), edges, tuple(map(PreseedProfile, preseed)), (day,))

    def test_identity_lookup(self):
        scenario = demo_scenario()
        assert scenario.identity("emily").name == "Emily"
        assert scenario.markers() == {"emily": 2, "john": 3}
        with pytest.raises(HarnessError):
            scenario.identity("nobody")


WORDS = st.text("abcdefgh", min_size=1, max_size=5)
SPANS = st.none() | st.tuples(st.integers(0, 8191), st.integers(0, 8191))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def query_groups():
    return st.builds(QueryGroups, st.lists(WORDS, max_size=2).map(tuple),
                     st.lists(WORDS, max_size=2).map(tuple))


def turns(speaker):
    return st.builds(TurnScript, st.just(speaker), st.text(max_size=8), st.text(max_size=8),
                     st.integers(1, 400), st.integers(1, 400), st.none() | query_groups(),
                     st.booleans(), st.booleans(), SPANS, SPANS)


def dialogs(speaker):
    return st.builds(DialogScript, WORDS, st.lists(turns(speaker), min_size=1, max_size=3).map(tuple),
                     st.none() | st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=3), SPANS)


def identity_seeds(identity_id):
    return st.builds(IdentitySeed, st.just(identity_id), st.integers(-2**70, 2**70),
                     st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def scenarios(draw):
    ids = draw(st.lists(WORDS, min_size=1, max_size=3, unique=True))
    identities = tuple(ScenarioIdentity(i, i.upper(), 2 + k, draw(identity_seeds(i)))
                       for k, i in enumerate(ids))
    pick = st.sampled_from(ids)
    pairs = st.tuples(st.text(max_size=6), st.text(max_size=6))
    preseed = tuple(PreseedProfile(i, tuple(draw(st.lists(pairs, max_size=2))),
                                   tuple(draw(st.lists(pairs, max_size=2))),
                                   draw(st.dictionaries(WORDS, st.text(max_size=4), max_size=2)))
                    for i in draw(st.lists(pick, max_size=3)))
    edges = tuple(draw(st.lists(st.tuples(pick, WORDS, pick), max_size=3)))
    days = tuple(ScenarioDay(draw(WORDS), tuple(draw(st.lists(pick.flatmap(dialogs), max_size=2))),
                             draw(st.integers(0, 2**40)))
                 for _ in range(draw(st.integers(0, 2))))
    return Scenario(draw(WORDS), identities, edges, preseed, days, draw(st.integers(0, 300)),
                    draw(st.integers(0, 2**40)))


class TestScenarioRoundTrip:
    def test_json_round_trip_is_lossless(self):
        scenario = synth_scenario(ScenarioSpec(seed=5))
        text = scenario_to_json(scenario)
        clone = scenario_from_json(text)
        assert asdict(clone) == asdict(scenario)
        assert scenario_to_json(clone) == text

    def test_demo_round_trip(self):
        scenario = demo_scenario()
        clone = scenario_from_json(scenario_to_json(scenario))
        assert asdict(clone) == asdict(scenario)

    def test_round_trip_of_values_synthesis_never_writes(self):
        turn = TurnScript("ana", "hi", "ok", 4, 5, QueryGroups(), True, True, (800, 804), (806, 811))
        dialog = DialogScript("d", (turn,), annotation=None, session_span=(800, 811))
        assert from_payload(DialogScript, json.loads(json.dumps(asdict(dialog)))) == dialog
        seed = from_payload(IdentitySeed, json.loads('{"identity_id": "a", "vector_seed": 5, '
                                                     '"noise_scale": 0}'))
        assert seed == IdentitySeed("a", 5, 0.0) and type(seed.noise_scale) is float

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_json_round_trip_of_any_record(self, data):
        for cls, record in ((Scenario, data.draw(scenarios())),
                            (DialogScript, data.draw(dialogs("ana"))),
                            (TurnScript, data.draw(turns("ana"))),
                            (QueryGroups, data.draw(query_groups())),
                            (IdentitySeed, data.draw(identity_seeds("ana")))):
            assert from_payload(cls, json.loads(json.dumps(asdict(record)))) == record

    def test_missing_keys_take_defaults_and_unknown_keys_are_ignored(self):
        record = {"speaker_user": "ana", "instruction_text": "hi", "response_text": "ok",
                  "instruction_steps": 4, "response_steps": 5, "mood": "sunny"}
        assert from_payload(TurnScript, record) == TurnScript("ana", "hi", "ok", 4, 5)
        del record["response_steps"]
        with pytest.raises(KeyError, match="response_steps"):
            from_payload(TurnScript, record)

    @pytest.mark.parametrize(
        "cls, payload, message",
        [
            (IdentitySeed, {"identity_id": "a", "vector_seed": 5.0}, "vector_seed: expected an int"),
            (IdentitySeed, {"identity_id": "a", "vector_seed": True}, "vector_seed: expected an int"),
            (IdentitySeed, {"identity_id": None, "vector_seed": 5}, "identity_id: expected a value"),
            (IdentitySeed, ["a", 5], "expected an object, got \\['a', 5\\]"),
            (DialogScript, {"dialog_id": "d", "turns": "abc"}, "turns: expected an array"),
            (DialogScript, {"dialog_id": "d", "turns": [None]}, "turns: expected an object, got None"),
            (DialogScript, {"dialog_id": "d", "turns": [], "session_span": [1]},
             "session_span: expected an array of 2, got \\[1\\]"),
        ],
        ids=["float-int", "bool-int", "null", "array-record", "string-tuple", "null-record",
             "short-span"],
    )
    def test_mistyped_values_raise_type_error(self, cls, payload, message):
        with pytest.raises(TypeError, match=message):
            from_payload(cls, payload)

    def test_synthesis_is_deterministic(self):
        first = synth_scenario(ScenarioSpec(seed=9))
        second = synth_scenario(ScenarioSpec(seed=9))
        assert asdict(first) == asdict(second)

    def test_seeds_change_the_output(self):
        assert (
            asdict(synth_scenario(ScenarioSpec(seed=1)))
            != asdict(synth_scenario(ScenarioSpec(seed=2)))
        )

    def test_synthesized_shape_follows_the_dials(self):
        spec = ScenarioSpec(seed=4, neighbor_range=(3, 3), n_days=3)
        scenario = synth_scenario(spec)
        assert len(scenario.identities) == 4  # host plus neighbors
        assert len(scenario.edges) == 3
        assert len(scenario.days) == 3
        assert scenario.days[0].timestamp == "2024-05-15"
        assert scenario.days[2].timestamp == "2024-05-17"

    @pytest.mark.parametrize("seed", range(5))
    def test_thirty_day_scenarios_draw_distinct_facts(self, seed):
        scenario = synth_scenario(ScenarioSpec(seed=seed, n_days=30))
        assert len(scenario.days) == 30
        facts = [
            fact
            for day in scenario.days
            for script in day.scripts
            for fact in script.annotation["user_facts"]
        ]
        assert len(set(facts)) == len(facts)


class TestScenarioWiring:
    def test_store_preseeds_profiles_and_edges(self):
        scenario = demo_scenario()
        store, id_map = scenario_store(scenario)
        assert set(id_map) == {"emily", "john"}
        john = store.lookup_user(id_map["john"])
        assert "tennis" in john.dialog_summaries[0].text
        assert store.connected_users(id_map["emily"]) == [
            (id_map["john"], "colleague")
        ]

    def test_day_stream_places_every_dialog(self):
        scenario = demo_scenario()
        built = build_day_stream(scenario, 0)
        assert all(d.placed for d in built.scripts)
        assert all(t.placed for d in built.scripts for t in d.turns)

    def test_transcript_requires_placement(self):
        dialog = DialogScript("d", (TurnScript("a", "hi", "yo", 20, 15),))
        with pytest.raises(HarnessError):
            dialog_transcript(dialog)

    def test_transcript_matches_the_recognizer(self):
        scenario = demo_scenario()
        built = build_day_stream(scenario, 0)
        suite = scenario_suite(scenario, built.scripts)
        dialog = built.scripts[0]
        start, end = dialog.session_span
        body = suite.asr.call(
            {
                "marker": scenario.markers()[dialog.speaker_user],
                "start_step": start,
                "end_step": end - 1,
            }
        )
        assert body["transcript"] == dialog_transcript(dialog)


class TestWalkthrough:
    def test_every_check_passes(self):
        result = run_walkthrough()
        table = result.table
        assert table.all_passed, table.render_text()
        for name in (
            "day1_retrieval_mentions_tennis",
            "day1_cycle_wrote_fact",
            "day2_profile_carries_fact",
            "refreshes_equal_switches_plus_losses",
            "deterministic_event_log",
        ):
            assert table.check(name).passed

    def test_memory_actually_crossed_the_day_boundary(self):
        result = run_walkthrough()
        sim = result.simulation
        emily = sim.store.lookup_user(sim.id_map["emily"])
        assert "Emily shows interest in tennis" in [i.text for i in emily.facts]
        assert "Emily shows interest in tennis" in sim.days[1].run.profile_window.content
        assert "tennis" in sim.days[0].run.retrieval_window.content


def tiny_scenario(identities, days, edges=(), preseed=None):
    return Scenario(
        "tiny",
        identities,
        edges,
        tuple(preseed if preseed is not None else
              (PreseedProfile(identity_id=i.identity_id) for i in identities)),
        days,
    )


class TestSimulation:
    def solo_scenario(self):
        ana = ScenarioIdentity("ana", "Ana", 2, IdentitySeed("ana", 3, 0.0))
        day = ScenarioDay(
            timestamp="2024-06-01",
            build_seed=7,
            scripts=(
                DialogScript(
                    "solo/d0",
                    (
                        TurnScript(
                            "ana",
                            "anything new about chess",
                            "nothing stored yet",
                            46,
                            36,
                            query_groups=QueryGroups(("mentor",), ("chess",)),
                        ),
                    ),
                ),
            ),
        )
        return tiny_scenario((ana,), (day,))

    def test_no_neighbors_means_no_retrieval_refreshes(self):
        sim = simulate_lifelong_run(self.solo_scenario())
        counters = sim.days[0].run.counters
        assert counters.queries_handled == 1
        assert counters.retrieval_refreshes == 0
        assert sim.days[0].run.retrieval_window.content == ""

    def test_day_headers_frame_the_event_log(self):
        sim = simulate_lifelong_run(self.solo_scenario())
        first = json.loads(sim.events_jsonl().splitlines()[0])
        assert first == {"event": "day_start", "index": 0, "timestamp": "2024-06-01"}

    def three_user_scenario(self):
        idents = tuple(
            ScenarioIdentity(n.lower(), n, 2 + i, IdentitySeed(n.lower(), 40 + i, 0.0))
            for i, n in enumerate(("Ana", "Bo", "Cy"))
        )
        days = tuple(
            ScenarioDay(
                timestamp=f"2024-06-{10 + d:02d}",
                build_seed=100 + d,
                scripts=tuple(
                    DialogScript(
                        f"d{d}/u{i}",
                        (
                            TurnScript(
                                ident.identity_id,
                                f"day {d} checking in again",
                                "welcome back",
                                40,
                                30,
                            ),
                        ),
                    )
                    for i, ident in enumerate(idents)
                ),
            )
            for d in range(2)
        )
        return tiny_scenario(idents, days)

    def test_noise_free_reidentification_across_days(self):
        scenario = self.three_user_scenario()
        sim = simulate_lifelong_run(scenario)
        known = set(sim.id_map.values())
        records = [
            record
            for day in sim.days
            for report in day.run.cycle_reports
            for record in report.records
        ]
        assert len(records) == 6
        assert all(r.action in ("updated", "unchanged") for r in records)
        assert {r.user_id for r in records} == known
        assert len(sim.store.user_ids) == 3  # nobody was re-enrolled

    def test_suite_factory_override_is_equivalent(self):
        scenario = self.solo_scenario()
        baseline = simulate_lifelong_run(scenario)
        overridden = simulate_lifelong_run(
            scenario,
            suite_factory=lambda scripts: scenario_suite(scenario, scripts),
        )
        assert overridden.events_jsonl() == baseline.events_jsonl()


class TestEvalTables:
    def test_verification_table(self):
        table = eval_verification(n_seeds=5)
        assert table.all_passed, table.render_text()
        assert abs(table.check("hand_example_eer").value - 1.0 / 3.0) <= 1e-9
        assert table.check("separable_eer_zero").value == 0.0
        assert table.check("asnorm_never_worse").value >= 0.0

    def test_trigger_table(self):
        table = eval_trigger(n_streams=30)
        assert table.all_passed, table.render_text()
        assert table.check("oracle_f1_at_0").value == 1.0
        assert table.check("jitter_f1_at_0_below_one").value < 1.0
        assert table.check("jitter_f1_at_5").value == 1.0

    def test_retrieval_table(self):
        table = eval_retrieval(n_queries=60)
        assert table.all_passed, table.render_text()
        assert table.check("pass_at_5").value >= 0.95
        assert table.check("budget_compliance").value == 1.0

    def test_streams_table(self):
        table = eval_streams(n_scenarios=25)
        assert table.all_passed, table.render_text()

    def test_verification_asnorm_equals_the_matrix_reference(self, monkeypatch):
        """eval_verification normalizes each bank exactly as the vectorized
        matrix form it replaced, over banks 0-39."""
        normalized = []
        real = harness._asnorm

        def recording(*args):
            normalized.append(real(*args))
            return normalized[-1]

        monkeypatch.setattr(harness, "_asnorm", recording)
        eval_verification(n_seeds=40, seed=0)
        assert len(normalized) == 40
        for bank_seed, got in enumerate(normalized):
            raw, q_cohort, k_cohort = harness._constructed_verification_scores(bank_seed)
            assert np.array_equal(got, ref_asnorm_matrix(raw, q_cohort, k_cohort, 200))

    def test_tables_are_deterministic(self):
        assert eval_trigger(n_streams=5).to_payload() == eval_trigger(n_streams=5).to_payload()


def ref_asnorm_matrix(
    raw: np.ndarray, q_cohort: np.ndarray, k_cohort: np.ndarray, top_n: int
) -> np.ndarray:
    """Vectorized adaptive s-norm over a full trial matrix."""
    q_top = np.sort(q_cohort, axis=1)[:, ::-1][:, :top_n]
    k_top = np.sort(k_cohort, axis=1)[:, ::-1][:, :top_n]
    mu_q, sd_q = q_top.mean(axis=1), q_top.std(axis=1)
    mu_k, sd_k = k_top.mean(axis=1), k_top.std(axis=1)
    return 0.5 * (
        (raw - mu_q[:, None]) / sd_q[:, None] + (raw - mu_k[None, :]) / sd_k[None, :]
    )
