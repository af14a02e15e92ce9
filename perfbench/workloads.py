"""Seeded inputs for the day-replay benchmark.

A workload is a list of rounds. A round starts from a set-up store (kept on
disk as a checkpoint) and replays its recorded days in order; each day is the
serialized FDTS bytes of one built stream plus the mock backend suite that
serves it. Everything here is derived from the workload seed, so the same
seed gives byte-identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from duplexmem.backends import BackendSuite, IdentitySeed, stable_seed
from duplexmem.harness import (
    FACT_TEMPLATES,
    FIRST_NAMES,
    INSTRUCTION_TEMPLATES,
    RELATIONS,
    RESPONSE_TEMPLATES,
    SHORT_FACT_TEMPLATES,
    PreseedProfile,
    Scenario,
    ScenarioDay,
    ScenarioIdentity,
    ScenarioSpec,
    build_day_stream,
    cohort_sets,
    distinct_words,
    scenario_store,
    scenario_suite,
    synth_scenario,
)
from duplexmem.pipeline import CycleConfig
from duplexmem.retrieval import QueryGroups
from duplexmem.store import MemoryStore
from duplexmem.stream import DialogScript, TokenStream, TurnScript, serialize_stream

# Full sizes. The smoke test passes smaller ones; the benchmark command never does.
SIZES: dict[str, dict[str, int]] = {
    # synth_scenario keeps 64 spare words for dialog facts and draws up to three
    # dialogs a day, so 21 days is the longest it makes for every seed.
    "lifelong": {"households": 3, "days": 21},
    "crowd": {"regulars": 1000, "rounds": 2, "days": 3},
    # 40 facts a neighbour: at 80 the mock text encoder keeps the own fact of a
    # relation-plus-keyword query in the window below 95% on 7 of 20 seeds.
    "recall": {"neighbors": 25, "facts": 40, "days": 8, "dialogs": 3, "turns": 4},
}
KEYWORD_ONLY_EVERY = 5  # recall: every fifth query carries a keyword only


@dataclass
class Day:
    timestamp: str
    blob: bytes
    built: TokenStream
    scripts: tuple[DialogScript, ...]
    suite: BackendSuite
    cycle_config: CycleConfig

    @property
    def queries(self) -> list[QueryGroups]:
        """Query groups in the order their markers close in the stream."""
        return [t.query_groups for d in self.scripts for t in d.turns if t.query_groups]


@dataclass
class Round:
    name: str
    scenario: Scenario
    store: MemoryStore
    id_map: dict[str, str]
    days: list[Day]
    checkpoint: str = ""
    strangers: frozenset[str] = frozenset()  # identity ids never enrolled in set-up

    def identity_of_marker(self) -> dict[int, str]:
        return {ident.marker: ident.identity_id for ident in self.scenario.identities}

    def names(self) -> dict[str, str]:
        return {ident.identity_id: ident.name for ident in self.scenario.identities}


@dataclass
class Workload:
    name: str
    rounds: list[Round]


SpanFn = Callable[[str, Callable[..., Any]], Callable[..., Any]]


def _untraced(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    return fn


def _days(scenario: Scenario, wrap_transport: Any, span: SpanFn) -> list[Day]:
    query, key = cohort_sets(scenario)
    days = []
    for index, day in enumerate(scenario.days):
        built = span("stream.build", build_day_stream)(scenario, index)
        if built.truncated:
            raise ValueError(f"{scenario.name} day {index} dropped dialogs {built.truncated}")
        blob = span("stream.serialize", serialize_stream)(built.stream)
        days.append(
            Day(
                timestamp=day.timestamp,
                blob=blob,
                built=built.stream,
                scripts=built.scripts,
                suite=scenario_suite(scenario, built.scripts, wrap_transport=wrap_transport),
                cycle_config=CycleConfig(
                    timestamp=day.timestamp, voice_query_cohort=query, voice_key_cohort=key
                ),
            )
        )
    return days


def _round(name: str, scenario: Scenario, wrap_transport: Any, span: SpanFn) -> Round:
    store, id_map = span("harness.enrol", scenario_store)(scenario)
    return Round(name, scenario, store, id_map, _days(scenario, wrap_transport, span))


def _annotation(name: str, timestamp: str, summary: str, fact: str) -> dict[str, Any]:
    return {
        "summary_sentences": [summary],
        "user_facts": [fact],
        "persona_trail": {},
        "user_name": name,
        "relation_facts": [],
        "session_timestamp": timestamp,
    }


def _turn(rng: np.random.Generator, speaker: str, topic: str, relation: str,
          groups: QueryGroups | None) -> TurnScript:
    pick = int(rng.integers(len(INSTRUCTION_TEMPLATES)))
    return TurnScript(
        speaker_user=speaker,
        instruction_text=INSTRUCTION_TEMPLATES[pick].format(topic=topic, relation=relation),
        response_text=RESPONSE_TEMPLATES[pick].format(topic=topic, relation=relation),
        instruction_steps=int(rng.integers(44, 61)),
        response_steps=int(rng.integers(34, 51)),
        query_groups=groups,
    )


# --------------------------------------------------------------------------
# lifelong: seeded households from the harness synthesizer


def lifelong(seed: int, wrap_transport: Any, span: SpanFn = _untraced,
             households: int = 3, days: int = 21) -> Workload:
    rounds = []
    for h in range(households):
        # 3, 4 and 5 neighbours of 3 facts each in turn, so that every seed
        # holds the same mix of household sizes
        neighbors = 3 + h % 3
        spec = ScenarioSpec(seed=seed * 16 + h, n_days=days, neighbor_range=(neighbors, neighbors),
                            facts_per_neighbor=(3, 3))
        scenario = span("harness.synth", synth_scenario)(spec)
        rounds.append(_round(f"household{h}", scenario, wrap_transport, span))
    return Workload("lifelong", rounds)


# --------------------------------------------------------------------------
# crowd: one site, a thousand enrolled regulars and a pool of strangers


def _crowd_scenario(seed: int, regulars: int, rounds: int,
                    days: int) -> tuple[Scenario, list[list[ScenarioDay]]]:
    rng = np.random.default_rng(stable_seed("perfbench", "crowd", seed))
    n_strangers = rounds * days
    identities = []
    for i in range(regulars + n_strangers):
        name = f"Guest{i:04d}" if i < regulars else f"Stranger{i - regulars:03d}"
        ident = name.lower()
        identities.append(ScenarioIdentity(
            ident, name, 2 + i, IdentitySeed(ident, stable_seed(seed, "crowd", ident), 0.05)))
    words = distinct_words(5 * rounds * days)
    rounds_days: list[list[ScenarioDay]] = []
    for r in range(rounds):
        round_days = []
        for d in range(days):
            timestamp = f"2024-06-{1 + d:02d}"
            visit = r * days + d
            new = identities[regulars + visit]
            picks = rng.choice(regulars, size=3, replace=False)
            # Two regulars, the day's new stranger twice, and yesterday's stranger
            # (a third regular on a round's first day).
            speakers = [identities[int(picks[0])], identities[int(picks[1])], new, new,
                        identities[regulars + visit - 1] if d else identities[int(picks[2])]]
            order = rng.permutation(len(speakers))
            scripts = []
            for s, k in enumerate(order):
                who = speakers[int(k)]
                word = words[5 * visit + s]
                regular = who.identity_id.startswith("guest")
                groups = QueryGroups(("neighbor",), (word,)) if regular else None
                scripts.append(DialogScript(
                    dialog_id=f"crowd/r{r}d{d}s{s}",
                    turns=(_turn(rng, who.identity_id, word, "neighbor", groups),),
                    annotation=_annotation(who.name, timestamp, f"{who.name} asked about {word}",
                                           f"{who.name} stopped at the {word} stall"),
                ))
            round_days.append(ScenarioDay(timestamp, tuple(scripts),
                                          stable_seed(seed, "crowd", "day", r, d)))
        rounds_days.append(round_days)
    scenario = Scenario(
        name=f"crowd_{seed}",
        identities=tuple(identities),
        edges=(),
        preseed=tuple(PreseedProfile(i.identity_id) for i in identities[:regulars]),
        days=(),
        cohort_seed=stable_seed(seed, "crowd", "cohort"),
    )
    return scenario, rounds_days


def crowd(seed: int, wrap_transport: Any, span: SpanFn = _untraced,
          regulars: int = 1000, rounds: int = 2, days: int = 3) -> Workload:
    scenario, rounds_days = span("harness.synth", _crowd_scenario)(seed, regulars, rounds, days)
    store, id_map = span("harness.enrol", scenario_store)(scenario)
    strangers = frozenset(i.identity_id for i in scenario.identities[regulars:])
    out = []
    for r, round_days in enumerate(rounds_days):
        day_scenario = Scenario(scenario.name, scenario.identities, (), scenario.preseed,
                                tuple(round_days), cohort_seed=scenario.cohort_seed)
        out.append(Round(f"site{r}", day_scenario, store, id_map,
                         _days(day_scenario, wrap_transport, span), strangers=strangers))
    return Workload("crowd", out)


# --------------------------------------------------------------------------
# recall: one host linked to many neighbours with keyword-unique facts


def _recall_scenario(seed: int, neighbors: int, facts: int, days: int, dialogs: int,
                     turns: int) -> Scenario:
    rng = np.random.default_rng(stable_seed("perfbench", "recall", seed))
    names = [FIRST_NAMES[int(i)] for i in rng.permutation(len(FIRST_NAMES))[: neighbors + 1]]
    relations = [RELATIONS[int(i)] for i in rng.permutation(len(RELATIONS))[:neighbors]]
    identities = tuple(
        ScenarioIdentity(n.lower(), n, 2 + i,
                         IdentitySeed(n.lower(), stable_seed(seed, "recall", n.lower()), 0.05))
        for i, n in enumerate(names)
    )
    host, others = identities[0], identities[1:]
    words = [str(w) for w in rng.permutation(distinct_words(neighbors * facts))]
    keywords = [words[j * facts:(j + 1) * facts] for j in range(neighbors)]
    preseed = [PreseedProfile(host.identity_id)]
    for j, other in enumerate(others):
        preseed.append(PreseedProfile(other.identity_id, facts=tuple(
            (SHORT_FACT_TEMPLATES[f % len(SHORT_FACT_TEMPLATES)].format(word=word),
             f"2024-05-{1 + (j + f) % 12:02d}")
            for f, word in enumerate(keywords[j])
        )))
    scenario_days = []
    query = 0
    for d in range(days):
        timestamp = f"2024-05-{15 + d:02d}"
        scripts = []
        for s in range(dialogs):
            script_turns = []
            for _ in range(turns):
                j = int(rng.integers(neighbors))
                word = keywords[j][int(rng.integers(facts))]
                keyword_only = query % KEYWORD_ONLY_EVERY == KEYWORD_ONLY_EVERY - 1
                groups = QueryGroups(() if keyword_only else (relations[j],), (word,))
                script_turns.append(_turn(rng, host.identity_id, word, relations[j], groups))
                query += 1
            topic = script_turns[0].query_groups.keywords[0]
            fact = FACT_TEMPLATES[(d + s) % len(FACT_TEMPLATES)].format(word=topic)
            scripts.append(DialogScript(
                dialog_id=f"recall/d{d}s{s}",
                turns=tuple(script_turns),
                annotation=_annotation(host.name, timestamp, f"{host.name} asked about {topic}",
                                       f"{host.name} {fact}"),
            ))
        scenario_days.append(ScenarioDay(timestamp, tuple(scripts),
                                         stable_seed(seed, "recall", "day", d)))
    return Scenario(
        name=f"recall_{seed}",
        identities=identities,
        edges=tuple((host.identity_id, relations[j], o.identity_id) for j, o in enumerate(others)),
        preseed=tuple(preseed),
        days=tuple(scenario_days),
        cohort_seed=stable_seed(seed, "recall", "cohort"),
    )


def recall(seed: int, wrap_transport: Any, span: SpanFn = _untraced, neighbors: int = 25,
           facts: int = 40, days: int = 8, dialogs: int = 3, turns: int = 4) -> Workload:
    scenario = span("harness.synth", _recall_scenario)(seed, neighbors, facts, days, dialogs, turns)
    return Workload("recall", [_round("host", scenario, wrap_transport, span)])


BUILDERS = {"lifelong": lifelong, "crowd": crowd, "recall": recall}
