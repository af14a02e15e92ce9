"""Scenario synthesis, lifelong simulation, and the evaluation suite.

A Scenario is everything one reproducible multi-day run needs: identities
with derivable face/voice vectors, a social graph, pre-seeded profiles, and
per-day dialog scripts with extraction ground truth. Scenarios are plain data
and round-trip through JSON, so a synthesized scenario can be saved, shipped,
and replayed bit-identically.

The evaluations return MetricsTables: named checks with values and pass
flags. They never report wall-clock readings, so their rendered output is
byte-stable for a fixed seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .backends import (
    BackendSuite,
    IdentitySeed,
    MockTextEncoderService,
    UtteranceRow,
    mock_suite,
    stable_seed,
)
from .retrieval import (
    DocumentIndex,
    QueryGroups,
    retrieve_topk,
    tokenize,
)
from .runtime import AgentConfig, AgentRunResult, run_agent
from .sessions import (
    ActivityTagger,
    SessionSpan,
    TagSequence,
    extract_sessions,
    jaccard_score,
    span_match_at_n,
    spans_to_labels,
)
from .store import MemoryStore, RelationTriplet, seed_profile
from .stream import (
    DIALOG_START,
    MONOLOGUE_LEAD_STEPS,
    DialogScript,
    StreamBuildConfig,
    StreamBuildResult,
    TurnScript,
    _draw,
    build_stream,
    dialog_from_record,
    dialog_to_record,
    make_supervision_masks,
)
from .verification import (
    CohortSet,
    Embedding,
    _asnorm,
    _top_cohort_stats,
    compute_eer,
    pass_at_k,
)


class HarnessError(Exception):
    pass


# --------------------------------------------------------------------------
# word banks

FIRST_NAMES = (
    "Emily", "John", "Nora", "Victor", "Priya", "Marcus", "Lena", "Hassan",
    "Ingrid", "Tomas", "Aiko", "Dmitri", "Carla", "Felix", "Yara", "Oscar",
    "Binh", "Greta", "Silas", "Maren", "Kofi", "Paula", "Rufus", "Salma",
    "Theo", "Umair", "Vera", "Wanda", "Xenia", "Yusuf", "Zelda", "Anton",
    "Beth", "Cyrus", "Dalia", "Edgar", "Fiona", "Gideon", "Hilda", "Ivan",
)

RELATIONS = (
    "colleague", "neighbor", "sister", "brother", "cousin", "mentor",
    "student", "landlord", "tenant", "doctor", "coach", "teammate",
    "classmate", "roommate", "barber", "accountant", "gardener", "plumber",
    "librarian", "instructor", "supervisor", "apprentice", "copilot",
    "bandmate", "penpal", "chessmate",
)

ACTIVITY_WORDS = (
    "tennis", "kayaking", "pottery", "chess", "baking", "birdwatching",
    "cycling", "origami", "archery", "juggling", "gardening", "calligraphy",
    "bouldering", "astronomy", "fencing", "quilting", "surfing", "whittling",
    "beekeeping", "marathon", "snorkeling", "painting", "drumming", "sailing",
    "skating", "foraging", "welding", "yodeling", "curling", "falconry",
    "mosaics", "parkour", "crochet", "geocaching", "bonsai", "karaoke",
    "slacklining", "taxidermy", "puppetry", "lockpicking", "topiary",
    "spelunking", "larping", "zumba", "airsoft", "biathlon", "cribbage",
    "dominoes", "esperanto", "freediving",
)

FACT_TEMPLATES = (
    "started a {word} class on tuesdays",
    "won a local {word} match last weekend",
    "keeps talking about the {word} club",
    "bought new gear for {word} recently",
    "is planning a {word} trip next month",
    "teaches {word} at the community center",
)

# Rendered documents prepend "name, relation, timestamp, " (up to 32 bytes
# for this fixture's banks), so facts of at most 18 bytes keep every document
# within 50 bytes and five of them inside the 256-byte render budget.
SHORT_FACT_TEMPLATES = (
    "{word} fan",
    "into {word}",
    "{word} club",
    "{word} talk",
)

INSTRUCTION_TEMPLATES = (
    "tell me what you know about {topic}",
    "any news from my {relation} about {topic}",
    "remind me what came up regarding {topic}",
    "i was wondering about {topic} again",
)

RESPONSE_TEMPLATES = (
    "here is what i remember about {topic}",
    "your {relation} mentioned {topic} not long ago",
    "the last note i have on {topic} is recent",
    "let me pull up what was said about {topic}",
)


def _word_sequence() -> Iterator[str]:
    """Deterministic distinct single-token words without end, extending the
    bank with numeric suffixes once it runs out."""
    for i in itertools.count():
        base = ACTIVITY_WORDS[i % len(ACTIVITY_WORDS)]
        round_ = i // len(ACTIVITY_WORDS)
        yield base if round_ == 0 else f"{base}{round_}"


def distinct_words(count: int) -> list[str]:
    """The first count words of the deterministic word sequence."""
    return list(itertools.islice(_word_sequence(), count))


# --------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class MetricCheck:
    name: str
    value: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class MetricsTable:
    title: str
    checks: tuple[MetricCheck, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.checks]
        if len(names) != len(set(names)):
            raise HarnessError(f"duplicate check names in {self.title!r}")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> MetricCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in {self.title!r}")

    def render_text(self) -> str:
        width = max((len(c.name) for c in self.checks), default=4)
        lines = [f"== {self.title} =="]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            detail = f"  {c.detail}" if c.detail else ""
            lines.append(f"{status}  {c.name:<{width}}  {c.value:.6f}{detail}")
        lines.append(f"{'ok' if self.all_passed else 'FAILED'}: "
                     f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines)

    def to_payload(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "value": c.value, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


# --------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class ScenarioIdentity:
    identity_id: str
    name: str
    marker: int
    seed: IdentitySeed

    def __post_init__(self) -> None:
        if self.marker < 2:
            raise HarnessError("speaker markers start at 2")


@dataclass(frozen=True)
class PreseedProfile:
    identity_id: str
    facts: tuple[tuple[str, str], ...] = ()  # (text, timestamp)
    summaries: tuple[tuple[str, str], ...] = ()
    persona: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "facts", tuple(map(tuple, self.facts)))
        object.__setattr__(self, "summaries", tuple(map(tuple, self.summaries)))
        object.__setattr__(self, "persona", dict(self.persona))


@dataclass(frozen=True)
class ScenarioDay:
    timestamp: str
    scripts: tuple[DialogScript, ...]
    build_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "scripts", tuple(self.scripts))


@dataclass(frozen=True)
class Scenario:
    name: str
    identities: tuple[ScenarioIdentity, ...]
    edges: tuple[tuple[str, str, str], ...]  # (identity, relation, identity)
    preseed: tuple[PreseedProfile, ...]
    days: tuple[ScenarioDay, ...]
    cohort_size: int = 250
    cohort_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "identities", tuple(self.identities))
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        object.__setattr__(self, "preseed", tuple(self.preseed))
        object.__setattr__(self, "days", tuple(self.days))
        ids = [i.identity_id for i in self.identities]
        markers = [i.marker for i in self.identities]
        if len(set(ids)) != len(ids) or len(set(markers)) != len(markers):
            raise HarnessError("identity ids and markers must be unique")

    def identity(self, identity_id: str) -> ScenarioIdentity:
        for ident in self.identities:
            if ident.identity_id == identity_id:
                return ident
        raise HarnessError(f"unknown identity {identity_id!r}")

    def markers(self) -> dict[str, int]:
        return {ident.identity_id: ident.marker for ident in self.identities}

    def to_payload(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "identities": [
                {
                    "identity_id": i.identity_id,
                    "name": i.name,
                    "marker": i.marker,
                    "seed": i.seed.to_payload(),
                }
                for i in self.identities
            ],
            "edges": [list(edge) for edge in self.edges],
            "preseed": [
                {
                    "identity_id": p.identity_id,
                    "facts": [list(f) for f in p.facts],
                    "summaries": [list(s) for s in p.summaries],
                    "persona": dict(p.persona),
                }
                for p in self.preseed
            ],
            "days": [
                {
                    "timestamp": d.timestamp,
                    "build_seed": d.build_seed,
                    "scripts": [dialog_to_record(s) for s in d.scripts],
                }
                for d in self.days
            ],
            "cohort_size": self.cohort_size,
            "cohort_seed": self.cohort_seed,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Scenario":
        return cls(
            name=payload["name"],
            identities=tuple(
                ScenarioIdentity(
                    identity_id=i["identity_id"],
                    name=i["name"],
                    marker=i["marker"],
                    seed=IdentitySeed.from_payload(i["seed"]),
                )
                for i in payload["identities"]
            ),
            edges=tuple(tuple(edge) for edge in payload["edges"]),
            preseed=tuple(
                PreseedProfile(
                    identity_id=p["identity_id"],
                    facts=tuple(tuple(f) for f in p["facts"]),
                    summaries=tuple(tuple(s) for s in p["summaries"]),
                    persona=dict(p["persona"]),
                )
                for p in payload["preseed"]
            ),
            days=tuple(
                ScenarioDay(
                    timestamp=d["timestamp"],
                    scripts=tuple(dialog_from_record(s) for s in d["scripts"]),
                    build_seed=d["build_seed"],
                )
                for d in payload["days"]
            ),
            cohort_size=payload.get("cohort_size", 250),
            cohort_seed=payload.get("cohort_seed", 0),
        )


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(scenario.to_payload(), sort_keys=True, indent=1) + "\n"


def scenario_from_json(text: str) -> Scenario:
    return Scenario.from_payload(json.loads(text))


# --------------------------------------------------------------------------
# synthesis


@dataclass(frozen=True)
class ScenarioSpec:
    """Dials for synthesizing one scenario."""

    seed: int
    neighbor_range: tuple[int, int] = (3, 5)
    n_days: int = 2
    dialogs_per_day: tuple[int, int] = (2, 3)
    turns_per_dialog: tuple[int, int] = (3, 5)
    facts_per_neighbor: tuple[int, int] = (2, 4)


def synth_scenario(spec: ScenarioSpec) -> Scenario:
    """Deterministically generate a host, neighbors, memories, and dialogs.

    Days run from 2024-05-15 and every turn asks one retrieval query.
    """
    scenario_name = f"scenario_{spec.seed:04d}"
    rng = np.random.default_rng(stable_seed("scenario", spec.seed))
    n_neighbors = _draw(rng, spec.neighbor_range)
    if n_neighbors + 1 > len(FIRST_NAMES):
        raise HarnessError("neighbor count exceeds the name bank")
    name_picks = rng.permutation(len(FIRST_NAMES))[: n_neighbors + 1]
    names = [FIRST_NAMES[int(i)] for i in name_picks]
    relation_picks = rng.permutation(len(RELATIONS))[:n_neighbors]
    relations = [RELATIONS[int(i)] for i in relation_picks]

    identities = tuple(
        ScenarioIdentity(
            identity_id=name.lower(),
            name=name,
            marker=2 + index,
            seed=IdentitySeed(
                identity_id=name.lower(),
                vector_seed=stable_seed(spec.seed, "identity", name.lower()),
                noise_scale=0.05,
            ),
        )
        for index, name in enumerate(names)
    )
    host = identities[0]
    neighbors = identities[1:]

    edges = tuple(
        (host.identity_id, relations[i], neighbors[i].identity_id)
        for i in range(n_neighbors)
    )

    words = _word_sequence()
    preseed = [PreseedProfile(identity_id=host.identity_id)]
    for i, neighbor in enumerate(neighbors):
        n_facts = _draw(rng, spec.facts_per_neighbor)
        facts = []
        for f in range(n_facts):
            template = FACT_TEMPLATES[int(rng.integers(len(FACT_TEMPLATES)))]
            facts.append(
                (
                    f"{neighbor.name} {template.format(word=next(words))}",
                    f"2024-05-{1 + (i + f) % 12:02d}",
                )
            )
        preseed.append(PreseedProfile(identity_id=neighbor.identity_id, facts=tuple(facts)))

    days = []
    for d in range(spec.n_days):
        timestamp = f"2024-05-{15 + d:02d}"
        scripts = []
        for s in range(_draw(rng, spec.dialogs_per_day)):
            speaker = host if rng.random() < 0.7 else neighbors[int(rng.integers(n_neighbors))]
            turns = []
            for _ in range(_draw(rng, spec.turns_per_dialog)):
                pick = int(rng.integers(n_neighbors))
                relation = relations[pick]
                topic = ACTIVITY_WORDS[int(rng.integers(len(ACTIVITY_WORDS)))]
                instruction = INSTRUCTION_TEMPLATES[
                    int(rng.integers(len(INSTRUCTION_TEMPLATES)))
                ].format(topic=topic, relation=relation)
                response = RESPONSE_TEMPLATES[
                    int(rng.integers(len(RESPONSE_TEMPLATES)))
                ].format(topic=topic, relation=relation)
                turns.append(
                    TurnScript(
                        speaker_user=speaker.identity_id,
                        instruction_text=instruction,
                        response_text=response,
                        instruction_steps=_draw(rng, (44, 60)),
                        response_steps=_draw(rng, (34, 50)),
                        query_groups=QueryGroups((relation,), (topic,)),
                    )
                )
            annotation = {
                "summary_sentences": [
                    f"{speaker.name} asked about {turns[0].query_groups.keywords[0]}"
                ],
                "user_facts": [f"{speaker.name} {FACT_TEMPLATES[d % len(FACT_TEMPLATES)].format(word=next(words))}"],
                "persona_trail": {},
                "user_name": speaker.name,
                "relation_facts": [],
                "session_timestamp": timestamp,
            }
            scripts.append(
                DialogScript(
                    dialog_id=f"{scenario_name}/d{d}s{s}",
                    turns=tuple(turns),
                    annotation=annotation,
                )
            )
        days.append(
            ScenarioDay(
                timestamp=timestamp,
                scripts=tuple(scripts),
                build_seed=stable_seed(spec.seed, "day", d),
            )
        )

    return Scenario(
        name=scenario_name,
        identities=identities,
        edges=edges,
        preseed=tuple(preseed),
        days=tuple(days),
        cohort_seed=stable_seed(spec.seed, "cohort"),
    )


def demo_scenario() -> Scenario:
    """The scripted two-day walkthrough used by the end-to-end checks.

    Day one: Emily, already enrolled and a colleague of John, asks what John
    said about tennis; the query marker should surface John's stored summary
    into the retrieval window, and the overnight cycle should append a new
    fact to Emily's profile. Day two: Emily returns and her refreshed profile
    window must carry that fact.
    """
    noise = 0.05
    emily = ScenarioIdentity(
        "emily", "Emily", 2, IdentitySeed("emily", stable_seed("demo", "emily"), noise)
    )
    john = ScenarioIdentity(
        "john", "John", 3, IdentitySeed("john", stable_seed("demo", "john"), noise)
    )

    day1 = ScenarioDay(
        timestamp="2024-05-15",
        build_seed=stable_seed("demo", "day", 0),
        scripts=(
            DialogScript(
                dialog_id="demo/d0s0",
                turns=(
                    TurnScript(
                        speaker_user="emily",
                        instruction_text="good afternoon, quick question about my colleague",
                        response_text="of course, happy to help with that",
                        instruction_steps=56,
                        response_steps=40,
                    ),
                    TurnScript(
                        speaker_user="emily",
                        instruction_text="has john talked about any games recently",
                        response_text="john discussed a tennis game he played two days ago",
                        instruction_steps=56,
                        response_steps=56,
                        query_groups=QueryGroups(("colleague",), ("tennis",)),
                    ),
                ),
                annotation={
                    "summary_sentences": ["Emily asked what John said about tennis"],
                    "user_facts": ["Emily shows interest in tennis"],
                    "persona_trail": {"favorite_sport": "tennis"},
                    "user_name": "Emily",
                    "relation_facts": [["colleague", "John"]],
                    "session_timestamp": "2024-05-15",
                },
            ),
        ),
    )
    day2 = ScenarioDay(
        timestamp="2024-05-16",
        build_seed=stable_seed("demo", "day", 1),
        scripts=(
            DialogScript(
                dialog_id="demo/d1s0",
                turns=(
                    TurnScript(
                        speaker_user="emily",
                        instruction_text="good morning again",
                        response_text="welcome back, good morning",
                        instruction_steps=44,
                        response_steps=34,
                    ),
                ),
                annotation={
                    "summary_sentences": ["Emily stopped by to say good morning"],
                    "user_facts": [],
                    "persona_trail": {},
                    "user_name": "Emily",
                    "relation_facts": [],
                    "session_timestamp": "2024-05-16",
                },
            ),
        ),
    )

    return Scenario(
        name="demo",
        identities=(emily, john),
        edges=(("emily", "colleague", "john"),),
        preseed=(
            PreseedProfile(identity_id="emily"),
            PreseedProfile(
                identity_id="john",
                summaries=(
                    ("user discussed a tennis game he played 2 days ago", "2024-05-13"),
                ),
            ),
        ),
        days=(day1, day2),
        cohort_seed=stable_seed("demo", "cohort"),
    )


# --------------------------------------------------------------------------
# scenario wiring


def scenario_store(scenario: Scenario) -> tuple[MemoryStore, dict[str, str]]:
    """Materialize the pre-seeded profiles and edges; maps identity to user id."""
    store = MemoryStore()
    id_map: dict[str, str] = {}
    for pre in scenario.preseed:
        ident = scenario.identity(pre.identity_id)
        id_map[pre.identity_id] = seed_profile(
            store,
            ident.seed.key_embedding("face"),
            ident.seed.key_embedding("voice"),
            ident.name,
            facts=pre.facts,
            summaries=pre.summaries,
            persona=pre.persona,
        )
    for from_id, relation, to_id in scenario.edges:
        if from_id in id_map and to_id in id_map:
            store.add_relation_edge(RelationTriplet(id_map[from_id], relation, id_map[to_id]))
    return store, id_map


def build_day_stream(scenario: Scenario, day_index: int) -> StreamBuildResult:
    day = scenario.days[day_index]
    config = StreamBuildConfig(speaker_markers=scenario.markers())
    return build_stream(day.scripts, config, rng_seed=day.build_seed)


def dialog_transcript(dialog: DialogScript) -> str:
    """The transcript the span-overlap recognizer will produce for a placed
    dialog: turn texts in stream order, speaker-prefixed."""
    if not dialog.placed:
        raise HarnessError(f"dialog {dialog.dialog_id!r} is not placed")
    rows = []
    for turn in dialog.turns:
        rows.append((turn.instruction_span[0], f"user: {turn.instruction_text}"))
        rows.append((turn.response_span[0], f"assistant: {turn.response_text}"))
    rows.sort()
    return "\n".join(text for _, text in rows)


def scenario_suite(
    scenario: Scenario,
    placed_scripts: Sequence[DialogScript],
    wrap_transport=None,
) -> BackendSuite:
    """Mock backends for one day: rosters, utterance table, annotations."""
    markers = scenario.markers()
    roster = {ident.marker: ident.seed for ident in scenario.identities}
    utterances = []
    annotations: dict[str, Mapping[str, Any]] = {}
    for dialog in placed_scripts:
        marker = markers[dialog.speaker_user]
        for turn in dialog.turns:
            i0, i1 = turn.instruction_span
            r0, r1 = turn.response_span
            utterances.append(UtteranceRow(marker, i0, i1 - 1, "user", turn.instruction_text))
            utterances.append(UtteranceRow(marker, r0, r1 - 1, "assistant", turn.response_text))
        if dialog.annotation is not None:
            annotations[dialog_transcript(dialog)] = dialog.annotation
    return mock_suite(
        face_roster=roster,
        voice_roster=roster,
        utterances=utterances,
        annotations=annotations,
        wrap_transport=wrap_transport,
    )


def cohort_sets(scenario: Scenario, modality: str = "voice") -> tuple[CohortSet, CohortSet]:
    """Query-side and key-side imposter cohorts from the scenario's bank."""
    seeds = [
        IdentitySeed(
            identity_id=f"cohort_{i:04d}",
            vector_seed=stable_seed(scenario.cohort_seed, "cohort", i),
            noise_scale=0.05,
        )
        for i in range(scenario.cohort_size)
    ]
    query = CohortSet(tuple(Embedding(s.observe(modality, 0), modality) for s in seeds))
    key = CohortSet(tuple(s.key_embedding(modality) for s in seeds))
    return query, key


# --------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SimulationDayResult:
    timestamp: str
    built: StreamBuildResult
    run: AgentRunResult

    def events_jsonl(self) -> str:
        return self.run.to_jsonl()


@dataclass(frozen=True)
class SimulationResult:
    scenario_name: str
    store: MemoryStore
    id_map: Mapping[str, str]
    days: tuple[SimulationDayResult, ...]

    def events_jsonl(self) -> str:
        chunks = []
        for index, day in enumerate(self.days):
            header = {"event": "day_start", "index": index, "timestamp": day.timestamp}
            chunks.append(json.dumps(header, sort_keys=True) + "\n")
            chunks.append(day.events_jsonl())
        return "".join(chunks)


def simulate_lifelong_run(
    scenario: Scenario,
    config: AgentConfig = AgentConfig(),
    suite_factory=None,
) -> SimulationResult:
    """Run the agent over every scenario day against one persistent store.

    suite_factory(placed_scripts) overrides the per-day mock suite, e.g. to
    point every backend at remote services.
    """
    store, id_map = scenario_store(scenario)
    day_results = []
    for index, day in enumerate(scenario.days):
        built = build_day_stream(scenario, index)
        if suite_factory is None:
            suite = scenario_suite(scenario, built.scripts)
        else:
            suite = suite_factory(built.scripts)
        run = run_agent(built.stream, store, suite, config, timestamp=day.timestamp)
        day_results.append(SimulationDayResult(day.timestamp, built, run))
    return SimulationResult(scenario.name, store, id_map, tuple(day_results))


# --------------------------------------------------------------------------
# walkthrough


@dataclass(frozen=True)
class WalkthroughResult:
    simulation: SimulationResult
    table: MetricsTable


def run_walkthrough(config: AgentConfig = AgentConfig()) -> WalkthroughResult:
    """The scripted two-day story, with its acceptance checks attached."""
    scenario = demo_scenario()
    sim = simulate_lifelong_run(scenario, config)
    rerun = simulate_lifelong_run(scenario, config)

    day1, day2 = sim.days
    emily_id = sim.id_map["emily"]
    retrieval_text = day1.run.retrieval_window.content
    profile_text = day2.run.profile_window.content

    counters = [d.run.counters for d in sim.days]
    refreshes = sum(c.refresh_signals for c in counters)
    switches = sum(c.switch_count for c in counters)
    losses = sum(c.loss_clear_count for c in counters)

    emily = sim.store.lookup_user(emily_id)
    fact_texts = [item.text for item in emily.facts]

    checks = (
        MetricCheck(
            "day1_retrieval_mentions_tennis",
            1.0 if "tennis" in retrieval_text else 0.0,
            "tennis" in retrieval_text,
            detail="retrieval window quotes the colleague's stored summary",
        ),
        MetricCheck(
            "day1_cycle_wrote_fact",
            1.0 if "Emily shows interest in tennis" in fact_texts else 0.0,
            "Emily shows interest in tennis" in fact_texts,
        ),
        MetricCheck(
            "day2_profile_carries_fact",
            1.0 if "Emily shows interest in tennis" in profile_text else 0.0,
            "Emily shows interest in tennis" in profile_text,
        ),
        MetricCheck(
            "refreshes_equal_switches_plus_losses",
            float(refreshes - switches - losses),
            refreshes == switches + losses,
        ),
        MetricCheck(
            "deterministic_event_log",
            1.0 if sim.events_jsonl() == rerun.events_jsonl() else 0.0,
            sim.events_jsonl() == rerun.events_jsonl(),
        ),
    )
    return WalkthroughResult(sim, MetricsTable("walkthrough", checks))


# --------------------------------------------------------------------------
# evaluation: verification


def _constructed_verification_scores(
    seed: int,
    n_identities: int = 24,
    cohort_size: int = 250,
    margin: float = 0.5,
    shift_std: float = 0.5,
    noise_std: float = 0.08,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score matrix with per-query and per-key additive shifts, plus cohort
    score banks that share those shifts.

    Returns (raw, query_cohort_scores, key_cohort_scores) where raw[q, k] is
    the trial score, query_cohort_scores[q] holds the query's scores against
    the cohort, and key_cohort_scores[k] the key's.
    """
    rng = np.random.default_rng(stable_seed("verif_eval", seed))
    n = n_identities
    a = rng.normal(0.0, shift_std, n)  # per-query shift
    b = rng.normal(0.0, shift_std, n)  # per-key shift
    g = rng.normal(0.0, shift_std, cohort_size)  # per-cohort-member shift
    raw = (
        0.3
        + margin * np.eye(n)
        + rng.normal(0.0, noise_std, (n, n))
        + a[:, None]
        + b[None, :]
    )
    q_cohort = 0.3 + a[:, None] + g[None, :] + rng.normal(0.0, noise_std, (n, cohort_size))
    k_cohort = 0.3 + b[:, None] + g[None, :] + rng.normal(0.0, noise_std, (n, cohort_size))
    return raw, q_cohort, k_cohort


def _ranks_of_diagonal(scores: np.ndarray) -> list[int]:
    genuine = np.diag(scores)
    return [int(1 + np.sum(scores[q] > genuine[q])) for q in range(scores.shape[0])]


def eval_verification(n_seeds: int = 20, top_n: int = 200, seed: int = 0) -> MetricsTable:
    """Normalization quality and EER behavior on constructed score banks."""
    diffs = []
    raw_rates = []
    norm_rates = []
    eer_gaps = []
    norm_eers = []
    for bank_seed in range(seed, seed + n_seeds):
        raw, q_cohort, k_cohort = _constructed_verification_scores(bank_seed)
        q_mean, q_std = _top_cohort_stats(q_cohort, top_n)
        k_mean, k_std = _top_cohort_stats(k_cohort, top_n)
        normalized = _asnorm(raw, q_mean[:, None], q_std[:, None], k_mean, k_std)
        raw_pass = pass_at_k(_ranks_of_diagonal(raw), 1)
        norm_pass = pass_at_k(_ranks_of_diagonal(normalized), 1)
        raw_rates.append(raw_pass)
        norm_rates.append(norm_pass)
        diffs.append(norm_pass - raw_pass)

        labels = np.eye(raw.shape[0], dtype=bool).ravel()
        scores = normalized.ravel()
        eer, _ = compute_eer(scores, labels)
        norm_eers.append(eer)
        affine, _ = compute_eer(2.0 * scores + 1.0, labels)
        logistic, _ = compute_eer(1.0 / (1.0 + np.exp(-scores)), labels)
        eer_gaps.append(max(abs(eer - affine), abs(eer - logistic)))

    rng = np.random.default_rng(stable_seed("verif_eval", "separable"))
    sep_pos = 0.8 + 0.1 * rng.random(200)
    sep_neg = 0.1 + 0.2 * rng.random(200)
    sep_scores = np.concatenate([sep_pos, sep_neg])
    sep_labels = np.concatenate([np.ones(200, bool), np.zeros(200, bool)])
    sep_eer, _ = compute_eer(sep_scores, sep_labels)

    hand_eer, _ = compute_eer([0.9, 0.8, 0.6, 0.7, 0.2, 0.1], [1, 1, 1, 0, 0, 0])

    mean_raw = float(np.mean(raw_rates))
    mean_norm = float(np.mean(norm_rates))
    mean_eer = float(np.mean(norm_eers))
    checks = (
        MetricCheck(
            "pass_at_1_raw",
            mean_raw,
            mean_norm >= mean_raw,
            detail=f"mean over {n_seeds} seeded score banks",
        ),
        MetricCheck(
            "pass_at_1_snorm",
            mean_norm,
            mean_norm >= mean_raw,
            detail="adaptive normalization of the same banks",
        ),
        MetricCheck(
            "asnorm_never_worse",
            min(diffs),
            min(diffs) >= 0.0,
            detail="worst per-seed pass@1 gain",
        ),
        MetricCheck(
            "asnorm_mean_gain",
            float(np.mean(diffs)),
            float(np.mean(diffs)) > 0.0,
        ),
        MetricCheck(
            "eer_snorm_mean",
            mean_eer,
            mean_eer < 0.5,
            detail="normalized trial scores, genuine-vs-imposter",
        ),
        MetricCheck("separable_eer_zero", sep_eer, sep_eer == 0.0),
        MetricCheck(
            "eer_rank_invariance",
            max(eer_gaps),
            max(eer_gaps) <= 1e-12,
            detail="EER unchanged under increasing transforms",
        ),
        MetricCheck(
            "hand_example_eer",
            hand_eer,
            abs(hand_eer - 1.0 / 3.0) <= 1e-9,
            detail="expected 1/3",
        ),
    )
    return MetricsTable("verification", checks)


# --------------------------------------------------------------------------
# evaluation: session trigger


def synth_trigger_scripts(rng: np.random.Generator, index: int) -> list[DialogScript]:
    """Plain dialog scripts (no queries) for boundary-detection streams."""
    speakers = ("u1", "u2", "u3")
    scripts = []
    for d in range(int(rng.integers(2, 5))):
        speaker = speakers[int(rng.integers(len(speakers)))]
        turns = tuple(
            TurnScript(
                speaker_user=speaker,
                instruction_text="marking time",
                response_text="noted",
                instruction_steps=int(rng.integers(20, 51)),
                response_steps=int(rng.integers(15, 41)),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
        scripts.append(DialogScript(dialog_id=f"trigger_{index}_d{d}", turns=turns))
    return scripts


def build_trigger_stream(seed: int, index: int) -> StreamBuildResult:
    rng = np.random.default_rng(stable_seed("trigger", seed, index))
    scripts = synth_trigger_scripts(rng, index)
    return build_stream(scripts, rng_seed=stable_seed("trigger_build", seed, index))


def truth_spans(built: StreamBuildResult) -> list[SessionSpan]:
    """Gold inclusive session spans from placed dialogs."""
    spans = []
    for dialog in built.scripts:
        start, end = dialog.session_span
        spans.append(SessionSpan(start, end - 1))
    return spans


def jitter_spans(
    spans: Sequence[SessionSpan], rng: np.random.Generator, length: int, max_jitter: int = 3
) -> list[SessionSpan]:
    """Shift every boundary by a nonzero offset in [-max_jitter, max_jitter]."""
    offsets = np.concatenate(
        [np.arange(-max_jitter, 0), np.arange(1, max_jitter + 1)]
    )
    jittered = []
    for span in spans:
        d1 = int(offsets[int(rng.integers(offsets.size))])
        d2 = int(offsets[int(rng.integers(offsets.size))])
        start = span.start_step + d1
        end = min(span.end_step + d2, length - 1)
        jittered.append(SessionSpan(start, max(end, start)))
    return jittered


def eval_trigger(n_streams: int = 100, seed: int = 0) -> MetricsTable:
    """Boundary-tag quality: oracle round trip, reference tagger, jitter."""
    oracle_jaccards = []
    oracle_f1 = {0: [], 5: [], 10: []}
    ref_f1_at_5 = []
    jitter_f1 = {0: [], 5: [], 10: []}
    jitter_jaccards = []
    rng = np.random.default_rng(stable_seed("trigger_eval", seed))
    tagger = ActivityTagger()

    for index in range(n_streams):
        built = build_trigger_stream(seed, index)
        gold = truth_spans(built)
        length = len(built.stream)

        oracle_tags = spans_to_labels(gold, length)
        recovered = extract_sessions(oracle_tags).spans
        oracle_jaccards.append(jaccard_score(recovered, gold))
        for n in oracle_f1:
            oracle_f1[n].append(span_match_at_n(recovered, gold, n).f1)

        ref_tags = TagSequence(tagger(built.stream.tokens))
        ref_spans = extract_sessions(ref_tags).spans
        ref_f1_at_5.append(span_match_at_n(ref_spans, gold, 5).f1)

        noisy = jitter_spans(gold, rng, length)
        noisy_spans = extract_sessions(spans_to_labels(noisy, length)).spans
        jitter_jaccards.append(jaccard_score(noisy_spans, gold))
        for n in jitter_f1:
            jitter_f1[n].append(span_match_at_n(noisy_spans, gold, n).f1)

    mean_ref_f1 = float(np.mean(ref_f1_at_5))
    mean_jitter_jaccard = float(np.mean(jitter_jaccards))
    mean_jitter = {n: float(np.mean(vals)) for n, vals in jitter_f1.items()}

    checks = (
        MetricCheck(
            "oracle_jaccard",
            min(oracle_jaccards),
            min(oracle_jaccards) == 1.0,
            detail="labels -> spans round trip",
        ),
        MetricCheck("oracle_f1_at_0", min(oracle_f1[0]), min(oracle_f1[0]) == 1.0),
        MetricCheck("oracle_f1_at_5", min(oracle_f1[5]), min(oracle_f1[5]) == 1.0),
        MetricCheck("oracle_f1_at_10", min(oracle_f1[10]), min(oracle_f1[10]) == 1.0),
        MetricCheck(
            "reference_f1_at_5",
            mean_ref_f1,
            mean_ref_f1 >= 0.95,
            detail=f"activity tagger over {n_streams} streams",
        ),
        MetricCheck(
            "jitter_jaccard",
            mean_jitter_jaccard,
            0.0 < mean_jitter_jaccard < 1.0,
            detail="overlap survives, exactness does not",
        ),
        MetricCheck("jitter_f1_at_5", mean_jitter[5], mean_jitter[5] == 1.0),
        MetricCheck("jitter_f1_at_10", mean_jitter[10], mean_jitter[10] == 1.0),
        MetricCheck(
            "jitter_f1_at_0_below_one",
            mean_jitter[0],
            mean_jitter[0] < 1.0,
            detail="nonzero jitter must break exact matching",
        ),
    )
    return MetricsTable("trigger", checks)


# --------------------------------------------------------------------------
# evaluation: retrieval


def _mock_text_encoder(texts: Sequence[str]) -> list[Embedding]:
    return [Embedding(MockTextEncoderService.embed_vector(text), "text") for text in texts]


@dataclass(frozen=True)
class RetrievalFixture:
    store: MemoryStore
    host_id: str
    queries: tuple[tuple[QueryGroups, tuple[str, ...]], ...]  # (query, relevant texts)


def build_retrieval_fixture(
    seed: int = 0,
    n_neighbors: int = 25,
    facts_per_neighbor: int = 20,
    n_queries: int = 200,
) -> RetrievalFixture:
    """A host with many neighbors and keyword-unique facts, plus queries whose
    relevant document sets are known by construction."""
    if n_neighbors > len(RELATIONS) or n_neighbors + 1 > len(FIRST_NAMES):
        raise HarnessError("fixture size exceeds the word banks")
    rng = np.random.default_rng(stable_seed("retrieval_eval", seed))
    store = MemoryStore()
    words = distinct_words(n_neighbors * facts_per_neighbor)
    host_seed = IdentitySeed("host", stable_seed(seed, "host"))
    host_id = seed_profile(
        store, host_seed.key_embedding("face"), host_seed.key_embedding("voice"), "Hostess"
    )

    fact_bank: list[tuple[str, str, str]] = []  # (relation, keyword, fact text)
    for i in range(n_neighbors):
        name = FIRST_NAMES[i + 1]
        relation = RELATIONS[i]
        ident = IdentitySeed(name.lower(), stable_seed(seed, "neighbor", i))
        facts = []
        for f in range(facts_per_neighbor):
            word = words[i * facts_per_neighbor + f]
            template = SHORT_FACT_TEMPLATES[(i + f) % len(SHORT_FACT_TEMPLATES)]
            text = template.format(word=word)
            facts.append((text, f"2024-04-{1 + (i + f) % 28:02d}"))
            fact_bank.append((relation, word, text))
        neighbor_id = seed_profile(
            store, ident.key_embedding("face"), ident.key_embedding("voice"), name, facts=facts
        )
        store.add_relation_edge(RelationTriplet(host_id, relation, neighbor_id))

    queries = []
    picks = rng.integers(0, len(fact_bank), n_queries)
    for pick in picks:
        relation, keyword, text = fact_bank[int(pick)]
        groups = QueryGroups((relation,), (keyword,))
        relevant = tuple(
            doc_text
            for rel, word, doc_text in fact_bank
            if rel == relation and keyword in tokenize(doc_text)
        )
        queries.append((groups, relevant))
    return RetrievalFixture(store, host_id, tuple(queries))


def eval_retrieval(
    seed: int = 0,
    n_neighbors: int = 25,
    facts_per_neighbor: int = 20,
    n_queries: int = 200,
    k: int = 5,
) -> MetricsTable:
    """pass@k over constructed relation+keyword queries, plus budget audit."""
    fixture = build_retrieval_fixture(seed, n_neighbors, facts_per_neighbor, n_queries)
    hits = 0
    budget_ok = 0
    index = DocumentIndex()
    for groups, relevant in fixture.queries:
        result = retrieve_topk(
            groups, fixture.store, fixture.host_id, encoder=_mock_text_encoder, k=k, index=index
        )
        returned_texts = [sd.document.text.split(", ", 3)[3] for sd in result.documents]
        if all(text in returned_texts for text in relevant):
            hits += 1
        if result.rendered_cost <= result.token_budget:
            budget_ok += 1
    pass_rate = hits / len(fixture.queries)
    budget_rate = budget_ok / len(fixture.queries)
    checks = (
        MetricCheck(
            f"pass_at_{k}",
            pass_rate,
            pass_rate >= 0.95,
            detail=f"{n_queries} queries over {n_neighbors * facts_per_neighbor} memories",
        ),
        MetricCheck("budget_compliance", budget_rate, budget_rate == 1.0),
    )
    return MetricsTable("retrieval", checks)


# --------------------------------------------------------------------------
# evaluation: streams and masks


def eval_streams(n_scenarios: int = 100, seed: int = 0) -> MetricsTable:
    """Mask-count laws, the monologue lead, and reserved-region hygiene."""
    profile_exact = 0
    qr_exact = 0
    lead_ok = 0
    regions_ok = 0
    tags_ok = 0
    total = 0

    for index in range(n_scenarios):
        spec = ScenarioSpec(
            seed=stable_seed("streams_eval", seed, index) % (2**31),
            n_days=1,
            dialogs_per_day=(2, 4),
            turns_per_dialog=(1, 3),
        )
        scenario = synth_scenario(spec)
        built = build_day_stream(scenario, 0)
        stream, scripts = built.stream, built.scripts
        if not scripts:
            continue
        total += 1

        n_dialogs = len(scripts)
        n_turns = sum(len(d.turns) for d in scripts)
        profile_masks = make_supervision_masks(stream, scripts, "profile")
        qr_masks = make_supervision_masks(stream, scripts, "query_response")
        tag_masks = make_supervision_masks(stream, scripts, "session_tags")

        if len(profile_masks) == n_dialogs:
            profile_exact += 1
        if len(qr_masks) == 2 * n_turns:
            qr_exact += 1

        leads = []
        for dialog in scripts:
            for turn in dialog.turns:
                r0 = turn.response_span[0]
                first = stream.tokens[r0 - MONOLOGUE_LEAD_STEPS, 0]
                expected = turn.response_text.encode("utf-8")[0] + 1
                leads.append(int(first) == expected)
        if all(leads):
            lead_ok += 1

        head = stream.tokens[:DIALOG_START]
        if (head == 0).all() and min(d.session_span[0] for d in scripts) >= DIALOG_START:
            regions_ok += 1

        labels = TagSequence(tag_masks[0].mask)
        recovered = extract_sessions(labels).spans
        gold = [SessionSpan(d.session_span[0], d.session_span[1] - 1) for d in scripts]
        if span_match_at_n(recovered, gold, 0).f1 == 1.0:
            tags_ok += 1

    def rate(x: int) -> float:
        return x / total if total else 0.0

    checks = (
        MetricCheck(
            "profile_mask_count_exact",
            rate(profile_exact),
            profile_exact == total,
            detail=f"one mask per dialog, {total} streams",
        ),
        MetricCheck(
            "query_response_mask_count_exact",
            rate(qr_exact),
            qr_exact == total,
            detail="two masks per turn",
        ),
        MetricCheck(
            "monologue_lead_two_steps",
            rate(lead_ok),
            lead_ok == total,
            detail="response text starts two steps early on every turn",
        ),
        MetricCheck(
            "reserved_regions_empty",
            rate(regions_ok),
            regions_ok == total,
        ),
        MetricCheck(
            "session_tag_roundtrip",
            rate(tags_ok),
            tags_ok == total,
        ),
    )
    return MetricsTable("streams", checks)
