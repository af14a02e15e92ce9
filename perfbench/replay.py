"""Replay of recorded days through the live loop, with timers and checks.

Timers sit on the three process entry points as duplexmem.runtime calls them
(polling_tick, handle_retrieval_request, run_management_cycle) and on the
benchmark's own parse, persist and load calls. After each day the timer
counts must equal the program's own counters, so a change that stops routing
through an entry point fails instead of reporting empty figures.
"""

from __future__ import annotations

import os
import resource
import statistics
from time import perf_counter, thread_time
from typing import Any, Callable

import numpy as np

import checks
import duplexmem.runtime as runtime
from duplexmem.backends import BACKEND_KINDS, MockTextEncoderService
from duplexmem.runtime import UNKNOWN_IDENTITY, AgentConfig, run_agent
from duplexmem.store import MemoryStore, StoreError
from duplexmem.stream import parse_stream
from spans import BackendTally, Tracer, layer_patches, patched
from workloads import Day, Round, Workload

AGENT = AgentConfig()
OWN_FACT_FLOOR = 0.95
ENTRY_POINTS = ("runtime.polling_tick", "runtime.handle_retrieval_request",
                "runtime.run_management_cycle")


def write_checkpoints(workload: Workload, scratch: str) -> None:
    """Persist each set-up store once; every round starts from a load of it."""
    paths: dict[int, str] = {}
    for rnd in workload.rounds:
        if id(rnd.store) not in paths:
            paths[id(rnd.store)] = os.path.join(scratch, f"setup{len(paths)}")
            rnd.store.persist(paths[id(rnd.store)])
        rnd.checkpoint = paths[id(rnd.store)]


class RankedDocs:
    """The recall round's neighbour documents, rendered and embedded here."""

    def __init__(self, rnd: Round):
        names = rnd.names()
        facts = {p.identity_id: p.facts for p in rnd.scenario.preseed}
        texts = [f"{names[other]}, {relation}, {ts}, {text}"
                 for _, relation, other in rnd.scenario.edges
                 for text, ts in facts[other]]
        self.index = {text: row for row, text in enumerate(texts)}
        self.words = [checks.words(text) for text in texts]
        self.matrix = np.stack([MockTextEncoderService.embed_vector(t) for t in texts])

    def scores(self, keywords: tuple[str, ...]) -> np.ndarray:
        return self.matrix @ MockTextEncoderService.embed_vector(" ".join(keywords))

    def admitted(self, relations: tuple[str, ...]) -> np.ndarray:
        wanted = set(relations)
        return np.array([bool(w & wanted) if wanted else True for w in self.words])

    def own_row(self, keyword: str) -> int:
        return next(row for row, w in enumerate(self.words) if keyword in w)


class Bench:
    def __init__(self, workload: Workload, tally: BackendTally, scratch: str):
        self.workload = workload
        self.tally = tally
        self.night = os.path.join(scratch, "night")
        self.tracer: Tracer | None = None
        self.recording = False
        self.patches = self._timers()
        self.errors: list[str] = []
        self.ranked: dict[str, RankedDocs] = {}
        self._reset()

    def _reset(self) -> None:
        self.passes: list[dict[str, list[float]]] = []  # the samples of each whole pass
        self._new_pass()
        self.steps = 0
        self.replay_s = 0.0
        self.days = 0
        self.sends = 0
        self.attempted = 0
        self.failed = 0
        self.own_hits = 0
        self.own_total = 0
        self.totals = dict.fromkeys(ENTRY_POINTS + ("attempts", "sessions"), 0)

    def start(self, tracer: Tracer | None) -> None:
        """End the warm-up: drop its figures and, when tracing, add the layer spans."""
        self._reset()
        self.recording = True
        self.tracer = tracer
        self.tally.tracer = tracer
        if tracer is not None:
            self.patches = layer_patches(tracer) + self._timers()

    # -- timers ---------------------------------------------------------------

    def _timers(self) -> list[tuple[Any, str, Callable[..., Any]]]:
        self._ticks: list[tuple[int, float, Any]] = []
        self._queries: list[tuple[float, dict[str, Any], str]] = []
        self._cycles: list[tuple[float, Any]] = []

        def tick(fn: Callable[..., Any]) -> Callable[..., Any]:
            def timed(stream: Any, step: int, *rest: Any, **kw: Any) -> Any:
                t0 = perf_counter()
                observation = fn(stream, step, *rest, **kw)
                self._ticks.append((step, perf_counter() - t0, observation))
                return observation
            return timed

        def query(fn: Callable[..., Any]) -> Callable[..., Any]:
            def timed(text: str, user: Any, store: Any, backends: Any, window: Any,
                      *rest: Any, **kw: Any) -> Any:
                t0 = perf_counter()
                event = fn(text, user, store, backends, window, *rest, **kw)
                self._queries.append((perf_counter() - t0, event, window.content))
                return event
            return timed

        def cycle(fn: Callable[..., Any]) -> Callable[..., Any]:
            def timed(*args: Any, **kw: Any) -> Any:
                t0 = perf_counter()
                report = fn(*args, **kw)
                self._cycles.append((perf_counter() - t0, report))
                return report
            return timed

        return [(runtime, "polling_tick", tick),
                (runtime, "handle_retrieval_request", query),
                (runtime, "run_management_cycle", cycle)]

    def _span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        return self.tracer.wrap(name, fn) if self.tracer else fn

    # -- replay ---------------------------------------------------------------

    def replay_round(self, rnd: Round, days: int | None = None) -> None:
        store = MemoryStore.load(rnd.checkpoint)
        enrolled: dict[str, str] = {}  # stranger identity id -> user id created at night
        for day in rnd.days[:days]:
            store = self.replay_day(rnd, day, store, enrolled)

    def replay_day(self, rnd: Round, day: Day, store: MemoryStore,
                   enrolled: dict[str, str]) -> MemoryStore:
        self._ticks.clear()
        self._queries.clear()
        self._cycles.clear()
        clients = [day.suite.client(kind) for kind in BACKEND_KINDS]
        attempts0 = sum(c.attempts for c in clients)
        sends0 = sum(self.tally.sends.values())
        with patched(self.patches):
            t0 = perf_counter()
            stream = self._span("stream.parse", parse_stream)(day.blob)
            result = self._span("runtime.run_agent", run_agent)(
                stream, store, day.suite, AGENT, cycle_config=day.cycle_config)
            replay_s = perf_counter() - t0
        counters = result.counters
        attempts = sum(c.attempts for c in clients) - attempts0
        sends = sum(self.tally.sends.values()) - sends0
        timed = (len(self._ticks), len(self._queries), len(self._cycles), sends)
        counted = (counters.ticks, counters.queries_handled, counters.management_cycles, attempts)
        if timed != counted:
            self.errors.append(f"timers saw (ticks, queries, cycles, sends) {timed}, "
                               f"the program counted {counted}")

        errors = checks.check_stream(stream, day.built)
        errors += self._check_ticks(rnd, stream, enrolled)
        if counters.conflict_count:
            errors.append(f"{counters.conflict_count} face/voice conflicts")
        errors += self._check_queries(rnd, day)
        errors += self._check_night(rnd, day, store, enrolled)

        # persist is timed in CPU time: on recall its wall time swung 12-21 ms
        # between runs while its CPU time held at 12 ms; the rest is the wait
        # of its three fsyncs on the host's shared disk
        c0 = thread_time()
        try:
            self._span("store.persist", store.persist)(self.night)
            c1 = thread_time()
            t1 = perf_counter()
            restored = self._span("store.load", MemoryStore.load)(self.night)
            t2 = perf_counter()
        except (OSError, StoreError) as exc:
            errors.append(f"persist/load failed: {exc}")
            self.failed += 1
            restored, t1, t2 = store, None, None
        else:
            errors += checks.check_restored(store, restored)

        self.errors += [f"{rnd.name} {day.timestamp}: {e}" for e in errors]
        if self.recording:
            self.steps += len(stream)
            self.replay_s += replay_s
            self.samples["rate"].append(len(stream) / replay_s)
            self.days += 1
            self.sends += sends
            self.attempted += len(self._cycles) + 2
            if t1 is not None:
                self.samples["persist"].append(c1 - c0)
                self.samples["load"].append(t2 - t1)
            self.samples["cycle"] += [s for s, _ in self._cycles]
            for name, n in zip(ENTRY_POINTS, timed):
                self.totals[name] += n
            self.totals["attempts"] += attempts
            self.totals["sessions"] += sum(len(r.records) for _, r in self._cycles)
            if self.tracer is not None:
                self._note_layers(restored)
        return restored

    def _note_layers(self, store: MemoryStore) -> None:
        tracer = self.tracer
        size = sum(os.path.getsize(os.path.join(self.night, f)) for f in os.listdir(self.night))
        tracer.note("store.disk", size / 1024.0)
        tracer.note("store.audit", len(store.audit_entries))
        tracer.note("store.users", len(store.user_ids))
        for _, report in self._cycles:
            tracer.note("pipeline.sessions", len(report.records))
            tracer.note("pipeline.created", report.count("created"))
            tracer.note("pipeline.updated", report.count("updated"))

    # -- checks ---------------------------------------------------------------

    def _user_of(self, rnd: Round, identity_id: str, enrolled: dict[str, str]) -> str:
        if identity_id in rnd.strangers:
            return enrolled.get(identity_id, UNKNOWN_IDENTITY)
        return rnd.id_map[identity_id]

    def _check_ticks(self, rnd: Round, stream: Any, enrolled: dict[str, str]) -> list[str]:
        by_marker = rnd.identity_of_marker()
        steps = [step for step, _, _ in self._ticks]
        markers = checks.dominant_markers(stream.tokens, steps, AGENT.verification_window_steps)
        expected = {step: None if m is None else self._user_of(rnd, by_marker[m], enrolled)
                    for step, m in markers.items()}
        for step, seconds, observation in self._ticks:
            if markers[step] is None:
                continue
            if self.recording:
                self.attempted += 1
                self.samples["identify"].append(seconds)
            if observation.backend_error:
                self.failed += 1
        return checks.check_ticks([(s, o.identity) for s, _, o in self._ticks], expected)

    def _check_queries(self, rnd: Round, day: Day) -> list[str]:
        groups = day.queries
        if len(groups) != len(self._queries):
            return [f"{len(self._queries)} queries handled, {len(groups)} scripted"]
        errors = []
        capacity = AGENT.retrieval_capacity
        ranked = self._ranked(rnd) if self.workload.name == "recall" else None
        for query, (seconds, event, content) in zip(groups, self._queries):
            if event.get("status") != "ok":
                self.failed += 1
                errors.append(f"query at step {event['step']}: {event.get('reason')}")
            elif ranked is not None:
                scores = ranked.scores(query.keywords)
                errors += checks.check_ranked_window(content, ranked.index, scores,
                                                     ranked.admitted(query.relations), capacity)
                if query.relations and self.recording:
                    own = ranked.own_row(query.keywords[0])
                    self.own_total += 1
                    self.own_hits += own in {ranked.index.get(line) for line in content.split("\n")}
            elif query.relations:
                errors += checks.check_relation_window(content, query.relations, capacity)
            if self.recording:
                self.attempted += 1
                self.samples["query"].append(seconds)
        return errors

    def _ranked(self, rnd: Round) -> RankedDocs:
        if rnd.name not in self.ranked:
            self.ranked[rnd.name] = RankedDocs(rnd)
        return self.ranked[rnd.name]

    def _check_night(self, rnd: Round, day: Day, store: MemoryStore,
                     enrolled: dict[str, str]) -> list[str]:
        """The night's cycle enrolled exactly the new strangers and wrote every fact."""
        errors = []
        names = rnd.names()
        by_name = {names[i]: i for i in rnd.strangers}
        seen = [names[d.speaker_user] for d in day.scripts
                if d.speaker_user in rnd.strangers and d.speaker_user not in enrolled]
        created = []
        for _, report in self._cycles:
            bad = [r for r in report.records if r.action in ("failed", "skipped")]
            if bad:
                self.failed += 1
            errors += [f"session [{r.start_step}, {r.end_step}] {r.action}: {r.reason}" for r in bad]
            for record in report.records:
                if record.action == "created":
                    name = store.lookup_user(record.user_id).name
                    created.append(name)
                    if name in by_name:
                        enrolled[by_name[name]] = record.user_id
        errors += checks.check_enrolment(created, seen)
        facts = [(self._user_of(rnd, d.speaker_user, enrolled), fact)
                 for d in day.scripts for fact in d.annotation["user_facts"]]
        return errors + checks.check_facts(store, facts)

    # -- results --------------------------------------------------------------

    def _new_pass(self) -> None:
        self.samples: dict[str, list[float]] = {
            k: [] for k in ("rate", "identify", "query", "cycle", "persist", "load")}

    def end_pass(self) -> None:
        """Close a whole pass over the rounds; the next samples go to a new one."""
        self.passes.append(self.samples)
        self._new_pass()

    def finish(self) -> None:
        """Check the span or timer counts against the program's own counters."""
        errors = checks.check_rate(self.own_hits, self.own_total, OWN_FACT_FLOOR,
                                   "own fact in the window of relation-plus-keyword queries")
        if self.tracer is not None:
            spans = {name: self.tracer.count(name) for name in ENTRY_POINTS}
            spans["attempts"] = sum(self.tracer.count(f"backends.{k}.service")
                                    for k in BACKEND_KINDS)
            spans["sessions"] = self.tracer.count("pipeline.session")
            if spans != self.totals:
                errors.append(f"span counts {spans} differ from the program's counters {self.totals}")
        self.errors += errors

    def end_to_end(self, setup_s: float) -> dict[str, tuple[float, str]]:
        """Each timing as its median within each whole pass, in the slowest pass.

        The host's speed flips between a fast and a slow state about 1.6x
        apart, in spells of a few seconds, and the share of each varies from
        run to run. A median over the whole run lands on either state; the
        slowest pass of a run, a few seconds long, reads the slow state, which
        holds still. Every pass replays the same days, so passes differ only
        in the state of the host.
        """
        medians = {name: [statistics.median(p[name]) for p in self.passes]
                   for name in self.samples}
        ms = 1000.0
        return {
            "steps_per_s_slowest_pass": (min(medians["rate"]), "steps/s"),
            "identify_ms_slowest_pass": (max(medians["identify"]) * ms, "ms"),
            "query_ms_slowest_pass": (max(medians["query"]) * ms, "ms"),
            "cycle_ms_slowest_pass": (max(medians["cycle"]) * ms, "ms"),
            "persist_cpu_ms_slowest_pass": (max(medians["persist"]) * ms, "ms"),
            "load_ms_slowest_pass": (max(medians["load"]) * ms, "ms"),
            "backend_calls": (self.sends / self.days, "calls/day"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
