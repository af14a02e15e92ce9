"""The live agent loop: identity tracking, context windows, retrieval.

Three logical processes share one single-threaded loop driven by the stream
step counter (the virtual clock): the interaction process consumes stream
steps and watches the monologue channel, the retrieval process answers query
markers, and the management process periodically rolls completed chunks into
long-term memory. Each step calls them in that fixed order, so the whole run
is reproducible; nothing reads the wall clock.

Identity tracking polls the recent stream window on a fixed cadence. A face
match drives the profile context window: a switch to a different user (or to
an unrecognized one) refreshes it immediately, and a sustained loss of signal
clears it after a fixed number of lossy ticks. Every refresh is driven by
exactly one switch or one loss-clear, which the run result exposes as
counters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from .backends import BackendError, BackendSuite
from .pipeline import CycleConfig, CycleReport, run_management_cycle
from .retrieval import (
    QUERY_CLOSE,
    DocumentIndex,
    MalformedQueryError,
    RetrievalError,
    parse_query_protocol,
    retrieve_topk,
)
from .store import UNKNOWN_USER_NAME, MemoryStore, UserProfile
from .stream import PROFILE_REGION, RETRIEVAL_REGION, TokenStream
from .verification import (
    DEFAULT_FACE_DELTA,
    DEFAULT_SPEAKER_THETA,
    CohortSet,
    face_verify,
    speaker_verify,
)

UNKNOWN_IDENTITY = "?"

_QUERY_CLOSE_BYTES = QUERY_CLOSE.encode("ascii")


class AgentLoopError(Exception):
    pass


class WindowOverflowError(AgentLoopError):
    pass


@dataclass(frozen=True)
class AgentConfig:
    """Scalar knobs of the live loop.

    Step counts assume the stream's fixed 12.5 steps per second, so the
    defaults poll every 2 seconds over a 2 second verification window. The
    step and capacity fields are ints and the two thresholds finite ints or
    floats; bools are neither.
    """

    polling_interval_steps: int = 25
    verification_window_steps: int = 25
    face_delta: float = DEFAULT_FACE_DELTA
    speaker_theta: float = DEFAULT_SPEAKER_THETA
    management_interval_steps: int = 8192
    profile_capacity: int = PROFILE_REGION[1] - PROFILE_REGION[0]
    retrieval_capacity: int = RETRIEVAL_REGION[1] - RETRIEVAL_REGION[0]
    loss_ticks_to_clear: int = 5
    retrieval_top_k: int = 5

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = (int, float) if f.type == "float" else (int,)  # f.type is the annotation text
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise TypeError(f"{f.name} must be {f.type}, not {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, not {value!r}")
        for name in (
            "polling_interval_steps",
            "verification_window_steps",
            "management_interval_steps",
            "loss_ticks_to_clear",
            "retrieval_top_k",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0 < self.profile_capacity <= PROFILE_REGION[1] - PROFILE_REGION[0]:
            raise ValueError(
                f"profile_capacity must fit the {PROFILE_REGION[1] - PROFILE_REGION[0]}"
                "-step profile region"
            )
        if not 0 < self.retrieval_capacity <= RETRIEVAL_REGION[1] - RETRIEVAL_REGION[0]:
            raise ValueError(
                f"retrieval_capacity must fit the {RETRIEVAL_REGION[1] - RETRIEVAL_REGION[0]}"
                "-step retrieval region"
            )


class ContextWindowState:
    """One in-context region: capped content plus a change-counting version.

    The version increments exactly when the content changes, so downstream
    consumers can use it as a cheap dirty flag.
    """

    def __init__(self, name: str, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.content = ""
        self.version = 0

    def set_content(self, text: str) -> bool:
        if len(text.encode("utf-8")) > self.capacity:
            raise WindowOverflowError(
                f"{self.name} window content exceeds capacity {self.capacity}"
            )
        if text == self.content:
            return False
        self.content = text
        self.version += 1
        return True


def render_profile(profile: UserProfile, capacity: int) -> str:
    """Greedy budgeted rendering: name, then facts, summaries, persona.

    Lines are added in priority order until one no longer fits the byte
    budget; everything after the first non-fitting line is dropped too, so
    the output is always a prefix of the full rendering.
    """
    lines = [f"name: {profile.name}"]
    for item in profile.facts:
        lines.append(f"fact: {item.text} ({item.timestamp})")
    for item in profile.dialog_summaries:
        lines.append(f"summary: {item.text} ({item.timestamp})")
    for slot in sorted(profile.persona):
        lines.append(f"persona/{slot}: {profile.persona[slot]}")

    used = 0
    kept: list[str] = []
    for line in lines:
        cost = len(line.encode("utf-8")) + (1 if kept else 0)
        if used + cost > capacity:
            break
        kept.append(line)
        used += cost
    return "\n".join(kept)


def refresh_profile_window(
    window: ContextWindowState,
    profile: UserProfile | None,
    unknown: bool = False,
) -> bool:
    """Point the profile window at a user, an unknown visitor, or nobody."""
    if profile is not None:
        text = render_profile(profile, window.capacity)
    elif unknown:
        text = f"name: {UNKNOWN_USER_NAME}"
    else:
        text = ""
    return window.set_content(text)


@dataclass(frozen=True)
class TickObservation:
    """What one polling tick saw: a user id, an unknown visitor, or nothing."""

    identity: str | None  # user id, UNKNOWN_IDENTITY, or None for no signal
    conflict: bool = False
    backend_error: str = ""


def polling_tick(
    stream: TokenStream,
    step: int,
    store: MemoryStore,
    backends: BackendSuite,
    config: AgentConfig,
    voice_query_cohort: CohortSet | None = None,
    voice_key_cohort: CohortSet | None = None,
) -> TickObservation:
    """Identify who is present in the recent stream window.

    The face rule is primary. When cohorts are configured and a voice
    observation is also available, it corroborates the face match; a
    disagreement raises the conflict flag but the face decision stands.
    Backend failures degrade to a no-signal observation instead of stalling
    the loop.
    """
    window_start = max(0, step + 1 - config.verification_window_steps)
    segment = stream.segment(window_start, step + 1)
    marker = segment.dominant_marker()
    if marker is None:
        return TickObservation(None)

    try:
        face = backends.encode_av("face", marker, step)
    except BackendError as exc:
        return TickObservation(None, backend_error=f"face_encoder: {exc}")

    voice_ready = voice_query_cohort is not None and voice_key_cohort is not None
    voice_decision = None
    voice_error = ""
    if voice_ready:
        try:
            voice = backends.encode_av("voice", marker, step)
        except BackendError as exc:
            voice = None
            voice_error = f"voice_encoder: {exc}"
        if voice is not None:
            voice_decision = speaker_verify(
                voice,
                store.user_keys("voice"),
                voice_query_cohort,
                voice_key_cohort,
                config.speaker_theta,
            )

    if face is None:
        if voice_decision is not None and voice_decision.outcome == "matched":
            return TickObservation(voice_decision.user_id, backend_error=voice_error)
        if voice_decision is not None:
            return TickObservation(UNKNOWN_IDENTITY, backend_error=voice_error)
        return TickObservation(None, backend_error=voice_error)

    decision = face_verify(face, store.user_keys("face"), config.face_delta)
    if decision.outcome == "matched":
        conflict = (
            voice_decision is not None
            and voice_decision.outcome == "matched"
            and voice_decision.user_id != decision.user_id
        )
        return TickObservation(decision.user_id, conflict=conflict, backend_error=voice_error)
    return TickObservation(UNKNOWN_IDENTITY, backend_error=voice_error)


def handle_retrieval_request(
    monologue_text: str,
    current_user: str | None,
    store: MemoryStore,
    backends: BackendSuite,
    window: ContextWindowState,
    k: int,
    step: int,
    index: DocumentIndex | None = None,
) -> dict[str, Any]:
    """Answer one completed query marker and refresh the retrieval window.

    Returns the event record. Parse failures and encoder failures are
    reported, never raised; the window is left untouched in those cases.
    The index carries documents and text embeddings from query to query.
    """
    base: dict[str, Any] = {"event": "retrieval", "step": step}
    try:
        groups = parse_query_protocol(monologue_text)
    except MalformedQueryError as exc:
        return {**base, "status": "error", "reason": str(exc)}
    if groups is None:
        return {**base, "status": "skipped", "reason": "no query marker"}
    if current_user is None or current_user == UNKNOWN_IDENTITY:
        return {**base, "status": "skipped", "reason": "no active user"}
    try:
        result = retrieve_topk(
            groups,
            store,
            current_user,
            encoder=backends.embed_texts,
            k=k,
            token_budget=window.capacity,
            index=index,
        )
    except RetrievalError as exc:
        return {**base, "status": "error", "reason": str(exc)}
    except BackendError as exc:
        return {**base, "status": "error", "reason": f"backend: {exc}"}
    changed = window.set_content(result.render_text())
    return {
        **base,
        "status": "ok",
        "documents": len(result.documents),
        "changed": changed,
        "window_version": window.version,
    }


@dataclass
class AgentCounters:
    ticks: int = 0
    refresh_signals: int = 0
    switch_count: int = 0
    loss_clear_count: int = 0
    conflict_count: int = 0
    backend_error_count: int = 0
    queries_handled: int = 0
    retrieval_refreshes: int = 0
    management_cycles: int = 0

    def to_payload(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class AgentRunResult:
    events: tuple[dict[str, Any], ...]
    counters: AgentCounters
    profile_window: ContextWindowState
    retrieval_window: ContextWindowState
    cycle_reports: tuple[CycleReport, ...]
    tracked_user: str | None

    def to_jsonl(self) -> str:
        return "".join(json.dumps(event, sort_keys=True) + "\n" for event in self.events)


@dataclass
class _TrackerState:
    tracked: str | None = None
    loss_streak: int = 0


def _apply_tick(
    observation: TickObservation,
    state: _TrackerState,
    store: MemoryStore,
    window: ContextWindowState,
    counters: AgentCounters,
    config: AgentConfig,
    step: int,
    events: list[dict[str, Any]],
) -> None:
    counters.ticks += 1
    if observation.conflict:
        counters.conflict_count += 1
    if observation.backend_error:
        counters.backend_error_count += 1

    identity = observation.identity
    outcome: str
    cleared = False
    if identity is None:
        outcome = "no_signal"
        if state.tracked is not None:
            state.loss_streak += 1
            if state.loss_streak == config.loss_ticks_to_clear:
                state.tracked = None
                changed = refresh_profile_window(window, None)
                counters.loss_clear_count += 1
                counters.refresh_signals += 1
                cleared = True
                events.append(
                    {
                        "event": "profile_refresh",
                        "step": step,
                        "reason": "loss_clear",
                        "user_id": None,
                        "changed": changed,
                        "window_version": window.version,
                    }
                )
    elif identity == state.tracked:
        outcome = "same_user"
        state.loss_streak = 0
    else:
        outcome = "new_user" if identity == UNKNOWN_IDENTITY else "switched"
        state.tracked = identity
        state.loss_streak = 0
        if identity == UNKNOWN_IDENTITY:
            changed = refresh_profile_window(window, None, unknown=True)
        else:
            changed = refresh_profile_window(window, store.lookup_user(identity))
        counters.switch_count += 1
        counters.refresh_signals += 1
        events.append(
            {
                "event": "profile_refresh",
                "step": step,
                "reason": "switch",
                "user_id": None if identity == UNKNOWN_IDENTITY else identity,
                "changed": changed,
                "window_version": window.version,
            }
        )

    events.append(
        {
            "event": "tick",
            "step": step,
            "outcome": outcome,
            "user_id": state.tracked if state.tracked != UNKNOWN_IDENTITY else None,
            "conflict": observation.conflict,
            "backend_error": observation.backend_error,
            "cleared": cleared,
        }
    )


def run_agent(
    stream: TokenStream,
    store: MemoryStore,
    backends: BackendSuite,
    config: AgentConfig = AgentConfig(),
    timestamp: str = "",
    cycle_config: CycleConfig | None = None,
) -> AgentRunResult:
    """Drive the three-process loop over one stream.

    The step index is the only clock. Per step: the interaction process
    ingests the monologue byte and runs the polling cadence, the retrieval
    process answers a query marker completed at this step, and the management
    process rolls each completed fixed-size chunk (and the final partial
    chunk) into long-term memory. A cycle_config must use the same face and
    speaker thresholds as config, so ticks and cycles decide identity alike,
    and carries its own timestamp, so it cannot be passed with timestamp.
    """
    thresholds = (config.face_delta, config.speaker_theta)
    if cycle_config is None:
        cycle_config = CycleConfig(
            face_delta=config.face_delta,
            speaker_theta=config.speaker_theta,
            timestamp=timestamp,
        )
    elif timestamp:
        raise ValueError("pass the timestamp in cycle_config, not beside it")
    elif (cycle_config.face_delta, cycle_config.speaker_theta) != thresholds:
        raise ValueError(
            "cycle_config thresholds (face_delta, speaker_theta) "
            f"{(cycle_config.face_delta, cycle_config.speaker_theta)} differ from {thresholds}"
        )

    profile_window = ContextWindowState("profile", config.profile_capacity)
    retrieval_window = ContextWindowState("retrieval", config.retrieval_capacity)
    counters = AgentCounters()
    events: list[dict[str, Any]] = []
    cycle_reports: list[CycleReport] = []
    state = _TrackerState()
    index = DocumentIndex()

    monologue = bytearray()
    cycle_start = 0

    for step, text_token in enumerate(stream.tokens[:, 0].tolist()):
        query_closed = False
        if text_token > 0:
            monologue.append(text_token - 1)
            query_closed = monologue.endswith(_QUERY_CLOSE_BYTES)

        if (step + 1) % config.polling_interval_steps == 0:
            observation = polling_tick(
                stream,
                step,
                store,
                backends,
                config,
                cycle_config.voice_query_cohort,
                cycle_config.voice_key_cohort,
            )
            _apply_tick(
                observation, state, store, profile_window, counters, config, step, events
            )

        if query_closed:
            event = handle_retrieval_request(
                monologue.decode("utf-8", errors="replace"),
                state.tracked,
                store,
                backends,
                retrieval_window,
                config.retrieval_top_k,
                step,
                index,
            )
            counters.queries_handled += 1
            if event.get("changed"):
                counters.retrieval_refreshes += 1
            events.append(event)

        if (step + 1) % config.management_interval_steps == 0 or step + 1 == len(stream):
            report = run_management_cycle(
                stream.segment(cycle_start, step + 1), store, backends, cycle_config
            )
            cycle_reports.append(report)
            counters.management_cycles += 1
            events.append(_cycle_event(report, step))
            cycle_start = step + 1

    assert counters.refresh_signals == counters.switch_count + counters.loss_clear_count
    return AgentRunResult(
        events=tuple(events),
        counters=counters,
        profile_window=profile_window,
        retrieval_window=retrieval_window,
        cycle_reports=tuple(cycle_reports),
        tracked_user=state.tracked,
    )


def _cycle_event(report: CycleReport, step: int) -> dict[str, Any]:
    return {
        "event": "management_cycle",
        "step": step,
        "chunk_start": report.chunk_start,
        "chunk_end": report.chunk_end,
        "sessions": {
            action: report.count(action)
            for action in ("updated", "unchanged", "created", "skipped", "failed")
        },
        "writes": report.write_count,
    }


def config_from_mapping(payload: Mapping[str, Any]) -> AgentConfig:
    """Build an AgentConfig from a flat JSON-style mapping of known keys."""
    known = {f.name for f in fields(AgentConfig)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown agent config keys: {sorted(unknown)}")
    return replace(AgentConfig(), **dict(payload))
