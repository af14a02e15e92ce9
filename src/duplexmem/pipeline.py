"""Asynchronous memory management over dialog stream chunks.

A management cycle takes one stream segment, finds the dialog sessions inside
it, and turns each session into profile writes: transcribe, extract memory,
verify who was speaking (face first, voice as fallback), then either update
the matched profile through the update agent or enroll a new user, and link
the user to the known users the session names. Every session is processed
inside its own fault boundary, so one bad span or one failing backend call
never poisons the rest of the chunk.

Re-running a cycle over the same segment is a no-op by construction: the
update agent drops exact duplicates, empty resolutions are not applied, and
edge insertion is idempotent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .backends import BackendSuite
from .sessions import (
    DEFAULT_GAP_STEPS,
    ActivityTagger,
    ExtractionResult,
    RepairNote,
    SessionSpan,
    TaggerBackend,
    extract_sessions,
    tag_stream,
)
from .store import (
    ExtractedMemory,
    MemoryStore,
    RelationTriplet,
    UpdateResolution,
    UserProfile,
)
from .stream import StreamSegment
from .verification import (
    DEFAULT_FACE_DELTA,
    DEFAULT_SPEAKER_THETA,
    CohortSet,
    Embedding,
    VerificationDecision,
    face_verify,
    speaker_verify,
)

logger = logging.getLogger(__name__)


class PipelineError(Exception):
    pass


class EmptyTranscriptError(PipelineError):
    """The session span produced no transcribable audio."""


@dataclass(frozen=True)
class CycleConfig:
    """Knobs for one management cycle."""

    face_delta: float = DEFAULT_FACE_DELTA
    speaker_theta: float = DEFAULT_SPEAKER_THETA
    timestamp: str = ""
    gap_steps: int = DEFAULT_GAP_STEPS
    voice_query_cohort: CohortSet | None = None
    voice_key_cohort: CohortSet | None = None


@dataclass(frozen=True)
class SessionClip:
    """One session span cut out of a segment, in absolute step coordinates."""

    start_step: int
    end_step: int  # inclusive
    marker: int | None

    @property
    def sample_index(self) -> int:
        # ties the mock encoders' observation noise to the span position
        return self.start_step


@dataclass(frozen=True)
class SessionRecord:
    """What happened to one session during a cycle."""

    start_step: int
    end_step: int
    action: str  # "updated" | "unchanged" | "created" | "skipped" | "failed"
    user_id: str | None = None
    reason: str = ""
    error_type: str = ""
    facts_added: int = 0
    summaries_added: int = 0
    edges_added: int = 0
    unresolved_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.action not in ("updated", "unchanged", "created", "skipped", "failed"):
            raise PipelineError(f"unknown session action {self.action!r}")
        object.__setattr__(self, "unresolved_names", tuple(self.unresolved_names))


@dataclass(frozen=True)
class CycleReport:
    chunk_start: int
    chunk_end: int  # exclusive
    records: tuple[SessionRecord, ...]
    repairs: tuple[RepairNote, ...]

    def count(self, action: str) -> int:
        return sum(1 for record in self.records if record.action == action)

    @property
    def write_count(self) -> int:
        return sum(
            record.facts_added + record.summaries_added + record.edges_added
            for record in self.records
        ) + self.count("created")

    def to_payload(self) -> dict:
        return {
            "chunk_start": self.chunk_start,
            "chunk_end": self.chunk_end,
            "sessions": [
                {
                    "start_step": r.start_step,
                    "end_step": r.end_step,
                    "action": r.action,
                    "user_id": r.user_id,
                    "reason": r.reason,
                    "error_type": r.error_type,
                    "facts_added": r.facts_added,
                    "summaries_added": r.summaries_added,
                    "edges_added": r.edges_added,
                    "unresolved_names": list(r.unresolved_names),
                }
                for r in self.records
            ],
            "repairs": [
                {"kind": n.kind, "step": n.step, "message": n.message} for n in self.repairs
            ],
        }


def clip_session(segment: StreamSegment, span: SessionSpan) -> SessionClip:
    """Cut one tagged span (segment-relative, inclusive) out of a segment."""
    if span.start_step < 0 or span.end_step >= len(segment):
        raise PipelineError(
            f"span [{span.start_step}, {span.end_step}] exceeds segment of {len(segment)} steps"
        )
    sub = StreamSegment(
        segment.tokens[span.start_step:span.end_step + 1],
        segment.start_step + span.start_step,
    )
    return SessionClip(
        start_step=sub.start_step,
        end_step=sub.start_step + len(sub) - 1,
        marker=sub.dominant_marker(),
    )


def extract_memory(clip: SessionClip, backends: BackendSuite, timestamp: str) -> ExtractedMemory:
    """Transcribe a clip and run the extractor over the transcript."""
    if clip.marker is None:
        raise EmptyTranscriptError("session has no user marker to transcribe")
    asr_body = backends.asr.call(
        {"marker": clip.marker, "start_step": clip.start_step, "end_step": clip.end_step}
    )
    transcript = asr_body["transcript"]
    if not transcript.strip():
        raise EmptyTranscriptError(
            f"no transcript for steps [{clip.start_step}, {clip.end_step}]"
        )
    payload = backends.extractor.call({"transcript": transcript, "timestamp": timestamp})
    return ExtractedMemory.from_payload(payload)


def resolve_update(
    extracted: ExtractedMemory,
    profile: UserProfile,
    backends: BackendSuite,
) -> UpdateResolution:
    """Ask the update agent to reconcile extracted memory with a profile."""
    body = backends.update_agent.call(
        {"extracted": extracted.to_payload(), "profile": profile.to_payload()}
    )
    return UpdateResolution.from_payload(body)


def _resolve_edges(
    store: MemoryStore,
    user_id: str,
    extracted: ExtractedMemory,
) -> tuple[int, tuple[str, ...]]:
    """Turn the session's relation facts into edges from user_id.

    Returns how many edges were new, and the names that matched no other
    user (unknown, ambiguous or the user's own), in first-seen order.
    """
    if not extracted.relation_facts:
        return 0, ()
    directory = store.name_directory()
    added = 0
    unresolved: list[str] = []
    for relation, name in extracted.relation_facts:
        other = directory.get(name)
        if other is None or other == user_id:
            unresolved.append(name)
        else:
            added += store.add_relation_edge(RelationTriplet(user_id, relation, other))
    return added, tuple(dict.fromkeys(unresolved))


def _verify_identity(
    face: Embedding | None,
    voice: Embedding | None,
    store: MemoryStore,
    config: CycleConfig,
) -> VerificationDecision | None:
    """Face rule first; cohort-normalized voice check when no face was seen.

    Returns None when there is no usable identity signal at all.
    """
    if face is not None:
        return face_verify(face, store.user_keys("face"), config.face_delta)
    query_cohort, key_cohort = config.voice_query_cohort, config.voice_key_cohort
    if voice is not None and query_cohort is not None and key_cohort is not None:
        return speaker_verify(
            voice, store.user_keys("voice"), query_cohort, key_cohort, config.speaker_theta
        )
    return None


def process_session(
    clip: SessionClip,
    store: MemoryStore,
    backends: BackendSuite,
    config: CycleConfig,
) -> SessionRecord:
    """Run one session end to end: transcribe, extract, verify, write."""
    face = backends.encode_av("face", clip.marker, clip.sample_index)
    voice = backends.encode_av("voice", clip.marker, clip.sample_index)
    if face is None and voice is None:
        return SessionRecord(
            clip.start_step, clip.end_step, "skipped", reason="no identity signal"
        )

    extracted = extract_memory(clip, backends, config.timestamp)
    decision = _verify_identity(face, voice, store, config)
    if decision is None:
        return SessionRecord(
            clip.start_step,
            clip.end_step,
            "skipped",
            reason="no face observation and voice fallback is not configured",
        )

    if decision.outcome == "matched":
        assert decision.user_id is not None
        profile = store.lookup_user(decision.user_id)
        resolution = resolve_update(extracted, profile, backends)
        has_profile_changes = bool(
            resolution.fact_appends
            or resolution.summary_appends
            or resolution.persona_updates
            or resolution.replacements
        )
        if has_profile_changes:
            store.apply_profile_update(decision.user_id, resolution)
        edges_added, unresolved = _resolve_edges(store, decision.user_id, extracted)
        return SessionRecord(
            clip.start_step,
            clip.end_step,
            "updated" if has_profile_changes or edges_added else "unchanged",
            user_id=decision.user_id,
            facts_added=len(resolution.fact_appends),
            summaries_added=len(resolution.summary_appends),
            edges_added=edges_added,
            unresolved_names=unresolved,
        )

    # new user: enrollment needs both modality keys from this session
    if face is None or voice is None:
        missing = "face" if face is None else "voice"
        return SessionRecord(
            clip.start_step,
            clip.end_step,
            "skipped",
            reason=f"unmatched speaker but no {missing} key to enroll",
        )
    user_id = store.create_user(face, voice, extracted, timestamp=config.timestamp)
    edges_added, unresolved = _resolve_edges(store, user_id, extracted)
    return SessionRecord(
        clip.start_step,
        clip.end_step,
        "created",
        user_id=user_id,
        facts_added=len(extracted.user_facts),
        summaries_added=len(extracted.summary_sentences),
        edges_added=edges_added,
        unresolved_names=unresolved,
    )


def run_management_cycle(
    chunk: StreamSegment,
    store: MemoryStore,
    backends: BackendSuite,
    config: CycleConfig = CycleConfig(),
    tagger: TaggerBackend | None = None,
) -> CycleReport:
    """Tag a chunk, extract its sessions, and process each one in isolation.

    A tagger failure fails the whole chunk: it is reported as one failed
    record spanning the chunk, and no session of it is processed.
    """
    if tagger is None:
        tagger = ActivityTagger(gap_steps=config.gap_steps)
    try:
        tags = tag_stream(chunk, tagger)
    except Exception as exc:  # noqa: BLE001 - the chunk's fault boundary
        logger.warning(
            "chunk [%d, %d) tagging failed: %s", chunk.start_step, chunk.end_step, exc,
            exc_info=True,
        )
        failed = SessionRecord(
            chunk.start_step,
            chunk.end_step - 1,
            "failed",
            reason=str(exc),
            error_type=type(exc).__name__,
        )
        return CycleReport(chunk.start_step, chunk.end_step, (failed,), ())
    extraction: ExtractionResult = extract_sessions(tags)

    records: list[SessionRecord] = []
    for span in extraction.spans:
        try:
            clip = clip_session(chunk, span)
            records.append(process_session(clip, store, backends, config))
        except Exception as exc:  # noqa: BLE001 - the fault boundary
            start = chunk.start_step + span.start_step
            end = chunk.start_step + span.end_step
            logger.warning("session [%d, %d] failed: %s", start, end, exc)
            records.append(
                SessionRecord(
                    start,
                    end,
                    "failed",
                    reason=str(exc),
                    error_type=type(exc).__name__,
                )
            )
    return CycleReport(
        chunk_start=chunk.start_step,
        chunk_end=chunk.end_step,
        records=tuple(records),
        repairs=extraction.repairs,
    )
