"""Identity-keyed long-term memory store.

Profiles are keyed by synthetic user ids and carry a name, timestamped facts
and dialog summaries, a sparse persona over a fixed slot schema, and a version
counter. The social graph is a set of directed relation triplets whose
endpoints must exist; neighborhood queries treat edges as undirected. Writes
are serialized under a lock and always replace whole profile snapshots, so
readers never observe partial updates and a snapshot handed out earlier never
mutates.

A profile holds neither keys nor edges: each is kept in one place. Face and
voice keys are rows of one append-only KeyMatrix per modality, in creation
(or load) order, and user_keys hands out a prefix view of the rows, so no
view ever mutates. Rows are never changed or removed. Edges live only in the
graph.

Persistence is a directory: store.json (a header line, then one line per
user record), an append-only key file and an append-only JSONL audit log.
Renaming store.json into place is the one commit point, and a persist writes
and hashes only what changed since the store last read or wrote the
directory; see MemoryStore.persist.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import logging
import os
import re
import threading
import types
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .persona import DEFAULT_PERSONA_SLOTS
from .verification import (
    SCREEN_EPS,
    Embedding,
    EmbeddingShapeError,
    KeyMatrix,
    KeyView,
    cosine_distance,
)

logger = logging.getLogger(__name__)

UNKNOWN_USER_NAME = "unknown_user"

STORE_FORMAT = "memory-store/3"
_FORMAT_2, _FORMAT_1 = "memory-store/2", "memory-store/1"  # older formats, which still load
_MANIFEST_FILE = "store.json"
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")  # CohortSet.fingerprint
# what persist writes (embeddings files are older formats' key sidecars), and
# so may delete once the manifest no longer names it
_OWN_FILE = re.compile(
    r"(store\.json|embeddings(-[0-9a-f]{64})?\.bin|keys(-\d+)?\.bin|audit(-\d+)?\.log)(\.tmp)?"
)


class StoreError(Exception):
    pass


class UnknownUserError(StoreError):
    pass


class StaleResolutionError(StoreError):
    """The resolution was computed against an outdated profile version."""


class PersonaSchemaError(StoreError):
    pass


class ReplacementIntegrityError(StoreError):
    """A replacement cites an item that does not exist at the base version."""


class StoreChecksumError(StoreError):
    """Persisted key rows or key statistics do not match their checksum."""


@dataclass(frozen=True)
class MemoryItem:
    text: str
    timestamp: str

    def __post_init__(self) -> None:
        if not self.text:
            raise StoreError("memory items carry non-empty text")


@dataclass(frozen=True)
class RelationTriplet:
    from_user: str
    relation: str
    to_user: str

    def __post_init__(self) -> None:
        if not self.from_user or not self.to_user or not self.relation:
            raise StoreError("relation triplets need both endpoints and a label")
        if self.from_user == self.to_user:
            raise StoreError("relation triplets cannot be self loops")


@dataclass(frozen=True)
class ExtractedMemory:
    """What one session contributed, as produced by the extraction backend."""

    summary_sentences: tuple[str, ...] = ()
    user_facts: tuple[str, ...] = ()
    persona_trail: Mapping[str, str] = field(default_factory=dict)
    user_name: str = UNKNOWN_USER_NAME
    relation_facts: tuple[tuple[str, str], ...] = ()  # (relation, other user's name)
    session_timestamp: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "summary_sentences", tuple(self.summary_sentences))
        object.__setattr__(self, "user_facts", tuple(self.user_facts))
        object.__setattr__(self, "persona_trail", dict(self.persona_trail))
        object.__setattr__(self, "relation_facts", tuple(map(tuple, self.relation_facts)))

    def to_payload(self) -> dict[str, Any]:
        return {
            "summary_sentences": list(self.summary_sentences),
            "user_facts": list(self.user_facts),
            "persona_trail": dict(self.persona_trail),
            "user_name": self.user_name,
            "relation_facts": [list(pair) for pair in self.relation_facts],
            "session_timestamp": self.session_timestamp,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ExtractedMemory":
        return cls(
            summary_sentences=tuple(payload.get("summary_sentences", ())),
            user_facts=tuple(payload.get("user_facts", ())),
            persona_trail=dict(payload.get("persona_trail", {})),
            user_name=payload.get("user_name", UNKNOWN_USER_NAME),
            relation_facts=tuple((r, n) for r, n in payload.get("relation_facts", ())),
            session_timestamp=payload.get("session_timestamp", ""),
        )


@dataclass(frozen=True)
class PersonaReplacement:
    slot: str
    old_value: str
    new_value: str
    reason: str


@dataclass(frozen=True)
class UpdateResolution:
    """A reviewed set of profile changes, pinned to a base version."""

    target_user: str
    base_version: int
    fact_appends: tuple[MemoryItem, ...] = ()
    summary_appends: tuple[MemoryItem, ...] = ()
    persona_updates: Mapping[str, str] = field(default_factory=dict)
    replacements: tuple[PersonaReplacement, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "fact_appends", tuple(self.fact_appends))
        object.__setattr__(self, "summary_appends", tuple(self.summary_appends))
        object.__setattr__(self, "persona_updates", dict(self.persona_updates))
        object.__setattr__(self, "replacements", tuple(self.replacements))

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "UpdateResolution":
        return cls(
            target_user=payload["target_user"],
            base_version=int(payload["base_version"]),
            fact_appends=tuple(
                MemoryItem(i["text"], i["timestamp"]) for i in payload.get("fact_appends", ())
            ),
            summary_appends=tuple(
                MemoryItem(i["text"], i["timestamp"]) for i in payload.get("summary_appends", ())
            ),
            persona_updates=dict(payload.get("persona_updates", {})),
            replacements=tuple(
                PersonaReplacement(r["slot"], r["old"], r["new"], r["reason"])
                for r in payload.get("replacements", ())
            ),
        )


@dataclass(frozen=True)
class UserProfile:
    """Immutable snapshot of one user's memory."""

    user_id: str
    name: str = UNKNOWN_USER_NAME
    facts: tuple[MemoryItem, ...] = ()
    dialog_summaries: tuple[MemoryItem, ...] = ()
    persona: Mapping[str, str] = field(default_factory=dict)  # kept as a read-only mapping
    version: int = 1

    def __post_init__(self) -> None:
        if self.version < 1:
            raise StoreError("profile versions start at 1")
        object.__setattr__(self, "facts", tuple(self.facts))
        object.__setattr__(self, "dialog_summaries", tuple(self.dialog_summaries))
        object.__setattr__(self, "persona", types.MappingProxyType(dict(self.persona)))

    @classmethod
    def _of_record(cls, user_id: str, record: Mapping[str, Any]) -> "UserProfile":
        """A profile from its manifest record (to_payload's form, read from
        disk), with every check that record can fail."""
        version, name = record["version"], record["name"]
        persona = _expect(record["persona"], dict, "a persona")
        if type(version) is not int or version < 1:
            raise StoreError(f"profile versions start at 1 and are integers, not {version!r}")
        if type(name) is not str:
            raise StoreError(f"profile names are strings, not {name!r}")
        if persona and not all(type(value) is str for value in persona.values()):
            raise StoreError(f"persona values are strings: {persona!r}")
        profile = object.__new__(cls)
        profile.__dict__.update(  # frozen: the fields are set in place, once
            user_id=user_id,
            name=name,
            facts=tuple([_item(i) for i in record["facts"]]),
            dialog_summaries=tuple([_item(i) for i in record["dialog_summaries"]]),
            persona=types.MappingProxyType(dict(persona)),
            version=version,
        )
        return profile

    def to_payload(self) -> dict[str, Any]:
        """The manifest's user record, which the update agent also receives."""
        return {
            "user_id": self.user_id,
            "name": self.name,
            "version": self.version,
            "facts": [{"text": i.text, "timestamp": i.timestamp} for i in self.facts],
            "dialog_summaries": [
                {"text": i.text, "timestamp": i.timestamp} for i in self.dialog_summaries
            ],
            "persona": dict(self.persona),
        }


def _item(record: Mapping[str, Any]) -> MemoryItem:
    """A fact or summary from its manifest record; text and timestamp must
    be strings."""
    text, timestamp = record["text"], record["timestamp"]
    if type(text) is not str or type(timestamp) is not str:
        raise TypeError(f"memory item texts and timestamps are strings: {record!r}")
    return MemoryItem(text, timestamp)


def _expect(value: Any, kind: type, what: str) -> Any:
    """value, when JSON read it as a kind; else TypeError."""
    if type(value) is not kind:
        names = {dict: "object", list: "array"}
        raise TypeError(f"{what} must be a JSON {names[kind]}, not {type(value).__name__}")
    return value


class MemoryStore:
    """The writer-serialized profile and relation-graph store."""

    def __init__(self, persona_slots: Sequence[str] = DEFAULT_PERSONA_SLOTS):
        if len(persona_slots) != len(set(persona_slots)) or not persona_slots:
            raise PersonaSchemaError("persona slots must be unique and non-empty")
        self._persona_slots = tuple(persona_slots)
        self._lock = threading.RLock()
        self._users: dict[str, UserProfile] = {}
        self._edges: set[tuple[str, str, str]] = set()  # (from, relation, to)
        self._keys = {modality: KeyMatrix(modality) for modality in ("face", "voice")}
        self._audit: list[dict[str, Any]] = []
        self._store_version = 0
        self._next_user = 1
        self._disk: _Committed | None = None  # what it last read or wrote
        # persist's memos, changed only by load and persist: each user's
        # store.json line and the snapshot it encodes; store.json as load
        # read it, with the profile of each user line persist may write as
        # it is, until the next persist splits it; and the sha256 state of
        # the first n key rows. The state changes with _disk, so a committed
        # key file that _disk names never holds more rows than it covers.
        self._lines: dict[str, bytes] = {}
        self._line_of: dict[str, UserProfile] = {}
        self._unsplit: tuple[bytes, list[UserProfile | None]] | None = None
        self._key_digest = (0, hashlib.sha256())

    # -- read side -------------------------------------------------------

    @property
    def store_version(self) -> int:
        return self._store_version

    @property
    def persona_slots(self) -> tuple[str, ...]:
        return self._persona_slots

    @property
    def user_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._users))

    @property
    def audit_entries(self) -> tuple[Mapping[str, Any], ...]:
        with self._lock:
            return tuple(self._audit)

    def lookup_user(self, user_id: str) -> UserProfile:
        with self._lock:
            profile = self._users.get(user_id)
        if profile is None:
            raise UnknownUserError(f"no user {user_id!r}")
        return profile

    def user_keys(self, modality: str) -> KeyView:
        """(user_id, key) pairs for one modality, sorted by user id: an
        immutable view of the key rows as they are now."""
        if modality not in self._keys:
            raise StoreError(f"no stored keys for modality {modality!r}")
        with self._lock:
            return self._keys[modality].view()

    def name_directory(self) -> dict[str, str]:
        """Map from display name to user id, skipping unknown and ambiguous names."""
        with self._lock:
            counts: dict[str, int] = {}
            for profile in self._users.values():
                if profile.name != UNKNOWN_USER_NAME:
                    counts[profile.name] = counts.get(profile.name, 0) + 1
            return {
                profile.name: uid
                for uid, profile in sorted(self._users.items())
                if profile.name != UNKNOWN_USER_NAME and counts[profile.name] == 1
            }

    def connected_users(self, user_id: str) -> list[tuple[str, str]]:
        """Graph neighbors of a user with their relation labels.

        Edges are stored directed but neighborhoods are undirected: an edge in
        either direction makes the other endpoint a neighbor. Sorted by
        (neighbor id, relation).
        """
        with self._lock:
            if user_id not in self._users:
                raise UnknownUserError(f"no user {user_id!r}")
            pairs: set[tuple[str, str]] = set()
            for from_user, relation, to_user in self._edges:
                if from_user == user_id:
                    pairs.add((to_user, relation))
                elif to_user == user_id:
                    pairs.add((from_user, relation))
            return sorted(pairs)

    def neighbor_counts(self) -> dict[str, int]:
        """len(connected_users(uid)) for every user, from one pass over the edges."""
        with self._lock:
            counts = dict.fromkeys(self._users, 0)
            pairs = {(f, t, r) for f, r, t in self._edges} | {(t, f, r) for f, r, t in self._edges}
            for user_id, _, _ in pairs:
                counts[user_id] += 1
            return counts

    # -- write side ------------------------------------------------------

    def create_user(
        self,
        face_key: Embedding,
        voice_key: Embedding,
        initial: ExtractedMemory,
        timestamp: str = "",
    ) -> str:
        """Create a profile from a first session. Duplicate identities (an
        existing profile with an identical key) are allowed but logged. Keys
        of the wrong modalities raise StoreError before any row is added."""
        if face_key.modality != "face" or voice_key.modality != "voice":
            raise StoreError("profile keys must be a face and a voice embedding")
        ts = timestamp or initial.session_timestamp
        with self._lock:
            self._validate_persona(initial.persona_trail)
            duplicate = self._duplicate_of(face_key, voice_key)
            if duplicate is not None:
                logger.warning("new profile duplicates identity keys of %s", duplicate)
                self._audit.append(
                    {"action": "duplicate_identity_warning", "existing_user": duplicate}
                )
            user_id = f"user_{self._next_user:04d}"
            self._next_user += 1
            self._keys["face"].append(user_id, face_key.values)
            self._keys["voice"].append(user_id, voice_key.values)
            profile = UserProfile(
                user_id=user_id,
                name=initial.user_name or UNKNOWN_USER_NAME,
                facts=tuple(MemoryItem(t, ts) for t in initial.user_facts),
                dialog_summaries=tuple(MemoryItem(t, ts) for t in initial.summary_sentences),
                persona=initial.persona_trail,
                version=1,
            )
            self._users[user_id] = profile
            self._store_version += 1
            self._audit.append(
                {
                    "action": "create_user",
                    "user_id": user_id,
                    "name": profile.name,
                    "timestamp": ts,
                    "store_version": self._store_version,
                }
            )
            return user_id

    def _duplicate_of(self, face: Embedding, voice: Embedding) -> str | None:
        """The smallest user id with a key at cosine distance 0 from a new key.

        Distance 0 means a similarity of at least 1, so only rows screened
        within SCREEN_EPS of 1 can hold one; the per-pair rule decides.
        """
        if not self._users:
            return None
        faces, voices = self._keys["face"].view(), self._keys["voice"].view()
        near = (faces.similarities(face) >= 1.0 - SCREEN_EPS) | (
            voices.similarities(voice) >= 1.0 - SCREEN_EPS
        )
        # both matrices hold the same ids in the same rows, so the pairs line up
        for (_, uid, face_row), (_, _, voice_row) in zip(
            faces.in_id_order(near), voices.in_id_order(near)
        ):
            if cosine_distance(face, face_row) == 0.0 or cosine_distance(voice, voice_row) == 0.0:
                return uid
        return None

    def apply_profile_update(self, user_id: str, resolution: UpdateResolution) -> int:
        """Apply a reviewed resolution; returns the new profile version.

        Rejects resolutions computed against a stale version. Replacements
        must cite the live persona value; every change lands in the audit log
        with old value, new value, and reason. Relation edges are not part
        of a resolution: they are written with add_relation_edge, keeping
        profile writes and graph writes separable.
        """
        with self._lock:
            profile = self._users.get(user_id)
            if profile is None:
                raise UnknownUserError(f"no user {user_id!r}")
            if resolution.target_user != user_id:
                raise StoreError(
                    f"resolution targets {resolution.target_user!r}, not {user_id!r}"
                )
            if resolution.base_version != profile.version:
                raise StaleResolutionError(
                    f"resolution base version {resolution.base_version} does not match "
                    f"live version {profile.version}"
                )
            self._validate_persona(resolution.persona_updates)
            persona = dict(profile.persona)
            for rep in resolution.replacements:
                if rep.slot not in self._persona_slots:
                    raise PersonaSchemaError(f"unknown persona slot {rep.slot!r}")
                if persona.get(rep.slot) != rep.old_value:
                    raise ReplacementIntegrityError(
                        f"replacement for {rep.slot!r} cites {rep.old_value!r} but the live "
                        f"value is {persona.get(rep.slot)!r}"
                    )
                persona[rep.slot] = rep.new_value
                self._audit.append(
                    {
                        "action": "replace_persona",
                        "user_id": user_id,
                        "slot": rep.slot,
                        "old": rep.old_value,
                        "new": rep.new_value,
                        "reason": rep.reason,
                    }
                )
            for slot, value in resolution.persona_updates.items():
                current = persona.get(slot)
                if current is not None and current != value:
                    raise ReplacementIntegrityError(
                        f"persona update for {slot!r} would overwrite {current!r}; "
                        "conflicting values must arrive as replacements"
                    )
                persona[slot] = value
            new_version = profile.version + 1
            updated = replace(
                profile,
                facts=profile.facts + resolution.fact_appends,
                dialog_summaries=profile.dialog_summaries + resolution.summary_appends,
                persona=persona,
                version=new_version,
            )
            self._users[user_id] = updated
            self._store_version += 1
            self._audit.append(
                {
                    "action": "apply_update",
                    "user_id": user_id,
                    "facts_appended": len(resolution.fact_appends),
                    "summaries_appended": len(resolution.summary_appends),
                    "persona_set": sorted(resolution.persona_updates),
                    "replacements": len(resolution.replacements),
                    "from_version": profile.version,
                    "to_version": new_version,
                    "store_version": self._store_version,
                }
            )
            return new_version

    def add_relation_edge(self, triplet: RelationTriplet) -> bool:
        """Insert an edge; returns False when it already exists (idempotent)."""
        key = (triplet.from_user, triplet.relation, triplet.to_user)
        with self._lock:
            for endpoint in (triplet.from_user, triplet.to_user):
                if endpoint not in self._users:
                    raise UnknownUserError(f"edge endpoint {endpoint!r} does not exist")
            if key in self._edges:
                return False
            self._edges.add(key)
            self._store_version += 1
            self._audit.append(
                {
                    "action": "add_edge",
                    "edge": list(key),
                    "store_version": self._store_version,
                }
            )
            return True

    def _validate_persona(self, mapping: Mapping[str, str]) -> None:
        for slot in mapping:
            if slot not in self._persona_slots:
                raise PersonaSchemaError(f"unknown persona slot {slot!r}")

    # -- equality (used by persistence round-trip checks) ----------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryStore):
            return NotImplemented
        with self._lock, other._lock:
            return (
                self._persona_slots == other._persona_slots
                and self._users == other._users
                and all(_same_keys(self._keys[m].view(), other._keys[m].view()) for m in self._keys)
                and self._edges == other._edges
                and self._store_version == other._store_version
                and self._next_user == other._next_user
                and self._audit == other._audit
            )

    __hash__ = None  # type: ignore[assignment]

    # -- persistence -----------------------------------------------------

    def persist(self, path: str) -> None:
        """Write the store to a directory: store.json, key file, audit log.

        Renaming the new store.json into place is the one commit point.
        Before it, persist changes no byte that the current store.json names:
        the key file and the log only grow past the lengths it records, or go
        to new files. So a persist that stops anywhere leaves the old store
        or the new one for load. After it, persist deletes the files the new
        store.json no longer names. Its own audit entry joins the store's
        entries at the commit, so a persist that fails before it leaves no
        entry behind. One directory has one writer at a time; concurrent
        persists of one store serialize on its writer lock, and the last one
        wins.

        A persist writes only what changed since the store last read or
        wrote the directory: when store.json there is the one it last read
        or wrote, the new key rows and audit entries are appended to the
        committed files, else both are written afresh under unused names. It
        hashes only the key rows added since it last read or wrote any
        directory, carrying the sha256 state of the rows before them, and
        encodes only the profiles whose snapshot is not the one it last read
        or wrote; the other user lines are the bytes it read or wrote then.
        Key-side statistics that a KeyMatrix caches go into the header, as
        base64 of their float64 means and stds, with their own sha256.
        """
        with self._lock:
            entry = {"action": "persist", "path": str(path), "store_version": self._store_version}
            os.makedirs(path, exist_ok=True)
            manifest_path = os.path.join(path, _MANIFEST_FILE)
            disk = self._disk
            if disk is not None and _file_key(manifest_path) != disk.manifest:
                disk = None
            views = {kind: matrix.view() for kind, matrix in self._keys.items()}
            hashed, digest = self._key_digest
            digest = digest.copy()

            def key_rows(start: int) -> tuple[np.ndarray, int]:
                rows = np.concatenate([v.rows(start) for v in views.values()], axis=1, dtype="<f4")
                digest.update(rows[hashed - start:])  # start <= hashed: see __init__
                return rows, len(views["face"])

            def log_lines(start: int) -> tuple[bytes, int]:
                new = [*self._audit[start:], entry]
                text = "".join(json.dumps(e, sort_keys=True) + "\n" for e in new)
                return text.encode("utf-8"), start + len(new)

            keys = _append(path, disk and disk.keys, "keys", ".bin", key_rows)
            audit = _append(path, disk and disk.audit, "audit", ".log", log_lines)
            header = {
                "format": STORE_FORMAT,
                "store_version": self._store_version,
                "next_user": self._next_user,
                "persona_slots": list(self._persona_slots),
                "edges": sorted(list(key) for key in self._edges),
                "key_rows": views["face"].ids,
                "key_dims": {kind: view.matrix.dim for kind, view in views.items()},
                "keys_file": keys.name,
                "keys_sha256": digest.hexdigest(),
                "audit_file": audit.name,
                "audit_bytes": audit.length,
            }
            key_stats = {}
            for kind, matrix in self._keys.items():
                stats = matrix.stats()
                if stats is not None:
                    key_stats[kind] = _stats_block(*stats)
            if key_stats:
                header["key_stats"] = key_stats
            if self._unsplit is not None:  # the lines load read, split only now
                text, kept = self._unsplit
                for profile, line in zip(kept, text.split(b"\n")[1:]):
                    if profile is not None:
                        self._line_of[profile.user_id] = profile
                        self._lines[profile.user_id] = line
                self._unsplit = None
            lines = [json.dumps(header, sort_keys=True).encode("utf-8")]
            for uid in sorted(self._users):
                profile = self._users[uid]
                if self._line_of.get(uid) is not profile:
                    self._line_of[uid] = profile
                    self._lines[uid] = json.dumps(profile.to_payload(), sort_keys=True).encode("utf-8")
                lines.append(self._lines[uid])
            lines.append(b"")  # every line ends in a newline
            _fsync_dir(path)  # the new names are durable before store.json cites them
            _atomic_write(manifest_path, b"\n".join(lines))
            self._audit.append(entry)
            self._disk = _Committed(_file_key(manifest_path), audit, keys)
            self._key_digest = (keys.count, digest)
            _fsync_dir(path)
            for name in os.listdir(path):
                if name not in (_MANIFEST_FILE, keys.name, audit.name) and _OWN_FILE.fullmatch(name):
                    os.unlink(os.path.join(path, name))

    @classmethod
    def load(cls, path: str) -> "MemoryStore":
        """Read a store written by persist, in this format or memory-store/2
        or /1; the next persist of a store of an older format writes this
        one afresh.

        A store.json, key file or audit log that cannot be read back raises
        StoreError, chained to the cause, and so does a store that breaks an
        invariant: an edge endpoint or key row that is no user, a persona
        slot outside the schema, persona slots that are no JSON array of
        strings, a persona value that is no str, a profile version or
        next_user below 1, a store_version below 0, any of these three that
        is no int (bools are not), a name, fact or summary text or timestamp
        that is no str, an empty fact or summary text, a header, user
        record (users, in the older formats) or persona that is no JSON
        object, two user lines of one user id, edges that are no list, a user
        id at or above next_user, a key file or audit log shorter than its
        committed length, or a key_stats block whose rows are no int in
        1..n, whose cohort is no sha256 hex digest, or whose means are not
        finite or stds not finite and above 0. Key rows or statistics that
        do not match their sha256 raise StoreChecksumError.

        Load reads only the committed length of each appended file: a tail
        past it is what a crashed persist left. It decodes store.json a line
        at a time, builds each profile straight from its record, and keeps a
        user line for the next persist when its record has exactly the keys
        UserProfile.to_payload writes; if a line holds no one whole record, it
        reads the lines as one JSON array and keeps none. Each key modality
        goes into its KeyMatrix as one (n, dim) view of the key file's bytes,
        with its statistics restored (key_stats checks them on first use). The
        key rows' sha256 state is kept, so the next persist hashes only the
        rows appended after them. A memory-store/2 sidecar's statistics are
        not read: they are derived, and scored again on first use.
        """
        try:
            with open(os.path.join(path, _MANIFEST_FILE), "rb") as fh:
                manifest_key = _file_key(fh.fileno())
                data = fh.read()
            text = data.removesuffix(b"\n")
            try:  # the header and the user records, a line each or as JSON lines
                whole = _line_values(text.decode("utf-8"))
                manifest, *records = _json_lines(text) if whole is None else whole
            except ValueError:  # memory-store/1 and /2 are one JSON object, on any lines
                manifest, records, whole = json.loads(data), [], None
            manifest = _expect(manifest, dict, "the manifest")
            fmt = manifest.get("format")
            if fmt not in (STORE_FORMAT, _FORMAT_2, _FORMAT_1):
                raise StoreError(f"unsupported store format {fmt!r}")
            if manifest.get("aux"):  # older manifests carry "aux": [], which loads
                raise StoreError("aux documents are no longer supported")
            slots = _expect(manifest["persona_slots"], list, "persona slots")
            if not set(map(type, slots)) <= {str}:
                raise StoreError(f"persona slots are strings, not {slots!r}")
            store = cls(persona_slots=tuple(slots))
            matrices, n = store._keys, len(manifest.get("key_rows", ()))
            if fmt != _FORMAT_1:
                dims = manifest["key_dims"]
                for kind, matrix in matrices.items():
                    if dims[kind] != matrix.dim:
                        raise EmbeddingShapeError(f"{kind} keys have {matrix.dim} dims, not {dims[kind]}")
            if fmt == STORE_FORMAT:
                if not set(map(type, records)) <= {dict}:
                    raise StoreError("user records are JSON objects")
                users = {record["user_id"]: record for record in records}
                if len(users) != len(records) or not set(map(type, users)) <= {str}:
                    raise StoreError("user ids are strings, one line each")
                ids = manifest["key_rows"]
                planes, keys, store._key_digest = _key_file_rows(path, manifest, n, matrices)
                stats = _restored_stats(manifest.get("key_stats", {}), n, matrices)
            else:
                with open(os.path.join(path, manifest["embeddings_file"]), "rb") as fh:
                    sidecar = fh.read()
                if hashlib.sha256(sidecar).hexdigest() != manifest["embeddings_sha256"]:
                    raise StoreChecksumError("embedding sidecar does not match its manifest checksum")
                users, keys, stats = _expect(manifest["users"], dict, "users"), None, {}
                if fmt == _FORMAT_1:
                    ids, planes = list(users), _format_1_rows(users, sidecar, matrices)
                else:
                    ids, planes = manifest["key_rows"], _format_2_rows(sidecar, n, matrices)
            if sorted(ids) != sorted(users):
                raise StoreError("the key rows are not one row for each user")
            for kind, matrix in matrices.items():
                matrix.extend(ids, planes[kind])
                if kind in stats:
                    matrix.restore_stats(*stats[kind])
            for name, least in (("next_user", 1), ("store_version", 0)):
                value = manifest[name]
                if type(value) is not int or value < least:
                    raise StoreError(f"{name} is an integer of at least {least}, not {value!r}")
            store._next_user = manifest["next_user"]
            store._store_version = manifest["store_version"]
            kept = []  # each line's profile, when persist may write the line as it is
            for uid, record in users.items():
                if int(uid.removeprefix("user_")) >= store._next_user:
                    raise StoreError(f"next_user {store._next_user} is not above {uid!r}")
                store._users[uid] = profile = UserProfile._of_record(uid, record)
                store._validate_persona(profile.persona)
                # _of_record and the user ids read every key to_payload writes,
                # so a record of as many keys holds no other
                kept.append(profile if len(record) == _RECORD_SIZE else None)
            if fmt == STORE_FORMAT and whole is not None:
                store._unsplit = (text, kept)
            for f, r, t in _expect(manifest["edges"], list, "edges"):
                for endpoint in (f, t):
                    if endpoint not in users:
                        raise UnknownUserError(f"edge endpoint {endpoint!r} is no user")
                RelationTriplet(f, r, t)  # raises on a self loop or an empty label
                store._edges.add((f, r, t))
            if fmt == _FORMAT_1:
                audit_path = os.path.join(path, "audit.log")
                if os.path.exists(audit_path):
                    with open(audit_path, "rb") as fh:
                        store._audit = [json.loads(line) for line in fh if line.strip()]
                return store
            audit_file, audit_bytes = manifest["audit_file"], manifest["audit_bytes"]
            with open(os.path.join(path, audit_file), "rb") as fh:
                log = fh.read(audit_bytes)  # a tail past it is a crashed persist's
                log_inode = _file_key(fh.fileno())[:2]
            if len(log) != audit_bytes:
                raise StoreError(f"audit log is shorter than its committed {audit_bytes} bytes")
            store._audit = _json_lines(log)
            audit = _Tail(audit_file, log_inode, audit_bytes, len(store._audit))
            store._disk = _Committed(manifest_key, audit, keys)
            return store
        except (KeyError, TypeError, ValueError, EmbeddingShapeError) as exc:
            raise StoreError(f"unreadable store {path}: {type(exc).__name__}: {exc}") from exc


_RECORD_SIZE = len(UserProfile("").to_payload())
_DECODE = json.JSONDecoder().raw_decode


def _line_values(text: str) -> list[Any] | None:
    """The value of each line of text, or None unless each holds one whole."""
    values, pos = [], 0
    try:
        while True:
            value, pos = _DECODE(text, pos)
            values.append(value)
            if text[pos:pos + 1] != "\n":
                return values if pos == len(text) else None
            pos += 1
    except ValueError:
        return None


def _json_lines(data: bytes) -> list[Any]:
    """The values of JSON lines, each ended by a newline but maybe the last,
    in one decode."""
    return json.loads(b"[" + data.removesuffix(b"\n").replace(b"\n", b",") + b"]")


def _same_keys(a: KeyView, b: KeyView) -> bool:
    """Whether two views hold the same (user_id, key) pairs, as comparing
    list(a) with list(b) tells: both read by user id, ties in row order."""
    if a.ids == b.ids:  # rows in the same order: compare them in place
        return np.array_equal(a.rows(), b.rows())
    ids = [np.array(view.ids, dtype=str) for view in (a, b)]
    order = [np.argsort(row_ids, kind="stable") for row_ids in ids]
    return np.array_equal(ids[0][order[0]], ids[1][order[1]]) and np.array_equal(
        a.rows()[order[0]], b.rows()[order[1]]
    )


class _Tail(NamedTuple):
    """An append-only file as a store.json commits it."""

    name: str
    inode: tuple[int, ...]  # device and inode
    length: int  # committed bytes
    count: int  # and the audit entries or key rows they hold


class _Committed(NamedTuple):
    """What a store last read from or wrote to a directory."""

    manifest: tuple[int, ...] | None  # _file_key of store.json
    audit: _Tail
    keys: _Tail | None  # None when read from memory-store/2


def _append(
    path: str,
    committed: _Tail | None,
    stem: str,
    suffix: str,
    tail_from: Callable[[int], tuple[bytes | np.ndarray, int]],
) -> _Tail:
    """Write an append-only file and make it durable; tail_from(count) gives
    the bytes that follow the first count entries or rows, and the count
    after them. The file is the committed one, written past its committed
    length, when it is still the file the committed tail names; else a new
    file under a name nothing in the directory uses, written from 0."""
    fd, start = None, committed
    if committed is not None:
        try:
            fd = os.open(os.path.join(path, committed.name), os.O_WRONLY)
        except FileNotFoundError:
            pass
        else:
            key = _file_key(fd)
            if key[:2] != committed.inode or key[2] < committed.length:
                os.close(fd)
                fd = None
    k = 0
    while fd is None:
        start = _Tail(f"{stem}-{k}{suffix}" if k else stem + suffix, (), 0, 0)
        try:
            fd = os.open(os.path.join(path, start.name), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            k += 1
    try:
        data, count = tail_from(start.count)
        os.ftruncate(fd, start.length)  # drop what a crashed persist appended
        end = _write(fd, data, start.length)
        os.fsync(fd)
        return _Tail(start.name, _file_key(fd)[:2], end, count)
    finally:
        os.close(fd)


def _file_key(file: str | int) -> tuple[int, ...] | None:
    """Device, inode, size and modification time of a path or descriptor,
    or None when there is no such file: a changed key is a changed file."""
    try:
        st = os.stat(file)
    except FileNotFoundError:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _stats_block(fingerprint: str, means: np.ndarray, stds: np.ndarray) -> dict[str, Any]:
    """A KeyMatrix's cached statistics as the header's key_stats block."""
    data = [values.astype("<f8").tobytes() for values in (means, stds)]
    return {
        "cohort": fingerprint,
        "rows": len(means),
        "means": binascii.b2a_base64(data[0], newline=False).decode("ascii"),
        "stds": binascii.b2a_base64(data[1], newline=False).decode("ascii"),
        "sha256": hashlib.sha256(b"".join(data)).hexdigest(),
    }


def _restored_stats(
    blocks: Any, n: int, matrices: Mapping[str, KeyMatrix]
) -> dict[str, tuple[str, np.ndarray, np.ndarray]]:
    """The header's key_stats blocks, checked, as (cohort fingerprint, means,
    stds) by key modality."""
    if type(blocks) is not dict or not set(blocks) <= set(matrices):
        raise StoreError(f"key_stats maps key modalities to blocks, not {blocks!r}")
    stats = {}
    for kind, block in blocks.items():
        rows, fingerprint = block["rows"], block["cohort"]
        if type(rows) is not int or not 1 <= rows <= n:
            raise StoreError(f"{kind} key_stats rows is an integer in 1..{n}, not {rows!r}")
        if type(fingerprint) is not str or not _FINGERPRINT.fullmatch(fingerprint):
            raise StoreError(f"{kind} key_stats cohort is no sha256 hex digest: {fingerprint!r}")
        # the checksum catches what a lenient base64 decode lets through
        data = [binascii.a2b_base64(block[name]) for name in ("means", "stds")]
        if [len(values) for values in data] != [8 * rows, 8 * rows]:
            raise StoreChecksumError(f"{kind} key_stats do not hold {rows} means and stds")
        data = b"".join(data)
        if hashlib.sha256(data).hexdigest() != block["sha256"]:
            raise StoreChecksumError(f"{kind} key_stats do not match their checksum")
        values = np.frombuffer(data, "<f8").reshape(2, rows).astype(float)
        means, stds = values
        if not (np.isfinite(values).all() and (stds > 0).all()):
            raise StoreError(f"{kind} key statistics need finite means and stds above 0")
        stats[kind] = (fingerprint, means, stds)
    return stats


def _key_file_rows(
    path: str, manifest: Mapping[str, Any], n: int, matrices: Mapping[str, KeyMatrix]
) -> tuple[dict[str, np.ndarray], _Tail, tuple[int, Any]]:
    """The key file's n committed rows, checked against their sha256, as a
    strided view per modality; the file's tail; and the sha256 state."""
    name, width = manifest["keys_file"], sum(matrix.dim for matrix in matrices.values())
    with open(os.path.join(path, name), "rb") as fh:
        data = fh.read(4 * width * n)  # a tail past it is a crashed persist's
        tail = _Tail(name, _file_key(fh.fileno())[:2], len(data), n)
    if len(data) != 4 * width * n:
        raise StoreChecksumError("key file is shorter than its committed rows")
    digest = hashlib.sha256(data)
    if digest.hexdigest() != manifest["keys_sha256"]:
        raise StoreChecksumError("key file does not match its manifest checksum")
    table, planes, start = np.frombuffer(data, "<f4").reshape(n, width), {}, 0
    for kind, matrix in matrices.items():
        planes[kind], start = table[:, start:start + matrix.dim], start + matrix.dim
    return planes, tail, (n, digest)


def _format_2_rows(
    sidecar: bytes, n: int, matrices: Mapping[str, KeyMatrix]
) -> dict[str, np.ndarray]:
    """memory-store/2 keeps every face row, then every voice row, as views
    of its sidecar; the statistics after them are not read."""
    planes, start = {}, 0
    for kind, matrix in matrices.items():
        if start + 4 * n * matrix.dim > len(sidecar):
            raise StoreChecksumError("embedding sidecar is truncated")
        planes[kind] = np.frombuffer(sidecar, "<f4", n * matrix.dim, start).reshape(n, matrix.dim)
        start += 4 * n * matrix.dim
    return planes


def _format_1_rows(
    users: Mapping[str, Any], sidecar: bytes, matrices: Mapping[str, KeyMatrix]
) -> dict[str, np.ndarray]:
    """memory-store/1 keeps each user's key rows at an offset of its own."""
    planes = {}
    for kind, matrix in matrices.items():
        rows = []
        for record in users.values():
            start, dim = record["keys"][kind]["offset"], record["keys"][kind]["dim"]
            if start + dim * 4 > len(sidecar):
                raise StoreChecksumError("embedding sidecar is truncated")
            rows.append(np.frombuffer(sidecar, "<f4", dim, start))
        planes[kind] = np.array(rows, "<f4").reshape(len(rows), matrix.dim)
    return planes


def _write(fd: int, data: bytes | np.ndarray, offset: int) -> int:
    """Write all of data at offset; returns the offset after it."""
    view = memoryview(data).cast("B") if len(data) else memoryview(b"")
    while view:
        n = os.pwrite(fd, view, offset)
        view, offset = view[n:], offset + n
    return offset


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _write(fd, data, 0)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def seed_profile(
    store: MemoryStore,
    face: Embedding,
    voice: Embedding,
    name: str,
    facts: Iterable[tuple[str, str]] = (),
    summaries: Iterable[tuple[str, str]] = (),
    persona: Mapping[str, str] | None = None,
) -> str:
    """Convenience used by the harness to pre-seed known users."""
    initial = ExtractedMemory(
        summary_sentences=(),
        user_facts=(),
        persona_trail=persona or {},
        user_name=name,
    )
    user_id = store.create_user(face, voice, initial)
    fact_items = tuple(MemoryItem(text, ts) for text, ts in facts)
    summary_items = tuple(MemoryItem(text, ts) for text, ts in summaries)
    if fact_items or summary_items:
        profile = store.lookup_user(user_id)
        store.apply_profile_update(
            user_id,
            UpdateResolution(
                target_user=user_id,
                base_version=profile.version,
                fact_appends=fact_items,
                summary_appends=summary_items,
            ),
        )
    return user_id
