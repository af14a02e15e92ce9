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

Persistence is a directory: a compact JSON manifest, a content-addressed
sidecar holding the face key rows and then the voice key rows as float32,
and the voice keys' cached AS-norm statistics when there are any
(checksummed from the manifest), and an append-only JSONL audit log whose
committed length the manifest records. Renaming the manifest into place is
the one commit point, so a persist that stops anywhere leaves the old store
or the new one; see MemoryStore.persist.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import types
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Sequence

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

STORE_FORMAT = "memory-store/2"
_FORMAT_1 = "memory-store/1"  # still loads
_MANIFEST_FILE = "store.json"
_AUDIT_FILE = "audit.log"
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")  # CohortSet.fingerprint
# what persist writes, and so may delete once the manifest no longer names it
_OWN_FILE = re.compile(r"(store\.json|embeddings(-[0-9a-f]{64})?\.bin|audit(-\d+)?\.log)(\.tmp)?")


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
    """Persisted embedding sidecar does not match its manifest checksum."""


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
        if type(version) is not int or version < 1:
            raise StoreError(f"profile versions start at 1 and are integers, not {version!r}")
        if type(name) is not str:
            raise StoreError(f"profile names are strings, not {name!r}")
        profile = object.__new__(cls)
        profile.__dict__.update(  # frozen: the fields are set in place, once
            user_id=user_id,
            name=name,
            facts=tuple([_item(i) for i in record["facts"]]),
            dialog_summaries=tuple([_item(i) for i in record["dialog_summaries"]]),
            persona=types.MappingProxyType(dict(_expect(record["persona"], dict, "a persona"))),
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
                and all(
                    list(self._keys[m].view()) == list(other._keys[m].view()) for m in self._keys
                )
                and self._edges == other._edges
                and self._store_version == other._store_version
                and self._next_user == other._next_user
                and self._audit == other._audit
            )

    __hash__ = None  # type: ignore[assignment]

    # -- persistence -----------------------------------------------------

    def persist(self, path: str) -> None:
        """Write the store to a directory: manifest, key sidecar, audit log.

        Renaming the new manifest over store.json is the one commit point.
        Before it, persist changes no byte that the current manifest names:
        the sidecar's name is the sha256 of its bytes, and the log only grows
        past the length that manifest records or goes to a new file. So a
        persist that stops anywhere leaves the old store or the new one for
        load. After it, persist deletes the files the new manifest no longer
        names. Its own audit entry joins the store's entries at the commit,
        so a persist that fails before it leaves no entry behind. The log is
        appended to when this store last loaded from or persisted to this
        directory and the manifest there is unchanged since; otherwise it is
        written afresh. One directory has one writer at a time; concurrent
        persists of one store serialize on its writer lock, and the last one
        wins. Key-side statistics that a KeyMatrix caches follow the key rows
        in the sidecar, named by the manifest's key_stats; with none cached,
        neither is written.
        """
        with self._lock:
            entry = {"action": "persist", "path": str(path), "store_version": self._store_version}
            os.makedirs(path, exist_ok=True)
            views = {kind: matrix.view() for kind, matrix in self._keys.items()}
            planes = [view.rows() for view in views.values()]  # face rows, then voice rows
            key_stats = {}  # then any cached statistics: means, then stds
            for kind, matrix in self._keys.items():
                stats = matrix.stats()
                if stats is not None:
                    fingerprint, means, stds = stats
                    key_stats[kind] = {"cohort": fingerprint, "rows": len(means)}
                    planes += [means.astype("<f8"), stds.astype("<f8")]
            digest = hashlib.sha256()
            for plane in planes:
                digest.update(plane)
            sidecar = f"embeddings-{digest.hexdigest()}.bin"
            _atomic_write(os.path.join(path, sidecar), *planes)

            manifest_path = os.path.join(path, _MANIFEST_FILE)
            fd, audit_file, entries, offset = self._open_log(path, _file_key(manifest_path))
            try:
                new = "".join(
                    json.dumps(e, sort_keys=True) + "\n" for e in [*self._audit[entries:], entry]
                )
                os.ftruncate(fd, offset)  # drop what a crashed persist appended
                audit_bytes = _write(fd, new.encode("utf-8"), offset)
                os.fsync(fd)
                log_key = _file_key(fd)[:2]
            finally:
                os.close(fd)

            manifest = {
                "format": STORE_FORMAT,
                "store_version": self._store_version,
                "next_user": self._next_user,
                "persona_slots": list(self._persona_slots),
                "users": {uid: self._users[uid].to_payload() for uid in sorted(self._users)},
                "edges": sorted(list(key) for key in self._edges),
                "key_rows": views["face"].ids,
                "key_dims": {kind: view.matrix.dim for kind, view in views.items()},
                "embeddings_file": sidecar,
                "embeddings_sha256": digest.hexdigest(),
                "audit_file": audit_file,
                "audit_bytes": audit_bytes,
            }
            if key_stats:
                manifest["key_stats"] = key_stats
            _fsync_dir(path)  # the new names are durable before the manifest cites them
            _atomic_write(manifest_path, json.dumps(manifest, sort_keys=True).encode("utf-8"))
            self._audit.append(entry)
            self._disk = _Committed(
                _file_key(manifest_path), audit_file, log_key, len(self._audit), audit_bytes
            )
            _fsync_dir(path)
            for name in os.listdir(path):
                if name not in (_MANIFEST_FILE, sidecar, audit_file) and _OWN_FILE.fullmatch(name):
                    os.unlink(os.path.join(path, name))

    def _open_log(
        self, path: str, manifest_key: tuple[int, ...] | None
    ) -> tuple[int, str, int, int]:
        """The audit log to write: its descriptor, its name, and the number
        of entries and bytes already committed in it. That is the committed
        log when the manifest is the one this store last read or wrote, else
        a new file under a name nothing in the directory uses."""
        disk = self._disk
        if disk is not None and manifest_key == disk.manifest:
            try:
                fd = os.open(os.path.join(path, disk.audit_file), os.O_WRONLY)
            except FileNotFoundError:
                pass
            else:
                key = _file_key(fd)
                if key[:2] == disk.log and key[2] >= disk.audit_bytes:
                    return fd, disk.audit_file, disk.entries, disk.audit_bytes
                os.close(fd)
        name, k = _AUDIT_FILE, 0
        while True:
            try:
                flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
                return os.open(os.path.join(path, name), flags, 0o666), name, 0, 0
            except FileExistsError:
                k += 1
                name = f"audit-{k}.log"

    @classmethod
    def load(cls, path: str) -> "MemoryStore":
        """Read a store written by persist, in this format or memory-store/1.

        A manifest, sidecar or audit log that cannot be read back raises
        StoreError, chained to the cause, and so does a store that breaks an
        invariant: an edge endpoint or key row that is no user, a persona
        slot outside the schema, a profile version or next_user below 1, a
        store_version below 0, any of these three that is no int (bools are
        not), a name, fact or summary text or timestamp that is no str, an
        empty fact or summary text, a manifest, users or persona that is no
        JSON object, edges that are no list, a user id at or above next_user,
        an audit log shorter than its committed length, or a key_stats block
        whose rows are no int in 1..n, whose cohort is no sha256 hex digest,
        or whose means are not finite or stds not finite and above 0. Each
        key plane goes into its KeyMatrix as one (n, dim) array, with its
        statistics restored (key_stats checks them on first use), and each
        profile is built straight from its record.
        """
        try:
            with open(os.path.join(path, _MANIFEST_FILE), "rb") as fh:
                manifest_key = _file_key(fh.fileno())
                manifest = _expect(json.load(fh), dict, "the manifest")
            fmt = manifest.get("format")
            if fmt not in (STORE_FORMAT, _FORMAT_1):
                raise StoreError(f"unsupported store format {fmt!r}")
            if manifest.get("aux"):  # older manifests carry "aux": [], which loads
                raise StoreError("aux documents are no longer supported")
            with open(os.path.join(path, manifest["embeddings_file"]), "rb") as fh:
                sidecar = fh.read()
            if hashlib.sha256(sidecar).hexdigest() != manifest["embeddings_sha256"]:
                raise StoreChecksumError("embedding sidecar does not match its manifest checksum")

            store = cls(persona_slots=tuple(manifest["persona_slots"]))
            users = _expect(manifest["users"], dict, "users")
            if fmt == _FORMAT_1:
                ids, planes, stats = list(users), _format_1_rows(users, sidecar, store._keys), {}
            else:
                ids, (planes, stats) = manifest["key_rows"], _planes(sidecar, manifest, store._keys)
            if sorted(ids) != sorted(users):
                raise StoreError("the key rows are not one row for each user")
            for kind, matrix in store._keys.items():
                matrix.extend(ids, planes[kind])
                if kind in stats:
                    matrix.restore_stats(*stats[kind])
            for name, least in (("next_user", 1), ("store_version", 0)):
                value = manifest[name]
                if type(value) is not int or value < least:
                    raise StoreError(f"{name} is an integer of at least {least}, not {value!r}")
            store._next_user = manifest["next_user"]
            store._store_version = manifest["store_version"]
            for uid, record in users.items():
                if int(uid.removeprefix("user_")) >= store._next_user:
                    raise StoreError(f"next_user {store._next_user} is not above {uid!r}")
                store._users[uid] = profile = UserProfile._of_record(uid, record)
                store._validate_persona(profile.persona)
            for f, r, t in _expect(manifest["edges"], list, "edges"):
                for endpoint in (f, t):
                    if endpoint not in users:
                        raise UnknownUserError(f"edge endpoint {endpoint!r} is no user")
                RelationTriplet(f, r, t)  # raises on a self loop or an empty label
                store._edges.add((f, r, t))
            if fmt == _FORMAT_1:
                audit_path = os.path.join(path, _AUDIT_FILE)
                if os.path.exists(audit_path):
                    with open(audit_path, "rb") as fh:
                        store._audit = [json.loads(line) for line in fh if line.strip()]
                return store
            audit_file, audit_bytes = manifest["audit_file"], manifest["audit_bytes"]
            with open(os.path.join(path, audit_file), "rb") as fh:
                log = fh.read(audit_bytes)  # a tail past it is a crashed persist's
                log_key = _file_key(fh.fileno())[:2]
            if len(log) != audit_bytes:
                raise StoreError(f"audit log is shorter than its committed {audit_bytes} bytes")
            store._audit = json.loads(b"[" + b",".join(log.splitlines()) + b"]")
            store._disk = _Committed(manifest_key, audit_file, log_key, len(store._audit), audit_bytes)
            return store
        except (KeyError, TypeError, ValueError, EmbeddingShapeError) as exc:
            raise StoreError(f"unreadable store {path}: {type(exc).__name__}: {exc}") from exc


@dataclass(frozen=True)
class _Committed:
    """What a store last read from or wrote to a directory."""

    manifest: tuple[int, ...]  # _file_key of store.json
    audit_file: str
    log: tuple[int, ...]  # device and inode of the log
    entries: int  # audit entries in the committed log
    audit_bytes: int  # and their length


def _file_key(file: str | int) -> tuple[int, ...] | None:
    """Device, inode, size and modification time of a path or descriptor,
    or None when there is no such file: a changed key is a changed file."""
    try:
        st = os.stat(file)
    except FileNotFoundError:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _planes(
    sidecar: bytes, manifest: Mapping[str, Any], matrices: Mapping[str, KeyMatrix]
) -> tuple[dict[str, np.ndarray], dict[str, tuple[str, np.ndarray, np.ndarray]]]:
    """Each modality's key rows, in row order, as views of the sidecar, and
    the key-side statistics it carries: (cohort fingerprint, means, stds)."""
    n, dims = len(manifest["key_rows"]), manifest["key_dims"]
    for kind, matrix in matrices.items():
        if dims[kind] != matrix.dim:
            raise EmbeddingShapeError(f"{kind} keys have {matrix.dim} dims, not {dims[kind]}")
    blocks = manifest.get("key_stats", {})
    if type(blocks) is not dict or not set(blocks) <= set(matrices):
        raise StoreError(f"key_stats maps key modalities to blocks, not {blocks!r}")
    for kind, block in blocks.items():
        rows, fingerprint = block["rows"], block["cohort"]
        if type(rows) is not int or not 1 <= rows <= n:
            raise StoreError(f"{kind} key_stats rows is an integer in 1..{n}, not {rows!r}")
        if type(fingerprint) is not str or not _FINGERPRINT.fullmatch(fingerprint):
            raise StoreError(f"{kind} key_stats cohort is no sha256 hex digest: {fingerprint!r}")
    start = 4 * n * sum(dims[kind] for kind in matrices)
    if len(sidecar) != start + 16 * sum(block["rows"] for block in blocks.values()):
        raise StoreChecksumError("embedding sidecar does not hold the manifest's keys and stats")
    flat, planes, stats = np.frombuffer(sidecar, "<f4", start // 4), {}, {}
    for kind, matrix in matrices.items():
        planes[kind], flat = flat[:n * matrix.dim].reshape(n, matrix.dim), flat[n * matrix.dim:]
    for kind in matrices:  # in persist's order, after every key row
        if kind in blocks:
            m = blocks[kind]["rows"]
            block = np.frombuffer(sidecar, "<f8", 2 * m, start).reshape(2, m).astype(float)
            means, stds = block
            if not (np.isfinite(block).all() and (stds > 0).all()):
                raise StoreError(f"{kind} key statistics need finite means and stds above 0")
            stats[kind], start = (blocks[kind]["cohort"], means, stds), start + 16 * m
    return planes, stats


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


def _atomic_write(path: str, *chunks: bytes | np.ndarray) -> None:
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        offset = 0
        for chunk in chunks:
            offset = _write(fd, chunk, offset)
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
