"""Profile store semantics: versioned updates, the social graph, persistence."""

import base64
import hashlib
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexmem import store as store_module
from duplexmem.store import (
    ExtractedMemory,
    MemoryItem,
    MemoryStore,
    PersonaReplacement,
    PersonaSchemaError,
    RelationTriplet,
    ReplacementIntegrityError,
    StaleResolutionError,
    StoreChecksumError,
    StoreError,
    UnknownUserError,
    UpdateResolution,
    UserProfile,
    seed_profile,
)
from duplexmem.verification import (
    CohortSet,
    Embedding,
    EmbeddingShapeError,
    KeyMatrix,
    speaker_verify,
)


def face(i):
    rng = np.random.default_rng(1000 + i)
    return Embedding(rng.normal(size=512), "face")


def voice(i):
    rng = np.random.default_rng(2000 + i)
    return Embedding(rng.normal(size=256), "voice")


# Stores written by older formats: TestPersistence.populated(), persisted to
# the relative path "store" by memory-store/1, and with its voice statistics
# warmed (warm below) by memory-store/2.
FORMAT_1_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "store-v1")
FORMAT_2_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "store-v2")


def parsed(text):
    """store.json text as one object: a memory-store/3 header with its user
    records as "users", by user id, or an older format's manifest."""
    head, *lines = text.splitlines()
    try:
        manifest = json.loads(head)
    except json.JSONDecodeError:
        return json.loads(text)  # an older format's manifest, on many lines
    if "users" not in manifest:
        manifest["users"] = {record["user_id"]: record for record in map(json.loads, lines)}
    return manifest


def lines_of(manifest):
    """parsed's inverse, as memory-store/3 lines; "users" may also be a list
    of records."""
    header = dict(manifest)
    users = header.pop("users")
    records = users.values() if isinstance(users, dict) else users
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in [header, *records])


def manifest_of(target):
    with open(os.path.join(target, "store.json")) as fh:
        return parsed(fh.read())


def write_manifest(target, manifest):
    with open(os.path.join(target, "store.json"), "w") as fh:
        fh.write(lines_of(manifest))


def sidecar_of(target):
    """The key file."""
    return os.path.join(target, manifest_of(target)["keys_file"])


def rewrite_sidecar(target, edit):
    """Replace the key file's bytes with edit(bytes), keeping its name, and
    the header's checksum and row count with theirs."""
    manifest = manifest_of(target)
    path = os.path.join(target, manifest["keys_file"])
    with open(path, "rb") as fh:
        data = edit(fh.read())
    with open(path, "wb") as fh:
        fh.write(data)
    manifest["keys_sha256"] = hashlib.sha256(data).hexdigest()
    write_manifest(target, manifest)


def rewrite_stats(target, edit):
    """Rewrite the header's voice statistics block with its checksum, after
    edit(means, stds) changed copies of its values in place."""
    manifest = manifest_of(target)
    block = manifest["key_stats"]["voice"]
    means, stds = (np.frombuffer(base64.b64decode(block[k]), "<f8").copy() for k in ("means", "stds"))
    edit(means, stds)
    stats_bytes(block, means.tobytes(), stds.tobytes())
    write_manifest(target, manifest)


def stats_bytes(block, means, stds):
    """Put means and stds bytes into a key_stats block, with their checksum."""
    block["means"], block["stds"] = (base64.b64encode(b).decode() for b in (means, stds))
    block["sha256"] = hashlib.sha256(means + stds).hexdigest()


KEY_COHORT = CohortSet(tuple(voice(100 + i) for i in range(8)), top_n=4)


def warm(store):
    """Cache the voice keys' statistics against KEY_COHORT, as a voice query does."""
    query_cohort = CohortSet(tuple(voice(200 + i) for i in range(8)), top_n=4)
    speaker_verify(voice(99), store.user_keys("voice"), query_cohort, KEY_COHORT)
    return store


def stats_of(store):
    """The voice matrix's cached statistics as plain values, or None."""
    stats = store.user_keys("voice").matrix.stats()
    return None if stats is None else (stats[0], stats[1].tolist(), stats[2].tolist())


ROW_BYTES = 4 * (512 + 256)  # one key file row: a face key, then a voice key


class SpyHashlib:
    """The hashlib module as store uses it, recording the length of every
    non-empty piece of data a sha256 object takes in."""

    def __init__(self):
        self.fed = []

    def sha256(self, data=b""):
        return _SpyHash(self, hashlib.sha256()).update(data)


class _SpyHash:
    def __init__(self, spy, real):
        self.spy, self.real = spy, real

    def update(self, data):
        if memoryview(data).nbytes:
            self.spy.fed.append(memoryview(data).nbytes)
        self.real.update(data)
        return self

    def copy(self):
        return _SpyHash(self.spy, self.real.copy())

    def hexdigest(self):
        return self.real.hexdigest()


def files_of(target):
    """Every file of a directory, by name, with its bytes."""
    files = {}
    for name in os.listdir(target):
        with open(os.path.join(target, name), "rb") as fh:
            files[name] = fh.read()
    return files


def spy_on_payloads(monkeypatch):
    """The user id of each profile that to_payload encodes from now on."""
    encoded, payload = [], UserProfile.to_payload
    monkeypatch.setattr(
        UserProfile, "to_payload", lambda self: encoded.append(self.user_id) or payload(self)
    )
    return encoded


def fresh_store(n_users=0):
    store = MemoryStore()
    ids = [
        store.create_user(face(i), voice(i), ExtractedMemory(user_name=f"person{i}"))
        for i in range(n_users)
    ]
    return store, ids


class TestValueTypes:
    def test_memory_item_needs_text(self):
        with pytest.raises(StoreError):
            MemoryItem("", "2024-05-15")

    def test_relation_triplet_validation(self):
        with pytest.raises(StoreError):
            RelationTriplet("user_0001", "friend", "user_0001")
        with pytest.raises(StoreError):
            RelationTriplet("", "friend", "user_0002")
        with pytest.raises(StoreError):
            RelationTriplet("user_0001", "", "user_0002")

    def test_extracted_memory_payload_round_trip(self):
        memory = ExtractedMemory(
            summary_sentences=("s1", "s2"),
            user_facts=("f1",),
            persona_trail={"favorite_sport": "tennis"},
            user_name="Emily",
            relation_facts=(("colleague", "John"),),
            session_timestamp="2024-05-15",
        )
        assert ExtractedMemory.from_payload(memory.to_payload()) == memory

    def test_update_resolution_payload_round_trip(self):
        payload = {
            "target_user": "user_0001",
            "base_version": 3,
            "fact_appends": [{"text": "f", "timestamp": "t"}],
            "summary_appends": [{"text": "s", "timestamp": "t"}],
            "persona_updates": {"hometown": "Lyon"},
            "replacements": [
                {"slot": "hometown", "old": "Paris", "new": "Lyon", "reason": "moved"}
            ],
        }
        assert UpdateResolution.from_payload(payload) == UpdateResolution(
            target_user="user_0001",
            base_version=3,
            fact_appends=(MemoryItem("f", "t"),),
            summary_appends=(MemoryItem("s", "t"),),
            persona_updates={"hometown": "Lyon"},
            replacements=(PersonaReplacement("hometown", "Paris", "Lyon", "moved"),),
        )

    def test_profile_versions_start_at_one(self):
        with pytest.raises(StoreError):
            UserProfile("u", version=0)


class TestCreateAndLookup:
    def test_sequential_ids(self):
        store, ids = fresh_store(3)
        assert ids == ["user_0001", "user_0002", "user_0003"]
        assert store.user_ids == ("user_0001", "user_0002", "user_0003")

    def test_new_profiles_start_at_version_one(self):
        store, (uid,) = fresh_store(1)
        profile = store.lookup_user(uid)
        assert profile.version == 1
        assert profile.name == "person0"

    def test_empty_name_falls_back_to_unknown(self):
        store = MemoryStore()
        uid = store.create_user(face(0), voice(0), ExtractedMemory(user_name=""))
        assert store.lookup_user(uid).name == "unknown_user"

    @pytest.mark.parametrize(
        "keys",
        [(voice(0), face(0)), (face(0), face(1)), (voice(0), voice(1))],
        ids=["swapped", "two_faces", "two_voices"],
    )
    def test_create_user_rejects_swapped_modalities(self, keys):
        store, ids = fresh_store(2)
        version = store.store_version
        with pytest.raises(StoreError, match="face and a voice"):
            store.create_user(*keys, ExtractedMemory(user_name="swapped"))
        assert len(store.user_keys("face")) == len(store.user_keys("voice")) == 2
        assert (store.user_ids, store.store_version) == (tuple(ids), version)

    def test_lookup_persona_is_read_only(self):
        store = MemoryStore()
        uid = store.create_user(
            face(0), voice(0), ExtractedMemory(persona_trail={"hometown": "Lyon"})
        )
        with pytest.raises(TypeError):
            store.lookup_user(uid).persona["hometown"] = "Oslo"  # type: ignore[index]
        assert store.lookup_user(uid).persona == {"hometown": "Lyon"}

    def test_unknown_user_lookup(self):
        store, _ = fresh_store(1)
        with pytest.raises(UnknownUserError):
            store.lookup_user("user_9999")

    def test_initial_memory_lands_on_profile(self):
        store = MemoryStore()
        uid = store.create_user(
            face(0),
            voice(0),
            ExtractedMemory(
                user_facts=("plays tennis",),
                summary_sentences=("we talked about tennis",),
                persona_trail={"favorite_sport": "tennis"},
                user_name="Emily",
                session_timestamp="2024-05-15",
            ),
        )
        profile = store.lookup_user(uid)
        assert profile.facts == (MemoryItem("plays tennis", "2024-05-15"),)
        assert profile.dialog_summaries == (MemoryItem("we talked about tennis", "2024-05-15"),)
        assert profile.persona == {"favorite_sport": "tennis"}

    def test_unknown_persona_slot_rejected_at_create(self):
        store = MemoryStore()
        with pytest.raises(PersonaSchemaError):
            store.create_user(
                face(0), voice(0), ExtractedMemory(persona_trail={"shoe_size": "44"})
            )

    def test_duplicate_identity_logged_not_rejected(self):
        # exactly-parallel keys (distance 0); drifted copies are a new identity
        one_hot = np.zeros(512)
        one_hot[7] = 1.0
        store = MemoryStore()
        store.create_user(Embedding(one_hot, "face"), voice(0), ExtractedMemory(user_name="a"))
        uid2 = store.create_user(
            Embedding(one_hot * 3.0, "face"), voice(1), ExtractedMemory(user_name="b")
        )
        assert uid2 == "user_0002"
        warnings = [e for e in store.audit_entries if e["action"] == "duplicate_identity_warning"]
        assert len(warnings) == 1
        assert warnings[0]["existing_user"] == "user_0001"

    def test_snapshots_never_mutate(self):
        store, (uid,) = fresh_store(1)
        before = store.lookup_user(uid)
        store.apply_profile_update(
            uid,
            UpdateResolution(
                target_user=uid, base_version=1, fact_appends=(MemoryItem("f", "t"),)
            ),
        )
        assert before.version == 1
        assert before.facts == ()
        after = store.lookup_user(uid)
        assert after.version == 2
        assert after.facts == (MemoryItem("f", "t"),)

    def test_user_keys_sorted_by_id(self):
        store, ids = fresh_store(3)
        keys = store.user_keys("face")
        assert [uid for uid, _ in keys] == ids
        assert keys[1][1] == face(1)
        with pytest.raises(StoreError):
            store.user_keys("text")

    def test_user_keys_view_never_changes(self, tmp_path):
        store, ids = fresh_store(3)
        faces, voices = store.user_keys("face"), store.user_keys("voice")
        # enough users to outgrow the first 65 rows (one and 64 spare) into a new array
        for i in range(3, 80):
            store.create_user(face(i), voice(i), ExtractedMemory(user_name=f"p{i}"))
        store.apply_profile_update(
            ids[1], UpdateResolution(ids[1], 1, fact_appends=(MemoryItem("f", "t"),))
        )
        assert len(faces) == len(voices) == 3
        assert list(faces) == [(uid, face(i)) for i, uid in enumerate(ids)]
        assert list(voices) == [(uid, voice(i)) for i, uid in enumerate(ids)]
        assert len(store.user_keys("face")) == 80
        key = store.user_keys("face")[0][1].values
        assert not key.flags.writeable and key.base is not None  # a view of its row

        store.persist(str(tmp_path / "s"))
        loaded = MemoryStore.load(str(tmp_path / "s"))
        assert loaded == store
        for modality in ("face", "voice"):
            assert list(loaded.user_keys(modality)) == list(store.user_keys(modality))

    def test_enrolment_rescores_only_screened_keys(self, monkeypatch):
        import duplexmem.store as store_module

        calls = []
        exact = store_module.cosine_distance
        monkeypatch.setattr(
            store_module, "cosine_distance", lambda a, b: calls.append(1) or exact(a, b)
        )
        rng = np.random.default_rng(3)
        one_hot = np.zeros(512)
        one_hot[7] = 1.0
        store = MemoryStore()
        most = 0
        for i in range(2_000):
            before = len(calls)
            store.create_user(
                Embedding(one_hot if i == 1_499 else rng.normal(size=512), "face"),
                Embedding(rng.normal(size=256), "voice"),
                ExtractedMemory(user_name=f"p{i}"),
            )
            most = max(most, len(calls) - before)
        assert most <= 2
        # an exactly parallel key (distance 0) is still found, with as few calls
        before = len(calls)
        store.create_user(Embedding(one_hot * 3.0, "face"), voice(0), ExtractedMemory())
        assert len(calls) - before <= 2
        assert store.audit_entries[-2] == {
            "action": "duplicate_identity_warning", "existing_user": "user_1500"
        }


class TestProfileUpdates:
    def test_stale_base_version_rejected(self):
        store, (uid,) = fresh_store(1)
        with pytest.raises(StaleResolutionError):
            store.apply_profile_update(
                uid, UpdateResolution(target_user=uid, base_version=2)
            )

    def test_wrong_target_rejected(self):
        store, ids = fresh_store(2)
        with pytest.raises(StoreError):
            store.apply_profile_update(
                ids[0], UpdateResolution(target_user=ids[1], base_version=1)
            )

    def test_unknown_user_rejected(self):
        store, _ = fresh_store(1)
        with pytest.raises(UnknownUserError):
            store.apply_profile_update(
                "user_0042", UpdateResolution(target_user="user_0042", base_version=1)
            )

    def test_appends_preserve_order(self):
        store, (uid,) = fresh_store(1)
        first = UpdateResolution(
            target_user=uid,
            base_version=1,
            fact_appends=(MemoryItem("a", "t1"), MemoryItem("b", "t1")),
        )
        assert store.apply_profile_update(uid, first) == 2
        second = UpdateResolution(
            target_user=uid, base_version=2, fact_appends=(MemoryItem("c", "t2"),)
        )
        assert store.apply_profile_update(uid, second) == 3
        profile = store.lookup_user(uid)
        assert [i.text for i in profile.facts] == ["a", "b", "c"]

    def test_new_persona_slot_set(self):
        store, (uid,) = fresh_store(1)
        store.apply_profile_update(
            uid,
            UpdateResolution(
                target_user=uid, base_version=1, persona_updates={"hometown": "Lyon"}
            ),
        )
        assert store.lookup_user(uid).persona == {"hometown": "Lyon"}

    def test_idempotent_persona_value_allowed(self):
        store, (uid,) = fresh_store(1)
        update = UpdateResolution(
            target_user=uid, base_version=1, persona_updates={"hometown": "Lyon"}
        )
        store.apply_profile_update(uid, update)
        again = UpdateResolution(
            target_user=uid, base_version=2, persona_updates={"hometown": "Lyon"}
        )
        store.apply_profile_update(uid, again)
        assert store.lookup_user(uid).persona == {"hometown": "Lyon"}

    def test_conflicting_plain_update_rejected(self):
        store, (uid,) = fresh_store(1)
        store.apply_profile_update(
            uid,
            UpdateResolution(
                target_user=uid, base_version=1, persona_updates={"hometown": "Lyon"}
            ),
        )
        with pytest.raises(ReplacementIntegrityError):
            store.apply_profile_update(
                uid,
                UpdateResolution(
                    target_user=uid, base_version=2, persona_updates={"hometown": "Oslo"}
                ),
            )

    def test_replacement_applies_and_audits(self):
        store, (uid,) = fresh_store(1)
        store.apply_profile_update(
            uid,
            UpdateResolution(
                target_user=uid, base_version=1, persona_updates={"hometown": "Lyon"}
            ),
        )
        store.apply_profile_update(
            uid,
            UpdateResolution(
                target_user=uid,
                base_version=2,
                replacements=(PersonaReplacement("hometown", "Lyon", "Oslo", "moved north"),),
            ),
        )
        assert store.lookup_user(uid).persona == {"hometown": "Oslo"}
        entry = [e for e in store.audit_entries if e["action"] == "replace_persona"][0]
        assert entry["old"] == "Lyon" and entry["new"] == "Oslo"
        assert entry["reason"] == "moved north"

    def test_replacement_citing_wrong_value_rejected(self):
        store, (uid,) = fresh_store(1)
        store.apply_profile_update(
            uid,
            UpdateResolution(
                target_user=uid, base_version=1, persona_updates={"hometown": "Lyon"}
            ),
        )
        with pytest.raises(ReplacementIntegrityError):
            store.apply_profile_update(
                uid,
                UpdateResolution(
                    target_user=uid,
                    base_version=2,
                    replacements=(PersonaReplacement("hometown", "Paris", "Oslo", "stale"),),
                ),
            )
        # rejected resolutions change nothing
        assert store.lookup_user(uid).version == 2
        assert store.lookup_user(uid).persona == {"hometown": "Lyon"}

    def test_unknown_slot_rejected_everywhere(self):
        store, (uid,) = fresh_store(1)
        with pytest.raises(PersonaSchemaError):
            store.apply_profile_update(
                uid,
                UpdateResolution(
                    target_user=uid, base_version=1, persona_updates={"shoe_size": "44"}
                ),
            )
        with pytest.raises(PersonaSchemaError):
            store.apply_profile_update(
                uid,
                UpdateResolution(
                    target_user=uid,
                    base_version=1,
                    replacements=(PersonaReplacement("shoe_size", "", "44", "r"),),
                ),
            )

    def test_audit_entry_shape(self):
        store, (uid,) = fresh_store(1)
        store.apply_profile_update(
            uid,
            UpdateResolution(
                target_user=uid,
                base_version=1,
                fact_appends=(MemoryItem("f", "t"),),
                persona_updates={"hometown": "Lyon"},
            ),
        )
        entry = [e for e in store.audit_entries if e["action"] == "apply_update"][0]
        assert entry["facts_appended"] == 1
        assert entry["summaries_appended"] == 0
        assert entry["persona_set"] == ["hometown"]
        assert entry["from_version"] == 1 and entry["to_version"] == 2


class TestSocialGraph:
    def test_edges_need_existing_endpoints(self):
        store, ids = fresh_store(1)
        with pytest.raises(UnknownUserError):
            store.add_relation_edge(RelationTriplet(ids[0], "friend", "user_0099"))

    def test_insert_is_idempotent(self):
        store, ids = fresh_store(2)
        edge = RelationTriplet(ids[0], "friend", ids[1])
        version_before = store.store_version
        assert store.add_relation_edge(edge) is True
        assert store.store_version == version_before + 1
        assert store.add_relation_edge(edge) is False
        assert store.store_version == version_before + 1

    def test_neighbors_are_undirected_and_sorted(self):
        store, ids = fresh_store(3)
        store.add_relation_edge(RelationTriplet(ids[2], "mentor", ids[0]))
        store.add_relation_edge(RelationTriplet(ids[0], "friend", ids[1]))
        assert store.connected_users(ids[0]) == [
            (ids[1], "friend"),
            (ids[2], "mentor"),
        ]
        assert store.connected_users(ids[1]) == [(ids[0], "friend")]
        with pytest.raises(UnknownUserError):
            store.connected_users("user_0050")

    def test_neighbors_survive_persist_and_load(self, tmp_path):
        store, ids = fresh_store(4)
        edges = [(3, "mentor", 0), (0, "friend", 1), (2, "friend", 0), (1, "friend", 0)]
        for f, relation, t in edges:
            store.add_relation_edge(RelationTriplet(ids[f], relation, ids[t]))
        store.persist(str(tmp_path / "s"))
        loaded = MemoryStore.load(str(tmp_path / "s"))
        for uid in ids:
            assert loaded.connected_users(uid) == store.connected_users(uid)
        assert loaded.connected_users(ids[0]) == [
            (ids[1], "friend"), (ids[2], "friend"), (ids[3], "mentor")
        ]


    def test_neighbor_counts_match_connected_users(self):
        store, ids = fresh_store(40)
        rng = np.random.default_rng(5)
        for _ in range(400):
            f, t = rng.choice(len(ids), 2, replace=False)
            relation = str(rng.choice(["friend", "colleague", "mentor"]))
            store.add_relation_edge(RelationTriplet(ids[f], relation, ids[t]))
        counts = store.neighbor_counts()
        assert counts == {uid: len(store.connected_users(uid)) for uid in ids}
        assert max(counts.values()) > 10


class TestKeyEquality:
    POOL = [voice(i).values for i in range(3)]  # few rows, so equal keys are common

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_same_verdict_as_comparing_pairs(self, data):
        """Stores compare key views as two arrays in id order; that agrees
        with comparing list(view), one (user_id, Embedding) pair at a time,
        with repeated ids (ties in row order) and rows in any order."""
        pair = st.tuples(st.sampled_from(["user_0001", "user_0002", "user_0003"]),
                         st.integers(0, len(self.POOL) - 1))
        first = data.draw(st.lists(pair, max_size=5))
        if data.draw(st.booleans()):
            second = data.draw(st.permutations(first))
        else:
            second = data.draw(st.lists(pair, max_size=5))
        views = []
        for pairs in (first, second):
            matrix = KeyMatrix("voice")
            rows = np.array([self.POOL[row] for _, row in pairs]).reshape(len(pairs), 256)
            matrix.extend([uid for uid, _ in pairs], rows)
            views.append(matrix.view())
        assert store_module._same_keys(*views) == (list(views[0]) == list(views[1]))

    def test_stores_holding_the_same_keys_in_other_rows_are_equal(self):
        a, ids = fresh_store(3)
        b, _ = fresh_store(3)
        for kind, key in (("face", face), ("voice", voice)):
            b._keys[kind] = KeyMatrix(kind)
            b._keys[kind].extend(ids[::-1], [key(i).values for i in (2, 1, 0)])
        assert a == b
        b._keys["voice"] = KeyMatrix("voice")
        b._keys["voice"].extend(ids[::-1], [voice(i).values for i in (2, 0, 1)])
        assert a != b


class TestNameDirectory:
    def test_skips_unknown_and_ambiguous(self):
        store = MemoryStore()
        a = store.create_user(face(0), voice(0), ExtractedMemory(user_name="Emily"))
        store.create_user(face(1), voice(1), ExtractedMemory(user_name="John"))
        store.create_user(face(2), voice(2), ExtractedMemory(user_name="John"))
        store.create_user(face(3), voice(3), ExtractedMemory())
        directory = store.name_directory()
        assert directory == {"Emily": a}


class TestPersonaSchema:
    def test_custom_slots(self):
        store = MemoryStore(persona_slots=("color", "animal"))
        uid = store.create_user(
            face(0), voice(0), ExtractedMemory(persona_trail={"color": "red"})
        )
        assert store.lookup_user(uid).persona == {"color": "red"}

    def test_bad_slot_lists_rejected(self):
        with pytest.raises(PersonaSchemaError):
            MemoryStore(persona_slots=("a", "a"))
        with pytest.raises(PersonaSchemaError):
            MemoryStore(persona_slots=())


class TestPersistence:
    def populated(self):
        store = MemoryStore()
        a = store.create_user(
            face(0),
            voice(0),
            ExtractedMemory(
                user_facts=("plays tennis",),
                user_name="Emily",
                persona_trail={"favorite_sport": "tennis"},
                session_timestamp="2024-05-15",
            ),
        )
        b = store.create_user(face(1), voice(1), ExtractedMemory(user_name="John"))
        store.add_relation_edge(RelationTriplet(a, "colleague", b))
        store.apply_profile_update(
            b,
            UpdateResolution(
                target_user=b,
                base_version=1,
                summary_appends=(MemoryItem("tennis game two days ago", "2024-05-13"),),
            ),
        )
        return store

    def test_round_trip_equality(self, tmp_path):
        store = self.populated()
        target = str(tmp_path / "store")
        store.persist(target)
        loaded = MemoryStore.load(target)
        assert loaded == store
        assert dict(loaded.user_keys("face"))["user_0001"] == face(0)

    def test_stores_differing_in_one_face_key_are_unequal(self):
        def built(second_face):
            store, _ = fresh_store(1)
            store.create_user(second_face, voice(1), ExtractedMemory(user_name="same"))
            return store

        assert built(face(1)) == built(face(1))
        assert built(face(1)) != built(face(2))

    def test_empty_store_round_trip(self, tmp_path):
        store = MemoryStore()
        target = str(tmp_path / "store")
        for _ in range(2):
            store.persist(target)
            assert MemoryStore.load(target) == store

    def test_second_persist_overwrites(self, tmp_path):
        store = self.populated()
        target = str(tmp_path / "store")
        store.persist(target)
        later = MemoryItem("later fact", "2024-05-16")
        store.apply_profile_update("user_0001", UpdateResolution("user_0001", 1, (later,)))
        store.persist(target)
        loaded = MemoryStore.load(target)
        assert loaded.lookup_user("user_0001").facts[-1] == later
        assert loaded == store

    def persisted_with_aux(self, tmp_path, aux):
        """A persisted store whose manifest carries an "aux" list, as older
        stores did."""
        store = self.populated()
        target = str(tmp_path / "store")
        store.persist(target)
        manifest = manifest_of(target)
        manifest["aux"] = aux
        write_manifest(target, manifest)
        return store, target

    def test_manifest_with_empty_aux_list_loads(self, tmp_path):
        store, target = self.persisted_with_aux(tmp_path, [])
        assert MemoryStore.load(target) == store

    def test_user_records_with_relation_edges_load(self, tmp_path, monkeypatch):
        """Older memory-store/2 user records carry "relation_edges": []. A
        line whose record has keys that to_payload does not write is not
        kept: the next persist encodes that profile again."""
        store = self.populated()
        target = str(tmp_path / "store")
        store.persist(target)
        manifest = manifest_of(target)
        manifest["users"]["user_0002"]["relation_edges"] = []
        write_manifest(target, manifest)
        loaded = MemoryStore.load(target)
        assert loaded == store
        encoded = spy_on_payloads(monkeypatch)
        loaded.persist(target)
        assert encoded == ["user_0002"]
        assert "relation_edges" not in manifest_of(target)["users"]["user_0002"]

    def test_manifest_with_aux_documents_rejected(self, tmp_path):
        _, target = self.persisted_with_aux(tmp_path, ["x"])
        with pytest.raises(StoreError, match="aux"):
            MemoryStore.load(target)

    def test_corrupt_sidecar_detected(self, tmp_path):
        store = self.populated()
        target = str(tmp_path / "store")
        store.persist(target)
        sidecar = sidecar_of(target)
        with open(sidecar, "r+b") as fh:
            fh.seek(10)
            byte = fh.read(1)
            fh.seek(10)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(StoreChecksumError):
            MemoryStore.load(target)

    def test_truncated_sidecar_detected(self, tmp_path):
        store = self.populated()
        target = str(tmp_path / "store")
        store.persist(target)
        rewrite_sidecar(target, lambda data: data[:100])
        with pytest.raises(StoreChecksumError, match="shorter than its committed rows"):
            MemoryStore.load(target)

    def persisted_with_manifest(self, tmp_path, edit):
        """A persisted store whose manifest text is replaced by edit(text)."""
        target = str(tmp_path / "store")
        self.populated().persist(target)
        manifest_path = os.path.join(target, "store.json")
        with open(manifest_path) as fh:
            text = fh.read()
        with open(manifest_path, "w") as fh:
            fh.write(edit(text))
        return target

    def test_wrong_key_dim_in_manifest_rejected(self, tmp_path):
        def edit(text):
            manifest = parsed(text)
            manifest["key_dims"]["voice"] = 255
            return lines_of(manifest)

        target = self.persisted_with_manifest(tmp_path, edit)
        with pytest.raises(StoreError, match="EmbeddingShapeError") as info:
            MemoryStore.load(target)
        assert isinstance(info.value.__cause__, EmbeddingShapeError)

    def test_missing_manifest_key_rejected(self, tmp_path):
        def edit(text):
            manifest = parsed(text)
            del manifest["next_user"]
            return lines_of(manifest)

        target = self.persisted_with_manifest(tmp_path, edit)
        with pytest.raises(StoreError, match="KeyError: 'next_user'") as info:
            MemoryStore.load(target)
        assert isinstance(info.value.__cause__, KeyError)

    def test_manifest_that_is_not_json_rejected(self, tmp_path):
        target = self.persisted_with_manifest(tmp_path, lambda text: text[:-3])
        with pytest.raises(StoreError, match="JSONDecodeError") as info:
            MemoryStore.load(target)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    @pytest.mark.parametrize("text", ["[]", '"x"', "5"])
    def test_manifest_that_is_not_an_object_rejected(self, tmp_path, text):
        target = self.persisted_with_manifest(tmp_path, lambda _: text)
        with pytest.raises(StoreError, match="the manifest must be a JSON object") as info:
            MemoryStore.load(target)
        assert isinstance(info.value.__cause__, TypeError)

    def test_unknown_format_rejected(self, tmp_path):
        store = self.populated()
        target = str(tmp_path / "store")
        store.persist(target)
        manifest = manifest_of(target)
        manifest["format"] = "memory-store/99"
        write_manifest(target, manifest)
        with pytest.raises(StoreError, match="unsupported store format 'memory-store/99'"):
            MemoryStore.load(target)

    def test_missing_audit_file_tolerated(self, tmp_path):
        """memory-store/1 wrote its log last and without a length, so a
        store of that format without one still loads."""
        target = str(tmp_path / "store")
        shutil.copytree(FORMAT_1_FIXTURE, target)
        os.remove(os.path.join(target, "audit.log"))
        loaded = MemoryStore.load(target)
        assert loaded.audit_entries == ()
        assert loaded.user_ids == self.populated().user_ids

    def test_missing_audit_file_rejected(self, tmp_path):
        target = str(tmp_path / "store")
        self.populated().persist(target)
        os.remove(os.path.join(target, manifest_of(target)["audit_file"]))
        with pytest.raises(FileNotFoundError):
            MemoryStore.load(target)

    def test_format_1_fixture_loads_equal(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = self.populated()
        store.persist("store")  # the fixture's last audit entry
        assert manifest_of(FORMAT_1_FIXTURE)["format"] == "memory-store/1"
        assert MemoryStore.load(FORMAT_1_FIXTURE) == store

    def test_format_1_store_is_rewritten_in_place(self, tmp_path):
        target = str(tmp_path / "store")
        shutil.copytree(FORMAT_1_FIXTURE, target)
        store = MemoryStore.load(target)
        store.create_user(face(2), voice(2), ExtractedMemory(user_name="Ann"))
        store.persist(target)
        manifest = manifest_of(target)
        assert manifest["format"] == "memory-store/3"
        assert sorted(os.listdir(target)) == ["audit-1.log", "keys.bin", "store.json"]
        assert (manifest["keys_file"], manifest["audit_file"]) == ("keys.bin", "audit-1.log")
        assert MemoryStore.load(target) == store

    def test_format_2_fixture_loads_equal(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = self.populated()
        store.persist("store")  # the fixture's last audit entry
        assert manifest_of(FORMAT_2_FIXTURE)["format"] == "memory-store/2"
        assert "key_stats" in manifest_of(FORMAT_2_FIXTURE)
        loaded = MemoryStore.load(FORMAT_2_FIXTURE)
        assert loaded == store
        assert stats_of(loaded) is None  # derived: scored again on first use
        assert stats_of(warm(loaded)) == stats_of(warm(store))

    def test_format_2_store_is_rewritten_in_place(self, tmp_path):
        target = str(tmp_path / "store")
        shutil.copytree(FORMAT_2_FIXTURE, target)
        with open(os.path.join(target, "audit.log"), "rb") as fh:
            log = fh.read()
        store = MemoryStore.load(target)
        store.create_user(face(2), voice(2), ExtractedMemory(user_name="Ann"))
        store.persist(target)
        manifest = manifest_of(target)
        assert manifest["format"] == "memory-store/3"
        assert sorted(os.listdir(target)) == ["audit.log", "keys.bin", "store.json"]
        with open(os.path.join(target, "audit.log"), "rb") as fh:
            assert fh.read().startswith(log)  # the committed log is appended to
        assert MemoryStore.load(target) == store

    @pytest.mark.parametrize("fixture", [FORMAT_1_FIXTURE, FORMAT_2_FIXTURE], ids=["v1", "v2"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["users"]["user_0001"]["persona"].update(favorite_sport=5),
             "persona values are strings"),
            (lambda m: m["users"]["user_0001"]["persona"].update(favorite_sport=None),
             "persona values are strings"),
            (lambda m: m.update(persona_slots=list(range(4))), "persona slots are strings"),
        ],
        ids=["int_persona_value", "null_persona_value", "int_persona_slots"],
    )
    def test_older_format_with_non_string_persona_rejected(self, tmp_path, fixture, edit,
                                                           message):
        target = str(tmp_path / "store")
        shutil.copytree(fixture, target)
        manifest = manifest_of(target)
        edit(manifest)
        with open(os.path.join(target, "store.json"), "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(StoreError, match=message):
            MemoryStore.load(target)

    def test_lines_that_do_not_hold_one_record_each_are_encoded_again(self, tmp_path,
                                                                      monkeypatch):
        """Two user records on one line load; since the lines no longer pair
        with the records, the next persist encodes every profile."""
        store = self.populated()
        target = str(tmp_path / "store")
        store.persist(target)
        with open(os.path.join(target, "store.json"), "rb") as fh:
            head, first, second = fh.read().splitlines()
        with open(os.path.join(target, "store.json"), "wb") as fh:
            fh.write(head + b"\n" + first + b", " + second + b"\n")
        loaded = MemoryStore.load(target)
        assert loaded == store
        encoded = spy_on_payloads(monkeypatch)
        loaded.persist(target)
        assert encoded == ["user_0001", "user_0002"]
        assert MemoryStore.load(target) == loaded

    def test_a_record_that_runs_on_into_the_next_line_keeps_no_line(self, tmp_path, monkeypatch):
        """The line count matches the record count, but user 1's record ends
        on user 2's line: no line is written again as it is, so the next
        persist commits a store.json that loads."""
        store = self.populated()
        store.create_user(face(2), voice(2), ExtractedMemory(user_name="Ann"))
        target = str(tmp_path / "store")
        store.persist(target)
        with open(os.path.join(target, "store.json"), "rb") as fh:
            head, first, second, third = fh.read().splitlines()
        with open(os.path.join(target, "store.json"), "wb") as fh:
            fh.write(b"\n".join([head, first[:-1] + b', "zz": [0', b'{"a": 1}]}, ' + second,
                                 third, b""]))
        loaded = MemoryStore.load(target)
        assert loaded == store
        encoded = spy_on_payloads(monkeypatch)
        loaded.persist(target)
        assert encoded == ["user_0001", "user_0002", "user_0003"]
        assert MemoryStore.load(target) == loaded

    def test_warm_persist_encodes_and_hashes_only_what_changed(self, tmp_path, monkeypatch):
        target = str(tmp_path / "store")
        self.populated().persist(target)
        spy = SpyHashlib()
        monkeypatch.setattr(store_module, "hashlib", spy)
        store = MemoryStore.load(target)
        assert spy.fed == [2 * ROW_BYTES]  # load hashes every committed key byte once
        uid = store.create_user(face(2), voice(2), ExtractedMemory(user_name="Ann"))
        store.apply_profile_update(
            "user_0001", UpdateResolution("user_0001", 1, (MemoryItem("new fact", "t"),))
        )
        keys = sidecar_of(target)
        with open(keys, "rb") as fh:
            committed = fh.read()
        spy.fed.clear()
        encoded = spy_on_payloads(monkeypatch)
        store.persist(target)
        assert encoded == ["user_0001", uid]
        assert spy.fed == [ROW_BYTES]  # the appended row only
        with open(keys, "rb") as fh:
            data = fh.read()
        assert data.startswith(committed) and len(data) == 3 * ROW_BYTES
        assert manifest_of(target)["keys_sha256"] == hashlib.sha256(data).hexdigest()
        monkeypatch.undo()
        assert MemoryStore.load(target) == store

    def test_persist_elsewhere_rewrites_rows_without_hashing_them(self, tmp_path, monkeypatch):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        self.populated().persist(a)
        before = files_of(a)
        spy = SpyHashlib()
        monkeypatch.setattr(store_module, "hashlib", spy)
        store = MemoryStore.load(a)
        spy.fed.clear()
        encoded = spy_on_payloads(monkeypatch)
        store.persist(b)
        assert (encoded, spy.fed) == ([], [])
        with open(sidecar_of(a), "rb") as fa, open(sidecar_of(b), "rb") as fb:
            assert fa.read() == fb.read()
        with open(os.path.join(a, "store.json")) as fa, open(os.path.join(b, "store.json")) as fb:
            assert fa.read().splitlines()[1:] == fb.read().splitlines()[1:]
        store.create_user(face(2), voice(2), ExtractedMemory(user_name="Ann"))
        store.persist(b)
        assert spy.fed == [ROW_BYTES]
        monkeypatch.undo()
        assert MemoryStore.load(b) == store
        assert files_of(a) == before

    def test_manifest_is_compact_and_names_its_files(self, tmp_path):
        target = str(tmp_path / "store")
        store = self.populated()
        store.persist(target)
        with open(os.path.join(target, "store.json")) as fh:
            text = fh.read()
        head, *lines = text.splitlines()
        header = json.loads(head)
        records = [store.lookup_user(uid).to_payload() for uid in store.user_ids]
        assert lines == [json.dumps(record, sort_keys=True) for record in records]
        assert text == "\n".join([json.dumps(header, sort_keys=True), *lines, ""])
        assert header["format"] == "memory-store/3"
        assert not {"users", "embeddings_file", "embeddings_sha256"} & set(header)
        assert header["key_rows"] == ["user_0001", "user_0002"]
        assert header["key_dims"] == {"face": 512, "voice": 256}
        assert header["keys_file"] == "keys.bin"
        with open(sidecar_of(target), "rb") as fh:
            data = fh.read()
        assert header["keys_sha256"] == hashlib.sha256(data).hexdigest()
        rows = np.frombuffer(data, "<f4").reshape(2, 512 + 256)  # row i: face i, then voice i
        assert np.array_equal(rows[1, :512], np.float32(face(1).values))
        assert np.array_equal(rows[0, 512:], np.float32(voice(0).values))
        assert header["audit_file"] == "audit.log"
        assert header["audit_bytes"] == os.path.getsize(os.path.join(target, "audit.log"))
        assert sorted(os.listdir(target)) == ["audit.log", "keys.bin", "store.json"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["edges"].append(["user_0001", "friend", "user_0009"]),
             "edge endpoint 'user_0009'"),
            (lambda m: m["users"]["user_0001"]["persona"].update(shoe_size="9"),
             "unknown persona slot 'shoe_size'"),
            (lambda m: m["users"]["user_0002"].update(version=0), "versions start at 1"),
            (lambda m: m.update(next_user=2), "next_user 2 is not above 'user_0002'"),
            (lambda m: m["key_rows"].__setitem__(1, "user_0001"),
             "key rows are not one row for each user"),
            (lambda m: m.update(audit_bytes=m["audit_bytes"] + 1),
             "audit log is shorter than its committed"),
            (lambda m: m["users"]["user_0002"].update(version=1.5), "not 1.5"),
            (lambda m: m["users"]["user_0002"].update(version=True), "not True"),
            (lambda m: m["users"]["user_0001"].update(name=None), "names are strings, not None"),
            (lambda m: m["users"]["user_0001"]["facts"][0].update(text=""),
             "memory items carry non-empty text"),
            (lambda m: m["users"]["user_0002"].pop("dialog_summaries"),
             "KeyError: 'dialog_summaries'"),
            (lambda m: m["users"]["user_0001"].update(persona=None), "TypeError"),
            (lambda m: m["users"]["user_0001"].update(facts=["plays tennis"]), "TypeError"),
            (lambda m: m.update(next_user=5.0), "next_user is an integer of at least 1, not 5.0"),
            (lambda m: m.update(next_user=True), "next_user is an integer .* not True"),
            (lambda m: m.update(next_user=0), "next_user is an integer of at least 1, not 0"),
            (lambda m: m.update(store_version="3"), "store_version is an integer .* not '3'"),
            (lambda m: m.update(store_version=2.5), "store_version is an integer .* not 2.5"),
            (lambda m: m.update(store_version=False), "store_version is an integer .* not False"),
            (lambda m: m.update(store_version=-1), "store_version is an integer of at least 0"),
            (lambda m: m["users"]["user_0001"]["facts"][0].update(text=5, timestamp=7),
             "memory item texts and timestamps are strings"),
            (lambda m: m["users"]["user_0002"]["dialog_summaries"][0].update(timestamp=7),
             "memory item texts and timestamps are strings"),
            (lambda m: m["users"]["user_0001"].update(persona=[["name", "x"]]),
             "a persona must be a JSON object, not list"),
            (lambda m: m.update(edges={}), "edges must be a JSON array, not dict"),
            (lambda m: m.update(users=[["user_0001"], ["user_0002"]]),
             "user records are JSON objects"),
            (lambda m: m["users"]["user_0001"]["persona"].update(preferred_name=5),
             "persona values are strings"),
            (lambda m: m["users"]["user_0001"]["persona"].update(preferred_name=None),
             "persona values are strings"),
            (lambda m: m.update(persona_slots=list(range(4))), "persona slots are strings"),
            (lambda m: m["users"]["user_0001"].update(user_id="user_0002"),
             "user ids are strings, one line each"),
            (lambda m: m["users"]["user_0001"].update(user_id=1),
             "user ids are strings, one line each"),
        ],
        ids=[
            "edge_endpoint", "persona_slot", "version", "next_user", "key_rows", "audit_length",
            "float_version", "bool_version", "null_name", "empty_fact", "no_summaries",
            "null_persona", "bare_fact", "float_next_user", "bool_next_user", "zero_next_user",
            "str_store_version", "float_store_version", "bool_store_version",
            "negative_store_version", "int_fact_text", "int_summary_timestamp", "list_persona",
            "object_edges", "list_users", "int_persona_value", "null_persona_value",
            "int_persona_slots", "repeated_user_id", "int_user_id",
        ],
    )
    def test_broken_invariant_rejected(self, tmp_path, edit, message):
        def rewrite(text):
            manifest = parsed(text)
            edit(manifest)
            return lines_of(manifest)

        target = self.persisted_with_manifest(tmp_path, rewrite)
        with pytest.raises(StoreError, match=message):
            MemoryStore.load(target)

    def test_key_stats_round_trip(self, tmp_path):
        cold, hot = str(tmp_path / "cold"), str(tmp_path / "hot")
        self.populated().persist(cold)
        assert "key_stats" not in manifest_of(cold)  # no statistics: no block
        assert os.path.getsize(sidecar_of(cold)) == 2 * 4 * (512 + 256)
        store = warm(self.populated())
        assert store == self.populated()  # statistics are derived: equality ignores them
        store.persist(hot)
        _, means, stds = store.user_keys("voice").matrix.stats()
        expected = {"cohort": KEY_COHORT.fingerprint, "rows": 2}
        stats_bytes(expected, means.astype("<f8").tobytes(), stds.astype("<f8").tobytes())
        assert manifest_of(hot)["key_stats"] == {"voice": expected}
        with open(sidecar_of(hot), "rb") as fh, open(sidecar_of(cold), "rb") as cold_fh:
            assert fh.read() == cold_fh.read()  # the key file holds the key rows only
        loaded = MemoryStore.load(hot)
        assert loaded == store
        assert stats_of(loaded) == stats_of(store)
        loaded.persist(hot)  # not yet checked by a query: carried as they are
        assert stats_of(MemoryStore.load(hot)) == stats_of(store)

    def persisted_warm(self, tmp_path):
        target = str(tmp_path / "store")
        warm(self.populated()).persist(target)
        return target

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b.update(rows=2.0), r"voice key_stats rows is an integer in 1..2, not 2.0"),
            (lambda b: b.update(rows=True), "not True"),
            (lambda b: b.update(rows=0), "in 1..2, not 0"),
            (lambda b: b.update(rows=3), "in 1..2, not 3"),
            (lambda b: b.update(rows=1), "voice key_stats do not hold 1 means and stds"),
            (lambda b: b.update(cohort=b["cohort"].upper()), "no sha256 hex digest"),
            (lambda b: b.update(cohort=b["cohort"][1:]), "no sha256 hex digest"),
            (lambda b: b.update(cohort=None), "no sha256 hex digest: None"),
            (lambda b: b.pop("rows"), "KeyError: 'rows'"),
            (lambda b: b.update(sha256="0" * 64), "voice key_stats do not match their checksum"),
            (lambda b: b.update(stds=b["means"]), "voice key_stats do not match their checksum"),
            (lambda b: b.update(means=5), "TypeError"),
            (lambda b: b.pop("sha256"), "KeyError: 'sha256'"),
        ],
        ids=["float_rows", "bool_rows", "zero_rows", "rows_past_keys", "rows_short_of_sidecar",
             "upper_hex", "short_hex", "null_cohort", "no_rows", "zero_checksum",
             "tampered_stds", "int_means", "no_checksum"],
    )
    def test_bad_key_stats_block_rejected(self, tmp_path, edit, message):
        target = self.persisted_warm(tmp_path)
        manifest = manifest_of(target)
        edit(manifest["key_stats"]["voice"])
        write_manifest(target, manifest)
        with pytest.raises(StoreError, match=message):
            MemoryStore.load(target)

    @pytest.mark.parametrize(
        "key_stats, error",
        [
            ([], StoreError),
            ({"face": {"cohort": "0" * 64, "rows": 1}, "voice": None}, StoreError),
            ({"text": {"cohort": "0" * 64, "rows": 1}}, StoreError),
            ({"voice": {"cohort": "0" * 64, "rows": 1, "means": "AAAAAAAAAAA=",
                        "stds": "AAAAAAAAAAA=", "sha256": "0" * 64}}, StoreChecksumError),
        ],
        ids=["not_an_object", "null_block", "no_such_keys", "block_not_in_sidecar"],
    )
    def test_key_stats_that_name_no_block_rejected(self, tmp_path, key_stats, error):
        target = str(tmp_path / "store")
        self.populated().persist(target)
        manifest = manifest_of(target)
        manifest["key_stats"] = key_stats
        write_manifest(target, manifest)
        with pytest.raises(error):
            MemoryStore.load(target)

    @pytest.mark.parametrize("field", ["means", "stds"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_key_statistics_rejected(self, tmp_path, field, value):
        target = self.persisted_warm(tmp_path)

        def edit(means, stds):
            (means if field == "means" else stds)[1] = value

        rewrite_stats(target, edit)
        if field == "means" and np.isfinite(value):
            assert stats_of(MemoryStore.load(target))[1][1] == value  # any finite mean loads
            return
        with pytest.raises(StoreError, match="finite means and stds above 0"):
            MemoryStore.load(target)

    def test_sidecar_longer_than_its_statistics_rejected(self, tmp_path):
        """Statistics that hold more values than their rows, checksummed."""
        target = self.persisted_warm(tmp_path)
        manifest = manifest_of(target)
        block = manifest["key_stats"]["voice"]
        means, stds = (base64.b64decode(block[k]) for k in ("means", "stds"))
        stats_bytes(block, means + bytes(8), stds)
        write_manifest(target, manifest)
        with pytest.raises(StoreChecksumError, match="do not hold 2 means and stds"):
            MemoryStore.load(target)

    def test_persist_is_audited(self, tmp_path):
        store = self.populated()
        target = str(tmp_path / "store")
        store.persist(target)
        loaded = MemoryStore.load(target)
        actions = [e["action"] for e in loaded.audit_entries]
        assert actions[-1] == "persist"
        assert loaded.audit_entries[-1]["store_version"] == store.store_version


class TestSeedProfile:
    def test_seed_with_items_lands_at_version_two(self):
        store = MemoryStore()
        uid = seed_profile(
            store,
            face(0),
            voice(0),
            "John",
            summaries=(("tennis game two days ago", "2024-05-13"),),
            persona={"favorite_sport": "tennis"},
        )
        profile = store.lookup_user(uid)
        assert profile.version == 2
        assert profile.name == "John"
        assert profile.dialog_summaries == (
            MemoryItem("tennis game two days ago", "2024-05-13"),
        )
        assert profile.persona == {"favorite_sport": "tennis"}

    def test_seed_without_items_stays_at_version_one(self):
        store = MemoryStore()
        uid = seed_profile(store, face(0), voice(0), "Emily")
        assert store.lookup_user(uid).version == 1


def test_store_equality_conventions():
    a, _ = fresh_store(1)
    b, ids = fresh_store(1)
    assert a == b
    b.apply_profile_update(ids[0], UpdateResolution(ids[0], 1, (MemoryItem("x", "t"),)))
    assert a != b
    assert a != "not a store"
