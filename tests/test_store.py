"""Profile store semantics: versioned updates, the social graph, persistence."""

import json
import os
import shutil

import numpy as np
import pytest

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
from duplexmem.verification import Embedding, EmbeddingShapeError


def face(i):
    rng = np.random.default_rng(1000 + i)
    return Embedding(rng.normal(size=512), "face")


def voice(i):
    rng = np.random.default_rng(2000 + i)
    return Embedding(rng.normal(size=256), "voice")


# A store written by memory-store/1: TestPersistence.populated(), persisted
# to the relative path "store".
FORMAT_1_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "store-v1")


def manifest_of(target):
    with open(os.path.join(target, "store.json")) as fh:
        return json.load(fh)


def sidecar_of(target):
    return os.path.join(target, manifest_of(target)["embeddings_file"])


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
        manifest_path = os.path.join(target, "store.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["aux"] = aux
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
        return store, target

    def test_manifest_with_empty_aux_list_loads(self, tmp_path):
        store, target = self.persisted_with_aux(tmp_path, [])
        assert MemoryStore.load(target) == store

    def test_user_records_with_relation_edges_load(self, tmp_path):
        """Older memory-store/2 user records carry "relation_edges": []."""
        store = self.populated()
        target = str(tmp_path / "store")
        store.persist(target)
        manifest = manifest_of(target)
        for record in manifest["users"].values():
            record["relation_edges"] = []
        with open(os.path.join(target, "store.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True)
        assert MemoryStore.load(target) == store

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
        sidecar_path = sidecar_of(target)
        with open(sidecar_path, "rb") as fh:
            data = fh.read()[:100]
        manifest_path = os.path.join(target, "store.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        import hashlib

        manifest["embeddings_sha256"] = hashlib.sha256(data).hexdigest()
        with open(sidecar_path, "wb") as fh:
            fh.write(data)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(StoreChecksumError):
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
            manifest = json.loads(text)
            manifest["key_dims"]["voice"] = 255
            return json.dumps(manifest)

        target = self.persisted_with_manifest(tmp_path, edit)
        with pytest.raises(StoreError, match="EmbeddingShapeError") as info:
            MemoryStore.load(target)
        assert isinstance(info.value.__cause__, EmbeddingShapeError)

    def test_missing_manifest_key_rejected(self, tmp_path):
        def edit(text):
            manifest = json.loads(text)
            del manifest["next_user"]
            return json.dumps(manifest)

        target = self.persisted_with_manifest(tmp_path, edit)
        with pytest.raises(StoreError, match="KeyError: 'next_user'") as info:
            MemoryStore.load(target)
        assert isinstance(info.value.__cause__, KeyError)

    def test_manifest_that_is_not_json_rejected(self, tmp_path):
        target = self.persisted_with_manifest(tmp_path, lambda text: text[:-3])
        with pytest.raises(StoreError, match="JSONDecodeError") as info:
            MemoryStore.load(target)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_unknown_format_rejected(self, tmp_path):
        store = self.populated()
        target = str(tmp_path / "store")
        store.persist(target)
        manifest_path = os.path.join(target, "store.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["format"] = "memory-store/99"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(StoreError):
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
        assert manifest["format"] == "memory-store/2"
        assert sorted(os.listdir(target)) == sorted(
            ["store.json", manifest["embeddings_file"], manifest["audit_file"]]
        )
        assert MemoryStore.load(target) == store

    def test_manifest_is_compact_and_names_its_files(self, tmp_path):
        target = str(tmp_path / "store")
        store = self.populated()
        store.persist(target)
        with open(os.path.join(target, "store.json")) as fh:
            text = fh.read()
        manifest = json.loads(text)
        assert text == json.dumps(manifest, sort_keys=True)
        assert manifest["key_rows"] == ["user_0001", "user_0002"]
        assert manifest["key_dims"] == {"face": 512, "voice": 256}
        assert "keys" not in manifest["users"]["user_0001"]
        assert manifest["embeddings_file"] == f"embeddings-{manifest['embeddings_sha256']}.bin"
        with open(sidecar_of(target), "rb") as fh:
            rows = np.frombuffer(fh.read(), "<f4")
        faces, voices = rows[:2 * 512].reshape(2, 512), rows[2 * 512:].reshape(2, 256)
        assert np.array_equal(faces[1], np.float32(face(1).values))
        assert np.array_equal(voices[0], np.float32(voice(0).values))
        assert manifest["audit_file"] == "audit.log"
        assert manifest["audit_bytes"] == os.path.getsize(os.path.join(target, "audit.log"))
        assert sorted(os.listdir(target)) == sorted(
            ["store.json", manifest["embeddings_file"], "audit.log"]
        )

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
        ],
        ids=[
            "edge_endpoint", "persona_slot", "version", "next_user", "key_rows", "audit_length",
            "float_version", "bool_version", "null_name", "empty_fact", "no_summaries",
            "null_persona", "bare_fact", "float_next_user", "bool_next_user", "zero_next_user",
            "str_store_version", "float_store_version", "bool_store_version",
            "negative_store_version",
        ],
    )
    def test_broken_invariant_rejected(self, tmp_path, edit, message):
        def rewrite(text):
            manifest = json.loads(text)
            edit(manifest)
            return json.dumps(manifest)

        target = self.persisted_with_manifest(tmp_path, rewrite)
        with pytest.raises(StoreError, match=message):
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
