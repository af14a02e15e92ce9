"""Persist under faults: every write, fsync, rename, truncate and unlink that
persist makes fails in turn, and load then returns the old store or the new
one. Also the append-or-rewrite choice of the key file and the audit log
across stores that share a directory."""

import errno
import os
import shutil

import pytest

from duplexmem import store as store_module
from duplexmem.store import (
    ExtractedMemory,
    MemoryItem,
    MemoryStore,
    UpdateResolution,
)
from test_store import (
    FORMAT_1_FIXTURE,
    FORMAT_2_FIXTURE,
    ROW_BYTES,
    face,
    files_of,
    manifest_of,
    sidecar_of,
    stats_of,
    voice,
    warm,
)
from test_store import TestPersistence as _Persistence  # not collected twice

FAULTED = ("pwrite", "ftruncate", "fsync", "replace", "unlink")


class FaultyOs:
    """The os module, with the fail_at-th call of a FAULTED function failing
    (counted from 0). A failing pwrite first writes half its bytes."""

    def __init__(self, fail_at=None):
        self.fail_at = fail_at
        self.calls = []

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in FAULTED:
            return real

        def call(*args):
            self.calls.append(name)
            if len(self.calls) - 1 == self.fail_at:
                if name == "pwrite":
                    fd, data, offset = args
                    real(fd, bytes(data[: len(data) // 2]), offset)
                raise OSError(errno.EIO, f"injected fault at {name}")
            return real(*args)

        return call


def grow(store, n):
    """A new user and a profile update, so the sidecar and the log change."""
    uid = store.create_user(face(10 + n), voice(10 + n), ExtractedMemory(user_name=f"new{n}"))
    store.apply_profile_update(
        uid, UpdateResolution(uid, 1, (MemoryItem(f"fact {n}", "2024-06-01"),))
    )


def scenario_fresh(target):
    """Nothing in the directory yet."""
    return _Persistence().populated()


def scenario_append(target):
    """The store loaded from the directory, grown: its log is appended to."""
    _Persistence().populated().persist(target)
    store = MemoryStore.load(target)
    grow(store, 0)
    return store


def scenario_rewrite(target):
    """Another store's files in the directory: the log is written afresh."""
    other = _Persistence().populated()
    grow(other, 1)
    other.persist(target)
    return _Persistence().populated()


def scenario_format_1(target):
    """A memory-store/1 directory, loaded, grown and persisted in place."""
    shutil.copytree(FORMAT_1_FIXTURE, target)
    store = MemoryStore.load(target)
    grow(store, 2)
    return store


def scenario_format_2(target):
    """A memory-store/2 directory, loaded, grown and persisted in place: the
    log is appended to, the key rows written afresh."""
    shutil.copytree(FORMAT_2_FIXTURE, target)
    store = MemoryStore.load(target)
    grow(store, 4)
    return store


def scenario_moved(target):
    """The store loaded from another directory and grown, over an older copy
    of it: every key row is written afresh, only the new one hashed."""
    _Persistence().populated().persist(target + "-source")
    _Persistence().populated().persist(target)
    store = MemoryStore.load(target + "-source")
    grow(store, 5)
    return store


def scenario_crashed_tail(target):
    """The store loaded from the directory, after which a persist appended
    to the key file and the log and then crashed; grown."""
    _Persistence().populated().persist(target)
    store = MemoryStore.load(target)
    for name in (manifest_of(target)["keys_file"], "audit.log"):
        with open(os.path.join(target, name), "ab") as fh:
            fh.write(b"\1" * 100)
    grow(store, 6)
    return store


def scenario_warm_stats(target):
    """A store with key statistics, persisted, loaded, grown and queried
    again: the directory's statistics cover 2 rows, the store's 3."""
    warm(_Persistence().populated()).persist(target)
    store = MemoryStore.load(target)
    grow(store, 3)
    return warm(store)


SCENARIOS = {
    "fresh": scenario_fresh,
    "append": scenario_append,
    "rewrite": scenario_rewrite,
    "format_1": scenario_format_1,
    "format_2": scenario_format_2,
    "moved": scenario_moved,
    "crashed_tail": scenario_crashed_tail,
    "warm_stats": scenario_warm_stats,
}


def persists(store):
    return sum(entry["action"] == "persist" for entry in store.audit_entries)


def persist_with(monkeypatch, store, target, faulty):
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "os", faulty)
        store.persist(target)


def clean_calls(monkeypatch, tmp_path, scenario):
    target = str(tmp_path / "clean")
    store = SCENARIOS[scenario](target)
    faulty = FaultyOs()
    persist_with(monkeypatch, store, target, faulty)
    assert MemoryStore.load(target) == store
    return faulty.calls


def test_every_kind_of_call_is_faulted(monkeypatch, tmp_path):
    calls = clean_calls(monkeypatch, tmp_path, "rewrite")
    assert set(calls) == set(FAULTED)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_a_fault_anywhere_leaves_the_old_store_or_the_new_one(monkeypatch, tmp_path, scenario):
    calls = clean_calls(monkeypatch, tmp_path, scenario)
    outcomes = set()
    for k, name in enumerate(calls):
        target = str(tmp_path / f"fault{k}")
        store = SCENARIOS[scenario](target)
        old = MemoryStore.load(target) if os.path.exists(target) else None
        persisted = persists(store)
        with pytest.raises(OSError, match=f"injected fault at {name}"):
            persist_with(monkeypatch, store, target, FaultyOs(fail_at=k))
        try:
            loaded = MemoryStore.load(target)
        except FileNotFoundError:
            assert old is None, f"fault at call {k} ({name}) lost the old store"
            loaded_new = False
            outcomes.add("none")
        else:
            assert loaded in (old, store), f"fault at call {k} ({name}): a third store"
            loaded_new = loaded == store
            outcomes.add("new" if loaded_new else "old")
            assert stats_of(loaded) == stats_of(store if loaded_new else old)

        # the same store persists again, cleanly, over what the fault left
        store.persist(target)
        reloaded = MemoryStore.load(target)
        assert reloaded == store
        committed = 2 if loaded_new else 1  # the faulted persist's entry only if it committed
        assert persists(reloaded) == persisted + committed, f"fault at call {k} ({name})"
        manifest = manifest_of(target)
        assert sorted(os.listdir(target)) == sorted(
            ["store.json", manifest["keys_file"], manifest["audit_file"]]
        )
        log = os.path.join(target, manifest["audit_file"])
        assert os.path.getsize(log) == manifest["audit_bytes"]
        keys = os.path.join(target, manifest["keys_file"])
        assert os.path.getsize(keys) == len(manifest["key_rows"]) * 4 * (512 + 256)
    assert outcomes == ({"none", "new"} if scenario == "fresh" else {"old", "new"})


def test_loaded_store_appends_to_its_log(tmp_path):
    target = str(tmp_path / "store")
    _Persistence().populated().persist(target)
    log = os.path.join(target, "audit.log")
    with open(log, "rb") as fh:
        before = fh.read()
    inode = os.stat(log).st_ino
    store = MemoryStore.load(target)
    grow(store, 0)
    store.persist(target)
    with open(log, "rb") as fh:
        after = fh.read()
    assert os.stat(log).st_ino == inode
    assert after.startswith(before) and len(after) > len(before)
    assert MemoryStore.load(target) == store


def test_tail_past_committed_length_is_ignored_then_truncated(tmp_path):
    target = str(tmp_path / "store")
    _Persistence().populated().persist(target)
    store = MemoryStore.load(target)
    with open(os.path.join(target, "audit.log"), "ab") as fh:
        fh.write(b'{"action": "half a')
    assert MemoryStore.load(target) == store
    store.persist(target)
    assert os.path.getsize(os.path.join(target, "audit.log")) == manifest_of(target)["audit_bytes"]
    assert MemoryStore.load(target) == store


def test_persist_that_crashed_after_appending_rows_leaves_the_old_store(tmp_path, monkeypatch):
    target = str(tmp_path / "store")
    _Persistence().populated().persist(target)
    store, old = MemoryStore.load(target), MemoryStore.load(target)
    before = files_of(target)
    grow(store, 0)

    def crash(path, data):
        raise OSError(errno.EIO, "crashed before the commit")

    with monkeypatch.context() as patch:
        patch.setattr(store_module, "_atomic_write", crash)
        with pytest.raises(OSError, match="crashed before the commit"):
            store.persist(target)
    after = files_of(target)
    keys = manifest_of(target)["keys_file"]
    assert after["store.json"] == before["store.json"]
    assert after[keys].startswith(before[keys]) and len(after[keys]) == 3 * ROW_BYTES
    assert MemoryStore.load(target) == old
    store.persist(target)
    assert os.path.getsize(sidecar_of(target)) == 3 * ROW_BYTES
    assert MemoryStore.load(target) == store


def test_changed_manifest_means_a_fresh_log(tmp_path):
    target = str(tmp_path / "store")
    _Persistence().populated().persist(target)
    store = MemoryStore.load(target)
    MemoryStore.load(target).persist(target)  # another writer moves the manifest on
    grow(store, 0)
    store.persist(target)
    manifest = manifest_of(target)
    assert (manifest["audit_file"], manifest["keys_file"]) == ("audit-1.log", "keys-1.bin")
    assert MemoryStore.load(target) == store


def test_stores_alternating_on_one_directory_each_round_trip(tmp_path):
    """As the bench's rounds do: each round starts from one checkpoint and
    persists night after night to one directory, then loads it back."""
    checkpoint, night = str(tmp_path / "checkpoint"), str(tmp_path / "night")
    _Persistence().populated().persist(checkpoint)
    for round_ in range(3):
        store = MemoryStore.load(checkpoint)
        for night_ in range(3):
            grow(store, 10 * round_ + night_)
            store.persist(night)
            restored = MemoryStore.load(night)
            assert restored == store
            manifest = manifest_of(night)
            with open(os.path.join(night, manifest["audit_file"]), "rb") as fh:
                assert len(fh.read()) == manifest["audit_bytes"]
            store = restored
