"""Command line behavior: exit codes, output determinism, file pipelines."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from duplexmem import cli
from duplexmem.harness import (
    MetricCheck,
    MetricsTable,
    demo_scenario,
    scenario_from_json,
    scenario_store,
    scenario_to_json,
)
from duplexmem.store import ExtractedMemory, MemoryStore, RelationTriplet
from duplexmem.verification import Embedding


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_text_summary(self, capsys):
        code, out, err = run_cli(capsys, "synth", "--seed", "3")
        assert code == 0
        assert err == ""
        assert out.startswith("scenario scenario_0003")
        assert "identities:" in out

    def test_machine_output_is_a_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--seed", "3", "--format", "machine")
        assert code == 0
        scenario = scenario_from_json(out)
        assert scenario.name == "scenario_0003"

    def test_output_bytes_are_seed_deterministic(self, capsys):
        first = run_cli(capsys, "synth", "--seed", "11", "--format", "machine")
        second = run_cli(capsys, "synth", "--seed", "11", "--format", "machine")
        assert first == second
        third = run_cli(capsys, "synth", "--seed", "12", "--format", "machine")
        assert third[1] != first[1]

    def test_out_dir_receives_the_file(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        code, out, _ = run_cli(capsys, "synth", "--seed", "4", "--out", str(out_dir))
        assert code == 0
        path = out_dir / "scenario_0004.json"
        assert path.exists()
        assert f"wrote {path}" in out
        scenario_from_json(path.read_text())


class TestSimulate:
    def test_demo_walkthrough_passes(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--demo")
        assert code == 0
        assert "== walkthrough ==" in out
        assert "FAIL" not in out

    def test_demo_machine_payload(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--demo", "--format", "machine")
        assert code == 0
        payload = json.loads(out)
        assert payload["walkthrough"]["all_passed"] is True
        assert len(payload["days"]) == 2

    def test_source_flags_are_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "simulate")
        assert code == 2
        assert "exactly one" in err
        code, _, err = run_cli(capsys, "simulate", "--demo", "--seed", "3")
        assert code == 2

    def test_seeded_run_is_deterministic(self, capsys):
        first = run_cli(capsys, "simulate", "--seed", "6", "--format", "machine")
        second = run_cli(capsys, "simulate", "--seed", "6", "--format", "machine")
        assert first == second
        assert first[0] == 0

    def test_missing_scenario_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(tmp_path / "no.json"))
        assert code == 2
        assert "error:" in err

    def test_scenario_without_identities(self, capsys, tmp_path):
        payload = json.loads(scenario_to_json(demo_scenario()))
        del payload["identities"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == "error: bad scenario file: KeyError: 'identities'\n"

    def test_http_transport_needs_addresses(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--seed", "1", "--transport", "http")
        assert code == 2
        assert "backend addresses" in err

    def test_unknown_config_section(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"oops": {}}))
        code, _, err = run_cli(capsys, "simulate", "--demo", "--config", str(path))
        assert code == 2
        assert "unknown config sections" in err

    def test_bad_agent_key_in_config(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"agent": {"bogus_knob": 1}}))
        code, _, err = run_cli(capsys, "simulate", "--demo", "--config", str(path))
        assert code == 2
        assert "bad agent config" in err

    @pytest.mark.parametrize(
        "agent",
        [
            {"polling_interval_steps": True},
            {"loss_ticks_to_clear": False},
            {"retrieval_top_k": 2.5},
            {"profile_capacity": "256"},
            {"face_delta": "0.3"},
            {"face_delta": True},
            {"speaker_theta": float("nan")},
            {"speaker_theta": float("inf")},
        ],
        ids=lambda agent: "-".join(f"{k}={v!r}" for k, v in agent.items()),
    )
    def test_agent_config_field_types(self, capsys, tmp_path, agent):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"agent": agent}))  # NaN and Infinity as json writes them
        code, out, err = run_cli(capsys, "simulate", "--seed", "0", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad agent config: ")

    def test_config_that_is_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "simulate", "--demo", "--config", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Is a directory" in err

    def test_out_that_is_a_file(self, capsys, tmp_path):
        path = tmp_path / "taken"
        path.write_text("")
        code, out, err = run_cli(capsys, "simulate", "--seed", "0", "--out", str(path))
        assert code == 2
        assert err.startswith("error: ") and "File exists" in err
        assert path.read_text() == ""

    def test_unknown_backend_kind_in_config(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"backends": {"mystery": "http://x"}}))
        code, _, err = run_cli(capsys, "simulate", "--demo", "--config", str(path))
        assert code == 2
        assert "unknown backend kind" in err

    def test_agent_config_is_applied(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"agent": {"polling_interval_steps": 50}}))
        code, out, _ = run_cli(
            capsys, "simulate", "--seed", "6", "--format", "machine",
            "--config", str(path),
        )
        assert code == 0
        slow = json.loads(out)
        code, out, _ = run_cli(capsys, "simulate", "--seed", "6", "--format", "machine")
        fast = json.loads(out)
        for slow_day, fast_day in zip(slow["days"], fast["days"]):
            assert slow_day["counters"]["ticks"] * 2 == pytest.approx(
                fast_day["counters"]["ticks"], abs=2
            )


class TestFilePipeline:
    def test_synth_then_simulate_then_replay_then_inspect(self, capsys, tmp_path):
        synth_dir = tmp_path / "scen"
        code, _, _ = run_cli(
            capsys, "synth", "--seed", "8", "--days", "1", "--out", str(synth_dir)
        )
        assert code == 0
        scenario_path = synth_dir / "scenario_0008.json"

        sim_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--scenario",
            str(scenario_path),
            "--out",
            str(sim_dir),
            "--format",
            "machine",
        )
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        assert payload["scenario"] == "scenario_0008"
        events_path = sim_dir / "events.jsonl"
        assert events_path.exists()

        code, out, _ = run_cli(
            capsys, "replay", str(events_path), "--format", "machine"
        )
        assert code == 0
        replayed = json.loads(out)
        assert replayed["by_event"]["day_start"] == 1
        assert replayed["total"] == sum(replayed["by_event"].values())
        with open(events_path, encoding="utf-8") as fh:
            assert replayed["total"] == sum(1 for line in fh if line.strip())

        code, out, _ = run_cli(
            capsys, "store", "inspect", "--dir", str(sim_dir / "store"),
            "--format", "machine",
        )
        assert code == 0
        inspected = json.loads(out)
        assert len(inspected["users"]) >= 1
        assert inspected["audit_entries"] > 0
        names = {u["name"] for u in inspected["users"]}
        assert names  # every profile row carries a name

    def test_replay_rejects_garbage_lines(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "tick"}\nnot json\n')
        code, _, err = run_cli(capsys, "replay", str(path))
        assert code == 2
        assert "bad event line 2" in err

    def test_replay_numbers_bad_lines_by_file_line(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "tick"}\n\nnot json\n')
        code, _, err = run_cli(capsys, "replay", str(path))
        assert code == 2
        assert err.startswith("error: bad event line 3: ")

    @pytest.mark.parametrize("line", ["[1, 2]", '"x"', "3", "null"])
    def test_replay_rejects_lines_that_are_not_objects(self, capsys, tmp_path, line):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "tick"}\n' + line + "\n")
        code, _, err = run_cli(capsys, "replay", str(path))
        assert code == 2
        assert err == "error: bad event line 2: not a JSON object\n"

    def test_replay_rejects_invalid_utf8(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"event": "tick"}\n{"event": "\xff"}\n')
        code, out, err = run_cli(capsys, "replay", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad event line 2: 'utf-8' codec can't decode byte 0xff")

    def test_replay_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "replay", str(tmp_path / "absent.jsonl"))
        assert code == 2

    def test_replay_of_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "replay", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Is a directory" in err


class TestEval:
    def test_single_suite_text(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "verification")
        assert code == 0
        assert out.startswith("== verification ==")
        assert "FAIL" not in out

    def test_machine_output_parses(self, capsys, tmp_path):
        out_dir = tmp_path / "metrics"
        code, out, _ = run_cli(
            capsys, "eval", "verification", "--format", "machine", "--out", str(out_dir)
        )
        assert code == 0
        tables = json.loads(out)
        assert tables[0]["title"] == "verification"
        saved = json.loads((out_dir / "verification.json").read_text())
        assert saved == tables[0]

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        bad = MetricsTable("bad", (MetricCheck("x", 0.0, False),))
        monkeypatch.setitem(cli.EVAL_SUITES, "verification", lambda seed: bad)
        code, out, _ = run_cli(capsys, "eval", "verification")
        assert code == 1
        assert "FAIL" in out

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "eval", "nonsense")
        assert excinfo.value.code == 2


class TestStoreInspect:
    def persisted(self, tmp_path):
        store, _ = scenario_store(demo_scenario())
        store.persist(str(tmp_path / "store"))
        return store, tmp_path / "store"

    def test_lists_every_user_in_id_order(self, capsys, tmp_path):
        store, path = self.persisted(tmp_path)
        code, out, _ = run_cli(
            capsys, "store", "inspect", "--dir", str(path), "--format", "machine"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"users", "audit_entries"}
        assert [u["user_id"] for u in payload["users"]] == list(store.user_ids)
        first = store.lookup_user(store.user_ids[0])
        assert payload["users"][0] == {
            "user_id": first.user_id,
            "name": first.name,
            "version": first.version,
            "facts": len(first.facts),
            "summaries": len(first.dialog_summaries),
            "persona_slots_set": len(first.persona),
            "neighbors": len(store.connected_users(first.user_id)),
        }
        assert payload["audit_entries"] == len(store.audit_entries)

    def test_text_lists_neighbors(self, capsys, tmp_path):
        store, path = self.persisted(tmp_path)
        code, out, _ = run_cli(capsys, "store", "inspect", "--dir", str(path))
        assert code == 0
        for line, uid in zip(out.splitlines()[1:], store.user_ids, strict=True):
            assert line.startswith(uid)
            assert line.endswith(f", {len(store.connected_users(uid))} neighbors")

    def test_machine_output_counts_neighbors_as_connected_users_does(self, capsys, tmp_path):
        store, _ = scenario_store(demo_scenario())
        rng = np.random.default_rng(3)
        for _ in range(30):
            store.create_user(Embedding(rng.normal(size=512), "face"),
                              Embedding(rng.normal(size=256), "voice"), ExtractedMemory())
        ids = store.user_ids
        for _ in range(300):
            f, t = rng.choice(len(ids), 2, replace=False)
            relation = str(rng.choice(["friend", "colleague", "sister"]))
            store.add_relation_edge(RelationTriplet(ids[f], relation, ids[t]))
        store.persist(str(tmp_path / "store"))
        loaded = MemoryStore.load(str(tmp_path / "store"))
        users = []
        for uid in loaded.user_ids:  # the payload as built before, with connected_users
            profile = loaded.lookup_user(uid)
            users.append({
                "user_id": uid, "name": profile.name, "version": profile.version,
                "facts": len(profile.facts), "summaries": len(profile.dialog_summaries),
                "persona_slots_set": len(profile.persona),
                "neighbors": len(loaded.connected_users(uid)),
            })
        expected = {"users": users, "audit_entries": len(loaded.audit_entries)}
        code, out, _ = run_cli(
            capsys, "store", "inspect", "--dir", str(tmp_path / "store"), "--format", "machine"
        )
        assert code == 0
        assert out == json.dumps(expected, sort_keys=True, indent=1) + "\n"
        assert max(user["neighbors"] for user in users) > 10

    def test_dir_that_is_a_file(self, capsys, tmp_path):
        path = tmp_path / "store"
        path.write_text("")
        code, out, err = run_cli(capsys, "store", "inspect", "--dir", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Not a directory" in err

    def test_store_errors_are_reported_not_raised(self, capsys, tmp_path):
        _, path = self.persisted(tmp_path)
        header = json.loads((path / "store.json").read_text().splitlines()[0])
        with open(path / header["keys_file"], "r+b") as fh:
            byte = fh.read(1)
            fh.seek(0)
            fh.write(bytes([byte[0] ^ 0xFF]))
        code, out, err = run_cli(capsys, "store", "inspect", "--dir", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: key file does not match its manifest checksum\n"

    @pytest.mark.parametrize(
        "edit, cause",
        [
            (lambda m: m.pop("next_user"), "KeyError: 'next_user'"),
            (lambda m: m["key_dims"].update(voice=255), "EmbeddingShapeError"),
            (None, "JSONDecodeError"),
        ],
        ids=["missing_key", "wrong_key_dim", "not_json"],
    )
    def test_unreadable_manifest_is_reported(self, capsys, tmp_path, edit, cause):
        _, path = self.persisted(tmp_path)
        manifest_path = path / "store.json"
        if edit is None:
            manifest_path.write_text(manifest_path.read_text()[:-3])
        else:
            header, users = manifest_path.read_text().split("\n", 1)
            manifest = json.loads(header)
            edit(manifest)
            manifest_path.write_text(json.dumps(manifest) + "\n" + users)
        code, out, err = run_cli(capsys, "store", "inspect", "--dir", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: unreadable store {path}: {cause}")

    @pytest.mark.parametrize("text", ["[]", '"x"', "5"])
    def test_manifest_that_is_not_an_object_is_reported(self, capsys, tmp_path, text):
        _, path = self.persisted(tmp_path)
        (path / "store.json").write_text(text)
        code, out, err = run_cli(capsys, "store", "inspect", "--dir", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: unreadable store {path}: TypeError: the manifest must be")


def test_runs_as_a_module():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "duplexmem", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ")
