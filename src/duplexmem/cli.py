"""Command line front end.

Subcommands:
  synth          synthesize a scenario and write it as JSON
  simulate       run the lifelong agent over a scenario (demo, file, or seed)
  eval           run one metric suite (or all) and exit nonzero on failures
  store inspect  summarize a persisted memory store directory
  replay         summarize a previously written event log

Every command is deterministic for a fixed --seed: output bytes carry no
wall-clock readings, and all JSON is emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Mapping, Sequence

from .backends import BACKEND_KINDS, http_suite
from .harness import (
    HarnessError,
    MetricsTable,
    Scenario,
    ScenarioSpec,
    SimulationResult,
    demo_scenario,
    eval_retrieval,
    eval_streams,
    eval_trigger,
    eval_verification,
    run_walkthrough,
    scenario_from_json,
    scenario_to_json,
    simulate_lifelong_run,
    synth_scenario,
)
from .runtime import AgentConfig, config_from_mapping
from .store import MemoryStore, StoreError

EVAL_SUITES: Mapping[str, Callable[[int], MetricsTable]] = {
    "verification": lambda seed: eval_verification(seed=seed),
    "trigger": lambda seed: eval_trigger(seed=seed),
    "retrieval": lambda seed: eval_retrieval(seed=seed),
    "streams": lambda seed: eval_streams(seed=seed),
}


class CliError(Exception):
    pass


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _write_out(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _machine(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def load_cli_config(path: str | None) -> tuple[AgentConfig, dict[str, str]]:
    """Config file: {"agent": {AgentConfig fields}, "backends": {kind: addr}}."""
    if path is None:
        return AgentConfig(), {}
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise CliError("config file must hold a JSON object")
    unknown = set(raw) - {"agent", "backends"}
    if unknown:
        raise CliError(f"unknown config sections: {sorted(unknown)}")
    try:
        config = config_from_mapping(raw.get("agent", {}))
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad agent config: {exc}") from exc
    backends = dict(raw.get("backends", {}))
    for kind in backends:
        if kind not in BACKEND_KINDS:
            raise CliError(f"unknown backend kind in config: {kind!r}")
    return config, backends


# --------------------------------------------------------------------------
# synth


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = ScenarioSpec(seed=args.seed, n_days=args.days)
    scenario = synth_scenario(spec)
    text = scenario_to_json(scenario)
    if args.out:
        path = _write_out(args.out, f"{scenario.name}.json", text)
        _emit(f"wrote {path}")
    if args.format == "machine":
        _emit(text)
    else:
        lines = [f"scenario {scenario.name}"]
        lines.append(f"identities: {', '.join(i.name for i in scenario.identities)}")
        lines.append(f"edges: {len(scenario.edges)}")
        for day in scenario.days:
            turns = sum(len(s.turns) for s in day.scripts)
            lines.append(f"day {day.timestamp}: {len(day.scripts)} dialogs, {turns} turns")
        _emit("\n".join(lines))
    return 0


# --------------------------------------------------------------------------
# simulate


def _load_scenario(args: argparse.Namespace) -> Scenario:
    picked = [bool(args.demo), args.scenario is not None, args.seed is not None]
    if sum(picked) != 1:
        raise CliError("pick exactly one of --demo, --scenario FILE, --seed N")
    if args.demo:
        return demo_scenario()
    if args.scenario is not None:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            try:
                return scenario_from_json(fh.read())
            except (KeyError, TypeError, ValueError, HarnessError) as exc:
                raise CliError(f"bad scenario file: {type(exc).__name__}: {exc}") from exc
    return synth_scenario(ScenarioSpec(seed=args.seed))


def _simulation_payload(sim: SimulationResult) -> dict[str, Any]:
    return {
        "scenario": sim.scenario_name,
        "days": [
            {
                "timestamp": day.timestamp,
                "events": len(day.run.events),
                "counters": day.run.counters.to_payload(),
                "tracked_user": day.run.tracked_user,
            }
            for day in sim.days
        ],
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    config, addresses = load_cli_config(args.config)
    scenario = _load_scenario(args)

    suite_factory = None
    if args.transport == "http":
        if not addresses:
            raise CliError("http transport needs a config file with backend addresses")
        suite_factory = lambda scripts: http_suite(addresses)  # noqa: E731

    if args.demo:
        result = run_walkthrough(config)
        sim = result.simulation
        table: MetricsTable | None = result.table
    else:
        sim = simulate_lifelong_run(scenario, config, suite_factory=suite_factory)
        table = None

    payload = _simulation_payload(sim)
    if table is not None:
        payload["walkthrough"] = table.to_payload()

    if args.out:
        events_path = _write_out(args.out, "events.jsonl", sim.events_jsonl())
        store_dir = os.path.join(args.out, "store")
        sim.store.persist(store_dir)
        _emit(f"wrote {events_path}")
        _emit(f"wrote {store_dir}/")

    if args.format == "machine":
        _emit(_machine(payload))
    else:
        lines = [f"scenario {sim.scenario_name}"]
        for day in payload["days"]:
            c = day["counters"]
            lines.append(
                f"day {day['timestamp']}: {day['events']} events, "
                f"{c['ticks']} ticks, {c['switch_count']} switches, "
                f"{c['queries_handled']} queries, {c['management_cycles']} cycles"
            )
        _emit("\n".join(lines))
        if table is not None:
            _emit(table.render_text())
    if table is not None and not table.all_passed:
        return 1
    return 0


# --------------------------------------------------------------------------
# eval


def _cmd_eval(args: argparse.Namespace) -> int:
    names = list(EVAL_SUITES) if args.suite == "all" else [args.suite]
    tables = [EVAL_SUITES[name](args.seed) for name in names]
    if args.format == "machine":
        _emit(_machine([t.to_payload() for t in tables]))
    else:
        _emit("\n\n".join(t.render_text() for t in tables))
    if args.out:
        for table in tables:
            _write_out(args.out, f"{table.title}.json", _machine(table.to_payload()))
    return 0 if all(t.all_passed for t in tables) else 1


# --------------------------------------------------------------------------
# store inspect


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    store = MemoryStore.load(args.dir)
    users, neighbors = [], store.neighbor_counts()
    for user_id in store.user_ids:
        profile = store.lookup_user(user_id)
        users.append(
            {
                "user_id": user_id,
                "name": profile.name,
                "version": profile.version,
                "facts": len(profile.facts),
                "summaries": len(profile.dialog_summaries),
                "persona_slots_set": len(profile.persona),
                "neighbors": neighbors[user_id],
            }
        )
    payload = {"users": users, "audit_entries": len(store.audit_entries)}
    if args.format == "machine":
        _emit(_machine(payload))
    else:
        lines = [f"{len(users)} users, {payload['audit_entries']} audit entries"]
        for user in users:
            lines.append(
                f"{user['user_id']}  {user['name']:<16} v{user['version']}  "
                f"{user['facts']} facts, {user['summaries']} summaries, "
                f"{user['neighbors']} neighbors"
            )
        _emit("\n".join(lines))
    return 0


# --------------------------------------------------------------------------
# replay


def _cmd_replay(args: argparse.Namespace) -> int:
    counts: dict[str, int] = {}
    total = 0
    with open(args.event_log, "rb") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CliError(f"bad event line {number}: {exc}") from exc
            if not isinstance(event, dict):
                raise CliError(f"bad event line {number}: not a JSON object")
            total += 1
            kind = str(event.get("event", "unknown"))
            counts[kind] = counts.get(kind, 0) + 1
    payload = {"total": total, "by_event": dict(sorted(counts.items()))}
    if args.format == "machine":
        _emit(_machine(payload))
    else:
        lines = [f"{total} events"]
        for kind, count in sorted(counts.items()):
            lines.append(f"{count:>6}  {kind}")
        _emit("\n".join(lines))
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duplexmem",
        description="Scenario synthesis, lifelong simulation, and metric suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--out", metavar="DIR", default=None, help="directory for artifacts")

    p_synth = sub.add_parser("synth", help="synthesize a scenario")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--days", type=int, default=2)
    common(p_synth)
    p_synth.set_defaults(func=_cmd_synth)

    p_sim = sub.add_parser("simulate", help="run the agent over a scenario")
    p_sim.add_argument("--demo", action="store_true", help="the scripted two-day story")
    p_sim.add_argument("--scenario", metavar="FILE", default=None)
    p_sim.add_argument("--seed", type=int, default=None, help="synthesize on the fly")
    p_sim.add_argument("--config", metavar="PATH", default=None)
    p_sim.add_argument("--transport", choices=("mock", "http"), default="mock")
    common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_eval = sub.add_parser("eval", help="run metric suites")
    p_eval.add_argument("suite", choices=(*EVAL_SUITES, "all"))
    p_eval.add_argument("--seed", type=int, default=0)
    common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_store = sub.add_parser("store", help="persisted store utilities")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_inspect = store_sub.add_parser("inspect", help="summarize a store directory")
    p_inspect.add_argument("--dir", required=True)
    common(p_inspect)
    p_inspect.set_defaults(func=_cmd_store_inspect)

    p_replay = sub.add_parser("replay", help="summarize an event log")
    p_replay.add_argument("event_log", metavar="EVENT_LOG")
    common(p_replay)
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, StoreError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
