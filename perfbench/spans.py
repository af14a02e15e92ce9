"""Spans and probes for the day-replay benchmark.

Probes replace module, class or instance attributes of duplexmem with
wrappers for the duration of a `with` block and put the originals back on
exit. The untraced run installs only the three process entry points as
`duplexmem.runtime` calls them; the traced run adds a span at every layer
boundary below them.

A span is (name, start, end, parent). Spans nest because the run is one
thread, so a layer's self time is its duration minus its children's
durations. Self times are summed per (name, parent name) as spans close; the
first MAX_KEPT spans are also kept in memory and written out at the end.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator, Mapping

import duplexmem.backends as backends
import duplexmem.pipeline as pipeline
import duplexmem.retrieval as retrieval
import duplexmem.runtime as runtime
from duplexmem.backends import BACKEND_KINDS, BackendClient
from duplexmem.sessions import ActivityTagger
from duplexmem.store import MemoryStore
from duplexmem.stream import StreamSegment, TokenStream

MAX_KEPT = 200_000

ValueFn = Callable[[tuple, dict, Any], float]


class Tracer:
    def __init__(self) -> None:
        self.kept: list[tuple[str, float, float, int]] = []
        self.started = 0
        self._stack: list[list[Any]] = []  # [index, name, start, child_seconds]
        # (name, parent name) -> [count, self seconds, value sum]
        self.stats: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list[float]]:
        """Time a block as one span; the yielded cell takes the span's value."""
        stack = self._stack
        index = self.started
        self.started += 1
        parent = stack[-1] if stack else None
        frame = [index, name, perf_counter(), 0.0]
        stack.append(frame)
        value = [0.0]
        try:
            yield value
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - frame[2]
            if parent is not None:
                parent[3] += duration
            entry = self.stats[(name, parent[1] if parent else "")]
            entry[0] += 1
            entry[1] += duration - frame[3]
            entry[2] += value[0]
            if len(self.kept) < MAX_KEPT:
                self.kept.append((name, frame[2], end, parent[0] if parent else -1))

    def wrap(self, name: str, fn: Callable[..., Any], value: ValueFn | None = None) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as cell:
                out = fn(*args, **kwargs)
                if value is not None:
                    cell[0] = value(args, kwargs, out)
            return out

        return traced

    def note(self, name: str, value: float) -> None:
        """Record a value measured outside any span, such as a size on disk."""
        entry = self.stats[(name, "")]
        entry[0] += 1
        entry[2] += value

    def count(self, name: str) -> int:
        return int(sum(e[0] for (n, _), e in self.stats.items() if n == name))

    def total(self, name: str, parent: str | None = None, field: int = 1) -> float:
        return sum(e[field] for (n, p), e in self.stats.items()
                   if n == name and (parent is None or p == parent))

    def mean_self(self, name: str) -> float:
        calls = self.count(name)
        return self.total(name) / calls if calls else 0.0

    def mean_value(self, name: str, parent: str | None = None) -> float:
        calls = self.total(name, parent, field=0)
        return self.total(name, parent, field=2) / calls if calls else 0.0

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans_started": self.started, "fields": ["name", "start", "end", "parent"],
                       "spans": self.kept}, fh)


class BackendTally:
    """Transport wrapper factory that counts envelopes sent per backend kind.

    It is handed to the suites' public wrap_transport hook at set-up, so every
    send of every suite passes through it. With a tracer attached, each send
    is also a span, and the envelope sizes are measured in a child span that
    no layer is charged for.
    """

    def __init__(self) -> None:
        self.sends: dict[str, int] = dict.fromkeys(BACKEND_KINDS, 0)
        self.tracer: Tracer | None = None

    def __call__(self, inner: Any) -> "_CountingTransport":
        return _CountingTransport(inner, self)


class _CountingTransport:
    def __init__(self, inner: Any, tally: BackendTally):
        self._inner = inner
        self._tally = tally

    def send(self, kind: str, envelope: Mapping[str, Any]) -> Mapping[str, Any]:
        self._tally.sends[kind] += 1
        tracer = self._tally.tracer
        if tracer is None:
            return self._inner.send(kind, envelope)
        with tracer.span(f"backends.{kind}.service"):
            response = self._inner.send(kind, envelope)
        with tracer.span("trace.wire") as cell:
            cell[0] = (len(json.dumps(envelope)) + len(json.dumps(response))) / 1024.0
        return response


@contextlib.contextmanager
def patched(patches: list[tuple[Any, str, Callable[..., Any]]]) -> Iterator[None]:
    """Install (owner, attribute, make_wrapper(original)) patches, then undo them."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, make in patches:
            setattr(owner, attr, make(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _n_arg(position: int) -> ValueFn:
    return lambda args, kwargs, out: len(args[position])


def _n_out(args: tuple, kwargs: dict, out: Any) -> float:
    return len(out)


def layer_patches(tracer: Tracer) -> list[tuple[Any, str, Callable[..., Any]]]:
    """A span at every layer boundary the three processes cross.

    Each wrapper sits on the name its caller looks up, so runtime.face_verify
    and pipeline.face_verify are two patches of the one layer.
    """
    def span(name: str, value: ValueFn | None = None) -> Callable[..., Any]:
        return lambda fn: tracer.wrap(name, fn, value)

    def client_call(fn: Callable[..., Any]) -> Callable[..., Any]:
        def call(self: BackendClient, body: Mapping[str, Any]) -> dict[str, Any]:
            with tracer.span(f"backends.{self.kind}"):
                return fn(self, body)
        return call

    return [
        (runtime, "polling_tick", span("runtime.polling_tick")),
        (runtime, "handle_retrieval_request", span("runtime.handle_retrieval_request")),
        (runtime, "run_management_cycle", span("runtime.run_management_cycle")),
        (TokenStream, "segment", span("stream.segment")),
        (StreamSegment, "dominant_marker", span("stream.dominant_marker")),
        (ActivityTagger, "__call__", span("sessions.tag")),
        (pipeline, "extract_sessions", span("sessions.extract", lambda a, k, o: len(o.spans))),
        (pipeline, "process_session", span("pipeline.session")),
        (runtime, "face_verify", span("verification.face", _n_arg(1))),
        (pipeline, "face_verify", span("verification.face", _n_arg(1))),
        (runtime, "speaker_verify", span("verification.speaker", _n_arg(1))),
        (pipeline, "speaker_verify", span("verification.speaker", _n_arg(1))),
        (MemoryStore, "user_keys", span("store.user_keys")),
        (MemoryStore, "create_user", span("store.create")),
        (MemoryStore, "apply_profile_update", span("store.update")),
        (MemoryStore, "lookup_user", span("store.lookup")),
        (retrieval, "build_documents", span("retrieval.build", _n_out)),
        (retrieval, "bm25_rank", span("retrieval.bm25", _n_out)),
        (retrieval, "rerank_by_keywords", span("retrieval.rerank", _n_arg(0))),
        (backends, "validate_request", span("backends.validate")),
        (backends, "validate_response", span("backends.validate")),
        (BackendClient, "call", client_call),
    ]


def per_layer(tracer: Tracer, days: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run: mean self time per call unless noted."""
    ms = 1000.0
    ticks = tracer.count("runtime.polling_tick")
    cycles = tracer.count("runtime.run_management_cycle")
    window = sum(tracer.total(name, "runtime.polling_tick")
                 for name in ("stream.segment", "stream.dominant_marker"))
    out: dict[str, tuple[float, str]] = {
        "stream.parse_ms": (tracer.mean_self("stream.parse") * ms, "ms"),
        "stream.window_us": (window / ticks * 1e6 if ticks else 0.0, "us"),
        "stream.build_ms": (tracer.mean_self("stream.build") * ms, "ms"),
        "stream.serialize_ms": (tracer.mean_self("stream.serialize") * ms, "ms"),
        "sessions.tag_ms": (tracer.mean_self("sessions.tag") * ms, "ms"),
        "sessions.extract_ms": (tracer.mean_self("sessions.extract") * ms, "ms"),
        "sessions.spans": (tracer.mean_value("sessions.extract"), "count"),
        "verification.face_ms": (tracer.mean_self("verification.face") * ms, "ms"),
        "verification.face_keys": (tracer.mean_value("verification.face"), "count"),
        "verification.speaker_ms": (tracer.mean_self("verification.speaker") * ms, "ms"),
        "verification.speaker_keys": (tracer.mean_value("verification.speaker"), "count"),
        "store.user_keys_ms": (tracer.mean_self("store.user_keys") * ms, "ms"),
        "store.create_ms": (tracer.mean_self("store.create") * ms, "ms"),
        "store.update_ms": (tracer.mean_self("store.update") * ms, "ms"),
        "store.lookup_ms": (tracer.mean_self("store.lookup") * ms, "ms"),
        "store.disk_kb": (tracer.mean_value("store.disk"), "KB"),
        "store.audit_entries": (tracer.mean_value("store.audit"), "count"),
        "store.users": (tracer.mean_value("store.users"), "count"),
        "retrieval.build_ms": (tracer.mean_self("retrieval.build") * ms, "ms"),
        "retrieval.docs": (tracer.mean_value("retrieval.build"), "count"),
        "retrieval.bm25_ms": (tracer.mean_self("retrieval.bm25") * ms, "ms"),
        "retrieval.bm25_kept": (tracer.mean_value("retrieval.bm25"), "count"),
        "retrieval.rerank_ms": (tracer.mean_self("retrieval.rerank") * ms, "ms"),
        "retrieval.rerank_docs": (tracer.mean_value("retrieval.rerank"), "count"),
    }
    for kind in BACKEND_KINDS:
        name = f"backends.{kind}"
        calls = tracer.count(name)
        sends = tracer.count(f"{name}.service")
        out[f"{name}.calls"] = (calls / days, "calls/day")
        out[f"{name}.ms"] = (tracer.mean_self(name) * ms, "ms")
        out[f"{name}.service_ms"] = (tracer.mean_self(f"{name}.service") * ms, "ms")
        out[f"{name}.wire_kb"] = (tracer.mean_value("trace.wire", name), "KB")
        out[f"{name}.retries"] = ((sends - calls) / days, "count/day")
    out["backends.validate_ms"] = (tracer.mean_self("backends.validate") * ms, "ms")
    out["pipeline.session_ms"] = (tracer.mean_self("pipeline.session") * ms, "ms")
    for name in ("sessions", "created", "updated"):
        total = tracer.total(f"pipeline.{name}", field=2)
        out[f"pipeline.{name}"] = (total / cycles if cycles else 0.0, "count")
    out["runtime.loop_self_ms"] = (tracer.mean_self("runtime.run_agent") * ms, "ms")
    out["harness.synth_ms"] = (tracer.mean_self("harness.synth") * ms, "ms")
    out["harness.enrol_ms"] = (tracer.mean_self("harness.enrol") * ms, "ms")
    return out
