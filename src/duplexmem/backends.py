"""Model-backend clients and deterministic in-process mocks.

Six backend kinds sit behind one request/response contract: face and voice
encoders, a text encoder, speech recognition, memory extraction, and the
update agent that reconciles extracted memory against a stored profile.
Every payload travels in an envelope stamped with a versioned schema name
("face_encoder/1", ...). Transport failures and timeouts are retried a fixed
number of times; schema violations are not, and the offending payload rides
the raised error for postmortems.

The mocks make the whole system runnable and testable offline. They are
seeded, so equal inputs yield bit-equal outputs across processes and runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Protocol, Sequence

import numpy as np

from .retrieval import tokenize
from .verification import FACE_DIM, MODALITY_DIMS, VOICE_DIM, Embedding, EmbeddingShapeError

BACKEND_KINDS = (
    "face_encoder",
    "voice_encoder",
    "text_encoder",
    "asr",
    "extractor",
    "update_agent",
)

SCHEMA_VERSION = 1
TEXT_EMBED_DIM = 128
TEXTS_PER_ENVELOPE = 64  # keeps each text reply, and the run's peak memory, small
DEFAULT_NOISE_SCALE = 0.05
ENV_ADDR_PREFIX = "DUPLEXMEM_"


class BackendError(Exception):
    """Base for everything a backend call can raise."""


class BackendTimeoutError(BackendError):
    pass


class BackendTransportError(BackendError):
    pass


class BackendSchemaError(BackendError):
    """Malformed request or response. Never retried; payload is retained."""

    def __init__(self, message: str, payload: Any = None):
        super().__init__(message)
        self.payload = payload


def schema_name(kind: str) -> str:
    if kind not in BACKEND_KINDS:
        raise ValueError(f"unknown backend kind {kind!r}")
    return f"{kind}/{SCHEMA_VERSION}"


def stable_seed(*parts: object) -> int:
    """64-bit seed derived from the textual form of the parts via blake2b."""
    joined = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(joined.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# --------------------------------------------------------------------------
# identity seeds


@dataclass(frozen=True)
class IdentitySeed:
    """Reproducible ground-truth identity for the mock AV encoders.

    The face and voice bases are unit-norm Gaussian directions derived from
    (vector_seed, identity_id, modality), so a seed survives a JSON round
    trip without shipping raw vectors. Observations of the identity add a
    unit-direction perturbation of length noise_scale and renormalize, which
    keeps within-identity cosine distance near noise_scale**2 / 2 and leaves
    cross-identity distance near 1.
    """

    identity_id: str
    vector_seed: int
    noise_scale: float = DEFAULT_NOISE_SCALE

    def __post_init__(self) -> None:
        if not self.identity_id:
            raise ValueError("identity_id must be non-empty")
        if not 0.0 <= self.noise_scale < 1.0:
            raise ValueError("noise_scale must be in [0, 1)")

    def base_vector(self, modality: str) -> np.ndarray:
        if modality not in MODALITY_DIMS:
            raise ValueError(f"no identity vectors for modality {modality!r}")
        rng = np.random.default_rng(
            stable_seed(self.vector_seed, self.identity_id, modality, "base")
        )
        vec = rng.standard_normal(MODALITY_DIMS[modality])
        return (vec / np.linalg.norm(vec)).astype(np.float32)

    def observe(self, modality: str, sample_index: int) -> np.ndarray:
        """One noisy observation; equal sample_index gives equal bytes."""
        base = self.base_vector(modality).astype(np.float64)
        if self.noise_scale == 0.0:
            return base.astype(np.float32)
        rng = np.random.default_rng(
            stable_seed(self.vector_seed, self.identity_id, modality, sample_index)
        )
        direction = rng.standard_normal(base.size)
        direction /= np.linalg.norm(direction)
        noisy = base + self.noise_scale * direction
        return (noisy / np.linalg.norm(noisy)).astype(np.float32)

    def key_embedding(self, modality: str) -> Embedding:
        return Embedding(self.base_vector(modality), modality)  # type: ignore[arg-type]


# --------------------------------------------------------------------------
# schema validation

_Validator = Callable[[Mapping[str, Any]], None]


def _need(payload: Mapping[str, Any], key: str, types: type | tuple[type, ...]) -> Any:
    if key not in payload:
        raise BackendSchemaError(f"missing field {key!r}", payload=dict(payload))
    value = payload[key]
    if not isinstance(value, types):
        raise BackendSchemaError(
            f"field {key!r} has type {type(value).__name__}", payload=dict(payload)
        )
    return value


def _is_vector(values: Any, dim: int) -> bool:
    """A flat list of dim finite numbers. NaN and infinities carry through the
    sum; a string, null or nested list in it makes the sum raise TypeError."""
    try:
        return isinstance(values, list) and len(values) == dim and math.isfinite(sum(values))
    except (TypeError, OverflowError):  # OverflowError: an int beyond the float range
        return False


def _check_av_request(body: Mapping[str, Any]) -> None:
    marker = body.get("marker")
    if marker is not None and not isinstance(marker, int):
        raise BackendSchemaError("marker must be an int or null", payload=dict(body))
    _need(body, "sample_index", int)


def _check_av_response(body: Mapping[str, Any], dim: int) -> None:
    if _need(body, "detected", bool):
        if not _is_vector(body.get("embedding"), dim):
            raise BackendSchemaError(
                f"embedding must be a list of {dim} finite numbers", payload=dict(body)
            )
    elif body.get("embedding") is not None:
        raise BackendSchemaError(
            "undetected response must not carry an embedding", payload=dict(body)
        )


def _check_text_request(body: Mapping[str, Any]) -> None:
    texts = _need(body, "texts", list)
    if not texts or not all(isinstance(t, str) for t in texts):
        raise BackendSchemaError("texts must be a non-empty list of strings", payload=dict(body))


def _check_text_response(body: Mapping[str, Any]) -> None:
    embeddings = _need(body, "embeddings", list)
    if not embeddings or not all(_is_vector(e, TEXT_EMBED_DIM) for e in embeddings):
        raise BackendSchemaError(
            f"embeddings must be a non-empty list of lists of {TEXT_EMBED_DIM} finite numbers",
            payload=dict(body),
        )


def _check_asr_request(body: Mapping[str, Any]) -> None:
    _need(body, "marker", int)
    start = _need(body, "start_step", int)
    end = _need(body, "end_step", int)
    if start < 0 or end < start:
        raise BackendSchemaError("bad step span", payload=dict(body))


def _check_asr_response(body: Mapping[str, Any]) -> None:
    _need(body, "transcript", str)


def _check_extractor_request(body: Mapping[str, Any]) -> None:
    transcript = _need(body, "transcript", str)
    if not transcript.strip():
        raise BackendSchemaError("transcript must be non-empty", payload=dict(body))
    _need(body, "timestamp", str)


def _check_extractor_response(body: Mapping[str, Any]) -> None:
    summaries = _need(body, "summary_sentences", list)
    facts = _need(body, "user_facts", list)
    if not all(isinstance(s, str) for s in summaries + facts):
        raise BackendSchemaError("summaries and facts must be strings", payload=dict(body))
    persona = _need(body, "persona_trail", dict)
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in persona.items()):
        raise BackendSchemaError("persona_trail must map strings to strings", payload=dict(body))
    _need(body, "user_name", str)
    relations = _need(body, "relation_facts", list)
    for pair in relations:
        if not isinstance(pair, list) or len(pair) != 2:
            raise BackendSchemaError(
                "relation_facts must be [relation, name] pairs", payload=dict(body)
            )


def _check_update_request(body: Mapping[str, Any]) -> None:
    _need(body, "extracted", dict)
    profile = _need(body, "profile", dict)
    for key in ("user_id", "version", "facts", "dialog_summaries", "persona"):
        if key not in profile:
            raise BackendSchemaError(f"profile missing {key!r}", payload=dict(body))


def _check_update_response(body: Mapping[str, Any]) -> None:
    _need(body, "target_user", str)
    _need(body, "base_version", int)
    for key in ("fact_appends", "summary_appends", "replacements"):
        _need(body, key, list)
    _need(body, "persona_updates", dict)


_REQUEST_VALIDATORS: dict[str, _Validator] = {
    "face_encoder": _check_av_request,
    "voice_encoder": _check_av_request,
    "text_encoder": _check_text_request,
    "asr": _check_asr_request,
    "extractor": _check_extractor_request,
    "update_agent": _check_update_request,
}

_RESPONSE_VALIDATORS: dict[str, _Validator] = {
    "face_encoder": lambda body: _check_av_response(body, FACE_DIM),
    "voice_encoder": lambda body: _check_av_response(body, VOICE_DIM),
    "text_encoder": _check_text_response,
    "asr": _check_asr_response,
    "extractor": _check_extractor_response,
    "update_agent": _check_update_response,
}


def validate_request(kind: str, body: Mapping[str, Any]) -> None:
    _REQUEST_VALIDATORS[kind](body)


def validate_response(kind: str, body: Mapping[str, Any]) -> None:
    _RESPONSE_VALIDATORS[kind](body)


# --------------------------------------------------------------------------
# transports


class Transport(Protocol):
    def send(self, kind: str, envelope: Mapping[str, Any]) -> Mapping[str, Any]:
        """Deliver one request envelope; returns the response envelope."""


class MockService(Protocol):
    kind: str

    def handle(self, body: Mapping[str, Any]) -> Mapping[str, Any]: ...


class InProcessTransport:
    """Calls a mock service directly. Validates like a remote peer would."""

    def __init__(self, service: "MockService"):
        self._service = service

    def send(self, kind: str, envelope: Mapping[str, Any]) -> Mapping[str, Any]:
        if kind != self._service.kind:
            raise BackendTransportError(
                f"service handles {self._service.kind!r}, got {kind!r}"
            )
        body = self._service.handle(envelope["body"])
        return {"schema": schema_name(kind), "body": body}


class FlakyTransport:
    """Deterministic failure injector wrapped around a real transport.

    Each send consumes one draw from a seeded stream; a draw under the
    failure rate raises a timeout instead of forwarding the call. Used to
    exercise the degraded-backend paths without real flakiness.
    """

    def __init__(self, inner: Transport, failure_rate: float, seed: int = 0):
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        self._inner = inner
        self._rate = failure_rate
        self._rng = np.random.default_rng(stable_seed("flaky", seed))
        self.calls = 0
        self.failures = 0

    def send(self, kind: str, envelope: Mapping[str, Any]) -> Mapping[str, Any]:
        self.calls += 1
        if self._rng.random() < self._rate:
            self.failures += 1
            raise BackendTimeoutError(f"injected timeout on {kind}")
        return self._inner.send(kind, envelope)


class HttpTransport:
    """POSTs JSON envelopes to an HTTP endpoint via urllib."""

    def __init__(self, address: str, timeout_s: float = 5.0):
        self._address = address.rstrip("/")
        self._timeout = timeout_s

    def send(self, kind: str, envelope: Mapping[str, Any]) -> Mapping[str, Any]:
        data = json.dumps(envelope, sort_keys=True).encode("utf-8")
        request = urllib.request.Request(
            f"{self._address}/{kind}",
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as response:
                raw = response.read()
        except TimeoutError as exc:
            raise BackendTimeoutError(f"{kind} timed out after {self._timeout}s") from exc
        except urllib.error.HTTPError as exc:
            raise BackendTransportError(f"{kind} returned HTTP {exc.code}") from exc
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                raise BackendTimeoutError(f"{kind} timed out after {self._timeout}s") from exc
            raise BackendTransportError(f"{kind} unreachable: {exc.reason}") from exc
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BackendSchemaError(f"{kind} returned non-JSON", payload=raw[:512]) from exc


# --------------------------------------------------------------------------
# retrying client


@dataclass(frozen=True)
class RetryPolicy:
    """retries counts re-sends, so retries=2 means at most 3 attempts."""

    retries: int = 2
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.retries < 0 or self.delay_s < 0:
            raise ValueError("retries and delay_s must be non-negative")


class BackendClient:
    """Schema-checked, retrying front door to one backend kind."""

    def __init__(self, kind: str, transport: Transport, retry: RetryPolicy = RetryPolicy()):
        if kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {kind!r}")
        self.kind = kind
        self._transport = transport
        self._retry = retry
        self.attempts = 0

    def call(self, body: Mapping[str, Any]) -> dict[str, Any]:
        validate_request(self.kind, body)
        envelope = {"schema": schema_name(self.kind), "body": dict(body)}
        last: BackendError | None = None
        for attempt in range(self._retry.retries + 1):
            self.attempts += 1
            try:
                response = self._transport.send(self.kind, envelope)
            except (BackendTimeoutError, BackendTransportError) as exc:
                last = exc
                if attempt < self._retry.retries and self._retry.delay_s:
                    time.sleep(self._retry.delay_s)
                continue
            if response.get("schema") != schema_name(self.kind):
                raise BackendSchemaError(
                    f"response schema {response.get('schema')!r} does not match "
                    f"{schema_name(self.kind)!r}",
                    payload=response,
                )
            resp_body = response.get("body")
            if not isinstance(resp_body, Mapping):
                raise BackendSchemaError("response body must be an object", payload=response)
            validate_response(self.kind, resp_body)
            return dict(resp_body)
        assert last is not None
        raise last


# --------------------------------------------------------------------------
# mock services


class MockAvEncoderService:
    """Face or voice encoder keyed by the stream's speaker markers.

    The mock stands in for detection plus embedding: a marker registered in
    its roster is "seen" and yields a noisy observation of that identity, an
    unregistered or absent marker comes back undetected.
    """

    def __init__(self, modality: str, roster: Mapping[int, IdentitySeed]):
        if modality not in ("face", "voice"):
            raise ValueError(f"AV encoder modality must be face or voice, got {modality!r}")
        self.kind = f"{modality}_encoder"
        self.modality = modality
        self._roster = dict(roster)

    def handle(self, body: Mapping[str, Any]) -> dict[str, Any]:
        marker = body.get("marker")
        seed = self._roster.get(marker) if marker is not None else None
        if seed is None:
            return {"detected": False, "embedding": None}
        vector = seed.observe(self.modality, int(body["sample_index"]))
        return {"detected": True, "embedding": vector.tolist()}


class MockTextEncoderService:
    """Hashing bag-of-words sentence embedder (dim 128).

    Each token is hashed to a bucket and a sign; the token-count vector is
    L2-normalized. Texts sharing words land near each other, disjoint texts
    land near orthogonal, which is all the reranker needs.
    """

    kind = "text_encoder"

    def handle(self, body: Mapping[str, Any]) -> dict[str, Any]:
        return {"embeddings": [self.embed_vector(text).tolist() for text in body["texts"]]}

    @staticmethod
    def embed_vector(text: str) -> np.ndarray:
        vec = np.zeros(TEXT_EMBED_DIM, dtype=np.float64)
        tokens = tokenize(text) or ["\x00empty"]
        for token in tokens:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            raw = int.from_bytes(digest, "big")
            bucket = raw % TEXT_EMBED_DIM
            sign = 1.0 if (raw >> 32) & 1 else -1.0
            vec[bucket] += sign
        norm = np.linalg.norm(vec)
        if norm == 0.0:  # signs cancelled; fall back to a fixed direction
            vec[0] = 1.0
            norm = 1.0
        return (vec / norm).astype(np.float32)


@dataclass(frozen=True)
class UtteranceRow:
    """One transcribed utterance in the mock ASR lookup table."""

    marker: int
    start_step: int
    end_step: int
    speaker: str  # "user" or "assistant"
    text: str


class MockAsrService:
    """Span-overlap transcript lookup over a fixed utterance table."""

    kind = "asr"

    def __init__(self, utterances: Sequence[UtteranceRow] = ()):
        self._rows = list(utterances)

    def handle(self, body: Mapping[str, Any]) -> dict[str, Any]:
        marker = body["marker"]
        start, end = body["start_step"], body["end_step"]
        hits = [
            row
            for row in self._rows
            if row.marker == marker and row.start_step <= end and row.end_step >= start
        ]
        hits.sort(key=lambda row: (row.start_step, row.end_step))
        transcript = "\n".join(f"{row.speaker}: {row.text}" for row in hits)
        return {"transcript": transcript}


def normalize_transcript(transcript: str) -> str:
    return " ".join(transcript.lower().split())


class MockExtractorService:
    """Transcript-keyed annotation lookup with a deterministic fallback.

    The harness registers the expected extraction per scripted dialog; a
    transcript that misses the table still yields a usable one-sentence
    summary so the pipeline never depends on perfect coverage.
    """

    kind = "extractor"

    def __init__(self, annotations: Mapping[str, Mapping[str, Any]] | None = None):
        self._table: dict[str, dict[str, Any]] = {}
        for transcript, payload in (annotations or {}).items():
            self.register(transcript, payload)

    def register(self, transcript: str, payload: Mapping[str, Any]) -> None:
        self._table[normalize_transcript(transcript)] = dict(payload)

    def handle(self, body: Mapping[str, Any]) -> dict[str, Any]:
        transcript = body["transcript"]
        timestamp = body["timestamp"]
        hit = self._table.get(normalize_transcript(transcript))
        if hit is not None:
            result = dict(hit)
            result.setdefault("session_timestamp", timestamp)
            return result
        first_user_line = next(
            (
                line.split(":", 1)[1].strip()
                for line in transcript.splitlines()
                if line.startswith("user:")
            ),
            transcript.splitlines()[0].strip(),
        )
        gist = " ".join(first_user_line.split()[:12])
        return {
            "summary_sentences": [f"user talked about: {gist}"],
            "user_facts": [],
            "persona_trail": {},
            "user_name": "unknown_user",
            "relation_facts": [],
            "session_timestamp": timestamp,
        }


class MockUpdateAgentService:
    """Stateless reconciliation of extracted memory against a profile.

    Exact-duplicate facts and summaries are dropped. A persona slot that is
    empty on the profile becomes a plain update; one that holds a different
    value becomes a replacement citing the old value. Relation facts are
    not the agent's concern: the pipeline resolves them against the store.
    """

    kind = "update_agent"

    def handle(self, body: Mapping[str, Any]) -> dict[str, Any]:
        extracted = body["extracted"]
        profile = body["profile"]
        timestamp = extracted.get("session_timestamp", "")

        have_facts = {item["text"] for item in profile["facts"]}
        have_summaries = {item["text"] for item in profile["dialog_summaries"]}
        fact_appends = [
            {"text": text, "timestamp": timestamp}
            for text in dict.fromkeys(extracted.get("user_facts", ()))
            if text not in have_facts
        ]
        summary_appends = [
            {"text": text, "timestamp": timestamp}
            for text in dict.fromkeys(extracted.get("summary_sentences", ()))
            if text not in have_summaries
        ]

        persona = profile["persona"]
        persona_updates: dict[str, str] = {}
        replacements: list[dict[str, str]] = []
        for slot, value in sorted(extracted.get("persona_trail", {}).items()):
            current = persona.get(slot)
            if current is None:
                persona_updates[slot] = value
            elif current != value:
                replacements.append(
                    {"slot": slot, "old": current, "new": value, "reason": "newer session value"}
                )

        return {
            "target_user": profile["user_id"],
            "base_version": profile["version"],
            "fact_appends": fact_appends,
            "summary_appends": summary_appends,
            "persona_updates": persona_updates,
            "replacements": replacements,
        }


# --------------------------------------------------------------------------
# client bundle


@dataclass
class BackendSuite:
    """All six clients, handed around as one unit."""

    face_encoder: BackendClient
    voice_encoder: BackendClient
    text_encoder: BackendClient
    asr: BackendClient
    extractor: BackendClient
    update_agent: BackendClient

    def client(self, kind: str) -> BackendClient:
        if kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {kind!r}")
        return getattr(self, kind)

    def embed_texts(self, texts: Sequence[str]) -> list[Embedding]:
        """Adapter matching the retrieval module's encoder callable.

        Sends one envelope per TEXTS_PER_ENVELOPE texts, in order. A reply
        must hold one embedding per text it was sent.
        """
        out: list[Embedding] = []
        for start in range(0, len(texts), TEXTS_PER_ENVELOPE):
            batch = list(texts[start:start + TEXTS_PER_ENVELOPE])
            body = self.text_encoder.call({"texts": batch})
            if len(body["embeddings"]) != len(batch):
                raise BackendSchemaError(
                    f"{len(body['embeddings'])} embeddings for {len(batch)} texts", payload=body
                )
            out += [_embedding(values, "text", body) for values in body["embeddings"]]
        return out

    def encode_av(self, modality: str, marker: int | None, sample_index: int) -> Embedding | None:
        """Face/voice observation for a marker, or None when undetected."""
        client = self.face_encoder if modality == "face" else self.voice_encoder
        body = client.call({"marker": marker, "sample_index": sample_index})
        if not body["detected"]:
            return None
        return _embedding(body["embedding"], modality, body)


def _embedding(values: Sequence[float], modality: str, body: Mapping[str, Any]) -> Embedding:
    """An Embedding of a reply's values, or BackendSchemaError for an unusable one."""
    with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, rejected below
        vector = np.asarray(values, dtype=np.float32)
    try:
        return Embedding(vector, modality)  # type: ignore[arg-type]
    except EmbeddingShapeError as exc:  # zero or non-finite float32 norm
        raise BackendSchemaError(f"unusable embedding: {exc}", payload=dict(body)) from exc


def mock_suite(
    face_roster: Mapping[int, IdentitySeed],
    voice_roster: Mapping[int, IdentitySeed] | None = None,
    utterances: Sequence[UtteranceRow] = (),
    annotations: Mapping[str, Mapping[str, Any]] | None = None,
    retry: RetryPolicy = RetryPolicy(),
    wrap_transport: Callable[[Transport], Transport] | None = None,
) -> BackendSuite:
    """Assemble a fully in-process suite from mock service inputs.

    wrap_transport lets callers interpose a failure injector (or any other
    decorator) around every service uniformly.
    """
    services: list[MockService] = [
        MockAvEncoderService("face", face_roster),
        MockAvEncoderService("voice", voice_roster if voice_roster is not None else face_roster),
        MockTextEncoderService(),
        MockAsrService(utterances),
        MockExtractorService(annotations),
        MockUpdateAgentService(),
    ]
    clients = {}
    for service in services:
        transport: Transport = InProcessTransport(service)
        if wrap_transport is not None:
            transport = wrap_transport(transport)
        clients[service.kind] = BackendClient(service.kind, transport, retry)
    return BackendSuite(**clients)


def http_suite(
    addresses: Mapping[str, str] | None = None,
    retry: RetryPolicy = RetryPolicy(),
    timeout_s: float = 5.0,
    env: Mapping[str, str] | None = None,
) -> BackendSuite:
    """Suite over HTTP. Addresses come from the mapping, then from
    DUPLEXMEM_<KIND>_ADDR environment variables (kind upper-cased)."""
    import os

    source = dict(addresses or {})
    environment = env if env is not None else os.environ
    clients = {}
    for kind in BACKEND_KINDS:
        address = source.get(kind) or environment.get(f"{ENV_ADDR_PREFIX}{kind.upper()}_ADDR")
        if not address:
            raise BackendTransportError(f"no address configured for backend {kind!r}")
        clients[kind] = BackendClient(kind, HttpTransport(address, timeout_s), retry)
    return BackendSuite(**clients)
