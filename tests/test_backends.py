"""Backend contract tests: mock determinism, schema enforcement, retry
behavior, and the HTTP transport against a live local server."""

import json
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from duplexmem.backends import (
    BACKEND_KINDS,
    TEXT_EMBED_DIM,
    TEXTS_PER_ENVELOPE,
    BackendClient,
    BackendSchemaError,
    BackendTimeoutError,
    BackendTransportError,
    FlakyTransport,
    HttpTransport,
    IdentitySeed,
    InProcessTransport,
    MockAsrService,
    MockAvEncoderService,
    MockExtractorService,
    MockTextEncoderService,
    MockUpdateAgentService,
    RetryPolicy,
    UtteranceRow,
    http_suite,
    mock_suite,
    normalize_transcript,
    schema_name,
    stable_seed,
    validate_request,
    validate_response,
)
from duplexmem.harness import from_payload
from duplexmem.pipeline import _resolve_edges
from duplexmem.store import ExtractedMemory, MemoryStore
from duplexmem.verification import Embedding, compute_eer, cosine_distance


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1, "face") == stable_seed("a", 1, "face")

    def test_sensitive_to_parts_and_order(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")
        assert stable_seed("a") != stable_seed("a", "")

    def test_fits_in_64_bits(self):
        assert 0 <= stable_seed("x") < 2**64


class TestSchemaName:
    def test_known_kinds(self):
        assert schema_name("asr") == "asr/1"
        assert all("/" in schema_name(kind) for kind in BACKEND_KINDS)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            schema_name("tarot_reader")


class TestIdentitySeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            IdentitySeed("", 0)
        with pytest.raises(ValueError):
            IdentitySeed("id", 0, noise_scale=1.0)
        with pytest.raises(ValueError):
            IdentitySeed("id", 0, noise_scale=-0.1)

    def test_base_vectors_are_unit_float32(self):
        seed = IdentitySeed("emily", 7)
        for modality, dim in (("face", 512), ("voice", 256)):
            vec = seed.base_vector(modality)
            assert vec.shape == (dim,)
            assert vec.dtype == np.float32
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-5)

    def test_unsupported_modality(self):
        with pytest.raises(ValueError):
            IdentitySeed("emily", 7).base_vector("text")

    def test_observations_deterministic(self):
        seed = IdentitySeed("emily", 7, noise_scale=0.1)
        a = seed.observe("face", 3)
        b = seed.observe("face", 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, seed.observe("face", 4))

    def test_zero_noise_returns_base(self):
        seed = IdentitySeed("emily", 7, noise_scale=0.0)
        assert np.array_equal(seed.observe("voice", 0), seed.base_vector("voice"))
        emb = Embedding(seed.observe("voice", 5), "voice")
        assert cosine_distance(emb, seed.key_embedding("voice")) < 1e-6

    def test_noise_bounds_within_identity_distance(self):
        seed = IdentitySeed("emily", 7, noise_scale=0.1)
        key = seed.key_embedding("face")
        for i in range(5):
            obs = Embedding(seed.observe("face", i), "face")
            # perturbation of length 0.1 puts cosine distance near 0.005
            assert cosine_distance(obs, key) < 0.02

    def test_cross_identity_near_orthogonal(self):
        a = IdentitySeed("emily", 7)
        b = IdentitySeed("john", 7)
        dist = cosine_distance(a.key_embedding("face"), b.key_embedding("face"))
        assert abs(dist - 1.0) < 0.3

    def test_same_identity_different_seed_differs(self):
        a = IdentitySeed("emily", 7)
        b = IdentitySeed("emily", 8)
        assert not np.array_equal(a.base_vector("face"), b.base_vector("face"))

    def test_payload_round_trip(self):
        seed = IdentitySeed("emily", 7, noise_scale=0.2)
        assert from_payload(IdentitySeed, asdict(seed)) == seed
        assert from_payload(IdentitySeed, json.loads(json.dumps(asdict(seed)))) == seed

    def test_noisy_observations_separate_identities(self):
        """Same/cross-identity similarity distributions at noise 0.1 give a
        low equal-error rate through the rank-based EER."""
        identities = [IdentitySeed(f"id{i}", 42, noise_scale=0.1) for i in range(20)]
        positives = []
        negatives = []
        for i, seed in enumerate(identities):
            key = seed.key_embedding("voice")
            other = identities[(i + 1) % len(identities)].key_embedding("voice")
            for s in range(5):
                obs = Embedding(seed.observe("voice", s), "voice")
                positives.append(1.0 - cosine_distance(obs, key))
                negatives.append(1.0 - cosine_distance(obs, other))
        scores = positives + negatives
        labels = [1] * len(positives) + [0] * len(negatives)
        eer, _ = compute_eer(scores, labels)
        assert eer < 0.05


class TestMockAvEncoder:
    def roster(self):
        return {2: IdentitySeed("emily", 1), 3: IdentitySeed("john", 1)}

    def test_known_marker_detected(self):
        service = MockAvEncoderService("face", self.roster())
        body = service.handle({"marker": 2, "sample_index": 0})
        assert body["detected"] is True
        assert len(body["embedding"]) == 512
        again = service.handle({"marker": 2, "sample_index": 0})
        assert body["embedding"] == again["embedding"]

    def test_unknown_or_absent_marker(self):
        service = MockAvEncoderService("voice", self.roster())
        assert service.handle({"marker": 9, "sample_index": 0}) == {
            "detected": False,
            "embedding": None,
        }
        assert service.handle({"marker": None, "sample_index": 0})["detected"] is False

    def test_modality_checked(self):
        with pytest.raises(ValueError):
            MockAvEncoderService("text", self.roster())

    def test_embedding_matches_identity_seed(self):
        service = MockAvEncoderService("voice", self.roster())
        body = service.handle({"marker": 3, "sample_index": 4})
        expected = IdentitySeed("john", 1).observe("voice", 4)
        assert np.allclose(body["embedding"], expected)


class TestMockTextEncoder:
    def test_unit_norm_and_shape(self):
        vec = MockTextEncoderService.embed_vector("we talked about tennis")
        assert vec.shape == (TEXT_EMBED_DIM,)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-5)

    def test_bag_of_words_order_invariance(self):
        a = MockTextEncoderService.embed_vector("tennis great game")
        b = MockTextEncoderService.embed_vector("game great tennis")
        assert np.array_equal(a, b)

    def test_disjoint_texts_far_apart(self):
        a = MockTextEncoderService.embed_vector("tennis game yesterday")
        b = MockTextEncoderService.embed_vector("quantum flux harmonics")
        assert abs(float(np.dot(a, b))) < 0.5

    def test_shared_words_pull_closer(self):
        a = MockTextEncoderService.embed_vector("tennis game")
        b = MockTextEncoderService.embed_vector("tennis match")
        c = MockTextEncoderService.embed_vector("rainy commute")
        assert float(np.dot(a, b)) > float(np.dot(a, c))

    def test_wordless_text_gets_fallback(self):
        vec = MockTextEncoderService.embed_vector("!!!")
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-5)
        assert np.array_equal(vec, MockTextEncoderService.embed_vector("..."))

    def test_handle_batches(self):
        body = MockTextEncoderService().handle({"texts": ["a b", "c"]})
        assert len(body["embeddings"]) == 2
        assert all(len(e) == TEXT_EMBED_DIM for e in body["embeddings"])


class TestMockAsr:
    def rows(self):
        return [
            UtteranceRow(2, 100, 110, "user", "hello there"),
            UtteranceRow(2, 112, 120, "assistant", "hi, how are you"),
            UtteranceRow(3, 100, 110, "user", "other speaker"),
        ]

    def test_overlap_lookup(self):
        service = MockAsrService(self.rows())
        body = service.handle({"marker": 2, "start_step": 90, "end_step": 115})
        assert body["transcript"] == "user: hello there\nassistant: hi, how are you"

    def test_marker_filter(self):
        service = MockAsrService(self.rows())
        body = service.handle({"marker": 3, "start_step": 0, "end_step": 200})
        assert body["transcript"] == "user: other speaker"

    def test_inclusive_span_edges(self):
        service = MockAsrService(self.rows())
        assert service.handle({"marker": 2, "start_step": 110, "end_step": 110})[
            "transcript"
        ] == "user: hello there"
        assert service.handle({"marker": 2, "start_step": 111, "end_step": 111})[
            "transcript"
        ] == ""

    def test_rows_sorted_by_span(self):
        service = MockAsrService(
            [UtteranceRow(2, 50, 60, "assistant", "second"), UtteranceRow(2, 10, 20, "user", "first")]
        )
        body = service.handle({"marker": 2, "start_step": 0, "end_step": 100})
        assert body["transcript"] == "user: first\nassistant: second"


class TestMockExtractor:
    def test_registered_annotation_returned(self):
        annotation = {
            "summary_sentences": ["we discussed tennis"],
            "user_facts": ["Emily shows interest in tennis"],
            "persona_trail": {"favorite_sport": "tennis"},
            "user_name": "Emily",
            "relation_facts": [["colleague", "John"]],
        }
        service = MockExtractorService({"user: Tennis!\nassistant: nice": annotation})
        body = service.handle(
            {"transcript": "user:   tennis! \nassistant: NICE", "timestamp": "2024-05-15"}
        )
        assert body["user_facts"] == ["Emily shows interest in tennis"]
        assert body["session_timestamp"] == "2024-05-15"

    def test_registered_timestamp_preserved(self):
        service = MockExtractorService()
        service.register("user: x", {"summary_sentences": ["s"], "session_timestamp": "then"})
        body = service.handle({"transcript": "user: x", "timestamp": "now"})
        assert body["session_timestamp"] == "then"

    def test_fallback_summarizes_first_user_line(self):
        service = MockExtractorService()
        body = service.handle(
            {
                "transcript": "assistant: hi\nuser: let me tell you about my very long trip",
                "timestamp": "t",
            }
        )
        assert body["summary_sentences"] == [
            "user talked about: let me tell you about my very long trip"
        ]
        assert body["user_name"] == "unknown_user"

    def test_fallback_without_user_line(self):
        service = MockExtractorService()
        body = service.handle({"transcript": "assistant: monologue only", "timestamp": "t"})
        assert body["summary_sentences"] == ["user talked about: assistant: monologue only"]

    def test_normalize_transcript(self):
        assert normalize_transcript("  A  b\nC ") == "a b c"


class TestMockUpdateAgent:
    def profile(self, **overrides):
        base = {
            "user_id": "user_0001",
            "version": 3,
            "facts": [{"text": "plays tennis", "timestamp": "t0"}],
            "dialog_summaries": [],
            "persona": {"favorite_sport": "tennis"},
        }
        base.update(overrides)
        return base

    def call(self, extracted, profile=None):
        body = {"extracted": extracted, "profile": profile or self.profile()}
        return MockUpdateAgentService().handle(body)

    def test_duplicate_facts_dropped(self):
        out = self.call(
            {
                "user_facts": ["plays tennis", "likes rain", "likes rain"],
                "session_timestamp": "t1",
            }
        )
        assert out["fact_appends"] == [{"text": "likes rain", "timestamp": "t1"}]
        assert out["base_version"] == 3
        assert out["target_user"] == "user_0001"

    def test_new_persona_slot_is_plain_update(self):
        out = self.call({"persona_trail": {"hometown": "Lyon"}})
        assert out["persona_updates"] == {"hometown": "Lyon"}
        assert out["replacements"] == []

    def test_conflicting_persona_slot_becomes_replacement(self):
        out = self.call({"persona_trail": {"favorite_sport": "golf"}})
        assert out["persona_updates"] == {}
        assert out["replacements"] == [
            {
                "slot": "favorite_sport",
                "old": "tennis",
                "new": "golf",
                "reason": "newer session value",
            }
        ]

    def test_matching_persona_value_is_noop(self):
        out = self.call({"persona_trail": {"favorite_sport": "tennis"}})
        assert out["persona_updates"] == {} and out["replacements"] == []

    def resolve(self, relation_facts):
        """Relation facts pass the agent untouched; the pipeline resolves them.

        The store holds user_0001 "Me" (the speaker) and user_0002 "John".
        Returns (edges added, unresolved names, the speaker's neighbors).
        """
        out = self.call({"relation_facts": relation_facts, "session_timestamp": "t1"})
        validate_response("update_agent", out)
        assert "new_edges" not in out and "unresolved_names" not in out
        assert out["fact_appends"] == [] and out["persona_updates"] == {}
        store = MemoryStore()
        for i, name in enumerate(("Me", "John")):
            rng = np.random.default_rng(i)
            store.create_user(
                Embedding(rng.normal(size=512), "face"),
                Embedding(rng.normal(size=256), "voice"),
                ExtractedMemory(user_name=name),
            )
        added, unresolved = _resolve_edges(
            store, "user_0001", ExtractedMemory(relation_facts=relation_facts)
        )
        return added, unresolved, store.connected_users("user_0001")

    def test_relation_resolution(self):
        added, unresolved, neighbors = self.resolve(
            [["colleague", "John"], ["friend", "Ghost"]]
        )
        assert added == 1
        assert neighbors == [("user_0002", "colleague")]
        assert unresolved == ("Ghost",)

    def test_self_reference_unresolved(self):
        added, unresolved, neighbors = self.resolve([["twin", "Me"]])
        assert added == 0 and neighbors == []
        assert unresolved == ("Me",)

    def test_duplicate_edges_and_names_deduped(self):
        added, unresolved, neighbors = self.resolve(
            [["friend", "John"], ["friend", "John"], ["x", "G"], ["y", "G"]]
        )
        assert added == 1
        assert neighbors == [("user_0002", "friend")]
        assert unresolved == ("G",)


class TestSchemaValidation:
    def test_av_request(self):
        with pytest.raises(BackendSchemaError) as info:
            validate_request("face_encoder", {"marker": 2})
        assert info.value.payload == {"marker": 2}
        with pytest.raises(BackendSchemaError):
            validate_request("face_encoder", {"marker": "two", "sample_index": 0})
        validate_request("face_encoder", {"marker": None, "sample_index": 0})

    def test_av_response(self):
        with pytest.raises(BackendSchemaError):
            validate_response("face_encoder", {"detected": True, "embedding": None})
        with pytest.raises(BackendSchemaError):
            validate_response("face_encoder", {"detected": True, "embedding": []})
        with pytest.raises(BackendSchemaError):
            validate_response("face_encoder", {"detected": False, "embedding": [1.0]})
        with pytest.raises(BackendSchemaError):
            validate_response("face_encoder", {"detected": True, "embedding": [1.0, "x"]})
        malformed = (
            [0.5] * 511,
            [float("nan")] * 512,
            [0.5] * 511 + [float("inf")],
            ["0.5"] * 512,
            [[0.5]] * 512,
            [[0.5], 0.5],
            0.5,
        )
        for embedding in malformed:
            with pytest.raises(BackendSchemaError):
                validate_response("face_encoder", {"detected": True, "embedding": embedding})
        with pytest.raises(BackendSchemaError):
            validate_response("voice_encoder", {"detected": True, "embedding": [0.5] * 512})
        with pytest.raises(BackendSchemaError):
            validate_response("voice_encoder", {"detected": True, "embedding": [0.5] * 255})
        validate_response("face_encoder", {"detected": True, "embedding": [0.5] * 512})
        validate_response("voice_encoder", {"detected": True, "embedding": [0.5] * 256})
        validate_response("face_encoder", {"detected": False, "embedding": None})

    def test_text_schemas(self):
        with pytest.raises(BackendSchemaError):
            validate_request("text_encoder", {"texts": []})
        with pytest.raises(BackendSchemaError):
            validate_request("text_encoder", {"texts": [42]})
        with pytest.raises(BackendSchemaError):
            validate_response("text_encoder", {"embeddings": [[0.0] * 3]})
        good = [0.0] * TEXT_EMBED_DIM
        for embeddings in ([], [good, good[1:]], [good[:-1] + [float("nan")]], [good, "x"]):
            with pytest.raises(BackendSchemaError):
                validate_response("text_encoder", {"embeddings": embeddings})
        validate_response("text_encoder", {"embeddings": [good]})
        validate_response("text_encoder", {"embeddings": [good, good]})

    def test_asr_schemas(self):
        with pytest.raises(BackendSchemaError):
            validate_request("asr", {"marker": 2, "start_step": 10, "end_step": 5})
        with pytest.raises(BackendSchemaError):
            validate_request("asr", {"marker": 2, "start_step": -1, "end_step": 5})
        with pytest.raises(BackendSchemaError):
            validate_response("asr", {})

    def test_extractor_schemas(self):
        with pytest.raises(BackendSchemaError):
            validate_request("extractor", {"transcript": "   ", "timestamp": "t"})
        with pytest.raises(BackendSchemaError):
            validate_response(
                "extractor",
                {
                    "summary_sentences": [],
                    "user_facts": [],
                    "persona_trail": {},
                    "user_name": "x",
                    "relation_facts": [["only-one"]],
                },
            )

    def test_update_schemas(self):
        with pytest.raises(BackendSchemaError):
            validate_request(
                "update_agent",
                {"extracted": {}, "profile": {"user_id": "u"}},
            )
        with pytest.raises(BackendSchemaError):
            validate_response("update_agent", {"target_user": "u"})


class CountingTransport:
    """Scripted transport: raise the queued errors, then return a response."""

    def __init__(self, errors, response):
        self.errors = list(errors)
        self.response = response
        self.sends = 0

    def send(self, kind, envelope):
        self.sends += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.response


def valid_asr_response():
    return {"schema": "asr/1", "body": {"transcript": "user: hi"}}


class TestBackendClient:
    def test_success_passthrough(self):
        transport = CountingTransport([], valid_asr_response())
        client = BackendClient("asr", transport)
        body = client.call({"marker": 2, "start_step": 0, "end_step": 5})
        assert body == {"transcript": "user: hi"}
        assert transport.sends == 1

    def test_timeouts_retried_to_exactly_three_attempts(self):
        transport = CountingTransport(
            [BackendTimeoutError("t")] * 5, valid_asr_response()
        )
        client = BackendClient("asr", transport, RetryPolicy(retries=2))
        with pytest.raises(BackendTimeoutError):
            client.call({"marker": 2, "start_step": 0, "end_step": 5})
        assert transport.sends == 3
        assert client.attempts == 3

    def test_recovery_within_retry_budget(self):
        transport = CountingTransport(
            [BackendTimeoutError("t"), BackendTransportError("down")],
            valid_asr_response(),
        )
        client = BackendClient("asr", transport, RetryPolicy(retries=2))
        body = client.call({"marker": 2, "start_step": 0, "end_step": 5})
        assert body["transcript"] == "user: hi"
        assert transport.sends == 3

    def test_schema_errors_never_retried(self):
        bad = {"schema": "asr/1", "body": {"wrong": 1}}
        transport = CountingTransport([], bad)
        client = BackendClient("asr", transport, RetryPolicy(retries=5))
        with pytest.raises(BackendSchemaError) as info:
            client.call({"marker": 2, "start_step": 0, "end_step": 5})
        assert transport.sends == 1
        assert info.value.payload == {"wrong": 1}

    def test_mismatched_response_schema_rejected(self):
        wrong = {"schema": "extractor/1", "body": {"transcript": "x"}}
        transport = CountingTransport([], wrong)
        client = BackendClient("asr", transport)
        with pytest.raises(BackendSchemaError) as info:
            client.call({"marker": 2, "start_step": 0, "end_step": 5})
        assert info.value.payload == wrong
        assert transport.sends == 1

    def test_invalid_request_never_sent(self):
        transport = CountingTransport([], valid_asr_response())
        client = BackendClient("asr", transport)
        with pytest.raises(BackendSchemaError):
            client.call({"marker": 2, "start_step": 5, "end_step": 0})
        assert transport.sends == 0

    def test_non_object_body_rejected(self):
        transport = CountingTransport([], {"schema": "asr/1", "body": [1, 2]})
        client = BackendClient("asr", transport)
        with pytest.raises(BackendSchemaError):
            client.call({"marker": 2, "start_step": 0, "end_step": 5})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BackendClient("oracle", CountingTransport([], {}))

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(delay_s=-0.1)


class TestInProcessTransport:
    def test_kind_mismatch(self):
        transport = InProcessTransport(MockTextEncoderService())
        with pytest.raises(BackendTransportError):
            transport.send("asr", {"body": {}})

    def test_wraps_body_in_envelope(self):
        transport = InProcessTransport(MockAsrService())
        out = transport.send("asr", {"body": {"marker": 2, "start_step": 0, "end_step": 1}})
        assert out["schema"] == "asr/1"
        assert out["body"] == {"transcript": ""}


class TestFlakyTransport:
    def inner(self):
        return CountingTransport([], valid_asr_response())

    def test_rate_zero_never_fails(self):
        flaky = FlakyTransport(self.inner(), 0.0, seed=1)
        for _ in range(20):
            flaky.send("asr", {"body": {}})
        assert flaky.calls == 20 and flaky.failures == 0

    def test_rate_one_always_fails(self):
        flaky = FlakyTransport(self.inner(), 1.0, seed=1)
        for _ in range(5):
            with pytest.raises(BackendTimeoutError):
                flaky.send("asr", {"body": {}})
        assert flaky.failures == 5

    def test_failure_pattern_is_seeded(self):
        def pattern(seed):
            flaky = FlakyTransport(self.inner(), 0.5, seed=seed)
            out = []
            for _ in range(30):
                try:
                    flaky.send("asr", {"body": {}})
                    out.append(0)
                except BackendTimeoutError:
                    out.append(1)
            return out

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            FlakyTransport(self.inner(), 1.5)


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        if self.path == "/text_encoder":
            envelope = json.loads(raw)
            texts = envelope["body"]["texts"]
            body = {"embeddings": [[0.0] * (TEXT_EMBED_DIM - 1) + [1.0] for _ in texts]}
            payload = json.dumps({"schema": "text_encoder/1", "body": body}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(payload)
        elif self.path == "/asr":
            self.send_response(500)
            self.end_headers()
        else:
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"this is not json")

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join(timeout=5)


class TestHttpTransport:
    def test_round_trip(self, http_server):
        client = BackendClient("text_encoder", HttpTransport(http_server))
        body = client.call({"texts": ["hello"]})
        assert len(body["embeddings"]) == 1
        assert body["embeddings"][0][-1] == 1.0

    def test_http_error_is_transport_error(self, http_server):
        transport = HttpTransport(http_server)
        with pytest.raises(BackendTransportError):
            transport.send("asr", {"schema": "asr/1", "body": {}})

    def test_non_json_response_is_schema_error(self, http_server):
        transport = HttpTransport(http_server)
        with pytest.raises(BackendSchemaError):
            transport.send("extractor", {"schema": "extractor/1", "body": {}})

    def test_unreachable_endpoint(self):
        transport = HttpTransport("http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(BackendTransportError):
            transport.send("asr", {"schema": "asr/1", "body": {}})


class TestHttpSuite:
    def test_addresses_required_for_every_kind(self):
        with pytest.raises(BackendTransportError):
            http_suite(addresses={"asr": "http://x"}, env={})

    def test_env_fallback(self, http_server):
        addresses = {kind: "http://unused" for kind in BACKEND_KINDS if kind != "text_encoder"}
        env = {"DUPLEXMEM_TEXT_ENCODER_ADDR": http_server}
        suite = http_suite(addresses=addresses, env=env)
        (emb,) = suite.embed_texts(["hello"])
        assert emb.modality == "text"
        assert emb.values[-1] == 1.0

    def test_explicit_address_wins_over_env(self, http_server):
        addresses = {kind: http_server for kind in BACKEND_KINDS}
        env = {"DUPLEXMEM_TEXT_ENCODER_ADDR": "http://127.0.0.1:9"}
        suite = http_suite(addresses=addresses, env=env)
        assert [emb.dim for emb in suite.embed_texts(["hello"])] == [TEXT_EMBED_DIM]


class TestMockSuite:
    def make(self, **kwargs):
        roster = {2: IdentitySeed("emily", 1), 3: IdentitySeed("john", 1)}
        return mock_suite(roster, **kwargs)

    def test_embed_text_adapter(self):
        suite = self.make()
        (emb,) = suite.embed_texts(["tennis game"])
        assert emb.modality == "text"
        assert np.allclose(emb.values, MockTextEncoderService.embed_vector("tennis game"))

    def test_embed_texts_sends_capped_envelopes_in_order(self):
        sent = []

        def wrap(transport):
            class Recording:
                def send(self, kind, envelope):
                    sent.append(list(envelope["body"].get("texts", ())))
                    return transport.send(kind, envelope)

            return Recording()

        suite = self.make(wrap_transport=wrap)
        texts = [f"text number {i}" for i in range(2 * TEXTS_PER_ENVELOPE + 2)]
        embeddings = suite.embed_texts(texts)
        assert TEXTS_PER_ENVELOPE == 64
        assert [len(batch) for batch in sent] == [64, 64, 2]
        assert [t for batch in sent for t in batch] == texts
        for text, emb in zip(texts, embeddings, strict=True):
            assert np.array_equal(emb.values, MockTextEncoderService.embed_vector(text))
        sent.clear()
        assert suite.embed_texts([]) == [] and sent == []

    @pytest.mark.parametrize(
        "reply",
        [
            [[0.5] * TEXT_EMBED_DIM],  # one embedding for two texts
            [[0.5] * TEXT_EMBED_DIM] * 3,  # three for two
            [[0.5] * TEXT_EMBED_DIM, [0.0] * TEXT_EMBED_DIM],  # zero norm
            [[0.5] * TEXT_EMBED_DIM, [1e39] + [0.5] * (TEXT_EMBED_DIM - 1)],  # beyond float32
        ],
        ids=["fewer", "more", "zero", "beyond_float32"],
    )
    def test_embed_texts_rejects_unusable_replies(self, reply):
        def wrap(transport):
            class Replacing:
                def send(self, kind, envelope):
                    response = transport.send(kind, envelope)
                    if kind != "text_encoder":
                        return response
                    return {**response, "body": {"embeddings": reply}}

            return Replacing()

        suite = self.make(wrap_transport=wrap)
        with pytest.raises(BackendSchemaError):
            suite.embed_texts(["tennis", "golf"])

    def test_encode_av_adapter(self):
        suite = self.make()
        emb = suite.encode_av("face", 2, 0)
        assert emb is not None and emb.modality == "face" and emb.dim == 512
        assert suite.encode_av("voice", 2, 0).dim == 256
        assert suite.encode_av("face", 99, 0) is None

    def test_client_accessor(self):
        suite = self.make()
        assert suite.client("asr") is suite.asr
        with pytest.raises(ValueError):
            suite.client("nonsense")

    def test_wrap_transport_applied_uniformly(self):
        wrapped = []

        def wrap(transport):
            wrapped.append(transport)
            return transport

        self.make(wrap_transport=wrap)
        assert len(wrapped) == len(BACKEND_KINDS)

    def test_voice_roster_defaults_to_face_roster(self):
        suite = self.make()
        expected = IdentitySeed("emily", 1).observe("voice", 0)
        assert np.allclose(suite.encode_av("voice", 2, 0).values, expected)
