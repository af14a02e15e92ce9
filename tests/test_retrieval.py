"""Retrieval pipeline: query protocol, BM25 against a brute-force oracle,
keyword rerank, the greedy token budget, the run-scoped document index
against the earlier per-query implementation, and the text envelopes sent."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexmem import retrieval
from duplexmem.backends import (
    TEXTS_PER_ENVELOPE,
    BackendTimeoutError,
    MockTextEncoderService,
    mock_suite,
)
from duplexmem.harness import build_retrieval_fixture
from duplexmem.retrieval import (
    BM25_B,
    BM25_K1,
    DocumentIndex,
    DocumentSource,
    EncoderFailure,
    MalformedQueryError,
    QueryGroups,
    RetrievalDocument,
    RetrievalError,
    RetrievalResult,
    ScoredDocument,
    bm25_rank,
    build_documents,
    format_query_protocol,
    parse_query_protocol,
    rerank_by_keywords,
    retrieve_topk,
    token_cost,
    tokenize,
)
from duplexmem.store import (
    MemoryItem,
    MemoryStore,
    RelationTriplet,
    UpdateResolution,
    seed_profile,
)
from duplexmem.verification import Embedding, cosine_distance


def doc(text, index=0):
    return RetrievalDocument(text, DocumentSource("user_0001", "fact", index))


def bm25_oracle(query_words, documents):
    """Straight-from-the-formula reimplementation used to pin scores."""
    doc_tokens = [tokenize(d.text) for d in documents]
    n = len(documents)
    avgdl = sum(len(t) for t in doc_tokens) / n
    terms = [w.lower() for w in query_words]
    out = []
    for d, toks in zip(documents, doc_tokens):
        score = 0.0
        for term in terms:
            tf = toks.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in doc_tokens if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            norm = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * len(toks) / avgdl)
            score += idf * tf * (BM25_K1 + 1.0) / norm
        if score > 0.0:
            out.append((d, score))
    out.sort(key=lambda pair: -pair[1])
    return out


class VocabEncoder:
    """Counting bag-of-words over a closed vocabulary, for exact geometry.

    A batch encoder, as retrieval calls it; every call's texts are recorded.
    """

    def __init__(self, vocab):
        self.vocab = {w: i for i, w in enumerate(vocab)}
        self.batches = []

    def __call__(self, texts):
        self.batches.append(list(texts))
        return [self.embed(text) for text in texts]

    def embed(self, text):
        vec = np.zeros(len(self.vocab) + 1)
        for word in tokenize(text):
            vec[self.vocab[word]] += 1.0
        if not vec.any():
            vec[-1] = 1.0
        return Embedding(vec, "text")


class TestTokenization:
    def test_token_cost_is_byte_length(self):
        assert token_cost("abc") == 3
        assert token_cost("café") == 5
        assert token_cost("") == 0

    def test_tokenize_lowercases_and_strips_punctuation(self):
        assert tokenize("Emily, COLLEAGUE, 2024-05-15!") == [
            "emily",
            "colleague",
            "2024",
            "05",
            "15",
        ]
        assert tokenize("") == []


class TestQueryGroups:
    def test_rejects_bad_words(self):
        with pytest.raises(RetrievalError):
            QueryGroups(("",), ())
        with pytest.raises(RetrievalError):
            QueryGroups(("a,b",), ())
        with pytest.raises(RetrievalError):
            QueryGroups((), ("a\nb",))
        with pytest.raises(RetrievalError):
            QueryGroups(("<retr>:x",), ())

    def test_empty_flag(self):
        assert QueryGroups().empty
        assert not QueryGroups(("friend",), ()).empty


class TestQueryProtocol:
    def test_round_trip(self):
        for groups in (
            QueryGroups(("colleague",), ("tennis",)),
            QueryGroups(("friend", "mentor"), ("golf", "rain", "paris")),
            QueryGroups((), ("solo",)),
            QueryGroups(("solo",), ()),
            QueryGroups((), ()),
        ):
            assert parse_query_protocol(format_query_protocol(groups)) == groups

    def test_marker_embedded_in_monologue(self):
        text = "some inner speech " + format_query_protocol(
            QueryGroups(("friend",), ("tennis",))
        ) + " and the reply"
        assert parse_query_protocol(text) == QueryGroups(("friend",), ("tennis",))

    def test_last_marker_wins(self):
        text = (
            format_query_protocol(QueryGroups(("a",), ("b",)))
            + " speech "
            + format_query_protocol(QueryGroups(("c",), ("d",)))
        )
        assert parse_query_protocol(text) == QueryGroups(("c",), ("d",))

    def test_absent_marker(self):
        assert parse_query_protocol("no markers here") is None
        assert parse_query_protocol("") is None

    def test_unclosed_marker(self):
        with pytest.raises(MalformedQueryError):
            parse_query_protocol("<retr>:\na\nb")
        # an unclosed marker after a closed one is still an error
        closed = format_query_protocol(QueryGroups(("a",), ("b",)))
        with pytest.raises(MalformedQueryError):
            parse_query_protocol(closed + "<retr>:\nc")

    def test_malformed_body(self):
        with pytest.raises(MalformedQueryError):
            parse_query_protocol("<retr>:\nonly-one-group<answer>")
        with pytest.raises(MalformedQueryError):
            parse_query_protocol("<retr>:junk\na\nb<answer>")

    def test_whitespace_and_empty_items_dropped(self):
        assert parse_query_protocol("<retr>:\n a , b ,,c\n d <answer>") == QueryGroups(
            ("a", "b", "c"), ("d",)
        )


class TestRetrievalDocument:
    def test_cost_autofilled(self):
        assert doc("hello").token_cost == 5

    def test_cost_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            RetrievalDocument("hello", DocumentSource("user_0001", "fact", 0), token_cost=5)


class TestRetrievalResult:
    def test_order_enforced(self):
        docs = (ScoredDocument(doc("a"), 0.1), ScoredDocument(doc("b"), 0.9))
        with pytest.raises(RetrievalError):
            RetrievalResult(docs)

    def test_budget_enforced(self):
        docs = (ScoredDocument(doc("aaaa"), 1.0), ScoredDocument(doc("bbbb"), 0.5))
        with pytest.raises(RetrievalError):
            RetrievalResult(docs, token_budget=8)
        assert RetrievalResult(docs, token_budget=9).rendered_cost == 9

    def test_rendered_cost_counts_separators(self):
        result = RetrievalResult(
            (ScoredDocument(doc("abc"), 1.0), ScoredDocument(doc("de"), 0.5)),
            token_budget=100,
        )
        assert result.rendered_cost == 3 + 1 + 2
        assert result.render_text() == "abc\nde"
        assert RetrievalResult((), token_budget=10).rendered_cost == 0


class TestBuildDocuments:
    def make_store(self):
        store = MemoryStore()
        me = seed_profile(store, self.key(0, "face"), self.key(0, "voice"), "Emily")
        john = seed_profile(
            store,
            self.key(1, "face"),
            self.key(1, "voice"),
            "John",
            facts=(("plays tennis", "2024-05-10"), ("lives nearby", "2024-05-11")),
            summaries=(("we talked about rain", "2024-05-12"),),
        )
        stranger = seed_profile(store, self.key(2, "face"), self.key(2, "voice"), "Zoe")
        store.add_relation_edge(RelationTriplet(me, "colleague", john))
        return store, me, john, stranger

    @staticmethod
    def key(i, modality):
        rng = np.random.default_rng(i * 2 + (modality == "voice"))
        dim = 512 if modality == "face" else 256
        return Embedding(rng.normal(size=dim), modality)

    def test_document_text_layout(self):
        store, me, _, _ = self.make_store()
        docs = build_documents(store, me)
        assert [d.text for d in docs] == [
            "John, colleague, 2024-05-10, plays tennis",
            "John, colleague, 2024-05-11, lives nearby",
            "John, colleague, 2024-05-12, we talked about rain",
        ]
        assert [d.source.kind for d in docs] == ["fact", "fact", "summary"]
        assert all(d.source.user_id == "user_0002" for d in docs)

    def test_non_neighbors_excluded(self):
        store, me, _, stranger = self.make_store()
        texts = " ".join(d.text for d in build_documents(store, me))
        assert "Zoe" not in texts
        assert build_documents(store, stranger) == []


class TestBm25:
    def test_hand_case_equal_lengths(self):
        # all docs have the query term's denominator collapse to tf + k1
        docs = [doc("red fox", 0), doc("blue dog", 1), doc("red cat", 2)]
        ranked = bm25_rank(["red"], docs)
        assert [sd.document.source.index for sd in ranked] == [0, 2]
        expected = math.log(1.0 + (3 - 2 + 0.5) / (2 + 0.5))
        for sd in ranked:
            assert sd.score == pytest.approx(expected, abs=1e-12)

    def test_zero_score_documents_dropped(self):
        ranked = bm25_rank(["tennis"], [doc("rain and wind", 0)])
        assert ranked == []

    def test_duplicate_documents_keep_index_order(self):
        docs = [doc("same text here", i) for i in range(3)]
        ranked = bm25_rank(["same"], docs)
        assert [sd.document.source.index for sd in ranked] == [0, 1, 2]
        assert len({sd.score for sd in ranked}) == 1

    def test_repeated_query_term_scores_twice(self):
        docs = [doc("alpha beta", 0), doc("beta gamma", 1)]
        single = bm25_rank(["alpha"], docs)[0].score
        double = bm25_rank(["alpha", "alpha"], docs)[0].score
        assert double == pytest.approx(2 * single, abs=1e-12)

    def test_empty_inputs(self):
        assert bm25_rank(["x"], []) == []
        with pytest.raises(RetrievalError):
            bm25_rank([], [doc("a")])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_oracle(self, data):
        pool = ["fox", "dog", "cat", "rain", "wind", "tennis", "golf", "tea"]
        n_docs = data.draw(st.integers(2, 12))
        docs = []
        for i in range(n_docs):
            words = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
            docs.append(doc(" ".join(words), i))
        query = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        ranked = bm25_rank(query, docs)
        expected = bm25_oracle(query, docs)
        assert [sd.document for sd in ranked] == [d for d, _ in expected]
        for sd, (_, score) in zip(ranked, expected):
            assert sd.score == pytest.approx(score, abs=1e-9)


class TestRerank:
    VOCAB = ("ann", "friend", "d1", "alpha", "betax", "tennis", "golf")

    def test_orders_by_distance_to_joined_keywords(self):
        encoder = VocabEncoder(self.VOCAB)
        docs = [
            doc("betax betax betax", 0),
            doc("alpha alpha alpha", 1),
            doc("alpha betax betax", 2),
        ]
        ranked = rerank_by_keywords(docs, ["alpha"], encoder)
        assert [sd.document.source.index for sd in ranked] == [1, 2, 0]
        # scores are cosine similarities, descending
        assert ranked[0].score == pytest.approx(1.0)
        assert ranked[1].score == pytest.approx(1 / math.sqrt(5))
        assert ranked[2].score == pytest.approx(0.0)

    def test_equal_distances_keep_incoming_order(self):
        encoder = VocabEncoder(self.VOCAB)
        docs = [doc("alpha", i) for i in range(3)]
        ranked = rerank_by_keywords(docs, ["alpha"], encoder)
        assert [sd.document.source.index for sd in ranked] == [0, 1, 2]

    def test_keywords_joined_into_one_query(self):
        encoder = VocabEncoder(self.VOCAB)
        rerank_by_keywords([doc("alpha", 0)], ["tennis", "golf"], encoder)
        # one call: the joined query, then the document
        assert encoder.batches == [["tennis golf", "alpha"]]

    def test_document_failure_caches_nothing(self):
        vocab = VocabEncoder(self.VOCAB)

        def encoder(texts):
            if "poison" in texts:
                raise ValueError("backend down")
            return vocab(texts)

        index = DocumentIndex()
        with pytest.raises(EncoderFailure, match="backend down"):
            rerank_by_keywords(
                [doc("alpha", 0), doc("poison", 1)],
                ["alpha"],
                encoder,
                index,
            )
        assert index.embeddings == {}
        rerank_by_keywords([doc("alpha", 0)], ["alpha"], encoder, index)
        assert list(index.embeddings) == ["alpha"]

    def test_query_failure_is_an_encoder_failure(self):
        def encoder(texts):
            raise ValueError("always down")

        with pytest.raises(EncoderFailure, match="always down"):
            rerank_by_keywords([doc("alpha", 0)], ["alpha"], encoder)

    def test_backend_errors_are_not_wrapped(self):
        def encoder(texts):
            raise BackendTimeoutError("no reply")

        with pytest.raises(BackendTimeoutError):
            rerank_by_keywords([doc("alpha", 0)], ["alpha"], encoder)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_embedding_count_is_an_encoder_failure(self, extra):
        vocab = VocabEncoder(self.VOCAB)

        def encoder(texts):
            out = vocab(texts)
            return out[:-1] if extra < 0 else out + out[:1]

        index = DocumentIndex()
        with pytest.raises(EncoderFailure, match="embeddings for 2 texts"):
            rerank_by_keywords([doc("alpha", 0)], ["alpha"], encoder, index)
        assert index.embeddings == {}

    def test_cached_texts_are_not_sent_again(self):
        encoder = VocabEncoder(self.VOCAB)
        index = DocumentIndex()
        docs = [doc("alpha", 0), doc("tennis", 1), doc("alpha", 2)]
        first = rerank_by_keywords(docs, ["alpha"], encoder, index)
        second = rerank_by_keywords(docs + [doc("golf", 3)], ["alpha"], encoder, index)
        # duplicate texts go once; the second call sends only the new text
        assert encoder.batches == [["alpha", "alpha", "tennis"], ["alpha", "golf"]]
        assert second[:3] == first

    def test_empty_keywords_rejected(self):
        with pytest.raises(RetrievalError):
            rerank_by_keywords([doc("alpha", 0)], [], VocabEncoder(self.VOCAB))


class TestRetrieveTopK:
    """End-to-end over a store whose document geometry is fully controlled."""

    def setup_store(self):
        store = MemoryStore()
        rng = np.random.default_rng(0)
        me = seed_profile(
            store,
            Embedding(rng.normal(size=512), "face"),
            Embedding(rng.normal(size=256), "voice"),
            "Me",
        )
        ann = seed_profile(
            store,
            Embedding(rng.normal(size=512), "face"),
            Embedding(rng.normal(size=256), "voice"),
            "Ann",
            facts=(
                ("alpha alpha alpha alpha", "d1"),
                ("alpha alpha alpha betax", "d1"),
                ("alpha alpha betax betax", "d1"),
                ("alpha", "d1"),
            ),
        )
        store.add_relation_edge(RelationTriplet(me, "friend", ann))
        encoder = VocabEncoder(("ann", "friend", "d1", "alpha", "betax", "me"))
        return store, me, encoder

    def test_empty_groups_empty_result(self):
        store, me, encoder = self.setup_store()
        result = retrieve_topk(QueryGroups(), store, me, encoder)
        assert result.documents == ()

    def test_relations_without_match_short_circuit(self):
        store, me, encoder = self.setup_store()
        result = retrieve_topk(QueryGroups(("mentor",), ("alpha",)), store, me, encoder)
        assert result.documents == ()

    def test_relation_stage_then_keyword_stage(self):
        store, me, encoder = self.setup_store()
        result = retrieve_topk(QueryGroups(("friend",), ("alpha",)), store, me, encoder)
        texts = [sd.document.text for sd in result.documents]
        assert texts[0].endswith("alpha alpha alpha alpha")
        assert texts[1].endswith("alpha alpha alpha betax")

    def test_keywords_only_ranks_everything(self):
        store, me, encoder = self.setup_store()
        result = retrieve_topk(QueryGroups((), ("betax",)), store, me, encoder)
        assert result.documents[0].document.text.endswith("alpha alpha betax betax")

    def test_keywords_need_encoder(self):
        store, me, _ = self.setup_store()
        with pytest.raises(RetrievalError):
            retrieve_topk(QueryGroups((), ("alpha",)), store, me, encoder=None)

    def test_k_cut(self):
        store, me, encoder = self.setup_store()
        result = retrieve_topk(QueryGroups(("friend",), ("alpha",)), store, me, encoder, k=2)
        assert len(result.documents) == 2

    def test_budget_is_greedy_prefix_with_hard_break(self):
        store, me, encoder = self.setup_store()
        # document costs: 17-byte prefix + texts of 23/23/23/5 bytes
        costs = [d.token_cost for d in build_documents(store, me)]
        assert costs == [40, 40, 40, 22]
        # rank order under "alpha" is doc0, doc1, doc2, doc3; 121 tokens fit
        # the first two (81) but not the third (122), and the cheap fourth
        # document must NOT leapfrog the break
        result = retrieve_topk(
            QueryGroups((), ("alpha",)), store, me, encoder, token_budget=121
        )
        assert len(result.documents) == 2
        assert result.rendered_cost == 81
        texts = [sd.document.text for sd in result.documents]
        assert not any(t.endswith(", alpha") for t in texts)

    def test_budget_boundary_exact_fit(self):
        store, me, encoder = self.setup_store()
        result = retrieve_topk(
            QueryGroups((), ("alpha",)), store, me, encoder, token_budget=81
        )
        assert result.rendered_cost == 81
        result = retrieve_topk(
            QueryGroups((), ("alpha",)), store, me, encoder, token_budget=80
        )
        assert len(result.documents) == 1

    def test_result_respects_budget_always(self):
        store, me, encoder = self.setup_store()
        for budget in (0, 10, 40, 41, 100, 256):
            result = retrieve_topk(
                QueryGroups(("friend",), ("alpha",)), store, me, encoder, token_budget=budget
            )
            assert result.rendered_cost <= budget


# --------------------------------------------------------------------------
# equivalence with the per-document implementation
#
# The four functions below are the earlier per-query implementation, copied
# verbatim except for their ref_ names and the exception they raise: every
# query rebuilt its documents, re-tokenized them for BM25 and embedded each
# candidate with its own encoder call. The indexed implementation must give
# equal results (documents and float scores, with ==) on every input.


class RefEncoderFailure(RetrievalError):
    def __init__(self, message, document_text=None):
        super().__init__(message)
        self.document_text = document_text


def ref_build_documents(store, current_user):
    docs = []
    for neighbor_id, relation in store.connected_users(current_user):
        profile = store.lookup_user(neighbor_id)
        for kind, items in (("fact", profile.facts), ("summary", profile.dialog_summaries)):
            for index, item in enumerate(items):
                text = f"{profile.name}, {relation}, {item.timestamp}, {item.text}"
                docs.append(
                    RetrievalDocument(text, DocumentSource(neighbor_id, kind, index))  # type: ignore[arg-type]
                )
    return docs


def ref_bm25_rank(query_words, documents):
    if not query_words:
        raise RetrievalError("bm25_rank needs at least one query word")
    if not documents:
        return []
    doc_tokens = [tokenize(d.text) for d in documents]
    n_docs = len(documents)
    avgdl = sum(len(toks) for toks in doc_tokens) / n_docs
    if avgdl == 0:
        return []

    query_terms = [w.lower() for w in query_words]
    df = {}
    for term in set(query_terms):
        df[term] = sum(1 for toks in doc_tokens if term in toks)

    scored = []
    for doc, toks in zip(documents, doc_tokens):
        score = 0.0
        dl = len(toks)
        for term in query_terms:
            tf = toks.count(term)
            if tf == 0:
                continue
            idf = math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            score += idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl))
        if score > 0.0:
            scored.append(ScoredDocument(doc, score))
    scored.sort(key=lambda sd: -sd.score)  # stable: ties stay in document order
    return scored


def ref_rerank_by_keywords(documents, keywords, encoder):
    if not keywords:
        raise RetrievalError("rerank_by_keywords needs at least one keyword")
    query_text = " ".join(keywords)
    try:
        query_emb = encoder(query_text)
    except Exception as exc:  # noqa: BLE001 - propagate with context
        raise RefEncoderFailure(f"encoding keyword query failed: {exc}") from exc
    ranked = []
    for index, doc in enumerate(documents):
        try:
            doc_emb = encoder(doc.text)
        except Exception as exc:  # noqa: BLE001
            raise RefEncoderFailure(
                f"encoding document failed: {exc}", document_text=doc.text
            ) from exc
        ranked.append((cosine_distance(query_emb, doc_emb), index))
    ranked.sort(key=lambda pair: pair[0])
    return [ScoredDocument(documents[i], 1.0 - dist) for dist, i in ranked]


def ref_retrieve_topk(groups, store, current_user, encoder=None, k=5, token_budget=256):
    if groups.empty:
        return RetrievalResult((), token_budget)
    documents = ref_build_documents(store, current_user)
    if groups.relations:
        scored = ref_bm25_rank(groups.relations, documents)
        if not scored:
            return RetrievalResult((), token_budget)
        candidates = scored
    else:
        candidates = [ScoredDocument(d, 0.0) for d in documents]
    if groups.keywords:
        if encoder is None:
            raise RetrievalError("keyword rerank requires a text encoder")
        candidates = ref_rerank_by_keywords([sd.document for sd in candidates], groups.keywords, encoder)

    chosen = []
    used = 0
    for sd in candidates:
        if len(chosen) == k:
            break
        cost = sd.document.token_cost + (1 if chosen else 0)
        if used + cost > token_budget:
            break
        chosen.append(sd)
        used += cost
    return RetrievalResult(tuple(chosen), token_budget)


NAMES = ("Ann", "Bob", "Cy")  # repeated names make duplicate document texts
RELATIONS = ("friend", "colleague", "friend colleague")  # a label of two words
WORDS = ("alpha", "betax", "tennis", "golf", "rain", "tea")
ABSENT = ("nobody", "zzz")
DATES = ("d1", "d2")
ENCODERS = {
    # exact ties: equal word counts give bit-equal vectors
    "vocab": VocabEncoder(
        tuple(n.lower() for n in (*NAMES, "Host", "Loner")) + WORDS + ABSENT + DATES
        + ("colleague", "friend", "standing")
    ).embed,
    # the 128-bucket hash collides often, so unrelated texts tie too
    "hashing": lambda text: Embedding(MockTextEncoderService.embed_vector(text), "text"),
}


def per_text(embed):
    """The batch contract over a per-text function, as the indexed code calls it."""
    return lambda texts: [embed(text) for text in texts]


def key(rng, modality):
    return Embedding(rng.normal(size=512 if modality == "face" else 256), modality)


facts_strategy = st.lists(
    st.tuples(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
        st.sampled_from(DATES),
    ),
    max_size=4,
)


@st.composite
def stores(draw):
    """A host linked to 0-4 neighbours (some by two relations) plus an unlinked user."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    store = MemoryStore()
    host = seed_profile(store, key(rng, "face"), key(rng, "voice"), "Host")
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(NAMES))
        neighbor = seed_profile(
            store, key(rng, "face"), key(rng, "voice"), name,
            facts=draw(facts_strategy), summaries=draw(facts_strategy.map(lambda f: f[:2])),
        )
        for relation in draw(st.lists(st.sampled_from(RELATIONS), min_size=1, max_size=2)):
            store.add_relation_edge(RelationTriplet(host, relation, neighbor))
    seed_profile(store, key(rng, "face"), key(rng, "voice"), "Loner", facts=[("alpha", "d1")])
    return store, host, rng


query_words = st.lists(
    st.sampled_from(WORDS + ABSENT + ("friend", "colleague", "Friend", "ann", "d1")),
    max_size=3,
)


@st.composite
def queries(draw):
    relations = draw(query_words)
    keywords = draw(query_words)
    return QueryGroups(tuple(relations), tuple(keywords))


def boundary_budgets(result):
    """Budgets at, one under and one over each prefix cost of a ranking."""
    costs = []
    used = 0
    for sd in result.documents:
        used += sd.document.token_cost + (1 if costs else 0)
        costs.append(used)
    return sorted({0, *costs, *(c - 1 for c in costs), *(c + 1 for c in costs)} - {-1})


def assert_same(groups, store, user, embed, index, data):
    """Equal results at k and budgets on and around the ranking's boundaries."""
    full = ref_retrieve_topk(groups, store, user, embed, k=100, token_budget=10**6)
    k = data.draw(st.integers(1, max(1, len(full.documents) + 1)), label="k")
    budget = data.draw(
        st.sampled_from(boundary_budgets(full)) | st.integers(0, 300), label="budget"
    )
    expected = ref_retrieve_topk(groups, store, user, embed, k=k, token_budget=budget)
    got = retrieve_topk(groups, store, user, per_text(embed), k=k, token_budget=budget, index=index)
    assert got == expected


class TestIndexedEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(world=stores(), groups=queries(), encoder=st.sampled_from(sorted(ENCODERS)),
           data=st.data())
    def test_fresh_index_per_call(self, world, groups, encoder, data):
        store, host, _ = world
        embed = ENCODERS[encoder]
        assert build_documents(store, host) == ref_build_documents(store, host)
        if groups.relations:
            documents = ref_build_documents(store, host)
            assert bm25_rank(groups.relations, documents) == ref_bm25_rank(groups.relations, documents)
        assert_same(groups, store, host, embed, None, data)

    @settings(max_examples=60, deadline=None)
    @given(world=stores(), encoder=st.sampled_from(sorted(ENCODERS)), data=st.data())
    def test_one_index_across_store_writes(self, world, encoder, data):
        """Queries on one index before and after every kind of store write."""
        store, host, rng = world
        embed = ENCODERS[encoder]
        index = DocumentIndex()
        asked = queries().filter(lambda groups: not groups.empty)
        assert_same(data.draw(asked, label="groups"), store, host, embed, index, data)
        for _ in range(data.draw(st.integers(1, 6), label="writes")):
            users = store.user_ids
            neighbors = [n for n, _ in store.connected_users(host)] or list(users)
            action = data.draw(st.sampled_from(("update", "edge", "create", "bump")), label="write")
            if action == "update":
                user = data.draw(st.sampled_from(neighbors), label="updated")
                facts = data.draw(facts_strategy, label="facts")
                store.apply_profile_update(user, UpdateResolution(
                    user, store.lookup_user(user).version,
                    fact_appends=tuple(MemoryItem(t, ts) for t, ts in facts),
                    summary_appends=(MemoryItem("tea rain", "d2"),),
                ))
            elif action == "edge":
                other = data.draw(st.sampled_from(users), label="other")
                relation = data.draw(st.sampled_from(RELATIONS), label="relation")
                if other != host:
                    store.add_relation_edge(RelationTriplet(other, relation, host))
            elif action == "create":
                name = data.draw(st.sampled_from(NAMES), label="name")
                new = seed_profile(store, key(rng, "face"), key(rng, "voice"), name,
                                   facts=data.draw(facts_strategy, label="new facts"))
                store.add_relation_edge(RelationTriplet(new, "friend", host))
            else:  # a new version whose documents are unchanged
                user = data.draw(st.sampled_from(users), label="bumped")
                store.apply_profile_update(
                    user, UpdateResolution(user, store.lookup_user(user).version)
                )
            for user in (host, data.draw(st.sampled_from(store.user_ids), label="user")):
                assert_same(data.draw(asked, label="groups"), store, user, embed, index, data)

    @staticmethod
    def count_builds(monkeypatch):
        calls = []
        real = retrieval.build_documents
        monkeypatch.setattr(
            retrieval, "build_documents", lambda *args: calls.append(args) or real(*args)
        )
        return calls

    def test_corpus_is_kept_until_the_store_changes(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        store, me, _ = TestRetrieveTopK().setup_store()
        index = DocumentIndex()
        groups = QueryGroups(("friend",), ())
        first = retrieve_topk(groups, store, me, index=index)
        assert retrieve_topk(groups, store, me, index=index) == first
        assert len(builds) == 1
        self.add_fact(store, "friend notes")
        second = retrieve_topk(groups, store, me, index=index)
        assert len(builds) == 2
        assert second.documents[0].document.text == "Ann, friend, d2, friend notes"
        # another store object at the same version is another corpus
        other, _, _ = TestRetrieveTopK().setup_store()
        self.add_fact(other, "old friend")
        assert other.store_version == store.store_version
        third = retrieve_topk(groups, other, me, index=index)
        assert len(builds) == 3
        assert third.documents[0].document.text == "Ann, friend, d2, old friend"

    @staticmethod
    def add_fact(store, text):
        ann = store.name_directory()["Ann"]
        store.apply_profile_update(ann, UpdateResolution(
            ann, store.lookup_user(ann).version, fact_appends=(MemoryItem(text, "d2"),)
        ))

    def test_user_without_documents_keeps_nothing(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        store = MemoryStore()
        rng = np.random.default_rng(0)
        alone = seed_profile(store, key(rng, "face"), key(rng, "voice"), "Alone")
        index = DocumentIndex()
        corpus = index.corpus(store, alone)
        assert len(corpus) == 0
        assert index.corpus(store, alone) is corpus  # the one shared empty corpus
        assert len(builds) == 2  # and nothing kept for the user


class TestEnvelopes:
    """Text envelopes the rerank sends through the backend adapter."""

    @staticmethod
    def suite_and_envelopes():
        envelopes = []

        class Counting:
            def __init__(self, inner):
                self.inner = inner

            def send(self, kind, envelope):
                if kind == "text_encoder":
                    envelopes.append(envelope["body"]["texts"])
                return self.inner.send(kind, envelope)

        return mock_suite({}, wrap_transport=Counting), envelopes

    def test_envelope_counts_over_a_thousand_documents(self):
        fixture = build_retrieval_fixture(n_neighbors=25, facts_per_neighbor=40, n_queries=2)
        assert len(build_documents(fixture.store, fixture.host_id)) == 1000
        suite, envelopes = self.suite_and_envelopes()
        index = DocumentIndex()
        groups, _ = fixture.queries[0]
        (relation,), (keyword,) = groups.relations, groups.keywords

        def query(groups):
            envelopes.clear()
            retrieve_topk(groups, fixture.store, fixture.host_id, suite.embed_texts, index=index)
            return [len(texts) for texts in envelopes]

        cold = query(QueryGroups((), (keyword,)))
        assert len(cold) == math.ceil(1001 / TEXTS_PER_ENVELOPE) == 16
        assert max(cold) == TEXTS_PER_ENVELOPE == 64 and sum(cold) == 1001
        assert query(QueryGroups((), (keyword,))) == [1]
        assert query(QueryGroups((relation,), (keyword, "tea"))) == [1]
        fresh = DocumentIndex()
        envelopes.clear()
        retrieve_topk(QueryGroups((relation,), (keyword,)), fixture.store, fixture.host_id,
                      suite.embed_texts, index=fresh)
        assert [len(texts) for texts in envelopes] == [41]  # the keywords and 40 candidates
