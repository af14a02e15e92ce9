"""Text retrieval over a user's social neighborhood.

The dialog model asks for memories through an inline marker on its text
channel: ``<retr>:`` followed by a relation group and a keyword group on
separate lines, closed by ``<answer>``. The documents are the facts and
dialog summaries of the current user's graph neighbors, one per item.
Relation words drive a BM25 pass over them; keyword words rerank the
survivors by embedding distance. The final top-k is cut greedily under a
fixed token budget so the result always fits the retrieval context window.

A DocumentIndex caches, for one run, what queries derive from the store. The
documents of the current user and their BM25 statistics (token counts,
average length, and per-term postings) are built once per store version: any
store write bumps ``store_version`` and drops every cached corpus. Text
embeddings are cached by document text for the life of the index, since a
run has one encoder and the text holds everything an embedding depends on.
The keyword rerank hands the encoder the joined keywords plus only the
uncached document texts, once each, in one batch; the backend adapter sends
them as ``texts`` envelopes of at most 64 texts (``TEXTS_PER_ENVELOPE`` in
``backends``). Scores and orders are those of a per-document loop: BM25 sums
in query-term order over the documents in its terms' postings, and cosine
distances are taken per pair.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Literal, Sequence

from .verification import Embedding, cosine_distance

if TYPE_CHECKING:  # pragma: no cover
    from .store import MemoryStore

QUERY_OPEN = "<retr>:"
QUERY_CLOSE = "<answer>"

BM25_K1 = 1.2
BM25_B = 0.75

DEFAULT_TOKEN_BUDGET = 256
DEFAULT_TOP_K = 5

_WORD_RE = re.compile(r"\w+")
_FORBIDDEN_IN_WORDS = (",", "\n", QUERY_OPEN, QUERY_CLOSE)

TextEncoder = Callable[[Sequence[str]], Sequence[Embedding]]


class RetrievalError(Exception):
    pass


class MalformedQueryError(RetrievalError):
    """A query marker was opened but never closed with <answer>."""


class EncoderFailure(RetrievalError):
    """The text encoder failed, or returned a wrong number of embeddings.

    Backend errors are not wrapped: they reach the caller as they are.
    """


@dataclass(frozen=True)
class QueryGroups:
    """Parsed relation and keyword groups from one query marker."""

    relations: tuple[str, ...] = ()
    keywords: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for word in (*self.relations, *self.keywords):
            if not word:
                raise RetrievalError("query words must be non-empty")
            if any(tok in word for tok in _FORBIDDEN_IN_WORDS):
                raise RetrievalError(f"query word {word!r} contains protocol separators")

    @property
    def empty(self) -> bool:
        return not self.relations and not self.keywords


@dataclass(frozen=True)
class DocumentSource:
    user_id: str
    kind: Literal["fact", "summary"]
    index: int


@dataclass(frozen=True)
class RetrievalDocument:
    text: str
    source: DocumentSource
    token_cost: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "token_cost", token_cost(self.text))


@dataclass(frozen=True)
class ScoredDocument:
    document: RetrievalDocument
    score: float


@dataclass(frozen=True)
class RetrievalResult:
    documents: tuple[ScoredDocument, ...]
    token_budget: int = DEFAULT_TOKEN_BUDGET

    def __post_init__(self) -> None:
        scores = [d.score for d in self.documents]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise RetrievalError("result documents must be in descending score order")
        if self.rendered_cost > self.token_budget:
            raise RetrievalError("result exceeds its token budget")

    @property
    def rendered_cost(self) -> int:
        if not self.documents:
            return 0
        costs = sum(d.document.token_cost for d in self.documents)
        return costs + (len(self.documents) - 1)  # newline separators

    def render_text(self) -> str:
        return "\n".join(d.document.text for d in self.documents)


def token_cost(text: str) -> int:
    """Length of the text under the harness byte-level vocabulary."""
    return len(text.encode("utf-8"))


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens. Punctuation is dropped, so the comma-separated
    document records match bare query words."""
    return _WORD_RE.findall(text.lower())


def format_query_protocol(groups: QueryGroups) -> str:
    return (
        f"{QUERY_OPEN}\n{','.join(groups.relations)}\n{','.join(groups.keywords)}{QUERY_CLOSE}"
    )


def parse_query_protocol(text: str) -> QueryGroups | None:
    """Extract the last query marker from a monologue text.

    Returns None when no marker is present. A marker that is opened but not
    closed, or whose body does not hold exactly two newline-separated groups,
    raises MalformedQueryError.
    """
    start = text.rfind(QUERY_OPEN)
    if start == -1:
        return None
    rest = text[start + len(QUERY_OPEN):]
    end = rest.find(QUERY_CLOSE)
    if end == -1:
        raise MalformedQueryError("query marker opened without a closing <answer>")
    body = rest[:end]
    parts = body.split("\n")
    if len(parts) != 3 or parts[0] != "":
        raise MalformedQueryError("query marker body must hold two newline-separated groups")
    relations = tuple(w.strip() for w in parts[1].split(",") if w.strip())
    keywords = tuple(w.strip() for w in parts[2].split(",") if w.strip())
    return QueryGroups(relations, keywords)


def build_documents(store: "MemoryStore", current_user: str) -> list[RetrievalDocument]:
    """One document per (neighbor, memory item).

    Document text is the neighbor's name, the relation label, and the item's
    timestamp and text, comma-separated. Order is deterministic: neighbors
    sorted by user id, facts before dialog summaries, items by index.
    """
    docs: list[RetrievalDocument] = []
    for neighbor_id, relation in store.connected_users(current_user):
        profile = store.lookup_user(neighbor_id)
        for kind, items in (("fact", profile.facts), ("summary", profile.dialog_summaries)):
            for index, item in enumerate(items):
                text = f"{profile.name}, {relation}, {item.timestamp}, {item.text}"
                docs.append(
                    RetrievalDocument(text, DocumentSource(neighbor_id, kind, index))  # type: ignore[arg-type]
                )
    return docs


class Corpus:
    """Documents with the BM25 statistics of their tokens.

    ``postings`` maps each term to its (document index, term frequency)
    pairs in ascending document order; ``lengths`` holds each document's
    token count.
    """

    __slots__ = ("documents", "lengths", "postings", "avgdl")

    def __init__(self, documents: Sequence[RetrievalDocument]):
        self.documents = list(documents)
        self.lengths: list[int] = []
        self.postings: dict[str, list[tuple[int, int]]] = {}
        for index, doc in enumerate(self.documents):
            tokens = tokenize(doc.text)
            self.lengths.append(len(tokens))
            for term, tf in Counter(tokens).items():
                self.postings.setdefault(term, []).append((index, tf))
        self.avgdl = sum(self.lengths) / len(self.lengths) if self.lengths else 0.0

    def __len__(self) -> int:
        return len(self.documents)


_EMPTY_CORPUS = Corpus(())


class DocumentIndex:
    """What retrieval derives from a store, cached for one run.

    Corpora are kept per current user for one (store, store_version); a new
    store object or version drops them all. A user with no documents gets
    the shared empty corpus and nothing is kept for them. ``embeddings``
    maps document text to its text embedding and is never dropped.
    """

    __slots__ = ("_store", "_version", "_corpora", "embeddings")

    def __init__(self) -> None:
        self._store: MemoryStore | None = None
        self._version = -1
        self._corpora: dict[str, Corpus] = {}
        self.embeddings: dict[str, Embedding] = {}

    def corpus(self, store: "MemoryStore", current_user: str) -> Corpus:
        corpus = self._corpora.get(current_user)
        if corpus is not None and self._holds(store):
            return corpus
        documents = build_documents(store, current_user)
        if not documents:  # keep nothing and read no version for such a user
            return _EMPTY_CORPUS
        if not self._holds(store):
            self._store, self._version = store, store.store_version
            self._corpora.clear()
        corpus = self._corpora[current_user] = Corpus(documents)
        return corpus

    def _holds(self, store: "MemoryStore") -> bool:
        """Whether the kept corpora are of this store at its current version."""
        return store is self._store and store.store_version == self._version


def bm25_rank(
    query_words: Sequence[str], documents: Sequence[RetrievalDocument] | Corpus
) -> list[ScoredDocument]:
    """Okapi BM25 with k1=1.2, b=0.75 and +1-smoothed idf.

    Documents scoring zero are dropped. Ties keep document order (stable sort
    on descending score). Only documents in the query terms' postings are
    scored, in document order, each summing its terms in query order.
    """
    if not query_words:
        raise RetrievalError("bm25_rank needs at least one query word")
    corpus = documents if isinstance(documents, Corpus) else Corpus(documents)
    avgdl = corpus.avgdl
    if avgdl == 0:  # no documents, or none holding a token
        return []
    n_docs = len(corpus)

    query_terms = [w.lower() for w in query_words]
    tfs = {term: dict(corpus.postings.get(term, ())) for term in dict.fromkeys(query_terms)}
    idf = {
        term: math.log(1.0 + (n_docs - len(tf) + 0.5) / (len(tf) + 0.5))
        for term, tf in tfs.items()
    }

    scored: list[ScoredDocument] = []
    for index in sorted(set().union(*tfs.values())):
        score = 0.0
        dl = corpus.lengths[index]
        for term in query_terms:
            tf = tfs[term].get(index, 0)
            if tf == 0:
                continue
            norm = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl)
            score += idf[term] * tf * (BM25_K1 + 1.0) / norm
        if score > 0.0:
            scored.append(ScoredDocument(corpus.documents[index], score))
    scored.sort(key=lambda sd: -sd.score)  # stable: ties stay in document order
    return scored


def rerank_by_keywords(
    documents: Sequence[RetrievalDocument],
    keywords: Sequence[str],
    encoder: TextEncoder,
    index: DocumentIndex | None = None,
) -> list[ScoredDocument]:
    """Order documents by ascending cosine distance to the joined keywords.

    All keywords are concatenated into one query string. The encoder gets
    that string plus every document text the index has no embedding for,
    once each, in one call; the index keeps the new embeddings only when the
    whole call succeeds. The sort is stable, so equal distances keep the
    incoming order. Scores on the result are cosine similarities
    (descending).
    """
    if not keywords:
        raise RetrievalError("rerank_by_keywords needs at least one keyword")
    cache = index.embeddings if index is not None else {}
    missing = list(dict.fromkeys(doc.text for doc in documents if doc.text not in cache))
    texts = [" ".join(keywords), *missing]
    try:
        embeddings = encoder(texts)
    except Exception as exc:  # noqa: BLE001 - propagate with context
        from .backends import BackendError  # deferred: backends imports this module

        if isinstance(exc, BackendError):
            raise
        raise EncoderFailure(f"text encoder failed: {exc}") from exc
    if len(embeddings) != len(texts):
        raise EncoderFailure(
            f"text encoder returned {len(embeddings)} embeddings for {len(texts)} texts"
        )
    query_emb = embeddings[0]
    cache.update(zip(missing, embeddings[1:]))
    ranked = [
        (cosine_distance(query_emb, cache[doc.text]), position)
        for position, doc in enumerate(documents)
    ]
    ranked.sort(key=lambda pair: pair[0])
    return [ScoredDocument(documents[i], 1.0 - dist) for dist, i in ranked]


def retrieve_topk(
    groups: QueryGroups,
    store: "MemoryStore",
    current_user: str,
    encoder: TextEncoder | None = None,
    k: int = DEFAULT_TOP_K,
    token_budget: int = DEFAULT_TOKEN_BUDGET,
    index: DocumentIndex | None = None,
) -> RetrievalResult:
    """Two-stage retrieval: BM25 filter on relations, keyword rerank, then a
    greedy top-k prefix under the token budget.

    Empty relation group skips the BM25 stage (keywords rank all documents);
    empty keyword group returns the BM25 ranking as is; both groups empty
    yields an empty result. When the BM25 stage drops every document the
    result is empty, keywords notwithstanding. Without an index, a fresh one
    serves this one call.
    """
    if groups.empty:
        return RetrievalResult((), token_budget)
    if index is None:
        index = DocumentIndex()
    corpus = index.corpus(store, current_user)
    candidates: list[ScoredDocument] = []
    documents: Sequence[RetrievalDocument] = corpus.documents
    if groups.relations:
        candidates = bm25_rank(groups.relations, corpus) if corpus.documents else []
        if not candidates:
            return RetrievalResult((), token_budget)
        documents = [sd.document for sd in candidates]
    if groups.keywords:
        if encoder is None:
            raise RetrievalError("keyword rerank requires a text encoder")
        candidates = rerank_by_keywords(documents, groups.keywords, encoder, index)

    chosen: list[ScoredDocument] = []
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
