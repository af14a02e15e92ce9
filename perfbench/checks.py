"""Output checkers of the day-replay benchmark.

Each checker takes plain outputs of one day and returns a list of error
strings, empty when the outputs are right. Expectations come from the
benchmark's own inputs (token arrays, scripts, rendered documents), not from
the program's answers.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

import numpy as np

from duplexmem.store import MemoryStore, StoreError
from duplexmem.stream import TokenStream

SPEAKER_MARKER_BASE = 2  # listen-slot ids >= 2 name a user
TIE_TOLERANCE = 1e-5  # float32 cosine scores that differ by less are ties

_WORD = re.compile(r"\w+")


def words(text: str) -> set[str]:
    return set(_WORD.findall(text.lower()))


def dominant_markers(tokens: np.ndarray, steps: Iterable[int], window: int) -> dict[int, int | None]:
    """For each polling step, the most frequent speaker marker of the window
    ending at that step (smaller marker on a tie), or None for no speaker."""
    semantic = tokens[:, 1]
    out: dict[int, int | None] = {}
    for step in steps:
        seg = semantic[max(0, step + 1 - window): step + 1]
        seg = seg[seg >= SPEAKER_MARKER_BASE]
        out[step] = int(np.argmax(np.bincount(seg))) if seg.size else None
    return out


def check_ticks(observed: Sequence[tuple[int, str | None]], expected: Mapping[int, str | None]) -> list[str]:
    """Every tick names the identity expected for its window."""
    errors = []
    for step, identity in observed:
        if step not in expected:
            errors.append(f"tick at step {step} was not scheduled")
        elif identity != expected[step]:
            errors.append(f"tick at step {step} named {identity!r}, expected {expected[step]!r}")
    if len(observed) != len(expected):
        errors.append(f"{len(observed)} ticks ran, {len(expected)} were scheduled")
    return errors


def check_facts(store: MemoryStore, expected: Iterable[tuple[str, str]]) -> list[str]:
    """Every (user id, fact text) pair is in that user's profile."""
    errors = []
    have: dict[str, set[str]] = {}
    for user_id, fact in expected:
        if user_id not in have:
            try:
                have[user_id] = {item.text for item in store.lookup_user(user_id).facts}
            except StoreError:
                have[user_id] = set()
        if fact not in have[user_id]:
            errors.append(f"fact {fact!r} missing from {user_id}")
    return errors


def check_relation_window(content: str, relations: Sequence[str], capacity: int) -> list[str]:
    """A relation query's window holds only documents carrying a queried relation word."""
    errors = _capacity(content, capacity)
    wanted = {r.lower() for r in relations}
    for line in filter(None, content.split("\n")):
        if not words(line) & wanted:
            errors.append(f"window document {line!r} carries none of {sorted(wanted)}")
    return errors


def check_ranked_window(
    content: str,
    doc_index: Mapping[str, int],
    scores: np.ndarray,
    candidates: np.ndarray,
    capacity: int,
) -> list[str]:
    """The window is a best-first prefix of the candidates by brute-force score.

    doc_index maps each rendered document text to its row; scores holds every
    document's cosine similarity to the query and candidates marks the rows
    the query admits. Ties within TIE_TOLERANCE may fall either way.
    """
    errors = _capacity(content, capacity)
    rows = []
    for line in filter(None, content.split("\n")):
        row = doc_index.get(line)
        if row is None or not candidates[row]:
            errors.append(f"window document {line!r} is not a candidate")
        else:
            rows.append(row)
    if not rows:
        if candidates.any() and not errors:
            errors.append("window is empty although candidates exist")
        return errors
    outside = candidates.copy()
    outside[rows] = False
    if outside.any():
        best_left = float(scores[outside].max())
        worst_in = float(scores[rows].min())
        if worst_in < best_left - TIE_TOLERANCE:
            errors.append(f"window keeps a document scored {worst_in:.6f} "
                          f"but leaves out one scored {best_left:.6f}")
    return errors


def check_rate(hits: int, total: int, floor: float, what: str) -> list[str]:
    if total and hits < floor * total:
        return [f"{what}: {hits} of {total}, below {floor:.0%}"]
    return []


def check_enrolment(created_names: Sequence[str], strangers_seen: Iterable[str]) -> list[str]:
    """One night enrols exactly the distinct strangers seen that day."""
    if sorted(created_names) != sorted(set(strangers_seen)):
        return [f"night enrolled {sorted(created_names)}, strangers seen {sorted(set(strangers_seen))}"]
    return []


def check_restored(persisted: MemoryStore, restored: MemoryStore) -> list[str]:
    return [] if restored == persisted else ["restored store differs from the persisted one"]


def check_stream(parsed: TokenStream, built: TokenStream) -> list[str]:
    return [] if parsed == built else ["parse_stream(serialize_stream(s)) differs from s"]


def _capacity(content: str, capacity: int) -> list[str]:
    size = len(content.encode("utf-8"))
    return [f"window holds {size} bytes, over its capacity {capacity}"] if size > capacity else []
