"""Shared test helpers: tiny fixtures and an independent conlleval-style scorer."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from jmrm.core import Episode, LabelSpace, Sample


def make_sample(ls: LabelSpace, tokens: str, intent: str, slots: str) -> Sample:
    toks = tuple(tokens.split())
    return Sample(
        tokens=toks,
        intent=ls.intent_id(intent),
        slots=tuple(ls.slot_id(s) for s in slots.split()),
    )


@pytest.fixture
def music_space() -> LabelSpace:
    return LabelSpace(
        intents=("play_music", "book_restaurant"),
        slot_labels=("O", "B-artist", "I-artist", "B-city", "I-city"),
    )


# --- reference conlleval-style counting ------------------------------------
#
# A close transliteration of the classic conlleval chunk bookkeeping based
# on start-of-chunk / end-of-chunk predicates, entirely independent of
# jmrm.metrics.score.  Operates on label STRINGS.


def _split(tag: str):
    if tag == "O":
        return "O", None
    prefix, typ = tag.split("-", 1)
    return prefix, typ


def _chunk_end(prev: str, cur: str) -> bool:
    p1, t1 = _split(prev)
    p2, t2 = _split(cur)
    if p1 == "O":
        return False
    if p2 == "O":
        return True
    if t1 != t2:
        return True
    return p2 == "B"


def _chunk_start(prev: str, cur: str) -> bool:
    p1, t1 = _split(prev)
    p2, t2 = _split(cur)
    if p2 == "O":
        return False
    if p1 == "O":
        return True
    if t1 != t2:
        return True
    return p2 == "B"


def conlleval_counts(
    gold_seqs: list[list[str]], pred_seqs: list[list[str]]
) -> tuple[int, int, int]:
    """(correct_chunks, gold_chunks, pred_chunks) over label-string sequences."""
    correct = gold_total = pred_total = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
        prev_gold, prev_pred = "O", "O"
        in_correct = False
        for g, p in zip(gold, pred):
            _, gold_type = _split(g)
            _, pred_type = _split(p)
            _, prev_gold_type = _split(prev_gold)
            _, prev_pred_type = _split(prev_pred)
            gold_starts = _chunk_start(prev_gold, g)
            pred_starts = _chunk_start(prev_pred, p)
            gold_ends = _chunk_end(prev_gold, g)
            pred_ends = _chunk_end(prev_pred, p)
            if in_correct:
                if gold_ends and pred_ends and prev_gold_type == prev_pred_type:
                    correct += 1
                    in_correct = False
                elif gold_ends != pred_ends or gold_type != pred_type:
                    in_correct = False
            if gold_starts and pred_starts and gold_type == pred_type:
                in_correct = True
            gold_total += gold_starts
            pred_total += pred_starts
            prev_gold, prev_pred = g, p
        if in_correct:
            correct += 1
    return correct, gold_total, pred_total


def conlleval_f1(gold_seqs, pred_seqs) -> float:
    correct, gold_total, pred_total = conlleval_counts(gold_seqs, pred_seqs)
    p = correct / pred_total if pred_total else 0.0
    r = correct / gold_total if gold_total else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def random_bio_strings(rng: np.random.Generator, types: list[str], m: int) -> list[str]:
    """Random syntactically unconstrained label strings (may be BIO-invalid)."""
    menu = ["O"] + [f"{p}-{t}" for t in types for p in ("B", "I")]
    return [menu[int(i)] for i in rng.integers(0, len(menu), size=m)]


def bio_space(n_intents: int, n_slots: int) -> LabelSpace:
    """O plus (n_slots - 1) / 2 B/I pairs; n_slots=79 is the SNIPS shape."""
    return LabelSpace(
        tuple(f"intent{k}" for k in range(n_intents)),
        ("O",) + tuple(f"{p}-type{k}" for k in range((n_slots - 1) // 2) for p in ("B", "I")),
    )


# --- a SNIPS-shaped episode --------------------------------------------------
#
# Y=7 intents and T=79 BIO labels over 39 slot types, as in SNIPS.  Intent j
# owns the types q with q % 7 == j.  Its spans take the owned types in turn,
# with widths 2, 1, 3 in successive rounds, so 8 support utterances per
# intent (56 in all, lengths alternating 12 and 40) contain every label.

SNIPS_SPACE = bio_space(7, 79)


def _snips_spans(j: int):
    types = range(j, 39, 7)
    for n in itertools.count():
        yield types[n % len(types)], (2, 1, 3)[n // len(types) % 3]


def _snips_utterance(rng: np.random.Generator, j: int, m: int, spans) -> Sample:
    """One BIO-valid utterance of intent j with m tokens, taking its slot
    spans from the iterator spans."""
    chosen = list(itertools.islice(spans, 2 if m <= 12 else 6))
    cuts = sorted(rng.choice(m - sum(w for _, w in chosen) + 1, size=len(chosen)))
    tokens, slots, prev = [], [], 0
    for (q, width), cut in zip(chosen, cuts):
        tokens += [f"c{j}{k}" for k in rng.integers(6, size=cut - prev)]
        tokens += [f"h{q}{rng.integers(3)}"] + [f"k{j}{k}" for k in rng.integers(4, size=width - 1)]
        slots += [0] * (cut - prev) + [1 + 2 * q] + [2 + 2 * q] * (width - 1)
        prev = cut
    rest = m - len(tokens)
    tokens += [f"c{j}{k}" for k in rng.integers(6, size=rest)]
    return Sample(tuple(tokens), j, tuple(slots + [0] * rest))


def snips_shaped_episode(rng: np.random.Generator, query_lengths=(12, 40)) -> Episode:
    """A 56-sample support set holding all 79 labels, and one query per length."""
    support = []
    for j in range(7):
        spans = _snips_spans(j)
        support += [_snips_utterance(rng, j, m, spans) for m in (12, 40) * 4]
    query = [
        _snips_utterance(rng, int(j), m, _snips_spans(int(j)))
        for j, m in zip(rng.integers(7, size=len(query_lengths)), query_lengths)
    ]
    return Episode(tuple(support), tuple(query), SNIPS_SPACE, "snips-shaped")
