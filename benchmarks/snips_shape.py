"""A synthetic corpus with the label-space shape of SNIPS.

Real SNIPS data is not in the repository.  This generator reproduces the
shape that decides the cost of exact joint inference: Y=7 intents, 39 slot
types (T=79 labels with BIO), each intent owning its own subset of the
types (sizes as in SNIPS, with types shared between intents), and
utterances of exactly 12 or 40 tokens.  Everything is drawn from one
numpy Generator, so a seed fixes the corpus.
"""

from __future__ import annotations

import numpy as np

from jmrm import Corpus, LabelSpace, Sample

INTENT_NAMES = (
    "AddToPlaylist", "BookRestaurant", "GetWeather", "PlayMusic",
    "RateBook", "SearchCreativeWork", "SearchScreeningEvent",
)
# slot types per intent in SNIPS; they sum to more than N_TYPES, so some
# types are shared between intents, as in SNIPS
TYPES_PER_INTENT = (5, 14, 9, 9, 7, 2, 7)
N_TYPES = 39
LENGTHS = (12, 40)
# slot spans per utterance, by length
SPANS_PER_LENGTH = {12: 2, 40: 6}
# filler span lengths cycle per (intent, type): every type gets B- and I-
# occurrences at a steady rate, so K-shot coverage needs few samples
SPAN_CYCLE = (2, 1, 3)
HEADS_PER_TYPE = 3
CONTS_PER_INTENT = 4
CARRIERS_PER_INTENT = 6


def _intent_types(rng: np.random.Generator) -> list[list[int]]:
    """Slot types owned by each intent; every type is owned by some intent."""
    order = [int(q) for q in rng.permutation(N_TYPES)]
    owned: list[list[int]] = [[] for _ in INTENT_NAMES]
    # deal every type once, then top each intent up to its SNIPS size
    cursor = 0
    while cursor < N_TYPES:
        for j, size in enumerate(TYPES_PER_INTENT):
            if cursor < N_TYPES and len(owned[j]) < size:
                owned[j].append(order[cursor])
                cursor += 1
    for j, size in enumerate(TYPES_PER_INTENT):
        extra = [q for q in order if q not in owned[j]]
        owned[j] += extra[: size - len(owned[j])]
    return owned


def snips_shaped_corpus(rng: np.random.Generator, name: str, samples_per_intent: int) -> Corpus:
    """One corpus: samples_per_intent utterances per intent, lengths alternating 12/40."""
    owned = _intent_types(rng)
    slot_labels = ["O"]
    for q in range(N_TYPES):
        slot_labels += [f"B-st{q:02d}", f"I-st{q:02d}"]
    ls = LabelSpace(INTENT_NAMES, tuple(slot_labels))
    heads = {q: [f"{name}h{q:02d}{n}" for n in range(HEADS_PER_TYPE)] for q in range(N_TYPES)}
    conts = {j: [f"{name}k{j}{n}" for n in range(CONTS_PER_INTENT)] for j in range(len(INTENT_NAMES))}
    carriers = {j: [f"{name}c{j}{n}" for n in range(CARRIERS_PER_INTENT)] for j in range(len(INTENT_NAMES))}

    samples = []
    for j, types in enumerate(owned):
        type_cursor = 0
        span_cursor = {q: 0 for q in types}
        for n in range(samples_per_intent):
            length = LENGTHS[n % len(LENGTHS)]
            spans = []
            for _ in range(SPANS_PER_LENGTH[length]):
                q = types[type_cursor % len(types)]
                type_cursor += 1
                spans.append((q, SPAN_CYCLE[span_cursor[q] % len(SPAN_CYCLE)]))
                span_cursor[q] += 1
            n_carriers = length - sum(w for _, w in spans)
            # spread the spans over the carrier tokens at random positions
            cuts = sorted(int(c) for c in rng.choice(n_carriers + 1, size=len(spans), replace=True))
            tokens: list[str] = []
            slots: list[int] = []
            prev = 0
            for (q, width), cut in zip(spans, cuts):
                for _ in range(cut - prev):
                    tokens.append(carriers[j][int(rng.integers(CARRIERS_PER_INTENT))])
                    slots.append(ls.o_id)
                prev = cut
                tokens.append(heads[q][int(rng.integers(HEADS_PER_TYPE))])
                slots.append(ls.slot_id(f"B-st{q:02d}"))
                for _ in range(width - 1):
                    tokens.append(conts[j][int(rng.integers(CONTS_PER_INTENT))])
                    slots.append(ls.slot_id(f"I-st{q:02d}"))
            for _ in range(n_carriers - prev):
                tokens.append(carriers[j][int(rng.integers(CARRIERS_PER_INTENT))])
                slots.append(ls.o_id)
            samples.append(Sample(tuple(tokens), j, tuple(slots)))
    return Corpus(name, tuple(samples), ls)
