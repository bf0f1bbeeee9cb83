"""Episode construction and synthetic multi-domain corpus generation.

Support sets are built K-shot: every intent class occurring in the corpus
gets at least K supporting samples and every occurring slot class gets at
least K labeled word occurrences, and the set is irreducible (removing any
utterance breaks the threshold for some class).  The synthetic generator
produces small multi-domain corpora whose intent/slot pairings differ per
domain while slot-filler surface tokens partially recur across domains, so
cross-domain transfer of token semantics is meaningful but intent-slot
relations are domain-specific.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    Episode,
    LabelSpace,
    O_LABEL,
    Sample,
    check_samples,
    episode_label_space,
    labeled_record,
    parse_labeled_records,
    remap,
    serialize_labeled_records,
    warn_bio_anomalies,
)


class InsufficientCorpus(ValueError):
    """The corpus cannot satisfy the requested K-shot coverage."""


@dataclass(frozen=True)
class Corpus:
    """All labeled samples of one domain under a domain-global label space;
    construction checks them (check_samples), then warns of gold BIO anomalies."""

    domain_name: str
    samples: tuple[Sample, ...]
    label_space: LabelSpace

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        ls = self.label_space
        warn_bio_anomalies(ls, *check_samples(ls, {f"corpus {self.domain_name!r}": self.samples}))


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the synthetic multi-domain corpus generator."""

    n_source_domains: int = 8
    n_dev_domains: int = 2
    n_target_domains: int = 3
    intents_per_domain: int = 2
    slots_per_intent: int = 2
    vocab_overlap: float = 0.7
    template_count: int = 4
    samples_per_domain: int = 48
    seed: int = 0

    def __post_init__(self):
        counts = (
            self.n_source_domains, self.n_dev_domains, self.n_target_domains,
            self.intents_per_domain, self.slots_per_intent,
            self.template_count, self.samples_per_domain,
        )
        if any(c < 1 for c in counts) or self.seed < 0:
            raise ValueError("all SynthSpec counts must be >= 1, and seed >= 0")
        if not 0.0 <= self.vocab_overlap <= 1.0:
            raise ValueError("vocab_overlap must lie in [0, 1]")


def _classes(sample: Sample) -> list[tuple[str, int]]:
    """The classes a sample counts toward: its intent once, a slot label per labeled word."""
    return [("intent", sample.intent)] + [("slot", sid) for sid in sample.slots]


def build_support_set(corpus: Corpus, k: int, rng: np.random.Generator) -> list[Sample]:
    """Select a K-shot support set from the corpus.

    Greedy add in shuffled order until every occurring class reaches the K
    threshold, then prune: each selected sample is removed (in a fresh
    shuffled order) iff coverage still holds without it.  The result is
    irreducible but not necessarily minimum-size.  One running count of the
    selection per class decides both: a sample can only take its own
    classes below K.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = Counter(key for s in corpus.samples for key in _classes(s))
    # sorted keys put every intent before every slot label, each by id
    for (kind, cid), n in sorted(total.items()):
        if n < k:
            raise InsufficientCorpus(
                f"intent {corpus.label_space.intents[cid]!r} occurs in {n} samples, need >= {k}"
                if kind == "intent" else
                f"slot label {corpus.label_space.slot_labels[cid]!r} has "
                f"{n} word occurrences, need >= {k}"
            )

    have: Counter = Counter()
    below_k = len(total)
    selected: list[int] = []
    for idx in map(int, rng.permutation(len(corpus.samples))):
        selected.append(idx)
        for key in _classes(corpus.samples[idx]):
            have[key] += 1
            if have[key] == k:
                below_k -= 1
        if below_k == 0:
            break
    # prune to irreducibility
    candidates = list(selected)
    for idx in rng.permutation(len(candidates)):
        candidate = candidates[int(idx)]
        own = Counter(_classes(corpus.samples[candidate]))
        if all(have[key] - n >= k for key, n in own.items()):
            selected.remove(candidate)
            have.subtract(own)
    return [corpus.samples[i] for i in selected]


def build_episode(
    corpus: Corpus, k: int, query_size: int, rng: np.random.Generator
) -> Episode:
    """Build one episode: a K-shot support set plus a disjoint query set."""
    if query_size < 1:
        raise ValueError("query_size must be >= 1")
    support = build_support_set(corpus, k, rng)
    # value-level exclusion: duplicate utterances never leak into the query
    support_values = set(support)
    remaining = [s for s in corpus.samples if s not in support_values]
    if len(remaining) < query_size:
        raise InsufficientCorpus(
            f"corpus {corpus.domain_name!r} has {len(remaining)} samples left "
            f"after support selection, need {query_size} for the query set"
        )
    picks = rng.choice(len(remaining), size=query_size, replace=False)
    query = [remaining[int(i)] for i in picks]

    ls = episode_label_space(corpus.label_space, support)
    # support covers every occurring corpus class, so queries always remap
    return Episode(
        support=tuple(remap(s, corpus.label_space, ls) for s in support),
        query=tuple(remap(s, corpus.label_space, ls) for s in query),
        label_space=ls,
        domain_name=corpus.domain_name,
    )


# --- synthetic corpus generation -----------------------------------------

_HEADS_PER_TYPE = 2
_CONTS_PER_INTENT = 2
_CARRIERS_PER_INTENT = 2
# filler phrase lengths cycle per slot type, guaranteeing both B- and I-
# occurrences grow linearly with the sample count
_LENGTH_CYCLE = (2, 1, 3)


def _domain_relation(rng: np.random.Generator, spec: SynthSpec, global_types: list[str]):
    """Assign each intent a disjoint set of slot types from the global pool."""
    picked = rng.permutation(len(global_types))[: spec.intents_per_domain * spec.slots_per_intent]
    per_intent = []
    for j in range(spec.intents_per_domain):
        chunk = picked[j * spec.slots_per_intent : (j + 1) * spec.slots_per_intent]
        per_intent.append(tuple(global_types[int(q)] for q in chunk))
    return per_intent


def _make_domain(
    rng: np.random.Generator,
    spec: SynthSpec,
    domain_idx: int,
    global_types: list[str],
    shared_pool: list[str],
    relation: list[tuple[str, ...]],
) -> Corpus:
    ipd, spi = spec.intents_per_domain, spec.slots_per_intent
    # a tight head pool forces head-token sharing across intents (within an
    # intent the slot types get disjoint heads), which is exactly the
    # ambiguity the relation mask can resolve and plain decoding cannot
    head_pool_size = spi * _HEADS_PER_TYPE + 1
    vocab_size = head_pool_size + ipd * _CONTS_PER_INTENT

    n_shared = round(spec.vocab_overlap * vocab_size)
    shared = [shared_pool[int(i)] for i in rng.choice(len(shared_pool), size=n_shared, replace=False)]
    private = [f"d{domain_idx:02d}w{n:03d}" for n in range(vocab_size - n_shared)]
    filler_vocab = shared + private
    filler_vocab = [filler_vocab[int(i)] for i in rng.permutation(vocab_size)]

    head_pool = filler_vocab[:head_pool_size]
    cont_area = filler_vocab[head_pool_size:]

    intent_names = [f"d{domain_idx:02d}_int{j}" for j in range(ipd)]
    domain_types = [t for types in relation for t in types]
    heads = {}
    for j, types in enumerate(relation):
        picks = rng.choice(len(head_pool), size=len(types) * _HEADS_PER_TYPE, replace=False)
        for n, t in enumerate(types):
            heads[t] = [
                head_pool[int(i)]
                for i in picks[n * _HEADS_PER_TYPE : (n + 1) * _HEADS_PER_TYPE]
            ]
    conts = {
        j: cont_area[j * _CONTS_PER_INTENT : (j + 1) * _CONTS_PER_INTENT]
        for j in range(ipd)
    }
    carriers = {
        j: [f"d{domain_idx:02d}c{j}{n}" for n in range(_CARRIERS_PER_INTENT)]
        for j in range(ipd)
    }

    # templates: carrier tokens around one placeholder per related slot type
    templates: dict[int, list[list[str]]] = {}
    for j in range(ipd):
        templates[j] = []
        for _ in range(spec.template_count):
            elems = [carriers[j][int(rng.integers(_CARRIERS_PER_INTENT))]]
            for t in rng.permutation(len(relation[j])):
                elems.append("{" + relation[j][int(t)] + "}")
                if rng.random() < 0.5:
                    elems.append(carriers[j][int(rng.integers(_CARRIERS_PER_INTENT))])
            templates[j].append(elems)

    slot_labels = [O_LABEL]
    for t in domain_types:
        slot_labels += [f"B-{t}", f"I-{t}"]
    ls = LabelSpace(tuple(intent_names), tuple(slot_labels))

    length_cursor = {t: 0 for t in domain_types}
    samples = []
    for n in range(spec.samples_per_domain):
        j = n % ipd
        template = templates[j][int(rng.integers(len(templates[j])))]
        tokens: list[str] = []
        slots: list[int] = []
        for elem in template:
            if elem.startswith("{"):
                t = elem[1:-1]
                length = _LENGTH_CYCLE[length_cursor[t] % len(_LENGTH_CYCLE)]
                length_cursor[t] += 1
                tokens.append(heads[t][int(rng.integers(_HEADS_PER_TYPE))])
                slots.append(ls.slot_id(f"B-{t}"))
                for _ in range(length - 1):
                    tokens.append(conts[j][int(rng.integers(_CONTS_PER_INTENT))])
                    slots.append(ls.slot_id(f"I-{t}"))
            else:
                tokens.append(elem)
                slots.append(ls.o_id)
        samples.append(Sample(tuple(tokens), j, tuple(slots)))
    return Corpus(f"domain{domain_idx:02d}", tuple(samples), ls)


def generate_synthetic(spec: SynthSpec) -> tuple[list[Corpus], list[Corpus], list[Corpus]]:
    """Generate (source, dev, target) corpora, deterministic in spec.seed."""
    n_total = spec.n_source_domains + spec.n_dev_domains + spec.n_target_domains
    n_types = spec.intents_per_domain * spec.slots_per_intent
    global_types = [f"st{q:02d}" for q in range(max(n_types + 2, 8))]
    head_pool_size = spec.slots_per_intent * _HEADS_PER_TYPE + 1
    shared_pool = [
        f"gw{q:03d}" for q in range(head_pool_size + spec.intents_per_domain * _CONTS_PER_INTENT)
    ]

    root = np.random.SeedSequence(spec.seed)
    relation_rng = np.random.default_rng(root.spawn(1)[0])
    relations: list[list[tuple[str, ...]]] = []
    seen_signatures: set[tuple] = set()
    for _ in range(n_total):
        for _attempt in range(64):
            rel = _domain_relation(relation_rng, spec, global_types)
            signature = tuple(sorted(tuple(sorted(types)) for types in rel))
            if signature not in seen_signatures:
                seen_signatures.add(signature)
                break
        relations.append(rel)

    corpora = []
    for k in range(n_total):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(1, k)))
        corpora.append(_make_domain(rng, spec, k, global_types, shared_pool, relations[k]))
    n_s, n_d = spec.n_source_domains, spec.n_dev_domains
    return corpora[:n_s], corpora[n_s : n_s + n_d], corpora[n_s + n_d :]


# --- corpus file I/O ------------------------------------------------------
#
# Corpus files are labeled files (core.parse_labeled_records) with a
# "corpora" key and one "samples" array per record in place of support/query.


def serialize_corpora(corpora: Iterable[Corpus]) -> str:
    return serialize_labeled_records("corpora", (
        labeled_record(c.domain_name, c.label_space, samples=c.samples) for c in corpora
    ))


def parse_corpora(data: bytes | str, source: str = "<input>") -> list[Corpus]:
    """Parse a corpus file (UTF-8 JSON) into validated Corpus values."""
    return [
        Corpus(domain, samples["samples"], ls)
        for _, domain, ls, samples in parse_labeled_records(data, source, "corpora", ("samples",))
    ]


def load_corpus_file(path) -> list[Corpus]:
    with open(path, "rb") as fh:
        return parse_corpora(fh.read(), str(path))


def save_corpus_file(path, corpora: Iterable[Corpus]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_corpora(corpora))
