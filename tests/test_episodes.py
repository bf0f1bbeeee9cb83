"""Support-set construction, episode assembly, and the synthetic generator."""

import itertools
import json
import re
from collections import Counter

import numpy as np
import pytest

from jmrm.core import LabelSpace, MalformedInput, O_LABEL, Sample, split_slot_label, validate_sample
from jmrm.episodes import (
    Corpus,
    InsufficientCorpus,
    SynthSpec,
    build_episode,
    build_support_set,
    generate_synthetic,
    parse_corpora,
    serialize_corpora,
)

from conftest import make_sample


@pytest.fixture
def tiny_corpus():
    ls = LabelSpace(("intent0",), ("O", "B-a", "B-b"))
    samples = (
        make_sample(ls, "u1 x", "intent0", "B-a O"),
        make_sample(ls, "u2 x", "intent0", "B-b O"),
        make_sample(ls, "u3 x y", "intent0", "B-a B-b O"),
    )
    return Corpus("tiny", samples, ls)


class TestCorpus:
    def test_invalid_sample_rejected(self):
        ls = LabelSpace(("intent0",), ("O", "B-a"))
        samples = (make_sample(ls, "u1 x", "intent0", "B-a O"), Sample(("u2",), 3, (0,)))
        with pytest.raises(MalformedInput, match="corpus 'tiny' sample 1: unknown intent id 3"):
            Corpus("tiny", samples, ls)

    @pytest.mark.parametrize("key, labels, message", [
        ("intents", [], "label space needs at least one intent"),
        ("slot_labels", ["O", "B-a", "O"], "duplicate slot label names in label space"),
    ])
    def test_bad_label_space_in_a_file_reports_path(self, key, labels, message):
        record = {"domain": "tiny", "intents": ["intent0"], "slot_labels": ["O", "B-a"],
                  "samples": [], key: labels}
        with pytest.raises(MalformedInput, match=re.escape(f"<input>: $.corpora[0]: {message}")):
            parse_corpora(json.dumps({"corpora": [record]}))


def coverage_holds(samples, corpus, k):
    need_intents = Counter(s.intent for s in corpus.samples)
    need_slots = Counter(o for s in corpus.samples for o in s.slots)
    ints = Counter(s.intent for s in samples)
    slots = Counter(o for s in samples for o in s.slots)
    return all(ints[c] >= k for c in need_intents) and all(
        slots[c] >= k for c in need_slots
    )


class TestBuildSupportSet:
    def test_minimal_cover_membership(self, tiny_corpus):
        # oracle: enumerate all subsets satisfying coverage + irreducibility
        minimal_covers = []
        for r in range(1, 4):
            for combo in itertools.combinations(tiny_corpus.samples, r):
                if coverage_holds(combo, tiny_corpus, 1) and all(
                    not coverage_holds([s for s in combo if s is not t], tiny_corpus, 1)
                    for t in combo
                ):
                    minimal_covers.append(frozenset(combo))
        assert len(minimal_covers) == 2  # {u3} and {u1, u2}
        for seed in range(50):
            rng = np.random.default_rng(seed)
            support = frozenset(build_support_set(tiny_corpus, 1, rng))
            assert support in minimal_covers

    def test_unique_cover(self):
        ls = LabelSpace(("intent0",), ("O", "B-a", "B-b"))
        sample = make_sample(ls, "u x y", "intent0", "B-a B-b O")
        corpus = Corpus("one", (sample,), ls)
        rng = np.random.default_rng(0)
        assert build_support_set(corpus, 1, rng) == [sample]

    def test_insufficient_corpus_names_class(self):
        # B-b occurs once, so K=2 cannot be covered
        ls = LabelSpace(("intent0",), ("O", "B-a", "B-b"))
        corpus = Corpus(
            "thin",
            (
                make_sample(ls, "u1 x", "intent0", "B-a O"),
                make_sample(ls, "u2 x", "intent0", "B-b O"),
                make_sample(ls, "u3 x", "intent0", "B-a O"),
            ),
            ls,
        )
        with pytest.raises(InsufficientCorpus, match="B-b"):
            build_support_set(corpus, 2, np.random.default_rng(0))

    def test_word_occurrences_count_per_token(self):
        # the only B-a source is one sample with two B-a words; K=2 is
        # coverable only if slot coverage counts word occurrences
        ls = LabelSpace(("intent0", "intent1"), ("O", "B-a"))
        s1 = make_sample(ls, "p q", "intent0", "B-a B-a")
        s2 = make_sample(ls, "r", "intent0", "O")
        s3 = make_sample(ls, "s", "intent1", "O")
        s4 = make_sample(ls, "t", "intent1", "O")
        corpus = Corpus("double", (s1, s2, s3, s4), ls)
        for seed in range(20):
            support = build_support_set(corpus, 2, np.random.default_rng(seed))
            assert s1 in support
            assert coverage_holds(support, corpus, 2)

    def test_minimality_property_random(self):
        spec = SynthSpec(n_source_domains=3, n_dev_domains=1, n_target_domains=1,
                         samples_per_domain=40, seed=9)
        corpora = [c for split in generate_synthetic(spec) for c in split]
        rng = np.random.default_rng(1)
        for corpus in corpora:
            for k in (1, 2, 5):
                support = build_support_set(corpus, k, rng)
                assert coverage_holds(support, corpus, k)
                for drop in support:
                    rest = [s for s in support if s is not drop]
                    assert not coverage_holds(rest, corpus, k)


class TestBuildEpisode:
    def test_query_size_zero_rejected(self, tiny_corpus):
        with pytest.raises(ValueError):
            build_episode(tiny_corpus, 1, 0, np.random.default_rng(0))

    def test_support_query_disjoint_over_seeds(self):
        spec = SynthSpec(n_source_domains=1, n_dev_domains=1, n_target_domains=1,
                         samples_per_domain=40, seed=4)
        corpus = generate_synthetic(spec)[0][0]
        for seed in range(100):
            ep = build_episode(corpus, 1, 5, np.random.default_rng(seed))
            assert not set(ep.support) & set(ep.query)

    def test_support_coverage_within_episode(self):
        spec = SynthSpec(n_source_domains=1, n_dev_domains=1, n_target_domains=1,
                         samples_per_domain=40, seed=4)
        corpus = generate_synthetic(spec)[0][0]
        for seed in range(30):
            k = 1 + seed % 3
            ep = build_episode(corpus, k, 5, np.random.default_rng(seed))
            slots = Counter(o for s in ep.support for o in s.slots)
            intents = Counter(s.intent for s in ep.support)
            for o in range(ep.label_space.n_slots):
                if ep.label_space.slot_labels[o] != O_LABEL:
                    assert slots[o] >= k
            for l in range(ep.label_space.n_intents):
                assert intents[l] >= k

    def test_episode_samples_validate(self, tiny_corpus):
        ep = build_episode(tiny_corpus, 1, 1, np.random.default_rng(3))
        for s in ep.support + ep.query:
            assert validate_sample(s, ep.label_space) == []

    def test_insufficient_for_query(self, tiny_corpus):
        with pytest.raises(InsufficientCorpus):
            build_episode(tiny_corpus, 1, 3, np.random.default_rng(0))


def strict_bio_valid(sample: Sample, ls: LabelSpace) -> bool:
    prev = None
    for sid in sample.slots:
        kind, typ = split_slot_label(ls.slot_labels[sid])
        if kind == "I" and (prev is None or prev[0] == "O" or prev[1] != typ):
            return False
        prev = (kind, typ)
    return True


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = SynthSpec(seed=123)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert serialize_corpora(a[0] + a[1] + a[2]) == serialize_corpora(b[0] + b[1] + b[2])

    def test_split_sizes(self):
        spec = SynthSpec(n_source_domains=4, n_dev_domains=2, n_target_domains=3, seed=0)
        source, dev, target = generate_synthetic(spec)
        assert (len(source), len(dev), len(target)) == (4, 2, 3)

    def test_zero_overlap_disjoint_fillers(self):
        spec = SynthSpec(n_source_domains=3, n_dev_domains=1, n_target_domains=2,
                         vocab_overlap=0.0, seed=8)
        corpora = [c for split in generate_synthetic(spec) for c in split]

        def fillers(c):
            return {
                tok
                for s in c.samples
                for tok, sid in zip(s.tokens, s.slots)
                if c.label_space.slot_labels[sid] != O_LABEL
            }

        sets = [fillers(c) for c in corpora]
        for a, b in itertools.combinations(sets, 2):
            assert not a & b

    def test_full_overlap_shares_fillers(self):
        spec = SynthSpec(n_source_domains=2, n_dev_domains=1, n_target_domains=1,
                         vocab_overlap=1.0, seed=8)
        corpora = [c for split in generate_synthetic(spec) for c in split]
        toks = [
            {t for s in c.samples for t in s.tokens if not t.startswith("d")}
            for c in corpora
        ]
        assert toks[0] & toks[1]

    def test_samples_valid_and_strictly_bio(self):
        spec = SynthSpec(n_source_domains=2, n_dev_domains=1, n_target_domains=1, seed=5)
        for split in generate_synthetic(spec):
            for corpus in split:
                for s in corpus.samples:
                    assert validate_sample(s, corpus.label_space) == []
                    assert strict_bio_valid(s, corpus.label_space)

    def test_distinct_relations_across_domains(self):
        spec = SynthSpec(n_source_domains=5, n_dev_domains=2, n_target_domains=3, seed=2)
        corpora = [c for split in generate_synthetic(spec) for c in split]
        signatures = set()
        for c in corpora:
            rel = {}
            for s in c.samples:
                types = {
                    split_slot_label(c.label_space.slot_labels[sid])[1]
                    for sid in s.slots
                    if c.label_space.slot_labels[sid] != O_LABEL
                }
                rel.setdefault(s.intent, set()).update(types)
            signatures.add(tuple(sorted(tuple(sorted(v)) for v in rel.values())))
        assert len(signatures) == len(corpora)

    def test_corpus_file_round_trip(self):
        spec = SynthSpec(n_source_domains=2, n_dev_domains=1, n_target_domains=1, seed=7)
        source, _, _ = generate_synthetic(spec)
        text = serialize_corpora(source)
        assert parse_corpora(text) == source

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            SynthSpec(n_source_domains=0)
        with pytest.raises(ValueError):
            SynthSpec(vocab_overlap=1.5)
