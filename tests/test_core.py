"""Core types, episode parsing, validation, and the BIO span rule."""

import json
import logging
import pickle
import re

import numpy as np
import pytest

from jmrm.core import (
    LabelMismatch,
    LabelSpace,
    LengthMismatch,
    MalformedInput,
    MalformedLabel,
    Sample,
    parse_episodes,
    serialize_episodes,
    split_slot_label,
    validate_sample,
)
from jmrm.episodes import SynthSpec, build_episode, generate_synthetic
from jmrm.metrics import score

from conftest import conlleval_counts, make_sample, random_bio_strings


MINIMAL_FILE = {
    "episodes": [
        {
            "domain": "music",
            "intents": ["play_music"],
            "slot_labels": ["O", "B-track"],
            "support": [
                {"tokens": ["play", "hello"], "intent": "play_music", "slots": ["O", "B-track"]}
            ],
            "query": [],
        }
    ]
}


class TestParse:
    def test_minimal_file(self):
        eps = parse_episodes(json.dumps(MINIMAL_FILE))
        assert len(eps) == 1
        ep = eps[0]
        assert ep.label_space.n_intents == 1
        assert ep.label_space.n_slots == 2
        assert ep.domain_name == "music"
        assert ep.query == ()
        assert ep.support[0].tokens == ("play", "hello")

    def test_length_mismatch(self):
        bad = json.loads(json.dumps(MINIMAL_FILE))
        bad["episodes"][0]["support"][0]["slots"] = ["O"]
        with pytest.raises(LengthMismatch):
            parse_episodes(json.dumps(bad))

    def test_unknown_label_in_sample(self):
        bad = json.loads(json.dumps(MINIMAL_FILE))
        bad["episodes"][0]["support"][0]["slots"] = ["O", "B-city"]
        with pytest.raises(LabelMismatch):
            parse_episodes(json.dumps(bad))

    def test_query_label_outside_declared_space(self):
        bad = json.loads(json.dumps(MINIMAL_FILE))
        bad["episodes"][0]["query"] = [
            {"tokens": ["x"], "intent": "rate_book", "slots": ["O"]}
        ]
        with pytest.raises(LabelMismatch):
            parse_episodes(json.dumps(bad))

    def test_declared_label_unused_in_support(self):
        bad = json.loads(json.dumps(MINIMAL_FILE))
        bad["episodes"][0]["slot_labels"] = ["O", "B-track", "B-artist"]
        with pytest.raises(MalformedInput, match=r"\$\.episodes\[0\]: .*\['B-artist'\]"):
            parse_episodes(json.dumps(bad))

    @pytest.mark.parametrize("key, labels, message", [
        ("intents", [], "label space needs at least one intent"),
        ("slot_labels", ["O", "B-track", "B-track"], "duplicate slot label names in label space"),
    ])
    def test_bad_label_space_reports_path(self, key, labels, message):
        bad = json.loads(json.dumps(MINIMAL_FILE))
        bad["episodes"][0][key] = labels
        with pytest.raises(MalformedInput, match=re.escape(f"<input>: $.episodes[0]: {message}")):
            parse_episodes(json.dumps(bad))

    def test_schema_violation_reports_path(self):
        bad = json.loads(json.dumps(MINIMAL_FILE))
        del bad["episodes"][0]["support"]
        with pytest.raises(MalformedInput, match=r"\$\.episodes\[0\]"):
            parse_episodes(json.dumps(bad))

    def test_empty_support_rejected(self):
        bad = json.loads(json.dumps(MINIMAL_FILE))
        bad["episodes"][0]["support"] = []
        with pytest.raises(MalformedInput, match="non-empty"):
            parse_episodes(json.dumps(bad))

    def test_bad_slot_label_grammar(self):
        bad = json.loads(json.dumps(MINIMAL_FILE))
        bad["episodes"][0]["slot_labels"] = ["O", "Track"]
        with pytest.raises(MalformedInput):
            parse_episodes(json.dumps(bad))

    def test_not_json(self):
        with pytest.raises(MalformedInput):
            parse_episodes(b"not json at all {")

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_numbers_rejected(self, number):
        with pytest.raises(MalformedInput, match=f"<input>: not valid JSON: {number} is not"):
            parse_episodes(f'{{"episodes": [], "x": {number}}}'.encode())

    def test_round_trip_on_generated_episodes(self):
        spec = SynthSpec(n_source_domains=2, n_dev_domains=1, n_target_domains=1,
                         samples_per_domain=30, seed=42)
        source, dev, target = generate_synthetic(spec)
        rng = np.random.default_rng(0)
        episodes = [build_episode(c, 2, 4, rng) for c in source + dev + target]
        text = serialize_episodes(episodes)
        reparsed = parse_episodes(text)
        assert reparsed == episodes
        # serialization itself is stable
        assert serialize_episodes(reparsed) == text


class TestValidateSample:
    def test_ok(self, music_space):
        s = make_sample(music_space, "play madonna", "play_music", "O B-artist")
        assert validate_sample(s, music_space) == []

    def test_gold_bio_violation_is_warning_not_error(self, music_space, caplog):
        s = Sample(tokens=("paris",), intent=0, slots=(music_space.slot_id("I-city"),))
        with caplog.at_level(logging.WARNING, logger="jmrm.core"):
            assert validate_sample(s, music_space) == []
        assert any("BIO anomaly" in r.message for r in caplog.records)

    def test_unknown_intent(self, music_space):
        s = Sample(tokens=("x",), intent=music_space.n_intents, slots=(0,))
        report = validate_sample(s, music_space)
        assert any("unknown intent" in v for v in report)

    def test_length_mismatch_reported(self, music_space):
        s = Sample(tokens=("a", "b"), intent=0, slots=(0,))
        assert any("length mismatch" in v for v in validate_sample(s, music_space))

    def test_empty_tokens_reported(self, music_space):
        s = Sample(tokens=(), intent=0, slots=())
        assert any("empty" in v for v in validate_sample(s, music_space))


class TestBioSpans:
    """The label space's lenient BIO span rule, as metrics.score counts it:
    (correct, gold, predicted) spans of one query."""

    @staticmethod
    def counts(ls, gold, pred) -> tuple[int, int, int]:
        m = score([(0, pred)], [Sample(("w",) * len(gold), 0, tuple(gold))], ls)
        return m.n_correct_spans, m.n_gold_spans, m.n_pred_spans

    @staticmethod
    def ids(ls, labels: str) -> list[int]:
        return [ls.slot_id(x) for x in labels.split()]

    def test_basic_span(self, music_space):
        gold = self.ids(music_space, "B-city I-city O")
        assert self.counts(music_space, gold, gold) == (1, 1, 1)
        # the one span is city [0, 2): another end or type does not match it
        for pred in ("B-city O O", "B-city I-city I-city", "B-artist I-artist O"):
            assert self.counts(music_space, gold, self.ids(music_space, pred)) == (0, 1, 1)

    def test_all_o(self, music_space):
        o = [music_space.o_id] * 3
        assert self.counts(music_space, o, o) == (0, 0, 0)

    def test_conlleval_repair(self, music_space):
        # an I-artist that opens the sequence opens a span: artist [0, 2), artist [2, 3)
        gold = self.ids(music_space, "I-artist I-artist B-artist")
        for pred, want in (("B-artist I-artist B-artist", (2, 2, 2)),
                           ("I-artist B-artist B-artist", (1, 2, 3)),
                           ("B-artist I-artist I-artist", (0, 2, 1))):
            assert self.counts(music_space, gold, self.ids(music_space, pred)) == want

    def test_spans_sorted_nonoverlapping_and_trailing_o_invariant(self, music_space):
        rng = np.random.default_rng(7)
        o = [music_space.o_id]
        for _ in range(200):
            m = int(rng.integers(1, 9))
            gold, pred = (rng.integers(0, music_space.n_slots, size=(2, m))).tolist()
            # a sequence matches each of its spans once, and opens at most one per token
            n_self, n_gold, n_pred = self.counts(music_space, gold, gold)
            assert n_self == n_gold == n_pred <= m
            counts = self.counts(music_space, gold, pred)
            assert counts == self.counts(music_space, gold + o, pred + o)

    def test_matches_reference_conlleval_extraction(self, music_space):
        # the span counts of (gold, pred) pairs reproduce the reference
        # chunk counts, including the lenient I-repair
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(1, 8))
            gold = random_bio_strings(rng, ["artist", "city"], m)
            pred = random_bio_strings(rng, ["artist", "city"], m)
            gold_ids = [music_space.slot_id(x) for x in gold]
            pred_ids = [music_space.slot_id(x) for x in pred]
            assert self.counts(music_space, gold_ids, pred_ids) == conlleval_counts([gold], [pred])


class TestLabelSpace:
    def test_requires_o(self):
        with pytest.raises(MalformedInput):
            LabelSpace(("a",), ("B-x",))

    def test_unique_names(self):
        with pytest.raises(MalformedInput):
            LabelSpace(("a", "a"), ("O",))

    def test_split_slot_label(self):
        assert split_slot_label("O") == ("O", None)
        assert split_slot_label("B-artist") == ("B", "artist")
        assert split_slot_label("I-semi-colon") == ("I", "semi-colon")
        with pytest.raises(MalformedLabel):
            split_slot_label("X-artist")
        with pytest.raises(MalformedLabel):
            split_slot_label("B-")

    def test_bio_rule_is_parsed_once_and_read_only(self):
        ls = LabelSpace(("a",), ("I-semi-colon", "O", "B-semi-colon", "B-semi"))
        assert ls.slot_types.tolist() == ["semi-colon", "", "semi-colon", "semi"]
        assert ls.may_start.tolist() == [False, True, True, True]
        # I-semi-colon may follow only its own type: not O, not B-semi
        assert ls.may_follow[:, 0].tolist() == [True, False, True, False]
        assert ls.may_follow[:, 1:].all()
        for arr in (ls.slot_types, ls.may_start, ls.may_follow):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = True

    @pytest.mark.parametrize("seed", range(20))
    def test_ids_are_tuple_indexes(self, seed):
        """The name-to-id maps give every name its index, in shuffled BIO
        spaces, and an unknown name raises LabelMismatch as before."""
        rng = np.random.default_rng(seed)
        types = [f"t{k}" for k in range(int(rng.integers(0, 6)))]
        slots = ["O"] + [f"{p}-{t}" for t in types for p in "BI" if rng.random() < 0.8]
        ls = LabelSpace(tuple(f"intent{k}" for k in rng.permutation(int(rng.integers(1, 5)))),
                        tuple(rng.permutation(slots)))
        assert [ls.intent_id(x) for x in ls.intents] == [ls.intents.index(x) for x in ls.intents]
        assert [ls.slot_id(x) for x in ls.slot_labels] == [ls.slot_labels.index(x) for x in ls.slot_labels]
        assert ls.o_id == ls.slot_labels.index("O")
        for bad in ("B-zz", "o", ""):
            with pytest.raises(LabelMismatch, match=f"^unknown slot label {bad!r}$"):
                ls.slot_id(bad)
        with pytest.raises(LabelMismatch, match="^unknown intent 'intent9'$"):
            ls.intent_id("intent9")
        with pytest.raises(TypeError):
            ls.slot_ids["O"] = 1  # read-only
        copy = pickle.loads(pickle.dumps(ls))  # rebuilds the maps
        assert copy == ls and copy.slot_ids == ls.slot_ids and copy.intent_ids == ls.intent_ids
