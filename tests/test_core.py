"""Core types, episode parsing, validation, and BIO span extraction."""

import json
import logging

import numpy as np
import pytest

from jmrm.core import (
    LabelMismatch,
    LabelSpace,
    LengthMismatch,
    MalformedInput,
    MalformedLabel,
    Sample,
    SlotSpan,
    bio_spans,
    parse_episodes,
    serialize_episodes,
    split_slot_label,
    validate_sample,
)
from jmrm.episodes import SynthSpec, build_episode, generate_synthetic

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
    def test_basic_span(self, music_space):
        slots = [music_space.slot_id(x) for x in ("B-city", "I-city", "O")]
        assert bio_spans(slots, music_space) == [SlotSpan("city", 0, 2)]

    def test_all_o(self, music_space):
        assert bio_spans([music_space.o_id] * 3, music_space) == []

    def test_conlleval_repair(self, music_space):
        slots = [music_space.slot_id(x) for x in ("I-artist", "I-artist", "B-artist")]
        assert bio_spans(slots, music_space) == [
            SlotSpan("artist", 0, 2),
            SlotSpan("artist", 2, 3),
        ]

    def test_spans_sorted_nonoverlapping_and_trailing_o_invariant(self, music_space):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            slots = [int(i) for i in rng.integers(0, music_space.n_slots, size=m)]
            spans = bio_spans(slots, music_space)
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start
            assert spans == bio_spans(slots + [music_space.o_id], music_space)

    def test_matches_reference_conlleval_extraction(self, music_space):
        # bio_spans applied to (gold, pred) pairs reproduces the reference
        # chunk counts, including the lenient I-repair
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = int(rng.integers(1, 8))
            gold = random_bio_strings(rng, ["artist", "city"], m)
            pred = random_bio_strings(rng, ["artist", "city"], m)
            gold_ids = [music_space.slot_id(x) for x in gold]
            pred_ids = [music_space.slot_id(x) for x in pred]
            gs = set(bio_spans(gold_ids, music_space))
            ps = set(bio_spans(pred_ids, music_space))
            correct, n_gold, n_pred = conlleval_counts([gold], [pred])
            assert (len(gs & ps), len(gs), len(ps)) == (correct, n_gold, n_pred)


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
        assert ls.slot_types == ("semi-colon", None, "semi-colon", "semi")
        assert ls.may_start.tolist() == [False, True, True, True]
        # I-semi-colon may follow only its own type: not O, not B-semi
        assert ls.may_follow[:, 0].tolist() == [True, False, True, False]
        assert ls.may_follow[:, 1:].all()
        for arr in (ls.may_start, ls.may_follow):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = True
