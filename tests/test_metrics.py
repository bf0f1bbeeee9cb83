"""Intent accuracy, span-level slot F1, and joint accuracy."""

import numpy as np
import pytest

from jmrm.core import LabelMismatch, LengthMismatch, Sample
from jmrm.metrics import EMPTY_METRICS, score

from conftest import conlleval_counts, conlleval_f1, make_sample, random_bio_strings


def ids(ls, labels: str):
    return [ls.slot_id(x) for x in labels.split()]


class TestScore:
    def test_all_correct(self, music_space):
        golds = [
            make_sample(music_space, "play the queen", "play_music", "O O B-artist"),
            make_sample(music_space, "book new york", "book_restaurant", "O B-city I-city"),
        ]
        preds = [(g.intent, list(g.slots)) for g in golds]
        m = score(preds, golds, music_space)
        assert (m.intent_acc, m.slot_f1, m.joint_acc) == (1.0, 1.0, 1.0)

    def test_boundary_exact_spans(self, music_space):
        gold = make_sample(music_space, "new york x", "book_restaurant", "B-city I-city O")
        pred = (gold.intent, ids(music_space, "B-city O O"))
        m = score([pred], [gold], music_space)
        assert m.n_correct_spans == 0
        assert m.slot_precision == 0.0 and m.slot_recall == 0.0 and m.slot_f1 == 0.0
        assert m.intent_acc == 1.0 and m.joint_acc == 0.0

    def test_joint_needs_exact_sequence(self, music_space):
        golds = [
            make_sample(music_space, "play queen", "play_music", "O B-artist"),
            make_sample(music_space, "book paris", "book_restaurant", "O B-city"),
        ]
        preds = [
            (golds[0].intent, list(golds[0].slots)),
            (golds[1].intent, ids(music_space, "O O")),
        ]
        m = score(preds, golds, music_space)
        assert m.intent_acc == 1.0
        assert m.joint_acc == 0.5

    def test_joint_bounded_by_components(self, music_space):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            golds, preds = [], []
            for _ in range(n):
                m_len = int(rng.integers(1, 6))
                gold_slots = [int(i) for i in rng.integers(0, music_space.n_slots, size=m_len)]
                pred_slots = [int(i) for i in rng.integers(0, music_space.n_slots, size=m_len)]
                gi = int(rng.integers(music_space.n_intents))
                pi = int(rng.integers(music_space.n_intents))
                golds.append(
                    make_sample_raw(tuple(f"t{j}" for j in range(m_len)), gi, tuple(gold_slots))
                )
                preds.append((pi, pred_slots))
            m = score(preds, golds, music_space)
            exact_seqs = sum(tuple(p[1]) == g.slots for p, g in zip(preds, golds))
            assert m.n_joint_correct <= m.n_intent_correct
            assert m.n_joint_correct <= exact_seqs

    def test_permutation_invariant(self, music_space):
        rng = np.random.default_rng(1)
        golds, preds = [], []
        for _ in range(8):
            m_len = int(rng.integers(1, 6))
            golds.append(make_sample_raw(
                tuple(f"t{j}" for j in range(m_len)),
                int(rng.integers(music_space.n_intents)),
                tuple(int(i) for i in rng.integers(0, music_space.n_slots, size=m_len)),
            ))
            preds.append((
                int(rng.integers(music_space.n_intents)),
                [int(i) for i in rng.integers(0, music_space.n_slots, size=m_len)],
            ))
        base = score(preds, golds, music_space)
        perm = list(rng.permutation(len(golds)))
        m = score([preds[i] for i in perm], [golds[i] for i in perm], music_space)
        assert m == base

    def test_length_mismatches(self, music_space):
        gold = make_sample(music_space, "a b", "play_music", "O O")
        with pytest.raises(LengthMismatch):
            score([], [gold], music_space)
        with pytest.raises(LengthMismatch):
            score([(0, [0])], [gold], music_space)

    def test_empty_is_null_with_zero_counts(self, music_space):
        m = score([], [], music_space)
        assert m == EMPTY_METRICS
        assert m.intent_acc is None and m.slot_f1 is None and m.joint_acc is None
        assert m.n_queries == 0

    def test_zero_token_sample_counts_as_exact(self, music_space):
        golds = [Sample((), 0, ()),
                 make_sample(music_space, "play queen", "play_music", "O B-artist"),
                 Sample((), 1, ())]
        preds = [(0, []), (0, ids(music_space, "O B-artist")), (0, [])]
        m = score(preds, golds, music_space)
        assert (m.n_queries, m.n_intent_correct, m.n_joint_correct) == (3, 2, 2)
        assert (m.n_gold_spans, m.n_pred_spans, m.n_correct_spans) == (1, 1, 1)

    def test_numpy_predictions_score_as_lists(self, music_space):
        golds = [
            make_sample(music_space, "play the queen", "play_music", "O B-artist I-artist"),
            make_sample(music_space, "book paris", "book_restaurant", "O B-city"),
        ]
        preds = [(0, ids(music_space, "O B-artist I-artist")), (1, ids(music_space, "B-city O"))]
        as_arrays = [(np.int64(y), np.array(path)) for y, path in preds]
        m = score(as_arrays, golds, music_space)
        assert m == score(preds, golds, music_space)
        assert all(type(v) is int for v in m.to_dict()["counts"].values())
        assert (m.n_joint_correct, m.n_correct_spans) == (1, 1)

    @pytest.mark.parametrize("bad", [-1, 5])
    @pytest.mark.parametrize("side", ["gold", "pred"])
    def test_slot_id_outside_label_space(self, music_space, bad, side):
        gold = make_sample(music_space, "play queen", "play_music", "O B-artist")
        slots = [music_space.o_id, bad]
        if side == "gold":
            gold = Sample(gold.tokens, gold.intent, slots)
            slots = list(gold.slots)
        with pytest.raises(LabelMismatch, match=r"slot ids must lie in \[0, 5\)"):
            score([(gold.intent, slots)], [gold], music_space)

    def test_f1_zero_when_no_spans(self, music_space):
        gold = make_sample(music_space, "a b", "play_music", "O O")
        m = score([(0, ids(music_space, "O O"))], [gold], music_space)
        assert m.slot_f1 == 0.0
        assert m.joint_acc == 1.0

    def test_merged_accumulates_counts(self, music_space):
        gold = make_sample(music_space, "play queen", "play_music", "O B-artist")
        m1 = score([(gold.intent, list(gold.slots))], [gold], music_space)
        merged = m1.merged(m1).merged(EMPTY_METRICS)
        assert merged.n_queries == 2
        assert merged.joint_acc == 1.0


class TestAgainstReferenceConlleval:
    def test_micro_f1_matches_reference_exactly(self, music_space):
        rng = np.random.default_rng(2)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            golds, preds = [], []
            gold_strs, pred_strs = [], []
            for _ in range(n):
                m_len = int(rng.integers(1, 9))
                g = random_bio_strings(rng, ["artist", "city"], m_len)
                p = random_bio_strings(rng, ["artist", "city"], m_len)
                gold_strs.append(g)
                pred_strs.append(p)
                golds.append(make_sample_raw(
                    tuple(f"t{j}" for j in range(m_len)), 0,
                    tuple(music_space.slot_id(x) for x in g),
                ))
                preds.append((0, [music_space.slot_id(x) for x in p]))
            m = score(preds, golds, music_space)
            correct, n_gold, n_pred = conlleval_counts(gold_strs, pred_strs)
            assert (m.n_correct_spans, m.n_gold_spans, m.n_pred_spans) == (
                correct, n_gold, n_pred
            )
            assert m.slot_f1 == conlleval_f1(gold_strs, pred_strs)


def make_sample_raw(tokens, intent, slots):
    from jmrm.core import Sample

    return Sample(tokens=tokens, intent=intent, slots=slots)
