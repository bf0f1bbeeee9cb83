"""Relation mask construction, BIO transition mask, and emission masking."""

import numpy as np
import pytest

from jmrm.core import LabelSpace, split_slot_label
from jmrm.masks import (
    NEG_INF,
    TransitionMask,
    all_ones_relation_mask,
    apply_relation_mask,
    build_relation_mask,
    build_transition_mask,
    permissive_transition_mask,
)

from conftest import make_sample


class TestRelationMask:
    def test_cooccurrence_sets_cell(self, music_space):
        support = [
            make_sample(music_space, "play madonna", "play_music", "O B-artist"),
            make_sample(music_space, "book paris", "book_restaurant", "O B-city"),
        ]
        rm = build_relation_mask(support, music_space)
        pm = music_space.intent_id("play_music")
        br = music_space.intent_id("book_restaurant")
        assert rm.rm[pm, music_space.slot_id("B-artist")]
        assert not rm.rm[pm, music_space.slot_id("B-city")]
        assert rm.rm[br, music_space.slot_id("B-city")]
        assert not rm.rm[br, music_space.slot_id("B-artist")]

    def test_o_forced_for_every_intent(self, music_space):
        support = [
            make_sample(music_space, "la la", "play_music", "B-artist I-artist"),
            make_sample(music_space, "paris", "book_restaurant", "B-city"),
        ]
        rm = build_relation_mask(support, music_space)
        assert rm.forced_o
        assert np.all(rm.rm[:, music_space.o_id])

    def test_force_o_off_records_cooccurrence_only(self, music_space):
        support = [
            make_sample(music_space, "la la", "play_music", "B-artist I-artist"),
            make_sample(music_space, "paris now", "book_restaurant", "B-city O"),
        ]
        rm = build_relation_mask(support, music_space, force_o=False)
        assert not rm.forced_o
        assert not rm.rm[music_space.intent_id("play_music"), music_space.o_id]
        assert rm.rm[music_space.intent_id("book_restaurant"), music_space.o_id]

    def test_all_o_support_row(self, music_space):
        support = [make_sample(music_space, "hmm well", "play_music", "O O"),
                   make_sample(music_space, "paris", "book_restaurant", "B-city")]
        rm = build_relation_mask(support, music_space)
        row = rm.rm[music_space.intent_id("play_music")]
        expected = np.zeros(music_space.n_slots, dtype=bool)
        expected[music_space.o_id] = True
        np.testing.assert_array_equal(row, expected)

    def test_permutation_invariant(self, music_space):
        rng = np.random.default_rng(0)
        support = [
            make_sample(music_space, "play madonna", "play_music", "O B-artist"),
            make_sample(music_space, "book paris", "book_restaurant", "O B-city"),
            make_sample(music_space, "x y z", "play_music", "B-artist I-artist O"),
        ]
        rm = build_relation_mask(support, music_space)
        for _ in range(10):
            perm = [support[int(i)] for i in rng.permutation(len(support))]
            np.testing.assert_array_equal(build_relation_mask(perm, music_space).rm, rm.rm)

    def test_empty_support_rejected(self, music_space):
        with pytest.raises(ValueError):
            build_relation_mask([], music_space)


def bio_allows(ls: LabelSpace, o1: int | None, o2: int) -> bool:
    """Independent statement of the BIO adjacency rule."""
    kind2, type2 = split_slot_label(ls.slot_labels[o2])
    if kind2 in ("O", "B"):
        return True
    if o1 is None:
        return False
    kind1, type1 = split_slot_label(ls.slot_labels[o1])
    return kind1 in ("B", "I") and type1 == type2


class TestTransitionMask:
    def test_quoted_examples(self, music_space):
        tm = build_transition_mask(music_space)
        b_art = music_space.slot_id("B-artist")
        i_art = music_space.slot_id("I-artist")
        b_city = music_space.slot_id("B-city")
        assert tm.trans[b_art, i_art] == 1.0
        assert tm.trans[music_space.o_id, i_art] == NEG_INF
        assert tm.trans[b_city, i_art] == NEG_INF

    def test_exhaustive_rule_oracle(self, music_space):
        tm = build_transition_mask(music_space)
        for o1 in range(music_space.n_slots):
            for o2 in range(music_space.n_slots):
                expected = 1.0 if bio_allows(music_space, o1, o2) else NEG_INF
                assert tm.trans[o1, o2] == expected
        for o in range(music_space.n_slots):
            expected = 1.0 if bio_allows(music_space, None, o) else NEG_INF
            assert tm.start[o] == expected

    def test_b_after_i_of_other_type_allowed(self, music_space):
        tm = build_transition_mask(music_space)
        assert tm.trans[music_space.slot_id("I-city"), music_space.slot_id("B-artist")] == 1.0

    def test_depends_only_on_names(self, music_space):
        other = LabelSpace(("different", "intents"), music_space.slot_labels)
        np.testing.assert_array_equal(
            build_transition_mask(other).trans, build_transition_mask(music_space).trans
        )

    def test_all_o_sequence_always_feasible(self, music_space):
        support = [make_sample(music_space, "la", "play_music", "B-artist"),
                   make_sample(music_space, "paris", "book_restaurant", "B-city")]
        rm = build_relation_mask(support, music_space)
        tm = build_transition_mask(music_space)
        o = music_space.o_id
        for intent in range(music_space.n_intents):
            assert rm.rm[intent, o]
            assert np.isfinite(tm.start[o]) and np.isfinite(tm.trans[o, o])


class TestTransitionMaskValidation:
    @pytest.mark.parametrize("bad", [0.5, np.nan, np.inf])
    @pytest.mark.parametrize("where", ["trans", "start"])
    def test_entries_must_be_one_or_neg_inf(self, where, bad):
        scores = {"trans": np.ones((3, 3)), "start": np.ones(3)}
        scores[where].flat[1] = bad
        with pytest.raises(ValueError, match=f"{where} entries"):
            TransitionMask(**scores)

    @pytest.mark.parametrize("trans, start", [((3, 2), (3,)), ((3, 3), (2,)),
                                              ((3, 3), (3, 1)), ((9,), (3,))])
    def test_shapes_must_be_square_and_matching(self, trans, start):
        with pytest.raises(ValueError, match="shapes"):
            TransitionMask(np.ones(trans), np.ones(start))

    def test_holds_read_only_copies(self, music_space):
        trans, start = np.ones((3, 3)), np.ones(3)
        tm = TransitionMask(trans, start)
        trans[0, 1] = start[0] = NEG_INF  # the caller's arrays are not the mask's
        assert tm.trans[0, 1] == 1.0 and tm.start[0] == 1.0
        tm = build_transition_mask(music_space)
        for name in ("trans", "start", "is_open", "closed_succ"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(tm, name)[0] = 0

    def test_derived_structure_is_read_only(self, music_space):
        tm = build_transition_mask(music_space)
        for name in ("closed_pred", "row_class", "row_rep"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(tm, name)[0] = 0


class TestApplyRelationMask:
    def test_identity_when_row_all_ones(self, music_space):
        rng = np.random.default_rng(1)
        f_o = rng.standard_normal((4, music_space.n_slots))
        rm = all_ones_relation_mask(music_space.n_intents, music_space.n_slots)
        np.testing.assert_array_equal(apply_relation_mask(f_o, rm, 0), f_o)

    def test_single_masked_column(self, music_space):
        rng = np.random.default_rng(2)
        f_o = rng.standard_normal((3, music_space.n_slots))
        rm = all_ones_relation_mask(music_space.n_intents, music_space.n_slots)
        rm.rm[1, 2] = False
        out = apply_relation_mask(f_o, rm, 1)
        assert np.all(out[:, 2] == NEG_INF)
        mask = np.ones(music_space.n_slots, dtype=bool)
        mask[2] = False
        np.testing.assert_array_equal(out[:, mask], f_o[:, mask])

    def test_random_elementwise_oracle(self, music_space):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = int(rng.integers(1, 6))
            f_o = rng.standard_normal((m, music_space.n_slots))
            rm = all_ones_relation_mask(music_space.n_intents, music_space.n_slots)
            rm.rm[:] = rng.random(rm.rm.shape) < 0.5
            intent = int(rng.integers(music_space.n_intents))
            out = apply_relation_mask(f_o, rm, intent)
            for i in range(m):
                for o in range(music_space.n_slots):
                    expected = f_o[i, o] if rm.rm[intent, o] else NEG_INF
                    assert out[i, o] == expected


def test_permissive_transition_mask_shape():
    tm = permissive_transition_mask(4)
    assert np.all(tm.trans == 1.0) and np.all(tm.start == 1.0)
