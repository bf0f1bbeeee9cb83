"""Exact joint inference: scores, partition, gradients, and Viterbi."""

import itertools
import math
import re

import numpy as np
import pytest

import jmrm
from jmrm.core import LabelSpace, split_slot_label
from jmrm.lattice import (
    InfeasibleGold,
    InfeasibleLattice,
    JointScoreInputs,
    NonFiniteScores,
    joint_score,
    log_partition,
    logsumexp,
    loss_gradients,
    nll_loss,
    viterbi_decode,
)
from jmrm.masks import (
    NEG_INF,
    RelationMask,
    TransitionMask,
    all_ones_relation_mask,
    apply_relation_mask,
    build_transition_mask,
    permissive_transition_mask,
)
from jmrm.oracles import random_instance

from conftest import SNIPS_SPACE, bio_space


def brute_force(jin):
    """Minimal in-test enumeration, independent of jmrm.oracles."""
    scores = {}
    for y in range(jin.n_intents):
        for t in itertools.product(range(jin.n_slots), repeat=jin.n_positions):
            r = jin.lam * jin.f_l[y]
            prev = None
            for i, o in enumerate(t):
                r += jin.f_o[i, o] if jin.rm.rm[y, o] else NEG_INF
                r += jin.tm.start[o] if prev is None else jin.tm.trans[prev, o]
                prev = o
            scores[(y, t)] = r
    return scores


def open_inputs(f_l, f_o, lam=1.0):
    y, t = len(f_l), f_o.shape[1]
    return JointScoreInputs(
        f_l, f_o, all_ones_relation_mask(y, t), permissive_transition_mask(t), lam
    )


class TestJointScore:
    def test_single_position_expansion(self):
        f_l = np.array([0.7, -0.2])
        f_o = np.array([[1.5, -3.0]])
        jin = open_inputs(f_l, f_o)
        for y in range(2):
            for t1 in range(2):
                assert joint_score(y, [t1], jin) == pytest.approx(
                    f_l[y] + f_o[0, t1] + 1.0
                )

    def test_masked_slot_gives_neg_inf(self):
        f_l = np.zeros(2)
        f_o = np.zeros((2, 3))
        rm = all_ones_relation_mask(2, 3)
        rm.rm[0, 2] = False
        jin = JointScoreInputs(f_l, f_o, rm, permissive_transition_mask(3), 1.0)
        assert joint_score(0, [0, 2], jin) == NEG_INF
        assert joint_score(1, [0, 2], jin) > NEG_INF

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            jin = random_instance(rng)
            ref = brute_force(jin)
            for (y, t), r in ref.items():
                got = joint_score(y, np.array(t), jin)
                if r == NEG_INF:
                    assert got == NEG_INF
                else:
                    assert got == pytest.approx(r, rel=1e-12)

    def test_length_checked(self):
        jin = open_inputs(np.zeros(1), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            joint_score(0, [0], jin)


class TestLogPartition:
    def test_symmetric_uniform_case(self):
        # Y=1, T=2, m=2, zero emissions, all transitions open: every one of
        # the 4 sequences scores 2 (START + one internal transition), so
        # log Z = log 4 + 2 and each sequence has probability 1/4
        jin = open_inputs(np.zeros(1), np.zeros((2, 2)))
        post = log_partition(jin)
        assert post.log_z == pytest.approx(math.log(4) + 2.0, abs=1e-12)
        for t in itertools.product(range(2), repeat=2):
            p = math.exp(joint_score(0, np.array(t), jin) - post.log_z)
            assert p == pytest.approx(0.25, abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            jin = random_instance(rng)
            post = log_partition(jin)
            ref = brute_force(jin)
            finite = [r for r in ref.values() if r > NEG_INF]
            mx = max(finite)
            log_z = mx + math.log(sum(math.exp(r - mx) for r in finite))
            assert post.log_z == pytest.approx(log_z, rel=1e-9)
            q = np.zeros(jin.n_intents)
            for (y, _), r in ref.items():
                if r > NEG_INF:
                    q[y] += math.exp(r - log_z)
            np.testing.assert_allclose(post.intent_marginals, q, atol=1e-9)

    def test_posterior_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            jin = random_instance(rng)
            post = log_partition(jin)
            assert post.intent_marginals.sum() == pytest.approx(1.0, abs=1e-9)
            for y in range(jin.n_intents):
                sums = post.slot_unary_marginals[y].sum(axis=1)
                np.testing.assert_allclose(sums, post.intent_marginals[y], atol=1e-9)
                masked = ~jin.rm.rm[y]
                assert np.all(post.slot_unary_marginals[y][:, masked] == 0.0)

    def test_monotone_masking_never_decreases_log_z(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            jin = random_instance(rng)
            zeros = np.argwhere(~jin.rm.rm)
            if len(zeros) == 0:
                continue
            y, o = zeros[int(rng.integers(len(zeros)))]
            before = log_partition(jin).log_z
            rm2 = jin.rm.rm.copy()
            rm2[y, o] = True
            jin2 = JointScoreInputs(jin.f_l, jin.f_o, RelationMask(rm2, True), jin.tm, jin.lam)
            assert log_partition(jin2).log_z >= before - 1e-12

    @staticmethod
    def long_large_scale(tied):
        """m=200 at emission scale 1e4, Y=7, T=79: exp of the raw scores
        would overflow, and with tied emissions every path is a tied term."""
        rng = np.random.default_rng(19)
        t_n, m = SNIPS_SPACE.n_slots, 200
        rm = rng.random((7, t_n)) < 0.3
        rm[:, 0] = True
        f_l = 1e4 * (np.ones(7) if tied else rng.standard_normal(7))
        f_o = 1e4 * (np.ones((m, t_n)) if tied else rng.standard_normal((m, t_n)))
        return JointScoreInputs(f_l, f_o, RelationMask(rm, True), build_transition_mask(SNIPS_SPACE))

    @pytest.mark.parametrize("tied", [False, True], ids=["random", "tied"])
    def test_long_sequences_at_large_scale_stay_finite(self, tied):
        post = log_partition(self.long_large_scale(tied))
        assert np.isfinite(post.log_z)
        assert np.all(np.isfinite(post.slot_unary_marginals))
        assert post.intent_marginals.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("tied", [False, pytest.param(True, marks=pytest.mark.xfail(
        strict=True, reason="log Z is about 2e6 here, and the unscaled forward and backward "
        "scores carry its rounding: the tied slices miss q(y) by up to 5.7e-9"))],
        ids=["random", "tied"])
    def test_long_sequences_at_large_scale_marginal_slices_sum_to_q(self, tied):
        post = log_partition(self.long_large_scale(tied))
        sums = post.slot_unary_marginals.sum(axis=2)  # (Y, m): each (y, i) slice
        np.testing.assert_allclose(sums, np.broadcast_to(post.intent_marginals[:, None], sums.shape),
                                   rtol=0, atol=1e-9)

    def test_extreme_magnitudes_no_nan(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            jin = random_instance(rng, emission_scale=1e6)
            post = log_partition(jin)
            assert np.isfinite(post.log_z)
            assert not np.any(np.isnan(post.intent_marginals))
            assert not np.any(np.isnan(post.slot_unary_marginals))
            y, t, s = viterbi_decode(jin)
            assert np.isfinite(s)


class TestY1CrfEquivalence:
    def test_slot_marginals_match_standalone_crf(self):
        # with a single intent the model is a masked linear-chain CRF
        def crf_forward_backward(emit, trans, start):
            m, t = emit.shape
            alpha = np.zeros((m, t))
            alpha[0] = start + emit[0]
            for i in range(1, m):
                for o in range(t):
                    alpha[i, o] = logsumexp(alpha[i - 1] + trans[:, o], axis=0) + emit[i, o]
            beta = np.zeros((m, t))
            for i in range(m - 2, -1, -1):
                for o in range(t):
                    beta[i, o] = logsumexp(trans[o] + emit[i + 1] + beta[i + 1], axis=0)
            log_z = logsumexp(alpha[-1], axis=0)
            with np.errstate(invalid="ignore"):
                marg = np.exp(alpha + beta - log_z)
            return log_z, np.nan_to_num(marg, nan=0.0)

        rng = np.random.default_rng(5)
        for _ in range(25):
            jin = random_instance(rng, max_intents=1)
            post = log_partition(jin)
            emit = np.where(jin.rm.rm[0][None, :], jin.f_o, NEG_INF)
            log_z_slot, marg = crf_forward_backward(emit, jin.tm.trans, jin.tm.start)
            assert post.intent_marginals[0] == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(post.slot_unary_marginals[0], marg, atol=1e-9)


class TestNllLoss:
    def test_degenerate_single_configuration(self):
        ls = LabelSpace(("only",), ("O",))
        jin = JointScoreInputs(
            np.array([1.3]), np.array([[0.4], [0.2], [-1.0]]),
            all_ones_relation_mask(1, 1), build_transition_mask(ls), 1.0,
        )
        loss, _ = nll_loss(0, np.array([0, 0, 0]), jin)
        assert loss == 0.0

    def test_nan_loss_is_not_clamped(self):
        # scores this large overflow log Z and R(gold) under the errstate
        # `jmrm train` runs in; the loss must say so, so train() stops on it
        ls = LabelSpace(("only",), ("O", "B-x", "I-x"))
        jin = JointScoreInputs(np.zeros(1), np.full((3, 3), 1e308),
                               all_ones_relation_mask(1, 3), build_transition_mask(ls), 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            loss, post = nll_loss(0, np.array([0, 0, 0]), jin)
        assert not math.isfinite(post.log_z)
        assert math.isnan(loss)

    def test_matches_brute_force_probability(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            jin = random_instance(rng)
            ref = brute_force(jin)
            feasible = [pair for pair, r in ref.items() if r > NEG_INF]
            gold = feasible[int(rng.integers(len(feasible)))]
            loss, _ = nll_loss(gold[0], np.array(gold[1]), jin)
            finite = [r for r in ref.values() if r > NEG_INF]
            mx = max(finite)
            log_z = mx + math.log(sum(math.exp(r - mx) for r in finite))
            p_gold = math.exp(ref[gold] - log_z)
            assert loss == pytest.approx(-math.log(p_gold), rel=1e-9, abs=1e-9)
            assert loss >= 0.0

    def test_infeasible_gold_raises(self):
        f_l = np.zeros(1)
        f_o = np.zeros((1, 2))
        rm = all_ones_relation_mask(1, 2)
        rm.rm[0, 1] = False
        jin = JointScoreInputs(f_l, f_o, rm, permissive_transition_mask(2), 1.0)
        with pytest.raises(InfeasibleGold):
            nll_loss(0, np.array([1]), jin)

    def test_raising_gold_intent_score_lowers_loss(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            jin = random_instance(rng, max_intents=3)
            if jin.n_intents < 2:
                continue
            post = log_partition(jin)
            gold_y = int(np.argmin(post.intent_marginals))
            # the all-O sequence is always feasible under the forced-O mask
            gold_t = tuple([0] * jin.n_positions)
            if joint_score(gold_y, np.array(gold_t), jin) == NEG_INF:
                continue
            loss1, _ = nll_loss(gold_y, np.array(gold_t), jin)
            f_l2 = jin.f_l.copy()
            f_l2[gold_y] += 0.5
            jin2 = JointScoreInputs(f_l2, jin.f_o, jin.rm, jin.tm, jin.lam)
            loss2, _ = nll_loss(gold_y, np.array(gold_t), jin2)
            if post.intent_marginals[gold_y] < 1.0 and jin.lam > 0:
                assert loss2 < loss1


class TestLossGradients:
    def test_certain_model_zero_gradients(self):
        ls = LabelSpace(("only",), ("O",))
        jin = JointScoreInputs(
            np.array([0.9]), np.array([[2.0], [1.0]]),
            all_ones_relation_mask(1, 1), build_transition_mask(ls), 1.0,
        )
        loss, post = nll_loss(0, np.array([0, 0]), jin)
        d_fl, d_fo = loss_gradients(0, np.array([0, 0]), post, jin)
        np.testing.assert_allclose(d_fl, 0.0, atol=1e-15)
        np.testing.assert_allclose(d_fo, 0.0, atol=1e-15)

    def test_intent_gradient_sums_to_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            jin = random_instance(rng)
            ref = brute_force(jin)
            feasible = [pair for pair, r in ref.items() if r > NEG_INF]
            gold = feasible[int(rng.integers(len(feasible)))]
            _, post = nll_loss(gold[0], np.array(gold[1]), jin)
            d_fl, d_fo = loss_gradients(gold[0], np.array(gold[1]), post, jin)
            assert d_fl.sum() == pytest.approx(0.0, abs=1e-12)
            # cells masked under every intent get no partition mass, so the
            # gradient there is at most the (negative) gold indicator
            masked_everywhere = ~np.any(jin.rm.rm, axis=0)
            assert np.all(d_fo[:, masked_everywhere] <= 0.0)

    def test_finite_difference_spot_check(self):
        rng = np.random.default_rng(9)
        step = 1e-5
        jin = random_instance(rng)
        ref = brute_force(jin)
        feasible = [pair for pair, r in ref.items() if r > NEG_INF]
        gold = feasible[0]
        _, post = nll_loss(gold[0], np.array(gold[1]), jin)
        d_fl, d_fo = loss_gradients(gold[0], np.array(gold[1]), post, jin)
        for y in range(jin.n_intents):
            up = jin.f_l.copy(); up[y] += step
            down = jin.f_l.copy(); down[y] -= step
            fd = (
                nll_loss(gold[0], np.array(gold[1]), JointScoreInputs(up, jin.f_o, jin.rm, jin.tm, jin.lam))[0]
                - nll_loss(gold[0], np.array(gold[1]), JointScoreInputs(down, jin.f_o, jin.rm, jin.tm, jin.lam))[0]
            ) / (2 * step)
            assert d_fl[y] == pytest.approx(fd, abs=1e-6)


class TestViterbi:
    def test_masked_label_never_decoded(self, music_space):
        # emissions scream B-city, but the gold intent's relation row bans it
        t_n = music_space.n_slots
        f_l = np.array([5.0, -5.0])
        f_o = np.full((3, t_n), -1.0)
        f_o[:, music_space.slot_id("B-city")] = 10.0
        rm = all_ones_relation_mask(2, t_n)
        rm.rm[0, music_space.slot_id("B-city")] = False
        rm.rm[0, music_space.slot_id("I-city")] = False
        jin = JointScoreInputs(f_l, f_o, rm, build_transition_mask(music_space), 1.0)
        y, path, score = viterbi_decode(jin)
        ref = brute_force(jin)
        best = max((r, pair) for pair, r in ref.items() if r > NEG_INF)
        assert (y, tuple(int(o) for o in path)) == best[1]
        if y == 0:
            assert music_space.slot_id("B-city") not in set(int(o) for o in path)

    def test_bio_validity_by_construction(self, music_space):
        rng = np.random.default_rng(10)
        tm = build_transition_mask(music_space)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            f_l = rng.uniform(-5, 5, size=2)
            f_o = rng.uniform(-5, 5, size=(m, music_space.n_slots))
            rm = all_ones_relation_mask(2, music_space.n_slots)
            jin = JointScoreInputs(f_l, f_o, rm, tm, 1.0)
            _, path, _ = viterbi_decode(jin)
            assert np.isfinite(tm.start[path[0]])
            for i in range(1, m):
                assert np.isfinite(tm.trans[path[i - 1], path[i]])

    def test_matches_enumeration_with_tie_breaking(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            jin = random_instance(rng)
            y, path, score = viterbi_decode(jin)
            ref = brute_force(jin)
            best_pair, best_score = None, NEG_INF
            for yy in range(jin.n_intents):
                for t in itertools.product(range(jin.n_slots), repeat=jin.n_positions):
                    r = ref[(yy, t)]
                    if r > best_score:
                        best_score, best_pair = r, (yy, t)
            assert (y, tuple(int(o) for o in path)) == best_pair

    def test_exact_ties_break_lexicographically(self):
        # fully symmetric instance: scores tie across intents and sequences
        ls = LabelSpace(("a", "b"), ("O", "B-x"))
        jin = JointScoreInputs(
            np.zeros(2), np.zeros((3, 2)),
            all_ones_relation_mask(2, 2), build_transition_mask(ls), 1.0,
        )
        y, path, _ = viterbi_decode(jin)
        assert y == 0
        assert list(path) == [0, 0, 0]

    def test_score_matches_joint_score_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            jin = random_instance(rng)
            y, path, score = viterbi_decode(jin)
            assert score == joint_score(y, path, jin)


class TestShiftInvariance:
    def test_intent_and_row_shifts(self):
        rng = np.random.default_rng(13)
        c = 3.7
        for _ in range(25):
            jin = random_instance(rng)
            post = log_partition(jin)
            y, path, _ = viterbi_decode(jin)

            jin_l = JointScoreInputs(jin.f_l + c, jin.f_o, jin.rm, jin.tm, jin.lam)
            post_l = log_partition(jin_l)
            assert post_l.log_z == pytest.approx(post.log_z + jin.lam * c, abs=1e-9)
            np.testing.assert_allclose(post_l.intent_marginals, post.intent_marginals, atol=1e-9)

            row = int(rng.integers(jin.n_positions))
            f_o2 = jin.f_o.copy()
            f_o2[row] += c
            jin_o = JointScoreInputs(jin.f_l, f_o2, jin.rm, jin.tm, jin.lam)
            post_o = log_partition(jin_o)
            assert post_o.log_z == pytest.approx(post.log_z + c, abs=1e-9)
            np.testing.assert_allclose(
                post_o.slot_unary_marginals, post.slot_unary_marginals, atol=1e-9
            )
            y2, path2, _ = viterbi_decode(jin_o)
            assert (y2, list(path2)) == (y, list(path))


class TestLogsumexp:
    def test_all_neg_inf(self):
        assert logsumexp(np.array([NEG_INF, NEG_INF]), axis=0) == NEG_INF

    def test_matrix_axis_with_masked_column(self):
        a = np.array([[0.0, NEG_INF], [1.0, NEG_INF]])
        out = logsumexp(a, axis=0)
        assert out[1] == NEG_INF
        assert out[0] == pytest.approx(np.logaddexp(0.0, 1.0))

    def test_singleton_exact(self):
        assert logsumexp(np.array([1.2345]), axis=0) == 1.2345

    def test_large_values_stable(self):
        a = np.array([1e6, 1e6 - 3.0])
        assert logsumexp(a, axis=0) == pytest.approx(1e6 + math.log(1 + math.exp(-3.0)))


class TestNonFiniteScores:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["f_l", "f_o"])
    def test_rejected_at_construction(self, where, bad):
        scores = {"f_l": np.zeros(2), "f_o": np.zeros((3, 2))}
        scores[where].flat[1] = bad
        with pytest.raises(NonFiniteScores, match=where):
            open_inputs(scores["f_l"], scores["f_o"])

    def test_typed_and_exported(self):
        assert jmrm.NonFiniteScores is NonFiniteScores
        assert issubclass(NonFiniteScores, ValueError)

    def test_large_finite_negatives_accepted(self):
        # L2 similarities of far-apart embeddings are large negative numbers
        rng = np.random.default_rng(14)
        jin = open_inputs(-1e6 * rng.random(2), -1e6 * rng.random((4, 3)))
        assert np.isfinite(log_partition(jin).log_z)
        y, path, score = viterbi_decode(jin)
        assert score == joint_score(y, path, jin) and np.isfinite(score)


class TestInputChecks:
    @pytest.mark.parametrize("f_l_shape, f_o_shape", [
        ((0,), (3, 2)), ((2,), (0, 3)), ((2,), (3, 0)), ((1, 2), (1, 0, 3)),
    ])
    def test_zero_size_rejected(self, f_l_shape, f_o_shape):
        rm, tm = all_ones_relation_mask(2, 3), permissive_transition_mask(3)
        with pytest.raises(ValueError, match=re.escape(
                f"f_l {f_l_shape} and f_o {f_o_shape} are not (Y,) and (m, T), nor (Q, Y) "
                "and (Q, m, T), with Y, m and T >= 1")):
            JointScoreInputs(np.zeros(f_l_shape), np.zeros(f_o_shape), rm, tm)

    def test_relation_mask_shape_checked(self):
        with pytest.raises(ValueError, match=re.escape("relation mask shape (3, 2) != (2, 2)")):
            JointScoreInputs(np.zeros(2), np.zeros((3, 2)), all_ones_relation_mask(3, 2),
                             permissive_transition_mask(2))

    def test_transition_mask_shape_checked(self):
        with pytest.raises(ValueError, match="transition mask shape mismatch"):
            JointScoreInputs(np.zeros(2), np.zeros((3, 2)), all_ones_relation_mask(2, 2),
                             permissive_transition_mask(3))

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_lam_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be finite"):
            open_inputs(np.zeros(2), np.zeros((3, 2)), lam=lam)


# --- dense per-intent reference recursions -----------------------------------
#
# Written position by position and intent by intent, over the dense (T, T)
# transition scores, independently of the sweeps in jmrm.lattice.  The
# enumeration oracles reach only tiny lattices; these pin SNIPS-sized ones.


def ref_forward(fe, tm):
    m, t = fe.shape
    alpha = np.empty((m, t))
    alpha[0] = tm.start + fe[0]
    for i in range(1, m):
        alpha[i] = logsumexp(alpha[i - 1][:, None] + tm.trans, axis=0) + fe[i]
    return alpha


def ref_backward(fe, tm):
    m, t = fe.shape
    beta = np.empty((m, t))
    beta[m - 1] = 0.0
    for i in range(m - 2, -1, -1):
        beta[i] = logsumexp(tm.trans + (fe[i + 1] + beta[i + 1])[None, :], axis=1)
    return beta


def ref_suffix_max(fe, tm):
    m, t = fe.shape
    sm = np.empty((m, t))
    sm[m - 1] = 0.0
    for i in range(m - 2, -1, -1):
        sm[i] = np.max(tm.trans + (fe[i + 1] + sm[i + 1])[None, :], axis=1)
    return sm


def ref_log_partition(jin):
    """(log Z, q, unary marginals); an infeasible intent gets zero mass."""
    y_n, m, t_n = jin.n_intents, jin.n_positions, jin.n_slots
    log_joint = np.empty(y_n)
    within = np.zeros((y_n, m, t_n))
    for y in range(y_n):
        fe = apply_relation_mask(jin.f_o, jin.rm, y)
        alpha = ref_forward(fe, jin.tm)
        log_z_slot = logsumexp(alpha[m - 1], axis=0)
        log_joint[y] = jin.lam * jin.f_l[y] + log_z_slot
        if log_z_slot > NEG_INF:
            within[y] = np.exp(alpha + ref_backward(fe, jin.tm) - log_z_slot)
    log_z = float(logsumexp(log_joint, axis=0))
    q = np.exp(log_joint - log_z)
    return log_z, q, q[:, None, None] * within


def ref_viterbi(jin):
    """Best pair; lowest intent, then lexicographically smallest path on ties."""
    best = None
    for y in range(jin.n_intents):
        fe = apply_relation_mask(jin.f_o, jin.rm, y)
        sm = ref_suffix_max(fe, jin.tm)
        cand0 = jin.tm.start + fe[0] + sm[0]
        total = jin.lam * jin.f_l[y] + np.max(cand0)
        if best is None or total > best[0]:
            best = (total, y, fe, sm, cand0)
    _, y, fe, sm, cand0 = best
    path = [int(np.argmax(cand0))]
    acc = jin.tm.start[path[0]] + fe[0, path[0]]
    for i in range(1, jin.n_positions):
        cand = acc + jin.tm.trans[path[-1]] + fe[i] + sm[i]
        path.append(int(np.argmax(cand)))
        acc = acc + jin.tm.trans[path[-2], path[-1]] + fe[i, path[-1]]
    return y, path, joint_score(y, np.array(path), jin)


class TestLargeInstancesAgainstReference:
    """Y=7, T=79 (SNIPS-shaped BIO space) against the dense reference."""

    @pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e3])
    @pytest.mark.parametrize("m", [12, 40])
    def test_partition_marginals_and_viterbi(self, m, scale, bio):
        rng = np.random.default_rng([m, int(scale), bio])
        t_n = SNIPS_SPACE.n_slots
        tm = build_transition_mask(SNIPS_SPACE) if bio else permissive_transition_mask(t_n)
        rm = rng.random((7, t_n)) < 0.3
        rm[:, 0] = True
        # the last intent may use I-type0 only: infeasible under BIO (an
        # I-label cannot open a sequence), feasible without it
        rm[-1] = False
        rm[-1, SNIPS_SPACE.slot_id("I-type0")] = True
        f_l = scale * rng.standard_normal(7)
        f_o = scale * rng.standard_normal((m, t_n))
        # integer-rounded copies make exact ties between paths and intents
        for fl, fo in ((f_l, f_o), (np.round(f_l), np.round(f_o))):
            jin = JointScoreInputs(fl, fo, RelationMask(rm, True), tm, 1.0)
            log_z, q, unary = ref_log_partition(jin)
            post = log_partition(jin)
            assert abs(post.log_z - log_z) <= 1e-12 * abs(log_z)
            np.testing.assert_allclose(post.intent_marginals, q, rtol=0, atol=1e-9)
            np.testing.assert_allclose(post.slot_unary_marginals, unary, rtol=0, atol=1e-9)
            if bio:
                assert np.all(post.slot_unary_marginals[-1] == 0.0)
            y, path, score = viterbi_decode(jin)
            assert (y, [int(o) for o in path], score) == ref_viterbi(jin)


@pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
@pytest.mark.parametrize("m", [1, 2, 3, 12, 40])
@pytest.mark.parametrize("t_n", [3, 9, 79])
@pytest.mark.parametrize("y_n", [1, 2, 7])
def test_viterbi_matches_dense_reference(y_n, t_n, m, bio):
    """(y, path, score) equal the dense recursion's at three scales, each
    also integer-rounded to make exact ties; m=1 runs no sweep step."""
    ls = bio_space(y_n, t_n)
    tm = build_transition_mask(ls) if bio else permissive_transition_mask(t_n)
    for scale in (1.0, 30.0, 1e3):
        rng = np.random.default_rng([y_n, t_n, m, bio, int(scale)])
        rm = rng.random((y_n, t_n)) < 0.3
        rm[:, 0] = True
        f_l = scale * rng.standard_normal(y_n)
        f_o = scale * rng.standard_normal((m, t_n))
        for fl, fo in ((f_l, f_o), (np.round(f_l), np.round(f_o))):
            jin = JointScoreInputs(fl, fo, RelationMask(rm, True), tm, 1.0)
            y, path, score = viterbi_decode(jin)
            assert (y, [int(o) for o in path], score) == ref_viterbi(jin)
            assert score == joint_score(y, path, jin)


def test_viterbi_on_masks_with_many_closed_columns():
    """Masks beyond BIO: no open column, and rows with several closed
    successors (K > 1); the diagonal keeps every constant path feasible."""
    rng = np.random.default_rng(15)
    no_open = many_closed = 0
    for _ in range(40):
        t_n, m = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        allowed = rng.random((t_n, t_n)) < rng.uniform(0.1, 0.9)
        np.fill_diagonal(allowed, True)
        tm = TransitionMask(np.where(allowed, 1.0, NEG_INF), np.ones(t_n))
        no_open += tm.open_cols.size == 0
        many_closed += tm.closed_succ.shape[1] > 2
        jin = JointScoreInputs(rng.standard_normal(3), np.round(rng.standard_normal((m, t_n))),
                               all_ones_relation_mask(3, t_n), tm, 1.0)
        y, path, score = viterbi_decode(jin)
        assert (y, [int(o) for o in path], score) == ref_viterbi(jin)
    assert no_open and many_closed


class TestTransitionStructure:
    """The open/closed form the max-plus sweep runs on."""

    def test_bio_open_columns_and_closed_successors(self):
        t_n = SNIPS_SPACE.n_slots
        tm = build_transition_mask(SNIPS_SPACE)
        kinds = [split_slot_label(name) for name in SNIPS_SPACE.slot_labels]
        opened = [o for o, (kind, _) in enumerate(kinds) if kind in ("O", "B")]
        assert tm.open_cols.tolist() == opened
        assert tm.closed_succ.shape == (t_n, 2)  # K = 1, then the sentinel
        for p, (kind, stype) in enumerate(kinds):
            if kind == "I":  # fed by B-X and I-X only
                feeders = {o for o in range(t_n) if p in tm.closed_succ[o]}
                assert feeders == {SNIPS_SPACE.slot_id(f"B-{stype}"), p}
        assert np.all(tm.closed_succ[SNIPS_SPACE.o_id] == t_n)

    def test_permissive_has_no_closed_column(self):
        tm = permissive_transition_mask(9)
        assert tm.open_cols.tolist() == list(range(9))
        assert tm.closed_succ.tolist() == [[9]] * 9

    def test_structure_rebuilds_the_dense_scores(self):
        rng = np.random.default_rng(16)
        for tm in (build_transition_mask(SNIPS_SPACE), permissive_transition_mask(5),
                   TransitionMask(np.where(rng.random((6, 6)) < 0.5, 1.0, NEG_INF), np.ones(6))):
            t_n = tm.start.shape[0]
            allowed = np.zeros((t_n, t_n + 1), dtype=bool)
            allowed[:, tm.open_cols] = True
            allowed[np.arange(t_n)[:, None], tm.closed_succ] = True
            assert np.array_equal(allowed[:, :t_n], tm.trans == 1.0)

    @staticmethod
    def masks():
        rng = np.random.default_rng(18)
        yield build_transition_mask(SNIPS_SPACE)
        yield permissive_transition_mask(5)
        for _ in range(20):
            t_n = int(rng.integers(2, 14))
            allowed = rng.random((t_n, t_n)) < rng.uniform(0.1, 0.9)
            yield TransitionMask(np.where(allowed, 1.0, NEG_INF), np.ones(t_n))

    def test_open_columns_and_predecessors_rebuild_the_columns(self):
        for tm in self.masks():
            t_n = tm.start.shape[0]
            assert np.array_equal(np.sort(np.r_[tm.open_cols, tm.closed_cols]), np.arange(t_n))
            allowed = np.zeros((t_n + 1, t_n), dtype=bool)
            allowed[:, tm.open_cols] = True
            allowed[tm.closed_pred, tm.closed_cols[:, None]] = True
            assert np.array_equal(allowed[:t_n], tm.trans == 1.0)
            # ascending predecessors, then the sentinel in every row
            assert np.all(np.diff(tm.closed_pred, axis=1) >= 0)
            assert np.all(tm.closed_pred[:, -1] == t_n)

    def test_row_classes_group_equal_rows(self):
        for tm in self.masks():
            n_classes = tm.row_rep.size
            assert np.array_equal(tm.row_class[tm.row_rep], np.arange(n_classes))
            for k in range(n_classes):
                members = np.flatnonzero(tm.row_class == k)
                assert tm.row_rep[k] == members[0]
                assert np.all(tm.trans[members] == tm.trans[members[0]])
            reps = tm.trans[tm.row_rep]
            assert len({row.tobytes() for row in reps}) == n_classes

    def test_class_counts(self):
        # O, then one class per type: B-X and I-X both allow I-X
        assert build_transition_mask(SNIPS_SPACE).row_rep.size == 40
        assert permissive_transition_mask(79).row_rep.size == 1


class TestBatchedInputs:
    """A leading query axis: (Q, Y) intent and (Q, m, T) slot scores."""

    def batch(self, q=3, y=2, m=4, t=3):
        rng = np.random.default_rng(q)
        return JointScoreInputs(rng.standard_normal((q, y)), rng.standard_normal((q, m, t)),
                                all_ones_relation_mask(y, t), permissive_transition_mask(t))

    def test_sizes_read_the_trailing_axes(self):
        jin = self.batch()
        assert jin.batched and not open_inputs(np.zeros(2), np.zeros((4, 3))).batched
        assert (jin.n_intents, jin.n_positions, jin.n_slots) == (2, 4, 3)

    @pytest.mark.parametrize("f_l, f_o", [
        ((3, 2), (4, 3)),  # a batch of intent scores, one query's slot scores
        ((2,), (3, 4, 3)),  # the other way round
        ((3, 2), (2, 4, 3)),  # batch sizes differ
        ((1, 3, 2), (1, 3, 4, 3)),  # two leading axes
        ((2,), (3,)),  # no position axis
    ])
    def test_shape_mismatch_rejected(self, f_l, f_o):
        with pytest.raises(ValueError, match="are not"):
            JointScoreInputs(np.zeros(f_l), np.zeros(f_o), all_ones_relation_mask(2, 3),
                             permissive_transition_mask(3))

    def test_non_finite_score_in_any_query_rejected(self):
        f_o = np.zeros((3, 4, 3))
        f_o[2, 1, 0] = np.nan
        with pytest.raises(NonFiniteScores, match="f_o"):
            JointScoreInputs(np.zeros((3, 2)), f_o, all_ones_relation_mask(2, 3),
                             permissive_transition_mask(3))

    def test_batch_functions_give_each_query_its_own_result(self):
        jin = self.batch()
        gold_y, gold_t = np.array([0, 1, 1]), np.array([[0, 1, 2, 0], [2, 2, 1, 0], [1, 0, 0, 2]])
        post = log_partition(jin)
        losses, _ = nll_loss(gold_y, gold_t, jin)
        d_fl, d_fo = loss_gradients(gold_y, gold_t, post, jin)
        scores = joint_score(gold_y, gold_t, jin)
        for n in range(3):
            one = JointScoreInputs(jin.f_l[n], jin.f_o[n], jin.rm, jin.tm)
            alone = log_partition(one)
            assert post.log_z[n] == alone.log_z
            np.testing.assert_array_equal(post.intent_marginals[n], alone.intent_marginals)
            np.testing.assert_array_equal(post.slot_unary_marginals[n], alone.slot_unary_marginals)
            assert scores[n] == joint_score(gold_y[n], gold_t[n], one)
            assert losses[n] == nll_loss(gold_y[n], gold_t[n], one)[0]
            for got, want in zip((d_fl[n], d_fo[n]), loss_gradients(gold_y[n], gold_t[n], alone, one)):
                np.testing.assert_array_equal(got, want)


class TestInfeasibleLattice:
    def test_every_intent_masked(self):
        # only I-labels are related, so under BIO no sequence can start
        rm = np.zeros((2, SNIPS_SPACE.n_slots), dtype=bool)
        rm[:, SNIPS_SPACE.slot_id("I-type0")] = True
        jin = JointScoreInputs(np.zeros(2), np.zeros((3, SNIPS_SPACE.n_slots)),
                               RelationMask(rm, False), build_transition_mask(SNIPS_SPACE))
        with pytest.raises(InfeasibleLattice):
            log_partition(jin)
        with pytest.raises(InfeasibleLattice):
            viterbi_decode(jin)
        batch = JointScoreInputs(np.zeros((2, 2)), np.zeros((2, 3, SNIPS_SPACE.n_slots)), jin.rm, jin.tm)
        with pytest.raises(InfeasibleLattice):
            viterbi_decode(batch)
