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
    _backward,
    _forward,
    _on_intent_labels,
    _pack,
    _suffix_max,
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
    intent_labels,
    permissive_transition_mask,
)
from jmrm.oracles import random_instance

from conftest import SNIPS_SPACE, bio_space
from lattice_reference import ref_completions, ref_log_partition_dense, ref_sweep, ref_viterbi


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
        ((0,), (3, 2)), ((2,), (0, 3)), ((2,), (3, 0)), ((1, 2), (0, 3)),
    ])
    def test_zero_size_rejected(self, f_l_shape, f_o_shape):
        rm, tm = all_ones_relation_mask(2, 3), permissive_transition_mask(3)
        with pytest.raises(ValueError, match=re.escape(
                f"f_l {f_l_shape} and f_o {f_o_shape} are not (Y,) or (Q, Y), and (m, T) "
                "or (N, T), with Y, m, N and T >= 1")):
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


# --- against the dense reference (tests/lattice_reference.py) ----------------


def masked_last_intent(m, scale, bio):
    """Y=7, T=79 (the SNIPS-shaped BIO space) scores for an m-token query,
    and their integer-rounded copy, which makes exact ties between paths and
    intents.  The last intent may use I-type0 only: infeasible under BIO
    (an I-label cannot open a sequence), feasible without it."""
    rng = np.random.default_rng([m, int(scale), bio])
    t_n = SNIPS_SPACE.n_slots
    tm = build_transition_mask(SNIPS_SPACE) if bio else permissive_transition_mask(t_n)
    rm = rng.random((7, t_n)) < 0.3
    rm[:, 0] = True
    rm[-1] = False
    rm[-1, SNIPS_SPACE.slot_id("I-type0")] = True
    f_l = scale * rng.standard_normal(7)
    f_o = scale * rng.standard_normal((m, t_n))
    return [JointScoreInputs(fl, fo, RelationMask(rm, True), tm, 1.0)
            for fl, fo in ((f_l, f_o), (np.round(f_l), np.round(f_o)))]


class TestLargeInstancesAgainstReference:
    """Y=7, T=79 (SNIPS-shaped BIO space) against the dense reference, bit
    for bit."""

    @pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e3])
    @pytest.mark.parametrize("m", [12, 40])
    def test_partition_marginals_and_viterbi(self, m, scale, bio):
        for jin in masked_last_intent(m, scale, bio):
            log_z, q, unary = ref_log_partition_dense(jin)
            post = log_partition(jin)
            assert post.log_z == log_z
            np.testing.assert_array_equal(post.intent_marginals, q)
            np.testing.assert_array_equal(post.slot_unary_marginals, unary)
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
        no_open += not tm.is_open.any()
        many_closed += tm.closed_succ.shape[1] > 2
        jin = JointScoreInputs(rng.standard_normal(3), np.round(rng.standard_normal((m, t_n))),
                               all_ones_relation_mask(3, t_n), tm, 1.0)
        y, path, score = viterbi_decode(jin)
        assert (y, [int(o) for o in path], score) == ref_viterbi(jin)
    assert no_open and many_closed


def assert_completions_match_dense(jin):
    """Every packed row's best completions, _suffix_max's (N, Y, W), equal
    the dense reference's for its query and position on every allowed
    (intent, label) cell."""
    lengths = np.array([jin.n_positions]) if jin.lengths is None else jin.lengths
    f_l, ends = jin.f_l.reshape(lengths.size, -1), np.cumsum(lengths)
    dense = np.concatenate([ref_completions(JointScoreInputs(f_l[n], jin.f_o[end - m : end], jin.rm, jin.tm))
                            for n, (m, end) in enumerate(zip(lengths, ends))], axis=1)  # (Y, N, T)
    pk = _pack(jin)
    il = intent_labels(jin.rm, jin.tm)
    fe = apply_relation_mask(jin.f_o[pk.src][:, il.labels][:, :, None], il.rm, slice(None))[:, :, 0]
    h = _suffix_max(fe, il, pk.live, pk.starts)
    allowed = il.rm.rm
    assert allowed.sum() == jin.rm.rm.sum()  # each allowed (intent, label) once
    want = dense[np.arange(jin.n_intents)[:, None], :, il.labels][..., pk.src]  # (Y, W, N), packed row order
    np.testing.assert_array_equal(h[:, allowed], want[allowed].T)


def assert_sums_match_dense(jin):
    """Every packed row's forward and backward scores, _forward's and
    _backward's (N, Y, W), equal the dense reference's for its query and
    position on every allowed (intent, label) cell."""
    lengths = np.array([jin.n_positions]) if jin.lengths is None else jin.lengths
    trans, start, ends = jin.tm.trans, jin.tm.start, np.cumsum(lengths)
    alphas, betas = [], []
    for m, end in zip(lengths, ends):
        for f in apply_relation_mask(jin.f_o[end - m : end], jin.rm, slice(None)):  # (m, T) per intent
            alphas.append(ref_sweep(f[::-1], trans.T, start)[::-1] + f)
            betas.append(ref_sweep(f, trans, 0.0))
    pk, il, fe = _on_intent_labels(jin)
    with np.errstate(divide="ignore"):
        sweeps = (_forward(fe, il, jin.tm, pk.live, pk.starts), _backward(fe, il, jin.tm, pk.live, pk.starts))
    allowed, y_n = il.rm.rm, jin.n_intents
    for got, dense in zip(sweeps, (alphas, betas)):
        # (Y, N, T), each query's rows in turn, then (Y, W, N) in packed row order
        dense = np.concatenate([np.stack(dense[n * y_n : (n + 1) * y_n]) for n in range(lengths.size)], axis=1)
        want = dense[np.arange(y_n)[:, None], :, il.labels][..., pk.src]
        np.testing.assert_array_equal(got[:, allowed], want[allowed].T)


class TestPackedCompletions:
    """The max-plus sweep's completions row by row, not only through the
    decode that reads them, and the sum-product sweeps' scores; ragged
    batches list their queries unsorted, with repeats and 1-token
    queries."""

    @pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
    @pytest.mark.parametrize("y_n, t_n", [(2, 9), (7, 79)])
    def test_ragged_batches(self, y_n, t_n, bio):
        tm = build_transition_mask(bio_space(y_n, t_n)) if bio else permissive_transition_mask(t_n)
        rng = np.random.default_rng([y_n, t_n, bio])
        rm = rng.random((y_n, t_n)) < 0.3
        rm[:, 0] = True
        for scale, lengths in itertools.product((1.0, 30.0), [(1,), (5,), (1, 6), (3, 1, 9, 4, 9, 1, 12, 5)]):
            f_l = scale * rng.standard_normal((len(lengths), y_n))
            f_o = scale * rng.standard_normal((sum(lengths), t_n))
            for fl, fo in ((f_l, f_o), (np.round(f_l), np.round(f_o))):
                jin = JointScoreInputs(fl, fo, RelationMask(rm, True), tm, 1.0, np.array(lengths))
                assert_completions_match_dense(jin)
                assert_sums_match_dense(jin)

    @pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
    def test_masked_last_intent(self, bio):
        """TestLargeInstancesAgainstReference's inputs, each alone, and their
        scores in one batch under the first one's masks."""
        for scale in (1.0, 30.0, 1e3):
            queries = [jin for m in (40, 12) for jin in masked_last_intent(m, scale, bio)]
            batch = JointScoreInputs(
                np.stack([jin.f_l for jin in queries]), np.concatenate([jin.f_o for jin in queries]),
                queries[0].rm, queries[0].tm, 1.0, np.array([jin.n_positions for jin in queries]))
            for jin in queries + [batch]:
                assert_completions_match_dense(jin)
                assert_sums_match_dense(jin)

    def test_beyond_bio(self):
        """Masks with no open column, and rows with several closed
        successors (K > 1); the diagonal keeps every constant path
        feasible."""
        rng = np.random.default_rng(19)
        no_open = many_closed = 0
        for _ in range(40):
            t_n, lengths = int(rng.integers(2, 12)), rng.integers(1, 8, size=int(rng.integers(1, 6)))
            allowed = rng.random((t_n, t_n)) < rng.uniform(0.1, 0.9)
            np.fill_diagonal(allowed, True)
            tm = TransitionMask(np.where(allowed, 1.0, NEG_INF), np.ones(t_n))
            no_open += not tm.is_open.any()
            many_closed += tm.closed_succ.shape[1] > 2
            rm = rng.random((3, t_n)) < 0.7
            rm[np.arange(3), rng.integers(t_n, size=3)] = True
            f_o = np.round(rng.standard_normal((lengths.sum(), t_n)))
            jin = JointScoreInputs(rng.standard_normal((lengths.size, 3)), f_o, RelationMask(rm, False), tm, 1.0, lengths)
            assert_completions_match_dense(jin)
            assert_sums_match_dense(jin)
        assert no_open and many_closed


def assert_decodes_match_dense(jin):
    """One viterbi_decode call on a batch gives each query the dense
    reference's (y, path, score), bit for bit."""
    ys, paths, scores = viterbi_decode(jin)
    f_l, ends = jin.f_l.reshape(jin.lengths.size, -1), np.cumsum(jin.lengths)
    for n, (m, end) in enumerate(zip(jin.lengths, ends)):
        y, path, score = ref_viterbi(JointScoreInputs(f_l[n], jin.f_o[end - m : end], jin.rm, jin.tm))
        assert (int(ys[n]), paths[end - m : end].tolist(), scores[n]) == (y, path, score)


class TestIntentAxes:
    """Every sweep on each intent's own labels against the dense
    references: decodes, and every allowed completion, forward and
    backward score, bit for bit, on ragged batches with one-row queries,
    each also integer-rounded to make exact ties."""

    LENGTHS = [(1,), (1, 1, 1), (3, 1, 9, 4, 1, 12)]

    def check(self, rm, tm, seed, scales=(1.0, 30.0)):
        rng = np.random.default_rng(seed)
        relation = RelationMask(rm, False)
        for scale, lengths in itertools.product(scales, self.LENGTHS):
            f_l = scale * rng.standard_normal((len(lengths), rm.shape[0]))
            f_o = scale * rng.standard_normal((sum(lengths), rm.shape[1]))
            for fl, fo in ((f_l, f_o), (np.round(f_l), np.round(f_o))):
                jin = JointScoreInputs(fl, fo, relation, tm, 1.0, np.array(lengths))
                assert_decodes_match_dense(jin)
                assert_completions_match_dense(jin)
                assert_sums_match_dense(jin)

    @pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
    def test_label_sets_of_every_size(self, bio):
        """T_y from 1 (O alone) to T - 1, the others padded to it; then
        with one intent allowing every label, so W = T."""
        ls = bio_space(4, 15)
        tm = build_transition_mask(ls) if bio else permissive_transition_mask(15)
        rm = np.zeros((4, 15), dtype=bool)
        rm[:, ls.o_id] = True
        rm[1, [ls.slot_id("B-type2"), ls.slot_id("I-type2")]] = True
        rm[2, 1::3] = True
        rm[3, 1:] = True
        rm[3, ls.slot_id("I-type4")] = False
        il = intent_labels(RelationMask(rm, True), tm)
        assert il.labels.shape == (4, 14) and il.rm.rm.sum(axis=1).tolist() == [1, 3, 6, 14]
        self.check(rm, tm, 1)
        rm[3] = True
        self.check(rm, tm, 6)

    @pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
    def test_all_allowed(self, bio):
        """The identity compaction: W = T and every intent lists 0 .. T-1."""
        tm = build_transition_mask(bio_space(3, 9)) if bio else permissive_transition_mask(9)
        il = intent_labels(all_ones_relation_mask(3, 9), tm)
        assert il.labels.tolist() == [list(range(9))] * 3 and il.rm.rm.all()
        self.check(np.ones((3, 9), dtype=bool), tm, 2)

    def test_inside_label_without_its_begin(self):
        """I-X allowed, B-X not: I-X can only follow I-X, so it never opens
        a span; under BIO the intent's best path avoids it."""
        ls = bio_space(3, 9)
        rm = np.zeros((3, 9), dtype=bool)
        rm[:, ls.o_id] = True
        rm[0, [ls.slot_id("I-type0"), ls.slot_id("B-type1"), ls.slot_id("I-type1")]] = True
        rm[1, ls.slot_id("I-type3")] = True
        rm[2, [ls.slot_id("I-type2"), ls.slot_id("I-type3")]] = True
        self.check(rm, build_transition_mask(ls), 3)

    def test_labels_not_grouped(self):
        """O not at id 0, and no B-X next to its I-X."""
        rng = np.random.default_rng(4)
        names = ["O"] + [f"{p}-type{k}" for k in range(5) for p in ("B", "I")]
        while names[0] == "O" or any(abs(names.index(f"B-type{k}") - names.index(f"I-type{k}")) == 1
                                     for k in range(5)):
            names = [names[i] for i in rng.permutation(len(names))]
        ls = LabelSpace(("a", "b", "c"), tuple(names))
        rm = rng.random((3, 11)) < 0.5
        rm[:, ls.o_id] = True
        self.check(rm, build_transition_mask(ls), 5)

    def test_beyond_bio(self):
        """40 masks with no open column, or rows with several closed
        successors (K > 1); the diagonal keeps every constant path
        feasible, and every intent allows a label of its own.  Most ban a
        label of every intent, so W < T."""
        rng = np.random.default_rng(23)
        no_open = many_closed = narrowed = 0
        for n in range(40):
            t_n = int(rng.integers(2, 12))
            allowed = rng.random((t_n, t_n)) < rng.uniform(0.1, 0.9)
            np.fill_diagonal(allowed, True)
            tm = TransitionMask(np.where(allowed, 1.0, NEG_INF), np.ones(t_n))
            no_open += not tm.is_open.any()
            many_closed += tm.closed_succ.shape[1] > 2
            rm = rng.random((3, t_n)) < 0.5
            rm[np.arange(3), rng.integers(t_n, size=3)] = True
            narrowed += not rm.all(axis=1).any()
            self.check(rm, tm, 100 + n, scales=(1.0,))
        assert no_open and many_closed and narrowed == 25

    def test_ties_break_to_the_smallest_id(self):
        """Equal emissions everywhere: every allowed label ties, and each
        position takes the intent's smallest allowed id, whatever the order
        of the label ids."""
        rm = np.zeros((2, 9), dtype=bool)
        rm[0, [7, 2, 5]] = True
        rm[1, [8, 4]] = True
        jin = JointScoreInputs(np.zeros((2, 2)), np.zeros((5, 9)), RelationMask(rm, False),
                               permissive_transition_mask(9), 1.0, np.array([4, 1]))
        ys, paths, _ = viterbi_decode(jin)
        assert ys.tolist() == [0, 0] and paths.tolist() == [2] * 5
        assert_decodes_match_dense(jin)
        assert_completions_match_dense(jin)
        assert_sums_match_dense(jin)

    @pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
    def test_an_intent_allowing_no_label(self, bio):
        """A relation row with no label: every column of the intent pads
        its row, and the intent gets no mass and no decode."""
        ls = bio_space(3, 9)
        tm = build_transition_mask(ls) if bio else permissive_transition_mask(9)
        rm = np.zeros((3, 9), dtype=bool)
        rm[0, [ls.o_id, ls.slot_id("B-type1"), ls.slot_id("I-type1")]] = True
        rm[2, ls.o_id] = True
        assert intent_labels(RelationMask(rm, False), tm).rm.rm.sum(axis=1).tolist() == [3, 0, 1]
        self.check(rm, tm, 7)
        jin = JointScoreInputs(np.zeros((2, 3)), np.zeros((5, 9)), RelationMask(rm, False), tm, 1.0,
                               np.array([4, 1]))
        assert np.all(log_partition(jin).intent_marginals[:, 1] == 0.0)


def assert_partition_matches_dense(jin):
    """One log_partition call on a batch gives each query the dense
    reference's log Z, q(y) and unary marginals, bit for bit."""
    post = log_partition(jin)
    f_l, ends = jin.f_l.reshape(jin.lengths.size, -1), np.cumsum(jin.lengths)
    for n, (m, end) in enumerate(zip(jin.lengths, ends)):
        log_z, q, unary = ref_log_partition_dense(JointScoreInputs(f_l[n], jin.f_o[end - m : end], jin.rm, jin.tm))
        assert post.log_z[n] == log_z
        np.testing.assert_array_equal(post.intent_marginals[n], q)
        np.testing.assert_array_equal(post.slot_unary_marginals[:, end - m : end], unary)


def backward_rows(rm, tm):
    """The (intent, row class) pairs of the labels each intent lists."""
    return np.unique((np.arange(rm.shape[0])[:, None] * tm.row_rep.size + tm.row_class)[rm]).size


class TestBackwardRows:
    """The backward pass sums only the (intent, class) rows that some
    listed label reads; masks whose rows are few and uneven, against the
    dense references bit for bit: every allowed backward score, and
    log_partition's log Z and marginals."""

    def check(self, rm, tm, seed):
        rng = np.random.default_rng(seed)
        for scale, lengths in itertools.product((1.0, 30.0), TestIntentAxes.LENGTHS):
            f_l = scale * rng.standard_normal((len(lengths), rm.shape[0]))
            f_o = scale * rng.standard_normal((sum(lengths), rm.shape[1]))
            for fl, fo in ((f_l, f_o), (np.round(f_l), np.round(f_o))):
                jin = JointScoreInputs(fl, fo, RelationMask(rm, False), tm, 1.0, np.array(lengths))
                assert_sums_match_dense(jin)
                assert_partition_matches_dense(jin)

    def test_an_intent_listing_only_o(self):
        ls = SNIPS_SPACE
        rm = np.zeros((7, 79), dtype=bool)
        rm[:, ls.o_id] = True
        rm[1:, 1:] = np.random.default_rng(30).random((6, 78)) < 0.3
        tm = build_transition_mask(ls)
        assert rm[0].sum() == 1 and backward_rows(rm, tm) < 7 * 40
        self.check(rm, tm, 30)

    def test_intents_each_listing_one_slot_type(self):
        """No O: each intent's B-X and I-X of its own type, two labels of
        one class, so one row per intent."""
        ls = SNIPS_SPACE
        rm = np.zeros((7, 79), dtype=bool)
        for y, k in enumerate((0, 3, 4, 11, 20, 37, 38)):
            rm[y, [ls.slot_id(f"B-type{k}"), ls.slot_id(f"I-type{k}")]] = True
        tm = build_transition_mask(ls)
        assert backward_rows(rm, tm) == 7
        self.check(rm, tm, 31)

    @pytest.mark.parametrize("single", ["O", "B-type5"])
    def test_all_labels_next_to_a_single_one(self, single):
        """One intent lists all 79 labels, so W = T, and the other one."""
        ls = SNIPS_SPACE
        rm = np.zeros((2, 79), dtype=bool)
        rm[0] = True
        rm[1, ls.slot_id(single)] = True
        tm = build_transition_mask(ls)
        assert backward_rows(rm, tm) == 40 + 1
        self.check(rm, tm, 32)

    def test_beyond_bio_rows_whose_rep_is_unlisted(self):
        """Classes of several equal rows, and intents that list a member of
        a class but not its row_rep, the row its sum is built from."""
        rng = np.random.default_rng(33)
        unlisted_rep = 0
        for n in range(20):
            t_n = int(rng.integers(4, 12))
            allowed = rng.random((t_n, t_n)) < rng.uniform(0.2, 0.8)
            np.fill_diagonal(allowed, True)
            for src, dst in rng.integers(t_n, size=(t_n // 2, 2)):  # equal rows, each keeping its diagonal
                allowed[src, dst] = True
                allowed[dst] = allowed[src]
            tm = TransitionMask(np.where(allowed, 1.0, NEG_INF), np.ones(t_n))
            rm = rng.random((3, t_n)) < 0.4
            rm[np.arange(3), rng.integers(t_n, size=3)] = True
            rep = tm.row_rep[tm.row_class]  # each label's class's row_rep
            unlisted_rep += np.any(rm & ~rm[:, rep])
            self.check(rm, tm, 200 + n)
        assert unlisted_rep == 17

    @pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
    def test_no_intent_listing_a_label(self, bio):
        """No row is read; the lattice is infeasible, and says so."""
        tm = build_transition_mask(bio_space(3, 9)) if bio else permissive_transition_mask(9)
        jin = JointScoreInputs(np.zeros((2, 3)), np.zeros((5, 9)), RelationMask(np.zeros((3, 9), dtype=bool), False),
                               tm, 1.0, np.array([4, 1]))
        for fn in (log_partition, viterbi_decode):
            with pytest.raises(InfeasibleLattice):
                fn(jin)


class TestTransitionStructure:
    """The open/closed form every sweep runs on."""

    def test_bio_open_columns_and_closed_successors(self):
        t_n = SNIPS_SPACE.n_slots
        tm = build_transition_mask(SNIPS_SPACE)
        kinds = [split_slot_label(name) for name in SNIPS_SPACE.slot_labels]
        opened = [o for o, (kind, _) in enumerate(kinds) if kind in ("O", "B")]
        assert np.flatnonzero(tm.is_open).tolist() == opened
        assert tm.closed_succ.shape == (t_n, 2)  # K = 1, then the sentinel
        for p, (kind, stype) in enumerate(kinds):
            if kind == "I":  # fed by B-X and I-X only
                feeders = {o for o in range(t_n) if p in tm.closed_succ[o]}
                assert feeders == {SNIPS_SPACE.slot_id(f"B-{stype}"), p}
        assert np.all(tm.closed_succ[SNIPS_SPACE.o_id] == t_n)

    def test_permissive_has_no_closed_column(self):
        tm = permissive_transition_mask(9)
        assert tm.is_open.all()
        assert tm.closed_succ.tolist() == [[9]] * 9
        assert tm.closed_pred.tolist() == [[9]] * 9

    def test_structure_rebuilds_the_dense_scores(self):
        rng = np.random.default_rng(16)
        for tm in (build_transition_mask(SNIPS_SPACE), permissive_transition_mask(5),
                   TransitionMask(np.where(rng.random((6, 6)) < 0.5, 1.0, NEG_INF), np.ones(6))):
            t_n = tm.start.shape[0]
            allowed = np.zeros((t_n, t_n + 1), dtype=bool)
            allowed[:, np.flatnonzero(tm.is_open)] = True
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
            assert np.all(tm.closed_pred[tm.is_open] == t_n)  # an open column lists no row
            allowed = np.zeros((t_n + 1, t_n), dtype=bool)
            allowed[:, tm.is_open] = True
            allowed[tm.closed_pred, np.arange(t_n)[:, None]] = True
            assert np.array_equal(allowed[:t_n], tm.trans == 1.0)
            # the two lists are one structure, read in either direction
            succ = {(o, p) for o in range(t_n) for p in tm.closed_succ[o] if p < t_n}
            assert succ == {(o, p) for p in range(t_n) for o in tm.closed_pred[p] if o < t_n}
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
    """A batch: (Q, Y) intent scores, and (N, T) slot scores that lay the
    queries' rows end to end, with their (Q,) lengths."""

    def batch(self, lengths=(4, 2, 3), y=2, t=3):
        rng = np.random.default_rng(len(lengths))
        return JointScoreInputs(rng.standard_normal((len(lengths), y)), rng.standard_normal((sum(lengths), t)),
                                all_ones_relation_mask(y, t), permissive_transition_mask(t), 1.0,
                                np.array(lengths))

    def test_sizes_read_the_trailing_axes(self):
        jin = self.batch()
        assert jin.batched and not open_inputs(np.zeros(2), np.zeros((4, 3))).batched
        assert (jin.n_intents, jin.n_positions, jin.n_slots) == (2, 9, 3)

    @pytest.mark.parametrize("f_l, f_o", [
        ((3, 2), (3, 4, 3)),  # a padded (Q, M, T) stack of slot scores
        ((2,), (3, 4, 3)),  # one query's intent scores, a stack of slot scores
        ((3, 2), (4,)),  # no label axis
        ((1, 3, 2), (3, 3)),  # two leading axes
        ((2,), (3,)),  # no position axis
    ])
    def test_shape_mismatch_rejected(self, f_l, f_o):
        with pytest.raises(ValueError, match="are not"):
            JointScoreInputs(np.zeros(f_l), np.zeros(f_o), all_ones_relation_mask(2, 3),
                             permissive_transition_mask(3))

    def test_non_finite_score_in_any_query_rejected(self):
        f_o = np.zeros((9, 3))
        f_o[7, 0] = np.nan
        with pytest.raises(NonFiniteScores, match="f_o"):
            JointScoreInputs(np.zeros((3, 2)), f_o, all_ones_relation_mask(2, 3),
                             permissive_transition_mask(3), 1.0, np.array([4, 2, 3]))

    def test_each_query_opens_from_start(self):
        """A query's first slot is scored from START, not from the slot
        before it, which ends the query before: I-X after B-X is allowed
        within a query and banned at its start."""
        b, i = SNIPS_SPACE.slot_id("B-type0"), SNIPS_SPACE.slot_id("I-type0")
        jin = JointScoreInputs(np.zeros((2, 2)), np.zeros((4, SNIPS_SPACE.n_slots)),
                               all_ones_relation_mask(2, SNIPS_SPACE.n_slots),
                               build_transition_mask(SNIPS_SPACE), 1.0, np.array([2, 2]))
        scores = joint_score(np.array([0, 0]), np.array([0, b, i, 0]), jin)
        assert scores.tolist() == [2.0, NEG_INF]
        with pytest.raises(InfeasibleGold, match=r"slots \[\d+, 0\]\) is masked \(query 1 of the batch\)"):
            nll_loss(np.array([0, 0]), np.array([0, b, i, 0]), jin)

    def test_batch_functions_give_each_query_its_own_result(self):
        jin = self.batch()
        gold_y, gold_t = np.array([0, 1, 1]), np.array([0, 1, 2, 0, 2, 2, 1, 0, 2])
        post = log_partition(jin)
        losses, _ = nll_loss(gold_y, gold_t, jin)
        d_fl, d_fo = loss_gradients(gold_y, gold_t, post, jin)
        scores = joint_score(gold_y, gold_t, jin)
        assert post.slot_unary_marginals.shape == (2, 9, 3) and d_fo.shape == (9, 3)
        for n, rows in enumerate((slice(0, 4), slice(4, 6), slice(6, 9))):
            one = JointScoreInputs(jin.f_l[n], jin.f_o[rows], jin.rm, jin.tm)
            alone = log_partition(one)
            assert post.log_z[n] == alone.log_z
            np.testing.assert_array_equal(post.intent_marginals[n], alone.intent_marginals)
            np.testing.assert_array_equal(post.slot_unary_marginals[:, rows], alone.slot_unary_marginals)
            assert scores[n] == joint_score(gold_y[n], gold_t[rows], one)
            assert losses[n] == nll_loss(gold_y[n], gold_t[rows], one)[0]
            for got, want in zip((d_fl[n], d_fo[rows]), loss_gradients(gold_y[n], gold_t[rows], alone, one)):
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
        batch = JointScoreInputs(np.zeros((2, 2)), np.zeros((6, SNIPS_SPACE.n_slots)), jin.rm, jin.tm, 1.0,
                                 np.array([3, 3]))
        with pytest.raises(InfeasibleLattice):
            viterbi_decode(batch)
