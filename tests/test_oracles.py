"""The oracle suites grade what the lattice returns, and a NaN fails them.

Each test swaps one name that jmrm.oracles looks up for a broken kernel (a
mutant) and checks that the suite meant to catch it reports pass false,
with null for any NaN value.  Python's max(worst, err) keeps worst when err
is NaN, so a suite that reduced with it would pass every NaN mutant here.
"""

import json
import math
from dataclasses import replace

import numpy as np

import jmrm.oracles as oracles
from jmrm.cli import main as cli_main
from jmrm.oracles import (
    decode_suite,
    emission_gradient_suite,
    encoder_gradient_suite,
    normalization_suite,
    partition_suite,
    shift_invariance_suite,
)

TRIALS = 10


def nan_log_z(monkeypatch):
    kernel = oracles.log_partition
    monkeypatch.setattr(oracles, "log_partition", lambda jin: replace(kernel(jin), log_z=math.nan))


def nan_marginal(monkeypatch):
    """One cell left unwritten, as an np.empty buffer may leave it."""
    kernel = oracles.log_partition

    def mutant(jin):
        post = kernel(jin)
        unary = post.slot_unary_marginals.copy()
        unary[0, 0, 0] = math.nan
        return replace(post, slot_unary_marginals=unary)

    monkeypatch.setattr(oracles, "log_partition", mutant)


def mass_on_masked_cells(monkeypatch):
    kernel = oracles.log_partition

    def mutant(jin):
        post = kernel(jin)
        leak = 1e-300 * ~jin.rm.rm[:, None, :]
        return replace(post, slot_unary_marginals=post.slot_unary_marginals + leak)

    monkeypatch.setattr(oracles, "log_partition", mutant)


class TestMutantsFailTheirSuites:
    def test_nan_log_z_fails_partition(self, monkeypatch):
        nan_log_z(monkeypatch)
        stats = partition_suite(TRIALS, seed=0)
        assert stats["pass"] is False
        assert stats["max_log_z_rel_err"] is None

    def test_nan_marginal_fails_partition(self, monkeypatch):
        nan_marginal(monkeypatch)
        stats = partition_suite(TRIALS, seed=0)
        assert stats["pass"] is False
        assert stats["max_marginal_abs_err"] is None

    def test_mass_on_masked_cells_fails_normalization(self, monkeypatch):
        mass_on_masked_cells(monkeypatch)
        # 1e-300 is within partition's 1e-9 tolerance: only normalization reads it
        assert partition_suite(TRIALS, seed=0)["pass"] is True
        stats = normalization_suite(TRIALS, seed=0)
        assert stats["pass"] is False
        assert stats["masked_pairs_with_nonzero_prob"] > 0

    def test_nan_loss_gradients_fail_emission_gradients(self, monkeypatch):
        kernel = oracles.loss_gradients

        def mutant(gold_y, gold_t, post, jin):
            d_fl, d_fo = kernel(gold_y, gold_t, post, jin)
            d_fo = d_fo.copy()
            d_fo[-1, -1] = math.nan
            return d_fl, d_fo

        monkeypatch.setattr(oracles, "loss_gradients", mutant)
        stats = emission_gradient_suite(TRIALS, seed=0)
        assert stats["pass"] is False
        assert stats["max_rel_err"] is None

    def test_nan_encoder_gradients_fail_encoder_gradients(self, monkeypatch):
        kernel = oracles.compute_loss

        def mutant(query, ctx, config):
            loss, grads = kernel(query, ctx, config)
            grads["bias"][0] = math.nan
            return loss, grads

        monkeypatch.setattr(oracles, "compute_loss", mutant)
        stats = encoder_gradient_suite(3, seed=0)
        assert stats["pass"] is False
        assert stats["max_rel_err"] is None

    def test_nan_viterbi_score_fails_decode(self, monkeypatch):
        kernel = oracles.viterbi_decode

        def mutant(jin):
            y, path, _ = kernel(jin)
            return y, path, math.nan

        monkeypatch.setattr(oracles, "viterbi_decode", mutant)
        stats = decode_suite(TRIALS, seed=0)
        assert stats["pass"] is False
        assert stats["argmax_mismatches"] == TRIALS
        assert stats["constraint_violations"] == 0

    def test_nan_log_z_fails_shift_invariance(self, monkeypatch):
        nan_log_z(monkeypatch)
        stats = shift_invariance_suite(TRIALS, seed=0)
        assert stats["pass"] is False
        assert stats["max_posterior_err"] is None


def test_decode_into_a_masked_cell_is_a_violation(monkeypatch):
    kernel = oracles.viterbi_decode

    def mutant(jin):
        y, path, score = kernel(jin)
        masked = np.flatnonzero(~jin.rm.rm[y])
        if masked.size:
            path = path.copy()
            path[0] = masked[0]
        return y, path, score

    monkeypatch.setattr(oracles, "viterbi_decode", mutant)
    stats = decode_suite(TRIALS, seed=0)
    assert stats["pass"] is False
    assert stats["constraint_violations"] > 0


def test_oracle_check_prints_a_nan_as_null(monkeypatch, capsys):
    nan_log_z(monkeypatch)
    assert cli_main(["oracle-check", "--trials", "2", "--seed", "0"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    partition = report["suites"]["partition"]
    assert partition["pass"] is False and partition["max_log_z_rel_err"] is None

