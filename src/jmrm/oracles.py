"""Brute-force oracles and the verification suites behind `jmrm oracle-check`.

The enumeration oracle scores every (intent, slot sequence) pair with a
plain term-by-term loop, independent of the dynamic-programming lattice,
and is only usable on small instances (Y * T^m pairs).  The suites compare
the lattice against it and check gradients against central finite
differences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Episode, LabelSpace, Sample, episode_label_space, remap
from .encoder import EncoderConfig, TRAINABLE, init_encoder
from .experiments import episode_vocabulary
from .lattice import JointScoreInputs, log_partition, nll_loss, loss_gradients, viterbi_decode
from .masks import NEG_INF, RelationMask, build_transition_mask
from .protonet import SIMILARITY_KINDS
from .trainer import LOSS_MODES, RunConfig, build_context, compute_loss


def naive_pair_score(y: int, t: tuple[int, ...], jin: JointScoreInputs) -> float:
    """Term-by-term joint score, written independently of the lattice code."""
    total = jin.lam * float(jin.f_l[y])
    prev = None
    for i, o in enumerate(t):
        emission = float(jin.f_o[i, o]) if jin.rm.rm[y, o] else NEG_INF
        transition = float(jin.tm.start[o]) if prev is None else float(jin.tm.trans[prev, o])
        total += emission + transition
        prev = o
    return total


@dataclass
class EnumerationResult:
    log_z: float
    intent_marginals: np.ndarray
    unary_marginals: np.ndarray  # (Y, m, T)
    argmax_pair: tuple[int, tuple[int, ...]]
    argmax_score: float
    pair_scores: dict[tuple[int, tuple[int, ...]], float]


def enumerate_joint(jin: JointScoreInputs) -> EnumerationResult:
    """Exhaustive enumeration of all Y * T^m pairs."""
    y_n, m, t_n = jin.n_intents, jin.n_positions, jin.n_slots
    scores: dict[tuple[int, tuple[int, ...]], float] = {}
    best: tuple[int, tuple[int, ...]] | None = None
    best_score = NEG_INF
    for y in range(y_n):
        for t in itertools.product(range(t_n), repeat=m):
            r = naive_pair_score(y, t, jin)
            scores[(y, t)] = r
            # strict > keeps the first (lexicographically smallest) maximizer
            if r > best_score:
                best_score = r
                best = (y, t)
    finite = [r for r in scores.values() if r > NEG_INF]
    if not finite:
        raise ValueError("no feasible pair")
    mx = max(finite)
    log_z = mx + math.log(sum(math.exp(r - mx) for r in finite))
    q = np.zeros(y_n)
    unary = np.zeros((y_n, m, t_n))
    for (y, t), r in scores.items():
        if r == NEG_INF:
            continue
        p = math.exp(r - log_z)
        q[y] += p
        for i, o in enumerate(t):
            unary[y, i, o] += p
    return EnumerationResult(
        log_z=log_z,
        intent_marginals=q,
        unary_marginals=unary,
        argmax_pair=best,
        argmax_score=best_score,
        pair_scores=scores,
    )


# --- random instance generators ----------------------------------------------

_SLOT_MENUS = (
    ["O", "B-a"],
    ["O", "B-a", "I-a"],
    ["O", "B-a", "I-a", "B-b"],
    ["O", "B-a", "I-a", "B-b", "I-b"],
)


def random_label_space(rng: np.random.Generator, max_intents: int = 3) -> LabelSpace:
    y = int(rng.integers(1, max_intents + 1))
    menu = _SLOT_MENUS[int(rng.integers(len(_SLOT_MENUS)))]
    return LabelSpace(tuple(f"intent{i}" for i in range(y)), tuple(menu))


def random_instance(
    rng: np.random.Generator,
    max_intents: int = 3,
    emission_scale: float = 5.0,
) -> JointScoreInputs:
    """Random masked instance of up to 4 positions: emissions in [-scale,
    scale], random relation mask with a forced O column, and the BIO
    transition mask."""
    ls = random_label_space(rng, max_intents)
    y_n, t_n = ls.n_intents, ls.n_slots
    m = int(rng.integers(1, 5))
    f_l = rng.uniform(-emission_scale, emission_scale, size=y_n)
    f_o = rng.uniform(-emission_scale, emission_scale, size=(m, t_n))
    rm = rng.random((y_n, t_n)) < 0.6
    rm[:, ls.o_id] = True
    lam = float(rng.choice([0.5, 1.0, 2.0]))
    return JointScoreInputs(f_l, f_o, RelationMask(rm, True), build_transition_mask(ls), lam)


def _random_bio_sequence(rng: np.random.Generator, ls: LabelSpace, m: int) -> tuple[int, ...]:
    seq, allowed = [], ls.may_start
    for _ in range(m):
        seq.append(int(rng.choice(np.flatnonzero(allowed))))
        allowed = ls.may_follow[seq[-1]]
    return tuple(seq)


def random_episode(rng: np.random.Generator) -> Episode:
    """Small random episode (up to 2 intents, 8 distinct tokens, 3 support
    samples) with BIO-valid gold and a feasible query."""
    n_tokens = 8
    vocab = [f"tok{v}" for v in range(n_tokens)]
    full_ls = random_label_space(rng, max_intents=2)
    support = []
    for n in range(3):
        m = int(rng.integers(1, 6))
        tokens = tuple(vocab[int(i)] for i in rng.integers(0, n_tokens, size=m))
        intent = int(rng.integers(full_ls.n_intents))
        slots = _random_bio_sequence(rng, full_ls, m)
        if n == 0:
            # every episode-local label space contains O, so its prototype
            # must be defined: force one O occurrence
            tokens = tokens + (vocab[int(rng.integers(n_tokens))],)
            slots = slots + (full_ls.o_id,)
        support.append(Sample(tokens, intent, slots))
    # episode-local space: relabel against the labels the support actually uses
    ls = episode_label_space(full_ls, support)
    support = [remap(s, full_ls, ls) for s in support]
    # query reuses a support sample's labeling with fresh tokens, so the
    # gold pair always co-occurs in the support set
    base = support[int(rng.integers(len(support)))]
    q_tokens = tuple(vocab[int(i)] for i in rng.integers(0, n_tokens, size=len(base.tokens)))
    query = Sample(q_tokens, base.intent, base.slots)
    return Episode(tuple(support), (query,), ls, "oracle")


# --- suites -------------------------------------------------------------------


def _rel_err(a: float, b: float, floor: float = 1e-3) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def partition_suite(trials: int, seed: int) -> dict:
    """Lattice log Z and marginals vs exhaustive enumeration."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    max_logz_err = 0.0
    max_marg_err = 0.0
    for _ in range(trials):
        jin = random_instance(rng)
        post = log_partition(jin)
        ref = enumerate_joint(jin)
        max_logz_err = max(max_logz_err, abs(post.log_z - ref.log_z) / max(1.0, abs(ref.log_z)))
        max_marg_err = max(
            max_marg_err,
            float(np.max(np.abs(post.intent_marginals - ref.intent_marginals))),
            float(np.max(np.abs(post.slot_unary_marginals - ref.unary_marginals))),
        )
    return {
        "trials": trials,
        "max_log_z_rel_err": max_logz_err,
        "max_marginal_abs_err": max_marg_err,
        "pass": bool(max_logz_err <= 1e-9 and max_marg_err <= 1e-9),
    }


def decode_suite(trials: int, seed: int) -> dict:
    """Viterbi vs enumeration argmax, plus BIO validity and mask consistency."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    mismatches = 0
    violations = 0
    for _ in range(trials):
        jin = random_instance(rng)
        y, path, dec_score = viterbi_decode(jin)
        ref = enumerate_joint(jin)
        if (y, tuple(int(o) for o in path)) != ref.argmax_pair:
            mismatches += 1
        if not np.isfinite(jin.tm.start[path[0]]):
            violations += 1
        for i in range(1, len(path)):
            if not np.isfinite(jin.tm.trans[path[i - 1], path[i]]):
                violations += 1
        if not all(jin.rm.rm[y, o] for o in path):
            violations += 1
        if dec_score != ref.argmax_score and _rel_err(dec_score, ref.argmax_score) > 1e-12:
            mismatches += 1
    return {
        "trials": trials,
        "argmax_mismatches": mismatches,
        "constraint_violations": violations,
        "pass": bool(mismatches == 0 and violations == 0),
    }


def normalization_suite(trials: int, seed: int) -> dict:
    """Probabilities over all feasible pairs sum to 1; masked pairs are exactly 0."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    worst_total = 0.0
    masked_nonzero = 0
    for _ in range(trials):
        jin = random_instance(rng)
        post = log_partition(jin)
        ref = enumerate_joint(jin)
        total = 0.0
        for (y, t), r in ref.pair_scores.items():
            if r == NEG_INF:
                if math.exp(r - post.log_z) != 0.0:
                    masked_nonzero += 1
                continue
            total += math.exp(r - post.log_z)
        worst_total = max(worst_total, abs(total - 1.0))
    return {
        "trials": trials,
        "max_total_prob_err": worst_total,
        "masked_pairs_with_nonzero_prob": masked_nonzero,
        "pass": bool(worst_total <= 1e-6 and masked_nonzero == 0),
    }


def _feasible_gold(rng: np.random.Generator, jin: JointScoreInputs) -> tuple[int, tuple[int, ...]]:
    ref = enumerate_joint(jin)
    feasible = [pair for pair, r in ref.pair_scores.items() if r > NEG_INF]
    return feasible[int(rng.integers(len(feasible)))]


def emission_gradient_suite(trials: int, seed: int, step: float = 1e-5) -> dict:
    """Analytic dL/df_l and dL/df_o vs central finite differences."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(4,)))
    worst = 0.0
    for _ in range(trials):
        jin = random_instance(rng)
        gold_y, gold_t = _feasible_gold(rng, jin)
        loss, post = nll_loss(gold_y, np.asarray(gold_t), jin)
        d_fl, d_fo = loss_gradients(gold_y, np.asarray(gold_t), post, jin)

        def loss_at(f_l, f_o):
            j = JointScoreInputs(f_l, f_o, jin.rm, jin.tm, jin.lam)
            return nll_loss(gold_y, np.asarray(gold_t), j)[0]

        for y in range(jin.n_intents):
            up, down = jin.f_l.copy(), jin.f_l.copy()
            up[y] += step
            down[y] -= step
            fd = (loss_at(up, jin.f_o) - loss_at(down, jin.f_o)) / (2 * step)
            worst = max(worst, _rel_err(d_fl[y], fd))
        for i in range(jin.n_positions):
            for o in range(jin.n_slots):
                up, down = jin.f_o.copy(), jin.f_o.copy()
                up[i, o] += step
                down[i, o] -= step
                fd = (loss_at(jin.f_l, up) - loss_at(jin.f_l, down)) / (2 * step)
                worst = max(worst, _rel_err(d_fo[i, o], fd))
    return {"trials": trials, "max_rel_err": worst, "pass": bool(worst <= 1e-4)}


def encoder_gradient_suite(trials: int, seed: int, step: float = 1e-5) -> dict:
    """End-to-end parameter gradients of compute_loss vs finite differences."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(5,)))
    worst = 0.0
    n_kinds = len(SIMILARITY_KINDS)
    for trial in range(trials):
        episode = random_episode(rng)
        cfg = RunConfig(
            similarity_kind=SIMILARITY_KINDS[trial % n_kinds],
            loss_mode=LOSS_MODES[(trial // n_kinds) % len(LOSS_MODES)],
            lam=float(rng.choice([0.5, 1.0])),
            i2s_train=bool(rng.random() < 0.7),
            msd_train=bool(rng.random() < 0.7),
        )
        enc_cfg = EncoderConfig(
            kind=TRAINABLE,
            dim=int(rng.integers(2, 7)),
            context_window=int(rng.integers(0, 2)),
            init_scale=0.5,
            seed=int(rng.integers(2**31)),
        )
        encoder = init_encoder(enc_cfg, episode_vocabulary([episode]))
        query = episode.query[0]

        def loss_now() -> tuple[float, dict | None]:
            return compute_loss(query, build_context(episode, encoder, cfg), cfg)

        _, grads = loss_now()

        for name, arr in encoder.params.as_dict().items():
            flat = arr.reshape(-1)
            for idx in range(flat.shape[0]):
                orig = flat[idx]
                flat[idx] = orig + step
                up = loss_now()[0]
                flat[idx] = orig - step
                down = loss_now()[0]
                flat[idx] = orig
                fd = (up - down) / (2 * step)
                worst = max(worst, _rel_err(float(grads[name].reshape(-1)[idx]), fd))
    return {"trials": trials, "max_rel_err": worst, "pass": bool(worst <= 1e-4)}


def shift_invariance_suite(trials: int, seed: int, shift: float = 3.7) -> dict:
    """Constant shifts of f_l (or one f_o row) leave all posteriors unchanged."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(6,)))
    worst = 0.0
    decode_changes = 0
    for _ in range(trials):
        jin = random_instance(rng)
        post = log_partition(jin)
        decoded = viterbi_decode(jin)
        row = int(rng.integers(jin.n_positions))

        shifted_l = JointScoreInputs(jin.f_l + shift, jin.f_o, jin.rm, jin.tm, jin.lam)
        f_o2 = jin.f_o.copy()
        f_o2[row] += shift
        shifted_o = JointScoreInputs(jin.f_l, f_o2, jin.rm, jin.tm, jin.lam)

        for shifted, dz in ((shifted_l, jin.lam * shift), (shifted_o, shift)):
            post2 = log_partition(shifted)
            worst = max(
                worst,
                abs(post2.log_z - post.log_z - dz),
                float(np.max(np.abs(post2.intent_marginals - post.intent_marginals))),
                float(np.max(np.abs(post2.slot_unary_marginals - post.slot_unary_marginals))),
            )
            dec2 = viterbi_decode(shifted)
            if (decoded[0], list(decoded[1])) != (dec2[0], list(dec2[1])):
                decode_changes += 1
    return {
        "trials": trials,
        "max_posterior_err": worst,
        "decode_changes": decode_changes,
        "pass": bool(worst <= 1e-9 and decode_changes == 0),
    }


def run_all_suites(trials: int, seed: int) -> dict:
    """Run every verification suite; grading thresholds are baked in."""
    grad_trials = max(10, trials // 4)
    suites = {
        "partition": partition_suite(trials, seed),
        "decode": decode_suite(trials, seed),
        "normalization": normalization_suite(trials, seed),
        "emission_gradients": emission_gradient_suite(grad_trials, seed),
        "encoder_gradients": encoder_gradient_suite(max(5, trials // 20), seed),
        "shift_invariance": shift_invariance_suite(trials, seed),
    }
    return {"suites": suites, "pass": bool(all(s["pass"] for s in suites.values()))}
