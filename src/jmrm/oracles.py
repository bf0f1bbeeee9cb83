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


STEP = 1e-5  # the gradient suites' central-difference step
SHIFT = 3.7  # what shift_invariance_suite adds to the scores


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-3)


def _worst(values) -> float:
    """The largest value, 0.0 for none, and NaN if any is (max(worst, nan) keeps worst)."""
    return float(np.max(values, initial=0.0))


def _report(trials: int, **checks: tuple[float, float]) -> dict:
    """A suite's report from each check's (value, bound): it passes only if every
    value is within its bound, which a NaN never is, and a NaN shows as null."""
    values = {name: None if v != v else v for name, (v, _) in checks.items()}
    return {"trials": trials, **values, "pass": all(v <= b for v, b in checks.values())}


def _max_fd_rel_err(arrays: dict[str, np.ndarray], grads: dict, loss_and_extra) -> float:
    """Worst relative error of grads[name] against central differences of
    loss_and_extra()[0] over each entry of arrays[name], perturbed in place."""
    errs = []
    for name, arr in arrays.items():
        flat = arr.reshape(-1)
        for idx in range(flat.shape[0]):
            orig = flat[idx]
            flat[idx] = orig + STEP
            up = loss_and_extra()[0]
            flat[idx] = orig - STEP
            down = loss_and_extra()[0]
            flat[idx] = orig
            errs.append(_rel_err(float(grads[name].flat[idx]), (up - down) / (2 * STEP)))
    return _worst(errs)


def partition_suite(trials: int, seed: int) -> dict:
    """Lattice log Z and marginals vs exhaustive enumeration."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    logz_errs, marg_errs = [], []
    for _ in range(trials):
        jin = random_instance(rng)
        post = log_partition(jin)
        ref = enumerate_joint(jin)
        logz_errs.append(abs(post.log_z - ref.log_z) / max(1.0, abs(ref.log_z)))
        marg_errs += [np.max(np.abs(post.intent_marginals - ref.intent_marginals)),
                      np.max(np.abs(post.slot_unary_marginals - ref.unary_marginals))]
    return _report(trials, max_log_z_rel_err=(_worst(logz_errs), 1e-9),
                   max_marginal_abs_err=(_worst(marg_errs), 1e-9))


def decode_suite(trials: int, seed: int) -> dict:
    """Viterbi vs enumeration argmax and score; a decode that naive_pair_score
    finds masked (BIO or relation) is a constraint violation."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    mismatches = 0
    violations = 0
    for _ in range(trials):
        jin = random_instance(rng)
        y, path, dec_score = viterbi_decode(jin)
        ref = enumerate_joint(jin)
        pair = (y, tuple(int(o) for o in path))
        violations += naive_pair_score(*pair, jin) == NEG_INF
        mismatches += pair != ref.argmax_pair
        # a NaN score fails both comparisons
        mismatches += not (dec_score == ref.argmax_score
                           or _rel_err(dec_score, ref.argmax_score) <= 1e-12)
    return _report(trials, argmax_mismatches=(mismatches, 0), constraint_violations=(violations, 0))


def normalization_suite(trials: int, seed: int) -> dict:
    """Probabilities over all feasible pairs sum to 1 under the lattice's log Z,
    and the lattice's marginals give relation-masked (intent, slot) pairs
    exactly zero mass."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    total_errs = []
    masked_nonzero = 0
    for _ in range(trials):
        jin = random_instance(rng)
        post = log_partition(jin)
        ref = enumerate_joint(jin)
        total = 0.0
        for r in ref.pair_scores.values():
            if r != NEG_INF:
                total += math.exp(r - post.log_z)
        total_errs.append(abs(total - 1.0))
        with_mass = (post.slot_unary_marginals != 0.0).any(axis=1)  # (Y, T); NaN counts
        masked_nonzero += int(np.count_nonzero(with_mass & ~jin.rm.rm))
    return _report(trials, max_total_prob_err=(_worst(total_errs), 1e-6),
                   masked_pairs_with_nonzero_prob=(masked_nonzero, 0))


def _feasible_gold(rng: np.random.Generator, jin: JointScoreInputs) -> tuple[int, tuple[int, ...]]:
    ref = enumerate_joint(jin)
    feasible = [pair for pair, r in ref.pair_scores.items() if r > NEG_INF]
    return feasible[int(rng.integers(len(feasible)))]


def emission_gradient_suite(trials: int, seed: int) -> dict:
    """Analytic dL/df_l and dL/df_o vs central finite differences."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(4,)))
    errs = []
    for _ in range(trials):
        jin = random_instance(rng)
        gold_y, gold_t = _feasible_gold(rng, jin)
        gold_t = np.asarray(gold_t)
        _, post = nll_loss(gold_y, gold_t, jin)
        d_fl, d_fo = loss_gradients(gold_y, gold_t, post, jin)
        scores = {"f_l": jin.f_l.copy(), "f_o": jin.f_o.copy()}

        def loss_now():
            j = JointScoreInputs(scores["f_l"], scores["f_o"], jin.rm, jin.tm, jin.lam)
            return nll_loss(gold_y, gold_t, j)

        errs.append(_max_fd_rel_err(scores, {"f_l": d_fl, "f_o": d_fo}, loss_now))
    return _report(trials, max_rel_err=(_worst(errs), 1e-4))


def encoder_gradient_suite(trials: int, seed: int) -> dict:
    """End-to-end parameter gradients of compute_loss vs finite differences."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(5,)))
    errs = []
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
        errs.append(_max_fd_rel_err(encoder.params.as_dict(), grads, loss_now))
    return _report(trials, max_rel_err=(_worst(errs), 1e-4))


def shift_invariance_suite(trials: int, seed: int) -> dict:
    """Constant shifts of f_l (or one f_o row) leave all posteriors unchanged."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(6,)))
    errs = []
    decode_changes = 0
    for _ in range(trials):
        jin = random_instance(rng)
        post = log_partition(jin)
        decoded = viterbi_decode(jin)
        row = int(rng.integers(jin.n_positions))

        shifted_l = JointScoreInputs(jin.f_l + SHIFT, jin.f_o, jin.rm, jin.tm, jin.lam)
        f_o2 = jin.f_o.copy()
        f_o2[row] += SHIFT
        shifted_o = JointScoreInputs(jin.f_l, f_o2, jin.rm, jin.tm, jin.lam)

        for shifted, dz in ((shifted_l, jin.lam * SHIFT), (shifted_o, SHIFT)):
            post2 = log_partition(shifted)
            errs += [abs(post2.log_z - post.log_z - dz),
                     np.max(np.abs(post2.intent_marginals - post.intent_marginals)),
                     np.max(np.abs(post2.slot_unary_marginals - post.slot_unary_marginals))]
            dec2 = viterbi_decode(shifted)
            if (decoded[0], list(decoded[1])) != (dec2[0], list(dec2[1])):
                decode_changes += 1
    return _report(trials, max_posterior_err=(_worst(errs), 1e-9),
                   decode_changes=(decode_changes, 0))


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
