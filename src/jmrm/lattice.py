"""Exact joint inference over (intent, slot sequence) pairs.

The joint score of a pair is

    R(y, t) = lam * f_l[y] + sum_i ( f_e(t_i | y) + f_t(t_i | t_{i-1}) )

with f_e the relation-masked slot emissions and f_t the transition mask
(START row for t_0).  Each dynamic program is one right-to-left sweep over
positions.  The sum-product sweep, _sweep, runs logsumexp over the dense
(T, T) transitions: it gives the backward scores and, over reversed
positions and transposed transitions, the forward scores, so log Z and the
marginals are exact.  The max-plus sweep, _suffix_max, gives the best
completions that Viterbi reads greedily; it runs on the mask's open/closed
form (TransitionMask.open_cols and closed_succ), so a position costs
O(Y T (K+1)) instead of O(Y T^2), and its output is bit-identical to the
dense max.  The sum-product sweep stays dense: regrouping a logsumexp the
same way moves log Z in its last bits, which flips near-tied decisions
downstream.  Masked configurations carry IEEE -inf, whose exp is exactly
0, so they contribute exactly zero probability mass and never produce NaN:
the logsumexp below subtracts the max only when it is finite.  Scores must
be finite, so NaN and +inf are rejected where the inputs are built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .masks import NEG_INF, RelationMask, TransitionMask, apply_relation_mask


class InfeasibleGold(ValueError):
    """The gold (intent, slot sequence) pair is masked to -inf."""


class InfeasibleLattice(RuntimeError):
    """No feasible (intent, slot sequence) pair exists; cannot happen with a forced-O mask."""


class NonFiniteScores(ValueError):
    """An intent or slot score is NaN or infinite; masks, not scores, carry -inf."""


_max = np.maximum.reduce  # np.max without its Python-level dispatch


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) with max-subtraction; all -inf reduces to -inf, never NaN."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - safe), axis=axis))
    return out + np.squeeze(safe, axis=axis)


@dataclass
class JointScoreInputs:
    f_l: np.ndarray  # (Y,)
    f_o: np.ndarray  # (m, T)
    rm: RelationMask
    tm: TransitionMask
    lam: float = 1.0

    def __post_init__(self):
        self.f_l = np.asarray(self.f_l, dtype=float)
        self.f_o = np.asarray(self.f_o, dtype=float)
        y, (m, t) = self.f_l.shape[0], self.f_o.shape
        if self.rm.rm.shape != (y, t):
            raise ValueError(f"relation mask shape {self.rm.rm.shape} != ({y}, {t})")
        if self.tm.start.shape != (t,):  # TransitionMask pins trans to (T, T)
            raise ValueError("transition mask shape mismatch")
        if not np.isfinite(self.lam):
            raise ValueError("lam must be finite")
        for name, scores in (("f_l", self.f_l), ("f_o", self.f_o)):
            if not np.all(np.isfinite(scores)):
                raise NonFiniteScores(f"{name} holds NaN or infinite scores")

    @property
    def n_intents(self) -> int:
        return self.f_l.shape[0]

    @property
    def n_positions(self) -> int:
        return self.f_o.shape[0]

    @property
    def n_slots(self) -> int:
        return self.f_o.shape[1]


@dataclass
class JointPosterior:
    log_z: float
    intent_marginals: np.ndarray  # (Y,) q(y)
    slot_unary_marginals: np.ndarray  # (Y, m, T) joint P(intent=y, t_i=o)


def joint_score(y: int, t: np.ndarray, jin: JointScoreInputs) -> float:
    """R(y, t); -inf iff any emission or transition factor is masked."""
    t = np.asarray(t, dtype=int)
    if t.shape[0] != jin.n_positions:
        raise ValueError(f"slot sequence length {t.shape[0]} != {jin.n_positions}")
    fe = apply_relation_mask(jin.f_o, jin.rm, y)
    # association mirrors the forward recursion so degenerate one-path
    # lattices give bit-identical scores
    s = jin.tm.start[t[0]] + fe[0, t[0]]
    for i in range(1, t.shape[0]):
        s = s + jin.tm.trans[t[i - 1], t[i]]
        s = s + fe[i, t[i]]
    return float(jin.lam * jin.f_l[y] + s)


def _sweep(fe: np.ndarray, trans: np.ndarray, last) -> np.ndarray:
    """The sum-product recursion, right to left over an (..., m, T) array.

    h[..., m-1, :] = last and
    h[..., i, o] = logsumexp_p(trans[o, p] + fe[..., i+1, p] + h[..., i+1, p]).
    """
    h = np.empty(fe.shape)
    h[..., -1, :] = last
    for i in range(fe.shape[-2] - 2, -1, -1):
        ahead = fe[..., i + 1, :] + h[..., i + 1, :]
        h[..., i, :] = logsumexp(trans + ahead[..., None, :], axis=-1)
    return h


def _suffix_max(fe: np.ndarray, tm: TransitionMask) -> np.ndarray:
    """Best completion after t_i = o, right to left over a (Y, m, T) stack.

    h[:, m-1, :] = 0 and h[:, i, o] = 1 + max of fe[:, i+1, p] + h[:, i+1, p]
    over the p that may follow o.  Per position that is one max over
    tm.open_cols, stored in the sentinel row T, and one max over the gather
    of tm.closed_succ, whose rows all end with T: O(Y T (K+1)) instead of
    O(Y T^2).  Every allowed transition scores exactly 1 and rounding is
    monotone, so adding it after the max equals the dense
    max_p(trans[o, p] + ...) bit for bit.  The work runs label-major,
    (m, T, Y), so both gathers take whole rows.
    """
    y, m, t = fe.shape
    open_cols, closed_succ = tm.open_cols, tm.closed_succ
    fe = fe.transpose(1, 2, 0)
    h = np.zeros((m, t, y))
    ahead = np.empty((t + 1, y))
    for i in range(m - 2, -1, -1):
        np.add(fe[i + 1], h[i + 1], ahead[:t])
        ahead[t] = _max(ahead.take(open_cols, 0), 0, initial=NEG_INF)
        np.add(_max(ahead.take(closed_succ, 0), 1), 1.0, h[i])
    return h.transpose(2, 0, 1)


def log_partition(jin: JointScoreInputs) -> JointPosterior:
    """Exact log Z plus intent marginals q(y) and joint unary marginals.

    slot_unary_marginals[y, i, o] is the joint probability of {intent = y
    and t_i = o}; each (y, i) slice sums to q(y), and cells masked by the
    relation mask are exactly zero.
    """
    fe = apply_relation_mask(jin.f_o, jin.rm, slice(None))  # (Y, m, T)
    trans, start = jin.tm.trans, jin.tm.start
    # one intent at a time: its (T, T) temporaries stay in cache
    alpha = np.stack([_sweep(f[::-1], trans.T, start)[::-1] for f in fe]) + fe
    beta = np.stack([_sweep(f, trans, 0.0) for f in fe])
    intent_score = jin.lam * jin.f_l
    log_joint = intent_score + logsumexp(alpha[:, -1], axis=-1)
    log_z = float(logsumexp(log_joint, axis=0))
    if log_z == NEG_INF:
        raise InfeasibleLattice("every (intent, slot sequence) pair is masked")
    # an infeasible intent has alpha + beta = -inf everywhere: exactly zero mass
    unary = np.exp(intent_score[:, None, None] + alpha + beta - log_z)
    return JointPosterior(
        log_z=log_z, intent_marginals=np.exp(log_joint - log_z), slot_unary_marginals=unary
    )


def nll_loss(
    gold_y: int, gold_t: np.ndarray, jin: JointScoreInputs
) -> tuple[float, JointPosterior]:
    """Cross-entropy of the gold pair: log Z - R(gold); always >= 0."""
    r = joint_score(gold_y, gold_t, jin)
    if r == NEG_INF:
        raise InfeasibleGold(
            f"gold pair (intent {gold_y}, slots {list(np.asarray(gold_t))}) is masked"
        )
    post = log_partition(jin)
    return max(0.0, post.log_z - r), post


def loss_gradients(
    gold_y: int, gold_t: np.ndarray, post: JointPosterior, jin: JointScoreInputs
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the joint cross-entropy w.r.t. f_l and f_o.

    d L / d f_l[y]    = lam * (q(y) - 1[y = gold])
    d L / d f_o[i][o] = sum_y mu_y(i, o) - 1[gold_t_i = o]
    Masked cells have mu = 0, so they receive zero gradient through the
    partition term.
    """
    gold_t = np.asarray(gold_t, dtype=int)
    d_fl = jin.lam * post.intent_marginals.copy()
    d_fl[gold_y] -= jin.lam
    d_fo = post.slot_unary_marginals.sum(axis=0)
    d_fo[np.arange(gold_t.shape[0]), gold_t] -= 1.0
    return d_fl, d_fo


def viterbi_decode(jin: JointScoreInputs) -> tuple[int, np.ndarray, float]:
    """Highest-scoring feasible (intent, slot sequence) pair.

    Ties break to the lowest intent id, then the lexicographically smallest
    slot-id sequence; the greedy forward pass below picks, at each
    position, the smallest slot id that still admits an optimal completion
    (np.argmax returns the first maximizer).  The returned score is the
    path's running sum, added up in joint_score's order, so it matches
    joint_score bit for bit.
    """
    fe = apply_relation_mask(jin.f_o, jin.rm, slice(None))  # (Y, m, T)
    sm = _suffix_max(fe, jin.tm)
    first = jin.tm.start + fe[:, 0] + sm[:, 0]
    totals = jin.lam * jin.f_l + np.max(first, axis=1)
    if np.max(totals) == NEG_INF:
        raise InfeasibleLattice("every (intent, slot sequence) pair is masked")
    best_y = int(np.argmax(totals))
    fe, sm = fe[best_y], sm[best_y]
    path = np.empty(jin.n_positions, dtype=int)
    acc, into = 0.0, jin.tm.start
    for i in range(jin.n_positions):
        o = path[i] = int(np.argmax(acc + into + fe[i] + sm[i]))
        acc = acc + into[o] + fe[i, o]
        into = jin.tm.trans[o]
    return best_y, path, float(jin.lam * jin.f_l[best_y] + acc)
