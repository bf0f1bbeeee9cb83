"""Exact joint inference over (intent, slot sequence) pairs.

The joint score of a pair is

    R(y, t) = lam * f_l[y] + sum_i ( f_e(t_i | y) + f_t(t_i | t_{i-1}) )

with f_e the relation-masked slot emissions and f_t the transition mask
(START row for t_0).  Each dynamic program is one sweep over positions for
every intent at once, and each runs on the mask's open/closed form
(TransitionMask), not on the dense (T, T) transitions, with outputs
bit-identical to the dense recursions.  The sum-product sweeps give log Z
and the marginals:

  - _forward sums each column's predecessors in index order, as numpy does
    the dense forward's strided sums.  One logsumexp over all T
    predecessors serves every open column, and a gather of
    TransitionMask.closed_pred serves the closed ones.  A banned
    predecessor's term is exp(-inf) = 0, and adding 0 is exact, so leaving
    it out keeps every bit.
  - _backward's dense row sums are contiguous, so numpy sums them pairwise,
    and there dropping a zero term would regroup the others.  It only
    deduplicates: rows with the same successors are summed once per class
    (TransitionMask.row_rep), whole.  Only the cells both masks allow are
    exponentiated; the rest stay at the exp(-inf) = 0 they stand for.

The max-plus sweep, _suffix_max, gives the best completions that Viterbi
reads greedily: one max over the open columns and one over the closed
successors per position, O(Y T (K+1)) instead of O(Y T^2).  Viterbi
decodes a batch of Q queries of any lengths at once (JointScoreInputs with
a leading query axis and, for a ragged batch, their lengths).  The batch is
packed, as a PackedSequence is: the queries are ordered longest first, so
the queries that run through a position are a prefix of that order, and
the sweep and the greedy pass work on that prefix only.  Packed rows hold
one (query, position) pair each, position-major, and no padded cell is
read, computed or stored.  Both passes are elementwise sums and maxima
along the label axes, so a query's every value is rounded as in a call on
that query alone, and the batch changes no bit; one query is the Q = 1
case.  The sum-product sweeps take one query at a time.  Masked
configurations carry IEEE -inf, whose exp is exactly 0, so they contribute
exactly zero probability mass and never produce NaN: each logsumexp
subtracts its max only when the max is finite.  Scores must be finite, so
NaN and +inf are rejected where the inputs are built.
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
    """One query's scores, or a batch of Q queries' scores stacked on a
    leading axis; every query shares the masks and lam.

    A batch's f_o is (Q, M, T), and lengths, if given, holds each query's
    length, 1 to M: cells past it are never read, so they may hold
    anything.  Without lengths every query runs all M positions."""

    f_l: np.ndarray  # (Y,) or (Q, Y)
    f_o: np.ndarray  # (m, T) or (Q, M, T)
    rm: RelationMask
    tm: TransitionMask
    lam: float = 1.0
    lengths: np.ndarray | None = None  # (Q,) ints in 1..M

    def __post_init__(self):
        self.f_l = np.asarray(self.f_l, dtype=float)
        self.f_o = np.asarray(self.f_o, dtype=float)
        batch = self.f_l.shape[:-1]  # () or (Q,)
        if (self.f_l.ndim not in (1, 2) or self.f_o.shape[:-2] != batch or self.f_o.ndim < 2
                or 0 in (self.f_l.shape[-1], *self.f_o.shape[-2:])):
            raise ValueError(
                f"f_l {self.f_l.shape} and f_o {self.f_o.shape} are not (Y,) and (m, T), "
                "nor (Q, Y) and (Q, m, T), with Y, m and T >= 1")
        y, t = self.n_intents, self.n_slots
        if self.rm.rm.shape != (y, t):
            raise ValueError(f"relation mask shape {self.rm.rm.shape} != ({y}, {t})")
        if self.tm.start.shape != (t,):  # TransitionMask pins trans to (T, T)
            raise ValueError("transition mask shape mismatch")
        if not np.isfinite(self.lam):
            raise ValueError("lam must be finite")
        real = self.f_o
        if self.lengths is not None:
            lengths = self.lengths = np.asarray(self.lengths)
            if not self.batched:
                raise ValueError("lengths needs a batch: (Q, Y) and (Q, M, T) scores")
            if lengths.shape != batch or not np.issubdtype(lengths.dtype, np.integer):
                raise ValueError(f"lengths {lengths.shape} {lengths.dtype} are not {batch} integers")
            if np.any((lengths < 1) | (lengths > self.n_positions)):
                raise ValueError(f"lengths must lie in 1..{self.n_positions}")
            real = self.f_o[np.arange(self.n_positions) < lengths[:, None]]
        for name, scores in (("f_l", self.f_l), ("f_o", real)):
            if not np.all(np.isfinite(scores)):
                raise NonFiniteScores(f"{name} holds NaN or infinite scores")

    @property
    def batched(self) -> bool:
        return self.f_l.ndim == 2

    @property
    def n_intents(self) -> int:
        return self.f_l.shape[-1]

    @property
    def n_positions(self) -> int:
        return self.f_o.shape[-2]

    @property
    def n_slots(self) -> int:
        return self.f_o.shape[-1]


def _one_query(jin: JointScoreInputs, what: str) -> None:
    if jin.batched:
        raise ValueError(f"{what} takes one query's scores, not a batch")


@dataclass
class JointPosterior:
    log_z: float
    intent_marginals: np.ndarray  # (Y,) q(y)
    slot_unary_marginals: np.ndarray  # (Y, m, T) joint P(intent=y, t_i=o)


def joint_score(y: int, t: np.ndarray, jin: JointScoreInputs) -> float:
    """R(y, t); -inf iff any emission or transition factor is masked."""
    _one_query(jin, "joint_score")
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


def _lse_in_order(a: np.ndarray) -> np.ndarray:
    """logsumexp over axis 0, adding the terms in index order.

    The same steps as logsumexp, but add.accumulate is sequential whatever
    the shape, where a sum whose other axes are all of size 1 is pairwise.
    """
    mx = _max(a, 0)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    return np.log(np.add.accumulate(np.exp(a - safe), 0)[-1]) + safe


def _forward(fe: np.ndarray, tm: TransitionMask) -> np.ndarray:
    """Forward scores, left to right over a (Y, m, T) stack.

    alpha[:, 0, o] = start[o] + fe[:, 0, o] and
    alpha[:, j, o] = logsumexp_p(trans[p, o] + alpha[:, j-1, p]) + fe[:, j, o],
    summed over the allowed p in index order (see the module docstring).
    The padding of tm.closed_pred reads the sentinel row T, held at -inf.
    The work runs label-major, (m, T, Y), so both gathers take whole rows.
    Call under np.errstate(divide="ignore").
    """
    y, m, t = fe.shape
    open_cols, closed_cols = tm.open_cols, tm.closed_cols
    pred = tm.closed_pred.T  # (J, C): axis 0 walks each column's predecessors
    fe = fe.transpose(1, 2, 0)
    alpha = np.empty((m, t, y))
    np.add(tm.start[:, None], fe[0], alpha[0])
    ahead = np.full((t + 1, y), NEG_INF)
    for j in range(1, m):
        np.add(alpha[j - 1], 1.0, ahead[:t])  # every allowed transition scores 1
        alpha[j, open_cols] = _lse_in_order(ahead[:t])
        if closed_cols.size:
            alpha[j, closed_cols] = _lse_in_order(ahead.take(pred, 0))
        alpha[j] += fe[j]
    # C order, as the dense code left it: later row sums depend on the layout
    return np.ascontiguousarray(alpha.transpose(2, 0, 1))


def _backward(fe: np.ndarray, tm: TransitionMask) -> np.ndarray:
    """Backward scores, right to left over a (Y, m, T) stack.

    beta[:, m-1, :] = 0 and
    beta[:, i, o] = logsumexp_p(trans[o, p] + fe[:, i+1, p] + beta[:, i+1, p]).
    Each class's row sum runs whole over a C-contiguous (Y, R, T) array, so
    numpy groups it as it grouped the dense row.  terms holds the exp of the
    cells both masks allow and 0 elsewhere; tm.row_class copies each class's
    result to its rows.  The row max is _suffix_max's structured one: every
    allowed transition scores 1 and rounding is monotone, so 1 + max equals
    the dense max bit for bit.  Call under np.errstate(divide="ignore").
    """
    y, m, t = fe.shape
    r = tm.row_rep.size
    succ = tm.closed_succ[tm.row_rep]
    # the cells both masks allow, as flat indices into the (Y, R, T) terms;
    # yr indexes the (Y, R) row maxima and cell the (Y, T+1) ahead buffer
    into = np.flatnonzero((fe > NEG_INF).any(axis=1)[:, None, :] & (tm.trans[tm.row_rep] == 1.0))
    yr, p = np.divmod(into, t)
    cell = yr // r * (t + 1) + p
    beta = np.zeros((y, m, t))
    terms = np.zeros((y, r, t))
    ahead = np.empty((y, t + 1))
    for i in range(m - 2, -1, -1):
        np.add(fe[:, i + 1], beta[:, i + 1], ahead[:, :t])
        ahead[:, t] = _max(ahead.take(tm.open_cols, 1), 1, initial=NEG_INF)
        mx = _max(ahead.take(succ, 1), 2) + 1.0
        safe = np.where(np.isfinite(mx), mx, 0.0)
        np.put(terms, into, np.exp(ahead.take(cell) + 1.0 - safe.take(yr)))
        beta[:, i] = (np.log(np.add.reduce(terms, -1)) + safe)[:, tm.row_class]
    return beta


def _suffix_max(fe: np.ndarray, tm: TransitionMask, live: list[int]) -> np.ndarray:
    """Best completion after t_i = o, right to left over a packed (T, N, Y)
    stack: position i's rows are the live[i] columns from sum(live[:i]),
    and the rows still running at i + 1 are the first live[i + 1] of them.

    h = 0 at a query's last position, and before it h[o] = 1 + max of
    fe[p] + h[p] one position on, over the p that may follow o.  Per
    position that is one max over tm.open_cols, stored in the sentinel row
    T, and one max over the gather of tm.closed_succ, whose rows all end
    with T: O(Y T (K+1)) instead of O(Y T^2).  Every allowed transition
    scores exactly 1 and rounding is monotone, so adding it after the max
    equals the dense max_p(trans[o, p] + ...) bit for bit.  The work runs
    label-major, (T, k·Y), so both gathers take whole rows.  h comes back
    flat, one C-ordered (T, live[i]·Y) block per position, so each step
    reads and writes whole blocks.
    """
    t, n, y = fe.shape
    open_cols, closed_succ = tm.open_cols, tm.closed_succ
    ends = np.cumsum(live).tolist()  # position i's rows end where i + 1's start
    h = np.zeros(t * n * y)
    block = [h[t * y * (end - k) : t * y * end].reshape(t, k * y) for k, end in zip(live, ends)]
    buf = np.empty((t + 1) * live[0] * y)
    for i in range(len(live) - 2, -1, -1):
        k, nxt = live[i + 1], ends[i]
        ahead = buf[: (t + 1) * k * y].reshape(t + 1, k * y)
        np.add(fe[:, nxt : nxt + k], block[i + 1].reshape(t, k, y), ahead[:t].reshape(t, k, y))
        ahead[t] = _max(ahead.take(open_cols, 0), 0, initial=NEG_INF)
        np.add(_max(ahead.take(closed_succ, 0), 1), 1.0, block[i][:, : k * y])
    return h


def log_partition(jin: JointScoreInputs) -> JointPosterior:
    """Exact log Z plus intent marginals q(y) and joint unary marginals.

    slot_unary_marginals[y, i, o] is the joint probability of {intent = y
    and t_i = o}; each (y, i) slice sums to q(y), and cells masked by the
    relation mask are exactly zero.
    """
    _one_query(jin, "log_partition")
    fe = apply_relation_mask(jin.f_o, jin.rm, slice(None))  # (Y, m, T)
    with np.errstate(divide="ignore"):
        alpha, beta = _forward(fe, jin.tm), _backward(fe, jin.tm)
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
    """Cross-entropy of the gold pair: log Z - R(gold), clamped to 0.0 from
    below (rounding can leave it just under 0); a NaN passes through."""
    _one_query(jin, "nll_loss")
    r = joint_score(gold_y, gold_t, jin)
    if r == NEG_INF:
        raise InfeasibleGold(
            f"gold pair (intent {gold_y}, slots {list(np.asarray(gold_t))}) is masked"
        )
    post = log_partition(jin)
    loss = post.log_z - r
    return (0.0 if loss <= 0 else loss), post


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


def viterbi_decode(
    jin: JointScoreInputs,
) -> tuple[int, np.ndarray, float] | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Highest-scoring feasible (intent, slot sequence) pair of each query.

    One query gives (y, path (m,), score); a batch of Q gives the (Q,)
    intents, the (Q, M) paths, -1 past each query's length, and the (Q,)
    scores, in query order and each exactly as a call on that query alone
    would give them.  The batch is packed (see the module docstring): the
    queries are sorted longest first, stably, and each position works on
    the prefix of them that runs through it.  Ties break to the lowest
    intent id, then the lexicographically smallest slot-id sequence; the
    greedy forward pass below picks, at each position, the smallest slot
    id that still admits an optimal completion (np.argmax returns the first
    maximizer).  The returned score is the path's running sum, added up in
    joint_score's order, so it matches joint_score bit for bit.
    """
    f_l = jin.f_l.reshape(-1, jin.n_intents)
    q, y, m, t = f_l.shape[0], jin.n_intents, jin.n_positions, jin.n_slots
    lengths = np.full(q, m) if jin.lengths is None else jin.lengths
    order = np.argsort(-lengths, kind="stable")
    f_l, lengths = f_l[order], lengths[order]
    # packed row r is query order[rank[r]] at position pos[r], position-major;
    # the live[i] queries order[:live[i]] run through position i
    pos, rank = np.nonzero(np.arange(lengths[0])[:, None] < lengths)
    live = np.bincount(pos)
    rows = jin.f_o.reshape(-1, m, t)[order[rank], pos]
    fe = apply_relation_mask(rows[:, None, None], jin.rm, slice(None))[:, :, 0]  # (N, Y, T)
    sm = _suffix_max(fe.transpose(2, 0, 1), jin.tm, live.tolist())
    # position 0 holds every query: its block is sm's first (T, Q·Y)
    first = jin.tm.start + fe[:q] + sm[: t * q * y].reshape(t, q, y).transpose(1, 2, 0)
    totals = jin.lam * f_l + _max(first, 2)
    if np.any(_max(totals, 1) == NEG_INF):
        raise InfeasibleLattice("every (intent, slot sequence) pair is masked")
    best_y = np.argmax(totals, axis=1)
    # each row's emissions and best completions under its query's intent, (N, T);
    # in position pos[r]'s (T, live·Y) block, row r's completion for label o
    # sits at o·live·Y + rank[r]·Y + its intent
    chosen = best_y[rank]
    at = (t * (np.cumsum(live) - live)[pos] + rank) * y + chosen
    fe = fe[np.arange(rank.size), chosen]
    sm = sm.take(at[:, None] + np.arange(t) * (y * live[pos])[:, None])
    path = np.empty(rank.size, dtype=int)
    acc, into, a, queries = np.zeros((q, 1)), jin.tm.start[None], 0, np.arange(q)
    for k in live.tolist():
        # each live query's running sum through t_i = o, then its best completion
        reach = acc[:k] + into[:k] + fe[a : a + k]
        o = path[a : a + k] = np.argmax(reach + sm[a : a + k], axis=1)
        acc[:k, 0] = reach[queries[:k], o]
        into, a = jin.tm.trans.take(o, 0), a + k
    score = jin.lam * f_l[queries, best_y] + acc[:, 0]
    ys, scores, paths = np.empty_like(best_y), np.empty_like(score), np.full((q, m), -1)
    ys[order], scores[order], paths[order[rank], pos] = best_y, score, path
    if jin.batched:
        return ys, paths, scores
    return int(ys[0]), paths[0], float(scores[0])
