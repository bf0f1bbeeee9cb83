"""Exact joint inference over (intent, slot sequence) pairs.

The joint score of a pair is

    R(y, t) = lam * f_l[y] + sum_i ( f_e(t_i | y) + f_t(t_i | t_{i-1}) )

with f_e the relation-masked slot emissions and f_t the transition mask
(START row for t_0).  Every function takes one query or a batch of Q
queries of any lengths, and one query is the Q = 1 case.  Slot scores
are rows, one per token: one query's (m, T), or a batch's (N, T), its
queries' rows laid end to end in query order with (Q,) lengths that sum
to N, as PackedSequence.data lays them.  Every output indexed by row
keeps that layout: marginals (Y, N, T), slot gradients (N, T), gold
slots and Viterbi paths (N,).  Inside, the dynamic programs run packed:
the queries are ordered longest first, stably, so the queries that run
through a position are a prefix of that order, and each program works on
that prefix only, on packed rows that hold one (query, position) pair
each, position-major.  Each program is one sweep over positions for
every intent and every live query at once, and each runs on the mask's
open/closed form (TransitionMask), not on the dense (T, T) transitions,
with outputs bit-identical to the dense recursions.  The sum-product
sweeps give log Z and the marginals:

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
successors per position, O(Y T (K+1)) instead of O(Y T^2).

A batch changes no bit.  Every step is elementwise along the query and
label axes, or a reduction whose grouping does not depend on them: the
forward's in-order accumulate along its predecessor axis, the backward's
pairwise sum along each contiguous row, the per-row sums of logsumexp,
and maxima, which do not round.  So each query's every value is rounded
as in a call on that query alone.  Masked configurations carry IEEE -inf,
whose exp is exactly 0, so they contribute exactly zero probability mass
and never produce NaN: each logsumexp subtracts its max only when the max
is finite.  Scores must be finite, so NaN and +inf are rejected where the
inputs are built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabelMismatch, LengthMismatch
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
    """One query's scores, or a batch of Q queries' scores; every query
    shares the masks and lam.

    A batch's f_l is (Q, Y), and its f_o is (N, T): its queries' rows laid
    end to end in query order, query q's lengths[q] rows starting at row
    sum(lengths[:q]).  lengths is given exactly for a batch; each is at
    least 1, and they sum to N."""

    f_l: np.ndarray  # (Y,) or (Q, Y)
    f_o: np.ndarray  # (m, T) or (N, T)
    rm: RelationMask
    tm: TransitionMask
    lam: float = 1.0
    lengths: np.ndarray | None = None  # a batch's (Q,) ints in 1..N, summing to N

    def __post_init__(self):
        self.f_l = np.asarray(self.f_l, dtype=float)
        self.f_o = np.asarray(self.f_o, dtype=float)
        if self.f_l.ndim not in (1, 2) or self.f_o.ndim != 2 or 0 in (self.f_l.shape[-1], *self.f_o.shape):
            raise ValueError(
                f"f_l {self.f_l.shape} and f_o {self.f_o.shape} are not (Y,) or (Q, Y), "
                "and (m, T) or (N, T), with Y, m, N and T >= 1")
        y, t = self.n_intents, self.n_slots
        if self.rm.rm.shape != (y, t):
            raise ValueError(f"relation mask shape {self.rm.rm.shape} != ({y}, {t})")
        if self.tm.start.shape != (t,):  # TransitionMask pins trans to (T, T)
            raise ValueError("transition mask shape mismatch")
        if not np.isfinite(self.lam):
            raise ValueError("lam must be finite")
        if self.batched != (self.lengths is not None):
            raise ValueError(f"lengths needs a batch, and a batch needs lengths; f_l is {self.f_l.shape}")
        if self.batched:
            lengths = self.lengths = np.asarray(self.lengths)
            batch, n = self.f_l.shape[:1], self.n_positions
            if lengths.shape != batch or not np.issubdtype(lengths.dtype, np.integer):
                raise ValueError(f"lengths {lengths.shape} {lengths.dtype} are not {batch} integers")
            if np.any((lengths < 1) | (lengths > n)):
                raise ValueError(f"lengths must lie in 1..{n}")
            if lengths.sum() != n:  # cannot overflow: each length is at most n
                raise ValueError(f"lengths sum to {lengths.sum()}, not to the {n} rows of f_o")
        for name, scores in (("f_l", self.f_l), ("f_o", self.f_o)):
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
        """The rows of f_o: one query's m, or a batch's N."""
        return self.f_o.shape[0]

    @property
    def n_slots(self) -> int:
        return self.f_o.shape[1]


def _queries(jin: JointScoreInputs) -> tuple[np.ndarray, np.ndarray]:
    """Each query's row count and first row of f_o, (Q,) each."""
    lengths = np.array([jin.n_positions]) if jin.lengths is None else jin.lengths
    return lengths, np.cumsum(lengths) - lengths


@dataclass
class JointPosterior:
    """log Z, q(y) and the joint unary marginals of one query, or of each
    query of a batch."""

    log_z: float | np.ndarray  # a float, or (Q,)
    intent_marginals: np.ndarray  # (Y,) or (Q, Y): q(y)
    slot_unary_marginals: np.ndarray  # (Y, N, T): joint P(intent=y, t_i=o) at each row i of f_o


@dataclass(frozen=True)
class _Packed:
    """A batch packed longest query first (see the module docstring).

    Sorted query s is query order[s], of length lengths[s].  Packed row r
    is sorted query rank[r] at position pos[r], which is row src[r] of
    f_o; position-major: position i's rows are the live[i] from starts[i],
    and they hold the sorted queries 0 .. live[i] - 1.  fe holds each
    row's relation-masked emissions, (N, Y, T).
    """

    order: np.ndarray
    lengths: np.ndarray
    rank: np.ndarray
    pos: np.ndarray
    src: np.ndarray
    live: list[int]
    starts: list[int]
    fe: np.ndarray


def _pack(jin: JointScoreInputs) -> _Packed:
    lengths, starts = _queries(jin)
    order = np.argsort(-lengths, kind="stable")
    first, lengths = starts[order], lengths[order]
    pos, rank = np.nonzero(np.arange(lengths[0])[:, None] < lengths)
    live = np.bincount(pos)
    src = first[rank] + pos
    fe = apply_relation_mask(jin.f_o[src][:, None, None], jin.rm, slice(None))[:, :, 0]
    return _Packed(order, lengths, rank, pos, src, live.tolist(), (np.cumsum(live) - live).tolist(), fe)


def _gold(
    gold_y: int | np.ndarray, gold_t: np.ndarray, jin: JointScoreInputs
) -> tuple[np.ndarray, np.ndarray]:
    """The gold intents (Q,) of a batch, or of one query as Q = 1, and
    their slot ids (N,), one per row of f_o, as viterbi_decode gives its
    paths.  An id outside the label space raises LabelMismatch, and gold of
    another shape LengthMismatch."""
    ys, ts = np.asarray(gold_y), np.asarray(gold_t)
    batch, n = jin.f_l.shape[:-1], jin.n_positions
    if ys.shape != batch or ts.shape != (n,):
        raise LengthMismatch(f"gold intents {ys.shape} and slots {ts.shape} are not "
                             f"{batch} and {(n,)}, one per query and row")
    if not (np.issubdtype(ys.dtype, np.integer) and np.issubdtype(ts.dtype, np.integer)):
        raise LabelMismatch(f"gold ids must be integers, not {ys.dtype} and {ts.dtype}")
    ys = ys.reshape(-1)
    bad_y = ys[(ys < 0) | (ys >= jin.n_intents)]
    if bad_y.size:
        raise LabelMismatch(f"gold intent {bad_y[0]} lies outside the {jin.n_intents} intents")
    bad_t = ts[(ts < 0) | (ts >= jin.n_slots)]
    if bad_t.size:
        raise LabelMismatch(f"gold slot id {bad_t[0]} lies outside the {jin.n_slots} slot labels")
    return ys, ts


def joint_score(
    y: int | np.ndarray, t: np.ndarray, jin: JointScoreInputs
) -> float | np.ndarray:
    """R(y, t) of one query, a float, or of each query of a batch, (Q,),
    from (Q,) intents and (N,) slot ids, one per row of f_o; -inf iff any
    emission or transition factor is masked."""
    ys, ts = _gold(y, t, jin)
    (lengths, starts), rows = _queries(jin), np.arange(ts.size)
    # START, an emission, then a transition and an emission per position,
    # added in that order by add.accumulate, query by query: the recursions'
    # association, so degenerate one-path lattices give bit-identical scores
    factors = np.empty((ts.size, 2))
    factors[:, 0] = np.where(np.isin(rows, starts), jin.tm.start[ts], jin.tm.trans[ts[rows - 1], ts])
    factors[:, 1] = np.where(jin.rm.rm[np.repeat(ys, lengths), ts], jin.f_o[rows, ts], NEG_INF)
    path_sums = [np.add.accumulate(f)[-1] for f in np.split(factors.ravel(), 2 * starts[1:])]
    r = jin.lam * jin.f_l.reshape(ys.size, -1)[np.arange(ys.size), ys] + path_sums
    return r if jin.batched else float(r[0])


def _lse_in_order(a: np.ndarray) -> np.ndarray:
    """logsumexp over axis 0, adding the terms in index order.

    The same steps as logsumexp, but add.accumulate is sequential whatever
    the shape, where a sum whose other axes are all of size 1 is pairwise.
    """
    mx = _max(a, 0)
    safe = np.where(np.isfinite(mx), mx, 0.0)
    return np.log(np.add.accumulate(np.exp(a - safe), 0)[-1]) + safe


def _forward(fe: np.ndarray, tm: TransitionMask, live: list[int], starts: list[int]) -> np.ndarray:
    """Forward scores, left to right over a packed (N, Y, T) stack (see
    _Packed for live and starts).

    At a query's first position alpha[o] = start[o] + fe[o], and one
    position on alpha[o] = logsumexp_p(trans[p, o] + alpha[p]) + fe[o],
    summed over the allowed p in index order (see the module docstring).
    The queries running at a position are the first of those running one
    position back.  The padding of tm.closed_pred reads the sentinel row
    T, held at -inf.  The work runs label-major, (T, N, Y), so both gathers
    take whole rows, and alpha comes back in that layout.  Call under
    np.errstate(divide="ignore").
    """
    n, y, t = fe.shape
    open_cols, closed_cols = tm.open_cols, tm.closed_cols
    pred = tm.closed_pred.T  # (J, C): axis 0 walks each column's predecessors
    fe = fe.transpose(2, 0, 1)
    alpha = np.empty((t, n, y))
    np.add(tm.start[:, None, None], fe[:, : live[0]], alpha[:, : live[0]])
    ahead = np.empty((0, 0, 0))
    for a, back, k in zip(starts[1:], starts, live[1:]):
        if ahead.shape[1] != k:  # a buffer per width; its sentinel row T stays -inf
            ahead = np.full((t + 1, k, y), NEG_INF)
        np.add(alpha[:, back : back + k], 1.0, ahead[:t])  # every allowed transition scores 1
        now = alpha[:, a : a + k]
        now[open_cols] = _lse_in_order(ahead[:t])
        if closed_cols.size:
            now[closed_cols] = _lse_in_order(ahead.take(pred, 0))
        now += fe[:, a : a + k]
    return alpha


def _backward(
    fe: np.ndarray, tm: TransitionMask, rm: np.ndarray, live: list[int], starts: list[int]
) -> np.ndarray:
    """Backward scores, right to left over a packed (N, Y, T) stack, in
    that layout (see _Packed for live and starts).

    beta = 0 at a query's last position, and before it
    beta[o] = logsumexp_p(trans[o, p] + fe[p] + beta[p]) one position on.
    Each class's row sum runs whole over a C-contiguous (k, Y, R, T) array,
    so numpy groups it as it grouped the dense row.  terms holds the exp of
    the cells both masks allow and 0 elsewhere; tm.row_class copies each
    class's result to its rows.  The row max is _suffix_max's structured
    one: every allowed transition scores 1 and rounding is monotone, so
    1 + max equals the dense max bit for bit.  Call under
    np.errstate(divide="ignore").
    """
    n, y, t = fe.shape
    beta = np.zeros((n, y, t))
    if len(live) == 1:
        return beta
    r, k_max = tm.row_rep.size, live[1]
    succ = tm.closed_succ[tm.row_rep]
    # the cells both masks allow, as flat indices into the (k, Y, R, T)
    # terms; yr indexes the (k, Y, R) row maxima and cell the (k, Y, T+1)
    # ahead buffer, query by query
    one = np.flatnonzero(rm[:, None, :] & (tm.trans[tm.row_rep] == 1.0))
    yr, p = np.divmod(one, t)
    query = np.arange(k_max)[:, None]
    into = (query * (y * r * t) + one).ravel()
    cell = (query * (y * (t + 1)) + yr // r * (t + 1) + p).ravel()
    yr = (query * (y * r) + yr).ravel()
    terms = np.zeros((k_max, y, r, t))
    buf = np.empty((k_max, y, t + 1))
    for i in range(len(live) - 2, -1, -1):
        k, nxt, c = live[i + 1], starts[i + 1], live[i + 1] * one.size
        ahead = buf[:k]
        np.add(fe[nxt : nxt + k], beta[nxt : nxt + k], ahead[..., :t])
        ahead[..., t] = _max(ahead.take(tm.open_cols, 2), 2, initial=NEG_INF)
        mx = _max(ahead.take(succ, 2), 3) + 1.0
        safe = np.where(np.isfinite(mx), mx, 0.0)
        np.put(terms, into[:c], np.exp(ahead.take(cell[:c]) + 1.0 - safe.take(yr[:c])))
        now = (np.log(np.add.reduce(terms[:k], -1)) + safe)[..., tm.row_class]
        beta[starts[i] : starts[i] + k] = now
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
    """Exact log Z plus intent marginals q(y) and joint unary marginals, of
    one query or of each query of a batch, each exactly as a call on that
    query alone gives them.

    slot_unary_marginals[y, i, o] is the joint probability of {intent = y
    and t = o at row i of f_o} under row i's query; each (y, i) slice sums
    to that query's q(y), and cells masked by the relation mask are exactly
    zero.  The marginals are C-ordered (Y, N, T), one column per row of
    f_o.
    """
    pk = _pack(jin)
    q, y, t = pk.lengths.size, jin.n_intents, jin.n_slots
    with np.errstate(divide="ignore"):
        alpha = _forward(pk.fe, jin.tm, pk.live, pk.starts)
        beta = _backward(pk.fe, jin.tm, jin.rm.rm, pk.live, pk.starts)
    intent_score = jin.lam * jin.f_l.reshape(q, y)[pk.order]
    # each query's last row, C-ordered (Q, Y, T) as the dense code's rows
    # were: logsumexp sums each contiguous row pairwise
    last_rows = np.array(pk.starts)[pk.lengths - 1] + np.arange(q)
    last = np.ascontiguousarray(alpha.transpose(1, 2, 0)[last_rows])
    log_joint = intent_score + logsumexp(last, axis=-1)
    log_z = logsumexp(log_joint, axis=-1)
    if np.any(log_z == NEG_INF):
        raise InfeasibleLattice("every (intent, slot sequence) pair is masked")
    # an infeasible intent has alpha + beta = -inf everywhere: exactly zero
    # mass.  unary is (Y, N, T), for one query the C-ordered (Y, m, T) that
    # loss_gradients sums over intents as the dense code's marginals were
    unary = np.empty((y, pk.rank.size, t))
    np.add(intent_score[pk.rank].T[:, :, None], alpha.transpose(2, 1, 0), unary)
    unary += beta.transpose(1, 0, 2)
    unary -= log_z[pk.rank][:, None]
    np.exp(unary, unary)
    intent_marginals = np.exp(log_joint - log_z[:, None])
    if not jin.batched:  # one query's packed rows are its rows, in order
        return JointPosterior(float(log_z[0]), intent_marginals[0], unary)
    marginals = np.empty_like(unary)
    marginals[:, pk.src] = unary
    in_order = JointPosterior(np.empty_like(log_z), np.empty_like(intent_marginals), marginals)
    in_order.log_z[pk.order], in_order.intent_marginals[pk.order] = log_z, intent_marginals
    return in_order


def nll_loss(
    gold_y: int | np.ndarray, gold_t: np.ndarray, jin: JointScoreInputs
) -> tuple[float | np.ndarray, JointPosterior]:
    """Cross-entropy of each query's gold pair: log Z - R(gold), clamped to
    0.0 from below (rounding can leave it just under 0); a NaN passes
    through.  One query gives a float, a batch (Q,) losses; gold pairs are
    given as joint_score takes them.  A masked gold pair raises
    InfeasibleGold."""
    r = joint_score(gold_y, gold_t, jin)
    masked = np.flatnonzero(np.reshape(r, -1) == NEG_INF)
    if masked.size:
        n, (lengths, starts) = masked[0], _queries(jin)
        y, t = np.reshape(gold_y, -1)[n], np.asarray(gold_t)[starts[n] : starts[n] + lengths[n]]
        where = f" (query {n} of the batch)" if jin.batched else ""
        raise InfeasibleGold(f"gold pair (intent {y}, slots {t.tolist()}) is masked{where}")
    post = log_partition(jin)
    loss = post.log_z - r
    loss = np.where(loss <= 0, 0.0, loss)
    return (loss if jin.batched else float(loss)), post


def loss_gradients(
    gold_y: int | np.ndarray, gold_t: np.ndarray, post: JointPosterior, jin: JointScoreInputs
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the joint cross-entropy w.r.t. f_l and f_o.

    d L / d f_l[y]    = lam * (q(y) - 1[y = gold])
    d L / d f_o[i][o] = sum_y mu_y(i, o) - 1[gold_t_i = o]
    Masked cells have mu = 0, so they receive zero gradient through the
    partition term.  d_fl has f_l's shape, (Y,) or (Q, Y), and d_fo has
    f_o's, (m, T) or (N, T).
    """
    ys, ts = _gold(gold_y, gold_t, jin)
    d_fl = jin.lam * post.intent_marginals.copy()
    d_fl.reshape(ys.size, -1)[np.arange(ys.size), ys] -= jin.lam
    marginals = post.slot_unary_marginals
    d_fo = marginals.sum(axis=0)
    if jin.n_slots == 1:
        # numpy sums a lone cell's intents pairwise, in order otherwise; a
        # one-row query alone is such a cell, so its row is summed alone
        lengths, starts = _queries(jin)
        one = starts[lengths == 1]
        d_fo[one, 0] = np.ascontiguousarray(marginals[:, one, 0].T).sum(axis=1)
    d_fo[np.arange(ts.size), ts] -= 1.0
    return d_fl, d_fo


def viterbi_decode(
    jin: JointScoreInputs,
) -> tuple[int, np.ndarray, float] | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Highest-scoring feasible (intent, slot sequence) pair of each query.

    One query gives (y, path (m,), score); a batch of Q gives the (Q,)
    intents, the (N,) paths, one slot id per row of f_o, and the (Q,)
    scores, in query order and each exactly as a call on that query alone
    would give them.  The lattice is packed (see the module docstring):
    the queries are sorted longest first, stably, and each position works
    on the prefix of them that runs through it.  Ties break to the lowest
    intent id, then the lexicographically smallest slot-id sequence; the
    greedy forward pass below picks, at each position, the smallest slot
    id that still admits an optimal completion (np.argmax returns the first
    maximizer).  The returned score is the path's running sum, added up in
    joint_score's order, so it matches joint_score bit for bit.
    """
    pk = _pack(jin)
    order, rank, pos, fe = pk.order, pk.rank, pk.pos, pk.fe
    q, y, t = order.size, jin.n_intents, jin.n_slots
    f_l = jin.f_l.reshape(q, y)[order]
    sm = _suffix_max(fe.transpose(2, 0, 1), jin.tm, pk.live)
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
    at = (t * np.array(pk.starts)[pos] + rank) * y + chosen
    fe = fe[np.arange(rank.size), chosen]
    sm = sm.take(at[:, None] + np.arange(t) * (y * np.array(pk.live)[pos])[:, None])
    path = np.empty(rank.size, dtype=int)
    acc, into, a, queries = np.zeros((q, 1)), jin.tm.start[None], 0, np.arange(q)
    for k in pk.live:
        # each live query's running sum through t_i = o, then its best completion
        reach = acc[:k] + into[:k] + fe[a : a + k]
        o = path[a : a + k] = np.argmax(reach + sm[a : a + k], axis=1)
        acc[:k, 0] = reach[queries[:k], o]
        into, a = jin.tm.trans.take(o, 0), a + k
    score = jin.lam * f_l[queries, best_y] + acc[:, 0]
    ys, scores, paths = np.empty_like(best_y), np.empty_like(score), np.empty_like(path)
    ys[order], scores[order], paths[pk.src] = best_y, score, path
    if jin.batched:
        return ys, paths, scores
    return int(ys[0]), paths, float(scores[0])
