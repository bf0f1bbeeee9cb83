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
slots and Viterbi paths (N,).

Inside, the dynamic programs run on one packed layout (_Packed).  The
queries are ordered longest first, stably, so the queries that run
through a position are a prefix of that order.  A packed row holds one
(query, position) pair, position-major: position i's rows are starts[i]
.. starts[i] + live[i] - 1, the sorted queries 0 .. live[i] - 1, and the
first live[i + 1] of them run on to position i + 1.  Every sweep runs on
one label axis, each intent's own labels (IntentLabels): its T_y allowed
ids, ascending, padded with -inf to W = max_y T_y (T when an intent
allows every label).  fe and every sweep's scores are row-major
(N, Y, W), so each position's scores are one contiguous block.  Each
sweep runs over positions once, for every intent and live query at once,
on the mask's open/closed form (TransitionMask), not on the dense (T, T)
transitions.  Every allowed (intent, label) cell is bit-identical to the
dense recursion's, where an unlisted label is -inf and its exp exactly 0:

  - _suffix_max, the max-plus sweep, gives the best completions that
    Viterbi reads greedily.  Maxima do not round, and the ascending order
    keeps the dense first-maximizer ties.
  - _forward sums each column's predecessors in index order, as numpy does
    the dense forward's strided sums: an open column reads its intent's
    in-order sum over its columns, a closed one gathers its closed_pred.
    Adding 0 is exact, so leaving out an unlisted label keeps every bit.
  - _backward's dense row sums are contiguous, so numpy sums them pairwise,
    and there dropping a zero would regroup the others.  So each row is
    summed whole over all T labels, once per (intent, class of equal rows)
    that some listed label reads (TransitionMask.row_class): P rows, at
    most Y R and at most the Y W columns.  Only the cells both masks allow
    are exponentiated, read from the planes, and the rest stay 0.

A position costs O(Y W (K+1)) in _suffix_max and _forward, K the longest
closed list, and O(P T) in _backward, not O(Y T^2).  log_partition
takes log Z's last rows and the marginals back to all T labels at the
end, where logsumexp and loss_gradients read them in the dense layout.

A batch changes no bit.  Every step is elementwise along the query and
label axes, or a reduction whose grouping does not depend on them: the
forward's in-order accumulate along its predecessor axis, the backward's
pairwise sum along each contiguous row, the per-row sums of logsumexp,
and maxima, which do not round.  So each query's every value is rounded
as in a call on that query alone.  Masked configurations carry IEEE -inf,
whose exp is exactly 0, so they contribute exactly zero probability mass
and never produce NaN: each logsumexp subtracts its max where it is
finite, and otherwise 0 (logsumexp) or the lowest double (the sweeps'
sums, one numpy call cheaper), which leaves every exp 0 and the log -inf.
Scores must be finite, so NaN and +inf are rejected where the inputs are
built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabelMismatch, LengthMismatch
from .masks import NEG_INF, IntentLabels, RelationMask, TransitionMask, apply_relation_mask, intent_labels


class InfeasibleGold(ValueError):
    """The gold (intent, slot sequence) pair is masked to -inf."""


class InfeasibleLattice(RuntimeError):
    """No feasible (intent, slot sequence) pair exists; cannot happen with a forced-O mask."""


class NonFiniteScores(ValueError):
    """An intent or slot score is NaN or infinite; masks, not scores, carry -inf."""


_max = np.maximum.reduce  # np.max without its Python-level dispatch
_LOWEST = np.finfo(float).min  # the sweeps' stand-in for an all -inf max (module docstring)


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) with max-subtraction; all -inf reduces to -inf, never NaN."""
    a = np.asarray(a, dtype=float)
    m = _max(a, axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.add.reduce(np.exp(a - safe), axis))  # np.sum's reduction, without its dispatch
    return out + safe.squeeze(axis)


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
    """A batch packed longest query first, in the module docstring's layout.

    Sorted query s is query order[s], of length lengths[s].  Packed row r
    is sorted query rank[r], at row src[r] of f_o; position i's rows are
    the live[i] from starts[i], and sorted query s ends at row last[s].
    """

    order: np.ndarray
    lengths: np.ndarray
    rank: np.ndarray
    src: np.ndarray
    live: list[int]
    starts: list[int]
    last: np.ndarray


def _pack(jin: JointScoreInputs) -> _Packed:
    lengths, starts = _queries(jin)
    order = np.argsort(-lengths, kind="stable")
    first, lengths = starts[order], lengths[order]
    pos, rank = np.nonzero(np.arange(lengths[0])[:, None] < lengths)
    live = np.bincount(pos)
    src = first[rank] + pos
    starts = np.cumsum(live) - live
    return _Packed(order, lengths, rank, src, live.tolist(), starts.tolist(),
                   starts[lengths - 1] + np.arange(lengths.size))


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


def _lse_in_order(a: np.ndarray, out: np.ndarray) -> None:
    """logsumexp over axis 1 of a 3-D array into out, as logsumexp's steps,
    but adding the terms in index order: add.accumulate is sequential,
    where a sum along a contiguous axis is pairwise."""
    mx = _max(a, 1)
    safe = np.maximum(mx, _LOWEST)
    np.add(np.log(np.add.accumulate(np.exp(a - safe[:, None]), 1)[:, -1]), safe, out)


def _forward(fe: np.ndarray, il: IntentLabels, tm: TransitionMask, live: list[int], starts: list[int]) -> np.ndarray:
    """Forward scores, left to right over the packed (N, Y, W) fe.

    At a query's first position alpha[o] = start[o] + fe[o], and one
    position on alpha[o] = logsumexp_p(trans[p, o] + alpha[p]) + fe[o],
    summed over the allowed p in index order.  Each step's plane holds
    alpha + 1 of every (intent, column), each intent's sum over its
    columns in its sentinel, one -inf cell, then each closed column's sum
    over its closed_pred.  A predecessor the intent does not list reads
    the -inf cell, never the sentinel, which a sum would count.  A column
    that pads the row reads the sentinel, and its fe of -inf makes it -inf.
    Call under np.errstate(divide="ignore").
    """
    n, y, w = fe.shape
    yw = y * w
    closed = (il.rm.rm & ~tm.is_open[il.labels]).ravel().nonzero()[0]
    unlisted = np.where(il.plane < yw, il.plane, yw + y)
    pred = unlisted[closed // w, tm.closed_pred[il.labels.flat[closed]].T]  # (J+1, C)
    reads = (yw + np.arange(y)).repeat(w)  # the plane cell each column adds fe to
    reads[closed] = yw + y + 1 + np.arange(closed.size)
    alpha = np.empty((n, y, w))
    np.add(tm.start[il.labels], fe[: live[0]], alpha[: live[0]])
    fe_rows, alpha_rows = fe.reshape(n, yw), alpha.reshape(n, yw)
    ahead = np.empty((0, 0))
    for a, back, k in zip(starts[1:], starts, live[1:]):
        if ahead.shape[0] != k:  # a plane per width, and its views
            ahead = np.empty((k, yw + y + 1 + closed.size))
            ahead[:, yw + y] = NEG_INF
            cells, open_sums, closed_sums = ahead[:, :yw], ahead[:, yw : yw + y], ahead[:, yw + y + 1 :]
            columns = cells.reshape(k, y, w).transpose(0, 2, 1)
        np.add(alpha_rows[back : back + k], 1.0, cells)  # every allowed transition scores 1
        _lse_in_order(columns, open_sums)
        if closed.size:
            _lse_in_order(ahead.take(pred, 1), closed_sums)
        np.add(ahead.take(reads, 1), fe_rows[a : a + k], alpha_rows[a : a + k])
    return alpha


def _backward(fe: np.ndarray, il: IntentLabels, tm: TransitionMask, live: list[int], starts: list[int]) -> np.ndarray:
    """Backward scores, right to left over the packed (N, Y, W) fe.

    beta = 0 at a query's last position, and before it
    beta[o] = logsumexp_p(trans[o, p] + fe[p] + beta[p]) one position on.
    A column's sum is its (intent, class) row's (TransitionMask.row_class),
    and only the P rows that some listed label reads are summed: O(P T) a
    position, where every row would cost O(Y R T).  terms, C-contiguous
    (k, P, T), holds the exp of the cells both masks allow, read from the
    planes, and 0 elsewhere, so each row's sum runs whole over all T
    labels, grouped as numpy grouped the dense row; each column then reads
    its row.  A column that pads the row may read any of them: its fe of
    -inf makes its alpha -inf.  The row max is _suffix_max's, gathered per
    row_rep: every allowed transition scores 1 and rounding is monotone,
    so 1 + max equals the dense max bit for bit.
    Call under np.errstate(divide="ignore").
    """
    n, y, w = fe.shape
    beta = np.zeros((n, y, w))
    yw, t, r = y * w, tm.start.size, tm.row_rep.size
    cls = np.arange(y)[:, None] * r + tm.row_class[il.labels]  # (Y, W): each column's (intent, class)
    # the rows read, and intent 0's first column's, so that P >= 1 when no
    # intent lists a label
    read = np.zeros(y * r, dtype=bool)
    read[cls[il.rm.rm]] = read[cls[0, 0]] = True
    row = (np.cumsum(read) - 1)[cls]  # each column's row among the P
    ky, kr = np.divmod(np.flatnonzero(read), r)  # each row's intent and class
    rep, p = tm.row_rep[kr], kr.size
    succ = il.plane[ky, tm.closed_succ[rep].T]  # (K+1, P)
    # the cells both masks allow, by row and column: flat indices into the
    # (k, P, T) terms, the (k, P) row maxima and the (k, Y W + Y) planes,
    # query by query
    ip, iw = (il.rm.rm[ky] & (tm.trans[rep[:, None], il.labels[ky]] == 1.0)).nonzero()
    iy, query = ky[ip], np.arange(max(live[1:], default=0))[:, None]
    into = (query * (p * t) + ip * t + il.labels[iy, iw]).ravel()
    cell = (query * (yw + y) + iy * w + iw).ravel()
    ip = (query * p + ip).ravel()
    fe_rows, beta_rows, open_score = fe.reshape(n, yw), beta.reshape(n, yw), il.open_score.reshape(yw)
    ahead = np.empty((0, 0))
    for i in range(len(live) - 2, -1, -1):
        k, nxt = live[i + 1], starts[i + 1]
        if ahead.shape[0] != k:  # buffers per width, and their views
            ahead, terms, c = np.empty((k, yw + y)), np.zeros((k, p, t)), k * iw.size
            cells, best_open, into_k, cell_k, ip_k = ahead[:, :yw], ahead[:, yw:], into[:c], cell[:c], ip[:c]
        np.add(fe_rows[nxt : nxt + k], beta_rows[nxt : nxt + k], cells)
        _max((cells + open_score).reshape(k, y, w), 2, out=best_open)
        safe = np.maximum(_max(ahead.take(succ, 1), 1) + 1.0, _LOWEST)
        np.put(terms, into_k, np.exp(ahead.take(cell_k) + 1.0 - safe.take(ip_k)))
        now = np.log(np.add.reduce(terms, -1)) + safe
        now.take(row, 1, out=beta[starts[i] : starts[i] + k])
    return beta


def _suffix_max(fe: np.ndarray, il: IntentLabels, live: list[int], starts: list[int]) -> np.ndarray:
    """Best completion after t_i = o, right to left over the packed
    (N, Y, W) fe.

    h = 0 at a query's last position, and before it h[o] = 1 + max of
    fe[p] + h[p] one position on, over the p that may follow o.  Each
    step's plane holds fe + h of every (intent, column), then each
    intent's max over its open columns (il.open_score) in its sentinel;
    one gather of il.succ reads each column's closed successors and its
    sentinel.  Every allowed transition scores 1 and rounding is
    monotone, so adding it after the max equals the dense max bit for bit.
    """
    n, y, w = fe.shape
    yw = y * w
    h = np.zeros((n, y, w))
    fe_rows, h_rows, open_score = fe.reshape(n, yw), h.reshape(n, yw), il.open_score.reshape(yw)
    ahead, opened = np.empty((live[0], yw + y)), np.empty((live[0], yw))
    cells, best_open, open_cells = ahead[:, :yw], ahead[:, yw:], opened.reshape(-1, y, w)
    for k, a, nxt in zip(live[:0:-1], starts[-2::-1], starts[:0:-1]):
        now = h[a : a + k]
        np.add(fe_rows[nxt : nxt + k], h_rows[nxt : nxt + k], cells[:k])
        np.add(cells[:k], open_score, opened[:k])
        _max(open_cells[:k], 2, out=best_open[:k])
        _max(ahead[:k].take(il.succ, 1), 1, out=now)
        now += 1.0
    return h


def _on_intent_labels(jin: JointScoreInputs) -> tuple[_Packed, IntentLabels, np.ndarray]:
    """The packed rows, each intent's labels, and each packed row's
    relation-masked emissions on them, (N, Y, W): column w of intent y is
    label il.labels[y, w]."""
    pk = _pack(jin)
    il = intent_labels(jin.rm, jin.tm)
    fe = apply_relation_mask(jin.f_o.take(pk.src, 0).take(il.labels, 1)[:, :, None], il.rm, slice(None))[:, :, 0]
    return pk, il, fe


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
    pk, il, fe = _on_intent_labels(jin)
    q, y, t = pk.lengths.size, jin.n_intents, jin.n_slots
    with np.errstate(divide="ignore"):
        alpha = _forward(fe, il, jin.tm, pk.live, pk.starts)
        beta = _backward(fe, il, jin.tm, pk.live, pk.starts)
    intent_score = jin.lam * jin.f_l.reshape(q, y)[pk.order]
    # each query's last row on all T labels, C-ordered (Q, Y, T) as the
    # dense code's rows were: logsumexp sums each contiguous row pairwise
    rows = np.arange(y)[:, None]
    last = np.full((q, y, t), NEG_INF)
    last[:, rows, il.labels] = alpha[pk.last]
    log_joint = intent_score + logsumexp(last, axis=-1)
    log_z = logsumexp(log_joint, axis=-1)
    if np.any(log_z == NEG_INF):
        raise InfeasibleLattice("every (intent, slot sequence) pair is masked")
    # an infeasible intent has alpha + beta = -inf everywhere: exactly zero
    # mass, as every label an intent does not list has
    unary = np.add(intent_score[pk.rank][:, :, None], alpha, alpha)
    unary += beta
    unary -= log_z[pk.rank][:, None, None]
    np.exp(unary, unary)
    # C-ordered (Y, N, T) in f_o's row order, as loss_gradients sums it
    # over intents; beta's memory takes the rows in that order first
    beta[pk.src] = unary
    marginals = np.zeros((y, pk.rank.size, t))
    for intent, labels in enumerate(il.labels):
        marginals[intent][:, labels] = beta[:, intent]
    post = JointPosterior(np.empty_like(log_z), np.empty_like(intent_score), marginals)
    post.log_z[pk.order] = log_z
    post.intent_marginals[pk.order] = np.exp(log_joint - log_z[:, None])
    if not jin.batched:
        post.log_z, post.intent_marginals = float(post.log_z[0]), post.intent_marginals[0]
    return post


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
    pk, il, fe = _on_intent_labels(jin)
    order, rank = pk.order, pk.rank
    q, y = order.size, jin.n_intents
    f_l = jin.f_l.reshape(q, y)[order]
    h = _suffix_max(fe, il, pk.live, pk.starts)
    # position 0's rows hold every query
    first = jin.tm.start[il.labels] + fe[:q] + h[:q]
    totals = jin.lam * f_l + _max(first, 2)
    if np.any(_max(totals, 1) == NEG_INF):
        raise InfeasibleLattice("every (intent, slot sequence) pair is masked")
    best_y = np.argmax(totals, axis=1)
    # each row's emissions and best completions under its query's intent,
    # (N, W), and each query's labels, (Q, W)
    n, width = rank.size, il.labels.shape[1]
    chosen = np.arange(0, n * y, y) + best_y[rank]
    fe, h = fe.reshape(n * y, width).take(chosen, 0), h.reshape(n * y, width).take(chosen, 0)
    labels = il.labels[best_y]
    # query s's transitions out of its column w are row s W + w, which is
    # also the flat index of its reach[w]
    trans = jin.tm.trans[labels[:, :, None], labels[:, None, :]].reshape(q * width, width)
    path, run = np.empty(n, dtype=int), np.empty(n)
    # into: each live query's running sum so far plus its transition into
    # each column; at position 0 that is 0 + START, which is START exactly
    into, a, cols = jin.tm.start[labels], 0, np.arange(0, q * width, width)
    for k in pk.live:
        # each live query's running sum through column w, then its best
        # completion; run keeps the sum through the chosen column
        reach = into[:k] + fe[a : a + k]
        w = np.argmax(reach + h[a : a + k], axis=1, out=path[a : a + k])
        at = cols[:k] + w
        into, a = reach.take(at, out=run[a : a + k])[:, None] + trans.take(at, 0), a + k
    score = jin.lam * f_l[np.arange(q), best_y] + run[pk.last]
    ys, scores, paths = np.empty_like(best_y), np.empty_like(score), np.empty_like(path)
    ys[order], scores[order], paths[pk.src] = best_y, score, labels[rank, path]
    if jin.batched:
        return ys, paths, scores
    return int(ys[0]), paths, float(scores[0])
