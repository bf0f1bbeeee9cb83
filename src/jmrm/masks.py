"""Support-derived relation mask and BIO transition mask.

The relation mask records which (intent, slot) pairs co-occur in a support
sample; applying it sends emissions of unrelated slots to -inf, so a
decoded slot can never contradict the decoded intent.  The transition mask
only turns the label space's BIO rule (LabelSpace.may_follow, may_start)
into scores: 1 for every legal slot adjacency, -inf for every illegal one,
and a virtual START row that bans I-labels from opening a sequence.  The
score-1 convention means every feasible length-m sequence accrues the same
additive constant, so the joint softmax is unaffected by it.  Every
lattice sweep runs on each intent's own labels (IntentLabels), which both
masks together give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import LabelSpace, Sample

NEG_INF = float("-inf")


@dataclass(frozen=True)
class RelationMask:
    rm: np.ndarray  # (Y, T) bool
    forced_o: bool


@dataclass(frozen=True)
class TransitionMask:
    """Slot adjacency scores: trans[o1, o2] for o2 right after o1, start[o] for t_0 = o.

    Every entry is 1 (allowed) or -inf (banned); construction rejects
    anything else, keeps read-only copies, and derives the open/closed form
    the lattice sweeps run on.  A column is open when every row allows it
    (O and every B-X under BIO); the other allowed cells are closed, and
    two label-indexed lists read them, one per direction, each ascending
    and padded with the sentinel index T:

    is_open      (T,): True at the open columns
    closed_succ  (T, K+1): row o's closed columns; K is the longest list, 1
                 under BIO (B-X and I-X feed I-X), 0 when every column is open
    closed_pred  (T, J+1): closed column o's rows (none for an open one); J
                 is the longest list, 2 under BIO
    row_class    (T,): rows with equal closed_succ rows, hence equal trans
                 rows, share a class id in 0..R-1 (R = 40 of 79 under SNIPS
                 BIO: O and the B-X/I-X pair of each type; 1 when every
                 column is open)
    row_rep      (R,): the first row of each class
    """

    trans: np.ndarray  # (T, T), entries in {1, -inf}
    start: np.ndarray  # (T,), entries in {1, -inf}
    is_open: np.ndarray = field(init=False, repr=False, compare=False)
    closed_succ: np.ndarray = field(init=False, repr=False, compare=False)
    closed_pred: np.ndarray = field(init=False, repr=False, compare=False)
    row_class: np.ndarray = field(init=False, repr=False, compare=False)
    row_rep: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        trans, start = np.array(self.trans, dtype=float), np.array(self.start, dtype=float)
        t = start.size
        if start.shape != (t,) or trans.shape != (t, t):
            raise ValueError(
                f"transition mask shapes {trans.shape} and {start.shape} are not (T, T) and (T,)"
            )
        allowed = trans == 1.0
        for name, scores, ok in (("trans", trans, allowed), ("start", start, start == 1.0)):
            if not (ok | (scores == NEG_INF)).all():
                raise ValueError(f"transition mask {name} entries must be 1.0 or -inf")
        is_open = allowed.all(axis=0)
        closed = allowed & ~is_open
        # flat indices run row-major: row o's closed successors in ascending
        # order, and, on the transpose, column o's closed predecessors
        closed_succ = _padded_lists(*np.divmod(np.flatnonzero(closed), t), t)
        closed_pred = _padded_lists(*np.divmod(np.flatnonzero(closed.T), t), t)
        # each row as one opaque value: np.unique's axis=0 form takes three
        # times as long on these small rows
        rows = closed_succ.view(np.dtype((np.void, closed_succ.strides[0])))[:, 0]
        _, row_rep, row_class = np.unique(rows, return_index=True, return_inverse=True)
        for name, value in (("trans", trans), ("start", start), ("is_open", is_open),
                            ("closed_succ", closed_succ), ("closed_pred", closed_pred),
                            ("row_class", row_class.reshape(t)), ("row_rep", row_rep)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def _padded_lists(keys: np.ndarray, values: np.ndarray, t: int) -> np.ndarray:
    """(t, K+1): row k lists values[keys == k] in order, then the sentinel
    t, repeated to pad the row; K is the longest list.  keys are sorted."""
    pos = np.arange(keys.size) - np.searchsorted(keys, keys)
    out = np.full((t, pos.max(initial=-1) + 2), t)
    out[keys, pos] = values
    return out


@dataclass(frozen=True)
class IntentLabels:
    """Each intent's allowed slot labels as a label axis of its own, the
    one label axis of every lattice sweep, and the transition mask's
    open/closed form on it.

    Column w of intent y is label labels[y, w].  An intent's T_y allowed
    labels come first, ascending, so a first maximizer or an in-order sum
    meets them in label order; banned labels pad the row to W = max_y T_y.
    A sweep row is a plane of Y W + Y values: intent y's column w at
    y W + w, then a sentinel per intent at Y W + y, holding a reduction
    over the intent's open columns.

    labels      (Y, W) slot ids
    rm          the relation mask on these columns: w < T_y
    open_score  (Y, W): 0 where the label is open (TransitionMask.is_open),
                -inf elsewhere
    plane       (Y, T+1): each label's plane index within each intent: its
                column if the intent lists it, else, as for the padding T,
                the sentinel.  A banned label that pads the row reads its
                own column, which the masked emissions hold at -inf
    succ        (K+1, Y, W): the plane of each column's closed_succ
    """

    labels: np.ndarray
    rm: RelationMask
    open_score: np.ndarray
    plane: np.ndarray
    succ: np.ndarray


def intent_labels(rm: RelationMask, tm: TransitionMask) -> IntentLabels:
    """Each intent's allowed labels, listed by rm, under tm."""
    allowed = rm.rm
    y, t = allowed.shape
    w = max(int(allowed.sum(axis=1).max()), 1)
    labels = (~allowed).argsort(axis=1, kind="stable")[:, :w]  # allowed first, each part ascending
    rows = np.arange(y)[:, None]
    plane = (y * w + rows).repeat(t + 1, axis=1)
    plane[rows, labels] = np.arange(y * w).reshape(y, w)
    return IntentLabels(labels, RelationMask(allowed[rows, labels], rm.forced_o),
                        np.where(tm.is_open[labels], 0.0, NEG_INF), plane,
                        np.ascontiguousarray(plane[rows, tm.closed_succ.T[:, labels]]))


def build_relation_mask(
    support: Sequence[Sample], ls: LabelSpace, force_o: bool = True
) -> RelationMask:
    """rm[l][o] = 1 iff intent l and slot o co-occur in a support sample.

    With force_o (the default) the O column is set for every intent, which
    guarantees each intent keeps at least one feasible slot sequence.
    """
    if len(support) < 1:
        raise ValueError("support must be non-empty")
    rm = np.zeros((ls.n_intents, ls.n_slots), dtype=bool)
    for sample in support:
        for sid in set(sample.slots):
            rm[sample.intent, sid] = True
    if force_o:
        rm[:, ls.o_id] = True
    return RelationMask(rm=rm, forced_o=force_o)


def all_ones_relation_mask(n_intents: int, n_slots: int) -> RelationMask:
    """Permissive stand-in used when the relation mask is switched off."""
    return RelationMask(rm=np.ones((n_intents, n_slots), dtype=bool), forced_o=True)


def build_transition_mask(ls: LabelSpace) -> TransitionMask:
    """The label space's BIO rule as scores: 1 where it lets a label follow
    another (ls.may_follow) or open a sequence (ls.may_start), -inf elsewhere."""
    return TransitionMask(trans=np.where(ls.may_follow, 1.0, NEG_INF),
                          start=np.where(ls.may_start, 1.0, NEG_INF))


def permissive_transition_mask(n_slots: int) -> TransitionMask:
    """All transitions allowed at the same score-1 convention (mask off)."""
    return TransitionMask(trans=np.ones((n_slots, n_slots)), start=np.ones(n_slots))


def apply_relation_mask(
    f_o: np.ndarray, rm: RelationMask, intent: int | slice | np.ndarray
) -> np.ndarray:
    """Slot emissions conditioned on an intent: unrelated columns become -inf.

    intent=slice(None) gives the (Y, m, T) stack over every intent; a (Q,)
    array of intents conditions a (Q, m, T) stack query by query."""
    return np.where(rm.rm[intent][..., None, :], f_o, NEG_INF)
