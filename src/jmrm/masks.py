"""Support-derived relation mask and BIO transition mask.

The relation mask records which (intent, slot) pairs co-occur in a support
sample; applying it sends emissions of unrelated slots to -inf, so a
decoded slot can never contradict the decoded intent.  The transition mask
scores every BIO-legal slot adjacency 1 and every illegal one -inf; a
virtual START row bans I-labels from opening a sequence.  The score-1
convention means every feasible length-m sequence accrues the same
additive constant, so the joint softmax is unaffected by it.
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
    the lattice sweeps run on:

    open_cols    the columns every row allows (O and every B-X under BIO)
    closed_cols  the other columns, ascending (every I-X under BIO)
    closed_succ  (T, K+1): row o's allowed columns that are not open, then
                 the sentinel index T, repeated to pad the row; K is the
                 longest such list, 1 under BIO (B-X and I-X feed I-X) and
                 0 when every column is open
    closed_pred  (C, J+1): closed column closed_cols[c]'s allowed rows,
                 ascending, then T, repeated to pad the row; J is the longest
                 such list, 2 under BIO (B-X and I-X feed I-X)
    row_class    (T,): rows with equal closed_succ rows, hence equal trans
                 rows, share a class id in 0..R-1 (R = 40 of 79 under SNIPS
                 BIO: O and the B-X/I-X pair of each type; 1 when every
                 column is open)
    row_rep      (R,): the first row of each class
    """

    trans: np.ndarray  # (T, T), entries in {1, -inf}
    start: np.ndarray  # (T,), entries in {1, -inf}
    open_cols: np.ndarray = field(init=False, repr=False, compare=False)
    closed_cols: np.ndarray = field(init=False, repr=False, compare=False)
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
        closed_cols = np.flatnonzero(~is_open)
        # flat indices run row-major: row o's closed successors in ascending
        # order, and, on the transpose, closed column c's predecessors
        closed_succ = _padded_lists(*np.divmod(np.flatnonzero(closed), t), t, t)
        cols, rows = np.divmod(np.flatnonzero(closed.T), t)
        closed_pred = _padded_lists(np.searchsorted(closed_cols, cols), rows, closed_cols.size, t)
        # equal rows sort next to each other; a class starts where a row
        # differs from the one before it
        order = np.lexsort(closed_succ.T[::-1])
        ranked = closed_succ[order]
        first = np.ones(t, dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        row_class = np.empty(t, dtype=np.intp)
        row_class[order] = np.cumsum(first) - 1
        for name, value in (("trans", trans), ("start", start), ("open_cols", np.flatnonzero(is_open)),
                            ("closed_cols", closed_cols), ("closed_succ", closed_succ),
                            ("closed_pred", closed_pred), ("row_class", row_class),
                            ("row_rep", order[first])):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def _padded_lists(keys: np.ndarray, values: np.ndarray, n: int, t: int) -> np.ndarray:
    """(n, K+1): row k lists values[keys == k] in order, then the sentinel
    t, repeated to pad the row; K is the longest list.  keys are sorted."""
    pos = np.arange(keys.size) - np.searchsorted(keys, keys)
    out = np.full((n, pos.max(initial=-1) + 2), t)
    out[keys, pos] = values
    return out


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
    """BIO adjacency scores derived purely from the slot label names.

    o2 may follow o1 iff o2 is O, o2 is any B-label, or o2 is I-X and o1 is
    B-X or I-X of the same type.  A sequence may start with O or any
    B-label, never an I-label.
    """
    labels = [ls.slot_kind(o) for o in range(ls.n_slots)]
    opens = np.array([kind != "I" for kind, _ in labels], dtype=bool)
    # O has no type, and "" never equals a B/I type (those are non-empty)
    types = np.array([stype or "" for _, stype in labels], dtype=str)
    trans = np.where(opens[None, :] | (types[:, None] == types[None, :]), 1.0, NEG_INF)
    start = np.where(opens, 1.0, NEG_INF)
    return TransitionMask(trans=trans, start=start)


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
