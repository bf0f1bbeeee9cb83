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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import LabelSpace, Sample

NEG_INF = float("-inf")


@dataclass(frozen=True)
class RelationMask:
    rm: np.ndarray  # (Y, T) bool
    forced_o: bool

    @property
    def n_intents(self) -> int:
        return self.rm.shape[0]

    @property
    def n_slots(self) -> int:
        return self.rm.shape[1]


@dataclass(frozen=True)
class TransitionMask:
    trans: np.ndarray  # (T, T), entries in {1, -inf}
    start: np.ndarray  # (T,), entries in {1, -inf}


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
    t = ls.n_slots
    kinds = [ls.slot_kind(o) for o in range(t)]
    trans = np.full((t, t), NEG_INF)
    start = np.full(t, NEG_INF)
    for o2, (kind2, type2) in enumerate(kinds):
        if kind2 in ("O", "B"):
            start[o2] = 1.0
            trans[:, o2] = 1.0
        else:  # I-label: only after B/I of the same type
            for o1, (kind1, type1) in enumerate(kinds):
                if kind1 in ("B", "I") and type1 == type2:
                    trans[o1, o2] = 1.0
    return TransitionMask(trans=trans, start=start)


def permissive_transition_mask(n_slots: int) -> TransitionMask:
    """All transitions allowed at the same score-1 convention (mask off)."""
    return TransitionMask(trans=np.ones((n_slots, n_slots)), start=np.ones(n_slots))


def apply_relation_mask(f_o: np.ndarray, rm: RelationMask, intent: int | slice) -> np.ndarray:
    """Slot emissions conditioned on an intent: unrelated columns become -inf.

    intent=slice(None) gives the (Y, m, T) stack over every intent."""
    return np.where(rm.rm[intent][..., None, :], f_o, NEG_INF)
