"""Prototype computation, similarity functions, and emission scores.

An intent prototype is the mean utterance embedding of the support samples
sharing that intent; a slot prototype is the mean token embedding over all
support word positions carrying that slot label.  Emission scores are
similarities between query embeddings and prototypes; higher is always
more similar (L2 is the negative squared euclidean distance).
similarity_to_protos scores a whole (r, d) matrix of embeddings at once;
its dot products are one stacked matrix-vector product per row, which
rounds exactly like scoring the rows one at a time.

Under a frozen encoder an episode's prototypes are a pure function of
(support, label space, encoder config), so an ablation grid builds them
once, inside a keep_frozen_prototypes block.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import LabelSpace, Sample
from .encoder import Encoder, WindowState, add_rows_at

COS = "cos"
L2 = "l2"
VPB = "vpb"

SIMILARITY_KINDS = (COS, L2, VPB)


class DegenerateVector(ValueError):
    """Zero-norm vector where the similarity kind requires a direction."""


@dataclass(frozen=True)
class Prototypes:
    intent_protos: np.ndarray  # (Y, d)
    slot_protos: np.ndarray  # (T, d)
    intent_counts: np.ndarray  # (Y,)
    slot_counts: np.ndarray  # (T,)
    # a trainable encoder's forward state of each support sample, in support
    # order, for the backward pass through the prototypes; eval drops it
    support_states: tuple[WindowState, ...] | None = None


@dataclass
class Emissions:
    intent: np.ndarray  # (Y,)
    slot: np.ndarray  # (m, T)


# the innermost open block's prototypes, None outside one; a context
# variable, so a block in one thread or task is not seen by another
_kept: ContextVar[dict[tuple, Prototypes] | None] = ContextVar("kept_prototypes", default=None)


@contextmanager
def keep_frozen_prototypes() -> Iterator[None]:
    """Within the block, compute_prototypes builds a frozen encoder's
    prototypes once per (support, label space, encoder config) and returns
    them read-only; they go when the block exits.  A trainable encoder's
    parameters move in place, so its prototypes are never kept."""
    token = _kept.set({})
    try:
        yield
    finally:
        _kept.reset(token)


def compute_prototypes(
    support: Sequence[Sample], ls: LabelSpace, encoder: Encoder
) -> Prototypes:
    """Per-class mean embeddings over the support set.

    Every class of the (episode-local) label space must occur in the
    support set, otherwise its prototype would be undefined.  Inside a
    keep_frozen_prototypes block a frozen encoder's result is shared and
    read-only.
    """
    kept = _kept.get()
    if kept is None or encoder.is_trainable:
        return _build_prototypes(support, ls, encoder)
    key = (tuple(support), ls, encoder.config)
    protos = kept.get(key)
    if protos is None:
        protos = kept[key] = _build_prototypes(support, ls, encoder)
        for arr in (protos.intent_protos, protos.slot_protos,
                    protos.intent_counts, protos.slot_counts):
            arr.flags.writeable = False
    return protos


def _build_prototypes(
    support: Sequence[Sample], ls: LabelSpace, encoder: Encoder
) -> Prototypes:
    y, t = ls.n_intents, ls.n_slots
    intents = np.array([sample.intent for sample in support], dtype=int)
    intent_counts = np.bincount(intents, minlength=y)
    if not intent_counts.all():
        l = intent_counts.argmin()
        raise ValueError(f"intent {ls.intents[l]!r} has no support samples")
    slots = np.concatenate([sample.slots for sample in support])
    slot_counts = np.bincount(slots, minlength=t)
    if not slot_counts.all():
        o = slot_counts.argmin()
        raise ValueError(f"slot label {ls.slot_labels[o]!r} has no support occurrences")
    intent_sum = np.zeros((y, encoder.config.dim))
    slot_sum = np.zeros((t, encoder.config.dim))
    means, states = [], []
    # ufunc.at adds in index order: support order, then token position; one
    # sample's rows at a time, so the support's token matrix is never whole
    for sample in support:
        rows, state = encoder.encode_tokens(sample.tokens, True)
        add_rows_at(slot_sum, np.asarray(sample.slots), rows)
        means.append(rows.mean(axis=0))
        states.append(state)
    add_rows_at(intent_sum, intents, np.stack(means))
    return Prototypes(
        intent_protos=intent_sum / intent_counts[:, None],
        slot_protos=slot_sum / slot_counts[:, None],
        intent_counts=intent_counts,
        slot_counts=slot_counts,
        support_states=tuple(states) if encoder.is_trainable else None,
    )


def _proto_norms(protos: np.ndarray, kind: str) -> np.ndarray:
    c_norms = np.linalg.norm(protos, axis=1)
    if np.any(c_norms == 0.0):
        n = int(np.argmin(c_norms))
        raise DegenerateVector(f"zero-norm prototype {n} under {kind} similarity")
    return c_norms


def similarity_to_protos(e: np.ndarray, protos: np.ndarray, kind: str) -> np.ndarray:
    """Similarities of an (r, d) embedding matrix against (n, d) prototypes, (r, n)."""
    e, protos = np.asarray(e, dtype=float), np.asarray(protos, dtype=float)
    if kind == L2:
        diff = protos - e[:, None, :]
        return -(diff * diff).sum(axis=2)
    if kind not in (VPB, COS):
        raise ValueError(f"unknown similarity kind {kind!r}")
    c_norms = _proto_norms(protos, kind)
    # one gemv per row: a single gemm e @ protos.T rounds differently
    dots = np.matmul(protos, e[:, :, None])[:, :, 0]
    if kind == VPB:
        return dots / c_norms - c_norms / 2.0
    # (r, 1): sqrt(e . e) row by row, as np.linalg.norm computes it
    e_norms = np.sqrt(np.matmul(e[:, None, :], e[:, :, None]))[:, 0]
    if np.any(e_norms == 0.0):
        i = int(np.argmin(e_norms[:, 0]))
        raise DegenerateVector(f"zero-norm embedding row {i} under cos similarity")
    return dots / (e_norms * c_norms)


def similarity_grads(
    e: np.ndarray, protos: np.ndarray, kind: str, d_s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of similarity_to_protos: for an (r, d) embedding matrix e,
    (n, d) prototypes and the (r, n) upstream gradient d_s, returns d_e
    (r, d) and d_protos (n, d).  The prototype-only terms are computed once;
    each row's (n, d) Jacobians are contracted with its own gradient row,
    and d_protos adds the rows in order, so the sums round as one call per
    row did."""
    e, protos = np.asarray(e, dtype=float), np.asarray(protos, dtype=float)
    if kind not in SIMILARITY_KINDS:
        raise ValueError(f"unknown similarity kind {kind!r}")
    if kind != L2:
        c_norms = _proto_norms(protos, kind)[:, None]
        unit_c = protos / c_norms
        half_unit_c, c_norms_2, c_norms_3 = unit_c / 2.0, c_norms**2, c_norms**3
    d_e, d_c = np.empty_like(e), np.zeros_like(protos)
    for i, (row, g) in enumerate(zip(e, d_s)):
        if kind == L2:
            diff = row - protos
            ds_de, ds_dc = -2.0 * diff, 2.0 * diff
        elif kind == VPB:
            ds_de = unit_c
            ds_dc = row / c_norms - (protos @ row)[:, None] * protos / c_norms_3 - half_unit_c
        else:
            e_norm = np.linalg.norm(row)
            if e_norm == 0.0:
                raise DegenerateVector(f"zero-norm embedding row {i} under cos similarity")
            norms = e_norm * c_norms
            s = protos @ row / norms[:, 0]
            ds_de = protos / norms - s[:, None] * row / e_norm**2
            ds_dc = row / norms - s[:, None] * protos / c_norms_2
        d_e[i] = ds_de.T @ g
        d_c += ds_dc * g[:, None]
    return d_e, d_c


def compute_emissions(
    query: Sample, protos: Prototypes, encoder: Encoder, kind: str
) -> Emissions:
    """Intent emission vector (Y,) and slot emission matrix (m, T) for a query."""
    rows = encoder.encode_tokens(query.tokens)
    intent = similarity_to_protos(rows.mean(axis=0, keepdims=True), protos.intent_protos, kind)[0]
    return Emissions(intent=intent, slot=similarity_to_protos(rows, protos.slot_protos, kind))
