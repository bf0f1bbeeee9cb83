"""Intent accuracy, span-level slot F1, and joint accuracy.

Slot F1 is micro-averaged over typed spans with exact boundaries (the
conlleval convention).  Joint accuracy compares the raw predicted slot
label sequence against gold, not spans: a query counts iff the intent and
the entire slot sequence are exactly right.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .core import LabelMismatch, LabelSpace, LengthMismatch, Sample


@dataclass(frozen=True)
class MetricsSummary:
    n_queries: int
    n_intent_correct: int
    n_joint_correct: int
    n_gold_spans: int
    n_pred_spans: int
    n_correct_spans: int

    @property
    def intent_acc(self) -> float | None:
        return None if self.n_queries == 0 else self.n_intent_correct / self.n_queries

    @property
    def joint_acc(self) -> float | None:
        return None if self.n_queries == 0 else self.n_joint_correct / self.n_queries

    @property
    def slot_precision(self) -> float | None:
        if self.n_queries == 0:
            return None
        return self.n_correct_spans / self.n_pred_spans if self.n_pred_spans else 0.0

    @property
    def slot_recall(self) -> float | None:
        if self.n_queries == 0:
            return None
        return self.n_correct_spans / self.n_gold_spans if self.n_gold_spans else 0.0

    @property
    def slot_f1(self) -> float | None:
        if self.n_queries == 0:
            return None
        p, r = self.slot_precision, self.slot_recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def merged(self, other: "MetricsSummary") -> "MetricsSummary":
        return MetricsSummary(
            n_queries=self.n_queries + other.n_queries,
            n_intent_correct=self.n_intent_correct + other.n_intent_correct,
            n_joint_correct=self.n_joint_correct + other.n_joint_correct,
            n_gold_spans=self.n_gold_spans + other.n_gold_spans,
            n_pred_spans=self.n_pred_spans + other.n_pred_spans,
            n_correct_spans=self.n_correct_spans + other.n_correct_spans,
        )

    def to_dict(self) -> dict:
        return {
            "intent_acc": self.intent_acc,
            "slot_f1": self.slot_f1,
            "slot_precision": self.slot_precision,
            "slot_recall": self.slot_recall,
            "joint_acc": self.joint_acc,
            "counts": {
                "n_queries": self.n_queries,
                "n_intent_correct": self.n_intent_correct,
                "n_joint_correct": self.n_joint_correct,
                "n_gold_spans": self.n_gold_spans,
                "n_pred_spans": self.n_pred_spans,
                "n_correct_spans": self.n_correct_spans,
            },
        }


EMPTY_METRICS = MetricsSummary(0, 0, 0, 0, 0, 0)


def score(
    predictions: Sequence[tuple[int, Sequence[int]]],
    golds: Sequence[Sample],
    ls: LabelSpace,
) -> MetricsSummary:
    """Score aligned (intent id, slot id sequence) predictions against gold samples.

    Spans are counted over all queries' gold and predicted slot ids at once:
    a position is a cut iff it starts a query, its label may open a span,
    or its label may not follow the one before it.  A span opens at each
    cut whose label is not O, and ends at the next cut.
    """
    if len(predictions) != len(golds):
        raise LengthMismatch(f"{len(predictions)} predictions vs {len(golds)} gold samples")
    lengths = np.array([len(gold.slots) for gold in golds], dtype=np.intp)
    for (_, slots), m in zip(predictions, lengths.tolist()):
        if len(slots) != m:
            raise LengthMismatch(f"{len(slots)} predicted slots vs {m} tokens")
    n = int(lengths.sum())
    flat = np.stack([np.fromiter(chain.from_iterable(seqs), np.intp, n) for seqs in
                     ((gold.slots for gold in golds), (slots for _, slots in predictions))])
    low, high = (flat.min(), flat.max()) if n else (0, 0)
    if not 0 <= low <= high < ls.n_slots:
        raise LabelMismatch(f"slot ids must lie in [0, {ls.n_slots}), not {low} to {high}")
    cut = np.ones((2, n + 1), dtype=bool)
    cut[:, :n] = ls.may_start[flat]
    cut[:, 1:n] |= ~ls.may_follow[flat[:, :-1], flat[:, 1:]]
    cut[:, np.cumsum(lengths) - lengths] = True
    opens = cut[:, :n] & (flat != ls.o_id)
    # a span opening at i ends at the first cut after i
    ends = np.minimum.accumulate(np.where(cut, np.arange(n + 1), n)[:, :0:-1], axis=1)[:, ::-1]
    gold, pred = flat
    same_type = ls.slot_types[gold] == ls.slot_types[pred]
    correct = opens.all(axis=0) & (ends[0] == ends[1]) & same_type
    intent_ok = np.array([y for y, _ in predictions]) == np.array([g.intent for g in golds])
    query_of = np.repeat(np.arange(len(golds)), lengths)
    slots_ok = np.bincount(query_of[gold != pred], minlength=len(golds)) == 0
    n_gold, n_pred = np.count_nonzero(opens, axis=1).tolist()
    return MetricsSummary(len(golds), int(np.count_nonzero(intent_ok)),
                          int(np.count_nonzero(intent_ok & slots_ok)),
                          n_gold, n_pred, int(np.count_nonzero(correct)))
