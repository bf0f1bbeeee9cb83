"""Reusable experiment drivers: the ablation grid and single train/eval cells.

The grid covers the four mask on/off training configurations plus the
eval-only-masks row, crossed with the three similarity functions:

    JM      no masks anywhere
    JMI2S   relation mask at train and eval
    JMMSD   transition mask at train and eval
    JMRM    both masks at train and eval
    JM+RM   trained mask-free, both masks applied only at evaluation

Under a frozen encoder the cells of one grid share each episode's
prototypes: run_ablation builds them once per grid, not once per cell.
"""

from __future__ import annotations

import csv
import io
from dataclasses import replace
from typing import Sequence

import numpy as np

from .core import Episode
from .encoder import Encoder, EncoderConfig, HASHED_FROZEN, init_encoder
from .protonet import SIMILARITY_KINDS, keep_frozen_prototypes
from .trainer import RunConfig, TrainResult, evaluate, train

ABLATION_GRID: dict[str, dict[str, bool]] = {
    "JM": dict(i2s_train=False, msd_train=False, i2s_eval=False, msd_eval=False),
    "JMI2S": dict(i2s_train=True, msd_train=False, i2s_eval=True, msd_eval=False),
    "JMMSD": dict(i2s_train=False, msd_train=True, i2s_eval=False, msd_eval=True),
    "JMRM": dict(i2s_train=True, msd_train=True, i2s_eval=True, msd_eval=True),
    "JM+RM": dict(i2s_train=False, msd_train=False, i2s_eval=True, msd_eval=True),
}

REPORT_METRICS = ("intent_acc", "slot_f1", "joint_acc")


def episode_vocabulary(episodes: Sequence[Episode]) -> list[str]:
    """All surface tokens of the episodes, sorted for a stable row order."""
    vocab = {t for ep in episodes for s in (*ep.support, *ep.query) for t in s.tokens}
    return sorted(vocab)


def make_encoder(enc_config: EncoderConfig, train_episodes: Sequence[Episode]) -> Encoder:
    if enc_config.kind == HASHED_FROZEN:
        return init_encoder(enc_config)
    return init_encoder(enc_config, episode_vocabulary(train_episodes))


def run_cell(
    train_episodes: Sequence[Episode],
    dev_episodes: Sequence[Episode],
    test_episodes: Sequence[Episode],
    run_config: RunConfig,
    enc_config: EncoderConfig,
) -> tuple[dict, TrainResult]:
    """Train with dev-based model selection, then evaluate on the test episodes."""
    encoder = make_encoder(enc_config, train_episodes)
    result = train(train_episodes, dev_episodes, encoder, run_config)
    test_metrics = evaluate(test_episodes, result.encoder, run_config)
    record = {
        "seed": run_config.seed,
        "similarity": run_config.similarity_kind,
        "metrics": test_metrics.to_dict(),
        "best_step": result.best_step,
        "best_dev_joint_acc": result.best_dev_joint_acc,
        "skipped_queries": result.skipped_queries,
    }
    return record, result


def aggregate_records(records: Sequence[dict]) -> list[dict]:
    """Group metric records by (name, similarity); mean and population std
    over seeds, as percentages (None metrics, from empty query sets, are
    skipped)."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for rec in records:
        groups.setdefault((rec.get("name", "run"), rec["similarity"]), []).append(rec)
    rows = []
    for (name, sim), recs in sorted(groups.items(), key=lambda kv: (_grid_rank(kv[0][0]), kv[0])):
        row = {"name": name, "similarity": sim, "n_seeds": len(recs)}
        for metric in REPORT_METRICS:
            vals = [r["metrics"][metric] for r in recs if r["metrics"][metric] is not None]
            if vals:
                row[f"{metric}_mean"] = float(100.0 * np.mean(vals))
                row[f"{metric}_std"] = float(100.0 * np.std(vals))
            else:
                row[f"{metric}_mean"] = None
                row[f"{metric}_std"] = None
        rows.append(row)
    return rows


def _grid_rank(name: str) -> int:
    order = list(ABLATION_GRID)
    return order.index(name) if name in order else len(order)


def _fmt(mean, std) -> str:
    if mean is None:
        return "n/a"
    return f"{mean:.2f}±{std:.2f}"


def format_report_text(rows: Sequence[dict]) -> str:
    header = f"{'model':10s} {'sim':4s} {'seeds':>5s} {'Intent Acc':>12s} {'Slot F1':>12s} {'Joint Acc':>12s}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['name']:10s} {r['similarity']:4s} {r['n_seeds']:5d} "
            f"{_fmt(r['intent_acc_mean'], r['intent_acc_std']):>12s} "
            f"{_fmt(r['slot_f1_mean'], r['slot_f1_std']):>12s} "
            f"{_fmt(r['joint_acc_mean'], r['joint_acc_std']):>12s}"
        )
    return "\n".join(lines) + "\n"


def format_report_csv(rows: Sequence[dict]) -> str:
    columns = [
        "name", "similarity", "n_seeds",
        "intent_acc_mean", "intent_acc_std",
        "slot_f1_mean", "slot_f1_std",
        "joint_acc_mean", "joint_acc_std",
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow({c: r[c] for c in columns})
    return buf.getvalue()


def run_ablation(
    train_episodes: Sequence[Episode],
    dev_episodes: Sequence[Episode],
    test_episodes: Sequence[Episode],
    base_config: RunConfig,
    enc_config: EncoderConfig,
    n_seeds: int,
) -> list[dict]:
    """The full named-configuration x similarity x seed grid; a frozen
    encoder's prototypes are built once per (episode, seed) for all cells."""
    records = []
    with keep_frozen_prototypes():
        for name, flags in ABLATION_GRID.items():
            for sim in SIMILARITY_KINDS:
                for k in range(n_seeds):
                    seed = base_config.seed + k
                    cfg = replace(base_config, similarity_kind=sim, seed=seed, **flags)
                    ecfg = replace(enc_config, seed=seed)
                    record, _ = run_cell(train_episodes, dev_episodes, test_episodes, cfg, ecfg)
                    record["name"] = name
                    records.append(record)
    return records
