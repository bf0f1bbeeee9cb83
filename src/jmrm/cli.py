"""Command-line entry point wiring the modules into reproducible runs.

Subcommands: gen-synth, build-episodes, train, eval, ablate, oracle-check,
report.  Every run writes a manifest (effective config + seed + versions)
next to its outputs, outputs carry no timestamps, and all randomness flows
from a single --seed fanned out through numpy SeedSequence spawn keys, so
reruns are byte-identical.  Failures exit non-zero with a one-line error
JSON on stderr.  JMRM_LOG_LEVEL controls logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core import (MalformedInput, config_from_dict, load_episode_file, read_json,
                   save_episode_file, write_json)
from .encoder import EncoderConfig, HASHED_FROZEN, load_encoder, save_encoder
from .episodes import (
    SynthSpec,
    build_episode,
    generate_synthetic,
    load_corpus_file,
    save_corpus_file,
)
from .experiments import (
    ABLATION_GRID,
    REPORT_METRICS,
    aggregate_records,
    format_report_csv,
    format_report_text,
    make_encoder,
    run_ablation,
)
from .masks import build_relation_mask, build_transition_mask
from .oracles import run_all_suites
from .protonet import SIMILARITY_KINDS
from .trainer import LOSS_MODES, RunConfig, TrainingDiverged, evaluate, run_config_from_dict, train

logger = logging.getLogger(__name__)


def _write_manifest(path: Path, command: str, config: dict, seed: int) -> None:
    write_json(
        path,
        {
            "command": command,
            "config": config,
            "seed": seed,
            "versions": {
                "jmrm": __version__,
                "numpy": np.__version__,
                "python": ".".join(map(str, sys.version_info[:3])),
            },
        },
    )


# command-line flags that override RunConfig fields
_RUN_FLAGS = {"seed": "seed", "similarity": "similarity_kind", "loss_mode": "loss_mode",
              **{f: f for f in ("i2s_train", "msd_train", "i2s_eval", "msd_eval")}}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise MalformedInput(f"{path}: expected a top-level object")
    for section in ("run", "encoder", "synth"):
        if not isinstance(cfg.get(section, {}), dict):
            raise MalformedInput(f"{path}: section {section!r} must be an object")
    return cfg


def _run_config(args, file_cfg: dict) -> RunConfig:
    overrides = {field: getattr(args, flag) for flag, field in _RUN_FLAGS.items()
                 if getattr(args, flag, None) is not None}
    return run_config_from_dict({**file_cfg.get("run", {}), **overrides})


def _encoder_config(file_cfg: dict, seed: int) -> EncoderConfig:
    enc = {"kind": HASHED_FROZEN, "dim": 32, "seed": seed, **file_cfg.get("encoder", {})}
    return config_from_dict(EncoderConfig, enc, "encoder config")


def _synth_spec(args, file_cfg: dict) -> SynthSpec:
    spec = dict(file_cfg.get("synth", {}))
    if getattr(args, "seed", None) is not None:
        spec["seed"] = args.seed
    return config_from_dict(SynthSpec, spec, "synth config")


# --- subcommands ---------------------------------------------------------------


def cmd_gen_synth(args) -> int:
    file_cfg = _load_config_file(args.config)
    spec = _synth_spec(args, file_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    source, dev, target = generate_synthetic(spec)
    save_corpus_file(out / "source.json", source)
    save_corpus_file(out / "dev.json", dev)
    save_corpus_file(out / "target.json", target)
    _write_manifest(out / "manifest.json", "gen-synth", asdict(spec), spec.seed)
    print(json.dumps({"out": str(out), "domains": {
        "source": len(source), "dev": len(dev), "target": len(target)}}))
    return 0


def cmd_build_episodes(args) -> int:
    corpora = load_corpus_file(args.corpora)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(2,)))
    episodes = []
    for corpus in corpora:
        for _ in range(args.count):
            episodes.append(build_episode(corpus, args.shots, args.query_size, rng))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_episode_file(out, episodes)
    # one manifest per episode file, beside it: splits built into one directory keep theirs
    _write_manifest(out.with_suffix(".manifest.json"), "build-episodes",
                    {"corpora": str(args.corpora), "shots": args.shots,
                     "query_size": args.query_size, "count": args.count, "out": out.name},
                    args.seed)
    print(json.dumps({"out": str(out), "episodes": len(episodes)}))
    return 0


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = _run_config(args, file_cfg)
    enc_cfg = _encoder_config(file_cfg, cfg.seed)
    train_eps = load_episode_file(args.episodes)
    dev_eps = load_episode_file(args.dev)
    encoder = make_encoder(enc_cfg, train_eps)
    diverged = None
    try:
        # train() turns every non-finite value into TrainingDiverged, so
        # numpy's overflow warnings would only precede the one-line error
        with np.errstate(over="ignore", invalid="ignore"):
            result = train(train_eps, dev_eps, encoder, cfg)
    except TrainingDiverged as exc:  # still save the best checkpoint so far
        diverged, result = exc, exc.result
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_encoder(out / "checkpoint.json", result.encoder)
    with open(out / "training_log.jsonl", "w", encoding="utf-8") as fh:
        for entry in result.log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    _write_manifest(out / "manifest.json", "train",
                    {"run": asdict(cfg), "encoder": asdict(enc_cfg),
                     "episodes": str(args.episodes), "dev": str(args.dev)}, cfg.seed)
    if diverged is not None:
        raise diverged
    best_dev = next(e["dev"] for e in result.log
                    if e["event"] == "eval" and e["step"] == result.best_step)
    write_json(out / "dev_metrics.json", {
        "name": "dev", "similarity": cfg.similarity_kind, "seed": cfg.seed,
        "best_step": result.best_step, "skipped_queries": result.skipped_queries,
        "metrics": best_dev,
    })
    print(json.dumps({"out": str(out), "best_step": result.best_step,
                      "best_dev_joint_acc": result.best_dev_joint_acc,
                      "skipped": result.skipped_queries}))
    return 0


def cmd_eval(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = _run_config(args, file_cfg)
    encoder = load_encoder(args.checkpoint)
    episodes = load_episode_file(args.episodes)
    metrics = evaluate(episodes, encoder, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "metrics.json", {
        "name": args.name, "similarity": cfg.similarity_kind, "seed": cfg.seed,
        "metrics": metrics.to_dict(),
    })
    _write_manifest(out / "manifest.json", "eval", {"run": asdict(cfg),
                    "checkpoint": str(args.checkpoint), "episodes": str(args.episodes)}, cfg.seed)
    print(json.dumps({"out": str(out), "metrics": metrics.to_dict()}))
    return 0


def cmd_ablate(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = _run_config(args, file_cfg)
    enc_cfg = _encoder_config(file_cfg, cfg.seed)
    train_eps = load_episode_file(args.episodes)
    dev_eps = load_episode_file(args.dev)
    test_eps = load_episode_file(args.test)
    records = run_ablation(train_eps, dev_eps, test_eps, cfg, enc_cfg, args.seeds)
    rows = aggregate_records(records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "ablate_results.json", {"records": records})
    (out / "report.csv").write_text(format_report_csv(rows), encoding="utf-8")
    (out / "report.txt").write_text(format_report_text(rows), encoding="utf-8")
    _write_manifest(out / "manifest.json", "ablate",
                    {"run": asdict(cfg), "encoder": asdict(enc_cfg), "episodes": str(args.episodes),
                     "dev": str(args.dev), "test": str(args.test), "seeds": args.seeds}, cfg.seed)
    print(format_report_text(rows), end="")
    return 0


def cmd_oracle_check(args) -> int:
    report = run_all_suites(args.trials, args.seed)
    if args.dump_masks is not None:
        episodes = load_episode_file(args.dump_masks)
        dumps = []
        for ep in episodes:
            rm = build_relation_mask(ep.support, ep.label_space)
            tm = build_transition_mask(ep.label_space)
            dumps.append({
                "domain": ep.domain_name,
                "intents": list(ep.label_space.intents),
                "slot_labels": list(ep.label_space.slot_labels),
                # 1 where allowed, 0 where masked: -inf is not standard JSON
                "relation_mask": rm.rm.astype(int).tolist(),
                "transition_mask": np.isfinite(tm.trans).astype(int).tolist(),
                "start_mask": np.isfinite(tm.start).astype(int).tolist(),
            })
        report["masks"] = dumps
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "oracle_report.json", report)
        _write_manifest(out / "manifest.json", "oracle-check", {"trials": args.trials}, args.seed)
    print(json.dumps(report, indent=2, sort_keys=True, default=float))
    return 0 if report["pass"] else 1


def _read_records(path) -> list:
    """Metric records of one report input: a record or {"records": [...]}."""
    payload = read_json(path)
    records = payload.get("records", [payload]) if isinstance(payload, dict) else [payload]
    if not isinstance(records, list):
        raise MalformedInput(f"{path}: records must be a list")
    for i, rec in enumerate(records):
        metrics = rec.get("metrics") if isinstance(rec, dict) else None
        if not (
            isinstance(metrics, dict)
            and isinstance(rec.get("similarity"), str)
            and isinstance(rec.get("name", ""), str)
            # each metric null or a rate; a JSON integer compares exactly, so
            # one beyond float range fails here instead of overflowing later
            and all(v is None or type(v) in (int, float) and 0 <= v <= 1
                    for v in (metrics.get(k, "") for k in REPORT_METRICS))
        ):
            raise MalformedInput(f"{path}: record {i} needs a string similarity and metrics "
                                 f"{', '.join(REPORT_METRICS)}, each null or a number in [0, 1]")
    return records


def cmd_report(args) -> int:
    records = [rec for path in args.inputs for rec in _read_records(path)]
    rows = aggregate_records(records)
    text = format_report_text(rows)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(format_report_csv(rows), encoding="utf-8")
        (out / "report.txt").write_text(text, encoding="utf-8")
        _write_manifest(out / "manifest.json", "report", {"inputs": list(map(str, args.inputs))}, 0)
    print(text, end="")
    return 0


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jmrm",
        description="Few-shot joint intent classification and slot filling experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate synthetic multi-domain corpora")
    p.add_argument("--config", help="config file with a 'synth' section")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("build-episodes", help="sample K-shot episodes from corpora")
    p.add_argument("--corpora", required=True)
    p.add_argument("--shots", type=int, required=True, help="K")
    p.add_argument("--query-size", type=int, default=8)
    p.add_argument("--count", type=int, default=10, help="episodes per domain")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output episode file")
    p.set_defaults(func=cmd_build_episodes)

    def add_run_flags(p):
        p.add_argument("--config", help="config file with 'run'/'encoder' sections")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--similarity", choices=SIMILARITY_KINDS, default=None)
        p.add_argument("--loss-mode", choices=LOSS_MODES, default=None)
        for flag in ("i2s-train", "msd-train", "i2s-eval", "msd-eval"):
            p.add_argument(f"--{flag}", dest=flag.replace("-", "_"),
                           action=argparse.BooleanOptionalAction, default=None)

    p = sub.add_parser("train", help="episodic training with dev model selection")
    add_run_flags(p)
    p.add_argument("--episodes", required=True, help="training episode file")
    p.add_argument("--dev", required=True, help="dev episode file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on episodes")
    add_run_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--episodes", required=True)
    p.add_argument("--name", default="eval", help="record name for reports")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "ablate",
        help=f"run the {'/'.join(ABLATION_GRID)} x cos/l2/vpb grid over seeds",
    )
    add_run_flags(p)
    p.add_argument("--episodes", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("oracle-check", help="enumeration/gradient/normalization suites")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--dump-masks", default=None,
                   help="episode file whose masks are dumped into the report")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("report", help="aggregate metric records into tables")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a run over none builds or checks nothing; a seed is a non-negative integer
    for flag, low in (("count", 1), ("seeds", 1), ("trials", 1), ("seed", 0)):
        if (value := getattr(args, flag, None)) is not None and value < low:
            raise ValueError(f"--{flag} must be >= {low}, got {value}")
    return args.func(args)


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("JMRM_LOG_LEVEL", "WARNING"))
    try:
        return run(argv)
    except Exception as exc:  # surfaced as machine-readable JSON
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
