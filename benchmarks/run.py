"""The jmrm benchmark: one workload, one seed, one measured window.

    python3 benchmarks/run.py --workload synth-train --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory.  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics from a traced run (untraced and traced rounds alternate,
and the difference of their times is the tracing overhead).  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
A fuller record (environment, workload shape, every metric with how it was
obtained, and the spans of the last traced round) goes to
benchmarks/results/.  --record stores the seed's quality guards in
benchmarks/quality.json instead of checking them.  See benchmarks/README.md.
"""

from __future__ import annotations

import os

# one closed-loop caller on a 2-core box: BLAS gets one thread, set before
# numpy is first imported
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
QUALITY_FILE = BENCH_DIR / "quality.json"
SETUP_REPS = 7

E2E_UNITS = {
    "setup_s": "s", "train_qps": "1/s", "eval_qps": "1/s", "episode_ms_p50": "ms",
    "episode_ms_p90": "ms", "round_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this seed's quality guards instead of measuring")
    return p.parse_args(argv)


def import_program():
    """Import jmrm from this checkout's src/; exit non-zero when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import jmrm
    except ImportError as exc:
        sys.exit(f"error: cannot import jmrm from {src}: {exc}")
    if Path(jmrm.__file__).resolve().parent != (src / "jmrm").resolve():
        sys.exit(f"error: jmrm was imported from {jmrm.__file__}, not from {src}")
    return jmrm


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "threads_env": BLAS_PIN},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def quiet_pieces(rounds: list) -> list:
    """Per piece of a round, its fastest time over the rounds.

    A shared host slows the CPU by up to 1.8 times in spells of about a
    second to minutes, and its noise only ever slows.  A whole round (a
    second or more) rarely runs clear of it, and whole runs can fall in a
    slow spell.  A piece is much shorter, so over the rounds of a run
    each piece almost always runs once in a fast moment.  Rounds repeat the
    same calls (the rerun check holds them to it), so piece n of every
    round is the same work, and the sum of the fastest pieces is the round
    on a quiet host."""
    phases = [phase for _, phase in rounds[0].pieces]
    columns = zip(*([s for s, _ in r.pieces] for r in rounds))
    return [(min(column), phase) for column, phase in zip(columns, phases)]


def end_to_end(setup_s: list, rounds: list) -> dict:
    """The end-to-end figures from the fastest time of every piece."""
    pieces = quiet_pieces(rounds)
    r = rounds[0]
    round_s = sum(s for s, _ in pieces)
    train_s = sum(s for s, phase in pieces if phase == "train")
    eval_s = round_s if r.eval_includes_train else round_s - train_s
    episode_ms = [pieces[d.piece][0] * 1000 for d in r.decodes]
    return {
        "setup_s": statistics.median(setup_s),
        "train_qps": r.train_handled / train_s,
        "eval_qps": r.eval_queries / eval_s,
        "episode_ms_p50": percentile(episode_ms, 50),
        "episode_ms_p90": percentile(episode_ms, 90),
        "round_s": round_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workloads, tracing, inputs, shape, setups, totals, traced, untraced, quality,
              failed_share) -> dict:
    """Per-layer figures from the traced rounds; name -> (value, unit, how)."""
    q_tr = sum(r.train_queries for r in traced)
    q_ev = sum(r.decoded_queries for r in traced)
    steps = sum(r.steps for r in traced)
    skipped = sum(r.skipped for r in traced)
    ms = 1000.0
    t = totals
    pq = t.per_query
    n_episodes = sum(len(v) for v in (inputs.train, inputs.dev, inputs.test))
    med = statistics.median
    out = {}

    def put(name, value, unit, how="measured"):
        out[name] = (float(value), unit, how)

    def ratio(a, b):
        return a / b if b else 0.0

    # set-up: corpus generation, episode building, the JSON round trip
    put("episodes.generate_ms", med(p["generate_s"] for p in setups) * ms, "ms")
    put("episodes.build_episode_ms",
        med(p["build_s"] / p["build_calls"] for p in setups) * ms, "ms")
    put("core.roundtrip_ms_per_episode", med(p["roundtrip_s"] for p in setups) * ms / n_episodes, "ms")
    put("episodes.support_size_mean", shape["support_size_mean"], "count", "computed")

    enc, bwd = "encoder.encode_tokens", "encoder.encoder_backward"
    put("encoder.encode_ms_per_query", pq("self_s", enc, q_tr, q_ev) * ms, "ms")
    put("encoder.encode_calls_per_query", pq("calls", enc, q_tr, q_ev), "count", "counted")
    put("encoder.backward_ms_per_query", pq("self_s", bwd, q_tr, q_ev) * ms, "ms")
    put("encoder.backward_calls_per_query", pq("calls", bwd, q_tr, q_ev), "count", "counted")

    protos = "protonet.compute_prototypes"
    emissions = ("protonet.compute_emissions", "protonet.similarity_to_protos")
    sims = ("protonet.similarity_to_protos", "protonet.similarity_grads")
    put("protonet.prototypes_ms_per_episode", ratio(t.total("self_s", protos), t.total("calls", protos)) * ms, "ms")
    put("protonet.emissions_ms_per_query", pq("self_s", emissions, q_tr, q_ev) * ms, "ms")
    put("protonet.similarity_grads_ms_per_query", pq("self_s", "protonet.similarity_grads", q_tr, q_ev) * ms, "ms")
    put("protonet.similarity_calls_per_query", pq("calls", sims, q_tr, q_ev), "count", "counted")

    ctx = "trainer.build_context"
    mask_build = ("masks.build_relation_mask", "masks.build_transition_mask")
    mask_apply = ("masks.apply_relation_mask", "masks.select")
    put("masks.build_ms_per_episode", ratio(t.total("self_s", mask_build), t.total("calls", ctx)) * ms, "ms")
    put("masks.apply_ms_per_query", pq("self_s", mask_apply, q_tr, q_ev) * ms, "ms")
    put("masks.relation_density", shape["relation_density_mean"], "share", "computed")

    put("lattice.log_partition_ms_per_query", pq("self_s", "lattice.log_partition", q_tr, q_ev) * ms, "ms")
    put("lattice.loss_gradients_ms_per_query", pq("self_s", "lattice.loss_gradients", q_tr, q_ev) * ms, "ms")
    put("lattice.viterbi_ms_per_query", pq("self_s", "lattice.viterbi_decode", q_tr, q_ev) * ms, "ms")
    put("lattice.joint_score_ms_per_query", pq("self_s", "lattice.joint_score", q_tr, q_ev) * ms, "ms")
    put("lattice.cells_per_query", ratio(t.cells, t.lattice_calls), "count", "computed")

    put("trainer.compute_loss_self_ms_per_query", pq("self_s", "trainer.compute_loss", q_tr, q_ev) * ms, "ms")
    put("trainer.build_context_ms_per_step", ratio(t.total("incl_s", ctx, ("train",)), steps) * ms, "ms")
    put("trainer.build_context_calls_per_step", ratio(t.total("calls", ctx, ("train",)), steps), "count", "counted")
    put("trainer.adam_ms_per_step", ratio(t.total("incl_s", "trainer.adam_step"), steps) * ms, "ms")
    train_wall = t.total("incl_s", "trainer.train", ("train",))
    put("trainer.dev_eval_share", ratio(t.dev_eval_s, train_wall), "share")
    put("trainer.skipped_share", ratio(skipped, q_tr), "share", "counted")

    put("metrics.score_ms_per_episode",
        ratio(t.total("self_s", "metrics.score"), t.total("calls", "metrics.score")) * ms, "ms")

    put("experiments.cell_s_p50", med(t.cell_s) if t.cell_s else 0.0, "s")
    put("experiments.duplicate_cell_share", workloads.duplicate_cell_share(inputs.workload), "share", "computed")

    # layer self times account for the round wall; the rest is "other"
    layer_s = {layer: 0.0 for layer in tracing.LAYERS}
    for (name, _), s in t.self_s.items():
        layer = name.split(".")[0]
        if layer in layer_s:
            layer_s[layer] += s
    for layer, s in layer_s.items():
        put(f"{layer}.self_share", ratio(s, t.wall_s), "share")
    put("other.self_share", ratio(t.wall_s - sum(layer_s.values()), t.wall_s), "share")

    traced_wall = sum(s for s, _ in quiet_pieces(traced))
    untraced_wall = sum(s for s, _ in quiet_pieces(untraced))
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.overhead_share", ratio(traced_wall - untraced_wall, untraced_wall), "share")

    put("quality.final_loss", quality["final_loss"], "nats", "output")
    for key in ("dev_joint_acc", "joint_acc"):
        put(f"quality.{key}", quality[key] or 0.0, "share", "output")
    put("failed_share", failed_share, "share", "counted")
    return out


def stages(t) -> dict:
    """A partition of the round wall into the stages the predictions name."""
    backward = t.total("self_s", "encoder.encoder_backward")
    log_partition = t.total("incl_s", "lattice.log_partition")
    sim_grads = t.total("incl_s", "protonet.similarity_grads")
    viterbi = t.total("incl_s", "lattice.viterbi_decode")
    emissions = t.total("incl_s", "protonet.compute_emissions")
    parts = {
        "encoder_backward": backward,
        "build_context": t.total("incl_s", "trainer.build_context", ("train",)),
        "log_partition": log_partition,
        "similarity_grads": sim_grads,
        "loss_other": t.total("incl_s", "trainer.compute_loss") - backward - log_partition - sim_grads,
        "adam": t.total("incl_s", "trainer.adam_step"),
        "viterbi": viterbi,
        "emissions": emissions,
        # evaluate spans never nest, so their sum is the evaluation wall
        "eval_other": t.total("incl_s", "trainer.evaluate") - viterbi - emissions,
    }
    parts["other"] = t.wall_s - sum(parts.values())
    return parts


PREDICTIONS = {
    "synth-train": ("encoder backward plus build_context is the largest stage",
                    ("encoder_backward", "build_context")),
    "snips-train": ("log_partition is the largest stage", ("log_partition",)),
    "snips-ablate": ("Viterbi plus emissions is the largest stage, with no backward spans",
                     ("viterbi", "emissions")),
}


def check_prediction(workload: str, t) -> dict:
    text, named = PREDICTIONS[workload]
    parts = stages(t)
    claimed = sum(parts[n] for n in named)
    rest = {n: s for n, s in parts.items() if n not in named}
    holds = all(claimed > s for s in rest.values())
    if workload == "snips-ablate":
        holds = holds and t.total("calls", "encoder.encoder_backward") == 0
    return {
        "prediction": text,
        "holds": holds,
        "claimed_share": claimed / t.wall_s,
        "largest_other": max(rest, key=rest.get),
        "largest_other_share": max(rest.values()) / t.wall_s,
        "backward_calls_equal_1_plus_support": (
            None if not t.backward_checked else t.backward_mismatches == 0),
        "stage_shares": {n: s / t.wall_s for n, s in parts.items()},
    }


def load_expected(workload: str, seed: int):
    if not QUALITY_FILE.exists():
        return None
    with open(QUALITY_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def record_quality(workload: str, seed: int, quality: dict) -> None:
    table = {}
    if QUALITY_FILE.exists():
        with open(QUALITY_FILE, encoding="utf-8") as fh:
            table = json.load(fh)
    table.setdefault(workload, {})[str(seed)] = quality
    table[workload] = dict(sorted(table[workload].items(), key=lambda kv: int(kv[0])))
    with open(QUALITY_FILE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    env = environment()

    plan = workloads.plan_episodes(args.workload, args.seed)
    setup_s, setups = [], []

    def set_up():
        gc.collect()
        t0 = time.perf_counter()
        built = workloads.setup(args.workload, args.seed, plan)
        setup_s.append(time.perf_counter() - t0)
        setups.append(built.setup_parts)
        return built

    inputs = set_up()
    shape = workloads.describe(inputs)

    problems: list[str] = []
    attempted = 0
    failed_ops = 0
    probe = workloads.Probe(test_ids={id(ep) for ep in inputs.test})
    probe.install()
    try:
        # the first round fills caches and provides the outputs that are
        # checked in full; it is not part of the measured window
        try:
            first = workloads.run_round(inputs, probe)
        except Exception:
            traceback.print_exc()
            print("error: the first round raised", file=sys.stderr)
            return 1
        attempted += first.train_queries + first.decoded_queries
        if args.record:
            record_quality(args.workload, args.seed, first.quality)
            print(json.dumps({"recorded": args.workload, "seed": args.seed, **first.quality}))
            return 0
        problems += workloads.check_decodes(first.decodes)
        problems += workloads.check_losses(first.losses)
        problems += workloads.check_duplicate_cells(first.records)
        problems += workloads.check_quality(first.quality, load_expected(args.workload, args.seed))

        tracer = tracing.Tracer() if args.trace else None
        totals = tracing.Totals()
        untraced, traced, last_spans = [], [], []
        # the other set-ups are spread over the window, so that their median
        # samples the host over the whole run, not over its first second;
        # the window is extended by the time they take
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            due = start + len(setup_s) * args.seconds / SETUP_REPS
            if len(setup_s) < SETUP_REPS and time.perf_counter() >= due:
                set_up()
                deadline += setup_s[-1]
                continue
            need_more = not untraced or (tracer is not None and not traced)
            if time.perf_counter() >= deadline and not need_more:
                break
            gc.collect()
            use_trace = tracer is not None and len(traced) < len(untraced)
            try:
                if use_trace:
                    r, last_spans = tracer.run_round(lambda: workloads.run_round(inputs, probe))
                    totals.add(last_spans)
                    traced.append(r)
                else:
                    r = workloads.run_round(inputs, probe)
                    untraced.append(r)
            except Exception:
                traceback.print_exc()
                problems.append("a measured round raised")
                failed_ops += 1
                break
            attempted += r.train_queries + r.decoded_queries
            problems += workloads.check_losses(r.losses)
            if r.fingerprint != first.fingerprint:
                problems.append("a rerun of the same inputs gave different outputs")
            if [p for _, p in r.pieces] != [p for _, p in first.pieces]:
                problems.append("a rerun of the same inputs made different calls")
    finally:
        probe.uninstall()

    failed = min(attempted, failed_ops + len(problems))
    correct = not problems and bool(untraced)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    if not untraced or (args.trace and not traced):
        print("error: no measured round completed", file=sys.stderr)
        return 1
    if args.trace:
        table = per_layer(workloads, tracing, inputs, shape, setups, totals, traced, untraced,
                          first.quality, failed / attempted)
        prediction = check_prediction(args.workload, totals)
    else:
        table = {k: (v, E2E_UNITS[k], "measured") for k, v in end_to_end(setup_s, untraced).items()}
        prediction = None

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "shape": shape,
        "setup_parts": setups, "rounds": {"untraced_wall_s": [r.wall_s for r in untraced],
                   "traced_wall_s": [r.wall_s for r in traced]},
        "correct": correct, "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": {k: {"value": v, "unit": u, "how": h} for k, (v, u, h) in table.items()},
        "prediction": prediction,
    }
    if args.trace:
        labels = {id(ep): f"{split}:{n}" for split in ("train", "dev", "test")
                  for n, ep in enumerate(getattr(inputs, split))}
        record["spans_of_last_traced_round"] = tracing.span_rows(last_spans, labels)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(shape)}")
    print(f"rounds: {len(untraced)} untraced, {len(traced)} traced; full record in {out}")
    for name, (value, unit, how) in table.items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} {how}")
    if prediction is not None:
        print(f"prediction: {json.dumps(prediction)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
