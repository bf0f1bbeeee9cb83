"""Workload inputs, one measured round per workload, and the output checks.

Every workload drives the public jmrm API in one process with one
closed-loop caller: the next call starts only when the previous returned.

    synth-train   default SynthSpec, trainable encoder, train() + test decode
    snips-train   SNIPS-shaped label space, same encoder and run config
    snips-ablate  the full run_ablation grid, hashed-frozen encoder

The inputs are a pure function of the workload seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import jmrm
import jmrm.experiments
import jmrm.trainer
from jmrm import (
    EncoderConfig,
    JointScoreInputs,
    RelationMask,
    RunConfig,
    SynthSpec,
    TransitionMask,
    build_episode,
    build_relation_mask,
    build_transition_mask,
    compute_emissions,
    compute_prototypes,
    generate_synthetic,
    joint_score,
    parse_episodes,
    serialize_episodes,
)

from snips_shape import LENGTHS, snips_shaped_corpus
from tracing import Patcher

WORKLOADS = ("synth-train", "snips-train", "snips-ablate")

SHOTS = 5
QUERY_SIZE = 8
# the trainable encoder and run config shared by both train workloads
TRAIN_ENCODER = dict(kind="trainable", dim=32, context_window=1)
TRAIN_RUN = dict(similarity_kind="vpb", loss_mode="joint", batch_size=4, learning_rate=0.01)
# synth-train: 32 train episodes, 64 steps x 4 queries = 256 = every train
# query once; dev eval every 16 steps
SYNTH_EPISODES = dict(train=4, dev=2, test=16)  # per domain of each split
SYNTH_STEPS = dict(max_steps=64, eval_every=16)
# snips-*: one SNIPS-shaped corpus per split; 4 steps x 4 = 16 = the 2 train
# episodes once.  The long lattice makes every query expensive, so a round
# stays short (about a second) by using few episodes
SNIPS_SAMPLES_PER_INTENT = 24
SNIPS_EPISODES = dict(train=2, dev=1, test=4)
SNIPS_STEPS = dict(max_steps=4, eval_every=2)
ABLATE_ENCODER = dict(kind="hashed-frozen", dim=32)

# float reassociation inside the program moves the loss in its last digits
# and cannot flip more than a stray near-tie; a changed model moves more
QUALITY_LOSS_RTOL = 1e-4
QUALITY_ACC_ATOL = 0.01


@dataclass
class Inputs:
    """Everything a round needs; built by setup() from the seed alone."""

    workload: str
    train: list
    dev: list
    test: list
    run_config: RunConfig
    enc_config: EncoderConfig
    encoder: jmrm.Encoder
    setup_parts: dict


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _is_mixed(episode) -> bool:
    """The query set is half 12-token and half 40-token."""
    return 2 * sum(len(q) == LENGTHS[0] for q in episode.query) == QUERY_SIZE


def _corpora(workload: str, seed: int, rng) -> tuple[dict, dict]:
    """The corpora of each split and the episodes to build per corpus."""
    if workload == "synth-train":
        source, dev, target = generate_synthetic(SynthSpec(seed=seed))
        return {"train": source, "dev": dev, "test": target}, SYNTH_EPISODES
    corpora = {
        split: [snips_shaped_corpus(rng, f"snips{split}", SNIPS_SAMPLES_PER_INTENT)]
        for split in ("train", "dev", "test")
    }
    return corpora, SNIPS_EPISODES


def plan_episodes(workload: str, seed: int) -> dict:
    """The rng state before every kept build_episode draw, per split.

    On snips-* a draw whose query set does not mix the two lengths half and
    half is discarded, so every episode costs the same lattice work.  That
    search is the benchmark's choice of inputs, not work the program does,
    so it runs once outside the timed set-up, which replays only the kept
    draws."""
    rng = _rng(seed, 1)
    corpora, counts = _corpora(workload, seed, rng)
    plan = {}
    for split, cs in corpora.items():
        states = []
        for corpus in cs:
            for _ in range(counts[split]):
                while True:
                    state = rng.bit_generator.state
                    episode = build_episode(corpus, SHOTS, QUERY_SIZE, rng)
                    if workload == "synth-train" or _is_mixed(episode):
                        break
                states.append(state)
        plan[split] = states
    return plan


def _build_splits(workload: str, seed: int, plan: dict) -> tuple[dict, dict]:
    """Corpora, then the planned episodes per split; returns (splits, setup parts)."""
    rng = _rng(seed, 1)
    t0 = time.perf_counter()
    corpora, counts = _corpora(workload, seed, rng)
    t1 = time.perf_counter()
    splits = {}
    for split, cs in corpora.items():
        states = iter(plan[split])
        episodes = []
        for corpus in cs:
            for _ in range(counts[split]):
                rng.bit_generator.state = next(states)
                episodes.append(build_episode(corpus, SHOTS, QUERY_SIZE, rng))
        splits[split] = episodes
    build_calls = sum(len(v) for v in splits.values())
    parts = {"generate_s": t1 - t0, "build_s": time.perf_counter() - t1, "build_calls": build_calls}
    return splits, parts


def setup(workload: str, seed: int, plan: dict) -> Inputs:
    """Corpus generation, episode building, the episode-file JSON round trip
    the CLI pays between build-episodes and train/ablate, and encoder init.
    plan is plan_episodes(workload, seed)."""
    splits, parts = _build_splits(workload, seed, plan)
    t0 = time.perf_counter()
    parsed = {k: parse_episodes(serialize_episodes(v)) for k, v in splits.items()}
    parts["roundtrip_s"] = time.perf_counter() - t0
    if workload == "snips-ablate":
        enc_config = EncoderConfig(seed=seed, **ABLATE_ENCODER)
        run_config = RunConfig(seed=seed)
    else:
        enc_config = EncoderConfig(seed=seed, **TRAIN_ENCODER)
        steps = SYNTH_STEPS if workload == "synth-train" else SNIPS_STEPS
        run_config = RunConfig(seed=seed, **TRAIN_RUN, **steps)
    t0 = time.perf_counter()
    encoder = jmrm.experiments.make_encoder(enc_config, parsed["train"])
    parts["encoder_init_s"] = time.perf_counter() - t0
    return Inputs(
        workload=workload,
        train=parsed["train"],
        dev=parsed["dev"],
        test=parsed["test"],
        run_config=run_config,
        enc_config=enc_config,
        encoder=encoder,
        setup_parts=parts,
    )


def describe(inputs: Inputs) -> dict:
    """Label-space shape, length mix, support sizes and relation-mask density."""
    splits = {"train": inputs.train, "dev": inputs.dev, "test": inputs.test}
    episodes = [ep for eps in splits.values() for ep in eps]
    lengths = [len(q) for ep in episodes for q in ep.query]
    densities = [
        float(build_relation_mask(ep.support, ep.label_space).rm.mean()) for ep in episodes
    ]
    return {
        "episodes": {k: len(v) for k, v in splits.items()},
        "queries_per_episode": QUERY_SIZE,
        "shots": SHOTS,
        "n_intents": sorted({ep.label_space.n_intents for ep in episodes}),
        "n_slot_labels": sorted({ep.label_space.n_slots for ep in episodes}),
        "query_length_counts": {str(m): lengths.count(m) for m in sorted(set(lengths))},
        "support_sizes": [len(ep.support) for ep in episodes],
        "support_size_mean": float(np.mean([len(ep.support) for ep in episodes])),
        "relation_density_mean": float(np.mean(densities)),
    }


# --- light probes (installed in every round, traced or not) ---------------


@dataclass
class Decode:
    """One predict_episode call on a test episode; piece indexes its span
    in Round.pieces."""

    episode: jmrm.Episode
    encoder: jmrm.Encoder
    config: RunConfig
    predictions: list
    piece: int


@dataclass
class Probe:
    """Marks on predict_episode (where evaluate looks it up), on adam_step
    (where train looks it up) and on train (where run_cell looks it up).

    The marks cut a round into short pieces of fixed work: one optimiser
    step with the dev eval that follows it, one episode decode, the work
    between two decodes.  Rounds repeat the same calls, so piece n of every
    round is the same work.  The probe also records the test decodes for
    the output checks and counts the queries decoded inside train()."""

    test_ids: set
    decodes: list = field(default_factory=list)
    decoded_queries: int = 0
    grid_train_queries: int = 0
    # (time, phase of the piece that ends there); phase is "train" or "eval"
    marks: list = field(default_factory=list)
    phase: str = "eval"
    _patcher: Patcher = field(default_factory=Patcher)

    def install(self) -> None:
        self._patcher.patch("jmrm.trainer", "predict_episode", self._marked_predict)
        self._patcher.patch("jmrm.trainer", "adam_step", self._marked_step)
        self._patcher.patch("jmrm.experiments", "train", self._marked_train)

    def uninstall(self) -> None:
        self._patcher.restore()

    def mark(self, phase_after: str | None = None) -> None:
        self.marks.append((time.perf_counter(), self.phase))
        if phase_after is not None:
            self.phase = phase_after

    def _marked_predict(self, predict):
        def predict_episode(episode, encoder, config):
            self.mark()
            preds = predict(episode, encoder, config)
            self.mark()
            self.decoded_queries += len(episode.query)
            if self.phase == "train":
                self.grid_train_queries += len(episode.query)
            if id(episode) in self.test_ids:
                self.decodes.append(Decode(episode, encoder, config, preds, len(self.marks) - 2))
            return preds

        return predict_episode

    def _marked_step(self, adam_step):
        def step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            self.mark()
            return out

        return step

    def _marked_train(self, grid_train):
        def train(*args, **kwargs):
            self.mark(phase_after="train")
            try:
                return grid_train(*args, **kwargs)
            finally:
                self.mark(phase_after="eval")

        return train

    def reset(self, phase: str) -> None:
        self.decodes = []
        self.decoded_queries = 0
        self.grid_train_queries = 0
        self.marks = []
        self.phase = phase


# --- one round -------------------------------------------------------------


@dataclass
class Round:
    wall_s: float
    pieces: list  # (seconds, phase) between consecutive probe marks
    eval_includes_train: bool  # the grid: every piece counts as evaluation
    train_queries: int  # training queries drawn, skipped ones included
    train_handled: int  # training queries drawn + dev queries decoded by train()
    skipped: int
    steps: int
    eval_queries: int
    decoded_queries: int
    quality: dict
    fingerprint: tuple  # everything the program output, for the rerun check
    losses: list
    decodes: list
    records: list


def run_round(inputs: Inputs, probe: Probe) -> Round:
    if inputs.workload == "snips-ablate":
        probe.reset("eval")
        return _ablate_round(inputs, probe)
    probe.reset("train")
    return _train_round(inputs, probe)


def _pieces(marks: list) -> list:
    return [(t1 - t0, phase) for (t0, _), (t1, phase) in zip(marks, marks[1:])]


def _train_round(inputs: Inputs, probe: Probe) -> Round:
    cfg = inputs.run_config
    encoder = inputs.encoder.copy()  # train() updates the encoder in place
    probe.mark()
    result = jmrm.train(inputs.train, inputs.dev, encoder, cfg)
    probe.mark(phase_after="eval")
    dev_decoded = probe.decoded_queries
    test_metrics = jmrm.evaluate(inputs.test, result.encoder, cfg)
    probe.mark()

    losses = [e["loss"] for e in result.log if e["event"] == "train"]
    steps = len(losses)
    drawn = steps * cfg.batch_size + result.skipped_queries
    quality = {
        "final_loss": losses[-1] if losses else 0.0,
        "dev_joint_acc": result.best_dev_joint_acc,
        "joint_acc": test_metrics.joint_acc,
        "intent_acc": test_metrics.intent_acc,
        "slot_f1": test_metrics.slot_f1,
    }
    fingerprint = (
        tuple(repr(e) for e in result.log),
        tuple(repr(d.predictions) for d in probe.decodes),
        repr(test_metrics.to_dict()),
    )
    return Round(
        wall_s=probe.marks[-1][0] - probe.marks[0][0],
        pieces=_pieces(probe.marks),
        eval_includes_train=False,
        train_queries=drawn,
        train_handled=drawn + dev_decoded,
        skipped=result.skipped_queries,
        steps=steps,
        eval_queries=test_metrics.n_queries,
        decoded_queries=probe.decoded_queries,
        quality=quality,
        fingerprint=fingerprint,
        losses=losses,
        decodes=list(probe.decodes),
        records=[],
    )


def _ablate_round(inputs: Inputs, probe: Probe) -> Round:
    probe.mark()
    records = jmrm.experiments.run_ablation(
        inputs.train, inputs.dev, inputs.test, inputs.run_config, inputs.enc_config, 1
    )
    probe.mark()
    quality = {
        "final_loss": 0.0,  # a frozen encoder trains nothing
        "dev_joint_acc": float(np.mean([r["best_dev_joint_acc"] for r in records])),
        **{key: float(np.mean([r["metrics"][key] for r in records]))
           for key in ("joint_acc", "intent_acc", "slot_f1")},
    }
    fingerprint = (
        tuple(repr(r) for r in records),
        tuple(repr(d.predictions) for d in probe.decodes),
    )
    return Round(
        wall_s=probe.marks[-1][0] - probe.marks[0][0],
        pieces=_pieces(probe.marks),
        eval_includes_train=True,
        train_queries=0,
        train_handled=probe.grid_train_queries,
        skipped=sum(r["skipped_queries"] for r in records),
        steps=0,
        eval_queries=probe.decoded_queries,
        decoded_queries=probe.decoded_queries,
        quality=quality,
        fingerprint=fingerprint,
        losses=[],
        decodes=list(probe.decodes),
        records=records,
    )


# --- output checks (never inside a timed region) ---------------------------


def _eval_masks(episode, config: RunConfig) -> tuple[RelationMask, TransitionMask]:
    """The masks decoding must respect, rebuilt from the public mask API."""
    ls = episode.label_space
    if config.i2s_eval:
        rm = build_relation_mask(episode.support, ls, force_o=config.force_o_related)
    else:
        rm = RelationMask(np.ones((ls.n_intents, ls.n_slots), dtype=bool), True)
    if config.msd_eval:
        tm = build_transition_mask(ls)
    else:
        tm = TransitionMask(np.ones((ls.n_slots, ls.n_slots)), np.ones(ls.n_slots))
    return rm, tm


def check_decodes(decodes: list) -> list[str]:
    """Every decoded pair scores finite under the eval masks (so it is
    BIO-legal and relation-consistent), and a Viterbi decode scores at
    least R(gold) whenever gold is feasible."""
    problems = []
    for d in decodes:
        rm, tm = _eval_masks(d.episode, d.config)
        protos = compute_prototypes(d.episode.support, d.episode.label_space, d.encoder)
        if len(d.predictions) != len(d.episode.query):
            problems.append(f"{d.episode.domain_name}: {len(d.predictions)} predictions "
                            f"for {len(d.episode.query)} queries")
            continue
        for n, (query, (y, path)) in enumerate(zip(d.episode.query, d.predictions)):
            em = compute_emissions(query, protos, d.encoder, d.config.similarity_kind)
            jin = JointScoreInputs(em.intent, em.slot, rm, tm, d.config.lam)
            pred = joint_score(y, path, jin)
            where = f"{d.episode.domain_name} query {n} ({d.config.similarity_kind})"
            if not math.isfinite(pred):
                problems.append(f"{where}: decoded pair is masked (score {pred})")
                continue
            if d.config.msd_eval:
                gold = joint_score(query.intent, query.slots, jin)
                if math.isfinite(gold) and pred < gold - 1e-9 * max(1.0, abs(gold)):
                    problems.append(f"{where}: Viterbi score {pred!r} < R(gold) {gold!r}")
    return problems


def check_losses(losses: list) -> list[str]:
    return [f"training step {n + 1}: loss {v!r}" for n, v in enumerate(losses)
            if not math.isfinite(v)]


def check_duplicate_cells(records: list) -> list[str]:
    """Cells whose test outputs must coincide by construction do coincide."""
    problems = []
    for group in duplicate_cell_groups():
        for sim in {r["similarity"] for r in records}:
            metrics = [r["metrics"] for r in records if r["name"] in group and r["similarity"] == sim]
            if any(m != metrics[0] for m in metrics[1:]):
                problems.append(f"cells {sorted(group)} ({sim}) differ under a frozen encoder")
    return problems


def duplicate_cell_groups() -> list[set]:
    """Grid rows that decode identically under a frozen encoder: train() is
    evaluation only there, so only the eval-time mask flags matter."""
    groups: dict = {}
    for name, flags in jmrm.experiments.ABLATION_GRID.items():
        groups.setdefault((flags["i2s_eval"], flags["msd_eval"]), set()).add(name)
    return [g for g in groups.values() if len(g) > 1]


def duplicate_cell_share(workload: str) -> float:
    if workload != "snips-ablate":
        return 0.0
    rows = len(jmrm.experiments.ABLATION_GRID)
    duplicates = sum(len(g) - 1 for g in duplicate_cell_groups())
    return duplicates / rows


def check_quality(quality: dict, expected: dict | None) -> list[str]:
    if expected is None:
        return []
    problems = []
    for key, want in expected.items():
        got = quality[key]
        if got is None or want is None:
            ok = got == want
        elif key == "final_loss":
            ok = math.isclose(got, want, rel_tol=QUALITY_LOSS_RTOL, abs_tol=1e-12)
        else:
            ok = abs(got - want) <= QUALITY_ACC_ATOL
        if not ok:
            problems.append(f"quality guard {key}: {got!r}, recorded {want!r}")
    return problems
