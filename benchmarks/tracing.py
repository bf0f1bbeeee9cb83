"""In-memory span tracing of the jmrm layers, from outside the package.

Each public function of a layer is wrapped where its caller looks it up
(jmrm.trainer.nll_loss, jmrm.encoder.encode_tokens, ...), so the program
itself is unchanged.  A span records its name, start, end and parent, and
the episode or query it worked on; self time is a span's duration minus
the durations of its children.  Spans stay in memory and are reduced to
per-layer figures when a round ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute, span name); the layer is the part before the dot
PATCHES = (
    ("jmrm", "train", "trainer.train"),
    ("jmrm", "evaluate", "trainer.evaluate"),
    ("jmrm.experiments", "run_ablation", "experiments.run_ablation"),
    ("jmrm.experiments", "run_cell", "experiments.run_cell"),
    ("jmrm.experiments", "make_encoder", "experiments.make_encoder"),
    ("jmrm.experiments", "train", "trainer.train"),
    ("jmrm.experiments", "evaluate", "trainer.evaluate"),
    ("jmrm.trainer", "evaluate", "trainer.evaluate"),
    ("jmrm.trainer", "predict_episode", "trainer.predict_episode"),
    ("jmrm.trainer", "build_context", "trainer.build_context"),
    ("jmrm.trainer", "compute_loss", "trainer.compute_loss"),
    ("jmrm.trainer", "adam_step", "trainer.adam_step"),
    ("jmrm.trainer", "score", "metrics.score"),
    ("jmrm.encoder", "encode_tokens", "encoder.encode_tokens"),
    ("jmrm.trainer", "encoder_backward", "encoder.encoder_backward"),
    ("jmrm.trainer", "compute_prototypes", "protonet.compute_prototypes"),
    ("jmrm.trainer", "compute_emissions", "protonet.compute_emissions"),
    ("jmrm.trainer", "similarity_to_protos", "protonet.similarity_to_protos"),
    ("jmrm.protonet", "similarity_to_protos", "protonet.similarity_to_protos"),
    ("jmrm.trainer", "similarity_grads", "protonet.similarity_grads"),
    ("jmrm.trainer", "build_relation_mask", "masks.build_relation_mask"),
    ("jmrm.trainer", "build_transition_mask", "masks.build_transition_mask"),
    ("jmrm.trainer", "all_ones_relation_mask", "masks.select"),
    ("jmrm.trainer", "permissive_transition_mask", "masks.select"),
    ("jmrm.trainer", "apply_relation_mask", "masks.apply_relation_mask"),
    ("jmrm.lattice", "apply_relation_mask", "masks.apply_relation_mask"),
    ("jmrm.trainer", "nll_loss", "lattice.nll_loss"),
    ("jmrm.lattice", "log_partition", "lattice.log_partition"),
    ("jmrm.lattice", "joint_score", "lattice.joint_score"),
    ("jmrm.trainer", "loss_gradients", "lattice.loss_gradients"),
    ("jmrm.trainer", "viterbi_decode", "lattice.viterbi_decode"),
)
LAYERS = ("encoder", "protonet", "masks", "lattice", "trainer", "metrics", "experiments")
ROUND = "bench.round"
# spans whose first arguments name the episode or query they work on
_EPISODE_ARG = {"trainer.predict_episode", "trainer.build_context"}
_QUERY_CTX_ARGS = {"trainer.compute_loss"}
_QUERY_ARG = {"protonet.compute_emissions"}
_LATTICE = {"lattice.log_partition", "lattice.viterbi_decode"}


class Patcher:
    """Replaces module attributes with wrappers and puts the originals back."""

    def __init__(self):
        self._saved: list = []

    def patch(self, module_name: str, attr: str, make_wrapper) -> None:
        """Set module.attr to make_wrapper(original)."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []


class Tracer:
    """Collects spans; install() patches every name in PATCHES."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, tag, cells]
        self._stack: list[int] = []
        self._patcher = Patcher()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        tag_episode = name in _EPISODE_ARG
        tag_query_ctx = name in _QUERY_CTX_ARGS
        tag_query = name in _QUERY_ARG
        lattice = name in _LATTICE

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0]
            if tag_episode:
                rec[4] = ("episode", args[0])
            elif tag_query_ctx:
                rec[4] = ("query", args[0], args[1].episode)
            elif tag_query:
                rec[4] = ("query", args[0], None)
            elif lattice:
                jin = args[0]
                rec[5] = jin.n_intents * jin.n_positions * jin.n_slots ** 2
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            self._patcher.patch(module_name, attr, lambda fn, name=name: self.wrap(name, fn))

    def uninstall(self) -> None:
        self._patcher.restore()

    def run_round(self, fn):
        """Run fn() under a root span; returns (fn's result, the round's spans)."""
        self.spans.clear()
        root = self.wrap(ROUND, fn)
        self.install()
        try:
            out = root()
        finally:
            self.uninstall()
        spans, self.spans = self.spans, []
        return out, spans


@dataclass
class Totals:
    """Per (span name, phase) sums over traced rounds."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    incl_s: dict = field(default_factory=lambda: defaultdict(float))
    cells: int = 0
    lattice_calls: int = 0
    wall_s: float = 0.0
    dev_eval_s: float = 0.0
    cell_s: list = field(default_factory=list)
    backward_mismatches: int = 0
    backward_checked: int = 0

    def add(self, spans: list) -> None:
        n = len(spans)
        self_s = [s[2] - s[1] for s in spans]
        phase = [""] * n
        backward_children = [0] * n
        for i, (name, t0, t1, parent, _, cells) in enumerate(spans):
            if parent >= 0:
                self_s[parent] -= t1 - t0
                if name == "encoder.encoder_backward":
                    backward_children[parent] += 1
            if name == "trainer.evaluate":
                phase[i] = "eval"
            elif name == "trainer.train":
                phase[i] = "train"
            else:
                phase[i] = phase[parent] if parent >= 0 else "other"
            if cells:
                self.cells += cells
                self.lattice_calls += 1
        for i, (name, t0, t1, parent, tag, _) in enumerate(spans):
            key = (name, phase[i])
            self.calls[key] += 1
            self.self_s[key] += self_s[i]
            self.incl_s[key] += t1 - t0
            if name == ROUND:
                self.wall_s += t1 - t0
            elif name == "trainer.evaluate" and phase[parent] == "train":
                self.dev_eval_s += t1 - t0
            elif name == "experiments.run_cell":
                self.cell_s.append(t1 - t0)
            elif name == "trainer.compute_loss" and backward_children[i]:
                # a query that reached the backward pass re-backpropagates
                # every support sample once, plus itself
                self.backward_checked += 1
                if backward_children[i] != 1 + len(tag[2].support):
                    self.backward_mismatches += 1

    def total(self, table: str, names, phases=("train", "eval", "other")) -> float:
        src = getattr(self, table)
        names = (names,) if isinstance(names, str) else names
        return sum(src.get((n, p), 0) for n in names for p in phases)

    def per_query(self, table: str, names, q_train: int, q_eval: int) -> float:
        """Training-phase spans over training queries plus evaluation-phase
        spans over decoded queries."""
        out = 0.0
        if q_train:
            out += self.total(table, names, ("train",)) / q_train
        if q_eval:
            out += self.total(table, names, ("eval",)) / q_eval
        return out


def span_rows(spans: list, episode_labels: dict) -> list[dict]:
    """Spans as JSON rows, with the episode and query they worked on
    (inherited from the nearest tagged ancestor)."""
    rows = []
    context: list[tuple] = []
    for name, t0, t1, parent, tag, _ in spans:
        episode, query = context[parent] if parent >= 0 else (None, None)
        if tag is not None and tag[0] == "episode":
            episode, query = tag[1], None
        elif tag is not None:
            episode = tag[2] if tag[2] is not None else episode
            query = next((n for n, q in enumerate(episode.query) if q is tag[1]), None)
        context.append((episode, query))
        rows.append({"name": name, "start": t0, "end": t1, "parent": parent,
                     "episode": episode_labels.get(id(episode)), "query": query})
    return rows
