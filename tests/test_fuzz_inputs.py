"""Seeded mutation fuzzing of every JSON file kind the CLI reads.

Valid episode, corpus, checkpoint, config and report files are mutated
(drop a key, retype a value, swap a list and an object, shorten a list such
as a matrix row, turn a number into NaN, truncate the bytes, insert a
non-UTF-8 byte) and each mutant is run through ``jmrm.cli.main``.  A mutant
may still be valid; any failure must be a typed error defined in jmrm,
reported through the one-line JSON exit.  The per-query lengths of a
packed lattice batch, which no file carries, are checked the same way: each
bad one ends in a ValueError where JointScoreInputs is built.  So are the
gold pairs the lattice scores: an id outside the label space ends in
LabelMismatch, and a sequence of another length in LengthMismatch.
"""

import importlib
import json
import pkgutil
import random

import numpy as np
import pytest

import jmrm
from jmrm.cli import main
from jmrm.encoder import EncoderConfig, init_encoder, save_encoder
from jmrm.core import LabelMismatch, LengthMismatch
from jmrm.lattice import JointScoreInputs, joint_score, log_partition, loss_gradients, nll_loss
from jmrm.masks import all_ones_relation_mask, permissive_transition_mask
from jmrm.oracles import random_instance

MUTANTS_PER_KIND = 120
UNTYPED = {"KeyError", "TypeError", "IndexError", "AttributeError",
           "JSONDecodeError", "UnicodeDecodeError"}


def jmrm_error_names() -> set[str]:
    names = set()
    for info in pkgutil.iter_modules(jmrm.__path__):
        module = importlib.import_module(f"jmrm.{info.name}")
        names |= {
            name for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, Exception)
            and obj.__module__.startswith("jmrm")
        }
    return names


def run_cli(capsys, *argv):
    capsys.readouterr()
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err.strip().splitlines()
    return code, (json.loads(err[-1]) if code else None)


# --- mutations ----------------------------------------------------------------


def positions(node, out=None):
    """Every (container, key) slot in a JSON tree, depth first."""
    out = [] if out is None else out
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        positions(child, out)
    return out


def pick(tree, rng, wanted):
    """A random (container, key) slot satisfying ``wanted``, or None."""
    slots = [(c, k) for c, k in positions(tree) if wanted(c, k)]
    return rng.choice(slots) if slots else None


def drop_key(tree, rng):
    slot = pick(tree, rng, lambda c, k: isinstance(c, dict))
    if slot:
        del slot[0][slot[1]]


def retype(tree, rng):
    container, key = pick(tree, rng, lambda c, k: True)
    old = container[key]
    container[key] = rng.choice(
        [v for v in ("x", 1.5, 7, None, True, [], {}) if type(v) is not type(old)]
    )


def swap_list_object(tree, rng):
    slot = pick(tree, rng, lambda c, k: isinstance(c[k], (list, dict)))
    if slot:
        old = slot[0][slot[1]]
        slot[0][slot[1]] = (
            {str(i): v for i, v in enumerate(old)} if isinstance(old, list) else list(old.values())
        )


def shorten_list(tree, rng):
    """Drop the last item of a list, such as a matrix row or a slot sequence."""
    slot = pick(tree, rng, lambda c, k: isinstance(c[k], list) and c[k])
    if slot:
        slot[0][slot[1]].pop()


def number_to_nan(tree, rng):
    """Replace a number with NaN, which json.dumps writes as a bare NaN."""
    slot = pick(tree, rng, lambda c, k: type(c[k]) in (int, float))
    if slot:
        slot[0][slot[1]] = float("nan")


def truncate(data: bytes, rng) -> bytes:
    return data[: rng.randrange(len(data))]


def insert_non_utf8(data: bytes, rng) -> bytes:
    at = rng.randrange(len(data) + 1)
    return data[:at] + bytes([rng.randrange(0x80, 0x100)]) + data[at:]


TREE_MUTATIONS = (drop_key, retype, swap_list_object, shorten_list, number_to_nan)
BYTE_MUTATIONS = (truncate, insert_non_utf8)


def mutants(valid: bytes, seed: int):
    rng, ops = random.Random(seed), TREE_MUTATIONS + BYTE_MUTATIONS
    for n in range(MUTANTS_PER_KIND):
        op = ops[n % len(ops)]
        if op in BYTE_MUTATIONS:
            yield op.__name__, op(valid, rng)
        else:
            tree = json.loads(valid)
            op(tree, rng)
            yield op.__name__, json.dumps(tree).encode()


# --- valid inputs -------------------------------------------------------------


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    config = {
        "run": {"similarity_kind": "vpb", "max_steps": 0, "seed": 0},
        "encoder": {"kind": "hashed-frozen", "dim": 8},
        "synth": {"n_source_domains": 1, "n_dev_domains": 1, "n_target_domains": 1,
                  "samples_per_domain": 12, "seed": 0},
    }
    (d / "config.json").write_text(json.dumps(config))
    assert main(["gen-synth", "--config", str(d / "config.json"), "--out", str(d)]) == 0
    assert main(["build-episodes", "--corpora", str(d / "target.json"), "--shots", "1",
                 "--query-size", "2", "--count", "1", "--out", str(d / "episodes.json")]) == 0
    vocab = sorted({t for ep in jmrm.load_episode_file(d / "episodes.json")
                    for s in ep.support + ep.query for t in s.tokens})
    save_encoder(d / "checkpoint.json",
                 init_encoder(EncoderConfig("trainable", dim=3, seed=0), vocab))
    metrics = {"intent_acc": 0.5, "slot_f1": 0.25, "joint_acc": None}
    (d / "report.json").write_text(json.dumps({"records": [
        {"name": "JM", "similarity": "cos", "seed": 0, "metrics": metrics},
        {"name": "JMRM", "similarity": "vpb", "seed": 1, "metrics": metrics},
    ]}))
    return d


def commands(kind, d, mutant):
    """The CLI runs that read a file of this kind, with ``mutant`` in its place."""
    out = d / "out"
    if kind == "episodes":
        return [("eval", "--checkpoint", d / "checkpoint.json", "--episodes", mutant, "--out", out)]
    if kind == "corpus":
        return [("build-episodes", "--corpora", mutant, "--shots", 1, "--query-size", 2,
                 "--count", 1, "--out", out / "episodes.json")]
    if kind == "checkpoint":
        return [("eval", "--checkpoint", mutant, "--episodes", d / "episodes.json", "--out", out)]
    if kind == "config":
        return [("train", "--config", mutant, "--episodes", d / "episodes.json",
                 "--dev", d / "episodes.json", "--out", out),
                ("gen-synth", "--config", mutant, "--out", out)]
    return [("report", "--inputs", mutant)]


VALID = {"episodes": "episodes.json", "corpus": "target.json",
         "checkpoint": "checkpoint.json", "config": "config.json", "report": "report.json"}


@pytest.mark.parametrize("seed, kind", list(enumerate(VALID)))
def test_mutants_fail_typed(files, capsys, seed, kind):
    allowed = jmrm_error_names()
    assert not allowed & UNTYPED
    valid = (files / VALID[kind]).read_bytes()
    for argv in commands(kind, files, files / VALID[kind]):
        assert run_cli(capsys, *argv)[0] == 0
    mutant_path = files / f"mutant-{kind}.json"
    untyped, failures = [], 0
    for op, data in mutants(valid, seed):
        mutant_path.write_bytes(data)
        for argv in commands(kind, files, mutant_path):
            code, error = run_cli(capsys, *argv)
            failures += code != 0
            if code and error["error"] not in allowed:
                untyped.append((op, argv[0], error))
    assert not untyped, untyped[:5]
    assert failures >= MUTANTS_PER_KIND // 3


# --- packed lattice batches ---------------------------------------------------


def lattice_inputs(f_l_shape, f_o_shape, lengths):
    return JointScoreInputs(np.zeros(f_l_shape), np.zeros(f_o_shape), all_ones_relation_mask(2, 3),
                            permissive_transition_mask(3), 1.0, lengths)


@pytest.mark.parametrize("lengths, match", [
    ([4, 2, 1], r"lengths \(3,\) int\d+ are not \(2,\) integers"),  # one per query
    ([[4, 2]], r"lengths \(1, 2\) int\d+ are not \(2,\) integers"),
    (4, r"lengths \(\) int\d+ are not \(2,\) integers"),
    ([4.0, 2.0], r"lengths \(2,\) float64 are not \(2,\) integers"),
    ([True, True], r"lengths \(2,\) bool are not \(2,\) integers"),
    ([0, 2], r"lengths must lie in 1\.\.4"),
    ([4, -1], r"lengths must lie in 1\.\.4"),
    ([5, 2], r"lengths must lie in 1\.\.4"),
])
def test_bad_lengths_rejected(lengths, match):
    with pytest.raises(ValueError, match=match):
        lattice_inputs((2, 2), (2, 4, 3), np.array(lengths))


def test_lengths_need_a_batch():
    with pytest.raises(ValueError, match="lengths needs a batch"):
        lattice_inputs((2,), (4, 3), np.array([4]))


def gold_calls(gold_y, gold_t, jin):
    post = log_partition(jin)
    return (lambda: joint_score(gold_y, gold_t, jin), lambda: nll_loss(gold_y, gold_t, jin),
            lambda: loss_gradients(gold_y, gold_t, post, jin))


def test_a_packed_batch_rejects_one_querys_gold():
    jin = lattice_inputs((2, 2), (2, 4, 3), np.array([4, 2]))
    assert log_partition(jin).log_z.shape == (2,)
    for call in gold_calls(0, np.zeros(4, dtype=int), jin):
        with pytest.raises(LengthMismatch, match=r"are not \(2,\) and \(2, 4\)"):
            call()


@pytest.mark.parametrize("gold_y, gold_t, error, match", [
    (-1, [0, 1, 2], LabelMismatch, "gold intent -1 lies outside the 3 intents"),
    (3, [0, 1, 2], LabelMismatch, "gold intent 3 lies outside"),
    (0, [0, -1, 2], LabelMismatch, "gold slot id -1 lies outside the 4 slot labels"),
    (0, [0, 1, 4], LabelMismatch, "gold slot id 4 lies outside"),
    (0.0, [0, 1, 2], LabelMismatch, "gold ids must be integers"),
    (0, [0.0, 1.0, 2.0], LabelMismatch, "gold ids must be integers"),
    (-1, [0, 1], LengthMismatch, r"slots \(2,\) are not \(\) and \(3,\)"),
    (0, [0, 1, 2, 3], LengthMismatch, r"slots \(4,\) are not"),
    ([0], [0, 1, 2], LengthMismatch, r"gold intents \(1,\)"),
])
def test_gold_outside_the_label_space_or_length_rejected(gold_y, gold_t, error, match):
    """Indexing would score intent -1 and slot id -1 as the last label, and
    loss_gradients would take a gold sequence of another length."""
    jin = random_instance(np.random.default_rng(0))  # Y=3, m=3, T=4
    for call in gold_calls(gold_y, gold_t, jin):
        with pytest.raises(error, match=match):
            call()


@pytest.mark.parametrize("gold_y, gold_t, error, match", [
    ([0, 1], [[0, 1, 2, 0], [2, 0, -1, -1]], None, None),
    ([0, 2], [[0, 1, 2, 0], [2, 0, -1, -1]], LabelMismatch, "gold intent 2"),
    ([0, 1], [[0, 1, 2, 3], [2, 0, -1, -1]], LabelMismatch, "gold slot id 3"),
    ([0, 1], [[0, 1, 2, -1], [2, 0, -1, -1]], LabelMismatch, "gold slot id -1"),
    ([0, 1], [[0, 1, 2, 0], [2, 0, 1, -1]], LengthMismatch, "past a query's length must be -1"),
    ([0, 1], [[0, 1, 2, 0], [2, 0, -1, -2]], LengthMismatch, "past a query's length must be -1"),
    ([0, 1, 0], [[0, 1, 2, 0], [2, 0, -1, -1]], LengthMismatch, r"gold intents \(3,\)"),
])
def test_packed_gold_checked_query_by_query(gold_y, gold_t, error, match):
    jin = lattice_inputs((2, 2), (2, 4, 3), np.array([4, 2]))
    for call in gold_calls(np.array(gold_y), np.array(gold_t), jin):
        if error is None:
            call()
            continue
        with pytest.raises(error, match=match):
            call()
