"""The loop-free encoder window, prototype and separate-loss paths, the
row-batched emissions and similarity backward, the backward pass from a
kept forward state, the transition mask, the structured sum-product
sweep, the training loop, the K-shot support selection, the labeled-file
writer, the ablation grid, the packed decoder and the packed sum-product
half, and the span counts and gold warnings read from the label space's
one adjacency rule are bit-identical to the code they replaced.

The references below are that code: a per-position window mean, the
(i, j) double loop that scatters the window gradient, per-token prototype
sums, the 2-D ufunc.at window, prototype sums and token-based backward
scatter, one similarity call and one similarity-gradient contraction per
embedding row, the prototype gradient spread through per-class member
lists, one softmax cross-entropy per token, the (o1, o2) double loop over
BIO cells, the dense per-intent log_partition (ref_log_partition_dense,
in tests/lattice_reference.py with the Viterbi reference), the training
loop that selected the masks per query and rebuilt a context after every
step, the support selection that recounted the whole selection after
every move, the per-file record builders, the grid that built every
cell's prototypes anew, the decoder that ran one Viterbi call per query,
the per-query joint score, loss and gradients over the dense kernel, and
the span and warning loops that parsed every token's label.  Every
comparison is exact, not a tolerance: the benchmark's snips-train quality
guards record how rounding breaks near-tied intent scores, so they depend
on the exact bits.
assert_same_bits compares bytes, so it also tells -0.0 from 0.0, as the
run fingerprints (reprs) do.
"""

import importlib
import json
import logging
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import pytest

from jmrm.encoder import (
    EncoderConfig,
    _window_means,
    encode_tokens,
    encoder_backward,
    init_encoder,
    zero_grads,
)
from jmrm.core import (
    Episode,
    LabelSpace,
    Sample,
    sample_to_dict,
    serialize_episodes,
    split_slot_label,
)
from jmrm.episodes import (
    Corpus,
    InsufficientCorpus,
    SynthSpec,
    build_episode,
    build_support_set,
    generate_synthetic,
    serialize_corpora,
)
from jmrm.experiments import ABLATION_GRID, run_ablation, run_cell
from jmrm.lattice import (
    InfeasibleGold,
    JointScoreInputs,
    joint_score,
    log_partition,
    logsumexp,
    loss_gradients,
    nll_loss,
    viterbi_decode,
)
from jmrm.masks import (
    NEG_INF,
    RelationMask,
    TransitionMask,
    all_ones_relation_mask,
    apply_relation_mask,
    build_relation_mask,
    build_transition_mask,
    permissive_transition_mask,
)
from jmrm.metrics import EMPTY_METRICS, score
from jmrm.protonet import (
    COS,
    L2,
    SIMILARITY_KINDS,
    VPB,
    DegenerateVector,
    compute_emissions,
    compute_prototypes,
    similarity_grads,
    similarity_to_protos,
)
from jmrm.trainer import (
    LOSS_MODES,
    EpisodeContext,
    RunConfig,
    TrainResult,
    adam_step,
    build_context,
    compute_loss,
    init_adam_state,
    predict_episode,
    train,
)

from conftest import SNIPS_SPACE, bio_space, make_sample, snips_shaped_episode
from lattice_reference import ref_log_partition_dense

KINDS = ("cos", "l2", "vpb")


def assert_same_bits(got, want):
    """Same dtype, shape and bytes; unlike np.array_equal, -0.0 != 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


# --- references: the loops as they were ---------------------------------------


def ref_window_means(table_rows, w):
    m = table_rows.shape[0]
    if w == 0:
        return table_rows
    out = np.empty_like(table_rows)
    for i in range(m):
        lo, hi = max(0, i - w), min(m, i + w + 1)
        out[i] = table_rows[lo:hi].mean(axis=0)
    return out


def ref_encode_tokens(params, config, tokens):
    ids = [params.vocab.get(t, 0) for t in tokens]
    h = ref_window_means(params.token_table[ids], config.context_window)
    return h @ params.projection.T + params.bias


def ref_encoder_backward(params, config, tokens, d_rows, d_utt, out):
    m = len(tokens)
    total = np.zeros((m, config.dim))
    total += d_rows
    total += np.asarray(d_utt) / m
    ids = [params.vocab.get(t, 0) for t in tokens]
    h = ref_window_means(params.token_table[ids], config.context_window)
    out["projection"] += total.T @ h
    out["bias"] += total.sum(axis=0)
    dh = total @ params.projection
    w = config.context_window
    for i in range(m):
        lo, hi = max(0, i - w), min(m, i + w + 1)
        share = dh[i] / (hi - lo)
        for j in range(lo, hi):
            out["token_table"][ids[j]] += share
    return out


def ref_prototypes(support, ls, encoder):
    """(intent protos, slot protos, support rows, intent members, slot members)."""
    d = encoder.config.dim
    intent_sum, slot_sum = np.zeros((ls.n_intents, d)), np.zeros((ls.n_slots, d))
    intent_members = [[] for _ in range(ls.n_intents)]
    slot_members = [[] for _ in range(ls.n_slots)]
    support_rows = []
    for n, sample in enumerate(support):
        rows = ref_encode_tokens(encoder.params, encoder.config, sample.tokens)
        support_rows.append(rows)
        intent_sum[sample.intent] += rows.mean(axis=0)
        intent_members[sample.intent].append(n)
        for i, sid in enumerate(sample.slots):
            slot_sum[sid] += rows[i]
            slot_members[sid].append((n, i))
    intent_counts = np.array([len(x) for x in intent_members])
    slot_counts = np.array([len(x) for x in slot_members])
    return (intent_sum / intent_counts[:, None], slot_sum / slot_counts[:, None],
            support_rows, intent_members, slot_members)


def ref_similarity_to_protos(e, protos, kind):
    """Vectorized similarity of one embedding against an (n, d) prototype matrix."""
    e = np.asarray(e, dtype=float)
    protos = np.asarray(protos, dtype=float)
    if kind == L2:
        diff = protos - e
        return -(diff * diff).sum(axis=1)
    c_norms = np.linalg.norm(protos, axis=1)
    if np.any(c_norms == 0.0):
        raise DegenerateVector(f"zero-norm prototype under {kind} similarity")
    if kind == VPB:
        return protos @ e / c_norms - c_norms / 2.0
    if kind == COS:
        e_norm = np.linalg.norm(e)
        if e_norm == 0.0:
            raise DegenerateVector("zero-norm embedding under cos similarity")
        return protos @ e / (e_norm * c_norms)
    raise ValueError(f"unknown similarity kind {kind!r}")


def ref_similarity_grads(e, protos, kind):
    """Gradients of similarity_to_protos: (d s_n / d e, d s_n / d c_n).

    Both returned arrays have shape (n, d): row n is the gradient of the
    n-th similarity with respect to e and to the n-th prototype.
    """
    e = np.asarray(e, dtype=float)
    protos = np.asarray(protos, dtype=float)
    if kind == L2:
        diff = e[None, :] - protos
        return -2.0 * diff, 2.0 * diff
    c_norms = np.linalg.norm(protos, axis=1)
    if np.any(c_norms == 0.0):
        raise DegenerateVector(f"zero-norm prototype under {kind} similarity")
    unit_c = protos / c_norms[:, None]
    if kind == VPB:
        ds_de = unit_c
        dots = protos @ e
        ds_dc = (
            e[None, :] / c_norms[:, None]
            - dots[:, None] * protos / (c_norms**3)[:, None]
            - unit_c / 2.0
        )
        return ds_de, ds_dc
    if kind == COS:
        e_norm = np.linalg.norm(e)
        if e_norm == 0.0:
            raise DegenerateVector("zero-norm embedding under cos similarity")
        s = protos @ e / (e_norm * c_norms)
        ds_de = protos / (e_norm * c_norms)[:, None] - s[:, None] * e[None, :] / e_norm**2
        ds_dc = e[None, :] / (e_norm * c_norms)[:, None] - s[:, None] * protos / (c_norms**2)[:, None]
        return ds_de, ds_dc
    raise ValueError(f"unknown similarity kind {kind!r}")


def ref_window_pairs(m, w):
    pos = np.arange(m)
    i, j = np.nonzero(np.abs(pos[:, None] - pos) <= w)
    return i, j, np.bincount(i, minlength=m)


def ref_window_means_at(table_rows, w):
    if w == 0:
        return table_rows
    i, j, sizes = ref_window_pairs(table_rows.shape[0], w)
    sums = np.zeros_like(table_rows)
    np.add.at(sums, i, table_rows[j])
    return sums / sizes[:, None]


def ref_encode_tokens_at(params, config, tokens):
    ids = [params.vocab.get(t, 0) for t in tokens]
    h = ref_window_means_at(params.token_table[ids], config.context_window)
    return h @ params.projection.T + params.bias


def ref_encoder_backward_at(params, config, tokens, d_rows, d_utt, out):
    """The token-based backward: re-derives ids and window means, then one
    2-D ufunc.at scatter."""
    m, d = len(tokens), config.dim
    grads = out
    total = np.zeros((m, d))
    if d_rows is not None:
        total += d_rows
    if d_utt is not None:
        total += np.asarray(d_utt) / m
    ids = np.array([params.vocab.get(t, 0) for t in tokens], dtype=int)
    h = ref_window_means_at(params.token_table[ids], config.context_window)
    grads["projection"] += total.T @ h
    grads["bias"] += total.sum(axis=0)
    dh = total @ params.projection
    i, j, sizes = ref_window_pairs(m, config.context_window)
    np.add.at(grads["token_table"], ids[j], (dh / sizes[:, None])[i])
    return grads


def ref_prototypes_at(support, ls, encoder):
    """(intent protos, slot protos) summed by 2-D ufunc.at."""
    intents = np.array([sample.intent for sample in support], dtype=int)
    intent_counts = np.bincount(intents, minlength=ls.n_intents)
    slots = np.concatenate([sample.slots for sample in support])
    slot_counts = np.bincount(slots, minlength=ls.n_slots)
    rows = [ref_encode_tokens_at(encoder.params, encoder.config, s.tokens) for s in support]
    intent_sum = np.zeros((ls.n_intents, encoder.config.dim))
    np.add.at(intent_sum, intents, np.stack([r.mean(axis=0) for r in rows]))
    slot_sum = np.zeros((ls.n_slots, encoder.config.dim))
    np.add.at(slot_sum, slots, np.concatenate(rows))
    return intent_sum / intent_counts[:, None], slot_sum / slot_counts[:, None]


def ref_transition_mask(ls):
    """(trans, start) filled cell by cell from the BIO rule."""
    t = ls.n_slots
    kinds = [split_slot_label(name) for name in ls.slot_labels]
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
    return trans, start


def ref_softmax_ce(scores, gold):
    log_z = logsumexp(scores, axis=0)
    grad = np.exp(scores - log_z)
    grad[gold] -= 1.0
    return float(log_z - scores[gold]), grad


def ref_compute_loss(query, ctx, config):
    """compute_loss with every loop of the parent code, masks on."""
    enc, kind, ls = ctx.encoder, config.similarity_kind, ctx.episode.label_space
    intent_protos, slot_protos, support_rows, intent_members, slot_members = ref_prototypes(
        ctx.episode.support, ls, enc)
    q_rows = ref_encode_tokens(enc.params, enc.config, query.tokens)
    q_utt = q_rows.mean(axis=0)
    f_l = ref_similarity_to_protos(q_utt, intent_protos, kind)
    f_o = np.stack([ref_similarity_to_protos(r, slot_protos, kind) for r in q_rows])
    rm, tm = ctx.rm, ctx.tm
    gold_y, gold_t = query.intent, np.asarray(query.slots, dtype=int)
    if config.loss_mode == "joint":
        jin = JointScoreInputs(f_l, f_o, rm, tm, config.lam)
        loss, post = nll_loss(gold_y, gold_t, jin)
        d_fl, d_fo = loss_gradients(gold_y, gold_t, post, jin)
    elif config.loss_mode == "sum_sep":
        loss, d_fl = ref_softmax_ce(f_l, gold_y)
        fe = apply_relation_mask(f_o, rm, gold_y)
        d_fo = np.zeros_like(f_o)
        for i in range(f_o.shape[0]):
            token_loss, g = ref_softmax_ce(fe[i], int(gold_t[i]))
            loss += token_loss
            d_fo[i] = np.where(np.isfinite(fe[i]), g, 0.0)
    else:
        loss, d_fl = ref_softmax_ce(f_l, gold_y)
        one_intent = RelationMask(rm.rm[gold_y:gold_y + 1], rm.forced_o)
        jin = JointScoreInputs(np.zeros(1), f_o, one_intent, tm, 0.0)
        seq_loss, post = nll_loss(0, gold_t, jin)
        _, d_fo = loss_gradients(0, gold_t, post, jin)
        loss = loss + seq_loss

    ds_de_l, ds_dc_l = ref_similarity_grads(q_utt, intent_protos, kind)
    d_q_utt = ds_de_l.T @ d_fl
    d_c_intent = ds_dc_l * d_fl[:, None]
    d_q_rows = np.empty_like(q_rows)
    d_c_slot = np.zeros_like(slot_protos)
    for i in range(q_rows.shape[0]):
        ds_de_o, ds_dc_o = ref_similarity_grads(q_rows[i], slot_protos, kind)
        d_q_rows[i] = ds_de_o.T @ d_fo[i]
        d_c_slot += ds_dc_o * d_fo[i][:, None]
    grads = ref_encoder_backward(enc.params, enc.config, query.tokens, d_q_rows, d_q_utt,
                                 zero_grads(enc.params))
    d_sup_utt = [np.zeros(enc.config.dim) for _ in support_rows]
    d_sup_rows = [np.zeros_like(e) for e in support_rows]
    for l, members in enumerate(intent_members):
        share = d_c_intent[l] / len(members)
        for n in members:
            d_sup_utt[n] += share
    for o, members in enumerate(slot_members):
        share = d_c_slot[o] / len(members)
        for n, i in members:
            d_sup_rows[n][i] += share
    for n, sample in enumerate(ctx.episode.support):
        ref_encoder_backward(enc.params, enc.config, sample.tokens, d_sup_rows[n], d_sup_utt[n],
                             grads)
    return loss, grads


# --- the encoder window --------------------------------------------------------


VOCAB = ("a", "b", "c", "d")


def window_case(m, w):
    rng = np.random.default_rng([m, w])
    config = EncoderConfig(kind="trainable", dim=6, context_window=w, init_scale=0.5, seed=m)
    enc = init_encoder(config, VOCAB)
    # few distinct ids, so every id repeats; "zz" and "yy" are both UNK
    tokens = tuple(rng.choice(VOCAB + ("zz", "yy"), size=m))
    return rng, enc, tokens


@pytest.mark.parametrize("m", [1, 2, 12, 40])
@pytest.mark.parametrize("w", [0, 1, 2, None], ids=["w0", "w1", "w2", "w=m+1"])
class TestEncoderWindow:
    def test_window_means(self, m, w):
        w = m + 1 if w is None else w
        _, enc, tokens = window_case(m, w)
        rows = enc.params.token_table[[enc.params.vocab.get(t, 0) for t in tokens]]
        assert_same_bits(_window_means(rows, w), ref_window_means(rows, w))
        assert_same_bits(_window_means(rows, w), ref_window_means_at(rows, w))
        assert_same_bits(encode_tokens(enc.params, enc.config, tokens),
                         ref_encode_tokens(enc.params, enc.config, tokens))

    def test_encoder_backward(self, m, w):
        w = m + 1 if w is None else w
        rng, enc, tokens = window_case(m, w)
        d_rows, d_utt = rng.standard_normal((m, 6)), rng.standard_normal(6)
        # accumulate into gradients that already hold values, as compute_loss does
        start = {k: rng.standard_normal(v.shape) for k, v in zero_grads(enc.params).items()}
        _, state = encode_tokens(enc.params, enc.config, tokens, True)
        got = {k: v.copy() for k, v in start.items()}
        encoder_backward(enc.params, enc.config, state, d_rows, d_utt, got)
        want = ref_encoder_backward(enc.params, enc.config, tokens, d_rows, d_utt,
                                    {k: v.copy() for k, v in start.items()})
        for k in want:
            assert_same_bits(got[k], want[k])


# --- the BIO transition mask ----------------------------------------------------


def bio_spaces():
    spaces = {"snips": SNIPS_SPACE,
              "o-only": LabelSpace(("a",), ("O",)),
              "one-type": LabelSpace(("a", "b"), ("B-x", "O", "I-x"))}
    for split in generate_synthetic(SynthSpec()):
        for corpus in split:
            spaces[f"synth-{corpus.domain_name}"] = corpus.label_space
    return spaces


BIO_SPACES = bio_spaces()


@pytest.mark.parametrize("ls", BIO_SPACES.values(), ids=BIO_SPACES.keys())
def test_transition_mask_matches_cell_loop(ls):
    tm = build_transition_mask(ls)
    trans, start = ref_transition_mask(ls)
    assert_same_bits(tm.trans, trans)
    assert_same_bits(tm.start, start)


# --- the one BIO adjacency rule: span counts, the gold warning and the mask ----
#
# ref_bio_spans and ref_warn_bio_anomalies are bio_spans and the warning
# helper of the former per-sample check (_warn_bio_anomalies) as they were,
# re-parsing the label of every token, and SlotSpan is the span type
# bio_spans returned.  The only edits: LabelSpace.slot_kind, which is gone,
# is spelled out as split_slot_label(ls.slot_labels[sid]), and the warning
# goes to the reference's own logger.  metrics.score must count what it
# counted before, from one set of ref_bio_spans per gold and predicted query.

ref_logger = logging.getLogger("ref_bio")


def ref_warn_bio_anomalies(slots: Sequence[int], ls: LabelSpace) -> None:
    prev_kind, prev_type = "O", None
    for i, sid in enumerate(slots):
        kind, typ = split_slot_label(ls.slot_labels[sid])
        if kind == "I" and not (prev_kind in ("B", "I") and prev_type == typ):
            ref_logger.warning(
                "gold BIO anomaly: %s at position %d has no compatible predecessor",
                ls.slot_labels[sid], i,
            )
        prev_kind, prev_type = kind, typ


@dataclass(frozen=True)
class SlotSpan:
    """A typed token span [start, end) extracted from a BIO sequence."""

    slot_type: str
    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"invalid span bounds [{self.start}, {self.end})")


def ref_bio_spans(slots: Sequence[int], ls: LabelSpace) -> list[SlotSpan]:
    spans: list[SlotSpan] = []
    open_type: str | None = None
    open_start = 0
    for i, sid in enumerate(slots):
        kind, typ = split_slot_label(ls.slot_labels[sid])
        if kind == "I" and typ == open_type:
            continue
        if open_type is not None:
            spans.append(SlotSpan(open_type, open_start, i))
            open_type = None
        if kind != "O":
            open_type, open_start = typ, i
    if open_type is not None:
        spans.append(SlotSpan(open_type, open_start, len(slots)))
    return spans


# multi-hyphen types, a type that prefixes another, and types spelled like
# the prefixes themselves
RULE_TYPES = ("a", "b", "semi-colon", "semi", "x-y-z", "I", "B", "O-x")


def random_bio_space(rng) -> LabelSpace:
    """O plus B-X and I-X of a few types, each kept with probability 0.8
    (so an I-X may lack its B-X), in a random order."""
    types = rng.choice(RULE_TYPES, size=rng.integers(0, 5), replace=False)
    names = ["O"] + [f"{p}-{t}" for t in types for p in "BI" if rng.random() < 0.8]
    return LabelSpace(("a",), tuple(names[k] for k in rng.permutation(len(names))))


def random_bio_sequence(rng, trans, start, valid: bool) -> list[int]:
    """A sequence the reference mask allows, or any sequence at all."""
    m = int(rng.integers(1, 9))
    if not valid:
        return rng.integers(0, start.size, m).tolist()
    slots = [int(rng.choice(np.flatnonzero(start == 1.0)))]
    while len(slots) < m:
        slots.append(int(rng.choice(np.flatnonzero(trans[slots[-1]] == 1.0))))
    return slots


def ref_span_counts(predictions, golds: Sequence[Sample], ls: LabelSpace) -> tuple[int, int, int]:
    """(gold, predicted, correct) spans, counted from per-query span sets."""
    counts = [0, 0, 0]
    for (_, pred_slots), gold in zip(predictions, golds):
        gold_spans = set(ref_bio_spans(gold.slots, ls))
        pred_spans = set(ref_bio_spans(pred_slots, ls))
        for k, spans in enumerate((gold_spans, pred_spans, gold_spans & pred_spans)):
            counts[k] += len(spans)
    return tuple(counts)


@pytest.mark.parametrize("seed", range(4))
def test_bio_rule_matches_label_parsing(seed, caplog):
    rng = np.random.default_rng(seed)
    warned = matched = 0
    with caplog.at_level(logging.WARNING):
        for _ in range(60):
            ls = random_bio_space(rng)
            trans, start = ref_transition_mask(ls)
            tm = build_transition_mask(ls)
            assert_same_bits(tm.trans, trans)
            assert_same_bits(tm.start, start)
            golds, predictions, want = [], [], []
            for valid in (True, False) * 6:
                slots = random_bio_sequence(rng, trans, start, valid)
                # a prediction that keeps a random share of the gold labels
                kept = rng.random(len(slots)) < rng.random()
                pred = np.where(kept, slots, rng.integers(0, ls.n_slots, len(slots)))
                golds.append(Sample(("w",) * len(slots), 0, slots))
                predictions.append((0, pred.tolist()))
                caplog.clear()
                ref_warn_bio_anomalies(slots, ls)
                want += [(r.levelno, r.getMessage()) for r in caplog.records]
                assert not (valid and caplog.records)
                warned += bool(caplog.records)
            # a Corpus logs the anomalies of all its golds, in sample order
            caplog.clear()
            Corpus("golds", golds, ls)
            assert [(r.levelno, r.getMessage()) for r in caplog.records] == want
            assert all(r.name == "jmrm.core" for r in caplog.records)
            m = score(predictions, golds, ls)
            counts = (m.n_gold_spans, m.n_pred_spans, m.n_correct_spans)
            assert counts == ref_span_counts(predictions, golds, ls)
            matched += m.n_correct_spans
    assert warned > 0 and matched > 0


# --- prototypes and compute_loss on a SNIPS-shaped episode ----------------------


@pytest.fixture(scope="module")
def snips_case():
    episode = snips_shaped_episode(np.random.default_rng(5))
    vocab = [t for s in episode.support for t in s.tokens]
    enc = init_encoder(EncoderConfig(kind="trainable", dim=16, context_window=1, seed=2), vocab)
    return episode, enc


def test_prototypes_match_member_loops(snips_case):
    episode, enc = snips_case
    protos = compute_prototypes(episode.support, episode.label_space, enc)
    intent_protos, slot_protos, *_ = ref_prototypes(episode.support, episode.label_space, enc)
    assert_same_bits(protos.intent_protos, intent_protos)
    assert_same_bits(protos.slot_protos, slot_protos)


@pytest.mark.parametrize("w", [0, 1, 3])
def test_prototypes_and_kept_state_backward_match_add_at(w):
    """compute_prototypes and a backward pass from each support sample's
    kept state equal the 2-D ufunc.at sums and the token-based backward,
    accumulating into gradients that already hold values."""
    rng = np.random.default_rng([11, w])
    episode = snips_shaped_episode(rng)
    vocab = [t for s in episode.support for t in s.tokens]
    enc = init_encoder(EncoderConfig(kind="trainable", dim=16, context_window=w, seed=w), vocab)
    ls = episode.label_space
    protos = compute_prototypes(episode.support, ls, enc)
    intent_protos, slot_protos = ref_prototypes_at(episode.support, ls, enc)
    assert_same_bits(protos.intent_protos, intent_protos)
    assert_same_bits(protos.slot_protos, slot_protos)
    assert len(protos.support_states) == len(episode.support)
    start = {k: rng.standard_normal(v.shape) for k, v in zero_grads(enc.params).items()}
    got = {k: v.copy() for k, v in start.items()}
    want = {k: v.copy() for k, v in start.items()}
    for sample, state in zip(episode.support, protos.support_states):
        d_rows = rng.standard_normal((len(sample.tokens), 16))
        d_utt = rng.standard_normal(16)
        encoder_backward(enc.params, enc.config, state, d_rows, d_utt, got)
        ref_encoder_backward_at(enc.params, enc.config, sample.tokens, d_rows, d_utt, want)
    for k in want:
        assert_same_bits(got[k], want[k])


@pytest.mark.parametrize("scale", [1.0, 30.0, 1e-3])
@pytest.mark.parametrize("t_n", [3, 9, 79])
@pytest.mark.parametrize("r", [1, 2, 12, 40])
@pytest.mark.parametrize("kind", KINDS)
def test_row_batched_similarity_matches_rows(kind, r, t_n, scale):
    """An (r, d) embedding matrix scores like its rows one at a time, and its
    last row alone, a (1, d) matrix, like itself; integer rounding makes
    exact ties."""
    rng = np.random.default_rng([r, t_n, int(1e3 * scale)])
    for d in (16, 32):
        protos = scale * rng.standard_normal((t_n, d))
        rows = scale * rng.standard_normal((r, d))
        tied = (scale * np.round(protos / scale), scale * np.round(rows / scale))
        for p, e in ((protos, rows), tied):
            want = np.stack([ref_similarity_to_protos(x, p, kind) for x in e])
            assert_same_bits(similarity_to_protos(e, p, kind), want)
            assert_same_bits(similarity_to_protos(e[-1:], p, kind), want[-1:])


@pytest.mark.parametrize("t_n", [9, 79])
@pytest.mark.parametrize("r", [1, 12, 40])
@pytest.mark.parametrize("kind", KINDS)
def test_similarity_backward_matches_per_row_contraction(kind, r, t_n):
    """One similarity_grads call over an (r, d) matrix gives the bits of the
    loop compute_loss ran: one Jacobian pair per row, contracted with its
    gradient row, the prototype gradient summed in row order.  A masked
    emission's upstream gradient is exactly zero, so d_s holds zeros too."""
    rng = np.random.default_rng([r, t_n, len(kind)])
    protos = rng.standard_normal((t_n, 32))
    rows = rng.standard_normal((r, 32))
    d_s = np.where(rng.random((r, t_n)) < 0.3, 0.0, rng.standard_normal((r, t_n)))
    want_e, want_c = np.empty_like(rows), np.zeros_like(protos)
    for i in range(r):
        ds_de, ds_dc = ref_similarity_grads(rows[i], protos, kind)
        want_e[i] = ds_de.T @ d_s[i]
        want_c += ds_dc * d_s[i][:, None]
    d_e, d_c = similarity_grads(rows, protos, kind, d_s)
    assert_same_bits(d_e, want_e)
    assert_same_bits(d_c, want_c)


@pytest.mark.parametrize("kind", KINDS)
def test_compute_emissions_matches_rows(snips_case, kind):
    episode, enc = snips_case
    protos = compute_prototypes(episode.support, episode.label_space, enc)
    for query in episode.query:
        em = compute_emissions(query, protos, enc, kind)
        rows = ref_encode_tokens(enc.params, enc.config, query.tokens)
        assert_same_bits(em.intent, ref_similarity_to_protos(rows.mean(axis=0), protos.intent_protos, kind))
        assert_same_bits(em.slot, np.stack([ref_similarity_to_protos(r, protos.slot_protos, kind)
                                            for r in rows]))


@pytest.mark.parametrize("loss_mode", LOSS_MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_compute_loss_matches_loops(snips_case, kind, loss_mode):
    episode, enc = snips_case
    config = RunConfig(similarity_kind=kind, loss_mode=loss_mode)
    ctx = build_context(episode, enc, config)
    for query in episode.query:
        loss, grads = compute_loss(query, ctx, config)
        ref_loss, ref_grads = ref_compute_loss(query, ctx, config)
        assert_same_bits(loss, ref_loss)
        for k in ref_grads:
            assert_same_bits(grads[k], ref_grads[k])


def test_sum_sep_masked_gold_raises(snips_case):
    """A masked gold token raises InfeasibleGold naming its class, as the loop did."""
    episode, enc = snips_case
    config = RunConfig(loss_mode="sum_sep")
    ctx = build_context(episode, enc, config)
    query = episode.query[1]
    label = next(o for o in query.slots if o != 0)
    rm = ctx.rm.rm.copy()
    rm[query.intent, label] = False
    ctx.rm = RelationMask(rm, ctx.rm.forced_o)
    with pytest.raises(InfeasibleGold, match=f"gold class {label} is masked"):
        compute_loss(query, ctx, config)


# --- log_partition against the dense per-intent kernel (lattice_reference) -----


def assert_partition_matches_dense(jin):
    log_z, q, unary = ref_log_partition_dense(jin)
    post = log_partition(jin)
    assert post.log_z == log_z
    assert_same_bits(post.intent_marginals, q)
    assert_same_bits(post.slot_unary_marginals, unary)
    # loss_gradients sums the marginals over intents, which depends on layout
    assert post.slot_unary_marginals.flags.c_contiguous


@pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
@pytest.mark.parametrize("m", [1, 2, 3, 12, 40])
@pytest.mark.parametrize("t_n", [3, 9, 79])
@pytest.mark.parametrize("y_n", [1, 2, 7])
def test_log_partition_matches_dense_kernel(y_n, t_n, m, bio):
    """log Z, q and the marginals equal the dense kernel's bit for bit at
    three scales, each also integer-rounded to make exact ties."""
    ls = bio_space(y_n, t_n)
    tm = build_transition_mask(ls) if bio else permissive_transition_mask(t_n)
    for scale in (1.0, 30.0, 1e3):
        rng = np.random.default_rng([y_n, t_n, m, bio, int(scale)])
        rm = rng.random((y_n, t_n)) < 0.3
        rm[:, 0] = True
        if bio and y_n > 1:
            # the last intent may use I-type0 only, which BIO bans from
            # opening a sequence: that intent gets zero mass
            rm[-1] = False
            rm[-1, ls.slot_id("I-type0")] = True
        f_l = scale * rng.standard_normal(y_n)
        f_o = scale * rng.standard_normal((m, t_n))
        for fl, fo in ((f_l, f_o), (np.round(f_l), np.round(f_o))):
            assert_partition_matches_dense(JointScoreInputs(fl, fo, RelationMask(rm, True), tm, 1.0))


def test_log_partition_matches_dense_kernel_beyond_bio():
    """Masks with no open column, and closed columns with many predecessors
    (K > 1), over 1 to 3 intents; the diagonal keeps every constant path
    feasible."""
    rng = np.random.default_rng(17)
    no_open = many_pred = 0
    for _ in range(60):
        t_n, m, y_n = int(rng.integers(2, 14)), int(rng.integers(1, 9)), int(rng.integers(1, 4))
        allowed = rng.random((t_n, t_n)) < rng.uniform(0.1, 0.9)
        np.fill_diagonal(allowed, True)
        tm = TransitionMask(np.where(allowed, 1.0, NEG_INF), np.ones(t_n))
        no_open += not tm.is_open.any()
        many_pred += tm.closed_pred.shape[1] > 8  # long enough for the sum order to matter
        rm = rng.random((y_n, t_n)) < 0.7
        rm[np.arange(y_n), rng.integers(t_n, size=y_n)] = True
        f_o = rng.choice([1.0, 30.0]) * rng.standard_normal((m, t_n))
        for fo in (f_o, np.round(f_o)):
            assert_partition_matches_dense(
                JointScoreInputs(rng.standard_normal(y_n), fo, RelationMask(rm, False), tm, 1.0))
    assert no_open and many_pred


# --- the training loop ----------------------------------------------------------


def ref_context(episode, encoder, config, i2s, msd):
    """Both support-derived masks, then the switch-by-switch selection that
    the loss and the decoder each made for themselves."""
    ls = episode.label_space
    rm_true = build_relation_mask(episode.support, ls, force_o=config.force_o_related)
    tm_true = build_transition_mask(ls)
    return EpisodeContext(
        episode, encoder, compute_prototypes(episode.support, ls, encoder),
        rm_true if i2s else all_ones_relation_mask(ls.n_intents, ls.n_slots),
        tm_true if msd else permissive_transition_mask(ls.n_slots),
    )


def ref_evaluate(episodes, encoder, config):
    total = EMPTY_METRICS
    for episode in episodes:
        ctx = ref_context(episode, encoder, config, config.i2s_eval, config.msd_eval)
        preds = []
        for query in episode.query:
            em = compute_emissions(query, ctx.protos, encoder, config.similarity_kind)
            if config.msd_eval:
                y, path, _ = viterbi_decode(
                    JointScoreInputs(em.intent, em.slot, ctx.rm, ctx.tm, config.lam))
            else:
                y = int(np.argmax(em.intent))
                path = np.argmax(apply_relation_mask(em.slot, ctx.rm, y), axis=1)
            preds.append((y, [int(o) for o in path]))
        total = total.merged(score(preds, episode.query, episode.label_space))
    return total


def ref_train(source_episodes, dev_episodes, encoder, config):
    """The training loop as it was: a context per episode visit, rebuilt
    after every step, and the first evaluation handled apart."""

    def dev_metrics():
        return ref_evaluate(dev_episodes, encoder, config)

    def context(episode):
        return ref_context(episode, encoder, config, config.i2s_train, config.msd_train)

    result = TrainResult(encoder=encoder.copy())
    first = dev_metrics()
    best_acc = -1.0 if first.joint_acc is None else first.joint_acc
    result.best_dev_joint_acc = first.joint_acc
    result.log.append({"step": 0, "event": "eval", "dev": first.to_dict(), "skipped": 0})
    if config.max_steps == 0:
        return result

    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    params = encoder.params.as_dict()
    state = init_adam_state(params)
    grads_acc = {k: np.zeros_like(v) for k, v in params.items()}
    batch_losses = []
    in_batch = 0
    step = 0
    done = False

    def flush_eval(step):
        nonlocal best_acc
        m = dev_metrics()
        acc = -1.0 if m.joint_acc is None else m.joint_acc
        result.log.append({"step": step, "event": "eval", "dev": m.to_dict(),
                           "skipped": result.skipped_queries})
        if acc > best_acc:
            best_acc = acc
            result.encoder = encoder.copy()
            result.best_step = step
            result.best_dev_joint_acc = m.joint_acc

    while not done:
        contributed = 0
        for ep_idx in rng.permutation(len(source_episodes)):
            episode = source_episodes[int(ep_idx)]
            ctx = context(episode)
            for query in episode.query:
                try:
                    loss, grads = compute_loss(query, ctx, config)
                except InfeasibleGold:
                    result.skipped_queries += 1
                    continue
                contributed += 1
                batch_losses.append(loss)
                for k in grads_acc:
                    grads_acc[k] += grads[k]
                in_batch += 1
                if in_batch < config.batch_size:
                    continue
                for k in grads_acc:
                    grads_acc[k] /= in_batch
                adam_step(params, grads_acc, state, config)
                step += 1
                result.log.append({"step": step, "event": "train",
                                   "loss": float(np.mean(batch_losses)),
                                   "skipped": result.skipped_queries})
                for k in grads_acc:
                    grads_acc[k][:] = 0.0
                batch_losses.clear()
                in_batch = 0
                if step % config.eval_every == 0:
                    flush_eval(step)
                if step >= config.max_steps:
                    done = True
                    break
                ctx = context(episode)
            if done:
                break
        if contributed == 0:
            break
    if step % config.eval_every != 0:
        flush_eval(step)
    return result


def synth_task():
    """Six training episodes of 6 queries and three dev episodes of one domain."""
    spec = SynthSpec(n_source_domains=1, n_dev_domains=1, n_target_domains=1,
                     samples_per_domain=60, seed=101)
    corpus = generate_synthetic(spec)[0][0]
    rng = np.random.default_rng(1)
    train_eps = [build_episode(corpus, 5, 6, rng) for _ in range(6)]
    dev_eps = [build_episode(corpus, 5, 6, rng) for _ in range(3)]
    return train_eps, dev_eps


def cross_task():
    """Episodes whose query pairs book_restaurant with B-artist, which no
    support sample does: under the relation mask the loss skips it."""
    ls = LabelSpace(("play_music", "book_restaurant"), ("O", "B-artist", "B-city"))
    support = (
        make_sample(ls, "play queen", "play_music", "O B-artist"),
        make_sample(ls, "book bistro paris", "book_restaurant", "O O B-city"),
    )
    query = (
        make_sample(ls, "play madonna", "play_music", "O B-artist"),
        make_sample(ls, "book queen", "book_restaurant", "O B-artist"),
        make_sample(ls, "book rome", "book_restaurant", "O B-city"),
    )
    episodes = [Episode(support, query[n:] + query[:n], ls, f"cross{n}") for n in range(3)]
    return episodes, episodes[:1]


MASKS = {
    "on": dict(i2s_train=True, msd_train=True, i2s_eval=True, msd_eval=True),
    "off": dict(i2s_train=False, msd_train=False, i2s_eval=False, msd_eval=False),
    "mixed": dict(i2s_train=True, msd_train=False, i2s_eval=False, msd_eval=True),
}


def assert_same_training(task, **config):
    train_eps, dev_eps = task
    vocab = sorted({t for ep in train_eps for s in ep.support + ep.query for t in s.tokens})
    config = RunConfig(learning_rate=0.01, max_steps=11, eval_every=4, **config)
    runs = []
    for fn in (train, ref_train):
        enc = init_encoder(EncoderConfig(kind="trainable", dim=8, init_scale=0.3, seed=4), vocab)
        runs.append(fn(train_eps, dev_eps, enc, config))
    got, want = runs
    assert got.log == want.log
    assert (got.best_step, got.best_dev_joint_acc, got.skipped_queries) == (
        want.best_step, want.best_dev_joint_acc, want.skipped_queries)
    for k, v in want.encoder.params.as_dict().items():
        assert_same_bits(got.encoder.params.as_dict()[k], v)
    return got


@pytest.mark.parametrize("masks", MASKS)
@pytest.mark.parametrize("loss_mode", LOSS_MODES)
def test_train_matches_parent_loop(loss_mode, masks):
    # 6 queries per episode and batches of 4: every other batch spans two episodes
    assert_same_training(synth_task(), loss_mode=loss_mode, **MASKS[masks])


@pytest.mark.parametrize("batch_size", [1, 7])
def test_train_matches_parent_loop_across_batch_sizes(batch_size):
    assert_same_training(synth_task(), batch_size=batch_size)


@pytest.mark.parametrize("masks", ["on", "off"])
def test_train_matches_parent_loop_with_skips(masks):
    result = assert_same_training(cross_task(), batch_size=2, **MASKS[masks])
    assert (result.skipped_queries > 0) == (masks == "on")


# --- K-shot support selection and the labeled-file writer -----------------------
#
# The references recount the whole selection after every add and every prune,
# and write episode and corpus files through a record builder each.


def ref_class_counts(samples: Sequence[Sample]) -> tuple[Counter, Counter]:
    """Occurrence counts of intents (per sample) and slots (per labeled word)."""
    return Counter(s.intent for s in samples), Counter(sid for s in samples for sid in s.slots)


def ref_covers(samples: Sequence[Sample], need_intents: set[int], need_slots: set[int], k: int) -> bool:
    intent_counts, slot_counts = ref_class_counts(samples)
    return all(intent_counts[c] >= k for c in need_intents) and all(
        slot_counts[c] >= k for c in need_slots
    )


def ref_build_support_set(corpus: Corpus, k: int, rng: np.random.Generator) -> list[Sample]:
    if k < 1:
        raise ValueError("k must be >= 1")
    intent_counts, slot_counts = ref_class_counts(corpus.samples)
    for intent, count in sorted(intent_counts.items()):
        if count < k:
            raise InsufficientCorpus(
                f"intent {corpus.label_space.intents[intent]!r} occurs in "
                f"{count} samples, need >= {k}"
            )
    for sid, count in sorted(slot_counts.items()):
        if count < k:
            raise InsufficientCorpus(
                f"slot label {corpus.label_space.slot_labels[sid]!r} has "
                f"{count} word occurrences, need >= {k}"
            )
    need_intents = set(intent_counts)
    need_slots = set(slot_counts)

    order = rng.permutation(len(corpus.samples))
    selected: list[int] = []
    for idx in order:
        selected.append(int(idx))
        if ref_covers([corpus.samples[i] for i in selected], need_intents, need_slots, k):
            break
    # prune to irreducibility
    candidates = list(selected)
    for idx in rng.permutation(len(candidates)):
        candidate = candidates[int(idx)]
        rest = [i for i in selected if i != candidate]
        if ref_covers([corpus.samples[i] for i in rest], need_intents, need_slots, k):
            selected = rest
    return [corpus.samples[i] for i in selected]


def ref_episode_to_dict(ep: Episode) -> dict:
    return {
        "domain": ep.domain_name,
        "intents": list(ep.label_space.intents),
        "slot_labels": list(ep.label_space.slot_labels),
        "support": [sample_to_dict(s, ep.label_space) for s in ep.support],
        "query": [sample_to_dict(s, ep.label_space) for s in ep.query],
    }


def ref_serialize_episodes(episodes: Iterable[Episode]) -> str:
    payload = {"episodes": [ref_episode_to_dict(ep) for ep in episodes]}
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def ref_corpus_to_dict(corpus: Corpus) -> dict:
    return {
        "domain": corpus.domain_name,
        "intents": list(corpus.label_space.intents),
        "slot_labels": list(corpus.label_space.slot_labels),
        "samples": [sample_to_dict(s, corpus.label_space) for s in corpus.samples],
    }


def ref_serialize_corpora(corpora: Iterable[Corpus]) -> str:
    payload = {"corpora": [ref_corpus_to_dict(c) for c in corpora]}
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def selection(build, corpus, k, seed):
    """The positions build picks in corpus (or the type and message of its
    error), and the generator state it leaves."""
    position = {id(s): i for i, s in enumerate(corpus.samples)}
    rng = np.random.default_rng(seed)
    try:
        picked = [position[id(s)] for s in build(corpus, k, rng)]
    except ValueError as exc:  # InsufficientCorpus is one
        picked = (type(exc), str(exc))
    return picked, rng.bit_generator.state


def assert_same_selections(corpora, ks=(1, 2, 3, 5), seeds=range(3)):
    """Returns how many cases raised."""
    raised = 0
    for corpus in corpora:
        for k in ks:
            for seed in seeds:
                want = selection(ref_build_support_set, corpus, k, seed)
                assert selection(build_support_set, corpus, k, seed) == want
                raised += isinstance(want[0], tuple)
    return raised


def random_specs(seed, n):
    """n one-corpus-per-split SynthSpecs with random knobs, down to 2 samples."""
    rng = np.random.default_rng(seed)
    return [
        SynthSpec(
            n_source_domains=1, n_dev_domains=1, n_target_domains=1,
            intents_per_domain=int(rng.integers(1, 4)),
            slots_per_intent=int(rng.integers(1, 4)),
            vocab_overlap=float(rng.random()),
            template_count=int(rng.integers(1, 5)),
            samples_per_domain=int(rng.integers(2, 40)),
            seed=int(rng.integers(1000)),
        )
        for _ in range(n)
    ]


def all_corpora(spec):
    return [c for split in generate_synthetic(spec) for c in split]


@pytest.fixture(scope="module")
def snips_shape():
    """benchmarks/snips_shape.py, imported without writing bytecode there."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        mp.setattr(sys, "dont_write_bytecode", True)
        return importlib.import_module("snips_shape")


@pytest.mark.parametrize("seed", [0, 1])
def test_support_set_matches_recount_on_default_synth(seed):
    assert_same_selections(all_corpora(SynthSpec(seed=seed)))


def test_support_set_matches_recount_on_random_synth():
    raised = assert_same_selections(
        [c for spec in random_specs(5, 8) for c in all_corpora(spec)])
    assert raised > 0  # too-small corpora take the InsufficientCorpus paths


@pytest.mark.parametrize("samples_per_intent", [1, 2, 3, 24])
def test_support_set_matches_recount_on_snips_shape(snips_shape, samples_per_intent):
    corpus = snips_shape.snips_shaped_corpus(
        np.random.default_rng(samples_per_intent), "snips", samples_per_intent)
    assert_same_selections([corpus], ks=(0, 1, 2, 3, 5))


def non_ascii_corpus():
    ls = LabelSpace(("réserver", "天気"), ("O", "B-città", "I-città"))
    samples = (Sample(("à", "Zürich", "東京"), 0, (0, 1, 2)), Sample(("naïve",), 1, (0,)),
               Sample(("ça", "Zürich"), 0, (0, 1)))
    return Corpus("dômain", samples, ls)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_labeled_file_writer_matches_record_builders(seed):
    corpora = all_corpora(SynthSpec(seed=seed)) + [non_ascii_corpus()]
    assert serialize_corpora(corpora) == ref_serialize_corpora(corpora)
    rng = np.random.default_rng(seed)
    episodes = [build_episode(c, 1, 1, rng) for c in corpora]
    text = serialize_episodes(episodes)
    assert text == ref_serialize_episodes(episodes)
    assert "東京" in text and "\\u" not in text  # ensure_ascii=False


# --- the ablation grid ---------------------------------------------------------
#
# The reference is the grid loop as it was: no prototype store, so every cell
# builds each episode's prototypes itself.


def ref_run_ablation(train_episodes, dev_episodes, test_episodes, base_config, enc_config, n_seeds):
    records = []
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


def assert_same_grid(*args):
    got, want = run_ablation(*args), ref_run_ablation(*args)
    assert [repr(r) for r in got] == [repr(r) for r in want]


def test_frozen_grid_matches_per_cell_prototypes():
    """SNIPS-shaped episodes under the hashed-frozen encoder, two grid seeds;
    one test episode is also a dev episode, so both splits share its build."""
    rng = np.random.default_rng(11)
    eps = [snips_shaped_episode(rng) for _ in range(4)]
    enc_config = EncoderConfig(kind="hashed-frozen", dim=16, seed=3)
    assert_same_grid(eps[:1], eps[1:3], eps[2:], RunConfig(seed=3), enc_config, 2)


def test_trainable_grid_matches_per_cell_prototypes():
    train_eps, dev_eps = synth_task()
    enc_config = EncoderConfig(kind="trainable", dim=8, init_scale=0.3, seed=4)
    config = RunConfig(learning_rate=0.01, max_steps=3, eval_every=2, seed=1)
    assert_same_grid(train_eps[:3], dev_eps[:2], dev_eps[1:], config, enc_config, 1)


# --- batched decoding -------------------------------------------------------------
#
# viterbi_decode takes a batch of queries of any lengths, their rows laid
# end to end, and predict_episode decodes an episode in one call; the
# reference is the per-query loop.


def end_to_end(stack, lengths):
    """The first lengths[n] rows of each query n of a (Q, M, ...) stack,
    laid end to end."""
    return np.concatenate([stack[n, :m] for n, m in enumerate(lengths)])


def query_rows(lengths):
    """Each query's slice of the rows laid end to end."""
    ends = np.cumsum(lengths).tolist()
    return [slice(a, b) for a, b in zip([0, *ends], ends)]


@pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
@pytest.mark.parametrize("m", [1, 2, 3, 12, 40])
@pytest.mark.parametrize("t_n", [3, 9, 79])
@pytest.mark.parametrize("y_n", [1, 2, 7])
def test_batched_viterbi_matches_per_query_calls(y_n, t_n, m, bio):
    """Each query of a batch of 1, 2 or 8 decodes as it does alone, at three
    scales, each also integer-rounded to make exact ties within and across
    queries."""
    ls = bio_space(y_n, t_n)
    tm = build_transition_mask(ls) if bio else permissive_transition_mask(t_n)
    for scale in (1.0, 30.0, 1e3):
        rng = np.random.default_rng([y_n, t_n, m, bio, int(scale)])
        related = rng.random((y_n, t_n)) < 0.3
        related[:, 0] = True
        rm = RelationMask(related, True)
        f_l = scale * rng.standard_normal((8, y_n))
        f_o = scale * rng.standard_normal((8, m, t_n))
        for fl, fo in ((f_l, f_o), (np.round(f_l), np.round(f_o))):
            alone = [viterbi_decode(JointScoreInputs(fl[n], fo[n], rm, tm, 1.0)) for n in range(8)]
            for q in (1, 2, 8):
                jin = JointScoreInputs(fl[:q], fo[:q].reshape(q * m, t_n), rm, tm, 1.0, np.full(q, m))
                ys, paths, scores = viterbi_decode(jin)
                assert_same_bits(ys, [y for y, _, _ in alone[:q]])
                assert_same_bits(paths, np.concatenate([path for _, path, _ in alone[:q]]))
                assert_same_bits(scores, [s for _, _, s in alone[:q]])


# unsorted, with repeats and 1-token queries
RAGGED_LENGTHS = [(1,), (5,), (1, 6), (6, 1), (3, 1, 9, 4, 9, 1, 12, 5)]


def ragged_case(y_n, t_n, bio, scale, seed):
    """Masks and scores of 8 queries of up to 14 positions, as a (Q, 14, T)
    stack that end_to_end cuts to the lengths."""
    ls = bio_space(y_n, t_n)
    tm = build_transition_mask(ls) if bio else permissive_transition_mask(t_n)
    rng = np.random.default_rng([y_n, t_n, bio, int(scale), seed])
    related = rng.random((y_n, t_n)) < 0.3
    related[:, 0] = True
    rm = RelationMask(related, True)
    return rm, tm, scale * rng.standard_normal((8, y_n)), scale * rng.standard_normal((8, 14, t_n))


def assert_decodes_alone(f_l, f_o, lengths, rm, tm):
    """Each query of the batch decodes as a call on its own rows."""
    ys, paths, scores = viterbi_decode(JointScoreInputs(f_l, f_o, rm, tm, 1.0, lengths))
    assert paths.shape == f_o.shape[:1]
    for n, rows in enumerate(query_rows(lengths)):
        y, path, s = viterbi_decode(JointScoreInputs(f_l[n], f_o[rows], rm, tm, 1.0))
        assert_same_bits(ys[n], np.int64(y))
        assert_same_bits(paths[rows], path)
        assert_same_bits(scores[n], np.float64(s))


@pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
@pytest.mark.parametrize("t_n", [3, 9, 79])
@pytest.mark.parametrize("y_n", [1, 2, 7])
def test_ragged_viterbi_matches_per_query_calls(y_n, t_n, bio):
    """Batches of 1, 2 and 8 queries of mixed lengths, in any order, at two
    scales, each also integer-rounded to make exact ties within and across
    queries."""
    for scale in (1.0, 30.0):
        rm, tm, f_l, f_o = ragged_case(y_n, t_n, bio, scale, 0)
        for fl, fo in ((f_l, f_o), (np.round(f_l), np.round(f_o))):
            for lengths in RAGGED_LENGTHS:
                q = len(lengths)
                assert_decodes_alone(fl[:q], end_to_end(fo, lengths), np.array(lengths), rm, tm)


# The sum-product half takes the same batch; the references are the dense
# per-query kernel above and the per-query joint_score, nll_loss and
# loss_gradients they replaced.


def ref_joint_score(y, t, jin):
    """R(y, t) of one query: a running sum over its positions."""
    t = np.asarray(t, dtype=int)
    fe = apply_relation_mask(jin.f_o, jin.rm, y)
    s = jin.tm.start[t[0]] + fe[0, t[0]]
    for i in range(1, t.shape[0]):
        s = s + jin.tm.trans[t[i - 1], t[i]]
        s = s + fe[i, t[i]]
    return float(jin.lam * jin.f_l[y] + s)


def ref_loss_and_gradients(gold_y, gold_t, jin):
    """One query's clamped loss, dL/df_l and dL/df_o over the dense kernel."""
    log_z, q, unary = ref_log_partition_dense(jin)
    loss = log_z - ref_joint_score(gold_y, gold_t, jin)
    d_fl = jin.lam * q.copy()
    d_fl[gold_y] -= jin.lam
    d_fo = unary.sum(axis=0)
    d_fo[np.arange(gold_t.shape[0]), gold_t] -= 1.0
    return (0.0 if loss <= 0 else loss), d_fl, d_fo


def feasible_golds(rm, tm, lengths, y_n, t_n, rng):
    """A feasible gold pair per query, as a batch's golds: (Q,) intents and
    (N,) slot ids laid end to end (the decode of random scores)."""
    decodes = [viterbi_decode(JointScoreInputs(rng.standard_normal(y_n), rng.standard_normal((m, t_n)),
                                               rm, tm, 1.0)) for m in lengths]
    return np.array([y for y, _, _ in decodes]), np.concatenate([path for _, path, _ in decodes])


def assert_partition_alone(jin, gold_y, gold_t):
    """Each query of the batch gets from log_partition, nll_loss and
    loss_gradients what the dense kernel and the per-query code give it,
    at its own rows."""
    post = log_partition(jin)
    losses, post_nll = nll_loss(gold_y, gold_t, jin)
    d_fl, d_fo = loss_gradients(gold_y, gold_t, post, jin)
    for got, want in zip((post_nll.log_z, post_nll.intent_marginals, post_nll.slot_unary_marginals),
                         (post.log_z, post.intent_marginals, post.slot_unary_marginals)):
        assert_same_bits(got, want)
    assert post.slot_unary_marginals.shape == (jin.n_intents, *jin.f_o.shape) and d_fo.shape == jin.f_o.shape
    scores = joint_score(gold_y, gold_t, jin)
    for n, rows in enumerate(query_rows(jin.lengths)):
        one = JointScoreInputs(jin.f_l[n], jin.f_o[rows], jin.rm, jin.tm, jin.lam)
        log_z, q, unary = ref_log_partition_dense(one)
        assert_same_bits(post.log_z[n], np.float64(log_z))
        assert_same_bits(post.intent_marginals[n], q)
        assert_same_bits(post.slot_unary_marginals[:, rows], unary)
        assert_same_bits(scores[n], np.float64(ref_joint_score(gold_y[n], gold_t[rows], one)))
        loss, g_l, g_o = ref_loss_and_gradients(gold_y[n], gold_t[rows], one)
        assert_same_bits(losses[n], np.float64(loss))
        assert_same_bits(d_fl[n], g_l)
        assert_same_bits(d_fo[rows], g_o)
        # the one-query case of the same functions
        alone_loss, alone = nll_loss(gold_y[n], gold_t[rows], one)
        assert_same_bits(np.float64(alone_loss), np.float64(loss))
        assert alone.slot_unary_marginals.flags.c_contiguous
        for got, want in zip(loss_gradients(gold_y[n], gold_t[rows], alone, one), (g_l, g_o)):
            assert_same_bits(got, want)


def packed_case(y_n, t_n, bio, scale, seed):
    """ragged_case's masks and scores; under BIO with Y > 1 the last intent
    may use I-type0 only, which BIO bans from opening a sequence, so that
    intent gets zero mass."""
    rm, tm, f_l, f_o = ragged_case(y_n, t_n, bio, scale, seed)
    if bio and y_n > 1:
        related = rm.rm.copy()
        related[-1] = False
        related[-1, bio_space(y_n, t_n).slot_id("I-type0")] = True
        rm = RelationMask(related, False)
    return rm, tm, f_l, f_o


@pytest.mark.parametrize("bio", [True, False], ids=["bio", "permissive"])
@pytest.mark.parametrize("t_n", [3, 9, 79])
@pytest.mark.parametrize("y_n", [1, 2, 7])
def test_packed_partition_matches_per_query_calls(y_n, t_n, bio):
    """Batches of 1, 2 and 8 queries of one length and of mixed lengths, in
    any order, at two scales, each also integer-rounded to make exact ties
    within and across queries."""
    for scale in (1.0, 30.0):
        rm, tm, f_l, f_o = packed_case(y_n, t_n, bio, scale, 0)
        rng = np.random.default_rng([y_n, t_n, bio, int(scale)])
        for fl, fo in ((f_l, f_o), (np.round(f_l), np.round(f_o))):
            for lengths in [(12,) * q for q in (1, 2, 8)] + RAGGED_LENGTHS:
                q = len(lengths)
                gold_y, gold_t = feasible_golds(rm, tm, lengths, y_n, t_n, rng)
                jin = JointScoreInputs(fl[:q], end_to_end(fo, lengths), rm, tm, 1.0, np.array(lengths))
                assert_partition_alone(jin, gold_y, gold_t)


@pytest.mark.parametrize("y_n", [1, 2, 7, 12])
def test_packed_gradients_on_a_one_label_space(y_n):
    """With one slot label numpy sums a one-token query's intents pairwise
    (which differs from in order from 8 intents on) and a longer query's in
    order; a ragged batch keeps each as it is."""
    rng = np.random.default_rng(y_n)
    rm, tm = RelationMask(np.ones((y_n, 1), dtype=bool), True), permissive_transition_mask(1)
    for lengths in ((1,), (3, 1, 2, 1), (1, 1)) * 10:
        q, width = len(lengths), max(lengths)
        f_l, f_o = rng.standard_normal((q, y_n)), rng.standard_normal((q, width, 1))
        gold_t = np.zeros(sum(lengths), dtype=int)
        gold_y = rng.integers(y_n, size=q)
        assert_partition_alone(JointScoreInputs(f_l, end_to_end(f_o, lengths), rm, tm, 1.0, np.array(lengths)),
                               gold_y, gold_t)


def ref_predict_episode(episode, encoder, config):
    ctx = build_context(episode, encoder, config, training=False)
    predictions = []
    for query in episode.query:
        em = compute_emissions(query, ctx.protos, encoder, config.similarity_kind)
        if config.msd_eval:
            jin = JointScoreInputs(em.intent, em.slot, ctx.rm, ctx.tm, config.lam)
            y, path, _ = viterbi_decode(jin)
        else:
            y = int(np.argmax(em.intent))
            fe = apply_relation_mask(em.slot, ctx.rm, y)
            path = np.argmax(fe, axis=1)
        predictions.append((y, [int(o) for o in path]))
    return predictions


@pytest.fixture(scope="module")
def decode_cases():
    """SNIPS-shaped episodes whose 12- and 40-token queries interleave, under
    the hashed-frozen encoder; synth episodes of 4- to 8-token queries, under
    the hashed-frozen and a trainable encoder."""
    rng = np.random.default_rng(23)
    lengths = (40, 12, 12, 40, 12, 40, 40, 12)
    snips = [snips_shaped_episode(rng, lengths) for _ in range(2)]
    frozen = init_encoder(EncoderConfig(kind="hashed-frozen", dim=16, seed=3), [])
    train_eps, dev_eps = synth_task()
    synth = train_eps[:2] + dev_eps[:1]
    vocab = sorted({t for ep in synth for s in ep.support + ep.query for t in s.tokens})
    trainable = init_encoder(EncoderConfig(kind="trainable", dim=8, init_scale=0.3, seed=4), vocab)
    return [(snips, frozen), (synth, frozen), (synth, trainable)]


@pytest.mark.parametrize("sim", SIMILARITY_KINDS)
@pytest.mark.parametrize("flags", ABLATION_GRID.values(), ids=ABLATION_GRID.keys())
def test_predict_episode_matches_per_query_loop(decode_cases, flags, sim):
    """The same intents and paths, as Python ints: an np.int64 intent would
    change the repr of every metric computed from it."""
    config = RunConfig(similarity_kind=sim, **flags)
    for episodes, encoder in decode_cases:
        for episode in episodes:
            got = predict_episode(episode, encoder, config)
            assert repr(got) == repr(ref_predict_episode(episode, encoder, config))
            assert {type(y) for y, _ in got} == {int}
            assert {type(o) for _, path in got for o in path} == {int}
