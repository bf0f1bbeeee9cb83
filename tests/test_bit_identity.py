"""The loop-free encoder window, prototype and separate-loss paths are
bit-identical to the loops they replaced.

The references below are those loops: a per-position window mean, the
(i, j) double loop that scatters the window gradient, per-token prototype
sums, the prototype gradient spread through per-class member lists, and
one softmax cross-entropy per token.  Every comparison is np.array_equal,
not a tolerance: the benchmark's snips-train quality guards record how
rounding breaks near-tied intent scores, so they depend on the exact bits.
"""

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
from jmrm.lattice import InfeasibleGold, JointScoreInputs, logsumexp, loss_gradients, nll_loss
from jmrm.masks import RelationMask, apply_relation_mask
from jmrm.protonet import compute_prototypes, similarity_grads, similarity_to_protos
from jmrm.trainer import LOSS_MODES, RunConfig, build_context, compute_loss

from conftest import snips_shaped_episode

KINDS = ("cos", "l2", "vpb")


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


def ref_softmax_ce(scores, gold):
    log_z = logsumexp(scores, axis=0)
    grad = np.exp(scores - log_z)
    grad[gold] -= 1.0
    return float(log_z - scores[gold]), grad


def ref_compute_loss(query, ctx, config):
    """compute_loss with every loop of the parent code, masks on."""
    enc, kind, ls = ctx.encoder, config.similarity_kind, ctx.ls
    intent_protos, slot_protos, support_rows, intent_members, slot_members = ref_prototypes(
        ctx.episode.support, ls, enc)
    q_rows = ref_encode_tokens(enc.params, enc.config, query.tokens)
    q_utt = q_rows.mean(axis=0)
    f_l = similarity_to_protos(q_utt, intent_protos, kind)
    f_o = np.stack([similarity_to_protos(r, slot_protos, kind) for r in q_rows])
    rm, tm = ctx.rm_true, ctx.tm_true
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

    ds_de_l, ds_dc_l = similarity_grads(q_utt, intent_protos, kind)
    d_q_utt = ds_de_l.T @ d_fl
    d_c_intent = ds_dc_l * d_fl[:, None]
    d_q_rows = np.empty_like(q_rows)
    d_c_slot = np.zeros_like(slot_protos)
    for i in range(q_rows.shape[0]):
        ds_de_o, ds_dc_o = similarity_grads(q_rows[i], slot_protos, kind)
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
        assert np.array_equal(_window_means(rows, w), ref_window_means(rows, w))
        assert np.array_equal(encode_tokens(enc.params, enc.config, tokens),
                              ref_encode_tokens(enc.params, enc.config, tokens))

    def test_encoder_backward(self, m, w):
        w = m + 1 if w is None else w
        rng, enc, tokens = window_case(m, w)
        d_rows, d_utt = rng.standard_normal((m, 6)), rng.standard_normal(6)
        # accumulate into gradients that already hold values, as compute_loss does
        start = {k: rng.standard_normal(v.shape) for k, v in zero_grads(enc.params).items()}
        got = encoder_backward(enc.params, enc.config, tokens, d_rows, d_utt,
                               {k: v.copy() for k, v in start.items()})
        want = ref_encoder_backward(enc.params, enc.config, tokens, d_rows, d_utt,
                                    {k: v.copy() for k, v in start.items()})
        for k in want:
            assert np.array_equal(got[k], want[k]), k


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
    assert np.array_equal(protos.intent_protos, intent_protos)
    assert np.array_equal(protos.slot_protos, slot_protos)


@pytest.mark.parametrize("loss_mode", LOSS_MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_compute_loss_matches_loops(snips_case, kind, loss_mode):
    episode, enc = snips_case
    config = RunConfig(similarity_kind=kind, loss_mode=loss_mode)
    ctx = build_context(episode, enc, config)
    for query in episode.query:
        loss, grads = compute_loss(query, ctx, config)
        ref_loss, ref_grads = ref_compute_loss(query, ctx, config)
        assert loss == ref_loss
        for k in ref_grads:
            assert np.array_equal(grads[k], ref_grads[k]), k


def test_sum_sep_masked_gold_raises(snips_case):
    """A masked gold token raises InfeasibleGold naming its class, as the loop did."""
    episode, enc = snips_case
    config = RunConfig(loss_mode="sum_sep")
    ctx = build_context(episode, enc, config)
    query = episode.query[1]
    label = next(o for o in query.slots if o != 0)
    rm = ctx.rm_true.rm.copy()
    rm[query.intent, label] = False
    ctx.rm_true = RelationMask(rm, ctx.rm_true.forced_o)
    with pytest.raises(InfeasibleGold, match=f"gold class {label} is masked"):
        compute_loss(query, ctx, config)
