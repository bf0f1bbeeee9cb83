"""The loop-free encoder window, prototype and separate-loss paths, and the
training loop, are bit-identical to the code they replaced.

The references below are that code: a per-position window mean, the
(i, j) double loop that scatters the window gradient, per-token prototype
sums, the prototype gradient spread through per-class member lists, one
softmax cross-entropy per token, and the training loop that selected the
masks per query and rebuilt a context after every step.  Every comparison
is exact (np.array_equal or ==), not a tolerance: the benchmark's
snips-train quality guards record how rounding breaks near-tied intent
scores, so they depend on the exact bits.
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
from jmrm.core import Episode, LabelSpace
from jmrm.episodes import SynthSpec, build_episode, generate_synthetic
from jmrm.lattice import (
    InfeasibleGold,
    JointScoreInputs,
    logsumexp,
    loss_gradients,
    nll_loss,
    viterbi_decode,
)
from jmrm.masks import (
    RelationMask,
    all_ones_relation_mask,
    apply_relation_mask,
    build_relation_mask,
    build_transition_mask,
    permissive_transition_mask,
)
from jmrm.metrics import EMPTY_METRICS, score
from jmrm.protonet import (
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
    train,
)

from conftest import make_sample, snips_shaped_episode

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
    enc, kind, ls = ctx.encoder, config.similarity_kind, ctx.episode.label_space
    intent_protos, slot_protos, support_rows, intent_members, slot_members = ref_prototypes(
        ctx.episode.support, ls, enc)
    q_rows = ref_encode_tokens(enc.params, enc.config, query.tokens)
    q_utt = q_rows.mean(axis=0)
    f_l = similarity_to_protos(q_utt, intent_protos, kind)
    f_o = np.stack([similarity_to_protos(r, slot_protos, kind) for r in q_rows])
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
    rm = ctx.rm.rm.copy()
    rm[query.intent, label] = False
    ctx.rm = RelationMask(rm, ctx.rm.forced_o)
    with pytest.raises(InfeasibleGold, match=f"gold class {label} is masked"):
        compute_loss(query, ctx, config)


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
        assert np.array_equal(got.encoder.params.as_dict()[k], v), k
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
