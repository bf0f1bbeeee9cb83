"""Episodic training on the joint loss, ablation switches, and evaluation.

Mask switches: i2s_train / msd_train govern the lattice used by the loss,
i2s_eval / msd_eval govern decoding.  An episode context fixes the masks in
force when it is built: a switched-off mask is replaced by an
all-permissive matrix at the same additive convention (every transition
scores 1), so toggling a mask changes feasibility only, never score
calibration.  The four (i2s, msd) train/eval combinations reproduce the
JM / JMI2S / JMMSD / JMRM ablation rows, and eval-only masks on a
mask-free-trained model give the "+RM" configuration.

Query samples whose gold (intent, slot) pair is masked out are skipped
with a counter rather than clamped: clamping would leak query labels into
the support-derived relation mask.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import Episode, LabelMismatch, MalformedInput, Sample, config_from_dict
from .encoder import Encoder, WindowState, encoder_backward, zero_grads
from .lattice import (
    InfeasibleGold,
    InfeasibleLattice,
    JointScoreInputs,
    NonFiniteScores,
    loss_gradients,
    logsumexp,
    nll_loss,
    viterbi_decode,
)
from .masks import (
    NEG_INF,
    RelationMask,
    TransitionMask,
    all_ones_relation_mask,
    apply_relation_mask,
    build_relation_mask,
    build_transition_mask,
    permissive_transition_mask,
)
from .metrics import EMPTY_METRICS, MetricsSummary, score
from .protonet import (
    SIMILARITY_KINDS,
    Prototypes,
    compute_emissions,
    compute_prototypes,
    similarity_grads,
    similarity_to_protos,
)

logger = logging.getLogger(__name__)

LOSS_MODES = ("joint", "sum_sep", "seq_ce")


@dataclass(frozen=True)
class RunConfig:
    similarity_kind: str = "vpb"
    lam: float = 1.0
    batch_size: int = 4
    learning_rate: float = 1e-5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    max_steps: int = 100
    eval_every: int = 20
    seed: int = 0
    loss_mode: str = "joint"
    i2s_train: bool = True
    msd_train: bool = True
    i2s_eval: bool = True
    msd_eval: bool = True
    force_o_related: bool = True

    def __post_init__(self):
        if not 0 < self.adam_beta1 < 1 or not 0 < self.adam_beta2 < 1:
            raise ValueError("adam betas must lie in (0, 1)")
        # each bound is written so that a NaN fails it
        if not 0 < self.adam_eps < np.inf:
            raise ValueError("adam_eps must be > 0 and finite")
        if self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("batch_size and eval_every must be >= 1")
        if self.max_steps < 0 or self.seed < 0:
            raise ValueError("seed and max_steps must be >= 0")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be > 0 and finite")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be >= 0 and finite")
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"unknown loss_mode {self.loss_mode!r}")
        if self.similarity_kind not in SIMILARITY_KINDS:
            raise ValueError(f"unknown similarity_kind {self.similarity_kind!r}")


def run_config_from_dict(obj: dict) -> RunConfig:
    """Build a RunConfig from a JSON object; 'lambda' is accepted for lam, not beside it."""
    if isinstance(obj, dict) and "lambda" in obj:
        if "lam" in obj:
            raise MalformedInput("run config gives both 'lam' and 'lambda'; keep one")
        obj = dict(obj)
        obj["lam"] = obj.pop("lambda")
    return config_from_dict(RunConfig, obj, "run config")


# --- Adam -------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam_state(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(a) for k, a in params.items()},
        v={k: np.zeros_like(a) for k, a in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: RunConfig,
) -> None:
    """One bias-corrected Adam update, in place."""
    state.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    for name, p in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1**state.t)
        v_hat = state.v[name] / (1 - b2**state.t)
        p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)


# --- episode context ---------------------------------------------------------


@dataclass
class EpisodeContext:
    """Support-derived state shared by every query of one episode."""

    episode: Episode
    encoder: Encoder
    protos: Prototypes
    rm: RelationMask  # the masks in force for the phase the context serves
    tm: TransitionMask


def build_context(
    episode: Episode, encoder: Encoder, config: RunConfig, training: bool = True
) -> EpisodeContext:
    """The episode's prototypes and masks; the train switches (training) or
    the eval switches replace a switched-off mask by its permissive form."""
    ls = episode.label_space
    i2s, msd = (config.i2s_train, config.msd_train) if training else (config.i2s_eval, config.msd_eval)
    if i2s:
        rm = build_relation_mask(episode.support, ls, force_o=config.force_o_related)
    else:
        rm = all_ones_relation_mask(ls.n_intents, ls.n_slots)
    tm = build_transition_mask(ls) if msd else permissive_transition_mask(ls.n_slots)
    protos = compute_prototypes(episode.support, ls, encoder)
    if not training:
        # decoding runs no backward pass, so it keeps no support forward state
        protos = replace(protos, support_states=None)
    return EpisodeContext(episode, encoder, protos, rm, tm)


def _softmax_ce(scores: np.ndarray, gold: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise cross-entropy of (possibly -inf-masked) (r, n) scores against
    r gold classes: the (r,) losses and grad = p - onehot."""
    rows = np.arange(len(gold))
    gold_scores = scores[rows, gold]
    if np.any(gold_scores == NEG_INF):
        first = gold[int(np.argmin(gold_scores))]
        raise InfeasibleGold(f"gold class {first} is masked in a separate-loss term")
    log_z = logsumexp(scores, axis=1)
    grad = np.exp(scores - log_z[:, None])
    grad[rows, gold] -= 1.0
    return log_z - gold_scores, grad


@dataclass
class QueryScores:
    """One query's forward pass through the encoder and the similarities,
    and its loss with the loss's gradients w.r.t. its intent and slot
    scores."""

    rows: np.ndarray  # (m, d) token embeddings
    state: WindowState | None  # the encoder's forward state, for the backward pass
    utt: np.ndarray  # (1, d) utterance embedding
    f_l: np.ndarray  # (Y,)
    f_o: np.ndarray  # (m, T)
    loss: float = 0.0
    d_fl: np.ndarray | None = None
    d_fo: np.ndarray | None = None


def _query_scores(query: Sample, ctx: EpisodeContext, config: RunConfig) -> QueryScores:
    """A query's embeddings and scores.  Gold ids outside the episode's
    label space raise LabelMismatch: indexing would read -1 as the last
    label, and the separate losses never reach the lattice's own check."""
    kind = config.similarity_kind
    rows, state = ctx.encoder.encode_tokens(query.tokens, True)
    utt = rows.mean(axis=0, keepdims=True)
    f_l = similarity_to_protos(utt, ctx.protos.intent_protos, kind)[0]
    f_o = similarity_to_protos(rows, ctx.protos.slot_protos, kind)
    ls = ctx.episode.label_space
    if not (0 <= query.intent < ls.n_intents and all(0 <= o < ls.n_slots for o in query.slots)):
        raise LabelMismatch(f"gold intent {query.intent} or slots {list(query.slots)} fall outside "
                            f"the episode's {ls.n_intents} intents and {ls.n_slots} slot labels")
    return QueryScores(rows, state, utt, f_l, f_o)


def _padded(rows: np.ndarray, lengths: np.ndarray, fill) -> np.ndarray:
    """Queries' rows laid end to end, as a (Q, M, ...) stack holding fill
    past each query's length."""
    real = np.arange(lengths.max()) < lengths[:, None]
    out = np.full((*real.shape, *rows.shape[1:]), fill, dtype=rows.dtype)
    out[real] = rows
    return out


def _joint_losses(ready: Sequence[tuple[Sample, QueryScores]], ctx: EpisodeContext,
                  config: RunConfig) -> None:
    """Fill in the joint loss and score gradients of each (query, scores)
    pair from one packed lattice call; each is what a call on its query
    alone gives."""
    lengths = np.array([s.f_o.shape[0] for _, s in ready])
    f_o = _padded(np.concatenate([s.f_o for _, s in ready]), lengths, 0.0)
    jin = JointScoreInputs(np.stack([s.f_l for _, s in ready]), f_o, ctx.rm, ctx.tm, config.lam, lengths)
    gold_y = np.array([query.intent for query, _ in ready])
    gold_t = _padded(np.concatenate([query.slots for query, _ in ready]), lengths, -1)
    losses, post = nll_loss(gold_y, gold_t, jin)
    d_fl, d_fo = loss_gradients(gold_y, gold_t, post, jin)
    for n, ((_, s), m) in enumerate(zip(ready, lengths.tolist())):
        s.loss, s.d_fl, s.d_fo = float(losses[n]), d_fl[n], d_fo[n, :m]


def _separate_losses(
    query: Sample, s: QueryScores, ctx: EpisodeContext, config: RunConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """The sum_sep or seq_ce loss of one query plus dL/df_l and dL/df_o."""
    gold_y, gold_t = query.intent, np.asarray(query.slots, dtype=int)
    intent_loss, d_fl = _softmax_ce(s.f_l[None], [gold_y])
    if config.loss_mode == "sum_sep":
        token_loss, d_fo = _softmax_ce(apply_relation_mask(s.f_o, ctx.rm, gold_y), gold_t)
        # cumsum adds the terms one at a time, intent first, as a loop would;
        # np.sum pairs them up and rounds differently
        return float(np.cumsum(np.r_[intent_loss, token_loss])[-1]), d_fl[0], d_fo
    # seq_ce: independent intent CE plus a slots-only sequence CE
    jin = JointScoreInputs(
        np.zeros(1),
        s.f_o,
        RelationMask(ctx.rm.rm[gold_y : gold_y + 1], ctx.rm.forced_o),
        ctx.tm,
        0.0,
    )
    seq_loss, post = nll_loss(0, gold_t, jin)
    _, d_fo = loss_gradients(0, gold_t, post, jin)
    return float(intent_loss[0]) + seq_loss, d_fl[0], d_fo


def score_queries(
    queries: Sequence[Sample], ctx: EpisodeContext, config: RunConfig
) -> list[QueryScores | Exception]:
    """Each query's forward pass, loss and score gradients, or the error
    that compute_loss raises for it: an error waits for its query's turn,
    as in a loop of one call per query.

    In joint mode the queries share one packed lattice call.  When that
    call raises (a non-finite score, a masked gold pair), each query is
    scored alone instead, which finds the query the error belongs to;
    every result is the same either way.
    """
    out: list[QueryScores | Exception] = []
    for query in queries:
        try:
            out.append(_query_scores(query, ctx, config))
        except Exception as exc:  # raised again at its query's turn
            out.append(exc)
    ready = [(query, s) for query, s in zip(queries, out) if isinstance(s, QueryScores)]
    if config.loss_mode == "joint" and len(ready) > 1:
        try:
            _joint_losses(ready, ctx, config)
            return out
        except (NonFiniteScores, InfeasibleGold, InfeasibleLattice):
            pass
    for n, (query, s) in enumerate(zip(queries, out)):
        if not isinstance(s, QueryScores):
            continue
        try:
            if config.loss_mode == "joint":
                _joint_losses([(query, s)], ctx, config)
            else:
                s.loss, s.d_fl, s.d_fo = _separate_losses(query, s, ctx, config)
        except Exception as exc:  # raised again at its query's turn
            out[n] = exc
    return out


def compute_loss(
    query: Sample, ctx: EpisodeContext, config: RunConfig, scores: QueryScores | Exception | None = None
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Loss of one query sample and, for a trainable encoder, the full
    parameter gradients (including the path through the support-derived
    prototypes).  scores is the query's entry of score_queries, which
    train() computes for the queries of a batch together; without it the
    query is scored alone.

    Raises InfeasibleGold when the gold configuration has zero probability
    under the training masks; the training loop skips and counts these.
    """
    if scores is None:
        scores = score_queries([query], ctx, config)[0]
    if isinstance(scores, Exception):
        raise scores
    enc = ctx.encoder
    kind = config.similarity_kind
    if not enc.is_trainable:
        return scores.loss, None

    # chain rule through the similarities
    d_q_utt, d_c_intent = similarity_grads(scores.utt, ctx.protos.intent_protos, kind, scores.d_fl[None])
    d_q_rows, d_c_slot = similarity_grads(scores.rows, ctx.protos.slot_protos, kind, scores.d_fo)
    d_c_intent /= ctx.protos.intent_counts[:, None]
    d_c_slot /= ctx.protos.slot_counts[:, None]

    grads = zero_grads(enc.params)
    encoder_backward(enc.params, enc.config, scores.state, d_rows=d_q_rows, d_utt=d_q_utt[0], out=grads)
    # prototypes are per-class means over the support set, so each support
    # utterance and token gets its class's gradient share; the support's
    # forward state was kept when the context built the prototypes
    for sample, state in zip(ctx.episode.support, ctx.protos.support_states):
        encoder_backward(
            enc.params, enc.config, state,
            d_rows=d_c_slot[list(sample.slots)], d_utt=d_c_intent[sample.intent], out=grads,
        )
    return scores.loss, grads


# --- decoding and evaluation --------------------------------------------------


def predict_episode(
    episode: Episode, encoder: Encoder, config: RunConfig
) -> list[tuple[int, list[int]]]:
    """Decode every query of an episode with the eval-time mask settings.

    With msd_eval on, decoding is a joint Viterbi over the (relation-)
    masked lattice.  With msd_eval off, the intent is the emission argmax
    and slots are per-token argmaxes over the intent-conditioned emissions
    (the classic prototype-pipeline decoder).  Either way the episode is
    decoded in one call: one packed Viterbi call over every query, whatever
    its length, or one masked argmax over every query's slot rows.  Each
    query's result is the one it would get alone.
    """
    ctx = build_context(episode, encoder, config, training=False)
    emissions = [compute_emissions(q, ctx.protos, encoder, config.similarity_kind)
                 for q in episode.query]
    if not emissions:
        return []
    lengths = np.array([em.slot.shape[0] for em in emissions])
    f_l = np.stack([em.intent for em in emissions])
    rows = np.concatenate([em.slot for em in emissions])  # query by query
    if config.msd_eval:
        f_o = _padded(rows, lengths, 0.0)
        ys, paths, _ = viterbi_decode(JointScoreInputs(f_l, f_o, ctx.rm, ctx.tm, config.lam, lengths))
        flat = paths[paths >= 0].tolist()  # paths are -1 past each query's length
    else:
        ys = np.argmax(f_l, axis=1)
        fe = apply_relation_mask(rows[:, None], ctx.rm, np.repeat(ys, lengths))[:, 0]
        flat = np.argmax(fe, axis=1).tolist()
    ends = np.cumsum(lengths).tolist()
    paths = [flat[a:b] for a, b in zip([0, *ends], ends)]
    return list(zip(ys.tolist(), paths))


def evaluate(
    episodes: Sequence[Episode], encoder: Encoder, config: RunConfig
) -> MetricsSummary:
    """Aggregate metrics over all queries of all episodes; never updates parameters."""
    total = EMPTY_METRICS
    for episode in episodes:
        preds = predict_episode(episode, encoder, config)
        total = total.merged(score(preds, episode.query, episode.label_space))
    return total


# --- training loop -------------------------------------------------------------


@dataclass
class TrainResult:
    encoder: Encoder
    log: list[dict] = field(default_factory=list)
    best_step: int = 0
    best_dev_joint_acc: float | None = None
    skipped_queries: int = 0


class TrainingDiverged(RuntimeError):
    """A non-finite loss or gradient in a step, found before its Adam update;
    result holds the run so far, with the best (finite) checkpoint."""

    def __init__(self, step: int, reason: str, result: TrainResult):
        super().__init__(f"training diverged in step {step}: {reason}; "
                         f"the best checkpoint so far is from step {result.best_step}")
        self.step, self.result = step, result


def train(
    source_episodes: Sequence[Episode],
    dev_episodes: Sequence[Episode],
    encoder: Encoder,
    config: RunConfig,
) -> TrainResult:
    """Episodic training with Adam; returns the parameters with the best
    dev joint accuracy (ties keep the earlier checkpoint).

    Batches accumulate gradients over batch_size query samples.  Episodes
    are visited in a seeded shuffled order, re-shuffled each pass; the
    whole run is a pure function of (episodes, encoder init, config).  The
    queries a batch takes from one episode are scored together
    (score_queries), then each runs compute_loss for its backward pass, so
    every loss, gradient, skip and error is that of one compute_loss call
    per query.  Raises TrainingDiverged on a non-finite loss or gradient.
    """
    if len(source_episodes) < 1 or len(dev_episodes) < 1:
        raise ValueError("source and dev episode lists must be non-empty")

    result = TrainResult(encoder=encoder)
    best_acc = -np.inf

    def log_eval(step: int) -> None:
        nonlocal best_acc
        m = evaluate(dev_episodes, encoder, config)
        entry = {"step": step, "event": "eval", "dev": m.to_dict(), "skipped": result.skipped_queries}
        result.log.append(entry)
        acc = -1.0 if m.joint_acc is None else m.joint_acc
        if acc > best_acc:
            best_acc = acc
            result.encoder = encoder.copy()
            result.best_step = step
            result.best_dev_joint_acc = m.joint_acc

    log_eval(0)
    if not encoder.is_trainable:
        logger.info("encoder is frozen; training is evaluation-only")
        return result

    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    params = encoder.params.as_dict()
    state = init_adam_state(params)
    grads_acc = zero_grads(encoder.params)
    batch_losses: list[float] = []
    ctx = None
    step = 0
    while step < config.max_steps:
        contributed = 0
        for i in rng.permutation(len(source_episodes)):
            episode = source_episodes[i]
            left = episode.query
            while left and step < config.max_steps:
                # a context is valid until the next step changes the parameters
                if ctx is None or ctx.episode is not episode:
                    ctx = build_context(episode, encoder, config)
                # the episode's queries that can still join the batch are
                # scored together; a step can only follow the last of them
                room = config.batch_size - len(batch_losses)
                chunk, left = left[:room], left[room:]
                for query, scores in zip(chunk, score_queries(chunk, ctx, config)):
                    try:
                        loss, grads = compute_loss(query, ctx, config, scores)
                    except InfeasibleGold:
                        result.skipped_queries += 1
                        continue
                    except NonFiniteScores as exc:
                        raise TrainingDiverged(step + 1, str(exc), result) from exc
                    if not np.isfinite(loss):
                        raise TrainingDiverged(step + 1, f"query loss is {loss}", result)
                    contributed += 1
                    batch_losses.append(loss)
                    for k in grads_acc:
                        grads_acc[k] += grads[k]
                    if len(batch_losses) < config.batch_size:
                        continue
                    for k in grads_acc:
                        grads_acc[k] /= len(batch_losses)
                    if not all(np.isfinite(g).all() for g in grads_acc.values()):
                        raise TrainingDiverged(step + 1, "batch gradient is not finite", result)
                    adam_step(params, grads_acc, state, config)
                    ctx = None
                    step += 1
                    result.log.append({"step": step, "event": "train",
                                       "loss": float(np.mean(batch_losses)),
                                       "skipped": result.skipped_queries})
                    for k in grads_acc:
                        grads_acc[k][:] = 0.0
                    batch_losses.clear()
                    if step % config.eval_every == 0:
                        log_eval(step)
            if step >= config.max_steps:
                break
        if contributed == 0:
            logger.warning("no trainable query samples in a full pass; stopping at step %d", step)
            break
    if step % config.eval_every != 0:
        log_eval(step)
    return result
