"""Adam, loss modes, episodic training, and evaluation."""

import numpy as np
import pytest

import jmrm.encoder
import jmrm.lattice
import jmrm.trainer
from jmrm.core import Episode, LabelMismatch, LabelSpace, LengthMismatch, MalformedInput, Sample
from jmrm.encoder import EncoderConfig, init_encoder
from jmrm.episodes import SynthSpec, build_episode, generate_synthetic
from jmrm.lattice import InfeasibleGold, JointScoreInputs, NonFiniteScores, nll_loss
from jmrm.masks import (
    all_ones_relation_mask,
    build_relation_mask,
    permissive_transition_mask,
)
from jmrm.trainer import (
    RunConfig,
    TrainingDiverged,
    adam_step,
    build_context,
    compute_loss,
    evaluate,
    init_adam_state,
    predict_episode,
    run_config_from_dict,
    train,
)

from conftest import make_sample, snips_shaped_episode


def frozen_encoder(dim=24, seed=0):
    return init_encoder(EncoderConfig(kind="hashed-frozen", dim=dim, seed=seed))


@pytest.fixture
def small_episode():
    ls = LabelSpace(("play_music", "book_restaurant"), ("O", "B-artist", "B-city"))
    support = (
        make_sample(ls, "play queen", "play_music", "O B-artist"),
        make_sample(ls, "book bistro paris", "book_restaurant", "O O B-city"),
    )
    query = (
        make_sample(ls, "play madonna", "play_music", "O B-artist"),
        make_sample(ls, "book rome", "book_restaurant", "O B-city"),
    )
    return Episode(support, query, ls, "toy")


class TestAdam:
    def test_zero_gradient_fresh_state_no_move(self):
        params = {"w": np.array([1.0, -2.0])}
        state = init_adam_state(params)
        before = params["w"].copy()
        adam_step(params, {"w": np.zeros(2)}, state, RunConfig())
        np.testing.assert_array_equal(params["w"], before)
        assert state.t == 1

    def test_first_step_is_signed_learning_rate(self):
        cfg = RunConfig(learning_rate=0.1)
        for g in (3.0, -0.004, 1e-3):
            params = {"w": np.array([0.0])}
            state = init_adam_state(params)
            adam_step(params, {"w": np.array([g])}, state, cfg)
            expected = -cfg.learning_rate * g / (abs(g) + cfg.adam_eps)
            assert params["w"][0] == pytest.approx(expected, rel=1e-9)

    def test_parameters_update_independently(self):
        cfg = RunConfig(learning_rate=0.05)
        params = {"a": np.array([0.0]), "b": np.array([0.0])}
        state = init_adam_state(params)
        adam_step(params, {"a": np.array([1.0]), "b": np.array([0.0])}, state, cfg)
        assert params["a"][0] != 0.0
        assert params["b"][0] == 0.0


class TestBuildContext:
    def test_encodes_each_support_sample_once(self, small_episode, monkeypatch):
        encoded, built = [], []
        encode, prototypes = jmrm.encoder.encode_tokens, jmrm.trainer.compute_prototypes
        monkeypatch.setattr(jmrm.encoder, "encode_tokens",
                            lambda *a: encoded.append(tuple(a[2])) or encode(*a))
        monkeypatch.setattr(jmrm.trainer, "compute_prototypes",
                            lambda *a: built.append(a) or prototypes(*a))
        build_context(small_episode, frozen_encoder(), RunConfig())
        assert len(built) == 1
        assert encoded == [s.tokens for s in small_episode.support]

    def test_only_training_contexts_keep_support_state(self, small_episode):
        vocab = [t for s in small_episode.support for t in s.tokens]
        enc = init_encoder(EncoderConfig(kind="trainable", dim=8, seed=0), vocab)
        train_ctx = build_context(small_episode, enc, RunConfig())
        assert len(train_ctx.protos.support_states) == len(small_episode.support)
        # decoding runs no backward pass
        eval_ctx = build_context(small_episode, enc, RunConfig(), training=False)
        assert eval_ctx.protos.support_states is None


class TestComputeLoss:
    def test_joint_with_masks_off_is_unmasked_lattice(self, small_episode):
        enc = frozen_encoder()
        cfg = RunConfig(i2s_train=False, msd_train=False, loss_mode="joint")
        ctx = build_context(small_episode, enc, cfg)
        query = small_episode.query[0]
        loss, _ = compute_loss(query, ctx, cfg)
        from jmrm.protonet import compute_emissions

        em = compute_emissions(query, ctx.protos, enc, cfg.similarity_kind)
        t_n = small_episode.label_space.n_slots
        jin = JointScoreInputs(
            em.intent, em.slot,
            all_ones_relation_mask(small_episode.label_space.n_intents, t_n),
            permissive_transition_mask(t_n), cfg.lam,
        )
        ref, _ = nll_loss(query.intent, np.array(query.slots), jin)
        assert loss == pytest.approx(ref, rel=1e-12)

    def test_all_modes_zero_on_degenerate_space(self):
        ls = LabelSpace(("only",), ("O",))
        support = (make_sample(ls, "a b", "only", "O O"),)
        query = (make_sample(ls, "c", "only", "O"),)
        ep = Episode(support, query, ls, "deg")
        enc = frozen_encoder()
        for mode in ("joint", "sum_sep", "seq_ce"):
            cfg = RunConfig(loss_mode=mode)
            ctx = build_context(ep, enc, cfg)
            loss, _ = compute_loss(query[0], ctx, cfg)
            assert loss == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_gold_raised_and_counted(self):
        # query pairs book_restaurant with B-artist, never co-occurring in support
        ls = LabelSpace(("play_music", "book_restaurant"), ("O", "B-artist", "B-city"))
        support = (
            make_sample(ls, "play queen", "play_music", "O B-artist"),
            make_sample(ls, "book paris", "book_restaurant", "O B-city"),
        )
        query = (make_sample(ls, "book queen", "book_restaurant", "O B-artist"),)
        ep = Episode(support, query, ls, "cross")
        enc = frozen_encoder()
        cfg = RunConfig(loss_mode="joint", i2s_train=True)
        ctx = build_context(ep, enc, cfg)
        with pytest.raises(InfeasibleGold):
            compute_loss(query[0], ctx, cfg)
        # the training loop skips and counts it
        trainable = init_encoder(
            EncoderConfig(kind="trainable", dim=8, seed=0),
            ["play", "book", "queen", "paris"],
        )
        result = train([ep], [ep], trainable, RunConfig(max_steps=2, eval_every=1, batch_size=1))
        assert result.skipped_queries >= 1

    @staticmethod
    def scored_alone(query, loss_mode):
        ls = LabelSpace(("a",), ("O", "B-x", "I-x"))
        ep = Episode((make_sample(ls, "play big band", "a", "O B-x I-x"),), (), ls, "ids")
        cfg = RunConfig(loss_mode=loss_mode)
        return compute_loss(query, build_context(ep, frozen_encoder(), cfg), cfg)

    @pytest.mark.parametrize("loss_mode", ["joint", "sum_sep", "seq_ce"])
    @pytest.mark.parametrize("intent, bad_slot", [(0, -1), (0, 3), (-1, 2), (1, 2)])
    def test_gold_ids_outside_the_label_space_raise(self, loss_mode, intent, bad_slot):
        # indexing would read -1 as I-x, the last label, and 3 as an IndexError
        query = Sample(("big", "band"), intent, (1, bad_slot))
        with pytest.raises(LabelMismatch, match=f"^query for episode 'ids' sample 0: intent {intent} "
                           rf"or slots \(1, {bad_slot}\) outside 1 intents and 3 slot labels$"):
            self.scored_alone(query, loss_mode)

    @pytest.mark.parametrize("loss_mode", ["joint", "sum_sep", "seq_ce"])
    @pytest.mark.parametrize("tokens, intent, slots, error", [
        (("big", "band"), 0, (1,), LengthMismatch),  # sum_sep indexed past the slots
        (("big",), 0, (1, 2), LengthMismatch),
        (("big", "band"), 0.0, (1, 2), LabelMismatch),  # a float intent indexed nothing
        (("big", "band"), 0, (1.0, 2), LabelMismatch),  # a whole-float slot id passed
        (("big", "band"), 0, (True, 2), LabelMismatch),  # a bool slot id passed as 1
        (("big", "band"), 2**70, (1, 2), LabelMismatch),  # beyond intp
        (("big", "band"), 0, (1, -2**70), LabelMismatch),
    ], ids=["fewer-slots", "more-slots", "float-intent", "float-slot", "bool-slot", "huge-intent",
            "huge-slot"])
    def test_query_scored_alone_takes_the_sample_rule(self, loss_mode, tokens, intent, slots, error):
        """A query that no Episode checked meets the sample rule before any
        loss mode reads it: the typed error an Episode raises, naming it."""
        with pytest.raises(error, match="^query for episode 'ids' sample 0: "):
            self.scored_alone(Sample(tokens, intent, slots), loss_mode)

    def test_seq_ce_and_sum_sep_modes_run(self, small_episode):
        enc = frozen_encoder()
        for mode in ("sum_sep", "seq_ce"):
            cfg = RunConfig(loss_mode=mode)
            ctx = build_context(small_episode, enc, cfg)
            loss, grads = compute_loss(small_episode.query[0], ctx, cfg)
            assert np.isfinite(loss) and loss >= 0.0
            assert grads is None  # frozen encoder has no parameters


    @pytest.mark.parametrize("kind", ["cos", "l2", "vpb"])
    def test_similarity_backward_is_two_calls_per_query(self, monkeypatch, kind):
        """One backward call for the utterance embedding, one for the token
        matrix, whatever the query's length."""
        episode = snips_shaped_episode(np.random.default_rng(0))
        vocab = [t for s in episode.support for t in s.tokens]
        enc = init_encoder(EncoderConfig(kind="trainable", dim=8, seed=0), vocab)
        cfg = RunConfig(similarity_kind=kind)
        ctx = build_context(episode, enc, cfg)
        calls, grads = [], jmrm.trainer.similarity_grads
        monkeypatch.setattr(jmrm.trainer, "similarity_grads",
                            lambda e, *a: calls.append(e.shape) or grads(e, *a))
        for query in episode.query:
            calls.clear()
            compute_loss(query, ctx, cfg)
            assert calls == [(1, 8), (len(query), 8)]


class TestLargeInstanceGradient:
    """Directional finite differences on SNIPS-shaped episodes (Y=7, T=79,
    56 support samples), beyond the reach of the tiny-episode oracles:
    (L(theta + eps v) - L(theta - eps v)) / 2 eps against <grad L, v> for a
    random unit direction v over every encoder parameter, including the
    path through the support-derived prototypes."""

    @pytest.mark.parametrize("loss_mode", ["joint", "sum_sep", "seq_ce"])
    @pytest.mark.parametrize("kind", ["cos", "l2", "vpb"])
    @pytest.mark.parametrize("m", [12, 40])
    def test_directional_derivative(self, m, kind, loss_mode):
        episode = snips_shaped_episode(np.random.default_rng(m), query_lengths=(m,))
        vocab = [t for s in episode.support for t in s.tokens]
        enc = init_encoder(EncoderConfig(kind="trainable", dim=16, context_window=1, seed=m), vocab)
        cfg = RunConfig(similarity_kind=kind, loss_mode=loss_mode)
        query = episode.query[0]

        def loss_and_grads(encoder):
            return compute_loss(query, build_context(episode, encoder, cfg), cfg)

        _, grads = loss_and_grads(enc)
        rng = np.random.default_rng([m, len(kind), len(loss_mode)])
        v = {k: rng.standard_normal(g.shape) for k, g in grads.items()}
        norm = np.sqrt(sum((d * d).sum() for d in v.values()))
        eps = 1e-5
        shifted = []
        for sign in (1.0, -1.0):
            moved = enc.copy()
            for k, d in v.items():
                getattr(moved.params, k)[...] += sign * eps * d / norm
            shifted.append(loss_and_grads(moved)[0])
        fd = (shifted[0] - shifted[1]) / (2 * eps)
        dd = sum((grads[k] * v[k]).sum() for k in grads) / norm
        assert abs(fd - dd) <= 1e-5 * abs(dd) + 1e-9, (fd, dd)


class TestTrain:
    def make_task(self, seed=0):
        spec = SynthSpec(n_source_domains=1, n_dev_domains=1, n_target_domains=1,
                         samples_per_domain=60, seed=100 + seed)
        corpus = generate_synthetic(spec)[0][0]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        train_eps = [build_episode(corpus, 5, 6, rng) for _ in range(8)]
        dev_eps = [build_episode(corpus, 5, 6, rng) for _ in range(4)]
        vocab = sorted({t for ep in train_eps for s in ep.support + ep.query for t in s.tokens})
        return train_eps, dev_eps, vocab

    def make_run(self):
        train_eps, dev_eps, vocab = self.make_task()
        enc = init_encoder(EncoderConfig(kind="trainable", dim=8, seed=2), vocab)
        return train_eps, dev_eps, enc

    @pytest.mark.parametrize("empty", ["source", "dev"])
    def test_empty_episode_list_rejected(self, small_episode, empty):
        source = [] if empty == "source" else [small_episode]
        dev = [] if empty == "dev" else [small_episode]
        with pytest.raises(ValueError, match="source and dev episode lists must be non-empty"):
            train(source, dev, frozen_encoder(), RunConfig())

    def test_max_steps_zero_returns_initial_params(self):
        train_eps, dev_eps, vocab = self.make_task()
        enc = init_encoder(EncoderConfig(kind="trainable", dim=8, seed=1), vocab)
        before = {k: v.copy() for k, v in enc.params.as_dict().items()}
        result = train(train_eps, dev_eps, enc, RunConfig(max_steps=0))
        for k, v in result.encoder.params.as_dict().items():
            np.testing.assert_array_equal(v, before[k])

    def test_deterministic_given_seed(self):
        train_eps, dev_eps, vocab = self.make_task()
        cfg = RunConfig(max_steps=6, eval_every=3, learning_rate=0.01, seed=5)
        results = []
        for _ in range(2):
            enc = init_encoder(EncoderConfig(kind="trainable", dim=8, seed=2), vocab)
            results.append(train(train_eps, dev_eps, enc, cfg))
        assert results[0].log == results[1].log
        for k in results[0].encoder.params.as_dict():
            np.testing.assert_array_equal(
                results[0].encoder.params.as_dict()[k],
                results[1].encoder.params.as_dict()[k],
            )

    def test_training_beats_untrained_baseline(self):
        # separable task: mean best-dev joint accuracy over 5 seeds must
        # strictly exceed the frozen-init baseline
        gains = []
        for seed in range(5):
            train_eps, dev_eps, vocab = self.make_task(seed)
            enc = init_encoder(
                EncoderConfig(kind="trainable", dim=16, init_scale=0.3, seed=seed), vocab
            )
            cfg = RunConfig(similarity_kind="vpb", learning_rate=0.01,
                            max_steps=45, eval_every=15, seed=seed)
            baseline = evaluate(dev_eps, enc, cfg).joint_acc
            result = train(train_eps, dev_eps, enc, cfg)
            gains.append(result.best_dev_joint_acc - baseline)
        assert np.mean(gains) > 0.0

    def test_every_built_context_is_used(self, monkeypatch):
        train_eps, dev_eps, enc = self.make_run()
        built, used, evaluating = [], set(), []
        build, loss, evaluate_ = (jmrm.trainer.build_context, jmrm.trainer.compute_loss,
                                  jmrm.trainer.evaluate)

        def recording_build(*args, **kwargs):
            ctx = build(*args, **kwargs)
            if not evaluating:  # dev decoding builds its own contexts
                built.append(ctx)
            return ctx

        def recording_loss(query, ctx, config, scores=None):
            used.add(id(ctx))
            return loss(query, ctx, config, scores)

        def flagged_evaluate(*args):
            evaluating.append(True)
            try:
                return evaluate_(*args)
            finally:
                evaluating.pop()

        monkeypatch.setattr(jmrm.trainer, "build_context", recording_build)
        monkeypatch.setattr(jmrm.trainer, "compute_loss", recording_loss)
        monkeypatch.setattr(jmrm.trainer, "evaluate", flagged_evaluate)
        result = train(train_eps, dev_eps, enc, RunConfig(max_steps=6, eval_every=3))
        assert result.skipped_queries == 0
        assert {id(ctx) for ctx in built} == used
        # 24 queries in 4 episode visits of 6, a step after every 4th query:
        # one context per visit, plus one after steps 1, 2, 4 and 5, which
        # a query of the same visit follows
        assert len(built) == 8

    def test_a_batch_shares_one_lattice_call_per_episode(self, monkeypatch):
        shapes = []
        log_partition = jmrm.lattice.log_partition

        def recording_partition(jin):
            shapes.append(jin.f_l.shape)
            return log_partition(jin)

        monkeypatch.setattr(jmrm.lattice, "log_partition", recording_partition)
        train_eps, dev_eps, enc = self.make_run()
        result = train(train_eps, dev_eps, enc, RunConfig(max_steps=6, eval_every=3))
        assert result.skipped_queries == 0
        # 4 episode visits of 6 queries, batches of 4: each visit's queries
        # split where a step falls, and no query is scored alone
        assert [shape[0] for shape in shapes] == [4, 2, 2, 4, 4, 2, 2, 4]
        assert {len(shape) for shape in shapes} == {2}

    @pytest.mark.parametrize("kind, middle, skipped", [
        # a gold pair the relation mask bans, then a query whose only new
        # token embeds as NaN: the skip is counted before the error
        ("vpb", ("book queen", "O B-artist", "book faulty", "O O"), 1),
        # the NaN query, then one whose new token embeds as a zero vector,
        # which cos similarity rejects: the first error ends the run
        ("cos", ("book faulty", "O O", "book blank", "O O"), 0),
    ])
    def test_a_batch_ends_training_as_one_call_per_query_does(self, monkeypatch, kind, middle, skipped):
        ls = LabelSpace(("play_music", "book_restaurant"), ("O", "B-artist", "B-city"))
        support = (
            make_sample(ls, "play queen", "play_music", "O B-artist"),
            make_sample(ls, "book paris", "book_restaurant", "O B-city"),
        )
        query = (
            make_sample(ls, "play madonna", "play_music", "O B-artist"),
            make_sample(ls, middle[0], "book_restaurant", middle[1]),
            make_sample(ls, middle[2], "book_restaurant", middle[3]),
            make_sample(ls, "book rome", "book_restaurant", "O B-city"),
        )
        train_ep = Episode(support, query, ls, "faults")  # one batch of 4
        dev_ep = Episode(support, query[:1] + query[3:], ls, "dev")

        def diverged():
            enc = init_encoder(EncoderConfig(kind="trainable", dim=8, seed=0),
                               ["play", "book", "queen", "paris", "madonna", "rome", "faulty", "blank"])
            enc.params.token_table[enc.params.vocab["faulty"]] = np.nan
            enc.params.token_table[enc.params.vocab["blank"]] = 0.0
            with pytest.raises(TrainingDiverged) as info:
                train([train_ep], [dev_ep], enc, RunConfig(similarity_kind=kind, max_steps=3, eval_every=1))
            return info.value

        packed = diverged()
        score = jmrm.trainer.score_queries
        monkeypatch.setattr(jmrm.trainer, "score_queries",
                            lambda queries, ctx, config: [score([q], ctx, config)[0] for q in queries])
        alone = diverged()
        assert (packed.step, str(packed), packed.result.skipped_queries, packed.result.log) == (
            alone.step, str(alone), alone.result.skipped_queries, alone.result.log)
        assert (packed.step, packed.result.skipped_queries) == (1, skipped)
        assert "f_l holds NaN or infinite scores" in str(packed)

    @pytest.mark.parametrize("fault", ["loss", "gradient", "scores"])
    def test_non_finite_batch_stops_before_the_step(self, monkeypatch, fault):
        loss = jmrm.trainer.compute_loss
        calls = []

        def faulty_loss(query, ctx, config, scores=None):
            calls.append(query)
            value, grads = loss(query, ctx, config, scores)
            if len(calls) < 7:  # batches of 4: step 1 is healthy, step 2 is not
                return value, grads
            if fault == "scores":
                raise NonFiniteScores("f_l holds NaN or infinite scores")
            if fault == "loss":
                return float("nan"), grads
            grads["bias"][0] = np.inf
            return value, grads

        monkeypatch.setattr(jmrm.trainer, "compute_loss", faulty_loss)
        train_eps, dev_eps, enc = self.make_run()
        with pytest.raises(TrainingDiverged, match="diverged in step 2") as info:
            train(train_eps, dev_eps, enc, RunConfig(max_steps=5, eval_every=1, learning_rate=0.01))
        result = info.value.result
        assert info.value.step == 2
        assert [e["step"] for e in result.log] == [0, 1, 1]
        assert result.encoder is not enc
        for params in (enc.params, result.encoder.params):
            assert all(np.isfinite(v).all() for v in params.as_dict().values())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exploding_learning_rate_raises_with_finite_checkpoint(self):
        train_eps, dev_eps, enc = self.make_run()
        cfg = RunConfig(similarity_kind="l2", learning_rate=1e6, max_steps=20, eval_every=5)
        with pytest.raises(TrainingDiverged) as info:
            train(train_eps, dev_eps, enc, cfg)
        result = info.value.result
        assert 1 < info.value.step <= cfg.max_steps
        assert result.log[-1]["step"] == info.value.step - 1
        assert all(np.isfinite(v).all() for v in result.encoder.params.as_dict().values())

    def test_frozen_encoder_short_circuits(self):
        train_eps, dev_eps, _ = self.make_task()
        enc = frozen_encoder()
        result = train(train_eps, dev_eps, enc, RunConfig(max_steps=50))
        assert result.best_step == 0
        assert [e["event"] for e in result.log] == ["eval"]


class TestEvaluate:
    def test_does_not_mutate_parameters(self, small_episode):
        vocab = ["play", "book", "queen", "paris", "madonna", "rome", "bistro"]
        enc = init_encoder(EncoderConfig(kind="trainable", dim=8, seed=3), vocab)
        before = {k: v.copy() for k, v in enc.params.as_dict().items()}
        evaluate([small_episode], enc, RunConfig())
        for k, v in enc.params.as_dict().items():
            np.testing.assert_array_equal(v, before[k])

    def test_empty_queries_give_null_metrics(self, small_episode):
        ep = Episode(small_episode.support, (), small_episode.label_space, "toy")
        m = evaluate([ep], frozen_encoder(), RunConfig())
        assert m.n_queries == 0 and m.joint_acc is None

    def test_oracle_fixture_perfect_joint_accuracy(self):
        # queries are verbatim copies of the support: nearest prototype is
        # exact by construction and JMRM decodes everything correctly
        ls = LabelSpace(("play_music", "book_restaurant"), ("O", "B-artist", "B-city"))
        support = (
            make_sample(ls, "play queen", "play_music", "O B-artist"),
            make_sample(ls, "book bistro paris", "book_restaurant", "O O B-city"),
        )
        ep = Episode(support, support, ls, "oracle")
        m = evaluate([ep], frozen_encoder(), RunConfig(similarity_kind="l2"))
        assert m.joint_acc == 1.0

    def test_i2s_eval_guarantees_relation_consistency(self):
        spec = SynthSpec(n_source_domains=1, n_dev_domains=1, n_target_domains=1,
                         samples_per_domain=40, seed=3)
        corpus = generate_synthetic(spec)[0][0]
        rng = np.random.default_rng(0)
        enc = frozen_encoder()
        for seed in range(5):
            ep = build_episode(corpus, 1, 6, rng)
            rm = build_relation_mask(ep.support, ep.label_space)
            for msd in (False, True):
                cfg = RunConfig(i2s_eval=True, msd_eval=msd)
                for intent, slots in predict_episode(ep, enc, cfg):
                    assert all(rm.rm[intent, o] for o in slots)

    def test_msd_eval_off_can_emit_invalid_bio(self):
        # per-token argmax has no structural guarantee; over many episodes
        # at K=1 some prediction violates BIO (sanity check that the
        # baseline decoder is really unconstrained)
        spec = SynthSpec(n_source_domains=1, n_dev_domains=1, n_target_domains=1,
                         samples_per_domain=40, seed=6)
        corpus = generate_synthetic(spec)[0][0]
        rng = np.random.default_rng(1)
        enc = frozen_encoder()
        cfg = RunConfig(i2s_eval=False, msd_eval=False)
        from jmrm.masks import build_transition_mask

        violations = 0
        for _ in range(10):
            ep = build_episode(corpus, 1, 6, rng)
            tm = build_transition_mask(ep.label_space)
            for _, slots in predict_episode(ep, enc, cfg):
                prev = None
                for o in slots:
                    ok = np.isfinite(tm.start[o]) if prev is None else np.isfinite(tm.trans[prev, o])
                    violations += not ok
                    prev = o
        assert violations > 0


class TestRunConfig:
    def test_lambda_alias(self):
        cfg = run_config_from_dict({"lambda": 2.0, "batch_size": 8})
        assert cfg.lam == 2.0 and cfg.batch_size == 8

    def test_lam_and_lambda_together_rejected(self):
        with pytest.raises(MalformedInput, match="run config gives both 'lam' and 'lambda'"):
            run_config_from_dict({"lam": 2.0, "lambda": 1.0})

    @pytest.mark.parametrize("field, value, message", [
        ("adam_eps", 0.0, "adam_eps must be > 0"),
        ("adam_eps", -1e-8, "adam_eps must be > 0"),
        ("batch_size", 0, "batch_size and eval_every must be >= 1"),
        ("eval_every", 0, "batch_size and eval_every must be >= 1"),
        ("max_steps", -1, "max_steps must be >= 0"),
        ("seed", -1, "seed and max_steps must be >= 0"),
        ("lam", -0.5, "lam must be >= 0"),
        ("lam", float("nan"), "lam must be >= 0 and finite"),
        ("lam", float("inf"), "lam must be >= 0 and finite"),
        ("adam_eps", float("nan"), "adam_eps must be > 0 and finite"),
        ("adam_eps", float("inf"), "adam_eps must be > 0 and finite"),
        ("learning_rate", float("nan"), "learning_rate must be > 0 and finite"),
        ("learning_rate", float("inf"), "learning_rate must be > 0 and finite"),
    ])
    def test_out_of_range_fields(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**{field: value})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown run config"):
            run_config_from_dict({"warmup": 5})

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            RunConfig(adam_beta1=1.5)
        with pytest.raises(ValueError):
            RunConfig(loss_mode="focal")
        with pytest.raises(ValueError):
            RunConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="similarity_kind"):
            RunConfig(similarity_kind="dot")

    def test_value_types_checked(self):
        assert run_config_from_dict({"lam": 2}).lam == 2
        for bad in ({"batch_size": "4"}, {"batch_size": 4.0}, {"i2s_train": 1},
                    {"max_steps": True}, {"similarity_kind": None}):
            with pytest.raises(MalformedInput, match="bad run config"):
                run_config_from_dict(bad)
        with pytest.raises(MalformedInput, match="must be an object"):
            run_config_from_dict([("lam", 1.0)])

    def test_non_finite_floats_rejected(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(MalformedInput, match="learning_rate must be finite"):
                run_config_from_dict({"learning_rate": value})

    def test_int_beyond_float_range_rejected(self):
        for value in (10 ** 400, -(10 ** 400)):
            with pytest.raises(MalformedInput, match="lam must be finite and within float range"):
                run_config_from_dict({"lam": value})
        # an int within range is kept as it is, not converted
        assert type(run_config_from_dict({"lam": 2 ** 80}).lam) is int
