"""Prototypes, similarity functions, and emission scores."""

import threading
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from jmrm import experiments, protonet
from jmrm.core import Episode, LabelSpace, parse_episodes, serialize_episodes
from jmrm.encoder import EncoderConfig, encode_tokens, init_encoder
from jmrm.episodes import SynthSpec, build_episode, generate_synthetic
from jmrm.protonet import (
    COS,
    L2,
    VPB,
    DegenerateVector,
    compute_emissions,
    compute_prototypes,
    keep_frozen_prototypes,
    similarity_grads,
    similarity_to_protos,
)
from jmrm.trainer import RunConfig, build_context, compute_loss

from conftest import make_sample


def similarity(e: np.ndarray, c: np.ndarray, kind: str) -> float:
    """Scalar reference for similarity_to_protos; higher = more similar.

    cos: e.c / (|e||c|); l2: -|e - c|^2; vpb: e.c/|c| - |c|/2.
    """
    e = np.asarray(e, dtype=float)
    c = np.asarray(c, dtype=float)
    if kind == L2:
        diff = e - c
        return float(-diff @ diff)
    c_norm = np.linalg.norm(c)
    if c_norm == 0.0:
        raise DegenerateVector(f"zero-norm prototype under {kind} similarity")
    if kind == VPB:
        return float(e @ c / c_norm - c_norm / 2.0)
    if kind == COS:
        e_norm = np.linalg.norm(e)
        if e_norm == 0.0:
            raise DegenerateVector("zero-norm embedding under cos similarity")
        return float(e @ c / (e_norm * c_norm))
    raise ValueError(f"unknown similarity kind {kind!r}")


@pytest.fixture
def enc():
    return init_encoder(EncoderConfig(kind="hashed-frozen", dim=12, seed=1))


class TestSimilarity:
    def test_unknown_kind_rejected(self):
        e, protos = np.ones((2, 3)), np.ones((4, 3))
        with pytest.raises(ValueError, match="unknown similarity kind 'dot'"):
            similarity_to_protos(e, protos, "dot")
        with pytest.raises(ValueError, match="unknown similarity kind 'dot'"):
            similarity_grads(e, protos, "dot", np.ones((2, 4)))

    def test_cos_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            e = rng.standard_normal(5)
            assert similarity(e, e, "cos") == pytest.approx(1.0)

    def test_l2_identity_and_sign(self):
        rng = np.random.default_rng(1)
        e = rng.standard_normal(4)
        assert similarity(e, e, "l2") == 0.0
        for _ in range(20):
            c = rng.standard_normal(4)
            if not np.array_equal(c, e):
                assert similarity(e, c, "l2") < 0.0

    def test_vpb_quoted_arithmetic(self):
        # e=(3,4), c=(0,2): projection 8/2 minus half-norm 2/2 = 3
        assert similarity(np.array([3.0, 4.0]), np.array([0.0, 2.0]), "vpb") == pytest.approx(3.0)

    def test_degenerate_vectors(self):
        e = np.ones(3)
        zero = np.zeros(3)
        with pytest.raises(DegenerateVector):
            similarity(e, zero, "cos")
        with pytest.raises(DegenerateVector):
            similarity(e, zero, "vpb")
        with pytest.raises(DegenerateVector):
            similarity(zero, e, "cos")
        # l2 tolerates zero vectors
        assert similarity(zero, e, "l2") == pytest.approx(-3.0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal(6)
        protos = rng.standard_normal((5, 6))
        for kind in ("cos", "l2", "vpb"):
            vec = similarity_to_protos(e[None], protos, kind)[0]
            ref = [similarity(e, c, kind) for c in protos]
            np.testing.assert_allclose(vec, ref, atol=1e-12)

    def test_cos_bounds_and_scale_invariant_argmax(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            e = rng.standard_normal(4)
            protos = rng.standard_normal((6, 4))
            s = similarity_to_protos(e[None], protos, "cos")[0]
            assert np.all(s <= 1.0 + 1e-12) and np.all(s >= -1.0 - 1e-12)
            for c in (0.5, 3.0, 1e4):
                s2 = similarity_to_protos(c * e[None], protos, "cos")[0]
                assert int(np.argmax(s2)) == int(np.argmax(s))

    def test_similarity_grads_finite_difference(self):
        """d_e and d_protos of L = sum(d_s * S(e, protos)), S scored by the
        scalar reference, against central differences in every entry, for
        every kind and for one and several rows."""
        step = 1e-6
        for kind in ("cos", "l2", "vpb"):
            for r in (1, 4):
                rng = np.random.default_rng([4, r, len(kind)])
                e = rng.standard_normal((r, 5))
                protos = rng.standard_normal((3, 5))
                d_s = rng.standard_normal((r, 3))

                def loss(e, protos):
                    return sum(d_s[i, n] * similarity(e[i], protos[n], kind)
                               for i in range(r) for n in range(3))

                d_e, d_protos = similarity_grads(e, protos, kind, d_s)
                assert d_e.shape == (r, 5) and d_protos.shape == (3, 5)
                for x, grad, moved in ((e, d_e, lambda x: loss(x, protos)),
                                       (protos, d_protos, lambda x: loss(e, x))):
                    for idx in np.ndindex(x.shape):
                        up, down = x.copy(), x.copy()
                        up[idx] += step
                        down[idx] -= step
                        fd = (moved(up) - moved(down)) / (2 * step)
                        assert grad[idx] == pytest.approx(fd, abs=1e-6), (kind, r, idx)


class TestPrototypes:
    def test_slot_label_without_support_occurrence_rejected(self, enc):
        ls = LabelSpace(("play_music",), ("O", "B-artist", "B-city"))
        support = [make_sample(ls, "play madonna", "play_music", "O B-artist")]
        with pytest.raises(ValueError, match="slot label 'B-city' has no support occurrences"):
            compute_prototypes(support, ls, enc)

    def test_frozen_encoder_keeps_no_support_state(self, enc):
        ls = LabelSpace(("play_music",), ("O", "B-artist"))
        support = [make_sample(ls, "play madonna", "play_music", "O B-artist")]
        assert compute_prototypes(support, ls, enc).support_states is None

    def test_trainable_encoder_keeps_each_support_state(self):
        ls = LabelSpace(("play_music",), ("O", "B-artist"))
        support = [make_sample(ls, "play madonna", "play_music", "O B-artist"),
                   make_sample(ls, "play queen now", "play_music", "O B-artist O")]
        enc = init_encoder(EncoderConfig(kind="trainable", dim=4, context_window=1), ["play", "queen"])
        protos = compute_prototypes(support, ls, enc)
        assert len(protos.support_states) == len(support)
        for sample, state in zip(support, protos.support_states):
            want = encode_tokens(enc.params, enc.config, sample.tokens, True)[1]
            np.testing.assert_array_equal(state.ids, want.ids)
            np.testing.assert_array_equal(state.h, want.h)

    def test_single_sample_per_intent(self, enc):
        ls = LabelSpace(
            ("play_music", "book_restaurant"), ("O", "B-artist", "B-city")
        )
        support = [
            make_sample(ls, "play madonna", "play_music", "O B-artist"),
            make_sample(ls, "book in paris", "book_restaurant", "O O B-city"),
        ]
        protos = compute_prototypes(support, ls, enc)
        np.testing.assert_allclose(
            protos.intent_protos[0], enc.encode_tokens(("play", "madonna")).mean(axis=0)
        )
        np.testing.assert_allclose(
            protos.intent_protos[1], enc.encode_tokens(("book", "in", "paris")).mean(axis=0)
        )

    def test_identical_samples_mean_is_the_embedding(self, music_space, enc):
        s = make_sample(music_space, "play madonna", "play_music", "O B-artist")
        support = [
            s,
            s,
            make_sample(music_space, "book paris now", "book_restaurant", "O B-city I-city"),
            make_sample(music_space, "x", "play_music", "I-artist"),
        ]
        protos = compute_prototypes(support, music_space, enc)
        np.testing.assert_allclose(
            protos.slot_protos[music_space.slot_id("B-artist")],
            enc.encode_tokens(("play", "madonna"))[1],
        )

    def test_random_support_matches_grouping_oracle(self, music_space, enc):
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(9)]
        tm_labels = list(range(music_space.n_slots))
        support = []
        for _ in range(6):
            m = int(rng.integers(1, 5))
            tokens = tuple(vocab[int(i)] for i in rng.integers(0, len(vocab), size=m))
            intent = int(rng.integers(music_space.n_intents))
            slots = tuple(int(i) for i in rng.integers(0, len(tm_labels), size=m))
            support.append(make_sample_raw(tokens, intent, slots))
        # make sure every class occurs
        support.append(make_sample_raw(("a", "b", "c", "d", "e"), 0, (0, 1, 2, 3, 4)))
        support.append(make_sample_raw(("f",), 1, (0,)))
        protos = compute_prototypes(support, music_space, enc)

        # independent per-class averaging
        for l in range(music_space.n_intents):
            members = [s for s in support if s.intent == l]
            ref = np.mean([enc.encode_tokens(s.tokens).mean(axis=0) for s in members], axis=0)
            np.testing.assert_allclose(protos.intent_protos[l], ref, atol=1e-12)
            assert protos.intent_counts[l] == len(members)
        for o in range(music_space.n_slots):
            vecs = [
                enc.encode_tokens(s.tokens)[i]
                for s in support
                for i, sid in enumerate(s.slots)
                if sid == o
            ]
            np.testing.assert_allclose(protos.slot_protos[o], np.mean(vecs, axis=0), atol=1e-12)
            assert protos.slot_counts[o] == len(vecs)

    def test_missing_class_fails_loudly(self, music_space, enc):
        support = [make_sample(music_space, "play", "play_music", "O")]
        with pytest.raises(ValueError, match="no support"):
            compute_prototypes(support, music_space, enc)


def synth_episodes(n):
    spec = SynthSpec(n_source_domains=1, n_dev_domains=1, n_target_domains=1,
                     samples_per_domain=40, seed=7)
    corpus = generate_synthetic(spec)[0][0]
    rng = np.random.default_rng(0)
    return [build_episode(corpus, 2, 3, rng) for _ in range(n)]


class TestKeptPrototypes:
    """A grid builds each frozen-encoder episode's prototypes once; nothing is
    kept outside a grid or for a trainable encoder."""

    LS = LabelSpace(("play_music",), ("O", "B-artist"))
    SUPPORT = (make_sample(LS, "play madonna", "play_music", "O B-artist"),
               make_sample(LS, "play queen now", "play_music", "O B-artist O"))

    def test_grid_builds_each_support_label_space_and_config_once(self, monkeypatch):
        builds, build = Counter(), protonet._build_prototypes

        def counted(support, ls, encoder):
            builds[tuple(support), ls, encoder.config] += 1
            return build(support, ls, encoder)

        monkeypatch.setattr(protonet, "_build_prototypes", counted)
        eps = synth_episodes(3)
        enc_config = EncoderConfig(kind="hashed-frozen", dim=8, seed=2)
        # eps[2] is a dev and a test episode: both splits share its build
        experiments.run_ablation(eps[:1], eps[1:], eps[2:], RunConfig(seed=2), enc_config, 2)
        assert builds == Counter({(ep.support, ep.label_space, replace(enc_config, seed=s))
                                  for ep in eps[1:] for s in (2, 3)})

    def test_label_space_keys_by_its_names_alone(self):
        """The parsed BIO rule a label space keeps is not part of its
        equality, hash or repr, so the store's keys stay the names."""
        twin = LabelSpace(tuple(self.LS.intents), tuple(self.LS.slot_labels))
        assert twin == self.LS and hash(twin) == hash(self.LS)
        assert twin.may_follow is not self.LS.may_follow
        assert repr(twin) == "LabelSpace(intents=('play_music',), slot_labels=('O', 'B-artist'))"

    def test_round_tripped_episodes_hit_the_store(self, enc, monkeypatch):
        builds, build = [], protonet._build_prototypes

        def counted(support, ls, encoder):
            builds.append(ls)
            return build(support, ls, encoder)

        monkeypatch.setattr(protonet, "_build_prototypes", counted)
        eps = synth_episodes(2)
        parsed = parse_episodes(serialize_episodes(eps))
        with keep_frozen_prototypes():
            for ep, again in zip(eps, parsed):
                assert again.label_space is not ep.label_space
                protos = compute_prototypes(ep.support, ep.label_space, enc)
                assert compute_prototypes(again.support, again.label_space, enc) is protos
        assert len(builds) == len(eps)

    def test_kept_prototypes_are_read_only(self, enc):
        with keep_frozen_prototypes():
            protos = compute_prototypes(self.SUPPORT, self.LS, enc)
            assert compute_prototypes(list(self.SUPPORT), self.LS, enc) is protos
        for arr in (protos.intent_protos, protos.slot_protos,
                    protos.intent_counts, protos.slot_counts):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        with pytest.raises(FrozenInstanceError):
            protos.support_states = ()

    def test_store_goes_when_the_grid_returns_or_raises(self, monkeypatch):
        eps = synth_episodes(2)
        args = (eps[:1], eps[1:], eps[1:], RunConfig(), EncoderConfig(kind="hashed-frozen", dim=8), 1)
        experiments.run_ablation(*args)
        assert protonet._kept.get() is None
        run_cell, stores = experiments.run_cell, []

        def failing_cell(*cell_args):
            run_cell(*cell_args)
            stores.append(protonet._kept.get())
            raise RuntimeError("cell failed")

        monkeypatch.setattr(experiments, "run_cell", failing_cell)
        with pytest.raises(RuntimeError, match="cell failed"):
            experiments.run_ablation(*args)
        assert len(stores[0]) == 1 and protonet._kept.get() is None

    def test_nested_block_restores_the_outer_store(self):
        with keep_frozen_prototypes():
            outer = protonet._kept.get()
            with keep_frozen_prototypes():
                assert protonet._kept.get() == {} and protonet._kept.get() is not outer
            assert protonet._kept.get() is outer
        assert protonet._kept.get() is None

    def test_another_thread_does_not_see_the_block(self):
        seen = []
        with keep_frozen_prototypes():
            thread = threading.Thread(target=lambda: seen.append(protonet._kept.get()))
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive() and seen == [None]

    def test_trainable_encoder_keeps_nothing(self):
        enc = init_encoder(EncoderConfig(kind="trainable", dim=4), ["play", "queen"])
        with keep_frozen_prototypes():
            first = compute_prototypes(self.SUPPORT, self.LS, enc)
            assert compute_prototypes(self.SUPPORT, self.LS, enc) is not first
            assert protonet._kept.get() == {}
        assert first.intent_protos.flags.writeable

    def test_outside_a_grid_every_call_builds_afresh(self, enc):
        first = compute_prototypes(self.SUPPORT, self.LS, enc)
        second = compute_prototypes(self.SUPPORT, self.LS, enc)
        assert second is not first and second.slot_protos is not first.slot_protos
        assert first.intent_protos.flags.writeable and protonet._kept.get() is None


def make_sample_raw(tokens, intent, slots):
    from jmrm.core import Sample

    return Sample(tokens=tokens, intent=intent, slots=slots)


class TestEmissions:
    def test_shapes_and_trivial_softmax(self, enc):
        ls = LabelSpace(("only",), ("O", "B-x"))
        support = [make_sample(ls, "a b", "only", "O B-x")]
        protos = compute_prototypes(support, ls, enc)
        em = compute_emissions(support[0], protos, enc, "vpb")
        assert em.intent.shape == (1,)
        assert em.slot.shape == (2, 2)
        p = np.exp(em.intent - np.max(em.intent))
        assert (p / p.sum())[0] == pytest.approx(1.0)

    def test_l2_identity_query(self, music_space, enc):
        support = [
            make_sample(music_space, "play madonna", "play_music", "O B-artist"),
            make_sample(music_space, "book paris now", "book_restaurant", "O B-city I-city"),
            make_sample(music_space, "z", "play_music", "I-artist"),
        ]
        protos = compute_prototypes(support, music_space, enc)
        em = compute_emissions(support[1], protos, enc, "l2")
        gold = music_space.intent_id("book_restaurant")
        assert em.intent[gold] == pytest.approx(0.0, abs=1e-12)
        assert np.all(em.intent <= 1e-12)

    def test_matches_double_loop_oracle(self, music_space, enc):
        rng = np.random.default_rng(8)
        support = [
            make_sample(music_space, "play madonna fan", "play_music", "O B-artist I-artist"),
            make_sample(music_space, "book paris east", "book_restaurant", "O B-city I-city"),
        ]
        protos = compute_prototypes(support, music_space, enc)
        query = make_sample(music_space, "book madonna", "book_restaurant", "O B-artist")
        for kind in ("cos", "l2", "vpb"):
            em = compute_emissions(query, protos, enc, kind)
            rows = enc.encode_tokens(query.tokens)
            utt = rows.mean(axis=0)
            for l in range(music_space.n_intents):
                assert em.intent[l] == pytest.approx(
                    similarity(utt, protos.intent_protos[l], kind), abs=1e-12
                )
            for i in range(len(query.tokens)):
                for o in range(music_space.n_slots):
                    assert em.slot[i, o] == pytest.approx(
                        similarity(rows[i], protos.slot_protos[o], kind), abs=1e-12
                    )


class TestDegenerateRows:
    """A zero-norm row in the row-batched path raises DegenerateVector
    before any division: no NaN and no RuntimeWarning, through the decoder's
    emissions and through the training loss."""

    LS = LabelSpace(("play_music",), ("O", "B-artist"))

    def case(self, zero_token):
        """An episode and an encoder whose row for zero_token is zero
        ("<unk>" for every out-of-vocabulary token)."""
        support = (make_sample(self.LS, "play queen", "play_music", "O B-artist"),)
        query = (make_sample(self.LS, "play zz madonna", "play_music", "O O B-artist"),)
        enc = init_encoder(EncoderConfig(kind="trainable", dim=4), ["play", "queen", "madonna"])
        enc.params.token_table[enc.params.vocab[zero_token]] = 0.0  # bias starts at zero
        return Episode(support, query, self.LS, "music"), enc

    def assert_raises_cleanly(self, episode, enc, kind, match):
        protos = compute_prototypes(episode.support, self.LS, enc)
        config = RunConfig(similarity_kind=kind)
        ctx = build_context(episode, enc, config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateVector, match=match):
                compute_emissions(episode.query[0], protos, enc, kind)
            with pytest.raises(DegenerateVector, match=match):
                compute_loss(episode.query[0], ctx, config)

    def test_zero_embedding_row_under_cos_names_the_row(self):
        episode, enc = self.case("<unk>")
        self.assert_raises_cleanly(episode, enc, COS, "zero-norm embedding row 1 under cos")

    def test_similarity_grads_names_the_zero_cos_row(self):
        rows, protos = np.ones((4, 3)), np.eye(3)
        rows[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateVector, match="zero-norm embedding row 2 under cos"):
                similarity_grads(rows, protos, COS, np.ones((4, 3)))

    @pytest.mark.parametrize("kind", [VPB, COS])
    def test_zero_prototype(self, kind):
        episode, enc = self.case("queen")
        self.assert_raises_cleanly(episode, enc, kind, f"zero-norm prototype 1 under {kind}")

    @pytest.mark.parametrize("zero_token", ["<unk>", "queen"])
    def test_l2_scores_zero_rows(self, zero_token):
        episode, enc = self.case(zero_token)
        protos = compute_prototypes(episode.support, self.LS, enc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            em = compute_emissions(episode.query[0], protos, enc, L2)
        assert np.isfinite(em.intent).all() and np.isfinite(em.slot).all()
