"""Hashed-frozen and trainable encoders, gradients, and checkpoints."""

import json

import numpy as np
import pytest

from jmrm.core import MalformedInput
from jmrm.encoder import (
    Encoder,
    EncoderConfig,
    EncoderParams,
    FrozenEncoder,
    add_rows_at,
    encode_tokens,
    encoder_backward,
    init_encoder,
    load_encoder,
    save_encoder,
    zero_grads,
)


def frozen(dim=16, seed=0):
    return EncoderConfig(kind="hashed-frozen", dim=dim, seed=seed)


def trainable(dim=4, w=0, seed=0, scale=0.5):
    return EncoderConfig(kind="trainable", dim=dim, context_window=w,
                         init_scale=scale, seed=seed)


def state_of(enc, tokens):
    """The WindowState encode_tokens keeps for encoder_backward."""
    return encode_tokens(enc.params, enc.config, tokens, True)[1]


class TestHashedFrozen:
    def test_identical_tokens_identical_rows(self):
        rows = encode_tokens(None, frozen(), ["play", "play"])
        np.testing.assert_array_equal(rows[0], rows[1])

    def test_unit_norm(self):
        rows = encode_tokens(None, frozen(dim=24), ["a", "b", "tricky token"])
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-9)

    def test_deterministic_and_domain_agnostic(self):
        a = encode_tokens(None, frozen(), ["paris"])
        b = encode_tokens(None, frozen(), ["rome", "paris"])
        np.testing.assert_array_equal(a[0], b[1])

    def test_seed_changes_vectors(self):
        a = encode_tokens(None, frozen(seed=0), ["paris"])
        b = encode_tokens(None, frozen(seed=1), ["paris"])
        assert not np.allclose(a, b)

    def test_backward_raises(self):
        with pytest.raises(FrozenEncoder):
            encoder_backward(None, frozen(), None, np.zeros((1, 16)), np.zeros(16), {})

    def test_keeps_no_state(self):
        rows, state = encode_tokens(None, frozen(), ["x", "y"], True)
        assert state is None
        np.testing.assert_array_equal(rows, encode_tokens(None, frozen(), ["x", "y"]))


class TestTrainable:
    def test_identity_projection_returns_table_rows(self):
        cfg = trainable(dim=3)
        params = EncoderParams(
            vocab={"<unk>": 0, "a": 1, "b": 2},
            token_table=np.arange(9, dtype=float).reshape(3, 3),
            projection=np.eye(3),
            bias=np.zeros(3),
        )
        rows = encode_tokens(params, cfg, ["a", "b"])
        np.testing.assert_array_equal(rows[0], params.token_table[1])
        np.testing.assert_array_equal(rows[1], params.token_table[2])

    def test_oov_maps_to_unk_row(self):
        cfg = trainable(dim=3)
        params = EncoderParams(
            vocab={"<unk>": 0, "a": 1},
            token_table=np.arange(6, dtype=float).reshape(2, 3),
            projection=np.eye(3),
            bias=np.zeros(3),
        )
        rows = encode_tokens(params, cfg, ["never-seen"])
        np.testing.assert_array_equal(rows[0], params.token_table[0])

    def test_utterance_mean(self):
        enc = init_encoder(trainable(dim=5), ["a", "b"])
        rows = enc.encode_tokens(["a", "b"])
        np.testing.assert_allclose(rows.mean(axis=0), (rows[0] + rows[1]) / 2)
        np.testing.assert_array_equal(
            enc.encode_tokens(["a"]).mean(axis=0), enc.encode_tokens(["a"])[0]
        )

    def test_mean_permutation_invariant_without_context(self):
        enc = init_encoder(trainable(dim=5), ["a", "b", "c"])
        u1 = enc.encode_tokens(["a", "b", "c"]).mean(axis=0)
        u2 = enc.encode_tokens(["c", "a", "b"]).mean(axis=0)
        np.testing.assert_allclose(u1, u2)

    def test_context_window_mixes_neighbours(self):
        enc0 = init_encoder(trainable(dim=4, w=0, seed=3), ["a", "b"])
        enc1 = Encoder(trainable(dim=4, w=1, seed=3), enc0.params)
        assert not np.allclose(
            enc0.encode_tokens(["a", "b"]), enc1.encode_tokens(["a", "b"])
        )

    def test_empty_tokens_rejected(self):
        enc = init_encoder(trainable(), ["a"])
        with pytest.raises(ValueError):
            enc.encode_tokens([])


def backward(enc, tokens, d_rows, d_utt):
    """encoder_backward's gradients, summed into zeros."""
    grads = zero_grads(enc.params)
    encoder_backward(enc.params, enc.config, state_of(enc, tokens), d_rows, d_utt, grads)
    return grads


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        enc = init_encoder(trainable(dim=4, w=1), ["a", "b"])
        grads = backward(enc, ["a", "b"], np.zeros((2, 4)), np.zeros(4))
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_absent_token_gets_zero_grad(self):
        enc = init_encoder(trainable(dim=4, w=0), ["a", "b"])
        grads = backward(enc, ["a"], np.ones((1, 4)), np.zeros(4))
        np.testing.assert_array_equal(grads["token_table"][enc.params.vocab["b"]], 0.0)
        assert np.any(grads["token_table"][enc.params.vocab["a"]] != 0.0)

    def test_finite_difference_check(self):
        rng = np.random.default_rng(11)
        step = 1e-5
        for trial in range(12):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(1, 6))
            w = int(rng.integers(0, 3))
            vocab = [f"t{v}" for v in range(4)]
            enc = init_encoder(
                EncoderConfig(kind="trainable", dim=d, context_window=w,
                              init_scale=0.6, seed=int(rng.integers(2**31))),
                vocab,
            )
            tokens = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=m)]
            d_rows = rng.standard_normal((m, d))
            d_utt = rng.standard_normal(d)

            def objective() -> float:
                rows = encode_tokens(enc.params, enc.config, tokens)
                return float(np.sum(rows * d_rows) + rows.mean(axis=0) @ d_utt)

            grads = backward(enc, tokens, d_rows, d_utt)
            errs = []
            for name, arr in enc.params.as_dict().items():
                flat = arr.reshape(-1)
                for idx in range(flat.shape[0]):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    up = objective()
                    flat[idx] = orig - step
                    down = objective()
                    flat[idx] = orig
                    fd = (up - down) / (2 * step)
                    a = float(grads[name].reshape(-1)[idx])
                    errs.append(abs(a - fd) / max(abs(a), abs(fd), 1e-3))
            # np.max keeps a NaN, which fails the bound; max(worst, nan) would drop it
            assert np.max(errs) <= 1e-4

    def test_accumulates_into_out(self):
        enc = init_encoder(trainable(dim=3), ["a"])
        out = zero_grads(enc.params)
        state = state_of(enc, ["a"])
        encoder_backward(enc.params, enc.config, state, np.zeros((1, 3)), np.ones(3), out)
        once = {k: v.copy() for k, v in out.items()}
        encoder_backward(enc.params, enc.config, state, np.zeros((1, 3)), np.ones(3), out)
        for k in out:
            np.testing.assert_allclose(out[k], 2 * once[k])


class TestAddRowsAt:
    def test_matches_add_at_with_repeated_rows(self):
        rng = np.random.default_rng(3)
        target = rng.standard_normal((5, 3))
        rows, values = rng.integers(0, 5, size=40), rng.standard_normal((40, 3))
        want = target.copy()
        np.add.at(want, rows, values)
        add_rows_at(target, rows, values)
        assert target.tobytes() == want.tobytes()

    def test_refuses_a_target_it_would_copy(self):
        # reshape(-1) of a non-contiguous array is a copy: the adds would be lost
        target = np.zeros((3, 4)).T
        with pytest.raises(ValueError, match="C-contiguous"):
            add_rows_at(target, np.array([0]), np.ones((1, 3)))


class TestCheckpoint:
    def test_round_trip_trainable(self, tmp_path):
        enc = init_encoder(trainable(dim=6, w=2, seed=5), ["alpha", "beta"])
        path = tmp_path / "enc.json"
        save_encoder(path, enc)
        loaded = load_encoder(path)
        assert loaded.config == enc.config
        assert loaded.params.vocab == enc.params.vocab
        np.testing.assert_array_equal(loaded.params.token_table, enc.params.token_table)
        np.testing.assert_array_equal(loaded.params.projection, enc.params.projection)
        np.testing.assert_array_equal(loaded.params.bias, enc.params.bias)

    def test_round_trip_frozen(self, tmp_path):
        enc = init_encoder(frozen(dim=8, seed=2))
        path = tmp_path / "enc.json"
        save_encoder(path, enc)
        loaded = load_encoder(path)
        assert loaded.config == enc.config
        assert loaded.params is None
        np.testing.assert_array_equal(
            loaded.encode_tokens(["x"]), enc.encode_tokens(["x"])
        )

    def test_magic_validated(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"magic": "other", "config": {}}')
        with pytest.raises(MalformedInput, match="JMRM-ENC-v1"):
            load_encoder(path)


class TestCheckpointValidation:
    """Every malformed checkpoint ends in MalformedInput at load time."""

    @pytest.fixture
    def saved(self, tmp_path):
        enc = init_encoder(trainable(dim=3, seed=1), ["alpha", "beta"])
        path = tmp_path / "enc.json"
        save_encoder(path, enc)
        return path, json.loads(path.read_text())

    @staticmethod
    def rejects(path, payload, match):
        path.write_text(json.dumps(payload))
        with pytest.raises(MalformedInput, match=match):
            load_encoder(path)

    def test_unknown_config_key(self, saved):
        path, payload = saved
        payload["config"]["layers"] = 2
        self.rejects(path, payload, "config keys must be exactly")

    def test_missing_config_key(self, saved):
        path, payload = saved
        del payload["config"]["seed"]
        self.rejects(path, payload, "config keys must be exactly")

    def test_invalid_config_value(self, saved):
        path, payload = saved
        payload["config"]["dim"] = 0
        self.rejects(path, payload, "bad encoder config")

    def test_missing_vocab(self, saved):
        path, payload = saved
        del payload["vocab"]
        self.rejects(path, payload, "vocab must be a non-empty list")

    @pytest.mark.parametrize("name", ["token_table", "projection", "bias"])
    def test_missing_matrix(self, saved, name):
        path, payload = saved
        del payload[name]
        self.rejects(path, payload, f"{name} is missing")

    def test_short_token_table(self, saved):
        path, payload = saved
        payload["token_table"] = payload["token_table"][:-1]
        self.rejects(path, payload, r"token_table has shape \(2, 3\), not \(3, 3\)")

    def test_projection_not_square(self, saved):
        path, payload = saved
        payload["projection"] = [row[:2] for row in payload["projection"]]
        self.rejects(path, payload, r"projection has shape \(3, 2\), not \(3, 3\)")

    def test_null_entry(self, saved):
        path, payload = saved
        payload["bias"][1] = None
        self.rejects(path, payload, "bias has null or non-finite entries")

    def test_bias_wrong_length(self, saved):
        path, payload = saved
        payload["bias"] = payload["bias"] + [0.0]
        self.rejects(path, payload, r"bias has shape \(4,\), not \(3,\)")

    def test_ragged_matrix(self, saved):
        path, payload = saved
        payload["projection"][0] = [1.0]
        self.rejects(path, payload, "projection is missing or not a numeric array")

    @pytest.mark.parametrize("vocab", [["<unk>", "alpha", "alpha"], ["<unk>", "alpha", "<unk>"],
                                       ["alpha", "<unk>", "beta"], ["alpha", "beta", "gamma"]])
    def test_vocab_duplicate_or_without_unk_first(self, saved, vocab):
        # each row must be reachable, and row 0 is the one unknown tokens read
        path, payload = saved
        payload["vocab"] = vocab
        self.rejects(path, payload, "vocab must be '<unk>' then distinct tokens")

    def test_vocab_not_a_token_list(self, saved):
        path, payload = saved
        payload["vocab"] = []
        self.rejects(path, payload, "vocab must be a non-empty list")


class TestConfig:
    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            EncoderConfig(kind="bert", dim=4)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            EncoderConfig(kind="trainable", dim=0)

    @pytest.mark.parametrize("field, value, message", [
        ("context_window", -1, "context_window must be >= 0"),
        ("seed", -1, "seed and context_window must be >= 0"),
        ("init_scale", 0.0, "init_scale must be > 0"),
        ("init_scale", -0.1, "init_scale must be > 0"),
        ("init_scale", float("nan"), "init_scale must be > 0 and finite"),
        ("init_scale", float("inf"), "init_scale must be > 0 and finite"),
    ])
    def test_out_of_range_fields(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            EncoderConfig(kind="trainable", dim=4, **{field: value})
