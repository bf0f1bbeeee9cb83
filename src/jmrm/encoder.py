"""Pluggable token/utterance embedding functions.

Two kinds:

* ``hashed-frozen``: every token maps to a fixed unit vector drawn from a
  PRNG seeded by a stable hash of (seed, token).  The same surface token
  gets the same vector in every domain, which is what makes token-level
  semantics transferable across domains at desk scale.  No parameters.
* ``trainable``: a token embedding table plus a linear projection over a
  symmetric context-window mean, with exact reverse-mode gradients.  The
  window mean adds 2w+1 shifted slices and its backward scatter is one
  flat ``np.add.at`` over the (position, neighbour) pairs; both round like
  a loop over positions and then neighbours.  ``encode_tokens`` can return
  the ``WindowState`` that ``encoder_backward`` takes, so a backward pass
  never recomputes its forward.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import MalformedInput, config_from_dict, read_json, write_json

HASHED_FROZEN = "hashed-frozen"
TRAINABLE = "trainable"

CHECKPOINT_MAGIC = "JMRM-ENC-v1"

UNK_TOKEN = "<unk>"


class FrozenEncoder(RuntimeError):
    """Backward pass requested on the parameter-free hashed encoder."""


@dataclass(frozen=True)
class EncoderConfig:
    kind: str
    dim: int
    context_window: int = 0
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (HASHED_FROZEN, TRAINABLE):
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.context_window < 0:
            raise ValueError("context_window must be >= 0")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be > 0")


@dataclass
class EncoderParams:
    """Trainable parameters: vocabulary-keyed table, projection, bias."""

    vocab: dict[str, int]
    token_table: np.ndarray  # (V, d)
    projection: np.ndarray  # (d, d)
    bias: np.ndarray  # (d,)

    def as_dict(self) -> dict[str, np.ndarray]:
        return {
            "token_table": self.token_table,
            "projection": self.projection,
            "bias": self.bias,
        }

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            vocab=dict(self.vocab),
            token_table=self.token_table.copy(),
            projection=self.projection.copy(),
            bias=self.bias.copy(),
        )


@dataclass(frozen=True)
class WindowState:
    """What encoder_backward needs of one trainable encode_tokens call."""

    ids: np.ndarray  # (m,) token_table rows
    h: np.ndarray  # (m, dim) window means


@dataclass
class Encoder:
    """An embedding function: a config plus (for the trainable kind) params."""

    config: EncoderConfig
    params: EncoderParams | None = None

    @property
    def is_trainable(self) -> bool:
        return self.config.kind == TRAINABLE

    def encode_tokens(self, tokens: Sequence[str], return_state: bool = False):
        return encode_tokens(self.params, self.config, tokens, return_state)

    def copy(self) -> "Encoder":
        return Encoder(self.config, self.params.copy() if self.params else None)


def init_encoder(config: EncoderConfig, vocab: Sequence[str] = ()) -> Encoder:
    """Create an encoder; the trainable kind gets a fresh parameter set.

    The vocabulary keeps first-appearance order (duplicates dropped); row 0
    is the UNK embedding shared by all out-of-vocabulary tokens.
    """
    if config.kind == HASHED_FROZEN:
        return Encoder(config, None)
    ordered = list(dict.fromkeys([UNK_TOKEN, *vocab]))
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    d = config.dim
    table = rng.uniform(-config.init_scale, config.init_scale, size=(len(ordered), d))
    projection = np.eye(d) + rng.uniform(-config.init_scale, config.init_scale, size=(d, d))
    params = EncoderParams(
        vocab={tok: i for i, tok in enumerate(ordered)},
        token_table=table,
        projection=projection,
        bias=np.zeros(d),
    )
    return Encoder(config, params)


@lru_cache(maxsize=65536)
def _hashed_unit_vector(token: str, seed: int, dim: int) -> np.ndarray:
    digest = hashlib.blake2b(f"{seed}:{token}".encode("utf-8"), digest_size=8).digest()
    gen = np.random.default_rng(int.from_bytes(digest, "big"))
    v = gen.standard_normal(dim)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


@lru_cache(maxsize=1024)
def _window_pairs(m: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The backward scatter's (i, j) in [0, m) with |i - j| <= w, i-major with
    j ascending, and each window's size.  ufunc.at adds in index order, so a
    sum over these pairs rounds exactly like a loop over i and then j."""
    pos = np.arange(m)
    i, j = np.nonzero(np.abs(pos[:, None] - pos) <= w)
    return i, j, np.bincount(i, minlength=m)


def add_rows_at(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """np.add.at(target, rows, values) for a C-contiguous (n, d) target,
    through numpy's faster 1-D path: value k still adds into row rows[k] in
    order k, so every element rounds as in the 2-D call."""
    if not target.flags.c_contiguous:
        raise ValueError("add_rows_at needs a C-contiguous target")
    d = target.shape[1]
    flat = (rows[:, None] * d + np.arange(d)).reshape(-1)
    np.add.at(target.reshape(-1), flat, values.reshape(-1))


def _window_means(table_rows: np.ndarray, w: int) -> np.ndarray:
    if w == 0:
        return table_rows
    m = table_rows.shape[0]
    w = min(w, m - 1)
    # offset o adds row i + o into every row i it reaches; ascending o adds
    # each window's rows in ascending order, as a loop over them would
    sums = np.zeros_like(table_rows)
    for o in range(-w, w + 1):
        sums[max(0, -o) : m - max(0, o)] += table_rows[max(0, o) : m + min(0, o)]
    # window i spans min(i, w) rows before it and min(m - 1 - i, w) after it:
    # 2w + 1 rows, except in the first and last w windows, which mirror
    sizes = np.full(m, 2 * w + 1)
    for k in range(w):
        sizes[k] = sizes[m - 1 - k] = k + min(m - 1 - k, w) + 1
    return sums / sizes[:, None]


def encode_tokens(
    params: EncoderParams | None,
    config: EncoderConfig,
    tokens: Sequence[str],
    return_state: bool = False,
):
    """Embed each token; returns an (m, dim) matrix, or with return_state
    the pair (matrix, WindowState), whose state is None for the hashed kind."""
    if len(tokens) < 1:
        raise ValueError("tokens must be non-empty")
    if config.kind == HASHED_FROZEN:
        rows = np.stack([_hashed_unit_vector(t, config.seed, config.dim) for t in tokens])
        return (rows, None) if return_state else rows
    assert params is not None
    ids = np.array([params.vocab.get(t, 0) for t in tokens], dtype=int)
    h = _window_means(params.token_table[ids], config.context_window)
    rows = h @ params.projection.T + params.bias
    return (rows, WindowState(ids, h)) if return_state else rows


def zero_grads(params: EncoderParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.as_dict().items()}


def encoder_backward(
    params: EncoderParams | None,
    config: EncoderConfig,
    state: WindowState,
    d_rows: np.ndarray,
    d_utt: np.ndarray,
    out: dict[str, np.ndarray],
) -> None:
    """Add exact parameter gradients of encode_tokens into out.

    state is the WindowState encode_tokens returned for the tokens, d_rows
    an upstream (m, dim) gradient on the token matrix and d_utt a (dim,)
    gradient on the mean of its rows.
    """
    if config.kind != TRAINABLE:
        raise FrozenEncoder("hashed-frozen encoder has no parameters")
    assert params is not None
    m, d = state.h.shape
    total = np.zeros((m, d))
    total += d_rows
    total += d_utt / m
    out["projection"] += total.T @ state.h
    out["bias"] += total.sum(axis=0)
    dh = total @ params.projection
    i, j, sizes = _window_pairs(m, config.context_window)
    add_rows_at(out["token_table"], state.ids[j], (dh / sizes[:, None])[i])


# --- checkpoints -----------------------------------------------------------


def save_encoder(path, encoder: Encoder) -> None:
    """Write a versioned JSON checkpoint (config + vocabulary + matrices)."""
    payload: dict = {"magic": CHECKPOINT_MAGIC, "config": asdict(encoder.config)}
    if encoder.params is not None:
        row_order = sorted(encoder.params.vocab, key=encoder.params.vocab.get)
        payload["vocab"] = row_order
        payload["token_table"] = encoder.params.token_table.tolist()
        payload["projection"] = encoder.params.projection.tolist()
        payload["bias"] = encoder.params.bias.tolist()
    write_json(path, payload)


def load_encoder(path) -> Encoder:
    """Read a save_encoder checkpoint; any other layout raises MalformedInput."""
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("magic") != CHECKPOINT_MAGIC:
        raise MalformedInput(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
    raw, keys = payload.get("config"), {f.name for f in fields(EncoderConfig)}
    if not isinstance(raw, dict) or set(raw) != keys:
        raise MalformedInput(f"{path}: config keys must be exactly {sorted(keys)}")
    config = config_from_dict(EncoderConfig, raw, f"encoder config in {path}")
    if config.kind == HASHED_FROZEN:
        return Encoder(config, None)
    vocab, d = payload.get("vocab"), config.dim
    if not (isinstance(vocab, list) and vocab and all(isinstance(t, str) for t in vocab)):
        raise MalformedInput(f"{path}: vocab must be a non-empty list of tokens")
    if vocab[0] != UNK_TOKEN or len(set(vocab)) != len(vocab):
        raise MalformedInput(f"{path}: vocab must be {UNK_TOKEN!r} then distinct tokens")
    matrices = {}
    for name, shape in (("token_table", (len(vocab), d)), ("projection", (d, d)), ("bias", (d,))):
        try:
            matrices[name] = np.asarray(payload[name], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise MalformedInput(f"{path}: {name} is missing or not a numeric array") from None
        if matrices[name].shape != shape:
            raise MalformedInput(f"{path}: {name} has shape {matrices[name].shape}, not {shape}")
        if not np.isfinite(matrices[name]).all():
            raise MalformedInput(f"{path}: {name} has null or non-finite entries")
    return Encoder(config, EncoderParams({t: i for i, t in enumerate(vocab)}, **matrices))
