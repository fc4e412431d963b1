"""The trainable encoder: embedding table -> mean pooling -> dropout -> MLP head.

Training view: pooled token embeddings pass through inverted dropout, a
tanh hidden layer, a second dropout, and a linear output layer; those
head outputs feed the contrastive loss. Evaluation view: mean-pooled
embeddings only, no head and no dropout.

A batch's token sequences are flattened once into (ids, lengths). The
forward pass records those, the dropout masks and the activations in a
ForwardTape; ``backward`` replays it to produce parameter gradients that a
finite-difference oracle can check to ~1e-4 relative error. Pooling sums
each row's embedding rows in token order, as ``E[ids].mean(axis=0)`` does
(``np.add.reduceat`` would reorder the float32 sums and change checkpoint bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import TokenSeq, tokenize


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int = 30000
    embed_dim: int = 64
    head_hidden: int = 64
    head_out: int = 32
    dropout_rate: float = 0.1
    hash_seed: int = 0

    def __post_init__(self) -> None:
        if min(self.vocab_size, self.embed_dim, self.head_hidden, self.head_out) < 1:
            raise ValueError("all dimensions must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


@dataclass
class EncoderModel:
    config: EncoderConfig
    E: np.ndarray   # vocab_size x d
    W1: np.ndarray  # d x head_hidden
    b1: np.ndarray  # head_hidden
    W2: np.ndarray  # head_hidden x head_out
    b2: np.ndarray  # head_out

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [("E", self.E), ("W1", self.W1), ("b1", self.b1), ("W2", self.W2), ("b2", self.b2)]


@dataclass
class GradientSet:
    E: np.ndarray
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def items(self) -> list[tuple[str, np.ndarray]]:
        return [("E", self.E), ("W1", self.W1), ("b1", self.b1), ("W2", self.W2), ("b2", self.b2)]


@dataclass
class ForwardTape:
    """Intermediate state of one TRAIN-view forward pass."""

    ids: np.ndarray       # every row's token ids, concatenated in row order
    lengths: np.ndarray   # n, token count per row
    drop1: np.ndarray     # n x d, mask already scaled by 1/(1-p); ones when p = 0
    drop2: np.ndarray     # n x head_hidden, scaled mask
    pooled: np.ndarray    # n x d, pre-dropout
    hidden: np.ndarray    # n x head_hidden, tanh output pre-dropout


def param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter group, in the fixed order E, W1, b1, W2, b2."""
    return {
        "E": (cfg.vocab_size, cfg.embed_dim),
        "W1": (cfg.embed_dim, cfg.head_hidden),
        "b1": (cfg.head_hidden,),
        "W2": (cfg.head_hidden, cfg.head_out),
        "b2": (cfg.head_out,),
    }


def init_model(cfg: EncoderConfig, seed: int, dtype=np.float32) -> EncoderModel:
    """Uniform init on [-1/sqrt(fan_in), 1/sqrt(fan_in)] per matrix; zero biases.

    fan_in is a matrix's row count; E, W1 and W2 draw from one generator in that order."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return EncoderModel(config=cfg, **params)


def _flatten(token_seqs: list[TokenSeq]) -> tuple[np.ndarray, np.ndarray]:
    ids = np.array([tid for seq in token_seqs for tid in seq.ids], dtype=np.intp)
    lengths = np.array([len(seq.ids) for seq in token_seqs], dtype=np.intp)
    return ids, lengths


def _pool(model: EncoderModel, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Row means of E over each row's ids: round k adds every row's k-th token, in token order."""
    if not lengths.all():
        raise ValueError(f"token sequence {int(np.argmin(lengths))} is empty; nothing to pool")
    starts = np.cumsum(lengths) - lengths
    sums = model.E[ids[starts]]
    for k in range(1, int(lengths.max(initial=0))):
        rows = np.flatnonzero(lengths > k)
        sums[rows] += model.E[ids[starts[rows] + k]]
    # As in mean(): divide the sum by its intp count in float64, then cast back to E's dtype.
    return (sums / lengths[:, None]).astype(model.E.dtype)


def _head(model: EncoderModel, pooled: np.ndarray, drop1: np.ndarray,
          drop2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tanh hidden layer before dropout, head output) for pooled rows and dropout masks."""
    hidden = np.tanh(pooled * drop1 @ model.W1 + model.b1)
    return hidden, hidden * drop2 @ model.W2 + model.b2


def forward_eval(model: EncoderModel, token_seqs: list[TokenSeq]) -> np.ndarray:
    """Evaluation view: mean-pooled embeddings, deterministic, no head."""
    return _pool(model, *_flatten(token_seqs))


def forward_train(
    model: EncoderModel,
    token_seqs: list[TokenSeq],
    rng_seed: int | list[int] = 0,
) -> tuple[np.ndarray, ForwardTape]:
    """Training view: pooled -> dropout -> tanh layer -> dropout -> linear out.

    Dropout is inverted (kept units scaled by 1/(1-p)) and uses independent
    masks per example per call, deterministic for a given rng_seed; with
    dropout_rate 0 both masks are all ones and no random number is drawn.
    """
    cfg = model.config
    dtype = model.E.dtype
    ids, lengths = _flatten(token_seqs)
    pooled = _pool(model, ids, lengths)
    n = pooled.shape[0]

    p = cfg.dropout_rate
    if p > 0.0:
        rng = np.random.default_rng(rng_seed)
        keep = np.asarray(1.0 - p, dtype=dtype)
        drop1 = (rng.random((n, cfg.embed_dim)) >= p).astype(dtype) / keep
        drop2 = (rng.random((n, cfg.head_hidden)) >= p).astype(dtype) / keep
    else:
        drop1 = np.ones((n, cfg.embed_dim), dtype=dtype)
        drop2 = np.ones((n, cfg.head_hidden), dtype=dtype)

    hidden, out = _head(model, pooled, drop1, drop2)
    tape = ForwardTape(ids=ids, lengths=lengths, drop1=drop1, drop2=drop2, pooled=pooled, hidden=hidden)
    return out, tape


def replay_forward(model: EncoderModel, tape: ForwardTape) -> np.ndarray:
    """Recompute the TRAIN-view output with the tape's frozen dropout masks.

    Used by the finite-difference oracle: perturbed parameters, same masks.
    """
    return _head(model, _pool(model, tape.ids, tape.lengths), tape.drop1, tape.drop2)[1]


def backward(model: EncoderModel, tape: ForwardTape, grad_out: np.ndarray) -> GradientSet:
    """Exact gradients of all parameters given dL/d(head output).

    Chains through the recorded dropout masks, the tanh layer, mean pooling,
    and the embedding lookup; untouched vocab rows get exactly zero.
    """
    n = len(tape.lengths)
    if grad_out.shape != (n, model.config.head_out):
        raise ValueError(f"grad shape {grad_out.shape} != ({n}, {model.config.head_out})")

    hidden_d = tape.hidden * tape.drop2
    dW2 = hidden_d.T @ grad_out
    db2 = grad_out.sum(axis=0)

    dhidden = (grad_out @ model.W2.T) * tape.drop2
    dpre1 = dhidden * (1.0 - tape.hidden**2)

    pooled_d = tape.pooled * tape.drop1
    dW1 = pooled_d.T @ dpre1
    db1 = dpre1.sum(axis=0)

    dpooled = (dpre1 @ model.W1.T) * tape.drop1

    # Each token of row i adds dpooled[i] / len(row i), divided in dpooled's dtype, in row-major token order.
    dE = np.zeros(model.E.shape, model.E.dtype)  # calloc, unlike zeros_like, need not write every page
    share = dpooled / tape.lengths[:, None].astype(dpooled.dtype)
    np.add.at(dE, tape.ids, np.repeat(share, tape.lengths, axis=0))

    return GradientSet(E=dE, W1=dW1.astype(model.W1.dtype), b1=db1.astype(model.b1.dtype),
                       W2=dW2.astype(model.W2.dtype), b2=db2.astype(model.b2.dtype))


def tokenize_texts(texts: list[str], cfg: EncoderConfig) -> list[TokenSeq]:
    return [tokenize(t, cfg.vocab_size, cfg.hash_seed) for t in texts]


def embed_texts(model: EncoderModel, texts: list[str]) -> np.ndarray:
    """Evaluation-view embeddings for raw texts (tokenize + mean pool)."""
    return forward_eval(model, tokenize_texts(texts, model.config))
