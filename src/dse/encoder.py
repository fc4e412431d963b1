"""Hashing tokenizer and the trainable encoder: embedding table -> mean pooling -> dropout -> MLP head.

Tokenization lowercases, splits on whitespace runs (the 29 ``str.isspace``
code points, as ``str.split()`` does) and hashes each word's UTF-8 bytes with
seeded 64-bit FNV-1a; ids 0-2 are reserved for [SEP], [SYS], [USR]. Texts
tokenize to one flat layout ``(ids, lengths)``: their ids concatenated in
text and word order, and one word count per text. The encoder takes that layout.

``tokenize_texts`` works on all texts at once. It maps the 19 non-ASCII
spaces to a space, encodes each text and joins them with the byte 0xFF, which
UTF-8 never contains. One 256-entry table marks the space bytes (0xFF among
them), so word edges and the per-text word counts come from whole-array
comparisons. Every word occurrence is hashed in ``uint64`` arrays, longest
word first, so byte column j updates a prefix of the words.

Training view: pooled token embeddings pass through inverted dropout, a
tanh hidden layer, a second dropout, and a linear output layer; those
head outputs feed the contrastive loss. Evaluation view: mean-pooled
embeddings only, no head and no dropout.

The forward pass records the ids, the dropout masks and the activations in
a ForwardTape; ``backward`` replays it to produce parameter gradients that a
finite-difference oracle can check to ~1e-4 relative error. Pooling sums
each row's embedding rows in token order, as ``E[ids].mean(axis=0)`` does
(``np.add.reduceat`` would reorder the float32 sums and change checkpoint bytes):
rows are sorted longest first, and round k adds the k-th token of every row
that has one, a prefix of the sorted rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

SEP_ID = 0
SYS_ID = 1
USR_ID = 2
NUM_RESERVED = 3

_SPECIAL_IDS = {b"[sep]": SEP_ID, b"[sys]": SYS_ID, b"[usr]": USR_ID}  # all 5 bytes long

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# The ASCII str.isspace characters are single UTF-8 bytes; the other 19 are mapped to a space first.
_TEXT_END = b"\xff"
_IS_SPACE = np.zeros(256, dtype=bool)
_IS_SPACE[list(b"\t\n\v\f\r\x1c\x1d\x1e\x1f " + _TEXT_END)] = True
_WIDE_SPACES = str.maketrans(dict.fromkeys(
    "\x85\xa0\u1680\u2028\u2029\u202f\u205f\u3000" + "".join(map(chr, range(0x2000, 0x200B))), " "))

# Rows of a matrix that ``init_model`` draws per float64 block: 512 KiB at 64 columns.
_INIT_BLOCK_ROWS = 1024


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
        if self.vocab_size < 8:
            raise ValueError(f"vocab_size must be >= 8, got {self.vocab_size}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


def _longest_first(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(stable order of ``sizes``, longest first; ``longer``), where ``longer[k]`` counts the sizes >= k.

    The order sorts the key ``max - size`` in the narrowest unsigned type that holds it: the key
    falls as the size grows and the sort is stable, so the order is that of ``-sizes``, and a key
    of 16 bits or fewer takes numpy's radix sort. No sizes give an empty order."""
    top = sizes.max(initial=0)
    key = (top - sizes).astype(np.min_scalar_type(top))
    return np.argsort(key, kind="stable"), np.cumsum(np.bincount(sizes)[::-1])[::-1]


def tokenize_texts(texts: list[str], cfg: EncoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """The flat layout of ``texts``. A word hashes into ``[NUM_RESERVED, vocab_size)``
    unless it is [SEP], [SYS] or [USR] (any case), which take their reserved ids."""
    encoded = [text.encode() if text.isascii() else text.translate(_WIDE_SPACES).encode()
               for text in map(str.lower, texts)]
    buf = np.frombuffer(_TEXT_END.join([b"", *encoded, b""]), dtype=np.uint8)
    space = _IS_SPACE.take(buf)
    # buf starts and ends with 0xFF, so the edges alternate: a word's first byte, the byte after its last
    edges = np.flatnonzero(space[1:] != space[:-1]) + 1
    starts = edges[0::2]
    sizes = edges[1::2] - starts
    counts = np.diff(np.searchsorted(starts, np.flatnonzero(buf == _TEXT_END[0])))

    # FNV-1a of every word, longest first: byte j goes to the words with more than j bytes, a prefix
    order, longer = _longest_first(sizes)
    first = starts[order]
    h = np.full(len(first), _FNV_OFFSET ^ (cfg.hash_seed & _MASK64), dtype=np.uint64)
    for j in range(len(longer) - 1):
        live = longer[j + 1]
        h[:live] ^= buf.take(first[:live] + j)
        h[:live] *= _FNV_PRIME
    hashed = NUM_RESERVED + (h % (cfg.vocab_size - NUM_RESERVED)).astype(np.intp)

    # The special words are the 5-byte words starting with "[" whose bytes equal one of them
    five = np.flatnonzero((sizes[order] == 5) & (buf.take(first) == ord("[")))
    words = buf[first[five, None] + np.arange(5)]
    for word, special in _SPECIAL_IDS.items():
        hashed[five[(words == np.frombuffer(word, dtype=np.uint8)).all(axis=1)]] = special
    ids = np.empty_like(hashed)
    ids[order] = hashed
    return ids, counts


def take_texts(ids: np.ndarray, lengths: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat layout of texts ``rows`` (repeats allowed) of the flat layout ``(ids, lengths)``."""
    picked = lengths[rows]
    starts = (np.cumsum(lengths) - lengths)[rows]
    offsets = np.repeat(starts - (np.cumsum(picked) - picked), picked) + np.arange(picked.sum())
    return ids[offsets], picked


@dataclass
class EncoderModel:
    config: EncoderConfig
    E: np.ndarray   # vocab_size x d; in training and in a checkpoint, the live rows x d
    W1: np.ndarray  # d x head_hidden
    b1: np.ndarray  # head_hidden
    W2: np.ndarray  # head_hidden x head_out
    b2: np.ndarray  # head_out

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in param_shapes(self.config)]

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> EncoderModel:
        """A model of the same config whose every parameter is ``fn`` of this model's."""
        return EncoderModel(self.config, *(fn(p) for _, p in self.param_items()))


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
    """Shape of each parameter group, in the order of ``EncoderModel``'s fields."""
    return {
        "E": (cfg.vocab_size, cfg.embed_dim),
        "W1": (cfg.embed_dim, cfg.head_hidden),
        "b1": (cfg.head_hidden,),
        "W2": (cfg.head_hidden, cfg.head_out),
        "b2": (cfg.head_out,),
    }


def _draw_uniform(bitgen: np.random.PCG64, shape: tuple[int, int], bound: float,
                  rows: np.ndarray | None = None) -> np.ndarray:
    """Rows ``rows`` (strictly increasing; every row when None) of
    ``Generator(bitgen).uniform(-bound, bound, shape).astype(np.float32)``: the same stream and bytes.

    ``random`` takes one 64-bit output per float64, so row r of the matrix is outputs r·d to
    r·d + d - 1: each run of consecutive rows is drawn after advancing ``bitgen`` to it (PCG64's
    jump-ahead), ``_INIT_BLOCK_ROWS`` rows at a time into one reused float64 buffer. The block is
    scaled as uniform does (low + (high - low) * random()), and the float64 sum is cast into the
    float32 output. ``bitgen`` is left past the whole matrix, where the full draw leaves it."""
    n, d = shape
    rows = np.arange(n) if rows is None else rows
    gen = np.random.Generator(bitgen)
    out = np.empty((len(rows), d), np.float32)
    buf = np.empty((min(len(rows), _INIT_BLOCK_ROWS), d))
    done = 0  # rows of the matrix that bitgen has passed
    for start in range(0, len(rows), _INIT_BLOCK_ROWS):
        part = rows[start : start + _INIT_BLOCK_ROWS]
        block = buf[: len(part)]
        edges = [0, *(np.flatnonzero(np.diff(part) != 1) + 1).tolist(), len(part)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            bitgen.advance((int(part[lo]) - done) * d)
            gen.random(out=block[lo:hi])
            done = int(part[hi - 1]) + 1
        block *= bound - -bound
        np.add(block, -bound, out=out[start : start + len(part)], casting="same_kind")
    bitgen.advance((n - done) * d)
    return out


def init_model(cfg: EncoderConfig, seed: int, rows: np.ndarray | None = None) -> EncoderModel:
    """Float32 uniform init on [-1/sqrt(fan_in), 1/sqrt(fan_in)] per matrix; zero biases.

    fan_in is a matrix's row count; E, W1 and W2 draw in that order from one stream, that of
    ``np.random.default_rng(seed)``. With ``rows`` (strictly increasing row ids), E holds those
    rows of the full table only, and W1 and W2 are the same bytes: the stream skips the rest
    of E (``_draw_uniform``)."""
    bitgen = np.random.PCG64(seed)
    def draw(shape: tuple[int, ...], rows: np.ndarray | None = None) -> np.ndarray:
        if len(shape) == 1:
            return np.zeros(shape, np.float32)
        return _draw_uniform(bitgen, shape, 1.0 / np.sqrt(shape[0]), rows)
    return EncoderModel(cfg, *(draw(shape, rows if name == "E" else None) for name, shape in param_shapes(cfg).items()))


def forward_eval(model: EncoderModel, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Evaluation view: row means of E over each row's ids, deterministic, no head.

    Rows are taken longest first; round k adds the k-th token of the rows that
    have one, a prefix of them, so each row adds its tokens in token order."""
    if not lengths.all():
        raise ValueError(f"token sequence {int(np.argmin(lengths))} is empty; nothing to pool")
    order, longer = _longest_first(lengths)
    starts = (np.cumsum(lengths) - lengths)[order]
    sums = model.E.take(ids.take(starts), axis=0)
    for k in range(1, len(longer) - 1):
        live = longer[k + 1]
        sums[:live] += model.E.take(ids.take(starts[:live] + k), axis=0)
    # As in mean(): divide the sum by its intp count in float64, then cast back to E's dtype.
    np.divide(sums, lengths[order, None], out=sums, dtype=np.float64, casting="unsafe")
    pooled = np.empty_like(sums)
    pooled[order] = sums
    return pooled


def _head(model: EncoderModel, pooled: np.ndarray, drop1: np.ndarray,
          drop2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tanh hidden layer before dropout, head output) for pooled rows and dropout masks."""
    hidden = np.tanh(pooled * drop1 @ model.W1 + model.b1)
    return hidden, hidden * drop2 @ model.W2 + model.b2


def forward_train(
    model: EncoderModel,
    ids: np.ndarray,
    lengths: np.ndarray,
    rng_seed: int | list[int] = 0,
) -> tuple[np.ndarray, ForwardTape]:
    """Training view: pooled -> dropout -> tanh layer -> dropout -> linear out.

    Dropout is inverted (kept units scaled by 1/(1-p)) and uses independent
    masks per example per call, deterministic for a given rng_seed; with
    dropout_rate 0 both masks are all ones and no random number is drawn.
    """
    cfg = model.config
    dtype = model.E.dtype
    pooled = forward_eval(model, ids, lengths)
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


def _scatter_add_rows(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(out, ids, rows)`` for a C-contiguous 2-D ``out``, byte for byte.

    One 1-D ``np.add.at`` on ``out``'s flat view at ``ids[t] * d + k``, which numpy runs several
    times faster than a scatter of rows. It walks ``rows`` in C order, so each element of ``out``
    takes its adds in the order of ``ids``, as the row scatter does."""
    d = out.shape[1]
    np.add.at(out.reshape(-1), (ids[:, None] * d + np.arange(d)).reshape(-1), rows.reshape(-1))


def backward(model: EncoderModel, tape: ForwardTape, grad_out: np.ndarray) -> EncoderModel:
    """Exact gradients of all parameters given dL/d(head output), as an
    ``EncoderModel`` whose parameter fields hold the gradients.

    Chains through the recorded dropout masks, the tanh layer, mean pooling,
    and the embedding lookup. ``E``'s gradient has ``model.E``'s shape (the
    live rows only, in training); rows that no token of the tape hits get exactly +0.0.
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
    _scatter_add_rows(dE, tape.ids, np.repeat(share, tape.lengths, axis=0))

    return EncoderModel(config=model.config, E=dE,
                        W1=dW1.astype(model.W1.dtype), b1=db1.astype(model.b1.dtype),
                        W2=dW2.astype(model.W2.dtype), b2=db2.astype(model.b2.dtype))


def embed_texts(model: EncoderModel, texts: list[str]) -> np.ndarray:
    """Evaluation-view embeddings for raw texts (tokenize + mean pool)."""
    return forward_eval(model, *tokenize_texts(texts, model.config))
