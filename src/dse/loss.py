"""Hard-negative-weighted contrastive objective and its exact gradients.

A batch of M positive pairs is laid out as n = 2M embedding rows: row i
and row i+M hold pair i's query and response. Each row a in turn serves
as the anchor; its positive is its partner row p = (a + M) mod n and its
negatives are the other 2M-2 rows. With cosine similarities s and
temperature tau, anchor a's loss and the batch loss are

    l_a = -log( e^{s_ap/tau} / (e^{s_ap/tau} + sum_j e^{alpha_aj * s_aj/tau}) )
    L   = (1/2M) sum_a l_a

where j runs over a's negatives and the hard-negative weights are

    alpha_aj = e^{s_aj/tau} / ((1/(2M-2)) sum_k e^{s_ak/tau}),

the softmax of a's negative similarities scaled to mean 1 (PairSupCon,
Zhang et al. 2021). The weight sits inside the exponent, and it tends to
2M-2 as one negative dominates the rest, so a logit can approach
(2M-2)/tau: that is why epoch-1 loss at batch 1024 reads in the thousands.

Weights are recomputed from the current embeddings every step but are
treated as constants during differentiation (stop-gradient); the
finite-difference oracle in the tests freezes them identically. All
softmax-style expressions run in 64-bit with max-subtraction, in place.

After its similarity matrix, each of ``compute_alpha`` and ``batch_loss`` runs
its n x n passes one block of rows at a time, about ``_BLOCK_BYTES`` of float64
(32 rows at n = 2048, one block at n <= 256), so a block stays in cache from
its scaling to its gradient coefficients. This keeps every byte: each pass is
elementwise or reduces along a row, and a row reduces the same way in a block
as in the whole array. The loss waits for the loop and sums the full row max,
log row sum and positive-logit vectors once, so its pairwise order is that of
the whole-array form; a running total over the blocks would add in another order.

Those row blocks, and the similarity gemm in chunks of ``_GEMM_ROWS`` rows, run on
every CPU the process may use (``os.sched_getaffinity``): ``_in_parallel`` splits
the blocks into one contiguous run per CPU, runs the first on the calling thread
and the others on a module thread pool made at the first batch of more than one
block. A batch of n <= 256 rows (the CLI default) is one block and one chunk and
starts no thread, nor does a process with one CPU. The blocks and chunks depend on
n alone, and each is computed as it would be serially, so the bytes do not depend
on the CPU count. A worker runs numpy calls on its own rows only: it never calls
this module's public functions, which a tracer may wrap and whose spans would then
interleave, and never the pool, whose nested wait would deadlock a one-worker pool.

Because alpha sits in the exponent, almost every term of the log-sum-exp
underflows. The CPU takes a slow path wherever a result or an operand is
subnormal: in exp, in the passes that turn its output into gradient
coefficients, and in a gemm. So ``batch_loss`` writes +0.0 at the logits below
``_EXP_ZERO_BELOW``, the log of the smallest normal float64, and takes exp of
the rest only: no exp writes a subnormal. The loss keeps its bytes: each row sum
holds exp(0) = 1, so it is at least 1, and a dropped term is below 2.2e-308, far
less than half an ulp of the sum. A small alpha times a small exp can still make
a subnormal coefficient, so coefficients below ``_TINY`` in magnitude read +0.0
too, and no subnormal operand reaches a gemm.

The same underflow leaves the gradient coefficients w sparse: on paper-preset
batches 0.1-0.5% of them are nonzero, and a 32-row block has a nonzero in 3-13%
of the columns. Each block records those columns. When they cover less than half
of the n x n array, ``_coefficient_product`` builds G = (w + w^T) U from them
alone, block by block: w[block, cols] U[cols] into the block's rows, and the
transpose's part w[block, cols]^T U[block] into the rows ``cols``. Otherwise
(batch 128, hard_negatives off, a short last batch) w + w^T is added in place in
``_TILE`` x ``_TILE`` tile pairs, byte-equal to a fresh ``w + w.T`` without the
strided read across the array, and multiplied by U in one gemm. The selection
reads only the coefficients. The logits overwrite the similarity array, so no
third n x n array is made.

These kernels round differently from the textbook form, a declared change of
bytes, for speed: ``sim_matrix`` multiplies each chunk of U's rows by a copy of
U^T, which numpy sends to gemm, not to the slower syrk (a chunk can round unlike
one gemm of all rows where n is above one chunk and not a multiple of 8); alpha, the logits and the positive logits are
multiplied by 1/tau, not divided by tau; each alpha row is multiplied by one
factor (n-2) / row sum; the gradient coefficients take one row scale
1 / (row_sum n tau) in place of dividing by the row sum and by n tau; the
compacted product adds in another order; and the gradient is each G_a's part
orthogonal to u_a, over ||e_a||, which saves the B * s and row-sum passes over
the n x n array. The tests hold the result within 1e-12 of each row's gradient
norm of the textbook form.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .encoder import EncoderModel, ForwardTape, backward

# Floor on a vector norm before dividing by it.
EPS_NORM = 1e-12

# log of the smallest normal float64: exp is normal at and above it, subnormal or +0.0 below.
_EXP_ZERO_BELOW = -708.3964185322641

# The smallest normal float64: gradient coefficients below it in magnitude read +0.0.
_TINY = np.finfo(np.float64).tiny

# Side of the square tiles in which ``_add_transpose`` adds w^T to w.
_TILE = 64

# Bytes of float64 rows in one block of the row-wise n x n passes: a block stays in L2 across them.
_BLOCK_BYTES = 512 * 1024

# Rows of U in one chunk of the similarity gemm.
_GEMM_ROWS = 256

# Threads that run the parts of ``_in_parallel`` besides the calling one; made on first use.
_pool: ThreadPoolExecutor | None = None


def _forget_pool() -> None:
    """A forked child has none of the parent's threads: it makes its own pool."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _in_parallel(work: Callable, parts: list) -> list:
    """``[work(p) for p in parts]``, the parts split into one contiguous run per CPU.

    The calling thread runs the first run, the pool's workers the others. ``work``
    calls numpy on its own part only: never ``_in_parallel``, whose nested wait
    deadlocks a one-worker pool, and never a module name that a tracer may wrap,
    whose spans would interleave. With one CPU or one part, no thread starts.
    """
    global _pool
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    runs = min(cpus, len(parts))
    if runs <= 1:
        return [work(p) for p in parts]
    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=cpus - 1, thread_name_prefix="dse-loss")
    edges = [len(parts) * k // runs for k in range(runs + 1)]
    run = lambda lo, hi: [work(p) for p in parts[lo:hi]]
    futures = [_pool.submit(run, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        first = run(edges[0], edges[1])
    finally:
        wait(futures)  # no worker still writes to the caller's arrays when this returns or raises
    return first + [r for f in futures for r in f.result()]


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.05
    hard_negatives: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError(f"temperature must be finite and positive, got {self.temperature}")


@dataclass
class TrainBatch:
    """2M embedding rows (train view): row i pairs with row i+M."""

    embeddings: np.ndarray

    def __post_init__(self) -> None:
        n = self.embeddings.shape[0]
        if n % 2 != 0 or n < 4:
            raise ValueError(f"batch needs an even row count >= 4, got {n}")

    @property
    def M(self) -> int:
        return self.embeddings.shape[0] // 2


def cosines(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Cosine similarity over the last axis, broadcast over the others. It equals the per-pair
    oracle ``cosine_sim`` in ``tests/oracles.py`` bit for bit: the same dot kernel and rounding
    steps (a normalized matmul rounds differently)."""
    na = np.maximum(np.sqrt(np.vecdot(A, A)).astype(np.float64), EPS_NORM)
    nb = np.maximum(np.sqrt(np.vecdot(B, B)).astype(np.float64), EPS_NORM)
    dots = np.vecdot(A, B)
    return np.clip(dots / (na * nb).astype(dots.dtype), -1.0, 1.0)


def sim_matrix(embeddings: np.ndarray) -> np.ndarray:
    """All pairwise cosine similarities, 64-bit, clamped to [-1, 1]."""
    X = embeddings.astype(np.float64)
    norms = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), EPS_NORM)
    U = X / norms
    UT = U.T.copy()  # gemm: numpy sends U @ U.T to syrk, which is slower
    n = U.shape[0]
    S = np.empty((n, n))

    def chunk(rows: slice) -> None:
        part = np.matmul(U[rows], UT, out=S[rows])
        np.clip(part, -1.0, 1.0, out=part)

    _in_parallel(chunk, [slice(s, s + _GEMM_ROWS) for s in range(0, n, _GEMM_ROWS)])
    return S


def _add_transpose(w: np.ndarray) -> np.ndarray:
    """Overwrite the square ``w`` with ``w + w.T`` and return it, tile pair by tile pair.

    Equal to ``w + w.T`` byte for byte (each entry is one add, and x + y == y + x)
    without the fresh n x n array and the strided read across all of it.
    """
    n = w.shape[0]
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            a = w[i : i + _TILE, j : j + _TILE]
            b = w[j : j + _TILE, i : i + _TILE]
            s = a + b.T
            a[...] = s
            b[...] = s.T
    return w


def _partners(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, partners): the index of each of the n rows and of its positive."""
    rows = np.arange(n)
    return rows, (rows + n // 2) % n


def _row_blocks(n: int) -> list[tuple[slice, tuple, tuple]]:
    """The row blocks of an n x n float64 array, each about ``_BLOCK_BYTES``, as
    (rows, diagonal, partner): the slice of the block's rows, and the index into the
    block of their diagonal entries and of their partner entries."""
    rows, partners = _partners(n)
    step = max(1, _BLOCK_BYTES // (8 * n))
    blocks = []
    for s in range(0, n, step):
        e = min(s + step, n)
        local = rows[: e - s]
        blocks.append((slice(s, e), (local, rows[s:e]), (local, partners[s:e])))
    return blocks


def compute_alpha(batch: TrainBatch, cfg: LossConfig) -> np.ndarray:
    """Per-anchor negative weights, as a 2M x 2M array.

    Entry [a, j] holds anchor a's weight for negative j; non-negative
    positions (the diagonal and each anchor's partner) are zero. By
    construction each row's weights average to exactly 1 over the 2M-2
    negatives. With hard_negatives off, every weight is 1.
    """
    n = batch.embeddings.shape[0]
    if not cfg.hard_negatives:
        rows, partners = _partners(n)
        alpha = np.ones((n, n))
        alpha[rows, rows] = 0.0
        alpha[rows, partners] = 0.0
        return alpha
    alpha = sim_matrix(batch.embeddings)
    inv_tau = 1.0 / cfg.temperature

    def weigh(rows: tuple[slice, tuple, tuple]) -> None:
        block, diag, pos = rows
        a = alpha[block]
        a *= inv_tau
        a[diag] = -np.inf
        a[pos] = -np.inf
        a -= a.max(axis=1, keepdims=True)
        np.exp(a, out=a)
        a *= (n - 2) / a.sum(axis=1, keepdims=True)

    _in_parallel(weigh, _row_blocks(n))
    return alpha


def _coefficient_product(w: np.ndarray, U: np.ndarray, occupied: list[tuple[slice, np.ndarray]]) -> np.ndarray:
    """G = (w + w^T) U for the n x n coefficients ``w``, given each row block and its occupied columns.

    When the blocks' occupied columns cover less than half of w, G is built block by block
    from those columns alone, as ``w[block, cols] @ U[cols]`` plus its transpose's part
    ``w[block, cols]^T @ U[block]`` into the rows ``cols``. Otherwise w is overwritten
    with w + w^T and multiplied by U in one gemm.
    """
    n = w.shape[0]
    if 2 * sum((b.stop - b.start) * len(cols) for b, cols in occupied) >= n * n:
        return _add_transpose(w) @ U
    G = np.zeros_like(U)
    for block, cols in occupied:
        wc = w[block, cols]
        G[block] += wc @ U[cols]
        G[cols] += wc.T @ U[block]
    return G


def batch_loss(
    batch: TrainBatch,
    cfg: LossConfig,
    alphas: np.ndarray | None = None,
    with_grad: bool = False,
) -> tuple[float, np.ndarray | None]:
    """Symmetrized batch loss (1/2M) sum_a l_a over every anchor row.

    Returns (loss, dL/d(embeddings)) when with_grad is set; the gradient
    treats the negative weights as constants. Pass precomputed ``alphas``
    to freeze them externally (the finite-difference oracle does).
    Raises FloatingPointError when the loss is not finite.
    """
    n = batch.embeddings.shape[0]
    if alphas is not None and alphas.shape != (n, n):
        raise ValueError(f"alphas has shape {alphas.shape}; a batch of {n} rows needs {(n, n)}")
    tau = cfg.temperature
    inv_tau = 1.0 / tau
    rows, partners = _partners(n)
    sims = sim_matrix(batch.embeddings)
    if alphas is None:
        alphas = compute_alpha(batch, cfg)

    # Row a of w (a block of the sims array) holds anchor a's logits: alpha * s / tau
    # at the negatives, s / tau at the positive and -inf at a itself. The log-sum-exp
    # then overwrites it with exp(logit - row max); the mask must be ``w < limit``,
    # so that a NaN is still sent through exp and makes the loss non-finite.
    # With the gradient, w then becomes dL/d sims[a, j], in place: the softmax share
    # e / row_sum of term j, times alpha_aj at a negative and minus 1 at the positive,
    # over n tau for the mean, which is one row scale 1 / (row_sum n tau). Coefficients
    # below ``_TINY`` in magnitude read +0.0, and the block's occupied columns are kept.
    z_pos = sims[rows, partners] * inv_tau
    row_max, row_sum = np.empty(n), np.empty(n)

    def logits(rows: tuple[slice, tuple, tuple]) -> tuple[slice, np.ndarray] | None:
        block, diag, pos = rows
        w = np.multiply(alphas[block], sims[block], out=sims[block])
        w *= inv_tau
        w[pos] = z_pos[block]
        w[diag] = -np.inf
        w.max(axis=1, out=row_max[block])
        w -= row_max[block, None]
        dead = w < _EXP_ZERO_BELOW
        np.exp(w, out=w, where=~dead)
        np.copyto(w, 0.0, where=dead)
        w.sum(axis=1, out=row_sum[block])
        if not with_grad:
            return None
        scale = 1.0 / (row_sum[block] * (n * tau))
        q_pos = (w[pos] - row_sum[block]) * scale
        w *= alphas[block]
        w *= scale[:, None]
        w[pos] = q_pos
        small = np.abs(w) < _TINY
        np.copyto(w, 0.0, where=small)
        return block, np.flatnonzero(~small.all(axis=0))

    occupied = _in_parallel(logits, _row_blocks(n))
    loss = float((row_max + np.log(row_sum) - z_pos).sum()) / n
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite batch loss")
    if not with_grad:
        return loss, None

    del alphas  # frees a computed weight array: each n x n array is 32 MiB at batch 1024
    # Chain through cosine: with unit rows u_a, s_ab = u_a . u_b and
    # d s_ab / d e_a = (u_b - s_ab u_a) / ||e_a||: G_a's part orthogonal to u_a.
    X = batch.embeddings.astype(np.float64)
    norms = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), EPS_NORM)
    U = X / norms
    G = _coefficient_product(sims, U, occupied)
    grad = (G - np.vecdot(U, G)[:, None] * U) / norms
    return loss, grad


def batch_loss_and_grad(
    model: EncoderModel,
    batch: TrainBatch,
    cfg: LossConfig,
    tape: ForwardTape,
) -> tuple[float, EncoderModel]:
    """Batch loss plus exact parameter gradients via the encoder's backward pass.

    Row i of the batch must be row i of ``tape``'s forward pass. The gradients
    come back as an ``EncoderModel`` whose parameter fields hold them.
    """
    loss, grad_emb = batch_loss(batch, cfg, with_grad=True)
    return loss, backward(model, tape, grad_emb.astype(model.E.dtype))
