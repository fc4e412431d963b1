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
softmax-style expressions run in 64-bit with max-subtraction, over whole
n x n arrays at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderModel, ForwardTape, GradientSet, backward

# Floor on a vector norm before dividing by it.
EPS_NORM = 1e-12


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.05
    hard_negatives: bool = True

    def __post_init__(self) -> None:
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


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


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity with a zero-norm guard; clamped to [-1, 1]."""
    nu = max(float(np.linalg.norm(u)), EPS_NORM)
    nv = max(float(np.linalg.norm(v)), EPS_NORM)
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def cosines(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``cosine_sim`` over the last axis, broadcast over the others, and equal to it bit for bit:
    the same dot kernel and rounding steps (a normalized matmul rounds differently)."""
    na = np.maximum(np.sqrt(np.vecdot(A, A)).astype(np.float64), EPS_NORM)
    nb = np.maximum(np.sqrt(np.vecdot(B, B)).astype(np.float64), EPS_NORM)
    dots = np.vecdot(A, B)
    return np.clip(dots / (na * nb).astype(dots.dtype), -1.0, 1.0)


def sim_matrix(embeddings: np.ndarray) -> np.ndarray:
    """All pairwise cosine similarities, 64-bit, clamped to [-1, 1]."""
    X = embeddings.astype(np.float64)
    norms = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), EPS_NORM)
    U = X / norms
    return np.clip(U @ U.T, -1.0, 1.0)


def _partners(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, partners): the index of each of the n rows and of its positive."""
    rows = np.arange(n)
    return rows, (rows + n // 2) % n


def _negative_mask(n: int) -> np.ndarray:
    """mask[a, j] is True iff j is a negative of anchor a (not a, not a's partner)."""
    mask = ~np.eye(n, dtype=bool)
    mask[_partners(n)] = False
    return mask


def compute_alpha(batch: TrainBatch, cfg: LossConfig) -> np.ndarray:
    """Per-anchor negative weights, as a 2M x 2M array.

    Entry [a, j] holds anchor a's weight for negative j; non-negative
    positions (the diagonal and each anchor's partner) are zero. By
    construction each row's weights average to exactly 1 over the 2M-2
    negatives. With hard_negatives off, every weight is 1.
    """
    n = batch.embeddings.shape[0]
    if not cfg.hard_negatives:
        return _negative_mask(n).astype(np.float64)
    rows, partners = _partners(n)
    alpha = sim_matrix(batch.embeddings)
    alpha /= cfg.temperature
    alpha[rows, rows] = -np.inf
    alpha[rows, partners] = -np.inf
    alpha -= alpha.max(axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=1, keepdims=True) / (n - 2)
    return alpha


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
    tau = cfg.temperature
    rows, partners = _partners(n)
    sims = sim_matrix(batch.embeddings)
    if alphas is None:
        alphas = compute_alpha(batch, cfg)

    # Row a of w holds anchor a's logits: alpha * s / tau at the negatives,
    # s / tau at the positive and -inf at a itself. The log-sum-exp then
    # overwrites it with exp(logit - row max).
    z_pos = sims[rows, partners] / tau
    w = alphas * sims
    w /= tau
    w[rows, partners] = z_pos
    w[rows, rows] = -np.inf
    row_max = w.max(axis=1)
    w -= row_max[:, None]
    np.exp(w, out=w)
    row_sum = w.sum(axis=1)
    loss = float((row_max + np.log(row_sum) - z_pos).sum()) / n
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite batch loss")
    if not with_grad:
        return loss, None

    # dL/d sims[a, j], in place: the softmax share of term j, times alpha_aj
    # at a negative and minus 1 at the positive, over n tau for the mean.
    w /= row_sum[:, None]
    q_pos = w[rows, partners] - 1.0
    w *= alphas
    w[rows, partners] = q_pos
    w /= n * tau
    del alphas  # frees a computed weight array: each n x n array is 32 MiB at batch 1024
    # Chain through cosine: with unit rows u_a, s_ab = u_a . u_b and
    # d s_ab / d e_a = (u_b - s_ab u_a) / ||e_a||.
    X = batch.embeddings.astype(np.float64)
    norms = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), EPS_NORM)
    U = X / norms
    B = w + w.T
    del w
    grad = (B @ U - (B * sims).sum(axis=1, keepdims=True) * U) / norms
    return loss, grad


def batch_loss_and_grad(
    model: EncoderModel,
    batch: TrainBatch,
    cfg: LossConfig,
    tape_q: ForwardTape,
    tape_r: ForwardTape,
) -> tuple[float, GradientSet]:
    """Batch loss plus exact parameter gradients via the encoder's backward pass.

    Rows 0..M-1 of the batch must come from tape_q's forward, rows M..2M-1
    from tape_r's.
    """
    M = batch.M
    loss, grad_emb = batch_loss(batch, cfg, with_grad=True)
    dtype = model.E.dtype
    g_q = backward(model, tape_q, grad_emb[:M].astype(dtype))
    g_r = backward(model, tape_r, grad_emb[M:].astype(dtype))
    # Off tape_r's rows g_r.E is +0.0, and g_q.E holds no -0.0 (np.add.at onto
    # +0.0 cannot make one), so the dense sum would leave those rows' bits as they are.
    rows = np.unique(tape_r.ids)
    g_q.E[rows] += g_r.E[rows]
    combined = GradientSet(
        E=g_q.E,
        W1=g_q.W1 + g_r.W1,
        b1=g_q.b1 + g_r.b1,
        W2=g_q.W2 + g_r.W2,
        b2=g_q.b2 + g_r.b2,
    )
    return loss, combined


def ntxent_reference(batch: TrainBatch, cfg: LossConfig) -> float:
    """Independently coded symmetric NT-Xent over the same 2M rows.

    Deliberately written as a plain per-anchor loop with no weight
    machinery; equals batch_loss with hard_negatives off. Serves as a
    cross-check, not a fast path.
    """
    import math

    X = batch.embeddings
    n = X.shape[0]
    M = batch.M
    total = 0.0
    for a in range(n):
        p = (a + M) % n
        z = [cosine_sim(X[a], X[j]) / cfg.temperature for j in range(n) if j != a]
        z_pos = cosine_sim(X[a], X[p]) / cfg.temperature
        m = max(z)
        denom = sum(math.exp(v - m) for v in z)
        total += -(z_pos - m - math.log(denom))
    return total / n
