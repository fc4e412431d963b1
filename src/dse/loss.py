"""Hard-negative-weighted contrastive objective and its exact gradients.

A batch of M positive pairs is laid out as 2M embedding rows: row i and
row i+M hold pair i's query and response. Each row in turn serves as the
anchor; its positive is its partner row and its negatives are the other
2M-2 rows. Negatives already close to the anchor get amplified influence
through per-anchor multiplicative weights (their temperature-scaled
similarity softmax, normalized to mean 1 over the negative set).

Weights are recomputed from the current embeddings every step but are
treated as constants during differentiation (stop-gradient); the
finite-difference oracle in the tests freezes them identically. All
softmax-style expressions run in 64-bit with max-subtraction.
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
    positive_in_denominator: bool = True

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

    def partner(self, a: int) -> int:
        return (a + self.M) % (2 * self.M)


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity with a zero-norm guard; clamped to [-1, 1]."""
    nu = max(float(np.linalg.norm(u)), EPS_NORM)
    nv = max(float(np.linalg.norm(v)), EPS_NORM)
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def sim_matrix(embeddings: np.ndarray) -> np.ndarray:
    """All pairwise cosine similarities, 64-bit, clamped to [-1, 1]."""
    X = embeddings.astype(np.float64)
    norms = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), EPS_NORM)
    U = X / norms
    return np.clip(U @ U.T, -1.0, 1.0)


def _negative_mask(n: int) -> np.ndarray:
    """mask[a, j] is True iff j is a negative of anchor a (not a, not a's partner)."""
    M = n // 2
    mask = ~np.eye(n, dtype=bool)
    idx = np.arange(n)
    mask[idx, (idx + M) % n] = False
    return mask


def compute_alpha(batch: TrainBatch, cfg: LossConfig) -> np.ndarray:
    """Per-anchor negative weights, as a 2M x 2M array.

    Entry [a, j] holds anchor a's weight for negative j; non-negative
    positions (the diagonal and each anchor's partner) are zero. By
    construction each row's weights average to exactly 1 over the 2M-2
    negatives. With hard_negatives off, every weight is 1.
    """
    n = batch.embeddings.shape[0]
    mask = _negative_mask(n)
    if not cfg.hard_negatives:
        return np.where(mask, 1.0, 0.0)
    z = sim_matrix(batch.embeddings) / cfg.temperature
    alpha = np.zeros((n, n), dtype=np.float64)
    for a in range(n):
        zn = z[a, mask[a]]
        shifted = np.exp(zn - zn.max())
        alpha[a, mask[a]] = shifted / shifted.mean()
    return alpha


def _logsumexp(values: np.ndarray) -> float:
    m = values.max()
    return float(m + np.log(np.exp(values - m).sum()))


def anchor_loss(a: int, batch: TrainBatch, alphas: np.ndarray, cfg: LossConfig) -> float:
    """Contrastive loss term for one anchor row, in log-sum-exp form."""
    n = batch.embeddings.shape[0]
    sims = sim_matrix(batch.embeddings)
    p = batch.partner(a)
    neg = _negative_mask(n)[a]
    z_pos = sims[a, p] / cfg.temperature
    weighted = alphas[a, neg] * sims[a, neg] / cfg.temperature
    if cfg.positive_in_denominator:
        loss = _logsumexp(np.append(weighted, z_pos)) - z_pos
    else:
        loss = _logsumexp(weighted) - z_pos
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss for anchor {a}")
    return loss


def batch_loss(
    batch: TrainBatch,
    cfg: LossConfig,
    alphas: np.ndarray | None = None,
    with_grad: bool = False,
) -> tuple[float, np.ndarray | None]:
    """Symmetrized batch loss (1/2M) sum_i (query-anchored + response-anchored).

    Returns (loss, dL/d(embeddings)) when with_grad is set; the gradient
    treats the negative weights as constants. Pass precomputed ``alphas``
    to freeze them externally (the finite-difference oracle does).
    """
    n = batch.embeddings.shape[0]
    tau = cfg.temperature
    sims = sim_matrix(batch.embeddings)
    mask = _negative_mask(n)
    if alphas is None:
        alphas = compute_alpha(batch, cfg)

    total = 0.0
    coeff = np.zeros((n, n), dtype=np.float64)  # coeff[a, j] = dL/d sims[a, j]
    for a in range(n):
        p = batch.partner(a)
        neg = mask[a]
        z_pos = sims[a, p] / tau
        weighted = alphas[a, neg] * sims[a, neg] / tau
        if cfg.positive_in_denominator:
            terms = np.append(weighted, z_pos)
            lse = _logsumexp(terms)
            total += lse - z_pos
            if with_grad:
                q = np.exp(terms - lse)
                coeff[a, neg] += alphas[a, neg] * q[:-1] / tau
                coeff[a, p] += (q[-1] - 1.0) / tau
        else:
            lse = _logsumexp(weighted)
            total += lse - z_pos
            if with_grad:
                q = np.exp(weighted - lse)
                coeff[a, neg] += alphas[a, neg] * q / tau
                coeff[a, p] += -1.0 / tau

    loss = total / n
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite batch loss")
    if not with_grad:
        return loss, None

    coeff /= n
    # Chain through cosine: with unit rows u_a, s_ab = u_a . u_b and
    # d s_ab / d e_a = (u_b - s_ab u_a) / ||e_a||.
    X = batch.embeddings.astype(np.float64)
    norms = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), EPS_NORM)
    U = X / norms
    B = coeff + coeff.T
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
    combined = GradientSet(
        E=g_q.E + g_r.E,
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
