"""Reference implementations that the tests check the library against.

Each is the plain form of a computation the library does another way:
``cosine_sim`` is one pair at a time, ``ntxent_reference`` is a per-anchor
loop, ``_negative_mask`` spells out which entries are negatives, and
``replay_forward`` reruns the train view with a tape's frozen dropout masks,
and ``flat`` lays out per-text id lists as the encoder takes them.
None of them runs outside the tests.
"""

from __future__ import annotations

import numpy as np

from dse.encoder import EncoderModel, ForwardTape, _head, forward_eval
from dse.loss import EPS_NORM, LossConfig, TrainBatch, _partners


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity with a zero-norm guard; clamped to [-1, 1]."""
    nu = max(float(np.linalg.norm(u)), EPS_NORM)
    nv = max(float(np.linalg.norm(v)), EPS_NORM)
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _negative_mask(n: int) -> np.ndarray:
    """mask[a, j] is True iff j is a negative of anchor a (not a, not a's partner)."""
    mask = ~np.eye(n, dtype=bool)
    mask[_partners(n)] = False
    return mask


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


def replay_forward(model: EncoderModel, tape: ForwardTape) -> np.ndarray:
    """Recompute the TRAIN-view output with the tape's frozen dropout masks.

    Used by the finite-difference oracle: perturbed parameters, same masks.
    """
    return _head(model, forward_eval(model, tape.ids, tape.lengths), tape.drop1, tape.drop2)[1]


def flat(seqs) -> tuple[np.ndarray, np.ndarray]:
    """The flat (ids, lengths) layout of per-text token id sequences."""
    ids = np.array([tid for seq in seqs for tid in seq], dtype=np.intp)
    return ids, np.array([len(seq) for seq in seqs], dtype=np.intp)
