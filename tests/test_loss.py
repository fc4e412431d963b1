import hashlib
import itertools
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dse.loss
from dse.loss import (
    LossConfig,
    TrainBatch,
    batch_loss,
    compute_alpha,
    cosines,
    sim_matrix,
    _BLOCK_BYTES,
    _EXP_ZERO_BELOW,
    _GEMM_ROWS,
    _add_transpose,
    _coefficient_product,
    _partners,
    _row_blocks,
)
from oracles import _negative_mask, cosine_sim, ntxent_reference


def scalar_oracle(rows, tau, hard_negatives=True):
    """Direct transcription of the weighted contrastive objective with plain
    python floats: per-anchor weights as defined, per-anchor loss, symmetric
    average. Shares no code with the implementation under test."""
    n = len(rows)
    M = n // 2

    def cos(u, v):
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(x * x for x in v))
        return sum(a * b for a, b in zip(u, v)) / (nu * nv)

    def negatives(a):
        p = (a + M) % n
        return [j for j in range(n) if j not in (a, p)]

    def alpha(a, j):
        if not hard_negatives:
            return 1.0
        num = math.exp(cos(rows[a], rows[j]) / tau)
        den = sum(math.exp(cos(rows[a], rows[k]) / tau) for k in negatives(a)) / (n - 2)
        return num / den

    def ell(a):
        p = (a + M) % n
        pos = math.exp(cos(rows[a], rows[p]) / tau)
        den = pos + sum(math.exp(alpha(a, j) * cos(rows[a], rows[j]) / tau) for j in negatives(a))
        return -math.log(pos / den)

    return sum(ell(a) for a in range(n)) / n


def unit_rows(embeddings):
    X = embeddings.astype(np.float64)
    return X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)


def reference_sim_matrix(embeddings):
    """U U^T with the declared kernel: one gemm per ``_GEMM_ROWS`` rows of U, clipped to [-1, 1]."""
    U = unit_rows(embeddings)
    UT = U.T.copy()
    S = np.concatenate([U[s : s + _GEMM_ROWS] @ UT for s in range(0, len(U), _GEMM_ROWS)])
    return np.clip(S, -1.0, 1.0)


def textbook_alpha(embeddings, cfg):
    """alpha as the textbook writes it: divide by tau, and divide each row by its mean."""
    n = embeddings.shape[0]
    if not cfg.hard_negatives:
        return _negative_mask(n).astype(np.float64)
    rows, partners = _partners(n)
    alpha = reference_sim_matrix(embeddings)
    alpha /= cfg.temperature
    alpha[rows, rows] = -np.inf
    alpha[rows, partners] = -np.inf
    alpha -= alpha.max(axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=1, keepdims=True) / (n - 2)
    return alpha


def textbook_loss_and_grad(embeddings, cfg, alphas=None):
    """The loss and gradient as the textbook writes them: divisions by tau, by the row sum
    and by n tau, exp of every logit, and one gemm of a fresh ``w + w.T``."""
    n = embeddings.shape[0]
    tau = cfg.temperature
    rows, partners = _partners(n)
    sims = reference_sim_matrix(embeddings)
    if alphas is None:
        alphas = textbook_alpha(embeddings, cfg)
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
    w /= row_sum[:, None]
    q_pos = w[rows, partners] - 1.0
    w *= alphas
    w[rows, partners] = q_pos
    w /= n * tau
    X = embeddings.astype(np.float64)
    norms = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    U = X / norms
    G = (w + w.T) @ U
    grad = (G - np.vecdot(U, G)[:, None] * U) / norms
    return loss, grad


def reference_alpha(embeddings, cfg):
    """``textbook_alpha`` with the declared kernels: times 1/tau, and each row times (n-2) / its sum."""
    n = embeddings.shape[0]
    if not cfg.hard_negatives:
        return _negative_mask(n).astype(np.float64)
    rows, partners = _partners(n)
    alpha = reference_sim_matrix(embeddings)
    alpha *= 1.0 / cfg.temperature
    alpha[rows, rows] = -np.inf
    alpha[rows, partners] = -np.inf
    alpha -= alpha.max(axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha *= (n - 2) / alpha.sum(axis=1, keepdims=True)
    return alpha


def reference_loss_and_grad(embeddings, cfg, alphas=None):
    """The whole-array loss and gradient with the declared kernels; ``batch_loss`` must match
    it byte for byte. The loss takes exp of every logit. The coefficients zero the terms
    whose logit is below ``_EXP_ZERO_BELOW``, scale each row by 1 / (row_sum n tau) and
    read +0.0 below the smallest normal float64. G = (w + w.T) U is one gemm of a fresh
    ``w + w.T``, or, when the row blocks' nonzero columns cover less than half of w, the
    sum of each block's products with those columns."""
    n = embeddings.shape[0]
    tau = cfg.temperature
    rows, partners = _partners(n)
    sims = reference_sim_matrix(embeddings)
    if alphas is None:
        alphas = reference_alpha(embeddings, cfg)
    z_pos = sims[rows, partners] * (1.0 / tau)
    w = alphas * sims
    w *= 1.0 / tau
    w[rows, partners] = z_pos
    w[rows, rows] = -np.inf
    row_max = w.max(axis=1)
    w -= row_max[:, None]
    e = np.exp(w)
    row_sum = e.sum(axis=1)
    loss = float((row_max + np.log(row_sum) - z_pos).sum()) / n
    e[w < _EXP_ZERO_BELOW] = 0.0
    scale = 1.0 / (row_sum * (n * tau))
    q_pos = (e[rows, partners] - row_sum) * scale
    e *= alphas
    e *= scale[:, None]
    e[rows, partners] = q_pos
    e[np.abs(e) < np.finfo(np.float64).tiny] = 0.0
    X = embeddings.astype(np.float64)
    norms = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    U = X / norms
    occupied = [(b, np.flatnonzero(e[b].any(axis=0))) for b, _, _ in _row_blocks(n)]
    if 2 * sum((b.stop - b.start) * len(cols) for b, cols in occupied) < n * n:
        G = np.zeros_like(U)
        for b, cols in occupied:
            wc = e[b, cols]
            G[b] += wc @ U[cols]
            G[cols] += wc.T @ U[b]
    else:
        G = (e + e.T) @ U
    grad = (G - np.vecdot(U, G)[:, None] * U) / norms
    return loss, grad


def exp_inputs(embeddings, cfg):
    """The logits minus their row max, as the log-sum-exp takes them."""
    n = embeddings.shape[0]
    rows, partners = _partners(n)
    sims = reference_sim_matrix(embeddings)
    w = reference_alpha(embeddings, cfg) * sims / cfg.temperature
    w[rows, partners] = sims[rows, partners] / cfg.temperature
    w[rows, rows] = -np.inf
    return w - w.max(axis=1, keepdims=True)


# The first even n from 4 isqrt(_BLOCK_BYTES / 8) + 6 up whose last row block is ragged, so it
# spans about 16 blocks: at 512 KiB, 1030 rows in 16 blocks of 63 and one of 22.
MULTI_BLOCK_N = next(n for n in itertools.count(4 * math.isqrt(_BLOCK_BYTES // 8) + 6, 2)
                     if n % _row_blocks(n)[0][0].stop)


def count_dense_products(monkeypatch):
    """Patch ``dse.loss._add_transpose`` to log its calls and return the log. A ``batch_loss``
    gradient calls it once on the dense side of the gradient product, never on the compacted side."""
    calls = []

    def counted(w):
        calls.append(w.shape)
        return _add_transpose(w)

    monkeypatch.setattr("dse.loss._add_transpose", counted)
    return calls


def peaked_rows(rng, M, dim, noise=1e-3):
    """Rows in twins (2k, 2k+1), near-identical at the default noise, so each anchor's
    twin negative takes alpha near 2M-2 and a logit near (2M-2)/tau."""
    rows = np.repeat(rng.normal(size=(M, dim)), 2, axis=0) + noise * rng.normal(size=(2 * M, dim))
    return rows.astype(np.float32)


def random_batch(rng, M=3, dim=5, scale=1.0):
    return TrainBatch(rng.normal(size=(2 * M, dim)) * scale)


ORTHO_M2 = TrainBatch(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
WORKED_VALUE = -math.log(math.e / (math.e + 2))  # ~0.5514


class TestCosine:
    def test_self_similarity(self):
        x = np.array([1.0, 2.0, -3.0])
        assert cosine_sim(x, x) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_scale_invariance(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([3.0, 0.0])) == pytest.approx(1.0)

    def test_zero_vector_guard(self):
        assert cosine_sim(np.zeros(3), np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cosines_equal_cosine_sim_bit_for_bit(self, dtype):
        rng = np.random.default_rng(3)
        A = (rng.normal(size=(12, 64)) * rng.lognormal(sigma=2.0, size=(12, 1))).astype(dtype)
        B = (rng.normal(size=(9, 64)) * rng.lognormal(sigma=2.0, size=(9, 1))).astype(dtype)
        A[0] = 0.0                 # zero row
        A[1] = 7.0 * B[2]          # parallel
        A[2] = -0.5 * B[3]         # anti-parallel
        A[3] = B[4]                # identical
        grid = cosines(A[:, None], B[None])
        aligned = cosines(A[:9], B)
        assert grid.dtype == dtype and grid.shape == (12, 9)
        for i in range(12):
            for j in range(9):
                assert grid[i, j] == cosine_sim(A[i], B[j]), (i, j)
        assert aligned.tolist() == [cosine_sim(a, b) for a, b in zip(A, B)]


class TestAlpha:
    def test_orthogonal_all_one(self):
        rows = np.eye(4)
        alphas = compute_alpha(TrainBatch(rows), LossConfig(temperature=1.0))
        mask = _negative_mask(4)
        assert np.allclose(alphas[mask], 1.0)

    def test_disabled_all_one(self):
        # the whole array: 1.0 at each negative, 0.0 on the diagonal and at each partner
        rng = np.random.default_rng(0)
        for n in (4, 6, 130):
            alphas = compute_alpha(random_batch(rng, M=n // 2), LossConfig(hard_negatives=False))
            want = _negative_mask(n).astype(np.float64)
            assert alphas.dtype == want.dtype and alphas.tobytes() == want.tobytes(), n
            rows, partners = _partners(n)
            assert np.all(alphas[rows, rows] == 0.0) and np.all(alphas[rows, partners] == 0.0), n

    def test_m2_orthogonal_example(self):
        alphas = compute_alpha(ORTHO_M2, LossConfig(temperature=1.0))
        # anchor 0's negatives are rows 1 and 3, both with similarity 0
        assert alphas[0, 1] == pytest.approx(1.0)
        assert alphas[0, 3] == pytest.approx(1.0)

    def test_mean_identity_100_random_batches(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            M = int(rng.integers(2, 6))
            b = random_batch(rng, M=M, dim=int(rng.integers(2, 8)))
            alphas = compute_alpha(b, LossConfig(temperature=float(rng.uniform(0.05, 1.0))))
            mask = _negative_mask(2 * M)
            for a in range(2 * M):
                assert abs(alphas[a, mask[a]].mean() - 1.0) < 1e-6

    def test_matches_scalar_definition(self):
        rng = np.random.default_rng(7)
        b = random_batch(rng, M=2, dim=4)
        tau = 0.5
        alphas = compute_alpha(b, LossConfig(temperature=tau))
        rows = [list(map(float, r)) for r in b.embeddings]
        for a in range(4):
            for j in range(4):
                if _negative_mask(4)[a, j]:
                    num = math.exp(cosine_sim(b.embeddings[a], b.embeddings[j]) / tau)
                    den = sum(
                        math.exp(cosine_sim(b.embeddings[a], b.embeddings[k]) / tau)
                        for k in range(4) if _negative_mask(4)[a, k]
                    ) / 2
                    assert alphas[a, j] == pytest.approx(num / den, rel=1e-9)


class TestAnchorLoss:
    def test_worked_value(self):
        alphas = compute_alpha(ORTHO_M2, LossConfig(temperature=1.0))
        got = batch_loss(ORTHO_M2, LossConfig(temperature=1.0), alphas=alphas)[0]
        assert got == pytest.approx(WORKED_VALUE, abs=1e-12)

    def test_limit_towards_zero(self):
        # positive almost aligned, negatives almost anti-aligned
        rows = np.array([
            [1.0, 1e-4], [-1.0, 1e-4], [1.0, -1e-4], [-1.0, -1e-4],
        ])
        b = TrainBatch(rows)
        cfg = LossConfig(temperature=0.05)
        alphas = compute_alpha(b, cfg)
        assert batch_loss(b, cfg, alphas=alphas)[0] < 1e-6

    def test_uniform_similarities(self):
        # all rows identical: every similarity 1, alpha 1, loss log(2M-1)
        rows = np.tile(np.array([1.0, 2.0]), (6, 1))
        b = TrainBatch(rows)
        cfg = LossConfig(temperature=0.7)
        alphas = compute_alpha(b, cfg)
        assert batch_loss(b, cfg, alphas=alphas)[0] == pytest.approx(math.log(5))


class TestBatchLoss:
    def test_worked_value(self):
        loss, _ = batch_loss(ORTHO_M2, LossConfig(temperature=1.0))
        assert loss == pytest.approx(WORKED_VALUE, abs=1e-4)
        assert loss == pytest.approx(scalar_oracle([r.tolist() for r in ORTHO_M2.embeddings], 1.0))

    def test_matches_scalar_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = int(rng.integers(2, 5))
            b = random_batch(rng, M=M)
            tau = float(rng.uniform(0.2, 1.0))
            for hard in (True, False):
                cfg = LossConfig(temperature=tau, hard_negatives=hard)
                got, _ = batch_loss(b, cfg)
                want = scalar_oracle([r.tolist() for r in b.embeddings], tau, hard)
                assert got == pytest.approx(want, rel=1e-9)

    def test_row_rescale_invariance(self):
        rng = np.random.default_rng(4)
        b = random_batch(rng)
        cfg = LossConfig()
        base, _ = batch_loss(b, cfg)
        scaled = b.embeddings.copy()
        scaled[2] *= 17.5
        got, _ = batch_loss(TrainBatch(scaled), cfg)
        assert abs(got - base) < 1e-6

    def test_pair_permutation_invariance(self):
        rng = np.random.default_rng(5)
        M = 4
        b = random_batch(rng, M=M)
        cfg = LossConfig()
        base, _ = batch_loss(b, cfg)
        perm = rng.permutation(M)
        rows = np.vstack([b.embeddings[:M][perm], b.embeddings[M:][perm]])
        got, _ = batch_loss(TrainBatch(rows), cfg)
        assert abs(got - base) < 1e-6

    def test_query_response_swap_invariance(self):
        rng = np.random.default_rng(6)
        M = 3
        b = random_batch(rng, M=M)
        cfg = LossConfig()
        base, _ = batch_loss(b, cfg)
        swapped = np.vstack([b.embeddings[M:], b.embeddings[:M]])
        got, _ = batch_loss(TrainBatch(swapped), cfg)
        assert abs(got - base) < 1e-6

    def test_nonnegative_with_positive_in_denominator(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            b = random_batch(rng, M=int(rng.integers(2, 5)))
            loss, _ = batch_loss(b, LossConfig())
            assert loss >= 0.0

    def test_nan_row_raises(self):
        rng = np.random.default_rng(12)
        rows = random_batch(rng).embeddings
        rows[1] = np.nan
        with pytest.raises(FloatingPointError):
            batch_loss(TrainBatch(rows), LossConfig())

    def test_small_batch_rejected(self):
        with pytest.raises(ValueError):
            TrainBatch(np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(6,), (1, 6), (6, 1)])
    def test_misshaped_frozen_alphas_rejected(self, shape):
        # each of these would broadcast across the rows of the 6 x 6 logits
        b = random_batch(np.random.default_rng(13))
        with pytest.raises(ValueError, match=rf"{re.escape(str(shape))}.*\(6, 6\)"):
            batch_loss(b, LossConfig(), alphas=np.ones(shape), with_grad=True)

    @staticmethod
    def assert_gradient_matches_fd(b, cfg, coords):
        alphas = compute_alpha(b, cfg)
        _, grad = batch_loss(b, cfg, alphas=alphas, with_grad=True)
        h = 1e-6
        X = b.embeddings
        for i, j in coords:
            Xp, Xm = X.copy(), X.copy()
            Xp[i, j] += h
            Xm[i, j] -= h
            fd = (batch_loss(TrainBatch(Xp), cfg, alphas=alphas)[0]
                  - batch_loss(TrainBatch(Xm), cfg, alphas=alphas)[0]) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9), (i, j)

    def test_embedding_gradient_fd(self, monkeypatch):
        rng = np.random.default_rng(8)
        b = random_batch(rng, M=3, dim=4)
        dense = count_dense_products(monkeypatch)
        self.assert_gradient_matches_fd(b, LossConfig(temperature=0.3), itertools.product(range(6), range(4)))
        assert len(dense) == 1
        # A peaked multi-block batch takes the compacted side: twins (2k, 2k+1) with cosine near 0.9,
        # so each anchor's nonzero coefficients are at its twin and its positive. Rows of norm near 0.1 keep the
        # gradient large against the rounding of a loss in the thousands.
        n, dim = MULTI_BLOCK_N, 8
        rng = np.random.default_rng(27)
        emb = 0.03 * (np.repeat(rng.normal(size=(n // 2, dim)), 2, axis=0) + 0.3 * rng.normal(size=(n, dim)))
        coords = list(zip(rng.integers(0, n, 20).tolist(), rng.integers(0, dim, 20).tolist()))
        self.assert_gradient_matches_fd(TrainBatch(emb), LossConfig(), coords)
        assert len(dense) == 1


@st.composite
def scaled_batches(draw):
    """A float64 batch of even n in [4, 64] and dim in [2, 16] whose rows have
    norms spread over 1e-3..1e3, plus one row index and a rescaling factor."""
    n = 2 * draw(st.integers(2, 32))
    dim = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    return rows, draw(st.integers(0, n - 1)), 10.0 ** draw(st.floats(-3.0, 3.0))


class TestGradientGeometry:
    """The loss depends on each row only through its direction, so each
    gradient row lies in the row's tangent plane and scales as 1/||e_a||."""

    TOL = 1e-9  # float64 rounding, relative; the largest seen is near 1e-11

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(scaled_batches(), st.booleans())
    def test_gradient_rows_are_orthogonal_to_their_rows(self, case, hard):
        rows, _, _ = case
        _, grad = batch_loss(TrainBatch(rows), LossConfig(hard_negatives=hard), with_grad=True)
        bound = self.TOL * np.linalg.norm(grad, axis=1) * np.linalg.norm(rows, axis=1)
        assert np.all(np.abs(np.vecdot(grad, rows)) <= bound)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(scaled_batches(), st.booleans())
    def test_rescaling_a_row_divides_its_gradient(self, case, hard):
        rows, k, factor = case
        cfg = LossConfig(hard_negatives=hard)
        loss, grad = batch_loss(TrainBatch(rows), cfg, with_grad=True)
        scaled = rows.copy()
        scaled[k] *= factor
        got_loss, got_grad = batch_loss(TrainBatch(scaled), cfg, with_grad=True)
        assert got_loss == pytest.approx(loss, rel=self.TOL)
        got_grad[k] *= factor
        # Errors are measured against the direction gradient ||g_b|| ||e_b||, which is scale-free.
        norms = np.linalg.norm(rows, axis=1)
        scale = (np.linalg.norm(grad, axis=1) * norms).max()
        assert np.all(np.linalg.norm(got_grad - grad, axis=1) * norms <= self.TOL * scale)


class TestAgainstReference:
    """``batch_loss`` builds the logits in the sims array, skips the exps that
    underflow and adds w.T in place; the loss and gradient must stay byte-equal
    to the whole-array reference, and frozen ``alphas`` must stay as given."""

    @staticmethod
    def assert_equal_to_reference(embeddings, cfg, alphas=None):
        keep_emb = embeddings.tobytes()
        keep_alphas = None if alphas is None else alphas.tobytes()
        loss, grad = batch_loss(TrainBatch(embeddings), cfg, alphas=alphas, with_grad=True)
        want_loss, want_grad = reference_loss_and_grad(embeddings, cfg, alphas)
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()
        assert embeddings.tobytes() == keep_emb
        if alphas is not None:
            assert alphas.tobytes() == keep_alphas

    @pytest.mark.parametrize("n", [4, 6, 66, 130, 256, 2048])
    @pytest.mark.parametrize("hard", [True, False])
    def test_random_batches(self, n, hard):
        rng = np.random.default_rng(n)
        emb = rng.normal(size=(n, 32)).astype(np.float32 if n % 4 == 0 else np.float64)
        self.assert_equal_to_reference(emb, LossConfig(hard_negatives=hard))

    @pytest.mark.parametrize("n", [6, 130])
    def test_frozen_alphas(self, n):
        rng = np.random.default_rng(100 + n)
        emb = rng.normal(size=(n, 16))
        alphas = rng.uniform(0.0, n - 2, size=(n, n)) * _negative_mask(n)
        self.assert_equal_to_reference(emb, LossConfig(temperature=0.1), alphas)

    def test_peaked_batch_where_almost_every_exp_underflows(self):
        emb = peaked_rows(np.random.default_rng(21), M=128, dim=32)
        cfg = LossConfig()
        assert (exp_inputs(emb, cfg) < _EXP_ZERO_BELOW).mean() > 0.99
        self.assert_equal_to_reference(emb, cfg)

    def test_block_counts(self):
        assert len(_row_blocks(256)) == 1
        assert len(_row_blocks(2048)) > 1
        blocks = _row_blocks(MULTI_BLOCK_N)
        sizes = [b.stop - b.start for b, _, _ in blocks]
        assert len(blocks) >= 3 and sizes[-1] < sizes[0]
        assert blocks[0][0].start == 0 and blocks[-1][0].stop == MULTI_BLOCK_N
        assert all(a[0].stop == b[0].start for a, b in itertools.pairwise(blocks))

    @pytest.mark.parametrize("hard", [True, False])
    def test_many_row_blocks(self, hard):
        n = MULTI_BLOCK_N
        rng = np.random.default_rng(n + hard)
        emb = rng.normal(size=(n, 24))
        cfg = LossConfig(hard_negatives=hard)
        self.assert_equal_to_reference(emb, cfg)
        alphas = rng.uniform(0.0, n - 2, size=(n, n)) * _negative_mask(n)
        self.assert_equal_to_reference(emb, cfg, alphas)
        assert compute_alpha(TrainBatch(emb), cfg).tobytes() == reference_alpha(emb, cfg).tobytes()

    @pytest.mark.parametrize("with_grad", [True, False])
    def test_nan_row_in_the_last_block_raises_without_a_warning(self, with_grad):
        n = MULTI_BLOCK_N
        emb = np.random.default_rng(25).normal(size=(n, 8))
        emb[n - 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                batch_loss(TrainBatch(emb), LossConfig(), with_grad=with_grad)

    def test_exp_inputs_in_the_subnormal_band(self):
        # In 3 dimensions the cosines spread over [-1, 1]; at tau = 2/752 the logits
        # span 752, so some land where exp is subnormal and some where it is 0.
        emb = np.random.default_rng(22).normal(size=(130, 3))
        cfg = LossConfig(temperature=2 / 752, hard_negatives=False)
        z = exp_inputs(emb, cfg)
        assert np.count_nonzero((z >= -745.13) & (z <= -708.0)) > 10
        assert np.count_nonzero(np.isfinite(z) & (z < _EXP_ZERO_BELOW)) > 10
        self.assert_equal_to_reference(emb, cfg)
        alphas = np.random.default_rng(23).uniform(0.5, 1.5, size=(130, 130)) * _negative_mask(130)
        self.assert_equal_to_reference(emb, cfg, alphas)


class TestDeclaredKernels:
    """The declared kernels (times 1/tau, one row scale, the coefficient flush and the
    product from each row block's occupied columns) round differently from the textbook
    form, and by no more than float64 rounding."""

    TOL = 1e-12  # of each row's gradient norm, and of the loss

    @pytest.mark.parametrize("case, dense_side", [("spread", True), ("peaked", False), ("no-hard", True)])
    def test_gradient_matches_the_textbook_form(self, case, dense_side, monkeypatch):
        n = MULTI_BLOCK_N
        rng = np.random.default_rng(26)
        emb = peaked_rows(rng, n // 2, 32) if case == "peaked" else rng.normal(size=(n, 32))
        cfg = LossConfig(hard_negatives=case != "no-hard")
        dense = count_dense_products(monkeypatch)
        loss, grad = batch_loss(TrainBatch(emb), cfg, with_grad=True)
        assert len(dense) == dense_side
        want_loss, want_grad = textbook_loss_and_grad(emb, cfg)
        assert abs(loss - want_loss) <= self.TOL * abs(want_loss)
        err = np.linalg.norm(grad - want_grad, axis=1)
        assert np.all(err <= self.TOL * np.linalg.norm(want_grad, axis=1))


class TestLossKernels:
    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130, 200])
    def test_add_transpose_equals_w_plus_wt_byte_for_byte(self, n):
        rng = np.random.default_rng(n)
        w = rng.normal(size=(n, n)) * rng.choice([1e-300, 1.0, 1e300], size=(n, n))
        w[rng.random((n, n)) < 0.2] = 0.0
        w[rng.random((n, n)) < 0.2] = -0.0
        w[: n // 2, : n // 2] = -0.0  # both terms -0.0: the sum keeps the sign
        want = (w + w.T).tobytes()
        out = _add_transpose(w)
        assert out is w
        assert w.tobytes() == want

    def test_exp_limit_is_the_normal_boundary(self):
        # exp is normal at and above the limit and subnormal or +0.0 below it, one ulp on either side.
        tiny = np.finfo(np.float64).tiny
        limit = np.float64(_EXP_ZERO_BELOW)
        below_limit = np.nextafter(limit, -np.inf)
        above = np.concatenate([[limit, np.nextafter(limit, np.inf)], np.linspace(limit, 0.0, 100_001)])
        below = np.concatenate([
            [below_limit],
            np.linspace(below_limit, -760.0, 100_001),
            -np.logspace(np.log10(760.0), 308.0, 10_001),
            [-np.inf],
        ])
        assert (above >= limit).all() and (below < limit).all()
        assert (np.exp(above) >= tiny).all()
        assert (np.exp(below) < tiny).all()

    @pytest.mark.parametrize("case", ["spread", "peaked"])
    def test_loss_and_grad_memory_at_paper_batch(self, case, monkeypatch):
        n = 2048
        rng = np.random.default_rng(24)
        if case == "spread":
            emb = rng.normal(size=(n, 128)).astype(np.float32)
        else:
            emb = peaked_rows(rng, n // 2, 128)
        batch = TrainBatch(emb)
        dense = count_dense_products(monkeypatch)
        tracemalloc.start()
        try:
            batch_loss(batch, LossConfig(), with_grad=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dense) == (case == "spread")
        assert peak <= 2 * n * n * 8 + 12 * 2**20

    @pytest.mark.parametrize("case", ["subnormal-band", "peaked"])
    def test_no_subnormal_coefficient_reaches_the_gradient_product(self, case, monkeypatch):
        # Without the flush, each batch leaves subnormal coefficients: the embeddings of
        # test_exp_inputs_in_the_subnormal_band with hard negatives (dense side), and twins with
        # cosine near 0.5 (compacted side): a small alpha times a small live exp underflows.
        if case == "subnormal-band":
            emb = np.random.default_rng(22).normal(size=(130, 3))
        else:
            emb = peaked_rows(np.random.default_rng(27), MULTI_BLOCK_N // 2, 32, noise=1.0)
        dense = count_dense_products(monkeypatch)
        seen = []

        def product(w, U, occupied):
            seen.append(w.copy())
            return _coefficient_product(w, U, occupied)

        monkeypatch.setattr("dse.loss._coefficient_product", product)
        batch_loss(TrainBatch(emb), LossConfig(), with_grad=True)
        assert len(dense) == (case == "subnormal-band")
        (w,) = seen
        assert np.count_nonzero(w) > 0
        assert not np.any((w != 0.0) & (np.abs(w) < np.finfo(np.float64).tiny))


class TestCpuCount:
    """Rows are split by n alone, and each CPU's thread runs whole parts: the bytes do not
    depend on how many CPUs there are, and with one CPU no thread starts."""

    @staticmethod
    def digests(emb):
        batch, cfg = TrainBatch(emb), LossConfig()
        loss, grad = batch_loss(batch, cfg, with_grad=True)
        arrays = (sim_matrix(emb), compute_alpha(batch, cfg), grad)
        return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays] + [loss, batch_loss(batch, cfg)[0]]

    @pytest.mark.parametrize("n", [MULTI_BLOCK_N, 2048])
    @pytest.mark.parametrize("case", ["spread", "peaked"])
    def test_bytes_do_not_depend_on_the_cpu_count(self, n, case, monkeypatch):
        rng = np.random.default_rng(28)
        emb = peaked_rows(rng, n // 2, 64) if case == "peaked" else rng.normal(size=(n, 64)).astype(np.float32)
        got = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            monkeypatch.setattr(dse.loss, "_pool", None)
            threads = set(threading.enumerate())
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5 if cpus == 3 else switch)  # 3 threads on fewer cores, swapped often
            try:
                got[cpus] = self.digests(emb)
            finally:
                sys.setswitchinterval(switch)
            pool = dse.loss._pool
            if cpus == 1:
                assert pool is None and set(threading.enumerate()) == threads
            else:
                assert pool._max_workers == cpus - 1 and pool._threads
                pool.shutdown()
        assert got[1] == got[2] == got[3]


class TestNtxentReference:
    def test_equals_unweighted_batch_loss(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            b = random_batch(rng, M=int(rng.integers(2, 5)), dim=int(rng.integers(2, 7)))
            cfg = LossConfig(temperature=float(rng.uniform(0.1, 1.0)), hard_negatives=False)
            got, _ = batch_loss(b, cfg)
            assert abs(got - ntxent_reference(b, cfg)) < 1e-6

    def test_worked_value(self):
        cfg = LossConfig(temperature=1.0, hard_negatives=False)
        assert ntxent_reference(ORTHO_M2, cfg) == pytest.approx(WORKED_VALUE, abs=1e-9)

    def test_temperature_sensitivity(self):
        rng = np.random.default_rng(10)
        b = random_batch(rng)
        a = ntxent_reference(b, LossConfig(temperature=0.4, hard_negatives=False))
        c = ntxent_reference(b, LossConfig(temperature=0.2, hard_negatives=False))
        assert abs(a - c) > 1e-6


class TestSimMatrix:
    def test_symmetric_unit_diag(self):
        rng = np.random.default_rng(11)
        S = sim_matrix(rng.normal(size=(5, 3)))
        assert np.allclose(S, S.T)
        assert np.allclose(np.diag(S), 1.0)
        assert S.min() >= -1.0 and S.max() <= 1.0

    @pytest.mark.parametrize("n", [1030, 1500])
    def test_row_chunks_round_within_float64_of_one_gemm(self, n):
        # Chunks of U's rows can round unlike one gemm of all of them where n is not a multiple of 8.
        emb = np.random.default_rng(n).normal(size=(n, 128))
        U = unit_rows(emb)
        assert np.abs(sim_matrix(emb) - np.clip(U @ U.T.copy(), -1.0, 1.0)).max() <= 1e-15


class TestConfig:
    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            LossConfig(temperature=0.0)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_non_finite_temperature_named(self, tau):
        with pytest.raises(ValueError, match="temperature must be finite and positive"):
            LossConfig(temperature=tau)
