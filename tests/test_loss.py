import math

import numpy as np
import pytest

from dse.corpus import TokenSeq
from dse.encoder import EncoderConfig, backward, forward_train, init_model
from dse.loss import (
    LossConfig,
    TrainBatch,
    batch_loss,
    batch_loss_and_grad,
    compute_alpha,
    cosine_sim,
    cosines,
    ntxent_reference,
    sim_matrix,
    _negative_mask,
)


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
        rng = np.random.default_rng(0)
        b = random_batch(rng)
        alphas = compute_alpha(b, LossConfig(hard_negatives=False))
        mask = _negative_mask(6)
        assert np.all(alphas[mask] == 1.0)

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

    def test_embedding_gradient_fd(self):
        rng = np.random.default_rng(8)
        b = random_batch(rng, M=3, dim=4)
        cfg = LossConfig(temperature=0.3)
        alphas = compute_alpha(b, cfg)
        _, grad = batch_loss(b, cfg, alphas=alphas, with_grad=True)
        h = 1e-6
        X = b.embeddings
        for i in range(X.shape[0]):
            for j in range(X.shape[1]):
                Xp, Xm = X.copy(), X.copy()
                Xp[i, j] += h
                Xm[i, j] -= h
                fd = (batch_loss(TrainBatch(Xp), cfg, alphas=alphas)[0]
                      - batch_loss(TrainBatch(Xm), cfg, alphas=alphas)[0]) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_combined_embedding_grad_is_dense_sum_byte_for_byte(self):
        model = init_model(EncoderConfig(vocab_size=40, embed_dim=8, head_hidden=8, head_out=6), seed=3)
        # Rows 3-5 only in queries, 20-22 only in responses, 9 and 10 in both.
        seqs_q = [TokenSeq(ids=(3, 9, 4)), TokenSeq(ids=(5, 10)), TokenSeq(ids=(9,))]
        seqs_r = [TokenSeq(ids=(20, 10)), TokenSeq(ids=(21, 9, 22)), TokenSeq(ids=(10, 10))]
        out_q, tape_q = forward_train(model, seqs_q, rng_seed=0)
        out_r, tape_r = forward_train(model, seqs_r, rng_seed=1)
        batch = TrainBatch(np.vstack([out_q, out_r]))
        _, grads = batch_loss_and_grad(model, batch, LossConfig(), tape_q, tape_r)
        _, grad_emb = batch_loss(batch, LossConfig(), with_grad=True)
        grad_emb = grad_emb.astype(model.E.dtype)
        want = backward(model, tape_q, grad_emb[:3]).E + backward(model, tape_r, grad_emb[3:]).E
        assert grads.E.tobytes() == want.tobytes()


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


class TestConfig:
    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            LossConfig(temperature=0.0)
