import numpy as np
import pytest

from dse.corpus import TokenSeq
from dse.encoder import (
    EncoderConfig,
    EncoderModel,
    backward,
    embed_texts,
    forward_eval,
    forward_train,
    init_model,
    replay_forward,
    tokenize_texts,
)

SMALL = EncoderConfig(vocab_size=50, embed_dim=8, head_hidden=8, head_out=6, dropout_rate=0.1)


def random_model(seed, cfg=SMALL, scale=1.0, dtype=np.float64):
    """Unit-scale random parameters keep finite-difference curvature tame."""
    rng = np.random.default_rng(seed)
    return EncoderModel(
        config=cfg,
        E=(rng.normal(size=(cfg.vocab_size, cfg.embed_dim)) * scale).astype(dtype),
        W1=(rng.normal(size=(cfg.embed_dim, cfg.head_hidden)) / np.sqrt(cfg.embed_dim)).astype(dtype),
        b1=(rng.normal(size=cfg.head_hidden) * 0.1).astype(dtype),
        W2=(rng.normal(size=(cfg.head_hidden, cfg.head_out)) / np.sqrt(cfg.head_hidden)).astype(dtype),
        b2=(rng.normal(size=cfg.head_out) * 0.1).astype(dtype),
    )


def random_seqs(rng, n, cfg=SMALL, max_len=6):
    return [
        TokenSeq(ids=tuple(int(i) for i in rng.integers(3, cfg.vocab_size, size=rng.integers(1, max_len))))
        for _ in range(n)
    ]


class TestInit:
    def test_deterministic(self):
        a = init_model(SMALL, seed=3)
        b = init_model(SMALL, seed=3)
        for (_, pa), (_, pb) in zip(a.param_items(), b.param_items()):
            assert np.array_equal(pa, pb)

    def test_biases_zero(self):
        m = init_model(SMALL, seed=0)
        assert not m.b1.any() and not m.b2.any()

    def test_embedding_bounds(self):
        m = init_model(SMALL, seed=0)
        bound = 1 / np.sqrt(SMALL.vocab_size)
        assert np.all(np.abs(m.E) <= bound)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, embed_dim=0)
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, dropout_rate=1.0)


class TestForward:
    def test_single_token_eval_is_embedding_row(self):
        m = init_model(SMALL, seed=1)
        out = forward_eval(m, [TokenSeq(ids=(7,))])
        assert np.allclose(out[0], m.E[7])

    def test_mean_pool_duplication_invariant(self):
        m = init_model(SMALL, seed=1)
        a = forward_eval(m, [TokenSeq(ids=(3, 9, 14))])
        b = forward_eval(m, [TokenSeq(ids=(3, 3, 9, 9, 14, 14))])
        assert np.allclose(a, b)

    def test_eval_deterministic(self):
        m = init_model(SMALL, seed=1)
        seqs = random_seqs(np.random.default_rng(0), 5)
        assert np.array_equal(forward_eval(m, seqs), forward_eval(m, seqs))

    def test_zero_dropout_matches_deterministic(self):
        # dropout 0 gives all-ones masks and output that does not depend on the seed
        cfg = EncoderConfig(vocab_size=50, embed_dim=8, head_hidden=8, head_out=6, dropout_rate=0.0)
        m = init_model(cfg, seed=1)
        seqs = random_seqs(np.random.default_rng(0), 4, cfg)
        a, tape = forward_train(m, seqs, rng_seed=5)
        b, _ = forward_train(m, seqs, rng_seed=6)
        assert np.all(tape.drop1 == 1) and np.all(tape.drop2 == 1)
        assert np.array_equal(a, b)

    def test_self_pair_masks_differ(self):
        m = init_model(SMALL, seed=1)
        seqs = [TokenSeq(ids=(4, 8, 12))]
        out1, tape1 = forward_train(m, seqs, rng_seed=10)
        out2, tape2 = forward_train(m, seqs, rng_seed=11)
        assert not np.array_equal(tape1.drop1, tape2.drop1) or not np.array_equal(tape1.drop2, tape2.drop2)
        assert not np.array_equal(out1, out2)

    def test_empty_seq_rejected(self):
        m = init_model(SMALL, seed=1)
        with pytest.raises(ValueError):
            forward_eval(m, [TokenSeq(ids=())])

    def test_inverted_dropout_expectation(self):
        # averaging stochastic pooled outputs over many masks approaches the
        # deterministic output within 3 standard errors per coordinate
        m = random_model(2)
        seqs = [TokenSeq(ids=(5, 9))]
        det_pooled = forward_eval(m, seqs)[0]
        n = 10000
        samples = np.empty((n, SMALL.embed_dim))
        for s in range(n):
            _, tape = forward_train(m, seqs, rng_seed=s)
            samples[s] = (tape.pooled * tape.drop1)[0]
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - det_pooled) <= 3.5 * np.maximum(se, 1e-12))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_is_per_row_mean_byte_for_byte(self, dtype):
        # each row sums in its own token order, independent of the other rows
        cfg = EncoderConfig(vocab_size=300, embed_dim=16)
        m = init_model(cfg, seed=4, dtype=dtype)
        m.E *= np.random.default_rng(5).lognormal(sigma=3.0, size=m.E.shape).astype(dtype)
        rng = np.random.default_rng(6)
        lengths = rng.permutation(np.repeat(np.arange(1, 41), 3))
        seqs = [TokenSeq(ids=tuple(int(i) for i in rng.integers(0, 300, size=n)))
                for n in lengths]
        want = np.stack([m.E[list(s.ids)].mean(axis=0) for s in seqs])
        got = forward_eval(m, seqs)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_replay_reproduces_forward(self):
        m = random_model(3)
        seqs = random_seqs(np.random.default_rng(1), 4)
        out, tape = forward_train(m, seqs, rng_seed=9)
        assert np.array_equal(replay_forward(m, tape), out)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        m = random_model(0)
        seqs = random_seqs(np.random.default_rng(2), 3)
        _, tape = forward_train(m, seqs, rng_seed=1)
        grads = backward(m, tape, np.zeros((3, SMALL.head_out)))
        for _, g in grads.items():
            assert not g.any()

    def test_unused_vocab_rows_zero(self):
        m = random_model(0)
        seqs = [TokenSeq(ids=(4, 7))]
        _, tape = forward_train(m, seqs, rng_seed=1)
        grads = backward(m, tape, np.ones((1, SMALL.head_out)))
        used = {4, 7}
        for row in range(SMALL.vocab_size):
            if row not in used:
                assert not grads.E[row].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_embedding_grad_is_per_token_loop_byte_for_byte(self, dtype):
        cfg = EncoderConfig(vocab_size=40, embed_dim=8, head_hidden=8, head_out=6)
        m = random_model(7, cfg, dtype=dtype)
        rng = np.random.default_rng(8)
        seqs = random_seqs(rng, 64, cfg, max_len=41)
        out, tape = forward_train(m, seqs, rng_seed=2)
        grad_out = rng.normal(size=out.shape).astype(dtype)
        grads = backward(m, tape, grad_out)
        dpre1 = (grad_out @ m.W2.T) * tape.drop2 * (1.0 - tape.hidden**2)
        dpooled = (dpre1 @ m.W1.T) * tape.drop1
        want = np.zeros_like(m.E)
        for i, seq in enumerate(seqs):
            contrib = dpooled[i] / len(seq.ids)
            for tid in seq.ids:
                want[tid] += contrib
        assert grads.E.dtype == dtype and grads.E.tobytes() == want.tobytes()

    def test_shape_mismatch(self):
        m = random_model(0)
        seqs = random_seqs(np.random.default_rng(2), 3)
        _, tape = forward_train(m, seqs, rng_seed=1)
        with pytest.raises(ValueError):
            backward(m, tape, np.zeros((2, SMALL.head_out)))

    @pytest.mark.parametrize("seed", range(4))
    def test_finite_differences(self, seed):
        """Scalar-projection loss through the full train view vs central FD."""
        m = random_model(seed)
        rng = np.random.default_rng(100 + seed)
        seqs = random_seqs(rng, 3)
        out, tape = forward_train(m, seqs, rng_seed=seed)
        proj = rng.normal(size=out.shape)

        def f():
            return float((replay_forward(m, tape) * proj).sum())

        grads = backward(m, tape, proj)
        h = 1e-5
        for name, p in m.param_items():
            gan = dict(grads.items())[name]
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                fp = f()
                p[idx] = orig - h
                fm = f()
                p[idx] = orig
                fd = (fp - fm) / (2 * h)
                denom = max(abs(fd), abs(gan[idx]), 1e-6)
                assert abs(gan[idx] - fd) / denom < 1e-4, (name, idx)


class TestEmbedTexts:
    def test_tokenize_and_pool(self):
        m = init_model(SMALL, seed=0)
        out = embed_texts(m, ["hello world", "hello world"])
        assert out.shape == (2, SMALL.embed_dim)
        assert np.array_equal(out[0], out[1])

    def test_tokenize_texts_uses_config(self):
        seqs = tokenize_texts(["a b c"], SMALL)
        assert len(seqs) == 1 and len(seqs[0].ids) == 3
