import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dse.encoder import (
    EncoderConfig,
    EncoderModel,
    backward,
    embed_texts,
    forward_eval,
    forward_train,
    init_model,
    param_shapes,
    take_texts,
    tokenize_texts,
    _INIT_BLOCK_ROWS,
    _draw_uniform,
    _scatter_add_rows,
)
from oracles import flat, pool_rounds, replay_forward, scatter_rows, tokenize_reference

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
        tuple(int(i) for i in rng.integers(3, cfg.vocab_size, size=rng.integers(1, max_len)))
        for _ in range(n)
    ]


class TestInit:
    def test_deterministic(self):
        a = init_model(SMALL, seed=3)
        b = init_model(SMALL, seed=3)
        for (_, pa), (_, pb) in zip(a.param_items(), b.param_items()):
            assert np.array_equal(pa, pb)

    def test_parameter_names_are_the_field_names_in_order(self):
        # load_checkpoint and map build models positionally, in param_shapes order
        m = init_model(SMALL, seed=0)
        assert [f.name for f in fields(EncoderModel)] == ["config", *param_shapes(SMALL)]
        assert [(name, p.shape) for name, p in m.param_items()] == list(param_shapes(SMALL).items())
        assert all(p.dtype == np.float32 for _, p in m.param_items())

    def test_map_keeps_config_and_names(self):
        m = init_model(SMALL, seed=0)
        doubled = m.map(lambda p: 2 * p)
        assert doubled.config is m.config
        for (name, p), (got_name, got) in zip(m.param_items(), doubled.param_items()):
            assert got_name == name and got.tobytes() == (2 * p).tobytes()

    def test_biases_zero(self):
        m = init_model(SMALL, seed=0)
        assert not m.b1.any() and not m.b2.any()

    def test_embedding_bounds(self):
        m = init_model(SMALL, seed=0)
        bound = 1 / np.sqrt(SMALL.vocab_size)
        assert np.all(np.abs(m.E) <= bound)

    @pytest.mark.parametrize("rows", [1, _INIT_BLOCK_ROWS - 1, _INIT_BLOCK_ROWS, _INIT_BLOCK_ROWS + 1, 30000])
    def test_block_draw_is_the_whole_draw_byte_for_byte(self, rows):
        bound = 1.0 / np.sqrt(rows)
        got_bitgen, want_rng = np.random.PCG64(rows), np.random.default_rng(rows)
        got = _draw_uniform(got_bitgen, (rows, 64), bound)
        want = want_rng.uniform(-bound, bound, size=(rows, 64)).astype(np.float32)
        assert got.dtype == np.float32 and got.shape == (rows, 64)
        assert got.tobytes() == want.tobytes()
        # The generator is left where the whole draw leaves it.
        assert np.random.Generator(got_bitgen).random(5).tobytes() == want_rng.random(5).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(0, 2 * _INIT_BLOCK_ROWS + 40), max_size=2 * _INIT_BLOCK_ROWS + 41), st.integers(0, 3))
    @example(set(), 0)
    @example(set(range(2 * _INIT_BLOCK_ROWS + 41)), 1)  # every row: one run over three blocks
    @example({0, 1, _INIT_BLOCK_ROWS + 5, 2 * _INIT_BLOCK_ROWS + 40}, 2)  # the first and the last row
    def test_live_rows_are_those_rows_of_the_whole_draw(self, live, seed):
        n, d = 2 * _INIT_BLOCK_ROWS + 41, 5
        rows = np.array(sorted(live), dtype=np.intp)
        got_bitgen, want_rng = np.random.PCG64(seed), np.random.default_rng(seed)
        got = _draw_uniform(got_bitgen, (n, d), 0.25, rows)
        want = want_rng.uniform(-0.25, 0.25, size=(n, d)).astype(np.float32)
        assert got.dtype == np.float32 and got.shape == (len(rows), d)
        assert got.tobytes() == want[rows].tobytes()
        assert np.random.Generator(got_bitgen).random(5).tobytes() == want_rng.random(5).tobytes()

    def test_init_of_live_rows_is_the_full_init_at_those_rows(self):
        cfg = EncoderConfig(vocab_size=3000, embed_dim=16, head_hidden=12, head_out=10)
        rows = np.array([0, 3, 4, 5, 1023, 1024, 2999])
        full, live = init_model(cfg, seed=4), init_model(cfg, seed=4, rows=rows)
        assert live.E.tobytes() == full.E[rows].tobytes()
        for (name, a), (_, b) in zip(live.param_items()[1:], full.param_items()[1:]):
            assert a.tobytes() == b.tobytes(), name
        want = np.random.default_rng(4)  # the stream of default_rng(seed), one matrix after another
        for name in ("E", "W1", "W2"):
            p = getattr(full, name)
            bound = 1.0 / np.sqrt(p.shape[0])
            assert p.tobytes() == want.uniform(-bound, bound, p.shape).astype(np.float32).tobytes(), name

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, embed_dim=0)
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=10, dropout_rate=1.0)


class TestForward:
    def test_single_token_eval_is_embedding_row(self):
        m = init_model(SMALL, seed=1)
        out = forward_eval(m, *flat([(7,)]))
        assert np.allclose(out[0], m.E[7])

    def test_mean_pool_duplication_invariant(self):
        m = init_model(SMALL, seed=1)
        a = forward_eval(m, *flat([(3, 9, 14)]))
        b = forward_eval(m, *flat([(3, 3, 9, 9, 14, 14)]))
        assert np.allclose(a, b)

    def test_eval_deterministic(self):
        m = init_model(SMALL, seed=1)
        seqs = random_seqs(np.random.default_rng(0), 5)
        assert np.array_equal(forward_eval(m, *flat(seqs)), forward_eval(m, *flat(seqs)))

    def test_zero_dropout_matches_deterministic(self):
        # dropout 0 gives all-ones masks and output that does not depend on the seed
        cfg = EncoderConfig(vocab_size=50, embed_dim=8, head_hidden=8, head_out=6, dropout_rate=0.0)
        m = init_model(cfg, seed=1)
        seqs = random_seqs(np.random.default_rng(0), 4, cfg)
        a, tape = forward_train(m, *flat(seqs), rng_seed=5)
        b, _ = forward_train(m, *flat(seqs), rng_seed=6)
        assert np.all(tape.drop1 == 1) and np.all(tape.drop2 == 1)
        assert np.array_equal(a, b)

    def test_self_pair_masks_differ(self):
        # A self pair (x, x) is two rows of one forward pass, and each row draws its own masks.
        # At SMALL's 8 + 8 units two rows' masks agree with probability 0.82**16 = 4%; at 32 + 32, 3e-6.
        m = init_model(EncoderConfig(vocab_size=50, embed_dim=32, head_hidden=32, head_out=6), seed=1)
        out, tape = forward_train(m, *flat([(4, 8, 12), (4, 8, 12)]), rng_seed=10)
        assert not np.array_equal(tape.drop1[0], tape.drop1[1]) or not np.array_equal(tape.drop2[0], tape.drop2[1])
        assert not np.array_equal(out[0], out[1])

    def test_empty_seq_rejected(self):
        m = init_model(SMALL, seed=1)
        with pytest.raises(ValueError, match=r"^token sequence 0 is empty; nothing to pool$"):
            forward_eval(m, *flat([()]))
        with pytest.raises(ValueError, match=r"^token sequence 2 is empty; nothing to pool$"):
            forward_eval(m, *flat([(4,), (5, 6), (), (7,)]))

    def test_inverted_dropout_expectation(self):
        # averaging stochastic pooled outputs over many masks approaches the
        # deterministic output within 3 standard errors per coordinate
        m = random_model(2)
        ids, lengths = flat([(5, 9)])
        det_pooled = forward_eval(m, ids, lengths)[0]
        n = 10000
        samples = np.empty((n, SMALL.embed_dim))
        for s in range(n):
            _, tape = forward_train(m, ids, lengths, rng_seed=s)
            samples[s] = (tape.pooled * tape.drop1)[0]
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - det_pooled) <= 3.5 * np.maximum(se, 1e-12))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_is_per_row_mean_byte_for_byte(self, dtype):
        # each row sums in its own token order, independent of the other rows; the lengths are ragged and unsorted
        cfg = EncoderConfig(vocab_size=300, embed_dim=16)
        m = init_model(cfg, seed=4).map(lambda p: p.astype(dtype))
        m.E *= np.random.default_rng(5).lognormal(sigma=3.0, size=m.E.shape).astype(dtype)
        rng = np.random.default_rng(6)
        lengths = rng.permutation(np.repeat(np.arange(1, 41), 3))
        seqs = [tuple(int(i) for i in rng.integers(0, 300, size=n)) for n in lengths]
        want = np.stack([m.E[list(s)].mean(axis=0) for s in seqs])
        got = forward_eval(m, *flat(seqs))
        assert got.dtype == dtype and got.tobytes() == want.tobytes() == pool_rounds(m, *flat(seqs)).tobytes()

    def test_replay_reproduces_forward(self):
        m = random_model(3)
        seqs = random_seqs(np.random.default_rng(1), 4)
        out, tape = forward_train(m, *flat(seqs), rng_seed=9)
        assert np.array_equal(replay_forward(m, tape), out)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        m = random_model(0)
        seqs = random_seqs(np.random.default_rng(2), 3)
        _, tape = forward_train(m, *flat(seqs), rng_seed=1)
        grads = backward(m, tape, np.zeros((3, SMALL.head_out)))
        for _, g in grads.param_items():
            assert not g.any()

    def test_unused_vocab_rows_zero(self):
        m = random_model(0)
        seqs = [(4, 7)]
        _, tape = forward_train(m, *flat(seqs), rng_seed=1)
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
        out, tape = forward_train(m, *flat(seqs), rng_seed=2)
        grad_out = rng.normal(size=out.shape).astype(dtype)
        grads = backward(m, tape, grad_out)
        dpre1 = (grad_out @ m.W2.T) * tape.drop2 * (1.0 - tape.hidden**2)
        dpooled = (dpre1 @ m.W1.T) * tape.drop1
        want = np.zeros_like(m.E)
        for i, seq in enumerate(seqs):
            contrib = dpooled[i] / len(seq)
            for tid in seq:
                want[tid] += contrib
        assert grads.E.dtype == dtype and grads.E.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_scatter_of_one_id_repeated_is_the_row_scatter(self, dtype):
        rng = np.random.default_rng(30)
        rows = (rng.normal(size=(10000, 8)) * rng.choice([1e-3, 1.0, 1e3], size=(10000, 8))).astype(dtype)
        ids = np.full(10000, 2)
        got, want = np.zeros((5, 8), dtype), np.zeros((5, 8), dtype)
        _scatter_add_rows(got, ids, rows)
        scatter_rows(want, ids, rows)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_scatter_of_signed_zeros_subnormals_and_large_values_is_the_row_scatter(self, dtype):
        # Large values cancel only in the order the row scatter adds them; -0.0 + -0.0 keeps its sign.
        rng = np.random.default_rng(31)
        sub = np.finfo(dtype).smallest_subnormal
        pool = np.array([0.0, -0.0, sub, -sub, 7 * sub, 1e30, -1e30, 1.0, -2.5], dtype=dtype)
        rows = pool[rng.integers(0, len(pool), size=(3000, 16))]
        ids = rng.integers(0, 40, size=3000)
        tiny_rows = (ids >= 30) & (ids < 36)  # rows 30-35 sum to zeros and subnormals only
        rows[tiny_rows] = pool[rng.integers(0, 5, size=(np.count_nonzero(tiny_rows), 16))]
        rows[ids >= 36] = -0.0
        for start in (np.zeros((40, 16), dtype), np.full((40, 16), -0.0, dtype)):
            got, want = start.copy(), start.copy()
            _scatter_add_rows(got, ids, rows)
            scatter_rows(want, ids, rows)
            assert got.tobytes() == want.tobytes()

    def test_shape_mismatch(self):
        m = random_model(0)
        seqs = random_seqs(np.random.default_rng(2), 3)
        _, tape = forward_train(m, *flat(seqs), rng_seed=1)
        with pytest.raises(ValueError):
            backward(m, tape, np.zeros((2, SMALL.head_out)))

    @pytest.mark.parametrize("seed", range(4))
    def test_finite_differences(self, seed):
        """Scalar-projection loss through the full train view vs central FD."""
        m = random_model(seed)
        rng = np.random.default_rng(100 + seed)
        seqs = random_seqs(rng, 3)
        out, tape = forward_train(m, *flat(seqs), rng_seed=seed)
        proj = rng.normal(size=out.shape)

        def f():
            return float((replay_forward(m, tape) * proj).sum())

        grads = backward(m, tape, proj)
        h = 1e-5
        for name, p in m.param_items():
            gan = dict(grads.param_items())[name]
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
        ids, lengths = tokenize_texts(["a b c"], SMALL)
        assert lengths.tolist() == [3] and len(ids) == 3 and ids.max() < SMALL.vocab_size


class TestFlatLayout:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(), max_size=12), st.integers(0, 2**64 - 1), st.data())
    def test_lengths_concatenation_and_row_gather(self, texts, seed, data):
        cfg = EncoderConfig(vocab_size=64, hash_seed=seed)
        ids, lengths = tokenize_texts(texts, cfg)
        assert ids.dtype == lengths.dtype == np.intp
        assert lengths.tolist() == [len(text.lower().split()) for text in texts]
        alone = [tokenize_texts([text], cfg) for text in texts]
        assert ids.tolist() == [tid for one, _ in alone for tid in one.tolist()]
        rows = data.draw(st.lists(st.integers(0, len(texts) - 1), max_size=20) if texts else st.just([]))
        got_ids, got_lengths = take_texts(ids, lengths, np.array(rows, dtype=np.intp))
        want_ids, want_lengths = tokenize_texts([texts[r] for r in rows], cfg)
        assert got_ids.tolist() == want_ids.tolist() and got_lengths.tolist() == want_lengths.tolist()


# Pieces that the tokenizer treats specially: the reserved words in mixed case, astral and
# case-changing characters, and ASCII and non-ASCII whitespace.
PIECES = ["[SeP]", "[sYs]", "[USR]", "[sep]x", "\U0001F600", "\U00010400", "\u0130", "\u212a",
          " ", "\t", "\x1c", "\x85", "\xa0", "\u2003", "\u3000", "\xff"]


class TestTokenizerOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.one_of(st.text(max_size=10), st.sampled_from(PIECES)), max_size=8).map("".join),
                    max_size=8),
           st.integers(-2**70, 2**70),
           st.sampled_from([8, 9, 64, 30000, 2**40]))
    @example([], 0, 8)
    @example(["", "[SeP] a\U0001F600b [usr]x", "   "], -1, 8)
    @example(["[SYS] hello"], 2**64 + 5, 30000)
    @example([" \t", ""], 0, 30000)  # no words
    @example(["ab " + "y" * 5000 + " " + "x" * 70000], 7, 30000)  # a 16-bit key wraps 69998 below 65000
    def test_ids_and_lengths_equal_the_oracle(self, texts, hash_seed, vocab_size):
        cfg = EncoderConfig(vocab_size=vocab_size, hash_seed=hash_seed)
        ids, lengths = tokenize_texts(texts, cfg)
        want_ids, want_lengths = tokenize_reference(texts, cfg)
        assert ids.dtype == lengths.dtype == np.intp
        assert ids.tolist() == want_ids.tolist() and lengths.tolist() == want_lengths.tolist()

    def test_every_isspace_code_point_separates_words(self):
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert len(spaces) == 29
        ids, lengths = tokenize_texts([f"a{c}b" for c in spaces], SMALL)
        want, _ = tokenize_texts(["a b"], SMALL)
        assert lengths.tolist() == [2] * 29 and ids.tolist() == want.tolist() * 29

    def test_lone_surrogate_raises(self):
        with pytest.raises(UnicodeEncodeError):
            tokenize_texts(["fine", "a \ud800 b"], SMALL)
