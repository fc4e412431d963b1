import hashlib
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dse import loss as loss_mod
from dse import trainer
from dse.corpus import gen_synthetic
from dse.encoder import (EncoderConfig, EncoderModel, backward, forward_train, init_model, param_shapes,
                         tokenize_texts)
from dse.loss import LossConfig, TrainBatch, batch_loss_and_grad
from dse.pairs import TrainPair, build_pairs
from dse.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    CHECKPOINT_MAGIC,
    AdamState,
    Checkpoint,
    CheckpointError,
    TrainConfig,
    adam_step,
    init_adam_state,
    load_checkpoint,
    make_batches,
    paper_preset,
    save_checkpoint,
    train,
)

ENC = EncoderConfig(vocab_size=500, embed_dim=8, head_hidden=8, head_out=6)


def state_bytes(model, state):
    return [p.tobytes() for s in (model, state.m, state.v) for _, p in s.param_items()]


def dense_moments(ckpt):
    """The checkpoint's Adam moments on the full table: +0.0 outside ``ckpt.rows``."""
    def expand(moments):
        E = np.zeros((moments.config.vocab_size, moments.config.embed_dim), np.float32)
        E[ckpt.rows] = moments.E
        return replace(moments, E=E)
    return AdamState(m=expand(ckpt.adam.m), v=expand(ckpt.adam.v), t=ckpt.adam.t)


def make_pairs(n):
    return [
        TrainPair(query=f"query number {i} text here", response=f"response number {i} text here")
        for i in range(n)
    ]


class TestMakeBatches:
    def test_chunking_with_partial(self):
        cfg = TrainConfig(batch_size=4)
        batches = make_batches(make_pairs(10), cfg, epoch=0)
        assert sorted(len(b) for b in batches) == [2, 4, 4]
        assert sorted(i for b in batches for i in b) == list(range(10))

    def test_size_one_remainder_dropped(self):
        cfg = TrainConfig(batch_size=4)
        batches = make_batches(make_pairs(9), cfg, epoch=0)
        assert sorted(len(b) for b in batches) == [4, 4]

    def test_deterministic(self):
        cfg = TrainConfig(batch_size=4, shuffle_seed=3)
        assert make_batches(make_pairs(20), cfg, 2) == make_batches(make_pairs(20), cfg, 2)

    def test_epoch_changes_shuffle(self):
        cfg = TrainConfig(batch_size=4, shuffle_seed=3)
        assert make_batches(make_pairs(20), cfg, 0) != make_batches(make_pairs(20), cfg, 1)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            make_batches(make_pairs(1), TrainConfig(), 0)


class TestAdam:
    def test_zero_grad_no_update(self):
        m = init_model(ENC, seed=0)
        before = {k: v.copy() for k, v in m.param_items()}
        state = init_adam_state(m)
        grads = m.map(np.zeros_like)
        adam_step(m, grads, state, TrainConfig())
        assert state.t == 1
        for k, v in m.param_items():
            assert np.array_equal(v, before[k])

    def test_moments_are_zero_models_of_the_model_config(self):
        m = init_model(ENC, seed=0)
        state = init_adam_state(m)
        assert state.t == 0
        for moments in (state.m, state.v):
            assert type(moments) is EncoderModel and moments.config is m.config
            for (name, p), (got_name, got) in zip(m.param_items(), moments.param_items()):
                assert got_name == name and got.shape == p.shape and got.dtype == p.dtype
                assert not got.any() and not np.shares_memory(got, p)
        assert not np.shares_memory(state.m.E, state.v.E)

    def test_first_step_magnitude_bound(self):
        m = init_model(ENC, seed=0)
        state = init_adam_state(m)
        before = m.W2.copy()
        grads = m.map(np.zeros_like)
        grads.W2 = np.full_like(m.W2, 0.5)
        cfg = TrainConfig(lr_head=1e-3)
        adam_step(m, grads, state, cfg)
        delta = before - m.W2
        assert np.all(delta > 0)  # moves against the gradient
        assert np.all(np.abs(delta) <= cfg.lr_head * 1.001)

    def test_group_learning_rates(self):
        m = init_model(ENC, seed=0)
        state = init_adam_state(m)
        e_before, w_before = m.E.copy(), m.W1.copy()
        grads = m.map(np.ones_like)
        cfg = TrainConfig(lr_head=1e-3, lr_backbone=1e-2)
        adam_step(m, grads, state, cfg)
        ratio = np.abs(e_before - m.E).max() / np.abs(w_before - m.W1).max()
        assert ratio == pytest.approx(10.0, rel=1e-4)

    def test_bias_correction_closed_form(self):
        # after t steps of constant gradient g, m_hat == g and v_hat == g^2
        m = init_model(ENC, seed=0)
        state = init_adam_state(m)
        g = 0.37
        grads = m.map(lambda p: np.full_like(p, g))
        cfg = TrainConfig()
        for _ in range(5):
            adam_step(m, grads, state, cfg)
        t = state.t
        m_hat = state.m.b1 / (1 - ADAM_BETA1**t)
        v_hat = state.v.b1 / (1 - ADAM_BETA2**t)
        assert np.allclose(m_hat, g, rtol=1e-5)
        assert np.allclose(v_hat, g * g, rtol=1e-5)

    def test_nonfinite_gradient_named(self):
        m = init_model(ENC, seed=0)
        state = init_adam_state(m)
        grads = m.map(np.zeros_like)
        grads.W1[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="W1"):
            adam_step(m, grads, state, TrainConfig())

    def test_nonfinite_gradient_changes_nothing(self):
        m = init_model(ENC, seed=0)
        state = init_adam_state(m)
        grads = m.map(np.ones_like)
        adam_step(m, grads, state, TrainConfig())
        before = state_bytes(m, state)
        grads.b2[0] = np.nan  # the last group checked
        with pytest.raises(FloatingPointError, match="'b2'"):
            adam_step(m, grads, state, TrainConfig())
        assert state.t == 1
        assert state_bytes(m, state) == before

    def test_epsilon_closed_form_first_step(self):
        # After one step m_hat = g and v_hat = g^2, so |dp| = lr * g / (|g| + eps): lr/2 at g = eps = 1e-8.
        m = init_model(ENC, seed=0)
        state = init_adam_state(m)
        before = m.W2.astype(np.float64)
        grads = m.map(np.zeros_like)
        grads.W2 = np.full_like(m.W2, 1e-8)
        cfg = TrainConfig(lr_head=1e-2)
        adam_step(m, grads, state, cfg)
        assert np.allclose(before - m.W2, cfg.lr_head / 2, rtol=1e-3)


class TestTrain:
    def test_epoch_zero_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field", ["lr_head", "lr_backbone"])
    @pytest.mark.parametrize("lr", [0.0, float("inf"), float("nan")])
    def test_bad_learning_rate_named(self, field, lr):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            TrainConfig(**{field: lr})

    @pytest.mark.parametrize("field", ["shuffle_seed", "init_seed", "dropout_seed"])
    def test_negative_seed_named(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0, got -1$"):
            TrainConfig(**{field: -1})

    def test_one_step_is_one_forward_one_backward_one_adam_step(self, monkeypatch):
        pairs = make_pairs(8)
        cfg = TrainConfig(batch_size=8, epochs=1, dropout_seed=7)
        calls = {"forward_train": 0, "backward": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)
        counted(trainer, "forward_train")
        counted(loss_mod, "backward")
        got = train(pairs, ENC, LossConfig(), cfg).checkpoint
        monkeypatch.undo()
        assert calls == {"forward_train": 1, "backward": 1}

        # By hand, on the whole table: the batch's queries then its responses as one array of rows,
        # one forward pass seeded (dropout_seed, epoch 0, step 0), one backward pass, one Adam step.
        model = init_model(ENC, cfg.init_seed)
        state = init_adam_state(model)
        (batch_idx,) = make_batches(pairs, cfg, epoch=0)
        texts = [pairs[i].query for i in batch_idx] + [pairs[i].response for i in batch_idx]
        emb, tape = forward_train(model, *tokenize_texts(texts, ENC), rng_seed=[cfg.dropout_seed, 0, 0])
        _, grads = batch_loss_and_grad(model, TrainBatch(emb), LossConfig(), tape)
        adam_step(model, grads, state, cfg)
        assert got.adam.t == state.t == 1
        assert state_bytes(got.model, dense_moments(got)) == state_bytes(model, state)

    def test_dropout_masks_differ_between_epochs(self, monkeypatch):
        masks = []
        forward = trainer.forward_train

        def recorded(*args, **kwargs):
            emb, tape = forward(*args, **kwargs)
            masks.append(tape.drop1)
            return emb, tape
        monkeypatch.setattr(trainer, "forward_train", recorded)
        train(make_pairs(8), ENC, LossConfig(), TrainConfig(batch_size=8, epochs=2))
        assert ENC.dropout_rate > 0 and len(masks) == 2  # step 0 of epoch 0, step 0 of epoch 1
        assert masks[0].shape == masks[1].shape and not np.array_equal(masks[0], masks[1])

    def test_compact_gradient_equals_dense_scatter(self):
        # Test-only dense-dE oracle: backward on the live-row table, scattered into zeros at the
        # live rows, equals backward's np.add.at into a dense vocab_size x d zero array.
        texts = [t.text for d in gen_synthetic(3, 4, 4, 5, seed=1) for t in d.turns]
        ids, lengths = tokenize_texts(texts, ENC)
        live_rows, slots = np.unique(ids, return_inverse=True)
        model = init_model(ENC, seed=0)
        compact = replace(model, E=model.E[live_rows])
        emb, tape = forward_train(compact, slots, lengths, rng_seed=3)
        dense_emb, dense_tape = forward_train(model, ids, lengths, rng_seed=3)
        assert emb.tobytes() == dense_emb.tobytes()
        grad_out = np.random.default_rng(0).standard_normal(emb.shape).astype(emb.dtype)
        got, want = backward(compact, tape, grad_out), backward(model, dense_tape, grad_out)
        assert got.E.shape == (len(live_rows), ENC.embed_dim) and want.E.shape == model.E.shape
        scattered = np.zeros_like(want.E)
        scattered[live_rows] = got.E
        assert scattered.tobytes() == want.E.tobytes()
        for (_, a), (_, b) in zip(got.param_items()[1:], want.param_items()[1:]):
            assert a.tobytes() == b.tobytes()

    def test_adam_sees_only_the_live_rows(self, monkeypatch):
        pairs = make_pairs(12)
        shapes = []
        step = trainer.adam_step
        monkeypatch.setattr(trainer, "adam_step", lambda m, g, *rest: shapes.append(g.E.shape) or step(m, g, *rest))
        ckpt = train(pairs, ENC, LossConfig(), TrainConfig(batch_size=4, epochs=2)).checkpoint
        ids, _ = tokenize_texts([text for p in pairs for text in (p.query, p.response)], ENC)
        assert shapes == [(len(np.unique(ids)), ENC.embed_dim)] * 6
        assert ckpt.rows.tolist() == np.unique(ids).tolist()
        for group in (ckpt.compact, ckpt.adam.m, ckpt.adam.v):  # the compact structures leave train
            assert group.E.shape == (len(ckpt.rows), ENC.embed_dim)
        assert ckpt.model.E.shape == (ENC.vocab_size, ENC.embed_dim)  # the dense model is a view of them

    def test_trained_checkpoint_beyond_memory_refused_without_header_words(self):
        # train draws only the live rows, so it takes any vocab_size; the dense model names the field alone
        big = replace(ENC, vocab_size=10**13)
        ckpt = train(make_pairs(8), big, LossConfig(), TrainConfig(batch_size=8, epochs=1)).checkpoint
        with pytest.raises(ValueError, match="^vocab_size=10000000000000 makes a dense table too large to allocate$"):
            ckpt.model

    def test_one_step_per_epoch(self):
        pairs = make_pairs(8)
        cfg = TrainConfig(batch_size=8, epochs=1)
        result = train(pairs, ENC, LossConfig(), cfg)
        assert result.checkpoint.adam.t == 1
        assert result.checkpoint.epoch == 1

    def test_bitwise_determinism(self):
        pairs = make_pairs(12)
        cfg = TrainConfig(batch_size=4, epochs=2)
        a = train(pairs, ENC, LossConfig(), cfg)
        b = train(pairs, ENC, LossConfig(), cfg)
        assert state_bytes(a.checkpoint.model, a.checkpoint.adam) == state_bytes(b.checkpoint.model, b.checkpoint.adam)

    def test_rows_no_text_hashes_to_keep_init_bytes(self):
        pairs = make_pairs(12)
        cfg = TrainConfig(batch_size=4, epochs=2)
        ckpt = train(pairs, ENC, LossConfig(), cfg).checkpoint
        used = set(tokenize_texts([text for p in pairs for text in (p.query, p.response)], ENC)[0].tolist())
        dead = sorted(set(range(ENC.vocab_size)) - used)
        init = init_model(ENC, cfg.init_seed)
        adam = dense_moments(ckpt)
        zeros = bytes(adam.m.E[dead].nbytes)
        assert ckpt.model.E[dead].tobytes() == init.E[dead].tobytes()
        assert adam.m.E[dead].tobytes() == zeros and adam.v.E[dead].tobytes() == zeros
        assert not np.array_equal(ckpt.model.E[sorted(used)], init.E[sorted(used)])
        assert adam.v.E[sorted(used)].any(axis=1).all()  # every row a text hashes to was updated

    def test_on_epoch_fires_per_epoch_with_the_run_state(self):
        pairs = make_pairs(8)
        cfg = TrainConfig(batch_size=4, epochs=3)
        seen = []
        result = train(pairs, ENC, LossConfig(), cfg, on_epoch=lambda c, losses: seen.append((c.epoch, c)))
        assert [epoch for epoch, _ in seen] == [1, 2, 3]
        assert all(c is result.checkpoint for _, c in seen)

    def test_on_epoch_sees_each_epochs_exact_state(self):
        pairs, cfg = make_pairs(12), TrainConfig(batch_size=4, epochs=3)

        def record(ckpt, losses):  # compact, m and v bytes, adam.t and the losses, then the dense table
            return (state_bytes(ckpt.compact, ckpt.adam), ckpt.adam.t, list(losses)), ckpt.model.E.tobytes()
        seen = []
        train(pairs, ENC, LossConfig(), cfg, on_epoch=lambda ckpt, losses: seen.append(record(ckpt, losses)))
        assert len(seen) == 3
        init = init_model(ENC, cfg.init_seed).E
        for k, (state, dense) in enumerate(seen, start=1):
            want = train(pairs, ENC, LossConfig(), replace(cfg, epochs=k))
            ckpt = want.checkpoint
            assert state == record(ckpt, want.epoch_losses)[0], f"epoch {k}"
            E = init.copy()
            E[ckpt.rows] = ckpt.compact.E
            assert dense == ckpt.model.E.tobytes() == E.tobytes(), f"epoch {k}"

    def test_no_vocabulary_sized_allocation(self):
        enc = EncoderConfig(vocab_size=200_000)
        dense_table = enc.vocab_size * enc.embed_dim * 4  # 51.2 MB of float32
        tracemalloc.start()
        try:
            ckpt = train(make_pairs(32), enc, LossConfig(), TrainConfig(batch_size=16, epochs=2)).checkpoint
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20 < dense_table
        assert ckpt.compact.E.shape == (len(ckpt.rows), enc.embed_dim) and len(ckpt.rows) < 100

    def test_loss_decreases_on_synthetic(self):
        dialogues = gen_synthetic(4, 20, 4, 5, seed=0)
        pairs = build_pairs(dialogues, "consec")
        cfg = TrainConfig(batch_size=32, epochs=5)
        result = train(pairs, EncoderConfig(vocab_size=2000), LossConfig(), cfg)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_each_distinct_text_tokenized_once(self, monkeypatch):
        # Consecutive pairs: each response is the next pair's query.
        texts = [f"utterance {i} of the dialogue" for i in range(13)]
        pairs = [TrainPair(query=q, response=r) for q, r in zip(texts, texts[1:])]
        calls = []
        tokenize_texts = trainer.tokenize_texts
        monkeypatch.setattr(trainer, "tokenize_texts", lambda t, cfg: calls.append(list(t)) or tokenize_texts(t, cfg))
        train(pairs, ENC, LossConfig(), TrainConfig(batch_size=4, epochs=1))
        assert calls == [texts]

    def test_paper_preset_values(self):
        cfg = paper_preset()
        assert cfg.batch_size == 1024
        assert cfg.epochs == 15
        assert cfg.lr_head == pytest.approx(3e-4)
        assert cfg.lr_backbone == pytest.approx(3e-6)


class TestCheckpointIO:
    def make_checkpoint(self):
        pairs = make_pairs(8)
        cfg = TrainConfig(batch_size=4, epochs=1)
        return train(pairs, ENC, LossConfig(), cfg).checkpoint

    def test_roundtrip_bitwise(self, tmp_path):
        ckpt = self.make_checkpoint()
        p = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, p)
        loaded = load_checkpoint(p)
        for got, want in ((loaded.compact, ckpt.compact), (loaded.adam.m, ckpt.adam.m), (loaded.adam.v, ckpt.adam.v),
                          (loaded.model, ckpt.model)):
            assert type(got) is EncoderModel and got.config == ckpt.model.config
            for (_, a), (_, b) in zip(got.param_items(), want.param_items()):
                assert np.array_equal(a, b)
        assert loaded.rows.tolist() == ckpt.rows.tolist()
        assert loaded.init_seed == ckpt.init_seed
        assert loaded.epoch == ckpt.epoch
        assert loaded.adam.t == ckpt.adam.t
        assert loaded.config_digest == ckpt.config_digest

    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = self.make_checkpoint()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_layout_byte_for_byte(self, tmp_path):
        ckpt = self.make_checkpoint()
        ckpt.compact.W1 = np.asfortranarray(ckpt.compact.W1)  # saved in C order all the same
        ckpt.adam.m.b1 = ckpt.adam.m.b1.astype(np.float64)  # saved as f4 all the same
        cfg = ckpt.compact.config
        assert CHECKPOINT_MAGIC == b"DSECKPT2\n"
        header = "".join(f"{k}={v}\n" for k, v in [*vars(cfg).items(), ("epoch", ckpt.epoch),
                         ("adam_t", ckpt.adam.t), ("config_digest", ckpt.config_digest),
                         ("init_seed", ckpt.init_seed), ("live_rows", len(ckpt.rows))])
        payload = np.array(ckpt.rows, dtype="<i8").tobytes() + b"".join(
            np.array(getattr(g, name), dtype="<f4").tobytes()
            for g in (ckpt.compact, ckpt.adam.m, ckpt.adam.v) for name in param_shapes(cfg))
        p = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, p)
        assert p.read_bytes() == CHECKPOINT_MAGIC + header.encode() + b"\n" + payload + struct.pack("<Q", len(payload))

    def test_default_load_holds_payload_once_in_separate_arrays(self, tmp_path):
        # Every row of the default 30000-row table live, so the payload (22 MiB) dwarfs the slack:
        # the load holds it once, plus the dense table it expands.
        model = init_model(EncoderConfig(), seed=0)
        ckpt = Checkpoint(compact=model, rows=np.arange(model.config.vocab_size), init_seed=0,
                          adam=init_adam_state(model), epoch=0, config_digest="d")
        p = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, p)
        payload = ckpt.rows.nbytes + 3 * sum(a.nbytes for _, a in model.param_items())
        dense_table = model.E.nbytes
        tracemalloc.start()
        try:
            loaded = load_checkpoint(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= payload + dense_table + 2 * 2**20
        arrays = [("rows", loaded.rows)] + [(name, a) for group in (loaded.compact, loaded.adam.m, loaded.adam.v)
                                            for name, a in group.param_items()]
        for name, a in arrays:
            assert a.dtype == np.dtype("<i8" if name == "rows" else "<f4"), name
            assert a.flags.c_contiguous and a.flags.aligned, name
            # writable, and freed on its own when dropped: no view of a shared buffer
            assert a.flags.writeable and a.flags.owndata, name
        assert loaded.model.E.tobytes() == ckpt.model.E.tobytes()

    def test_header_terminator_across_read_chunks(self, tmp_path):
        # the blank line that ends the header falls at every offset around a 4096-byte read boundary
        p = tmp_path / "m.ckpt"
        save_checkpoint(self.make_checkpoint(), p)
        data = p.read_bytes()
        end = data.index(b"\n\n")
        want = load_checkpoint(p)
        for shift in range(-3, 4):
            pad = 4096 + len(CHECKPOINT_MAGIC) - end - len(b"\npad=") + shift
            q = tmp_path / "padded.ckpt"
            q.write_bytes(data[:end] + b"\npad=" + b"x" * pad + data[end:])
            got = load_checkpoint(q)
            assert state_bytes(got.model, got.adam) == state_bytes(want.model, want.adam)

    @pytest.mark.parametrize("edit, message", [
        (lambda head, payload: head.replace(b"\n\n", b"\n") + b"x" * 9000, "header not terminated"),
        (lambda head, payload: head + payload[:7], "missing footer"),
        (lambda head, payload: head + payload + struct.pack("<Q", len(payload) + 1),
         "payload is [0-9]+ bytes, footer says [0-9]+"),
        (lambda head, payload: head + payload[:-4] + struct.pack("<Q", len(payload) - 4), "array payload too short"),
        (lambda head, payload: head + payload + b"\0" * 4 + struct.pack("<Q", len(payload) + 4),
         "payload longer than expected"),
    ])
    def test_malformed_body_named(self, tmp_path, edit, message):
        p = tmp_path / "m.ckpt"
        save_checkpoint(self.make_checkpoint(), p)
        data = p.read_bytes()
        end = data.index(b"\n\n") + 2
        p.write_bytes(edit(data[:end], data[end:-8]))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOTACKPT\n" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_old_format_says_the_format_changed(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(self.make_checkpoint(), p)
        p.write_bytes(b"DSECKPT1\n" + p.read_bytes()[len(CHECKPOINT_MAGIC):])
        with pytest.raises(CheckpointError, match="^DSECKPT1 checkpoint: the format changed to DSECKPT2"):
            load_checkpoint(p)

    def rewrite_rows(self, tmp_path, edit):
        p = tmp_path / "m.ckpt"
        ckpt = self.make_checkpoint()
        save_checkpoint(ckpt, p)
        data = p.read_bytes()
        start = data.index(b"\n\n") + 2
        rows = np.frombuffer(data, "<i8", len(ckpt.rows), start).copy()
        edit(rows)
        p.write_bytes(data[:start] + rows.tobytes() + data[start + rows.nbytes:])
        return p

    @pytest.mark.parametrize("index, value, message", [
        (1, "first", "^checkpoint rows: not strictly increasing at index 1 "),  # a repeated row
        (2, "first", "^checkpoint rows: not strictly increasing at index 2 "),  # a row below its predecessor
        (0, -1, r"^checkpoint rows: row -1 outside \[0, vocab_size=500\)$"),
        (-1, 500, r"^checkpoint rows: row 500 outside \[0, vocab_size=500\)$"),
    ])
    def test_bad_rows_named(self, tmp_path, index, value, message):
        def edit(rows):
            rows[index] = rows[0] if value == "first" else value
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(self.rewrite_rows(tmp_path, edit))

    @pytest.mark.parametrize("delta, message", [(1, "array payload too short"), (-1, "payload longer than expected"),
                                                (10**15, "array payload too short")])
    def test_live_rows_disagreeing_with_payload_named(self, tmp_path, delta, message):
        # 10**15 rows would be an 8 PB allocation: the length check comes before any array is made
        live = len(self.make_checkpoint().rows)
        edit = lambda header: header.replace(f"live_rows={live}".encode(), f"live_rows={live + delta}".encode())
        with pytest.raises(CheckpointError, match=f"{message}: [0-9]+ bytes, where live_rows={live + delta} needs"):
            load_checkpoint(self.rewrite_header(tmp_path, edit))

    def test_truncated(self, tmp_path):
        ckpt = self.make_checkpoint()
        p = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, p)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    def rewrite_header(self, tmp_path, edit):
        p = tmp_path / "m.ckpt"
        save_checkpoint(self.make_checkpoint(), p)
        data = p.read_bytes()
        end = data.index(b"\n\n")
        p.write_bytes(edit(data[:end]) + data[end:])
        return p

    @pytest.mark.parametrize("field", ["epoch", "adam_t", "vocab_size", "config_digest", "init_seed", "live_rows"])
    def test_missing_header_field_named(self, tmp_path, field):
        drop = lambda header: b"\n".join(
            line for line in header.split(b"\n") if not line.startswith(field.encode() + b"="))
        p = self.rewrite_header(tmp_path, drop)
        with pytest.raises(CheckpointError, match=f"missing field '{field}'"):
            load_checkpoint(p)

    @pytest.mark.parametrize("field", ["epoch", "adam_t", "dropout_rate", "init_seed", "live_rows"])
    def test_unparsable_header_field_named(self, tmp_path, field):
        key = field.encode() + b"="
        garble = lambda header: b"\n".join(
            key + b"x1" if line.startswith(key) else line for line in header.split(b"\n"))
        p = self.rewrite_header(tmp_path, garble)
        with pytest.raises(CheckpointError, match=f"'{field}'"):
            load_checkpoint(p)

    @pytest.mark.parametrize("field, value", [("vocab_size", b"5"), ("dropout_rate", b"1.5"),
                                              ("adam_t", b"-7"), ("epoch", b"-7"), ("init_seed", b"-1"),
                                              ("live_rows", b"-1")])
    def test_invalid_header_config_named(self, tmp_path, field, value):
        key = field.encode() + b"="
        edit = lambda header: b"\n".join(
            key + value if line.startswith(key) else line for line in header.split(b"\n"))
        p = self.rewrite_header(tmp_path, edit)
        with pytest.raises(CheckpointError, match=f"^checkpoint header: {field} must be"):
            load_checkpoint(p)

    def test_vocab_size_too_large_to_expand_named(self, tmp_path):
        # 10**17 rows cannot be allocated on any host: the expansion's MemoryError becomes a named error
        edit = lambda header: header.replace(b"\nvocab_size=500\n", b"\nvocab_size=%d\n" % 10**17)
        with pytest.raises(CheckpointError, match="^checkpoint header: vocab_size=100000000000000000 makes"):
            load_checkpoint(self.rewrite_header(tmp_path, edit))

    def test_vocab_size_beyond_physical_memory_named_before_allocation(self, tmp_path, monkeypatch):
        # a 100000 x 8 float32 table takes 3.2 MB: it loads with that much memory and is refused with a byte less
        edit = lambda header: header.replace(b"\nvocab_size=500\n", b"\nvocab_size=100000\n")
        p = self.rewrite_header(tmp_path, edit)
        need = 4 * 100000 * ENC.embed_dim
        monkeypatch.setattr("dse.trainer._physical_memory", lambda: need)
        assert load_checkpoint(p).model.E.shape == (100000, ENC.embed_dim)
        monkeypatch.setattr("dse.trainer._physical_memory", lambda: need - 1)
        monkeypatch.setattr("dse.trainer.init_model", lambda *a: pytest.fail("allocated a table larger than memory"))
        with pytest.raises(CheckpointError, match="^checkpoint header: vocab_size=100000 makes a dense table"):
            load_checkpoint(p)

    def test_header_not_utf8(self, tmp_path):
        p = self.rewrite_header(tmp_path, lambda header: header.replace(b"config_digest=", b"config_digest=\xff"))
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(p)

    @pytest.mark.parametrize("group, name", [(0, "E"), (1, "b2"), (2, "W1")])
    def test_nonfinite_array_rejected(self, tmp_path, group, name):
        ckpt = self.make_checkpoint()
        structure = (ckpt.compact, ckpt.adam.m, ckpt.adam.v)[group]
        getattr(structure, name).flat[0] = np.inf if group else np.nan
        p = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, p)
        with pytest.raises(CheckpointError, match=f"non-finite.*'{name}'"):
            load_checkpoint(p)

    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        p = tmp_path / "m.ckpt"
        save_checkpoint(self.make_checkpoint(), p)
        before = p.read_bytes()

        class FailingStruct:
            @staticmethod
            def pack(*args):
                raise OSError("disk full")

        monkeypatch.setattr("dse.trainer.struct", FailingStruct)
        later = train(make_pairs(8), ENC, LossConfig(), TrainConfig(batch_size=4, epochs=2)).checkpoint
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(later, p)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["m.ckpt"]


# Taken on numpy 2.4.6 with scipy-openblas 0.3.31 (equal at 1 and 2 BLAS threads).
GOLDEN_SHA256 = {
    "defaults": "185f5db9810a93015ac259d5109f662c10b2aa397fb9a1a4fd19ce30ed2667a0",
    "paper": "5bd4ed3427e858237e11c9e0bd635b625f3dd3a6236403d18d39b46aece24f46",
}
# sha256 of the dense model, Adam m and Adam v as f4 arrays in param_shapes order: the payload of the
# DSECKPT1 files these runs wrote, which stored the whole table. DSECKPT2 files expand to the same bytes.
MODEL_SHA256 = {
    "defaults": "5b5433c89a25a4b3846d2305e63a5b06c75b648c9e0cf7807728e921526b1f72",
    "paper": "af6eb234675c2c57d0079cbd91191e98b204be559545ad7bfe2afe914a3f8308",
}


def golden_run(preset):
    pairs = build_pairs(gen_synthetic(4, 20, 6, 6, seed=0), "consec")
    if preset == "paper":  # batch 128 keeps alpha peaked and the run short
        enc, train_cfg = EncoderConfig(head_out=128), replace(paper_preset(), batch_size=128, epochs=2)
    else:
        enc, train_cfg = EncoderConfig(), TrainConfig(epochs=2)
    return train(pairs, enc, LossConfig(), train_cfg).checkpoint


@pytest.mark.parametrize("preset", sorted(GOLDEN_SHA256))
def test_checkpoint_bytes_match_golden_digest(tmp_path, preset):
    path = tmp_path / "m.ckpt"
    save_checkpoint(golden_run(preset), path)
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == GOLDEN_SHA256[preset], (
        f"{preset} checkpoint sha256 {got} != {GOLDEN_SHA256[preset]}. Another numpy or BLAS than the "
        "one the constant was taken on may round differently. A change that alters the bytes on purpose "
        "updates the constant here and lists old -> new in CHANGES.md.")


@pytest.mark.parametrize("preset", sorted(MODEL_SHA256))
def test_loaded_model_bytes_match_golden_digest(tmp_path, preset):
    path = tmp_path / "m.ckpt"
    save_checkpoint(golden_run(preset), path)
    loaded = load_checkpoint(path)
    adam = dense_moments(loaded)
    digest = hashlib.sha256()
    for group in (loaded.model, adam.m, adam.v):
        for _, a in group.param_items():
            digest.update(np.ascontiguousarray(a, "<f4").tobytes())
    assert digest.hexdigest() == MODEL_SHA256[preset]
