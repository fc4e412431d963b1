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
        assert state_bytes(got.model, got.adam) == state_bytes(model, state)

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
        for group in (ckpt.model, ckpt.adam.m, ckpt.adam.v):  # the full structures leave train
            assert group.E.shape == (ENC.vocab_size, ENC.embed_dim)

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
        zeros = bytes(ckpt.adam.m.E[dead].nbytes)
        assert ckpt.model.E[dead].tobytes() == init.E[dead].tobytes()
        assert ckpt.adam.m.E[dead].tobytes() == zeros and ckpt.adam.v.E[dead].tobytes() == zeros
        assert not np.array_equal(ckpt.model.E[sorted(used)], init.E[sorted(used)])
        assert ckpt.adam.v.E[sorted(used)].any(axis=1).all()  # every row a text hashes to was updated

    def test_hooks_fire_per_epoch(self):
        pairs = make_pairs(8)
        cfg = TrainConfig(batch_size=4, epochs=3)
        epochs_seen = []
        train(pairs, ENC, LossConfig(), cfg, hooks=[lambda c, losses: epochs_seen.append(c.epoch)])
        assert epochs_seen == [1, 2, 3]

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
        for got, want in ((loaded.model, ckpt.model), (loaded.adam.m, ckpt.adam.m), (loaded.adam.v, ckpt.adam.v)):
            assert type(got) is EncoderModel and got.config == ckpt.model.config
            for (_, a), (_, b) in zip(got.param_items(), want.param_items()):
                assert np.array_equal(a, b)
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
        ckpt.model.W1 = np.asfortranarray(ckpt.model.W1)  # saved in C order all the same
        ckpt.adam.m.b1 = ckpt.adam.m.b1.astype(np.float64)  # saved as f4 all the same
        cfg = ckpt.model.config
        header = "".join(f"{k}={v}\n" for k, v in [*vars(cfg).items(), ("epoch", ckpt.epoch),
                         ("adam_t", ckpt.adam.t), ("config_digest", ckpt.config_digest)])
        payload = b"".join(np.array(getattr(g, name), dtype="<f4").tobytes()
                           for g in (ckpt.model, ckpt.adam.m, ckpt.adam.v) for name in param_shapes(cfg))
        p = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, p)
        assert p.read_bytes() == CHECKPOINT_MAGIC + header.encode() + b"\n" + payload + struct.pack("<Q", len(payload))

    def test_default_load_holds_payload_once_in_separate_arrays(self, tmp_path):
        model = init_model(EncoderConfig(), seed=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(model, init_adam_state(model), epoch=0, config_digest="d"), p)
        payload = 3 * sum(a.nbytes for _, a in model.param_items())
        tracemalloc.start()
        try:
            loaded = load_checkpoint(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= payload + 2 * 2**20
        for group in (loaded.model, loaded.adam.m, loaded.adam.v):
            for name, a in group.param_items():
                assert a.dtype == np.dtype("<f4") and a.flags.c_contiguous and a.flags.aligned, name
                # writable, and freed on its own when dropped: no view of a shared buffer
                assert a.flags.writeable and a.flags.owndata, name
        assert np.array_equal(loaded.model.E, model.E)

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

    @pytest.mark.parametrize("field", ["epoch", "adam_t", "vocab_size", "config_digest"])
    def test_missing_header_field_named(self, tmp_path, field):
        drop = lambda header: b"\n".join(
            line for line in header.split(b"\n") if not line.startswith(field.encode() + b"="))
        p = self.rewrite_header(tmp_path, drop)
        with pytest.raises(CheckpointError, match=f"missing field '{field}'"):
            load_checkpoint(p)

    @pytest.mark.parametrize("field", ["epoch", "adam_t", "dropout_rate"])
    def test_unparsable_header_field_named(self, tmp_path, field):
        key = field.encode() + b"="
        garble = lambda header: b"\n".join(
            key + b"x1" if line.startswith(key) else line for line in header.split(b"\n"))
        p = self.rewrite_header(tmp_path, garble)
        with pytest.raises(CheckpointError, match=f"'{field}'"):
            load_checkpoint(p)

    @pytest.mark.parametrize("field, value", [("vocab_size", b"5"), ("dropout_rate", b"1.5"),
                                              ("adam_t", b"-7"), ("epoch", b"-7")])
    def test_invalid_header_config_named(self, tmp_path, field, value):
        key = field.encode() + b"="
        edit = lambda header: b"\n".join(
            key + value if line.startswith(key) else line for line in header.split(b"\n"))
        p = self.rewrite_header(tmp_path, edit)
        with pytest.raises(CheckpointError, match=f"^checkpoint header: {field} must be"):
            load_checkpoint(p)

    def test_header_not_utf8(self, tmp_path):
        p = self.rewrite_header(tmp_path, lambda header: header.replace(b"config_digest=", b"config_digest=\xff"))
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(p)

    @pytest.mark.parametrize("group, name", [(0, "E"), (1, "b2"), (2, "W1")])
    def test_nonfinite_array_rejected(self, tmp_path, group, name):
        ckpt = self.make_checkpoint()
        structure = (ckpt.model, ckpt.adam.m, ckpt.adam.v)[group]
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
    "defaults": "fff2b89f746066e0bd3396b71a087f6736350fe1120b54443529bfddd576cd17",
    "paper": "93867efd526482608981626b74a2b975dd0685afcf5c42971418475c8af74355",
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_SHA256))
def test_checkpoint_bytes_match_golden_digest(tmp_path, preset):
    pairs = build_pairs(gen_synthetic(4, 20, 6, 6, seed=0), "consec")
    if preset == "paper":  # batch 128 keeps alpha peaked and the run short
        enc, train_cfg = EncoderConfig(head_out=128), replace(paper_preset(), batch_size=128, epochs=2)
    else:
        enc, train_cfg = EncoderConfig(), TrainConfig(epochs=2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(train(pairs, enc, LossConfig(), train_cfg).checkpoint, path)
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == GOLDEN_SHA256[preset], (
        f"{preset} checkpoint sha256 {got} != {GOLDEN_SHA256[preset]}. Another numpy or BLAS than the "
        "one the constant was taken on may round differently. A change that alters the bytes on purpose "
        "updates the constant here and lists old -> new in CHANGES.md.")
