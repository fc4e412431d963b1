import numpy as np
import pytest

from dse.corpus import gen_synthetic
from dse.encoder import EncoderConfig, init_model
from dse.encoder import GradientSet
from dse.loss import LossConfig
from dse.pairs import PairSource, TrainPair, build_consecutive
from dse.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    AdamState,
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


def make_pairs(n):
    return [
        TrainPair(query=f"query number {i} text here", response=f"response number {i} text here",
                  source=PairSource.CONSEC_1_1)
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
        grads = GradientSet(**{k: np.zeros_like(v) for k, v in m.param_items()})
        adam_step(m, grads, state, TrainConfig())
        assert state.t == 1
        for k, v in m.param_items():
            assert np.array_equal(v, before[k])

    def test_first_step_magnitude_bound(self):
        m = init_model(ENC, seed=0)
        state = init_adam_state(m)
        before = m.W2.copy()
        grads = GradientSet(**{k: np.zeros_like(v) for k, v in m.param_items()})
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
        grads = GradientSet(**{k: np.ones_like(v) for k, v in m.param_items()})
        cfg = TrainConfig(lr_head=1e-3, lr_backbone=1e-2)
        adam_step(m, grads, state, cfg)
        ratio = np.abs(e_before - m.E).max() / np.abs(w_before - m.W1).max()
        assert ratio == pytest.approx(10.0, rel=1e-4)

    def test_bias_correction_closed_form(self):
        # after t steps of constant gradient g, m_hat == g and v_hat == g^2
        m = init_model(ENC, seed=0)
        state = init_adam_state(m)
        g = 0.37
        grads = GradientSet(**{k: np.full_like(v, g) for k, v in m.param_items()})
        cfg = TrainConfig()
        for _ in range(5):
            adam_step(m, grads, state, cfg)
        t = state.t
        m_hat = state.m["b1"] / (1 - ADAM_BETA1**t)
        v_hat = state.v["b1"] / (1 - ADAM_BETA2**t)
        assert np.allclose(m_hat, g, rtol=1e-5)
        assert np.allclose(v_hat, g * g, rtol=1e-5)

    def test_nonfinite_gradient_named(self):
        m = init_model(ENC, seed=0)
        state = init_adam_state(m)
        grads = GradientSet(**{k: np.zeros_like(v) for k, v in m.param_items()})
        grads.W1[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="W1"):
            adam_step(m, grads, state, TrainConfig())


class TestTrain:
    def test_epoch_zero_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

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
        for (_, pa), (_, pb) in zip(a.checkpoint.model.param_items(), b.checkpoint.model.param_items()):
            assert np.array_equal(pa, pb)
        for k in a.checkpoint.adam.m:
            assert np.array_equal(a.checkpoint.adam.m[k], b.checkpoint.adam.m[k])
            assert np.array_equal(a.checkpoint.adam.v[k], b.checkpoint.adam.v[k])

    def test_hooks_fire_per_epoch(self):
        pairs = make_pairs(8)
        cfg = TrainConfig(batch_size=4, epochs=3)
        epochs_seen = []
        train(pairs, ENC, LossConfig(), cfg, hooks=[lambda c, losses: epochs_seen.append(c.epoch)])
        assert epochs_seen == [1, 2, 3]

    def test_loss_decreases_on_synthetic(self):
        dialogues = gen_synthetic(4, 20, 4, 5, seed=0)
        pairs = build_consecutive(dialogues)
        cfg = TrainConfig(batch_size=32, epochs=5)
        result = train(pairs, EncoderConfig(vocab_size=2000), LossConfig(), cfg)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

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
        for (_, a), (_, b) in zip(ckpt.model.param_items(), loaded.model.param_items()):
            assert np.array_equal(a, b)
        for k in ckpt.adam.m:
            assert np.array_equal(ckpt.adam.m[k], loaded.adam.m[k])
            assert np.array_equal(ckpt.adam.v[k], loaded.adam.v[k])
        assert loaded.epoch == ckpt.epoch
        assert loaded.adam.t == ckpt.adam.t
        assert loaded.config_digest == ckpt.config_digest

    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = self.make_checkpoint()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

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

    @pytest.mark.parametrize("group, name", [(0, "E"), (1, "b2"), (2, "W1")])
    def test_nonfinite_array_rejected(self, tmp_path, group, name):
        ckpt = self.make_checkpoint()
        arrays = [dict(ckpt.model.param_items()), ckpt.adam.m, ckpt.adam.v][group]
        arrays[name].flat[0] = np.inf if group else np.nan
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
