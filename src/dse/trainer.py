"""Batch assembly, the Adam training loop, and bit-exact checkpointing.

Two learning-rate groups: the embedding table trains at lr_backbone, the
contrastive head at lr_head.

Adam updates only the live rows of the embedding table ``E``: the rows that
some training query or response hashes to, found once per run. This gives
the same bytes as a dense update. A row that no training text hashes to has
a zero gradient at every step, so its moments stay exactly +0.0 and its
update is ``lr * 0 / (sqrt(0) + eps) = +0.0``, which leaves its bits as they
are. A live row is updated at every step, also when its gradient in the
current batch is zero, so its momentum still moves it. The cost of a step
thus follows the rows the corpus uses, not ``vocab_size``.

Checkpoints serialize to a versioned binary format (magic "DSECKPT1", UTF-8
key=value header, raw little-endian f32 arrays in fixed order, 8-byte length
footer) whose save/load/save roundtrip is byte-identical.
"""

from __future__ import annotations

import hashlib
import os
import struct
import typing
from dataclasses import dataclass, fields

import numpy as np

from .config import parse_value
from .encoder import (
    EncoderConfig,
    EncoderModel,
    GradientSet,
    forward_train,
    init_model,
    param_shapes,
    tokenize_texts,
)
from .loss import LossConfig, TrainBatch, batch_loss_and_grad
from .pairs import TrainPair

CHECKPOINT_MAGIC = b"DSECKPT1\n"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    epochs: int = 15
    lr_head: float = 3e-4
    lr_backbone: float = 3e-3
    shuffle_seed: int = 0
    init_seed: int = 0
    dropout_seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if min(self.lr_head, self.lr_backbone) <= 0:
            raise ValueError("learning rates must be positive")

    def digest(self) -> str:
        text = ";".join(f"{k}={v}" for k, v in sorted(vars(self).items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def paper_preset() -> TrainConfig:
    """The published hyperparameters: batch 1024, 15 epochs, lr 3e-4 / 3e-6."""
    return TrainConfig(batch_size=1024, epochs=15, lr_head=3e-4, lr_backbone=3e-6)


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


@dataclass
class Checkpoint:
    model: EncoderModel
    adam: AdamState
    epoch: int
    config_digest: str


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    epoch_losses: list[float]


class CheckpointError(ValueError):
    pass


def init_adam_state(model: EncoderModel) -> AdamState:
    # np.zeros takes zeroed memory from calloc; np.zeros_like writes every page of E's 7.7 MB.
    return AdamState(
        m={name: np.zeros(p.shape, p.dtype) for name, p in model.param_items()},
        v={name: np.zeros(p.shape, p.dtype) for name, p in model.param_items()},
        t=0,
    )


def make_batches(pairs: list[TrainPair], cfg: TrainConfig, epoch: int) -> list[list[int]]:
    """Deterministic per-epoch shuffle, chunked into index lists of batch_size.

    A trailing chunk of size 1 is dropped (the loss needs at least 2 pairs);
    any other partial chunk is kept.
    """
    if len(pairs) < 2:
        raise ValueError(f"need at least 2 pairs to train, got {len(pairs)}")
    rng = np.random.default_rng([cfg.shuffle_seed, epoch])
    order = rng.permutation(len(pairs)).tolist()
    M = cfg.batch_size
    batches = [order[i : i + M] for i in range(0, len(order), M)]
    return [b for b in batches if len(b) >= 2]


def adam_step(model: EncoderModel, grads: GradientSet, state: AdamState, cfg: TrainConfig,
              rows: np.ndarray) -> None:
    """One in-place Adam update with bias correction and per-group learning rates.

    ``E`` is updated on ``rows`` only, which must hold every row with a nonzero
    gradient now or at any earlier step (the module docstring says why that
    is exact); the small groups are updated whole. Every group is checked
    for non-finite values before anything changes.
    """
    lrs = {"E": cfg.lr_backbone, "W1": cfg.lr_head, "b1": cfg.lr_head, "W2": cfg.lr_head, "b2": cfg.lr_head}
    live = {name: g[rows] if name == "E" else g for name, g in grads.items()}
    for name, g in live.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in parameter group {name!r}")
    state.t += 1
    t = state.t
    params = dict(model.param_items())
    for name, g in live.items():
        # E's rows are gathered into copies and written back; the small groups update in place.
        sel = rows if name == "E" else slice(None)
        p, m, v = params[name][sel], state.m[name][sel], state.v[name][sel]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        p -= (lrs[name] * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype)
        if name == "E":
            model.E[rows], state.m["E"][rows], state.v["E"][rows] = p, m, v


def train(
    pairs: list[TrainPair],
    encoder_cfg: EncoderConfig,
    loss_cfg: LossConfig,
    train_cfg: TrainConfig,
    hooks: list | None = None,
) -> TrainResult:
    """Full contrastive training run; deterministic given the configs' seeds.

    Each step forwards both sides of a batch through the train view (fresh
    dropout masks, seeds derived from (dropout_seed, epoch, step, side)),
    computes the symmetrized loss and exact gradients, and applies Adam.
    Hooks fire once after each epoch with the current Checkpoint.
    """
    model = init_model(encoder_cfg, train_cfg.init_seed)
    adam = init_adam_state(model)
    queries = tokenize_texts([p.query for p in pairs], encoder_cfg)
    responses = tokenize_texts([p.response for p in pairs], encoder_cfg)
    live_rows = np.unique(np.fromiter((tid for seq in queries + responses for tid in seq.ids), dtype=np.intp))

    epoch_losses: list[float] = []
    ckpt = Checkpoint(model=model, adam=adam, epoch=0, config_digest=train_cfg.digest())
    for epoch in range(train_cfg.epochs):
        losses = []
        for step, batch_idx in enumerate(make_batches(pairs, train_cfg, epoch)):
            seq_q = [queries[i] for i in batch_idx]
            seq_r = [responses[i] for i in batch_idx]
            emb_q, tape_q = forward_train(model, seq_q, rng_seed=[train_cfg.dropout_seed, epoch, step, 0])
            emb_r, tape_r = forward_train(model, seq_r, rng_seed=[train_cfg.dropout_seed, epoch, step, 1])
            batch = TrainBatch(np.vstack([emb_q, emb_r]))
            loss_value, grads = batch_loss_and_grad(model, batch, loss_cfg, tape_q, tape_r)
            adam_step(model, grads, adam, train_cfg, live_rows)
            losses.append(loss_value)
        epoch_losses.append(float(np.mean(losses)))
        ckpt = Checkpoint(model=model, adam=adam, epoch=epoch + 1, config_digest=train_cfg.digest())
        for hook in hooks or []:
            hook(ckpt, epoch_losses)
    return TrainResult(checkpoint=ckpt, epoch_losses=epoch_losses)


# Checkpoint header fields and their types: the encoder config, then the training position.
_HEADER_TYPES = {**typing.get_type_hints(EncoderConfig), "epoch": int, "adam_t": int, "config_digest": str}
_ARRAY_GROUPS = ("parameter", "adam m", "adam v")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` atomically: a temporary file in the target's directory, then a rename.

    A write that fails part-way leaves any earlier file at ``path`` as it was.
    """
    cfg = ckpt.model.config
    header = {f.name: getattr(cfg, f.name) for f in fields(EncoderConfig)}
    header.update(epoch=ckpt.epoch, adam_t=ckpt.adam.t, config_digest=ckpt.config_digest)
    params = dict(ckpt.model.param_items())
    arrays = [group[name] for group in (params, ckpt.adam.m, ckpt.adam.v) for name in param_shapes(cfg)]
    payload = b"".join(a.astype("<f4").tobytes() for a in arrays)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            for key, value in header.items():
                fh.write(f"{key}={value}\n".encode())
            fh.write(b"\n")
            fh.write(payload)
            fh.write(struct.pack("<Q", len(payload)))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError("bad magic: not a DSECKPT1 checkpoint")
    sep = data.find(b"\n\n", len(CHECKPOINT_MAGIC))
    if sep < 0:
        raise CheckpointError("truncated checkpoint: header not terminated")
    header: dict[str, str] = {}
    for line in data[len(CHECKPOINT_MAGIC):sep].decode("utf-8").splitlines():
        key, _, value = line.partition("=")
        header[key] = value
    body = memoryview(data)[sep + 2:]  # slices of a memoryview copy no bytes
    if len(body) < 8:
        raise CheckpointError("truncated checkpoint: missing footer")
    payload, footer = body[:-8], body[-8:]
    (expected_len,) = struct.unpack("<Q", footer)
    if len(payload) != expected_len:
        raise CheckpointError(
            f"truncated checkpoint: payload is {len(payload)} bytes, footer says {expected_len}"
        )

    values = {}
    for key, typ in _HEADER_TYPES.items():
        if key not in header:
            raise CheckpointError(f"checkpoint header missing field {key!r}")
        try:
            values[key] = parse_value(key, typ, header[key])
        except ValueError as exc:
            raise CheckpointError(f"checkpoint header: {exc}") from exc
    cfg = EncoderConfig(**{f.name: values[f.name] for f in fields(EncoderConfig)})

    offset = 0
    groups: list[dict[str, np.ndarray]] = []
    for group_name in _ARRAY_GROUPS:
        group = {}
        for name, shape in param_shapes(cfg).items():
            count = int(np.prod(shape))
            chunk = payload[offset : offset + 4 * count]
            if len(chunk) != 4 * count:
                raise CheckpointError("truncated checkpoint: array payload too short")
            group[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).copy()
            if not np.all(np.isfinite(group[name])):
                raise CheckpointError(f"non-finite values in {group_name} array {name!r}")
            offset += 4 * count
        groups.append(group)
    if offset != len(payload):
        raise CheckpointError("checkpoint payload longer than expected")

    params, m, v = groups
    model = EncoderModel(config=cfg, **params)
    adam = AdamState(m=m, v=v, t=values["adam_t"])
    return Checkpoint(model=model, adam=adam, epoch=values["epoch"], config_digest=values["config_digest"])
