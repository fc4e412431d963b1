"""Batch assembly, the Adam training loop, and bit-exact checkpointing.

Two learning-rate groups: the embedding table trains at lr_backbone, the
contrastive head at lr_head.

A run trains only the live rows of the embedding table ``E``: the rows some
training text hashes to, a few hundred of the ``vocab_size`` rows. ``train``
draws just those rows of the init table (``init_model`` with ``rows``), and a
step costs what the corpus uses, not ``vocab_size``. A dead row never gets a
gradient, so it keeps its init bytes and its Adam moments stay +0.0. The run
state is therefore one ``Checkpoint``, which ``train`` steps in place: the
compact model and its Adam moments, the sorted live row ids and the init seed.
``Checkpoint.model``, the dense model, is the init table of that seed, drawn
once, with the live rows written over it at each read: byte for byte what a
dense run gives, and current after every step.

Checkpoints serialize to a versioned binary format: magic "DSECKPT2", UTF-8
key=value header (the encoder config, epoch, adam_t, config_digest, init_seed,
live_rows), then the live row ids as little-endian int64, the compact
parameters, Adam m and Adam v as little-endian f32 arrays in fixed order
(``E`` at live_rows x embed_dim), and an 8-byte payload length footer. A
save/load/save roundtrip is byte-identical.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import typing
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .config import parse_value
from .encoder import (
    EncoderConfig,
    EncoderModel,
    forward_train,
    init_model,
    param_shapes,
    take_texts,
    tokenize_texts,
)
from .loss import LossConfig, TrainBatch, batch_loss_and_grad
from .pairs import TrainPair

CHECKPOINT_MAGIC = b"DSECKPT2\n"
_OLD_MAGIC = b"DSECKPT1\n"  # the layout that stored the whole table

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
        for name, lr in (("lr_head", self.lr_head), ("lr_backbone", self.lr_backbone)):
            if not (math.isfinite(lr) and lr > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {lr}")
        for name in ("shuffle_seed", "init_seed", "dropout_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def digest(self) -> str:
        text = ";".join(f"{k}={v}" for k, v in sorted(vars(self).items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# The published hyperparameters, keyed by config field; ``--preset paper`` applies them.
PAPER_HYPERPARAMETERS: dict[str, object] = {
    "batch_size": 1024,
    "epochs": 15,
    "temperature": 0.05,
    "lr_head": 3e-4,
    "lr_backbone": 3e-6,
    "dropout_rate": 0.1,
    "head_hidden": 64,
    "head_out": 128,
    "apply_length_filter": True,
}


def paper_preset() -> TrainConfig:
    """The ``TrainConfig`` fields of ``PAPER_HYPERPARAMETERS``; the rest keep their defaults."""
    names = {f.name for f in fields(TrainConfig)}
    return TrainConfig(**{k: v for k, v in PAPER_HYPERPARAMETERS.items() if k in names})


@dataclass
class AdamState:
    m: EncoderModel  # first moments, one per parameter
    v: EncoderModel  # second moments
    t: int = 0


@dataclass
class Checkpoint:
    """The trained state: the live rows of ``E`` and the head, their Adam moments, and the init seed.

    ``compact.E`` and the moments' ``E`` hold row ``rows[i]`` of the full table at index i."""

    compact: EncoderModel
    rows: np.ndarray  # the live row ids, strictly increasing
    init_seed: int
    adam: AdamState   # moments of ``compact``
    epoch: int
    config_digest: str

    @cached_property
    def _init_table(self) -> np.ndarray:
        """The dense init table of ``init_seed``, drawn on first use.

        Nothing bounds vocab_size, which sizes it, and under overcommit np.empty takes a table
        larger than memory: such a table is a CheckpointError before it is allocated, as is one
        numpy refuses to allocate."""
        cfg = self.compact.config
        try:
            if 4 * cfg.vocab_size * cfg.embed_dim > _physical_memory():
                raise MemoryError
            return init_model(cfg, self.init_seed).E
        except MemoryError:
            raise CheckpointError(f"checkpoint header: vocab_size={cfg.vocab_size} makes a dense table "
                                  "too large to allocate") from None

    @property
    def model(self) -> EncoderModel:
        """The dense model: the init table of ``init_seed`` with the live rows written over it.

        The rows are written at each read, so it is current after every step; its head arrays are
        ``compact``'s, and every read shares one table."""
        table = self._init_table
        table[self.rows] = self.compact.E
        return replace(self.compact, E=table)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    epoch_losses: list[float]


class CheckpointError(ValueError):
    pass


def init_adam_state(model: EncoderModel) -> AdamState:
    # np.zeros takes zeroed memory from calloc; np.zeros_like writes every page.
    def zeros(p: np.ndarray) -> np.ndarray:
        return np.zeros(p.shape, p.dtype)
    return AdamState(m=model.map(zeros), v=model.map(zeros))


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


def adam_step(model: EncoderModel, grads: EncoderModel, state: AdamState, cfg: TrainConfig) -> None:
    """One in-place Adam update with bias correction and per-group learning rates.

    ``grads``, ``state.m`` and ``state.v`` are ``EncoderModel``s of ``model``'s
    shapes. Every gradient is checked for non-finite values before anything changes.
    """
    for name, g in grads.param_items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in parameter group {name!r}")
    state.t += 1
    t = state.t
    for name, g in grads.param_items():
        p, m, v = (getattr(s, name) for s in (model, state.m, state.v))
        lr = cfg.lr_backbone if name == "E" else cfg.lr_head
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        p -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype)


def train(
    pairs: list[TrainPair],
    encoder_cfg: EncoderConfig,
    loss_cfg: LossConfig,
    train_cfg: TrainConfig,
    on_epoch: typing.Callable[[Checkpoint, list[float]], None] | None = None,
) -> TrainResult:
    """Full contrastive training run; deterministic given the configs' seeds.

    Each step forwards a batch's M queries and then its M responses through
    the train view as one array of 2M rows (fresh dropout masks from one
    generator seeded with (dropout_seed, epoch, step)), computes the
    symmetrized loss, backpropagates it once to exact gradients, and applies
    Adam. The run state is one Checkpoint, stepped in place and returned.
    ``on_epoch`` is called after each epoch with that live state and the
    epoch losses so far; later steps change both, so a caller that keeps
    them saves or copies them.
    """
    # Consecutive pairs share texts (a response is the next pair's query):
    # each distinct text is tokenized once. Row 0 of pair_rows holds each
    # pair's query text, row 1 its response text.
    row_of = {t: i for i, t in enumerate(dict.fromkeys(t for p in pairs for t in (p.query, p.response)))}
    ids, lengths = tokenize_texts(list(row_of), encoder_cfg)
    pair_rows = np.array([[row_of[p.query] for p in pairs], [row_of[p.response] for p in pairs]], dtype=np.intp)
    live_rows, slots = np.unique(ids, return_inverse=True)

    # Steps run on ``compact``, whose E holds the live rows (token ids become
    # slots). It keeps the run's EncoderConfig, of which it uses only the names
    # (param_shapes).
    compact = init_model(encoder_cfg, train_cfg.init_seed, rows=live_rows)
    run = Checkpoint(compact=compact, rows=live_rows, init_seed=train_cfg.init_seed,
                     adam=init_adam_state(compact), epoch=0, config_digest=train_cfg.digest())
    epoch_losses: list[float] = []
    for epoch in range(train_cfg.epochs):
        losses = []
        for step, batch_idx in enumerate(make_batches(pairs, train_cfg, epoch)):
            emb, tape = forward_train(compact, *take_texts(slots, lengths, pair_rows[:, batch_idx].ravel()),
                                      rng_seed=[train_cfg.dropout_seed, epoch, step])
            loss_value, grads = batch_loss_and_grad(compact, TrainBatch(emb), loss_cfg, tape)
            adam_step(compact, grads, run.adam, train_cfg)
            losses.append(loss_value)
        epoch_losses.append(float(np.mean(losses)))
        run.epoch = epoch + 1
        if on_epoch is not None:
            on_epoch(run, epoch_losses)
    return TrainResult(checkpoint=run, epoch_losses=epoch_losses)


# Checkpoint header fields and their types: the encoder config, the training position, the init
# table's seed and the number of live rows.
_HEADER_TYPES = {**typing.get_type_hints(EncoderConfig), "epoch": int, "adam_t": int, "config_digest": str,
                 "init_seed": int, "live_rows": int}
_ARRAY_GROUPS = ("parameter", "adam m", "adam v")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` atomically: a temporary file in the target's directory, then a rename.

    A write that fails part-way leaves any earlier file at ``path`` as it was.
    """
    cfg = ckpt.compact.config
    header = {f.name: getattr(cfg, f.name) for f in fields(EncoderConfig)}
    header.update(epoch=ckpt.epoch, adam_t=ckpt.adam.t, config_digest=ckpt.config_digest,
                  init_seed=ckpt.init_seed, live_rows=len(ckpt.rows))
    arrays = [np.ascontiguousarray(ckpt.rows, dtype="<i8")]
    arrays += [np.ascontiguousarray(p, dtype="<f4")
               for group in (ckpt.compact, ckpt.adam.m, ckpt.adam.v) for _, p in group.param_items()]
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            for key, value in header.items():
                fh.write(f"{key}={value}\n".encode())
            fh.write(b"\n")
            for a in arrays:  # each array's own buffer, with no joined copy of the payload
                fh.write(a)
            fh.write(struct.pack("<Q", sum(a.nbytes for a in arrays)))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, each array straight from the file into its own buffer, and expand its dense model.

    No second copy of the payload is made, and each array can be freed on its
    own. The header must account for the payload's length exactly before any
    array is read, so the file backs every array read from it. The dense
    table is sized by the header's vocab_size and embed_dim, which the file
    does not bound: ``Checkpoint.model`` refuses one too large with a
    CheckpointError, and the load reads it once.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(CHECKPOINT_MAGIC))
        if head == _OLD_MAGIC:
            raise CheckpointError("DSECKPT1 checkpoint: the format changed to DSECKPT2, "
                                  "which stores the init seed and the live embedding rows; train again to write one")
        if head != CHECKPOINT_MAGIC:
            raise CheckpointError("bad magic: not a DSECKPT2 checkpoint")
        lines = []
        while (line := fh.readline()) != b"\n":  # the blank line ends the header
            if not line.endswith(b"\n"):
                raise CheckpointError("truncated checkpoint: header not terminated")
            lines.append(line)
        start = fh.tell()
        payload_len = size - start - 8
        if payload_len < 0:
            raise CheckpointError("truncated checkpoint: missing footer")
        fh.seek(size - 8)
        (expected_len,) = struct.unpack("<Q", fh.read(8))
        if payload_len != expected_len:
            raise CheckpointError(
                f"truncated checkpoint: payload is {payload_len} bytes, footer says {expected_len}"
            )

        try:  # a header that is not UTF-8 is a ValueError too
            header: dict[str, str] = {}
            for line in b"".join(lines).decode("utf-8").splitlines():
                key, _, value = line.partition("=")
                header[key] = value
            values = {key: parse_value(key, typ, header[key]) for key, typ in _HEADER_TYPES.items()}
            for key in ("epoch", "adam_t", "init_seed", "live_rows"):
                if values[key] < 0:
                    raise ValueError(f"{key} must be >= 0, got {values[key]}")
            cfg = EncoderConfig(**{f.name: values[f.name] for f in fields(EncoderConfig)})
        except KeyError as exc:
            raise CheckpointError(f"checkpoint header missing field {exc.args[0]!r}") from None
        except ValueError as exc:
            raise CheckpointError(f"checkpoint header: {exc}") from exc

        live = values["live_rows"]
        shapes = {**param_shapes(cfg), "E": (live, cfg.embed_dim)}  # in EncoderModel's field order
        need = 8 * live + 4 * len(_ARRAY_GROUPS) * sum(math.prod(shape) for shape in shapes.values())
        if payload_len != need:
            what = ("truncated checkpoint: array payload too short" if payload_len < need
                    else "checkpoint payload longer than expected")
            raise CheckpointError(f"{what}: {payload_len} bytes, where live_rows={live} needs {need}")

        def read(shape: tuple[int, ...], dtype: str) -> np.ndarray:
            a = np.empty(shape, dtype=dtype)
            if fh.readinto(a) != a.nbytes:  # the file shrank while it was read
                raise CheckpointError("truncated checkpoint: array payload too short")
            return a

        fh.seek(start)
        rows = read((live,), "<i8")
        if len(down := np.flatnonzero(rows[1:] <= rows[:-1])):
            i = down[0] + 1
            raise CheckpointError(f"checkpoint rows: not strictly increasing at index {i} ({rows[i - 1]}, {rows[i]})")
        if live and not (0 <= rows[0] and rows[-1] < cfg.vocab_size):
            bad = rows[0] if rows[0] < 0 else rows[-1]
            raise CheckpointError(f"checkpoint rows: row {bad} outside [0, vocab_size={cfg.vocab_size})")
        groups: list[EncoderModel] = []
        for group_name in _ARRAY_GROUPS:
            arrays = []
            for name, shape in shapes.items():
                a = read(shape, "<f4")
                if not np.all(np.isfinite(a)):
                    raise CheckpointError(f"non-finite values in {group_name} array {name!r}")
                arrays.append(a)
            groups.append(EncoderModel(cfg, *arrays))

    compact, m, v = groups
    ckpt = Checkpoint(compact=compact, rows=rows, init_seed=values["init_seed"],
                      adam=AdamState(m=m, v=v, t=values["adam_t"]), epoch=values["epoch"],
                      config_digest=values["config_digest"])
    ckpt.model  # expanded here, so a bad vocab_size fails the load and its time includes the init draw
    return ckpt
