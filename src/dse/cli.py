"""Command-line surface: corpus -> pairs -> training -> evaluation.

The config keys are the fields of the config dataclasses, with their types
and defaults, plus the few run-level keys in RUN_DEFAULTS; each is a flag.
Every command resolves its configuration from (in increasing precedence)
built-in defaults, an optional --preset, an optional key=value config
file, and command-line flags, then prints the fully resolved config with
per-field provenance before running. ``--preset paper`` pins the
published hyperparameters (batch 1024, 15 epochs, temperature 0.05,
lr 3e-4 head / 3e-6 backbone, 128-dim head output).
"""

from __future__ import annotations

import argparse
import os
import sys
import typing
from dataclasses import fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import evaluation as ev
from .config import parse_value
from .encoder import EncoderConfig, embed_texts
from .loss import LossConfig
from .pairs import PairBuildConfig, build_pairs, load_pair_file, save_pair_file
from .trainer import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

# Run-level keys that belong to no config dataclass.
RUN_DEFAULTS: dict[str, object] = {
    "seed": 0,
    "shots": 1,
    "n_candidates": 100,
    "probe_epochs": 200,
    "probe_lr": 1.0,
    "apply_length_filter": True,
}

CONFIG_CLASSES = (EncoderConfig, LossConfig, TrainConfig, ev.OOSConfig)


def _schema() -> dict[str, tuple[type, object]]:
    """Every CLI key -> (type, default): the run-level keys plus each config-dataclass field."""
    schema = {key: (type(value), value) for key, value in RUN_DEFAULTS.items()}
    for cls in CONFIG_CLASSES:
        types = typing.get_type_hints(cls)
        schema.update((f.name, (types[f.name], f.default)) for f in fields(cls))
    return schema


SCHEMA = _schema()

PRESETS: dict[str, dict[str, object]] = {
    "paper": {
        "batch_size": 1024,
        "epochs": 15,
        "temperature": 0.05,
        "lr_head": 3e-4,
        "lr_backbone": 3e-6,
        "dropout_rate": 0.1,
        "head_hidden": 64,
        "head_out": 128,
        "apply_length_filter": True,
    },
}


class RunConfig:
    """Resolved configuration with per-field provenance."""

    def __init__(self) -> None:
        self.values = {key: default for key, (_, default) in SCHEMA.items()}
        self.provenance = dict.fromkeys(SCHEMA, "default")
        if "DSE_SEED" in os.environ:
            self.values["seed"] = parse_value("seed", int, os.environ["DSE_SEED"])
            self.provenance["seed"] = "env"

    def apply_preset(self, name: str) -> None:
        preset = PRESETS.get(name)
        if preset is None:
            raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
        for k, v in preset.items():
            self.values[k] = v
            self.provenance[k] = f"preset:{name}"

    def apply_file(self, path: str) -> None:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, raw = line.partition("=")
                key = key.strip()
                if not sep or key not in SCHEMA:
                    raise ValueError(f"{path}:{lineno}: unknown config field {key!r}")
                self.values[key] = parse_value(key, SCHEMA[key][0], raw.strip())
                self.provenance[key] = "config-file"

    def apply_flags(self, args: argparse.Namespace) -> None:
        for key in SCHEMA:
            val = getattr(args, key, None)
            if val is not None:
                self.values[key] = val
                self.provenance[key] = "flag"

    def dump(self) -> None:
        for key in sorted(self.values):
            value = self.values[key]
            shown = value.value if isinstance(value, Enum) else value
            print(f"{key}={shown}  # {self.provenance[key]}")

    def build(self, cls):
        """An instance of config dataclass ``cls`` from the resolved values."""
        return cls(**{f.name: self.values[f.name] for f in fields(cls)})


def _resolve(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "preset", None):
        cfg.apply_preset(args.preset)
    if getattr(args, "config", None):
        cfg.apply_file(args.config)
    cfg.apply_flags(args)
    print("# resolved configuration")
    cfg.dump()
    return cfg


def _make_embedder(ckpt: Checkpoint) -> ev.Embedder:
    return lambda texts: embed_texts(ckpt.model, texts)


# --- subcommand implementations -------------------------------------------

def cmd_synth(args, cfg: RunConfig) -> int:
    dialogues = corpus_mod.gen_synthetic(
        num_topics=args.topics, dialogues_per_topic=args.dialogues,
        turns_per_dialogue=args.turns, words_per_turn=args.words,
        seed=cfg.values["seed"],
    )
    corpus_mod.save_corpus(dialogues, args.out)
    print(f"wrote {len(dialogues)} dialogues to {args.out}")
    return 0


def cmd_build_pairs(args, cfg: RunConfig) -> int:
    if args.strategy == "file":
        pairs = load_pair_file(args.infile)
    else:
        dialogues = corpus_mod.load_corpus(args.infile)
        pcfg = PairBuildConfig(apply_length_filter=cfg.values["apply_length_filter"])
        pairs = build_pairs(dialogues, args.strategy, pcfg)
    save_pair_file(pairs, args.out)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    pairs = load_pair_file(args.pairs)
    hooks = []
    if args.epoch_ckpt_dir:
        out_dir = Path(args.epoch_ckpt_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        hooks.append(lambda ckpt, losses: save_checkpoint(ckpt, out_dir / f"epoch{ckpt.epoch:03d}.ckpt"))
    result = train(pairs, cfg.build(EncoderConfig), cfg.build(LossConfig), cfg.build(TrainConfig),
                   hooks=hooks)
    save_checkpoint(result.checkpoint, args.out)
    for epoch, loss_value in enumerate(result.epoch_losses, start=1):
        print(f"epoch {epoch}: mean loss {loss_value:.6f}")
    print(f"wrote checkpoint to {args.out}")
    return 0


def cmd_embed(args, cfg: RunConfig) -> int:
    ckpt = load_checkpoint(args.ckpt)
    with open(args.infile, encoding="utf-8") as fh:
        texts = [line.rstrip("\n") for line in fh if line.strip()]
    emb = embed_texts(ckpt.model, texts)
    ev.save_embeddings(emb, texts, args.out, str(args.out) + ".texts")
    print(f"wrote {emb.shape[0]} x {emb.shape[1]} embeddings to {args.out}")
    return 0


def cmd_inspect(args, cfg: RunConfig) -> int:
    emb = ev.load_embeddings(args.infile)
    print(f"n={emb.shape[0]} dim={emb.shape[1]}")
    norms = np.linalg.norm(emb, axis=1)
    print(f"norm min={norms.min():.6f} mean={norms.mean():.6f} max={norms.max():.6f}")
    return 0


def cmd_eval_intent(args, cfg: RunConfig) -> int:
    embedder = _make_embedder(load_checkpoint(args.ckpt))
    full = ev.load_labeled_tsv(args.data)
    seed = cfg.values["seed"]
    support, validation = ev.sample_few_shot(full, cfg.values["shots"], seed)
    protos = ev.build_prototypes(support, embedder)
    preds = ev.classify_protonet([t for t, _ in validation.items], protos, embedder)
    acc = float(np.mean([p == g for (p, _), (_, g) in zip(preds, validation.items)]))
    report = ev.EvalReport(task="intent_classification", metrics={"Accuracy": acc},
                           support=len(validation.items), seed=seed)
    return _report(report, args)


def cmd_eval_oos(args, cfg: RunConfig) -> int:
    embedder = _make_embedder(load_checkpoint(args.ckpt))
    full = ev.load_labeled_tsv(args.data)
    # The label literally named "oos" marks out-of-scope gold.
    oos_id = full.label_names.index("oos") if "oos" in full.label_names else None
    gold = [ev.OOS_LABEL if l == oos_id else l for _, l in full.items]
    in_items = tuple((t, l) for t, l in full.items if l != oos_id)
    in_set = ev.LabeledSet(items=in_items, label_names=full.label_names)
    seed = cfg.values["seed"]
    support, _ = ev.sample_few_shot(in_set, cfg.values["shots"], seed)
    protos = ev.build_prototypes(support, embedder)
    queries = [t for t, _ in full.items]
    preds = ev.detect_oos(queries, protos, cfg.build(ev.OOSConfig), embedder,
                          gold_is_oos=[g == ev.OOS_LABEL for g in gold])
    report = ev.oos_metrics(gold, preds)
    report.seed = seed
    return _report(report, args)


def cmd_eval_rank(args, cfg: RunConfig) -> int:
    embedder = _make_embedder(load_checkpoint(args.ckpt))
    pairs = load_pair_file(args.data)
    queries = [p.query for p in pairs]
    golds = [p.response for p in pairs]
    report = ev.rank_topk(queries, golds, golds, embedder,
                          n_candidates=cfg.values["n_candidates"], seed=cfg.values["seed"])
    return _report(report, args)


def cmd_eval_nli(args, cfg: RunConfig) -> int:
    embedder = _make_embedder(load_checkpoint(args.ckpt))
    triples = ev.load_nli_tsv(args.data)
    acc = ev.nli_probe(triples, embedder)
    report = ev.EvalReport(task="nli_probe", metrics={"Accuracy": acc}, support=len(triples))
    return _report(report, args)


def cmd_eval_actions(args, cfg: RunConfig) -> int:
    embedder = _make_embedder(load_checkpoint(args.ckpt))
    train_items, names = ev.load_multilabel_tsv(args.train_data)
    test_items, test_names = ev.load_multilabel_tsv(args.data)
    if test_names != names:
        raise ValueError("train and test label sets differ")
    probe = ev.train_action_probe(train_items, embedder, num_labels=len(names),
                                  epochs=cfg.values["probe_epochs"], lr=cfg.values["probe_lr"])
    pred = ev.predict_actions(probe, [t for t, _ in test_items], embedder)
    gold = np.stack([y for _, y in test_items])
    micro, macro = ev.f1_scores(gold, pred)
    report = ev.EvalReport(task="action_prediction",
                           metrics={"Micro-F1": micro, "Macro-F1": macro},
                           support=len(test_items))
    return _report(report, args)


def run_epoch_study(
    dialogues,
    encoder_cfg: EncoderConfig,
    loss_cfg: LossConfig,
    train_cfg: TrainConfig,
    intent_set: ev.LabeledSet,
    shots: int = 1,
    eval_seed: int = 0,
) -> dict[str, list[ev.EvalReport]]:
    """Per-epoch evaluation of the consecutive-pair and self-pair variants.

    Both variants train with identical seeds; every epoch's checkpoint is
    scored on 1-shot prototypical intent accuracy over the supplied
    labeled set. Returns one report row per epoch per strategy;
    deterministic for fixed seeds.
    """
    results: dict[str, list[ev.EvalReport]] = {}
    support, validation = ev.sample_few_shot(intent_set, shots, eval_seed)
    queries = [t for t, _ in validation.items]
    gold = [l for _, l in validation.items]

    for strategy in ("consec", "self"):
        pairs = build_pairs(dialogues, strategy)
        rows: list[ev.EvalReport] = []

        def hook(ckpt: Checkpoint, losses: list[float]) -> None:
            embedder = _make_embedder(ckpt)
            protos = ev.build_prototypes(support, embedder)
            preds = ev.classify_protonet(queries, protos, embedder)
            acc = float(np.mean([p == g for (p, _), g in zip(preds, gold)]))
            rows.append(ev.EvalReport(
                task=f"epoch_study/{strategy}",
                metrics={"Accuracy": acc, "TrainLoss": losses[-1]},
                support=len(queries), seed=eval_seed,
            ))

        train(pairs, encoder_cfg, loss_cfg, train_cfg, hooks=[hook])
        results[strategy] = rows
    return results


def cmd_epoch_study(args, cfg: RunConfig) -> int:
    dialogues = corpus_mod.load_corpus(args.infile)
    intent_set = ev.load_labeled_tsv(args.intent_data)
    results = run_epoch_study(
        dialogues, cfg.build(EncoderConfig), cfg.build(LossConfig), cfg.build(TrainConfig),
        intent_set, shots=cfg.values["shots"], eval_seed=cfg.values["seed"],
    )
    for strategy, rows in results.items():
        for epoch, row in enumerate(rows, start=1):
            metrics = " ".join(f"{k}={v:.6f}" for k, v in row.metrics.items())
            print(f"{strategy} epoch={epoch} {metrics}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for strategy, rows in results.items():
                for row in rows:
                    fh.write(row.to_json() + "\n")
    return 0


def _report(report: ev.EvalReport, args) -> int:
    """Print the report, and write it as JSON to --out when given."""
    print(report.to_text(), end="")
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0


# --- argument parsing ------------------------------------------------------

def _flag_type(key: str, typ: type):
    def convert(raw: str) -> object:
        try:
            return parse_value(key, typ, raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS))
    parser.add_argument("--config", help="key=value config file")
    for key, (typ, _) in SCHEMA.items():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=_flag_type(key, typ))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dse", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        _add_common(p)
        p.set_defaults(func=func)
        return p

    p = add("synth", cmd_synth, help="generate a synthetic topic-structured corpus")
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--dialogues", type=int, default=100)
    p.add_argument("--turns", type=int, default=6)
    p.add_argument("--words", type=int, default=6)
    p.add_argument("--out", required=True)

    p = add("build-pairs", cmd_build_pairs, help="construct contrastive pairs")
    p.add_argument("--strategy", required=True,
                   choices=["consec", "k2", "k3", "combined", "self", "file"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, help="contrastive training")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epoch-ckpt-dir", help="also save a checkpoint after every epoch")

    p = add("embed", cmd_embed, help="export evaluation-view embeddings")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = add("inspect", cmd_inspect, help="summarize an embedding file")
    p.add_argument("infile")

    p = add("eval-intent", cmd_eval_intent, help="few-shot prototypical intent accuracy")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="TSV: text<TAB>label")
    p.add_argument("--out")

    p = add("eval-oos", cmd_eval_oos, help="out-of-scope detection metrics")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="TSV with 'oos' as the out-of-scope label")
    p.add_argument("--out")

    p = add("eval-rank", cmd_eval_rank, help="top-k response selection")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="TSV pair file: query<TAB>response")
    p.add_argument("--out")

    p = add("eval-nli", cmd_eval_nli, help="entail-vs-contradict cosine probe")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="TSV: anchor<TAB>entailment<TAB>contradiction")
    p.add_argument("--out")

    p = add("eval-actions", cmd_eval_actions, help="multi-label action prediction probe")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--train-data", required=True, help="TSV: text<TAB>l1,l2,...")
    p.add_argument("--data", required=True)
    p.add_argument("--out")

    p = add("epoch-study", cmd_epoch_study, help="per-epoch eval of consec vs self pairs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--intent-data", required=True)
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _resolve(args)
        return args.func(args, cfg)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
