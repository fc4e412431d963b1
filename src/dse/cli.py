"""Command-line surface: corpus -> pairs -> training -> evaluation.

Each command takes only the config keys it reads: the fields of the config
dataclasses it uses and the run-level keys of RUN_DEFAULTS it needs. It
resolves them from (in increasing precedence) defaults, ``--preset`` (where
the preset sets one of them), a ``key=value`` ``--config`` file and flags,
and prints them with per-field provenance before running. ``--preset
paper`` pins the published hyperparameters (batch 1024, 15 epochs,
temperature 0.05, lr 3e-4 head / 3e-6 backbone, 128-dim head output).
"""

from __future__ import annotations

import argparse
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
from .pairs import STRATEGIES, PairBuildConfig, build_pairs, load_pair_file, save_pair_file
from .trainer import (
    PAPER_HYPERPARAMETERS,
    Checkpoint,
    TrainConfig,
    check_dense_table,
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
}

PRESETS: dict[str, dict[str, object]] = {"paper": PAPER_HYPERPARAMETERS}


class RunConfig:
    """Resolved values and provenance of ``reads``: config dataclasses (each field) and run-level keys."""

    def __init__(self, *reads) -> None:
        self.schema: dict[str, tuple[type, object]] = {}
        for source in reads:
            if isinstance(source, str):
                self.schema[source] = (type(RUN_DEFAULTS[source]), RUN_DEFAULTS[source])
            else:
                types = typing.get_type_hints(source)
                self.schema.update((f.name, (types[f.name], f.default)) for f in fields(source))
        self.values = {key: default for key, (_, default) in self.schema.items()}
        self.provenance = dict.fromkeys(self.schema, "default")

    def apply_preset(self, name: str) -> None:
        preset = PRESETS.get(name)
        if preset is None:
            raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
        for k in preset.keys() & self.values.keys():
            self.values[k] = preset[k]
            self.provenance[k] = f"preset:{name}"

    def apply_file(self, path: str) -> None:
        for lineno, line in enumerate(corpus_mod.read_lines(path, ValueError), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            if not sep or key not in self.schema:
                raise ValueError(f"{path}:{lineno}: {key!r} is not a config key of this command")
            self.values[key] = parse_value(key, self.schema[key][0], raw.strip())
            self.provenance[key] = "config-file"

    def apply_flags(self, args: argparse.Namespace) -> None:
        for key in self.schema:
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
    cfg = RunConfig(*args.reads)
    if getattr(args, "preset", None):
        cfg.apply_preset(args.preset)
    if getattr(args, "config", None):
        cfg.apply_file(args.config)
    cfg.apply_flags(args)
    if cfg.values.get("seed", 0) < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.values['seed']}")
    if cfg.values:
        print("# resolved configuration")
        cfg.dump()
    if cfg.values.get("probe_epochs", 0) < 0:
        raise ValueError(f"probe_epochs must be >= 0, got {cfg.values['probe_epochs']}")
    if not 0.0 < cfg.values.get("probe_lr", 1.0) < float("inf"):
        raise ValueError(f"probe_lr must be finite and positive, got {cfg.values['probe_lr']}")
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
        pairs = build_pairs(dialogues, args.strategy, cfg.build(PairBuildConfig))
    save_pair_file(pairs, args.out)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    pairs = load_pair_file(args.pairs)
    save_epoch = None
    if args.epoch_ckpt_dir:
        out_dir = Path(args.epoch_ckpt_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_epoch = lambda ckpt, losses: save_checkpoint(ckpt, out_dir / f"epoch{ckpt.epoch:03d}.ckpt")
    result = train(pairs, cfg.build(EncoderConfig), cfg.build(LossConfig), cfg.build(TrainConfig),
                   on_epoch=save_epoch)
    save_checkpoint(result.checkpoint, args.out)
    for epoch, loss_value in enumerate(result.epoch_losses, start=1):
        print(f"epoch {epoch}: mean loss {loss_value:.6f}")
    print(f"wrote checkpoint to {args.out}")
    return 0


def _written_files(args: argparse.Namespace) -> list[str]:
    """The files the command writes: ``--out``, when given, and for ``embed`` its texts file beside it."""
    out = getattr(args, "out", None)
    if not out:
        return []
    return [out, out + ".texts"] if args.func is cmd_embed else [out]


def cmd_embed(args, cfg: RunConfig) -> int:
    ckpt = load_checkpoint(args.ckpt)
    texts = [line.rstrip("\n") for line in corpus_mod.read_lines(args.infile, ValueError) if line.strip()]
    emb = embed_texts(ckpt.model, texts)
    ev.save_embeddings(emb, texts, *_written_files(args))
    print(f"wrote {emb.shape[0]} x {emb.shape[1]} embeddings to {args.out}")
    return 0


def cmd_inspect(args, cfg: RunConfig) -> int:
    emb = ev.load_embeddings(args.infile)
    print(f"n={emb.shape[0]} dim={emb.shape[1]}")
    if len(emb):
        norms = np.linalg.norm(emb, axis=1)
        print(f"norm min={norms.min():.6f} mean={norms.mean():.6f} max={norms.max():.6f}")
    return 0


def _intent_accuracy(support: ev.LabeledSet, validation: ev.LabeledSet, embedder: ev.Embedder) -> float:
    """Prototypical accuracy on ``validation``, with one prototype per label of ``support``."""
    texts, gold = zip(*validation.items)
    preds = ev.classify_protonet(list(texts), ev.build_prototypes(support, embedder), embedder)
    return float(np.mean([p == g for (p, _), g in zip(preds, gold)]))


# --- eval tasks: each reads its data and scores the checkpoint's embedder ---

def _eval_intent(args, cfg: RunConfig, embedder: ev.Embedder) -> ev.EvalReport:
    seed = cfg.values["seed"]
    support, validation = ev.sample_few_shot(ev.load_labeled_tsv(args.data), cfg.values["shots"], seed)
    return ev.EvalReport(task="intent_classification",
                         metrics={"Accuracy": _intent_accuracy(support, validation, embedder)},
                         support=len(validation.items), seed=seed)


def _eval_oos(args, cfg: RunConfig, embedder: ev.Embedder) -> ev.EvalReport:
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
    return report


def _eval_rank(args, cfg: RunConfig, embedder: ev.Embedder) -> ev.EvalReport:
    pairs = load_pair_file(args.data)
    queries = [p.query for p in pairs]
    golds = [p.response for p in pairs]
    return ev.rank_topk(queries, golds, golds, embedder,
                        n_candidates=cfg.values["n_candidates"], seed=cfg.values["seed"])


def _eval_nli(args, cfg: RunConfig, embedder: ev.Embedder) -> ev.EvalReport:
    triples = ev.load_nli_tsv(args.data)
    acc = ev.nli_probe(triples, embedder)
    return ev.EvalReport(task="nli_probe", metrics={"Accuracy": acc}, support=len(triples))


def _eval_actions(args, cfg: RunConfig, embedder: ev.Embedder) -> ev.EvalReport:
    train_items, names = ev.load_multilabel_tsv(args.train_data)
    test_items, test_names = ev.load_multilabel_tsv(args.data)
    if test_names != names:
        raise ValueError("train and test label sets differ")
    probe = ev.train_action_probe(train_items, embedder, num_labels=len(names),
                                  epochs=cfg.values["probe_epochs"], lr=cfg.values["probe_lr"])
    pred = ev.predict_actions(probe, [t for t, _ in test_items], embedder)
    gold = np.stack([y for _, y in test_items])
    micro, macro = ev.f1_scores(gold, pred)
    return ev.EvalReport(task="action_prediction",
                         metrics={"Micro-F1": micro, "Macro-F1": macro},
                         support=len(test_items))


# (command, task, config keys it reads, help, --data help)
EVAL_COMMANDS = (
    ("eval-intent", _eval_intent, ("seed", "shots"), "few-shot prototypical intent accuracy", "TSV: text<TAB>label"),
    ("eval-oos", _eval_oos, (ev.OOSConfig, "seed", "shots"), "out-of-scope detection metrics",
     "TSV with 'oos' as the out-of-scope label"),
    ("eval-rank", _eval_rank, ("seed", "n_candidates"), "top-k response selection",
     "TSV pair file: query<TAB>response"),
    ("eval-nli", _eval_nli, (), "entail-vs-contradict cosine probe", "TSV: anchor<TAB>entailment<TAB>contradiction"),
    ("eval-actions", _eval_actions, ("probe_epochs", "probe_lr"), "multi-label action probe", None),
)


def cmd_eval(args, cfg: RunConfig) -> int:
    """Load the checkpoint, run the command's task on its embedder, print the report and write it to --out."""
    report = args.task(args, cfg, _make_embedder(load_checkpoint(args.ckpt)))
    print(report.to_text(), end="")
    _write_json_lines(args.out, [report])
    return 0


def _write_json_lines(path: str | None, reports: list[ev.EvalReport]) -> None:
    """Write each report as one JSON line to ``path``, when given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(report.to_json() + "\n" for report in reports)


def run_epoch_study(
    dialogues,
    encoder_cfg: EncoderConfig,
    loss_cfg: LossConfig,
    train_cfg: TrainConfig,
    intent_set: ev.LabeledSet,
    shots: int = 1,
    eval_seed: int = 0,
    pair_cfg: PairBuildConfig | None = None,
) -> dict[str, list[ev.EvalReport]]:
    """Per-epoch evaluation of the consecutive-pair and self-pair variants.

    Both variants train with identical seeds; every epoch's checkpoint is
    scored on 1-shot prototypical intent accuracy over the supplied
    labeled set. Returns one report row per epoch per strategy;
    deterministic for fixed seeds. Scoring reads each epoch's dense model,
    so a vocab_size too large for one fails before the first step.
    """
    check_dense_table(encoder_cfg)
    results: dict[str, list[ev.EvalReport]] = {}
    support, validation = ev.sample_few_shot(intent_set, shots, eval_seed)

    for strategy in ("consec", "self"):
        pairs = build_pairs(dialogues, strategy, pair_cfg)
        rows: list[ev.EvalReport] = []

        def score(ckpt: Checkpoint, losses: list[float]) -> None:
            acc = _intent_accuracy(support, validation, _make_embedder(ckpt))
            rows.append(ev.EvalReport(
                task=f"epoch_study/{strategy}",
                metrics={"Accuracy": acc, "TrainLoss": losses[-1]},
                support=len(validation.items), seed=eval_seed,
            ))

        train(pairs, encoder_cfg, loss_cfg, train_cfg, on_epoch=score)
        results[strategy] = rows
    return results


def cmd_epoch_study(args, cfg: RunConfig) -> int:
    dialogues = corpus_mod.load_corpus(args.infile)
    intent_set = ev.load_labeled_tsv(args.intent_data)
    results = run_epoch_study(
        dialogues, cfg.build(EncoderConfig), cfg.build(LossConfig), cfg.build(TrainConfig),
        intent_set, shots=cfg.values["shots"], eval_seed=cfg.values["seed"],
        pair_cfg=cfg.build(PairBuildConfig),
    )
    for strategy, rows in results.items():
        for epoch, row in enumerate(rows, start=1):
            metrics = " ".join(f"{k}={v:.6f}" for k, v in row.metrics.items())
            print(f"{strategy} epoch={epoch} {metrics}")
    _write_json_lines(args.out, [row for rows in results.values() for row in rows])
    return 0


# --- argument parsing ------------------------------------------------------

def _flag_type(key: str, typ: type):
    def convert(raw: str) -> object:
        try:
            return parse_value(key, typ, raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _add_config_flags(parser: argparse.ArgumentParser, schema: dict[str, tuple[type, object]]) -> None:
    presets = sorted(name for name, preset in PRESETS.items() if preset.keys() & schema.keys())
    if presets:
        parser.add_argument("--preset", choices=presets)
    if schema:
        parser.add_argument("--config", help="key=value config file")
    for key, (typ, _) in schema.items():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=_flag_type(key, typ))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dse", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    training = (EncoderConfig, LossConfig, TrainConfig)

    def add(name: str, func, reads: tuple = (), **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        _add_config_flags(p, RunConfig(*reads).schema)
        p.set_defaults(func=func, reads=reads, parser=p)
        return p

    p = add("synth", cmd_synth, ("seed",), help="generate a synthetic topic-structured corpus")
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--dialogues", type=int, default=100)
    p.add_argument("--turns", type=int, default=6)
    p.add_argument("--words", type=int, default=6)
    p.add_argument("--out", required=True)

    p = add("build-pairs", cmd_build_pairs, (PairBuildConfig,), help="construct contrastive pairs")
    p.add_argument("--strategy", required=True, choices=[*STRATEGIES, "file"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, training, help="contrastive training")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epoch-ckpt-dir", help="also save a checkpoint after every epoch")

    p = add("embed", cmd_embed, help="export evaluation-view embeddings")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = add("inspect", cmd_inspect, help="summarize an embedding file")
    p.add_argument("infile")

    for name, task, reads, help_text, data_help in EVAL_COMMANDS:
        p = add(name, cmd_eval, reads, help=help_text)
        p.set_defaults(task=task)
        p.add_argument("--ckpt", required=True)
        if task is _eval_actions:
            p.add_argument("--train-data", required=True, help="TSV: text<TAB>l1,l2,...")
        p.add_argument("--data", required=True, help=data_help)
        p.add_argument("--out")

    p = add("epoch-study", cmd_epoch_study, (PairBuildConfig, *training, "seed", "shots"),
            help="per-epoch eval of consec vs self pairs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--intent-data", required=True)
    p.add_argument("--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:  # reported by the subcommand's parser, so that its usage is the one shown
        getattr(args, "parser", parser).error(f"unrecognized arguments: {' '.join(unread)}")
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _resolve(args)
        for path in _written_files(args):  # fail before the work, not when writing its result
            named = f"--out {path}" if path == args.out else path
            if not Path(path).parent.is_dir():
                raise FileNotFoundError(f"{named}: no such directory: {Path(path).parent}")
            if Path(path).is_dir():
                raise IsADirectoryError(f"{named}: is a directory")
        return args.func(args, cfg)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
