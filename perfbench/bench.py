"""Workloads, their generated inputs, the timed operations and the output checks.

Every workload runs the same operations: set-up (generate the corpora and
build the pairs; for ``eval-suite`` also train, save and load the
checkpoint), a ``trainer.train`` call (training workloads only) and five
eval operations. After one untimed warm-up of each, they are repeated,
interleaved, until the time budget is spent. The workloads differ in sizes
and in how the budget is shared, so that each one stresses different layers
(see README.md). All inputs come from the seed.
"""

from __future__ import annotations

import hashlib
import math
import resource
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from dse import corpus, encoder, pairs, trainer
from dse import evaluation as ev
from dse.loss import LossConfig

from tracing import EVAL_OPS, Tracer, layer_metrics

TOPICS = 8          # training topics; topic index TOPICS is held out as out-of-scope
TURNS = 6
WORDS = 6
VOCAB = 30000       # the CLI default
N_CANDIDATES = 100
EVAL_DIALOGUES_PER_TOPIC = 20  # eval corpus: (TOPICS + 1) x this many dialogues
RANK_QUERIES = 10
OOS_QUERIES = 300
NLI_TRIPLES = 500
SHOTS = 1
PROBE_EPOCHS = 200
EVAL_SEED_OFFSET = 1_000_000   # eval dialogues never repeat the training dialogues
MIN_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    dialogues_per_topic: int       # training corpus: TOPICS x this many dialogues
    paper: bool                    # paper preset (batch 1024, head_out 128) or CLI defaults
    setup_share: float             # shares of the time budget; the eval operations
    train_share: float             # split what is left equally; 0: the checkpoint
                                   # is trained during set-up


WORKLOADS = {
    w.name: w
    for w in [
        Workload("train-default", 16, paper=False, setup_share=0.04, train_share=0.6),
        Workload("train-paper", 52, paper=True, setup_share=0.1, train_share=0.55),
        Workload("eval-suite", 8, paper=False, setup_share=0.3, train_share=0.0),
    ]
}


def configs(w: Workload, seed: int) -> tuple[encoder.EncoderConfig, LossConfig, trainer.TrainConfig]:
    """The CLI defaults or the paper preset, one epoch per train call, seeded."""
    base = trainer.paper_preset() if w.paper else trainer.TrainConfig()
    train_cfg = replace(base, epochs=1, shuffle_seed=seed, init_seed=seed, dropout_seed=seed)
    enc_cfg = encoder.EncoderConfig(vocab_size=VOCAB, head_out=128 if w.paper else 32)
    return enc_cfg, LossConfig(), train_cfg


@dataclass
class EvalInputs:
    texts: list[str]                      # every eval utterance, for embedding
    support: ev.LabeledSet                # 1-shot prototypes over the training topics
    oos_queries: list[str]                # in-scope and held-out-topic utterances
    oos_gold: list[int]                   # topic id, or OOS_LABEL
    rank_queries: list[str]
    rank_gold: list[str]
    rank_pool: list[str]
    triples: list[tuple[str, str, str]]
    probe_train: list[tuple[str, np.ndarray]]
    probe_test: list[tuple[str, np.ndarray]]
    num_actions: int


def action_bits(topic: int) -> np.ndarray:
    """Multi-label action targets derived from the topic id:
    topic one-hot, topic parity, and which half of the topics it is in."""
    bits = np.zeros(TOPICS + 4, dtype=np.int8)
    bits[topic] = 1
    bits[TOPICS + topic % 2] = 1
    bits[TOPICS + 2 + topic * 2 // TOPICS] = 1
    return bits


def eval_inputs(dialogues: list[corpus.Dialogue], seed: int) -> EvalInputs:
    rng = np.random.default_rng([seed, 2])
    texts = [t.text for d in dialogues for t in d.turns]
    in_scope = [d for d in dialogues if corpus.topic_of_dialogue(d) < TOPICS]
    held_out = [d for d in dialogues if corpus.topic_of_dialogue(d) == TOPICS]
    items = tuple((t.text, corpus.topic_of_dialogue(d)) for d in in_scope for t in d.turns)
    labeled = ev.LabeledSet(items=items, label_names=tuple(f"topic{t}" for t in range(TOPICS)))
    support, _ = ev.sample_few_shot(labeled, SHOTS, seed)
    oos_texts = [t.text for d in held_out for t in d.turns]

    oos_items = list(items) + [(t, ev.OOS_LABEL) for t in oos_texts]
    oos_items = [oos_items[i] for i in rng.permutation(len(oos_items))[: OOS_QUERIES]]

    consec = pairs.build_pairs(in_scope, "consec")
    order = rng.permutation(len(consec))[: RANK_QUERIES]

    topic_of = dict(items)  # topic word pools are disjoint, so a text names its topic
    by_topic: dict[int, list[str]] = defaultdict(list)
    for text, topic in items:
        by_topic[topic].append(text)
    triples = []
    for p in (consec[i] for i in rng.permutation(len(consec))[: NLI_TRIPLES]):
        other = int(rng.choice([t for t in range(TOPICS) if t != topic_of[p.query]]))
        triples.append((p.query, p.response, by_topic[other][int(rng.integers(len(by_topic[other])))]))

    probe = [(t.text, action_bits(corpus.topic_of_dialogue(d)), i % 2)
             for i, d in enumerate(in_scope) for t in d.turns]
    return EvalInputs(
        texts=texts,
        support=support,
        oos_queries=[t for t, _ in oos_items],
        oos_gold=[label for _, label in oos_items],
        rank_queries=[consec[i].query for i in order],
        rank_gold=[consec[i].response for i in order],
        rank_pool=[p.response for p in consec],
        triples=triples,
        probe_train=[(t, y) for t, y, split in probe if split == 0],
        probe_test=[(t, y) for t, y, split in probe if split == 1],
        num_actions=TOPICS + 4,
    )


def make_inputs(w: Workload, seed: int) -> tuple[list[pairs.TrainPair], EvalInputs]:
    """Training pairs from the TOPICS training topics, and eval inputs from a
    separately seeded corpus that adds the held-out topic."""
    dialogues = corpus.gen_synthetic(TOPICS, w.dialogues_per_topic, TURNS, WORDS, seed=seed)
    eval_dialogues = corpus.gen_synthetic(
        TOPICS + 1, EVAL_DIALOGUES_PER_TOPIC, TURNS, WORDS, seed=seed + EVAL_SEED_OFFSET)
    return pairs.build_pairs(dialogues, "consec"), eval_inputs(eval_dialogues, seed)


def digest(ckpt: trainer.Checkpoint, tmpdir: Path) -> tuple[str, trainer.Checkpoint]:
    """sha256 of the saved checkpoint file, and the checkpoint loaded back from it."""
    path = tmpdir / "model.ckpt"
    trainer.save_checkpoint(ckpt, path)
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    return sha, trainer.load_checkpoint(path)


class Run:
    """One workload in one process: set-up, warm-up, timed operations, checks."""

    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool, tmpdir: Path) -> None:
        self.w, self.seed, self.seconds, self.tmpdir = w, seed, seconds, tmpdir
        self.tracer = Tracer() if trace else None
        self.enc_cfg, self.loss_cfg, self.train_cfg = configs(w, seed)
        # metric -> [(traced, seconds)] per timed operation, and the items one
        # operation handles (None for metrics reported in seconds)
        self.samples: dict[str, list[tuple[bool, float]]] = defaultdict(list)
        self.items: dict[str, int | None] = {}
        self.attempted = 0
        self.failed = 0
        self.expected: dict[str, object] = {}

    # -- bookkeeping ---------------------------------------------------------

    @contextmanager
    def unit(self, name: str, index: int):
        """Yields whether this operation is traced. In the traced run every
        other operation of a kind is, so the untraced ones measure the
        tracing overhead."""
        if self.tracer is None or index % 2:
            yield False
            return
        self.tracer.install()
        idx = self.tracer.begin(name)
        try:
            yield True
        finally:
            self.tracer.end(idx)
            self.tracer.uninstall()

    def record(self, metric: str, traced: bool | None, seconds: float, items: int | None = None) -> None:
        """Keep one timed operation; warm-up operations (traced None) are not kept."""
        if traced is not None:
            self.samples[metric].append((traced, seconds))
            self.items[metric] = items

    def check(self, key: str, value) -> None:
        """Count one operation; it fails if its output differs from the first."""
        self.attempted += 1
        if key not in self.expected:
            self.expected[key] = value
        elif self.expected[key] != value:
            self.failed += 1
            print(f"mismatch in {key}: {value!r} != {self.expected[key]!r}", file=sys.stderr)

    def attempt(self, what: str, fn, *args) -> None:
        """fn(*args); an exception is counted as a failed operation and the run goes on."""
        try:
            fn(*args)
        except Exception as exc:
            self.attempted += 1
            self.failed += 1
            print(f"{what} raised {type(exc).__name__}: {exc}", file=sys.stderr)

    # -- operations ----------------------------------------------------------

    def setup(self, traced: bool | None) -> None:
        """Generate the inputs (and for eval-suite train the checkpoint)."""
        start = time.perf_counter()
        self.pairs, self.inputs = make_inputs(self.w, self.seed)
        if not self.w.train_share:
            self.train(traced)
        self.record("setup_s", traced, time.perf_counter() - start)
        self.check("pairs", [(p.query, p.response) for p in self.pairs])

    def train(self, traced: bool | None) -> None:
        """One ``trainer.train`` call; the loaded-back checkpoint becomes the eval model."""
        start = time.perf_counter()
        result = trainer.train(self.pairs, self.enc_cfg, self.loss_cfg, self.train_cfg)
        self.record("train_pairs_per_s", traced, time.perf_counter() - start,
                    len(self.pairs) * self.train_cfg.epochs)
        losses = result.epoch_losses
        if not all(math.isfinite(x) for x in losses):
            raise FloatingPointError(f"non-finite epoch loss in {losses}")
        sha, loaded = digest(result.checkpoint, self.tmpdir)
        self.check("train", (sha, losses))
        self.model = loaded.model

    def evaluate(self, op: str, traced: bool | None) -> None:
        """One eval operation on the current model; its output is checked."""
        x, model = self.inputs, self.model

        def embedder(texts: list[str]) -> np.ndarray:
            # Looked up on the module at call time, so the traced run sees it.
            return encoder.embed_texts(model, texts)

        def timed(metric: str, fn, items: int | None = None):
            start = time.perf_counter()
            out = fn()
            self.record(metric, traced, time.perf_counter() - start, items)
            return out

        if op == "embed":
            emb = timed("embed_texts_per_s", lambda: embedder(x.texts), len(x.texts))
            out = hashlib.sha256(emb.tobytes()).hexdigest()
        elif op == "oos":
            protos = ev.build_prototypes(x.support, embedder)
            preds = timed("oos_queries_per_s", lambda: ev.detect_oos(
                x.oos_queries, protos, ev.OOSConfig(), embedder), len(x.oos_queries))
            in_scope = [(q, g) for q, g in zip(x.oos_queries, x.oos_gold) if g != ev.OOS_LABEL]
            labels = [label for label, _ in ev.classify_protonet([q for q, _ in in_scope], protos, embedder)]
            accuracy = float(np.mean([p == g for p, (_, g) in zip(labels, in_scope)]))
            out = {**ev.oos_metrics(x.oos_gold, preds).metrics, "intent_accuracy_1shot": accuracy}
        elif op == "rank":
            out = timed("rank_queries_per_s", lambda: ev.rank_topk(
                x.rank_queries, x.rank_gold, x.rank_pool, embedder,
                n_candidates=N_CANDIDATES, seed=self.seed), len(x.rank_queries)).metrics
        elif op == "nli":
            out = timed("nli_triples_per_s", lambda: ev.nli_probe(x.triples, embedder), len(x.triples))
        else:
            def fit_and_predict():
                probe = ev.train_action_probe(x.probe_train, embedder, x.num_actions, epochs=PROBE_EPOCHS)
                return ev.predict_actions(probe, [t for t, _ in x.probe_test], embedder)

            pred = timed("probe_fit_s", fit_and_predict)
            out = ev.f1_scores(np.stack([y for _, y in x.probe_test]), pred)
        self.check(op, out)

    # -- driver --------------------------------------------------------------

    def run(self) -> None:
        w = self.w
        eval_share = (1.0 - w.setup_share - w.train_share) / len(EVAL_OPS)
        ops = {"setup": (w.setup_share, self.setup)}
        if w.train_share:
            ops["train"] = (w.train_share, self.train)
        for op in EVAL_OPS:
            ops[op] = (eval_share, lambda traced, op=op: self.evaluate(op, traced))

        # Cold set-up and an untimed warm-up of every operation: caches fill,
        # lazy set-up finishes, and the first outputs become the expected
        # ones. A cold set-up that raises ends the run: nothing is left to measure.
        self.setup(None)
        for name, (_, fn) in ops.items():
            if name != "setup":
                self.attempt(name, fn, None)

        # Then always the operation furthest below its share of the time
        # spent, so every operation is sampled many times over the whole run
        # and a slow spell of the machine does not fall on one metric alone.
        spent = dict.fromkeys(ops, 0.0)
        done = dict.fromkeys(ops, 0)
        deadline = time.perf_counter() + self.seconds
        while True:
            waiting = [n for n in ops if done[n] < MIN_REPEATS]
            if time.perf_counter() < deadline:
                waiting = list(ops)
            if not waiting:
                break
            name = min(waiting, key=lambda n: spent[n] / ops[n][0])
            start = time.perf_counter()
            with self.unit(f"bench.{name}", done[name]) as traced:
                self.attempt(name, ops[name][1], traced)
            spent[name] += time.perf_counter() - start
            done[name] += 1

    def outputs(self) -> dict:
        """The first outputs of the checked operations; None where every call raised."""
        sha, losses = self.expected.get("train", (None, [None]))
        oos = self.expected.get("oos") or {}
        return {
            "final_loss": losses[-1],
            "checkpoint_sha256": sha,
            "intent_accuracy_1shot": oos.get("intent_accuracy_1shot"),
            "eval": {k: self.expected.get(k) for k in EVAL_OPS},
        }

    def best(self, metric: str, traced: bool = False) -> float:
        """The fastest of the run's operations, as seconds or as items per second.

        The shared host this was tuned on switches between a fast state and
        one that is 1.3 to 1.9 times slower, in spells from a fraction of a
        second to tens of seconds. A run's median therefore depends on how
        much of the run fell in the slow state. The fastest of many short
        operations depends on it much less.
        """
        seconds = min(t for tr, t in self.samples[metric] if tr == traced)
        items = self.items[metric]
        return seconds if items is None else items / seconds

    def end_to_end(self) -> dict[str, float]:
        out = {name: self.best(name) for name in self.samples}
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out

    def per_layer(self) -> dict[str, float]:
        out = layer_metrics(self.tracer.spans)
        for name in self.samples:
            if self.items[name] is not None:
                out[f"trace.overhead.{name}"] = self.best(name, traced=True) - self.best(name)
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> Run:
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        run = Run(WORKLOADS[name], seed, seconds, trace, Path(tmp))
        run.run()
    return run
