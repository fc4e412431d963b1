"""Similarity-based evaluation harness over frozen evaluation-view embeddings.

Tasks: prototypical few-shot intent classification, out-of-scope
detection with mean / mean-minus-std thresholds, top-k-of-N response
selection, an entail-vs-contradict cosine probe, multi-label action
prediction via a frozen-encoder linear probe, and micro/macro F1.

Every function takes an ``embedder``: a callable mapping a list of texts
to an (n, d) array. All tie-breaking rules are deterministic and
conservative: argmax ties go to the smallest label id, ranking ties count
against the gold response, and probe ties count as incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import SYS_TOKEN, USR_TOKEN, Speaker, Turn, read_tsv
from .loss import cosines

Embedder = Callable[[list[str]], np.ndarray]

OOS_LABEL = -1


@dataclass(frozen=True)
class LabeledSet:
    items: tuple[tuple[str, int], ...]
    label_names: tuple[str, ...]

    def __post_init__(self) -> None:
        for text, label in self.items:
            if not 0 <= label < len(self.label_names):
                raise ValueError(f"label id {label} out of range for {len(self.label_names)} labels")


@dataclass
class PrototypeSet:
    labels: list[int]
    vectors: np.ndarray  # one row per entry of labels


class ThresholdRule(Enum):
    MEAN = "mean"
    MEAN_MINUS_STD = "mean_minus_std"


class StatsPopulation(Enum):
    TEST_ALL = "test_all"
    TEST_IN_ONLY = "test_in_only"


@dataclass(frozen=True)
class OOSConfig:
    threshold_rule: ThresholdRule = ThresholdRule.MEAN
    stats_population: StatsPopulation = StatsPopulation.TEST_ALL


@dataclass
class OOSPrediction:
    is_oos: bool
    label: int | None
    max_sim: float


@dataclass
class EvalReport:
    task: str
    metrics: dict[str, float]
    support: int = 0
    seed: int = 0

    def to_text(self) -> str:
        lines = [f"task={self.task}", f"support={self.support}", f"seed={self.seed}"]
        lines += [f"{k}={v!r}" for k, v in self.metrics.items()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"task": self.task, "support": self.support, "seed": self.seed, "metrics": self.metrics}
        )

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        obj = json.loads(text)
        return cls(task=obj["task"], metrics=obj["metrics"], support=obj["support"], seed=obj["seed"])


def sample_few_shot(full: LabeledSet, shots: int, seed: int) -> tuple[LabeledSet, LabeledSet]:
    """Per label, draw `shots` items for support and `shots` for validation.

    Sampling is without replacement and deterministic per seed; labels
    with fewer than 2*shots items are an error (named in the message).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    by_label: dict[int, list[int]] = {}
    for i, (_, label) in enumerate(full.items):
        by_label.setdefault(label, []).append(i)
    support_idx: list[int] = []
    val_idx: list[int] = []
    for label in sorted(by_label):
        idx = by_label[label]
        if len(idx) < 2 * shots:
            name = full.label_names[label]
            raise ValueError(f"label {name!r} has {len(idx)} items, needs {2 * shots}")
        chosen = rng.choice(len(idx), size=2 * shots, replace=False)
        support_idx += [idx[c] for c in chosen[:shots]]
        val_idx += [idx[c] for c in chosen[shots:]]
    support = LabeledSet(items=tuple(full.items[i] for i in support_idx), label_names=full.label_names)
    validation = LabeledSet(items=tuple(full.items[i] for i in val_idx), label_names=full.label_names)
    return support, validation


def build_prototypes(support: LabeledSet, embedder: Embedder) -> PrototypeSet:
    """One prototype per label: the plain mean of its support embeddings."""
    if not support.items:
        raise ValueError("support set is empty")
    texts = [t for t, _ in support.items]
    emb = embedder(texts)
    labels = sorted({label for _, label in support.items})
    vectors = np.stack([
        emb[[i for i, (_, l) in enumerate(support.items) if l == label]].mean(axis=0)
        for label in labels
    ])
    return PrototypeSet(labels=labels, vectors=vectors)


def _max_sims(queries: list[str], protos: PrototypeSet, embedder: Embedder) -> tuple[np.ndarray, np.ndarray]:
    """Per query: (best label, similarity to best prototype); ties -> smallest label id."""
    sims = cosines(embedder(queries)[:, None], protos.vectors[None])
    best = sims.argmax(axis=1)  # argmax takes the first maximum; labels are sorted ascending
    return np.array([protos.labels[b] for b in best]), sims[np.arange(len(queries)), best]


def classify_protonet(queries: list[str], protos: PrototypeSet, embedder: Embedder) -> list[tuple[int, float]]:
    """Nearest-prototype classification by cosine similarity."""
    labels, sims = _max_sims(queries, protos, embedder)
    return list(zip(labels.tolist(), sims.tolist()))


def detect_oos(
    queries: list[str],
    protos: PrototypeSet,
    cfg: OOSConfig,
    embedder: Embedder,
    gold_is_oos: list[bool] | None = None,
    threshold_override: float | None = None,
) -> list[OOSPrediction]:
    """Flag queries whose best-prototype similarity falls below a threshold.

    The threshold is mean (or mean minus population std) of the max
    similarities over the configured population; strictly below flags
    out-of-scope. TEST_IN_ONLY restricts the statistics to in-scope gold
    queries and therefore needs ``gold_is_oos``.
    """
    if len(queries) < 2:
        raise ValueError("need at least 2 queries to form threshold statistics")
    labels, sims = _max_sims(queries, protos, embedder)
    if threshold_override is not None:
        threshold = threshold_override
    else:
        if cfg.stats_population is StatsPopulation.TEST_IN_ONLY:
            if gold_is_oos is None:
                raise ValueError("TEST_IN_ONLY statistics need gold_is_oos")
            pop = sims[~np.array(gold_is_oos)]
            if not pop.size:
                raise ValueError("TEST_IN_ONLY statistics need at least one in-scope query")
        else:
            pop = sims
        mu = float(pop.mean())
        threshold = mu if cfg.threshold_rule is ThresholdRule.MEAN else mu - float(pop.std())
    return [
        OOSPrediction(is_oos=bool(s < threshold), label=None if s < threshold else int(l), max_sim=float(s))
        for l, s in zip(labels, sims)
    ]


def oos_metrics(gold: list[int], predictions: list[OOSPrediction]) -> EvalReport:
    """Four metrics over gold labels where OOS_LABEL (-1) marks out-of-scope.

    Accuracy: full-task correctness (right label for in-scope, flagged for
    OOS). In-Accuracy: the same restricted to in-scope gold. OOS-Accuracy:
    correctness of the binary in/out decision. OOS-Recall: flagged
    fraction of gold OOS.
    """
    if len(gold) != len(predictions):
        raise ValueError(f"gold has {len(gold)} items, predictions {len(predictions)}")
    n = len(gold)
    correct = in_correct = binary_correct = oos_flagged = 0
    n_in = n_oos = 0
    for g, p in zip(gold, predictions):
        if g == OOS_LABEL:
            n_oos += 1
            if p.is_oos:
                correct += 1
                binary_correct += 1
                oos_flagged += 1
        else:
            n_in += 1
            if not p.is_oos:
                binary_correct += 1
                if p.label == g:
                    correct += 1
                    in_correct += 1
    metrics = {
        "Accuracy": correct / n,
        "In-Accuracy": in_correct / n_in if n_in else 0.0,
        "OOS-Accuracy": binary_correct / n,
        "OOS-Recall": oos_flagged / n_oos if n_oos else 0.0,
    }
    return EvalReport(task="oos_detection", metrics=metrics, support=n)


def rank_topk(
    queries: list[str],
    gold_responses: list[str],
    pool: list[str],
    embedder: Embedder,
    k_values: tuple[int, ...] = (1, 3, 10),
    n_candidates: int = 100,
    seed: int = 0,
) -> EvalReport:
    """Top-k-of-N response selection.

    Each query ranks its gold response against n_candidates-1 distractors
    sampled without replacement from the pool (entries textually equal to
    the gold are excluded first). Ties rank the gold last.
    """
    if len(queries) != len(gold_responses):
        raise ValueError("queries and gold_responses must be aligned")
    rng = np.random.default_rng(seed)
    q_emb = embedder(queries)
    gold_emb = embedder(gold_responses)
    pool_emb = embedder(pool)
    pool_texts = np.array(pool, dtype=object)
    ranks = np.empty(len(queries), dtype=np.intp)
    for qi, gold in enumerate(gold_responses):
        available = np.flatnonzero(pool_texts != gold)
        if len(available) < n_candidates - 1:
            raise ValueError(
                f"pool has {len(available)} usable entries, need {n_candidates - 1}"
            )
        chosen = available[rng.choice(len(available), size=n_candidates - 1, replace=False)]
        sims = cosines(q_emb[qi], np.vstack([gold_emb[qi:qi + 1], pool_emb[chosen]]))
        ranks[qi] = 1 + np.count_nonzero(sims[1:] >= sims[0])  # ties pessimistic against gold
    n = len(queries)
    metrics = {f"Top-{k}": int(np.count_nonzero(ranks <= k)) / n for k in k_values}
    return EvalReport(task="response_selection", metrics=metrics, support=n, seed=seed)


def nli_probe(triples: list[tuple[str, str, str]], embedder: Embedder) -> float:
    """Fraction of (anchor, entailment, contradiction) triples where the
    entailment is strictly closer to the anchor by cosine; ties incorrect."""
    if not triples:
        raise ValueError("need at least one triple")
    X = embedder([text for triple in triples for text in triple])
    anchors, ents, cons = X[0::3], X[1::3], X[2::3]
    return int(np.count_nonzero(cosines(anchors, ents) > cosines(anchors, cons))) / len(triples)


def format_dialogue_history(turns: list[Turn], max_tokens: int = 32) -> str:
    """Render turns as "[SYS] text [USR] text ...", newest-biased truncation.

    When the rendered string exceeds max_tokens whitespace tokens, words
    are cut from the head so the most recent utterances survive. (Every
    whitespace word is exactly one token for the hashing tokenizer.)
    """
    if not turns:
        raise ValueError("need at least one turn")
    parts = []
    for t in turns:
        marker = SYS_TOKEN if t.speaker is Speaker.SYS else USR_TOKEN
        parts.append(f"{marker} {t.text}")
    rendered = " ".join(parts)
    words = rendered.split()
    if len(words) > max_tokens:
        words = words[-max_tokens:]
    return " ".join(words)


@dataclass
class ActionProbe:
    W: np.ndarray  # d x num_labels
    b: np.ndarray  # num_labels
    losses: list[float] = field(default_factory=list)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def probe_loss_and_grad(
    X: np.ndarray, Y: np.ndarray, W: np.ndarray, b: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean binary cross-entropy of sigmoid(XW + b) against 0/1 targets."""
    n, L = Y.shape
    Z = X @ W + b
    P = _sigmoid(Z)
    # log-loss via logaddexp for stability: BCE = log(1+e^z) - y*z
    loss = float(np.mean(np.logaddexp(0.0, Z) - Y * Z))
    G = (P - Y) / (n * L)
    return loss, X.T @ G, G.sum(axis=0)


def train_action_probe(
    train: list[tuple[str, np.ndarray]],
    embedder: Embedder,
    num_labels: int,
    epochs: int = 200,
    lr: float = 1.0,
    seed: int = 0,
) -> ActionProbe:
    """Fit a zero-initialized linear multi-label probe on frozen embeddings.

    Full-batch gradient descent on BCE; with zero epochs the probe scores
    every label at exactly 0.5.
    """
    if not train or num_labels < 1:
        raise ValueError("need at least one example and one label")
    X = embedder([t for t, _ in train]).astype(np.float64)
    Y = np.stack([y for _, y in train]).astype(np.float64)
    if Y.shape[1] != num_labels:
        raise ValueError(f"label bitsets have width {Y.shape[1]}, expected {num_labels}")
    W = np.zeros((X.shape[1], num_labels))
    b = np.zeros(num_labels)
    probe = ActionProbe(W=W, b=b)
    for _ in range(epochs):
        loss, dW, db = probe_loss_and_grad(X, Y, W, b)
        probe.losses.append(loss)
        W -= lr * dW
        b -= lr * db
    return probe


def predict_actions(probe: ActionProbe, texts: list[str], embedder: Embedder) -> np.ndarray:
    """Multi-label predictions at the 0.5 decision threshold, as a 0/1 array."""
    X = embedder(texts).astype(np.float64)
    return (_sigmoid(X @ probe.W + probe.b) > 0.5).astype(np.int8)


def f1_scores(gold: np.ndarray, pred: np.ndarray) -> tuple[float, float]:
    """(micro F1, macro F1) over aligned 0/1 label matrices.

    Macro convention: a label with no gold and no predicted positives
    contributes F1 = 1; a label with TP = 0 but any FP or FN contributes 0.
    """
    gold = np.asarray(gold)
    pred = np.asarray(pred)
    if gold.shape != pred.shape:
        raise ValueError(f"shape mismatch: gold {gold.shape}, pred {pred.shape}")
    tp = ((gold == 1) & (pred == 1)).sum(axis=0)
    fp = ((gold == 0) & (pred == 1)).sum(axis=0)
    fn = ((gold == 1) & (pred == 0)).sum(axis=0)

    tp_all, fp_all, fn_all = tp.sum(), fp.sum(), fn.sum()
    micro = 2 * tp_all / (2 * tp_all + fp_all + fn_all) if (2 * tp_all + fp_all + fn_all) else 1.0

    per_label = []
    for t, f_p, f_n in zip(tp, fp, fn):
        if t == 0 and f_p == 0 and f_n == 0:
            per_label.append(1.0)
        elif t == 0:
            per_label.append(0.0)
        else:
            per_label.append(2 * t / (2 * t + f_p + f_n))
    return float(micro), float(np.mean(per_label))


def save_embeddings(embeddings: np.ndarray, texts: list[str], path: str | Path, sidecar: str | Path) -> None:
    """Write "<n> <dim>" then one space-separated row per line, plus a
    line-aligned sidecar of the source texts. Decimal repr roundtrips exactly."""
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.shape[0] != len(texts):
        raise ValueError("embeddings and texts must be aligned")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{emb.shape[0]} {emb.shape[1]}\n")
        for row in emb:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    with open(sidecar, "w", encoding="utf-8") as fh:
        for text in texts:
            fh.write(text.replace("\n", " ") + "\n")


class EmbeddingFileError(ValueError):
    pass


def load_embeddings(path: str | Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(x.isdecimal() for x in header):
            raise EmbeddingFileError(f"line 1: expected '<n> <dim>', got {' '.join(header)!r}")
        n, dim = (int(x) for x in header)
        rows = []
        for lineno, line in enumerate(fh, start=2):
            values = line.split()
            if len(values) != dim:
                raise EmbeddingFileError(f"line {lineno}: expected {dim} values, got {len(values)}")
            try:
                rows.append([float(v) for v in values])
            except ValueError as exc:
                raise EmbeddingFileError(f"line {lineno}: {exc}") from None
    if len(rows) != n:
        raise EmbeddingFileError(f"header says {n} rows, file has {len(rows)}")
    return np.array(rows, dtype=np.float64)


def load_labeled_tsv(path: str | Path) -> LabeledSet:
    """Single-label TSV: text<TAB>label_name per line."""
    items = [(text, label) for text, label in read_tsv(path, 2, text_fields=1)]
    names = sorted({label for _, label in items})
    index = {name: i for i, name in enumerate(names)}
    return LabeledSet(
        items=tuple((text, index[label]) for text, label in items),
        label_names=tuple(names),
    )


def load_multilabel_tsv(path: str | Path) -> tuple[list[tuple[str, np.ndarray]], list[str]]:
    """Multi-label TSV: text<TAB>l1,l2,... per line; returns bitset rows."""
    raw = [(text, [l for l in labels.split(",") if l]) for text, labels in read_tsv(path, 2, text_fields=1)]
    names = sorted({l for _, labels in raw for l in labels})
    index = {name: i for i, name in enumerate(names)}
    out = []
    for text, labels in raw:
        bits = np.zeros(len(names), dtype=np.int8)
        for l in labels:
            bits[index[l]] = 1
        out.append((text, bits))
    return out, names


def load_nli_tsv(path: str | Path) -> list[tuple[str, str, str]]:
    """NLI triple TSV: anchor<TAB>entailment<TAB>contradiction per line."""
    return [tuple(fields) for fields in read_tsv(path, 3)]
