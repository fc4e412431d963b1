"""Similarity-based evaluation harness over frozen evaluation-view embeddings.

Tasks: prototypical few-shot intent classification, out-of-scope
detection with mean / mean-minus-std thresholds, top-k-of-N response
selection, an entail-vs-contradict cosine probe, multi-label action
prediction via a frozen-encoder linear probe, and micro/macro F1.

Every function takes an ``embedder``: a callable mapping a list of texts
to an (n, d) array. All tie-breaking rules are deterministic and
conservative: argmax ties go to the smallest label id, ranking ties count
against the gold response, and probe ties count as incorrect.

Labels are int ids, and OOS_LABEL (-1) marks out-of-scope in gold and in
predictions alike: ``detect_oos`` returns one int array of predicted
labels, which ``oos_metrics`` compares with gold in whole-array passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import read_lines, read_tsv
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
    labels: np.ndarray  # sorted int label ids
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
    """One prototype per label: the plain mean of its support embeddings.

    The rows are summed in support order from +0.0 and divided by the group
    size in float64, as ``mean`` does, so each prototype is byte-equal to
    ``emb[labels == l].mean(axis=0)``.
    """
    if not support.items:
        raise ValueError("support set is empty")
    emb = embedder([t for t, _ in support.items])
    labels, group = np.unique([l for _, l in support.items], return_inverse=True)
    sums = np.zeros((len(labels), emb.shape[1]), dtype=emb.dtype)
    np.add.at(sums, group, emb)
    vectors = (sums / np.bincount(group)[:, None].astype(np.float64)).astype(emb.dtype, copy=False)
    return PrototypeSet(labels=labels, vectors=vectors)


def _max_sims(queries: list[str], protos: PrototypeSet, embedder: Embedder) -> tuple[np.ndarray, np.ndarray]:
    """Per query: (best label, similarity to best prototype); ties -> smallest label id."""
    sims = cosines(embedder(queries)[:, None], protos.vectors[None])
    best = sims.argmax(axis=1)  # argmax takes the first maximum; labels are sorted ascending
    return protos.labels[best], sims[np.arange(len(queries)), best]


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
) -> np.ndarray:
    """Predicted label per query, OOS_LABEL where its best-prototype similarity
    falls strictly below a threshold.

    The threshold is mean (or mean minus population std) of the max
    similarities over the configured population. TEST_IN_ONLY restricts the
    statistics to in-scope gold queries and therefore needs ``gold_is_oos``.
    """
    if len(queries) < 2:
        raise ValueError("need at least 2 queries to form threshold statistics")
    in_only = cfg.stats_population is StatsPopulation.TEST_IN_ONLY
    if in_only and gold_is_oos is None:
        raise ValueError("TEST_IN_ONLY statistics need gold_is_oos")
    if in_only and len(gold_is_oos) != len(queries):
        raise ValueError(f"gold_is_oos has {len(gold_is_oos)} items, queries {len(queries)}")
    labels, sims = _max_sims(queries, protos, embedder)
    if in_only:
        pop = sims[~np.array(gold_is_oos)]
        if not pop.size:
            raise ValueError("TEST_IN_ONLY statistics need at least one in-scope query")
    else:
        pop = sims
    mu = float(pop.mean())
    threshold = mu if cfg.threshold_rule is ThresholdRule.MEAN else mu - float(pop.std())
    return np.where(sims < threshold, OOS_LABEL, labels)


def oos_metrics(gold: list[int], predicted: list[int] | np.ndarray) -> EvalReport:
    """Four metrics over gold and predicted labels where OOS_LABEL (-1) marks out-of-scope.

    Accuracy: full-task correctness (right label for in-scope, flagged for
    OOS). In-Accuracy: the same restricted to in-scope gold. OOS-Accuracy:
    correctness of the binary in/out decision. OOS-Recall: flagged
    fraction of gold OOS.
    """
    if len(gold) != len(predicted) or not len(gold):
        raise ValueError(f"gold has {len(gold)} items, predictions {len(predicted)}; "
                         "they need the same number, at least one")
    gold, pred = np.asarray(gold), np.asarray(predicted)
    gold_oos, flagged = gold == OOS_LABEL, pred == OOS_LABEL
    right = gold == pred
    n, n_oos = len(gold), int(np.count_nonzero(gold_oos))
    n_in = n - n_oos
    metrics = {
        "Accuracy": int(np.count_nonzero(right)) / n,
        "In-Accuracy": int(np.count_nonzero(right & ~gold_oos)) / n_in if n_in else 0.0,
        "OOS-Accuracy": int(np.count_nonzero(gold_oos == flagged)) / n,
        "OOS-Recall": int(np.count_nonzero(flagged & gold_oos)) / n_oos if n_oos else 0.0,
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

    Each distinct text of queries, golds and pool is embedded once, in one
    call, in order of first use.
    """
    if len(queries) != len(gold_responses):
        raise ValueError("queries and gold_responses must be aligned")
    if not queries:
        raise ValueError("need at least one query")
    if n_candidates < 2:
        raise ValueError(f"n_candidates must be >= 2, got {n_candidates}")
    rng = np.random.default_rng(seed)
    index = {text: i for i, text in enumerate(dict.fromkeys([*queries, *gold_responses, *pool]))}
    X = embedder(list(index))
    pool_rows = np.array([index[text] for text in pool], dtype=np.intp)
    ranks = np.empty(len(queries), dtype=np.intp)
    for qi, (query, gold) in enumerate(zip(queries, gold_responses)):
        gold_row = index[gold]
        available = np.flatnonzero(pool_rows != gold_row)
        if len(available) < n_candidates - 1:
            raise ValueError(
                f"pool has {len(available)} usable entries, need {n_candidates - 1}"
            )
        chosen = available[rng.choice(len(available), size=n_candidates - 1, replace=False)]
        sims = cosines(X[index[query]], X[np.concatenate(([gold_row], pool_rows[chosen]))])
        ranks[qi] = 1 + np.count_nonzero(sims[1:] >= sims[0])  # ties pessimistic against gold
    n = len(queries)
    metrics = {f"Top-{k}": int(np.count_nonzero(ranks <= k)) / n for k in k_values}
    return EvalReport(task="response_selection", metrics=metrics, support=n, seed=seed)


def nli_probe(triples: list[tuple[str, str, str]], embedder: Embedder) -> float:
    """Fraction of (anchor, entailment, contradiction) triples where the
    entailment is strictly closer to the anchor by cosine; ties incorrect.

    Each distinct text is embedded once, in one call, in order of first use.
    """
    if not triples:
        raise ValueError("need at least one triple")
    texts = [text for triple in triples for text in triple]
    index = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    X = embedder(list(index))[[index[text] for text in texts]]
    anchors, ents, cons = X[0::3], X[1::3], X[2::3]
    return int(np.count_nonzero(cosines(anchors, ents) > cosines(anchors, cons))) / len(triples)


@dataclass
class ActionProbe:
    W: np.ndarray  # d x num_labels
    b: np.ndarray  # num_labels


def _sigmoid_into(z: np.ndarray, e: np.ndarray, pos: np.ndarray) -> None:
    """Overwrite z with its logistic sigmoid; e and pos are scratch arrays of z's shape.

    Branch-free: e = exp(-|z|) is e^-z where z >= 0 and e^z elsewhere, so
    e' / (1 + e) with e' = 1 where z >= 0 is 1/(1+e^-z) there and e^z/(1+e^z)
    elsewhere, neither of which can overflow. -|z| is taken as min(z, -z),
    which returns a NaN z as it is, sign included.
    """
    np.greater_equal(z, 0.0, out=pos)
    np.negative(z, out=e)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    np.add(e, 1.0, out=z)
    np.copyto(e, 1.0, where=pos)
    np.divide(e, z, out=z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = z.copy()
    _sigmoid_into(out, np.empty_like(z), np.empty(z.shape, dtype=bool))
    return out


def train_action_probe(
    train: list[tuple[str, np.ndarray]],
    embedder: Embedder,
    num_labels: int,
    epochs: int = 200,
    lr: float = 1.0,
) -> ActionProbe:
    """Fit a zero-initialized linear multi-label probe on frozen embeddings.

    Full-batch gradient descent on the mean BCE of sigmoid(XW + b), whose
    gradient is X^T G and the column sums of G for G = (P - Y) / (n L). Each
    epoch reuses buffers made once per fit. With zero epochs the probe scores
    every label at exactly 0.5.
    """
    if not train or num_labels < 1:
        raise ValueError("need at least one example and one label")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not (math.isfinite(lr) and lr > 0.0):
        raise ValueError(f"lr must be finite and positive, got {lr}")
    X = embedder([t for t, _ in train]).astype(np.float64)
    Y = np.stack([y for _, y in train]).astype(np.float64)
    if Y.shape[1] != num_labels:
        raise ValueError(f"label bitsets have width {Y.shape[1]}, expected {num_labels}")
    n, L = Y.shape
    W = np.zeros((X.shape[1], num_labels))
    b = np.zeros(num_labels)
    Z, e, pos = np.empty((n, L)), np.empty((n, L)), np.empty((n, L), dtype=bool)
    dW, db = np.empty_like(W), np.empty_like(b)
    for _ in range(epochs):
        np.matmul(X, W, out=Z)
        Z += b
        _sigmoid_into(Z, e, pos)
        Z -= Y
        Z /= n * L
        np.matmul(X.T, Z, out=dW)
        np.sum(Z, axis=0, out=db)
        dW *= lr
        W -= dW
        db *= lr
        b -= db
    return ActionProbe(W=W, b=b)


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

    # 2TP / (2TP + FP + FN) for each label, then for all labels at once; 1 where there is no positive.
    num = np.append(2 * tp, 2 * tp.sum())
    den = num + np.append(fp + fn, (fp + fn).sum())
    f1 = np.divide(num, den, out=np.ones(len(den)), where=den > 0)
    return float(f1[-1]), float(f1[:-1].mean())


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
    lines = read_lines(path, EmbeddingFileError)
    header = lines[0].split() if lines else []
    if len(header) != 2 or not all(x.isascii() and x.isdigit() for x in header):
        raise EmbeddingFileError(f"{path}: line 1: expected '<n> <dim>', got {' '.join(header)!r}")
    n, dim = (int(x) for x in header)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        values = line.split()
        if len(values) != dim:
            raise EmbeddingFileError(f"{path}: line {lineno}: expected {dim} values, got {len(values)}")
        try:
            rows.append([float(v) for v in values])
        except ValueError as exc:
            raise EmbeddingFileError(f"{path}: line {lineno}: {exc}") from None
    if len(rows) != n:
        raise EmbeddingFileError(f"{path}: header says {n} rows, file has {len(rows)}")
    return np.array(rows, dtype=np.float64).reshape(n, dim)


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
    bits = np.zeros((len(raw), len(names)), dtype=np.int8)
    row_ids = [i for i, (_, labels) in enumerate(raw) for _ in labels]
    bits[row_ids, [index[l] for _, labels in raw for l in labels]] = 1
    return [(text, row) for (text, _), row in zip(raw, bits)], names


def load_nli_tsv(path: str | Path) -> list[tuple[str, str, str]]:
    """NLI triple TSV: anchor<TAB>entailment<TAB>contradiction per line."""
    return [tuple(fields) for fields in read_tsv(path, 3)]
