"""In-memory span tracing for the benchmark's traced run (``--trace 1``).

Spans are recorded from the benchmark's side: a wrapper replaces a function
on the module attribute that its caller looks up at call time. The library
modules bind names at import (``dse.trainer`` holds its own reference to
``forward_train``), so each wrapper is installed on the importing module,
not on the defining one. Spans stay in memory and are reduced to per-layer
metrics when the run ends.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

# (module, attribute, span name, attrs_fn). attrs_fn(args, kwargs) returns
# counters recorded on the span; it must be cheap (no copies of the data).
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("dse.corpus", "gen_synthetic", "corpus.gen_synthetic", None),
    ("dse.pairs", "build_pairs", "pairs.build_pairs", None),
    ("dse.trainer", "train", "trainer.train", None),
    ("dse.trainer", "init_model", "encoder.init_model", None),
    ("dse.trainer", "init_adam_state", "trainer.init_adam_state", None),
    ("dse.trainer", "tokenize_texts", "encoder.tokenize_texts", lambda a, k: {"texts": a[0]}),
    ("dse.trainer", "make_batches", "trainer.make_batches", None),
    ("dse.trainer", "forward_train", "encoder.forward_train", None),
    ("dse.trainer", "batch_loss_and_grad", "loss.batch_loss_and_grad", None),
    ("dse.trainer", "adam_step", "trainer.adam_step", None),
    ("dse.trainer", "save_checkpoint", "trainer.save_checkpoint", None),
    ("dse.trainer", "load_checkpoint", "trainer.load_checkpoint", None),
    ("dse.loss", "batch_loss", "loss.batch_loss", None),
    ("dse.loss", "compute_alpha", "loss.compute_alpha", None),
    ("dse.loss", "sim_matrix", "loss.sim_matrix", lambda a, k: {"rows": a[0].shape[0]}),
    ("dse.loss", "backward", "encoder.backward", None),
    ("dse.encoder", "embed_texts", "encoder.embed_texts", lambda a, k: {"texts": a[1]}),
    ("dse.evaluation", "detect_oos", "evaluation.detect_oos", None),
    ("dse.evaluation", "rank_topk", "evaluation.rank_topk", lambda a, k: {"queries": len(a[0])}),
    ("dse.evaluation", "nli_probe", "evaluation.nli_probe", None),
    ("dse.evaluation", "train_action_probe", "evaluation.train_action_probe", None),
]

# The benchmark's eval operations; the traced run names each one's span "bench.<op>".
EVAL_OPS = ("embed", "oos", "rank", "nli", "actions")

# Tracer bookkeeping that costs real time is recorded under this prefix, so
# that it is neither charged to a layer nor counted as unattributed time.
BOOKKEEPING = "trace."

# Percentiles tried for the tail of a timing distribution, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``install``/``uninstall`` swap the wrappers in and out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name=name, start=time.perf_counter(), parent=parent, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")

    def _wrap(self, fn: Callable, name: str, attrs_fn: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn else {}
            idx = self.begin(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if name == "trainer.adam_step":
                self._count_touched_rows(idx, args[1])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_touched_rows(self, idx: int, grads) -> None:
        book = self.begin(BOOKKEEPING + "touched_rows")
        touched = int(grads.E.any(axis=1).sum())
        self.end(book)
        self.spans[idx].attrs.update(touched_rows=touched, vocab=grads.E.shape[0])

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span_name, attrs_fn in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, attrs_fn))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(spans: list[Span], idx: int, children: dict[int, list[int]]) -> float:
    """Span duration minus the part of its interval that its child spans cover."""
    s = spans[idx]
    kids = [(spans[c].start, spans[c].end) for c in children.get(idx, [])]
    return s.duration - covered(kids, s.start, s.end)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    ``MIN_BEYOND`` samples beyond it; the median when none qualifies."""
    if not samples:
        raise ValueError("no samples")
    n = len(samples)
    best = 50.0
    for pct in TAIL_LADDER:
        if n - _rank(n, pct) >= MIN_BEYOND:
            best = pct
    return best, percentile(samples, best)


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    return sorted(samples)[_rank(len(samples), pct) - 1]


def _rank(n: int, pct: float) -> int:
    """Nearest-rank position (1-based) of the pct-th percentile of n samples."""
    return max(1, min(n, math.ceil(round(n * pct / 100, 9))))


class SpanTree:
    """Parent/child index over a finished list of spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(i)

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def descendants(self, idx: int, name: str) -> list[int]:
        out, todo = [], list(self.children.get(idx, []))
        while todo:
            i = todo.pop()
            if self.spans[i].name == name:
                out.append(i)
            todo.extend(self.children.get(i, []))
        return sorted(out)

    def self_time(self, idx: int) -> float:
        return self_time(self.spans, idx, self.children)

    def per_unit(self, unit: str, fn: Callable[[int], float]) -> float:
        """Median over the spans named ``unit`` of fn(unit span index)."""
        values = [fn(u) for u in self.named(unit)]
        if not values:
            raise ValueError(f"no {unit!r} spans were traced")
        return statistics.median(values)

    def total(self, unit: str, name: str, self_only: bool = False) -> float:
        """Median per unit of the summed (self) time of ``name`` spans inside it."""
        measure = self.self_time if self_only else (lambda i: self.spans[i].duration)
        return self.per_unit(unit, lambda u: sum(measure(i) for i in self.descendants(u, name)))


def _unique_ratio(text_lists: list[list[str]]) -> float:
    texts = [t for texts in text_lists for t in texts]
    return len(set(texts)) / len(texts)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce the traced spans to the benchmark's per-layer metrics.

    Training layers are summed per ``trainer.train`` call, eval layers per
    eval operation and set-up layers per ``bench.setup``; each metric is the
    median over those units. Embedding is summed over one of each eval
    operation.
    """
    tree = SpanTree(spans)
    sp = tree.spans
    train, setup = "trainer.train", "bench.setup"

    def inside(u: int, name: str) -> list[Span]:
        return [sp[i] for i in tree.descendants(u, name)]

    def booked(u: int) -> float:
        return sum(sp[c].duration for c in tree.children.get(u, []) if sp[c].name.startswith(BOOKKEEPING))

    def coverage(u: int) -> float:
        # Tracer bookkeeping is taken out of the wall time, not counted as covered.
        return (sp[u].duration - tree.self_time(u) - booked(u)) / (sp[u].duration - booked(u))

    def embedded_per_query(u: int) -> float:
        texts = sum(len(s.attrs["texts"]) for s in inside(u, "encoder.embed_texts"))
        return texts / sum(r.attrs["queries"] for r in inside(u, "evaluation.rank_topk"))

    def per_eval_pass(fn: Callable[[int], float]) -> float:
        return sum(tree.per_unit("bench." + op, fn) for op in EVAL_OPS)

    steps_ms: list[float] = []
    for u in tree.named(train):
        ends = [s.end for s in inside(u, "trainer.adam_step")]
        steps_ms += [1e3 * (b - a) for a, b in zip(ends, ends[1:])]
    tail_pct, tail_ms = tail_percentile(steps_ms)
    adam = [sp[i] for i in tree.named("trainer.adam_step")]
    sims = [sp[i] for i in tree.named("loss.sim_matrix")]

    return {
        "corpus.gen_synthetic.s": tree.total(setup, "corpus.gen_synthetic"),
        "pairs.build_pairs.s": tree.total(setup, "pairs.build_pairs"),
        "encoder.tokenize_texts.s": tree.total(train, "encoder.tokenize_texts"),
        "encoder.tokenize_texts.unique_ratio": tree.per_unit(
            train, lambda u: _unique_ratio([s.attrs["texts"] for s in inside(u, "encoder.tokenize_texts")])),
        "encoder.forward_train.s": tree.total(train, "encoder.forward_train"),
        "encoder.backward.s": tree.total(train, "encoder.backward"),
        "encoder.embed_texts.s": per_eval_pass(
            lambda u: sum(s.duration for s in inside(u, "encoder.embed_texts"))),
        "encoder.embed_texts.texts": per_eval_pass(
            lambda u: sum(len(s.attrs["texts"]) for s in inside(u, "encoder.embed_texts"))),
        "loss.batch_loss.self_s": tree.total(train, "loss.batch_loss", self_only=True),
        "loss.compute_alpha.s": tree.total(train, "loss.compute_alpha"),
        "loss.batch_loss_and_grad.self_s": tree.total(train, "loss.batch_loss_and_grad", self_only=True),
        "loss.sim_matrix.calls_per_step": tree.per_unit(
            train, lambda u: len(inside(u, "loss.sim_matrix")) / len(inside(u, "trainer.adam_step"))),
        "loss.sim_matrix.bytes": statistics.median(8 * s.attrs["rows"] ** 2 for s in sims),
        "trainer.adam_step.s": tree.total(train, "trainer.adam_step"),
        "trainer.adam_step.touched_row_ratio": statistics.median(
            s.attrs["touched_rows"] / s.attrs["vocab"] for s in adam),
        "trainer.step_ms_p50": percentile(steps_ms, 50.0),
        "trainer.step_ms_tail": tail_ms,
        "trainer.step_ms_tail_pct": tail_pct,
        "trainer.step_ms_samples": len(steps_ms),
        "trainer.train.self_s": tree.per_unit(train, tree.self_time),
        "trainer.train.child_coverage": tree.per_unit(train, coverage),
        "trainer.save_checkpoint.s": statistics.median(sp[i].duration for i in tree.named("trainer.save_checkpoint")),
        "trainer.load_checkpoint.s": statistics.median(sp[i].duration for i in tree.named("trainer.load_checkpoint")),
        "evaluation.rank_topk.self_s": tree.total("bench.rank", "evaluation.rank_topk", self_only=True),
        "evaluation.rank_topk.embedded_per_query": tree.per_unit("bench.rank", embedded_per_query),
        "evaluation.rank_topk.unique_ratio": tree.per_unit(
            "bench.rank", lambda u: _unique_ratio([s.attrs["texts"] for s in inside(u, "encoder.embed_texts")])),
        "evaluation.detect_oos.self_s": tree.total("bench.oos", "evaluation.detect_oos", self_only=True),
        "evaluation.nli_probe.self_s": tree.total("bench.nli", "evaluation.nli_probe", self_only=True),
        "evaluation.nli_probe.embed_calls": tree.per_unit(
            "bench.nli", lambda u: len(inside(u, "encoder.embed_texts"))),
        "evaluation.train_action_probe.self_s": tree.total(
            "bench.actions", "evaluation.train_action_probe", self_only=True),
        "trace.bookkeeping.s": tree.per_unit(train, booked),
    }

