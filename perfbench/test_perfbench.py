"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
from dse import trainer  # noqa: E402
from tracing import Span, SpanTree, tail_percentile  # noqa: E402


def test_self_time_of_hand_built_span_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),      # overlaps a: the union 1..6 counts once
        Span("a.child", 2.0, 3.5, parent=1),  # a grandchild does not reduce root
        Span("c", 9.0, 12.0, parent=0),     # only the part inside root counts
    ]
    tree = SpanTree(spans)
    assert tree.self_time(0) == pytest.approx(10.0 - 5.0 - 1.0)
    assert tree.self_time(1) == pytest.approx(3.0 - 1.5)
    assert tree.self_time(3) == pytest.approx(1.5)
    assert tree.descendants(0, "a.child") == [3]


def test_total_sums_self_time_per_unit_and_takes_the_median():
    spans = [
        Span("unit", 0.0, 10.0),
        Span("layer", 0.0, 4.0, parent=0),
        Span("inner", 1.0, 2.0, parent=1),
        Span("layer", 5.0, 6.0, parent=0),
        Span("unit", 20.0, 21.0),
        Span("layer", 20.0, 20.5, parent=4),
        Span("unit", 30.0, 40.0),
        Span("layer", 30.0, 39.0, parent=6),
    ]
    tree = SpanTree(spans)
    # per unit: 5.0, 0.5, 9.0 in total; 4.0, 0.5, 9.0 in self time
    assert tree.total("unit", "layer") == pytest.approx(5.0)
    assert tree.total("unit", "layer", self_only=True) == pytest.approx(4.0)


@pytest.mark.parametrize("n, pct", [
    (1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = [float(v) for v in np.random.default_rng(n).permutation(n) + 1]
    got_pct, value = tail_percentile(samples)
    assert got_pct == pct
    assert sum(s > value for s in samples) >= tracing.MIN_BEYOND or pct == 50.0
    assert value in samples


def test_tail_value_is_nearest_rank():
    samples = [float(v) for v in range(1, 101)]
    assert tail_percentile(samples) == (90.0, 90.0)
    assert tracing.percentile(samples, 50.0) == 50.0


def _flat(inputs: bench.EvalInputs) -> dict:
    out = {k: v for k, v in vars(inputs).items() if k not in ("probe_train", "probe_test", "support")}
    out["support"] = inputs.support.items
    for k in ("probe_train", "probe_test"):
        out[k] = [(t, y.tolist()) for t, y in getattr(inputs, k)]
    return out


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    w = bench.WORKLOADS[name]
    pairs_a, eval_a = bench.make_inputs(w, seed=3)
    pairs_b, eval_b = bench.make_inputs(w, seed=3)
    pairs_c, eval_c = bench.make_inputs(w, seed=4)
    assert pairs_a == pairs_b and _flat(eval_a) == _flat(eval_b)
    assert pairs_a != pairs_c and _flat(eval_a) != _flat(eval_c)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_oos_topic_is_disjoint_from_training_topics(name):
    w = bench.WORKLOADS[name]
    train_pairs, x = bench.make_inputs(w, seed=0)
    train_words = {word for p in train_pairs for word in (p.query + " " + p.response).split()}
    oos = [q for q, g in zip(x.oos_queries, x.oos_gold) if g == bench.ev.OOS_LABEL]
    assert oos, "the held-out topic has utterances"
    oos_words = {word for q in oos for word in q.split()}
    assert not oos_words & train_words
    in_scope_words = {word for t, _ in x.support.items for word in t.split()}
    assert in_scope_words <= train_words
    assert set(x.oos_gold) == set(range(bench.TOPICS)) | {bench.ev.OOS_LABEL}


def test_tracer_records_nested_spans_and_restores_the_modules():
    w = bench.WORKLOADS["train-default"]
    train_pairs, _ = bench.make_inputs(w, seed=0)
    enc_cfg, loss_cfg, train_cfg = bench.configs(w, seed=0)
    original = trainer.forward_train
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert trainer.forward_train is not original
        trainer.train(train_pairs[:300], enc_cfg, loss_cfg, train_cfg)
    finally:
        tracer.uninstall()
    assert trainer.forward_train is original
    tree = SpanTree(tracer.spans)
    (root,) = tree.named("trainer.train")
    steps = tree.descendants(root, "trainer.adam_step")
    assert len(steps) == 3  # 300 pairs at batch 128: two full batches and one of 44
    assert len(tree.descendants(root, "loss.sim_matrix")) == 2 * len(steps)
    assert all(tracer.spans[i].attrs["touched_rows"] > 0 for i in steps)
