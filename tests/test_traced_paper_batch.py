"""The benchmark's tracer around a paper-batch training run, whose loss passes run on every CPU.

The tracer keeps one stack of open spans, so a span opened or closed from another
thread would close out of order; ``Tracer.end`` raises when one does.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import dse.loss
from dse import trainer
from dse.encoder import EncoderConfig
from dse.loss import LossConfig
from dse.pairs import TrainPair
from tracing import SpanTree, Tracer


@pytest.fixture
def traced():
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_spans_close_in_order_at_paper_batch(traced, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    executors = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            executors.append(self)

    monkeypatch.setattr(dse.loss, "ThreadPoolExecutor", Counted)
    pairs = [TrainPair(query=f"query {i} about topic {i % 7}", response=f"reply {i} on topic {i % 7}")
             for i in range(2 * 1024)]
    train_cfg = replace(trainer.paper_preset(), epochs=1)
    trainer.train(pairs, EncoderConfig(vocab_size=4096, head_out=128), LossConfig(), train_cfg)

    assert any(e._threads for e in executors)  # the loss passes ran on a worker too
    assert not any(t.is_alive() for e in executors for t in e._threads)
    spans = traced.spans
    tree = SpanTree(spans)
    steps = tree.named("trainer.adam_step")
    assert len(steps) == 2
    assert all(spans[i].attrs["rows"] == 2048 for i in tree.named("loss.sim_matrix"))
    assert len(tree.named("loss.sim_matrix")) == 2 * len(steps)
    assert not traced._stack
    for s in spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
