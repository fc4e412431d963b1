"""Property tests for how the loss cuts a batch: the 256-row gemm chunks, the row blocks,
the occupied-column side choice of the gradient product and the runs per CPU.

Each of these depends on n, so hand-picked sizes pin only some of the cuts. Here
hypothesis draws the batch size up to past the paper batch, along with the width, the
weighting, the shape of the rows and the CPU count, and holds ``batch_loss`` to the
whole-array reference byte for byte, at every CPU count, and to the textbook form
within float64 rounding.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dse.loss import LossConfig, TrainBatch, batch_loss
from test_loss import peaked_rows, reference_loss_and_grad, textbook_loss_and_grad

# Of each row's gradient norm, and of the loss: the bound of ``TestDeclaredKernels``.
TOL = 1e-12


@st.composite
def batches(draw):
    """(embeddings, hard_negatives): an even n in [4, 2100], d in {8, 64, 128} (8 above 512 rows),
    and rows spread (standard normal, float64) or peaked (near or exact twins, float32)."""
    n = 2 * draw(st.integers(2, 1050))
    d = 8 if n > 512 else draw(st.sampled_from([8, 64, 128]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["spread", "peaked"])) == "spread":
        emb = rng.normal(size=(n, d))
    else:
        emb = peaked_rows(rng, n // 2, d, noise=draw(st.sampled_from([0.0, 1e-3])))
    return emb, draw(st.booleans())


def loss_and_grad(emb, cfg, cpus):
    """``batch_loss``'s loss and gradient with ``cpus`` CPUs to run on."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return batch_loss(TrainBatch(emb), cfg, with_grad=True)


@settings(derandomize=True, max_examples=24, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches(), st.integers(2, 3))
def test_loss_bytes_do_not_depend_on_the_partition(case, cpus):
    emb, hard = case
    cfg = LossConfig(hard_negatives=hard)
    loss, grad = loss_and_grad(emb, cfg, cpus)
    one_loss, one_grad = loss_and_grad(emb, cfg, 1)
    assert loss == one_loss and grad.tobytes() == one_grad.tobytes()
    want_loss, want_grad = reference_loss_and_grad(emb, cfg)
    assert loss == want_loss and grad.tobytes() == want_grad.tobytes()
    book_loss, book_grad = textbook_loss_and_grad(emb, cfg)
    assert abs(loss - book_loss) <= TOL * abs(book_loss)
    assert np.all(np.linalg.norm(grad - book_grad, axis=1) <= TOL * np.linalg.norm(book_grad, axis=1))
