"""Reference implementations that the tests check the library against.

Each is the plain form of a computation the library does another way:
``cosine_sim`` is one pair at a time, ``ntxent_reference`` is a per-anchor
loop, ``_negative_mask`` spells out which entries are negatives, and
``replay_forward`` reruns the train view with a tape's frozen dropout masks,
``flat`` lays out per-text id lists as the encoder takes them,
``tokenize_reference`` splits each text with ``str.split`` and hashes one word
at a time with a byte-at-a-time FNV-1a, ``pool_rounds`` mean-pools with one
fancy-indexed update of the unsorted rows per token position,
``scatter_rows`` adds the embedding-gradient rows with a row-wise ``np.add.at``,
``probe_descent`` fits the action probe with a fresh array per step and the
sigmoid's two branches taken by boolean masks, computing the loss as it goes,
and ``reference_gen_synthetic`` draws a synthetic corpus's words with one
``rng.choice`` per turn, and ``rank_topk_reference`` embeds every distinct
text of queries, golds and pool and scores one query at a time. None of them
runs outside the tests.
"""

from __future__ import annotations

import numpy as np

from dse.corpus import TOPIC_POOL_SIZE, Dialogue, Speaker, Turn, topic_word
from dse.encoder import (NUM_RESERVED, SEP_ID, SYS_ID, USR_ID, EncoderConfig, EncoderModel, ForwardTape,
                         _head, forward_eval)
from dse.loss import EPS_NORM, LossConfig, TrainBatch, _partners, cosines


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity with a zero-norm guard; clamped to [-1, 1]."""
    nu = max(float(np.linalg.norm(u)), EPS_NORM)
    nv = max(float(np.linalg.norm(v)), EPS_NORM)
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _negative_mask(n: int) -> np.ndarray:
    """mask[a, j] is True iff j is a negative of anchor a (not a, not a's partner)."""
    mask = ~np.eye(n, dtype=bool)
    mask[_partners(n)] = False
    return mask


def ntxent_reference(batch: TrainBatch, cfg: LossConfig) -> float:
    """Independently coded symmetric NT-Xent over the same 2M rows.

    Deliberately written as a plain per-anchor loop with no weight
    machinery; equals batch_loss with hard_negatives off. Serves as a
    cross-check, not a fast path.
    """
    import math

    X = batch.embeddings
    n = X.shape[0]
    M = n // 2
    total = 0.0
    for a in range(n):
        p = (a + M) % n
        z = [cosine_sim(X[a], X[j]) / cfg.temperature for j in range(n) if j != a]
        z_pos = cosine_sim(X[a], X[p]) / cfg.temperature
        m = max(z)
        denom = sum(math.exp(v - m) for v in z)
        total += -(z_pos - m - math.log(denom))
    return total / n


def replay_forward(model: EncoderModel, tape: ForwardTape) -> np.ndarray:
    """Recompute the TRAIN-view output with the tape's frozen dropout masks.

    Used by the finite-difference oracle: perturbed parameters, same masks.
    """
    return _head(model, forward_eval(model, tape.ids, tape.lengths), tape.drop1, tape.drop2)[1]


def flat(seqs) -> tuple[np.ndarray, np.ndarray]:
    """The flat (ids, lengths) layout of per-text token id sequences."""
    ids = np.array([tid for seq in seqs for tid in seq], dtype=np.intp)
    return ids, np.array([len(seq) for seq in seqs], dtype=np.intp)


def fnv1a_64(data: bytes, seed: int) -> int:
    """64-bit FNV-1a of ``data``, one byte at a time, from the offset basis xor the seed's low 64 bits."""
    mask = 0xFFFFFFFFFFFFFFFF
    h = 0xCBF29CE484222325 ^ (seed & mask)
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & mask
    return h


def word_id(word: str, cfg: EncoderConfig) -> int:
    """Id of one lowercased word: its reserved id if it is [sep], [sys] or [usr], else its hash bucket."""
    special = {"[sep]": SEP_ID, "[sys]": SYS_ID, "[usr]": USR_ID}.get(word)
    if special is not None:
        return special
    return NUM_RESERVED + fnv1a_64(word.encode("utf-8"), cfg.hash_seed) % (cfg.vocab_size - NUM_RESERVED)


def tokenize_reference(texts: list[str], cfg: EncoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """The flat layout ``tokenize_texts`` gives: ``text.lower().split()``, then one id per word."""
    return flat([[word_id(word, cfg) for word in text.lower().split()] for text in texts])


def pool_rounds(model: EncoderModel, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The eval view's mean pooling with the rows unsorted: round k adds the k-th token of
    every row that has one, picked out by fancy indexing."""
    if not lengths.all():
        raise ValueError(f"token sequence {int(np.argmin(lengths))} is empty; nothing to pool")
    starts = np.cumsum(lengths) - lengths
    sums = model.E[ids[starts]]
    for k in range(1, int(lengths.max(initial=0))):
        rows = np.flatnonzero(lengths > k)
        sums[rows] += model.E[ids[starts[rows] + k]]
    return (sums / lengths[:, None]).astype(model.E.dtype)


def scatter_rows(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """Add row t of ``rows`` into row ``ids[t]`` of ``out``, in the order of ``ids``."""
    np.add.at(out, ids, rows)


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


def probe_descent(
    X: np.ndarray, Y: np.ndarray, epochs: int, lr: float
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """(W, b, loss before each step) of full-batch descent from zero, as
    ``evaluation.train_action_probe`` runs it on embeddings X and targets Y."""
    W = np.zeros((X.shape[1], Y.shape[1]))
    b = np.zeros(Y.shape[1])
    losses = []
    for _ in range(epochs):
        loss, dW, db = probe_loss_and_grad(X, Y, W, b)
        losses.append(loss)
        W -= lr * dW
        b -= lr * db
    return W, b, losses


def reference_gen_synthetic(
    num_topics: int, dialogues_per_topic: int, turns_per_dialogue: int, words_per_turn: int, seed: int
) -> list[Dialogue]:
    """``corpus.gen_synthetic``'s corpus, drawing each turn's words with one ``rng.choice`` of the pool."""
    rng = np.random.default_rng(seed)
    dialogues = []
    for topic in range(num_topics):
        pool = [topic_word(topic, j) for j in range(TOPIC_POOL_SIZE)]
        for di in range(dialogues_per_topic):
            turns = []
            for ti in range(turns_per_dialogue):
                words = rng.choice(pool, size=words_per_turn, replace=True)
                speaker = Speaker.USR if ti % 2 == 0 else Speaker.SYS
                turns.append(Turn(speaker=speaker, text=" ".join(words)))
            dialogues.append(Dialogue(id=f"topic{topic}_d{di}", turns=tuple(turns)))
    return dialogues


def rank_topk_reference(queries, gold_responses, pool, embedder, k_values=(1, 3, 10), n_candidates=100, seed=0):
    """(per-query ranks, Top-k metrics) of top-k-of-N response selection, one query at a time.

    The same sampling stream as ``evaluation.response_ranks``: one ``rng.choice``
    per query, in query order, over the pool entries whose text is not the gold.
    """
    rng = np.random.default_rng(seed)
    index = {text: i for i, text in enumerate(dict.fromkeys([*queries, *gold_responses, *pool]))}
    X = embedder(list(index))
    pool_rows = np.array([index[text] for text in pool], dtype=np.intp)
    ranks = np.empty(len(queries), dtype=np.intp)
    for qi, (query, gold) in enumerate(zip(queries, gold_responses)):
        gold_row = index[gold]
        available = np.flatnonzero(pool_rows != gold_row)
        if len(available) < n_candidates - 1:
            raise ValueError(f"pool has {len(available)} usable entries, need {n_candidates - 1}")
        chosen = available[rng.choice(len(available), size=n_candidates - 1, replace=False)]
        sims = cosines(X[index[query]], X[np.concatenate(([gold_row], pool_rows[chosen]))])
        ranks[qi] = 1 + np.count_nonzero(sims[1:] >= sims[0])  # ties pessimistic against gold
    n = len(queries)
    return ranks, {f"Top-{k}": int(np.count_nonzero(ranks <= k)) / n for k in k_values}
