"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Runs the numerical oracles (finite differences, scalar brute force,
independent re-implementations) against the library at the stated
tolerances, plus the end-to-end synthetic separation study.
"""

import math
import time

import numpy as np
import pytest

from dse import evaluation as ev
from dse.corpus import Dialogue, Speaker, Turn, gen_synthetic, passes_length_filter, topic_of_dialogue
from dse.encoder import (
    EncoderConfig,
    EncoderModel,
    embed_texts,
    forward_train,
    init_model,
    replay_forward,
)
from dse.loss import (
    LossConfig,
    TrainBatch,
    batch_loss,
    batch_loss_and_grad,
    compute_alpha,
    cosine_sim,
    ntxent_reference,
    _negative_mask,
)
from dse.pairs import build_combined, build_consecutive, build_k_to_1
from dse.trainer import (
    CheckpointError,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)
from dse.cli import run_epoch_study


def report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def unit_scale_model(seed: int, cfg: EncoderConfig) -> EncoderModel:
    """Random parameters at unit scale so finite-difference curvature stays tame."""
    rng = np.random.default_rng(seed)
    return EncoderModel(
        config=cfg,
        E=rng.normal(size=(cfg.vocab_size, cfg.embed_dim)),
        W1=rng.normal(size=(cfg.embed_dim, cfg.head_hidden)) / np.sqrt(cfg.embed_dim),
        b1=rng.normal(size=cfg.head_hidden) * 0.1,
        W2=rng.normal(size=(cfg.head_hidden, cfg.head_out)) / np.sqrt(cfg.head_hidden),
        b2=rng.normal(size=cfg.head_out) * 0.1,
    )


def hash_embedder(dim: int, resolution: float = 0.0):
    """Deterministic text -> vector map; positive resolution quantizes the
    components so exact cosine ties actually occur."""
    def embed(texts):
        rows = []
        for t in texts:
            v = np.random.default_rng(abs(hash(t)) % 2**32).normal(size=dim)
            if resolution:
                v = np.round(v / resolution) * resolution
                if not v.any():
                    v[0] = resolution
            rows.append(v)
        return np.stack(rows)
    return embed


def test_criterion_1_gradient_correctness():
    cfg = EncoderConfig(vocab_size=50, embed_dim=8, head_hidden=8, head_out=6, dropout_rate=0.1)
    loss_cfg = LossConfig(temperature=0.5)
    M = 3
    start = time.perf_counter()
    worst = 0.0
    for inst in range(20):
        model = unit_scale_model(inst, cfg)
        rng = np.random.default_rng(1000 + inst)
        from dse.corpus import TokenSeq
        seqs = [
            [TokenSeq(ids=tuple(int(i) for i in rng.integers(3, 50, size=rng.integers(2, 6))))
             for _ in range(M)]
            for _ in range(2)
        ]
        out_q, tape_q = forward_train(model, seqs[0], rng_seed=[inst, 0])
        out_r, tape_r = forward_train(model, seqs[1], rng_seed=[inst, 1])
        batch = TrainBatch(np.vstack([out_q, out_r]))
        alphas = compute_alpha(batch, loss_cfg)
        _, grads = batch_loss_and_grad(model, batch, loss_cfg, tape_q, tape_r)

        def f():
            rows = np.vstack([replay_forward(model, tape_q), replay_forward(model, tape_r)])
            return batch_loss(TrainBatch(rows), loss_cfg, alphas=alphas)[0]

        h = 1e-5
        grad_map = dict(grads.items())
        for name, p in model.param_items():
            gan = grad_map[name]
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                fp = f()
                p[idx] = orig - h
                fm = f()
                p[idx] = orig
                fd = (fp - fm) / (2 * h)
                rel = abs(gan[idx] - fd) / max(abs(fd), abs(gan[idx]), 1e-6)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(1, "gradient correctness", worst < 1e-4 and elapsed < 30.0)


def test_criterion_2_alpha_mean_identity():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(100):
        M = int(rng.integers(2, 7))
        batch = TrainBatch(rng.normal(size=(2 * M, int(rng.integers(2, 10)))))
        alphas = compute_alpha(batch, LossConfig(temperature=float(rng.uniform(0.05, 1.0))))
        mask = _negative_mask(2 * M)
        for a in range(2 * M):
            ok &= abs(alphas[a, mask[a]].mean() - 1.0) < 1e-6
    report(2, "alpha mean identity", ok)


def test_criterion_3_reference_equivalence():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(100):
        M = int(rng.integers(2, 6))
        batch = TrainBatch(rng.normal(size=(2 * M, int(rng.integers(2, 8)))))
        cfg = LossConfig(temperature=float(rng.uniform(0.1, 1.0)), hard_negatives=False)
        got, _ = batch_loss(batch, cfg)
        ok &= abs(got - ntxent_reference(batch, cfg)) < 1e-6
    report(3, "reference equivalence", ok)


def test_criterion_4_scale_invariance():
    rng = np.random.default_rng(4)
    ok = True

    # loss invariance under random positive row rescaling
    for _ in range(20):
        batch = TrainBatch(rng.normal(size=(8, 5)))
        base, _ = batch_loss(batch, LossConfig())
        scaled = batch.embeddings.copy()
        scaled[rng.integers(8)] *= float(rng.uniform(0.1, 50.0))
        got, _ = batch_loss(TrainBatch(scaled), LossConfig())
        ok &= abs(got - base) < 1e-6

    # protonet argmax and rank_topk metrics under per-text positive scaling
    base_emb = hash_embedder(6)

    def scaled_emb(texts):
        out = base_emb(texts)
        for i, t in enumerate(texts):
            out[i] *= np.random.default_rng(abs(hash(t + "#scale")) % 2**32).uniform(0.1, 10.0)
        return out

    support = ev.LabeledSet(items=tuple((f"s{i}", i) for i in range(5)),
                            label_names=tuple(f"l{i}" for i in range(5)))
    queries = [f"q{i}" for i in range(40)]
    p1 = ev.build_prototypes(support, base_emb)
    p2 = ev.build_prototypes(support, scaled_emb)
    a = [l for l, _ in ev.classify_protonet(queries, p1, base_emb)]
    b = [l for l, _ in ev.classify_protonet(queries, p2, scaled_emb)]
    ok &= a == b

    pool = [f"r{i}" for i in range(30)]
    golds = [f"r{i % 30}" for i in range(20)]
    r1 = ev.rank_topk(queries[:20], golds, pool, base_emb, k_values=(1, 3, 10), n_candidates=20, seed=0)
    r2 = ev.rank_topk(queries[:20], golds, pool, scaled_emb, k_values=(1, 3, 10), n_candidates=20, seed=0)
    ok &= r1.metrics == r2.metrics
    report(4, "scale invariance", ok)


def test_criterion_5_worked_value():
    rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    tau = 1.0
    expected = -math.log(math.e / (math.e + 2))

    # scalar brute-force evaluation with plain python floats
    def cos(u, v):
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(x * x for x in v))
        return sum(a * b for a, b in zip(u, v)) / (nu * nv)

    total = 0.0
    for a in range(4):
        p = (a + 2) % 4
        negs = [j for j in range(4) if j not in (a, p)]
        mean_e = sum(math.exp(cos(rows[a], rows[k]) / tau) for k in negs) / 2
        pos = math.exp(cos(rows[a], rows[p]) / tau)
        den = pos + sum(
            math.exp((math.exp(cos(rows[a], rows[j]) / tau) / mean_e) * cos(rows[a], rows[j]) / tau)
            for j in negs
        )
        total += -math.log(pos / den)
    scalar = total / 4

    got, _ = batch_loss(TrainBatch(np.array(rows)), LossConfig(temperature=tau))
    ok = abs(scalar - expected) < 1e-12 and abs(got - expected) < 1e-4
    report(5, "worked value", ok)


def test_criterion_6_oracle_equivalence():
    ok = True
    emb = hash_embedder(4, resolution=0.5)  # quantized -> ties happen

    # prototypical classification: 200 instances vs nearest-prototype scan
    rng = np.random.default_rng(6)
    for inst in range(200):
        n_labels = int(rng.integers(2, 6))
        support = ev.LabeledSet(
            items=tuple((f"p{inst}_{l}", l) for l in range(n_labels)),
            label_names=tuple(f"l{l}" for l in range(n_labels)),
        )
        protos = ev.build_prototypes(support, emb)
        queries = [f"q{inst}_{q}" for q in range(3)]
        preds = ev.classify_protonet(queries, protos, emb)
        qv = emb(queries)
        pv = emb([f"p{inst}_{l}" for l in range(n_labels)])
        for qi, (label, sim) in enumerate(preds):
            best, best_sim = 0, cosine_sim(qv[qi], pv[0])
            for l in range(1, n_labels):
                s = cosine_sim(qv[qi], pv[l])
                if s > best_sim:  # ties keep the smaller label id
                    best, best_sim = l, s
            ok &= label == best and sim == best_sim

    # OOS metrics: 200 instances vs confusion-matrix recount
    for inst in range(200):
        n = int(rng.integers(4, 30))
        gold = [int(g) if g < 3 else ev.OOS_LABEL for g in rng.integers(0, 4, size=n)]
        if ev.OOS_LABEL not in gold:
            gold[0] = ev.OOS_LABEL
        if all(g == ev.OOS_LABEL for g in gold):
            gold[-1] = 0
        preds = []
        for _ in range(n):
            is_oos = bool(rng.random() < 0.4)
            preds.append(ev.OOSPrediction(is_oos, None if is_oos else int(rng.integers(0, 3)), 0.0))
        m = ev.oos_metrics(gold, preds).metrics
        acc = sum(
            1 for g, p in zip(gold, preds)
            if (g == ev.OOS_LABEL and p.is_oos) or (g != ev.OOS_LABEL and not p.is_oos and p.label == g)
        ) / n
        n_in = sum(1 for g in gold if g != ev.OOS_LABEL)
        in_acc = sum(1 for g, p in zip(gold, preds)
                     if g != ev.OOS_LABEL and not p.is_oos and p.label == g) / n_in
        bin_acc = sum(1 for g, p in zip(gold, preds) if (g == ev.OOS_LABEL) == p.is_oos) / n
        n_oos = n - n_in
        recall = sum(1 for g, p in zip(gold, preds) if g == ev.OOS_LABEL and p.is_oos) / n_oos
        ok &= (m["Accuracy"] == acc and m["In-Accuracy"] == in_acc
               and m["OOS-Accuracy"] == bin_acc and m["OOS-Recall"] == recall)

    # top-k ranking: 200 queries vs replayed-sampling + independent rank count
    pool = [f"pool{i}" for i in range(40)]
    queries = [f"rq{i}" for i in range(200)]
    golds = [f"pool{i % 40}" for i in range(200)]
    got = ev.rank_topk(queries, golds, pool, emb, k_values=(1, 3, 10), n_candidates=15, seed=9)
    check_rng = np.random.default_rng(9)
    qv = emb(queries)
    hits = {1: 0, 3: 0, 10: 0}
    for qi in range(200):
        available = [t for t in pool if t != golds[qi]]
        chosen = check_rng.choice(len(available), size=14, replace=False)
        cands = [golds[qi]] + [available[c] for c in chosen]
        sims = [cosine_sim(qv[qi], c) for c in emb(cands)]
        rank = 1 + sum(1 for s in sims[1:] if s >= sims[0])  # ties against gold
        for k in hits:
            if rank <= k:
                hits[k] += 1
    ok &= all(got.metrics[f"Top-{k}"] == hits[k] / 200 for k in hits)

    # NLI probe: 200 triples, including exact ties, vs direct comparison
    triples = [(f"na{i}", f"ne{i}", f"nc{i}") for i in range(180)]
    triples += [(f"na{i}", f"tie{i}", f"tie{i}") for i in range(20)]  # ties -> incorrect
    got_acc = ev.nli_probe(triples, emb)
    want = sum(
        1 for a, e, c in triples
        if cosine_sim(emb([a])[0], emb([e])[0]) > cosine_sim(emb([a])[0], emb([c])[0])
    ) / len(triples)
    ok &= got_acc == want

    # micro/macro F1: 200 instances vs per-label count recomputation
    for inst in range(200):
        rows, labels = int(rng.integers(1, 20)), int(rng.integers(1, 5))
        gold = rng.integers(0, 2, size=(rows, labels))
        pred = rng.integers(0, 2, size=(rows, labels))
        micro, macro = ev.f1_scores(gold, pred)
        tp = fp = fn = 0
        per = []
        for l in range(labels):
            t = int(((gold[:, l] == 1) & (pred[:, l] == 1)).sum())
            p_ = int(((gold[:, l] == 0) & (pred[:, l] == 1)).sum())
            n_ = int(((gold[:, l] == 1) & (pred[:, l] == 0)).sum())
            tp, fp, fn = tp + t, fp + p_, fn + n_
            per.append(1.0 if (t == 0 and p_ == 0 and n_ == 0)
                       else (0.0 if t == 0 else 2 * t / (2 * t + p_ + n_)))
        want_micro = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 1.0
        ok &= micro == want_micro and macro == float(np.mean(per))

    report(6, "oracle equivalence", ok)


def test_criterion_7_pair_count_laws():
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(500):
        n_turns = int(rng.integers(1, 10))
        texts = [
            " ".join(f"w{rng.integers(50)}" for _ in range(int(rng.integers(1, 8))))
            for _ in range(n_turns)
        ]
        d = Dialogue(id=f"d{trial}", turns=tuple(
            Turn(Speaker.USR if i % 2 == 0 else Speaker.SYS, t) for i, t in enumerate(texts)
        ))
        # contiguous surviving runs, found independently
        runs, cur = [], 0
        for t in texts:
            if passes_length_filter(t):
                cur += 1
            else:
                if cur:
                    runs.append(cur)
                cur = 0
        if cur:
            runs.append(cur)
        for width in (1, 2, 3):
            fn = build_consecutive if width == 1 else (lambda ds, w=width: build_k_to_1(ds, w))
            ok &= len(fn([d])) == sum(max(0, n - width) for n in runs)
        want_combined = sum(3 * n - 6 if n >= 3 else max(0, n - 1) for n in runs)
        ok &= len(build_combined([d])) == want_combined
    report(7, "pair count laws", ok)


def test_criterion_8_end_to_end_separation():
    start = time.perf_counter()
    enc = EncoderConfig(vocab_size=2000, embed_dim=64, head_hidden=64, head_out=32)
    trained_accs, untrained_accs, cos_gaps = [], [], []
    for seed in range(10):
        train_d = gen_synthetic(8, 100, 6, 6, seed=seed)
        pairs = build_consecutive(train_d)
        cfg = TrainConfig(epochs=10, shuffle_seed=seed, init_seed=seed, dropout_seed=seed)
        result = train(pairs, enc, LossConfig(), cfg)
        model = result.checkpoint.model
        untrained = init_model(enc, seed=seed)

        eval_d = gen_synthetic(8, 4, 6, 6, seed=1000 + seed)
        by_topic: dict[int, list[str]] = {}
        for d in eval_d:
            by_topic.setdefault(topic_of_dialogue(d), []).extend(t.text for t in d.turns)
        support_texts = [by_topic[t][0] for t in sorted(by_topic)]
        queries, gold = [], []
        for t in sorted(by_topic):
            for text in by_topic[t][1:]:
                queries.append(text)
                gold.append(t)

        def accuracy(m):
            protos = embed_texts(m, support_texts)
            qv = embed_texts(m, queries)
            correct = 0
            for i, g in enumerate(gold):
                sims = [cosine_sim(qv[i], p) for p in protos]
                if int(np.argmax(sims)) == g:
                    correct += 1
            return correct / len(gold)

        trained_accs.append(accuracy(model))
        untrained_accs.append(accuracy(untrained))

        # intra-topic vs inter-topic mean cosine over eval utterances
        all_texts = [t for topic in sorted(by_topic) for t in by_topic[topic]]
        topic_of = [topic for topic in sorted(by_topic) for _ in by_topic[topic]]
        X = embed_texts(model, all_texts)
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        S = Xn @ Xn.T
        same = np.equal.outer(topic_of, topic_of)
        off_diag = ~np.eye(len(all_texts), dtype=bool)
        intra = S[same & off_diag].mean()
        inter = S[~same].mean()
        cos_gaps.append(float(intra - inter))

    elapsed = time.perf_counter() - start
    mean_trained = float(np.mean(trained_accs))
    mean_untrained = float(np.mean(untrained_accs))
    mean_gap = float(np.mean(cos_gaps))
    ok = (mean_trained >= 0.85
          and mean_trained - mean_untrained >= 0.20
          and mean_gap >= 0.2
          and elapsed < 180.0)
    print(f"  trained={mean_trained:.3f} untrained={mean_untrained:.3f} "
          f"cosine_gap={mean_gap:.3f} elapsed={elapsed:.1f}s")
    report(8, "end-to-end synthetic separation", ok)


def test_criterion_9_epoch_study_reproducible():
    dialogues = gen_synthetic(3, 10, 4, 5, seed=0)
    items = []
    for d in dialogues:
        for t in d.turns:
            items.append((t.text, topic_of_dialogue(d)))
    intent = ev.LabeledSet(items=tuple(items), label_names=("topic0", "topic1", "topic2"))
    enc = EncoderConfig(vocab_size=500, embed_dim=8, head_hidden=8, head_out=6)
    cfgs = (LossConfig(), TrainConfig(batch_size=16, epochs=3))
    a = run_epoch_study(dialogues, enc, *cfgs, intent)
    b = run_epoch_study(dialogues, enc, *cfgs, intent)
    ok = set(a) == {"consec", "self"}
    for strategy in a:
        ok &= len(a[strategy]) == 3 and len(b[strategy]) == 3
        for ra, rb in zip(a[strategy], b[strategy]):
            ok &= ra.metrics == rb.metrics  # bitwise: exact float equality
    report(9, "epoch-study harness", ok)


def test_criterion_10_persistence(tmp_path):
    enc = EncoderConfig(vocab_size=300, embed_dim=8, head_hidden=8, head_out=6)
    from dse.pairs import PairSource, TrainPair
    pairs = [TrainPair(f"query text number {i} here", f"response text number {i} here",
                       PairSource.CONSEC_1_1) for i in range(8)]
    ckpt = train(pairs, enc, LossConfig(), TrainConfig(batch_size=4, epochs=1)).checkpoint

    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ckpt, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    ok = p1.read_bytes() == p2.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"WRONGMAG\n" + p1.read_bytes()[9:])
    try:
        load_checkpoint(bad)
        ok = False
    except CheckpointError:
        pass
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(p1.read_bytes()[: p1.stat().st_size // 3])
    try:
        load_checkpoint(trunc)
        ok = False
    except CheckpointError:
        pass

    emb = np.random.default_rng(0).normal(size=(6, 4))
    texts = [f"text {i}" for i in range(6)]
    e1, s1 = tmp_path / "e1.txt", tmp_path / "e1.texts"
    e2, s2 = tmp_path / "e2.txt", tmp_path / "e2.texts"
    ev.save_embeddings(emb, texts, e1, s1)
    ev.save_embeddings(ev.load_embeddings(e1), texts, e2, s2)
    ok &= e1.read_bytes() == e2.read_bytes()
    bad_emb = tmp_path / "bad_emb.txt"
    bad_emb.write_text("not a header line\n")
    try:
        ev.load_embeddings(bad_emb)
        ok = False
    except ev.EmbeddingFileError:
        pass
    report(10, "persistence", ok)
