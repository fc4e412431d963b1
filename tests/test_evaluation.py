import json
import math
import re

import numpy as np
import pytest

from dse import evaluation as ev
from dse.encoder import EncoderConfig, embed_texts, init_model
from oracles import _sigmoid as masked_sigmoid
from oracles import cosine_sim, probe_descent, probe_loss_and_grad, rank_topk_reference


def dict_embedder(table, dim):
    """Maps each text to a fixed vector; unknown texts get a hash-seeded vector."""
    def embed(texts):
        rows = []
        for t in texts:
            if t in table:
                rows.append(np.asarray(table[t], dtype=float))
            else:
                rows.append(np.random.default_rng(abs(hash(t)) % 2**32).normal(size=dim))
        return np.stack(rows)
    return embed


def random_instance(rng, n_labels, n_queries, dim=6):
    """Random prototypes and query vectors keyed by synthetic text names."""
    table = {}
    for l in range(n_labels):
        table[f"proto{l}"] = rng.normal(size=dim)
    for q in range(n_queries):
        table[f"query{q}"] = rng.normal(size=dim)
    return table


class TestPrototypes:
    def test_one_shot_equals_support(self):
        table = {"a": [1.0, 0.0], "b": [0.0, 1.0]}
        emb = dict_embedder(table, 2)
        support = ev.LabeledSet(items=(("a", 0), ("b", 1)), label_names=("x", "y"))
        protos = ev.build_prototypes(support, emb)
        assert np.allclose(protos.vectors[0], [1, 0])
        assert np.allclose(protos.vectors[1], [0, 1])

    def test_duplication_invariant(self):
        table = {"a": [1.0, 2.0], "b": [3.0, 4.0]}
        emb = dict_embedder(table, 2)
        s1 = ev.LabeledSet(items=(("a", 0), ("b", 0)), label_names=("x",))
        s2 = ev.LabeledSet(items=(("a", 0), ("b", 0)) * 2, label_names=("x",))
        p1 = ev.build_prototypes(s1, emb)
        p2 = ev.build_prototypes(s2, emb)
        assert np.allclose(p1.vectors, p2.vectors)

    def test_mean_arithmetic(self):
        table = {"a": [1.0, 0.0], "b": [0.0, 1.0]}
        emb = dict_embedder(table, 2)
        support = ev.LabeledSet(items=(("a", 0), ("b", 0)), label_names=("x",))
        protos = ev.build_prototypes(support, emb)
        assert np.allclose(protos.vectors[0], [0.5, 0.5])

    def test_empty_support(self):
        with pytest.raises(ValueError):
            ev.build_prototypes(ev.LabeledSet(items=(), label_names=("x",)),
                                dict_embedder({}, 2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_per_label_mean(self, dtype):
        # Groups of 1 and of more than 8 rows, labels unsorted, about 30% -0.0 entries and
        # magnitudes 1e-30 .. 1e30 in one row: a different start value or summation order
        # shows in the bytes.
        rng = np.random.default_rng(12)
        for _ in range(100):
            sizes = [1, 1, int(rng.integers(9, 20)), *rng.integers(2, 6, size=3)]
            labels = rng.permutation(np.repeat(rng.permutation(10)[:len(sizes)], sizes))
            emb = rng.normal(size=(len(labels), 5)) * rng.choice([1e-30, 1.0, 1e30], size=(len(labels), 5))
            emb[rng.random(emb.shape) < 0.3] = -0.0
            emb = emb.astype(dtype)
            support = ev.LabeledSet(items=tuple((f"t{i}", int(l)) for i, l in enumerate(labels)),
                                    label_names=tuple(f"l{l}" for l in range(10)))
            protos = ev.build_prototypes(support, lambda texts: emb[[int(t[1:]) for t in texts]])
            expected_labels = sorted(set(labels.tolist()))
            expected = np.stack([emb[labels == l].mean(axis=0) for l in expected_labels])
            assert protos.labels.tolist() == expected_labels
            assert protos.vectors.dtype == expected.dtype
            assert protos.vectors.tobytes() == expected.tobytes()


class TestClassifyProtonet:
    def test_identical_query(self):
        table = {"a": [1.0, 0.0], "b": [0.0, 1.0]}
        emb = dict_embedder(table, 2)
        support = ev.LabeledSet(items=(("a", 0), ("b", 1)), label_names=("x", "y"))
        protos = ev.build_prototypes(support, emb)
        preds = ev.classify_protonet(["a"], protos, emb)
        assert preds[0][0] == 0
        assert preds[0][1] == pytest.approx(1.0)

    def test_single_class(self):
        table = {"a": [1.0, 0.0], "q": [0.3, -0.9]}
        emb = dict_embedder(table, 2)
        support = ev.LabeledSet(items=(("a", 0),), label_names=("x",))
        protos = ev.build_prototypes(support, emb)
        assert ev.classify_protonet(["q"], protos, emb)[0][0] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        table = random_instance(rng, 10, 200)
        emb = dict_embedder(table, 6)
        support = ev.LabeledSet(items=tuple((f"proto{l}", l) for l in range(10)),
                                label_names=tuple(f"l{l}" for l in range(10)))
        protos = ev.build_prototypes(support, emb)
        queries = [f"query{q}" for q in range(200)]
        preds = ev.classify_protonet(queries, protos, emb)
        for q, (label, sim) in zip(queries, preds):
            # independent nearest-prototype scan
            best_label, best_sim = None, -2.0
            for l in range(10):
                s = cosine_sim(np.asarray(table[q]), np.asarray(table[f"proto{l}"]))
                if s > best_sim:
                    best_label, best_sim = l, s
            assert label == best_label
            assert sim == pytest.approx(best_sim)


class TestDetectOOS:
    def setup_instance(self, rng, n=40):
        table = random_instance(rng, 5, n)
        emb = dict_embedder(table, 6)
        support = ev.LabeledSet(items=tuple((f"proto{l}", l) for l in range(5)),
                                label_names=tuple(f"l{l}" for l in range(5)))
        protos = ev.build_prototypes(support, emb)
        queries = [f"query{q}" for q in range(n)]
        return emb, protos, queries

    def test_equal_sims_mean_rule_flags_nothing(self):
        # identical queries: every max_sim equal, sigma 0, strict < flags none
        table = {"q": [1.0, 0.0], "proto0": [1.0, 1.0]}
        emb = dict_embedder(table, 2)
        support = ev.LabeledSet(items=(("proto0", 0),), label_names=("x",))
        protos = ev.build_prototypes(support, emb)
        preds = ev.detect_oos(["q", "q", "q"], protos, ev.OOSConfig(), emb)
        assert preds.tolist() == [0, 0, 0]

    def test_mean_minus_std_flags_fewer(self):
        emb, protos, queries = self.setup_instance(np.random.default_rng(4))
        mean_preds = ev.detect_oos(queries, protos, ev.OOSConfig(ev.ThresholdRule.MEAN), emb)
        md_preds = ev.detect_oos(queries, protos, ev.OOSConfig(ev.ThresholdRule.MEAN_MINUS_STD), emb)
        assert np.count_nonzero(md_preds == ev.OOS_LABEL) <= np.count_nonzero(mean_preds == ev.OOS_LABEL)

    @pytest.mark.parametrize("rule", list(ev.ThresholdRule))
    @pytest.mark.parametrize("population", list(ev.StatsPopulation))
    def test_matches_brute_force_threshold(self, rule, population):
        emb, protos, queries = self.setup_instance(np.random.default_rng(8), n=60)
        best = ev.classify_protonet(queries, protos, emb)
        # gold OOS: the 20 queries least like any prototype, so the two populations' thresholds differ
        cut = sorted(sim for _, sim in best)[20]
        gold_is_oos = [sim < cut for _, sim in best]
        preds = ev.detect_oos(queries, protos, ev.OOSConfig(rule, population), emb, gold_is_oos=gold_is_oos)
        # independent threshold: exact sums over the population's max similarities
        pop = [sim for (_, sim), oos in zip(best, gold_is_oos)
               if population is ev.StatsPopulation.TEST_ALL or not oos]
        mu = math.fsum(pop) / len(pop)
        std = math.sqrt(math.fsum((s - mu) ** 2 for s in pop) / len(pop))
        threshold = mu if rule is ev.ThresholdRule.MEAN else mu - std
        n_below = sum(1 for _, sim in best if sim < threshold)
        assert preds.dtype.kind == "i"
        assert 0 < n_below < len(queries)
        assert np.count_nonzero(preds == ev.OOS_LABEL) == n_below
        assert all(p == label for p, (label, _) in zip(preds.tolist(), best) if p != ev.OOS_LABEL)

    def test_in_only_population_needs_gold(self):
        emb, protos, queries = self.setup_instance(np.random.default_rng(5))
        cfg = ev.OOSConfig(stats_population=ev.StatsPopulation.TEST_IN_ONLY)
        with pytest.raises(ValueError):
            ev.detect_oos(queries, protos, cfg, emb)

    def test_in_only_population_needs_an_in_scope_query(self):
        emb, protos, queries = self.setup_instance(np.random.default_rng(5))
        cfg = ev.OOSConfig(stats_population=ev.StatsPopulation.TEST_IN_ONLY)
        with pytest.raises(ValueError, match="in-scope"):
            ev.detect_oos(queries, protos, cfg, emb, gold_is_oos=[True] * len(queries))

    def test_in_only_population_gold_of_another_length_named(self):
        emb, protos, queries = self.setup_instance(np.random.default_rng(5))
        cfg = ev.OOSConfig(stats_population=ev.StatsPopulation.TEST_IN_ONLY)
        with pytest.raises(ValueError, match=f"^gold_is_oos has {len(queries) - 1} items, queries {len(queries)}$"):
            ev.detect_oos(queries, protos, cfg, emb, gold_is_oos=[False] * (len(queries) - 1))

    def test_needs_two_queries(self):
        emb, protos, _ = self.setup_instance(np.random.default_rng(6))
        with pytest.raises(ValueError):
            ev.detect_oos(["query0"], protos, ev.OOSConfig(), emb)


class TestOOSMetrics:
    def test_perfect_predictor(self):
        gold = [0, 1, ev.OOS_LABEL, 2]
        report = ev.oos_metrics(gold, np.array([0, 1, ev.OOS_LABEL, 2]))
        assert all(v == 1.0 for v in report.metrics.values())

    def test_flag_everything(self):
        gold = [0] * 8 + [ev.OOS_LABEL] * 2  # 20% OOS
        report = ev.oos_metrics(gold, np.full(10, ev.OOS_LABEL))
        assert report.metrics["OOS-Recall"] == 1.0
        assert report.metrics["OOS-Accuracy"] == pytest.approx(0.2)
        assert report.metrics["In-Accuracy"] == 0.0

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(7)
        n = 500
        gold = [int(g) if g < 5 else ev.OOS_LABEL for g in rng.integers(0, 6, size=n)]
        # (is_oos, label) per query; the third draw, a max similarity, is not used
        draws = [(bool(rng.random() < 0.3), int(rng.integers(0, 5)), rng.random())[:2] for _ in range(n)]
        report = ev.oos_metrics(gold, [ev.OOS_LABEL if is_oos else label for is_oos, label in draws])
        # independent recount
        acc = sum(
            1 for g, (is_oos, label) in zip(gold, draws)
            if (g == ev.OOS_LABEL and is_oos) or (g != ev.OOS_LABEL and not is_oos and label == g)
        ) / n
        in_idx = [i for i in range(n) if gold[i] != ev.OOS_LABEL]
        in_acc = sum(1 for i in in_idx if not draws[i][0] and draws[i][1] == gold[i]) / len(in_idx)
        bin_acc = sum(1 for g, (is_oos, _) in zip(gold, draws) if (g == ev.OOS_LABEL) == is_oos) / n
        oos_idx = [i for i in range(n) if gold[i] == ev.OOS_LABEL]
        recall = sum(1 for i in oos_idx if draws[i][0]) / len(oos_idx)
        assert report.metrics == {"Accuracy": acc, "In-Accuracy": in_acc, "OOS-Accuracy": bin_acc,
                                  "OOS-Recall": recall}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ev.oos_metrics([0], [])

    def test_empty_input_named(self):
        with pytest.raises(ValueError, match="^gold has 0 items, predictions 0;"):
            ev.oos_metrics([], [])


def brute_force_hits(queries, golds, pool, vec, n_candidates, seed, k_values):
    """rank_topk's metrics, recomputed: the same sampling stream, distractors found by
    comparing strings, ``vec(text)`` for each text on its own and an independent sort."""
    check_rng = np.random.default_rng(seed)
    hits = dict.fromkeys(k_values, 0)
    for query, gold in zip(queries, golds):
        available = [t for t in pool if t != gold]
        chosen = check_rng.choice(len(available), size=n_candidates - 1, replace=False)
        cands = [gold] + [available[c] for c in chosen]
        sims = [cosine_sim(vec(query), vec(c)) for c in cands]
        order = sorted(range(len(cands)), key=lambda i: (-sims[i], i == 0))  # gold last on ties
        rank = order.index(0) + 1
        for k in hits:
            hits[k] += rank <= k
    return {f"Top-{k}": hits[k] / len(queries) for k in k_values}


def scored_texts(queries, golds, pool, n_candidates, seed):
    """The texts rank_topk scores: every query and gold, and the distractors the same stream draws."""
    check_rng = np.random.default_rng(seed)
    scored = set(queries) | set(golds)
    for gold in golds:
        available = [t for t in pool if t != gold]
        scored.update(available[c] for c in check_rng.choice(len(available), size=n_candidates - 1, replace=False))
    return scored


class TestRankTopk:
    def make_pool(self, rng, n):
        table = {f"resp{i}": rng.normal(size=5) for i in range(n)}
        table.update({f"q{i}": rng.normal(size=5) for i in range(n)})
        return table

    def test_k_equals_n_candidates(self):
        rng = np.random.default_rng(8)
        table = self.make_pool(rng, 30)
        emb = dict_embedder(table, 5)
        queries = [f"q{i}" for i in range(10)]
        golds = [f"resp{i}" for i in range(10)]
        pool = [f"resp{i}" for i in range(30)]
        report = ev.rank_topk(queries, golds, pool, emb, k_values=(20,), n_candidates=20, seed=0)
        assert report.metrics["Top-20"] == 1.0

    def test_gold_identical_to_query(self):
        rng = np.random.default_rng(9)
        table = self.make_pool(rng, 30)
        emb = dict_embedder(table, 5)
        report = ev.rank_topk(["resp0"], ["resp0"], [f"resp{i}" for i in range(30)], emb,
                              k_values=(1,), n_candidates=10, seed=0)
        assert report.metrics["Top-1"] == 1.0

    def test_pool_too_small(self):
        rng = np.random.default_rng(10)
        table = self.make_pool(rng, 5)
        emb = dict_embedder(table, 5)
        with pytest.raises(ValueError):
            ev.rank_topk(["q0"], ["resp0"], [f"resp{i}" for i in range(5)], emb,
                         n_candidates=100, seed=0)

    @pytest.mark.parametrize("n_candidates", [-1, 0, 1])
    def test_fewer_than_two_candidates_rejected(self, n_candidates):
        table = self.make_pool(np.random.default_rng(12), 5)
        emb = dict_embedder(table, 5)
        with pytest.raises(ValueError, match="n_candidates must be >= 2"):
            ev.rank_topk(["q0"], ["resp0"], [f"resp{i}" for i in range(5)], emb,
                         n_candidates=n_candidates, seed=0)

    def test_no_queries_rejected_before_embedding(self):
        calls = []
        with pytest.raises(ValueError, match="^need at least one query$"):
            ev.rank_topk([], [], ["resp0", "resp1"], lambda texts: calls.append(texts), n_candidates=2)
        assert calls == []

    def test_monotone_in_k(self):
        rng = np.random.default_rng(11)
        table = self.make_pool(rng, 60)
        emb = dict_embedder(table, 5)
        queries = [f"q{i}" for i in range(40)]
        golds = [f"resp{i}" for i in range(40)]
        pool = [f"resp{i}" for i in range(60)]
        report = ev.rank_topk(queries, golds, pool, emb, k_values=(1, 3, 10, 50), n_candidates=50, seed=2)
        vals = [report.metrics[f"Top-{k}"] for k in (1, 3, 10, 50)]
        assert vals == sorted(vals)
        assert vals[-1] == 1.0

    def test_embeds_each_scored_text_once_in_one_call_in_order_of_first_use(self):
        table = self.make_pool(np.random.default_rng(14), 30)
        calls = []
        emb = dict_embedder(table, 5)
        queries = [f"q{i}" for i in range(10)]
        golds = [f"resp{i}" for i in range(10)]
        pool = [f"resp{i}" for i in range(30)] * 2
        ev.rank_topk(queries, golds, pool, lambda texts: calls.append(list(texts)) or emb(texts),
                     n_candidates=6, seed=4)
        scored = scored_texts(queries, golds, pool, 6, 4)
        assert calls == [[t for t in dict.fromkeys(queries + golds + pool) if t in scored]]
        assert len(calls[0]) < len(set(queries + pool))

    def test_pool_far_larger_than_the_sample_embeds_only_the_sample(self):
        table = self.make_pool(np.random.default_rng(17), 500)
        calls = []
        emb = dict_embedder(table, 5)
        pool = [f"resp{i}" for i in range(500)]
        report = ev.rank_topk(["q0", "q1"], ["resp0", "resp1"], pool,
                              lambda texts: calls.append(list(texts)) or emb(texts), k_values=(1, 5), n_candidates=5)
        assert len(calls) == 1 and len(calls[0]) <= 12
        assert calls[0][:4] == ["q0", "q1", "resp0", "resp1"]
        assert report.metrics["Top-5"] == 1.0

    def test_short_pool_for_a_later_query_fails_before_embedding(self):
        # the second query's gold fills the pool, so only 3 distractors are left for it
        calls = []
        pool = ["a", "b", "c", "x", "x", "x", "x"]
        with pytest.raises(ValueError, match="^pool has 3 usable entries, need 4$"):
            ev.rank_topk(["q0", "q1", "q2"], ["a", "x", "b"], pool, lambda texts: calls.append(texts),
                         n_candidates=5)
        assert calls == []

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("k_values, n_candidates", [((1,), 2), ((1, 3, 10), 12), ((1, 5, 20, 40), 40)])
    def test_ranks_equal_the_per_query_reference_on_a_model(self, seed, k_values, n_candidates):
        # repeated texts within and across the lists, and upper-case copies of golds that
        # tokenize to the gold's bytes and tie with it
        model = init_model(EncoderConfig(vocab_size=1000, embed_dim=16), seed=seed)
        rng = np.random.default_rng(100 + seed)
        words = [f"w{i}" for i in range(60)]
        sentences = [" ".join(rng.choice(words, size=n)) for n in rng.integers(1, 9, size=80)]
        queries = [sentences[i] for i in rng.integers(0, 80, size=50)]
        golds = [sentences[i] for i in rng.integers(0, 80, size=50)]
        pool = [sentences[i] for i in rng.integers(0, 80, size=120)] + [g.upper() for g in golds[:10]]

        def embedder(texts):
            return embed_texts(model, texts)

        want_ranks, want_metrics = rank_topk_reference(queries, golds, pool, embedder, k_values, n_candidates, seed)
        ranks = ev.response_ranks(queries, golds, pool, embedder, n_candidates, seed)
        report = ev.rank_topk(queries, golds, pool, embedder, k_values, n_candidates, seed)
        assert ranks.tolist() == want_ranks.tolist()
        assert report.metrics == want_metrics
        assert (want_ranks > 1).any() and (want_ranks < n_candidates).any()

    @pytest.mark.parametrize("block_values", [1, 16 * 12 * 2, 16 * 12 * 7])
    def test_ranks_do_not_depend_on_the_query_blocks(self, monkeypatch, block_values):
        model = init_model(EncoderConfig(vocab_size=1000, embed_dim=16), seed=3)
        rng = np.random.default_rng(18)
        words = [f"w{i}" for i in range(60)]
        sentences = [" ".join(rng.choice(words, size=n)) for n in rng.integers(1, 9, size=60)]
        queries = sentences[:25]
        golds = sentences[25:50]

        def embedder(texts):
            return embed_texts(model, texts)

        want, _ = rank_topk_reference(queries, golds, sentences, embedder, (1,), 12, 2)
        monkeypatch.setattr(ev, "_RANK_BLOCK_VALUES", block_values)
        assert ev.response_ranks(queries, golds, sentences, embedder, 12, 2).tolist() == want.tolist()

    def test_golds_as_pool_on_a_model_equal_each_text_embedded_alone(self):
        # the form `dse eval-rank` uses: the pool is the golds, and texts repeat across and within lists
        model = init_model(EncoderConfig(vocab_size=1000, embed_dim=16), seed=0)
        rng = np.random.default_rng(16)
        words = [f"w{i}" for i in range(40)]
        sentences = [" ".join(rng.choice(words, size=n)) for n in rng.integers(1, 8, size=30)]
        golds = [sentences[i] for i in rng.integers(0, 30, size=60)]
        queries = [sentences[i] for i in rng.integers(0, 30, size=60)]
        calls = []

        def embedder(texts):
            calls.append(list(texts))
            return embed_texts(model, texts)

        report = ev.rank_topk(queries, golds, golds, embedder, k_values=(1, 3, 10), n_candidates=12, seed=5)
        assert calls == [list(dict.fromkeys(queries + golds))]
        want = brute_force_hits(queries, golds, golds, lambda t: embed_texts(model, [t])[0], 12, 5, (1, 3, 10))
        assert report.metrics == want

    def test_identically_tokenized_distractor_ties_against_gold(self):
        # an upper-case copy of the gold pools to the same embedding bytes, so it
        # ties with the gold and the tie ranks the gold second
        model = init_model(EncoderConfig(vocab_size=1000, embed_dim=16), seed=0)
        rng = np.random.default_rng(15)
        words = [f"w{i}" for i in range(200)]
        sentences = [" ".join(rng.choice(words, size=n)) for n in rng.integers(4, 30, size=40)]
        golds = sentences[:8]
        queries = [g + " please" for g in golds]
        others = sentences[8:]

        def embedder(texts):
            return embed_texts(model, texts)

        plain = ev.rank_topk(queries, golds, golds + others, embedder, k_values=(1,),
                             n_candidates=len(golds + others))
        assert plain.metrics["Top-1"] == 1.0
        pool = golds + others + [g.upper() for g in golds]
        tied = ev.rank_topk(queries, golds, pool, embedder, k_values=(1, 2), n_candidates=len(pool))
        assert tied.metrics == {"Top-1": 0.0, "Top-2": 1.0}

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(12)
        table = self.make_pool(rng, 80)
        emb = dict_embedder(table, 5)
        n_q = 200
        table.update({f"q{i}": rng.normal(size=5) for i in range(n_q)})
        queries = [f"q{i}" for i in range(n_q)]
        golds = [f"resp{i % 80}" for i in range(n_q)]
        pool = [f"resp{i}" for i in range(80)]
        want = brute_force_hits(queries, golds, pool, lambda t: np.asarray(table[t]), 30, 3, (1, 3, 10))
        report = ev.rank_topk(queries, golds, pool, emb, k_values=(1, 3, 10), n_candidates=30, seed=3)
        for k in (1, 3, 10):
            assert report.metrics[f"Top-{k}"] == pytest.approx(want[f"Top-{k}"])


class TestNLIProbe:
    def test_entailment_equals_anchor(self):
        table = {"a": [1.0, 0.0], "c": [0.0, 1.0]}
        emb = dict_embedder(table, 2)
        assert ev.nli_probe([("a", "a", "c")], emb) == 1.0

    def test_one_embedder_call(self):
        calls = []
        emb = dict_embedder({}, 3)
        ev.nli_probe([("a", "b", "c"), ("d", "e", "f")], lambda texts: calls.append(texts) or emb(texts))
        assert calls == [["a", "b", "c", "d", "e", "f"]]

    def test_each_distinct_text_embedded_once(self):
        calls = []
        emb = dict_embedder({}, 3)
        triples = [("a", "b", "a"), ("b", "c", "d"), ("a", "b", "a")]
        ev.nli_probe(triples, lambda texts: calls.append(texts) or emb(texts))
        assert calls == [["a", "b", "c", "d"]]

    @pytest.mark.parametrize("kind", ["table", "model"])
    def test_repeated_texts_match_per_row_embedding(self, kind):
        rng = np.random.default_rng(18)
        names = [f"w{i} w{i % 5} x{i % 3}" for i in range(12)]
        if kind == "table":
            emb = dict_embedder({t: rng.normal(size=4) for t in names}, 4)
        else:
            model = init_model(EncoderConfig(vocab_size=1000, embed_dim=16), seed=0)
            emb = lambda texts: embed_texts(model, texts)
        triples = [tuple(rng.choice(names, size=3)) for _ in range(200)]
        X = emb([t for triple in triples for t in triple])
        per_row = int(np.count_nonzero(ev.cosines(X[0::3], X[1::3]) > ev.cosines(X[0::3], X[2::3]))) / 200
        assert ev.nli_probe(triples, emb) == per_row

    def test_tie_counts_incorrect(self):
        table = {"a": [1.0, 0.0], "e": [0.5, 0.5]}
        emb = dict_embedder(table, 2)
        assert ev.nli_probe([("a", "e", "e")], emb) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        table = {f"t{i}": rng.normal(size=4) for i in range(300)}
        emb = dict_embedder(table, 4)
        triples = [(f"t{3*i}", f"t{3*i+1}", f"t{3*i+2}") for i in range(100)]
        got = ev.nli_probe(triples, emb)
        want = np.mean([
            1.0 if cosine_sim(table[a], np.asarray(table[e])) > cosine_sim(table[a], np.asarray(table[c]))
            else 0.0
            for a, e, c in triples
        ])
        assert got == pytest.approx(want)


class TestActionProbe:
    def make_data(self, rng, n=20, dim=4, labels=2):
        table = {}
        data = []
        W_true = rng.normal(size=(dim, labels))
        for i in range(n):
            x = rng.normal(size=dim)
            table[f"x{i}"] = x
            y = (x @ W_true > 0).astype(np.int8)
            data.append((f"x{i}", y))
        return table, data

    def test_bce_decreases(self):
        rng = np.random.default_rng(14)
        table, data = self.make_data(rng)
        emb = dict_embedder(table, 4)
        X = emb([t for t, _ in data])
        Y = np.stack([y for _, y in data]).astype(np.float64)
        _, _, losses = probe_descent(X, Y, epochs=50, lr=5.0)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("n, d, L", [(1, 1, 1), (7, 3, 2), (40, 9, 5), (120, 33, 12)])
    @pytest.mark.parametrize("lr", [0.3, 1.0, 5.0])
    @pytest.mark.parametrize("epochs", [0, 1, 37])
    def test_fit_equals_reference_loop_bytes(self, n, d, L, lr, epochs):
        rng = np.random.default_rng([n, d, L])
        X = rng.normal(size=(n, d)) * 40.0  # logits of hundreds: sigmoid saturates at both ends
        X[: n // 2] *= 1e-3
        Y = rng.integers(0, 2, size=(n, L)).astype(np.int8)
        table = {f"x{i}": X[i] for i in range(n)}
        probe = ev.train_action_probe([(f"x{i}", Y[i]) for i in range(n)], dict_embedder(table, d), L,
                                      epochs=epochs, lr=lr)
        W, b, _ = probe_descent(X, Y.astype(np.float64), epochs, lr)
        assert probe.W.tobytes() == W.tobytes()
        assert probe.b.tobytes() == b.tobytes()

    def test_sigmoid_equals_masked_form_bytes(self):
        special = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf, np.nan, -np.nan,
                   5e-324, -5e-324, 36.7, -36.7, 709.8, -709.8]
        z = np.concatenate([special, np.random.default_rng(19).normal(size=2000) * 50.0])
        for arr in (z, z.reshape(-1, 8)):
            assert ev._sigmoid(arr).tobytes() == masked_sigmoid(arr).tobytes()

    def test_zero_epochs_predicts_half(self):
        rng = np.random.default_rng(15)
        table, data = self.make_data(rng)
        emb = dict_embedder(table, 4)
        probe = ev.train_action_probe(data, emb, num_labels=2, epochs=0)
        X = emb([t for t, _ in data])
        scores = ev._sigmoid(X @ probe.W + probe.b)
        assert np.all(scores == 0.5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"epochs": -1}, "epochs must be >= 0"),
        ({"lr": float("nan")}, "lr must be finite and positive"),
        ({"lr": float("inf")}, "lr must be finite and positive"),
        ({"lr": 0.0}, "lr must be finite and positive"),
        ({"lr": -1.0}, "lr must be finite and positive"),
    ])
    def test_bad_epochs_or_lr_rejected(self, kwargs, message):
        table, data = self.make_data(np.random.default_rng(17))
        with pytest.raises(ValueError, match=message):
            ev.train_action_probe(data, dict_embedder(table, 4), num_labels=2, **kwargs)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(5, 3))
        Y = rng.integers(0, 2, size=(5, 2)).astype(float)
        W = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        loss, dW, db = probe_loss_and_grad(X, Y, W, b)
        h = 1e-6
        for i in range(3):
            for j in range(2):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                fd = (probe_loss_and_grad(X, Y, Wp, b)[0] - probe_loss_and_grad(X, Y, Wm, b)[0]) / (2 * h)
                assert abs(dW[i, j] - fd) / max(abs(fd), 1e-6) < 1e-4
        for j in range(2):
            bp, bm = b.copy(), b.copy()
            bp[j] += h
            bm[j] -= h
            fd = (probe_loss_and_grad(X, Y, W, bp)[0] - probe_loss_and_grad(X, Y, W, bm)[0]) / (2 * h)
            assert abs(db[j] - fd) / max(abs(fd), 1e-6) < 1e-4


class TestF1:
    def test_perfect(self):
        gold = np.array([[1, 0], [0, 1], [1, 1]])
        assert ev.f1_scores(gold, gold) == (1.0, 1.0)

    def test_all_missed(self):
        gold = np.array([[1, 0]] * 5)
        pred = np.zeros_like(gold)
        micro, macro = ev.f1_scores(gold, pred)
        assert micro == 0.0
        assert macro == pytest.approx(0.5)  # label 1 has no gold and no preds -> 1

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(17)
        gold = rng.integers(0, 2, size=(50, 3))
        pred = rng.integers(0, 2, size=(50, 3))
        micro, macro = ev.f1_scores(gold, pred)
        tp = fp = fn = 0
        per = []
        for l in range(3):
            t = int(((gold[:, l] == 1) & (pred[:, l] == 1)).sum())
            p = int(((gold[:, l] == 0) & (pred[:, l] == 1)).sum())
            n = int(((gold[:, l] == 1) & (pred[:, l] == 0)).sum())
            tp, fp, fn = tp + t, fp + p, fn + n
            if t == 0 and p == 0 and n == 0:
                per.append(1.0)
            elif t == 0:
                per.append(0.0)
            else:
                per.append(2 * t / (2 * t + p + n))
        assert micro == pytest.approx(2 * tp / (2 * tp + fp + fn))
        assert macro == pytest.approx(float(np.mean(per)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ev.f1_scores(np.zeros((2, 2)), np.zeros((3, 2)))


class TestFewShotSampling:
    def make_set(self, per_label=4, labels=3):
        items = tuple(
            (f"text_{l}_{i}", l) for l in range(labels) for i in range(per_label)
        )
        return ev.LabeledSet(items=items, label_names=tuple(f"l{i}" for i in range(labels)))

    def test_one_shot_partitions_two_item_set(self):
        full = self.make_set(per_label=2)
        support, val = ev.sample_few_shot(full, 1, seed=0)
        assert sorted(support.items + val.items) == sorted(full.items)

    def test_disjoint(self):
        full = self.make_set(per_label=6)
        for seed in range(10):
            support, val = ev.sample_few_shot(full, 2, seed)
            assert not set(support.items) & set(val.items)

    def test_deterministic_and_seed_sensitive(self):
        full = self.make_set(per_label=8)
        a1 = ev.sample_few_shot(full, 2, seed=1)
        a2 = ev.sample_few_shot(full, 2, seed=1)
        b = ev.sample_few_shot(full, 2, seed=2)
        assert a1 == a2
        assert a1 != b

    @pytest.mark.parametrize("shots", [0, -1])
    def test_nonpositive_shots_rejected(self, shots):
        with pytest.raises(ValueError, match="shots"):
            ev.sample_few_shot(self.make_set(), shots, seed=0)

    def test_insufficient_items_names_label(self):
        full = self.make_set(per_label=3)
        with pytest.raises(ValueError, match="l0"):
            ev.sample_few_shot(full, 2, seed=0)


class TestReportsAndEmbeddingIO:
    def test_report_json_roundtrip(self):
        r = ev.EvalReport(task="t", metrics={"Accuracy": 0.5}, support=10, seed=3)
        assert json.loads(r.to_json()) == {"task": "t", "support": 10, "seed": 3, "metrics": {"Accuracy": 0.5}}

    def test_embedding_roundtrip_bytes(self, tmp_path):
        rng = np.random.default_rng(18)
        emb = rng.normal(size=(5, 3)).astype(np.float32)
        texts = [f"text {i}" for i in range(5)]
        p1, s1 = tmp_path / "e1.txt", tmp_path / "e1.texts"
        p2, s2 = tmp_path / "e2.txt", tmp_path / "e2.texts"
        ev.save_embeddings(emb, texts, p1, s1)
        loaded = ev.load_embeddings(p1)
        ev.save_embeddings(loaded, texts, p2, s2)
        assert p1.read_bytes() == p2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()
        assert np.allclose(loaded, emb)

    def test_embedding_zero_rows_roundtrip(self, tmp_path):
        p, sidecar = tmp_path / "e.txt", tmp_path / "e.texts"
        ev.save_embeddings(np.zeros((0, 8)), [], p, sidecar)
        assert p.read_text() == "0 8\n"
        assert ev.load_embeddings(p).shape == (0, 8)

    def test_embedding_bad_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("nonsense\n")
        with pytest.raises(ev.EmbeddingFileError):
            ev.load_embeddings(p)

    def test_embedding_non_numeric_header_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("x 2\n1.0 2.0\n")
        with pytest.raises(ev.EmbeddingFileError, match=f"^{re.escape(str(p))}: line 1: "):
            ev.load_embeddings(p)

    @pytest.mark.parametrize("header", ["\u0662 2", "2 \u0662"])  # U+0662 is an Arabic-Indic 2
    def test_embedding_header_takes_ascii_digits_only(self, tmp_path, header):
        p = tmp_path / "bad.txt"
        p.write_text(f"{header}\n1.0 2.0\n3.0 4.0\n", encoding="utf-8")
        with pytest.raises(ev.EmbeddingFileError, match=f"^{re.escape(str(p))}: line 1: "):
            ev.load_embeddings(p)

    def test_embedding_non_numeric_value_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 2\n1.0 2.0\n3.0 zz\n")
        with pytest.raises(ev.EmbeddingFileError, match=f"^{re.escape(str(p))}: line 3: .*'zz'"):
            ev.load_embeddings(p)

    def test_embedding_row_count_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 2\n1.0 2.0\n")
        with pytest.raises(ev.EmbeddingFileError, match=f"^{re.escape(str(p))}: header says 2 rows, file has 1$"):
            ev.load_embeddings(p)

    def test_embedding_invalid_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"1 2\n0.5 0.\xff\n")
        with pytest.raises(ev.EmbeddingFileError,
                           match=f"^{re.escape(str(p))}: line 2: invalid UTF-8 byte 0xff \\(invalid start byte\\)$"):
            ev.load_embeddings(p)


class TestLoaders:
    @pytest.mark.parametrize("load", [ev.load_labeled_tsv, ev.load_multilabel_tsv, ev.load_nli_tsv])
    def test_no_data_lines_names_file(self, tmp_path, load):
        p = tmp_path / "d.tsv"
        p.write_text("# comment\n\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: no data lines$"):
            load(p)

    def test_labeled_tsv(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("hello\tgreet\nbye\tfarewell\nhi\tgreet\n")
        ls = ev.load_labeled_tsv(p)
        assert ls.label_names == ("farewell", "greet")
        assert ls.items[0] == ("hello", 1)

    def test_multilabel_tsv(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("a\tx,y\nb\ty\nc\tz,x,z\nd\tx,,y,z\n")
        items, names = ev.load_multilabel_tsv(p)
        assert names == ["x", "y", "z"]
        assert [text for text, _ in items] == ["a", "b", "c", "d"]
        assert [bits.dtype for _, bits in items] == [np.int8] * 4
        assert [bits.tolist() for _, bits in items] == [[1, 1, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1]]

    def test_nli_tsv(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("a\te\tc\n")
        assert ev.load_nli_tsv(p) == [("a", "e", "c")]

    @pytest.mark.parametrize("loader", [ev.load_labeled_tsv, ev.load_multilabel_tsv, ev.load_nli_tsv])
    def test_field_count_error_names_line(self, tmp_path, loader):
        p = tmp_path / "d.tsv"
        p.write_text("# comment\n\na\tb\tc\td\n")
        with pytest.raises(ValueError, match="line 3: expected"):
            loader(p)
        # a text field with no word is rejected at its line too
        wordless = {
            ev.load_labeled_tsv: ["\tgreet", "  \tgreet"],
            ev.load_multilabel_tsv: ["\tx,y", " \tx"],
            ev.load_nli_tsv: ["\te\tc", "a\t \tc", "a\te\t"],
        }[loader]
        for row in wordless:
            p.write_text("# comment\n\n" + row + "\n")
            with pytest.raises(ValueError, match="line 3: field"):
                loader(p)

    @pytest.mark.parametrize("loader", [ev.load_labeled_tsv, ev.load_multilabel_tsv, ev.load_nli_tsv])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, loader):
        row, bad = {
            ev.load_labeled_tsv: (b"caf\xe9\tgreet", "0xe9"),
            ev.load_multilabel_tsv: (b"a\tx,\xffy", "0xff"),
            ev.load_nli_tsv: (b"a\te\t\xc3", "0xc3"),
        }[loader]
        p = tmp_path / "d.tsv"
        p.write_bytes(b"# comment\n\n" + row + b"\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line 3: invalid UTF-8 byte {bad}"):
            loader(p)
