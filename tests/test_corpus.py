import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dse import corpus
from dse.corpus import (
    CorpusFormatError,
    Dialogue,
    Speaker,
    Turn,
    gen_synthetic,
    load_corpus,
    passes_length_filter,
    save_corpus,
    tokenize,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestTokenize:
    def test_lowercasing(self):
        assert tokenize("Hi THERE", 100, 0) == tokenize("hi there", 100, 0)
        assert len(tokenize("Hi THERE", 100, 0).ids) == 2

    def test_repeated_word_same_id(self):
        ids = tokenize("a a a", 100, 0).ids
        assert len(set(ids)) == 1 and len(ids) == 3

    def test_empty_text(self):
        seq = tokenize("", 100, 0)
        assert seq.ids == ()

    def test_reserved_ids_for_special_tokens(self):
        seq = tokenize("[SEP] [SYS] [USR]", 100, 0)
        assert seq.ids == (corpus.SEP_ID, corpus.SYS_ID, corpus.USR_ID)

    def test_ordinary_words_avoid_reserved_ids(self):
        for word in ("hello", "a", "sep", "sys"):
            for seed in range(5):
                assert tokenize(word, 8, seed).ids[0] >= corpus.NUM_RESERVED

    def test_ids_below_vocab(self):
        seq = tokenize("one two three four five", 8, 3)
        assert all(i < 8 for i in seq.ids)

    def test_seed_changes_hashes(self):
        a = tokenize("hello world", 10000, 0).ids
        b = tokenize("hello world", 10000, 1).ids
        assert a != b

    def test_small_vocab_rejected(self):
        with pytest.raises(ValueError):
            tokenize("x", 7, 0)

    @given(st.text(), st.integers(0, 2**32))
    def test_pure_function(self, text, seed):
        assert tokenize(text, 64, seed) == tokenize(text, 64, seed)


class TestLengthFilter:
    def test_paper_examples(self):
        assert not passes_length_filter("thank you")
        assert passes_length_filter("find me some restaurants")
        assert passes_length_filter("I am looking for restaurants")

    def test_boundary(self):
        assert not passes_length_filter("one two three")
        assert passes_length_filter("one two three four")

    @given(st.text())
    def test_matches_independent_split(self, text):
        assert passes_length_filter(text) == (len(text.split()) >= 4)


class TestLoadCorpus:
    def test_single_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [json.dumps({"id": "d1", "turns": [
            {"speaker": "usr", "text": "hi there friend"},
            {"speaker": "sys", "text": "hello"},
            {"speaker": "usr", "text": "bye"},
        ]})])
        out = load_corpus(p)
        assert len(out) == 1
        assert out[0].id == "d1"
        assert len(out[0].turns) == 3
        assert out[0].turns[0].speaker is Speaker.USR

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        assert load_corpus(p) == []

    def test_empty_turn_text_names_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [
            json.dumps({"id": "d1", "turns": [{"speaker": "usr", "text": "ok"}]}),
            json.dumps({"id": "d2", "turns": [{"speaker": "usr", "text": "   "}]}),
        ])
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(p)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "c.jsonl"
        line = json.dumps({"id": "d1", "turns": [{"speaker": "usr", "text": "ok"}]})
        write_lines(p, [line, line])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ["{not json"])
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(p)

    def test_roundtrip_canonical(self, tmp_path):
        dialogues = gen_synthetic(2, 3, 4, 5, seed=7)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_corpus(dialogues, p1)
        save_corpus(load_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestGenSynthetic:
    def test_shape(self):
        out = gen_synthetic(1, 1, 2, 4, seed=0)
        assert len(out) == 1
        assert len(out[0].turns) == 2
        assert all(len(t.text.split()) == 4 for t in out[0].turns)

    def test_disjoint_pools(self):
        out = gen_synthetic(2, 5, 3, 5, seed=0)
        assert len(out) == 10
        words_by_topic = {0: set(), 1: set()}
        for d in out:
            topic = corpus.topic_of_dialogue(d)
            for t in d.turns:
                words_by_topic[topic].update(t.text.split())
        assert not words_by_topic[0] & words_by_topic[1]

    def test_deterministic(self):
        assert gen_synthetic(2, 2, 3, 5, seed=5) == gen_synthetic(2, 2, 3, 5, seed=5)

    def test_token_disjointness_after_hashing(self):
        # vocab >= 50x total pool size keeps cross-pool collisions under 1%
        pool_size = 10
        out = gen_synthetic(4, 5, 4, 5, seed=1, pool_size=pool_size)
        vocab = 50 * 4 * pool_size
        ids_by_topic = {}
        for d in out:
            topic = corpus.topic_of_dialogue(d)
            s = ids_by_topic.setdefault(topic, set())
            for t in d.turns:
                s.update(tokenize(t.text, vocab, 0).ids)
        total = sum(len(s) for s in ids_by_topic.values())
        collisions = 0
        topics = sorted(ids_by_topic)
        for i in topics:
            for j in topics:
                if i < j:
                    collisions += len(ids_by_topic[i] & ids_by_topic[j])
        assert collisions / total < 0.01

    def test_short_turn_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic(1, 1, 1, 3, seed=0)


class TestTypes:
    def test_empty_turn_text_invalid(self):
        with pytest.raises(ValueError):
            Turn(speaker=Speaker.USR, text="  ")

    def test_dialogue_needs_turns(self):
        with pytest.raises(ValueError):
            Dialogue(id="x", turns=())
