import hashlib
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dse import corpus, encoder
from dse.corpus import (
    SEP_TOKEN,
    CorpusFormatError,
    Dialogue,
    Speaker,
    Turn,
    gen_synthetic,
    load_corpus,
    passes_length_filter,
    read_lines,
    save_corpus,
)
from dse.encoder import EncoderConfig, tokenize_texts
from oracles import reference_gen_synthetic


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def ids_of(text, vocab_size, hash_seed):
    """The ids of one text, as a list, under a config with ``vocab_size`` and ``hash_seed``."""
    ids, lengths = tokenize_texts([text], EncoderConfig(vocab_size=vocab_size, hash_seed=hash_seed))
    assert lengths.tolist() == [len(ids)]
    return ids.tolist()


class TestTokenize:
    def test_lowercasing(self):
        assert ids_of("Hi THERE", 100, 0) == ids_of("hi there", 100, 0)
        assert len(ids_of("Hi THERE", 100, 0)) == 2

    def test_repeated_word_same_id(self):
        ids = ids_of("a a a", 100, 0)
        assert len(set(ids)) == 1 and len(ids) == 3

    def test_empty_text(self):
        assert ids_of("", 100, 0) == []

    def test_reserved_ids_for_special_tokens(self):
        ids = ids_of("[SEP] [SYS] [USR]", 100, 0)
        assert ids == [encoder.SEP_ID, encoder.SYS_ID, encoder.USR_ID] == [0, 1, 2]
        assert ids_of(SEP_TOKEN, 100, 0) == [encoder.SEP_ID]

    def test_ordinary_words_avoid_reserved_ids(self):
        for word in ("hello", "a", "sep", "sys"):
            for seed in range(5):
                assert ids_of(word, 8, seed)[0] >= encoder.NUM_RESERVED

    def test_ids_below_vocab(self):
        ids = ids_of("one two three four five", 8, 3)
        assert all(i < 8 for i in ids)

    def test_seed_changes_hashes(self):
        a = ids_of("hello world", 10000, 0)
        b = ids_of("hello world", 10000, 1)
        assert a != b

    def test_small_vocab_rejected(self):
        with pytest.raises(ValueError, match="vocab_size must be >= 8, got 7"):
            EncoderConfig(vocab_size=7)
        with pytest.raises(ValueError, match="vocab_size must be >= 8, got 3"):
            EncoderConfig(vocab_size=3)

    @given(st.text(), st.integers(0, 2**32))
    def test_pure_function(self, text, seed):
        assert ids_of(text, 64, seed) == ids_of(text, 64, seed)


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

    def test_turn_that_is_not_an_object_names_turn(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [json.dumps({"id": "a", "turns": ["hi there you all"]})])
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(p))}: line 1: turn 1 must be a JSON object$"):
            load_corpus(p)
        write_lines(p, [json.dumps({"id": "a", "turns": [{"speaker": "usr", "text": "hi"}, 7]})])
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(p))}: line 1: turn 2 must be a JSON object$"):
            load_corpus(p)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        good = json.dumps({"id": "d1", "turns": [{"speaker": "usr", "text": "ok"}]}).encode()
        p.write_bytes(good + b"\n" + good.replace(b"ok", b"o\xffk") + b"\n")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(p))}: line 2: invalid UTF-8 byte 0xff"):
            load_corpus(p)

    def test_roundtrip_canonical(self, tmp_path):
        dialogues = gen_synthetic(2, 3, 4, 5, seed=7)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_corpus(dialogues, p1)
        save_corpus(load_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestReadLines:
    @given(st.lists(st.text(), max_size=8), st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=8, max_size=8))
    def test_lines_split_as_text_mode(self, tmp_path_factory, parts, breaks):
        p = tmp_path_factory.mktemp("lines") / "f.txt"
        p.write_bytes("".join(part + end for part, end in zip(parts, breaks)).encode("utf-8"))
        with open(p, encoding="utf-8") as fh:
            assert read_lines(p) == fh.readlines()

    @given(st.lists(st.text(alphabet=st.characters(blacklist_categories=["Cs", "Cc"])), min_size=1, max_size=8),
           st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=8, max_size=8), st.data())
    def test_invalid_utf8_names_its_line(self, tmp_path_factory, lines, breaks, data):
        # The expected line is where text mode puts a NUL written in place of the bad bytes.
        bad = data.draw(st.integers(0, len(lines) - 1))
        bad_bytes = data.draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\x80"]))

        def write(marker):
            p = tmp_path_factory.mktemp("lines") / "f.txt"
            p.write_bytes(b"".join(line.encode() + (marker if k == bad else b"") + end
                                   for k, (line, end) in enumerate(zip(lines, breaks))))
            return p

        with open(write(b"\0"), encoding="utf-8") as fh:
            want = next(k for k, line in enumerate(fh, start=1) if "\0" in line)
        p = write(bad_bytes)
        want_message = f"^{re.escape(str(p))}: line {want}: invalid UTF-8 byte 0x{bad_bytes[0]:02x}"
        with pytest.raises(CorpusFormatError, match=want_message):
            read_lines(p)

    def test_error_type(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_bytes(b"fine\n\xff\n")
        with pytest.raises(KeyError, match="line 2"):
            read_lines(p, KeyError)


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
        out = gen_synthetic(4, 5, 4, 5, seed=1)
        vocab = 50 * 4 * corpus.TOPIC_POOL_SIZE
        ids_by_topic = {}
        for d in out:
            topic = corpus.topic_of_dialogue(d)
            s = ids_by_topic.setdefault(topic, set())
            for t in d.turns:
                s.update(ids_of(t.text, vocab, 0))
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

    @pytest.mark.parametrize("seed", [0, 1, 5, 10**6, 2**40])
    def test_stream_matches_per_turn_choice(self, seed):
        # one draw per topic must give the ids, speakers and texts of one rng.choice per turn
        for args in itertools.product([1, 2, 9], [1, 3, 20], [1, 4, 6], [4, 5, 6, 7]):
            assert gen_synthetic(*args, seed=seed) == reference_gen_synthetic(*args, seed=seed), args

    def test_saved_corpus_bytes_pinned(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(gen_synthetic(8, 52, 6, 6, seed=0), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "dc9fe3e8bfec27d92fb664e40b0ecbdcdd584e97eb683d22f3d29362753d7422")


def one_turn_dialogue(did):
    return Dialogue(id=did, turns=(Turn(Speaker.USR, "a b c d"),))


class TestTopicOfDialogue:
    @pytest.mark.parametrize("did, topic", [("topic3_d17", 3), ("topic12_d0", 12), ("topic0", 0)])
    def test_reads_the_digits(self, did, topic):
        assert corpus.topic_of_dialogue(one_turn_dialogue(did)) == topic

    @pytest.mark.parametrize("did", ["topic-1_d0", "topic 3_d1", "topic+3_d1", "topic\u0663_d1", "topic_d1", "dlg3_d1"],
                             ids=["minus", "space", "plus", "arabic-indic-digit", "no-digits", "no-prefix"])
    def test_refuses_anything_but_ascii_digits_naming_the_id(self, did):
        with pytest.raises(ValueError, match=re.escape(repr(did))):
            corpus.topic_of_dialogue(one_turn_dialogue(did))


class TestTypes:
    def test_empty_turn_text_invalid(self):
        with pytest.raises(ValueError):
            Turn(speaker=Speaker.USR, text="  ")

    def test_dialogue_needs_turns(self):
        with pytest.raises(ValueError):
            Dialogue(id="x", turns=())
