import re

import numpy as np
import pytest

from dse.corpus import Dialogue, Speaker, Turn, passes_length_filter
from dse.pairs import (
    STRATEGIES,
    PairBuildConfig,
    PairFileError,
    TrainPair,
    build_pairs,
    load_pair_file,
    save_pair_file,
)


def make_dialogue(texts, did="d0"):
    turns = tuple(
        Turn(speaker=Speaker.USR if i % 2 == 0 else Speaker.SYS, text=t)
        for i, t in enumerate(texts)
    )
    return Dialogue(id=did, turns=turns)


LONG = [f"utterance number {i} with plenty of words" for i in range(10)]


def brute_force_pairs(texts, width, apply_filter):
    """Independent enumerator: adjacency in original order, filtered turns break runs."""
    if apply_filter:
        runs, cur = [], []
        for t in texts:
            if passes_length_filter(t):
                cur.append(t)
            else:
                if cur:
                    runs.append(cur)
                cur = []
        if cur:
            runs.append(cur)
    else:
        runs = [list(texts)]
    out = []
    for run in runs:
        for s in range(len(run) - width):
            out.append((" [SEP] ".join(run[s : s + width]), run[s + width]))
    return out


class TestConsecutive:
    def test_restaurant_example(self):
        d = make_dialogue([
            "I am looking for restaurants",
            "what type of food do you like",
            "I want some pizza here",
        ])
        out = build_pairs([d], "consec")
        assert [(p.query, p.response) for p in out] == [
            ("I am looking for restaurants", "what type of food do you like"),
            ("what type of food do you like", "I want some pizza here"),
        ]

    def test_single_surviving_turn(self):
        d = make_dialogue([LONG[0]])
        assert build_pairs([d], "consec") == []

    def test_counting_identity(self):
        for n in (2, 5, 9):
            d = make_dialogue(LONG[:n])
            assert len(build_pairs([d], "consec")) == n - 1

    def test_filtered_turn_breaks_adjacency(self):
        d = make_dialogue([LONG[0], "thank you", LONG[1]])
        assert build_pairs([d], "consec") == []

    def test_filter_off(self):
        d = make_dialogue([LONG[0], "thank you", LONG[1]])
        out = build_pairs([d], "consec", PairBuildConfig(apply_length_filter=False))
        assert len(out) == 2


class TestKTo1:
    def test_paper_layout(self):
        d = make_dialogue(LONG[:4])
        out = build_pairs([d], "k2")
        assert [(p.query, p.response) for p in out] == [
            (f"{LONG[0]} [SEP] {LONG[1]}", LONG[2]),
            (f"{LONG[1]} [SEP] {LONG[2]}", LONG[3]),
        ]

    def test_too_short(self):
        d = make_dialogue(LONG[:3])
        assert build_pairs([d], "k3") == []

    def test_counting(self):
        d = make_dialogue(LONG[:5])
        assert len(build_pairs([d], "k3")) == 2

    def test_bad_k(self):
        with pytest.raises(ValueError):
            build_pairs([], "k4")


class TestCombined:
    @pytest.mark.parametrize("n,expected", [(4, 6), (3, 3), (10, 24)])
    def test_counting(self, n, expected):
        d = make_dialogue(LONG[:n])
        assert len(build_pairs([d], "combined")) == expected

    def test_multiset_union(self):
        d = make_dialogue(LONG[:6])
        combined = [(p.query, p.response) for p in build_pairs([d], "combined")]
        union = []
        for strategy in ("consec", "k2", "k3"):
            union += [(p.query, p.response) for p in build_pairs([d], strategy)]
        assert sorted(combined) == sorted(union)


class TestSelfPairs:
    def test_dedup(self):
        d = make_dialogue(["find me some restaurants"] * 3)
        out = build_pairs([d], "self")
        assert len(out) == 1
        assert out[0].query == out[0].response

    def test_two_distinct(self):
        d = make_dialogue([LONG[0], LONG[1]])
        out = build_pairs([d], "self")
        assert len(out) == 2
        assert all(p.query == p.response for p in out)

    def test_unique_leq_total(self):
        dialogues = [make_dialogue(LONG[:5], f"d{i}") for i in range(4)]
        total_surviving = sum(
            1 for d in dialogues for t in d.turns if passes_length_filter(t.text)
        )
        assert len(build_pairs(dialogues, "self")) <= total_surviving


class TestRandomizedCountLaws:
    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(500):
            n = int(rng.integers(1, 9))
            texts = []
            for _ in range(n):
                words = int(rng.integers(1, 8))  # some pass the filter, some fail
                texts.append(" ".join(f"w{rng.integers(100)}" for _ in range(words)))
            d = make_dialogue(texts, f"d{trial}")
            for width, strategy in ((1, "consec"), (2, "k2"), (3, "k3")):
                got = [(p.query, p.response) for p in build_pairs([d], strategy)]
                assert got == brute_force_pairs(texts, width, apply_filter=True)
                # per contiguous surviving run of length m, max(0, m-width) pairs
                expected = sum(
                    max(0, len(run) - width)
                    for run in _runs(texts)
                )
                assert len(got) == expected

    def test_no_filtered_constituent(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            texts = [" ".join("w" for _ in range(int(rng.integers(1, 8)))) for _ in range(6)]
            d = make_dialogue(texts, f"d{trial}")
            for p in build_pairs([d], "combined"):
                for part in p.query.split(" [SEP] ") + [p.response]:
                    assert passes_length_filter(part)


def _runs(texts):
    runs, cur = [], []
    for t in texts:
        if passes_length_filter(t):
            cur.append(t)
        else:
            if cur:
                runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    return runs


WIDTHS = {"consec": (1,), "k2": (2,), "k3": (3,), "combined": (1, 2, 3)}


def reference_pairs(dialogues, strategy, apply_filter):
    """Window strategies by the brute-force enumerator; self by a plain strip-and-dedup loop."""
    if strategy in WIDTHS:
        return [pair for width in WIDTHS[strategy] for d in dialogues
                for pair in brute_force_pairs([t.text for t in d.turns], width, apply_filter)]
    seen, out = set(), []
    for d in dialogues:
        for t in d.turns:
            text = t.text.strip()
            if (not apply_filter or passes_length_filter(text)) and text not in seen:
                seen.add(text)
                out.append((text, text))
    return out


def mixed_corpus():
    """Filtered turns, one-turn runs and whitespace-padded duplicates (a 3-word vocabulary)."""
    rng = np.random.default_rng(2)
    dialogues = []
    for i in range(60):
        texts = []
        for _ in range(int(rng.integers(1, 9))):
            text = " ".join(f"w{rng.integers(3)}" for _ in range(int(rng.integers(1, 8))))
            texts.append(f"  {text} " if rng.random() < 0.3 else text)
        dialogues.append(make_dialogue(texts, f"d{i}"))
    return dialogues


class TestStrategyDispatch:
    def test_names(self):
        assert STRATEGIES == ("consec", "k2", "k3", "combined", "self")
        d = make_dialogue(LONG[:5])
        for name in ("nope", "k4", "file"):
            with pytest.raises(ValueError, match=repr(name)):
                build_pairs([d], name)
        with pytest.raises(ValueError, match="'k4'"):
            build_pairs([], "k4")

    @pytest.mark.parametrize("apply_filter", [True, False], ids=["filter", "nofilter"])
    @pytest.mark.parametrize("strategy", ["consec", "k2", "k3", "combined", "self"])
    def test_matches_reference(self, strategy, apply_filter):
        dialogues = mixed_corpus()
        got = build_pairs(dialogues, strategy, PairBuildConfig(apply_length_filter=apply_filter))
        want = reference_pairs(dialogues, strategy, apply_filter)
        assert want
        assert [(p.query, p.response) for p in got] == want

    def test_determinism(self):
        dialogues = [make_dialogue(LONG[:6], f"d{i}") for i in range(3)]
        assert build_pairs(dialogues, "combined") == build_pairs(dialogues, "combined")


class TestPairFile:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("a b c d\te f g h\n# comment\nq q q q\tr r r r\n")
        out = load_pair_file(p)
        assert [(x.query, x.response) for x in out] == [
            ("a b c d", "e f g h"), ("q q q q", "r r r r"),
        ]

    def test_empty(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("")
        with pytest.raises(PairFileError, match=f"^{re.escape(str(p))}: no data lines$"):
            load_pair_file(p)

    def test_three_fields(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("a\tb\tc\n")
        with pytest.raises(PairFileError, match="line 1"):
            load_pair_file(p)

    @pytest.mark.parametrize("row", ["\tfoo", "foo\t", "  \tfoo", "foo\t "])
    def test_wordless_side_rejected_with_line(self, tmp_path, row):
        p = tmp_path / "pairs.tsv"
        p.write_text("# header\na b\tc d\n" + row + "\n")
        with pytest.raises(PairFileError, match="line 3"):
            load_pair_file(p)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_bytes(b"a b\tc d\r\nhello there\tgeneral k\xffnobi\n")
        with pytest.raises(PairFileError, match=f"^{re.escape(str(p))}: line 2: invalid UTF-8 byte 0xff"):
            load_pair_file(p)

    def test_save_load(self, tmp_path):
        pairs = [TrainPair("a b", "c d")]
        p = tmp_path / "out.tsv"
        save_pair_file(pairs, p)
        assert [(x.query, x.response) for x in load_pair_file(p)] == [("a b", "c d")]

