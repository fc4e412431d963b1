import numpy as np
import pytest

from dse.corpus import Dialogue, Speaker, Turn, passes_length_filter
from dse.pairs import (
    PairBuildConfig,
    PairFileError,
    PairSource,
    TrainPair,
    build_combined,
    build_consecutive,
    build_k_to_1,
    build_pairs,
    build_self_pairs,
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
        out = build_consecutive([d])
        assert [(p.query, p.response) for p in out] == [
            ("I am looking for restaurants", "what type of food do you like"),
            ("what type of food do you like", "I want some pizza here"),
        ]
        assert all(p.source is PairSource.CONSEC_1_1 for p in out)

    def test_single_surviving_turn(self):
        d = make_dialogue([LONG[0]])
        assert build_consecutive([d]) == []

    def test_counting_identity(self):
        for n in (2, 5, 9):
            d = make_dialogue(LONG[:n])
            assert len(build_consecutive([d])) == n - 1

    def test_filtered_turn_breaks_adjacency(self):
        d = make_dialogue([LONG[0], "thank you", LONG[1]])
        assert build_consecutive([d]) == []

    def test_filter_off(self):
        d = make_dialogue([LONG[0], "thank you", LONG[1]])
        out = build_consecutive([d], PairBuildConfig(apply_length_filter=False))
        assert len(out) == 2


class TestKTo1:
    def test_paper_layout(self):
        d = make_dialogue(LONG[:4])
        out = build_k_to_1([d], 2)
        assert [(p.query, p.response) for p in out] == [
            (f"{LONG[0]} [SEP] {LONG[1]}", LONG[2]),
            (f"{LONG[1]} [SEP] {LONG[2]}", LONG[3]),
        ]
        assert all(p.source is PairSource.CONSEC_2_1 for p in out)

    def test_too_short(self):
        d = make_dialogue(LONG[:3])
        assert build_k_to_1([d], 3) == []

    def test_counting(self):
        d = make_dialogue(LONG[:5])
        assert len(build_k_to_1([d], 3)) == 2

    def test_bad_k(self):
        with pytest.raises(ValueError):
            build_k_to_1([], 4)


class TestCombined:
    @pytest.mark.parametrize("n,expected", [(4, 6), (3, 3), (10, 24)])
    def test_counting(self, n, expected):
        d = make_dialogue(LONG[:n])
        assert len(build_combined([d])) == expected

    def test_multiset_union(self):
        d = make_dialogue(LONG[:6])
        combined = [(p.query, p.response) for p in build_combined([d])]
        union = []
        for width in (1, 2, 3):
            fn = build_consecutive if width == 1 else lambda ds, w=width: build_k_to_1(ds, w)
            union += [(p.query, p.response) for p in fn([d])]
        assert sorted(combined) == sorted(union)


class TestSelfPairs:
    def test_dedup(self):
        d = make_dialogue(["find me some restaurants"] * 3)
        out = build_self_pairs([d])
        assert len(out) == 1
        assert out[0].query == out[0].response

    def test_two_distinct(self):
        d = make_dialogue([LONG[0], LONG[1]])
        out = build_self_pairs([d])
        assert len(out) == 2
        assert all(p.query == p.response and p.source is PairSource.SELF for p in out)

    def test_unique_leq_total(self):
        dialogues = [make_dialogue(LONG[:5], f"d{i}") for i in range(4)]
        total_surviving = sum(
            1 for d in dialogues for t in d.turns if passes_length_filter(t.text)
        )
        assert len(build_self_pairs(dialogues)) <= total_surviving


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
            for width in (1, 2, 3):
                fn = build_consecutive if width == 1 else lambda ds, w=width: build_k_to_1(ds, w)
                got = [(p.query, p.response) for p in fn([d])]
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
            for p in build_combined([d]):
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


class TestStrategyDispatch:
    def test_names(self):
        d = make_dialogue(LONG[:5])
        assert build_pairs([d], "consec") == build_consecutive([d])
        assert build_pairs([d], "k2") == build_k_to_1([d], 2)
        assert build_pairs([d], "combined") == build_combined([d])
        with pytest.raises(ValueError):
            build_pairs([d], "nope")

    def test_determinism(self):
        dialogues = [make_dialogue(LONG[:6], f"d{i}") for i in range(3)]
        assert build_combined(dialogues) == build_combined(dialogues)


class TestPairFile:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("a b c d\te f g h\n# comment\nq q q q\tr r r r\n")
        out = load_pair_file(p)
        assert [(x.query, x.response) for x in out] == [
            ("a b c d", "e f g h"), ("q q q q", "r r r r"),
        ]
        assert all(x.source is PairSource.FILE for x in out)

    def test_empty(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("")
        assert load_pair_file(p) == []

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

    def test_save_load(self, tmp_path):
        pairs = [TrainPair("a b", "c d", PairSource.FILE)]
        p = tmp_path / "out.tsv"
        save_pair_file(pairs, p)
        assert [(x.query, x.response) for x in load_pair_file(p)] == [("a b", "c d")]

