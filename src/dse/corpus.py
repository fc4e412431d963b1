"""Dialogue data model, JSONL ingestion, hashing tokenizer, and synthetic corpora.

A corpus file is UTF-8 JSON Lines: one dialogue per line, formatted as
``{"id": str, "turns": [{"speaker": "usr"|"sys", "text": str}, ...]}``.

Tokenization is deliberately trivial: lowercase, split on whitespace runs,
and hash each word into a fixed-size id space with seeded 64-bit FNV-1a.
Ids 0-2 are reserved for the special tokens [SEP], [SYS], [USR] so that
multi-utterance queries and dialogue-history strings share one id space.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

SEP_ID = 0
SYS_ID = 1
USR_ID = 2
NUM_RESERVED = 3

SEP_TOKEN = "[SEP]"
SYS_TOKEN = "[SYS]"
USR_TOKEN = "[USR]"

_SPECIAL_IDS = {"[sep]": SEP_ID, "[sys]": SYS_ID, "[usr]": USR_ID}

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


class Speaker(Enum):
    USR = "usr"
    SYS = "sys"


@dataclass(frozen=True)
class Turn:
    speaker: Speaker
    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("turn text must be non-empty after trimming")


@dataclass(frozen=True)
class Dialogue:
    id: str
    turns: tuple[Turn, ...]

    def __post_init__(self) -> None:
        if len(self.turns) < 1:
            raise ValueError(f"dialogue {self.id!r} has no turns")


@dataclass(frozen=True)
class TokenSeq:
    """The token ids of one text, in word order."""

    ids: tuple[int, ...]


class CorpusFormatError(ValueError):
    pass


def _fnv1a_64(data: bytes, seed: int) -> int:
    h = (_FNV_OFFSET ^ (seed & _MASK64)) & _MASK64
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@functools.lru_cache(maxsize=1 << 16)
def _word_id(word: str, vocab_size: int, hash_seed: int) -> int:
    """Id of one lowercased word. Cached: a corpus repeats its words, and the hash is pure Python."""
    special = _SPECIAL_IDS.get(word)
    if special is not None:
        return special
    return NUM_RESERVED + _fnv1a_64(word.encode("utf-8"), hash_seed) % (vocab_size - NUM_RESERVED)


def tokenize(text: str, vocab_size: int, hash_seed: int = 0) -> TokenSeq:
    """Map text to token ids: lowercase, whitespace split, seeded FNV-1a hash.

    Ordinary words land in ``[NUM_RESERVED, vocab_size)``; the literal tokens
    [SEP]/[SYS]/[USR] (case-insensitive) map to their reserved ids. Pure and
    deterministic for a fixed (text, vocab_size, hash_seed) triple.
    """
    if vocab_size < 8:
        raise ValueError(f"vocab_size must be >= 8, got {vocab_size}")
    return TokenSeq(ids=tuple([_word_id(word, vocab_size, hash_seed) for word in text.lower().split()]))


def word_count(text: str) -> int:
    return len(text.split())


def passes_length_filter(text: str) -> bool:
    """True iff the text has at least 4 whitespace-delimited words.

    Shorter utterances (e.g. "thank you") pair with too many unrelated
    contexts to make useful positives, so pair construction drops them.
    """
    return word_count(text) >= 4


def load_corpus(path: str | Path) -> list[Dialogue]:
    """Read a JSONL corpus file; one Dialogue per non-blank line.

    Raises CorpusFormatError naming the 1-based line number for malformed
    lines, empty turn texts, and duplicate dialogue ids.
    """
    dialogues: list[Dialogue] = []
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
            try:
                dialogue = _parse_dialogue(obj)
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(f"line {lineno}: {exc}") from exc
            if dialogue.id in seen_ids:
                raise CorpusFormatError(f"line {lineno}: duplicate dialogue id {dialogue.id!r}")
            seen_ids.add(dialogue.id)
            dialogues.append(dialogue)
    return dialogues


def read_tsv(
    path: str | Path,
    num_fields: int,
    error: type[ValueError] = CorpusFormatError,
    text_fields: int | None = None,
) -> list[list[str]]:
    """The fields of each data line of a TAB-separated file.

    Blank lines and lines starting with '#' are skipped. A line with any
    other field count raises ``error`` naming its line number, and so does
    a line whose first ``text_fields`` fields (default: all) include one
    without a word, since such a text has no tokens to embed.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != num_fields:
                raise error(f"line {lineno}: expected {num_fields} tab-separated fields, got {len(fields)}")
            for k, text in enumerate(fields[:text_fields], start=1):
                if not text.split():
                    raise error(f"line {lineno}: field {k} has no word")
            rows.append(fields)
    return rows


def _parse_dialogue(obj: object) -> Dialogue:
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    did = obj["id"]
    if not isinstance(did, str):
        raise ValueError("'id' must be a string")
    raw_turns = obj["turns"]
    if not isinstance(raw_turns, list) or not raw_turns:
        raise ValueError("'turns' must be a non-empty list")
    turns = []
    for t in raw_turns:
        speaker = Speaker(t["speaker"])
        text = t["text"]
        if not isinstance(text, str):
            raise ValueError("turn 'text' must be a string")
        turns.append(Turn(speaker=speaker, text=text))
    return Dialogue(id=did, turns=tuple(turns))


def save_corpus(dialogues: list[Dialogue], path: str | Path) -> None:
    """Write dialogues in canonical JSONL form (load/save roundtrip-stable)."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in dialogues:
            fh.write(dialogue_to_json(d) + "\n")


def dialogue_to_json(d: Dialogue) -> str:
    obj = {
        "id": d.id,
        "turns": [{"speaker": t.speaker.value, "text": t.text} for t in d.turns],
    }
    return json.dumps(obj, ensure_ascii=False, separators=(", ", ": "))


def topic_word(topic: int, index: int) -> str:
    """The index-th word of a topic's pool; pools are textually disjoint."""
    return f"t{topic}w{index}"


def topic_of_dialogue(d: Dialogue) -> int:
    """Recover the topic index encoded in a synthetic dialogue's id."""
    stem = d.id.split("_", 1)[0]
    if not stem.startswith("topic"):
        raise ValueError(f"dialogue id {d.id!r} does not encode a topic")
    return int(stem[len("topic"):])


def gen_synthetic(
    num_topics: int,
    dialogues_per_topic: int,
    turns_per_dialogue: int,
    words_per_turn: int,
    seed: int,
    pool_size: int = 24,
) -> list[Dialogue]:
    """Generate a topic-structured corpus for end-to-end sanity experiments.

    Every turn of a topic-t dialogue samples its words uniformly from that
    topic's private pool of ``pool_size`` words; pools never overlap, so
    any cross-topic similarity in the learned space comes from training
    dynamics alone. Dialogue ids encode the topic ("topic3_d17") for
    downstream labeling. Deterministic for a fixed seed; the pools
    themselves depend only on the topic index, not on the seed.
    """
    if min(num_topics, dialogues_per_topic, turns_per_dialogue, words_per_turn) < 1:
        raise ValueError("all counts must be >= 1")
    if words_per_turn < 4:
        raise ValueError("words_per_turn must be >= 4 so turns pass the length filter")
    rng = np.random.default_rng(seed)
    dialogues = []
    for topic in range(num_topics):
        pool = [topic_word(topic, j) for j in range(pool_size)]
        for di in range(dialogues_per_topic):
            turns = []
            for ti in range(turns_per_dialogue):
                words = rng.choice(pool, size=words_per_turn, replace=True)
                speaker = Speaker.USR if ti % 2 == 0 else Speaker.SYS
                turns.append(Turn(speaker=speaker, text=" ".join(words)))
            dialogues.append(Dialogue(id=f"topic{topic}_d{di}", turns=tuple(turns)))
    return dialogues
