"""Dialogue data model, UTF-8 text and JSONL ingestion, and synthetic corpora.

A corpus file is UTF-8 JSON Lines: one dialogue per line, formatted as
``{"id": str, "turns": [{"speaker": "usr"|"sys", "text": str}, ...]}``.
k-to-1 queries join their utterances with ``SEP_TOKEN``, which the
tokenizer in ``dse.encoder`` maps to a reserved id.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

SEP_TOKEN = "[SEP]"

# Words in each topic's private pool of synthetic words.
TOPIC_POOL_SIZE = 24


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


class CorpusFormatError(ValueError):
    pass


def read_lines(path: str | Path, error: type[ValueError] = CorpusFormatError) -> list[str]:
    """The lines of a UTF-8 text file, split as text mode splits them; a byte
    that is not UTF-8 raises ``error`` naming the file and its 1-based line."""
    raw = Path(path).read_bytes()
    try:
        return io.StringIO(raw.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        lineno = raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise error(f"{path}: line {lineno}: invalid UTF-8 byte 0x{raw[exc.start]:02x} ({exc.reason})") from None


def passes_length_filter(text: str) -> bool:
    """True iff the text has at least 4 whitespace-delimited words.

    Shorter utterances (e.g. "thank you") pair with too many unrelated
    contexts to make useful positives, so pair construction drops them.
    """
    return len(text.split()) >= 4


def load_corpus(path: str | Path) -> list[Dialogue]:
    """Read a JSONL corpus file; one Dialogue per non-blank line.

    Raises CorpusFormatError naming the file and the 1-based line number for
    malformed lines, empty turn texts, and duplicate dialogue ids.
    """
    dialogues: list[Dialogue] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
        try:
            dialogue = _parse_dialogue(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from exc
        if dialogue.id in seen_ids:
            raise CorpusFormatError(f"{path}: line {lineno}: duplicate dialogue id {dialogue.id!r}")
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
    other field count raises ``error`` naming the file and line, and so does
    a line whose first ``text_fields`` fields (default: all) include one
    without a word, since such a text has no tokens to embed. A file with
    no data line raises ``error`` naming the file.
    """
    rows = []
    for lineno, line in enumerate(read_lines(path, error), start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != num_fields:
            raise error(f"{path}: line {lineno}: expected {num_fields} tab-separated fields, got {len(fields)}")
        for k, text in enumerate(fields[:text_fields], start=1):
            if not text.split():
                raise error(f"{path}: line {lineno}: field {k} has no word")
        rows.append(fields)
    if not rows:
        raise error(f"{path}: no data lines")
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
    for k, t in enumerate(raw_turns, start=1):
        if not isinstance(t, dict):
            raise ValueError(f"turn {k} must be a JSON object")
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
    """Recover the topic index encoded in a synthetic dialogue's id ("topic" and ASCII digits)."""
    stem = d.id.split("_", 1)[0]
    digits = stem[len("topic"):]
    if not stem.startswith("topic") or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"dialogue id {d.id!r} does not encode a topic")
    return int(digits)


def gen_synthetic(
    num_topics: int,
    dialogues_per_topic: int,
    turns_per_dialogue: int,
    words_per_turn: int,
    seed: int,
) -> list[Dialogue]:
    """Generate a topic-structured corpus for end-to-end sanity experiments.

    Every turn of a topic-t dialogue samples its words uniformly from that
    topic's private pool of ``TOPIC_POOL_SIZE`` words; pools never overlap, so
    any cross-topic similarity in the learned space comes from training
    dynamics alone. Dialogue ids encode the topic ("topic3_d17") for
    downstream labeling. Deterministic for a fixed seed; the pools
    themselves depend only on the topic index, not on the seed.

    Word ids are drawn one topic at a time, in one ``integers`` call, and the
    corpus is byte-identical to earlier versions' for the same arguments and
    seed: their per-turn ``rng.choice(pool, words_per_turn)`` is an
    ``integers(0, len(pool))`` draw, and PCG64 carries its spare 32-bit half
    from one call to the next, so one draw per topic gives the same ids.
    """
    if min(num_topics, dialogues_per_topic, turns_per_dialogue, words_per_turn) < 1:
        raise ValueError("all counts must be >= 1")
    if words_per_turn < 4:
        raise ValueError("words_per_turn must be >= 4 so turns pass the length filter")
    rng = np.random.default_rng(seed)
    speakers = [Speaker.USR if ti % 2 == 0 else Speaker.SYS for ti in range(turns_per_dialogue)]
    dialogues = []
    for topic in range(num_topics):
        pool = np.array([topic_word(topic, j) for j in range(TOPIC_POOL_SIZE)], dtype=object)
        draws = rng.integers(0, TOPIC_POOL_SIZE, size=(dialogues_per_topic, turns_per_dialogue, words_per_turn))
        for di, words in enumerate(pool[draws].tolist()):
            turns = tuple(Turn(speaker, " ".join(w)) for speaker, w in zip(speakers, words))
            dialogues.append(Dialogue(id=f"topic{topic}_d{di}", turns=turns))
    return dialogues
