"""Positive-pair construction from dialogues.

Strategies:
  * consecutive 1-to-1: adjacent utterances of one dialogue
  * k-to-1 (k=2,3): k consecutive utterances joined by " [SEP] " as the
    query, the next utterance as the response
  * combined: union of the 1-, 2-, and 3-wide outputs
  * self pairs: (x, x) per unique surviving utterance; the two embeddings
    later diverge through independent dropout masks
  * explicit pair files (TSV) for externally labeled positives

Short utterances (<= 3 words) are dropped before pairing when the filter
is on; a dropped turn breaks adjacency, so no pair spans it.
Pairs are emitted in one orientation only; the loss symmetrizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .corpus import SEP_TOKEN, Dialogue, passes_length_filter, read_tsv


class PairSource(Enum):
    CONSEC_1_1 = "consec_1_1"
    CONSEC_2_1 = "consec_2_1"
    CONSEC_3_1 = "consec_3_1"
    SELF = "self"
    FILE = "file"


_SOURCE_BY_WIDTH = {1: PairSource.CONSEC_1_1, 2: PairSource.CONSEC_2_1, 3: PairSource.CONSEC_3_1}


@dataclass(frozen=True)
class TrainPair:
    query: str
    response: str
    source: PairSource


@dataclass(frozen=True)
class PairBuildConfig:
    apply_length_filter: bool = True


class PairFileError(ValueError):
    pass


def _surviving_runs(dialogue: Dialogue, cfg: PairBuildConfig) -> list[list[str]]:
    """Maximal runs of surviving turn texts, in original order.

    Without the filter the whole dialogue is one run; otherwise each
    filtered turn splits the run, so no pair ever spans a dropped turn.
    """
    if not cfg.apply_length_filter:
        return [[t.text for t in dialogue.turns]]
    runs: list[list[str]] = []
    current: list[str] = []
    for turn in dialogue.turns:
        if passes_length_filter(turn.text):
            current.append(turn.text)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return runs


def _pairs_for_width(dialogues: list[Dialogue], width: int, cfg: PairBuildConfig) -> list[TrainPair]:
    source = _SOURCE_BY_WIDTH[width]
    out: list[TrainPair] = []
    for d in dialogues:
        for run in _surviving_runs(d, cfg):
            for start in range(len(run) - width):
                query = f" {SEP_TOKEN} ".join(run[start : start + width])
                out.append(TrainPair(query=query, response=run[start + width], source=source))
    return out


def build_consecutive(dialogues: list[Dialogue], cfg: PairBuildConfig | None = None) -> list[TrainPair]:
    """Adjacent-utterance pairs (u_t, u_{t+1}); n contiguous survivors yield n-1 pairs."""
    return _pairs_for_width(dialogues, 1, cfg or PairBuildConfig())


def build_k_to_1(dialogues: list[Dialogue], k: int, cfg: PairBuildConfig | None = None) -> list[TrainPair]:
    """Multi-utterance queries: k survivors joined by " [SEP] ", next survivor as response."""
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    return _pairs_for_width(dialogues, k, cfg or PairBuildConfig())


def build_combined(dialogues: list[Dialogue], cfg: PairBuildConfig | None = None) -> list[TrainPair]:
    """Concatenation of the width-1, width-2, and width-3 outputs."""
    out = []
    for width in (1, 2, 3):
        out.extend(_pairs_for_width(dialogues, width, cfg or PairBuildConfig()))
    return out


def build_self_pairs(dialogues: list[Dialogue], cfg: PairBuildConfig | None = None) -> list[TrainPair]:
    """One (x, x) pair per unique surviving utterance text, corpus-wide.

    Dedup is by exact string match after trimming, in first-seen order.
    """
    cfg = cfg or PairBuildConfig()
    seen: set[str] = set()
    out: list[TrainPair] = []
    for d in dialogues:
        for turn in d.turns:
            text = turn.text.strip()
            if cfg.apply_length_filter and not passes_length_filter(text):
                continue
            if text in seen:
                continue
            seen.add(text)
            out.append(TrainPair(query=text, response=text, source=PairSource.SELF))
    return out


def build_pairs(dialogues: list[Dialogue], strategy: str, cfg: PairBuildConfig | None = None) -> list[TrainPair]:
    """Dispatch on a strategy name: consec | k2 | k3 | combined | self."""
    if strategy == "consec":
        return build_consecutive(dialogues, cfg)
    if strategy == "k2":
        return build_k_to_1(dialogues, 2, cfg)
    if strategy == "k3":
        return build_k_to_1(dialogues, 3, cfg)
    if strategy == "combined":
        return build_combined(dialogues, cfg)
    if strategy == "self":
        return build_self_pairs(dialogues, cfg)
    raise ValueError(f"unknown pair strategy {strategy!r}")


def load_pair_file(path: str | Path) -> list[TrainPair]:
    """Read TAB-separated (query, response) pairs; '#' lines are comments.

    No length filtering is applied: the file author decides what counts
    as a positive. A query or response without a single word is rejected,
    with its line number.
    """
    return [TrainPair(query=query, response=response, source=PairSource.FILE)
            for query, response in read_tsv(path, 2, PairFileError)]


def save_pair_file(pairs: list[TrainPair], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(f"{p.query}\t{p.response}\n")
