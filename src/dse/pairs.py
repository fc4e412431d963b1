"""Positive-pair construction from dialogues.

Strategies, by their CLI names:
  * consec: adjacent utterances of one dialogue
  * k2, k3: k consecutive utterances joined by " [SEP] " as the query, the
    next utterance as the response
  * combined: the consec, k2 and k3 outputs, in that order
  * self: (x, x) per unique surviving utterance; the two embeddings later
    diverge through independent dropout masks
  * file: explicit pair files (TSV) for externally labeled positives

Short utterances (<= 3 words) are dropped before pairing when the filter
is on; a dropped turn breaks adjacency, so no pair spans it.
Pairs are emitted in one orientation only; the loss symmetrizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import SEP_TOKEN, Dialogue, passes_length_filter, read_tsv

# Query widths of each windowed strategy, in output order.
WINDOW_WIDTHS: dict[str, tuple[int, ...]] = {
    "consec": (1,),
    "k2": (2,),
    "k3": (3,),
    "combined": (1, 2, 3),
}
STRATEGIES = (*WINDOW_WIDTHS, "self")


@dataclass(frozen=True)
class TrainPair:
    query: str
    response: str


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


def build_pairs(dialogues: list[Dialogue], strategy: str, cfg: PairBuildConfig | None = None) -> list[TrainPair]:
    """The pairs of one strategy: consec | k2 | k3 | combined | self.

    A windowed strategy joins ``width`` surviving turns by " [SEP] " as the
    query and takes the next survivor as the response, so a run of n
    survivors yields max(0, n - width) pairs per width. ``self`` gives one
    (x, x) pair per unique surviving text, corpus-wide, deduplicated by
    exact match after trimming, in first-seen order.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown pair strategy {strategy!r}; expected one of {', '.join(STRATEGIES)}")
    runs = [run for d in dialogues for run in _surviving_runs(d, cfg or PairBuildConfig())]
    if strategy == "self":
        return [TrainPair(text, text) for text in dict.fromkeys(t.strip() for run in runs for t in run)]
    sep = f" {SEP_TOKEN} "
    return [TrainPair(sep.join(run[start : start + width]), run[start + width])
            for width in WINDOW_WIDTHS[strategy]
            for run in runs
            for start in range(len(run) - width)]


def load_pair_file(path: str | Path) -> list[TrainPair]:
    """Read TAB-separated (query, response) pairs; '#' lines are comments.

    No length filtering is applied: the file author decides what counts
    as a positive. A query or response without a single word is rejected,
    with its line number, and so is a file with no pair.
    """
    return [TrainPair(query, response) for query, response in read_tsv(path, 2, PairFileError)]


def save_pair_file(pairs: list[TrainPair], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(f"{p.query}\t{p.response}\n")
