"""Check the pinned checkpoint digests of the README's command-line flow.

Runs ``dse synth --topics 8 --dialogues 100``, ``dse build-pairs --strategy
consec`` and ``dse train`` in a temporary directory, in-process through
``dse.cli.main``, once at the defaults and once at ``--preset paper --epochs 1``,
and compares each checkpoint's sha256 with the pinned value. A change that
moves checkpoint bytes on purpose updates the pin and says old -> new in
CHANGES.md.

    PYTHONPATH=src python tools/cli_digests.py    # about 5 s; exit 1 on a mismatch

``tests/test_cli.py`` runs the same check through ``digests`` and ``PINNED``.

The pins were taken on numpy 2.4.6 and scipy-openblas 0.3.31; another numpy
or BLAS may round differently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dse.cli import main as dse  # noqa: E402

PINNED = {
    "defaults": ([], "4c0fe8be75f694a3bb91cf680078ac5b5d42b1eeeab4ad6e3a99d4de52722eab"),
    "paper": (["--preset", "paper", "--epochs", "1"],
              "023a22138152163d5eb5abc6f717cb7217bbec5c2c747aca630147461e9f2a98"),
}


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dse(argv)
    if code != 0:
        raise SystemExit(f"dse {' '.join(argv)} exited {code}")


def digests() -> dict[str, str]:
    """sha256 of the checkpoint of each PINNED run, by name."""
    got = {}
    with tempfile.TemporaryDirectory(prefix="dse-digests-") as tmp:
        corpus, pairs = f"{tmp}/corpus.jsonl", f"{tmp}/pairs.tsv"
        run(["synth", "--topics", "8", "--dialogues", "100", "--out", corpus])
        run(["build-pairs", "--strategy", "consec", "--in", corpus, "--out", pairs])
        for name, (flags, _) in PINNED.items():
            ckpt = f"{tmp}/{name}.ckpt"
            run(["train", "--pairs", pairs, "--out", ckpt, *flags])
            got[name] = hashlib.sha256(Path(ckpt).read_bytes()).hexdigest()
    return got


def main() -> int:
    mismatches = 0
    for name, got in digests().items():
        want = PINNED[name][1]
        ok = got == want
        mismatches += not ok
        print(f"{name:<9} {'ok' if ok else 'MISMATCH':<9} {got}" + ("" if ok else f" (pinned {want})"))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
