"""Mutation runner: apply one-line mutants to a copy of the repo and see which the tests kill.

Each mutant replaces one exact line fragment in one source file. The runner
copies the working tree into a temporary directory, applies the mutant there,
runs the tier-1 suite and prints a kill matrix: one row per mutant, with the
number of failing tests and the first of them. A mutant that no test fails
"survived": some behaviour it changes is pinned by no test.

    python tools/mutants.py                 # every mutant (about 45 s each)
    python tools/mutants.py adam-eps ...    # the named mutants only

The unmutated copy runs first and must pass. The repo itself is never written.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--tb=no", "-rfE"]

# (name, file, exact fragment, replacement); each fragment occurs exactly once in its file.
MUTANTS = [
    ("adam-eps", "src/dse/trainer.py", "ADAM_EPS = 1e-8", "ADAM_EPS = 1e-7"),
    ("adam-beta2", "src/dse/trainer.py", "ADAM_BETA2 = 0.999", "ADAM_BETA2 = 0.99"),
    ("dropout-seed-no-epoch", "src/dse/trainer.py",
     "rng_seed=[train_cfg.dropout_seed, epoch, step]", "rng_seed=[train_cfg.dropout_seed, step]"),
    ("E-at-lr-head", "src/dse/trainer.py",
     'lr = cfg.lr_backbone if name == "E"', 'lr = cfg.lr_head if name == "E"'),
    ("epoch-refresh-dropped", "src/dse/trainer.py", "run.model.E[live_rows] = compact.E", "pass"),
    ("keep-size-one-batch", "src/dse/trainer.py", "if len(b) >= 2]", "if len(b) >= 1]"),
    ("dropout-half-rate", "src/dse/encoder.py",
     "drop1 = (rng.random((n, cfg.embed_dim)) >= p)", "drop1 = (rng.random((n, cfg.embed_dim)) >= p / 2)"),
    ("init-by-fan-out", "src/dse/encoder.py", "1.0 / np.sqrt(shape[0])", "1.0 / np.sqrt(shape[1])"),
    ("init-no-last-partial-block", "src/dse/encoder.py",
     "range(0, len(rows), _INIT_BLOCK_ROWS)", "range(0, len(rows) - _INIT_BLOCK_ROWS + 1, _INIT_BLOCK_ROWS)"),
    ("init-run-advance-one-row-on", "src/dse/encoder.py",
     "bitgen.advance((int(part[lo]) - done) * d)", "bitgen.advance((int(part[lo]) + 1 - done) * d)"),
    ("init-no-advance-past-table", "src/dse/encoder.py", "bitgen.advance((n - done) * d)", "None"),
    ("init-drops-last-run", "src/dse/encoder.py",
     "zip(edges[:-1], edges[1:])", "zip(edges[:-2], edges[1:-1])"),
    ("scatter-reversed-index", "src/dse/encoder.py", "np.arange(d)", "np.arange(d)[::-1]"),
    ("space-table-no-1c", "src/dse/encoder.py", r"\x1c\x1d", r"\x1d"),
    ("pool-longer-k", "src/dse/encoder.py", "live = longer[k + 1]", "live = longer[k]"),
    ("seed-no-mask", "src/dse/encoder.py",
     "_FNV_OFFSET ^ (cfg.hash_seed & _MASK64)", "_FNV_OFFSET ^ cfg.hash_seed"),
    ("db1-mean", "src/dse/encoder.py", "db1 = dpre1.sum(axis=0)", "db1 = dpre1.mean(axis=0)"),
    ("longest-first-no-offset", "src/dse/encoder.py", "key = (top - sizes).astype(", "key = sizes.astype("),
    ("longest-first-16-bit-key", "src/dse/encoder.py", "np.min_scalar_type(top)", "np.uint16"),
    ("row-block-drops-last-row", "src/dse/loss.py", "e = min(s + step, n)", "e = min(s + step - 1, n)"),
    ("row-block-partner-is-row", "src/dse/loss.py", "(local, partners[s:e])", "(local, rows[s:e])"),
    ("exp-zero-limit", "src/dse/loss.py", "_EXP_ZERO_BELOW = -708.3964185322641", "_EXP_ZERO_BELOW = -700.0"),
    ("exp-zero-limit-old", "src/dse/loss.py", "_EXP_ZERO_BELOW = -708.3964185322641", "_EXP_ZERO_BELOW = -746.0"),
    ("compacted-drops-transpose", "src/dse/loss.py", "G[cols] += wc.T @ U[block]", "pass"),
    ("occupancy-always-dense", "src/dse/loss.py", "occupied) >= n * n:", "occupied) >= 0:"),
    ("row-scale-misses-n", "src/dse/loss.py", "row_sum[block] * (n * tau)", "row_sum[block] * tau"),
    ("partition-by-core-count", "src/dse/loss.py",
     "[slice(s, s + _GEMM_ROWS) for s in range(0, n, _GEMM_ROWS)]",
     "[slice(s, s + k) for k in [-(-n // len(os.sched_getaffinity(0)))] for s in range(0, n, k)]"),
    ("worker-skips-clip", "src/dse/loss.py", "np.clip(part, -1.0, 1.0, out=part)",
     "__import__('threading').current_thread() is __import__('threading').main_thread()"
     " and np.clip(part, -1.0, 1.0, out=part)"),
    ("rank-ties-for-gold", "src/dse/evaluation.py",
     "np.count_nonzero(sims[1:] >= sims[0])", "np.count_nonzero(sims[1:] > sims[0])"),
    ("f1-empty-label-zero", "src/dse/evaluation.py", "out=np.ones(len(den))", "out=np.zeros(len(den))"),
    ("probe-no-bias-step", "src/dse/evaluation.py", "b -= db", "pass"),
    ("probe-grad-over-n", "src/dse/evaluation.py", "Z /= n * L", "Z /= n"),
    ("oos-in-accuracy-over-all", "src/dse/evaluation.py", "right & ~gold_oos", "right"),
    ("oos-recall-over-all", "src/dse/evaluation.py", "/ n_oos if n_oos", "/ n if n_oos"),
    ("oos-threshold-not-strict", "src/dse/evaluation.py", "sims < threshold", "sims <= threshold"),
    ("prototype-divide-by-all", "src/dse/evaluation.py",
     "np.bincount(group)[:, None].astype(np.float64)", "np.float64(len(group))"),
    ("prototype-start-minus-zero", "src/dse/evaluation.py", "sums = np.zeros(", "sums = -np.zeros("),
    ("multilabel-rows-reversed", "src/dse/evaluation.py", "bits[row_ids,", "bits[row_ids[::-1],"),
    ("tsv-no-data-lines-ok", "src/dse/corpus.py", "if not rows:", "if False:"),
    ("synth-draw-bound-minus-one", "src/dse/corpus.py",
     "rng.integers(0, TOPIC_POOL_SIZE,", "rng.integers(0, TOPIC_POOL_SIZE - 1,"),
    ("synth-speaker-parity-flipped", "src/dse/corpus.py", "Speaker.USR if ti % 2 == 0", "Speaker.USR if ti % 2 == 1"),
    ("length-filter-three-words", "src/dse/corpus.py", "len(text.split()) >= 4", "len(text.split()) >= 3"),
    ("self-dedup-no-strip", "src/dse/pairs.py", "dict.fromkeys(t.strip() for", "dict.fromkeys(t for"),
    ("eval-skips-out-write", "src/dse/cli.py", "_write_json_lines(args.out, [report])", "None"),
    ("intent-scores-support", "src/dse/cli.py", "zip(*validation.items)", "zip(*support.items)"),
]


def run_tier1(root: Path) -> list[str]:
    """Ids of the tests that fail in ``root``; a run that collects nothing counts as one failure."""
    env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "1")}
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return failed or ([] if proc.returncode == 0 else [f"<pytest exit {proc.returncode}>"])


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="dse-mutants-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=ignore)
        if failed := run_tier1(root):
            print(f"the unmutated copy fails {len(failed)} tests, first {failed[0]}", file=sys.stderr)
            return 1
        survivors = 0
        print(f"{'mutant':<28} {'result':<9} {'failed':>6}  first failing test")
        for name, rel, old, new in MUTANTS:
            if names and name not in names:
                continue
            path = root / rel
            source = path.read_text()
            if source.count(old) != 1:
                print(f"{name}: fragment {old!r} occurs {source.count(old)} times in {rel}", file=sys.stderr)
                return 1
            path.write_text(source.replace(old, new))
            try:
                failed = run_tier1(root)
            finally:
                path.write_text(source)
            survivors += not failed
            print(f"{name:<28} {'killed' if failed else 'SURVIVED':<9} {len(failed):>6}  {failed[0] if failed else '-'}",
                  flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
