"""Mutation runner: apply one-line mutants to a copy of the repo and see which the tests kill.

Each mutant replaces one exact line fragment in one source file, and names
the test that last killed it. The runner copies the working tree into a
temporary directory, applies the mutant there and runs that test first, with
``-x``. Only if it passes (or no killer is stored) does the whole tier-1 suite
run. It prints a kill matrix: one row per mutant, with its killing test
(the fastest that failed), where the kill came from (``stored``: the stored
killer; ``stale``: the stored killer ran and did not kill, so the suite ran;
``suite``: no killer is stored), the number of failing tests when the suite
ran, and the seconds taken. A mutant that no test fails "survived": some
behaviour it changes is pinned by no test.

    python tools/mutants.py                 # every mutant (seconds each when the stored killer kills)
    python tools/mutants.py adam-eps ...    # the named mutants only

The unmutated copy runs the whole suite first and must pass. The repo itself
is never written; a killer that was not the stored one is listed at the end,
to be copied into ``MUTANTS``.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# The fragment check reads the tree it runs in, where a mutant has replaced its fragment by design.
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--tb=no", "-rfE",
         "--deselect", "tests/test_cli.py::TestParser::test_each_mutant_fragment_occurs_once_in_its_file"]

# (name, file, exact fragment, replacement, last killing test); each fragment occurs exactly once in its file.
MUTANTS = [
    ("adam-eps", "src/dse/trainer.py", "ADAM_EPS = 1e-8", "ADAM_EPS = 1e-7",
     "tests/test_trainer.py::TestAdam::test_epsilon_closed_form_first_step"),
    ("adam-beta2", "src/dse/trainer.py", "ADAM_BETA2 = 0.999", "ADAM_BETA2 = 0.99",
     "tests/test_trainer.py::test_checkpoint_bytes_match_golden_digest[defaults]"),
    ("dropout-seed-no-epoch", "src/dse/trainer.py",
     "rng_seed=[train_cfg.dropout_seed, epoch, step]", "rng_seed=[train_cfg.dropout_seed, step]",
     "tests/test_trainer.py::TestTrain::test_dropout_masks_differ_between_epochs"),
    ("E-at-lr-head", "src/dse/trainer.py",
     'lr = cfg.lr_backbone if name == "E"', 'lr = cfg.lr_head if name == "E"',
     "tests/test_trainer.py::TestAdam::test_group_learning_rates"),
    ("model-skips-live-rows", "src/dse/trainer.py", "table[self.rows] = self.compact.E", "pass",
     "tests/test_trainer.py::TestTrain::test_rows_no_text_hashes_to_keep_init_bytes"),
    ("dense-bound-halved", "src/dse/trainer.py", "4 * cfg.vocab_size", "2 * cfg.vocab_size",
     "tests/test_trainer.py::TestCheckpointIO::test_vocab_size_beyond_physical_memory_named_before_allocation"),
    ("epoch-study-no-dense-check", "src/dse/cli.py", "check_dense_table(encoder_cfg)", "None",
     "tests/test_cli.py::TestEpochStudy::test_vocab_size_beyond_memory_fails_before_any_step"),
    ("header-line-without-equals", "src/dse/trainer.py", "if not sep:", "if False:",
     "tests/test_trainer.py::TestCheckpointIO::test_malformed_header_line_named[no-equals]"),
    ("header-unknown-field", "src/dse/trainer.py", "if key not in _HEADER_TYPES:", "if False:",
     "tests/test_trainer.py::TestCheckpointIO::test_malformed_header_line_named[unknown]"),
    ("header-field-repeated", "src/dse/trainer.py", "if key in header:", "if False:",
     "tests/test_trainer.py::TestCheckpointIO::test_malformed_header_line_named[repeated]"),
    ("rows-repeat-allowed", "src/dse/trainer.py", "rows[1:] <= rows[:-1]", "rows[1:] < rows[:-1]",
     "tests/test_trainer.py::TestCheckpointIO::test_bad_rows_named"
     "[1-first-^checkpoint rows: not strictly increasing at index 1 ]"),
    ("keep-size-one-batch", "src/dse/trainer.py", "if len(b) >= 2]", "if len(b) >= 1]",
     "tests/test_trainer.py::TestMakeBatches::test_size_one_remainder_dropped"),
    ("dropout-half-rate", "src/dse/encoder.py",
     "drop1 = (rng.random((n, cfg.embed_dim)) >= p)", "drop1 = (rng.random((n, cfg.embed_dim)) >= p / 2)",
     "tests/test_trainer.py::test_checkpoint_bytes_match_golden_digest[defaults]"),
    ("init-by-fan-out", "src/dse/encoder.py", "1.0 / np.sqrt(shape[0])", "1.0 / np.sqrt(shape[1])",
     "tests/test_encoder.py::TestInit::test_embedding_bounds"),
    ("init-no-last-partial-block", "src/dse/encoder.py",
     "range(0, len(rows), _INIT_BLOCK_ROWS)", "range(0, len(rows) - _INIT_BLOCK_ROWS + 1, _INIT_BLOCK_ROWS)",
     "tests/test_encoder.py::TestInit::test_block_draw_is_the_whole_draw_byte_for_byte[1025]"),
    ("init-run-advance-one-row-on", "src/dse/encoder.py",
     "bitgen.advance((int(part[lo]) - done) * d)", "bitgen.advance((int(part[lo]) + 1 - done) * d)",
     "tests/test_encoder.py::TestInit::test_block_draw_is_the_whole_draw_byte_for_byte[1]"),
    ("init-no-advance-past-table", "src/dse/encoder.py", "bitgen.advance((n - done) * d)", "None",
     "tests/test_encoder.py::TestInit::test_live_rows_are_those_rows_of_the_whole_draw"),
    ("init-drops-last-run", "src/dse/encoder.py",
     "zip(edges[:-1], edges[1:])", "zip(edges[:-2], edges[1:-1])",
     "tests/test_encoder.py::TestInit::test_block_draw_is_the_whole_draw_byte_for_byte[1]"),
    ("scatter-reversed-index", "src/dse/encoder.py", "np.arange(d)", "np.arange(d)[::-1]",
     "tests/test_encoder.py::TestBackward::test_flat_scatter_of_one_id_repeated_is_the_row_scatter[float32]"),
    ("space-table-no-1c", "src/dse/encoder.py", r"\x1c\x1d", r"\x1d",
     "tests/test_encoder.py::TestTokenizerOracle::test_every_isspace_code_point_separates_words"),
    ("pool-longer-k", "src/dse/encoder.py", "live = longer[k + 1]", "live = longer[k]",
     "tests/test_encoder.py::TestForward::test_eval_deterministic"),
    ("seed-no-mask", "src/dse/encoder.py",
     "_FNV_OFFSET ^ (cfg.hash_seed & _MASK64)", "_FNV_OFFSET ^ cfg.hash_seed",
     "tests/test_encoder.py::TestTokenizerOracle::test_ids_and_lengths_equal_the_oracle"),
    ("db1-mean", "src/dse/encoder.py", "db1 = dpre1.sum(axis=0)", "db1 = dpre1.mean(axis=0)",
     "tests/test_trainer.py::test_checkpoint_bytes_match_golden_digest[defaults]"),
    ("longest-first-no-offset", "src/dse/encoder.py", "key = (top - sizes).astype(", "key = sizes.astype(",
     "tests/test_encoder.py::TestForward::test_pool_is_per_row_mean_byte_for_byte[float32]"),
    ("longest-first-16-bit-key", "src/dse/encoder.py", "np.min_scalar_type(top)", "np.uint16",
     "tests/test_encoder.py::TestTokenizerOracle::test_ids_and_lengths_equal_the_oracle"),
    ("dense-side-drops-transpose", "src/dse/loss.py", "(w + w.T) @ U", "(w + w) @ U",
     "tests/test_loss.py::TestBatchLoss::test_embedding_gradient_fd"),
    ("row-block-drops-last-row", "src/dse/loss.py", "e = min(s + step, n)", "e = min(s + step - 1, n)",
     "tests/test_loss.py::TestAgainstReference::test_random_batches[False-256]"),
    ("row-block-partner-is-row", "src/dse/loss.py", "(local, partners[s:e])", "(local, rows[s:e])",
     "tests/test_acceptance.py::test_criterion_5_worked_value"),
    ("exp-zero-limit", "src/dse/loss.py", "_EXP_ZERO_BELOW = -708.3964185322641", "_EXP_ZERO_BELOW = -700.0",
     "tests/test_loss.py::TestLossKernels::test_exp_limit_is_the_normal_boundary"),
    ("exp-zero-limit-old", "src/dse/loss.py", "_EXP_ZERO_BELOW = -708.3964185322641", "_EXP_ZERO_BELOW = -746.0",
     "tests/test_loss.py::TestLossKernels::test_exp_limit_is_the_normal_boundary"),
    ("compacted-drops-transpose", "src/dse/loss.py", "G[cols] += wc.T @ U[block]", "pass",
     "tests/test_loss.py::TestBatchLoss::test_embedding_gradient_fd"),
    ("occupancy-always-dense", "src/dse/loss.py", "occupied) >= n * n:", "occupied) >= 0:",
     "tests/test_loss.py::TestAgainstReference::test_many_row_blocks[True]"),
    ("row-scale-misses-n", "src/dse/loss.py", "row_sum[block] * (n * tau)", "row_sum[block] * tau",
     "tests/test_loss.py::TestBatchLoss::test_embedding_gradient_fd"),
    ("partition-by-core-count", "src/dse/loss.py",
     "[slice(s, s + _GEMM_ROWS) for s in range(0, n, _GEMM_ROWS)]",
     "[slice(s, s + k) for k in [-(-n // len(os.sched_getaffinity(0)))] for s in range(0, n, k)]",
     "tests/test_loss.py::TestAgainstReference::test_many_row_blocks[False]"),
    ("worker-skips-clip", "src/dse/loss.py", "np.clip(part, -1.0, 1.0, out=part)",
     "__import__('threading').current_thread() is __import__('threading').main_thread()"
     " and np.clip(part, -1.0, 1.0, out=part)",
     "tests/test_loss.py::TestCpuCount::test_bytes_do_not_depend_on_the_cpu_count[peaked-1030]"),
    ("rank-ties-for-gold", "src/dse/evaluation.py", "sims[:, 1:] >= sims", "sims[:, 1:] > sims",
     "tests/test_evaluation.py::TestRankTopk::test_identically_tokenized_distractor_ties_against_gold"),
    ("rank-gold-column-wrong", "src/dse/evaluation.py", "sims[:, :1], axis=1)", "sims[:, 1:2], axis=1)",
     "tests/test_evaluation.py::TestRankTopk::test_gold_identical_to_query"),
    ("rank-scored-rows-shifted", "src/dse/evaluation.py",
     "texts[r] for r in rows", "texts[r] for r in np.roll(rows, 1)",
     "tests/test_evaluation.py::TestRankTopk::test_embeds_each_scored_text_once_in_one_call_in_order_of_first_use"),
    ("f1-empty-label-zero", "src/dse/evaluation.py", "out=np.ones(len(den))", "out=np.zeros(len(den))",
     "tests/test_evaluation.py::TestF1::test_all_missed"),
    ("probe-no-bias-step", "src/dse/evaluation.py", "b -= db", "pass",
     "tests/test_evaluation.py::TestActionProbe::test_fit_equals_reference_loop_bytes[1-0.3-1-1-1]"),
    ("probe-grad-over-n", "src/dse/evaluation.py", "Z /= n * L", "Z /= n",
     "tests/test_evaluation.py::TestActionProbe::test_fit_equals_reference_loop_bytes[1-0.3-7-3-2]"),
    ("oos-in-accuracy-over-all", "src/dse/evaluation.py", "right & ~gold_oos", "right",
     "tests/test_evaluation.py::TestOOSMetrics::test_perfect_predictor"),
    ("oos-recall-over-all", "src/dse/evaluation.py", "/ n_oos if n_oos", "/ n if n_oos",
     "tests/test_evaluation.py::TestOOSMetrics::test_perfect_predictor"),
    ("oos-threshold-not-strict", "src/dse/evaluation.py", "sims < threshold", "sims <= threshold",
     "tests/test_evaluation.py::TestDetectOOS::test_equal_sims_mean_rule_flags_nothing"),
    ("prototype-divide-by-all", "src/dse/evaluation.py",
     "np.bincount(group)[:, None].astype(np.float64)", "np.float64(len(group))",
     "tests/test_evaluation.py::TestPrototypes::test_one_shot_equals_support"),
    ("prototype-start-minus-zero", "src/dse/evaluation.py", "sums = np.zeros(", "sums = -np.zeros(",
     "tests/test_evaluation.py::TestPrototypes::test_bytes_equal_per_label_mean[float32]"),
    ("multilabel-rows-reversed", "src/dse/evaluation.py", "bits[row_ids,", "bits[row_ids[::-1],",
     "tests/test_evaluation.py::TestLoaders::test_multilabel_tsv"),
    ("tsv-no-data-lines-ok", "src/dse/corpus.py", "if not rows:", "if False:",
     "tests/test_evaluation.py::TestLoaders::test_no_data_lines_names_file[load_labeled_tsv]"),
    ("synth-draw-bound-minus-one", "src/dse/corpus.py",
     "rng.integers(0, TOPIC_POOL_SIZE,", "rng.integers(0, TOPIC_POOL_SIZE - 1,",
     "tests/test_corpus.py::TestGenSynthetic::test_stream_matches_per_turn_choice[0]"),
    ("synth-speaker-parity-flipped", "src/dse/corpus.py", "Speaker.USR if ti % 2 == 0", "Speaker.USR if ti % 2 == 1",
     "tests/test_corpus.py::TestGenSynthetic::test_stream_matches_per_turn_choice[0]"),
    ("length-filter-three-words", "src/dse/corpus.py", "len(text.split()) >= 4", "len(text.split()) >= 3",
     "tests/test_corpus.py::TestLengthFilter::test_boundary"),
    ("self-dedup-no-strip", "src/dse/pairs.py", "dict.fromkeys(t.strip() for", "dict.fromkeys(t for",
     "tests/test_pairs.py::TestStrategyDispatch::test_matches_reference[self-filter]"),
    ("eval-skips-out-write", "src/dse/cli.py", "_write_json_lines(args.out, [report])", "None",
     "tests/test_cli.py::TestEvalCommands::test_eval_intent"),
    ("intent-scores-support", "src/dse/cli.py", "zip(*validation.items)", "zip(*support.items)",
     "tests/test_cli.py::TestEvalCommands::test_eval_intent"),
]


def failing_tests(root: Path, *args: str) -> tuple[list[str], int]:
    """(ids of the tests that fail, fastest first, and pytest's exit code) for the tier-1 command plus
    ``args``, in ``root``. The fastest killer is the cheapest to run first next time."""
    env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "1")}
    proc = subprocess.run([*TIER1, "--durations=0", *args], cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    # "FAILED <id> - <message>" and "<seconds>s call     <id>"; a parametrized id may hold spaces
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    seconds: dict[str, float] = {}
    for line in lines:
        if match := re.fullmatch(r"([0-9.]+)s (?:setup|call|teardown) +(.+)", line):
            seconds[match[2]] = seconds.get(match[2], 0.0) + float(match[1])
    return sorted(failed, key=lambda test: seconds.get(test, 0.0)), proc.returncode


def run_tier1(root: Path) -> list[str]:
    """Ids of the tests that fail in ``root``; a run that collects nothing counts as one failure."""
    failed, code = failing_tests(root)
    return failed or ([] if code == 0 else [f"<pytest exit {code}>"])


def kill(root: Path, killer: str | None) -> tuple[list[str], str]:
    """(failing test ids, where they come from: "stored", "stale" or "suite").

    The stored killer runs first, with ``-x``; the whole suite runs only if it
    passes, and the stored killer is then stale. A killer that no longer exists
    fails nothing, so it is stale too."""
    if killer:
        failed, _ = failing_tests(root, "-x", killer)
        if failed:
            return failed, "stored"
    return run_tier1(root), "stale" if killer else "suite"


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="dse-mutants-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=ignore)
        if failed := run_tier1(root):
            print(f"the unmutated copy fails {len(failed)} tests, first {failed[0]}", file=sys.stderr)
            return 1
        survivors, new_killers = 0, []
        print(f"{'mutant':<28} {'result':<9} {'killer':<7} {'failed':>6} {'s':>6}  killing test")
        for name, rel, old, new, killer in MUTANTS:
            if names and name not in names:
                continue
            path = root / rel
            source = path.read_text()
            if source.count(old) != 1:
                print(f"{name}: fragment {old!r} occurs {source.count(old)} times in {rel}", file=sys.stderr)
                return 1
            path.write_text(source.replace(old, new))
            began = time.perf_counter()
            try:
                failed, source_of_kill = kill(root, killer)
            finally:
                path.write_text(source)
            survivors += not failed
            if failed and source_of_kill != "stored":
                new_killers.append((name, failed[0]))
            print(f"{name:<28} {'killed' if failed else 'SURVIVED':<9} {source_of_kill:<7} "
                  f"{'-' if source_of_kill == 'stored' else len(failed):>6} {time.perf_counter() - began:>6.1f}  "
                  f"{failed[0] if failed else '-'}", flush=True)
    print(f"wall time {time.perf_counter() - start:.0f} s, {survivors} survived")
    for name, test in new_killers:
        print(f"new killer: {name} {test}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
