"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload train-default --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics. The line before the result records the environment
and the outputs the checks compared (final loss, checkpoint sha256, 1-shot
intent accuracy, eval metrics). Run from the root of a source checkout; the
library is imported from its ``src/`` directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # one thread: steadier on a shared machine, and at most nproc anywhere


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads(np) -> int | None:
    """Threads the bundled OpenBLAS reports, or None when it cannot be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(np), "threads_pinned": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(ROOT),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dse").is_dir() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/dse and BENCHMARK.json to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # Pin BLAS threads before numpy is first imported; it reads these once.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import bench

    run = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        measured = run.per_layer() if args.trace else run.end_to_end()
    except ValueError:
        if not run.failed:
            raise
        measured = {}  # every call of some operation raised: report the failures
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing and not run.failed:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(np), "outputs": run.outputs(),
                      "samples": {k: {"items": run.items[k], "seconds": [t for traced, t in v if not traced]}
                                  for k, v in run.samples.items()}}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in measured},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
