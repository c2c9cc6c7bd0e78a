"""Wall-clock benchmark of the fast-path execution layer.

Measures two things and writes them to ``BENCH_fastpath.json``:

* **cells** — a representative set of driven measurement cells run
  sequentially in-process, fast path off then on. This isolates the
  batched store pipeline + replay cache, independent of core count.
* **grid** — the full ``repro-experiments`` grid run as subprocesses,
  reference (``--no-fastpath``, sequential) versus fast
  (``--jobs N``). This is the headline number: regenerating every
  table and figure of the paper, before and after.

Usage::

    python benchmarks/bench_fastpath.py                   # measure
    python benchmarks/bench_fastpath.py --check BENCH_fastpath.json

Reports are written in the canonical ``repro-bench-v1`` trajectory
format (root ``BENCH_fastpath.json`` is the committed baseline);
``--check BASELINE`` delegates to ``python -m repro.obs.bench
compare`` and exits non-zero if either measured speedup fell below 80%
of the committed baseline's — the CI guard against quietly losing the
optimization.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

from _common import add_report_options, finalize, flatten_metrics, report_path

#: The in-process cell set: one of each replication style, both
#: workloads, including the heavy v1 mirror (uncoalesced) path.
CELL_SET = [
    ("passive", ("v0", "debit-credit", None)),
    ("passive", ("v3", "order-entry", None)),
    ("passive", ("v1", "debit-credit", None)),
    ("active", ("debit-credit", None)),
]


def _run_cells(transactions: int) -> float:
    from repro.experiments.common import ExperimentContext, ExperimentSettings

    ctx = ExperimentContext(ExperimentSettings(transactions=transactions))
    started = time.perf_counter()
    for kind, args in CELL_SET:
        if kind == "passive":
            ctx.passive_result(*args)
        else:
            ctx.active_result(*args)
    return time.perf_counter() - started


def bench_cells(transactions: int) -> dict:
    from repro import fastpath

    with fastpath.disabled():
        slow_s = _run_cells(transactions)
    with fastpath.forced():
        fast_s = _run_cells(transactions)
    return {
        "transactions": transactions,
        "slow_s": round(slow_s, 3),
        "fast_s": round(fast_s, 3),
        "speedup": round(slow_s / fast_s, 3),
    }


def _run_grid(extra_args, transactions: int, output_path: str) -> float:
    command = [
        sys.executable, "-m", "repro.experiments.runner",
        "--transactions", str(transactions),
    ] + extra_args
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    started = time.perf_counter()
    with open(output_path, "w") as handle:
        subprocess.run(command, check=True, env=env, stdout=handle)
    return time.perf_counter() - started


def _tables_of(path: str) -> list:
    """Grid output minus the final wall-clock line (which may differ)."""
    lines = Path(path).read_text().splitlines()
    return [line for line in lines if not line.startswith("[all experiments")]


def bench_grid(transactions: int, jobs: int) -> dict:
    """Time the full grid, reference vs fast, and golden-diff the two
    outputs: the fast path is only a fast path if every rendered table
    is byte-identical."""
    slow_s = _run_grid(["--no-fastpath"], transactions, "grid-reference.txt")
    fast_s = _run_grid(["--jobs", str(jobs)], transactions, "grid-fastpath.txt")
    identical = _tables_of("grid-reference.txt") == _tables_of("grid-fastpath.txt")
    return {
        "transactions": transactions,
        "jobs": jobs,
        "slow_s": round(slow_s, 3),
        "fast_jobs_s": round(fast_s, 3),
        "speedup": round(slow_s / fast_s, 3),
        "output_identical": identical,
    }


#: Regression-gated metrics (speedup ratios; higher is better).
GATES = {
    "cells.speedup": "higher",
    "grid.speedup": "higher",
}

UNITS = {
    "cells.speedup": "x",
    "cells.slow_s": "s",
    "cells.fast_s": "s",
    "grid.speedup": "x",
    "grid.slow_s": "s",
    "grid.fast_jobs_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transactions", type=int, default=1000)
    parser.add_argument("--cell-transactions", type=int, default=600)
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes for the fast grid run (0 = all cores)",
    )
    add_report_options(
        parser, "fastpath",
        "compare speedups against a committed baseline JSON; "
        "exit 1 on a >20%% regression",
    )
    parser.add_argument(
        "--skip-grid", action="store_true",
        help="cells only (quick local iteration)",
    )
    args = parser.parse_args(argv)
    args.output = report_path("fastpath", args.output, args.check)

    if args.jobs <= 0:
        from repro.fastpath.parallel import default_jobs

        args.jobs = default_jobs()

    report = {
        "cells": bench_cells(args.cell_transactions),
    }
    print(
        f"[cells] slow {report['cells']['slow_s']}s -> fast "
        f"{report['cells']['fast_s']}s ({report['cells']['speedup']}x)"
    )
    if not args.skip_grid:
        report["grid"] = bench_grid(args.transactions, args.jobs)
        print(
            f"[grid]  slow {report['grid']['slow_s']}s -> fast "
            f"{report['grid']['fast_jobs_s']}s "
            f"({report['grid']['speedup']}x at --jobs {args.jobs})"
        )
    if "grid" in report and not report["grid"]["output_identical"]:
        print(
            "FAIL: fast grid output differs from the --no-fastpath "
            "reference (see grid-reference.txt / grid-fastpath.txt)"
        )
        finalize("fastpath", flatten_metrics(report, GATES, UNITS),
                 args.output)
        return 1
    if "grid" in report:
        print("[grid]  fast output is byte-identical to the reference")
    return finalize("fastpath", flatten_metrics(report, GATES, UNITS),
                    args.output, check_path=args.check)


if __name__ == "__main__":
    sys.exit(main())
