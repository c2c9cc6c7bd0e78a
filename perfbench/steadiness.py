"""Repeat the benchmark and report how steady its metrics are.

    python3 perfbench/steadiness.py --workloads passive smp --seeds 1-10 \
        --seconds 18 [--record-digests | --same-seed]

Runs ``run.py`` once per workload and seed, one run at a time, and
prints, per end-to-end metric, the median, the first and third
quartiles (``statistics.quantiles(n=4)``) and the spread:
(Q3 - Q1) / median, next to the metric's bound in
``BENCHMARK.json`` when there is one. ``--record-digests`` stores each
run's digest in ``digests.json`` so later runs of the same seed and
length are checked against it. ``--same-seed`` runs every workload
twice at the first seed with tracing on and lists any count metric
that differs between the two runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Per-layer metrics measured in seconds are times; the rest are counts.
TIME_UNITS = ("s", "1/s", "ratio")


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                         f"{done.stdout}\n{done.stderr}")
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def parse_seeds(text):
    """``1-10``, ``0,11-19``: seeds and inclusive ranges, comma-separated."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    return {m["name"]: m.get("bound") for m in json.loads(path.read_text())["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    if args.same_seed:
        for workload in args.workloads:
            first, _ = run_once(workload, seeds[0], args.seconds, True)
            second, _ = run_once(workload, seeds[0], args.seconds, True)
            counts = [name for name, m in first["metrics"].items()
                      if m["unit"] not in TIME_UNITS]
            differ = [name for name in counts
                      if first["metrics"][name] != second["metrics"][name]]
            print(f"{workload} seed {seeds[0]}: {len(counts)} count metrics, "
                  f"differing between two runs: {differ or 'none'}")
        return 0

    limits = bounds()
    digests_path = BENCH_DIR / "digests.json"
    recorded = json.loads(digests_path.read_text()) if digests_path.exists() else {}
    print("| workload | metric | unit | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in args.workloads:
        values = {}
        for seed in seeds:
            result, digest = run_once(workload, seed, args.seconds, False)
            recorded.setdefault(workload, {})[f"{seed}:{args.seconds}"] = digest
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        for name, (unit, series) in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = limits.get(name)
            print(f"| {workload} | {name} | {unit} | {median:.6g} | {q1:.6g} | "
                  f"{q3:.6g} | {spread:.2%} | {'' if bound is None else f'{bound:.0%}'} |")
        sys.stdout.flush()
    if args.record_digests:
        digests_path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
