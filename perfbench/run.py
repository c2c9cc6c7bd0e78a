"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload {passive,active,smp,failover} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Every measured process is a fresh
interpreter (``measure.py``), so process-wide state such as the replay
cache starts cold, as it does for every ``repro-experiments`` run.

``--trace 0`` prints the end-to-end metrics: the measured run, plus
setup-only runs, each timed against the start-up reference, whose
median is ``setup_s``. ``--trace 1`` runs the
workload untraced and then traced, requires both to give the same
digest and counts, and prints the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import STANDARD_REFERENCE_S

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
#: Setup-only runs whose median is ``setup_s``.
SETUP_PROBES = 9
#: The start-up reference: a fresh interpreter importing numpy, fixed
#: work of set-up's kind (process start, imports, page faults) that no
#: change to the repository moves; and its duration on the standard
#: host with no other load.
STARTUP_REFERENCE = ("-c", "import numpy")
STANDARD_STARTUP_S = 0.15
#: All of a run's processes must end within this many seconds.
RUN_BUDGET_S = 170

#: Workloads and metrics, with their units, as ``BENCHMARK.json`` names
#: them; each result prints its metrics in this order.
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Settings that make the library run another program than the one
#: measured: an attached observer, series sampling, the slow path.
PINNED_ENV = {
    "REPRO_OBS": "attaches an observer, which leaves the batched store pipeline",
    "REPRO_SERIES": "changes the time-series sampling the experiments record",
}


class BenchError(Exception):
    """A run that cannot produce a result."""


def env_problems(environ) -> list:
    problems = [
        f"{name} is set: {why}" for name, why in PINNED_ENV.items() if name in environ
    ]
    if environ.get("REPRO_FASTPATH") == "0":
        problems.append("REPRO_FASTPATH=0 selects the slow path")
    return problems


def _child(args, deadline, stdin_text=None) -> dict:
    """Run ``measure.py`` with ``args``; its last output line is JSON.
    A process still running at ``deadline`` (monotonic) is killed."""
    command = [sys.executable, str(BENCH_DIR / "measure.py"), *args]
    try:
        done = subprocess.run(
            command, input=stdin_text, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:3])}: no result in {exc.timeout} s")
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(
            f"{' '.join(args[:3])} exited with {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measured_run(workload, seed, seconds, inputs, deadline, trace=False,
                 setup_only=False):
    args = ["run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    args += ["--launched-at", repr(time.monotonic())]
    return _child(args, deadline, inputs)


def startup_reference(deadline) -> float:
    """Wall seconds the start-up reference takes."""
    start = time.monotonic()
    try:
        subprocess.run([sys.executable, *STARTUP_REFERENCE], check=True,
                       capture_output=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.SubprocessError, OSError) as exc:
        raise BenchError(f"start-up reference: {exc}")
    return time.monotonic() - start


def setup_probes(workload, seed, seconds, inputs, deadline):
    """Set-up-only runs, timed as host seconds and at the standard
    host's speed. The start-up reference is timed before the first run
    and after each one; a run's host seconds are scaled by
    ``STANDARD_STARTUP_S`` over the mean of the reference timings on
    either side of it, so its standard time follows the host's speed,
    which the host's other tenants change from minute to minute."""
    references = [startup_reference(deadline)]
    host, standard = [], []
    for _ in range(SETUP_PROBES):
        host_s = measured_run(workload, seed, seconds, inputs, deadline,
                              setup_only=True)["setup_s"]
        references.append(startup_reference(deadline))
        host.append(host_s)
        standard.append(host_s * STANDARD_STARTUP_S
                        / ((references[-2] + references[-1]) / 2))
    return host, standard, references


def recorded_digest(workload, seed, seconds):
    if not DIGESTS.exists():
        return None
    recorded = json.loads(DIGESTS.read_text())
    return recorded.get(workload, {}).get(f"{seed}:{seconds}")


def end_to_end(report, setup_times) -> dict:
    """Throughput: the median over the run's rounds; latency: as the
    measured process took it; set-up time: the median over the set-up
    probes at the standard host's speed."""
    return {
        "txn_per_s": statistics.median(r["txn_per_s"] for r in report["rounds"]),
        "txn_p50_us": report["txn_p50_us"],
        "txn_p99_us": report["txn_p99_us"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(plain, traced) -> dict:
    metrics = dict(traced["layers"])
    metrics["host.wall_s"] = traced["wall_s"]
    metrics["host.cpu_s"] = traced["cpu_s"]
    metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    metrics["host.reference_s"] = traced["reference_s"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    problems = env_problems(os.environ)
    if problems:
        print("refusing to run: " + "; ".join(problems), file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        inputs = None
        if args.workload == "smp":
            inputs = json.dumps(_child(["inputs", "--seed", str(args.seed),
                                        "--seconds", str(args.seconds)], deadline))
        report = measured_run(args.workload, args.seed, args.seconds, inputs, deadline)
        # Failures that invalidate the whole run, not single operations.
        run_errors = []
        if args.trace:
            traced = measured_run(args.workload, args.seed, args.seconds, inputs,
                                  deadline, trace=True)
            if traced["digest"] != report["digest"]:
                run_errors.append("traced run changed the digest")
            if traced["counts"] != report["counts"]:
                changed = sorted(name for name in report["counts"]
                                 if traced["counts"][name] != report["counts"][name])
                run_errors.append(f"traced run changed the counts: {changed}")
            report["failed"] = max(report["failed"], traced["failed"])
            report["errors"] += traced["errors"]
            metrics = per_layer(report, traced)
            units = PER_LAYER_UNITS
        else:
            setup_host, setup_times, references = setup_probes(
                args.workload, args.seed, args.seconds, inputs, deadline)
            metrics = end_to_end(report, setup_times)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    expected = recorded_digest(args.workload, args.seed, args.seconds)
    if expected is None:
        digest_note = "not checked: none recorded for this seed and length"
    elif expected == report["digest"]:
        digest_note = "matches the recorded digest"
    else:
        digest_note = f"MISMATCH, recorded {expected}"
        run_errors.append("digest mismatch")
    attempted = report["attempted"]
    failed = attempted if run_errors else report["failed"]
    errors = report["errors"] + run_errors
    correct = not errors and failed == 0

    env = report["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  fastpath {'on' if env['fastpath'] else 'off'}  "
          f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}")
    print(f"digest {report['digest']} ({digest_note})")
    rounds = report["rounds"]
    host_s = sum(r["host_s"] for r in rounds)
    print(f"timed phase {host_s:.3f} host s of a {report['wall_s']:.3f} s run "
          f"({sum(r['timed_s'] for r in rounds):.3f} s at standard speed; reference "
          f"work {report['reference_s'] * 1e3:.3f} ms, "
          f"standard {STANDARD_REFERENCE_S * 1e3:.3g} ms): "
          f"{len(rounds)} rounds, {sum(r['completed'] for r in rounds)} transactions, "
          f"{sum(r['samples'] for r in rounds)} latency samples")
    print("unscaled host time: txn_per_s "
          f"{statistics.median(r['host_txn_per_s'] for r in rounds):.6g} txn/s, "
          f"txn_p50_us {report['host_txn_p50_us']:.6g} us, "
          f"txn_p99_us {report['host_txn_p99_us']:.6g} us")
    if not args.trace:
        print(f"set-up: {len(setup_host)} set-up-only runs, median "
              f"{statistics.median(setup_host):.4f} host s; start-up reference "
              f"median {statistics.median(references) * 1e3:.1f} ms, standard "
              f"{STANDARD_STARTUP_S * 1e3:.3g} ms; measured run's set-up "
              f"{report['setup_s']:.4f} host s")
    for error in errors:
        print(f"error: {error}")
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {failed / attempted:.6g} fraction "
          f"({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
