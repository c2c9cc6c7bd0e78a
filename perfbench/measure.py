"""The measured process: one workload, in a fresh interpreter.

    python3 perfbench/measure.py run --workload W --seed N --seconds S \
        --launched-at T [--trace] [--setup-only]
    python3 perfbench/measure.py inputs --seed N --seconds S

``run`` builds the workload, runs its timed phase, checks the outputs
and prints one JSON line. ``--launched-at`` is the ``time.monotonic()``
reading taken just before this process was started, so ``setup_s``
covers interpreter start, imports, construction, initial data load and
``sync_initial``, up to the first timed operation. ``--setup-only``
stops there. ``inputs`` prints the ``smp`` workload's generated inputs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH_DIR.parent / "src"))

#: workload -> (module, factory(seed, seconds, tracer))
WORKLOADS = {
    "passive": ("driven", "passive"),
    "active": ("driven", "active"),
    "smp": ("smp", "Smp"),
    "failover": ("failover", "Failover"),
}


def run(args) -> dict:
    from common import STANDARD_REFERENCE_S, Outcome, digest
    from tracing import SimulatorEvents, Tracer, layer_metrics

    tracer = Tracer() if args.trace else None
    events = SimulatorEvents(tracer)
    if tracer is not None:
        tracer.trace_backup_region_writes()
    module, factory = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module), factory)(
        args.seed, args.seconds, tracer
    )
    workload.setup()
    setup_s = time.monotonic() - args.launched_at
    if args.setup_only:
        return {"setup_s": setup_s}

    outcome = Outcome()
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    workload.run(outcome)
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start
    outcome.end_rounds()
    outcome.counts["sim.events"] = events.events

    import numpy
    from repro import fastpath

    rounds = [r for r in outcome.rounds if r.completed]
    host_latencies = [us for r in rounds for us in r.latencies_us]
    # Each round's percentiles, then the median over the rounds: a
    # round the host's other tenants slowed does not move it.
    tail_quantile = getattr(workload, "tail_reference_quantile", None)
    per_round = []
    for r in rounds:
        latencies = numpy.asarray(r.latencies_us)
        if tail_quantile is None:
            tail_scale = r.scale
        else:
            tail_scale = STANDARD_REFERENCE_S / numpy.percentile(r.reference_s, tail_quantile)
        per_round.append((numpy.percentile(latencies * r.scale, 50),
                          numpy.percentile(latencies * tail_scale, 99)))
    p50, p99 = (statistics.median(values) for values in zip(*per_round))
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rounds": [
            {
                "host_s": r.host_s,
                "timed_s": r.standard_s,
                "completed": r.completed,
                "samples": len(r.latencies_us),
                "txn_per_s": r.completed / r.standard_s,
                "host_txn_per_s": r.completed / r.host_s,
            }
            for r in rounds
        ],
        "txn_p50_us": float(p50),
        "txn_p99_us": float(p99),
        "host_txn_p50_us": float(numpy.percentile(host_latencies, 50)),
        "host_txn_p99_us": float(numpy.percentile(host_latencies, 99)),
        "reference_s": statistics.median(outcome.clock.reference_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "digest": digest(outcome.outputs),
        "counts": outcome.final_counts(),
        "env": {
            "fastpath": fastpath.enabled(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer.layer_times(), report["counts"])
        tracer.dump(BENCH_DIR / "out" / f"spans-{args.workload}-{args.seed}.npz")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run")
    run_parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    run_parser.add_argument("--launched-at", type=float, required=True)
    run_parser.add_argument("--trace", action="store_true")
    run_parser.add_argument("--setup-only", action="store_true")
    inputs_parser = sub.add_parser("inputs")
    for each in (run_parser, inputs_parser):
        each.add_argument("--seed", type=int, required=True)
        each.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.command == "inputs":
        from smp import generate_inputs

        result = generate_inputs(args.seed, args.seconds)
    else:
        result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
