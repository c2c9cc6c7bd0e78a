"""Recovery root-cause benchmark: where did the downtime go?

Runs both extension experiments, decomposes every failover's
``recovery.span`` tree into critical-path phases, cross-checks the
decomposition against the SLO downtime windows and the burn-rate alert
schedule, and writes the derived numbers to the root
``BENCH_recovery.json`` (the perf-trajectory tracker reads root-level
``BENCH_*.json`` files):

* **sharding** — the sharded failover's downtime split into detect vs
  catchup (dominant), the resume gap to the first served commit, and
  the burn-rate alert count.
* **quorum** — the leaderless group's quorum loss, which decomposes
  entirely into the ``view`` phase (membership, not data), plus the
  causally linked first post-failover commit.

Everything gated is *simulated* time, deterministic under the seed, so
the regression gate is exact across machines: a code change that
shifts any decomposition number shows up as a gate failure (and as a
localized divergence in ``python -m repro.obs.diff``).

Usage::

    python benchmarks/bench_recovery.py                       # measure
    python benchmarks/bench_recovery.py --check BENCH_recovery.json
"""

from __future__ import annotations

import argparse
import sys
import time

from _common import add_report_options, finalize, flatten_metrics, report_path


def bench_sharding() -> dict:
    from repro.experiments.extension_sharding import failover_timeline
    from repro.obs.critpath import crosscheck_recovery_slo

    started = time.perf_counter()
    outcome = failover_timeline()
    wall_s = time.perf_counter() - started

    slo = outcome.slo()
    decomposition = crosscheck_recovery_slo(outcome.trace_events, slo)
    scope = decomposition.scope(f"shard.{outcome.crashed_shard}")
    verification = outcome.alerts()
    assert verification.ok, verification.render()
    tree = decomposition.trees[0]
    return {
        "downtime_us": scope.total_downtime_us,
        "detect_us": scope.phase_totals.get("detect", 0.0),
        "catchup_us": scope.phase_totals.get("catchup", 0.0),
        "catchup_share": round(scope.share("catchup"), 4),
        "resume_gap_us": tree.resume_gap_us,
        "alerts_fired": sum(
            1 for e in outcome.trace_events if e.name == "alert.fire"
        ),
        "wall_s": round(wall_s, 3),
    }


def bench_quorum() -> dict:
    from repro.experiments.extension_quorum import quorum_timeline
    from repro.obs.critpath import crosscheck_recovery_slo

    started = time.perf_counter()
    outcome = quorum_timeline()
    wall_s = time.perf_counter() - started

    slo = outcome.slo()
    decomposition = crosscheck_recovery_slo(outcome.trace_events, slo)
    scope = decomposition.scope(f"group.{outcome.downed_group}")
    verification = outcome.alerts()
    assert verification.ok, verification.render()
    tree = decomposition.trees[0]
    return {
        "downtime_us": scope.total_downtime_us,
        "view_us": scope.phase_totals.get("view", 0.0),
        "view_share": round(scope.share("view"), 4),
        "resume_gap_us": tree.resume_gap_us,
        "resume_commit_linked": int(tree.resume_commit_trace_id is not None),
        "alerts_fired": sum(
            1 for e in outcome.trace_events if e.name == "alert.fire"
        ),
        "wall_s": round(wall_s, 3),
    }


#: Regression-gated metrics. All simulated-time-derived and therefore
#: deterministic: the gate is effectively an equality check with the
#: standard 80% tolerance headroom.
GATES = {
    "sharding.downtime_us": "lower",
    "sharding.catchup_share": "higher",
    "sharding.resume_gap_us": "lower",
    "quorum.downtime_us": "lower",
    "quorum.view_share": "higher",
}

UNITS = {
    "sharding.downtime_us": "us",
    "sharding.detect_us": "us",
    "sharding.catchup_us": "us",
    "sharding.resume_gap_us": "us",
    "sharding.wall_s": "s",
    "quorum.downtime_us": "us",
    "quorum.view_us": "us",
    "quorum.resume_gap_us": "us",
    "quorum.wall_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_report_options(
        parser, "recovery",
        "compare the decomposition against a committed baseline "
        "JSON; exit 1 when any gated metric regresses",
    )
    args = parser.parse_args(argv)
    args.output = report_path("recovery", args.output, args.check)

    report = {"sharding": bench_sharding()}
    sharding = report["sharding"]
    print(
        f"[sharding] downtime {sharding['downtime_us']:.0f} us = detect "
        f"{sharding['detect_us']:.0f} + catchup {sharding['catchup_us']:.0f} "
        f"({sharding['catchup_share'] * 100:.1f}%), resume "
        f"+{sharding['resume_gap_us']:.0f} us, "
        f"{sharding['alerts_fired']} alert(s) fired"
    )
    report["quorum"] = bench_quorum()
    quorum = report["quorum"]
    print(
        f"[quorum] downtime {quorum['downtime_us']:.0f} us = view "
        f"{quorum['view_us']:.0f} ({quorum['view_share'] * 100:.1f}%), "
        f"resume +{quorum['resume_gap_us']:.0f} us "
        f"(commit linked: {bool(quorum['resume_commit_linked'])}), "
        f"{quorum['alerts_fired']} alert(s) fired"
    )

    return finalize("recovery", flatten_metrics(report, GATES, UNITS),
                    args.output, check_path=args.check)


if __name__ == "__main__":
    sys.exit(main())
