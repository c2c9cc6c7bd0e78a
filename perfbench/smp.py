"""The ``smp`` workload: the Figures 2-3 discrete-event grid.

``simulate_smp`` over {active, passive-V3, passive-V1} x {Debit-Credit,
Order-Entry} x {1, 2, 3, 4} CPUs. Its inputs -- per-transaction packet
lists and CPU microseconds -- come from driven runs at the same seed,
derived as ``cells.smp_sim_tasks`` derives them, in a separate process
before the measured one starts (``generate_inputs``). So no ``vista``,
``memory`` or ``san`` code runs while this workload is timed, and the
driven runs count in neither ``setup_s`` nor ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import sys
import traceback
from time import perf_counter

from repro.perf import smp_sim

from common import ROUNDS, Outcome

#: Simulated microseconds per grid point and per requested second, so
#: the run takes about ``--seconds`` on a 2-core x86 box (Python
#: 3.11). Depends only on ``--seconds``, never on the host's speed.
#: Each of the ``ROUNDS`` rounds simulates the whole grid for its share.
SIM_US_PER_SECOND = 800.0
#: Transactions of each driven run the inputs are derived from.
INPUT_TRANSACTIONS = 300


def generate_inputs(seed: int, seconds: int) -> dict:
    """The grid's inputs, as JSON-ready data."""
    from repro.experiments import cells
    from repro.experiments.common import ExperimentContext, ExperimentSettings

    ctx = ExperimentContext(
        ExperimentSettings(transactions=INPUT_TRANSACTIONS, seed=seed)
    )
    schedules = {}
    points = []
    for key, result, cpu_us, processors in cells.smp_sim_tasks(ctx):
        _, benchmark, config, _, _ = key
        name = f"{config}/{benchmark}"
        if name not in schedules:
            schedules[name] = smp_sim.packet_sequence(
                result.packet_trace, result.transactions
            )
        points.append({"schedule": name, "cpu_us": cpu_us, "processors": processors})
    return {
        "duration_us": SIM_US_PER_SECOND * seconds / ROUNDS,
        "schedules": schedules,
        "points": points,
    }


class Smp:
    def __init__(self, seed: int, seconds: int, tracer=None):
        self.tracer = tracer
        self.inputs = None

    def setup(self) -> None:
        """Read the generated inputs from standard input."""
        self.inputs = json.load(sys.stdin)

    def run(self, outcome: Outcome) -> None:
        simulate = smp_sim.simulate_smp
        if self.tracer is not None:
            simulate = self.tracer.wrap("perf.point", simulate, root=True)
        for _ in range(ROUNDS):
            self._run_grid(simulate, outcome.new_round(), outcome)

    def _run_grid(self, simulate, round_, outcome: Outcome) -> None:
        duration_us = self.inputs["duration_us"]
        schedules = self.inputs["schedules"]
        clock = outcome.clock
        clock.resume()
        for point in self.inputs["points"]:
            label = f"{point['schedule']}@{point['processors']}"
            outcome.attempted += 1
            try:
                start = perf_counter()
                result = simulate(
                    point["cpu_us"], schedules[point["schedule"]],
                    point["processors"], duration_us,
                )
                elapsed = perf_counter() - start
            except Exception:
                outcome.fail(1, f"{label}: {traceback.format_exc()}")
                clock.checkpoint()
                continue
            transactions = sum(result.per_stream_completed)
            round_.completed += transactions
            # The simulator has no per-transaction host boundary: each
            # point contributes its host cost per simulated transaction.
            clock.record(elapsed, transactions)
            clock.checkpoint()
            outcome.outputs.append({
                "point": label,
                "per_stream_completed": result.per_stream_completed,
                "link_busy_us": result.link_busy_us,
            })
            outcome.counts["perf.points"] += 1
            outcome.counts["perf.sim_txns"] += transactions
            outcome.link_utilization.append(result.link_utilization)
