"""The ``passive`` and ``active`` workloads: one closed-loop client.

Each configuration runs its transactions back to back after warmup,
through the library's ``run_workload``, the way
``ExperimentContext`` measures a cell of the grid: 8 MB allocated,
50 MB nominal, 2 MB log. The transactions come in ``ROUNDS`` equal
segments, and a round runs one segment of every
configuration, one configuration after another. So each round is the
whole mix, and the host's slow spells spread over all configurations
instead of landing on one. Configurations are never interleaved
transaction by transaction: interleaving eight live systems thrashes
the host caches (20-30% of throughput), which no user's run does.
"""

from __future__ import annotations

import traceback
from time import perf_counter

from repro.experiments.common import WORKLOAD_CLASSES, ExperimentSettings
from repro.fastpath.replay import GLOBAL_REPLAY_CACHE
from repro.replication.active import ActiveReplicatedSystem
from repro.replication.passive import PassiveReplicatedSystem
from repro.workloads import run_workload

from common import ROUNDS, Outcome, run_result_output

BENCHMARKS = ("debit-credit", "order-entry")
WARMUP = 100

#: Transactions per configuration and per requested second, sized so
#: that the timed phase lasts about ``--seconds`` on a 2-core x86 box
#: (Python 3.11). The work depends only on ``--seconds``, never on how
#: fast the host is, so a seed's outputs repeat exactly.
PASSIVE_TXNS_PER_SECOND = 160
ACTIVE_TXNS_PER_SECOND = 2000


def _backup_regions(system):
    if isinstance(system, ActiveReplicatedSystem):
        return [system.backup_db, system.ring]
    return list(system.replica.backup_regions.values())


def _interfaces(system):
    if isinstance(system, ActiveReplicatedSystem):
        return [system.primary_interface, system.backup_interface]
    return [system.interface]


def instrument_engine(tracer, engine) -> None:
    tracer.wrap_method(engine, "write", "vista.write")
    tracer.wrap_method(engine, "commit_transaction", "vista.commit")


def instrument_system(tracer, system) -> None:
    """Spans at the vista, replication, san and memory boundaries."""
    instrument_engine(tracer, system.engine)
    tracer.wrap_method(system, "commit_transaction", "replication.commit")
    for interface in _interfaces(system):
        tracer.wrap_method(interface, "barrier", "san.barrier")
    if isinstance(system, ActiveReplicatedSystem):
        tracer.wrap_method(system.applier, "apply_available", "replication.apply")
    tracer.track_backup_regions(_backup_regions(system))


class Cell:
    """One configuration: its system, workload and backup regions."""

    def __init__(self, label, system, workload):
        self.label = label
        self.system = system
        self.workload = workload
        self.backup_regions = _backup_regions(system)
        self.transact = workload.run_transaction
        self.broken = False


class Driven:
    """Configurations ``(label, build_system, benchmark)``, each run
    for ``transactions`` measured transactions after warmup, in
    ``ROUNDS`` equal segments: a round runs every configuration's next
    segment, one configuration after another. ``tail_reference_quantile``
    is as on ``failover.Failover``; None scales the tail like the rest."""

    def __init__(self, configs, transactions: int, seed: int, tracer=None,
                 tail_reference_quantile=None):
        self.configs = configs
        self.tail_reference_quantile = tail_reference_quantile
        self.per_round = max(1, transactions // ROUNDS)
        self.seed = seed
        self.tracer = tracer
        self.settings = ExperimentSettings(seed=seed)
        self.cells = []

    def setup(self) -> None:
        """Build every system and load and sync its initial image."""
        for label, build, benchmark in self.configs:
            system = build(self.settings.engine_config())
            workload = WORKLOAD_CLASSES[benchmark](
                self.settings.allocated_db_bytes, seed=self.seed
            )
            workload.setup(system)
            system.sync_initial()
            if self.tracer is not None:
                instrument_system(self.tracer, system)
                self.tracer.wrap_method(
                    workload, "run_transaction", "workloads.txn", root=True
                )
            self.cells.append(Cell(label, system, workload))

    def run(self, outcome: Outcome) -> None:
        total = self.per_round * ROUNDS
        outcome.attempted += total * len(self.cells)
        for index in range(ROUNDS):
            round_ = outcome.new_round()
            for cell in self.cells:
                if cell.broken:
                    continue
                try:
                    self._run_segment(cell, WARMUP if index == 0 else 0, round_, outcome)
                except Exception:
                    cell.broken = True
                    outcome.fail(total, f"{cell.label}: {traceback.format_exc()}")
        for cell in self.cells:
            if not cell.broken:
                self._verify(cell, total, outcome)

    def _run_segment(self, cell, warmup, round_, outcome: Outcome) -> None:
        system, backup_regions = cell.system, cell.backup_regions
        baseline = {}

        def measure_start():
            baseline["hits"] = GLOBAL_REPLAY_CACHE.hits
            baseline["misses"] = GLOBAL_REPLAY_CACHE.misses
            baseline["writes"] = sum(r.writes_observed for r in backup_regions)
            baseline["redo_bytes"] = getattr(system, "redo_bytes_shipped", 0)

        transact = cell.transact
        clock = outcome.clock
        seen = 0

        def timed(target):
            nonlocal seen
            if seen == warmup:
                measure_start()
                clock.resume()
            start = perf_counter()
            transact(target)
            elapsed = perf_counter() - start
            if seen >= warmup:
                clock.record(elapsed)
                round_.completed += 1
                clock.checkpoint()
            seen += 1

        cell.workload.run_transaction = timed
        try:
            result = run_workload(system, cell.workload, self.per_round, warmup=warmup)
        finally:
            cell.workload.run_transaction = transact

        counts = outcome.counts
        counts["fastpath.replay_hits"] += GLOBAL_REPLAY_CACHE.hits - baseline["hits"]
        counts["fastpath.replay_misses"] += GLOBAL_REPLAY_CACHE.misses - baseline["misses"]
        counts["memory.backup_writes"] += (
            sum(r.writes_observed for r in backup_regions) - baseline["writes"]
        )
        counts["replication.redo_records"] += result.redo_records or 0
        counts["replication.redo_bytes"] += (
            getattr(system, "redo_bytes_shipped", 0) - baseline["redo_bytes"]
        )
        outcome.add_engine_counters(result.counters)
        counts["san.io_stores"] += result.io_stores
        counts["san.bytes"] += result.total_traffic_bytes
        outcome.add_packets(result.packet_trace, system.san)
        outcome.outputs.append(run_result_output(result))

    def _verify(self, cell, total, outcome: Outcome) -> None:
        """The shadow model's check of the primary's database bytes."""
        verify = cell.workload.verify
        if self.tracer is not None:
            verify = self.tracer.wrap("workloads.verify", verify)
        try:
            verify(cell.system)
        except AssertionError as exc:
            outcome.fail(total, f"{cell.label} shadow model: {exc}")


def _transactions(seconds: int, per_second: int) -> int:
    return round(seconds * per_second)


def passive(seed: int, seconds: int, tracer=None) -> Driven:
    """V0-V3 write doubling to a passive backup, both benchmarks."""
    configs = [
        (
            f"passive-{version}/{benchmark}",
            lambda config, version=version: PassiveReplicatedSystem(version, config),
            benchmark,
        )
        for benchmark in BENCHMARKS
        for version in ("v0", "v1", "v2", "v3")
    ]
    return Driven(configs, _transactions(seconds, PASSIVE_TXNS_PER_SECOND), seed, tracer)


def active(seed: int, seconds: int, tracer=None) -> Driven:
    """A V3 primary shipping a redo log to an applying backup."""
    configs = [
        (f"active/{benchmark}", ActiveReplicatedSystem, benchmark)
        for benchmark in BENCHMARKS
    ]
    # Its costliest transactions take 0.5 to 0.8 ms, no longer than the
    # reference work, so their tail is scaled as failover's is.
    return Driven(configs, _transactions(seconds, ACTIVE_TXNS_PER_SECOND), seed, tracer,
                  tail_reference_quantile=90)
