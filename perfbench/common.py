"""What every workload reports: outcome, model outputs, work counts.

Model outputs (simulated results: counters, traffic, packet
histograms, simulated times) go into the digest and must repeat
exactly. Host-side work counts (simulator events, replay-cache hits)
are reported as per-layer metrics but kept out of the digest, because
optimisations are expected to change them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

#: Each run is split into this many rounds of equal work; the time
#: metrics are medians over the rounds, so up to six rounds slowed by
#: the host's other tenants do not move them.
ROUNDS = 14

#: Count metrics every workload reports (zero where a layer is idle).
COUNT_METRICS = (
    "vista.undo_bytes_copied",
    "vista.bytes_compared",
    "vista.mallocs",
    "vista.list_ops",
    "memory.backup_writes",
    "san.io_stores",
    "san.bytes",
    "san.packets",
    "san.link_time_us",
    "fastpath.replay_hits",
    "fastpath.replay_misses",
    "replication.redo_records",
    "replication.redo_bytes",
    "replication.bytes_restored",
    "sim.events",
    "perf.points",
    "perf.sim_txns",
    "cluster.takeovers",
    "cluster.downtime_us",
    "shard.routed",
    "shard.completed",
    "shard.retries",
    "shard.redirects",
    "shard.dropped",
    "quorum.reads",
    "quorum.writes",
    "quorum.repair_digests",
    "quorum.repair_bytes",
    "quorum.hints_delivered",
    "quorum.quorum_losses",
    "quorum.dropped",
)


#: The reference work's duration on the standard host: a 2-core x86
#: box (Python 3.11) with no other load.
STANDARD_REFERENCE_S = 1.2e-3
#: Measured work between two timings of the reference work.
REFERENCE_INTERVAL_S = 0.025


def reference_work(iterations: int = 2000) -> int:
    """A fixed slice of interpreter work of the library's kind: dict
    updates, small-object churn and bytearray slice copies."""
    table = {}
    buffer = bytearray(4096)
    total = 0
    for i in range(iterations):
        key = i & 255
        table[key] = table.get(key, 0) + i
        buffer[key:key + 16] = buffer[key + 16:key + 32]
        total += len(table)
    return total


@dataclass
class Round:
    """A round's timed phase: host seconds, the same seconds at the
    standard host's speed, transactions completed, the host
    microseconds of each and the reference timings taken meanwhile."""

    host_s: float = 0.0
    standard_s: float = 0.0
    completed: int = 0
    latencies_us: List[float] = field(default_factory=list)
    reference_s: List[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Standard-host seconds per host second during this round."""
        return self.standard_s / self.host_s


class HostClock:
    """Host time of timed phases, and the host's speed meanwhile.

    The hosts this runs on share their cores with other tenants, whose
    load changes the speed of the same code by up to 2x, sometimes for
    minutes and sometimes flipping within a second -- so no statistic
    over one run removes it. The reference work slows down with the
    program. It is timed at the start of each round, after every
    ``REFERENCE_INTERVAL_S`` of measured time, and when a round ends;
    never inside a measured interval. Each stretch of measured time
    between two reference timings is scaled by ``STANDARD_REFERENCE_S``
    over the mean of those two timings, so a round's standard time
    follows the host's speed as it changes within the round.

    A timed phase is ``resume()``, then ``checkpoint()`` after each unit
    of work; each checkpoint adds the time since the last one to the
    current round.
    """

    def __init__(self) -> None:
        self.round = Round()
        self.reference_s: List[float] = []
        self._mark = perf_counter()
        self._stretch_s = 0.0

    def time_reference(self) -> None:
        """Time the reference work, and close the stretch of measured
        time since the previous timing."""
        start = perf_counter()
        reference_work()
        taken = perf_counter() - start
        if self._stretch_s:
            speed = (self.reference_s[-1] + taken) / 2
            self.round.standard_s += self._stretch_s * STANDARD_REFERENCE_S / speed
            self._stretch_s = 0.0
        self.reference_s.append(taken)
        self.round.reference_s.append(taken)

    def record(self, host_s: float, transactions: int = 1) -> None:
        """One latency sample: ``host_s`` host seconds spent on
        ``transactions`` transactions."""
        self.round.latencies_us.append(host_s * 1e6 / transactions)

    def resume(self) -> None:
        """Start measuring again after untimed work."""
        self._mark = perf_counter()

    def checkpoint(self) -> None:
        """Add the time since the last mark to the current round; call
        it between two units of work and at the end of a timed phase."""
        now = perf_counter()
        elapsed = now - self._mark
        self.round.host_s += elapsed
        self._stretch_s += elapsed
        if self._stretch_s >= REFERENCE_INTERVAL_S:
            self.time_reference()
            now = perf_counter()
        self._mark = now


@dataclass
class Outcome:
    """One workload run: timings, checks, outputs and counts."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    rounds: List[Round] = field(default_factory=list)
    clock: HostClock = field(default_factory=HostClock)
    #: Model outputs, in run order, for the digest.
    outputs: List[object] = field(default_factory=list)
    counts: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(COUNT_METRICS, 0)
    )
    packet_histogram: Dict[int, int] = field(default_factory=dict)
    link_utilization: List[float] = field(default_factory=list)

    def new_round(self) -> Round:
        """End the current round and start another; the clock's
        checkpoints add to it."""
        self.clock.time_reference()
        self.clock.round = Round()
        self.rounds.append(self.clock.round)
        return self.clock.round

    def end_rounds(self) -> None:
        """Close the last round's measured time."""
        self.clock.time_reference()

    @property
    def completed(self) -> int:
        return sum(r.completed for r in self.rounds)

    def fail(self, operations: int, reason: str) -> None:
        """Count ``operations`` as failed because of ``reason``."""
        self.failed += operations
        self.errors.append(reason)

    def add_packets(self, trace, san) -> None:
        """Fold one Memory Channel packet trace into the san counts."""
        for size, count in trace.histogram.items():
            self.packet_histogram[size] = self.packet_histogram.get(size, 0) + count
        self.counts["san.packets"] += trace.packets
        self.counts["san.link_time_us"] += trace.link_time_us(san)

    def add_engine_counters(self, counters) -> None:
        for name in ("undo_bytes_copied", "bytes_compared", "mallocs", "list_ops"):
            self.counts[f"vista.{name}"] += getattr(counters, name)

    def final_counts(self) -> Dict[str, float]:
        """The counts plus the ratios derived from them."""
        counts = dict(self.counts)
        packets = counts["san.packets"]
        counts["hardware.bytes_per_packet"] = (
            sum(size * n for size, n in self.packet_histogram.items()) / packets
            if packets else 0.0
        )
        counts["hardware.full_packet_share"] = (
            self.packet_histogram.get(32, 0) / packets if packets else 0.0
        )
        lookups = counts["fastpath.replay_hits"] + counts["fastpath.replay_misses"]
        counts["fastpath.replay_hit_ratio"] = (
            counts["fastpath.replay_hits"] / lookups if lookups else 0.0
        )
        txns = counts["perf.sim_txns"] or self.completed
        counts["sim.events_per_txn"] = counts["sim.events"] / txns if txns else 0.0
        counts["perf.link_utilization"] = (
            sum(self.link_utilization) / len(self.link_utilization)
            if self.link_utilization else 0.0
        )
        return counts


def digest(outputs) -> str:
    """SHA-256 of the canonical JSON of ``outputs`` (floats exact)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def run_result_output(result) -> dict:
    """The model outputs of a driven run's ``RunResult``."""
    return {
        "workload": result.workload,
        "target": result.target_kind,
        "transactions": result.transactions,
        "counters": dataclasses.asdict(result.counters),
        "profile": dataclasses.asdict(result.profile),
        "traffic": result.traffic_bytes,
        "packets": sorted(result.packet_trace.histogram.items()),
        "io_stores": result.io_stores,
        "ack_bytes": result.ack_bytes,
        "redo_records": result.redo_records,
        "crashed": result.crashed,
    }


def derived_seeds(seed: int, count: int) -> List[int]:
    """``count`` independent sub-seeds drawn from ``seed``."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(count)]
