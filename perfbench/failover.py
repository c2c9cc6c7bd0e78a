"""The ``failover`` workload: an open loop in simulated time.

A ``Router`` offers 2 transactions per shard (or group) per 1 ms slot,
as in the ``sharding`` and ``quorum`` experiments, to three targets:

* a 4-shard passive-V1 ``ShardedCluster`` whose every primary crashes
  once (a pair has one backup, so once is all it can);
* a strict (3,2,2) 3-group ``QuorumCluster`` with a quorum loss, a
  partition and Merkle repair;
* a sloppy (2,1,1) group that crashes and recovers (hinted handoff).

Length comes from repeating such episodes with fresh clusters; each
episode draws its fault times, keys and workload seeds from a sub-seed
of ``--seed``. Router drops and quorum refusals are outcomes of the
model, covered by the digest, not failures.
"""

from __future__ import annotations

import gc
import random
import traceback
from time import perf_counter

from repro.fastpath.replay import GLOBAL_REPLAY_CACHE
from repro.quorum.cluster import QuorumCluster
from repro.quorum.workload import QuorumWorkload
from repro.shard import Router, ShardedCluster, ShardedWorkload
from repro.vista.api import EngineConfig

from common import ROUNDS, Outcome, derived_seeds
from driven import instrument_engine, instrument_system

MB = 1024 * 1024
SLOT_US = 1_000.0
SLOTS = 80
OFFERED_PER_SLOT = 2
DRAIN_US = 30_000.0
SHARDS = 4
QUORUM_GROUPS = 3
KEYS_PER_GROUP = 32

#: Episodes per requested second, sized so that the timed phase lasts
#: about ``--seconds`` on a 2-core x86 box (Python 3.11). Depends only
#: on ``--seconds``, never on the host's speed.
EPISODES_PER_SECOND = 4


class Episode:
    """Fresh clusters plus this episode's fault schedule and load."""

    def __init__(self, seed: int, tracer=None):
        rng = random.Random(seed)
        self.tracer = tracer
        self.clock = None
        horizon_us = SLOTS * SLOT_US + DRAIN_US

        config = EngineConfig(db_bytes=4 * MB, log_bytes=512 * 1024)
        self.shards = ShardedCluster(
            SHARDS, mode="passive", version="v1", config=config,
            heartbeat_interval_us=100.0, heartbeat_timeout_us=500.0,
            restore_bytes_per_us=300.0,
        )
        self.shard_workload = ShardedWorkload(
            "debit-credit", SHARDS, 4 * MB, seed=rng.randrange(1 << 31)
        )
        self.shards.setup(self.shard_workload)
        self.shard_router = Router(self.shards, self.shard_workload, max_attempts=12)
        ranges = self.shard_workload.partitioner.ranges
        self.shard_load = [
            (slot * SLOT_US, rng.randrange(ranges[shard].start, ranges[shard].stop))
            for slot in range(SLOTS)
            for shard in range(SHARDS)
            for _ in range(OFFERED_PER_SLOT)
        ]
        self.shard_crashes = [
            (shard, rng.uniform(2_000.0, 60_000.0)) for shard in range(SHARDS)
        ]
        self.backup_writes_at_failover = {}

        self.strict = QuorumCluster(
            QUORUM_GROUPS, replicas_per_group=3, read_quorum=2, write_quorum=2,
            keys_per_group=KEYS_PER_GROUP, repair_interval_us=2_500.0,
        )
        self.strict_workload = QuorumWorkload(
            QUORUM_GROUPS, KEYS_PER_GROUP, value_bytes=64,
            seed=rng.randrange(1 << 31),
        )
        self.strict.setup(self.strict_workload)
        self.strict_router = Router(self.strict, self.strict_workload, max_attempts=12)
        self.strict_load = [
            (slot * SLOT_US, group + QUORUM_GROUPS * rng.randrange(KEYS_PER_GROUP))
            for slot in range(SLOTS)
            for group in range(QUORUM_GROUPS)
            for _ in range(OFFERED_PER_SLOT)
        ]
        downed = rng.randrange(QUORUM_GROUPS)
        first, second = rng.sample(range(3), 2)
        first_down = rng.uniform(2_000.0, 40_000.0)
        second_down = first_down + rng.uniform(1_000.0, 4_000.0)
        first_up = second_down + rng.uniform(2_000.0, 8_000.0)
        second_up = first_up + rng.uniform(1_000.0, 5_000.0)
        self.strict_faults = [
            ("crash", downed, first, first_down),
            ("crash", downed, second, second_down),
            ("recover", downed, first, first_up),
            ("recover", downed, second, second_up),
        ]
        partitioned = (downed + 1 + rng.randrange(QUORUM_GROUPS - 1)) % QUORUM_GROUPS
        isolated = rng.randrange(3)
        cut_at = rng.uniform(4_000.0, 60_000.0)
        self.strict_partition = (
            partitioned, [isolated], [m for m in range(3) if m != isolated],
            cut_at, cut_at + rng.uniform(1_000.0, 4_000.0),
        )

        self.sloppy = QuorumCluster(
            1, replicas_per_group=2, read_quorum=1, write_quorum=1,
            keys_per_group=KEYS_PER_GROUP, sloppy=True,
        )
        self.sloppy_workload = QuorumWorkload(
            1, KEYS_PER_GROUP, value_bytes=64, seed=rng.randrange(1 << 31)
        )
        self.sloppy.setup(self.sloppy_workload)
        self.sloppy_router = Router(self.sloppy, self.sloppy_workload, max_attempts=12)
        self.sloppy_load = [
            (slot * SLOT_US, 0) for slot in range(SLOTS) for _ in range(OFFERED_PER_SLOT)
        ]
        member = rng.randrange(2)
        down_at = rng.uniform(3_000.0, 50_000.0)
        self.sloppy_faults = [
            ("crash", 0, member, down_at),
            ("recover", 0, member, down_at + rng.uniform(5_000.0, 15_000.0)),
        ]
        self.horizon_us = horizon_us
        self._instrument()

    # -- hooks -------------------------------------------------------------

    def _instrument(self) -> None:
        tracer = self.tracer
        for name, cluster in (("shard.execute", self.shards),
                              ("quorum.execute", self.strict),
                              ("quorum.execute", self.sloppy)):
            execute = cluster.execute
            if tracer is not None:
                execute = tracer.wrap(name, execute, root=True)
            cluster.execute = self._timed_execute(execute)
        for shard, pair in enumerate(self.shards.pairs):
            system = pair.system
            if tracer is not None:
                instrument_system(tracer, system)
            system.failover = self._watched_failover(shard, system)
        if tracer is None:
            return
        for workload in self.shard_workload.shards:
            tracer.wrap_method(workload, "run_transaction", "workloads.txn")
        for workload in (self.strict_workload, self.sloppy_workload):
            tracer.wrap_method(workload, "run_on_shard", "workloads.txn")
        for cluster in (self.strict, self.sloppy):
            for group in cluster.groups:
                tracer.wrap_method(group, "read", "quorum.read")
                tracer.wrap_method(group, "write", "quorum.write")
                tracer.wrap_method(group, "repair_pass", "quorum.repair")

    def _timed_execute(self, execute):
        """Record the host time of each request the cluster serves, in
        the round the clock is measuring."""
        def timed(*args):
            clock = self.clock
            start = perf_counter()
            served = execute(*args)
            clock.record(perf_counter() - start)
            clock.checkpoint()
            return served

        return timed

    def _watched_failover(self, shard, system):
        """Note how many writes reached the backup between set-up and
        takeover; in a traced run, time the takeover and trace the new
        engine."""
        failover = system.failover
        tracer = self.tracer
        regions = list(system.replica.backup_regions.values())
        set_up = sum(r.writes_observed for r in regions)
        backup_writes = self.backup_writes_at_failover
        if tracer is not None:
            failover = tracer.wrap("replication.failover", failover)

        def watched():
            backup_writes[shard] = sum(
                r.writes_observed for r in regions
            ) - set_up
            if tracer is not None:
                tracer.untrack_backup_regions(regions)
            engine = failover()
            if tracer is not None:
                instrument_engine(tracer, engine)
            return engine

        return watched

    # -- the timed phase ---------------------------------------------------

    def run(self, clock) -> None:
        """The timed phase: all three targets, back to back."""
        self.clock = clock
        clock.resume()
        for at_us, key in self.shard_load:
            self.shard_router.submit(key=key, at_us=at_us)
        for shard, at_us in self.shard_crashes:
            self.shards.schedule_primary_crash(shard, at_us)
        self.shards.run_until(self.horizon_us)

        for at_us, key in self.strict_load:
            self.strict_router.submit(key=key, at_us=at_us)
        _schedule(self.strict, self.strict_faults)
        group, side_a, side_b, cut_at, heal_at = self.strict_partition
        self.strict.schedule_partition(group, side_a, side_b, at_us=cut_at,
                                       heal_at_us=heal_at)
        self.strict.run_until(self.horizon_us)
        self.strict.repair_pass_all()

        for at_us, key in self.sloppy_load:
            self.sloppy_router.submit(key=key, at_us=at_us)
        _schedule(self.sloppy, self.sloppy_faults)
        self.sloppy.run_until(self.horizon_us)
        clock.checkpoint()

    @property
    def routers(self):
        return (self.shard_router, self.strict_router, self.sloppy_router)

    # -- after timing --------------------------------------------------------

    def check(self, outcome: Outcome) -> None:
        """Shadow-model verify of every shard, takeover of every crashed
        primary, convergence of every quorum group."""
        verify = self.shard_workload.verify_shard
        if self.tracer is not None:
            verify = self.tracer.wrap("workloads.verify", verify)
        takeovers = self.shards.takeovers
        for shard in range(SHARDS):
            routed = _routed_to(self.shard_router, shard)
            if shard not in takeovers:
                outcome.fail(routed, f"shard {shard}: crashed primary never taken over")
                continue
            try:
                verify(shard, self.shards.serving(shard))
            except AssertionError as exc:
                outcome.fail(routed, f"shard {shard} shadow model: {exc}")
        for name, cluster, router in (("strict", self.strict, self.strict_router),
                                      ("sloppy", self.sloppy, self.sloppy_router)):
            for group_id, group in enumerate(cluster.groups):
                if not group.replicas_converged():
                    outcome.fail(_routed_to(router, group_id),
                                 f"{name} group {group_id}: replicas diverged")

    def outputs(self) -> dict:
        """Model outputs: completion times, router totals, takeovers,
        quorum statistics."""
        return {
            "routers": [
                {
                    "completed_at_us": [t.completed_at_us for t in router.transactions],
                    "attempts": [t.attempts for t in router.transactions],
                    "totals": [router.routed, router.completed, router.retries,
                               router.redirects, router.dropped],
                }
                for router in self.routers
            ],
            "takeovers": {
                shard: [report.crash_at_us, report.detected_at_us,
                        report.service_restored_at_us, report.bytes_restored]
                for shard, report in sorted(self.shards.takeovers.items())
            },
            "quorum": [self.strict.stats, self.sloppy.stats],
        }

    def count(self, outcome: Outcome) -> None:
        counts = outcome.counts
        router = self.shard_router
        for name in ("routed", "completed", "retries", "redirects", "dropped"):
            counts[f"shard.{name}"] += getattr(router, name)
        counts["quorum.dropped"] += self.strict_router.dropped + self.sloppy_router.dropped
        for cluster in (self.strict, self.sloppy):
            for group in cluster.groups:
                stats = group.stats
                for name in ("reads", "writes", "repair_digests", "repair_bytes",
                             "hints_delivered", "quorum_losses"):
                    counts[f"quorum.{name}"] += getattr(stats, name)
        takeovers = self.shards.takeovers
        counts["cluster.takeovers"] += len(takeovers)
        for report in takeovers.values():
            counts["cluster.downtime_us"] += report.downtime_us
            counts["replication.bytes_restored"] += report.bytes_restored
        for shard, pair in enumerate(self.shards.pairs):
            system = pair.system
            outcome.add_engine_counters(system.engine.counters)
            if shard in takeovers:
                outcome.add_engine_counters(pair.serving.counters)
            counts["san.io_stores"] += system.interface.io_stores
            counts["san.bytes"] += system.interface.bytes_sent
            outcome.add_packets(system.interface.trace, system.san)
            counts["memory.backup_writes"] += self.backup_writes_at_failover.get(shard, 0)


def _schedule(cluster, faults) -> None:
    for kind, group, member, at_us in faults:
        if kind == "crash":
            cluster.schedule_member_crash(group, member, at_us)
        else:
            cluster.schedule_member_recover(group, member, at_us)


def _routed_to(router, shard_id: int) -> int:
    return sum(1 for t in router.transactions if t.shard_id == shard_id)


class Failover:
    #: ``txn_p99_us`` is scaled by the standard reference time over
    #: this percentile of the round's reference timings, not by the
    #: round's mean speed. A request here takes 50 to 400 us, less than
    #: the reference work, so the costliest 1% are requests one of the
    #: host's slow spells covered, and the slow end of the reference
    #: timings measures the speed during those spells (``README.md``).
    tail_reference_quantile = 90

    def __init__(self, seed: int, seconds: int, tracer=None):
        per_round = max(1, round(seconds * EPISODES_PER_SECOND / ROUNDS))
        self.seeds = derived_seeds(seed, per_round * ROUNDS)
        self.per_round = per_round
        self.tracer = tracer
        self.first = None

    def setup(self) -> None:
        """Build the first episode (later ones are built between timed
        phases)."""
        self.first = Episode(self.seeds[0], self.tracer)

    def run(self, outcome: Outcome) -> None:
        for index, seed in enumerate(self.seeds):
            if index % self.per_round == 0:
                round_ = outcome.new_round()
            episode = self.first if index == 0 else Episode(seed, self.tracer)
            self.first = None
            routed = len(episode.shard_load) + len(episode.strict_load) + len(episode.sloppy_load)
            outcome.attempted += routed
            hits = GLOBAL_REPLAY_CACHE.hits
            misses = GLOBAL_REPLAY_CACHE.misses
            try:
                episode.run(outcome.clock)
            except Exception:
                outcome.fail(routed, f"episode {index}: {traceback.format_exc()}")
                continue
            round_.completed += sum(router.completed for router in episode.routers)
            outcome.counts["fastpath.replay_hits"] += GLOBAL_REPLAY_CACHE.hits - hits
            outcome.counts["fastpath.replay_misses"] += GLOBAL_REPLAY_CACHE.misses - misses
            episode.check(outcome)
            episode.count(outcome)
            outcome.outputs.append(episode.outputs())
            if self.tracer is not None:
                self.tracer.untrack_backup_regions()
            # The clusters hold reference cycles; free each episode
            # before building the next, outside the timed phase.
            del episode
            gc.collect()
