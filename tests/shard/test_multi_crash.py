"""Two shards failing over in one run on one simulator.

An 8-pair passive-V1 cluster serves a steady routed load while the
primaries of shards 2 and 5 crash at staggered times, so the second
failover lands after the first shard is serving again. Both recoveries
must show up in the trace, the full invariant rule set must hold, and
each crashed shard must serve again after its takeover. The router
refreshes shard-map entries per entry on a redirect, so the second
shard's redirects cannot be swallowed by the first shard's refresh.
"""

from repro.obs import Observer
from repro.obs.audit import TraceAuditor
from repro.shard import Router, ShardedCluster, ShardedWorkload
from repro.vista import EngineConfig

MB = 1024 * 1024
NUM_SHARDS = 8
SLOTS = 28
SLOT_US = 1_000.0
CRASHES = ((2, 5_250.0), (5, 13_250.0))


def test_two_crashes_on_distinct_shards_recover_and_audit_clean():
    observer = Observer()
    cluster = ShardedCluster(
        NUM_SHARDS, mode="passive", version="v1",
        config=EngineConfig(db_bytes=4 * MB, log_bytes=512 * 1024),
        heartbeat_interval_us=100.0, heartbeat_timeout_us=500.0,
        restore_bytes_per_us=300.0, observer=observer,
    )
    workload = ShardedWorkload("debit-credit", NUM_SHARDS, 4 * MB, seed=42)
    cluster.setup(workload)
    router = Router(cluster, workload, max_attempts=12, observer=observer)
    ranges = workload.partitioner.ranges
    for slot in range(SLOTS):
        for shard_id in range(NUM_SHARDS):
            for _ in range(2):
                router.submit(key=ranges[shard_id].start, at_us=slot * SLOT_US)
    for shard_id, at_us in CRASHES:
        cluster.schedule_primary_crash(shard_id, at_us)
    cluster.run_until(SLOTS * SLOT_US + 30_000.0)

    events = list(observer.recorder.events)
    names = [event.name for event in events]
    assert names.count("fault.crash") == 2
    assert names.count("takeover") == 2
    assert names.count("recovery.span") == 2

    auditor = TraceAuditor()
    for event in events:
        auditor.feed(event)
    report = auditor.finish()
    assert report.ok, report.render()

    assert sorted(cluster.takeovers) == [2, 5]
    assert router.dropped == 0
    assert router.completed == router.routed == SLOTS * NUM_SHARDS * 2
    for shard_id, crash_at_us in CRASHES:
        restored_at_us = cluster.takeovers[shard_id].service_restored_at_us
        assert restored_at_us > crash_at_us
        served_after = [
            event for event in events
            if event.name == "txn.complete"
            and event.attrs["shard"] == shard_id
            and event.ts_us >= restored_at_us
        ]
        assert served_after, f"shard {shard_id} never served after takeover"
