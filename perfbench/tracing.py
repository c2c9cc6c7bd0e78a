"""Spans recorded around calls into the library's public entry points.

The traced run wraps the entry points of each layer -- on the instances
the benchmark builds, or on the class where the library builds the
instance itself (``Simulator.run`` inside ``simulate_smp`` and the
clusters) or where instances cannot be patched (the backup-write
boundary, below).
Every wrapper records one span: name, start, end, parent span and
transaction id. Spans stay in memory, in flat arrays, and are written
out once when the run ends.

No ``repro.obs`` observer is attached: with one attached the Memory
Channel interface leaves its batched store pipeline, so the trace would
measure a different program.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List

import numpy as np

#: Per-layer metrics read from the spans: metric -> (span, statistic).
#: "self_s" is a span's duration minus the time its child spans cover.
SPAN_METRICS = {
    "workloads.txn_s": ("workloads.txn", "inclusive_s"),
    "workloads.verify_s": ("workloads.verify", "inclusive_s"),
    "vista.commit_s": ("vista.commit", "self_s"),
    "vista.write_s": ("vista.write", "self_s"),
    "memory.backup_write_s": ("memory.backup_write", "inclusive_s"),
    "san.barrier_s": ("san.barrier", "self_s"),
    "san.barriers": ("san.barrier", "calls"),
    "replication.commit_s": ("replication.commit", "self_s"),
    "replication.apply_s": ("replication.apply", "inclusive_s"),
    "replication.failover_s": ("replication.failover", "inclusive_s"),
    "sim.run_s": ("sim.run", "self_s"),
    "perf.point_s_max": ("perf.point", "max_s"),
    "shard.execute_s": ("shard.execute", "inclusive_s"),
    "quorum.read_s": ("quorum.read", "inclusive_s"),
    "quorum.write_s": ("quorum.write", "inclusive_s"),
    "quorum.repair_s": ("quorum.repair", "inclusive_s"),
}


class Tracer:
    """In-memory span recorder with stack-derived parents."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.txn = array("l")
        self._stack: List[int] = []
        self._next_txn = 0
        self._backup_regions: Dict[int, object] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, root: bool = False) -> Callable:
        """``fn`` recording one span per call. A ``root`` span opens a
        new transaction id; any other span inherits its parent's."""
        name_id = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            parent = stack[-1] if stack else -1
            if root:
                txn = self._next_txn
                self._next_txn += 1
            else:
                txn = self.txn[parent] if parent >= 0 else -1
            self.name.append(name_id)
            self.parent.append(parent)
            self.txn.append(txn)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()

        return traced

    def wrap_method(self, obj, attr: str, name: str, root: bool = False) -> None:
        """Replace ``obj.attr`` by its traced version, on the instance."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), root))

    # -- class-level hooks ---------------------------------------------------

    def trace_backup_region_writes(self) -> None:
        """Span every write that lands in a registered backup region.

        Data reaches a backup region through the Memory Channel
        interface, whose write-doubling fast lane
        (``_transmit_trusted``) stores into the region's bytes without
        calling ``MemoryRegion.write``, or through a local
        ``MemoryRegion.write`` (the active backup's redo apply). So the
        span is taken at both boundaries, on the class: the interface's
        ``_transmit`` and ``_transmit_trusted`` for a mapping whose
        remote region is a backup region -- the span includes queueing
        the store for packet formation, and forming the queued packets
        when the queue is full -- and ``MemoryRegion.write`` on a backup
        region when no such transmit span encloses it. One span per
        write, as ``writes_observed`` counts them.
        """
        from repro.memory.region import MemoryRegion
        from repro.san.memory_channel import MemoryChannelInterface

        regions = self._backup_regions
        name_id = self._name_id("memory.backup_write")
        stack, names = self._stack, self.name

        def hook(original, target):
            traced = self.wrap("memory.backup_write", original)

            def landing(owner, *args, **kwargs):
                if id(target(owner, args)) in regions and not (
                    stack and names[stack[-1]] == name_id
                ):
                    return traced(owner, *args, **kwargs)
                return original(owner, *args, **kwargs)

            return landing

        MemoryRegion.write = hook(MemoryRegion.write, lambda region, args: region)
        for attr in ("_transmit", "_transmit_trusted"):
            setattr(MemoryChannelInterface, attr, hook(
                getattr(MemoryChannelInterface, attr),
                lambda interface, args: args[0].remote,
            ))

    def track_backup_regions(self, regions: Iterable) -> None:
        for region in regions:
            self._backup_regions[id(region)] = region

    def untrack_backup_regions(self, regions: Iterable = None) -> None:
        """Stop tracing ``regions`` (default: all of them)."""
        if regions is None:
            self._backup_regions.clear()
            return
        for region in regions:
            self._backup_regions.pop(id(region), None)

    # -- results -----------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive and self seconds, and
        the longest single call."""
        count = len(self.start)
        if count == 0:
            return {}
        names = np.frombuffer(self.name, dtype=np.uint16, count=count)
        parents = np.frombuffer(self.parent, dtype=np.int64, count=count)
        durations = np.frombuffer(self.end, count=count) - np.frombuffer(
            self.start, count=count
        )
        covered = np.zeros(count)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], durations[has_parent])
        own = durations - covered
        times = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            if not mask.any():
                continue
            times[name] = {
                "calls": int(mask.sum()),
                "inclusive_s": float(durations[mask].sum()),
                "self_s": float(own[mask].sum()),
                "max_s": float(durations[mask].max()),
            }
        return times

    def dump(self, path: Path) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        count = len(self.start)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16, count=count),
            start=np.frombuffer(self.start, count=count),
            end=np.frombuffer(self.end, count=count),
            parent=np.frombuffer(self.parent, dtype=np.int64, count=count),
            txn=np.frombuffer(self.txn, dtype=np.int64, count=count),
        )


def layer_metrics(times: Dict[str, Dict[str, float]], counts: Dict[str, float]):
    """Every per-layer metric of a traced run but the host ones."""
    metrics = dict(counts)
    for metric, (span, statistic) in SPAN_METRICS.items():
        metrics[metric] = times.get(span, {}).get(statistic, 0)
    run_s = metrics["sim.run_s"]
    metrics["sim.events_per_s"] = metrics["sim.events"] / run_s if run_s else 0.0
    return metrics


class SimulatorEvents:
    """Counts events across every ``Simulator.run`` in the process.

    Installed on the class in traced and untraced runs alike (one extra
    call per run, not per event), because ``simulate_smp`` builds its
    simulator internally. With a tracer, each run is also a span.
    """

    def __init__(self, tracer: Tracer = None) -> None:
        from repro.sim.engine import Simulator

        self.events = 0
        original = Simulator.run
        if tracer is not None:
            original = tracer.wrap("sim.run", original)
        counter = self

        def run(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return original(sim, *args, **kwargs)
            finally:
                counter.events += sim.events_processed - before

        Simulator.run = run
