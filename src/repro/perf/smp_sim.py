"""Discrete-event validation of the SMP shared-link model.

The throughput estimator caps SMP aggregate throughput at
``min(n * single_stream, link_capacity)`` (Section 8). That closed
form ignores queueing: streams post writes into finite write buffers
and stall when the shared link backs up. This module simulates the
contention directly — n transaction streams, each alternating CPU
work and posted packet bursts, sharing one FIFO link server with
per-stream write-buffer backpressure — and the tests hold the closed
form to the simulation within a few percent.

A stalled stream parks; the link completion that drains it back to
the write-buffer bound schedules its resume. The CPU notices the drain
at the next instant of a :data:`POLL_US` grid that starts at the
stall, which is exactly when a stream re-checking its buffer every
:data:`POLL_US` would have seen it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.hardware.specs import SanSpec, MEMORY_CHANNEL_II
from repro.san.packets import PacketTrace
from repro.sim.engine import Simulator
from repro.sim.process import Process, park, sleep

#: Per-CPU posted-write capacity: six 32-byte write buffers.
WRITE_BUFFER_BYTES = 6 * 32

#: Granularity (microseconds) at which a stalled CPU notices that its
#: write buffer has drained: it resumes at the first instant of the
#: grid ``stall, stall + POLL_US, ...`` (built by repeated float
#: addition) at or after the draining completion.
POLL_US = 0.05


@dataclass
class _Stream:
    """One transaction stream's simulation state."""

    index: int
    completed: int = 0
    outstanding_bytes: int = 0
    process: Optional[Process] = None
    stall_start: Optional[float] = None  # set while stalled and not yet woken


class _LinkServer:
    """A FIFO link: packets drain one at a time at the SAN's rate.

    The completion that brings a stalled stream's posted bytes back to
    the write-buffer bound schedules the stream's resume at the first
    instant ``g`` of its poll grid at or after now. That is the instant
    at which a stream re-checking its buffer every :data:`POLL_US`
    would have resumed, because events fire in ``(time, push order)``:

    * A completion landing exactly on ``g`` was pushed at
      ``g - service``, the buffer check at ``g`` by the check before
      it, at ``g - POLL_US``. Every packet's service time exceeds
      :data:`POLL_US` (checked here), so the completion came first and
      the stream resumes at ``g`` itself.
    * An event at ``g`` pushes the resume with zero delay, so the
      resume runs after every other event at ``g``, as the one pushed
      by the successful check did.
    * Completions are at least one service time apart, so no two fall
      within one :data:`POLL_US` and no two streams resume at the same
      instant: resume instants strictly increase.
    """

    def __init__(self, sim: Simulator, san: SanSpec, buffer_bytes: int):
        if san.packet_time_us(1) <= POLL_US:
            raise ValueError(
                f"{san.name} packets drain faster than the {POLL_US} us "
                "stall poll grid"
            )
        self.sim = sim
        self.san = san
        self.buffer_bytes = buffer_bytes
        self.queue: deque = deque()  # (size, stream)
        self.busy = False
        self.busy_us = 0.0
        self.in_service: Optional[Tuple[int, _Stream]] = None
        self.service_us: Dict[int, float] = {}
        self.last_resume_us = -1.0

    def submit(self, size: int, stream: _Stream) -> None:
        stream.outstanding_bytes += size
        self.queue.append((size, stream))
        if not self.busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        size, stream = self.in_service = self.queue.popleft()
        service = self.service_us.get(size)
        if service is None:
            service = self.service_us[size] = self.san.packet_time_us(size)
        self.busy_us += service
        self.sim.schedule_after(service, self._complete, name="link")

    def _complete(self) -> None:
        size, stream = self.in_service
        stream.outstanding_bytes -= size
        if (stream.stall_start is not None
                and stream.outstanding_bytes <= self.buffer_bytes):
            self._wake(stream)
        self._start_next()

    def _wake(self, stream: _Stream) -> None:
        sim = self.sim
        now = sim.now
        when = stream.stall_start + POLL_US
        while when < now:
            when = when + POLL_US
        stream.stall_start = None
        assert when > self.last_resume_us, "two streams resume at one instant"
        self.last_resume_us = when
        sim.schedule_at(
            when, partial(sim.schedule_after, 0.0, stream.process.resume)
        )


def packet_sequence(trace: PacketTrace, transactions: int) -> List[List[int]]:
    """Distribute a run's packet histogram over its transactions as a
    deterministic per-transaction packet list (repeated cyclically by
    the simulation)."""
    if transactions <= 0:
        raise ValueError("need at least one transaction")
    flat: List[int] = []
    for size in sorted(trace.histogram):
        flat.extend([size] * int(round(trace.histogram[size])))
    if not flat:
        return [[] for _ in range(transactions)]
    per_txn: List[List[int]] = [[] for _ in range(transactions)]
    for position, size in enumerate(flat):
        per_txn[position % transactions].append(size)
    return per_txn


@dataclass
class SmpSimulationResult:
    processors: int
    simulated_us: float
    per_stream_completed: List[int]
    link_busy_us: float

    @property
    def aggregate_tps(self) -> float:
        return sum(self.per_stream_completed) / self.simulated_us * 1e6

    @property
    def link_utilization(self) -> float:
        return self.link_busy_us / self.simulated_us


def simulate_smp(
    txn_cpu_us: float,
    txn_packets: List[List[int]],
    processors: int,
    duration_us: float = 20_000.0,
    san: SanSpec = MEMORY_CHANNEL_II,
    buffer_bytes: int = WRITE_BUFFER_BYTES,
) -> SmpSimulationResult:
    """Simulate ``processors`` independent streams sharing one link.

    Each stream repeatedly: computes for ``txn_cpu_us``; posts its
    transaction's packets (cycled from ``txn_packets``); and stalls
    only if its posted-but-undrained bytes exceed the write-buffer
    capacity — the posted-write semantics of the Memory Channel.
    """
    if processors < 1:
        raise ValueError("need at least one processor")
    if txn_cpu_us <= 0:
        raise ValueError("transactions need positive CPU time")
    sim = Simulator()
    link = _LinkServer(sim, san, buffer_bytes)
    streams = [_Stream(index) for index in range(processors)]

    def stream_proc(stream: _Stream):
        cursor = stream.index  # desynchronize the streams slightly
        while True:
            yield sleep(txn_cpu_us)
            packets = txn_packets[cursor % len(txn_packets)] if txn_packets else []
            cursor += 1
            for size in packets:
                link.submit(size, stream)
            if stream.outstanding_bytes > buffer_bytes:
                stream.stall_start = sim.now
                yield park()
            stream.completed += 1

    for stream in streams:
        stream.process = Process(sim, stream_proc(stream), name=f"stream-{stream.index}")
    sim.run(until=duration_us)
    return SmpSimulationResult(
        processors=processors,
        simulated_us=duration_us,
        per_stream_completed=[stream.completed for stream in streams],
        link_busy_us=link.busy_us,
    )


def simulate_from_run(result, cpu_us: float, processors: int,
                      duration_us: float = 20_000.0,
                      san: SanSpec = MEMORY_CHANNEL_II) -> SmpSimulationResult:
    """Convenience: build the packet schedule from a measured
    :class:`~repro.workloads.driver.RunResult` and simulate."""
    per_txn = packet_sequence(result.packet_trace, result.transactions)
    return simulate_smp(cpu_us, per_txn, processors, duration_us, san)
