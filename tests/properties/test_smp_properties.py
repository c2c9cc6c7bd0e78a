"""The parked SMP stall reproduces the polling stall exactly.

``simulate_smp`` parks a stream whose posted bytes exceed the write
buffer and lets the draining link completion schedule its resume on
the stall's 50 ns poll grid. The reference below is the model it
replaced, kept here as a test oracle only: the stalled stream re-checks
its buffer every ``POLL_US`` through its own chain of simulator events,
resumed through a zero-delay event once the check passes. Both must
give identical ``per_stream_completed`` and ``link_busy_us`` on every
input, including the ones where poll grids, CPU phase ends and link
completions land on the same instants. The comparison also covers
every packet submission's time, stream and order.

Memory Channel II service times rarely hit a poll instant exactly, so
the properties also run on links whose service times are sums of
multiples of 1/20 or 1/64 us, where completions, CPU phase ends and
poll instants coincide often.
"""

from __future__ import annotations

from typing import List
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hardware.specs import MEMORY_CHANNEL_II, SanSpec
from repro.perf import smp_sim
from repro.perf.smp_sim import POLL_US, WRITE_BUFFER_BYTES
from repro.sim.engine import Simulator


def polling_simulate_smp(txn_cpu_us: float, txn_packets: List[List[int]],
                         processors: int, duration_us: float,
                         san=MEMORY_CHANNEL_II):
    """The busy-polling stall: ``(per_stream_completed, link_busy_us,
    submissions)``, the last a list of ``(time, stream, size)``."""
    sim = Simulator()
    queue = []  # (size, stream)
    submissions = []
    link = {"busy": False, "busy_us": 0.0}
    outstanding = [0] * processors
    completed = [0] * processors

    def start_next():
        if not queue:
            link["busy"] = False
            return
        link["busy"] = True
        size, stream = queue.pop(0)
        service = san.packet_time_us(size)
        link["busy_us"] += service

        def complete():
            outstanding[stream] -= size
            start_next()

        sim.schedule_after(service, complete)

    def submit(size, stream):
        submissions.append((sim.now, stream, size))
        outstanding[stream] += size
        queue.append((size, stream))
        if not link["busy"]:
            start_next()

    def drive(generator):
        def resume():
            command = next(generator)
            if command == "sleep":
                sim.schedule_after(txn_cpu_us, resume)
                return

            def tick():
                if command():
                    sim.schedule_after(0.0, resume)
                else:
                    sim.schedule_after(POLL_US, tick)

            tick()

        sim.schedule_after(0.0, resume)

    def stream_proc(stream):
        cursor = stream
        while True:
            yield "sleep"
            packets = txn_packets[cursor % len(txn_packets)] if txn_packets else []
            cursor += 1
            for size in packets:
                submit(size, stream)
            if outstanding[stream] > WRITE_BUFFER_BYTES:
                yield lambda: outstanding[stream] <= WRITE_BUFFER_BYTES
            completed[stream] += 1

    for stream in range(processors):
        drive(stream_proc(stream))
    sim.run(until=duration_us)
    return completed, link["busy_us"], submissions


def parked_simulate_smp(txn_cpu_us, txn_packets, processors, duration_us,
                        san=MEMORY_CHANNEL_II):
    """``simulate_smp`` with the same outputs as the reference."""
    submissions = []
    submit = smp_sim._LinkServer.submit

    def logged(link, size, stream):
        submissions.append((link.sim.now, stream.index, size))
        submit(link, size, stream)

    with mock.patch.object(smp_sim._LinkServer, "submit", logged):
        result = smp_sim.simulate_smp(
            txn_cpu_us, txn_packets, processors, duration_us, san=san
        )
    return result.per_stream_completed, result.link_busy_us, submissions


def assert_same(txn_cpu_us, txn_packets, processors, duration_us,
                san=MEMORY_CHANNEL_II):
    args = (txn_cpu_us, txn_packets, processors, duration_us, san)
    assert parked_simulate_smp(*args) == polling_simulate_smp(*args)


def grid_aligned_link(overhead_us, bytes_per_us):
    return SanSpec(
        name=f"link {overhead_us}+n/{bytes_per_us}", latency_us=1.0,
        per_packet_overhead_us=overhead_us,
        raw_bandwidth_bytes_per_us=bytes_per_us, max_packet_bytes=32,
    )


LINKS = [MEMORY_CHANNEL_II, grid_aligned_link(0.25, 80.0),
         grid_aligned_link(0.0625, 128.0)]

links = st.sampled_from(LINKS)
packet = st.integers(min_value=4, max_value=32)
transaction = st.lists(packet, max_size=14)
schedules = st.lists(transaction, min_size=1, max_size=6)
processors = st.integers(min_value=1, max_value=8)
durations = st.floats(min_value=1.0, max_value=400.0)
SETTINGS = settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(
    txn_cpu_us=st.floats(min_value=0.01, max_value=20.0),
    txn_packets=schedules, processors=processors, duration_us=durations,
    san=links,
)
def test_parked_stall_matches_polling(txn_cpu_us, txn_packets, processors,
                                      duration_us, san):
    assert_same(txn_cpu_us, txn_packets, processors, duration_us, san)


@SETTINGS
@given(
    multiple=st.integers(min_value=1, max_value=40),
    txn_packets=schedules, processors=processors, duration_us=durations,
    san=links,
)
def test_shared_poll_grids_match_polling(multiple, txn_packets, processors,
                                         duration_us, san):
    """CPU phases a multiple of the poll step: every stream starts at
    t=0, so stalls begin on other streams' poll instants and resumes
    share instants."""
    assert_same(multiple * POLL_US, txn_packets, processors, duration_us, san)


@SETTINGS
@given(
    txn_cpu_us=st.floats(min_value=0.001, max_value=POLL_US,
                         exclude_max=True),
    txn_packets=schedules, processors=processors,
    duration_us=st.floats(min_value=1.0, max_value=150.0), san=links,
)
def test_phases_shorter_than_the_poll_match_polling(
        txn_cpu_us, txn_packets, processors, duration_us, san):
    assert_same(txn_cpu_us, txn_packets, processors, duration_us, san)


@SETTINGS
@given(
    txn_cpu_us=st.sampled_from([0.01, 0.02, 0.025, 0.05, 0.1, 0.15, 0.25]),
    size=packet, count=st.integers(min_value=7, max_value=16),
    processors=processors,
    duration_us=st.floats(min_value=5.0, max_value=300.0), san=links,
)
def test_every_transaction_stalls_on_grid_points(txn_cpu_us, size, count,
                                                 processors, duration_us, san):
    """Identical over-full transactions in every stream: each stall
    begins where other streams' CPU phases and polls land."""
    assert_same(txn_cpu_us, [[size] * count], processors, duration_us, san)


def test_empty_transactions_match_polling():
    assert_same(0.05, [[]], 4, 200.0)
    assert_same(0.3, [[], [32] * 9, []], 3, 300.0)


def test_resume_runs_after_a_phase_end_pushed_after_the_drain():
    """A CPU phase that ends on a stream's resume instant but began
    after the completion that drained the stream still runs before the
    resume, as it ran before the poll that saw the drain."""
    schedule = [[8] * 9, [4] * 12, [], [4]]
    assert_same(0.025, schedule, 2, 78.4176797896531, LINKS[2])
