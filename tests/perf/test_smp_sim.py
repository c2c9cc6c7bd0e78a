"""The discrete-event SMP contention simulation."""

from dataclasses import replace

import pytest

from repro.hardware.specs import MEMORY_CHANNEL_II
from repro.perf import smp_sim
from repro.perf.smp_sim import packet_sequence, simulate_smp
from repro.san.packets import PacketTrace
from repro.sim.engine import Simulator


def test_packet_sequence_distributes_evenly():
    trace = PacketTrace({32: 10, 4: 5})
    per_txn = packet_sequence(trace, 5)
    assert len(per_txn) == 5
    assert sum(len(packets) for packets in per_txn) == 15
    sizes = sorted(size for packets in per_txn for size in packets)
    assert sizes == [4] * 5 + [32] * 10


def test_packet_sequence_empty_trace():
    per_txn = packet_sequence(PacketTrace(), 3)
    assert per_txn == [[], [], []]


def test_packet_sequence_rejects_zero_transactions():
    with pytest.raises(ValueError):
        packet_sequence(PacketTrace(), 0)


def test_cpu_bound_stream_scales_linearly():
    # Tiny packets: the link never binds; throughput = n / cpu.
    result = simulate_smp(
        txn_cpu_us=10.0, txn_packets=[[4]], processors=4,
        duration_us=10_000.0,
    )
    assert result.aggregate_tps == pytest.approx(4 * 1e5, rel=0.02)
    assert result.link_utilization < 0.2


def test_link_bound_streams_cap_at_link_capacity():
    # Each txn posts 8 x 32-byte packets (~3.15 us of link) but only
    # 1 us of CPU: the link caps the aggregate.
    packets = [[32] * 8]
    link_per_txn = 8 * MEMORY_CHANNEL_II.packet_time_us(32)
    result = simulate_smp(
        txn_cpu_us=1.0, txn_packets=packets, processors=4,
        duration_us=20_000.0,
    )
    cap = 1e6 / link_per_txn
    assert result.aggregate_tps == pytest.approx(cap, rel=0.05)
    assert result.link_utilization > 0.95


def test_adding_processors_beyond_saturation_is_flat():
    packets = [[32] * 8]
    at_two = simulate_smp(1.0, packets, 2, duration_us=20_000.0)
    at_four = simulate_smp(1.0, packets, 4, duration_us=20_000.0)
    assert at_four.aggregate_tps <= at_two.aggregate_tps * 1.05


def test_streams_progress_fairly():
    result = simulate_smp(
        txn_cpu_us=2.0, txn_packets=[[32] * 4], processors=3,
        duration_us=20_000.0,
    )
    counts = result.per_stream_completed
    assert max(counts) - min(counts) <= max(counts) * 0.1 + 2


def test_rejects_zero_processors():
    with pytest.raises(ValueError):
        simulate_smp(1.0, [[4]], 0)


def test_rejects_transactions_without_cpu_time():
    with pytest.raises(ValueError):
        simulate_smp(0.0, [[4]], 2)


def test_rejects_a_link_faster_than_the_stall_poll_grid():
    """A resume on the poll grid matches a polling CPU only while every
    packet occupies the link longer than one poll interval."""
    fast = replace(MEMORY_CHANNEL_II, per_packet_overhead_us=0.01,
                   raw_bandwidth_bytes_per_us=10_000.0)
    with pytest.raises(ValueError, match="poll grid"):
        simulate_smp(1.0, [[4]], 2, san=fast)


def test_write_buffer_backpressure_limits_single_stream():
    """A link-heavy stream cannot run ahead of its write buffers."""
    # 400 bytes of packets per txn >> the 192-byte buffer capacity.
    packets = [[32] * 12 + [4] * 4]
    result = simulate_smp(
        txn_cpu_us=0.5, txn_packets=packets, processors=1,
        duration_us=10_000.0,
    )
    link_per_txn = (12 * MEMORY_CHANNEL_II.packet_time_us(32)
                    + 4 * MEMORY_CHANNEL_II.packet_time_us(4))
    # Throughput is close to pure link speed, not CPU speed.
    assert result.aggregate_tps < 1.2 * 1e6 / link_per_txn
    assert result.per_stream_completed[0] > 0


def test_stalled_streams_cost_a_fixed_number_of_events(monkeypatch):
    """Work counter: a link-saturating four-stream run where nearly
    every transaction stalls. A stalled stream costs two events (the
    wake at its resume instant and the resume), not one per 50 ns
    re-check of its write buffer (360,115 events on this run)."""
    simulators = []

    class CountingSimulator(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            simulators.append(self)

    monkeypatch.setattr(smp_sim, "Simulator", CountingSimulator)
    result = simulate_smp(
        txn_cpu_us=2.0, txn_packets=[[32] * 10, [32] * 6 + [4] * 3],
        processors=4, duration_us=5_000.0,
    )
    assert result.per_stream_completed == [349, 349, 349, 348]
    assert result.link_utilization > 0.99
    assert [sim.events_processed for sim in simulators] == [17_439]
