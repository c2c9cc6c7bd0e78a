"""Generator-based processes: sleep and park primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.process import Process, park, sleep


def test_sleep_suspends_for_simulated_time():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(("start", sim.now))
        yield sleep(5.0)
        trace.append(("middle", sim.now))
        yield sleep(2.5)
        trace.append(("end", sim.now))

    Process(sim, worker(), name="worker")
    sim.run()
    assert trace == [("start", 0.0), ("middle", 5.0), ("end", 7.5)]


def test_park_suspends_until_resumed():
    sim = Simulator()
    trace = []

    def waiter():
        yield park()
        trace.append(sim.now)

    process = Process(sim, waiter())
    sim.schedule_at(3.0, process.resume)
    sim.run()
    assert trace == [3.0]
    assert process.finished


def test_resuming_an_unparked_process_rejected():
    sim = Simulator()

    def worker():
        yield sleep(5.0)

    process = Process(sim, worker())
    sim.schedule_at(1.0, process.resume)
    with pytest.raises(SimulationError):
        sim.run()


def test_process_finishes_and_records_result():
    sim = Simulator()

    def worker():
        yield sleep(1.0)
        return "done"

    process = Process(sim, worker())
    sim.run()
    assert process.finished
    assert process.result == "done"


def test_two_processes_interleave():
    sim = Simulator()
    trace = []

    def ticker(name, period):
        for _ in range(3):
            yield sleep(period)
            trace.append((name, sim.now))

    Process(sim, ticker("fast", 1.0))
    Process(sim, ticker("slow", 2.0))
    sim.run()
    # At t=2.0 both are due; the slow ticker's event was enqueued first
    # (at t=0) so it wins the deterministic tie-break.
    assert trace == [
        ("fast", 1.0), ("slow", 2.0), ("fast", 2.0),
        ("fast", 3.0), ("slow", 4.0), ("slow", 6.0),
    ]


def test_negative_sleep_rejected():
    sim = Simulator()

    def worker():
        yield sleep(-1.0)

    Process(sim, worker())
    with pytest.raises(SimulationError):
        sim.run()


def test_unknown_command_rejected():
    sim = Simulator()

    def worker():
        yield "bogus"

    Process(sim, worker())
    with pytest.raises(SimulationError):
        sim.run()
