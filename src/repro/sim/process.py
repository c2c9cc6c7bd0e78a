"""Generator-based processes on top of the event engine.

A process is a Python generator that yields *commands*:

* ``sleep(delay)`` — suspend for ``delay`` simulated microseconds.
* ``park()`` — suspend until another party calls
  :meth:`Process.resume` (a CPU stalled on a full write buffer, woken
  by the link that drains it).

This is intentionally small: its one user is the SMP shared-link
validation (:mod:`repro.perf.smp_sim`); the replication layer and the
other performance experiments use plain events and cost accounting.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class _Sleep:
    __slots__ = ("delay",)

    def __init__(self, delay: float):
        self.delay = delay


_PARK = object()


def sleep(delay: float) -> _Sleep:
    """Yield from a process to suspend for ``delay`` microseconds."""
    return _Sleep(delay)


def park() -> object:
    """Yield from a process to suspend it until :meth:`Process.resume`."""
    return _PARK


class Process:
    """Drives a generator through the simulator's event queue."""

    __slots__ = ("sim", "generator", "name", "finished", "result", "parked")

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Any, None, None],
        name: str = "process",
    ):
        self.sim = sim
        self.generator = generator
        self.name = name
        self.finished = False
        self.result: Optional[Any] = None
        self.parked = False
        self._start()

    def _start(self) -> None:
        self.sim.schedule_after(0.0, self._resume, name=f"{self.name}:start")

    def _resume(self) -> None:
        if self.finished:
            return
        try:
            command = next(self.generator)
        except StopIteration as stop:
            self.finished = True
            self.result = getattr(stop, "value", None)
            return
        self._dispatch(command)

    def resume(self) -> None:
        """Continue a parked process at the current simulated time."""
        if not self.parked:
            raise SimulationError(f"process {self.name} is not parked")
        self.parked = False
        self._resume()

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, _Sleep):
            if command.delay < 0:
                raise SimulationError(f"process {self.name} slept negative time")
            self.sim.schedule_after(command.delay, self._resume, name=self.name)
        elif command is _PARK:
            self.parked = True
        else:
            raise SimulationError(
                f"process {self.name} yielded unsupported command {command!r}"
            )
