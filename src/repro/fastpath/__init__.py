"""The fast-path execution layer.

The paper's argument is about making a hot path fast; this package is
about making the *reproduction's* hot path fast without changing a
single measured number. Each dispatch point below checks
:func:`enabled` and keeps a live reference path; both are
byte-identical by construction and by test:

* **Batched store pipeline** (:mod:`repro.san.memory_channel`) — the
  write-doubling and redo paths accumulate per-transaction store
  batches on the Memory Channel interface instead of simulating the
  CPU write buffers one store at a time; the batch drains at the next
  commit barrier (or statistics read), in original order, so packet
  formation is unchanged.
* **Replay cache** (:mod:`repro.fastpath.replay`) — the batch drain
  canonicalizes a barrier-terminated store schedule modulo the write
  buffers' block geometry, and repeated schedules replay their packet
  sequence out of a cache instead of re-running the simulation loop.
* **Write-through fast lane**
  (:mod:`repro.replication.writethrough`) — a forwarded local store
  skips re-validation and goes straight to the interface.
* **Vector write buffer**
  (:class:`~repro.hardware.writebuffer.VectorWriteBufferModel`) —
  flat bookkeeping in place of the reference buffer objects.
* **Numpy memory region**
  (:class:`~repro.memory.region.NumpyMemoryRegion`) — numpy-backed
  region storage when numpy is installed.
* **Diff kernel** (:mod:`repro.fastpath.kernels`) — the big-int XOR
  scan behind Version 2's mirror refresh and Merkle repair.
* **Bucketed event wheel**
  (:class:`~repro.sim.events.BucketedEventQueue`) — the shared-shape
  event queue the sharded cluster asks for.

Separately, :mod:`repro.fastpath.parallel` backs
``repro-experiments --jobs N``: it fans the grid's independent
measured cells over a process pool and merges results
deterministically.

The global switch: fast path is **on** by default and disabled by the
``REPRO_FASTPATH=0`` environment variable, the ``--no-fastpath`` CLI
flag, or :func:`set_enabled`. Components with a live observer attached
fall back to the slow path automatically so that per-store gauges keep
their exact slow-path values.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_enabled = os.environ.get("REPRO_FASTPATH", "1") != "0"


def enabled() -> bool:
    """Is the fast-path execution layer globally enabled?"""
    return _enabled


def set_enabled(on: bool) -> bool:
    """Set the global fast-path switch; returns the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(on)
    return previous


@contextmanager
def disabled():
    """Context manager: run a block with the fast path off (the
    ``--no-fastpath`` escape hatch, and the tool the equivalence tests
    use to drive both paths in one process)."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def forced():
    """Context manager: run a block with the fast path on."""
    previous = set_enabled(True)
    try:
        yield
    finally:
        set_enabled(previous)
