"""Deterministic discrete-event simulation kernel.

This package is the bottom-most substrate of the reproduction: every other
subsystem (network fabric, RPC, storage devices, lock servers, file-system
clients) is expressed as generator-coroutine *processes* scheduled by a
single :class:`~repro.sim.core.Simulator`.

The kernel follows the classic simpy design (events with callback lists,
processes as generators that yield events) but is purpose-built for this
project: it is fully deterministic (ties in simulated time are broken by a
monotonic sequence number), it supports priorities for modelling server-side
background tasks, and it exposes the small set of synchronisation primitives
the paper's choreographed experiments need (barriers, channels, gates).

Typical usage::

    sim = Simulator()

    def worker(sim, n):
        for _ in range(n):
            yield sim.timeout(1.0)

    sim.spawn(worker(sim, 10))
    sim.run()
    assert sim.now == 10.0
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Store
from repro.sim.sync import Barrier, Channel, Gate
from repro.sim.rng import DeterministicRNG

__all__ = [
    "AllOf",
    "AnyOf",
    "Barrier",
    "Channel",
    "DeterministicRNG",
    "Event",
    "Gate",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
