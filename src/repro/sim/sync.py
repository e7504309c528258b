"""Process-synchronisation primitives.

The paper's micro-benchmarks choreograph clients with MPI calls
(``MPI_Barrier``, ``MPI_Send``/``MPI_Recv``).  These primitives provide the
equivalent inside the simulation:

* :class:`Barrier` — all parties arrive before any proceeds (MPI_Barrier).
* :class:`Channel` — rendezvous-free typed mailbox between two processes
  (MPI_Send/MPI_Recv with buffering).
* :class:`Gate` — a re-armable open/closed condition; used for cache
  back-pressure (writers block while the dirty-page gate is closed).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.sim.core import Event, Simulator, SimulationError

__all__ = ["Barrier", "Channel", "Gate"]


class Barrier:
    """A cyclic barrier for ``parties`` processes.

    Each participant yields ``barrier.wait()``; the events of one generation
    all trigger when the last participant arrives, then the barrier resets.
    """

    def __init__(self, sim: Simulator, parties: int):
        if parties < 1:
            raise SimulationError(f"parties must be >= 1, got {parties}")
        self.sim = sim
        self.parties = parties
        self._arrived: List[Event] = []
        self.generation = 0

    def wait(self) -> Event:
        ev = self.sim.event()
        self._arrived.append(ev)
        if len(self._arrived) == self.parties:
            batch, self._arrived = self._arrived, []
            gen = self.generation
            self.generation += 1
            for waiter in batch:
                waiter.succeed(gen)
        return ev


class Channel:
    """Buffered point-to-point message channel (MPI_Send/MPI_Recv analogue).

    ``send`` never blocks (eager buffering); ``recv`` blocks until a message
    is available.  FIFO order is preserved.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._buffer: Deque[Any] = deque()
        self._receivers: Deque[Event] = deque()

    def send(self, item: Any) -> None:
        if self._receivers:
            self._receivers.popleft().succeed(item)
        else:
            self._buffer.append(item)

    def recv(self) -> Event:
        ev = self.sim.event()
        if self._buffer:
            ev.succeed(self._buffer.popleft())
        else:
            self._receivers.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._buffer)


class Gate:
    """A level-triggered open/closed condition.

    ``wait()`` returns an already-triggered event while the gate is open and
    a pending one while closed; closing the gate only affects future
    waiters.  The ccPFS client cache uses a gate for the "block new writes
    above the maximum dirty threshold" rule (§IV-C1).
    """

    def __init__(self, sim: Simulator, open_: bool = True):
        self.sim = sim
        self._open = open_
        self._waiters: List[Event] = []

    @property
    def is_open(self) -> bool:
        return self._open

    def open(self) -> None:
        self._open = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed()

    def close(self) -> None:
        self._open = False

    def wait(self) -> Event:
        ev = self.sim.event()
        if self._open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev
