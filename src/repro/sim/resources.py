"""Shared-resource primitives for the simulation kernel.

These model the queueing points of the simulated cluster:

* :class:`Resource` — a counted resource (e.g. a NIC serializer, a device
  queue slot, an RPC service thread).  Processes ``yield res.acquire()`` and
  must call ``res.release()`` when done.
* :class:`Store` — an unbounded FIFO mailbox of Python objects; the basis of
  message queues between services.
* :class:`PriorityStore` — a store that hands out the smallest item first
  (items must be orderable); used for priority-tagged server work queues so
  background tasks (e.g. extent-cache cleaning) yield to foreground IO.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Deque, List

from repro.sim.core import Event, Simulator, SimulationError

__all__ = ["Resource", "Store", "PriorityStore"]


class Resource:
    """A counted resource with FIFO waiters.

    Unlike simpy, ``acquire``/``release`` are plain event-returning calls
    (no context-manager protocol) because protocol code frequently holds a
    slot across several yields and releases it from a different code path.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        ev = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        if self._waiters:
            # Hand the slot straight to the next waiter; _in_use unchanged.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO store of items with blocking ``get``."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting_getters(self) -> int:
        return len(self._getters)

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that triggers with the next item."""
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (read-only; for server introspection)."""
        return list(self._items)


class PriorityStore(Store):
    """A store whose ``get`` returns the smallest item first.

    Items must be mutually orderable; the conventional shape is a tuple
    ``(priority, seq, payload)``.  Insertion order among equal priorities is
    preserved when callers include a monotonic ``seq``.
    """

    def __init__(self, sim: Simulator):
        super().__init__(sim)
        self._heap: List[Any] = []

    def __len__(self) -> int:
        return len(self._heap)

    def put(self, item: Any) -> None:
        if self._getters:
            # A waiting getter takes any item immediately; since the heap is
            # empty whenever getters wait, this item is trivially minimal.
            self._getters.popleft().succeed(item)
        else:
            heappush(self._heap, item)

    def get(self) -> Event:
        ev = self.sim.event()
        if self._heap:
            ev.succeed(heappop(self._heap))
        else:
            self._getters.append(ev)
        return ev

    def peek_all(self) -> List[Any]:
        return sorted(self._heap)
