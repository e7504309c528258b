"""Shared-resource primitives for the simulation kernel.

* :class:`Store` — an unbounded FIFO mailbox of Python objects; the basis of
  message queues between services.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.sim.core import Event, Simulator

__all__ = ["Store"]


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

