"""Event loop, events, and processes for the simulation kernel.

The design mirrors simpy's proven architecture:

* An :class:`Event` carries a list of callbacks and, once *triggered*, a
  value (or an exception).  Triggered events are placed on the simulator's
  schedule and *processed* (callbacks run) when the clock reaches their due
  time.
* A :class:`Process` wraps a generator.  Each value the generator yields
  must be an :class:`Event` **or a plain delay** (``float``/``int``); the
  process suspends until the event is processed (or the delay elapses), at
  which point the event's value is sent back into the generator (or its
  exception thrown into it).
* The :class:`Simulator` owns the clock and the schedule.  Determinism is
  guaranteed by breaking time ties with ``(priority, sequence)`` so two runs
  with the same seed interleave identically.

The schedule
------------
The schedule is one ``heapq`` list of ``(time, priority, seq, event)``
entries; a direct delay (below) pushes ``(time, priority, seq, None,
process)``.  ``seq`` counts pushes, so keys are unique and entries pop in
exact ``(time, priority, seq)`` order: the one contract every golden
digest leans on (tests/integration/test_determinism.py).  Every push goes
through :meth:`Simulator._push`; :meth:`Simulator.run`,
:meth:`Simulator.run_until_event` and :meth:`Simulator.step` share one
dispatch loop, :meth:`Simulator._loop`.  An entry at ``+inf`` never fires.
A trigger delay that is negative or NaN raises :class:`SimulationError`
where it is given.

A process may ``yield 1.5e-6`` instead of ``yield sim.timeout(1.5e-6)``
(a *direct delay*): no Timeout object or callbacks list is created; the
entry names the process and the loop resumes it directly.  An interrupt
invalidates the pending entry, which then pops as a no-op.  A negative or
NaN direct delay is thrown into the process as a :class:`SimulationError`.

An event triggered in tail position of the only callback of the event
being processed may skip the schedule: when nothing is due at ``(now,
priority <= NORMAL)``, the entry ``succeed()`` would push is the very next
one the loop would pop, so :meth:`Event._succeed_in_place` runs its
callbacks at once instead.  The fabric completes RPC reply futures this
way.  Such a completion is not an entry, so it is not counted in
:attr:`Simulator.events_processed`, and a :meth:`Simulator.step` that
processes the delivery also runs the completion.

``sim.metrics`` is consulted only at snapshot time by the metrics layer —
the dispatch loop itself carries zero metrics branches when it is None.
"""

from __future__ import annotations

import sys
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
    "NORMAL",
    "LOW",
    "HIGH",
]

#: Scheduling priorities (lower value is processed first at equal time).
HIGH = 0
NORMAL = 1
LOW = 2

#: Stand-in for "no budget": any practical event count is below 2**63.
_UNLIMITED = 0x7FFFFFFFFFFFFFFF

#: The latest time an entry can fire at: one at +inf never does.
_LAST = sys.float_info.max


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, yield of a non-event...)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries an arbitrary payload describing why the
    interrupt happened (e.g. a lock revocation notice).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    Lifecycle: *pending* -> *triggered* (``succeed``/``fail`` called, event is
    on the schedule) -> *processed* (callbacks have run).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "_defused")

    #: Sentinel for "not triggered yet".
    PENDING = object()

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._processed = False
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0,
                priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self.sim._push_delayed(self, delay, priority)
        self._ok = True
        self._value = value
        return self

    def fail(self, exc: BaseException, delay: float = 0.0,
             priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every waiting process.  If nothing
        ever waits on the event the simulator surfaces the exception at the
        end of the run (unless :meth:`defused` was called), so failures
        cannot be silently lost.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self.sim._push_delayed(self, delay, priority)
        self._ok = False
        self._value = exc
        return self

    def _succeed_in_place(self, value: Any = None) -> None:
        """Trigger the event with ``value`` and, when the entry
        :meth:`succeed` would push is the next one the loop would pop,
        process it here instead: its callbacks run at once and no entry
        is pushed or counted.

        That holds when nothing is due at ``(now, priority <= NORMAL)``:
        every such entry sorts before a fresh ``(now, NORMAL, seq)`` key,
        and nothing else does.  Otherwise this is ``succeed(value)``.

        Precondition: call it only in tail position of the only callback
        of the event being processed, so that nothing else runs between
        here and the loop's next pop."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        sim = self.sim
        heap = sim._heap
        if heap:
            head = heap[0]
            if head[0] <= sim._now and head[1] <= NORMAL:
                self.succeed(value)
                return
        self._ok = True
        self._value = value
        callbacks = self.callbacks
        self.callbacks = None
        self._processed = True
        for fn in callbacks:
            fn(self)

    def defuse(self) -> None:
        """Mark a failed event as handled out-of-band."""
        self._defused = True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately —
        this makes late waiters (e.g. a process joining an already finished
        process) safe.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("processed" if self._processed
                 else "triggered" if self._value is not _PENDING
                 else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


_PENDING = Event.PENDING


#: Shared pre-processed event used to resume a process from a direct
#: (plain-number) delay: the resume path only reads ``_ok``/``_value``.
_NULL_EVENT = Event.__new__(Event)
_NULL_EVENT.sim = None
_NULL_EVENT.callbacks = None
_NULL_EVENT._value = None
_NULL_EVENT._ok = True
_NULL_EVENT._processed = True
_NULL_EVENT._defused = False

#: Stand-in target for the loops that run to a time, not to an event.
_NEVER = Event.__new__(Event)
_NEVER._processed = False


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 priority: int = NORMAL):
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self.delay = delay
        sim._push_delayed(self, delay, priority)


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        self.sim = sim
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._processed = False
        self._defused = False
        sim._push_delayed(self, 0.0, HIGH)


class Process(Event):
    """A generator-coroutine driven by the event loop.

    The process itself is an event that triggers when the generator returns
    (value = the ``return`` value) or raises (failure).  This lets processes
    ``yield`` other processes to join them.

    ``_resume`` holds the bound resume callback; binding it once at spawn
    saves a method-object allocation on every suspension point.  ``_dwait``
    is the sequence number of the pending direct-delay entry (0 = none);
    an interrupt invalidates it so a stale entry pops as a no-op.
    """

    __slots__ = ("gen", "name", "_target", "_resume", "_send", "_throw",
                 "_dwait")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(f"Process needs a generator, got {gen!r}")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        self._resume = self._resume_impl
        self._send = gen.send
        self._throw = gen.throw
        self._dwait = 0
        Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already terminated")
        if self._target is None and not self._dwait:
            raise SimulationError(f"{self!r} is not waiting; cannot interrupt")
        # Detach from the event currently waited on, then resume with the
        # interrupt.  A dedicated broken event carries the Interrupt.
        target = self._target
        if target is not None:
            if target.callbacks is not None and \
                    self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
        else:
            self._dwait = 0  # pending direct entry becomes a stale no-op
        hit = Event(self.sim)
        hit.fail(Interrupt(cause), priority=HIGH)
        hit.callbacks.append(self._resume)
        self._target = None

    # -- internal ----------------------------------------------------------
    def _finish(self, value: Any) -> None:
        """Complete with ``value``.  With nobody joined, the process is
        marked processed in place: a completion event would run no
        callback, and a late joiner resumes at once (see
        :meth:`_resume_impl`)."""
        if self.callbacks:
            self.succeed(value, priority=HIGH)
        else:
            self._value = value
            self.callbacks = None
            self._processed = True

    def _resume_impl(self, event: Event) -> None:
        sim = self.sim
        send = self._send
        while True:
            try:
                if event._ok:
                    result = send(event._value)
                else:
                    event._defused = True
                    result = self._throw(event._value)
            except StopIteration as stop:
                self._target = None
                self._finish(stop.value)
                break
            except BaseException as exc:
                self._target = None
                self.fail(exc, priority=HIGH)
                break

            cls = result.__class__
            if cls is float or cls is int:
                # Direct delay: schedule the process itself — no Timeout
                # object, no callbacks list, no dispatch call.
                if result >= 0:
                    sim._seq = seq = sim._seq + 1
                    sim._push((sim._now + result, NORMAL, seq, None, self))
                    self._dwait = seq
                    self._target = None
                    break
                exc = SimulationError(
                    f"process {self.name!r} yielded negative delay {result!r}")
            elif isinstance(result, Event):
                if result.sim is sim:
                    callbacks = result.callbacks
                    if callbacks is None:
                        # Target already processed (e.g. joining a finished
                        # process): resume immediately, iteratively rather
                        # than recursing through add_callback.
                        event = result
                        continue
                    callbacks.append(self._resume)
                    self._target = result
                    break
                exc = SimulationError("event belongs to a different simulator")
            else:
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {result!r}")
            # throw the usage error into the generator on the next spin
            event = Event(sim)
            event._ok = False
            event._value = exc


class Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self.events
                if ev._processed and ev._ok}

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(Condition):
    """Triggers when the first of ``events`` is processed."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())


class AllOf(Condition):
    """Triggers when every one of ``events`` has been processed."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class Simulator:
    """The event loop: owns the clock, the schedule, and processes."""

    def __init__(self):
        self._now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self._event_count: int = 0
        self._max_queue_len: int = 0
        #: Optional MetricsRegistry; components reach it via their node's
        #: sim so instrumentation needs no extra plumbing (None = off).
        self.metrics = None

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (profiling aid)."""
        return self._event_count

    @property
    def queue_length(self) -> int:
        """Number of currently scheduled (pending) entries."""
        return len(self._heap)

    @property
    def max_queue_length(self) -> int:
        """High-watermark of the schedule (queue-occupancy metric)."""
        return self._max_queue_len

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                priority: int = NORMAL) -> Timeout:
        return Timeout(self, delay, value, priority)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, gen, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def _push(self, entry: tuple) -> None:
        """Put ``entry`` on the schedule; the one place that does."""
        heap = self._heap
        _heappush(heap, entry)
        if len(heap) > self._max_queue_len:
            self._max_queue_len = len(heap)

    def _push_delayed(self, event: Event, delay: float, priority: int) -> None:
        """Schedule ``event`` at ``now + delay``; a negative or NaN delay
        raises :class:`SimulationError` here, at the trigger."""
        if delay == 0.0:
            when = self._now
        elif delay > 0.0:
            when = self._now + delay
        else:
            raise SimulationError(f"invalid delay {delay!r}")
        self._seq = seq = self._seq + 1
        self._push((when, priority, seq, event))

    def _reserve_seq(self) -> int:
        """Take the next sequence number without pushing anything."""
        self._seq += 1
        return self._seq

    def _push_reserved(self, event: Event, when: float, seq: int) -> None:
        """Push ``event`` under the key ``(when, NORMAL, seq)``, with
        ``when > now`` and ``seq`` taken earlier by :meth:`_reserve_seq`.

        For a deadline armed lazily: it fires at the exact instant it was
        computed at (``now + (when - now)`` can round away from ``when``)
        and in the place among equal-time events that a timeout pushed
        when it was computed would have had."""
        self._push((when, NORMAL, seq, event))

    # -- running --------------------------------------------------------------
    def _loop(self, target: Event, until: float, budget: int) -> int:
        """Process entries in key order until ``target`` is processed, the
        schedule holds nothing at or before ``until``, or ``budget``
        entries have been processed; return how many were.

        ``until`` never exceeds :data:`_LAST`, so an entry at +inf stays
        put.  The event count is flushed even when a callback raises."""
        heap = self._heap
        n = 0
        try:
            while n < budget and heap and not target._processed:
                entry = heap[0]
                if entry[0] > until:
                    break
                _heappop(heap)
                n += 1
                self._now = entry[0]
                ev = entry[3]
                if ev is None:
                    proc = entry[4]
                    if proc._dwait == entry[2]:
                        proc._dwait = 0
                        proc._resume(_NULL_EVENT)
                    continue  # else invalidated by an interrupt: a no-op
                callbacks = ev.callbacks
                ev.callbacks = None
                ev._processed = True
                for fn in callbacks:
                    fn(ev)
                if not ev._ok and not ev._defused:
                    raise ev._value
        finally:
            self._event_count += n
        return n

    def _has_due(self, until: float) -> bool:
        """Whether an entry at or before ``until`` is scheduled."""
        return bool(self._heap) and self._heap[0][0] <= until

    def step(self) -> None:
        """Process exactly one schedule entry (with any completion done
        in place inside it)."""
        if not self._loop(_NEVER, _LAST, 1):
            raise IndexError("step(): nothing scheduled")

    def run_until_event(self, event: Event,
                        max_events: Optional[int] = None) -> None:
        """Run until ``event`` has been processed.

        Unlike :meth:`run`, this terminates even when perpetual background
        processes (flush daemons, cache cleaners) keep the schedule
        non-empty.  ``max_events`` processes at most that many events; if
        the target is still pending after exactly ``max_events`` events a
        :class:`SimulationError` is raised.
        """
        budget = max_events if max_events is not None else _UNLIMITED
        self._loop(event, _LAST, budget)
        if event._processed:
            return
        if not self._has_due(_LAST):
            raise SimulationError(
                "deadlock: event can never trigger (heap empty)")
        raise SimulationError(
            f"event budget {max_events} exhausted at t={self._now}")

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the schedule drains, ``until`` is reached, or the event
        budget ``max_events`` is exhausted.

        ``max_events`` is a guard against accidental livelock in protocol
        code; exactly that many events are processed before
        :class:`SimulationError` is raised.
        """
        budget = max_events if max_events is not None else _UNLIMITED
        last = _LAST if until is None else min(until, _LAST)
        if self._loop(_NEVER, last, budget) == budget and \
                self._has_due(last):
            raise SimulationError(
                f"event budget {max_events} exhausted at t={self._now}")
        if until is not None:
            self._now = until

