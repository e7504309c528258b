"""Event loop, events, and processes for the simulation kernel.

The design mirrors simpy's proven architecture:

* An :class:`Event` carries a list of callbacks and, once *triggered*, a
  value (or an exception).  Triggered events are placed on the simulator's
  schedule and *processed* (callbacks run) when the clock reaches their due
  time.
* A :class:`Process` wraps a generator.  Each value the generator yields
  must be an :class:`Event` **or a plain delay** (``float``/``int`` — the
  fast path); the process suspends until the event is processed (or the
  delay elapses), at which point the event's value is sent back into the
  generator (or its exception thrown into it).
* The :class:`Simulator` owns the clock and the schedule.  Determinism is
  guaranteed by breaking time ties with ``(priority, sequence)`` so two runs
  with the same seed interleave identically.

Scheduling fast path
--------------------
The paper-scale experiments process hundreds of millions of events, and at
that volume the dominant cost of a binary-heap kernel is ``heappop``: ~13
tuple comparisons per event at realistic queue depths.  The schedule is
therefore split into four lanes, each cheap for one traffic class, with the
binary heap demoted to a fallback:

``_imm_high`` / ``_imm_norm``
    Deques of zero-delay triggers (``succeed()``/``fail()`` at the current
    time, process starts and completions, store hand-offs).  Entries are
    appended with the current timestamp and monotonically increasing
    sequence numbers, so each deque is sorted by construction.
``_fut``
    A deque of future entries appended only while their ``(time,
    priority)`` key is >= the current tail's — the common pattern of
    homogeneous timeout trains (think-time loops, heartbeats, barrier
    rounds) stays sorted by construction and never touches the heap.
``_heap``
    Classic ``heapq`` fallback for out-of-order future entries (fabric
    deliveries with heterogeneous latencies, retry backoff).

Every push increments a global sequence number exactly as the single-heap
kernel did, and each pop takes the globally minimal ``(time, priority,
seq)`` across the four lane heads, so the processing order — and therefore
every MetricsSnapshot — is byte-identical to the original kernel (see the
golden digests in tests/integration/test_determinism.py).

Two further fast paths cut per-event constant factors:

* **Direct delays**: a process may ``yield 1.5e-6`` instead of ``yield
  sim.timeout(1.5e-6)``.  No Timeout object, callbacks list, or dispatch
  call is created; the scheduler stores ``(time, NORMAL, seq, None,
  process)`` and resumes the generator directly from the run loop.  The
  hot run loops go one step further and send into the generator *in
  place* — no ``_resume`` frame at all — handing only the uncommon
  outcomes (process end, event yields, usage errors) back to the
  general resume path.
* **Timeout free-list**: processed :class:`Timeout` objects are recycled
  when the run loop can prove (via ``sys.getrefcount``) that it holds the
  sole remaining reference, so user code that keeps a timeout alive
  (condition dicts, stored handles) always keeps its object.

``sim.metrics`` is consulted only at snapshot time by the metrics layer —
the dispatch loop itself carries zero metrics branches when it is None.
"""

from __future__ import annotations

import sys
from collections import deque
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

#: Timeout free-list bound; beyond this, processed timeouts are simply
#: dropped to the allocator.
_FREE_MAX = 4096

#: Stand-in for "no budget": any practical event count is below 2**63.
_UNLIMITED = 0x7FFFFFFFFFFFFFFF

#: Sentinel schedule entry greater than any real one (time = +inf).
_INF = float("inf")
_END = (_INF,)

#: Free-list recycling relies on exact reference counts; only CPython
#: guarantees them (the guard disables recycling elsewhere).
if sys.implementation.name == "cpython":
    _getrefcount = sys.getrefcount
else:  # pragma: no cover - non-CPython fallback
    def _getrefcount(_obj: Any) -> int:
        return 3  # never matches the sole-reference pattern


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
        self._ok = True
        self._value = value
        # Inlined zero-delay scheduling: succeed() at the current time is
        # the hottest trigger in the RPC/store paths.
        sim = self.sim
        sim._seq += 1
        if delay == 0.0:
            entry = (sim._now, priority, sim._seq, self)
            if priority == 1:
                sim._imm_norm.append(entry)
            elif priority == 0:
                sim._imm_high.append(entry)
            else:
                _heappush(sim._heap, entry)
        else:
            t = sim._now + delay
            entry = (t, priority, sim._seq, self)
            fut = sim._fut
            if fut:
                tail = fut[-1]
                if t > tail[0] or (t == tail[0] and tail[1] <= priority):
                    fut.append(entry)
                else:
                    _heappush(sim._heap, entry)
            else:
                fut.append(entry)
        p = sim._pending + 1
        sim._pending = p
        if p > sim._max_queue_len:
            sim._max_queue_len = p
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
        self._ok = False
        self._value = exc
        self.sim._schedule(self, delay, priority)
        return self

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


def _throw_usage(proc: "Process", exc: SimulationError) -> None:
    """Resume ``proc`` by throwing a kernel-usage error into its generator.

    Mirrors the error spin at the bottom of :meth:`Process._resume_impl`
    (a pre-failed event handed to the resume loop), factored out so the
    inlined run-loop dispatch can share it.
    """
    event = Event(proc.sim)
    event._ok = False
    event._value = exc
    proc._resume(event)

#: Shared pre-processed event used to resume a process from a direct
#: (plain-number) delay: the resume path only reads ``_ok``/``_value``.
_NULL_EVENT = Event.__new__(Event)
_NULL_EVENT.sim = None
_NULL_EVENT.callbacks = None
_NULL_EVENT._value = None
_NULL_EVENT._ok = True
_NULL_EVENT._processed = True
_NULL_EVENT._defused = False


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 priority: int = NORMAL):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
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
        sim._seq += 1
        sim._imm_high.append((sim._now, 0, sim._seq, self))
        p = sim._pending + 1
        sim._pending = p
        if p > sim._max_queue_len:
            sim._max_queue_len = p


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
                if result > 0:
                    sim._seq += 1
                    seq = sim._seq
                    t = sim._now + result
                    entry = (t, 1, seq, None, self)
                    fut = sim._fut
                    if fut:
                        tail = fut[-1]
                        if t > tail[0] or (t == tail[0] and tail[1] <= 1):
                            fut.append(entry)
                        else:
                            _heappush(sim._heap, entry)
                    else:
                        fut.append(entry)
                    self._dwait = seq
                    self._target = None
                    p = sim._pending + 1
                    sim._pending = p
                    if p > sim._max_queue_len:
                        sim._max_queue_len = p
                    break
                if result == 0:
                    sim._seq += 1
                    seq = sim._seq
                    sim._imm_norm.append((sim._now, 1, seq, None, self))
                    self._dwait = seq
                    self._target = None
                    p = sim._pending + 1
                    sim._pending = p
                    if p > sim._max_queue_len:
                        sim._max_queue_len = p
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
    """The event loop: owns the clock, the schedule lanes, and processes."""

    def __init__(self):
        self._now: float = 0.0
        self._heap: list = []
        self._fut: deque = deque()
        self._imm_high: deque = deque()
        self._imm_norm: deque = deque()
        self._pending: int = 0
        self._seq: int = 0
        self._event_count: int = 0
        self._max_queue_len: int = 0
        self._free: list = []
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
        return self._pending

    @property
    def max_queue_length(self) -> int:
        """High-watermark of the schedule (queue-occupancy metric)."""
        return self._max_queue_len

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                priority: int = NORMAL) -> Timeout:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        free = self._free
        if free:
            ev = free.pop()
            ev.callbacks = []
            ev._value = value
            ev._ok = True
            ev._processed = False
            ev._defused = False
            ev.delay = delay
        else:
            ev = Timeout.__new__(Timeout)
            ev.sim = self
            ev.callbacks = []
            ev._value = value
            ev._ok = True
            ev._processed = False
            ev._defused = False
            ev.delay = delay
        self._push_delayed(ev, delay, priority)
        return ev

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, gen, name)

    # Alias matching simpy terminology.
    process = spawn

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def _push_delayed(self, event: Event, delay: float, priority: int) -> None:
        """Route a push of ``event`` at ``now + delay`` to the right lane."""
        self._seq += 1
        if delay == 0.0:
            entry = (self._now, priority, self._seq, event)
            if priority == 1:
                self._imm_norm.append(entry)
            elif priority == 0:
                self._imm_high.append(entry)
            else:
                _heappush(self._heap, entry)
        else:
            t = self._now + delay
            entry = (t, priority, self._seq, event)
            fut = self._fut
            if fut:
                tail = fut[-1]
                if t > tail[0] or (t == tail[0] and tail[1] <= priority):
                    fut.append(entry)
                else:
                    _heappush(self._heap, entry)
            else:
                fut.append(entry)
        p = self._pending + 1
        self._pending = p
        if p > self._max_queue_len:
            self._max_queue_len = p

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
        entry = (when, NORMAL, seq, event)
        fut = self._fut
        if not fut or entry > fut[-1]:
            fut.append(entry)
        else:
            _heappush(self._heap, entry)
        p = self._pending + 1
        self._pending = p
        if p > self._max_queue_len:
            self._max_queue_len = p

    # Back-compat alias used by Event.fail and external triggering helpers.
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        self._push_delayed(event, delay, priority)

    def _select(self):
        """Head entry with the globally minimal (time, priority, seq) key,
        plus its source lane; (None, None) when nothing is scheduled."""
        heap = self._heap
        best = heap[0] if heap else _END
        src = heap
        fut = self._fut
        if fut:
            e = fut[0]
            if e < best:
                best = e
                src = fut
        inorm = self._imm_norm
        if inorm:
            e = inorm[0]
            if e < best:
                best = e
                src = inorm
        ih = self._imm_high
        if ih:
            e = ih[0]
            if e < best:
                best = e
                src = ih
        if best is _END:
            return None, None
        return best, src

    def step(self) -> None:
        """Process exactly one event."""
        best, src = self._select()
        if best is None:
            raise IndexError("step(): nothing scheduled")
        entry = _heappop(src) if src is self._heap else src.popleft()
        self._pending -= 1
        self._event_count += 1
        self._now = entry[0]
        ev = entry[3]
        if ev is None:
            proc = entry[4]
            if proc._dwait == entry[2]:
                proc._dwait = 0
                proc._resume(_NULL_EVENT)
            return
        callbacks = ev.callbacks
        ev.callbacks = None
        ev._processed = True
        if len(callbacks) == 1:
            callbacks[0](ev)
        else:
            for fn in callbacks:
                fn(ev)
        if not ev._ok and not ev._defused:
            raise ev._value

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
        heap = self._heap
        fut = self._fut
        fut_pop = fut.popleft
        inorm = self._imm_norm
        ih = self._imm_high
        free = self._free
        getref = _getrefcount
        n = 0
        # Inlined lane selection + dispatch (mirrors step()): the per-event
        # constant factor dominates at paper scale.  _event_count is flushed
        # once in the finally block so exceptions leave an accurate count.
        try:
            while not event._processed:
                if heap or inorm or ih:
                    best = heap[0] if heap else _END
                    src = heap
                    if fut:
                        e = fut[0]
                        if e < best:
                            best = e
                            src = fut
                    if inorm:
                        e = inorm[0]
                        if e < best:
                            best = e
                            src = inorm
                    if ih:
                        e = ih[0]
                        if e < best:
                            best = e
                            src = ih
                    if best is _END:
                        raise SimulationError(
                            "deadlock: event can never trigger (heap empty)")
                    if n >= budget:
                        raise SimulationError(
                            f"event budget {max_events} exhausted "
                            f"at t={self._now}")
                    n += 1
                    entry = _heappop(heap) if src is heap else src.popleft()
                elif fut:
                    # Fast path: only the monotone future lane is live —
                    # the steady state of timeout/delay-dominated phases.
                    # Pop first and push back on the (rare) non-pop exits.
                    entry = fut_pop()
                    if entry[0] == _INF:
                        fut.appendleft(entry)
                        raise SimulationError(
                            "deadlock: event can never trigger (heap empty)")
                    if n >= budget:
                        fut.appendleft(entry)
                        raise SimulationError(
                            f"event budget {max_events} exhausted "
                            f"at t={self._now}")
                    n += 1
                else:
                    raise SimulationError(
                        "deadlock: event can never trigger (heap empty)")
                self._pending -= 1
                tnow = entry[0]
                self._now = tnow
                ev = entry[3]
                if ev is None:
                    # Direct-delay resume, fully inlined: send into the
                    # generator right here (no _resume frame) and handle
                    # the overwhelmingly common outcome — another positive
                    # plain-number delay — in place.  Everything else
                    # (process end, event yields, usage errors) defers to
                    # the general resume path with identical semantics.
                    proc = entry[4]
                    if proc._dwait != entry[2]:
                        continue  # invalidated by an interrupt: stale no-op
                    proc._dwait = 0
                    try:
                        result = proc._send(None)
                    except StopIteration as stop:
                        proc._finish(stop.value)
                        continue
                    except BaseException as exc:
                        proc.fail(exc, priority=0)
                        continue
                    cls = result.__class__
                    if cls is float or cls is int:
                        if result > 0:
                            seq = self._seq = self._seq + 1
                            t = tnow + result
                            nentry = (t, 1, seq, None, proc)
                            if fut:
                                tail = fut[-1]
                                if t > tail[0] or \
                                        (t == tail[0] and tail[1] <= 1):
                                    fut.append(nentry)
                                else:
                                    _heappush(heap, nentry)
                            else:
                                fut.append(nentry)
                        elif result == 0:
                            seq = self._seq = self._seq + 1
                            inorm.append((tnow, 1, seq, None, proc))
                        else:
                            _throw_usage(proc, SimulationError(
                                f"process {proc.name!r} yielded negative "
                                f"delay {result!r}"))
                            continue
                        proc._dwait = seq
                        p = self._pending + 1
                        self._pending = p
                        if p > self._max_queue_len:
                            self._max_queue_len = p
                    elif isinstance(result, Event):
                        if result.sim is not self:
                            _throw_usage(proc, SimulationError(
                                "event belongs to a different simulator"))
                        elif result.callbacks is None:
                            proc._resume(result)  # already processed
                        else:
                            result.callbacks.append(proc._resume)
                            proc._target = result
                    else:
                        _throw_usage(proc, SimulationError(
                            f"process {proc.name!r} yielded non-event "
                            f"{result!r}"))
                    continue
                callbacks = ev.callbacks
                ev.callbacks = None
                ev._processed = True
                if len(callbacks) == 1:
                    callbacks[0](ev)
                else:
                    for fn in callbacks:
                        fn(ev)
                if not ev._ok and not ev._defused:
                    raise ev._value
                # Recycle plain timeouts nobody else holds: refcount 2 ==
                # the local `ev` plus getrefcount's own argument.
                if (ev.__class__ is Timeout and getref(ev) == 2
                        and len(free) < _FREE_MAX):
                    free.append(ev)
        finally:
            self._event_count += n

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the schedule drains, ``until`` is reached, or the event
        budget ``max_events`` is exhausted.

        ``max_events`` is a guard against accidental livelock in protocol
        code; exactly that many events are processed before
        :class:`SimulationError` is raised.
        """
        budget = max_events if max_events is not None else _UNLIMITED
        heap = self._heap
        fut = self._fut
        fut_pop = fut.popleft
        inorm = self._imm_norm
        ih = self._imm_high
        free = self._free
        getref = _getrefcount
        n = 0
        try:
            while True:
                if heap or inorm or ih:
                    best = heap[0] if heap else _END
                    src = heap
                    if fut:
                        e = fut[0]
                        if e < best:
                            best = e
                            src = fut
                    if inorm:
                        e = inorm[0]
                        if e < best:
                            best = e
                            src = inorm
                    if ih:
                        e = ih[0]
                        if e < best:
                            best = e
                            src = ih
                    if best is _END:
                        break
                    if until is not None and best[0] > until:
                        self._now = until
                        return
                    if n >= budget:
                        raise SimulationError(
                            f"event budget {max_events} exhausted "
                            f"at t={self._now}")
                    n += 1
                    entry = _heappop(heap) if src is heap else src.popleft()
                elif fut:
                    # Fast path: only the monotone future lane is live —
                    # the steady state of timeout/delay-dominated phases.
                    # Pop first and push back on the (rare) non-pop exits.
                    entry = fut_pop()
                    t = entry[0]
                    if until is not None:
                        if t > until:
                            fut.appendleft(entry)
                            self._now = until
                            return
                    elif t == _INF:
                        fut.appendleft(entry)
                        break  # inf-delay entries never fire (as before)
                    if n >= budget:
                        fut.appendleft(entry)
                        raise SimulationError(
                            f"event budget {max_events} exhausted "
                            f"at t={self._now}")
                    n += 1
                else:
                    break
                self._pending -= 1
                tnow = entry[0]
                self._now = tnow
                ev = entry[3]
                if ev is None:
                    # Direct-delay resume, fully inlined (see
                    # run_until_event for the commentary).
                    proc = entry[4]
                    if proc._dwait != entry[2]:
                        continue  # invalidated by an interrupt: stale no-op
                    proc._dwait = 0
                    try:
                        result = proc._send(None)
                    except StopIteration as stop:
                        proc._finish(stop.value)
                        continue
                    except BaseException as exc:
                        proc.fail(exc, priority=0)
                        continue
                    cls = result.__class__
                    if cls is float or cls is int:
                        if result > 0:
                            seq = self._seq = self._seq + 1
                            t = tnow + result
                            nentry = (t, 1, seq, None, proc)
                            if fut:
                                tail = fut[-1]
                                if t > tail[0] or \
                                        (t == tail[0] and tail[1] <= 1):
                                    fut.append(nentry)
                                else:
                                    _heappush(heap, nentry)
                            else:
                                fut.append(nentry)
                        elif result == 0:
                            seq = self._seq = self._seq + 1
                            inorm.append((tnow, 1, seq, None, proc))
                        else:
                            _throw_usage(proc, SimulationError(
                                f"process {proc.name!r} yielded negative "
                                f"delay {result!r}"))
                            continue
                        proc._dwait = seq
                        p = self._pending + 1
                        self._pending = p
                        if p > self._max_queue_len:
                            self._max_queue_len = p
                    elif isinstance(result, Event):
                        if result.sim is not self:
                            _throw_usage(proc, SimulationError(
                                "event belongs to a different simulator"))
                        elif result.callbacks is None:
                            proc._resume(result)  # already processed
                        else:
                            result.callbacks.append(proc._resume)
                            proc._target = result
                    else:
                        _throw_usage(proc, SimulationError(
                            f"process {proc.name!r} yielded non-event "
                            f"{result!r}"))
                    continue
                callbacks = ev.callbacks
                ev.callbacks = None
                ev._processed = True
                if len(callbacks) == 1:
                    callbacks[0](ev)
                else:
                    for fn in callbacks:
                        fn(ev)
                if not ev._ok and not ev._defused:
                    raise ev._value
                if (ev.__class__ is Timeout and getref(ev) == 2
                        and len(free) < _FREE_MAX):
                    free.append(ev)
        finally:
            self._event_count += n
        if until is not None:
            self._now = until
