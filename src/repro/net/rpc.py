"""Request/reply RPC on top of the fabric.

Mirrors the shape of the paper's CaRT stack:

* every server-side service drains its FIFO queue through a single
  dispatcher that charges ``1/ops`` per request — this is the 213 kOPS
  serialization point measured in §V-A, and the ``1/(OPS*D)`` term of
  Equation (1).  The dispatcher is next-free-time bookkeeping, as the
  fabric's NICs are, not a process: each message costs one kernel event,
  at the instant its charge ends (the current instant for a zero-cost
  message), and that event runs the handler;
* handlers run to completion in that event and return None (anything
  else raises :class:`RpcError`).  A handler never waits: work that ends
  later replies from a callback on the event that ends it (a data
  server's device access), or from wherever the request was parked (a
  lock server keeps a request queued for as long as a conflicting lock
  holds it), so a slow request never blocks the dispatcher;
* responses are explicit (:meth:`Request.respond`), supporting both the
  immediate-reply style (data-server IO, at device completion) and the
  deferred-grant style (lock servers);
* a reply's future completes inside the fabric event that delivers the
  reply when nothing else is due at that instant
  (:meth:`~repro.sim.core.Event._succeed_in_place`), so the caller
  resumes without an event of its own, in the order it would have with
  one.

:func:`rpc_call_retry` waits on the reply future itself.  Its timeouts
are deadlines in one min-heap per node behind a single lazily re-armed
kernel entry, so a call whose reply comes in time costs no timer event.

One-way messages (server -> client revocation callbacks) use the same
machinery with ``req_id = -1``.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional, Tuple

from repro.config import DictConfigMixin
from repro.net.fabric import Fabric, Message, Node
from repro.sim.core import NORMAL, Event, Simulator

__all__ = ["RpcError", "RpcTimeoutError", "RetryPolicy", "AdmissionConfig",
           "Rejected", "Request", "RpcService", "rpc_call",
           "rpc_call_retry", "one_way", "CTRL_MSG_BYTES",
           "ADMISSION_POLICIES"]

#: Size charged for small control messages (lock requests, grants,
#: revocations, releases).  Matches the order of magnitude of a CaRT header
#: plus a lock descriptor.
CTRL_MSG_BYTES = 256


class RpcError(RuntimeError):
    """Protocol-level RPC failure (double respond, missing service...)."""


class RpcTimeoutError(RpcError):
    """A retrying RPC exhausted its attempts without seeing a reply."""


@dataclass(frozen=True)
class RetryPolicy(DictConfigMixin):
    """Client-side timeout/retry behaviour for :func:`rpc_call_retry`.

    Timeouts grow exponentially (``timeout * backoff**attempt``, capped
    at ``max_timeout``) with optional ±``jitter`` randomization so
    retrying clients do not stampede a recovering server in lockstep.
    Retries resend the *same* ``req_id``, which is what lets servers
    suppress duplicates and lets a late reply to any earlier attempt
    complete the call.
    """

    #: First-attempt timeout in simulated seconds.
    timeout: float = 2.0e-3
    #: Multiplier applied per retry (1.0 = constant timeout).
    backoff: float = 2.0
    #: Upper bound on a single attempt's timeout.
    max_timeout: float = 5.0e-2
    #: Number of *re*-sends after the first attempt.
    max_retries: int = 24
    #: Fractional ± jitter on each timeout (0 disables; needs an rng).
    jitter: float = 0.0

    def __post_init__(self):
        if self.timeout <= 0 or self.backoff < 1.0 or self.max_retries < 0:
            raise ValueError("timeout > 0, backoff >= 1, max_retries >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def timeout_for(self, attempt: int, rng=None) -> float:
        t = min(self.timeout * self.backoff ** attempt, self.max_timeout)
        if self.jitter and rng is not None:
            t *= 1.0 + self.jitter * (2.0 * rng.uniform() - 1.0)
        return t


#: Valid ``AdmissionConfig.policy`` values.
ADMISSION_POLICIES = ("reject", "shed-oldest", "block")


@dataclass(frozen=True)
class AdmissionConfig(DictConfigMixin):
    """Server-side admission control: bound a service's request queue.

    An open-loop workload can offer more load than a server's OPS limit
    can drain; without admission control the queue grows without bound
    and every request's sojourn time diverges.  With a ``queue_limit``
    the server sheds excess load instead:

    * ``"reject"`` — a request arriving at a full queue is refused with
      a :class:`Rejected` reply carrying a ``retry_after`` hint (the
      estimated queue-drain time), so the client backs off rather than
      hammering the server (load shedding at the door);
    * ``"shed-oldest"`` — the new request is admitted and the *oldest*
      queued request is dropped with a :class:`Rejected` reply instead
      (freshest-first under overload);
    * ``"block"`` — no bound at all; the degenerate baseline that shows
      the unbounded-latency collapse the other policies prevent.

    Rejections require the caller to use a retrying call path
    (:func:`rpc_call_retry` understands :class:`Rejected` and backs off
    by the hint); the cluster enforces that a retry policy is configured
    whenever admission control is on.
    """

    #: Maximum queued requests per admission-controlled service.
    queue_limit: int = 64
    policy: str = "reject"
    #: Which services enforce the bound (service names as registered on
    #: the node: ``"dlm"``, ``"io"``, ``"meta"``).
    services: Tuple[str, ...] = ("dlm",)
    #: Floor on the retry-after hint (an idle server still asks the
    #: client to wait at least this long before resending).
    min_retry_after: float = 1.0e-4

    def __post_init__(self):
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(f"policy must be one of {ADMISSION_POLICIES}, "
                             f"got {self.policy!r}")
        if self.min_retry_after <= 0:
            raise ValueError("min_retry_after must be > 0")


@dataclass(frozen=True)
class Rejected:
    """Reply payload for a request refused by admission control."""

    #: Name of the refusing service.
    service: str
    #: Server's estimate of when retrying is worthwhile (seconds from
    #: now): queue-drain time at the service's OPS limit.
    retry_after: float


class Request:
    """A server-side view of one inbound RPC."""

    __slots__ = ("service", "msg", "_responded")

    def __init__(self, service: "RpcService", msg: Message):
        self.service = service
        self.msg = msg
        self._responded = False

    @property
    def payload(self) -> Any:
        return self.msg.payload

    @property
    def src(self) -> Node:
        return self.msg.src

    @property
    def sim(self) -> Simulator:
        return self.service.sim

    @property
    def responded(self) -> bool:
        return self._responded

    def respond(self, payload: Any = None,
                nbytes: int = CTRL_MSG_BYTES) -> None:
        """Send the reply back to the caller."""
        if self._responded:
            raise RpcError("request already responded to")
        self._responded = True
        if self.msg.req_id < 0:
            return  # one-way message: nothing to send back
        self.service._record_reply(self.msg, payload, nbytes)
        fabric = self.service.node.fabric
        reply = Message(src=self.service.node, dst=self.msg.src,
                        service=self.msg.service, payload=payload,
                        nbytes=nbytes, is_reply=True,
                        req_id=self.msg.req_id)
        fabric.send(reply)


#: A handler runs to completion in its dispatch event and returns None; a
#: reply that needs simulated time is sent from a callback on the event
#: that ends the wait (``sim.timeout(d).callbacks.append(...)``).
Handler = Callable[[Request], None]


#: Dedup-cache sentinel: the request is dispatched but not yet responded.
_IN_PROGRESS = object()


class RpcService:
    """An OPS-limited service attached to a node.

    With ``dedup`` enabled the service suppresses duplicate requests
    (same source node + ``req_id``): retransmissions of an in-progress
    request are dropped (the original will reply), and retransmissions
    of an already-answered request get the cached reply resent without
    re-running the handler.  This is what makes client-side retries safe
    for non-idempotent handlers (a retried lock request must not be
    granted twice).  Off by default: clean runs never produce duplicate
    ``req_id``s, so the bookkeeping would be pure overhead.

    The table is bounded two ways: a hard entry cap (``dedup_capacity``,
    oldest evicted first) and a time-to-live (``dedup_ttl``) after which
    answered entries expire.  The TTL must comfortably exceed the longest
    client retry span (worst case ``sum(policy.timeout_for(i))``, ~2 s
    for the chaos-suite policy) — expiring earlier would let a very late
    retransmission re-execute a non-idempotent handler.  In-progress
    entries never expire: the handler may legitimately defer its reply
    for a long time (a queued lock request).
    """

    def __init__(self, node: Node, name: str, handler: Handler,
                 ops: float = float("inf"), cost_fn=None,
                 dedup: bool = False, dedup_capacity: int = 8192,
                 dedup_ttl: Optional[float] = 5.0,
                 admission: Optional[AdmissionConfig] = None):
        if ops <= 0:
            raise RpcError(f"ops must be > 0, got {ops}")
        self.node = node
        self.sim: Simulator = node.sim
        self.name = name
        self.handler = handler
        self.service_time = 0.0 if ops == float("inf") else 1.0 / ops
        #: Optional per-message dispatch-cost weight (1.0 = one full RPC).
        #: The measured OPS of an RPC stack is for request-reply round
        #: trips; one-way notifications are cheaper to dispatch.
        self.cost_fn = cost_fn
        #: Waiting ``(message, enqueue instant)`` pairs, FIFO; the message
        #: in dispatch is not in it.  The enqueue instants feed the
        #: queue-wait histogram (they cover fault-delayed deliveries, which
        #: ``Message.deliver_time`` does not).
        self._queue: deque = deque()
        #: A dispatch event is scheduled (the dispatcher is not idle).
        self._busy = False
        self.requests_handled = 0
        self.duplicates_suppressed = 0
        self.dedup_expired = 0
        self.messages_enqueued = 0
        self.messages_dequeued = 0
        self.queue_depth_max = 0
        #: Optional bounded-queue policy; None = classic unbounded queue.
        self.admission = admission
        self.admission_rejected = 0
        self.admission_shed = 0
        #: Cumulative simulated dispatch time (weight * 1/OPS per message)
        #: — busy/elapsed is the OPS-saturation ratio of Equation (1).
        self.busy_time = 0.0
        reg = getattr(self.sim, "metrics", None)
        self._wait_hist = (reg.histogram(f"rpc.{name}.wait_time",
                                         unit="seconds", owner="net.rpc")
                           if reg is not None else None)
        self._dedup: Optional[OrderedDict] = None
        self._dedup_capacity = dedup_capacity
        self._dedup_ttl = dedup_ttl
        if dedup:
            self.enable_dedup(dedup_capacity, dedup_ttl)
        self.halted = False
        node.register_service(name, self._enqueue)

    def halt(self) -> None:
        """Permanently stop the dispatcher (fail-stop node kill).

        Queued and future messages are never dispatched again, and a
        message whose dispatch is being charged is dropped; the service's
        counters are left intact for post-mortem metrics.  Idempotent.
        """
        self.halted = True

    def _enqueue(self, msg: Message) -> None:
        adm = self.admission
        queue = self._queue
        if (adm is not None and adm.policy != "block"
                and len(queue) >= adm.queue_limit):
            if adm.policy == "reject":
                self.admission_rejected += 1
                self._send_rejection(msg)
                return
            # shed-oldest: admit the newcomer, refuse the oldest queued.
            shed, _enqueued_at = queue.popleft()
            self.admission_shed += 1
            self._send_rejection(shed)
        self.messages_enqueued += 1
        if self._busy:
            queue.append((msg, self.sim.now))
            depth = len(queue)
            if depth > self.queue_depth_max:
                self.queue_depth_max = depth
        else:
            self._start(msg, self.sim.now)

    def _send_rejection(self, msg: Message) -> None:
        """Tell ``msg``'s sender to back off (no-op for one-way sends).

        The hint is the deterministic queue-drain estimate: the current
        backlog (plus the refused request itself) times the per-request
        service time, floored at ``min_retry_after``.
        """
        if msg.req_id < 0:
            return
        hint = max(self.admission.min_retry_after,
                   (len(self._queue) + 1.0) * self.service_time)
        self.node.fabric.send(Message(
            src=self.node, dst=msg.src, service=msg.service,
            payload=Rejected(service=self.name, retry_after=hint),
            nbytes=CTRL_MSG_BYTES, is_reply=True, req_id=msg.req_id))

    # ------------------------------------------------------- duplicate guard
    def enable_dedup(self, capacity: int = 8192,
                     ttl: Optional[float] = 5.0) -> None:
        if self._dedup is None:
            self._dedup = OrderedDict()
        self._dedup_capacity = capacity
        self._dedup_ttl = ttl

    def reset_dedup(self) -> None:
        """Drop the duplicate-suppression table (volatile state lost in a
        crash, §IV-C2): post-recovery retransmissions re-execute against
        the equally-reset server state."""
        if self._dedup is not None:
            self._dedup.clear()

    def _expire_dedup(self) -> None:
        """Evict answered entries older than the TTL from the front.

        Entries are (re)stamped and moved to the back when answered, so
        the front of the OrderedDict is the oldest; the scan stops at the
        first fresh or still-in-progress entry, keeping this amortized
        O(1) per request."""
        if not self._dedup or self._dedup_ttl is None:
            return
        horizon = self.sim.now - self._dedup_ttl
        while self._dedup:
            key = next(iter(self._dedup))
            value, stamp = self._dedup[key]
            if value is _IN_PROGRESS or stamp > horizon:
                break
            del self._dedup[key]
            self.dedup_expired += 1

    def _dedup_check(self, msg: Message) -> bool:
        """True if ``msg`` is a duplicate that was fully handled here."""
        if self._dedup is None or msg.req_id < 0:
            return False
        self._expire_dedup()
        key = (msg.src.name, msg.req_id)
        hit = self._dedup.get(key)
        if hit is None:
            self._dedup[key] = (_IN_PROGRESS, self.sim.now)
            while len(self._dedup) > self._dedup_capacity:
                self._dedup.popitem(last=False)
            return False
        self.duplicates_suppressed += 1
        value, _stamp = hit
        if value is not _IN_PROGRESS:
            # Answered before: the reply may have been lost — resend it.
            payload, nbytes = value
            self.node.fabric.send(Message(
                src=self.node, dst=msg.src, service=msg.service,
                payload=payload, nbytes=nbytes, is_reply=True,
                req_id=msg.req_id))
        return True

    def _record_reply(self, msg: Message, payload: Any, nbytes: int) -> None:
        if self._dedup is not None and msg.req_id >= 0:
            key = (msg.src.name, msg.req_id)
            self._dedup[key] = ((payload, nbytes), self.sim.now)
            self._dedup.move_to_end(key)

    # ------------------------------------------------------------ dispatcher
    # Next-free-time bookkeeping, as the fabric does for NICs: taking a
    # message off the queue charges its ``weight/OPS`` at once and
    # schedules one event at the instant that charge ends, which runs the
    # handler.  A message is taken off when it arrives at an idle
    # dispatcher, or when the previous dispatch ends with more queued.

    def _start(self, msg: Message, enqueued_at: float) -> None:
        sim = self.sim
        self._busy = True
        self.messages_dequeued += 1
        if self._wait_hist is not None:
            self._wait_hist.observe(sim.now - enqueued_at)
        cost = 0.0
        if self.service_time:
            weight = self.cost_fn(msg) if self.cost_fn else 1.0
            if weight > 0:
                cost = self.service_time * weight
                self.busy_time += cost
        # A zero-cost message still gets an event of its own at the
        # current instant: a handler never runs inside a fabric arrival.
        ev = Event(sim)
        ev._value = msg
        ev.callbacks.append(self._on_dispatch)
        sim._push_delayed(ev, cost, NORMAL)

    def _on_dispatch(self, ev: Event) -> None:
        if self.halted:
            return  # a killed sequencer dispatches nothing more
        msg = ev._value
        if not self._dedup_check(msg):
            self.requests_handled += 1
            req = Request(self, msg)
            if self.handler(req) is not None:
                raise RpcError(
                    f"handler of service {self.name!r} returned a value; "
                    "handlers run to completion in the dispatch event "
                    "and reply through Request.respond")
        if self._queue:
            self._start(*self._queue.popleft())
        else:
            self._busy = False

    @property
    def queue_depth(self) -> int:
        return len(self._queue)


def rpc_call(src: Node, dst: Node, service: str, payload: Any,
             nbytes: int = CTRL_MSG_BYTES) -> Event:
    """Issue an RPC; returns an event that triggers with the reply payload.

    If ``dst`` has failed the request is silently dropped and the event
    never triggers — callers that must survive failures race the future
    against a timeout (see the recovery machinery in
    :mod:`repro.pfs.filesystem`).
    """
    fabric: Fabric = src.fabric
    req_id = fabric.next_req_id()
    future = src.sim.event()
    src.pending_replies[req_id] = future
    msg = Message(src=src, dst=dst, service=service, payload=payload,
                  nbytes=nbytes, req_id=req_id)
    fabric.send(msg)
    return future


class _Expired:
    """What an expired deadline sends the waiting caller: the fresh reply
    future already registered under the call's ``req_id``.  A private
    type, so no reply payload can be mistaken for it."""

    __slots__ = ("future",)

    def __init__(self, future: Event):
        self.future = future


class _RetryDeadlines:
    """The deadlines of one node's waiting :func:`rpc_call_retry` calls.

    A min-heap behind a single kernel entry, re-armed lazily, as TCP
    keeps one retransmission timer per connection.  A call is waiting on
    a deadline while its future is still the one registered under its
    ``req_id``.  A reply (the router pops that entry) or a ``Rejected``
    re-registration leaves the deadline in the heap, and the entry skips
    it when re-arming.

    Each deadline takes a kernel sequence number when it is added, where
    a per-call timeout would have been pushed, and the entry is armed
    under that key.  So deadlines expire one at a time, at the instant
    and in the order per-call timeouts would have fired.
    """

    __slots__ = ("sim", "pending", "_heap", "_armed")

    def __init__(self, node: Node):
        self.sim = node.sim
        self.pending = node.pending_replies
        #: ``[deadline, seq, req_id, future, kernel entry or None]``.
        self._heap: list = []
        #: The item the kernel entry is armed for (None: nothing armed).
        self._armed: Optional[list] = None

    def add(self, deadline: float, req_id: int, future: Event) -> None:
        item = [deadline, self.sim._reserve_seq(), req_id, future, None]
        heappush(self._heap, item)
        armed = self._armed
        if armed is None or deadline < armed[0]:
            self._arm(item)

    def _arm(self, item: list) -> None:
        self._armed = item
        if item[4] is None:  # else: an entry superseded earlier, reused
            ev = item[4] = Event(self.sim)
            ev.callbacks.append(self._fire)
            self.sim._push_reserved(ev, item[0], item[1])

    def _fire(self, ev: Event) -> None:
        armed = self._armed
        if armed is None or ev is not armed[4]:
            return  # superseded, and its call stopped waiting since
        pending = self.pending
        heap = self._heap
        _deadline, _seq, req_id, future, _ev = heappop(heap)  # == armed
        if pending.get(req_id) is future:
            # Re-register first: a reply landing before the caller
            # resumes completes the call through the fresh future.
            fresh = pending[req_id] = Event(self.sim)
            future.succeed(_Expired(fresh))
        while heap and pending.get(heap[0][2]) is not heap[0][3]:
            heappop(heap)
        self._armed = None
        if heap:
            self._arm(heap[0])


def rpc_call_retry(src: Node, dst: Node, service: str, payload: Any,
                   nbytes: int = CTRL_MSG_BYTES,
                   policy: Optional[RetryPolicy] = None,
                   rng=None,
                   on_retry: Optional[Callable[[int], None]] = None,
                   dst_fn: Optional[Callable[[], Node]] = None
                   ) -> Generator:
    """Issue an RPC with timeouts, exponential backoff and retries.

    A generator (use ``yield from``); returns the reply payload.  Every
    attempt resends the same ``req_id`` so server-side duplicate
    suppression applies and a late reply to *any* attempt completes the
    call; duplicate replies are already dropped by the reply router
    (``pending_replies`` pops once).

    Raises :class:`RpcTimeoutError` after ``policy.max_retries`` unheard
    resends, and :class:`~repro.net.fabric.UnknownServiceError`
    *immediately* (no backoff) when the target is alive but has
    unregistered the service — retrying a request the node can never
    dispatch would only mask a wiring bug.

    Admission-control rejections are a third outcome: a
    :class:`Rejected` reply makes the caller back off for the server's
    ``retry_after`` hint (±``policy.jitter``) before resending the same
    ``req_id``; each rejection consumes one attempt, so a persistently
    overloaded server eventually surfaces as :class:`RpcTimeoutError`.

    With ``dst_fn`` the destination is re-resolved before *every*
    attempt (``dst`` is then only a fallback).  This is the failover
    hook: a client whose lock request is parked at a sequencer that
    dies mid-wait re-routes its next retry to the promoted standby
    instead of resending into the dead node forever.
    """
    policy = policy or RetryPolicy()
    fabric: Fabric = src.fabric
    sim = src.sim
    deadlines = src.retry_deadlines
    if deadlines is None:
        deadlines = src.retry_deadlines = _RetryDeadlines(src)
    pending = src.pending_replies
    req_id = fabric.next_req_id()
    future = pending[req_id] = Event(sim)
    attempts = policy.max_retries + 1
    try:
        for attempt in range(attempts):
            if attempt and on_retry is not None:
                on_retry(attempt)
            if dst_fn is not None:
                dst = dst_fn()
            fabric.send(Message(src=src, dst=dst, service=service,
                                payload=payload, nbytes=nbytes,
                                req_id=req_id))
            deadlines.add(sim.now + policy.timeout_for(attempt, rng),
                          req_id, future)
            value = yield future
            if value.__class__ is _Expired:
                future = value.future
                continue
            if not isinstance(value, Rejected):
                return value
            # Server-side admission refusal: honor the retry-after hint,
            # then fall through to the resend.  Re-arm a fresh future
            # under the *same* req_id so a late reply to any earlier
            # attempt (the router popped the old future) still lands.
            future = pending[req_id] = Event(sim)
            backoff = value.retry_after
            if policy.jitter and rng is not None:
                backoff *= 1.0 + policy.jitter * (2.0 * rng.uniform() - 1.0)
            yield backoff
        raise RpcTimeoutError(
            f"rpc {service!r} to {dst.name!r} unanswered after "
            f"{attempts} attempts")
    finally:
        # Unanswered (timed out, refused at send, interrupted): stop
        # routing replies to this call and retire its pending deadline.
        if pending.get(req_id) is future:
            del pending[req_id]


def one_way(src: Node, dst: Node, service: str, payload: Any,
            nbytes: int = CTRL_MSG_BYTES) -> None:
    """Fire-and-forget message (e.g. a revocation callback)."""
    msg = Message(src=src, dst=dst, service=service, payload=payload,
                  nbytes=nbytes, req_id=-1)
    src.fabric.send(msg)
