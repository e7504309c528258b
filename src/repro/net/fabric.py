"""Nodes and raw message transport.

The timing model is deliberately the one the paper's own Equation (1)/(2)
analysis uses — a message of ``n`` bytes from ``src`` to ``dst`` costs:

* egress serialization: the sender NIC transmits at ``bandwidth`` B/s and
  is busy for earlier messages first;
* propagation: ``latency`` seconds (RTT/2);
* ingress serialization: the receiver NIC also drains at ``bandwidth`` B/s,
  so N clients flushing into one data server share that server's ingress —
  this is exactly the ``B_net`` term of ``B_flush`` in Equation (2).

Serialization is accounted with *next-free-time* bookkeeping instead of
queue processes: per the HPC-profiling guidance this keeps the per-message
cost at a couple of float ops, which matters when an experiment moves
hundreds of thousands of messages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro._compat import DATACLASS_KW
from repro.sim.core import NORMAL, Event, Simulator

__all__ = ["NetworkConfig", "Message", "Node", "Fabric",
           "UnknownServiceError"]


class UnknownServiceError(KeyError):
    """The target node is alive but has no handler for the service.

    Raised synchronously by :meth:`Fabric.send` so the failure surfaces
    in the *sender* (like a connection refused) instead of exploding out
    of the event loop at delivery time.  A *failed* node still swallows
    messages silently — senders of those time out and retry (§IV-C2).
    """

    def __init__(self, node: str, service: str):
        super().__init__(f"node {node!r} has no service {service!r}")
        self.node = node
        self.service = service

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class NetworkConfig:
    """Fabric-wide timing parameters (defaults follow the paper's Table I
    and §V-A measured figures)."""

    #: One-way propagation latency in seconds (Table I RTT = 1 us round trip
    #: for raw verbs; the paper's CaRT RPC stack is slower, which is captured
    #: by the service OPS limit, not here).
    latency: float = 1.0e-6
    #: Per-NIC bandwidth in bytes/second (100 Gbps HDR ~ 12.5e9 B/s).
    bandwidth: float = 12.5e9
    #: Fixed per-message software overhead added to every delivery (host
    #: stack cost; kept tiny because CaRT OPS dominates control messages).
    per_message_overhead: float = 2.0e-7
    #: Messages at or below this size bypass the NIC serialization queue —
    #: they ride a separate virtual lane, as small control RPCs do on real
    #: InfiniBand QPs (a 256 B lock grant does not wait behind a queued
    #: 1 MB flush).  Set to 0 to force strict single-queue NICs.
    small_message_bypass: int = 8192

    def __post_init__(self):
        if self.latency < 0 or self.bandwidth <= 0:
            raise ValueError("latency must be >= 0 and bandwidth > 0")


@dataclass(**DATACLASS_KW)
class Message:
    """A unit of transport. ``nbytes`` drives timing; ``payload`` is the
    protocol object delivered verbatim (no serialization is simulated)."""

    src: "Node"
    dst: "Node"
    service: str
    payload: Any
    nbytes: int
    is_reply: bool = False
    req_id: int = -1
    send_time: float = field(default=0.0)
    deliver_time: float = field(default=0.0)


class Node:
    """A machine on the fabric: one NIC plus named message handlers.

    Handlers registered with :meth:`register_service` receive non-reply
    messages addressed to that service name.  Reply routing (for RPC
    futures) is handled by :mod:`repro.net.rpc`.
    """

    def __init__(self, fabric: "Fabric", name: str):
        self.fabric = fabric
        self.sim: Simulator = fabric.sim
        self.name = name
        self._tx_free = 0.0
        self._rx_free = 0.0
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        # RPC bookkeeping (populated by repro.net.rpc).
        self.pending_replies: Dict[int, Any] = {}
        self.retry_deadlines = None
        # Traffic counters.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        #: Deliveries swallowed because this node was failed at arrival.
        self.messages_blackholed = 0
        self.failed = False

    def register_service(self, name: str,
                         handler: Callable[[Message], None]) -> None:
        if name in self._handlers:
            raise ValueError(f"service {name!r} already registered on {self.name}")
        self._handlers[name] = handler

    def unregister_service(self, name: str) -> None:
        self._handlers.pop(name, None)

    def deliver(self, msg: Message) -> None:
        """Called by the fabric when a message arrives."""
        if self.failed:
            # Dropped on the floor; senders time out / redo (§IV-C2).
            self.messages_blackholed += 1
            return
        self.bytes_received += msg.nbytes
        self.messages_received += 1
        if msg.is_reply:
            future = self.pending_replies.pop(msg.req_id, None)
            if future is not None:
                # The tail of Fabric._on_arrival, the only callback of a
                # delivery event: the future may complete right here.
                future._succeed_in_place(msg.payload)
            return
        handler = self._handlers.get(msg.service)
        if handler is None:
            raise UnknownServiceError(self.name, msg.service)
        handler(msg)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.name}>"


class Fabric:
    """The switch connecting all nodes."""

    def __init__(self, sim: Simulator, config: Optional[NetworkConfig] = None):
        self.sim = sim
        self.config = config or NetworkConfig()
        self.nodes: Dict[str, Node] = {}
        self._req_ids = itertools.count(1)
        self.messages_delivered = 0
        self.bytes_delivered = 0
        #: Delivery callbacks scheduled (injected duplicates count twice,
        #: injected drops not at all) — in-flight = scheduled - delivered.
        self.deliveries_scheduled = 0
        #: Optional :class:`repro.faults.FaultInjector`; when set, every
        #: non-local message's delivery schedule passes through it.
        self.fault_injector = None
        # Per-(src, dst) last delivery instant on the control lane: small
        # messages between one pair of nodes are FIFO (QP ordering on
        # real IB); bulk transfers ride separate QPs and may interleave.
        self._pair_last: Dict[tuple, float] = {}

    def add_node(self, name: str) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(self, name)
        self.nodes[name] = node
        return node

    def next_req_id(self) -> int:
        return next(self._req_ids)

    def send(self, msg: Message) -> float:
        """Inject ``msg``; returns its delivery time.

        Local sends (src is dst) skip the NIC entirely: co-located client
        and server talk through memory, as in the paper's single-node
        functional tests.
        """
        sim = self.sim
        cfg = self.config
        now = sim.now
        msg.send_time = now
        src, dst = msg.src, msg.dst

        if (not msg.is_reply and not dst.failed
                and msg.service not in dst._handlers):
            raise UnknownServiceError(dst.name, msg.service)

        src.bytes_sent += msg.nbytes
        src.messages_sent += 1

        if src is dst:
            deliver_at = now + cfg.per_message_overhead
        elif msg.nbytes <= cfg.small_message_bypass:
            # Control-lane message: pays wire + latency but never queues
            # behind bulk transfers.  FIFO within the lane per node pair.
            deliver_at = (now + msg.nbytes / cfg.bandwidth + cfg.latency
                          + cfg.per_message_overhead)
            pair = (src.name, dst.name)
            deliver_at = max(deliver_at, self._pair_last.get(pair, 0.0))
            self._pair_last[pair] = deliver_at
        else:
            wire = msg.nbytes / cfg.bandwidth
            tx_start = max(now, src._tx_free)
            tx_done = tx_start + wire
            src._tx_free = tx_done
            # Cut-through: first byte reaches dst after propagation; the
            # receiver NIC then needs the wire time and may be busy.
            rx_start = max(tx_start + cfg.latency, dst._rx_free)
            rx_done = rx_start + wire
            dst._rx_free = rx_done
            deliver_at = rx_done + cfg.per_message_overhead

        msg.deliver_time = deliver_at
        injector = self.fault_injector
        if injector is not None and src is not dst:
            times = injector.deliveries(msg, deliver_at)
        else:
            times = (deliver_at,)
        # Each delivery is one plain event that carries the message and
        # runs _on_arrival, pushed under the same (time, NORMAL, seq) key
        # a sim.timeout(t - now) would get.
        arrive = self._on_arrival
        for t in times:
            self.deliveries_scheduled += 1
            ev = Event(sim)
            ev._value = msg
            ev.callbacks.append(arrive)
            sim._push_delayed(ev, t - now, NORMAL)
        return deliver_at

    def _on_arrival(self, ev: Event) -> None:
        msg = ev._value
        self.messages_delivered += 1
        self.bytes_delivered += msg.nbytes
        msg.dst.deliver(msg)
