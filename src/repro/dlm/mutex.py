"""Decentralized (sequencer-free) mutual-exclusion coordinators.

The paper's four DLMs all arbitrate locks at a server; this module adds
the protocol family they are usually compared against — decentralized
mutual exclusion, where the *clients* coordinate peer-to-peer over the
fabric and no lock server sits on the grant path:

``dlm-lamport``  Ricart–Agrawala: logical-clock-stamped REQUEST fanned
                 to every peer; a peer replies immediately unless it
                 holds (or wants, with priority) the resource, in which
                 case the reply is deferred until its own release.
``dlm-token``    Raymond's token tree: a single token per resource moves
                 along a static spanning tree of holder pointers;
                 entering requires owning the token.
``dlm-lease``    Redlock-style quorum leases: a candidate collects
                 time-limited votes from a majority of peers.

Each coordinator implements the :class:`~repro.dlm.client.LockClient`
surface (``lock``/``unlock``/``cancel_all``/flush hooks/stats), so
:class:`~repro.pfs.client.CcpfsClient`, the workloads, the traffic
engine and the chaos harness run unchanged on top of it.  Because these
protocols are exclusive-only, every mode collapses to ``PW`` over the
whole resource (extents ``(0, EOF)``) — the page-cache/flush machinery
then behaves exactly as it would under a whole-file write lock.

Sequence numbers (which order flushed extents in the server extent
caches) come from the protocol itself instead of a sequencer: each
variant guarantees per-resource strict monotonicity across successive
holders (see docs/algorithms.md for the per-variant argument).  The
validator checks this as invariant **I9** over the enter/exit trace
(:class:`~repro.dlm.validator.MutexLedger`).

Metrics: coordinators reuse :class:`~repro.dlm.client.LockClientStats`
(so ``dlm.client.*`` keys aggregate as usual), register
``rpc.mutex.wait_time`` via their :class:`~repro.net.rpc.RpcService`,
and add two histograms of their own — ``mutex.messages_per_cs`` (wire
messages this node sent per critical-section entry; cache hits observe
0) and ``mutex.sync_delay`` (request-to-enter sojourn).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Generator, Hashable, List, Optional, Tuple

from repro._compat import DATACLASS_KW
from repro.config import DictConfigMixin, register_fn
from repro.dlm.client import ClientLock, DirtyFn, FlushFn, LockClientStats
from repro.dlm.config import LivenessConfig
from repro.dlm.extent import EOF
from repro.dlm.messages import LockStateRecord
from repro.dlm.types import LockMode, LockState
from repro.net.rpc import (
    CTRL_MSG_BYTES,
    RetryPolicy,
    RpcService,
    rpc_call,
    rpc_call_retry,
)

__all__ = [
    "LamportConfig",
    "LeaseQuorumConfig",
    "MutexCoordinator",
    "MutexReplyMsg",
    "MutexRequestMsg",
    "TokenAskMsg",
    "TokenConfig",
    "TokenPassMsg",
    "VoteReleaseMsg",
    "VoteReplyMsg",
    "VoteRequestMsg",
    "raymond_parent",
]


# ----------------------------------------------------------------- messages
#
# ``MutexRequestMsg`` peer -> peer   Ricart–Agrawala REQUEST (clock-stamped)
# ``MutexReplyMsg``   peer -> peer   RA reply (RPC response; may be deferred)
# ``TokenAskMsg``     peer -> peer   Raymond: request forwarded along the tree
# ``TokenPassMsg``    peer -> peer   Raymond: the token itself (carries the
#                                    resource's next sequence number)
# ``VoteRequestMsg``  peer -> voter  lease-quorum ballot
# ``VoteReplyMsg``    voter -> peer  grant/deny + the voter's last known SN
# ``VoteReleaseMsg``  peer -> voter  release a granted vote / publish the SN


@dataclass(**DATACLASS_KW)
class MutexRequestMsg:
    resource_id: Hashable
    ts: int
    sender: int


@dataclass(**DATACLASS_KW)
class MutexReplyMsg:
    resource_id: Hashable
    last_sn: int
    ts: int = 0


@dataclass(**DATACLASS_KW)
class TokenAskMsg:
    resource_id: Hashable
    sender: int


@dataclass(**DATACLASS_KW)
class TokenPassMsg:
    resource_id: Hashable
    next_sn: int


@dataclass(**DATACLASS_KW)
class VoteRequestMsg:
    resource_id: Hashable
    candidate: int


@dataclass(**DATACLASS_KW)
class VoteReplyMsg:
    resource_id: Hashable
    granted: bool
    last_sn: int


@dataclass(**DATACLASS_KW)
class VoteReleaseMsg:
    resource_id: Hashable
    holder: int
    #: Sequence number the holder used (0 for a lost ballot's give-back).
    sn: int


# ------------------------------------------------------------------ configs
def raymond_parent(index: int) -> int:
    """Default token-tree topology: a complete binary tree rooted at
    node 0 (node ``i``'s parent is ``(i - 1) // 2``)."""
    return (index - 1) // 2


register_fn(raymond_parent)


class DecentralizedConfigBase(DictConfigMixin):
    """Shared surface of the decentralized-variant configs.

    The class attributes (not dataclass fields, so they stay out of
    ``to_dict()``) are what the cluster and the ccPFS client key on:
    ``decentralized`` flips the wiring to client-side coordinators, and
    ``datatype_locks`` stays off because these protocols lock the whole
    resource.
    """

    decentralized = True
    datatype_locks = False

    def effective_mode(self, mode: LockMode) -> LockMode:
        """Mutual exclusion is exclusive-only: every mode maps to PW."""
        return LockMode.PW

    def with_overrides(self, **kw):
        return replace(self, **kw)


@dataclass(frozen=True)
class LamportConfig(DecentralizedConfigBase):
    """Ricart–Agrawala over Lamport clocks (``dlm-lamport``)."""

    name: str = "dlm-lamport"


@dataclass(frozen=True)
class TokenConfig(DecentralizedConfigBase):
    """Raymond token tree (``dlm-token``)."""

    name: str = "dlm-token"
    #: Maps a node index to its tree parent's index (node 0 is the root
    #: and initially holds every token).  Registered by name so the
    #: config round-trips through ``to_dict()``/``from_dict()``.
    topology: Callable[[int], int] = raymond_parent


@dataclass(frozen=True)
class LeaseQuorumConfig(DecentralizedConfigBase):
    """Redlock-style quorum leases (``dlm-lease``)."""

    name: str = "dlm-lease"
    #: How long one granted vote stays valid at a voter.  Reuses the
    #: liveness dataclass: ``lease_duration`` is the vote lease term
    #: (the other fields are accepted for ablation symmetry).
    lease: LivenessConfig = field(default_factory=LivenessConfig)
    #: Seeded exponential backoff after a lost ballot.
    backoff_base: float = 2.0e-4
    backoff_factor: float = 2.0
    backoff_max: float = 5.0e-3
    backoff_jitter: float = 0.5

    def __post_init__(self):
        for field_name in ("backoff_base", "backoff_factor", "backoff_max"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be > 0")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be >= 0")


# -------------------------------------------------------------- coordinator
class MutexCoordinator:
    """Base class: the LockClient-compatible local layer.

    Subclasses implement the wire protocol through three hooks:

    * ``_enter(rid)`` — generator; blocks until this node may enter the
      critical section, returns ``(sn, pretagged)`` where ``sn`` is the
      per-resource sequence number for this tenure and ``pretagged``
      asks for the cached lock to start life CANCELING (a peer already
      wants the resource);
    * ``_release(lock)`` — generator; hands the resource onward (send
      deferred replies / pass the token / release votes);
    * ``_on_message(req)`` — RPC handler for the node's ``"mutex"``
      service (may return a generator for async handling).

    The base class supplies lock caching with peer-interest revocation,
    the single-flight acquire gate, flush-before-release ordering, the
    validator hook, and the ``mutex.*`` histograms.  Subclasses with
    ``eager_release = True`` (leases) give the resource back as soon as
    local uses drain instead of caching until a peer asks.
    """

    #: Release as soon as the local refcount drains (no lazy caching).
    eager_release = False

    def __init__(self, node, config, peers, index: int,
                 retry: Optional[RetryPolicy] = None, rng=None,
                 dedup: bool = False):
        self.node = node
        self.sim = node.sim
        self.config = config
        #: Every client node, index-ordered; ``peers[index] is node``.
        self.peers = list(peers)
        self.index = index
        self.retry = retry
        self.rng = rng
        self.stats = LockClientStats()
        self.incarnation = 1
        self.discard_fn = None
        self.shard_cache = None
        self.flush_fn: FlushFn = _noop_flush
        self.dirty_fn: DirtyFn = lambda lock: False
        #: Wire messages this coordinator sent (requests + replies).
        self.protocol_messages = 0
        #: Installed by the validator (a MutexValidator proxying the
        #: cluster-wide MutexLedger); None runs unchecked.
        self.ledger = None
        self._cache: Dict[Hashable, ClientLock] = {}
        self._gates: Dict[Hashable, object] = {}
        self._departed: Dict[Hashable, list] = {}
        self._lock_ids = itertools.count(1)
        reg = getattr(self.sim, "metrics", None)
        self._msgs_hist = (reg.histogram("mutex.messages_per_cs",
                                         unit="messages", owner="dlm.mutex")
                           if reg is not None else None)
        self._sync_hist = (reg.histogram("mutex.sync_delay", unit="seconds",
                                         owner="dlm.mutex")
                           if reg is not None else None)
        self.service = RpcService(node, "mutex", self._on_message,
                                  dedup=dedup)

    # ---------------------------------------------------------------- hooks
    def set_flush_hooks(self, flush_fn: FlushFn, dirty_fn: DirtyFn) -> None:
        self.flush_fn = flush_fn
        self.dirty_fn = dirty_fn

    def note_fenced(self, msg) -> None:  # pragma: no cover - API parity
        """Decentralized variants have no evicting server; nothing to do."""

    # ------------------------------------------------------------ inspection
    def cached_locks(self, resource_id: Hashable = None) -> List[ClientLock]:
        if resource_id is not None:
            lock = self._cache.get(resource_id)
            return [lock] if lock is not None else []
        return list(self._cache.values())

    @staticmethod
    def resolve(lock: ClientLock) -> ClientLock:
        while lock.merged_into is not None:  # pragma: no cover - no merges
            lock = lock.merged_into
        return lock

    def gather_lock_states(self) -> List[LockStateRecord]:
        return [LockStateRecord(
            lock_id=l.lock_id, resource_id=l.resource_id, mode=l.mode,
            extents=l.extents, sn=l.sn, state=l.state,
            client_name=self.node.name, has_dirty=self.dirty_fn(l),
            incarnation=self.incarnation)
            for l in self.cached_locks()]

    # --------------------------------------------------------------- lock()
    def lock(self, resource_id: Hashable, extents: Tuple,
             mode: LockMode, for_write: bool) -> Generator:
        """Acquire the whole-resource exclusive lock; LockClient-shaped."""
        while True:
            lock = self._cache.get(resource_id)
            if lock is not None:
                if (lock.state is LockState.GRANTED
                        and not lock.cancel_started):
                    self.stats.cache_hits += 1
                    lock.refcount += 1
                    self._mark_use(lock, for_write)
                    if self._msgs_hist is not None:
                        self._msgs_hist.observe(0)
                    return lock
                # A cancel is underway (or pending): wait for the old
                # tenure to fully depart, then compete again.
                ev = self.sim.event()
                self._departed.setdefault(resource_id, []).append(ev)
                yield ev
                continue
            gate = self._gates.get(resource_id)
            if gate is not None:
                # Another local process is acquiring: single-flight.
                yield gate
                continue
            gate = self.sim.event()
            self._gates[resource_id] = gate
            try:
                lock = yield from self._acquire(resource_id)
            finally:
                del self._gates[resource_id]
                gate.succeed()
            self._mark_use(lock, for_write)
            return lock

    def _acquire(self, rid: Hashable) -> Generator:
        self.stats.requests += 1
        t0 = self.sim.now
        msgs_before = self.protocol_messages
        sn, pretagged = yield from self._enter(rid)
        wait = self.sim.now - t0
        self.stats.lock_wait_time += wait
        self.stats.grants += 1
        if self._sync_hist is not None:
            self._sync_hist.observe(wait)
        if self._msgs_hist is not None:
            self._msgs_hist.observe(self.protocol_messages - msgs_before)
        lock = ClientLock(
            lock_id=next(self._lock_ids), resource_id=rid,
            mode=LockMode.PW, extents=((0, EOF),), sn=sn,
            state=(LockState.CANCELING if pretagged else LockState.GRANTED),
            refcount=1)
        self._cache[rid] = lock
        if self.ledger is not None:
            self.ledger.note_enter(rid, self.node.name, sn)
        return lock

    @staticmethod
    def _mark_use(lock: ClientLock, for_write: bool) -> None:
        if for_write:
            lock.used_write = True
        else:
            lock.used_read = True

    # -------------------------------------------------------------- unlock()
    def unlock(self, lock: ClientLock) -> None:
        lock = self.resolve(lock)
        if lock.refcount <= 0:
            raise RuntimeError(f"unlock of unheld lock {lock.lock_id}")
        lock.refcount -= 1
        self._maybe_cancel(lock)

    def _maybe_cancel(self, lock: ClientLock) -> None:
        if lock.refcount != 0 or lock.cancel_started:
            return
        if lock.state is LockState.CANCELING or self.eager_release:
            lock.cancel_started = True
            self.sim.spawn(self._cancel(lock),
                           name=f"mutex-cancel-{self.node.name}"
                                f"-{lock.lock_id}")

    def _cancel(self, lock: ClientLock) -> Generator:
        """Flush, then hand the resource onward.  The ledger exit is
        recorded *before* any release message leaves, and a peer can
        only enter after receiving one — so exits strictly precede the
        next enter even at equal simulated times."""
        t0 = self.sim.now
        self.stats.cancels += 1
        tf = self.sim.now
        yield from self.flush_fn(lock)
        self.stats.flush_time += self.sim.now - tf
        if self.ledger is not None:
            self.ledger.note_exit(lock.resource_id, self.node.name)
        self._forget(lock)
        yield from self._release(lock)
        for ev in self._departed.pop(lock.resource_id, ()):
            ev.succeed()
        self.stats.cancel_time += self.sim.now - t0

    def _forget(self, lock: ClientLock) -> None:
        if self._cache.get(lock.resource_id) is lock:
            del self._cache[lock.resource_id]
        if self.discard_fn is not None:
            # Same convention as LockClient: a list of dropped locks.
            self.discard_fn([lock])

    def cancel_all(self) -> Generator:
        """Flush and release every cached lock (fsync/close path)."""
        procs = []
        for lock in list(self._cache.values()):
            if lock.cancel_started:
                continue
            lock.state = LockState.CANCELING
            if lock.refcount == 0:
                lock.cancel_started = True
                procs.append(self.sim.spawn(
                    self._cancel(lock),
                    name=f"mutex-cancel-{self.node.name}-{lock.lock_id}"))
        if procs:
            yield self.sim.all_of(procs)

    # ------------------------------------------------------------- transport
    def _call(self, dst, payload, nbytes: int = CTRL_MSG_BYTES) -> Generator:
        """One reliable peer RPC; counts the send (and fault-run
        retries) in this coordinator's stats."""
        self.protocol_messages += 1
        if self.retry is None:
            reply = yield rpc_call(self.node, dst, "mutex", payload,
                                   nbytes=nbytes)
        else:
            reply = yield from rpc_call_retry(
                self.node, dst, "mutex", payload, nbytes=nbytes,
                policy=self.retry, rng=self.rng,
                on_retry=self._count_retry)
        return reply

    def _count_retry(self, _attempt: int) -> None:
        self.stats.request_retries += 1

    def _respond(self, req, payload, nbytes: int = CTRL_MSG_BYTES) -> None:
        self.protocol_messages += 1
        req.respond(payload, nbytes=nbytes)

    def _fan_out(self, make_proc) -> Generator:
        """Spawn ``make_proc(i, peer)`` for every peer (not self), wait
        for all, and return their values index-ordered.  A failed leg
        re-raises — decentralized protocols fail loudly rather than
        proceed on partial information."""
        procs = []
        for i, peer in enumerate(self.peers):
            if i == self.index:
                continue
            procs.append(self.sim.spawn(
                make_proc(i, peer),
                name=f"mutex-fanout-{self.node.name}-{i}"))
        if procs:
            yield self.sim.all_of(procs)
        results = []
        for p in procs:
            if not p.ok:
                raise p.value
            results.append(p.value)
        return results

    # ------------------------------------------------------------- protocol
    def _enter(self, rid: Hashable) -> Generator:
        raise NotImplementedError

    def _release(self, lock: ClientLock) -> Generator:
        raise NotImplementedError

    def _on_message(self, req):
        raise NotImplementedError


def _noop_flush(lock: ClientLock) -> Generator:
    return
    yield  # pragma: no cover - makes this a generator function
