"""The lock client: grant caching, revocation handling, lock canceling.

A :class:`LockClient` lives on every ccPFS client node.  It implements the
client half of every DLM variant:

* **grant cache** — granted locks stay cached (state GRANTED) and satisfy
  later operations with zero RPCs when the cached mode is at or above the
  needed mode in the Fig. 9 lattice and the cached extents cover the
  request;
* **revocation** — on a server callback the lock flips to CANCELING, an
  ack goes back immediately (that ack is what early grant keys on), and
  the *cancel routine* runs once the lock's refcount drains: optional
  downgrade (§III-D2) → data flush (via a hook installed by the ccPFS
  client) → release;
* **lock upgrading** — an upgraded grant absorbs same-client locks; the
  absorbed records redirect to the merged lock so in-flight operations
  unlock the right object (Fig. 11).

The flush hook decouples this package from the page cache: the DLM hands
over *when* to flush, ccPFS decides *what*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Hashable, List, Optional, Tuple

from repro.dlm.config import DLMConfig, LivenessConfig
from repro.dlm.extent import Extent
from repro.dlm.messages import (
    DowngradeMsg,
    FailoverAnnounceMsg,
    FencedMsg,
    HeartbeatMsg,
    LockGrantMsg,
    LockRequestMsg,
    LockStateRecord,
    ReleaseMsg,
    RevokeAckMsg,
    RevokeMsg,
    ShardAnnounceMsg,
    WrongShardMsg,
)
from repro.dlm.server import LockTable
from repro.dlm.types import LockMode, LockState, can_satisfy
from repro.net.fabric import Node, UnknownServiceError
from repro.net.rpc import (
    CTRL_MSG_BYTES,
    RetryPolicy,
    RpcTimeoutError,
    one_way,
    rpc_call,
    rpc_call_retry,
)

__all__ = ["ClientLock", "LockClient", "LockClientStats"]


@dataclass
class ClientLock:
    """Client-side record of one granted lock."""

    lock_id: int
    resource_id: Hashable
    mode: LockMode
    extents: Tuple[Extent, ...]
    sn: int
    state: LockState
    refcount: int = 0
    used_read: bool = False
    used_write: bool = False
    cancel_started: bool = False
    merged_into: Optional["ClientLock"] = None


@dataclass
class LockClientStats:
    """Client-side timing/counters feeding Fig. 17/18."""

    requests: int = 0
    cache_hits: int = 0
    grants: int = 0
    revokes_received: int = 0
    cancels: int = 0
    downgrades: int = 0
    #: Retries of the lock-request RPC itself (fault runs only).
    request_retries: int = 0
    #: Reliable notifications (acks/downgrades/releases) that exhausted
    #: their retry budget — the server-side watchdogs must clean up.
    notify_failures: int = 0
    #: Time from sending a lock request to receiving the grant.
    lock_wait_time: float = 0.0
    #: Time spent in cancel routines (downgrade + flush + release) — the
    #: paper's breakdown part ② "lock cancel".
    cancel_time: float = 0.0
    #: Portion of cancel_time spent flushing.
    flush_time: float = 0.0
    # -- liveness -------------------------------------------------------
    #: Lease-renewal heartbeats sent.
    heartbeats_sent: int = 0
    #: Heartbeats that got no reply within one interval.
    heartbeat_losses: int = 0
    #: FencedMsg replies received (zombie RPCs rejected server-side).
    fenced_replies: int = 0
    #: Times this client adopted a fresh incarnation after eviction.
    rejoins: int = 0
    # -- lock-namespace sharding ---------------------------------------
    #: WrongShardMsg rejections received (stale shard map or a request
    #: racing a migration); each one triggers refresh-and-retry.
    wrong_shard_replies: int = 0


#: Hook type: given a lock, flush its dirty data; generator completing when
#: the data servers have acked.
FlushFn = Callable[[ClientLock], Generator]
#: Hook type: does this lock currently cover dirty data?
DirtyFn = Callable[[ClientLock], bool]


def _noop_flush(lock: ClientLock) -> Generator:
    return
    yield  # pragma: no cover - makes this a generator function


class LockClient:
    """Client half of the DLM on one node."""

    def __init__(self, node: Node, config: DLMConfig,
                 server_for: Callable[[Hashable], Node],
                 retry: Optional[RetryPolicy] = None, rng=None,
                 liveness: Optional[LivenessConfig] = None):
        self.node = node
        self.sim = node.sim
        self.config = config
        self.server_for = server_for
        #: When set, lock requests retry with backoff and protocol
        #: notifications (acks, downgrades, releases) become reliable
        #: acked RPCs instead of fire-and-forget one-ways — required for
        #: runs under injected message loss (see repro.faults).
        self.retry = retry
        self.rng = rng
        #: When set, a heartbeat process renews this client's lease with
        #: every lock server it has ever contacted.  Leave None for lock
        #: clients that must not be lease-evictable (e.g. a data server's
        #: local client).
        self.liveness = liveness
        #: This client's incarnation number; bumped (to the server-chosen
        #: floor) on rejoin after an eviction.  Carried by every outgoing
        #: message so servers can fence the pre-eviction incarnation.
        self.incarnation = 1
        #: Hook called with the dropped locks when an eviction forces a
        #: rejoin — ccPFS uses it to discard dirty pages under reclaimed
        #: locks (they were resolved server-side; re-flushing them would
        #: be the zombie write the fence exists to stop).
        self.discard_fn: Optional[Callable[[List[ClientLock]], None]] = None
        self.stats = LockClientStats()
        self.flush_fn: FlushFn = _noop_flush
        self.dirty_fn: DirtyFn = lambda lock: False
        #: Lock servers this client has ever talked to (sticky, sorted at
        #: iteration for determinism) — heartbeat targets.
        self._known_servers: set = set()
        # -- high availability (see repro.dlm.replication) -----------------
        #: Node names of deposed sequencers: grants stamped with one of
        #: these incumbents are stale — discarded and re-requested from
        #: the promoted standby.
        self._deposed: set = set()
        #: Stale grants from a deposed incumbent this client discarded.
        self.stale_grants_fenced = 0
        #: Held locks this client re-asserted to a promoted standby.
        self.locks_reasserted = 0
        #: Optional hot-RPC cloning hook, installed by the cluster when
        #: ``ReplicationConfig.clone_requests`` is on; called as
        #: ``clone_fn(resource_id, request_msg)`` for every lock request
        #: this client puts on the wire.
        self.clone_fn = None
        # -- lock-namespace sharding (see repro.dlm.sharding) --------------
        #: This client's cached shard map (sharded clusters only); the
        #: cluster also routes ``server_for`` through it.
        self.shard_cache = None
        #: Refresh generator installed by the cluster: called with the
        #: WrongShardMsg after a shard-fencing rejection, fetches the
        #: current map from the directory into :attr:`shard_cache`.
        #: None (data servers' local clients route through the
        #: authoritative map) just re-resolves and retries.
        self.shard_refresh_fn = None
        #: Idempotency tokens for logical lock requests (sharded
        #: clusters): one per lock() call, stable across wrong-shard
        #: re-routes so a migrated grant can answer a resend.
        self._request_tokens = itertools.count(1)
        self._cache: Dict[Hashable, List[ClientLock]] = {}
        #: The locks of each ``_cache`` list a later lock() may reuse
        #: (state GRANTED), in the same order, indexed by range.  A lock
        #: that leaves GRANTED never returns to it, so it is dropped
        #: here at that transition.
        self._usable: Dict[Hashable, LockTable] = {}
        # Lock ids are only unique per server; key by (resource, id).
        self._by_id: Dict[tuple, ClientLock] = {}
        # Revocations that arrived before their grant reply (the server
        # may revoke immediately after granting; the callback can beat
        # the reply to us).  Applied when the grant registers.
        self._pending_revokes: set = set()
        node.register_service("dlm_cb", self._on_callback)
        if liveness is not None:
            # One attempt per beat, bounded by the interval: a lost beat
            # is simply counted and the next interval tries again.
            self._hb_policy = RetryPolicy(
                timeout=liveness.heartbeat_interval, max_retries=0)
            self.sim.spawn(self._heartbeat_loop(),
                           name=f"{node.name}-heartbeat")

    # ---------------------------------------------------------------- hooks
    def set_flush_hooks(self, flush_fn: FlushFn, dirty_fn: DirtyFn) -> None:
        self.flush_fn = flush_fn
        self.dirty_fn = dirty_fn

    # ------------------------------------------------------------ inspection
    def cached_locks(self, resource_id: Hashable = None) -> List[ClientLock]:
        if resource_id is not None:
            return list(self._cache.get(resource_id, ()))
        return [l for locks in self._cache.values() for l in locks]

    @staticmethod
    def resolve(lock: ClientLock) -> ClientLock:
        """Follow upgrade-merge redirects to the live lock."""
        while lock.merged_into is not None:
            lock = lock.merged_into
        return lock

    def gather_lock_states(self) -> List[LockStateRecord]:
        """Report all cached locks (server recovery, §IV-C2)."""
        return [LockStateRecord(
            lock_id=l.lock_id, resource_id=l.resource_id, mode=l.mode,
            extents=l.extents, sn=l.sn, state=l.state,
            client_name=self.node.name, has_dirty=self.dirty_fn(l),
            incarnation=self.incarnation)
            for l in self.cached_locks()]

    # ---------------------------------------------------------------- lock()
    def lock(self, resource_id: Hashable, extents: Tuple[Extent, ...],
             mode: LockMode, for_write: bool) -> Generator:
        """Acquire a lock covering ``extents`` at (at least) ``mode``.

        Returns the :class:`ClientLock`; callers must :meth:`unlock` it.
        ``for_write`` records how the lock is used (drives the PW→PR vs
        PW→NBW downgrade decision).
        """
        mode = self.config.effective_mode(mode)
        cached = self._cache_lookup(resource_id, extents, mode)
        if cached is not None:
            self.stats.cache_hits += 1
            self._mark_use(cached, for_write)
            return cached

        self.stats.requests += 1
        t0 = self.sim.now
        nbytes = CTRL_MSG_BYTES + 32 * max(0, len(extents) - 1)
        # One token for the whole logical request: every pass below
        # (fenced reissue, wrong-shard re-route) re-sends under a fresh
        # RPC id but the same token, so a server holding the grant whose
        # reply was lost answers idempotently instead of re-queueing.
        token = (next(self._request_tokens)
                 if self.shard_cache is not None or
                 self.shard_refresh_fn is not None else None)
        while True:
            # Re-resolved every pass (and, via dst_fn, every retry): a
            # request parked at a sequencer that dies mid-wait must land
            # its next attempt at the promoted standby.
            server = self.server_for(resource_id)
            self._known_servers.add(server.name)
            request = LockRequestMsg(resource_id=resource_id, mode=mode,
                                     extents=tuple(extents),
                                     client_name=self.node.name,
                                     incarnation=self.incarnation,
                                     token=token)
            if self.clone_fn is not None:
                self.clone_fn(resource_id, request)
            if self.retry is None:
                grant: LockGrantMsg = yield rpc_call(
                    self.node, server, "dlm", request, nbytes=nbytes)
            else:
                grant = yield from rpc_call_retry(
                    self.node, server, "dlm", request, nbytes=nbytes,
                    policy=self.retry, rng=self.rng,
                    on_retry=self._count_request_retry,
                    dst_fn=lambda rid=resource_id: self.server_for(rid))
            if isinstance(grant, FencedMsg):
                # Evicted while this request was in flight or queued:
                # adopt the fresh incarnation and reissue the request.
                self.stats.fenced_replies += 1
                self.note_fenced(grant)
                continue
            if isinstance(grant, WrongShardMsg):
                # Shard fencing: the server no longer owns the slice.
                # Refresh the cached map from the directory and re-send
                # (the next pass re-resolves ``server_for``).
                yield from self._shard_refresh(grant)
                continue
            if grant.incumbent and grant.incumbent in self._deposed:
                # Stale grant from a deposed sequencer (it raced the
                # failover announce): the promoted standby owns the
                # resource now — drop the grant and re-request.
                self.stale_grants_fenced += 1
                continue
            break
        self.stats.lock_wait_time += self.sim.now - t0
        self.stats.grants += 1

        lock = ClientLock(lock_id=grant.lock_id, resource_id=resource_id,
                          mode=grant.mode, extents=grant.extents,
                          sn=grant.sn, state=grant.state, refcount=1)
        self._absorb(grant, lock)
        self._cache.setdefault(resource_id, []).append(lock)
        if lock.state is LockState.GRANTED:
            usable = self._usable.get(resource_id)
            if usable is None:
                usable = self._usable[resource_id] = LockTable()
            usable[lock.lock_id] = lock
        self._by_id[(resource_id, lock.lock_id)] = lock
        key = (resource_id, lock.lock_id)
        if key in self._pending_revokes:
            # A revocation raced ahead of this grant: honour it now.
            self._pending_revokes.discard(key)
            self._set_canceling(lock)
            self._notify(server, RevokeAckMsg(lock.lock_id, resource_id,
                                              incarnation=self.incarnation))
        self._mark_use(lock, for_write)
        return lock

    def _count_request_retry(self, _attempt: int) -> None:
        self.stats.request_retries += 1

    def _shard_refresh(self, reject: WrongShardMsg) -> Generator:
        """React to a shard-fencing rejection: refresh the cached map.

        Compute clients fetch the authoritative map from the directory
        (``shard_refresh_fn``, a reliable RPC).  Clients routed through
        the authoritative map directly (a data server's local client)
        have nothing to refresh — during a migration's drain window both
        old and new owner reject, and each retry costs a full RPC round
        trip, so the loop is paced by wire time until the epoch bump
        commits."""
        self.stats.wrong_shard_replies += 1
        if self.shard_refresh_fn is not None:
            yield from self.shard_refresh_fn(reject)
        else:
            yield 0.0

    # -------------------------------------------------------- notifications
    def _notify(self, server: Node, payload) -> None:
        """Send a protocol notification (ack / downgrade / release).

        Fire-and-forget ``one_way`` normally; with a retry policy it
        becomes a background acked RPC that retries until the server has
        definitely seen it — under injected loss a silently dropped
        release would wedge every waiter behind the dead lock.
        """
        if self.retry is None:
            one_way(self.node, server, "dlm", payload,
                    nbytes=CTRL_MSG_BYTES)
        else:
            self.sim.spawn(self._reliable_notify(server, payload),
                           name=f"{self.node.name}-notify")

    def _reliable_notify(self, server: Node, payload) -> Generator:
        while True:
            try:
                reply = yield from rpc_call_retry(self.node, server, "dlm",
                                                  payload,
                                                  nbytes=CTRL_MSG_BYTES,
                                                  policy=self.retry,
                                                  rng=self.rng)
            except (RpcTimeoutError, UnknownServiceError):
                # The server is gone for good (or restarted): its recovery
                # path regathers lock state from clients, so this
                # notification is obsolete rather than lost.
                self.stats.notify_failures += 1
                return
            if isinstance(reply, FencedMsg):
                # The server evicted us before this notification landed;
                # the state it refers to was already reclaimed.
                self.stats.fenced_replies += 1
                self.note_fenced(reply)
                return
            if isinstance(reply, WrongShardMsg):
                # The lock migrated while this notification was in
                # flight: refresh the map and deliver it to the shard's
                # new owner (acks/releases must reach whoever holds the
                # lock table now — a dropped release would wedge every
                # waiter behind the dead lock).
                yield from self._shard_refresh(reply)
                rid = getattr(payload, "resource_id", None)
                if rid is None:
                    return
                server = self.server_for(rid)
                continue
            return

    def _cache_lookup(self, resource_id, extents, mode) -> Optional[ClientLock]:
        usable = self._usable.get(resource_id)
        if usable:
            for cl in usable.covering(extents):
                if can_satisfy(cl.mode, mode):
                    cl.refcount += 1
                    return cl
        return None

    def _set_canceling(self, lock: ClientLock) -> None:
        lock.state = LockState.CANCELING
        self._unusable(lock)

    def _unusable(self, lock: ClientLock) -> None:
        usable = self._usable.get(lock.resource_id)
        if usable and usable.get(lock.lock_id) is lock:
            del usable[lock.lock_id]

    def _uncache(self, lock: ClientLock) -> None:
        """Drop ``lock`` itself from the grant cache (identity, not the
        dataclass's field-wise equality)."""
        self._unusable(lock)
        locks = self._cache.get(lock.resource_id, ())
        for i, cl in enumerate(locks):
            if cl is lock:
                del locks[i]
                return

    def _absorb(self, grant: LockGrantMsg, new: ClientLock) -> None:
        """Merge locks absorbed by an upgrade grant into the new lock."""
        for old_id in grant.absorbed_lock_ids:
            old = self._by_id.pop((new.resource_id, old_id), None)
            if old is None:
                continue
            old.merged_into = new
            new.refcount += old.refcount
            new.used_read = new.used_read or old.used_read
            new.used_write = new.used_write or old.used_write
            self._uncache(old)

    @staticmethod
    def _mark_use(lock: ClientLock, for_write: bool) -> None:
        # The refcount was already bumped by the lookup/creation path.
        if for_write:
            lock.used_write = True
        else:
            lock.used_read = True

    # --------------------------------------------------------------- unlock()
    def unlock(self, lock: ClientLock) -> None:
        """Drop one use; starts the cancel routine when a CANCELING lock
        drains to zero uses."""
        lock = self.resolve(lock)
        if lock.refcount <= 0:
            raise RuntimeError(f"unlock of unheld lock {lock.lock_id}")
        lock.refcount -= 1
        self._maybe_cancel(lock)

    def _maybe_cancel(self, lock: ClientLock) -> None:
        if (lock.refcount == 0 and lock.state is LockState.CANCELING
                and not lock.cancel_started):
            lock.cancel_started = True
            self.sim.spawn(self._cancel(lock),
                           name=f"cancel-{lock.lock_id}")

    # ------------------------------------------------------------- callbacks
    def _on_callback(self, msg) -> None:
        payload = msg.payload
        if isinstance(payload, FailoverAnnounceMsg):
            self._on_failover(payload)
            return
        if isinstance(payload, ShardAnnounceMsg):
            # Post-migration map broadcast (best-effort; a lost announce
            # is healed by WrongShardMsg fencing on the next request).
            if self.shard_cache is not None:
                self.shard_cache.update(payload.epoch, payload.owners,
                                        source="announce")
            return
        if not isinstance(payload, RevokeMsg):  # pragma: no cover
            raise TypeError(f"unexpected callback {payload!r}")
        self.stats.revokes_received += 1
        server = msg.src
        lock = self._by_id.get((payload.resource_id, payload.lock_id))
        if lock is None:
            # Either already released (the release in flight resolves the
            # conflict at the server) or the grant reply has not reached
            # us yet — stash it so the grant path can honour it.
            self._pending_revokes.add((payload.resource_id,
                                       payload.lock_id))
            return
        # Ack immediately: the lock will not be reused (Fig. 1 step ②).
        # Duplicate revokes (retransmits) re-ack — the earlier ack may
        # have been the casualty.
        self._notify(server, RevokeAckMsg(payload.lock_id,
                                          payload.resource_id,
                                          incarnation=self.incarnation))
        self._set_canceling(lock)
        self._maybe_cancel(lock)

    def _on_failover(self, msg: FailoverAnnounceMsg) -> None:
        """React to a failover announce: fence the deposed incumbent and
        re-assert every held lock to the promoted standby.

        Re-assertion reuses the §IV-C2 recovery records
        (:class:`LockStateRecord`) over the normal notification path, so
        under a retry policy it is reliable; the standby holds its wait
        queues until its re-assertion window closes, which is what makes
        the re-enqueued waiters deterministic.  Idempotent per announce
        (duplicates re-send records the server's dedup table absorbs).
        """
        knew_failed = msg.failed in self._known_servers
        self._deposed.add(msg.failed)
        self._known_servers.discard(msg.failed)
        incumbent = self.node.fabric.nodes.get(msg.incumbent)
        if incumbent is None:  # pragma: no cover - wiring error
            return
        reasserted = 0
        for rec in self.gather_lock_states():
            # Only locks the deposed sequencer owned move; the cluster
            # flips its routing table before announcing, so the current
            # resolution *is* the new incumbent for exactly those.
            if self.server_for(rec.resource_id) is incumbent:
                self._notify(incumbent, rec)
                reasserted += 1
        if knew_failed or reasserted:
            # Heartbeats move to the standby so it can lease-police us.
            self._known_servers.add(msg.incumbent)
        self.locks_reasserted += reasserted

    # ---------------------------------------------------------------- cancel
    def _cancel(self, lock: ClientLock) -> Generator:
        """Downgrade (maybe) → flush → release (Fig. 1 steps ③/④ with the
        §III-D2 downgrade inserted at the front)."""
        t0 = self.sim.now
        self.stats.cancels += 1
        server = self.server_for(lock.resource_id)
        flushed = False

        if self.config.lock_downgrading and \
                lock.mode in (LockMode.BW, LockMode.PW):
            if lock.mode is LockMode.PW and not lock.used_write \
                    and not self.dirty_fn(lock):
                new_mode = LockMode.PR  # reader-only PW (§III-D2)
            else:
                new_mode = LockMode.NBW
            if new_mode is LockMode.PR:
                # Flush (a no-op here: no dirty data) before downgrading
                # so PR waiters observe durable bytes.
                tf = self.sim.now
                yield from self.flush_fn(lock)
                self.stats.flush_time += self.sim.now - tf
                flushed = True
            self._notify(server, DowngradeMsg(lock.lock_id,
                                              lock.resource_id, new_mode,
                                              incarnation=self.incarnation))
            lock.mode = new_mode
            self.stats.downgrades += 1

        if not flushed:
            tf = self.sim.now
            yield from self.flush_fn(lock)
            self.stats.flush_time += self.sim.now - tf

        self._notify(server, ReleaseMsg(lock.lock_id, lock.resource_id,
                                        incarnation=self.incarnation))
        self._forget(lock)
        self.stats.cancel_time += self.sim.now - t0

    def _forget(self, lock: ClientLock) -> None:
        self._pending_revokes.discard((lock.resource_id, lock.lock_id))
        self._by_id.pop((lock.resource_id, lock.lock_id), None)
        self._uncache(lock)

    # -------------------------------------------------------------- liveness
    def note_fenced(self, msg: FencedMsg) -> None:
        """React to a :class:`FencedMsg` reply: this client was evicted.

        Rejoin by adopting the server-chosen minimum incarnation and
        dropping every cached lock (and, via ``discard_fn``, every dirty
        byte under them) — all of it refers to grants the eviction
        reclaimed, and replaying it under the fresh incarnation would
        resurrect exactly the zombie state the fence exists to stop.
        Idempotent for duplicate/stale fence notices.
        """
        if msg.min_incarnation <= self.incarnation:
            return
        self.incarnation = msg.min_incarnation
        self.stats.rejoins += 1
        dropped = self.cached_locks()
        self._cache.clear()
        self._usable.clear()
        self._by_id.clear()
        self._pending_revokes.clear()
        if self.discard_fn is not None:
            self.discard_fn(dropped)

    def _heartbeat_loop(self) -> Generator:
        """Renew leases with every lock server this client has contacted.

        Runs for the life of the node, including through an outage: the
        post-heal beats are what carry back the FencedMsg telling an
        evicted client to rejoin with a fresh incarnation.
        """
        lv = self.liveness
        while True:
            yield lv.heartbeat_interval
            for name in sorted(self._known_servers):
                yield from self._beat(self.node.fabric.nodes[name])

    def _beat(self, server: Node) -> Generator:
        self.stats.heartbeats_sent += 1
        try:
            reply = yield from rpc_call_retry(
                self.node, server, "dlm",
                HeartbeatMsg(self.node.name, self.incarnation),
                nbytes=CTRL_MSG_BYTES, policy=self._hb_policy)
        except (RpcTimeoutError, UnknownServiceError):
            self.stats.heartbeat_losses += 1
            return
        if isinstance(reply, FencedMsg):
            self.stats.fenced_replies += 1
            self.note_fenced(reply)

    # -------------------------------------------------------- bulk operations
    def cancel_all(self) -> Generator:
        """Flush and release every cached lock (used by close()/shutdown)."""
        locks = [l for l in self.cached_locks() if not l.cancel_started]
        procs = []
        for lock in locks:
            self._set_canceling(lock)
            if lock.refcount == 0:
                lock.cancel_started = True
                procs.append(self.sim.spawn(self._cancel(lock)))
        if procs:
            yield self.sim.all_of(procs)
