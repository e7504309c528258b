"""The generic lock server.

One implementation serves all four DLM variants; the
:class:`~repro.dlm.config.DLMConfig` decides

* which compatibility matrix resolves conflicts (traditional vs Table II
  — the latter is what enables *early grant*),
* the range-expansion policy (greedy / Lustre-capped / none),
* whether grants may be pre-tagged CANCELING (*early revocation*),
* whether same-client conflicts upgrade instead of revoke.

Processing model (mirrors §II-A): each lock resource keeps the set of
granted-but-unreleased locks plus a FIFO wait queue.  Every state change
(new request, revocation ack, downgrade, release) re-runs the queue from
the head, granting while the head request is compatible with all granted
locks it overlaps.  Blocked heads trigger revocation callbacks to the
offending holders.

Sequencer (§III-A1): each resource carries a monotonically increasing
sequence number.  A granted lock receives the current SN; granting any
write-mode lock then increments it, so all write grants of a resource are
totally ordered.  The data path tags written bytes with these SNs.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from operator import itemgetter
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from repro.dlm.config import (
    DLMConfig,
    ExpansionPolicy,
    LivenessConfig,
    LUSTRE_EXPANSION_CAP,
    LUSTRE_LOCK_COUNT_TRIGGER,
)
from repro.dlm.extent import EOF, overlaps
from repro.dlm.messages import (
    DowngradeMsg,
    FencedMsg,
    HeartbeatMsg,
    LockGrantMsg,
    LockRequestMsg,
    LockStateRecord,
    MsnQueryMsg,
    ProbeMsg,
    ReleaseMsg,
    RevokeAckMsg,
    RevokeMsg,
    ShardTransferMsg,
)
from repro.dlm.types import LockMode, LockState, is_write_mode, severity_lub
from repro.net.fabric import Node
from repro.net.rpc import (
    CTRL_MSG_BYTES,
    AdmissionConfig,
    Request,
    RetryPolicy,
    RpcService,
    one_way,
)

__all__ = ["LockServer", "LockTable", "ServerLock", "LockServerStats",
           "LivenessEvent"]


def _extents_overlap(mine, extents) -> bool:
    return any(overlaps(a, b) for a in mine for b in extents)


def _extents_cover(mine, extents) -> bool:
    return all(any(ls <= s and e <= le for ls, le in mine)
               for s, e in extents)


def _hull(extents) -> Tuple[int, int]:
    """Smallest single range containing every extent of ``extents``
    (:func:`repro.dlm.extent.span`, at C speed: a datatype lock or an
    mSN query carries thousands of extents)."""
    if not extents:
        return 0, 0
    return min(extents)[0], max(extents, key=itemgetter(1))[1]


@dataclass
class ServerLock:
    """Server-side record of one granted, unreleased lock."""

    lock_id: int
    resource_id: Hashable
    client_name: str
    mode: LockMode
    extents: Tuple[Tuple[int, int], ...]
    sn: int
    state: LockState = LockState.GRANTED
    revoke_sent: bool = False
    #: Incarnation of the holder at grant time (liveness/fencing).
    incarnation: int = 0
    #: Idempotency token of the request this lock answered (sharded
    #: clusters only; see ``LockRequestMsg.token``).
    token: Optional[int] = None

    def overlaps_extents(self, extents) -> bool:
        mine = self.extents
        # Fast path: single extent on both sides (the common case by
        # orders of magnitude — datatype locks are the only multi-extent
        # producers).
        if len(mine) == 1 and len(extents) == 1:
            (a0, a1), (b0, b1) = mine[0], extents[0]
            return a0 < b1 and b0 < a1 and a0 < a1 and b0 < b1
        return _extents_overlap(mine, extents)


@dataclass
class _Pending:
    msg: LockRequestMsg
    req: Request
    arrival: float


class _Grouping:
    """The lock classes of one LCM, grouped by LCM column.

    A lock's class is its ``(mode, state)``; its *column* is the set of
    request modes the LCM refuses next to it (the LCM is a pure function
    of request mode, granted mode and granted state).  Classes with the
    same column form one group: a request at ``mode`` is blocked by every
    lock of the groups whose column holds ``mode`` and by no other lock,
    so a conflict query reads those groups whole and nothing else.  Under
    Table II that is three groups — the readers, the CANCELING NBW chain
    that early grant lets NBW and BW requests past, and every other write
    — and under the traditional LCM two.
    """

    __slots__ = ("of", "blocking", "writes", "count")

    def __init__(self, lcm):
        columns: Dict[frozenset, int] = {}
        #: ``mode value -> state value -> group id``, keyed by the
        #: members' values (hashing an Enum member is a Python call).
        self.of: Dict[str, Dict[str, int]] = {}
        writes = set()
        for mode in LockMode:
            for state in LockState:
                column = frozenset(r for r in LockMode
                                   if not lcm(r, mode, state))
                gid = columns.setdefault(column, len(columns))
                self.of.setdefault(mode.value, {})[state.value] = gid
                if is_write_mode(mode):
                    writes.add(gid)
        self.count = len(columns)
        #: ``request mode value ->`` the ids of the groups blocking it.
        self.blocking: Dict[str, Tuple[int, ...]] = {
            r.value: tuple(gid for column, gid in columns.items()
                           if r in column)
            for r in LockMode}
        #: Ids of the groups holding a write class.
        self.writes: Tuple[int, ...] = tuple(sorted(writes))


@lru_cache(maxsize=8)  # a run uses one LCM; the tests a handful
def _lcm_grouping(lcm) -> _Grouping:
    return _Grouping(lcm)


class LockTable(dict):
    """Locks of one resource, ``lock_id -> lock``, with an interval index.

    A plain ``dict`` to every reader (iteration, ``get``, ``len``,
    insertion order, in-place replacement of an existing ``lock_id``),
    plus an index kept in step by ``[]=``, ``del``, ``pop`` and ``clear``
    so that range queries cost O(log n + candidates) instead of O(n).
    The lock server keeps each resource's granted :class:`ServerLock` records
    in one; the lock client keeps its reusable grants in one.

    **Groups.**  A table built with an ``lcm`` files each lock in the
    group of its ``(mode, state)`` — the classes the LCM treats alike,
    one group per LCM column (:class:`_Grouping`) — and a query names the
    groups it reads: :meth:`blocking` gives the groups that can block a
    request at a mode, :attr:`write_groups` the ones holding writes.  So
    the CANCELING NBW chain that piles up under early grant costs an NBW
    request's conflict scan nothing, where a scan of every overlapping
    lock walked all of it only to drop it.  A table without an ``lcm``
    (the client's) is one group.  A lock whose mode or state changes
    while filed must be re-installed under its id (``table[id] = lock``);
    that moves it only when its group changes.

    **Per group**, the index is two sorted lists, one keyed by range
    start and one by range end.  A lock is indexed once, by the hull of
    its extents (a 2048-extent datatype lock costs one entry, not 2048);
    the hull only selects candidates, the exact extent lists decide.  A
    query walks whichever list has the shorter qualifying side — for an
    overlap the prefix ``start < b1`` or the suffix ``end > b0``; in the
    paper's ascending-offset patterns the suffix stays short however
    large the table grows.

    Query results come back **in dict insertion order**, the order a
    linear scan of ``values()`` produces: on the server it decides which
    ``RevokeMsg`` leaves first and with it every later simulated
    timestamp.  Each lock carries the sequence number of its first
    insertion for that purpose; re-installing an existing ``lock_id``
    keeps it, as the dict keeps the key's position, and the hits of all
    the groups read are merged by it.  A group-filtered query therefore
    returns exactly what a scan of every overlapping lock followed by the
    LCM test returned: the same locks, in the same order.

    ``update`` / ``setdefault`` / ``popitem`` / ``|=`` would bypass the
    index and are rejected.
    """

    __slots__ = ("_grouping", "_groups", "_all", "_entries", "_next_seq",
                 "_live", "_last")

    def __init__(self, live: Optional[List[int]] = None, lcm=None):
        super().__init__()
        self._grouping = None if lcm is None else _lcm_grouping(lcm)
        count = 1 if self._grouping is None else self._grouping.count
        #: Per group id, its ``(by_start, by_end)`` lists: sorted
        #: ``(start, seq, end, lock, single, group)`` rows — the hull, the
        #: insertion sequence number (unique, so a comparison never
        #: reaches the lock), whether the lock has exactly one extent
        #: (then the hull *is* the lock) and the group — and the same
        #: locks as ``(end, seq, start, lock, single)`` rows.
        self._groups: List[Tuple[list, list]] = [
            ([], []) for _ in range(count)]
        self._all = tuple(range(count))
        #: ``lock_id ->`` its ``by_start`` row: the keys and group a lock
        #: was filed under, whatever happens to the lock object later.
        self._entries: Dict[int, tuple] = {}
        self._next_seq = 0
        #: One-cell count of locks shared by all tables of one lock
        #: server (:attr:`LockServer.lock_table_size`).
        self._live = [0] if live is None else live
        #: ``(extents, groups, result)`` of the latest
        #: :meth:`overlapping`, valid until the next mutation: a blocked
        #: queue head is re-examined each time a request queues behind it.
        self._last: Optional[tuple] = None

    def _group_of(self, mode: LockMode, state: LockState) -> int:
        grouping = self._grouping
        return 0 if grouping is None else \
            grouping.of[mode._value_][state._value_]

    def blocking(self, mode: LockMode) -> Tuple[int, ...]:
        """Ids of the groups whose locks a request at ``mode`` may not
        overlap."""
        grouping = self._grouping
        return self._all if grouping is None else \
            grouping.blocking[mode._value_]

    @property
    def write_groups(self) -> Tuple[int, ...]:
        """Ids of the groups that can hold a write-mode lock."""
        grouping = self._grouping
        return self._all if grouping is None else grouping.writes

    # -- mutation -----------------------------------------------------------
    def __setitem__(self, lock_id: int, lock) -> None:
        extents = lock.extents
        single = len(extents) == 1
        lo, hi = extents[0] if single else _hull(extents)
        gid = self._group_of(lock.mode, lock.state)
        old = self._entries.get(lock_id)
        if old is None:
            seq = self._next_seq
            self._next_seq += 1
            self._live[0] += 1
        else:
            seq = old[1]
            row = (lo, seq, hi, lock, single, gid)
            if old[3] is lock and old == row:
                return  # re-installed where it is filed: nothing moves
            self._unindex(old)
        self._last = None
        row = self._entries[lock_id] = (lo, seq, hi, lock, single, gid)
        by_start, by_end = self._groups[gid]
        insort(by_start, row)
        insort(by_end, (hi, seq, lo, lock, single))
        super().__setitem__(lock_id, lock)

    def __delitem__(self, lock_id: int) -> None:
        super().__delitem__(lock_id)
        self._unindex(self._entries.pop(lock_id))
        self._live[0] -= 1
        self._last = None

    def pop(self, lock_id: int, *default):
        if lock_id in self:
            lock = self[lock_id]
            del self[lock_id]
            return lock
        if default:
            return default[0]
        raise KeyError(lock_id)

    def clear(self) -> None:
        self._live[0] -= len(self)
        super().clear()
        self._entries.clear()
        for by_start, by_end in self._groups:
            by_start.clear()
            by_end.clear()
        self._last = None

    def _unindex(self, row: tuple) -> None:
        lo, seq, hi = row[:3]
        by_start, by_end = self._groups[row[5]]
        del by_start[bisect_left(by_start, (lo, seq))]
        del by_end[bisect_left(by_end, (hi, seq))]

    def _unsupported(self, *_args, **_kwargs):
        raise TypeError("LockTable is mutated through [] / del / pop / "
                        "clear only (anything else bypasses the index)")

    update = setdefault = popitem = __ior__ = _unsupported

    # -- queries ------------------------------------------------------------
    def overlapping(self, extents, groups: Optional[Tuple[int, ...]] = None
                    ) -> list:
        """Locks of ``groups`` (default: all) sharing at least one byte
        with ``extents``, in insertion order (a list the caller must not
        modify).  Zero-length extents match nothing."""
        last = self._last
        if last is not None and last[1] is groups and last[0] == extents:
            return last[2]
        # Two single ranges overlap iff their hulls do; anything else is
        # confirmed against the extent lists.
        one = len(extents) == 1
        b0, b1 = extents[0] if one else _hull(extents)
        if b0 >= b1:
            return []
        hits = []
        for gid in self._all if groups is None else groups:
            by_start, by_end = self._groups[gid]
            if not by_start:
                continue
            below = bisect_left(by_start, (b1,))      # rows with start < b1
            above = bisect_left(by_end, (b0 + 1,))    # first row, end > b0
            if below <= len(by_end) - above:
                hits += [(seq, g) for lo, seq, hi, g, single, _gid
                         in by_start[:below]
                         if hi > b0 and (one and single and lo < hi or
                                         _extents_overlap(g.extents, extents))]
            else:
                hits += [(seq, g) for hi, seq, lo, g, single in by_end[above:]
                         if lo < b1 and (one and single and lo < hi or
                                         _extents_overlap(g.extents, extents))]
        if len(hits) > 1:
            hits.sort()
        found = [g for _seq, g in hits]
        self._last = (extents, groups, found)
        return found

    def has_overlapping(self, extents, mode: LockMode,
                        state: LockState) -> bool:
        """Whether a lock of class ``(mode, state)`` shares a byte with
        ``extents``: a walk of that class's group that stops at the first
        hit."""
        one = len(extents) == 1
        b0, b1 = extents[0] if one else _hull(extents)
        if b0 >= b1:
            return False
        by_start, by_end = self._groups[self._group_of(mode, state)]
        if not by_start:
            return False
        below = bisect_left(by_start, (b1,))
        above = bisect_left(by_end, (b0 + 1,))
        if below <= len(by_end) - above:
            rows = ((lo, hi, g, single) for lo, _seq, hi, g, single, _gid
                    in islice(by_start, below))
        else:
            rows = ((lo, hi, g, single) for hi, _seq, lo, g, single
                    in islice(reversed(by_end), len(by_end) - above))
        for lo, hi, g, single in rows:
            if (lo < b1 and hi > b0 and g.mode is mode and g.state is state
                    and (one and single and lo < hi or
                         _extents_overlap(g.extents, extents))):
                return True
        return False

    def ending_after(self, offset: int,
                     groups: Optional[Tuple[int, ...]] = None) -> list:
        """Locks of ``groups`` (default: all) with an extent ending above
        ``offset``, in insertion order."""
        tail = []
        for gid in self._all if groups is None else groups:
            by_end = self._groups[gid][1]
            if by_end:
                tail += by_end[bisect_left(by_end, (offset + 1,)):]
        tail.sort(key=itemgetter(1))
        return [row[3] for row in tail]

    def covering(self, extents) -> list:
        """Locks that contain every extent of ``extents`` in one of
        their own, in insertion order."""
        if not extents:
            return list(self.values())
        # A single range covers another iff its hull does; anything else
        # is confirmed against the extent lists.
        one = len(extents) == 1
        b0, b1 = extents[0] if one else _hull(extents)
        hits = []
        for by_start, by_end in self._groups:
            below = bisect_left(by_start, (b0 + 1,))  # rows, start <= b0
            above = bisect_left(by_end, (b1,))        # first row, end >= b1
            if below <= len(by_end) - above:
                hits += [(seq, g) for _lo, seq, hi, g, single, _gid
                         in by_start[:below]
                         if hi >= b1 and (one and single or
                                          _extents_cover(g.extents, extents))]
            else:
                hits += [(seq, g) for _hi, seq, lo, g, single in by_end[above:]
                         if lo <= b0 and (one and single or
                                          _extents_cover(g.extents, extents))]
        if len(hits) > 1:
            hits.sort()
        return [g for _seq, g in hits]

    # -- self-check ---------------------------------------------------------
    def index_fault(self) -> Optional[str]:
        """Why the index disagrees with the mapping, or None when it
        holds exactly the mapping's locks in the mapping's order, each
        under the hull of its extents and in the group of its current
        mode and state (O(n); validator invariant I10)."""
        entries = self._entries
        groups = self._groups
        starts = sum(len(by_start) for by_start, _by_end in groups)
        ends = sum(len(by_end) for _by_start, by_end in groups)
        if not len(self) == len(entries) == starts == ends:
            return (f"{len(self)} locks but {len(entries)} entries, "
                    f"{starts} by start, {ends} by end")
        of = None if self._grouping is None else self._grouping.of
        last_seq = -1
        for lock_id, lock in self.items():
            row = entries.get(lock_id)
            if row is None or row[3] is not lock:
                return f"lock {lock_id} is not the one indexed"
            lo, seq, hi, _lock, single, gid = row
            extents = lock.extents
            if len(extents) == 1:
                s, e = extents[0]
                filed = single and s == lo and e == hi
            else:
                filed = not single and _hull(extents) == (lo, hi)
            if not filed:
                return f"lock {lock_id} indexed as [{lo}, {hi})"
            if of is not None and \
                    of[lock.mode._value_][lock.state._value_] != gid:
                return (f"lock {lock_id} ({lock.mode._value_}, "
                        f"{lock.state._value_}) filed in group {gid}")
            if seq <= last_seq:
                return f"lock {lock_id} out of insertion order"
            last_seq = seq
        for gid, (by_start, by_end) in enumerate(groups):
            prev = None
            for row in by_start:
                lock = row[3]
                if entries.get(lock.lock_id) is not row or row[5] != gid:
                    return f"stray by-start row for lock {lock.lock_id}"
                key = row[:2]
                if prev is not None and key <= prev:
                    return f"by-start list unsorted at lock {lock.lock_id}"
                prev = key
            prev = None
            for hi, seq, lo, lock, _single in by_end:
                row = entries.get(lock.lock_id)
                if row is None or row[3] is not lock or row[5] != gid or \
                        row[:3] != (lo, seq, hi):
                    return f"stray by-end row for lock {lock.lock_id}"
                if prev is not None and (hi, seq) <= prev:
                    return f"by-end list unsorted at lock {lock.lock_id}"
                prev = (hi, seq)
        return None


@dataclass
class _Resource:
    resource_id: Hashable
    granted: LockTable = field(default_factory=LockTable)
    queue: Deque[_Pending] = field(default_factory=deque)
    next_sn: int = 1


@dataclass
class LockServerStats:
    """Counters used by the harness and the breakdown figures."""

    requests: int = 0
    grants: int = 0
    early_grants: int = 0
    early_revocations: int = 0
    revocations_sent: int = 0
    upgrades: int = 0
    downgrades: int = 0
    releases: int = 0
    expansions: int = 0
    msn_queries: int = 0
    #: Revocation callbacks re-sent by the loss watchdog (fault runs).
    revoke_retransmits: int = 0
    #: Cumulative time between sending a revocation callback and processing
    #: its ack — the paper's breakdown part ① "lock revocation" (Fig. 17).
    revoke_wait_time: float = 0.0
    # -- client liveness (leases, eviction, fencing) ----------------------
    #: Heartbeats accepted (lease grants + renewals).
    heartbeats: int = 0
    #: Clients expelled for a missed lease or an ignored revocation.
    evictions: int = 0
    #: Granted locks reclaimed by evictions.
    locks_reclaimed: int = 0
    #: RPCs from fenced (pre-eviction) client incarnations rejected.
    fenced_rejections: int = 0
    # -- lock-namespace sharding (see repro.dlm.sharding) -----------------
    #: Requests for shards this server does not own, bounced with an
    #: epoch-stamped WrongShardMsg (stale client maps, migration drains).
    shard_rejections: int = 0
    #: Locks installed here by an inbound shard migration.
    shard_locks_migrated_in: int = 0
    #: Duplicate requests answered from an already-granted lock after a
    #: migration (the original grant reply was lost with the old owner's
    #: dedup table, so the new owner re-sends the grant idempotently).
    shard_regrants: int = 0


@dataclass(frozen=True)
class LivenessEvent:
    """One entry of a lock server's lease/eviction timeline."""

    time: float
    kind: str  # lease-grant|evict|fence-reject|heartbeat-fenced
    client: str
    detail: str = ""


class LockServer:
    """DLM service attached to one node.

    The RPC service name is ``"dlm"``; clients must expose a ``"dlm_cb"``
    service for revocation callbacks.
    """

    def __init__(self, node: Node, config: DLMConfig,
                 ops: float = 213_000.0,
                 retry: Optional[RetryPolicy] = None, rng=None,
                 dedup: bool = False,
                 liveness: Optional[LivenessConfig] = None,
                 admission: Optional[AdmissionConfig] = None):
        self.node = node
        self.sim = node.sim
        self.config = config
        #: When set, unacked revocation callbacks are retransmitted with
        #: backoff (one-way callbacks can be lost under injected faults;
        #: a silently dropped revoke would wedge the wait queue forever).
        self.retry = retry
        self.rng = rng
        #: When set, the server runs the lease/eviction monitor: clients
        #: that stop heartbeating or sit on a revocation past the timeout
        #: are evicted and their incarnation fenced.
        self.liveness = liveness
        self.stats = LockServerStats()
        self._resources: Dict[Hashable, _Resource] = {}
        #: lock_id -> (sent_at, resource_id, client_name) for unacked
        #: revocation callbacks (watchdog + revoke-timeout eviction).
        self._revoke_sent_at: Dict[int, Tuple[float, Hashable, str]] = {}
        self._lock_ids = itertools.count(1)
        #: Bumped on reset_state so in-flight watchdogs from before a
        #: crash stop retransmitting stale revocations.
        self._epoch = 0
        # -- liveness state (volatile: lost on crash like the lock table).
        #: client -> lease deadline; present only for clients that have
        #: heartbeated at least once (the lease is a contract entered by
        #: heartbeating; never-heartbeating holders are covered by the
        #: revoke-timeout eviction path).
        self._leases: Dict[str, float] = {}
        #: Highest incarnation seen per client.
        self._incarnations: Dict[str, int] = {}
        #: client -> minimum acceptable incarnation (evicted + 1); RPCs
        #: below the floor are fenced.
        self._fence: Dict[str, int] = {}
        #: Lease/eviction timeline (rendered by ``repro chaos``).
        self.liveness_log: List[LivenessEvent] = []
        #: Cluster hook called as ``on_evict(client, reason, reclaimed)``
        #: — records the eviction in the fault plan and kicks cleaning.
        self.on_evict = None
        #: Granted locks across all resources, as a cell every resource's
        #: :class:`LockTable` counts into where it is mutated.
        self._granted_count = [0]
        #: High-watermarks for the metrics layer.
        self.lock_table_max = 0
        self.waiter_queue_max = 0
        # -- high availability (see repro.dlm.replication) -----------------
        #: Fail-stop flag: a killed sequencer never grants, evicts, or
        #: sends again.  Distinct from ``node.failed`` — the node's other
        #: services (the co-located data server) stay up.
        self.dead = False
        #: Replication hook, called as ``replicate_fn(resource_id, sn)``
        #: for every write-mode grant (the SN it consumed); the cluster
        #: wires it to the standby's replication channel.
        self.replicate_fn = None
        #: Until this instant ``_process`` grants nothing: a promoted
        #: standby holds its queues while surviving clients re-assert
        #: their locks, so re-enqueued waiters cannot jump a still-held
        #: (but not yet re-reported) lock.
        self.recovery_hold_until = 0.0
        #: Simulated time of this server's first grant (a promoted
        #: standby's value is the end of the MTTR window).
        self.first_grant_at: Optional[float] = None
        #: Locks reinstalled via client re-assertion after a failover.
        self.locks_reasserted = 0
        # -- lock-namespace sharding (see repro.dlm.sharding) --------------
        #: Ownership check installed by a sharded cluster: maps a
        #: resource id to None (owned here) or a ready-to-send
        #: WrongShardMsg.  Every resource-addressed request is checked
        #: before dispatch, so a stale shard map can never extract a
        #: grant or a state mutation from the wrong server.
        self.shard_guard = None
        #: CompactSnTable holding the next-SN floors of idle resources
        #: (sharded clusters only); consulted when a resource goes live.
        self.sn_floors = None
        #: When True, a resource whose grants and queue have drained is
        #: collapsed to one packed floor entry (memory frugality for
        #: 10^5-resource runs).
        self.frugal_gc = False
        self.service = RpcService(node, "dlm", self._handle, ops=ops,
                                  cost_fn=self._dispatch_cost,
                                  dedup=dedup, admission=admission)
        if liveness is not None:
            self.sim.spawn(self._liveness_monitor(),
                           name=f"{node.name}-liveness")

    @staticmethod
    def _dispatch_cost(msg) -> float:
        """Dispatch-cost weight per message type.  The measured CaRT OPS
        (§V-A, ~213 k) is for request-reply RPCs (lock requests, mSN
        queries); one-way notifications (release, revoke-ack, downgrade)
        and heartbeats skip the reply path and cost a fraction of a full
        RPC."""
        if isinstance(msg.payload, (LockRequestMsg, MsnQueryMsg)):
            return 1.0
        return 0.25

    # ------------------------------------------------------------------ util
    def _res(self, resource_id: Hashable) -> _Resource:
        res = self._resources.get(resource_id)
        if res is None:
            res = self._resources[resource_id] = _Resource(
                resource_id, LockTable(self._granted_count, self.config.lcm))
            if self.sn_floors is not None:
                # The resource was idle and frugally collapsed: restore
                # its sequencer floor so no SN is ever reissued.
                floor = self.sn_floors.pop(resource_id)
                if floor is not None:
                    res.next_sn = floor
        return res

    def _maybe_gc(self, res: _Resource) -> None:
        """Frugal mode: collapse a fully idle resource (no grants, no
        waiters) to one packed floor entry in :attr:`sn_floors`."""
        if (not self.frugal_gc or self.sn_floors is None
                or res.granted or res.queue):
            return
        if self._resources.get(res.resource_id) is not res:
            return
        if res.next_sn > 1:
            self.sn_floors.set(res.resource_id, res.next_sn)
        del self._resources[res.resource_id]

    def reset_state(self) -> None:
        """Drop all volatile lock state (crash simulation, §IV-C2)."""
        self._resources.clear()
        # A fresh cell: tables orphaned by the crash keep the old one.
        self._granted_count = [0]
        self._revoke_sent_at.clear()
        self._epoch += 1
        # Liveness state is volatile too: leases and fences die with the
        # server.  Surviving clients re-establish leases with their next
        # heartbeat.  Losing the fence floor is safe: an evicted client's
        # locks were reclaimed before the crash, so its stale RPCs refer
        # to lock ids that no longer exist after recovery and fall into
        # the same raced-with-release no-op paths as any late duplicate.
        self._leases.clear()
        self._incarnations.clear()
        self._fence.clear()
        if self.sn_floors is not None:
            # The floor table is volatile like the lock table it mirrors;
            # recovery re-floors from the extent log and re-assertions.
            self.sn_floors.clear()
        self.service.reset_dedup()

    def kill(self) -> None:
        """Fail-stop this sequencer (HA failover testing).

        The node itself stays up — its data-server service keeps flowing
        — but the DLM is gone for good: the dispatcher halts, the
        ``"dlm"`` handler is swapped for a black hole (senders observe
        silence and time out, exactly the ambiguity a failure detector
        faces — *not* a synchronous connection-refused), and the epoch
        bump stops every in-flight revoke watchdog.  Irreversible; the
        standby is promoted in this server's place.
        """
        if self.dead:
            return
        self.dead = True
        self._epoch += 1
        self.service.halt()
        node = self.node

        def _blackhole(msg) -> None:
            node.messages_blackholed += 1

        node.unregister_service("dlm")
        node.register_service("dlm", _blackhole)

    def begin_recovery_holdoff(self, duration: float) -> None:
        """Hold all grants for ``duration`` while clients re-assert their
        locks to this (just-promoted) server, then re-run every wait
        queue in deterministic (resource-repr) order."""
        self.recovery_hold_until = self.sim.now + duration
        self.sim.spawn(self._holdoff_expiry(duration),
                       name=f"{self.node.name}-holdoff")

    def _holdoff_expiry(self, duration: float):
        yield float(duration)
        if self.dead:
            return
        for rid in sorted(self._resources, key=repr):
            self._process(self._resources[rid])

    @property
    def lock_table_size(self) -> int:
        """Locks currently granted across all resources."""
        return self._granted_count[0]

    def _note_table_size(self) -> None:
        size = self._granted_count[0]
        if size > self.lock_table_max:
            self.lock_table_max = size

    def granted_locks(self, resource_id: Hashable) -> List[ServerLock]:
        return list(self._res(resource_id).granted.values())

    def queue_depth(self, resource_id: Hashable) -> int:
        return len(self._res(resource_id).queue)

    # ------------------------------------------------------------- dispatch
    def _handle(self, req: Request) -> None:
        if self.dead:
            return  # defense in depth: a killed sequencer handles nothing
        payload = req.payload
        if isinstance(payload, ProbeMsg):
            # Failure-detector probe: a live sequencer just echoes.
            req.respond("alive", nbytes=CTRL_MSG_BYTES)
            return
        if isinstance(payload, ShardTransferMsg):
            # Migration install is addressed to the *incoming* owner and
            # must precede the ownership check (the epoch bump that makes
            # this server the owner of record happens after the install
            # is acked; see Cluster.migrate_shard).
            self._on_shard_transfer(payload, req)
            return
        if self.shard_guard is not None:
            rid = getattr(payload, "resource_id", None)
            if rid is not None:
                reject = self.shard_guard(rid)
                if reject is not None:
                    # Shard fencing: this server does not own the slice
                    # (stale client map, or a migration drain window).
                    # Reject with the current epoch before touching any
                    # state; the client refreshes its map and re-sends.
                    self.stats.shard_rejections += 1
                    req.respond(reject, nbytes=CTRL_MSG_BYTES)
                    return
        client = getattr(payload, "client_name", "") or req.src.name
        inc = getattr(payload, "incarnation", None)
        if inc is not None:
            if self.is_fenced(client, inc):
                # Zombie RPC from a pre-eviction incarnation: reject
                # without touching any state.  The reply doubles as the
                # rejoin signal (it carries the minimum acceptable
                # incarnation).
                self.stats.fenced_rejections += 1
                kind = ("heartbeat-fenced"
                        if isinstance(payload, HeartbeatMsg) else
                        "fence-reject")
                self._log(kind, client,
                          f"{type(payload).__name__} inc={inc} "
                          f"< {self._fence[client]}")
                req.respond(FencedMsg(client, inc, self._fence[client]),
                            nbytes=CTRL_MSG_BYTES)
                return
            self._note_client(client, inc)
        if isinstance(payload, HeartbeatMsg):
            self._on_heartbeat(payload, req)
        elif isinstance(payload, LockRequestMsg):
            self._on_lock_request(payload, req)
        elif isinstance(payload, RevokeAckMsg):
            self._on_revoke_ack(payload)
            self._ack_notification(req)
        elif isinstance(payload, DowngradeMsg):
            self._on_downgrade(payload)
            self._ack_notification(req)
        elif isinstance(payload, ReleaseMsg):
            self._on_release(payload)
            self._ack_notification(req)
        elif isinstance(payload, MsnQueryMsg):
            self._on_msn_query(payload, req)
        elif isinstance(payload, LockStateRecord):
            self._on_recover_lock(payload)
            self._ack_notification(req)
        else:  # pragma: no cover - protocol error
            raise TypeError(f"unexpected DLM payload {payload!r}")

    @staticmethod
    def _ack_notification(req: Request) -> None:
        """Notifications are one-way normally (req_id < 0, respond is a
        no-op); clients running a retry policy send them as acked RPCs so
        loss is detectable — answer those."""
        if not req.responded:
            req.respond("ok")

    # ------------------------------------------------------------- requests
    def _on_lock_request(self, msg: LockRequestMsg, req: Request) -> None:
        self.stats.requests += 1
        res = self._res(msg.resource_id)
        if self.shard_guard is not None:
            # Migration breaks the usual at-most-once story: a grant
            # issued by the old owner whose reply was lost cannot be
            # replayed from this server's dedup table, and the client's
            # wrong-shard re-route arrives under a fresh request id.
            # Queueing it would deadlock the request behind the
            # client's own (unacknowledged) granted lock, so answer
            # idempotently from the migrated grant instead.
            dup = self._find_covering_grant(res, msg)
            if dup is not None:
                self.stats.shard_regrants += 1
                req.respond(LockGrantMsg(
                    lock_id=dup.lock_id, resource_id=res.resource_id,
                    mode=dup.mode, extents=dup.extents, sn=dup.sn,
                    state=dup.state, absorbed_lock_ids=(),
                    incumbent=self.node.name), nbytes=CTRL_MSG_BYTES)
                return
        res.queue.append(_Pending(msg, req, self.sim.now))
        if len(res.queue) > self.waiter_queue_max:
            self.waiter_queue_max = len(res.queue)
        self._process(res)

    @staticmethod
    def _find_covering_grant(res: _Resource,
                             msg: LockRequestMsg) -> Optional[ServerLock]:
        """The granted lock that already answered this exact logical
        request, identified by the client's idempotency token — i.e.
        ``msg`` is a resend whose original grant reply was lost (sharded
        clusters only; see ``_on_lock_request``).  Token equality is
        deliberately the *only* criterion beyond client identity:
        matching on mode/extent coverage instead would also catch a
        genuinely new request covered by a lock the client is in the
        middle of releasing, and re-granting that one lets two writers
        overlap."""
        if msg.token is None:
            return None
        for g in res.granted.values():
            if (g.token == msg.token
                    and g.client_name == msg.client_name
                    and g.incarnation == msg.incarnation):
                return g
        return None

    def _on_revoke_ack(self, msg: RevokeAckMsg) -> None:
        entry = self._revoke_sent_at.pop(msg.lock_id, None)
        if entry is not None:
            self.stats.revoke_wait_time += self.sim.now - entry[0]
        res = self._res(msg.resource_id)
        lock = res.granted.get(msg.lock_id)
        if lock is None:
            return  # raced with release
        lock.state = LockState.CANCELING
        res.granted[lock.lock_id] = lock  # re-filed under its new group
        self._process(res)

    def _on_downgrade(self, msg: DowngradeMsg) -> None:
        res = self._res(msg.resource_id)
        lock = res.granted.get(msg.lock_id)
        if lock is None:
            return
        lock.mode = msg.new_mode
        res.granted[lock.lock_id] = lock  # re-filed under its new group
        self.stats.downgrades += 1
        self._process(res)

    def _on_release(self, msg: ReleaseMsg) -> None:
        self._revoke_sent_at.pop(msg.lock_id, None)
        res = self._res(msg.resource_id)
        if res.granted.pop(msg.lock_id, None) is not None:
            self.stats.releases += 1
        self._process(res)
        self._maybe_gc(res)

    def _on_msn_query(self, msg: MsnQueryMsg, req: Request) -> None:
        """Minimum SN of unreleased write locks overlapping the extents
        (§IV-B cleaning).  With no such lock, every SN below the
        resource's next SN is fully flushed."""
        self.stats.msn_queries += 1
        res = self._res(msg.resource_id)
        table = res.granted
        sns = [g.sn for g in table.overlapping(msg.extents, table.write_groups)
               if is_write_mode(g.mode)]
        msn = min(sns) - 1 if sns else res.next_sn - 1
        req.respond(msn)
        self._maybe_gc(res)

    def bump_next_sn(self, resource_id: Hashable, floor: int) -> None:
        """Recovery aid (§IV-C2): the extent log proves SNs below
        ``floor`` were issued before the crash — never reissue them, even
        when no surviving client reports the lock that carried them."""
        res = self._res(resource_id)
        res.next_sn = max(res.next_sn, floor)

    def _on_recover_lock(self, rec: LockStateRecord) -> None:
        """Reinstall a client-reported lock during server recovery."""
        self.locks_reasserted += 1
        res = self._res(rec.resource_id)
        res.granted[rec.lock_id] = ServerLock(
            lock_id=rec.lock_id, resource_id=rec.resource_id,
            client_name=rec.client_name, mode=rec.mode, extents=rec.extents,
            sn=rec.sn, state=rec.state,
            revoke_sent=rec.state is LockState.CANCELING,
            incarnation=rec.incarnation, token=rec.token)
        res.next_sn = max(res.next_sn, rec.sn + 1)
        self._note_table_size()
        # Keep lock ids unique after recovery.
        self._lock_ids = itertools.count(
            max(rec.lock_id + 1, next(self._lock_ids)))

    # ------------------------------------------------------------- sharding
    def extract_shard(self, belongs, reject_fn):
        """Old-owner side of a shard migration (drain step).

        Atomically (in simulated time) removes every resource whose id
        satisfies ``belongs``: granted locks become §IV-C2
        :class:`LockStateRecord` wire records, queued waiters are
        bounced with ``reject_fn(resource_id)`` (they re-request once
        the new owner commits), unacked revocation entries travel along
        so their acks land at the new owner, and idle floors parked in
        :attr:`sn_floors` move too.  Returns ``(floors, locks, revokes,
        waiters_bounced)``."""
        floors: List[Tuple[Hashable, int]] = []
        locks: List[LockStateRecord] = []
        revokes: List[Tuple[int, float, Hashable, str]] = []
        bounced = 0
        doomed = sorted((r for r in self._resources if belongs(r)), key=repr)
        for rid in doomed:
            res = self._resources.pop(rid)
            if res.next_sn > 1:
                floors.append((rid, res.next_sn))
            for lock_id in sorted(res.granted):
                g = res.granted[lock_id]
                locks.append(LockStateRecord(
                    lock_id=g.lock_id, resource_id=g.resource_id,
                    mode=g.mode, extents=g.extents, sn=g.sn, state=g.state,
                    client_name=g.client_name, incarnation=g.incarnation,
                    token=g.token))
                entry = self._revoke_sent_at.pop(g.lock_id, None)
                if entry is not None:
                    revokes.append((g.lock_id, entry[0], entry[1], entry[2]))
            # Emptying the dict (not just dropping the resource) stops
            # any in-flight revoke watchdog holding a reference to it.
            res.granted.clear()
            for pend in list(res.queue):
                pend.req.respond(reject_fn(rid), nbytes=CTRL_MSG_BYTES)
                bounced += 1
            res.queue.clear()
        if self.sn_floors is not None:
            floors.extend(self.sn_floors.extract(belongs))
        return floors, locks, revokes, bounced

    def _on_shard_transfer(self, msg: ShardTransferMsg, req: Request) -> None:
        """New-owner side of a shard migration (install step).

        Floors first — no grant issued after this instant can reuse a
        transferred SN — then the locks (via the recovery install path:
        they are *not* new grants, so the validator's before-set already
        contains them), then the in-flight revocation entries, whose
        watchdogs re-arm here.  The reply acks the whole install; the
        sender retries until it lands (dedup absorbs duplicates)."""
        for rid, floor in msg.floors:
            self.bump_next_sn(rid, floor)
        revoke_ids = {entry[0] for entry in msg.revokes}
        for rec in msg.locks:
            res = self._res(rec.resource_id)
            res.granted[rec.lock_id] = ServerLock(
                lock_id=rec.lock_id, resource_id=rec.resource_id,
                client_name=rec.client_name, mode=rec.mode,
                extents=rec.extents, sn=rec.sn, state=rec.state,
                revoke_sent=(rec.state is LockState.CANCELING
                             or rec.lock_id in revoke_ids),
                incarnation=rec.incarnation, token=rec.token)
            res.next_sn = max(res.next_sn, rec.sn + 1)
            self._lock_ids = itertools.count(
                max(rec.lock_id + 1, next(self._lock_ids)))
            self.stats.shard_locks_migrated_in += 1
        for lock_id, sent_at, rid, client in msg.revokes:
            self._revoke_sent_at[lock_id] = (sent_at, rid, client)
            if self.retry is not None:
                res = self._res(rid)
                lock = res.granted.get(lock_id)
                if lock is not None and lock.state is LockState.GRANTED:
                    self.sim.spawn(self._revoke_watchdog(res, lock),
                                   name=f"revoke-wd-{lock_id}")
        self._note_table_size()
        req.respond("ok", nbytes=CTRL_MSG_BYTES)

    # ------------------------------------------------------------ the queue
    def _conflicts(self, res: _Resource, msg: LockRequestMsg) -> List[ServerLock]:
        """The granted locks ``msg`` overlaps and may not coexist with,
        in grant order: the overlapping locks of the groups that block
        its mode (see :class:`LockTable`)."""
        table = res.granted
        return table.overlapping(msg.extents, table.blocking(msg.mode))

    @staticmethod
    def _absorbable(g: ServerLock, client_name: str) -> bool:
        return (g.client_name == client_name
                and g.state is LockState.GRANTED and not g.revoke_sent)

    def _upgrade_set(self, res: _Resource, msg: LockRequestMsg,
                     conflicts: List[ServerLock]
                     ) -> Tuple[Optional[List[ServerLock]], List[ServerLock]]:
        """Fixed-point absorb set for a lock upgrade (§III-D1).

        The merged lock covers the union of the request and every
        absorbed extent at the severity-lub mode; that union may overlap
        *further* locks, which must also be absorbed (same-client,
        GRANTED) or treated as blockers.  Returns ``(absorb, blockers)``
        — ``absorb`` is None when blockers prevent the upgrade for now.
        """
        absorb = list(conflicts)
        mode = msg.mode
        for c in absorb:
            mode = severity_lub(mode, c.mode)
        while True:
            lo = min([s for s, _e in msg.extents]
                     + [s for c in absorb for s, _e in c.extents])
            hi = max([e for _s, e in msg.extents]
                     + [e for c in absorb for _s, e in c.extents])
            blockers = []
            grew = False
            absorbed = {c.lock_id for c in absorb}
            table = res.granted
            for g in table.overlapping(((lo, hi),), table.blocking(mode)):
                if g.lock_id in absorbed:
                    continue
                if self._absorbable(g, msg.client_name):
                    absorb.append(g)
                    mode = severity_lub(mode, g.mode)
                    grew = True
                    break  # recompute the union
                blockers.append(g)
            if grew:
                continue
            if blockers:
                return None, blockers
            return absorb, []

    def _process(self, res: _Resource) -> None:
        if self.dead or self.sim.now < self.recovery_hold_until:
            # Dead sequencers grant nothing; a just-promoted standby
            # parks its queues until the re-assertion hold-off expires
            # (the expiry process re-runs every queue).
            return
        while res.queue:
            pend = res.queue[0]
            msg = pend.msg
            conflicts = self._conflicts(res, msg)
            if not conflicts:
                res.queue.popleft()
                self._grant(res, pend)
                continue
            blockers = conflicts
            if (self.config.lock_upgrading
                    and all(self._absorbable(c, msg.client_name)
                            for c in conflicts)):
                absorb, blockers = self._upgrade_set(res, msg, conflicts)
                if absorb is not None:
                    res.queue.popleft()
                    self._grant(res, pend, absorb=absorb)
                    continue
            # Blocked: revoke the offending GRANTED locks (normal path).
            for g in blockers:
                if (self.config.lock_upgrading
                        and self._absorbable(g, msg.client_name)):
                    # §III-D1: reclaim only the *other* clients' locks;
                    # the requester's own lock will be absorbed by the
                    # upgrade once the foreign conflicts clear.
                    continue
                if g.state is LockState.GRANTED and not g.revoke_sent:
                    g.revoke_sent = True
                    self.stats.revocations_sent += 1
                    self._revoke_sent_at[g.lock_id] = (
                        self.sim.now, res.resource_id, g.client_name)
                    client = self.node.fabric.nodes[g.client_name]
                    one_way(self.node, client, "dlm_cb",
                            RevokeMsg(g.lock_id, res.resource_id),
                            nbytes=CTRL_MSG_BYTES)
                    if self.retry is not None:
                        self.sim.spawn(
                            self._revoke_watchdog(res, g),
                            name=f"revoke-wd-{g.lock_id}")
            break

    def _revoke_watchdog(self, res: _Resource, lock: ServerLock):
        """Retransmit an unacked revocation callback with backoff.

        Stops as soon as the client acks (state leaves GRANTED), the lock
        is released, or the server's state is reset by a crash.  Clients
        re-ack duplicate revokes, so retransmits are safe.
        """
        epoch = self._epoch
        for attempt in range(self.retry.max_retries):
            yield self.retry.timeout_for(attempt, self.rng)
            if (self._epoch != epoch
                    or res.granted.get(lock.lock_id) is not lock
                    or lock.state is not LockState.GRANTED):
                return
            self.stats.revoke_retransmits += 1
            client = self.node.fabric.nodes[lock.client_name]
            one_way(self.node, client, "dlm_cb",
                    RevokeMsg(lock.lock_id, res.resource_id),
                    nbytes=CTRL_MSG_BYTES)

    # ------------------------------------------------------------- granting
    def _expand(self, res: _Resource, msg: LockRequestMsg,
                mode: LockMode,
                extents: Tuple[Tuple[int, int], ...]
                ) -> Tuple[Tuple[Tuple[int, int], ...], bool]:
        """Apply the range-expansion policy to ``extents`` (the request's
        extents, possibly already unioned by an upgrade) for a lock about
        to be granted at ``mode`` (possibly upgraded vs the request);
        returns ``(extents, expanded)``."""
        policy = self.config.expansion
        if policy is ExpansionPolicy.NONE or len(extents) != 1:
            return extents, False
        start, end = extents[0]
        if end >= EOF:
            return extents, False
        lcm = self.config.lcm
        table = res.granted
        bound = EOF
        # Granted locks that would conflict with the new mode cap the end;
        # one overlapping the requested range itself makes expansion
        # impossible (the request keeps its exact range).  A lock entirely
        # below the request does neither, so the index hands over only
        # the locks ending above ``start``.  (An empty request, ``start >=
        # end``, can be capped by a lock that starts at ``end`` and ends
        # no higher than ``start``; asking from ``end - 1`` keeps it.)
        for g in table.ending_after(min(start, end - 1),
                                    table.blocking(mode)):
            for (gs, ge) in g.extents:
                if gs >= end:
                    bound = min(bound, gs)
                elif ge > start:
                    return extents, False
        # Queued requests (other clients) also cap it — granting past them
        # would immediately re-create the conflict they are waiting out.
        # An overlapping queued conflict likewise forbids expansion, which
        # is exactly the §III-A2 condition that arms early revocation.
        for other in res.queue:
            om = other.msg
            if om is msg or om.client_name == msg.client_name:
                continue
            if lcm(mode, om.mode, LockState.GRANTED) and \
                    lcm(om.mode, mode, LockState.GRANTED):
                continue
            for (os_, oe) in om.extents:
                if os_ >= end:
                    bound = min(bound, os_)
                elif oe > start:
                    return extents, False
        if policy is ExpansionPolicy.LUSTRE and \
                len(table) > LUSTRE_LOCK_COUNT_TRIGGER:
            bound = min(bound, end + LUSTRE_EXPANSION_CAP)
        if bound <= end:
            return extents, False
        return ((start, bound),), True

    def _has_queued_conflict(self, res: _Resource, msg: LockRequestMsg,
                             mode: LockMode, extents) -> bool:
        lcm = self.config.lcm
        single = len(extents) == 1
        if single:
            b0, b1 = extents[0]
        for other in res.queue:
            om = other.msg
            if om.client_name == msg.client_name:
                continue
            oex = om.extents
            if single and len(oex) == 1:
                a0, a1 = oex[0]
                if not (a0 < b1 and b0 < a1 and a0 < a1 and b0 < b1):
                    continue
            elif not any(overlaps(a, b) for a in extents for b in oex):
                continue
            if not lcm(om.mode, mode, LockState.GRANTED):
                return True
        return False

    @staticmethod
    def _early_grant(res: _Resource, mode: LockMode, extents) -> bool:
        """Whether Table II's N/Y cell enables a grant at ``mode`` over
        ``extents``: a write overlapping a CANCELING NBW lock."""
        return is_write_mode(mode) and res.granted.has_overlapping(
            extents, LockMode.NBW, LockState.CANCELING)

    def _grant(self, res: _Resource, pend: _Pending,
               absorb: Optional[List[ServerLock]] = None) -> None:
        msg = pend.msg
        mode = msg.mode
        absorbed_ids: Tuple[int, ...] = ()
        extents = msg.extents

        if absorb:
            # Lock upgrading (§III-D1): merge the same-client conflicts
            # into one more-restrictive lock covering the union.
            for c in absorb:
                mode = severity_lub(mode, c.mode)
            lo = min([s for s, _e in extents]
                     + [s for c in absorb for s, _e in c.extents])
            hi = max([e for _s, e in extents]
                     + [e for c in absorb for _s, e in c.extents])
            extents = ((lo, hi),)
            absorbed_ids = tuple(c.lock_id for c in absorb)
            for c in absorb:
                del res.granted[c.lock_id]
            self.stats.upgrades += 1

        if self._early_grant(res, mode, extents):
            self.stats.early_grants += 1

        extents, expanded = self._expand(res, msg, mode, extents)
        if expanded:
            self.stats.expansions += 1

        state = LockState.GRANTED
        if (self.config.early_revocation and is_write_mode(mode)
                and not expanded
                and self._has_queued_conflict(res, msg, mode, extents)):
            # Early revocation (§III-A2): piggyback the revocation in the
            # grant; no revoke round trip will be needed.
            state = LockState.CANCELING
            self.stats.early_revocations += 1

        sn = res.next_sn
        if is_write_mode(mode):
            res.next_sn += 1

        lock = ServerLock(
            lock_id=next(self._lock_ids), resource_id=res.resource_id,
            client_name=msg.client_name, mode=mode, extents=extents, sn=sn,
            state=state, revoke_sent=state is LockState.CANCELING,
            incarnation=msg.incarnation, token=msg.token)
        res.granted[lock.lock_id] = lock
        self.stats.grants += 1
        self._note_table_size()
        if self.first_grant_at is None:
            self.first_grant_at = self.sim.now
        if self.replicate_fn is not None and is_write_mode(mode):
            # Asynchronous SN replication: the standby's watermark for
            # this resource advances to the SN just consumed.  Sent in
            # the same instant as the grant reply, so a grant the client
            # may act on is always at least in flight to the standby.
            self.replicate_fn(res.resource_id, sn)
        pend.req.respond(LockGrantMsg(
            lock_id=lock.lock_id, resource_id=res.resource_id, mode=mode,
            extents=extents, sn=sn, state=state,
            absorbed_lock_ids=absorbed_ids,
            incumbent=self.node.name), nbytes=CTRL_MSG_BYTES)

    # ------------------------------------------------- liveness / eviction
    def is_fenced(self, client: str, incarnation: int) -> bool:
        """True when ``incarnation`` of ``client`` has been evicted and
        must not mutate server state."""
        return incarnation < self._fence.get(client, 0)

    def fence_floor(self, client: str, incarnation: int) -> Optional[int]:
        """Minimum acceptable incarnation when ``(client, incarnation)``
        is fenced, else None.  Installed as the co-located data server's
        ``fence_fn`` so zombie flushes are rejected with the same floor
        the DLM enforces."""
        if self.is_fenced(client, incarnation):
            return self._fence[client]
        return None

    def _note_client(self, client: str, incarnation: int) -> None:
        if incarnation > self._incarnations.get(client, 0):
            self._incarnations[client] = incarnation

    def _on_heartbeat(self, msg: HeartbeatMsg, req: Request) -> None:
        """Accept a heartbeat: establish or renew the client's lease.

        Only heartbeats touch the lease — a busy client keeps its lease
        through its (independent) heartbeat process, and holders that
        never heartbeat (e.g. a data server's local lock client) simply
        never enter the lease regime; the revoke-timeout path still
        covers them."""
        if self.liveness is not None:
            fresh = msg.client_name not in self._leases
            self._leases[msg.client_name] = (
                self.sim.now + self.liveness.lease_duration)
            self.stats.heartbeats += 1
            if fresh:
                self._log("lease-grant", msg.client_name,
                          f"inc={msg.incarnation} "
                          f"lease={self.liveness.lease_duration:g}s")
        req.respond("ok")

    def _liveness_monitor(self):
        """Periodic sweep: evict clients whose lease lapsed or that sat
        on a revocation callback past ``revoke_timeout``.  Victims are
        collected into one per-sweep set so a client tripping both
        conditions is evicted exactly once."""
        lv = self.liveness
        while True:
            yield lv.check_interval
            if self.dead:
                return  # killed sequencer: the standby's monitor takes over
            if self.node.failed:
                continue  # a crashed server evicts nobody
            now = self.sim.now
            victims: Dict[str, str] = {}
            for client, deadline in sorted(self._leases.items()):
                if now > deadline:
                    victims.setdefault(
                        client,
                        f"lease expired {now - deadline:.2e}s ago")
            for lock_id, (sent_at, rid, client) in sorted(
                    self._revoke_sent_at.items()):
                if now - sent_at > lv.revoke_timeout:
                    victims.setdefault(
                        client,
                        f"revocation of lock {lock_id} ({rid}) unacked "
                        f"for {now - sent_at:.2e}s")
            for client, reason in victims.items():
                self._evict(client, reason)

    def _evict(self, client: str, reason: str) -> None:
        """Expel ``client``: reclaim its grants, fence its incarnation,
        flush its queued requests, and re-run the affected wait queues so
        surviving waiters are promoted."""
        evicted_inc = self._incarnations.get(client, 0)
        reclaimed: List[ServerLock] = []
        touched: List[_Resource] = []
        for res in self._resources.values():
            doomed = [g for g in res.granted.values()
                      if g.client_name == client]
            if doomed:
                touched.append(res)
            for g in doomed:
                del res.granted[g.lock_id]
                self._revoke_sent_at.pop(g.lock_id, None)
                evicted_inc = max(evicted_inc, g.incarnation)
                reclaimed.append(g)
        fence = max(self._fence.get(client, 0), evicted_inc + 1)
        self._fence[client] = fence
        self._leases.pop(client, None)
        for lock_id in [lid for lid, entry in self._revoke_sent_at.items()
                        if entry[2] == client]:
            del self._revoke_sent_at[lock_id]
        for res in self._resources.values():
            stale = [p for p in res.queue if p.msg.client_name == client]
            if stale and res not in touched:
                touched.append(res)
            for p in stale:
                res.queue.remove(p)
                p.req.respond(FencedMsg(client, p.msg.incarnation, fence),
                              nbytes=CTRL_MSG_BYTES)
        self.stats.evictions += 1
        self.stats.locks_reclaimed += len(reclaimed)
        self._log("evict", client,
                  f"{reason}; reclaimed {len(reclaimed)} lock(s); "
                  f"fence>={fence}")
        if self.on_evict is not None:
            self.on_evict(client, reason, list(reclaimed))
        for res in touched:
            self._process(res)
            self._maybe_gc(res)

    def _log(self, kind: str, client: str, detail: str = "") -> None:
        self.liveness_log.append(
            LivenessEvent(self.sim.now, kind, client, detail))
