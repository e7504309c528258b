"""Online invariant checking for the lock protocol.

A :class:`LockValidator` hooks a :class:`~repro.dlm.server.LockServer`
and re-checks the protocol's safety invariants after every state change:

I1. **Pairwise compatibility** — any two granted, unreleased locks on a
    resource that overlap must be compatible under the DLM's LCM given
    their current states.  (Early grant makes this state-dependent: two
    overlapping NBW locks are legal only if all but the newest are
    CANCELING.)
I2. **SN uniqueness & monotonicity per epoch** — write-mode grants of a
    resource carry strictly increasing, unique SNs; no grant ever
    carries an SN at or above the resource's next SN.  The history is
    scoped to the server's crash epoch: recovery restarts the sequencer
    above every SN that provably reached a client or the extent log
    (§IV-C2), but an SN whose grant message was lost in flight may be
    legitimately reissued — no data ever carried it.
I3. **Single writer in GRANTED state** — at most one overlapping
    write-mode lock per resource may be in the GRANTED state (the
    current head of the sequencer chain).
I4. **Queue sanity** — a queued request must actually conflict with at
    least one granted lock or be at a position behind such a request
    (otherwise the server forgot to grant it).
I5. **Fencing** — no granted lock belongs to a fenced client
    incarnation: eviction must reclaim every grant below the fence
    floor, and nothing below it may ever be (re-)granted, so no fenced
    RPC can mutate lock state.
I6. **Eviction permanence per epoch** — a ``(resource, lock_id)`` pair
    reclaimed by an eviction never reappears in the granted set within
    the same crash epoch; together with I1/I3 re-checked after the
    post-eviction queue promotion, this is the "no two live grants
    overlap across an eviction" guarantee.
I7. **SN uniqueness across failover epochs** — cluster-wide, a
    ``(resource, SN)`` pair is issued by at most one sequencer identity:
    once any server grants SN *s* for a resource, no *other* server (a
    promoted standby, a split-brain stale incumbent) may ever grant the
    same pair.  The same server *name* reissuing the pair in a **later
    crash epoch** is the one legal exception — §IV-C2 recovery may
    reissue an SN whose original grant message was lost in flight, since
    no data ever carried it.  Checked by the cluster-shared
    :class:`SnLedger`; this is the safety net under the promotion
    floor's ``max(replication watermark + 1, extent-log floor)`` rule.
I8. **Shard ownership of record** — on a sharded cluster
    (:mod:`repro.dlm.sharding`), every grant (read or write) must be
    issued by the lock server that the authoritative shard map names as
    the owner of the resource's shard *at the epoch of the grant*.  A
    stale client map, a migration drain window, or a lost announce may
    delay a request, but a server that is not the owner of record can
    never produce a grant — the shard guard bounces the request before
    it touches the lock table.  Checked by the cluster-shared
    :class:`ShardLedger`.
I9. **Decentralized mutual exclusion over the message trace** — the
    sequencer-free variants (:mod:`repro.dlm.mutex`) have no server
    state to inspect, so their invariant is phrased over the
    coordinators' enter/exit trace instead: at any instant at most one
    node is inside a resource's critical section, a node may only exit
    a section it entered, and successive tenures carry strictly
    increasing sequence numbers (the property the extent caches rely
    on, exactly what the sequencer provides in SeqDLM).  Checked by the
    cluster-shared :class:`MutexLedger`, fed synchronously by each
    coordinator before its release messages leave the node.
I10. **Table/index coherence** — the interval index of a resource's
    :class:`~repro.dlm.server.LockTable` holds exactly the locks in the
    mapping, each under the hull of its current extents and in the
    group of its current ``(mode, state)``, in the mapping's insertion
    order (one O(n) pass,
    :meth:`~repro.dlm.server.LockTable.index_fault`).  A conflict scan
    reads only the groups that can block the request, so a mode or
    state changed in place without re-filing the lock would hide a
    conflict (or invent one).  The server answers its conflict,
    expansion and mSN questions from that index; I1/I3/I4 above
    deliberately do *not* — they read ``granted`` as a
    plain mapping (``values()`` / ``items()``) and rebuild what they
    need from scratch on every transition, so that they stay an
    independent oracle, and I10 is what ties the two views together: an
    index that lost or kept a stale lock is caught here even when the
    locks that remain visible to the server still look compatible.

**Cost of one transition.**  The LCM depends only on ``(request mode,
granted mode, granted state)``, so the granted locks are bucketed into
at most eight ``(mode, state)`` classes and the LCM is asked once per
pair of *classes*.  A pair of classes that is compatible in either
direction needs no further look (a chain of CANCELING NBW locks under
one GRANTED head is legal however its ranges overlap); the others — and,
for I3, every pair of GRANTED write classes whatever the LCM says — are
searched for two locks sharing a byte by a sweep over the locks sorted
by the start of their hull, confirmed exactly with
``ServerLock.overlaps_extents`` (:func:`_overlapping_pair`).  That is
O(n log n) plus one exact test per pair whose hulls overlap, where the
pair scan it replaced made n²/2 exact tests: 29.8M → 0.07M
``overlaps_extents`` calls on the bench's ``failover_validated``
(≤ 167 locks, 2317 transitions).  The check is stateless and complete
on every transition — no delta tracking, no sampling; the pair scan
survives as the reference of ``tests/property/test_validator_oracle.py``.

The validator is pure observation — it never mutates server state — and
is cheap enough to leave on in every integration test.  Violations raise
:class:`LockInvariantViolation` immediately, pinpointing the first bad
transition instead of a downstream data corruption.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.dlm.extent import span
from repro.dlm.lcm import CompatibilityFn
from repro.dlm.server import LockServer, ServerLock, _Resource
from repro.dlm.types import LockMode, LockState, is_write_mode

__all__ = ["LockInvariantViolation", "LockValidator", "MutexLedger",
           "MutexValidator", "ShardLedger", "SnLedger", "attach_validator"]


class LockInvariantViolation(AssertionError):
    """A lock-protocol safety invariant was broken."""


class SnLedger:
    """Cluster-wide ``(resource, SN) -> issuer`` ledger backing I7.

    Shared by every validator in a cluster (including ones attached to
    servers promoted mid-run), so a duplicate grant is caught no matter
    which sequencer identity issues it.
    """

    def __init__(self):
        #: ``(resource_id, sn) -> (server_name, crash_epoch)``.
        self._issued: Dict[Tuple[Hashable, int], Tuple[str, int]] = {}

    def note_grant(self, resource_id: Hashable, sn: int,
                   server_name: str, epoch: int) -> None:
        key = (resource_id, sn)
        prev = self._issued.get(key)
        if prev is None:
            self._issued[key] = (server_name, epoch)
            return
        prev_name, prev_epoch = prev
        if prev_name == server_name and prev_epoch != epoch:
            # Legal §IV-C2 reissue: the same sequencer identity, after a
            # crash, reissuing an SN whose grant never reached anyone.
            self._issued[key] = (server_name, epoch)
            return
        raise LockInvariantViolation(
            f"[I7] SN {sn} on {resource_id!r} granted twice: first by "
            f"{prev_name!r} (epoch {prev_epoch}), again by "
            f"{server_name!r} (epoch {epoch})")


class ShardLedger:
    """Cluster-wide shard-ownership check backing I8.

    ``owner_fn`` maps a resource id to the name of the node the
    *authoritative* shard map currently names as owner; ``epoch_fn``
    returns the map epoch (for the violation message).  Because the
    check runs synchronously inside ``_process``, "currently" is exactly
    the epoch at which the grant was issued — a migration commits its
    epoch bump and ownership flip in the same instant, so the guard and
    this ledger can never disagree transiently.
    """

    def __init__(self, owner_fn, epoch_fn):
        self.owner_fn = owner_fn
        self.epoch_fn = epoch_fn
        self.checked = 0

    def note_grant(self, resource_id: Hashable, server_name: str) -> None:
        self.checked += 1
        owner = self.owner_fn(resource_id)
        if owner != server_name:
            raise LockInvariantViolation(
                f"[I8] grant on {resource_id!r} issued by {server_name!r} "
                f"but owner of record (epoch {self.epoch_fn()}) is "
                f"{owner!r}")


def _overlapping_pair(side_a: Sequence[ServerLock],
                      side_b: Optional[Sequence[ServerLock]] = None
                      ) -> Optional[Tuple[ServerLock, ServerLock]]:
    """A pair of locks whose extents share a byte, one from ``side_a``
    and one from ``side_b`` — both from ``side_a`` when ``side_b`` is
    None — or None when there is no such pair.

    A sweep over the locks sorted by the start of their hull (the
    smallest range holding all their extents).  Each side keeps a heap,
    by hull end, of the locks met so far whose hull reaches past the
    current start: exactly the locks whose hull overlaps the current
    one.  A hull hit only makes a pair suspicious (a datatype lock's
    hull is far wider than its bytes); ``overlaps_extents`` decides.
    O(n log n) plus one exact test per suspicious pair.
    """
    rows = []
    for side, locks in enumerate((side_a, side_b or ())):
        for lock in locks:
            extents = lock.extents
            hull = extents[0] if len(extents) == 1 else span(extents)
            # An empty hull shares a byte with nothing.
            if hull is not None and hull[0] < hull[1]:
                rows.append((hull[0], len(rows), hull[1], side, lock))
    rows.sort()
    open_hulls: Tuple[list, list] = ([], [])
    for lo, seq, hi, side, lock in rows:
        facing = open_hulls[side if side_b is None else 1 - side]
        while facing and facing[0][0] <= lo:
            heappop(facing)
        for _hi, _seq, earlier in facing:
            if earlier.overlaps_extents(lock.extents):
                return earlier, lock
        heappush(open_hulls[side], (hi, seq, lock))
    return None


class LockValidator:
    """Wraps a lock server's ``_process`` to validate after every step."""

    def __init__(self, server: LockServer,
                 ledger: Optional[SnLedger] = None,
                 shard_ledger: Optional[ShardLedger] = None):
        self.server = server
        self.ledger = ledger
        self.shard_ledger = shard_ledger
        self.lcm: CompatibilityFn = server.config.lcm
        self.checks = 0
        #: Evictions witnessed first-hand; the metrics cross-check test
        #: compares this against ``stats.evictions`` and the registry.
        self.evictions_observed = 0
        self.max_write_sn_seen: Dict[Hashable, int] = {}
        self._seen_sns: Dict[Hashable, Set[int]] = {}
        self._seen_lock_ids: Dict[Hashable, Set[int]] = {}
        self._evicted_grants: Set[Tuple[Hashable, int]] = set()
        self._epoch_seen = server._epoch
        self._orig_process = server._process
        server._process = self._checked_process
        self._orig_evict = server._evict
        server._evict = self._checked_evict

    # ------------------------------------------------------------ plumbing
    def detach(self) -> None:
        self.server._process = self._orig_process
        self.server._evict = self._orig_evict

    def _maybe_roll_epoch(self) -> None:
        if self.server._epoch != self._epoch_seen:
            # Server crashed since the last check: the I2/I6 histories
            # are per-epoch (see module docstring).
            self._epoch_seen = self.server._epoch
            self.max_write_sn_seen.clear()
            self._seen_sns.clear()
            self._seen_lock_ids.clear()
            self._evicted_grants.clear()

    def _checked_evict(self, client: str, reason: str) -> None:
        self._maybe_roll_epoch()
        doomed = [(res.resource_id, lock_id)
                  for res in self.server._resources.values()
                  for lock_id, g in res.granted.items()
                  if g.client_name == client]
        self._orig_evict(client, reason)
        self.checks += 1
        self.evictions_observed += 1
        # Every reclaimed grant must actually be gone...
        for rid, lock_id in doomed:
            if lock_id in self.server._resources[rid].granted:
                raise LockInvariantViolation(
                    f"[I6] eviction of {client!r} left lock {lock_id} "
                    f"granted on {rid!r}")
        # ...and must stay gone for the rest of the epoch (I6 is then
        # enforced by validate_resource on every later transition).
        self._evicted_grants.update(doomed)
        # The fence floor must now reject the evicted incarnation, else
        # its in-flight RPCs could resurrect state (I5 would miss a
        # client whose grants are all reclaimed).
        if self.server._fence.get(client, 0) < 1:
            raise LockInvariantViolation(
                f"[I5] eviction of {client!r} raised no fence floor")

    def _checked_process(self, res: _Resource) -> None:
        self._maybe_roll_epoch()
        before_ids = set(res.granted.keys())
        self._orig_process(res)
        self.checks += 1
        self._track_new_grants(res, before_ids)
        self.validate_resource(res)

    def _track_new_grants(self, res: _Resource, before_ids: Set[int]) -> None:
        rid = res.resource_id
        seen = self._seen_sns.setdefault(rid, set())
        for lock_id, lock in res.granted.items():
            if lock_id in before_ids:
                continue
            # I8 applies to every new grant, read or write: a non-owner
            # must never issue anything.
            if self.shard_ledger is not None:
                self.shard_ledger.note_grant(rid, self.server.node.name)
            if not is_write_mode(lock.mode):
                continue
            # I2: unique, monotonically increasing write SNs.
            if lock.sn in seen:
                raise LockInvariantViolation(
                    f"[I2] duplicate write SN {lock.sn} on {rid!r}")
            prev = self.max_write_sn_seen.get(rid, 0)
            if lock.sn <= prev and lock_id not in \
                    self._seen_lock_ids.get(rid, set()):
                raise LockInvariantViolation(
                    f"[I2] non-monotonic write SN {lock.sn} <= {prev} "
                    f"on {rid!r}")
            seen.add(lock.sn)
            self.max_write_sn_seen[rid] = max(prev, lock.sn)
            self._seen_lock_ids.setdefault(rid, set()).add(lock_id)
            if self.ledger is not None:
                self.ledger.note_grant(rid, lock.sn,
                                       self.server.node.name,
                                       self.server._epoch)

    # ----------------------------------------------------------- validation
    def validate_resource(self, res: _Resource) -> None:
        locks = list(res.granted.values())
        rid = res.resource_id

        # I10: the index the server queries holds exactly these locks.
        fault = res.granted.index_fault()
        if fault is not None:
            raise LockInvariantViolation(
                f"[I10] lock table index of {rid!r} is incoherent: {fault}")

        # The LCM sees only (mode, mode, state), so I1, I3 and I4 ask it
        # once per (mode, state) class, not once per lock.  (Hashing an
        # Enum is a Python-level call: look the class up only where it
        # changes from one lock to the next.)
        classes: Dict[Tuple[LockMode, LockState], List[ServerLock]] = {}
        mode = state = None
        for l in locks:
            if l.mode is not mode or l.state is not state:
                mode, state = l.mode, l.state
                members = classes.setdefault((mode, state), [])
            members.append(l)

        keys = list(classes)
        two_heads = None
        for i, a_key in enumerate(keys):
            for b_key in keys[i:]:
                (a_mode, a_state), (b_mode, b_state) = a_key, b_key
                # I1: pairwise compatibility.  A pair is legal if EITHER
                # direction is compatible, since grant order determines
                # which one was the "request".
                legal = self.lcm(a_mode, b_mode, b_state) or \
                    self.lcm(b_mode, a_mode, a_state)
                # I3: at most one overlapping GRANTED write lock,
                # whatever the LCM says.
                heads = a_state is b_state is LockState.GRANTED and \
                    is_write_mode(a_mode) and is_write_mode(b_mode)
                if legal and not heads:
                    continue
                pair = _overlapping_pair(
                    classes[a_key],
                    None if a_key == b_key else classes[b_key])
                if pair is None:
                    continue
                a, b = pair
                if not legal:
                    raise LockInvariantViolation(
                        f"[I1] incompatible granted pair on {rid!r}: "
                        f"{a.lock_id}({a.mode.value},{a.state.value}) vs "
                        f"{b.lock_id}({b.mode.value},{b.state.value})")
                two_heads = two_heads or pair
        if two_heads is not None:
            raise LockInvariantViolation(
                f"[I3] two GRANTED write locks overlap on {rid!r}:"
                f" {two_heads[0].lock_id} and {two_heads[1].lock_id}")

        # I2 (static part): no granted SN at/above next_sn.
        next_sn = res.next_sn
        for (mode, _state), members in classes.items():
            if not is_write_mode(mode):
                continue
            for l in members:
                if l.sn >= next_sn:
                    raise LockInvariantViolation(
                        f"[I2] granted write SN {l.sn} >= next_sn "
                        f"{next_sn} on {rid!r}")

        # I5: no granted lock from a fenced incarnation (there is no
        # floor at all until the first eviction).
        fence = self.server._fence
        if fence:
            for l in locks:
                floor = fence.get(l.client_name, 0)
                if l.incarnation < floor:
                    raise LockInvariantViolation(
                        f"[I5] granted lock {l.lock_id} on {rid!r} belongs "
                        f"to fenced {l.client_name!r} incarnation "
                        f"{l.incarnation} < {floor}")

        # I6: a reclaimed grant never resurfaces within the epoch.
        evicted = self._evicted_grants
        if evicted:
            for lock_id in res.granted:
                if (rid, lock_id) in evicted:
                    raise LockInvariantViolation(
                        f"[I6] evicted lock {lock_id} reappeared on {rid!r}")

        # I4: the queue head must be genuinely blocked.  Suspended
        # during a post-failover re-assertion hold-off: the new
        # incumbent deliberately parks grantable requests until every
        # surviving client has re-asserted (the hold-off expiry
        # re-processes every queue).
        holding = getattr(self.server, "recovery_hold_until", 0.0) > \
            self.server.sim.now
        if res.queue and not holding:
            head = res.queue[0].msg
            blocked = any(
                g.overlaps_extents(head.extents)
                for (mode, state), members in classes.items()
                if not self.lcm(head.mode, mode, state)
                for g in members)
            if not blocked:
                raise LockInvariantViolation(
                    f"[I4] queue head on {rid!r} is grantable but parked: "
                    f"{head.mode.value} {head.extents} from "
                    f"{head.client_name}")

    def validate_all(self) -> int:
        """Validate every resource now; returns how many were checked."""
        n = 0
        for res in self.server._resources.values():
            self.validate_resource(res)
            n += 1
        return n


class MutexLedger:
    """Cluster-wide enter/exit trace ledger backing I9.

    The decentralized coordinators call :meth:`note_enter` the instant
    they create their tenure's lock and :meth:`note_exit` *before* any
    release message leaves the node; since a peer can only enter after
    receiving such a message, a double-holder is caught synchronously at
    the second ``note_enter`` — even when both events carry the same
    simulated timestamp.
    """

    def __init__(self):
        #: rid -> (holder node name, sn) while someone is inside.
        self._holder: Dict[Hashable, Tuple[str, int]] = {}
        self._last_sn: Dict[Hashable, int] = {}
        self.entries = 0
        self.exits = 0

    def note_enter(self, rid: Hashable, holder: str, sn: int) -> None:
        cur = self._holder.get(rid)
        if cur is not None:
            raise LockInvariantViolation(
                f"[I9] {holder!r} entered the critical section of {rid!r} "
                f"while {cur[0]!r} holds it (sn {cur[1]})")
        last = self._last_sn.get(rid, 0)
        if sn <= last:
            raise LockInvariantViolation(
                f"[I9] non-monotonic mutex SN on {rid!r}: {holder!r} "
                f"entered with sn {sn} <= last issued {last}")
        self._holder[rid] = (holder, sn)
        self._last_sn[rid] = sn
        self.entries += 1

    def note_exit(self, rid: Hashable, holder: str) -> None:
        cur = self._holder.get(rid)
        if cur is None or cur[0] != holder:
            raise LockInvariantViolation(
                f"[I9] {holder!r} exited the critical section of {rid!r} "
                f"which it does not hold (holder of record: "
                f"{cur[0] if cur else None!r})")
        del self._holder[rid]
        self.exits += 1

    def holder_of(self, rid: Hashable) -> Optional[str]:
        cur = self._holder.get(rid)
        return cur[0] if cur is not None else None


class MutexValidator:
    """Per-coordinator view over a shared :class:`MutexLedger` (I9).

    Installs itself as the coordinator's ``ledger`` hook, counts checks,
    and offers the same :meth:`validate_all` final sweep the server
    validators have: every lock still cached at a coordinator must be
    the ledger's holder of record for its resource.
    """

    def __init__(self, coordinator, ledger: MutexLedger):
        self.coordinator = coordinator
        self.ledger = ledger
        self.checks = 0
        coordinator.ledger = self

    def note_enter(self, rid: Hashable, holder: str, sn: int) -> None:
        self.checks += 1
        self.ledger.note_enter(rid, holder, sn)

    def note_exit(self, rid: Hashable, holder: str) -> None:
        self.checks += 1
        self.ledger.note_exit(rid, holder)

    def validate_all(self) -> int:
        """Final sweep; returns the number of live tenures verified."""
        verified = 0
        name = self.coordinator.node.name
        for lock in self.coordinator.cached_locks():
            self.checks += 1
            holder = self.ledger.holder_of(lock.resource_id)
            if holder != name:
                raise LockInvariantViolation(
                    f"[I9] {name!r} caches a lock on {lock.resource_id!r} "
                    f"but the ledger's holder of record is {holder!r}")
            verified += 1
        return verified


def attach_validator(cluster) -> List[LockValidator]:
    """Attach a validator to every lock server of a cluster.

    All validators share one :class:`SnLedger` (stored as
    ``cluster.sn_ledger``) so I7 spans sequencer identities; servers
    promoted later join the same ledger
    (:meth:`~repro.pfs.filesystem.Cluster.promote_standby`).

    On a sharded cluster (``cluster.shard_map`` set) they additionally
    share one :class:`ShardLedger` (stored as ``cluster.shard_ledger``)
    checking I8 against the authoritative map.

    On a decentralized cluster (``cluster.mutex_coordinators`` set)
    there are no lock servers: every coordinator instead gets a
    :class:`MutexValidator` over one shared :class:`MutexLedger`
    (stored as ``cluster.mutex_ledger``) checking I9.
    """
    coordinators = getattr(cluster, "mutex_coordinators", None)
    if coordinators:
        mutex_ledger = MutexLedger()
        cluster.mutex_ledger = mutex_ledger
        return [MutexValidator(c, mutex_ledger) for c in coordinators]
    ledger = SnLedger()
    cluster.sn_ledger = ledger
    shard_ledger = None
    if getattr(cluster, "shard_map", None) is not None:
        shard_ledger = ShardLedger(
            owner_fn=lambda rid: cluster.dlm_node_for(rid).name,
            epoch_fn=lambda: cluster.shard_map.epoch)
        cluster.shard_ledger = shard_ledger
    return [LockValidator(ls, ledger=ledger, shard_ledger=shard_ledger)
            for ls in cluster.lock_servers]
