"""Kill tests for the online validator: "the oracle still catches what it
is there to catch" as a test, not a belief.

Each test plants one protocol bug with :func:`unittest.mock.patch.object`
(no source edit, no second code path), drives a small real run — lock
server, lock clients, fabric — and requires the validator to stop it
with the tag of the invariant the bug breaks.  The unit tests in
``tests/dlm/test_validator.py`` hand-build an illegal table; these reach
one through the server's own transitions.
"""

from unittest.mock import patch

import pytest

from repro.dlm import LockMode, LockState
from repro.dlm.config import ExpansionPolicy
from repro.dlm.server import LockTable
from repro.dlm.validator import LockInvariantViolation, LockValidator
from repro.net.rpc import rpc_call
from tests.dlm.test_liveness import LV, LiveRig
from tests.dlm.test_protocol import Rig, run
from tests.property.test_validator_oracle import early_grant_over_granted

NBW = LockMode.NBW


def _two_writers(rig, first=((0, 100),), second=((0, 100),)):
    """client0 takes ``first`` and keeps it cached; client1 then asks
    for ``second``."""
    def holder():
        lock = yield from rig.clients[0].lock("r", first, NBW, True)
        rig.clients[0].unlock(lock)

    def contender():
        yield rig.sim.timeout(1e-2)
        lock = yield from rig.clients[1].lock("r", second, NBW, True)
        rig.clients[1].unlock(lock)

    return holder(), contender()


def test_clean_run_passes():
    """The control: the same run without a mutant raises nothing."""
    rig = Rig(dlm="seqdlm", clients=2)
    validator = LockValidator(rig.server)
    run(rig, *_two_writers(rig))
    assert validator.checks >= 4
    assert validator.validate_all() == 1


def test_early_grant_over_a_granted_nbw_is_killed_by_i1_or_i3():
    """Table II's N/Y cell read as Y/Y: the second writer is granted
    while the first still holds its NBW lock in the GRANTED state, not
    CANCELING — two heads of the sequencer chain."""
    rig = Rig(dlm="seqdlm", clients=2)
    LockValidator(rig.server)       # keeps the real LCM
    mutant = rig.config.with_overrides(lcm=early_grant_over_granted)
    with patch.object(rig.server, "config", mutant):
        with pytest.raises(LockInvariantViolation, match=r"\[I1\]|\[I3\]"):
            run(rig, *_two_writers(rig))
    assert rig.server.stats.revocations_sent == 0   # the bug: no revoke


def test_grant_without_bumping_the_sn_is_killed_by_i2():
    rig = Rig(dlm="seqdlm", clients=2)
    LockValidator(rig.server)
    real_grant = rig.server._grant

    def grant_keeping_sn(res, pend, absorb=None):
        sn = res.next_sn
        real_grant(res, pend, absorb=absorb)
        res.next_sn = sn

    with patch.object(rig.server, "_grant", grant_keeping_sn):
        with pytest.raises(LockInvariantViolation, match=r"\[I2\]"):
            run(rig, *_two_writers(rig))


def test_grantable_queue_head_left_parked_is_killed_by_i4():
    """A conflict test that forgets the byte ranges: the second writer's
    disjoint request is parked behind a lock it does not touch."""
    rig = Rig(dlm="seqdlm", clients=2, expansion=ExpansionPolicy.NONE)
    LockValidator(rig.server)
    server = rig.server

    def conflicts_ignoring_ranges(res, msg):
        lcm = server.config.lcm
        return [g for g in res.granted.values()
                if not lcm(msg.mode, g.mode, g.state)]

    with patch.object(server, "_conflicts", conflicts_ignoring_ranges):
        with pytest.raises(LockInvariantViolation, match=r"\[I4\]"):
            run(rig, *_two_writers(rig, second=((500, 600),)))
    assert server.queue_depth("r") == 1


def _evict_client0(rig):
    """client0 takes a lock, earns a lease, goes dark and is evicted;
    then it comes back, still on its first incarnation."""
    c = rig.clients[0]

    def work():
        lock = yield from c.lock("r", ((0, 10),), NBW, True)
        c.unlock(lock)
        yield rig.sim.timeout(LV.heartbeat_interval + 1e-3)
        rig.fail(0)

    rig.run(work(), until=LV.lease_duration + 5 * LV.check_interval + 1e-2)
    assert rig.server.stats.evictions == 1
    assert rig.server._fence["client0"] == 2
    rig.heal(0)
    return c


def test_grant_to_a_fenced_incarnation_is_killed_by_i5():
    """The server stops checking the fence: the evicted incarnation's
    next request is granted as if nothing had happened."""
    rig = LiveRig(clients=1)
    validator = LockValidator(rig.server)
    with patch.object(rig.server, "is_fenced", lambda client, inc: False):
        c = _evict_client0(rig)
        assert validator.evictions_observed == 1

        def zombie():
            yield from c.lock("q", ((0, 10),), NBW, True)

        rig.sim.spawn(zombie())
        with pytest.raises(LockInvariantViolation, match=r"\[I5\]"):
            rig.sim.run(until=rig.sim.now + 1e-2)


def test_evicted_lock_resurfacing_is_killed_by_i6():
    """A client that rejoins under the fresh incarnation but keeps its
    lock cache re-asserts the reclaimed grant; the fence lets the new
    incarnation through, so only the eviction history can object."""
    rig = LiveRig(clients=2)
    LockValidator(rig.server)
    c = rig.clients[0]

    def rejoin_keeping_cache(msg):
        c.incarnation = msg.min_incarnation

    with patch.object(c, "note_fenced", rejoin_keeping_cache):
        _evict_client0(rig)
        rig.sim.run(until=rig.sim.now + 4 * LV.heartbeat_interval)
        assert c.incarnation == 2 and c.cached_locks()

        def reassert():
            for rec in c.gather_lock_states():
                yield rpc_call(c.node, rig.server_node, "dlm", rec)

        rig.run(reassert())
        assert rig.grants_of("client0")     # back in the table, unnoticed

        def bystander():
            yield from rig.clients[1].lock("r", ((100, 110),), NBW, True)

        rig.sim.spawn(bystander())
        with pytest.raises(LockInvariantViolation, match=r"\[I6\]"):
            rig.sim.run(until=rig.sim.now + 1e-2)


def test_dropped_index_row_is_killed_by_i10():
    """``LockTable.__setitem__`` loses the by-end row of every lock it
    files: the mapping is whole, the index the server queries is not."""
    rig = Rig(dlm="seqdlm", clients=2)
    LockValidator(rig.server)
    real_setitem = LockTable.__setitem__

    def setitem_dropping_a_row(table, lock_id, lock):
        real_setitem(table, lock_id, lock)
        del table._groups[table._entries[lock_id][-1]][1][-1]

    with patch.object(LockTable, "__setitem__", setitem_dropping_a_row):
        with pytest.raises(LockInvariantViolation, match=r"\[I10\]"):
            run(rig, *_two_writers(rig))


def test_revoke_ack_without_refiling_is_killed_by_i10():
    """``_on_revoke_ack`` flips the lock to CANCELING in place but does
    not re-install it, so the table keeps it filed with the GRANTED
    writes: the index the server queries no longer matches the lock."""
    rig = Rig(dlm="seqdlm", clients=2)
    LockValidator(rig.server)
    server = rig.server

    def ack_without_refiling(msg):
        res = server._res(msg.resource_id)
        lock = res.granted.get(msg.lock_id)
        if lock is not None:
            lock.state = LockState.CANCELING
            server._process(res)

    with patch.object(server, "_on_revoke_ack", ack_without_refiling):
        with pytest.raises(LockInvariantViolation, match=r"\[I10\]"):
            run(rig, *_two_writers(rig))
    assert server.stats.revocations_sent == 1
