"""Tests for the online lock-protocol invariant validator."""

from unittest.mock import patch

import pytest

from repro.dlm import LockMode, LockState
from repro.dlm.extent import EOF
from repro.dlm.messages import LockRequestMsg
from repro.dlm.server import ServerLock, _Pending
from repro.dlm.validator import (
    LockInvariantViolation,
    LockValidator,
    SnLedger,
    attach_validator,
)
from tests.dlm.test_protocol import Rig, run

PR, NBW, BW, PW = LockMode.PR, LockMode.NBW, LockMode.BW, LockMode.PW
G, C = LockState.GRANTED, LockState.CANCELING


def test_validator_passes_clean_contention_run():
    rig = Rig(dlm="seqdlm", clients=4, latency=1e-4)
    validator = LockValidator(rig.server)

    def writer(c, delay):
        yield rig.sim.timeout(delay)
        for _ in range(10):
            lock = yield from c.lock("r", ((0, 100),), NBW, True)
            c.unlock(lock)

    run(rig, *[writer(c, i * 1e-5) for i, c in enumerate(rig.clients)])
    assert validator.checks > 0
    assert validator.validate_all() >= 1


def test_validator_passes_traditional_run():
    rig = Rig(dlm="dlm-basic", clients=3, latency=1e-4)
    validator = LockValidator(rig.server)

    def worker(c, delay):
        yield rig.sim.timeout(delay)
        for i in range(5):
            mode = PW if i % 2 == 0 else PR
            lock = yield from c.lock("r", ((0, 100),), mode, i % 2 == 0)
            c.unlock(lock)

    run(rig, *[worker(c, i * 1e-5) for i, c in enumerate(rig.clients)])
    assert validator.checks > 0


def _resource_of(rig, rid="r"):
    return rig.server._res(rid)


def test_i1_detects_incompatible_granted_pair():
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", PW, ((0, 100),), 1, G)
    res.granted[2] = ServerLock(2, "r", "b", PW, ((50, 150),), 2, G)
    with pytest.raises(LockInvariantViolation, match=r"\[I1\]"):
        validator.validate_resource(res)


def test_i1_allows_canceling_nbw_chain():
    """Early grant's legal state: a chain of CANCELING NBW locks plus one
    GRANTED head."""
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, C)
    res.granted[2] = ServerLock(2, "r", "b", NBW, ((0, 100),), 2, C)
    res.granted[3] = ServerLock(3, "r", "c", NBW, ((0, 100),), 3, G)
    validator.validate_resource(res)  # no raise


def test_i3_detects_two_granted_writers():
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, C)
    res.granted[2] = ServerLock(2, "r", "b", NBW, ((0, 100),), 2, G)
    res.granted[3] = ServerLock(3, "r", "c", NBW, ((0, 100),), 3, G)
    # I1 (pairwise LCM) catches this first; I3 is the backstop.
    with pytest.raises(LockInvariantViolation, match=r"\[I1\]|\[I3\]"):
        validator.validate_resource(res)


def test_i2_detects_sn_at_or_above_next_sn():
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 3
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 5, G)
    with pytest.raises(LockInvariantViolation, match=r"\[I2\]"):
        validator.validate_resource(res)


def test_non_overlapping_writers_are_legal():
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G)
    res.granted[2] = ServerLock(2, "r", "b", NBW, ((200, 300),), 2, G)
    validator.validate_resource(res)  # disjoint: fine


def test_i5_detects_granted_lock_below_fence_floor():
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G,
                                incarnation=1)
    rig.server._fence["a"] = 2  # incarnation 1 was evicted
    with pytest.raises(LockInvariantViolation, match=r"\[I5\]"):
        validator.validate_resource(res)


def test_i5_allows_incarnation_at_fence_floor():
    """The rejoined incarnation (== floor) may hold locks again."""
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G,
                                incarnation=2)
    rig.server._fence["a"] = 2
    validator.validate_resource(res)  # no raise


def test_checked_evict_reclaims_and_fences():
    """The ``_evict`` wrapper verifies reclamation and the fence floor,
    and records the doomed grants for the per-epoch I6 check."""
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G,
                                incarnation=1)
    rig.server._evict("a", "test eviction")
    assert 1 not in res.granted
    assert rig.server._fence["a"] == 2
    assert ("r", 1) in validator._evicted_grants
    assert validator.checks >= 1


def test_i6_detects_evicted_grant_resurfacing():
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G,
                                incarnation=1)
    rig.server._evict("a", "test eviction")
    # A buggy server resurrects the reclaimed grant (new incarnation, so
    # I5 alone would not catch it).
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G,
                                incarnation=2)
    with pytest.raises(LockInvariantViolation, match=r"\[I6\]"):
        validator.validate_resource(res)


def test_i2_history_is_scoped_to_crash_epoch():
    """A crash restarts the sequencer; an SN reissued in the new epoch
    is legal even though the same SN was granted before the crash."""
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 5, G)
    validator._note_grants(res, [(1, res.granted[1])])
    assert validator.max_write_sn_seen["r"] == 5
    # Same SN again pre-crash: duplicate.
    res.granted[2] = ServerLock(2, "r", "b", NBW, ((200, 300),), 5, G)
    with pytest.raises(LockInvariantViolation, match=r"\[I2\]"):
        validator._note_grants(res, [(2, res.granted[2])])

    rig.server.reset_state()  # crash: bumps the epoch, drops lock state
    validator._maybe_roll_epoch()
    assert validator.max_write_sn_seen == {}
    assert validator._seen_sns == {}
    # Post-recovery the same SN may be granted afresh.
    res2 = _resource_of(rig)
    res2.next_sn = 10
    res2.granted[7] = ServerLock(7, "r", "c", NBW, ((0, 100),), 5, G)
    validator._note_grants(res2, [(7, res2.granted[7])])  # no raise
    assert validator.max_write_sn_seen["r"] == 5


def test_epoch_roll_clears_eviction_history():
    """I6 is per-epoch: a (resource, lock_id) reclaimed before a server
    crash may legitimately reappear after recovery."""
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G)
    rig.server._evict("a", "test eviction")
    assert ("r", 1) in validator._evicted_grants

    rig.server.reset_state()
    res2 = _resource_of(rig)
    res2.next_sn = 10
    res2.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G)
    # The wrapped _process rolls the epoch before checking, so the
    # reissued lock id passes I6 in the new epoch.
    rig.server._process(res2)
    assert ("r", 1) not in validator._evicted_grants


# ------------------------------------------------ I4 and the hold-off
def _park(res, mode, extents):
    res.queue.append(_Pending(LockRequestMsg("r", mode, extents, "z"),
                              None, 0.0))


def test_i4_detects_grantable_head_left_parked():
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G)
    _park(res, NBW, ((50, 60),))
    validator.validate_resource(res)  # genuinely blocked
    res.queue.clear()
    _park(res, NBW, ((200, 300),))
    with pytest.raises(LockInvariantViolation, match=r"\[I4\]"):
        validator.validate_resource(res)


def test_holdoff_suspends_i4_and_nothing_else():
    """During the post-failover re-assertion hold-off the incumbent
    parks grantable requests on purpose.  Only I4 stands down for it:
    every other invariant is still checked on the same transition."""
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G)
    _park(res, NBW, ((200, 300),))
    rig.server.recovery_hold_until = rig.sim.now + 1.0
    validator.validate_resource(res)  # parked on purpose: no raise
    res.granted[2] = ServerLock(2, "r", "b", NBW, ((50, 150),), 2, G)
    with pytest.raises(LockInvariantViolation, match=r"\[I1\]"):
        validator.validate_resource(res)
    del res.granted[2]
    rig.server.recovery_hold_until = 0.0
    with pytest.raises(LockInvariantViolation, match=r"\[I4\]"):
        validator.validate_resource(res)


# ------------------------------------------------ cost of one transition
def _overlap_tests_for_chain(n):
    """``overlaps_extents`` calls of one ``validate_resource`` over the
    table early grant builds: ``n`` CANCELING NBW locks expanded to EOF
    under one GRANTED head, with a blocked request queued (I4 has to
    walk the chain: only its last lock and the head reach down to the
    request)."""
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = n + 10
    for i in range(1, n + 1):
        res.granted[i] = ServerLock(
            i, "r", "a", NBW, (((n + 1 - i) * 64, EOF),), i, C)
    res.granted[n + 1] = ServerLock(n + 1, "r", "b", NBW, ((0, EOF),),
                                    n + 1, G)
    _park(res, PW, ((64, 128),))
    calls = [0]
    real = ServerLock.overlaps_extents

    def counting(lock, extents):
        calls[0] += 1
        return real(lock, extents)

    with patch.object(ServerLock, "overlaps_extents", counting):
        validator.validate_resource(res)  # legal: no raise
    return calls[0]


def test_exact_overlap_tests_grow_linearly_with_the_table():
    """Eight times the locks may cost about eight times the exact
    overlap tests — the pair scan made 64 times as many.  A count, not a
    timing: it repeats exactly."""
    small, large = _overlap_tests_for_chain(200), _overlap_tests_for_chain(1600)
    assert small >= 200
    assert large <= 10 * small


# ------------------------------------------- I10: table/index coherence
def test_i10_detects_lock_missing_from_index():
    """The server answers conflict questions from the table's interval
    index; a lock the mapping holds but the index lost is invisible to
    it.  I1/I3 (brute force over the mapping) see nothing wrong with a
    single lock — only the coherence check does."""
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G)
    validator.validate_resource(res)  # coherent: no raise
    # Corrupt the index behind the mapping's back.
    by_end = res.granted._groups[res.granted._entries[1][-1]][1]
    del by_end[0]
    with pytest.raises(LockInvariantViolation, match=r"\[I10\]"):
        validator.validate_resource(res)


def test_i10_detects_stale_lock_left_in_index():
    """The converse: a lock removed from the mapping (bypassing the
    table's own ``del``) that the index still serves to the server."""
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    res.granted[1] = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G)
    res.granted[2] = ServerLock(2, "r", "b", NBW, ((200, 300),), 2, G)
    dict.__delitem__(res.granted, 2)
    assert [g.lock_id for g in res.granted.overlapping(((250, 260),))] == [2]
    with pytest.raises(LockInvariantViolation, match=r"\[I10\]"):
        validator.validate_resource(res)


def test_i10_detects_extents_changed_under_the_index():
    """A lock whose extents were edited in place is indexed under its
    old range."""
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    lock = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, G)
    res.granted[1] = lock
    lock.extents = ((500, 600),)
    with pytest.raises(LockInvariantViolation, match=r"\[I10\]"):
        validator.validate_resource(res)
    res.granted[1] = lock  # re-installing re-indexes
    validator.validate_resource(res)


def test_i10_detects_state_flipped_behind_the_table():
    """The table files each lock in the group of its (mode, state), and
    a conflict scan reads only the groups that can block the request.
    A CANCELING NBW lock flipped back to GRANTED in place, without being
    re-installed, stays filed with the chain an NBW request is let past:
    the server no longer sees the conflict, and only I10 can object."""
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    res = _resource_of(rig)
    res.next_sn = 10
    lock = ServerLock(1, "r", "a", NBW, ((0, 100),), 1, C)
    res.granted[1] = lock
    validator.validate_resource(res)  # coherent: no raise
    request = LockRequestMsg("r", NBW, ((50, 60),), "b")
    assert rig.server._conflicts(res, request) == []
    lock.state = G
    assert rig.server._conflicts(res, request) == []   # the conflict hides
    with pytest.raises(LockInvariantViolation, match=r"\[I10\]"):
        validator.validate_resource(res)
    res.granted[1] = lock  # re-installing re-files it
    validator.validate_resource(res)
    assert rig.server._conflicts(res, request) == [lock]


def test_detach_restores_original_process():
    rig = Rig(dlm="seqdlm", clients=1)
    orig_process = rig.server._process
    orig_evict = rig.server._evict
    validator = LockValidator(rig.server)
    assert rig.server._process != orig_process
    assert rig.server._evict != orig_evict
    validator.detach()
    assert rig.server._process == orig_process  # bound-method equality
    assert rig.server._evict == orig_evict


# ------------------------------------------------- I7: cross-failover SNs
def test_i7_detects_cross_server_sn_reissue():
    """The headline failover hazard: a promoted standby whose SN floor
    is too low reissues an SN the deposed incumbent already granted."""
    ledger = SnLedger()
    ledger.note_grant("r", 5, "ds0", 0)
    with pytest.raises(LockInvariantViolation, match=r"\[I7\]"):
        ledger.note_grant("r", 5, "sb0", 0)


def test_i7_detects_same_epoch_duplicate():
    ledger = SnLedger()
    ledger.note_grant("r", 5, "ds0", 0)
    with pytest.raises(LockInvariantViolation, match=r"\[I7\]"):
        ledger.note_grant("r", 5, "ds0", 0)


def test_i7_allows_same_server_reissue_across_crash_epochs():
    """§IV-C2: the same sequencer identity, restarted after a crash,
    may reissue an SN whose original grant message was lost in flight —
    no data ever carried it.  A *different* identity never may."""
    ledger = SnLedger()
    ledger.note_grant("r", 5, "ds0", 0)
    ledger.note_grant("r", 5, "ds0", 1)  # legal reissue, no raise
    with pytest.raises(LockInvariantViolation, match=r"\[I7\]"):
        ledger.note_grant("r", 5, "sb0", 2)


def test_i7_distinct_sns_and_resources_never_collide():
    ledger = SnLedger()
    ledger.note_grant("r", 5, "ds0", 0)
    ledger.note_grant("r", 6, "ds0", 0)
    ledger.note_grant("q", 5, "ds1", 0)  # same SN, different resource


def test_i7_violating_trace_through_validator():
    """Feed a real protocol trace through two validators sharing one
    ledger: the second sequencer granting the same (resource, SN) as the
    first must trip I7 on the grant transition itself."""
    ledger = SnLedger()
    rig_a = Rig(dlm="seqdlm", clients=1)
    rig_b = Rig(dlm="seqdlm", clients=1)
    LockValidator(rig_a.server, ledger=ledger)
    LockValidator(rig_b.server, ledger=ledger)

    def taker(rig):
        lock = yield from rig.clients[0].lock("r", ((0, 100),), NBW, True)
        rig.clients[0].unlock(lock)

    run(rig_a, taker(rig_a))  # grants ("r", 1) under identity "server"
    # Same identity name, same epoch, same (resource, SN): a duplicate,
    # caught on the grant transition inside the server's dispatch.
    rig_b.sim.spawn(taker(rig_b))
    with pytest.raises(LockInvariantViolation, match=r"\[I7\]"):
        rig_b.sim.run()


def test_attach_validator_shares_one_sn_ledger():
    from tests.integration.conftest import small_cluster
    cluster = small_cluster(dlm="seqdlm", clients=2, servers=2)
    validators = attach_validator(cluster)
    assert cluster.sn_ledger is not None
    assert all(v.ledger is cluster.sn_ledger for v in validators)


def test_attach_validator_covers_whole_cluster():
    from tests.integration.conftest import small_cluster
    cluster = small_cluster(dlm="seqdlm", clients=2, servers=2)
    validators = attach_validator(cluster)
    assert len(validators) == 2
    cluster.create_file("/v", stripe_count=4)

    def worker(rank):
        c = cluster.clients[rank]
        fh = yield from c.open("/v")
        yield from c.write(fh, 0, b"x" * 4096)
        yield from c.fsync(fh)

    cluster.run_clients([worker(0), worker(1)])
    assert sum(v.checks for v in validators) > 0
