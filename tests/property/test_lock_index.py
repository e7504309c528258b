"""Differential oracle for the interval-indexed lock table.

:class:`repro.dlm.server.LockTable` answers the server's conflict,
expansion and mSN questions (and the client's grant-cache lookup) from
two sorted lists instead of a scan of every lock.  These tests drive a
table through seeded random mutations and, after **every** step, compare
each query against a brute-force filter over ``values()`` of a plain
``dict`` driven in parallel: the same locks, in the same order — the
order decides which revocation leaves first, so it is part of the
contract, not a detail.

A table built with an LCM files each lock in the group of its
``(mode, state)``, so the mutations also flip a lock's state and mode in
place and re-install it, as the server does on a revocation ack and a
downgrade.  The server paths (`_conflicts`, `_upgrade_set`, `_expand`,
the early-grant decision, `_on_msn_query`) run through a real
:class:`LockServer` whose resource table is the one under test, and
whose flips go through `_on_revoke_ack` and `_on_downgrade`; their
oracles are the linear loops the index replaced.
"""

import random

import pytest

from repro.dlm import LockMode, LockState
from repro.dlm.config import (
    LUSTRE_EXPANSION_CAP,
    LUSTRE_LOCK_COUNT_TRIGGER,
    ExpansionPolicy,
)
from repro.dlm.extent import EOF
from repro.dlm.lcm import seqdlm_compatible, traditional_compatible
from repro.dlm.messages import (
    DowngradeMsg,
    LockRequestMsg,
    MsnQueryMsg,
    RevokeAckMsg,
)
from repro.dlm.server import LockTable, ServerLock
from repro.dlm.types import is_write_mode, severity_lub
from tests.dlm.test_protocol import Rig

SEEDS = (101, 202, 303)
MODES = (LockMode.PR, LockMode.NBW, LockMode.BW, LockMode.PW)
STATES = (LockState.GRANTED, LockState.CANCELING)
#: A coarse grid so identical, nested and abutting ranges are common.
GRID = 16
SPACE = 40 * GRID


def _one_extent(rng):
    shape = rng.random()
    start = rng.randrange(0, SPACE, GRID)
    if shape < 0.10:
        return (start, start)                       # zero-length
    if shape < 0.25:
        return (start, EOF)                         # expanded to EOF
    if shape < 0.35:
        return (0, SPACE)                           # nests everything
    return (start, start + GRID * rng.randint(1, 6))


def _extents(rng):
    if rng.random() < 0.75:
        return (_one_extent(rng),)
    # Multi-extent (datatype / write_vector) lock: unsorted, may hold a
    # zero-length piece, hull far wider than the bytes covered.
    return tuple(_one_extent(rng) for _ in range(rng.randint(2, 4)))


def _lock(rng, lock_id):
    return ServerLock(lock_id, "r", f"c{rng.randrange(4)}", rng.choice(MODES),
                      _extents(rng), sn=lock_id, state=rng.choice(STATES))


def _flip(rng, table, lock, server=None):
    """Change ``lock``'s state or mode in place and re-file it: through
    the server's revocation-ack and downgrade handlers when ``server``
    is given, else by re-installing it by hand."""
    if rng.random() < 0.5:
        if server is not None:
            server._on_revoke_ack(RevokeAckMsg(lock.lock_id, "r"))
        else:
            lock.state = LockState.CANCELING
            table[lock.lock_id] = lock
    else:
        mode = rng.choice(MODES)
        if server is not None:
            server._on_downgrade(DowngradeMsg(lock.lock_id, "r", mode))
        else:
            lock.mode = mode
            table[lock.lock_id] = lock


def _mutate(rng, table, model, next_id, server=None):
    """Apply one random mutation to ``table`` and the plain-dict
    ``model``; returns the next unused lock id."""
    roll = rng.random()
    if roll < 0.40 or not model:
        table[next_id] = model[next_id] = _lock(rng, next_id)
        return next_id + 1
    victim = rng.choice(list(model))
    if roll < 0.50:
        # In place: the model holds the same object.
        _flip(rng, table, model[victim], server)
    elif roll < 0.60:
        del table[victim]
        del model[victim]
    elif roll < 0.75:
        assert table.pop(victim) is model.pop(victim)
        assert table.pop(victim, None) is None      # now absent
        with pytest.raises(KeyError):
            table.pop(victim)
    elif roll < 0.97:
        # Re-install under an existing id (duplicate re-assertion, shard
        # transfer): new object, new extents, same position.
        table[victim] = model[victim] = _lock(rng, victim)
    else:
        table.clear()
        model.clear()
    return next_id


def _ids(locks):
    return [id(g) for g in locks]


def _check_queries(rng, table, model):
    values = list(model.values())
    assert _ids(table.values()) == _ids(values)
    assert len(table) == len(model)
    assert table.index_fault() is None
    for _ in range(6):
        q = _extents(rng)
        assert _ids(table.overlapping(q)) == _ids(
            g for g in values if g.overlaps_extents(q)), q
        # Asked twice: the second answer comes from the table's memo.
        assert _ids(table.overlapping(q)) == _ids(
            g for g in values if g.overlaps_extents(q)), q
        assert _ids(table.covering(q)) == _ids(
            g for g in values
            if all(any(ls <= s and e <= le for ls, le in g.extents)
                   for s, e in q)), q
        offset = rng.randrange(0, SPACE + GRID, GRID // 2)
        assert _ids(table.ending_after(offset)) == _ids(
            g for g in values
            if any(e > offset for _s, e in g.extents)), offset


@pytest.mark.parametrize("seed", SEEDS)
def test_queries_match_brute_force_after_every_mutation(seed):
    """One group (the client's table), and grouped by the columns of
    Table II and of the traditional LCM."""
    rng = random.Random(seed)
    for lcm in (None, seqdlm_compatible, traditional_compatible):
        table, model, next_id = LockTable(lcm=lcm), {}, 1
        for _ in range(400):
            next_id = _mutate(rng, table, model, next_id)
            _check_queries(rng, table, model)
        assert table.covering(()) == list(model.values())


def test_mutators_that_bypass_the_index_are_rejected():
    table = LockTable()
    lock = ServerLock(1, "r", "a", LockMode.NBW, ((0, 10),), 1)
    for bypass in (lambda: table.update({1: lock}),
                   lambda: table.setdefault(1, lock),
                   lambda: table.popitem(),
                   lambda: table.__ior__({1: lock})):
        with pytest.raises(TypeError):
            bypass()
    assert not table and table.index_fault() is None


# ----------------------------------------------------- through a LockServer
class _Reply:
    """Stands in for the RPC request of an mSN query."""

    def __init__(self):
        self.value = None

    def respond(self, value, nbytes=0):
        self.value = value


def _expand_oracle(server, res, mode, extents):
    """The pre-index ``_expand``: a linear scan of every granted lock
    (the wait queue is empty in these tests)."""
    policy = server.config.expansion
    if policy is ExpansionPolicy.NONE or len(extents) != 1:
        return extents, False
    start, end = extents[0]
    if end >= EOF:
        return extents, False
    lcm = server.config.lcm
    bound = EOF
    for g in res.granted.values():
        if lcm(mode, g.mode, g.state):
            continue
        for gs, ge in g.extents:
            if gs >= end:
                bound = min(bound, gs)
            elif ge > start:
                return extents, False
    if policy is ExpansionPolicy.LUSTRE and \
            len(res.granted) > LUSTRE_LOCK_COUNT_TRIGGER:
        bound = min(bound, end + LUSTRE_EXPANSION_CAP)
    if bound <= end:
        return extents, False
    return ((start, bound),), True


def _upgrade_oracle(server, msg, conflicts, values):
    """The pre-index ``_upgrade_set``: each pass over the union of the
    request and the absorbed locks is a linear scan of every granted
    lock."""
    lcm = server.config.lcm
    absorb = list(conflicts)
    mode = msg.mode
    for c in absorb:
        mode = severity_lub(mode, c.mode)
    while True:
        lo = min([s for s, _e in msg.extents]
                 + [s for c in absorb for s, _e in c.extents])
        hi = max([e for _s, e in msg.extents]
                 + [e for c in absorb for _s, e in c.extents])
        blockers, grew = [], False
        absorbed = {c.lock_id for c in absorb}
        for g in values:
            if not g.overlaps_extents(((lo, hi),)) or \
                    lcm(mode, g.mode, g.state) or g.lock_id in absorbed:
                continue
            if server._absorbable(g, msg.client_name):
                absorb.append(g)
                mode = severity_lub(mode, g.mode)
                grew = True
                break
            blockers.append(g)
        if grew:
            continue
        return (None, blockers) if blockers else (absorb, [])


def _check_server_paths(rng, server, res, model):
    values = list(model.values())
    lcm = server.config.lcm
    assert server.lock_table_size == len(model)
    assert res.granted.index_fault() is None
    for _ in range(4):
        msg = LockRequestMsg("r", rng.choice(MODES), _extents(rng), "c0")
        conflicts = server._conflicts(res, msg)
        assert _ids(conflicts) == _ids(
            g for g in values if g.overlaps_extents(msg.extents)
            and not lcm(msg.mode, g.mode, g.state)), msg
        if conflicts:
            absorb, blockers = server._upgrade_set(res, msg, conflicts)
            want_absorb, want_blockers = _upgrade_oracle(
                server, msg, conflicts, values)
            assert (absorb is None) == (want_absorb is None), msg
            if absorb is not None:
                assert _ids(absorb) == _ids(want_absorb), msg
            assert _ids(blockers) == _ids(want_blockers), msg
        assert server._expand(res, msg, msg.mode, msg.extents) == \
            _expand_oracle(server, res, msg.mode, msg.extents), msg
        assert server._early_grant(res, msg.mode, msg.extents) == (
            is_write_mode(msg.mode) and any(
                g.mode is LockMode.NBW and g.state is LockState.CANCELING
                and g.overlaps_extents(msg.extents) for g in values)), msg
        reply = _Reply()
        server._on_msn_query(MsnQueryMsg("r", msg.extents), reply)
        sns = [g.sn for g in values if is_write_mode(g.mode)
               and g.overlaps_extents(msg.extents)]
        assert reply.value == (min(sns) - 1 if sns else res.next_sn - 1)


@pytest.mark.parametrize("dlm", ["seqdlm", "dlm-basic", "dlm-lustre",
                                 "dlm-datatype"])
@pytest.mark.parametrize("seed", SEEDS)
def test_server_scans_match_brute_force(seed, dlm):
    rng = random.Random(seed)
    rig = Rig(dlm=dlm, clients=1)
    res = rig.server._res("r")
    res.next_sn = 10_000
    model, next_id = {}, 1
    for _ in range(150):
        next_id = _mutate(rng, res.granted, model, next_id, rig.server)
        _check_server_paths(rng, rig.server, res, model)


@pytest.mark.parametrize("seed", SEEDS)
def test_lustre_cap_sees_the_same_lock_count(seed):
    """DLM-Lustre caps expansion once *more than* 32 locks are granted:
    the table's ``len`` must be the mapping's at exactly that edge."""
    rng = random.Random(seed)
    rig = Rig(dlm="dlm-lustre", clients=1)
    res = rig.server._res("r")
    model = {}
    # Read locks below the request: compatible, so only the count matters.
    for lock_id in range(1, LUSTRE_LOCK_COUNT_TRIGGER + 1):
        res.granted[lock_id] = model[lock_id] = ServerLock(
            lock_id, "r", "a", LockMode.PR, ((0, GRID),), lock_id)
    msg = LockRequestMsg("r", LockMode.PR, ((GRID, 2 * GRID),), "c0")
    at_trigger = rig.server._expand(res, msg, msg.mode, msg.extents)
    assert at_trigger == (((GRID, EOF),), True)
    extra = LUSTRE_LOCK_COUNT_TRIGGER + 1
    res.granted[extra] = model[extra] = ServerLock(
        extra, "r", "b", LockMode.PR, ((0, GRID),), extra)
    over = rig.server._expand(res, msg, msg.mode, msg.extents)
    assert over == (((GRID, 2 * GRID + LUSTRE_EXPANSION_CAP),), True)
    # Replacing in place does not change the count; deleting drops it
    # back under the trigger.
    res.granted[extra] = model[extra] = _lock(rng, extra)
    assert len(res.granted) == extra
    del res.granted[extra], model[extra]
    assert rig.server._expand(res, msg, msg.mode, msg.extents) == at_trigger
    next_id = extra + 1
    for _ in range(60):
        next_id = _mutate(rng, res.granted, model, next_id, rig.server)
        _check_server_paths(rng, rig.server, res, model)


# ------------------------------------------------- the client's grant cache
def test_client_lookup_keeps_first_match_order_and_drops_revoked_locks():
    """The client's reusable grants live in a LockTable too: a lookup
    returns the *first* covering lock in grant order, as the linear scan
    did, and a lock that turns CANCELING stops being served."""
    from tests.dlm.test_protocol import run

    rig = Rig(dlm="dlm-datatype", clients=2, latency=1e-4)  # no expansion
    c0, c1 = rig.clients
    PR, PW = LockMode.PR, LockMode.PW
    out = {}

    def holder():
        a = yield from c0.lock("r", ((0, 100),), PR, False)
        b = yield from c0.lock("r", ((50, 1000),), PR, False)
        c0.unlock(a)
        c0.unlock(b)
        hit = yield from c0.lock("r", ((60, 70),), PR, False)
        out["first"] = hit is a          # both cover; the older one wins
        c0.unlock(hit)
        yield rig.sim.timeout(1.0)       # c1 revokes `a` meanwhile
        out["a_state"] = a.state
        hit = yield from c0.lock("r", ((60, 70),), PR, False)
        out["second"] = hit is b
        c0.unlock(hit)
        out["usable"] = [cl.lock_id for cl in c0._usable["r"].values()]

    def intruder():
        yield rig.sim.timeout(0.5)
        lock = yield from c1.lock("r", ((0, 10),), PW, True)
        c1.unlock(lock)

    run(rig, holder(), intruder())
    assert out["first"] and out["second"]
    assert out["a_state"] is LockState.CANCELING
    assert c0.stats.cache_hits == 2 and c0.stats.requests == 2
    assert len(out["usable"]) == 1
    assert c0._usable["r"].index_fault() is None
