"""Differential oracle for the validator's I1/I3 check.

:meth:`repro.dlm.validator.LockValidator.validate_resource` decides I1
(pairwise compatibility) and I3 (one GRANTED writer) with one LCM
question per pair of ``(mode, state)`` classes and a sort-by-hull-start
sweep inside the classes that may not overlap.  The check it replaced —
test every pair of granted locks for overlap, then ask the LCM — lives
on here as the reference: over seeded random lock tables both must agree
on raise / no-raise and on the ``[I1]`` / ``[I3]`` tag.  Which offending
pair the message names may differ.

Tables hold all four modes in both states, single- and multi-extent
locks, zero-length extents and ``EOF``-expanded ranges (the generators
of ``test_lock_index``), under the two real LCMs and two broken ones
that make I3 reachable on its own.
"""

import copy
import random
import re
from collections import Counter, deque

import pytest

from repro.dlm import LockMode, LockState
from repro.dlm.extent import EOF
from repro.dlm.lcm import seqdlm_compatible, traditional_compatible
from repro.dlm.messages import LockRequestMsg, ReleaseMsg
from repro.dlm.server import ServerLock
from repro.dlm.types import is_write_mode
from repro.dlm.validator import LockInvariantViolation, LockValidator
from tests.dlm.test_protocol import Rig
from tests.property.test_lock_index import (
    GRID,
    MODES,
    SEEDS,
    SPACE,
    STATES,
    _extents,
    _flip,
    _lock,
    _mutate,
    _Reply,
)

NBW = LockMode.NBW
G, C = LockState.GRANTED, LockState.CANCELING


# ------------------------------------------------------------- the reference
def reference_tag(locks, lcm):
    """The pair scan ``validate_resource`` ran before the per-class
    sweep: ``"I1"``, ``"I3"`` or None for a legal table."""
    # I1: order-sensitive — a pair is legal if EITHER direction is
    # compatible, since grant order determines which was the "request".
    for i, a in enumerate(locks):
        for b in locks[i + 1:]:
            if not a.overlaps_extents(b.extents):
                continue
            ab = lcm(a.mode, b.mode, b.state)
            ba = lcm(b.mode, a.mode, a.state)
            if not (ab or ba):
                return "I1"
    # I3: at most one overlapping GRANTED write lock.
    writers = [l for l in locks if is_write_mode(l.mode)
               and l.state is LockState.GRANTED]
    for i, a in enumerate(writers):
        for b in writers[i + 1:]:
            if a.overlaps_extents(b.extents):
                return "I3"
    return None


def validator_tag(validator, res):
    try:
        validator.validate_resource(res)
    except LockInvariantViolation as exc:
        return re.match(r"\[(I\d+)\]", str(exc)).group(1)
    return None


# ------------------------------------------------------------------- LCMs
def everything_compatible(request, granted, state):
    """No pair is ever an I1 violation: I3 is the only net."""
    return True


def early_grant_over_granted(request, granted, state):
    """Table II with the N/Y cells read as Y/Y: a write request is let
    past a granted NBW lock whatever its state."""
    return seqdlm_compatible(request, granted, LockState.CANCELING)


LCMS = {
    "seqdlm": seqdlm_compatible,
    "traditional": traditional_compatible,
    "everything": everything_compatible,
    "early-over-granted": early_grant_over_granted,
}


# ----------------------------------------------------------------- tables
def _table(rng):
    """Locks of one random table, in grant order.  The shapes lean
    towards legal and nearly-legal tables: a fully random table of more
    than a handful of locks is all but certain to violate I1."""
    shape = rng.random()
    n = rng.randint(0, 30)
    if shape < 0.20:
        # Anything anywhere, small enough to come out legal now and then.
        locks = [_lock(rng, i) for i in range(1, rng.randint(0, 6) + 1)]
    elif shape < 0.40:
        # The early-grant chain: CANCELING NBW locks expanded to EOF
        # under at most one GRANTED head.
        locks = [ServerLock(i, "r", "c", NBW,
                            ((rng.randrange(0, SPACE, GRID), EOF),), i, C)
                 for i in range(1, n + 1)]
        if locks and rng.random() < 0.8:
            locks[-1].state = G
    elif shape < 0.60:
        # Writers and readers on distinct grid slots: any mode, any
        # state, never a shared byte.
        slots = rng.sample(range(0, SPACE, GRID), n)
        locks = [ServerLock(i, "r", "c", rng.choice(MODES),
                            ((s, s + GRID),), i, rng.choice(STATES))
                 for i, s in enumerate(slots, 1)]
    elif shape < 0.75:
        # Readers piled on each other beside disjoint writers.
        locks = [ServerLock(i, "r", "c", LockMode.PR, _extents(rng), i,
                            rng.choice(STATES)) for i in range(1, n + 1)]
        top = SPACE
        for i in range(n + 1, n + rng.randint(0, 4) + 1):
            locks.append(ServerLock(i, "r", "c", rng.choice(MODES[1:]),
                                    ((top, top + GRID),), i,
                                    rng.choice(STATES)))
            top += GRID
    else:
        # Datatype locks: interleaved combs whose hulls all overlap but
        # whose bytes do not (stride n, tooth i), plus zero-length teeth.
        width = max(n, 1)
        locks = [ServerLock(
            i + 1, "r", "c", rng.choice(MODES),
            tuple((GRID * (k * width + i), GRID * (k * width + i + 1))
                  for k in range(rng.randint(2, 4)))
            + ((GRID * i, GRID * i),) * rng.randint(0, 1),
            i + 1, rng.choice(STATES)) for i in range(n)]
    if locks and rng.random() < 0.5:
        # One more lock dropped anywhere: mostly a single offending pair.
        locks.insert(rng.randrange(len(locks) + 1), _lock(rng, 10_000))
        rng.shuffle(locks)
    return locks


@pytest.mark.parametrize("lcm_name", sorted(LCMS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_agrees_with_the_pair_scan(seed, lcm_name):
    rng = random.Random(seed)
    lcm = LCMS[lcm_name]
    rig = Rig(dlm="seqdlm", clients=1)
    validator = LockValidator(rig.server)
    validator.lcm = lcm
    res = rig.server._res("r")
    res.next_sn = 1 << 40           # keep I2 out of the way
    seen = {"I1": 0, "I3": 0, None: 0}
    for _ in range(400):
        locks = _table(rng)
        res.granted.clear()
        for lock in locks:
            res.granted[lock.lock_id] = lock
        want = reference_tag(locks, lcm)
        assert validator_tag(validator, res) == want, \
            [(l.lock_id, l.mode, l.state, l.extents) for l in locks]
        seen[want] += 1
    # Not vacuous: legal and illegal tables both came up, and I3 where
    # the LCM leaves it reachable.
    assert seen[None] >= 40, seen
    if lcm_name == "everything":
        assert seen["I1"] == 0 and seen["I3"] >= 40, seen
    else:
        assert seen["I1"] >= 40, seen
    if lcm_name in ("seqdlm", "traditional"):
        # Under a real LCM two GRANTED writers are always an I1 pair.
        assert seen["I3"] == 0, seen
    elif lcm_name == "early-over-granted":
        # Both tags in one stream: I1 must keep precedence over I3.
        assert seen["I3"] >= 3, seen


# --------------------------------- the per-transition path vs the full check
#: Holders of the locks ``_lock`` draws; requests come from them too.
HOLDERS = ("c0", "c1", "c2", "c3")
#: Ids of the locks planted behind the server's back start here, far
#: above the ones its own counter hands out.
PLANTED = 100_000
CORRUPTIONS = ("mode", "state", "extents", "dict-insert", "dict-delete",
               "dict-replace", "dict-copy", "dict-rekey", "row-copy",
               "drop-row", "dup-row", "move-row", "seq-rewind", "sn-rewind",
               "fence", "unlogged", "log-off")


def _tag(call):
    """Run ``call``; the ``[Ix]`` tag of the violation it raised, or
    None."""
    try:
        call()
    except LockInvariantViolation as exc:
        return re.match(r"\[(I\d+)\]", str(exc)).group(1)
    return None


def _rows(table):
    """Every index list of ``table`` that holds at least one row."""
    return [rows for by_start, by_end in table._groups
            for rows in (by_start, by_end) if rows]


def _corrupt(rng, kind, server, res, next_id):
    """Damage ``res``'s table behind its back — the lock a corruption
    picks was not touched since the last transition — and return a
    callable that puts it right again."""
    table = res.granted
    snapshot = list(dict.items(table))
    victim = table[rng.choice(list(table))]
    face = dict(vars(victim))
    fence = dict(server._fence)
    next_sn = res.next_sn

    def repair():
        vars(victim).update(face)
        server._fence.clear()
        server._fence.update(fence)
        res.next_sn = next_sn
        table.clear()
        for lock_id, lock in snapshot:
            table[lock_id] = lock

    if kind == "mode":
        victim.mode = rng.choice([m for m in MODES if m is not victim.mode])
    elif kind == "state":
        victim.state = G if victim.state is C else C
    elif kind == "extents":
        extents = victim.extents
        while extents == victim.extents:
            extents = _extents(rng)
        victim.extents = extents
    elif kind == "dict-insert":
        dict.__setitem__(table, next_id, _lock(rng, next_id))
    elif kind == "dict-delete":
        dict.__delitem__(table, victim.lock_id)
    elif kind == "dict-replace":
        dict.__setitem__(table, victim.lock_id, _lock(rng, victim.lock_id))
    elif kind == "dict-copy":
        # Equal in every field, yet not the lock the index holds.
        dict.__setitem__(table, victim.lock_id, copy.copy(victim))
    elif kind == "dict-rekey":
        last = next(reversed(table))
        dict.__setitem__(table, next_id, dict.pop(table, last))
    elif kind == "row-copy":
        # Equal in every field, yet not the row the index lists.
        row = table._entries[victim.lock_id]
        table._entries[victim.lock_id] = tuple(list(row))
    elif kind == "seq-rewind":
        table._next_seq -= rng.randint(1, table._next_seq)
        table[next_id] = _lock(rng, next_id)
    elif kind == "sn-rewind":
        res.next_sn = victim.sn
    elif kind == "fence":
        server._fence[victim.client_name] = victim.incarnation + 1
    elif kind in ("drop-row", "dup-row", "move-row"):
        rows = rng.choice(_rows(table))
        at = rng.randrange(len(rows))
        if kind == "drop-row":
            del rows[at]
        elif kind == "dup-row":
            rows.insert(at, rows[at])
        else:
            row = rows.pop(at)
            target = rng.choice(_rows(table) or [rows])
            target.insert(rng.randrange(len(target) + 1), row)
    else:
        # A legal mutation the table does not report: its record is
        # dropped from the log, or the log is switched off around it.
        if kind == "log-off":
            log, table._touched = table._touched, None
        if rng.random() < 0.5:
            table[victim.lock_id] = _lock(rng, victim.lock_id)
        else:
            del table[victim.lock_id]
        if kind == "log-off":
            table._touched = log
        elif table._touched:
            del table._touched[-1]
    return repair


def _step(rng, server, res, next_id, held=False):
    """One random server transition; returns ``(kind, call, next_id)``
    with ``call`` running it.  A ``held`` server (see ``_trace``) gets
    locks planted instead of requests, and evicts nobody."""
    table = res.granted
    roll = rng.random()
    if roll < 0.45 and not held:
        client = rng.choice(HOLDERS)
        inc = server._fence.get(client, 0) if rng.random() < 0.9 else 0
        msg = LockRequestMsg("r", rng.choice(MODES), _extents(rng), client,
                             incarnation=inc)
        return "request", lambda: server._on_lock_request(msg, _Reply()), \
            next_id
    if roll < 0.58 or held and roll < 0.75 or not table:
        # Planted through the table's own mutators (mostly illegal
        # locks), then a transition to look at them.
        def plant():
            _mutate(rng, table, dict(table), next_id)
            server._process(res)

        return "planted", plant, next_id + 1
    victim = rng.choice(list(table))
    if roll < 0.82:
        return "release", \
            lambda: server._on_release(ReleaseMsg(victim, "r")), next_id
    if roll < 0.98 or held:
        return "flip", \
            lambda: _flip(rng, table, table[victim], server), next_id
    client = rng.choice(HOLDERS)

    def evict():
        server._evict(client, "trace")
        server._process(res)

    return "evict", evict, next_id


def _trace(seed, dlm, lcm=None, steps=500):
    """Drive one seeded trace (see the test below) and return the count
    of ``(step kind, full-check tag, certified without it)``.  With
    ``lcm`` the validator judges by that LCM, and the server is held in
    a recovery hold-off (it grants nothing and I4 stands down), since
    the two would disagree on every queue head."""
    rng = random.Random(seed)
    rig = Rig(dlm=dlm, clients=0)
    for name in HOLDERS:
        # Revocation callbacks are sent, never delivered: the clock
        # does not run.
        rig.fabric.add_node(name).register_service("dlm_cb", lambda m: None)
    server = rig.server
    validator = LockValidator(server)
    if lcm is not None:
        validator.lcm = lcm
        server.recovery_hold_until = float("inf")
    res = server._res("r")
    res.next_sn = 1 << 40           # planted SNs stay below it
    next_id = PLANTED
    outcomes = Counter()
    for step in range(steps):
        full_before = validator.full_checks
        repair = None
        if len(res.granted) >= 2 and rng.random() < 0.15:
            kind = rng.choice(CORRUPTIONS)
            repair = _corrupt(rng, kind, server, res, next_id)
            next_id += 1
            # Nothing in the queue: the transition itself must not
            # mutate a damaged index.
            queue, res.queue = res.queue, deque()
            call = lambda: server._process(res)  # noqa: E731
        else:
            kind, call, next_id = _step(rng, server, res, next_id,
                                        held=lcm is not None)
        got = _tag(call)
        want = validator_tag(validator, res)
        assert got == want, (dlm, seed, step, kind)
        if repair is not None:
            repair()
            res.queue = queue
        outcomes[kind, want, validator.full_checks == full_before] += 1
    return outcomes


@pytest.mark.parametrize("dlm", ["seqdlm", "dlm-basic", "dlm-lustre",
                                 "dlm-datatype"])
@pytest.mark.parametrize("seed", SEEDS)
def test_each_transition_matches_the_full_check(seed, dlm):
    """Seeded traces through the server's handlers — requests, releases,
    revocation acks and downgrades, locks planted through the table,
    evictions — with a corruption the table cannot see injected now and
    then.  After every transition the validator's per-transition path
    (shadow, net, touched locks) must raise exactly when the stateless
    full check does, with the same tag."""
    outcomes = _trace(seed, dlm)
    # Not vacuous: most clean transitions pass on the touched locks
    # alone, illegal tables come up, and every corruption is injected
    # and caught.
    clean = sum(n for (kind, want, _), n in outcomes.items()
                if kind not in CORRUPTIONS and want is None)
    certified = sum(n for (kind, want, ok), n in outcomes.items()
                    if kind not in CORRUPTIONS and want is None and ok)
    assert clean >= 100 and certified >= 0.6 * clean, outcomes
    assert sum(n for (kind, want, _), n in outcomes.items()
               if kind not in CORRUPTIONS and want is not None) >= 10
    caught = sum(n for (kind, want, _), n in outcomes.items()
                 if kind in CORRUPTIONS and want is not None)
    assert caught >= 20, outcomes


@pytest.mark.parametrize("seed", SEEDS)
def test_each_transition_matches_the_full_check_where_only_i3_objects(seed):
    """The same traces judged under an LCM that allows every pair, so
    two overlapping GRANTED writers are left to I3 alone."""
    outcomes = _trace(seed, "seqdlm", lcm=everything_compatible)
    assert sum(n for (_kind, want, _), n in outcomes.items()
               if want == "I3") >= 5, outcomes
    assert not any(want == "I1" for _kind, want, _ in outcomes)
