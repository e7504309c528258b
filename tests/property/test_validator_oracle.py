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

import random
import re

import pytest

from repro.dlm import LockMode, LockState
from repro.dlm.extent import EOF
from repro.dlm.lcm import seqdlm_compatible, traditional_compatible
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
    _lock,
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
