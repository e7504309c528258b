"""Growth pins: the work per request must not grow with the lock table.

Counts only, no timing: a count repeats exactly on any host.
"""

import sys
from pathlib import Path
from unittest.mock import patch

import repro.dlm.server as server_module
import repro.dlm.validator as validator_module
from repro.dlm import LockMode, LockState
from repro.dlm.config import ExpansionPolicy
from repro.dlm.extent import EOF
from repro.dlm.messages import LockRequestMsg, RevokeAckMsg
from repro.dlm.server import LockTable, ServerLock
from repro.dlm.validator import LockValidator
from repro.harness.experiments import fig17_cell
from tests.dlm.test_protocol import Rig
from tests.property.test_lock_index import _Reply

NBW = LockMode.NBW
GRID = 16


def _rows_examined(chain: int):
    """One NBW request meeting a GRANTED head and ``chain`` CANCELING NBW
    locks, all expanded to EOF and all overlapping it: the backlog that
    early grant builds on one stripe (ROADMAP 16a).  The request is
    blocked, the head is revoked and acked, and the request is granted
    early.  Returns ``(rows, early grants)``: the lock rows the server
    looked at on the way — each exact overlap test (every lock has two
    extents, so none passes on its hull alone) plus each lock the
    expansion scan was handed."""
    rig = Rig(dlm="seqdlm", clients=2)
    server = rig.server
    res = server._res("r")
    res.next_sn = chain + 2
    for lock_id in range(1, chain + 1):
        start = lock_id * GRID
        res.granted[lock_id] = ServerLock(
            lock_id, "r", "client1", NBW, ((start, start + 1),
                                           (start + 2, EOF)),
            sn=lock_id, state=LockState.CANCELING, revoke_sent=True)
    head = chain + 1
    res.granted[head] = ServerLock(head, "r", "client1", NBW,
                                   ((0, 1), (2, EOF)), sn=head)
    at = (chain + 2) * GRID
    request = LockRequestMsg("r", NBW, ((at, at + GRID),), "client0")

    rows = [0]
    exact = server_module._extents_overlap
    handed = LockTable.ending_after

    def counting_overlap(mine, extents):
        rows[0] += 1
        return exact(mine, extents)

    def counting_ending_after(table, *args):
        found = handed(table, *args)
        rows[0] += len(found)
        return found

    reply = _Reply()
    with patch.object(server_module, "_extents_overlap", counting_overlap), \
            patch.object(LockTable, "ending_after", counting_ending_after):
        server._on_lock_request(request, reply)
        assert reply.value is None                  # blocked by the head
        assert server.stats.revocations_sent == 1
        server._on_revoke_ack(RevokeAckMsg(head, "r"))
    assert reply.value.sn == chain + 2              # granted
    return rows[0], server.stats.early_grants


def test_rows_examined_per_request_do_not_grow_with_the_canceling_chain():
    """A conflict scan, the expansion scan and the early-grant check read
    only what can change their answer: the head.  Eight times the
    CANCELING chain costs the same rows."""
    small, small_early = _rows_examined(64)
    large, large_early = _rows_examined(8 * 64)
    assert small_early == large_early == 1
    assert large == small, (small, large)
    assert small <= 8


def _validator_lines(table_size: int) -> int:
    """Python lines the validator runs for one transition on a table of
    ``table_size`` CANCELING NBW locks on disjoint slots: a request above
    all of them, granted at once (no range expansion, so the next one
    is granted too).  Lines of ``repro/dlm/validator.py``
    only, counted with a trace function (C-level work, such as the net's
    passes over the whole table, runs no line)."""
    rig = Rig(dlm="seqdlm", clients=1, expansion=ExpansionPolicy.NONE)
    server = rig.server
    validator = LockValidator(server)
    res = server._res("r")
    res.next_sn = table_size + 1
    for slot in range(1, table_size + 1):
        lock_id = 10_000 + slot         # clear of the server's own ids
        res.granted[lock_id] = ServerLock(
            lock_id, "r", "client0", NBW, ((slot * GRID, (slot + 1) * GRID),),
            sn=slot, state=LockState.CANCELING, revoke_sent=True)
    server._process(res)                # the base case: the full check
    source = str(Path(validator_module.__file__))
    lines = [0]

    def tracer(frame, event, _arg):
        if frame.f_code.co_filename != source:
            return None
        if event == "line":
            lines[0] += 1
        return tracer

    # Two grants above the table; the second is counted (the first also
    # sets up the validator's per-LCM group tables).
    for k in (2, 4):
        at = (table_size + k) * GRID
        request = LockRequestMsg("r", NBW, ((at, at + GRID),), "client0")
        reply = _Reply()
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            lines[0] = 0
            server._on_lock_request(request, reply)
        finally:
            sys.settrace(previous)
        assert reply.value is not None
    assert len(res.granted) == table_size + 2
    assert validator.full_checks == 1   # both transitions incremental
    return lines[0]


def test_validator_work_per_transition_does_not_grow_with_the_table():
    """After its first, full check of a resource the validator re-checks
    only the locks a transition touched; the rest of the table is
    compared against its shadow at C level.  Eight times the locks cost
    the same Python lines."""
    small, large = _validator_lines(64), _validator_lines(512)
    assert large == small, (small, large)


def _events_per_write(rounds: int) -> float:
    cluster, _total = fig17_cell(NBW, 64 * 1024, 16, rounds)
    return cluster.sim.events_processed / (16 * rounds)


def test_fig17_events_per_write_do_not_grow_with_the_rounds():
    """One Fig. 17 NBW cell (16 clients taking turns on one 64 KiB
    extent): kernel events per write stay flat as the rounds double.
    When a stripe's last in-flight flush finished, the flush gate used
    to wake every parked cancel, and all but one parked again — a cost
    per write that grew with the CANCELING backlog (ROADMAP 16a)."""
    ratio = _events_per_write(50) / _events_per_write(25)
    assert 0.9 <= ratio <= 1.1, ratio
