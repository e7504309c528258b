"""Growth pins: the work per request must not grow with the lock table.

Counts only, no timing: a count repeats exactly on any host.
"""

from unittest.mock import patch

import repro.dlm.server as server_module
from repro.dlm import LockMode, LockState
from repro.dlm.extent import EOF
from repro.dlm.messages import LockRequestMsg, RevokeAckMsg
from repro.dlm.server import LockTable, ServerLock
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
