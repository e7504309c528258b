"""Unit tests for the data server's SN-correct write routine (Fig. 15)."""

import pytest

from repro.net import Fabric, NetworkConfig, rpc_call
from repro.pfs.data_server import (
    BLOCK_HEADER_BYTES,
    DataServer,
    IoReadMsg,
    IoSizeMsg,
    IoTruncateMsg,
    IoWriteMsg,
    WireBlock,
)
from repro.pfs.extent_cache import ServerExtentCache
from repro.sim import Simulator
from repro.storage import StorageDevice

KEY = ("f", 0)


class Rig:
    def __init__(self, track_content=True, extent_log=None, **devkw):
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, NetworkConfig())
        self.server_node = self.fabric.add_node("ds")
        self.client = self.fabric.add_node("client")
        devkw.setdefault("bandwidth", 1e9)
        devkw.setdefault("latency", 0.0)
        self.device = StorageDevice(self.sim, **devkw)
        self.ecache = ServerExtentCache(self.sim)
        self.ds = DataServer(self.server_node, self.device, self.ecache,
                             extent_log=extent_log,
                             track_content=track_content)

    def call(self, msg, nbytes=256):
        out = {}

        def proc():
            out["reply"] = yield rpc_call(self.client, self.server_node,
                                          "io", msg, nbytes=nbytes)

        self.sim.spawn(proc())
        self.sim.run()
        return out["reply"]


def test_write_then_read_roundtrip():
    rig = Rig()
    assert rig.call(IoWriteMsg(KEY, [WireBlock(0, 5, 1, b"hello")])) == "ack"
    assert rig.call(IoReadMsg(KEY, 0, 5)) == b"hello"


def test_stale_block_discarded():
    rig = Rig()
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 4, 9, b"NEW!")]))
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 4, 3, b"old.")]))
    assert rig.call(IoReadMsg(KEY, 0, 4)) == b"NEW!"
    assert rig.ds.stats.bytes_discarded == 4


def test_partial_overlap_mixed_sns():
    rig = Rig()
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 4, 5, b"AAAA")]))
    # SN 3 loses on [2,4) but wins on [4,6).
    rig.call(IoWriteMsg(KEY, [WireBlock(2, 4, 3, b"bbbb")]))
    assert rig.call(IoReadMsg(KEY, 0, 6)) == b"AAAAbb"


def test_device_charged_only_for_update_set():
    rig = Rig()
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 100, 9, b"x" * 100)]))
    written_before = rig.device.stats.bytes_written
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 100, 1, b"y" * 100)]))
    # The stale write moved zero bytes to the device.
    assert rig.device.stats.bytes_written == written_before


def test_multi_block_write_single_rpc():
    rig = Rig()
    msg = IoWriteMsg(KEY, [WireBlock(0, 2, 7, b"ab"),
                           WireBlock(10, 3, 9, b"cde")])
    assert msg.nbytes == 5 + 2 * BLOCK_HEADER_BYTES + 256
    rig.call(msg, nbytes=msg.nbytes)
    assert rig.call(IoReadMsg(KEY, 0, 2)) == b"ab"
    assert rig.call(IoReadMsg(KEY, 10, 3)) == b"cde"
    assert rig.ds.stats.blocks_received == 2
    assert rig.ds.stats.write_rpcs == 1


def test_size_query():
    rig = Rig()
    rig.call(IoWriteMsg(KEY, [WireBlock(100, 4, 1, b"zzzz")]))
    assert rig.call(IoSizeMsg(KEY)) == 104


def test_truncate_clears_extent_cache_tail():
    rig = Rig()
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 10, 1, b"0123456789")]))
    rig.call(IoTruncateMsg(KEY, 4))
    assert rig.call(IoSizeMsg(KEY)) == 4
    # Entries entirely past the new size are dropped.
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 10, 1, b"ABCDEFGHIJ")]))
    assert rig.call(IoReadMsg(KEY, 4, 6)) == b"EFGHIJ"


def test_extent_log_records_update_sets():
    from repro.pfs.extent_log import ExtentLog
    log = ExtentLog()
    rig = Rig(extent_log=log)
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 8, 2, b"ABCDEFGH")]))
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 4, 1, b"zzzz")]))  # stale
    assert log.entry_count(KEY) == 1  # only the winning update logged
    assert log.replay(KEY).entries() == [(0, 8, 2)]


def test_content_tracking_off_still_tracks_sizes():
    rig = Rig(track_content=False)
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 50, 1, None)]))
    assert rig.call(IoSizeMsg(KEY)) == 50
    assert rig.call(IoReadMsg(KEY, 0, 4)) is None


def test_crash_clears_volatile_state_only():
    from repro.pfs.extent_log import ExtentLog
    log = ExtentLog()
    rig = Rig(extent_log=log)
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 4, 5, b"keep")]))
    rig.ds.crash()
    assert rig.ecache.total_entries == 0        # volatile: gone
    assert rig.ds.store.read(KEY, 0, 4) == b"keep"  # durable: kept
    rig.ds.recover()
    assert rig.ecache.map_for(KEY).entries() == [(0, 4, 5)]


# --------------------------------------------- handlers without a process
# An IO handler does its work in the dispatch event and replies from a
# callback on the device's completion event.

def _record_replies(rig):
    """Every reply the data server sends, as ``(send instant, payload)``."""
    sent = []
    send = rig.fabric.send

    def recording(msg):
        if msg.src is rig.server_node and msg.is_reply:
            sent.append((rig.sim.now, msg.payload))
        return send(msg)

    rig.fabric.send = recording
    return sent


@pytest.mark.parametrize("msg, nbytes, reply", [
    (IoWriteMsg(KEY, [WireBlock(0, 5000, 1, b"w" * 5000)]), 5000, "ack"),
    (IoReadMsg(KEY, 0, 5000), 5000, bytes(5000)),
    (IoTruncateMsg(KEY, 3), 0, "ack"),
], ids=["write", "read", "truncate"])
def test_io_rpc_gets_one_reply_at_the_device_completion_instant(
        msg, nbytes, reply):
    rig = Rig(latency=1e-4)
    sent = _record_replies(rig)
    dispatched = []
    handle = rig.ds.service.handler
    rig.ds.service.handler = lambda req: (dispatched.append(rig.sim.now),
                                          handle(req))[1]
    assert rig.call(msg) == reply
    completion = dispatched[0] + (1e-4 + nbytes / 1e9)
    assert sent == [(completion, reply)]
    assert rig.device._free_at == completion
    assert rig.client.messages_received == 1


def test_read_returns_the_store_as_of_device_completion():
    # A write dispatched while the read's device access is in progress
    # lands in the store at its own dispatch, before the read completes:
    # the read reply carries it.
    rig = Rig(latency=1e-3)
    rig.call(IoWriteMsg(KEY, [WireBlock(0, 4, 1, b"old!")]))
    out = {}

    def reader():
        out["read"] = yield rpc_call(rig.client, rig.server_node, "io",
                                     IoReadMsg(KEY, 0, 4))

    def writer():
        yield 1e-4
        out["write"] = yield rpc_call(
            rig.client, rig.server_node, "io",
            IoWriteMsg(KEY, [WireBlock(0, 4, 2, b"new!")]))

    rig.sim.spawn(reader())
    rig.sim.spawn(writer())
    rig.sim.run()
    assert rig.ds.track_content
    assert out == {"read": b"new!", "write": "ack"}


def test_fenced_write_is_rejected_without_device_io():
    from repro.dlm.messages import FencedMsg

    rig = Rig()
    rig.ds.fence_fn = lambda name, incarnation: 4
    reply = rig.call(IoWriteMsg(KEY, [WireBlock(0, 4, 1, b"zomb")],
                                client_name="c", incarnation=1))
    assert isinstance(reply, FencedMsg) and reply.min_incarnation == 4
    assert rig.device.stats.writes == 0
    assert rig.ds.stats.fenced_writes == 1
    assert rig.ds.stats.write_rpcs == 0
    assert rig.ecache.total_entries == 0
    assert not rig.ds.store.has(KEY)


class _HandlerBug(Exception):
    pass


def _raise(*_args, **_kwargs):
    raise _HandlerBug("boom")


@pytest.mark.parametrize("where", ["dispatch", "completion"])
def test_exception_in_an_io_handler_surfaces_from_run(where):
    rig = Rig()
    if where == "dispatch":
        rig.ecache.merge = _raise  # the write's work at dispatch
        msg = IoWriteMsg(KEY, [WireBlock(0, 4, 1, b"data")])
    else:
        rig.ds.store.read = _raise  # the read's work at completion
        msg = IoReadMsg(KEY, 0, 4)
    rpc_call(rig.client, rig.server_node, "io", msg)
    with pytest.raises(_HandlerBug, match="boom"):
        rig.sim.run()
