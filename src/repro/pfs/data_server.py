"""ccPFS data server: the IO service plus SN-correct write handling.

Each data server owns a set of stripe objects (hashed onto it by the
cluster layout), one storage device, the extent cache that makes
out-of-order conflicting flushes safe (Fig. 15), and optionally an extent
log for recovery.  The co-located DLM service (same node) answers its
mSN queries with a local RPC.

Write routine (Fig. 15): for every incoming block, ① merge its SN into
the extent cache, ② record the changed parts in the update set, ③ write
only the update set to the device (stale parts are discarded), ④ append
the update set to the extent log, then ack the client.

The IO handlers run without a process of their own: ``_write``,
``_read`` and ``_truncate`` do their work in the RPC dispatch event,
submit one device access, and reply from a callback on the device's
completion event.  A read takes its bytes from the store at completion,
so a write dispatched while the read's device access runs is in the
reply.  An exception raised at either point surfaces from the run loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Hashable, List, Optional, Tuple

from repro._compat import DATACLASS_KW
from repro.dlm.extent import EOF
from repro.dlm.messages import FencedMsg, MsnQueryMsg, WrongShardMsg
from repro.dlm.types import LockMode
from repro.net.fabric import Node
from repro.net.rpc import (
    CTRL_MSG_BYTES,
    Request,
    RpcService,
    rpc_call,
    rpc_call_retry,
)
from repro.pfs.content import (
    CONTENT_CHECKSUM,
    CONTENT_FULL,
    fold_update,
    payload_crc,
    resolve_content_mode,
)
from repro.pfs.extent_cache import ServerExtentCache
from repro.pfs.extent_log import ExtentLog
from repro.storage.blockstore import BlockStore
from repro.storage.device import StorageDevice

__all__ = ["DataServer", "IoWriteMsg", "IoReadMsg", "IoTruncateMsg",
           "IoSizeMsg", "WireBlock", "BLOCK_HEADER_BYTES"]

#: Per-block wire/entry overhead (the paper's 48-byte extent entries).
BLOCK_HEADER_BYTES = 48


@dataclass(**DATACLASS_KW)
class WireBlock:
    offset: int
    length: int
    sn: int
    data: Optional[bytes] = None


@dataclass(**DATACLASS_KW)
class IoWriteMsg:
    stripe_key: Hashable
    blocks: List[WireBlock]
    #: Sender identity for fencing: a flush from an evicted client
    #: incarnation must not reach the store (empty name = unfenced
    #: legacy/local sender).
    client_name: str = ""
    incarnation: int = 0

    @property
    def nbytes(self) -> int:
        return (sum(b.length for b in self.blocks)
                + BLOCK_HEADER_BYTES * len(self.blocks) + CTRL_MSG_BYTES)


@dataclass(**DATACLASS_KW)
class IoReadMsg:
    stripe_key: Hashable
    offset: int
    length: int


@dataclass(**DATACLASS_KW)
class IoTruncateMsg:
    stripe_key: Hashable
    size: int


@dataclass(**DATACLASS_KW)
class IoSizeMsg:
    stripe_key: Hashable


@dataclass(**DATACLASS_KW)
class DataServerStats:
    write_rpcs: int = 0
    read_rpcs: int = 0
    blocks_received: int = 0
    bytes_received: int = 0
    bytes_discarded: int = 0  # stale (lower-SN) parts dropped by the cache
    #: Flushes rejected because the sender's incarnation was fenced.
    fenced_writes: int = 0


class DataServer:
    """IO service of one ccPFS data server node."""

    def __init__(self, node: Node, device: StorageDevice,
                 extent_cache: ServerExtentCache,
                 io_ops: float = 1_000_000.0,
                 extent_log: Optional[ExtentLog] = None,
                 track_content: bool = True,
                 dedup: bool = False,
                 content_mode: Optional[str] = None,
                 admission=None):
        self.node = node
        self.sim = node.sim
        self.device = device
        self.extent_cache = extent_cache
        self.extent_log = extent_log
        self.content_mode = resolve_content_mode(track_content, content_mode)
        #: Back-compat bool: only "full" mode stores real bytes.
        self.track_content = self.content_mode == CONTENT_FULL
        self._checksum = self.content_mode == CONTENT_CHECKSUM
        #: Rolling CRC32 per stripe of the accepted update stream
        #: (checksum mode); a cheap cross-run integrity fingerprint.
        self.digests: Dict[Hashable, int] = {}
        self.store = BlockStore()
        self.stats = DataServerStats()
        self.service = RpcService(node, "io", self._handle, ops=io_ops,
                                  dedup=dedup, admission=admission)
        extent_cache.msn_query_fn = self._query_msn
        extent_cache.force_sync_fn = self._force_sync
        #: Installed by the cluster: a lock client local to this node used
        #: for forced global syncs (§IV-B method 2).
        self.local_lock_client = None
        #: Installed by the cluster (the co-located lock server's
        #: ``fence_floor``): maps ``(client_name, incarnation)`` to the
        #: minimum acceptable incarnation when fenced, else None.
        self.fence_fn = None
        #: Installed by the cluster when sequencer replication is on:
        #: maps a stripe key to the node currently running its DLM (the
        #: standby after a failover).  None keeps the classic co-located
        #: local RPC.
        self.dlm_node_fn = None
        #: Retry policy + rng for mSN queries when ``dlm_node_fn`` is set
        #: — a query in flight to a dying sequencer must time out and be
        #: re-routed to the promoted standby, not hang the cleaner.
        self.msn_retry = None
        self.msn_rng = None

    # -------------------------------------------------------------- dispatch
    def _handle(self, req: Request) -> None:
        msg = req.payload
        if isinstance(msg, IoWriteMsg):
            if self.fence_fn is not None and msg.client_name:
                floor = self.fence_fn(msg.client_name, msg.incarnation)
                if floor is not None:
                    # Zombie flush from an evicted incarnation: reject
                    # before a single byte touches the extent cache or
                    # store — the locks covering it were reclaimed.
                    self.stats.fenced_writes += 1
                    req.respond(FencedMsg(msg.client_name, msg.incarnation,
                                          floor), nbytes=CTRL_MSG_BYTES)
                    return
            self._write(req, msg)
        elif isinstance(msg, IoReadMsg):
            self._read(req, msg)
        elif isinstance(msg, IoTruncateMsg):
            self._truncate(req, msg)
        elif isinstance(msg, IoSizeMsg):
            req.respond(self.store.size(msg.stripe_key))
        else:  # pragma: no cover
            raise TypeError(f"unexpected IO payload {msg!r}")

    # ----------------------------------------------------------------- write
    def _write(self, req: Request, msg: IoWriteMsg) -> None:
        self.stats.write_rpcs += 1
        device_bytes = 0
        log_bytes = 0
        for block in msg.blocks:
            self.stats.blocks_received += 1
            self.stats.bytes_received += block.length
            updates = self.extent_cache.merge(
                msg.stripe_key, block.offset, block.offset + block.length,
                block.sn)
            kept = 0
            # One memoryview per block: update slices are zero-copy views.
            mv = (memoryview(block.data)
                  if self.track_content and block.data is not None else None)
            digest = (self.digests.get(msg.stripe_key, 0)
                      if self._checksum else 0)
            for s, e in updates:
                kept += e - s
                if mv is not None:
                    self.store.write(msg.stripe_key, s,
                                     mv[s - block.offset:e - block.offset])
                else:
                    # Still track sizes for sparse/perf runs.
                    obj = self.store.object(msg.stripe_key)
                    obj.size = max(obj.size, e)
                    if self._checksum:
                        digest = fold_update(
                            digest, s, e, block.sn,
                            payload_crc(block.data[s - block.offset:
                                                   e - block.offset])
                            if block.data is not None else 0)
            if self._checksum:
                self.digests[msg.stripe_key] = digest
            self.stats.bytes_discarded += block.length - kept
            device_bytes += kept
            if self.extent_log is not None:
                log_bytes += self.extent_log.append(msg.stripe_key, updates,
                                                    block.sn)

        def done(_ev) -> None:
            req.respond("ack", nbytes=CTRL_MSG_BYTES)

        self.device.write(device_bytes + log_bytes).callbacks.append(done)

    # ------------------------------------------------------------------ read
    def _read(self, req: Request, msg: IoReadMsg) -> None:
        self.stats.read_rpcs += 1

        def done(_ev) -> None:
            # The store is read at completion, not at dispatch: a write
            # applied while the device works is in the reply.
            data = None
            if self.track_content:
                data = self.store.read(msg.stripe_key, msg.offset,
                                       msg.length)
            req.respond(data, nbytes=msg.length + CTRL_MSG_BYTES)

        self.device.read(msg.length).callbacks.append(done)

    def _truncate(self, req: Request, msg: IoTruncateMsg) -> None:
        def done(_ev) -> None:
            self.store.object(msg.stripe_key).truncate(msg.size)
            emap = self.extent_cache.map_for(msg.stripe_key)
            emap.drop_where(lambda s, e, sn: s >= msg.size)
            req.respond("ack")

        self.device.write(0).callbacks.append(done)

    # -------------------------------------------------- extent-cache hooks
    def _query_msn(self, stripe_key: Hashable, extents) -> Generator:
        """Local RPC to the co-located DLM service (stripe and lock
        resource share an identifier and a node, Fig. 13).  With an HA
        cluster (``dlm_node_fn`` installed) the query instead retries
        against whichever node currently runs the stripe's sequencer, so
        cache cleaning survives a failover."""
        if self.dlm_node_fn is None:
            reply = yield rpc_call(self.node, self.node, "dlm",
                                   MsnQueryMsg(stripe_key, extents))
            return reply
        while True:
            reply = yield from rpc_call_retry(
                self.node, self.dlm_node_fn(stripe_key), "dlm",
                MsnQueryMsg(stripe_key, extents),
                policy=self.msn_retry, rng=self.msn_rng,
                dst_fn=lambda: self.dlm_node_fn(stripe_key))
            if isinstance(reply, WrongShardMsg):
                # The query raced a shard migration's drain window (the
                # authoritative map re-resolves after the epoch bump);
                # each pass costs a full RPC round trip, so the loop is
                # wire-paced until the migration commits.
                continue
            return reply

    def _force_sync(self, stripe_key: Hashable) -> Generator:
        """Acquire (and drop) a whole-range read lock to drain every
        client's dirty data for the stripe, then truncate its log."""
        if self.local_lock_client is None:
            return
        lock = yield from self.local_lock_client.lock(
            stripe_key, ((0, EOF),), LockMode.PR, for_write=False)
        self.local_lock_client.unlock(lock)
        yield from self.local_lock_client.cancel_all()
        if self.extent_log is not None:
            self.extent_log.truncate(stripe_key)

    # ---------------------------------------------------------------- crash
    def crash(self) -> None:
        """Volatile state vanishes; durable state (block store contents,
        the extent log) survives — the §IV-C2 model."""
        self.node.failed = True
        self.extent_cache.clear()
        self.service.reset_dedup()

    def recover(self) -> None:
        self.node.failed = False
        if self.extent_log is not None:
            for key in self.extent_log.stripe_keys():
                self.extent_cache.install(key, self.extent_log.replay(key))
