"""The ccPFS client: POSIX-style IO with implicit, transparent locking.

Like Lustre (and §IV of the paper), locking is folded into IO: a write
acquires per-stripe locks under the Fig. 10 selection rules, deposits the
data in the client cache tagged with each lock's SN, and returns — the
write is "done" when it is in the cache, which is what the paper's PIO
time measures.  Flushing happens asynchronously: on lock cancel, on the
voluntary-flush daemon's threshold (§IV-C1), or on an explicit fsync.

Multi-stripe writes take BW locks in ascending stripe order (deadlock-free
total order), preserving single-write atomicity across resources
(§III-B1); appends take PW whole-range locks on every stripe plus a
metadata size read (§III-B2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, Hashable, List, Optional, Tuple

from repro.dlm.client import ClientLock, LockClient
from repro.dlm.config import select_mode
from repro.dlm.extent import EOF, align_extent
from repro.dlm.types import LockMode
from repro.dlm.messages import FencedMsg
from repro.net.fabric import Node
from repro.net.rpc import (
    CTRL_MSG_BYTES,
    RetryPolicy,
    RpcTimeoutError,
    rpc_call,
    rpc_call_retry,
)
from repro.pfs.data_server import (
    IoReadMsg,
    IoSizeMsg,
    IoTruncateMsg,
    IoWriteMsg,
    WireBlock,
)
from repro.pfs.layout import StripeLayout
from repro.pfs.metadata import FileMeta, MetaOp
from repro.pfs.page_cache import ClientCache

__all__ = ["CcpfsClient", "FileHandle", "CcpfsClientStats"]


@dataclass
class FileHandle:
    """An open file: metadata snapshot plus layout."""

    meta: FileMeta
    layout: StripeLayout
    #: Highest byte this client has written (lazy size propagation).
    max_written: int = 0

    @property
    def fid(self) -> int:
        return self.meta.fid


@dataclass
class CcpfsClientStats:
    writes: int = 0
    reads: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    read_rpcs: int = 0
    flush_rpcs: int = 0
    flush_retries: int = 0
    #: Flushes abandoned after exhausting retries (dead/blacked-out
    #: sender or receiver; the blocks are dropped — post-eviction the
    #: server-side resolution owns those bytes).
    flush_failures: int = 0
    #: Flushes rejected by a data server because this client's
    #: incarnation was fenced (zombie writes stopped server-side).
    fenced_flushes: int = 0
    cache_read_hits: int = 0
    #: Simulated seconds spent inside write()/read() calls (the numerator
    #: of the paper's locking/IO ratio denominators).
    io_time: float = 0.0


class CcpfsClient:
    """One application-side ccPFS client (libccPFS instance)."""

    def __init__(self, node: Node, lock_client: LockClient,
                 cache: ClientCache, *,
                 data_server_for, metadata_node: Node,
                 page_size: int = 4096,
                 mem_bandwidth: float = 8.0e9,
                 flush_timeout: Optional[float] = None,
                 start_flush_daemon: bool = True,
                 flush_wire_cap: Optional[int] = None,
                 partial_page_rmw: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 rng=None):
        self.node = node
        self.sim = node.sim
        self.lock_client = lock_client
        self.cache = cache
        self.data_server_for = data_server_for
        self.metadata_node = metadata_node
        self.page_size = page_size
        self.mem_bandwidth = mem_bandwidth
        self.flush_timeout = flush_timeout
        #: Fig. 5 ablation: cap the bytes a flush RPC puts on the wire
        #: (the paper's hacked Lustre transfers only the first 4 KB page).
        self.flush_wire_cap = flush_wire_cap
        #: §III-B2: "in most PFSes a partial page write needs a
        #: synchronous page read and then an update".  ccPFS avoids this
        #: with sub-page SN extents (default False); enabling it models
        #: the conventional behaviour — unaligned writes become implicit
        #: reads, select PW, and fetch their boundary pages.
        self.partial_page_rmw = partial_page_rmw
        #: Optional timeout/backoff policy for all control RPCs; when set
        #: every request resends under :func:`rpc_call_retry` (for faulted
        #: runs — clean runs keep the zero-overhead plain calls).
        self.retry = retry
        self.rng = rng
        self.stats = CcpfsClientStats()
        self._open_handles: Dict[int, FileHandle] = {}
        #: In-flight voluntary-flush refcounts per stripe key; lock cancels
        #: wait these out so a release never precedes data durability.
        self._inflight: Dict[Hashable, int] = {}
        #: Per stripe key, the callers waiting for the flush gate, in
        #: arrival order.
        self._inflight_waiters: Dict[Hashable, Deque] = {}
        lock_client.set_flush_hooks(self._flush_for_lock, self._lock_dirty)
        lock_client.discard_fn = self._discard_for_locks
        self._daemon = None
        if start_flush_daemon:
            self._daemon = self.sim.spawn(self._flush_daemon(),
                                          name=f"{node.name}-flushd")

    # ------------------------------------------------------------------ rpc
    def _call(self, dst: Node, service: str, payload,
              nbytes: int = CTRL_MSG_BYTES) -> Generator:
        """One control RPC, retried under ``self.retry`` when configured."""
        if self.retry is None:
            reply = yield rpc_call(self.node, dst, service, payload,
                                   nbytes=nbytes)
        else:
            reply = yield from rpc_call_retry(
                self.node, dst, service, payload, nbytes=nbytes,
                policy=self.retry, rng=self.rng)
        return reply

    # ----------------------------------------------------------------- open
    def open(self, path: str, create: bool = False,
             stripe_count: Optional[int] = None,
             stripe_size: Optional[int] = None) -> Generator:
        """Open (optionally creating) a file; returns a FileHandle."""
        op = MetaOp(op="create" if create else "open", path=path,
                    stripe_count=stripe_count, stripe_size=stripe_size)
        meta = yield from self._call(self.metadata_node, "meta", op)
        if meta is None or isinstance(meta, Exception):
            raise FileNotFoundError(path)
        fh = FileHandle(meta=meta, layout=StripeLayout(
            meta.stripe_count, meta.stripe_size), max_written=meta.size)
        self._open_handles[meta.fid] = fh
        return fh

    # ---------------------------------------------------------------- write
    def write(self, fh: FileHandle, offset: int,
              data: Optional[bytes] = None, nbytes: Optional[int] = None,
              forced_mode: Optional[LockMode] = None) -> Generator:
        """Write ``data`` (or ``nbytes`` of untracked content) at
        ``offset``; returns when the data is in the client cache."""
        if nbytes is None:
            nbytes = len(data) if data is not None else 0
        if nbytes == 0:
            return 0
        t0 = self.sim.now
        gate = self.cache.gate
        if not gate.is_open:
            yield gate.wait()  # §IV-C1 max-dirty back-pressure
        # Stage the data into registered cache pages *before* locking —
        # only the extent insertion happens under the lock, so conflicting
        # writers' copies overlap (the memory-pool design of §IV).
        yield from self._charge_copy(nbytes)

        per_stripe = fh.layout.stripe_extents(offset, nbytes)
        implicit = self.partial_page_rmw and (
            offset % self.page_size != 0
            or (offset + nbytes) % self.page_size != 0)
        mode = select_mode(is_read=False, implicit_read=implicit,
                           multi_resource=len(per_stripe) > 1,
                           forced=forced_mode)
        locks = yield from self._acquire(fh, per_stripe, mode,
                                         for_write=True)
        if implicit and forced_mode is None:
            yield from self._rmw_boundary_pages(fh, offset, nbytes, locks)
        self._deposit(fh, offset, data, nbytes, locks)
        self._release(locks)
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        self.stats.io_time += self.sim.now - t0
        return nbytes

    def _rmw_boundary_pages(self, fh: FileHandle, offset: int,
                            nbytes: int,
                            locks: Dict[int, ClientLock]) -> Generator:
        """Conventional read-modify-write: synchronously fetch the
        unaligned boundary pages before updating them (§III-B2)."""
        ps = self.page_size
        pages = set()
        if offset % ps:
            pages.add((offset // ps) * ps)
        end = offset + nbytes
        if end % ps:
            pages.add((end // ps) * ps)
        for page_off in sorted(pages):
            for frag in fh.layout.map_extent(page_off, ps):
                key = (fh.fid, frag.stripe)
                _data, missing = self.cache.read(key, frag.local_offset,
                                                 frag.length)
                server = self.data_server_for(key)
                for ms, me in missing:
                    reply = yield from self._call(server, "io",
                                                  IoReadMsg(key, ms, me - ms))
                    self.stats.read_rpcs += 1
                    self.cache.insert_clean(key, ms, me - ms,
                                            locks[frag.stripe].sn, reply)

    def _charge_copy(self, nbytes: int) -> Generator:
        """Pay the memory-bandwidth cost of staging ``nbytes`` into the
        cache's registered page pool (outside any lock)."""
        if self.mem_bandwidth != float("inf") and nbytes:
            yield nbytes / self.mem_bandwidth

    def _deposit(self, fh: FileHandle, offset: int, data: Optional[bytes],
                 nbytes: int, locks: Dict[int, ClientLock]) -> None:
        """Insert staged data into the cache under already-held
        per-stripe locks (pure bookkeeping: the copy was paid up front)."""
        for frag in fh.layout.map_extent(offset, nbytes):
            piece = None
            if data is not None:
                rel = frag.file_offset - offset
                piece = data[rel:rel + frag.length]
            self.cache.write((fh.fid, frag.stripe), frag.local_offset,
                             frag.length, locks[frag.stripe].sn, piece)
        fh.max_written = max(fh.max_written, offset + nbytes)

    # ------------------------------------------------------------ lockahead
    def lock_ahead(self, fh: FileHandle, extents, mode: LockMode =
                   LockMode.PW) -> Generator:
        """Lustre-lockahead-style pre-acquisition (Moore et al., the
        paper's [12]): the application declares its future write extents
        and acquires precise, unexpanded locks for them up front, so the
        later writes are pure cache hits.

        This is the "reduce lock conflicts" alternative the paper
        contrasts SeqDLM with: it works brilliantly for disjoint strided
        patterns but requires application knowledge of the IO pattern
        and collapses under overlapping IO (see ``ext_lockahead``).
        Use with a no-expansion DLM config (e.g. ``dlm-datatype``) and
        ``page_size=1`` so the declared extents stay precise.
        """
        count = 0
        for offset, nbytes in extents:
            per_stripe = fh.layout.stripe_extents(offset, nbytes)
            for stripe in sorted(per_stripe):
                lock = yield from self.lock_client.lock(
                    (fh.fid, stripe), (per_stripe[stripe],), mode,
                    for_write=True)
                self.lock_client.unlock(lock)  # cached for the writes
                count += 1
        return count

    # ------------------------------------------------------------ vectored
    def write_vector(self, fh: FileHandle, ops, atomic: bool = True,
                     forced_mode: Optional[LockMode] = None) -> Generator:
        """Atomic non-contiguous write: ``ops`` is a list of
        ``(offset, data_or_nbytes)`` pairs (the Tile-IO shape, §V-D).

        Lock shape depends on the DLM: datatype locks carry the precise
        per-stripe extent lists (Ching et al.); extent DLMs take one
        minimum covering range per stripe — SeqDLM's rule in §V-D.  With
        several stripes involved and atomicity requested, writes use BW.
        """
        norm = []
        total = 0
        for offset, payload in ops:
            if isinstance(payload, (bytes, bytearray)):
                norm.append((offset, bytes(payload), len(payload)))
            else:
                norm.append((offset, None, int(payload)))
            total += norm[-1][2]
        if not norm:
            return 0
        t0 = self.sim.now
        gate = self.cache.gate
        if not gate.is_open:
            yield gate.wait()
        yield from self._charge_copy(total)

        # Per-stripe extent shape.
        datatype = self.lock_client.config.datatype_locks
        per_stripe: Dict[int, list] = {}
        for offset, _data, nbytes in norm:
            for stripe, ext in fh.layout.stripe_extents(offset,
                                                        nbytes).items():
                per_stripe.setdefault(stripe, []).append(ext)
        mode = select_mode(is_read=False, implicit_read=False,
                           multi_resource=atomic and len(per_stripe) > 1,
                           forced=forced_mode)
        locks: Dict[int, ClientLock] = {}
        for stripe in sorted(per_stripe):
            exts = per_stripe[stripe]
            if datatype:
                merged = []
                for s, e in sorted(exts):
                    if merged and s <= merged[-1][1]:
                        merged[-1] = (merged[-1][0], max(merged[-1][1], e))
                    else:
                        merged.append((s, e))
                extents = tuple(merged)
            else:
                lo = min(s for s, _e in exts)
                hi = max(e for _s, e in exts)
                extents = (align_extent((lo, hi), self.page_size),)
            locks[stripe] = yield from self.lock_client.lock(
                (fh.fid, stripe), extents, mode, for_write=True)
        for offset, data, nbytes in norm:
            self._deposit(fh, offset, data, nbytes, locks)
        self._release(locks)
        self.stats.writes += 1
        self.stats.bytes_written += total
        self.stats.io_time += self.sim.now - t0
        return total

    # ----------------------------------------------------------------- read
    def read(self, fh: FileHandle, offset: int, nbytes: int,
             forced_mode: Optional[LockMode] = None) -> Generator:
        """Read ``nbytes`` at ``offset``; returns the bytes (or None when
        content tracking is off)."""
        if nbytes == 0:
            return b""
        t0 = self.sim.now
        per_stripe = fh.layout.stripe_extents(offset, nbytes)
        mode = select_mode(is_read=True, forced=forced_mode)
        locks = yield from self._acquire(fh, per_stripe, mode,
                                         for_write=False)
        out = bytearray(nbytes) if self.cache.track_content else None
        for frag in fh.layout.map_extent(offset, nbytes):
            key = (fh.fid, frag.stripe)
            _data, missing = self.cache.read(key, frag.local_offset,
                                             frag.length)
            if missing:
                server = self.data_server_for(key)
                for ms, me in missing:
                    reply = yield from self._call(
                        server, "io", IoReadMsg(key, ms, me - ms))
                    self.stats.read_rpcs += 1
                    self.cache.insert_clean(key, ms, me - ms,
                                            locks[frag.stripe].sn, reply)
            else:
                self.stats.cache_read_hits += 1
            if self.mem_bandwidth != float("inf"):
                yield frag.length / self.mem_bandwidth
            if out is not None:
                data, _still = self.cache.read(key, frag.local_offset,
                                               frag.length)
                rel = frag.file_offset - offset
                out[rel:rel + frag.length] = data
        self._release(locks)
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        self.stats.io_time += self.sim.now - t0
        return bytes(out) if out is not None else None

    # --------------------------------------------------------------- append
    def append(self, fh: FileHandle, data: Optional[bytes] = None,
               nbytes: Optional[int] = None) -> Generator:
        """Atomic append: PW whole-range locks on every stripe (the
        implicit size read makes this a read-update op, §III-B2)."""
        if nbytes is None:
            nbytes = len(data) if data is not None else 0
        whole = {s: (0, EOF) for s in range(fh.layout.stripe_count)}
        locks = yield from self._acquire(fh, whole, LockMode.PW,
                                         for_write=True, aligned=False)
        meta = yield from self._call(self.metadata_node, "meta",
                                     MetaOp(op="stat", fid=fh.fid))
        # Glimpse: under the held PW locks every *other* client's cache has
        # been flushed, so the data servers plus our own local view give
        # the true size even when the MDS is lazily updated.
        stripe_sizes = {}
        for stripe in range(fh.layout.stripe_count):
            key = (fh.fid, stripe)
            stripe_sizes[stripe] = yield from self._call(
                self.data_server_for(key), "io", IoSizeMsg(key))
        size = max(meta.size, fh.max_written,
                   fh.layout.file_size_from_stripe_sizes(stripe_sizes))
        # Deposit under the held PW locks — never re-acquire mid-operation,
        # a revocation in between would deadlock the op against itself.
        yield from self._charge_copy(nbytes)
        self._deposit(fh, size, data, nbytes, locks)
        yield from self._call(self.metadata_node, "meta",
                              MetaOp(op="set_size", fid=fh.fid,
                                     size=size + nbytes))
        self._release(locks)
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        return size

    # -------------------------------------------------------------- truncate
    def truncate(self, fh: FileHandle, size: int) -> Generator:
        """Truncate to ``size`` under PW whole-range locks."""
        whole = {s: (0, EOF) for s in range(fh.layout.stripe_count)}
        locks = yield from self._acquire(fh, whole, LockMode.PW,
                                         for_write=True, aligned=False)
        acks = []
        for stripe in range(fh.layout.stripe_count):
            key = (fh.fid, stripe)
            local = fh.layout.stripe_local_size(stripe, size)
            # Retained bytes must be durable before the cut; the cut tail
            # is simply dropped from the cache.
            yield from self._flush_key(key, ((0, local),))
            self.cache.invalidate(key, ((local, EOF),))
            acks.append(self.sim.spawn(self._call(
                self.data_server_for(key), "io", IoTruncateMsg(key, local))))
        yield self.sim.all_of(acks)
        yield from self._call(self.metadata_node, "meta",
                              MetaOp(op="truncate", fid=fh.fid, size=size))
        fh.meta.size = size
        fh.max_written = min(fh.max_written, size)
        self._release(locks)

    # ----------------------------------------------------------------- fsync
    def fsync(self, fh: FileHandle) -> Generator:
        """Flush every dirty byte of the file to the data servers, then
        push the size to metadata."""
        procs = []
        for stripe in range(fh.layout.stripe_count):
            key = (fh.fid, stripe)
            procs.append(self.sim.spawn(
                self._flush_key(key, ((0, EOF),))))
        if procs:
            yield self.sim.all_of(procs)
        yield from self._call(self.metadata_node, "meta",
                              MetaOp(op="set_size", fid=fh.fid,
                                     size=fh.max_written))

    def flush_all(self) -> Generator:
        """Flush every dirty byte this client holds (any file)."""
        procs = [self.sim.spawn(self._flush_key(key, ((0, EOF),)))
                 for key in self.cache.dirty_keys()]
        if procs:
            yield self.sim.all_of(procs)

    def file_size(self, fh: FileHandle) -> Generator:
        meta = yield from self._call(self.metadata_node, "meta",
                                     MetaOp(op="stat", fid=fh.fid))
        return meta.size if meta else 0

    def close(self, fh: FileHandle) -> Generator:
        """Close: flush the file's dirty data (locks stay cached, as in
        Lustre)."""
        yield from self.fsync(fh)
        self._open_handles.pop(fh.fid, None)

    # ------------------------------------------------------------- lock glue
    def _acquire(self, fh: FileHandle, per_stripe: Dict[int, Tuple[int, int]],
                 mode: LockMode, for_write: bool,
                 aligned: bool = True) -> Generator:
        """Take per-stripe locks in ascending stripe order (deadlock-free
        total order for multi-resource operations)."""
        locks: Dict[int, ClientLock] = {}
        for stripe in sorted(per_stripe):
            ext = per_stripe[stripe]
            if aligned:
                ext = align_extent(ext, self.page_size)
            locks[stripe] = yield from self.lock_client.lock(
                (fh.fid, stripe), (ext,), mode, for_write=for_write)
        return locks

    def _release(self, locks: Dict[int, ClientLock]) -> None:
        for stripe in sorted(locks, reverse=True):
            self.lock_client.unlock(locks[stripe])

    # ------------------------------------------------------------ flush path
    def _lock_dirty(self, lock: ClientLock) -> bool:
        return self.cache.has_dirty(lock.resource_id, lock.extents)

    def _flush_for_lock(self, lock: ClientLock) -> Generator:
        """LockClient cancel hook: flush the lock's dirty data, then drop
        the now-unprotected cached bytes."""
        yield from self._flush_key(lock.resource_id, lock.extents)
        # Drop only what this lock protected: data written meanwhile under
        # a newer lock (higher SN) must survive in the cache.
        self.cache.invalidate(lock.resource_id, lock.extents,
                              up_to_sn=lock.sn)

    def _discard_for_locks(self, locks: List[ClientLock]) -> None:
        """LockClient rejoin hook: the eviction reclaimed these grants, so
        every cached byte under them — dirty included — is dead weight;
        flushing it later would be exactly the zombie write the fence
        rejects."""
        for lock in locks:
            self.cache.invalidate(lock.resource_id, lock.extents,
                                  up_to_sn=lock.sn)

    def _flush_key(self, key: Hashable, extents) -> Generator:
        # Wait out any in-flight voluntary flush of the same stripe so a
        # lock release never overtakes its data.  Waiters take turns in
        # arrival order: a finished flush wakes the first one only.
        turn = False
        while self._inflight.get(key, 0) > 0:
            # A caller whose turn came but found the gate taken again
            # (a newcomer got there first) keeps its place at the head.
            yield from self._wait_flush_turn(key, first=turn)
            turn = True
        blocks = self.cache.extract_dirty(key, tuple(extents))
        if not blocks:
            if turn:
                self._pass_flush_turn(key)
            return
        self._inflight[key] = self._inflight.get(key, 0) + 1
        try:
            yield from self._send_blocks(key, blocks)
        finally:
            self._inflight[key] -= 1
            if self._inflight[key] == 0:
                self._pass_flush_turn(key)

    def _wait_flush_turn(self, key: Hashable, first: bool) -> Generator:
        """Park in ``key``'s flush-gate queue until handed the turn."""
        ev = self.sim.event()
        waiters = self._inflight_waiters.setdefault(key, deque())
        if first:
            waiters.appendleft(ev)
        else:
            waiters.append(ev)
        try:
            yield ev
        except BaseException:
            # Interrupted (a killed client's application): give up the
            # place, or hand on the turn if it had already come.
            if ev.triggered:
                self._pass_flush_turn(key)
            else:
                waiters.remove(ev)
            raise

    def _pass_flush_turn(self, key: Hashable) -> None:
        """Wake the first waiter of ``key``'s flush gate, if any."""
        waiters = self._inflight_waiters.get(key)
        if waiters:
            waiters.popleft().succeed()
            if not waiters:
                del self._inflight_waiters[key]

    def _send_blocks(self, key: Hashable, blocks) -> Generator:
        msg = IoWriteMsg(key, [WireBlock(b.offset, b.length, b.sn, b.data)
                               for b in blocks],
                         client_name=self.node.name,
                         incarnation=self.lock_client.incarnation)
        server = self.data_server_for(key)
        wire = msg.nbytes
        if self.flush_wire_cap is not None:
            wire = min(wire, self.flush_wire_cap)
        if self.retry is not None:
            # Faulted runs: back off with the shared policy; the server
            # dedups the req_id so a re-executed flush is harmless anyway
            # (extent-cache merges are SN-idempotent).
            self.stats.flush_rpcs += 1
            try:
                reply = yield from rpc_call_retry(
                    self.node, server, "io", msg, nbytes=wire,
                    policy=self.retry, rng=self.rng,
                    on_retry=self._count_flush_retry)
            except RpcTimeoutError:
                # Retry budget exhausted — this sender is blacked out (or
                # the server is gone beyond its recovery window).  Drop
                # the blocks: if we were evicted meanwhile, the server
                # already resolved these extents; re-raising would tear
                # down the flush daemon with us.
                self.stats.flush_failures += 1
                return
            self._check_flush_reply(reply)
            return
        while True:
            self.stats.flush_rpcs += 1
            future = rpc_call(self.node, server, "io", msg, nbytes=wire)
            if self.flush_timeout is None:
                reply = yield future
                self._check_flush_reply(reply)
                return
            res = yield self.sim.any_of(
                [future, self.sim.timeout(self.flush_timeout,
                                          value="__timeout__")])
            if "__timeout__" not in res.values():
                self._check_flush_reply(res[future])
                return
            # Redo the flush RPC (§IV-C2: clients redo unacked flushes).
            self.stats.flush_retries += 1

    def _check_flush_reply(self, reply) -> None:
        if isinstance(reply, FencedMsg):
            self.stats.fenced_flushes += 1
            self.lock_client.note_fenced(reply)

    def _count_flush_retry(self, _attempt: int) -> None:
        self.stats.flush_rpcs += 1
        self.stats.flush_retries += 1

    def _flush_daemon(self) -> Generator:
        """§IV-C1 voluntary flusher: runs whenever dirty >= min_dirty."""
        while True:
            yield self.cache.flush_signal.wait()
            procs = [self.sim.spawn(self._flush_key(key, ((0, EOF),)))
                     for key in self.cache.dirty_keys()]
            if procs:
                yield self.sim.all_of(procs)
            else:
                # Nothing extractable right now; avoid a busy spin.
                yield 1e-4

