"""The ccPFS client cache (Fig. 14 and §IV-C1).

Written data enters the cache tagged with the SN of the granting lock;
insertion is newest-SN-wins, resolving client-cache conflicts between an
old CANCELING lock's data and a new lock's data (Fig. 14).  The cache
tracks, per ``(fid, stripe)``:

* ``versions`` — an :class:`~repro.dlm.extent.ExtentMap` of every cached
  byte's SN (clean or dirty); this is the read-validity map;
* ``dirty`` — the subset not yet flushed, also SN-tagged; flush extraction
  slices these into wire blocks;
* optionally the actual bytes (disabled for pure-performance runs, where
  only the extent bookkeeping matters).

Durability thresholds (§IV-C1): when dirty bytes reach ``min_dirty`` the
owning client's daemon flushes voluntarily; at ``max_dirty`` the write
gate closes and new writes block until flushes drain the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro._compat import DATACLASS_KW
from repro.dlm.extent import Extent, ExtentMap
from repro.pfs.content import (
    CONTENT_CHECKSUM,
    CONTENT_FULL,
    fold_update,
    payload_crc,
    resolve_content_mode,
)
from repro.sim.core import Simulator
from repro.sim.sync import Gate
from repro.storage.blockstore import StripeObject

__all__ = ["ClientCache", "FlushBlock", "StripeCacheEntry"]


@dataclass(**DATACLASS_KW)
class FlushBlock:
    """One dirty piece headed for a data server."""

    offset: int  # stripe-local
    length: int
    sn: int
    data: Optional[bytes]  # None unless content mode is "full"


@dataclass(**DATACLASS_KW)
class StripeCacheEntry:
    versions: ExtentMap = field(default_factory=ExtentMap)
    dirty: ExtentMap = field(default_factory=ExtentMap)
    content: Optional[StripeObject] = None


class ClientCache:
    """Per-client page cache over all files/stripes it touches."""

    def __init__(self, sim: Simulator, track_content: bool = True,
                 min_dirty: int = 256 * 1024 * 1024,
                 max_dirty: int = 4 * 1024 * 1024 * 1024,
                 max_cached: Optional[int] = None,
                 content_mode: Optional[str] = None):
        if not (0 < min_dirty <= max_dirty):
            raise ValueError("need 0 < min_dirty <= max_dirty")
        if max_cached is not None and max_cached < max_dirty:
            raise ValueError("max_cached must be >= max_dirty")
        self.sim = sim
        self.content_mode = resolve_content_mode(track_content, content_mode)
        #: Back-compat bool: only "full" mode materializes byte buffers.
        self.track_content = self.content_mode == CONTENT_FULL
        self._checksum = self.content_mode == CONTENT_CHECKSUM
        #: Rolling CRC32 per stripe of the accepted write stream
        #: (checksum mode only); see :mod:`repro.pfs.content`.
        self._digests: Dict[Hashable, int] = {}
        self.min_dirty = min_dirty
        self.max_dirty = max_dirty
        #: §IV memory pool: total cached bytes (clean + dirty) above which
        #: clean extents are reclaimed, LRU by stripe.  None = unbounded.
        self.max_cached = max_cached
        self._entries: Dict[Hashable, StripeCacheEntry] = {}
        self._dirty_bytes = 0
        #: Closed while dirty bytes exceed ``max_dirty``; writers wait on it.
        self.gate = Gate(sim, open_=True)
        #: Signalled (opened) whenever dirty bytes cross ``min_dirty``;
        #: the flush daemon waits on it.
        self.flush_signal = Gate(sim, open_=False)
        # LRU order of stripe keys for clean-page reclamation.
        self._lru: Dict[Hashable, None] = {}
        # Counters.
        self.bytes_written = 0
        self.bytes_flushed = 0
        self.bytes_evicted = 0
        self.read_hits = 0
        self.read_misses = 0
        self.invalidations = 0

    # -------------------------------------------------------------- helpers
    def _entry(self, key: Hashable) -> StripeCacheEntry:
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = StripeCacheEntry(
                content=StripeObject() if self.track_content else None)
        # Move-to-back LRU touch.
        self._lru.pop(key, None)
        self._lru[key] = None
        return entry

    @property
    def cached_bytes(self) -> int:
        """Total cached (clean + dirty) bytes across all stripes."""
        return sum(e.versions.covered_bytes()
                   for e in self._entries.values())

    def _reclaim(self) -> None:
        """Evict clean extents, least-recently-used stripe first, until
        the pool fits under ``max_cached`` (the §IV page reclamation)."""
        if self.max_cached is None:
            return
        excess = self.cached_bytes - self.max_cached
        if excess <= 0:
            return
        for key in list(self._lru):
            if excess <= 0:
                break
            entry = self._entries.get(key)
            if entry is None:
                self._lru.pop(key, None)
                continue
            # Clean bytes = versions minus dirty; evict whole clean runs.
            for s0, e0, _sn in list(entry.versions.entries()):
                if excess <= 0:
                    break
                # Skip any piece that overlaps dirty data.
                dirty_parts = entry.dirty.overlapping(s0, e0)
                if dirty_parts:
                    continue
                entry.versions.extract(s0, e0)
                freed = e0 - s0
                excess -= freed
                self.bytes_evicted += freed

    @property
    def dirty_bytes(self) -> int:
        return self._dirty_bytes

    def keys(self) -> List[Hashable]:
        return list(self._entries.keys())

    def digest(self, key: Hashable) -> int:
        """Rolling write-stream CRC32 for one stripe (checksum mode)."""
        return self._digests.get(key, 0)

    def digests(self) -> Dict[Hashable, int]:
        return dict(self._digests)

    def dirty_keys(self) -> List[Hashable]:
        return [k for k, e in self._entries.items() if len(e.dirty)]

    def _dirty_delta(self, entry: StripeCacheEntry, before: int) -> None:
        self._dirty_bytes += entry.dirty.covered_bytes() - before
        if self._dirty_bytes >= self.max_dirty:
            self.gate.close()
        else:
            self.gate.open()
        if self._dirty_bytes >= self.min_dirty:
            self.flush_signal.open()

    # ---------------------------------------------------------------- write
    def write(self, key: Hashable, offset: int, length: int, sn: int,
              data: Optional[bytes] = None) -> int:
        """Insert written data at ``sn`` (newest-SN-wins); returns how many
        bytes actually updated the cache (older-than-cached parts are
        discarded, Fig. 14)."""
        entry = self._entry(key)
        before = entry.dirty.covered_bytes()
        updates = entry.versions.merge(offset, offset + length, sn)
        written = 0
        content = entry.content
        # One memoryview up front: per-update slices below are then
        # zero-copy views, not bytes copies.
        mv = memoryview(data) if data is not None else None
        digest = self._digests.get(key, 0) if self._checksum else 0
        for s, e in updates:
            entry.dirty.merge(s, e, sn)
            written += e - s
            if content is not None and mv is not None:
                content.write(s, mv[s - offset:e - offset])
            elif self._checksum:
                digest = fold_update(
                    digest, s, e, sn,
                    payload_crc(mv[s - offset:e - offset])
                    if mv is not None else 0)
        if self._checksum:
            self._digests[key] = digest
        self.bytes_written += written
        self._dirty_delta(entry, before)
        self._reclaim()
        return written

    def insert_clean(self, key: Hashable, offset: int, length: int, sn: int,
                     data: Optional[bytes] = None) -> None:
        """Cache data fetched from a data server (read path); never marks
        it dirty."""
        entry = self._entry(key)
        updates = entry.versions.merge(offset, offset + length, sn)
        if entry.content is not None and data is not None:
            mv = memoryview(data)
            for s, e in updates:
                entry.content.write(s, mv[s - offset:e - offset])
        self._reclaim()

    # ----------------------------------------------------------------- read
    def read(self, key: Hashable, offset: int,
             length: int) -> Tuple[Optional[bytes], List[Extent]]:
        """Return ``(data, missing)``.  ``missing`` lists the sub-extents
        not present in the cache; ``data`` is the (possibly partially
        stale-filled) content buffer, or None without content tracking."""
        entry = self._entries.get(key)
        if entry is None:
            self.read_misses += 1
            return None, [(offset, offset + length)]
        missing = entry.versions.gaps(offset, offset + length)
        if missing:
            self.read_misses += 1
        else:
            self.read_hits += 1
        data = None
        if entry.content is not None:
            data = entry.content.read(offset, length)
        return data, missing

    def covers(self, key: Hashable, offset: int, length: int) -> bool:
        entry = self._entries.get(key)
        return entry is not None and entry.versions.covers(offset,
                                                           offset + length)

    # ---------------------------------------------------------------- flush
    def extract_dirty(self, key: Hashable,
                      extents: Tuple[Extent, ...]) -> List[FlushBlock]:
        """Remove and return the dirty pieces under ``extents`` (a lock's
        range at cancel, or everything for fsync)."""
        entry = self._entries.get(key)
        if entry is None:
            return []
        before = entry.dirty.covered_bytes()
        blocks: List[FlushBlock] = []
        for s0, e0 in extents:
            for s, e, sn in entry.dirty.extract(s0, e0):
                data = None
                if entry.content is not None:
                    data = entry.content.read(s, e - s)
                blocks.append(FlushBlock(s, e - s, sn, data))
        flushed = sum(b.length for b in blocks)
        self.bytes_flushed += flushed
        self._dirty_delta(entry, before)
        if self._dirty_bytes < self.min_dirty:
            self.flush_signal.close()
        return blocks

    def restore_dirty(self, key: Hashable, blocks: List[FlushBlock]) -> None:
        """Put extracted blocks back (failed flush, §IV-C2 redo path)."""
        entry = self._entry(key)
        before = entry.dirty.covered_bytes()
        for b in blocks:
            entry.dirty.merge(b.offset, b.offset + b.length, b.sn)
            entry.versions.merge(b.offset, b.offset + b.length, b.sn)
            if entry.content is not None and b.data is not None:
                entry.content.write(b.offset, b.data)
        self.bytes_flushed -= sum(b.length for b in blocks)
        self._dirty_delta(entry, before)

    def has_dirty(self, key: Hashable,
                  extents: Tuple[Extent, ...]) -> bool:
        entry = self._entries.get(key)
        if entry is None:
            return False
        return any(entry.dirty.overlapping(s, e) for s, e in extents)

    # ----------------------------------------------------------- invalidate
    def invalidate(self, key: Hashable, extents: Tuple[Extent, ...],
                   up_to_sn: Optional[int] = None) -> None:
        """Drop cached data under a lock being released — cached contents
        are only valid while a covering lock is held.

        ``up_to_sn`` limits the drop to data at or below that SN: a lock
        cancel must never discard bytes written under a *newer* lock whose
        (unexpanded) range overlaps the canceled lock's expanded range.
        """
        self.invalidations += 1
        entry = self._entries.get(key)
        if entry is None:
            return
        before = entry.dirty.covered_bytes()
        for s, e in extents:
            for ts, te, tsn in entry.versions.extract(s, e):
                if up_to_sn is not None and tsn > up_to_sn:
                    entry.versions.merge(ts, te, tsn)  # newer lock's data
            for ts, te, tsn in entry.dirty.extract(s, e):
                if up_to_sn is not None and tsn > up_to_sn:
                    entry.dirty.merge(ts, te, tsn)
        self._dirty_delta(entry, before)

    def drop_all(self) -> None:
        """Crash simulation: volatile cache contents disappear."""
        self._entries.clear()
        self._lru.clear()
        self._digests.clear()
        self._dirty_bytes = 0
        self.gate.open()
        self.flush_signal.close()
