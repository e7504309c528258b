"""Byte-extent algebra and the SN-tagged extent map.

Extents are half-open ``[start, end)`` byte ranges; ``EOF`` is the paper's
"End Of File" expansion target (a lock expanded to EOF covers every byte
the file may ever grow to).

:class:`ExtentMap` is the load-bearing data structure of the whole system
— the paper uses the *same* sequence-number bookkeeping on both sides of
the wire:

* the **client cache** inserts written data newest-SN-wins (Fig. 14);
* the **data server extent cache** merges incoming flush blocks against
  the maximum SN already written and derives the *update set* — the parts
  that actually reach the device (Fig. 15).

The map stores sorted, non-overlapping ``(start, end, sn)`` entries in
parallel lists with ``bisect`` lookups; adjacent equal-SN entries are
coalesced, mirroring the paper's 48-byte-entry cache with merging.  It
also keeps a running count of covered bytes, updated by each mutator from
the pieces it already walks, so :meth:`ExtentMap.covered_bytes` is O(1).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, List, Optional, Tuple

__all__ = ["EOF", "Extent", "ExtentMap", "align_extent", "overlaps",
           "intersect", "span"]

#: Expansion target for "expand the end of the lock range to EOF".
EOF = 1 << 62

#: An extent is a plain ``(start, end)`` tuple, half-open.
Extent = Tuple[int, int]


def overlaps(a: Extent, b: Extent) -> bool:
    """Whether two half-open extents share at least one byte."""
    return max(a[0], b[0]) < min(a[1], b[1])


def intersect(a: Extent, b: Extent) -> Optional[Extent]:
    """Intersection of two extents, or None if disjoint."""
    s, e = max(a[0], b[0]), min(a[1], b[1])
    return (s, e) if s < e else None


def span(extents: Iterable[Extent]) -> Optional[Extent]:
    """Minimal single extent covering all of ``extents`` (the paper's
    Tile-IO rule: SeqDLM locks the minimum covering range, §V-D)."""
    lo, hi = None, None
    for s, e in extents:
        lo = s if lo is None else min(lo, s)
        hi = e if hi is None else max(hi, e)
    if lo is None:
        return None
    return (lo, hi)


def align_extent(extent: Extent, granularity: int) -> Extent:
    """Round an extent outward to ``granularity`` (the 4 KB lock alignment
    that makes the paper's 47,008-byte writes conflict, §V-C2)."""
    if granularity <= 0:
        raise ValueError(f"granularity must be > 0, got {granularity}")
    s, e = extent
    s = (s // granularity) * granularity
    e = ((e + granularity - 1) // granularity) * granularity
    # Never align past EOF (EOF is a sentinel, not a real offset).
    return (s, min(e, EOF))


def _coalesce(pieces: List[Extent]) -> List[Extent]:
    """Merge touching/overlapping extents of an in-order piece list."""
    out: List[Extent] = []
    for s, e in pieces:
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


class ExtentMap:
    """Sorted, non-overlapping ``(start, end, sn)`` entries, plus a
    running count of the bytes they cover."""

    __slots__ = ("_starts", "_ends", "_sns", "_covered")

    def __init__(self):
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._sns: List[int] = []
        self._covered = 0

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._starts)

    def entries(self) -> List[Tuple[int, int, int]]:
        return list(zip(self._starts, self._ends, self._sns))

    def covered_bytes(self) -> int:
        return self._covered

    def _check_invariants(self) -> None:
        """Debug/property-test hook: sorted, non-overlapping, non-empty,
        and the running byte count equals a re-sum of the entries."""
        prev_end = -1
        for s, e in zip(self._starts, self._ends):
            assert s < e, "empty entry"
            assert s >= prev_end, "overlap or disorder"
            prev_end = e
        assert self._covered == sum(
            e - s for s, e in zip(self._starts, self._ends)), \
            "covered-byte count drifted"

    # -- window location ----------------------------------------------------
    def _window(self, start: int, end: int) -> Tuple[int, int]:
        """Indices ``[lo, hi)`` of entries overlapping ``[start, end)``."""
        lo = bisect_right(self._ends, start)
        hi = bisect_left(self._starts, end, lo=lo)
        return lo, hi

    # -- queries --------------------------------------------------------------
    def overlapping(self, start: int, end: int) -> List[Tuple[int, int, int]]:
        lo, hi = self._window(start, end)
        return [(self._starts[k], self._ends[k], self._sns[k])
                for k in range(lo, hi)]

    def max_sn(self, start: int, end: int) -> Optional[int]:
        """Largest SN recorded anywhere in ``[start, end)``."""
        lo, hi = self._window(start, end)
        if lo == hi:
            return None
        return max(self._sns[lo:hi])

    def gaps(self, start: int, end: int) -> List[Extent]:
        """Sub-extents of ``[start, end)`` with no entry (cache misses)."""
        out: List[Extent] = []
        cur = start
        for s, e, _sn in self.overlapping(start, end):
            if s > cur:
                out.append((cur, s))
            cur = max(cur, e)
        if cur < end:
            out.append((cur, end))
        return out

    def covers(self, start: int, end: int) -> bool:
        return not self.gaps(start, end)

    # -- mutation -----------------------------------------------------------
    def _replace(self, lo: int, hi: int,
                 entries: List[Tuple[int, int, int]]) -> None:
        """Splice ``entries`` (in order, non-overlapping) over window
        ``[lo, hi)``, coalescing equal-SN touching entries including the
        window's outer neighbours."""
        merged: List[Tuple[int, int, int]] = []
        for s, e, sn in entries:
            if s >= e:
                continue
            if merged and merged[-1][1] == s and merged[-1][2] == sn:
                merged[-1] = (merged[-1][0], e, sn)
            else:
                merged.append((s, e, sn))
        # Coalesce with the left neighbour.
        if merged and lo > 0:
            ps, pe, psn = self._starts[lo - 1], self._ends[lo - 1], self._sns[lo - 1]
            if pe == merged[0][0] and psn == merged[0][2]:
                merged[0] = (ps, merged[0][1], psn)
                lo -= 1
        # Coalesce with the right neighbour.
        if merged and hi < len(self._starts):
            ns, ne, nsn = self._starts[hi], self._ends[hi], self._sns[hi]
            if merged[-1][1] == ns and merged[-1][2] == nsn:
                merged[-1] = (merged[-1][0], ne, nsn)
                hi += 1
        self._starts[lo:hi] = [m[0] for m in merged]
        self._ends[lo:hi] = [m[1] for m in merged]
        self._sns[lo:hi] = [m[2] for m in merged]

    def merge(self, start: int, end: int, sn: int) -> List[Extent]:
        """Insert ``[start, end)`` at ``sn`` newest-wins; return the
        *update set* — the sub-extents where the incoming SN won (>=
        existing or previously unmapped).  This is Fig. 15 step ①/②.
        """
        if start >= end:
            return []
        lo, hi = self._window(start, end)
        if lo == hi:
            # Wholly in a gap (every append and every read-miss fill):
            # insert in place, or grow an equal-SN neighbour that touches
            # the range — the same entries the general splice produces.
            starts, ends, sns = self._starts, self._ends, self._sns
            self._covered += end - start
            left = lo > 0 and ends[lo - 1] == start and sns[lo - 1] == sn
            right = lo < len(starts) and starts[lo] == end and sns[lo] == sn
            if left and right:  # bridge: the two neighbours become one
                ends[lo - 1] = ends[lo]
                del starts[lo], ends[lo], sns[lo]
            elif left:
                ends[lo - 1] = end
            elif right:
                starts[lo] = start
            else:
                starts.insert(lo, start)
                ends.insert(lo, end)
                sns.insert(lo, sn)
            return [(start, end)]
        window = [(self._starts[k], self._ends[k], self._sns[k])
                  for k in range(lo, hi)]
        result: List[Tuple[int, int, int]] = []
        updates: List[Extent] = []
        cur = start
        for es, ee, esn in window:
            if es < start:  # left stub outside incoming range
                result.append((es, start, esn))
            seg_s = max(es, start)
            if seg_s > cur:  # gap before this entry: incoming wins
                updates.append((cur, seg_s))
                result.append((cur, seg_s, sn))
                self._covered += seg_s - cur
            seg_e = min(ee, end)
            if sn >= esn:
                updates.append((seg_s, seg_e))
                result.append((seg_s, seg_e, sn))
            else:
                result.append((seg_s, seg_e, esn))
            if ee > end:  # right stub outside incoming range
                result.append((end, ee, esn))
            cur = seg_e
        if cur < end:  # tail gap
            updates.append((cur, end))
            result.append((cur, end, sn))
            self._covered += end - cur
        self._replace(lo, hi, result)
        return _coalesce(updates)

    def extract(self, start: int, end: int) -> List[Tuple[int, int, int]]:
        """Remove and return the portions of entries inside ``[start,
        end)`` (used to pull a lock's dirty extents out of the client's
        dirty map at flush time)."""
        lo, hi = self._window(start, end)
        window = [(self._starts[k], self._ends[k], self._sns[k])
                  for k in range(lo, hi)]
        keep: List[Tuple[int, int, int]] = []
        taken: List[Tuple[int, int, int]] = []
        for es, ee, esn in window:
            if es < start:
                keep.append((es, start, esn))
            ts, te = max(es, start), min(ee, end)
            if ts < te:
                taken.append((ts, te, esn))
                self._covered -= te - ts
            if ee > end:
                keep.append((end, ee, esn))
        self._replace(lo, hi, keep)
        return taken

    def drop_where(self, pred: Callable[[int, int, int], bool]) -> int:
        """Remove whole entries satisfying ``pred(start, end, sn)``;
        returns how many were dropped (extent-cache cleaning, §IV-B)."""
        kept = [(s, e, sn) for s, e, sn in
                zip(self._starts, self._ends, self._sns)
                if not pred(s, e, sn)]
        dropped = len(self._starts) - len(kept)
        self._starts = [k[0] for k in kept]
        self._ends = [k[1] for k in kept]
        self._sns = [k[2] for k in kept]
        self._covered = sum(e - s for s, e, _sn in kept)
        return dropped

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()
        self._sns.clear()
        self._covered = 0
