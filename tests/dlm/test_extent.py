"""Unit tests for extent algebra and the SN-tagged extent map."""

import pytest

from repro.dlm.extent import (
    EOF,
    ExtentMap,
    align_extent,
    intersect,
    overlaps,
    span,
)


# ---------------------------------------------------------------- primitives
def test_overlaps_half_open():
    assert overlaps((0, 10), (5, 15))
    assert not overlaps((0, 10), (10, 20))  # touching is not overlapping
    assert overlaps((0, 10), (9, 10))
    assert not overlaps((5, 5), (0, 10))  # empty extent


def test_intersect():
    assert intersect((0, 10), (5, 15)) == (5, 10)
    assert intersect((0, 10), (10, 20)) is None
    assert intersect((3, 7), (0, 100)) == (3, 7)


def test_span():
    assert span([(10, 20), (50, 60), (0, 5)]) == (0, 60)
    assert span([]) is None


def test_align_extent():
    assert align_extent((1, 5), 4096) == (0, 4096)
    assert align_extent((4096, 8192), 4096) == (4096, 8192)
    assert align_extent((4097, 8193), 4096) == (4096, 12288)
    with pytest.raises(ValueError):
        align_extent((0, 1), 0)


def test_align_never_exceeds_eof():
    s, e = align_extent((EOF - 10, EOF), 4096)
    assert e == EOF


# ---------------------------------------------------------------- ExtentMap
def test_merge_into_empty_is_full_update():
    m = ExtentMap()
    assert m.merge(0, 100, 5) == [(0, 100)]
    assert m.entries() == [(0, 100, 5)]


def test_merge_newer_overwrites():
    m = ExtentMap()
    m.merge(0, 100, 5)
    assert m.merge(20, 60, 7) == [(20, 60)]
    assert m.entries() == [(0, 20, 5), (20, 60, 7), (60, 100, 5)]


def test_merge_older_is_discarded_on_overlap():
    m = ExtentMap()
    m.merge(0, 100, 9)
    assert m.merge(20, 60, 3) == []
    assert m.entries() == [(0, 100, 9)]


def test_merge_equal_sn_wins():
    """Same-SN data is from the same lock, later in program order: accept."""
    m = ExtentMap()
    m.merge(0, 100, 5)
    assert m.merge(50, 150, 5) == [(50, 150)]
    assert m.entries() == [(0, 150, 5)]  # coalesced


def test_paper_fig15_example():
    """The exact server-side merge of Fig. 15.

    Cache: S[0,2K,8], S[2K,8K,8] (written as one [0,8K) at SN 8).
    Incoming blocks: D[0,2K,7], D[2K,4K,9], D[4K,8K,9].
    Expected: [0,2K) keeps SN 8 (7 is older), [2K,8K) updates to 9.
    """
    K = 1024
    m = ExtentMap()
    m.merge(0, 8 * K, 8)
    assert m.merge(0, 2 * K, 7) == []
    assert m.merge(2 * K, 4 * K, 9) == [(2 * K, 4 * K)]
    assert m.merge(4 * K, 8 * K, 9) == [(4 * K, 8 * K)]
    assert m.entries() == [(0, 2 * K, 8), (2 * K, 8 * K, 9)]


def test_merge_partial_overlap_mixed_outcome():
    m = ExtentMap()
    m.merge(0, 50, 10)
    m.merge(50, 100, 2)
    # Incoming SN 5 loses against [0,50) and wins against [50,100).
    assert m.merge(25, 75, 5) == [(50, 75)]
    assert m.entries() == [(0, 50, 10), (50, 75, 5), (75, 100, 2)]


def test_merge_spanning_gap():
    m = ExtentMap()
    m.merge(0, 10, 1)
    m.merge(90, 100, 1)
    assert m.merge(5, 95, 3) == [(5, 95)]
    assert m.entries() == [(0, 5, 1), (5, 95, 3), (95, 100, 1)]


def test_merge_empty_extent_is_noop():
    m = ExtentMap()
    assert m.merge(10, 10, 1) == []
    assert len(m) == 0


def test_coalescing_reduces_entry_count():
    """Contiguous same-SN writes collapse to one entry (the paper's
    N-1-segmented small-cache behaviour)."""
    m = ExtentMap()
    for i in range(100):
        m.merge(i * 10, (i + 1) * 10, 4)
    assert len(m) == 1
    assert m.entries() == [(0, 1000, 4)]


def test_max_sn_query():
    m = ExtentMap()
    m.merge(0, 10, 2)
    m.merge(10, 20, 7)
    assert m.max_sn(0, 20) == 7
    assert m.max_sn(0, 10) == 2
    assert m.max_sn(50, 60) is None


def test_gaps_and_covers():
    m = ExtentMap()
    m.merge(10, 20, 1)
    m.merge(30, 40, 1)
    assert m.gaps(0, 50) == [(0, 10), (20, 30), (40, 50)]
    assert m.gaps(12, 18) == []
    assert m.covers(12, 18)
    assert not m.covers(0, 50)


def test_extract_removes_and_returns_pieces():
    m = ExtentMap()
    m.merge(0, 100, 5)
    taken = m.extract(20, 60)
    assert taken == [(20, 60, 5)]
    assert m.entries() == [(0, 20, 5), (60, 100, 5)]


def test_extract_multiple_entries():
    m = ExtentMap()
    m.merge(0, 10, 1)
    m.merge(20, 30, 2)
    m.merge(40, 50, 3)
    taken = m.extract(5, 45)
    assert taken == [(5, 10, 1), (20, 30, 2), (40, 45, 3)]
    assert m.entries() == [(0, 5, 1), (45, 50, 3)]


def test_extract_empty_range():
    m = ExtentMap()
    m.merge(0, 10, 1)
    assert m.extract(50, 60) == []
    assert m.entries() == [(0, 10, 1)]


def test_drop_where():
    m = ExtentMap()
    m.merge(0, 10, 1)
    m.merge(10, 20, 5)
    m.merge(30, 40, 2)
    dropped = m.drop_where(lambda s, e, sn: sn <= 2)
    assert dropped == 2
    assert m.entries() == [(10, 20, 5)]


def test_covered_bytes():
    m = ExtentMap()
    assert m.covered_bytes() == 0
    m.merge(0, 10, 1)
    m.merge(20, 25, 1)
    assert m.covered_bytes() == 15
    m.merge(5, 22, 2)  # overwrite [5,10) and [20,22), fill the gap
    assert m.covered_bytes() == 25
    m.merge(0, 25, 0)  # older everywhere: coverage unchanged
    assert m.covered_bytes() == 25
    m.merge(7, 7, 9)  # zero-length
    assert m.covered_bytes() == 25
    assert m.extract(8, 12) == [(8, 12, 2)]
    assert m.covered_bytes() == 21
    m.extract(8, 12)  # window already empty
    assert m.covered_bytes() == 21
    assert m.drop_where(lambda s, e, sn: sn == 1) == 2  # [0,5) and [22,25)
    assert m.covered_bytes() == 13
    m._check_invariants()
    m.clear()
    assert m.covered_bytes() == 0
    m.merge(100, EOF, 3)
    assert m.covered_bytes() == EOF - 100


def test_clear():
    m = ExtentMap()
    m.merge(0, 10, 1)
    m.clear()
    assert len(m) == 0 and m.entries() == []


def test_invariants_hold_after_random_like_sequence():
    m = ExtentMap()
    ops = [(0, 100, 3), (50, 150, 1), (25, 75, 9), (0, 10, 9),
           (200, 300, 2), (90, 210, 5), (0, 300, 4)]
    for s, e, sn in ops:
        m.merge(s, e, sn)
        m._check_invariants()
    # Final max SNs: the SN-9 band survives the SN-4 blanket.
    assert m.max_sn(25, 75) == 9
