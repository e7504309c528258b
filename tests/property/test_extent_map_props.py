"""Property-based tests: ExtentMap against a flat per-byte oracle.

The oracle is a plain numpy array holding each byte's maximum SN; every
ExtentMap query must agree with it.  This is the invariant the whole
system's data safety rests on (Fig. 14/15 both reduce to this map).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dlm.extent import EOF, ExtentMap

SPACE = 256  # small byte space keeps shrinking fast

extents = st.tuples(st.integers(0, SPACE - 1), st.integers(1, SPACE)).map(
    lambda t: (min(t), max(t[0] + 1, t[1])))
ops = st.lists(st.tuples(extents, st.integers(0, 15)), min_size=0,
               max_size=40)


class Oracle:
    def __init__(self):
        self.sn = np.full(SPACE, -1, dtype=np.int64)

    def merge(self, s, e, sn):
        win = []
        region = self.sn[s:e]
        mask = region <= sn
        # Update set: maximal runs where the incoming SN wins.
        idx = np.flatnonzero(mask)
        region[mask] = sn
        if len(idx) == 0:
            return []
        splits = np.flatnonzero(np.diff(idx) > 1)
        starts = np.concatenate(([0], splits + 1))
        ends = np.concatenate((splits, [len(idx) - 1]))
        return [(s + int(idx[a]), s + int(idx[b]) + 1)
                for a, b in zip(starts, ends)]


@given(ops)
@settings(max_examples=200, deadline=None)
def test_merge_matches_oracle(op_list):
    emap, oracle = ExtentMap(), Oracle()
    for (s, e), sn in op_list:
        got = emap.merge(s, e, sn)
        want = oracle.merge(s, e, sn)
        assert got == want, f"update set mismatch for merge({s},{e},{sn})"
        emap._check_invariants()
    # Final state agrees byte by byte.
    state = np.full(SPACE, -1, dtype=np.int64)
    for es, ee, esn in emap.entries():
        state[es:min(ee, SPACE)] = esn
    assert np.array_equal(state, oracle.sn)


@given(ops)
@settings(max_examples=100, deadline=None)
def test_max_sn_matches_oracle(op_list):
    emap, oracle = ExtentMap(), Oracle()
    for (s, e), sn in op_list:
        emap.merge(s, e, sn)
        oracle.merge(s, e, sn)
    for qs, qe in [(0, SPACE), (0, 1), (10, 20), (100, 200)]:
        window = oracle.sn[qs:qe]
        present = window[window >= 0]
        want = int(present.max()) if len(present) else None
        assert emap.max_sn(qs, qe) == want


@given(ops)
@settings(max_examples=100, deadline=None)
def test_gaps_match_oracle(op_list):
    emap, oracle = ExtentMap(), Oracle()
    for (s, e), sn in op_list:
        emap.merge(s, e, sn)
        oracle.merge(s, e, sn)
    covered = np.zeros(SPACE, dtype=bool)
    for es, ee, _sn in emap.entries():
        covered[es:min(ee, SPACE)] = True
    want_covered = oracle.sn >= 0
    assert np.array_equal(covered, want_covered)
    # gaps() of the full space must exactly complement coverage.
    gap_mask = np.zeros(SPACE, dtype=bool)
    for gs, ge in emap.gaps(0, SPACE):
        gap_mask[gs:ge] = True
    assert np.array_equal(gap_mask, ~want_covered)


@given(ops, extents)
@settings(max_examples=100, deadline=None)
def test_extract_removes_exactly_the_window(op_list, window):
    emap, oracle = ExtentMap(), Oracle()
    for (s, e), sn in op_list:
        emap.merge(s, e, sn)
        oracle.merge(s, e, sn)
    ws, we = window
    taken = emap.extract(ws, we)
    emap._check_invariants()
    # Every taken piece matches the oracle's SNs.
    for ts, te, tsn in taken:
        assert ws <= ts < te <= we
        assert np.all(oracle.sn[ts:te] == tsn)
    # The window is now empty; outside is untouched.
    assert emap.gaps(ws, we) == ([(ws, we)] if we > ws else [])
    state = np.full(SPACE, -1, dtype=np.int64)
    for es, ee, esn in emap.entries():
        state[es:min(ee, SPACE)] = esn
    expect = oracle.sn.copy()
    expect[ws:we] = -1
    assert np.array_equal(state, expect)


@given(st.lists(st.tuples(extents, st.integers(0, 1000)), min_size=1,
                max_size=20, unique_by=lambda x: x[1]))
@settings(max_examples=100, deadline=None)
def test_distinct_sn_merges_commute(op_list):
    """With all-distinct SNs, the final map is order-independent — the
    foundation of out-of-order flush correctness (§IV-B)."""
    a, b = ExtentMap(), ExtentMap()
    for (s, e), sn in op_list:
        a.merge(s, e, sn)
    for (s, e), sn in reversed(op_list):
        b.merge(s, e, sn)
    assert a.entries() == b.entries()


@given(ops)
@settings(max_examples=100, deadline=None)
def test_coalescing_keeps_entries_minimal(op_list):
    """No two adjacent entries share an SN (the paper's entry merging)."""
    emap = ExtentMap()
    for (s, e), sn in op_list:
        emap.merge(s, e, sn)
    entries = emap.entries()
    for (s1, e1, sn1), (s2, e2, sn2) in zip(entries, entries[1:]):
        assert not (e1 == s2 and sn1 == sn2), "uncoalesced neighbours"


# -- running byte count --------------------------------------------------
# Windows may be empty and may end at EOF.  The oracle keeps one extra
# cell for the whole ``[SPACE, EOF)`` tail: every window either covers
# the tail or misses it, so a single SN describes it exactly.
TAIL = EOF - SPACE

windows = st.tuples(st.integers(0, SPACE), st.integers(0, SPACE),
                    st.booleans()).map(
    lambda t: (min(t[:2]), EOF if t[2] else max(t[:2])))
count_ops = st.lists(st.one_of(
    st.tuples(st.just("merge"), windows, st.integers(0, 15)),
    st.tuples(st.just("extract"), windows),
    st.tuples(st.just("drop"), st.frozensets(st.integers(0, 15))),
    st.tuples(st.just("clear")),
), max_size=40)


def _cells(s, e):
    """Oracle slice of window ``[s, e)``: byte cells plus the tail cell."""
    return slice(s, SPACE + 1 if e == EOF else e)


def _oracle_count(cells):
    covered = cells >= 0
    return int(covered[:SPACE].sum()) + (TAIL if covered[SPACE] else 0)


@given(count_ops)
@settings(max_examples=200, deadline=None)
def test_covered_bytes_matches_oracle(op_list):
    """The O(1) running count agrees with a byte-level oracle after every
    merge / extract / drop_where / clear."""
    emap = ExtentMap()
    cells = np.full(SPACE + 1, -1, dtype=np.int64)
    for op in op_list:
        before = emap.covered_bytes()
        if op[0] == "merge":
            (s, e), sn = op[1], op[2]
            emap.merge(s, e, sn)
            region = cells[_cells(s, e)]
            region[region <= sn] = sn
        elif op[0] == "extract":
            s, e = op[1]
            taken = emap.extract(s, e)
            assert before - emap.covered_bytes() == sum(
                te - ts for ts, te, _sn in taken)
            cells[_cells(s, e)] = -1
        elif op[0] == "drop":
            gone = op[1]
            emap.drop_where(lambda s, e, sn: sn in gone)
            cells[np.isin(cells, list(gone))] = -1
        else:
            emap.clear()
            cells[:] = -1
        assert emap.covered_bytes() == _oracle_count(cells)
        emap._check_invariants()


def test_covered_bytes_eof_extents():
    """Extents ending at EOF count ``e - s`` bytes, not the oracle's 256."""
    emap = ExtentMap()
    emap.merge(10, EOF, 1)
    assert emap.covered_bytes() == EOF - 10
    emap.merge(0, 20, 2)
    assert emap.covered_bytes() == EOF
    emap.merge(5, 5, 3)
    emap.extract(50, 50)
    assert emap.covered_bytes() == EOF
    assert emap.extract(100, EOF) == [(100, EOF, 1)]
    assert emap.covered_bytes() == 100
    emap.drop_where(lambda s, e, sn: sn == 2)
    assert emap.covered_bytes() == 80
    emap._check_invariants()
