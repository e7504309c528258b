"""Property-based tests for the client cache and the server write path:
newest-SN-wins must hold byte-for-byte against a flat oracle, end to end
(cache insert → flush extraction → server merge → durable bytes)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.pfs.extent_cache import ServerExtentCache
from repro.pfs.page_cache import ClientCache
from repro.sim import Simulator
from repro.storage.blockstore import BlockStore

SPACE = 128
KEY = ("f", 0)

write_ops = st.lists(
    st.tuples(
        st.integers(0, SPACE - 8),        # offset
        st.integers(1, 8),                # length
        st.integers(1, 9),                # sn
        st.integers(0, 255),              # fill byte
    ),
    min_size=1, max_size=25)


def oracle_apply(oracle_sn, oracle_data, off, length, sn, fill):
    for i in range(off, off + length):
        if sn >= oracle_sn[i]:
            oracle_sn[i] = sn
            oracle_data[i] = fill


@given(write_ops)
@settings(max_examples=150, deadline=None)
def test_client_cache_newest_wins_bytewise(ops):
    sim = Simulator()
    cache = ClientCache(sim, min_dirty=1 << 20, max_dirty=1 << 22)
    oracle_sn = np.zeros(SPACE, dtype=np.int64)
    oracle_data = np.zeros(SPACE, dtype=np.uint8)
    for off, length, sn, fill in ops:
        cache.write(KEY, off, length, sn, bytes([fill]) * length)
        oracle_apply(oracle_sn, oracle_data, off, length, sn, fill)
    data, _missing = cache.read(KEY, 0, SPACE)
    got = np.frombuffer(data, dtype=np.uint8)
    written = oracle_sn > 0
    assert np.array_equal(got[written], oracle_data[written])


@given(write_ops)
@settings(max_examples=100, deadline=None)
def test_end_to_end_flush_preserves_newest_wins(ops):
    """Write into the cache, extract all dirty blocks, deliver them to a
    server extent cache IN REVERSE ORDER (worst-case reordering), and
    check the durable image equals the oracle."""
    sim = Simulator()
    cache = ClientCache(sim, min_dirty=1 << 20, max_dirty=1 << 22)
    oracle_sn = np.zeros(SPACE, dtype=np.int64)
    oracle_data = np.zeros(SPACE, dtype=np.uint8)
    for off, length, sn, fill in ops:
        cache.write(KEY, off, length, sn, bytes([fill]) * length)
        oracle_apply(oracle_sn, oracle_data, off, length, sn, fill)

    blocks = cache.extract_dirty(KEY, ((0, SPACE),))
    server_cache = ServerExtentCache(sim)
    store = BlockStore()
    for b in reversed(blocks):  # adversarial arrival order
        updates = server_cache.merge(KEY, b.offset, b.offset + b.length,
                                     b.sn)
        for s, e in updates:
            store.write(KEY, s, b.data[s - b.offset:e - b.offset])

    durable = np.frombuffer(store.read(KEY, 0, SPACE), dtype=np.uint8)
    written = oracle_sn > 0
    assert np.array_equal(durable[written], oracle_data[written])


@given(write_ops, st.integers(0, SPACE - 1), st.integers(1, 16))
@settings(max_examples=100, deadline=None)
def test_partial_extract_then_rest_is_complete(ops, cut, width):
    """Extracting dirty data in two pieces loses nothing."""
    sim = Simulator()
    cache = ClientCache(sim, min_dirty=1 << 20, max_dirty=1 << 22)
    total_dirty = np.zeros(SPACE, dtype=bool)
    for off, length, sn, fill in ops:
        cache.write(KEY, off, length, sn, bytes([fill]) * length)
        total_dirty[off:off + length] = True
    first = cache.extract_dirty(KEY, ((cut, min(SPACE, cut + width)),))
    rest = cache.extract_dirty(KEY, ((0, SPACE),))
    got = np.zeros(SPACE, dtype=bool)
    for b in first + rest:
        assert not got[b.offset:b.offset + b.length].any(), "double extract"
        got[b.offset:b.offset + b.length] = True
    assert np.array_equal(got, total_dirty)
    assert cache.dirty_bytes == 0


@given(write_ops)
@settings(max_examples=75, deadline=None)
def test_sn_limited_invalidate_keeps_newer_data(ops):
    """invalidate(up_to_sn=K) must keep exactly the bytes with SN > K."""
    sim = Simulator()
    cache = ClientCache(sim, min_dirty=1 << 20, max_dirty=1 << 22)
    oracle_sn = np.zeros(SPACE, dtype=np.int64)
    for off, length, sn, fill in ops:
        cache.write(KEY, off, length, sn, bytes([fill]) * length)
        oracle_apply(oracle_sn, np.zeros(SPACE, dtype=np.uint8),
                     off, length, sn, fill)
    K = 5
    cache.invalidate(KEY, ((0, SPACE),), up_to_sn=K)
    entry = cache._entries[KEY]
    covered = np.zeros(SPACE, dtype=bool)
    for s, e, _sn in entry.versions.entries():
        covered[s:min(e, SPACE)] = True
    assert np.array_equal(covered, oracle_sn > K)


# -- byte counters under a random call mix -------------------------------
KEYS = [("f", 0), ("f", 1)]
keys = st.sampled_from(KEYS)
windows = st.tuples(st.integers(0, SPACE), st.integers(0, SPACE)).map(
    lambda t: (min(t), max(t)))
cache_calls = st.lists(st.one_of(
    st.tuples(st.just("write"), keys, st.integers(0, SPACE - 8),
              st.integers(1, 8), st.integers(1, 9)),
    st.tuples(st.just("extract"), keys, windows),
    st.tuples(st.just("restore")),
    st.tuples(st.just("invalidate"), keys, windows,
              st.one_of(st.none(), st.integers(0, 9))),
    st.tuples(st.just("drop_all")),
), min_size=1, max_size=40)


def _resum(cache, attr):
    return sum(e - s for entry in cache._entries.values()
               for s, e, _sn in getattr(entry, attr).entries())


@given(cache_calls, st.sampled_from([None, 48, 96]))
@settings(max_examples=150, deadline=None)
def test_byte_counters_match_resum(calls, max_cached):
    """``dirty_bytes`` and ``cached_bytes`` equal a by-hand re-sum of the
    dirty and versions maps after every call (with ``max_cached`` set,
    ``_reclaim`` runs too).  A drifting count would move the §IV-C1
    write gate and flush signal."""
    sim = Simulator()
    cache = ClientCache(sim, track_content=False, min_dirty=16,
                        max_dirty=32, max_cached=max_cached)
    extracted = []
    for call in calls:
        if call[0] == "write":
            _, key, off, length, sn = call
            cache.write(key, off, length, sn)
        elif call[0] == "extract":
            _, key, window = call
            extracted.append((key, cache.extract_dirty(key, (window,))))
        elif call[0] == "restore":
            if extracted:
                cache.restore_dirty(*extracted.pop())
        elif call[0] == "invalidate":
            _, key, window, up_to_sn = call
            cache.invalidate(key, (window,), up_to_sn=up_to_sn)
        else:
            cache.drop_all()
            extracted.clear()
        assert cache.dirty_bytes == _resum(cache, "dirty")
        assert cache.cached_bytes == _resum(cache, "versions")
