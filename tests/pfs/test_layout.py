"""Unit tests for the striping layout."""

import random

import pytest

from repro.pfs.layout import Fragment, StripeLayout

MB = 1024 * 1024


def test_single_stripe_identity():
    lay = StripeLayout(1, MB)
    assert lay.locate(0) == (0, 0)
    assert lay.locate(5 * MB + 7) == (0, 5 * MB + 7)
    frags = lay.map_extent(100, 3 * MB)
    assert len(frags) == 1
    f = frags[0]
    assert (f.stripe, f.local_offset, f.length) == (0, 100, 3 * MB)


def test_round_robin_locate():
    lay = StripeLayout(2, MB)
    assert lay.locate(0) == (0, 0)
    assert lay.locate(MB) == (1, 0)
    assert lay.locate(2 * MB) == (0, MB)
    assert lay.locate(3 * MB + 5) == (1, MB + 5)


def test_map_extent_spanning_two_stripes():
    lay = StripeLayout(2, MB)
    frags = lay.map_extent(0, 2 * MB)
    assert [(f.stripe, f.local_offset, f.length) for f in frags] == [
        (0, 0, MB), (1, 0, MB)]


def test_map_extent_merges_same_stripe_chunks():
    """A 3 MB write on 2 stripes touches stripe 0 twice but the two chunks
    are contiguous in stripe-local space."""
    lay = StripeLayout(2, MB)
    frags = lay.map_extent(0, 4 * MB)
    # Chunks alternate stripes, so no list-adjacent merge applies here...
    assert len(frags) == 4
    assert sum(f.length for f in frags) == 4 * MB
    # ...but on a single stripe consecutive chunks do merge.
    lay1 = StripeLayout(1, MB)
    frags1 = lay1.map_extent(0, 4 * MB)
    assert len(frags1) == 1 and frags1[0].length == 4 * MB


def test_map_extent_keeps_one_fragment_per_stripe_per_round():
    """Only list-adjacent chunks merge: an extent spanning two rounds of
    four stripes gives two fragments per stripe (one IoReadMsg each on a
    cold read), although each pair is contiguous in stripe-local space.
    Merging them would change the simulated message count."""
    lay = StripeLayout(4, 100)
    frags = lay.map_extent(0, 800)
    assert [(f.stripe, f.local_offset, f.file_offset, f.length)
            for f in frags] == [
        (0, 0, 0, 100), (1, 0, 100, 100), (2, 0, 200, 100),
        (3, 0, 300, 100), (0, 100, 400, 100), (1, 100, 500, 100),
        (2, 100, 600, 100), (3, 100, 700, 100)]
    assert lay.stripe_extents(0, 800) == {s: (0, 200) for s in range(4)}


def test_contiguous_file_extent_gives_contiguous_local_extents():
    lay = StripeLayout(4, MB)
    exts = lay.stripe_extents(512 * 1024, 8 * MB)
    # Every stripe's covering extent length equals the bytes mapped there.
    frags = lay.map_extent(512 * 1024, 8 * MB)
    per_stripe_bytes = {}
    for f in frags:
        per_stripe_bytes[f.stripe] = per_stripe_bytes.get(f.stripe, 0) + f.length
    for stripe, (s, e) in exts.items():
        assert e - s == per_stripe_bytes[stripe]


def test_local_to_file_roundtrip():
    lay = StripeLayout(3, 4096)
    for off in (0, 1, 4095, 4096, 10_000, 123_456):
        stripe, local = lay.locate(off)
        assert lay.local_to_file(stripe, local) == off


def test_stripe_local_size():
    lay = StripeLayout(2, MB)
    # 2.5 MB file: stripe0 has chunks 0,2(partial) -> 1.5 MB; stripe1 1 MB.
    assert lay.stripe_local_size(0, 2 * MB + MB // 2) == MB + MB // 2
    assert lay.stripe_local_size(1, 2 * MB + MB // 2) == MB
    assert lay.stripe_local_size(0, 0) == 0


def test_file_size_from_stripe_sizes():
    lay = StripeLayout(2, MB)
    # stripe0 holds 1.5 MB (chunks 0 and half of 2) -> file size 2.5 MB.
    assert lay.file_size_from_stripe_sizes({0: MB + MB // 2, 1: MB}) == \
        2 * MB + MB // 2
    assert lay.file_size_from_stripe_sizes({}) == 0


def test_stripe_local_size_consistent_with_locate():
    lay = StripeLayout(3, 1000)
    for size in (0, 1, 999, 1000, 1001, 2500, 3000, 9999):
        # Sum of local sizes must equal the file size.
        assert sum(lay.stripe_local_size(s, size) for s in range(3)) == size


def test_invalid_args():
    with pytest.raises(ValueError):
        StripeLayout(0, 100)
    lay = StripeLayout(2, 100)
    with pytest.raises(ValueError):
        lay.locate(-1)
    with pytest.raises(ValueError):
        lay.map_extent(-1, 10)
    with pytest.raises(ValueError):
        lay.local_to_file(5, 0)
    with pytest.raises(ValueError):
        lay.stripe_local_size(0, -1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_map_extent_matches_the_chunk_walk(seed):
    # map_extent answers an extent inside one chunk without the chunk
    # walk; on every input it must give what the walk gives.  Offsets and
    # lengths are drawn around chunk edges as well as uniformly, and
    # zero lengths are included.
    rng = random.Random(seed)
    for _ in range(2000):
        lay = StripeLayout(rng.randint(1, 6),
                           rng.choice([1, 2, 7, 64, 100, 4096]))
        size = lay.stripe_size
        edge = rng.randint(0, 12) * size
        offset = rng.choice([
            rng.randint(0, 16 * size),
            edge, max(edge - 1, 0), edge + 1,
        ])
        length = rng.choice([
            0, 1, size, size - offset % size, size - offset % size + 1,
            rng.randint(0, 3 * size),
        ])
        length = max(length, 0)
        assert lay.map_extent(offset, length) == \
            lay._map_chunks(offset, length), (lay, offset, length)


def test_map_extent_inside_one_chunk_is_one_fragment():
    lay = StripeLayout(4, 100)
    assert lay.map_extent(530, 70) == [Fragment(1, 130, 530, 70)]
    assert lay.map_extent(530, 71) == lay._map_chunks(530, 71)
    assert len(lay.map_extent(530, 71)) == 2
    assert lay.map_extent(530, 0) == []
