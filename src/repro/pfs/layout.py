"""File striping: mapping file extents onto stripe-local extents.

ccPFS stripes a file round-robin in ``stripe_size`` chunks, like Lustre:
file chunk ``k`` lives on stripe ``k % stripe_count`` at stripe-local
offset ``(k // stripe_count) * stripe_size``.  Lock resources are
per-stripe and addressed in stripe-local byte space, so a write that spans
several stripes needs one lock per touched stripe — the situation that
motivates BW and lock downgrading (§III-B1, Fig. 8).

A useful property (relied on by the lock path): any *contiguous* file
extent maps to a *contiguous* stripe-local extent on each touched stripe,
so single-extent locks always suffice for contiguous IO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dlm.extent import Extent

__all__ = ["Fragment", "StripeLayout"]


@dataclass(frozen=True)
class Fragment:
    """One stripe-local piece of a file extent."""

    stripe: int       #: stripe index within the file
    local_offset: int  #: offset in the stripe object's byte space
    file_offset: int   #: corresponding file-logical offset
    length: int


@dataclass(frozen=True)
class StripeLayout:
    """Striping geometry of one file."""

    stripe_count: int
    stripe_size: int

    def __post_init__(self):
        if self.stripe_count < 1 or self.stripe_size < 1:
            raise ValueError("stripe_count and stripe_size must be >= 1")

    def locate(self, offset: int) -> Tuple[int, int]:
        """Map a file offset to ``(stripe, local_offset)``."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        chunk, within = divmod(offset, self.stripe_size)
        stripe = chunk % self.stripe_count
        local = (chunk // self.stripe_count) * self.stripe_size + within
        return stripe, local

    def map_extent(self, offset: int, length: int) -> List[Fragment]:
        """Split a file extent into per-stripe fragments, in file order.

        Only chunks that are *consecutive in that list* and contiguous in
        the same stripe are merged, which happens only with
        ``stripe_count == 1``.  With several stripes an extent spanning
        several rounds yields one fragment per stripe per round, even
        though each stripe's fragments are contiguous in stripe-local
        space: ``StripeLayout(4, 100).map_extent(0, 800)`` gives 8
        fragments, two per stripe.  :meth:`stripe_extents` gives the one
        covering extent per stripe."""
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be >= 0")
        raw: List[Fragment] = []
        pos = offset
        remaining = length
        while remaining > 0:
            stripe, local = self.locate(pos)
            chunk_left = self.stripe_size - (pos % self.stripe_size)
            take = min(chunk_left, remaining)
            raw.append(Fragment(stripe, local, pos, take))
            pos += take
            remaining -= take
        # Merge list-adjacent fragments that are contiguous within one
        # stripe (consecutive chunks of a single-stripe layout).
        merged: List[Fragment] = []
        for frag in raw:
            prev = merged[-1] if merged else None
            if (prev is not None and prev.stripe == frag.stripe
                    and prev.local_offset + prev.length == frag.local_offset):
                merged[-1] = Fragment(prev.stripe, prev.local_offset,
                                      prev.file_offset,
                                      prev.length + frag.length)
            else:
                merged.append(frag)
        return merged

    def stripe_extents(self, offset: int, length: int) -> Dict[int, Extent]:
        """Per-stripe covering extents (stripe-local) of a file extent —
        what the lock path needs."""
        out: Dict[int, Extent] = {}
        for frag in self.map_extent(offset, length):
            s, e = frag.local_offset, frag.local_offset + frag.length
            if frag.stripe in out:
                os_, oe = out[frag.stripe]
                out[frag.stripe] = (min(os_, s), max(oe, e))
            else:
                out[frag.stripe] = (s, e)
        return out

    def local_to_file(self, stripe: int, local_offset: int) -> int:
        """Inverse of :meth:`locate`."""
        if not (0 <= stripe < self.stripe_count):
            raise ValueError(f"stripe {stripe} out of range")
        round_idx, within = divmod(local_offset, self.stripe_size)
        chunk = round_idx * self.stripe_count + stripe
        return chunk * self.stripe_size + within

    def stripe_local_size(self, stripe: int, file_size: int) -> int:
        """Size of a stripe's local byte space for a given logical file
        size (what truncate must cut each stripe object to)."""
        if not (0 <= stripe < self.stripe_count):
            raise ValueError(f"stripe {stripe} out of range")
        if file_size < 0:
            raise ValueError(f"negative file size {file_size}")
        full_chunks, rem = divmod(file_size, self.stripe_size)
        count = full_chunks // self.stripe_count
        if stripe < full_chunks % self.stripe_count:
            count += 1
        local = count * self.stripe_size
        if rem and stripe == full_chunks % self.stripe_count:
            local += rem
        return local

    def file_size_from_stripe_sizes(self, sizes: Dict[int, int]) -> int:
        """Logical file size implied by per-stripe object sizes."""
        best = 0
        for stripe, size in sizes.items():
            if size > 0:
                best = max(best, self.local_to_file(stripe, size - 1) + 1)
        return best
