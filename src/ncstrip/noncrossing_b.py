"""Signed (type B) noncrossing partitions of {-m..-1, 1..m} with m = kn.

Polygon convention: the 2m-gon's positions 1..2m carry the labels
1, 2, ..., m, -1, -2, ..., -m clockwise, so pos(v) = v for v > 0 and
pos(-j) = m + j.  Crossing is tested on positions.  The element order used
for canonical listings is -1 < -2 < ... < -m < 1 < 2 < ... < m; blocks are
listed clockwise starting from their minimal element in that order.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterable

from .partitions import (
    Partition,
    as_partition,
    exact_div,
    multiplicity_product,
    weight,
)
from .noncrossing_a import (
    blocks_noncrossing,
    noncrossing_partitions_of_seq,
    owners_noncrossing,
)

SignedBlocks = tuple[tuple[int, ...], ...]


def position(v: int, m: int) -> int:
    if v == 0 or abs(v) > m:
        raise ValueError(f"label {v} outside the signed ground set of size {m}")
    return v if v > 0 else m - v


def label_at(pos: int, m: int) -> int:
    if not 1 <= pos <= 2 * m:
        raise ValueError(f"position {pos} outside 1..{2 * m}")
    return pos if pos <= m else -(pos - m)


def canonical_blocks_b(blocks: Iterable[Iterable[int]], m: int) -> SignedBlocks:
    """Blocks sorted by minimal element, each listed clockwise from it."""
    keyed = []
    for b in blocks:
        ps = sorted(position(v, m) for v in b)
        if not ps:
            raise ValueError("empty block")
        # the minimal element is the first negative label, if there is one
        i = bisect.bisect_right(ps, m) % len(ps)
        ps = ps[i:] + ps[:i]
        keyed.append(((ps[0] - m - 1) % (2 * m), tuple(label_at(p, m) for p in ps)))
    keyed.sort(key=lambda kb: kb[0])
    return tuple(b for _, b in keyed)


def is_invariant(blocks) -> bool:
    sets = {frozenset(b) for b in blocks}
    return all(frozenset(-x for x in b) in sets for b in sets)


def is_noncrossing_b(blocks, m: int | None = None) -> bool:
    """Antipodally invariant and circularly noncrossing (tested on positions)."""
    blocks = tuple(tuple(b) for b in blocks)
    if m is None:
        m = max((abs(x) for b in blocks for x in b), default=0)
    if not is_invariant(blocks):
        return False
    pos_blocks = [[position(v, m) for v in b] for b in blocks]
    return blocks_noncrossing(pos_blocks)


def antipodal_block(blocks) -> tuple[int, ...] | None:
    """The unique self-negating block, or None."""
    found = None
    for b in blocks:
        if set(b) == {-x for x in b}:
            if found is not None:
                raise ValueError("more than one antipodal block")
            found = tuple(sorted(b))
    return found


def listing_from_owners(owner, m: int) -> SignedBlocks:
    """Canonical blocks of the partition that puts polygon position p in
    block owner[p] (owner[0] is unused).

    Read clockwise from position m + 1 (the label -1), the polygon meets
    every block at its minimal element first, so the blocks come out in
    canonical order, each listed clockwise from its minimum.
    """
    out: dict[int, list[int]] = {}
    labels = itertools.chain(range(-1, -m - 1, -1), range(1, m + 1))
    for v, b in zip(labels, owner[m + 1 :] + owner[1 : m + 1]):
        out.setdefault(b, []).append(v)
    return tuple(tuple(b) for b in out.values())


def validate_nc_b(blocks, n: int, k: int) -> SignedBlocks:
    """Canonical blocks of a member of NC_n^{B,(k)}, checked in one pass.

    Every label is placed once on an array of the 2m polygon positions
    (m = kn).  The checks run in this order, and the first that fails
    raises ValueError: the blocks partition the signed set, the partition
    is invariant under negation, it is noncrossing on the polygon, and every
    block size is divisible by k.
    """
    return _owners_b(blocks, n, k)[1]


def _owners_b(blocks, n: int, k: int) -> tuple[list[int], SignedBlocks]:
    """(owner, listing) of a member of NC_n^{B,(k)}, checked as in
    `validate_nc_b`.

    owner[p] is the index, in the order given, of the block holding polygon
    position p (owner[0] is unused); listing is the canonical blocks.
    """
    m = k * n
    owner = [-1] * (2 * m + 1)  # position -> block index
    sizes: list[int] = []
    overlap = False
    for i, b in enumerate(blocks):
        size = 0
        for v in b:
            if v == 0 or not -m <= v <= m:
                raise ValueError(f"label {v} outside the signed ground set of size {m}")
            p = v if v > 0 else m - v
            overlap = overlap or owner[p] >= 0
            owner[p] = i
            size += 1
        sizes.append(size)
    if overlap or 0 in sizes or sum(sizes) != 2 * m:
        raise ValueError(f"blocks do not partition the signed set [-{m}..{m}]")
    # invariant iff all members of a block have their negatives in one block
    mirror = [-1] * len(sizes)
    for i, j in zip(owner[1 : m + 1], owner[m + 1 :]):
        if mirror[i] < 0:
            mirror[i] = j
        if mirror[j] < 0:
            mirror[j] = i
        if mirror[i] != j or mirror[j] != i:
            raise ValueError("partition is not invariant under negation")
    if not owners_noncrossing(owner[1:], sizes):
        raise ValueError("partition is crossing on the polygon")
    out = listing_from_owners(owner, m)
    for b in out:
        if len(b) % k:
            raise ValueError(f"block size {len(b)} is not divisible by {k}")
    return owner, out


def type_b(blocks, k: int = 1) -> Partition:
    """Sorted |B|/k over one block per {B, -B} orbit; antipodal block dropped.

    The blocks must be a member of NC_B (as `validate_nc_b` and
    `enumerate_nc_b` give them).  There a block is antipodal exactly when it
    holds the negative of its first element, and the other blocks come in
    pairs B, -B of equal size, so every second size of the sorted rest is
    one per orbit.
    """
    sizes = sorted((len(b) for b in blocks if -b[0] not in b), reverse=True)[::2]
    for size in sizes:
        if size % k:
            raise ValueError(f"block size {size} is not divisible by {k}")
    return tuple(size // k for size in sizes)


def enumerate_nc_b(n: int, k: int) -> list[SignedBlocks]:
    """All of NC_n^{B,(k)}, built directly (not via any bijection), each
    member once.

    Every member is one rotation of one P in NC^(k)(1..m) placed on the
    half-arc g+1..g+m of the 2m-gon, with its mirror on the other half.
    Without an antipodal block, some diameter separates the blocks from
    their mirrors (Reiner 1997); cut at the least such diameter g.  A
    diameter g - j (1 <= j <= g) separates exactly when the last j elements
    of P are a union of its blocks, and the shortest such suffix starts at
    the minimum c of the block holding m.  So g is least exactly when
    g <= m - c, and each P is rotated onto g = 0..m - c (Armstrong 2009 for
    the k-divisible case).  With an antipodal block Z, let q be its least
    positive position.  Every other block lies on one side of the diameter
    through q, so the half-arc q..q+m-1 holds P rotated by g = q - 1, and
    P's block of 1 is Z's positive half, joined to its mirror.  Z has no
    position in 1..q-1, so its half lies in q..m: these members are the
    pairs (P, g) with g <= m - e, e the maximum of P's block of 1.  That
    block is k-divisible because m = kn and every other block is.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    m = k * n
    if m == 0:
        return [()]
    out: list[SignedBlocks] = []
    for part in noncrossing_partitions_of_seq(range(1, m + 1), k):
        half = [0] * m
        c = m
        for i, blk in enumerate(part):
            for p in blk:
                half[p - 1] = 2 * i
            if blk[-1] == m:
                c = blk[0]
        paired = [b + 1 for b in half]
        joined = [b and b + 1 for b in half]  # block 0 is its own mirror
        for mirror, top in ((paired, m - c), (joined, m - part[0][-1])):
            for g in range(top + 1):
                owner = [-1] + mirror[m - g :] + half + mirror[: m - g]
                out.append(listing_from_owners(owner, m))
    out.sort()
    return out


def count_by_type_b(n: int, k: int, lam: Partition) -> int:
    """Number of partitions in NC_n^{B,(k)} with type lam (weight <= n)."""
    lam = as_partition(lam)
    if weight(lam) > n:
        raise ValueError(f"type weight must be <= n = {n}, got {weight(lam)}")
    return exact_div(math.perm(k * n, len(lam)), multiplicity_product(lam))


def format_blocks_b(blocks, m: int | None = None) -> str:
    if m is None:
        m = max((abs(x) for b in blocks for x in b), default=0)
    return "/".join(
        ",".join(str(x) for x in b) for b in canonical_blocks_b(blocks, m)
    )


def parse_blocks_b(text: str) -> SignedBlocks:
    """Literal with negative elements: "-1,-2,12/-3,-7,11/...".

    Negation closure is validated downstream, never inferred here.
    """
    text = text.strip()
    if not text:
        return ()
    blocks = tuple(
        tuple(int(x) for x in part.split(",")) for part in text.split("/")
    )
    m = max(abs(x) for b in blocks for x in b)
    return canonical_blocks_b(blocks, m)
