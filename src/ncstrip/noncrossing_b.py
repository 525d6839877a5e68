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


def element_key(v: int) -> tuple[int, int]:
    """Sort key for -1 < -2 < ... < -m < 1 < 2 < ... < m."""
    return (0, -v) if v < 0 else (1, v)


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


def validate_nc_b(blocks, n: int, k: int) -> SignedBlocks:
    """Canonical blocks of a member of NC_n^{B,(k)}, checked in one pass.

    Every label is placed once on an array of the 2m polygon positions
    (m = kn).  The checks run in this order, and the first that fails
    raises ValueError: the blocks partition the signed set, the partition
    is invariant under negation, it is noncrossing on the polygon, and every
    block size is divisible by k.
    """
    m = k * n
    owner = [-1] * (2 * m + 1)  # position -> block index
    sizes: list[int] = []
    overlap = False
    for i, b in enumerate(blocks):
        size = 0
        for v in b:
            p = position(v, m)
            overlap = overlap or owner[p] >= 0
            owner[p] = i
            size += 1
        sizes.append(size)
    if overlap or 0 in sizes or sum(sizes) != 2 * m:
        raise ValueError(f"blocks do not partition the signed set [-{m}..{m}]")
    # invariant iff all members of a block have their negatives in one block
    mirror = [-1] * len(sizes)
    for p in range(1, m + 1):
        for q, r in ((p, p + m), (p + m, p)):
            i, j = owner[q], owner[r]
            if mirror[i] < 0:
                mirror[i] = j
            elif mirror[i] != j:
                raise ValueError("partition is not invariant under negation")
    if not owners_noncrossing(owner[1:], sizes):
        raise ValueError("partition is crossing on the polygon")
    # clockwise from position m + 1 (the label -1) meets every block at its
    # minimal element first, so this is the canonical listing
    out: dict[int, list[int]] = {}
    for p in itertools.chain(range(m + 1, 2 * m + 1), range(1, m + 1)):
        out.setdefault(owner[p], []).append(label_at(p, m))
    for b in out.values():
        if len(b) % k:
            raise ValueError(f"block size {len(b)} is not divisible by {k}")
    return tuple(tuple(b) for b in out.values())


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


def _mirror_pos(p: int, m: int) -> int:
    return p + m if p <= m else p - m


def enumerate_nc_b(n: int, k: int) -> list[SignedBlocks]:
    """All of NC_n^{B,(k)}, built directly (not via any bijection).

    Partitions with an antipodal block: choose the block's positive-half
    position set, then fill half of the sectors it cuts out and mirror them.
    Partitions without one: some diameter of the 2m-gon separates the blocks
    from their mirrors; cut there, fill one half, mirror, and deduplicate.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    m = k * n
    if m == 0:
        return [()]
    results: set[SignedBlocks] = set()

    def to_labels(pos_blocks) -> SignedBlocks:
        return canonical_blocks_b(
            [tuple(label_at(p, m) for p in b) for b in pos_blocks], m
        )

    # with an antipodal block
    for z in range(1, m + 1):
        if (2 * z) % k:
            continue
        for zplus in itertools.combinations(range(1, m + 1), z):
            q = list(zplus) + [p + m for p in zplus]
            sectors = []
            for i in range(z):
                a, b = q[i], q[i + 1] if i + 1 < 2 * z else q[0] + 2 * m
                sectors.append(list(range(a + 1, b)))
            fillings = [
                list(noncrossing_partitions_of_seq(sec, k)) for sec in sectors
            ]
            if not all(fillings):
                continue
            for choice in itertools.product(*fillings):
                pos_blocks = [q]
                for part in choice:
                    for blk in part:
                        pos_blocks.append(list(blk))
                        pos_blocks.append([_mirror_pos(p, m) for p in blk])
                results.add(to_labels(pos_blocks))

    # without an antipodal block: cut along each diameter
    for g in range(m):
        arc = list(range(g + 1, g + m + 1))
        for part in noncrossing_partitions_of_seq(arc, k):
            pos_blocks = []
            for blk in part:
                wrapped = [p if p <= 2 * m else p - 2 * m for p in blk]
                pos_blocks.append(wrapped)
                pos_blocks.append([_mirror_pos(p, m) for p in wrapped])
            results.add(to_labels(pos_blocks))

    return sorted(results)


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
