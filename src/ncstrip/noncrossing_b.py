"""Signed (type B) noncrossing partitions of {-m..-1, 1..m} with m = kn.

Polygon convention: the 2m-gon carries the labels 1, 2, ..., m, -1, -2,
..., -m clockwise.  The element order used for canonical listings is
-1 < -2 < ... < -m < 1 < 2 < ... < m; blocks are listed clockwise starting
from their minimal element in that order, which reads the polygon clockwise
from -1.  Arrays are indexed by it (-j at j - 1, j at m + j - 1).
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count
from operator import ne
from typing import Iterator

from .partitions import (
    Partition,
    _check_nk,
    as_partition,
    exact_quotients,
    falling_factorials,
    finish_census,
    finish_each,
    multiplicity_product,
    weight,
)
from .noncrossing_a import (
    _divided,
    _grouped,
    _sizes,
    noncrossing_partitions_of_seq,
    owners_noncrossing,
)

SignedBlocks = tuple[tuple[int, ...], ...]


def is_noncrossing_b(blocks, m: int) -> bool:
    """Whether the blocks partition [-m..m] minus 0, invariantly under
    negation and noncrossing on the 2m-gon."""
    try:
        validate_nc_b(blocks, m, 1)
    except ValueError:
        return False
    return True


def antipodal_block(blocks) -> tuple[int, ...] | None:
    """The unique self-negating block, or None."""
    found = None
    for b in blocks:
        if (not b or -b[0] in b) and set(b) == {-x for x in b}:
            if found is not None:
                raise ValueError("more than one antipodal block")
            found = tuple(sorted(b))
    return found


def _signed_labels(m: int) -> list[int]:
    """The signed labels in canonical order: -1..-m, then 1..m."""
    return [*range(-1, -m - 1, -1), *range(1, m + 1)]


def validate_nc_b(blocks, n: int, k: int) -> SignedBlocks:
    """Canonical blocks of a member of NC_n^{B,(k)}, checked in one pass.

    Every label is placed once on an array in canonical order (m = kn), the
    polygon cut open at -1, where crossings are the same.  The checks run in
    this order, and the first that fails raises ValueError: the blocks
    partition the signed set, the partition is invariant under negation, it
    is noncrossing on the polygon, and every block size is divisible by k.
    """
    m = k * n
    blocks = tuple(blocks)
    sizes = list(map(len, blocks))
    # counted first (each block must have a len), so the array is never
    # longer than the input
    if 0 in sizes or sum(sizes) != 2 * m:
        raise ValueError(f"blocks do not partition the signed set [-{m}..{m}]")
    owner = [-1] * (2 * m)  # canonical index -> block index
    overlap = False
    for i, b in enumerate(blocks):
        for v in b:
            if v == 0 or not -m <= v <= m:
                raise ValueError(f"label {v} outside the signed ground set of size {m}")
            t = m + v - 1 if v > 0 else -v - 1
            overlap = overlap or owner[t] >= 0
            owner[t] = i
    if overlap:
        raise ValueError(f"blocks do not partition the signed set [-{m}..{m}]")
    # invariant iff all members of a block have their negatives in one block
    mirror = [-1] * len(sizes)
    for i, j in zip(owner[m:], owner[:m]):
        if mirror[i] < 0:
            mirror[i] = j
        if mirror[j] < 0:
            mirror[j] = i
        if mirror[i] != j or mirror[j] != i:
            raise ValueError("partition is not invariant under negation")
    if not owners_noncrossing(owner, sizes):
        raise ValueError("partition is crossing on the polygon")
    out = _grouped(_signed_labels(m), owner)
    _divided(map(len, out), k)
    return out


def _type_b_of(sizes, k: int) -> Partition:
    """Sorted |B|/k over one block per {B, -B} orbit, the antipodal block
    dropped, from the block sizes of a member of NC_B alone: there the blocks
    other than the antipodal one come in pairs B, -B of equal size, so an
    odd number of blocks means an antipodal one, whose size is the one with
    odd multiplicity, and each orbit is one of every two equal sizes."""
    sizes = sorted(sizes, reverse=True)
    if len(sizes) % 2:
        # sorted, the pairs line up until the antipodal size: drop the first
        # of a pair that differs, or the last size when none does
        del sizes[next(compress(count(0, 2), map(ne, sizes[::2], sizes[1::2])), len(sizes) - 1)]
    return tuple(_divided(sizes[::2], k))


def type_b(blocks, k: int = 1) -> Partition:
    """Sorted |B|/k over one block per {B, -B} orbit; antipodal block dropped.

    The blocks must be a member of NC_B (as `validate_nc_b` and
    `enumerate_nc_b` give them): `type_b_each` of the one member reads the
    type from the block sizes alone.
    """
    return next(type_b_each([blocks], k))


def type_b_each(members, k: int = 1) -> Iterator[Partition]:
    """type_b of each member of NC_B, in order, finished once per distinct
    sequence of block sizes."""
    return finish_each(_type_b_of, _sizes(members), k)


def type_b_census(members, k: int = 1) -> Counter:
    """Counter of type_b over members of NC_B, finished once per distinct
    sequence of block sizes."""
    return finish_census(_type_b_of, _sizes(members), k)


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
    _check_nk(n, k)
    m = k * n
    if m == 0:
        return [()]
    labels = _signed_labels(m)
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
            for g in range(top + 1):  # (P, g) in canonical label order
                out.append(_grouped(labels, half[m - g :] + mirror + half[: m - g]))
    out.sort()
    return out


def type_counts_b(n: int, k: int, rows, products) -> list[int]:
    """Number of partitions in NC_n^{B,(k)} of each type in rows, in row
    order: perm(kn, l) / mult, the falling factorials one running product up
    to the longest row.  The rows weigh at most n, as `partition_rows` lists
    them with their multiplicity products, and are not checked again
    (`count_by_type_b` checks one)."""
    lengths = list(map(len, rows))
    falling = falling_factorials(k * n, max(lengths, default=0))
    return exact_quotients(map(falling.__getitem__, lengths), products)


def count_by_type_b(n: int, k: int, lam: Partition) -> int:
    """Number of partitions in NC_n^{B,(k)} with type lam (weight <= n)."""
    lam = as_partition(lam)
    if weight(lam) > n:
        raise ValueError(f"type weight must be <= n = {n}, got {weight(lam)}")
    return type_counts_b(n, k, [lam], [multiplicity_product(lam)])[0]

