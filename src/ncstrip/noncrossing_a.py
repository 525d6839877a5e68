"""Noncrossing set partitions of [n], k-divisibility, and their counting.

A partition is stored canonically as a tuple of blocks, each block a tuple
of elements in increasing order, blocks sorted by their minimum.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .partitions import (
    Partition,
    as_partition,
    exact_div,
    multiplicity_product,
    weight,
)

Blocks = tuple[tuple[int, ...], ...]


def canonical_blocks(blocks: Iterable[Iterable[int]]) -> Blocks:
    out = tuple(tuple(sorted(b)) for b in blocks)
    return tuple(sorted(out, key=lambda b: b[0]))


def _owners(blocks, n: int) -> tuple[list[int], list[int]]:
    """(owner, sizes) of a set partition of [n], each element placed once.

    owner[x] is the index of the block holding x (owner[0] is unused) and
    sizes[i] is the size of block i.  Raises ValueError on an empty block or
    when the blocks do not cover [1..n] exactly once.
    """
    owner = [-1] * (n + 1)
    sizes: list[int] = []
    for i, b in enumerate(blocks):
        size = 0
        for x in b:
            if not 1 <= x <= n or owner[x] >= 0:
                raise ValueError(f"blocks do not partition [1..{n}]")
            owner[x] = i
            size += 1
        if not size:
            raise ValueError("empty block")
        sizes.append(size)
    if sum(sizes) != n:
        raise ValueError(f"blocks do not partition [1..{n}]")
    return owner, sizes


def _listing(owner: list[int], n: int) -> Blocks:
    """Canonical blocks read off an owner array in increasing order."""
    out: dict[int, list[int]] = {}
    for x in range(1, n + 1):
        out.setdefault(owner[x], []).append(x)
    return tuple(tuple(b) for b in out.values())


def validate_set_partition(blocks, n: int) -> Blocks:
    """Canonical blocks of a set partition of [n], checked in one pass.

    Raises ValueError on an empty block or when the blocks do not cover
    [1..n] exactly once.
    """
    return _listing(_owners(blocks, n)[0], n)


def validate_nc_a(blocks, n: int, k: int) -> Blocks:
    """Canonical blocks of a member of NC_n^(k), checked in one pass.

    Every element of [kn] is placed once on an owner array, which the
    crossing scan then reads directly.  The checks run in this order, and
    the first that fails raises ValueError: the blocks partition [kn], the
    partition is noncrossing, and every block size is divisible by k.
    """
    owner, sizes = _owners(blocks, k * n)
    if not owners_noncrossing(owner[1:], sizes):
        raise ValueError("partition is crossing")
    out = _listing(owner, k * n)
    for b in out:
        if len(b) % k:
            raise ValueError(f"block size {len(b)} is not divisible by {k}")
    return out


def owners_noncrossing(owners, sizes) -> bool:
    """Stack scan of a ground set read in increasing order.

    owners[j] is the index of the block holding the j-th smallest element
    and sizes[i] is the size of block i.  The partition is noncrossing iff
    every block that is revisited is the most recently opened block that
    is not yet finished.
    """
    left = list(sizes)
    stack: list[int] = []
    for i in owners:
        left[i] -= 1
        if left[i] == sizes[i] - 1:  # first element: open the block
            if left[i]:
                stack.append(i)
        elif stack[-1] != i:
            return False
        elif not left[i]:
            stack.pop()
    return True


def blocks_noncrossing(blocks: Iterable[Iterable[int]]) -> bool:
    """No quadruple a < b < c < d with a,c in one block and b,d in another.

    Works for disjoint blocks over any integer ground set (type B uses it on
    polygon positions).
    """
    blocks = [tuple(b) for b in blocks]
    owner = {x: i for i, b in enumerate(blocks) for x in b}
    return owners_noncrossing(
        [owner[x] for x in sorted(owner)], [len(b) for b in blocks]
    )


def is_noncrossing(blocks, n: int | None = None) -> bool:
    """Crossing test for a set partition of [n]."""
    if n is None:
        return blocks_noncrossing(blocks)
    owner, sizes = _owners(blocks, n)
    return owners_noncrossing(owner[1:], sizes)


def noncrossing_partitions_of_seq(seq, k: int = 1) -> Iterator[Blocks]:
    """Noncrossing partitions of an increasing ground sequence.

    Every block size must be divisible by k.  Each partition is yielded
    exactly once, as canonical blocks: each block ascending, blocks ordered
    by their first element (the order in which the scan opens them).
    """
    seq = list(seq)
    n = len(seq)
    if n == 0:
        yield ()
        return
    blocks: list[list[int]] = []  # every block, in the order it was opened
    stack: list[list[int]] = []  # the open blocks

    def grow(b: list[int]) -> int:
        # change in the deficit (elements the open blocks still need to
        # reach a multiple of k) when b gains one element
        return k - 1 if len(b) % k == 0 else -1

    def rec(i: int, deficit: int) -> Iterator[Blocks]:
        if deficit > n - i:
            return
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        x = seq[i]
        # start a new block
        new = [x]
        blocks.append(new)
        stack.append(new)
        yield from rec(i + 1, deficit + k - 1)
        stack.pop()
        blocks.pop()
        # join an open block, closing everything nested above it (a closed
        # block's size is a multiple of k, so it leaves the deficit alone)
        if stack:
            d = deficit + grow(stack[-1])
            stack[-1].append(x)
            yield from rec(i + 1, d)
            stack[-1].pop()
        closed = []
        while len(stack) > 1 and len(stack[-1]) % k == 0:
            closed.append(stack.pop())
            d = deficit + grow(stack[-1])
            stack[-1].append(x)
            yield from rec(i + 1, d)
            stack[-1].pop()
        while closed:
            stack.append(closed.pop())

    yield from rec(0, 0)


def enumerate_k_divisible(n: int, k: int) -> list[Blocks]:
    """All of NC_n^(k): noncrossing partitions of [kn], blocks divisible by k."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    return sorted(noncrossing_partitions_of_seq(range(1, k * n + 1), k))


def type_a(blocks, k: int = 1) -> Partition:
    """Sorted block sizes, each divided by k."""
    sizes = sorted((len(b) for b in blocks), reverse=True)
    for s in sizes:
        if s % k:
            raise ValueError(f"block size {s} is not divisible by {k}")
    return tuple(s // k for s in sizes)


def reduced_type_a(blocks, k: int = 1) -> Partition:
    """Type after deleting the block containing the symbol 1."""
    if not blocks:
        raise ValueError("the reduced type needs n >= 1")
    rest = [b for b in blocks if 1 not in b]
    if len(rest) != len(tuple(blocks)) - 1:
        raise ValueError("no unique block contains the symbol 1")
    return type_a(rest, k)


def count_by_type(n: int, k: int, zeta: Partition) -> int:
    """Number of partitions in NC_n^(k) with type zeta (a partition of n)."""
    zeta = as_partition(zeta)
    if weight(zeta) != n:
        raise ValueError(f"type must be a partition of {n}, got weight {weight(zeta)}")
    kn = k * n
    # kn! / (mult (kn+1-l)!) as a falling factorial: l factors, not kn
    return exact_div(
        math.perm(kn + 1, len(zeta)), (kn + 1) * multiplicity_product(zeta)
    )


def count_by_reduced_type(n: int, k: int, lam: Partition) -> int:
    """Number of partitions in NC_n^(k) with reduced type lam.

    lam = () means the block containing 1 is the whole ground set; weights
    n and above are impossible because that block is nonempty.
    """
    lam = as_partition(lam)
    if weight(lam) >= n:
        raise ValueError(
            f"reduced type weight must be < n = {n}, got {weight(lam)}"
        )
    kn = k * n
    return exact_div(
        math.perm(kn, len(lam)) * (n - weight(lam)), n * multiplicity_product(lam)
    )


def format_blocks(blocks) -> str:
    """Literal: blocks joined by '/', elements by ',': "1,2,5,6/3,4/7,8"."""
    return "/".join(",".join(str(x) for x in b) for b in canonical_blocks(blocks))


def parse_blocks(text: str) -> Blocks:
    text = text.strip()
    if not text:
        return ()
    return canonical_blocks(
        tuple(int(x) for x in part.split(",")) for part in text.split("/")
    )
