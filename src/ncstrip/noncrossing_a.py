"""Noncrossing set partitions of [n], k-divisibility, and their counting.

A partition is stored canonically as a tuple of blocks, each block a tuple
of elements in increasing order, blocks sorted by their minimum.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat, tee
from operator import mul
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
    remove_part,
    weight,
)

Blocks = tuple[tuple[int, ...], ...]


def _owners(blocks, n: int) -> tuple[list[int], list[int]]:
    """(owner, sizes) of a set partition of [n], each element placed once.

    owner[x - 1] is the index of the block holding x and sizes[i] is the
    size of block i.  Raises ValueError on an empty block or when the
    blocks do not cover [1..n] exactly once.  Each block must have a len (a
    tuple, list or set): the elements are counted before the array is
    allocated, so its length never exceeds the input's.
    """
    blocks = tuple(blocks)
    sizes = list(map(len, blocks))
    if sum(sizes) != n:
        raise ValueError(f"blocks do not partition [1..{n}]")
    owner = [-1] * n
    for i, b in enumerate(blocks):
        if not b:
            raise ValueError("empty block")
        for x in b:
            if not 1 <= x <= n or owner[x - 1] >= 0:
                raise ValueError(f"blocks do not partition [1..{n}]")
            owner[x - 1] = i
    return owner, sizes


def _grouped(labels, owners) -> Blocks:
    """The labels grouped by owner in the order they are read, so labels
    read in canonical order give the canonical blocks."""
    out: dict[int, list[int]] = {}
    for x, b in zip(labels, owners):
        out.setdefault(b, []).append(x)
    return tuple(map(tuple, out.values()))


def _divided(sizes, k: int) -> list[int]:
    """Each block size divided by k; refuses the first that k does not divide."""
    sizes = list(sizes)
    for s in sizes:
        if s % k:
            raise ValueError(f"block size {s} is not divisible by {k}")
    return [s // k for s in sizes]


def validate_nc_a(blocks, n: int, k: int) -> Blocks:
    """Canonical blocks of a member of NC_n^(k), checked in one pass.

    Every element of [kn] is placed once on an owner array, which the
    crossing scan then reads directly.  The checks run in this order, and
    the first that fails raises ValueError: the blocks partition [kn], the
    partition is noncrossing, and every block size is divisible by k.
    """
    owner, sizes = _owners(blocks, k * n)
    if not owners_noncrossing(owner, sizes):
        raise ValueError("partition is crossing")
    out = _grouped(range(1, k * n + 1), owner)
    _divided(map(len, out), k)
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


def is_noncrossing(blocks, n: int) -> bool:
    """Crossing test for a set partition of [n]."""
    owner, sizes = _owners(blocks, n)
    return owners_noncrossing(owner, sizes)


def noncrossing_partitions_of_seq(seq, k: int = 1) -> list[Blocks]:
    """Noncrossing partitions of an increasing ground sequence, every block
    size divisible by k, each listed once as canonical blocks (each block
    ascending, blocks ordered by their first element), in sorted order.

    A member is its first block, which holds seq[0], and in each gap of that
    block (the run between two of its elements, or after the last) a member
    on the gap (Kreweras 1972).  First blocks are listed prefix-first, so in
    lexicographic order, and each is followed by the product of its gaps'
    lists in gap order.  That is the sorted order: no member of a gap's list
    is a proper prefix of another.  Each interval's list is built once per
    call.  The loop over first blocks is iterative and skips a prefix that
    can no longer reach a size divisible by k; only nested gaps recurse.
    """
    seq = tuple(seq)
    if len(seq) % k:
        return []
    lists: dict[tuple[int, int], list[Blocks]] = {}

    def listed(lo: int, hi: int) -> list[Blocks]:
        """The members on seq[lo:hi], where k divides hi - lo."""
        if lo == hi:
            return [()]
        if (lo, hi) in lists:
            return lists[lo, hi]
        out = lists[lo, hi] = []
        block = [lo]  # indices of the first block's elements so far
        # heads[j]: the members of the gaps closed by block[: j + 1], joined
        heads: list[list[tuple]] = [[()]]
        # an element at index c leaves room for the (-len(block) - 1) % k
        # more that bring the block's size to a multiple of k
        while True:
            s, last = len(block), block[-1]
            if s % k == 0:
                b = tuple(map(seq.__getitem__, block))
                out += [(b, *h, *t) for h in heads[-1] for t in listed(last + 1, hi)]
            if last + 1 + (-s - 1) % k < hi:  # next element right after the last
                block.append(last + 1)
                heads.append(heads[-1])
                continue
            while len(block) > 1:  # move the last element k further, or drop it
                c = block.pop() + k
                heads.pop()
                if c + (-len(block) - 1) % k < hi:
                    gap = listed(block[-1] + 1, c)
                    block.append(c)
                    heads.append([h + g for h in heads[-1] for g in gap])
                    break
            else:
                return out

    out = listed(0, len(seq))
    # the closure refers to itself through its cell, a cycle that would keep
    # it, its memo and every interval's list alive until a collection
    del listed
    return out


def enumerate_k_divisible(n: int, k: int) -> list[Blocks]:
    """All of NC_n^(k): noncrossing partitions of [kn], blocks divisible by
    k, in canonical order."""
    _check_nk(n, k)
    return noncrossing_partitions_of_seq(range(1, k * n + 1), k)


def _sizes(members) -> Iterator[tuple[int, ...]]:
    """Each member's block sizes in its order, read in C-level passes: the
    signature of its type."""
    # through a list: CPython builds a tuple from an iterator at a guessed
    # length and cuts it down, and once dropped it waits on the free list of
    # its cut length, which the next guessed-length tuple does not take
    # from; over NC_9^(1) that left about 0.4 MB allocated
    return map(tuple, map(list, map(map, repeat(len), members)))


def block_signatures(members) -> Iterator[tuple[int | None, tuple[int, ...]]]:
    """(least element of the first block, block sizes) of each canonical
    member, read in C-level passes: the signature its type and reduced type
    depend on.  On a canonical member (blocks ordered by least element, each
    increasing, as the listers, psi-a's forward and `validate_nc_a` give
    them) the block that holds 1, if any, is the first one.  The least
    element is None for a member with no blocks.  Each member is read
    twice, so it must be a sequence of blocks."""
    members, again = tee(members)
    return zip(map(next, map(chain.from_iterable, again), repeat(None)), _sizes(members))


def _holder_first(blocks) -> tuple[int | None, tuple[int, ...]]:
    """The signature of one member whose blocks come in any order: 1 and its
    block sizes with the one block that holds 1 moved first."""
    blocks = tuple(blocks)
    if not blocks:
        return None, ()
    holders = [i for i, b in enumerate(blocks) if 1 in b]
    if len(holders) != 1:
        raise ValueError("no unique block contains the symbol 1")
    sizes = [*map(len, blocks)]
    return 1, (sizes.pop(holders[0]), *sizes)


def _type_a_of(sizes, k: int) -> Partition:
    """Sorted block sizes, each divided by k."""
    sizes = sorted(sizes, reverse=True)
    return tuple(sizes if k == 1 else _divided(sizes, k))


def _types_a_of(signature, k: int) -> tuple[Partition, Partition]:
    """(type, reduced type) from one sort of the block sizes, the reduced
    type dropping one part for the first block, which must hold 1 and, as
    for the type, have a size that k divides."""
    first, sizes = signature
    if first != 1:
        if first is None:
            raise ValueError("the reduced type needs n >= 1")
        raise ValueError("no unique block contains the symbol 1")
    zeta = _type_a_of(sizes, k)
    return zeta, remove_part(zeta, sizes[0] // k)


def type_a(blocks, k: int = 1) -> Partition:
    """Sorted block sizes, each divided by k."""
    return _type_a_of(map(len, blocks), k)


def types_a_each(members, k: int = 1) -> Iterator[tuple[Partition, Partition]]:
    """(type_a, reduced_type_a) of each canonical member, in order, finished
    once per distinct signature (`block_signatures`)."""
    return finish_each(_types_a_of, block_signatures(members), k)


def types_a_census(members, k: int = 1) -> Counter:
    """Counter of `types_a_each` over canonical members, finished once per
    distinct signature."""
    return finish_census(_types_a_of, block_signatures(members), k)


def reduced_type_a(blocks, k: int = 1) -> Partition:
    """Type after deleting the block containing the symbol 1, from the one
    finisher the whole-list forms run (`_types_a_of`), so a block holding 1
    whose size k does not divide is refused."""
    return _types_a_of(_holder_first(blocks), k)[1]


def type_counts(n: int, k: int, rows, products) -> list[int]:
    """Number of partitions in NC_n^(k) of each type in rows, in row order.

    The rows are partitions of n as `partition_rows` lists them, with their
    multiplicity products, and are not checked again (`count_by_type`
    checks one).  kn! / (mult (kn+1-l)!) is perm(kn+1, l) / ((kn+1) mult):
    the falling factorials are one running product up to the longest row,
    however large kn is.
    """
    kn1 = k * n + 1
    lengths = list(map(len, rows))
    falling = falling_factorials(kn1, max(lengths, default=0))
    return exact_quotients(map(falling.__getitem__, lengths), map(kn1.__mul__, products))


def reduced_type_counts(n: int, k: int, rows, products) -> list[int]:
    """Number of partitions in NC_n^(k) of each reduced type in rows, in row
    order: perm(kn, l) (n - |lam|) / (n mult).  n >= 1, and the rows weigh
    less than n, unchecked as in `type_counts`."""
    lengths = list(map(len, rows))
    falling = falling_factorials(k * n, max(lengths, default=0))
    return exact_quotients(
        map(mul, map(falling.__getitem__, lengths), map(n.__sub__, map(sum, rows))),
        map(n.__mul__, products),
    )


def count_by_type(n: int, k: int, zeta: Partition) -> int:
    """Number of partitions in NC_n^(k) with type zeta (a partition of n)."""
    zeta = as_partition(zeta)
    if weight(zeta) != n:
        raise ValueError(f"type must be a partition of {n}, got weight {weight(zeta)}")
    return type_counts(n, k, [zeta], [multiplicity_product(zeta)])[0]


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
    return reduced_type_counts(n, k, [lam], [multiplicity_product(lam)])[0]


def read_blocks(text: str) -> Blocks:
    """The blocks of a literal as written: "3,1/2" is ((3, 1), (2,)), which
    `validate_nc_a` or `validate_nc_b` then checks at (n, k)."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(tuple(int(x) for x in part.split(",")) for part in text.split("/"))
    except ValueError as e:
        raise ValueError(f"bad blocks literal {text!r}: {e}") from None


def format_blocks(blocks: Blocks) -> str:
    """Literal of canonical blocks: blocks joined by '/', elements by ','."""
    return "/".join(",".join(map(str, b)) for b in blocks)

