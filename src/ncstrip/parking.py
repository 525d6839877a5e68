"""Classical and shape-relative parking functions.

A sequence of positive integers parks when its sorted rearrangement b
satisfies b_i <= i; it is primitive when already weakly increasing.  A
primitive parking function of length n is the same thing as a horizontal
strip in the staircase shape (heights plus one), which extends the notion
to arbitrary skew shapes.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, repeat
from operator import ne

from .bijections import _path_to_noncrossing
from .lattice_paths import heights_word, monotone_heights
from .noncrossing_a import Blocks
from .partitions import Partition, finish_census
from .shapes import SkewShape, _require_full_columns


def is_parking_function(seq) -> bool:
    seq = list(seq)
    if any(x < 1 for x in seq):
        return False
    return all(b <= i for i, b in enumerate(sorted(seq), start=1))


def is_weakly_increasing(seq) -> bool:
    """Whether each term is at most the next: `is_primitive` without its
    parking check, for sequences an enumerator of this module gave."""
    seq = list(seq)
    return all(a <= b for a, b in zip(seq, seq[1:]))


def is_primitive(seq) -> bool:
    seq = list(seq)
    return is_parking_function(seq) and is_weakly_increasing(seq)


def multiplicity_type(seq) -> Partition:
    """Sorted multiplicities of the values: `pf_type` without its parking
    check, for sequences an enumerator of this module gave.  Equal values
    are adjacent once sorted, so the multiplicities are the run lengths."""
    sizes: list[int] = []
    prev = None
    for x in sorted(seq):
        if x == prev:
            sizes[-1] += 1
        else:
            sizes.append(1)
            prev = x
    sizes.sort(reverse=True)
    return tuple(sizes)


def primitive_type_census(seqs) -> Counter:
    """Counter(map(multiplicity_type, seqs)) for a list of weakly increasing
    tuples of positive integers, such as `enumerate_primitive` gives.  Their
    runs depend only on which neighbours differ, so the census tallies the
    step pattern of each sequence, a 1 where a term differs from the one
    before (the first differs from a 0 put in front), in C-level passes, and
    then runs `multiplicity_type` once per distinct pattern (at most 2^(n-1)
    at length n) on the sequence 1, 1 or 2, ... that steps as it says."""
    return finish_census(
        lambda pattern: multiplicity_type(accumulate(pattern)),
        map(bytes, map(map, repeat(ne), seqs, map((0,).__add__, seqs))),
    )


def pf_type(seq) -> Partition:
    """Sorted multiplicities of the values; requires a parking function."""
    seq = list(seq)
    if not is_parking_function(seq):
        raise ValueError(f"{seq} is not a parking function")
    return multiplicity_type(seq)


def enumerate_primitive(n: int) -> list[tuple[int, ...]]:
    """Weakly increasing parking functions of length n; catalan(n) of them."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return list(monotone_heights([1] * n, range(1, n + 1)))  # b_i <= i


def count_parking_functions(n: int) -> int:
    """(n+1)^(n-1), as an exact integer: the empty sequence counts once."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (n + 1) ** (n - 1) if n else 1


def _bounded_sequences(lo, hi) -> list[tuple[int, ...]]:
    """Every sequence whose sorted rearrangement b has lo_i <= b_i <= hi_i,
    in lexicographic order, for bounds read as given that weakly rise with
    lo_i <= hi_i: a parking function's, or a full-column shape's lo and hi.

    b <= hi holds exactly when, for each value t, the sequence has at least
    as many entries <= t as hi has, and b >= lo when it has at most as many
    as lo has.  After a prefix, the rest of the sequence still owes, for
    each t, how many more entries <= t it must hold and may hold; prefixes
    that owe the same share one list of suffixes.  The states each length of
    suffix can owe are found from the front, numbered in order, then their
    lists are built from the back one length at a time, each entry one
    tuple concatenation onto a suffix of the level before, and each list of
    that level is freed once its last reader has read it."""
    # the lists hold only tuples of ints, which form no cycle, yet each
    # collection their allocations set off scans every tuple still tracked:
    # about 35% of the listing's time at n = 6 and 7.  Pause the collector,
    # and leave it as it was found, also when the bounds raise.
    enabled = gc.isenabled()
    gc.disable()
    try:
        values = range(lo[0], hi[-1] + 1) if lo else range(0)
        # when every lower bound is the same (the classical case), a suffix of
        # m entries may hold all m at every t: `may` carries nothing, and the
        # states leave it empty
        states = {(tuple(bisect_right(hi, t) for t in values),
                   () if not lo or lo[0] == lo[-1]
                   else tuple(bisect_right(lo, t) for t in values)): 0}
        steps = []  # per level: each state's moves (head, number of the next state)
        for m in range(len(lo), 0, -1):  # m entries to go
            step, following = [], {}
            for must, may in states:
                # the next entry is a v with room left at every t >= v, and at
                # most the first t that still owes all m entries; the rest owes
                # one entry fewer at each t >= v, and never more than m - 1
                first = len(may)
                while first and may[first - 1]:
                    first -= 1
                fewer = tuple(x - 1 if x else 0 for x in must)
                if may:
                    room = tuple(min(x, m - 1) for x in may)
                    less_room = tuple(min(x, m) - 1 for x in may)
                else:
                    room = less_room = may
                step.append([
                    ((values[j],), following.setdefault(
                        (must[:j] + fewer[j:], room[:j] + less_room[j:]), len(following)))
                    for j in range(first, must.index(m) + 1)
                ])
            readers = [0] * len(following)
            for moves in step:
                for _, rest in moves:
                    readers[rest] += 1
            steps.append((step, readers))
            states = following
        suffixes = [[()]] * len(states)
        for step, readers in reversed(steps):
            level = []
            for moves in step:
                out = []
                for head, rest in moves:
                    out += map(head.__add__, suffixes[rest])
                    readers[rest] -= 1
                    if not readers[rest]:
                        suffixes[rest] = None
                level.append(out)
            suffixes = level
        return suffixes[0]
    finally:
        if enabled:
            gc.enable()


def enumerate_parking_functions(n: int) -> list[tuple[int, ...]]:
    """All parking functions of length n; (n+1)^(n-1) of them."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _bounded_sequences([1] * n, range(1, n + 1))  # 1 <= b_i <= i


def _primitive_pf_to_ncp(seq) -> Blocks:
    """primitive_pf_to_ncp without its input check."""
    return _path_to_noncrossing(heights_word([b - 1 for b in seq], 0, len(seq)), 1)


def primitive_pf_to_ncp(seq) -> Blocks:
    """Noncrossing partition of the same type as a primitive parking function.

    Realized through the Dyck path whose i-th ascent length is the
    multiplicity of the value i, followed by the labeling bijection.
    """
    seq = list(seq)
    if not is_primitive(seq):
        raise ValueError(f"{seq} is not a primitive parking function")
    return _primitive_pf_to_ncp(seq)


def enumerate_shape_parking_functions(shape: SkewShape) -> list[tuple[int, ...]]:
    """Parking functions relative to a shape, as box height sequences: all
    distinct rearrangements of the primitive ones, which are the height
    sequences of the shape's horizontal strips
    (`shapes.enumerate_horizontal_strips`)."""
    _require_full_columns(shape)
    return _bounded_sequences(shape.lo, shape.hi)
