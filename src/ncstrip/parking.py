"""Classical and shape-relative parking functions.

A sequence of positive integers parks when its sorted rearrangement b
satisfies b_i <= i; it is primitive when already weakly increasing.  A
primitive parking function of length n is the same thing as a horizontal
strip in the staircase shape (heights plus one), which extends the notion
to arbitrary skew shapes.
"""

from __future__ import annotations

from itertools import permutations

from .bijections import path_to_noncrossing
from .lattice_paths import heights_word, monotone_heights
from .noncrossing_a import Blocks
from .partitions import Partition
from .shapes import SkewShape, enumerate_horizontal_strips


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


def _rearrangements(sequences) -> list[tuple[int, ...]]:
    """Every distinct permutation of each of the sequences, sorted."""
    out = set()
    for seq in sequences:
        out.update(permutations(seq))
    return sorted(out)


def enumerate_parking_functions(n: int) -> list[tuple[int, ...]]:
    """All parking functions of length n; (n+1)^(n-1) of them."""
    return _rearrangements(enumerate_primitive(n))


def primitive_pf_to_ncp(seq) -> Blocks:
    """Noncrossing partition of the same type as a primitive parking function.

    Realized through the Dyck path whose i-th ascent length is the
    multiplicity of the value i, followed by the labeling bijection.
    """
    seq = list(seq)
    if not is_primitive(seq):
        raise ValueError(f"{seq} is not a primitive parking function")
    word = heights_word([b - 1 for b in seq], 0, len(seq))
    return path_to_noncrossing(word, len(seq), 1)


def enumerate_shape_parking_functions(
    shape: SkewShape, primitive_only: bool = False
) -> list[tuple[int, ...]]:
    """Parking functions relative to a shape, as box height sequences.

    Primitive ones are the height sequences of the shape's horizontal
    strips; general ones are all distinct permutations of those.
    """
    primitives = enumerate_horizontal_strips(shape)
    return sorted(primitives) if primitive_only else _rearrangements(primitives)
