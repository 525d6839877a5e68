"""Formal expansions in the complete homogeneous basis.

An expansion is a dict mapping partitions (tuples) to positive integer
coefficients; the empty partition () indexes the constant term.  The
variables are never evaluated, so a dict is the whole story.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat

from .noncrossing_a import reduced_type_counts, type_counts
from .noncrossing_b import type_counts_b
from .partitions import (
    Partition,
    _check_shape_nk,
    partition_rows,
    partition_sort_key,
)
from .shapes import SkewShape, _require_contiguous, iter_strip_heights, run_type

HExpansion = dict[Partition, int]


def expand_skew(shape: SkewShape) -> HExpansion:
    """Coefficient of h_lam = number of r-strips of type lam in the shape."""
    census: Counter[Partition] = Counter()
    for heights in iter_strip_heights(shape):
        census[run_type(shape.lo, heights)] += 1
    return dict(census)


def _close_into(total: dict[int, int], census: dict[int, int], part: int) -> None:
    """Add to total the census with an open run closed into each type: part
    is the packed key of that run's one part, 0 for no run.  Adding one
    part is injective, so no two types of census collide."""
    for key, c in census.items():
        key += part
        total[key] = total.get(key, 0) + c


def expand_skew_by_columns(shape: SkewShape) -> HExpansion:
    """expand_skew counted column by column, listing no strip: the transfer
    matrix of Stanley, EC1 4.7, over the monotone paths across the shape.

    A state is (y, run): the last east step is at height y and closes an
    open run of `run` boxed columns at that height (0 after a boxless
    column).  It carries the census of the types of the runs already
    closed.  Over the next column, with bottom l, a step at y' = l has no
    box; a boxed step at the same height extends the run; any other boxed
    step, or a boxless one, closes it.

    A census is keyed by the type's packed multiplicities, sum m_r 2^(b r)
    with b the bit length of the shape's width: no part is longer than the
    width and no part occurs more often, so each m_r fits its field, and
    closing a run of r is one addition of 2^(b r).  Each final key is
    decoded once.
    """
    _require_contiguous(shape)
    lo, hi = shape.lo, shape.hi
    width = len(lo)
    b = width.bit_length()
    # close[r]: the key of one part r; closing no run adds nothing
    close = [0, *(1 << b * r for r in range(1, width + 1))]
    states: dict[tuple[int, int], dict[int, int]] = {(lo[0] if lo else 0, 0): {0: 1}}
    for l, h in zip(lo, hi):
        preds = sorted(states.items())
        states = {}
        below: dict[int, int] = {}  # closed censuses of the states passed so far
        i = 0
        for y in range(l, h + 2):
            # pass the states below y; a boxless step (y = l) closes the
            # runs at its own height too
            top = y if y == l else y - 1
            while i < len(preds) and preds[i][0][0] <= top:
                (_, run), census = preds[i]
                _close_into(below, census, close[run])
                i += 1
            if y == l:
                states[y, 0] = dict(below)
                continue
            # a boxless state sits at its column's bottom, and this column's
            # bottom l is no lower, so every state at y > l is a run that
            # the step extends: its one successor takes the census uncopied
            j = i  # the states at y, which the next y passes
            while j < len(preds) and preds[j][0][0] == y:
                (_, run), census = preds[j]
                states[y, run + 1] = census
                j += 1
            if below:
                states[y, 1] = dict(below)
    out: dict[int, int] = {}
    for (_, run), census in states.items():
        _close_into(out, census, close[run])
    # a key's m_r for r = width..1, each r repeated m_r times
    mask = (1 << b) - 1
    parts = range(width, 0, -1)
    shifts = [b * r for r in parts]
    return {
        tuple(chain.from_iterable(map(repeat, parts, map(mask.__and__, map(key.__rshift__, shifts))))): c
        for key, c in out.items()
    }


def fuss_a_expansion_formula(n: int, k: int) -> HExpansion:
    """Closed form for the stretched staircase expansion.

    The h_lam coefficient is the number of k-divisible noncrossing
    partitions of [k(n+1)] with reduced type lam.
    """
    _check_shape_nk(n, k)
    rows, products = partition_rows(n, True)
    return dict(zip(rows, reduced_type_counts(n + 1, k, rows, products)))


def fuss_b_expansion_formula(n: int, k: int) -> HExpansion:
    """Closed form for the rectangle expansion.

    The h_lam coefficient is the number of k-divisible signed noncrossing
    partitions of [kn]^+- with type lam.
    """
    _check_shape_nk(n, k)
    rows, products = partition_rows(n, True)
    return dict(zip(rows, type_counts_b(n, k, rows, products)))


def parking_expansion(n: int) -> HExpansion:
    """The parking function symmetric function: support is partitions of n.

    The h_lam coefficient is the number of noncrossing partitions of [n]
    with type lam.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rows, products = partition_rows(n)
    return dict(zip(rows, type_counts(n, 1, rows, products)))


def top_homogeneous_part(e: HExpansion, d: int) -> HExpansion:
    return {lam: c for lam, c in e.items() if sum(lam) == d}


def expansion_diff(
    a: HExpansion, b: HExpansion
) -> list[tuple[Partition, int, int]]:
    """Every lam whose coefficients differ, as (lam, a_coeff, b_coeff)."""
    out = []
    for lam in sorted(set(a) | set(b), key=partition_sort_key):
        ca, cb = a.get(lam, 0), b.get(lam, 0)
        if ca != cb:
            out.append((lam, ca, cb))
    return out


def expansion_items(e: HExpansion) -> list[tuple[Partition, int]]:
    """(partition, coefficient) pairs in canonical partition order."""
    return sorted(e.items(), key=lambda kv: partition_sort_key(kv[0]))
