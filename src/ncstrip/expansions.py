"""Formal expansions in the complete homogeneous basis.

An expansion is a dict mapping partitions (tuples) to positive integer
coefficients; the empty partition () indexes the constant term.  The
variables are never evaluated, so a dict is the whole story.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import chain, compress, repeat
from struct import calcsize

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

    A census is keyed by the type's packed multiplicities, sum m_r 2^(8 s r)
    with fields of s whole bytes (`_field_format`), each holding one m_r,
    so closing a run of r is one addition of 2^(8 s r).  Each final key is
    decoded once (`_unpacked`).
    """
    _require_contiguous(shape)
    lo, hi = shape.lo, shape.hi
    width = len(lo)
    fmt = _field_format(width)
    bits = 8 * calcsize(fmt)
    states: dict[tuple[int, int], dict[int, int]] = {(lo[0] if lo else 0, 0): {0: 1}}
    for l, h in zip(lo, hi):
        # the states were made in (y, run) order, as each column makes them
        preds = list(states.items())
        last = len(preds)
        states = {}
        below: dict[int, int] = {}  # closed censuses of the states passed so far
        i = 0
        for y in range(l, h + 2):
            # pass the states below y; a boxless step (y = l) closes the
            # runs at its own height too
            top = y if y == l else y - 1
            while i < last and preds[i][0][0] <= top:
                (_, run), census = preds[i]
                # the key of one part run; closing no run adds nothing
                _close_into(below, census, run and 1 << bits * run)
                i += 1
            if y == l:
                states[y, 0] = dict(below)
                continue
            if below:
                states[y, 1] = dict(below)
            # a boxless state sits at its column's bottom, and this column's
            # bottom l is no lower, so every state at y > l is a run that
            # the step extends: its one successor takes the census uncopied
            j = i  # the states at y, which the next y passes
            while j < last and preds[j][0][0] == y:
                (_, run), census = preds[j]
                states[y, run + 1] = census
                j += 1
    out: dict[int, int] = {}
    for (_, run), census in states.items():
        _close_into(out, census, run and 1 << bits * run)
    return _unpacked(out, width, fmt)


def _field_format(width: int) -> str:
    """The memoryview format of a packed census field at a shape's width: an
    unsigned int of whole bytes that holds one m_r, which is at most the
    width, as no part is longer and no part occurs more often."""
    return "B" if width < 1 << 8 else "H" if width < 1 << 16 else "I"


def _unpacked(census: dict[int, int], width: int, fmt: str) -> HExpansion:
    """The census with each key, m_r in field r of format fmt, read as its
    type: one conversion to bytes per key, viewed as fields from r = width
    down, the parts of the zero fields skipped in C."""
    length, order = calcsize(fmt) * (width + 1), sys.byteorder
    parts = range(width, -1, -1)
    out = {}
    for key, c in census.items():
        fields = memoryview(key.to_bytes(length, order)).cast(fmt)[::-1]
        out[tuple(chain.from_iterable(map(repeat, compress(parts, fields), compress(fields, fields))))] = c
    return out


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
