"""Type-preserving bijections between strips, lattice paths, and
noncrossing partitions.

All four maps work on the same primitive: a path's east steps are cut into
k unit segments, each lying in one diagonal region between consecutive
lines y = kx + i.  In unit coordinates (one 'e' per segment, one 'n' per
north step) a segment starting at (x, y) lies between the lines through
(x, y) and (x + 1, y), so its region is numbered by the integer x - y and
no rational arithmetic is ever needed.  Each segment has a parent in the
paper's labeling tree: the segment before it in its ascent, or, for the
first segment of a later ascent, the most recent earlier segment in its
region.  Inserting every segment into the label order right after its
parent gives the tree's preorder (attached subtree before the rest of the
ascent) without building the tree.  It labels the segments 1..kn, and the
label sets of the ascents are the blocks of a noncrossing partition.
"""

from __future__ import annotations

from typing import Sequence

from .lattice_paths import (
    heights_word,
    validate_fuss_binomial,
    validate_fuss_catalan,
)
from .noncrossing_a import Blocks, _grouped, validate_nc_a
from .noncrossing_b import SignedBlocks, _signed_labels, validate_nc_b
from .partitions import _check_nk
from .shapes import RStrip, SkewShape, _path_heights, strip_from_path


def _unit_word(word: str, k: int) -> str:
    """'e' per 1/k segment of each east step, 'n' per north step.  The empty
    word (n = 0) builds no run of k 'e's, so it costs nothing however large
    k is."""
    return word.replace("E", "e" * k).replace("N", "n") if word else word


def _link(units: str, order: Sequence[int], after: list[int]) -> int:
    """Link the 'e' units at the indices `order` of a unit word into the
    preorder of their labeling tree on `after`, and return the first (-1 if
    there is none).  Read in that order, the units walk from (0, 0) at or
    below y = x.

    A segment's tree parent is the segment before it in its ascent or, for
    the first segment of a later ascent, the most recent earlier segment in
    its diagonal region (x - y for a segment starting at (x, y)).  Each
    segment is linked into the label order right after its parent.  The
    next segment of an ascent is linked before any later ascent can attach
    to its predecessor, so an attached subtree lands ahead of the rest of
    the ascent: the links run in preorder from the first unit, and the last
    keeps the link that the first had, -1 on a fresh array.
    """
    last_in_region = [-1] * len(order)
    x = y = 0
    parent = -1  # tree parent of the next 'e', -1 after an 'n'
    for i in order:
        if units[i] == "n":
            y += 1
            parent = -1
            continue
        if parent < 0 and y:  # first segment of a later ascent
            if x < y or last_in_region[x - y] < 0:
                raise ValueError("segment has no earlier segment in its region" if x
                                 else "unit word must start with an east segment")
            parent = last_in_region[x - y]
        if parent >= 0:
            after[i] = after[parent]
            after[parent] = i
        last_in_region[x - y] = parent = i
        x += 1
    return order[0] if order else -1


def _preorder_ranks(units: str) -> list[int]:
    """Preorder label of each 'e' of a unit word whose walk stays at or below
    y = x, and 0 at each 'n'."""
    after = [-1] * len(units)
    v = _link(units, range(len(units)), after)
    rank = [0] * len(units)
    for label in range(1, units.count("e") + 1):
        rank[v] = label
        v = after[v]
    return rank


def path_to_noncrossing(word: str, n: int, k: int) -> Blocks:
    """Label the path's segments and read one block off each ascent.

    Preserves type and reduced type: the i-th ascent's segment count is k
    times the resulting block's share of the type, and the first ascent is
    the block containing the label 1.
    """
    _check_nk(n, k)
    validate_fuss_catalan(word, n, k)
    return _path_to_noncrossing(word, k)


def _path_to_noncrossing(word: str, k: int) -> Blocks:
    """path_to_noncrossing on a word already known to be in D_n^(k)."""
    labels = list(filter(None, _preorder_ranks(_unit_word(word, k))))
    # each ascent's labels are the next k * (its east steps) labels in unit
    # order; preorder labels rise along an ascent, and blocks have distinct
    # first elements, so sorting the tuples orders them by first element
    out = []
    i = 0
    for run in word.split("N"):
        if run:
            j = i + k * len(run)
            out.append(tuple(labels[i:j]))
            i = j
    return tuple(sorted(out))


def noncrossing_to_path(blocks, n: int, k: int) -> str:
    """Inverse labeling: rebuild the unique path whose ascent labels are blocks.

    The tree is forced: preorder visits an attached child immediately, so
    the minimum of every non-root block hangs from the element one below it.
    Ascents hit the path in preorder with children taken in reverse
    attachment order, and each ascent's height follows from its parent
    segment's diagonal region.
    """
    _check_nk(n, k)
    return _noncrossing_to_path(validate_nc_a(blocks, n, k), n, k)


def _noncrossing_to_path(blocks: Sequence[Sequence[int]], n: int, k: int) -> str:
    """noncrossing_to_path on canonical blocks already known to be in NC_n^(k)."""
    if n == 0:
        return ""
    kn = k * n
    start = [0] * (kn + 2)  # element -> the block it is the minimum of (0: none)
    for i, b in enumerate(blocks):
        start[b[0]] = i
    # one walk in preorder with later attachments first.  A block popped
    # after `total` units sits at height base + total: its base is its
    # parent's base less the position of its parent segment, so the ascent
    # starts as high as that segment's diagonal region allows
    base = [0] * len(blocks)
    total = y = 0
    word = []
    stack = [0]
    while stack:
        b = stack.pop()
        blk = blocks[b]
        if b:
            h = base[b] + total
            if h <= y:
                raise ValueError("partition is not in the labeling bijection's range")
            word.append("N" * (h - y))
            y = h
        word.append("E" * (len(blk) // k))
        total += len(blk)
        hb = base[b]
        for j, x in enumerate(blk):
            c = start[x + 1]
            if c:  # a child hangs from its minimum's predecessor
                base[c] = hb - j
                stack.append(c)
    if total != kn:
        raise ValueError("partition does not give a connected tree")
    word.append("N" * (kn - y))
    return "".join(word)


# The top box heights of the columns of each family shape (n^{kn}) / inner.
# Under the outer n^{kn}, n of them fix the inner partition.
_FAMILY_TOPS = {
    "stretched staircase": lambda n, k: tuple(range(k - 1, k * n, k)),
    "rectangle": lambda n, k: (k * n - 1,) * n,
}


def _family_params(shape: SkewShape, family: str) -> tuple[int, int]:
    """(n, k) of a shape of the family, read off its outer partition and
    column profile without building the family shape."""
    outer = shape.outer
    if outer:
        n = outer[0]
        k, rest = divmod(len(outer), n)
        if not rest and outer[-1] == n and shape.hi == _FAMILY_TOPS[family](n, k):
            return n, k
    raise ValueError(f"strip does not live in a {family} shape")


def staircase_strip_to_path(strip: RStrip) -> str:
    """Strip in the stretched staircase (n, k) -> Fuss-Catalan path (n+1, k).

    Prepends the east step along y = 0 and appends the final k north steps
    up the right wall; the strip's type becomes the path's reduced type.
    """
    n, k = _family_params(strip.shape, "stretched staircase")
    return _staircase_strip_to_path(strip.heights, n, k)


def _staircase_strip_to_path(heights: Sequence[int], n: int, k: int) -> str:
    """staircase_strip_to_path on the east-step heights of a strip of the
    stretched staircase (n, k), whose path climbs from height 0 to kn."""
    return "E" + heights_word(heights, 0, k * n) + "N" * k


def staircase_path_to_strip(word: str, shape: SkewShape) -> RStrip:
    """Fuss-Catalan path (n+1, k) -> strip in the stretched staircase (n, k),
    given as `shape`: the path without its first east step and last k north
    steps.

    The rest of the word crosses the shape exactly when the whole is a
    Fuss-Catalan path, so `strip_from_path` and the strip's height check
    are the whole validation.
    """
    _, k = _family_params(shape, "stretched staircase")
    if not (word.startswith("E") and word.endswith("N" * k)):
        raise ValueError(
            f"{word!r} is not a Fuss-Catalan path: it must start with E and "
            f"end with {k} N steps"
        )
    return strip_from_path(shape, word[1 : len(word) - k])


def _staircase_path_to_strip(word: str, k: int) -> tuple[int, ...]:
    """The heights of staircase_path_to_strip's strip, for a word already
    known to be in D_{n+1}^(k): `strip_from_path` reads the trimmed word
    with the same core."""
    return _path_heights(word[1 : len(word) - k], 0)


def rectangle_strip_to_path(strip: RStrip) -> str:
    """Strip in the rectangle (n, k) -> Fuss binomial path (n, k).

    The strip's lattice path itself: boxless columns cross at y = 0, so the
    ascent that fb_type discards is exactly the boxless prefix, and the
    strip's type equals the path's type.
    """
    n, k = _family_params(strip.shape, "rectangle")
    return _rectangle_strip_to_path(strip.heights, n, k)


def _rectangle_strip_to_path(heights: Sequence[int], n: int, k: int) -> str:
    """rectangle_strip_to_path on the east-step heights of a strip of the
    rectangle (n, k), whose path climbs from height 0 to kn."""
    return heights_word(heights, 0, k * n)


def rectangle_path_to_strip(word: str, shape: SkewShape) -> RStrip:
    """Fuss binomial path (n, k) -> strip in the rectangle (n, k), given as
    `shape`; `strip_from_path` and the strip's height check accept exactly
    the words with n E steps and kn N steps.  On a word already known to be
    in B_n^(k), the heights of the strip are `shapes._path_heights(word, 0)`,
    the core that `strip_from_path` wraps."""
    _family_params(shape, "rectangle")
    return strip_from_path(shape, word)


def path_to_signed_noncrossing(word: str, n: int, k: int) -> SignedBlocks:
    """The type-preserving map from Fuss binomial paths to NC_n^{B,(k)}.

    The kn segments fill the half-arc n0+1..n0+kn of the 2kn-gon, n0 the
    number of segments above the diagonal y = kx: the pieces below it left
    to right, then the pieces above it right to left, each in the preorder
    of its labeling tree (a piece above read backwards).  So the segments
    below get the labels n0+1..kn and those above -1..-n0.  Each ascent off
    y = 0 yields a block on the half-arc and its mirror on the other half;
    the y = 0 ascent, if present, yields the antipodal block.
    """
    _check_nk(n, k)
    validate_fuss_binomial(word, n, k)
    return _path_to_signed_noncrossing(word, n, k)


def _path_to_signed_noncrossing(word: str, n: int, k: int) -> SignedBlocks:
    """path_to_signed_noncrossing on a word already known to be in B_n^(k)."""
    m = k * n
    if n == 0:
        return ()
    units = _unit_word(word, k)
    # one pass: the cuts between the maximal runs below the diagonal y = x
    # (P_1..P_s) and above it (N_1..N_s), which alternate from P_1, empty
    # when the path starts north; n0, the segments above; and each
    # segment's (here, there) blocks: a block on the half-arc and its mirror
    # for an ascent off y = 0, one antipodal block for the ascent on it
    cuts = [0]
    below = True
    pair = [(0, 0)] * len(units)
    d = n0 = count = 0
    for i, u in enumerate(units):
        d += u == "n"  # now y - x at the unit's upper-left end
        if (d <= 0) != below:
            cuts.append(i)
            below = not below
        if u == "e":
            if not i or units[i - 1] == "n":  # an ascent starts
                cur = (count, count + 1) if i else (0, 0)
                count = cur[1] + 1
            pair[i] = cur
            n0 += not below
            d -= 1
    cuts += [len(units)] * (1 + below)  # close with an empty run above
    runs = list(zip(cuts, cuts[1:]))
    # the pieces below left to right, then those above right to left, each
    # read backwards, take the positions n0+1..n0+m in their preorders
    after = [-1] * len(units)
    heads = [_link(units, range(a, b), after) for a, b in runs[::2]]
    heads += [_link(units, range(b - 1, a - 1, -1), after) for a, b in reversed(runs[1::2])]
    # position p + 1 <= m (the label p + 1) goes to index p + m of the
    # canonical order, p + 1 > m (the label m - p - 1) to p - m, its mirror to p
    owner = [0] * (2 * m)
    p = n0
    for v in heads:
        while v >= 0:
            here, there = pair[v]
            owner[p + m if p < m else p - m] = here
            owner[p] = there
            p += 1
            v = after[v]
    return _grouped(_signed_labels(m), owner)


def signed_noncrossing_to_path(blocks, n: int, k: int) -> str:
    """Inverse of the type-B labeling map.

    The forward map puts one block of each mirror pair, or the antipodal
    block's positive half, on the half-arc of positions n0+1..n0+kn.  It
    starts at the least positive label of the antipodal block, or else of
    the last block whose negatives all lie below its positives in absolute
    value, or at -1 when no block has both.  The arc splits at the label -1
    into the pieces below the diagonal, left to right, and those above it,
    right to left.  A block on both sides is the ascent at a junction: its
    first position on each side starts the next piece below and the piece
    above that the ascent leaves.  The type-A inverse turns each piece, a
    noncrossing partition of consecutive positions, back into its
    segments, and joined in path order they regroup into east steps.
    """
    _check_nk(n, k)
    return _signed_noncrossing_to_path(validate_nc_b(blocks, n, k), n, k)


def _signed_noncrossing_to_path(blocks: SignedBlocks, n: int, k: int) -> str:
    """signed_noncrossing_to_path on canonical blocks already known to be in
    NC_n^{B,(k)}."""
    if n == 0:
        return ""
    m = k * n
    owner = [0] * (2 * m)  # canonical index -> block, as in validate_nc_b
    for i, b in enumerate(blocks):
        for v in b:
            owner[m + v - 1 if v > 0 else -v - 1] = i
    # a canonical block lists its negatives (by absolute value) before its
    # positives, so a block that mixes signs starts negative and ends positive
    a0 = m + 1
    for b in blocks:
        if b[0] < 0 < b[-1]:
            j = next(i for i, v in enumerate(b) if v > 0)
            if -b[0] in b:  # antipodal
                a0 = b[j]
                break
            if -b[j - 1] < b[j]:
                a0 = b[j]
    # the half-arc a0..m, -1..-(a0 - 1) wraps in canonical order
    arc = owner[m + a0 - 1 :] + owner[: a0 - 1]
    split = m + 1 - a0  # arc[:split] are the labels a0..m, the rest -1..-n0
    # block -> its first index on the negative side
    first = {arc[t]: t for t in range(m - 1, split - 1, -1)}
    # P_i = arc[p_cut[i-1] : p_cut[i]] and N_i = arc[n_cut[i] : n_cut[i-1]]
    p_cut, n_cut = [0], [m]
    for t in range(split):
        t_neg = first.pop(arc[t], None)
        if t_neg is not None:  # the junction of N_i and P_{i+1}
            p_cut.append(t)
            n_cut.append(t_neg)
    p_cut.append(split)
    n_cut.append(split)
    if n_cut != sorted(n_cut, reverse=True):
        raise ValueError("junction blocks are inconsistent")

    parts = []
    for i in range(1, len(p_cut)):
        for lo, hi, step in ((p_cut[i - 1], p_cut[i], 1), (n_cut[i], n_cut[i - 1], -1)):
            # a piece is the restriction of a noncrossing partition to an
            # arc, so its blocks, by first position, are already canonical
            piece = _grouped(range(1, hi - lo + 1), arc[lo:hi])
            parts.append(_noncrossing_to_path(piece, hi - lo, 1)[::step])
    # the units regroup into east steps: every run between two north steps
    runs = "".join(parts).split("N")
    if any(len(r) % k for r in runs):
        raise ValueError("segments do not regroup into east steps")
    return "N".join("E" * (len(r) // k) for r in runs)
