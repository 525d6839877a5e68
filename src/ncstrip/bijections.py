"""Type-preserving bijections between strips, lattice paths, and
noncrossing partitions.

All four maps work on the same primitive: a path's east steps are cut into
k unit segments, each lying in one diagonal region between consecutive
lines y = kx + i.  In unit coordinates (one segment per 1/k east step, one
unit per north step) a segment starting at (x, y) lies between the lines
through (x, y) and (x + 1, y), so its region is numbered by the integer
x - y and no rational arithmetic is ever needed.  Each segment has a parent
in the paper's labeling tree: the segment before it in its ascent, or, for
the first segment of a later ascent, the most recent earlier segment in its
region.  Inserting every segment into the label order right after its
parent gives the tree's preorder (attached subtree before the rest of the
ascent) without building the tree.  It labels the segments 1..kn, and the
label sets of the ascents are the blocks of a noncrossing partition.

The arrays are indexed by segment, never by unit-word position, so they
have length kn.  One link routine (`_link`) serves both forward maps: psi-a
links its whole path, psi-b each piece of its path that lies on one side
of the diagonal, a piece above read backwards.  One walk (`_walk`) serves
both inverses: it rebuilds a piece's unit word from the noncrossing
partition of the piece's consecutive positions, psi-a's whole of [kn] or
one piece of psi-b's half-arc, and `_east_steps` regroups the segments of
the joined unit word into east steps.
"""

from __future__ import annotations

from operator import neg
from typing import Sequence

from .lattice_paths import (
    heights_word,
    validate_fuss_binomial,
    validate_fuss_catalan,
)
from .noncrossing_a import Blocks, validate_nc_a
from .noncrossing_b import SignedBlocks, validate_nc_b
from .partitions import _check_nk, _check_shape_nk
from .shapes import (
    RStrip,
    SkewShape,
    _path_heights,
    rectangle,
    stretched_staircase,
    strip_from_path,
)


def _link(units: str, s: int, after: list[int], last: list[int], starts: list[int]) -> int:
    """Link the segments of a unit word (one 'E' per segment, one 'N' per
    north step) into the preorder of their labeling tree on `after`.  The
    segments are numbered s, s + 1, ... in the order read, the first
    segment of each ascent is appended to `starts`, and the next free
    number is returned.  Read in that order, the units walk from (0, 0) at
    or below y = x.

    A segment's tree parent is the segment before it in its ascent or, for
    the first segment of a later ascent, the most recent earlier segment in
    its diagonal region r = x - y, which `last` holds (indexed by region,
    so it has the length of the longest walk).  Each segment is linked into
    the label order right after its parent.  The next segment of an ascent
    is linked before any later ascent can attach to its predecessor, so an
    attached subtree lands ahead of the rest of the ascent: the links run in
    preorder from segment s, and the last keeps the link that s had, -1 on
    a fresh array.
    """
    root = s
    r = 0  # the region of the next segment
    parent = -1  # tree parent of the next segment, -1 after a north step
    for u in units:
        if u == "N":
            r -= 1
            parent = -1
            continue
        if parent < 0:  # an ascent starts
            starts.append(s)
            if s != root:
                if r < 0 or last[r] < 0:
                    raise ValueError("segment has no earlier segment in its region")
                parent = last[r]
            elif r:
                raise ValueError("unit word must start with an east segment")
        if parent >= 0:
            after[s] = after[parent]
            after[parent] = s
        last[r] = parent = s
        r += 1
        s += 1
    return s


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
    m = len(word) // (k + 1) * k
    after = [-1] * m
    starts: list[int] = []
    _link(word.replace("E", "E" * k), 0, after, [-1] * m, starts)
    rank = [0] * m  # segment -> label
    v = 0
    for label in range(1, m + 1):
        rank[v] = label
        v = after[v]
    # an ascent's block is the labels of its segment span; preorder labels
    # rise along an ascent, and blocks have distinct first elements, so
    # sorting the tuples orders them by first element
    rank = tuple(rank)
    ends = starts[1:]
    ends.append(m)
    return tuple(sorted(map(rank.__getitem__, map(slice, starts, ends))))


def _walk(root: Sequence[int], hung: Sequence[Sequence[int]], runs: list[str]) -> int:
    """The type-A inverse on one piece: append the unit word of the path
    whose labeling has the piece's blocks to `runs`, as runs of one letter,
    and return its segment count.

    The piece is a noncrossing partition of consecutive positions; `root`
    is the block of its first position and, for x in the piece, hung[x]
    the block whose first position is x + 1, empty where that is the next
    piece's root or no block's first position.  The tree is forced: preorder visits an attached child
    immediately, so every other block hangs from the position one below its
    first.  Ascents hit the path in preorder with children taken in reverse
    attachment order, and each ascent's height follows from its parent
    segment's diagonal region.  A word of one-letter runs read backwards is
    its runs in reverse order, so a piece read backwards is put back in path
    order by reversing what the walk appended.
    """
    # a block popped after `total` segments sits at height base + total:
    # its base is its parent's base less the position of its parent
    # segment, so the ascent starts as high as that segment's region allows
    total = y = 0
    stack = [(root, 0)]
    while stack:
        blk, base = stack.pop()
        if total:
            h = base + total
            if h <= y:
                raise ValueError("partition is not in the labeling bijection's range")
            runs.append("N" * (h - y))
            y = h
        for x in blk:
            child = hung[x]
            if child:
                stack.append((child, base))
            base -= 1
        size = len(blk)
        runs.append("E" * size)
        total += size
    runs.append("N" * (total - y))  # back to the diagonal
    return total


def _east_steps(units: str, n: int, k: int) -> str:
    """The word of a unit word: every k segments of an ascent are one east
    step (at k = 1 the unit word is the word).  An ascent whose segment
    count k does not divide leaves more than n letters 'E'."""
    word = units.replace("E" * k, "E")
    if word.count("E") != n:
        raise ValueError("segments do not regroup into east steps")
    return word


def noncrossing_to_path(blocks, n: int, k: int) -> str:
    """Inverse labeling: rebuild the unique path whose ascent labels are
    blocks, by the one walk of `_walk` over the whole of [kn]."""
    _check_nk(n, k)
    return _noncrossing_to_path(validate_nc_a(blocks, n, k), n, k)


def _noncrossing_to_path(blocks: Sequence[Sequence[int]], n: int, k: int) -> str:
    """noncrossing_to_path on canonical blocks already known to be in NC_n^(k)."""
    if n == 0:
        return ""
    m = k * n
    hung: list[Sequence[int]] = [()] * (m + 1)
    for b in blocks:
        hung[b[0] - 1] = b
    runs: list[str] = []
    if _walk(blocks[0], hung, runs) != m:
        raise ValueError("partition does not give a connected tree")
    return _east_steps("".join(runs), n, k)


def _family_params(shape: SkewShape, build, family: str) -> tuple[int, int]:
    """(n, k) of a shape equal to `build(n, k)`: n its width, kn its rows."""
    n = shape.width
    if n:
        k, rest = divmod(shape.rows, n)
        if not rest and shape == build(n, k):
            return n, k
    raise ValueError(f"strip does not live in a {family} shape")


def staircase_strip_to_path(strip: RStrip) -> str:
    """Strip in the stretched staircase (n, k) -> Fuss-Catalan path (n+1, k).

    Prepends the east step along y = 0 and appends the final k north steps
    up the right wall; the strip's type becomes the path's reduced type.
    """
    n, k = _family_params(strip.shape, stretched_staircase, "stretched staircase")
    return _staircase_strip_to_path(strip.heights, n, k)


def _staircase_strip_to_path(heights: Sequence[int], n: int, k: int) -> str:
    """staircase_strip_to_path on the east-step heights of a strip of the
    stretched staircase (n, k), whose path climbs from height 0 to kn."""
    return "E" + heights_word(heights, 0, k * n) + "N" * k


def staircase_path_to_strip(word: str, n: int, k: int) -> RStrip:
    """Fuss-Catalan path (n+1, k) -> strip in the stretched staircase (n, k):
    the path without its first east step and last k north steps.

    A word without (k+1)(n+1) letters is refused before the shape of kn
    rows is built.  The rest of the word crosses the shape exactly when the
    whole is a Fuss-Catalan path, so `strip_from_path` and the strip's
    height check are the rest of the validation.
    """
    _check_shape_nk(n, k)
    if len(word) != (k + 1) * (n + 1):
        raise ValueError(f"need {(k + 1) * (n + 1)} letters, got {len(word)}")
    if not (word.startswith("E") and word.endswith("N" * k)):
        raise ValueError(
            f"{word!r} is not a Fuss-Catalan path: it must start with E and "
            f"end with {k} N steps"
        )
    return strip_from_path(stretched_staircase(n, k), word[1 : len(word) - k])


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
    n, k = _family_params(strip.shape, rectangle, "rectangle")
    return _rectangle_strip_to_path(strip.heights, n, k)


def _rectangle_strip_to_path(heights: Sequence[int], n: int, k: int) -> str:
    """rectangle_strip_to_path on the east-step heights of a strip of the
    rectangle (n, k), whose path climbs from height 0 to kn."""
    return heights_word(heights, 0, k * n)


def rectangle_path_to_strip(word: str, n: int, k: int) -> RStrip:
    """Fuss binomial path (n, k) -> strip in the rectangle (n, k).  A word
    without (k+1)n letters is refused before the shape of kn rows is built;
    `strip_from_path` and the strip's height check accept exactly the words
    with n E steps and kn N steps.  On a word already known to be in
    B_n^(k), the heights of the strip are `shapes._path_heights(word, 0)`,
    the core that `strip_from_path` wraps."""
    _check_shape_nk(n, k)
    if len(word) != (k + 1) * n:
        raise ValueError(f"need {(k + 1) * n} letters, got {len(word)}")
    return strip_from_path(rectangle(n, k), word)


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
    if n == 0:
        return ()
    m = k * n
    units = word.replace("E", "E" * k)
    # cut the walk where it leaves its side of the diagonal y = x: an 'N'
    # from the diagonal leaves the side below, an 'E' from it the side
    # above.  The pieces below (P_1, P_2, ...) and above (N_1, N_2, ...)
    # alternate from P_1, empty when the path starts north
    pieces: tuple[list[str], list[str]] = ([], [])  # below, above
    above = False
    start = d = 0  # d = y - x
    for i, u in enumerate(units):
        if not d and (u == "N") != above:
            pieces[above].append(units[start:i])
            start = i
            above = not above
        d += 1 if u == "N" else -1
    pieces[above].append(units[start:])
    below_pieces, above_pieces = pieces
    # the pieces below left to right, then those above right to left, each
    # read backwards, take the positions n0+1..n0+m in their preorders.
    # Segments are numbered in that reading order, and each piece's last
    # link is set to the next piece's first segment, so one walk of m steps
    # reads them all (the last piece's, m, is never followed)
    after = [-1] * m
    last = [-1] * m
    starts: list[int] = []
    roots = []  # each piece's first ascent, in reading order
    s = 0
    for piece in below_pieces:
        roots.append(len(starts))
        if piece:
            after[s] = s + piece.count("E")
            s = _link(piece, s, after, last, starts)
    n0 = m - s
    first_above = len(starts)
    for piece in reversed(above_pieces):
        roots.append(len(starts))
        after[s] = s + piece.count("E")
        s = _link(piece[::-1], s, after, last, starts)
    label = [0] * m  # segment -> label
    v = 0
    for x in range(n0 + 1, m + 1):
        label[v] = x
        v = after[v]
    for x in range(-1, -n0 - 1, -1):
        label[v] = x
        v = after[v]
    # each ascent's labels (preorder labels rise along it, and their
    # absolute values with them) form a block on the half-arc, listed
    # canonically, and their negatives its mirror
    spans = [*map(slice, starts, [*starts[1:], m])]
    label = tuple(label)
    here = [*map(label.__getitem__, spans)]
    label = tuple(map(neg, label))
    there = [*map(label.__getitem__, spans)]
    # the blocks that start negative and those that start positive: an
    # ascent below is positive here, one above negative
    negative = there[:first_above] + here[first_above:]
    positive = here[:first_above] + there[first_above:]
    # the ascent at a junction, whose segments above end N_i and whose
    # segments below start P_{i+1}, is one block pair; so is the ascent on
    # y = 0, the antipodal block, when the path starts east.  A canonical
    # block that mixes signs lists its negatives first
    for i in range(1, len(below_pieces)):
        p, q = roots[i], roots[-i]
        negative[p] = there[p] + there[q]
        negative[q] = here[q] + here[p]
        positive[p] = positive[q] = ()
    if below_pieces[0]:
        negative[0] = there[0] + here[0]
        positive[0] = ()
    # canonical order: by first element, -1 < -2 < ... < -m < 1 < ... < m
    negative.sort(reverse=True)
    positive.sort()
    return tuple(negative + positive[positive.count(()) :])


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
    above that the ascent leaves.  Each piece is a noncrossing partition of
    consecutive positions, and the type-A walk turns it back into its
    segments in place, writing their east steps into the word.
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
    # the half-arc a0..m, -1..-(a0 - 1) wraps in canonical order; its
    # positions 0..split-1 are the labels a0..m, the rest -1..-n0
    arc = owner[m + a0 - 1 :] + owner[: a0 - 1]
    split = m + 1 - a0
    # one pass: each block's positions on each side, listed at its first
    # one.  A block met again across the split is a junction: its first
    # position on each side starts P_{i+1} and N_i
    hung: list[list[int] | tuple] = [()] * (m + 1)  # hung[-1] is never read
    side = [None] * len(blocks)  # block -> its positions on the side read
    p_cut, n_cut = [split], [split]  # the junctions, met from i = s-1 down
    for t, b in enumerate(arc):
        own = side[b]
        if own is None or own[0] < split <= t:
            if own is not None:
                if own[0] >= p_cut[-1]:
                    raise ValueError("junction blocks are inconsistent")
                p_cut.append(own[0])
                n_cut.append(t)
            side[b] = hung[t - 1] = [t]
        else:
            own.append(t)
    p_cut.append(0)
    n_cut.append(m)
    # in path order, P_i is arc[p_cut[-i] : p_cut[-i-1]], read forwards, and
    # N_i is arc[n_cut[-i-1] : n_cut[-i]], read backwards; every piece's
    # root is taken off `hung`, so no walk reads past its piece
    pieces = []
    for i in range(len(p_cut) - 1, 0, -1):
        pieces.append((p_cut[i], p_cut[i - 1], 1))
        pieces.append((n_cut[i - 1], n_cut[i], -1))
    roots = [hung[lo - 1] for lo, _, _ in pieces]
    for lo, _, _ in pieces:
        hung[lo - 1] = ()
    runs: list[str] = []
    for root, (lo, hi, step) in zip(roots, pieces):
        if lo < hi:
            first = len(runs)
            if _walk(root, hung, runs) != hi - lo:
                raise ValueError("partition does not give a connected tree")
            if step < 0:
                runs[first:] = runs[first:][::-1]
    return _east_steps("".join(runs), n, k)
