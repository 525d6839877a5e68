"""Type-preserving bijections between strips, lattice paths, and
noncrossing partitions.

All four maps work on the same primitive: a path's east steps are cut into
k unit segments, each lying in one diagonal region between consecutive
lines y = kx + i.  In unit coordinates (one 'e' per segment, one 'n' per
north step) a segment starting at (x, y) lies in region y - x - 1, an
integer, so no rational arithmetic is ever needed.  Segments become the
vertices of a rooted labeling tree: consecutive segments of an ascent are
chained, and the first segment of every later ascent hangs from the most
recent earlier segment in its region.  Preorder (attached subtree before
the rest of the ascent) labels the segments 1..kn, and the label sets of
the ascents are the blocks of a noncrossing partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lattice_paths import (
    validate_fuss_binomial,
    validate_fuss_catalan,
)
from .noncrossing_a import Blocks, validate_nc_a
from .noncrossing_b import (
    SignedBlocks,
    listing_from_owners,
    validate_nc_b,
)
from .shapes import (
    RStrip,
    SkewShape,
    path_from_strip,
    staircase_inner,
    strip_from_path,
)


def _check_params(n: int, k: int) -> None:
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")


def _unit_word(word: str, k: int) -> str:
    """'e' per 1/k segment of each east step, 'n' per north step."""
    return word.replace("E", "e" * k).replace("N", "n")


def _dyck_unit_tree(units: str):
    """Labeling tree of a unit word whose walk stays at or below y = x.

    Returns (rank, parent, unit_ascents), the first two indexed by unit:
    rank[i] is the 1-based preorder label of the 'e' at i, parent[i] its
    tree parent's unit index (None at the root), and unit_ascents lists the
    maximal 'e' runs.  A segment starting at (x, y) lies in the diagonal
    region numbered x - y, which is 0..x on such a walk.
    """
    size = len(units)
    if not units:
        return [], [], []
    if units[0] != "e":
        raise ValueError("unit word must start with an east segment")
    right = [-1] * size
    attached = [-1] * size
    parent: list[int | None] = [None] * size
    last_in_region = [-1] * (size + 1)
    unit_ascents: list[list[int]] = []
    x = y = 0
    run: list[int] = []
    for i, u in enumerate(units):
        if u == "e":
            if run:  # continues an ascent
                right[run[-1]] = i
                parent[i] = run[-1]
                run.append(i)
            else:
                run = [i]
                if unit_ascents:
                    par = last_in_region[x - y]
                    if par < 0:
                        raise ValueError("segment has no earlier segment in its region")
                    if attached[par] >= 0:
                        raise ValueError("two ascents attach to one segment")
                    attached[par] = i
                    parent[i] = par
                unit_ascents.append(run)
            last_in_region[x - y] = i
            x += 1
        else:
            y += 1
            run = []
    rank = [0] * size
    label = 0
    stack = [0]
    while stack:
        v = stack.pop()
        label += 1
        rank[v] = label
        if right[v] >= 0:
            stack.append(right[v])
        if attached[v] >= 0:
            stack.append(attached[v])  # popped first: attached subtree leads
    if label != x:
        raise ValueError("labeling tree is not connected")
    return rank, parent, unit_ascents


@dataclass(frozen=True)
class LabelingTree:
    """The rooted tree on a Fuss-Catalan path's kn east-step segments."""

    segments: tuple[tuple[int, int], ...]  # (east step, sub index), path order
    parent: tuple[int | None, ...]  # index into segments
    labels: tuple[int, ...]  # preorder label of each segment
    ascent_labels: tuple[tuple[int, ...], ...]  # label sets per ascent


def build_labeling_tree(word: str, n: int, k: int) -> LabelingTree:
    _check_params(n, k)
    validate_fuss_catalan(word, n, k)
    units = _unit_word(word, k)
    rank, parent, unit_ascents = _dyck_unit_tree(units)
    e_units = [i for i, u in enumerate(units) if u == "e"]
    seg_index = {u: s for s, u in enumerate(e_units)}
    east_sub = [(s // k, s % k) for s in range(len(e_units))]
    labels = tuple(rank[u] for u in e_units)
    parents = tuple(
        None if parent[u] is None else seg_index[parent[u]] for u in e_units
    )
    ascent_labels = tuple(
        tuple(sorted(rank[u] for u in asc)) for asc in unit_ascents
    )
    return LabelingTree(tuple(east_sub), parents, labels, ascent_labels)


def path_to_noncrossing(word: str, n: int, k: int) -> Blocks:
    """Label the path's segments and read one block off each ascent.

    Preserves type and reduced type: the i-th ascent's segment count is k
    times the resulting block's share of the type, and the first ascent is
    the block containing the label 1.
    """
    _check_params(n, k)
    validate_fuss_catalan(word, n, k)
    if n == 0:
        return ()
    rank, _, unit_ascents = _dyck_unit_tree(_unit_word(word, k))
    # preorder labels rise along an ascent, and blocks have distinct first
    # elements, so sorting the tuples orders them by first element
    return tuple(sorted(tuple(map(rank.__getitem__, asc)) for asc in unit_ascents))


def noncrossing_to_path(blocks, n: int, k: int) -> str:
    """Inverse labeling: rebuild the unique path whose ascent labels are blocks.

    The tree is forced: preorder visits an attached child immediately, so
    the minimum of every non-root block hangs from the element one below it.
    Ascents hit the path in preorder with children taken in reverse
    attachment order, and each ascent's height follows from its parent
    segment's diagonal region.
    """
    _check_params(n, k)
    return _noncrossing_to_path(validate_nc_a(blocks, n, k), n, k)


def _noncrossing_to_path(blocks: Sequence[Sequence[int]], n: int, k: int) -> str:
    """noncrossing_to_path on canonical blocks already known to be in NC_n^(k)."""
    if n == 0:
        return ""
    kn = k * n
    s = len(blocks)
    block_of = [0] * (kn + 1)  # element -> its block
    pos_of = [0] * (kn + 1)  # element -> its index within that block
    for i, b in enumerate(blocks):
        for j, x in enumerate(b):
            block_of[x] = i
            pos_of[x] = j
    # blocks come in order of their first elements, so each parent receives
    # its children in attachment order
    children: list[list[int]] = [[] for _ in range(s)]
    for bi in range(1, s):
        children[block_of[blocks[bi][0] - 1]].append(bi)
    # preorder with later attachments first; each ascent starts as high as
    # its parent segment's diagonal region allows
    units_before = [0] * s
    height = [0] * s
    total = 0
    y = 0
    word = []
    stack = [0]
    while stack:
        b = stack.pop()
        blk = blocks[b]
        units_before[b] = total
        if b:
            a = blk[0] - 1
            pb = block_of[a]
            h = height[pb] - units_before[pb] - pos_of[a] + total
            if h <= y:
                raise ValueError("partition is not in the labeling bijection's range")
            height[b] = h
            word.append("N" * (h - y))
            y = h
        word.append("E" * (len(blk) // k))
        total += len(blk)
        stack.extend(children[b])
    if total != kn:
        raise ValueError("partition does not give a connected tree")
    word.append("N" * (kn - y))
    return "".join(word)


def _family_params(shape: SkewShape, inner, family: str) -> tuple[int, int]:
    """(n, k) of a shape (n^{kn}) / inner(n, k), read off its outer partition
    without building the family shape."""
    outer = shape.outer
    if outer:
        n = outer[0]
        k, rest = divmod(len(outer), n)
        if not rest and outer == (n,) * len(outer) and shape.inner == inner(n, k):
            return n, k
    raise ValueError(f"strip does not live in a {family} shape")


def staircase_strip_to_path(strip: RStrip) -> str:
    """Strip in the stretched staircase (n, k) -> Fuss-Catalan path (n+1, k).

    Prepends the east step along y = 0 and appends the final k north steps
    up the right wall; the strip's type becomes the path's reduced type.
    """
    _, k = _family_params(strip.shape, staircase_inner, "stretched staircase")
    return "E" + path_from_strip(strip) + "N" * k


def staircase_path_to_strip(word: str, shape: SkewShape) -> RStrip:
    """Fuss-Catalan path (n+1, k) -> strip in the stretched staircase (n, k),
    given as `shape`: the path without its first east step and last k north
    steps."""
    n, k = _family_params(shape, staircase_inner, "stretched staircase")
    validate_fuss_catalan(word, n + 1, k)
    return strip_from_path(shape, word[1 : len(word) - k])


def rectangle_strip_to_path(strip: RStrip) -> str:
    """Strip in the rectangle (n, k) -> Fuss binomial path (n, k).

    The strip's lattice path itself: boxless columns cross at y = 0, so the
    ascent that fb_type discards is exactly the boxless prefix, and the
    strip's type equals the path's type.
    """
    _family_params(strip.shape, lambda n, k: (), "rectangle")
    return path_from_strip(strip)


def rectangle_path_to_strip(word: str, shape: SkewShape) -> RStrip:
    """Fuss binomial path (n, k) -> strip in the rectangle (n, k), given as
    `shape`."""
    n, k = _family_params(shape, lambda n, k: (), "rectangle")
    validate_fuss_binomial(word, n, k)
    return strip_from_path(shape, word)


def _pieces(units: str) -> list[tuple[range, range]]:
    """Split the unit indices into maximal runs by triangle sign of the
    diagonal walk.

    Returns [(P_1, N_1), ..., (P_s, N_s)], ranges of unit indices with P_1
    and/or N_s possibly empty.
    """
    cuts = [0]  # run boundaries; the first run is positive, maybe empty
    positive = True
    d = 0
    for i, u in enumerate(units):
        if u == "n":
            sign = d < 0
            d += 1
        else:
            sign = d <= 0
            d -= 1
        if sign != positive:
            cuts.append(i)
            positive = sign
    cuts.append(len(units))
    if positive:  # close with an empty negative run
        cuts.append(len(units))
    return [
        (range(cuts[i], cuts[i + 1]), range(cuts[i + 1], cuts[i + 2]))
        for i in range(0, len(cuts) - 1, 2)
    ]


def path_to_signed_noncrossing(word: str, n: int, k: int) -> SignedBlocks:
    """The type-preserving map from Fuss binomial paths to NC_n^{B,(k)}.

    Segments in the positive triangle (y <= kx) get labels n0+1..kn piece by
    piece left to right; segments in the negative triangle get labels
    -1..-n0 with the last negative piece taking the smallest values, each
    piece labeled by the labeling tree of its 180-degree rotation.  Each
    ascent off y = 0 yields a pair of opposite blocks; the y = 0 ascent, if
    present, yields the antipodal block.
    """
    _check_params(n, k)
    validate_fuss_binomial(word, n, k)
    m = k * n
    if n == 0:
        return ()
    units = _unit_word(word, k)
    label = [0] * len(units)  # signed label of each 'e', 0 at each 'n'

    def label_piece(piece: range, start: int, negative: bool) -> int:
        chars = units[piece.start : piece.stop]
        rank = _dyck_unit_tree(chars[::-1] if negative else chars)[0]
        values = [start - 1 + r if r else 0 for r in rank]
        if negative:
            values = [-v for v in reversed(values)]
        label[piece.start : piece.stop] = values
        return chars.count("e")

    pairs = _pieces(units)
    base = 0
    for _, neg in reversed(pairs):
        base += label_piece(neg, base + 1, negative=True)
    for pos, _ in pairs:
        base += label_piece(pos, base + 1, negative=False)

    # each ascent is a block and its mirror, or one antipodal block on y = 0
    owner = [0] * (2 * m + 1)  # polygon position -> block
    count = here = there = 0
    y = prev = 0
    for v in label:
        if not v:
            y += 1
        else:
            if not prev:
                here = count
                there = count + 1 if y else count
                count = there + 1
            if v > 0:
                owner[v] = here
                owner[m + v] = there
            else:
                owner[m - v] = here
                owner[-v] = there
        prev = v
    return listing_from_owners(owner, m)


def signed_noncrossing_to_path(blocks, n: int, k: int) -> str:
    """Inverse of the type-B labeling map.

    The chosen representatives are A = {-1..-n0} U {n0+1..kn} with n0 read
    off the antipodal block (or the last all-|negative|-below-positive mixed
    block, or kn when no block mixes signs).  Each mixed block restricted to
    A marks one negative-to-positive junction of the piece decomposition;
    its minimal negative fixes the negative sizes to its right and its
    minimal positive the positive sizes to its left.  Every piece is then
    rebuilt with the inverse labeling map and the pieces are concatenated.
    """
    _check_params(n, k)
    m = k * n
    blocks = validate_nc_b(blocks, n, k)
    if n == 0:
        return ""
    # a canonical block lists its negatives (by absolute value) before its
    # positives, so a block that mixes signs starts negative and ends positive
    mixed = [b for b in blocks if b[0] < 0 < b[-1]]
    anti = next((b for b in mixed if -b[0] in b), None)
    if anti is not None:
        a0 = min(x for x in anti if x > 0)
    else:
        qual = [
            b
            for b in mixed
            if max(-x for x in b if x < 0) < min(x for x in b if x > 0)
        ]
        # blocks come sorted by their minimal elements
        a0 = min(x for x in qual[-1] if x > 0) if qual else m + 1
    n0 = a0 - 1

    # A holds one of x, -x for every x, so the blocks restrict to m labels;
    # a mixed block's restriction keeps both signs exactly when its first
    # (least |negative|) label and its last (largest positive) lie in A
    junctions = sorted(  # ascending nu = descending |nu| = path order
        (b[0], min(x for x in b if x >= a0))  # (nu, pi), |nu| minimal
        for b in mixed
        if -b[0] <= n0 and b[-1] >= a0
    )
    if [p for _, p in junctions] != sorted(p for _, p in junctions):
        raise ValueError("junction blocks are inconsistent")
    s = len(junctions) + 1

    neg_suffix = [-nu - 1 for nu, _ in junctions]  # n_{i+1} + ... + n_s
    pos_prefix = [pi - n0 - 1 for _, pi in junctions]  # p_1 + ... + p_i
    n_sizes = [0] * s
    p_sizes = [0] * s
    if s == 1:
        n_sizes[0] = n0
        p_sizes[0] = m - n0
    else:
        n_sizes[0] = n0 - neg_suffix[0]
        for i in range(1, s - 1):
            n_sizes[i] = neg_suffix[i - 1] - neg_suffix[i]
        n_sizes[s - 1] = neg_suffix[-1]
        p_sizes[0] = pos_prefix[0]
        for i in range(1, s - 1):
            p_sizes[i] = pos_prefix[i] - pos_prefix[i - 1]
        p_sizes[s - 1] = (m - n0) - pos_prefix[-1]
    if (
        any(v < 0 for v in n_sizes + p_sizes)
        or any(v == 0 for v in n_sizes[: s - 1])
        or any(v == 0 for v in p_sizes[1:])
        or (p_sizes[0] > 0) != (anti is not None)
    ):
        raise ValueError("piece sizes are inconsistent")

    owner = [0] * (2 * m + 1)  # polygon position -> block
    for i, b in enumerate(blocks):
        for v in b:
            owner[v if v > 0 else m - v] = i

    slot = [-1] * len(blocks)  # block -> its group in the current piece

    def piece_units(lo: int, size: int, negative: bool) -> str:
        if size == 0:
            return ""
        first = m + lo if negative else lo  # position of the label -lo or lo
        members = owner[first : first + size]
        groups: list[list[int]] = []
        for t, b in enumerate(members, 1):
            if slot[b] < 0:
                slot[b] = len(groups)
                groups.append([])
            groups[slot[b]].append(t)
        for b in members:
            slot[b] = -1
        # a piece is the restriction of a noncrossing partition to an arc,
        # listed in increasing order, so its blocks are already canonical
        local = _noncrossing_to_path(groups, size, 1)
        return local[::-1] if negative else local

    parts = []
    pos_lo = n0 + 1
    neg_lo_for = [0] * s
    base = 1
    for i in range(s - 1, -1, -1):
        neg_lo_for[i] = base
        base += n_sizes[i]
    for i in range(s):
        parts.append(piece_units(pos_lo, p_sizes[i], negative=False))
        pos_lo += p_sizes[i]
        parts.append(piece_units(neg_lo_for[i], n_sizes[i], negative=True))
    # the units regroup into east steps: every run between two north steps
    runs = "".join(parts).split("N")
    if any(len(r) % k for r in runs):
        raise ValueError("segments do not regroup into east steps")
    return "N".join("E" * (len(r) // k) for r in runs)
