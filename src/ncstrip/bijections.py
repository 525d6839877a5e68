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

from .lattice_paths import (
    ascents,
    validate_fuss_binomial,
    validate_fuss_catalan,
)
from .noncrossing_a import Blocks, is_noncrossing, validate_set_partition
from .noncrossing_b import (
    SignedBlocks,
    antipodal_block,
    canonical_blocks_b,
    element_key,
    validate_nc_b,
)
from .shapes import (
    RStrip,
    SkewShape,
    path_from_strip,
    staircase_inner,
    strip_from_path,
)


def _unit_word(word: str, k: int) -> str:
    """'e' per 1/k segment of each east step, 'n' per north step."""
    return "".join("e" * k if c == "E" else "n" for c in word)


def _dyck_unit_tree(units: str):
    """Labeling tree of a unit word whose walk stays at or below y = x.

    Returns (rank, parent, unit_ascents): rank maps the unit index of each
    'e' to its 1-based preorder label, parent maps it to its tree parent's
    unit index (None at the root), unit_ascents lists the maximal 'e' runs.
    """
    if not units:
        return {}, {}, []
    if units[0] != "e":
        raise ValueError("unit word must start with an east segment")
    right: dict[int, int] = {}
    attached: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    unit_ascents: list[list[int]] = []
    last_in_region: dict[int, int] = {}
    x = y = 0
    prev_e = False
    for i, u in enumerate(units):
        if u == "e":
            r = y - x - 1
            if prev_e:
                unit_ascents[-1].append(i)
                right[unit_ascents[-1][-2]] = i
                parent[i] = unit_ascents[-1][-2]
            else:
                unit_ascents.append([i])
                if len(unit_ascents) == 1:
                    parent[i] = None
                else:
                    par = last_in_region.get(r)
                    if par is None:
                        raise ValueError("segment has no earlier segment in its region")
                    if par in attached:
                        raise ValueError("two ascents attach to one segment")
                    attached[par] = i
                    parent[i] = par
            last_in_region[r] = i
            x += 1
            prev_e = True
        else:
            y += 1
            prev_e = False
    rank: dict[int, int] = {}
    stack = [unit_ascents[0][0]]
    while stack:
        v = stack.pop()
        rank[v] = len(rank) + 1
        if v in right:
            stack.append(right[v])
        if v in attached:
            stack.append(attached[v])  # popped first: attached subtree leads
    if len(rank) != units.count("e"):
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
    validate_fuss_catalan(word, n, k)
    if n == 0:
        return ()
    rank, _, unit_ascents = _dyck_unit_tree(_unit_word(word, k))
    # preorder labels rise along an ascent, and blocks have distinct first
    # elements, so sorting the tuples orders them by first element
    return tuple(sorted(tuple(rank[u] for u in asc) for asc in unit_ascents))


def noncrossing_to_path(blocks, n: int, k: int) -> str:
    """Inverse labeling: rebuild the unique path whose ascent labels are blocks.

    The tree is forced: preorder visits an attached child immediately, so
    the minimum of every non-root block hangs from the element one below it.
    Ascents hit the path in preorder with children taken in reverse
    attachment order, and each ascent's height follows from its parent
    segment's diagonal region.
    """
    blocks = validate_set_partition(blocks, k * n)
    if not is_noncrossing(blocks):
        raise ValueError("partition is crossing")
    for b in blocks:
        if len(b) % k:
            raise ValueError(f"block size {len(b)} is not divisible by {k}")
    return _noncrossing_to_path(blocks, n, k)


def _noncrossing_to_path(blocks: Blocks, n: int, k: int) -> str:
    """noncrossing_to_path on canonical blocks already known to be in NC_n^(k)."""
    if n == 0:
        return ""
    kn = k * n
    s = len(blocks)
    block_of = {x: i for i, b in enumerate(blocks) for x in b}
    children: list[list[tuple[int, int]]] = [[] for _ in range(s)]
    for bi in range(1, s):
        a = blocks[bi][0]
        pb = block_of[a - 1]
        children[pb].append((blocks[pb].index(a - 1), bi))
    order = []
    stack = [0]
    while stack:
        b = stack.pop()
        order.append(b)
        for _, ch in sorted(children[b]):  # later attachments pop first
            stack.append(ch)
    if len(order) != s:
        raise ValueError("partition does not give a connected tree")
    units_before = {}
    total = 0
    for b in order:
        units_before[b] = total
        total += len(blocks[b])
    height = {order[0]: 0}
    word = []
    y = 0
    for b in order:
        if b != order[0]:
            a = blocks[b][0]
            pb = block_of[a - 1]
            pos = blocks[pb].index(a - 1)
            height[b] = height[pb] - (units_before[pb] + pos) + units_before[b]
            if height[b] <= y:
                raise ValueError("partition is not in the labeling bijection's range")
        word.append("N" * (height[b] - y))
        word.append("E" * (len(blocks[b]) // k))
        y = height[b]
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


def _pieces(units: list) -> list[tuple[list[int], list[int]]]:
    """Split units into maximal runs by triangle sign of the diagonal walk.

    Returns [(P_1, N_1), ..., (P_s, N_s)], lists of unit indices with P_1
    and/or N_s possibly empty.
    """
    runs: list[tuple[str, list[int]]] = []
    d = 0
    for i, u in enumerate(units):
        if u == "n":
            sign = "N" if d >= 0 else "P"
            d += 1
        else:
            sign = "P" if d <= 0 else "N"
            d -= 1
        if not runs or runs[-1][0] != sign:
            runs.append((sign, []))
        runs[-1][1].append(i)
    if runs and runs[0][0] == "N":
        runs.insert(0, ("P", []))
    if runs and runs[-1][0] == "P":
        runs.append(("N", []))
    # consecutive runs differ in sign, so the runs now alternate P, N, ...
    return [(runs[i][1], runs[i + 1][1]) for i in range(0, len(runs), 2)]


def path_to_signed_noncrossing(word: str, n: int, k: int) -> SignedBlocks:
    """The type-preserving map from Fuss binomial paths to NC_n^{B,(k)}.

    Segments in the positive triangle (y <= kx) get labels n0+1..kn piece by
    piece left to right; segments in the negative triangle get labels
    -1..-n0 with the last negative piece taking the smallest values, each
    piece labeled by the labeling tree of its 180-degree rotation.  Each
    ascent off y = 0 yields a pair of opposite blocks; the y = 0 ascent, if
    present, yields the antipodal block.
    """
    validate_fuss_binomial(word, n, k)
    m = k * n
    if n == 0:
        return ()
    units: list = []
    east = -1
    for c in word:
        if c == "E":
            east += 1
            units.extend(("e", east, j) for j in range(k))
        else:
            units.append("n")
    chars = ["n" if u == "n" else "e" for u in units]
    pairs = _pieces(chars)
    label: dict[tuple[int, int], int] = {}

    def label_piece(idxs: list[int], start: int, negative: bool) -> int:
        if negative:
            idxs = list(reversed(idxs))
        piece = "".join(chars[i] for i in idxs)
        rank, _, _ = _dyck_unit_tree(piece) if piece else ({}, {}, [])
        count = 0
        for local, i in enumerate(idxs):
            if chars[i] == "e":
                value = start + rank[local] - 1
                _, e, j = units[i]
                label[(e, j)] = -value if negative else value
                count += 1
        return count

    base = 0
    for _, neg in reversed(pairs):
        base += label_piece(neg, base + 1, negative=True)
    for pos, _ in pairs:
        base += label_piece(pos, base + 1, negative=False)

    blocks: list[tuple[int, ...]] = []
    east = -1
    for y, ln in ascents(word):
        labs = []
        for _ in range(ln):
            east += 1
            labs.extend(label[(east, j)] for j in range(k))
        if y == 0:
            blocks.append(tuple(labs) + tuple(-v for v in labs))
        else:
            blocks.append(tuple(labs))
            blocks.append(tuple(-v for v in labs))
    return canonical_blocks_b(blocks, m)


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
    m = k * n
    blocks = validate_nc_b(blocks, n, k)
    if n == 0:
        return ""
    anti = antipodal_block(blocks)
    if anti is not None:
        a0 = min(x for x in anti if x > 0)
    else:
        qual = [
            b
            for b in blocks
            if any(x < 0 for x in b)
            and any(x > 0 for x in b)
            and max(abs(x) for x in b if x < 0) < min(x for x in b if x > 0)
        ]
        if qual:
            last = max(qual, key=lambda b: element_key(min(b, key=element_key)))
            a0 = min(x for x in last if x > 0)
        else:
            a0 = m + 1
    n0 = a0 - 1

    def in_a(v: int) -> bool:
        return (v < 0 and -v <= n0) or v >= a0

    restricted = [tuple(x for x in b if in_a(x)) for b in blocks]
    restricted = [r for r in restricted if r]
    if sum(len(r) for r in restricted) != m:
        raise ValueError("partition is not in the type-B bijection's range")

    junctions = []
    for r in restricted:
        negs = [x for x in r if x < 0]
        poss = [x for x in r if x > 0]
        if negs and poss:
            junctions.append((max(negs), min(poss)))  # (nu, pi), |nu| minimal
    junctions.sort()  # ascending nu = descending |nu| = path order
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

    block_of = {}
    for i, b in enumerate(blocks):
        for x in b:
            block_of[x] = i

    def piece_units(lo: int, size: int, negative: bool) -> str:
        if size == 0:
            return ""
        values = [-(lo + t) if negative else lo + t for t in range(size)]
        groups: dict[int, list[int]] = {}
        for v in values:
            groups.setdefault(block_of[v], []).append(abs(v) - lo + 1)
        # a piece is the restriction of a noncrossing partition to an arc,
        # listed in increasing order, so its blocks are already canonical
        local = _noncrossing_to_path(tuple(map(tuple, groups.values())), size, 1)
        return local[::-1] if negative else local

    parts = []
    pos_lo = n0 + 1
    neg_lo_for = {}
    base = 1
    for i in range(s - 1, -1, -1):
        neg_lo_for[i] = base
        base += n_sizes[i]
    for i in range(s):
        parts.append(piece_units(pos_lo, p_sizes[i], negative=False))
        pos_lo += p_sizes[i]
        parts.append(piece_units(neg_lo_for[i], n_sizes[i], negative=True))
    unit_word = "".join(parts)

    word = []
    run = 0
    for c in unit_word + "$":
        if c == "E":
            run += 1
        else:
            if run:
                if run % k:
                    raise ValueError("segments do not regroup into east steps")
                word.append("E" * (run // k))
                run = 0
            if c == "N":
                word.append("N")
    return "".join(word)
