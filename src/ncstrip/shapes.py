"""Young diagrams, skew shapes, and right-aligned strip enumeration.

Coordinates: columns are numbered 1..width left to right; heights are
measured upward from the diagram's lowest edge, so the bottom row of the
diagram sits at height 0 and the box (c, h) occupies [c-1, c] x [h, h+1].

A right-aligned partial horizontal strip ("r-strip") is equivalent to a
monotone lattice path across the shape: the path crosses column c with one
east step at height y_c, lo_c <= y_c <= hi_c + 1, heights weakly increasing
left to right.  The strip box of column c sits directly below the east step
(at height y_c - 1) and is omitted exactly when the step lies on the
column's bottom edge (y_c = lo_c).  This is the unique convention under
which path-derived strips coincide with the definition-checked right-aligned
box sets.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import neg

from .lattice_paths import heights_word, monotone_heights, validate_word
from .partitions import Partition, _check_shape_nk, as_partition


@dataclass(frozen=True)
class SkewShape:
    outer: Partition
    inner: Partition
    # The column profile, filled once by __post_init__: the nonempty columns
    # in order and their inclusive (lo, hi) height intervals.  The rows are
    # left-aligned and weakly decreasing, so lo and hi never fall from one
    # column to the next, and lo <= hi in every column.
    cols: tuple[int, ...] = field(init=False, compare=False, repr=False)
    lo: tuple[int, ...] = field(init=False, compare=False, repr=False)
    hi: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "outer", as_partition(self.outer))
        object.__setattr__(self, "inner", as_partition(self.inner))
        if len(self.inner) > len(self.outer):
            raise ValueError("inner partition has more rows than outer")
        for i, v in enumerate(self.inner):
            if v > self.outer[i]:
                raise ValueError(
                    f"inner row {i + 1} ({v}) exceeds outer row ({self.outer[i]})"
                )
        profile = [
            (c, iv)
            for c in range(1, self.width + 1)
            if (iv := self.column_interval(c))
        ]
        object.__setattr__(self, "cols", tuple(c for c, _ in profile))
        object.__setattr__(self, "lo", tuple(iv[0] for _, iv in profile))
        object.__setattr__(self, "hi", tuple(iv[1] for _, iv in profile))

    @property
    def rows(self) -> int:
        return len(self.outer)

    @property
    def width(self) -> int:
        return self.outer[0] if self.outer else 0

    def column_interval(self, c: int) -> tuple[int, int] | None:
        """Inclusive (lo, hi) height interval of column c, or None if empty."""
        r = self.rows
        # rows reaching column c, counted by bisection on the weakly
        # decreasing rows: -x <= -c
        t = bisect_right(self.outer, -c, key=neg)
        s = bisect_right(self.inner, -c, key=neg)
        if t <= s:
            return None
        return (r - t, r - s - 1)

    def contains_box(self, c: int, h: int) -> bool:
        iv = self.column_interval(c)
        return iv is not None and iv[0] <= h <= iv[1]

    def box_count(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def boxes(self) -> list[tuple[int, int]]:
        return [
            (c, h)
            for c, l, u in zip(self.cols, self.lo, self.hi)
            for h in range(l, u + 1)
        ]


def stretched_staircase(n: int, k: int) -> SkewShape:
    """(n^{kn}) / ((n-1)^k, ..., 2^k, 1^k)."""
    _check_shape_nk(n, k)
    inner = [v for v in range(n - 1, 0, -1) for _ in range(k)]
    return SkewShape((n,) * (k * n), inner)


def rectangle(n: int, k: int) -> SkewShape:
    """(n^{kn})."""
    _check_shape_nk(n, k)
    return SkewShape((n,) * (k * n), ())


def _require_contiguous(shape: SkewShape) -> None:
    """Monotone paths cross the shape only if its columns have no gap."""
    cols = shape.cols
    if cols and cols[-1] - cols[0] + 1 != len(cols):
        raise ValueError(f"column support is not contiguous: {list(cols)}")


def _check_heights(shape: SkewShape, heights: tuple[int, ...]) -> None:
    """Raise unless heights are the east steps of a monotone path across the
    shape: one per column, lo_c <= y_c <= hi_c + 1, weakly increasing."""
    _require_contiguous(shape)
    if len(heights) != len(shape.cols):
        raise ValueError(
            f"need one east-step height per column ({len(shape.cols)}), "
            f"got {len(heights)}"
        )
    prev = shape.lo[0] if shape.lo else 0
    for c, l, h, y in zip(shape.cols, shape.lo, shape.hi, heights):
        if not max(l, prev) <= y <= h + 1:
            raise ValueError(
                f"east step over column {c} at height {y} is outside "
                f"[{max(l, prev)}, {h + 1}]"
            )
        prev = y


@dataclass(frozen=True)
class RStrip:
    """A right-aligned partial horizontal strip, stored as the east-step
    heights of its lattice path, one per nonempty column."""

    shape: SkewShape
    heights: tuple[int, ...]

    def __post_init__(self):
        heights = tuple(self.heights)
        object.__setattr__(self, "heights", heights)
        _check_heights(self.shape, heights)

    @property
    def boxes(self) -> tuple[tuple[int, int], ...]:
        """The strip's boxes (column, height), sorted by column."""
        shape = self.shape
        return tuple(
            (c, y - 1)
            for c, l, y in zip(shape.cols, shape.lo, self.heights)
            if y > l
        )


def _is_partial_horizontal_strip(shape: SkewShape, boxes) -> bool:
    boxes = sorted(boxes)
    cols = [c for c, _ in boxes]
    if len(set(cols)) != len(cols):
        return False
    heights = [h for _, h in boxes]
    if any(heights[i] > heights[i + 1] for i in range(len(heights) - 1)):
        return False
    return all(shape.contains_box(c, h) for c, h in boxes)


def is_r_strip(shape: SkewShape, boxes) -> bool:
    """Direct definition check: the oracle for the path characterization."""
    boxes = sorted(boxes)
    if not _is_partial_horizontal_strip(shape, boxes):
        return False
    box_set = set(boxes)
    for c, h in boxes:
        candidate = (c + 1, h)
        if candidate in box_set:
            continue
        if shape.contains_box(*candidate) and _is_partial_horizontal_strip(
            shape, boxes + [candidate]
        ):
            return False
    return True


def iter_strip_heights(shape: SkewShape):
    """East-step height vectors of all monotone paths across the shape.

    Yields tuples (y_c) with lo_c <= y_c <= hi_c + 1, weakly increasing,
    in lexicographic order.  Each vector corresponds to exactly one r-strip.
    """
    _require_contiguous(shape)
    yield from monotone_heights(shape.lo, [h + 1 for h in shape.hi])


def count_r_strips(shape: SkewShape) -> int:
    """Number of r-strips (monotone paths across the shape), by column DP."""
    _require_contiguous(shape)
    lo, hi = shape.lo, shape.hi
    if not lo:
        return 1
    # ways[y]: paths across the columns so far whose last east step is at y
    ways = dict.fromkeys(range(lo[0], hi[0] + 2), 1)
    for prev_lo, l, h in zip(lo, lo[1:], hi[1:]):
        total, nxt = 0, {}
        for y in range(prev_lo, h + 2):
            total += ways.get(y, 0)
            if y >= l:
                nxt[y] = total
        ways = nxt
    return sum(ways.values())


def run_type(lo: tuple[int, ...], heights) -> Partition:
    """Type of the strip with east-step heights over columns with bottoms lo:
    sorted sizes of its blocks (maximal runs of adjacent boxed columns whose
    boxes share a height)."""
    sizes: list[int] = []
    prev = None  # east-step height of the previous column, if it has a box
    for l, y in zip(lo, heights):
        if y <= l:
            prev = None
        elif y == prev:
            sizes[-1] += 1
        else:
            sizes.append(1)
            prev = y
    return tuple(sorted(sizes, reverse=True))


def strip_type(strip: RStrip) -> Partition:
    """Sorted sizes of the strip's blocks (maximal equal-height column runs)."""
    return run_type(strip.shape.lo, strip.heights)


def enumerate_r_strips(shape: SkewShape) -> list[RStrip]:
    """All r-strips of the shape, in path (height-vector) lexicographic order."""
    return [RStrip(shape, hs) for hs in iter_strip_heights(shape)]


def path_from_strip(strip: RStrip) -> str:
    """E/N word of the strip's lattice path, bottom-left to top-right corner."""
    lo, hi = strip.shape.lo, strip.shape.hi
    return heights_word(strip.heights, lo[0], hi[-1] + 1) if lo else ""


def strip_from_path(shape: SkewShape, word: str) -> RStrip:
    """The strip whose lattice path across the shape is the word."""
    lo, hi = shape.lo, shape.hi
    validate_word(word)
    span = (hi[-1] + 1 - lo[0]) if lo else 0
    if word.count("N") != span:
        raise ValueError(f"path must have {span} N steps, got {word.count('N')}")
    return RStrip(shape, _path_heights(word, lo[0] if lo else 0))  # RStrip checks them


def _path_heights(word: str, y0: int) -> tuple[int, ...]:
    """East-step heights of an E/N word that starts at height y0."""
    heights = []
    y = y0
    for step in word:
        if step == "N":
            y += 1
        else:
            heights.append(y)
    return tuple(heights)


def _require_full_columns(shape: SkewShape) -> None:
    """A horizontal strip has a box in every column."""
    if len(shape.lo) != shape.width:
        raise ValueError("shape has an empty column")


def enumerate_horizontal_strips(shape: SkewShape) -> list[tuple[int, ...]]:
    """Height sequences of all strips with exactly one box per column."""
    _require_full_columns(shape)
    return list(monotone_heights(shape.lo, shape.hi))


def format_shape(shape: SkewShape) -> str:
    outer = ",".join(str(x) for x in shape.outer)
    inner = ",".join(str(x) for x in shape.inner)
    return f"{outer}/{inner}"


def read_shape(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The outer and inner parts of a shape literal as written, neither
    checked as a partition: "3,2/1" is ((3, 2), (1,)), "3,2/" is ((3, 2), ())."""
    outer, _, inner = text.strip().partition("/")
    return (
        tuple(map(int, outer.split(","))) if outer else (),
        tuple(map(int, inner.split(","))) if inner else (),
    )


def parse_shape(text: str) -> SkewShape:
    """Shape literal: "3,2/1" (outer (3,2), inner (1)); "3,2/" for empty inner."""
    try:
        return SkewShape(*read_shape(text))
    except ValueError as e:
        raise ValueError(f"bad shape literal {text.strip()!r}: {e}") from None


def format_strip(strip: RStrip) -> str:
    """Per-column literal, "-" for a boxless column: "-,0,1"."""
    return ",".join(
        str(y - 1) if y > l else "-" for l, y in zip(strip.shape.lo, strip.heights)
    )


def strip_entries(text: str, count: int) -> list[str]:
    """The comma-separated entries of a strip literal, refused unless there
    are `count` of them, one per column, so a caller can count them before
    it builds the shape."""
    entries = [e.strip() for e in text.split(",")] if text.strip() else []
    if len(entries) != count:
        raise ValueError(
            f"strip literal needs {count} entries (one per column), got {len(entries)}"
        )
    return entries


def parse_strip(shape: SkewShape, text: str) -> RStrip:
    entries = strip_entries(text, len(shape.cols))
    heights = []
    for c, l, e in zip(shape.cols, shape.lo, entries):
        if e == "-":
            heights.append(l)
        elif int(e) < l:
            raise ValueError(f"box ({c}, {e}) lies below the shape")
        else:
            heights.append(int(e) + 1)
    return RStrip(shape, tuple(heights))


def strip_art(strip: RStrip) -> list[str]:
    """The shape drawn top row first: "#" a strip box, "." any other box."""
    shape = strip.shape
    if not shape.cols:
        return ["(empty shape)"]
    return [
        "".join(
            "#" if l <= y == step - 1 else "." if l <= y <= h else " "
            for l, h, step in zip(shape.lo, shape.hi, strip.heights)
        ).rstrip()
        for y in range(max(shape.hi), -1, -1)
    ]
