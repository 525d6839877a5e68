from itertools import combinations, product

import pytest

from ncstrip.partitions import binomial, fuss_catalan, weight
from ncstrip.shapes import (
    RStrip,
    SkewShape,
    count_r_strips,
    enumerate_horizontal_strips,
    enumerate_r_strips,
    format_shape,
    format_strip,
    is_r_strip,
    parse_shape,
    parse_strip,
    path_from_strip,
    read_shape,
    rectangle,
    stretched_staircase,
    strip_from_path,
    strip_type,
)

from conftest import skew_shapes_in_box

SHAPE_32_1 = SkewShape((3, 2), (1,))


def test_shape_construction_and_literals():
    assert parse_shape("3,2/1") == SHAPE_32_1
    assert parse_shape("3,2/") == SkewShape((3, 2), ())
    assert format_shape(SHAPE_32_1) == "3,2/1"
    with pytest.raises(ValueError):
        SkewShape((2,), (3,))
    with pytest.raises(ValueError):
        parse_shape("2,3/1")


def test_shape_literal_is_read_as_written():
    # no partition check and no column profile: parse_shape makes both
    assert read_shape(" 2,3/1 ") == ((2, 3), (1,))
    assert read_shape("3,2/") == ((3, 2), ())
    assert read_shape("/") == read_shape("") == ((), ())
    assert read_shape("100000000/99999999") == ((100000000,), (99999999,))
    for text in ("x/1", "3,,2/1", "3/2/1"):
        with pytest.raises(ValueError, match="invalid literal for int"):
            read_shape(text)


def test_column_heights():
    shape = SHAPE_32_1
    assert (shape.cols, shape.lo, shape.hi) == ((1, 2, 3), (0, 0, 1), (0, 1, 1))
    shape = rectangle(2, 1)
    assert (shape.cols[0], shape.lo[0], shape.hi[0]) == (1, 0, 1)
    shape = stretched_staircase(1, 2)
    assert (shape.cols, shape.lo, shape.hi) == ((1,), (0,), (1,))


def test_family_shapes():
    assert stretched_staircase(2, 1) == SkewShape((2, 2), (1,))
    assert stretched_staircase(3, 2) == SkewShape((3,) * 6, (2, 2, 1, 1))
    assert rectangle(2, 2) == SkewShape((2, 2, 2, 2), ())


def test_strip_census_for_skew_32_1():
    strips = enumerate_r_strips(SHAPE_32_1)
    assert len(strips) == 8
    census = {}
    for s in strips:
        census[strip_type(s)] = census.get(strip_type(s), 0) + 1
    assert census == {(2, 1): 2, (2,): 2, (1, 1): 1, (1,): 2, (): 1}


def test_r_strip_counts_for_families():
    assert len(enumerate_r_strips(stretched_staircase(2, 1))) == 5
    assert len(enumerate_r_strips(rectangle(2, 1))) == 6
    for n, k in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3), (3, 2)]:
        if k * (n + 1) <= 12:
            strips = enumerate_r_strips(stretched_staircase(n, k))
            assert len(strips) == fuss_catalan(n + 1, k)
        if (k + 1) * n <= 16:
            strips = enumerate_r_strips(rectangle(n, k))
            assert len(strips) == binomial((k + 1) * n, n)
    # largest rectangle cases at the (k+1)n <= 16 bound
    assert len(enumerate_r_strips(rectangle(4, 3))) == binomial(16, 4)
    assert len(enumerate_r_strips(rectangle(8, 1))) == binomial(16, 8)


def test_is_r_strip_examples():
    assert is_r_strip(SHAPE_32_1, [])
    assert not is_r_strip(SHAPE_32_1, [(1, 0)])
    assert is_r_strip(SHAPE_32_1, [(1, 0), (2, 0)])
    # two boxes in one column / decreasing heights / outside the shape
    assert not is_r_strip(SHAPE_32_1, [(2, 0), (2, 1)])
    assert not is_r_strip(rectangle(2, 2), [(1, 1), (2, 0)])
    assert not is_r_strip(SHAPE_32_1, [(3, 0)])


def test_strip_type_examples():
    assert strip_type(parse_strip(SHAPE_32_1, "-,-,-")) == ()
    assert strip_type(parse_strip(SHAPE_32_1, "0,0,1")) == (2, 1)
    assert strip_type(parse_strip(SHAPE_32_1, "0,1,1")) == (2, 1)
    assert strip_type(parse_strip(SHAPE_32_1, "-,0,1")) == (1, 1)
    assert strip_type(parse_strip(rectangle(3, 1), "0,0,0")) == (3,)


def test_path_strip_correspondence_on_32_1():
    # lower boundary path carries no boxes; upper boundary carries the
    # maximal strip of type (2,1)
    assert strip_from_path(SHAPE_32_1, "EENEN").boxes == ()
    assert strip_type(strip_from_path(SHAPE_32_1, "NENEE")) == (2, 1)
    with pytest.raises(ValueError):
        strip_from_path(SHAPE_32_1, "NNEEE")  # leaves the shape
    with pytest.raises(ValueError):
        strip_from_path(SHAPE_32_1, "EEN")


TEST_SHAPES = [
    SHAPE_32_1,
    SkewShape((2, 2), (1,)),
    SkewShape((2, 1), (1,)),
    SkewShape((3, 3, 3), (2, 1)),
    SkewShape((4, 2, 1), (1,)),
    SkewShape((2, 2, 1, 1), (1, 1)),
    rectangle(2, 2),
    rectangle(3, 1),
    stretched_staircase(2, 2),
    stretched_staircase(3, 1),
    stretched_staircase(1, 3),
]


@pytest.mark.parametrize("shape", TEST_SHAPES, ids=format_shape)
def test_path_characterization_equals_definition(shape):
    """Path-derived strips = definition-checked box subsets, exhaustively."""
    assert shape.box_count() <= 12
    strips = enumerate_r_strips(shape)
    from_paths = {s.boxes for s in strips}
    assert len(from_paths) == len(strips)
    boxes = shape.boxes()
    from_definition = {
        tuple(sorted(sub))
        for r in range(len(boxes) + 1)
        for sub in combinations(boxes, r)
        if is_r_strip(shape, sub)
    }
    assert from_paths == from_definition


@pytest.mark.parametrize("shape", TEST_SHAPES, ids=format_shape)
def test_path_strip_round_trip(shape):
    for strip in enumerate_r_strips(shape):
        word = path_from_strip(strip)
        assert strip_from_path(shape, word) == strip
        t = strip_type(strip)
        assert all(t[i] >= t[i + 1] for i in range(len(t) - 1))
        assert weight(t) == len(strip.boxes)


@pytest.mark.parametrize("shape", TEST_SHAPES, ids=format_shape)
def test_strip_literal_validation_equals_definition(shape):
    """parse_strip accepts a literal exactly when its boxes form an r-strip.

    Each column gets no box or one box at any height from one below the
    column to one above it, so boxes outside the shape are tried too.
    """
    choices = [["-", *range(lo - 1, hi + 2)] for lo, hi in zip(shape.lo, shape.hi)]
    accepted = 0
    for entries in product(*choices):
        boxes = tuple((c, h) for c, h in zip(shape.cols, entries) if h != "-")
        literal = ",".join(map(str, entries))
        try:
            strip = parse_strip(shape, literal)
        except ValueError:
            assert not is_r_strip(shape, boxes), literal
            continue
        assert is_r_strip(shape, boxes), literal
        assert strip.boxes == boxes
        accepted += 1
    assert accepted == count_r_strips(shape) == len(enumerate_r_strips(shape))


def test_rstrip_is_its_height_vector():
    strip = RStrip(SHAPE_32_1, (0, 1, 2))
    assert strip.heights == (0, 1, 2)
    assert strip.boxes == ((2, 0), (3, 1))
    assert strip == parse_strip(SHAPE_32_1, "-,0,1")
    for bad in [(0, 1), (0, 2, 1), (1, 0, 2), (0, 1, 3), (-1, 0, 1)]:
        with pytest.raises(ValueError):
            RStrip(SHAPE_32_1, bad)


def test_shape_profile_is_not_part_of_identity():
    assert repr(SHAPE_32_1) == "SkewShape(outer=(3, 2), inner=(1,))"
    assert hash(SHAPE_32_1) == hash(SkewShape((3, 2), (1,)))
    assert SHAPE_32_1.boxes() == [(1, 0), (2, 0), (2, 1), (3, 1)]


def test_horizontal_strips():
    staircase3 = stretched_staircase(3, 1)
    assert len(enumerate_horizontal_strips(staircase3)) == 5
    assert enumerate_horizontal_strips(rectangle(1, 1)) == [(0,)]
    assert enumerate_horizontal_strips(SkewShape((1, 1), ())) == [(0,), (1,)]
    # brute force oracle for the rectangle: weakly increasing pairs of heights
    brute = [
        (h1, h2)
        for h1 in range(4)
        for h2 in range(4)
        if h1 <= h2
    ]
    assert enumerate_horizontal_strips(rectangle(2, 2)) == sorted(brute)
    assert len(enumerate_horizontal_strips(SHAPE_32_1)) == 2
    with pytest.raises(ValueError):
        enumerate_horizontal_strips(SkewShape((3, 1), (2,)))  # empty column 2


def test_strip_literals():
    strip = parse_strip(SHAPE_32_1, "-,0,1")
    assert format_strip(strip) == "-,0,1"
    assert parse_strip(SHAPE_32_1, "-,0,1") == strip
    with pytest.raises(ValueError):
        parse_strip(SHAPE_32_1, "-,0")
    with pytest.raises(ValueError):
        parse_strip(SHAPE_32_1, "0,-,-")  # not right-aligned


def test_disconnected_column_support_is_rejected():
    with pytest.raises(ValueError):
        enumerate_r_strips(SkewShape((3, 1), (2,)))


def test_disconnected_column_support_is_rejected_by_strip_entry_points():
    shape = SkewShape((3, 1), (2,))
    assert (shape.cols, shape.lo, shape.hi) == ((1, 3), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        count_r_strips(shape)
    with pytest.raises(ValueError):
        parse_strip(shape, "-,-")
    with pytest.raises(ValueError):
        strip_from_path(shape, "EENN")


def test_column_bottoms_and_tops_never_fall():
    # the column census and the parking lister read lo and hi as given
    for outer, inner in skew_shapes_in_box(5, 5):
        shape = SkewShape(outer, inner)
        lo, hi = shape.lo, shape.hi
        assert all(map(int.__le__, lo, lo[1:])), format_shape(shape)
        assert all(map(int.__le__, hi, hi[1:])), format_shape(shape)
        assert all(map(int.__le__, lo, hi)), format_shape(shape)
