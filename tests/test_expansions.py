import sys
from collections import Counter
from pathlib import Path
from struct import calcsize

import pytest

from ncstrip import expansions
from ncstrip.expansions import (
    expand_skew,
    expand_skew_by_columns,
    expansion_diff,
    expansion_items,
    fuss_a_expansion_formula,
    fuss_b_expansion_formula,
    parking_expansion,
    top_homogeneous_part,
)
from ncstrip.noncrossing_a import (
    count_by_reduced_type,
    count_by_type,
    enumerate_k_divisible,
    reduced_type_a,
    reduced_type_counts,
    type_counts,
)
from ncstrip.noncrossing_b import count_by_type_b, enumerate_nc_b, type_b, type_counts_b
from ncstrip.parking import enumerate_primitive, pf_type
from ncstrip.partitions import (
    binomial,
    catalan,
    fuss_catalan,
    partition_rows,
)
from ncstrip.shapes import (
    SkewShape,
    format_shape,
    parse_shape,
    rectangle,
    stretched_staircase,
)
from ncstrip.verification import CAP_A, CAP_B

from conftest import (
    parking_coefficient,
    reduced_type_count_a,
    skew_shapes_in_box,
    type_count_a,
    type_count_b,
)
from test_shapes import TEST_SHAPES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def test_skew_expansion_golden_case():
    assert expand_skew(parse_shape("3,2/1")) == {
        (2, 1): 2,
        (2,): 2,
        (1, 1): 1,
        (1,): 2,
        (): 1,
    }


def test_skew_expansion_small_cases():
    assert expand_skew(rectangle(1, 1)) == {(1,): 1, (): 1}
    assert expand_skew(stretched_staircase(2, 1)) == {
        (2,): 1,
        (1, 1): 1,
        (1,): 2,
        (): 1,
    }
    assert expand_skew(parse_shape("1,1/")) == {(1,): 2, (): 1}


def test_fuss_a_formula_values():
    assert fuss_a_expansion_formula(2, 1) == {
        (): 1,
        (1,): 2,
        (2,): 1,
        (1, 1): 1,
    }
    assert fuss_a_expansion_formula(1, 2) == {(): 1, (1,): 2}
    for n, k in [(1, 1), (2, 1), (3, 2), (4, 1)]:
        assert fuss_a_expansion_formula(n, k)[()] == 1


def test_fuss_b_formula_values():
    assert fuss_b_expansion_formula(2, 1) == {
        (): 1,
        (1,): 2,
        (2,): 2,
        (1, 1): 1,
    }
    assert fuss_b_expansion_formula(1, 1) == {(): 1, (1,): 1}
    assert fuss_b_expansion_formula(2, 2) == {
        (): 1,
        (1,): 4,
        (2,): 4,
        (1, 1): 6,
    }
    for n, k in [(1, 1), (2, 2), (3, 1)]:
        assert fuss_b_expansion_formula(n, k)[()] == 1


def test_parking_expansion_values():
    assert parking_expansion(1) == {(1,): 1}
    assert parking_expansion(3) == {(3,): 1, (2, 1): 3, (1, 1, 1): 1}
    assert sum(parking_expansion(3).values()) == catalan(3)
    for n in range(1, 8):
        assert sum(parking_expansion(n).values()) == catalan(n)


@pytest.mark.parametrize("n", range(31))
def test_closed_forms_equal_the_factorial_quotients(n):
    # every row of every count table and formula expansion, far past the
    # census caps: type A of NC_n^(k), reduced type of NC_{n+1}^(k) (the
    # fuss-a expansion), type B of NC_n^{B,(k)} (the fuss-b expansion)
    rows, products = partition_rows(n, True)
    top, top_products = partition_rows(n)
    assert parking_expansion(n) == {lam: parking_coefficient(n, lam) for lam in top}
    for k in range(1, 5):
        by_type = [type_count_a(n, k, lam) for lam in top]
        assert type_counts(n, k, top, top_products) == by_type
        assert [count_by_type(n, k, lam) for lam in top] == by_type
        reduced = {lam: reduced_type_count_a(n + 1, k, lam) for lam in rows}
        signed = {lam: type_count_b(n, k, lam) for lam in rows}
        assert reduced_type_counts(n + 1, k, rows, products) == list(reduced.values())
        assert type_counts_b(n, k, rows, products) == list(signed.values())
        if n == 0:  # the expansion formulas start at n = 1
            assert count_by_reduced_type(1, k, ()) == reduced[()] == 1
            assert count_by_type_b(0, k, ()) == signed[()] == 1
        else:
            assert fuss_a_expansion_formula(n, k) == reduced
            assert fuss_b_expansion_formula(n, k) == signed


def test_top_homogeneous_part():
    e = expand_skew(parse_shape("3,2/1"))
    assert top_homogeneous_part(e, 3) == {(2, 1): 2}
    assert top_homogeneous_part(e, 9) == {}
    staircase = expand_skew(stretched_staircase(3, 1))
    assert top_homogeneous_part(staircase, 3) == parking_expansion(3)


@pytest.mark.parametrize("n", range(1, 8))
def test_parking_expansion_is_staircase_top_part(n):
    staircase = expand_skew(stretched_staircase(n, 1))
    assert top_homogeneous_part(staircase, n) == parking_expansion(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_parking_expansion_matches_primitive_census(n):
    census = Counter(pf_type(p) for p in enumerate_primitive(n))
    assert dict(census) == parking_expansion(n)


def test_equality_and_diff_report():
    a = {(1,): 2, (): 1}
    assert expansion_diff(a, dict(a)) == []
    diffs = expansion_diff(a, {(1,): 3, (2,): 1})
    assert diffs == [((), 1, 0), ((1,), 2, 3), ((2,), 0, 1)]


def test_equality_theorem_instances():
    assert not expansion_diff(
        expand_skew(stretched_staircase(2, 1)), fuss_a_expansion_formula(2, 1)
    )
    assert not expansion_diff(
        expand_skew(rectangle(2, 2)), fuss_b_expansion_formula(2, 2)
    )


@pytest.mark.parametrize(
    "n,k", [(n, k) for k in (1, 2, 3) for n in range(1, 8) if k * (n + 1) <= 10]
)
def test_staircase_three_way_equality(n, k):
    by_enum = expand_skew(stretched_staircase(n, k))
    by_formula = fuss_a_expansion_formula(n, k)
    census = Counter(
        reduced_type_a(b, k) for b in enumerate_k_divisible(n + 1, k)
    )
    assert by_enum == by_formula == dict(census)
    assert sum(by_formula.values()) == fuss_catalan(n + 1, k)
    if k == 1:
        assert sum(by_formula.values()) == catalan(n + 1)


@pytest.mark.parametrize(
    "n,k", [(n, k) for k in (1, 2, 3) for n in range(1, 8) if (k + 1) * n <= 12]
)
def test_rectangle_three_way_equality(n, k):
    by_enum = expand_skew(rectangle(n, k))
    by_formula = fuss_b_expansion_formula(n, k)
    census = Counter(type_b(b, k) for b in enumerate_nc_b(n, k))
    assert by_enum == by_formula == dict(census)
    assert sum(by_formula.values()) == binomial((k + 1) * n, n)


def test_expansion_items_canonical_order():
    items = expansion_items(expand_skew(parse_shape("3,2/1")))
    assert items == [
        ((), 1),
        ((1,), 2),
        ((2,), 2),
        ((1, 1), 1),
        ((2, 1), 2),
    ]


# The column census against the strip listing: every test shape, both shape
# families up to the census caps, the benchmark's request shapes, and the
# degenerate shapes.
CENSUS_SHAPES = [
    *TEST_SHAPES,
    *(
        stretched_staircase(n, k)
        for k in range(1, CAP_A)
        for n in range(1, CAP_A)
        if k * (n + 1) <= CAP_A
    ),
    *(
        rectangle(n, k)
        for k in range(1, CAP_B)
        for n in range(1, CAP_B)
        if (k + 1) * n <= CAP_B
    ),
    SkewShape((), ()),
    SkewShape((1,), ()),
    SkewShape((1, 1, 1, 1), ()),
    SkewShape((2, 2, 2, 1, 1), (1, 1, 1)),
]


@pytest.mark.parametrize("shape", CENSUS_SHAPES, ids=format_shape)
def test_column_census_equals_the_strip_listing(shape):
    assert expand_skew_by_columns(shape) == expand_skew(shape)


def test_column_census_equals_the_strip_listing_in_a_box():
    for outer, inner in skew_shapes_in_box(5, 4):
        shape = SkewShape(outer, inner)
        cols = shape.cols
        if cols and cols[-1] - cols[0] >= len(cols):
            continue  # no monotone path crosses a gap
        assert expand_skew_by_columns(shape) == expand_skew(shape), format_shape(shape)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_column_census_on_the_request_shapes(seed):
    shapes = [
        parse_shape(r.argv[2]) for r in workloads.cli_requests(seed) if r.kind == "expand-shape"
    ]
    assert len(shapes) == 120
    for shape in shapes:
        assert expand_skew_by_columns(shape) == expand_skew(shape), format_shape(shape)


def test_column_census_of_degenerate_shapes():
    assert expand_skew_by_columns(SkewShape((), ())) == {(): 1}
    # one column of height h: the empty strip, or one box at each height
    for h in range(1, 6):
        assert expand_skew_by_columns(SkewShape((1,) * h, ())) == {(): 1, (1,): h}


def test_column_census_refuses_a_gap_as_the_listing_does():
    shape = SkewShape((3, 1), (2,))  # columns 1 and 3
    with pytest.raises(ValueError) as listing:
        expand_skew(shape)
    with pytest.raises(ValueError) as census:
        expand_skew_by_columns(shape)
    assert str(census.value) == str(listing.value) == "column support is not contiguous: [1, 3]"


# A staircase of width w has a strip of w runs of one column each, so its
# type (1^w) holds the largest multiplicity a packed census key must.
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 7, 8, 9])
def test_column_census_holds_one_part_per_column(width):
    shape = SkewShape(tuple(range(width, 0, -1)), ())
    listed = expand_skew(shape)
    assert listed[(1,) * width] == 1
    assert expand_skew_by_columns(shape) == listed


# A row of w boxes has a strip of one run of each length 0..w; its fields
# take one byte up to width 255 and two from 256.
@pytest.mark.parametrize("width", [255, 256, 1000])
def test_column_census_of_one_row(width):
    shape = SkewShape((width,), ())
    expect = {(r,) if r else (): 1 for r in range(width + 1)}
    assert expand_skew_by_columns(shape) == expect
    assert expand_skew(shape) == expect


def test_a_census_field_holds_the_width():
    for width, fmt in [(1, "B"), (255, "B"), (256, "H"), (65535, "H"), (65536, "I")]:
        assert expansions._field_format(width) == fmt
        assert 1 << 8 * calcsize(fmt) > width


# Each key converts to bytes once, so a wide key decodes in time linear in
# its length: one part as long as a width of 50,000, and m parts of 1 and 2,
# which fill a field of each format.
@pytest.mark.parametrize("fmt,m", [("B", 255), ("H", 65535), ("I", 65537)])
def test_a_packed_census_key_decodes_at_each_field_size(fmt, m):
    width, bits = 50_000, 8 * calcsize(fmt)
    census = {1 << bits * width: 1, m << bits | m << 2 * bits: 2}
    assert expansions._unpacked(census, width, fmt) == {(width,): 1, (2,) * m + (1,) * m: 2}


def test_the_listing_and_the_column_census_share_no_type_keys(monkeypatch):
    # the listing keys its census by run_type's tuples, the column census by
    # packed multiplicities; each still counts with the other's keys broken
    shape = stretched_staircase(3, 2)
    expect = fuss_a_expansion_formula(3, 2)

    def broken(*args):
        raise AssertionError("the other census's keys")

    with monkeypatch.context() as m:
        m.setattr(expansions, "run_type", broken)
        assert expand_skew_by_columns(shape) == expect
    with monkeypatch.context() as m:
        m.setattr(expansions, "_close_into", broken)
        assert expand_skew(shape) == expect


# Past the census caps the column census is checked against the closed forms.
@pytest.mark.parametrize(
    "n,k",
    [
        pytest.param(n, k, id=f"n{n}-k{k}-k(n+1)={k * (n + 1)}")
        for n, k in [(15, 1), (10, 2), (6, 3)]
    ],
)
def test_column_census_equals_the_fuss_a_formula_past_the_cap(n, k):
    assert k * (n + 1) > CAP_A
    assert expand_skew_by_columns(stretched_staircase(n, k)) == fuss_a_expansion_formula(n, k)


@pytest.mark.parametrize(
    "n,k",
    [
        pytest.param(n, k, id=f"n{n}-k{k}-(k+1)n={(k + 1) * n}")
        for n, k in [(14, 1), (10, 2), (7, 4)]
    ],
)
def test_column_census_equals_the_fuss_b_formula_past_the_cap(n, k):
    assert (k + 1) * n > CAP_B
    assert expand_skew_by_columns(rectangle(n, k)) == fuss_b_expansion_formula(n, k)
