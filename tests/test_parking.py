import gc
from collections import Counter
from math import factorial

import pytest

from ncstrip import parking
from ncstrip.expansions import parking_expansion
from ncstrip.noncrossing_a import enumerate_k_divisible, type_a
from ncstrip.parking import (
    enumerate_parking_functions,
    enumerate_primitive,
    enumerate_shape_parking_functions,
    is_parking_function,
    is_primitive,
    is_weakly_increasing,
    multiplicity_type,
    pf_type,
    primitive_pf_to_ncp,
    primitive_type_census,
)
from ncstrip.partitions import catalan
from ncstrip.shapes import (
    SkewShape,
    enumerate_horizontal_strips,
    parse_shape,
    rectangle,
    stretched_staircase,
)

from conftest import counted, list_variants, rearrangements_by_permutations, skew_shapes_in_box


def test_predicates():
    assert is_parking_function((1, 1, 2))
    assert is_primitive((1, 1, 2))
    assert not is_parking_function((2, 2))
    assert is_parking_function((3, 1, 1))
    assert not is_primitive((3, 1, 1))
    assert not is_parking_function((0, 1))
    assert is_parking_function(())  # the one parking function of length 0


def test_pf_type():
    assert pf_type((1, 1, 2)) == (2, 1)
    assert pf_type(tuple(range(1, 6))) == (1, 1, 1, 1, 1)
    assert pf_type((1, 1, 1)) == (3,)
    with pytest.raises(ValueError):
        pf_type((2, 2))
    assert multiplicity_type((2, 2)) == (2,)  # only pf_type checks that it parks
    # enumerate --object pf without --primitive lists unsorted sequences, so
    # equal values are not always adjacent
    assert multiplicity_type((2, 1, 2)) == (2, 1)
    assert is_weakly_increasing((2, 2)) and not is_primitive((2, 2))


@pytest.mark.parametrize("n", range(9))
def test_unchecked_type_equals_the_checked_one_on_the_enumerators_output(n):
    # the count --check tally and the enumerate type column skip the parking
    # check on the enumerators' own sequences, primitive or not
    primitives = enumerate_primitive(n)
    assert Counter(map(multiplicity_type, primitives)) == Counter(
        pf_type(p) for p in primitives
    )
    if n <= 6:
        for f in enumerate_parking_functions(n):
            assert multiplicity_type(f) == pf_type(f)
            assert is_weakly_increasing(f) is is_primitive(f)


@pytest.mark.parametrize("n", range(11))
def test_the_step_pattern_census_equals_the_census_by_object(n):
    # count --family pf --by type --check tallies the primitive ones by
    # their step patterns; n = 0 is the one empty sequence, of type ()
    primitives = enumerate_primitive(n)
    census = primitive_type_census(primitives)
    assert census == Counter(map(multiplicity_type, primitives))
    assert sum(census.values()) == catalan(n)
    for seqs in list_variants(primitives):
        assert primitive_type_census(seqs) == Counter(map(multiplicity_type, seqs))


def test_counts():
    assert len(enumerate_parking_functions(3)) == 16
    assert len(enumerate_primitive(3)) == 5
    assert enumerate_parking_functions(1) == [(1,)]
    assert enumerate_primitive(1) == [(1,)]
    for n in range(1, 7):
        assert len(enumerate_parking_functions(n)) == (n + 1) ** (n - 1)
    for n in range(1, 9):
        assert len(enumerate_primitive(n)) == catalan(n)


def test_length_zero():
    assert enumerate_primitive(0) == [()]
    assert enumerate_parking_functions(0) == [()]
    assert parking_expansion(0) == {(): 1}
    assert primitive_pf_to_ncp(()) == ()
    for f in (enumerate_primitive, parking_expansion):
        with pytest.raises(ValueError, match="n must be >= 0"):
            f(-1)


@pytest.mark.parametrize("n", range(1, 7))
def test_parking_functions_by_brute_force(n):
    from itertools import product

    brute = {
        seq for seq in product(range(1, n + 1), repeat=n) if is_parking_function(seq)
    }
    assert set(enumerate_parking_functions(n)) == brute


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_structure(n):
    """Each parking function is a permutation of exactly one primitive one."""
    primitives = enumerate_primitive(n)
    total = 0
    for p in primitives:
        mult = Counter(p)
        orbit = factorial(n)
        for m in mult.values():
            orbit //= factorial(m)
        total += orbit
    assert total == (n + 1) ** (n - 1)
    assert {tuple(sorted(f)) for f in enumerate_parking_functions(n)} == set(primitives)


def test_primitive_to_noncrossing_examples():
    assert primitive_pf_to_ncp((1, 2, 3)) == ((1,), (2,), (3,))
    assert primitive_pf_to_ncp((1, 1, 1)) == ((1, 2, 3),)
    with pytest.raises(ValueError):
        primitive_pf_to_ncp((2, 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_primitive_to_noncrossing_is_a_type_preserving_bijection(n):
    images = set()
    for p in enumerate_primitive(n):
        ncp = primitive_pf_to_ncp(p)
        assert type_a(ncp, 1) == pf_type(p)
        assert ncp not in images
        images.add(ncp)
    assert images == set(enumerate_k_divisible(n, 1))


def test_shape_parking_functions():
    staircase3 = stretched_staircase(3, 1)
    primitives = enumerate_horizontal_strips(staircase3)
    assert len(primitives) == 5
    # heights-plus-one reproduces the classical primitives
    assert {tuple(h + 1 for h in p) for p in primitives} == set(enumerate_primitive(3))
    assert len(enumerate_shape_parking_functions(staircase3)) == 16
    assert enumerate_horizontal_strips(rectangle(1, 1)) == [(0,)]
    # a single two-box column has two primitives
    assert enumerate_horizontal_strips(SkewShape((1, 1), ())) == [(0,), (1,)]
    with pytest.raises(ValueError):
        enumerate_shape_parking_functions(SkewShape((3, 1), (2,)))


@pytest.mark.parametrize("n", range(1, 6))
def test_staircase_parking_functions_match_classical(n):
    shape = stretched_staircase(n, 1)
    general = enumerate_shape_parking_functions(shape)
    classical = {tuple(x - 1 for x in f) for f in enumerate_parking_functions(n)}
    assert set(general) == classical


@pytest.mark.parametrize("n", range(7))
def test_parking_functions_equal_the_permutation_oracle(n):
    # every rearrangement of a sequence with 1 <= b_i <= i, in order
    expected = rearrangements_by_permutations([1] * n, range(1, n + 1))
    assert enumerate_parking_functions(n) == expected


@pytest.mark.parametrize(
    "text",
    # the first four, 3,2,1 and 4,2/1 have a column whose lowest box is
    # above height 0, so their lower bounds prune sequences too
    ["4,3,3,1/2,1", "5,5,3,2/3,1,1", "5,3,3/2,2", "6,4,2/1", "4,4,4,4/3,2,1",
     "3,2,1", "4,4,4", "3,3,3/1,1", "4,2/1", "2,2/1", "1"],
)
def test_shape_parking_functions_equal_the_permutation_oracle(text):
    shape = parse_shape(text)
    expected = rearrangements_by_permutations(shape.lo, shape.hi)
    assert enumerate_shape_parking_functions(shape) == expected
    assert {tuple(sorted(f)) for f in expected} == set(
        enumerate_horizontal_strips(shape)
    )


def test_shape_parking_functions_equal_the_permutation_oracle_in_a_box():
    for outer, inner in skew_shapes_in_box(4, 4):
        shape = SkewShape(outer, inner)
        if len(shape.lo) == shape.width:  # a box in every column
            expected = rearrangements_by_permutations(shape.lo, shape.hi)
            assert enumerate_shape_parking_functions(shape) == expected, (outer, inner)


def test_classical_lister_keys_its_states_on_the_upper_bounds(monkeypatch):
    # every lower bound of a parking function is 1, so a suffix of m entries
    # may hold all m at every value: the lower bounds carry nothing, and the
    # lister searches only the upper ones, once per value
    calls = counted(monkeypatch, "bisect_right", parking)
    assert len(enumerate_parking_functions(4)) == 125
    assert [t for _, t in calls] == [1, 2, 3, 4]
    # bounds that rise from below are still searched
    calls.clear()
    assert parking._bounded_sequences([1, 2], [2, 2]) == [(1, 2), (2, 1), (2, 2)]
    assert [t for _, t in calls] == [1, 2, 1, 2]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "lister",
    [
        lambda: enumerate_parking_functions(4),
        lambda: enumerate_shape_parking_functions(parse_shape("4,3,3,1/2,1")),
        lambda: parking._bounded_sequences([1.0], [1.0]),  # range() refuses floats
    ],
    ids=["classical", "shape", "raises"],
)
def test_the_lister_pauses_the_collector_and_leaves_it_as_it_was(monkeypatch, enabled, lister):
    # while the lists are built the collector is off; afterwards, and after
    # a raise, it is on exactly when it was on before
    during = []
    search = parking.bisect_right
    monkeypatch.setattr(parking, "bisect_right", lambda *a: during.append(gc.isenabled()) or search(*a))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        try:
            lister()
        except TypeError:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert not any(during)
