import pytest

from ncstrip.noncrossing_a import (
    blocks_noncrossing,
    canonical_blocks,
    count_by_reduced_type,
    count_by_type,
    enumerate_k_divisible,
    format_blocks,
    is_noncrossing,
    parse_blocks,
    reduced_type_a,
    type_a,
    validate_nc_a,
    validate_set_partition,
)
from ncstrip.partitions import catalan, fuss_catalan, partitions_with_weight_at_most, weight

from conftest import crossing_pair_scan, crossing_quadruple_scan, set_partitions


def test_is_noncrossing_examples():
    assert is_noncrossing([(1,), (2,), (3,)], 3)
    assert not is_noncrossing([(1, 3), (2, 4)], 4)
    assert is_noncrossing(parse_blocks("1,2,5,6/3,4/7,8"), 8)


@pytest.mark.parametrize("n", range(1, 9))
def test_is_noncrossing_matches_quadruple_scan(n):
    agree_count = 0
    for blocks in set_partitions(range(1, n + 1)):
        assert is_noncrossing(blocks, n) == (not crossing_quadruple_scan(blocks))
        agree_count += 1
    assert agree_count > 0


@pytest.mark.parametrize("n", range(1, 8))
def test_pair_scan_oracle_matches_quadruple_scan(n):
    for blocks in set_partitions(range(1, n + 1)):
        assert crossing_pair_scan(blocks) == crossing_quadruple_scan(blocks)


def test_blocks_noncrossing_on_a_sparse_ground_set():
    # the stack scan reads elements in increasing order, wherever they lie
    assert blocks_noncrossing([(10, 40), (20, 30), (50,)])
    assert not blocks_noncrossing([(10, 30), (40, 20)])
    assert blocks_noncrossing([(7, -3), (-5, -4)])
    assert not blocks_noncrossing([(-5, 0), (-3, 2)])


def test_validate_set_partition_rejects_bad_input():
    assert validate_set_partition([[3, 1], [2]], 3) == ((1, 3), (2,))
    assert validate_set_partition((), 0) == ()
    for blocks in ([(1, 2)], [(1, 2), (2,)], [(1, 2), (3, 4)], [(0, 1), (2, 3)]):
        with pytest.raises(ValueError, match="do not partition"):
            validate_set_partition(blocks, 3)
    with pytest.raises(ValueError, match="empty block"):
        validate_set_partition([(1, 2, 3), ()], 3)


def test_validate_nc_a_messages_in_order():
    assert validate_nc_a([[4, 3], [2, 1]], 2, 2) == ((1, 2), (3, 4))
    assert validate_nc_a((), 0, 3) == ()
    # partition before crossing before divisibility
    for blocks, n, k, message in [
        ([(1, 3), (2, 4), (5,)], 2, 2, "do not partition"),
        ([(1, 3, 6), (2, 4, 5)], 3, 2, "crossing"),
        ([(1, 2, 3), (4, 5, 6)], 3, 2, "not divisible by 2"),
    ]:
        with pytest.raises(ValueError, match=message):
            validate_nc_a(blocks, n, k)


def test_enumeration_counts():
    assert len(enumerate_k_divisible(3, 1)) == 5
    assert enumerate_k_divisible(0, 1) == [()]
    assert enumerate_k_divisible(2, 2) == [
        ((1, 2), (3, 4)),
        ((1, 2, 3, 4),),
        ((1, 4), (2, 3)),
    ]
    for n in range(9):
        assert len(enumerate_k_divisible(n, 1)) == catalan(n)
    for n, k in [(1, 2), (2, 2), (3, 2), (2, 3), (4, 2), (2, 4)]:
        assert len(enumerate_k_divisible(n, k)) == fuss_catalan(n, k)


@pytest.mark.parametrize("n,k", [(4, 1), (2, 2), (3, 2), (2, 3), (2, 4)])
def test_enumeration_matches_filter_oracle(n, k):
    got = set(enumerate_k_divisible(n, k))
    expect = set()
    for blocks in set_partitions(range(1, k * n + 1)):
        blocks = tuple(sorted((tuple(sorted(b)) for b in blocks), key=min))
        if all(len(b) % k == 0 for b in blocks) and not crossing_quadruple_scan(blocks):
            expect.add(blocks)
    assert got == expect


def test_types():
    p = parse_blocks("1,2,5,6/3,4/7,8")
    assert type_a(p, 2) == (2, 1, 1)
    assert reduced_type_a(p, 2) == (1, 1)
    assert type_a([(1, 2, 3, 4)], 2) == (2,)
    assert reduced_type_a([(1, 2, 3, 4)], 2) == ()
    singles = [(i,) for i in range(1, 5)]
    assert type_a(singles, 1) == (1, 1, 1, 1)
    assert reduced_type_a(singles, 1) == (1, 1, 1)
    with pytest.raises(ValueError):
        type_a([(1, 2, 3)], 2)


def test_reduced_type_is_type_minus_one_block():
    for n, k in [(3, 1), (4, 1), (2, 2), (2, 3)]:
        for blocks in enumerate_k_divisible(n, k):
            t = list(type_a(blocks, k))
            one_block = next(b for b in blocks if 1 in b)
            t.remove(len(one_block) // k)
            assert tuple(t) == tuple(sorted(reduced_type_a(blocks, k), reverse=True))


def test_canonical_listing():
    assert canonical_blocks([(3, 4), (1, 2, 5, 6), (7, 8)]) == (
        (1, 2, 5, 6),
        (3, 4),
        (7, 8),
    )
    fig = parse_blocks("1,6/2,3,4,5/7,10,11,12/8,9")
    assert fig == ((1, 6), (2, 3, 4, 5), (7, 10, 11, 12), (8, 9))
    assert format_blocks(fig) == "1,6/2,3,4,5/7,10,11,12/8,9"


def test_count_by_type_examples():
    assert count_by_type(3, 1, (2, 1)) == 3
    assert count_by_type(3, 1, (3,)) == 1
    assert count_by_type(2, 2, (1, 1)) == 2
    with pytest.raises(ValueError):
        count_by_type(3, 1, (2, 2))


def test_count_by_reduced_type_examples():
    assert count_by_reduced_type(3, 1, (1,)) == 2
    assert count_by_reduced_type(2, 2, ()) == 1
    assert count_by_reduced_type(3, 1, (1, 1)) == 1
    with pytest.raises(ValueError):
        count_by_reduced_type(3, 1, (3,))


@pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2, 3) for n in range(1, 9) if k * n <= 10])
def test_count_formulas_match_census(n, k):
    census_t, census_r = {}, {}
    for blocks in enumerate_k_divisible(n, k):
        t, r = type_a(blocks, k), reduced_type_a(blocks, k)
        census_t[t] = census_t.get(t, 0) + 1
        census_r[r] = census_r.get(r, 0) + 1
    for zeta, cnt in census_t.items():
        assert count_by_type(n, k, zeta) == cnt
    for lam, cnt in census_r.items():
        assert count_by_reduced_type(n, k, lam) == cnt
    assert sum(census_t.values()) == fuss_catalan(n, k)


@pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2, 3, 4) for n in range(1, 13) if k * n <= 12])
def test_pointed_double_counting_identity(n, k):
    for lam in partitions_with_weight_at_most(n - 1):
        part = n - weight(lam)
        zeta = tuple(sorted(lam + (part,), reverse=True))
        mult = sum(1 for x in zeta if x == part)
        assert k * n * count_by_reduced_type(n, k, lam) == count_by_type(
            n, k, zeta
        ) * mult * k * part


def test_literal_round_trip():
    text = "1,2,5,6/3,4/7,8"
    assert format_blocks(parse_blocks(text)) == text
