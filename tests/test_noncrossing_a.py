import hashlib

import pytest

from ncstrip.noncrossing_a import (
    count_by_reduced_type,
    count_by_type,
    enumerate_k_divisible,
    format_blocks,
    is_noncrossing,
    noncrossing_partitions_of_seq,
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


def test_validate_set_partition_rejects_bad_input():
    assert validate_set_partition([[3, 1], [2]], 3) == ((1, 3), (2,))
    assert validate_set_partition((), 0) == ()
    for blocks in ([(1, 2)], [(1, 2), (2,)], [(1, 2), (3, 4)], [(0, 1), (2, 3)]):
        with pytest.raises(ValueError, match="do not partition"):
            validate_set_partition(blocks, 3)
    with pytest.raises(ValueError, match="empty block"):
        validate_set_partition([(1, 2, 3), ()], 3)
    with pytest.raises(ValueError, match="do not partition"):
        validate_nc_a([(1,)], 10**15, 1)  # refused before any allocation


def test_validate_nc_a_messages_in_order():
    assert validate_nc_a([[4, 3], [2, 1]], 2, 2) == ((1, 2), (3, 4))
    assert validate_nc_a((), 0, 3) == ()
    # partition before crossing before divisibility
    for blocks, n, k, message in [
        ([(1, 3), (2, 4), (5,)], 2, 2, "do not partition"),
        ([(1, 3, 6), (2, 4, 5)], 3, 2, "crossing"),
        ([(1, 2, 3), (4, 5, 6)], 3, 2, "not divisible by 2"),
        # the first size refused is the first in canonical order
        ([(5, 6), (4, 3, 2), (1,)], 3, 2, "block size 1 is not divisible by 2"),
    ]:
        with pytest.raises(ValueError, match=message):
            validate_nc_a(blocks, n, k)
    # type_a refuses the first of its sizes sorted in decreasing order
    with pytest.raises(ValueError, match="block size 3 is not divisible by 2"):
        type_a([(1,), (2, 3, 4), (5, 6)], 2)


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


@pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (6, 1), (2, 2), (3, 2), (2, 3), (2, 4)])
def test_enumeration_matches_filter_oracle(n, k):
    got = set(enumerate_k_divisible(n, k))
    expect = set()
    for blocks in set_partitions(range(1, k * n + 1)):
        blocks = tuple(sorted((tuple(sorted(b)) for b in blocks), key=min))
        if all(len(b) % k == 0 for b in blocks) and not crossing_quadruple_scan(blocks):
            expect.add(blocks)
    assert got == expect


@pytest.mark.parametrize(
    "n,k", [(n, k) for k in range(1, 11) for n in range(0, 11) if k * n <= 10 and (n or k == 1)]
)
def test_enumerate_k_divisible_lists_each_member_once_in_canonical_form(n, k):
    got = enumerate_k_divisible(n, k)
    assert all(a < b for a, b in zip(got, got[1:]))  # strictly increasing
    assert all(validate_nc_a(blocks, n, k) == blocks for blocks in got)
    assert len(got) == fuss_catalan(n, k)


# SHA-256 of repr(list(noncrossing_partitions_of_seq(range(1, kn + 1), k))):
# the lister's raw order, which enumerate_k_divisible sorts and
# enumerate_nc_b walks, pinned as the recursive lister gave it
RAW_ORDER_DIGESTS = {
    (0, 1): "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
    (5, 1): "141fc011f63649e68f0dfb475b33fec0c2b4d38df177630983d0199a1c119cbf",
    (10, 1): "a66ac97d1a53747769490814409ea9b5dbe4f718ce7cd22379333bdb3c3cf9d7",
    (6, 2): "650e1268dd27eea3bff8d60f420933d565feb3462c42117ffeedf76a2dd11cab",
    (4, 3): "3df0f01a83786a6288b5c25d10988ecb6922257cc725604a20cb85721275eda7",
    (3, 4): "2ebb81c32fca2e91afe434de9afb523a46a72559c42bd4e6cbb05f015d56ddfb",
    (2, 6): "145f6e03734fd72b005ae7259f36e9c0b9a263f28ca5b3ed526f5030aff41106",
    (1, 12): "165cde28b63537c565b625dd2995d3a2e6f291ffb7ca71567441a760d95cfc5c",
}


@pytest.mark.parametrize("n,k", list(RAW_ORDER_DIGESTS))
def test_lister_raw_order_is_pinned(n, k):
    parts = noncrossing_partitions_of_seq(range(1, k * n + 1), k)
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == RAW_ORDER_DIGESTS[n, k]


def test_lister_takes_any_increasing_ground_sequence():
    # raw order: each element opens a block before it joins one
    assert noncrossing_partitions_of_seq([2, 5, 7, 11], 2) == [
        ((2, 11), (5, 7)),
        ((2, 5), (7, 11)),
        ((2, 5, 7, 11),),
    ]


def test_long_blocks_need_no_recursion():
    # the lister once recursed once per element and raised RecursionError
    assert enumerate_k_divisible(1, 1200) == [(tuple(range(1, 1201)),)]
    assert len(enumerate_k_divisible(2, 500)) == 501


def test_types():
    p = parse_blocks("1,2,5,6/3,4/7,8")
    assert type_a(p, 2) == (2, 1, 1)
    assert reduced_type_a(p, 2) == (1, 1)
    assert type_a([(1, 2, 3, 4)], 2) == (2,)
    assert reduced_type_a([(1, 2, 3, 4)], 2) == ()
    # the block holding 1 is deleted before the divisibility check
    assert reduced_type_a([(1, 2, 3), (4, 5)], 2) == (1,)
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
    assert validate_set_partition([(3, 4), (6, 5, 2, 1), (8, 7)], 8) == (
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
    assert parse_blocks(" 4,3/2,1 ") == ((1, 2), (3, 4))
    assert parse_blocks("") == ()


def test_literal_is_a_partition_of_its_own_ground_set():
    # the ground set is [1..N] for the N elements written, whatever the labels
    with pytest.raises(ValueError, match=r"do not partition \[1\.\.2\]"):
        parse_blocks("1,1000000000")
    for text in ("1,2/2", "0,1", "1,3"):
        with pytest.raises(ValueError, match="do not partition"):
            parse_blocks(text)
