import gc
import hashlib
import tracemalloc
from collections import Counter

import pytest

from ncstrip.noncrossing_a import (
    count_by_reduced_type,
    count_by_type,
    enumerate_k_divisible,
    format_blocks,
    is_noncrossing,
    noncrossing_partitions_of_seq,
    read_blocks,
    reduced_type_a,
    type_a,
    types_a_census,
    types_a_each,
    validate_nc_a,
)
from ncstrip.noncrossing_b import enumerate_nc_b
from ncstrip.partitions import catalan, fuss_catalan, partitions_with_weight_at_most, weight
from ncstrip.verification import PAIRS_A, _marginal

from conftest import crossing_pair_scan, crossing_quadruple_scan, list_variants, set_partitions


def test_is_noncrossing_examples():
    assert is_noncrossing([(1,), (2,), (3,)], 3)
    assert not is_noncrossing([(1, 3), (2, 4)], 4)
    assert is_noncrossing(validate_nc_a(read_blocks("1,2,5,6/3,4/7,8"), 4, 2), 8)


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


def test_validate_nc_a_refuses_what_does_not_partition_the_ground_set():
    assert validate_nc_a([[3, 1], [2]], 3, 1) == ((1, 3), (2,))
    # a missing element, one placed twice, one past kn or one below 1
    for blocks in ([(1, 2)], [(1, 2), (2,)], [(1, 2), (3, 4)], [(0, 1), (2, 3)]):
        with pytest.raises(ValueError, match="do not partition"):
            validate_nc_a(blocks, 3, 1)
    with pytest.raises(ValueError, match="empty block"):
        validate_nc_a([(1, 2, 3), ()], 3, 1)
    # a huge n or a huge element is refused without allocating: the
    # elements are counted against kn before the owner array is built
    tracemalloc.start()
    try:
        for blocks, n, k in (([(1,)], 10**15, 1), ([(1, 10**15)], 1, 2)):
            with pytest.raises(ValueError, match="do not partition"):
                validate_nc_a(blocks, n, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


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


# SHA-256 of repr(noncrossing_partitions_of_seq(range(1, kn + 1), k)): the
# lister's own order, which is canonical (sorted) order.  The digests were
# taken from the sorted output of the earlier backtracking lister.
RAW_ORDER_DIGESTS = {
    (0, 1): "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
    (5, 1): "c0004d1181d09943b476b29412280f471c812b57749481d80db3dc2f7ed12530",
    (10, 1): "c5a600ad9f6121caa25743629d103b055fb4b34c571a178cb03b0aa7e0aa7cd6",
    (6, 2): "ec561e707b23a349e3afa0a5fb41ee36d9ced29c0061567fbc6312ea17f033ad",
    (4, 3): "3378e3bb362512ee5643b295f9bef828a36ca6e897adafe4fce40fc997531aec",
    (3, 4): "dd690019a7b6641accca4f35ec5fcfa383d2499335779327ed203564b6d256c2",
    (2, 6): "8724eda61ba6f1451fcead38404158f09c529a387a0f5ecbfcff8537ab349d0d",
    (1, 12): "165cde28b63537c565b625dd2995d3a2e6f291ffb7ca71567441a760d95cfc5c",
}


@pytest.mark.parametrize("n,k", list(RAW_ORDER_DIGESTS))
def test_lister_raw_order_is_pinned(n, k):
    parts = noncrossing_partitions_of_seq(range(1, k * n + 1), k)
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == RAW_ORDER_DIGESTS[n, k]


def test_lister_takes_any_increasing_ground_sequence():
    # canonical order, whatever the values
    assert noncrossing_partitions_of_seq([2, 5, 7, 11], 2) == [
        ((2, 5), (7, 11)),
        ((2, 5, 7, 11),),
        ((2, 11), (5, 7)),
    ]
    assert noncrossing_partitions_of_seq([2, 5, 7], 2) == []


@pytest.mark.parametrize("size", range(10))
def test_lister_equals_the_sorted_brute_force_oracle(size):
    # every set partition of [size] that no quadruple crosses, once; for each
    # k dividing size, those whose block sizes k divides, sorted
    noncrossing = [
        blocks for blocks in set_partitions(range(1, size + 1))
        if not crossing_quadruple_scan(blocks)
    ]
    for k in range(1, max(size, 1) + 1):
        if size % k == 0:
            expect = sorted(b for b in noncrossing if all(len(x) % k == 0 for x in b))
            assert enumerate_k_divisible(size // k, k) == expect


def test_long_blocks_need_no_recursion():
    # the lister once recursed once per element and raised RecursionError
    assert enumerate_k_divisible(1, 1200) == [(tuple(range(1, 1201)),)]
    assert len(enumerate_k_divisible(2, 500)) == 501


@pytest.mark.parametrize("lister, n, k", [(enumerate_k_divisible, 9, 1),
                                         (enumerate_k_divisible, 3, 2), (enumerate_nc_b, 6, 1)])
def test_a_listing_leaves_no_cycle_behind(lister, n, k):
    # the lister's recursive closure once referred to itself through its
    # cell, which kept it, its memo and every interval's list alive until a
    # collection: 8,676 objects after NC_9 and 359 after NC_B at (6, 1)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert lister(n, k)
        assert gc.collect() <= 5
    finally:
        if was:
            gc.enable()


def test_types():
    p = validate_nc_a(read_blocks("1,2,5,6/3,4/7,8"), 4, 2)
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


@pytest.mark.parametrize("n,k", PAIRS_A)
def test_whole_list_types_equal_the_one_member_values(n, k):
    # each distinct signature is finished once, whatever the order of the
    # members and however often a member comes
    variants = list_variants(enumerate_k_divisible(n, k))
    # the one-member values, computed once per member
    one = {b: (type_a(b, k), reduced_type_a(b, k)) for b in variants[0]}
    for members in variants:
        both = [one[b] for b in members]
        assert list(types_a_each(members, k)) == both
        census = types_a_census(members, k)
        assert census == Counter(both)
        for i in range(2):
            assert _marginal(census, i) == Counter(value[i] for value in both)
    # a one-pass iterator, as the strip checks hand over psi-a's images
    assert list(types_a_each(iter(variants[0]), k)) == [one[b] for b in variants[0]]


@pytest.mark.parametrize(
    "bad,k,message",
    [
        ((), 1, "the reduced type needs n >= 1"),
        (((2, 3), (4, 5)), 1, "no unique block contains the symbol 1"),
        # the whole-list forms read canonical members, where the block that
        # holds 1 comes first
        (((2, 3), (1, 4)), 1, "no unique block contains the symbol 1"),
        (((1, 2), (3, 4, 5), (6,)), 2, "block size 3 is not divisible by 2"),
        # unlike reduced_type_a, they check the block that holds 1
        (((1,), (2, 3)), 2, "block size 1 is not divisible by 2"),
    ],
)
def test_whole_list_types_refuse_a_bad_last_member(bad, k, message):
    members = [*enumerate_k_divisible(3, k), bad]
    for statistic in (types_a_each, types_a_census):
        with pytest.raises(ValueError, match=message):
            list(statistic(members, k))


def test_one_member_types_find_the_block_of_1_in_any_order():
    blocks = ((2, 3), (1, 4), (5, 6))
    assert (type_a(blocks, 2), reduced_type_a(blocks, 2)) == ((1, 1, 1), (1, 1))
    assert reduced_type_a(((3, 4, 5), (1, 2)), 1) == (3,)
    refusals = [
        (((1, 2), (1, 3)), "no unique block contains the symbol 1"),
        (((2, 3), (4, 5)), "no unique block contains the symbol 1"),
        ((), "the reduced type needs n >= 1"),
    ]
    for blocks, message in refusals:
        with pytest.raises(ValueError, match=message):
            reduced_type_a(blocks, 1)
    # types_a_each reads the first block of a canonical member, so it does
    # not look for a second block holding 1
    for blocks, message in refusals[1:]:
        with pytest.raises(ValueError, match=message):
            list(types_a_each([blocks], 1))


def test_reduced_type_is_type_minus_one_block():
    for n, k in [(3, 1), (4, 1), (2, 2), (2, 3)]:
        for blocks in enumerate_k_divisible(n, k):
            t = list(type_a(blocks, k))
            one_block = next(b for b in blocks if 1 in b)
            t.remove(len(one_block) // k)
            assert tuple(t) == tuple(sorted(reduced_type_a(blocks, k), reverse=True))


def test_canonical_listing():
    assert validate_nc_a([(3, 4), (6, 5, 2, 1), (8, 7)], 4, 2) == (
        (1, 2, 5, 6),
        (3, 4),
        (7, 8),
    )
    fig = validate_nc_a(read_blocks("1,6/2,3,4,5/7,10,11,12/8,9"), 6, 2)
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
    assert format_blocks(validate_nc_a(read_blocks(text), 4, 2)) == text
    assert validate_nc_a(read_blocks(" 4,3/2,1 "), 2, 2) == ((1, 2), (3, 4))
    assert validate_nc_a(read_blocks(""), 0, 1) == ()


def test_literal_is_a_partition_of_its_own_ground_set():
    # read at the (n, k) of its N elements, whose ground set is [1..N],
    # whatever the labels
    with pytest.raises(ValueError, match=r"do not partition \[1\.\.2\]"):
        validate_nc_a(read_blocks("1,1000000000"), 2, 1)
    for text, n in (("1,2/2", 3), ("0,1", 2), ("1,3", 2)):
        with pytest.raises(ValueError, match="do not partition"):
            validate_nc_a(read_blocks(text), n, 1)
