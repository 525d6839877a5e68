import hashlib
from collections import Counter

import pytest

from ncstrip import noncrossing_b
from ncstrip.noncrossing_a import format_blocks, read_blocks
from ncstrip.noncrossing_b import (
    antipodal_block,
    count_by_type_b,
    enumerate_nc_b,
    is_noncrossing_b,
    type_b,
    type_b_census,
    type_b_each,
    validate_nc_b,
)
from ncstrip.partitions import binomial, partitions_with_weight_at_most
from ncstrip.verification import PAIRS_B

from conftest import canonical_b_by_definition, crossing_quadruple_scan, list_variants, set_partitions


def read_nc_b(text, n, k):
    """The canonical blocks of a literal of NC_n^{B,(k)}."""
    return validate_nc_b(read_blocks(text), n, k)


TYPE_B_EXAMPLE_PARTITION = read_nc_b(
    "-1,-2,12/-3,-7,11/-4,-5,-6/-8,-9,-10,8,9,10/-11,3,7/-12,1,2/4,5,6", 4, 3
)

NC_2_1_HAND_CENSUS = [
    read_nc_b("1/-1/2/-2", 2, 1),
    read_nc_b("1,-1/2/-2", 2, 1),
    read_nc_b("2,-2/1/-1", 2, 1),
    read_nc_b("1,2/-1,-2", 2, 1),
    read_nc_b("1,-2/-1,2", 2, 1),
    read_nc_b("1,2,-1,-2", 2, 1),
]


def test_is_noncrossing_b_examples():
    assert is_noncrossing_b([(1,), (-1,), (2,), (-2,)], 2)
    assert is_noncrossing_b([(1, -2), (-1, 2)], 2)
    assert not is_noncrossing_b([(1, 2), (-1,), (-2,)], 2)  # not invariant
    assert not is_noncrossing_b([(1, 3), (-1, -3), (2, -2)], 3)  # crossing chords
    assert is_noncrossing_b(TYPE_B_EXAMPLE_PARTITION, 12)
    assert not is_noncrossing_b([(1,), (-1,)], 2)  # does not cover -2 and 2


@pytest.mark.parametrize("m", [1, 2, 3])
def test_is_noncrossing_b_matches_filter_oracle(m):
    ground = [x for x in range(1, m + 1)] + [-x for x in range(1, m + 1)]
    got = set()
    expect = set()
    for blocks in set_partitions(ground):
        canon = canonical_b_by_definition(blocks, m)
        if is_noncrossing_b(canon, m):
            got.add(canon)
        pos_blocks = [[v if v > 0 else m - v for v in b] for b in canon]
        sets = {frozenset(b) for b in canon}
        invariant = all(frozenset(-x for x in b) in sets for b in canon)
        if invariant and not crossing_quadruple_scan(pos_blocks):
            expect.add(canon)
    assert got == expect
    assert len(got) == binomial(2 * m, m)


def test_antipodal_block():
    assert antipodal_block(read_nc_b("1,-1/2/-2", 2, 1)) == (-1, 1)
    assert antipodal_block(read_nc_b("1/-1/2/-2", 2, 1)) is None
    assert antipodal_block(TYPE_B_EXAMPLE_PARTITION) == (-10, -9, -8, 8, 9, 10)


def test_enumerate_nc_b_hand_census():
    got = enumerate_nc_b(2, 1)
    assert len(got) == 6
    assert set(got) == set(NC_2_1_HAND_CENSUS)
    assert enumerate_nc_b(1, 1) == sorted(
        [read_nc_b("1/-1", 1, 1), read_nc_b("1,-1", 1, 1)]
    )
    assert enumerate_nc_b(0, 1) == [()]


@pytest.mark.parametrize(
    "n,k",
    [
        (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (1, 2), (2, 2), (3, 2), (1, 3),
        (2, 3), (4, 3), (1, 5), (1, 30), (2, 12), (3, 7),
    ],
)
def test_enumerate_nc_b_cardinality(n, k):
    got = enumerate_nc_b(n, k)
    assert len(got) == binomial((k + 1) * n, n)
    assert len(set(got)) == len(got)
    for blocks in got:
        validate_nc_b(blocks, n, k)


@pytest.mark.parametrize(
    "n,k", [(2, 1), (3, 1), (4, 1), (5, 1), (1, 2), (2, 2), (1, 3), (1, 4)]
)
def test_enumerate_nc_b_matches_filter_oracle(n, k):
    m = k * n
    ground = [x for x in range(1, m + 1)] + [-x for x in range(1, m + 1)]
    expect = set()
    for blocks in set_partitions(ground):
        canon = canonical_b_by_definition(blocks, m)
        if all(len(b) % k == 0 for b in canon) and is_noncrossing_b(canon, m):
            expect.add(canon)
    assert set(enumerate_nc_b(n, k)) == expect


@pytest.mark.parametrize(
    "n,k", [(n, k) for k in range(1, 12) for n in range(1, 7) if (k + 1) * n <= 12]
)
def test_enumerate_nc_b_lists_each_member_once_in_canonical_form(n, k):
    got = enumerate_nc_b(n, k)
    assert all(a < b for a, b in zip(got, got[1:]))  # strictly increasing
    assert all(validate_nc_b(blocks, n, k) == blocks for blocks in got)
    assert len(got) == binomial((k + 1) * n, n)


# SHA-256 of repr(enumerate_nc_b(n, k)): the members, their canonical
# listings and their order, pinned before the lister read members in
# canonical label order
NC_B_DIGESTS = {
    (7, 1): "62c6b2632159fbda4410149c8c9ee836ead9565e24b4205317a9bfacd53e8c6b",
    (4, 2): "8d12b7785c8c28c15a15e3fc24e564ff509ceb3b5eff0c801590843a94138868",
    (3, 3): "7afdbdfad648b9d12020dc305b6a4a0923537754ffcc61fe1fbac95962238c77",
    (2, 6): "6d4347cb03e79939e19eb62900070919c04240b007717e7d384d4a7efcfef273",
    (1, 13): "e0edbec34a05e3f13faa2105d30ae4b8b38ffafb2a6538819ce46d62e99b412b",
}


@pytest.mark.parametrize("n,k", list(NC_B_DIGESTS))
def test_enumerate_nc_b_is_pinned(n, k):
    got = enumerate_nc_b(n, k)
    assert hashlib.sha256(repr(got).encode()).hexdigest() == NC_B_DIGESTS[n, k]


@pytest.mark.parametrize("n,k", [(1, 12), (2, 6), (3, 4)])
def test_enumerate_nc_b_draws_at_most_one_type_a_partition_per_member(
    monkeypatch, n, k
):
    drawn = 0
    inner = noncrossing_b.noncrossing_partitions_of_seq

    def counting(seq, k=1):
        nonlocal drawn
        for part in inner(seq, k):
            drawn += 1
            yield part

    monkeypatch.setattr(noncrossing_b, "noncrossing_partitions_of_seq", counting)
    members = enumerate_nc_b(n, k)
    assert 0 < drawn <= len(members)


def test_long_blocks_need_no_recursion():
    # the type-A lister under it once recursed once per element
    members = enumerate_nc_b(1, 1200)
    assert len(members) == 1201
    assert members[0] == (tuple(range(-1, -1201, -1)), tuple(range(1, 1201)))


def test_at_most_one_antipodal_block():
    for n, k in [(3, 1), (2, 2)]:
        for blocks in enumerate_nc_b(n, k):
            antipodal_block(blocks)  # raises on two


def test_type_b_examples():
    assert type_b(read_nc_b("1,2,-1,-2", 2, 1), 1) == ()
    assert type_b(TYPE_B_EXAMPLE_PARTITION, 3) == (1, 1, 1)
    assert type_b(read_nc_b("1,2/-1,-2", 2, 1), 1) == (2,)
    with pytest.raises(ValueError):
        type_b(read_nc_b("1,2/-1,-2", 2, 1), 3)


def type_b_by_orbits(blocks, k):
    """The definition: |B|/k over one block per {B, -B} orbit, the antipodal
    block (B = -B) dropped."""
    orbits = {frozenset(map(abs, b)) for b in blocks if set(b) != {-x for x in b}}
    return tuple(sorted((len(orbit) // k for orbit in orbits), reverse=True))


@pytest.mark.parametrize("n,k", PAIRS_B)
def test_whole_list_type_b_equals_the_one_member_values_and_the_definition(n, k):
    # type_b reads block sizes alone: on a member of NC_B the antipodal
    # block's size is the one with odd multiplicity
    members = enumerate_nc_b(n, k)
    one = {b: type_b(b, k) for b in members}
    assert list(one.values()) == [type_b_by_orbits(b, k) for b in members]
    for blocks in list_variants(members):
        types = [one[b] for b in blocks]
        assert list(type_b_each(blocks, k)) == types
        assert type_b_census(blocks, k) == Counter(types)
    # a one-pass iterator, as the strip checks hand over psi-b's images
    assert list(type_b_each(iter(members), k)) == list(one.values())


@pytest.mark.parametrize("statistic", [type_b_each, type_b_census])
def test_whole_list_type_b_refuses_a_bad_last_member(statistic):
    members = [*enumerate_nc_b(2, 2), ((-1,), (-2, -3, -4), (1,), (2, 3, 4))]
    with pytest.raises(ValueError, match="block size 3 is not divisible by 2"):
        list(statistic(members, 2))


def test_type_b_weight_deficit():
    for blocks in enumerate_nc_b(3, 1):
        t = type_b(blocks, 1)
        anti = antipodal_block(blocks)
        deficit = (len(anti) // 2) if anti else 0
        assert sum(t) + deficit == 3


def test_count_by_type_b_examples():
    assert count_by_type_b(2, 1, (1,)) == 2
    assert count_by_type_b(2, 1, (2,)) == 2
    assert count_by_type_b(2, 1, ()) == 1
    assert count_by_type_b(5, 3, ()) == 1
    with pytest.raises(ValueError):
        count_by_type_b(2, 1, (3,))


@pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2, 3) for n in range(1, 8) if (k + 1) * n <= 14])
def test_count_by_type_b_matches_census(n, k):
    census = {}
    for blocks in enumerate_nc_b(n, k):
        t = type_b(blocks, k)
        census[t] = census.get(t, 0) + 1
    for lam in partitions_with_weight_at_most(n):
        assert count_by_type_b(n, k, lam) == census.get(lam, 0)
    assert sum(census.values()) == binomial((k + 1) * n, n)


def test_canonical_listing_b():
    # clockwise from the minimal element in the order -1 < -2 < ... < 1 < 2 < ...
    scrambled = [tuple(reversed(b)) for b in reversed(TYPE_B_EXAMPLE_PARTITION)]
    canon = validate_nc_b(scrambled, 4, 3)
    assert canon == TYPE_B_EXAMPLE_PARTITION
    assert canon == canonical_b_by_definition(scrambled, 12)
    assert (-8, -9, -10, 8, 9, 10) in canon
    assert (-11, 3, 7) in canon
    text = "-1,-2,12/-3,-7,11/-4,-5,-6/-8,-9,-10,8,9,10/-11,3,7/-12,1,2/4,5,6"
    assert format_blocks(TYPE_B_EXAMPLE_PARTITION) == text
    assert read_nc_b(text, 4, 3) == TYPE_B_EXAMPLE_PARTITION


def test_literal_b_is_a_partition_of_its_own_ground_set():
    # read at the (n, k) = (m, 1) of its 2m elements, m rounded down
    assert read_nc_b("", 0, 1) == ()
    assert read_nc_b("2,-1/1,-2", 2, 1) == ((-1, 2), (-2, 1))
    for text, m, message in [
        ("1,2/-1/-2", 2, "not invariant under negation"),
        ("1,-1/2,-2", 2, "crossing on the polygon"),
        ("1,2/-1", 1, "do not partition the signed set"),
        ("1,3/-1,-3", 2, "outside the signed ground set of size 2"),
        ("1,1/-1,-1", 2, "do not partition the signed set"),
    ]:
        with pytest.raises(ValueError, match=message):
            read_nc_b(text, m, 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_validate_nc_b_matches_oracles(m):
    ground = [x for x in range(1, m + 1)] + [-x for x in range(1, m + 1)]
    for n, k in [(m // k, k) for k in range(1, m + 1) if m % k == 0]:
        accepted = 0
        for blocks in set_partitions(ground):
            canon = canonical_b_by_definition(blocks, m)
            sets = {frozenset(b) for b in blocks}
            pos_blocks = [[v if v > 0 else m - v for v in b] for b in blocks]
            if not all(frozenset(-x for x in b) in sets for b in sets):
                expect = "not invariant under negation"
            elif crossing_quadruple_scan(pos_blocks):
                expect = "crossing on the polygon"
            elif any(len(b) % k for b in blocks):
                expect = "not divisible"
            else:
                assert validate_nc_b(blocks, n, k) == canon
                assert validate_nc_b(reversed(blocks), n, k) == canon
                accepted += 1
                continue
            with pytest.raises(ValueError, match=expect):
                validate_nc_b(blocks, n, k)
        assert accepted == binomial((k + 1) * n, n)


def test_validate_nc_b_messages_in_order():
    cases = [
        ([(1,), (-1,)], 2, 1, "do not partition the signed set"),
        ([(1, 2), (-1,), (-2, 1)], 2, 1, "do not partition the signed set"),
        # the right number of labels, but one repeated and one missing
        ([(1,), (1,), (-1,), (-2,)], 2, 1, "do not partition the signed set"),
        ([(1, 2), (-1,), (-2,)], 2, 1, "not invariant under negation"),
        ([(1, 3), (-1, -3), (2, -2)], 3, 1, "crossing on the polygon"),
        ([(1,), (-1,), (2,), (-2,)], 1, 2, "block size 1 is not divisible by 2"),
        # the first size refused is the first in canonical order
        ([(2, 3, 4), (-2, -3, -4), (1,), (-1,)], 2, 2, "block size 1 is not divisible by 2"),
        # a crossing that is also not invariant reports the invariance first
        ([(1, 3), (2, -1), (-2,), (-3,)], 3, 1, "not invariant under negation"),
    ]
    for blocks, n, k, message in cases:
        with pytest.raises(ValueError, match=message):
            validate_nc_b(blocks, n, k)
    # the labels are counted before any is placed
    with pytest.raises(ValueError, match="do not partition the signed set"):
        validate_nc_b([(1, 3), (-1, -3)], 1, 1)
    with pytest.raises(ValueError, match="outside the signed ground set"):
        validate_nc_b([(1, 3), (-1, -3)], 2, 1)
    with pytest.raises(ValueError, match="do not partition the signed set"):
        validate_nc_b([(1, -1)], 10**15, 1)  # refused before any allocation
    assert validate_nc_b((), 0, 2) == ()
    # type_b refuses the first of its orbit sizes sorted in decreasing order
    with pytest.raises(ValueError, match="block size 3 is not divisible by 2"):
        type_b(((-1,), (-2, -3, -4), (1,), (2, 3, 4)), 2)
