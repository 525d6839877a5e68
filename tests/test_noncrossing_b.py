import pytest

from ncstrip.noncrossing_b import (
    antipodal_block,
    canonical_blocks_b,
    count_by_type_b,
    enumerate_nc_b,
    format_blocks_b,
    is_noncrossing_b,
    parse_blocks_b,
    position,
    type_b,
    validate_nc_b,
)
from ncstrip.partitions import binomial, partitions_with_weight_at_most

from conftest import crossing_quadruple_scan, set_partitions

TYPE_B_EXAMPLE_PARTITION = parse_blocks_b(
    "-1,-2,12/-3,-7,11/-4,-5,-6/-8,-9,-10,8,9,10/-11,3,7/-12,1,2/4,5,6"
)

NC_2_1_HAND_CENSUS = [
    parse_blocks_b("1/-1/2/-2"),
    parse_blocks_b("1,-1/2/-2"),
    parse_blocks_b("2,-2/1/-1"),
    parse_blocks_b("1,2/-1,-2"),
    parse_blocks_b("1,-2/-1,2"),
    parse_blocks_b("1,2,-1,-2"),
]


def test_positions():
    assert position(3, 12) == 3
    assert position(-3, 12) == 15
    with pytest.raises(ValueError):
        position(0, 12)


def test_is_noncrossing_b_examples():
    assert is_noncrossing_b([(1,), (-1,), (2,), (-2,)], 2)
    assert is_noncrossing_b([(1, -2), (-1, 2)], 2)
    assert not is_noncrossing_b([(1, 2), (-1,), (-2,)], 2)  # not invariant
    assert not is_noncrossing_b([(1, 3), (-1, -3), (2, -2)], 3)  # crossing chords
    assert is_noncrossing_b(TYPE_B_EXAMPLE_PARTITION, 12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_is_noncrossing_b_matches_filter_oracle(m):
    ground = [x for x in range(1, m + 1)] + [-x for x in range(1, m + 1)]
    got = set()
    expect = set()
    for blocks in set_partitions(ground):
        canon = canonical_blocks_b(blocks, m)
        if is_noncrossing_b(canon, m):
            got.add(canon)
        pos_blocks = [[position(v, m) for v in b] for b in canon]
        sets = {frozenset(b) for b in canon}
        invariant = all(frozenset(-x for x in b) in sets for b in canon)
        if invariant and not crossing_quadruple_scan(pos_blocks):
            expect.add(canon)
    assert got == expect
    assert len(got) == binomial(2 * m, m)


def test_antipodal_block():
    assert antipodal_block(parse_blocks_b("1,-1/2/-2")) == (-1, 1)
    assert antipodal_block(parse_blocks_b("1/-1/2/-2")) is None
    assert antipodal_block(TYPE_B_EXAMPLE_PARTITION) == (-10, -9, -8, 8, 9, 10)


def test_enumerate_nc_b_hand_census():
    got = enumerate_nc_b(2, 1)
    assert len(got) == 6
    assert set(got) == set(NC_2_1_HAND_CENSUS)
    assert enumerate_nc_b(1, 1) == sorted(
        [parse_blocks_b("1/-1"), parse_blocks_b("1,-1")]
    )
    assert enumerate_nc_b(0, 1) == [()]


@pytest.mark.parametrize(
    "n,k",
    [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (4, 3), (1, 5)],
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
        canon = canonical_blocks_b(blocks, m)
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


def test_at_most_one_antipodal_block():
    for n, k in [(3, 1), (2, 2)]:
        for blocks in enumerate_nc_b(n, k):
            antipodal_block(blocks)  # raises on two


def test_type_b_examples():
    assert type_b(parse_blocks_b("1,2,-1,-2"), 1) == ()
    assert type_b(TYPE_B_EXAMPLE_PARTITION, 3) == (1, 1, 1)
    assert type_b(parse_blocks_b("1,2/-1,-2"), 1) == (2,)
    with pytest.raises(ValueError):
        type_b(parse_blocks_b("1,2/-1,-2"), 3)


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
    assert canonical_blocks_b([(10, 9, -8, -10, 8, -9)], 12)[0] == (
        -8,
        -9,
        -10,
        8,
        9,
        10,
    )
    assert canonical_blocks_b([(1, -11, 7, 3)], 12)[0] == (-11, 1, 3, 7)
    text = "-1,-2,12/-3,-7,11/-4,-5,-6/-8,-9,-10,8,9,10/-11,3,7/-12,1,2/4,5,6"
    assert format_blocks_b(TYPE_B_EXAMPLE_PARTITION, 12) == text


def _canonical_by_definition(blocks, m):
    """Blocks sorted by minimal element, each listed clockwise from it."""
    key = lambda v: (0, -v) if v < 0 else (1, v)
    pos = lambda v: v if v > 0 else m - v
    out = []
    for b in blocks:
        p0 = pos(min(b, key=key))
        out.append(tuple(sorted(b, key=lambda v: (pos(v) - p0) % (2 * m))))
    return tuple(sorted(out, key=lambda b: key(b[0])))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_validate_nc_b_matches_oracles(m):
    ground = [x for x in range(1, m + 1)] + [-x for x in range(1, m + 1)]
    for n, k in [(m // k, k) for k in range(1, m + 1) if m % k == 0]:
        accepted = 0
        for blocks in set_partitions(ground):
            canon = _canonical_by_definition(blocks, m)
            assert canonical_blocks_b(reversed(blocks), m) == canon
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
        # a crossing that is also not invariant reports the invariance first
        ([(1, 3), (2, -1), (-2,), (-3,)], 3, 1, "not invariant under negation"),
    ]
    for blocks, n, k, message in cases:
        with pytest.raises(ValueError, match=message):
            validate_nc_b(blocks, n, k)
    with pytest.raises(ValueError, match="outside the signed ground set"):
        validate_nc_b([(1, 3), (-1, -3)], 1, 1)
    assert validate_nc_b((), 0, 2) == ()
