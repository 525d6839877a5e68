import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from ncstrip import partitions
from ncstrip.partitions import (
    as_partition,
    binomial,
    catalan,
    exact_div,
    exact_quotients,
    factorial,
    format_partition,
    fuss_catalan,
    multiplicity_product,
    parse_partition,
    partition_rows,
    partition_sort_key,
    partitions_of,
    partitions_with_weight_at_most,
    weight,
)

from conftest import pascal_binomial


def test_weight():
    assert weight(()) == 0
    assert weight((2, 1, 1)) == 4
    assert weight((2, 2, 1)) == 5


def test_as_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, 0))


@pytest.mark.parametrize(
    "parts,message",
    [
        ((2, 0), "partition parts must be positive, got 0"),
        ((3, -1, 1), "partition parts must be positive, got -1"),
        ((0, 1), "partition parts must be positive, got 0"),
        ((2, 1, 3), "parts must be weakly decreasing, got (2, 1, 3)"),
        ((1, 2, 0), "parts must be weakly decreasing, got (1, 2, 0)"),  # first failure wins
        (("1", "2"), "parts must be weakly decreasing, got (1, 2)"),
    ],
)
def test_as_partition_words_the_first_failing_check(parts, message):
    with pytest.raises(ValueError) as e:
        as_partition(parts)
    assert str(e.value) == message


def test_as_partition_coerces_through_int():
    assert as_partition(["3", "1", "1"]) == (3, 1, 1)
    assert as_partition(iter([2.0, True])) == (2, 1)
    assert as_partition([]) == ()
    with pytest.raises(ValueError):
        as_partition(["x"])


def test_multiplicity_product_examples():
    assert multiplicity_product(()) == 1
    assert multiplicity_product((1, 1)) == 2
    assert multiplicity_product((2, 2, 1, 1)) == 4


def test_multiplicity_product_brute_force():
    # every partition of weight <= 8
    for m in range(9):
        for p in partitions_of(m):
            expect = 1
            for mult in Counter(p).values():
                expect *= math.factorial(mult)
            assert multiplicity_product(p) == expect


partition_counts = [  # p(0)..p(20)
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    56, 77, 101, 135, 176, 231, 297, 385, 490, 627,
]


def test_partitions_with_weight_at_most_examples():
    assert partitions_with_weight_at_most(0) == [()]
    assert partitions_with_weight_at_most(2) == [(), (1,), (2,), (1, 1)]
    assert len(partitions_with_weight_at_most(3)) == 7


@pytest.mark.parametrize("n", range(21))
def test_partition_stream_against_filter_oracle(n):
    got = partitions_with_weight_at_most(n)
    assert len(got) == sum(partition_counts[: n + 1])
    assert len(set(got)) == len(got)
    # generate-and-filter: weakly decreasing positive tuples of weight <= n
    def brute(total, max_part):
        yield ()
        for first in range(1, min(total, max_part) + 1):
            for rest in brute(total - first, first):
                yield (first,) + rest

    expect = {p for p in brute(n, n)}
    assert set(got) == expect
    assert got == sorted(got, key=partition_sort_key)


@pytest.mark.parametrize("m", range(26))
def test_partitions_of_is_strictly_reverse_lexicographic(m):
    # `count` tables print the rows in this order without sorting them
    got = list(partitions_of(m))
    assert got[0] == ((m,) if m else ())
    assert got[-1] == (1,) * m
    for p in got:
        assert sum(p) == m and as_partition(p) == p
    assert all(p > q for p, q in zip(got, got[1:]))


def test_factorial_binomial():
    assert factorial(0) == 1
    assert binomial(4, 2) == 6
    assert binomial(24, 6) == 134596
    with pytest.raises(ValueError):
        binomial(3, 5)
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        factorial(-2)


@pytest.mark.parametrize("n", range(0, 25, 4))
def test_binomial_against_pascal(n):
    for k in range(n + 1):
        assert binomial(n, k) == pascal_binomial(n, k)


def test_catalan_and_fuss():
    assert catalan(3) == 5
    assert fuss_catalan(2, 2) == 3
    assert fuss_catalan(0, 3) == 1
    for n in range(13):
        assert catalan(n) == fuss_catalan(n, 1)
    for n in range(13):
        for k in range(1, 5):
            fuss_catalan(n, k)  # exact divisibility must hold


def test_partition_counts_match_the_listing():
    counts = partitions.partition_counts()
    for m in range(25):
        assert next(counts) == sum(1 for _ in partitions_of(m))
    assert next(counts) == 1958  # p(25)


def test_exact_div_refuses_truncation():
    with pytest.raises(ArithmeticError):
        exact_div(7, 2)


def test_exact_quotients_refuse_a_table_with_a_remainder():
    assert exact_quotients([8, 9, 0], [4, 3, 5]) == [2, 3, 0]
    assert exact_quotients([], []) == []
    # an error, not an assert, so python -O keeps the check
    with pytest.raises(ArithmeticError):
        exact_quotients([8, 7], [4, 2])


def reverse_lex(m, max_part=None):
    """Every partition of m with parts <= max_part, largest first."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, max_part or m), 0, -1):
        for rest in reverse_lex(m - first, first):
            yield (first,) + rest


def factorial_product(p):
    out = 1
    for mult in Counter(p).values():
        out *= math.factorial(mult)
    return out


@pytest.mark.parametrize("w", range(25))
def test_partition_rows_carry_their_multiplicity_products(w):
    single = list(reverse_lex(w))
    cumulative = [p for m in range(w + 1) for p in reverse_lex(m)]
    for rows, expect in ((partition_rows(w), single), (partition_rows(w, True), cumulative)):
        assert rows[0] == expect
        assert rows[1] == list(map(factorial_product, expect))
    assert partitions_of(w) == single
    assert partitions_with_weight_at_most(w) == cumulative


def test_partition_rows_refuse_a_negative_weight():
    with pytest.raises(ValueError):
        partition_rows(-1)


def test_partition_literals():
    assert format_partition((2, 1)) == "2,1"
    assert format_partition(()) == "-"
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("-") == ()
    assert parse_partition("") == ()


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=8))
def test_sorted_lists_make_partitions(parts):
    p = as_partition(sorted(parts, reverse=True))
    assert weight(p) == sum(parts)
    assert multiplicity_product(p) >= 1
