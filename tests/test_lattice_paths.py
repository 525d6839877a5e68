import re
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from ncstrip.lattice_paths import (
    enumerate_fuss_binomial,
    enumerate_fuss_catalan,
    fb_type,
    fb_type_each,
    fc_reduced_type,
    fc_type,
    fc_types,
    fc_types_each,
    heights_word,
    is_fuss_catalan,
    monotone_heights,
    validate_fuss_binomial,
    validate_fuss_catalan,
)
from ncstrip.partitions import binomial, fuss_catalan, weight
from ncstrip.verification import PAIRS_A, PAIRS_B

from conftest import ascents_by_walk, list_variants, words_by_heights

TYPE_A_EXAMPLE_WORD = "ENEENNNNENNNEENNNN"  # the worked type A example, 6 E / 12 N


def test_enumerate_fuss_catalan_counts_and_order():
    assert list(enumerate_fuss_catalan(0, 1)) == [""]
    paths = list(enumerate_fuss_catalan(3, 1))
    assert len(paths) == 5
    assert paths == sorted(paths)  # lexicographic, E < N
    assert paths[0] == "EEENNN"
    # cross-check by filtering all words
    allwords = list(enumerate_fuss_binomial(3, 1))
    assert len(allwords) == binomial(6, 3)
    assert paths == [w for w in allwords if is_fuss_catalan(w, 3, 1)]


@pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2, 3) for n in range(7) if k * n <= 12])
def test_fuss_catalan_paths_valid(n, k):
    count = 0
    for w in enumerate_fuss_catalan(n, k):
        count += 1
        if n:
            assert w[0] == "E"
        x = y = 0
        for c in w:
            if c == "E":
                x += 1
            else:
                y += 1
            assert 0 <= y <= k * x
        assert weight(fc_type(w)) == n
        assert weight(fc_reduced_type(w)) <= max(n - 1, 0)
    assert count == fuss_catalan(n, k)


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (4, 3), (3, 2), (2, 4)])
def test_fuss_binomial_counts(n, k):
    paths = list(enumerate_fuss_binomial(n, k))
    assert len(paths) == binomial((k + 1) * n, n)
    assert paths == sorted(paths)
    assert len(set(paths)) == len(paths)


def test_fuss_binomial_small():
    assert list(enumerate_fuss_binomial(1, 1)) == ["EN", "NE"]
    assert len(list(enumerate_fuss_binomial(2, 1))) == 6
    assert sum(1 for _ in enumerate_fuss_binomial(4, 3)) == 1820


def test_path_statistics_match_the_ascent_walk_on_every_short_word():
    # every E/N word of length <= 12; the walk reads (height, length) pairs
    for length in range(13):
        for word in map("".join, product("EN", repeat=length)):
            runs = ascents_by_walk(word)
            zeta = tuple(sorted((ln for _, ln in runs), reverse=True))
            reduced = list(zeta)
            if runs:
                reduced.remove(runs[0][1])
            assert fc_types(word) == (zeta, tuple(reduced)), word
            assert fb_type(word) == tuple(sorted((ln for y, ln in runs if y > 0), reverse=True)), word
    for word, bad in [("EXN", "['X']"), ("NEe N", "[' ', 'e']"), ("x", "['x']")]:
        message = re.escape(f"path word must be over {{E, N}}, found {bad}")
        for statistic in (fc_types, fb_type):
            with pytest.raises(ValueError, match=message):
                statistic(word)


@pytest.mark.parametrize("statistic", [fc_type, fc_reduced_type, fb_type])
@pytest.mark.parametrize("word,bad", [("EXN", "['X']"), ("NEe N", "[' ', 'e']"), ("x", "['x']")])
def test_statistics_refuse_letters_other_than_e_and_n(statistic, word, bad):
    with pytest.raises(ValueError, match=re.escape(f"path word must be over {{E, N}}, found {bad}")):
        statistic(word)


@pytest.mark.parametrize(
    "lister,n,k",
    [(enumerate_fuss_catalan, n, k) for n, k in PAIRS_A]
    + [(enumerate_fuss_binomial, n, k) for n, k in PAIRS_B],
)
def test_whole_list_statistics_equal_the_one_word_values(lister, n, k):
    # each distinct sequence of ascents is finished once, whatever the
    # order of the words and however often a word comes
    variants = list_variants(list(lister(n, k)))
    # the one-word values, computed once per word
    one = {w: (fc_types(w), fb_type(w)) for w in variants[0]}
    for words in variants:
        assert list(fc_types_each(words)) == [one[w][0] for w in words]
        assert list(fb_type_each(words)) == [one[w][1] for w in words]
    # a one-pass iterator, as the strip checks hand over their images
    assert list(fc_types_each(iter(variants[0]))) == [one[w][0] for w in variants[0]]


@pytest.mark.parametrize("statistic", [fc_types_each, fb_type_each])
def test_whole_list_statistics_refuse_a_bad_last_word(statistic):
    words = list(enumerate_fuss_catalan(4, 1)) + ["ENEXN"]
    with pytest.raises(ValueError, match=re.escape("path word must be over {E, N}, found ['X']")):
        list(statistic(words))


def test_worked_example_word_is_enumerated():
    assert TYPE_A_EXAMPLE_WORD in set(enumerate_fuss_catalan(6, 2))


def test_types():
    assert fc_type("EEENNN") == (3,)
    assert fc_reduced_type("EEENNN") == ()
    assert fc_type(TYPE_A_EXAMPLE_WORD) == (2, 2, 1, 1)
    assert fc_reduced_type(TYPE_A_EXAMPLE_WORD) == (2, 2, 1)
    assert fc_type("ENEN") == (1, 1)
    assert fc_reduced_type("ENEN") == (1,)
    assert fb_type("EENN") == ()
    assert fb_type("NNEE") == (2,)
    assert fb_type("ENEN") == (1,)


def test_fb_type_weight_equality_iff_starts_north():
    for w in enumerate_fuss_binomial(3, 1):
        if w.startswith("N"):
            assert weight(fb_type(w)) == 3
        else:
            assert weight(fb_type(w)) < 3


def test_validators():
    validate_fuss_catalan(TYPE_A_EXAMPLE_WORD, 6, 2)
    with pytest.raises(ValueError):
        validate_fuss_catalan("NE", 1, 1)
    with pytest.raises(ValueError):
        validate_fuss_catalan("EENN", 2, 2)
    with pytest.raises(ValueError):
        validate_fuss_binomial("EXN", 1, 1)
    validate_fuss_binomial("NE", 1, 1)


@given(st.integers(1, 5), st.integers(1, 3), st.data())
def test_random_binomial_word_types(n, k, data):
    # build a random word with the right step counts
    steps = ["E"] * n + ["N"] * (k * n)
    word = "".join(data.draw(st.permutations(steps)))
    validate_fuss_binomial(word, n, k)
    t = fb_type(word)
    assert weight(t) <= n
    assert all(t[i] >= t[i + 1] for i in range(len(t) - 1))
    assert sum(fc_type(word)) == n


def test_monotone_heights_against_the_filtered_product():
    """Every pair of bound vectors of length <= 3 with entries in 0..3, empty
    ranges and length 0 included: the generator lists exactly the weakly
    increasing vectors of the product of the ranges, in product order."""
    for w in range(4):
        for lo, hi in product(product(range(4), repeat=w), repeat=2):
            expected = [
                y
                for y in product(*(range(l, h + 1) for l, h in zip(lo, hi)))
                if all(a <= b for a, b in zip(y, y[1:]))
            ]
            assert list(monotone_heights(lo, hi)) == expected, (lo, hi)


@pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2, 3) for n in range(5) if (k + 1) * n <= 8])
def test_heights_word_inverts_the_height_reading(n, k):
    m = (k + 1) * n
    words = sorted(
        "".join("E" if i in east else "N" for i in range(m))
        for east in combinations(range(m), n)
    )
    assert list(enumerate_fuss_binomial(n, k)) == words
    for word in words:
        heights = [word[:i].count("N") for i, step in enumerate(word) if step == "E"]
        assert heights_word(heights, 0, k * n) == word


@pytest.mark.parametrize(
    "n,k", [(n, k) for k in range(1, 15) for n in range(15) if (k + 1) * n <= 14]
)
def test_word_listers_equal_the_heights_oracle(n, k):
    # the suffix-list listers give the words of the height vectors, in order
    assert list(enumerate_fuss_catalan(n, k)) == words_by_heights(n, k, catalan=True)
    assert list(enumerate_fuss_binomial(n, k)) == words_by_heights(n, k, catalan=False)
