import pytest
from hypothesis import given, settings, strategies as st

from ncstrip.bijections import (
    build_labeling_tree,
    noncrossing_to_path,
    path_to_noncrossing,
    path_to_signed_noncrossing,
    rectangle_path_to_strip,
    rectangle_strip_to_path,
    signed_noncrossing_to_path,
    staircase_path_to_strip,
    staircase_strip_to_path,
)
from ncstrip.lattice_paths import (
    enumerate_fuss_binomial,
    enumerate_fuss_catalan,
    fb_type,
    fc_reduced_type,
    fc_type,
)
from ncstrip.noncrossing_a import (
    enumerate_k_divisible,
    parse_blocks,
    reduced_type_a,
    type_a,
)
from ncstrip.noncrossing_b import enumerate_nc_b, parse_blocks_b, type_b
from ncstrip.partitions import fuss_catalan
from ncstrip.shapes import (
    enumerate_r_strips,
    parse_strip,
    rectangle,
    stretched_staircase,
    strip_type,
)

from conftest import crossing_pair_scan

TYPE_A_EXAMPLE_WORD = "ENEENNNNENNNEENNNN"
TYPE_A_EXAMPLE_BLOCKS = parse_blocks("1,6/2,3,4,5/7,10,11,12/8,9")
TYPE_B_EXAMPLE_WORD = "ENNNNNNENNENNNEN"
TYPE_B_EXAMPLE_BLOCKS = parse_blocks_b(
    "-1,-2,12/-3,-7,11/-4,-5,-6/-8,-9,-10,8,9,10/-11,3,7/-12,1,2/4,5,6"
)


class TestLabelingTree:
    def test_single_ascent(self):
        tree = build_labeling_tree("ENN", 1, 2)
        assert tree.segments == ((0, 0), (0, 1))
        assert tree.labels == (1, 2)
        assert tree.parent == (None, 0)

    def test_full_ascent_is_a_chain(self):
        tree = build_labeling_tree("EEENNN", 3, 1)
        assert tree.labels == (1, 2, 3)
        assert tree.parent == (None, 0, 1)

    def test_worked_example_ascent_label_sets(self):
        tree = build_labeling_tree(TYPE_A_EXAMPLE_WORD, 6, 2)
        assert tree.ascent_labels == (
            (1, 6),
            (7, 10, 11, 12),
            (8, 9),
            (2, 3, 4, 5),
        )
        assert sorted(tree.labels) == list(range(1, 13))
        assert tree.labels[0] == 1


class TestLabelingMapA:
    def test_worked_example_forward(self):
        blocks = path_to_noncrossing(TYPE_A_EXAMPLE_WORD, 6, 2)
        assert blocks == TYPE_A_EXAMPLE_BLOCKS
        assert type_a(blocks, 2) == fc_type(TYPE_A_EXAMPLE_WORD) == (2, 2, 1, 1)
        assert reduced_type_a(blocks, 2) == fc_reduced_type(TYPE_A_EXAMPLE_WORD) == (2, 2, 1)

    def test_worked_example_inverse(self):
        assert noncrossing_to_path(TYPE_A_EXAMPLE_BLOCKS, 6, 2) == TYPE_A_EXAMPLE_WORD

    def test_trivial_cases(self):
        assert path_to_noncrossing("EEENNN", 3, 1) == ((1, 2, 3),)
        assert noncrossing_to_path([(1, 2, 3)], 3, 1) == "EEENNN"
        # single-east-step ascents attach to the previous ascent's first
        # segment, so the blocks nest (preorder takes the attached subtree
        # first, as the worked example forces)
        assert path_to_noncrossing("ENNENN", 2, 2) == ((1, 4), (2, 3))
        assert noncrossing_to_path([(1, 2), (3, 4)], 2, 2) == "ENENNN"
        word = "EN" * 4
        assert path_to_noncrossing(word, 4, 1) == ((1,), (2,), (3,), (4,))

    def test_rejects_crossing_input(self):
        with pytest.raises(ValueError):
            noncrossing_to_path([(1, 3), (2, 4)], 4, 1)
        with pytest.raises(ValueError):
            noncrossing_to_path([(1, 2), (4,)], 3, 1)  # not a partition of [3]
        with pytest.raises(ValueError):
            noncrossing_to_path([(1, 2, 3), (4,)], 2, 2)  # sizes not divisible

    @pytest.mark.parametrize(
        "n,k", [(n, k) for k in (1, 2, 3) for n in range(1, 11) if k * n <= 10]
    )
    def test_exhaustive_two_sided_bijection(self, n, k):
        images = {}
        for word in enumerate_fuss_catalan(n, k):
            blocks = path_to_noncrossing(word, n, k)
            assert blocks not in images
            images[blocks] = word
            assert type_a(blocks, k) == fc_type(word)
            assert reduced_type_a(blocks, k) == fc_reduced_type(word)
            assert noncrossing_to_path(blocks, n, k) == word
        assert set(images) == set(enumerate_k_divisible(n, k))

    def test_constructive_inverse_equals_lookup_inverse(self):
        for n, k in [(5, 1), (3, 2), (2, 3)]:
            lookup = {
                path_to_noncrossing(w, n, k): w
                for w in enumerate_fuss_catalan(n, k)
            }
            for blocks, word in lookup.items():
                assert noncrossing_to_path(blocks, n, k) == word


class TestStaircaseStrips:
    def test_empty_strip_maps_to_bottom_path(self):
        strip = parse_strip(stretched_staircase(2, 1), "-,-")
        assert staircase_strip_to_path(strip) == "EEENNN"

    def test_single_column_case(self):
        shape = stretched_staircase(1, 2)
        strips = enumerate_r_strips(shape)
        assert len(strips) == 3  # = |D_2^(2)|
        reduced = sorted(
            fc_reduced_type(staircase_strip_to_path(s)) for s in strips
        )
        assert reduced == [(), (1,), (1,)]

    @pytest.mark.parametrize(
        "n,k", [(n, k) for k in (1, 2, 3) for n in range(1, 11) if k * (n + 1) <= 10]
    )
    def test_exhaustive(self, n, k):
        words = set()
        shape = stretched_staircase(n, k)
        for strip in enumerate_r_strips(shape):
            word = staircase_strip_to_path(strip)
            assert fc_reduced_type(word) == strip_type(strip)
            assert staircase_path_to_strip(word, shape) == strip
            words.add(word)
        assert words == set(enumerate_fuss_catalan(n + 1, k))
        assert len(words) == fuss_catalan(n + 1, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            staircase_strip_to_path(parse_strip(rectangle(2, 1), "-,-"))
        with pytest.raises(ValueError):
            # leaves 0 <= y <= x
            staircase_path_to_strip("ENNEEN", stretched_staircase(2, 1))
        with pytest.raises(ValueError):
            staircase_path_to_strip("EEENNN", rectangle(2, 1))  # wrong family


class TestRectangleStrips:
    def test_type_contracts(self):
        shape = rectangle(3, 1)
        empty = parse_strip(shape, "-,-,-")
        assert fb_type(rectangle_strip_to_path(empty)) == ()
        bottom = parse_strip(shape, "0,0,0")
        word = rectangle_strip_to_path(bottom)
        assert fb_type(word) == (3,)
        assert word == "NEEENN"

    @pytest.mark.parametrize(
        "n,k", [(n, k) for k in (1, 2, 3) for n in range(1, 8) if (k + 1) * n <= 12]
    )
    def test_exhaustive(self, n, k):
        words = set()
        shape = rectangle(n, k)
        for strip in enumerate_r_strips(shape):
            word = rectangle_strip_to_path(strip)
            assert fb_type(word) == strip_type(strip)
            assert rectangle_path_to_strip(word, shape) == strip
            words.add(word)
        assert words == set(enumerate_fuss_binomial(n, k))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rectangle_strip_to_path(parse_strip(stretched_staircase(2, 1), "-,-"))
        with pytest.raises(ValueError):
            rectangle_path_to_strip("EENN", stretched_staircase(2, 1))  # wrong family
        with pytest.raises(ValueError):
            rectangle_path_to_strip("EENNN", rectangle(2, 1))  # one N too many

    def test_type_census_equality_on_2_2(self):
        strips = [strip_type(s) for s in enumerate_r_strips(rectangle(2, 2))]
        paths = [fb_type(w) for w in enumerate_fuss_binomial(2, 2)]
        assert sorted(strips) == sorted(paths)


class TestLabelingMapB:
    def test_worked_example_forward(self):
        blocks = path_to_signed_noncrossing(TYPE_B_EXAMPLE_WORD, 4, 3)
        assert blocks == TYPE_B_EXAMPLE_BLOCKS
        assert type_b(blocks, 3) == fb_type(TYPE_B_EXAMPLE_WORD) == (1, 1, 1)

    def test_worked_example_inverse(self):
        assert signed_noncrossing_to_path(TYPE_B_EXAMPLE_BLOCKS, 4, 3) == TYPE_B_EXAMPLE_WORD

    def test_trivial_cases(self):
        full = (-1, -2, -3, -4, 1, 2, 3, 4)
        assert path_to_signed_noncrossing("EENNNN", 2, 2) == (full,)
        assert signed_noncrossing_to_path([full], 2, 2) == "EENNNN"
        blocks = path_to_signed_noncrossing("NNNNEE", 2, 2)
        assert blocks == ((-1, -2, -3, -4), (1, 2, 3, 4))
        assert type_b(blocks, 2) == (2,)
        assert signed_noncrossing_to_path(blocks, 2, 2) == "NNNNEE"

    def test_hand_census_round_trip(self):
        seen = set()
        for word in enumerate_fuss_binomial(2, 1):
            blocks = path_to_signed_noncrossing(word, 2, 1)
            seen.add(blocks)
            assert signed_noncrossing_to_path(blocks, 2, 1) == word
        assert seen == set(enumerate_nc_b(2, 1))

    @pytest.mark.parametrize(
        "n,k", [(n, k) for k in (1, 2, 3, 4) for n in range(1, 7) if (k + 1) * n <= 12]
    )
    def test_exhaustive_two_sided_bijection(self, n, k):
        images = {}
        for word in enumerate_fuss_binomial(n, k):
            blocks = path_to_signed_noncrossing(word, n, k)
            assert blocks not in images
            images[blocks] = word
            assert type_b(blocks, k) == fb_type(word)
            assert signed_noncrossing_to_path(blocks, n, k) == word
        assert set(images) == set(enumerate_nc_b(n, k))

    def test_constructive_inverse_equals_lookup_inverse(self):
        for n, k in [(3, 1), (2, 2), (1, 3)]:
            lookup = {
                path_to_signed_noncrossing(w, n, k): w
                for w in enumerate_fuss_binomial(n, k)
            }
            for blocks, word in lookup.items():
                assert signed_noncrossing_to_path(blocks, n, k) == word

    def test_rejects_invalid_partitions(self):
        with pytest.raises(ValueError):
            signed_noncrossing_to_path([(1, 2), (-1,), (-2,)], 2, 1)
        with pytest.raises(ValueError):
            signed_noncrossing_to_path([(1, 3), (-1, -3), (2, -2)], 3, 1)


@st.composite
def fuss_catalan_words(draw):
    """(word, n, k) with the word uniform in D_n^(k), by the cycle lemma.

    A word with n E's (+k) and kn+1 N's (-1) sums to -1; its one rotation
    whose proper prefix sums stay >= 0 starts just after the first minimal
    prefix sum, and dropping its final N leaves a Fuss-Catalan path.
    """
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 3))
    letters = draw(st.permutations("E" * n + "N" * (k * n + 1)))
    s, low, cut = 0, 1, 0
    for i, c in enumerate(letters, start=1):
        s += k if c == "E" else -1
        if s < low:
            low, cut = s, i
    return "".join(letters[cut:] + letters[:cut])[:-1], n, k


@st.composite
def binomial_words(draw):
    """(word, n, k) with the word uniform in B_n^(k)."""
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 3))
    return "".join(draw(st.permutations("E" * n + "N" * (k * n)))), n, k


LARGE_OBJECTS = settings(max_examples=40, derandomize=True, deadline=None)


@LARGE_OBJECTS
@given(fuss_catalan_words())
def test_psi_a_on_large_paths(case):
    word, n, k = case
    blocks = path_to_noncrossing(word, n, k)
    assert blocks == tuple(sorted(tuple(sorted(b)) for b in blocks))  # canonical
    assert sorted(x for b in blocks for x in b) == list(range(1, k * n + 1))
    assert not crossing_pair_scan(blocks)
    assert all(len(b) % k == 0 for b in blocks)
    assert type_a(blocks, k) == fc_type(word)
    assert reduced_type_a(blocks, k) == fc_reduced_type(word)
    assert noncrossing_to_path(blocks, n, k) == word


@LARGE_OBJECTS
@given(binomial_words())
def test_psi_b_on_large_paths(case):
    word, n, k = case
    m = k * n
    blocks = path_to_signed_noncrossing(word, n, k)
    ground = sorted(x for b in blocks for x in b)
    assert ground == list(range(-m, 0)) + list(range(1, m + 1))
    sets = {frozenset(b) for b in blocks}
    assert all(frozenset(-x for x in b) in sets for b in sets)
    assert not crossing_pair_scan([[v if v > 0 else m - v for v in b] for b in blocks])
    assert all(len(b) % k == 0 for b in blocks)
    assert type_b(blocks, k) == fb_type(word)
    assert signed_noncrossing_to_path(blocks, n, k) == word
