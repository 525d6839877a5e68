import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ncstrip.bijections import (
    _path_to_noncrossing,
    _link,
    _path_to_signed_noncrossing,
    _rectangle_strip_to_path,
    _staircase_path_to_strip,
    _staircase_strip_to_path,
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
    is_fuss_binomial,
    is_fuss_catalan,
)
from ncstrip.noncrossing_a import (
    enumerate_k_divisible,
    read_blocks,
    reduced_type_a,
    type_a,
    validate_nc_a,
)
from ncstrip.noncrossing_b import enumerate_nc_b, type_b, validate_nc_b
from ncstrip.partitions import fuss_catalan
from ncstrip.shapes import (
    RStrip,
    SkewShape,
    _path_heights,
    enumerate_r_strips,
    parse_strip,
    rectangle,
    stretched_staircase,
    strip_type,
)

from conftest import (
    counted,
    crossing_pair_scan,
    labeling_blocks_by_definition,
    psi_b_blocks_by_definition,
    skew_shapes_in_box,
)

TYPE_A_EXAMPLE_WORD = "ENEENNNNENNNEENNNN"
TYPE_A_EXAMPLE_BLOCKS = validate_nc_a(read_blocks("1,6/2,3,4,5/7,10,11,12/8,9"), 6, 2)
TYPE_B_EXAMPLE_WORD = "ENNNNNNENNENNNEN"
TYPE_B_EXAMPLE_BLOCKS = validate_nc_b(
    read_blocks("-1,-2,12/-3,-7,11/-4,-5,-6/-8,-9,-10,8,9,10/-11,3,7/-12,1,2/4,5,6"), 4, 3
)


# SHA-256 of repr([image of every word, in enumeration order]) per (n, k):
# psi-a for kn <= 9, psi-b for (k+1)n <= 12.  They pin every image, where
# the exhaustive tests below pin only the image set.
PSI_A_DIGESTS = {
    (1, 1): "f2cb19bf566e9bf781b8e71a38981c8a1bb826bcc238e08031749d5b9c42af51",
    (2, 1): "f1a0625ba846ebcc756275679a759da70500a4ce5bc90d625dae16acfd79b00f",
    (3, 1): "68f120637700a029b594c844161c4b139d7269a94979d5d4020df5a41f6072a1",
    (4, 1): "1ebdb120f12852ce449fdf7275328352fd412f1d3f078e65e627170eab96a569",
    (5, 1): "d8c9d3ae2216ffc0cd400d4e8ff920950cf3760b1aedf69c9d723f818005632c",
    (6, 1): "eff2920cf4e2f88fdd1da5cb79fab4bbd508e746f5445bdb75d4d38f334cfe5f",
    (7, 1): "f026ace5ba2db0a5853c927ad8e484cff5b18185a7a9056a0b3d810c879cbfa5",
    (8, 1): "edeacde37fe8a8b4e49a233f3ac6e4924e1982f30538794ab756797ac1cec134",
    (9, 1): "9b76734f489d8e9ed3524cb5fa9606d31e4a363a637e76f40d9cee91727ddb67",
    (1, 2): "aaefeb4ebe51a378427195edb61210d2f7bdd7aca923483997720a4a8a84a012",
    (2, 2): "134c6ece5263b52f56afe2a373ef1f0beb874ac5a2083e73255f94418548977a",
    (3, 2): "19ea634e69b946ba8aa0612bd0a55286e81adb840f922649b5ee1a8a5845a998",
    (4, 2): "937422183b3cf8d931d72ff7f8b2d64e0ffa346b0bb94ce6ca3d9b7724b9d724",
    (1, 3): "07239470572973374dac22dc184a604c1dae493947c3e4d80961108081db53f8",
    (2, 3): "e23089bff7545990d7f566ba64ff1d317b4c109e0f5e098267121a3265964f70",
    (3, 3): "d5f4119fbce0c7d699efb174210ef7251e1aded739c0d113b29e8c539a9f87f5",
    (1, 4): "decd6fb3e24f21b3e39f7eb41554862e52a940e651c25d8617c7eb4b294fab9c",
    (2, 4): "bcc3d97c7b7ab1c3a17c0f589db6158651eb6223ea4aaa9e2000efaa0f8da8e5",
    (1, 5): "dc9878e54d1d2f0c670ef4e5eac1920569f273eeacc2e03f692b91fdda793c47",
    (1, 6): "4f80473fe2c4f31fb702c793939d35e106f534a051969aa5a742cff7894bee4b",
    (1, 7): "863015eb8c2d3d20e34e0756875358e285a910c5447fda01fa104d432236d71e",
    (1, 8): "0a66336190414ee81b978a231a9cf3afe741217fba93afa4f4c5e90708a68877",
    (1, 9): "4d5d40f099637d649c09258932620b323725fa9ec3ae3aee9fcf03232b4328d3",
}
PSI_B_DIGESTS = {
    (1, 1): "ee397cdcc7ec095c474b41a4c51fc36fe90ad51ed4769aaf65f7eeef57ceeee8",
    (2, 1): "299d1c2e1440eaac76450c22dc063e7e4efe4102462e16f0efa2fa7c1e7679fe",
    (3, 1): "52aebc3dec5e8fc2e1a125ec5919053aa1379ed8b3b97408edcf299b983d4470",
    (4, 1): "a49bbf78d17532153b763190eacfcf0548dce4a3755ec14cf0b5329f5bfc02b7",
    (5, 1): "71d38a68e8ad1e6e9d4b69cfe4000b4412f7feefb8ee5f2881aa887a14dbdf63",
    (6, 1): "588d2c3671d666620de00cb77d164d38d0d8af744842eb28abb3427b780dba5b",
    (1, 2): "7e8fe37fc7e8faf828da17b697198c098010c9afe1270092e76913da3b628feb",
    (2, 2): "1ca17d050968e7dae640e764cf0e215fa035d5e1ab18539cf1f217ad91c4e2ce",
    (3, 2): "8f86983aa5c43cb38fc16c6d0dae84842bc7865bf15f7cda905ad4e43c8d9038",
    (4, 2): "ba89f909e64e7a4f7a6c761e1751f2e1c4ef92225af7c687fe70445c2a4a5968",
    (1, 3): "95e8fd5b427d075b4204fc92ea015d2ecd1b1e7bba571dbd28dc18f79ac87077",
    (2, 3): "49fc56eba4ef8375b85ce10a9c918782be1a618fb71725535827b8f709fcf3e8",
    (3, 3): "6c55684678ff765d74e3f82ed2c562d75c71e728fe5dee44f3c8117324f85172",
    (1, 4): "1c2e42016b718a9be794ff5b1b889e202cd73a4719409e7bf257e11b536bc7b9",
    (2, 4): "31d9d3f1a3ed33a28bcd0fc12483605ab9b451fb996ce7e3ccc5faae479fcdc3",
    (1, 5): "f14050cd2b4329f6eec5f3bd6eab03ee33eda762533bdc4f658fc8a17e2b9bdd",
    (2, 5): "9322dd0d7c8a8b5efc18243b9d49a6f141a4ea8b250d2290ac9b7307f5287135",
    (1, 6): "4f45567bb2d4163393fa657ef1b27e9e17030f11200d2e9834061d55b6279522",
    (1, 7): "602cb463742b7ee7b61332e4fc62b697bfdf836a522a3dc555322e3fcc173b84",
    (1, 8): "729ec26d85effc2cba0f1fd4e259047b410773fed5160057da2686a22590b098",
    (1, 9): "9525795c2e9e31fcbc19deed23087648109ecd2fbc68b972f82cd269d8d5cb5b",
    (1, 10): "66070a45e349a9d3ac6239d08b5f3ef58abef90d660fe7f79705512d410b952f",
    (1, 11): "6dfa6dfbfc943bd24333c0cb49b6b1ad45a56f1b637e7a650f45341eeda9661e",
}


def _digest(images) -> str:
    return hashlib.sha256(repr(images).encode()).hexdigest()


@pytest.mark.parametrize("n,k", list(PSI_A_DIGESTS))
def test_psi_a_images_are_pinned(n, k):
    words = list(enumerate_fuss_catalan(n, k))
    images = [path_to_noncrossing(w, n, k) for w in words]
    assert _digest(images) == PSI_A_DIGESTS[n, k]
    assert [noncrossing_to_path(b, n, k) for b in images] == words


@pytest.mark.parametrize("n,k", [(n, k) for k in range(1, 10) for n in range(1, 10) if k * n <= 9])
def test_psi_a_inverse_matches_the_papers_tree(n, k):
    # the inverse against the oracle's labeling tree, not the library's
    # forward map: every member of NC_n^(k) goes back to the path whose
    # tree labels it
    word_of = {labeling_blocks_by_definition(w, k): w for w in enumerate_fuss_catalan(n, k)}
    members = enumerate_k_divisible(n, k)
    assert len(word_of) == len(members)
    for blocks in members:
        assert noncrossing_to_path(blocks, n, k) == word_of[blocks]


@pytest.mark.parametrize("n,k", list(PSI_B_DIGESTS))
def test_psi_b_images_are_pinned(n, k):
    words = list(enumerate_fuss_binomial(n, k))
    images = [path_to_signed_noncrossing(w, n, k) for w in words]
    assert _digest(images) == PSI_B_DIGESTS[n, k]
    assert [signed_noncrossing_to_path(b, n, k) for b in images] == words


@pytest.mark.parametrize("n,k", list(PSI_B_DIGESTS))
def test_psi_b_matches_the_papers_pieces(n, k):
    # every image against the oracle that labels the pieces below and above
    # the diagonal one by one with the type-A labeling, as the paper does
    for word in enumerate_fuss_binomial(n, k):
        assert path_to_signed_noncrossing(word, n, k) == psi_b_blocks_by_definition(word, n, k)


@pytest.mark.parametrize(
    "psi,obj",
    [
        (path_to_noncrossing, "E"),
        (noncrossing_to_path, ()),
        (path_to_signed_noncrossing, "EE"),
        (signed_noncrossing_to_path, ()),
    ],
)
@pytest.mark.parametrize("n,k", [(1, 0), (2, -1), (-1, 1)])
def test_psi_maps_reject_bad_parameters(psi, obj, n, k):
    with pytest.raises(ValueError, match=r"need n >= 0 and k >= 1"):
        psi(obj, n, k)


@pytest.mark.parametrize(
    "units,message",
    [
        ("ne", "must start with an east segment"),
        ("enne", "no earlier segment in its region"),  # starts above y = x
    ],
)
def test_labeling_refuses_walks_off_the_fuss_catalan_region(units, message):
    # the link reads a unit word with one 'E' per segment
    m = units.count("e")
    with pytest.raises(ValueError, match=message):
        _link(units.upper(), 0, [-1] * m, [-1] * m, [])


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
            assert staircase_path_to_strip(word, n, k) == strip
            words.add(word)
        assert words == set(enumerate_fuss_catalan(n + 1, k))
        assert len(words) == fuss_catalan(n + 1, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            staircase_strip_to_path(parse_strip(rectangle(2, 1), "-,-"))
        with pytest.raises(ValueError):
            # leaves 0 <= y <= x
            staircase_path_to_strip("ENNEEN", 2, 1)
        with pytest.raises(ValueError, match="need 6 letters, got 8"):
            staircase_path_to_strip("EEEENNNN", 2, 1)  # a path of D_4^(1)


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
            assert rectangle_path_to_strip(word, n, k) == strip
            words.add(word)
        assert words == set(enumerate_fuss_binomial(n, k))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rectangle_strip_to_path(parse_strip(stretched_staircase(2, 1), "-,-"))
        with pytest.raises(ValueError, match="need 4 letters, got 6"):
            rectangle_path_to_strip("EEENNN", 2, 1)  # a path of B_3^(1)
        with pytest.raises(ValueError):
            rectangle_path_to_strip("EENNN", 2, 1)  # one N too many

    def test_type_census_equality_on_2_2(self):
        strips = [strip_type(s) for s in enumerate_r_strips(rectangle(2, 2))]
        paths = [fb_type(w) for w in enumerate_fuss_binomial(2, 2)]
        assert sorted(strips) == sorted(paths)


def _words_near(length):
    """Every E/N word of length length - 1, length or length + 1."""
    for m in (length - 1, length, length + 1):
        for letters in itertools.product("EN", repeat=m):
            yield "".join(letters)


def _accepts(path_to_strip, word, n, k):
    try:
        path_to_strip(word, n, k)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "n,k", [(n, k) for k in range(1, 6) for n in range(1, 6) if (k + 1) * (n + 1) <= 12]
)
def test_staircase_path_to_strip_accepts_exactly_the_fuss_catalan_words(n, k):
    # the map checks only the length and the first and last steps itself;
    # strip_from_path and the strip's height check must refuse every other
    # non-path
    wrong = [
        word
        for word in _words_near((k + 1) * (n + 1))
        if _accepts(staircase_path_to_strip, word, n, k) != is_fuss_catalan(word, n + 1, k)
    ]
    assert wrong == []


@pytest.mark.parametrize(
    "n,k", [(n, k) for k in range(1, 6) for n in range(1, 7) if (k + 1) * n <= 12]
)
def test_rectangle_path_to_strip_accepts_exactly_the_fuss_binomial_words(n, k):
    wrong = [
        word
        for word in _words_near((k + 1) * n)
        if _accepts(rectangle_path_to_strip, word, n, k) != is_fuss_binomial(word, n, k)
    ]
    assert wrong == []


@pytest.mark.parametrize(
    "family,build,to_path,to_strip",
    [
        ("stretched staircase", stretched_staircase, staircase_strip_to_path,
         staircase_path_to_strip),
        ("rectangle", rectangle, rectangle_strip_to_path, rectangle_path_to_strip),
    ],
    ids=["staircase", "rectangle"],
)
def test_strip_maps_refuse_exactly_the_shapes_outside_their_family(
    family, build, to_path, to_strip
):
    # the inverse maps build their family shape from (n, k)
    members = {build(n, k): (n, k) for n in range(1, 4) for k in range(1, 7) if k * n <= 6}
    refusal = f"strip does not live in a {family} shape"
    accepted = set()
    for shape in itertools.starmap(SkewShape, skew_shapes_in_box(6, 3)):
        cols = shape.cols
        contiguous = not cols or cols[-1] - cols[0] < len(cols)
        empty = RStrip(shape, shape.lo) if contiguous else None
        if shape in members:
            assert to_strip(to_path(empty), *members[shape]) == empty
            accepted.add(shape)
            continue
        if empty is not None:
            with pytest.raises(ValueError, match=refusal):
                to_path(empty)
    assert accepted == set(members)


def test_public_strip_maps_equal_their_cores():
    # the checks run only the cores, on height vectors
    n, k = 4, 2
    shape = stretched_staircase(n, k)
    for strip in enumerate_r_strips(shape):
        word = staircase_strip_to_path(strip)
        assert word == _staircase_strip_to_path(strip.heights, n, k)
        assert staircase_path_to_strip(word, n, k).heights == _staircase_path_to_strip(word, k)
    n, k = 3, 2
    shape = rectangle(n, k)
    for strip in enumerate_r_strips(shape):
        word = rectangle_strip_to_path(strip)
        assert word == _rectangle_strip_to_path(strip.heights, n, k)
        assert rectangle_path_to_strip(word, n, k).heights == _path_heights(word, 0)


@pytest.mark.parametrize(
    "to_strip,size",
    [
        (staircase_path_to_strip, (10**5 + 1) * (10**5 + 1)),
        (rectangle_path_to_strip, (10**5 + 1) * 10**5),
    ],
    ids=["staircase", "rectangle"],
)
def test_path_to_strip_counts_the_letters_before_building_the_shape(monkeypatch, to_strip, size):
    # the family shape at n = k = 10^5 has 10^10 rows
    built = [
        counted(monkeypatch, "stretched_staircase"),
        counted(monkeypatch, "rectangle"),
        counted(monkeypatch, "column_interval", SkewShape),
    ]
    with pytest.raises(ValueError, match=f"need {size} letters, got 1"):
        to_strip("E", 10**5, 10**5)
    assert built == [[], [], []]


def test_public_labeling_maps_equal_their_forward_cores():
    for word in enumerate_fuss_catalan(4, 2):
        assert path_to_noncrossing(word, 4, 2) == _path_to_noncrossing(word, 2)
    for word in enumerate_fuss_binomial(3, 2):
        assert path_to_signed_noncrossing(word, 3, 2) == _path_to_signed_noncrossing(word, 3, 2)


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

    @pytest.mark.parametrize(
        "n,k", [(n, k) for k in range(1, 12) for n in range(1, 7) if (k + 1) * n <= 12]
    )
    def test_blocks_lie_on_one_side_of_the_half_arc(self, n, k):
        # n0 segments lie above y = kx; the map gives out the polygon
        # positions n0+1..n0+kn, so every block but the antipodal one lies
        # wholly on that half-arc or wholly off it, and the arc holds one
        # block of each mirror pair and the antipodal block's positive half
        m = k * n
        for word in enumerate_fuss_binomial(n, k):
            n0 = x = y = 0
            for step in word:
                if step == "N":
                    y += 1
                else:  # k unit segments, the j-th above the line when y > x + j
                    n0 += sum(y > x + j for j in range(k))
                    x += k
            arc = range(n0 + 1, n0 + m + 1)
            on_arc = 0
            for b in path_to_signed_noncrossing(word, n, k):
                inside = [(v if v > 0 else m - v) in arc for v in b]
                if -b[0] in b:  # antipodal: its positives lie on the arc
                    assert inside == [v > 0 for v in b], (word, b)
                else:
                    assert all(inside) or not any(inside), (word, b)
                on_arc += sum(inside)
            assert on_arc == m, word

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
    assert blocks == labeling_blocks_by_definition(word, k)


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
    assert blocks == psi_b_blocks_by_definition(word, n, k)
