from itertools import chain, islice
from operator import ne

import pytest

from ncstrip import (
    bijections,
    lattice_paths,
    noncrossing_a,
    noncrossing_b,
    parking,
    shapes,
    verification,
)
from ncstrip.lattice_paths import enumerate_fuss_catalan
from ncstrip.partitions import binomial, catalan, fuss_catalan
from ncstrip.shapes import SkewShape
from ncstrip.verification import (
    MISMATCH_SAMPLE,
    THEOREMS,
    CheckResult,
    counting_check_a,
    labeling_bijection_check_a,
    labeling_bijection_check_b,
    strip_bijection_check_a,
    strip_bijection_check_b,
    theorem_11_check,
    theorem_12_check,
    theorem_21_check,
    verify_limits,
    verify_theorem,
)

from conftest import counted


def test_failures_keep_a_bounded_sample_and_count_all():
    result = CheckResult("check", {})
    for i in range(25):
        result.fail(f"mismatch {i}")
    assert not result.passed
    assert MISMATCH_SAMPLE == 20
    assert result.mismatches == [f"mismatch {i}" for i in range(20)]
    assert result.mismatch_count == 25


@pytest.mark.parametrize(
    "check,n,k,width",
    [(strip_bijection_check_a, 4, 2, 4), (strip_bijection_check_b, 3, 2, 3)],
)
def test_strip_checks_build_one_shape(monkeypatch, check, n, k, width):
    # a shape computes its profile with one column_interval call per column,
    # so a check that builds its shape once makes exactly `width` calls
    calls = counted(monkeypatch, "column_interval", SkewShape)
    assert check(n, k).passed
    assert len(calls) == width


# Ways to break one name that a check looks up in `ncstrip.verification`.


def first_call_wrong(f):
    """f, except that its first call returns a partition no check expects."""
    calls = []

    def broken(*args):
        calls.append(args)
        return (99,) if len(calls) == 1 else f(*args)

    return broken


def calls_replaced(replace, broken_calls):
    """A breaker: f, except that its i-th call (from 0), for each i in
    broken_calls, returns replace(f(...))."""

    def breaker(f):
        calls = []

        def broken(*args):
            calls.append(args)
            out = f(*args)
            return replace(out) if len(calls) - 1 in broken_calls else out

        return broken

    return breaker


def first_call_replaced(replace):
    """A breaker: f, except that its first call returns replace(f(...))."""
    return calls_replaced(replace, {0})


def values_replaced(replace, positions):
    """A breaker for a whole-list statistic: f, except that the values at
    the given positions (from 0) of each stream it returns are
    replace(value)."""

    def breaker(f):
        def broken(*args):
            return (replace(v) if i in positions else v for i, v in enumerate(f(*args)))

        return broken

    return breaker


def first_value_replaced(replace):
    """A breaker for a whole-list statistic: f, except that the first value
    of the first stream it returns is replace(value)."""

    def breaker(f):
        calls = []

        def broken(*args):
            calls.append(args)
            values = iter(f(*args))
            return chain(map(replace, islice(values, 1)), values) if len(calls) == 1 else values

        return broken

    return breaker


def wrong_at(i):
    """Entry i of a tuple of partitions replaced by one no check expects."""
    return lambda out: out[:i] + ((99,),) + out[i + 1 :]


first_value_wrong = first_value_replaced(lambda value: (99,))


def census_moved(replace):
    """A breaker for a census: f, except that one object of the first key of
    each Counter it returns is counted at replace(key) instead."""

    def breaker(f):
        def broken(*args):
            census = f(*args)
            key = next(iter(census))
            census[key] -= 1
            census[replace(key)] += 1
            return census

        return broken

    return breaker


def drop_first(f):
    """The enumerator f without its first member."""
    return lambda *args: list(f(*args))[1:]


def repeat_first(f):
    """The enumerator f with its first member listed twice."""

    def repeated(*args):
        members = list(f(*args))
        return members[:1] + members

    return repeated


def repeat_last(f):
    """The enumerator f with its last member listed twice."""

    def repeated(*args):
        members = list(f(*args))
        return members + members[-1:]

    return repeated


def extra_term(f):
    """The expansion f with one term it does not have."""
    return lambda *args: {**f(*args), (99,): 1}


def doubled(f):
    """The expansion f with every coefficient doubled, which survives
    top_homogeneous_part where a term of weight 99 would not."""
    return lambda *args: {lam: 2 * c for lam, c in f(*args).items()}


# a count table whose first row counts one object too many
first_row_plus_one = first_call_replaced(lambda out: [out[0] + 1, *out[1:]])
# the partition into singletons of the same points
singletons = first_call_replaced(lambda blocks: tuple((x,) for b in blocks for x in b))


@pytest.mark.parametrize(
    "check,args,name,breaker,tag",
    [
        (theorem_11_check, (3, 1), "expand_skew", extra_term, "enumeration vs formula"),
        (theorem_11_check, (3, 1), "types_a_census", census_moved(wrong_at(1)), "formula vs census"),
        (theorem_11_check, (3, 1), "enumerate_k_divisible", drop_first, "formula vs census"),
        (theorem_12_check, (2, 2), "expand_skew", extra_term, "enumeration vs formula"),
        (theorem_12_check, (2, 2), "type_b_census", census_moved(lambda key: (99,)), "formula vs census"),
        (theorem_12_check, (2, 2), "enumerate_nc_b", drop_first, "formula vs census"),
        (labeling_bijection_check_a, (3, 2), "_noncrossing_to_path", first_call_wrong, "inverse fails"),
        (labeling_bijection_check_a, (3, 2), "fc_types_each", first_value_replaced(wrong_at(0)), "type not preserved"),
        (labeling_bijection_check_a, (3, 2), "types_a_each", first_value_replaced(wrong_at(1)), "reduced type not preserved"),
        (labeling_bijection_check_a, (3, 2), "enumerate_k_divisible", drop_first, "image has"),
        (labeling_bijection_check_b, (2, 2), "_signed_noncrossing_to_path", first_call_wrong, "inverse fails"),
        (labeling_bijection_check_b, (2, 2), "type_b_each", first_value_wrong, "type not preserved"),
        (labeling_bijection_check_b, (2, 2), "enumerate_nc_b", drop_first, "image has"),
        (strip_bijection_check_a, (3, 2), "_staircase_path_to_strip", first_call_wrong, "inverse fails"),
        (strip_bijection_check_a, (3, 2), "fc_types_each", first_value_replaced(wrong_at(1)), "reduced type not preserved"),
        (strip_bijection_check_a, (3, 2), "types_a_each", first_value_replaced(wrong_at(1)), "composite reduced type not preserved"),
        (strip_bijection_check_a, (3, 2), "enumerate_fuss_catalan", drop_first, "image has"),
        (strip_bijection_check_b, (2, 2), "_path_heights", first_call_wrong, "inverse fails"),
        (strip_bijection_check_b, (2, 2), "fb_type_each", first_value_wrong, "type not preserved"),
        (strip_bijection_check_b, (2, 2), "type_b_each", first_value_wrong, "composite type not preserved"),
        (strip_bijection_check_b, (2, 2), "iter_strip_heights", drop_first, "image has"),
        (theorem_21_check, (3,), "parking_expansion", extra_term, "enumeration vs formula"),
        (theorem_21_check, (3,), "primitive_type_census", census_moved(lambda key: (99,)), "formula vs census"),
        (theorem_21_check, (3,), "enumerate_primitive", drop_first, "formula vs census"),
        (theorem_21_check, (3,), "expand_skew", doubled, "enumeration vs formula"),
        (theorem_21_check, (3,), "_primitive_pf_to_ncp", singletons, "noncrossing census"),
        (counting_check_a, (3, 2), "types_a_census", census_moved(wrong_at(0)), "type formula vs census"),
        (counting_check_a, (3, 2), "types_a_census", census_moved(wrong_at(1)), "reduced type formula vs census"),
        (counting_check_a, (3, 2), "enumerate_k_divisible", drop_first, "type formula vs census"),
        (counting_check_a, (3, 2), "type_counts", first_row_plus_one, "type counts sum"),
        (counting_check_a, (3, 2), "reduced_type_counts", first_row_plus_one, "double counting fails"),
        (theorem_21_check, (3,), "enumerate_parking_functions", drop_first, "parking function count"),
        (labeling_bijection_check_a, (3, 2), "enumerate_k_divisible", repeat_first, "is listed 2 times"),
        (strip_bijection_check_b, (2, 2), "enumerate_fuss_binomial", repeat_last, "is listed 2 times"),
    ],
)
def test_checks_fail_when_one_piece_is_broken(monkeypatch, check, args, name, breaker, tag):
    # no check passes vacuously: each one notices a single wrong value
    assert check(*args).passed
    monkeypatch.setattr(verification, name, breaker(getattr(verification, name)))
    result = check(*args)
    assert not result.passed
    assert result.mismatch_count >= 1
    assert any(tag in m for m in result.mismatches), result.mismatches


# each bijection check's names in `ncstrip.verification`: its forward core,
# its inverse core, what reads the sources for its source statistic and
# what reads the images for its image statistic
ROUND_TRIP_NAMES = {
    labeling_bijection_check_a: (
        "_path_to_noncrossing", "_noncrossing_to_path", ("fc_types_each",), ("types_a_each",)
    ),
    labeling_bijection_check_b: (
        "_path_to_signed_noncrossing", "_signed_noncrossing_to_path", ("fb_type_each",), ("type_b_each",)
    ),
    strip_bijection_check_a: (
        "_staircase_strip_to_path", "_staircase_path_to_strip", ("run_type",),
        ("fc_types_each", "_path_to_noncrossing", "types_a_each"),
    ),
    strip_bijection_check_b: (
        "_rectangle_strip_to_path", "_path_heights", ("run_type",),
        ("fb_type_each", "_path_to_signed_noncrossing", "type_b_each"),
    ),
}
# the whole-list statistics, which take a list of objects and return one
# value per object
WHOLE_LIST = {"fc_types_each", "fb_type_each", "types_a_each", "type_b_each"}
# the finishers behind them, each run once per distinct signature
FINISHERS = [
    (lattice_paths, "_fc_types_of"),
    (noncrossing_a, "_types_a_of"),
    (noncrossing_b, "_type_b_of"),
]


def read(monkeypatch, name):
    """The objects that `name` in `ncstrip.verification` reads from here
    on: each call's first argument, or, for a whole-list statistic, each
    object of its first argument as the statistic reads it."""
    f = getattr(verification, name)
    objects = []

    def record(x):
        objects.append(x)
        return x

    if name in WHOLE_LIST:
        monkeypatch.setattr(verification, name, lambda xs, *rest: f(map(record, xs), *rest))
    else:
        monkeypatch.setattr(verification, name, lambda x, *rest: f(record(x), *rest))
    return objects


@pytest.mark.parametrize(
    "check,args,name,replace",
    [
        # a crossing partition of [6] with blocks of size 2
        (labeling_bijection_check_a, (3, 2), "_path_to_noncrossing", lambda y: ((1, 3), (2, 4), (5, 6))),
        # the same signed partition with its blocks and their elements in reverse
        (labeling_bijection_check_b, (2, 2), "_path_to_signed_noncrossing",
         lambda y: tuple(b[::-1] for b in y[::-1])),
        # words with one north step too many or one east step too many
        (strip_bijection_check_a, (3, 2), "_staircase_strip_to_path", lambda w: w + "N"),
        (strip_bijection_check_b, (2, 2), "_rectangle_strip_to_path", lambda w: w + "E"),
    ],
)
def test_an_image_outside_the_targets_is_a_failure(monkeypatch, check, args, name, replace):
    # the inverse runs unchecked on targets only: any other image is
    # reported, and neither the inverse nor a statistic sees it
    _, inverse, _, image_stats = ROUND_TRIP_NAMES[check]
    readers = {other: read(monkeypatch, other) for other in (inverse, *image_stats)}
    broken = first_call_replaced(replace)(getattr(verification, name))
    images = []
    monkeypatch.setattr(verification, name, lambda *a: images.append(broken(*a)) or images[-1])
    result = check(*args)
    assert not result.passed
    assert any("is not a target" in m for m in result.mismatches), result.mismatches
    outside = images[0]
    assert {other: [x for x in objects if x == outside] for other, objects in readers.items()} == {
        other: [] for other in readers
    }
    assert {other: len(objects) for other, objects in readers.items()} == {
        other: len(images) - 1 for other in readers
    }


def test_a_forward_map_that_is_not_injective_is_a_failure(monkeypatch):
    # the second word goes where the first went: the repeat is reported,
    # and then the image misses a target
    forward = verification._path_to_noncrossing
    images = []

    def repeats_the_first(*args):
        images.append(forward(*args))
        return images[0] if len(images) == 2 else images[-1]

    monkeypatch.setattr(verification, "_path_to_noncrossing", repeats_the_first)
    result = labeling_bijection_check_a(3, 2)
    words = list(enumerate_fuss_catalan(3, 2))
    total = fuss_catalan(3, 2)
    assert not result.passed
    assert result.mismatches == [
        f"not injective: {words[1]} and {words[0]}",
        f"image has {total - 1} members, target has {total}",
    ]
    assert result.objects == total - 1


def test_mismatches_are_listed_object_by_object_in_source_order(monkeypatch):
    # each object's statistic tags come in tag order, then its inverse, as
    # one pass per object writes them; the count goes past the sample
    type_at, reduced_at, inverse_at = range(0, 55, 3), range(0, 55, 4), range(0, 55, 2)
    for name, breaker in [
        ("fc_types_each", values_replaced(lambda out: ((99,), out[1]), set(type_at))),
        ("types_a_each", values_replaced(lambda out: (out[0], (99,)), set(reduced_at))),
        ("_noncrossing_to_path", calls_replaced(lambda out: "", set(inverse_at))),
    ]:
        monkeypatch.setattr(verification, name, breaker(getattr(verification, name)))
    result = labeling_bijection_check_a(4, 2)
    words = list(enumerate_fuss_catalan(4, 2))
    assert len(words) == result.objects == 55
    expected = [
        message
        for i, w in enumerate(words)
        for message, positions in [
            (f"type not preserved on {w}", type_at),
            (f"reduced type not preserved on {w}", reduced_at),
            (f"inverse fails on {w}", inverse_at),
        ]
        if i in positions
    ]
    assert not result.passed
    assert result.mismatches == expected[:MISMATCH_SAMPLE]
    assert len(expected) == len(type_at) + len(reduced_at) + len(inverse_at)
    assert result.mismatch_count == len(expected)


@pytest.mark.parametrize(
    "check,n,k",
    [
        (labeling_bijection_check_a, 4, 2),
        (labeling_bijection_check_b, 3, 2),
        (strip_bijection_check_a, 3, 2),
        (strip_bijection_check_b, 2, 3),
    ],
)
def test_bijection_checks_run_each_map_and_statistic_once_per_object(monkeypatch, check, n, k):
    # the maps run once per object and each whole-list statistic reads
    # every object once, in one call; behind the statistics, each finisher
    # runs at most once per distinct signature, so fewer times than there
    # are objects
    forward, inverse, source_stats, image_stats = ROUND_TRIP_NAMES[check]
    names = (forward, inverse, *source_stats, *image_stats)
    objects = {name: read(monkeypatch, name) for name in names}
    lists = {name: counted(monkeypatch, name, verification) for name in names if name in WHOLE_LIST}
    finished = {name: counted(monkeypatch, name, module) for module, name in FINISHERS}
    result = check(n, k)
    assert result.passed and result.objects > 0
    assert {name: len(o) for name, o in objects.items()} == {name: result.objects for name in names}
    assert {name: len(c) for name, c in lists.items()} == {name: 1 for name in lists}
    signatures = [c for c in finished.values() if c]
    assert signatures
    assert all(len(set(c)) == len(c) < result.objects for c in signatures), finished


@pytest.mark.parametrize("n", range(1, 8))
def test_theorem_21_types_each_step_pattern_once(monkeypatch, n):
    # the primitive census runs multiplicity_type once per distinct step
    # pattern, of which there are at most 2^(n-1), fewer than the catalan(n)
    # primitives from n = 3 on
    patterns = {tuple(map(ne, s, (0, *s))) for s in parking.enumerate_primitive(n)}
    calls = counted(monkeypatch, "multiplicity_type", parking)
    assert theorem_21_check(n).passed
    assert len(calls) == len(patterns) <= 2 ** (n - 1)
    if n >= 3:
        assert len(calls) < catalan(n)


def test_labeling_check_a_reads_each_word_once_and_validates_no_image(monkeypatch):
    words = read(monkeypatch, "fc_types_each")
    validations = counted(monkeypatch, "validate_nc_a", noncrossing_a, bijections)
    result = labeling_bijection_check_a(5, 2)
    assert result.passed
    assert result.objects == fuss_catalan(5, 2)
    assert len(words) == result.objects
    assert validations == []


def test_a_signature_that_drops_the_first_ascent_is_a_failure(monkeypatch):
    # the reduced type is read off the signature alone: without the first
    # ascent it drops the wrong part
    runs = lattice_paths.ascent_runs
    monkeypatch.setattr(lattice_paths, "ascent_runs", lambda words: (r[1:] for r in runs(words)))
    result = labeling_bijection_check_a(4, 2)
    assert not result.passed
    assert any("reduced type not preserved" in m for m in result.mismatches), result.mismatches


def test_labeling_check_b_runs_only_the_inverse_core(monkeypatch):
    validations = counted(monkeypatch, "validate_nc_b", noncrossing_b, bijections)
    public = counted(monkeypatch, "signed_noncrossing_to_path", bijections)
    core = counted(monkeypatch, "_signed_noncrossing_to_path", verification)
    result = labeling_bijection_check_b(3, 2)
    assert result.passed
    assert validations == [] and public == []
    assert len(core) == result.objects == binomial(9, 3)


@pytest.mark.parametrize("check,n,k", [(strip_bijection_check_a, 4, 2), (strip_bijection_check_b, 3, 2)])
def test_strip_checks_type_each_strip_once(monkeypatch, check, n, k):
    run_types = counted(monkeypatch, "run_type", verification)
    result = check(n, k)
    assert result.passed
    assert len(run_types) == result.objects > 0


PUBLIC_MAPS = (
    "staircase_strip_to_path",
    "staircase_path_to_strip",
    "rectangle_strip_to_path",
    "rectangle_path_to_strip",
    "path_to_noncrossing",
    "noncrossing_to_path",
    "path_to_signed_noncrossing",
    "signed_noncrossing_to_path",
)
# the statistics read words that an enumerator or a core just built, so no
# check validates a word on either side of a map
WORD_VALIDATIONS = (
    "validate_word", "validate_fuss_catalan", "validate_fuss_binomial", "is_fuss_catalan"
)


@pytest.mark.parametrize(
    "check,n,k,core",
    [
        (strip_bijection_check_a, 4, 2, "_staircase_strip_to_path"),
        (strip_bijection_check_b, 3, 2, "_rectangle_strip_to_path"),
    ],
)
def test_strip_checks_build_and_validate_nothing_per_strip(monkeypatch, check, n, k, core):
    # a strip is its height vector: no RStrip, no word validation and no
    # public map, and one forward core call per strip
    strips = counted(monkeypatch, "_check_heights", shapes)
    others = {name: counted(monkeypatch, name) for name in WORD_VALIDATIONS + PUBLIC_MAPS}
    forward = counted(monkeypatch, core, verification)
    result = check(n, k)
    assert result.passed
    assert strips == []
    assert {name: calls for name, calls in others.items() if calls} == {}
    assert len(forward) == result.objects > 0


@pytest.mark.parametrize(
    "check,n,k", [(labeling_bijection_check_a, 5, 2), (labeling_bijection_check_b, 3, 2)]
)
def test_labeling_checks_validate_no_source_word(monkeypatch, check, n, k):
    others = {name: counted(monkeypatch, name) for name in WORD_VALIDATIONS + PUBLIC_MAPS}
    result = check(n, k)
    assert result.passed and result.objects > 0
    assert {name: calls for name, calls in others.items() if calls} == {}


@pytest.mark.parametrize(
    "theorem,limits", [("1.1", (11, 6)), ("1.2", (7, 13)), ("2.1", (7, 1)), ("bijections", (11, 13))]
)
def test_verify_limits_are_the_largest_n_and_k_of_the_table(theorem, limits):
    assert verify_limits(theorem) == limits


def test_an_unknown_theorem_is_refused():
    with pytest.raises(ValueError, match="unknown theorem '1.3'"):
        verify_theorem("1.3", 2, 2)


def staircase_pairs(n_max, k_max):
    return [(n, k) for k in range(1, k_max + 1) for n in range(1, n_max + 1) if k * (n + 1) <= 12]


def rectangle_pairs(n_max, k_max):
    return [(n, k) for k in range(1, k_max + 1) for n in range(1, n_max + 1) if (k + 1) * n <= 14]


def expected_run(theorem, n_max, k_max):
    """(name, params) of each check, by the rule the table writes out: k in
    the outer loop, n in the inner, filtered by k(n+1) <= 12 on the
    staircase side and (k+1)n <= 14 on the rectangle side."""
    if theorem == "2.1":
        return [("theorem-2.1", {"n": n}) for n in range(1, min(n_max, 7) + 1)]
    if theorem != "bijections":
        name, pairs = {"1.1": ("theorem-1.1", staircase_pairs), "1.2": ("theorem-1.2", rectangle_pairs)}[theorem]
        return [(name, {"n": n, "k": k}) for n, k in pairs(n_max, k_max)]
    return [
        (f"{check}-{side}", {"n": n, "k": k})
        for side, pairs in (("A", staircase_pairs), ("B", rectangle_pairs))
        for n, k in pairs(n_max, k_max)
        for check in ("labeling-bijection", "strip-bijection")
    ]


@pytest.mark.parametrize("theorem", ["1.1", "1.2", "2.1", "bijections"])
def test_verify_theorem_runs_the_pairs_of_the_caps_in_order(theorem):
    # at (4, 3) both caps bind: (4, 3) is past each of them, (3, 3) is not
    results = verify_theorem(theorem, 4, 3)
    assert all(r.passed for r in results)
    assert [(r.name, r.params) for r in results] == expected_run(theorem, 4, 3)


def test_the_table_holds_every_pair_of_the_caps():
    assert list(THEOREMS) == ["1.1", "1.2", "2.1", "bijections"]
    pairs = {theorem: [pairs for pairs, _ in rows] for theorem, rows in THEOREMS.items()}
    a, b = staircase_pairs(11, 6), rectangle_pairs(7, 13)
    assert pairs == {"1.1": [a], "1.2": [b], "2.1": [[(n, 1) for n in range(1, 8)]], "bijections": [a, b]}
