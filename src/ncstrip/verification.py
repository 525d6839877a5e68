"""Exhaustive desk-scale verification of the expansion theorems and the
bijections: three-way expansion equalities, census cross-checks, and
pointwise two-sided round trips.  Used by both the CLI and the test suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import itemgetter, ne

from .bijections import (
    _noncrossing_to_path,
    _path_to_noncrossing,
    _path_to_signed_noncrossing,
    _rectangle_strip_to_path,
    _signed_noncrossing_to_path,
    _staircase_path_to_strip,
    _staircase_strip_to_path,
)
from .expansions import (
    expand_skew,
    expansion_diff,
    fuss_a_expansion_formula,
    fuss_b_expansion_formula,
    parking_expansion,
    top_homogeneous_part,
)
from .lattice_paths import (
    enumerate_fuss_binomial,
    enumerate_fuss_catalan,
    fb_type_each,
    fc_types_each,
)
from .noncrossing_a import (
    enumerate_k_divisible,
    reduced_type_counts,
    type_counts,
    types_a_census,
    types_a_each,
)
from .noncrossing_b import enumerate_nc_b, type_b_census, type_b_each
from .parking import (
    _primitive_pf_to_ncp,
    count_parking_functions,
    enumerate_parking_functions,
    enumerate_primitive,
    primitive_type_census,
)
from .partitions import (
    binomial,
    catalan,
    format_partition,
    fuss_catalan,
    partition_rows,
    weight,
)
from .shapes import (
    _path_heights,
    iter_strip_heights,
    rectangle,
    run_type,
    stretched_staircase,
)

CAP_A = 12  # k(n+1) cap for staircase-side checks
CAP_B = 14  # (k+1)n cap for rectangle-side checks
CAP_PARKING = 7
MISMATCH_SAMPLE = 20  # messages a check keeps; mismatch_count counts them all


@dataclass
class CheckResult:
    name: str
    params: dict
    passed: bool = True
    objects: int = 0
    mismatches: list[str] = field(default_factory=list)
    mismatch_count: int = 0

    def fail(self, message: str) -> None:
        self.passed = False
        self.mismatch_count += 1
        if len(self.mismatches) < MISMATCH_SAMPLE:
            self.mismatches.append(message)


def _expansions_must_match(result: CheckResult, tag: str, a, b) -> None:
    for lam, ca, cb in expansion_diff(a, b):
        result.fail(f"{tag}: lambda={format_partition(lam)} lhs={ca} rhs={cb}")


def _marginal(census: Counter, i: int) -> Counter:
    """The census of entry i of the tuples a census counts."""
    out = Counter()
    for key, c in census.items():
        out[key[i]] += c
    return out


def _three_way(name, params, enumerated, formula, census, sums) -> CheckResult:
    """enumerated = formula = census, a Counter of a statistic over the
    objects of the other side, and the formula's coefficient sum equals
    every (value, label) in sums."""
    result = CheckResult(name, params)
    result.objects = census.total()
    _expansions_must_match(result, "enumeration vs formula", enumerated, formula)
    _expansions_must_match(result, "formula vs census", formula, census)
    total = sum(formula.values())
    for value, label in sums:
        if total != value:
            result.fail(f"coefficient sum {total} != {label}")
    return result


def theorem_11_check(n: int, k: int) -> CheckResult:
    """Staircase expansion = closed formula = reduced-type census."""
    sums = [(fuss_catalan(n + 1, k), f"fuss_catalan({n + 1},{k})")]
    if k == 1:
        sums.append((catalan(n + 1), f"catalan({n + 1})"))
    return _three_way(
        "theorem-1.1", {"n": n, "k": k}, expand_skew(stretched_staircase(n, k)),
        fuss_a_expansion_formula(n, k),
        _marginal(types_a_census(enumerate_k_divisible(n + 1, k), k), 1), sums,
    )


def theorem_12_check(n: int, k: int) -> CheckResult:
    """Rectangle expansion = closed formula = signed type census."""
    return _three_way(
        "theorem-1.2", {"n": n, "k": k}, expand_skew(rectangle(n, k)),
        fuss_b_expansion_formula(n, k), type_b_census(enumerate_nc_b(n, k), k),
        [(binomial((k + 1) * n, n), f"binomial({(k + 1) * n},{n})")],
    )


def theorem_21_check(n: int) -> CheckResult:
    """Staircase top part = parking expansion = primitive type census = NC census."""
    primitives = enumerate_primitive(n)
    expansion = parking_expansion(n)
    result = _three_way(
        "theorem-2.1", {"n": n},
        top_homogeneous_part(expand_skew(stretched_staircase(n, 1)), n), expansion,
        primitive_type_census(primitives), [(catalan(n), f"catalan({n})")],
    )
    # the primitives are the enumerator's own, so the census and the map to
    # NC_n run without their parking checks
    ncp_census = _marginal(types_a_census(map(_primitive_pf_to_ncp, primitives)), 0)
    _expansions_must_match(result, "formula vs noncrossing census", expansion, ncp_census)
    if n <= 6:
        total, expected = len(enumerate_parking_functions(n)), count_parking_functions(n)
        if total != expected:
            result.fail(f"parking function count {total} != {expected}")
    return result


def _round_trip(
    name, n, k, sources, forward, inverse, tags, source_stats, image_stats, targets
) -> CheckResult:
    """Two-sided check of one bijection: `forward` is injective on the
    sources, `inverse` undoes it, the statistics of each source and of its
    image agree at every position (tags name the positions), and the image
    is exactly the set of targets.  The statistics are whole-list forms:
    source_stats(sources) and image_stats(images) give one tuple per object,
    in order, so a statistic that depends on a small signature (a word's
    ascents, a partition's block sizes) is finished once per distinct
    signature, and the check compares the two streams of values.

    The per-object work runs as whole-list passes.  `forward` is mapped
    over the listed sources, and one set of the images decides injectivity
    and the target check together: the images are exactly the targets when
    the images, the distinct images and the listed targets are equally
    many and no image is left once the targets are taken out of the set,
    which is then freed.  The targets stay a list, since a second set would
    raise the peak memory of the largest checks.  The two statistics'
    streams, then `inverse`, run over the objects that got this far,
    keeping only the objects where they disagree.  Only when a pass has
    found a mismatch does a loop write its messages, object by object in
    source order, from the values already computed: no map or statistic
    runs twice on an object.  When the images are not exactly the targets, the targets
    are counted, and one loop over the images already computed reports
    each repeat and each image outside the targets, in the same order;
    then each target listed more than once is reported.  The exact case
    needs no such count: as many listed targets as distinct images, with
    every image among them, leaves no room for a repeat.

    `inverse` and `image_stats` only see images that are targets, and the
    enumerators list those canonically, so `inverse` is the map's unchecked
    core: the membership test does the work of its input check.
    """
    result = CheckResult(name, {"n": n, "k": k})
    targets = list(targets)
    sources = list(sources)
    images = list(map(forward, sources))
    image_set = set(images)
    result.objects = len(image_set)
    image_set.difference_update(targets)
    exact = len(images) == result.objects == len(targets) and not image_set
    del image_set
    events = []  # (source position, message), each object's in the order its checks run
    if exact:
        kept = range(len(sources))
    else:
        targets = Counter(targets)
        kept, seen = [], {}
        for i, (x, y) in enumerate(zip(sources, images)):
            if y in seen:
                events.append((i, f"not injective: {x} and {seen[y]}"))
                continue
            seen[y] = x
            if y in targets:
                kept.append(i)
            else:
                events.append((i, f"image of {x} is not a target"))
        events += ((len(sources), f"target {t} is listed {times} times")
                   for t, times in targets.items() if times > 1)
        if seen.keys() != targets.keys():
            message = f"image has {len(seen)} members, target has {len(targets)}"
            events.append((len(sources), message))
        sources = [sources[i] for i in kept]
        images = [images[i] for i in kept]
    del targets
    stats = zip(count(), source_stats(sources), image_stats(images))
    for j, a, b in [t for t in stats if t[1] != t[2]]:
        events += ((kept[j], f"{tag} not preserved on {sources[j]}")
                   for tag, p, q in zip(tags, a, b, strict=True) if p != q)
    for j in compress(count(), map(ne, map(inverse, images), sources)):
        events.append((kept[j], f"inverse fails on {sources[j]}"))
    for _, message in sorted(events, key=itemgetter(0)):
        result.fail(message)
    return result


def labeling_bijection_check_a(n: int, k: int) -> CheckResult:
    """Two-sided type- and reduced-type-preserving check on all of D_n^(k)."""
    return _round_trip(
        "labeling-bijection-A", n, k, enumerate_fuss_catalan(n, k),
        lambda w: _path_to_noncrossing(w, k), lambda b: _noncrossing_to_path(b, n, k),
        ("type", "reduced type"), fc_types_each, lambda images: types_a_each(images, k),
        enumerate_k_divisible(n, k),
    )


def labeling_bijection_check_b(n: int, k: int) -> CheckResult:
    """Two-sided type-preserving check on all of B_n^(k)."""
    return _round_trip(
        "labeling-bijection-B", n, k, enumerate_fuss_binomial(n, k),
        lambda w: _path_to_signed_noncrossing(w, n, k),
        lambda b: _signed_noncrossing_to_path(b, n, k),
        ("type",), lambda words: zip(fb_type_each(words)),
        lambda images: zip(type_b_each(images, k)),
        enumerate_nc_b(n, k),
    )


def strip_bijection_check_a(n: int, k: int) -> CheckResult:
    """Strips of the stretched staircase <-> D_{n+1}^(k), type to reduced
    type, and on through psi-a to the partition's reduced type.  A strip is
    its height vector."""
    shape = stretched_staircase(n, k)
    return _round_trip(
        "strip-bijection-A", n, k, iter_strip_heights(shape),
        lambda h: _staircase_strip_to_path(h, n, k), lambda w: _staircase_path_to_strip(w, k),
        ("reduced type", "composite reduced type"),
        lambda strips: map(lambda h: (run_type(shape.lo, h),) * 2, strips),
        lambda words: zip(
            map(itemgetter(1), fc_types_each(words)),
            map(itemgetter(1), types_a_each(map(_path_to_noncrossing, words, repeat(k)), k)),
        ),
        enumerate_fuss_catalan(n + 1, k),
    )


def strip_bijection_check_b(n: int, k: int) -> CheckResult:
    """Strips of the rectangle <-> B_n^(k), type preserving, and on through
    psi-b to the signed partition's type.  A strip is its height vector."""
    shape = rectangle(n, k)
    return _round_trip(
        "strip-bijection-B", n, k, iter_strip_heights(shape),
        lambda h: _rectangle_strip_to_path(h, n, k), lambda w: _path_heights(w, 0),
        ("type", "composite type"),
        lambda strips: map(lambda h: (run_type(shape.lo, h),) * 2, strips),
        lambda words: zip(
            fb_type_each(words),
            type_b_each(map(_path_to_signed_noncrossing, words, repeat(n), repeat(k)), k),
        ),
        enumerate_fuss_binomial(n, k),
    )


def counting_check_a(n: int, k: int) -> CheckResult:
    """Type and reduced-type counting formulas against the census, plus the
    pointed double-counting identity."""
    result = CheckResult("counting-A", {"n": n, "k": k})
    census = types_a_census(enumerate_k_divisible(n, k), k)
    result.objects = census.total()
    types, products = partition_rows(n)
    by_type = dict(zip(types, type_counts(n, k, types, products)))
    reduced, products = partition_rows(n - 1, True)
    by_reduced = dict(zip(reduced, reduced_type_counts(n, k, reduced, products)))
    _expansions_must_match(result, "type formula vs census", by_type, _marginal(census, 0))
    _expansions_must_match(
        result, "reduced type formula vs census", by_reduced, _marginal(census, 1)
    )
    total = sum(by_type.values())
    if total != fuss_catalan(n, k):
        result.fail(f"type counts sum {total} != fuss_catalan({n},{k})")
    for lam, count in by_reduced.items():
        part = n - weight(lam)
        zeta = tuple(sorted(lam + (part,), reverse=True))
        mult = zeta.count(part)
        lhs = k * n * count
        rhs = by_type[zeta] * mult * k * part
        if lhs != rhs:
            result.fail(
                f"double counting fails at lambda={format_partition(lam)}: "
                f"{lhs} != {rhs}"
            )
    return result


# k in the outer loop, n in the inner, as the report lists them
PAIRS_A = [(n, k) for k in range(1, CAP_A) for n in range(1, CAP_A) if k * (n + 1) <= CAP_A]
PAIRS_B = [(n, k) for k in range(1, CAP_B) for n in range(1, CAP_B) if (k + 1) * n <= CAP_B]

# theorem -> its rows, in report order: (the (n, k) pairs, the checks run at each)
THEOREMS = {
    "1.1": [(PAIRS_A, (theorem_11_check,))],
    "1.2": [(PAIRS_B, (theorem_12_check,))],
    "2.1": [([(n, 1) for n in range(1, CAP_PARKING + 1)], (lambda n, k: theorem_21_check(n),))],
    "bijections": [
        (PAIRS_A, (labeling_bijection_check_a, strip_bijection_check_a)),
        (PAIRS_B, (labeling_bijection_check_b, strip_bijection_check_b)),
    ],
}


def verify_limits(theorem: str) -> tuple[int, int]:
    """The largest n and the largest k among the theorem's pairs."""
    pairs = [pair for pairs, _ in THEOREMS[theorem] for pair in pairs]
    return max(n for n, _ in pairs), max(k for _, k in pairs)


def verify_theorem(theorem: str, n_max: int, k_max: int) -> list[CheckResult]:
    """The theorem's checks at its pairs with n <= n_max and k <= k_max."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}")
    return [check(n, k) for pairs, checks in THEOREMS[theorem] for n, k in pairs
            if n <= n_max and k <= k_max for check in checks]
