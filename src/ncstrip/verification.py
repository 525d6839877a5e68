"""Exhaustive desk-scale verification of the expansion theorems and the
bijections: three-way expansion equalities, census cross-checks, and
pointwise two-sided round trips.  Used by both the CLI and the test suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import bijections as bij
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
    fb_type,
    fc_reduced_type,
    fc_type,
)
from .noncrossing_a import (
    count_by_reduced_type,
    count_by_type,
    enumerate_k_divisible,
    reduced_type_a,
    type_a,
)
from .noncrossing_b import enumerate_nc_b, type_b
from .parking import (
    count_parking_functions,
    enumerate_parking_functions,
    enumerate_primitive,
    pf_type,
    primitive_pf_to_ncp,
)
from .partitions import (
    binomial,
    catalan,
    format_partition,
    fuss_catalan,
    partitions_with_weight_at_most,
    weight,
)
from .shapes import enumerate_r_strips, rectangle, stretched_staircase, strip_type

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


def theorem_11_check(n: int, k: int) -> CheckResult:
    """Staircase expansion = closed formula = reduced-type census."""
    result = CheckResult("theorem-1.1", {"n": n, "k": k})
    by_enum = expand_skew(stretched_staircase(n, k))
    by_formula = fuss_a_expansion_formula(n, k)
    census = Counter()
    count = 0
    for blocks in enumerate_k_divisible(n + 1, k):
        census[reduced_type_a(blocks, k)] += 1
        count += 1
    result.objects = count
    _expansions_must_match(result, "enumeration vs formula", by_enum, by_formula)
    _expansions_must_match(result, "formula vs census", by_formula, dict(census))
    total = sum(by_formula.values())
    if total != fuss_catalan(n + 1, k):
        result.fail(f"coefficient sum {total} != fuss_catalan({n + 1},{k})")
    if k == 1 and total != catalan(n + 1):
        result.fail(f"coefficient sum {total} != catalan({n + 1})")
    return result


def theorem_12_check(n: int, k: int) -> CheckResult:
    """Rectangle expansion = closed formula = signed type census."""
    result = CheckResult("theorem-1.2", {"n": n, "k": k})
    by_enum = expand_skew(rectangle(n, k))
    by_formula = fuss_b_expansion_formula(n, k)
    census = Counter()
    count = 0
    for blocks in enumerate_nc_b(n, k):
        census[type_b(blocks, k)] += 1
        count += 1
    result.objects = count
    _expansions_must_match(result, "enumeration vs formula", by_enum, by_formula)
    _expansions_must_match(result, "formula vs census", by_formula, dict(census))
    total = sum(by_formula.values())
    if total != binomial((k + 1) * n, n):
        result.fail(f"coefficient sum {total} != binomial({(k + 1) * n},{n})")
    return result


def theorem_21_check(n: int) -> CheckResult:
    """Parking expansion = primitive type census = staircase top part."""
    result = CheckResult("theorem-2.1", {"n": n})
    expansion = parking_expansion(n)
    primitives = enumerate_primitive(n)
    census = Counter(pf_type(p) for p in primitives)
    result.objects = len(primitives)
    _expansions_must_match(result, "formula vs primitive census", expansion, dict(census))
    if len(primitives) != catalan(n):
        result.fail(f"primitive count {len(primitives)} != catalan({n})")
    ncp_census = Counter(
        type_a(primitive_pf_to_ncp(p), 1) for p in primitives
    )
    _expansions_must_match(
        result, "primitive census vs noncrossing census", dict(census), dict(ncp_census)
    )
    top = top_homogeneous_part(expand_skew(stretched_staircase(n, 1)), n)
    _expansions_must_match(result, "top part vs formula", top, expansion)
    if n <= 6:
        total, expected = len(enumerate_parking_functions(n)), count_parking_functions(n)
        if total != expected:
            result.fail(f"parking function count {total} != {expected}")
    return result


def labeling_bijection_check_a(n: int, k: int) -> CheckResult:
    """Two-sided type- and reduced-type-preserving check on all of D_n^(k)."""
    result = CheckResult("labeling-bijection-A", {"n": n, "k": k})
    images = {}
    for word in enumerate_fuss_catalan(n, k):
        blocks = bij.path_to_noncrossing(word, n, k)
        if blocks in images:
            result.fail(f"not injective: {word} and {images[blocks]}")
            continue
        images[blocks] = word
        if type_a(blocks, k) != fc_type(word):
            result.fail(f"type not preserved on {word}")
        if reduced_type_a(blocks, k) != fc_reduced_type(word):
            result.fail(f"reduced type not preserved on {word}")
        if bij.noncrossing_to_path(blocks, n, k) != word:
            result.fail(f"inverse fails on {word}")
    result.objects = len(images)
    targets = set(enumerate_k_divisible(n, k))
    if set(images) != targets:
        result.fail(
            f"image has {len(images)} partitions, target has {len(targets)}"
        )
    return result


def labeling_bijection_check_b(n: int, k: int) -> CheckResult:
    """Two-sided type-preserving check on all of B_n^(k)."""
    result = CheckResult("labeling-bijection-B", {"n": n, "k": k})
    images = {}
    for word in enumerate_fuss_binomial(n, k):
        blocks = bij.path_to_signed_noncrossing(word, n, k)
        if blocks in images:
            result.fail(f"not injective: {word} and {images[blocks]}")
            continue
        images[blocks] = word
        if type_b(blocks, k) != fb_type(word):
            result.fail(f"type not preserved on {word}")
        if bij.signed_noncrossing_to_path(blocks, n, k) != word:
            result.fail(f"inverse fails on {word}")
    result.objects = len(images)
    targets = set(enumerate_nc_b(n, k))
    if set(images) != targets:
        result.fail(
            f"image has {len(images)} partitions, target has {len(targets)}"
        )
    return result


def strip_bijection_check_a(n: int, k: int) -> CheckResult:
    """Strips of the stretched staircase <-> D_{n+1}^(k), type to reduced type."""
    result = CheckResult("strip-bijection-A", {"n": n, "k": k})
    shape = stretched_staircase(n, k)
    strips = enumerate_r_strips(shape)
    words = set()
    strip_census = Counter()
    composite_census = Counter()
    for strip in strips:
        lam = strip_type(strip)
        strip_census[lam] += 1
        word = bij.staircase_strip_to_path(strip)
        words.add(word)
        if fc_reduced_type(word) != lam:
            result.fail(f"reduced type mismatch on {strip.boxes}")
        if bij.staircase_path_to_strip(word, shape) != strip:
            result.fail(f"inverse fails on {strip.boxes}")
        composite_census[
            reduced_type_a(bij.path_to_noncrossing(word, n + 1, k), k)
        ] += 1
    result.objects = len(strips)
    if words != set(enumerate_fuss_catalan(n + 1, k)):
        result.fail("strip paths do not exhaust the Fuss-Catalan set")
    _expansions_must_match(
        result, "composite census vs strip census", composite_census, strip_census
    )
    return result


def strip_bijection_check_b(n: int, k: int) -> CheckResult:
    """Strips of the rectangle <-> B_n^(k), type preserving."""
    result = CheckResult("strip-bijection-B", {"n": n, "k": k})
    shape = rectangle(n, k)
    strips = enumerate_r_strips(shape)
    words = set()
    strip_census = Counter()
    composite_census = Counter()
    for strip in strips:
        lam = strip_type(strip)
        strip_census[lam] += 1
        word = bij.rectangle_strip_to_path(strip)
        words.add(word)
        if fb_type(word) != lam:
            result.fail(f"type mismatch on {strip.boxes}")
        if bij.rectangle_path_to_strip(word, shape) != strip:
            result.fail(f"inverse fails on {strip.boxes}")
        composite_census[
            type_b(bij.path_to_signed_noncrossing(word, n, k), k)
        ] += 1
    result.objects = len(strips)
    if words != set(enumerate_fuss_binomial(n, k)):
        result.fail("strip paths do not exhaust the binomial path set")
    _expansions_must_match(
        result, "composite census vs strip census", composite_census, strip_census
    )
    return result


def counting_check_a(n: int, k: int) -> CheckResult:
    """Type and reduced-type counting formulas against the census, plus the
    pointed double-counting identity."""
    result = CheckResult("counting-A", {"n": n, "k": k})
    census_type = Counter()
    census_reduced = Counter()
    for blocks in enumerate_k_divisible(n, k):
        census_type[type_a(blocks, k)] += 1
        census_reduced[reduced_type_a(blocks, k)] += 1
        result.objects += 1
    for zeta, cnt in sorted(census_type.items()):
        if count_by_type(n, k, zeta) != cnt:
            result.fail(
                f"type {format_partition(zeta)}: formula "
                f"{count_by_type(n, k, zeta)} != census {cnt}"
            )
    for lam, cnt in sorted(census_reduced.items()):
        if count_by_reduced_type(n, k, lam) != cnt:
            result.fail(
                f"reduced type {format_partition(lam)}: formula "
                f"{count_by_reduced_type(n, k, lam)} != census {cnt}"
            )
    total = sum(count_by_type(n, k, z) for z in census_type)
    if total != fuss_catalan(n, k):
        result.fail(f"type counts sum {total} != fuss_catalan({n},{k})")
    for lam in partitions_with_weight_at_most(n - 1):
        part = n - weight(lam)
        zeta = tuple(sorted(lam + (part,), reverse=True))
        mult = sum(1 for x in zeta if x == part)
        lhs = k * n * count_by_reduced_type(n, k, lam)
        rhs = count_by_type(n, k, zeta) * mult * k * part
        if lhs != rhs:
            result.fail(
                f"double counting fails at lambda={format_partition(lam)}: "
                f"{lhs} != {rhs}"
            )
    return result


def _pairs_a(n_max: int, k_max: int):
    return [
        (n, k)
        for k in range(1, k_max + 1)
        for n in range(1, n_max + 1)
        if k * (n + 1) <= CAP_A
    ]


def _pairs_b(n_max: int, k_max: int):
    return [
        (n, k)
        for k in range(1, k_max + 1)
        for n in range(1, n_max + 1)
        if (k + 1) * n <= CAP_B
    ]


def verify_theorem(theorem: str, n_max: int, k_max: int) -> list[CheckResult]:
    if theorem == "1.1":
        return [theorem_11_check(n, k) for n, k in _pairs_a(n_max, k_max)]
    if theorem == "1.2":
        return [theorem_12_check(n, k) for n, k in _pairs_b(n_max, k_max)]
    if theorem == "2.1":
        return [theorem_21_check(n) for n in range(1, min(n_max, CAP_PARKING) + 1)]
    if theorem == "bijections":
        out = []
        for n, k in _pairs_a(n_max, k_max):
            if k * n <= CAP_A:
                out.append(labeling_bijection_check_a(n, k))
            out.append(strip_bijection_check_a(n, k))
        for n, k in _pairs_b(n_max, k_max):
            out.append(labeling_bijection_check_b(n, k))
            out.append(strip_bijection_check_b(n, k))
        return out
    raise ValueError(f"unknown theorem {theorem!r}")
