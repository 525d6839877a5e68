"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact integer equality (tolerance zero).  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import subprocess
import sys
import time
from itertools import combinations

import pytest

from ncstrip.bijections import (
    noncrossing_to_path,
    path_to_noncrossing,
    path_to_signed_noncrossing,
    signed_noncrossing_to_path,
)
from ncstrip.lattice_paths import enumerate_fuss_binomial, enumerate_fuss_catalan
from ncstrip.noncrossing_a import is_noncrossing, read_blocks
from ncstrip.noncrossing_b import is_noncrossing_b, type_b, validate_nc_b
from ncstrip.shapes import (
    SkewShape,
    enumerate_r_strips,
    is_r_strip,
    rectangle,
    stretched_staircase,
)
from ncstrip.verification import (
    CAP_A,
    PAIRS_A,
    PAIRS_B,
    counting_check_a,
    labeling_bijection_check_a,
    labeling_bijection_check_b,
    strip_bijection_check_a,
    strip_bijection_check_b,
    theorem_11_check,
    theorem_12_check,
    theorem_21_check,
)

from conftest import canonical_b_by_definition, crossing_quadruple_scan, set_partitions

TYPE_A_EXAMPLE_WORD = "ENEENNNNENNNEENNNN"
TYPE_A_EXAMPLE_PARTITION = "1,6/2,3,4,5/7,10,11,12/8,9"
TYPE_B_EXAMPLE_WORD = "ENNNNNNENNENNNEN"
TYPE_B_EXAMPLE_PARTITION = (
    "-1,-2,12/-3,-7,11/-4,-5,-6/-8,-9,-10,8,9,10/-11,3,7/-12,1,2/4,5,6"
)


def report(num: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"{status} criterion {num}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert passed, line


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ncstrip.cli", *args],
        capture_output=True,
        text=True,
    )


# The labeling maps and the counting identities act on D_n^(k) and NC^(k) of
# kn points, so criteria 4 and 7 take kn <= CAP_A; the staircase side of
# PAIRS_A is D_{n+1}^(k), hence k(n+1) <= CAP_A there.
PAIRS_KN = [(n, k) for k in range(1, CAP_A + 1) for n in range(1, CAP_A + 1) if k * n <= CAP_A]


def test_criterion_1_golden_expansion():
    start = time.monotonic()
    r = run_cli("expand", "--shape", "3,2/1")
    elapsed = time.monotonic() - start
    payload = json.loads(r.stdout)
    ok = r.returncode == 0 and payload["result"]["terms"] == [
        {"lambda": [], "coeff": "1"},
        {"lambda": [1], "coeff": "2"},
        {"lambda": [2], "coeff": "2"},
        {"lambda": [1, 1], "coeff": "1"},
        {"lambda": [2, 1], "coeff": "2"},
    ]
    ok = ok and elapsed < 1.0
    report(1, "worked skew expansion 2h(2,1)+2h(2)+h(1,1)+2h(1)+h()", ok,
           f"{elapsed:.2f}s")


def test_criterion_2_staircase_three_way():
    start = time.monotonic()
    results = [theorem_11_check(n, k) for n, k in PAIRS_A]
    elapsed = time.monotonic() - start
    ok = all(r.passed for r in results) and elapsed < 120
    detail = f"{len(results)} (n,k) pairs, {sum(r.objects for r in results)} partitions, {elapsed:.1f}s"
    report(2, "staircase expansion = formula = reduced-type census, k(n+1) <= 12", ok, detail)


def test_criterion_3_rectangle_three_way():
    start = time.monotonic()
    results = [theorem_12_check(n, k) for n, k in PAIRS_B]
    elapsed = time.monotonic() - start
    ok = all(r.passed for r in results) and elapsed < 120
    detail = f"{len(results)} (n,k) pairs, {sum(r.objects for r in results)} partitions, {elapsed:.1f}s"
    report(3, "rectangle expansion = formula = signed type census, (k+1)n <= 14", ok, detail)


def test_criterion_4_labeling_bijection_a():
    example_ok = (
        run_cli(
            "biject", "--map", "psi-a", "--forward", "-n", "6", "-k", "2",
            "--input", TYPE_A_EXAMPLE_WORD,
        ).stdout.find(TYPE_A_EXAMPLE_PARTITION)
        >= 0
    )
    blocks = path_to_noncrossing(TYPE_A_EXAMPLE_WORD, 6, 2)
    example_ok = example_ok and noncrossing_to_path(blocks, 6, 2) == TYPE_A_EXAMPLE_WORD
    results = [labeling_bijection_check_a(n, k) for n, k in PAIRS_KN]
    ok = example_ok and all(r.passed for r in results)
    detail = f"{sum(r.objects for r in results)} paths over {len(PAIRS_KN)} (n,k) pairs"
    report(4, "path<->partition labeling bijection, two-sided, kn <= 12", ok, detail)


def test_criterion_5_labeling_bijection_b():
    blocks = path_to_signed_noncrossing(TYPE_B_EXAMPLE_WORD, 4, 3)
    example_ok = blocks == validate_nc_b(read_blocks(TYPE_B_EXAMPLE_PARTITION), 4, 3)
    example_ok = example_ok and type_b(blocks, 3) == (1, 1, 1)
    example_ok = example_ok and signed_noncrossing_to_path(blocks, 4, 3) == TYPE_B_EXAMPLE_WORD
    results = [labeling_bijection_check_b(n, k) for n, k in PAIRS_B]
    ok = example_ok and all(r.passed for r in results)
    detail = f"{sum(r.objects for r in results)} paths over {len(PAIRS_B)} (n,k) pairs"
    report(5, "signed path<->partition bijection, two-sided, (k+1)n <= 14", ok, detail)


def test_criterion_6_strip_bijections():
    results_a = [strip_bijection_check_a(n, k) for n, k in PAIRS_A]
    results_b = [strip_bijection_check_b(n, k) for n, k in PAIRS_B]
    ok = all(r.passed for r in results_a + results_b)
    detail = (
        f"{sum(r.objects for r in results_a)} staircase strips, "
        f"{sum(r.objects for r in results_b)} rectangle strips"
    )
    report(6, "strip->path maps preserve the type statistics; composites match", ok, detail)


def test_criterion_7_counting_identities():
    results = [counting_check_a(n, k) for n, k in PAIRS_KN]
    ok = all(r.passed for r in results)
    detail = f"{sum(r.objects for r in results)} partitions censused"
    report(7, "pointed double-counting identity and count formulas, kn <= 12", ok, detail)


def test_criterion_8_parking():
    results = [theorem_21_check(n) for n in range(1, 8)]
    ok = all(r.passed for r in results)
    report(8, "parking function counts and expansion identities, n <= 7", ok)


def test_criterion_9_oracle_equivalences():
    # path characterization vs right-aligned definition, shapes <= 12 boxes
    shapes = [
        SkewShape((3, 2), (1,)),
        SkewShape((2, 1), (1,)),
        SkewShape((3, 3, 3), (2, 1)),
        SkewShape((4, 2, 1), (1,)),
        rectangle(2, 2),
        rectangle(3, 1),
        stretched_staircase(2, 2),
        stretched_staircase(3, 1),
    ]
    strips_ok = True
    for shape in shapes:
        boxes = shape.boxes()
        assert len(boxes) <= 12
        from_def = {
            tuple(sorted(sub))
            for r in range(len(boxes) + 1)
            for sub in combinations(boxes, r)
            if is_r_strip(shape, sub)
        }
        from_paths = {s.boxes for s in enumerate_r_strips(shape)}
        strips_ok = strips_ok and from_def == from_paths

    # noncrossing predicate vs the quadruple scan, n <= 8
    nc_ok = all(
        is_noncrossing(blocks, n) == (not crossing_quadruple_scan(blocks))
        for n in range(1, 9)
        for blocks in set_partitions(range(1, n + 1))
    )

    # signed predicate vs the filter oracle, kn <= 5
    ncb_ok = True
    for m in range(1, 6):
        ground = list(range(1, m + 1)) + [-x for x in range(1, m + 1)]
        for blocks in set_partitions(ground):
            canon = canonical_b_by_definition(blocks, m)
            sets = {frozenset(b) for b in canon}
            invariant = all(frozenset(-x for x in b) in sets for b in canon)
            expected = invariant and not crossing_quadruple_scan(
                [[v if v > 0 else m - v for v in b] for b in canon]
            )
            if is_noncrossing_b(canon, m) != expected:
                ncb_ok = False

    # constructive inverses vs lookup-table inverses
    inv_ok = True
    for n, k in [(6, 1), (3, 2), (2, 3)]:
        lookup = {
            path_to_noncrossing(w, n, k): w for w in enumerate_fuss_catalan(n, k)
        }
        inv_ok = inv_ok and all(
            noncrossing_to_path(b, n, k) == w for b, w in lookup.items()
        )
    for n, k in [(4, 1), (2, 2), (1, 4)]:
        lookup = {
            path_to_signed_noncrossing(w, n, k): w
            for w in enumerate_fuss_binomial(n, k)
        }
        inv_ok = inv_ok and all(
            signed_noncrossing_to_path(b, n, k) == w for b, w in lookup.items()
        )

    ok = strips_ok and nc_ok and ncb_ok and inv_ok
    detail = f"strips={strips_ok} nc_a={nc_ok} nc_b={ncb_ok} inverses={inv_ok}"
    report(9, "all independent oracles agree with the implementations", ok, detail)


@pytest.mark.parametrize(
    "args",
    [
        ("expand", "--shape", "3,2/1"),
        ("expand", "--family", "fuss-a", "-n", "2", "-k", "2", "--method", "formula"),
        ("count", "--family", "ncb-k", "-n", "2", "-k", "1", "--by", "type", "--check"),
        ("biject", "--map", "psi-a", "--forward", "-n", "6", "-k", "2", "--input", TYPE_A_EXAMPLE_WORD),
        ("verify", "--theorem", "1.2", "--n-max", "2", "--k-max", "1"),
        ("enumerate", "--object", "rstrips", "--shape", "3,2/1", "--format", "table"),
    ],
    ids=lambda a: a[0],
)
def test_criterion_10_cli_determinism(args):
    first = run_cli(*args)
    second = run_cli(*args)
    ok = first.returncode == second.returncode and first.stdout == second.stdout
    ok = ok and len(first.stdout) > 0
    report(10, f"byte-identical payload for `{args[0]}` rerun", ok)
