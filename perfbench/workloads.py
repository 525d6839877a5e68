"""Seeded inputs and closed-form expectations for the benchmark workloads.

Nothing here imports ncstrip: shape profiles, monotone-path counts,
Fuss-Catalan and binomial totals and the strip literal of a path are all
written out again, so that the expectations the gates compare against are
independent of the program under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# The object guard of `ncstrip` commands.  Every generated request stays
# below it, because a refused request would turn into real work once the
# guards count the right quantity.
OBJECT_CAP = 500_000


def fuss_catalan(n: int, k: int) -> int:
    """|D_n^(k)| = |NC_n^(k)| = binom((k+1)n, n) / (kn+1)."""
    return math.comb((k + 1) * n, n) // (k * n + 1)


def fuss_binomial(n: int, k: int) -> int:
    """|B_n^(k)| = |NC_n^{B,(k)}| = binom((k+1)n, n)."""
    return math.comb((k + 1) * n, n)


# --------------------------------------------------------------------------
# Sweeps: one entry per check call, (function name, args, expected objects).

@dataclass(frozen=True)
class Check:
    fn: str
    args: tuple[int, ...]
    objects: int


def _pairs(limit, cap: int) -> list[tuple[int, int]]:
    return [
        (n, k)
        for k in range(1, cap + 1)
        for n in range(1, cap + 1)
        if limit(n, k) <= cap
    ]


def verify_expand_checks() -> list[Check]:
    # Chosen because the strip side (`shapes` geometry and r-strip
    # enumeration, `expansions.expand_skew`) carries most of the time: a
    # shape-geometry or strip-census optimisation shows here first.
    staircase = _pairs(lambda n, k: k * (n + 1), 9)
    rect = _pairs(lambda n, k: (k + 1) * n, 10)
    out = []
    for n, k in staircase:
        out.append(Check("theorem_11_check", (n, k), fuss_catalan(n + 1, k)))
        out.append(Check("strip_bijection_check_a", (n, k), fuss_catalan(n + 1, k)))
    for n, k in rect:
        out.append(Check("theorem_12_check", (n, k), fuss_binomial(n, k)))
        out.append(Check("strip_bijection_check_b", (n, k), fuss_binomial(n, k)))
    for n in range(1, 8):
        out.append(Check("theorem_21_check", (n,), fuss_catalan(n, 1)))
    return out


def verify_labeling_checks() -> list[Check]:
    # Chosen because `shapes` does no work here: it is the bypass workload
    # for shape optimisations, while the NC_A / NC_B enumerators, the
    # labeling bijections and `lattice_paths` carry the load.
    a_pairs = _pairs(lambda n, k: k * n, 9)
    b_pairs = _pairs(lambda n, k: (k + 1) * n, 12)
    out = []
    for n, k in a_pairs:
        out.append(Check("labeling_bijection_check_a", (n, k), fuss_catalan(n, k)))
        out.append(Check("counting_check_a", (n, k), fuss_catalan(n, k)))
    for n, k in b_pairs:
        out.append(Check("labeling_bijection_check_b", (n, k), fuss_binomial(n, k)))
    return out


def shuffled(items: list, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


# --------------------------------------------------------------------------
# Skew shapes, written from the definitions.

def column_profile(outer, inner) -> list[tuple[int, int, int]]:
    """(column, lo, hi) of each nonempty column; heights from the bottom row.

    Column c holds rows i with inner_i < c <= outer_i; with r rows in all,
    those are the heights r - #{outer_i >= c} .. r - #{inner_i >= c} - 1.
    """
    r = len(outer)
    out = []
    for c in range(1, (outer[0] if outer else 0) + 1):
        t = sum(1 for x in outer if x >= c)
        s = sum(1 for x in inner if x >= c)
        if t > s:
            out.append((c, r - t, r - s - 1))
    return out


def is_contiguous(profile) -> bool:
    cols = [c for c, _, _ in profile]
    return cols == list(range(cols[0], cols[-1] + 1)) if cols else True


def monotone_path_count(profile) -> int:
    """Weakly increasing (y_c) with lo_c <= y_c <= hi_c + 1: one per r-strip."""
    if not profile:
        return 1
    _, lo, hi = profile[0]
    ways = {y: 1 for y in range(lo, hi + 2)}  # last height -> paths so far
    for _, lo, hi in profile[1:]:
        ways = {
            y: sum(v for h, v in ways.items() if h <= y) for y in range(lo, hi + 2)
        }
    return sum(ways.values())


def strip_literal(profile, word: str) -> str:
    """Per-column strip literal of an E/N path across the profile: the box
    under each east step, "-" where the step runs along the column's bottom
    edge."""
    y = profile[0][1]
    heights = []
    for step in word:
        if step == "N":
            y += 1
        else:
            heights.append(y)
    return ",".join(
        str(y - 1) if y > lo else "-" for (_, lo, _), y in zip(profile, heights)
    )


def staircase_shape(n: int, k: int):
    inner = tuple(v for v in range(n - 1, 0, -1) for _ in range(k))
    return (n,) * (k * n), inner


def rectangle_shape(n: int, k: int):
    return (n,) * (k * n), ()


def format_shape(outer, inner) -> str:
    return ",".join(map(str, outer)) + "/" + ",".join(map(str, inner))


def random_shape(rng: random.Random, rows: int, width: int):
    """A skew shape inside rows x width with full first row and contiguous
    column support; None when the draw is rejected."""
    outer = sorted((rng.randint(1, width) for _ in range(rows - 1)), reverse=True)
    outer = [width] + outer
    inner = sorted((rng.randint(0, x) for x in outer), reverse=True)
    inner = [x for x in inner if x]
    if sum(outer) == sum(inner):
        return None
    profile = column_profile(outer, inner)
    if not is_contiguous(profile):
        return None
    return tuple(outer), tuple(inner), profile


# --------------------------------------------------------------------------
# Paths.

def cycle_lemma_path(rng: random.Random, n: int, k: int) -> str:
    """Uniform element of D_n^(k).

    A uniform word with n E's (+k) and kn+1 N's (-1) has total -1, so by the
    cycle lemma exactly one rotation keeps every proper prefix sum >= 0: the
    one starting just after the first position of the minimal prefix sum.
    Dropping that rotation's final N leaves a uniform Fuss-Catalan path.
    """
    letters = ["E"] * n + ["N"] * (k * n + 1)
    rng.shuffle(letters)
    s, low, cut = 0, 1, 0
    for i, c in enumerate(letters, start=1):
        s += k if c == "E" else -1
        if s < low:
            low, cut = s, i
    word = letters[cut:] + letters[:cut]
    return "".join(word[:-1])


def binomial_word(rng: random.Random, n: int, k: int) -> str:
    """Uniform word with n E's and kn N's (an element of B_n^(k))."""
    letters = ["E"] * n + ["N"] * (k * n)
    rng.shuffle(letters)
    return "".join(letters)


# --------------------------------------------------------------------------
# The CLI request stream.

@dataclass
class Request:
    """One `ncstrip` invocation and what its payload must satisfy.

    kind: expand-shape | expand-formula | count | biject | enumerate | verify.
    expect: the benchmark's own expectation (see gates.check_request).
    objects: closed-form count of the objects the request builds.
    """

    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)
    objects: int = 0


def _log_grid(lo: float, hi: float, count: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


# (largest target, shape dimensions cycled through) for the shape slots: the
# dimensions put each target near the middle of their path-count spread.
SHAPE_DIMS = [
    (150, [(6, 5)]),
    (400, [(7, 6), (9, 5)]),
    (900, [(8, 6), (6, 8), (7, 7)]),
    (3000, [(10, 6), (8, 8)]),
]
SHAPE_TOLERANCE = 1.1


def shape_dims(target: float, slot: int) -> tuple[int, int]:
    for top, dims in SHAPE_DIMS:
        if target <= top * SHAPE_TOLERANCE:
            return dims[slot % len(dims)]
    raise ValueError(f"no shape dimensions for {target} strips")


def shape_requests(rng: random.Random, count: int) -> list[Request]:
    """`expand --shape` on random shapes, stratified on a log grid of strip
    counts from 50 to 3,000 (each accepted within 10% of its slot target)."""
    out = []
    for i, target in enumerate(_log_grid(50, 3000, count)):
        rows, width = shape_dims(target, i)
        while True:
            drawn = random_shape(rng, rows, width)
            if drawn is None:
                continue
            outer, inner, profile = drawn
            paths = monotone_path_count(profile)
            if target / SHAPE_TOLERANCE <= paths <= target * SHAPE_TOLERANCE:
                break
        out.append(
            Request(
                ["expand", "--shape", format_shape(outer, inner)],
                "expand-shape",
                {"coefficient_sum": paths},
                paths,
            )
        )
    return out


def biject_requests(rng: random.Random, count: int) -> list[Request]:
    """The four maps on single large objects, n from 8 to 40.

    psi-a / psi-b run forward on a cycle-lemma path / a binomial word; phi-a /
    phi-b run inverse on a path and forward on the strip literal the
    benchmark computes from a path, whose image must be that path again.
    """
    sizes = [(n, k) for n in range(8, 41, 4) for k in (1, 2)]
    kinds = ["psi-a", "psi-b", "phi-a-inv", "phi-b-inv", "phi-a-fwd", "phi-b-fwd"]
    out = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        n, k = sizes[(i // len(kinds)) % len(sizes)]
        nk = ["-n", str(n), "-k", str(k)]
        if kind == "psi-a":
            word = cycle_lemma_path(rng, n, k)
            argv = ["biject", "--map", "psi-a", "--forward", *nk, f"--input={word}"]
            expect = {"pairs": [("type", "type"), ("reduced_type", "reduced_type")]}
        elif kind == "psi-b":
            word = binomial_word(rng, n, k)
            argv = ["biject", "--map", "psi-b", "--forward", *nk, f"--input={word}"]
            expect = {"pairs": [("type", "type")]}
        elif kind.startswith("phi-a"):
            # Strips of the staircase (n, k) are paths of D_{n+1}^(k) with
            # the first E and the last k N's removed.
            word = cycle_lemma_path(rng, n + 1, k)
            literal = strip_literal(
                column_profile(*staircase_shape(n, k)), word[1 : len(word) - k]
            )
            # The strip's type is the path's reduced type.
            if kind.endswith("inv"):
                argv = ["biject", "--map", "phi-a", "--inverse", *nk, f"--input={word}"]
                expect = {"pairs": [("reduced_type", "type")], "output": literal}
            else:
                argv = ["biject", "--map", "phi-a", "--forward", *nk, f"--input={literal}"]
                expect = {"pairs": [("type", "reduced_type")], "output": word}
        else:
            word = binomial_word(rng, n, k)
            literal = strip_literal(column_profile(*rectangle_shape(n, k)), word)
            expect = {"pairs": [("type", "type")], "output": word}
            if kind.endswith("inv"):
                argv = ["biject", "--map", "phi-b", "--inverse", *nk, f"--input={word}"]
                expect["output"] = literal
            else:
                argv = ["biject", "--map", "phi-b", "--forward", *nk, f"--input={literal}"]
        out.append(Request(argv, "biject", expect, 1))
    return out


def count_requests() -> list[Request]:
    """Formula tables, n from 10 to 22, and census-checked parking counts."""
    out = []
    for n in range(10, 23, 2):
        for k in (1, 2, 3):
            out.append(
                Request(
                    ["count", "--family", "nca-k", "--by", "type", "-n", str(n), "-k", str(k)],
                    "count",
                    {"sum": fuss_catalan(n, k)},
                )
            )
            out.append(
                Request(
                    ["count", "--family", "ncb-k", "--by", "type", "-n", str(n), "-k", str(k)],
                    "count",
                    {"sum": fuss_binomial(n, k)},
                )
            )
    for n in range(5, 11):
        out.append(
            Request(
                ["count", "--family", "pf", "--by", "type", "--check", "-n", str(n)],
                "count",
                {"count": fuss_catalan(n, 1), "check": "pass"},
                fuss_catalan(n, 1),
            )
        )
    return out


def formula_requests() -> list[Request]:
    """`expand --family --method formula` below the enumeration guard."""
    out = []
    for family, n, k in [("fuss-a", n, 1) for n in range(4, 12)] + [
        ("fuss-a", n, 2) for n in range(3, 9)
    ] + [("fuss-b", n, 1) for n in range(4, 11)] + [("fuss-b", n, 2) for n in range(3, 7)]:
        total = fuss_catalan(n + 1, k) if family == "fuss-a" else fuss_binomial(n, k)
        out.append(
            Request(
                ["expand", "--family", family, "--method", "formula", "-n", str(n), "-k", str(k)],
                "expand-formula",
                {"coefficient_sum": total},
            )
        )
    return out


def enumerate_requests(rng: random.Random) -> list[Request]:
    """Small object streams, one of each kind per size."""
    out = []
    for n, k in [(3, 1), (4, 1), (3, 2), (2, 3)]:
        fc, fb = fuss_catalan(n, k), fuss_binomial(n, k)
        nk = ["-n", str(n), "-k", str(k)]
        out.append(Request(["enumerate", "--object", "fuss-catalan", *nk], "enumerate", {"count": fc}, fc))
        out.append(Request(["enumerate", "--object", "binomial", *nk], "enumerate", {"count": fb}, fb))
        out.append(Request(["enumerate", "--object", "nca-k", *nk], "enumerate", {"count": fc}, fc))
        out.append(Request(["enumerate", "--object", "ncb-k", *nk], "enumerate", {"count": fb}, fb))
    for n in (4, 5):
        c = fuss_catalan(n, 1)
        out.append(Request(["enumerate", "--object", "pf", "--primitive", "-n", str(n)], "enumerate", {"count": c}, c))
    for rows, width in [(4, 3), (5, 4), (6, 4), (4, 6)]:
        while True:
            drawn = random_shape(rng, rows, width)
            if drawn is not None and 10 <= monotone_path_count(drawn[2]) <= 60:
                break
        outer, inner, profile = drawn
        c = monotone_path_count(profile)
        out.append(
            Request(
                ["enumerate", "--object", "rstrips", "--shape", format_shape(outer, inner)],
                "enumerate",
                {"count": c},
                c,
            )
        )
    return out


def verify_requests() -> list[Request]:
    """Small `verify` runs; the caps do not bind, so every pair is checked."""
    def pairs(n_max, k_max):
        return [(n, k) for k in range(1, k_max + 1) for n in range(1, n_max + 1)]

    t11 = sum(fuss_catalan(n + 1, k) for n, k in pairs(3, 2))
    t12 = sum(fuss_binomial(n, k) for n, k in pairs(3, 2))
    t21 = sum(fuss_catalan(n, 1) for n in range(1, 6))
    bij = sum(
        fuss_catalan(n, k) + fuss_catalan(n + 1, k) + 2 * fuss_binomial(n, k)
        for n, k in pairs(3, 1)
    )
    spec = [("1.1", 3, 2, t11), ("1.2", 3, 2, t12), ("2.1", 5, 1, t21), ("bijections", 3, 1, bij)]
    return [
        Request(
            ["verify", "--theorem", th, "--n-max", str(n), "--k-max", str(k)],
            "verify",
            {"objects_checked": total},
            total,
        )
        for th, n, k, total in spec
    ]


def cli_requests(seed: int) -> list[Request]:
    # Chosen because it drives the same layers differently from the sweeps:
    # many small distinct shapes instead of a few large ones, bijections on
    # single large objects instead of many small ones, plus formula
    # evaluation (`partitions`, `expansions`) and the `cli` layer itself.
    rng = random.Random(seed)
    requests = (
        shape_requests(rng, 120)
        + biject_requests(rng, 96)
        + count_requests()
        + formula_requests()
        + enumerate_requests(rng)
        + verify_requests()
    )
    rng.shuffle(requests)
    return requests
