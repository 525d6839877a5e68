"""Shared brute-force oracles, kept deliberately independent of the library
implementations they check."""

from __future__ import annotations

import math
import os
import random
import sys
from itertools import combinations_with_replacement, permutations, zip_longest
from pathlib import Path

# pyproject.toml puts src/ on the path of the test process; the CLI tests'
# child processes (`python -m ncstrip.cli`) get it through the environment.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)


def counted(monkeypatch, name, *modules):
    """One list of the calls to `name` from here on, through the given
    modules (or classes), or through every loaded ncstrip module that holds
    it when none is given: each module that imported a function holds its
    own reference."""
    if not modules:
        modules = [
            m for key, m in sys.modules.items()
            if key.split(".")[0] == "ncstrip" and getattr(m, name, None) is not None
        ]
    calls = []
    for module in modules:
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=f: calls.append(args) or _f(*args))
    return calls


def list_variants(members: list) -> list[list]:
    """The lists a whole-list statistic is checked on: the members as
    listed, shuffled, with repeats (every second member of the shuffled
    list again, ahead of all of them) and empty."""
    shuffled = list(members)
    random.Random(len(members)).shuffle(shuffled)
    return [list(members), shuffled, shuffled[::2] + list(members), []]


def set_partitions(elements):
    """All set partitions of the given elements via restricted growth strings."""
    elements = list(elements)
    n = len(elements)
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def rec(i: int, maxval: int):
        if i == n:
            blocks = [[] for _ in range(maxval + 1)]
            for x, b in zip(elements, rgs):
                blocks[b].append(x)
            yield tuple(tuple(b) for b in blocks)
            return
        for v in range(maxval + 2):
            rgs[i] = v
            yield from rec(i + 1, max(maxval, v))

    yield from rec(1, 0)


def crossing_quadruple_scan(blocks) -> bool:
    """True iff some a < b < c < d has a,c in one block and b,d in another.

    The literal definition, scanned over all quadruples of ground elements.
    """
    block_of = {}
    for i, b in enumerate(blocks):
        for x in b:
            block_of[x] = i
    ground = sorted(block_of)
    n = len(ground)
    for ia in range(n):
        for ib in range(ia + 1, n):
            for ic in range(ib + 1, n):
                for id_ in range(ic + 1, n):
                    a, b, c, d = ground[ia], ground[ib], ground[ic], ground[id_]
                    if (
                        block_of[a] == block_of[c]
                        and block_of[b] == block_of[d]
                        and block_of[a] != block_of[b]
                    ):
                        return True
    return False


def crossing_pair_scan(blocks) -> bool:
    """True iff some a < b < c < d has a,c in one block and b,d in another.

    Checks every pair of blocks: merged in increasing order, two blocks
    cross exactly when the merged sequence switches block three or more
    times.  Quadratic in the number of blocks, so it reaches objects far
    too large for the quadruple scan.
    """
    blocks = [list(b) for b in blocks]
    for i, a in enumerate(blocks):
        for b in blocks[i + 1 :]:
            tags = [t for _, t in sorted([(x, 0) for x in a] + [(x, 1) for x in b])]
            if sum(1 for s, t in zip(tags, tags[1:]) if s != t) >= 3:
                return True
    return False


def canonical_b_by_definition(blocks, m: int):
    """Canonical listing of a signed partition of [-m..m] minus 0, by sorting.

    Elements are ordered -1 < -2 < ... < -m < 1 < ... < m; each block is
    listed clockwise on the 2m-gon (label v at position v, label -v at
    m + v) starting from its minimal element, and blocks are sorted by that
    element.
    """
    key = lambda v: (0, -v) if v < 0 else (1, v)
    pos = lambda v: v if v > 0 else m - v
    out = []
    for b in blocks:
        p0 = pos(min(b, key=key))
        out.append(tuple(sorted(b, key=lambda v: (pos(v) - p0) % (2 * m))))
    return tuple(sorted(out, key=lambda b: key(b[0])))


def ascents_by_walk(word: str) -> list[tuple[int, int]]:
    """Maximal E-runs of an E/N word left to right as (y, length) pairs, y
    the height of the run, by walking the word one letter at a time."""
    out = []
    y = run = 0
    for step in word:
        if step == "E":
            run += 1
        else:
            if run:
                out.append((y, run))
                run = 0
            y += 1
    if run:
        out.append((y, run))
    return out


def words_by_heights(n: int, k: int, catalan: bool) -> list[str]:
    """Every word with n E's and kn N's, kept at or below y = kx when
    catalan, in lexicographic order with E < N: its east-step heights are
    listed in lexicographic order as the weakly increasing n-tuples over
    0..kn, and each is written out as a word."""
    out = []
    for heights in combinations_with_replacement(range(k * n + 1), n):
        if catalan and any(h > k * i for i, h in enumerate(heights)):
            continue
        word, y = [], 0
        for h in heights:
            word.append("N" * (h - y) + "E")
            y = h
        out.append("".join(word) + "N" * (k * n - y))
    return out


def rearrangements_by_permutations(lo, hi) -> list[tuple[int, ...]]:
    """Every sequence whose sorted rearrangement b has lo_i <= b_i <= hi_i,
    sorted: the set of all permutations of each such b."""
    values = range(min(lo, default=0), max(hi, default=0) + 1)
    primitives = [
        b for b in combinations_with_replacement(values, len(lo))
        if all(l <= x <= h for l, x, h in zip(lo, b, hi))
    ]
    return sorted({p for b in primitives for p in permutations(b)})


def skew_shapes_in_box(rows, cols):
    """(outer, inner) of every skew shape whose outer partition fits in a
    rows x cols box."""
    parts = [
        p
        for r in range(rows + 1)
        for p in combinations_with_replacement(range(cols, 0, -1), r)
    ]
    for outer in parts:
        for inner in parts:
            if len(inner) <= len(outer) and all(map(int.__le__, inner, outer)):
                yield outer, inner


def pascal_binomial(n: int, k: int) -> int:
    """Pascal triangle, no factorials."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


# The closed forms as quotients of factorials, the way the counting papers
# state them.  The library evaluates them as falling factorials.


def _part_multiplicity_factorials(lam) -> int:
    return math.prod(math.factorial(lam.count(x)) for x in set(lam))


def _quotient(num: int, den: int) -> int:
    q, r = divmod(num, den)
    assert r == 0, f"{num} / {den} is not an integer"
    return q


def type_count_a(n: int, k: int, lam) -> int:
    """|NC_n^(k)| of type lam, a partition of n: (kn)! / (m(lam) (kn+1-l)!)."""
    kn, length = k * n, len(lam)
    return _quotient(
        math.factorial(kn),
        _part_multiplicity_factorials(lam) * math.factorial(kn + 1 - length),
    )


def reduced_type_count_a(n: int, k: int, lam) -> int:
    """|NC_n^(k)| of reduced type lam, of weight w < n:
    (kn)! (n-w) / (n m(lam) (kn-l)!)."""
    kn, length = k * n, len(lam)
    return _quotient(
        math.factorial(kn) * (n - sum(lam)),
        n * _part_multiplicity_factorials(lam) * math.factorial(kn - length),
    )


def type_count_b(n: int, k: int, lam) -> int:
    """|NC_n^{B,(k)}| of type lam, of weight <= n: (kn)! / (m(lam) (kn-l)!)."""
    kn, length = k * n, len(lam)
    return _quotient(
        math.factorial(kn),
        _part_multiplicity_factorials(lam) * math.factorial(kn - length),
    )


def parking_coefficient(n: int, lam) -> int:
    """h_lam coefficient of the parking function symmetric function, lam a
    partition of n: n! / (m(lam) (n+1-l)!)."""
    return _quotient(
        math.factorial(n),
        _part_multiplicity_factorials(lam) * math.factorial(n + 1 - len(lam)),
    )


def labeling_blocks_by_definition(word: str, k: int):
    """psi-a's blocks of a Fuss-Catalan path, from the labeling tree as the
    paper defines it.

    Every east step is cut into k segments, and a segment starting at
    (x, y) in unit coordinates (x counted in 1/k east steps) lies in the
    diagonal region x - y.  A segment's parent is the previous segment of
    its ascent; the first segment of a later ascent hangs from the most
    recent earlier segment in its region.  Labels are the preorder of that
    tree: a segment, then the subtree of the ascent attached to it, then the
    rest of its own ascent.  The blocks are the label sets of the ascents,
    listed canonically.
    """
    ascent_of = []  # segment -> index of its ascent
    region_of = []
    parent = {}
    ascent = -1
    x = y = 0
    previous = "N"
    for step in word:
        if step == "N":
            y += 1
        else:
            if previous == "N":
                ascent += 1
            for _ in range(k):
                s = len(ascent_of)
                if s and ascent_of[-1] == ascent:
                    parent[s] = s - 1
                elif s:
                    parent[s] = max(t for t in range(s) if region_of[t] == x - y)
                ascent_of.append(ascent)
                region_of.append(x - y)
                x += 1
        previous = step
    attached, right = {}, {}
    for s, p in parent.items():
        side = right if ascent_of[p] == ascent_of[s] else attached
        assert p not in side, "a segment has two children on one side"
        side[p] = s
    labels = {}

    def visit(s):
        labels[s] = len(labels) + 1
        if s in attached:
            visit(attached[s])
        if s in right:
            visit(right[s])

    if ascent_of:
        visit(0)
    blocks = {}
    for s, a in enumerate(ascent_of):
        blocks.setdefault(a, []).append(labels[s])
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


def psi_b_blocks_by_definition(word: str, n: int, k: int):
    """psi-b's blocks of a Fuss binomial path, from the paper's description.

    Every east step is cut into k segments.  A unit of the walk (a segment,
    or a north step) lies below the diagonal y = kx when its upper-left end
    does, and the maximal runs of units on one side are the pieces.  The
    pieces below, left to right, then the pieces above, right to left and
    each read backwards, are labeled one after another, each by
    `labeling_blocks_by_definition` with k = 1, on the positions
    n0+1..n0+kn of the 2kn-gon (n0 segments lie above): position p <= kn
    is the label p, p > kn the label kn - p.  An ascent's labels are a
    block and their negatives its mirror.  An ascent that crosses the
    diagonal, the first of the piece below it and the first read of the
    piece above it, is one block; the ascent on y = 0 is the antipodal
    block, its labels with their negatives.  The blocks are listed by
    `canonical_b_by_definition`.
    """
    m = k * n
    units = word.replace("E", "E" * k)
    pieces = []  # (below, units) in path order
    x = y = 0
    for u in units:
        below = (y + (u == "N")) <= x
        if pieces and pieces[-1][0] == below:
            pieces[-1][1].append(u)
        else:
            pieces.append((below, [u]))
        if u == "N":
            y += 1
        else:
            x += 1
    below = ["".join(p) for side, p in pieces if side]
    above = ["".join(p) for side, p in pieces if not side]
    n0 = sum(p.count("E") for p in above)
    label = lambda p: p if p <= m else m - p
    first_blocks = []  # per piece read, the labels of its first ascent
    blocks = []
    p = n0
    for piece in below + [piece[::-1] for piece in reversed(above)]:
        for b in labeling_blocks_by_definition(piece, 1):
            labels = [label(p + x) for x in b]
            (first_blocks if b[0] == 1 else blocks).append(labels)
        p += piece.count("E")
    # the first piece below holds the ascent on y = 0 when the path starts
    # east; the i-th piece above ends where the next piece below starts
    roots_below, roots_above = first_blocks[: len(below)], first_blocks[len(below):][::-1]
    out = []
    if word.startswith("E"):
        antipodal = roots_below.pop(0)
        out.append(antipodal + [-v for v in antipodal])
    halves = blocks + [a + b for a, b in zip_longest(roots_above, roots_below, fillvalue=[])]
    for b in halves:
        out += [b, [-v for v in b]]
    return canonical_b_by_definition(out, m)
