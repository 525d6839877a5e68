"""Shared brute-force oracles, kept deliberately independent of the library
implementations they check."""

from __future__ import annotations

import os
from pathlib import Path

# pyproject.toml puts src/ on the path of the test process; the CLI tests'
# child processes (`python -m ncstrip.cli`) get it through the environment.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)


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


def pascal_binomial(n: int, k: int) -> int:
    """Pascal triangle, no factorials."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]
