"""Fuss-Catalan and Fuss binomial lattice paths and their ascent statistics,
and the listers of monotone paths: words, for the two path families, and
height vectors, for strips and primitive parking functions.

Paths are E/N words with E = (1,0) and N = (0,1).  A Fuss-Catalan path of
parameters (n, k) runs from (0,0) to (n, kn) staying in 0 <= y <= kx (so it
must start with E); a Fuss binomial path has the same endpoints and no
region constraint.  Lexicographic order on words (E < N) is lexicographic
order on their east-step heights: at the first difference, E steps lower.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Iterator

from .partitions import Partition, _check_nk, finish_each, remove_part


def validate_word(word: str) -> None:
    bad = set(word) - {"E", "N"}
    if bad:
        raise ValueError(f"path word must be over {{E, N}}, found {sorted(bad)}")


def is_fuss_catalan(word: str, n: int, k: int) -> bool:
    if word.count("E") != n or word.count("N") != k * n:
        return False
    x = y = 0
    for step in word:
        if step == "E":
            x += 1
        else:
            y += 1
            if y > k * x:
                return False
    return True


def validate_fuss_catalan(word: str, n: int, k: int) -> None:
    validate_word(word)
    if not is_fuss_catalan(word, n, k):
        raise ValueError(f"{word!r} is not a Fuss-Catalan path for n={n}, k={k}")


def is_fuss_binomial(word: str, n: int, k: int) -> bool:
    return word.count("E") == n and word.count("N") == k * n


def validate_fuss_binomial(word: str, n: int, k: int) -> None:
    validate_word(word)
    if not is_fuss_binomial(word, n, k):
        raise ValueError(
            f"path {word!r} does not have {n} E steps and {k * n} N steps"
        )


def monotone_heights(lo, hi) -> Iterator[tuple[int, ...]]:
    """Every weakly increasing integer vector y with lo_i <= y_i <= hi_i (the
    east-step heights of a monotone path), in lexicographic order.

    An odometer on one list, each vector a fresh tuple of it.  Suffix lists
    of tuples, built once per call as `_words` builds words, won only with
    the cyclic collector off: `enumerate_primitive(10)` took 7.4-7.9 ms
    against the odometer's 11.0-11.7 ms with it off, and 13.0-13.7 ms
    against 12.8-13.6 ms with it on (timeit, best of 7, CPython 3.11).
    Every tuple the lists hold is a container the collector tracks and
    traverses, where the str words of `_words` are not."""
    # Raising each lower bound to those before it and lowering each upper
    # bound to those after it keeps the vectors and makes every prefix extend.
    low = list(accumulate(lo, max))
    cap = list(accumulate(reversed(hi), min))[::-1]
    if any(l > c for l, c in zip(low, cap)):
        return
    y = low[:]
    while True:
        yield tuple(y)
        i = len(y) - 1  # raise the last entry below its cap, reset the rest
        while i >= 0 and y[i] == cap[i]:
            i -= 1
        if i < 0:
            return
        v = y[i] = y[i] + 1
        for j in range(i + 1, len(y)):
            y[j] = max(low[j], v)


def heights_word(heights, y0: int, y1: int) -> str:
    """E/N word from height y0 to y1 with its east steps at the heights."""
    parts = []
    for h in heights:
        parts.append("N" * (h - y0) + "E")
        y0 = h
    parts.append("N" * (y1 - y0))
    return "".join(parts)


def _words(n: int, k: int, tops) -> list[str]:
    """Every E/N word from (0,0) to (n, kn) whose N steps at x east steps
    stay at or below height tops[x], in lexicographic order with E < N.

    The words from (x, y) are those from (x+1, y) behind an E, then those
    from (x, y+1) behind an N.  So level x, one list per height, is built
    from level x+1, each word one concatenation onto a suffix of the level
    before, and each list of level x+1 is freed once it has been read."""
    level = [["N" * (k * n - y)] for y in range(tops[n] + 1)]
    words = level[0]
    for x in range(n - 1, -1, -1):
        below, level = level[: tops[x] + 1], [None] * (tops[x] + 1)
        words = []
        for y in range(tops[x], -1, -1):
            words = [*map("E".__add__, below[y]), *map("N".__add__, words)]
            below[y] = None
            if x:  # of level 0 only the words from (0, 0) are read
                level[y] = words
    return words


def enumerate_fuss_catalan(n: int, k: int) -> Iterator[str]:
    """All paths of D_n^(k) in lexicographic order with E < N."""
    _check_nk(n, k)
    yield from _words(n, k, range(0, k * n + 1, k))  # y <= kx


def enumerate_fuss_binomial(n: int, k: int) -> Iterator[str]:
    """All words with n E's and kn N's in lexicographic order with E < N."""
    _check_nk(n, k)
    yield from _words(n, k, [k * n] * (n + 1))


def ascent_runs(words) -> Iterator[tuple[str, ...]]:
    """Each word's ascents, its nonempty runs between N steps in order, read
    in C-level passes: the signature its statistics depend on.  A letter
    other than E or N stays in a run, where the finisher refuses it."""
    # through a list, as `noncrossing_a._sizes` builds its tuples
    return map(tuple, map(list, map(filter, repeat(None), map(str.split, words, repeat("N")))))


def _fc_type_of(runs: tuple[str, ...]) -> Partition:
    """fc_type of a word with these ascents: their sorted lengths."""
    letters = "".join(runs)
    if letters.count("E") != len(letters):
        validate_word(letters)  # raises, naming the bad letters
    return tuple(sorted(map(len, runs), reverse=True))


def _fc_types_of(runs: tuple[str, ...]) -> tuple[Partition, Partition]:
    """(fc_type, fc_reduced_type) of a word with these ascents: the reduced
    type drops one part equal to the length of the first ascent."""
    zeta = _fc_type_of(runs)
    return zeta, (remove_part(zeta, len(runs[0])) if runs else zeta)


def fc_types_each(words) -> Iterator[tuple[Partition, Partition]]:
    """(fc_type, fc_reduced_type) of each word, in order, finished once per
    distinct sequence of ascents (at most 2^(n-1) at n east steps)."""
    return finish_each(_fc_types_of, ascent_runs(words))


def fc_type(word: str) -> Partition:
    """Sorted ascent lengths: `fc_types_each` of the one word."""
    return next(fc_types_each([word]))[0]


def fc_reduced_type(word: str) -> Partition:
    """Sorted ascent lengths, excluding the ascent containing the first
    step: `fc_types_each` of the one word."""
    return next(fc_types_each([word]))[1]


def fb_type_each(words) -> Iterator[Partition]:
    """fb_type of each word, in order: the type of the word without its
    leading E-run, finished once per distinct sequence of ascents."""
    return finish_each(_fc_type_of, ascent_runs(map(str.lstrip, words, repeat("E"))))


def fb_type(word: str) -> Partition:
    """Sorted lengths of the ascents not lying on y = 0: `fb_type_each` of
    the one word."""
    return next(fb_type_each([word]))
