"""Integer partitions and exact big-integer counting primitives.

A partition is stored as a tuple of weakly decreasing positive ints; the
empty tuple () is the empty partition.  The canonical order used everywhere
(CLI output, expansion serialization, enumeration) is ascending weight,
then reverse-lexicographic within a weight.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, repeat
from operator import itemgetter, mul
from typing import Iterator

Partition = tuple[int, ...]


def as_partition(parts) -> Partition:
    """Validate and normalize an iterable of parts into a partition tuple."""
    p = tuple(map(int, parts))
    if p != tuple(sorted(p, reverse=True)) or p and p[-1] < 1:
        # word the first failing check, left to right
        for i, x in enumerate(p):
            if x < 1:
                raise ValueError(f"partition parts must be positive, got {x}")
            if i and p[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing, got {p}")
    return p


def weight(p: Partition) -> int:
    return sum(p)


def remove_part(p: Partition, part: int) -> Partition:
    """p without one of its parts equal to part; what is left stays sorted."""
    i = p.index(part)
    return p[:i] + p[i + 1 :]


class _Finished(dict):
    """finish(signature, *args) by signature, each computed at its first
    lookup; a hit is the dict's own C-level lookup."""

    __slots__ = ("finish", "args")

    def __missing__(self, signature):
        value = self[signature] = self.finish(signature, *self.args)
        return value


def finish_each(finish, signatures, *args) -> Iterator:
    """finish(s, *args) for each signature s, in order, finish running once
    per distinct signature: the values are kept in a dict local to the call.
    A refusal of finish is raised at the first object that has its
    signature."""
    finished = _Finished()
    finished.finish, finished.args = finish, args
    return map(finished.__getitem__, signatures)


def finish_census(finish, signatures, *args) -> Counter:
    """Counter(finish_each(finish, signatures, *args)), the signatures
    counted first and each distinct one finished once, in the order of its
    first appearance, so a refusal names the first object that has it."""
    census: Counter = Counter()
    for signature, count in Counter(signatures).items():
        census[finish(signature, *args)] += count
    return census


def multiplicity_product(p: Partition) -> int:
    """Product of factorials of the part multiplicities; 1 for ().

    Equal parts are adjacent, so the j-th part of a run multiplies by j.
    """
    out = run = 1
    for prev, x in zip(p, p[1:]):
        run = run + 1 if x == prev else 1
        out *= run
    return out


def falling_factorials(x: int, m: int) -> list[int]:
    """[perm(x, 0), perm(x, 1), ..., perm(x, m)], one running product."""
    out = [1]
    for i in range(m):
        out.append(out[-1] * (x - i))
    return out


def partition_sort_key(p: Partition):
    """Canonical order key: ascending weight, then reverse-lexicographic."""
    return (sum(p), tuple(-x for x in p))


def partition_rows(w_max: int, cumulative: bool = False, pad: str | None = None):
    """The rows of a table and the multiplicity product of each row, and,
    given pad, the JSON text of each row.

    The rows are every partition of w_max, or of every weight 0..w_max when
    cumulative, in canonical order.  Within a weight they follow the
    successor rule of Knuth, TAOCP 4A, 7.2.1.4, Algorithm P: lower the last
    part top > 1 by one and refill the rest of the weight with parts of at
    most top - 1.  `head` holds the parts above 1 and `ones` counts the 1s;
    `mult`, the product of the factorials of head's multiplicities, follows
    each pop and push, so a row's product is mult * ones!.

    A row's text is what json.dumps(row, indent=2) writes on a line whose
    newline and indent are pad: its head's text, kept on `stack` through the
    same pops and pushes, and the text of its run of 1s and bracket.
    """
    if w_max < 0:
        raise ValueError("the weight must be nonnegative")
    fact = list(accumulate(range(1, w_max + 1), mul, initial=1))
    units = [(1,) * i for i in range(w_max + 1)]
    rows: list[Partition] = []
    products: list[int] = []
    row, product = rows.append, products.append
    render = pad is not None
    if render:
        texts: list[str] = []
        text = texts.append
        deep = pad + "  "
        digits = list(map(str, range(w_max + 1)))
        # a part opening the head, a later part, and j 1s closing a head
        first = ["[" + deep + d for d in digits]
        later = ["," + deep + d for d in digits]
        one = "," + deep + "1"
        tails = [one * j + pad + "]" for j in range(w_max + 1)]
    for m in range(0 if cumulative else w_max, w_max + 1):
        head, ones = ([m], 0) if m > 1 else ([], m)
        if render:
            stack = first[m : m + 1] if m > 1 else []
        mult = 1
        while head:
            row((*head, *units[ones]))
            product(mult * fact[ones])
            if render:
                text(stack.pop() + tails[ones])
            top = head.pop()
            mult //= head.count(top) + 1
            x = top - 1
            rest = ones + 1
            if x == 1:
                ones = rest + 1
                continue
            # q + 1 copies of x open a run, since the parts left are > x
            q, ones = divmod(rest, x)
            if render:
                opened = stack[-1] + later[x] if head else first[x]
                stack += accumulate(repeat(later[x], q), initial=opened)
            head += [x] * (q + 1)
            mult *= fact[q + 1]
            if ones > 1:  # the remainder part is alone in its run
                if render:
                    stack.append(stack[-1] + later[ones])
                head.append(ones)
                ones = 0
        # the last row of a weight is its 1s alone
        row(units[ones])
        product(fact[ones])
        if render:
            text(first[1] + tails[ones - 1] if ones else "[]")
    return (rows, products, texts) if render else (rows, products)


def partitions_of(m: int) -> list[Partition]:
    """All partitions of m in reverse-lexicographic (descending) order."""
    return partition_rows(m)[0]


def partition_counts() -> Iterator[int]:
    """p(0), p(1), p(2), ... by Euler's pentagonal number recurrence."""
    p = [1]
    yield 1
    while True:
        m = len(p)
        total = 0
        j = 1
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j % 2 else -1
            total += sign * p[m - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= m:
                total += sign * p[m - j * (3 * j + 1) // 2]
            j += 1
        p.append(total)
        yield total


def partitions_with_weight_at_most(n: int) -> list[Partition]:
    """Every partition of every 0 <= m <= n, in canonical order."""
    return partition_rows(n, True)[0]


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial of a negative number")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"binomial({n}, {k}) is outside the domain 0 <= k <= n")
    return math.comb(n, k)


def exact_div(a: int, b: int) -> int:
    """Integer division that refuses to truncate."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


def exact_quotients(numerators, denominators) -> list[int]:
    """a // b for each pair, in order, refusing the whole table if any
    division leaves a remainder: one divmod per pair, one check per table."""
    pairs = list(map(divmod, numerators, denominators))
    if any(map(itemgetter(1), pairs)):
        raise ArithmeticError("a count table has a row that is not an integer")
    return list(map(itemgetter(0), pairs))


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return exact_div(math.comb(2 * n, n), n + 1)


def _check_nk(n: int, k: int) -> None:
    """Refuse family parameters (n, k) outside n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")


def _check_shape_nk(n: int, k: int) -> None:
    """Refuse the parameters (n, k) of a family shape outside n >= 1, k >= 1."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")


def fuss_catalan(n: int, k: int) -> int:
    """binomial((k+1)n, n) / (kn+1); equals catalan(n) at k = 1."""
    _check_nk(n, k)
    return exact_div(math.comb((k + 1) * n, n), k * n + 1)


def format_partition(p: Partition) -> str:
    """Literal form: "2,1"; "-" for the empty partition."""
    return ",".join(str(x) for x in p) if p else "-"


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in ("", "-"):
        return ()
    return as_partition(int(x) for x in text.split(","))
