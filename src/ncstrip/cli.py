"""The ncstrip command line front end.  Each `cmd_*` returns its parameters,
result, table and exit code, and `main` writes the payload once to stdout:
as JSON, or as the table's lines.  Payloads are byte-identical across runs
(canonical orders, no timestamps); diagnostics and wall-clock duration go to
stderr.  Exit codes: 0 success/verified, 1 verification mismatch, 2 usage
error, 3 cap refusal.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from collections import Counter
from collections.abc import Callable, Sequence
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

from . import bijections as bij
from .expansions import (
    expand_skew_by_columns,
    expansion_items,
    fuss_a_expansion_formula,
    fuss_b_expansion_formula,
)
from .lattice_paths import (
    enumerate_fuss_binomial,
    enumerate_fuss_catalan,
    fb_type_each,
    fc_types_each,
)
from .noncrossing_a import (
    _sizes,
    _type_a_of,
    enumerate_k_divisible,
    format_blocks,
    read_blocks,
    reduced_type_counts,
    type_counts,
    types_a_each,
    validate_nc_a,
)
from .noncrossing_b import (
    antipodal_block,
    enumerate_nc_b,
    type_b_census,
    type_b_each,
    type_counts_b,
    validate_nc_b,
)
from .parking import (
    count_parking_functions,
    enumerate_parking_functions,
    enumerate_primitive,
    is_weakly_increasing,
    multiplicity_type,
    primitive_type_census,
)
from .partitions import (
    _check_nk,
    _check_shape_nk,
    binomial,
    finish_census,
    format_partition,
    fuss_catalan,
    multiplicity_product,
    parse_partition,
    partition_counts,
    partition_rows,
)
from .shapes import (
    count_r_strips,
    enumerate_r_strips,
    format_strip,
    parse_shape,
    parse_strip,
    path_from_strip,
    read_shape,
    rectangle,
    strip_type,
    stretched_staircase,
    strip_art,
    strip_entries,
)
from .verification import THEOREMS, verify_limits, verify_theorem

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3

DEFAULT_MAX_OBJECTS = 500_000
# A listing's objects hold at most this many elements (labels, letters) per
# object of the cap, all together: 32,000,000 at the default cap.  13.5
# million letters (`enumerate --object fuss-catalan -n 8 -k 3`) peak at
# about 480 MB.
ELEMENTS_PER_OBJECT = 64


# An answer of `count` holds at most one decimal digit per this many objects
# of the cap: 125,000 digits at the default cap.  CPython converts an int to
# a str in time quadratic in its digits, about 0.25 s at 125,000 digits and
# 4 s at 500,000 (2-core CPython 3.11).
OBJECTS_PER_DIGIT = 4

# The entries of a `count` table hold at most this many squared digits per
# object of the cap, all together, since their conversion time is quadratic
# in their digits: at the default cap they convert in about the 0.25 s of
# one 125,000-digit entry (125,000^2 / 500,000).
SQUARED_DIGITS_PER_OBJECT = 31_250


class CapExceeded(Exception):
    pass


class MalformedCap(Exception):
    """A malformed NCSTRIP_MAX_OBJECTS: a usage error, but no ValueError, so
    `_named` does not put it on the option that a guard was reading."""


# the cap of the command that main is running, once a guard has read it
_cap: int | None = None


def _max_objects() -> int:
    """NCSTRIP_MAX_OBJECTS, read at a command's first guard and kept until
    main clears it at the command's end; a malformed value is refused at
    every read."""
    global _cap
    if _cap is None:
        raw = os.environ.get("NCSTRIP_MAX_OBJECTS", "")
        try:
            _cap = int(raw) if raw else DEFAULT_MAX_OBJECTS
        except ValueError:
            raise MalformedCap(f"NCSTRIP_MAX_OBJECTS={raw!r} is not an integer") from None
    return _cap


def _guard(
    expected: int, what: str, at_least: bool = False, unit: str = "objects",
    scale: int = 1, per: int = 1,
) -> None:
    """Refuse `expected` units of work past scale times the cap, or past
    the cap divided by per (rounded down).  The message gives `expected`
    only when it fits in 64 bits: a longer int converts to a str in
    quadratic time, and not at all past 4,300 digits."""
    cap = _max_objects() * scale // per
    if expected > cap:
        times = f" ({scale} times NCSTRIP_MAX_OBJECTS)" if scale > 1 else ""
        if per > 1:
            times = f" (NCSTRIP_MAX_OBJECTS / {per})"
        if expected.bit_length() > 64:
            amount = f"more than {cap}"
        else:
            amount = f"{'at least ' if at_least else ''}{expected}"
        raise CapExceeded(
            f"{what} would produce {amount} {unit}, over the cap of {cap}{times} "
            "(raise NCSTRIP_MAX_OBJECTS to override)"
        )


def _count_within(n: int, k: int, form: Callable, *args) -> int:
    """form(*args), the library's closed form for a guarded family at
    (n, k), or limit + 1, where limit = max(NCSTRIP_MAX_OBJECTS, 2^64), once
    a lower bound alone passes limit.  Every guarded family has at least
    2^(n-1) members, since binomial(2n, n) >= 2^n and Fuss-Catalan(n, k) >=
    Catalan(n) >= 2^(n-1), and at least k + 1 once n >= 2, since
    Fuss-Catalan(2, k) = k + 1 and binomial((k+1)n, n) >= (k+1)n.  So a huge
    n or k is refused before any count is computed, and a refusal still
    gives every count that fits in 64 bits."""
    limit = max(_max_objects(), 1 << 64)
    if n > limit.bit_length() or (n >= 2 and k >= limit):
        return limit + 1
    return form(*args)


def _guard_partitions(w_max: int, cumulative: bool, what: str) -> int:
    """The number of partitions of w_max, or of every weight up to w_max
    when cumulative, counted without listing them and refused past the cap.
    p(w) never decreases, so the count stops at the first weight that passes
    the cap: a huge w_max is refused at once."""
    cap = _max_objects()
    rows = 0
    for w, p in zip(range(w_max + 1), partition_counts()):
        rows = rows + p if cumulative else p
        if rows > cap:
            _guard(rows, what, at_least=w < w_max)
    return rows


def _guard_digits(kn: int, longest: int, rows: int, what: str) -> None:
    """_guard on the digits of `rows` counts of at most `longest` parts, in
    one entry and in all.  An entry of l parts is at most (kn+1)^l by
    type_counts, reduced_type_counts and type_counts_b, so it has at most
    l log10(kn+1) + 1 digits, known before it is computed (math.log10 reads
    an int of any size).  Their conversion to str, quadratic in the digits,
    is guarded on rows times the square of that bound."""
    digits = int(longest * math.log10(kn + 1)) + 1
    _guard(digits, what, unit="digits in one entry", per=OBJECTS_PER_DIGIT)
    _guard(rows * digits, what, unit="digits in all entries", scale=ELEMENTS_PER_OBJECT)
    _guard(rows * digits * digits, what, unit="squared digits in all entries",
           scale=SQUARED_DIGITS_PER_OBJECT)


def _guard_shape(text: str) -> None:
    """_guard on a shape literal's width (first outer part) and box count,
    read off its integers before parse_shape builds the column profile of,
    say, "100000000/99999999": one box, 10^8 columns."""
    try:
        outer, inner = read_shape(text)
    except ValueError:
        return  # parse_shape words the error
    _guard(outer[0] if outer else 0, "the shape", unit="columns")
    _guard(sum(outer) - sum(inner), "the shape", unit="boxes")


def _named(option: str, f: Callable, value, *args):
    """f(value, *args), where value comes from `option`: a refusal names the
    option after the library's message."""
    try:
        return f(value, *args)
    except ValueError as e:
        raise ValueError(f"{e} (in {option})") from None


class Records(NamedTuple):
    """A list of records held as its columns: row i is the dict of each key
    with its column's i-th value.  The writer writes it as that list."""

    keys: tuple[str, ...]
    columns: tuple[Sequence, ...]


class Rendered(list):
    """A list that carries the JSON texts of its values, rendered for items
    on a line whose newline and indent are pad.  The writer takes the texts
    only at that pad, and renders the values itself anywhere else."""

    __slots__ = ("texts", "pad")

    def __init__(self, values, texts: Sequence[str], pad: str):
        super().__init__(values)
        self.texts, self.pad = texts, pad


# the pad of a field of a result's records, four levels in: the payload,
# the result, the list of records and the record
RECORD_FIELD_PAD = "\n" + "  " * 4


def _write_json(value, out: list[str], pad: str) -> None:
    """Append to out exactly what json.dumps(value, indent=2) writes, with
    pad the newline and indent of the enclosing line; Records are written
    as their list of dicts.  The stdlib's C encoder does not indent, and its
    Python one is several times slower."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    # before the tuple branches, since a NamedTuple is a tuple
    elif type(value) is Records:
        _write_records(value, out, pad)
    elif not isinstance(value, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            # a key that is not a str raises TypeError here
            out += (sep, encode_basestring_ascii(key), ": ")
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    else:
        inner = pad + "  "
        out.append("[" + inner + ("," + inner).join(_column_texts(value, inner)) + pad + "]")


def _write_records(records: Records, out: list[str], pad: str) -> None:
    """_write_json of Records, column by column: the keys and indents are
    rendered once, each column's values in one pass (_column_texts), and
    each row's pieces are appended to out as they are, joined only with the
    whole payload."""
    keys, columns = records
    if not any(columns):
        out.append("[]")
        return
    inner = pad + "  "
    field = inner + "  "
    # a key that is not a str raises TypeError here
    first, *rest = [field + encode_basestring_ascii(key) + ": " for key in keys]
    # per row: opening, text, head, text, ..., close; a row after the first
    # opens with the comma that ends the one before
    opening = chain(("[" + inner + "{" + first,), repeat("," + inner + "{" + first))
    parts = [opening, _column_texts(columns[0], field)]
    for head, column in zip(rest, columns[1:]):
        parts += (repeat("," + head), _column_texts(column, field))
    parts.append(repeat(inner + "}"))
    out += chain.from_iterable(zip(*parts))
    out.append(pad + "]")


def _column_texts(column: Sequence, pad: str):
    """The JSON texts of a list's items or of one record column's values,
    with pad the newline and indent of their line.  An all-str column is
    escaped in one map, an all-int column rendered in one, and a column of
    flat lists and tuples of exact ints in C-level passes, the text of each
    distinct int rendered once; any other column goes through _write_json
    one value at a time.  A column Rendered at pad gives its own texts."""
    if type(column) is Rendered and column.pad == pad:
        return column.texts
    kinds = {*map(type, column)}
    if kinds == {str}:
        return map(encode_basestring_ascii, column)
    if kinds == {int}:
        return map(int.__repr__, column)
    # bools and floats that equal an int fail the type test, so they never
    # reach the dict keyed by value
    if kinds <= {list, tuple} and {*map(type, chain.from_iterable(column))} <= {int}:
        distinct = {*chain.from_iterable(column)}
        text = dict(zip(distinct, map(int.__repr__, distinct))).__getitem__
        deep = pad + "  "
        bodies = map(("," + deep).join, map(map, repeat(text), column))
        # each body joins its item's brackets, and an empty item is "[]"
        brackets = (("[", "]"), ("[" + deep, pad + "]"))
        # lazy, so an item's text lives only until its row is joined
        return map(str.join, bodies, map(brackets.__getitem__, map(bool, column)))
    texts = []
    for item in column:
        text = []
        _write_json(item, text, pad)
        texts.append("".join(text))
    return texts


def _text(value) -> str:
    """The table text of a payload value."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, str):
        return value
    if value is None:
        return "-"
    return format_partition(value)


def _table(rows, header: list[str]) -> list[str]:
    """Aligned lines: the header, a rule, then each row of values as _text."""
    cells = [header, *([_text(value) for value in row] for row in rows)]
    widths = [max(map(len, column)) for column in zip(*cells)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    cells.insert(1, ["-" * w for w in widths])
    return [fmt.format(*row) for row in cells]


def _lambda_rows(
    lams, texts, column: str, totals: dict
) -> tuple[Records, Callable[[], list[str]]]:
    """The records {"lambda", column} of the partitions and the texts of
    their numbers, in order, and their table, closed by a row per entry of
    totals."""
    records = Records(("lambda", column), (lams, tuple(texts)))
    return records, lambda: _table(
        [*zip(*records.columns), *totals.items()], ["lambda", column]
    )


# family -> (shape, its strip count, what a refusal names, the closed-form
# expansion); the strips are counted as the paths they biject to, D_{n+1}^(k)
# by phi-a and B_n^(k) by phi-b
EXPANSIONS = {
    "fuss-a": (
        stretched_staircase,
        lambda n, k: LISTINGS["fuss-catalan"].count(n + 1, k),
        "expansion of the stretched staircase",
        fuss_a_expansion_formula,
    ),
    "fuss-b": (
        rectangle,
        lambda n, k: LISTINGS["binomial"].count(n, k),
        "expansion of the rectangle",
        fuss_b_expansion_formula,
    ),
}


def cmd_expand(args):
    if args.shape is not None:
        if args.family is not None:
            raise ValueError("--shape and --family are mutually exclusive")
        if args.method == "formula":
            raise ValueError("--method formula requires --family")
        params = {"shape": args.shape, "method": "enumerate"}
    elif not args.family:
        raise ValueError("need --shape or --family")
    else:
        n, k = _require_nk(args)
        params = {"family": args.family, "n": n, "k": k, "method": args.method}
        build, strips, what, formula = EXPANSIONS[args.family]
    if args.method == "formula":
        # both formulas have one term per partition of weight <= n, each a
        # count at (n + 1, k) or (n, k)
        rows = _guard_partitions(n, True, "formula expansion")
        _guard_digits(k * (n + 1), n, rows, "formula expansion")
        # built in canonical order from the row lister
        terms = formula(n, k)
    else:
        if args.shape is not None:
            _guard_shape(args.shape)
            shape = parse_shape(args.shape)
            # the first check that the shape's columns are contiguous
            count, what = _named("--shape", count_r_strips, shape), "expansion of the shape"
            _guard(count, what)
        else:
            count = strips(n, k)
            _guard(count, what)
            shape = build(n, k)
        # at each column the census holds at most one entry per strip
        # prefix, and every prefix extends to a strip
        _guard(count * len(shape.cols), what, unit="census entries", scale=ELEMENTS_PER_OBJECT)
        # the census has no more terms than the shape has strips
        terms = dict(expansion_items(expand_skew_by_columns(shape)))
    total = str(sum(terms.values()))
    records, table = _lambda_rows(list(terms), map(str, terms.values()), "coeff", {"sum": total})
    result = {"terms": records, "term_count": len(terms), "coefficient_sum": total}
    return params, result, table, EXIT_OK


class Kind(NamedTuple):
    """One kind of object: parse(text, n, k) reads its literal and checks it
    at the family parameters (n, k), and format writes it.  stats(objects,
    k), its one whole-list statistic, gives a tuple per object, in order, of
    the statistics that names name, each a partition."""

    parse: Callable
    format: Callable
    names: tuple[str, ...]
    stats: Callable


def _word(text: str, n: int, k: int) -> str:
    return text.strip().upper()


def _strips(shape: Callable) -> Kind:
    """The strips of the family shape shape(n, k), typed by a map of
    strip_type, since a strip has no small signature."""

    def parse(text: str, n: int, k: int):
        # one entry per column, counted before the shape of kn rows is
        # built; the rows are capped, as the forward's work is bounded
        # only by its output word
        strip_entries(text, n)
        _guard(k * n, "the family shape", unit="rows")
        return parse_strip(shape(n, k), text)

    return Kind(parse, format_strip, ("type",), lambda strips, k: zip(map(strip_type, strips)))


# every kind of object, named as the `enumerate` object where it is one; a
# partition or strip is checked against (n, k) as it is read
KINDS = {
    "fuss-catalan": Kind(_word, str, ("type", "reduced_type"),
                         lambda words, k: fc_types_each(words)),
    "binomial": Kind(_word, str, ("type",), lambda words, k: zip(fb_type_each(words))),
    "nca-k": Kind(lambda text, n, k: validate_nc_a(read_blocks(text), n, k), format_blocks,
                  ("type", "reduced_type"), lambda members, k: types_a_each(members, k)),
    "ncb-k": Kind(lambda text, n, k: validate_nc_b(read_blocks(text), n, k), format_blocks,
                  ("type",), lambda members, k: zip(type_b_each(members, k))),
    "staircase-strip": _strips(stretched_staircase),
    "rectangle-strip": _strips(rectangle),
}


def _reduced_type_rows(n: int) -> tuple[int, bool]:
    """Reduced types weigh less than n; the empty partition of NC_0 has none."""
    if n < 1:
        raise ValueError("the reduced type needs n >= 1")
    return n - 1, True


def _parking_count(n: int) -> int:
    """(n+1)^(n-1), once its digits, estimated by log10 before it is
    computed, pass NCSTRIP_MAX_OBJECTS / OBJECTS_PER_DIGIT.  From n = 2^64
    on, n stands for them, a lower bound since n + 1 >= 10: a float of n
    may overflow."""
    digits = int((n - 1) * math.log10(n + 1)) + 1 if n < 1 << 64 else n
    _guard(digits, "the parking function count", unit="digits", per=OBJECTS_PER_DIGIT)
    return count_parking_functions(n)


def _census(name: str, tally: Callable) -> Callable:
    """census(n, k): `enumerate --object name -n n -k k`, tallied by
    tally(objects, k)."""
    return lambda n, k: (name, {"n": n, "k": k}, lambda objects: tally(objects, k))


# family -> {--by: (rows, counts, census)}; the first --by is the default.
# rows(n) gives the largest row weight and whether every lighter weight has
# rows too, or refuses n.  counts(n, k, rows, products) counts partition_rows'
# own rows and multiplicity products, or one --lambda row, in order.
# census(n, k) names the `enumerate` listing that --check tallies, by its
# name and parameters, capped as that listing is, and the tally of its
# objects: a Counter by row.  The type of NC_A is tallied by block sizes
# alone, so the empty member of NC_0 needs no reduced type.
_TYPE_A = (lambda n: (n, False), type_counts,
           _census("nca-k", lambda members, k: finish_census(_type_a_of, _sizes(members), k)))
_REDUCED_TYPE_A = (
    _reduced_type_rows, reduced_type_counts,
    _census("nca-k", lambda members, k: Counter(map(itemgetter(1), types_a_each(members, k)))),
)
COUNTS = {
    "nca": {"type": _TYPE_A, "reduced-type": _REDUCED_TYPE_A},
    "nca-k": {"type": _TYPE_A, "reduced-type": _REDUCED_TYPE_A},
    "ncb-k": {"type": (lambda n: (n, True), type_counts_b, _census("ncb-k", type_b_census))},
    # Without --by, the one row, of the empty partition, counts every parking
    # function, and there is no --lambda; with no statistic to tally, every
    # sequence counts toward it.  By type, the parking function numbers are
    # those of NC_A, tallied over the enumerator's own sequences by their
    # step patterns.
    "pf": {
        None: (lambda n: (0, False), lambda n, k, rows, products: [_parking_count(n)],
               lambda n, k: ("pf", {"n": n, "primitive": False},
                             lambda objects: Counter({(): len(objects)}))),
        "type": (lambda n: (n, False), type_counts,
                 lambda n, k: ("pf", {"n": n, "primitive": True}, primitive_type_census)),
    },
}
BY_REFUSALS = {
    "ncb-k": "the signed type is already reduced; use --by type",
    "pf": "parking functions have no reduced type",
}


def cmd_count(args):
    n = args.n
    if n is None:
        raise ValueError("count requires -n")
    # nca is the k = 1 case and pf has no k; the other families default to 1
    k = 1 if args.family in ("nca", "pf") or args.k is None else args.k
    _check_nk(n, k)
    tallies = COUNTS[args.family]
    by = args.by or next(iter(tallies))
    if by not in tallies:
        raise ValueError(BY_REFUSALS[args.family])
    rows, counts, census = tallies[by]
    w_max, cumulative = rows(n)
    if args.lam is not None:
        if by is None:
            raise ValueError("--lambda needs --by type")
        # one row of the table, checked against the weights it has
        lam = _named("--lambda", parse_partition, args.lam)
        w = sum(lam)
        if w > w_max or w < w_max and not cumulative:
            bound = f"weigh at most {w_max}" if cumulative else f"be a partition of {w_max}"
            raise ValueError(f"{by.replace('-', ' ')} must {bound}, got weight {w}")
        lams, products = [lam], [multiplicity_product(lam)]
    else:
        _guard_partitions(w_max, cumulative, "count table")
        # the row lister gives canonical order already, and each row's text
        # in the entries' lambda field
        lams, products, lam_texts = partition_rows(w_max, cumulative, RECORD_FIELD_PAD)
        lams = Rendered(lams, lam_texts, RECORD_FIELD_PAD)
    _guard_digits(k * n, max(map(len, lams)), len(lams), "count table")
    numbers = counts(n, k, lams, products)
    total = "count" if args.family == "pf" else "sum"
    # one row is its own total, and its text is converted once
    texts = [*map(str, numbers)]
    totals = {total: texts[0] if len(texts) == 1 else str(sum(numbers))}
    if args.check:
        name, params, tally = census(n, k)
        tally = tally(_listed(LISTINGS[name], params))
        totals["check"] = "pass" if list(map(tally.__getitem__, lams)) == numbers else "fail"
    entries, table = _lambda_rows(lams, texts, "count", totals)
    params = {"family": args.family, "n": n, "k": args.k, "by": args.by, "lambda": args.lam}
    code = EXIT_MISMATCH if totals.get("check") == "fail" else EXIT_OK
    return params, {"entries": entries, **totals}, table, code


# map -> (domain, codomain, forward, inverse), each map taking (object, n, k);
# the psi inverses and phi forwards are cores, run on what the kinds checked
MAPS = {
    "phi-a": (
        "staircase-strip",
        "fuss-catalan",
        lambda strip, n, k: bij._staircase_strip_to_path(strip.heights, n, k),
        bij.staircase_path_to_strip,
    ),
    "psi-a": ("fuss-catalan", "nca-k", bij.path_to_noncrossing, bij._noncrossing_to_path),
    "phi-b": (
        "rectangle-strip",
        "binomial",
        lambda strip, n, k: bij._rectangle_strip_to_path(strip.heights, n, k),
        bij.rectangle_path_to_strip,
    ),
    "psi-b": (
        "binomial",
        "ncb-k",
        bij.path_to_signed_noncrossing,
        bij._signed_noncrossing_to_path,
    ),
}


def cmd_biject(args):
    n, k = _require_nk(args)
    source, target, forward, inverse = MAPS[args.map]
    if source.endswith("-strip") and not args.inverse:
        # the family shape's own bound, refused before a strip literal is read
        _check_shape_nk(n, k)
    if args.inverse:
        source, target, forward = target, source, inverse
    obj = _named("--input", KINDS[source].parse, args.input, n, k)
    # a word is checked by its map, before any statistic is computed
    image = forward(obj, n, k)
    result = {}
    for side, kind, x in (("input", KINDS[source], obj), ("output", KINDS[target], image)):
        result[side] = kind.format(x)
        result[f"{side}_stats"] = dict(zip(kind.names, next(kind.stats([x], k))))

    def table() -> list[str]:
        rows = []
        for side in ("input", "output"):
            rows.append([side, result[side]])
            rows += ([f"{side} {s}", v] for s, v in result[f"{side}_stats"].items())
        return _table(rows, ["field", "value"])

    direction = "inverse" if args.inverse else "forward"
    return {"map": args.map, "direction": direction, "n": n, "k": k}, result, table, EXIT_OK


def cmd_verify(args):
    theorem = args.theorem
    lim_n, lim_k = verify_limits(theorem)
    n_max = args.n_max if args.n_max is not None else lim_n
    k_max = args.k_max if args.k_max is not None else lim_k
    if n_max < 1 or k_max < 1:
        raise ValueError("verify needs --n-max >= 1 and --k-max >= 1")
    if n_max > lim_n or k_max > lim_k:
        raise CapExceeded(
            f"verify --theorem {theorem} accepts n-max <= {lim_n}, k-max <= {lim_k}; "
            "larger runs must go through the library API"
        )
    results = verify_theorem(theorem, n_max, k_max)
    passed = all(r.passed for r in results)
    objects = sum(r.objects for r in results)
    result = {
        "passed": passed,
        "objects_checked": objects,
        "checks": [dataclasses.asdict(r) for r in results],
    }

    def table() -> list[str]:
        rows = [
            [
                r.name,
                json.dumps(r.params),
                str(r.objects),
                "pass"
                if r.passed
                else f"FAIL ({r.mismatch_count}): " + "; ".join(r.mismatches),
            ]
            for r in results
        ]
        rows.append(["overall", "", str(objects), "pass" if passed else "FAIL"])
        return _table(rows, ["check", "params", "objects", "status"])

    params = {"theorem": theorem, "n_max": n_max, "k_max": k_max}
    return params, result, table, EXIT_OK if passed else EXIT_MISMATCH


def _nk_params(args) -> dict:
    n, k = _require_nk(args)
    return {"n": n, "k": k}


def _shape_params(args) -> dict:
    if not args.shape:
        raise ValueError("enumerate --object rstrips requires --shape")
    _guard_shape(args.shape)
    return {"shape": args.shape}


def _pf_params(args) -> dict:
    if args.n is None:
        raise ValueError("enumerate --object pf requires -n")
    if args.n < 0:
        raise ValueError("n must be >= 0")
    return {"n": args.n, "primitive": bool(args.primitive)}


def _mapped(objects, **columns: Callable) -> dict[str, list]:
    """Each column header with its value on each object, in order."""
    return {header: [*map(value, objects)] for header, value in columns.items()}


def _kind_columns(name: str, header: str, **more: Callable) -> Callable:
    """columns(objects, n, k) of a listing of the kind `name`: the literals,
    as column `header`, the kind's statistics from one run of its
    whole-list form, then each of more mapped over the objects."""
    kind = KINDS[name]

    def columns(objects, n: int, k: int) -> dict[str, Sequence]:
        stats = zip(kind.names, zip(*kind.stats(objects, k)))
        return {header: [*map(kind.format, objects)], **dict(stats), **_mapped(objects, **more)}

    return columns


class Listing(NamedTuple):
    """One `enumerate --object`.  params(args) checks the options and returns
    the parameters, and build(**parameters) the arguments they stand for;
    count(**arguments) is the number of objects (_count_within past the
    cap), and size(**arguments), where given, the elements (letters,
    labels) of the largest; the count, the size and their product, the
    elements of all objects, are checked against the cap before
    objects(**arguments) lists them.  columns(objects, **parameters) maps
    each column header to its values on the listed objects, in order;
    art(object) draws the object for --ascii-art."""

    count: Callable
    what: str
    objects: Callable
    columns: Callable
    params: Callable = _nk_params
    art: Callable | None = None
    size: Callable | None = None
    build: Callable = dict


LISTINGS = {
    "rstrips": Listing(
        # the shape guards bound the count's own work, and it is the first
        # check that the shape's columns are contiguous
        lambda shape: _named("--shape", count_r_strips, shape),
        "r-strip enumeration",
        enumerate_r_strips,
        lambda strips, shape: _mapped(strips, strip=format_strip, path=path_from_strip,
                                      type=strip_type),
        params=_shape_params,
        art=strip_art,
        # the path column: an E per column and an N per row it crosses
        size=lambda shape: len(shape.cols) + (shape.hi[-1] + 1 - shape.lo[0] if shape.lo else 0),
        # one shape serves the count and the listing
        build=lambda shape: {"shape": parse_shape(shape)},
    ),
    "fuss-catalan": Listing(
        lambda n, k: _count_within(n, k, fuss_catalan, n, k),
        "path enumeration",
        enumerate_fuss_catalan,
        _kind_columns("fuss-catalan", "path"),
        size=lambda n, k: (k + 1) * n,
    ),
    "binomial": Listing(
        lambda n, k: _count_within(n, k, binomial, (k + 1) * n, n),
        "path enumeration",
        enumerate_fuss_binomial,
        _kind_columns("binomial", "path"),
        size=lambda n, k: (k + 1) * n,
    ),
    "nca-k": Listing(
        lambda n, k: _count_within(n, k, fuss_catalan, n, k),
        "noncrossing enumeration",
        enumerate_k_divisible,
        _kind_columns("nca-k", "partition"),
        size=lambda n, k: k * n,
    ),
    "ncb-k": Listing(
        lambda n, k: _count_within(n, k, binomial, (k + 1) * n, n),
        "noncrossing enumeration",
        enumerate_nc_b,
        _kind_columns("ncb-k", "partition", antipodal=antipodal_block),
        size=lambda n, k: 2 * k * n,
    ),
    "pf": Listing(
        lambda n, primitive: (
            _count_within(n, 1, fuss_catalan, n, 1)
            if primitive
            else _count_within(n, 1, count_parking_functions, n)
        ),
        "parking function enumeration",
        lambda n, primitive: (
            enumerate_primitive(n) if primitive else enumerate_parking_functions(n)
        ),
        # the enumerators' own sequences, so neither the type nor the
        # primitive column repeats the parking check
        lambda seqs, n, primitive: _mapped(
            seqs, sequence=tuple, type=multiplicity_type, primitive=is_weakly_increasing
        ),
        params=_pf_params,
    ),
}


def _listed(listing: Listing, params: dict):
    """The listing's objects at params, once their count, the size of one
    and the elements of all of them pass the cap."""
    arguments = listing.build(**params)
    count = listing.count(**arguments)
    _guard(count, listing.what)
    if listing.size:
        size = listing.size(**arguments)
        _guard(size, listing.what, unit="elements in one object")
        _guard(count * size, listing.what, unit="elements in all objects",
               scale=ELEMENTS_PER_OBJECT)
    return listing.objects(**arguments)


def cmd_enumerate(args):
    listing = LISTINGS[args.object]
    params = listing.params(args)
    found = list(_listed(listing, params))
    columns = listing.columns(found, **params)
    objects = Records(tuple(columns), tuple(columns.values()))
    count = len(found)
    # the table keeps the objects only to draw them, so without --ascii-art
    # they are freed before the payload is written
    drawn = found if args.ascii_art and listing.art else ()

    def table() -> list[str]:
        lines = _table(zip(*objects.columns), list(columns))
        lines.append(f"count: {count}")
        for obj in drawn:
            lines += ["", *listing.art(obj)]
        return lines

    result = {"count": count, "objects": objects}
    return {"object": args.object, **params}, result, table, EXIT_OK


def _require_nk(args) -> tuple[int, int]:
    if args.n is None or args.k is None:
        raise ValueError("this invocation requires -n and -k")
    _check_nk(args.n, args.k)
    return args.n, args.k


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by name: the
    parsers the top-level one hands a command's arguments to."""
    parser = argparse.ArgumentParser(
        prog="ncstrip",
        description=(
            "Exact enumeration and verification of noncrossing partitions, "
            "Fuss-Catalan paths, strip expansions and parking functions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        commands[name] = sub.add_parser(name, help=help)
        return commands[name]

    def add_common(p):
        p.add_argument("-n", type=int, default=None)
        p.add_argument("-k", type=int, default=None)
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = add_command("expand", "h-basis expansion of a shape or family")
    p.add_argument("--shape", help='shape literal, e.g. "3,2/1"')
    p.add_argument("--family", choices=tuple(EXPANSIONS))
    p.add_argument("--method", choices=("enumerate", "formula"), default="enumerate")
    add_common(p)

    p = add_command("count", "counting formulas, optionally census-checked")
    p.add_argument("--family", choices=tuple(COUNTS), required=True)
    p.add_argument("--by", choices=("type", "reduced-type"), default=None)
    p.add_argument("--lambda", dest="lam", default=None, help='partition literal, e.g. "2,1"')
    p.add_argument("--check", action="store_true", help="cross-verify against enumeration")
    add_common(p)

    p = add_command("biject", "apply one of the four bijections")
    p.add_argument("--map", choices=tuple(MAPS), required=True)
    direction = p.add_mutually_exclusive_group()
    direction.add_argument("--forward", action="store_true")
    direction.add_argument("--inverse", action="store_true")
    p.add_argument("--input", required=True)
    add_common(p)

    p = add_command("verify", "run a theorem's exhaustive check suite")
    p.add_argument("--theorem", choices=tuple(THEOREMS), required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = add_command("enumerate", "stream objects with their statistics")
    p.add_argument("--object", choices=tuple(LISTINGS), required=True)
    p.add_argument("--shape")
    p.add_argument("--primitive", action="store_true")
    p.add_argument("--ascii-art", action="store_true")
    add_common(p)

    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


# One parser tree, built once the tables it names are, serves every call in
# the process; it keeps no per-call state.  _commands holds its command
# parsers by name.
_parser, _commands = _build_parsers()


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the top-level parser parses it.  For a request that
    names a command, the top-level parser only sets `command` and hands the
    rest to that command's parser, which prints the same help and errors
    when called here directly.  The top-level parser runs where it decides
    the outcome: no arguments, a first word that is no command, or words
    the command's parser leaves over, refused under the top-level usage."""
    command = _commands.get(argv[0]) if argv else None
    if command is not None:
        args, left = command.parse_known_args(argv[1:])
        if not left:
            args.command = argv[0]
            return args
    return _parser.parse_args(argv)


def main(argv=None) -> int:
    global _cap
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    start = time.monotonic()
    # an exact answer prints whole: CPython (3.10.7 on) refuses to convert
    # an int of more than 4,300 digits to a str unless the limit is lifted
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        # looked up by name at call time, so a rebinding of cmd_* is seen
        params, result, table, code = globals()[f"cmd_{args.command}"](args)
        if args.format == "json":
            out: list[str] = []
            payload = {"command": args.command, "parameters": params, "result": result}
            _write_json(payload, out, "\n")
            out.append("\n")
            sys.stdout.write("".join(out))
        else:
            sys.stdout.write("".join(line + "\n" for line in table()))
    except CapExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, MalformedCap) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        _cap = None
        print(f"duration_s={time.monotonic() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
