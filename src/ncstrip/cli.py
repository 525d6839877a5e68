"""The ncstrip command line front end.

Payloads go to stdout and are byte-identical across runs (canonical orders,
no timestamps); diagnostics and wall-clock duration go to stderr.  Exit
codes: 0 success/verified, 1 verification mismatch, 2 usage error, 3 cap
refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import bijections as bij
from .expansions import (
    expand_skew,
    expansion_items,
    fuss_a_expansion_formula,
    fuss_b_expansion_formula,
    parking_expansion,
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
    format_blocks,
    parse_blocks,
    reduced_type_a,
    type_a,
)
from .noncrossing_b import (
    antipodal_block,
    count_by_type_b,
    enumerate_nc_b,
    format_blocks_b,
    parse_blocks_b,
    type_b,
)
from .parking import (
    count_parking_functions,
    enumerate_parking_functions,
    enumerate_primitive,
    is_primitive,
    pf_type,
)
from .partitions import (
    binomial,
    catalan,
    format_partition,
    fuss_catalan,
    parse_partition,
    partition_counts,
    partition_sort_key,
    partitions_of,
    partitions_with_weight_at_most,
)
from .shapes import (
    count_r_strips,
    enumerate_r_strips,
    format_strip,
    parse_shape,
    parse_strip,
    path_from_strip,
    rectangle,
    strip_type,
    stretched_staircase,
    strip_art,
)
from .verification import CAP_A, CAP_B, CAP_PARKING, verify_theorem

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3

DEFAULT_MAX_OBJECTS = 500_000


class CapExceeded(Exception):
    pass


class SystemExit2(Exception):
    """Usage error; maps to exit code 2."""


def _max_objects() -> int:
    raw = os.environ.get("NCSTRIP_MAX_OBJECTS", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_OBJECTS
    except ValueError:
        raise SystemExit2(f"NCSTRIP_MAX_OBJECTS={raw!r} is not an integer")


def _guard(expected: int, what: str, at_least: bool = False) -> None:
    cap = _max_objects()
    if expected > cap:
        raise CapExceeded(
            f"{what} would produce {'at least ' if at_least else ''}{expected} "
            f"objects, over the cap of {cap} (raise NCSTRIP_MAX_OBJECTS to override)"
        )


def _guard_partitions(w_max: int, cumulative: bool, what: str) -> None:
    """_guard on the number of partitions of w_max, or of every weight up to
    w_max when cumulative, counted without listing them.  p(w) never
    decreases, so the count stops at the first weight that passes the cap:
    a huge w_max is refused at once."""
    cap = _max_objects()
    rows = 0
    for w, p in zip(range(w_max + 1), partition_counts()):
        rows = rows + p if cumulative else p
        if rows > cap:
            _guard(rows, what, at_least=w < w_max)


def _emit(payload: dict, fmt: str, table_lines) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for line in table_lines:
            sys.stdout.write(line + "\n")


def _table(rows: list[list[str]], header: list[str]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header), fmt.format(*["-" * w for w in widths])]
    lines.extend(fmt.format(*row) for row in rows)
    return lines


def _expansion_payload(expansion) -> tuple[dict, list[list[str]]]:
    items = expansion_items(expansion)
    terms = [{"lambda": list(lam), "coeff": str(c)} for lam, c in items]
    total = sum(c for _, c in items)
    payload = {
        "terms": terms,
        "term_count": len(items),
        "coefficient_sum": str(total),
    }
    rows = [[format_partition(lam), str(c)] for lam, c in items]
    rows.append(["sum", str(total)])
    return payload, rows


def cmd_expand(args) -> int:
    if args.shape is not None:
        if args.family is not None:
            raise SystemExit2("--shape and --family are mutually exclusive")
        if args.method == "formula":
            raise SystemExit2("--method formula requires --family")
        shape = parse_shape(args.shape)
        _guard(count_r_strips(shape), "expansion of the shape")
        expansion = expand_skew(shape)
        params = {"shape": args.shape, "method": "enumerate"}
    else:
        if not args.family:
            raise SystemExit2("need --shape or --family")
        n, k = _require_nk(args)
        fuss_a = args.family == "fuss-a"
        if args.method == "formula":
            # both formulas have one term per partition of weight <= n
            _guard_partitions(n, True, "formula expansion")
            formula = fuss_a_expansion_formula if fuss_a else fuss_b_expansion_formula
            expansion = formula(n, k)
        elif fuss_a:
            _guard(fuss_catalan(n + 1, k), "expansion of the stretched staircase")
            expansion = expand_skew(stretched_staircase(n, k))
        else:
            _guard(binomial((k + 1) * n, n), "expansion of the rectangle")
            expansion = expand_skew(rectangle(n, k))
        params = {"family": args.family, "n": n, "k": k, "method": args.method}
    body, rows = _expansion_payload(expansion)
    payload = {"command": "expand", "parameters": params, "result": body}
    _emit(payload, args.format, _table(rows, ["lambda", "coeff"]))
    return EXIT_OK


def _count_table_a(n: int, k: int, by: str):
    if by == "type":
        _guard_partitions(n, False, "count table")
        lams = list(partitions_of(n))
        counts = {lam: count_by_type(n, k, lam) for lam in lams}
    else:
        _guard_partitions(n - 1, True, "count table")
        lams = partitions_with_weight_at_most(n - 1)
        counts = {lam: count_by_reduced_type(n, k, lam) for lam in lams}
    return counts


def cmd_count(args) -> int:
    family = args.family
    n = args.n
    if n is None:
        raise SystemExit2("count requires -n")
    # nca is the k = 1 case and pf has no k; the other families default to 1
    k = 1 if family in ("nca", "pf") or args.k is None else args.k
    _check_nk(n, k)
    if family == "pf":
        if args.by == "reduced-type":
            raise SystemExit2("parking functions have no reduced type")
        if args.by == "type":
            counts = {
                lam: c for lam, c in expansion_items(parking_expansion(n))
            }
            checked = None
            if args.check:
                _guard(catalan(n), "primitive census")
                census = {}
                for p in enumerate_primitive(n):
                    census[pf_type(p)] = census.get(pf_type(p), 0) + 1
                checked = census == counts
        else:
            counts = {(): count_parking_functions(n)}
            checked = None
            if args.check:
                _guard(counts[()], "parking function enumeration")
                checked = len(enumerate_parking_functions(n)) == counts[()]
        return _finish_count(args, counts, checked, total_label="count")
    if family in ("nca", "nca-k"):
        by = args.by or "type"
        if args.lam is not None:
            lam = parse_partition(args.lam)
            fn = count_by_type if by == "type" else count_by_reduced_type
            counts = {lam: fn(n, k, lam)}
        else:
            counts = _count_table_a(n, k, by)
        checked = None
        if args.check:
            if k * n > CAP_A:
                raise CapExceeded(f"census check needs kn <= {CAP_A}")
            census: dict = {}
            for blocks in enumerate_k_divisible(n, k):
                key = type_a(blocks, k) if by == "type" else reduced_type_a(blocks, k)
                census[key] = census.get(key, 0) + 1
            checked = all(census.get(lam, 0) == c for lam, c in counts.items())
        return _finish_count(args, counts, checked)
    if family == "ncb-k":
        if args.by == "reduced-type":
            raise SystemExit2("the signed type is already reduced; use --by type")
        if args.lam is not None:
            lam = parse_partition(args.lam)
            counts = {lam: count_by_type_b(n, k, lam)}
        else:
            _guard_partitions(n, True, "count table")
            counts = {
                lam: count_by_type_b(n, k, lam)
                for lam in partitions_with_weight_at_most(n)
            }
        checked = None
        if args.check:
            if (k + 1) * n > CAP_B:
                raise CapExceeded(f"census check needs (k+1)n <= {CAP_B}")
            census = {}
            for blocks in enumerate_nc_b(n, k):
                key = type_b(blocks, k)
                census[key] = census.get(key, 0) + 1
            checked = all(census.get(lam, 0) == c for lam, c in counts.items())
        return _finish_count(args, counts, checked)
    raise SystemExit2(f"unknown family {family!r}")


def _finish_count(args, counts, checked, total_label="sum") -> int:
    items = sorted(counts.items(), key=lambda kv: partition_sort_key(kv[0]))
    body = {
        "entries": [
            {"lambda": list(lam), "count": str(c)} for lam, c in items
        ],
        total_label: str(sum(counts.values())),
    }
    if checked is not None:
        body["check"] = "pass" if checked else "fail"
    payload = {
        "command": "count",
        "parameters": {
            "family": args.family,
            "n": args.n,
            "k": args.k,
            "by": args.by,
            "lambda": args.lam,
        },
        "result": body,
    }
    rows = [[format_partition(lam), str(c)] for lam, c in items]
    rows.append([total_label, str(sum(counts.values()))])
    if checked is not None:
        rows.append(["check", "pass" if checked else "fail"])
    _emit(payload, args.format, _table(rows, ["lambda", "count"]))
    return EXIT_OK if checked in (None, True) else EXIT_MISMATCH


def cmd_biject(args) -> int:
    n, k = _require_nk(args)
    forward = not args.inverse
    m = args.map
    text = args.input
    if m == "psi-a":
        if forward:
            word = text.strip().upper()
            blocks = bij.path_to_noncrossing(word, n, k)
            in_repr, out_repr = word, format_blocks(blocks)
            in_stats = {
                "type": fc_type(word),
                "reduced_type": fc_reduced_type(word),
            }
            out_stats = {
                "type": type_a(blocks, k),
                "reduced_type": reduced_type_a(blocks, k),
            }
        else:
            blocks = parse_blocks(text)
            word = bij.noncrossing_to_path(blocks, n, k)
            in_repr, out_repr = format_blocks(blocks), word
            in_stats = {
                "type": type_a(blocks, k),
                "reduced_type": reduced_type_a(blocks, k),
            }
            out_stats = {
                "type": fc_type(word),
                "reduced_type": fc_reduced_type(word),
            }
    elif m == "psi-b":
        if forward:
            word = text.strip().upper()
            blocks = bij.path_to_signed_noncrossing(word, n, k)
            in_repr, out_repr = word, format_blocks_b(blocks, k * n)
            in_stats = {"type": fb_type(word)}
            out_stats = {"type": type_b(blocks, k)}
        else:
            blocks = parse_blocks_b(text)
            word = bij.signed_noncrossing_to_path(blocks, n, k)
            in_repr, out_repr = format_blocks_b(blocks, k * n), word
            in_stats = {"type": type_b(blocks, k)}
            out_stats = {"type": fb_type(word)}
    elif m == "phi-a":
        shape = stretched_staircase(n, k)
        if forward:
            strip = parse_strip(shape, text)
            word = bij.staircase_strip_to_path(strip)
            in_repr, out_repr = format_strip(strip), word
            in_stats = {"type": strip_type(strip)}
            out_stats = {
                "type": fc_type(word),
                "reduced_type": fc_reduced_type(word),
            }
        else:
            word = text.strip().upper()
            strip = bij.staircase_path_to_strip(word, n, k)
            in_repr, out_repr = word, format_strip(strip)
            in_stats = {
                "type": fc_type(word),
                "reduced_type": fc_reduced_type(word),
            }
            out_stats = {"type": strip_type(strip)}
    elif m == "phi-b":
        shape = rectangle(n, k)
        if forward:
            strip = parse_strip(shape, text)
            word = bij.rectangle_strip_to_path(strip)
            in_repr, out_repr = format_strip(strip), word
            in_stats = {"type": strip_type(strip)}
            out_stats = {"type": fb_type(word)}
        else:
            word = text.strip().upper()
            strip = bij.rectangle_path_to_strip(word, n, k)
            in_repr, out_repr = word, format_strip(strip)
            in_stats = {"type": fb_type(word)}
            out_stats = {"type": strip_type(strip)}
    else:
        raise SystemExit2(f"unknown map {m!r}")
    fmt_stats = lambda st: {key: list(v) for key, v in st.items()}
    payload = {
        "command": "biject",
        "parameters": {
            "map": m,
            "direction": "forward" if forward else "inverse",
            "n": n,
            "k": k,
        },
        "result": {
            "input": in_repr,
            "input_stats": fmt_stats(in_stats),
            "output": out_repr,
            "output_stats": fmt_stats(out_stats),
        },
    }
    rows = [
        ["input", in_repr],
        *[
            [f"input {key}", format_partition(v)]
            for key, v in in_stats.items()
        ],
        ["output", out_repr],
        *[
            [f"output {key}", format_partition(v)]
            for key, v in out_stats.items()
        ],
    ]
    _emit(payload, args.format, _table(rows, ["field", "value"]))
    return EXIT_OK


VERIFY_LIMITS = {
    "1.1": (CAP_A - 1, CAP_A // 2),
    "1.2": (CAP_B // 2, CAP_B - 1),
    "2.1": (CAP_PARKING, None),
    "bijections": (CAP_A - 1, CAP_B - 1),
}


def cmd_verify(args) -> int:
    theorem = args.theorem
    lim_n, lim_k = VERIFY_LIMITS[theorem]
    n_max = args.n_max if args.n_max is not None else lim_n
    k_max = args.k_max if args.k_max is not None else (lim_k or 1)
    if n_max < 1 or k_max < 1:
        raise SystemExit2("verify needs --n-max >= 1 and --k-max >= 1")
    if n_max > lim_n or (lim_k is not None and k_max > lim_k):
        raise CapExceeded(
            f"verify --theorem {theorem} accepts n-max <= {lim_n}"
            + (f", k-max <= {lim_k}" if lim_k is not None else "")
            + "; larger runs must go through the library API"
        )
    results = verify_theorem(theorem, n_max, k_max)
    checks = [
        {
            "name": r.name,
            "params": r.params,
            "passed": r.passed,
            "objects": r.objects,
            "mismatches": r.mismatches,
        }
        for r in results
    ]
    passed = all(r.passed for r in results)
    payload = {
        "command": "verify",
        "parameters": {"theorem": theorem, "n_max": n_max, "k_max": k_max},
        "result": {
            "passed": passed,
            "objects_checked": sum(r.objects for r in results),
            "checks": checks,
        },
    }
    rows = [
        [
            r.name,
            json.dumps(r.params),
            str(r.objects),
            "pass" if r.passed else "FAIL: " + "; ".join(r.mismatches),
        ]
        for r in results
    ]
    rows.append(
        ["overall", "", str(sum(r.objects for r in results)), "pass" if passed else "FAIL"]
    )
    _emit(payload, args.format, _table(rows, ["check", "params", "objects", "status"]))
    return EXIT_OK if passed else EXIT_MISMATCH


def cmd_enumerate(args) -> int:
    obj = args.object
    fmt = args.format
    rows_json: list[dict] = []
    rows_tab: list[list[str]] = []
    header: list[str]
    params: dict = {"object": obj}
    art_blocks: list[list[str]] = []
    if obj == "rstrips":
        if not args.shape:
            raise SystemExit2("enumerate --object rstrips requires --shape")
        shape = parse_shape(args.shape)
        params["shape"] = args.shape
        _guard(count_r_strips(shape), "r-strip enumeration")
        header = ["strip", "path", "type"]
        for strip in enumerate_r_strips(shape):
            t = strip_type(strip)
            rows_json.append(
                {
                    "strip": format_strip(strip),
                    "path": path_from_strip(strip),
                    "type": list(t),
                }
            )
            rows_tab.append(
                [format_strip(strip), path_from_strip(strip), format_partition(t)]
            )
            if args.ascii_art:
                art_blocks.append(strip_art(strip))
    elif obj in ("fuss-catalan", "binomial"):
        n, k = _require_nk(args)
        params.update(n=n, k=k)
        if obj == "fuss-catalan":
            _guard(fuss_catalan(n, k), "path enumeration")
            header = ["path", "type", "reduced_type"]
            for word in enumerate_fuss_catalan(n, k):
                rows_json.append(
                    {
                        "path": word,
                        "type": list(fc_type(word)),
                        "reduced_type": list(fc_reduced_type(word)),
                    }
                )
                rows_tab.append(
                    [
                        word,
                        format_partition(fc_type(word)),
                        format_partition(fc_reduced_type(word)),
                    ]
                )
        else:
            _guard(binomial((k + 1) * n, n), "path enumeration")
            header = ["path", "type"]
            for word in enumerate_fuss_binomial(n, k):
                rows_json.append({"path": word, "type": list(fb_type(word))})
                rows_tab.append([word, format_partition(fb_type(word))])
    elif obj == "nca-k":
        n, k = _require_nk(args)
        params.update(n=n, k=k)
        _guard(fuss_catalan(n, k), "noncrossing enumeration")
        header = ["partition", "type", "reduced_type"]
        for blocks in enumerate_k_divisible(n, k):
            rows_json.append(
                {
                    "partition": format_blocks(blocks),
                    "type": list(type_a(blocks, k)),
                    "reduced_type": list(reduced_type_a(blocks, k)),
                }
            )
            rows_tab.append(
                [
                    format_blocks(blocks),
                    format_partition(type_a(blocks, k)),
                    format_partition(reduced_type_a(blocks, k)),
                ]
            )
    elif obj == "ncb-k":
        n, k = _require_nk(args)
        params.update(n=n, k=k)
        _guard(binomial((k + 1) * n, n), "noncrossing enumeration")
        header = ["partition", "type", "antipodal"]
        for blocks in enumerate_nc_b(n, k):
            anti = antipodal_block(blocks)
            rows_json.append(
                {
                    "partition": format_blocks_b(blocks, k * n),
                    "type": list(type_b(blocks, k)),
                    "antipodal": list(anti) if anti else None,
                }
            )
            rows_tab.append(
                [
                    format_blocks_b(blocks, k * n),
                    format_partition(type_b(blocks, k)),
                    ",".join(map(str, anti)) if anti else "-",
                ]
            )
    elif obj == "pf":
        n = args.n
        if n is None:
            raise SystemExit2("enumerate --object pf requires -n")
        params.update(n=n, primitive=bool(args.primitive))
        expected = catalan(n) if args.primitive else count_parking_functions(n)
        _guard(expected, "parking function enumeration")
        seqs = (
            enumerate_primitive(n)
            if args.primitive
            else enumerate_parking_functions(n)
        )
        header = ["sequence", "type", "primitive"]
        for s in seqs:
            rows_json.append(
                {
                    "sequence": list(s),
                    "type": list(pf_type(s)),
                    "primitive": is_primitive(s),
                }
            )
            rows_tab.append(
                [
                    ",".join(map(str, s)),
                    format_partition(pf_type(s)),
                    "yes" if is_primitive(s) else "no",
                ]
            )
    else:
        raise SystemExit2(f"unknown object {obj!r}")
    payload = {
        "command": "enumerate",
        "parameters": params,
        "result": {"count": len(rows_json), "objects": rows_json},
    }
    lines = _table(rows_tab, header)
    lines.append(f"count: {len(rows_json)}")
    if args.ascii_art and art_blocks:
        for block in art_blocks:
            lines.append("")
            lines.extend(block)
    _emit(payload, fmt, lines)
    return EXIT_OK


def _check_nk(n: int, k: int) -> None:
    if n < 0 or k < 1:
        raise SystemExit2("need n >= 0 and k >= 1")


def _require_nk(args) -> tuple[int, int]:
    if args.n is None or args.k is None:
        raise SystemExit2("this invocation requires -n and -k")
    _check_nk(args.n, args.k)
    return args.n, args.k


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncstrip",
        description=(
            "Exact enumeration and verification of noncrossing partitions, "
            "Fuss-Catalan paths, strip expansions and parking functions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-n", type=int, default=None)
        p.add_argument("-k", type=int, default=None)
        p.add_argument(
            "--format", choices=("json", "table"), default="json"
        )

    p = sub.add_parser("expand", help="h-basis expansion of a shape or family")
    p.add_argument("--shape", help='shape literal, e.g. "3,2/1"')
    p.add_argument("--family", choices=("fuss-a", "fuss-b"))
    p.add_argument("--method", choices=("enumerate", "formula"), default="enumerate")
    add_common(p)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("count", help="counting formulas, optionally census-checked")
    p.add_argument("--family", choices=("nca", "nca-k", "ncb-k", "pf"), required=True)
    p.add_argument("--by", choices=("type", "reduced-type"), default=None)
    p.add_argument("--lambda", dest="lam", default=None, help='partition literal, e.g. "2,1"')
    p.add_argument("--check", action="store_true", help="cross-verify against enumeration")
    add_common(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("biject", help="apply one of the four bijections")
    p.add_argument("--map", choices=("phi-a", "psi-a", "phi-b", "psi-b"), required=True)
    direction = p.add_mutually_exclusive_group()
    direction.add_argument("--forward", action="store_true")
    direction.add_argument("--inverse", action="store_true")
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(fn=cmd_biject)

    p = sub.add_parser("verify", help="run a theorem's exhaustive check suite")
    p.add_argument("--theorem", choices=("1.1", "1.2", "2.1", "bijections"), required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("enumerate", help="stream objects with their statistics")
    p.add_argument(
        "--object",
        choices=("rstrips", "fuss-catalan", "binomial", "nca-k", "ncb-k", "pf"),
        required=True,
    )
    p.add_argument("--shape")
    p.add_argument("--primitive", action="store_true")
    p.add_argument("--ascii-art", action="store_true")
    add_common(p)
    p.set_defaults(fn=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except CapExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_CAP
    except SystemExit2 as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        print(f"duration_s={time.monotonic() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
