import contextlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ncstrip import cli, parking
from ncstrip.noncrossing_b import count_by_type_b
from ncstrip.parking import (
    count_parking_functions,
    enumerate_parking_functions,
    is_primitive,
    pf_type,
)
from ncstrip.partitions import (
    binomial,
    fuss_catalan,
    partition_rows,
    partitions_with_weight_at_most,
)

from conftest import counted

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

CLI = [sys.executable, "-m", "ncstrip.cli"]


def run_cli(*args, env=None, **kwargs):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=full_env, **kwargs)


def test_expand_golden_shape():
    r = run_cli("expand", "--shape", "3,2/1")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["result"]["terms"] == [
        {"lambda": [], "coeff": "1"},
        {"lambda": [1], "coeff": "2"},
        {"lambda": [2], "coeff": "2"},
        {"lambda": [1, 1], "coeff": "1"},
        {"lambda": [2, 1], "coeff": "2"},
    ]
    assert payload["result"]["coefficient_sum"] == "8"
    assert "duration_s=" in r.stderr


def test_expand_family_formula_vs_enumerate():
    a = run_cli("expand", "--family", "fuss-b", "-n", "2", "-k", "1", "--method", "formula")
    b = run_cli("expand", "--family", "fuss-b", "-n", "2", "-k", "1", "--method", "enumerate")
    assert a.returncode == b.returncode == 0
    assert json.loads(a.stdout)["result"]["terms"] == json.loads(b.stdout)["result"]["terms"]
    terms = {tuple(t["lambda"]): t["coeff"] for t in json.loads(a.stdout)["result"]["terms"]}
    assert terms == {(): "1", (1,): "2", (2,): "2", (1, 1): "1"}


def test_expand_single_column():
    r = run_cli("expand", "--shape", "1,1/")
    terms = {tuple(t["lambda"]): t["coeff"] for t in json.loads(r.stdout)["result"]["terms"]}
    assert terms == {(): "1", (1,): "2"}


def test_expand_usage_errors():
    assert run_cli("expand", "--shape", "3,2/1", "--method", "formula").returncode == 2
    assert run_cli("expand", "--shape", "2,3/1").returncode == 2
    assert run_cli("expand", "--family", "fuss-a").returncode == 2


@pytest.mark.parametrize("columns", ["80", "40"])
def test_one_parser_serves_successive_calls(columns, capsys, monkeypatch):
    # an argparse rejection, a request and --help in a row in one process
    # each give what they give in a fresh process, at either terminal width
    monkeypatch.setenv("COLUMNS", columns)
    parsers = set()
    for argv, code in [(["count"], 2), (["expand", "--shape", "3,2/1"], 0), (["--help"], 0)]:
        try:
            got = cli.main(argv)
        except SystemExit as e:
            got = e.code
        parsers.add(id(cli._parser))
        fresh = run_cli(*argv, env={"COLUMNS": columns})
        assert got == fresh.returncode == code
        assert capsys.readouterr().out == fresh.stdout
    assert len(parsers) == 1
    help_text = fresh.stdout
    assert help_text == cli.build_parser().format_help()
    assert help_text.startswith("usage: ncstrip [-h]")


# the requests that argparse itself decides: no arguments, no command, the
# help of the tree and of one command, a bad choice, and a word left over
_PARSER_DECIDES = [[], ["bogus"], ["--help"], ["count", "--help"], ["count", "--family", "bad"],
                   ["count", "--family", "pf", "-n", "3", "extra"]]


def test_main_answers_what_argparse_decides_as_a_fresh_process_does(capsys):
    for argv in _PARSER_DECIDES:
        try:
            got = cli.main(argv)
        except SystemExit as e:
            got = e.code
        fresh = run_cli(*argv)
        assert (got, *capsys.readouterr()) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def _parsed(parse, argv):
    """parse(argv)'s Namespace, or argparse's exit code and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue()


def test_a_command_parser_parses_as_the_top_level_parser_does(monkeypatch):
    # main parses a request with its command's own parser: on every request
    # of the benchmark stream, the golden replay and the hostile table it
    # gives the top-level parser's Namespace, or its exit and messages
    parser, commands = cli._build_parsers()
    monkeypatch.setattr(cli, "_parser", parser)
    monkeypatch.setattr(cli, "_commands", commands)
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    hostile = _HUGE_N + _HUGE_K + _GROWN + _BAD_BLOCKS + _UNNAMED
    argvs = [
        *(r.argv for seed in (7, 201, 2221) for r in workloads.cli_requests(seed)),
        *(case["argv"] for case in golden),
        *(argv for argv, _ in hostile),
        *_TABLE,
        *_PARSER_DECIDES,
    ]
    assert len(argvs) > 1500
    for argv in argvs:
        assert _parsed(cli._parse, argv) == _parsed(parser.parse_args, argv), argv


def test_a_wrong_type_fails_the_parking_census(capsys, monkeypatch):
    # the pattern census runs multiplicity_type once per step pattern, so a
    # wrong statistic reaches the --check of count --family pf --by type
    right = parking.multiplicity_type
    monkeypatch.setattr(parking, "multiplicity_type", lambda seq: right(seq)[:-1])
    assert cli.main(["count", "--family", "pf", "-n", "4", "--by", "type", "--check"]) == 1
    assert json.loads(capsys.readouterr().out)["result"]["check"] == "fail"


def test_main_looks_its_command_up_at_call_time(capsys, monkeypatch):
    # a wrapper bound over cli.cmd_* after the parser exists (as the
    # benchmark's tracer binds its spans) still sees every call
    cli.main(["expand", "--shape", "1/"])
    capsys.readouterr()
    seen = []

    def cmd_expand(args):
        seen.append(args.shape)
        return {"shape": args.shape}, {}, lambda: [], 0

    monkeypatch.setattr(cli, "cmd_expand", cmd_expand)
    assert cli.main(["expand", "--shape", "3,2/1"]) == 0
    assert seen == ["3,2/1"]
    # main writes what the command returns
    assert json.loads(capsys.readouterr().out) == {
        "command": "expand", "parameters": {"shape": "3,2/1"}, "result": {}
    }


def test_count_examples():
    r = run_cli("count", "--family", "ncb-k", "-n", "2", "-k", "1", "--by", "type")
    entries = json.loads(r.stdout)["result"]["entries"]
    assert entries == [
        {"lambda": [], "count": "1"},
        {"lambda": [1], "count": "2"},
        {"lambda": [2], "count": "2"},
        {"lambda": [1, 1], "count": "1"},
    ]
    r = run_cli(
        "count", "--family", "nca-k", "-n", "2", "-k", "2",
        "--by", "reduced-type", "--lambda", "1",
    )
    assert json.loads(r.stdout)["result"]["entries"] == [{"lambda": [1], "count": "2"}]
    r = run_cli("count", "--family", "pf", "-n", "3")
    assert json.loads(r.stdout)["result"]["count"] == "16"


def test_count_with_check():
    r = run_cli("count", "--family", "nca-k", "-n", "3", "-k", "2", "--by", "type", "--check")
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"]["check"] == "pass"


def test_biject_worked_example():
    r = run_cli(
        "biject", "--map", "psi-a", "--forward", "-n", "6", "-k", "2",
        "--input", "ENEENNNNENNNEENNNN",
    )
    body = json.loads(r.stdout)["result"]
    assert body["output"] == "1,6/2,3,4,5/7,10,11,12/8,9"
    assert body["input_stats"]["type"] == [2, 2, 1, 1]
    assert body["output_stats"]["reduced_type"] == [2, 2, 1]
    r = run_cli(
        "biject", "--map", "psi-a", "--inverse", "-n", "6", "-k", "2",
        "--input", "1,6/2,3,4,5/7,10,11,12/8,9",
    )
    assert json.loads(r.stdout)["result"]["output"] == "ENEENNNNENNNEENNNN"


def test_biject_trivial_inverse():
    r = run_cli("biject", "--map", "psi-a", "--inverse", "-n", "3", "-k", "1", "--input", "1,2,3")
    assert json.loads(r.stdout)["result"]["output"] == "EEENNN"


def test_biject_psi_b_round_trip():
    word = "ENNENN"
    r = run_cli("biject", "--map", "psi-b", "--forward", "-n", "2", "-k", "2", "--input", word)
    partition = json.loads(r.stdout)["result"]["output"]
    assert partition == "-1,-4,1,4/-2,-3/2,3"
    # leading dash: the literal must be attached with '='
    r2 = run_cli(
        "biject", "--map", "psi-b", "--inverse", "-n", "2", "-k", "2",
        f"--input={partition}",
    )
    assert json.loads(r2.stdout)["result"]["output"] == word


def test_biject_domain_error():
    r = run_cli("biject", "--map", "psi-a", "--inverse", "-n", "2", "-k", "1", "--input", "1,3/2,4")
    assert r.returncode == 2
    assert "usage error" in r.stderr


@pytest.mark.parametrize(
    "map_,literal", [("psi-a", "1"), ("psi-b", "1,-1")]
)
def test_biject_refuses_a_huge_n_before_allocating(map_, literal):
    r = run_cli(
        "biject", "--map", map_, "--inverse", "-n", str(10**15), "-k", "1",
        f"--input={literal}", timeout=60,
    )
    assert r.returncode == 2
    assert "do not partition" in r.stderr


@pytest.mark.parametrize(
    "args, name, checks",
    [
        (("psi-a", "--inverse", "-n", "4", "-k", "1", "--input=1,4/2,3"), "_owners", 1),
        (("psi-b", "--inverse", "-n", "2", "-k", "1", "--input=-1,2/-2,1"), "validate_nc_b", 1),
        (("phi-a", "--forward", "-n", "2", "-k", "1", "--input=-,0"), "_family_params", 0),
        (("phi-b", "--forward", "-n", "2", "-k", "1", "--input=-,0"), "_family_params", 0),
    ],
)
def test_biject_checks_each_literal_once(monkeypatch, capsys, args, name, checks):
    # the kind that reads a partition or strip checks it against (n, k), and
    # the map runs its core on what the kind returns
    calls = counted(monkeypatch, name)
    assert cli.main(["biject", "--map", *args]) == 0
    assert len(calls) == checks
    assert json.loads(capsys.readouterr().out)["result"]["output"]


def test_verify_passes():
    r = run_cli("verify", "--theorem", "1.1", "--n-max", "3", "--k-max", "2")
    assert r.returncode == 0
    body = json.loads(r.stdout)["result"]
    assert body["passed"] is True
    r = run_cli("verify", "--theorem", "2.1", "--n-max", "5")
    assert r.returncode == 0
    r = run_cli("verify", "--theorem", "1.2", "--n-max", "2", "--k-max", "1")
    assert r.returncode == 0
    body = json.loads(r.stdout)["result"]
    assert body["checks"][-1]["objects"] == 6


def test_verify_cap_refusal():
    r = run_cli("verify", "--theorem", "1.1", "--n-max", "50")
    assert r.returncode == 3
    assert "refused" in r.stderr


@pytest.mark.parametrize(
    "theorem,limits",
    [("1.1", (11, 6)), ("1.2", (7, 13)), ("2.1", (7, 1)), ("bijections", (11, 13))],
)
@pytest.mark.parametrize("past", ["--n-max", "--k-max"])
def test_verify_one_past_a_limit_is_refused_before_any_check(monkeypatch, capsys, theorem, limits, past):
    # 2.1 checks k = 1 only, so a larger --k-max is refused, not ignored
    monkeypatch.setattr(cli, "verify_theorem", lambda *args: pytest.fail("a check ran"))
    bound = limits[past == "--k-max"] + 1
    assert cli.main(["verify", "--theorem", theorem, past, str(bound)]) == 3
    n, k = limits
    assert f"refused: verify --theorem {theorem} accepts n-max <= {n}, k-max <= {k};" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("bound", [("--n-max", "0"), ("--k-max", "-3")])
def test_verify_rejects_empty_ranges(bound):
    r = run_cli("verify", "--theorem", "1.1", *bound)
    assert r.returncode == 2
    assert "usage error" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("--family", "nca-k", "-n", "4", "-k", "0"),
        ("--family", "ncb-k", "-n", "3", "-k", "0"),
        ("--family", "nca-k", "-n", "-2", "-k", "1"),
        ("--family", "pf", "-n", "-2"),
    ],
)
def test_count_rejects_bad_n_and_k(args):
    r = run_cli("count", *args)
    assert r.returncode == 2
    assert "usage error: need n >= 0 and k >= 1" in r.stderr


def test_enumerate_rstrips():
    r = run_cli("enumerate", "--object", "rstrips", "--shape", "3,2/1")
    body = json.loads(r.stdout)["result"]
    assert body["count"] == 8
    r = run_cli("enumerate", "--object", "fuss-catalan", "-n", "2", "-k", "2")
    assert json.loads(r.stdout)["result"]["count"] == 3
    r = run_cli("enumerate", "--object", "pf", "-n", "1")
    assert json.loads(r.stdout)["result"]["count"] == 1


@pytest.mark.parametrize("obj,count", [("nca-k", 1), ("ncb-k", 1201)])
def test_enumerate_one_long_block_needs_no_recursion(obj, count):
    # the NC_A lister once recursed once per element and raised RecursionError
    r = run_cli("enumerate", "--object", obj, "-n", "1", "-k", "1200")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["result"]["count"] == count


def test_enumerate_ascii_art():
    r = run_cli(
        "enumerate", "--object", "rstrips", "--shape", "3,2/1",
        "--format", "table", "--ascii-art",
    )
    assert r.returncode == 0
    assert "#" in r.stdout


def test_enumerate_cap_via_env():
    r = run_cli(
        "enumerate", "--object", "pf", "-n", "6",
        env={"NCSTRIP_MAX_OBJECTS": "100"},
    )
    assert r.returncode == 3
    assert "refused" in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("expand", "--shape", "3,2/1"),
        ("expand", "--family", "fuss-a", "-n", "3", "-k", "2", "--method", "formula"),
        ("count", "--family", "ncb-k", "-n", "3", "-k", "1", "--by", "type", "--check"),
        ("biject", "--map", "psi-b", "--forward", "-n", "2", "-k", "1", "--input", "NEEN"),
        ("verify", "--theorem", "1.2", "--n-max", "2", "--k-max", "2"),
        ("enumerate", "--object", "nca-k", "-n", "3", "-k", "1", "--format", "table"),
    ],
)
def test_byte_identical_reruns(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_non_integer_cap_is_a_usage_error():
    r = run_cli(
        "enumerate", "--object", "pf", "-n", "3",
        env={"NCSTRIP_MAX_OBJECTS": "abc"},
    )
    assert r.returncode == 2
    assert "usage error" in r.stderr


@pytest.mark.parametrize(
    "args,code",
    [
        (("biject", "--map", "psi-a", "--forward", "-n", "3", "-k", "1", "--input", "EENENN"), 0),
        (("verify", "--theorem", "1.2", "--n-max", "1", "--k-max", "1"), 0),
        (("biject", "--map", "psi-b", "--forward", "-n", "3", "-k", "1", "--input", "EENENN"), 0),
        (("count", "--family", "nca-k", "-n", "4", "-k", "2"), 2),
        (("expand", "--shape", "3,2/1"), 2),
        (("enumerate", "--object", "rstrips", "--shape", "3,2/1"), 2),
        (("biject", "--map", "phi-a", "--forward", "-n", "1", "-k", "1", "--input", "1"), 2),
        # a --lambda row is guarded on its digits, as a table is
        (("count", "--family", "nca-k", "-n", "4", "-k", "2", "--lambda", "2,1,1"), 2),
        (("biject", "--map", "phi-b", "--forward", "-n", "1", "-k", "1", "--input", "1"), 2),
    ],
)
def test_a_malformed_cap_is_reported_by_the_commands_that_guard(monkeypatch, capsys, args, code):
    monkeypatch.setenv("NCSTRIP_MAX_OBJECTS", "abc")
    assert cli.main(list(args)) == code
    # whole: a strip literal's row guard reads the cap while --input is
    # read, but the refusal names no option
    message = "usage error: NCSTRIP_MAX_OBJECTS='abc' is not an integer"
    assert (message in capsys.readouterr().err.splitlines()) == bool(code)


def test_the_cap_is_read_once_per_command(monkeypatch, capsys):
    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    environ = Environ(os.environ, NCSTRIP_MAX_OBJECTS="1000")
    monkeypatch.setattr(cli.os, "environ", environ)
    # two guards on the literal and one on the strip count
    assert cli.main(["expand", "--shape", "6,5,4/2,1"]) == 0
    assert reads == ["NCSTRIP_MAX_OBJECTS"]
    # the next command reads the cap again
    environ["NCSTRIP_MAX_OBJECTS"] = "5"
    assert cli.main(["expand", "--shape", "6,5,4/2,1"]) == 3
    assert reads == ["NCSTRIP_MAX_OBJECTS"] * 2
    assert "over the cap of 5" in capsys.readouterr().err


def test_enumerate_rstrips_builds_its_shape_once(monkeypatch, capsys):
    calls = counted(monkeypatch, "parse_shape")
    assert cli.main(["enumerate", "--object", "rstrips", "--shape", "6,5,4/2,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameters"] == {"object": "rstrips", "shape": "6,5,4/2,1"}
    assert len(calls) == 1


def test_parking_count_at_zero_is_an_exact_integer():
    r = run_cli("count", "--family", "pf", "-n", "0")
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"]["count"] == "1"
    r = run_cli("count", "--family", "pf", "-n", "0", "--format", "table")
    assert r.stdout.splitlines()[-1].split() == ["count", "1"]


@pytest.mark.parametrize(
    "args,rows",
    [
        (("--family", "nca", "-n", "{}"), [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101]),
        (("--family", "nca-k", "-k", "2", "--by", "reduced-type", "-n", "{}"), [0, 1, 2, 4, 7, 12, 19, 30, 45, 67, 97, 139]),
        (("--family", "ncb-k", "-k", "1", "-n", "{}"), [1, 2, 4, 7, 12, 19, 30, 45, 67, 97, 139]),
        (("--family", "pf", "--by", "type", "-n", "{}"), [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101]),
    ],
)
def test_count_table_is_guarded_by_its_row_count(args, rows):
    # the table has one row per partition of n (nca by type), of each weight
    # below n (by reduced type) or of each weight up to n (ncb-k)
    cap = {"NCSTRIP_MAX_OBJECTS": "100"}
    n_last = max(n for n, r in enumerate(rows) if r <= 100)
    fill = lambda n: [a.format(n) for a in args]
    r = run_cli("count", *fill(n_last), env=cap)
    assert r.returncode == 0
    assert len(json.loads(r.stdout)["result"]["entries"]) == rows[n_last]
    r = run_cli("count", *fill(n_last + 1), env=cap)
    assert r.returncode == 3
    assert "refused" in r.stderr
    # a huge n is refused at once: the count stops where it passes the cap
    r = run_cli("count", *fill(10**9), timeout=60)
    assert r.returncode == 3
    assert "at least" in r.stderr


def test_parking_count_takes_one_type():
    # --lambda picks one row of the --by type table, as for the other families
    table = run_cli("count", "--family", "pf", "-n", "4", "--by", "type")
    entries = json.loads(table.stdout)["result"]["entries"]
    assert len(entries) == 5
    for entry in entries:
        lam = ",".join(map(str, entry["lambda"]))
        r = run_cli("count", "--family", "pf", "-n", "4", "--by", "type", "--lambda", lam, "--check")
        assert r.returncode == 0
        result = json.loads(r.stdout)["result"]
        assert result["entries"] == [entry]
        assert result["check"] == "pass"
    r = run_cli("count", "--family", "pf", "-n", "3", "--by", "type", "--lambda", "9,9")
    assert r.returncode == 2
    assert "type must be a partition of 3" in r.stderr
    r = run_cli("count", "--family", "pf", "-n", "3", "--lambda", "2,1")
    assert r.returncode == 2
    assert "usage error" in r.stderr


def test_formula_expansion_is_guarded_by_its_term_count():
    r = run_cli("expand", "--family", "fuss-a", "--method", "formula", "-n", "30", "-k", "1")
    assert r.returncode == 0
    result = json.loads(r.stdout)["result"]
    assert result["coefficient_sum"] == str(fuss_catalan(31, 1))
    assert result["term_count"] == 28629  # partitions of weight <= 30
    for family in ("fuss-a", "fuss-b"):
        r = run_cli(
            "expand", "--family", family, "--method", "formula", "-n", str(10**9), "-k", "1",
            timeout=60,
        )
        assert r.returncode == 3
        assert "refused" in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("count", "--family", "nca", "-n", "0", "--by", "reduced-type"),
        ("count", "--family", "nca-k", "-n", "0", "-k", "2", "--by", "reduced-type", "--lambda", ""),
        ("enumerate", "--object", "nca-k", "-n", "0", "-k", "1"),
        ("biject", "--map", "psi-a", "--forward", "-n", "0", "-k", "1", "--input="),
        ("biject", "--map", "psi-a", "--inverse", "-n", "0", "-k", "1", "--input="),
    ],
)
def test_reduced_type_at_zero_names_its_bound(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert "the reduced type needs n >= 1" in r.stderr


@pytest.mark.parametrize("literal", ["", "0"])
@pytest.mark.parametrize("map_name", ["phi-a", "phi-b"])
def test_phi_forward_at_zero_names_the_shape_bound(map_name, literal):
    # the family shape needs n >= 1, refused before the literal is read, as
    # the inverse refuses it before it counts letters
    r = run_cli("biject", "--map", map_name, "--forward", "-n", "0", "-k", "1", "--input=" + literal)
    assert r.returncode == 2
    assert "usage error: need n >= 1 and k >= 1\n" in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        # (k+1)(n+1) letters, but a Fuss-Catalan path starts with E
        ("--map", "phi-a", "--inverse", "-n", "1000", "-k", "1000", "--input=" + "N" * 1001**2),
        # n entries, but the last is not a height
        ("--map", "phi-b", "--forward", "-n", "100000", "-k", "1", "--input=" + "-," * 99999 + "x"),
    ],
)
def test_biject_builds_a_large_family_shape_quickly(args, capsys):
    # a literal of the right size is read against the shape of kn rows, so
    # the shape is built before the literal is refused; one column's interval
    # is two bisections over its rows, not two scans.  The literals pass
    # 128 KiB, the most one argv string may hold, so they go in-process, with
    # a bound on the time: each takes under half a second, and a build that
    # scans the rows per column took 73 s for the phi-a case.
    start = time.monotonic()
    assert cli.main(["biject", *args]) == 2
    assert time.monotonic() - start < 10
    assert "usage error" in capsys.readouterr().err


def _limit_address_space():
    # a family shape of kn = 10^10 rows fails at 1.5 GB, not at the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))


@pytest.mark.parametrize(
    "args, refusal",
    [
        (("--map", "phi-a", "--inverse", "--input=E"), "need 10000200001 letters, got 1"),
        (("--map", "phi-b", "--inverse", "--input=E"), "need 10000100000 letters, got 1"),
        (("--map", "phi-a", "--forward", "--input=-"), "needs 100000 entries (one per column), got 1"),
        (("--map", "phi-b", "--forward", "--input=-"), "needs 100000 entries (one per column), got 1"),
    ],
)
def test_biject_refuses_a_literal_of_the_wrong_size_before_building_the_shape(args, refusal):
    # the word's letters and the strip's entries are counted against (n, k)
    # first, so the work is bounded by the literal or by the map's output
    r = run_cli(
        "biject", *args, "-n", "100000", "-k", "100000",
        timeout=60, preexec_fn=_limit_address_space,
    )
    assert r.returncode == 2
    assert refusal in r.stderr


@pytest.mark.parametrize(
    "args, refusal",
    [
        (
            ("enumerate", "--object", "nca-k", "-n", "1", "-k", "100000000"),
            "noncrossing enumeration would produce 100000000 elements in one object",
        ),
        (
            ("biject", "--map", "phi-a", "--forward", "-n", "1", "-k", "1000000000", "--input=-"),
            "the family shape would produce 1000000000 rows",
        ),
        (
            ("biject", "--map", "phi-b", "--forward", "-n", "1", "-k", "1000000000", "--input=-"),
            "the family shape would produce 1000000000 rows",
        ),
    ],
)
def test_one_object_past_the_cap_is_refused_before_it_is_built(args, refusal):
    # one partition of 10^8 labels passes the object count, and a one-entry
    # strip passes its literal check; each would fail at 1.5 GB, so the size
    # of the one object, or the family shape's rows, is capped as well
    r = run_cli(*args, timeout=60, preexec_fn=_limit_address_space)
    assert r.returncode == 3
    assert f"refused: {refusal}, over the cap of 500000" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "args, refusal",
    [
        (("expand", "--shape", "100000000"), "100000000 columns"),
        (("enumerate", "--object", "rstrips", "--shape", "100000000"), "100000000 columns"),
        # one box, in the last of 10^8 columns
        (("expand", "--shape", "100000000/99999999"), "100000000 columns"),
        # 500000 columns pass; two rows of them do not
        (("expand", "--shape", "500000,500000"), "1000000 boxes"),
    ],
)
def test_a_shape_literal_past_the_cap_is_refused_before_the_shape_is_built(args, refusal):
    # nine characters name a shape whose column profile fails at 1.5 GB
    start = time.monotonic()
    r = run_cli(*args, timeout=60, preexec_fn=_limit_address_space)
    assert time.monotonic() - start < 5
    assert r.returncode == 3
    assert f"refused: the shape would produce {refusal}, over the cap of 500000" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("expand", "--family", "fuss-a", "-n", "2", "-k", "1000000000", "--method", "formula"),
        ("count", "--family", "nca-k", "-n", "3", "-k", "1000000000"),
    ],
)
def test_tables_of_a_huge_k_are_not_capped_by_kn(args):
    # formulas and count tables build nothing of size kn
    r = run_cli(*args, timeout=60, preexec_fn=_limit_address_space)
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"]


def test_the_object_size_cap_is_the_object_cap():
    cap = {"NCSTRIP_MAX_OBJECTS": "100"}
    r = run_cli("enumerate", "--object", "ncb-k", "-n", "1", "-k", "50", env=cap)
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"]["count"] == 51
    r = run_cli("enumerate", "--object", "ncb-k", "-n", "1", "-k", "51", env=cap)
    assert r.returncode == 3
    assert "would produce 102 elements in one object, over the cap of 100" in r.stderr
    r = run_cli("biject", "--map", "phi-b", "--forward", "-n", "1", "-k", "101", "--input=-",
                env=cap)
    assert r.returncode == 3
    assert "the family shape would produce 101 rows, over the cap of 100" in r.stderr


# Every case runs through cli.main in one subprocess, read from stdin, since
# one argv string holds at most 128 KiB; it prints, per case, the exit code
# (argparse's too), stdout, stderr with any traceback, seconds, and the
# int-str limit after main.
_HOSTILE_RUNNER = """
import contextlib, io, json, sys, time, traceback
from ncstrip import cli
out = []
for argv in json.load(sys.stdin):
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            code = None
            traceback.print_exc()
    out.append([code, stdout.getvalue(), stderr.getvalue(), time.monotonic() - start,
                sys.get_int_max_str_digits()])
print(json.dumps(out))
"""


# Each listing and family expansion whose count once ran to 36 s (n = 10^6)
# or past 30 s (n = 10^9) before its guard refused it, and at the first n
# whose bound 2^(n-1) alone passes 2^64.
_HUGE_N = [
    (argv + ["-n", n] + k, f"{what} would produce more than 500000 objects")
    for n in ("66", "67", "1000000", "1000000000")
    for argv, k, what in [
        (["enumerate", "--object", "fuss-catalan"], ["-k", "1"], "path enumeration"),
        (["enumerate", "--object", "binomial"], ["-k", "1"], "path enumeration"),
        (["enumerate", "--object", "nca-k"], ["-k", "1"], "noncrossing enumeration"),
        (["enumerate", "--object", "ncb-k"], ["-k", "1"], "noncrossing enumeration"),
        (["enumerate", "--object", "pf"], [], "parking function enumeration"),
        (["enumerate", "--object", "pf", "--primitive"], [], "parking function enumeration"),
        (["expand", "--family", "fuss-a"], ["-k", "1"], "expansion of the stretched staircase"),
        (["expand", "--family", "fuss-b"], ["-k", "1"], "expansion of the rectangle"),
    ]
]

# Each listing and family expansion with a k, at n = 2 and 66, with k = 10^9
# and with a k of 4,300 digits, the most argparse reads (main lifts CPython's
# int-to-str limit only after parsing).
_HUGE_K = [
    (argv + ["-n", n, "-k", k], f"{what} would produce {amount} objects")
    for argv, what, at_2 in [
        (["enumerate", "--object", "fuss-catalan"], "path enumeration", "1000000001"),
        (["enumerate", "--object", "binomial"], "path enumeration", "2000000003000000001"),
        (["enumerate", "--object", "nca-k"], "noncrossing enumeration", "1000000001"),
        (["enumerate", "--object", "ncb-k"], "noncrossing enumeration", "2000000003000000001"),
        (["expand", "--family", "fuss-a"], "expansion of the stretched staircase",
         "1500000002500000001"),
        (["expand", "--family", "fuss-b"], "expansion of the rectangle", "2000000003000000001"),
    ]
    for n, k, amount in [
        ("2", "1000000000", at_2),
        ("2", "1" + "0" * 4299, "more than 500000"),
        ("66", "1000000000", "more than 500000"),
        ("66", "1" + "0" * 4299, "more than 500000"),
    ]
]

# a k of 4,300 digits, the most argparse reads
_K = "1" + "0" * 4299


def _ones(m: int) -> str:
    """m ones joined by commas: a one-column shape of m rows, or 1^m."""
    return ",".join(["1"] * m)


# Each once passed every guard: the two tall listings exited 1 with a
# MemoryError, the two wide expansions ran 206 s and 13 s, and the counts,
# whose entries are up to (kn + 1)^l, wrote megabytes of digits or ran past
# 30 s, or (the two last) spent 3.7 s and 6.7 s converting entries of up to
# 77,405 digits to str, a cost quadratic in the digits
_GROWN = [
    (["enumerate", "--object", "rstrips", "--shape", _ones(20000)],
     "r-strip enumeration would produce 400040001 elements in all objects"),
    (["enumerate", "--object", "rstrips", "--shape", _ones(60000)],
     "r-strip enumeration would produce 3600120001 elements in all objects"),
    (["expand", "--shape", "20000"],
     "expansion of the shape would produce 400020000 census entries"),
    (["expand", "--shape", "6000"],
     "expansion of the shape would produce 36006000 census entries"),
    (["count", "--family", "nca-k", "-n", "24", "-k", _K, "--by", "type"],
     "count table would produce 162555750 digits in all entries"),
    (["count", "--family", "ncb-k", "-n", "3000", "-k", _K, "--lambda", _ones(3000)],
     "count table would produce 12907432 digits in one entry"),
    (["expand", "--family", "fuss-b", "--method", "formula", "-n", "24", "-k", _K],
     "formula expansion would produce 757354980 digits in all entries"),
    (["count", "--family", "nca-k", "-n", "16", "-k", _K, "--by", "type"],
     "count table would produce 1093551786096 squared digits in all entries"),
    (["count", "--family", "nca-k", "-n", "18", "-k", _K, "--by", "type"],
     "count table would produce 2306740599625 squared digits in all entries"),
]

# Block literals that int() refuses: the usage error names the literal, as
# a bad shape literal's does, not only int()'s own message
_BAD_BLOCKS = [
    (["biject", "--map", m, "--inverse", "-n", "2", "-k", "1", "--input=" + i],
     f"bad blocks literal {i!r}: invalid literal for int() with base 10: {bad!r}")
    for m in ("psi-a", "psi-b") for i, bad in (("-", "-"), ("1,x", "x"))
]

# Literals whose refusal by the library names no argument: the usage error
# keeps the library's message whole and names the option that held it
_UNNAMED = [
    *((["count", "--family", "nca-k", "-n", "4", "-k", "1", "--by", "type", "--lambda", i],
       message)
      for i, message in (("0,1", "partition parts must be positive, got 0"),
                         ("3,4", "parts must be weakly decreasing, got (3, 4)"))),
    *(([*argv, "--shape", "8,6,2,1,1/7"], "column support is not contiguous: [1, 2, 3, 4, 5, 6, 8]")
      for argv in (["expand"], ["enumerate", "--object", "rstrips"])),
    *((["biject", "--map", m, "--forward", "-n", "2", "-k", "1", "--input=0,2"],
       "east step over column 2 at height 3 is outside [1, 2]") for m in ("phi-a", "phi-b")),
    (["biject", "--map", "psi-a", "--inverse", "-n", "4", "-k", "1", "--input=1,3/2,4"],
     "partition is crossing"),
    (["biject", "--map", "psi-b", "--inverse", "-n", "2", "-k", "1", "--input=1,2/-1/-2"],
     "partition is not invariant under negation"),
]

# The hostile input table: n and k in {0, 1, 10^9} for every listing, family
# expansion, count table and map, and literals that are empty, "-", or one
# item short or long of a valid one at (2, 1).  Each exits 0, 2 or 3.
_VALUES = ("0", "1", "1000000000")
_NK = [["-n", n, "-k", k] for n in _VALUES for k in _VALUES]
_VALID_SHORT_LONG = [
    (["biject", "--map", "psi-a", "--forward"], "EENN", "EEN", "EENNN"),
    (["biject", "--map", "psi-a", "--inverse"], "1/2", "1", "1/2/3"),
    (["biject", "--map", "psi-b", "--forward"], "EENN", "EEN", "EENNN"),
    (["biject", "--map", "psi-b", "--inverse"], "-1/-2/1/2", "-1/1", "-1/-2/-3/1/2/3"),
    (["biject", "--map", "phi-a", "--forward"], "-,0", "-", "-,0,0"),
    (["biject", "--map", "phi-a", "--inverse"], "EENENN", "EENEN", "EENENNN"),
    (["biject", "--map", "phi-b", "--forward"], "-,0", "-", "-,0,0"),
    (["biject", "--map", "phi-b", "--inverse"], "ENEN", "ENE", "ENENN"),
]
_TABLE = [
    *(["enumerate", "--object", o, *nk] for o in ("fuss-catalan", "binomial", "nca-k", "ncb-k")
      for nk in _NK),
    *(["enumerate", "--object", "pf", "-n", n, *p] for n in _VALUES for p in ([], ["--primitive"])),
    *(["expand", "--family", f, *nk, "--method", m] for f in cli.EXPANSIONS
      for m in ("enumerate", "formula") for nk in _NK),
    *(["count", "--family", "nca", "-n", n, "--by", by, *c] for n in _VALUES
      for by in ("type", "reduced-type") for c in ([], ["--check"])),
    *(["count", "--family", f, *nk, "--by", by, *c]
      for f, bys in (("nca-k", ("type", "reduced-type")), ("ncb-k", ("type",)))
      for by in bys for nk in _NK for c in ([], ["--check"])),
    *(["count", "--family", "pf", "-n", n, *by, *c] for n in _VALUES
      for by in ([], ["--by", "type"]) for c in ([], ["--check"])),
    *(["biject", "--map", m, d, *nk, "--input=" + i] for m in cli.MAPS
      for d in ("--forward", "--inverse") for nk in _NK for i in ("", "-")),
    *([*argv, "-n", "2", "-k", "1", "--input=" + i] for argv, *inputs in _VALID_SHORT_LONG
      for i in inputs),
    *(["count", "--family", "nca", "-n", "4", "--lambda", i]
      for i in ("2,1,1", "2,1", "2,1,1,1", "", "-")),
    *(["count", "--family", "ncb-k", "-n", "2", "-k", "1", "--lambda", i]
      for i in ("1,1", "1", "1,1,1", "", "-")),
    *(["count", "--family", "nca", "-n", "2", "--by", "reduced-type", "--lambda", i]
      for i in ("1", "1,1", "", "-")),
    *([*argv, "--shape", s] for argv in (["enumerate", "--object", "rstrips"], ["expand"])
      for s in ("", "-", "0", "1/1")),
]

# a usage error names what it refuses: -n or -k, an option, or the kind of
# literal an option holds
_NAMES_AN_ARGUMENT = re.compile(r"\b[nk]\b|--[a-z]|\b(shape|path|letters|literal|blocks|type)\b")


def test_hostile_counts_are_refused_at_once_or_printed_whole():
    # each case once exited 2 on CPython's 4,300-digit limit for int-to-str
    # conversion (the refusal formatted its exact count), ran past 30 s,
    # wrote 8,001 strips of 8,000 columns in 47 s, or converted a count of
    # 500,000 digits to a str twice in 8.7 s, or (an n of 401 digits) exited
    # 2 when the digit estimate converted n to a float; and the rest of the
    # hostile table exits 0, 2 or 3 at once with no traceback
    refused = _HUGE_N + _HUGE_K + _GROWN + [
        (["enumerate", "--object", "fuss-catalan", "-n", "7152", "-k", "1"],
         "path enumeration would produce more than 500000 objects"),
        (["enumerate", "--object", "fuss-catalan", "-n", "7153", "-k", "1"],
         "path enumeration would produce more than 500000 objects"),
        (["enumerate", "--object", "pf", "-n", "1372"],
         "parking function enumeration would produce more than 500000 objects"),
        (["enumerate", "--object", "rstrips", "--shape", "8000"],
         "r-strip enumeration would produce 64016001 elements in all objects"),
        (["count", "--family", "pf", "-n", "100000"],
         "the parking function count would produce 499996 digits, over the cap of "
         "125000 (NCSTRIP_MAX_OBJECTS / 4)"),
        (["count", "--family", "pf", "-n", "1000000000"],
         "the parking function count would produce 8999999992 digits, over the cap of "
         "125000 (NCSTRIP_MAX_OBJECTS / 4)"),
        *(
            (["count", "--family", "pf", "-n", "1" + "0" * 400, *check],
             "the parking function count would produce more than 125000 digits, over the "
             "cap of 125000 (NCSTRIP_MAX_OBJECTS / 4)")
            for check in ([], ["--check"])
        ),
    ]
    printed = [(["count", "--family", "pf", "-n", str(n)], n) for n in (1371, 1372)]
    named = _BAD_BLOCKS + _UNNAMED
    cases = [argv for argv, _ in refused + printed + named] + _TABLE
    r = subprocess.run(
        [sys.executable, "-c", _HOSTILE_RUNNER], input=json.dumps(cases),
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
    )
    assert r.returncode == 0, r.stderr
    runs = json.loads(r.stdout)
    for (argv, refusal), (code, out, err, seconds, limit) in zip(refused, runs):
        assert (code, out) == (3, ""), argv
        assert f"refused: {refusal}" in err
        assert seconds < 2 and limit == sys.get_int_max_str_digits()
    runs = runs[len(refused):]
    for (argv, n), (code, out, err, seconds, limit) in zip(printed, runs):
        assert code == 0, err
        count = json.loads(out)["result"]["count"]
        # (n+1)^(n-1) has 4,299 and 4,302 digits, on each side of the
        # limit; its last 18 are checked
        assert len(count) == int((n - 1) * math.log10(n + 1)) + 1 == {1371: 4299, 1372: 4302}[n]
        assert int(count[-18:]) == pow(n + 1, n - 1, 10**18)
        assert seconds < 2 and limit == sys.get_int_max_str_digits()
    runs = runs[len(printed):]
    for (argv, message), (code, out, err, seconds, limit) in zip(named, runs):
        assert (code, out) == (2, ""), argv
        assert f"usage error: {message}" in err
        assert _NAMES_AN_ARGUMENT.search(err.partition("usage error: ")[2]), (argv, err)
    for argv, (code, out, err, seconds, limit) in zip(_TABLE, runs[len(named):], strict=True):
        assert code in (0, 2, 3) and "Traceback" not in err, (argv, err)
        assert seconds < 2 and limit == sys.get_int_max_str_digits(), argv
        if code == 2:
            assert _NAMES_AN_ARGUMENT.search(err.partition("usage error: ")[2]), (argv, err)


# NCSTRIP_MAX_OBJECTS unset (the default), caps up to 2^64, where the limit
# is 2^64, and one past it
@pytest.mark.parametrize("cap", [None, 0, 1, 4, 5, 6, 41, 42, 43, 10**6, 2**64, 10**30])
def test_the_guards_counts_are_exact_up_to_their_limit(monkeypatch, cap):
    # _count_within gives the closed form, or limit + 1 once a lower bound
    # (2^(n-1), or k + 1 from n = 2 on) passes limit = max(cap, 2^64), so
    # every count the guards compare or print is exact
    if cap is None:
        monkeypatch.delenv("NCSTRIP_MAX_OBJECTS", raising=False)
    else:
        monkeypatch.setenv("NCSTRIP_MAX_OBJECTS", str(cap))
    monkeypatch.setattr(cli, "_cap", None)
    limit = max(cli.DEFAULT_MAX_OBJECTS if cap is None else cap, 2**64)

    def counts(n, k):
        """(the guard's count, the true count) of each guarded family."""
        return [
            (cli._count_within(n, k, fuss_catalan, n, k), fuss_catalan(n, k)),
            (cli._count_within(n, k, binomial, (k + 1) * n, n), binomial((k + 1) * n, n)),
            (cli._count_within(n, 1, count_parking_functions, n), count_parking_functions(n)),
        ]

    for n in range(13):
        for k in range(1, 5):
            for got, true in counts(n, k):
                assert got == true
    # the first n whose 2^(n-1) passes limit, and the first k whose k + 1
    # does at n = 2: past limit exactly when the true count is
    edges = [(n, k) for n in (limit.bit_length() + 1, limit.bit_length() + 2)
             for k in range(1, 5)]
    for n, k in edges + [(2, limit), (2, limit + 1)]:
        for got, true in counts(n, k):
            assert min(got, limit + 1) == min(true, limit + 1)
    # and there the bounds answer alone, while one step short of them the
    # closed form still runs
    assert cli._count_within(limit.bit_length() + 1, 1, pytest.fail) == limit + 1
    assert cli._count_within(2, limit, pytest.fail) == limit + 1
    assert cli._count_within(limit.bit_length(), limit - 1, int) == 0


@pytest.mark.parametrize(
    "family, n, k, count",
    [("nca-k", "7", "2", 7752), ("ncb-k", "5", "2", 3003)],
)
def test_count_check_is_capped_as_its_enumerate_listing(monkeypatch, capsys, family, n, k, count):
    # the census of --check is `enumerate --object family`, under its caps
    argv = ["count", "--family", family, "-n", n, "-k", k, "--by", "type", "--check"]
    monkeypatch.delenv("NCSTRIP_MAX_OBJECTS", raising=False)
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["check"] == "pass"
    monkeypatch.setenv("NCSTRIP_MAX_OBJECTS", "100")
    refusals = []
    for args in (argv, ["enumerate", "--object", family, "-n", n, "-k", k]):
        assert cli.main(args) == 3
        refusals.append(capsys.readouterr().err.splitlines()[0])
    assert refusals[0] == refusals[1] == (
        f"refused: noncrossing enumeration would produce {count} objects, over the cap of "
        "100 (raise NCSTRIP_MAX_OBJECTS to override)"
    )


def test_a_listing_is_capped_by_the_elements_of_all_its_objects(monkeypatch, capsys):
    # 100,001 objects of 200,000 labels pass the object cap and the cap on
    # one object; together they hold 2 * 10^10 labels
    r = run_cli("enumerate", "--object", "nca-k", "-n", "2", "-k", "100000", timeout=60,
                preexec_fn=_limit_address_space)
    assert r.returncode == 3
    assert (
        "refused: noncrossing enumeration would produce 20000200000 elements in all "
        "objects, over the cap of 32000000 (64 times NCSTRIP_MAX_OBJECTS)"
    ) in r.stderr
    assert "Traceback" not in r.stderr
    # 43,263 objects of 16 labels
    assert cli.main(["enumerate", "--object", "nca-k", "-n", "8", "-k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["count"] == 43263
    # at a cap of 100: 80 paths of 80 letters pass, 81 of 81 do not
    monkeypatch.setenv("NCSTRIP_MAX_OBJECTS", "100")
    assert cli.main(["enumerate", "--object", "binomial", "-n", "1", "-k", "79"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["count"] == 80
    assert cli.main(["enumerate", "--object", "binomial", "-n", "1", "-k", "80"]) == 3
    assert "6561 elements in all objects, over the cap of 6400" in capsys.readouterr().err


@pytest.mark.parametrize("n", range(5))
def test_the_parking_listing_types_unsorted_sequences(capsys, n):
    # without --primitive the sequences are every rearrangement
    assert cli.main(["enumerate", "--object", "pf", "-n", str(n)]) == 0
    objects = json.loads(capsys.readouterr().out)["result"]["objects"]
    assert len(objects) == ((n + 1) ** (n - 1) if n else 1)
    assert [o["type"] for o in objects] == [list(pf_type(o["sequence"])) for o in objects]
    assert any(o["sequence"] != sorted(o["sequence"]) for o in objects) == (n >= 2)


@pytest.mark.parametrize("primitive", [[], ["--primitive"]])
def test_a_negative_parking_length_is_a_usage_error(capsys, primitive):
    # refused before the guard's count, whose Catalan form divides by n + 1
    assert cli.main(["enumerate", "--object", "pf", "-n", "-1", *primitive]) == 2
    assert "usage error: n must be >= 0" in capsys.readouterr().err


def test_count_of_one_type_does_not_grow_with_kn():
    # a falling factorial of length(lambda) factors, not two factorials of kn
    r = run_cli(
        "count", "--family", "nca-k", "-n", "3", "-k", "1000000", "--lambda", "2,1",
        timeout=60,
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"]["entries"] == [{"lambda": [2, 1], "count": "3000000"}]
    r = run_cli("count", "--family", "ncb-k", "-n", "1000000", "--lambda", "1", timeout=60)
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"]["entries"] == [{"lambda": [1], "count": "1000000"}]


@pytest.mark.parametrize(
    "args,total",
    [
        (("nca-k", "--by", "type"), fuss_catalan(6, 10**6)),
        (("nca-k", "--by", "reduced-type"), fuss_catalan(6, 10**6)),
        (("ncb-k",), binomial((10**6 + 1) * 6, 6)),
    ],
)
def test_count_table_does_not_grow_with_kn(args, total):
    # the table's falling factorials stop at its longest row, not at kn
    r = run_cli("count", "--family", *args, "-n", "6", "-k", "1000000", timeout=60)
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"]["sum"] == str(total)


@pytest.mark.parametrize(
    "args,name",
    [
        (("count", "--family", "ncb-k", "--by", "type", "-n", "12", "-k", "2"), "as_partition"),
        (
            ("count", "--family", "nca-k", "--by", "reduced-type", "-n", "12", "-k", "2"),
            "as_partition",
        ),
        (("count", "--family", "pf", "--by", "type", "--check", "-n", "7"), "is_parking_function"),
        (
            ("expand", "--family", "fuss-b", "--method", "formula", "-n", "12", "-k", "2"),
            "partition_sort_key",
        ),
        (("enumerate", "--object", "pf", "-n", "5"), "is_parking_function"),
    ],
)
def test_the_librarys_own_rows_are_not_checked_or_sorted_again(monkeypatch, capsys, args, name):
    # count rows and formula terms come from the partition listers in
    # canonical order, and the tallied sequences from the parking enumerator
    calls = counted(monkeypatch, name)
    assert cli.main(list(args)) == 0
    assert "fail" not in capsys.readouterr().out
    assert calls == []


@pytest.mark.parametrize(
    "args",
    [
        ("enumerate", "--object", "nca-k", "-n", "4", "-k", "1"),
        ("enumerate", "--object", "pf", "-n", "4"),
        ("enumerate", "--object", "rstrips", "--shape", "3,2/1", "--ascii-art"),
        ("biject", "--map", "psi-a", "--forward", "-n", "3", "-k", "1", "--input", "EENENN"),
    ],
)
def test_json_builds_no_table_text(monkeypatch, capsys, args):
    # the table is drawn from the payload's values only for --format table
    listing = cli.LISTINGS["rstrips"]
    drawn = []
    monkeypatch.setitem(
        cli.LISTINGS, "rstrips", listing._replace(art=lambda s: drawn.append(s) or listing.art(s))
    )
    calls = counted(monkeypatch, "format_partition")
    assert cli.main(list(args)) == 0
    assert json.loads(capsys.readouterr().out)["command"] == args[0]
    assert (calls, drawn) == ([], [])
    assert cli.main([*args, "--format", "table"]) == 0
    assert calls
    assert len(drawn) == (8 if "--ascii-art" in args else 0)


def test_a_lambda_row_is_still_validated(monkeypatch, capsys):
    calls = counted(monkeypatch, "as_partition")
    assert cli.main(["count", "--family", "nca-k", "-n", "4", "-k", "2", "--lambda", "2,1,1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["sum"] == "28"
    assert calls
    assert cli.main(["count", "--family", "nca-k", "-n", "4", "-k", "2", "--lambda", "2,1"]) == 2
    assert "type must be a partition of 4, got weight 3" in capsys.readouterr().err


def test_a_broken_invariant_is_not_a_usage_error(monkeypatch):
    # exact_div and exact_quotients raise ArithmeticError only when a closed
    # form breaks its own invariant: that is the program's fault, not the
    # arguments', so it propagates out of main
    def broken(n, k, rows, products):
        raise ArithmeticError("a count table has a row that is not an integer")

    rows, _, census = cli.COUNTS["nca-k"]["type"]
    monkeypatch.setitem(cli.COUNTS["nca-k"], "type", (rows, broken, census))
    for lam in ([], ["--lambda", "2,1,1"]):
        with pytest.raises(ArithmeticError, match="not an integer"):
            cli.main(["count", "--family", "nca-k", "-n", "4", "-k", "2", *lam])


def test_a_count_table_is_written_in_a_number_of_writer_calls_free_of_its_rows(
    monkeypatch, capsys
):
    # the rows of a list of records are written from one template, so the
    # writer recurses into the payload's structure and not into its rows
    def writer_calls(n):
        calls = counted(monkeypatch, "_write_json")
        assert cli.main(["count", "--family", "ncb-k", "--by", "type", "-n", n, "-k", "2"]) == 0
        monkeypatch.undo()
        return len(calls), len(json.loads(capsys.readouterr().out)["result"]["entries"])

    small, large = writer_calls("3"), writer_calls("12")
    assert (small[1], large[1]) == (7, 272)
    assert small[0] == large[0] < 20


def stdlib_indent_2(stdout: str) -> str:
    return json.dumps(json.loads(stdout), indent=2) + "\n"


def pf_listing(n: int) -> dict:
    objects = [
        {"sequence": s, "type": pf_type(s), "primitive": is_primitive(s)}
        for s in enumerate_parking_functions(n)
    ]
    return {
        "command": "enumerate",
        "parameters": {"object": "pf", "n": n, "primitive": False},
        "result": {"count": len(objects), "objects": objects},
    }


def ncb_type_table(n: int, k: int) -> dict:
    lams = partitions_with_weight_at_most(n)
    counts = [count_by_type_b(n, k, lam) for lam in lams]
    return {
        "command": "count",
        "parameters": {"family": "ncb-k", "n": n, "k": k, "by": "type", "lambda": None},
        "result": {
            "entries": [{"lambda": lam, "count": str(c)} for lam, c in zip(lams, counts)],
            "sum": str(sum(counts)),
        },
    }


# payloads rebuilt from the library's own calls and written by the stdlib,
# compared byte for byte: parsed values could not tell 1 from True
EXPECTED_PAYLOADS = {
    ("count", "--family", "ncb-k", "--by", "type", "-n", "22", "-k", "3"): (
        lambda: ncb_type_table(22, 3)
    ),
    ("enumerate", "--object", "pf", "-n", "4"): lambda: pf_listing(4),
}


@pytest.mark.parametrize(
    "args",
    [
        ("count", "--family", "ncb-k", "--by", "type", "-n", "22", "-k", "3"),
        ("enumerate", "--object", "ncb-k", "-n", "3", "-k", "2"),
        ("verify", "--theorem", "bijections", "--n-max", "2"),
        # bool and int-tuple record columns, flat int tuples inside a dict,
        # and a plain list of dicts
        ("enumerate", "--object", "pf", "-n", "4"),
        ("biject", "--map", "psi-b", "--forward", "-n", "3", "-k", "2", "--input", "NEENNNNEN"),
        ("verify", "--theorem", "1.1", "--n-max", "2"),
    ],
)
def test_large_payloads_are_written_as_the_stdlib_writes_them(args):
    r = run_cli(*args)
    assert r.returncode == 0
    assert r.stdout == stdlib_indent_2(r.stdout)
    if args in EXPECTED_PAYLOADS:
        assert r.stdout == json.dumps(EXPECTED_PAYLOADS[args](), indent=2) + "\n"


def write_json(value) -> str:
    out = []
    cli._write_json(value, out, "\n")
    return "".join(out)


TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\xe9\U0001f600'))
RECORD_FIELDS = (
    TEXT
    | st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    # empty lists, and bools inside int lists
    | st.lists(st.integers(min_value=-(2**70), max_value=2**70) | st.booleans(), max_size=4)
    | st.lists(st.integers(), max_size=4).map(tuple)
)


@st.composite
def record_lists(draw, fields):
    """Lists of dicts that share their keys in one order, and the same with
    one row's keys reversed, one key dropped or one key added."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    rows = [{key: draw(fields) for key in keys} for _ in range(draw(st.integers(1, 4)))]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    change = draw(st.sampled_from(["none", "none", "reverse", "drop", "add"]))
    if change == "reverse":
        items = list(row.items())[::-1]
        row.clear()
        row.update(items)
    elif change == "drop":
        del row[keys[-1]]
    elif change == "add":
        row[draw(TEXT)] = draw(fields)
    return rows


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | TEXT
    | st.lists(st.integers(min_value=-(2**70), max_value=2**70))
    | record_lists(RECORD_FIELDS),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(TEXT, children)
    # nested dicts and lists, and lists of records, as record fields
    | record_lists(RECORD_FIELDS | children),
    max_leaves=25,
)


@given(JSON_VALUES)
def test_json_writer_equals_the_stdlib_indent_2_writer(value):
    assert write_json(value) == json.dumps(value, indent=2)


INTS = st.integers(-3, 3) | st.integers(min_value=-(2**200), max_value=2**200)
INT_ITEMS = st.lists(INTS, max_size=4) | st.lists(INTS, max_size=4).map(tuple)
# a list with a value that no int column holds, and whether the writer refuses it
ODD_ITEMS = (
    st.lists(st.booleans(), min_size=1, max_size=3).map(lambda x: (x, False))
    | st.lists(st.floats(allow_nan=False), min_size=1, max_size=3).map(lambda x: (x, True))
    | st.lists(st.lists(INTS, max_size=2), min_size=1, max_size=3).map(lambda x: (x, False))
)


@st.composite
def record_columns(draw):
    """Records whose columns each hold one kind of value: all str, all flat
    lists and tuples of ints (empty ones too), or all None, and at times no
    rows; the list of dicts they stand for; and whether one later row was
    given an odd list, which the writer refuses when it holds a float."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    size = draw(st.integers(0, 6))
    columns = [
        draw(st.lists(draw(st.sampled_from([TEXT, INT_ITEMS, st.none()])),
                      min_size=size, max_size=size))
        for _ in keys
    ]
    refused = False
    if size > 1 and draw(st.booleans()):
        odd, refused = draw(ODD_ITEMS)
        columns[draw(st.integers(0, len(keys) - 1))][draw(st.integers(1, size - 1))] = odd
    rows = [dict(zip(keys, values)) for values in zip(*columns)]
    return cli.Records(tuple(keys), tuple(columns)), rows, refused


@given(record_columns())
def test_record_columns_are_written_as_the_stdlib_writes_them(case):
    # Records column by column, and the plain list of dicts they stand for
    # through the writer's generic path
    records, rows, refused = case
    for value in (records, rows):
        payload = {"result": {"entries": value}}
        if refused:
            with pytest.raises(TypeError):
                write_json(payload)
        else:
            assert write_json(payload) == json.dumps({"result": {"entries": rows}}, indent=2)


@pytest.mark.parametrize("cumulative", [False, True])
@pytest.mark.parametrize("pad", [cli.RECORD_FIELD_PAD, "\n"])
def test_the_row_lister_renders_each_row_as_the_writer_does(pad, cumulative):
    for w in range(25):
        rows, products, texts = partition_rows(w, cumulative, pad)
        assert (rows, products) == partition_rows(w, cumulative)
        assert texts == list(cli._column_texts(rows, pad))


def plain(value):
    """value with every Records replaced by the list of dicts it stands for."""
    if type(value) is cli.Records:
        return [dict(zip(value.keys, map(plain, row))) for row in zip(*value.columns)]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(plain, value))
    return value


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("family", ["nca-k", "ncb-k"])
def test_a_large_count_table_prints_as_the_stdlib_writes_it(family, k, capsys):
    argv = ["count", "--family", family, "--by", "type", "-n", "22", "-k", str(k)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    params, result, _, _ = cli.cmd_count(cli.build_parser().parse_args(argv))
    payload = {"command": "count", "parameters": params, "result": plain(result)}
    assert out == json.dumps(payload, indent=2) + "\n"


def test_a_count_table_writes_the_texts_its_row_lister_rendered():
    argv = ["count", "--family", "ncb-k", "--by", "type", "-n", "5", "-k", "2"]
    params, result, _, _ = cli.cmd_count(cli.build_parser().parse_args(argv))
    lams = result["entries"].columns[0]
    assert type(lams) is cli.Rendered and lams.pad == cli.RECORD_FIELD_PAD
    lams.texts = [f'"row {i}"' for i in range(len(lams))]
    written = json.loads(write_json({"command": "count", "parameters": params, "result": result}))
    assert [e["lambda"] for e in written["result"]["entries"]] == [f"row {i}" for i in range(len(lams))]
    # at any other pad the writer renders the rows themselves
    assert json.loads(write_json(lams)) == list(map(list, lams))


def test_a_count_table_takes_its_multiplicity_products_from_the_row_lister(monkeypatch, capsys):
    calls = counted(monkeypatch, "multiplicity_product")
    assert cli.main(["count", "--family", "ncb-k", "--by", "type", "-n", "12", "-k", "2"]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["entries"]) == 272
    assert calls == []
    # the one row of --lambda is counted from its own product
    assert cli.main(["count", "--family", "ncb-k", "-n", "12", "-k", "2", "--lambda", "2,1"]) == 0
    assert calls == [((2, 1),)]


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        {1, 2},
        {"a": [0, 2.0]},
        [[frozenset()]],
        {1: 0},
        # records: a float in the second row, a set value, a non-str key in
        # a later row, and a non-str key in every row
        [{"a": "x", "b": [1]}, {"a": "y", "b": 2.5}],
        [{"a": [1, 2]}, {"a": {1, 2}}],
        [{"a": 0}, {"a": 1}, {1: 2}],
        [{"a": 0, 1: 0}, {"a": 1, 1: 1}],
    ],
)
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        write_json(value)
