"""Golden replay of the command line.

`data/cli_golden.json` lists small requests, one per line: every command,
every `biject` map in both directions, every `enumerate` object, every
`count` family with `--by`, `--lambda` and `--check`, in both formats, plus
usage errors (exit 2) and cap refusals (exit 3, with `cap` as
NCSTRIP_MAX_OBJECTS).  Each is run through `cli.main` in-process; its exit
code and stdout must equal the recorded ones byte for byte.  Stderr is not
compared: it carries the duration and the wording of error messages.
"""

import contextlib
import io
import json
from pathlib import Path

from ncstrip import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse rejects the request
            code = e.code
    return code, out.getvalue()


def test_cli_replays_the_golden_requests(monkeypatch):
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) > 200
    differ = []
    for case in cases:
        if "cap" in case:
            monkeypatch.setenv("NCSTRIP_MAX_OBJECTS", case["cap"])
        else:
            monkeypatch.delenv("NCSTRIP_MAX_OBJECTS", raising=False)
        if run(case["argv"]) != (case["exit"], case["stdout"]):
            differ.append(" ".join(case["argv"]))
    assert differ == []


def test_golden_payloads_are_in_the_stdlib_indent_2_format():
    # pins the recorded JSON to json.dumps(..., indent=2), whatever writes it
    cases = [
        case
        for case in json.loads(GOLDEN.read_text())
        if case["exit"] == 0 and "table" not in case["argv"]
    ]
    assert len(cases) > 80
    for case in cases:
        stdout = case["stdout"]
        assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n", case["argv"]
