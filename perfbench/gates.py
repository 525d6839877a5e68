"""Correctness gates: each returns None when an operation's output is right,
else a one-line reason.  The expectations come from `workloads`, never from
the program under test."""

from __future__ import annotations

import hashlib
import json


def check_sweep(result, objects: int) -> str | None:
    """A check call must pass and must have looked at every object the closed
    form says exists, so a check that becomes vacuous fails here."""
    if not result.passed:
        return f"{result.name} {result.params}: {result.mismatches[:3]}"
    if result.objects != objects:
        return f"{result.name} {result.params}: {result.objects} objects, expected {objects}"
    return None


def sweep_payload(result) -> str:
    """The check's report as `ncstrip verify` would print it."""
    return json.dumps(
        {
            "name": result.name,
            "params": result.params,
            "passed": result.passed,
            "objects": result.objects,
            "mismatches": result.mismatches,
        }
    )


def _biject(result: dict, expect: dict) -> str | None:
    for in_key, out_key in expect["pairs"]:
        if result["input_stats"][in_key] != result["output_stats"][out_key]:
            return f"input {in_key} differs from output {out_key}"
    if "output" in expect and result["output"] != expect["output"]:
        return f"output {result['output']!r}, expected {expect['output']!r}"
    return None


def check_request(request, code: int, stdout: str) -> str | None:
    """Exit code 0 and a payload that agrees with the benchmark's own count."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _check_result(request, json.loads(stdout)["result"])
    except (ValueError, KeyError, TypeError) as e:
        return f"malformed payload: {e!r}"


def _check_result(request, result: dict) -> str | None:
    expect = request.expect
    kind = request.kind
    if kind in ("expand-shape", "expand-formula"):
        got = int(result["coefficient_sum"])
        want = expect["coefficient_sum"]
    elif kind == "count":
        key = "count" if "count" in expect else "sum"  # parking counts say "count"
        got = int(result[key])
        want = expect[key]
        if "check" in expect and result.get("check") != expect["check"]:
            return f"census check {result.get('check')!r}"
    elif kind == "enumerate":
        got = result["count"]
        want = expect["count"]
        if len(result["objects"]) != got:
            return f"{len(result['objects'])} objects listed, count says {got}"
    elif kind == "verify":
        if result["passed"] is not True:
            return "verify did not pass"
        got = result["objects_checked"]
        want = expect["objects_checked"]
    elif kind == "biject":
        return _biject(result, expect)
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    if got != want:
        return f"got {got}, expected {want}"
    return None


class Digest:
    """Digest of a pass's payloads in order: equal across passes of a run."""

    def __init__(self):
        self._h = hashlib.sha256()

    def update(self, payload: str) -> None:
        self._h.update(payload.encode())
        self._h.update(b"\0")

    def hexdigest(self) -> str:
        return self._h.hexdigest()
