"""Tests of the benchmark itself: its generators, gates, metric names and
tracer.  They use fakes where a gate must trip; nothing under src/ changes."""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gates  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from ncstrip import verification  # noqa: E402
from ncstrip.cli import count_r_strips  # noqa: E402
from ncstrip.lattice_paths import is_fuss_catalan  # noqa: E402
from ncstrip.shapes import parse_shape  # noqa: E402


def _argvs(requests):
    return [r.argv for r in requests]


def _shape_requests(requests):
    return [r for r in requests if "--shape" in r.argv]


def test_generators_are_deterministic_per_seed():
    assert _argvs(workloads.cli_requests(7)) == _argvs(workloads.cli_requests(7))
    assert _argvs(workloads.cli_requests(7)) != _argvs(workloads.cli_requests(8))
    checks = workloads.verify_expand_checks()
    assert workloads.shuffled(checks, 3) == workloads.shuffled(checks, 3)
    assert sorted(workloads.shuffled(checks, 3), key=repr) == sorted(checks, key=repr)


@pytest.mark.parametrize("seed", [1, 2])
def test_shapes_are_contiguous_and_under_the_cap(seed):
    requests = workloads.cli_requests(seed)
    shapes = _shape_requests(requests)
    assert len(shapes) > 100
    for r in shapes:
        literal = r.argv[r.argv.index("--shape") + 1]
        outer, _, inner = literal.partition("/")
        parse = lambda s: tuple(int(x) for x in s.split(",")) if s else ()
        profile = workloads.column_profile(parse(outer), parse(inner))
        assert workloads.is_contiguous(profile)
        assert r.objects == workloads.monotone_path_count(profile)
        assert r.objects == count_r_strips(parse_shape(literal))
    assert all(r.objects <= workloads.OBJECT_CAP for r in requests)
    grid = sorted(r.objects for r in shapes if r.kind == "expand-shape")
    assert 50 / workloads.SHAPE_TOLERANCE <= grid[0] and grid[-1] <= 3000 * workloads.SHAPE_TOLERANCE


def test_cycle_lemma_paths_are_uniform_fuss_catalan():
    rng = workloads.random.Random(0)
    for n, k in [(3, 1), (3, 2), (2, 3)]:
        seen = Counter(workloads.cycle_lemma_path(rng, n, k) for _ in range(4000))
        assert all(is_fuss_catalan(w, n, k) for w in seen)
        assert len(seen) == workloads.fuss_catalan(n, k)
        expected = 4000 / len(seen)
        assert all(abs(c - expected) < 0.35 * expected for c in seen.values())


def test_binomial_words_have_the_right_letters():
    rng = workloads.random.Random(0)
    word = workloads.binomial_word(rng, 9, 3)
    assert Counter(word) == {"E": 9, "N": 27}


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9_.-]+")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for metric in [*e2e, *layers]:
        assert name.fullmatch(metric) and len(metric) <= 64


def _fake_result(**kw):
    base = dict(name="theorem-1.1", params={"n": 2, "k": 1}, passed=True, objects=5, mismatches=[])
    base.update(kw)
    return SimpleNamespace(**base)


def test_sweep_gate_trips_on_failure_or_short_count():
    assert gates.check_sweep(_fake_result(), 5) is None
    assert gates.check_sweep(_fake_result(objects=4), 5) is not None
    assert gates.check_sweep(_fake_result(objects=0), 5) is not None
    assert gates.check_sweep(_fake_result(passed=False, mismatches=["x"]), 5) is not None


def test_sweep_gate_accepts_the_real_check():
    check = next(c for c in workloads.verify_expand_checks() if c.args == (2, 1))
    result = getattr(verification, check.fn)(*check.args)
    assert gates.check_sweep(result, check.objects) is None


def _payload(result: dict) -> str:
    return json.dumps({"command": "x", "result": result})


def test_request_gate_trips_on_a_tampered_payload():
    expand = workloads.Request(["expand"], "expand-shape", {"coefficient_sum": 14}, 14)
    assert gates.check_request(expand, 0, _payload({"coefficient_sum": "14"})) is None
    assert gates.check_request(expand, 0, _payload({"coefficient_sum": "13"})) is not None
    assert gates.check_request(expand, 3, "") is not None
    assert gates.check_request(expand, 0, "{not json") is not None

    count = workloads.Request(["count"], "count", {"count": 5, "check": "pass"}, 5)
    assert gates.check_request(count, 0, _payload({"count": "5", "check": "pass"})) is None
    assert gates.check_request(count, 0, _payload({"count": "5", "check": "fail"})) is not None

    biject = workloads.Request(["biject"], "biject", {"pairs": [("type", "type")], "output": "EN"})
    good = {"input_stats": {"type": [1]}, "output_stats": {"type": [1]}, "output": "EN"}
    assert gates.check_request(biject, 0, _payload(good)) is None
    assert gates.check_request(biject, 0, _payload({**good, "output_stats": {"type": [2]}}))
    assert gates.check_request(biject, 0, _payload({**good, "output": "NE"}))

    listing = workloads.Request(["enumerate"], "enumerate", {"count": 2}, 2)
    assert gates.check_request(listing, 0, _payload({"count": 2, "objects": [1, 2]})) is None
    assert gates.check_request(listing, 0, _payload({"count": 1, "objects": [1]})) is not None


def _digest(payloads):
    d = gates.Digest()
    for p in payloads:
        d.update(p)
    return d.hexdigest()


def test_digest_sees_any_changed_byte():
    assert _digest(["a", "b"]) == _digest(["a", "b"])
    assert _digest(["a", "b"]) != _digest(["a", "c"])
    assert _digest(["ab", ""]) != _digest(["a", "b"])


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    outer, inner = t._name_id("shapes.a"), t._name_id("partitions.b")
    for nid, parent, start, end in [(outer, -1, 0, 100), (inner, 0, 10, 40), (inner, 0, 50, 60)]:
        t.name.append(nid)
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    agg = tracer.Aggregate(t)
    assert agg.self_ns == [60, 40]
    assert agg.incl == [100, 40]
    assert agg.edge("shapes.a", "partitions.b") == (2, 40)
    assert agg.module_self_s("shapes") == 60e-9


def test_tracer_sees_cross_module_calls_and_uninstalls():
    import ncstrip.expansions as expansions
    import ncstrip.shapes as shapes

    original = shapes.iter_strip_heights
    t = tracer.Tracer()
    t.install()
    try:
        assert verification.expand_skew is expansions.expand_skew  # every binding
        assert verification.expand_skew.__name__ == "traced"
        verification.theorem_11_check(2, 1)
    finally:
        t.uninstall()
    assert shapes.iter_strip_heights is original
    assert "column_interval" in vars(shapes.SkewShape)
    agg = tracer.Aggregate(t)
    strips = agg.get(agg.items, "shapes.iter_strip_heights")
    assert strips == workloads.fuss_catalan(3, 1)
    assert agg.get(agg.calls, tracer.COLUMN_INTERVAL) > 0
    assert agg.edge("verification.theorem_11_check", "expansions.expand_skew")[0] == 1
    metrics = tracer.layer_metrics(agg, workloads.fuss_catalan(3, 1), 0)
    assert set(metrics) | {"trace.overhead_ratio"} == set(run.PER_LAYER)
    assert metrics["shapes.self_s"] > 0


def test_scaling_divides_by_the_probed_speed():
    latencies = [0.010, 0.020]
    fake = {
        "setup_s": 0.1,
        "latencies_s": list(latencies),
        "op_times": [(1.0, 1.01), (1.01, 1.03)],
        "probe": [(0.99, run.REFERENCE_NOMINAL_S), (1.02, run.REFERENCE_NOMINAL_S)],
    }
    assert run.scale(dict(fake))["scaled_s"] == latencies
    slow = dict(fake, probe=[(t, 2 * d) for t, d in fake["probe"]])
    factor = 0.5**run.SPEED_EXPONENT
    assert run.scale(slow)["scaled_s"] == pytest.approx([x * factor for x in latencies])
    assert run.scale(slow)["scaled_setup_s"] == pytest.approx(0.1 * factor)
