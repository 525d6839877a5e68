"""The pair summary of tools/bench_pairs.py, on canned run output, and the
call counts and payload digest of tools/work_counts.py."""

import importlib.util
import json
import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
spec = importlib.util.spec_from_file_location("work_counts", ROOT / "tools" / "work_counts.py")
work_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(work_counts)


def run_output(wall_s: float, rate: float, failed: int = 0) -> str:
    """What perfbench/run.py prints: a summary line, then the JSON result."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "objects_per_s": {"value": rate, "unit": "1/s"}}
    result = {"correct": not failed, "attempted": 100, "failed": failed, "metrics": metrics}
    return (f"workload=verify-labeling seed=1 passes=3 untraced + 0 traced;"
            f" failed_ratio={failed / 100:.6g} ({failed}/100)\n{json.dumps(result)}\n")


BETTER = {"wall_s": "lower", "objects_per_s": "higher"}


def canned_pairs(parent, change):
    return [
        {"parent": bench_pairs.parse_run(run_output(*p)),
         "change": bench_pairs.parse_run(run_output(*c))}
        for p, c in zip(parent, change)
    ]


def test_summary_of_canned_runs():
    pairs = canned_pairs(
        [(0.50, 100.0), (0.60, 90.0), (0.55, 95.0, 1), (0.70, 80.0)],
        [(0.40, 120.0), (0.65, 85.0), (0.45, 110.0), (0.50, 100.0)],
    )
    s = bench_pairs.summarise(pairs, BETTER)
    assert s["pairs"] == 4
    assert s["failed"] == {"parent": 1, "change": 0}
    wall = s["wall_s"]
    assert wall["parent_median"] == pytest.approx(0.575)
    assert wall["change_median"] == pytest.approx(0.475)
    assert wall["change_vs_parent"] == pytest.approx(0.475 / 0.575 - 1)
    # inclusive quartiles of 0.50, 0.55, 0.60, 0.70
    assert wall["parent_quartiles"] == pytest.approx([0.5375, 0.625])
    assert wall["change_better_pairs"] == 3  # lower is better; pair 2 lost
    rate = s["objects_per_s"]
    assert rate["change_better_pairs"] == 3  # higher is better; pair 2 lost
    assert rate["change_median"] == pytest.approx(105.0)


def test_a_tie_is_not_a_win():
    pairs = canned_pairs([(0.5, 100.0)] * 2, [(0.5, 100.0)] * 2)
    s = bench_pairs.summarise(pairs, BETTER)
    assert s["wall_s"]["change_better_pairs"] == 0
    assert s["objects_per_s"]["change_better_pairs"] == 0
    assert s["wall_s"]["change_vs_parent"] == 0


def test_directions_come_from_the_benchmark_file():
    better = bench_pairs.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert better["wall_s"] == "lower"
    assert better["objects_per_s"] == "higher"
    assert set(better) >= {"setup_s", "op_p95_ms", "peak_rss_mb"}


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_are_refused_before_any_run(monkeypatch, tmp_path, capsys, pairs):
    monkeypatch.setattr(bench_pairs, "run", lambda *args: pytest.fail("a run was started"))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--workload", "cli-requests", "--pairs", pairs, "--seed", "1",
                          "--out", str(out)])
    assert exit_.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def refused(monkeypatch, tmp_path, capsys, *args):
    """Exit code and stderr of main on args, which must start no run."""
    monkeypatch.setattr(bench_pairs, "run", lambda *args: pytest.fail("a run was started"))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main([*args, "--pairs", "2", "--seed", "1", "--out", str(out)])
    assert not out.exists()
    return exit_.value.code, capsys.readouterr().err


def test_one_directory_on_both_sides_is_refused_before_any_run(monkeypatch, tmp_path, capsys):
    (tmp_path / "a").mkdir()
    same = tmp_path / "a" / ".." / "a"
    code, err = refused(monkeypatch, tmp_path, capsys,
                        "--parent", str(tmp_path / "a"), "--change", str(same),
                        "--workload", "cli-requests")
    assert code == 2
    assert "--parent and --change are the same directory" in err


def test_a_workload_the_benchmark_does_not_list_is_refused_before_any_run(
    monkeypatch, tmp_path, capsys
):
    code, err = refused(monkeypatch, tmp_path, capsys,
                        "--parent", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
                        "--workload", "verify-labeling", "--workload", "verify-labelling")
    assert code == 2
    assert "--workload verify-labelling is not in BENCHMARK.json" in err


def matches_source(source: Path) -> bool:
    """Whether the timestamp-based cache of source records its magic number,
    mtime and size as importlib checks them."""
    pyc = Path(importlib.util.cache_from_source(str(source)))
    st = source.stat()
    expected = importlib.util.MAGIC_NUMBER + bytes(4) + b"".join(
        (x & 0xFFFFFFFF).to_bytes(4, "little") for x in (int(st.st_mtime), st.st_size)
    )
    return pyc.is_file() and pyc.read_bytes()[:16] == expected


def fake_runs(monkeypatch, sources):
    """Replace run and work by canned ones; the list returned gets, at each
    run, its checkout's name and whether every cache of sources then
    matches its source."""
    names = bench_pairs.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    runs = []

    def run(checkout, workload, seed, seconds):
        runs.append((checkout.name, all(map(matches_source, sources))))
        metrics = {name: {"value": 1.0} for name in names}
        return {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run", run)
    monkeypatch.setattr(bench_pairs, "work", lambda *args: {"calls": 1, "modules": {}})
    return runs


def main_on_both_sides(tmp_path) -> int:
    return bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--workload", "cli-requests", "--pairs", "2", "--seed", "1",
                             "--out", str(tmp_path / "bench.json")])


def test_bytecode_that_does_not_match_its_source_is_rewritten_before_the_first_run(
    monkeypatch, tmp_path
):
    # a cache that importlib would not use makes the runs that load the
    # module compile it; compileall without force checks only the mtime
    sources = [tmp_path / side / package / "mod.py"
               for side in bench_pairs.SIDES for package in bench_pairs.CACHED]
    for source in sources:
        source.parent.mkdir(parents=True)
        source.write_text("x = 1\n")
        py_compile.compile(str(source), doraise=True)
    assert all(map(matches_source, sources))
    # the parent's perfbench source is touched, the change's library
    # source grows by one byte within the same mtime
    touched = tmp_path / "parent" / "perfbench" / "mod.py"
    os.utime(touched, ns=(0, touched.stat().st_mtime_ns + 10**10))
    grown = tmp_path / "change" / "src/ncstrip" / "mod.py"
    mtime = grown.stat().st_mtime_ns
    grown.write_text("x = 12\n")
    os.utime(grown, ns=(0, mtime))
    assert [s for s in sources if not matches_source(s)] == [touched, grown]
    runs = fake_runs(monkeypatch, sources)
    assert main_on_both_sides(tmp_path) == 0
    assert runs == [("parent", True), ("change", True), ("change", True), ("parent", True)]


def test_both_checkouts_are_compiled_before_the_first_run(monkeypatch, tmp_path):
    # run.py compiles only src/ncstrip: a side with no cache for perfbench/
    # would compile it in every pass while the other loads its bytecode
    sources = [tmp_path / side / package / "mod.py"
               for side in bench_pairs.SIDES for package in bench_pairs.CACHED]
    for source in sources:
        source.parent.mkdir(parents=True)
        source.write_text("x = 1\n")
    py_compile.compile(str(sources[0]), doraise=True)
    runs = fake_runs(monkeypatch, sources)
    assert main_on_both_sides(tmp_path) == 0
    assert [cached for _, cached in runs] == [True] * 4


@pytest.mark.parametrize("failing", [False, True])
def test_a_run_that_fails_its_gate_is_printed_and_exits_1(monkeypatch, tmp_path, capsys, failing):
    names = bench_pairs.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))

    def run(checkout, workload, seed, seconds):
        failed = 3 if failing and checkout.name == "change" and seed == 2 else 0
        metrics = {name: {"value": 1.0} for name in names}
        return {"correct": not failed, "attempted": 100, "failed": failed, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run", run)
    def work(checkout, workload, seed):
        calls = {"parent": 5, "change": 4}[checkout.name]
        return {"calls": calls, "modules": {"builtins": calls - 1, "cli": 1}}

    monkeypatch.setattr(bench_pairs, "work", work)
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--workload", "cli-requests", "--pairs", "2", "--seed", "1",
                             "--out", str(out)])
    err = capsys.readouterr().err
    written = json.loads(out.read_text())["workloads"]["cli-requests"]
    summary = written["summary"]
    assert written["work"] == {
        "parent": {"calls": 5, "modules": {"builtins": 4, "cli": 1}},
        "change": {"calls": 4, "modules": {"builtins": 3, "cli": 1}},
    }
    assert "cli-requests pair 1 seed 1:" in err and "failed parent 0 change 0" in err
    if failing:
        assert code == 1
        assert summary["failed"] == {"parent": 0, "change": 3}
        assert "failed parent 0 change 3" in err
        assert "correct: false: cli-requests pair 2 change" in err
    else:
        assert code == 0
        assert summary["failed"] == {"parent": 0, "change": 0}
        assert "correct: false" not in err


def test_each_workload_ends_with_one_line_per_end_to_end_metric(monkeypatch, tmp_path, capsys):
    # the change is 30% slower at the median op (bound 25%), 10% larger in
    # RSS (bound 15%) and 25% lower in objects/s (higher is better, bound
    # 20%); every other metric is equal
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    factors = {"op_p50_ms": 1.3, "peak_rss_mb": 1.1, "objects_per_s": 0.75}

    def run(checkout, workload, seed, seconds):
        scale = checkout.name == "change"
        metrics = {name: {"value": 2.0 * (factors.get(name, 1.0) if scale else 1.0)}
                   for name in bounds}
        return {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run", run)
    monkeypatch.setattr(bench_pairs, "work", lambda *args: {"calls": 1, "modules": {}})
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--workload", "verify-labeling", "--pairs", "3", "--seed", "1",
                             "--out", str(tmp_path / "bench.json")]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "change_vs_parent" in line]
    assert [line.split(":")[0] for line in lines] == [f"verify-labeling {name}" for name in bounds]
    by_name = dict(zip(bounds, lines))
    assert by_name["op_p50_ms"] == (
        "verify-labeling op_p50_ms: parent 2 change 2.6 ms, change_vs_parent +30.00%,"
        " better in 0 of 3 pairs; WORSE than the parent by more than the bound 25%"
    )
    assert "change_vs_parent +10.00%, better in 0 of 3 pairs" in by_name["peak_rss_mb"]
    assert "change_vs_parent -25.00%, better in 0 of 3 pairs; WORSE" in by_name["objects_per_s"]
    assert "change_vs_parent +0.00%, better in 0 of 3 pairs" in by_name["wall_s"]
    assert [name for name, line in by_name.items() if "WORSE" in line] == ["objects_per_s", "op_p50_ms"]


def test_the_work_block_is_counted_at_seed_1_whatever_the_runs_seed(monkeypatch, tmp_path):
    # the cli-requests stream depends on its seed, so a work block at the
    # run's --seed would not chain from one BENCH file to the next
    names = bench_pairs.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    run_seeds, work_seeds = [], []

    def run(checkout, workload, seed, seconds):
        run_seeds.append(seed)
        metrics = {name: {"value": 1.0} for name in names}
        return {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics}

    def work(checkout, workload, seed):
        work_seeds.append(seed)
        return {"calls": seed, "modules": {"cli": seed}}

    monkeypatch.setattr(bench_pairs, "run", run)
    monkeypatch.setattr(bench_pairs, "work", work)
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--workload", "cli-requests", "--workload", "verify-labeling",
                             "--pairs", "2", "--seed", "2601", "--out", str(out)]) == 0
    assert sorted(set(run_seeds)) == [2601, 2602]
    assert work_seeds == [1] * 4
    written = json.loads(out.read_text())["workloads"]
    assert written["cli-requests"]["work"]["change"] == {"calls": 1, "modules": {"cli": 1}}


def test_calls_are_summed_by_the_module_they_land_in():
    package = Path("/co/src/ncstrip")
    stats = {
        ("~", 0, "<built-in method builtins.len>"): (7, 7, 0.0, 0.0, {}),
        ("~", 0, "<method 'join' of 'str' objects>"): (2, 3, 0.0, 0.0, {}),
        ("/co/src/ncstrip/cli.py", 10, "main"): (1, 1, 0.0, 0.0, {}),
        ("/co/src/ncstrip/cli.py", 20, "_guard"): (4, 4, 0.0, 0.0, {}),
        # a recursive function: primitive calls first, all calls second
        ("/co/src/ncstrip/shapes.py", 5, "parse_shape"): (1, 6, 0.0, 0.0, {}),
        ("/usr/lib/python3/json/__init__.py", 1, "dumps"): (2, 2, 0.0, 0.0, {}),
        # a module of the same name outside the package is "other"
        ("/elsewhere/cli.py", 1, "main"): (1, 1, 0.0, 0.0, {}),
    }
    assert work_counts.calls_by_module(stats, package) == {
        "builtins": 10, "cli": 5, "other": 3, "shapes": 6
    }


def test_work_counts_do_not_depend_on_the_hash_seed():
    # one profiled pass of verify-expand takes about 1 s, and one traced by
    # tracemalloc about as long; the calls and the peak are both exact
    counts = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "work_counts.py"), "--checkout", str(ROOT),
             "--workload", "verify-expand", "--seed", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        counts.append(json.loads(proc.stdout))
    assert counts[0] == counts[1]
    assert counts[0]["calls"] == sum(counts[0]["modules"].values()) > 100_000
    assert {"builtins", "shapes", "expansions"} <= set(counts[0]["modules"])
    assert counts[0]["peak_bytes"] > 0
    assert len(counts[0]["payload_sha256"]) == 64


def test_the_payload_digest_sees_one_changed_payload(monkeypatch):
    # a canned pass of (operation, gate) pairs, as worker.request_ops builds
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))

    def ops(payloads):
        return [(lambda p=p: p, lambda result: (f"0\n{result}", None)) for p in payloads]

    def failing():
        raise ValueError("no")

    base = work_counts.payload_sha256(ops(["a", "b", "c"]))
    assert base == work_counts.payload_sha256(ops(["a", "b", "c"]))
    assert base != work_counts.payload_sha256(ops(["a", "B", "c"]))
    assert base != work_counts.payload_sha256(ops(["a", "b", "c"])[:2] + [(failing, None)])
