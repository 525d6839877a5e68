"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs 10 \\
        --seed 501 --workload verify-labeling --workload cli-requests \\
        --claim "verify-labeling wall_s" --note "what the change does" \\
        --out BENCH_N.json

Pair i (from 1) runs `perfbench/run.py --workload W --seed SEED+i-1
--seconds S --trace 0` in the root of each checkout, the parent first when
i is odd; S is `run_seconds` of BENCHMARK.json.  The output has the layout
of the committed BENCH files: for each workload every run, and for each
end-to-end metric of BENCHMARK.json the medians and quartiles of both
sides, the change's relative difference and the number of pairs in which
the change did better.  Its `work` block gives the calls of one profiled
pass at seed WORK_SEED on each side, in total and per module, the
tracemalloc peak of one pass without the profiler, and the SHA-256 of one
pass's payloads, equal on both sides when the change prints the same
bytes, counted by this tree's tools/work_counts.py: a record, comparable
from one BENCH file to the next whatever their --seed (the cli-requests
stream depends on its seed), not a gate.
Before the first pair it compiles the benchmarked packages in both
checkouts, rewriting every cache, so both sides load bytecode alike:
perfbench/run.py compiles only src/ncstrip, and a module whose cache is
missing or does not match its source is compiled by the runs that load it.
Standard library only; the file is rewritten after each workload, so a cut
run keeps what it has.  Each pair's line on stderr gives its failed
operations, and after each workload one line per end-to-end metric gives
both medians, `change_vs_parent` and the pairs the change won, marked
WORSE when the change is worse than the parent by more than the metric's
bound in BENCHMARK.json.  The script exits 1, after writing the file,
when any run reported `"correct": false`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 300
WORK_SEED = 1  # the seed of every work block
CACHED = ("perfbench", "src/ncstrip")  # the packages whose bytecode a run loads


def directions(benchmark: dict) -> dict[str, str]:
    """End-to-end metric -> "lower" or "higher", from BENCHMARK.json."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def parse_run(stdout: str) -> dict:
    """The JSON result of one run: the last line it printed."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric medians, quartiles and pair wins of the change, and the
    failed operations of each side, over pairs {"parent": run, "change": run}."""
    out = {}
    for name, direction in better.items():
        values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        parent_median = statistics.median(values["parent"])
        change_median = statistics.median(values["change"])
        sign = 1 if direction == "higher" else -1
        out[name] = {
            "parent_median": parent_median,
            "parent_quartiles": quartiles(values["parent"]),
            "change_median": change_median,
            "change_quartiles": quartiles(values["change"]),
            "change_vs_parent": change_median / parent_median - 1,
            "change_better_pairs": sum(
                sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
            ),
        }
    out["failed"] = {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}
    out["pairs"] = len(pairs)
    return out


def metric_lines(workload: str, summary: dict, benchmark: dict) -> list[str]:
    """One line per end-to-end metric of BENCHMARK.json in a workload's
    summary: both medians, the change's relative difference and its better
    pairs, flagged when the change is worse than the parent by more than
    the metric's bound."""
    lines = []
    for metric in benchmark["end_to_end"]:
        m = summary[metric["name"]]
        worse = m["change_vs_parent"] * (1 if metric["better"] == "lower" else -1)
        lines.append(
            f"{workload} {metric['name']}: parent {m['parent_median']:.6g} change"
            f" {m['change_median']:.6g} {metric['unit']}, change_vs_parent"
            f" {m['change_vs_parent']:+.2%}, better in {m['change_better_pairs']} of"
            f" {summary['pairs']} pairs"
            + (f"; WORSE than the parent by more than the bound {metric['bound']:.0%}"
               if worse > metric["bound"] else "")
        )
    return lines


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def work(checkout: Path, workload: str, seed: int) -> dict:
    """Calls in one profiled pass of the workload in the checkout, the peak
    of one traced pass and the digest of one plain pass's payloads:
    {"calls": total, "modules": {module or "builtins" or "other": calls},
    "peak_bytes": peak, "payload_sha256": digest}."""
    cmd = [sys.executable, str(ROOT / "tools" / "work_counts.py"), "--checkout", str(checkout),
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: work_counts.py --workload {workload} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def commit_of(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--claim", help="the metric whose gain the change claims, if any")
    p.add_argument("--note", help="what the change is")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:  # the quartiles of one run are undefined
        p.error(f"--pairs must be at least 2, got {args.pairs}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if checkouts["parent"] == checkouts["change"]:
        p.error(f"--parent and --change are the same directory: {checkouts['parent']}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in benchmark["workloads"]]
    unknown = [w for w in args.workload if w not in listed]
    if unknown:
        p.error(f"--workload {', '.join(unknown)} is not in BENCHMARK.json"
                f" (it lists {', '.join(listed)})")
    for checkout in checkouts.values():
        for package in CACHED:
            if not compileall.compile_dir(str(checkout / package), quiet=1, force=True):
                p.error(f"{checkout / package} does not compile")

    better, seconds = directions(benchmark), benchmark["run_seconds"]
    result = {
        "claim": args.claim,
        "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED"
                   f" --seconds {seconds} --trace 0",
        "parent_commit": commit_of(checkouts["parent"]),
        "change": args.note,
        "machine": {
            "cpus": os.cpu_count(),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "platform": f"{platform.system()} {platform.machine()}",
            "note": "shared machine; times are scaled by the benchmark's speed probe",
        },
        "order": "alternating: the parent ran first at odd pair numbers",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the pairs",
        "workloads": {},
    }
    incorrect = []  # "workload pair i side" of every run that failed its gate
    for workload in args.workload:
        pairs = []
        for i in range(1, args.pairs + 1):
            seed = args.seed + i - 1
            order = SIDES if i % 2 else SIDES[::-1]
            pair = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(checkouts[side], workload, seed, seconds)
                if not pair[side]["correct"]:
                    incorrect.append(f"{workload} pair {i} {side}")
            print(f"{workload} pair {i} seed {seed}: wall_s parent "
                  f"{pair['parent']['metrics']['wall_s']['value']:.4f} change "
                  f"{pair['change']['metrics']['wall_s']['value']:.4f}; failed parent "
                  f"{pair['parent']['failed']} change {pair['change']['failed']}",
                  file=sys.stderr)
            pairs.append(pair)
        summary = summarise(pairs, better)
        for line in metric_lines(workload, summary, benchmark):
            print(line, file=sys.stderr)
        result["workloads"][workload] = {
            "summary": summary,
            "work": {side: work(checkouts[side], workload, WORK_SEED) for side in SIDES},
            "pairs": pairs,
        }
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    if incorrect:
        print(f"runs that reported correct: false: {', '.join(incorrect)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
