"""The ncstrip benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Passes of the workload run one after
another, each in a fresh interpreter (perfbench/worker.py), until S seconds
have gone; one client, closed loop.  With --trace 0 the last stdout line is
a JSON object with the end-to-end metrics; with --trace 1 untraced and
traced passes alternate and it holds the per-layer metrics.  Every pass
runs the correctness gates; their failures are counted in `failed`.
Workloads, metrics and units are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify-expand", "verify-labeling", "cli-requests")
MIN_PASSES = 3
# Untraced times are scaled to a machine on which worker.reference_work
# takes REFERENCE_NOMINAL_S: each operation's time is multiplied by
# (REFERENCE_NOMINAL_S / p) ** SPEED_EXPONENT, where p is the median probe
# timing from PROBE_WINDOW_S before the operation to PROBE_WINDOW_S after it.
# This cancels the drift in speed of a shared machine (about 20% between
# runs on the 2-core machine the benchmark was built on), which is far
# larger than the spread it leaves (about 3%).  The exponent is below 1
# because the probe slows down more than the program when the machine is
# busy: there its slow/fast time ratio was 1.8 where the program's was 1.65
# on both sweeps.
REFERENCE_NOMINAL_S = 0.0004
PROBE_WINDOW_S = 0.25
SPEED_EXPONENT = 0.75
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "objects_per_s": "1/s",
    "requests_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "shapes.self_s": "s",
    "shapes.column_interval.calls_per_strip": "count",
    "shapes.enumerate_r_strips.us_per_obj": "us",
    "shapes.iter_strip_heights.us_per_obj": "us",
    "expansions.self_s": "s",
    "expansions.expand_skew.us_per_obj": "us",
    "expansions.formula.us_per_term": "us",
    "partitions.self_s": "s",
    "noncrossing_a.self_s": "s",
    "noncrossing_a.enumerate_k_divisible.us_per_obj": "us",
    "noncrossing_a.type_stats.us_per_obj": "us",
    "noncrossing_a.is_noncrossing.calls_per_obj": "count",
    "noncrossing_b.self_s": "s",
    "noncrossing_b.enumerate_nc_b.us_per_obj": "us",
    "noncrossing_b.enumerate_nc_b.candidates_per_obj": "count",
    "noncrossing_b.type_b.us_per_call": "us",
    "lattice_paths.self_s": "s",
    "lattice_paths.enumerate_fuss_catalan.us_per_obj": "us",
    "lattice_paths.enumerate_fuss_binomial.us_per_obj": "us",
    "bijections.self_s": "s",
    "bijections.path_to_noncrossing.us_per_call": "us",
    "bijections.noncrossing_to_path.us_per_call": "us",
    "bijections.path_to_signed_noncrossing.us_per_call": "us",
    "bijections.signed_noncrossing_to_path.us_per_call": "us",
    "bijections.strip_to_path.us_per_call": "us",
    "bijections.path_to_strip.us_per_call": "us",
    "parking.self_s": "s",
    "parking.enumerate_primitive.us_per_obj": "us",
    "verification.self_s": "s",
    "cli.self_ms_per_request": "ms",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_pass(workload: str, seed: int, trace: bool, index: int, timeout: float) -> dict:
    # A different hash seed in every pass makes the digest gate test that
    # payloads do not depend on set or dict iteration order.
    env = dict(os.environ, PYTHONHASHSEED=str(index + 1))
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(time.monotonic())],
            capture_output=True, text=True, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError(f"pass {index} printed no result:\n{proc.stdout[-500:]}") from None


def run_passes(workload: str, seed: int, seconds: int, trace: bool):
    """Untraced passes (and, with trace, a traced one after each) until the
    time is spent; at least MIN_PASSES untraced ones without trace."""
    plain, traced = [], []
    t0 = time.monotonic()
    index = 0
    while True:
        elapsed = time.monotonic() - t0
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        if enough and elapsed >= seconds:
            break
        for is_traced in ((False, True) if trace else (False,)):
            timeout = DEADLINE_S - (time.monotonic() - t0)
            if timeout <= 0:
                raise BenchError("out of time before the minimum number of passes")
            out = scale(run_pass(workload, seed, is_traced, index, timeout))
            (traced if is_traced else plain).append(out)
            index += 1
    return plain, traced


def scale(p: dict) -> dict:
    """Add the pass's speed-scaled operation times, wall and setup."""
    ends = [t for t, _ in p["probe"]]
    durations = [d for _, d in p["probe"]]
    if not durations:  # traced pass: no probe
        p["scaled_s"] = p["latencies_s"]
    else:
        p["scaled_s"] = []
        for latency, (start, end) in zip(p["latencies_s"], p["op_times"]):
            lo = bisect.bisect_left(ends, start - PROBE_WINDOW_S)
            hi = bisect.bisect_right(ends, end + PROBE_WINDOW_S)
            if lo == hi:  # no sample in the window: take the next one, or the last
                lo = min(lo, len(ends) - 1)
                hi = lo + 1
            speed = (REFERENCE_NOMINAL_S / statistics.median(durations[lo:hi])) ** SPEED_EXPONENT
            p["scaled_s"].append(latency * speed)
    p["wall_s"] = sum(p["scaled_s"])
    speed = (REFERENCE_NOMINAL_S / statistics.median(durations)) ** SPEED_EXPONENT if durations else 1.0
    p["scaled_setup_s"] = p["setup_s"] * speed
    return p


def end_to_end(passes: list[dict]) -> dict[str, float]:
    latencies = [x for p in passes for x in p["scaled_s"]]
    med = lambda key: statistics.median(p[key] for p in passes)
    return {
        "setup_s": med("scaled_setup_s"),
        "wall_s": med("wall_s"),
        "objects_per_s": statistics.median(p["objects"] / p["wall_s"] for p in passes),
        "requests_per_s": statistics.median(p["attempted"] / p["wall_s"] for p in passes),
        "op_p50_ms": 1e3 * percentile(latencies, 0.50),
        "op_p95_ms": 1e3 * percentile(latencies, 0.95),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in PER_LAYER
        if name != "trace.overhead_ratio"
    }
    raw_wall = lambda passes: statistics.median(sum(p["latencies_s"]) for p in passes)
    out["trace.overhead_ratio"] = raw_wall(traced) / raw_wall(plain)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ncstrip benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    package = Path("src") / "ncstrip"
    if not (package / "__init__.py").is_file():
        print(f"no {package} under {Path.cwd()}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(package), quiet=1):
        print(f"{package} does not compile", file=sys.stderr)
        return 2
    try:
        plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1

    passes = plain + traced
    digests = {p["digest"] for p in passes}
    failed = sum(p["failed"] for p in passes) + len(digests) - 1
    attempted = sum(p["attempted"] for p in passes)
    for p_ in passes:
        for reason in p_["failures"]:
            print(f"gate failure: {reason}")
    if len(digests) > 1:
        print(f"gate failure: payload digests differ across passes ({len(digests)} distinct)")
    if args.trace:
        values, units = per_layer(plain, traced), PER_LAYER
    else:
        values, units = end_to_end(plain), END_TO_END
    print(
        f"workload={args.workload} seed={args.seed} passes={len(plain)} untraced"
        f" + {len(traced)} traced; op latency samples={sum(len(q['latencies_s']) for q in plain)};"
        f" raw_wall_s={statistics.median(sum(q['latencies_s']) for q in plain):.4f};"
        f" failed_ratio={failed / attempted:.6g} ({failed}/{attempted})"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
