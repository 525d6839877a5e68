"""One measured pass of one workload, in a fresh interpreter.

Run by run.py from the root of a checkout:

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --spawned T

T is the CLOCK_MONOTONIC reading taken just before this process was
started, so setup_s covers interpreter start, `import ncstrip` and input
generation.  Prints one JSON line with the pass's timings, gate failures,
payload digest and peak RSS; with --trace 1 also its per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import gates  # noqa: E402
import workloads  # noqa: E402

SWEEPS = {
    "verify-expand": workloads.verify_expand_checks,
    "verify-labeling": workloads.verify_labeling_checks,
}
WORKLOADS = (*SWEEPS, "cli-requests")
TRACE_DIR = Path(".bench_build") / "perfbench"
PROBE_INTERVAL_S = 0.02


def _reference_paths(i: int, prev: int, vec: list[int]):
    if i == len(vec):
        yield tuple(vec)
        return
    for y in range(prev, 5):
        vec[i] = y
        yield from _reference_paths(i + 1, y, vec)


def reference_work() -> int:
    """Fixed interpreter work (about 0.5 ms) written like the program's inner
    loops but independent of it: a recursive generator of monotone height
    vectors and a census of their run-length types."""
    census: dict[tuple[int, ...], int] = {}
    for heights in _reference_paths(0, 0, [0] * 6):
        runs, run = [], 1
        for a, b in zip(heights, heights[1:]):
            if a == b:
                run += 1
            else:
                runs.append(run)
                run = 1
        runs.append(run)
        key = tuple(sorted(runs, reverse=True))
        census[key] = census.get(key, 0) + 1
    return len(census)


class SpeedProbe:
    """Times reference_work every PROBE_INTERVAL_S of wall time, from a
    SIGALRM handler, so the speed of the machine is sampled during long
    operations too.  `spent` is the time the probe took, which the
    operation timings exclude."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, duration)
        self.spent = 0.0

    def _tick(self, signum, frame):
        # With the collector off, the probe never pays for the program's
        # garbage; its own objects are freed before it returns.
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((end, end - t))
        self.spent += end - t

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def sweep_ops(checks):
    """(operation, gate) per check call: the operation returns the check's
    result, the gate turns it into (payload, failure or None)."""
    from ncstrip import verification

    def gate(check, result):
        return gates.sweep_payload(result), gates.check_sweep(result, check.objects)

    return [
        (lambda c=c: getattr(verification, c.fn)(*c.args), lambda r, c=c: gate(c, r))
        for c in checks
    ]


def request_ops(requests):
    """(operation, gate) per request; the operation runs `ncstrip.cli.main`
    in-process and returns (exit code, stdout)."""
    from ncstrip import cli

    def op(request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(request.argv))
            except SystemExit as e:  # argparse rejects the request
                code = e.code if isinstance(e.code, int) else 2
        return code, out.getvalue()

    def gate(request, result):
        code, payload = result
        return f"{code}\n{payload}", gates.check_request(request, code, payload)

    return [(lambda r=r: op(r), lambda res, r=r: gate(r, res)) for r in requests]


def run_pass(workload: str, seed: int, trace: bool, spawned: float) -> dict:
    import ncstrip  # noqa: F401  (part of set-up)

    if workload in SWEEPS:
        checks = workloads.shuffled(SWEEPS[workload](), seed)
        ops = sweep_ops(checks)
        objects = sum(c.objects for c in checks)
        requests = 0
    else:
        reqs = workloads.cli_requests(seed)
        ops = request_ops(reqs)
        objects = sum(r.objects for r in reqs)
        requests = len(reqs)
    setup_s = time.monotonic() - spawned

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # Traced passes run without the probe, whose handler would be charged to
    # whichever span it interrupts.
    probe = SpeedProbe()
    latencies, op_times, failures = [], [], []
    digest = gates.Digest()
    clock = time.perf_counter
    with contextlib.nullcontext() if trace else probe:
        for op, gate in ops:
            spent = probe.spent
            t = clock()
            try:
                result = op()
            except Exception as e:  # a crashing operation is a failed operation
                result = e
            end = clock()
            latencies.append(end - t - (probe.spent - spent))
            op_times.append((t, end))
            if isinstance(result, Exception):
                payload, failure = f"raised {result!r}", f"raised {result!r}"
            else:
                payload, failure = gate(result)
            digest.update(payload)
            if failure is not None:
                failures.append(failure)

    if tracer is not None:
        tracer.uninstall()
    out = {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "op_times": op_times,
        "probe": probe.samples,
        "objects": objects,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from tracer import Aggregate, layer_metrics

        tracer.dump(TRACE_DIR / f"spans-{workload}")
        out["layers"] = layer_metrics(Aggregate(tracer), objects, requests)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True)
    args = p.parse_args(argv)
    result = run_pass(args.workload, args.seed, bool(args.trace), args.spawned)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
