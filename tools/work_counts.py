"""Count the function calls and the peak memory of one benchmark pass, and
digest its payloads.

    python3 tools/work_counts.py --checkout DIR --workload W --seed S

Builds one pass of workload W the way DIR's perfbench/worker.py does (the
sweep's checks shuffled by S, or `cli_requests(S)` through
`ncstrip.cli.main`), runs it once under cProfile, once more under
tracemalloc alone and a third time plain, and prints {"calls": N,
"modules": {...}, "peak_bytes": P, "payload_sha256": D}: N is every call
cProfile counted, builtins included, and "modules" splits N by where the
called function lives: one row per module of DIR's src/ncstrip, one for
builtins (C functions and methods) and one for all other Python code.  P
is the most memory the second pass held allocated at once through Python's
allocators, as tracemalloc traces it, so it records what a lister keeps
alive next to its calls.  D is perfbench's gates.Digest of the third
pass's gate payloads, as the worker hashes them (exit code and stdout per
CLI request, the report per check), so two trees that print the same bytes
for the pass give the same D.  The calls and the digest are exact and do
not depend on the machine or the hash seed, so counts from different runs
and different BENCH files can be compared; a gain in time still has to be
measured.  DIR's `src` goes ahead of the working directory's, which
worker.py also puts on sys.path.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import tracemalloc
from pathlib import Path


def calls_by_module(stats: dict, package: Path) -> dict[str, int]:
    """The calls of a pstats table, summed by the ncstrip module (file stem
    under package) of each called function, "builtins" and "other"."""
    rows: dict[str, int] = {}
    for (filename, _line, _name), (_, calls, *_rest) in stats.items():
        path = Path(filename)
        if filename == "~":
            row = "builtins"
        elif path.parent == package:
            row = path.stem
        else:
            row = "other"
        rows[row] = rows.get(row, 0) + calls
    return dict(sorted(rows.items()))


def run_ops(ops) -> None:
    for op, _gate in ops:
        try:
            op()
        except Exception:  # as in the worker, a crashing operation ends only itself
            pass


def peak_bytes(ops) -> int:
    """The tracemalloc peak of one run of the operations."""
    tracemalloc.start()
    try:
        run_ops(ops)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def payload_sha256(ops) -> str:
    """gates.Digest of one run's gate payloads in order; an operation that
    raises stands for its payload as in the worker."""
    import gates

    digest = gates.Digest()
    for op, gate in ops:
        try:
            result = op()
        except Exception as e:
            payload = f"raised {e!r}"
        else:
            payload = gate(result)[0]
        digest.update(payload)
    return digest.hexdigest()


def calls_per_pass(checkout: Path, workload: str, seed: int) -> dict:
    sys.path.insert(0, str(checkout / "perfbench"))
    import worker

    if workload not in worker.WORKLOADS:
        raise SystemExit(f"--workload {workload} is not one of {', '.join(worker.WORKLOADS)}")
    sys.path.insert(0, str(checkout / "src"))
    import ncstrip  # noqa: F401  (set-up, not part of the pass)

    if workload in worker.SWEEPS:
        ops = worker.sweep_ops(worker.workloads.shuffled(worker.SWEEPS[workload](), seed))
    else:
        ops = worker.request_ops(worker.workloads.cli_requests(seed))
    profile = cProfile.Profile()
    profile.enable()
    run_ops(ops)
    profile.disable()
    stats = pstats.Stats(profile)
    return {"calls": stats.total_calls,
            "modules": calls_by_module(stats.stats, checkout / "src" / "ncstrip"),
            "peak_bytes": peak_bytes(ops),
            "payload_sha256": payload_sha256(ops)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    print(json.dumps(calls_per_pass(args.checkout.resolve(), args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
