"""Count the function calls of one benchmark pass.

    python3 tools/work_counts.py --checkout DIR --workload W --seed S

Builds one pass of workload W the way DIR's perfbench/worker.py does (the
sweep's checks shuffled by S, or `cli_requests(S)` through
`ncstrip.cli.main`), runs it once under cProfile, and prints {"calls": N}:
every call cProfile counted, builtins included.  The count is exact and
does not depend on the machine or the hash seed, so counts from different
runs and different BENCH files can be compared; a gain in time still has
to be measured.  DIR's `src` goes ahead of the working directory's, which
worker.py also puts on sys.path.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path


def calls_per_pass(checkout: Path, workload: str, seed: int) -> int:
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
    for op, _gate in ops:
        try:
            op()
        except Exception:  # as in the worker, a crashing operation ends only itself
            pass
    profile.disable()
    return pstats.Stats(profile).total_calls


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    calls = calls_per_pass(args.checkout.resolve(), args.workload, args.seed)
    print(json.dumps({"calls": calls}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
