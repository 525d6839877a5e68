"""The chain of the committed BENCH files: each file's parent side is the
previous file's change side, so the work block of every change is counted
once on each side.  JSON only; nothing is timed."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIRST_CHAINED = 28  # the files before it were made by older work counters
CHAINED = ("calls", "modules", "peak_bytes", "payload_sha256")
# (file, workload): a break that is known and explained in CHANGES.md
KNOWN_BREAKS = {
    # BENCH_34's parent counted 772,215 calls against BENCH_33's 772,247,
    # 17,548 in `partitions` against 17,580
    (34, "cli-requests"),
}


def bench_files() -> dict[int, dict]:
    files = {}
    for path in ROOT.glob("BENCH_*.json"):
        number = int(re.fullmatch(r"BENCH_(\d+)\.json", path.name)[1])
        if number >= FIRST_CHAINED:
            files[number] = json.loads(path.read_text())
    return files


FILES = bench_files()
LINKS = [number for number in sorted(FILES) if number - 1 in FILES]


def breaks(number: int) -> dict[str, list[str]]:
    """workload -> the chained fields where BENCH_number's parent differs
    from BENCH_{number - 1}'s change."""
    before, after = FILES[number - 1]["workloads"], FILES[number]["workloads"]
    out = {}
    for workload, run in after.items():
        parent, change = run["work"]["parent"], before[workload]["work"]["change"]
        moved = [field for field in CHAINED if parent[field] != change[field]]
        if moved:
            out[workload] = moved
    return out


@pytest.mark.parametrize("number", LINKS, ids=lambda n: f"BENCH_{n - 1}-BENCH_{n}")
def test_each_bench_file_starts_where_the_last_one_ended(number):
    assert {
        workload: moved
        for workload, moved in breaks(number).items()
        if (number, workload) not in KNOWN_BREAKS
    } == {}


def test_the_known_break_is_still_where_it_was():
    assert breaks(34) == {"cli-requests": ["calls", "modules"]}
    before = FILES[33]["workloads"]["cli-requests"]["work"]["change"]
    after = FILES[34]["workloads"]["cli-requests"]["work"]["parent"]
    assert (before["calls"], after["calls"]) == (772_247, 772_215)
    assert (before["modules"]["partitions"], after["modules"]["partitions"]) == (17_580, 17_548)


def test_the_newest_file_is_chained():
    assert max(FILES) in LINKS
