"""Count the source lines of the package, its tests and its tools.

    python3 tools/source_size.py

Counts the non-blank lines that do not start with '#'.  Prints one line per
module of src/ncstrip, then their total, then the totals of tests/*.py and
tools/*.py, then the number of names src/ncstrip/__init__.py imports, read
with `ast`.  These are the counts CHANGES.md and ROADMAP.md quote: a record,
not a gate.  The tree counted is the one this file sits in.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def counted(path: Path) -> int:
    lines = path.read_text().splitlines()
    return sum(1 for line in lines if line.strip() and not line.lstrip().startswith("#"))


def report(root: Path) -> list[str]:
    out = []
    total = 0
    for path in sorted((root / "src" / "ncstrip").glob("*.py")):
        count = counted(path)
        total += count
        out.append(f"{path.name}: {count}")
    out.append(f"total: {total}")
    for tree in ("tests", "tools"):
        out.append(f"{tree} total: {sum(map(counted, (root / tree).glob('*.py')))}")
    init = ast.parse((root / "src" / "ncstrip" / "__init__.py").read_text())
    imports = [node for node in init.body if isinstance(node, ast.ImportFrom)]
    out.append(f"package exports: {sum(len(node.names) for node in imports)}")
    return out


def main() -> None:
    print("\n".join(report(ROOT)))


if __name__ == "__main__":
    main()
