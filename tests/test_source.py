"""Source-level rules for the library modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ncstrip"


def test_library_has_no_assert_statements():
    # invariants must raise errors: `python -O` strips `assert` out
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
