"""Source-level rules for the library modules."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ncstrip"
CACHES = {"lru_cache", "cache"}


def nodes():
    """(module file name, AST node) for every node of every library module."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_library_has_no_assert_statements():
    # invariants must raise errors: `python -O` strips `assert` out
    found = [f"{name}:{node.lineno}" for name, node in nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_process_wide_caches():
    # a memoized shape builder hides its rebuilds from the call tracer, and
    # its hits depend on what ran before: pass the shape to who needs it
    found = [
        f"{name}:{node.lineno}"
        for name, node in nodes()
        if isinstance(node, ast.ImportFrom)
        and node.module == "functools"
        and any(alias.name in CACHES for alias in node.names)
        or isinstance(node, ast.Attribute)
        and node.attr in CACHES
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    ]
    assert found == []


def test_payloads_have_one_indenting_json_writer():
    # every payload goes through the CLI's writer, which equals
    # json.dumps(..., indent=2) and is several times faster
    found = [
        f"{name}:{node.lineno}"
        for name, node in nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dumps"
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert found == []


def test_test_oracles_import_nothing_from_the_library():
    # the brute-force checks in conftest.py stay independent of what they check
    tree = ast.parse((TESTS / "conftest.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "ncstrip")
        or isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "ncstrip" for alias in node.names)
    ]
    assert found == []


def test_library_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_only_the_cli_main_writes_stdout():
    # every command returns its parameters, result and table to one writer
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    inside = set(map(id, ast.walk(main)))
    reads = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "stdout"
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    ]
    assert any(id(node) in inside for node in reads)
    assert [node.lineno for node in reads if id(node) not in inside] == []
