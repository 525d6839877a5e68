"""Source-level rules for the library modules."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import ncstrip

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "ncstrip"
CACHES = {"lru_cache", "cache"}
# calls that README.md writes of what the project does not define
NOT_DEFINED_HERE = {"dumps"}


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



def test_the_cli_reads_each_type_statistic_through_a_whole_list_form():
    # enumerate, biject and count --check compute statistics through the
    # forms that verify runs, never through a one-object statistic
    one_object = {"type_a", "reduced_type_a", "type_b", "fc_type", "fc_reduced_type", "fb_type"}
    tree = ast.parse((SRC / "cli.py").read_text())
    found = [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.attr] if isinstance(node, ast.Attribute) else []
        )
        if name in one_object
    ]
    assert found == []


def test_readme_names_resolve():
    # a README that names a deleted function or an old signature misleads
    # its reader.  Each `module.name` of an ncstrip module must exist; each
    # call `name(...)` must name a function or class of the project, with
    # arguments that a library function's signature accepts; and each bare
    # `snake_name` must be a name the project binds or a string it uses (a
    # JSON key, an environment variable)
    modules = {p.stem: importlib.import_module(f"ncstrip.{p.stem}") for p in SRC.glob("[!_]*.py")}
    callables, names = set(), set(modules)
    sources = [*SRC.glob("*.py"), *(ROOT / "tools").glob("*.py"), TESTS / "conftest.py"]
    for path in sources + [*(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                callables.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    names |= callables
    found = []
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        if re.fullmatch(r"\w+_\w*", span) and span not in names:
            found.append(span)
        for module, name in re.findall(r"(?<![\w./])(\w+)\.(\w+)", span):
            if module in modules and not hasattr(modules[module], name):
                found.append(f"{module}.{name}")
        for call in re.findall(r"[\w.]+\(", span):
            if call[:-1].split(".")[-1] not in callables | NOT_DEFINED_HERE:
                found.append(f"{call})")
        try:
            call = ast.parse(span, mode="eval").body
        except SyntaxError:
            continue
        if isinstance(call, ast.Call):
            *module, name = ast.unparse(call.func).split(".")
            owners = [modules[m] for m in module if m in modules] if module else modules.values()
            f = next((getattr(m, name) for m in owners if hasattr(m, name)), None)
            if callable(f):
                try:
                    inspect.signature(f).bind(*call.args, **{kw.arg: kw for kw in call.keywords})
                except TypeError:
                    found.append(span)
    assert found == []


def test_source_size_tool_counts_this_tree():
    r = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "source_size.py")],
        capture_output=True, text=True, check=True,
    )
    counts = {name: int(v) for name, v in (line.rsplit(": ", 1) for line in r.stdout.splitlines())}
    modules = {name: v for name, v in counts.items() if name.endswith(".py")}
    assert set(modules) == {path.name for path in SRC.glob("*.py")}
    assert sum(modules.values()) == counts["total"]
    exported = [
        name for name, v in vars(ncstrip).items()
        if not name.startswith("_") and not inspect.ismodule(v)
    ]
    assert counts["package exports"] == len(exported)
