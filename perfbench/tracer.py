"""Spans around the public functions of every ncstrip module, from outside.

`Tracer.install` replaces each public function of each module (and
`SkewShape.column_interval`) by a wrapper at every binding site, so calls
from one module into another are seen too.  A wrapper records one span per
call; a generator function gets one span per resumption, so the time a
generator spends producing each item is charged to it and not to its
consumer.  Spans live in flat arrays (name, parent span, start, end) until
`dump` writes them out, and `layer_metrics` reduces them to per-layer
numbers.  Nothing under `src/` knows about any of this.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

MODULES = (
    "partitions",
    "shapes",
    "lattice_paths",
    "noncrossing_a",
    "noncrossing_b",
    "bijections",
    "parking",
    "expansions",
    "verification",
    "cli",
)

COLUMN_INTERVAL = "shapes.SkewShape.column_interval"

# How many objects a call returned, for the functions whose cost per object
# is reported; generators count their yields instead.
RESULT_SIZE = {
    "shapes.enumerate_r_strips": len,
    "expansions.expand_skew": lambda e: sum(e.values()),
    "expansions.fuss_a_expansion_formula": len,
    "expansions.fuss_b_expansion_formula": len,
    "expansions.parking_expansion": len,
    "noncrossing_a.enumerate_k_divisible": len,
    "noncrossing_b.enumerate_nc_b": len,
    "parking.enumerate_primitive": len,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.items: list[int] = []  # per name: objects returned or yielded
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.items.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, items = self._stack, self.items

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    sid = len(starts)
                    names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0)
                    stack.append(sid)
                    starts.append(clock())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        ends[sid] = clock()
                        stack.pop()
                    items[nid] += 1
                    yield item

            return traced_generator

        size = RESULT_SIZE.get(name)

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if size is not None:
                items[nid] += size(result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module("ncstrip")] + [
            importlib.import_module(f"ncstrip.{m}") for m in MODULES
        ]
        wrapped = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = (obj, self.wrap(obj, f"{short}.{attr}"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])
        skew = importlib.import_module("ncstrip.shapes").SkewShape
        original = skew.__dict__["column_interval"]
        self._restore.append((skew, "column_interval", original))
        skew.column_interval = self.wrap(original, COLUMN_INTERVAL)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON index next to the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as f:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)
        index = {
            "spans": len(self.start),
            "layout": ["name:u16", "parent:i32", "start_ns:i64", "end_ns:i64"],
            "names": self.names,
        }
        path.with_suffix(".json").write_text(json.dumps(index) + "\n")


class Aggregate:
    """Calls, inclusive and self nanoseconds per name and per (parent, child)
    name edge.  Self time is a span's duration minus its children's."""

    def __init__(self, tracer: Tracer):
        n_names = len(tracer.names)
        self.names = tracer.names
        self.items = tracer.items
        self.calls = [0] * n_names
        self.incl = [0] * n_names
        self.self_ns = [0] * n_names
        self.edges: dict[tuple[int, int], list[int]] = {}
        name, parent, start, end = tracer.name, tracer.parent, tracer.start, tracer.end
        child = array("q", bytes(8 * len(start)))
        for sid in range(len(start) - 1, -1, -1):  # children come after parents
            dur = end[sid] - start[sid]
            nid = name[sid]
            self.calls[nid] += 1
            self.incl[nid] += dur
            self.self_ns[nid] += dur - child[sid]
            p = parent[sid]
            if p >= 0:
                child[p] += dur
                edge = self.edges.setdefault((name[p], nid), [0, 0])
                edge[0] += 1
                edge[1] += dur
        self.index = {n: i for i, n in enumerate(self.names)}

    def get(self, field: list, name: str) -> int:
        i = self.index.get(name)
        return 0 if i is None else field[i]

    def edge(self, parent: str, child: str) -> tuple[int, int]:
        p, c = self.index.get(parent), self.index.get(child)
        calls, ns = self.edges.get((p, c), (0, 0))
        return calls, ns

    def module_self_s(self, module: str) -> float:
        return sum(
            s for n, s in zip(self.names, self.self_ns) if n.split(".", 1)[0] == module
        ) / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: Aggregate, objects: int, requests: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    objects: the pass's closed-form object count; requests: CLI requests in
    the pass (0 on the sweeps).  Times per object or call are inclusive
    (they contain the spans of callees) and in microseconds.
    """
    calls, incl, items = agg.calls, agg.incl, agg.items
    get = agg.get

    def us_per_obj(*names):
        return _ratio(sum(get(incl, n) for n in names), 1e3 * sum(get(items, n) for n in names))

    def us_per_call(*names):
        return _ratio(sum(get(incl, n) for n in names), 1e3 * sum(get(calls, n) for n in names))

    m = {f"{mod}.self_s": agg.module_self_s(mod) for mod in MODULES if mod != "cli"}
    m["shapes.column_interval.calls_per_strip"] = _ratio(
        get(calls, COLUMN_INTERVAL), get(items, "shapes.iter_strip_heights")
    )
    m["shapes.enumerate_r_strips.us_per_obj"] = us_per_obj("shapes.enumerate_r_strips")
    m["shapes.iter_strip_heights.us_per_obj"] = us_per_obj("shapes.iter_strip_heights")
    m["expansions.expand_skew.us_per_obj"] = us_per_obj("expansions.expand_skew")
    m["expansions.formula.us_per_term"] = us_per_obj(
        "expansions.fuss_a_expansion_formula",
        "expansions.fuss_b_expansion_formula",
        "expansions.parking_expansion",
    )
    # One type statistic per call, counting a type_a call made inside
    # reduced_type_a as part of that call.
    nested_calls, nested_ns = agg.edge("noncrossing_a.reduced_type_a", "noncrossing_a.type_a")
    m["noncrossing_a.type_stats.us_per_obj"] = _ratio(
        get(incl, "noncrossing_a.type_a") + get(incl, "noncrossing_a.reduced_type_a") - nested_ns,
        1e3
        * (
            get(calls, "noncrossing_a.type_a")
            + get(calls, "noncrossing_a.reduced_type_a")
            - nested_calls
        ),
    )
    m["noncrossing_a.enumerate_k_divisible.us_per_obj"] = us_per_obj(
        "noncrossing_a.enumerate_k_divisible"
    )
    m["noncrossing_a.is_noncrossing.calls_per_obj"] = _ratio(
        get(calls, "noncrossing_a.is_noncrossing"), objects
    )
    m["noncrossing_b.enumerate_nc_b.us_per_obj"] = us_per_obj("noncrossing_b.enumerate_nc_b")
    # Every candidate partition is canonicalised once before deduplication.
    m["noncrossing_b.enumerate_nc_b.candidates_per_obj"] = _ratio(
        agg.edge("noncrossing_b.enumerate_nc_b", "noncrossing_b.canonical_blocks_b")[0],
        get(items, "noncrossing_b.enumerate_nc_b"),
    )
    m["noncrossing_b.type_b.us_per_call"] = us_per_call("noncrossing_b.type_b")
    m["lattice_paths.enumerate_fuss_catalan.us_per_obj"] = us_per_obj(
        "lattice_paths.enumerate_fuss_catalan"
    )
    m["lattice_paths.enumerate_fuss_binomial.us_per_obj"] = us_per_obj(
        "lattice_paths.enumerate_fuss_binomial"
    )
    for fn in (
        "path_to_noncrossing",
        "noncrossing_to_path",
        "path_to_signed_noncrossing",
        "signed_noncrossing_to_path",
    ):
        m[f"bijections.{fn}.us_per_call"] = us_per_call(f"bijections.{fn}")
    m["bijections.strip_to_path.us_per_call"] = us_per_call(
        "bijections.staircase_strip_to_path", "bijections.rectangle_strip_to_path"
    )
    m["bijections.path_to_strip.us_per_call"] = us_per_call(
        "bijections.staircase_path_to_strip", "bijections.rectangle_path_to_strip"
    )
    m["parking.enumerate_primitive.us_per_obj"] = us_per_obj("parking.enumerate_primitive")
    m["cli.self_ms_per_request"] = _ratio(agg.module_self_s("cli") * 1e3, requests)
    return m
