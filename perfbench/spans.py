"""In-memory span tracer installed around the public functions of tabreduce.

Wrappers are patched onto every module attribute that holds a traced
function, i.e. onto the name each caller resolves at call time: ``annotate``
imports ``project`` by name, so ``annotate.project`` gets its own wrapper
and its spans are recorded as ``tables.project@annotate``.  Spans are kept
in flat arrays (name id, parent index, start, end) and only turned into a
report or a file after the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("dataio", "annotate", "sql", "tables", "tasks", "policy", "training", "llm", "metrics", "cli")

# Leaf functions called so often that a span would cost more than the call:
# these are only counted, per stage.
COUNT_ONLY = frozenset({
    "policy.mean_embedding",
    "policy.tokenize",
    "policy.value_estimate",
    "sql.coerce_number",
    "sql.normalize_answer",
    "tables.format_cell",
    "tables.quote_if_needed",
    "tables.count_tokens",
})

# Methods are traced only where listed; module-level functions all are.
METHODS = {"training": ("Adam.step",)}


class Tracer:
    """Spans in parallel arrays; index order is start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._root = -1
        self.counts: Counter = Counter()  # (name id, root span index) -> calls

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span (one pipeline stage)."""
        self._root = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(self._root)
            self._root = -1

    def spanned(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def counted(self, name: str, fn):
        nid = self.name_id(name)
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(nid, tracer._root)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": [[self.names[n], r, c] for (n, r), c in sorted(self.counts.items())],
        }


def _traced_functions(package: str) -> dict[int, tuple[str, object, str, object]]:
    """id(function) -> (qualified name, owner, attribute, function)."""
    found = {}
    for layer in LAYERS:
        module = sys.modules.get(f"{package}.{layer}")
        if module is None:
            continue
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found[id(obj)] = (f"{layer}.{attr}", module, attr, obj)
        for dotted in METHODS.get(layer, ()):
            cls_name, meth = dotted.split(".")
            cls = getattr(module, cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                found[id(fn)] = (f"{layer}.{dotted}", cls, meth, fn)
    return found


def install(tracer: Tracer, package: str = "tabreduce"):
    """Wrap every traced function at every binding site; returns an undo list."""
    functions = _traced_functions(package)
    undo = []
    for qual, owner, attr, fn in functions.values():
        undo.append((owner, attr, fn))
        make = tracer.counted if qual in COUNT_ONLY else tracer.spanned
        setattr(owner, attr, make(qual, fn))
    # the home bindings now hold wrappers, so what is left are the callers' copies
    for name, module in list(sys.modules.items()):
        if not name.startswith(package + ".") or module is None:
            continue
        site = name.rsplit(".", 1)[-1]
        for attr, obj in list(vars(module).items()):
            entry = functions.get(id(obj))
            if entry is None:
                continue
            qual = entry[0]
            make = tracer.counted if qual in COUNT_ONLY else tracer.spanned
            undo.append((module, attr, obj))
            setattr(module, attr, make(f"{qual}@{site}", obj))
    return undo


def uninstall(undo) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its direct children."""
    children: list[list[tuple[float, float]]] = [[] for _ in start]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    return [
        (end[i] - start[i]) - union_length(children[i], start[i], end[i])
        for i in range(len(start))
    ]


def base_name(name: str) -> str:
    """``tables.project@annotate`` -> ``tables.project``."""
    return name.split("@", 1)[0]


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, total and self seconds; per root: layer shares."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    root_of = array("i", [0]) * len(tracer.start)
    by_name: dict[str, dict] = {}
    roots: dict[int, dict] = {}
    for i, nid in enumerate(tracer.name):
        p = tracer.parent[i]
        root_of[i] = i if p < 0 else root_of[p]
        name = tracer.names[nid]
        entry = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "roots": Counter()})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        root = root_of[i]
        entry["roots"][tracer.names[tracer.name[root]]] += 1
        if p < 0:
            roots[i] = {"name": name, "dur_s": tracer.end[i] - tracer.start[i], "layer_self_s": 0.0}
        elif not name.startswith("cli."):
            roots[root]["layer_self_s"] += selfs[i]
    counts: dict[str, dict] = {}
    for (nid, root), n in tracer.counts.items():
        entry = counts.setdefault(tracer.names[nid], {"calls": 0, "roots": Counter()})
        entry["calls"] += n
        entry["roots"][tracer.names[tracer.name[root]] if root >= 0 else ""] += n
    return {"spans": by_name, "counts": counts, "roots": list(roots.values())}


def write(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh, separators=(",", ":"))
