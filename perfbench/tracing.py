"""Span tracing around the public functions of each kwise layer.

A layer is one module of the package: bitops, core, constructions,
generator, disjointness, search and cli.  `Tracer.install` replaces every
public, non-generator function of those modules with a wrapper that
records a span (name, start, end, parent).  The wrapper is put in every
namespace that holds the function, including the modules that imported
it (``kwise.core.project_intersect_bits``, ``kwise.search.canonical_form``)
and the package itself, so nested calls inside the library are caught.

Spans live in flat arrays while the benchmark runs and are written out
once at the end.  A few computed work counts are taken at the same
boundaries, from the call arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Tuple

LAYERS = ("bitops", "core", "constructions", "generator", "disjointness", "search", "cli")

# Root spans the benchmark opens around each top-level operation.
OP_PREFIX = "op."


def _passes_bytes(passes: int, n: int) -> int:
    # computed, not measured: each pass touches the whole 2^n-bit bitmap once
    return passes * (1 << n) >> 3


def _project_bytes(result, bm, keep, n):
    return _passes_bytes(n - (keep & ((1 << n) - 1)).bit_count(), n)


def _full_pass_bytes(result, bm, n):
    return _passes_bytes(n, n)


def _kwise_folded(result, family, k, mode=None):
    # is_k_wise_intersecting folds nothing in DISTINCT mode below k members
    if (mode is None or mode.value == "distinct") and family.size < k:
        return 0
    return family.size


def _addable_folded(result, family, k, mode=None):
    # the blocked-set fold inside addable_sets, on top of its k-wise check
    if (mode is None or mode.value == "distinct") and family.size < k - 1:
        return 0
    return family.size


def _closure_folded(result, family, k, mode=None):
    # every member of the result is folded into the closure's reach layers
    return result.size


def _canonical_perms(result, family):
    return 0 if family.bitmap == 0 or family.n <= 1 else math.factorial(family.n)


def _cuts(result, graph, mode="exact", budget=None, seed=None):
    m = len(graph.left)
    if mode != "exact" or m <= 1 or graph.edge_count() == 0:
        return 0
    return 1 << (m - 1)


# Work counts computed at a span boundary: span name -> (metric, hook).
# A hook gets the call's result followed by its arguments.
WORK_HOOKS: Dict[str, Tuple[str, Callable[..., int]]] = {
    "bitops.project_intersect_bits": ("bitops.project_intersect_bits.bytes_computed", _project_bytes),
    "bitops.up_close_bits": ("bitops.up_close_bits.bytes_computed", _full_pass_bytes),
    "bitops.reverse_index_bits": ("bitops.reverse_index_bits.bytes_computed", _full_pass_bytes),
    "core.is_k_wise_intersecting": ("core.members_folded", _kwise_folded),
    "core.addable_sets": ("core.members_folded", _addable_folded),
    "core.maximal_closure": ("core.members_folded", _closure_folded),
    "search.canonical_form": ("search.canonical_perms", _canonical_perms),
    "disjointness.min_bipartization": ("disjointness.cuts_enumerated", _cuts),
}


class Tracer:
    """Records spans around the kwise layers while installed."""

    def __init__(self, kwise_module):
        self._modules = [kwise_module] + [
            sys.modules[f"{kwise_module.__name__}.{layer}"] for layer in LAYERS
        ]
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.work: Counter = Counter()
        self._patched: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[object, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"{kwise_module.__name__}.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                self._wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        metric, hook = WORK_HOOKS.get(name, (None, None))
        work, stack, clock = self.work, self._stack, time.perf_counter
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            stack.append(idx)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                work[metric] += hook(result, *args, **kwargs)
            return result

        return functools.update_wrapper(traced, fn)

    def op(self, kind: str, call: Callable):
        """Run one top-level benchmark operation inside a root span."""
        idx = self._open(self._name_id(OP_PREFIX + kind))
        self.start[idx] = time.perf_counter()
        try:
            return call()
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: Path) -> None:
        """Write every span as CSV: index, name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, name_of, parent, start, end = self.names, self.name_of, self.parent, self.start, self.end
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i in range(len(start)):
                fh.write(f"{i},{names[name_of[i]]},{start[i]!r},{end[i]!r},{parent[i]}\n")


class SpanSummary:
    """Per-function and per-layer aggregates over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        names = tracer.names
        n = len(tracer.start)
        child = [0.0] * n
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        # root operation kind of each span, and whether search_min encloses it
        root = [0] * n
        in_search = [False] * n
        search_min = tracer._name_ids.get("search.search_min", -2)
        self.op_calls: Counter = Counter()
        self.under_op: Counter = Counter()
        self.canonical_in_search = 0
        for i in range(n):
            p = tracer.parent[i]
            dur = tracer.end[i] - tracer.start[i]
            if p >= 0:
                child[p] += dur
                root[i] = root[p]
                in_search[i] = in_search[p] or tracer.name_of[p] == search_min
            else:
                root[i] = i
        for i in range(n):
            name = names[tracer.name_of[i]]
            dur = tracer.end[i] - tracer.start[i]
            if name.startswith(OP_PREFIX):
                self.op_calls[name[len(OP_PREFIX):]] += 1
                continue
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child[i]
            root_name = names[tracer.name_of[root[i]]]
            self.under_op[(root_name[len(OP_PREFIX):], name)] += 1
            if name == "search.canonical_form" and in_search[i]:
                self.canonical_in_search += 1
        self.layer_self_s: Counter = Counter()
        for name, value in self.self_s.items():
            self.layer_self_s[name.split(".", 1)[0]] += value
        self.spans = n

    @property
    def traced_self_s(self) -> float:
        return sum(self.layer_self_s.values())
