"""Outside-in tracing of wehrl_lab from the benchmark's own files.

``Tracer.install`` wraps every public module-level function of the loaded
wehrl_lab modules, plus the methods in ``METHODS``, and rebinds every module
global that refers to the same function object.  Calls inside a module
(``qk_project`` -> ``norm2_exact``) and imported names (``disc.pochhammer``
is ``exactnum.pochhammer``) therefore record spans too.  ``uninstall`` puts
the original objects back.

Spans stay in memory as (id, parent id, check index, name, start, end) and
are written as JSON lines by ``write_spans``.  Work counters are computed
from the arguments and results of a few functions (``COUNTERS``), never read
from inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "wehrl_lab"
METHODS = (("disc", "PolyFun", "power"), ("reports", "Report", "to_json"))


def _selberg_numeric(bound, result, dt, counts):
    spec = bound.arguments["spec"]
    if result.method == "gauss_jacobi":  # budget nodes, then budget + 8
        n = result.samples_or_nodes
        counts["selberg.grid_points"] += (n - 8) ** spec.r + n ** spec.r
        counts["selberg.useful_points"] += n ** spec.r
    elif result.method == "monte_carlo":
        counts["selberg.mc_samples"] += result.samples_or_nodes
        counts["selberg.mc_s"] += dt


def _verify_degree_integral(bound, result, dt, counts):
    if result["method"] == "ordered_quadrature":  # nodes, then nodes + 12
        r, n = bound.arguments["d"].r, result["samples_or_nodes"]
        counts["selberg.grid_points"] += (n - 12) ** r + n ** r
        counts["selberg.useful_points"] += n ** r


def _cartan_projection(bound, result, dt, counts):
    n, m = bound.arguments["n"], bound.arguments["m"]
    counts["compact.projector_bytes"] += 8 * (m + 1) ** (2 * n)


def _maximize_wehrl(bound, result, dt, counts):
    counts["disc.maximize_wehrl.iterations"] += result.iterations


def _to_json(bound, result, dt, counts):
    counts["suite.stream_bytes"] += len(result.encode()) + 1


COUNTERS = {
    "selberg.selberg_numeric": _selberg_numeric,
    "selberg.verify_degree_integral": _verify_degree_integral,
    "compact.cartan_projection": _cartan_projection,
    "disc.maximize_wehrl": _maximize_wehrl,
    "reports.Report.to_json": _to_json,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [0]
        self._next_id = 1
        self._check = -1
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self._check, name, start, end))
            if counter:
                counter(sig.bind(*args, **kwargs), result, end - start,
                        self.counts)
            return result
        return traced

    @contextlib.contextmanager
    def check_span(self, name: str, check: int):
        """A benchmark-side root span around one check."""
        self._check = check
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, 0, check, name, start, end))

    def install(self) -> None:
        modules = {name[len(PACKAGE) + 1:]: mod
                   for name, mod in sorted(sys.modules.items())
                   if name.startswith(PACKAGE + ".") and mod is not None}
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}",
                                                         obj))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, check, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "check": check, "name": name,
                                     "start": start, "end": end}) + "\n")

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost spans of that name only,
        so nested calls are not counted twice) and self_s (duration minus the
        duration of direct child spans)."""
        child_time: dict[int, float] = defaultdict(float)
        by_id = {}
        for sid, parent, _, name, start, end in self.spans:
            child_time[parent] += end - start
            by_id[sid] = (parent, name)
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for sid, parent, _, name, start, end in self.spans:
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += (end - start) - child_time[sid]
            anc = parent
            while anc and by_id[anc][1] != name:
                anc = by_id[anc][0]
            if not anc:
                st["busy_s"] += end - start
        return dict(stats)
