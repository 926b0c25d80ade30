"""Layer spans recorded from outside the package, and cache discipline.

`Tracer.install` wraps the public functions of each library layer (and the
public methods of its classes) in every ``neckforge.*`` module namespace
that holds a reference, so a call from one layer into another is recorded
as a child span wherever it comes from.  A call into the layer that is
already running is passed straight through: spans mark layer boundaries
only.  Spans live in memory as ``[name, layer, start, end, parent, op,
points]`` lists and are written out once, at the end of a run.

`clear_package_caches` finds every ``functools.lru_cache`` among the
``neckforge.*`` module globals by scanning, never by name, so it keeps
working when a cache is added or removed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

LAYERS = ("specfun", "symbol", "indicial", "extension", "modegreen", "neck", "solver")
PACKAGE = "neckforge"
OP = "op"
BENCH = "bench"

NAME, LAYER, START, END, PARENT, OP_ID, POINTS = range(7)


def package_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def clear_package_caches() -> int:
    """Empty every lru_cache held in a neckforge module global; return the count."""
    cleared = set()
    for mod in package_modules().values():
        for obj in list(vars(mod).values()):
            while obj is not None:
                if callable(getattr(obj, "cache_info", None)) and \
                        callable(getattr(obj, "cache_clear", None)):
                    if id(obj) not in cleared:
                        obj.cache_clear()
                        cleared.add(id(obj))
                    break
                obj = getattr(obj, "__wrapped__", None)
    return len(cleared)


class OpContext:
    """What one op records: call latencies by label, work counts, and (when
    traced) the benchmark's own spans for input generation and checks."""

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.timings = defaultdict(list)
        self.counts = Counter()

    def bench(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(f"{BENCH}.{name}", BENCH)

    @contextmanager
    def time(self, label: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.timings[label].append(perf_counter() - t0)


class Tracer:
    """In-memory span recorder with per-function call counts."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.counters = Counter()
        self.op = None
        self._restore = []

    # -- spans opened by the benchmark itself --------------------------------
    @contextmanager
    def span(self, name: str, layer: str):
        rec = self._open(name, layer, 0)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name, layer, points):
        rec = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else None,
               self.op, points]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = perf_counter()
        self.stack.pop()

    # -- wrapping the library ------------------------------------------------
    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__qualname__}"
        count_points = layer == "specfun"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            points = _size(args[0]) if count_points and args else 0
            rec = tracer._open(name, layer, points)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return traced

    def install(self):
        """Wrap every layer's public functions and methods; see `uninstall`."""
        modules = package_modules()
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                raise ImportError(f"{PACKAGE}.{layer} is not imported")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(layer, obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod in modules.values():
            space = vars(mod)
            for attr, obj in list(space.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((space, attr, obj))
                    space[attr] = hit[1]
        self._count_ode_evals(modules[f"{PACKAGE}.extension"])

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(layer, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(layer, raw)
            else:
                continue
            setattr(cls, attr, new)
            self._restore.append((cls, attr, raw))

    def _count_ode_evals(self, extension):
        """Add up `nfev` of the ODE integrator the extension module calls."""
        from scipy.integrate import solve_ivp

        space = vars(extension)
        tracer = self

        @functools.wraps(solve_ivp)
        def counted(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            tracer.counters["extension.rhs_evals"] += int(sol.nfev)
            return sol

        for attr in [a for a, obj in space.items() if obj is solve_ivp]:
            self._restore.append((space, attr, solve_ivp))
            space[attr] = counted

    def uninstall(self):
        for space, attr, obj in reversed(self._restore):
            if isinstance(space, dict):
                space[attr] = obj
            else:
                setattr(space, attr, obj)
        self._restore.clear()

    # -- output ----------------------------------------------------------------
    def dump(self, path: str):
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": rec[NAME], "layer": rec[LAYER],
                                     "start": rec[START], "end": rec[END],
                                     "parent": rec[PARENT], "op": rec[OP_ID],
                                     "points": rec[POINTS]}) + "\n")


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x) if isinstance(x, (list, tuple)) else 1
    size = 1
    for dim in shape:
        size *= int(dim)
    return size


def analyse(spans: list) -> dict:
    """Self time per layer, entry counts and points, from a span list.

    A span's self time is its duration minus the time its child spans
    cover (children of one span never overlap: one thread, nested calls).
    """
    child_time = defaultdict(float)
    for rec in spans:
        if rec[PARENT] is not None:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    self_s = defaultdict(float)
    entries = Counter()
    points = Counter()
    op_wall = 0.0
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        self_s[rec[LAYER]] += dur - child_time[i]
        entries[rec[LAYER]] += 1
        points[rec[LAYER]] += rec[POINTS]
        if rec[LAYER] == OP:
            op_wall += dur
    return {"self_s": dict(self_s), "entries": dict(entries), "points": dict(points),
            "op_wall": op_wall}


def points_under(spans: list, ancestor_layer: str, layer: str) -> int:
    """Points of `layer` spans that run beneath a span of `ancestor_layer`."""
    below = {}

    def is_below(i):
        if i is None:
            return False
        if i not in below:
            rec = spans[i]
            below[i] = rec[LAYER] == ancestor_layer or is_below(rec[PARENT])
        return below[i]

    return sum(rec[POINTS] for rec in spans
               if rec[LAYER] == layer and is_below(rec[PARENT]))
