"""Span tracer that times chebpot's public functions from outside the package.

Every public function of the package's modules is replaced, in every
``chebpot`` module namespace that holds it (``chebpot.bounds.solve_extremal``
as well as ``chebpot.extremal.solve_extremal``), by a wrapper that records
one span per call while the tracer is active.  A few methods that carry
the per-point work (Green evaluation, harmonic and pair masses) get spans
too; weight evaluations are only counted, because quadrature calls them
per point and a span each would swamp the measurement.

Spans are kept in memory as ``[name, start, end, parent, failed, points]``
and summarised once at the end: self time is a span's duration minus the
durations of its direct children (calls are strictly nested).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

from common import LAYERS

# methods timed as their own spans: (module, class, attribute) -> span name
_METHOD_SPANS = {
    ("potential", "GreenEvaluator", "__call__"): "potential.green_eval",
    ("potential", "HarmonicMeasure", "mass"): "potential.harmonic_mass",
    ("potential", "PairMeasure", "mass"): "potential.pair_mass",
}

# lru-cached entry points whose cache_info() the benchmark records
CACHED = ("equilibrium", "green", "harmonic_measure", "conjugate_pair_measure")


def _green_points(args):
    """Span suffix and point count of a GreenEvaluator call."""
    arr = np.asarray(args[1])
    kind = "complex" if np.iscomplexobj(arr) and np.any(arr.imag != 0) else "real"
    return kind, int(arr.size)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.weight_calls = 0
        self.weight_points = 0
        self._stack: list[int] = []
        self._weight_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, classify=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            full, points = name, 0
            if classify is not None:
                suffix, points = classify(args)
                full = f"{name}_{suffix}"
            rec = [full, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, False, points]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def _weight_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(w, x, *args, **kwargs):
            if not tracer.active:
                return fn(w, x, *args, **kwargs)
            if tracer._weight_depth == 0:  # products evaluate their factors
                tracer.weight_calls += 1
                tracer.weight_points += int(np.size(x))
            tracer._weight_depth += 1
            try:
                return fn(w, x, *args, **kwargs)
            finally:
                tracer._weight_depth -= 1

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions of every loaded chebpot module."""
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("chebpot.") and name.split(".", 1)[1] in LAYERS
        }
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if callable(obj) and not inspect.isclass(obj):
                    wrapped[id(obj)] = self._span(f"{layer}.{attr}", obj)
        for holder in [m for n, m in sys.modules.items() if n == "chebpot" or n.startswith("chebpot.")]:
            for attr, obj in list(vars(holder).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None:
                    self._patch(holder, attr, wrapper)
        for (layer, cls_name, attr), span_name in _METHOD_SPANS.items():
            cls = getattr(mods[layer], cls_name)
            classify = _green_points if cls_name == "GreenEvaluator" else None
            self._patch(cls, attr, self._span(span_name, cls.__dict__[attr], classify))
        weights = mods["weights"]
        for cls in vars(weights).values():
            if inspect.isclass(cls) and issubclass(cls, weights.Weight) and "__call__" in cls.__dict__:
                self._patch(cls, "__call__", self._weight_counter(cls.__dict__["__call__"]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: [calls, inclusive s, self s, failed calls, points]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, failed, points in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, parent, failed, points) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += int(failed)
            row[4] += points
        return {
            "spans": out,
            "top_level": self.top_level(),
            "weights.eval": [self.weight_calls, self.weight_points],
        }

    def top_level(self) -> dict:
        """Inclusive time of outermost solve_extremal calls (one per degree)."""
        calls, total = 0, 0.0
        for name, start, end, parent, failed, points in self.spans:
            if name == "extremal.solve_extremal" and (
                parent < 0 or self.spans[parent][0] != "extremal.solve_extremal"
            ):
                calls += 1
                total += end - start
        return {"extremal.solve_extremal": [calls, total]}

    def dump_spans(self, path: str):
        """Write the raw spans (name, start, end, parent, failed) once, at the end."""
        with open(path, "w") as fh:
            json.dump([s[:5] for s in self.spans], fh, separators=(",", ":"))


def cache_snapshot() -> dict:
    """(hits, misses) of the potential layer's cached entry points."""
    potential = sys.modules["chebpot.potential"]
    out = {}
    for name in CACHED:
        fn = vars(potential)[name]
        if not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__  # the tracer's wrapper around the cached function
        info = fn.cache_info()
        out[name] = [info.hits, info.misses]
    return out


def cache_delta(before: dict, after: dict) -> dict:
    return {k: [after[k][0] - before[k][0], after[k][1] - before[k][1]] for k in after}
