"""Span tracer that wraps the public functions of every dunkldirac module.

Each module-level public function and each public method (plus the
arithmetic dunders) defined in a dunkldirac module is replaced by a wrapper
that records one span: name id, parent span, start and end.  Every module's
binding of a function is patched, so ``from .quadrature import evaluate`` in
another module calls the wrapper too.  Spans live in flat arrays in memory
and are written out once, after the traced round.

Counts are taken at the same boundaries: term counts passed to ``is_zero``,
terms of the kernel series, grid nodes, and kernel evaluation pairs.  The
lru caches are read through ``cache_info()`` deltas.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

MODULES = ("cli", "clifford", "deformed", "dunkl", "dunkltransform", "fischer",
           "fourier", "kelvin", "laguerre", "linalg", "measure", "params",
           "poly", "quadrature", "reflection", "scalars")

# dunders that carry the algebra; constructors and repr stay unwrapped
_DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__eq__",
            "__float__", "__bool__"}

# (module, qualname) -> counter name and how to read the count from a call
_COUNTERS = {
    ("poly", "RadialExpr.is_zero"):
        ("poly.zero_test_terms", lambda args, res: len(args[0].terms)),
    ("dunkl", "DunklContext.kernel_series"):
        ("dunkl.kernel_series_terms", lambda args, res: sum(len(lv) for lv in res)),
    ("quadrature", "weighted_grid"):
        ("quadrature.nodes", lambda args, res: len(res[0])),
    ("dunkltransform", "kernel_matrix"):
        ("dunkltransform.kernel_pairs",
         lambda args, res: len(args[1]) * len(args[2])),
}

# inclusive times of single functions, reported beside the layer self times
INCLUSIVE = {
    "poly.is_zero_s": ("poly", "RadialExpr.is_zero"),
    "poly.mul_expr_s": ("poly", "RadialExpr.mul_expr"),
    "dunkl.kernel_series_s": ("dunkl", "DunklContext.kernel_series"),
    "dunkltransform.kernel_matrix_s": ("dunkltransform", "kernel_matrix"),
}

CACHES = {
    "reflection.reflect_monomial": ("reflection", "reflect_monomial"),
    "clifford.blade_product": ("clifford", "blade_product"),
    "poly.r_squared_power": ("poly", "r_squared_power"),
}


class Tracer:
    """Holds the span arrays and the patched bindings of one process."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []
        self.name_id: array = array("l")
        self.parent: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack = [-1]
        self.counts = {name: 0 for name, _fn in _COUNTERS.values()}
        self._originals: dict = {}
        self._cache_base: dict = {}

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, module: str, qualname: str):
        nid = len(self.names)
        self.names.append((module, qualname))
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        counter = _COUNTERS.get((module, qualname))

        if counter is None:
            def wrapper(*args, **kwargs):
                idx = len(name_id)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
        else:
            key, read = counter
            counts = self.counts

            def wrapper(*args, **kwargs):
                idx = len(name_id)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    res = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
                counts[key] += read(args, res)
                return res

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self):
        """Wrap every public function and method of the dunkldirac modules."""
        mods = {name: importlib.import_module(f"dunkldirac.{name}") for name in MODULES}
        pkg = importlib.import_module("dunkldirac")
        wrapped: dict = {}  # id(original function) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, short, mod.__file__)
                elif callable(obj) and _defined_in(obj, mod.__file__):
                    wrapped[id(obj)] = self._wrap(obj, short, attr)
                    self._originals[(short, attr)] = obj
        # rebind every module's reference (including re-exports) to the wrapper
        for mod in [*mods.values(), pkg]:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)
        for key, (short, attr) in CACHES.items():
            self._cache_base[key] = self._originals[(short, attr)].cache_info()

    def _wrap_class(self, cls, short: str, path: str):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                if _defined_in(raw.__func__, path):
                    setattr(cls, attr, type(raw)(self._wrap(raw.__func__, short, qual)))
            elif isinstance(raw, property):
                if raw.fget is not None and _defined_in(raw.fget, path):
                    setattr(cls, attr, property(self._wrap(raw.fget, short, qual),
                                                raw.fset, raw.fdel, raw.__doc__))
            elif inspect.isfunction(raw) and _defined_in(raw, path):
                setattr(cls, attr, self._wrap(raw, short, qual))

    # -- read-out ----------------------------------------------------------

    def cache_deltas(self) -> dict:
        out = {}
        for key, (short, attr) in CACHES.items():
            now = self._originals[(short, attr)].cache_info()
            base = self._cache_base[key]
            out[key] = (now.hits - base.hits, now.misses - base.misses)
        return out

    def arrays(self):
        n = len(self.end)
        return (np.frombuffer(self.name_id, dtype=np.int64, count=n).copy(),
                np.frombuffer(self.parent, dtype=np.int64, count=n).copy(),
                np.frombuffer(self.start, dtype=np.float64, count=n).copy(),
                np.frombuffer(self.end, dtype=np.float64, count=n).copy())

    def layer_metrics(self, run_s: float) -> dict:
        """Self time per module, chosen inclusive times, counts and caches."""
        nid, par, st, en = self.arrays()
        dur = en - st
        child = np.bincount(par[par >= 0], weights=dur[par >= 0], minlength=len(dur))
        self_t = dur - child[: len(dur)]
        module_of = np.array([MODULES.index(m) for m, _q in self.names], dtype=np.int64)
        per_module = np.bincount(module_of[nid], weights=self_t, minlength=len(MODULES))
        out = {f"{m}.self_s": float(per_module[i]) for i, m in enumerate(MODULES)}
        for metric, key in INCLUSIVE.items():
            # none of these functions re-enters itself, so their spans are disjoint
            out[metric] = float(dur[nid == self.names.index(key)].sum())
        for key, value in self.counts.items():
            out[key] = value
        for key, (hits, misses) in self.cache_deltas().items():
            lookups = hits + misses
            out[f"{key}_hit_ratio"] = hits / lookups if lookups else 0.0
            out[f"{key}_lookups"] = lookups
        roots = par < 0
        out["trace.run_s"] = run_s
        out["trace.unattributed_s"] = run_s - float(dur[roots].sum())
        out["trace.spans"] = len(dur)
        return out

    def dump(self, path):
        """Write the spans and the name table to one .npz file."""
        nid, par, st, en = self.arrays()
        np.savez(path, name_id=nid, parent=par, start=st, end=en,
                 names=np.array(json.dumps(self.names)))


def _defined_in(fn, path: str) -> bool:
    code = getattr(inspect.unwrap(fn), "__code__", None)
    return code is not None and code.co_filename == path
