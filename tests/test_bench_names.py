"""The bench harness's named functions and caches exist in ``src``.

perfbench's tracer imports each module of its ``MODULES`` list and wraps its
public functions and methods, then looks up every ``INCLUSIVE`` entry among
the wrapped names and reads ``cache_info()`` of every ``CACHES`` entry.  A
removed module or a renamed, moved or made private function fails the traced
run there, so these tests check the list and both tables against ``src``.
They only read ``perfbench/tracer.py``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def resolve(module: str, qualname: str):
    obj = importlib.import_module(f"dunkldirac.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, qualname",
                         sorted({*tracer.INCLUSIVE.values(), *tracer.CACHES.values()}))
def test_named_function_is_public_in_its_module(module, qualname):
    assert module in tracer.MODULES
    assert not any(part.startswith("_") for part in qualname.split("."))
    assert inspect.unwrap(resolve(module, qualname)).__module__ == f"dunkldirac.{module}"


@pytest.mark.parametrize("module", tracer.MODULES)
def test_traced_module_imports(module):
    """A traced run imports every module the tracer lists; a removed or
    renamed one would fail only there."""
    assert importlib.import_module(f"dunkldirac.{module}").__name__ == f"dunkldirac.{module}"


@pytest.mark.parametrize("key", sorted(tracer.CACHES))
def test_named_cache_has_cache_info(key):
    info = resolve(*tracer.CACHES[key]).cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_kernel_matrix_keeps_the_positional_shape_the_pair_counter_reads():
    """The ``kernel_pairs`` counter reads X and Y as ``args[1]`` and
    ``args[2]`` of a call to ``dunkltransform.kernel_matrix``, so its
    signature stays (dk, X, Y, order), all positional."""
    counter = tracer._COUNTERS[("dunkltransform", "kernel_matrix")]
    assert counter[0] == "dunkltransform.kernel_pairs"
    assert counter[1]((None, [0] * 3, [0] * 5, 28), None) == 15
    params = inspect.signature(resolve("dunkltransform", "kernel_matrix")).parameters
    assert list(params) == ["dk", "X", "Y", "order"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD and
               p.default is inspect.Parameter.empty for p in params.values())


def test_kernel_coefficients_reaches_the_traced_series(monkeypatch):
    """The ``dunkl.kernel_series_s`` span and the ``kernel_series_terms``
    count wrap the public ``DunklContext.kernel_series``, so
    ``kernel_coefficients`` reaches it through the class, and its return
    stays a list of per-level dicts for the count to read."""
    assert tracer.INCLUSIVE["dunkl.kernel_series_s"] == ("dunkl", "DunklContext.kernel_series")
    name, count = tracer._COUNTERS[("dunkl", "DunklContext.kernel_series")]
    assert name == "dunkl.kernel_series_terms"
    cls = resolve("dunkl", "DunklContext")
    calls, original = [], cls.kernel_series

    def wrapped(self, order):
        calls.append(original(self, order))
        return calls[-1]

    monkeypatch.setattr(cls, "kernel_series", wrapped)
    reflection = importlib.import_module("dunkldirac.reflection")
    dk = cls(reflection.hyperoctahedral(2, 1, 2))
    dk.kernel_coefficients(4)
    assert len(calls) == 1
    series = calls[0]
    assert isinstance(series, list) and len(series) == 5
    assert all(isinstance(level, dict) for level in series)
    assert count((dk, 4), series) == sum(len(level) for level in series) > 0


def test_series_transform_reaches_the_traced_series_once_per_order(monkeypatch):
    """Series transform tables are built outside ``kernel_matrix``, so the
    ``dunkl.kernel_series_s`` span sees them only if every build goes
    through the public ``DunklContext.kernel_series``: once per context and
    order, however many tables and transforms read it."""
    cls = resolve("dunkl", "DunklContext")
    calls, original = [], cls.kernel_series

    def wrapped(self, order):
        calls.append((id(self), order))
        return original(self, order)

    monkeypatch.setattr(cls, "kernel_series", wrapped)
    reflection = importlib.import_module("dunkldirac.reflection")
    transform = importlib.import_module("dunkldirac.dunkltransform")
    poly = importlib.import_module("dunkldirac.poly")
    f = poly.RadialExpr.monomial(2, (1, 0))
    targets = [[0.5, -0.3], [-0.8, 0.6]]
    contexts = [cls(reflection.hyperoctahedral(2, 1, 2)) for _ in range(2)]
    for dk in contexts:
        for order in (8, 10, 8):
            for n_r in (6, 8):
                transform.transform_values(dk, f, targets, order, n_r, 12)
    assert sorted(calls) == sorted((id(dk), order) for dk in contexts for order in (8, 10))
