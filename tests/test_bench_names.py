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
