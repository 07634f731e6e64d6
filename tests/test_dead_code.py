"""Every definition in ``src`` has a caller outside the tests.

The check walks the syntax trees of ``src``, ``perfbench`` and ``demos`` and
collects every name and attribute they use.  A module-level function or
class, or a method, of ``src`` counts as used when its name appears there
outside its own body.  Dunder methods are called by the language and
``@suite`` runners by the registry, so neither needs a caller.

The walk matches by name only.  A name shared by two definitions can hide
dead code: each looks used wherever the other's name appears.  A JSON
reader of a second Clifford type once looked used this way, because a
test-only reader of the same name called it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Independent computations that only the tests compare the program against.
ORACLES = {
    "DeformParams.ansatz",
    "DeformedContext.dirac_from_commutator",
    "DeformedContext.dirac_on_damped",
    "DeformedContext.dirac_squared_closed",
    "DunklContext.laplacian_explicit",
    "DunklContext.verify_kernel_series",
    "LaguerreTower.oscillator_constant",
    "dirac_via_inversion",
    "harmonic_dimension",
    "intertwined_component",
    "monogenic_dimension",
    "pq_constant",
}


def _names_used(node) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree):
    """(qualified name, node) of each top-level def and class, and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def _is_suite_runner(node) -> bool:
    return any(isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "suite"
               for dec in node.decorator_list)


def test_src_definitions_unused_outside_tests_are_the_named_oracles():
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "perfbench", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    unused = set()
    for path, tree in trees.items():
        if not path.is_relative_to(ROOT / "src"):
            continue
        for qualname, node in _definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or _is_suite_runner(node):
                continue
            if used[name] <= _names_used(node)[name]:
                unused.add(qualname)
    assert unused == ORACLES
