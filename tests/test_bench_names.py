"""The benchmark reaches into the package by name: the traced run wraps
functions listed in perfbench/tracing.py, and the workloads import
library functions directly.  These tests read those files, without
importing or running them, and check that every name still resolves."""

import ast
import importlib
import pathlib

from toricurves.eulerprod import euler_product_p1
from toricurves.grothendieck import SeriesCap
from toricurves.mobius import IntPoly

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _spanned():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no SPANNED")


def test_every_traced_function_resolves():
    spanned = _spanned()
    assert spanned
    for name, modname, attr in spanned:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), (name, modname, attr)


def test_euler_product_result_has_coeffs():
    # the traced run counts engine terms as len(result.coeffs)
    result = euler_product_p1(IntPoly(2, {(0, 0): 1, (1, 1): -1}), 0,
                              SeriesCap((2, 2)))
    assert len(result.coeffs) > 0


def _resolves(modname, name):
    """Is name an attribute or a submodule of the module modname?"""
    if hasattr(importlib.import_module(modname), name):
        return True
    try:
        importlib.import_module(f"{modname}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_name_the_benchmark_imports_exists():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[0] == "toricurves"):
                imported += [(path.name, node.module, a.name) for a in node.names]
    assert any(f == "workloads.py" for f, _, _ in imported)
    for fname, modname, name in imported:
        assert _resolves(modname, name), (fname, modname, name)
