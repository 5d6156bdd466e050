"""The engine's packed format stays in eulerprod: moduli reads classes
only.  The test reads moduli's source, without importing it."""

import ast
import pathlib

MODULI = (pathlib.Path(__file__).resolve().parent.parent
          / "src" / "toricurves" / "moduli.py")

ENGINE_ONLY = {"pack_class", "unpack_class", "EulerFactors", "euler_factors",
               "_Keys", "GlobalMobius", "_checked_mobius"}


def test_moduli_uses_no_packed_format():
    imported, used = set(), set()
    for node in ast.walk(ast.parse(MODULI.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.name.rsplit(".", 1)[-1] for a in node.names}
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert "euler_product_at_Linv" in imported
    assert not imported & ENGINE_ONLY, imported & ENGINE_ONLY
    assert not used & ENGINE_ONLY, used & ENGINE_ONLY
