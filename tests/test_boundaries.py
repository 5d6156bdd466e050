"""Source-level boundaries of the library.  The tests read the sources,
without importing them."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toricurves"
MODULI = SRC / "moduli.py"

ENGINE_ONLY = {"pack_class", "unpack_class", "EulerFactors", "euler_factors",
               "_Keys", "_checked_mobius"}


def test_moduli_uses_no_packed_format():
    """The engine's packed format stays in eulerprod: moduli reads
    classes only."""
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


def _names(tree) -> set[str]:
    """The names a syntax tree mentions as a Name, an Attribute or an
    import alias."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_every_library_definition_has_a_caller_outside_the_tests():
    """Each module-level def and class of the library is named in src/
    outside its own definition, in scripts/ or in perfbench/.  The
    package's re-exports and the strings of __all__ do not count: a name
    only the tests call belongs in tests/reference.py, or nowhere."""
    outside = set()
    for path in [*(ROOT / "scripts").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        outside |= _names(ast.parse(path.read_text()))
    # per module, the names each top-level statement mentions
    statements = [
        (node, _names(node))
        for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
        for node in ast.parse(path.read_text()).body
    ]
    unused = []
    for node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name in outside or any(
                node.name in names for other, names in statements
                if other is not node):
            continue
        unused.append(node.name)
    assert not unused, unused


SEARCH = {"_symmetries", "_Symmetries", "SYMMETRY_NODES", "_orbit_key",
          "_orbit_keys", "_OrbitKeys"}


def test_one_search_for_pattern_automorphisms():
    """toric alone defines the search for pattern automorphisms, the
    orbit key and the per-fan memo of keys, and the oracle and the engine
    take their keys from that one memo, never from the key itself."""
    defined: dict[str, set[str]] = {}
    imported: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.ImportFrom) and node.module == "toric":
                imported.setdefault(path.stem, set()).update(
                    a.name for a in node.names)
                continue
            else:
                continue
            for name in names & SEARCH:
                defined.setdefault(name, set()).add(path.stem)
    assert defined == {name: {"toric"} for name in SEARCH}, defined
    for module in ("oracle", "eulerprod"):
        names = imported.get(module, set())
        assert "_orbit_keys" in names and "_orbit_key" not in names, module
