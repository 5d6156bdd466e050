"""Source-level boundaries of the library.  The tests read the sources,
without importing them."""

import ast
import builtins
import importlib
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toricurves"
MODULI = SRC / "moduli.py"

ENGINE_ONLY = {"unpack_class", "_rest_factors", "_read_product",
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


def _names(tree) -> Counter:
    """How often a syntax tree mentions each name as a Name, an
    Attribute or an import alias."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def _attributes(tree) -> Counter:
    """How often a syntax tree reads each name as an attribute, x.name."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))


def _defined(tree) -> set[str]:
    """The names of the functions and classes a syntax tree defines."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _inherited(node: ast.ClassDef, library: set[str]) -> set[str]:
    """The attributes of the class's bases from outside the library: a
    dotted base is looked up in its module, a bare one in builtins."""
    out = set()
    for base in node.bases:
        module, _, name = ast.unparse(base).rpartition(".")
        if not module and name in library:
            continue
        found = getattr(importlib.import_module(module) if module
                        else builtins, name, None)
        out |= set(dir(found)) if found is not None else set()
    return out


def test_every_library_definition_has_a_caller_outside_the_tests():
    """Each module-level def and class of the library, and each public
    method and property of its classes, is named in src/ outside its own
    definition, in scripts/ or in perfbench/.  A method or property
    counts as named only where it is read as an attribute (x.name), so
    a local variable of the same name is no caller; and a name that
    scripts/ or perfbench/ define themselves is no caller there.
    Dunders and overrides of a base class from outside the library
    (``_Parser.error``) are left out, as Python or that base calls them.
    The package's re-exports and the strings of __all__ do not count: a
    name only the tests call belongs in tests/reference.py, or nowhere."""
    scripts = [ast.parse(path.read_text())
               for path in [*(ROOT / "scripts").glob("*.py"),
                            *(ROOT / "perfbench").glob("*.py")]]
    own = set().union(*map(_defined, scripts))
    modules = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"]
    # per way of counting: the mentions in src/, and the names outside
    totals = {count: (sum(map(count, modules), Counter()),
                      set().union(*map(count, scripts)) - own)
              for count in (_names, _attributes)}
    library = {node.name for tree in modules for node in tree.body
               if isinstance(node, ast.ClassDef)}
    definitions = []
    for tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((node.name, node, _names))
            if isinstance(node, ast.ClassDef):
                inherited = _inherited(node, library)
                definitions += [
                    (f"{node.name}.{member.name}", member, _attributes)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef)
                    and not member.name.startswith("_")
                    and member.name not in inherited]
    unused = [label for label, node, count in definitions
              if node.name not in totals[count][1]
              and totals[count][0][node.name] == count(node)[node.name]]
    assert not unused, unused


def _top_level(tree) -> set[str]:
    """The names a module defines at its top level: functions, classes
    and assigned names, not imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def _exports() -> dict[str, tuple[str, ...]]:
    """The package's table of public names by the layer that defines
    them, read from __init__.py."""
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["_EXPORTS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("__init__.py defines no _EXPORTS")


def test_exports_name_what_their_module_defines():
    """Each module's __all__ names only what that module defines, and
    each name the package's export table takes from a module is defined
    in that module, not imported into it."""
    defined = {path.stem: _top_level(ast.parse(path.read_text()))
               for path in SRC.glob("*.py")}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and [ast.unparse(t) for t in node.targets] == ["__all__"]
                    and path.name != "__init__.py"):
                names = set(ast.literal_eval(node.value))
                assert names <= defined[path.stem], (
                    path.stem, names - defined[path.stem])
    reexports = [(module, name) for module, names in _exports().items()
                 for name in names]
    assert reexports
    missing = [(module, name) for module, name in reexports
               if name not in defined.get(module, ())]
    assert not missing, missing


SEARCH = {"_symmetries", "_Symmetries", "SYMMETRY_NODES", "_orbit_key",
          "_orbit_keys", "_Memo", "_components"}


def test_one_search_for_pattern_automorphisms():
    """toric alone defines the search for pattern automorphisms, the
    orbit key, the memo of keys per pattern set and the split of a
    vector's live patterns into components.  The oracle and the engine
    take their keys from that one memo, never from the key itself, and
    both split by toric's _components."""
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
        assert "_components" in names, module


def test_one_check_of_a_degree_vector():
    """One function of src/ checks a degree vector against its fan: only
    it refuses a wrong degree arity ("does not match ray count") and
    builds the vector with DegreeVector.of, and the oracle imports it
    from moduli."""
    arity, builds = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.JoinedStr) and re.search(
                        "degree arity .* does not match ray count",
                        ast.unparse(sub)):
                    arity.add(f"{path.stem}.{node.name}")
                if (isinstance(sub, ast.Call)
                        and ast.unparse(sub.func) == "DegreeVector.of"):
                    builds.add(f"{path.stem}.{node.name}")
    assert arity == builds == {"moduli.checked_degrees"}, (arity, builds)
    imported = {(node.module, alias.name)
                for node in ast.walk(ast.parse((SRC / "oracle.py").read_text()))
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert ("moduli", "checked_degrees") in imported
