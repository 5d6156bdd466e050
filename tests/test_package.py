"""The package's start-up: which layers each entry runs, and the public
names it exports.  Each load is read in a fresh interpreter."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import toricurves

SRC = pathlib.Path(toricurves.__file__).resolve().parent.parent
LAYERS = {"errors", "grothendieck", "toric", "mobius", "eulerprod", "moduli",
          "oracle"}

# the package's public names, pinned by the layer that defines them:
# each stays importable from the package
PUBLIC = {
    "errors": {"BudgetError", "FanValidationError", "InternalCheckError",
               "LimitError"},
    "grothendieck": {"MINUS_INFINITY", "DimSeries", "LaurentClass",
                     "MultiSeries", "SeriesCap", "evaluate",
                     "inverse_one_minus_Linv_pow"},
    "toric": {"FIXTURE_NAMES", "Fan", "FanReport", "PatternSet",
              "class_of_variety", "eff_dual_contains", "enumerate_cones",
              "fixture_fan", "parse_fan", "pattern_set", "picard_rank",
              "validate"},
    "mobius": {"IntPoly", "fan_mobius_polynomial", "local_identity_check",
               "mobius_table"},
    "eulerprod": {"euler_product_at_Linv", "euler_product_p1",
                  "global_mobius", "int_mobius"},
    "moduli": {"DegreeVector", "ErrorReport", "JetCondition",
               "constrained_main_term", "convergence_report", "hom_class",
               "normalized_hom_class", "pattern_config_class", "tamagawa"},
    "oracle": {"JetSpec", "OracleReport", "ff_constrained_count",
               "ff_hom_count", "ff_pattern_count", "oracle_compare",
               "reduce_point"},
}


def layers(code: str) -> tuple[set[str], set[str]]:
    """The layers of the package in sys.modules after a fresh
    interpreter runs code, and those of them that have run: a layer the
    CLI has entered but not yet looked into is still lazy, not a plain
    module."""
    probe = (f"{code}\nimport json, sys, types\n"
             "print(json.dumps({n: type(m) is types.ModuleType "
             "for n, m in sys.modules.items() "
             "if n.startswith('toricurves.')}))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    entered = {name.split(".", 1)[1] for name in modules}
    run = {name.split(".", 1)[1] for name, ran in modules.items() if ran}
    return entered, run


CLI = "from toricurves.cli import main\nmain({argv!r})"


@pytest.mark.parametrize("code, want", [
    ("import toricurves", set()),
    ("import toricurves.cli", {"cli", "errors", "grothendieck", "toric"}),
    (CLI.format(argv=["analyze", "p2"]),
     {"cli", "errors", "grothendieck", "toric", "mobius"}),
    (CLI.format(argv=["mobius", "p1", "--cap", "2"]),
     {"cli", "errors", "grothendieck", "toric", "mobius", "eulerprod"}),
    (CLI.format(argv=["tamagawa", "p2", "--order", "4"]),
     {"cli", *LAYERS - {"oracle"}}),
    (CLI.format(argv=["oracle", "p1", "--p", "2", "--degree", "1,1"]),
     {"cli", *LAYERS}),
    # the first public name loads the whole API, so a caller that takes
    # fixture_fan before timing anything pays for no import inside it
    ("from toricurves import fixture_fan", LAYERS),
    ("import toricurves\ntoricurves.Fan", LAYERS),
    # a submodule's name is no public name: it falls through to the
    # import system, which loads that layer and what it imports
    ("from toricurves import mobius", {"errors", "grothendieck", "toric",
                                       "mobius"}),
], ids=["package", "cli", "analyze", "mobius", "tamagawa", "oracle",
        "from-import", "attribute", "submodule"])
def test_each_entry_runs_only_its_layers(code, want):
    assert layers(code)[1] == want


def test_the_cli_enters_every_layer_and_runs_it_at_its_first_lookup():
    # a tool that wraps the layers' functions after `import toricurves.cli`
    # finds every layer in sys.modules; its lookup runs the layer, and
    # the layers that one imports
    entered, run = layers("import toricurves.cli")
    assert entered == {"cli", *LAYERS}
    assert run == {"cli", "errors", "grothendieck", "toric"}
    code = ("import sys, toricurves.cli\n"
            "sys.modules['toricurves.eulerprod'].global_mobius")
    assert layers(code) == ({"cli", *LAYERS},
                            {"cli", "errors", "grothendieck", "toric",
                             "mobius", "eulerprod"})


def test_public_names_resolve_to_their_layers():
    exported = {name for names in PUBLIC.values() for name in names}
    assert len(exported) == 47
    for layer, names in PUBLIC.items():
        module = importlib.import_module(f"toricurves.{layer}")
        for name in names:
            assert getattr(toricurves, name) is getattr(module, name), name
    assert exported <= set(dir(toricurves))
    star: dict = {}
    exec("from toricurves import *", star)
    assert exported <= set(star)
    assert star["fixture_fan"] is toricurves.fixture_fan


def test_a_name_outside_the_table_is_no_attribute():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        toricurves.nonesuch
