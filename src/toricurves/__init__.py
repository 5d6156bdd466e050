"""Exact motivic classes of rational-curve moduli on smooth complete split
toric varieties, cross-checked against finite-field point counts.

Importing the package loads none of its layers.  The first public name
asked of it (``toricurves.Fan``, ``from toricurves import fixture_fan``)
imports every layer and binds every name of _EXPORTS at once, so each
later lookup is an ordinary global.  The CLI runs only the layers its
command calls: it enters the others in sys.modules as lazy modules,
which run at their first attribute lookup."""

import importlib

__version__ = "0.1.0"

# the public names, by the layer that defines them, in import order
_EXPORTS = {
    "errors": ("BudgetError", "FanValidationError", "InternalCheckError",
               "LimitError"),
    "grothendieck": ("MINUS_INFINITY", "DimSeries", "LaurentClass",
                     "MultiSeries", "SeriesCap", "evaluate",
                     "inverse_one_minus_Linv_pow"),
    "toric": ("FIXTURE_NAMES", "Fan", "FanReport", "PatternSet",
              "class_of_variety", "eff_dual_contains", "enumerate_cones",
              "fixture_fan", "parse_fan", "pattern_set", "picard_rank",
              "validate"),
    "mobius": ("IntPoly", "fan_mobius_polynomial", "local_identity_check",
               "mobius_table"),
    "eulerprod": ("euler_product_at_Linv", "euler_product_p1",
                  "global_mobius", "int_mobius"),
    "moduli": ("DegreeVector", "ErrorReport", "JetCondition",
               "constrained_main_term", "convergence_report", "hom_class",
               "normalized_hom_class", "pattern_config_class", "tamagawa"),
    "oracle": ("JetSpec", "OracleReport", "ff_constrained_count",
               "ff_hom_count", "ff_pattern_count", "oracle_compare",
               "reduce_point"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    # a submodule's name is no public name, so `from . import oracle`
    # falls through to the import system
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for layer, names in _EXPORTS.items():
        module = importlib.import_module(f"{__name__}.{layer}")
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
