"""Exact motivic classes of rational-curve moduli on smooth complete split
toric varieties, cross-checked against finite-field point counts."""

from importlib import resources

from .errors import (
    BudgetError,
    FanValidationError,
    InternalCheckError,
    LimitError,
)
from .grothendieck import (
    MINUS_INFINITY,
    DimSeries,
    LaurentClass,
    MultiSeries,
    SeriesCap,
    evaluate,
    inverse_one_minus_Linv_pow,
)
from .toric import (
    Fan,
    FanReport,
    PatternSet,
    class_of_variety,
    eff_dual_contains,
    enumerate_cones,
    parse_fan,
    pattern_set,
    picard_rank,
    validate,
)
from .mobius import (
    IntPoly,
    fan_mobius_polynomial,
    local_identity_check,
    mobius_table,
)
from .eulerprod import (
    euler_product_at_Linv,
    euler_product_p1,
    global_mobius,
    int_mobius,
)
from .moduli import (
    DegreeVector,
    ErrorReport,
    JetCondition,
    constrained_main_term,
    convergence_report,
    hom_class,
    normalized_hom_class,
    pattern_config_class,
    tamagawa,
)
from .oracle import (
    JetSpec,
    OracleReport,
    ff_constrained_count,
    ff_hom_count,
    ff_pattern_count,
    oracle_compare,
    reduce_point,
)

__version__ = "0.1.0"

FIXTURE_NAMES = ("p1", "p2", "p3", "p1xp1", "bl1p2", "dp6")


def fixture_fan(name: str) -> Fan:
    """Load one of the bundled fans by short name (see FIXTURE_NAMES)."""
    import json

    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture fan {name!r}; have {FIXTURE_NAMES}")
    doc = json.loads(resources.files(__name__).joinpath(f"fans/{name}.json").read_text())
    return parse_fan(doc)
