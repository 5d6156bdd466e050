"""Classes of spaces of rational curves and their limiting constants.

Everything here combines the classes the Euler-product engine reads
back with the toric data: classes of tuples of divisors avoiding the
forbidden patterns, classes of degree-d maps from the projective line
to the variety, the limiting (Tamagawa) constant, truncation-aware
convergence reports, and the constrained variants where jets at marked
rational points are fixed.

Each public function checks its input once, the fan and the degree
vector together with ``checked_degrees`` (as the oracle does too), tests
a map degree against the dual effective cone once, and reads the
engine's cached class (eulerprod.config_class) itself, not through
another public function.  What a map class, a convergence report or an
oracle comparison adds to the configuration class is kept beside it, as
one record per orbit key (``_record``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import _integer
from .grothendieck import (
    MINUS_INFINITY,
    L,
    ONE,
    ZERO,
    DimSeries,
    LaurentClass,
    inverse_one_minus_Linv_pow,
)
from .toric import (
    Fan,
    _orbit_keys,
    class_of_variety,
    eff_dual_contains,
    pattern_set,
    picard_rank,
    require_valid,
)
from .eulerprod import _shared_classes, config_class, euler_product_at_Linv

__all__ = [
    "DegreeVector",
    "checked_degrees",
    "JetCondition",
    "ErrorReport",
    "pattern_config_class",
    "hom_class",
    "normalized_hom_class",
    "tamagawa",
    "convergence_report",
    "constrained_main_term",
]


@dataclass(frozen=True)
class DegreeVector:
    """Multidegree indexed by the rays of a fan."""

    entries: tuple[int, ...]

    def __post_init__(self):
        for x in self.entries:
            # a plain int needs no call to be known an integer
            if type(x) is not int:
                _integer(x, "degree entry")
            if x < 0:
                raise ValueError(f"degree entry {x} is negative")

    @classmethod
    def of(cls, d: "DegreeVector | Sequence[int]") -> "DegreeVector":
        if isinstance(d, DegreeVector):
            return d
        return cls(tuple(d))

    @property
    def total(self) -> int:
        """The anticanonical degree: the sum of all entries."""
        return sum(self.entries)

    @property
    def minimum(self) -> int:
        return min(self.entries)


def checked_degrees(fan: Fan,
                    d: "DegreeVector | Sequence[int]") -> DegreeVector:
    """The degree vector of d, once the fan is smooth and complete, the
    entries nonnegative integers, and one per ray, checked in that order."""
    require_valid(fan)
    dv = DegreeVector.of(d)
    if len(dv.entries) != fan.nrays:
        raise ValueError(f"degree arity {len(dv.entries)} does not match "
                         f"ray count {fan.nrays}")
    return dv


def _canonical_point(pt: Sequence[int]) -> tuple[int, int]:
    """Normalize homogeneous coordinates (x0, x1) of a point of P^1.

    The affine coordinate is x1/x0, so (1, a) is the affine point a and
    (0, 1) is the point at infinity.  Canonical form: coprime entries
    with the first nonzero one positive.
    """
    a, b = (_integer(x, "point coordinate") for x in pt)
    if a == 0 and b == 0:
        raise ValueError("(0, 0) is not a point of the projective line")
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return a, b


@dataclass(frozen=True)
class JetCondition:
    """Jets fixed at finitely many distinct rational points of P^1.

    ``points`` pairs a point in primitive homogeneous coordinates with a
    jet order m >= 0 (order m means the map is constrained to m-th order,
    a length m+1 condition).  ``W_class`` is the class of the allowed
    locus inside the product of jet spaces and ``W_dim`` its dimension;
    the full jet space at each point imposes no condition at all.
    """

    points: tuple[tuple[tuple[int, int], int], ...]
    W_class: LaurentClass
    W_dim: int

    def __post_init__(self):
        canon = []
        for pt, order in self.points:
            if _integer(order, "jet order") < 0:
                raise ValueError("jet orders must be nonnegative")
            canon.append((_canonical_point(pt), order))
        for i in range(len(canon)):
            for j in range(i + 1, len(canon)):
                if canon[i][0] == canon[j][0]:
                    raise ValueError(
                        f"jet points must be distinct; {canon[i][0]} repeats"
                    )
        object.__setattr__(self, "points", tuple(canon))
        if not isinstance(self.W_class, LaurentClass):
            raise ValueError("W_class must be a LaurentClass")
        if _integer(self.W_dim, "W_dim") < 0:
            raise ValueError("W_dim must be nonnegative")

    @classmethod
    def empty(cls) -> "JetCondition":
        return cls((), ONE, 0)

    @classmethod
    def full_jets(
        cls, fan: Fan, specs: Sequence[tuple[Sequence[int], int]]
    ) -> "JetCondition":
        """No condition: the whole jet space at each marked point."""
        n = fan.dim
        cls_v = class_of_variety(fan)
        w = ONE
        total_jet = 0
        for _, order in specs:
            w = w * cls_v
            total_jet += _integer(order, "jet order")
        w = w.shift(total_jet * n)
        dim = sum((order + 1) * n for _, order in specs)
        return cls(tuple((tuple(pt), order) for pt, order in specs), w, dim)

    @classmethod
    def torus_point(
        cls, point: Sequence[int], order: int = 0
    ) -> "JetCondition":
        """A single prescribed jet (class 1, dimension 0) at one point."""
        return cls(((tuple(point), order),), ONE, 0)

    @property
    def npoints(self) -> int:
        return len(self.points)

    @property
    def length(self) -> int:
        """Total length of the condition scheme: sum of (m_p + 1)."""
        return sum(order + 1 for _, order in self.points)

    def validate_against(self, fan: Fan) -> None:
        bound = self.length * fan.dim
        if self.W_dim > bound:
            raise ValueError(
                f"W_dim {self.W_dim} exceeds the jet-space dimension {bound}"
            )

    def to_json(self) -> dict:
        return {
            "points": [
                {"point": list(pt), "order": order} for pt, order in self.points
            ],
            "W_class": self.W_class.to_json(),
            "W_dim": self.W_dim,
        }


@dataclass(frozen=True)
class ErrorReport:
    """Distance between a normalized class and the truncated constant.

    ``delta_dim`` is the virtual dimension of the known part of the
    difference, ``bound`` the convergence bound for this degree.  When
    the truncation floor sits above the bound nothing can be concluded
    and ``inconclusive`` is set instead of a verdict.
    """

    degree: tuple[int, ...]
    tau_trunc: DimSeries
    normalized: LaurentClass
    delta_dim: object
    bound: Fraction
    passed: bool
    inconclusive: bool

    @property
    def status(self) -> str:
        if self.inconclusive:
            return "inconclusive"
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        delta = self.delta_dim
        return {
            "degree": list(self.degree),
            "tau_truncated": self.tau_trunc.to_json(),
            "normalized": self.normalized.to_json(),
            "delta_dim": None if delta is MINUS_INFINITY else int(delta),
            "bound": str(self.bound),
            "status": self.status,
            "passed": self.passed,
        }


def pattern_config_class(
    fan: Fan, e: "DegreeVector | Sequence[int]", s: int = 0
) -> LaurentClass:
    """Class of ray-indexed divisor tuples of multidegree e avoiding B.

    Tuples of effective divisors on P^1 minus s rational points, one per
    ray, such that no point lies on a forbidden set of them: the t^e
    coefficient of the Euler product times one punctured-line zeta
    factor per variable (eulerprod.config_class).
    """
    e = checked_degrees(fan, e).entries
    # a plain int needs no call to be known an integer
    if type(s) is not int:
        _integer(s, "removed point count")
    if s < 0:
        raise ValueError("removed point count must be nonnegative")
    return config_class(pattern_set(fan), e, s)


@functools.lru_cache(maxsize=None)
def _torus(n: int) -> LaurentClass:
    """The class of the torus of dimension n, (L - 1)^n."""
    return (L - 1) ** n


def _record(fan: Fan, tag, d: tuple[int, ...], build):
    """The record of a checked degree vector d under tag: build() on the
    first vector of d's orbit, kept in the engine's cache of the fan's
    pattern set (eulerprod._shared_classes) under (tag, orbit key), and
    read back for every other vector of the orbit, of this fan or of
    another fan with the same pattern set.  So a record holds only what
    the orbit and the pattern set fix: relabelling the rays by a pattern
    automorphism keeps every class and count, and |d| and min(d); the
    pattern set fixes the complex of a smooth complete fan, and with it
    the dimension and the Picard rank.  The checks of a public entry,
    and the cone test of a map degree, come before the record is read."""
    patterns = pattern_set(fan)
    records = _shared_classes(patterns)[0]
    key = tag, _orbit_keys(patterns)[d]
    rec = records.get(key)
    if rec is None:
        rec = records[key] = build()
    return rec


def _hom_class(fan: Fan, d: tuple[int, ...]) -> LaurentClass:
    """hom_class of a checked degree vector in the dual effective cone:
    the torus class, built once per dimension (``_torus``), times the
    configuration class, built once per orbit key (``_record``, tag
    "hom").  The orbits need not keep the cone, so each public entry
    tests the cone of its degree once, itself."""
    return _record(fan, "hom", d, lambda: _torus(fan.dim) * config_class(
        pattern_set(fan), d, 0))


def _maps_exist(fan: Fan, d: tuple[int, ...]) -> bool:
    """Does the checked degree vector lie in the dual effective cone?
    Outside it the space of maps is empty, which is logged."""
    if eff_dual_contains(fan, d):
        return True
    # imported on this path only, to keep it out of every start-up
    import logging

    logging.getLogger(__name__).warning(
        "degree %s is outside the dual effective cone; "
        "the space of maps is empty", d)
    return False


def hom_class(fan: Fan, d: "DegreeVector | Sequence[int]") -> LaurentClass:
    """Class of degree-d maps from P^1 meeting the dense torus.

    Zero (with a logged diagnostic) when d lies outside the dual of the
    effective cone, where no such map exists.
    """
    d = checked_degrees(fan, d).entries
    return _hom_class(fan, d) if _maps_exist(fan, d) else ZERO


def normalized_hom_class(
    fan: Fan, d: "DegreeVector | Sequence[int]"
) -> LaurentClass:
    """hom_class divided by L to the anticanonical degree."""
    dv = checked_degrees(fan, d)
    if not _maps_exist(fan, dv.entries):
        return ZERO
    return _hom_class(fan, dv.entries).shift(-dv.total)


# typed, so that True or 1.0 misses the entry of 1 and is refused
@functools.lru_cache(maxsize=None, typed=True)
def tamagawa(fan: Fan, E: int) -> DimSeries:
    """Truncated limiting constant of the fan's variety.

    L^n (1 - L^{-1})^{-rank Pic} times the Euler product evaluated at
    L^{-1} and truncated at total degree E, as a dimension-floored
    series: constrained_main_term with no marked points.  Cached per
    (fan, E); callers share the returned series.
    """
    return constrained_main_term(fan, JetCondition.empty(), E)


def convergence_report(
    fan: Fan, d: "DegreeVector | Sequence[int]", E: int
) -> ErrorReport:
    """Compare a normalized class against the truncated constant.

    The difference is judged on the degrees above the truncation floor
    against the bound -min(d)/4 + n; if the floor itself sits above the
    bound the comparison is inconclusive and reported as such.  The
    degree is checked and tested against the cone, and E refused or the
    constant read from tamagawa's cache, on every call; the rest of the
    report is built once per E and orbit key (``_record``), since the
    orbit keeps the class, |d| and min(d), and the pattern set the
    dimension.
    """
    dv = checked_degrees(fan, d)
    if not eff_dual_contains(fan, dv.entries):
        raise ValueError(
            f"degree {dv.entries} is outside the dual effective cone")
    tau = tamagawa(fan, E)
    return ErrorReport(dv.entries, tau, *_record(
        fan, ("report", E), dv.entries, lambda: _verdict(fan, dv, tau)))


def _verdict(fan: Fan, dv: DegreeVector, tau: DimSeries) -> tuple:
    """The fields of a convergence report after its degree and constant:
    the normalized class, delta_dim, the bound, passed and inconclusive."""
    normalized = _hom_class(fan, dv.entries).shift(-dv.total)
    bound = Fraction(4 * fan.dim - dv.minimum, 4)
    delta = (tau.known - normalized).truncate_below(tau.floor)
    delta_dim = delta.virtual_dimension
    inconclusive = tau.floor > bound
    passed = not inconclusive and (
        delta_dim is MINUS_INFINITY or delta_dim <= bound)
    return normalized, delta_dim, bound, passed, inconclusive


def constrained_main_term(fan: Fan, jc: JetCondition, E: int) -> DimSeries:
    """Truncated limiting constant with jets fixed at marked points.

    Multiplies the punctured Euler product by the class of the allowed
    jet locus and one correction factor per marked point; with no points
    this is exactly the unconstrained constant.
    """
    rank = picard_rank(fan)  # the one check of the fan
    jc.validate_against(fan)
    n = fan.dim
    ep = euler_product_at_Linv(fan, jc.npoints, E)
    inv = inverse_one_minus_Linv_pow(rank, ep.floor)
    base = (inv * ep).shift(n)
    one_minus = (ONE - LaurentClass({-1: 1})) ** rank
    factor = jc.W_class
    for _, order in jc.points:
        factor = (factor * one_minus).shift(-(order + 1) * n)
    return base * DimSeries.exact(factor)
