"""Classes of spaces of rational curves and their limiting constants.

Everything here combines the Euler-product engine with the toric data:
classes of tuples of divisors avoiding the forbidden patterns, classes
of degree-d maps from the projective line to the variety, the limiting
(Tamagawa) constant, truncation-aware convergence reports, and the
constrained variants where jets at marked rational points are fixed.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Sequence

from .grothendieck import (
    MINUS_INFINITY,
    ONE,
    ZERO,
    DimSeries,
    LaurentClass,
    SeriesCap,
    inverse_one_minus_Linv_pow,
    pack_class,
    unpack_class,
)
from .toric import (
    Fan,
    class_of_variety,
    eff_dual_contains,
    picard_rank,
    require_valid,
)
from .errors import InternalCheckError
from .eulerprod import (
    EulerFactors,
    GlobalMobius,
    euler_factors,
    euler_product_at_Linv,
    zeta_p1_coeffs,
)
from .mobius import fan_mobius_polynomial

log = logging.getLogger(__name__)

__all__ = [
    "DegreeVector",
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
        if not all(isinstance(x, int) and x >= 0 for x in self.entries):
            raise ValueError("degree entries must be nonnegative integers")

    @classmethod
    def of(cls, d: "DegreeVector | Sequence[int]") -> "DegreeVector":
        if isinstance(d, DegreeVector):
            return d
        return cls(tuple(int(x) for x in d))

    @property
    def total(self) -> int:
        """The anticanonical degree: the sum of all entries."""
        return sum(self.entries)

    @property
    def minimum(self) -> int:
        return min(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def _canonical_point(pt: Sequence[int]) -> tuple[int, int]:
    """Normalize homogeneous coordinates (x0, x1) of a point of P^1.

    The affine coordinate is x1/x0, so (1, a) is the affine point a and
    (0, 1) is the point at infinity.  Canonical form: coprime entries
    with the first nonzero one positive.
    """
    a, b = (int(x) for x in pt)
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
            if order < 0:
                raise ValueError("jet orders must be nonnegative")
            canon.append((_canonical_point(pt), int(order)))
        for i in range(len(canon)):
            for j in range(i + 1, len(canon)):
                if canon[i][0] == canon[j][0]:
                    raise ValueError(
                        f"jet points must be distinct; {canon[i][0]} repeats"
                    )
        object.__setattr__(self, "points", tuple(canon))
        if not isinstance(self.W_class, LaurentClass):
            raise ValueError("W_class must be a LaurentClass")

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
            total_jet += order
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


def _walk(box: list[int], side: int, s: int, w: int) -> None:
    """Multiply a dense box of values at L = 2^w, side cells to an axis,
    by the zeta factor (1 - t)^(s-1) / (1 - L t) of every axis, in
    place: each factor is a recurrence along the axis, so one pass over
    the box per factor and axis."""
    cells = len(box)
    step = 1
    while step < cells:
        block = step * side
        starts = [j for b in range(0, cells, block)
                  for j in range(b + step, b + block, step)]
        for _ in range(s - 1):
            # times 1 - t: descending, so every box[j - step] is still old
            for j in reversed(starts):
                box[j:j + step] = map(sub, box[j:j + step], box[j - step:j])
        if s == 0:
            # over 1 - t: ascending, so every box[j - step] is final
            for j in starts:
                box[j:j + step] = map(add, box[j:j + step], box[j - step:j])
        for j in starts:
            box[j:j + step] = [a + (b << w) for a, b in
                               zip(box[j:j + step], box[j - step:j])]
        step = block


class _ProductTerms:
    """The checked global Mobius table and the zeta coefficients at
    L = 2^w: a class costs one multiply per ray and table term."""

    def __init__(self, fan: Fan, s: int, factors: EulerFactors):
        self.width = w = factors.width
        table = GlobalMobius.from_factors(fan, s, factors)
        top = max(factors.cap.box, default=0)
        self.zeta = tuple(pack_class(z, w) for z in zeta_p1_coeffs(s, top))
        self.mobius = tuple((e, pack_class(mu, w)) for e, mu in table.items())

    def at(self, e: tuple[int, ...]) -> int:
        acc = 0
        zeta = self.zeta
        for prior, term in self.mobius:
            for a, b in zip(prior, e):
                if a > b:
                    break
                term *= zeta[b - a]
            else:
                acc += term
        return acc


class _WalkTerms:
    """R as a list and U * Z as a dense box, at L = 2^w: a class costs
    one lookup per term of R."""

    def __init__(self, s: int, factors: EulerFactors):
        self.width = factors.width
        box = factors.cap.box
        side = max(box, default=0) + 1
        self.strides = strides = [side**i for i in range(len(box))]

        def position(key: int) -> tuple[tuple[int, ...], int]:
            e = factors.keys.unpack(key)
            return e, sum(x * st for x, st in zip(e, strides))

        self.dense = dense = [0] * side ** len(box)
        for key, value in factors.first.items():
            dense[position(key)[1]] = value
        _walk(dense, side, s, self.width)
        self.rest = [(*position(key), value)
                     for key, value in factors.rest.items()]

    def at(self, e: tuple[int, ...]) -> int:
        pos = sum(x * st for x, st in zip(e, self.strides))
        dense = self.dense
        acc = 0
        for prior, offset, value in self.rest:
            for a, b in zip(prior, e):
                if a > b:
                    break
            else:
                acc += value * dense[pos - offset]
        return acc


@functools.lru_cache(maxsize=None)
def _config_terms(fan: Fan, s: int, cap: SeriesCap) -> _ProductTerms | _WalkTerms:
    """What the configuration classes in a uniform box are read from.

    A class is the t^e coefficient of R * U * Z: U is the d = 1 factor
    of the Euler product of the fan's pattern polynomial, R the product
    of its other factors and Z = prod_alpha (1 - t_alpha)^(s-1) /
    (1 - L t_alpha) the zeta factors.  Two routes give it, and the
    sizes choose the one charged less: forming the Mobius table R * U
    is charged |R| |U| products, and walking U into U * Z is charged
    n (b + 1) / 2 per cell of the box of side b, a step per axis on
    values that gain a digit of L with each step along it.  On the
    bundled fans only dp6 at side 2 and above takes the walk.

    Width.  With mu = R * U, the class at e is the sum over k <= e of
    mu(k) times prod_alpha zeta_(e_alpha - k_alpha).  The absolute
    coefficient sum of zeta_j is j + 1 <= b + 1 for s = 0 and at most
    sum_i binom(s - 1, i) = 2^(s-1) for s >= 1, so each product of n of
    them has absolute coefficient sum at most reach = prod_alpha
    (b_alpha + 1), or 2^((s-1) n).  The majorant's u^m coefficient bounds
    the absolute coefficient sums of the mu(k) with |k| = m together, so
    every coefficient of the class is at most B = reach * sum(majorant).
    euler_factors leaves two bits above B, so the class is read back
    exactly from its value at L = 2^w, and a digit of 2^(w-2) or more
    contradicts the bound.
    """
    box = cap.box
    n, top = len(box), max(box, default=0)
    reach = math.prod(b + 1 for b in box) if s == 0 else 2 ** ((s - 1) * n)
    factors = euler_factors(fan_mobius_polynomial(fan), s, cap, reach)
    # both charges doubled, to stay in integers
    if 2 * len(factors.rest) * len(factors.first) <= (top + 1) ** (n + 1) * n:
        return _ProductTerms(fan, s, factors)
    return _WalkTerms(s, factors)


def pattern_config_class(
    fan: Fan, e: "DegreeVector | Sequence[int]", s: int = 0
) -> LaurentClass:
    """Class of ray-indexed divisor tuples of multidegree e avoiding B.

    Tuples of effective divisors on P^1 minus s rational points, one per
    ray, such that no point lies on a forbidden set of them.  Computed
    as the t^e coefficient of the Euler product times one punctured-line
    zeta factor per variable, read back from its value at L = 2^w; a
    digit beyond the bound that fixes w raises InternalCheckError.
    """
    e = DegreeVector.of(e).entries
    require_valid(fan)
    if len(e) != fan.nrays:
        raise ValueError(
            f"degree arity {len(e)} does not match ray count {fan.nrays}"
        )
    if s < 0:
        raise ValueError("removed point count must be nonnegative")
    # A uniform box keyed by max(e) keeps the terms hot across the
    # degrees of one sweep instead of rerunning the engine per exponent
    # vector.
    top = max(e) if e else 0
    terms = _config_terms(fan, s, SeriesCap.box_cap((top,) * len(e)))
    cls = unpack_class(terms.at(e), terms.width)
    if any(abs(c) >= 1 << (terms.width - 2) for _, c in cls.terms()):
        raise InternalCheckError(
            f"configuration class at {e} exceeds its bound: {cls}"
        )
    return cls


@functools.lru_cache(maxsize=None)
def _hom_class_cached(fan: Fan, d: tuple[int, ...]) -> LaurentClass:
    if not eff_dual_contains(fan, d):
        log.warning(
            "degree %s is outside the dual effective cone; "
            "the space of maps is empty",
            d,
        )
        return ZERO
    n = fan.dim
    lm1 = LaurentClass({1: 1, 0: -1})
    return lm1**n * pattern_config_class(fan, d, 0)


def hom_class(fan: Fan, d: "DegreeVector | Sequence[int]") -> LaurentClass:
    """Class of degree-d maps from P^1 meeting the dense torus.

    Zero (with a logged diagnostic) when d lies outside the dual of the
    effective cone, where no such map exists.
    """
    require_valid(fan)
    return _hom_class_cached(fan, DegreeVector.of(d).entries)


def normalized_hom_class(
    fan: Fan, d: "DegreeVector | Sequence[int]"
) -> LaurentClass:
    """hom_class divided by L to the anticanonical degree."""
    dv = DegreeVector.of(d)
    return hom_class(fan, dv).shift(-dv.total)


@functools.lru_cache(maxsize=None)
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
    bound the comparison is inconclusive and reported as such.
    """
    dv = DegreeVector.of(d)
    require_valid(fan)
    if not eff_dual_contains(fan, dv.entries):
        raise ValueError(
            f"degree {dv.entries} is outside the dual effective cone"
        )
    tau = tamagawa(fan, E)
    normalized = normalized_hom_class(fan, dv)
    bound = Fraction(-dv.minimum, 4) + fan.dim
    delta = (tau.known - normalized).truncate_below(tau.floor)
    delta_dim = delta.virtual_dimension
    if tau.floor > bound:
        return ErrorReport(
            dv.entries, tau, normalized, delta_dim, bound, False, True
        )
    passed = delta_dim is MINUS_INFINITY or delta_dim <= bound
    return ErrorReport(
        dv.entries, tau, normalized, delta_dim, bound, passed, False
    )


def constrained_main_term(fan: Fan, jc: JetCondition, E: int) -> DimSeries:
    """Truncated limiting constant with jets fixed at marked points.

    Multiplies the punctured Euler product by the class of the allowed
    jet locus and one correction factor per marked point; with no points
    this is exactly the unconstrained constant.
    """
    require_valid(fan)
    jc.validate_against(fan)
    n = fan.dim
    rank = picard_rank(fan)
    ep = euler_product_at_Linv(fan, jc.npoints, E)
    inv = inverse_one_minus_Linv_pow(rank, ep.floor)
    base = (inv * ep).shift(n)
    one_minus = (ONE - LaurentClass({-1: 1})) ** rank
    factor = jc.W_class
    for _, order in jc.points:
        factor = (factor * one_minus).shift(-(order + 1) * n)
    return base * DimSeries.exact(factor)
