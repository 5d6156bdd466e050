"""Local Moebius inversion for pattern sets of fans.

The indicator of "support contains no primitive collection" on 0/1-vectors
is inverted over the coordinatewise order.  By inclusion-exclusion this is
the product of (1 - x^J) over the primitive collections J in the ring where
x^a * x^b = x^(a | b), the local factor P(t) of the Euler-product engine
and the configuration classes, cached per pattern set in mobius_table.
"""

from __future__ import annotations

import functools

from .errors import LimitError, _integer
from .grothendieck import ONE, ZERO, LaurentClass, _signed_sum
from .toric import (
    MAX_RAYS,
    Fan,
    PatternSet,
    class_of_variety,
    pattern_set,
    picard_rank,
)


class IntPoly:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("nvars", "_c")

    def __init__(self, nvars: int, coeffs=()):
        self.nvars = nvars
        c = {}
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for e, v in items:
            v = v if type(v) is int else _integer(v, "coefficient")
            if not v:
                continue
            e = tuple(x if type(x) is int else _integer(x, "exponent") for x in e)
            if len(e) != nvars:
                raise ValueError("exponent arity mismatch")
            c[e] = c.get(e, 0) + v
            if not c[e]:
                del c[e]
        self._c = c

    @property
    def coeffs(self):
        return dict(self._c)

    def items(self):
        return self._c.items()

    def constant_term(self) -> int:
        return self._c.get((0,) * self.nvars, 0)

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._c == other._c

    def __hash__(self):
        return hash((self.nvars, frozenset(self._c.items())))

    def evaluate_diagonal(self, x: LaurentClass) -> LaurentClass:
        """Substitute every variable by the same Laurent class x."""
        total = ZERO
        powers = {0: ONE}
        for e, v in self._c.items():
            k = sum(e)
            if k not in powers:
                powers[k] = x ** k
            total = total + powers[k] * v
        return total

    def _by_degree(self):
        return sorted(self._c.items(), key=lambda t: (sum(t[0]), t[0]))

    def __str__(self):
        return _signed_sum(
            ("*".join(f"t{i + 1}" if x == 1 else f"t{i + 1}^{x}"
                      for i, x in enumerate(e) if x), v)
            for e, v in self._by_degree())

    def __repr__(self):
        return f"IntPoly({self.nvars}, {len(self._c)} terms)"


@functools.lru_cache(maxsize=8)
def mobius_table(patterns: PatternSet) -> IntPoly:
    """Invert the not-above-the-pattern-set indicator on 0/1-vectors,
    cached for the last few pattern sets: the package's one cache of P.

    mu is the product of (1 - x^J) over the primitive collections J, with
    x^a * x^b = x^(a | b): each factor subtracts the current table shifted
    by OR with J's mask.  The work is the number of collections times the
    size of the support of mu.  The result is mu's generating polynomial,
    whose t^n coefficient is mu(n) for each 0/1-vector n.
    """
    nu = patterns.nvars
    if nu > MAX_RAYS:
        raise LimitError(
            f"{nu} variables exceed the internal limit of {MAX_RAYS} "
            "variables of the Mobius table"
        )
    mu = {0: 1}
    for J in patterns.minimal:
        j = sum(1 << i for i in J)
        for m, v in list(mu.items()):
            mu[m | j] = mu.get(m | j, 0) - v
        mu = {m: v for m, v in mu.items() if v}
    return IntPoly(nu, {tuple((m >> i) & 1 for i in range(nu)): v
                        for m, v in mu.items()})


def fan_mobius_polynomial(fan: Fan) -> IntPoly:
    """The fan's local factor P, from mobius_table's cache."""
    return mobius_table(pattern_set(fan))


def local_identity_sides(fan: Fan) -> tuple[LaurentClass, LaurentClass]:
    """Both sides of the one-point factor identity:
    P(L^-1, ..., L^-1)  vs  [V] * L^-n * (1 - L^-1)^rank."""
    poly = fan_mobius_polynomial(fan)
    lhs = poly.evaluate_diagonal(LaurentClass({-1: 1}))
    cls = class_of_variety(fan)
    r = picard_rank(fan)
    one_minus = LaurentClass({0: 1, -1: -1})
    rhs = cls.shift(-fan.dim) * one_minus ** r
    return lhs, rhs


def local_identity_check(fan: Fan) -> bool:
    lhs, rhs = local_identity_sides(fan)
    return lhs == rhs
