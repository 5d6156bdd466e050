"""Motivic Euler products over the projective line.

This is the computational core of the package.  Given a local factor
``F`` with integer coefficients and constant term 1, it evaluates the
product of ``F(t^(deg p))`` over the closed points ``p`` of P^1 minus a
chosen number of rational points, truncated by a degree cap.  The
coefficients of the result are exact integer Laurent polynomials in L.

The computation works with a symbolic point count ``q``: the number of
closed points of degree d on the punctured line is an explicit rational
polynomial in q, the product is expanded with exact rational-in-q
coefficients, every surviving coefficient is checked to be integral, and
q is mapped to L at the very end.  Nothing is ever rounded; a
non-integral coefficient aborts the run.

Rather than exponentiating a logarithm term by term, the engine expands

    prod_d F(t^(.d)) ** a_d(q)  =  prod_d sum_k binom(a_d, k) (F - 1)^k (t^(.d))

which needs each integer power ``(F - 1)^k`` only once and keeps all
series arithmetic over plain integers, with a single running denominator
per factor.  The two forms agree as truncated series because both are
the exponential of ``sum_d a_d log F(t^(.d))``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import InternalCheckError
from .grothendieck import (
    ONE,
    ZERO,
    LaurentClass,
    DimSeries,
    MultiSeries,
    SeriesCap,
)
from .mobius import IntPoly, fan_mobius_polynomial
from .toric import Fan, require_valid

__all__ = [
    "int_mobius",
    "closed_point_weight",
    "euler_product_p1",
    "GlobalMobius",
    "global_mobius",
    "euler_product_at_Linv",
    "sym_p1_class",
    "zeta_p1_coeffs",
]


def _pack(vec: Sequence[int], shift: int) -> int:
    key = 0
    for i, x in enumerate(vec):
        key |= x << (shift * i)
    return key


def _unpack(key: int, nvars: int, shift: int) -> tuple[int, ...]:
    mask = (1 << shift) - 1
    return tuple((key >> (shift * i)) & mask for i in range(nvars))


def int_mobius(n: int) -> int:
    """The classical Mobius function on positive integers."""
    if n < 1:
        raise ValueError("int_mobius is defined on positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


def _weight_raw(d: int, s: int) -> tuple[int, tuple[int, ...]]:
    """Closed-point count of degree d as (denominator, coeffs in q)."""
    if d == 1:
        return 1, (1 - s, 1)
    num = [0] * (d + 1)
    for c in range(1, d + 1):
        if d % c == 0:
            num[d // c] += int_mobius(c)
    return d, tuple(num)


def closed_point_weight(d: int, s: int = 0) -> tuple[Fraction, ...]:
    """Number of degree-d closed points of P^1 minus s rational points.

    Returned as exact rational coefficients of a polynomial in q,
    ascending: a_1 = q + 1 - s and d * a_d = sum_{c | d} mobius(c) q^{d/c}
    for d >= 2 (the necklace identity; removing rational points only
    affects degree one).
    """
    if d < 1:
        raise ValueError("point degree must be positive")
    if s < 0:
        raise ValueError("removed point count must be nonnegative")
    den, num = _weight_raw(d, s)
    return tuple(Fraction(c, den) for c in num)


def _poly_add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return tuple(out)


def _poly_scale(a: Sequence[int], c: int) -> tuple[int, ...]:
    return tuple(x * c for x in a)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _reachable_keys(
    support: Sequence[tuple[int, ...]], cap: SeriesCap, shift: int
) -> frozenset[int]:
    """All in-cap sums of multiples of the support vectors, packed.

    The product series is supported on the additive span of the support
    of F - 1, so confining every intermediate series to the span (rather
    than the whole capped box) prunes aggressively for sparse inputs.
    """
    box, total = cap.box, cap.total
    frontier = [tuple(0 for _ in box)]
    reached = {0}
    while frontier:
        nxt = []
        for vec in frontier:
            vtot = sum(vec)
            for sup in support:
                w = tuple(a + b for a, b in zip(vec, sup))
                if vtot + sum(sup) > total:
                    continue
                if any(a > b for a, b in zip(w, box)):
                    continue
                key = _pack(w, shift)
                if key not in reached:
                    reached.add(key)
                    nxt.append(w)
        frontier = nxt
    return frozenset(reached)


def _mul_int_series(
    a: Mapping[int, int], b: Mapping[int, int], allowed: frozenset[int]
) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            if k in allowed:
                out[k] = get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _mul_poly_series(
    a: tuple[int, dict[int, tuple[int, ...]]],
    b: tuple[int, dict[int, tuple[int, ...]]],
    allowed: frozenset[int],
) -> tuple[int, dict[int, tuple[int, ...]]]:
    den_a, da = a
    den_b, db = b
    if len(da) > len(db):
        da, db = db, da
    out: dict[int, tuple[int, ...]] = {}
    for ka, pa in da.items():
        for kb, pb in db.items():
            k = ka + kb
            if k in allowed:
                prod = _poly_mul(pa, pb)
                acc = out.get(k)
                out[k] = prod if acc is None else _poly_add(acc, prod)
    return den_a * den_b, out


def _binomial_chain(
    den_a: int, num_a: tuple[int, ...], kmax: int
) -> tuple[int, list[tuple[int, ...]]]:
    """Numerators of binom(a, k) for 0 <= k <= kmax over one denominator.

    binom(a, k) = a (a-1) ... (a-k+1) / k! where a is the polynomial
    num_a / den_a.  Returns (D, nums) with D = den_a^kmax * kmax! and
    binom(a, k) = nums[k] * (den_a^(kmax-k) * kmax!/k!) / D; the per-k
    integer multiplier is applied by the caller.
    """
    nums: list[tuple[int, ...]] = [(1,)]
    cur: tuple[int, ...] = (1,)
    for k in range(1, kmax + 1):
        shifted = list(num_a)
        shifted[0] -= (k - 1) * den_a
        cur = _poly_mul(cur, tuple(shifted))
        nums.append(cur)
    den = den_a**kmax
    for k in range(2, kmax + 1):
        den *= k
    return den, nums


def _scaled_power_table(
    powers: list[dict[int, int]],
    d: int,
    nvars: int,
    box: tuple[int, ...],
    allowed: frozenset[int],
    shift: int,
) -> list[dict[int, int]]:
    """Substitute t -> t^(.d) in each stored power of F - 1."""
    scaled: list[dict[int, int]] = []
    for table in powers:
        cur: dict[int, int] = {}
        for key, coeff in table.items():
            vec = _unpack(key, nvars, shift)
            w = tuple(d * x for x in vec)
            if any(a > b for a, b in zip(w, box)):
                continue
            k = _pack(w, shift)
            if k in allowed:
                cur[k] = coeff
        if not cur:
            break
        scaled.append(cur)
    return scaled


def euler_product_p1(F: IntPoly, s: int, cap: SeriesCap) -> MultiSeries:
    """Expand prod over closed points of P^1 minus s points of F(t^(deg)).

    F must have constant term 1; the result is a capped multiseries with
    LaurentClass coefficients and constant term 1.  Raises
    InternalCheckError if a coefficient fails to be integral in q, which
    signals an engine bug rather than a recoverable input problem.
    """
    if s < 0:
        raise ValueError("removed point count must be nonnegative")
    box = cap.box
    nvars = len(box)
    support: list[tuple[int, ...]] = []
    coeffs_in: dict[tuple[int, ...], int] = {}
    for exp, coeff in F.items():
        if len(exp) != nvars:
            raise ValueError(
                f"local factor arity {len(exp)} does not match cap arity {nvars}"
            )
        if any(x < 0 for x in exp):
            raise ValueError("local factor exponents must be nonnegative")
        if not any(exp):
            continue
        if cap.admits(exp):
            support.append(exp)
            coeffs_in[exp] = coeff
    if F.constant_term() != 1:
        raise ValueError("local factor must have constant term 1")

    variables = tuple(f"t{i + 1}" for i in range(nvars))
    if not support:
        return MultiSeries(variables, cap, {(0,) * nvars: ONE})

    # Exponent vectors are packed into one int, `shift` bits per variable.
    # In-cap components are at most max(box), so two in-cap keys add
    # without a carry and exponent addition is integer addition.
    shift = max(1, (2 * max(box)).bit_length())
    allowed = _reachable_keys(support, cap, shift)
    valuation = min(sum(e) for e in support)

    base = {_pack(e, shift): c for e, c in coeffs_in.items()}
    powers: list[dict[int, int]] = [base]
    while True:
        nxt = _mul_int_series(powers[-1], base, allowed)
        if not nxt:
            break
        powers.append(nxt)

    factors: list[tuple[int, dict[int, tuple[int, ...]]]] = []
    for d in range(1, cap.total // valuation + 1):
        if d == 1:
            scaled = powers
        else:
            scaled = _scaled_power_table(powers, d, nvars, box, allowed, shift)
        if not scaled:
            continue
        den_a, num_a = _weight_raw(d, s)
        kmax = len(scaled)
        den, nums = _binomial_chain(den_a, num_a, kmax)
        fac: dict[int, tuple[int, ...]] = {0: (den,)}
        mult = den
        for k in range(1, kmax + 1):
            mult //= den_a * k
            num_k = nums[k]
            for key, coeff in scaled[k - 1].items():
                term = _poly_scale(num_k, mult * coeff)
                acc = fac.get(key)
                fac[key] = term if acc is None else _poly_add(acc, term)
        g = den
        for poly in fac.values():
            for c in poly:
                if c:
                    g = math.gcd(g, c)
                    if g == 1:
                        break
            if g == 1:
                break
        if g > 1:
            fac = {k: tuple(c // g for c in p) for k, p in fac.items()}
            den //= g
        factors.append((den, fac))

    factors.sort(key=lambda f: len(f[1]))
    den, series = 1, {0: (1,)}
    for fac in factors:
        den, series = _mul_poly_series((den, series), fac, allowed)

    out: dict[tuple[int, ...], LaurentClass] = {}
    for key, poly in series.items():
        terms: dict[int, int] = {}
        for power, c in enumerate(poly):
            if c == 0:
                continue
            if c % den != 0:
                raise InternalCheckError(
                    "Euler product coefficient at exponent "
                    f"{_unpack(key, nvars, shift)} is not integral in q: "
                    f"{c}/{den} at q^{power}"
                )
            terms[power] = c // den
        cls = LaurentClass(terms)
        if cls:
            out[_unpack(key, nvars, shift)] = cls
    if out.get((0,) * nvars) != ONE:
        raise InternalCheckError("Euler product lost its constant term 1")
    return MultiSeries(variables, cap, out)


class GlobalMobius:
    """Table of global Mobius coefficients for one fan, one puncture count.

    Wraps the Euler product of the fan's pattern polynomial; ``mu(e)``
    is the coefficient at the exponent vector e, zero for admissible
    exponents the product does not touch.
    """

    __slots__ = ("fan", "removed_points", "cap", "_values")

    def __init__(
        self,
        fan: Fan,
        removed_points: int,
        cap: SeriesCap,
        values: Mapping[tuple[int, ...], LaurentClass],
    ):
        self.fan = fan
        self.removed_points = removed_points
        self.cap = cap
        self._values = dict(values)

    def mu(self, e: Sequence[int]) -> LaurentClass:
        vec = tuple(e)
        if not self.cap.admits(vec):
            raise ValueError(f"exponent {vec} is outside the computed cap")
        return self._values.get(vec, ZERO)

    def items(self) -> Iterator[tuple[tuple[int, ...], LaurentClass]]:
        return iter(
            sorted(self._values.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        )

    def support(self) -> list[tuple[int, ...]]:
        return [e for e, _ in self.items()]

    def to_json(self) -> list[dict]:
        return [
            {"e": list(e), "mu": value.to_json()} for e, value in self.items()
        ]

    def __repr__(self) -> str:
        return (
            f"GlobalMobius(rays={self.fan.nrays}, "
            f"removed_points={self.removed_points}, "
            f"entries={len(self._values)})"
        )


def _checked_mobius(series: MultiSeries) -> dict[tuple[int, ...], LaurentClass]:
    """The coefficients of an Euler product of a Mobius polynomial, after
    checking mu(0) = 1 and dim(mu(e) L^-|e|) <= -ceil(|e|/2), the bound
    every truncation floor rests on."""
    values = dict(series.items())
    for e, value in values.items():
        size = sum(e)
        if size and value.virtual_dimension - size > -((size + 1) // 2):
            raise InternalCheckError(
                f"Mobius coefficient at {e} has dimension "
                f"{value.virtual_dimension}, above the -|e|/2 bound"
            )
    if values.get((0,) * len(series.variables)) != ONE:
        raise InternalCheckError("Mobius coefficients lost mu(0) = 1")
    return values


def build_global_mobius(fan: Fan, s: int, cap: SeriesCap) -> GlobalMobius:
    """Uncached global Mobius table of a fan already known to be valid.

    For callers that keep only a table derived from it; global_mobius
    caches the same result.
    """
    series = euler_product_p1(fan_mobius_polynomial(fan), s, cap)
    return GlobalMobius(fan, s, cap, _checked_mobius(series))


_global_mobius_cached = functools.lru_cache(maxsize=None)(build_global_mobius)


def global_mobius(fan: Fan, s: int = 0, cap: SeriesCap | None = None) -> GlobalMobius:
    """Global Mobius coefficients of the fan, as LaurentClass values.

    The cap defaults to the total-degree simplex of order twice the ray
    count, enough for every bundled example; results are cached per
    (fan, s, cap).
    """
    require_valid(fan)
    if cap is None:
        cap = SeriesCap.total_cap(fan.nrays, 2 * fan.nrays)
    return _global_mobius_cached(fan, s, cap)


def euler_product_at_Linv(fan: Fan, s: int, E: int) -> DimSeries:
    """Partial sum over |e| <= E of mu(e) L^(-|e|), with its floor.

    Only |e| enters, so the sum is read off the one-variable Euler
    product of the diagonal P(u, ..., u): setting every t_alpha to u is
    a ring map that commutes with t -> t^d, so it carries the product of
    P(t^(deg p)) over the closed points to that of P(u^(deg p)), whose
    u^k coefficient is the sum of mu(e) over |e| = k (motivic Euler
    products are compatible with specialization).

    Terms beyond the cutoff have dimension at most -ceil((E+1)/2), so
    the result is exact strictly above that line: the floor is
    1 - ceil((E+1)/2) and the known part is truncated to it.
    """
    if E < 0:
        raise ValueError("total-degree cutoff must be nonnegative")
    require_valid(fan)
    P = fan_mobius_polynomial(fan)
    diagonal = IntPoly(1, (((sum(e),), c) for e, c in P.items()))
    series = euler_product_p1(diagonal, s, SeriesCap.box_cap((E,)))
    acc = ZERO
    for (k,), value in _checked_mobius(series).items():
        acc = acc + value.shift(-k)
    floor = 1 - ((E + 2) // 2)
    return DimSeries(acc, floor)


def sym_p1_class(j: int) -> LaurentClass:
    """Class of the j-th symmetric power of P^1: 1 + L + ... + L^j."""
    if j < 0:
        raise ValueError("symmetric power index must be nonnegative")
    return LaurentClass({i: 1 for i in range(j + 1)})


def zeta_p1_coeffs(s: int, jmax: int) -> tuple[LaurentClass, ...]:
    """Coefficients of the zeta factor of P^1 minus s rational points.

    The generating series of effective divisors on the punctured line is
    (1 - t)^(s-1) (1 - L t)^(-1); for s = 0 this is the Kapranov zeta
    function of P^1 and the j-th coefficient is the class of Sym^j P^1.
    """
    if s < 0:
        raise ValueError("removed point count must be nonnegative")
    if jmax < 0:
        raise ValueError("truncation order must be nonnegative")
    if s == 0:
        return tuple(sym_p1_class(j) for j in range(jmax + 1))
    out = []
    for j in range(jmax + 1):
        acc = ZERO
        for i in range(min(j, s - 1) + 1):
            sign = -1 if i % 2 else 1
            acc = acc + LaurentClass({j - i: sign * math.comb(s - 1, i)})
        out.append(acc)
    return tuple(out)
