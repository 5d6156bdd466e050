"""Motivic Euler products over the projective line.

This is the computational core of the package.  Given a local factor
``F`` with integer coefficients and constant term 1, it evaluates the
product of ``F(t^(deg p))`` over the closed points ``p`` of P^1 minus a
chosen number of rational points, truncated by a degree cap.  The
coefficients of the result are exact integer polynomials in L.

The number a_d(q) of closed points of degree d on the punctured line is
an integer at every integer q, so the engine works at the single point
q = 2^w.  There the factor of the points of degree d is the integer
power G = F^(a_d), taken at t^(.d), and each power is built in one pass
of J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).  With theta
the Euler operator, theta t^e = |e| t^e, the power solves
theta(G) F = a G theta(F), whose t^e coefficient reads

    |e| G_e  =  sum_{f != 0} F_f ((a + 1) |f| - |e|) G_(e - f).

Each G_(e - f) has a lower total degree and lies in every cap that
holds e, so a truncated power comes out exactly, level by level in |e|.
F has integer coefficients and constant term 1, and a is an integer,
so F^a is an integer series: each division by |e| leaves no remainder,
and a remainder aborts the run.  Every coefficient, an integer
polynomial in q, is then read back from its value as balanced base-2^w
digits (Kronecker substitution), with q mapped to L.  A majorant series
bounds every coefficient in advance and fixes w; nothing is ever
rounded, and a digit beyond the bound aborts the run.  The factors stay
packed integers, the d = 1 factor apart from the product of the others
(_rest_factors), until _read_product multiplies the two and reads the
product back.

Configuration classes, the Euler product times one zeta factor per
variable, come from the same integers at a width a second bound fixes
(_config_terms), in a uniform box of one pattern set: U, the d = 1
factor, is pulled into the dense box that the zeta factors then walk,
since the pattern polynomial has exponents 0 and 1 only (_dense_power).
A ray permutation that keeps the primitive collections keeps that
polynomial, and so U cell by cell: one cell is pulled per orbit of the
automorphisms the search of toric finds, each checked against the
polynomial's terms, and written to the orbit at positions read from
two tables per permutation, one for each half of the axes.  The zeta
factors then walk the box one lane at a time, the cells at one place
along an axis (_walk).  R, the product of the other factors, is kept
as a list sorted by offset, so a class read sums its terms only up to
the key's position (_WalkTerms).  A pattern set of one pattern J
builds no box: the Euler product of 1 - t^J is the inverse of the
motivic zeta function of the punctured line at t^J, so its classes
have a closed form of at most min(e) + 1 terms, three at s = 0 and two
at s = 1 (_one_pattern_class).

A class is read as a product (config_class).  Setting t_alpha = 0 is a
ring map that commutes with t -> t^d and kills the patterns through
alpha, and the Euler product of a polynomial in disjoint sets of
variables is the product of their Euler products (motivic Euler
products are multiplicative in the local factor).  So at a vector e a
ray of degree 0 gives 1, a ray on no live pattern the coefficient of
its zeta factor alone, and each connected component of the live
patterns (toric's _components) its own class at its own orbit key, as
a pattern set of its own.  Every cache here is keyed by the pattern set,
not the fan: a pair's class answers P^1, P^1 x P^1 and the blow-up of
P^2 alike.  Only a vector whose live patterns are a whole pattern set
of several patterns, in one component, builds a box; one box per
pattern set and s is kept, of the largest side asked for, and it
answers first any vector it holds.

The same permutations keep every class of a uniform box, so one class
is read per orbit, at its least vector (toric's _orbit_keys, the memo
the oracle's counts share, which checks each permutation and twin swap
against the patterns).  Hom classes share only the class under them:
moduli tests each degree against the dual effective cone, which these
permutations need not keep.  Packed values never leave this module.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from operator import add, itemgetter, mul, sub
from typing import Mapping, Sequence

from .errors import InternalCheckError, _integer
from .grothendieck import (
    ONE,
    ZERO,
    LaurentClass,
    DimSeries,
    MultiSeries,
    SeriesCap,
    _laurent,
    unpack_class,
)
from .mobius import IntPoly, fan_mobius_polynomial, mobius_table
from .toric import (
    Fan,
    PatternSet,
    _components,
    _orbit_keys,
    require_valid,
)

__all__ = [
    "int_mobius",
    "euler_product_p1",
    "global_mobius",
    "euler_product_at_Linv",
    "config_class",
]


def _pack(vec: Sequence[int], shift: int) -> int:
    key = 0
    for i, x in enumerate(vec):
        key |= x << (shift * i)
    return key


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
    """Closed-point count of degree d of P^1 minus s rational points, as
    (denominator, coeffs in q): a_1 = q + 1 - s, and d a_d is
    sum_{c | d} mobius(c) q^(d/c) for d >= 2 (the necklace identity)."""
    if d == 1:
        return 1, (1 - s, 1)
    num = [0] * (d + 1)
    for c in range(1, d + 1):
        if d % c == 0:
            num[d // c] += int_mobius(c)
    return d, tuple(num)


def _majorant(
    support: Mapping[tuple[int, ...], int], s: int, total: int
) -> list[int]:
    """Coefficients up to u^total of a one-variable series whose u^n
    coefficient bounds the absolute q-coefficients of the Euler-product
    coefficients at all the exponents e with |e| = n, summed together.

    support holds the terms of F - 1.  With A = 1 + |1 - s| each a_d has
    absolute coefficient sum at most A, so binom(a_d, k) has at most
    binom(A + k - 1, k), and F - 1 is dominated on the diagonal by
    g(u) = sum |c_e| u^|e|.  The factors
    sum_k binom(A + k - 1, k) g(u^d)^k = (1 - g(u^d))^(-A) then dominate
    those of the Euler product with t_alpha = u and every coefficient
    replaced by its absolute coefficient sum, and so does their product.
    """
    g: dict[int, int] = {}
    for e, c in support.items():
        g[sum(e)] = g.get(sum(e), 0) + abs(c)
    vals = [1] + [0] * total
    if not g:
        return vals
    for d in range(1, total // min(g) + 1):
        terms = [(d * n, c) for n, c in g.items() if d * n <= total]
        for _ in range(1 + abs(1 - s)):
            # divide by 1 - g(u^d): ascending, so every vals[i - j] is final
            for i in range(total + 1):
                vals[i] += sum(c * vals[i - j] for j, c in terms if j <= i)
    return vals


def _width(majorant: Sequence[int], reach: int | None) -> int:
    """The engine's digit width: two bits above the largest coefficient
    of the majorant and, when reach is given, above reach times the sum
    of its coefficients."""
    width = max(majorant).bit_length() + 2
    if reach is not None:
        width = max(width, (reach * sum(majorant)).bit_length() + 2)
    return width


def _read_back(x: int, w: int, bound: int, e: tuple, message: str) -> LaurentClass:
    """The class whose value at L = 2^w is x; a coefficient of absolute
    value bound or more raises InternalCheckError, message naming e."""
    cls = unpack_class(x, w)
    if any(abs(c) >= bound for _, c in cls.terms()):
        raise InternalCheckError(f"{message.format(e)}: {cls}")
    return cls


class _Keys:
    """Exponent vectors of one cap packed into ints.

    A vector e is packed `shift` bits per field, with |e| as a last
    field above the variables.  Every field of an in-cap key is at most
    its limit, below 2^(shift-1), so two in-cap keys add without a
    carry; adding `off` lifts a field past bit shift-1 exactly when it
    exceeds its limit, so one mask test checks the box and the total
    together.
    """

    def __init__(self, cap: SeriesCap, shift: int | None = None):
        limits = cap.box + (cap.total,)
        self.cap = cap
        self.nvars = len(cap.box)
        self.total = cap.total
        self.shift = shift or max(limits).bit_length() + 1
        self.top = self.shift * self.nvars
        self.guard = _pack([1 << (self.shift - 1)] * len(limits), self.shift)
        self.off = _pack(
            [(1 << (self.shift - 1)) - 1 - b for b in limits], self.shift
        )

    def shrunk(self, d: int) -> "_Keys":
        """The keys of the cap (box_i // d, total // d) at this shift:
        t -> t^d maps each of them into this cap as key * d, no field
        carrying."""
        cap = SeriesCap(tuple(b // d for b in self.cap.box), self.total // d)
        return _Keys(cap, self.shift)

    def admits(self, key: int) -> bool:
        return not (key + self.off) & self.guard

    def pack(self, e: tuple[int, ...]) -> int:
        return _pack(e + (sum(e),), self.shift)

    def unpack(self, key: int) -> tuple[int, ...]:
        mask = (1 << self.shift) - 1
        return tuple((key >> (self.shift * i)) & mask for i in range(self.nvars))

    def times(self, a: dict[int, int], b: dict[int, int], out: dict[int, int]):
        """out plus the in-cap part of a * b, zero terms dropped."""
        top, off, guard, total = self.top, self.off, self.guard, self.total
        # partner keys carry `off`, so a sum is in the cap when its guard
        # bits are clear; sorted, they come in ascending |e|
        pairs = sorted((k + off, v) for k, v in b.items())
        keys = [k for k, _ in pairs]
        get = out.get
        for ka, va in a.items():
            # only partners up to what the total leaves
            rest = total - (ka >> top)
            stop = bisect.bisect_left(keys, ((rest + 1) << top) + off)
            for kb, vb in pairs[:stop]:
                k = ka + kb
                if not k & guard:
                    k -= off
                    out[k] = get(k, 0) + va * vb
        return {k: v for k, v in out.items() if v}


def _read_product(keys: _Keys, w: int, majorant: list[int],
                  rest: dict[int, int], first: dict[int, int]) -> MultiSeries:
    """rest * first, each coefficient read back as a LaurentClass.

    first is the factor of the rational points (d = 1), with its
    constant term 1, and rest the product of all the other factors, both
    truncated to the cap of keys and taken at q = 2^w.  The majorant's
    u^n coefficient bounds, summed over the exponents e with |e| = n, the
    absolute q-coefficient sums of the product's coefficients (see
    _majorant).  The coefficients are balanced base-2^w digits; a digit
    of absolute value 2^(v-2) or more, v the width the majorant alone
    fixes, contradicts the majorant and raises InternalCheckError, which
    signals an engine bug rather than a recoverable input problem.
    """
    series = keys.times(rest, first, {})
    nvars = keys.nvars
    bound = 1 << (_width(majorant, None) - 2)
    out: dict[tuple[int, ...], LaurentClass] = {}
    # ascending |e|, so checks over the result meet low degrees first
    for key, x in sorted(series.items()):
        e = keys.unpack(key)
        out[e] = _read_back(
            x, w, bound, e,
            "Euler product coefficient at exponent {} exceeds its majorant",
        )
    if out.get((0,) * nvars) != ONE:
        raise InternalCheckError("Euler product lost its constant term 1")
    variables = tuple(f"t{i + 1}" for i in range(nvars))
    return MultiSeries(variables, keys.cap, out)


def _points(d: int, s: int, w: int) -> int:
    """a_d(2^w), the number of closed points of degree d of P^1 minus s
    rational points at q = 2^w."""
    den, num = _weight_raw(d, s)
    return sum(c << (w * i) for i, c in enumerate(num)) // den


def _rest_factors(
    F: IntPoly, s: int, cap: SeriesCap, reach: int | None
) -> tuple[_Keys, int, list[int], dict[int, int], dict[int, int]]:
    """The Euler product over the closed points of P^1 minus s points of
    F(t^(deg)), short of its d = 1 factor: the keys of the cap, the
    width, the majorant, the packed in-cap terms of F - 1, and the
    product of the factors with d >= 2.

    F must have constant term 1.  The product is taken at q = 2^width,
    where the width leaves two bits above the largest coefficient of the
    majorant series and, when reach is given, above reach times the sum
    of the majorant's coefficients: that sum bounds the absolute
    q-coefficient sum of any combination of the product's coefficients
    with integer polynomial weights whose absolute coefficient sums are
    at most reach.  Each factor F^(a_d) is one pass of _power, at the
    integer point count a_d(2^width).
    """
    if _integer(s, "removed point count") < 0:
        raise ValueError("removed point count must be nonnegative")
    nvars = len(cap.box)
    coeffs_in: dict[tuple[int, ...], int] = {}
    for exp, coeff in F.items():
        if len(exp) != nvars:
            raise ValueError(
                f"local factor arity {len(exp)} does not match cap arity {nvars}"
            )
        if any(x < 0 for x in exp):
            raise ValueError("local factor exponents must be nonnegative")
        if any(exp) and cap.admits(exp):
            coeffs_in[exp] = coeff
    if F.constant_term() != 1:
        raise ValueError("local factor must have constant term 1")

    keys = _Keys(cap)
    total = cap.total
    majorant = _majorant(coeffs_in, s, total)
    w = _width(majorant, reach)
    base = {keys.pack(e): c for e, c in coeffs_in.items()}
    rest = {0: 1}
    if not base:
        return keys, w, majorant, base, rest
    valuation = min(sum(e) for e in coeffs_in)
    # the sparse factors of large d first, so the series stays small
    for d in range(total // valuation, 1, -1):
        # F^(a_d)(t^d) in the cap is F^(a_d) in the cap shrunk by d
        sub = keys.shrunk(d)
        power = _power({k: c for k, c in base.items() if sub.admits(k)},
                       _points(d, s, w), sub)
        rest = keys.times(rest, {k * d: c for k, c in power.items()}, {})
    return keys, w, majorant, base, rest


def _power(terms: dict[int, int], a: int, keys: _Keys) -> dict[int, int]:
    """F^a in the cap of keys, for F = 1 + terms, zero terms dropped.

    terms holds the packed in-cap terms of F - 1.  The coefficients come
    level by level in |e| from Miller's recurrence (module docstring):
    each finished G_e is divided by |e| and pushed to every e + f in the
    cap, with weight F_f (a |f| - |e|) = F_f ((a + 1) |f| - |e + f|).  A
    remainder means F or a is not what the recurrence assumes, and
    raises InternalCheckError.
    """
    off, guard, total = keys.off, keys.guard, keys.total
    # terms of one |f| and one coefficient share their weight; partner
    # keys carry `off`, as in _Keys.times
    groups: dict[tuple[int, int], list[int]] = {}
    for k, c in terms.items():
        groups.setdefault((k >> keys.top, c), []).append(k + off)
    levels: list[dict[int, int]] = [{} for _ in range(total + 1)]
    levels[0][0] = 1
    out: dict[int, int] = {}
    for n, level in enumerate(levels):
        push = [(levels[n + m], m, c, partners)
                for (m, c), partners in groups.items() if n + m <= total]
        for key, acc in level.items():
            value, remainder = divmod(acc, n or 1)
            if remainder:
                raise InternalCheckError(
                    f"power coefficient at {keys.unpack(key)} is not "
                    f"divisible by its total degree {n}"
                )
            if not value:
                continue
            out[key] = value
            big, small = a * value, n * value
            for target, m, c, partners in push:
                x = c * (m * big - small)
                get = target.get
                for kf in partners:
                    k = key + kf
                    if not k & guard:
                        k -= off
                        target[k] = get(k, 0) + x
    return out


def _dense_power(terms: dict[int, int], a: int, keys: _Keys,
                 perms: Sequence[tuple[int, ...]]) -> list[int]:
    """F^a in the uniform box of keys as a dense list, axis i at stride
    (b + 1)^i, for F = 1 + terms with exponents 0 and 1.

    Miller's recurrence (module docstring) read in pull form.  A term f
    lies below e exactly when its support lies in that of e, and then
    G_(e - f) sits pos(f) cells before G_e; so each cell, in increasing
    position, gathers
    G_e = ((a + 1) sum_f F_f |f| G_(e - f)) / |e|  -  sum_f F_f G_(e - f)
    over the terms whose support fits in its own.  A remainder, or an
    exponent above 1, raises InternalCheckError.

    perms lists axis permutations, the identity among them, with axis i
    going to perm[i].  Each must map the terms onto themselves with
    their coefficients, or InternalCheckError is raised; then it keeps
    F^a too, as the box is uniform, and a cell's value is written to
    its images under all of them.  A cell already written is not pulled
    again.  Each G_(e - f) lies in an orbit whose least position is at
    most pos(e - f) < pos(e), so it is written before it is read.  An
    image's position is that of the image of the cell's low n // 2 axes
    plus that of its high ones, each read from a table per permutation,
    at the cell's position modulo side^(n // 2) and at its quotient.
    """
    n = keys.nvars
    side = max(keys.cap.box, default=0) + 1
    powers = [side**i for i in range(n)]
    # per support mask, the offsets of the terms that fit in it, grouped
    # by the weights F_f |f| and F_f they share
    fits: list[dict[tuple[int, int], list[int]]] = [{} for _ in range(1 << n)]
    for key, c in terms.items():
        f = keys.unpack(key)
        if max(f) > 1:
            raise InternalCheckError(f"power term at {f} has an exponent above 1")
        for perm in perms:
            image = [0] * n
            for i, x in zip(perm, f):
                image[i] = x
            if terms.get(keys.pack(tuple(image))) != c:
                raise InternalCheckError(
                    f"axis permutation {perm} moves the power term at {f}")
        mask = sum(x << i for i, x in enumerate(f))
        offset = sum(map(mul, f, powers))
        m = mask
        while m < 1 << n:
            # every superset of mask, in increasing order
            fits[m].setdefault((c * sum(f), c), []).append(offset)
            m = (m + 1) | mask
    groups = [list(fit.items()) for fit in fits]
    # the total degree and the support mask of every cell
    degree, support = [0], [0]
    for i in range(n):
        degree = [d + x for x in range(side) for d in degree]
        support = [m | (1 << i if x else 0) for x in range(side) for m in support]
    dense: list = [None] * len(degree)
    dense[0] = 1
    lift = a + 1
    # a box of one cell shares nothing
    shared = len(perms) > 1 and side > 1
    if shared:
        half = side ** (n // 2)
        # the positions of the cells along each axis
        cols = [range(0, side * k, k) for k in powers]

        def table(axes):
            # the image position of each digit string on these axes
            out = cols[axes[0]]
            for j in axes[1:]:
                out = [p + x for x in cols[j] for p in out]
            return out

        tables = [(table(perm[:n // 2]), table(perm[n // 2:]))
                  for perm in perms]
    for pos in range(1, len(dense)):
        if dense[pos] is not None:
            continue
        h = g = 0
        for (weight, c), offsets in groups[support[pos]]:
            x = 0
            for o in offsets:
                x += dense[pos - o]
            h += weight * x
            g += c * x
        value, remainder = divmod(lift * h, degree[pos])
        if remainder:
            e = tuple(pos // side**i % side for i in range(n))
            raise InternalCheckError(
                f"power coefficient at {e} is not divisible by its total "
                f"degree {degree[pos]}"
            )
        value -= g
        if shared:
            above, below = divmod(pos, half)
            for low, high in tables:
                dense[low[below] + high[above]] = value
        else:
            dense[pos] = value
    return dense


def euler_product_p1(F: IntPoly, s: int, cap: SeriesCap) -> MultiSeries:
    """Expand prod over closed points of P^1 minus s points of F(t^(deg)).

    F must have constant term 1; the result is a capped multiseries with
    LaurentClass coefficients and constant term 1, read back from the
    product of its factors at the width the majorant fixes.
    """
    keys, w, majorant, base, rest = _rest_factors(F, s, cap, None)
    first = _power(base, _points(1, s, w), keys)
    return _read_product(keys, w, majorant, rest, first)


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


def global_mobius(
    fan: Fan, s: int = 0, cap: SeriesCap | None = None
) -> dict[tuple[int, ...], LaurentClass]:
    """The checked global Mobius coefficients of the fan in the cap, as
    {e: mu(e)} over the nonzero ones, in order of (|e|, e).

    The cap defaults to the total-degree simplex of order twice the ray
    count, enough for every bundled example.
    """
    require_valid(fan)
    if cap is None:
        cap = SeriesCap.total_cap(fan.nrays, 2 * fan.nrays)
    table = _checked_mobius(euler_product_p1(fan_mobius_polynomial(fan), s, cap))
    return dict(sorted(table.items(), key=lambda kv: (sum(kv[0]), kv[0])))


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

    The fan is checked where its pattern set is built (toric's
    pattern_set, cached per fan), so a warm call checks it no more.
    """
    if _integer(E, "total-degree cutoff") < 0:
        raise ValueError("total-degree cutoff must be nonnegative")
    P = fan_mobius_polynomial(fan)
    diagonal = IntPoly(1, (((sum(e),), c) for e, c in P.items()))
    series = euler_product_p1(diagonal, s, SeriesCap((E,)))
    acc = ZERO
    for (k,), value in _checked_mobius(series).items():
        acc = acc + value.shift(-k)
    floor = 1 - ((E + 2) // 2)
    return DimSeries(acc, floor)


def _walk(box: list[int], side: int, s: int, w: int) -> None:
    """Multiply a dense box of values at L = 2^w, side cells to an axis,
    by the zeta factor (1 - t)^(s-1) / (1 - L t) of every axis, in
    place: each factor is a recurrence along the axis, so one pass over
    the box per factor and axis.

    A pass updates a lane at a time, the cells at one place along the
    axis.  They lie in runs of step cells, one run per block of side
    runs; when the runs are shorter than the count of blocks, the lane
    is cut into strided slices, one per offset within a run, else into
    the runs.  A slice holds at most 2048 cells, which bounds the values
    a pass holds twice."""
    cells = len(box)
    step = 1
    while step < cells:
        block = step * side
        if step <= cells // block:
            span = 2048 * block
            lanes = [[slice(k + c * step + r, k + span, block)
                      for k in range(0, cells, span) for r in range(step)]
                     for c in range(side)]
        else:
            lanes = [[slice(j, min(j + 2048, b + c * step + step))
                      for b in range(0, cells, block)
                      for j in range(b + c * step, b + c * step + step, 2048)]
                     for c in range(side)]
        pairs = list(zip(lanes[1:], lanes))
        for _ in range(s - 1):
            # times 1 - t: descending, so every previous lane is still old
            for lane, prev in reversed(pairs):
                for now, before in zip(lane, prev):
                    box[now] = map(sub, box[now], box[before])
        if s == 0:
            # over 1 - t: ascending, so every previous lane is final
            for lane, prev in pairs:
                for now, before in zip(lane, prev):
                    box[now] = map(add, box[now], box[before])
        for lane, prev in pairs:
            for now, before in zip(lane, prev):
                box[now] = [a + (b << w) for a, b in zip(box[now], box[before])]
        step = block


class _WalkTerms:
    """R as a list and U * Z as a dense box, at L = 2^w: a class costs
    one mask test per term of R up to its position and one lookup per
    term below it.  The terms are sorted by offset, and a term k <= e
    has offset at most pos(e), so a read stops at the first term past
    pos(e)."""

    def __init__(self, s: int, width: int, keys: _Keys, rest: dict[int, int],
                 dense: list[int]):
        self.width = width
        self.keys = keys
        side = max(keys.cap.box, default=0) + 1
        self.strides = strides = [side**i for i in range(keys.nvars)]
        _walk(dense, side, s, width)
        self.dense = dense
        self.rest = sorted(
            ((key, sum(map(mul, keys.unpack(key), strides)), value)
             for key, value in rest.items()), key=itemgetter(1))

    def at(self, e: tuple[int, ...]) -> int:
        pos = sum(map(mul, e, self.strides))
        guard = self.keys.guard
        # each field of e, lifted by its guard bit, keeps that bit less a
        # key's field exactly when the key's field is at most e's
        lifted = self.keys.pack(e) | guard
        dense = self.dense
        acc = 0
        stop = bisect.bisect_right(self.rest, pos, key=itemgetter(1))
        for key, offset, value in itertools.islice(self.rest, stop):
            if (lifted - key) & guard == guard:
                acc += value * dense[pos - offset]
        return acc


def _config_terms(patterns: PatternSet, s: int, side: int) -> _WalkTerms:
    """What the configuration classes of a pattern set of several
    patterns in the uniform box of the given side are read from.

    A class is the t^e coefficient of R * U * Z: U is the d = 1 factor
    of the Euler product of the pattern polynomial (mobius_table), R the
    product of its other factors and Z = prod_alpha (1 - t_alpha)^(s-1) /
    (1 - L t_alpha) the zeta factors.  U is pulled straight into the
    dense box with _dense_power, as the pattern polynomial's exponents
    are 0 and 1, one cell per orbit of the ray permutations that toric's
    search lists (each keeps the primitive collections, hence the
    polynomial and U), and Z is walked into it lane by lane.  Nothing
    here is cached: the polynomial is mobius_table's, and config_class
    keeps the box beside the classes.

    Width.  With mu = R * U, the class at e is the sum over k <= e of
    mu(k) times prod_alpha zeta_(e_alpha - k_alpha).  The absolute
    coefficient sum of zeta_j is j + 1 <= b + 1 for s = 0 and at most
    sum_i binom(s - 1, i) = 2^(s-1) for s >= 1, so each product of n of
    them has absolute coefficient sum at most reach = (b + 1)^n, or
    2^((s-1) n).  The majorant's u^m coefficient bounds the absolute
    coefficient sums of the mu(k) with |k| = m together, so every
    coefficient of the class is at most B = reach * sum(majorant).
    The engine leaves two bits above B, so the class is read back
    exactly from its value at L = 2^w, and a digit of 2^(w-2) or more
    contradicts the bound.
    """
    n = patterns.nvars
    reach = (side + 1) ** n if s == 0 else 2 ** ((s - 1) * n)
    cap = SeriesCap((side,) * n)
    keys, w, _, base, rest = _rest_factors(mobius_table(patterns), s, cap, reach)
    perms = _orbit_keys(patterns).sym.perms  # checked by the memo
    dense = _dense_power(base, _points(1, s, w), keys, perms)
    return _WalkTerms(s, w, keys, rest, dense)


@functools.lru_cache(maxsize=None)
def _shared_classes(patterns: PatternSet) -> tuple[dict, dict]:
    """A cache of the pattern set's configuration classes, {(s, orbit
    key): class}, with moduli's records beside them, {(tag, orbit key):
    record} (moduli._record): the hom class under "hom", a convergence
    report's verdict under ("report", E) and an oracle comparison's
    (count, prediction) under ("compare", p, kind); and the one uniform
    box kept per s, that of the largest side built, {s: (side, terms)}."""
    return {}, {}


def _times_zeta(coeffs: list[int], s: int, j: int) -> list[int]:
    """The dense coefficients, from L^0, of a class times zeta_j = [t^j]
    (1 - t)^(s-1) / (1 - L t), the class of a ray of degree j on no live
    pattern: sum_(i <= j) L^i for s = 0, and for s >= 1
    sum_(i <= min(j, s - 1)) (-1)^i binom(s - 1, i) L^(j - i).  At s = 0
    each coefficient of the product is the sum of a window of j + 1 of
    coeffs, read off their running sums; at s >= 1 zeta_j has at most s
    terms."""
    if s == 0:
        sums = [0] * (j + 1) + list(itertools.accumulate(coeffs + [0] * j))
        return list(map(sub, sums[j + 1:], sums))
    out = [0] * (len(coeffs) + j)
    for i in range(min(j, s - 1) + 1):
        c = (-1) ** i * math.comb(s - 1, i)
        for a, x in enumerate(coeffs, j - i):
            out[a] += c * x
    return out


def _one_pattern_class(key: tuple[int, ...], s: int) -> LaurentClass:
    """The class at key of a pattern set whose one pattern J holds every
    ray.  Over the closed points x of C = P^1 minus s points, the product
    of 1 - u^(deg x) is Z_C(u)^(-1), Z_C(u) = (1 - u)^(s-1) / (1 - L u)
    the motivic zeta function of C (Kapranov), so the Euler product of
    1 - t^J is Z_C(t^J)^(-1), and the class is
    sum_(k <= min key) c_k prod_alpha zeta_(key_alpha - k), with
    sum_k c_k u^k = (1 - L u) (1 - u)^(1-s): three terms at s = 0 and
    two at s = 1.  Every term has exponents 0 to sum(key) + 1, so the
    sum is kept as a dense list (_times_zeta)."""
    total = [0] * (sum(key) + 2)
    prev, b = 0, 1
    for k in range(min(key) + 1):
        if k:
            # b = [u^k] (1 - u)^(1-s), from [u^(k-1)]
            prev, b = b, b * (k + s - 2) // k
        if not (b or prev):
            break
        term = [1]
        for x in key:
            term = _times_zeta(term, s, x - k)
        for i, c in enumerate(term):
            total[i] += b * c
            total[i + 1] -= prev * c
    return _laurent({i: c for i, c in enumerate(total) if c})


def config_class(patterns: PatternSet, e: tuple[int, ...], s: int) -> LaurentClass:
    """The t^e coefficient of the Euler product of a valid fan's pattern
    set times one zeta factor per ray, read back under the bound that
    fixes w.  Cached per s and orbit key (toric's _orbit_keys); a miss
    is read from the box kept for s when that holds the key, else as a
    product over the key's split (module docstring).  A key that does
    not split is read in closed form when the pattern set has one
    pattern, and otherwise builds a box, of side max(key), in place of
    the kept one."""
    classes, boxes = _shared_classes(patterns)
    key = _orbit_keys(patterns)[e]
    cls = classes.get((s, key))
    if cls is not None:
        return cls
    side = max(key, default=0)
    if boxes.get(s, (-1,))[0] < side:
        free, split = _components(
            frozenset(a for a, x in enumerate(key) if x), patterns)
        if split != ((tuple(range(patterns.nvars)), patterns),):
            dense = [1]
            for a in free:
                dense = _times_zeta(dense, s, key[a])
            cls = _laurent({i: c for i, c in enumerate(dense) if c})
            for rays, sub in split:
                cls *= config_class(sub, tuple(key[a] for a in rays), s)
            classes[s, key] = cls
            return cls
        if len(patterns.minimal) == 1:
            cls = classes[s, key] = _one_pattern_class(key, s)
            return cls
        # drop the smaller box first, so that the two are never held at once
        boxes.pop(s, None)
        boxes[s] = side, _config_terms(patterns, s, side)
    terms = boxes[s][1]
    cls = classes[s, key] = _read_back(
        terms.at(key), terms.width, 1 << (terms.width - 2), e,
        "configuration class at {} exceeds its bound")
    return cls

