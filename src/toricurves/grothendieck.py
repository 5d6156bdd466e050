"""Exact arithmetic for Grothendieck-ring classes.

Three layers, all with arbitrary-precision integer (or exact rational)
coefficients and no floating point anywhere:

  * LaurentClass: an integer Laurent polynomial in the Lefschetz class L.
  * DimSeries: a Laurent series in L^-1 known exactly above a tracked
    precision floor (an element of the dimensional completion).
  * MultiSeries: a truncated multivariate power series in variables t_alpha
    whose coefficients live in some commutative ring (LaurentClass here).

A polynomial class also travels as one integer, its value at L = 2^w,
so that products of classes become products of integers; unpack_class
reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import _integer


class _MinusInfinity:
    """Sentinel for the virtual dimension of the zero class.

    Compares strictly below every integer and equal only to itself.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("MINUS_INFINITY")

    def __repr__(self):
        return "MINUS_INFINITY"

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("minus infinity has no negation")


MINUS_INFINITY = _MinusInfinity()


class LaurentClass:
    """An element of Z[L, L^-1], stored sparsely as {exponent: coefficient}.

    Instances are immutable in practice: no public mutators, arithmetic
    returns fresh objects, and hashing is supported.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        c = {}
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for e, v in items:
            # a plain int needs no call to be known an integer
            if type(e) is not int:
                _integer(e, "exponent")
            if type(v) is not int:
                _integer(v, "coefficient")
            if v:
                c[e] = c.get(e, 0) + v
                if not c[e]:
                    del c[e]
        self._c = c

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._c)

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in descending exponent order."""
        return sorted(self._c.items(), reverse=True)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentClass({0: other})
        if not isinstance(other, LaurentClass):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __neg__(self) -> "LaurentClass":
        return _laurent({e: -v for e, v in self._c.items()})

    def __add__(self, other) -> "LaurentClass":
        if isinstance(other, int):
            other = LaurentClass({0: other})
        if not isinstance(other, LaurentClass):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        return _laurent(c)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentClass":
        if isinstance(other, int):
            other = LaurentClass({0: other})
        if not isinstance(other, LaurentClass):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentClass":
        return (-self) + other

    def __mul__(self, other) -> "LaurentClass":
        if isinstance(other, int):
            return _laurent(
                {e: v * other for e, v in self._c.items()} if other else {})
        if not isinstance(other, LaurentClass):
            return NotImplemented
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        return _laurent(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentClass":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[L, L^-1] classes")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentClass":
        """Multiply by L^k."""
        if type(k) is not int:
            _integer(k, "shift")
        return _laurent({e + k: v for e, v in self._c.items()})

    @property
    def virtual_dimension(self):
        if not self._c:
            return MINUS_INFINITY
        return max(self._c)

    def evaluate(self, q: int) -> Fraction:
        """Substitute L = q, exactly.  Requires an integer q >= 2."""
        # a plain int needs no call to be known an integer
        if type(q) is not int:
            _integer(q, "evaluation point")
        if q < 2:
            raise ValueError("evaluation point must be an integer >= 2")
        low = min(0, min(self._c, default=0))
        value = sum(v * q ** (e - low) for e, v in self._c.items())
        # with no negative power the value is an integer: no gcd to take
        return Fraction(value, q**-low) if low else Fraction(value)

    def truncate_below(self, floor: int) -> "LaurentClass":
        """Drop all terms of exponent strictly below floor."""
        return _laurent({e: v for e, v in self._c.items() if e >= floor})

    def to_json(self) -> dict:
        return {"coeffs": {str(e): str(v) for e, v in sorted(self._c.items())}}

    def __str__(self) -> str:
        return _signed_sum(
            ("" if e == 0 else "L" if e == 1 else f"L^{e}", v)
            for e, v in self.terms())

    def __repr__(self) -> str:
        return f"LaurentClass({self._c!r})"


def _laurent(c: dict[int, int]) -> LaurentClass:
    """The class whose terms are c, taken as it is: c must map ints to
    nonzero ints and must not be changed later."""
    r = object.__new__(LaurentClass)
    r._c = c
    return r


def _signed_sum(terms: Iterable[tuple[str, int]]) -> str:
    """Terms (monomial, nonzero coefficient) written as a signed sum,
    "" standing for the monomial 1, and "0" for no terms."""
    parts = []
    for mono, v in terms:
        n = abs(v)
        body = str(n) if not mono else mono if n == 1 else f"{n}*{mono}"
        if parts:
            parts.append(f"+ {body}" if v > 0 else f"- {body}")
        else:
            parts.append(body if v > 0 else f"-{body}")
    return " ".join(parts) or "0"


L = LaurentClass({1: 1})
ONE = LaurentClass({0: 1})
ZERO = LaurentClass()


def evaluate(x: LaurentClass, q: int) -> Fraction:
    return x.evaluate(q)


def unpack_class(x: int, w: int) -> LaurentClass:
    """The polynomial class whose value at L = 2^w is x.

    x is read as balanced base-2^w digits, exact for every class whose
    coefficients all have absolute value below 2^(w-1).
    """
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    coeffs = {}
    k = 0
    while x:
        c = ((x & mask) ^ half) - half
        if c:
            coeffs[k] = c
        x = (x - c) >> w
        k += 1
    return _laurent(coeffs)


class DimSeries:
    """A Laurent series in L^-1, exact on all degrees >= floor.

    floor is None for exact values (no unknown tail at all).  Construction
    truncates the known part so that every stored exponent is >= floor.
    """

    __slots__ = ("known", "floor")

    def __init__(self, known: LaurentClass, floor: int | None):
        if floor is not None:
            if type(floor) is not int:
                _integer(floor, "floor")
            known = known.truncate_below(floor)
        self.known = known
        self.floor = floor

    @classmethod
    def exact(cls, value: LaurentClass | int) -> "DimSeries":
        if isinstance(value, int):
            value = LaurentClass({0: value})
        return cls(value, None)

    def shift(self, k: int) -> "DimSeries":
        """Multiply by the exact monomial L^k."""
        f = None if self.floor is None else self.floor + k
        return DimSeries(self.known.shift(k), f)

    def __add__(self, other) -> "DimSeries":
        if isinstance(other, (LaurentClass, int)):
            other = DimSeries.exact(other)
        if not isinstance(other, DimSeries):
            return NotImplemented
        if self.floor is None:
            f = other.floor
        elif other.floor is None:
            f = self.floor
        else:
            f = max(self.floor, other.floor)
        return DimSeries(self.known + other.known, f)

    __radd__ = __add__

    def __neg__(self) -> "DimSeries":
        return DimSeries(-self.known, self.floor)

    def __sub__(self, other) -> "DimSeries":
        if isinstance(other, (LaurentClass, int)):
            other = DimSeries.exact(other)
        return self + (-other)

    def __rsub__(self, other) -> "DimSeries":
        return (-self) + other

    def __mul__(self, other) -> "DimSeries":
        if isinstance(other, (LaurentClass, int)):
            other = DimSeries.exact(other)
        if not isinstance(other, DimSeries):
            return NotImplemented
        # The unknown tail of one factor meets the full other factor; take
        # the worst (largest) degree any such cross term can reach.
        candidates = []
        if self.floor is not None:
            candidates.append(self.floor + other.known.virtual_dimension)
        if other.floor is not None:
            candidates.append(other.floor + self.known.virtual_dimension)
        if self.floor is not None and other.floor is not None:
            candidates.append(self.floor + other.floor)
        candidates = [c for c in candidates if c is not MINUS_INFINITY]
        f = max(candidates) if candidates else None
        return DimSeries(self.known * other.known, f)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, DimSeries):
            return NotImplemented
        return self.floor == other.floor and self.known == other.known

    def __hash__(self):
        return hash((self.known, self.floor))

    def to_json(self) -> dict:
        doc = self.known.to_json()
        doc["floor"] = "exact" if self.floor is None else self.floor
        return doc

    def __str__(self) -> str:
        tag = "exact" if self.floor is None else f"floor {self.floor}"
        return f"{self.known} ({tag})"

    def __repr__(self) -> str:
        return f"DimSeries({self.known!r}, floor={self.floor!r})"


def inverse_one_minus_Linv_pow(r: int, floor: int) -> DimSeries:
    """(1 - L^-1)^-r expanded down to the given floor.

    The coefficient of L^-i is binomial(r - 1 + i, i).
    """
    if _integer(r, "exponent r") < 1:
        raise ValueError("exponent r must be >= 1")
    if _integer(floor, "floor") > 0:
        raise ValueError("floor must be <= 0")
    coeffs = {}
    binom = 1
    for i in range(-floor + 1):
        coeffs[-i] = binom
        binom = binom * (r + i) // (i + 1)
    return DimSeries(_laurent(coeffs), floor)


@dataclass(frozen=True)
class SeriesCap:
    """Truncation policy for MultiSeries: a per-variable box, which every
    cap must have, and a bound on the total degree, by default the sum of
    the box."""

    box: tuple[int, ...] | None = None
    total: int | None = None

    def __post_init__(self):
        if self.box is None:
            raise ValueError("a cap needs a per-variable box")
        # a tuple, so that the cap can key the caches
        object.__setattr__(
            self, "box", tuple(_integer(b, "box entry") for b in self.box))
        if any(b < 0 for b in self.box):
            raise ValueError("box entries must be nonnegative")
        if self.total is None:
            object.__setattr__(self, "total", sum(self.box))
        elif _integer(self.total, "total-degree bound") < 0:
            raise ValueError("total-degree bound must be nonnegative")

    def admits(self, expvec: tuple[int, ...]) -> bool:
        if len(expvec) != len(self.box):
            raise ValueError("exponent vector arity does not match the cap")
        return sum(expvec) <= self.total and all(
            e <= b for e, b in zip(expvec, self.box)
        )

    @classmethod
    def total_cap(cls, nvars: int, total: int) -> "SeriesCap":
        return cls(box=tuple([total] * nvars), total=total)


class MultiSeries:
    """Sparse truncated power series in named variables.

    Coefficients are LaurentClass values, or any values whose zero is
    falsy; the constructor keeps the nonzero ones on exponents the cap
    admits.  The engine builds these as results; it does no arithmetic
    on them.
    """

    __slots__ = ("variables", "cap", "_c")

    def __init__(self, variables: Iterable[str], cap: SeriesCap,
                 coeffs: Mapping[tuple[int, ...], object] = ()):
        self.variables = tuple(variables)
        self.cap = cap
        c = {}
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for e, v in items:
            # a plain int needs no call to be known an integer
            e = tuple(x if type(x) is int else _integer(x, "exponent") for x in e)
            if len(e) != len(self.variables):
                raise ValueError("exponent vector arity does not match variables")
            if v and cap.admits(e):
                c[e] = v
        self._c = c

    @property
    def coeffs(self) -> dict[tuple[int, ...], object]:
        return dict(self._c)

    def items(self):
        return self._c.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self.variables == other.variables and self._c == other._c

    def __repr__(self) -> str:
        return f"MultiSeries(vars={self.variables}, {len(self._c)} terms)"

