"""Reference values for the benchmark's answer checks, made apart from the
code under test.

Nothing in this file imports ``toricurves``.  Classes are plain dicts
{exponent of L: integer coefficient}; the Euler product over the closed
points of P^1 is computed here from the point counts of P^1 over finite
fields, and the jet-constrained count is made by direct enumeration.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# Laurent polynomials in L as {exponent: coefficient}


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


def padd(*terms: dict) -> dict:
    out: dict = {}
    for t in terms:
        for e, c in t.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def pscale(a: dict, c, shift: int = 0) -> dict:
    return {e + shift: v * c for e, v in a.items() if v * c}


def above(a: dict, floor: int) -> dict:
    return {e: c for e, c in a.items() if e >= floor}


def evaluate(a: dict, q: int) -> Fraction:
    return sum((c * Fraction(q) ** e for e, c in a.items()), Fraction(0))


_TERM = re.compile(r"^(?:(\d+)\*)?L(?:\^(-?\d+))?$")


def parse_class(text: str) -> dict:
    """Parse the printed form of a class, such as ``L^2 + 4*L - 1``."""
    out: dict = {}
    tokens = text.replace(" - ", " + -").split(" + ")
    for tok in tokens:
        sign = -1 if tok.startswith("-") else 1
        tok = tok.lstrip("-")
        if tok.isdigit():
            e, c = 0, int(tok)
        else:
            m = _TERM.match(tok)
            if not m:
                raise ValueError(f"cannot parse term {tok!r} of {text!r}")
            c = int(m.group(1) or 1)
            e = int(m.group(2) or 1)
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def from_json(doc: dict) -> dict:
    """Read the ``{"coeffs": {"e": "c"}}`` form the CLI prints."""
    return {int(e): int(c) for e, c in doc["coeffs"].items() if int(c)}


def projective_space(n: int) -> dict:
    """[P^n] = 1 + L + ... + L^n."""
    return {i: 1 for i in range(n + 1)}


def projective_constant(n: int) -> dict:
    """The limit [P^n](1 - L^-n) of normalized classes of maps to P^n."""
    return pmul(projective_space(n), {0: 1, -n: -1})


# ---------------------------------------------------------------------------
# Univariate Euler products over the closed points of P^1


def _mobius(n: int) -> int:
    result, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    return -result if n > 1 else result


def closed_points(d: int) -> dict:
    """Number of closed points of degree d on P^1 over F_q, as a polynomial
    in q with Fraction coefficients: q + 1 for d = 1, else the number of
    monic irreducibles of degree d."""
    if d == 1:
        return {1: Fraction(1), 0: Fraction(1)}
    out: dict = {}
    for j in range(1, d + 1):
        if d % j == 0 and _mobius(j):
            out[d // j] = out.get(d // j, 0) + Fraction(_mobius(j), d)
    return out


def euler_product_diagonal(P: list[int], kmax: int) -> list[dict]:
    """Coefficients M_0..M_kmax of prod over closed points x of P(u^deg x).

    P is a list of integer coefficients with P[0] = 1.  With
    log P(u) = sum c_m u^m, the logarithm of the product has u^k
    coefficient sum_{d | k} N_d(q) c_{k/d}; exponentiating gives M_k as
    polynomials in q = L, which must have integer coefficients.
    """
    if P[0] != 1:
        raise ValueError("P must have constant term 1")
    a = [Fraction(P[i]) if i < len(P) else Fraction(0) for i in range(kmax + 1)]
    c = [Fraction(0)] * (kmax + 1)
    for m in range(1, kmax + 1):
        c[m] = a[m] - sum((i * c[i] * a[m - i] for i in range(1, m)), Fraction(0)) / m
    G = [{} for _ in range(kmax + 1)]
    for k in range(1, kmax + 1):
        for d in range(1, k + 1):
            if k % d == 0 and c[k // d]:
                G[k] = padd(G[k], pscale(closed_points(d), c[k // d]))
    M = [{0: Fraction(1)}]
    for k in range(1, kmax + 1):
        acc: dict = {}
        for i in range(1, k + 1):
            if G[i]:
                acc = padd(acc, pscale(pmul(G[i], M[k - i]), Fraction(i, k)))
        M.append(acc)
    out = []
    for k, poly in enumerate(M):
        if any(v.denominator != 1 for v in poly.values()):
            raise ArithmeticError(f"Euler coefficient {k} is not integral")
        out.append({e: int(v) for e, v in poly.items()})
    return out


def tamagawa_diagonal(P: list[int], n: int, rank: int, floor: int) -> dict:
    """L^n (1 - L^-1)^-rank sum_k M_k L^-k, kept on exponents >= floor.

    The sum runs far enough that every dropped term M_k L^-k lies below
    the floor; that bound is checked on the computed terms.
    """
    depth = n - floor
    kmax = 2 * depth + 2
    M = euler_product_diagonal(P, kmax)
    for k, poly in enumerate(M):
        if poly and k and max(poly) - k > -((k + 1) // 2):
            raise ArithmeticError(f"Euler coefficient {k} breaks the dimension bound")
    ep = padd(*(pscale(poly, 1, -k) for k, poly in enumerate(M)))
    inv: dict = {}
    binom = 1
    for i in range(depth + 1):
        inv[-i] = binom
        binom = binom * (rank + i) // (i + 1)
    return above(pscale(pmul(inv, ep), 1, n), floor)


# ---------------------------------------------------------------------------
# Jet-constrained maps to P^n, by direct enumeration


def _trim(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, x in enumerate(b):
                a[shift + i] = (a[shift + i] - c * x) % p
            a = _trim(a)
        a, b = b, a
    return a


def _common_root(forms: list[tuple[int, ...]], p: int) -> bool:
    """Do the binary forms (coefficients c_0..c_e of x^0..x^e) share a
    projective root over the algebraic closure of F_p?"""
    if all(f[-1] == 0 for f in forms):
        return True  # all vanish at infinity
    g = list(forms[0])
    for f in forms[1:]:
        g = _poly_gcd(g, list(f), p)
    return len(_trim(g)) > 1


def _jet(coeffs: tuple[int, ...], point: int, order: int, p: int) -> tuple[int, ...]:
    """Taylor coefficients of sum c_i x^i at x = point, up to the order."""
    return tuple(
        sum(math.comb(i, j) * c * point ** (i - j)
            for i, c in enumerate(coeffs) if i >= j) % p
        for j in range(order + 1)
    )


def jet_count_projective_space(
    p: int, d: tuple[int, ...], point: int, order: int
) -> int:
    """Maps P^1 -> P^n of degree d whose jet at x = point is that of a map
    to the torus with vanishing derivatives, counted over F_p.

    A map is a tuple of nonzero forms with no common root, up to one
    common scalar.  The jet condition with the identity target says that
    the forms' Taylor jets at the point all equal one unit jet.
    """
    by_jet: list[dict] = []
    for e in d:
        groups: dict = {}
        for coeffs in itertools.product(range(p), repeat=e + 1):
            jet = _jet(coeffs, point, order, p)
            if jet[0]:
                groups.setdefault(jet, []).append(coeffs)
        by_jet.append(groups)
    tuples = 0
    for jet, first in by_jet[0].items():
        rest = [groups.get(jet, []) for groups in by_jet[1:]]
        for forms in itertools.product(first, *rest):
            if not _common_root(list(forms), p):
                tuples += 1
    return tuples // (p - 1)


# `oracle p2 --p 3 --degree 3,3,3 --jet 1,1`; made anew by
#   python3 perfbench/checks.py
JET_COUNT_P2_P3_D333_AT1_ORDER1 = 1944


if __name__ == "__main__":
    print(jet_count_projective_space(3, (3, 3, 3), 1, 1))
