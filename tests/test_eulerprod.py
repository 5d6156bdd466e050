"""The motivic Euler product engine against independent references.

Two cross-checks drive this file.  A naive Fraction-arithmetic engine
recomputes small products through literal log/exp series, sharing no
code with the production path.  A numeric check specializes q to actual
prime powers and compares against the ordinary Euler product computed
with plain integer series arithmetic.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from toricurves.errors import InternalCheckError
from toricurves.grothendieck import (
    L,
    ONE,
    ZERO,
    LaurentClass,
    SeriesCap,
)
from toricurves.mobius import IntPoly, fan_mobius_polynomial
from toricurves import eulerprod, toric
from toricurves.eulerprod import (
    _Keys,
    _dense_power,
    _majorant,
    _points,
    _power,
    _rest_factors,
    _walk,
    _weight_raw,
    euler_product_at_Linv,
    euler_product_p1,
    global_mobius,
    int_mobius,
)

from reference import (
    binomial_factors,
    dense_power_by_cells,
    fan_product,
    packed_class,
    walk_by_runs,
    zeta_p1_coeffs,
)

# ---------------------------------------------------------------------------
# reference arithmetic: multivariate series whose coefficients are
# polynomials in q with Fraction coefficients


def qp_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def qp_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + x * y
    return {k: v for k, v in out.items() if v}


def qp_scale(a, c):
    return {k: v * c for k, v in a.items() if v * c}


def ser_add(a, b):
    out = dict(a)
    for e, v in b.items():
        out[e] = qp_add(out.get(e, {}), v)
    return {e: v for e, v in out.items() if v}


def ser_mul(a, b, cap):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if not cap.admits(e):
                continue
            out[e] = qp_add(out.get(e, {}), qp_mul(v1, v2))
    return {e: v for e, v in out.items() if v}


def ser_subst_power(a, d, cap):
    out = {}
    for e, v in a.items():
        scaled = tuple(x * d for x in e)
        if cap.admits(scaled):
            out[scaled] = v
    return out


def ser_log(F, cap, nvars):
    """log of a series with constant term 1 (integer coefficients)."""
    one_minus = {e: qp_scale(v, Fraction(-1)) for e, v in F.items() if any(e)}
    total = cap.total
    acc = {}
    power = {(0,) * nvars: {0: Fraction(1)}}
    for k in range(1, total + 1):
        power = ser_mul(power, one_minus, cap)
        acc = ser_add(acc, {e: qp_scale(v, Fraction(-1, k))
                            for e, v in power.items()})
    return acc


def ser_exp(G, cap, nvars):
    total = cap.total
    acc = {(0,) * nvars: {0: Fraction(1)}}
    power = {(0,) * nvars: {0: Fraction(1)}}
    for k in range(1, total + 1):
        power = ser_mul(power, G, cap)
        acc = ser_add(acc, {e: qp_scale(v, Fraction(1, math.factorial(k)))
                            for e, v in power.items()})
    return acc


def weight_qpoly(d, s):
    """Number of degree-d closed points of the line minus s points, in q."""
    if d == 1:
        return {1: Fraction(1), 0: Fraction(1 - s)}
    out = {}
    for c in range(1, d + 1):
        if d % c == 0:
            m = int_mobius(c)
            if m:
                out[d // c] = out.get(d // c, Fraction(0)) + Fraction(m, d)
    return {k: v for k, v in out.items() if v}


def reference_euler_product(F: IntPoly, s: int, cap: SeriesCap):
    nvars = F.nvars
    base = {e: {0: Fraction(c)} for e, c in F.items()}
    logF = ser_log(base, cap, nvars)
    total = cap.total
    G = {}
    for d in range(1, total + 1):
        shifted = ser_subst_power(logF, d, cap)
        if not shifted:
            continue
        a_d = weight_qpoly(d, s)
        G = ser_add(G, {e: qp_mul(v, a_d) for e, v in shifted.items()})
    return ser_exp(G, cap, nvars)


def as_reference(series):
    """MultiSeries with LaurentClass coefficients -> reference dict."""
    out = {}
    for e, v in series.items():
        out[e] = {k: Fraction(c) for k, c in v.coeffs.items()}
    return out


# ---------------------------------------------------------------------------


def test_int_mobius_golden_sequence():
    got = [int_mobius(n) for n in range(1, 13)]
    assert got == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    with pytest.raises(ValueError):
        int_mobius(0)


def test_closed_point_weights():
    def closed_point_weight(d, s):
        den, num = _weight_raw(d, s)
        return tuple(Fraction(c, den) for c in num)

    assert closed_point_weight(1, 0) == (Fraction(1), Fraction(1))
    assert closed_point_weight(1, 2) == (Fraction(-1), Fraction(1))
    assert closed_point_weight(2, 0) == (0, Fraction(-1, 2), Fraction(1, 2))
    assert closed_point_weight(3, 5) == (0, Fraction(-1, 3), 0, Fraction(1, 3))


def test_point_counts_sum_to_affine_line_counts():
    """Summing d * a_d over divisors d of D gives |P^1(F_{q^D})| - s."""
    for D in range(1, 9):
        for s in (0, 1, 3):
            acc = {}
            for d in range(1, D + 1):
                if D % d == 0:
                    acc = qp_add(acc, qp_scale(weight_qpoly(d, s), Fraction(d)))
            expect = {D: Fraction(1), 0: Fraction(1 - s)}
            assert acc == {k: v for k, v in expect.items() if v}, (D, s)


def test_kapranov_inverse_is_polynomial():
    F = IntPoly(1, {(0,): 1, (1,): -1})
    cap = SeriesCap((6,))
    got = euler_product_p1(F, 0, cap)
    assert got.coeffs == {(0,): ONE, (1,): -(L + ONE), (2,): L}


def test_squarefree_divisor_classes():
    F = IntPoly(1, {(0,): 1, (1,): 1})
    cap = SeriesCap((4,))
    got = euler_product_p1(F, 0, cap)
    coeffs = got.coeffs
    assert coeffs.get((0,)) == ONE
    assert coeffs.get((1,)) == L + ONE
    assert coeffs.get((2,)) == L**2
    assert coeffs.get((3,)) == L**3 - L


@pytest.mark.parametrize("s", [0, 1, 2, 3])
@pytest.mark.parametrize("coeffs", [
    {(0,): 1, (1,): -1},
    {(0,): 1, (1,): 1},
    {(0,): 1, (1,): 1, (2,): 1},
    {(0,): 1, (2,): -3},
    {(0,): 1, (2,): -9, (3,): 16},  # the size of dp6's diagonal
])
def test_engine_matches_naive_log_exp_one_var(coeffs, s):
    F = IntPoly(1, coeffs)
    cap = SeriesCap((4,))
    got = as_reference(euler_product_p1(F, s, cap))
    want = reference_euler_product(F, s, cap)
    assert got == want


@pytest.mark.parametrize("s", [0, 1, 2, 3])
@pytest.mark.parametrize("coeffs", [
    {(0, 0): 1, (1, 1): -1},
    {(0, 0): 1, (1, 0): 1, (1, 1): -1},
    {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 2},
    {(0, 0, 0): 1, (1, 1, 0): -1, (0, 1, 1): -1, (1, 0, 1): -1, (1, 1, 1): 2},
])
def test_engine_matches_naive_log_exp_two_vars(coeffs, s):
    """Factors in two variables, and one in three, under a total-degree
    cap below the sum of the box."""
    nvars = len(next(iter(coeffs)))
    F = IntPoly(nvars, coeffs)
    cap = SeriesCap((3,) * nvars, total=4)
    got = as_reference(euler_product_p1(F, s, cap))
    want = reference_euler_product(F, s, cap)
    assert got == want


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("s,coeffs,box", [
    (0, {(0,): 1, (1,): -1}, (6,)),
    (0, {(0,): 1, (1,): 1, (2,): 1}, (5,)),
    (1, {(0,): 1, (1,): 1}, (5,)),
    (0, {(0, 0): 1, (1, 1): -1}, (3, 3)),
])
def test_specialization_at_prime_powers(q, s, coeffs, box):
    """Evaluating the motivic product at L = q reproduces the ordinary
    Euler product over the points of the line, computed numerically."""
    F = IntPoly(len(box), coeffs)
    cap = SeriesCap(box)
    nvars = F.nvars
    total = sum(box)
    base = {e: Fraction(c) for e, c in F.items()}
    numeric = {(0,) * nvars: Fraction(1)}

    def num_mul(a, b):
        out = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if cap.admits(e):
                    out[e] = out.get(e, Fraction(0)) + v1 * v2
        return {e: v for e, v in out.items() if v}

    for d in range(1, total + 1):
        shifted = {
            tuple(x * d for x in e): v
            for e, v in base.items()
            if cap.admits(tuple(x * d for x in e))
        }
        a_d = sum(v * q**k for k, v in weight_qpoly(d, s).items())
        assert a_d.denominator == 1 and a_d >= 0
        power = {(0,) * nvars: Fraction(1)}
        sq = shifted
        k = int(a_d)
        while k:
            if k & 1:
                power = num_mul(power, sq)
            sq = num_mul(sq, sq)
            k >>= 1
        numeric = num_mul(numeric, power)

    motivic = euler_product_p1(F, s, cap).coeffs
    for e in itertools.product(*(range(b + 1) for b in box)):
        c = motivic.get(e)
        value = c.evaluate(q) if c is not None else Fraction(0)
        assert value == numeric.get(e, 0), e


def test_multiplicativity_in_the_local_factor():
    """EP(F*G) = EP(F)*EP(G), coefficientwise under the shared cap."""
    cap = SeriesCap((5,))
    F = IntPoly(1, {(0,): 1, (1,): -1})
    G = IntPoly(1, {(0,): 1, (1,): 1})
    FG = IntPoly(1, {(0,): 1, (2,): -1})
    lhs = euler_product_p1(FG, 0, cap)
    rhs = ser_mul(as_reference(euler_product_p1(F, 0, cap)),
                  as_reference(euler_product_p1(G, 0, cap)), cap)
    assert as_reference(lhs) == rhs


def test_cut_and_paste_removes_one_local_factor():
    """Removing a rational point divides the product by one local factor:
    EP over the s-punctured line times F equals EP over the (s-1)-punctured
    line."""
    cap = SeriesCap((4,))
    for coeffs in ({(0,): 1, (1,): -1}, {(0,): 1, (1,): 1},
                   {(0,): 1, (1,): 1, (2,): 1}):
        F = IntPoly(1, coeffs)
        f_series = {e: {0: Fraction(c)} for e, c in F.items()}
        for s in (1, 2):
            left = ser_mul(as_reference(euler_product_p1(F, s, cap)),
                           f_series, cap)
            right = as_reference(euler_product_p1(F, s - 1, cap))
            assert left == right, (coeffs, s)


def test_zeta_coefficients():
    jmax = 6
    z0 = zeta_p1_coeffs(0, jmax)
    z1 = zeta_p1_coeffs(1, jmax)
    z2 = zeta_p1_coeffs(2, jmax)
    for j in range(jmax + 1):
        assert z0[j] == LaurentClass({i: 1 for i in range(j + 1)})
        assert z1[j] == LaurentClass({j: 1})
    assert z2[0] == ONE
    for j in range(1, jmax + 1):
        assert z2[j] == LaurentClass({j: 1}) - LaurentClass({j - 1: 1})
    # removing a point is division by one zeta factor, coefficientwise
    for s, za, zb in ((1, z1, z0), (2, z2, z1)):
        for j in range(1, jmax + 1):
            assert za[j] == zb[j] - zb[j - 1], (s, j)


@pytest.mark.parametrize("s", [0, 1, 2, 3, 5])
def test_zeta_walk_gives_the_packed_coefficients(s):
    """The configuration terms take their zeta coefficients from the walk
    of one axis started at t^0: the values at L = 2^w of the classes."""
    for top, w in itertools.product(range(9), (4, 9, 64)):
        zeta = [1] + [0] * top
        _walk(zeta, top + 1, s, w)
        assert zeta == [packed_class(z, w) for z in zeta_p1_coeffs(s, top)]


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_lane_walk_matches_the_walk_by_runs(n):
    """The lane walk against the walk one run at a time, on boxes of
    random signed integers wider than the digit width, sides 1..6 (side
    1 is the box of one cell), for a narrow and a wide L = 2^w."""
    rng = random.Random(n)
    for side, s, w in itertools.product(range(1, 7), range(4), (3, 150)):
        box = [rng.getrandbits(200) - (1 << 199) for _ in range(side**n)]
        want = list(box)
        walk_by_runs(want, side, s, w)
        _walk(box, side, s, w)
        assert box == want, (side, s, w)


def test_global_mobius_p1(p1):
    gm = global_mobius(p1, 0, SeriesCap.total_cap(2, 8))
    assert gm[(0, 0)] == ONE
    assert gm[(1, 1)] == -(L + ONE)
    assert gm[(2, 2)] == L
    assert (1, 0) not in gm
    assert (2, 1) not in gm
    assert (3, 3) not in gm


def test_global_mobius_p2_diagonal(p2):
    gm = global_mobius(p2)
    assert gm[(1, 1, 1)] == -(L + ONE)
    assert gm[(2, 2, 2)] == L
    for e in gm:
        assert e == (0, 0, 0) or len(set(e)) == 1, e


def test_global_mobius_dp6_goldens(dp6):
    gm = global_mobius(dp6, 0, SeriesCap((2, 2, 1, 1, 1, 1)))
    assert gm[(1, 1, 0, 0, 1, 0)] == L + ONE
    assert gm[(1, 1, 1, 0, 0, 0)] == 2 * (L + ONE)
    assert gm[(2, 2, 0, 0, 0, 0)] == L
    assert gm[(0, 0, 0, 0, 0, 0)] == ONE


def test_global_mobius_dimension_bound(fans):
    """dim(mu(e) L^-|e|) <= -ceil(|e|/2) on every fixture."""
    for name, fan in fans.items():
        cap = SeriesCap.total_cap(fan.nrays, 6)
        gm = global_mobius(fan, 0, cap)
        for e, value in gm.items():
            if not value:
                continue
            total = sum(e)
            assert value.virtual_dimension - total <= -((total + 1) // 2), (
                name, e)


def test_euler_product_at_Linv_goldens(p1, p2):
    s4 = euler_product_at_Linv(p1, 0, 4)
    assert s4.known == LaurentClass({0: 1, -1: -1, -2: -1})
    assert s4.floor == -2
    s0 = euler_product_at_Linv(p1, 0, 0)
    assert s0.known == ONE and s0.floor == 0
    s12 = euler_product_at_Linv(p2, 0, 12)
    assert s12.known == LaurentClass({0: 1, -2: -1, -3: -1, -5: 1})
    assert s12.floor == -6


def test_euler_product_at_Linv_matches_mobius_sum(fans):
    """The one-variable diagonal route against the n-variable table."""
    for name, fan in fans.items():
        for s, E in itertools.product((0, 1, 2, 3), (0, 1, 5, 8)):
            gm = global_mobius(fan, s, SeriesCap.total_cap(fan.nrays, E))
            acc = ZERO
            for e, value in gm.items():
                acc = acc + value.shift(-sum(e))
            series = euler_product_at_Linv(fan, s, E)
            floor = 1 - ((E + 2) // 2)
            assert series.floor == floor, (name, s, E)
            assert series.known == acc.truncate_below(floor), (name, s, E)


def test_euler_product_at_Linv_guards_the_dimension_bound(p2, monkeypatch):
    # the diagonal of 1 + t1 is 1 + u; its Euler product has u^1
    # coefficient L + 1, and dim - 1 = 0 is above -ceil(1/2) = -1
    one_plus_t1 = IntPoly(3, {(0, 0, 0): 1, (1, 0, 0): 1})
    monkeypatch.setattr(
        "toricurves.eulerprod.fan_mobius_polynomial", lambda fan: one_plus_t1
    )
    with pytest.raises(InternalCheckError, match=r"at \(1,\) has dimension 1"):
        euler_product_at_Linv(p2, 0, 4)


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_coefficients_lie_below_the_majorant(fans, s):
    """The bound that fixes the engine's digit width holds: the absolute
    q-coefficients of the coefficients at all e with |e| = n sum to at
    most the majorant's coefficient at n, so every read-back digit is
    below 2^(w-2)."""
    for name, fan in fans.items():
        P = fan_mobius_polynomial(fan)
        for cap in (SeriesCap.total_cap(fan.nrays, 8),
                    SeriesCap((2,) * fan.nrays)):
            support = {e: c for e, c in P.items() if any(e) and cap.admits(e)}
            bound = _majorant(support, s, cap.total)
            sizes = [0] * len(bound)
            for e, value in euler_product_p1(P, s, cap).items():
                sizes[sum(e)] += sum(abs(c) for _, c in value.terms())
            for n, size in enumerate(sizes):
                assert size <= bound[n], (name, cap, n)


def test_engine_refuses_digits_beyond_the_majorant(monkeypatch):
    # a majorant that is too small leaves too few bits per digit: at
    # w = 3 the readback meets digits of absolute value 2 or more
    monkeypatch.setattr(
        "toricurves.eulerprod._majorant", lambda support, s, total: [1]
    )
    F = IntPoly(1, {(0,): 1, (2,): -9, (3,): 16})
    with pytest.raises(InternalCheckError, match="exceeds its majorant"):
        euler_product_p1(F, 0, SeriesCap((4,)))


def test_engine_answers_per_variable_caps_above_63():
    # prod_p (1 - (t1 t2)^deg p) = (1 - t1 t2)(1 - L t1 t2): the packing
    # width follows the cap, so no key of the product aliases another
    cap = SeriesCap((70, 70))
    got = euler_product_p1(IntPoly(2, {(0, 0): 1, (1, 1): -1}), 0, cap)
    assert got.coeffs == {(0, 0): ONE, (1, 1): -(L + ONE), (2, 2): L}


def test_engine_rejects_nonunit_constant_term():
    with pytest.raises(ValueError, match="constant term 1"):
        euler_product_p1(IntPoly(1, {(0,): 2}), 0, SeriesCap((2,)))


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_power_recurrence_matches_the_binomial_expansion(fans, s):
    """Each factor F^(a_d) from Miller's recurrence equals
    sum_k binom(a_d, k) (F - 1)^k: the same width, rest and first on
    uniform boxes, total caps and the one-variable diagonal."""
    for name, fan in fans.items():
        P = fan_mobius_polynomial(fan)
        small = fan.nrays < 6
        caps = [SeriesCap((b,) * fan.nrays)
                for b in range(7 if small else 4)]
        caps += [SeriesCap.total_cap(fan.nrays, t)
                 for t in range(13 if small else 9)]
        cases = [(P, cap) for cap in caps]
        diagonal = IntPoly(1, (((sum(e),), c) for e, c in P.items()))
        cases.append((diagonal, SeriesCap((12,))))
        for F, cap in cases:
            keys, w, _, base, rest = _rest_factors(F, s, cap, 7)
            first = _power(base, _points(1, s, w), keys)
            _, want_w, _, want_rest, want_first = binomial_factors(
                F, s, cap, reach=7)
            assert w == want_w, (name, cap)
            assert rest == want_rest, (name, cap)
            assert first == want_first, (name, cap)


def test_power_recurrence_checks_each_division():
    # (1 + t)^(1/2) has t coefficient 1/2: a half-integer exponent is
    # an input the recurrence assumes away, and its first division by
    # |e| leaves a remainder
    keys = _Keys(SeriesCap((3,)))
    t = {keys.pack((1,)): 1}
    assert _power(t, 3, keys) == {
        keys.pack((j,)): math.comb(3, j) for j in range(4)
    }
    with pytest.raises(InternalCheckError, match=r"at \(1,\) is not divisible"):
        _power(t, Fraction(1, 2), keys)


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_dense_power_and_support_count_match_the_sparse_power(fans, s):
    """On the uniform boxes the configuration classes use, sides 0..6
    (0..4 on dp6): U pulled into the dense box is _power's U placed in
    it, zero on every cell outside the sparse power's support."""
    for name, fan in fans.items():
        n = fan.nrays
        for side in range(5 if name == "dp6" else 7):
            cap = SeriesCap((side,) * n)
            keys, w, _, base, rest = _rest_factors(
                fan_mobius_polynomial(fan), s, cap, None)
            a = _points(1, s, w)
            first = _power(base, a, keys)
            want = [0] * (side + 1) ** n
            for key, value in first.items():
                e = keys.unpack(key)
                want[sum(x * (side + 1) ** i for i, x in enumerate(e))] = value
            perms = toric._symmetries(n, toric.pattern_set(fan).minimal).perms
            assert _dense_power(base, a, keys, perms) == want, (name, side)


def test_dense_power_checks_its_terms_and_each_division(dp6, monkeypatch):
    keys = _Keys(SeriesCap((3,)))
    t = {keys.pack((1,)): 1}
    one = [(0,)]
    assert _dense_power(t, 3, keys, one) == [math.comb(3, j) for j in range(4)]
    with pytest.raises(InternalCheckError, match=r"at \(1,\) is not divisible"):
        _dense_power(t, Fraction(1, 2), keys, one)
    # x^2 lies below e without its support deciding it
    with pytest.raises(InternalCheckError, match="exponent above 1"):
        _dense_power({keys.pack((2,)): 1}, 3, keys, one)
    # a_1 off by one half: dp6 at side 2 takes the walk, and its first
    # division by |e| that meets a term leaves a remainder
    points = eulerprod._points
    monkeypatch.setattr(
        eulerprod, "_points",
        lambda d, s, w: points(d, s, w) + (Fraction(1, 2) if d == 1 else 0))
    with pytest.raises(InternalCheckError, match="is not divisible"):
        eulerprod._config_terms(toric.pattern_set(dp6), 0, 2)


def _power_inputs(fan, s, side):
    """The packed terms of F - 1, a_1 and the keys of the uniform box."""
    cap = SeriesCap((side,) * fan.nrays)
    keys, w, _, base, _ = _rest_factors(fan_mobius_polynomial(fan), s, cap, None)
    return base, _points(1, s, w), keys


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_orbit_power_matches_the_power_by_cells(fans, s):
    """U pulled once per orbit equals U pulled cell by cell, with the
    automorphisms the search lists and with the identity alone, at
    sides 0..6, and 0..4 on dp6."""
    for name, fan in fans.items():
        n = fan.nrays
        perms = toric._symmetries(n, toric.pattern_set(fan).minimal).perms
        for side in range(5 if name == "dp6" else 7):
            base, a, keys = _power_inputs(fan, s, side)
            want = dense_power_by_cells(base, a, keys)
            assert _dense_power(base, a, keys, perms) == want, (name, side)
            assert _dense_power(base, a, keys, [tuple(range(n))]) == want


@pytest.mark.parametrize("nrays", [5, 7])
def test_orbit_power_on_unequal_halves(polygon_document, nrays):
    """U pulled once per orbit equals U pulled cell by cell on the 5-gon
    and the 7-gon, where an image's position is read from halves of 2
    and 3, or 3 and 4, axes, at sides 0..3."""
    fan = toric.parse_fan(polygon_document(nrays))
    perms = toric._symmetries(nrays, toric.pattern_set(fan).minimal).perms
    assert len(perms) > 1
    for side in range(4):
        base, a, keys = _power_inputs(fan, 0, side)
        assert (_dense_power(base, a, keys, perms)
                == dense_power_by_cells(base, a, keys)), side


def test_orbit_power_with_part_of_the_group(dp6, polygon_document):
    """The 12-gon and dp6 x dp6, whose search stops at its node bound
    with part of the group (8 of 24 and 28 of 288 cosets), at sides 0
    and 1."""
    for fan in (toric.parse_fan(polygon_document(12)), fan_product(dp6, dp6)):
        sym = toric._symmetries(fan.nrays, toric.pattern_set(fan).minimal)
        assert sym.nodes == toric.SYMMETRY_NODES and len(sym.perms) > 1
        for side in (0, 1):
            base, a, keys = _power_inputs(fan, 0, side)
            assert (_dense_power(base, a, keys, sym.perms)
                    == dense_power_by_cells(base, a, keys)), side


def test_orbit_power_checks_each_permutation(dp6):
    """A permutation that does not keep the pattern polynomial is refused
    before any cell is shared: swapping two adjacent rays of the hexagon
    moves the term of the pattern {0, 2}.  Called directly, past the
    check of the orbit-key memo."""
    found = toric._symmetries(6, toric.pattern_set(dp6).minimal)
    base, a, keys = _power_inputs(dp6, 0, 2)
    perms = found.perms + ((1, 0, 2, 3, 4, 5),)
    with pytest.raises(InternalCheckError, match=r"permutation \(1, 0,"):
        _dense_power(base, a, keys, perms)
