"""The local Mobius polynomial, its JSON listing, and the torsor identity."""

import itertools
import json
import re

import pytest
from hypothesis import given, strategies as st

from reference import (
    fan_document,
    fan_product,
    lies_above,
    mu_grouped_by_subgraph,
    torsor_class,
)
from toricurves.cli import main
from toricurves.errors import LimitError
from toricurves.grothendieck import L, ONE, ZERO, LaurentClass
from toricurves.mobius import (
    IntPoly,
    fan_mobius_polynomial,
    local_identity_check,
    local_identity_sides,
    mobius_table,
)
from toricurves.toric import (
    PatternSet,
    class_of_variety,
    parse_fan,
    pattern_set,
    picard_rank,
)


def _poly(nvars, terms):
    return IntPoly(nvars, {tuple(e): c for e, c in terms})


def _ones(positions, nvars):
    return tuple(1 if i in positions else 0 for i in range(nvars))


@pytest.mark.parametrize("coeffs, what", [
    ({(1.7, 0): 2.2}, "coefficient 2.2"),
    ({(1.7, 0): 2}, "exponent 1.7"),
    ({(1, "0"): 2}, "exponent '0'"),
    ({(1, 0): True}, "coefficient True"),
])
def test_int_poly_refuses_terms_that_are_not_integers(coeffs, what):
    # int() made {(1.7, 0): 2.2} the term 2*t1
    with pytest.raises(ValueError, match=re.escape(f"{what} is not an")):
        IntPoly(2, coeffs)


def test_projective_space_polynomials(fans):
    # the single primitive collection is the full ray set
    for name, n in (("p1", 1), ("p2", 2), ("p3", 3)):
        nv = n + 1
        expect = _poly(nv, [((0,) * nv, 1), ((1,) * nv, -1)])
        assert fan_mobius_polynomial(fans[name]) == expect, name


def test_one_point_blowup_polynomial(bl1p2):
    # 1 - (t0 t2 + t1 t3) + t0 t1 t2 t3 in the fixture's ray order
    expect = _poly(4, [
        ((0, 0, 0, 0), 1),
        ((1, 0, 1, 0), -1),
        ((0, 1, 0, 1), -1),
        ((1, 1, 1, 1), 1),
    ])
    assert fan_mobius_polynomial(bl1p2) == expect


def test_p1xp1_polynomial(p1xp1):
    expect = _poly(4, [
        ((0, 0, 0, 0), 1),
        ((1, 1, 0, 0), -1),
        ((0, 0, 1, 1), -1),
        ((1, 1, 1, 1), 1),
    ])
    assert fan_mobius_polynomial(p1xp1) == expect


DP6_PAIRS = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
             (0, 3), (1, 4), (2, 5)]
DP6_TRIPLES_COEFF2 = [(0, 1, 2), (3, 4, 5)]
DP6_TRIPLES_COEFF1 = [
    (1, 3, 4), (0, 3, 1), (0, 2, 3), (2, 3, 5), (1, 2, 4), (2, 4, 5),
    (0, 3, 4), (0, 1, 4), (0, 2, 5), (0, 3, 5), (1, 2, 5), (1, 4, 5),
]
DP6_QUADS = [
    (0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 4, 5),
    (0, 1, 2, 5), (2, 3, 4, 5), (0, 1, 2, 3),
    (0, 3, 4, 5), (0, 1, 2, 4), (1, 3, 4, 5),
]


def test_del_pezzo_polynomial_term_by_term(dp6):
    terms = [((0,) * 6, 1)]
    for pair in DP6_PAIRS:
        terms.append((_ones(pair, 6), -1))
    for triple in DP6_TRIPLES_COEFF2:
        terms.append((_ones(triple, 6), 2))
    for triple in DP6_TRIPLES_COEFF1:
        terms.append((_ones(triple, 6), 1))
    for quad in DP6_QUADS:
        terms.append((_ones(quad, 6), -1))
    terms.append(((1,) * 6, 1))
    expect = _poly(6, terms)
    got = fan_mobius_polynomial(dp6)
    assert got == expect
    # 34 distinct monomials in total
    assert len(got.coeffs) == 34


def test_mobius_recursion(fans):
    """mu is the Mobius function of containment on 0/1 supports:
    summing mu over subsets of an admissible support gives 1, over
    subsets of a forbidden support gives 0."""
    for name, fan in fans.items():
        pats = pattern_set(fan)
        mu = mobius_table(pats).coeffs
        nu = fan.nrays
        for support in itertools.product((0, 1), repeat=nu):
            total = sum(
                mu.get(sub, 0)
                for sub in itertools.product((0, 1), repeat=nu)
                if all(s <= t for s, t in zip(sub, support))
            )
            expected = 0 if lies_above(pats, support) else 1
            assert total == expected, (name, support)


def test_table_guard_is_a_limit():
    with pytest.raises(LimitError, match="internal limit of 24 variables"):
        mobius_table(PatternSet(25, ((0, 1),)))


def subset_sum_table(patterns):
    """Reference mu on every 0/1 vector, by Hamming weight and then the
    bit tuple: the indicator of "above no pattern" minus the sum of mu
    over the proper subsets, O(3^nvars)."""
    nu = patterns.nvars
    masks = sorted(range(1 << nu),
                   key=lambda m: (m.bit_count(), _mask_bits(m, nu)))
    mu = {}
    for m in masks:
        acc = 0
        sub = (m - 1) & m
        while m:
            acc += mu[sub]
            if sub == 0:
                break
            sub = (sub - 1) & m
        mu[m] = (0 if lies_above(patterns, _mask_bits(m, nu)) else 1) - acc
    return [(_mask_bits(m, nu), mu[m]) for m in masks]


def _mask_bits(m, nu):
    return tuple((m >> i) & 1 for i in range(nu))


def test_mobius_listing_matches_subset_sums(fans, polygon_document,
                                           tmp_path, capsys):
    """The union product against the subset sum, on the fixtures, on
    products of up to 12 rays and on the dense support of a 12-gon: the
    polynomial's coefficients, and the 2^n listing that analyze and
    mobius print in JSON."""
    dp6, p1 = fans["dp6"], fans["p1"]
    p1_6 = p1
    for _ in range(5):
        p1_6 = fan_product(p1_6, p1)
    cases = dict(fans)
    cases["dp6xdp6"] = fan_product(dp6, dp6)
    cases["p1^6"] = p1_6
    cases["dp6xp2xp1"] = fan_product(fan_product(dp6, fans["p2"]), p1)
    cases["12-gon"] = parse_fan(polygon_document(12))
    for name, fan in cases.items():
        mu = fan_mobius_polynomial(fan).coeffs
        want = subset_sum_table(pattern_set(fan))
        for n, v in want:
            assert mu.get(n, 0) == v, (name, n)
        assert set(mu) <= {n for n, _ in want}, name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(fan_document(fan)))
        listing = [{"n": list(n), "mu": v} for n, v in want]
        for command in ("analyze", "mobius"):
            assert main([command, str(path), "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["mobius"] == listing, (name, command)
    assert len(fan_mobius_polynomial(cases["12-gon"]).coeffs) == 3964


def test_torsor_class_p2(p2):
    # A^3 minus the origin
    assert torsor_class(pattern_set(p2)) == L**3 - ONE


def test_torsor_class_p1xp1(p1xp1):
    # (A^2 minus 0) x (A^2 minus 0)
    assert torsor_class(pattern_set(p1xp1)) == (L**2 - ONE) ** 2


def test_torsor_class_dp6xdp6(dp6):
    # the universal torsor of dp6 is [dp6] (L - 1)^4, squared for the product
    got = torsor_class(pattern_set(fan_product(dp6, dp6)))
    assert got == ((L**2 + 4 * L + ONE) * (L - ONE) ** 4) ** 2


def test_torsor_class_p1_6(p1):
    p1_6 = p1
    for _ in range(5):
        p1_6 = fan_product(p1_6, p1)
    assert torsor_class(pattern_set(p1_6)) == (L**2 - ONE) ** 6


def test_torsor_class_12_gon(polygon_document):
    # 54 primitive collections; the surface has class L^2 + 10 L + 1
    pats = pattern_set(parse_fan(polygon_document(12)))
    assert len(pats.minimal) == 54
    assert torsor_class(pats) == (L**2 + 10 * L + ONE) * (L - ONE) ** 10


def inclusion_exclusion_class(patterns):
    """Reference torsor class: inclusion-exclusion over every subset of
    the minimal patterns, 2^(number of patterns) terms."""
    nu = patterns.nvars
    total = ZERO
    for k in range(len(patterns.minimal) + 1):
        for combo in itertools.combinations(patterns.minimal, k):
            union = frozenset().union(*combo)
            total = total + LaurentClass({nu - len(union): (-1) ** k})
    return total


def test_torsor_class_matches_inclusion_exclusion(fans, polygon_document):
    dp6, p1 = fans["dp6"], fans["p1"]
    p1_6 = p1
    for _ in range(5):
        p1_6 = fan_product(p1_6, p1)
    cases = dict(fans)
    cases["dp6xdp6"] = fan_product(dp6, dp6)
    cases["p1^6"] = p1_6
    cases["dp6xp2xp1"] = fan_product(fan_product(dp6, fans["p2"]), p1)
    cases["7-gon"] = parse_fan(polygon_document(7))
    for name, fan in cases.items():
        pats = pattern_set(fan)
        assert len(pats.minimal) <= 18, name
        assert torsor_class(pats) == inclusion_exclusion_class(pats), name


def test_local_identity_all_fans(fans):
    for name, fan in fans.items():
        assert local_identity_check(fan), name
        lhs, rhs = local_identity_sides(fan)
        assert lhs == rhs, name


def test_local_identity_sides_formula(fans):
    linv = LaurentClass({-1: 1})
    for fan in fans.values():
        r = picard_rank(fan)
        n = fan.dim
        expect = class_of_variety(fan).shift(-n) * (ONE - linv) ** r
        _, rhs = local_identity_sides(fan)
        assert rhs == expect


def test_appendix_grouped_values(dp6):
    groups = mu_grouped_by_subgraph(dp6)
    edge = (2, ((0, 1),))
    triangle = (3, ((0, 1), (0, 2), (1, 2)))
    four_cycle = (4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    full = (6, tuple(sorted(
        tuple(sorted(p)) for p in
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5),
         (3, 4), (3, 5), (4, 5)]
    )))
    assert groups[(0, ())] == [1]
    assert groups[edge] == [-1]
    assert groups[triangle] == [2]
    assert groups[four_cycle] == [-1]
    for (size, _), values in groups.items():
        if size == 5:
            assert values == [0]
    assert groups[full] == [1]


@given(st.integers(2, 4), st.data())
def test_mobius_supported_on_pattern_unions(nu, data):
    """mu vanishes off unions of minimal patterns (supports that are not
    such unions get value 0)."""
    from toricurves import fixture_fan

    fan = fixture_fan({2: "p1", 3: "p2", 4: "p1xp1"}[nu])
    pats = pattern_set(fan)
    mu = mobius_table(pats).coeffs
    support = tuple(data.draw(st.integers(0, 1)) for _ in range(nu))
    positions = frozenset(i for i, x in enumerate(support) if x)
    unions = {frozenset()}
    for _ in range(len(pats.minimal)):
        unions |= {u | set(m) for u in unions for m in pats.minimal}
    if positions not in unions:
        assert mu.get(support, 0) == 0
