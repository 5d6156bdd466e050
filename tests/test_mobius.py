"""Local Mobius tables, generating polynomials, and the torsor identity."""

import itertools

import pytest
from hypothesis import given, strategies as st

from toricurves.errors import LimitError
from toricurves.grothendieck import L, ONE
from toricurves.mobius import (
    IntPoly,
    fan_mobius_polynomial,
    generating_polynomial,
    local_identity_check,
    local_identity_sides,
    mobius_table,
    mu_grouped_by_subgraph,
    torsor_class,
)
from toricurves.toric import (
    PatternSet,
    class_of_variety,
    pattern_set,
    picard_data,
)


def _poly(nvars, terms):
    return IntPoly(nvars, {tuple(e): c for e, c in terms})


def _ones(positions, nvars):
    return tuple(1 if i in positions else 0 for i in range(nvars))


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
        table = mobius_table(pats)
        nu = fan.nrays
        for support in itertools.product((0, 1), repeat=nu):
            total = sum(
                table.mu(sub)
                for sub in itertools.product((0, 1), repeat=nu)
                if all(s <= t for s, t in zip(sub, support))
            )
            expected = 0 if pats.lies_above(support) else 1
            assert total == expected, (name, support)


def test_table_guard_is_a_limit(p2):
    with pytest.raises(LimitError, match="internal limit of 2 variables"):
        mobius_table(pattern_set(p2), max_vars=2)
    with pytest.raises(LimitError, match="internal limit of 24 variables"):
        mobius_table(PatternSet(25, (frozenset({0, 1}),)))


def test_intpoly_arithmetic_rejects_arity_mismatch():
    # a raised ValueError, not an assert, so that python -O keeps the check
    one_var = _poly(1, [((1,), 1)])
    two_vars = _poly(2, [((1, 0), 1)])
    with pytest.raises(ValueError, match="exponent arity mismatch"):
        one_var + two_vars
    with pytest.raises(ValueError, match="exponent arity mismatch"):
        one_var * two_vars


def test_generating_polynomial_matches_table(p2, dp6):
    for fan in (p2, dp6):
        table = mobius_table(pattern_set(fan))
        assert generating_polynomial(table) == fan_mobius_polynomial(fan)


def test_torsor_class_p2(p2):
    # A^3 minus the origin
    assert torsor_class(pattern_set(p2)) == L**3 - ONE


def test_torsor_class_p1xp1(p1xp1):
    # (A^2 minus 0) x (A^2 minus 0)
    assert torsor_class(pattern_set(p1xp1)) == (L**2 - ONE) ** 2


def test_local_identity_all_fans(fans):
    for name, fan in fans.items():
        assert local_identity_check(fan), name
        lhs, rhs = local_identity_sides(fan)
        assert lhs == rhs, name


def test_local_identity_sides_formula(fans):
    from toricurves.grothendieck import LaurentClass

    linv = LaurentClass.lefschetz(-1)
    for fan in fans.values():
        r = picard_data(fan).rank
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
    table = mobius_table(pats)
    support = tuple(data.draw(st.integers(0, 1)) for _ in range(nu))
    positions = frozenset(i for i, x in enumerate(support) if x)
    unions = {frozenset()}
    for _ in range(len(pats.minimal)):
        unions |= {u | m for u in unions for m in pats.minimal}
    if positions not in unions:
        assert table.mu(support) == 0
