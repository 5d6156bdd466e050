"""Laurent classes, dimension-truncated series, and series caps."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reference import (
    dim_series_from_json,
    is_exact,
    laurent_from_json,
    truncate,
)
from toricurves.grothendieck import (
    L,
    MINUS_INFINITY,
    ONE,
    ZERO,
    DimSeries,
    LaurentClass,
    SeriesCap,
    evaluate,
    inverse_one_minus_Linv_pow,
)

laurent = st.builds(
    LaurentClass,
    st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), max_size=5),
)


class TestLaurentClass:
    def test_zero_coefficients_dropped(self):
        assert LaurentClass({3: 0, 1: 2}) == LaurentClass({1: 2})
        assert not LaurentClass({3: 0})

    def test_golden_products(self):
        assert (L + ONE) * (L - ONE) == L**2 - ONE
        assert L * L.shift(-2) == L.shift(-1) * ONE
        assert (L - ONE) ** 2 == L**2 - 2 * L + ONE

    def test_shift_is_monomial_multiplication(self):
        x = LaurentClass({2: 3, -1: 5})
        assert x.shift(4) == x * LaurentClass.lefschetz(4)
        assert x.shift(0) == x

    def test_evaluate_with_negative_exponents(self):
        x = L - LaurentClass.lefschetz(-1)
        assert x.evaluate(2) == Fraction(3, 2)
        assert evaluate(x, 3) == Fraction(8, 3)

    @pytest.mark.parametrize("q", [2.5, 2.0, True, "2"])
    def test_evaluate_refuses_a_point_that_is_not_an_integer(self, q):
        # 2.5 used to go through float powers, and 2.0 gave a float value
        with pytest.raises(ValueError, match=f"point {q!r} is not an integer"):
            LaurentClass({60: 1}).evaluate(q)

    def test_virtual_dimension(self):
        assert (L**3 + L).virtual_dimension == 3
        assert LaurentClass.lefschetz(-2).virtual_dimension == -2
        assert ZERO.virtual_dimension is MINUS_INFINITY

    def test_truncate_below(self):
        x = LaurentClass({2: 1, 0: 1, -3: 7})
        assert x.truncate_below(-1) == LaurentClass({2: 1, 0: 1})
        assert x.truncate_below(-5) == x

    def test_str(self):
        assert str(L**2 + L + ONE) == "L^2 + L + 1"
        assert str(L - LaurentClass.lefschetz(-1)) == "L - L^-1"
        assert str(ZERO) == "0"
        assert str(LaurentClass({1: -2, 0: 1})) == "-2*L + 1"

    @given(laurent, laurent, laurent)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO

    @given(laurent, laurent)
    def test_evaluate_is_ring_morphism(self, a, b):
        q = 3
        assert (a + b).evaluate(q) == a.evaluate(q) + b.evaluate(q)
        assert (a * b).evaluate(q) == a.evaluate(q) * b.evaluate(q)

    @given(laurent, laurent)
    def test_dimension_of_product_adds(self, a, b):
        if a and b:
            assert (a * b).virtual_dimension == (
                a.virtual_dimension + b.virtual_dimension
            )

    @given(laurent, st.integers(0, 4))
    def test_power_matches_repeated_product(self, a, n):
        expected = ONE
        for _ in range(n):
            expected = expected * a
        assert a**n == expected

    @given(laurent)
    def test_json_round_trip(self, a):
        assert laurent_from_json(a.to_json()) == a


class TestDimSeries:
    def test_construction_truncates_below_floor(self):
        s = DimSeries(LaurentClass({1: 1, -3: 5}), -1)
        assert s.known == LaurentClass({1: 1})
        assert s.floor == -1

    def test_exact_has_no_floor(self):
        s = DimSeries.exact(L + ONE)
        assert is_exact(s) and s.floor is None
        assert DimSeries.exact(7).known == LaurentClass.of_int(7)

    def test_addition_keeps_the_higher_floor(self):
        a = DimSeries(LaurentClass({0: 1, -1: 1, -2: 1}), -2)
        b = DimSeries(LaurentClass({0: 1, -1: 1}), -1)
        total = a + b
        assert total.floor == -1
        assert total.known == LaurentClass({0: 2, -1: 2})

    def test_multiplication_floor_rule(self):
        # the unknown tail of each factor meets the top of the other
        a = DimSeries(LaurentClass({2: 1}), -1)  # dim 2, floor -1
        b = DimSeries(LaurentClass({3: 1}), -2)  # dim 3, floor -2
        prod = a * b
        assert prod.floor == max(-1 + 3, -2 + 2, -1 + -2)
        assert prod.known == LaurentClass({5: 1}).truncate_below(prod.floor)

    def test_multiplication_by_exact_shifts_floor_by_dimension(self):
        a = DimSeries(LaurentClass({0: 1, -1: -1}), -1)
        e = DimSeries.exact(L**2)
        assert (a * e).floor == 1
        assert (a * e).known == LaurentClass({2: 1, 1: -1})

    def test_shift(self):
        a = DimSeries(LaurentClass({0: 1, -2: 1}), -2)
        s = a.shift(3)
        assert s.floor == 1 and s.known == LaurentClass({3: 1, 1: 1})

    def test_truncate_never_lowers_the_floor(self):
        a = DimSeries(LaurentClass({0: 1, -1: 1}), -1)
        assert truncate(a, -5).floor == -1
        assert truncate(a, 0).floor == 0

    def test_inverse_one_minus_Linv_pow(self):
        inv1 = inverse_one_minus_Linv_pow(1, -3)
        assert inv1.known == LaurentClass({0: 1, -1: 1, -2: 1, -3: 1})
        inv2 = inverse_one_minus_Linv_pow(2, -2)
        assert inv2.known == LaurentClass({0: 1, -1: 2, -2: 3})
        geom = DimSeries.exact((ONE - LaurentClass.lefschetz(-1)) ** 2)
        assert (inv2 * geom).known == ONE
        with pytest.raises(ValueError):
            inverse_one_minus_Linv_pow(0, -1)

    def test_json_round_trip(self):
        s = DimSeries(LaurentClass({1: 1, -1: -1}), -2)
        assert dim_series_from_json(s.to_json()) == s
        e = DimSeries.exact(L)
        assert dim_series_from_json(e.to_json()) == e


class TestMinusInfinity:
    def test_ordering(self):
        assert MINUS_INFINITY < -(10**9)
        assert not (MINUS_INFINITY > 0)
        assert MINUS_INFINITY <= MINUS_INFINITY
        assert MINUS_INFINITY == MINUS_INFINITY

    def test_absorbing_addition(self):
        assert MINUS_INFINITY + 5 is MINUS_INFINITY
        assert ZERO.virtual_dimension + 3 is MINUS_INFINITY
        with pytest.raises(ArithmeticError):
            -MINUS_INFINITY


class TestSeriesCap:
    def test_box_cap_defaults_total_to_box_sum(self):
        cap = SeriesCap.box_cap((2, 3))
        assert cap.box == (2, 3) and cap.total == 5
        assert cap.admits((2, 3)) and not cap.admits((3, 0))

    def test_total_cap(self):
        cap = SeriesCap.total_cap(3, 2)
        assert cap.admits((1, 1, 0)) and not cap.admits((1, 1, 1))

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            SeriesCap.box_cap((1, 1)).admits((1, 1, 1))

    def test_needs_a_bound(self):
        with pytest.raises(ValueError):
            SeriesCap()

    @pytest.mark.parametrize("entry", [1.5, 1.0, True, "1"])
    def test_refuses_box_entries_that_are_not_integers(self, entry):
        # int() used to truncate 1.5 to 1
        with pytest.raises(ValueError, match=f"box entry {entry!r} is not"):
            SeriesCap((entry, 2))

    @pytest.mark.parametrize("total", [2.5, 2.0, True, "2"])
    def test_refuses_a_total_that_is_not_an_integer(self, total):
        with pytest.raises(ValueError, match=f"bound {total!r} is not"):
            SeriesCap((1, 2), total)

    def test_needs_a_box(self):
        with pytest.raises(ValueError, match="box"):
            SeriesCap(total=3)
        cap = SeriesCap(box=[2, 3])
        assert cap == SeriesCap.box_cap((2, 3)) and cap.total == 5
        assert hash(cap) == hash(SeriesCap.box_cap((2, 3)))
