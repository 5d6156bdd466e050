"""Laurent classes, dimension-truncated series, and series caps."""

import re
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
    MultiSeries,
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

    @pytest.mark.parametrize("coeffs, what", [
        ({0: 2.5, 1.9: 3}, "coefficient 2.5"),
        ({1.9: 3}, "exponent 1.9"),
        ({"2": "7"}, "exponent '2'"),
        ({0: True}, "coefficient True"),
    ])
    def test_refuses_terms_that_are_not_integers(self, coeffs, what):
        # int() made {0: 2.5, 1.9: 3} the class 3*L + 2, and {"2": "7"} 7*L^2
        with pytest.raises(ValueError, match=re.escape(f"{what} is not an")):
            LaurentClass(coeffs)

    @pytest.mark.parametrize("k", [0.5, 1.0, True, "1"])
    def test_shift_refuses_a_power_that_is_not_an_integer(self, k):
        # ONE.shift(0.5) was L^0.5
        with pytest.raises(ValueError, match=f"shift {k!r} is not an"):
            ONE.shift(k)

    def test_shift_is_monomial_multiplication(self):
        x = LaurentClass({2: 3, -1: 5})
        assert x.shift(4) == x * LaurentClass({4: 1})
        assert x.shift(0) == x

    def test_evaluate_with_negative_exponents(self):
        x = L - LaurentClass({-1: 1})
        assert x.evaluate(2) == Fraction(3, 2)
        assert evaluate(x, 3) == Fraction(8, 3)

    @pytest.mark.parametrize("q", [2.5, 2.0, True, "2"])
    def test_evaluate_refuses_a_point_that_is_not_an_integer(self, q):
        # 2.5 used to go through float powers, and 2.0 gave a float value
        with pytest.raises(ValueError, match=f"point {q!r} is not an integer"):
            LaurentClass({60: 1}).evaluate(q)

    def test_virtual_dimension(self):
        assert (L**3 + L).virtual_dimension == 3
        assert LaurentClass({-2: 1}).virtual_dimension == -2
        assert ZERO.virtual_dimension is MINUS_INFINITY

    def test_truncate_below(self):
        x = LaurentClass({2: 1, 0: 1, -3: 7})
        assert x.truncate_below(-1) == LaurentClass({2: 1, 0: 1})
        assert x.truncate_below(-5) == x

    def test_str(self):
        assert str(L**2 + L + ONE) == "L^2 + L + 1"
        assert str(L - LaurentClass({-1: 1})) == "L - L^-1"
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
        assert DimSeries.exact(7).known == LaurentClass({0: 7})

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
        geom = DimSeries.exact((ONE - LaurentClass({-1: 1})) ** 2)
        assert (inv2 * geom).known == ONE
        with pytest.raises(ValueError):
            inverse_one_minus_Linv_pow(0, -1)

    @pytest.mark.parametrize("floor", [-1.5, -2.0, True, "-2"])
    def test_refuses_a_floor_that_is_not_an_integer(self, floor):
        with pytest.raises(ValueError, match=f"floor {floor!r} is not an"):
            DimSeries(ONE, floor)

    @pytest.mark.parametrize("k", [0.5, 1.0, True])
    def test_shift_refuses_a_power_that_is_not_an_integer(self, k):
        # the floor of DimSeries(ONE, -2).shift(0.5) was -1.5
        for series in (DimSeries(ONE, -2), DimSeries.exact(ONE)):
            with pytest.raises(ValueError, match=f"shift {k!r} is not an"):
                series.shift(k)

    @pytest.mark.parametrize("r, floor, what", [
        (1.5, -2, "exponent r 1.5"),
        (True, -2, "exponent r True"),
        (2, -2.0, "floor -2.0"),
    ])
    def test_inverse_power_refuses_arguments_that_are_not_integers(
            self, r, floor, what):
        # (1.5, -2) gave 1 + L^-1 + L^-2
        with pytest.raises(ValueError, match=re.escape(f"{what} is not an")):
            inverse_one_minus_Linv_pow(r, floor)

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
        cap = SeriesCap((2, 3))
        assert cap.box == (2, 3) and cap.total == 5
        assert cap.admits((2, 3)) and not cap.admits((3, 0))

    def test_total_cap(self):
        cap = SeriesCap.total_cap(3, 2)
        assert cap.admits((1, 1, 0)) and not cap.admits((1, 1, 1))

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            SeriesCap((1, 1)).admits((1, 1, 1))

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
        assert cap == SeriesCap((2, 3)) and cap.total == 5
        assert hash(cap) == hash(SeriesCap((2, 3)))


class TestMultiSeries:
    @pytest.mark.parametrize("entry", [1.9, 1.0, True, "1"])
    def test_refuses_exponents_that_are_not_integers(self, entry):
        # int() kept the term at 1.9 as one at 1
        with pytest.raises(ValueError, match=f"exponent {entry!r} is not an"):
            MultiSeries(["t1"], SeriesCap((3,)), {(entry,): 5})
