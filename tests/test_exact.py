"""Arithmetic kernel: rationals, polynomials, rational functions."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from debranges.exact import (
    Poly,
    RationalFunction,
    binomial,
    format_rational,
    pochhammer,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def poly_strategy(var="y", max_degree=6):
    return st.lists(rationals, min_size=0, max_size=max_degree + 1).map(
        lambda cs: Poly(cs, var)
    )


class TestRationalScalar:
    def test_normalization(self):
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(-1, -2) == Fraction(1, 2)
        assert Fraction(-1, 2).denominator == 2  # denominator kept positive

    def test_addition(self):
        assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    def test_format(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(8, 4)) == "2"
        assert format_rational(Fraction(-5, 10)) == "-1/2"


class TestPoly:
    def test_derivative(self):
        assert Poly([0, 0, 1], "y").derivative() == Poly([0, 2], "y")

    def test_gcd(self):
        a = Poly([-1, 0, 1], "y")  # y^2 - 1
        b = Poly([-1, 1], "y")  # y - 1
        assert a.gcd(b) == b

    def test_resultant_linear(self):
        assert Poly([0, 1], "l").resultant(Poly([2, 1], "l")) == 2

    def test_shift(self):
        p = Poly([0, 0, 1], "x")  # x^2
        assert p.shift(1) == Poly([1, 2, 1], "x")

    def test_subs_linear_round_trip(self):
        p = Poly([1, -3, 2], "x")
        q = p.subs_linear(-2, 1, "y")  # x -> 1 - 2y
        back = q.subs_linear(Fraction(-1, 2), Fraction(1, 2), "x")
        assert back == p

    def test_exact_div(self):
        num = Poly([-1, 0, 1], "y")
        assert num.exact_div(Poly([1, 1], "y")) == Poly([-1, 1], "y")
        with pytest.raises(ValueError):
            Poly([1, 1], "y").exact_div(Poly([0, 1], "y"))

    def test_mixed_variables_rejected(self):
        with pytest.raises(ValueError):
            Poly([1], "x") + Poly([1], "y")
        with pytest.raises(ValueError):
            Poly([1], "x") * Poly([1], "y")

    def test_divide_by_var(self):
        assert Poly([0, 2, 3], "y").divide_by_var() == Poly([2, 3], "y")
        with pytest.raises(ValueError):
            Poly([1, 2], "y").divide_by_var()

    def test_leading_normalization(self):
        assert Poly([1, 2, 0, 0], "y").degree == 1
        assert Poly([], "y").is_zero()

    def test_evaluation(self):
        p = Poly([1, -1, 2], "y")
        assert p(Fraction(1, 2)) == 1 - Fraction(1, 2) + 2 * Fraction(1, 4)

    @given(p=poly_strategy(), q=poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_both(self, p, q):
        if p.is_zero() and q.is_zero():
            return
        g = p.gcd(q)
        if not p.is_zero():
            p.exact_div(g)
        if not q.is_zero():
            q.exact_div(g)

    @given(p=poly_strategy(), q=poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_exact_division_inverts_product(self, p, q):
        if q.is_zero():
            return
        assert (p * q).exact_div(q) == p

    @given(p=poly_strategy(), q=poly_strategy(), r=poly_strategy())
    @settings(max_examples=40, deadline=None)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(p=poly_strategy("l", 4), q=poly_strategy("l", 4))
    @example(p=Poly([0, 1], "l"), q=Poly([1, 0, 0, 1], "l"))
    @settings(max_examples=30, deadline=None)
    def test_resultant_matches_sympy(self, p, q):
        # the oracle is the Sylvester determinant: sympy's resultant() has the
        # wrong sign for Res(l, l^3 + 1), which is 1 by definition
        sympy = pytest.importorskip("sympy")
        from sympy.polys.subresultants_qq_zz import sylvester

        if p.degree < 1 or q.degree < 1:
            return
        l = sympy.Symbol("l")
        sp = sum(sympy.Rational(c) * l**i for i, c in enumerate(p.coeffs))
        sq = sum(sympy.Rational(c) * l**i for i, c in enumerate(q.coeffs))
        expected = sylvester(sp, sq, l).det()
        assert sympy.Rational(str(p.resultant(q))) == expected


class TestRationalFunction:
    def test_normalization(self):
        rf = RationalFunction(Poly([0, 2], "l"), Poly([0, 0, 2], "l"))
        assert rf.num == Poly([1], "l")
        assert rf.den == Poly([0, 1], "l")

    def test_monic_denominator(self):
        rf = RationalFunction(Poly([1], "l"), Poly([2, 4], "l"))
        assert rf.den.leading == 1

    def test_arithmetic(self):
        l = Poly.variable("l")
        rf = RationalFunction(l + 1, l)
        assert rf - 1 == RationalFunction(Poly.const(1, "l"), l)
        assert (rf * RationalFunction(l, l + 1)).is_one()

    def test_shift(self):
        l = Poly.variable("l")
        rf = RationalFunction(l + 1, l)
        assert rf.shift(-1) == RationalFunction(l, l - 1)

    def test_pole_evaluation(self):
        rf = RationalFunction(Poly([1], "l"), Poly([0, 1], "l"))
        with pytest.raises(ZeroDivisionError):
            rf(0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Poly([1], "l"), Poly.zero("l"))


class TestCombinatorics:
    def test_binomial_values(self):
        assert binomial(4, 1) == 4
        assert binomial(5, 0) == 1
        assert binomial(4, 7) == 0
        assert binomial(4, -1) == 0

    def test_binomial_negative_upper(self):
        # upper negation: C(-1, k) = (-1)^k
        assert [binomial(-1, k) for k in range(4)] == [1, -1, 1, -1]
        assert binomial(-3, 2) == 6

    def test_pochhammer_values(self):
        assert pochhammer(Fraction(1), 0) == 1
        assert pochhammer(1 - 2, 1) == -1  # (1-n)_1 at n = 2
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)

    @given(
        a=rationals,
        j=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_pochhammer_recurrence(self, a, j):
        assert pochhammer(a, j + 1) == pochhammer(a, j) * (a + j)
