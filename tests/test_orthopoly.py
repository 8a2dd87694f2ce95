"""Gegenbauer / Jacobi layer, checked against generating-function oracles.

The oracles below expand the generating functions as truncated series with
x-polynomial coefficients, using only ring operations; they share no code
path with the closed-form monomial sum behind gegenbauer_minus_half or with
the three-term recurrence behind jacobi_poly.
"""

import functools
import math
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from debranges import cli, lowner, orthopoly
from debranges.exact import Poly, pochhammer
from debranges.orthopoly import (
    askey_gasper_scan,
    askey_gasper_sum,
    chain_gegenbauer_witness,
    gegenbauer_expansion_witness,
    gegenbauer_minus_half,
    gegenbauer_partial_sum_poly,
    gegenbauer_partial_sum_scan,
    jacobi_poly,
    to_y,
)
from debranges.series import ZSeries


def _choose(top: Fraction, m: int) -> Fraction:
    acc = Fraction(1)
    for i in range(m):
        acc = acc * (top - i) / (i + 1)
    return acc


def _poly_as_series(coeffs, order: int) -> ZSeries:
    """A polynomial in z, viewed as a series exact to the given order."""
    padded = list(coeffs) + [Poly.zero("x")] * (order + 1 - len(coeffs))
    return ZSeries(padded, "x")


def sqrt_series_oracle(order: int) -> ZSeries:
    """sqrt(1 - 2xz + z^2) expanded as sum_m (1/2 choose m) u^m, u = z(z-2x)."""
    u = _poly_as_series([Poly.zero("x"), Poly([0, -2], "x"), Poly.const(1, "x")], order)
    total = ZSeries.one(order, "x")
    u_pow = ZSeries.one(order, "x")
    for m in range(1, order + 1):
        u_pow = u_pow * u
        total = total + u_pow * _choose(Fraction(1, 2), m)
    return total


def jacobi_explicit(n: int, alpha: int, x: Fraction) -> Fraction:
    """P_n^(alpha, 0)(x) from the explicit sum
    sum_s C(n+alpha, n-s) C(n, s) ((x-1)/2)^s ((x+1)/2)^(n-s)."""
    u, v = (Fraction(x) - 1) / 2, (Fraction(x) + 1) / 2
    return sum(
        math.comb(n + alpha, n - s) * math.comb(n, s) * u**s * v ** (n - s) for s in range(n + 1)
    )


def jacobi_gf_oracle(alpha: int, order: int) -> ZSeries:
    """2^alpha / (R (1 - z + R)^alpha) with R = sqrt(1 - 2xz + z^2)."""
    root = sqrt_series_oracle(order)
    one_minus_z = _poly_as_series([Poly.const(1, "x"), Poly.const(-1, "x")], order)
    denom = math.prod([(one_minus_z + root).inverse()] * alpha, start=ZSeries.one(order, "x"))
    return root.inverse() * denom * Fraction(2**alpha)


def _former_jacobi_polys(n_max: int, alpha) -> list[Poly]:
    """P_0 .. P_(n_max) by the former builder, kept as an oracle: the
    three-term recurrence on Poly and Fraction temporaries."""
    alpha = Fraction(alpha)
    x = Poly.variable("x")
    rows = [Poly.const(1, "x"), x * Fraction(alpha + 2, 2) + Fraction(alpha, 2)]
    for n in range(2, n_max + 1):
        lead = Fraction(2 * n) * (n + alpha) * (2 * n + alpha - 2)
        if lead == 0:
            raise ValueError(f"three-term recurrence degenerates at n={n}, alpha={alpha}")
        mid = (x * ((2 * n + alpha) * (2 * n + alpha - 2)) + alpha * alpha) * (
            2 * n + alpha - 1
        )
        back = Fraction(2) * (n + alpha - 1) * (n - 1) * (2 * n + alpha)
        rows.append((mid * rows[-1] - back * rows[-2]) * (1 / lead))
    return rows[: n_max + 1]


def _former_gegenbauer_polys(n_max: int) -> list[Poly]:
    """C_0 .. C_(n_max) by the former builder, kept as an oracle: the
    Fraction sum of (1/2 choose m) C(m, n-m) (-2x)^(2m-n)."""
    halves = [_choose(Fraction(1, 2), 0)]
    for m in range(1, n_max + 1):
        halves.append(halves[-1] * (Fraction(1, 2) - m + 1) / m)
    polys = []
    for n in range(n_max + 1):
        coeffs = [Fraction(0)] * (n + 1)
        for m in range((n + 1) // 2, n + 1):
            power = 2 * m - n
            coeffs[power] += halves[m] * math.comb(m, n - m) * Fraction(-2) ** power
        polys.append(Poly(coeffs, "x"))
    return polys


class TestGegenbauer:
    def test_first_polynomials(self):
        assert gegenbauer_minus_half(0) == Poly.const(1, "x")
        assert gegenbauer_minus_half(1) == Poly([0, -1], "x")
        assert gegenbauer_minus_half(2) == Poly([Fraction(1, 2), 0, Fraction(-1, 2)], "x")

    def test_values_at_one(self):
        # sqrt((1-z)^2) = 1 - z, so the coefficients collapse at x = 1
        assert gegenbauer_minus_half(0)(1) == 1
        assert gegenbauer_minus_half(1)(1) == -1
        for n in range(2, 12):
            assert gegenbauer_minus_half(n)(1) == 0

    def test_generating_function_oracle(self):
        series = sqrt_series_oracle(25)
        for n in range(26):
            assert series.coefficient(n) == gegenbauer_minus_half(n)

    def test_expansion_at_one_holds_from_two(self):
        for n in range(2, 15):
            assert gegenbauer_expansion_witness(n) is None

    def test_expansion_at_one_fails_at_one(self):
        # the formula yields 1 - x while the generating function gives -x;
        # the mismatch is recorded, not patched
        assert gegenbauer_expansion_witness(1) is not None
        u = Poly([Fraction(1, 2), Fraction(-1, 2)], "x")
        formula_value = 2 * u  # the n = 1 instance of the expansion
        assert formula_value == Poly([1, -1], "x")
        assert gegenbauer_minus_half(1) == Poly([0, -1], "x")


def _pochhammer_expansion(n: int) -> Poly:
    """The x = 1 expansion of C_n^(-1/2) with each coefficient a product of
    pochhammer Fractions, as it was built before its integer row."""
    coeffs = [0] + [
        2 * pochhammer(1 - n, j) * pochhammer(n, j) / (math.factorial(j) * pochhammer(2, j))
        for j in range(n)
    ]
    return Poly(coeffs, "t").subs_linear(Fraction(-1, 2), Fraction(1, 2), "x")


class TestExpansionRow:
    """The integer row of the x = 1 expansion against its pochhammer form."""

    def test_the_row_is_the_pochhammer_expansion(self, monkeypatch):
        # against the zero polynomial, the witness prints the expansion itself
        monkeypatch.setattr(orthopoly, "gegenbauer_minus_half", lambda n: Poly.zero("x"))
        for n in range(1, 61):
            want = f"n={n}: {_pochhammer_expansion(n)} != 0"
            assert orthopoly.gegenbauer_expansion_witness(n) == want

    def test_the_n1_witness(self):
        assert orthopoly.gegenbauer_expansion_witness(1) == "n=1: -x + 1 != -x"


class TestChainDifference:
    def test_holds_from_two(self):
        for n in range(2, 15):
            assert chain_gegenbauer_witness(n) is None

    def test_fails_at_one(self):
        assert chain_gegenbauer_witness(1) is not None

    def test_difference_value_example(self):
        diff = gegenbauer_minus_half(3) - gegenbauer_minus_half(2)
        quotient = diff.exact_div(Poly([-1, 1], "x"))
        assert to_y(quotient) == lowner.chain_poly(2)


class TestVariableChange:
    def test_round_trip(self):
        p = Poly([1, -2, 3], "x")
        assert to_y(p).subs_linear(Fraction(-1, 2), Fraction(1, 2), "x") == p  # y = (1 - x)/2

    def test_wrong_variable_rejected(self):
        with pytest.raises(ValueError):
            to_y(Poly([1], "y"))


class TestJacobi:
    def test_constant(self):
        assert jacobi_poly(0, 2) == Poly.const(1, "x")

    def test_linear_case(self):
        assert jacobi_poly(1, 2) == Poly([1, 2], "x")

    def test_value_at_one(self):
        for alpha in (0, 2, 4, 6):
            for n in range(10):
                from debranges.exact import binomial

                assert jacobi_poly(n, alpha)(1) == binomial(n + alpha, n)

    def test_generating_function_oracle(self):
        for alpha in (2, 4):
            series = jacobi_gf_oracle(alpha, 25)
            for n in range(26):
                assert series.coefficient(n) == jacobi_poly(n, alpha)

    def test_poly_value_agreement(self):
        x = Fraction(-3, 7)
        for n in range(8):
            assert jacobi_poly(n, 4)(x) == jacobi_explicit(n, 4, x)

    def test_degenerate_recurrence_rejected(self):
        # the leading factor 2n (n + alpha) (2n + alpha - 2) vanishes at n = 2
        assert jacobi_poly(1, -2)(0) == -1
        with pytest.raises(ValueError, match="degenerates at n=2"):
            jacobi_poly(2, -2)

    def test_cold_call_deeper_than_the_recursion_limit(self):
        # one recursion per degree would need n frames; leave far fewer
        n, alpha = 150, Fraction(1, 7)
        expected = jacobi_poly(n, alpha)
        jacobi_poly.cache_clear()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            assert jacobi_poly(n, alpha) == expected
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("x", [0, -1, Fraction(1, 4), 0.25, 0.1])
    def test_value_accepts_int_fraction_and_float(self, x):
        # a float point is taken at its binary value
        value = jacobi_poly(3, 2)(Fraction(x))
        assert type(value) is Fraction
        assert value == jacobi_explicit(3, 2, Fraction(x))


class TestAskeyGasperSums:
    def test_constant_term(self):
        for k in range(4):
            assert askey_gasper_sum(0, k, Fraction(1, 3)) == 1

    def test_endpoint_zero(self):
        # P_0 + P_1^(2,0)(-1) = 1 - 1
        assert askey_gasper_sum(1, 1, -1) == 0

    def test_interior_positive(self):
        assert askey_gasper_sum(2, 1, 0) > 0

    def test_nonnegative_on_grid(self):
        grid = [Fraction(i, 5) for i in range(-5, 6)]
        for k in range(4):
            for n in range(13):
                for x in grid:
                    assert askey_gasper_sum(n, k, x) >= 0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            askey_gasper_sum(2, 1, Fraction(3, 2))

    @pytest.mark.parametrize("k", [1, 2])
    def test_generating_function_oracle(self, k):
        # the z^n coefficient of 2^a / (R (1 - z + R)^a) / (1 - z), a = 2k
        order = 12
        ones = ZSeries([Poly.const(1, "x")] * (order + 1), "x")
        sums = jacobi_gf_oracle(2 * k, order) * ones
        for n in range(order + 1):
            for x in (-1, Fraction(-3, 5), 0, Fraction(2, 7), 1):
                assert askey_gasper_sum(n, k, x) == sums.coefficient(n)(x)

    @pytest.mark.parametrize("x", [0, -1, 1, Fraction(1, 4), 0.25, -0.1])
    def test_accepts_int_fraction_and_float(self, x):
        value = askey_gasper_sum(4, 1, x)
        assert type(value) is Fraction
        assert value == sum(jacobi_poly(j, 2)(Fraction(x)) for j in range(5))

    def test_each_partial_sum_built_once(self):
        orthopoly.jacobi_partial_sum_poly.cache_clear()
        grid = [Fraction(i, 4) for i in range(-4, 5)]
        for _ in range(2):
            for k in range(3):
                for n in range(7):
                    for x in grid:
                        askey_gasper_sum(n, k, x)
        assert orthopoly.jacobi_partial_sum_poly.cache_info().misses == 3 * 7


class TestSqrtCoefficientPositivity:
    def test_partial_sum_example(self):
        assert gegenbauer_partial_sum_poly(2)(0) == Fraction(3, 2)

    def test_order_zero(self):
        for x in (Fraction(-1), Fraction(0), Fraction(1)):
            assert gegenbauer_partial_sum_poly(0)(x) == 1

    def test_scan_is_clean(self):
        grid = [Fraction(i, 10) for i in range(-10, 11)]
        assert gegenbauer_partial_sum_scan(12, grid) == []

    def test_each_partial_sum_is_the_last_plus_one_term(self, monkeypatch):
        orthopoly.gegenbauer_partial_sum_poly.cache_clear()
        direct = [
            sum((gegenbauer_minus_half(j) for j in range(n + 1)), Poly.zero("x"))
            for n in range(31)
        ]
        # the recursion reads its own memo, not the module name
        monkeypatch.setattr(orthopoly, "gegenbauer_partial_sum_poly", None)
        assert orthopoly._gegenbauer_partial_sum(30) == direct[30]
        assert [orthopoly._gegenbauer_partial_sum(n) for n in range(31)] == direct
        assert orthopoly._gegenbauer_partial_sum.cache_info().misses == 32  # n = -1 .. 30
        assert orthopoly._gegenbauer_partial_sum(-1) == Poly.zero("x")

    def test_partial_sums_match_series_quotient(self):
        # coefficients of sqrt(1 - 2xz + z^2)/(1 - z) are the partial sums
        order = 10
        quotient = sqrt_series_oracle(order) * ZSeries(
            [Poly.const(1, "x")] * (order + 1), "x"
        )
        for n in range(order + 1):
            x0 = Fraction(2, 7)
            assert quotient.coefficient(n)(x0) == gegenbauer_partial_sum_poly(n)(x0)


def _askey_gasper_loop(n_max, k, grid):
    """The scan as a loop of askey_gasper_sum calls, by n, then x."""
    return [
        (n, Fraction(x), value)
        for n in range(n_max + 1)
        for x in grid
        for value in [askey_gasper_sum(n, k, x)]
        if value < 0
    ]


def _gegenbauer_loop(n_max, grid):
    """The scan as a loop of Horner evaluations, by x, then n."""
    violations = []
    for x in map(Fraction, grid):
        for n in range(n_max + 1):
            value = orthopoly.gegenbauer_partial_sum_poly(n)(x)
            if value < 0:
                violations.append((n, x, value))
    return violations


def _dipped(real):
    """The partial sums with n = 2 and n = 5 pushed below zero on part of
    [-1, 1], keeping their degrees."""

    def broken(n, *args):
        p = real(n, *args)
        if n == 2:
            return p + Poly([5000, -10000], "x")  # negative on part of (1/2, 1]
        if n == 5:
            return p - Poly([0, 0, 0, 0, 0, 10**6], "x")  # negative near x = 1
        return p

    return broken


small_x = st.fractions(min_value=-1, max_value=1, max_denominator=12)
x_points = st.lists(
    small_x | st.integers(-1, 1) | st.floats(min_value=-1, max_value=1), max_size=6
)
x_polys = st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), max_size=7).map(
        lambda cs: Poly(cs, "x")
    ),
    min_size=1,
    max_size=4,
)


class TestGridScans:
    """The scans, which test signs on one EvalGrid, against loops of
    Horner evaluations."""

    @given(polys=x_polys, grid=x_points)
    @settings(max_examples=60, deadline=None)
    def test_askey_gasper_scan_matches_horner(self, polys, grid):
        def partial_sum(n, alpha):
            return polys[n % len(polys)]

        with mock.patch.object(orthopoly, "jacobi_partial_sum_poly", partial_sum):
            got = askey_gasper_scan(6, 1, grid)
            assert got == _askey_gasper_loop(6, 1, grid)
        want = [
            (n, Fraction(x), partial_sum(n, 2)(Fraction(x)))
            for n in range(7)
            for x in grid
            if partial_sum(n, 2)(Fraction(x)) < 0
        ]
        assert got == want

    def test_askey_gasper_scan_under_fault_injection(self, monkeypatch):
        grid = [Fraction(i, 10) for i in range(-10, 11)] + [0.75, 1]
        broken = _dipped(orthopoly.jacobi_partial_sum_poly)
        monkeypatch.setattr(orthopoly, "jacobi_partial_sum_poly", broken)
        for k in (0, 3, 8):
            got = askey_gasper_scan(8, k, grid)
            assert {n for n, _, _ in got} == {2, 5}
            assert got == _askey_gasper_loop(8, k, grid)

    def test_gegenbauer_scan_under_fault_injection(self, monkeypatch):
        grid = [Fraction(i, 10) for i in range(10, -11, -1)] + [0.75, 1]
        broken = _dipped(orthopoly.gegenbauer_partial_sum_poly)
        monkeypatch.setattr(orthopoly, "gegenbauer_partial_sum_poly", broken)
        got = gegenbauer_partial_sum_scan(8, grid)
        assert {n for n, _, _ in got} == {2, 5}
        assert got == _gegenbauer_loop(8, grid)

    def test_scans_clean_and_equal_to_loops(self):
        grid = [Fraction(i, 10) for i in range(-10, 11)]
        for k in range(4):
            assert askey_gasper_scan(12, k, grid) == _askey_gasper_loop(12, k, grid) == []
        assert gegenbauer_partial_sum_scan(12, grid) == _gegenbauer_loop(12, grid) == []

    def test_scans_refuse_points_outside_the_interval(self):
        for bad in (Fraction(11, 10), -1.5):
            with pytest.raises(ValueError, match="outside"):
                askey_gasper_scan(3, 1, [0, bad])
            with pytest.raises(ValueError, match="outside"):
                gegenbauer_partial_sum_scan(3, [0, bad])
        with pytest.raises(ValueError):
            askey_gasper_scan(3, -1, [0])

    def test_empty_range_and_grid(self):
        assert askey_gasper_scan(-1, 0, [0]) == []
        assert gegenbauer_partial_sum_scan(-1, [0]) == []
        assert askey_gasper_scan(4, 0, []) == []


class TestSignGridMemo:
    """The scans of one point set and degree share one memoised grid."""

    GRID = [Fraction(i, 10) for i in range(-10, 11)]

    def test_the_memo_is_a_module_lru_cache(self):
        # how a benchmark that clears every lru_cache of a module finds it
        memo = orthopoly._sign_grid
        assert isinstance(memo, functools._lru_cache_wrapper)
        assert memo.__module__ == "debranges.orthopoly"

    def test_the_askey_gasper_suite_builds_one_grid(self):
        memo = orthopoly._sign_grid
        memo.cache_clear()
        cli.run_suite("askey-gasper", 30)
        info = memo.cache_info()
        assert (info.misses, info.hits) == (1, 9)
        assert askey_gasper_scan(12, 0, self.GRID) == []
        assert memo.cache_info().misses == 2


class TestIntegerRowBuilders:
    """The builders on integer rows against the former Poly/Fraction
    builders, and the partial-sum memo against patched names and deep
    cold calls."""

    ALPHAS = [*range(0, 121, 2), Fraction(1, 7), Fraction(3, 2)]

    def test_jacobi_and_partial_sums_match_the_former_builders(self):
        n_max = 30
        for alpha in self.ALPHAS:
            rows = _former_jacobi_polys(n_max, alpha)
            total = Poly.zero("x")
            for n, row in enumerate(rows):
                total = total + row
                assert jacobi_poly(n, alpha) == row, (n, alpha)
                assert orthopoly.jacobi_partial_sum_poly(n, alpha) == total, (n, alpha)

    def test_degenerate_step_keeps_the_former_message(self):
        with pytest.raises(ValueError) as former:
            _former_jacobi_polys(2, -2)
        for build in (jacobi_poly, orthopoly.jacobi_partial_sum_poly):
            with pytest.raises(ValueError) as got:
                build(2, -2)
            assert str(got.value) == str(former.value)

    def test_gegenbauer_matches_the_former_builder(self):
        for n, want in enumerate(_former_gegenbauer_polys(100)):
            assert gegenbauer_minus_half(n) == want, n

    def test_partial_sums_clean_after_a_patched_name_is_undone(self):
        # sums built while the module name is patched must not reach the memo
        grid = [Fraction(i, 10) for i in range(-10, 11)]
        orthopoly.jacobi_partial_sum_poly.cache_clear()
        broken = _dipped(orthopoly.jacobi_partial_sum_poly)
        with mock.patch.object(orthopoly, "jacobi_partial_sum_poly", broken):
            for k in (0, 3):
                assert {n for n, _, _ in askey_gasper_scan(8, k, grid)} == {2, 5}
        for k in (0, 3):
            assert askey_gasper_scan(12, k, grid) == _askey_gasper_loop(12, k, grid) == []
            total = Poly.zero("x")
            for n, row in enumerate(_former_jacobi_polys(12, 2 * k)):
                total = total + row
                assert orthopoly.jacobi_partial_sum_poly(n, 2 * k) == total

    def test_cold_partial_sum_deeper_than_the_recursion_limit(self):
        n, alpha = 150, Fraction(1, 7)
        expected = orthopoly.jacobi_partial_sum_poly(n, alpha)
        orthopoly.jacobi_partial_sum_poly.cache_clear()
        jacobi_poly.cache_clear()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            assert orthopoly.jacobi_partial_sum_poly(n, alpha) == expected
        finally:
            sys.setrecursionlimit(limit)
