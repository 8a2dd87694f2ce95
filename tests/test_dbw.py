"""De Branges / Weinstein systems: closed forms, series, identities, scans."""

import math
from fractions import Fraction
from itertools import accumulate

import pytest

from debranges import dbw, lowner, series
from debranges.exact import Poly
from debranges.dbw import (
    debranges_generating_series,
    debranges_poly,
    debranges_slope_at_zero,
    debranges_system_residual,
    explicit_generating_witness,
    jacobi_decomposition_witness,
    milin_functional,
    positivity_scan,
    weinstein_poly,
    weinstein_series,
)
from debranges.exact import _unpack, binomial
from debranges.series import ZSeries, koebe_chain, time_derivative


def _rising(a: int, j: int) -> int:
    return math.prod(range(a, a + j))


def debranges_closed_form(n: int, k: int) -> Poly:
    """De Branges' closed form, an oracle that shares no code with the
    integration of -k L:

        T(n, k) = k sum_j (-1)^j (2k+j+1)_j (2k+2j+2)_(n-k-j)
                  / ((k+j) j! (n-k-j)!) y^(k+j),  j = 0 .. n-k.
    """
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(n - k + 1):
        coeffs[k + j] = Fraction(
            (-1) ** j * k * _rising(2 * k + j + 1, j) * _rising(2 * k + 2 * j + 2, n - k - j),
            (k + j) * math.factorial(j) * math.factorial(n - k - j),
        )
    return Poly(coeffs, "y")


class TestWeinsteinCoefficients:
    def test_lowest_index_value(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                assert weinstein_poly(n, k).coeff(k) == binomial(n + k + 1, n - k)

    def test_top_corner_is_one(self):
        for n in range(1, 12):
            assert weinstein_poly(n, n).coeff(n) == 1

    def test_series_derived_value(self):
        assert weinstein_poly(3, 1).coeff(2) == -24

    def test_sign_pattern(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                for j in range(k, n + 1):
                    value = weinstein_poly(n, k).coeff(j)
                    assert value != 0
                    assert (value > 0) == ((k + j) % 2 == 0)

    def test_triangle_validation(self):
        with pytest.raises(ValueError):
            weinstein_poly(2, 3)
        with pytest.raises(ValueError):
            weinstein_poly(3, 0)
        assert all(weinstein_poly(3, 2).coeff(j) == 0 for j in range(2))


class TestWeinsteinPoly:
    def test_frozen_small_cases(self):
        assert weinstein_poly(2, 1) == Poly([0, 4, -4], "y")
        assert weinstein_poly(3, 1) == Poly([0, 10, -24, 15], "y")

    def test_top_is_pure_power(self):
        for n in range(1, 12):
            assert weinstein_poly(n, n) == Poly.monomial(1, n, "y")

    def test_value_at_time_zero_parity(self):
        for n in range(1, 15):
            for k in range(1, n + 1):
                expected = 1 if (n - k) % 2 == 0 else 0
                assert weinstein_poly(n, k)(1) == expected


class TestWeinsteinSeries:
    def test_taylor_coefficient_example(self):
        assert weinstein_series(1, 5).coefficient(3) == Poly([0, 4, -4], "y")

    def test_lowest_series_coefficient(self):
        # z^(k+1) coefficient starts with y^k
        for k in range(1, 5):
            poly = weinstein_series(k, 7).coefficient(k + 1)
            assert poly.coeff(k) == 1
            assert all(poly.coeff(i) == 0 for i in range(k))

    def test_matches_closed_form(self):
        for k in range(1, 7):
            zs = weinstein_series(k, 12)
            for n in range(k, 12):
                assert zs.coefficient(n + 1) == weinstein_poly(n, k)

    def test_shift_recursion(self):
        # W_{k+1} = w W_k
        order = 10
        w = koebe_chain(order)
        for k in range(1, 4):
            assert weinstein_series(k + 1, order) == (
                w * weinstein_series(k, order)
            )

    def test_first_series_is_minus_k_wdot(self):
        # W_1 = -K(z) dw/dt
        order = 10
        w = koebe_chain(order)
        assert weinstein_series(1, order) == -(ZSeries(range(order + 1)) * w.tdot())

    def test_coupled_series_relation(self):
        # dW_k/dt + dW_{k+1}/dt = (k+1) W_{k+1} - k W_k
        order = 9
        for k in range(1, 4):
            w_k = weinstein_series(k, order)
            w_next = weinstein_series(k + 1, order)
            lhs = w_k.tdot() + w_next.tdot()
            rhs = (k + 1) * w_next - k * w_k
            assert lhs == rhs

    def test_order_validation(self):
        with pytest.raises(ValueError):
            weinstein_series(3, 3)

    def test_chain_square_is_shared(self, monkeypatch):
        # W_1 = z^2 w' / (1 - z^2) reads the chain itself: with the chain
        # warm it takes no series product
        order = 12
        want = weinstein_series(1, order)
        _clear_power_memos()
        products = _count_products(monkeypatch)
        assert weinstein_series(1, order) == want
        assert len(products) == 0

    @pytest.mark.parametrize("k", [2, 5, 11])
    def test_lone_cold_series_takes_k_minus_one_products(self, monkeypatch, k):
        # w/y, then (w/y)^2 .. (w/y)^k as one packed product each, and no
        # ZSeries product or inverse
        order = 12
        koebe_chain(order)
        _clear_power_memos()
        products = _count_products(monkeypatch)
        weinstein_series(k, order)
        assert dbw._chain_power.cache_info().misses == k
        assert products == []

    @pytest.mark.parametrize("order", [2, 12, 30])
    def test_the_chain_is_packed_once(self, order):
        # after koebe_chain, cold W_k and B_k add no miss to the chain's memo:
        # the powers start from the very integers the chain was packed into
        koebe_chain(order)
        _clear_power_memos()
        misses = series._packed_koebe.cache_info().misses
        for k in range(1, order):
            weinstein_series(k, order)
            debranges_generating_series(k, order)
        assert series._packed_koebe.cache_info().misses == misses
        assert dbw._chain_power(order, 1) is series._packed_koebe(order)[1]


def _clear_power_memos():
    dbw._chain_power.cache_clear()
    dbw.weinstein_series.cache_clear()


def _count_products(monkeypatch) -> list:
    """Record every ZSeries product and inverse from here on; returns the
    record, with an inverse recorded as the string "inverse"."""
    products = []
    real_mul, real_inverse = ZSeries.__mul__, ZSeries.inverse

    def counted(self, other):
        products.append(other)
        return real_mul(self, other)

    def counted_inverse(self):
        products.append("inverse")
        return real_inverse(self)

    monkeypatch.setattr(ZSeries, "__mul__", counted)
    monkeypatch.setattr(ZSeries, "__rmul__", counted)
    monkeypatch.setattr(ZSeries, "inverse", counted_inverse)
    return products


def _chain_power_closed_form(m: int, n: int) -> list[int]:
    """Numerators of the z^n coefficient of (w/y)^m, n >= m, from y^0 up:
    the y^(j-m) one is the y^j one of w^m, read off the expansion
    K(z) w^m = sum_j (-1)^(j+m) (2m/(j+m)) C(2j-1, j-m) K(z)^(j+1) y^j
    with (1 - z)^2 K(z)^(j+1) / z = z^j / (1 - z)^(2j)."""
    coeffs = [
        Fraction((-1) ** (j + m) * 2 * m * binomial(2 * j - 1, j - m) * binomial(n + j - 1, n - j),
                 j + m)
        for j in range(m, n + 1)
    ]
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _drop_y(p):
    """p / y for a polynomial p in y with no constant term."""
    assert p.coeff(0) == 0
    return Poly(p.coeffs[1:], "y")


class TestSeriesFromChainPowers:
    def test_matches_series_products(self):
        # the oracle multiplies out the definitions with public ZSeries ops:
        # W_k = w^(k+1) (1 - w^2)^-1 / y and B_k = K(z) w^k
        for order in range(2, 15):
            w, koebe = koebe_chain(order), ZSeries(range(order + 1))
            inverse = (ZSeries.one(order) - w * w).inverse()
            powers = [ZSeries.one(order), w]
            while len(powers) <= order:
                powers.append(powers[-1] * w)
            _clear_power_memos()
            for k in reversed(range(1, order)):  # the first call fills the memos upward
                body = powers[k + 1] * inverse
                assert weinstein_series(k, order) == ZSeries(
                    [_drop_y(c) for c in body.coeffs]
                ), (order, k)
                assert debranges_generating_series(k, order) == koebe * powers[k], (
                    order, k,
                )

    def test_cold_sweep_takes_only_the_chain_powers(self, monkeypatch):
        # W_k and B_k for every k at order 12: w/y, the packed products
        # (w/y)^2 .. (w/y)^11, and no ZSeries product or inverse
        order = 12
        koebe_chain(order)
        _clear_power_memos()
        products = _count_products(monkeypatch)
        for k in range(1, order):
            weinstein_series(k, order)
            debranges_generating_series(k, order)
        assert dbw._chain_power.cache_info().misses == 11
        assert products == []

    @pytest.mark.parametrize("k", [1, 2, 30, 59])
    def test_widest_digits_equal_the_closed_forms(self, k):
        # order 60, the largest --order of `eval W|B`, packs at the widest base
        order = 60
        w, b = weinstein_series(k, order), debranges_generating_series(k, order)
        for m in range(k + 1):
            assert w.coefficient(m).is_zero() and b.coefficient(m).is_zero(), m
        for n in range(k, order):
            assert w.coefficient(n + 1) == weinstein_poly(n, k), n
            assert b.coefficient(n + 1) == debranges_poly(n, k), n

    def test_every_packed_weinstein_row_is_a_multiple_of_k(self):
        # the rows m c_m of z^2 (w^k)' / (1 - z^2), summed with step 2 on the
        # packed powers, before W_k divides them by k
        for order in range(2, 41):
            for k in range(1, order):
                rows = [m * c for m, c in enumerate(dbw._chain_power(order, k)[:order])]
                rows[0::2] = accumulate(rows[0::2])
                rows[1::2] = accumulate(rows[1::2])
                assert all(r % k == 0 for r in rows), (order, k)
            _clear_power_memos()

    def test_majorant_bounds_every_digit(self):
        # the digits are the numerators of the z^n coefficients of (w/y)^m,
        # m < order, n <= order, and of the rows k L(n, k) of W_k and T(n, k)
        # of B_k, n < order; at every order the majorant (order + 1)^2 G
        # bounds them all, G from the norms is at most G from the majorant
        # w^ of the chain's recurrence, and the packing base holds the latter
        top = 60
        bits = series._chain_bits(top)
        powers = {}
        for m in range(1, top):
            got = dbw._chain_power(top, m)
            for n in range(m, top + 1):
                want = _chain_power_closed_form(m, n)
                assert _unpack(got[n], bits) == want, (m, n)
                powers[m, n] = max(map(abs, want))
        rows = [0] + [
            max(
                max(k * max(map(abs, weinstein_poly(n, k).coeffs)),
                    max(map(abs, debranges_poly(n, k).coeffs)))
                for k in range(1, n + 1)
            )
            for n in range(1, top)
        ]
        norms = [sum(map(abs, c.coeffs)) for c in koebe_chain(top).coeffs]
        g = [1]  # [z^n] 1 / (1 - sum_n norms[n] z^n)
        for n in range(1, top + 1):
            g.append(sum(norms[i] * g[n - i] for i in range(1, n + 1)))
        hat = [0, 1]  # w^_n >= norms[n]
        for n in range(2, top + 1):
            hat.append(4 * hat[n - 1] + hat[n - 2] + sum(hat[i] * hat[n - 1 - i] for i in range(1, n - 1)))
        g_hat = [1]  # [z^n] 1 / (1 - sum_n w^_n z^n)
        for n in range(1, top + 1):
            g_hat.append(sum(hat[i] * g_hat[n - i] for i in range(1, n + 1)))
        for order in range(2, top + 1):
            majorant = (order + 1) ** 2 * max(g[: order + 1])
            assert max(g[: order + 1]) <= max(g_hat[: order + 1]), order
            widest = max(
                max(powers[m, n] for m in range(1, order) for n in range(m, order + 1)),
                max(rows[:order]),
            )
            assert widest <= majorant, order
            assert majorant < 2 ** (series._chain_bits(order) - 1), order


class TestDeBrangesPoly:
    def test_frozen_small_case(self):
        assert debranges_poly(2, 1) == Poly([0, 4, -2], "y")

    def test_vanishes_above_triangle(self):
        for n in range(1, 8):
            assert debranges_poly(n, n + 1).is_zero()

    def test_shape_of_triangle(self):
        # degree at most n, no powers of y below y^k
        for n in range(1, 12):
            for k in range(1, n + 1):
                tau = debranges_poly(n, k)
                assert tau.degree <= n
                assert all(tau.coeff(i) == 0 for i in range(k))
                assert tau.coeff(k) != 0

    def test_initial_values(self):
        for n in range(1, 15):
            for k in range(1, n + 2):
                assert debranges_poly(n, k)(1) == n + 1 - k

    def test_closed_form_oracle(self):
        for n in range(1, 61):
            for k in range(1, n + 1):
                assert debranges_poly(n, k) == debranges_closed_form(n, k), (n, k)

    def test_generating_series_oracle(self):
        # tau(2, 1) is the z^3 coefficient of K(z) w(z, t)
        product = ZSeries(range(7)) * koebe_chain(6)
        assert product.coefficient(3) == debranges_poly(2, 1)

    def test_slope_is_weinstein(self):
        for n in range(1, 15):
            for k in range(1, n + 1):
                assert time_derivative(debranges_poly(n, k)) == -k * weinstein_poly(n, k)

    def test_system_residual_zero(self):
        for n in range(1, 12):
            for k in range(1, n + 1):
                assert debranges_system_residual(n, k).is_zero()

    def test_system_detector(self):
        # corrupting tau(2,1) must break the coupled equation (a y^2 bump;
        # a plain y bump would solve the homogeneous part and stay invisible)
        tau_1 = debranges_poly(2, 1) + Poly([0, 0, 1], "y")
        tau_2 = debranges_poly(2, 2)
        residual = (
            tau_2
            - tau_1
            - time_derivative(tau_1)
            - time_derivative(tau_2) * Fraction(1, 2)
        )
        assert not residual.is_zero()


class TestSlopeAtZero:
    def test_parity_rule(self):
        assert debranges_slope_at_zero(2, 1) == 0
        assert debranges_slope_at_zero(3, 1) == -1
        assert debranges_slope_at_zero(5, 5) == -5
        for n in range(1, 15):
            for k in range(1, n + 1):
                expected = -k if (n - k) % 2 == 0 else 0
                assert debranges_slope_at_zero(n, k) == expected

    def test_top_slope_polynomial(self):
        # d tau(n,n)/dt = -n y^n identically
        for n in range(1, 10):
            slope = time_derivative(debranges_poly(n, n))
            assert slope == Poly.monomial(-n, n, "y")


class TestGeneratingSeries:
    def test_coefficients_are_debranges(self):
        for k in range(1, 6):
            gen = debranges_generating_series(k, 12)
            for n in range(k, 12):
                assert gen.coefficient(n + 1) == debranges_poly(n, k)

    def test_leading_zeros(self):
        gen = debranges_generating_series(3, 8)
        for m in range(4):
            assert gen.coefficient(m).is_zero()

    def test_collapse_at_time_zero(self):
        # at y = 1 the series is z^(k+1)/(1-z)^2, coefficients n+1-k
        k = 2
        values = debranges_generating_series(k, 10).eval_inner(1)
        for n in range(k, 10):
            assert values[n + 1] == n + 1 - k

    def test_second_coefficient_example(self):
        assert debranges_generating_series(2, 5).coefficient(3) == Poly.monomial(
            1, 2, "y"
        )


class TestExplicitGeneratingExpansion:
    def test_small_orders(self):
        assert explicit_generating_witness(1, 6, 3) is None
        assert explicit_generating_witness(2, 8, 4) is None

    def test_coefficient_identity_instance(self):
        # the expansion rewrites the y^j weight (k/j) C(2j, j-k) as
        # (2k/(j+k)) C(2j-1, j-k); spot check at (j, k) = (3, 1)
        j, k = 3, 1
        assert Fraction(k, j) * binomial(2 * j, j - k) == Fraction(
            2 * k, j + k
        ) * binomial(2 * j - 1, j - k)

    def test_j_max_validation(self):
        with pytest.raises(ValueError):
            explicit_generating_witness(1, 4, 5)


class TestJacobiDecomposition:
    def test_small_orders(self):
        assert jacobi_decomposition_witness(1, 5) is None
        assert jacobi_decomposition_witness(2, 6) is None

    def test_wrong_parameter_detected(self):
        # replacing the Jacobi parameter 2k by 2k+1 must break the identity
        from debranges import orthopoly

        k, order = 1, 5
        inner = order - (k + 1)
        jac = Poly.zero("y")
        geg = Poly.zero("y")
        jac_coeffs, geg_coeffs = [], []
        for n in range(inner + 1):
            jac = jac + orthopoly.to_y(orthopoly.jacobi_poly(n, 2 * k + 1))
            geg = geg + orthopoly.to_y(orthopoly.gegenbauer_minus_half(n))
            jac_coeffs.append(jac)
            geg_coeffs.append(geg)
        rhs = (ZSeries(jac_coeffs) * ZSeries(geg_coeffs)) * Poly.monomial(1, k, "y")
        assert rhs.shift_up(k + 1) != debranges_generating_series(k, order)


class TestBridgeToChainCoefficients:
    def test_weinstein_from_chain_derivatives(self):
        # L(n, 1) = -sum_{l=1..n} (n+1-l) dB_l/dt
        for n in range(1, 31):
            total = Poly.zero("y")
            for l in range(1, n + 1):
                total = total + (n + 1 - l) * time_derivative(lowner.chain_poly(l))
            assert -total == weinstein_poly(n, 1)


class TestMilinFunctional:
    def test_koebe_logarithmic_coefficients(self):
        for n in (1, 2, 5, 10, 25):
            d = [Fraction(2, k) for k in range(1, n + 1)]
            assert milin_functional(d, n) == 0

    def test_half_plane_map(self):
        d = [Fraction(1, 1), Fraction(1, 2)]
        assert milin_functional(d, 2) == Fraction(-15, 2)

    def test_zero_coefficients(self):
        assert milin_functional([0, 0, 0], 3) == Fraction(-52, 3)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            milin_functional([1], 2)


class TestPositivityScan:
    def test_no_violations_small(self):
        grid = [Fraction(i, 10) for i in range(1, 10)]
        assert positivity_scan(10, grid) == []

    def test_sample_values(self):
        assert weinstein_poly(3, 1)(Fraction(1, 2)) == Fraction(7, 8)
        assert debranges_poly(2, 2)(Fraction(1, 2)) == Fraction(1, 4)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            positivity_scan(3, [Fraction(0)])
        with pytest.raises(ValueError):
            positivity_scan(3, [Fraction(1)])

    @staticmethod
    def horner_loop(n_max, y_grid):
        """The scan as a loop of Horner evaluations: by (n, k), then by
        point, then weinstein / debranges / slope."""
        grid = [Fraction(v) for v in y_grid]
        violations = []
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                lam = dbw.weinstein_poly(n, k)
                tau = dbw.debranges_poly(n, k)
                tau_dot = time_derivative(tau)
                for v in grid:
                    lam_v = lam(v)
                    if lam_v < 0:
                        violations.append(dbw.PositivityViolation("weinstein", n, k, v, lam_v))
                    tau_v = tau(v)
                    if tau_v < 0:
                        violations.append(dbw.PositivityViolation("debranges", n, k, v, tau_v))
                    slope = tau_dot(v)
                    if slope > 0:
                        violations.append(
                            dbw.PositivityViolation("debranges_slope", n, k, v, slope)
                        )
        return violations

    def test_fault_injection_matches_horner_loop(self, monkeypatch):
        real_lam, real_tau = dbw.weinstein_poly, dbw.debranges_poly

        def lam(n, k):
            # negative where y > 1/2 for odd k
            return real_lam(n, k) - Poly([-100, 200], "y") if k % 2 else real_lam(n, k)

        def tau(n, k):
            # -50 y^2 drives T below zero and the slope -y dT/dy above it
            return real_tau(n, k) - Poly([0, 0, 50], "y") if n % 3 == 2 else real_tau(n, k)

        monkeypatch.setattr(dbw, "weinstein_poly", lam)
        monkeypatch.setattr(dbw, "debranges_poly", tau)
        grid = [Fraction(9, 10), Fraction(1, 10), Fraction(1, 2), Fraction(3, 4), 0.25]
        grid.append(Fraction(9, 10))  # a repeated point is reported again
        got = positivity_scan(8, grid)
        assert {v.quantity for v in got} == {"weinstein", "debranges", "debranges_slope"}
        assert got == self.horner_loop(8, grid)
