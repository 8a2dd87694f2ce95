"""Acceptance suite: every identity at its stated sweep bound, exact equality
throughout, each criterion inside its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from debranges import dbw, hypsum, lowner, orthopoly
from debranges.exact import Poly, binomial
from debranges.series import koebe_chain, time_derivative


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} ({label}): PASS  [{elapsed:.2f}s < {budget_seconds:.0f}s]")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_01_triple_oracle_chain_coefficients():
    with criterion(1, "closed = recurrence = Newton reversion", 30):
        table = lowner.coeff_table(50)
        for n in range(1, 51):
            for j in range(1, n + 1):
                assert lowner.coeff_closed(n, j) == table[(n, j)]
        chain = koebe_chain(30)
        for n in range(1, 31):
            assert chain.coefficient(n) == lowner.chain_poly(n)


def test_02_differential_residuals():
    with criterion(2, "ODE and coupled-system residuals vanish", 10):
        for n in range(1, 51):
            assert lowner.ode_residual(n).is_zero()
        for n in range(2, 51):
            assert lowner.system_residual(n).is_zero()


def test_03_slope_identity_and_initial_values():
    with criterion(3, "d tau/dt = -k Lambda, initial values, parity", 30):
        for n in range(1, 41):
            for k in range(1, n + 1):
                tau = dbw.debranges_poly(n, k)
                assert time_derivative(tau) == -k * dbw.weinstein_poly(n, k)
                assert tau(1) == n + 1 - k
                expected_slope = Fraction(-k) if (n - k) % 2 == 0 else Fraction(0)
                assert dbw.debranges_slope_at_zero(n, k) == expected_slope


def test_04_weinstein_series_vs_closed_form():
    with criterion(4, "series coefficients equal the Weinstein closed form", 60):
        for k in range(1, 26):
            zs = dbw.weinstein_series(k, 26)
            for n in range(k, 26):
                assert zs.coefficient(n + 1) == dbw.weinstein_poly(n, k)


def test_05_generating_function():
    with criterion(5, "K(z) w^k generates the de Branges functions", 60):
        for k in range(1, 26):
            gen = dbw.debranges_generating_series(k, 26)
            for n in range(k, 26):
                assert gen.coefficient(n + 1) == dbw.debranges_poly(n, k)
        for k in range(1, 5):
            assert dbw.explicit_generating_witness(k, 12, 8) is None


def test_06_jacobi_decomposition_and_askey_gasper():
    with criterion(6, "Jacobi/Gegenbauer factorization and positive sums", 60):
        for k in range(1, 4):
            for order in range(k + 1, 13):
                assert dbw.jacobi_decomposition_witness(k, order) is None
        grid = [Fraction(i, 10) for i in range(-10, 11)]
        for k in range(0, 9):
            for n in range(0, 21):
                for x in grid:
                    assert orthopoly.askey_gasper_sum(n, k, x) >= 0
        assert orthopoly.gegenbauer_partial_sum_scan(20, grid) == []


def test_07_gegenbauer_bridge():
    with criterion(7, "Gegenbauer difference formula and x=1 expansion", 20):
        for n in range(2, 41):
            assert orthopoly.chain_gegenbauer_witness(n) is None
        for n in range(2, 26):
            assert orthopoly.gegenbauer_expansion_witness(n) is None
        # the stated discrepancy at n = 1 is real and stays on record
        assert orthopoly.gegenbauer_expansion_witness(1) is not None


def test_08_hypergeometric_representations():
    with criterion(8, "2F1 / 3F2 closed forms match the polynomials", 30):
        y = Poly.variable("y")
        for n in range(1, 31):
            assert n * y * hypsum.pfq_terminating(
                [1 - n, n + 1], [3], y
            ) == lowner.chain_poly(n)
        for n in range(1, 26):
            for k in range(1, n + 1):
                prefactor = Poly.monomial(binomial(n + k + 1, n - k), k, "y")
                value = prefactor * hypsum.pfq_terminating(
                    [Fraction(2 * k + 1, 2), n + k + 2, k - n],
                    [Fraction(2 * k + 3, 2), 2 * k + 1],
                    y,
                )
                assert value == dbw.weinstein_poly(n, k)
        x = Poly.variable("x")
        u = Poly([Fraction(1, 2), Fraction(-1, 2)], "x")
        for n in range(2, 26):
            assert (1 - x) * hypsum.pfq_terminating(
                [1 - n, n], [2], u
            ) == orthopoly.gegenbauer_minus_half(n)


def test_09_gosper_certificates():
    with criterion(9, "telescoping certificates for the weighted binomials", 10):
        for n in range(1, 11):
            for j in range(1, n + 1):
                term = hypsum.parse_term(f"({n}+1-l) * binom(l+{j}-1, l-{j})", "l")
                cert = hypsum.gosper(hypsum.term_ratio(term))
                assert cert is not None, (n, j)
                assert cert.verify_symbolic(), (n, j)
                assert hypsum.verify_certificate(term, cert, j, n), (n, j)
                closed = Fraction(
                    (j + n) * (n + 1 + j), 2 * j * (2 * j + 1)
                ) * binomial(n + j - 1, n - j)
                assert hypsum.telescoped_sum(term, cert, j, n) == closed, (n, j)
                assert hypsum.weighted_binomial_sum(n, j) == closed, (n, j)
        inv_fact = hypsum.parse_term("1/fact(l)", "l")
        assert hypsum.gosper(hypsum.term_ratio(inv_fact)) is None


def test_10_positivity_scan():
    with criterion(10, "tau >= 0, Lambda >= 0, slope <= 0 on the grid", 60):
        grid = [Fraction(i, 10) for i in range(1, 10)]
        assert dbw.positivity_scan(30, grid) == []


def test_11_milin_functional_for_koebe():
    with criterion(11, "Milin functional vanishes on Koebe coefficients", 1):
        d = [Fraction(2, k) for k in range(1, 51)]
        for n in range(1, 51):
            assert dbw.milin_functional(d, n) == 0
