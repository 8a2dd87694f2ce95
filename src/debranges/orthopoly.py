"""Gegenbauer and Jacobi polynomials over exact rationals.

Ingredients for the positivity side of the story: the Gegenbauer polynomials
C_n^(-1/2) defined as the z-coefficients of sqrt(1 - 2xz + z^2), Jacobi
polynomials P_n^(alpha, 0) from the classical three-term recurrence, the
Askey-Gasper partial sums, and exact sign scans.  Every value comes from a
cached exact polynomial: a single value is its Horner evaluation, and a
scan takes the sign of each point's integer dot product on one
``EvalGrid`` of the points and builds a Fraction only for a negative
value.  The x and y pictures are linked by x = 1 - 2y, i.e. y = e^(-t) and
x = 1 - 2e^(-t).

The lambda = -1/2 Gegenbauer normalization is the generating-function one;
the square root series is expanded binomially, which collapses to monomials
because 1 - 2xz + z^2 = 1 + z(z - 2x).  The hypergeometric-style expansion
of C_n^(-1/2) at x = 1 is treated as a verified identity for n >= 2 (it is
genuinely false at n = 1, where it yields 1 - x instead of -x; see
gegenbauer_expansion_witness).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exact import EvalGrid, Poly, Scalar, binomial, pochhammer
from . import lowner


def to_y(p: Poly) -> Poly:
    """Substitute x = 1 - 2y, mapping an x-polynomial to a y-polynomial."""
    if p.var != "x":
        raise ValueError(f"expected an x-polynomial, got variable {p.var!r}")
    return p.subs_linear(-2, 1, "y")


def _choose_half(m: int) -> Fraction:
    # binomial coefficient (1/2 choose m) = (-1)^m (-1/2)_m / m!
    return (-1) ** m * pochhammer(Fraction(-1, 2), m) / math.factorial(m)


@lru_cache(maxsize=None)
def gegenbauer_minus_half(n: int) -> Poly:
    """C_n^(-1/2)(x): the z^n coefficient of sqrt(1 - 2xz + z^2).

    Expanding sqrt(1 + u) binomially with u = z(z - 2x) gives

        C_n(x) = sum_m (1/2 choose m) C(m, n-m) (-2x)^(2m-n),

    the sum running over ceil(n/2) <= m <= n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeffs = [Fraction(0)] * (n + 1)
    for m in range((n + 1) // 2, n + 1):
        power = 2 * m - n
        coeffs[power] += _choose_half(m) * binomial(m, n - m) * Fraction(-2) ** power
    return Poly(coeffs, "x")


def gegenbauer_expansion_check(n: int) -> bool:
    """True when gegenbauer_expansion_witness finds no failure."""
    return gegenbauer_expansion_witness(n) is None


def gegenbauer_expansion_witness(n: int) -> str | None:
    """Does the expansion at x = 1,

        C_n^(-1/2)(x) = 2 sum_{j=0..n-1} (1-n)_j (n)_j / (j! (2)_j) * ((1-x)/2)^(j+1),

    reproduce the generating-function polynomial?  None when it does, as for
    every n >= 2, else n with both polynomials.  It fails at n = 1 by a
    constant-term discrepancy that is recorded rather than patched (the
    formula gives 1 - x, the generating function -x).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    coeffs = [0] + [
        2 * pochhammer(1 - n, j) * pochhammer(n, j) / (math.factorial(j) * pochhammer(2, j))
        for j in range(n)
    ]
    got = Poly(coeffs, "t").subs_linear(Fraction(-1, 2), Fraction(1, 2), "x")  # t = (1 - x)/2
    want = gegenbauer_minus_half(n)
    return None if got == want else f"n={n}: {got} != {want}"


def chain_gegenbauer_check(n: int) -> bool:
    """True when chain_gegenbauer_witness finds no failure."""
    return chain_gegenbauer_witness(n) is None


def chain_gegenbauer_witness(n: int) -> str | None:
    """Does (C_{n+1}^(-1/2)(x) - C_n^(-1/2)(x)) / (x - 1), taken at
    x = 1 - 2y, equal the chain coefficient polynomial B_n(y)?

    None for every n >= 2 (the division is exact); at n = 1 the identity
    fails by the same constant discrepancy as the x = 1 expansion.  A
    failure names n with the nonzero remainder of the division, or else
    with both y-polynomials."""
    if n < 1:
        raise ValueError("n must be at least 1")
    diff = gegenbauer_minus_half(n + 1) - gegenbauer_minus_half(n)
    quotient, remainder = diff.divmod(Poly([-1, 1], "x"))
    if not remainder.is_zero():
        return f"n={n}: remainder {remainder} != 0"
    got, want = to_y(quotient), lowner.chain_poly(n)
    return None if got == want else f"n={n}: {got} != {want}"


@lru_cache(maxsize=None)
def jacobi_poly(n: int, alpha: Scalar) -> Poly:
    """P_n^(alpha, 0) as an exact polynomial in x, by one step of the
    classical three-term recurrence from the cached P_(n-1) and P_(n-2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    alpha = Fraction(alpha)
    x = Poly.variable("x")
    if n == 0:
        return Poly.const(1, "x")
    if n == 1:
        return x * Fraction(alpha + 2, 2) + Fraction(alpha, 2)
    for m in range(2, n - 1):  # fill the cache upward, so the depth stays constant
        jacobi_poly(m, alpha)
    prev, curr = jacobi_poly(n - 2, alpha), jacobi_poly(n - 1, alpha)
    lead = Fraction(2 * n) * (n + alpha) * (2 * n + alpha - 2)
    if lead == 0:
        raise ValueError(f"three-term recurrence degenerates at n={n}, alpha={alpha}")
    mid = (x * ((2 * n + alpha) * (2 * n + alpha - 2)) + alpha * alpha) * (
        2 * n + alpha - 1
    )
    back = Fraction(2) * (n + alpha - 1) * (n - 1) * (2 * n + alpha)
    return (mid * curr - back * prev) * (1 / lead)


@lru_cache(maxsize=None)
def jacobi_partial_sum_poly(n: int, alpha: Scalar) -> Poly:
    """sum_{j=0..n} P_j^(alpha, 0) as an exact polynomial in x."""
    return sum((jacobi_poly(j, alpha) for j in range(n + 1)), Poly.zero("x"))


@lru_cache(maxsize=None)
def gegenbauer_partial_sum_poly(n: int) -> Poly:
    """sum_{j=0..n} C_j^(-1/2) as an exact polynomial in x: the z^n Taylor
    coefficient of sqrt(1 - 2xz + z^2) / (1 - z)."""
    return sum((gegenbauer_minus_half(j) for j in range(n + 1)), Poly.zero("x"))


def _in_interval(x: Scalar) -> Fraction:
    x = Fraction(x)
    if not -1 <= x <= 1:
        raise ValueError(f"x = {x} outside [-1, 1]")
    return x


def askey_gasper_sum(n: int, k: int, x: Scalar) -> Fraction:
    """Partial sum sum_{j=0..n} P_j^(2k, 0)(x); nonnegative on [-1, 1]."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    return jacobi_partial_sum_poly(n, 2 * k)(_in_interval(x))


def gegenbauer_partial_sum_scan(
    n_max: int, x_grid: Sequence[Scalar]
) -> list[tuple[int, Fraction, Fraction]]:
    """Scan the partial sums for negativity over an x grid in [-1, 1];
    returns (n, x, value) triples with value < 0 (expected: none), ordered
    by x, then n."""
    xs = [_in_interval(x) for x in x_grid]
    points = EvalGrid(xs, max(n_max, 0))
    found = [
        (i, n, value)
        for n in range(n_max + 1)
        for i, value in points.negatives(gegenbauer_partial_sum_poly(n))
    ]
    found.sort(key=lambda f: f[:2])
    return [(n, xs[i], value) for i, n, value in found]


def askey_gasper_scan(
    n_max: int, k: int, x_grid: Sequence[Scalar]
) -> list[tuple[int, Fraction, Fraction]]:
    """Scan the partial sums sum_{j=0..n} P_j^(2k, 0), n <= n_max, for
    negativity over an x grid in [-1, 1]; returns (n, x, value) triples
    with value < 0 (expected: none), ordered by n, then x."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    xs = [_in_interval(x) for x in x_grid]
    points = EvalGrid(xs, max(n_max, 0))
    return [
        (n, xs[i], value)
        for n in range(n_max + 1)
        for i, value in points.negatives(jacobi_partial_sum_poly(n, 2 * k))
    ]
