"""De Branges and Weinstein function systems of the Koebe chain.

Two families of polynomials in y = e^(-t) are built here and played against
each other:

* Weinstein functions L(n, k): the z^(n+1) coefficients of
  W_k = e^t w^(k+1) / (1 - w^2), with the closed form
  L(n, k) = sum_{j=k..n} (-1)^(k+j) C(2j, j-k) C(n+j+1, n-j) y^j.

* De Branges functions T(n, k): the weight system defined by the coupled
  equations T(n, k+1) - T(n, k) = Tdot(n, k)/k + Tdot(n, k+1)/(k+1) with
  T(n, n+1) = 0 and T(n, k)(t=0) = n + 1 - k.

The bridge identity Tdot(n, k) = -k L(n, k) lets T be constructed by
integrating the Weinstein closed form with no constant term (the t -> inf
terminal condition); the t = 0 initial values then come out as theorems and
are verified, not imposed.  A generating-function route K(z) w^k, its
expansion in powers of y, the Jacobi/Gegenbauer product factorization, the
Milin functional, and exact positivity scans complete the picture.

The series W_k and K(z) w^k both read the one chain power w^k = y^k (w/y)^k,
the only series products they take (one memo of (w/y)^m).  The logarithmic
derivative of K(w) = y K(z), with K'(x)/K(x) = (1 + x)/(x (1 - x)), is the
Koebe property (1 + w)(1 - z) z w_z = (1 + z)(1 - w) w; with
y z (1 - w)^2 = (1 - z)^2 w it gives 1/(1 - w^2) = y z^2 w_z / (w^2 (1 - z^2)),
so W_k = z^2 (w^k)' / (k (1 - z^2)) is one running sum with step 2, and
K(z) w^k = z/(1-z)^2 w^k two running sums with step 1, of the coefficients
of w^k.  The powers and their running sums stay packed: they start from the
chain as :mod:`debranges.series` packed it, each z-coefficient of w/y one
integer by Kronecker substitution in y at the chain's one base, which is wide
enough for every digit of every power and every sum, so each power is one
integer dot product per z^n; each row of W_k is divided by k while it is
packed, and each output coefficient is unpacked once, with integer
coefficients that need no normalising.

Convention: W_k(z, 0) = z^(k+1)/(1 - z^2), so L(n, k) at y = 1 is 1 when
n - k is even and 0 when it is odd, matching the slope initial values
Tdot(n, k)(0) = -k (n - k even) / 0 (n - k odd).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import Iterable, Sequence

from .exact import (
    EvalGrid, Poly, Record, Scalar, _make, _raw, _unpack, binomial,
    first_mismatch, format_rational,
)
from .series import ZSeries, _packed_koebe, time_derivative
from . import orthopoly


@lru_cache(maxsize=None)
def weinstein_poly(n: int, k: int) -> Poly:
    """L(n, k) as a polynomial in y; lowest power y^k, degree n."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got (n, k) = ({n}, {k})")
    nums = [
        (-1) ** (k + j) * binomial(2 * j, j - k) * binomial(n + j + 1, n - j)
        for j in range(k, n + 1)
    ]
    return Poly([0] * k + nums, "y")


@lru_cache(maxsize=None)
def _chain_power(order: int, m: int) -> tuple[int, ...]:
    """(w/y)^m for m >= 1, its z^n coefficients packed as the chain is in
    ``series._packed_koebe``, whose very tuple is the power m = 1: the only
    series products of W_k and B_k, each z^n coefficient one dot product of
    the power before with the packed chain."""
    chain = _packed_koebe(order)[1]
    if m == 1:
        return chain
    for j in range(2, m - 1):  # fill the cache upward, so the depth stays constant
        _chain_power(order, j)
    prev = _chain_power(order, m - 1)
    return (0,) * m + tuple(
        sum(map(mul, prev[m - 1 : n], chain[n - m + 1 : 0 : -1])) for n in range(m, order + 1)
    )


def _series_from_rows(rows: Iterable[int], order: int, k: int) -> ZSeries:
    """The series sum_m y^k rows[m] z^(m+1), with each row, packed at the
    chain's base, unpacked once: its digits are integers whose last one is
    nonzero, so each coefficient is canonical over 1 as it stands."""
    bits, zero, shift = _packed_koebe(order)[0], Poly.zero("y"), [0] * k
    return ZSeries(
        [zero, *(_raw(tuple(shift + _unpack(r, bits)), 1, "y") if r else zero for r in rows)]
    )


@lru_cache(maxsize=None)
def weinstein_series(k: int, order: int) -> ZSeries:
    """W_k = e^t w^(k+1) / (1 - w^2) as a series; the z^(n+1) coefficient
    is the Weinstein function L(n, k).

    The Koebe log-derivative (1 + w)(1 - z) z w_z = (1 + z)(1 - w) w and the
    chain's quadratic y z (1 - w)^2 = (1 - z)^2 w give 1/(1 - w^2) =
    y z^2 w_z / (w^2 (1 - z^2)), hence W_k = z^2 w^(k-1) w_z / (1 - z^2) =
    z^2 (w^k)' / (k (1 - z^2)).  Its z^(m+1) numerator m c_m, for the z^m
    coefficient c_m of w^k, is k times a coefficient of z w^(k-1) w_z, so
    after the division by 1 - z^2, a running sum with step 2, each packed
    row is a multiple of k: one exact integer division divides every digit.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if order < k + 1:
        raise ValueError(f"order must be at least k + 1 = {k + 1}")
    rows = [m * c for m, c in enumerate(_chain_power(order, k)[:order])]
    rows[0::2] = accumulate(rows[0::2])
    rows[1::2] = accumulate(rows[1::2])
    return _series_from_rows([r // k for r in rows], order, k)


@lru_cache(maxsize=None)
def debranges_poly(n: int, k: int) -> Poly:
    """T(n, k) as a polynomial in y, built by integrating -k L(n, k).

    The time derivative -y d/dy maps y^j to -j y^j, so integration divides
    the y^j coefficient of k L(n, k) by j; the missing constant of
    integration is fixed to zero by the t -> inf terminal condition.
    k = n + 1 is allowed and gives the zero polynomial.
    """
    if not 1 <= k <= n + 1:
        raise ValueError(f"need 1 <= k <= n + 1, got (n, k) = ({n}, {k})")
    if k == n + 1:
        return Poly.zero("y")
    # (k/j) L_j = k L_j (D/j) / D over D = lcm(k..n), on the numerators of L
    lam = weinstein_poly(n, k)
    d = math.lcm(*range(k, n + 1))
    nums = [k * c * (d // j) for j, c in enumerate(lam._num[k:], k)]
    return _make([0] * k + nums, d * lam._den, "y")


def debranges_system_residual(n: int, k: int) -> Poly:
    """T(n, k+1) - T(n, k) - Tdot(n, k)/k - Tdot(n, k+1)/(k+1); zero for
    1 <= k <= n."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got (n, k) = ({n}, {k})")
    tau_k = debranges_poly(n, k)
    tau_next = debranges_poly(n, k + 1)
    return (
        tau_next
        - tau_k
        - time_derivative(tau_k) * Fraction(1, k)
        - time_derivative(tau_next) * Fraction(1, k + 1)
    )


def debranges_slope_at_zero(n: int, k: int) -> Fraction:
    """Tdot(n, k) at t = 0: -k when n - k is even, 0 when n - k is odd."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got (n, k) = ({n}, {k})")
    return time_derivative(debranges_poly(n, k))(1)


def debranges_generating_series(k: int, order: int) -> ZSeries:
    """K(z) w(z, t)^k: the generating function whose z^(n+1) coefficient is
    T(n, k).  At y = 1 it collapses to z^(k+1)/(1-z)^2.

    K(z) = z/(1-z)^2, so the coefficients of the shared chain power w^k are
    summed twice and shifted up by one: no series product beyond w^k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if order < k + 1:
        raise ValueError(f"order must be at least k + 1 = {k + 1}")
    rows = accumulate(accumulate(_chain_power(order, k)[:order]))
    return _series_from_rows(rows, order, k)


def explicit_generating_witness(k: int, order: int, j_max: int) -> str | None:
    """Check the expansion of K(z) w^k in powers of y:

        K(z) w^k = sum_j (-1)^(j+k) (2k/(j+k)) C(2j-1, j-k) K(z)^(j+1) y^j

    by comparing, for every j <= j_max, the y^j slice of the generating
    series against the stated multiple of K(z)^(j+1), whose z^n coefficient
    is C(n+j, 2j+1).  None when it holds, else the first failing y^j and z^n
    with both values.
    """
    if j_max > order:
        raise ValueError("j_max cannot exceed the series order")
    gen = debranges_generating_series(k, order)
    return first_mismatch(
        (f"y^{j} z^{n}", c.coeff(j), factor * binomial(n + j, 2 * j + 1))
        for j in range(j_max + 1)
        for factor in [Fraction((-1) ** (j + k) * 2 * k, j + k) * binomial(2 * j - 1, j - k)]
        for n, c in enumerate(gen.coeffs)
    )


def jacobi_decomposition_witness(k: int, order: int) -> str | None:
    """Check the positivity-bearing factorization

        K(z) w^k = z^(k+1) y^k * (sum_n S_P(n) z^n) * (sum_n S_C(n) z^n)

    where S_P(n) = sum_{j<=n} P_j^(2k,0)(x), S_C(n) = sum_{j<=n} C_j^(-1/2)(x)
    are the Jacobi and Gegenbauer partial sums, taken at x = 1 - 2y.  None
    when it holds, else the first z^n where the sides differ, with both
    polynomials.
    """
    if order < k + 1:
        raise ValueError(f"order must be at least k + 1 = {k + 1}")
    inner = range(order - k)  # n = 0 .. order - (k + 1)
    jac = [orthopoly.to_y(orthopoly.jacobi_partial_sum_poly(n, 2 * k)) for n in inner]
    geg = [orthopoly.to_y(orthopoly.gegenbauer_partial_sum_poly(n)) for n in inner]
    product = ZSeries(jac) * ZSeries(geg)
    rhs = (product * Poly.monomial(1, k, "y")).shift_up(k + 1)
    gen = debranges_generating_series(k, order)
    return first_mismatch(
        (f"z^{n}", got, want) for n, (got, want) in enumerate(zip(gen.coeffs, rhs.coeffs))
    )


def milin_functional(d: Sequence[Scalar], n: int) -> Fraction:
    """The Milin functional sum_{k=1..n} (n+1-k) (k d_k^2 - 4/k) on a list of
    logarithmic coefficients (d[0] is d_1).  Zero for the Koebe values 2/k."""
    if len(d) < n:
        raise ValueError(f"need at least {n} logarithmic coefficients")
    total = Fraction(0)
    for k in range(1, n + 1):
        dk = Fraction(d[k - 1])
        total += (n + 1 - k) * (k * dk * dk - Fraction(4, k))
    return total


class PositivityViolation(Record):
    """A sign failure witnessed at an exact grid point."""

    __slots__ = ("quantity", "n", "k", "y", "value")

    quantity: str  # "weinstein", "debranges" or "debranges_slope"
    n: int
    k: int
    y: Fraction
    value: Fraction

    def __str__(self) -> str:
        return (
            f"{self.quantity}(n={self.n}, k={self.k}) at y={format_rational(self.y)}"
            f" -> {format_rational(self.value)}"
        )


def positivity_scan(
    n_max: int, y_grid: Sequence[Scalar]
) -> list[PositivityViolation]:
    """Scan L(n, k) >= 0, T(n, k) >= 0 and Tdot(n, k) <= 0 on exact grid
    points in (0, 1), on one EvalGrid of degree n_max; returns all
    violations (expected: none)."""
    grid = [Fraction(v) for v in y_grid]
    for v in grid:
        if not 0 < v < 1:
            raise ValueError(f"grid value {v} outside (0, 1)")
    violations: list[PositivityViolation] = []
    points = EvalGrid(grid, max(n_max, 0))  # exact for every n <= n_max
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            tau = debranges_poly(n, k)
            # -Tdot: the numerators i n_i of tau over its denominator
            minus_slope = _make([i * c for i, c in enumerate(tau._num)], tau._den, "y")
            found = (
                [(i, 0, "weinstein", v) for i, v in points.negatives(weinstein_poly(n, k))]
                + [(i, 1, "debranges", v) for i, v in points.negatives(tau)]
                + [(i, 2, "debranges_slope", -v) for i, v in points.negatives(minus_slope)]
            )
            found.sort(key=lambda f: f[:2])  # by point, then by quantity
            violations += [PositivityViolation(q, n, k, grid[i], v) for i, _, q, v in found]
    return violations
