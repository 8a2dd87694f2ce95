"""Gegenbauer and Jacobi polynomials over exact rationals.

Ingredients for the positivity side of the story: the Gegenbauer polynomials
C_n^(-1/2) defined as the z-coefficients of sqrt(1 - 2xz + z^2), Jacobi
polynomials P_n^(alpha, 0) from the classical three-term recurrence, the
Askey-Gasper partial sums, and exact sign scans.  Every value comes from a
cached exact polynomial: a single value is its Horner evaluation, and a
scan reads the signs at all the points from one packed integer dot
product per polynomial, and builds a Fraction only for a negative value.
The ``EvalGrid`` it reads them on is memoised per point set and degree, so
the scans of one suite share one grid and its packed columns.  The x and
y pictures are linked by x = 1 - 2y, i.e. y = e^(-t) and x = 1 - 2e^(-t).

The lambda = -1/2 Gegenbauer normalization is the generating-function one;
the square root series is expanded binomially, which collapses to monomials
because 1 - 2xz + z^2 = 1 + z(z - 2x).  The hypergeometric-style expansion
of C_n^(-1/2) at x = 1 is treated as a verified identity for n >= 2 (it is
genuinely false at n = 1, where it yields 1 - x instead of -x; see
gegenbauer_expansion_witness).  That expansion is built as one integer row
by its term ratio, apart from ``hypsum.pfq_terminating``, so that a fault in
one of the two does not hide in the other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exact import EvalGrid, Poly, Scalar, _make, binomial, first_mismatch
from . import lowner


def to_y(p: Poly) -> Poly:
    """Substitute x = 1 - 2y, mapping an x-polynomial to a y-polynomial."""
    if p.var != "x":
        raise ValueError(f"expected an x-polynomial, got variable {p.var!r}")
    return p.subs_linear(-2, 1, "y")


@lru_cache(maxsize=None)
def gegenbauer_minus_half(n: int) -> Poly:
    """C_n^(-1/2)(x): the z^n coefficient of sqrt(1 - 2xz + z^2).

    Expanding sqrt(1 + u) binomially with u = z(z - 2x) gives

        C_n(x) = sum_m (1/2 choose m) C(m, n-m) (-2x)^(2m-n),

    the sum running over ceil(n/2) <= m <= n.  With (1/2 choose m) =
    (-1)^(m+1) C(2m, m) / (4^m (2m-1)), the x^(2m-n) coefficient is
    (-1)^(m+n+1) C(2m, m) C(m, n-m) / (2^n (2m-1)), one integer numerator
    each over 2^n lcm(2m-1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    ms = range((n + 1) // 2, n + 1)
    d = math.lcm(*(2 * m - 1 for m in ms))
    nums = [0] * (n + 1)
    for m in ms:
        nums[2 * m - n] = (
            (-1) ** (m + n + 1) * binomial(2 * m, m) * binomial(m, n - m) * (d // (2 * m - 1))
        )
    return _make(nums, d << n, "x")


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
    # the coefficient c_j of t^(j+1) over D = (n-1)! n! is the integer
    # c_j D = 2 (-1)^j C(n-1, j) C(n+j-1, j) (n-1)! n!/(j+1), built from
    # c_0 D = 2D by the term ratio (j+1-n)(n+j) / ((j+1)(j+2)), exact division
    d = math.factorial(n - 1) * math.factorial(n)
    row = [0, 2 * d]
    for j in range(n - 1):
        row.append(row[-1] * (j + 1 - n) * (n + j) // ((j + 1) * (j + 2)))
    got = _make(row, d, "t").subs_linear(Fraction(-1, 2), Fraction(1, 2), "x")  # t = (1 - x)/2
    return first_mismatch([(f"n={n}", got, gegenbauer_minus_half(n))])


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
    return first_mismatch([(f"n={n}", to_y(quotient), lowner.chain_poly(n))])


@lru_cache(maxsize=None)
def jacobi_poly(n: int, alpha: Scalar) -> Poly:
    """P_n^(alpha, 0) as an exact polynomial in x, by one step of the
    classical three-term recurrence from the cached P_(n-1) and P_(n-2).

    With alpha = p/q every factor of the step is an integer over a power of
    q, so P_n is one row of integer numerators built from the rows of its
    predecessors and normalised once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    if n == 0:
        return Poly.const(1, "x")
    if n == 1:  # ((alpha + 2) x + alpha) / 2
        return _make([p, p + 2 * q], 2 * q, "x")
    for m in range(2, n - 1):  # fill the cache upward, so the depth stays constant
        jacobi_poly(m, alpha)
    prev, curr = jacobi_poly(n - 2, alpha), jacobi_poly(n - 1, alpha)
    # with 2n + alpha = s/q: q^2 lead = 2n (n q + p) (s - 2q), q^3 mid = c1 x + c0
    # and q^3 back = b
    s = 2 * n * q + p
    lead = 2 * n * (n * q + p) * (s - 2 * q)
    if lead == 0:
        raise ValueError(f"three-term recurrence degenerates at n={n}, alpha={alpha}")
    c1 = (s - q) * s * (s - 2 * q)
    c0 = (s - q) * p * p
    b = 2 * ((n - 1) * q + p) * (n - 1) * s * q
    # P_n = (mid P_(n-1) - back P_(n-2)) / lead over the row denominators
    g = math.gcd(curr._den, prev._den)
    su, sv = prev._den // g, curr._den // g
    u, v = curr._num, prev._num
    row = [0] * (n + 1)
    for i, c in enumerate(u):
        c *= su
        row[i] += c0 * c
        row[i + 1] += c1 * c
    for i, c in enumerate(v):
        row[i] -= b * sv * c
    return _make(row, q * lead * su * curr._den, "x")


@lru_cache(maxsize=None)
def jacobi_partial_sum_poly(n: int, alpha: Scalar) -> Poly:
    """sum_{j=0..n} P_j^(alpha, 0) as an exact polynomial in x: the cached
    sum to n - 1 plus P_n."""
    if n < 0:
        return Poly.zero("x")
    if n == 0:
        return jacobi_poly(0, alpha)
    for m in range(n - 1):  # fill the cache upward, so the depth stays constant
        _jacobi_partial_sum(m, alpha)
    return _jacobi_partial_sum(n - 1, alpha) + jacobi_poly(n, alpha)


@lru_cache(maxsize=None)
def gegenbauer_partial_sum_poly(n: int) -> Poly:
    """sum_{j=0..n} C_j^(-1/2) as an exact polynomial in x: the z^n Taylor
    coefficient of sqrt(1 - 2xz + z^2) / (1 - z), the cached sum to n - 1
    plus C_n."""
    if n < 0:
        return Poly.zero("x")
    for m in range(n - 1):  # fill the cache upward, so the depth stays constant
        _gegenbauer_partial_sum(m)
    return _gegenbauer_partial_sum(n - 1) + gegenbauer_minus_half(n)


# the recursions' own handles on their memos, which patched module names leave alone
_jacobi_partial_sum, _gegenbauer_partial_sum = jacobi_partial_sum_poly, gegenbauer_partial_sum_poly


def _in_interval(x: Scalar) -> Fraction:
    x = Fraction(x)
    if not -1 <= x <= 1:
        raise ValueError(f"x = {x} outside [-1, 1]")
    return x


@lru_cache(maxsize=None)
def _sign_grid(points: tuple[Fraction, ...], degree: int) -> EvalGrid:
    """The one EvalGrid of the points at the degree, so that every scan of
    the same points and degree shares its columns and their packings."""
    return EvalGrid(points, degree)


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
    xs = tuple(_in_interval(x) for x in x_grid)
    points = _sign_grid(xs, max(n_max, 0))
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
    xs = tuple(_in_interval(x) for x in x_grid)
    points = _sign_grid(xs, max(n_max, 0))
    return [
        (n, xs[i], value)
        for n in range(n_max + 1)
        for i, value in points.negatives(jacobi_partial_sum_poly(n, 2 * k))
    ]
