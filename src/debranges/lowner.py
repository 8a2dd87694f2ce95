"""Coefficient theory of the Koebe chain.

The chain w(z, t) has Taylor coefficients that are polynomials
B_n(y) = sum_j a(n, j) y^j in y = e^(-t).  This module builds the triangular
table a(n, j) two independent ways: a first-order recurrence with a diagonal
seed, which gives each cached row B_n in one step from B_(n-1), and a closed
form in binomials and factorials.  It also provides the residuals of the
defining differential relations, all in exact arithmetic:

* row rule:      (n - j) a(n, j) = (n - 1 + j) a(n-1, j)   for j < n
* diagonal:      a(j, j) = -2 (2j - 1) / (j + 1) * a(j-1, j-1),  a(1, 1) = 1
* closed form:   a(n, j) = 2 (-1)^(j+1) C(n+j-1, n-j) (2j-1)! / ((j-1)!(j+1)!)
* second-order ODE:  y^2 (1-y) B'' + y (1-y) B' + (n^2 y - 1) B = 0
* coupled system:    y (B_n' + B_{n-1}') = n B_n - (n-1) B_{n-1}
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import Poly, Record, _raw, binomial


class CoeffTable(Record):
    """Triangular table (n, j) -> a(n, j) for 1 <= j <= n <= n_max."""

    __slots__ = ("n_max", "entries")

    n_max: int
    entries: dict[tuple[int, int], Fraction]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        n, j = key
        if not 1 <= j <= n <= self.n_max:
            raise KeyError(f"(n, j) = ({n}, {j}) outside the table triangle")
        return self.entries[(n, j)]


def coeff_table(n_max: int) -> CoeffTable:
    """Chain coefficient triangle read off the cached rows ``chain_poly(n)``."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return CoeffTable(n_max, {
        (n, j): a
        for n in range(1, n_max + 1)
        for j, a in enumerate(chain_poly(n).coeffs[1:], start=1)
    })


def coeff_closed(n: int, j: int) -> Fraction:
    """Closed form of the chain coefficient a(n, j)."""
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got (n, j) = ({n}, {j})")
    sign = -1 if j % 2 == 0 else 1
    value = (
        2
        * sign
        * binomial(n + j - 1, n - j)
        * math.factorial(2 * j - 1)
        // (math.factorial(j - 1) * math.factorial(j + 1))
    )
    return Fraction(value)


@lru_cache(maxsize=None)
def chain_poly(n: int) -> Poly:
    """B_n(y): the z^n coefficient of the chain as a polynomial in y, by one
    step of the row rule and the diagonal seed from the cached B_(n-1).

    Every a(n, j) is an integer, since the recurrence of the chain has
    integer coefficients, so each step is an exact integer division of the
    numerators of B_(n-1).  B_1 = y, and B_n(1) = 0 for n >= 2 since the
    chain at t = 0 is z itself.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return Poly.variable("y")
    for m in range(2, n - 1):  # fill the cache upward, so the depth stays constant
        chain_poly(m)
    prev = chain_poly(n - 1)._num  # prev[j] = a(n-1, j), over the denominator 1
    row = [(n - 1 + j) * prev[j] // (n - j) for j in range(1, n)]
    diagonal = -2 * (2 * n - 1) * prev[n - 1] // (n + 1)
    return _raw((0, *row, diagonal), 1, "y")


def ode_residual(n: int) -> Poly:
    """y^2 (1-y) B_n'' + y (1-y) B_n' + (n^2 y - 1) B_n; zero for every n."""
    b = chain_poly(n)
    y = Poly.variable("y")
    one_minus_y = Poly([1, -1], "y")
    bp = b.derivative()
    bpp = bp.derivative()
    return y * y * one_minus_y * bpp + y * one_minus_y * bp + (n * n * y - 1) * b


def system_residual(n: int) -> Poly:
    """y (B_n' + B_{n-1}') - n B_n + (n-1) B_{n-1}; zero for every n >= 2."""
    if n < 2:
        raise ValueError("the coupled system starts at n = 2")
    b_n = chain_poly(n)
    b_prev = chain_poly(n - 1)
    y = Poly.variable("y")
    return y * (b_n.derivative() + b_prev.derivative()) - n * b_n + (n - 1) * b_prev
