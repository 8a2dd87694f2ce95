"""Reference values computed apart from the program under test.

Everything here uses only ``math.comb``, ``math.factorial`` and ``Fraction``
and never imports ``debranges``, so a check that compares the program's
output against these values cannot pass because both sides share a bug.
Each function returns a dense coefficient list (index = power of y) with
trailing zeros stripped, or an exact value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def _strip(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def comb(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n."""
    return math.comb(n, k) if 0 <= k <= n else 0


def chain_coeff(n: int, j: int) -> Fraction:
    """a(n, j) = 2 (-1)^(j+1) C(n+j-1, n-j) (2j-1)! / ((j-1)! (j+1)!)."""
    sign = 1 if j % 2 else -1
    return Fraction(
        2 * sign * comb(n + j - 1, n - j) * math.factorial(2 * j - 1),
        math.factorial(j - 1) * math.factorial(j + 1),
    )


@lru_cache(maxsize=None)
def chain_poly(n: int) -> tuple[Fraction, ...]:
    """B_n(y) = sum_j a(n, j) y^j, the z^n coefficient of the Koebe chain."""
    return _strip([Fraction(0)] + [chain_coeff(n, j) for j in range(1, n + 1)])


@lru_cache(maxsize=None)
def weinstein(n: int, k: int) -> tuple[Fraction, ...]:
    """L(n, k) = sum_{j=k..n} (-1)^(k+j) C(2j, j-k) C(n+j+1, n-j) y^j."""
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(k, n + 1):
        sign = -1 if (k + j) % 2 else 1
        coeffs[j] = Fraction(sign * comb(2 * j, j - k) * comb(n + j + 1, n - j))
    return _strip(coeffs)


@lru_cache(maxsize=None)
def debranges(n: int, k: int) -> tuple[Fraction, ...]:
    """T(n, k): its y^j coefficient is k/j times that of L(n, k)."""
    return tuple(c * Fraction(k, j) if j else c for j, c in enumerate(weinstein(n, k)))


def series_coeff(kind: str, k: int, m: int) -> tuple[Fraction, ...]:
    """z^m coefficient of W_k (kind "W") or of K(z) w^k (kind "B"):
    L(m-1, k) or T(m-1, k), and zero for m <= k."""
    if m <= k:
        return ()
    return weinstein(m - 1, k) if kind == "W" else debranges(m - 1, k)


def horner(coeffs, y: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc
