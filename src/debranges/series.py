"""Truncated formal power series in z with polynomial coefficients.

The central object is the bounded chain w(z, t) determined implicitly by
K(z) = e^t K(w), where K is the Koebe function z/(1-z)^2.  Writing
y = e^(-t), every z-coefficient of w is a polynomial in y, so the whole
chain lives in Q[y][[z]] and can be computed exactly.  The solver here reads
each coefficient off (1-z)^2 w = y z (1-w)^2, the implicit equation cleared
of denominators, which is deliberately independent of the recurrences in
:mod:`debranges.lowner` so the two routes can cross-check each other.

Truncation semantics: a series of order N is known exactly through z^N, and
binary operations return the minimum order of their operands; nothing is
ever extrapolated.

``ZSeries`` is a container with schoolbook arithmetic: the z^m coefficient
of a product, and of an inverse, is a sum of plain ``Poly`` products.  The
chain's own products do not go through it.  One memo, ``_packed_koebe``,
holds the chain and its packed form: each coefficient is packed once, when
it is made, at the one width of ``_chain_bits``, so that the symmetric
square is one folded dot product of packed integers, unpacked once, and the
powers of the chain that :mod:`debranges.dbw` reads start from the same
integers and stay packed to their last running sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence, Union

from .exact import Poly, Record, Scalar, _make, _pack, _set_field, _unpack

PolyOrScalar = Union[Poly, int, Fraction]


def time_derivative(p: Poly) -> Poly:
    """d/dt applied to a polynomial in y = e^(-t), i.e. -y * dp/dy.

    This single convention realizes every t-derivative in the package: the
    y^i numerator n_i becomes -i n_i over the same denominator.
    """
    return _make([-i * n for i, n in enumerate(p._num)], p._den, p.var)


class ZSeries(Record):
    """Power series in z truncated at z^order, with Poly coefficients.

    coeffs[n] is the coefficient of z^n; all coefficients share one inner
    variable (``y`` unless stated otherwise).  Instances are immutable.
    """

    __slots__ = ("coeffs", "var")

    coeffs: tuple[Poly, ...]
    var: str

    def __init__(self, coeffs: Sequence[PolyOrScalar], var: str = "y"):
        if not coeffs:
            raise ValueError("a series needs at least the z^0 coefficient")
        converted = []
        for c in coeffs:
            if isinstance(c, Poly):
                if c.var != var:
                    raise ValueError(f"coefficient in {c.var!r}, series in {var!r}")
                converted.append(c)
            else:
                converted.append(Poly.const(c, var))
        _set_field(self, "coeffs", tuple(converted))
        _set_field(self, "var", var)

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, order: int, var: str = "y") -> "ZSeries":
        return cls((Poly.const(1, var),) + (Poly.zero(var),) * order, var)

    # -- structure --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Poly:
        """Coefficient of z^n; n beyond the truncation order is an error."""
        if not 0 <= n <= self.order:
            raise IndexError(f"z^{n} is outside the known order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _check(self, other: "ZSeries") -> None:
        if self.var != other.var:
            raise ValueError(f"mixed inner variables {self.var!r}, {other.var!r}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "ZSeries") -> "ZSeries":
        self._check(other)
        n = min(self.order, other.order)
        return ZSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], self.var
        )

    def __neg__(self) -> "ZSeries":
        return ZSeries([-c for c in self.coeffs], self.var)

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        return self + (-other)

    def __mul__(self, other: "ZSeries | PolyOrScalar") -> "ZSeries":
        if not isinstance(other, ZSeries):
            if not isinstance(other, (Poly, int, Fraction)):
                return NotImplemented
            return ZSeries([c * other for c in self.coeffs], self.var)
        self._check(other)
        a, b, zero = self.coeffs, other.coeffs, Poly.zero(self.var)
        # c_m = a_0 b_m + ... + a_m b_0, through the lower of the two orders
        return ZSeries(
            [
                sum((x * y for x, y in zip(a[: m + 1], reversed(b[: m + 1]))), zero)
                for m in range(min(len(a), len(b)))
            ],
            self.var,
        )

    __rmul__ = __mul__

    def inverse(self) -> "ZSeries":
        """Multiplicative inverse; the z^0 coefficient must be a unit
        (a nonzero constant polynomial).

        Each coefficient is a sum of plain ``Poly`` products of the ones
        before it."""
        c0 = self.coeffs[0]
        if not c0.is_const() or c0.is_zero():
            raise ValueError(f"z^0 coefficient {c0!r} is not a unit")
        inv0 = 1 / c0.const_value()
        out = [Poly.const(inv0, self.var)]
        for n in range(1, self.order + 1):
            # b_n = -inv0 * (a_1 b_(n-1) + ... + a_n b_0)
            pairs = zip(self.coeffs[1 : n + 1], reversed(out))
            out.append(sum((x * y for x, y in pairs), Poly.zero(self.var)) * -inv0)
        return ZSeries(out, self.var)

    # -- calculus ---------------------------------------------------------

    def dz(self) -> "ZSeries":
        """Derivative with respect to z; the order drops by one."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 series")
        return ZSeries(
            [(i + 1) * self.coeffs[i + 1] for i in range(self.order)], self.var
        )

    def tdot(self) -> "ZSeries":
        """Time derivative: -y d/dy applied to every coefficient."""
        return ZSeries([time_derivative(c) for c in self.coeffs], self.var)

    def shift_up(self, k: int = 1) -> "ZSeries":
        """Multiply by z^k; the known order grows by k."""
        if k < 0:
            raise ValueError("shift_up needs k >= 0")
        return ZSeries((Poly.zero(self.var),) * k + self.coeffs, self.var)

    def eval_inner(self, value: Scalar) -> tuple[Fraction, ...]:
        """Evaluate every coefficient at an exact value of the inner variable."""
        return tuple(c(value) for c in self.coeffs)

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        parts = [f"({c})*z^{n}" for n, c in enumerate(self.coeffs) if not c.is_zero()]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(z^{self.order + 1})"

    def __repr__(self) -> str:
        return f"ZSeries({self})"


def _chain_bits(order: int) -> int:
    """The one width B of the base 2^B at which the chain through z^order
    is packed, for its squares, its powers and their running sums.

    With w^_0 = 0, w^_1 = 1 and w^_n = 4 w^_(n-1) + w^_(n-2) + sum_i w^_i
    w^_(n-1-i), the norm of 2 - 2y being 4, ||w_n||_1 <= w^_n, which bounds
    every y-coefficient of the square sum_i w_i w_(n-1-i).  Each one of the
    z^n coefficient of (w/y)^m is at most [z^n] w^^m, so at most
    G = max_(n <= order) [z^n] 1 / (1 - w^) >= w^_order, and a row of W_k or
    B_k in :mod:`debranges.dbw` adds at most order + 1 of those, each with a
    weight of at most order + 1.  B = bitlen((order + 1)^2 G) + 1 puts every
    digit under 2^(B-1) in size, so ``_unpack`` reads each one back."""
    hat = [0, 1]
    for n in range(2, order + 1):
        hat.append(4 * hat[n - 1] + hat[n - 2] + sum(map(mul, hat[1 : n - 1], hat[n - 2 : 0 : -1])))
    g = [1]  # [z^n] 1 / (1 - w^)
    for n in range(1, order + 1):
        g.append(sum(map(mul, hat[1 : n + 1], reversed(g))))
    return ((order + 1) ** 2 * max(g)).bit_length() + 1


def _fold(row: Sequence[int], n: int) -> int:
    """sum_(i=0..n) row[i] row[n-i], the z^n coefficient of the square of
    sum_i row[i] z^i: each pair taken once and doubled, the middle squared."""
    square = sum(map(mul, row[: (n + 1) // 2], row[n : n // 2 : -1])) << 1
    return square + row[n // 2] ** 2 if n % 2 == 0 else square


@lru_cache(maxsize=None)
def _packed_koebe(order: int) -> tuple[int, tuple[int, ...], tuple[Poly, ...]]:
    """(B, packed, w): the chain's coefficients w_n through z^order, and each
    w_n / y packed once, as packed[n], at the base 2^B of ``_chain_bits``.

    Cleared of denominators, K(w) = y K(z) is (1-z)^2 w = y z (1-w)^2, so with
    w_0 = 0 and w_1 = y (at y = 1 the chain is w = z) its z^n coefficient gives

        w_n = (2 - 2y) w_(n-1) - w_(n-2) + y sum_{i=1..n-2} w_i w_(n-1-i).

    Every w_n is a polynomial in y with integer coefficients, divisible by y.
    The square, symmetric in i and n-1-i, is one folded dot product of the
    packed integers, each pair once, unpacked once; the linear terms are
    ``Poly`` arithmetic.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    bits = _chain_bits(order)
    two_minus_2y = Poly([2, -2], "y")
    w = [Poly.zero("y"), Poly.variable("y")]
    packed = [0, 1]
    for n in range(2, order + 1):
        # the square over y^2 at y = 2^B, packed[0] = 0
        y_square = _make([0, 0, 0] + _unpack(_fold(packed, n - 1), bits), 1, "y")
        w.append(two_minus_2y * w[n - 1] - w[n - 2] + y_square)
        packed.append(_pack(w[n]._num[1:], bits))
    return bits, tuple(packed), tuple(w)


def koebe_chain(order: int) -> ZSeries:
    """The bounded chain w with K(w) = y K(z) through z^order, read off its
    quadratic by ``_packed_koebe``."""
    return ZSeries(_packed_koebe(order)[2])
