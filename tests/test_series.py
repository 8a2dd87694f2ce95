"""Truncated series ring and the Koebe chain."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from debranges import lowner
from debranges.exact import Poly
from debranges.series import ZSeries, _chain_bits, _fold, koebe_chain, time_derivative


class TestRingOperations:
    def test_z_times_z(self):
        z = ZSeries([0, 1, 0, 0])
        sq = z * z
        assert sq == ZSeries([0, 0, 1, 0])

    def test_geometric_inverse(self):
        one_minus_z = ZSeries([1, -1, 0, 0])
        assert one_minus_z.inverse() == ZSeries([1, 1, 1, 1])

    def test_product_with_inverse_is_one(self):
        one_minus_z = ZSeries([1, -1, 0, 0])
        geometric = ZSeries([1, 1, 1, 1])
        assert one_minus_z * geometric == ZSeries.one(3)

    def test_min_order_truncation(self):
        a = ZSeries([1, 1, 1, 1, 1])
        b = ZSeries([1, 1])
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_non_unit_divisor_rejected(self):
        with pytest.raises(ValueError):
            ZSeries([0, 1]).inverse()
        with pytest.raises(ValueError):
            ZSeries([Poly([0, 1], "y"), Poly.zero("y")]).inverse()

    def test_scalar_and_poly_multiplication(self):
        y = Poly.variable("y")
        s = ZSeries([1, 2]) * y
        assert s == ZSeries([y, 2 * y])
        assert ZSeries([1, 2]) * 3 == ZSeries([3, 6])

    @pytest.mark.parametrize("other", [1.5, "a", [1], None])
    def test_foreign_operands_are_refused(self, other):
        # as Poly.__mul__ does: NotImplemented, so the TypeError names ZSeries
        for product in (lambda: ZSeries([1, 2]) * other, lambda: other * ZSeries([1, 2])):
            with pytest.raises(TypeError, match="'ZSeries'"):
                product()


# Naive reference: a series is a list of coefficient lists of Fractions.


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _poly_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def ref_series_mul(s, t):
    out = []
    for m in range(min(len(s), len(t))):
        acc = []
        for i in range(m + 1):
            acc = _poly_add(acc, _poly_mul(s[i], t[m - i]))
        out.append(acc)
    return out


def ref_series_inverse(s):
    inv0 = 1 / s[0][0]
    out = [[inv0]]
    for n in range(1, len(s)):
        acc = []
        for k in range(1, n + 1):
            acc = _poly_add(acc, _poly_mul(s[k], out[n - k]))
        out.append(_trim(-inv0 * c for c in acc))
    return out


def as_lists(series):
    return [list(c.coeffs) for c in series.coeffs]


def as_series(lists):
    return ZSeries([Poly(c, "y") for c in lists])


poly_lists = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=4
).map(_trim)
series_lists = st.integers(0, 5).flatmap(
    lambda n: st.lists(poly_lists, min_size=n + 1, max_size=n + 1)
)
unit = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


class TestFusedProductsAgainstReference:
    """Series product and inverse against the naive coefficient loops, with
    coefficients over unequal denominators."""

    @given(s=series_lists, t=series_lists)
    @example(
        s=[[Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 5)], [Fraction(-3, 7)]],
        t=[[Fraction(5, 6)], [0, Fraction(1, 9)], [Fraction(4, 11), 1]],
    )
    @settings(max_examples=25, deadline=None)
    def test_product(self, s, t):
        assert as_lists(as_series(s) * as_series(t)) == ref_series_mul(s, t)

    @given(c0=unit, tail=series_lists)
    @example(c0=Fraction(2, 3), tail=[[Fraction(1, 2), Fraction(1, 5)], [Fraction(-1, 7)]])
    @settings(max_examples=25, deadline=None)
    def test_inverse(self, c0, tail):
        s = [[c0]] + tail
        assert as_lists(as_series(s).inverse()) == ref_series_inverse(s)


wide_numerator = st.integers(-(2**200), 2**200)
wide_scalar = st.one_of(
    wide_numerator.map(Fraction),
    st.builds(Fraction, wide_numerator, st.integers(1, 10**6)),
)
wide_poly = st.lists(wide_scalar, max_size=13).map(_trim)  # degree up to 12


@st.composite
def wide_series(draw):
    """Coefficient lists of a series of order 0 to 6 whose first z_val
    coefficients vanish and whose every coefficient is divisible by y^y_val."""
    order = draw(st.integers(0, 6))
    z_val = draw(st.integers(0, order + 1))
    y_val = draw(st.integers(0, 3))
    body = draw(st.lists(wide_poly, min_size=order + 1 - z_val, max_size=order + 1 - z_val))
    return [[]] * z_val + [[0] * y_val + c if c else [] for c in body]


def all_equal_series(order, degree, value):
    """The series with every coefficient of z^0..z^order and y^0..y^degree
    equal to value."""
    return ZSeries([Poly([value] * (degree + 1), "y")] * (order + 1))


class TestPackedProduct:
    """The series product on wide numerators against the Fraction oracle,
    at the widest digits of its coefficients, and on the chain's powers.

    The class keeps the name of the packed kernel whose base bound these
    cases were chosen at; the product is now a sum of ``Poly`` products,
    and the cases gate it unchanged."""

    @given(s=wide_series(), t=wide_series())
    @example(s=[[0, 0, Fraction(1, 3)], [], [0, 0, 5]], t=[[]])
    @example(s=[[], [0, 2**200, -(2**200)]], t=[[], [0, -(2**200), Fraction(2**200, 999_983)]])
    @example(s=[[Fraction(-7, 12)]], t=[[1, 2], [Fraction(1, 5)], [3]])
    @settings(max_examples=60, deadline=None)
    def test_against_reference(self, s, t):
        assert as_lists(as_series(s) * as_series(t)) == ref_series_mul(s, t)

    @pytest.mark.parametrize("order, degree", [(2, 6), (6, 6), (14, 14)])
    @pytest.mark.parametrize("k", [1, 5, 61, 200])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
    def test_digits_at_the_bound(self, order, degree, k, signs):
        # Every numerator is +-(2^k - 1) with one sign per factor, so the
        # middle y-coefficient of the z^order coefficient is (order + 1)
        # (degree + 1) (2^k - 1)^2 in size, the largest that factors of these
        # sizes and bit lengths can give.  At (2, 6) and k = 5 it is 20181,
        # over 2^14, the edge of the former packed kernel's 16-bit base.
        ca, cb = signs[0] * (2**k - 1), signs[1] * (2**k - 1)
        product = all_equal_series(order, degree, ca) * all_equal_series(order, degree, cb)
        for m, c in enumerate(product.coeffs):
            expected = [(m + 1) * (min(j, 2 * degree - j) + 1) * ca * cb for j in range(2 * degree + 1)]
            assert c == Poly(expected, "y")

    @pytest.mark.parametrize("order", [12, 28])
    def test_chain_powers_equal_the_schoolbook_products(self, order):
        w = koebe_chain(order)
        power = w
        for m in range(1, order + 1):
            schoolbook = [
                sum((x * y for x, y in zip(power.coeffs[: n + 1], reversed(w.coeffs[: n + 1]))),
                    Poly.zero("y"))
                for n in range(order + 1)
            ]
            power = power * w
            assert list(power.coeffs) == schoolbook, f"w^{m} * w"


class TestKoebe:
    def test_defining_product(self):
        # K(z) (1-z)^2 = z
        lhs = ZSeries(range(5)) * ZSeries([1, -2, 1, 0, 0])
        assert lhs == ZSeries([0, 1, 0, 0, 0])


def _log_derivative_residual(w):
    """(1 + w)(1 - z) z w_z - (1 + z)(1 - w) w, by public ZSeries operations."""
    one = ZSeries.one(w.order)
    z = ZSeries([0, 1] + [0] * (w.order - 1))
    return (one + w) * (one - z) * w.dz().shift_up(1) - (one + z) * (one - w) * w


def _fold_into(out, a, b, scale):
    """out[i+j] += scale * a[i] * b[j], the schoolbook kernel the chain once
    folded its square with."""
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += scale * x * y


def _folded_square(w, n):
    """The numerators of sum_{i=1..n-2} w_i w_(n-1-i), each pair once, with
    scale 2 off the middle and 1 on it."""
    square = [0] * n
    for i in range(1, (n + 1) // 2):
        j = n - 1 - i
        _fold_into(square, w[j]._num, w[i]._num, 2 if i < j else 1)
    return square


def _folded_chain(order):
    """The chain's coefficients through z^order by the former schoolbook fold
    of the square on the integer numerators."""
    y = Poly.variable("y")
    w = [Poly.zero("y"), y]
    for n in range(2, order + 1):
        w.append(Poly([2, -2], "y") * w[n - 1] - w[n - 2] + y * Poly(_folded_square(w, n), "y"))
    return w


class TestFold:
    @given(data=st.data(), length=st.integers(1, 40), zero=st.booleans())
    @settings(max_examples=80, deadline=None)
    @example(data=None, length=1, zero=True)
    def test_fold_is_the_unfolded_dot_product(self, data, length, zero):
        # sum_i row[i] row[n-i] over every i, for n odd and even, on rows of
        # either sign and on rows of zeros
        if zero:
            row = [0] * length
        else:
            row = data.draw(st.lists(st.integers(-(2**200), 2**200), min_size=length,
                                     max_size=length))
        for n in range(length):
            want = sum(row[i] * row[n - i] for i in range(n + 1))
            assert _fold(row, n) == want, (row, n)
            assert _fold(tuple(row), n) == want, (row, n)

    def test_fold_of_a_row_of_ones_counts_its_pairs(self):
        # sum_i 1 * 1 over i = 0..n, and the middle of an even n once
        assert [_fold([1] * 9, n) for n in range(9)] == list(range(1, 10))
        assert [_fold([1, -1] * 4, n) for n in range(8)] == [
            (-1) ** n * (n + 1) for n in range(8)
        ]


class TestKoebeChain:
    def test_packed_square_equals_the_schoolbook_fold(self):
        folded = _folded_chain(60)
        for order in range(1, 61):
            assert list(koebe_chain(order).coeffs) == folded[: order + 1], order

    def test_majorant_bounds_every_digit_of_every_square(self):
        # the digits are the numerators of sum_i w_i w_(n-1-i) over y^2; the
        # majorant w^_n of the recurrence bounds those of every n, and the
        # packing base of every order holds the majorant at that order
        top = 100
        w = koebe_chain(top).coeffs
        widest = [0, 0] + [
            max(map(abs, _folded_square(w, n)), default=0) for n in range(2, top + 1)
        ]
        hat = [0, 1]
        for n in range(2, top + 1):
            square = sum(hat[i] * hat[n - 1 - i] for i in range(1, n - 1))
            hat.append(4 * hat[n - 1] + hat[n - 2] + square)
        for n in range(top + 1):
            assert sum(map(abs, w[n]._num)) <= hat[n], n
            assert widest[n] <= hat[n], n
        for order in range(2, top + 1):
            base = 2 ** (_chain_bits(order) - 1)
            assert max(widest[: order + 1]) <= hat[order] < base, order

    def test_first_coefficient(self):
        assert koebe_chain(4).coefficient(1) == Poly.variable("y")

    def test_second_coefficient(self):
        # from the coefficient recurrence: B_2 = 2y - 2y^2
        assert koebe_chain(4).coefficient(2) == Poly([0, 2, -2], "y")

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_lowest_orders_are_the_chain_rows(self, order):
        rows = [lowner.chain_poly(n) for n in range(1, order + 1)]
        assert koebe_chain(order) == ZSeries([Poly.zero("y")] + rows)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            koebe_chain(0)

    def test_collapses_at_time_zero(self):
        values = koebe_chain(8).eval_inner(1)
        assert values == (0, 1) + (0,) * 7

    def test_implicit_equation(self):
        # K(w) - y K(z) = 0 through the truncation order
        w = koebe_chain(10)
        one = ZSeries.one(10)
        inv = (one - w).inverse()
        k_of_w = w * (inv * inv)
        target = ZSeries([Poly.monomial(n, 1, "y") for n in range(11)])
        assert (k_of_w - target).is_zero()

    def test_lowner_differential_equation(self):
        # (1 + w) dw/dt + (1 - w) w = 0
        w = koebe_chain(10)
        one = ZSeries.one(10)
        residual = (one + w) * w.tdot() + (one - w) * w
        assert residual.is_zero()

    def test_koebe_log_derivative(self):
        # the log-derivative of K(w) = y K(z) that W_k is read off
        for order in range(1, 21):
            assert _log_derivative_residual(koebe_chain(order)).is_zero(), order

    def test_koebe_log_derivative_detects_a_bumped_coefficient(self):
        coeffs = list(koebe_chain(12).coeffs)
        coeffs[5] += Poly.monomial(1, 2, "y")
        assert not _log_derivative_residual(ZSeries(coeffs)).is_zero()


class TestTimeDerivative:
    def test_monomials(self):
        y = Poly.variable("y")
        assert time_derivative(y) == -y
        assert time_derivative(y * y) == Poly([0, 0, -2], "y")
        assert time_derivative(Poly.const(5, "y")).is_zero()

    @given(
        coeffs=st.lists(
            st.integers(-(10**12), 10**12) | st.fractions(max_denominator=60), max_size=9
        ),
        var=st.sampled_from(["y", "x"]),
    )
    @example(coeffs=[], var="y")
    @example(coeffs=[Fraction(7, 3)], var="y")
    @example(coeffs=[0, Fraction(1, 2), 0, Fraction(1, 6)], var="y")
    @settings(max_examples=100, deadline=None)
    def test_matches_minus_y_times_the_derivative(self, coeffs, var):
        # the former construction, kept as the oracle: -(y * dp/dy) on Poly
        p = Poly(coeffs, var)
        assert time_derivative(p) == -(Poly.variable(var) * p.derivative())

