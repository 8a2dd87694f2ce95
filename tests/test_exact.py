"""Arithmetic kernel: rationals, polynomials, rational functions."""

from fractions import Fraction

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from debranges import exact
from debranges.exact import (
    EvalGrid,
    Poly,
    RationalFunction,
    _pack,
    _unpack,
    binomial,
    first_mismatch,
    format_rational,
    pochhammer,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
constants = rationals | st.integers(-(2**70), 2**70)
variables = st.text(min_size=1, max_size=3)


def poly_strategy(var="y", max_degree=6):
    return st.lists(rationals, min_size=0, max_size=max_degree + 1).map(
        lambda cs: Poly(cs, var)
    )


class TestRationalScalar:
    def test_normalization(self):
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(-1, -2) == Fraction(1, 2)
        assert Fraction(-1, 2).denominator == 2  # denominator kept positive

    def test_addition(self):
        assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    def test_format(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(8, 4)) == "2"
        assert format_rational(Fraction(-5, 10)) == "-1/2"


class TestFirstMismatch:
    def test_renders_rationals_as_p_over_q_and_polys_through_str(self):
        assert first_mismatch([("n=2", Fraction(-59, 3), -20)]) == "n=2: -59/3 != -20"
        assert first_mismatch([("k=1", 6, Fraction(6, 2) + 1)]) == "k=1: 6 != 4"
        got, want = Poly([0, 2, -3], "y"), Poly([0, 1], "y")
        assert first_mismatch([("z^4", got, want)]) == f"z^4: {got} != {want}"
        assert first_mismatch([("z^4", got, want)]) == "z^4: -3*y^2 + 2*y != y"

    def test_none_when_every_case_agrees(self):
        assert first_mismatch([]) is None
        cases = [("a", Fraction(1, 2), Fraction(2, 4)), ("b", Poly([1], "x"), 1)]
        assert first_mismatch(cases) is None

    def test_names_the_first_failure_and_stops_there(self):
        seen = []

        def cases():
            for i in range(10):
                seen.append(i)
                yield f"i={i}", i * i, 2 * i

        # i = 0 agrees and i = 1 is the first case that does not
        assert first_mismatch(cases()) == "i=1: 1 != 2"
        assert seen == [0, 1]


class TestPoly:
    @given(value=constants, var=variables)
    @settings(max_examples=60, deadline=None)
    @example(value=0, var="y")
    @example(value=Fraction(6, 3), var="l")
    def test_a_constant_hashes_as_the_value_it_equals(self, value, var):
        c = Poly.const(value, var)
        assert c == value and hash(c) == hash(value)
        assert len({c, value}) == 1 and {c: 1}[value] == 1

    def test_derivative(self):
        assert Poly([0, 0, 1], "y").derivative() == Poly([0, 2], "y")

    def test_gcd(self):
        a = Poly([-1, 0, 1], "y")  # y^2 - 1
        b = Poly([-1, 1], "y")  # y - 1
        assert a.gcd(b) == b

    def test_resultant_linear(self):
        assert Poly([0, 1], "l").resultant(Poly([2, 1], "l")) == 2

    def test_shift(self):
        p = Poly([0, 0, 1], "x")  # x^2
        assert p.shift(1) == Poly([1, 2, 1], "x")

    def test_subs_linear_round_trip(self):
        p = Poly([1, -3, 2], "x")
        q = p.subs_linear(-2, 1, "y")  # x -> 1 - 2y
        back = q.subs_linear(Fraction(-1, 2), Fraction(1, 2), "x")
        assert back == p

    def test_exact_div(self):
        num = Poly([-1, 0, 1], "y")
        assert num.exact_div(Poly([1, 1], "y")) == Poly([-1, 1], "y")
        with pytest.raises(ValueError):
            Poly([1, 1], "y").exact_div(Poly([0, 1], "y"))

    def test_mixed_variables_rejected(self):
        with pytest.raises(ValueError):
            Poly([1], "x") + Poly([1], "y")
        with pytest.raises(ValueError):
            Poly([1], "x") * Poly([1], "y")

    def test_leading_normalization(self):
        assert Poly([1, 2, 0, 0], "y").degree == 1
        assert Poly([], "y").is_zero()

    def test_evaluation(self):
        p = Poly([1, -1, 2], "y")
        assert p(Fraction(1, 2)) == 1 - Fraction(1, 2) + 2 * Fraction(1, 4)

    def test_call_takes_only_scalars(self):
        # a substitution is shift or subs_linear; there is no composition
        with pytest.raises(TypeError, match="exact scalar"):
            Poly([1, -1, 2], "y")(Poly([0, 1], "x"))

    @given(p=poly_strategy(), q=poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_both(self, p, q):
        if p.is_zero() and q.is_zero():
            return
        g = p.gcd(q)
        if not p.is_zero():
            p.exact_div(g)
        if not q.is_zero():
            q.exact_div(g)

    @given(p=poly_strategy(), q=poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_exact_division_inverts_product(self, p, q):
        if q.is_zero():
            return
        assert (p * q).exact_div(q) == p

    @given(p=poly_strategy(), q=poly_strategy(), r=poly_strategy())
    @settings(max_examples=40, deadline=None)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(p=poly_strategy("l", 4), q=poly_strategy("l", 4))
    @example(p=Poly([0, 1], "l"), q=Poly([1, 0, 0, 1], "l"))
    @settings(max_examples=30, deadline=None)
    def test_resultant_matches_sympy(self, p, q):
        # the oracle is the Sylvester determinant: sympy's resultant() has the
        # wrong sign for Res(l, l^3 + 1), which is 1 by definition
        sympy = pytest.importorskip("sympy")
        from sympy.polys.subresultants_qq_zz import sylvester

        if p.degree < 1 or q.degree < 1:
            return
        l = sympy.Symbol("l")
        sp = sum(sympy.Rational(c) * l**i for i, c in enumerate(p.coeffs))
        sq = sum(sympy.Rational(c) * l**i for i, c in enumerate(q.coeffs))
        expected = sylvester(sp, sq, l).det()
        assert sympy.Rational(str(p.resultant(q))) == expected


# A plain reference: coefficient lists of Fractions, lowest power first,
# with the operations written out the textbook way.


def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return ref_trim(x + sign * y for x, y in zip(a, b))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for i, y in enumerate(b):
            rem[k + i] -= c * y
    return ref_trim(quot), ref_trim(rem)


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def ref_compose_linear(a, s, t):
    """a(s*x + t) by Horner on lists."""
    acc = []
    for c in reversed(a):
        acc = ref_add(ref_mul(acc, [t, s]), [c])
    return acc


def ref_eval(a, v):
    return sum((c * Fraction(v) ** i for i, c in enumerate(a)), Fraction(0))


def canonical(p):
    """The storage invariant: integer numerators, no trailing zero, a
    positive denominator coprime to the content, zero as () over 1."""
    num, den = p._num, p._den
    assert all(type(n) is int for n in num) and type(den) is int
    if not num:
        assert den == 1
        return True
    assert num[-1] != 0 and den > 0 and math.gcd(den, *num) == 1
    return True


coeff_lists = st.lists(rationals, min_size=0, max_size=7)


class TestKernelAgainstReference:
    """Every Poly operation agrees with the Fraction-list reference and
    returns canonical storage."""

    def check(self, p, ref, var="y"):
        assert canonical(p)
        assert p.var == var
        assert list(p.coeffs) == ref
        assert all(type(c) is Fraction for c in p.coeffs)

    @given(a=coeff_lists)
    @settings(max_examples=25, deadline=None)
    def test_construction(self, a):
        self.check(Poly(a, "y"), ref_trim(a))

    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=25, deadline=None)
    def test_add_sub_mul(self, a, b):
        p, q = Poly(a, "y"), Poly(b, "y")
        a, b = ref_trim(a), ref_trim(b)
        self.check(p + q, ref_add(a, b))
        self.check(p - q, ref_add(a, b, -1))
        self.check(-p, ref_add([], a, -1))
        self.check(p * q, ref_mul(a, b))

    @given(a=coeff_lists, c=rationals | st.integers(-30, 30))
    @settings(max_examples=25, deadline=None)
    def test_scalar_mul(self, a, c):
        p = Poly(a, "y")
        self.check(p * c, ref_mul(ref_trim(a), ref_trim([c])))
        self.check(c * p, ref_mul(ref_trim(a), ref_trim([c])))
        self.check(p + c, ref_add(ref_trim(a), ref_trim([c])))

    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=25, deadline=None)
    def test_divmod_and_gcd(self, a, b):
        p, q = Poly(a, "y"), Poly(b, "y")
        a, b = ref_trim(a), ref_trim(b)
        if b:
            quot, rem = p.divmod(q)
            want_q, want_r = ref_divmod(a, b)
            self.check(quot, want_q)
            self.check(rem, want_r)
        if a or b:
            self.check(p.gcd(q), ref_gcd(a, b))

    @given(
        a=st.lists(st.integers(-50, 50), max_size=8),
        b=st.lists(st.integers(-50, 50), max_size=5),
        lead=st.integers(-12, 12).filter(bool),
    )
    @example(a=[3, 0, 5, 7], b=[2], lead=-1)
    @example(a=[1, 2], b=[4, 5, 6], lead=6)
    @settings(max_examples=60, deadline=None)
    def test_pseudo_divmod_on_integer_rows(self, a, b, lead):
        # s a = q b + r with s > 0 and deg r < deg b, where each step of
        # exact._eliminate scales by lead / gcd(t, lead) only: by 1 for a
        # divisor with leading coefficient +-1
        b = b + [lead]
        s, quot, rem = exact._pseudo_divmod(a, b)
        assert s > 0 and len(rem) < len(b)
        width = max(len(a), len(b))
        right = rem + [0] * (width - len(rem))
        for i, x in enumerate(quot):
            for j, y in enumerate(b, i):
                right[j] += x * y
        assert [s * x for x in a] + [0] * (width - len(a)) == right
        if abs(lead) == 1:
            assert s == 1

    @given(a=coeff_lists, c=rationals | st.integers(-30, 30))
    @settings(max_examples=25, deadline=None)
    def test_shift(self, a, c):
        self.check(Poly(a, "y").shift(c), ref_compose_linear(ref_trim(a), 1, c))

    @given(a=coeff_lists, zero=st.sampled_from([0, Fraction(0)]))
    @settings(max_examples=25, deadline=None)
    def test_shift_by_zero(self, a, zero):
        # shift(0) returns the polynomial itself, and the bare substitution
        # var -> new_var only renames the variable
        p = Poly(a, "y")
        assert p.shift(zero) is p
        self.check(p.subs_linear(1, zero, "x"), ref_compose_linear(ref_trim(a), 1, 0), "x")

    @given(a=coeff_lists, s=rationals, t=rationals)
    @settings(max_examples=25, deadline=None)
    def test_subs_linear(self, a, s, t):
        got = Poly(a, "y").subs_linear(s, t, "x")
        self.check(got, ref_compose_linear(ref_trim(a), s, t), "x")

    @given(a=coeff_lists, one=st.sampled_from([1, Fraction(1)]), b=rationals | st.integers(-30, 30))
    @settings(max_examples=25, deadline=None)
    def test_subs_linear_at_a_one_is_the_shift(self, a, one, b):
        # var -> new_var + b is shift(b) under the new variable
        p = Poly(a, "y")
        got, want = p.subs_linear(one, b, "x"), p.shift(b)
        assert (got._num, got._den, got.var) == (want._num, want._den, "x")
        assert canonical(got)

    @given(a=coeff_lists, v=rationals | st.integers(-30, 30))
    @settings(max_examples=25, deadline=None)
    def test_derivative_and_evaluation(self, a, v):
        p = Poly(a, "y")
        a = ref_trim(a)
        self.check(p.derivative(), ref_trim(i * c for i, c in enumerate(a) if i))
        value = p(v)
        assert type(value) is Fraction and value == ref_eval(a, v)

    @given(bits=st.integers(2, 300), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_unpack_reads_back_packed_digits(self, bits, data):
        # up to 130 digits of either sign up to 2^(B-1) - 1 in size, the
        # last nonzero, and rows of 130 digits at the widest of either sign
        top = 2 ** (bits - 1) - 1
        digit = st.integers(-top, top)
        drawn = data.draw(st.lists(digit, max_size=129)) + [data.draw(digit.filter(bool))]
        widest = [
            [top] * 5, [-top] * 5, [top, -top] * 3, [-top, top] * 3, [0, 0, -top], [-1],
            [top] * 130, [-top] * 130, [top, -top] * 65, [-top, top] * 65, [0] * 129 + [-top],
            [top] * 129 + [-1], [-top] * 129 + [1], [0] * 129 + [-1],
        ]
        for d in [drawn, *widest]:
            assert _unpack(_pack(d, bits), bits) == d
        assert _unpack(0, bits) == []

    def test_unpack_at_every_width(self):
        # every B from 2 to 300, not only whole bytes: zero, negative and
        # edge digits +-(2^(B-1) - 1), the last one nonzero
        for bits in range(2, 301):
            top = 2 ** (bits - 1) - 1
            rows = [
                [top], [-top], [1], [-1], [0, 0, top], [0, -top], [top, -top, 0, -1],
                [-top, 0, top, 1], [-1, -1, -1], [top] * 9, [-top] * 9, [0] * 8 + [-top],
            ]
            for d in rows:
                assert _unpack(_pack(d, bits), bits) == d, (bits, d)
            assert _unpack(0, bits) == []

    def test_unpack_with_the_offset_memo_cold_and_warm(self):
        # the offset comes from a memo keyed by width and length: read warm,
        # with the offsets of every other length at that width in it, and
        # cold, cleared before each read, every row comes back the same; a
        # row of k digits 2^(kB-1) carries into a digit k + 1
        for bits in range(2, 301):
            half = 2 ** (bits - 1)
            lengths = range(1, 81) if bits in (2, 3, 63, 64, 65, 300) else (1, 2, 7, 80)
            rows = [
                d
                for n in lengths
                for d in ([half - 1] * n, [1 - half] * n, [0] * (n - 1) + [-1],
                          [0] * (n - 1) + [-half, 1])
            ]
            exact._offset.cache_clear()
            warm = [_unpack(_pack(d, bits), bits) for d in rows]
            assert warm == rows, bits
            for d in rows:
                exact._offset.cache_clear()
                assert _unpack(_pack(d, bits), bits) == d, (bits, d)
            for n in (1, 2, 80):
                assert exact._offset(bits, bits * n) == sum(half << bits * i for i in range(n))

    @given(bits=st.integers(2, 300), s=st.integers(1, 2**2000), k=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    @example(bits=2, s=7, k=1)
    def test_unpack_reads_back_any_positive_integer(self, bits, s, k):
        # as Poly.gcd reads gamma: digits in [-2^(B-1), 2^(B-1)), the last
        # nonzero; 2^(kB-1), of bit length kB, carries into a digit k + 1,
        # and so does 2^(kB-1) - 1 for k > 1
        half = 2 ** (bits - 1)
        for n in (s, 2 ** (k * bits - 1) - 1, 2 ** (k * bits - 1), half * (2**bits + 1) ** k):
            d = _unpack(n, bits)
            assert _pack(d, bits) == n and d[-1] and all(-half <= x < half for x in d), (n, d)
        assert len(_unpack(2 ** (k * bits - 1), bits)) == k + 1
        assert len(_unpack(2 ** (k * bits + bits - 1) - 1, bits)) == k + 2

    def test_equal_values_store_equally(self):
        half = Poly([Fraction(2, 4)], "y")
        assert half == Poly([Fraction(1, 2)], "y")
        assert hash(half) == hash(Poly([Fraction(1, 2)], "y"))
        assert Poly([2, 4], "y") * Fraction(1, 2) == Poly([1, 2], "y")
        assert hash(Poly([Fraction(6, 3)], "y")) == hash(Poly([2], "y"))

    def test_accessors_return_fractions(self):
        p = Poly([Fraction(1, 2), 0, Fraction(-3, 4)], "y")
        assert p.coeffs == (Fraction(1, 2), Fraction(0), Fraction(-3, 4))
        assert p.coeff(2) == Fraction(-3, 4) and type(p.coeff(2)) is Fraction
        assert p.coeff(7) == 0 and type(p.coeff(7)) is Fraction
        assert p.leading == Fraction(-3, 4) and type(p.leading) is Fraction
        assert Poly.const(Fraction(5, 3), "y").const_value() == Fraction(5, 3)
        assert type(Poly.zero("y").const_value()) is Fraction

    def test_non_exact_scalars_rejected(self):
        with pytest.raises(TypeError):
            Poly([0.5], "y")
        with pytest.raises(TypeError):
            Poly([1], "y")(0.5)


def product_of_rows(rows, content):
    """content times the product of the integer rows, as a Poly in l."""
    p = Poly.const(content, "l")
    for row in rows:
        p = p * Poly(row, "l")
    return p


factor_rows = st.lists(
    st.lists(st.integers(-9, 9), min_size=2, max_size=2).filter(lambda row: row[-1])
    | st.lists(st.integers(-30, 30), min_size=3, max_size=3).filter(lambda row: row[-1]),
    max_size=4,
)
contents = st.builds(Fraction, st.integers(-(10**6), 10**6).filter(bool), st.integers(1, 1000))
BIG = 2**200
# (l+c)(l+c+1)... with up to 12 factors: a fixed divisor up to 12!
consecutive_rows = st.builds(
    lambda c, k: [[c + i, 1] for i in range(k)], st.integers(-20, 20), st.integers(0, 12)
)
shared_rows = st.builds(list.__add__, factor_rows, consecutive_rows)
# beside small rows, rows with a 2^200 leading coefficient: unbalanced norms
cofactor_rows = st.lists(
    st.lists(st.integers(-9, 9), min_size=2, max_size=3).filter(lambda row: row[-1])
    | st.lists(st.integers(-30, 30), min_size=1, max_size=2).map(lambda row: row + [BIG]),
    max_size=4,
)


class TestGcdCertificate:
    """Poly.gcd against sympy's monic gcd and the Fraction reference, and
    the packed integer gcd that settles a coprime pair without a trial
    division."""

    @given(shared=shared_rows, only_a=cofactor_rows, only_b=cofactor_rows, ca=contents, cb=contents)
    @settings(max_examples=150, deadline=None)
    @example(shared=[[1, 1]], only_a=[[2, 0, -1]], only_b=[[-7, 3]], ca=Fraction(-6), cb=Fraction(4, 9))
    @example(
        shared=[[c, 1] for c in range(-5, 7)], only_a=[[3, BIG]], only_b=[[1, 1], [-2, 1]],
        ca=Fraction(1), cb=Fraction(-1),
    )
    def test_matches_the_sympy_monic_gcd(self, shared, only_a, only_b, ca, cb):
        # products of linear and quadratic integer factors, with a shared
        # part of up to 12 consecutive linear factors, cofactors with small
        # or 2^200 leading coefficients, random contents and leading
        # coefficients of either sign
        sympy = pytest.importorskip("sympy")
        l = sympy.Symbol("l")
        a, b = product_of_rows(shared + only_a, ca), product_of_rows(shared + only_b, cb)

        def to_sympy(p):
            return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], l, domain="QQ")

        want = to_sympy(a).gcd(to_sympy(b)).monic()
        got = a.gcd(b)
        assert canonical(got)
        assert list(got.coeffs) == [Fraction(int(c.p), int(c.q)) for c in reversed(want.all_coeffs())]

    @pytest.mark.parametrize(
        "a, b",
        [
            # a leading coefficient far above the rest: every root is near 0
            ([1, BIG], [-3, 0, 1]),
            ([1, 1, BIG], [-3, 1]),
            ([2, 1 + 2 * BIG, BIG], [-5, 1 - 5 * BIG, BIG]),
            ([1, 0, 0, BIG], [0, 1]),
            # zero middle coefficients
            ([-1, 0, 0, 0, 0, 1], [-1, 0, 0, 1]),
            ([1, 0, 0, 0, 1], [1, 0, 1]),
            ([0, 0, 0, 0, 0, 0, 1], [0, 1, 1]),
            # constant and zero operands
            ([], [-1, 0, 1]),
            ([-1, 0, 2], []),
            ([3], [-1, 0, 1]),
            ([Fraction(7, 2)], [5]),
            ([], [5]),
        ],
    )
    def test_pinned_pairs_match_the_reference(self, a, b):
        p, q = Poly(a, "l"), Poly(b, "l")
        want = ref_gcd(ref_trim(a), ref_trim(b))
        assert list(p.gcd(q).coeffs) == want
        assert list(q.gcd(p).coeffs) == ref_gcd(ref_trim(b), ref_trim(a))

    def test_zero_with_zero_is_zero(self):
        assert Poly.zero("l").gcd(Poly.zero("l")).is_zero()

    @pytest.mark.parametrize(
        "a, b, bits",
        [
            # the first width of l - 1 is max(bitlen 1 + 3, bitlen 1! + 32) =
            # 33 bits; the second row vanishes at 2^33, so gamma reads back
            # l - 1, which does not divide it
            ([-1, 1], [-(2**33), 1], 33),
            # (l - 1)(l - 3) at max(bitlen 4 + 3, bitlen 2! + 32) = 34 bits:
            # gamma reads back the first row, which does not divide the
            # second, and at 68 bits the common factor l - 1
            ([3, -4, 1], [2**34, -(2**34) - 1, 1], 34),
        ],
    )
    def test_a_failed_trial_division_doubles_the_width(self, a, b, bits, monkeypatch):
        widths = []
        pack = exact._pack
        monkeypatch.setattr(exact, "_pack", lambda row, width: widths.append(width) or pack(row, width))
        got = Poly(a, "l").gcd(Poly(b, "l"))
        assert list(got.coeffs) == ref_gcd(ref_trim(a), ref_trim(b))
        # both rows packed at exactly two widths
        assert widths == [bits, bits, 2 * bits, 2 * bits]

    def test_coprime_multiplier_is_settled_without_euclid(self, monkeypatch):
        from debranges import hypsum

        cert = hypsum.gosper(hypsum.term_ratio(hypsum.parse_term("1/((l+1)*(l+41))", "l")))
        num, den = cert.multiplier.num, cert.multiplier.den
        # gamma carries about 131 bits of the common fixed divisor, a divisor
        # of 39!, whatever the width: at 64 bits it fills more than the width
        assert math.gcd(_pack(num._num, 64), _pack(den._num, 64)).bit_length() > 64
        calls = []
        pseudo_divmod = exact._pseudo_divmod
        monkeypatch.setattr(
            exact, "_pseudo_divmod", lambda a, b: calls.append((a, b)) or pseudo_divmod(a, b)
        )
        assert num.gcd(den) == 1 and den.gcd(num) == 1
        assert calls == []


class TestRationalFunction:
    def test_normalization(self):
        rf = RationalFunction(Poly([0, 2], "l"), Poly([0, 0, 2], "l"))
        assert rf.num == Poly([1], "l")
        assert rf.den == Poly([0, 1], "l")

    def test_monic_denominator(self):
        rf = RationalFunction(Poly([1], "l"), Poly([2, 4], "l"))
        assert rf.den.leading == 1

    def test_pole_evaluation(self):
        rf = RationalFunction(Poly([1], "l"), Poly([0, 1], "l"))
        with pytest.raises(ZeroDivisionError):
            rf(0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Poly([1], "l"), Poly.zero("l"))

    def test_equality_with_scalars_and_polynomials(self):
        rf = RationalFunction(Poly([2, 4], "l"), Poly([2], "l"))
        assert rf == Poly([1, 2], "l") and Poly([1, 2], "l") == rf
        assert rf != Poly([1, 3], "l")
        assert RationalFunction(Poly([3], "l")) == 3
        assert RationalFunction(Poly([1, 2], "l"), Poly([0, 1], "l")) != Poly([1, 2], "l")

    def test_equality_with_a_poly_in_another_variable_is_false(self):
        # as Poly([1], "y") == Poly([1], "l") is: equality never raises
        rf = RationalFunction(Poly([1], "l"))
        assert (rf == Poly([1], "y")) is False
        assert (Poly([1], "y") == rf) is False
        assert rf != Poly([1], "y")

    @given(
        value=constants,
        var=variables,
        num=coeff_lists,
        factor=coeff_lists.filter(lambda cs: any(cs)),
    )
    @settings(max_examples=60, deadline=None)
    @example(value=3, var="x", num=[1, 2], factor=[0, 1])
    def test_over_one_hashes_as_the_numerator_it_equals(self, value, var, num, factor):
        c = RationalFunction(Poly.const(value, var))
        assert c == value and hash(c) == hash(value) and len({c, value}) == 1
        p, q = Poly(num, var), Poly(factor, var)
        rf = RationalFunction(p * q, q)  # reduced to p over 1
        assert rf == p and hash(rf) == hash(p) and len({rf, p}) == 1

    @given(
        num=coeff_lists,
        den=coeff_lists.filter(lambda cs: any(cs)),
        pole=rationals | st.integers(-30, 30),
        v=rationals | st.integers(-30, 30),
    )
    @settings(max_examples=50, deadline=None)
    @example(num=[1], den=[2], pole=Fraction(1, 3), v=Fraction(1, 3))
    @example(num=[0, 1], den=[0, 0, 3], pole=5, v=0)
    def test_evaluation_against_quotient_of_values(self, num, den, pole, v):
        # den has a root at pole: evaluate there and at v, against
        # num(v) / den(v) with the same ZeroDivisionError at a pole
        rf = RationalFunction(Poly(num, "l"), Poly(den, "l") * Poly([-pole, 1], "l"))

        def quotient(value):
            d = rf.den(value)
            if d == 0:
                raise ZeroDivisionError(f"pole of {rf!r} at {value}")
            return rf.num(value) / d

        for value in (pole, v):
            try:
                want = quotient(value)
            except ZeroDivisionError as exc:
                with pytest.raises(ZeroDivisionError) as excinfo:
                    rf(value)
                assert str(excinfo.value) == str(exc)
            else:
                got = rf(value)
                assert type(got) is Fraction and got == want


class TestCombinatorics:
    def test_binomial_values(self):
        assert binomial(4, 1) == 4
        assert binomial(5, 0) == 1
        assert binomial(4, 7) == 0
        assert binomial(4, -1) == 0

    def test_binomial_negative_upper(self):
        # upper negation: C(-1, k) = (-1)^k
        assert [binomial(-1, k) for k in range(4)] == [1, -1, 1, -1]
        assert binomial(-3, 2) == 6

    def test_pochhammer_values(self):
        assert pochhammer(Fraction(1), 0) == 1
        assert pochhammer(1 - 2, 1) == -1  # (1-n)_1 at n = 2
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)

    def test_pochhammer_refuses_float(self):
        # 0.5 is exact in binary64, so Fraction(0.5) would pass silently: 3/4
        with pytest.raises(TypeError, match="exact scalar"):
            pochhammer(0.5, 2)

    @given(
        a=rationals,
        j=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_pochhammer_recurrence(self, a, j):
        assert pochhammer(a, j + 1) == pochhammer(a, j) * (a + j)

    @given(a=rationals | st.integers(-30, 30), j=st.integers(min_value=0, max_value=15))
    @settings(max_examples=60, deadline=None)
    @example(a=-3, j=15)  # passes through zero
    @example(a=Fraction(-7, 2), j=15)
    def test_pochhammer_against_fraction_loop(self, a, j):
        want = Fraction(1)
        for i in range(j):
            want *= Fraction(a) + i
        got = pochhammer(a, j)
        assert type(got) is Fraction and got == want


grid_points = st.lists(rationals | st.integers(-30, 30), min_size=0, max_size=8)


class TestEvalGrid:
    """The grid's sign test against Poly.__call__ at every point."""

    @given(p=poly_strategy(), points=grid_points, extra=st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    @example(p=Poly([-1], "y"), points=[0, Fraction(-7, 3)], extra=0)  # degree 0
    @example(p=Poly([], "y"), points=[1], extra=0)  # the zero polynomial
    def test_negatives_match_horner(self, p, points, extra):
        grid = EvalGrid(points, max(p.degree, 0) + extra)
        want = [(i, p(v)) for i, v in enumerate(points) if p(v) < 0]
        got = grid.negatives(p)
        assert got == want
        assert all(type(value) is Fraction for _, value in got)

    def test_reports_in_point_order_with_repeats(self):
        p = Poly([1, -3], "y")  # negative above 1/3
        grid = EvalGrid([1, Fraction(1, 4), Fraction(1, 2), 1], 3)
        assert grid.negatives(p) == [(0, -2), (2, Fraction(-1, 2)), (3, -2)]

    def test_degree_over_the_grid_raises(self):
        grid = EvalGrid([Fraction(1, 2)], 2)
        assert grid.negatives(Poly([0, 0, -1], "y")) == [(0, Fraction(-1, 4))]
        with pytest.raises(ValueError, match="over the grid degree 2"):
            grid.negatives(Poly([0, 0, 0, 1], "y"))

    @given(
        nums=st.lists(st.integers(-(2**300), 2**300), min_size=0, max_size=8),
        den=st.integers(1, 2**40),
        points=st.lists(
            st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
            min_size=0,
            max_size=40,
        ),
        extra=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    @example(nums=[-(2**300), 1], den=1, points=[0, Fraction(-10**6), Fraction(1, 10**6)], extra=0)
    @example(nums=[5, -(2**300)], den=3, points=[], extra=2)  # no points at all
    def test_wide_numerators_at_wide_points(self, nums, den, points, extra):
        p = Poly([Fraction(n, den) for n in nums], "y")
        grid = EvalGrid(points, max(p.degree, 0) + extra)
        want = [(i, p(v)) for i, v in enumerate(points) if p(v) < 0]
        assert grid.negatives(p) == want
        assert grid.negatives(-p) == [(i, -p(v)) for i, v in enumerate(points) if p(v) > 0]

    def test_zero_at_the_last_point(self):
        # the last point's value is 0, the top word of the packed sum
        grid = EvalGrid([0, Fraction(1, 2)], 1)
        assert grid.negatives(Poly([-1, 2], "y")) == [(0, -1)]
        assert grid.negatives(Poly([1, -2], "y")) == []

    def test_values_at_the_edge_of_one_word(self):
        # every entry has size at most 1, and ||n||_1 = 2^63 - 1 fixes B = 64:
        # the values at 1, 0 and -1 reach -(2^(B-1) - 1) and 2^(B-1) - 1
        grid = EvalGrid([1, 0, -1], 1)
        edge = 2**63 - 1
        assert grid.negatives(Poly([-(2**62), -(2**62 - 1)], "y")) == [
            (0, -edge), (1, -(2**62)), (2, -1)
        ]
        assert grid.negatives(Poly([2**62, 2**62 - 1], "y")) == []
        assert grid.negatives(Poly([2**62 - 1, -(2**62)], "y")) == [(0, -1)]
        assert grid.negatives(Poly([-(2**62 - 1), 2**62], "y")) == [
            (1, -(2**62 - 1)), (2, -edge)
        ]
        assert sorted(grid._packed) == [1]
        # ||n||_1 = 2^63 needs a second word
        assert grid.negatives(Poly([-(2**62), -(2**62)], "y")) == [
            (0, -(2**63)), (1, -(2**62))
        ]
        assert sorted(grid._packed) == [1, 2]

    def test_offset_is_the_memo_of_unpack(self):
        # one 2^(B-1) a point, B = 64 words, from the memo _unpack reads
        points = [Fraction(i, 7) for i in range(-7, 8)]
        grid = EvalGrid(points, 5)
        for words in (1, 2, 5):
            bits = 64 * words
            offset = grid._packed_columns(words)[1]
            assert offset == exact._offset(bits, bits * len(points))
            assert offset == sum(1 << (bits * i + bits - 1) for i in range(len(points)))
        assert EvalGrid([], 2)._packed_columns(1)[1] == 0

    def test_one_grid_for_several_word_counts(self):
        points = [Fraction(i, 7) for i in range(-7, 8)]
        grid = EvalGrid(points, 5)
        polys = [
            Poly([1, -3], "y"),
            Poly([Fraction(2**200 + 1, 3), 0, -(2**201), 1], "y"),
            Poly([0, 0, 0, 0, 0, -1], "y"),
            Poly([2**500, -(2**501), 2**500], "y"),
            Poly([1, -3], "y"),
        ]
        for p in polys:
            assert grid.negatives(p) == [(i, p(v)) for i, v in enumerate(points) if p(v) < 0]
        assert len(grid._packed) == 3

    def test_a_lone_negative_value_in_a_multi_word_column(self, monkeypatch):
        # 2^140 (y - 1/2)^2 - 1 is negative at 1/2 alone; ||n||_1 M needs
        # three words, and the one negative value is read back through
        # _unpack at B = 192, which a scan with no negative value never reaches
        calls = []
        real = exact._unpack

        def spy(s, bits):
            calls.append(bits)
            return real(s, bits)

        monkeypatch.setattr(exact, "_unpack", spy)
        points = [0, Fraction(1, 2), 1]
        grid = EvalGrid(points, 2)
        p = Poly([2**138 - 1, -(2**140), 2**140], "y")
        assert grid.negatives(p) == [(1, Fraction(-1))]
        assert calls == [192]
        assert grid.negatives(p + 1) == []
        assert calls == [192]
        assert sorted(grid._packed) == [3]

    def test_lower_degree_than_the_grid(self):
        points = [Fraction(1, 10), Fraction(9, 10), Fraction(-3, 2)]
        grid = EvalGrid(points, 30)
        p = Poly([Fraction(-1, 4), 0, 1], "y")  # negative for |y| < 1/2
        assert grid.negatives(p) == [(0, Fraction(-6, 25))]
        assert grid.negatives(Poly.const(-3, "y")) == [(0, -3), (1, -3), (2, -3)]

    def test_refuses_float_points_and_negative_degree(self):
        with pytest.raises(TypeError, match="exact scalar"):
            EvalGrid([0.5], 2)
        with pytest.raises(ValueError):
            EvalGrid([1], -1)
