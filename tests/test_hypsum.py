"""Term grammar, shift quotients, Gosper certificates, terminating pFq."""

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from debranges import dbw, hypsum, lowner, orthopoly
from debranges.exact import Poly, RationalFunction, binomial
from debranges.hypsum import (
    BinomialFactor,
    FactorialFactor,
    GOSPER_WORK_LIMIT,
    GeometricFactor,
    GosperCertificate,
    GosperLimitError,
    HypTerm,
    LinearFactor,
    TermSemanticError,
    TermSyntaxError,
    certificate_witness,
    gosper,
    parse_term,
    pfq_terminating,
    telescoped_sum,
    term_ratio,
    term_value,
    verify_certificate,
    weighted_binomial_sum,
    _degree_bound,
    _dispersion,
    _from_roots,
    _solve_gosper_equation,
)


def paper_term(n: int, j: int):
    """The weighted binomial term (n+1-l) C(l+j-1, l-j) from the telescoping
    identity, entered through the grammar."""
    return parse_term(f"({n}+1-l) * binom(l+{j}-1, l-{j})", "l")


def _gauss_jordan(columns, rhs):
    """Particular exact solution of sum_j x_j columns[j] = rhs (coefficients
    equated), free variables set to zero; None when inconsistent.  Dense
    Gauss-Jordan elimination: the reference for _solve_gosper_equation."""
    height = max([c.degree for c in columns] + [rhs.degree]) + 1
    height = max(height, 1)
    matrix = [
        [col.coeff(r) for col in columns] + [rhs.coeff(r)] for r in range(height)
    ]
    width = len(columns)
    pivots = []
    row = 0
    for col in range(width):
        pivot_row = next(
            (r for r in range(row, height) if matrix[r][col] != 0), None
        )
        if pivot_row is None:
            continue
        matrix[row], matrix[pivot_row] = matrix[pivot_row], matrix[row]
        inv = 1 / matrix[row][col]
        matrix[row] = [v * inv for v in matrix[row]]
        for r in range(height):
            if r != row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [v - factor * w for v, w in zip(matrix[r], matrix[row])]
        pivots.append(col)
        row += 1
        if row == height:
            break
    for r in range(row, height):
        if matrix[r][width] != 0 and all(v == 0 for v in matrix[r][:width]):
            return None
    solution = [Fraction(0)] * width
    for i, col in enumerate(pivots):
        solution[col] = matrix[i][width]
    return solution


def rational_function_route(cert):
    """GosperCertificate.verify_symbolic by exact evaluation. With R = n/d and
    r = a/b, R(l) - R(l-1)/r(l-1) = 1 cleared of denominators is a polynomial
    identity of degree at most D = deg n + 2 deg d + deg a + deg b, so it
    holds once it holds at D + 1 points where every value is defined."""
    R, r = cert.multiplier, cert.ratio
    degree = R.num.degree + 2 * R.den.degree + r.num.degree + r.den.degree
    defined = 0
    for x in itertools.count():
        try:
            if R(x) - R(x - 1) / r(x - 1) != 1:
                return False
        except ZeroDivisionError:  # a pole of R or r, or a zero of r
            continue
        defined += 1
        if defined > degree:
            return True


def product_form(cert):
    """GosperCertificate.verify_symbolic as Poly products: with R = n/d,
    r = a/b and a subscript 1 for l -> l-1, the identity
    R(l) - R(l-1)/r(l-1) = 1 times d d1 a1 is (n - d) a1 d1 = n1 b1 d."""
    n, d = cert.multiplier.num, cert.multiplier.den
    a, b = cert.ratio.num, cert.ratio.den
    return (n - d) * a.shift(-1) * d.shift(-1) == n.shift(-1) * b.shift(-1) * d


def fraction_witness(term, cert, lo, hi):
    """certificate_witness in Fraction arithmetic, with the symbolic identity
    as Poly products: the first pole of R or undefined term in [lo-1, hi],
    else the first failing step s_l - s_(l-1) = b_l, s_l = R(l) b_l, else
    the identity."""
    if cert is None:
        return "not summable"
    values, s = {}, {}
    for l in range(lo - 1, hi + 1):
        try:
            r = cert.multiplier(l)
        except ZeroDivisionError:
            return f"pole of R(l) at l={l}"
        try:
            values[l] = term_value(term, l)
        except (ValueError, ZeroDivisionError):
            return f"term undefined at l={l}"
        s[l] = r * values[l]
    for l in range(lo, hi + 1):
        if s[l] - s[l - 1] != values[l]:
            return f"l={l}: {s[l] - s[l - 1]} != {values[l]}"
    return None if product_form(cert) else "R(l) - R(l-1)/r(l-1) != 1"


def dense_gosper_solution(a, b_shifted, c, bound):
    """x of degree <= bound with a(l) x(l+1) - b(l-1) x(l) = c(l) by
    Gauss-Jordan on the coefficient system; None when inconsistent."""
    powers = [Poly.monomial(1, j, "l") for j in range(bound + 1)]
    columns = [a * p.shift(1) - b_shifted * p for p in powers]
    solution = _gauss_jordan(columns, c)
    return None if solution is None else Poly(solution, "l")


class TestParser:
    def test_weighted_binomial_structure(self):
        term = parse_term("binom(l+2, l-3) * (8-l)", "l")
        assert term.const == 1
        kinds = {type(f) for f in term.factors}
        assert kinds == {BinomialFactor, LinearFactor}
        assert len(term.factors) == 2

    def test_plain_factorial(self):
        term = parse_term("fact(l)", "l")
        assert term.factors == (FactorialFactor(1, Fraction(0), 1),)

    def test_nonlinear_binomial_rejected(self):
        with pytest.raises(TermSemanticError):
            parse_term("binom(l*l, 2)", "l")

    def test_linear_arithmetic_folds(self):
        term = parse_term("3*l + 1 - l", "l")
        assert term.factors == (LinearFactor(Fraction(2), Fraction(1), 1),)

    def test_rational_constant_via_division(self):
        term = parse_term("1/3 + 1/6", "l")
        assert term.const == Fraction(1, 2)
        assert term.factors == ()

    def test_geometric_factor(self):
        term = parse_term("2^(l+1)", "l")
        assert term.factors == (GeometricFactor(Fraction(2), 1, 1),)

    def test_negative_powers(self):
        term = parse_term("(l+1)^-2", "l")
        assert term.factors == (LinearFactor(Fraction(1), Fraction(1), -2),)

    def test_unary_minus(self):
        term = parse_term("-l", "l")
        assert term_value(term, 5) == -5
        assert parse_term("-3", "l").const == -3

    def test_constant_factorial_folds(self):
        assert parse_term("fact(4)", "l").const == 24
        assert parse_term("binom(5, 2)", "l").const == 10

    def test_syntax_error_position(self):
        with pytest.raises(TermSyntaxError) as excinfo:
            parse_term("fact(l", "l")
        assert excinfo.value.position == 7
        assert ")" in excinfo.value.expected

    def test_unexpected_character(self):
        with pytest.raises(TermSyntaxError) as excinfo:
            parse_term("l !", "l")
        assert excinfo.value.position == 3

    def test_trailing_input(self):
        with pytest.raises(TermSyntaxError):
            parse_term("l l", "l")

    def test_unknown_identifier(self):
        with pytest.raises(TermSemanticError) as excinfo:
            parse_term("binom(l+2, m)", "l")
        assert excinfo.value.position == 12

    @pytest.mark.parametrize("var", ["2x", "", "l l", " l", "l+1", "λ"])
    def test_variable_that_is_not_an_identifier_is_refused(self, var):
        with pytest.raises(TermSemanticError) as excinfo:
            parse_term("l", var)
        assert str(excinfo.value) == f"the variable {var!r} is not an identifier"
        assert excinfo.value.position is None

    @pytest.mark.parametrize("var", ["fact", "binom"])
    def test_variable_that_is_a_function_name_is_refused(self, var):
        with pytest.raises(TermSemanticError, match=f"^the variable '{var}' is a function name$"):
            parse_term(f"{var}(3)", var)

    def test_any_identifier_is_a_variable(self):
        for var in ("n", "_k", "x2", "factor", "binomial"):
            term = parse_term(f"fact({var})*{var}", var)
            assert term.var == var
            assert term_value(term, 3) == 18

    def test_sum_of_products_rejected(self):
        with pytest.raises(TermSemanticError):
            parse_term("fact(l) + 1", "l")

    def test_variable_exponent_needs_constant_base(self):
        with pytest.raises(TermSemanticError):
            parse_term("l^l", "l")

    def test_fractional_coefficient_in_factorial_rejected(self):
        with pytest.raises(TermSemanticError):
            parse_term("fact(l/2)", "l")

    def test_division_by_zero_constant(self):
        with pytest.raises(TermSemanticError):
            parse_term("l / 0", "l")

    def test_constant_power_bound(self):
        # |e| times the larger bit length of the base's numerator and
        # denominator may come to 20 000 bits; a power above that is refused
        # before it is computed, and 0 and +-1 cost nothing
        assert parse_term("fact(l)*2^10000", "l").const == 2**10000
        assert parse_term("fact(l)*(2/3)^-10000", "l").const == Fraction(3, 2) ** 10000
        assert parse_term("fact(l)*(-1)^(10^12)*1^(10^12)", "l").const == 1
        for src in (
            "l*2^10001", "l*(2/3)^-10001", "l*2^100000000", "(2^l)^100000000",
            "(2*fact(l))^100000",
        ):
            with pytest.raises(TermSemanticError, match="constant power"):
                parse_term(src, "l")


    def test_constant_factorial_and_binomial_bound(self):
        # a bound on the bit length, from lgamma for factorials and integer
        # binomials and k times the bits of a non-integer upper argument,
        # is held to 20 000 bits before the constant is computed
        assert parse_term("fact(l)*fact(2000)", "l").const == math.factorial(2000)  # 19 053 bits
        assert parse_term("fact(l)*binom(20000,10000)", "l").const == math.comb(20000, 10000)
        assert parse_term("fact(l)*binom(-20000,1)", "l").const == -20000
        assert parse_term("fact(l)*binom(10^400,1)", "l").const == 10**400
        assert parse_term("fact(l)*binom(3,7)", "l").const == 0
        half = Fraction(1)
        for i in range(30):
            half *= Fraction(1, 2) - i
        assert parse_term("fact(l)*binom(1/2,30)", "l").const == half / math.factorial(30)
        for src, what in (
            ("l*fact(2100)", "factorial"),  # 20 154 bits
            ("l*fact(1000000)", "factorial"),
            ("l*fact(10^400)", "factorial"),  # beyond a float
            ("l*binom(2000000,1000000)", "binomial"),
            ("l*binom(-2000000,1000000)", "binomial"),
            ("l*binom(10^400,16)", "binomial"),
            ("l*binom(10^400,10^399)", "binomial"),
            ("l*binom(1/2,100000)", "binomial"),
        ):
            with pytest.raises(TermSemanticError, match=f"constant {what} of more than"):
                parse_term(src, "l")


class TestTermValue:
    def test_weighted_binomial_values(self):
        term = paper_term(7, 3)
        assert term_value(term, 3) == 5
        assert term_value(term, 4) == 24
        assert term_value(term, 2) == 0  # binomial support edge

    def test_geometric(self):
        term = parse_term("3 * 2^l", "l")
        assert term_value(term, 4) == 48

    def test_factorial_negative_argument_rejected(self):
        term = parse_term("fact(l)", "l")
        with pytest.raises(ValueError):
            term_value(term, -1)

    @pytest.mark.parametrize("src, error, message", [
        ("1/n", ZeroDivisionError, "pole of (n)^-1 at n = 0"),
        ("1/binom(n,3)", ZeroDivisionError, "pole of binom(n, 3)^-1 at n = 0"),
        ("fact(n-3)", ValueError, "factorial argument -3 at n = 0"),
        ("binom(n+1/2,n)", ValueError, "non-integer binomial arguments at n = 0"),
    ])
    def test_messages_name_the_variable(self, src, error, message):
        with pytest.raises(error) as excinfo:
            term_value(parse_term(src, "n"), 0)
        assert str(excinfo.value) == message


def fraction_term_value(term, l):
    """The evaluator as one Fraction product per factor: the oracle for
    term_value's integer numerator and denominator."""
    result = term.const
    for f in term.factors:
        if isinstance(f, LinearFactor):
            base = f.a * l + f.b
            if base == 0 and f.exponent < 0:
                shown = f"({Poly([f.b, f.a], 'l')})"
                raise ZeroDivisionError(f"pole of {shown}^{f.exponent} at l = {l}")
            result *= base**f.exponent
        elif isinstance(f, FactorialFactor):
            arg = f.a * l + f.b
            if arg.denominator != 1 or arg < 0:
                raise ValueError(f"factorial argument {arg} at l = {l}")
            result *= Fraction(math.factorial(int(arg))) ** f.exponent
        elif isinstance(f, BinomialFactor):
            u = f.a1 * l + f.b1
            v = f.a2 * l + f.b2
            if u.denominator != 1 or v.denominator != 1:
                raise ValueError(f"non-integer binomial arguments at l = {l}")
            val = binomial(int(u), int(v))
            if val == 0 and f.exponent < 0:
                shown = f"binom({Poly([f.b1, f.a1], 'l')}, {Poly([f.b2, f.a2], 'l')})"
                raise ZeroDivisionError(f"pole of {shown}^{f.exponent} at l = {l}")
            result *= Fraction(val) ** f.exponent
        else:
            result *= f.base ** (f.a * l + f.b)
    return result


def outcome(fn, *args):
    """fn's value, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# offsets with denominators 1 and 2, so that factorial and binomial
# arguments leave the integers at some points
offsets = st.integers(-4, 4) | st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=2
)
exponents = st.integers(-3, 3)
hyp_factors = st.one_of(
    st.builds(
        LinearFactor,
        st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3).filter(bool),
        st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3),
        exponents,
    ),
    st.builds(FactorialFactor, st.integers(-3, 3), offsets, exponents),
    st.builds(BinomialFactor, st.integers(-3, 3), offsets, st.integers(-3, 3), offsets, exponents),
    st.builds(
        GeometricFactor,
        st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=5).filter(bool),
        st.integers(-3, 3),
        st.integers(-3, 3),
    ),
)


class TestTermValueAgainstFractions:
    """term_value against the one-Fraction-per-factor oracle: the same value,
    or the same exception type and message at a pole or outside the
    factorial and binomial domains."""

    @given(
        const=st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7),
        factors=st.lists(hyp_factors, max_size=5),
        l=st.integers(-6, 6),
    )
    @settings(max_examples=200, deadline=None)
    @example(const=Fraction(2), factors=[LinearFactor(Fraction(1), Fraction(-2), -1)], l=2)
    @example(const=Fraction(1), factors=[FactorialFactor(1, Fraction(1, 2), 1)], l=3)
    @example(const=Fraction(1), factors=[FactorialFactor(2, Fraction(0), -1)], l=-1)
    @example(const=Fraction(1), factors=[BinomialFactor(1, Fraction(0), 1, Fraction(1, 2), 1)], l=1)
    @example(const=Fraction(1), factors=[BinomialFactor(1, Fraction(0), 1, Fraction(1), -2)], l=1)
    @example(const=Fraction(-1, 3), factors=[GeometricFactor(Fraction(-2, 3), 1, -2)], l=-3)
    def test_values_and_errors_agree(self, const, factors, l):
        term = HypTerm("l", const, tuple(factors))
        got, want = outcome(term_value, term, l), outcome(fraction_term_value, term, l)
        assert got == want
        assert type(got) is type(want)

    def test_parsed_terms_agree(self):
        for src in ("(8-l)*binom(l+2,l-3)", "(l+3)*(2/3)^l", "1/((l+1)*(l+41))",
                    "fact(2*l)/fact(l)^2/4^l", "binom(-l+30,l)^-2*(1/2-l)^-3"):
            term = parse_term(src, "l")
            for l in range(-5, 12):
                assert outcome(term_value, term, l) == outcome(fraction_term_value, term, l)


def product_of_factors(roots, var):
    """prod (l - root)^multiplicity, one Poly product per linear factor."""
    p = Poly.const(1, var)
    for r, m in roots.items():
        for _ in range(m):
            p = p * Poly((-r, 1), var)
    return p


class TestFromRoots:
    """The one-list integer expansion against the one-factor Poly product."""

    @given(
        roots=st.dictionaries(
            st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=9),
            st.integers(1, 3),
            max_size=6,
        )
    )
    @settings(max_examples=80, deadline=None)
    @example(roots={Fraction(1, 2): 1})
    @example(roots={Fraction(-2, 3): 2, Fraction(5): 1, Fraction(0): 2})
    def test_matches_the_factor_product(self, roots):
        got = _from_roots(Counter(roots), "l")
        assert got == product_of_factors(roots, "l")
        assert got.leading == 1

    def test_empty(self):
        assert _from_roots(Counter(), "l") == Poly.const(1, "l")
        assert _from_roots(Counter(), "x").var == "x"


def former_dispersion(roots):
    """The dispersion step as it was, kept as an oracle: roots as Fraction
    keys, every difference s - r hashed and filtered for integers >= 0."""
    a_roots = Counter({r: e for r, e in roots if e > 0})
    b_roots = Counter({s: -e for s, e in roots if e < 0})
    moved_a, moved_b, c_roots = Counter(), Counter(), Counter()
    differences = {s - r for r in a_roots for s in b_roots}
    deg_c = 0
    for h in sorted(int(d) for d in differences if d.denominator == 1 and d >= 0):
        for r in list(a_roots):
            m = min(a_roots[r], b_roots[r + h])
            if m == 0:
                continue
            deg_c += h * m
            if deg_c > GOSPER_WORK_LIMIT:
                raise GosperLimitError(f"Gosper work limit: deg c > {GOSPER_WORK_LIMIT}")
            a_roots[r] -= m
            b_roots[r + h] -= m
            moved_a[r] += m
            moved_b[r + h] += m
            for i in range(1, h + 1):
                c_roots[r + i] += m
    return moved_a, moved_b, c_roots


def _outcome(step, roots):
    try:
        return tuple(dict(c) for c in step(roots))
    except GosperLimitError as exc:
        return str(exc)


class TestDispersion:
    """Roots compared as integers within their class (q, p mod q), against
    the Fraction-keyed loop."""

    @given(
        roots=st.dictionaries(
            st.builds(
                Fraction, st.integers(-400, 400), st.sampled_from([1, 1, 2, 3, 4, 6])
            ),
            st.integers(-3, 3).filter(bool),
            max_size=10,
        )
    )
    @settings(max_examples=200, deadline=None)
    @example(roots={Fraction(-42): 1, Fraction(-1): -1})
    @example(roots={Fraction(-203): 1, Fraction(-1): -1})  # deg c > GOSPER_WORK_LIMIT
    @example(  # over the limit only in sum over two classes
        roots={
            Fraction(-111): 1, Fraction(-1): -1, Fraction(-221, 2): 1, Fraction(-1, 2): -1
        }
    )
    @example(roots={Fraction(1, 3): 2, Fraction(7, 3): -1, Fraction(13, 3): -3, Fraction(5): 1})
    @example(roots={})
    def test_matches_the_fraction_keyed_loop(self, roots):
        items = tuple(sorted(roots.items()))
        assert _outcome(_dispersion, items) == _outcome(former_dispersion, items)


class TestTermRatio:
    def test_linear(self):
        ratio = term_ratio(parse_term("l", "l"))
        l = Poly.variable("l")
        assert ratio == RationalFunction(l + 1, l)

    def test_factorial(self):
        ratio = term_ratio(parse_term("fact(l)", "l"))
        assert ratio == RationalFunction(Poly([1, 1], "l"))

    def test_weighted_binomial(self):
        # ((l+3)(7-l)) / ((l-2)(8-l)) after normalization
        ratio = term_ratio(paper_term(7, 3))
        l = Poly.variable("l")
        expected = RationalFunction((l + 3) * (7 - l), (l - 2) * (8 - l))
        assert ratio == expected

    def test_geometric(self):
        assert term_ratio(parse_term("5^l", "l")) == RationalFunction(Poly.const(5, "l"))

    def test_ratio_matches_values(self):
        for src in (
            "l*(l+2)", "fact(l+1)/fact(l-1)", "binom(2*l, l)", "3^l / fact(l)",
            "fact(-l+20)", "binom(3*l,l+1)^3", "fact(2*l)/fact(3*l-1)",
            "binom(-l+30,l)",
        ):
            term = parse_term(src, "l")
            ratio = term_ratio(term)
            for l in range(2, 9):
                assert ratio(l) == term_value(term, l + 1) / term_value(term, l)

    def test_zero_term_rejected(self):
        with pytest.raises(ValueError):
            term_ratio(parse_term("0*l", "l"))


class TestGosper:
    def test_arithmetic_series(self):
        cert = gosper(term_ratio(parse_term("l", "l")))
        assert cert is not None
        l = Poly.variable("l")
        assert cert.multiplier == RationalFunction(
            Poly([Fraction(1, 2), Fraction(1, 2)], "l")
        )
        # s_l = R(l) * l = l (l+1) / 2
        assert cert.multiplier(10) * 10 == 55

    def test_factorial_not_summable(self):
        assert gosper(term_ratio(parse_term("fact(l)", "l"))) is None

    def test_factorial_not_summable_brute_force(self):
        # independent confirmation: no polynomial x of degree <= 5 satisfies
        # (l+1) x(l+1) - x(l) = 1, the equation of fact(l); gosper stops at
        # the degree bound before its solver, which must agree
        a, one = Poly([1, 1], "l"), Poly.const(1, "l")
        for degree in range(6):
            assert dense_gosper_solution(a, one, one, degree) is None
            assert _solve_gosper_equation(a, one, one, degree) is None

    def test_inverse_factorial_not_summable(self):
        assert gosper(term_ratio(parse_term("1/fact(l)", "l"))) is None

    def test_geometric_series(self):
        cert = gosper(term_ratio(parse_term("2^l", "l")))
        assert cert is not None
        term = parse_term("2^l", "l")
        assert telescoped_sum(term, cert, 0, 10) == 2**11 - 1

    def test_paper_certificate_matches_antidifference(self):
        # the antidifference of (8-l) C(l+2, l-3) is
        # s_l = (3+l)(53-6l)/42 * C(l+2, l-3); check s and the boundary zero
        term = paper_term(7, 3)
        cert = gosper(term_ratio(term))
        assert cert is not None
        for l in range(3, 8):
            expected = (
                Fraction((3 + l) * (53 - 6 * l), 42) * binomial(l + 2, l - 3)
            )
            assert cert.multiplier(l) * term_value(term, l) == expected
        assert cert.multiplier(2) * term_value(term, 2) == 0
        assert cert.multiplier(3) * term_value(term, 3) == 5

    def test_paper_family_round_trip(self):
        for n in range(1, 9):
            for j in range(1, n + 1):
                term = paper_term(n, j)
                cert = gosper(term_ratio(term))
                assert cert is not None, (n, j)
                assert cert.verify_symbolic(), (n, j)
                assert verify_certificate(term, cert, j, n), (n, j)
                closed = Fraction(
                    (j + n) * (n + 1 + j), 2 * j * (2 * j + 1)
                ) * binomial(n + j - 1, n - j)
                assert telescoped_sum(term, cert, j, n) == closed, (n, j)

    def test_symbolic_identity_of_certificates(self):
        for src in (
            "l", "l*(l+1)", "binom(2*l, l)/4^l", "(2*l+1)*binom(2*l,l)/4^l",
            "fact(-l+20)", "binom(3*l,l+1)^3", "fact(2*l)/fact(3*l-1)",
            "binom(-l+30,l)",
        ):
            ratio = term_ratio(parse_term(src, "l"))
            cert = gosper(ratio)
            if cert is not None:
                assert cert.verify_symbolic()

    def test_corrupted_certificate_detected(self):
        term = parse_term("l", "l")
        cert = gosper(term_ratio(term))
        n, d = cert.multiplier.num, cert.multiplier.den
        bad = GosperCertificate(cert.ratio, RationalFunction(n + d, d))
        assert not bad.verify_symbolic()
        assert not verify_certificate(term, bad, 1, 10)

    def test_pole_of_the_multiplier_is_a_witness_not_an_exception(self):
        # R = (l + 1)/l telescopes l*l! with s_l = (l+1)!, but R has its pole
        # at l = 0 = lo - 1, where s_0 = R(0) * 0 is undefined
        term = parse_term("l*fact(l)", "l")
        cert = gosper(term_ratio(term))
        assert cert.multiplier == RationalFunction(Poly([1, 1], "l"), Poly([0, 1], "l"))
        assert not verify_certificate(term, cert, 1, 5)
        assert certificate_witness(term, cert, 1, 5) == "pole of R(l) at l=0"
        assert verify_certificate(term, cert, 2, 5)
        assert certificate_witness(term, cert, 2, 5) is None

    def test_witnesses_under_fault_injection(self):
        term = parse_term("l", "l")
        cert = gosper(term_ratio(term))  # R(l) = (l + 1)/2
        l = Poly.variable("l")
        n, d = cert.multiplier.num, cert.multiplier.den
        # a pole inside the range names its first l
        pole = GosperCertificate(cert.ratio, RationalFunction(n, d * (l - 3) * (l - 5)))
        assert certificate_witness(term, pole, 1, 10) == "pole of R(l) at l=3"
        # 2R gives s_l = l (l + 1): s_1 - s_0 = 2 against b_1 = 1
        doubled = GosperCertificate(cert.ratio, RationalFunction(2 * n, d))
        assert certificate_witness(term, doubled, 1, 10) == "l=1: 2 != 1"
        assert certificate_witness(term, doubled, 4, 10) == "l=4: 8 != 4"
        # a wrong quotient r leaves every step right and the identity wrong
        wrong_ratio = GosperCertificate(RationalFunction(l + 2, l), cert.multiplier)
        assert not wrong_ratio.verify_symbolic()
        assert certificate_witness(term, wrong_ratio, 1, 10) == "R(l) - R(l-1)/r(l-1) != 1"
        assert not verify_certificate(term, wrong_ratio, 1, 10)
        assert certificate_witness(term, cert, 1, 10) is None

    def test_symbolic_check_matches_rational_function_route(self):
        # the cross-multiplied identity against R(l) - R(l-1)/r(l-1) = 1 at
        # exact points, on real certificates and on perturbed multipliers
        # R + 1/(l+5) and 2R, which must all fail; none of these terms is a
        # multiple of l + 5, the one b that R + 1/(l+5) telescopes
        l = Poly.variable("l")
        sources = [
            "l", "l*(l+1)", "l^3", "l*2^l", "2^l", "binom(2*l, l)/4^l",
            "(2*l+1)*binom(2*l,l)/4^l", "binom(2*l-2,l-1)*binom(2*l-6,l-3)/(16^l*(l-2))",
            "fact(l-1)/fact(l+7)", "1/((l+1/2)*(l+7/2))", "(l+1/3)*(2/3)^l", "l^2*3^l",
        ] + [f"({n}+1-l) * binom(l+{j}-1, l-{j})" for n in range(1, 9) for j in range(1, n + 1)]
        for src in sources:
            cert = gosper(term_ratio(parse_term(src, "l")))
            assert cert is not None, src
            n, d = cert.multiplier.num, cert.multiplier.den
            for multiplier, holds in (
                (cert.multiplier, True),
                (RationalFunction(n * (l + 5) + d, d * (l + 5)), False),
                (RationalFunction(2 * n, d), False),
            ):
                candidate = GosperCertificate(cert.ratio, multiplier)
                assert candidate.verify_symbolic() is holds, (src, str(multiplier))
                assert product_form(candidate) is holds, (src, str(multiplier))
                assert rational_function_route(candidate) is holds, (src, str(multiplier))

    def test_zero_ratio_rejected(self):
        with pytest.raises(ValueError):
            gosper(RationalFunction(Poly.zero("l"), Poly.const(1, "l")))

    def test_unfactored_ratio_rejected(self):
        l = Poly.variable("l")
        with pytest.raises(TypeError):
            gosper(RationalFunction(l + 1, l))

    def test_work_limit(self):
        # deg c = h - 1 for 1/((l+1)(l+1+h)); the degree bound is k for
        # fact(l-1)/fact(l+k), whose c is 1
        for src in (
            f"1/((l+1)*(l+{GOSPER_WORK_LIMIT + 3}))",
            f"fact(l-1)/fact(l+{GOSPER_WORK_LIMIT + 2})",
        ):
            with pytest.raises(GosperLimitError):
                gosper(term_ratio(parse_term(src, "l")))

    def test_term_ratio_limit(self):
        # (l+1)^e enters 2e linear factors; fact(a*l) enters |a|
        limit = 5 * GOSPER_WORK_LIMIT
        term_ratio(parse_term(f"(l+1)^{limit // 2}", "l"))
        for src in (f"(l+1)^{limit // 2 + 1}", f"fact({limit + 1}*l)", "l^(10^12)"):
            with pytest.raises(GosperLimitError, match="linear factors"):
                term_ratio(parse_term(src, "l"))

    def test_geometric_constant_limit(self):
        # base^(a*l) enters base^a, counted as |a| times the larger bit
        # length of the base's numerator and denominator, summed over factors
        term_ratio(parse_term("2^(10000*l)", "l"))
        term_ratio(parse_term("(1/3)^(10000*l)", "l"))
        for src in ("2^(10001*l)", "(1/3)^(-10001*l)", "2^(5000*l)*3^(5001*l)"):
            with pytest.raises(GosperLimitError, match="bits of geometric constants"):
                term_ratio(parse_term(src, "l"))

    def test_cross_check_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.abc import l
        from sympy.concrete.gosper import gosper_sum

        f = (8 - l) * sympy.binomial(l + 2, 5)
        term = paper_term(7, 3)
        cert = gosper(term_ratio(term))
        ours = telescoped_sum(term, cert, 3, 7)
        assert sympy.Integer(ours) == gosper_sum(f, (l, 3, 7))
        assert gosper_sum(sympy.factorial(l), (l, 0, sympy.abc.n)) is None


# terms for the range-sum differential test: R = (l+1)/l has its pole at 0,
# where l*fact(l) vanishes; binom(l,3) is zero for every l < 3;
# 1/(l*(l+1)) is undefined at -1 and 0; R has its pole at 9, where
# (9-l)*binom(l,l-1) vanishes; fact(l) is not summable
RANGE_TERMS = ["l*fact(l)", "binom(l,3)", "1/(l*(l+1))", "(9-l)*binom(l,l-1)", "fact(l)"]

# terms with poles, factorials of negative arguments and binomial supports
# inside -9..9, most of them Gosper-summable
RANGE_FAMILIES = RANGE_TERMS + [
    "1/((l+2)*(l+5))", "1/((2*l+1)*(2*l+3))", "l/fact(l+1)", "(l+1)*fact(l+3)",
    "binom(l+6,l+4)", "binom(-l-4,-l-4)", "(4*l+1)*fact(l)/fact(2*l+1)", "l^3", "l*2^l",
    "(l+1)/((l+3)*fact(l+4))", "1/binom(l+3,2)", "binom(2*l,l)/4^l*(l+1/2)",
    "1/((l-2)*(l+1))", "(l-3)/fact(4-l)", "1/binom(6-l,2)",
    "1/((l-4)*(l-3)*(l-2))",
]


def _direct_sum(term, lo, hi):
    """sum_{l=lo..hi} b_l term by term, or None when a term is undefined."""
    try:
        return sum((term_value(term, l) for l in range(lo, hi + 1)), Fraction(0))
    except (ValueError, ZeroDivisionError):
        return None


class TestTelescopedSum:
    def test_telescopes_past_a_pole_of_the_multiplier(self):
        # s_0 = R(0) * 0 is undefined at lo - 1 = 0, so the sum starts from
        # s_1 = 2 and b_1 = 1 is summed by itself: 1 + (720 - 2) = 6! - 1
        term = parse_term("l*fact(l)", "l")
        cert = gosper(term_ratio(term))
        assert telescoped_sum(term, cert, 1, 5) == 719

    def test_without_a_certificate_sums_term_by_term(self, monkeypatch):
        term = parse_term("fact(l)", "l")
        assert telescoped_sum(term, None, 0, 4) == 1 + 1 + 2 + 6 + 24
        calls = []
        monkeypatch.setattr(hypsum, "term_value", lambda t, l: calls.append(l) or Fraction(1))
        assert telescoped_sum(term, None, -2, 2) == 5 and calls == [-2, -1, 0, 1, 2]

    def test_empty_range_and_too_many_terms_raise(self):
        term = parse_term("fact(l)", "l")
        with pytest.raises(ValueError, match="empty summation range"):
            telescoped_sum(term, None, 3, 2)
        limit = hypsum.GOSPER_TERMS_LIMIT
        with pytest.raises(ValueError, match=f"needs {limit + 1} terms one by one"):
            telescoped_sum(term, None, 1, limit + 1)

    def test_no_certificate_is_a_witness(self):
        term = parse_term("fact(l)", "l")
        assert certificate_witness(term, None, 1, 5) == "not summable"
        assert not verify_certificate(term, None, 1, 5)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(RANGE_TERMS), st.integers(-8, 12), st.integers(0, 14))
    @example("l*fact(l)", 1, 4)
    @example("binom(l,3)", -5, 15)
    @example("1/(l*(l+1))", 1, 10)
    @example("(9-l)*binom(l,l-1)", 2, 7)
    def test_matches_the_direct_sum(self, src, lo, width):
        term = parse_term(src, "l")
        want = _direct_sum(term, lo, lo + width)
        if want is None:  # a term of the range is undefined
            return
        assert telescoped_sum(term, gosper(term_ratio(term)), lo, lo + width) == want

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(RANGE_FAMILIES), st.integers(-9, 9), st.integers(-9, 9))
    @example("1/(l*(l+1))", -3, 4)
    @example("l/fact(l+1)", -5, 3)
    @example("1/binom(l+3,2)", -9, 9)
    def test_raises_exactly_where_the_direct_sum_does(self, src, lo, hi):
        # a telescoped sum computes few of its terms, yet it is undefined,
        # with the same error, where one of them is
        lo, hi = min(lo, hi), max(lo, hi)
        term = parse_term(src, "l")
        cert = gosper(term_ratio(term))
        try:
            sum(term_value(term, l) for l in range(lo, hi + 1))
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                telescoped_sum(term, cert, lo, hi)
        else:
            telescoped_sum(term, cert, lo, hi)


# linear arguments of factorials and binomials: increasing, decreasing,
# constant and with a fractional offset
SPECIAL_ARGS = ["l", "2*l", "-l", "3-l", "l+2", "l-4", "3", "-2", "l+1/2", "1/3-l"]
MULTIPLIERS = ["", "l*", "(l+1)*", "(l-2)*", "(3-l)*", "(2*l+1)*", "1/(l+1)*", "1/(2-l)*"]


def _special_term(rng):
    """A linear multiplier, or none, times a factorial or a binomial of
    SPECIAL_ARGS under the exponent 1 or -1."""
    u, v = rng.choice(SPECIAL_ARGS), rng.choice(SPECIAL_ARGS)
    special = f"fact({u})" if rng.random() < 0.5 else f"binom({u},{v})"
    return f"{rng.choice(MULTIPLIERS)}{special}^{rng.choice([1, -1])}"


class TestUndefinedCandidates:
    def test_the_first_term_goes_uncomputed_past_every_root(self):
        term = parse_term("l*fact(l)", "l")
        assert hypsum._undefined_candidates(term, 98001, 98100) == []
        assert hypsum._undefined_candidates(term, 1, 100) == [1]

    @pytest.mark.parametrize("src, lo, error", [
        # an argument that is constant, decreasing or fractional leaves the
        # term undefined on all of [lo, 3000], past every root, and the
        # range is over the terms limit
        ("1/binom(l,-2)", 3, "pole of binom(l, -2)^-1 at l = 3"),
        ("l*fact(-l)", 5, "factorial argument -5 at l = 5"),
        ("(l+1)/fact(-l)", 6, "factorial argument -6 at l = 6"),
        ("(2*l+1)*fact(l+1/2)", 5, "factorial argument 11/2 at l = 5"),
    ])
    def test_a_long_range_names_its_first_undefined_term(self, src, lo, error):
        term = parse_term(src, "l")
        with pytest.raises((ValueError, ZeroDivisionError), match=f"^{re.escape(error)}$"):
            telescoped_sum(term, gosper(term_ratio(term)), lo, 3000)

    @settings(max_examples=300, deadline=None)
    @given(
        # as the parser builds them: a factorial or binomial of constants is
        # folded into the term's constant
        st.lists(hyp_factors, min_size=1, max_size=3).filter(lambda fs: all(
            f.a if isinstance(f, FactorialFactor) else f.a1 or f.a2
            for f in fs if isinstance(f, (FactorialFactor, BinomialFactor))
        )),
        st.integers(-12, 12),
        st.integers(0, 12),
    )
    def test_lo_is_left_out_only_where_the_term_is_defined(self, factors, lo, width):
        term = HypTerm("l", Fraction(1), tuple(factors))
        if lo not in hypsum._undefined_candidates(term, lo, lo + width):
            term_value(term, lo)  # raises no error

    def test_leaving_lo_out_changes_no_sum_and_no_error(self, monkeypatch):
        # the rule that always tries lo is right by the docstring's argument
        # alone; the one that leaves it out past every root must agree with it
        real = hypsum._undefined_candidates

        def with_lo(term, lo, hi):
            return sorted({lo, *real(term, lo, hi)})

        rng = random.Random(37)
        limit = hypsum.GOSPER_TERMS_LIMIT
        pairs = 0
        for _ in range(600):
            src = _special_term(rng)
            try:
                term = parse_term(src, "l")
                cert = gosper(term_ratio(term))
            except ValueError:  # a constant that is undefined, or a Gosper limit
                continue
            if cert is None:
                continue
            ends = [sorted(rng.sample(range(-9, 10), 2)) for _ in range(6)]
            ends += [(end, end + limit + rng.randint(1, 50)) for end in (-9, 0, 9)]
            ends += [(end - limit - rng.randint(1, 50), end) for end in (-9, 0, 9)]
            for lo, hi in ends:
                monkeypatch.setattr(hypsum, "_undefined_candidates", real)
                got = outcome(telescoped_sum, term, cert, lo, hi)
                monkeypatch.setattr(hypsum, "_undefined_candidates", with_lo)
                assert got == outcome(telescoped_sum, term, cert, lo, hi), (src, lo, hi)
                pairs += 1
        assert pairs > 1000


def _family_sources():
    """The term families of the gosper benchmark: the paper's weighted
    binomials, rational terms of dispersion h <= 60, and the geometric and
    factorial classics."""
    return (
        st.builds(lambda n, j: f"({n}+1-l) * binom(l+{j}-1, l-{j})",
                  st.integers(1, 14), st.integers(1, 14))
        | st.builds(lambda a, h: f"1/((l+{a})*(l+{a + h}))", st.integers(1, 6), st.integers(1, 60))
        | st.builds(lambda b, c: f"(l+{b})*{c}^l", st.integers(0, 5),
                    st.sampled_from(["2", "3", "5", "(1/2)", "(2/3)"]))
        | st.builds(lambda b: f"fact(l+{b})*(l+{b})", st.integers(0, 5))
    )


def _perturbed(cert, how):
    """The certificate with its multiplier R = n/d or its ratio r changed:
    2R, R + 1/(l+5), the top or bottom coefficient of n moved by +-1, or r
    times (l+2)/(l+3)."""
    l = Poly.variable("l")
    n, d = cert.multiplier.num, cert.multiplier.den
    if how == "ratio":
        r = cert.ratio
        return GosperCertificate(RationalFunction(r.num * (l + 2), r.den * (l + 3)), cert.multiplier)
    top = Poly.monomial(1, n.degree, "l")
    num, den = {
        "none": (n, d),
        "double": (2 * n, d),
        "plus 1/(l+5)": (n * (l + 5) + d, d * (l + 5)),
        "top +1": (n + top, d),
        "top -1": (n - top, d),
        "bottom +1": (n + 1, d),
        "bottom -1": (n - 1, d),
    }[how]
    return GosperCertificate(cert.ratio, RationalFunction(num, den))


PERTURBATIONS = [
    "none", "double", "plus 1/(l+5)", "top +1", "top -1", "bottom +1", "bottom -1", "ratio",
]


class TestCertificateCheck:
    """The symbolic identity at one integer point and the telescoping steps
    on integers, against the product form, exact evaluation and the
    Fraction loop."""

    @settings(max_examples=80, deadline=None)
    @given(_family_sources(), st.sampled_from(PERTURBATIONS))
    @example("1/((l+1)*(l+61))", "none")
    @example("1/((l+1)*(l+61))", "top +1")
    @example("(30+1-l) * binom(l+20-1, l-20)", "bottom -1")
    def test_one_point_check_matches_both_oracles(self, src, how):
        cert = gosper(term_ratio(parse_term(src, "l")))
        assert cert is not None, src
        candidate = _perturbed(cert, how)
        holds = candidate.verify_symbolic()
        assert holds is product_form(candidate), (src, how)
        assert holds is rational_function_route(candidate), (src, how)
        if how == "none":
            assert holds, src

    @settings(max_examples=150, deadline=None)
    @given(
        _family_sources() | st.sampled_from(
            ["binom(l+6,l+4)", "binom(-l-4,-l-4)", "binom(l,3)", "(9-l)*binom(l,l-1)",
             "l*fact(l)", "1/(l*(l+1))", "1/((l-3)*(l-2))", "binom(2*l,l)/4^l"]
        ),
        st.sampled_from(PERTURBATIONS),
        st.integers(-8, 8),
        st.integers(0, 12),
    )
    @example("binom(l+6,l+4)", "none", -7, 11)
    @example("binom(-l-4,-l-4)", "none", -6, 4)
    def test_witness_strings_match_the_fraction_loop(self, src, how, lo, width):
        term = parse_term(src, "l")
        cert = gosper(term_ratio(term))
        assert cert is not None, src
        candidate = _perturbed(cert, how)
        assert certificate_witness(term, candidate, lo, lo + width) == fraction_witness(
            term, candidate, lo, lo + width
        ), (src, how, lo, width)

    def test_identity_that_vanishes_at_powers_of_two_is_refused(self):
        # R = 2 and r = a with a(l-1) = 2 + prod_k (l - 2^k): the identity
        # 2 - 2/a(l-1) = 1 holds at l = 2, 4, ..., 2^30 and nowhere else, so a
        # check at any of those points alone would pass it
        l = Poly.variable("l")
        planted = Poly.const(1, "l")
        for k in range(1, 31):
            planted = planted * (l + 1 - 2**k)
        cert = GosperCertificate(RationalFunction(planted + 2), RationalFunction(Poly.const(2, "l")))
        assert all(cert.multiplier(x) - cert.multiplier(x - 1) / cert.ratio(x - 1) == 1
                   for x in (2**k for k in range(1, 31)))
        assert not cert.verify_symbolic()
        assert not product_form(cert) and not rational_function_route(cert)

    def test_witnesses_across_poles_and_binomial_supports(self):
        for src, lo, hi, want in (
            ("binom(l+6,l+4)", -7, 4, "pole of R(l) at l=-6"),
            ("binom(-l-4,-l-4)", -6, -2, "l=-3: 3 != 0"),
            ("binom(l,3)", -5, 15, None),
            ("(9-l)*binom(l,l-1)", 2, 12, "pole of R(l) at l=9"),
        ):
            term = parse_term(src, "l")
            cert = gosper(term_ratio(term))
            assert certificate_witness(term, cert, lo, hi) == want, src
            assert fraction_witness(term, cert, lo, hi) == want, src

    def test_undefined_term_is_a_witness_not_an_exception(self):
        # 1/((l-3)(l-2)) has poles at l = 2 and 3 inside [0, 6]
        term = parse_term("1/((l-3)*(l-2))", "l")
        cert = gosper(term_ratio(term))
        assert certificate_witness(term, cert, 1, 6) == "term undefined at l=2"
        assert not verify_certificate(term, cert, 1, 6)
        assert certificate_witness(term, cert, 4, 9) == "term undefined at l=3"
        assert verify_certificate(term, cert, 5, 9)

    def test_negative_factorial_is_a_witness_not_an_exception(self):
        # fact(l) l telescopes with s_l = (l+1)!, but fact(-1) is undefined
        term = parse_term("fact(l)*l", "l")
        cert = gosper(term_ratio(term))
        assert certificate_witness(term, cert, 0, 5) == "term undefined at l=-1"
        assert not verify_certificate(term, cert, 0, 5)
        assert certificate_witness(term, cert, 1, 5) == "pole of R(l) at l=0"


# small integers, and small rationals to exercise the common denominator
# and the lead / gcd scaling of the integer solver
small = st.integers(-3, 3) | st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)


@st.composite
def gosper_equations(draw):
    """(a, b(l-1), c, bound) with small rational coefficients; half of them
    balanced (equal degree and leading coefficient), some of those with the
    top coefficient of column j0 <= bound vanishing, and half of the right
    sides of the form L(x), so that a solution exists."""
    s = draw(st.integers(0, 3))
    bound = draw(st.integers(0, 5))
    lc = draw(small.filter(bool))
    a = Poly(draw(st.lists(small, min_size=s, max_size=s)) + [lc], "l")
    if draw(st.booleans()):
        lower = draw(st.lists(small, min_size=s, max_size=s))
        if s and draw(st.booleans()):
            lower[-1] = a.coeff(s - 1) + lc * draw(st.integers(0, bound))
        b_shifted = Poly(lower + [lc], "l")
    else:
        b_shifted = Poly(draw(st.lists(small, min_size=1, max_size=5)), "l")
        if b_shifted.is_zero():
            b_shifted = Poly.const(1, "l")
    if draw(st.booleans()):
        x = Poly(draw(st.lists(small, max_size=bound + 1)), "l")
        c = a * x.shift(1) - b_shifted * x
    else:
        c = Poly(draw(st.lists(small, max_size=bound + s + 2)), "l")
    return a, b_shifted, c, bound


def three_branch_degree_bound(a, b_shifted, c):
    """The degree bound with the balanced constants as a case of their own:
    the reference for _degree_bound."""
    n, m, k = a.degree, b_shifted.degree, c.degree
    candidates = set()
    if n != m or a.leading != b_shifted.leading:
        candidates.add(Fraction(k - max(n, m)))
    elif n == 0:
        candidates.add(Fraction(k - n + 1))
        candidates.add(Fraction(0))
    else:
        candidates.add(Fraction(k - n + 1))
        candidates.add((b_shifted.coeff(n - 1) - a.coeff(n - 1)) / a.leading)
    bounds = [int(d) for d in candidates if d.denominator == 1 and d >= 0]
    return max(bounds) if bounds else None


DEGREE_BOUND_CASES = ["unbalanced", "balanced constants", "j0 >= 0", "j0 < 0", "fractional j0"]


@st.composite
def degree_bound_inputs(draw):
    """(a, b(l-1), c) in one of DEGREE_BOUND_CASES: a and b(l-1) of unequal
    degrees or leading coefficients, equal constants, or balanced of degree
    s > 0 with j0 = (b(l-1)_(s-1) - a_(s-1)) / lc(a) an integer >= 0, an
    integer < 0 or not an integer."""
    case = draw(st.sampled_from(DEGREE_BOUND_CASES))
    if case == "balanced constants":
        s = 0
    else:
        s = draw(st.integers(0 if case == "unbalanced" else 1, 3))
    lc = draw(small.filter(bool))
    a = Poly(draw(st.lists(small, min_size=s, max_size=s)) + [lc], "l")
    lower = draw(st.lists(small, min_size=s, max_size=s))
    if case == "unbalanced":
        # another leading coefficient, or another degree
        top = draw(st.sampled_from([[lc + 1], [2 * lc], [0, lc], []]))
        b_shifted = Poly(lower + top or [2 * lc], "l")
    else:
        if s:
            j0 = {
                "j0 >= 0": st.integers(0, 8),
                "j0 < 0": st.integers(-8, -1),
                "fractional j0": st.fractions(-8, 8, max_denominator=6).filter(
                    lambda q: q.denominator != 1
                ),
            }[case]
            lower[-1] = a.coeff(s - 1) + lc * draw(j0)
        b_shifted = Poly(lower + [lc], "l")
    c = Poly(draw(st.lists(small, max_size=6)) + [draw(small.filter(bool))], "l")
    return a, b_shifted, c


class TestGosperEquation:
    """The back-substitution solver against the dense Gauss-Jordan oracle."""

    @given(eq=degree_bound_inputs())
    # balanced constants, then a = l with j0 = 3 and -3, a = 2l with
    # j0 = 1/2, and an unbalanced pair
    @example(eq=(Poly.const(2, "l"), Poly.const(2, "l"), Poly([1, 1], "l")))
    @example(eq=(Poly([0, 1], "l"), Poly([3, 1], "l"), Poly.const(1, "l")))
    @example(eq=(Poly([0, 1], "l"), Poly([-3, 1], "l"), Poly.const(1, "l")))
    @example(eq=(Poly([0, 2], "l"), Poly([1, 2], "l"), Poly.const(1, "l")))
    @example(eq=(Poly([0, 1], "l"), Poly.const(1, "l"), Poly.const(1, "l")))
    @settings(max_examples=200, deadline=None)
    def test_degree_bound_matches_three_branch_rule(self, eq):
        assert _degree_bound(*eq) == three_branch_degree_bound(*eq)

    @given(eq=gosper_equations())
    # a = b(l-1) = 2: L(1) = 0, so the row of x_0 is empty and x_0 is free
    @example(eq=(Poly.const(2, "l"), Poly.const(2, "l"), Poly([1, 1], "l"), 2))
    # balanced with j0 = 0, and L(1) = l + 1 fixes x_0 twice over: 1 and 2
    @example(eq=(Poly([1, 1, 0, 1], "l"), Poly.monomial(1, 3, "l"), Poly([1, 2], "l"), 0))
    @settings(max_examples=100, deadline=None)
    def test_matches_gauss_jordan(self, eq):
        assert _solve_gosper_equation(*eq) == dense_gosper_solution(*eq)

    @staticmethod
    def equation(monkeypatch, src, oracle=True):
        """gosper's certificate for src and the (a, b(l-1), c, bound) it
        handed to the solver, checked against the oracle if asked."""
        calls = []

        def spy(*eq):
            calls.append(eq)
            return _solve_gosper_equation(*eq)

        monkeypatch.setattr(hypsum, "_solve_gosper_equation", spy)
        cert = gosper(term_ratio(parse_term(src, "l")))
        (eq,) = calls
        if oracle:
            assert _solve_gosper_equation(*eq) == dense_gosper_solution(*eq)
        return cert, eq

    def test_balanced_free_unknown_stays_free(self, monkeypatch):
        # a = b(l-1), so L(1) = 0: x_0 is free and set to 0
        cert, (a, b_shifted, c, bound) = self.equation(monkeypatch, "l^3")
        assert a == b_shifted and bound == 4
        # s_l = l^2 (l+1)^2 / 4 = R(l) l^3
        for l in range(1, 8):
            assert cert.multiplier(l) == Fraction((l + 1) ** 2, 4 * l)

    def test_balanced_free_unknown_fixed_by_lower_rows(self, monkeypatch):
        # a = (l-1/2)(l-5/2) and b(l-1) = (l-1)(l-2) are balanced with
        # j0 = 0, and L(1) = a - b(l-1) = -3/4 fixes x_0
        src = "binom(2*l-2,l-1)*binom(2*l-6,l-3)/(16^l*(l-2))"
        cert, (a, b_shifted, c, bound) = self.equation(monkeypatch, src)
        assert (a.degree, a.leading) == (b_shifted.degree, b_shifted.leading)
        assert a - b_shifted == Fraction(-3, 4) and bound == 0
        assert cert.multiplier == RationalFunction(Poly([-5, 12, -4], "l") * Fraction(1, 3))
        assert verify_certificate(parse_term(src, "l"), cert, 4, 12)

    def test_unbalanced(self, monkeypatch):
        cert, (a, b_shifted, c, bound) = self.equation(monkeypatch, "l*2^l")
        assert (a, b_shifted, c, bound) == (2, 1, Poly.variable("l"), 1)
        # s_l = (l-1) 2^(l+1) + 2 - 2 = R(l) l 2^l up to the constant
        for l in range(1, 8):
            assert cert.multiplier(l) == Fraction(2 * (l - 1), l)

    def test_inconsistent(self, monkeypatch):
        # the harmonic numbers: a = b(l-1) = l+1 and c = 1, so L(x_0) = 0 = 1
        cert, (a, b_shifted, c, bound) = self.equation(monkeypatch, "1/(l+1)")
        assert a == b_shifted and c == 1 and bound == 0
        assert cert is None

    def test_term_at_work_limit(self, monkeypatch):
        # the oracle would take 20 s here
        src = f"fact(l-1)/fact(l+{GOSPER_WORK_LIMIT})"
        cert, (a, b_shifted, c, bound) = self.equation(monkeypatch, src, oracle=False)
        assert bound == GOSPER_WORK_LIMIT
        assert verify_certificate(parse_term(src, "l"), cert, 2, 6)


class TestWeightedBinomialSum:
    def test_small_case(self):
        assert weighted_binomial_sum(2, 1) == 4
        assert Fraction(3 * 4, 6) * binomial(2, 1) == 4

    def test_single_term_diagonal(self):
        for n in range(1, 12):
            assert weighted_binomial_sum(n, n) == 1

    def test_closed_form_sweep(self):
        for n in range(1, 13):
            for j in range(1, n + 1):
                closed = Fraction(
                    (j + n) * (n + 1 + j), 2 * j * (2 * j + 1)
                ) * binomial(n + j - 1, n - j)
                assert weighted_binomial_sum(n, j) == closed

    def test_paper_instance(self):
        assert weighted_binomial_sum(7, 3) == 330

    def test_boundary_antidifference_zero(self):
        # s_{j-1} = 0 in the closed antidifference, because the binomial
        # C(2j-2, -1) vanishes
        for n in range(2, 10):
            for j in range(1, n + 1):
                l = j - 1
                s = Fraction(
                    (j + l) * (n + 1 + j + 2 * j * n - 2 * j * l), 2 * j * (2 * j + 1)
                ) * binomial(l + j - 1, l - j)
                assert s == 0


class TestPFQ:
    def test_vanishing_upper_parameter(self):
        assert pfq_terminating([0, 5], [3], Fraction(1, 7)) == 1

    def test_chain_polynomial_2f1(self):
        y = Poly.variable("y")
        value = 2 * y * pfq_terminating([-1, 3], [3], y)
        assert value == lowner.chain_poly(2)

    def test_weinstein_3f2(self):
        y = Poly.variable("y")
        value = 4 * y * pfq_terminating(
            [Fraction(3, 2), 5, -1], [Fraction(5, 2), 3], y
        )
        assert value == dbw.weinstein_poly(2, 1)

    def test_rational_argument(self):
        # 2F1(-2, 1; 1; x) = (1-x)^2
        assert pfq_terminating([-2, 1], [1], Fraction(1, 3)) == Fraction(4, 9)

    def test_nonterminating_rejected(self):
        with pytest.raises(ValueError):
            pfq_terminating([Fraction(1, 2), 2], [3], Fraction(1, 5))

    def test_lower_pole_rejected(self):
        with pytest.raises(ValueError):
            pfq_terminating([-3, 1], [-1], Fraction(1, 5))

    def test_float_refused(self):
        # Fraction(0.1) would take 0.1 at its binary value, 3602879701896397/2^55
        for upper, lower, arg in (([-1], [], 0.1), ([-1.0], [], 1), ([-1], [0.5], 1)):
            with pytest.raises(TypeError, match="exact scalar"):
                pfq_terminating(upper, lower, arg)

    def test_nonlinear_argument_rejected(self):
        y = Poly.variable("y")
        with pytest.raises(ValueError, match="not linear"):
            pfq_terminating([-2, 1], [3], y * y)

    def test_lower_pole_beyond_termination_allowed(self):
        # lower parameter -3 is only reached after the series stops at j = 3
        value = pfq_terminating([-3, 1], [-3], Fraction(1, 2))
        assert value == sum(Fraction(1, 2) ** j for j in range(4))


def pfq_reference(upper, lower, arg):
    """pfq_terminating as it was before its coefficients were built on
    integers: term by term, three Poly or Fraction operations a term."""
    ups = [Fraction(u) for u in upper]
    lows = [Fraction(b) for b in lower]
    stops = [-u for u in ups if u.denominator == 1 and u <= 0]
    if not stops:
        raise ValueError("series does not terminate: no nonpositive integer "
                         "upper parameter")
    m = int(min(stops))
    for b in lows:
        if b.denominator == 1 and 0 >= b > -m:
            raise ValueError(f"lower parameter {b} hits a pole before termination")
    one = Poly.const(1, arg.var) if isinstance(arg, Poly) else Fraction(1)
    if not isinstance(arg, Poly):
        arg = Fraction(arg)
    total = term = one
    for j in range(m):
        scale = Fraction(1, j + 1)
        for u in ups:
            scale *= u + j
        for b in lows:
            scale /= b + j
        term = term * arg * scale
        total = total + term
    return total


pfq_params = st.integers(-8, 8) | st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=6
)
pfq_args = (
    st.integers(-5, 5)
    | st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=9)
    | st.builds(  # a polynomial argument has degree at most 1
        Poly,
        st.lists(st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                              max_denominator=4), max_size=2),
        st.sampled_from("xyt"),
    )
)


class TestPFQAgainstTermByTerm:
    @given(
        upper=st.lists(pfq_params, max_size=3),
        stop=st.none() | st.integers(0, 12),
        lower=st.lists(pfq_params, max_size=3),
        arg=pfq_args,
    )
    @settings(max_examples=150, deadline=None)
    @example(upper=[], stop=None, lower=[], arg=1)  # does not terminate
    @example(upper=[1], stop=4, lower=[-2], arg=Fraction(1, 3))  # a pole first
    @example(upper=[Fraction(1, 2)], stop=0, lower=[], arg=Poly([1, 2], "x"))
    @example(upper=[3], stop=5, lower=[-5], arg=Poly([], "t"))  # pole after the stop
    # integral Fractions, read as the integer pairs (-3, 1) and (-2, 1)
    @example(upper=[Fraction(-3), Fraction(5, 2)], stop=None, lower=[Fraction(7)],
             arg=Fraction(-2, 3))  # a Fraction stop
    @example(upper=[Fraction(-3)], stop=None, lower=[Fraction(-2)], arg=Poly([1, 2], "x"))
    @example(upper=[Fraction(4)], stop=6, lower=[Fraction(-2), Fraction(1, 3)], arg=2)
    def test_same_value_or_same_error(self, upper, stop, lower, arg):
        if stop is not None:
            upper = upper + [-stop]
        try:
            want = pfq_reference(upper, lower, arg)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                pfq_terminating(upper, lower, arg)
            assert str(excinfo.value) == str(exc)
            return
        got = pfq_terminating(upper, lower, arg)
        assert type(got) is type(want) and got == want
        if isinstance(want, Poly):
            assert got.var == want.var == arg.var

    def test_an_integral_fraction_pole_keeps_its_message(self):
        with pytest.raises(ValueError) as excinfo:
            pfq_terminating([Fraction(-3), 2], [Fraction(-2)], Poly.variable("y"))
        assert str(excinfo.value) == "lower parameter -2 hits a pole before termination"

    @pytest.mark.parametrize("upper, lower", [
        ([Fraction(-3), 1.5], [Fraction(1, 2)]),
        ([-3.0], [2]),  # a float stop is not a stop
        ([Fraction(-3)], [Fraction(1, 2), 2.0]),
    ])
    def test_a_float_parameter_raises_type_error(self, upper, lower):
        with pytest.raises(TypeError, match="exact scalar"):
            pfq_terminating(upper, lower, Poly.variable("y"))


class TestHypergeometricRepresentations:
    def test_chain_polynomials(self):
        y = Poly.variable("y")
        for n in range(1, 15):
            value = n * y * pfq_terminating([1 - n, n + 1], [3], y)
            assert value == lowner.chain_poly(n)

    def test_weinstein_polynomials(self):
        y = Poly.variable("y")
        for n in range(1, 12):
            for k in range(1, n + 1):
                prefactor = Poly.monomial(binomial(n + k + 1, n - k), k, "y")
                value = prefactor * pfq_terminating(
                    [Fraction(2 * k + 1, 2), n + k + 2, k - n],
                    [Fraction(2 * k + 3, 2), 2 * k + 1],
                    y,
                )
                assert value == dbw.weinstein_poly(n, k)

    def test_gegenbauer_polynomials(self):
        x = Poly.variable("x")
        u = Poly([Fraction(1, 2), Fraction(-1, 2)], "x")
        for n in range(2, 15):
            value = (1 - x) * pfq_terminating([1 - n, n], [2], u)
            assert value == orthopoly.gegenbauer_minus_half(n)

    def test_gegenbauer_mismatch_at_one(self):
        x = Poly.variable("x")
        u = Poly([Fraction(1, 2), Fraction(-1, 2)], "x")
        value = (1 - x) * pfq_terminating([0, 1], [2], u)
        assert value != orthopoly.gegenbauer_minus_half(1)
