"""Hypergeometric terms, Gosper's algorithm, and terminating pFq sums.

A hypergeometric term b_l is entered through a tiny expression grammar
(integers, rationals via division, the summation variable, ``+ - * / ^``,
``fact(...)``, ``binom(...)``, parentheses) and normalized into a product of
factors whose shift quotient b_{l+1}/b_l is a rational function of l.
A term is evaluated on integers: each factor's value p/q is multiplied into
one numerator and one denominator, and one Fraction is built at the end.
The quotient is kept as its roots, and a product of linear factors
prod (l - p/q)^m, such as its numerator and denominator, is expanded in one
list of integer numerators, multiplied in place by q l - p per factor and
normalised once over the common denominator prod q^m.
Gosper's algorithm then decides whether b_l has a hypergeometric
antidifference s_l with s_l - s_{l-1} = b_l, and returns a certificate
multiplier R with s_l = R(l) b_l that can be checked both symbolically and
numerically on a range.  Its polynomial equation is solved on the integer
rows of its polynomials over one denominator, fraction-free, each step one
``exact._eliminate``.  Both checks run on integers.  The symbolic check
R(l) - R(l-1)/r(l-1) = 1 is, with the denominators cleared, for R = n/d,
r = a/b and a subscript 1 marking l -> l-1, the integer polynomial identity
(n - d) a1 d1 = n1 b1 d; it is compared at the one point 2^B past a bound
on its coefficients, as products of the integers that ``exact._pack`` and
``exact._pack_shifted`` make.  On a range, each step s_l - s_(l-1) = b_l is
one cross-multiplication of unreduced integer pairs.  A range sum
telescoped by the certificate fails where the sum term by term does, at
its first undefined term.

The terminating pFq evaluator computes sum_j (prod upper Pochhammers) /
(prod lower Pochhammers j!) arg^j exactly, for series cut off by a
nonpositive-integer upper parameter.  The term ratio is a rational function
of j, so the coefficients are built as integers over one common denominator
and the argument is substituted once: a rational by Horner, a linear
polynomial a*x + b by ``Poly.subs_linear``, which is how the closed
hypergeometric forms of the chain, Weinstein and Gegenbauer polynomials are
produced.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from itertools import accumulate, zip_longest
from operator import mul
from typing import Optional, Sequence, Union

from .exact import (
    Poly, RationalFunction, Record, Scalar, _eliminate, _horner, _make, _pack, _pack_shifted,
    _ratio, _set_field, binomial, pochhammer,
)


class TermSyntaxError(ValueError):
    """Grammar violation, with a 1-based column and the expected tokens."""

    def __init__(self, message: str, position: int, expected: Sequence[str] = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"column {position}: {message}"
        if self.expected:
            detail += f" (expected {', '.join(self.expected)})"
        super().__init__(detail)


class TermSemanticError(ValueError):
    """Structurally valid input that is not a hypergeometric term, with the
    1-based column, or None for a summation variable that cannot be one."""

    def __init__(self, message: str, position: int | None):
        self.position = position
        super().__init__(message if position is None else f"column {position}: {message}")


class GosperLimitError(ValueError):
    """Gosper's algorithm would need more work than GOSPER_WORK_LIMIT."""


# bound on deg c and on the degree bound for x in gosper.  term_ratio admits
# at most 5 * GOSPER_WORK_LIMIT linear factors, counted before they cancel.
# At 200, gosper took 0.07 s on 1/((l+1)*(l+201)) (deg c = 200) and term_ratio
# 2.8 s on fact(1000*l+1/1000003); at 400, 0.5 s and 29 s (2 CPUs, Python 3.11).
GOSPER_WORK_LIMIT = 200

# The most terms telescoped_sum sums one by one: from l = 1, 2000 took 0.4 s
# for fact(l) and 0.75 s for binom(2*l,l) (cold CLI; 2 CPUs, Python 3.11).
GOSPER_TERMS_LIMIT = 2000

# bound on the bits of a constant: of the constants base^a that geometric
# factors enter into the shift quotient, summed, and of a constant power in
# a term.  R(l) carries the former, and Python prints no integer of more
# than 4300 digits (about 14 300 bits) by default.
_CONSTANT_BITS = 20_000


# ---------------------------------------------------------------------------
# factor normal form
# ---------------------------------------------------------------------------


class LinearFactor(Record):
    """(a*l + b) ** exponent."""

    __slots__ = ("a", "b", "exponent")

    a: Fraction
    b: Fraction
    exponent: int


class FactorialFactor(Record):
    """fact(a*l + b) ** exponent; a is an integer so the shift telescopes."""

    __slots__ = ("a", "b", "exponent")

    a: int
    b: Fraction
    exponent: int


class BinomialFactor(Record):
    """binom(a1*l + b1, a2*l + b2) ** exponent, integer leading coefficients."""

    __slots__ = ("a1", "b1", "a2", "b2", "exponent")

    a1: int
    b1: Fraction
    a2: int
    b2: Fraction
    exponent: int


class GeometricFactor(Record):
    """base ** (a*l + b) with integer a, b and a nonzero rational base."""

    __slots__ = ("base", "a", "b")

    base: Fraction
    a: int
    b: int


Factor = Union[LinearFactor, FactorialFactor, BinomialFactor, GeometricFactor]


class HypTerm(Record):
    """A term const * prod(factors) in the summation variable."""

    __slots__ = ("var", "const", "factors")

    var: str
    const: Fraction
    factors: tuple[Factor, ...]

    def is_zero(self) -> bool:
        return self.const == 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"\d+|{_IDENT}|[-+*/^(),]")
_IDENT_RE = re.compile(_IDENT)


class _Token(Record):
    __slots__ = ("kind", "text", "pos")

    kind: str  # "num", "ident", "end", or the operator character itself
    text: str
    pos: int  # 1-based column


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(src, i)
        if m is None or m.start() != i:
            raise TermSyntaxError(f"unexpected character {ch!r}", i + 1)
        text = m.group()
        if text[0].isdigit():
            kind = "num"
        elif text[0].isalpha() or text[0] == "_":
            kind = "ident"
        else:
            kind = text
        tokens.append(_Token(kind, text, i + 1))
        i = m.end()
    tokens.append(_Token("end", "", len(src) + 1))
    return tokens


class _Linear:
    """a*var + b; constants have a == 0.  Closed under +, -, scalar *."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        self.a = a
        self.b = b

    def is_const(self) -> bool:
        return self.a == 0


class _Product:
    """const * prod(factors): the multiplicative normal form."""

    __slots__ = ("const", "factors")

    def __init__(self, const: Fraction, factors: tuple[Factor, ...]):
        self.const = const
        self.factors = factors


_Value = Union[_Linear, _Product]


def _as_product(v: _Value) -> _Product:
    if isinstance(v, _Product):
        return v
    if v.is_const():
        return _Product(v.b, ())
    return _Product(Fraction(1), (LinearFactor(v.a, v.b, 1),))


def _bits(q: Fraction) -> int:
    """The larger bit length of q's numerator and denominator."""
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _refuse_bits(bits: float, what: str, pos: int) -> None:
    """Refuse a constant whose bound on its bit length exceeds _CONSTANT_BITS."""
    if bits > _CONSTANT_BITS:
        raise TermSemanticError(f"constant {what} of more than {_CONSTANT_BITS} bits", pos)


def _const_power(base: Fraction, e: int, pos: int) -> Fraction:
    """base ** e, refused before it is computed when |e| * _bits(base)
    exceeds _CONSTANT_BITS; a base of 0 or +-1 costs nothing."""
    if abs(base) != 1 and base != 0:
        _refuse_bits(abs(e) * _bits(base), "power", pos)
    return base**e


def _lgamma_bits(n: int, *parts: int) -> float:
    """A bound on the bit length of n! / prod(p! for p in parts), from lgamma
    with a margin for its rounding; infinite when n is beyond a float."""
    try:
        top = math.lgamma(n + 1)
    except OverflowError:
        return math.inf
    return (top - sum(math.lgamma(p + 1) for p in parts) + top * 2.0**-40) / math.log(2) + 1


def _require_int(value: Fraction, what: str, pos: int) -> int:
    if value.denominator != 1:
        raise TermSemanticError(f"{what} must be an integer, got {value}", pos)
    return int(value)


def _const_binomial(upper: Fraction, lower: Fraction, pos: int) -> Fraction:
    k = _require_int(lower, "constant binomial lower argument", pos)
    if k < 0:
        return Fraction(0)
    if upper.denominator == 1:
        n = int(upper)
        top = n if n >= 0 else k - n - 1  # C(n, k) = (-1)^k C(k-n-1, k) for n < 0
        if k <= top:
            small = min(k, top - k)  # C(top, small) <= top^small
            _refuse_bits(
                min(small * top.bit_length(), _lgamma_bits(top, small, top - small)),
                "binomial", pos,
            )
        return Fraction(binomial(n, k))
    _refuse_bits(k * _bits(upper), "binomial", pos)
    return (-1) ** k * pochhammer(-upper, k) / math.factorial(k)


class _Parser:
    """Recursive descent over the term grammar, evaluating into normal form."""

    def __init__(self, src: str, var: str):
        self.tokens = _tokenize(src)
        self.index = 0
        self.var = var

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise TermSyntaxError(
                f"found {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.pos,
                expected=[kind],
            )
        return self.advance()

    def parse(self) -> _Value:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise TermSyntaxError(
                f"trailing input {tok.text!r}", tok.pos, expected=["end of input"]
            )
        return value

    def expr(self) -> _Value:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = self._add(value, rhs, op)
        return value

    def term(self) -> _Value:
        value = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            value = self._mul(value, rhs, op)
        return value

    def unary(self) -> _Value:
        if self.peek().kind == "-":
            tok = self.advance()
            value = self.unary()
            return self._negate(value)
        if self.peek().kind == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> _Value:
        base = self.atom()
        if self.peek().kind == "^":
            op = self.advance()
            exponent = self.unary()
            return self._pow(base, exponent, op)
        return base

    def atom(self) -> _Value:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return _Linear(Fraction(0), Fraction(int(tok.text)))
        if tok.kind == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if tok.kind == "ident":
            self.advance()
            if tok.text == "fact":
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return self._factorial(arg, tok.pos)
            if tok.text == "binom":
                self.expect("(")
                first = self.expr()
                self.expect(",")
                second = self.expr()
                self.expect(")")
                return self._binomial(first, second, tok.pos)
            if tok.text == self.var:
                return _Linear(Fraction(1), Fraction(0))
            raise TermSemanticError(f"unknown identifier {tok.text!r}", tok.pos)
        raise TermSyntaxError(
            f"found {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.pos,
            expected=["number", "identifier", "'('"],
        )

    # -- semantic combination ------------------------------------------

    def _add(self, lhs: _Value, rhs: _Value, op: _Token) -> _Value:
        if not isinstance(lhs, _Linear) or not isinstance(rhs, _Linear):
            raise TermSemanticError(
                "sums are only allowed between linear expressions", op.pos
            )
        if op.kind == "+":
            return _Linear(lhs.a + rhs.a, lhs.b + rhs.b)
        return _Linear(lhs.a - rhs.a, lhs.b - rhs.b)

    def _negate(self, value: _Value) -> _Value:
        if isinstance(value, _Linear):
            return _Linear(-value.a, -value.b)
        return _Product(-value.const, value.factors)

    def _mul(self, lhs: _Value, rhs: _Value, op: _Token) -> _Value:
        # scaling by a constant keeps linear expressions linear, so that
        # forms like 3*l + 1 or (n - l)/2 stay addable
        if op.kind == "/":
            if isinstance(rhs, _Linear) and rhs.is_const():
                if rhs.b == 0:
                    raise TermSemanticError("division by zero", op.pos)
                return self._scale(lhs, 1 / rhs.b)
            rhs = self._invert(rhs, op.pos)
        else:
            if isinstance(lhs, _Linear) and lhs.is_const():
                return self._scale(rhs, lhs.b)
            if isinstance(rhs, _Linear) and rhs.is_const():
                return self._scale(lhs, rhs.b)
        left = _as_product(lhs)
        right = _as_product(rhs)
        return _Product(left.const * right.const, left.factors + right.factors)

    def _scale(self, value: _Value, c: Fraction) -> _Value:
        if isinstance(value, _Linear):
            return _Linear(value.a * c, value.b * c)
        return _Product(value.const * c, value.factors)

    def _invert(self, value: _Value, pos: int) -> _Value:
        prod = _as_product(value)
        if prod.const == 0:
            raise TermSemanticError("division by zero", pos)
        return _Product(
            1 / prod.const,
            tuple(self._raise_factor(f, -1, pos) for f in prod.factors),
        )

    def _raise_factor(self, factor: Factor, e: int, pos: int) -> Factor:
        if isinstance(factor, GeometricFactor):
            return GeometricFactor(_const_power(factor.base, e, pos), factor.a, factor.b)
        # the exponent is the last field of every other factor
        return type(factor)(*factor._values()[:-1], factor.exponent * e)

    def _pow(self, base: _Value, exponent: _Value, op: _Token) -> _Value:
        if isinstance(exponent, _Product):
            raise TermSemanticError("exponent must be linear or constant", op.pos)
        if exponent.is_const():
            e = _require_int(exponent.b, "exponent", op.pos)
            if isinstance(base, _Linear) and base.is_const():
                if base.b == 0 and e < 0:
                    raise TermSemanticError("zero to a negative power", op.pos)
                return _Linear(Fraction(0), _const_power(base.b, e, op.pos))
            if e == 0:
                return _Linear(Fraction(0), Fraction(1))
            prod = _as_product(base)
            if prod.const == 0:
                if e < 0:
                    raise TermSemanticError("zero to a negative power", op.pos)
                return _Linear(Fraction(0), Fraction(0))
            return _Product(
                _const_power(prod.const, e, op.pos),
                tuple(self._raise_factor(f, e, op.pos) for f in prod.factors),
            )
        # variable exponent: base must be a nonzero rational constant
        if not (isinstance(base, _Linear) and base.is_const()):
            raise TermSemanticError(
                "a power with the variable in the exponent needs a constant base",
                op.pos,
            )
        if base.b == 0:
            raise TermSemanticError("zero base with variable exponent", op.pos)
        a = _require_int(exponent.a, "exponent coefficient", op.pos)
        b = _require_int(exponent.b, "exponent offset", op.pos)
        return _Product(Fraction(1), (GeometricFactor(base.b, a, b),))

    def _factorial(self, arg: _Value, pos: int) -> _Value:
        if not isinstance(arg, _Linear):
            raise TermSemanticError("factorial argument must be linear", pos)
        if arg.is_const():
            n = _require_int(arg.b, "constant factorial argument", pos)
            if n < 0:
                raise TermSemanticError("factorial of a negative integer", pos)
            _refuse_bits(_lgamma_bits(n), "factorial", pos)
            return _Linear(Fraction(0), Fraction(math.factorial(n)))
        a = _require_int(arg.a, "factorial argument coefficient", pos)
        return _Product(Fraction(1), (FactorialFactor(a, arg.b, 1),))

    def _binomial(self, first: _Value, second: _Value, pos: int) -> _Value:
        if not isinstance(first, _Linear) or not isinstance(second, _Linear):
            raise TermSemanticError("binomial arguments must be linear", pos)
        if first.is_const() and second.is_const():
            return _Linear(Fraction(0), _const_binomial(first.b, second.b, pos))
        a1 = _require_int(first.a, "binomial argument coefficient", pos)
        a2 = _require_int(second.a, "binomial argument coefficient", pos)
        return _Product(
            Fraction(1), (BinomialFactor(a1, first.b, a2, second.b, 1),)
        )


def parse_term(src: str, var: str) -> HypTerm:
    """Parse a hypergeometric-term expression in the given variable.

    Raises TermSyntaxError (with a 1-based column and expected-token set) on
    grammar violations, and TermSemanticError when the expression is not a
    product of hypergeometric factors (for instance a nonlinear factorial
    argument), also when var is not one identifier or is a function name.
    """
    if not _IDENT_RE.fullmatch(var):
        raise TermSemanticError(f"the variable {var!r} is not an identifier", None)
    if var in ("fact", "binom"):
        raise TermSemanticError(f"the variable {var!r} is a function name", None)
    value = _Parser(src, var).parse()
    prod = _as_product(value)
    return HypTerm(var, prod.const, prod.factors)


# ---------------------------------------------------------------------------
# evaluation and shift quotient
# ---------------------------------------------------------------------------


def term_value(term: HypTerm, l: int) -> Fraction:
    """Evaluate the term at an integer point, with the combinatorial
    convention binom(u, v) = 0 outside 0 <= v <= u: the one Fraction of the
    integers _term_parts multiplies out."""
    return Fraction(*_term_parts(term, l))


def _term_parts(term: HypTerm, l: int) -> tuple[int, int]:
    """(num, den), den nonzero, with num / den the term's value at the integer
    l: each factor's value p/q is multiplied into them, unreduced.  Raises
    ZeroDivisionError at a pole, and ValueError where a factorial argument is
    negative or not an integer or a binomial argument is not an integer."""
    num, den = term.const.numerator, term.const.denominator
    for f in term.factors:
        if isinstance(f, LinearFactor):
            # a l + b = (a.num b.den l + b.num a.den) / (a.den b.den)
            p = f.a.numerator * f.b.denominator * l + f.b.numerator * f.a.denominator
            q, e = f.a.denominator * f.b.denominator, f.exponent
        elif isinstance(f, FactorialFactor):
            # a l is an integer, so a l + b is one when b is
            arg = f.a * l + f.b.numerator
            if f.b.denominator != 1 or arg < 0:
                raise ValueError(f"factorial argument {f.a * l + f.b} at {term.var} = {l}")
            p, q, e = math.factorial(arg), 1, f.exponent
        elif isinstance(f, BinomialFactor):
            if f.b1.denominator != 1 or f.b2.denominator != 1:
                raise ValueError(f"non-integer binomial arguments at {term.var} = {l}")
            p = binomial(f.a1 * l + f.b1.numerator, f.a2 * l + f.b2.numerator)
            q, e = 1, f.exponent
        else:
            p, q, e = f.base.numerator, f.base.denominator, f.a * l + f.b
        if e >= 0:
            num *= p**e
            den *= q**e
        elif p:
            num *= q**-e
            den *= p**-e
        else:  # p is 0 only for a linear or a binomial factor
            if isinstance(f, LinearFactor):
                shown = f"({Poly([f.b, f.a], term.var)})"
            else:
                shown = f"binom({Poly([f.b1, f.a1], term.var)}, {Poly([f.b2, f.a2], term.var)})"
            raise ZeroDivisionError(f"pole of {shown}^{f.exponent} at {term.var} = {l}")
    return num, den


class ShiftQuotient(RationalFunction):
    """A shift quotient scale * prod (l - root)^exponent with distinct roots
    and nonzero exponents; as a rational function it is num / den, reduced,
    with the positive exponents in num and scale = num.leading."""

    __slots__ = ("roots",)

    roots: tuple[tuple[Fraction, int], ...]

    def __init__(self, scale: Fraction, roots: Counter, var: str):
        _set_field(self, "num", _from_roots(+roots, var) * scale)
        _set_field(self, "den", _from_roots(-roots, var))
        _set_field(self, "roots", tuple(sorted((r, e) for r, e in roots.items() if e)))

    def __repr__(self) -> str:
        return f"ShiftQuotient({self}, roots={self.roots!r})"


def _from_roots(roots: dict[Fraction, int], var: str) -> Poly:
    """The monic polynomial prod (l - p/q)^multiplicity: one list of integer
    numerators, multiplied in place by q l - p per factor, over the common
    denominator prod q^multiplicity, and normalised once."""
    nums, den = [1], 1
    for r, m in roots.items():
        p, q = r.numerator, r.denominator
        for _ in range(m):
            prev = 0  # nums[i - 1] before this factor
            for i, x in enumerate(nums):
                nums[i] = q * prev - p * x
                prev = x
            nums.append(q * prev)
        den *= q**m
    return _make(nums, den, var)


def _factorial_roots(roots: Counter, a: int, b: Fraction, e: int) -> Fraction:
    """Enter (fact(a(l+1) + b) / fact(a l + b))^e into roots; returns the
    constant a^(a e) left over from making its linear factors monic."""
    if a > 0:  # the factors a l + b + i, i = 1..a, in the numerator
        for i in range(1, a + 1):
            roots[-(b + i) / a] += e
    else:  # the factors a l + b - i, i = 0..-a-1, in the denominator
        for i in range(-a):
            roots[(i - b) / a] -= e
    return Fraction(a) ** (a * e)


def _root_count(f: Factor) -> int:
    """How many linear factors, with multiplicity, f enters into the shift
    quotient before they cancel."""
    if isinstance(f, LinearFactor):
        return 2 * abs(f.exponent)
    if isinstance(f, FactorialFactor):
        return abs(f.a * f.exponent)
    if isinstance(f, BinomialFactor):
        return abs(f.exponent) * (abs(f.a1) + abs(f.a2) + abs(f.a1 - f.a2))
    return 0


def _geometric_bits(f: Factor) -> int:
    """A bound on the bits of the constant base^a that f enters into the
    shift quotient when f is a geometric factor, else 0."""
    if not isinstance(f, GeometricFactor):
        return 0
    return abs(f.a) * _bits(f.base)


def term_ratio(term: HypTerm) -> ShiftQuotient:
    """The shift quotient b_{l+1} / b_l, reduced and factored into roots.
    Raises GosperLimitError when it has more than 5 * GOSPER_WORK_LIMIT
    linear factors, or geometric constants of more than _CONSTANT_BITS bits."""
    if term.is_zero():
        raise ValueError("the zero term has no shift quotient")
    size, limit = sum(map(_root_count, term.factors)), 5 * GOSPER_WORK_LIMIT
    if size > limit:
        raise GosperLimitError(
            f"Gosper work limit: {size} linear factors in the shift quotient > {limit}"
        )
    bits = sum(map(_geometric_bits, term.factors))
    if bits > _CONSTANT_BITS:
        raise GosperLimitError(
            f"Gosper work limit: {bits} bits of geometric constants > {_CONSTANT_BITS}"
        )
    scale = Fraction(1)
    roots: Counter = Counter()
    for f in term.factors:
        if isinstance(f, LinearFactor):
            # (a l + a + b) / (a l + b) = (l + b/a + 1) / (l + b/a)
            r = -f.b / f.a
            roots[r - 1] += f.exponent
            roots[r] -= f.exponent
        elif isinstance(f, FactorialFactor):
            scale *= _factorial_roots(roots, f.a, f.b, f.exponent)
        elif isinstance(f, BinomialFactor):
            e = f.exponent
            scale *= _factorial_roots(roots, f.a1, f.b1, e)
            scale *= _factorial_roots(roots, f.a2, f.b2, -e)
            scale *= _factorial_roots(roots, f.a1 - f.a2, f.b1 - f.b2, -e)
        else:
            scale *= f.base**f.a
    return ShiftQuotient(scale, roots, term.var)


# ---------------------------------------------------------------------------
# Gosper's algorithm
# ---------------------------------------------------------------------------


class GosperCertificate(Record):
    """Antidifference certificate: s_l = multiplier(l) * b_l satisfies
    s_l - s_{l-1} = b_l whenever b has the stated shift quotient."""

    __slots__ = ("ratio", "multiplier")

    ratio: RationalFunction
    multiplier: RationalFunction

    def verify_symbolic(self) -> bool:
        """Check R(l) - R(l-1)/r(l-1) = 1 as an integer polynomial identity,
        at one integer point past a bound on its coefficients.

        With R = n/d, r = a/b and a subscript 1 for the shift l -> l-1, the
        identity times d d1 a1 is n a1 d1 - n1 b1 d = d d1 a1, that is
        (n - d) a1 d1 = n1 b1 d; the two are equivalent because d, d1 and a1
        are nonzero (r is).  With the integer rows n = N/dn, d = D/dd,
        a = A/da, b = B/db and E = dd N - dn D the row of n - d, it is P = 0
        for the integer polynomial
            P = db E A1 D1 - da dd N1 B1 D.
        With |p|_1 = sum |p_i| and |p|(2) = sum |p_i| 2^i >= |p1|_1, every
        coefficient of P is at most
            H = db |E|_1 |A|(2) |D|(2) + da dd |N|(2) |B|(2) |D|_1
        in size.  Lemma: a nonzero integer polynomial P with coefficients of
        size at most H has |P(x)| >= 1 at every integer x >= H + 1, because
        its top term c x^k has size at least x^k and the others sum to at
        most H (x^k - 1)/(x - 1) <= x^k - 1.  So P = 0 exactly when
        P(2^B) = 0 for 2^B > H, and the two sides are compared there as
        products of integers: exact._pack gives the values at 2^B and
        exact._pack_shifted those of the shifted rows."""
        n, d = self.multiplier.num, self.multiplier.den
        a, b = self.ratio.num, self.ratio.den
        N, D, A, B = n._num, d._num, a._num, b._num
        E = [d._den * x - n._den * y for x, y in zip_longest(N, D, fillvalue=0)]
        left, right = b._den, a._den * d._den
        height = (left * sum(map(abs, E)) * _shift_norm(A) * _shift_norm(D)
                  + right * _shift_norm(N) * _shift_norm(B) * sum(map(abs, D)))
        bits = height.bit_length()
        return (left * _pack(E, bits) * _pack_shifted(A, bits) * _pack_shifted(D, bits)
                == right * _pack_shifted(N, bits) * _pack_shifted(B, bits) * _pack(D, bits))


def _shift_norm(row: Sequence[int]) -> int:
    """sum_i |row[i]| 2^i, a bound on the 1-norm of p(l - 1) for the
    polynomial p with coefficients row, since that of (l - 1)^i is 2^i."""
    return sum(abs(x) << i for i, x in enumerate(row))


def _degree_bound(a: Poly, b_shifted: Poly, c: Poly) -> Optional[int]:
    """Classical degree bound for the unknown polynomial in
    a(l) x(l+1) - b(l-1) x(l) = c(l); None when no nonnegative bound exists.

    With s = max(deg a, deg b(l-1)) it is deg c - s, unless a and b(l-1)
    have equal degrees and leading coefficients; then it is the larger of
    deg c - s + 1 and j0 = (b(l-1)_(s-1) - a_(s-1)) / lc(a) when j0 is an
    integer.  A coefficient below degree 0 is 0, so balanced constants
    have j0 = 0."""
    s = max(a.degree, b_shifted.degree)
    bound = c.degree - s
    if a.degree == b_shifted.degree and a.leading == b_shifted.leading:
        j0 = (b_shifted.coeff(s - 1) - a.coeff(s - 1)) / a.leading
        bound += 1
        if j0.denominator == 1:
            bound = max(bound, int(j0))
    return bound if bound >= 0 else None


def _solve_gosper_equation(a: Poly, b_shifted: Poly, c: Poly, bound: int) -> Optional[Poly]:
    """The x of degree <= bound with a(l) x(l+1) - b(l-1) x(l) = c(l), or
    None when there is none; where x is not unique, the one with x_j0 = 0.

    L(l^j) = a (l+1)^j - b(l-1) l^j has degree j + s, s = max(deg a, deg b),
    or j + s - 1 when a and b(l-1) have equal degrees and leading
    coefficients; then its top coefficient lc(a) (j - j0) vanishes for at
    most one j0, whose unknown is kept as a parameter t.  Solving top-down
    from each column's top row leaves x = u + t v and the residual
    c - L(u) - t L(v), which fixes t, or leaves it free, or has no zero.

    Everything runs on integers: the rows of a, b(l-1) and c are scaled to
    their common denominator, u and v are carried as integer numerators
    U / du and V / dv, each step is one exact._eliminate, and each residual
    is kept times the same denominator; dv cancels from the answer and is
    not kept."""
    var = a.var
    top = max(a.degree, b_shifted.degree)
    if a.degree == b_shifted.degree and a.leading == b_shifted.leading:
        top -= 1
    den = math.lcm(a._den, b_shifted._den, c._den)
    A, B, C = ([x * (den // p._den) for x in p._num] for p in (a, b_shifted, c))
    # A (l+1)^j for j = 0..bound, each from the one before
    raised = [A]
    for _ in range(bound):
        prev = raised[-1]
        raised.append([x + y for x, y in zip(prev + [0], [0] + prev)])
    height = max(len(C), len(raised[-1]), bound + len(B))
    U, V = [0] * (bound + 1), [0] * (bound + 1)
    du = 1
    rem_u, rem_v = C + [0] * (height - len(C)), [0] * height
    for j in range(bound, -1, -1):
        column = raised[j] + [0] * (j + len(B) - len(raised[j]))
        for i, y in enumerate(B, j):
            column[i] -= y
        row = column[: j + top + 1]
        if row and row[-1]:
            du *= _eliminate(rem_u, U, j, row, 0)
            _eliminate(rem_v, V, j, row, 0)
        else:  # j = j0, reached with v = 0: x_j0 = t, so v = l^j0 so far
            V[j] = 1
            rem_v[: len(row)] = [-y for y in row]
    # x = U/du + t V/dv with the residual rem_u/du + t rem_v/dv
    if not any(rem_v):
        return None if any(rem_u) else _make(U, du, var)
    k = max(i for i, r in enumerate(rem_v) if r)
    p, q = rem_u[k], rem_v[k]  # t = -(p/du) / (q/dv)
    if any(r * q != p * s for r, s in zip(rem_u, rem_v)):
        return None
    return _make([q * x - p * y for x, y in zip(U, V)], du * q, var)


def _root_classes(
    roots: Sequence[tuple[Fraction, int]], sign: int
) -> dict[tuple[int, int], Counter]:
    """The roots p/q whose exponent has the given sign, with sign * exponent
    as multiplicity, keyed by the class (q, p mod q) and then by the integer
    p // q: two roots differ by an integer exactly when they share a class,
    and then by the difference of their integer parts."""
    classes: dict[tuple[int, int], Counter] = {}
    for r, e in roots:
        if e * sign > 0:
            p, q = r.numerator, r.denominator
            classes.setdefault((q, p % q), Counter())[p // q] = e * sign
    return classes


def _dispersion(roots: Sequence[tuple[Fraction, int]]) -> tuple[Counter, Counter, Counter]:
    """Gosper's dispersion step on the roots of a shift quotient (positive
    exponents the roots of a, negative those of b): for each integer h >= 0
    in increasing order and each root r of a with r + h a root of b, their
    common multiplicity m moves r out of a, r + h out of b and r + 1 .. r + h
    into c.  Returns the moved roots of a and of b and the roots of c.  The
    roots are compared as integers within their class, so no Fraction is
    hashed until one moves.  Raises GosperLimitError when deg c exceeds
    GOSPER_WORK_LIMIT."""
    b_classes = _root_classes(roots, -1)
    moved_a: Counter = Counter()
    moved_b: Counter = Counter()
    c_roots: Counter = Counter()
    deg_c = 0
    for (q, res), a_ints in _root_classes(roots, 1).items():
        b_ints = b_classes.get((q, res))
        if b_ints is None:
            continue
        for h in sorted({s - r for r in a_ints for s in b_ints if s >= r}):
            for r in a_ints:
                m = min(a_ints[r], b_ints[r + h])
                if m == 0:
                    continue
                deg_c += h * m
                if deg_c > GOSPER_WORK_LIMIT:
                    raise GosperLimitError(f"Gosper work limit: deg c > {GOSPER_WORK_LIMIT}")
                a_ints[r] -= m
                b_ints[r + h] -= m
                moved_a[Fraction(r * q + res, q)] += m
                moved_b[Fraction((r + h) * q + res, q)] += m
                for i in range(1, h + 1):
                    c_roots[Fraction((r + i) * q + res, q)] += m
    return moved_a, moved_b, c_roots


def gosper(ratio: ShiftQuotient) -> Optional[GosperCertificate]:
    """Decide hypergeometric antidifference existence for a term with the
    given shift quotient, as returned by term_ratio; returns the
    certificate, or None when the term is not Gosper-summable.

    The quotient is factored as r(l) = (a(l)/b(l)) (c(l+1)/c(l)) with
    gcd(a(l), b(l+h)) = 1 for every integer h >= 0, the polynomial equation
    a(l) x(l+1) - b(l-1) x(l) = c(l) is solved with the classical degree
    bound, and the multiplier is R(l) = a(l) x(l+1) / c(l).  The dispersion
    set is read off the roots of r: h = s - r for a root r of a and a root
    s of b.  Raises GosperLimitError when deg c or the degree bound exceeds
    GOSPER_WORK_LIMIT.
    """
    if ratio.is_zero():
        raise ValueError("shift quotient must be nonzero")
    if not isinstance(ratio, ShiftQuotient):
        raise TypeError("gosper needs the factored quotient returned by term_ratio")
    var = ratio.var
    moved_a, moved_b, c_roots = _dispersion(ratio.roots)
    a, b = ratio.num, ratio.den
    if c_roots:  # divide the moved factors out of the quotient's expansion
        a = a.exact_div(_from_roots(moved_a, var))
        b = b.exact_div(_from_roots(moved_b, var))
    b_shifted = b.shift(-1)
    c = _from_roots(c_roots, var)
    bound = _degree_bound(a, b_shifted, c)
    if bound is None:
        return None
    if bound > GOSPER_WORK_LIMIT:
        raise GosperLimitError(f"Gosper work limit: degree bound {bound} > {GOSPER_WORK_LIMIT}")
    x = _solve_gosper_equation(a, b_shifted, c, bound)
    if x is None:
        return None
    return GosperCertificate(ratio, RationalFunction(a * x.shift(1), c))


def telescoped_sum(
    term: HypTerm, certificate: Optional[GosperCertificate], lo: int, hi: int
) -> Fraction:
    """sum_{l=lo..hi} b_l, telescoped by the certificate as s_hi - s_m,
    s_l = R(l) b_l, from the first m >= lo - 1 where s_m is defined (past a
    pole of R or an undefined term), with b_lo .. b_m summed one by one;
    every term is summed one by one when certificate is None, when there is
    no such m or when s_hi is undefined.  Raises ValueError for an empty
    range or for more than GOSPER_TERMS_LIMIT terms one by one, and
    ValueError or ZeroDivisionError, as the sum term by term would, when a
    term of the range is undefined.

    A telescoped sum never computes most of its terms, so with a
    certificate the term is first evaluated at the points that
    _undefined_candidates names, in increasing order, and the error of the
    first undefined one is raised."""
    if hi < lo:
        raise ValueError("empty summation range")
    if certificate:
        for l in _undefined_candidates(term, lo, hi):
            _term_parts(term, l)
    low = certificate and _antidifference(term, certificate, range(lo - 1, hi + 1))
    high = low and _antidifference(term, certificate, [hi])
    singles = range(lo, hi + 1 if high is None else low[0] + 1)
    if len(singles) > GOSPER_TERMS_LIMIT:
        raise ValueError(
            f"the sum needs {len(singles)} terms one by one, over the limit of {GOSPER_TERMS_LIMIT}"
        )
    total = sum((term_value(term, l) for l in singles), Fraction(0))
    return total if high is None else total + high[1] - low[1]


def _undefined_candidates(term: HypTerm, lo: int, hi: int) -> list[int]:
    """The points of [lo, hi], in increasing order, among which the first
    l where the term is undefined lies, if there is one: none when no
    factor can be undefined, else lo and floor(rho), floor(rho) + 1 for
    each root rho of a linear argument of such a factor.

    Those factors are a factorial, undefined where its argument is negative
    or not an integer; a linear factor under a negative exponent, where it
    is 0; and a binomial binom(u, v) = u! / (v! (u - v)!) under a negative
    exponent, where v < 0 or 0 <= u < v, or with a fractional offset,
    everywhere.  Each of these sets is a union of integer intervals whose
    left ends are -infinity, an integer root, or ceil(rho) or
    floor(rho) + 1 for a root rho of u, v, u - v or the argument.  So the
    first undefined l of [lo, hi] is lo or the left end of one interval."""
    roots = []
    for f in term.factors:
        if isinstance(f, FactorialFactor) or (isinstance(f, LinearFactor) and f.exponent < 0):
            roots.append(-f.b / f.a)
        elif isinstance(f, BinomialFactor) and (
            f.exponent < 0 or f.b1.denominator != 1 or f.b2.denominator != 1
        ):
            args = ((f.a1, f.b1), (f.a2, f.b2), (f.a1 - f.a2, f.b1 - f.b2))
            roots.extend(-b / a for a, b in args if a)
    if not roots:
        return []
    points = {lo}.union(*((math.floor(r), math.floor(r) + 1) for r in roots))
    return sorted(p for p in points if lo <= p <= hi)


def _antidifference(
    term: HypTerm, certificate: GosperCertificate, ls: Sequence[int]
) -> Optional[tuple[int, Fraction]]:
    """The first l of ls, among at most GOSPER_TERMS_LIMIT + 1, where
    s_l = R(l) b_l is defined, with s_l; None when there is none."""
    for l in ls[:GOSPER_TERMS_LIMIT + 1]:
        try:
            return l, certificate.multiplier(l) * term_value(term, l)
        except (ValueError, ZeroDivisionError):  # a pole of R or an undefined term
            pass
    return None


def certificate_witness(
    term: HypTerm, certificate: Optional[GosperCertificate], lo: int, hi: int
) -> str | None:
    """None when the certificate telescopes the term on [lo, hi], else why
    not: "not summable" when certificate is None; the first l in [lo-1, hi]
    where R(l) has a pole or the term is undefined; else the first l where
    s_l - s_(l-1) != b_l (s_l = R(l) b_l) with both exact values; else the
    symbolic identity R(l) - R(l-1)/r(l-1) = 1.

    Each step runs on integers.  R(l) = u/w for the integer Horner values
    u = dd N(l) and w = dn D(l) of R = (N/dn)/(D/dd), the term b_l = p/q
    is multiplied out unreduced, and s_l is kept as the pair (u p, w q).
    Since s_l - b_l = (u - w) p/(w q), the step holds exactly when
    s_(l-1) w q = (u - w) p cross-multiplied; Fractions are built only for
    the witness of a failing step."""
    if certificate is None:
        return "not summable"
    v, witness, prev = term.var, None, None
    n, d = certificate.multiplier.num, certificate.multiplier.den
    for l in range(lo - 1, hi + 1):
        w = n._den * _horner(d._num, l, 1)[0]
        if not w:
            return f"pole of R({v}) at {v}={l}"
        try:
            p, q = _term_parts(term, l)
        except (ValueError, ZeroDivisionError):
            return f"term undefined at {v}={l}"
        u = d._den * _horner(n._num, l, 1)[0]
        if prev is not None and witness is None and prev[0] * w * q != (u - w) * p * prev[1]:
            step = Fraction(u * p, w * q) - Fraction(*prev)
            witness = f"{v}={l}: {step} != {Fraction(p, q)}"
        prev = u * p, w * q
    if witness is None and not certificate.verify_symbolic():
        return f"R({v}) - R({v}-1)/r({v}-1) != 1"
    return witness


def verify_certificate(
    term: HypTerm, certificate: Optional[GosperCertificate], lo: int, hi: int
) -> bool:
    """True when certificate_witness finds no failure."""
    return certificate_witness(term, certificate, lo, hi) is None


def weighted_binomial_sum(n: int, j: int) -> Fraction:
    """Direct evaluation of sum_{l=j..n} (n+1-l) C(l+j-1, l-j); the closed
    form (j+n)(n+1+j) / (2j(2j+1)) C(n+j-1, n-j) is verified in the tests."""
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got (n, j) = ({n}, {j})")
    return Fraction(
        sum((n + 1 - l) * binomial(l + j - 1, l - j) for l in range(j, n + 1))
    )


# ---------------------------------------------------------------------------
# terminating hypergeometric series
# ---------------------------------------------------------------------------


def pfq_terminating(
    upper: Sequence[Scalar], lower: Sequence[Scalar], arg: Union[Poly, Scalar]
):
    """Exact finite evaluation of pFq(upper; lower; arg).

    Some upper parameter must be a nonpositive integer -m, which cuts the
    series at j = m; a lower parameter that is a nonpositive integer > -m
    would hit a pole first and is rejected.  The argument may be a rational,
    giving a rational, or a polynomial of degree at most 1, giving a
    polynomial in its variable; a polynomial of higher degree raises
    ValueError.  Parameters and argument must be exact: a float raises
    TypeError.
    """
    ups = [_ratio(u) for u in upper]
    lows = [_ratio(b) for b in lower]
    stops = [-p for p, q in ups if q == 1 and p <= 0]
    if not stops:
        raise ValueError("series does not terminate: no nonpositive integer "
                         "upper parameter")
    m = min(stops)
    for p, q in lows:
        if q == 1 and 0 >= p > -m:
            raise ValueError(f"lower parameter {p} hits a pole before termination")
    # the term ratio prod(u+j) / ((j+1) prod(b+j)) as integers p_j / q_j: a
    # parameter p/q gives (p + jq)/q, entry j of range(p, p + mq, q), so p_j
    # and q_j are column-wise products of such rows, each scaled by the other
    # side's denominators; coefficient j is p_0..p_(j-1) q_j..q_(m-1) over
    # q_0..q_(m-1)
    ps = [math.prod(q for _, q in lows)] * m
    for p, q in ups:
        ps = list(map(mul, ps, range(p, p + m * q, q)))
    u_den = math.prod(q for _, q in ups)
    qs = range(u_den, (m + 1) * u_den, u_den)
    for p, q in lows:
        qs = list(map(mul, qs, range(p, p + m * q, q)))
    prefix = accumulate(ps, mul, initial=1)
    suffix = list(accumulate(reversed(qs), mul, initial=1))
    nums = list(map(mul, prefix, reversed(suffix)))
    series = _make(nums, suffix[-1], "t")
    if not isinstance(arg, Poly):
        return series(arg)
    if arg.degree > 1:
        raise ValueError(f"the argument {arg} is not linear")
    return series.subs_linear(arg.coeff(1), arg.coeff(0), arg.var)
