"""Exact arithmetic kernel: rationals, dense univariate polynomials over Q,
exact sign tests of polynomials on a fixed grid of points, reduced rational
functions, and combinatorial primitives.

Every scalar in this package is an arbitrary-precision ``fractions.Fraction``;
floats never enter the core.  A polynomial is stored as a dense tuple of
integer numerators over one positive denominator, kept canonical, so that
its arithmetic runs on Python integers and normalises once per result; its
coefficients are still read as ``Fraction``.  Polynomials are immutable and
tagged with a variable name, so that quantities living in different
variables (``y``, ``x``, a summation variable) cannot be mixed by accident.
Calling a polynomial evaluates it at an exact scalar; the only substitutions
are the linear ones, ``shift`` and ``subs_linear``.

Division is fraction-free.  ``_eliminate`` is the one elimination step: a
row cancels the top entry of an integer remainder, after both are scaled by
lead/gcd(t, lead) for that entry t and the row's top lead.  The
pseudo-division behind ``divmod`` and the trial division of ``gcd`` takes
one step per quotient coefficient, and ``hypsum`` solves Gosper's equation
with it.

A product of two polynomials is the schoolbook convolution of their integer
numerators, ``_convolve_into``.  ``_pack`` and ``_unpack`` are the two halves
of a Kronecker substitution, which writes integer numerators as the digits of
one integer at base 2^B and reads them back.  The square of the Koebe chain
in :mod:`debranges.series` and the chain powers of :mod:`debranges.dbw` use
them at the chain's one base, so that their products are CPython's
big-integer multiply.  ``EvalGrid`` packs its columns with ``_pack``, so
that the values of a polynomial at all its points are one dot product, and
reads those of a polynomial with a negative value back with ``_unpack``.
``hypsum.GosperCertificate.verify_symbolic`` packs the rows of a polynomial
identity with ``_pack`` and, for the shift l -> l - 1, with
``_pack_shifted``, and compares its two sides as products of integers,
which it never unpacks.  ``Poly.gcd`` is the heuristic gcd: it packs two
rows at one base past a bound on their roots, takes one integer
``math.gcd``, and reads it back with ``_unpack``: a constant proves the
rows coprime, and any other read-back is the gcd once trial division
proves it (the lemmas are in its docstring).  Each base is fixed from a
bound on its digits, and the packing and unpacking helpers take its width
B in bits.

``Record`` is the base of the package's immutable records and values: their
fields are slots, set once by one positional constructor, and a record
compares, hashes, prints, pickles and copies by its fields.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the extended integer-n convention.

    For n >= 0 this is the ordinary C(n, k), zero outside 0 <= k <= n.
    For n < 0 and k >= 0 it is the upper-negation value
    C(n, k) = (-1)^k C(k-n-1, k); k < 0 always gives zero.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


def pochhammer(a: Scalar, j: int) -> Fraction:
    """Shifted factorial (a)_j = a (a+1) ... (a+j-1), with (a)_0 = 1; a
    must be an exact scalar (a float raises TypeError)."""
    if j < 0:
        raise ValueError("pochhammer needs a nonnegative index")
    p, q = _ratio(a)
    return Fraction(math.prod(p + i * q for i in range(j)), q**j)


def format_rational(q: Scalar) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def first_mismatch(cases: Iterable[tuple[str, object, object]]) -> str | None:
    """The witness "where: got != want" of the first (where, got, want) case
    whose values differ, or None; str writes a Fraction as format_rational
    does.  A generator of cases is read only up to the first failure."""
    for where, got, want in cases:
        if got != want:
            return f"{where}: {got} != {want}"
    return None


def _ratio(value: Scalar) -> tuple[int, int]:
    """Numerator and positive denominator of an exact scalar."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def _numerators(coeffs: Iterable[Scalar]) -> tuple[list[int], int]:
    """Integer numerators over one common denominator."""
    cs = list(coeffs)
    if all(type(c) is int for c in cs):
        return cs, 1
    pairs = [_ratio(c) for c in cs]
    den = math.lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def _canonical(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Canonical storage of the coefficients nums[i] / den (den nonzero):
    no trailing zero numerator, den positive and coprime to the content."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (), 1
    if den != 1:
        if den < 0:
            den, nums = -den, [-n for n in nums]
        g = math.gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
    return tuple(nums), den


# sets a field of a Record in its __init__, past the refusal of __setattr__
_set_field = object.__setattr__


def _rebuild(cls: type, values: tuple) -> "Record":
    """The instance of cls with the given field values, without __init__:
    how pickle and copy rebuild a Record."""
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        _set_field(obj, name, value)
    return obj


class Record:
    """Base of the immutable records.

    A record's fields are its ``__slots__``, after those of its bases, and
    ``Record(*values)`` sets one value per field, in that order; any other
    number of values raises TypeError.  A subclass writes its own
    ``__init__`` only to validate its input, and sets its fields there
    through ``_set_field``.  Setting or deleting a field afterwards raises
    AttributeError.  Two records are equal when they have the same type and
    equal fields, the hash is that of the tuple of fields, and the repr is
    ``Name(field=value, ...)``.  Pickle and copy rebuild a
    record from its fields without calling ``__init__``.
    A value type that overrides ``__eq__``, ``__hash__`` and ``__repr__``
    keeps only the refusals and the rebuilding.
    """

    __slots__ = ()

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name for c in reversed(cls.__mro__) for name in vars(c).get("__slots__", ())
        )

    def __init__(self, *values) -> None:
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__name__}({', '.join(fields)}) takes {len(fields)} "
                f"values, got {len(values)}"
            )
        for name, value in zip(fields, values):
            _set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return _rebuild, (type(self), self._values())


def _raw(num: tuple[int, ...], den: int, var: str) -> "Poly":
    """A Poly from storage that is already canonical."""
    p = object.__new__(Poly)
    _set_num(p, num)
    _set_den(p, den)
    _set_var(p, var)
    return p


def _make(nums: list[int], den: int, var: str) -> "Poly":
    """The Poly with coefficients nums[i] / den, normalised once."""
    return _raw(*_canonical(nums, den), var)


def _convolve_into(out: list[int], a: Sequence[int], b: Sequence[int]) -> None:
    """out[i+j] += a[i] * b[j] for every i, j."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y


def _horner(num: Sequence[int], p: int, q: int) -> tuple[int, int]:
    """(acc, q^(d+1)) for acc = sum_i num[i] p^i q^(d-i), d = len(num) - 1:
    Horner on integers, with the numerators weighted by powers of q, so
    that sum_i num[i] (p/q)^i = acc q / q^(d+1)."""
    acc, q_power = 0, 1
    for n in reversed(num):
        acc = acc * p + n * q_power
        q_power *= q
    return acc, q_power


def _eliminate(rem: list[int], quot: list[int], i: int, row: Sequence[int], start: int) -> int:
    """One fraction-free step, in place: quot[i] is set so that row, placed at
    rem[start], cancels the entry t of rem above row's top, after rem and quot
    are scaled by lead / gcd(t, lead) > 0 for that top lead.  Returns the
    scale; 1 when t is already 0."""
    top = start + len(row) - 1
    t = rem[top]
    if not t:
        return 1
    lead = row[-1]
    g = math.gcd(t, lead) if lead > 0 else -math.gcd(t, lead)
    f, m = lead // g, t // g
    if f != 1:
        rem[:] = [f * x for x in rem]
        quot[:] = [f * x for x in quot]
    quot[i] = m
    for k, y in enumerate(row, start):
        rem[k] -= m * y
    return f


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """Integer division s*a = q*b + r with s > 0 and deg r < deg b, one
    _eliminate step per quotient coefficient: s is the product of their
    scales, so a divisor with leading coefficient +-1 never scales at all."""
    rem = list(a)
    quot = [0] * max(len(rem) - len(b) + 1, 0)
    s = 1
    for k in range(len(quot) - 1, -1, -1):
        s *= _eliminate(rem, quot, k, b, k)
    return s, quot, rem[: len(b) - 1]


def _pack(digits: Sequence[int], bits: int) -> int:
    """sum_i digits[i] * 2^(bits * i), for digits of any sign."""
    acc = 0
    for x in reversed(digits):
        acc = (acc << bits) + x
    return acc


def _pack_shifted(digits: Sequence[int], bits: int) -> int:
    """sum_i digits[i] * (2^bits - 1)^i, the value at 2^B of the polynomial
    p(l - 1) when _pack(digits, B) is that of p(l): Horner at 2^B - 1, each
    step one shift and one subtraction, with no big-integer multiply."""
    acc = 0
    for x in reversed(digits):
        acc = (acc << bits) - acc + x
    return acc


@lru_cache(maxsize=None)
def _offset(bits: int, top: int) -> int:
    """The repunit 2^(B-1) (2^top - 1)/(2^B - 1), B = bits: 2^(B-1) a word."""
    return (((1 << top) - 1) // ((1 << bits) - 1)) << (bits - 1)


def _unpack(s: int, bits: int) -> list[int]:
    """The digits of s = _pack(digits, B) at B = bits, for digits of size
    under 2^(B-1) whose last one is nonzero, and the signed digits in
    [-2^(B-1), 2^(B-1)) of any s > 0; [] for s = 0.

    A sum with L such digits has a bit length from B(L-1) to BL-1, and one
    offset of 2^(B-1) per digit, ``_offset(B, BL)`` from a memo keyed by width
    and length, turns its digits into words of B bits, each read back by a
    shift and a mask.  A carry past the top word takes one more digit."""
    if not s:
        return []
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    top = bits * (s.bit_length() // bits + 1)
    s += _offset(bits, top)
    if s.bit_length() > top:
        s += half << top
        top += bits
    return [(s >> i & mask) - half for i in range(0, top, bits)]


class Poly(Record):
    """Dense univariate polynomial over Q with a variable tag.

    Stored as a tuple of integer numerators over one positive denominator:
    the coefficient of var**i is ``_num[i] / _den``.  The storage is kept
    canonical, so equality and hashing are structural: there is no trailing
    zero numerator, ``_den`` is coprime to the content of ``_num``, and the
    zero polynomial is ``()`` over 1.  Arithmetic runs on the integers and
    normalises once per result.  ``coeffs``, ``coeff()``, ``leading`` and
    ``const_value()`` are the public interface: they give the coefficients as
    ``Fraction``.  ``_num``, ``_den``, ``_make`` and ``_raw`` are the package's
    integer-row interface: ``series``, ``lowner``, ``dbw``, ``orthopoly`` and
    ``hypsum`` read rows through the first two and build results with the
    others, and a row given to ``_raw`` must already be canonical.  Instances
    are immutable and hashable, so they are safe to share between threads and
    to use as cache keys.
    """

    __slots__ = ("_num", "_den", "var")

    _num: tuple[int, ...]
    _den: int
    var: str

    def __init__(self, coeffs: Iterable[Scalar], var: str):
        num, den = _canonical(*_numerators(coeffs))
        _set_num(self, num)
        _set_den(self, den)
        _set_var(self, var)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var: str) -> "Poly":
        return _raw((), 1, var)

    @classmethod
    def const(cls, value: Scalar, var: str) -> "Poly":
        p, q = _ratio(value)
        return _make([p], q, var)

    @classmethod
    def variable(cls, var: str) -> "Poly":
        return _raw((0, 1), 1, var)

    @classmethod
    def monomial(cls, coeff: Scalar, power: int, var: str) -> "Poly":
        p, q = _ratio(coeff)
        return _make([0] * power + [p], q, var)

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """coeffs[i] is the coefficient of var**i; the last one is nonzero."""
        return tuple(Fraction(n, self._den) for n in self._num)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    @property
    def leading(self) -> Fraction:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def is_zero(self) -> bool:
        return not self._num

    def is_const(self) -> bool:
        return len(self._num) <= 1

    def coeff(self, power: int) -> Fraction:
        """Coefficient of var**power (zero beyond the degree)."""
        if 0 <= power < len(self._num):
            return Fraction(self._num[power], self._den)
        return Fraction(0)

    def const_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self.is_const():
            raise ValueError(f"{self!r} is not constant")
        return self.coeff(0)

    def _check_var(self, other: "Poly") -> None:
        if self.var != other.var:
            raise ValueError(f"mixed variables {self.var!r} and {other.var!r}")

    # -- ring operations ----------------------------------------------

    def _add(self, other: "Poly | Scalar", sign: int) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other, self.var)
        self._check_var(other)
        a, b = self._num, other._num
        den = self._den
        if den != other._den:
            g = math.gcd(den, other._den)
            sa, sb = other._den // g, den // g
            den *= sa
            a = [n * sa for n in a]
            b = [n * sb for n in b]
        if sign < 0:
            b = [-n for n in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, n in enumerate(b):
            out[i] += n
        return _make(out, den, self.var)

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw(tuple(-n for n in self._num), self._den, self.var)

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self._add(other, -1)

    def __rsub__(self, other: Scalar) -> "Poly":
        return (-self) + other

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            p, q = _ratio(other)
            return _make([p * n for n in self._num], q * self._den, self.var)
        self._check_var(other)
        a, b = self._num, other._num
        if not a or not b:
            return Poly.zero(self.var)
        out = [0] * (len(a) + len(b) - 1)
        _convolve_into(out, a, b)
        return _make(out, self._den * other._den, self.var)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.var)
        if isinstance(other, Poly):
            return (
                self._num == other._num
                and self._den == other._den
                and self.var == other.var
            )
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its value, so it hashes as its value
        if self.is_const():
            return hash(self.coeff(0))
        return hash((self.var, self._num, self._den))

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- calculus and substitution --------------------------------------

    def derivative(self) -> "Poly":
        return _make([i * n for i, n in enumerate(self._num) if i], self._den, self.var)

    def __call__(self, value: Scalar) -> Fraction:
        """Evaluate at an exact scalar p/q: Horner on integers, and one
        Fraction at the end."""
        p, q = _ratio(value)
        acc, q_power = _horner(self._num, p, q)
        return Fraction(acc * q, self._den * q_power)

    def shift(self, c: Scalar = 1) -> "Poly":
        """Substitute var -> var + c."""
        p, q = _ratio(c)
        if not p:
            return self
        deg = self.degree
        # den q^deg self(x + p/q) = T(q x) for T(u) = sum_i n_i q^(deg-i) (u + p)^i,
        # and T comes from n_i q^(deg-i) by the integer Taylor shift
        t = [n * q ** (deg - i) for i, n in enumerate(self._num)]
        for i in range(deg):
            for k in range(deg - 1, i - 1, -1):
                t[k] += p * t[k + 1]
        if q != 1:
            t = [n * q**j for j, n in enumerate(t)]
        return _make(t, self._den * q ** max(deg, 0), self.var)

    def subs_linear(self, a: Scalar, b: Scalar, var: str) -> "Poly":
        """Substitute var -> a*new_var + b, returning a polynomial in new_var."""
        shifted = self.shift(b)
        p, q = _ratio(a)
        deg = shifted.degree
        nums = [n * p**j * q ** (deg - j) for j, n in enumerate(shifted._num)]
        return _make(nums, shifted._den * q ** max(deg, 0), var)

    # -- euclidean structure --------------------------------------------

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Polynomial long division: self = q*other + r with deg r < deg other."""
        self._check_var(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(self.var), self
        # s*A = Q*B + R on the numerators, so self = (Q*den_B)/(s*den_A) * other + R/(s*den_A)
        s, quot, rem = _pseudo_divmod(self._num, other._num)
        den = s * self._den
        return (
            _make([n * other._den for n in quot], den, self.var),
            _make(rem, den, self.var),
        )

    def exact_div(self, other: "Poly") -> "Poly":
        """Division known to be exact; raises on a nonzero remainder."""
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"{other!r} does not divide {self!r} exactly")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return _make(list(self._num), self._num[-1], self.var)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor, by the heuristic gcd (GCDHEU: Char,
        Geddes & Gonnet, J. Symb. Comput. 7 (1989)) of the primitive integer
        rows A and B: gamma = gcd(A(xi), B(xi)) at xi = 2^bits, two packs
        and one ``math.gcd``, is read back by ``_unpack`` as C, with
        C(xi) = gamma and coefficients of size at most xi/2.

        Let xi > 2 + 4 min(|A|, |B|), for |.| the largest coefficient size.
        By Cauchy's bound the roots of a primitive common factor H of degree
        >= 1 are below 1 + min(|A|, |B|) in size, so |H(xi)| > xi/2, and by
        Gauss's lemma H(xi) divides gamma, which is not 0, as xi is no root
        of the row of smaller size.  So a constant C, 0 < gamma < xi/2,
        proves the gcd is 1.  And when the primitive part G of C divides A
        and B, G is their gcd D: D = G H, and D(xi) divides
        gamma = cont(C) G(xi), so H(xi) divides cont(C), of size at most
        xi/2, and H is a constant.  When G does not, bits doubles; that
        ends, as gamma / D(xi) divides the resultant of the cofactors.

        gamma also carries the common fixed divisor of A and B, a divisor of
        m! for m = min(deg A, deg B), so bitlen(m!) sizes the first width
        too: bits = max(bitlen min(|A|, |B|) + 3, bitlen(m!) + 32)."""
        self._check_var(other)
        a, b = self._num, other._num
        if not a or not b:
            return _raw(a or b, 1, self.var).monic()
        a, b = (_canonical(list(row), math.gcd(*row))[0] for row in (a, b))
        bits = max(
            min(max(map(abs, a)), max(map(abs, b))).bit_length() + 3,
            math.factorial(min(len(a), len(b)) - 1).bit_length() + 32,
        )
        while True:
            c = _unpack(math.gcd(_pack(a, bits), _pack(b, bits)), bits)
            if len(c) == 1:
                return _raw((1,), 1, self.var)
            g = _canonical(c, math.gcd(*c))[0]
            if not any(_pseudo_divmod(a, g)[2]) and not any(_pseudo_divmod(b, g)[2]):
                return _make(list(g), g[-1], self.var)
            bits *= 2

    def resultant(self, other: "Poly") -> Fraction:
        """Resultant of self and other with respect to the shared variable."""
        self._check_var(other)
        f, g = self, other
        if f.is_zero() or g.is_zero():
            return Fraction(0)
        sign = 1
        acc = Fraction(1)
        while g.degree > 0:
            r = f.divmod(g)[1]
            if r.is_zero():
                return Fraction(0)
            acc *= g.leading ** (f.degree - r.degree)
            if f.degree % 2 == 1 and g.degree % 2 == 1:
                sign = -sign
            f, g = g, r
        # g is now a nonzero constant
        return sign * acc * g.const_value() ** f.degree

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            n = self._num[power]
            if n == 0:
                continue
            sign = "-" if n < 0 else "+"
            mag = Fraction(abs(n), self._den)
            if power == 0:
                body = format_rational(mag)
            elif mag == 1:
                body = self.var if power == 1 else f"{self.var}^{power}"
            elif power == 1:
                body = f"{format_rational(mag)}*{self.var}"
            else:
                body = f"{format_rational(mag)}*{self.var}^{power}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self}, var={self.var!r})"


_set_num = Poly._num.__set__
_set_den = Poly._den.__set__
_set_var = Poly.var.__set__


class EvalGrid:
    """Fixed points p/q (q > 0) at which to test the sign of polynomials of
    degree at most D.

    For every P of degree at most D with numerators n_i over den, the
    integer v = q^D den P(p/q) = sum_i n_i p^i q^(D-i) has the sign of P
    at the point p/q.  Column i holds the entries p^i q^(D-i) of every
    point and is packed, once per word count W, as the digits of one
    integer at base 2^B, B = 64 W, so that the values v at all points are
    the digits of one dot product s of the numerators with the packed
    columns.  W is fixed per call by a digit bound, |v| <= ||n||_1 M for
    the largest entry size M.  One offset of 2^(B-1) per point, the
    repunit, turns s into words whose top bit is clear exactly where v is
    negative, so one mask tells a polynomial with no negative value; the
    values of any other are read back by ``_unpack``, and a Fraction is built
    only where one is negative.
    """

    __slots__ = ("degree", "_columns", "_entry_max", "_scales", "_packed")

    def __init__(self, points: Iterable[Scalar], degree: int):
        if degree < 0:
            raise ValueError("the grid degree must be nonnegative")
        pairs = [_ratio(v) for v in points]
        self.degree = degree
        self._columns = [[p**i * q ** (degree - i) for p, q in pairs] for i in range(degree + 1)]
        self._entry_max = max((abs(c) for column in self._columns for c in column), default=0)
        self._scales = [q**degree for _, q in pairs]
        self._packed: dict[int, tuple[list[int], int]] = {}

    def _packed_columns(self, words: int) -> tuple[list[int], int]:
        """The columns packed at B = 64 * words, and the repunit offset
        ``_offset(B, BP)`` for P points; built once per words."""
        packed = self._packed.get(words)
        if packed is None:
            bits = 64 * words
            offset = _offset(bits, bits * len(self._scales))
            packed = [_pack(column, bits) for column in self._columns], offset
            self._packed[words] = packed
        return packed

    def negatives(self, poly: Poly) -> list[tuple[int, Fraction]]:
        """(i, value) for every i-th point where poly is negative, with the
        exact value there, in the order of the points."""
        num = poly._num
        if len(num) > self.degree + 1:
            raise ValueError(f"degree {poly.degree} is over the grid degree {self.degree}")
        # every |v| <= ||n||_1 M < 2^(B-1)
        words = ((sum(map(abs, num)) * self._entry_max).bit_length() + 64) // 64
        columns, offset = self._packed_columns(words)
        s = sum(map(mul, num, columns)) + offset
        if not offset & ~s:  # no top bit left clear: no negative value
            return []
        return [
            (i, Fraction(v, poly._den * self._scales[i]))
            for i, v in enumerate(_unpack(s - offset, 64 * words))
            if v < 0
        ]


class RationalFunction(Record):
    """Reduced quotient of two polynomials in the same variable.

    Kept canonical: gcd(num, den) = 1 and den is monic, so equality is plain
    structural comparison.
    """

    __slots__ = ("num", "den")

    num: Poly
    den: Poly

    def __init__(self, num: Poly, den: "Poly | None" = None):
        if den is None:
            den = Poly.const(1, num.var)
        num._check_var(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Poly.const(1, num.var)
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.leading
            if lead != 1:
                num = num * (1 / lead)
                den = den * (1 / lead)
        _set_field(self, "num", num)
        _set_field(self, "den", den)

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __call__(self, value: Scalar) -> Fraction:
        """num(value) / den(value): both by integer Horner, and one Fraction."""
        p, q = _ratio(value)
        top, top_power = _horner(self.num._num, p, q)
        bottom, bottom_power = _horner(self.den._num, p, q)
        if not bottom:
            raise ZeroDivisionError(f"pole of {self!r} at {value}")
        # num = top q / (num._den top_power), den = bottom q / (den._den bottom_power)
        return Fraction(
            top * self.den._den * bottom_power, bottom * self.num._den * top_power
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Poly)):
            # den is monic, so of degree 0 it is 1; a Poly in another
            # variable compares unequal, as in Poly.__eq__
            return self.den.degree == 0 and self.num == other
        return NotImplemented

    def __hash__(self) -> int:
        # over 1 it equals its numerator, so it hashes as its numerator
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"
