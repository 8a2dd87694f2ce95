"""The immutable records and value types: equality, hash, repr, refusals,
pickle and copy, and a cold import without ``dataclasses``."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from debranges import cli, dbw, hypsum, lowner
from debranges.exact import Poly, RationalFunction, Record
from debranges.hypsum import (
    BinomialFactor, FactorialFactor, GeometricFactor, GosperCertificate, LinearFactor,
    ShiftQuotient,
)
from debranges.series import ZSeries, koebe_chain

F = Fraction


def records():
    """One of every record class, built as the package builds them."""
    term = hypsum.parse_term("(l+1)*2^l/fact(l)", "l")
    return [
        LinearFactor(F(1), F(-1, 2), -1),
        FactorialFactor(2, F(1, 3), 1),
        BinomialFactor(1, F(2), -1, F(0), 2),
        GeometricFactor(F(-2, 3), 1, -2),
        term,
        hypsum._Token("num", "12", 3),
        hypsum.gosper(hypsum.term_ratio(hypsum.parse_term("l", "l"))),
        dbw.PositivityViolation("weinstein", 3, 1, F(1, 2), F(-1, 4)),
        lowner.CoeffTable(2, {(1, 1): F(1), (2, 1): F(4), (2, 2): F(-2)}),
        cli.Check("ode-residual", [3], None),
        cli.Report("lowner", 2, [cli.Check("a", [1], None), cli.Check("b", [2], "n=2: 1 != 0")]),
    ]


def values():
    """One of every value type that keeps its own equality."""
    y = Poly.variable("y")
    return [
        Poly([F(1, 2), -3, 0, 7], "y"),
        Poly.zero("x"),
        RationalFunction(y + 1, y * y - 2),
        hypsum.term_ratio(hypsum.parse_term("binom(l+6,l+4)/(2*l+1)", "l")),
        koebe_chain(4),
    ]


# the repr a frozen dataclass printed for the records above; a shift
# quotient's own repr names its class and its roots
REPRS = [
    "LinearFactor(a=Fraction(1, 1), b=Fraction(-1, 2), exponent=-1)",
    "FactorialFactor(a=2, b=Fraction(1, 3), exponent=1)",
    "BinomialFactor(a1=1, b1=Fraction(2, 1), a2=-1, b2=Fraction(0, 1), exponent=2)",
    "GeometricFactor(base=Fraction(-2, 3), a=1, b=-2)",
    "HypTerm(var='l', const=Fraction(1, 1), factors=("
    "LinearFactor(a=Fraction(1, 1), b=Fraction(1, 1), exponent=1), "
    "GeometricFactor(base=Fraction(2, 1), a=1, b=0), "
    "FactorialFactor(a=1, b=Fraction(0, 1), exponent=-1)))",
    "_Token(kind='num', text='12', pos=3)",
    "GosperCertificate(ratio=ShiftQuotient((l + 1) / (l), "
    "roots=((Fraction(-1, 1), 1), (Fraction(0, 1), -1))), "
    "multiplier=RationalFunction((1/2*l + 1/2) / (1)))",
    "PositivityViolation(quantity='weinstein', n=3, k=1, y=Fraction(1, 2), value=Fraction(-1, 4))",
    "CoeffTable(n_max=2, entries={(1, 1): Fraction(1, 1), (2, 1): Fraction(4, 1), "
    "(2, 2): Fraction(-2, 1)})",
    "Check(id='ode-residual', indices=[3], witness=None)",
    "Report(suite='lowner', n_max=2, checks=[Check(id='a', indices=[1], witness=None), "
    "Check(id='b', indices=[2], witness='n=2: 1 != 0')])",
]

# the hash a frozen dataclass gave the four factors above (64-bit CPython)
FACTOR_HASHES = [
    -5600203085486331317, 5122991150363599835, -725559957176892246, -3626763995204266245,
]


class TestRecord:
    def test_fields_are_the_slots(self):
        assert LinearFactor._fields == ("a", "b", "exponent")
        assert ShiftQuotient._fields == ("num", "den", "roots")
        assert Poly._fields == ("_num", "_den", "var")

    def test_records_of_different_types_with_equal_fields_are_unequal(self):
        linear = LinearFactor(1, F(0), 1)
        factorial = FactorialFactor(1, F(0), 1)
        assert linear._values() == factorial._values()
        assert linear != factorial
        assert not linear == factorial
        assert linear == LinearFactor(1, F(0), 1)

    def test_a_record_is_not_equal_to_the_tuple_of_its_fields(self):
        factor = GeometricFactor(F(2), 1, 0)
        assert factor != (F(2), 1, 0)

    def test_repr_is_the_dataclass_repr(self):
        assert [repr(r) for r in records()] == REPRS

    def test_hash_is_the_dataclass_hash(self):
        factors = records()[:4]
        assert [hash(f) for f in factors] == [hash(f._values()) for f in factors]
        if sys.hash_info.width == 64:
            assert [hash(f) for f in factors] == FACTOR_HASHES

    def test_equal_records_hash_alike(self):
        a = hypsum.parse_term("binom(2*l,l)/fact(l+1)", "l")
        b = hypsum.parse_term("binom(2*l,l)/fact(l+1)", "l")
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_report_defaults_to_its_own_empty_list(self):
        first, second = cli.Report("lowner", 1), cli.Report("lowner", 1)
        first.add("x", [1], None)
        assert len(first.checks) == 1
        assert second.checks == []

    def test_empty_coefficient_table(self):
        table = lowner.CoeffTable(0, {})
        assert table.n_max == 0
        with pytest.raises(KeyError):
            table[(1, 1)]


# the records built by Record's own constructor, one value per field
PLAIN_RECORDS = records()[:10]


class TestOneConstructor:
    @pytest.mark.parametrize("record", PLAIN_RECORDS, ids=lambda r: type(r).__name__)
    def test_a_record_is_built_from_its_values_in_field_order(self, record):
        cls = type(record)
        assert "__init__" not in vars(cls)
        assert cls(*record._values()) == record

    @pytest.mark.parametrize("record", PLAIN_RECORDS, ids=lambda r: type(r).__name__)
    @pytest.mark.parametrize("change", [-1, 1], ids=["too-few", "too-many"])
    def test_a_wrong_number_of_values_raises(self, record, change):
        cls, values = type(record), record._values()
        values = values[:-1] if change < 0 else values + (None,)
        fields = ", ".join(cls._fields)
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\({fields}\) takes "):
            cls(*values)

    def test_raising_a_product_rebuilds_each_factor(self):
        src = "(2*l+1)^2*fact(l+1)*binom(2*l,l)*3^l/(l+2)"
        term = hypsum.parse_term(src, "l")
        inverse = hypsum.parse_term(f"1/({src})", "l")
        assert {type(f) for f in term.factors} == {
            LinearFactor, FactorialFactor, BinomialFactor, GeometricFactor,
        }
        assert inverse.factors == (
            LinearFactor(F(2), F(1), -2),
            FactorialFactor(1, F(1), -1),
            BinomialFactor(2, F(0), 1, F(0), -1),
            GeometricFactor(F(1, 3), 1, 0),
            LinearFactor(F(1), F(2), 1),
        )
        assert hypsum.parse_term(f"1/(1/({src}))", "l") == term

    def test_series_compare_and_hash_by_their_coefficients_and_variable(self):
        chain = koebe_chain(6)
        rows = ZSeries([0] + [lowner.chain_poly(n) for n in range(1, 7)])
        assert chain is not rows
        assert chain == rows
        assert hash(chain) == hash(rows)
        assert chain != chain.coeffs
        assert chain != ZSeries(list(chain.coeffs[:-1]))
        assert ZSeries([1], "x") != ZSeries([1], "y")


@pytest.mark.parametrize("obj", records() + values(), ids=lambda obj: type(obj).__name__)
class TestImmutableAndCopyable:
    def test_setting_a_field_raises(self, obj):
        name = obj._fields[0]
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1

    def test_deleting_a_field_raises(self, obj):
        name = obj._fields[0]
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(obj, name)
        assert getattr(obj, name) is before

    @pytest.mark.parametrize(
        "clone",
        [
            copy.copy,
            copy.deepcopy,
            lambda x: pickle.loads(pickle.dumps(x)),
            lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
        ],
        ids=["copy", "deepcopy", "pickle", "pickle-0"],
    )
    def test_survives(self, obj, clone):
        twin = clone(obj)
        assert type(twin) is type(obj)
        assert isinstance(twin, Record)
        assert twin == obj
        assert repr(twin) == repr(obj)
        if not isinstance(obj, (lowner.CoeffTable, cli.Check, cli.Report)):
            assert hash(twin) == hash(obj)


class TestValuesAfterACopy:
    def test_a_rebuilt_polynomial_computes(self):
        p = Poly([F(1, 2), -3, 0, 7], "y")
        q = pickle.loads(pickle.dumps(p))
        assert q * q == p * p
        assert q(F(1, 3)) == p(F(1, 3))

    def test_a_rebuilt_shift_quotient_runs_gosper(self):
        ratio = hypsum.term_ratio(hypsum.parse_term("(8-l)*binom(l+2,l-3)", "l"))
        twin = copy.deepcopy(ratio)
        assert twin.roots == ratio.roots
        assert hypsum.gosper(twin) == hypsum.gosper(ratio)

    def test_a_rebuilt_certificate_verifies(self):
        term = hypsum.parse_term("l*fact(l)", "l")
        cert = hypsum.gosper(hypsum.term_ratio(term))
        twin = pickle.loads(pickle.dumps(cert))
        assert isinstance(twin, GosperCertificate)
        assert hypsum.verify_certificate(term, twin, 2, 8)
        assert hypsum.certificate_witness(term, twin, 1, 8) == "pole of R(l) at l=0"
        assert hypsum.telescoped_sum(term, twin, 1, 8) == hypsum.telescoped_sum(term, cert, 1, 8)

    def test_a_rebuilt_series_multiplies(self):
        w = koebe_chain(5)
        assert copy.deepcopy(w) * w == w * w
        assert isinstance(pickle.loads(pickle.dumps(ZSeries([1, 2]))), ZSeries)


def test_cold_import_leaves_dataclasses_and_inspect_out():
    # -S: no site hooks, so only the interpreter's start-up and the package load modules
    code = (
        "import sys, debranges, debranges.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hypsum.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert out == "[]\n"
