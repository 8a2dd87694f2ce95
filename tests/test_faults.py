"""A fault matrix: each fault bumps one output of the package by one unit,
and ``verify all --n 30`` must fail the checks that read that output, with
a witness that points at the bumped index.

Every memo of the package is cleared before and after each fault, so that
no faulty value outlives it and none computed before it hides it.  Each
fault runs once per session; the second test reads the same reports.
"""

import pytest

from debranges import cli, dbw, exact, hypsum, lowner, orthopoly, series
from debranges.exact import Poly, RationalFunction
from debranges.series import ZSeries

N = 30

MEMOS = [
    f
    for module in (exact, lowner, series, dbw, orthopoly, hypsum, cli)
    for f in vars(module).values()
    if hasattr(f, "cache_clear")
]

# ids no fault fails, each with its reason
EXEMPT = {
    "positivity/positivity-scan": "a sign scan at 9 grid points; a wrong scan that finds "
    "nothing is not checked against anything (the `positivity_scan -> []` fault)",
    "askey-gasper/sqrt-coefficient-positivity": "a sign scan at 21 grid points; a sign "
    "fault between grid points is not seen",
}


def _clear_memos():
    for f in MEMOS:
        f.cache_clear()


def _bump(module, name, at, delta):
    """module.name(*at) returns its value plus delta; other calls are untouched."""
    real = getattr(module, name)

    def faulty(*args):
        value = real(*args)
        return value + delta if args == at else value

    return [(module, name, faulty)]


def _bump_series(name, k, n, delta):
    """dbw.name(k, order) has delta added to its z^n coefficient."""
    real = getattr(dbw, name)

    def faulty(kk, order):
        s = real(kk, order)
        if kk != k:
            return s
        coeffs = list(s.coeffs)
        coeffs[n] += delta
        return ZSeries(coeffs)

    return [(dbw, name, faulty)]


def _packed_chain():
    """The chain's memo has y^3 added to w_7, and y^2 to its packed w_7 / y;
    ``dbw`` holds its own binding of the memo, so both are patched."""
    real = series._packed_koebe

    def faulty(order):
        bits, packed, w = real(order)
        if order < 7:
            return bits, packed, w
        packed, w = list(packed), list(w)
        packed[7] += 1 << (2 * bits)
        w[7] += Poly.monomial(1, 3, "y")
        return bits, tuple(packed), tuple(w)

    return [(series, "_packed_koebe", faulty), (dbw, "_packed_koebe", faulty)]


def _chain_power():
    """Row 5 of the packed power (w/y)^3 is one more."""
    real = dbw._chain_power

    def faulty(order, m):
        power = real(order, m)
        if m != 3 or order < 5:
            return power
        return power[:5] + (power[5] + 1,) + power[6:]

    return [(dbw, "_chain_power", faulty)]


def _telescoped_sum():
    """The telescoped sum over l = 2..7 is one more."""
    real = hypsum.telescoped_sum

    def faulty(term, certificate, lo, hi):
        value = real(term, certificate, lo, hi)
        return value + 1 if (lo, hi) == (2, 7) else value

    return [(hypsum, "telescoped_sum", faulty)]


def _gosper(src, multiplier):
    """gosper, on the quotient of the term src, returns the certificate with
    multiplier(its own multiplier, or None) in place of its own."""
    real, target = hypsum.gosper, hypsum.term_ratio(hypsum.parse_term(src, "l"))

    def faulty(ratio):
        cert = real(ratio)
        if ratio != target:
            return cert
        return hypsum.GosperCertificate(ratio, multiplier(cert and cert.multiplier))

    return [(hypsum, "gosper", faulty)]


def _plus_one(r):
    return RationalFunction(r.num + r.den, r.den)


def _one(r):
    return RationalFunction(Poly.const(1, "l"))


def _y(k):
    return Poly.monomial(1, k, "y")


def _x(k):
    return Poly.monomial(1, k, "x")


# name: (patches, the ids that fail, (id, indices, start of its witness)
# for one failing check that points at the bumped index, or None)
FAULTS = {
    "chain_poly(7) + y^3": (
        lambda: _bump(lowner, "chain_poly", (7,), _y(3)),
        {
            "lowner/closed-vs-recurrence", "lowner/newton-vs-closed", "lowner/ode-residual",
            "lowner/system-residual", "lowner/vanishes-at-t0", "gegenbauer/chain-difference",
            "hypergeometric/chain-2f1",
        },
        ("lowner/vanishes-at-t0", [7], "n=7: 1 != 0"),
    ),
    "coeff_closed(7,3) + 1": (
        lambda: _bump(lowner, "coeff_closed", (7, 3), 1),
        {"lowner/closed-vs-recurrence"},
        ("lowner/closed-vs-recurrence", [7], "(n,j)=(7,3): 631 != 630"),
    ),
    # T(n, k) is read off L(n, k), so the slope identity holds for a wrong L
    "weinstein_poly(7,2) + y^5": (
        lambda: _bump(dbw, "weinstein_poly", (7, 2), _y(5)),
        {
            "theorem2/initial-value", "theorem2/slope-parity",
            "theorem2/weinstein-series-vs-closed", "theorem3/generating-coefficients",
            "hypergeometric/weinstein-3f2",
        },
        ("theorem2/initial-value", [7], "(n,k)=(7,2): 32/5 != 6"),
    ),
    "debranges_poly(7,2) + y^5": (
        lambda: _bump(dbw, "debranges_poly", (7, 2), _y(5)),
        {
            "theorem2/slope-identity", "theorem2/initial-value", "theorem2/slope-parity",
            "theorem3/generating-coefficients",
        },
        ("theorem2/initial-value", [7], "(n,k)=(7,2): 7 != 6"),
    ),
    # the partial sums of alpha = 2k = 2 first go negative at n = 6
    "jacobi_poly(5,2) + x^2": (
        lambda: _bump(orthopoly, "jacobi_poly", (5, 2), _x(2)),
        {"askey-gasper/jacobi-partial-sums", "askey-gasper/jacobi-decomposition"},
        ("askey-gasper/jacobi-partial-sums", [1], "n=6, x=-9/10: "),
    ),
    "gegenbauer_minus_half(6) + x^3": (
        lambda: _bump(orthopoly, "gegenbauer_minus_half", (6,), _x(3)),
        {
            "gegenbauer/chain-difference", "gegenbauer/expansion-at-one",
            "hypergeometric/gegenbauer-2f1", "askey-gasper/jacobi-decomposition",
        },
        ("gegenbauer/expansion-at-one", [6], "n=6: "),
    ),
    # the x = 1 expansion now holds at n = 1, where it is recorded to fail
    "gegenbauer_minus_half(1) + 1": (
        lambda: _bump(orthopoly, "gegenbauer_minus_half", (1,), 1),
        {"gegenbauer/expansion-at-one-fails-at-n1", "askey-gasper/jacobi-decomposition"},
        ("gegenbauer/expansion-at-one-fails-at-n1", [1],
         "n=1: the expansion reproduces -x + 1"),
    ),
    "_packed_koebe, z^7 + y^3": (
        _packed_chain,
        {
            "lowner/newton-vs-closed", "theorem2/weinstein-series-vs-closed",
            "theorem3/generating-coefficients", "theorem3/y-expansion",
            "askey-gasper/jacobi-decomposition",
        },
        ("lowner/newton-vs-closed", [7], "z^7: "),
    ),
    "weinstein_series(2, .), z^8 + y^5": (
        lambda: _bump_series("weinstein_series", 2, 8, _y(5)),
        {"theorem2/weinstein-series-vs-closed"},
        ("theorem2/weinstein-series-vs-closed", [2], "n=7: "),
    ),
    "debranges_generating_series(2, .), z^8 + y^5": (
        lambda: _bump_series("debranges_generating_series", 2, 8, _y(5)),
        {
            "theorem3/generating-coefficients", "theorem3/y-expansion",
            "askey-gasper/jacobi-decomposition",
        },
        ("theorem3/y-expansion", [2], "y^5 z^8: -3743 != -3744"),
    ),
    "_chain_power(., 3), packed row 5 + 1": (
        _chain_power,
        {
            "theorem2/weinstein-series-vs-closed", "theorem3/generating-coefficients",
            "theorem3/y-expansion", "askey-gasper/jacobi-decomposition",
        },
        ("theorem2/weinstein-series-vs-closed", [3], "n=5: "),
    ),
    "weighted_binomial_sum(7,2) + 1": (
        lambda: _bump(hypsum, "weighted_binomial_sum", (7, 2), 1),
        {"gosper/telescoping-certificate"},
        ("gosper/telescoping-certificate", [7, 2], "direct sum: 253 != 252"),
    ),
    "telescoped_sum + 1 at (j,n) = (2,7)": (
        _telescoped_sum,
        {"gosper/telescoping-certificate"},
        ("gosper/telescoping-certificate", [7, 2], "telescoped sum: 253 != 252"),
    ),
    "gosper(l), R + 1": (
        lambda: _gosper("l", _plus_one),
        {"gosper/arithmetic-series"},
        ("gosper/arithmetic-series", [], "l=1: 2 != 1"),
    ),
    "gosper(fact(l)) certifies R = 1": (
        lambda: _gosper("fact(l)", _one),
        {"gosper/factorial-not-summable"},
        ("gosper/factorial-not-summable", [], "unexpected R(l) = (1) / (1)"),
    ),
    "gosper(1/fact(l)) certifies R = 1": (
        lambda: _gosper("1/fact(l)", _one),
        {"gosper/inverse-factorial-not-summable"},
        ("gosper/inverse-factorial-not-summable", [], "unexpected R(l) = (1) / (1)"),
    ),
    # R stays unreduced, so it has a pole where the reduced R has none
    "Poly.gcd returns 1": (
        lambda: [(Poly, "gcd", lambda self, other: Poly.const(1, self.var))],
        {"gosper/telescoping-certificate", "gosper/arithmetic-series"},
        ("gosper/telescoping-certificate", [1, 1], "pole of R(l) at l=0"),
    ),
    # a known gap: no check fails
    "positivity_scan returns []": (
        lambda: [(dbw, "positivity_scan", lambda n_max, grid: [])],
        set(),
        None,
    ),
}

_REPORTS: dict[str, cli.Report] = {}


def _report(name: str) -> cli.Report:
    """``verify all --n 30`` under the fault name, run once per session."""
    if name not in _REPORTS:
        _clear_memos()
        try:
            with pytest.MonkeyPatch.context() as mp:
                for module, attr, faulty in FAULTS[name][0]():
                    mp.setattr(module, attr, faulty)
                _REPORTS[name] = cli.run_suite("all", N)
        finally:
            _clear_memos()
    return _REPORTS[name]


@pytest.mark.parametrize("name", list(FAULTS))
def test_a_fault_fails_the_checks_that_read_it(name):
    report = _report(name)
    _, want, pointer = FAULTS[name]
    assert {c.id for c in report.checks if not c.ok} == want
    if pointer is not None:
        id, indices, start = pointer
        (check,) = [c for c in report.checks if c.id == id and c.indices == indices]
        assert check.witness is not None and check.witness.startswith(start), check.witness


def test_every_id_fails_under_some_fault():
    _clear_memos()
    ids = {c.id for c in cli.run_suite("all", N).checks}
    caught = {c.id for name in FAULTS for c in _report(name).checks if not c.ok}
    assert ids - caught == set(EXEMPT)
    assert caught <= ids
