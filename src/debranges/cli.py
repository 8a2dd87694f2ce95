"""Command line front end: coefficient tables, exact evaluation, identity
verification sweeps, and the Gosper engine.

Output is deterministic byte-for-byte: rationals are rendered as ``p/q``
(or ``p`` when the denominator is 1) in both CSV and JSON, row order is
lexicographic in the indices, and line endings are LF.  Exit codes: 0 for
success or a passing verification, 1 for a failing verification, 2 for
usage or parse errors, for inputs over a stated limit and for a result too
long to print.

A verification check is recorded by its witness alone and passes exactly
when that is None; a witness says where and by how much a check failed, as
``exact.first_mismatch`` or ``hypsum.certificate_witness`` writes it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

from . import dbw, hypsum, lowner, orthopoly, series
from .exact import Poly, Record, _set_field, binomial, first_mismatch, format_rational


class Check(Record):
    """One verified identity instance: it passes exactly when it has no
    witness, the string that says where it failed and by how much."""

    __slots__ = ("id", "indices", "witness")

    id: str
    indices: list[int]
    witness: str | None

    @property
    def ok(self) -> bool:
        return self.witness is None


class Report(Record):
    """Outcome of a verification suite; passes iff every check passes."""

    __slots__ = ("suite", "n_max", "checks")

    suite: str
    n_max: int
    checks: list[Check]

    def __init__(self, suite: str, n_max: int, checks: list[Check] | None = None):
        _set_field(self, "suite", suite)
        _set_field(self, "n_max", n_max)
        _set_field(self, "checks", [] if checks is None else checks)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, id: str, indices: list[int], witness: str | None):
        """Record a check that passes exactly when witness is None."""
        self.checks.append(Check(id, indices, witness))

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "n_max": self.n_max,
            "checks": [
                {"id": c.id, "indices": c.indices, "pass": c.ok, "witness": c.witness}
                for c in self.checks
            ],
            "pass": self.passed,
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["id", "indices", "pass", "witness"])
        for c in self.checks:
            indices = ";".join(str(i) for i in c.indices)
            writer.writerow([c.id, indices, str(c.ok).lower(), c.witness or ""])
        return buffer.getvalue()


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_lowner(n_max: int):
    table = lowner.coeff_table(n_max)
    for n in range(1, n_max + 1):
        yield "closed-vs-recurrence", [n], first_mismatch(
            (f"(n,j)=({n},{j})", lowner.coeff_closed(n, j), table[(n, j)])
            for j in range(1, n + 1)
        )
    chain_max = min(n_max, 30)
    chain = series.koebe_chain(chain_max)
    for n in range(1, chain_max + 1):
        yield "newton-vs-closed", [n], first_mismatch(
            [(f"z^{n}", chain.coefficient(n), lowner.chain_poly(n))]
        )
    for n in range(1, n_max + 1):
        yield "ode-residual", [n], first_mismatch([(f"n={n}", lowner.ode_residual(n), 0)])
    for n in range(2, n_max + 1):
        yield "system-residual", [n], first_mismatch([(f"n={n}", lowner.system_residual(n), 0)])
    for n in range(2, n_max + 1):
        yield "vanishes-at-t0", [n], first_mismatch([(f"n={n}", lowner.chain_poly(n)(1), 0)])


def _suite_theorem2(n_max: int):
    for n in range(1, n_max + 1):
        ks = [(f"(n,k)=({n},{k})", k, dbw.debranges_poly(n, k)) for k in range(1, n + 1)]
        # all three witnesses of n are taken before its first yield: a check is
        # timed from one Report.add to the next, so n's work stays with slope-identity
        slope = first_mismatch(
            (at, series.time_derivative(tau), -k * dbw.weinstein_poly(n, k)) for at, k, tau in ks
        )
        init = first_mismatch((at, tau(1), n + 1 - k) for at, k, tau in ks)
        parity = first_mismatch(
            (at, dbw.debranges_slope_at_zero(n, k), -k if (n - k) % 2 == 0 else 0)
            for at, k, tau in ks
        )
        yield "slope-identity", [n], slope
        yield "initial-value", [n], init
        yield "slope-parity", [n], parity
    series_max = min(n_max, 25)
    for k in range(1, series_max + 1):
        yield "weinstein-series-vs-closed", [k], _coefficient_witness(
            dbw.weinstein_series(k, series_max + 1), dbw.weinstein_poly, k, series_max
        )


def _coefficient_witness(gen, closed, k: int, n_max: int) -> str | None:
    """None when the z^(n+1) coefficient of gen is closed(n, k) for every
    k <= n <= n_max, else the first failing n with both polynomials."""
    return first_mismatch(
        (f"n={n}", gen.coefficient(n + 1), closed(n, k)) for n in range(k, n_max + 1)
    )


def _suite_theorem3(n_max: int):
    gen_max = min(n_max, 25)
    for k in range(1, gen_max + 1):
        yield "generating-coefficients", [k], _coefficient_witness(
            dbw.debranges_generating_series(k, gen_max + 1), dbw.debranges_poly, k, gen_max
        )
    for k in range(1, min(4, n_max) + 1):
        yield "y-expansion", [k], dbw.explicit_generating_witness(k, 12, 8)


def _suite_gegenbauer(n_max: int):
    for n in range(2, min(n_max, 40) + 1):
        yield "chain-difference", [n], orthopoly.chain_gegenbauer_witness(n)
    for n in range(2, min(n_max, 25) + 1):
        yield "expansion-at-one", [n], orthopoly.gegenbauer_expansion_witness(n)
    # the expansion genuinely fails at n = 1; the suite records that fact
    held = orthopoly.gegenbauer_expansion_witness(1) is None
    yield "expansion-at-one-fails-at-n1", [1], (
        f"n=1: the expansion reproduces {orthopoly.gegenbauer_minus_half(1)}" if held else None
    )


def _suite_hypergeometric(n_max: int):
    y = Poly.variable("y")
    for n in range(1, min(n_max, 30) + 1):
        value = n * y * hypsum.pfq_terminating([1 - n, n + 1], [3], y)
        yield "chain-2f1", [n], first_mismatch([(f"n={n}", value, lowner.chain_poly(n))])
    for n in range(1, min(n_max, 25) + 1):
        yield "weinstein-3f2", [n], first_mismatch(
            (
                f"(n,k)=({n},{k})",
                Poly.monomial(dbw.binomial(n + k + 1, n - k), k, "y") * hypsum.pfq_terminating(
                    [Fraction(2 * k + 1, 2), n + k + 2, k - n], [Fraction(2 * k + 3, 2), 2 * k + 1],
                    y,
                ),
                dbw.weinstein_poly(n, k),
            )
            for k in range(1, n + 1)
        )
    x = Poly.variable("x")
    half_one_minus_x = Poly([Fraction(1, 2), Fraction(-1, 2)], "x")
    for n in range(2, min(n_max, 25) + 1):
        value = (1 - x) * hypsum.pfq_terminating([1 - n, n], [2], half_one_minus_x)
        want = orthopoly.gegenbauer_minus_half(n)
        yield "gegenbauer-2f1", [n], first_mismatch([(f"n={n}", value, want)])


def _suite_gosper(n_max: int):
    for n in range(1, min(n_max, 10) + 1):
        for j in range(1, n + 1):
            term = hypsum.parse_term(f"({n}+1-l) * binom(l+{j}-1, l-{j})", "l")
            cert = hypsum.gosper(hypsum.term_ratio(term))
            closed = Fraction((j + n) * (n + 1 + j), 2 * j * (2 * j + 1))
            closed *= binomial(n + j - 1, n - j)
            witness = hypsum.certificate_witness(term, cert, j, n) or first_mismatch([
                ("telescoped sum", hypsum.telescoped_sum(term, cert, j, n), closed),
                ("direct sum", hypsum.weighted_binomial_sum(n, j), closed),
            ])
            yield "telescoping-certificate", [n, j], witness
    arith = hypsum.parse_term("l", "l")
    yield "arithmetic-series", [], hypsum.certificate_witness(
        arith, hypsum.gosper(hypsum.term_ratio(arith)), 1, 20
    )
    for id, src in (("factorial-not-summable", "fact(l)"),
                    ("inverse-factorial-not-summable", "1/fact(l)")):
        cert = hypsum.gosper(hypsum.term_ratio(hypsum.parse_term(src, "l")))
        yield id, [], cert and f"unexpected R(l) = {cert.multiplier}"


def _first_negative(scan) -> str | None:
    """The first (n, x, value) of a sign scan as a witness, or None."""
    return next((f"n={n}, x={x}: {value}" for n, x, value in scan), None)


def _suite_positivity(n_max: int):
    violations = dbw.positivity_scan(n_max, [Fraction(i, 10) for i in range(1, 10)])
    yield "positivity-scan", [n_max], "; ".join(map(str, violations[:5])) or None


def _suite_askey_gasper(n_max: int):
    grid = [Fraction(i, 10) for i in range(-10, 11)]
    sum_max = min(n_max, 20)
    for k in range(0, 9):
        scan = orthopoly.askey_gasper_scan(sum_max, k, grid)
        yield "jacobi-partial-sums", [k], _first_negative(scan)
    scan = orthopoly.gegenbauer_partial_sum_scan(sum_max, grid)
    yield "sqrt-coefficient-positivity", [sum_max], _first_negative(scan)
    for k in range(1, min(3, n_max) + 1):
        yield "jacobi-decomposition", [k], dbw.jacobi_decomposition_witness(k, 12)


def _report(name: str, checks, n_max: int) -> Report:
    """The Report of suite name, with one Report.add for each check, in order:
    each _suite_* yields its checks as (id, indices, witness), and a sweep's
    cap is the min(n_max, c) of its loop."""
    report = Report(name, n_max)
    for id, indices, witness in checks(n_max):
        report.add(id, indices, witness)
    return report


_SUITES = {name: functools.partial(_report, name, checks) for name, checks in (
    ("lowner", _suite_lowner),
    ("theorem2", _suite_theorem2),
    ("theorem3", _suite_theorem3),
    ("gegenbauer", _suite_gegenbauer),
    ("hypergeometric", _suite_hypergeometric),
    ("gosper", _suite_gosper),
    ("positivity", _suite_positivity),
    ("askey-gasper", _suite_askey_gasper),
)}


def run_suite(name: str, n_max: int) -> Report:
    """Run one verification suite (or 'all') and return its report."""
    if name == "all":
        combined = Report("all", n_max)
        for suite_name in _SUITES:
            sub = _SUITES[suite_name](n_max)
            for check in sub.checks:
                combined.checks.append(
                    Check(f"{suite_name}/{check.id}", check.indices, check.witness)
                )
        return combined
    return _SUITES[name](n_max)


def cmd_verify(args, error) -> int:
    """Run `verify`; error(message) reports a usage error and exits 2."""
    _check_n(args.n, VERIFY_N_LIMIT, error)
    report = run_suite(args.suite, args.n)
    if args.format == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.to_csv())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _table_rows(kind: str, n_max: int) -> tuple[list[str], list[tuple]]:
    if kind == "lowner":
        table = lowner.coeff_table(n_max)
        rows = [
            (n, j, table[(n, j)])
            for n in range(1, n_max + 1)
            for j in range(1, n + 1)
        ]
        return ["n", "j", "value"], rows
    if kind in ("lambda", "tau"):
        poly_of = dbw.weinstein_poly if kind == "lambda" else dbw.debranges_poly
        rows = []
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                poly = poly_of(n, k)
                rows += [(n, k, j, poly.coeff(j)) for j in range(k, n + 1)]
        return ["n", "k", "j", "value"], rows
    raise ValueError(f"unknown table kind {kind!r}")


def _render_value(value: Fraction, as_float: bool) -> str:
    if as_float:
        return format(float(value), ".17g")
    return format_rational(value)


def cmd_table(args, error) -> int:
    """Run `table`; error(message) reports a usage error and exits 2."""
    _check_n(args.n, TABLE_N_LIMIT, error)
    header, rows = _table_rows(args.kind, args.n)
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            *indices, value = row
            lines.append(
                ",".join([str(i) for i in indices] + [_render_value(value, args.float)])
            )
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        entries = []
        for row in rows:
            *indices, value = row
            entry = dict(zip(header[:-1], indices))
            entry["value"] = (
                float(value) if args.float else format_rational(value)
            )
            entries.append(entry)
        payload = {"kind": args.kind, "n_max": args.n, "entries": entries}
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _at_time(p: Poly, t: float) -> str:
    """p at y = e^(-t): exact at the binary64 value of y, then rounded once."""
    try:
        return format(float(p(Fraction(math.exp(-t)))), ".17g")
    except (OverflowError, ValueError):
        raise ValueError(f"y or the value at t = {t} is not a finite binary64 number") from None


# The largest --order that `eval W|B` takes.  The slowest lone cold call of
# W_1, W_2, W_(N/2), W_(N-1), B_(N/2) and B_(N-1) took 0.005-0.008 s at order
# 30, 0.36-0.38 s at 60 and 1.2-1.6 s at 80 (in process; 2 CPUs, Python 3.11).
SERIES_ORDER_LIMIT = 60

# The largest --n that `eval A|tau|lambda` takes.  The slowest kind is A: a
# cold CLI call took 0.4 s at n = 300, 0.7 s at 500 and 1.0 s at 600, where
# tau and lambda at n = 500 took 0.15 s (2 CPUs, Python 3.11).
EVAL_N_LIMIT = 500

# The largest --n of `table`: the slowest kind, tau, took 0.7 s at n = 60 and
# 3.3 s at 100 in JSON, 19 s at 200 in CSV (cold CLI; 2 CPUs, Python 3.11).
TABLE_N_LIMIT = 100

# The largest --n of `verify`: `verify all` took 0.68 s at n = 60, 2.4 s at
# 100 (cold CLI, medians of 5 and 3) and 30 s at 200 (one process; 2 CPUs,
# Python 3.11).
VERIFY_N_LIMIT = 100

# The largest |LO| and |HI| of `gosper --range`: a cold call at l = 10^5 took
# 0.4 s for fact(l) and 0.9 s for binom(2*l,l); l*fact(l) at 10^6 took 8 s.
GOSPER_RANGE_LIMIT = 100_000


# The options that each kind of `eval` does not read.
_EVAL_UNREAD = {"A": ("k", "order"), "tau": ("order",), "lambda": ("order",),
                "W": ("n",), "B": ("n",)}


def cmd_eval(args, error) -> int:
    """Run `eval`; error(message) reports a usage error and exits 2: an option
    missing or unread, a value over its limit, or a ValueError or IndexError.
    An exact value too long to print exits 2 with its own message."""
    kind = args.kind
    for name in _EVAL_UNREAD[kind]:
        if getattr(args, name) is not None:
            error(f"eval {kind} does not take --{name}")
    if kind in ("W", "B"):
        if args.k is None or args.order is None:
            error(f"eval {kind} requires --k and --order")
        if args.order > SERIES_ORDER_LIMIT:
            error(f"--order {args.order} is over the limit of {SERIES_ORDER_LIMIT}")
    elif args.n is None:
        error(f"eval {kind} requires --n")
    elif kind == "A":
        _check_n(args.n, EVAL_N_LIMIT, error)
    elif args.n > EVAL_N_LIMIT:
        error(f"--n {args.n} is over the limit of {EVAL_N_LIMIT}")
    elif args.k is None:
        error(f"eval {kind} requires --k")
    try:
        lines = _eval_lines(args)
    except _TooLongToPrint:
        return _too_long_to_print()
    except (ValueError, IndexError) as exc:
        error(str(exc))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _eval_lines(args) -> list[str]:
    """A checked `eval`'s output: one value, or m,value for each z^m of W or B."""
    if args.kind in ("W", "B"):
        series_of = dbw.weinstein_series if args.kind == "W" else dbw.debranges_generating_series
        zs = series_of(args.k, args.order)
        if args.y is not None:
            return [f"{m},{_exact_text(v)}" for m, v in enumerate(zs.eval_inner(args.y))]
        return [f"{m},{_at_time(coeff, args.t)}" for m, coeff in enumerate(zs.coeffs)]
    if args.kind == "A":
        poly = lowner.chain_poly(args.n)
    elif args.kind == "tau":
        poly = dbw.debranges_poly(args.n, args.k)
    else:
        poly = dbw.weinstein_poly(args.n, args.k)
    return [_exact_text(poly(args.y)) if args.y is not None else _at_time(poly, args.t)]


class _TooLongToPrint(Exception):
    """An exact `eval` value with an integer that str() refuses to print."""


def _exact_text(v: Fraction) -> str:
    """format_rational(v), raising _TooLongToPrint for a too long integer."""
    try:
        return format_rational(v)
    except ValueError:
        raise _TooLongToPrint from None


# ---------------------------------------------------------------------------
# gosper
# ---------------------------------------------------------------------------


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like 3..7")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("range bounds must be integers") from exc
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError("range upper bound below lower bound")
    if max(-lo_i, hi_i) > GOSPER_RANGE_LIMIT:
        raise argparse.ArgumentTypeError(
            f"range bounds must lie within -{GOSPER_RANGE_LIMIT}..{GOSPER_RANGE_LIMIT}"
        )
    return lo_i, hi_i


def cmd_gosper(args, error) -> int:
    """Run `gosper`; it prints its own errors with no usage, so error goes unused."""
    try:
        term = hypsum.parse_term(args.term, args.var)
        certificate = hypsum.gosper(hypsum.term_ratio(term))
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if certificate is None:
        line = "NOT GOSPER-SUMMABLE"
    else:
        r = certificate.multiplier
        try:
            line = f"R({args.var}) = ({r.num}) / ({r.den})"
        except ValueError:
            return _too_long_to_print()
    sys.stdout.write(line + "\n")
    if args.range is not None:
        lo, hi = args.range
        try:
            total = hypsum.telescoped_sum(term, certificate, lo, hi)
        except (ValueError, ZeroDivisionError) as exc:  # undefined, or over the limit
            sys.stderr.write(f"error: {exc}\n")
            return 2
        try:
            line = format_rational(total)
        except ValueError:
            return _too_long_to_print()
        sys.stdout.write(f"sum[{lo}..{hi}] = {line}\n")
    return 0


def _too_long_to_print() -> int:
    """Exit status 2 for an integer that str() refuses to print as decimal."""
    limit = sys.get_int_max_str_digits()
    sys.stderr.write(f"error: result has an integer of more than {limit} digits\n")
    return 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _check_n(n: int, limit: int, error) -> None:
    """error(message) unless 1 <= n <= limit."""
    if n < 1:
        error("--n must be at least 1")
    if n > limit:
        error(f"--n {n} is over the limit of {limit}")


@functools.lru_cache(maxsize=None)
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top parser and each command's parser by its name, built once per
    process: parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="debranges",
        allow_abbrev=False,
        description="Exact tables, evaluations and identity verification for "
        "the Koebe chain and the de Branges / Weinstein function systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", allow_abbrev=False, help="emit a coefficient table")
    p_table.add_argument("kind", choices=["lowner", "lambda", "tau"])
    p_table.add_argument("--n", type=int, default=30, metavar="N",
                         help="largest n (default 30)")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.add_argument("--float", action="store_true",
                         help="render values as binary64 instead of p/q")

    p_eval = sub.add_parser("eval", allow_abbrev=False,
                            help="evaluate a function exactly or in binary64")
    p_eval.add_argument("kind", choices=["A", "tau", "lambda", "W", "B"])
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--k", type=int)
    p_eval.add_argument("--order", type=int, help="series truncation for W/B")
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--y", type=_parse_rational,
                       help="exact evaluation point y = e^(-t), as p/q")
    group.add_argument("--t", type=float,
                       help="evaluation at time t, rounded once to binary64")

    p_verify = sub.add_parser("verify", allow_abbrev=False,
                              help="run an identity verification suite")
    p_verify.add_argument(
        "suite",
        choices=["all"] + sorted(_SUITES),
    )
    p_verify.add_argument("--n", type=int, default=30, metavar="N",
                          help="sweep bound (default 30; larger is slower)")
    p_verify.add_argument("--format", choices=["csv", "json"], default="json")

    p_gosper = sub.add_parser("gosper", allow_abbrev=False, help="find a telescoping certificate")
    p_gosper.add_argument("term", help="hypergeometric term expression")
    p_gosper.add_argument("--var", required=True, help="summation variable")
    p_gosper.add_argument("--range", type=_parse_range, metavar="LO..HI",
                          help="also telescope the sum over this range")

    return parser, {"table": p_table, "eval": p_eval, "verify": p_verify, "gosper": p_gosper}


# Options whose value may start with "-", as a negative LO, y or t does:
# argparse reads such a value as an option unless it looks like -5 or -0.5,
# so main glues a value with one leading "-" to its option as --opt=VALUE.
_SIGNED_OPTIONS = ("--range", "--y", "--t")


def main(argv: list[str] | None = None) -> int:
    """Run one command line, read by its command's parser alone.  The top
    parser only reports a line with no command or with arguments left over."""
    glued: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if glued and glued[-1] in _SIGNED_OPTIONS and arg.startswith("-") and arg[1:2] != "-":
            glued[-1] += "=" + arg
        else:
            glued.append(arg)
    top, parsers = _parser()
    parser = parsers.get(glued[0]) if glued else None
    if parser is not None:
        args, extra = parser.parse_known_args(glued[1:])
        if not extra:
            # looked up per call, so a wrapped or patched cmd_* is the one that runs
            run = {"table": cmd_table, "eval": cmd_eval, "verify": cmd_verify, "gosper": cmd_gosper}
            return run[glued[0]](args, parser.error)
    top.parse_args(glued)  # exits 2 with the top usage, or 0 for --help
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
