"""The four workloads: seeded inputs, the timed operations, and the checks
of every output against :mod:`reference`.

A workload is a class with ``setup`` (imports and input generation, which is
what ``setup_s`` measures) and ``round`` (one whole round of operations).
Every round of a workload attempts the same operations, so the share of
failed operations does not depend on how many rounds a run fits in.  The
program is always reached through module attributes (``dbw.weinstein_series``
rather than a local alias), so the tracer's wrappers and the self-test's
fault injection see every call.
"""

from __future__ import annotations

import bisect
import contextlib
import importlib
import io
import math
import random
import statistics
import time
from fractions import Fraction

import reference as ref

MODULES = ("exact", "series", "lowner", "dbw", "orthopoly", "hypsum", "cli")


# Machine speed drifts by up to a factor of two on a shared host, in slow
# phases of a few seconds and in swings well under a second.  A fixed
# kernel of about a millisecond, shaped like the program's arithmetic and
# timed after every operation, tracks that speed; each operation's wall
# time is scaled by REFERENCE_KERNEL_S over the kernel time interpolated at
# the operation.  Timing the kernel every 0.2 s instead left twice the
# round-to-round spread in the percentiles of `chain`, `verify` and `gosper`.
REFERENCE_KERNEL_S = 0.0008

_KERNEL_A = [Fraction((-1) ** i * math.comb(60, i) * 7 ** (3 * i), 3 * i + 1) for i in range(12)]
_KERNEL_B = [Fraction(math.comb(45, i) * 3 ** (2 * i), 5 * i + 2) for i in range(12)]


def speed_kernel() -> float:
    """Seconds taken by a fixed product of two rational coefficient lists
    (the shape of the program's own inner loop) and a run of big-integer
    gcds.  Neither depends on the program under test."""
    t0 = time.perf_counter()
    out = [Fraction(0)] * (len(_KERNEL_A) + len(_KERNEL_B) - 1)
    for i, a in enumerate(_KERNEL_A):
        for j, b in enumerate(_KERNEL_B):
            out[i + j] += a * b
    a, b = 3**300, 7**200 + 1
    for i in range(100):
        math.gcd(a + i, b)
    return time.perf_counter() - t0


class Recorder:
    """Collects timed operations, speed calibrations and operation counts.

    An operation fails when its output is wrong (``wrong``) or when it
    raises; only a wrong output makes the run incorrect."""

    def __init__(self):
        self.walls: list[tuple[float, float]] = []  # (midpoint, seconds) per timed op
        self.calibration: list[tuple[float, float]] = []  # (time, kernel seconds)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_failures: list[str] = []

    def calibrate(self) -> None:
        start = time.perf_counter()
        seconds = speed_kernel()
        self.calibration.append((start + seconds / 2, seconds))

    def op(self, seconds: float, ok: bool, what: str, attempted: int = 1,
           failed: int | None = None, mid: float | None = None):
        """Record an operation that took ``seconds`` and ended just now, and
        time the kernel after it; or one whose midpoint on the clock was
        ``mid``, whose caller timed the kernel after it."""
        just_ended = mid is None
        if just_ended:
            mid = time.perf_counter() - seconds / 2
        self.walls.append((mid, seconds))
        bad = (0 if ok else attempted) if failed is None else failed
        self.wrong += bad
        self._count(attempted, bad, what)
        if just_ended:
            self.calibrate()

    def _count(self, attempted: int, bad: int, what: str) -> None:
        self.attempted += attempted
        self.failed += bad
        if bad and len(self.first_failures) < 5:
            self.first_failures.append(what)

    @contextlib.contextmanager
    def attempt(self, what: str, attempted: int = 1):
        """Count an operation that raises as failed and go on."""
        try:
            yield
        except (Exception, SystemExit) as exc:  # cli.main exits 2 on a usage error
            self._count(attempted, attempted, f"{what}: {type(exc).__name__}: {exc}")

    def scaled(self) -> list[float]:
        """Operation times at the reference speed: wall seconds times
        REFERENCE_KERNEL_S over the kernel time at the operation, linearly
        interpolated between calibrations that are each the median of
        three neighbours."""
        times = [t for t, _ in self.calibration]
        raw = [k for _, k in self.calibration]
        kernel = [statistics.median(raw[max(i - 1, 0):i + 2]) for i in range(len(raw))]
        out = []
        for mid, wall in self.walls:
            i = bisect.bisect_right(times, mid)
            if i == 0 or i == len(times):
                k = kernel[min(i, len(times) - 1)]
            else:
                w = (mid - times[i - 1]) / (times[i] - times[i - 1])
                k = kernel[i - 1] + w * (kernel[i] - kernel[i - 1])
            out.append(wall * REFERENCE_KERNEL_S / k)
        return out


class Program:
    """Handles on the package under test, looked up once per process."""

    def __init__(self):
        self.mods = {m: importlib.import_module(f"debranges.{m}") for m in MODULES}
        # the memo objects, found before any tracer wrapper hides them
        self.caches: list[tuple[str, object]] = []
        seen = set()
        for short, mod in self.mods.items():
            for obj in vars(mod).values():
                if (
                    hasattr(obj, "cache_clear")
                    and getattr(obj, "__module__", None) == mod.__name__
                    and id(obj) not in seen
                ):
                    seen.add(id(obj))
                    self.caches.append((short, obj))
        self.cache_stats: dict[str, list[int]] = {}

    def __getattr__(self, name: str):
        return self.mods[name]

    def clear_caches(self) -> None:
        """Empty every memo, the ``lru_cache`` functions found above and
        ``lowner``'s coefficient table, so that the next call starts cold.
        Statistics of the memos are folded into ``cache_stats`` first."""
        for short, cache in self.caches:
            info = cache.cache_info()
            acc = self.cache_stats.setdefault(short, [0, 0])
            acc[0] += info.hits
            acc[1] += info.misses
            cache.cache_clear()
        lowner = self.mods["lowner"]
        lowner._cached = lowner.CoeffTable(0, {})


def poly_coeffs(p) -> tuple:
    return tuple(p.coeff(j) for j in range(p.degree + 1))


def series_ok(s, order: int, want) -> bool:
    """Is s a series of the given order whose z^m coefficient is want(m)?"""
    return s.order == order and all(
        poly_coeffs(s.coefficient(m)) == want(m) for m in range(order + 1)
    )


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


# ---------------------------------------------------------------------------
# chain: cold Newton reversion and the series built on it
# ---------------------------------------------------------------------------


class Chain:
    """koebe_chain(N), then weinstein_series(k, N) and
    debranges_generating_series(k, N) for every k < N, memos cleared before
    each order.  The seed fixes the order in which the orders run."""

    ORDERS = (20, 24, 28)
    TINY_ORDERS = (6, 8)

    def setup(self, seed: int, tiny: bool):
        self.prog = Program()
        self.orders = list(self.TINY_ORDERS if tiny else self.ORDERS)
        random.Random(seed).shuffle(self.orders)

    def round(self, rec: Recorder) -> None:
        series, dbw = self.prog.series, self.prog.dbw
        for order in self.orders:
            self.prog.clear_caches()
            what = f"koebe_chain({order})"
            with rec.attempt(what):
                dt, w = timed(series.koebe_chain, order)
                rec.op(dt, series_ok(w, order, ref.chain_poly), what)
            for k in range(1, order):
                for kind, fn in (("W", dbw.weinstein_series), ("B", dbw.debranges_generating_series)):
                    what = f"{kind} series k={k} order={order}"
                    with rec.attempt(what):
                        dt, s = timed(fn, k, order)
                        rec.op(dt, series_ok(s, order, lambda m: ref.series_coeff(kind, k, m)), what)


# ---------------------------------------------------------------------------
# verify: the suites of `debranges verify all --n 30`
# ---------------------------------------------------------------------------


class Verify:
    """The eight suites in the order of `verify all`, sharing memos as that
    command does; memos are cleared once per round.  Each check is one
    operation, timed from the previous check's ``Report.add`` to its own, so
    the percentiles rest on about 500 checks a round instead of 8 suites.
    The inputs do not depend on the seed."""

    N = 30
    SUITES = (
        ("lowner", 148),
        ("theorem2", 115),
        ("theorem3", 29),
        ("gegenbauer", 54),
        ("hypergeometric", 79),
        ("gosper", 58),
        ("positivity", 1),
        ("askey-gasper", 13),
    )
    TINY_SUITES = (("gegenbauer", 54), ("hypergeometric", 79), ("gosper", 58))

    def setup(self, seed: int, tiny: bool):
        self.prog = Program()
        self.suites = self.TINY_SUITES if tiny else self.SUITES
        self.real_add = self.prog.cli.Report.add

    def round(self, rec: Recorder) -> None:
        self.prog.clear_caches()
        for name, expected in self.suites:
            with rec.attempt(f"suite {name}", attempted=expected):
                t0 = time.perf_counter()
                spans, report = self._run_suite(name, rec)
                dt = time.perf_counter() - t0
                checks = report.checks
                # a missing or extra check, or one not made through
                # Report.add, voids the suite
                if len(checks) != expected or len(spans) != len(checks):
                    what = f"suite {name}: {len(checks)} checks, {len(spans)} through Report.add"
                    rec.op(dt, False, what, attempted=expected)
                else:
                    for (start, end), c in zip(spans, checks):
                        rec.op(end - start, c.ok, f"{name}/{c.id} {c.indices}", mid=(start + end) / 2)

    def _run_suite(self, name: str, rec: Recorder):
        """Run one suite, returning the (start, end) of each check with
        the report; the kernel is timed after each check, outside its span."""
        cli, real_add = self.prog.cli, self.real_add
        spans = []
        start = time.perf_counter()

        def add(report, *args, **kwargs):
            nonlocal start
            spans.append((start, time.perf_counter()))
            real_add(report, *args, **kwargs)
            rec.calibrate()
            start = time.perf_counter()

        cli.Report.add = add
        try:
            return spans, cli.run_suite(name, self.N)
        finally:
            cli.Report.add = real_add


# ---------------------------------------------------------------------------
# gosper: parse -> shift quotient -> Gosper -> certificate check
# ---------------------------------------------------------------------------


def _wbinom(n: int, j: int):
    return (
        f"({n}+1-l)*binom(l+{j}-1,l-{j})",
        lambda l: Fraction((n + 1 - l) * ref.comb(l + j - 1, l - j)),
        (j, n),
    )


def _rational(a: int, h: int):
    return f"1/((l+{a})*(l+{a + h}))", lambda l: Fraction(1, (l + a) * (l + a + h)), (1, 12)


def _geometric(b: int, c: Fraction):
    base = str(c) if c.denominator == 1 else f"({c})"
    return f"(l+{b})*{base}^l", lambda l: (l + b) * c**l, (2, 12)


def _factorial_times(b: int):
    return (
        f"fact(l+{b})*(l+{b})",
        lambda l: Fraction(math.factorial(l + b) * (l + b)),
        (2, 12),
    )


NOT_SUMMABLE = (
    lambda b: f"fact(l+{b})",
    lambda b: f"1/fact(l+{b})",
    lambda b: f"binom(2*l+{2 * b},l+{b})",
    lambda b: f"1/(l+{b + 1})",
)


class Gosper:
    """A seeded stream of hypergeometric terms.  Everything that sets the
    cost is the same in every stream: j for the weighted binomials (with
    n = 30), the dispersion h for the rational terms (with a = 1).  Moving n
    or a alone changes a term's cost by up to half, so the seed draws only
    the cheap classic terms' parameters and the order of the stream."""

    N = 30  # the paper's weighted binomials, n <= 30
    J = tuple(range(1, 21))
    H = tuple(range(1, 41))  # dispersion of 1/((l+1)(l+1+h))
    CLASSIC = 10  # each of: summable classics, non-summable classics
    TINY_N, TINY_J, TINY_H, TINY_CLASSIC = 8, (1, 3), (1, 4), 2

    def setup(self, seed: int, tiny: bool):
        self.prog = Program()
        rng = random.Random(seed)
        if tiny:
            n, js, hs, classic = self.TINY_N, self.TINY_J, self.TINY_H, self.TINY_CLASSIC
        else:
            n, js, hs, classic = self.N, self.J, self.H, self.CLASSIC
        terms = [("summable",) + _wbinom(n, j) for j in js]
        terms += [("summable",) + _rational(1, h) for h in hs]
        for i in range(classic):
            if i % 2:
                c = rng.choice((Fraction(2), Fraction(3), Fraction(5), Fraction(1, 2), Fraction(2, 3)))
                terms.append(("summable",) + _geometric(rng.randint(0, 5), c))
            else:
                terms.append(("summable",) + _factorial_times(rng.randint(0, 5)))
            make = NOT_SUMMABLE[i % len(NOT_SUMMABLE)]
            terms.append(("not summable", make(rng.randint(0, 5)), None, None))
        rng.shuffle(terms)
        self.terms = terms

    def round(self, rec: Recorder) -> None:
        hypsum = self.prog.hypsum
        for expect, src, value, span in self.terms:
            with rec.attempt(src):
                t0 = time.perf_counter()
                term = hypsum.parse_term(src, "l")
                cert = hypsum.gosper(hypsum.term_ratio(term))
                verified = cert is not None and span is not None and hypsum.verify_certificate(term, cert, *span)
                dt = time.perf_counter() - t0
                if expect == "summable":
                    ok = verified and certificate_ok(cert, value, *span)
                else:
                    ok = cert is None
                rec.op(dt, ok, src)


def certificate_ok(cert, value, lo: int, hi: int) -> bool:
    """s_l = R(l) b_l must satisfy s_l - s_(l-1) = b_l on [lo, hi], with b_l
    computed here and R evaluated here from its coefficients, and the
    telescoped sum must equal the direct sum."""
    num = poly_coeffs(cert.multiplier.num)
    den = poly_coeffs(cert.multiplier.den)
    s = {}
    for l in range(lo - 1, hi + 1):
        d = ref.horner(den, Fraction(l))
        if d == 0:
            return False
        s[l] = ref.horner(num, Fraction(l)) / d * value(l)
    b = {l: value(l) for l in range(lo, hi + 1)}
    if any(s[l] - s[l - 1] != b[l] for l in range(lo, hi + 1)):
        return False
    return s[hi] - s[lo - 1] == sum(b.values())


# ---------------------------------------------------------------------------
# query: warm `debranges eval` calls in one process
# ---------------------------------------------------------------------------


class Query:
    """A seeded stream of `eval` invocations through cli.main, stdout
    captured: the same number of calls for each of the five quantities,
    with n, k, the order and y drawn uniformly.  Memos are cleared at the
    start of each round, so a round fills them and reads them side by side:
    a draw that repeats an earlier (n, k), or needs a smaller chain than an
    earlier one, is served from them."""

    PER_KIND = 300
    TINY_PER_KIND = 6
    KINDS = ("A", "tau", "lambda", "W", "B")
    N_MAX = 60  # A, tau and lambda at n <= 60
    ORDER_MAX = 10  # W and B at orders 2..10
    Y_DEN_MAX = 40  # y = p/q with 0 < p < q <= 40

    def setup(self, seed: int, tiny: bool):
        self.prog = Program()
        rng = random.Random(seed)
        n_max = 12 if tiny else self.N_MAX
        stream = []
        for kind in self.KINDS:
            for _ in range(self.TINY_PER_KIND if tiny else self.PER_KIND):
                q = rng.randint(2, self.Y_DEN_MAX)
                yv = Fraction(rng.randint(1, q - 1), q)
                if kind == "A":
                    n, k = rng.randint(1, n_max), 0
                    argv = ["eval", "A", "--n", str(n)]
                elif kind in ("tau", "lambda"):
                    n = rng.randint(1, n_max)
                    k = rng.randint(1, n)
                    argv = ["eval", kind, "--n", str(n), "--k", str(k)]
                else:
                    n = rng.randint(2, self.ORDER_MAX)
                    k = rng.randint(1, n - 1)
                    argv = ["eval", kind, "--k", str(k), "--order", str(n)]
                stream.append((argv + ["--y", str(yv)], kind, n, k, yv))
        rng.shuffle(stream)
        self.stream = stream

    def round(self, rec: Recorder) -> None:
        cli = self.prog.cli
        self.prog.clear_caches()
        for argv, kind, n, k, yv in self.stream:
            what = " ".join(argv)
            buf = io.StringIO()
            with rec.attempt(what), contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                code = cli.main(argv)
                dt = time.perf_counter() - t0
                rec.op(dt, code == 0 and eval_ok(buf.getvalue(), kind, n, k, yv), what)


def eval_ok(out: str, kind: str, n: int, k: int, yv: Fraction) -> bool:
    lines = out.splitlines()
    if kind in ("W", "B"):
        want = [f"{m},{ref.horner(ref.series_coeff(kind, k, m), yv)}" for m in range(n + 1)]
        return [_canonical(line) for line in lines] == want
    coeffs = {"A": lambda: ref.chain_poly(n), "tau": lambda: ref.debranges(n, k), "lambda": lambda: ref.weinstein(n, k)}[kind]()
    return len(lines) == 1 and _parse(lines[0]) == ref.horner(coeffs, yv)


def _parse(text: str):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _canonical(line: str) -> str:
    m, _, value = line.partition(",")
    return f"{m},{_parse(value)}"


WORKLOADS = {"chain": Chain, "verify": Verify, "gosper": Gosper, "query": Query}
