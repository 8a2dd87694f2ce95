"""Self-test of the benchmark: every workload at a tiny size, and fault
injection showing that a wrong program output is counted as failed.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_rounds, run_traced  # noqa: E402
from workloads import WORKLOADS, Verify  # noqa: E402


def tiny(name: str, seed: int = 7):
    workload = WORKLOADS[name]()
    workload.setup(seed, tiny=True)
    return workload


def one_round(workload) -> dict:
    return run_rounds(workload, seconds=0, rounds=1)


class TinyRuns(unittest.TestCase):
    def test_every_workload_passes(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = one_round(tiny(name))
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0, result["first_failures"])
                self.assertTrue(result["correct"])

    def test_same_seed_same_inputs(self):
        self.assertEqual(tiny("gosper", 3).terms[0][1], tiny("gosper", 3).terms[0][1])
        self.assertEqual(
            [s[0] for s in tiny("query", 3).stream], [s[0] for s in tiny("query", 3).stream]
        )
        self.assertNotEqual(
            [s[0] for s in tiny("query", 3).stream], [s[0] for s in tiny("query", 4).stream]
        )

    def test_gosper_families_over_many_seeds(self):
        for seed in range(12):
            result = one_round(tiny("gosper", seed))
            self.assertEqual(result["failed"], 0, (seed, result["first_failures"]))

    def test_verify_counts_add_up(self):
        self.assertEqual(sum(count for _, count in Verify.SUITES), 497)

    def test_reference_closed_forms(self):
        # B_2 = 2y - 2y^2, L(2, 1) = 4y - 4y^2, T(2, 1) = 4y - 2y^2
        self.assertEqual(ref.chain_poly(2), (0, 2, -2))
        self.assertEqual(ref.weinstein(2, 1), (0, 4, -4))
        self.assertEqual(ref.debranges(2, 1), (0, 4, -2))
        self.assertEqual(ref.series_coeff("W", 2, 2), ())
        for n in range(2, 12):
            self.assertEqual(ref.horner(ref.chain_poly(n), 1), 0)  # w = z at t = 0
            for k in range(1, n + 1):
                self.assertEqual(ref.horner(ref.debranges(n, k), 1), n + 1 - k)


class FaultInjection(unittest.TestCase):
    def test_wrong_chain_poly_fails_query_and_verify(self):
        workload = tiny("query")
        lowner = workload.prog.lowner
        real = lowner.chain_poly
        with mock.patch.object(lowner, "chain_poly", lambda n: real(n) + 1):
            result = one_round(workload)
            verify = one_round(tiny("verify"))
        a_ops = sum(1 for _, kind, *_ in workload.stream if kind == "A")
        self.assertEqual(result["failed"], a_ops)
        self.assertFalse(result["correct"])
        self.assertGreater(verify["failed"], 0)
        self.assertFalse(verify["correct"])

    def test_wrong_weinstein_series_fails_chain(self):
        workload = tiny("chain")
        dbw = workload.prog.dbw
        real = dbw.weinstein_series

        def wrong(k, order):
            s = real(k, order)
            return type(s)(s.coeffs[:-1] + (s.coeffs[-1] + 1,), s.var)

        with mock.patch.object(dbw, "weinstein_series", wrong):
            result = one_round(workload)
        self.assertEqual(result["failed"], sum(n - 1 for n in workload.orders))
        self.assertFalse(result["correct"])

    def test_missing_certificate_fails_gosper(self):
        workload = tiny("gosper")
        with mock.patch.object(workload.prog.hypsum, "gosper", lambda ratio: None):
            result = one_round(workload)
        summable = sum(1 for t in workload.terms if t[0] == "summable")
        self.assertEqual(result["failed"], summable)

    def test_raising_operation_counts_as_failed_not_wrong(self):
        workload = tiny("gosper")

        def broken(ratio):
            raise ArithmeticError("injected")

        with mock.patch.object(workload.prog.hypsum, "gosper", broken):
            result = one_round(workload)
        self.assertEqual(result["failed"], len(workload.terms))
        self.assertTrue(result["correct"])


class Tracing(unittest.TestCase):
    def test_traced_rounds_record_layers_and_uninstall(self):
        workload = tiny("chain")
        poly_mul = workload.prog.exact.Poly.__mul__
        with tempfile.TemporaryDirectory() as tmp:
            result = run_traced(workload, Path(tmp) / "trace.jsonl")
        self.assertEqual(result["failed"], 0)
        self.assertIs(workload.prog.exact.Poly.__mul__, poly_mul)
        layers = result["per_layer"]
        self.assertGreater(layers["exact.poly_mul.calls"], 0)
        self.assertGreaterEqual(layers["series.koebe_chain.calls"], len(workload.orders))
        self.assertGreater(layers["dbw.memo.lookups"], 0)
        self.assertAlmostEqual(
            layers["trace.overhead_s"], layers["trace.run_s"] - layers["trace.untraced_run_s"]
        )

    def test_self_time_within_span(self):
        workload = tiny("gosper")
        tracer = Tracer()
        tracer.install(workload.prog.mods)
        try:
            one_round(workload)
        finally:
            tracer.uninstall()
        for name, (calls, self_s, total_s) in tracer.stats.items():
            self.assertLessEqual(self_s, total_s + 1e-9, name)


if __name__ == "__main__":
    unittest.main()
