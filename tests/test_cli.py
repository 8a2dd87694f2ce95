"""Command line contract: formats, determinism, exit codes."""

import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

from debranges import cli, dbw, hypsum, lowner, orthopoly
from debranges.exact import Poly, RationalFunction, format_rational
from debranges.series import ZSeries


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_lowner_csv(self, capsys):
        code, out, _ = run(capsys, "table", "lowner", "--n", "3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,j,value"
        assert "3,2,-8" in lines
        assert "3,3,5" in lines
        assert len(lines) == 1 + 6  # header + triangle of size 3

    def test_lambda_json(self, capsys):
        code, out, _ = run(capsys, "table", "lambda", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "lambda"
        entries = {(e["n"], e["k"], e["j"]): e["value"] for e in payload["entries"]}
        assert entries[(2, 1, 1)] == "4"
        assert entries[(2, 1, 2)] == "-4"
        assert entries[(2, 2, 2)] == "1"

    def test_tau_rows(self, capsys):
        code, out, _ = run(capsys, "table", "tau", "--n", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,j,value"
        assert "2,1,1,4" in lines
        assert "2,1,2,-2" in lines

    def test_row_order_lexicographic(self, capsys):
        _, out, _ = run(capsys, "table", "lambda", "--n", "4", "--format", "csv")
        indices = [
            tuple(int(v) for v in line.split(",")[:3])
            for line in out.splitlines()[1:]
        ]
        assert indices == sorted(indices)

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "table", "tau", "--n", "6", "--format", "json")
        _, second, _ = run(capsys, "table", "tau", "--n", "6", "--format", "json")
        assert first == second

    def test_csv_and_json_agree(self, capsys):
        _, csv_out, _ = run(capsys, "table", "lowner", "--n", "5", "--format", "csv")
        _, json_out, _ = run(capsys, "table", "lowner", "--n", "5", "--format", "json")
        csv_values = {
            tuple(line.split(",")[:2]): line.split(",")[2]
            for line in csv_out.splitlines()[1:]
        }
        payload = json.loads(json_out)
        for entry in payload["entries"]:
            assert csv_values[(str(entry["n"]), str(entry["j"]))] == entry["value"]

    def test_float_rendering(self, capsys):
        _, out, _ = run(capsys, "table", "lowner", "--n", "2", "--float")
        assert "2,2,-2" in out  # integral values render exactly in binary64

    def test_bad_kind_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table", "nosuch", "--n", "3"])
        assert excinfo.value.code == 2

    def test_n_below_one_prints_the_table_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table", "tau", "--n", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: debranges table")
        assert "debranges table: error: --n must be at least 1" in err

    def test_n_over_the_limit_prints_the_table_usage(self, capsys):
        n = cli.TABLE_N_LIMIT + 1
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table", "lowner", "--n", str(n)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: debranges table")
        assert f"debranges table: error: --n {n} is over the limit of 100" in err


class TestEval:
    def test_tau_at_time_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "tau", "--n", "2", "--k", "1", "--y", "1")
        assert code == 0 and out == "2\n"

    def test_lambda_exact(self, capsys):
        code, out, _ = run(
            capsys, "eval", "lambda", "--n", "3", "--k", "1", "--y", "1/2"
        )
        assert code == 0 and out == "7/8\n"

    def test_chain_coefficient(self, capsys):
        code, out, _ = run(capsys, "eval", "A", "--n", "1", "--y", "1/3")
        assert code == 0 and out == "1/3\n"

    def test_float_path(self, capsys):
        import math

        code, out, _ = run(capsys, "eval", "A", "--n", "2", "--t", "0.25")
        assert code == 0
        y = math.exp(-0.25)
        assert abs(float(out) - (2 * y - 2 * y * y)) < 1e-15

    def test_float_path_rounds_exact_value_once(self, capsys):
        # binary64 Horner on A(40)'s alternating coefficients printed 1.7e11
        code, out, _ = run(capsys, "eval", "A", "--n", "40", "--t", "0.001")
        assert code == 0
        exact = lowner.chain_poly(40)(Fraction(math.exp(-0.001)))
        assert float(out) == float(exact) == 0.0007748081369449619

    @pytest.mark.parametrize("option, value", [("--y", "-1/2"), ("--t", "-1e-3")])
    def test_value_starting_with_minus_reaches_its_option(self, capsys, option, value):
        # argparse alone reads -1/2 and -1e-3 as options: "expected one argument"
        glued = run(capsys, "eval", "A", "--n", "3", f"{option}={value}")
        assert run(capsys, "eval", "A", "--n", "3", option, value) == glued
        assert glued[0] == 0 and glued[2] == ""
        if option == "--y":
            assert glued[1] == "-33/8\n"

    def test_missing_value_before_an_option_keeps_its_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", "A", "--n", "3", "--y", "--t", "1"])
        assert excinfo.value.code == 2
        assert "argument --y: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [["A", "--n", "3"], ["W", "--k", "1", "--order", "4"]])
    def test_nonfinite_time_point_exits_2(self, capsys, kind):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", *kind, "--t=-1000"])
        assert excinfo.value.code == 2
        assert "not a finite binary64 number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind",
        [["A", "--n", "50", "--y", str(10**100)], ["W", "--k", "1", "--order", "30", "--y", str(10**200)]],
        ids=["A", "W"],
    )
    def test_exact_value_too_long_to_print_exits_2(self, capsys, kind):
        # str() refuses the value; the message is gosper's, with no usage line
        code, out, err = run(capsys, "eval", *kind)
        assert (code, out) == (2, "")
        assert err == f"error: result has an integer of more than {sys.get_int_max_str_digits()} digits\n"

    def test_weinstein_series_lines(self, capsys):
        code, out, _ = run(
            capsys, "eval", "W", "--k", "1", "--order", "4", "--y", "1/2"
        )
        assert code == 0
        rows = dict(line.split(",") for line in out.splitlines())
        assert rows["2"] == "1/2"  # Lambda(1,1) = y at 1/2
        assert rows["3"] == "1"  # Lambda(2,1) = 4y - 4y^2 at 1/2

    @pytest.mark.parametrize("kind", ["W", "B"])
    def test_order_over_the_limit_exits_2(self, capsys, kind):
        order = cli.SERIES_ORDER_LIMIT + 1
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", kind, "--k", "1", "--order", str(order), "--y", "1/2"])
        assert excinfo.value.code == 2
        assert f"--order {order} is over the limit of 60" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [["A"], ["tau", "--k", "1"], ["lambda", "--k", "1"]])
    def test_n_over_the_limit_exits_2(self, capsys, kind):
        n = cli.EVAL_N_LIMIT + 1
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", *kind, "--n", str(n), "--y", "1/2"])
        assert excinfo.value.code == 2
        assert f"--n {n} is over the limit of 500" in capsys.readouterr().err

    def test_n_below_one_names_the_option_for_a_only(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", "A", "--n", "0", "--y", "1/2"])
        assert excinfo.value.code == 2
        assert "debranges eval: error: --n must be at least 1" in capsys.readouterr().err
        # T(0, 1) = 0 by design
        assert run(capsys, "eval", "tau", "--n", "0", "--k", "1", "--y", "1/2")[:2] == (0, "0\n")

    def test_n_at_the_limit_is_taken(self, capsys):
        n = cli.EVAL_N_LIMIT
        code, out, _ = run(capsys, "eval", "lambda", "--n", str(n), "--k", str(n), "--y", "1")
        assert code == 0 and out == "1\n"  # L(n, n) = y^n

    @pytest.mark.parametrize(
        "argv",
        [
            ["tau", "--n", "2", "--y", "1"],  # a missing index
            ["tau", "--n", "2", "--k", "5", "--y", "1"],  # an index out of range
            ["A", "--n", "501", "--y", "1"],  # over the --n limit
            ["W", "--k", "1", "--y", "1"],  # a missing order
        ],
    )
    def test_errors_print_the_eval_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: debranges eval")
        assert "debranges eval: error: " in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["A", "--n", "3", "--k", "2"], "--k"),
            (["tau", "--n", "3", "--k", "1", "--order", "4"], "--order"),
            (["lambda", "--n", "3", "--k", "1", "--order", "4"], "--order"),
            (["W", "--k", "1", "--order", "3", "--n", "9"], "--n"),
            (["B", "--k", "1", "--order", "3", "--n", "9"], "--n"),
        ],
        ids=["A", "tau", "lambda", "W", "B"],
    )
    def test_an_option_the_kind_does_not_read_is_refused(self, capsys, argv, option):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", *argv, "--y", "1/2"])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: debranges eval")
        assert err.endswith(f"debranges eval: error: eval {argv[0]} does not take {option}\n")

    def test_requires_evaluation_point(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", "A", "--n", "2"])
        assert excinfo.value.code == 2

    def test_missing_index_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", "tau", "--n", "2", "--y", "1"])
        assert excinfo.value.code == 2

    def test_out_of_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["eval", "tau", "--n", "2", "--k", "5", "--y", "1"])
        assert excinfo.value.code == 2


class TestVerify:
    def test_n_below_one_prints_the_verify_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "positivity", "--n", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: debranges verify")
        assert "debranges verify: error: --n must be at least 1" in err

    def test_n_over_the_limit_prints_the_verify_usage(self, capsys):
        n = cli.VERIFY_N_LIMIT + 1
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "lowner", "--n", str(n)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: debranges verify")
        assert f"debranges verify: error: --n {n} is over the limit of 100" in err

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "verify", "theorem2", "--n", "6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"suite", "n_max", "checks", "pass"}
        assert payload["pass"] is True
        assert payload["suite"] == "theorem2"
        for check in payload["checks"]:
            assert set(check) == {"id", "indices", "pass", "witness"}
            assert check["pass"] is True and check["witness"] is None

    def test_positivity_witness_names_the_value_on_the_one_grid(self, capsys, monkeypatch):
        real = dbw.weinstein_poly
        bump = Poly([0, 0, 0, 0, 0, 0, -2], "y")  # degree 6, over n = 5

        def broken(n, k):
            # L(5, 2) - 2y^6 is negative at y = 9/10 alone on the grid
            return real(n, k) + bump if (n, k) == (5, 2) else real(n, k)

        want = broken(5, 2)(Fraction(9, 10))
        assert want < 0 and broken(5, 2).degree <= 8
        # T(5, 2) is read off L(5, 2): empty the memos, so that both are the
        # broken ones here and the true ones after
        dbw.weinstein_poly.cache_clear()
        dbw.debranges_poly.cache_clear()
        monkeypatch.setattr(dbw, "weinstein_poly", broken)
        try:
            code, out, _ = run(capsys, "verify", "positivity", "--n", "8")
        finally:
            dbw.debranges_poly.cache_clear()
        assert code == 1
        [check] = json.loads(out)["checks"]
        assert check["id"] == "positivity-scan" and not check["pass"]
        assert f"weinstein(n=5, k=2) at y=9/10 -> {format_rational(want)}" in check["witness"]

    def test_positivity_witness_joins_the_first_five_violations(self, capsys, monkeypatch):
        real = dbw.weinstein_poly

        def broken(n, k):
            # L(n, k) - 1000y is negative on the whole grid at (7, 2) and (9, 3)
            return real(n, k) - Poly([0, 1000], "y") if (n, k) in ((7, 2), (9, 3)) else real(n, k)

        dbw.weinstein_poly.cache_clear()
        dbw.debranges_poly.cache_clear()
        monkeypatch.setattr(dbw, "weinstein_poly", broken)
        try:
            code, out, _ = run(capsys, "verify", "positivity", "--n", "12")
        finally:
            dbw.debranges_poly.cache_clear()
        assert code == 1
        [check] = json.loads(out)["checks"]
        witnesses = check["witness"].split("; ")
        assert len(witnesses) == 5
        assert witnesses[0] == "weinstein(n=7, k=2) at y=1/10 -> -494654351/5000000"
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "3dbef86b8db0ef26b406865cd2957c7fe22ca4077c8e0c478e69c72c3beafb75"

    def test_askey_gasper_witness_names_first_failure(self, capsys, monkeypatch):
        real = orthopoly.jacobi_partial_sum_poly

        def broken(n, alpha):
            # 4 - 10x: zero at x = 2/5, and -1 at x = 1/2, the first failing x
            return Poly([4, -10], "x") if n >= 3 else real(n, alpha)

        monkeypatch.setattr(orthopoly, "jacobi_partial_sum_poly", broken)
        code, out, _ = run(capsys, "verify", "askey-gasper", "--n", "5")
        assert code == 1
        checks = json.loads(out)["checks"]
        failed = {
            (c["id"], tuple(c["indices"])): c["witness"]
            for c in checks if not c["pass"] and c["id"] == "jacobi-partial-sums"
        }
        assert failed == {
            ("jacobi-partial-sums", (k,)): "n=3, x=1/2: -1" for k in range(9)
        }
        # the factorization check reads the same partial sums, and fails too
        others = {c["id"] for c in checks if not c["pass"]} - {"jacobi-partial-sums"}
        assert others == {"jacobi-decomposition"}

    def test_closed_vs_recurrence_witness_names_first_failure(
        self, capsys, monkeypatch
    ):
        real = lowner.coeff_closed

        def broken(n, j):
            # a(4, 2) = -20 and a(4, 3) = 30, each moved by 1/3
            shifted = (n, j) in ((4, 2), (4, 3))
            return real(n, j) + Fraction(1, 3) if shifted else real(n, j)

        monkeypatch.setattr(lowner, "coeff_closed", broken)
        code, out, _ = run(capsys, "verify", "lowner", "--n", "5")
        assert code == 1
        failed = {
            (c["id"], tuple(c["indices"])): c["witness"]
            for c in json.loads(out)["checks"] if not c["pass"]
        }
        assert failed == {("closed-vs-recurrence", (4,)): "(n,j)=(4,2): -59/3 != -20"}

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "gosper", "--n", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "id,indices,pass,witness"
        assert all(line.split(",")[2] == "true" for line in lines[1:])

    def test_all_suites_pass_small(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--n", "8", "--format", "json")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_every_check_is_made_by_report_add(self, monkeypatch):
        real_add, suites = cli.Report.add, []

        def add(report, *args):
            suites.append(report.suite)
            real_add(report, *args)

        monkeypatch.setattr(cli.Report, "add", add)
        report = cli.run_suite("all", 2)
        # once in its own suite's report, then once more in the combined one
        assert suites.count("all") == len(report.checks) > 0
        assert len(suites) == 2 * len(report.checks)

    def test_failure_exits_1(self, capsys, monkeypatch):
        def broken(n_max):
            report = cli.Report("lowner", n_max, [])
            report.add("synthetic", [1], "forced failure")
            return report

        monkeypatch.setitem(cli._SUITES, "lowner", broken)
        code, out, _ = run(capsys, "verify", "lowner", "--n", "3")
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        assert payload["checks"][0]["witness"] == "forced failure"

    def test_a_check_passes_exactly_when_it_has_no_witness(self, capsys, monkeypatch):
        def mixed(n_max):
            report = cli.Report("lowner", n_max, [])
            report.add("held", [1], None)
            report.add("failed", [2], "n=2: 1 != 0")
            report.add("held", [3], None)
            return report

        monkeypatch.setitem(cli._SUITES, "lowner", mixed)
        code, out, _ = run(capsys, "verify", "lowner", "--n", "3")
        assert code == 1
        checks = json.loads(out)["checks"]
        assert [(c["pass"], c["witness"]) for c in checks] == [
            (True, None), (False, "n=2: 1 != 0"), (True, None)
        ]
        code, out, _ = run(capsys, "verify", "lowner", "--n", "3", "--format", "csv")
        assert code == 1
        assert out.splitlines()[1:] == [
            "held,1,true,", "failed,2,false,n=2: 1 != 0", "held,3,true,"
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 30])
    def test_each_suite_alone_equals_its_slice_of_all(self, n):
        # at small n the capped sweeps shrink and those from 2 up are empty
        checks = json.loads(cli.run_suite("all", n).to_json())["checks"]
        sliced = 0
        for suite in cli._SUITES:
            prefix = f"{suite}/"
            part = [
                {**c, "id": c["id"][len(prefix):]} for c in checks if c["id"].startswith(prefix)
            ]
            alone = json.loads(cli.run_suite(suite, n).to_json())
            assert (alone["suite"], alone["n_max"], alone["checks"]) == (suite, n, part)
            sliced += len(part)
        assert (len(cli._SUITES), sliced) == (8, len(checks))

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "nosuch"])
        assert excinfo.value.code == 2

    def test_theorem2_witness_names_first_failure(self, capsys, monkeypatch):
        real = dbw.debranges_poly

        def broken(n, k):
            # twice the true T(4, 2) and T(4, 3)
            return real(n, k) * 2 if (n, k) in ((4, 2), (4, 3)) else real(n, k)

        monkeypatch.setattr(dbw, "debranges_poly", broken)
        code, out, _ = run(capsys, "verify", "theorem2", "--n", "5")
        assert code == 1
        failed = {
            (c["id"], tuple(c["indices"])): c["witness"]
            for c in json.loads(out)["checks"] if not c["pass"]
        }
        assert failed == {
            ("slope-identity", (4,)): (
                "(n,k)=(4,2): -112*y^4 + 192*y^3 - 84*y^2"
                " != -56*y^4 + 96*y^3 - 42*y^2"
            ),
            ("initial-value", (4,)): "(n,k)=(4,2): 6 != 3",
            ("slope-parity", (4,)): "(n,k)=(4,2): -4 != -2",
        }

    def test_weinstein_series_witness_names_first_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(dbw, "weinstein_series", _doubled_at_z4(dbw.weinstein_series))
        code, out, _ = run(capsys, "verify", "theorem2", "--n", "4")
        assert code == 1
        failed = {
            (c["id"], tuple(c["indices"])): c["witness"]
            for c in json.loads(out)["checks"] if not c["pass"]
        }
        assert failed == {
            ("weinstein-series-vs-closed", (1,)): (
                "n=3: 30*y^3 - 48*y^2 + 20*y != 15*y^3 - 24*y^2 + 10*y"
            ),
            ("weinstein-series-vs-closed", (2,)): "n=3: -12*y^3 + 12*y^2 != -6*y^3 + 6*y^2",
            ("weinstein-series-vs-closed", (3,)): "n=3: 2*y^3 != y^3",
        }

    def test_generating_coefficients_witness_names_first_failure(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            dbw, "debranges_generating_series", _doubled_at_z4(dbw.debranges_generating_series)
        )
        code, out, _ = run(capsys, "verify", "theorem3", "--n", "4")
        assert code == 1
        # y-expansion reads the same series; K(z) w^4 starts at z^5
        failed = {
            (c["id"], tuple(c["indices"])): c["witness"]
            for c in json.loads(out)["checks"] if not c["pass"]
        }
        assert failed == {
            ("generating-coefficients", (1,)): (
                "n=3: 10*y^3 - 24*y^2 + 20*y != 5*y^3 - 12*y^2 + 10*y"
            ),
            ("generating-coefficients", (2,)): "n=3: -8*y^3 + 12*y^2 != -4*y^3 + 6*y^2",
            ("generating-coefficients", (3,)): "n=3: 2*y^3 != y^3",
            ("y-expansion", (1,)): "y^1 z^4: 20 != 10",
            ("y-expansion", (2,)): "y^2 z^4: 12 != 6",
            ("y-expansion", (3,)): "y^3 z^4: 2 != 1",
        }

    def test_jacobi_decomposition_witness_names_first_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            dbw, "debranges_generating_series", _doubled_at_z4(dbw.debranges_generating_series)
        )
        code, out, _ = run(capsys, "verify", "askey-gasper", "--n", "3")
        assert code == 1
        failed = {
            (c["id"], tuple(c["indices"])): c["witness"]
            for c in json.loads(out)["checks"] if not c["pass"]
        }
        assert failed == {
            ("jacobi-decomposition", (1,)): (
                "z^4: 10*y^3 - 24*y^2 + 20*y != 5*y^3 - 12*y^2 + 10*y"
            ),
            ("jacobi-decomposition", (2,)): "z^4: -8*y^3 + 12*y^2 != -4*y^3 + 6*y^2",
            ("jacobi-decomposition", (3,)): "z^4: 2*y^3 != y^3",
        }

    def test_series_product_fault_is_named_by_jacobi_decomposition(self, capsys, monkeypatch):
        # the Jacobi-by-Gegenbauer product is the only series product in
        # verify; 1 added to its z^4 coefficient is y^k more in the right side
        # z^(k+1) y^k * product at z^(k+5), and each k must name that term
        real = ZSeries.__mul__

        def broken(self, other):
            product = real(self, other)
            if not isinstance(other, ZSeries) or product.order < 4:
                return product
            return ZSeries([c + 1 if m == 4 else c for m, c in enumerate(product.coeffs)])

        monkeypatch.setattr(ZSeries, "__mul__", broken)
        code, out, _ = run(capsys, "verify", "askey-gasper", "--n", "3")
        assert code == 1
        failed = {
            (c["id"], tuple(c["indices"])): c["witness"]
            for c in json.loads(out)["checks"] if not c["pass"]
        }
        assert failed == {
            ("jacobi-decomposition", (1,)): (
                "z^6: 42*y^5 - 140*y^4 + 180*y^3 - 112*y^2 + 35*y"
                " != 42*y^5 - 140*y^4 + 180*y^3 - 112*y^2 + 36*y"
            ),
            ("jacobi-decomposition", (2,)): (
                "z^7: 165*y^6 - 576*y^5 + 770*y^4 - 480*y^3 + 126*y^2"
                " != 165*y^6 - 576*y^5 + 770*y^4 - 480*y^3 + 127*y^2"
            ),
            ("jacobi-decomposition", (3,)): (
                "z^8: 429*y^7 - 1540*y^6 + 2106*y^5 - 1320*y^4 + 330*y^3"
                " != 429*y^7 - 1540*y^6 + 2106*y^5 - 1320*y^4 + 331*y^3"
            ),
        }

    def test_hypergeometric_witnesses_name_first_failure(self, capsys, monkeypatch):
        real = hypsum.pfq_terminating

        def broken(upper, lower, arg):
            # twice the true value of every series that stops after 2 or 3 terms
            value = real(upper, lower, arg)
            return value * 2 if {-2, -3} & set(upper) else value

        monkeypatch.setattr(hypsum, "pfq_terminating", broken)
        code, out, _ = run(capsys, "verify", "hypergeometric", "--n", "4")
        assert code == 1
        failed = {
            (c["id"], tuple(c["indices"])): c["witness"]
            for c in json.loads(out)["checks"] if not c["pass"]
        }
        assert failed == {
            ("chain-2f1", (3,)): "n=3: 10*y^3 - 16*y^2 + 6*y != 5*y^3 - 8*y^2 + 3*y",
            ("chain-2f1", (4,)): (
                "n=4: -28*y^4 + 60*y^3 - 40*y^2 + 8*y != -14*y^4 + 30*y^3 - 20*y^2 + 4*y"
            ),
            # k = 1 and k = 2 both fail at n = 4; the witness names k = 1
            ("weinstein-3f2", (3,)): (
                "(n,k)=(3,1): 30*y^3 - 48*y^2 + 20*y != 15*y^3 - 24*y^2 + 10*y"
            ),
            ("weinstein-3f2", (4,)): (
                "(n,k)=(4,1): -112*y^4 + 240*y^3 - 168*y^2 + 40*y"
                " != -56*y^4 + 120*y^3 - 84*y^2 + 20*y"
            ),
            ("gegenbauer-2f1", (3,)): "n=3: -x^3 + x != -1/2*x^3 + 1/2*x",
            ("gegenbauer-2f1", (4,)): (
                "n=4: -5/4*x^4 + 3/2*x^2 - 1/4 != -5/8*x^4 + 3/4*x^2 - 1/8"
            ),
        }

    def test_gosper_witnesses_name_the_failure(self, capsys, monkeypatch):
        real = hypsum.gosper
        l = Poly.variable("l")

        def broken(ratio):
            # twice the multiplier of the arithmetic series, and a made-up
            # certificate for the terms that have none
            cert = real(ratio)
            if cert is None:
                return hypsum.GosperCertificate(ratio, RationalFunction(l))
            if ratio == RationalFunction(l + 1, l):
                doubled = RationalFunction(2 * cert.multiplier.num, cert.multiplier.den)
                return hypsum.GosperCertificate(ratio, doubled)
            return cert

        def failures():
            code, out, _ = run(capsys, "verify", "gosper", "--n", "3")
            assert code == 1
            return {c["id"]: c["witness"] for c in json.loads(out)["checks"] if not c["pass"]}

        monkeypatch.setattr(hypsum, "gosper", broken)
        # s_l = 2 R(l) l = l (l+1), so s_1 - s_0 = 2 against b_1 = 1
        assert failures() == {
            "arithmetic-series": "l=1: 2 != 1",
            "factorial-not-summable": "unexpected R(l) = (l) / (1)",
            "inverse-factorial-not-summable": "unexpected R(l) = (l) / (1)",
        }
        monkeypatch.setattr(hypsum, "gosper", lambda ratio: None)
        assert failures() == {
            "telescoping-certificate": "not summable", "arithmetic-series": "not summable"
        }

    def test_gosper_certificate_with_a_pole_is_a_witness(self, capsys, monkeypatch):
        l = Poly.variable("l")
        pole = RationalFunction(Poly.const(1, "l"), l - 1)
        monkeypatch.setattr(hypsum, "gosper", lambda ratio: hypsum.GosperCertificate(ratio, pole))
        code, out, err = run(capsys, "verify", "gosper", "--n", "3")
        assert code == 1 and "Traceback" not in err
        checks = json.loads(out)["checks"]
        failed = {(c["id"], tuple(c["indices"])): c["witness"] for c in checks if not c["pass"]}
        pole_at_1, unexpected = "pole of R(l) at l=1", "unexpected R(l) = (1) / (l - 1)"
        # [j-1, n] holds l = 1 unless j = 3
        assert failed == {
            **{
                ("telescoping-certificate", (n, j)): pole_at_1
                for n, j in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2))
            },
            ("telescoping-certificate", (3, 3)): "l=3: 1/2 != 1",
            ("arithmetic-series", ()): pole_at_1,
            ("factorial-not-summable", ()): unexpected,
            ("inverse-factorial-not-summable", ()): unexpected,
        }
        assert len(failed) == len(checks)

    def _gegenbauer_failures(self, capsys):
        code, out, _ = run(capsys, "verify", "gegenbauer", "--n", "5")
        assert code == 1
        return {
            (c["id"], tuple(c["indices"])): c["witness"]
            for c in json.loads(out)["checks"] if not c["pass"]
        }

    def test_chain_difference_witness_names_first_failure(self, capsys, monkeypatch):
        real = orthopoly.to_y
        # the quotient (C_4 - C_3)/(x - 1) is the one of degree 3
        monkeypatch.setattr(orthopoly, "to_y", lambda p: real(p) * 2 if p.degree == 3 else real(p))
        assert self._gegenbauer_failures(capsys) == {
            ("chain-difference", (3,)): "n=3: 10*y^3 - 16*y^2 + 6*y != 5*y^3 - 8*y^2 + 3*y",
        }

    def test_expansion_at_one_witness_names_first_failure(self, capsys, monkeypatch):
        real = orthopoly.gegenbauer_minus_half
        monkeypatch.setattr(
            orthopoly, "gegenbauer_minus_half", lambda n: real(n) + 1 if n == 4 else real(n)
        )
        # C_4 + 1 also leaves a remainder in both chain differences that use it
        assert self._gegenbauer_failures(capsys) == {
            ("chain-difference", (3,)): "n=3: remainder 1 != 0",
            ("chain-difference", (4,)): "n=4: remainder -1 != 0",
            ("expansion-at-one", (4,)): (
                "n=4: -5/8*x^4 + 3/4*x^2 - 1/8 != -5/8*x^4 + 3/4*x^2 + 7/8"
            ),
        }

    def test_expansion_holding_at_n1_is_a_witness(self, capsys, monkeypatch):
        real = orthopoly.gegenbauer_minus_half
        one_minus_x = Poly([1, -1], "x")  # what the expansion gives at n = 1
        monkeypatch.setattr(
            orthopoly, "gegenbauer_minus_half", lambda n: one_minus_x if n == 1 else real(n)
        )
        assert self._gegenbauer_failures(capsys) == {
            ("expansion-at-one-fails-at-n1", (1,)): "n=1: the expansion reproduces -x + 1",
        }


def _doubled_at_z4(real):
    """A series function whose z^4 coefficient, the (n = 3)-term, is doubled."""

    def broken(k, order):
        coeffs = real(k, order).coeffs
        return ZSeries([c * 2 if m == 4 else c for m, c in enumerate(coeffs)])

    return broken


# sha256 of stdout, taken before the integer polynomial kernel; the output
# must stay byte-identical across refactors of the arithmetic
PINNED_STDOUT = [
    (["table", "tau", "--n", "60"],
     "bd4e32f59c9654621ad4f08d94ea1f012f59bfe0ca6c612a50c9937f23eb35d1"),
    (["verify", "all", "--n", "12"],
     "bca79f22b5f14df6b049ac52327b12e54c4dd50a72cdf3afcc07b77800401d3a"),
    (["verify", "all", "--n", "30"],
     "df0721d6eed0cf0ced5d3c22c2b96d4c1b179f09f28c362e6ad8875863166dea"),
    (["gosper", "(8-l)*binom(l+2,l-3)", "--var", "l", "--range", "3..7"],
     "4af29632a55eaaf20d2c32f4d98ae847741819508a9d4761b6a8d2925f9bd9d6"),
    (["table", "lambda", "--n", "60"],
     "88e1a5406763867e92e08182e32f25a0fabdd1fe71c06c689b5152c16ca165c9"),
    (["gosper", "1/((l+1)*(l+41))", "--var", "l", "--range", "1..40"],  # deg c = 40
     "83eda5000d8b457a6362d2e2d0fab9f029f75bfac2d3de212e595e4ab802b8ab"),
    (["gosper", "(30+1-l)*binom(l+20-1,l-20)", "--var", "l", "--range", "20..30"],
     "88bc93b42e79c214d5b95ac4f04b8cda0f91f8b1e91a2c5b589a5a329cf58dcf"),
    (["gosper", "(l+3)*(2/3)^l", "--var", "l", "--range", "2..12"],
     "d9900052a61ab8c4490b9ec5706d2ba4bf493f3cf7cffbf28cb704bac19352c6"),
    (["verify", "all", "--n", "60"],
     "341211ba63d6d7e7ba7b45413c083ef05ac6e8fb11683a39c0ac03b250edd80e"),
    # at n = 1 and 2 the min(3, n) and min(4, n) sweeps shrink, and the
    # sweeps that start at 2 are empty or hold one check
    (["verify", "all", "--n", "1"],
     "1842cf783a1fc44040278f51f338e16f67b7f173f9104f3991d00321b00a8ffa"),
    (["verify", "all", "--n", "2"],
     "bde91618b777403b7534fb35d9f254ffd654ee651e790b92acca6c8b982265df"),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_STDOUT,
    ids=["table", "verify", "verify-30", "gosper", "table-lambda",
         "gosper-deg-c-40", "gosper-weighted-binomial", "gosper-geometric", "verify-60",
         "verify-1", "verify-2"],
)
def test_stdout_is_byte_identical(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The usage of each parser as argparse prints it at 80 columns.
TOP_USAGE = "usage: debranges [-h] {table,eval,verify,gosper} ...\n"
TABLE_USAGE = (
    "usage: debranges table [-h] [--n N] [--format {csv,json}] [--float]\n"
    "                       {lowner,lambda,tau}\n"
)
EVAL_USAGE = (
    "usage: debranges eval [-h] [--n N] [--k K] [--order ORDER] (--y Y | --t T)\n"
    "                      {A,tau,lambda,W,B}\n"
)
VERIFY_USAGE = (
    "usage: debranges verify [-h] [--n N] [--format {csv,json}]\n"
    "                        {all,askey-gasper,gegenbauer,gosper,hypergeometric,lowner,positivity,"
    "theorem2,theorem3}\n"
)
GOSPER_USAGE = "usage: debranges gosper [-h] --var VAR [--range LO..HI] term\n"


def _usage_error(usage: str, message: str) -> str:
    """The stderr of a usage error: the usage, then `prog: error: message`."""
    prog = usage[len("usage: "):usage.index(" [")]
    return f"{usage}{prog}: error: {message}\n"


# Exit status and full stderr of each command line, taken before main read a
# line with its command's parser alone, except the six lines of the last group,
# which exited 0 with the option ignored.  A line that the command's parser
# leaves arguments of must still be reported by the top parser, with its usage.
DISPATCH = [
    # every command, run validly
    (["table", "lowner", "--n", "3"], 0, ""),
    (["table", "tau", "--n", "2", "--format", "json", "--float"], 0, ""),
    (["eval", "A", "--n", "3", "--y", "1/2"], 0, ""),
    (["eval", "tau", "--n", "3", "--k", "1", "--t", "0.5"], 0, ""),
    (["eval", "lambda", "--n", "3", "--k", "1", "--y", "-1/2"], 0, ""),
    (["eval", "W", "--k", "1", "--order", "3", "--y", "1/2"], 0, ""),
    (["eval", "B", "--k", "1", "--order", "3", "--t", "-0.5"], 0, ""),
    (["eval", "--n", "3", "A", "--y", "1/2"], 0, ""),
    (["verify", "lowner", "--n", "3"], 0, ""),
    (["verify", "gosper", "--n", "2", "--format", "csv"], 0, ""),
    (["gosper", "l", "--var", "l"], 0, ""),
    (["gosper", "l", "--var", "l", "--range", "-5..5"], 0, ""),
    (["gosper", "fact(l)", "--var", "l", "--range=0..4"], 0, ""),
    # no arguments, an unknown command, a top-level option before the command
    ([], 2, _usage_error(TOP_USAGE, "the following arguments are required: command")),
    (["nosuch"], 2,
     _usage_error(TOP_USAGE, "argument command: invalid choice: 'nosuch'"
                             " (choose from 'table', 'eval', 'verify', 'gosper')")),
    (["tab", "lowner"], 2,
     _usage_error(TOP_USAGE, "argument command: invalid choice: 'tab'"
                             " (choose from 'table', 'eval', 'verify', 'gosper')")),
    ([""], 2,
     _usage_error(TOP_USAGE, "argument command: invalid choice: ''"
                             " (choose from 'table', 'eval', 'verify', 'gosper')")),
    (["-1"], 2,
     _usage_error(TOP_USAGE, "argument command: invalid choice: '-1'"
                             " (choose from 'table', 'eval', 'verify', 'gosper')")),
    (["--foo"], 2, _usage_error(TOP_USAGE, "the following arguments are required: command")),
    (["--n", "3", "eval", "A", "--y", "1/2"], 2,
     _usage_error(TOP_USAGE, "argument command: invalid choice: '3'"
                             " (choose from 'table', 'eval', 'verify', 'gosper')")),
    (["-x", "table", "lowner"], 2, _usage_error(TOP_USAGE, "unrecognized arguments: -x")),
    (["--foo", "eval", "A", "--n", "3", "--y", "1/2"], 2,
     _usage_error(TOP_USAGE, "unrecognized arguments: --foo")),
    # -h and --help before and after a command
    (["-h"], 0, ""),
    (["--help"], 0, ""),
    (["-h", "eval"], 0, ""),
    (["--help", "table", "lowner"], 0, ""),
    (["eval", "-h"], 0, ""),
    (["table", "--help"], 0, ""),
    (["verify", "--help"], 0, ""),
    (["gosper", "-h"], 0, ""),
    (["eval", "A", "--help"], 0, ""),
    (["eval", "A", "--n", "3", "--y", "1/2", "-h"], 0, ""),
    (["--foo", "-h"], 0, ""),
    # -- at the start, the middle and the end
    (["--"], 2, _usage_error(TOP_USAGE, "the following arguments are required: command")),
    (["--", "eval", "A", "--n", "3", "--y", "1/2"], 2,
     _usage_error(TOP_USAGE, "argument command: invalid choice: '--'"
                             " (choose from 'table', 'eval', 'verify', 'gosper')")),
    (["eval", "--", "A", "--n", "3", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "one of the arguments --y --t is required")),
    (["eval", "A", "--n", "3", "--", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "one of the arguments --y --t is required")),
    (["eval", "A", "--n", "3", "--y", "1/2", "--"], 2,
     _usage_error(TOP_USAGE, "unrecognized arguments: --")),
    (["gosper", "--var", "l", "--", "l"], 0, ""),
    (["gosper", "--var", "l", "--", "-l"], 0, ""),
    (["table", "lowner", "--n", "2", "--"], 2,
     _usage_error(TOP_USAGE, "unrecognized arguments: --")),
    (["verify", "lowner", "--n", "3", "--", "extra"], 2,
     _usage_error(TOP_USAGE, "unrecognized arguments: -- extra")),
    # an extra positional argument and an unknown option
    (["eval", "A", "--n", "3", "--y", "1/2", "extra"], 2,
     _usage_error(TOP_USAGE, "unrecognized arguments: extra")),
    (["eval", "A", "--n", "3", "--y", "1/2", "--foo"], 2,
     _usage_error(TOP_USAGE, "unrecognized arguments: --foo")),
    (["table", "lowner", "lambda"], 2, _usage_error(TOP_USAGE, "unrecognized arguments: lambda")),
    (["verify", "lowner", "--n", "3", "--bogus", "1"], 2,
     _usage_error(TOP_USAGE, "unrecognized arguments: --bogus 1")),
    (["gosper", "l", "--var", "l", "x"], 2, _usage_error(TOP_USAGE, "unrecognized arguments: x")),
    (["table", "lowner", "--n", "3", "-q"], 2,
     _usage_error(TOP_USAGE, "unrecognized arguments: -q")),
    # an option prefix
    (["gosper", "l", "--var", "l", "--ran", "2..4"], 2,
     _usage_error(TOP_USAGE, "unrecognized arguments: --ran 2..4")),
    (["gosper", "l", "--var", "l", "--ran=-5..5"], 2,
     _usage_error(TOP_USAGE, "unrecognized arguments: --ran=-5..5")),
    (["verify", "lowner", "--n", "3", "--form", "csv"], 2,
     _usage_error(TOP_USAGE, "unrecognized arguments: --form csv")),
    (["eval", "W", "--k", "1", "--ord", "3", "--y", "1/2"], 2,
     _usage_error(TOP_USAGE, "unrecognized arguments: --ord 3")),
    (["table", "lowner", "--fl"], 2, _usage_error(TOP_USAGE, "unrecognized arguments: --fl")),
    # values that start with -
    (["eval", "A", "--n", "-3", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "--n must be at least 1")),
    (["eval", "A", "--n", "3", "--y", "-x"], 2,
     _usage_error(EVAL_USAGE, "argument --y: not a rational: '-x'")),
    (["eval", "A", "--n", "3", "--y", "--5"], 2,
     _usage_error(EVAL_USAGE, "argument --y: expected one argument")),
    (["eval", "A", "--n", "3", "--t", "-1e400"], 2,
     _usage_error(EVAL_USAGE, "y or the value at t = -inf is not a finite binary64 number")),
    (["eval", "-1", "--n", "3", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "argument kind: invalid choice: '-1'"
                              " (choose from 'A', 'tau', 'lambda', 'W', 'B')")),
    (["gosper", "-l", "--var", "l"], 2,
     _usage_error(GOSPER_USAGE, "the following arguments are required: term")),
    (["gosper", "l", "--var", "-l"], 2,
     _usage_error(GOSPER_USAGE, "argument --var: expected one argument")),
    (["gosper", "l", "--var", "l", "--range", "-5"], 2,
     _usage_error(GOSPER_USAGE, "argument --range: range must look like 3..7")),
    (["table", "lowner", "--n", "-2"], 2, _usage_error(TABLE_USAGE, "--n must be at least 1")),
    # the command's own usage errors
    (["eval"], 2, _usage_error(EVAL_USAGE, "the following arguments are required: kind")),
    (["table"], 2, _usage_error(TABLE_USAGE, "the following arguments are required: kind")),
    (["eval", "A", "--n", "3"], 2,
     _usage_error(EVAL_USAGE, "one of the arguments --y --t is required")),
    (["eval", "A", "--n", "3", "--y", "1/2", "--t", "1"], 2,
     _usage_error(EVAL_USAGE, "argument --t: not allowed with argument --y")),
    (["eval", "tau", "--n", "3", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "eval tau requires --k")),
    (["eval", "W", "--k", "1", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "eval W requires --k and --order")),
    (["eval", "W", "--k", "1", "--order", "61", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "--order 61 is over the limit of 60")),
    (["eval", "A", "--n", "501", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "--n 501 is over the limit of 500")),
    (["eval", "A", "--n", "3", "--y", "1/0"], 2,
     _usage_error(EVAL_USAGE, "argument --y: not a rational: '1/0'")),
    (["table", "tau", "--n", "0"], 2, _usage_error(TABLE_USAGE, "--n must be at least 1")),
    (["verify", "all", "--n", "101"], 2,
     _usage_error(VERIFY_USAGE, "--n 101 is over the limit of 100")),
    (["verify", "nosuch"], 2,
     _usage_error(VERIFY_USAGE, "argument suite: invalid choice: 'nosuch'"
                                " (choose from 'all', 'askey-gasper', 'gegenbauer', 'gosper',"
                                " 'hypergeometric', 'lowner', 'positivity', 'theorem2',"
                                " 'theorem3')")),
    (["gosper", "l", "--var", "l", "--range", "7..3"], 2,
     _usage_error(GOSPER_USAGE, "argument --range: range upper bound below lower bound")),
    (["gosper", "l"], 2,
     _usage_error(GOSPER_USAGE, "the following arguments are required: --var")),
    # an option that the kind of eval does not read
    (["eval", "A", "--n", "3", "--k", "2", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "eval A does not take --k")),
    (["eval", "A", "--n", "3", "--order", "4", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "eval A does not take --order")),
    (["eval", "tau", "--n", "3", "--k", "1", "--order", "4", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "eval tau does not take --order")),
    (["eval", "lambda", "--n", "3", "--k", "1", "--order", "4", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "eval lambda does not take --order")),
    (["eval", "W", "--k", "1", "--order", "3", "--n", "9", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "eval W does not take --n")),
    (["eval", "B", "--k", "1", "--order", "3", "--n", "9", "--y", "1/2"], 2,
     _usage_error(EVAL_USAGE, "eval B does not take --n")),

]


@pytest.mark.parametrize(
    "argv, code, err", DISPATCH, ids=[shlex.join(argv) or "(none)" for argv, _, _ in DISPATCH]
)
def test_dispatch_keeps_every_message(capsys, monkeypatch, argv, code, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    try:
        got = cli.main(list(argv))
    except SystemExit as exc:
        got = exc.code
    assert (got, capsys.readouterr().err) == (code, err)


VALID = [argv for argv, code, _ in DISPATCH if code == 0 and not {"-h", "--help"} & set(argv)]


@pytest.mark.parametrize("argv", VALID, ids=map(shlex.join, VALID))
def test_a_valid_line_is_parsed_once(capsys, monkeypatch, argv):
    parsed = []
    real = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsed.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert cli.main(list(argv)) == 0
    assert parsed == [f"debranges {argv[0]}"]


class TestGosper:
    def test_arithmetic_series(self, capsys):
        code, out, _ = run(capsys, "gosper", "l", "--var", "l")
        assert code == 0
        assert out == "R(l) = (1/2*l + 1/2) / (1)\n"

    def test_not_summable_sentinel_is_success(self, capsys):
        code, out, _ = run(capsys, "gosper", "fact(l)", "--var", "l")
        assert code == 0
        assert out.startswith("NOT GOSPER-SUMMABLE")

    def test_range_sum(self, capsys):
        code, out, _ = run(
            capsys, "gosper", "(8-l)*binom(l+2,l-3)", "--var", "l",
            "--range", "3..7",
        )
        assert code == 0
        assert out.splitlines()[1] == "sum[3..7] = 330"

    def test_parse_error_exit_2_with_position(self, capsys):
        code, out, err = run(capsys, "gosper", "fact(l", "--var", "l")
        assert code == 2
        assert "column 7" in err

    def test_semantic_error_exit_2(self, capsys):
        code, _, err = run(capsys, "gosper", "binom(l*l, 2)", "--var", "l")
        assert code == 2
        assert "column" in err

    def test_bad_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["gosper", "l", "--var", "l", "--range", "7..3"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["gosper", "l", "--var", "l", "--ran=-5..5"],
        ["gosper", "l", "--var", "l", "--ran", "-5..5"],
        ["gosper", "l", "--var", "l", "--ra", "2..4"],
        ["verify", "lowner", "--n", "3", "--form", "csv"],
    ])
    def test_option_prefixes_are_refused(self, capsys, argv):
        # main glues a value that starts with "-" to the full option name
        # only, so a prefix would read --ran=-5..5 and --ran -5..5 apart
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_not_summable_range_falls_back_to_direct_sum(self, capsys):
        code, out, _ = run(
            capsys, "gosper", "fact(l)", "--var", "l", "--range", "0..4"
        )
        assert code == 0
        assert out.splitlines()[1] == "sum[0..4] = 34"

    @pytest.mark.parametrize(
        "term, span, lines",
        [
            # R(l) has its pole at l = 9, where the term (9-l) l vanishes
            ("(9-l)*binom(l,l-1)", "2..9",
             ["R(l) = (1/3*l^2 - 4*l - 13/3) / (l - 9)", "sum[2..9] = 112"]),
            # the term is undefined at l = lo - 1 = -1
            ("l*fact(l)", "0..3", ["R(l) = (l + 1) / (l)", "sum[0..3] = 23"]),
            # R(l) has its pole at l = lo - 1 = 0: sum_(l=1..5) l*l! = 6! - 1
            ("l*fact(l)", "1..5", ["R(l) = (l + 1) / (l)", "sum[1..5] = 719"]),
        ],
    )
    def test_undefined_range_end_sums_directly(self, capsys, term, span, lines):
        code, out, err = run(capsys, "gosper", term, "--var", "l", "--range", span)
        assert (code, err) == (0, "")
        assert out.splitlines() == lines

    def test_pole_message_names_the_variable(self, capsys):
        # the factor is named in the term grammar, not by its record's repr
        code, out, err = run(capsys, "gosper", "1/n", "--var", "n", "--range=-2..2")
        assert (code, out) == (2, "NOT GOSPER-SUMMABLE\n")
        assert err == "error: pole of (n)^-1 at n = 0\n"

    @pytest.mark.parametrize("var, message", [
        ("2x", "the variable '2x' is not an identifier"),
        ("", "the variable '' is not an identifier"),
        ("l l", "the variable 'l l' is not an identifier"),
        ("fact", "the variable 'fact' is a function name"),
        ("binom", "the variable 'binom' is a function name"),
    ])
    def test_variable_that_cannot_be_one_exits_2(self, capsys, var, message):
        code, out, err = run(capsys, "gosper", "l", "--var", var)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_range_telescoped_across_a_pole_exits_2(self, capsys):
        # R(l) = -l telescopes the term, whose poles at l = -1 and l = 0 lie
        # between the ends of the range; the sum term by term fails at -1
        code, out, err = run(capsys, "gosper", "1/(l*(l+1))", "--var", "l", "--range=-3..4")
        assert (code, out) == (2, "R(l) = (-l) / (1)\n")
        assert err == "error: pole of (l + 1)^-1 at l = -1\n"

    def test_undefined_term_in_range_exits_2(self, capsys):
        code, out, err = run(capsys, "gosper", "1/(l-3)", "--var", "l", "--range", "1..5")
        assert code == 2
        assert out == "NOT GOSPER-SUMMABLE\n"
        assert err.startswith("error: pole of") and "at l = 3" in err

    @pytest.mark.parametrize(
        "term, code, out",
        [
            ("1/((l+1)*(l+1000003))", 2, ""),  # deg c about 10^6
            ("fact(l-1)/fact(l+999999)", 2, ""),  # degree bound about 10^6
            ("(l+123456789012)/(l+98765432109)", 0, "NOT GOSPER-SUMMABLE\n"),
            ("l*binom(3*l,l+1)^3", 0, "NOT GOSPER-SUMMABLE\n"),
            ("(l+1)^3000", 2, ""),  # 6000 linear factors in the quotient
            ("fact(3000*l)", 2, ""),  # 3000 linear factors
            ("2^(10000000*l)", 2, ""),  # a constant of 10^7 bits
            ("2^(20000*l)", 2, ""),
        ],
    )
    def test_large_dispersion_returns_within_a_second(self, term, code, out):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "debranges.cli", "gosper", term, "--var", "l"],
            capture_output=True, text=True, env=env, timeout=1,
        )
        assert (done.returncode, done.stdout) == (code, out)
        if code == 2:
            assert done.stderr.startswith("error: Gosper work limit")

    @pytest.mark.parametrize(
        "term, code, out",
        [
            ("l^3*2^(4000*l)", 2, ""),  # R(l) has integers past 4300 digits
            ("2^(5000*l)", 0, "R(l) = ("),
        ],
    )
    def test_output_too_long_to_print_exits_2(self, term, code, out):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "debranges.cli", "gosper", term, "--var", "l"],
            capture_output=True, text=True, env=env, timeout=1,
        )
        assert done.returncode == code and done.stdout.startswith(out)
        if code == 2:
            assert done.stdout == "" and done.stderr.startswith("error: ")
            assert "Traceback" not in done.stderr
            limit = sys.get_int_max_str_digits()
            assert done.stderr == f"error: result has an integer of more than {limit} digits\n"

    @pytest.mark.parametrize(
        "term, what",
        [("l*fact(1000000)", "factorial"), ("l*binom(2000000,1000000)", "binomial")],
    )
    def test_large_constant_exits_2_within_a_second(self, term, what):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "debranges.cli", "gosper", term, "--var", "l"],
            capture_output=True, text=True, env=env, timeout=1,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: column 3: constant {what} of more than 20000 bits\n"

    def test_long_range_after_a_pole_evaluates_few_terms(self, capsys, monkeypatch):
        real, calls = hypsum.term_value, []

        def counted(term, l):
            calls.append(l)
            return real(term, l)

        monkeypatch.setattr(hypsum, "term_value", counted)
        code, out, err = run(capsys, "gosper", "l*fact(l)", "--var", "l", "--range", "1..20000")
        assert code == 2 and out == "R(l) = (l + 1) / (l)\n"
        assert err == f"error: result has an integer of more than {sys.get_int_max_str_digits()} digits\n"
        assert sorted(calls) == [1, 1, 20000]  # R(0) is a pole, so b_0 is never needed

    @pytest.mark.parametrize("span", ["1..100001", "-100001..5", "3..10000000000000000000"])
    def test_range_end_over_the_limit_exits_2_before_any_term(self, capsys, monkeypatch, span):
        def refuse(*args):
            raise AssertionError("a term was computed")

        monkeypatch.setattr(hypsum, "term_value", refuse)
        monkeypatch.setattr(hypsum, "parse_term", refuse)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["gosper", "fact(l)", "--var", "l", f"--range={span}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: debranges gosper")
        assert f"range bounds must lie within -{cli.GOSPER_RANGE_LIMIT}..{cli.GOSPER_RANGE_LIMIT}" in err

    def test_range_with_a_negative_lo(self, capsys):
        code, out, err = run(capsys, "gosper", "l", "--var", "l", "--range", "-5..5")
        assert (code, out, err) == (0, "R(l) = (1/2*l + 1/2) / (1)\nsum[-5..5] = 0\n", "")

    def test_range_end_at_the_limit_is_summed(self, capsys):
        n = cli.GOSPER_RANGE_LIMIT
        code, out, err = run(capsys, "gosper", "l", "--var", "l", f"--range=-{n}..{n}")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"sum[-{n}..{n}] = 0"

    def test_too_many_terms_one_by_one_exits_2_before_summing(self, capsys, monkeypatch):
        limit = hypsum.GOSPER_TERMS_LIMIT
        code, out, _ = run(capsys, "gosper", "1/(l+1)", "--var", "l", "--range", f"1..{limit}")
        assert code == 0 and out.startswith("NOT GOSPER-SUMMABLE\nsum[")
        monkeypatch.setattr(hypsum, "term_value", None)  # never called
        code, out, err = run(capsys, "gosper", "fact(l)", "--var", "l", "--range", f"1..{limit + 1}")
        assert (code, out) == (2, "NOT GOSPER-SUMMABLE\n")
        assert err == f"error: the sum needs {limit + 1} terms one by one, over the limit of {limit}\n"

    def test_range_sum_too_long_to_print_exits_2(self, capsys):
        code, out, err = run(capsys, "gosper", "2^(10000*l)", "--var", "l", "--range", "0..2")
        assert code == 2 and out.startswith("R(l) = (") and out.count("\n") == 1
        assert err == f"error: result has an integer of more than {sys.get_int_max_str_digits()} digits\n"
