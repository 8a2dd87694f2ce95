"""Chain coefficient triangle: recurrence, closed form, residuals."""

import sys
import threading
from fractions import Fraction

import pytest

from debranges.exact import Poly
from debranges.lowner import (
    chain_poly,
    coeff_closed,
    coeff_table,
    ode_residual,
    system_residual,
)
from debranges.series import koebe_chain


class TestRecurrenceTable:
    def test_first_column(self):
        table = coeff_table(12)
        for n in range(1, 13):
            assert table[(n, 1)] == n

    def test_diagonal_seed(self):
        assert coeff_table(2)[(2, 2)] == -2

    def test_hand_derived_row_three(self):
        # row rule: a(3,2) = (3-1+2)/(3-2) * a(2,2) = 4 * (-2) = -8
        # diagonal: a(3,3) = -2*5/4 * a(2,2) = -10/4 * (-2) = 5
        table = coeff_table(3)
        assert table[(3, 2)] == -8
        assert table[(3, 3)] == 5

    def test_out_of_triangle(self):
        table = coeff_table(5)
        with pytest.raises(KeyError):
            table[(3, 4)]
        with pytest.raises(KeyError):
            table[(6, 1)]

    def test_incremental_extension(self):
        small = coeff_table(4)
        large = coeff_table(9)
        assert large[(9, 5)] == coeff_closed(9, 5)
        assert small.n_max == 4 and large.n_max == 9

    def test_diagonal_sign_alternates(self):
        table = coeff_table(10)
        for j in range(1, 11):
            expected_sign = 1 if j % 2 == 1 else -1
            assert (table[(j, j)] > 0) == (expected_sign > 0)


class TestClosedForm:
    def test_base_value(self):
        assert coeff_closed(1, 1) == 1

    def test_matches_recurrence_oracle(self):
        assert coeff_closed(3, 3) == 5
        assert coeff_closed(3, 2) == -8

    def test_full_triangle_agreement(self):
        table = coeff_table(25)
        for n in range(1, 26):
            for j in range(1, n + 1):
                assert coeff_closed(n, j) == table[(n, j)]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            coeff_closed(3, 4)
        with pytest.raises(ValueError):
            coeff_closed(3, 0)


class TestChainPoly:
    def test_small_polynomials(self):
        assert chain_poly(1) == Poly.variable("y")
        assert chain_poly(2) == Poly([0, 2, -2], "y")
        assert chain_poly(3) == Poly([0, 3, -8, 5], "y")

    def test_value_at_time_zero(self):
        assert chain_poly(1)(1) == 1
        for n in range(2, 51):
            assert chain_poly(n)(1) == 0

    def test_matches_newton_series(self):
        w = koebe_chain(15)
        for n in range(1, 16):
            assert w.coefficient(n) == chain_poly(n)


class TestCachedRows:
    def test_cold_call_deeper_than_the_recursion_limit(self):
        # one recursion per row would need n frames; leave far fewer
        n = 400
        chain_poly.cache_clear()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            row = chain_poly(n)
        finally:
            sys.setrecursionlimit(limit)
        assert row(1) == 0
        for j in (1, 2, n // 2, n - 1, n):
            assert row.coeff(j) == coeff_closed(n, j)

    def test_each_row_is_built_once(self):
        chain_poly.cache_clear()
        coeff_table(30)
        assert chain_poly.cache_info().misses == 30

    def test_concurrent_cold_tables_agree_with_the_closed_form(self):
        n_max, workers = 40, 4
        chain_poly.cache_clear()
        start = threading.Barrier(workers)
        tables = [None] * workers

        def build(i):
            start.wait()
            tables[i] = coeff_table(n_max)

        threads = [threading.Thread(target=build, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        want = {(n, j): coeff_closed(n, j) for n in range(1, n_max + 1) for j in range(1, n + 1)}
        for table in tables:
            assert table.n_max == n_max and table.entries == want


class TestResiduals:
    def test_ode_residual_zero(self):
        for n in range(1, 26):
            assert ode_residual(n).is_zero()

    def test_ode_detector(self):
        # the same differential expression with a corrupted polynomial must
        # not vanish (+1 on the y^2 coefficient of B_2)
        bad = chain_poly(2) + Poly([0, 0, 1], "y")
        y = Poly.variable("y")
        one_minus_y = Poly([1, -1], "y")
        delta = (
            y * y * one_minus_y * bad.derivative().derivative()
            + y * one_minus_y * bad.derivative()
            + (4 * y - 1) * bad
        )
        assert not delta.is_zero()

    def test_system_residual_zero(self):
        for n in range(2, 26):
            assert system_residual(n).is_zero()

    def test_system_detector(self):
        bad = chain_poly(3) + Poly([0, 0, 1], "y")
        b2 = chain_poly(2)
        y = Poly.variable("y")
        residual = y * (bad.derivative() + b2.derivative()) - 3 * bad + 2 * b2
        assert not residual.is_zero()

    def test_system_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            system_residual(1)
