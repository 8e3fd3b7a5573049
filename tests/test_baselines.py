"""Comparison baseline tests: piecewise linear and Taylor."""

import math

import pytest

from fxtanh.baselines import PwlTable, pwl_tanh, taylor_tanh, uniform_pwl_table


class TestPwl:
    def test_exact_at_knots(self):
        table = uniform_pwl_table(0.25, 5.6)
        for x, y in table.knots:
            assert pwl_tanh(x, table) == y

    def test_zero(self):
        assert pwl_tanh(0.0, uniform_pwl_table()) == 0.0

    def test_midpoint_is_arithmetic_mean(self):
        table = PwlTable(((0.0, 0.0), (1.0, math.tanh(1.0)), (2.0, math.tanh(2.0))))
        mid = pwl_tanh(1.5, table)
        assert mid == pytest.approx((math.tanh(1.0) + math.tanh(2.0)) / 2, abs=1e-15)
        assert mid == pytest.approx(0.86281, abs=1e-4)

    def test_constant_beyond_last_knot(self):
        table = uniform_pwl_table(0.25, 2.0)
        assert pwl_tanh(50.0, table) == table.knots[-1][1]

    def test_odd_extension(self):
        table = uniform_pwl_table()
        assert pwl_tanh(-0.6, table) == -pwl_tanh(0.6, table)

    def test_error_bounded_between_knots(self):
        table = uniform_pwl_table(0.25, 5.6)
        worst = max(
            abs(pwl_tanh(i / 512, table) - math.tanh(i / 512))
            for i in range(0, 512 * 6)
        )
        # curvature bound: max|tanh''| * spacing^2 / 8
        assert worst <= 0.7699 * 0.25 ** 2 / 8

    def test_table_validation(self):
        with pytest.raises(ValueError):
            PwlTable(((0.5, 0.4),))                 # must start at origin
        with pytest.raises(ValueError):
            PwlTable(((0.0, 0.0), (0.0, 0.1)))      # ascending inputs
        with pytest.raises(ValueError):
            PwlTable(((0.0, 0.0), (1.0, -0.5)))     # nondecreasing values


class TestTaylor:
    def test_zero(self):
        assert taylor_tanh(0.0, 3) == 0.0

    def test_three_terms_small_input(self):
        # 0.1 - 0.1^3/3 + 2*0.1^5/15
        assert taylor_tanh(0.1, 3) == pytest.approx(0.09966800, abs=1e-8)

    def test_rejects_bad_term_counts(self):
        with pytest.raises(ValueError):
            taylor_tanh(0.5, 0)
        with pytest.raises(ValueError):
            taylor_tanh(0.5, 9)

    def test_large_inputs_degrade(self):
        err_small = abs(taylor_tanh(0.25, 3) - math.tanh(0.25))
        err_large = abs(taylor_tanh(2.0, 3) - math.tanh(2.0))
        assert err_large > 100 * err_small

    def test_four_terms_beat_three_for_small_inputs(self):
        for i in range(1, 65):
            x = i / 128            # (0, 0.5]
            e3 = abs(taylor_tanh(x, 3) - math.tanh(x))
            e4 = abs(taylor_tanh(x, 4) - math.tanh(x))
            assert e4 < e3
