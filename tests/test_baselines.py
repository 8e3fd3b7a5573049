"""Comparison baseline tests: piecewise linear and Taylor.

``pwl_tanh`` and ``taylor_tanh`` are scalar references, one real input at
a time; the package computes both baselines column-wise over ranges of
magnitude codes (``_pwl_range``, ``_taylor_range``), and the tests below
hold those to the references bit for bit.
"""

import math
import random

import pytest

from fxtanh.analysis import _BLOCK
from fxtanh.baselines import _TAYLOR_COEFFS, PwlTable, _check_terms, _pwl_range, _taylor_range, uniform_pwl_table


def pwl_tanh(x: float, table: PwlTable) -> float:
    """Linear interpolation on |x| between bracketing knots, odd-extended.

    Inputs beyond the last knot return the last knot value (constant
    extension).
    """
    mag = abs(x)
    knots = table.knots
    if mag >= knots[-1][0]:
        y = knots[-1][1]
    else:
        lo, hi = 0, len(knots) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if knots[mid][0] <= mag:
                lo = mid
            else:
                hi = mid
        (x0, y0), (x1, y1) = knots[lo], knots[hi]
        y = y0 + (y1 - y0) * (mag - x0) / (x1 - x0)
    return -y if x < 0 else y


def taylor_tanh(x: float, terms: int) -> float:
    """Partial sum of the tanh Taylor series around zero, one term at a time."""
    acc = 0.0
    xsq = x * x
    power = x
    for k in range(terms):
        acc += _TAYLOR_COEFFS[k] * power
        power *= xsq
    return acc


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
        with pytest.raises(ValueError, match="need at least one term"):
            _check_terms(0)
        with pytest.raises(ValueError, match="at most 4 terms supported"):
            _check_terms(9)
        for terms in (1, 2, 3, 4):
            _check_terms(terms)

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


# magnitude ranges m0..m1 of s3.13 that start at 0, hold one code, hold none,
# or are not block-aligned
RAGGED = [(0, 1), (0, 7), (4095, 4096), (12345, 12346), (777, 777), (1234, 5678), (60000, 65537)]


def _codes(fn, ulp, scale, m0, m1):
    return [round(fn(m * ulp) * scale) for m in range(m0, m1)]


# scaled by 2**1000 every sum is an integer-valued float, so rounding keeps
# all of its bits: equal codes at this scale mean bit-identical sums
EXACT = 1 << 1000


class TestTaylorRange:
    # s3.13 input, s.16 output: the compare17 configuration
    ULP, SCALE = 2.0 ** -13, 1 << 16

    @pytest.mark.parametrize("terms", [1, 2, 3, 4])
    def test_every_s3_13_magnitude_matches_the_scalar_sum(self, terms):
        ref = _codes(lambda x: taylor_tanh(x, terms), self.ULP, self.SCALE, 0, 65537)
        assert _taylor_range(terms, self.ULP, self.SCALE, 0, 65537) == ref

    @pytest.mark.parametrize("terms", [1, 2, 3, 4])
    def test_every_s3_13_magnitude_matches_the_scalar_sum_unrounded(self, terms):
        ref = _codes(lambda x: taylor_tanh(x, terms), self.ULP, EXACT, 0, 65537)
        assert _taylor_range(terms, self.ULP, EXACT, 0, 65537) == ref

    @pytest.mark.parametrize("terms", [1, 2, 3, 4])
    def test_ragged_ranges(self, terms):
        for m0, m1 in RAGGED:
            ref = _codes(lambda x: taylor_tanh(x, terms), self.ULP, self.SCALE, m0, m1)
            assert _taylor_range(terms, self.ULP, self.SCALE, m0, m1) == ref, (m0, m1)

    @pytest.mark.parametrize("terms", [1, 2, 3, 4])
    def test_sampled_s3_20_blocks(self, terms):
        # s3.20 input, s.23 output: 2**23 magnitudes, a few whole blocks of them
        ulp, scale = 2.0 ** -20, 1 << 23
        rng = random.Random(terms)
        for m0 in [0, (1 << 23) - _BLOCK] + [rng.randrange(1 << 23) for _ in range(3)]:
            m1 = m0 + _BLOCK + 1
            ref = _codes(lambda x: taylor_tanh(x, terms), ulp, scale, m0, m1)
            assert _taylor_range(terms, ulp, scale, m0, m1) == ref, m0


class TestPwlRange:
    ULP, SCALE = 2.0 ** -13, 1 << 16

    @pytest.mark.parametrize("spacing,clamp", [(0.25, 5.9), (0.1, 5.9), (0.001, 2.0), (0.5, 9.0)])
    def test_matches_the_scalar_interpolation(self, spacing, clamp):
        # knots on input codes (0.25), between them (0.1), closer than one
        # input ulp (0.001), and a last knot beyond the input range (9.0)
        table = uniform_pwl_table(spacing, clamp)
        for scale in (self.SCALE, EXACT):
            for m0, m1 in RAGGED + [(0, 65537)]:
                ref = _codes(lambda x: pwl_tanh(x, table), self.ULP, scale, m0, m1)
                assert _pwl_range(table, self.ULP, scale, m0, m1) == ref, (scale, m0, m1)
