"""Fixed-point format and arithmetic primitive tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fxtanh.fxnum import (
    Fx,
    QFormat,
    RoundMode,
    abs_split,
    add_fx,
    mul_fx,
    ones_complement_sub1,
    quantize,
    requantize,
    sub_fx,
    to_real,
)

S3_12 = QFormat(True, 3, 12)
S_15 = QFormat(True, 0, 15)
U0_18 = QFormat(False, 0, 18)
U0_16 = QFormat(False, 0, 16)
U1_16 = QFormat(False, 1, 16)

TRUNC = RoundMode.TRUNCATE
NE = RoundMode.NEAREST_EVEN


def small_formats():
    return (
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=12),
        )
        .filter(lambda t: t[0] or t[1] + t[2] >= 1)
        .map(lambda t: QFormat(*t))
    )


class TestQFormat:
    def test_width_and_code_range(self):
        assert S3_12.width == 16
        assert S3_12.code_min == -(1 << 15)
        assert S3_12.code_max == (1 << 15) - 1
        assert U0_18.width == 18
        assert U0_18.code_min == 0
        assert U0_18.code_max == (1 << 18) - 1

    def test_value_range(self):
        assert S3_12.min_value == -8.0
        assert S3_12.max_value == 8.0 - 2.0 ** -12
        assert U0_18.max_value == 1.0 - 2.0 ** -18

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            QFormat(False, 0, 0)

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            QFormat(True, -1, 3)

    def test_spec_strings(self):
        assert str(S3_12) == "s3.12"
        assert str(S_15) == "s.15"
        assert str(U0_18) == "u0.18"

    def test_magnitude_format(self):
        assert S3_12.magnitude_format() == QFormat(False, 3, 12)
        with pytest.raises(ValueError):
            U0_18.magnitude_format()


class TestFx:
    def test_code_must_fit(self):
        for fmt in (S3_12, U0_18):
            Fx(fmt.code_max, fmt)
            Fx(fmt.code_min, fmt)
            for code in (fmt.code_min - 1, fmt.code_max + 1):
                with pytest.raises(ValueError, match="does not fit"):
                    Fx(code, fmt)

    def test_equality_requires_same_format(self):
        assert Fx(0, S3_12) != Fx(0, S_15)
        assert Fx(4096, S3_12) == Fx(4096, S3_12)

    def test_immutable(self):
        v = Fx(1, S3_12)
        with pytest.raises(AttributeError):
            v.code = 2
        with pytest.raises(AttributeError):
            v.fmt = S_15
        assert v.code == 1 and v.fmt is S3_12


class TestQuantize:
    def test_zero(self):
        assert quantize(0.0, S3_12, NE).code == 0

    def test_saturates_at_format_max(self):
        assert quantize(1.0, S_15, NE).code == 32767
        assert quantize(100.0, S3_12, NE).code == S3_12.code_max
        assert quantize(-100.0, S3_12, NE).code == S3_12.code_min

    def test_truncate_floors(self):
        # floor(0.3 * 4096) = 1228
        assert quantize(0.3, S3_12, TRUNC).code == 1228
        assert quantize(-0.3, S3_12, TRUNC).code == -1229

    def test_nearest_even_ties(self):
        fmt = QFormat(True, 2, 1)
        assert quantize(0.25, fmt, NE).code == 0   # 0.5 rounds to even 0
        assert quantize(0.75, fmt, NE).code == 2   # 1.5 rounds to even 2

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            quantize(float("nan"), S3_12, NE)

    def test_infinity_saturates(self):
        assert quantize(float("inf"), S3_12, NE).code == S3_12.code_max
        assert quantize(float("-inf"), S3_12, NE).code == S3_12.code_min


class TestToReal:
    def test_values(self):
        assert to_real(Fx(0, S3_12)) == 0.0
        assert to_real(Fx(4096, S3_12)) == 1.0
        assert to_real(Fx(-4096, S3_12)) == -1.0

    @given(small_formats(), st.integers())
    def test_round_trip_is_identity(self, fmt, raw):
        code = fmt.code_min + raw % (fmt.code_max - fmt.code_min + 1)
        v = Fx(code, fmt)
        for mode in RoundMode:
            assert to_real(quantize(to_real(v), fmt, mode)) == to_real(v)

    def test_round_trip_exhaustive_small(self):
        fmt = QFormat(True, 2, 5)
        for code in range(fmt.code_min, fmt.code_max + 1):
            v = Fx(code, fmt)
            for mode in RoundMode:
                assert quantize(to_real(v), fmt, mode) == v


class TestMul:
    def test_one_is_identity_up_to_rounding(self):
        one = Fx(1 << 16, U1_16)
        v = Fx(12345, U0_16)
        assert mul_fx(one, v, U0_16, TRUNC).code == v.code
        assert mul_fx(one, v, U0_16, NE).code == v.code

    def test_zero_annihilates(self):
        assert mul_fx(Fx(0, U0_16), Fx(9999, U0_16), U0_16, NE).code == 0

    def test_exact_dyadic_product(self):
        half = Fx(1 << 15, U0_16)
        r = mul_fx(half, half, U0_18, NE)
        assert r.code == 1 << 16    # 0.25 in u0.18
        assert to_real(r) == 0.25

    def test_saturates(self):
        big = Fx(S3_12.code_max, S3_12)
        assert mul_fx(big, big, S3_12, TRUNC).code == S3_12.code_max

    @given(
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.sampled_from([12, 16, 18]),
        st.sampled_from(list(RoundMode)),
    )
    def test_error_bound_against_exact_product(self, ca, cb, out_frac, mode):
        a, b = Fx(ca, U0_16), Fx(cb, U0_16)
        out_fmt = QFormat(False, 0, out_frac)
        r = mul_fx(a, b, out_fmt, mode)
        assume(0 < r.code < out_fmt.code_max)   # skip saturated corners
        exact = Fraction(ca * cb, 1 << 32)
        got = Fraction(r.code, 1 << out_frac)
        ulp = Fraction(1, 1 << out_frac)
        if mode is NE:
            assert abs(got - exact) <= ulp / 2
        else:
            assert 0 <= exact - got < ulp


class TestAddSub:
    def test_add_aligns_fractions_exactly(self):
        a = Fx(1 << 15, U0_16)        # 0.5
        b = Fx(1 << 16, U0_18)        # 0.25
        assert to_real(add_fx(a, b, U0_18, NE)) == 0.75

    def test_add_saturates(self):
        a = Fx(U0_16.code_max, U0_16)
        assert add_fx(a, a, U0_16, TRUNC).code == U0_16.code_max

    def test_sub_exact_when_fractions_match(self):
        a = Fx(1 << 16, U1_16)        # 1.0
        b = Fx(1 << 15, U1_16)        # 0.5
        assert to_real(sub_fx(a, b, U1_16, TRUNC)) == 0.5

    def test_sub_saturates_below_zero_for_unsigned(self):
        a = Fx(0, U0_16)
        b = Fx(1, U0_16)
        assert sub_fx(a, b, U0_16, TRUNC).code == 0


class TestOnesComplement:
    def test_complement_of_zero_is_all_ones(self):
        assert ones_complement_sub1(Fx(0, U0_18)).code == (1 << 18) - 1

    def test_complement_symmetry(self):
        assert ones_complement_sub1(Fx((1 << 18) - 1, U0_18)).code == 0

    def test_half(self):
        r = ones_complement_sub1(Fx(1 << 17, U0_18))
        assert to_real(r) == 0.5 - 2.0 ** -18

    def test_rejects_signed_or_integer_formats(self):
        with pytest.raises(ValueError):
            ones_complement_sub1(Fx(0, S_15))
        with pytest.raises(ValueError):
            ones_complement_sub1(Fx(0, U1_16))

    def test_equals_truncated_true_difference_minus_ulp(self):
        fmt = QFormat(False, 0, 8)
        for code in range(256):
            f = Fx(code, fmt)
            expected = quantize(1.0 - to_real(f) - 2.0 ** -8, fmt, TRUNC)
            assert ones_complement_sub1(f) == expected


class TestAbsSplit:
    def test_zero(self):
        assert abs_split(Fx(0, S3_12)) == (False, Fx(0, QFormat(False, 3, 12)))

    def test_negative(self):
        sign, mag = abs_split(quantize(-1.5, S3_12, NE))
        assert sign is True
        assert to_real(mag) == 1.5

    def test_most_negative_saturates(self):
        sign, mag = abs_split(Fx(S3_12.code_min, S3_12))
        assert sign is True
        assert to_real(mag) == 8.0 - 2.0 ** -12

    def test_rejects_unsigned(self):
        with pytest.raises(ValueError):
            abs_split(Fx(0, U0_18))

    def test_sign_reapply_identity_except_most_negative(self):
        fmt = QFormat(True, 2, 5)
        for code in range(fmt.code_min, fmt.code_max + 1):
            sign, mag = abs_split(Fx(code, fmt))
            restored = -mag.code if sign else mag.code
            if code == fmt.code_min:
                assert restored == -(fmt.code_max)
            else:
                assert restored == code


class TestRequantize:
    def test_widening_is_exact(self):
        v = Fx(12345, U0_16)
        assert to_real(requantize(v, U0_18, TRUNC)) == to_real(v)

    def test_narrowing_rounds(self):
        v = Fx(3, U0_18)
        assert requantize(v, U0_16, TRUNC).code == 0
        assert requantize(v, U0_16, NE).code == 1
