"""Fixed-point format, value and quantization tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fxtanh.fxnum import Fx, QFormat, RoundMode, quantize

S3_12 = QFormat(True, 3, 12)
S_15 = QFormat(True, 0, 15)
U0_18 = QFormat(False, 0, 18)

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

    @given(small_formats(), st.integers())
    def test_round_trip_is_identity(self, fmt, raw):
        code = fmt.code_min + raw % (fmt.code_max - fmt.code_min + 1)
        v = Fx(code, fmt)
        for mode in RoundMode:
            assert quantize(v.value, fmt, mode).value == v.value

    def test_round_trip_exhaustive_small(self):
        fmt = QFormat(True, 2, 5)
        for code in range(fmt.code_min, fmt.code_max + 1):
            v = Fx(code, fmt)
            for mode in RoundMode:
                assert quantize(v.value, fmt, mode) == v
