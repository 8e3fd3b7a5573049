"""Pipeline tests: velocity product, reciprocal, final stage, both variants."""

import hashlib
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxtanh.datapath import (
    NrSeed,
    Subtractor,
    TanhConfig,
    TanhTrace,
    Variant,
    build_luts_for,
    build_published_registers,
    final_stage,
    magnitude_outputs,
    nr_reciprocal,
    reference_config,
    tanh_fx,
    tanh_published,
    velocity_product,
)
from fxtanh.fxnum import Fx, QFormat, RoundMode, quantize, to_real
from fxtanh.lutgen import GroupingScheme, shuffle_map, velocity_factor

CFG = reference_config()
LUTS = build_luts_for(CFG)
MAG_FMT = CFG.input_fmt.magnitude_format()
OUT_ULP = CFG.output_fmt.ulp


def _in(value: float) -> Fx:
    return quantize(value, CFG.input_fmt, RoundMode.NEAREST_EVEN)


def _real_nr(d: float, stages: int, seed: NrSeed = NrSeed()) -> float:
    x = seed.c0 - seed.c1 * d
    for _ in range(stages):
        x = x * (2.0 - d * x)
    return x


class TestNrSeed:
    def test_default_stays_in_range(self):
        NrSeed()           # should not raise
        NrSeed(3.0, 2.0)   # boundary seed: x0 spans (1, 2]

    def test_rejects_seeds_leaving_the_reciprocal_range(self):
        with pytest.raises(ValueError):
            NrSeed(48 / 17, 32 / 17)   # x0 at d->1 is 16/17 < 1
        with pytest.raises(ValueError):
            NrSeed(3.2, 2.0)           # x0 at d=0.5 is 2.2 > 2
        with pytest.raises(ValueError):
            NrSeed(2.5, -1.0)


class TestConfigValidation:
    def test_reference_config(self):
        assert CFG.input_fmt == QFormat(True, 3, 12)
        assert CFG.output_fmt == QFormat(True, 0, 15)
        assert "s3.12" in CFG.describe()

    def test_rejects_unsigned_input(self):
        with pytest.raises(ValueError):
            reference_config(input_fmt=QFormat(False, 3, 12))

    def test_rejects_integer_bits_in_output(self):
        with pytest.raises(ValueError):
            reference_config(output_fmt=QFormat(True, 1, 14))

    def test_rejects_signed_lut_format(self):
        with pytest.raises(ValueError):
            reference_config(lut_fmt=QFormat(True, 0, 18))


class TestNrReciprocal:
    def test_exact_half_converges_to_two(self):
        d = Fx(1 << 16, QFormat(False, 0, 17))
        r = nr_reciprocal(d, 3, CFG)
        assert abs(to_real(r) - 2.0) <= CFG.mult_fmt.ulp

    def test_near_one_converges_to_one(self):
        d = Fx((1 << 17) - 1, QFormat(False, 0, 17))
        r = nr_reciprocal(d, 3, CFG)
        assert abs(to_real(r) - 1.0) <= 2 * CFG.mult_fmt.ulp

    def test_three_quarters_matches_real_arithmetic(self):
        d = Fx(3 << 15, QFormat(False, 0, 17))
        r = nr_reciprocal(d, 3, CFG)
        assert abs(to_real(r) - _real_nr(0.75, 3)) <= CFG.mult_fmt.ulp
        assert to_real(r) == pytest.approx(4.0 / 3.0, abs=2 * CFG.mult_fmt.ulp)

    def test_rejects_out_of_range_denominator(self):
        with pytest.raises(ValueError):
            nr_reciprocal(Fx(1 << 15, QFormat(False, 0, 17)), 3, CFG)  # 0.25
        with pytest.raises(ValueError):
            nr_reciprocal(Fx(1 << 16, QFormat(False, 1, 16)), 3, CFG)  # 1.0

    def test_zero_stages_returns_the_seed(self):
        d = Fx(3 << 15, QFormat(False, 0, 17))
        r = nr_reciprocal(d, 0, CFG)
        assert to_real(r) == pytest.approx(2.5 - 1.5 * 0.75, abs=2 * CFG.mult_fmt.ulp)

    @settings(max_examples=50)
    @given(st.integers(min_value=1 << 16, max_value=(1 << 17) - 1))
    def test_tracks_real_iteration_within_quantization_noise(self, code):
        d = Fx(code, QFormat(False, 0, 17))
        r = nr_reciprocal(d, 3, CFG)
        assert abs(to_real(r) - _real_nr(code / (1 << 17), 3)) <= 4 * CFG.mult_fmt.ulp

    def test_real_iteration_error_squares_each_stage(self):
        for i in range(256):
            d = 0.5 + i / 512
            errs = []
            x = 2.5 - 1.5 * d
            for _ in range(4):
                errs.append(1.0 - d * x)
                x = x * (2.0 - d * x)
            for e_prev, e_next in zip(errs, errs[1:]):
                if e_prev ** 2 >= 1e-12:
                    assert e_next == pytest.approx(e_prev ** 2, rel=0.1)


class TestVelocityProduct:
    def test_zero_magnitude_is_exact_one(self):
        assert velocity_product(Fx(0, MAG_FMT), CFG, LUTS) is None

    def test_single_set_bit_is_one_entry_requantized(self):
        mag = Fx(1 << 14, MAG_FMT)     # weight 4, alone in its group
        f = velocity_product(mag, CFG, LUTS)
        entry = quantize(velocity_factor(4.0), CFG.lut_fmt, RoundMode.NEAREST_EVEN)
        expected = max(entry.code, 1) >> (18 - 16)
        assert f.code in (expected, expected + 1)   # requantization rounding
        assert f.fmt == CFG.mult_fmt

    def test_unit_magnitude_tracks_exponential(self):
        f = velocity_product(Fx(1 << 12, MAG_FMT), CFG, LUTS)
        assert abs(to_real(f) - math.exp(-2.0)) <= 4 * CFG.mult_fmt.ulp

    def test_rejects_wrong_magnitude_format(self):
        with pytest.raises(ValueError):
            velocity_product(Fx(0, QFormat(False, 0, 15)), CFG, LUTS)

    def test_rejects_mismatched_luts(self):
        other = build_luts_for(reference_config(grouping=GroupingScheme(2, False)))
        with pytest.raises(ValueError):
            velocity_product(Fx(0, MAG_FMT), CFG, other)

    @settings(max_examples=200)
    @given(
        st.integers(min_value=0, max_value=(1 << 15) - 1),
        st.sampled_from([1, 2, 4]),
        st.booleans(),
    )
    def test_grouping_is_associativity_in_real_arithmetic(self, code, width, shuffle):
        # regrouping the per-bit product must not change it when nothing
        # is quantized
        per_bit = 1.0
        for i in range(15):
            if (code >> i) & 1:
                per_bit *= velocity_factor(2.0 ** (i - 12))
        grouped = 1.0
        for group in shuffle_map(15, width, shuffle):
            g = 1.0
            for i in group:
                if (code >> i) & 1:
                    g *= velocity_factor(2.0 ** (i - 12))
            grouped *= g
        assert abs(per_bit - grouped) <= 1e-12


class TestFinalStage:
    def test_exact_one_maps_to_zero(self):
        assert final_stage(None, CFG).code == 0

    def test_half_factor_gives_one_third(self):
        t = final_stage(Fx(1 << 15, CFG.mult_fmt), CFG)
        assert abs(to_real(t) - 1.0 / 3.0) <= 2 * OUT_ULP

    def test_subtractor_modes_differ_by_at_most_one_mult_ulp_propagated(self):
        ones_cfg = replace(CFG, subtractor=Subtractor.ONES)
        for code in range(1, 1 << 16, 251):
            f = Fx(code, CFG.mult_fmt)
            d = abs(final_stage(f, CFG).code - final_stage(f, ones_cfg).code)
            assert d * OUT_ULP <= CFG.mult_fmt.ulp + OUT_ULP / 2

    def test_oracle_divider_row(self):
        oracle_cfg = replace(CFG, nr_stages=0)
        f = Fx(1 << 15, CFG.mult_fmt)
        t = final_stage(f, oracle_cfg)
        assert t == quantize(1.0 / 3.0, CFG.output_fmt, RoundMode.NEAREST_EVEN)

    def test_rejects_wrong_product_format(self):
        with pytest.raises(ValueError):
            final_stage(Fx(1, CFG.lut_fmt), CFG)


class TestTanhFx:
    def test_zero_is_exact(self):
        assert tanh_fx(Fx(0, CFG.input_fmt), CFG, LUTS).code == 0

    def test_clamp_saturates_exactly(self):
        for v in (5.55, 6.0, 7.999):
            assert tanh_fx(_in(v), CFG, LUTS).code == CFG.output_fmt.code_max
            assert tanh_fx(_in(-v), CFG, LUTS).code == -CFG.output_fmt.code_max

    def test_most_negative_code_saturates(self):
        x = Fx(CFG.input_fmt.code_min, CFG.input_fmt)
        assert tanh_fx(x, CFG, LUTS).code == -CFG.output_fmt.code_max

    def test_unit_input_close_to_reference(self):
        y = tanh_fx(_in(1.0), CFG, LUTS)
        ref = quantize(math.tanh(1.0), CFG.output_fmt, RoundMode.NEAREST_EVEN)
        assert abs(y.code - ref.code) <= 2

    def test_luts_are_optional_for_the_reference_tables(self):
        assert tanh_fx(_in(0.5), CFG) == tanh_fx(_in(0.5), CFG, LUTS)

    def test_rejects_format_mismatch(self):
        with pytest.raises(ValueError):
            tanh_fx(Fx(0, QFormat(True, 2, 13)), CFG, LUTS)

    @settings(max_examples=300)
    @given(st.integers(min_value=-(1 << 15) + 1, max_value=(1 << 15) - 1))
    def test_odd_symmetry(self, code):
        pos = tanh_fx(Fx(code, CFG.input_fmt), CFG, LUTS)
        neg = tanh_fx(Fx(-code, CFG.input_fmt), CFG, LUTS)
        assert neg.code == -pos.code

    @settings(max_examples=200)
    @given(st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1))
    def test_error_stays_within_a_few_output_ulps(self, code):
        y = tanh_fx(Fx(code, CFG.input_fmt), CFG, LUTS)
        assert abs(to_real(y) - math.tanh(code * CFG.input_fmt.ulp)) <= 2 * OUT_ULP

    def test_trace_matches_plain_evaluation(self):
        trace = TanhTrace()
        x = _in(0.8125)
        y_traced = tanh_fx(x, CFG, LUTS, trace)
        y_plain = tanh_fx(x, CFG, LUTS)
        assert y_traced == y_plain == trace.output
        assert trace.magnitude.value == 0.8125
        assert len(trace.lut_addresses) == len(LUTS)
        assert len(trace.nr_iterates) == CFG.nr_stages + 1
        assert trace.factor is not None and trace.numerator is not None

    def test_trace_of_zero_shows_bypass(self):
        trace = TanhTrace()
        tanh_fx(Fx(0, CFG.input_fmt), CFG, LUTS, trace)
        assert trace.factor is None
        assert all(a == 0 for a in trace.lut_addresses)
        assert trace.output.code == 0


class TestPublishedVariant:
    PCFG = replace(CFG, variant=Variant.PUBLISHED)

    def test_zero_is_exact(self):
        assert tanh_fx(Fx(0, CFG.input_fmt), self.PCFG).code == 0

    def test_register_coverage(self):
        regs = build_published_registers(self.PCFG)
        # weights 2^-7 .. 2^2 of an s3.12 magnitude: ten registers
        assert regs.bit_indices == tuple(range(5, 15))
        assert len(regs.entries) == 10
        assert regs.fmt.width == self.PCFG.lut_fmt.width

    def test_low_bits_only_pass_through_exactly(self):
        # below the register threshold the whole input is the residual and
        # the correction reduces to the identity
        for code in (1, 7, 17, 31):
            x = Fx(code, CFG.input_fmt)
            y = tanh_fx(x, self.PCFG)
            assert to_real(y) == to_real(x)

    def test_unit_input_within_a_few_ulps(self):
        y = tanh_fx(_in(1.0), self.PCFG)
        ref = quantize(math.tanh(1.0), CFG.output_fmt, RoundMode.NEAREST_EVEN)
        assert abs(y.code - ref.code) <= 4

    def test_saturation_matches_optimized(self):
        assert tanh_fx(_in(6.5), self.PCFG).code == CFG.output_fmt.code_max

    def test_odd_symmetry(self):
        for v in (0.3, 1.7, 2.9):
            pos = tanh_fx(_in(v), self.PCFG)
            neg = tanh_fx(_in(-v), self.PCFG)
            assert neg.code == -pos.code

    def test_entry_points_agree(self):
        x = _in(1.25)
        regs = build_published_registers(self.PCFG)
        assert tanh_published(x, self.PCFG, regs) == tanh_fx(x, self.PCFG)

    def test_rejects_foreign_registers(self):
        other = build_published_registers(replace(self.PCFG, published_threshold=2.0 ** -5))
        with pytest.raises(ValueError):
            tanh_published(_in(1.0), self.PCFG, other)

    def test_narrow_entries_cannot_hold_the_factor_range(self):
        bad = replace(self.PCFG, lut_fmt=QFormat(False, 0, 10))
        with pytest.raises(ValueError):
            tanh_fx(Fx(0, CFG.input_fmt), bad)


class TestGoldenDigests:
    """Exhaustive outputs of the reference configuration, frozen bit for bit.

    The digest is the sha256 of the output codes as decimals joined by ','
    in input-code order.  A change that alters any output bit must say why.
    """

    @pytest.mark.parametrize("variant,prefix", [
        (Variant.OPTIMIZED, "6273da5e5e9c1f86"),
        (Variant.PUBLISHED, "bf4d6dd1f9d8af11"),
    ])
    def test_reference_outputs(self, variant, prefix):
        cfg = replace(CFG, variant=variant)
        fmt = cfg.input_fmt
        codes = [tanh_fx(Fx(c, fmt), cfg).code for c in range(fmt.code_min, fmt.code_max + 1)]
        assert hashlib.sha256(",".join(map(str, codes)).encode()).hexdigest().startswith(prefix)
        # the sweep path: one output per magnitude, sign restored per code
        mags = magnitude_outputs(cfg)
        assert [-mags[min(-c, len(mags) - 1)] if c < 0 else mags[c]
                for c in range(fmt.code_min, fmt.code_max + 1)] == codes


class TestStageMonotonicity:
    def test_more_stages_never_hurt_on_the_small_config(self):
        small = TanhConfig(
            input_fmt=QFormat(True, 3, 5),
            output_fmt=QFormat(True, 0, 7),
            lut_fmt=QFormat(False, 0, 10),
            mult_fmt=QFormat(False, 0, 8),
        )
        def max_err(cfg):
            worst = 0.0
            for code in range(cfg.input_fmt.code_min, cfg.input_fmt.code_max + 1):
                y = tanh_fx(Fx(code, cfg.input_fmt), cfg)
                worst = max(worst, abs(to_real(y) - math.tanh(code * cfg.input_fmt.ulp)))
            return worst
        assert max_err(replace(small, nr_stages=3)) <= max_err(replace(small, nr_stages=2))
