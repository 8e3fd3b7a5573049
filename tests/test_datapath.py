"""Pipeline tests: velocity product, reciprocal, final stage, both variants.

Stage-level tests read the intermediate values a ``TanhTrace`` records,
which come from the same tree tables and stages that untraced calls and
sweeps run.
"""

import hashlib
import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxtanh import datapath
from fxtanh.analysis import exhaustive_sweep, table2
from fxtanh.datapath import (
    NrSeed,
    Subtractor,
    TanhConfig,
    TanhTrace,
    Variant,
    _address_tables,
    _half_even,
    _Plan,
    _prepare,
    _published_registers,
    _split,
    _sweep_family,
    build_luts_for,
    magnitude_outputs,
    reference_config,
    tanh_fx,
)
from fxtanh.fxnum import Fx, QFormat, RoundMode, quantize
from fxtanh.lutgen import GroupingScheme, build_luts, shuffle_map, velocity_factor, velocity_factor_original

CFG = reference_config()
LUTS = build_luts_for(CFG)
MAG_FMT = CFG.input_fmt.magnitude_format()
OUT_ULP = CFG.output_fmt.ulp


def _in(value: float) -> Fx:
    return quantize(value, CFG.input_fmt, RoundMode.NEAREST_EVEN)


def _trace(code: int, cfg: TanhConfig = CFG) -> TanhTrace:
    """The trace of one input code, given as a magnitude or a signed code."""
    trace = TanhTrace()
    tanh_fx(Fx(code, cfg.input_fmt), cfg, None, trace)
    return trace


# unsaturated magnitudes of the reference configuration: 1 gives the
# largest denominator, HALF the factor nearest 0.5 (d nearest 0.75), and
# LAST the smallest factor and denominator
HALF = 1420
LAST = math.floor(math.atanh(1.0 - OUT_ULP) / CFG.input_fmt.ulp) - 1


def _real_nr(d: float, stages: int, seed: NrSeed = NrSeed()) -> float:
    x = seed.c0 - seed.c1 * d
    for _ in range(stages):
        x = x * (2.0 - d * x)
    return x


class TestRoundingIdiom:
    """``_half_even``'s ``(v + bias + (v >> s & odd)) >> s``, the rounding every kernel part inlines."""

    @pytest.mark.parametrize("nearest", [True, False])
    def test_matches_exact_rounding(self, nearest):
        rng = random.Random(nearest)
        for s in range(41):
            bias, odd = _half_even(s, nearest)
            half = 1 << s >> 1
            values = [rng.randrange(1 << 100) for _ in range(50)]
            # ties and their neighbours, above quotients from 0 to 100 - s bits wide
            values += [
                (k << s) + t
                for k in (0, 1, 2, 3, (1 << (100 - s)) - 1)
                for t in (0, half - 1, half, half + 1, (1 << s) - 1)
                if 0 <= t < 1 << s
            ]
            for v in values + [-v for v in values]:
                exact = Fraction(v, 1 << s)
                want = round(exact) if nearest else math.floor(exact)
                assert (v + bias + (v >> s & odd)) >> s == want, (v, s)


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

    @pytest.mark.parametrize("variant", list(Variant))
    def test_accepts_53_output_fraction_bits(self, variant):
        # 1 - 2**-53 is the last double below 1, so s.53 still saturates
        cfg = _small(3, 5, 53, 55, 54, variant=variant)
        mags = magnitude_outputs(cfg)
        assert list(mags) == [tanh_fx(Fx(m, cfg.input_fmt), cfg).code for m in range(cfg.input_fmt.code_max + 1)]

    @pytest.mark.parametrize("bits", [54, 64])
    def test_rejects_outputs_past_53_fraction_bits(self, bits):
        with pytest.raises(ValueError, match=rf"1 - 2\*\*-{bits} rounds to 1.0 in a double"):
            _small(3, 5, bits, bits + 2, bits + 1)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_rejects_outputs_without_fraction_bits(self, variant):
        with pytest.raises(ValueError, match="need at least one fractional output bit"):
            reference_config(output_fmt=QFormat(True, 0, 0), variant=variant)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_rejects_sign_only_inputs(self, variant):
        with pytest.raises(ValueError, match="need at least one magnitude bit"):
            reference_config(input_fmt=QFormat(True, 0, 0), variant=variant)

    def test_rejects_wide_formats(self):
        with pytest.raises(ValueError, match="26-bit input is too wide"):
            reference_config(input_fmt=QFormat(True, 3, 22))


class TestNrReciprocal:
    """The last iterate of a traced call against the reciprocal of its denominator."""

    def test_smallest_denominator_converges_to_two(self):
        trace = _trace(LAST)
        assert not trace.saturated
        assert trace.denominator.code == (1 << 16) + 1     # 0.5 + 2^-17
        assert abs(trace.nr_iterates[-1].value - 2.0) <= CFG.mult_fmt.ulp

    def test_near_one_converges_to_one(self):
        trace = _trace(1)
        d = trace.denominator.value
        assert d > 1.0 - 2.0 ** -11
        assert abs(trace.nr_iterates[-1].value - 1.0 / d) <= 2 * CFG.mult_fmt.ulp

    def test_three_quarters_matches_real_arithmetic(self):
        trace = _trace(HALF)
        d = trace.denominator.value
        assert abs(d - 0.75) <= 8 * 2.0 ** -17
        r = trace.nr_iterates[-1].value
        assert abs(r - _real_nr(d, 3)) <= CFG.mult_fmt.ulp
        assert r == pytest.approx(1.0 / d, abs=2 * CFG.mult_fmt.ulp)

    def test_zero_stages_returns_the_seed(self):
        trace = _trace(HALF)
        d = trace.denominator.value
        assert len(trace.nr_iterates) == CFG.nr_stages + 1
        assert trace.nr_iterates[0].value == pytest.approx(2.5 - 1.5 * d, abs=2 * CFG.mult_fmt.ulp)

    @settings(max_examples=50)
    @given(st.integers(min_value=1, max_value=LAST))
    def test_tracks_real_iteration_within_quantization_noise(self, code):
        trace = _trace(code)
        r = trace.nr_iterates[-1].value
        assert abs(r - _real_nr(trace.denominator.value, 3)) <= 4 * CFG.mult_fmt.ulp

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
        trace = _trace(0)
        assert trace.factor is None
        assert trace.lut_entries == [None] * len(LUTS)

    def test_single_set_bit_is_one_entry_requantized(self):
        f = _trace(1 << 14).factor      # weight 4, alone in its group
        entry = quantize(velocity_factor(4.0), CFG.lut_fmt, RoundMode.NEAREST_EVEN)
        expected = max(entry.code, 1) >> (18 - 16)
        assert f.code in (expected, expected + 1)   # requantization rounding
        assert f.fmt == CFG.mult_fmt

    def test_unit_magnitude_tracks_exponential(self):
        f = _trace(1 << 12).factor
        assert abs(f.value - math.exp(-2.0)) <= 4 * CFG.mult_fmt.ulp

    def test_rejects_wrong_magnitude_format(self):
        # the unsigned magnitude format is not the input format
        with pytest.raises(ValueError):
            tanh_fx(Fx(0, MAG_FMT), CFG, LUTS)

    def test_rejects_mismatched_luts(self):
        other = build_luts_for(reference_config(grouping=GroupingScheme(2, False)))
        with pytest.raises(ValueError):
            tanh_fx(Fx(0, CFG.input_fmt), CFG, other)

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
    """The output of a traced call against (1 - f)/(1 + f) of its traced factor."""

    def test_exact_one_maps_to_zero(self):
        trace = _trace(0)
        assert trace.factor is None and trace.numerator is None
        assert trace.output.code == 0

    def test_half_factor_gives_one_third(self):
        trace = _trace(HALF)
        f = trace.factor.value
        assert abs(f - 0.5) <= 8 * CFG.mult_fmt.ulp
        assert abs(trace.output.value - (1 - f) / (1 + f)) <= 2 * OUT_ULP

    def test_subtractor_modes_differ_by_at_most_one_mult_ulp_propagated(self):
        ones_cfg = replace(CFG, subtractor=Subtractor.ONES)
        for code in range(1, LAST + 1, 89):
            twos, ones = _trace(code), _trace(code, ones_cfg)
            assert twos.factor == ones.factor
            d = abs(twos.output.code - ones.output.code)
            assert d * OUT_ULP <= CFG.mult_fmt.ulp + OUT_ULP / 2

    def test_oracle_divider_row(self):
        oracle_cfg = replace(CFG, nr_stages=0)
        for code in range(0, LAST + 1, 7):
            trace = _trace(code, oracle_cfg)
            f = 1.0 if trace.factor is None else trace.factor.value
            assert trace.nr_iterates == []
            assert trace.output == quantize((1 - f) / (1 + f), CFG.output_fmt, RoundMode.NEAREST_EVEN)

    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=LAST))
    def test_factor_composes_to_tanh(self, code):
        f = _trace(code).factor.value
        assert abs((1 - f) / (1 + f) - math.tanh(code * CFG.input_fmt.ulp)) <= 16 * CFG.mult_fmt.ulp

    def test_oracle_row_at_unit_input_is_tanh_of_one(self):
        trace = _trace(_in(1.0).code, replace(CFG, nr_stages=0))
        assert abs(trace.factor.value - math.exp(-2.0)) <= 4 * CFG.mult_fmt.ulp
        assert abs(trace.output.value - math.tanh(1.0)) <= 2 * OUT_ULP


class TestFinalStageArithmetic:
    """The final stage's raw-integer subtract, concatenate, iterate and rescale, read back from traces."""

    MF = CFG.mult_fmt.frac_bits
    CODES = range(1, LAST + 1, 97)

    def test_numerator_is_in_the_multiplier_format(self):
        for sub in Subtractor:
            assert _trace(HALF, replace(CFG, subtractor=sub)).numerator.fmt == CFG.mult_fmt

    def test_twos_numerator_is_the_exact_difference(self):
        for code in self.CODES:
            trace = _trace(code)
            assert trace.numerator.code == (1 << self.MF) - trace.factor.code
            assert trace.numerator.value == 1.0 - trace.factor.value

    def test_ones_numerator_is_the_bitwise_complement(self):
        ones_cfg = replace(CFG, subtractor=Subtractor.ONES)
        for code in self.CODES:
            trace = _trace(code, ones_cfg)
            assert trace.numerator.code == trace.factor.code ^ ((1 << self.MF) - 1)

    def test_ones_numerator_is_one_ulp_below_the_true_difference(self):
        ones_cfg = replace(CFG, subtractor=Subtractor.ONES)
        for code in self.CODES:
            trace = _trace(code, ones_cfg)
            assert trace.numerator.value == 1.0 - trace.factor.value - CFG.mult_fmt.ulp

    def test_subtractors_share_everything_but_the_numerator(self):
        ones_cfg = replace(CFG, subtractor=Subtractor.ONES)
        for code in self.CODES:
            twos, ones = _trace(code), _trace(code, ones_cfg)
            assert (twos.factor, twos.denominator) == (ones.factor, ones.denominator)
            assert twos.numerator.code - ones.numerator.code == 1

    def test_denominator_is_half_of_one_plus_f_exactly(self):
        for code in self.CODES:
            trace = _trace(code)
            assert trace.denominator.fmt.frac_bits == self.MF + 1
            assert trace.denominator.value == (1.0 + trace.factor.value) / 2

    def test_iterates_truncate(self):
        # x' = x * (2 - d*x): each product floored, the loop never rounds
        for code in self.CODES:
            trace = _trace(code)
            d = Fraction(trace.denominator.code, 1 << (self.MF + 1))
            codes = [x.code for x in trace.nr_iterates]
            for x, nxt in zip(codes, codes[1:]):
                dx = math.floor(d * x)
                assert nxt == min(math.floor(Fraction(x * ((2 << self.MF) - dx), 1 << self.MF)), (2 << self.MF) - 1)

    @pytest.mark.parametrize("mode", list(RoundMode))
    def test_output_is_the_product_rounded_once(self, mode):
        cfg = replace(CFG, output_round=mode)
        for code in self.CODES:
            trace = _trace(code, cfg)
            # n has mf fraction bits, x approximates 2/(1 + f) with mf
            exact = Fraction(trace.numerator.code * trace.nr_iterates[-1].code, 1 << (2 * self.MF + 1))
            scaled = exact * (1 << cfg.output_fmt.frac_bits)
            want = round(scaled) if mode is RoundMode.NEAREST_EVEN else math.floor(scaled)
            assert trace.output.code == min(want, cfg.output_fmt.code_max)

    def test_published_pre_correction_inverts_the_factor(self):
        pcfg = replace(CFG, variant=Variant.PUBLISHED)
        for v in (0.25, 1.0, 2.718, 5.0):
            trace = _trace(_in(v).code, pcfg)
            f = trace.factor.value        # the inverted convention: f >= 1
            assert f >= 1.0
            assert abs(trace.pre_correction.value - (f - 1) / (f + 1)) <= 4 * CFG.mult_fmt.ulp


class TestSignSplit:
    """``tanh_fx`` splits the input into sign and magnitude and restores the sign on the output."""

    def test_zero_is_positive(self):
        trace = _trace(0)
        assert trace.negative is False
        assert trace.magnitude == Fx(0, MAG_FMT)

    def test_negative_input(self):
        trace = _trace(_in(-1.5).code)
        assert trace.negative is True
        assert trace.magnitude.value == 1.5
        assert trace.output.code < 0

    def test_magnitude_is_unsigned_with_the_input_bits(self):
        trace = _trace(-HALF)
        assert trace.magnitude.fmt == MAG_FMT
        assert not MAG_FMT.signed
        assert (MAG_FMT.int_bits, MAG_FMT.frac_bits) == (CFG.input_fmt.int_bits, CFG.input_fmt.frac_bits)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_most_negative_code_clamps_to_the_largest_magnitude(self, variant):
        trace = _trace(CFG.input_fmt.code_min, replace(CFG, variant=variant))
        assert trace.negative is True
        assert trace.magnitude.code == MAG_FMT.code_max
        assert trace.saturated
        assert trace.output.code == -CFG.output_fmt.code_max

    @pytest.mark.parametrize("variant", list(Variant))
    def test_sign_and_magnitude_restore_the_input_except_most_negative(self, variant):
        cfg = _small(2, 5, 7, 10, 8, variant=variant)
        fmt = cfg.input_fmt
        for code in range(fmt.code_min, fmt.code_max + 1):
            trace = _trace(code, cfg)
            restored = -trace.magnitude.code if trace.negative else trace.magnitude.code
            assert restored == (-fmt.code_max if code == fmt.code_min else code)
            assert trace.output == tanh_fx(Fx(restored, fmt), cfg)


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
        assert abs(y.value - math.tanh(code * CFG.input_fmt.ulp)) <= 2 * OUT_ULP

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

    @pytest.mark.parametrize("group", [1, 4])
    @pytest.mark.parametrize("supplied", [False, True], ids=["default", "supplied"])
    def test_trace_entries_are_the_lut_entries(self, group, supplied):
        cfg = replace(CFG, grouping=GroupingScheme(group, group == 4))
        # supplied tables are equal to the default ones but other objects
        luts = build_luts(cfg.input_fmt, cfg.grouping, cfg.lut_fmt) if supplied else build_luts_for(cfg)
        for code in (0, 1, HALF, -LAST, _in(2.718).code):
            trace = TanhTrace()
            tanh_fx(Fx(code, cfg.input_fmt), cfg, luts if supplied else None, trace)
            assert len(trace.lut_entries) == len(luts)
            for lut, a, entry in zip(luts, trace.lut_addresses, trace.lut_entries):
                assert entry is (None if a == 0 else lut.entries[a])

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("first,second", [(0.8125, 6.5), (0.8125, -2.25)])
    def test_reused_trace_equals_a_fresh_one(self, variant, first, second):
        cfg = replace(CFG, variant=variant)
        reused = TanhTrace()
        tanh_fx(_in(first), cfg, None, reused)
        tanh_fx(_in(second), cfg, None, reused)
        assert reused == _trace(_in(second).code, cfg)


class TestPublishedVariant:
    PCFG = replace(CFG, variant=Variant.PUBLISHED)

    def test_zero_is_exact(self):
        assert tanh_fx(Fx(0, CFG.input_fmt), self.PCFG).code == 0

    def test_register_coverage(self):
        code = _in(2.718).code
        trace = _trace(code, self.PCFG)
        # weights 2^-7 .. 2^2 of an s3.12 magnitude: ten registers
        assert trace.lut_addresses == [(code >> b) & 1 for b in range(5, 15)]
        assert len(trace.lut_entries) == 10
        assert all(e.fmt.width == self.PCFG.lut_fmt.width for e in trace.lut_entries)
        assert trace.residual.value == (code & 31) * CFG.input_fmt.ulp

    def test_low_bits_only_pass_through_exactly(self):
        # below the register threshold the whole input is the residual and
        # the correction reduces to the identity
        for code in (1, 7, 17, 31):
            x = Fx(code, CFG.input_fmt)
            y = tanh_fx(x, self.PCFG)
            assert y.value == x.value

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
        trace = TanhTrace()
        y = tanh_fx(x, self.PCFG, None, trace)
        assert y == trace.output == tanh_fx(x, self.PCFG)
        assert y.code == magnitude_outputs(self.PCFG)[x.code]

    def test_trace_entries_are_the_registers(self):
        bits, fmt, _ = _published_registers(CFG.input_fmt, CFG.lut_fmt, self.PCFG.published_threshold)
        frac = CFG.input_fmt.frac_bits
        codes = [quantize(velocity_factor_original(2.0 ** (b - frac)), fmt, RoundMode.NEAREST_EVEN).code for b in bits]
        one = Fx(1 << fmt.frac_bits, fmt)
        seen = set()
        for code in (1, _in(0.3).code, _in(2.718).code, -_in(1.25).code):
            trace = _trace(code, self.PCFG)
            assert trace.lut_entries == [Fx(c, fmt) if a else one for c, a in zip(codes, trace.lut_addresses)]
            seen.update(trace.lut_addresses)
        assert seen == {0, 1}

    def test_narrow_entries_cannot_hold_the_factor_range(self):
        bad = replace(self.PCFG, lut_fmt=QFormat(False, 0, 10))
        with pytest.raises(ValueError):
            tanh_fx(Fx(0, CFG.input_fmt), bad)

    def test_a_refusal_is_worked_out_once(self):
        # accepted at construction, refused at the first evaluation of each
        # entry point with the same text, from one cached look at the registers
        bad = replace(self.PCFG, lut_fmt=QFormat(False, 0, 9))
        _published_registers.cache_clear()
        x = Fx(3, CFG.input_fmt)
        messages = []
        sweep, call, traced = (lambda: exhaustive_sweep(bad), lambda: tanh_fx(x, bad),
                               lambda: tanh_fx(x, bad, None, TanhTrace()))
        for evaluate in (sweep, call, traced):
            with pytest.raises(ValueError, match="9-bit entries cannot hold factors") as refused:
                evaluate()
            messages.append(str(refused.value))
        assert len(set(messages)) == 1
        assert _published_registers.cache_info().misses == 1


def _small(int_bits, frac_bits, out_bits, lut_bits, mult_bits, **kw) -> TanhConfig:
    return TanhConfig(
        QFormat(True, int_bits, frac_bits), QFormat(True, 0, out_bits),
        QFormat(False, 0, lut_bits), QFormat(False, 0, mult_bits), **kw,
    )


_TR = RoundMode.TRUNCATE
_PUB = Variant.PUBLISHED

# the reference configuration plus small ones; between them both variants,
# groups 1/2/4 with and without shuffle, NR 0-3, both subtractors, both
# roundings, three thresholds and outputs scaled up as well as down
DIGEST_CONFIGS = [
    CFG,
    replace(CFG, variant=_PUB),
    _small(3, 5, 7, 10, 8, grouping=GroupingScheme(1, False), nr_stages=0),
    _small(3, 6, 8, 11, 9, grouping=GroupingScheme(2, True), nr_stages=1, subtractor=Subtractor.ONES,
           internal_round=_TR, output_round=_TR),
    _small(2, 7, 9, 12, 10, grouping=GroupingScheme(2, False), nr_stages=2, output_round=_TR),
    _small(3, 6, 9, 12, 10, grouping=GroupingScheme(4, False), nr_stages=3, subtractor=Subtractor.ONES,
           internal_round=_TR),
    _small(1, 8, 10, 12, 11, grouping=GroupingScheme(4, True), nr_stages=0, subtractor=Subtractor.ONES),
    _small(3, 6, 8, 10, 12, grouping=GroupingScheme(1, True), nr_stages=2),
    _small(2, 5, 12, 9, 5, grouping=GroupingScheme(2, True), nr_stages=3, subtractor=Subtractor.ONES),
    _small(2, 7, 9, 14, 10, variant=_PUB, nr_stages=1, published_threshold=2.0 ** -4,
           internal_round=_TR, output_round=_TR),
    _small(3, 6, 8, 18, 12, variant=_PUB, nr_stages=2),
    _small(1, 8, 10, 12, 11, variant=_PUB, nr_stages=3, published_threshold=2.0 ** -3, output_round=_TR),
    _small(2, 6, 12, 14, 8, variant=_PUB, nr_stages=0, published_threshold=2.0 ** -4, internal_round=_TR),
]


class TestGoldenDigests:
    """Exhaustive outputs of the reference configuration, frozen bit for bit.

    The digest is the sha256 of the output codes as decimals joined by ','
    in input-code order.  A change that alters any output bit must say why.
    """

    def test_small_configs_and_traces(self):
        # frozen from the staged pipeline that once ran every traced call,
        # as a cross-check of the kernel's outputs and trace decoding
        outputs, traces = hashlib.sha256(), hashlib.sha256()
        for n, cfg in enumerate(DIGEST_CONFIGS):
            codes = range(cfg.input_fmt.code_min, cfg.input_fmt.code_max + 1)
            ys = [tanh_fx(Fx(c, cfg.input_fmt), cfg).code for c in codes]
            outputs.update((",".join(map(str, ys)) + ";").encode())
            for c in random.Random(n).sample(codes, 64):
                traces.update((repr(_trace(c, cfg)) + "\n").encode())
        assert outputs.hexdigest()[:16] == "9ca76c19271da6f7"
        assert traces.hexdigest()[:16] == "89d26a8097a883c4"

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
                worst = max(worst, abs(y.value - math.tanh(code * cfg.input_fmt.ulp)))
            return worst
        assert max_err(replace(small, nr_stages=3)) <= max_err(replace(small, nr_stages=2))


_REFUSALS = re.compile(r"threshold leaves no register bits|\d+-bit entries cannot hold factors up to .*")


@st.composite
def _small_configs(draw) -> TanhConfig:
    int_bits = draw(st.integers(0, 3))
    return _small(
        int_bits,
        draw(st.integers(1, 9 - int_bits)),          # at most 10 input bits
        draw(st.integers(2, 14)),
        draw(st.integers(4, 18)),
        draw(st.integers(4, 16)),
        grouping=GroupingScheme(draw(st.sampled_from([1, 2, 4])), draw(st.booleans())),
        nr_stages=draw(st.integers(0, 3)),
        subtractor=draw(st.sampled_from(list(Subtractor))),
        variant=draw(st.sampled_from(list(Variant))),
        published_threshold=2.0 ** -draw(st.integers(0, 10)),
        internal_round=draw(st.sampled_from(list(RoundMode))),
        output_round=draw(st.sampled_from(list(RoundMode))),
    )


class TestRandomConfigs:
    @settings(max_examples=40, deadline=None)
    @given(_small_configs())
    def test_invariants_hold_on_every_code(self, cfg):
        fmt, out_max = cfg.input_fmt, cfg.output_fmt.code_max
        try:
            mags = magnitude_outputs(cfg)
        except ValueError as e:
            # the published registers are refused at the first evaluation
            assert cfg.variant is Variant.PUBLISHED and _REFUSALS.fullmatch(str(e)), e
            with pytest.raises(ValueError, match=_REFUSALS):
                tanh_fx(Fx(0, fmt), cfg)
            return
        clamp = math.atanh(1.0 - cfg.output_fmt.ulp)
        ys = {}
        for c in range(fmt.code_min, fmt.code_max + 1):
            trace = TanhTrace()
            y = tanh_fx(Fx(c, fmt), cfg, None, trace)
            assert y == trace.output == tanh_fx(Fx(c, fmt), cfg)
            m = min(abs(c), fmt.code_max)      # the most-negative code's magnitude saturates
            assert y.code == (-mags[m] if c < 0 else mags[m])
            assert abs(y.code) <= out_max
            if m * fmt.ulp >= clamp:
                assert abs(y.code) == out_max
            ys[c] = y.code
        assert ys[0] == 0
        assert all(ys[-c] == -ys[c] for c in range(1, fmt.code_max + 1))



def _wide_configs() -> list[TanhConfig]:
    """Seeded 12- to 20-bit configurations, one per variant and group width."""
    configs = []
    for n, (variant, group) in enumerate(product(Variant, (1, 2, 4))):
        rng = random.Random(n)
        int_bits = rng.randint(0, 3)
        width = (12, 15, 18, 20, 16, 17)[n]
        configs.append(_small(
            int_bits, width - 1 - int_bits, rng.randint(8, 18), rng.randint(16, 24), rng.randint(10, 20),
            grouping=GroupingScheme(group, rng.random() < 0.5),
            nr_stages=rng.randint(0, 3),
            subtractor=rng.choice(list(Subtractor)),
            variant=variant,
            # the 20-bit published config gets at least 17 registers
            published_threshold=2.0 ** -(17 if width == 20 else rng.randint(1, 10)),
            internal_round=rng.choice(list(RoundMode)),
            output_round=rng.choice(list(RoundMode)),
        ))
    return configs


class TestWideConfigs:
    """Sampled codes of wide inputs: the sweep's three-node root split needs over 16 magnitude bits."""

    @pytest.mark.parametrize("cfg", _wide_configs(), ids=lambda cfg: cfg.describe())
    def test_entry_points_agree_and_invariants_hold(self, cfg):
        fmt, out_max = cfg.input_fmt, cfg.output_fmt.code_max
        mags = magnitude_outputs(cfg)
        assert len(mags) == fmt.code_max + 1 and mags[0] == 0
        clamp = math.atanh(1.0 - cfg.output_fmt.ulp)
        edge = math.floor(clamp / fmt.ulp)
        codes = random.Random(fmt.width).sample(range(fmt.code_min, fmt.code_max + 1), 300)
        codes += [fmt.code_min, fmt.code_max, 0, 1, -1]
        codes += [c for c in (edge - 1, edge, edge + 1) if c <= fmt.code_max]
        for c in codes:
            trace = TanhTrace()
            y = tanh_fx(Fx(c, fmt), cfg, None, trace)
            assert y == trace.output == tanh_fx(Fx(c, fmt), cfg)
            m = min(abs(c), fmt.code_max)
            assert y.code == (-mags[m] if c < 0 else mags[m])
            assert abs(y.code) <= out_max
            if m * fmt.ulp >= clamp:
                assert abs(y.code) == out_max
            if c > fmt.code_min:
                assert tanh_fx(Fx(-c, fmt), cfg).code == -y.code

    @pytest.mark.parametrize("variant", list(Variant))
    def test_tree_values_wider_than_64_bits(self, variant):
        cfg = _small(3, 5, 15, 48, 64, variant=variant)
        mags = magnitude_outputs(cfg)
        assert list(mags) == [tanh_fx(Fx(m, cfg.input_fmt), cfg).code for m in range(cfg.input_fmt.code_max + 1)]

    def test_each_variant_has_a_tree_over_more_than_16_bits(self):
        for variant in Variant:
            assert any(
                sum(mask.bit_length() for _, _, mask in _prepare(cfg, None).leaves) > 16
                for cfg in _wide_configs() if cfg.variant is variant
            )


class TestOutputTies:
    """Every code of small configurations, whose coarse output rescale meets exact ties."""

    def test_ties_round_half_to_even_in_calls_and_sweeps(self):
        ties = 0
        for frac_bits, out_bits, stages in product(range(4, 9), range(5, 11), range(1, 4)):
            cfg = _small(2, frac_bits, out_bits, out_bits + 3, out_bits + 1, nr_stages=stages,
                         subtractor=list(Subtractor)[(frac_bits + out_bits + stages) % 2])
            mf, out_max = cfg.mult_fmt.frac_bits, cfg.output_fmt.code_max
            mags = magnitude_outputs(cfg)
            for m in range(cfg.input_fmt.code_max + 1):
                trace = _trace(m, cfg)
                if trace.saturated or trace.factor is None:
                    continue
                # n has mf fraction bits and x approximates 2/(1 + f) with mf
                exact = Fraction(trace.numerator.code * trace.nr_iterates[-1].code, 1 << (2 * mf + 1 - out_bits))
                want = min(round(exact), out_max)
                assert trace.output.code == mags[m] == want, (cfg.describe(), m)
                ties += exact.denominator == 2 and want > exact
        # ties that round up to even fail under any other tie rule
        assert ties >= 20


# the third seed shares c0 with the second and c1 with the default
_SEEDS = (NrSeed(), NrSeed(2.75, 1.75), NrSeed(2.75, 1.5))


def _past_f_family(base: TanhConfig, seed: int) -> list[TanhConfig]:
    """base with every stage count 0 to 5, subtractor, output rounding and seed, in a seeded order."""
    family = [
        replace(base, nr_stages=stages, subtractor=sub, output_round=mode, nr_seed=nr_seed)
        for stages, sub, mode, nr_seed in product(range(6), Subtractor, RoundMode, _SEEDS)
    ]
    random.Random(seed).shuffle(family)
    return family


@lru_cache(maxsize=None)
def _called(cfg: TanhConfig) -> list[int]:
    """``tanh_fx`` at every magnitude of cfg."""
    return [tanh_fx(Fx(m, cfg.input_fmt), cfg).code for m in range(cfg.input_fmt.code_max + 1)]


def _swept(cfgs: list[TanhConfig]) -> list[list[int]]:
    """Each configuration's output magnitude code at every magnitude, from one family sweep."""
    slots, tables = _sweep_family(cfgs)
    top = cfgs[0].input_fmt.code_max
    return [[table[s] for s in slots] + [table[-1]] * (top + 1 - len(slots)) for table in tables]


class TestColumnFinalStage:
    """A family sweep's tables, whose final stage runs a chunk of runs at a time and shares d and the iterates."""

    BASES = [
        _small(2, 6, 8, 11, 9),                     # 120 runs
        _small(3, 8, 11, 14, 12, grouping=GroupingScheme(2, True), internal_round=_TR),      # 584 runs
    ]

    @pytest.mark.parametrize("base", BASES, ids=lambda cfg: cfg.describe())
    @pytest.mark.parametrize("chunk", ["below", "at", "across", "many"])
    def test_each_table_is_its_own_sweep_and_its_calls(self, monkeypatch, base, chunk):
        runs = len(_prepare(base, None).walk()[0])
        monkeypatch.setattr(datapath, "_CHUNK", {"below": runs + 1, "at": runs, "across": runs - 1, "many": 37}[chunk])
        family = _past_f_family(base, runs)
        for cfg, outputs in zip(family, _swept(family)):
            assert _swept([cfg]) == [outputs], cfg.describe()
            assert outputs == _called(cfg), cfg.describe()

    def test_runs_cross_the_default_chunk(self):
        base = _small(3, 10, 13, 16, 14)
        runs = len(_prepare(base, None).walk()[0])
        assert runs > 2 * datapath._CHUNK
        family = [replace(base, nr_stages=stages, subtractor=sub, nr_seed=nr_seed)
                  for stages, sub, nr_seed in [(0, Subtractor.TWOS, _SEEDS[0]), (2, Subtractor.ONES, _SEEDS[1]),
                                               (3, Subtractor.TWOS, _SEEDS[0]), (5, Subtractor.ONES, _SEEDS[0])]]
        codes = random.Random(runs).sample(range(base.input_fmt.code_max + 1), 500)
        for cfg, outputs in zip(family, _swept(family)):
            assert _swept([cfg]) == [outputs], cfg.describe()
            assert all(outputs[m] == tanh_fx(Fx(m, base.input_fmt), cfg).code for m in codes), cfg.describe()

    def test_a_sweep_without_runs(self):
        # s.1 out saturates every magnitude from 1 up, so only m = 0 is live
        base = _small(3, 0, 1, 4, 4)
        plan = _prepare(base, None)
        assert plan.live == 1 and len(plan.walk()[0]) == 0
        family = _past_f_family(base, 0)
        assert _swept(family) == [[0] + [1] * 7] * len(family)


def _tree_steps(n: int) -> list[tuple[int, int]]:
    """In-place merges ``(i, j)`` that reduce n values as the balanced tree does.

    Level by level, value i absorbs value i + stride; an odd value at the
    end of a level is carried up unchanged.
    """
    steps, stride = [], 1
    while stride < n:
        steps += [(i, i + stride) for i in range(0, n - stride, 2 * stride)]
        stride *= 2
    return steps


def _reduce(plan, vals: list, steps) -> int | None:
    """Reference combine: reduce leaf values in place along ``steps``, one multiply at a time.

    A bypassed value (None, the exact 1.0) passes up exactly; each product
    is rounded to the multiplier precision, clamped at ``f_max`` and lifted
    back to ``node_frac``.
    """
    lift = plan.node_frac - plan.mf
    shift = plan.node_frac + lift
    bias, odd = _half_even(shift, plan.tree_ne)
    for i, j in steps:
        a, b = vals[i], vals[j]
        if b is None:
            continue
        if a is None:
            vals[i] = b
        else:
            p = (a * b + bias + (a * b >> shift & odd)) >> shift
            vals[i] = min(p, plan.f_max) << lift
    return vals[0]


def _reduced(plan, parts) -> list:
    """The subtree over ``parts`` at every address, each reduced along ``_tree_steps``."""
    base, steps = parts[0][1], _tree_steps(len(parts))
    width = sum(mask.bit_length() for _, _, mask in parts)
    return [_reduce(plan, [t[a >> (o - base) & mask] for t, o, mask in parts], steps) for a in range(1 << width)]


_TREES = [
    _small(3, 6, 8, 12, 10, grouping=GroupingScheme(group, shuffle), internal_round=rounding)
    for group, shuffle, rounding in product((1, 2, 4), (True, False), RoundMode)
] + [
    _small(3, 6, 8, 18, 10, variant=_PUB, published_threshold=2.0 ** -6, internal_round=rounding)
    for rounding in RoundMode
] + [
    # 14 leaves: the right child is a subtree of six
    _small(3, 11, 13, 18, 14, grouping=GroupingScheme(1, True)),
    _small(3, 11, 13, 18, 14, variant=_PUB, published_threshold=2.0 ** -11, internal_round=RoundMode.TRUNCATE),
    # 17 magnitude bits: the left child is a 65,536-entry product of two 256-entry tables
    _small(3, 14, 15, 18, 16, grouping=GroupingScheme(2, True)),
]


class TestSubtreeTables:
    """The subtree tables, built level by level as outer products, against a per-address reduction."""

    def test_split_is_the_last_merge(self):
        assert _split(1) == 0
        for n in range(2, 64):
            assert _split(n) == _tree_steps(n)[-1][1], n

    @pytest.mark.parametrize("rounding", list(RoundMode))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_every_part_count(self, variant, rounding):
        # nine 1-bit leaves: LUTs of group 1, or published registers
        cfg = _small(3, 6, 8, 18, 10, grouping=GroupingScheme(1, False), variant=variant,
                     published_threshold=2.0 ** -6, internal_round=rounding)
        plan = _prepare(cfg, None)
        assert len(plan.leaves) == 9
        for n in range(1, 10):
            for parts in (plan.leaves[:n], plan.leaves[-n:]):
                assert list(plan._subtree(parts)) == _reduced(plan, parts), n

    @pytest.mark.parametrize("cfg", _TREES, ids=lambda cfg: cfg.describe())
    def test_root_children_equal_the_reduction(self, cfg):
        plan = _Plan(cfg, build_luts_for(cfg) if cfg.variant is Variant.OPTIMIZED else None)
        split, unit = _tree_steps(len(plan.leaves))[-1][1], 1 << plan.node_frac
        left, right = plan.root_children()
        assert left == [unit if v is None else v for v in _reduced(plan, plan.leaves[:split])]
        assert right == [unit if v is None else v for v in _reduced(plan, plan.leaves[split:])]

    def test_a_tree_over_more_than_16_bits(self):
        plan = _prepare(_TREES[-1], None)
        assert sum(mask.bit_length() for _, _, mask in plan.leaves) == 17
        assert len(plan._subtree(plan.leaves[:8])) == 1 << 16

    @pytest.mark.parametrize("variant", list(Variant))
    def test_a_sweep_and_its_traced_calls_build_the_tables_once(self, monkeypatch, variant):
        builds = []
        subtree = _Plan._subtree
        monkeypatch.setattr(_Plan, "_subtree", lambda plan, parts: builds.append(plan) or subtree(plan, parts))
        cfg = _small(3, 6, 8, 18, 10, variant=variant)
        exhaustive_sweep(cfg)
        swept = len(builds)
        for code in (1, -1, 200, -37, cfg.input_fmt.code_max):
            tanh_fx(Fx(code, cfg.input_fmt), cfg, None, TanhTrace())
        assert swept > 0 and len(builds) == swept
        # a table2 family builds the trees of its first configuration only
        table2(replace(cfg))
        assert len(builds) == 2 * swept


def _gathered(order: tuple[int, ...], m: int) -> int:
    """Bits ``order[0], order[1], ...`` of m, packed from bit 0 up, one at a time."""
    return sum((m >> b & 1) << p for p, b in enumerate(order))


_ORDERS = [
    _small(int_bits, frac_bits, 15, 18, 16, grouping=GroupingScheme(group, shuffle))
    for int_bits, frac_bits in ((3, 20), (2, 13), (1, 4))
    for group, shuffle in ((4, True), (4, False), (2, True), (2, False), (1, False))
] + [
    _small(3, 20, 15, 22, 16, variant=_PUB, published_threshold=2.0 ** -exp) for exp in (0, 7, 20)
] + [
    _small(2, 13, 15, 18, 16, variant=_PUB, published_threshold=2.0 ** -exp) for exp in (0, 7)
]


class TestAddressTables:
    """The byte tables that give a single call and a sweep a magnitude's gathered address."""

    @pytest.mark.parametrize("cfg", _ORDERS, ids=lambda cfg: cfg.describe())
    def test_byte_tables_gather_bit_by_bit(self, cfg):
        order = _prepare(cfg, None).order
        t0, t1, t2 = tables = _address_tables(order)
        for j, table in enumerate(tables):
            assert table == [_gathered(order, v << 8 * j) for v in range(256)], j
        top = cfg.input_fmt.code_max
        for m in random.Random(top).sample(range(top + 1), min(500, top + 1)) + [0, top]:
            assert t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16] == _gathered(order, m)

    def test_orders_reach_23_bits(self):
        assert max(max(_prepare(cfg, None).order) for cfg in _ORDERS) == 22


class TestWidestInputs:
    """24-bit inputs, the widest accepted: sampled codes without a sweep."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_sampled_codes_are_odd_and_saturate_exactly(self, variant):
        cfg = _small(3, 20, 19, 22, 20, variant=variant)
        fmt, out_max = cfg.input_fmt, cfg.output_fmt.code_max
        assert fmt.width == 24
        clamp = math.atanh(1.0 - cfg.output_fmt.ulp)
        edge = math.floor(clamp / fmt.ulp)
        # the published correction leaves about 150 output ulps at this precision
        tolerance = 4 * cfg.output_fmt.ulp if variant is Variant.OPTIMIZED else 2.0 ** -10
        codes = random.Random(variant.value).sample(range(1, fmt.code_max + 1), 200)
        codes += [1, edge - 1, edge, edge + 1, fmt.code_max]
        for c in codes:
            trace = TanhTrace()
            y = tanh_fx(Fx(c, fmt), cfg, None, trace)
            assert y == trace.output
            assert tanh_fx(Fx(-c, fmt), cfg).code == -y.code
            if c * fmt.ulp >= clamp:
                assert y.code == out_max
            else:
                assert abs(y.value - math.tanh(c * fmt.ulp)) <= tolerance
        assert tanh_fx(Fx(0, fmt), cfg).code == 0
        assert tanh_fx(Fx(fmt.code_min, fmt), cfg).code == -out_max

    def test_25_bit_inputs_are_refused_at_construction(self):
        with pytest.raises(ValueError, match="25-bit input is too wide"):
            _small(3, 21, 19, 22, 20)
