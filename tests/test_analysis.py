"""Error-measurement harness tests."""

import math
from dataclasses import replace

import pytest

from fxtanh.analysis import (
    clamp_threshold,
    compare_methods,
    exhaustive_sweep,
    render_comparison,
    render_reports,
    render_table2,
    table2,
)
from fxtanh.baselines import uniform_pwl_table
from fxtanh.datapath import Subtractor, TanhConfig, TanhTrace, Variant, reference_config, tanh_fx
from fxtanh.fxnum import Fx, QFormat
from fxtanh.lutgen import GroupingScheme

SMALL = TanhConfig(
    input_fmt=QFormat(True, 3, 5),
    output_fmt=QFormat(True, 0, 7),
    lut_fmt=QFormat(False, 0, 10),
    mult_fmt=QFormat(False, 0, 8),
)


class TestClampThreshold:
    @pytest.mark.parametrize("b,expected", [(7, 2.77), (11, 4.16), (15, 5.55)])
    def test_published_domain_bounds(self, b, expected):
        assert clamp_threshold(b) == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("b,expected", [(6, 2.42), (10, 3.82), (14, 5.20)])
    def test_half_resolution_bounds(self, b, expected):
        # the companion bounds quoted for one fewer fractional bit
        assert clamp_threshold(b) == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("b", [1, 7, 11, 15, 23])
    def test_inverts_tanh_exactly(self, b):
        assert math.tanh(clamp_threshold(b)) == pytest.approx(1 - 2.0 ** -b, abs=1e-12)

    def test_closed_form(self):
        for b in (7, 15):
            assert clamp_threshold(b) == pytest.approx(0.5 * math.log(2 ** (b + 1) - 1), abs=1e-12)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            clamp_threshold(0)


class TestExhaustiveSweep:
    def test_report_fields(self):
        rep = exhaustive_sweep(SMALL)
        assert rep.samples == 1 << SMALL.input_fmt.width
        assert rep.max_abs_error >= rep.mean_abs_error >= 0
        assert rep.max_error_ulps == pytest.approx(rep.max_abs_error / SMALL.output_fmt.ulp)
        assert rep.worst_input.fmt == SMALL.input_fmt
        assert "s3.5" in rep.config

    def test_deterministic(self):
        assert exhaustive_sweep(SMALL) == exhaustive_sweep(SMALL)

    def test_report_is_a_reduction_of_single_calls(self):
        # every subtree-table depth (group 4, 2, 1 and published registers),
        # and one input wide enough for two 4096-code error blocks
        roomy = replace(SMALL, lut_fmt=QFormat(False, 0, 18), mult_fmt=QFormat(False, 0, 16))
        configs = [
            replace(roomy, grouping=GroupingScheme(group, True), variant=variant)
            for group in (1, 2, 4)
            for variant in Variant
        ]
        configs += [replace(roomy, input_fmt=QFormat(True, 3, 9), variant=variant) for variant in Variant]
        for cfg in configs:
            fmt = cfg.input_fmt
            codes = range(fmt.code_min, fmt.code_max + 1)
            errs = []
            for code in codes:
                y = tanh_fx(Fx(code, fmt), cfg)
                assert tanh_fx(Fx(code, fmt), cfg, None, TanhTrace()) == y
                errs.append(abs(y.code * cfg.output_fmt.ulp - math.tanh(code * fmt.ulp)))
            blocks = [math.fsum(errs[i:i + 4096]) for i in range(0, len(errs), 4096)]
            rep = exhaustive_sweep(cfg)
            assert rep.max_abs_error == max(errs)
            assert rep.worst_input.code == codes[errs.index(max(errs))]
            assert rep.mean_abs_error == math.fsum(blocks) / len(errs)
            assert rep.samples == len(errs)

    def test_rejects_wide_formats(self):
        wide = replace(SMALL, input_fmt=QFormat(True, 3, 22))
        with pytest.raises(ValueError):
            exhaustive_sweep(wide)

    def test_more_lut_bits_do_not_degrade(self):
        base = exhaustive_sweep(SMALL)
        better = exhaustive_sweep(replace(SMALL, lut_fmt=QFormat(False, 0, 14)))
        assert better.max_error_ulps <= base.max_error_ulps + 1


class TestTable2:
    def test_grid_structure(self):
        rows = table2(SMALL)
        assert [(r.nr_stages, r.subtractor) for r in rows] == [
            (0, Subtractor.ONES),
            (0, Subtractor.TWOS),
            (2, Subtractor.ONES),
            (2, Subtractor.TWOS),
            (3, Subtractor.ONES),
            (3, Subtractor.TWOS),
        ]

    def test_reference_rows_ignore_the_subtractor(self):
        rows = table2(SMALL)
        assert rows[0].max_error == rows[1].max_error


class TestCompareMethods:
    # published registers need room for the factor range, so the comparison
    # config keeps the default 18-bit entries
    CMP = replace(SMALL, lut_fmt=QFormat(False, 0, 18), mult_fmt=QFormat(False, 0, 16))

    def test_ranking(self):
        pwl = uniform_pwl_table(0.25, clamp_threshold(self.CMP.output_fmt.frac_bits))
        rows = {r.method: r for r in compare_methods(self.CMP, pwl, 3)}
        assert set(rows) == {"optimized", "published", "pwl", "taylor-3"}
        # the one-ulp saturation error floors both variants' max on this
        # coarse format, so the published penalty shows up in the mean
        assert rows["taylor-3"].max_abs_error > 10 * rows["optimized"].max_abs_error
        assert rows["published"].max_abs_error >= rows["optimized"].max_abs_error
        assert rows["published"].mean_abs_error > rows["optimized"].mean_abs_error

    def test_published_cannot_fit_its_factor_range_in_narrow_entries(self):
        pwl = uniform_pwl_table(0.25, 2.8)
        with pytest.raises(ValueError, match="integer bits"):
            compare_methods(SMALL, pwl, 3)


class TestRendering:
    def test_report_csv_columns(self):
        rep = exhaustive_sweep(SMALL)
        lines = render_reports([rep], "csv").splitlines()
        assert lines[0] == "config,max_abs_error,mean_abs_error,max_error_ulps,worst_input_hex,samples"
        assert len(lines) == 2
        assert lines[1].endswith(f",{rep.samples}")

    def test_report_text_contains_hex_worst_input(self):
        rep = exhaustive_sweep(SMALL)
        text = render_reports([rep], "text")
        digits = (SMALL.input_fmt.width + 3) // 4
        code = rep.worst_input.code & ((1 << SMALL.input_fmt.width) - 1)
        assert f"{code:0{digits}x}" in text

    def test_table2_formats(self):
        rows = table2(SMALL)
        csv = render_table2(rows, "csv").splitlines()
        assert csv[0] == "nr_stages,subtractor,max_error"
        assert csv[1].startswith("0,-,")
        text = render_table2(rows, "text")
        assert "stages" in text and "max_error" in text

    def test_comparison_formats(self):
        pwl = uniform_pwl_table(0.5, 2.8)
        rows = compare_methods(TestCompareMethods.CMP, pwl, 3)
        assert render_comparison(rows, "csv").startswith("method,")
        assert "optimized" in render_comparison(rows, "text")

    def test_rendering_is_deterministic(self):
        rep = exhaustive_sweep(SMALL)
        assert render_reports([rep], "csv") == render_reports([rep], "csv")
