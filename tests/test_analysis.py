"""Error-measurement harness tests."""

import math
import random
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fxtanh import analysis
from fxtanh.analysis import (
    _BLOCK,
    COMPARE_COLUMNS,
    SWEEP_COLUMNS,
    TABLE2_COLUMNS,
    Table2Row,
    clamp_threshold,
    compare_methods,
    exhaustive_sweep,
    render,
    table2,
)
from fxtanh.baselines import uniform_pwl_table
from fxtanh.datapath import Subtractor, TanhConfig, TanhTrace, Variant, _published_registers, reference_config, tanh_fx
from fxtanh.fxnum import Fx, QFormat, RoundMode, quantize
from fxtanh.lutgen import GroupingScheme
from test_baselines import pwl_tanh, taylor_tanh

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

    @pytest.mark.parametrize("b", [54, 64])
    def test_rejects_fractions_with_no_double_below_one(self, b):
        with pytest.raises(ValueError, match=rf"1 - 2\*\*-{b} rounds to 1.0 in a double"):
            clamp_threshold(b)


class TestOracle:
    @pytest.mark.parametrize("frac", [12, 13])
    def test_tanh_is_exactly_odd_on_the_input_grid(self, frac):
        # the error reduction gives a negative code its magnitude's error
        fmt = QFormat(True, 3, frac)
        assert all(math.tanh(c * fmt.ulp) == -math.tanh(-c * fmt.ulp) for c in range(fmt.code_min, 0))

    @pytest.mark.parametrize("fmt,magnitudes", [
        (QFormat(True, 3, 12), range((1 << 15) + 1)),
        (QFormat(True, 3, 13), range((1 << 16) + 1)),
        (QFormat(True, 5, 18), range(12 << 18, 20 << 18)),     # doubles near 1 plateau here
    ], ids=["s3.12", "s3.13", "s5.18-plateau"])
    def test_tanh_never_decreases_on_the_input_grid(self, fmt, magnitudes):
        # table2 reads a run's largest error from its two ends
        ts = [math.tanh(m * fmt.ulp) for m in magnitudes]
        assert all(a <= b for a, b in zip(ts, ts[1:]))


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
        # and inputs wide enough for two and four 4096-code error blocks: one
        # mirrored pair of blocks, and two
        roomy = replace(SMALL, lut_fmt=QFormat(False, 0, 18), mult_fmt=QFormat(False, 0, 16))
        configs = [
            replace(roomy, grouping=GroupingScheme(group, True), variant=variant)
            for group in (1, 2, 4)
            for variant in Variant
        ]
        configs += [
            replace(roomy, input_fmt=QFormat(True, 3, frac), variant=variant)
            for frac in (9, 10)
            for variant in Variant
        ]
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

    def test_more_lut_bits_do_not_degrade(self):
        base = exhaustive_sweep(SMALL)
        better = exhaustive_sweep(replace(SMALL, lut_fmt=QFormat(False, 0, 14)))
        assert better.max_error_ulps <= base.max_error_ulps + 1


class TestReduceErrors:
    """``_reduce_errors`` on synthetic rows against a reduction over every input code."""

    @pytest.mark.parametrize("frac", [5, 10])       # one block for both sides; two blocks per side
    def test_matches_a_reduction_per_code(self, frac):
        cfg = replace(SMALL, input_fmt=QFormat(True, 3, frac))
        half = cfg.input_fmt.code_max + 1
        step = min(_BLOCK, half)
        rng = random.Random(frac)
        for _ in range(20):
            per_code = [{} for _ in range(3)]

            def row(i, m0, m1, ts):
                # mostly zeros with a few small integers: ties are common, sums exact, and
                # m0's error often beats the rest; some blocks give each side its own list
                def errs():
                    e = [0.0] * (m1 - m0)
                    for j in rng.sample(range(m1 - m0), 3) + [0] * rng.randrange(2):
                        e[j] = float(rng.randrange(1, 4))
                    return e
                pos = errs()
                neg = errs() if rng.random() < 0.3 else pos
                per_code[i].update({m0 + j: pos[j] for j in range(step)})
                per_code[i].update({-m0 - j: neg[j] for j in range(1, step + 1)})
                return pos, neg

            results = analysis._reduce_errors(cfg, [partial(row, i) for i in range(3)])
            for errs, (max_err, worst, total) in zip(per_code, results):
                assert sorted(errs) == list(range(-half, half))
                top = max(errs.values())
                assert max_err == top * cfg.output_fmt.ulp
                assert worst == min(c for c, e in errs.items() if e == top)
                assert total == sum(errs.values()) * cfg.output_fmt.ulp


def _table2_families() -> list[TanhConfig]:
    """Both variants, groups 1/2/4, truncating internal and output rounding,
    a register at bit 0, and a 17-bit magnitude whose tree spans more than
    16 address bits and whose f changes often enough to need 4-byte slots.
    Each has cells of different errors, so a row read from the wrong cell
    shows."""
    base = TanhConfig(QFormat(True, 2, 8), QFormat(True, 0, 12), QFormat(False, 0, 18), QFormat(False, 0, 14))
    configs = [
        replace(base, grouping=GroupingScheme(group, shuffle), variant=variant)
        for group, shuffle in ((1, False), (2, True), (4, True))
        for variant in Variant
    ]
    configs += [
        replace(base, internal_round=RoundMode.TRUNCATE, output_round=RoundMode.TRUNCATE, variant=variant)
        for variant in Variant
    ]
    configs.append(replace(base, variant=Variant.PUBLISHED, published_threshold=2.0 ** -8))
    configs.append(TanhConfig(QFormat(True, 1, 16), QFormat(True, 0, 18), QFormat(False, 0, 20), QFormat(False, 0, 17)))
    # one live magnitude, 0; every other saturates
    configs.append(TanhConfig(QFormat(True, 3, 0), QFormat(True, 0, 1), QFormat(False, 0, 4), QFormat(False, 0, 3)))
    # nothing saturates; then the plateau of doubles near 1, where math.tanh repeats its values
    for cfg in (
        TanhConfig(QFormat(True, 0, 10), QFormat(True, 0, 12), QFormat(False, 0, 14), QFormat(False, 0, 12)),
        TanhConfig(QFormat(True, 5, 6), QFormat(True, 0, 44), QFormat(False, 0, 48), QFormat(False, 0, 46)),
    ):
        configs += [replace(cfg, variant=variant) for variant in Variant]
    return configs


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

    @pytest.mark.parametrize("cfg", _table2_families(), ids=lambda cfg: cfg.describe())
    def test_rows_equal_sweeps_of_each_cell(self, cfg):
        rows = table2(cfg)
        for row in rows:
            cell = exhaustive_sweep(replace(cfg, nr_stages=row.nr_stages, subtractor=row.subtractor))
            assert row.max_error.hex() == cell.max_abs_error.hex()

    @settings(max_examples=250, deadline=None)
    @given(
        st.integers(2, 12).flatmap(lambda width: st.tuples(st.just(width), st.integers(0, min(4, width - 1)))),
        st.integers(4, 53),
        st.integers(0, 3),
        st.integers(0, 2),
        st.sampled_from([1, 2, 4]),
        st.sampled_from(list(Variant)),
        st.sampled_from(list(RoundMode)),
        st.sampled_from(list(RoundMode)),
    )
    def test_drawn_rows_equal_sweeps_of_each_cell(self, in_bits, out_frac, lut_extra, mult_extra, group, variant,
                                                  internal_round, output_round):
        width, in_int = in_bits
        cfg = TanhConfig(
            QFormat(True, in_int, width - 1 - in_int),
            QFormat(True, 0, out_frac),
            QFormat(False, 0, out_frac + lut_extra),
            QFormat(False, 0, out_frac + mult_extra),
            grouping=GroupingScheme(group, True),
            variant=variant,
            internal_round=internal_round,
            output_round=output_round,
        )
        if variant is Variant.PUBLISHED:
            assume(not isinstance(_published_registers(cfg.input_fmt, cfg.lut_fmt, cfg.published_threshold), str))
        self.test_rows_equal_sweeps_of_each_cell(cfg)

    def test_one_sweep_refuses_configurations_that_differ_before_f(self):
        with pytest.raises(ValueError, match="differ only past f"):
            analysis._sweep_family([SMALL, replace(SMALL, mult_fmt=QFormat(False, 0, 9))])


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

    def test_baseline_rows_are_a_reduction_of_single_calls(self):
        # Taylor-4 saturates both ways (positive inputs at code_min, negative
        # ones at code_max); the PWL tables have empty segments (spacing below
        # the input ulp), knots on input codes (0.25), knots between them
        # (0.1), and a last knot inside (all but one) or beyond the input range
        for cfg in [self.CMP] + [replace(self.CMP, input_fmt=QFormat(True, 3, frac)) for frac in (9, 10)]:
            in_fmt, out_fmt = cfg.input_fmt, cfg.output_fmt
            clamp = clamp_threshold(out_fmt.frac_bits)
            tables = [uniform_pwl_table(0.001, clamp), uniform_pwl_table(0.25, clamp),
                      uniform_pwl_table(0.1, clamp), uniform_pwl_table(0.5, in_fmt.max_value + 1)]
            for terms, pwl in zip((1, 2, 3, 4), tables):
                rows = {r.method: r for r in compare_methods(cfg, pwl, terms)}
                baselines = (("pwl", lambda v: pwl_tanh(v, pwl)), (f"taylor-{terms}", lambda v: taylor_tanh(v, terms)))
                for name, fn in baselines:
                    errs = []
                    for code in range(in_fmt.code_min, in_fmt.code_max + 1):
                        v = code * in_fmt.ulp
                        y = quantize(fn(v), out_fmt, RoundMode.NEAREST_EVEN)
                        errs.append(abs(y.value - math.tanh(v)))
                    blocks = [math.fsum(errs[i:i + _BLOCK]) for i in range(0, len(errs), _BLOCK)]
                    assert rows[name].max_abs_error == max(errs)
                    assert rows[name].mean_abs_error == math.fsum(blocks) / len(errs)

    def test_variant_rows_are_the_sweep_reports(self):
        rows = {r.method: r for r in compare_methods(self.CMP, uniform_pwl_table(0.25, 2.8), 3)}
        for name, variant in (("optimized", Variant.OPTIMIZED), ("published", Variant.PUBLISHED)):
            rep = exhaustive_sweep(replace(self.CMP, variant=variant))
            assert rows[name].max_abs_error == rep.max_abs_error
            assert rows[name].mean_abs_error == rep.mean_abs_error

    @pytest.mark.parametrize("terms,message", [(0, "need at least one term"), (5, "at most 4 terms supported")])
    def test_bad_term_count_fails_before_any_sweep(self, monkeypatch, terms, message):
        def no_sweep(cfg):
            raise AssertionError("swept before checking the term count")

        monkeypatch.setattr(analysis, "_sweep_family", no_sweep)
        with pytest.raises(ValueError, match=message):
            compare_methods(self.CMP, uniform_pwl_table(0.25, 2.8), terms)

    def test_published_cannot_fit_its_factor_range_in_narrow_entries(self):
        pwl = uniform_pwl_table(0.25, 2.8)
        with pytest.raises(ValueError, match="integer bits"):
            compare_methods(SMALL, pwl, 3)


def _baseline_row_ref(out_fmt, ys, ts):
    """``_baseline_row``'s saturating branch written with the ``min``/``max`` builtins."""
    y_min, y_max = out_fmt.code_min, out_fmt.code_max
    return (
        [abs(min(max(y, y_min), y_max) - t) for y, t in zip(ys, ts)],
        [abs(min(max(-y, y_min), y_max) + t) for y, t in zip(ys, ts)],
    )


class TestBaselineRowClamp:
    OUT = QFormat(True, 0, 7)           # codes -128..127

    def row(self, ys, ts):
        return analysis._baseline_row(self.OUT, lambda m0, m1: list(ys), 0, len(ys), ts)

    def test_boundaries_on_both_sides(self):
        y_max = self.OUT.code_max
        edges = [y_max, y_max + 1, y_max + 2, -y_max, -y_max - 1, -y_max - 2]
        inside = [0, 1, -1, 64, -64, y_max - 1, -y_max + 1]
        ys = edges + inside + [10 * y_max, -10 * y_max]
        ts = [abs(y) * 0.98 + i * 0.37 for i, y in enumerate(ys)]
        pos, neg = self.row(ys, ts)
        assert (pos, neg) == _baseline_row_ref(self.OUT, ys, ts)
        # y_max + 1 clamps on the positive side only, -y_max - 1 on the negative side only
        assert pos[1] == abs(y_max - ts[1]) and neg[1] == abs(y_max + 1 - ts[1])
        assert pos[4] == abs(-y_max - 1 - ts[4]) and neg[4] == abs(-y_max - ts[4])

    @pytest.mark.parametrize("y", [128, 129, -128, -129])
    def test_one_clamped_code_among_in_range_ones(self, y):
        ys = [5, y, -7, 127, -127]
        ts = [4.6, 127.9, 0.25, 126.5, 3.0]
        assert self.row(ys, ts) == _baseline_row_ref(self.OUT, ys, ts)

    def test_in_range_block_is_one_list(self):
        ys = [127, -127, 0, 3]
        pos, neg = self.row(ys, [126.6, 1.5, 0.0, 2.5])
        assert pos is neg
        assert pos == [abs(y - t) for y, t in zip(ys, [126.6, 1.5, 0.0, 2.5])]


# per report: its columns, its rows, its CSV header, and words its text shows
REPORTS = {
    "sweep": (
        SWEEP_COLUMNS, lambda: [exhaustive_sweep(SMALL)],
        "config,max_abs_error,mean_abs_error,max_error_ulps,worst_input_hex,samples", ("config", "s3.5"),
    ),
    "table2": (TABLE2_COLUMNS, lambda: table2(SMALL), "nr_stages,subtractor,max_error", ("stages", "max_error")),
    "compare": (
        COMPARE_COLUMNS, lambda: compare_methods(TestCompareMethods.CMP, uniform_pwl_table(0.5, 2.8), 3),
        "method,max_abs_error,mean_abs_error", ("method", "optimized", "taylor-3"),
    ),
}


@pytest.mark.parametrize("report", REPORTS)
class TestRendering:
    def test_csv_header_and_one_line_per_row(self, report):
        columns, rows, header, _ = REPORTS[report]
        rows = rows()
        lines = render(columns, rows, "csv").splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + len(rows)
        assert all(line.count(",") == header.count(",") for line in lines)

    def test_text_is_aligned(self, report):
        columns, rows, _, words = REPORTS[report]
        text = render(columns, rows(), "text")
        assert all(word in text for word in words)
        assert len({len(line) for line in text.splitlines()}) == 1

    def test_rendering_is_deterministic(self, report):
        columns, rows, _, _ = REPORTS[report]
        rows = rows()
        for fmt in ("text", "csv"):
            assert render(columns, rows, fmt) == render(columns, rows, fmt)


class TestReportCells:
    def test_sweep_csv_ends_with_samples(self):
        rep = exhaustive_sweep(SMALL)
        assert render(SWEEP_COLUMNS, [rep], "csv").splitlines()[1].endswith(f",{rep.samples}")

    def test_sweep_text_contains_hex_worst_input(self):
        rep = exhaustive_sweep(SMALL)
        text = render(SWEEP_COLUMNS, [rep], "text")
        digits = (SMALL.input_fmt.width + 3) // 4
        code = rep.worst_input.code & ((1 << SMALL.input_fmt.width) - 1)
        assert f"{code:0{digits}x}" in text

    def test_table2_divider_row(self):
        csv = render(TABLE2_COLUMNS, table2(SMALL), "csv").splitlines()
        assert csv[1].startswith("0,-,")

    def test_csv_keeps_precision_that_text_rounds(self):
        row = Table2Row(3, Subtractor.TWOS, 1.2345678e-5)
        assert render(TABLE2_COLUMNS, [row], "csv").splitlines()[1] == "3,twos,1.234568e-05"
        assert render(TABLE2_COLUMNS, [row], "text").splitlines()[1] == "     3        twos     1.235e-05"
