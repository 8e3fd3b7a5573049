"""Command-line interface tests."""

import time
from itertools import product

import pytest

from fxtanh import cli
from fxtanh.analysis import clamp_threshold
from fxtanh.cli import UsageError, _config_from_args, build_parser, parse_format, run
from fxtanh.datapath import Subtractor, Variant
from fxtanh.fxnum import QFormat, RoundMode
from fxtanh.lutgen import _GROUP_WIDTHS, parse_memh

SMALL_FLAGS = ["--in", "s3.5", "--out", "s.7", "--lut-bits", "10", "--mult-bits", "8"]


class TestParseFormat:
    def test_conventional_strings(self):
        assert parse_format("s3.12") == QFormat(True, 3, 12)
        assert parse_format("s.15") == QFormat(True, 0, 15)
        assert parse_format("u0.18") == QFormat(False, 0, 18)

    def test_missing_marker_means_unsigned(self):
        assert parse_format("0.18") == QFormat(False, 0, 18)
        assert parse_format(".7") == QFormat(False, 0, 7)

    def test_malformed_strings(self):
        for bad in ("x9.9", "s3", "3,12", "", "s-1.4"):
            with pytest.raises(UsageError):
                parse_format(bad)

    def test_error_names_the_token(self):
        with pytest.raises(UsageError, match="x9.9"):
            parse_format("x9.9")


class TestGenLut:
    def test_writes_tables_and_manifest(self, tmp_path, capsys):
        assert run(["gen-lut", "--dir", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["lut0.memh", "lut1.memh", "lut2.memh", "lut3.memh", "manifest.txt"]
        assert len((tmp_path / "lut0.memh").read_text().splitlines()) == 16
        assert len((tmp_path / "lut3.memh").read_text().splitlines()) == 8
        out = capsys.readouterr().out
        assert "lut0.memh" in out

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["gen-lut", "--dir", str(a)])
        run(["gen-lut", "--dir", str(b)])
        for name in ("lut0.memh", "lut2.memh", "manifest.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_round_trip_of_every_entry(self, tmp_path):
        from fxtanh.datapath import build_luts_for, reference_config

        run(["gen-lut", "--dir", str(tmp_path)])
        for j, lut in enumerate(build_luts_for(reference_config())):
            codes = parse_memh((tmp_path / f"lut{j}.memh").read_text())
            assert codes == [e.code for e in lut.entries]

    def test_invalid_config_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "never"
        assert run(["gen-lut", "--lut-bits", "0", "--dir", str(out_dir)]) == 1
        assert not out_dir.exists()
        assert "error" in capsys.readouterr().err

    def test_unwritable_destination(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory\n")
        assert run(["gen-lut", "--dir", str(blocker)]) == 1
        assert "error" in capsys.readouterr().err


class TestReports:
    def test_sweep_text(self, capsys):
        assert run(["sweep", *SMALL_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "max_abs_error" in out and "s3.5" in out

    def test_sweep_csv_to_file(self, tmp_path):
        target = tmp_path / "report.csv"
        assert run(["sweep", *SMALL_FLAGS, "--report", "csv", "--save", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("config,max_abs_error")
        assert len(lines) == 2

    def test_sweep_save_identical_to_stdout(self, tmp_path, capsys):
        assert run(["sweep", *SMALL_FLAGS, "--report", "csv"]) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / "r.csv"
        run(["sweep", *SMALL_FLAGS, "--report", "csv", "--save", str(target)])
        assert target.read_text() == stdout

    def test_table2_has_six_rows(self, capsys):
        assert run(["table2", *SMALL_FLAGS, "--report", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        assert lines[1].startswith("0,-,")
        assert lines[-1].startswith("3,twos,")

    def test_compare_lists_all_methods(self, capsys):
        # default 18-bit entries: the published registers need the headroom
        assert run(["compare", "--in", "s3.5", "--out", "s.7", "--report", "csv"]) == 0
        out = capsys.readouterr().out
        for method in ("optimized", "published", "pwl", "taylor-3"):
            assert method in out

    @pytest.mark.parametrize("spacing", ["nan", "inf", "0", "-0.5"])
    def test_compare_refuses_a_spacing_that_is_not_positive_and_finite(self, spacing, capsys):
        assert run(["compare", "--in", "s3.5", "--out", "s.7", f"--pwl-spacing={spacing}"]) == 1
        assert str(float(spacing)) in capsys.readouterr().err

    def test_compare_refuses_more_knots_than_magnitude_codes_before_building_them(self, monkeypatch, capsys):
        # s3.12 inputs have 32,769 magnitude codes; spacing 1e-9 over [0, 5.55] would make 5.5e9 knots
        def no_table(spacing, clamp):
            raise AssertionError("built the knot table")

        monkeypatch.setattr(cli, "uniform_pwl_table", no_table)
        start = time.perf_counter()
        assert run(["compare", "--pwl-spacing", "1e-9"]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "--pwl-spacing 1e-09 makes 5545169817 knots" in err
        assert "32769 magnitude codes" in err

    def test_compare_accepts_as_many_knots_as_magnitude_codes(self, capsys):
        # s3.5 inputs have 257 magnitude codes: 256 segments over [0, clamp] fit, 257 do not
        clamp = clamp_threshold(7)
        args = ["compare", "--in", "s3.5", "--out", "s.7", "--pwl-spacing"]
        assert run(args + [repr(clamp / 255.5)]) == 0
        assert run(args + [repr(clamp / 256.5)]) == 1
        assert "makes 258 knots, more than the 257 magnitude codes of s3.5 inputs" in capsys.readouterr().err


class TestEval:
    def test_zero_trace_ends_in_zero(self, capsys):
        assert run(["eval", "x=0"]) == 0
        out = capsys.readouterr().out
        assert "bypass" in out
        assert out.strip().splitlines()[-1].startswith("output")
        assert "code=0" in out.strip().splitlines()[-1]

    def test_trace_shows_pipeline_stages(self, capsys):
        assert run(["eval", "x=0.75"]) == 0
        out = capsys.readouterr().out
        for label in ("input", "magnitude", "lut0", "factor", "numerator", "nr x0", "nr x3", "output"):
            assert label in out

    def test_trace_matches_library_evaluation(self, capsys):
        from fxtanh.datapath import reference_config, tanh_fx
        from fxtanh.fxnum import RoundMode, quantize

        assert run(["eval", "x=0.75"]) == 0
        out = capsys.readouterr().out
        cfg = reference_config()
        y = tanh_fx(quantize(0.75, cfg.input_fmt, RoundMode.NEAREST_EVEN), cfg)
        assert f"code={y.code}" in out.splitlines()[-1]

    def test_saturated_trace_says_so(self, capsys):
        assert run(["eval", "x=7.5"]) == 0
        assert "saturated" in capsys.readouterr().out

    def test_published_trace(self, capsys):
        assert run(["eval", "--variant", "published", "x=0.3"]) == 0
        out = capsys.readouterr().out
        assert "uncorrected" in out and "residual" in out

    def test_malformed_point(self, capsys):
        assert run(["eval", "0.75"]) == 2
        assert run(["eval", "x=abc"]) == 2
        assert "error" in capsys.readouterr().err


class TestConfigFlags:
    def test_every_mode_is_a_choice(self):
        for sub, variant, round_mode, group in product(Subtractor, Variant, RoundMode, _GROUP_WIDTHS):
            args = build_parser().parse_args([
                "sweep", "--sub", sub.value, "--variant", variant.value, "--group", str(group),
                "--internal-round", round_mode.value, "--output-round", round_mode.value,
            ])
            cfg = _config_from_args(args)
            assert (cfg.subtractor, cfg.variant, cfg.grouping.group_width) == (sub, variant, group)
            assert cfg.internal_round is cfg.output_round is round_mode


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_bad_format_string(self, capsys):
        assert run(["sweep", "--in", "x9.9"]) == 2
        assert "x9.9" in capsys.readouterr().err

    def test_domain_error(self, capsys):
        # a 25-bit input is refused when the configuration is built
        assert run(["sweep", "--in", "s12.12", "--out", "s.15"]) == 1
        assert "25-bit input is too wide" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "table2", "compare", "eval"])
    def test_outputs_without_fraction_bits_are_refused(self, command, capsys):
        args = [command, "--out", "s.0"] + (["x=0.5"] if command == "eval" else [])
        assert run(args) == 1
        assert "need at least one fractional output bit" in capsys.readouterr().err

    def test_widest_input_evaluates(self, capsys):
        assert run(["eval", "--in", "s3.20", "--out", "s.23", "--lut-bits", "26", "--mult-bits", "24", "x=0.3"]) == 0
        assert run(["eval", "--in", "s3.21", "x=0.3"]) == 1
        assert "25-bit input is too wide" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--group", "--sub", "--variant", "--internal-round", "--output-round"])
    def test_bad_choice(self, flag, capsys):
        assert run(["sweep", flag, "3"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_subcommand(self):
        assert run([]) == 2
