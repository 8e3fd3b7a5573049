"""Command-line front end.

Subcommands: gen-lut (write ROM files), sweep (one exhaustive error report),
table2 (the stages x subtractor accuracy grid), compare (pipelines vs PWL
and Taylor baselines), eval (trace one input through the pipeline).

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import analysis, lutgen
from .baselines import uniform_pwl_table
from .datapath import Subtractor, TanhConfig, TanhTrace, Variant, tanh_fx
from .fxnum import QFormat, RoundMode, quantize
from .lutgen import GroupingScheme

_FORMAT_RE = re.compile(r"^([su]?)(\d*)\.(\d+)$")


class UsageError(ValueError):
    pass


def parse_format(text: str) -> QFormat:
    """Parse conventional format strings: s3.12, s.15, u0.18.

    A missing sign marker means unsigned; a missing integer count means
    zero integer bits.
    """
    m = _FORMAT_RE.match(text.strip())
    if not m:
        raise UsageError(f"malformed format string: {text!r}")
    sign, int_part, frac_part = m.groups()
    try:
        return QFormat(sign == "s", int(int_part) if int_part else 0, int(frac_part))
    except ValueError as e:
        raise UsageError(f"bad format {text!r}: {e}") from None


_ROUND_NAMES = {
    "truncate": RoundMode.TRUNCATE,
    "nearest-even": RoundMode.NEAREST_EVEN,
}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="in_fmt", default="s3.12", metavar="FMT", help="input format (default s3.12)")
    p.add_argument("--out", dest="out_fmt", default="s.15", metavar="FMT", help="output format (default s.15)")
    p.add_argument("--lut-bits", type=int, default=18, help="fractional bits per LUT entry (default 18)")
    p.add_argument("--mult-bits", type=int, default=16, help="fractional bits kept by multipliers (default 16)")
    p.add_argument("--group", type=int, default=4, choices=(1, 2, 4), help="input bits per LUT (default 4)")
    shuf = p.add_mutually_exclusive_group()
    shuf.add_argument("--shuffle", dest="shuffle", action="store_true", default=True,
                      help="balance bit weights across LUTs (default)")
    shuf.add_argument("--no-shuffle", dest="shuffle", action="store_false",
                      help="consecutive ascending bit groups")
    p.add_argument("--nr-stages", type=int, default=3, help="reciprocal refinement stages; 0 = reference divider")
    p.add_argument("--sub", choices=("ones", "twos"), default="twos", help="final-stage subtractor (default twos)")
    p.add_argument("--variant", choices=("optimized", "published"), default="optimized")
    p.add_argument("--threshold", type=float, default=2.0 ** -7,
                   help="published variant: smallest register weight (default 2^-7)")
    p.add_argument("--internal-round", choices=sorted(_ROUND_NAMES), default="nearest-even",
                   help="product-tree rounding (default nearest-even)")
    p.add_argument("--output-round", choices=sorted(_ROUND_NAMES), default="nearest-even",
                   help="final rescale rounding (default nearest-even)")


def _config_from_args(args: argparse.Namespace) -> TanhConfig:
    return TanhConfig(
        input_fmt=parse_format(args.in_fmt),
        output_fmt=parse_format(args.out_fmt),
        lut_fmt=QFormat(False, 0, args.lut_bits),
        mult_fmt=QFormat(False, 0, args.mult_bits),
        grouping=GroupingScheme(args.group, args.shuffle),
        nr_stages=args.nr_stages,
        subtractor=Subtractor(args.sub),
        variant=Variant(args.variant),
        published_threshold=args.threshold,
        internal_round=_ROUND_NAMES[args.internal_round],
        output_round=_ROUND_NAMES[args.output_round],
    )


def _emit(text: str, save: str | None) -> None:
    if save is None:
        sys.stdout.write(text)
    else:
        Path(save).write_text(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fxtanh", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-lut", help="write lut<j>.memh files and a manifest")
    _add_config_flags(p)
    p.add_argument("--dir", default=".", help="output directory (default .)")

    for name, help_text in (
        ("sweep", "exhaustive error report for one configuration"),
        ("table2", "accuracy grid over reciprocal stages and subtractor modes"),
        ("compare", "pipelines versus PWL and Taylor baselines"),
    ):
        p = subs.add_parser(name, help=help_text)
        _add_config_flags(p)
        p.add_argument("--report", choices=("text", "csv"), default="text")
        p.add_argument("--save", metavar="PATH", help="write the report here instead of stdout")
        if name == "compare":
            p.add_argument("--pwl-spacing", type=float, default=0.25)
            p.add_argument("--taylor-terms", type=int, default=3)

    p = subs.add_parser("eval", help="trace one input through the pipeline")
    _add_config_flags(p)
    p.add_argument("point", metavar="x=VALUE", help="input value, e.g. x=0.75")

    return parser


def _cmd_gen_lut(args) -> int:
    cfg = _config_from_args(args)
    luts = lutgen.build_luts(cfg.input_fmt, cfg.grouping, cfg.lut_fmt)
    paths = lutgen.write_rom_files(list(luts), args.dir)
    for path in paths:
        print(path)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    report = analysis.exhaustive_sweep(cfg)
    _emit(analysis.render_reports([report], args.report), args.save)
    return 0


def _cmd_table2(args) -> int:
    cfg = _config_from_args(args)
    rows = analysis.table2(cfg)
    _emit(analysis.render_table2(rows, args.report), args.save)
    return 0


def _cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    clamp = analysis.clamp_threshold(cfg.output_fmt.frac_bits)
    pwl = uniform_pwl_table(args.pwl_spacing, clamp)
    rows = analysis.compare_methods(cfg, pwl, args.taylor_terms)
    _emit(analysis.render_comparison(rows, args.report), args.save)
    return 0


def _fx_line(label: str, v) -> str:
    if v is None:
        return f"{label:<14} bypass (exact 1.0)"
    return f"{label:<14} code={v.code} ({v.fmt}) value={v.value:.10g}"


def _cmd_eval(args) -> int:
    if not args.point.startswith("x="):
        raise UsageError(f"expected x=VALUE, got {args.point!r}")
    try:
        value = float(args.point[2:])
    except ValueError:
        raise UsageError(f"not a number: {args.point[2:]!r}") from None
    cfg = _config_from_args(args)
    x = quantize(value, cfg.input_fmt, RoundMode.NEAREST_EVEN)
    trace = TanhTrace()
    tanh_fx(x, cfg, None, trace)
    print(_fx_line("input", trace.input))
    print(f"{'sign':<14} {'negative' if trace.negative else 'non-negative'}")
    print(_fx_line("magnitude", trace.magnitude))
    if trace.saturated:
        print(f"{'saturated':<14} yes (|x| at or beyond the clamp threshold)")
    for i, (addr, entry) in enumerate(zip(trace.lut_addresses, trace.lut_entries)):
        suffix = "bypass" if entry is None else f"code={entry.code} value={entry.value:.10g}"
        print(f"{f'lut{i}':<14} addr={addr:#x} {suffix}")
    if trace.factor is not None or trace.lut_addresses:
        print(_fx_line("factor", trace.factor))
    if trace.numerator is not None:
        print(_fx_line("numerator", trace.numerator))
    if trace.denominator is not None:
        print(_fx_line("denominator", trace.denominator))
    for i, it in enumerate(trace.nr_iterates):
        print(_fx_line(f"nr x{i}", it))
    if trace.pre_correction is not None:
        print(_fx_line("uncorrected", trace.pre_correction))
        print(_fx_line("residual", trace.residual))
    print(_fx_line("output", trace.output))
    return 0


_COMMANDS = {
    "gen-lut": _cmd_gen_lut,
    "sweep": _cmd_sweep,
    "table2": _cmd_table2,
    "compare": _cmd_compare,
    "eval": _cmd_eval,
}


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
