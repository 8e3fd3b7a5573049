"""Exhaustive-domain error measurement and report generation.

Errors are measured against the real-valued reference tanh, not its
quantized image: the reference row of the error grid (a real divider
followed by output quantization) itself shows about 1.5 output ulps under
this convention, so comparing to the unquantized function is what makes the
grid's numbers meaningful.

Sweeps enumerate every input code, so the reports are exact properties of a
configuration, not statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .baselines import PwlTable, pwl_tanh, reference_tanh, taylor_tanh
from .datapath import Subtractor, TanhConfig, Variant, magnitude_outputs
from .fxnum import Fx, RoundMode, quantize

_MAX_SWEEP_WIDTH = 24


def clamp_threshold(b: int) -> float:
    """Input magnitude beyond which tanh saturates a b-fraction-bit output.

    Equals artanh(1 - 2**-b) = ln(2**(b+1) - 1)/2; past this point the
    remaining gap to 1 is below half an output ulp.
    """
    if b < 1:
        raise ValueError("need at least one fractional output bit")
    return math.atanh(1.0 - 2.0 ** -b)


@dataclass(frozen=True)
class ErrorReport:
    """Result of an exhaustive sweep over every input code."""

    config: str
    max_abs_error: float
    mean_abs_error: float
    max_error_ulps: float
    worst_input: Fx
    samples: int


@dataclass(frozen=True)
class Table2Row:
    """One cell of the accuracy grid: stages x subtractor -> max error."""

    nr_stages: int
    subtractor: Subtractor
    max_error: float


_BLOCK = 1 << 12


def exhaustive_sweep(cfg: TanhConfig) -> ErrorReport:
    """Sweep every input code and report max/mean error versus real tanh.

    Each magnitude is evaluated once (see ``magnitude_outputs``) and every
    input code, negative ones included, reads its output from there, as
    ``tanh_fx`` would compute it.  Errors are summed exactly per block of
    ``_BLOCK`` codes and the block sums exactly again; ties for the
    maximum keep the lowest input code.
    """
    width = cfg.input_fmt.width
    if width > _MAX_SWEEP_WIDTH:
        raise ValueError(f"{width}-bit input is too wide for an exhaustive sweep (limit {_MAX_SWEEP_WIDTH})")
    mags = magnitude_outputs(cfg)
    mags.append(mags[-1])               # the most negative code clamps to the largest magnitude
    lo, hi = cfg.input_fmt.code_min, cfg.input_fmt.code_max + 1
    in_ulp, out_ulp = cfg.input_fmt.ulp, cfg.output_fmt.ulp
    tanh = math.tanh
    max_err, worst, totals = -1.0, lo, []
    for start in range(lo, hi, _BLOCK):
        stop = min(start + _BLOCK, hi)
        mid = min(max(start, 0), stop)
        # -y - t rounds to exactly -(y + t), so negative codes need no sign flip
        errs = [abs(y * out_ulp + tanh(c * in_ulp))
                for c, y in zip(range(start, mid), reversed(mags[1 - mid:1 - start]))]
        errs += [abs(y * out_ulp - tanh(c * in_ulp)) for c, y in zip(range(mid, stop), mags[mid:stop])]
        block_max = max(errs)
        if block_max > max_err:
            max_err, worst = block_max, start + errs.index(block_max)
        totals.append(math.fsum(errs))
    samples = hi - lo
    return ErrorReport(
        config=cfg.describe(),
        max_abs_error=max_err,
        mean_abs_error=math.fsum(totals) / samples,
        max_error_ulps=max_err / cfg.output_fmt.ulp,
        worst_input=Fx(worst, cfg.input_fmt),
        samples=samples,
    )


def table2(cfg_base: TanhConfig) -> list[Table2Row]:
    """Error grid over reciprocal stage counts and subtractor modes.

    Zero stages stands for the reference divider (real-valued division,
    quantized once at the output); the subtractor plays no part there, so
    the two zero-stage rows agree.
    """
    rows = []
    for stages in (0, 2, 3):
        for sub in (Subtractor.ONES, Subtractor.TWOS):
            cfg = replace(cfg_base, nr_stages=stages, subtractor=sub)
            report = exhaustive_sweep(cfg)
            rows.append(Table2Row(stages, sub, report.max_abs_error))
    return rows


@dataclass(frozen=True)
class MethodRow:
    method: str
    max_abs_error: float
    mean_abs_error: float


def compare_methods(cfg: TanhConfig, pwl: PwlTable, taylor_terms: int = 3) -> list[MethodRow]:
    """Max/mean error of both pipeline variants, PWL, and a Taylor partial sum.

    All methods see the same quantized input grid.  The baselines run in
    real arithmetic and are quantized only at the output, so their rows show
    method error, not internal rounding error.
    """
    rows = []
    for name, variant in (("optimized", Variant.OPTIMIZED), ("published", Variant.PUBLISHED)):
        rep = exhaustive_sweep(replace(cfg, variant=variant))
        rows.append(MethodRow(name, rep.max_abs_error, rep.mean_abs_error))
    in_fmt, out_fmt = cfg.input_fmt, cfg.output_fmt
    for name, fn in (
        ("pwl", lambda v: pwl_tanh(v, pwl)),
        (f"taylor-{taylor_terms}", lambda v: taylor_tanh(v, taylor_terms)),
    ):
        max_err, total = 0.0, 0.0
        samples = in_fmt.code_max - in_fmt.code_min + 1
        for code in range(in_fmt.code_min, in_fmt.code_max + 1):
            v = code * in_fmt.ulp
            y = quantize(fn(v), out_fmt, RoundMode.NEAREST_EVEN)
            err = abs(y.value - reference_tanh(v))
            total += err
            if err > max_err:
                max_err = err
        rows.append(MethodRow(name, max_err, total / samples))
    return rows


def _hex_code(v: Fx) -> str:
    digits = (v.fmt.width + 3) // 4
    return f"{v.code & ((1 << v.fmt.width) - 1):0{digits}x}"


_REPORT_COLUMNS = ("config", "max_abs_error", "mean_abs_error", "max_error_ulps", "worst_input_hex", "samples")


def render_reports(reports: list[ErrorReport], fmt: str = "text") -> str:
    """Serialize sweep reports as aligned text or comma-separated values."""
    rows = [
        (
            r.config,
            f"{r.max_abs_error:.6e}",
            f"{r.mean_abs_error:.6e}",
            f"{r.max_error_ulps:.3f}",
            _hex_code(r.worst_input),
            str(r.samples),
        )
        for r in reports
    ]
    if fmt == "csv":
        lines = [",".join(_REPORT_COLUMNS)]
        lines += [",".join(f'"{c}"' if "," in c else c for c in row) for row in rows]
        return "\n".join(lines) + "\n"
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(_REPORT_COLUMNS)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(_REPORT_COLUMNS, widths))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows]
    return "\n".join(lines) + "\n"


def render_table2(rows: list[Table2Row], fmt: str = "text") -> str:
    """Serialize the accuracy grid; zero stages is the reference divider."""
    out = []
    if fmt == "csv":
        out.append("nr_stages,subtractor,max_error")
        for r in rows:
            sub = "-" if r.nr_stages == 0 else r.subtractor.value
            out.append(f"{r.nr_stages},{sub},{r.max_error:.6e}")
    else:
        out.append(f"{'stages':>6}  {'subtractor':>10}  {'max_error':>12}")
        for r in rows:
            sub = "-" if r.nr_stages == 0 else r.subtractor.value
            out.append(f"{r.nr_stages:>6}  {sub:>10}  {r.max_error:>12.3e}")
    return "\n".join(out) + "\n"


def render_comparison(rows: list[MethodRow], fmt: str = "text") -> str:
    out = []
    if fmt == "csv":
        out.append("method,max_abs_error,mean_abs_error")
        out += [f"{r.method},{r.max_abs_error:.6e},{r.mean_abs_error:.6e}" for r in rows]
    else:
        out.append(f"{'method':<12}  {'max_abs_error':>13}  {'mean_abs_error':>14}")
        out += [f"{r.method:<12}  {r.max_abs_error:>13.3e}  {r.mean_abs_error:>14.3e}" for r in rows]
    return "\n".join(out) + "\n"
