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
from array import array
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from itertools import compress, count, islice, repeat
from operator import mul, ne, sub

from .baselines import _TAYLOR_COEFFS, PwlTable, _check_terms, _pwl_range, _taylor_live, _taylor_range
from .datapath import Subtractor, TanhConfig, Variant, _sweep_family, clamp_threshold
from .fxnum import Fx, QFormat


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


_Row = Callable[[int, int, list[float]], tuple[list[float], list[float]]]


def _reduce_errors(cfg: TanhConfig, rows: list[_Row]) -> list[tuple[float, int, float]]:
    """Per row: max error versus real tanh over every input code, its code, and the exact error sum.

    Blocks of ``_BLOCK`` input codes pair up as mirror images: negative
    codes -m1..-m0-1 and positive codes m0..m1-1 read one range of
    magnitudes, m0..m1.  The pair computes ``math.tanh`` once per magnitude,
    in output ulps, into ``ts``, and ``row(m0, m1, ts)`` gives a row's
    absolute errors in output ulps over those magnitudes, for positive
    inputs and for negative ones.  Each row is an odd method and
    ``math.tanh`` is exactly odd, so both are one list unless the row
    saturates its two sides apart; one list is searched for its maximum
    once, on the negative side.  A power of two scales exactly, so the
    errors are the ones measured in real units, scaled.  Errors are summed
    exactly per block and the block sums exactly again; ties for the
    maximum keep the lowest input code.
    """
    half = cfg.input_fmt.code_max + 1
    in_ulp, out_ulp, scale = cfg.input_fmt.ulp, cfg.output_fmt.ulp, 2.0 ** cfg.output_fmt.frac_bits
    tanh, fsum = math.tanh, math.fsum
    step = min(_BLOCK, half)            # below _BLOCK, one block holds both sides
    max_errs, worsts, totals = [-1.0] * len(rows), [0] * len(rows), [[] for _ in rows]
    for m0 in range(0, half, step):
        m1 = m0 + step + 1
        ts = [tanh(m * in_ulp) * scale for m in range(m0, m1)]
        for i, row in enumerate(rows):
            pos, neg = row(m0, m1, ts)
            one_list = pos is neg
            pos, neg = pos[:-1], neg[:0:-1]         # codes m0..m1-1, and -m1..-m0-1
            block_max = max(neg)
            found = [(block_max, neg.index(block_max) - m0 - step)]
            if not one_list:
                block_max = max(pos)
                found.append((block_max, m0 + pos.index(block_max)))
            elif pos[0] > block_max:
                # every positive error but m0's is a negative one's too, at a lower code
                found.append((pos[0], m0))
            for err, code in found:
                if err > max_errs[i] or (err == max_errs[i] and code < worsts[i]):
                    max_errs[i], worsts[i] = err, code
            totals[i] += (fsum(neg), fsum(pos)) if step == _BLOCK else (fsum(neg + pos),)
            del pos, neg                            # before the next row's errors
    return [(e * out_ulp, w, fsum(t) * out_ulp) for e, w, t in zip(max_errs, worsts, totals)]


def _sweep_row(cfg: TanhConfig) -> _Row:
    """The ``_reduce_errors`` row of one configuration, from a sweep of it alone.

    Each magnitude's output code is read through the sweep's slot of it.
    The magnitudes past the slots, among them the most negative input
    code's, which clamps to the largest, read the table's last code.
    """
    slots, (table,) = _sweep_family([cfg])

    def row(m0: int, m1: int, ts: list[float]) -> tuple[list[float], list[float]]:
        k = max(m0, min(len(slots), m1))
        errs = [abs(table[s] - t) for s, t in zip(slots[m0:k], ts)]
        last = table[-1]
        errs += [abs(last - t) for t in ts[k - m0:]]
        return errs, errs

    return row


def _family_maxima(cfgs: list[TanhConfig]) -> list[float]:
    """Per configuration of a family (see ``_sweep_family``): max error versus real tanh over every input code.

    The maxima are read per run of magnitudes that share a slot, and so an
    output code y.  ``math.tanh`` never decreases as the magnitude m rises,
    so a run's largest error, in output ulps, is ``max(y - t(first),
    t(last) - y)``, with ``t(m) = math.tanh(m * ulp) * 2**b``: the doubles
    that ``abs(y - t)`` gives at those ends.  Runs have consecutive slots,
    so a configuration's run outputs are one slice of its table.  The
    magnitudes past the slots, up to the most negative input code's, are
    one more run, which reads the table's last code.  Each row is odd and
    ``math.tanh`` exactly odd, so the magnitudes 0 to ``code_max + 1``
    cover every input code.
    """
    slots, tables = _sweep_family(cfgs)
    in_fmt, out_fmt = cfgs[0].input_fmt, cfgs[0].output_fmt
    starts = array("q", [0])
    starts.extend(compress(count(1), map(ne, islice(slots, 1, None), slots)))
    starts.append(len(slots))                   # the tail, past the slots
    ends = array("q", map(sub, islice(starts, 1, None), repeat(1)))
    ends.append(in_fmt.code_max + 1)
    ulp, scale = in_fmt.ulp, 2.0 ** out_fmt.frac_bits
    firsts, lasts = (
        array("d", map(mul, map(math.tanh, map(mul, ms, repeat(ulp))), repeat(scale))) for ms in (starts, ends)
    )
    first = slots[0]
    maxima = []
    for table in tables:
        ys = table[first:first + len(starts) - 1]
        ys.append(table[-1])
        maxima.append(max(max(map(sub, ys, firsts)), max(map(sub, lasts, ys))) * out_fmt.ulp)
    return maxima


def _baseline_row(
    out_fmt: QFormat, magnitudes: Callable[[int, int], list[int]], m0: int, m1: int, ts: list[float]
) -> tuple[list[float], list[float]]:
    """The row of a baseline whose rounded output codes at magnitudes m0..m1-1 are ``magnitudes(m0, m1)``.

    Outputs saturate as ``quantize`` does, negative ones at ``-code_max - 1``,
    so only a block whose |y| exceeds ``code_max`` has two sides that differ.
    A negative input's output -y clamps to [y_min, y_max]; its error is that
    of y clamped to [-y_max, -y_min].
    """
    ys = magnitudes(m0, m1)
    y_min, y_max = out_fmt.code_min, out_fmt.code_max
    if max(ys) <= y_max and min(ys) >= -y_max:
        errs = [abs(y - t) for y, t in zip(ys, ts)]
        return errs, errs
    lo, hi = -y_max, -y_min
    return (
        [abs((y_max if y > y_max else y_min if y < y_min else y) - t) for y, t in zip(ys, ts)],
        [abs((hi if y > hi else lo if y < lo else y) - t) for y, t in zip(ys, ts)],
    )


def exhaustive_sweep(cfg: TanhConfig) -> ErrorReport:
    """Sweep every input code and report max/mean error versus real tanh.

    Each magnitude is evaluated once, by a sweep of ``cfg`` alone, and
    every input code, negative ones included, reads its output from there,
    as ``tanh_fx`` would compute it; ``_reduce_errors`` does the rest.
    """
    ((max_err, worst, total),) = _reduce_errors(cfg, [_sweep_row(cfg)])
    samples = 1 << cfg.input_fmt.width
    return ErrorReport(
        config=cfg.describe(),
        max_abs_error=max_err,
        mean_abs_error=total / samples,
        max_error_ulps=max_err / cfg.output_fmt.ulp,
        worst_input=Fx(worst, cfg.input_fmt),
        samples=samples,
    )


def table2(cfg_base: TanhConfig) -> list[Table2Row]:
    """Error grid over reciprocal stage counts and subtractor modes.

    Zero stages stands for the reference divider (real-valued division,
    quantized once at the output); the subtractor plays no part there, so
    the two zero-stage rows agree and share one configuration.  The five
    configurations differ only past f, so they are one sweep: the tree part
    and each Newton-Raphson iterate are computed once, and only the last
    steps of the final stage run per configuration.  The grid reports
    maxima only, so ``_family_maxima`` reduces each configuration per run
    of equal output, against ``math.tanh`` values computed once for the
    family at each run's ends, and sums no errors.  Each row's error equals
    the ``exhaustive_sweep`` maximum of its cell.
    """
    cells = [(stages, sub) for stages in (0, 2, 3) for sub in (Subtractor.ONES, Subtractor.TWOS)]
    family = [replace(cfg_base, nr_stages=stages, subtractor=sub) for stages, sub in cells[1:]]
    maxima = _family_maxima(family)
    return [Table2Row(stages, sub, e) for (stages, sub), e in zip(cells, maxima[:1] + maxima)]


@dataclass(frozen=True)
class MethodRow:
    method: str
    max_abs_error: float
    mean_abs_error: float


def compare_methods(cfg: TanhConfig, pwl: PwlTable, taylor_terms: int = 3) -> list[MethodRow]:
    """Max/mean error of both pipeline variants, PWL, and a Taylor partial sum.

    All methods see the same quantized input grid and the same exact error
    reduction as ``exhaustive_sweep``.  The baselines run in real arithmetic
    and are quantized only at the output (nearest even, saturating), so
    their rows show method error, not internal rounding error.  One
    reduction serves all four rows, so each ``math.tanh`` value is computed
    once.  The Taylor sum is evaluated only below ``_taylor_live``'s bound:
    past it every code is at or beyond ±scale, on the side of the last
    coefficient, and both of ``_baseline_row``'s clamps map such a code as
    they map ±scale, so the tail reads ±scale.
    """
    _check_terms(taylor_terms)
    rows = [_sweep_row(replace(cfg, variant=variant)) for variant in (Variant.OPTIMIZED, Variant.PUBLISHED)]
    ulp, scale = cfg.input_fmt.ulp, 1 << cfg.output_fmt.frac_bits
    live = _taylor_live(taylor_terms, ulp, cfg.input_fmt.code_max + 2)
    fill = scale if _TAYLOR_COEFFS[taylor_terms - 1] > 0 else -scale

    def taylor(m0: int, m1: int) -> list[int]:
        return _taylor_range(taylor_terms, ulp, scale, m0, min(m1, live)) + [fill] * (m1 - max(m0, live))

    rows += [
        partial(_baseline_row, cfg.output_fmt, partial(_pwl_range, pwl, ulp, scale)),
        partial(_baseline_row, cfg.output_fmt, taylor),
    ]
    names = ("optimized", "published", "pwl", f"taylor-{taylor_terms}")
    samples = 1 << cfg.input_fmt.width
    return [MethodRow(name, e, total / samples) for name, (e, _, total) in zip(names, _reduce_errors(cfg, rows))]


def _hex_code(v: Fx) -> str:
    digits = (v.fmt.width + 3) // 4
    return f"{v.code & ((1 << v.fmt.width) - 1):0{digits}x}"


@dataclass(frozen=True)
class Column:
    """One column of a report: its CSV name and how a row reads in it.

    A cell is ``get(row)``, or the row's attribute ``name``, formatted with
    the spec ``text``, or ``csv`` where the CSV cell differs.  The text
    heading is ``heading``, or else ``name``; text cells align to ``align``
    in at least ``width`` characters, or the column's widest cell.
    """

    name: str
    text: str = ""
    csv: str | None = None
    heading: str | None = None
    align: str = "<"
    width: int = 0
    get: Callable[[object], object] | None = None


SWEEP_COLUMNS = (
    Column("config"),
    Column("max_abs_error", ".6e"),
    Column("mean_abs_error", ".6e"),
    Column("max_error_ulps", ".3f"),
    Column("worst_input_hex", get=lambda r: _hex_code(r.worst_input)),
    Column("samples"),
)

# zero stages is the reference divider, where the subtractor plays no part
TABLE2_COLUMNS = (
    Column("nr_stages", heading="stages", align=">"),
    Column("subtractor", align=">", get=lambda r: "-" if r.nr_stages == 0 else r.subtractor.value),
    Column("max_error", ".3e", csv=".6e", align=">", width=12),
)

COMPARE_COLUMNS = (
    Column("method", width=12),
    Column("max_abs_error", ".3e", csv=".6e", align=">"),
    Column("mean_abs_error", ".3e", csv=".6e", align=">"),
)


def render(columns: tuple[Column, ...], rows: list, fmt: str = "text") -> str:
    """Serialize report rows as aligned text or comma-separated values."""
    values = [[getattr(r, c.name) if c.get is None else c.get(r) for c in columns] for r in rows]
    if fmt == "csv":
        lines = [[c.name for c in columns]]
        lines += [[format(v, c.text if c.csv is None else c.csv) for v, c in zip(vs, columns)] for vs in values]
        return "".join(",".join(f'"{s}"' if "," in s else s for s in line) + "\n" for line in lines)
    lines = [[c.name if c.heading is None else c.heading for c in columns]]
    lines += [[format(v, c.text) for v, c in zip(vs, columns)] for vs in values]
    widths = [max(c.width, *(len(line[i]) for line in lines)) for i, c in enumerate(columns)]
    return "".join("  ".join(f"{s:{c.align}{w}}" for s, c, w in zip(line, columns, widths)) + "\n" for line in lines)
