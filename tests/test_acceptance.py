"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
values next to each criterion.
"""

import math
import random
import time
from dataclasses import replace

import pytest

from fxtanh.analysis import clamp_threshold, exhaustive_sweep, table2
from fxtanh.cli import run
from fxtanh.datapath import (
    Subtractor,
    TanhConfig,
    Variant,
    build_luts_for,
    reference_config,
    tanh_fx,
)
from fxtanh.fxnum import Fx, QFormat
from fxtanh.lutgen import (
    GroupingScheme,
    parse_memh,
    shuffle_map,
    velocity_factor,
    velocity_factor_original,
)

CFG = reference_config()
LUTS = build_luts_for(CFG)
OUT_ULP = CFG.output_fmt.ulp

SMALL_CFG = TanhConfig(
    input_fmt=QFormat(True, 3, 5),
    output_fmt=QFormat(True, 0, 7),
    lut_fmt=QFormat(False, 0, 10),
    mult_fmt=QFormat(False, 0, 8),
)


def _check(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def grid():
    t0 = time.perf_counter()
    rows = table2(CFG)
    elapsed = time.perf_counter() - t0
    by_key = {(r.nr_stages, r.subtractor): r.max_error for r in rows}
    return by_key, elapsed


@pytest.fixture(scope="module")
def optimized_max(grid):
    by_key, _ = grid
    return by_key[(3, Subtractor.TWOS)]


@pytest.fixture(scope="module")
def published_report():
    return exhaustive_sweep(replace(CFG, variant=Variant.PUBLISHED))


def test_criterion_01_error_grid_reproduction(grid):
    by_key, elapsed = grid
    bands = {
        (0, Subtractor.ONES): (2.22e-5, 8.88e-5),
        (0, Subtractor.TWOS): (2.22e-5, 8.88e-5),
        (2, Subtractor.ONES): (1.385e-4, 5.54e-4),
        (2, Subtractor.TWOS): (1.28e-4, 5.12e-4),
        (3, Subtractor.ONES): (2.16e-5, 8.64e-5),
        (3, Subtractor.TWOS): (2.2e-5, 8.9e-5),
    }
    ok = elapsed < 5.0
    parts = []
    for key, (lo, hi) in bands.items():
        err = by_key[key]
        ok &= lo <= err <= hi
        parts.append(f"{key[0]}/{key[1].value}={err:.2e}")
    _check(1, ok, f"{', '.join(parts)}; runtime {elapsed:.2f}s")


def test_criterion_02_grid_ordering(grid):
    by_key, _ = grid
    three = [by_key[(3, s)] for s in Subtractor]
    two = [by_key[(2, s)] for s in Subtractor]
    ordering = max(three) < min(two)
    penalty = by_key[(3, Subtractor.ONES)] <= 2 * by_key[(3, Subtractor.TWOS)]
    _check(
        2,
        ordering and penalty,
        f"max3={max(three):.2e} < min2={min(two):.2e}; "
        f"ones/twos at 3 stages: {by_key[(3, Subtractor.ONES)]:.2e} vs {by_key[(3, Subtractor.TWOS)]:.2e}",
    )


def test_criterion_03_lut_precision_sufficiency(optimized_max):
    shuffled = optimized_max
    consecutive = exhaustive_sweep(replace(CFG, grouping=GroupingScheme(4, False))).max_abs_error
    two_ulp = shuffled <= 6.2e-5
    off_worse = consecutive > shuffled or consecutive > 6.2e-5
    _check(
        3,
        two_ulp and off_worse,
        f"shuffle on max={shuffled:.3e} (<= 6.2e-5), shuffle off max={consecutive:.3e} (strictly worse)",
    )


def test_criterion_04_odd_symmetry_exhaustive():
    exceptions = 0
    in_fmt = CFG.input_fmt
    for code in range(0, 1 << 15):
        pos = tanh_fx(Fx(code, in_fmt), CFG, LUTS)
        neg = tanh_fx(Fx(-code, in_fmt), CFG, LUTS)
        if neg.code != -pos.code:
            exceptions += 1
    _check(4, exceptions == 0, f"{exceptions} asymmetric codes out of {(1 << 15) - 1} pairs")


def test_criterion_05_exact_zero_and_saturation():
    zero_ok = tanh_fx(Fx(0, CFG.input_fmt), CFG, LUTS).code == 0
    threshold = clamp_threshold(15)
    first = math.ceil(threshold * (1 << 12))
    bad = 0
    total = 0
    for code in range(first, (1 << 15)):
        total += 2
        if tanh_fx(Fx(code, CFG.input_fmt), CFG, LUTS).code != CFG.output_fmt.code_max:
            bad += 1
        if tanh_fx(Fx(-code, CFG.input_fmt), CFG, LUTS).code != -CFG.output_fmt.code_max:
            bad += 1
    total += 1
    if tanh_fx(Fx(CFG.input_fmt.code_min, CFG.input_fmt), CFG, LUTS).code != -CFG.output_fmt.code_max:
        bad += 1
    _check(5, zero_ok and bad == 0, f"tanh(0)=0: {zero_ok}; {bad}/{total} clamp-domain codes missed +/-(1-2^-15)")


def test_criterion_06_clamp_thresholds():
    vals = {b: clamp_threshold(b) for b in (7, 11, 15)}
    ok = (
        abs(vals[7] - 2.77) <= 0.01
        and abs(vals[11] - 4.16) <= 0.01
        and abs(vals[15] - 5.55) <= 0.01
    )
    _check(6, ok, f"b=7: {vals[7]:.3f}, b=11: {vals[11]:.3f}, b=15: {vals[15]:.3f}")


def test_criterion_07_velocity_factor_identities():
    rng = random.Random(20240214)
    worst_exp = 0.0
    worst_mult = 0.0
    for _ in range(10_000):
        a = rng.uniform(0.0, 8.0)
        b = rng.uniform(0.0, 8.0)
        worst_exp = max(worst_exp, abs(velocity_factor(a) - math.exp(-2 * a)))
        worst_mult = max(
            worst_mult,
            abs(velocity_factor(a + b) - velocity_factor(a) * velocity_factor(b)),
        )
    lo = velocity_factor_original(2.0 ** -12)
    hi = velocity_factor_original(2.0)
    ok = (
        worst_exp <= 1e-12
        and worst_mult <= 1e-12
        and abs(lo - 1.0004884) <= 1e-7
        and abs(hi - 54.59815) <= 1e-4
    )
    _check(
        7,
        ok,
        f"|f-exp| max={worst_exp:.1e}, multiplicativity max={worst_mult:.1e}, "
        f"range=[{lo:.7f}, {hi:.5f}]",
    )


def test_criterion_08_reciprocal_convergence():
    seed = CFG.nr_seed
    checked = 0
    worst_final = 0.0
    worst_ratio_dev = 0.0
    for i in range(256):
        d = 0.5 + i / 512
        x = seed.c0 - seed.c1 * d
        errs = [1.0 - d * x]
        for _ in range(3):
            x = x * (2.0 - d * x)
            errs.append(1.0 - d * x)
        if abs(errs[0]) > 2.0 ** -4:
            continue
        checked += 1
        worst_final = max(worst_final, abs(errs[3]))
        for prev, nxt in zip(errs, errs[1:]):
            predicted = prev * prev
            if predicted >= 1e-12:
                worst_ratio_dev = max(worst_ratio_dev, abs(nxt / predicted - 1.0))
    ok = checked > 0 and worst_final <= 2.0 ** -32 and worst_ratio_dev <= 0.10
    _check(
        8,
        ok,
        f"{checked}/256 grid points with seed error <= 2^-4; worst 3-stage error "
        f"{worst_final:.2e} (<= 2^-32 = {2.0 ** -32:.2e}); ratio deviation {worst_ratio_dev:.1%}",
    )


def test_criterion_09_grouping_equivalence_oracle():
    rng = random.Random(987654321)
    frac = CFG.input_fmt.frac_bits
    bits = CFG.input_fmt.int_bits + frac
    worst = 0.0
    for _ in range(10_000):
        code = rng.randrange(1 << bits)
        per_bit = 1.0
        for i in range(bits):
            if (code >> i) & 1:
                per_bit *= velocity_factor(2.0 ** (i - frac))
        for width in (1, 2, 4):
            for shuffle in (True, False):
                grouped = 1.0
                for group in shuffle_map(bits, width, shuffle):
                    partial = 1.0
                    for i in group:
                        if (code >> i) & 1:
                            partial *= velocity_factor(2.0 ** (i - frac))
                    grouped *= partial
                worst = max(worst, abs(per_bit - grouped))
    _check(9, worst <= 1e-12, f"max |per-bit - grouped| = {worst:.1e} over 10^4 inputs x 6 schemes")


def test_criterion_10_published_variant_is_less_accurate(optimized_max, published_report):
    pub = published_report.max_abs_error
    _check(
        10,
        pub > optimized_max,
        f"published max={pub:.3e} > optimized max={optimized_max:.3e}",
    )


def test_criterion_11_small_format_configuration():
    t0 = time.perf_counter()
    rep = exhaustive_sweep(SMALL_CFG)
    elapsed = time.perf_counter() - t0
    ok = rep.max_error_ulps <= 2.0 and elapsed < 0.1 and rep.samples == 512
    _check(
        11,
        ok,
        f"s3.5 (9-bit container) -> s.7: max={rep.max_abs_error:.3e} "
        f"({rep.max_error_ulps:.2f} ulp <= 2), {rep.samples} codes in {elapsed * 1000:.0f} ms",
    )


def test_criterion_12_rom_export_round_trip(tmp_path):
    assert run(["gen-lut", "--dir", str(tmp_path)]) == 0
    luts = build_luts_for(CFG)
    mismatches = 0
    counts = []
    for j, lut in enumerate(luts):
        lines = (tmp_path / f"lut{j}.memh").read_text()
        codes = parse_memh(lines)
        counts.append(len(codes))
        if codes != [e.code for e in lut.entries]:
            mismatches += 1
    sizes_ok = all(
        n == 1 << len(lut.bit_indices) for n, lut in zip(counts, luts)
    ) and all(
        n == 1 << CFG.grouping.group_width
        for n, lut in zip(counts, luts)
        if len(lut.bit_indices) == CFG.grouping.group_width
    )
    _check(
        12,
        mismatches == 0 and sizes_ok,
        f"{len(luts)} tables round-trip bit-exactly; line counts {counts}",
    )
