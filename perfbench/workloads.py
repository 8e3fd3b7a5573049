"""The three workloads: timed passes, latency samples, output checks, layer probes.

Every workload is single-process and closed-loop: one caller, and each call
starts only after the previous one returned.  The program is reached only
through public entry points: ``fxtanh.cli.run(argv)`` for the CLI
workloads, and ``tanh_fx`` with a ``TanhTrace`` (plus ``build_luts_for``,
``export_memh`` and ``exhaustive_sweep``) for explore.  Functions are looked
up on their module at call time, so the tracer's patches see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import fxtanh
from fxtanh import analysis, cli, datapath, lutgen

import space
from setup_probe import compare17_configs, grid16_configs

GOLDEN = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 1
PROBE_CALLS_PER_PASS = 3000   # traced single-input calls after each CLI pass
PAIRS_PER_CONFIG = 14         # explore: +/- code pairs traced per configuration
CALLS_PER_CONFIG = 4 + 2 * PAIRS_PER_CONFIG
LAYER_SAMPLE = 2000
LAYER_REPEATS = 5
SETUP_PROBES_PER_PASS = 2     # fresh-interpreter set-up probes after each untraced pass
CALIBRATION_LOOPS = 5         # timed calibration loops before and after each untraced pass
REFERENCE_LOOP_S = 0.015      # the calibration loop's time at the reference host speed
GRID16_ARGV = ["table2"]
COMPARE17_ARGV = ["compare", "--in", "s3.13", "--out", "s.16", "--lut-bits", "19", "--mult-bits", "17", "--group", "2"]


def digest(codes) -> str:
    """sha256 of output codes as ASCII decimals joined by ',', in input-code order."""
    return hashlib.sha256(",".join(map(str, codes)).encode()).hexdigest()


def sweep_luts(cfg):
    """The tables a sweep passes to tanh_fx for this configuration."""
    return fxtanh.build_luts_for(cfg) if cfg.variant is fxtanh.Variant.OPTIMIZED else None


def exhaustive_outputs(cfg) -> list[int]:
    """Every output code, from code_min up, evaluated as a sweep evaluates it."""
    luts, fmt = sweep_luts(cfg), cfg.input_fmt
    return [fxtanh.tanh_fx(fxtanh.Fx(c, fmt), cfg, luts).code for c in range(fmt.code_min, fmt.code_max + 1)]


@dataclass
class Tally:
    """Operations attempted and failed.  Output mismatches also make the run incorrect."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)

    def ok(self) -> None:
        self.attempted += 1

    def error(self, exc: Exception, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.errors[f"{type(exc).__name__}: {exc}"] += n

    def mismatch(self, what: str) -> None:
        """An operation already attempted produced a wrong output."""
        self.failed += 1
        self.mismatches.append(what)

    def check(self, ok: bool, what: str) -> None:
        """An operation done at check time, such as a digest sweep."""
        self.attempted += 1
        if not ok:
            self.mismatch(what)


def traced_call(cfg, code: int, tally: Tally, latencies: list[int]):
    """One ``tanh_fx(x, cfg, None, TanhTrace())`` call, timed in ns.

    Returns (output code, traced output code), or None if the call raised.
    """
    x = fxtanh.Fx(code, cfg.input_fmt)
    trace = fxtanh.TanhTrace()
    start = time.perf_counter_ns()
    try:
        y = datapath.tanh_fx(x, cfg, None, trace)
    except Exception as exc:  # counted as a failed call; the run goes on
        tally.error(exc)
        return None
    latencies.append(time.perf_counter_ns() - start)
    tally.ok()
    return y.code, None if trace.output is None else trace.output.code


class CliWorkload:
    """One ``fxtanh`` command per pass, plus traced calls on its configurations."""

    def __init__(self, name: str, argv: list[str], configs, codes_per_pass: int, layer_config, seed: int):
        self.name, self.argv, self.configs = name, argv, configs
        self.codes_per_pass, self.layer_config, self.seed = codes_per_pass, layer_config, seed
        self.golden_text = (GOLDEN / f"{name}.txt").read_text()

    def reset(self) -> None:
        pass

    def run_pass(self, index: int, tally: Tally, latencies: list[int]):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                status = cli.run(self.argv)
        except Exception as exc:  # counted as a failed command
            tally.error(exc)
            return 0, None
        tally.ok()
        if status != 0:
            tally.mismatch(f"pass {index}: exit status {status}")
            return 0, None
        return self.codes_per_pass, out.getvalue()

    def after_pass(self, index: int, record, tally: Tally, latencies: list[int]) -> None:
        """Check the pass's report text, then make this pass's share of traced calls.

        Each traced call must agree with the sweep path, whose outputs
        ``finish`` checks against the frozen digests.
        """
        if record is not None and record != self.golden_text:
            tally.mismatch(f"pass {index}: report text differs from golden/{self.name}.txt")
        rng = random.Random(f"probe:{self.name}:{self.seed}")  # the same calls after every pass
        for k in range(PROBE_CALLS_PER_PASS):
            label, cfg = self.configs[k * len(self.configs) // PROBE_CALLS_PER_PASS]  # one at a time
            code = rng.randint(cfg.input_fmt.code_min, cfg.input_fmt.code_max)
            result = traced_call(cfg, code, tally, latencies)
            if result is not None:
                expected = fxtanh.tanh_fx(fxtanh.Fx(code, cfg.input_fmt), cfg, sweep_luts(cfg)).code
                if result != (expected, expected):
                    tally.mismatch(f"{label} code {code}: traced call gave {result}, sweep path {expected}")

    def finish(self, tally: Tally) -> None:
        """Check every cell's exhaustive outputs against the frozen digest."""
        golden = json.loads((GOLDEN / "digests.json").read_text())[self.name]
        for label, cfg in self.configs:
            tally.check(digest(exhaustive_outputs(cfg)) == golden[label], f"{label}: output digest differs")


def grid16(seed: int) -> CliWorkload:
    configs = grid16_configs(fxtanh)
    codes = len(configs) * (1 << configs[0][1].input_fmt.width)
    return CliWorkload("grid16", GRID16_ARGV, configs, codes, fxtanh.reference_config(), seed)


def compare17(seed: int) -> CliWorkload:
    configs = compare17_configs(fxtanh)
    # both variants, PWL and Taylor each see every input code
    codes = 4 * (1 << configs[0][1].input_fmt.width)
    return CliWorkload("compare17", COMPARE17_ARGV, configs, codes, configs[0][1], seed)


@dataclass
class Explored:
    """What one configuration of an explore pass produced."""

    spec: space.Spec
    cfg: object = None
    luts: tuple = ()
    memh: list[str] = field(default_factory=list)
    report: object = None
    calls: list[tuple] = field(default_factory=list)


class Explore:
    """Seeded design-space exploration: ROMs, one sweep and traced calls per configuration."""

    name = "explore"

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = space.pass_specs(seed)
        self.layer_config = fxtanh.reference_config()

    def reset(self) -> None:
        # every pass repeats the same exploration from scratch; this also
        # keeps peak memory independent of how many passes fit in a run
        clear = getattr(datapath.build_luts_for, "cache_clear", None)
        if clear is not None:
            clear()

    def run_pass(self, index: int, tally: Tally, latencies: list[int]):
        return self._pass(self.specs, tally, latencies)

    def after_pass(self, index: int, records: list, tally: Tally, latencies: list[int]) -> None:
        for rec in records:
            self._check_config(rec, tally, f"pass {index} {rec.spec}")

    def _pass(self, specs: list[space.Spec], tally: Tally, latencies: list[int]):
        codes, records = 0, []
        for spec in specs:
            rec = self._explore(spec, tally, latencies)
            codes += (rec.report.samples if rec.report else 0) + sum(r is not None for _, r in rec.calls)
            records.append(rec)
        return codes, records

    def _explore(self, spec: space.Spec, tally: Tally, latencies: list[int]) -> Explored:
        rec = Explored(spec)
        try:
            rec.cfg = spec.config(fxtanh)
        except Exception as exc:  # a refused configuration fails all its operations
            tally.error(exc, 2 + CALLS_PER_CONFIG)
            return rec
        try:
            rec.luts = datapath.build_luts_for(rec.cfg)
            rec.memh = [lutgen.export_memh(lut) for lut in rec.luts]
            tally.ok()
        except Exception as exc:
            tally.error(exc)
        try:
            rec.report = analysis.exhaustive_sweep(rec.cfg)
            tally.ok()
        except Exception as exc:
            tally.error(exc)
        for code in self._call_codes(spec, rec):
            rec.calls.append((code, traced_call(rec.cfg, code, tally, latencies)))
        return rec

    @staticmethod
    def _call_codes(spec: space.Spec, rec: Explored) -> list[int]:
        """Zero, both ends of the range, the sweep's worst input and +/- pairs."""
        fmt = rec.cfg.input_fmt
        rng = random.Random(spec.call_seed)
        worst = rec.report.worst_input.code if rec.report else rng.randint(fmt.code_min, fmt.code_max)
        codes = [0, fmt.code_max, fmt.code_min, worst]
        for _ in range(PAIRS_PER_CONFIG):
            c = rng.randint(1, fmt.code_max)
            codes += [c, -c]
        return codes

    def finish(self, tally: Tally) -> None:
        tally.check(self.default_digest(tally) == json.loads((GOLDEN / "digests.json").read_text())["explore"],
                    f"explore seed {DEFAULT_SEED} block 0: digest differs")

    @staticmethod
    def _check_config(rec: Explored, tally: Tally, where: str) -> None:
        for lut, text in zip(rec.luts, rec.memh):
            if lutgen.parse_memh(text) != [e.code for e in lut.entries] or len(lut.entries) != 1 << len(lut.bit_indices):
                tally.mismatch(f"{where}: ROM text of bits {lut.bit_indices} does not round-trip")
        done = {code: result[0] for code, result in rec.calls if result is not None}
        if not done:
            return
        cfg = rec.cfg
        in_fmt, out_fmt = cfg.input_fmt, cfg.output_fmt
        top = out_fmt.code_max
        clamp = analysis.clamp_threshold(out_fmt.frac_bits)
        luts = sweep_luts(cfg)
        report = rec.report
        for code, result in rec.calls:
            if result is None:
                continue
            y, traced = result
            x = code * in_fmt.ulp
            err = abs(y * out_fmt.ulp - math.tanh(x))
            problems = [
                traced != y and "trace output differs from the return value",
                y != fxtanh.tanh_fx(fxtanh.Fx(code, in_fmt), cfg, luts).code and "differs from the sweep path",
                abs(y) > top and "|y| exceeds 1 - ulp",
                code == 0 and y != 0 and "zero input gives nonzero output",
                abs(x) >= clamp and y != math.copysign(top, x) and "not exactly saturated",
                -code in done and done[-code] != -y and "odd symmetry broken",
                report is not None and err > report.max_abs_error and "error above the sweep's maximum",
                report is not None and code == report.worst_input.code and err != report.max_abs_error
                and "worst input's error differs from the sweep's maximum",
            ]
            problems = [p for p in problems if p]
            if problems:
                tally.mismatch(f"{where} code {code}: {'; '.join(problems)}")
        if report is not None and report.samples != 1 << in_fmt.width:
            tally.mismatch(f"{where}: sweep covered {report.samples} codes")

    def default_digest(self, tally: Tally) -> str:
        """Digest of block 0 at the default seed, recomputed in every run.

        Covers each configuration's ROM text, exhaustive outputs, sweep report
        and traced outputs, or that it was refused.  The sweep report is also
        checked against a reduction of the exhaustive outputs done here.
        """
        _, recs = self._pass(space.block_specs(DEFAULT_SEED, 0), Tally(), [])
        h = hashlib.sha256()
        for rec in recs:
            h.update(repr(rec.spec).encode())
            if rec.report is None:
                h.update(b"refused")
                continue
            outputs = exhaustive_outputs(rec.cfg)
            in_fmt, out_ulp = rec.cfg.input_fmt, rec.cfg.output_fmt.ulp
            errors = [abs(y * out_ulp - math.tanh((in_fmt.code_min + i) * in_fmt.ulp)) for i, y in enumerate(outputs)]
            worst = max(range(len(errors)), key=errors.__getitem__) + in_fmt.code_min
            if (rec.report.max_abs_error, rec.report.worst_input.code) != (max(errors), worst):
                tally.mismatch(f"explore seed {DEFAULT_SEED} {rec.spec}: sweep report disagrees with its outputs")
            h.update("".join(rec.memh).encode())
            h.update(digest(outputs).encode())
            h.update(repr((rec.report.max_abs_error, rec.report.worst_input.code, rec.report.samples)).encode())
            h.update(repr(rec.calls).encode())
        return h.hexdigest()


WORKLOADS = {"grid16": grid16, "compare17": compare17, "explore": Explore}


def percentile(values: list, p: float):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def calibration_loop() -> int:
    """Fixed pure-Python integer work that does not touch the program."""
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + (i >> 3) ^ i) & 0xFFFFFFFF
    return acc


def loop_seconds() -> float:
    """Fastest of ``CALIBRATION_LOOPS`` timed calibration loops."""
    times = []
    for _ in range(CALIBRATION_LOOPS):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return min(times)


@dataclass
class Measurement:
    """Per-pass figures of the untraced passes, and times of the traced ones.

    ``pass_s``, ``traced_s`` and ``loop_s`` are host seconds.  The other
    figures are scaled to the reference host speed: each untraced pass's
    times are multiplied by ``REFERENCE_LOOP_S / loop_s`` of that pass.
    """

    pass_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    loop_s: list[float] = field(default_factory=list)
    scaled_pass_s: list[float] = field(default_factory=list)
    codes_per_s: list[float] = field(default_factory=list)
    calls: list[int] = field(default_factory=list)
    p50_ns: list[int] = field(default_factory=list)
    latencies_ns: array = field(default_factory=lambda: array("q"))
    setup_s: list[float] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    lut_cache_hits: int = 0
    lut_cache_misses: int = 0

    def pooled_p99_ns(self) -> int:
        return percentile(self.latencies_ns, 99)


def measure(workload, seconds: float, tracer=None, setup_probe=None) -> Measurement:
    """Run passes until ``seconds`` have elapsed.

    Every pass does the same work.  With a tracer, passes alternate
    untraced and traced (at least one each), so both see the same work.
    Call latencies are summarised per untraced pass: a CLI pass's traced
    calls follow it, an explore pass makes its own.  ``setup_probe``, which
    returns one set-up time, is called ``SETUP_PROBES_PER_PASS`` times after
    each untraced pass, outside its timing.

    Other tenants of the machine slow it down by up to 1.8x, in phases that
    last from seconds to minutes, so the calibration loop is timed right
    before and right after each untraced pass and the pass's times are
    scaled by it.  The loop does not use the program, so a change to the
    program's speed shows in full.
    """
    m = Measurement()
    cache_info = getattr(datapath.build_luts_for, "cache_info", None)
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        latencies = []
        workload.reset()
        loop_s = None if traced else loop_seconds()
        before = cache_info() if cache_info else None
        with tracer.installed() if traced else contextlib.nullcontext():
            start = time.perf_counter()
            codes, record = workload.run_pass(index, m.tally, latencies)
            elapsed = time.perf_counter() - start
        if not traced:
            loop_s = min(loop_s, loop_seconds())
        if traced:
            m.traced_s.append(elapsed)
            if cache_info:
                after = cache_info()
                m.lut_cache_hits += after.hits - before.hits
                m.lut_cache_misses += after.misses - before.misses
        workload.after_pass(index, record, m.tally, latencies)
        if not traced:
            scale = REFERENCE_LOOP_S / loop_s
            m.pass_s.append(elapsed)
            m.loop_s.append(loop_s)
            m.scaled_pass_s.append(elapsed * scale)
            m.codes_per_s.append(codes / (elapsed * scale))
            scaled = [round(ns * scale) for ns in latencies]
            m.calls.append(len(scaled))
            m.p50_ns.append(percentile(scaled, 50))
            m.latencies_ns.extend(scaled)
            if setup_probe is not None:
                m.setup_s.extend(setup_probe() * scale for _ in range(SETUP_PROBES_PER_PASS))
        index += 1
        if time.perf_counter() >= deadline and (tracer is None or m.traced_s):
            return m


def layer_probes(cfg, seed: int) -> tuple[dict[str, float], set[str]]:
    """ns per call of the datapath stages and the oracle on a seeded sample.

    Inputs are non-saturating input codes; each stage's arguments come from
    the TanhTrace of a full evaluation.  A stage the program no longer
    exposes is returned in the absent set.
    """
    rng = random.Random(f"layers:{seed}")
    fmt = cfg.input_fmt
    traces = []
    while len(traces) < LAYER_SAMPLE:
        trace = fxtanh.TanhTrace()
        fxtanh.tanh_fx(fxtanh.Fx(rng.randint(1, fmt.code_max), fmt), cfg, None, trace)
        if not trace.saturated:
            traces.append(trace)
    timings, absent = {}, set()

    def bench(name: str, fn, calls: list[tuple]) -> None:
        if fn is None:
            absent.add(name)
            return
        reps = []
        for _ in range(LAYER_REPEATS):
            start = time.perf_counter_ns()
            for args in calls:
                fn(*args)
            reps.append(time.perf_counter_ns() - start)
        timings[name] = statistics.median(reps) / len(calls)

    def stage(name: str):
        return getattr(datapath, name, None)

    luts = fxtanh.build_luts_for(cfg)
    bench("datapath.velocity_product.ns_per_call", stage("velocity_product"),
          [(t.magnitude, cfg, luts) for t in traces])
    for stages in (0, 2, 3):
        staged = replace(cfg, nr_stages=stages)
        bench(f"datapath.final_stage.nr{stages}.ns_per_call", stage("final_stage"),
              [(t.factor, staged) for t in traces])
    bench("datapath.nr_reciprocal.ns_per_call", stage("nr_reciprocal"),
          [(t.denominator, cfg.nr_stages, cfg) for t in traces])
    published = replace(cfg, variant=fxtanh.Variant.PUBLISHED)
    registers = stage("build_published_registers")
    if registers is None:
        absent.add("datapath.tanh_published.ns_per_call")
    else:
        regs = registers(published)
        bench("datapath.tanh_published.ns_per_call", stage("tanh_published"),
              [(t.input, published, regs) for t in traces])
    bench("baselines.oracle.ns_per_call", math.tanh, [(t.input.value,) for t in traces])
    return timings, absent
