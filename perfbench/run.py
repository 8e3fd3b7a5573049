"""Benchmark of the fxtanh golden model.

    python3 perfbench/run.py --workload grid16|compare17|explore \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``
directory.  Each run measures one workload for S seconds, checks every
output against the frozen expectations in ``perfbench/golden``, prints a
table of metrics with units and sample counts, and ends with one JSON line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Traced runs also write their spans to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def load_program():
    """Import fxtanh from the checkout's src, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import fxtanh
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fxtanh from {SRC}: {exc}") from None
    if Path(fxtanh.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: fxtanh was imported from {fxtanh.__file__}, not from {SRC}")
    return fxtanh


def setup_time(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(t0)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def end_to_end(m, rss_mb: float) -> list[tuple]:
    """Best pass of the run for the pass figures, best probe for set-up.

    Times are scaled to the reference host speed (see ``workloads.measure``).
    Contention from other tenants of the machine only ever adds time, and it
    comes and goes over seconds, so the fastest pass or probe is the
    steadiest estimate of its own cost.  Set-up probes run between the
    passes, so that they too sample the whole run.  The call
    latency p50 is the lowest per-pass median (samples: calls in the
    smallest pass x passes); p99 pools every call of the run, since one pass
    leaves too few calls beyond its 99th percentile.
    """
    passes = len(m.pass_s)
    return [
        ("wall_s", min(m.scaled_pass_s), "s", passes),
        ("codes_per_s", max(m.codes_per_s), "1/s", passes),
        ("setup_s", min(m.setup_s), "s", len(m.setup_s)),
        ("peak_rss_mb", rss_mb, "MB", 1),
        ("eval_p50_us", min(m.p50_ns) / 1e3, "us", f"{min(m.calls)}x{passes}"),
        ("eval_p99_us", m.pooled_p99_ns() / 1e3, "us", len(m.latencies_ns)),
    ]


def per_layer(m, tracer, timings: dict, absent: set) -> list[tuple]:
    """Per-layer metrics; a value of None marks a layer the program no longer has."""
    passes = len(m.traced_s)
    rows = []

    def layer(name: str, field: str) -> None:
        """Per traced pass: a count, or self time in seconds."""
        value = None
        if name not in tracer.absent:
            raw = getattr(tracer.stats[name], field)
            value = (raw / 1e9 if field == "self_ns" else raw) / passes
        if field == "self_ns":
            rows.append((f"{name}.self_s", value, "s", passes))
        else:
            rows.append((f"{name}.{field}", value, "count", passes))

    layer("datapath.tanh_fx", "calls")
    layer("datapath.tanh_fx", "self_ns")
    layer("datapath.tanh_fx", "saturated")
    for name in ("datapath.velocity_product", "datapath.final_stage.nr0", "datapath.final_stage.nr2",
                 "datapath.final_stage.nr3", "datapath.nr_reciprocal", "datapath.tanh_published"):
        key = f"{name}.ns_per_call"
        rows.append((key, None if key in absent else timings[key], "ns", 1))
    lookups = m.lut_cache_hits + m.lut_cache_misses
    hit_ratio = None if "datapath.build_luts_for" in tracer.absent else (m.lut_cache_hits / lookups if lookups else 0.0)
    rows.append(("datapath.build_luts_for.hit_ratio", hit_ratio, "ratio", lookups))
    layer("lutgen.build_luts", "calls")
    layer("lutgen.build_luts", "self_ns")
    layer("lutgen.export_memh", "self_ns")
    layer("fxnum.quantize", "calls")
    layer("fxnum.quantize", "self_ns")
    for name in ("baselines.reference_tanh", "baselines.pwl_tanh", "baselines.taylor_tanh"):
        layer(name, "self_ns")
    rows.append(("baselines.oracle.ns_per_call", timings["baselines.oracle.ns_per_call"], "ns", 1))
    for name in ("analysis.exhaustive_sweep", "analysis.compare_methods", "analysis.render", "cli.run"):
        layer(name, "self_ns")
    overhead = min(m.traced_s) - min(m.pass_s)
    rows.append(("trace.overhead_s", overhead, "s", passes))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid16", "compare17", "explore"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_program()
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    probe = None if args.trace else lambda: setup_time(args.workload, args.seed)
    m = workloads.measure(workload, args.seconds, tracer, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        timings, absent = workloads.layer_probes(workload.layer_config, args.seed)
        rows = per_layer(m, tracer, timings, absent)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        rows = end_to_end(m, rss_mb)
    workload.finish(m.tally)

    t = m.tally
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"host: python {platform.python_version()}, {platform.machine()}, nproc {os.cpu_count()}")
    print(f"host speed: calibration loop {min(m.loop_s) * 1e3:.2f}-{max(m.loop_s) * 1e3:.2f} ms over "
          f"{len(m.loop_s)} passes (reference {workloads.REFERENCE_LOOP_S * 1e3:g} ms); "
          f"fastest pass {min(m.pass_s):.4g} s unscaled")
    print(f"operations: attempted {t.attempted}, failed {t.failed}, fail_ratio {t.failed / t.attempted:.6f}")
    for message, count in t.errors.most_common(5):
        print(f"  failed x{count}: {message}")
    for what in t.mismatches[:10]:
        print(f"  mismatch: {what}")
    print(f"{'metric':<40} {'value':>16} {'unit':<6} samples")
    for name, value, unit, samples in rows:
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:<40} {shown:>16} {unit:<6} {samples}")
    result = {
        "correct": not t.mismatches,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": 0 if value is None else value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
