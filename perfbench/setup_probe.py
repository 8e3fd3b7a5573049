"""Set-up time probe: python3 perfbench/setup_probe.py WORKLOAD SEED T0_NS

``run.py`` starts this in a fresh interpreter and passes the
CLOCK_MONOTONIC reading it took just before starting it.  The probe imports
fxtanh, builds every table and register set the workload needs, evaluates
each configuration's first input code, and prints the seconds elapsed since
T0_NS.  It also defines the fixed configurations of the CLI workloads, so
that the probe and the checks in ``workloads.py`` agree on them.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def grid16_configs(fx) -> list[tuple[str, object]]:
    """The six cells ``fxtanh table2`` sweeps with its default flags."""
    base = fx.reference_config()
    return [
        (f"nr{stages}-{sub.value}", replace(base, nr_stages=stages, subtractor=sub))
        for stages in (0, 2, 3)
        for sub in (fx.Subtractor.ONES, fx.Subtractor.TWOS)
    ]


def compare17_configs(fx) -> list[tuple[str, object]]:
    """Both variants of ``fxtanh compare --in s3.13 --out s.16 --lut-bits 19 --mult-bits 17 --group 2``."""
    base = fx.TanhConfig(
        input_fmt=fx.QFormat(True, 3, 13),
        output_fmt=fx.QFormat(True, 0, 16),
        lut_fmt=fx.QFormat(False, 0, 19),
        mult_fmt=fx.QFormat(False, 0, 17),
        grouping=fx.GroupingScheme(2, True),
    )
    return [(v.value, replace(base, variant=v)) for v in (fx.Variant.OPTIMIZED, fx.Variant.PUBLISHED)]


def _explore_configs(fx, seed: int) -> list[object]:
    import space

    configs = []
    for spec in space.pass_specs(seed):
        try:
            configs.append(spec.config(fx))
        except ValueError:
            pass
    return configs


def set_up(fx, workload: str, seed: int) -> None:
    """Build what the workload needs, up to its first evaluated code."""
    if workload == "grid16":
        configs = [cfg for _, cfg in grid16_configs(fx)]
    elif workload == "compare17":
        configs = [cfg for _, cfg in compare17_configs(fx)]
        fx.uniform_pwl_table(0.25, fx.clamp_threshold(configs[0].output_fmt.frac_bits))
    else:
        configs = _explore_configs(fx, seed)
    for cfg in configs:
        optimized = cfg.variant is fx.Variant.OPTIMIZED
        # explore renders the ROMs of every configuration, published ones too
        luts = fx.build_luts_for(cfg) if optimized or workload == "explore" else None
        try:
            fx.tanh_fx(fx.Fx(cfg.input_fmt.code_min, cfg.input_fmt), cfg, luts if optimized else None)
        except ValueError:
            pass  # a refused configuration; the timed passes count it


def main() -> None:
    workload, seed, t0 = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, str(SRC))
    import fxtanh

    set_up(fxtanh, workload, seed)
    print((time.clock_gettime_ns(time.CLOCK_MONOTONIC) - t0) / 1e9)


if __name__ == "__main__":
    main()
