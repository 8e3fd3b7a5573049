"""Bit-accurate fixed-point tanh datapath model.

The pipeline decomposes tanh through multiplicative velocity factors stored
in small shuffled LUTs, finishes with a Newton-Raphson reciprocal, and is
exact-by-construction for sign symmetry, zero, and saturation.  An
exhaustive analysis harness measures the error of every representable input.
"""

from .analysis import (
    ErrorReport,
    MethodRow,
    Table2Row,
    clamp_threshold,
    compare_methods,
    exhaustive_sweep,
    table2,
)
from .baselines import PwlTable, pwl_tanh, reference_tanh, taylor_tanh, uniform_pwl_table
from .datapath import (
    DEFAULT_NR_SEED,
    NrSeed,
    Subtractor,
    TanhConfig,
    TanhTrace,
    Variant,
    build_luts_for,
    reference_config,
    tanh_fx,
)
from .fxnum import (
    Fx,
    QFormat,
    RoundMode,
    abs_split,
    add_fx,
    mul_fx,
    ones_complement_sub1,
    quantize,
    requantize,
    sub_fx,
    to_real,
)
from .lutgen import (
    GroupingScheme,
    VelocityLut,
    build_luts,
    export_memh,
    parse_memh,
    shuffle_map,
    tanh_from_factor,
    tanh_from_factor_original,
    velocity_factor,
    velocity_factor_original,
    write_rom_files,
)

__version__ = "0.1.0"
