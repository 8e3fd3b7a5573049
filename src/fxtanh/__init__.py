"""Bit-accurate fixed-point tanh datapath model.

The pipeline decomposes tanh through multiplicative velocity factors stored
in small shuffled LUTs, finishes with a Newton-Raphson reciprocal, and is
exact-by-construction for sign symmetry, zero, and saturation.  An
exhaustive analysis harness measures the error of every representable input.
"""

from .analysis import ErrorReport, clamp_threshold, compare_methods, exhaustive_sweep, table2
from .baselines import uniform_pwl_table
from .datapath import (
    NrSeed,
    Subtractor,
    TanhConfig,
    TanhTrace,
    Variant,
    build_luts_for,
    reference_config,
    tanh_fx,
)
from .fxnum import Fx, QFormat, RoundMode, quantize
from .lutgen import GroupingScheme, write_rom_files

__version__ = "0.1.0"
