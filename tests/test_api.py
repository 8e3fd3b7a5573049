"""The package's top-level API: exactly the names callers use."""

import importlib
import types

import pytest

import fxtanh

PUBLIC = {
    "TanhConfig", "reference_config", "tanh_fx", "TanhTrace", "Variant", "Subtractor", "NrSeed",
    "QFormat", "Fx", "RoundMode", "quantize",
    "GroupingScheme", "build_luts_for", "write_rom_files",
    "exhaustive_sweep", "table2", "compare_methods", "ErrorReport", "uniform_pwl_table", "clamp_threshold",
}

# names the top level no longer exports, each still defined in its module
MODULE_ONLY = [
    ("analysis", "MethodRow"), ("analysis", "Table2Row"),
    ("baselines", "PwlTable"),
    ("datapath", "DEFAULT_NR_SEED"),
    ("lutgen", "VelocityLut"), ("lutgen", "build_luts"), ("lutgen", "export_memh"), ("lutgen", "parse_memh"),
    ("lutgen", "shuffle_map"), ("lutgen", "velocity_factor"), ("lutgen", "velocity_factor_original"),
]

# Fx-level arithmetic and float inverses that the raw-integer kernel replaced,
# the scalar baselines that the column-wise ranges replaced, the per-report
# renderers that ``analysis.render`` replaced, and the round-mode names that
# ``RoundMode``'s values replaced
DELETED = [
    ("fxnum", "requantize"), ("fxnum", "mul_fx"), ("fxnum", "add_fx"), ("fxnum", "sub_fx"),
    ("fxnum", "ones_complement_sub1"), ("fxnum", "abs_split"), ("fxnum", "to_real"), ("fxnum", "_rescale"),
    ("lutgen", "tanh_from_factor"), ("lutgen", "tanh_from_factor_original"),
    ("baselines", "reference_tanh"), ("baselines", "pwl_tanh"), ("baselines", "taylor_tanh"),
    ("baselines", "_taylor_sum"),
    ("analysis", "render_reports"), ("analysis", "render_table2"), ("analysis", "render_comparison"),
    ("analysis", "_REPORT_COLUMNS"), ("cli", "_ROUND_NAMES"),
]


def test_top_level_names_are_the_public_api():
    names = {
        name for name, value in vars(fxtanh).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC


@pytest.mark.parametrize("module,name", MODULE_ONLY, ids=[f"{m}.{n}" for m, n in MODULE_ONLY])
def test_unexported_names_stay_in_their_modules(module, name):
    assert not hasattr(fxtanh, name)
    assert hasattr(importlib.import_module(f"fxtanh.{module}"), name)


def test_replaced_helpers_are_gone():
    assert [(m, n) for m, n in DELETED if hasattr(importlib.import_module(f"fxtanh.{m}"), n)] == []
