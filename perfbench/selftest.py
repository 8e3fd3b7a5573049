"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that the explore generator is deterministic per seed, that a
single flipped output code is counted as a failure, that every metric a run
prints is named in BENCHMARK.json, and that without the program's sources
the benchmark fails without printing a result.  About a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

fxtanh = run.load_program()

import space  # noqa: E402  (after the program is on the path)
import workloads  # noqa: E402

ROOT = run.HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_configurations(self):
        self.assertEqual(space.pass_specs(5), space.pass_specs(5))

    def test_seed_and_block_change_the_configurations(self):
        self.assertNotEqual(space.pass_specs(5), space.pass_specs(6))
        self.assertNotEqual(space.block_specs(5, 2), space.block_specs(5, 3))

    def test_a_pass_is_its_blocks(self):
        blocks = [space.block_specs(9, b) for b in range(space.BLOCKS_PER_PASS)]
        self.assertEqual(space.pass_specs(9), [spec for block in blocks for spec in block])

    def test_every_block_covers_every_input_format_and_variant(self):
        cells = sorted((s.int_bits, s.frac_bits, s.variant) for s in space.block_specs(9, 1))
        expected = sorted((i, f, v) for i in space.INT_BITS for f in space.FRAC_BITS for v in space.VARIANTS)
        self.assertEqual(cells, expected)


class FlippedCodeTest(unittest.TestCase):
    def test_flipped_traced_output_is_a_failure(self):
        explore = workloads.Explore(1)
        spec = next(s for s in space.pass_specs(1) if s.variant == "optimized" and s.int_bits == 1)
        rec = explore._explore(spec, workloads.Tally(), [])
        clean = workloads.Tally()
        explore._check_config(rec, clean, "clean")
        self.assertEqual((clean.failed, clean.mismatches), (0, []))
        code, (y, traced) = rec.calls[5]
        rec.calls[5] = (code, (y ^ 1, traced ^ 1))
        flipped = workloads.Tally()
        explore._check_config(rec, flipped, "flipped")
        self.assertGreaterEqual(flipped.failed, 1)
        self.assertTrue(flipped.mismatches)

    def test_flipped_exhaustive_output_changes_the_digest(self):
        label, cfg = workloads.grid16_configs(fxtanh)[-1]
        golden = json.loads((workloads.GOLDEN / "digests.json").read_text())["grid16"][label]
        outputs = workloads.exhaustive_outputs(cfg)
        self.assertEqual(workloads.digest(outputs), golden)
        outputs[12345] ^= 1
        self.assertNotEqual(workloads.digest(outputs), golden)

    def test_flipped_probe_call_fails_the_cli_workload(self):
        grid = workloads.grid16(1)
        real = workloads.traced_call
        calls = []

        def flip_one(cfg, code, tally, latencies):
            y, traced = real(cfg, code, tally, latencies)
            calls.append(code)
            return (y ^ 1, traced ^ 1) if len(calls) == 7 else (y, traced)

        workloads.traced_call = flip_one
        try:
            tally = workloads.Tally()
            grid.after_pass(0, grid.golden_text, tally, [])
        finally:
            workloads.traced_call = real
        self.assertEqual((tally.attempted, tally.failed, len(tally.mismatches)), (len(calls), 1, 1))

    def test_changed_report_text_is_a_failure(self):
        grid = workloads.grid16(1)
        tally = workloads.Tally()
        grid.after_pass(0, grid.golden_text.replace("2.750e-04", "2.751e-04"), tally, [])
        self.assertEqual(tally.failed, 1)


class MetricNamesTest(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for workload in (w["name"] for w in spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    done = run_benchmark(ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    table = {line.split()[0] for line in done.stdout.splitlines()[:-1] if line.strip()}
                    for name in printed:
                        self.assertTrue(NAME.fullmatch(name), name)
                        self.assertIn(name, table)


class MissingProgramTest(unittest.TestCase):
    def test_fails_without_a_result_when_sources_are_missing(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = run_benchmark(Path(tmp), "explore", 0)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
