"""Span tracing from outside the program, by wrapping its public names.

Each entry of ``WRAPS`` names a function as the calling module sees it
(``fxtanh.analysis.tanh_fx`` is what an exhaustive sweep calls), so patching
that module attribute sees every call the module makes.  A wrapper records
calls, total time and self time (its duration minus the part covered by
wrapped children); the ``datapath.tanh_fx`` wrapper also counts saturated
outputs.  Coarse layers also keep one span each -- id, name,
start, end, parent id -- in memory; per-code functions (``keep`` false) are
only aggregated into their parent, since a sweep makes hundreds of
thousands of them.  A name the program no longer has is reported absent.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, layer, keep one span per call)
WRAPS = (
    ("fxtanh.cli", "run", "cli.run", True),
    ("fxtanh.analysis", "compare_methods", "analysis.compare_methods", True),
    ("fxtanh.analysis", "exhaustive_sweep", "analysis.exhaustive_sweep", True),
    ("fxtanh.analysis", "render_table2", "analysis.render", True),
    ("fxtanh.analysis", "render_comparison", "analysis.render", True),
    ("fxtanh.analysis", "render_reports", "analysis.render", True),
    ("fxtanh.datapath", "build_luts", "lutgen.build_luts", True),
    ("fxtanh.analysis", "tanh_fx", "datapath.tanh_fx", False),
    ("fxtanh.datapath", "tanh_fx", "datapath.tanh_fx", False),
    ("fxtanh.analysis", "build_luts_for", "datapath.build_luts_for", False),
    ("fxtanh.datapath", "build_luts_for", "datapath.build_luts_for", False),
    ("fxtanh.lutgen", "export_memh", "lutgen.export_memh", False),
    ("fxtanh.analysis", "quantize", "fxnum.quantize", False),
    ("fxtanh.datapath", "quantize", "fxnum.quantize", False),
    ("fxtanh.lutgen", "quantize", "fxnum.quantize", False),
    ("fxtanh.analysis", "reference_tanh", "baselines.reference_tanh", False),
    ("fxtanh.analysis", "pwl_tanh", "baselines.pwl_tanh", False),
    ("fxtanh.analysis", "taylor_tanh", "baselines.taylor_tanh", False),
)


class Stats:
    __slots__ = ("calls", "total_ns", "self_ns", "saturated")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.saturated = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stats] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._targets = []
        present = set()
        for module_name, attr, layer, keep in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            present.add(layer)
            self._targets.append((module, attr, fn, self._wrap(fn, layer, keep)))
        self.absent: set[str] = {layer for _, _, layer, _ in WRAPS} - present

    def _wrap(self, fn, layer, keep):
        stats = self.stats.setdefault(layer, Stats())
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        count_saturated = layer == "datapath.tanh_fx"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent_id
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.total_ns += duration
                stats.self_ns += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if keep:
                    spans.append((span_id, layer, start, end, parent_id))
            if count_saturated and abs(result.code) == result.fmt.code_max:
                stats.saturated += 1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every wrapped name for the duration of the block."""
        try:
            for module, attr, _, wrapper in self._targets:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn, _ in self._targets:
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        """Write spans and per-layer aggregates as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "span_fields": ["id", "layer", "start_ns", "end_ns", "parent_id"],
            "spans": sorted(self.spans),
            "layers": {
                name: {"calls": s.calls, "total_ns": s.total_ns, "self_ns": s.self_ns, "saturated": s.saturated}
                for name, s in sorted(self.stats.items())
            },
            "absent": sorted(self.absent),
        }
        path.write_text(json.dumps(doc) + "\n")
