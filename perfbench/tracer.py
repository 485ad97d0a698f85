"""Span and counter tracing of graspmap layers, installed from outside.

The tracer replaces the names each graspmap module imports (and a few class
methods) with thin wrappers while it is installed, so no file under ``src/``
changes. A timed wrapper records a span ``[name, start, end, parent]`` in
memory; a counting wrapper only bumps a counter. ``uninstall()`` puts every
original back, so untraced operations run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter

# (module[:class], attribute, span name). A name listed under several modules
# is the same function imported in each; every import site is wrapped.
SPANS = [
    ("graspmap.cli", "simulate", "simulation.simulate"),
    ("graspmap.cli", "write_bundle", "simulation.write_bundle"),
    ("graspmap.cli", "read_bundle", "simulation.read_bundle"),
    ("graspmap.cli", "build_graph", "cli.build_graph"),
    ("graspmap.solver:FactorGraph", "optimize", "solver.optimize"),
    ("graspmap.solver:FactorGraph", "marginal_scale_stddev", "solver.marginal"),
    ("graspmap.solver", "factor_residual", "factors.residual"),
    ("graspmap.solver", "factor_jacobians", "factors.jacobian"),
    ("graspmap.cli", "save_graph", "solver.graph_io"),
    ("graspmap.cli", "save_report", "solver.graph_io"),
    ("graspmap.cli", "load_graph", "solver.graph_io"),
    ("graspmap.cli", "load_report", "solver.graph_io"),
    ("graspmap.solver", "load_graph", "solver.graph_io"),
    ("graspmap.cli", "write_ply", "mapping.write_ply"),
    ("graspmap.mapping", "write_ply", "mapping.write_ply"),
    ("graspmap.cli", "read_ply", "mapping.read_ply"),
    ("graspmap.mapping", "read_ply", "mapping.read_ply"),
    ("graspmap.cli", "scale_cloud", "mapping.scale_cloud"),
    ("graspmap.cli", "voxelize", "mapping.voxelize"),
    ("graspmap.cli", "fill_below", "mapping.voxelize"),
    ("graspmap.cli", "build_mask", "mapping.mask_detect"),
    ("graspmap.cli", "detect_graspable", "mapping.mask_detect"),
    ("graspmap.cli", "save_grid", "mapping.grid_io"),
    ("graspmap.cli", "save_graspable", "mapping.grid_io"),
]

# Call counters on hot, tiny functions: a span each would cost more than the
# call it measures.
COUNTERS = [
    *(("graspmap." + m, "fk_pose", "kinematics.fk")
      for m in ("kinematics", "cli", "simulation")),
    *(("graspmap." + m, "compose", "geometry.compose")
      for m in ("geometry", "factors", "kinematics", "simulation", "solver")),
    *(("graspmap." + m, "so3_log", "geometry.so3_log")
      for m in ("geometry", "factors")),
    ("graspmap.geometry:Rotation", "apply", "geometry.rotation_apply"),
]

# Per-layer times of one operation: metric -> the spans whose durations it sums.
# Spans nest (write_bundle holds a write_ply, optimize holds factor evaluations
# and linear solves), so a layer's time includes the layers it calls.
LAYER_TIMES = {
    "simulation.simulate_s": ["simulation.simulate"],
    "simulation.write_bundle_s": ["simulation.write_bundle"],
    "simulation.read_bundle_s": ["simulation.read_bundle"],
    "cli.build_graph_s": ["cli.build_graph"],
    "solver.optimize_s": ["solver.optimize"],
    "solver.linear_solve_s": ["solver.cho_factor", "solver.cho_solve"],
    "solver.marginal_s": ["solver.marginal"],
    "solver.graph_io_s": ["solver.graph_io"],
    "factors.eval_s": ["factors.residual", "factors.jacobian"],
    "mapping.write_ply_s": ["mapping.write_ply"],
    "mapping.read_ply_s": ["mapping.read_ply"],
    "mapping.scale_cloud_s": ["mapping.scale_cloud"],
    "mapping.voxelize_s": ["mapping.voxelize"],
    "mapping.mask_detect_s": ["mapping.mask_detect"],
    "mapping.grid_io_s": ["mapping.grid_io"],
}
# Per-layer counts of one operation: metric -> counter or span-count key.
LAYER_COUNTS = {
    "kinematics.fk_calls": "kinematics.fk",
    "solver.lm_iterations": "solver.lm_iterations",
    "solver.lm_rejected_steps": "solver.lm_rejected_steps",
    "solver.linear_solves": "solver.linear_solves",
    "factors.residual_calls": "factors.residual",
    "factors.jacobian_calls": "factors.jacobian",
    "geometry.compose_calls": "geometry.compose",
    "geometry.so3_log_calls": "geometry.so3_log",
    "geometry.rotation_apply_calls": "geometry.rotation_apply",
    "mapping.detect_cell_tests": "mapping.detect_cell_tests",
    "simulation.bundle_bytes": "simulation.bundle_bytes",
    "mapping.ply_bytes": "mapping.ply_bytes",
}


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class _Proxy:
    """Stands in for a module: overrides some attributes, forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Spans and counters of the traced operations, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: Counter = Counter()  # totals since the op span opened
        self._stack: list[int] = []
        self._saved: list[tuple] = []     # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks that read sizes and counts off a call's arguments and result ----

    def _after_optimize(self, report, *_):
        self.counts["solver.lm_iterations"] += report.iterations

    def _after_write_bundle(self, _files, directory, *_):
        self.counts["simulation.bundle_bytes"] += sum(
            e.stat().st_size for e in os.scandir(directory) if e.is_file())

    def _after_write_ply(self, _none, path, *_):
        self.counts["mapping.ply_bytes"] += os.path.getsize(path)

    def _after_detect(self, _hits, grid, mask, *_):
        # the same anchor window detect_graspable slides the mask over
        offs = mask.offsets
        lo = [max(0, -int(offs[:, d].min())) for d in range(3)]
        hi = [grid.dims[d] - 1 - max(0, int(offs[:, d].max())) for d in range(3)]
        window = 1
        for d in range(3):
            window *= max(0, hi[d] - lo[d] + 1)
        self.counts["mapping.detect_cell_tests"] += len(mask) * window

    def _after_cho_solve(self, *_):
        self.counts["solver.linear_solves"] += 1
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0 and self.spans[parent][0] == "solver.optimize":
            self.counts["solver.lm_solves"] += 1

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = {"optimize": self._after_optimize,
                 "write_bundle": self._after_write_bundle,
                 "write_ply": self._after_write_ply,
                 "detect_graspable": self._after_detect}
        for spec, attr, name in SPANS:
            owner = _owner(spec)
            self._patch(owner, attr,
                        self._timed(name, getattr(owner, attr), hooks.get(attr)))
        for spec, attr, name in COUNTERS:
            owner = _owner(spec)
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        solver = _owner("graspmap.solver")
        linalg = solver.scipy.linalg
        self._patch(solver, "scipy", _Proxy(solver.scipy, linalg=_Proxy(
            linalg,
            cho_factor=self._timed("solver.cho_factor", linalg.cho_factor),
            cho_solve=self._timed("solver.cho_solve", linalg.cho_solve,
                                  self._after_cho_solve))))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- one traced operation ---------------------------------------------------

    def run_op(self, fn):
        """Run ``fn`` under an ``op`` root span; returns (result, layer metrics)."""
        self.counts.clear()
        root = len(self.spans)
        self.install()
        try:
            result = self._timed("op", fn)()
        finally:
            self.uninstall()
        return result, self.layer_metrics(root)

    def layer_metrics(self, root: int) -> dict:
        spans = self.spans[root:]
        times: Counter = Counter()
        calls: Counter = Counter()
        covered = 0.0
        for name, start, end, parent in spans[1:]:
            times[name] += end - start
            calls[name] += 1
            if parent == root:
                covered += end - start
        op_s = spans[0][2] - spans[0][1]
        counts = Counter(self.counts)
        counts.update(calls)
        counts["solver.lm_rejected_steps"] = (counts["solver.lm_solves"]
                                              - counts["solver.lm_iterations"])
        out = {name: sum(times[s] for s in parts) for name, parts in LAYER_TIMES.items()}
        out.update({name: counts[key] for name, key in LAYER_COUNTS.items()})
        out["cli.self_s"] = op_s - covered
        out["trace.op_s"] = op_s
        return out

    def write(self, path) -> None:
        """Dump every span as one JSON line: name, start, end, parent index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
