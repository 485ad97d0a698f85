"""Output checks of the graspmap benchmark, computed apart from the program.

Artifacts are parsed here from their documented text formats, and the
detector is re-derived from its definition (an anchor is graspable when every
cell of the bowl mask under it is occupied) by FFT correlation, so no check
calls graspmap code.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve

SCALE_TOLERANCE = 0.02       # |s_hat / s_true - 1|
APEX_TOLERANCE_VOXELS = 3.0  # top anchor to nearest true apex
# the bowl graspmap's CLI uses by default, meters
BOWL_OUTER, BOWL_INNER, BOWL_DEPTH = 0.030, 0.020, 0.015

CHECKS = {
    "pipeline-20kf": ("exit", "scale", "costs_never_rise", "converged", "apex",
                      "oracle", "determinism"),
    "solve-320kf": ("exit", "scale", "costs_never_rise", "converged", "sigma",
                    "determinism"),
    "detect-1mm": ("exit", "apex", "oracle", "determinism"),
}
VOXEL = {"pipeline-20kf": 0.002, "detect-1mm": 0.001}

# The one failure a run may show: the dense-keyframe scale bias leaves the
# 320-keyframe scale 6-9% low (errors-in-variables attenuation).
KNOWN_FAULTS = {("solve-320kf", "scale")}
ARTIFACT_ERRORS = (OSError, ValueError, KeyError, IndexError, StopIteration)


def _records(path: Path):
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                yield line.split()


def read_scale(graph_txt: Path) -> float:
    return next(float(tok[1]) for tok in _records(graph_txt) if tok[0] == "scale")


def read_report(report_txt: Path) -> tuple[list[float], bool]:
    """Costs in order (initial, then each accepted step) and the converged flag."""
    fields, steps = {}, {}
    for tok in _records(report_txt):
        if tok[0] == "step_cost":
            steps[int(tok[1])] = float(tok[2])
        else:
            fields[tok[0]] = tok[1]
    costs = [float(fields["initial_cost"])] + [steps[k] for k in sorted(steps)]
    return costs, fields["converged"] == "true"


def read_anchors(graspable_csv: Path) -> np.ndarray:
    """(n, 4) rows of x, y, z, support count, in file order."""
    return np.array([[float(v) for v in tok] for tok in _records(graspable_csv)]
                    ).reshape(-1, 4)


def read_grid(grid_txt: Path) -> tuple[np.ndarray, float, np.ndarray]:
    """Origin, voxel size and the boolean occupancy of a run-length grid dump."""
    fields = {tok[0]: tok[1:] for tok in _records(grid_txt)}
    origin = np.array([float(v) for v in fields["origin"]])
    dims = tuple(int(v) for v in fields["dims"])
    values, lengths = zip(*(run.split(":") for run in fields["rle"]))
    occ = np.repeat(np.array(values) == "1", np.array(lengths, dtype=np.int64))
    return origin, float(fields["voxel_size"][0]), occ.reshape(dims)


def bowl_offsets(voxel: float) -> np.ndarray:
    """Cells whose centers lie between the bowl's spheres, below its rim."""
    w = math.ceil(BOWL_OUTER / voxel)
    r = np.arange(-w, w + 1)
    cells = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    centers = cells * voxel
    norm = np.linalg.norm(centers, axis=1)
    keep = ((norm >= BOWL_INNER) & (norm <= BOWL_OUTER)
            & (centers[:, 2] >= -BOWL_OUTER)
            & (centers[:, 2] <= -BOWL_OUTER + BOWL_DEPTH))
    return cells[keep]


def oracle_anchor_cells(occ: np.ndarray, offsets: np.ndarray) -> set:
    """Grid cells a with occ[a + o] true for every mask offset o."""
    lo = offsets.min(axis=0)
    footprint = np.zeros(offsets.max(axis=0) - lo + 1)
    footprint[tuple((offsets - lo).T)] = 1.0
    # 'valid' correlation: out[b] = sum_u occ[b + u] * footprint[u], and with
    # u = o - lo the anchor is a = b - lo
    support = fftconvolve(occ.astype(float), footprint[::-1, ::-1, ::-1], mode="valid")
    anchors = np.argwhere(np.rint(support) == len(offsets)) - lo
    inside = np.all((anchors >= 0) & (anchors < occ.shape), axis=1)
    return {tuple(a) for a in anchors[inside]}


def _never_rises(costs: list[float]) -> bool:
    return all(b <= a for a, b in zip(costs, costs[1:]))


def scale_error(d: Path, truth: dict) -> float:
    """s_hat / s_true - 1."""
    return read_scale(d / "graph.txt") / truth["true_scale"] - 1.0


def apex_error(d: Path, truth: dict) -> float:
    """Meters from the top anchor to the nearest true apex; inf without anchors."""
    anchors = read_anchors(d / "graspable.csv")
    if not len(anchors):
        return math.inf
    return float(np.linalg.norm(np.array(truth["apexes"]) - anchors[0, :3], axis=1).min())


def _oracle_ok(d: Path) -> bool:
    origin, voxel, occ = read_grid(d / "grid.txt")
    anchors = read_anchors(d / "graspable.csv")
    offsets = bowl_offsets(voxel)
    cells = np.rint((anchors[:, :3] - origin) / voxel - 0.5).astype(int)
    found = {tuple(c) for c in cells}
    return (len(found) == len(cells)
            and bool(np.all(anchors[:, 3] == len(offsets)))
            and found == oracle_anchor_cells(occ, offsets))


def check_op(workload: str, d: Path, op: dict, truth: dict) -> dict[str, bool]:
    """Every check of one operation, by name; d holds its kept artifacts."""
    tests = {
        "exit": lambda: op["exit"] == 0,
        "scale": lambda: abs(scale_error(d, truth)) < SCALE_TOLERANCE,
        "costs_never_rise": lambda: _never_rises(read_report(d / "report.txt")[0]),
        "converged": lambda: read_report(d / "report.txt")[1],
        "sigma": lambda: op["sigma"] is not None and math.isfinite(op["sigma"])
        and op["sigma"] > 0.0,
        "apex": lambda: apex_error(d, truth) < APEX_TOLERANCE_VOXELS * VOXEL[workload],
        "oracle": lambda: _oracle_ok(d),
        "determinism": lambda: op["digest"] == truth["warmup_digest"],
    }
    results = {}
    for name in CHECKS[workload]:
        try:
            results[name] = bool(tests[name]())
        except ARTIFACT_ERRORS:
            results[name] = False  # a missing or malformed artifact fails its check
    return results


def truth_errors(workload: str, d: Path, truth: dict) -> str:
    """How far one operation's outputs lie from the truth, for people to read."""
    names = CHECKS[workload]
    parts = []
    try:
        if "scale" in names:
            parts.append(f"scale error {100 * scale_error(d, truth):+.3f}%")
        if "converged" in names:
            parts.append(f"LM iterations {len(read_report(d / 'report.txt')[0]) - 1}")
        if "apex" in names:
            parts.append(f"apex error {1000 * apex_error(d, truth):.3f} mm")
    except ARTIFACT_ERRORS as exc:
        parts.append(f"unreadable artifact: {exc}")
    return ", ".join(parts)
