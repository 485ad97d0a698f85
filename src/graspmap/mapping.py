"""Terrain mapping: metric rescaling, voxel occupancy, graspable-point detection.

The monocular map arrives in arbitrary units; once the solver has estimated
the metric scale the cloud is rescaled, binned into a voxel grid, solidified
downward (terrain is solid under its surface), and scanned with a bowl-shaped
gripper mask. An anchor cell is graspable when every mask cell under it is
occupied, i.e. the terrain fills the whole region the gripper's spines would
envelop - which only convex bumps of roughly the bowl's curvature do.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (AlreadyScaled, CorruptArtifact, DegenerateMask,
                     DimensionMismatch, EmptyCloud)
from .factors import ScaleVar
from .records import located, numbers, read_records, write_records

UNSCALED_UNITS = "unscaled-map-units"
METERS = "meters"

# Gripper bowl defaults (meters): outer/inner spine-envelope radii and how far
# up from the bowl's bottom the solid shell extends.
DEFAULT_OUTER_RADIUS = 0.030
DEFAULT_INNER_RADIUS = 0.020
DEFAULT_DEPTH = 0.015
DEFAULT_VOXEL_SIZE = 0.002
DEFAULT_MIN_POINTS = 3


def _points_array(points) -> np.ndarray:
    a = np.asarray(points, dtype=float).reshape(-1, 3).copy()
    if not np.all(np.isfinite(a)):
        raise ValueError("cloud points must be finite")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PointCloud:
    """N x 3 points plus a units tag so metric and unscaled clouds cannot mix."""

    points: np.ndarray
    units: str

    def __post_init__(self):
        object.__setattr__(self, "points", _points_array(self.points))
        if self.units not in (UNSCALED_UNITS, METERS):
            raise ValueError(f"unknown units tag {self.units!r}")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class VoxelGrid:
    """Axis-aligned occupancy grid; cell (i,j,k) spans origin + [i,i+1) * voxel_size."""

    origin: np.ndarray
    voxel_size: float
    occupancy: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=float).copy()
        if o.shape != (3,):
            raise ValueError("origin must be a 3-vector")
        o.flags.writeable = False
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "voxel_size", float(self.voxel_size))
        occ = np.asarray(self.occupancy, dtype=bool).copy()
        if occ.ndim != 3:
            raise ValueError("occupancy must be a 3-d boolean array")
        occ.flags.writeable = False
        object.__setattr__(self, "occupancy", occ)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.occupancy.shape

    def cell_center(self, index) -> np.ndarray:
        return self.origin + (np.asarray(index, dtype=float) + 0.5) * self.voxel_size


@dataclass(frozen=True)
class GripperMask:
    """Voxelized bowl: integer cell offsets relative to the anchor cell."""

    offsets: np.ndarray
    voxel_size: float
    outer_radius: float
    inner_radius: float
    depth: float

    def __post_init__(self):
        o = np.asarray(self.offsets, dtype=int).copy()
        if o.ndim != 2 or o.shape[1] != 3 or o.shape[0] == 0:
            raise ValueError("offsets must be a nonempty (M, 3) integer array")
        o.flags.writeable = False
        object.__setattr__(self, "offsets", o)

    def __len__(self) -> int:
        return self.offsets.shape[0]


@dataclass(frozen=True)
class GraspablePoint:
    """World-frame anchor cell center plus the number of supporting mask cells."""

    position: np.ndarray
    support_count: int

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float).copy()
        if p.shape != (3,):
            raise ValueError("position must be a 3-vector")
        p.flags.writeable = False
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "support_count", int(self.support_count))


def _voxel_size(voxel_size) -> float:
    voxel_size = float(voxel_size)
    if not (0.0 < voxel_size < np.inf):
        raise ValueError(f"voxel_size must be finite and positive, got {voxel_size}")
    return voxel_size


@contextmanager
def _grid_alloc(cells: float, voxel_size: float):
    """Report a grid numpy cannot index, or memory cannot hold, as a bad
    voxel_size; the check runs before the block that allocates it."""
    msg = (f"voxel_size={voxel_size} needs {cells:.3g} grid cells, "
           "too many to index or allocate")
    if cells > np.iinfo(np.intp).max:
        raise ValueError(msg)
    try:
        yield
    except MemoryError as exc:
        raise ValueError(msg) from exc


def scale_cloud(cloud: PointCloud, scale) -> PointCloud:
    """Multiply an unscaled cloud into meters. Scaling twice is refused."""
    if cloud.units == METERS:
        raise AlreadyScaled("cloud is already in meters")
    s = scale.value if isinstance(scale, ScaleVar) else float(scale)
    if not (np.isfinite(s) and s > 0.0):
        raise ValueError(f"scale must be positive, got {s}")
    return PointCloud(cloud.points * s, METERS)


def voxelize(cloud: PointCloud, voxel_size: float = DEFAULT_VOXEL_SIZE,
             min_points: int = DEFAULT_MIN_POINTS) -> VoxelGrid:
    """Occupancy grid over the cloud's bounding box padded by one voxel.

    A cell counts as occupied only if at least ``min_points`` points fall in
    it, which rejects isolated depth speckle.
    """
    if cloud.units != METERS:
        raise ValueError(f"voxelize needs a metric cloud, got units {cloud.units!r}; "
                         "solve for the scale and apply it first (scale_cloud)")
    if len(cloud) == 0:
        raise EmptyCloud("cannot voxelize an empty cloud")
    voxel_size = _voxel_size(voxel_size)
    min_points = int(min_points)
    if min_points < 1:
        raise ValueError("min_points must be >= 1")

    pts = cloud.points
    origin = pts.min(axis=0) - voxel_size
    extent = pts.max(axis=0) + voxel_size - origin
    shape = np.maximum(np.ceil(extent / voxel_size), 1.0)
    with _grid_alloc(float(np.prod(shape)), voxel_size):
        dims = shape.astype(int)
        occ = np.zeros(int(np.prod(dims)), dtype=bool)
    idx = np.floor((pts - origin) / voxel_size).astype(int)
    # guard the upper boundary against float round-up
    idx = np.clip(idx, 0, dims - 1)
    flat = np.ravel_multi_index((idx[:, 0], idx[:, 1], idx[:, 2]), tuple(dims))
    uniq, counts = np.unique(flat, return_counts=True)
    occ[uniq[counts >= min_points]] = True
    return VoxelGrid(origin=origin, voxel_size=voxel_size,
                     occupancy=occ.reshape(tuple(dims)))


def fill_below(grid: VoxelGrid) -> VoxelGrid:
    """Mark every cell under an occupied cell occupied (solid-terrain assumption).

    Surface clouds voxelize to thin shells; treating the occupancy as a height
    field restores the solid interior that physically supports a gripper.
    """
    occ = np.maximum.accumulate(grid.occupancy[:, :, ::-1], axis=2)[:, :, ::-1]
    return VoxelGrid(origin=grid.origin, voxel_size=grid.voxel_size, occupancy=occ)


def build_mask(outer_radius: float = DEFAULT_OUTER_RADIUS,
               inner_radius: float = DEFAULT_INNER_RADIUS,
               depth: float = DEFAULT_DEPTH,
               voxel_size: float = DEFAULT_VOXEL_SIZE) -> GripperMask:
    """Voxelize the bowl between two concentric spheres, below the rim plane.

    A cell offset ``c`` (center ``c * voxel_size`` relative to the anchor) is
    included iff ``inner_radius <= |center| <= outer_radius`` and
    ``center.z in [-outer_radius, -outer_radius + depth]``.
    """
    outer, inner, depth = float(outer_radius), float(inner_radius), float(depth)
    if not (0.0 < inner < outer < np.inf):
        raise ValueError("need 0 < inner_radius < outer_radius, all finite")
    if not (0.0 < depth <= outer):
        raise ValueError("need 0 < depth <= outer_radius")
    voxel_size = _voxel_size(voxel_size)

    reach = float(np.ceil(outer / voxel_size))
    side = 2.0 * reach + 1.0
    with _grid_alloc(side * side * side, voxel_size):
        w = int(reach)
        rng = np.arange(-w, w + 1)
        cx, cy, cz = np.meshgrid(rng, rng, rng, indexing="ij")
        cells = np.stack([cx.ravel(), cy.ravel(), cz.ravel()], axis=1)
        centers = cells * voxel_size
        norms = np.linalg.norm(centers, axis=1)
    keep = ((norms >= inner) & (norms <= outer)
            & (centers[:, 2] >= -outer) & (centers[:, 2] <= -outer + depth))
    offsets = cells[keep]
    if offsets.shape[0] == 0:
        raise DegenerateMask(
            f"no voxel centers fall in the bowl (outer={outer}, inner={inner}, "
            f"depth={depth}, voxel={voxel_size})")
    return GripperMask(offsets=offsets, voxel_size=voxel_size,
                       outer_radius=outer, inner_radius=inner, depth=depth)


def detect_graspable(grid: VoxelGrid, mask: GripperMask) -> list[GraspablePoint]:
    """Anchors whose entire mask lies on occupied cells, highest first.

    Mask cells falling outside the grid count as unoccupied, so anchors too
    close to the boundary never match. Ties in height are ordered by (x, y)
    cell index ascending. An empty result is a valid outcome (e.g. flat
    ground: nothing convex to envelop).
    """
    if abs(grid.voxel_size - mask.voxel_size) > 1e-12:
        raise DimensionMismatch(
            f"grid voxel {grid.voxel_size} != mask voxel {mask.voxel_size}")
    occ = grid.occupancy
    offs = mask.offsets
    dims = np.array(occ.shape)
    lo = np.maximum(0, -offs.min(axis=0))
    hi = dims - 1 - np.maximum(0, offs.max(axis=0))
    if np.any(hi < lo):
        return []
    window = hi - lo + 1
    supported = np.ones(tuple(window), dtype=bool)
    for o in offs:
        sl = tuple(slice(int(lo[d] + o[d]), int(lo[d] + o[d] + window[d]))
                   for d in range(3))
        supported &= occ[sl]
    anchors = np.argwhere(supported)
    if anchors.size == 0:
        return []
    anchors += lo
    order = np.lexsort((anchors[:, 1], anchors[:, 0], -anchors[:, 2]))
    anchors = anchors[order]
    centers = grid.origin + (anchors + 0.5) * grid.voxel_size
    return [GraspablePoint(position=c, support_count=len(mask)) for c in centers]


# --- ASCII PLY ---------------------------------------------------------------


def write_ply(path, cloud: PointCloud) -> None:
    """ASCII PLY with a units comment so round-trips preserve the tag."""
    n = len(cloud)
    header = ("ply\nformat ascii 1.0\n"
              f"comment units {cloud.units}\n"
              f"element vertex {n}\n"
              "property double x\nproperty double y\nproperty double z\n"
              "end_header\n")
    body = "\n".join(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in cloud.points)
    with open(path, "w") as fh:
        fh.write(header + body + ("\n" if n else ""))


def read_ply(path) -> PointCloud:
    """Read an ASCII PLY; the units tag comes from the file's units comment."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    with located(path):
        if not lines or lines[0].strip() != "ply":
            raise ValueError("not a PLY file")
        n = body_start = units = None
        for k, line in enumerate(lines[1:], 1):
            tok = line.split()
            if tok[:2] == ["comment", "units"] and len(tok) == 3:
                units = units or tok[2]
            elif tok[:2] == ["element", "vertex"]:
                n = int(tok[2])
            elif tok[:1] == ["end_header"]:
                body_start = k + 1
                break
        if n is None or body_start is None:
            raise ValueError("malformed PLY header")
        if units is None:
            raise ValueError("PLY lacks a units comment")
        body = lines[body_start:]
        tokens = " ".join(body).split()
        try:
            values = np.array(tokens, dtype=float)
        except ValueError:
            values = None
        if values is None or values.size != 3 * n or not np.all(np.isfinite(values)):
            # name the first vertex line that is not three finite numbers
            for lineno, line in enumerate(body, body_start + 1):
                numbers(path, lineno, line.split(), 3)
            raise ValueError(f"expected {3 * n} vertex values, found {len(tokens)}")
        return PointCloud(values.reshape(n, 3) if n else np.zeros((0, 3)), units)


# --- voxel grid dump -----------------------------------------------------------


def save_grid(path, grid: VoxelGrid) -> None:
    """Text dump: origin, voxel size, dims, run-length-encoded occupancy (C order)."""
    flat = grid.occupancy.ravel()
    runs = []
    if flat.size:
        change = np.flatnonzero(np.diff(flat.view(np.int8))) + 1
        starts = np.concatenate([[0], change])
        lengths = np.diff(np.concatenate([starts, [flat.size]]))
        runs = [f"{int(flat[s])}:{int(l)}" for s, l in zip(starts, lengths)]
    write_records(path, [["origin", *grid.origin], ["voxel_size", grid.voxel_size],
                         ["dims", *grid.dims], ["rle", *runs]])


def load_grid(path) -> VoxelGrid:
    rec = {tok[0]: (lineno, tok[1:]) for lineno, tok in read_records(path)}
    if set(rec) != {"origin", "voxel_size", "dims", "rle"}:
        raise CorruptArtifact(f"{path}: grid dump needs origin, voxel_size, dims, rle lines")
    origin = numbers(path, *rec["origin"], 3)
    (voxel,) = numbers(path, *rec["voxel_size"], 1)
    dims = tuple(numbers(path, *rec["dims"], 3, int))
    lineno, runs = rec["rle"]
    with located(path, lineno):
        pieces = [np.full(int(length), val == "1", dtype=bool)
                  for val, length in (run.split(":") for run in runs)]
    occ = np.concatenate(pieces) if pieces else np.zeros(0, dtype=bool)
    if occ.size != int(np.prod(dims)):
        raise CorruptArtifact(f"{path}: RLE length {occ.size} does not match dims {dims}")
    return VoxelGrid(origin=origin, voxel_size=voxel, occupancy=occ.reshape(dims))


# --- graspable-point records ------------------------------------------------------


def save_graspable(path, points: list[GraspablePoint]) -> None:
    write_records(path, ([*p.position, p.support_count] for p in points),
                  comment="graspable anchors: x y z support_count (highest first)")


def load_graspable(path) -> list[GraspablePoint]:
    return [GraspablePoint(position=numbers(path, lineno, tok[:3], 3),
                           support_count=numbers(path, lineno, tok[3:], 1, int)[0])
            for lineno, tok in read_records(path)]
