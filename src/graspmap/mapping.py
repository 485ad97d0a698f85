"""Terrain mapping: metric rescaling, voxel occupancy, graspable-point detection.

The monocular map arrives in arbitrary units; once the solver has estimated
the metric scale the cloud is rescaled, binned into a voxel grid, solidified
downward (terrain is solid under its surface), and scanned with a bowl-shaped
gripper mask. An anchor cell is graspable when every mask cell under it is
occupied, i.e. the terrain fills the whole region the gripper's spines would
envelop - which only convex bumps of roughly the bowl's curvature do.

The detector has two paths with the same anchors. A solidified grid is a
height map, and on it the search is a grayscale erosion of that map by the
tops of the mask's columns (Serra 1982). Any other grid gets the whole mask
slid over it cell by cell. ``detect_graspable`` says why the choice is exact.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import AlreadyScaled, DegenerateMask, DimensionMismatch, EmptyCloud
from .factors import ScaleVar
from .geometry import frozen
from .records import all_real, located, numbers, read_records, write_records

UNSCALED_UNITS = "unscaled-map-units"
METERS = "meters"

# Gripper bowl defaults (meters): outer/inner spine-envelope radii and how far
# up from the bowl's bottom the solid shell extends.
DEFAULT_OUTER_RADIUS = 0.030
DEFAULT_INNER_RADIUS = 0.020
DEFAULT_DEPTH = 0.015
DEFAULT_VOXEL_SIZE = 0.002
DEFAULT_MIN_POINTS = 3


@dataclass(frozen=True)
class PointCloud:
    """N x 3 points plus a units tag so metric and unscaled clouds cannot mix."""

    points: np.ndarray
    units: str

    def __post_init__(self):
        object.__setattr__(self, "points", frozen(self.points, (-1, 3), "cloud points"))
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
        object.__setattr__(self, "origin", frozen(self.origin, (3,), "origin"))
        object.__setattr__(self, "voxel_size", _voxel_size(self.voxel_size))
        object.__setattr__(self, "occupancy",
                           frozen(self.occupancy, (-1, -1, -1), "occupancy", bool))
        if 0 in self.occupancy.shape:  # a dump of it would not read back
            raise ValueError(f"occupancy dims must be positive, got {self.occupancy.shape}")

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

    def __post_init__(self):
        object.__setattr__(self, "offsets", frozen(self.offsets, (-1, 3), "offsets", int))
        if len(self.offsets) == 0:
            raise ValueError("offsets must be nonempty")

    def __len__(self) -> int:
        return self.offsets.shape[0]


@dataclass(frozen=True)
class GraspablePoint:
    """World-frame anchor cell center plus the number of supporting mask cells."""

    position: np.ndarray
    support_count: int

    def __post_init__(self):
        object.__setattr__(self, "position", frozen(self.position, (3,), "position"))
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
    points = cloud.points * s
    points.flags.writeable = False  # PointCloud keeps it without a copy
    return PointCloud(points, METERS)


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
    if not (all_real(min_points) and np.ndim(min_points) == 0
            and float(min_points).is_integer() and min_points >= 1):
        raise ValueError(f"min_points must be a whole number >= 1, got {min_points!r}")
    min_points = int(min_points)

    # column by column: a reduction or a scalar operation over a strided
    # column is many times faster than one over the (N, 3) rows
    cols = [cloud.points[:, d] for d in range(3)]
    origin = np.array([c.min() for c in cols]) - voxel_size
    extent = np.array([c.max() for c in cols]) + voxel_size - origin
    shape = np.maximum(np.ceil(extent / voxel_size), 1.0)
    with _grid_alloc(float(np.prod(shape)), voxel_size):
        dims = tuple(int(n) for n in shape)
        occ = np.zeros(math.prod(dims), dtype=bool)
    flat = np.zeros(len(cloud), dtype=np.intp)  # C-order cell index
    for d, c in enumerate(cols):
        idx = c - origin[d]
        idx /= voxel_size
        np.floor(idx, out=idx)
        # guard the upper boundary against float round-up
        np.clip(idx, 0, dims[d] - 1, out=idx)
        flat *= dims[d]
        flat += idx.astype(np.intp)
    uniq, counts = np.unique(flat, return_counts=True)
    occ[uniq[counts >= min_points]] = True
    return VoxelGrid(origin=origin, voxel_size=voxel_size, occupancy=occ.reshape(dims))


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
    return GripperMask(offsets=offsets, voxel_size=voxel_size)


def _column_filled(occ: np.ndarray) -> bool:
    """Whether every column of ``occ`` is occupied from z = 0 up to its
    height and empty above, as ``fill_below`` leaves it."""
    return not (occ[:, :, 1:] > occ[:, :, :-1]).any()


def _slide_support(occ: np.ndarray, offs: np.ndarray, lo, window) -> np.ndarray:
    """Over the anchor window starting at cell ``lo``: whether every mask
    cell is occupied, by AND-ing the grid shifted by each offset."""
    supported = np.ones(tuple(window), dtype=bool)
    for o in offs:
        sl = tuple(slice(int(lo[d] + o[d]), int(lo[d] + o[d] + window[d]))
                   for d in range(3))
        supported &= occ[sl]
    return supported


def _column_support(occ: np.ndarray, offs: np.ndarray, lo, window) -> np.ndarray:
    """``_slide_support`` for a column-filled grid: z < ceiling(x, y), the
    height map eroded by the mask's column tops (see ``detect_graspable``)."""
    height = np.count_nonzero(occ, axis=2)
    # one row per mask column, (dx, dy, top): the last offset of each
    # column once sorted by dx, dy, dz
    offs = offs[np.lexsort((offs[:, 2], offs[:, 1], offs[:, 0]))]
    last = np.append(np.any(offs[1:, :2] != offs[:-1, :2], axis=1), True)
    wx, wy, wz = (int(w) for w in window)
    # every z of the window lies below the grid's top: no bound yet
    ceiling = np.full((wx, wy), occ.shape[2], dtype=height.dtype)
    shifted = np.empty_like(ceiling)
    for dx, dy, top in offs[last].tolist():
        x, y = int(lo[0]) + dx, int(lo[1]) + dy
        np.subtract(height[x:x + wx, y:y + wy], top, out=shifted)
        np.minimum(ceiling, shifted, out=ceiling)
    return np.arange(int(lo[2]), int(lo[2]) + wz) < ceiling[:, :, None]


def detect_graspable(grid: VoxelGrid, mask: GripperMask) -> list[GraspablePoint]:
    """Anchors whose entire mask lies on occupied cells, highest first.

    Mask cells falling outside the grid count as unoccupied, so anchors too
    close to the boundary never match. Ties in height are ordered by (x, y)
    cell index ascending. An empty result is a valid outcome (e.g. flat
    ground: nothing convex to envelop).

    Two paths give the same anchors. On a column-filled grid, as
    ``fill_below`` leaves it, cell (x, y, z) is occupied iff z < height(x, y).
    The anchor window keeps every z + dz inside the grid, so mask cell
    (dx, dy, dz) is occupied iff z + dz < height(x + dx, y + dy), and the top
    cell of each mask column decides for the whole column: anchor (x, y, z)
    is supported iff z < min over mask columns of height(x + dx, y + dy) -
    top(dx, dy). That is exact, not an approximation. The property is tested
    on the grid itself, so any other grid gets the mask slid over it cell by
    cell.
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
    support = _column_support if _column_filled(occ) else _slide_support
    anchors = np.argwhere(support(occ, offs, lo, hi - lo + 1))
    if anchors.size == 0:
        return []
    anchors += lo
    order = np.lexsort((anchors[:, 1], anchors[:, 0], -anchors[:, 2]))
    anchors = anchors[order]
    return [GraspablePoint(position=c, support_count=len(mask))
            for c in grid.cell_center(anchors)]


# --- PLY: binary little-endian -------------------------------------------------


def _ply_header(units: str, count) -> list[str]:
    """The header lines ``write_ply`` writes for ``count`` vertices in ``units``."""
    return ["ply", "format binary_little_endian 1.0", f"comment units {units}",
            f"element vertex {count}", "property double x", "property double y",
            "property double z", "end_header"]


def write_ply(path, cloud: PointCloud) -> None:
    """Binary little-endian PLY of float64 x, y, z, with a units comment so
    round-trips preserve the tag; the bytes do not depend on the platform."""
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in _ply_header(cloud.units, len(cloud)))
                 .encode("ascii"))
        fh.write(np.ascontiguousarray(cloud.points, dtype="<f8"))


def _header_field(head: list[str], k: int, key: str, what: str) -> str:
    """What follows ``key`` on header line k (from 0), or ``<what>`` where
    that line is missing or another."""
    line = head[k] if k < len(head) else ""
    return line[len(key):] if line.startswith(key) else f"<{what}>"


def read_ply(path) -> PointCloud:
    """Read a binary little-endian PLY as ``write_ply`` writes it: its header
    must be the writer's, line for line, for the units and the vertex count
    on their two lines. Errors name the file, and the header line or the
    vertex at fault."""
    with open(path, "rb") as fh:
        data = fh.read()
    with located(path):
        head, start, lines = [], 0, len(_ply_header("", 0))
        while len(head) < lines and (end := data.find(b"\n", start)) >= 0:
            head.append(data[start:end].decode("latin-1"))
            start = end + 1
        units = _header_field(head, 2, "comment units ", "units")
        count = _header_field(head, 3, "element vertex ", "count")
        want = _ply_header(units, count)
        for k, (line, belongs) in enumerate(zip(head, want), 1):
            if line != belongs:
                raise ValueError(f"PLY header line {k} {line!r} where {belongs!r} belongs")
        if len(head) < len(want):
            raise ValueError(f"PLY ends before header line {len(head) + 1} {want[len(head)]!r}")
        if not (count.isascii() and count.isdigit() and str(int(count)) == count):
            raise ValueError(f"PLY header line 4 {want[3]!r} holds no vertex count "
                             "as write_ply writes one")
        n = int(count)
        if len(data) - start != 24 * n:
            raise ValueError(f"binary PLY body holds {len(data) - start} bytes, "
                             f"{n} vertices need {24 * n}")
        points = np.frombuffer(data, "<f8", 3 * n, start).reshape(n, 3)
        finite = np.isfinite(points)
        if not finite.all():
            raise ValueError(f"vertex {np.flatnonzero(~finite)[0] // 3} is not finite")
        return PointCloud(points, units)


# --- voxel grid dump -----------------------------------------------------------


def save_grid(path, grid: VoxelGrid) -> None:
    """Text dump: origin, voxel size, dims, run-length-encoded occupancy (C order)."""
    flat = grid.occupancy.ravel()
    starts = np.append(0, np.flatnonzero(np.diff(flat.view(np.int8))) + 1)
    lengths = np.diff(np.append(starts, flat.size))
    # one format call over Python ints: value, length, value, length, ...
    runs = (" %d:%d" * len(starts)) % tuple(
        np.column_stack([flat[starts], lengths]).ravel().tolist())
    write_records(path, [["origin", *grid.origin], ["voxel_size", grid.voxel_size],
                         ["dims", *grid.dims], "rle" + runs])


# --- graspable-point records ------------------------------------------------------


def save_graspable(path, points: list[GraspablePoint]) -> None:
    write_records(path, ([*p.position, p.support_count] for p in points),
                  comment="graspable anchors: x y z support_count (highest first)")


def load_graspable(path) -> list[GraspablePoint]:
    return [GraspablePoint(position=numbers(path, lineno, tok[:3], 3),
                           support_count=numbers(path, lineno, tok[3:], 1, int)[0])
            for lineno, tok in read_records(path)]
