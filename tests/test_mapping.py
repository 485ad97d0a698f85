"""Cloud scaling, voxel grids, and the bowl-mask detector.

Independent oracles: dict-based per-point binning for voxelize, an exhaustive
predicate scan for build_mask, and a literal triple-loop mask slide for
detect_graspable.
"""

import math
import struct

import numpy as np
import pytest

import graspmap.mapping
from graspmap.cli import main
from graspmap.errors import (AlreadyScaled, CorruptArtifact, DegenerateMask,
                             DimensionMismatch, EmptyCloud)
from graspmap.factors import ScaleVar
from graspmap.mapping import (DEFAULT_INNER_RADIUS, DEFAULT_OUTER_RADIUS,
                              DEFAULT_VOXEL_SIZE, METERS, UNSCALED_UNITS,
                              GraspablePoint, GripperMask, PointCloud,
                              VoxelGrid, build_mask, detect_graspable,
                              fill_below, load_graspable, read_ply, save_graspable,
                              save_grid, scale_cloud, voxelize, write_ply)


# --- oracles -------------------------------------------------------------------


def voxelize_oracle(points: np.ndarray, voxel: float, min_points: int) -> VoxelGrid:
    origin = points.min(axis=0) - voxel
    extent = points.max(axis=0) + voxel - origin
    dims = np.maximum(np.ceil(extent / voxel).astype(int), 1)
    counts: dict[tuple, int] = {}
    for p in points:
        idx = tuple(min(int((p[d] - origin[d]) // voxel), dims[d] - 1)
                    for d in range(3))
        counts[idx] = counts.get(idx, 0) + 1
    occ = np.zeros(tuple(dims), dtype=bool)
    for idx, c in counts.items():
        if c >= min_points:
            occ[idx] = True
    return VoxelGrid(origin=origin, voxel_size=voxel, occupancy=occ)


def mask_offsets_oracle(outer: float, inner: float, depth: float,
                        voxel: float) -> set:
    reach = int(math.ceil(outer / voxel)) + 2
    cells = set()
    for x in range(-reach, reach + 1):
        for y in range(-reach, reach + 1):
            for z in range(-reach, reach + 1):
                c = np.array([x, y, z], dtype=float) * voxel
                if inner <= np.linalg.norm(c) <= outer \
                        and -outer <= c[2] <= -outer + depth:
                    cells.add((x, y, z))
    return cells


def detect_oracle(grid: VoxelGrid, mask: GripperMask) -> list[GraspablePoint]:
    # nested lists: the same loop, an order of magnitude faster than on arrays
    occ = grid.occupancy.tolist()
    offsets = mask.offsets.tolist()
    nx, ny, nz = grid.dims
    anchors = []
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                good = True
                for dx, dy, dz in offsets:
                    xx, yy, zz = x + dx, y + dy, z + dz
                    if not (0 <= xx < nx and 0 <= yy < ny and 0 <= zz < nz) \
                            or not occ[xx][yy][zz]:
                        good = False
                        break
                if good:
                    anchors.append((x, y, z))
    anchors.sort(key=lambda a: (-a[2], a[0], a[1]))
    return [GraspablePoint(position=grid.origin + (np.array(a) + 0.5)
                           * grid.voxel_size, support_count=len(mask))
            for a in anchors]


def same_detections(a: list[GraspablePoint], b: list[GraspablePoint]) -> bool:
    if len(a) != len(b):
        return False
    return (np.allclose([p.position for p in a], [q.position for q in b], atol=1e-12)
            and [p.support_count for p in a] == [q.support_count for q in b])


def hemisphere_surface_cloud(radius: float = DEFAULT_OUTER_RADIUS,
                             half_extent: float = 0.06,
                             spacing: float = 5e-4) -> PointCloud:
    """Dense height-field sampling of a plane with one centered bump."""
    ticks = np.arange(-half_extent, half_extent + spacing / 2, spacing)
    xx, yy = np.meshgrid(ticks, ticks, indexing="ij")
    rr2 = xx ** 2 + yy ** 2
    zz = np.where(rr2 < radius ** 2,
                  np.sqrt(np.maximum(radius ** 2 - rr2, 0.0)), 0.0)
    pts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    return PointCloud(pts, METERS)


# --- scale_cloud -------------------------------------------------------------------


def test_scale_cloud_values_and_units():
    c = PointCloud([[1.0, 2.0, 3.0]], UNSCALED_UNITS)
    out = scale_cloud(c, 0.5)
    assert out.units == METERS
    assert np.allclose(out.points, [[0.5, 1.0, 1.5]], atol=0)
    out1 = scale_cloud(c, 1.0)
    assert np.array_equal(out1.points, c.points)
    assert out1.units == METERS


def test_scale_cloud_accepts_scale_var_and_linearity():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(100, 3))
    c = PointCloud(pts, UNSCALED_UNITS)
    out = scale_cloud(c, ScaleVar.from_value(2.5))
    assert np.allclose(out.points.mean(axis=0), 2.5 * pts.mean(axis=0),
                       atol=1e-12)


def test_scale_cloud_rejects_double_scaling():
    c = PointCloud([[0.0, 0.0, 0.0]], METERS)
    with pytest.raises(AlreadyScaled):
        scale_cloud(c, 2.0)


def test_scale_cloud_composes():
    rng = np.random.default_rng(1)
    c = PointCloud(rng.normal(size=(50, 3)), UNSCALED_UNITS)
    direct = scale_cloud(c, 6.0)
    staged = scale_cloud(PointCloud(scale_cloud(c, 2.0).points,
                                    UNSCALED_UNITS), 3.0)
    assert np.allclose(direct.points, staged.points, atol=1e-12)


# --- voxelize ----------------------------------------------------------------------


def test_voxelize_single_point():
    c = PointCloud([[0.013, -0.021, 0.007]], METERS)
    grid = voxelize(c, 0.002, min_points=1)
    assert grid.occupancy.sum() == 1
    cell = np.argwhere(grid.occupancy)[0]
    center = grid.cell_center(cell)
    assert np.abs(center - [0.013, -0.021, 0.007]).max() <= 0.001 + 1e-12


def test_voxelize_empty_cloud():
    with pytest.raises(EmptyCloud):
        voxelize(PointCloud(np.zeros((0, 3)), METERS), 0.002)


def test_voxelize_requires_metric_units():
    with pytest.raises(ValueError):
        voxelize(PointCloud([[0.0, 0.0, 0.0]], UNSCALED_UNITS), 0.002)


def test_voxelize_matches_binning_oracle():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.05, 0.05, size=(10_000, 3))
    c = PointCloud(pts, METERS)
    for min_points in (1, 3):
        assert same_grid(voxelize(c, 0.004, min_points=min_points),
                         voxelize_oracle(pts, 0.004, min_points))


def same_grid(a: VoxelGrid, b: VoxelGrid) -> bool:
    return (np.array_equal(a.origin, b.origin) and a.dims == b.dims
            and np.array_equal(a.occupancy, b.occupancy))


def test_voxelize_matches_oracle_on_voxel_faces():
    """Lattice points lie on cell faces, and a face belongs to the cell above
    it. The voxel is a power of two, so every coordinate and quotient is
    exact and the two binnings must agree."""
    rng = np.random.default_rng(15)
    voxel = 0.25
    lattice = rng.integers(-8, 8, size=(60, 3)) * voxel
    pts = np.repeat(lattice, rng.integers(1, 5, size=60), axis=0)
    for min_points in (1, 2, 3, 4):
        assert same_grid(voxelize(PointCloud(pts, METERS), voxel, min_points),
                         voxelize_oracle(pts, voxel, min_points))


def test_voxelize_clips_a_maximum_that_rounds_past_the_grid():
    """Next to 1e6 the voxel is a quarter of a float's spacing, so the padding
    rounds away: the grid is 4 cells long in x, yet the far point's unclipped
    index is 4. It belongs in the last cell."""
    voxel = 2.0 ** -35
    pts = np.array([[1e6, 0.0, 0.0], [1e6 + 2.0 ** -33, 0.0, 0.0]])
    grid = voxelize(PointCloud(pts, METERS), voxel, min_points=1)
    assert grid.dims[0] == 4
    assert np.floor((pts[1, 0] - grid.origin[0]) / voxel) == 4
    assert np.argwhere(grid.occupancy)[:, 0].tolist() == [0, 3]
    assert same_grid(grid, voxelize_oracle(pts, voxel, 1))


@pytest.mark.parametrize("min_points", [1, 2, 3, 4])
def test_voxelize_single_point_matches_oracle(min_points):
    pts = np.array([[0.013, -0.021, 0.007]])
    grid = voxelize(PointCloud(pts, METERS), 0.002, min_points)
    assert same_grid(grid, voxelize_oracle(pts, 0.002, min_points))
    assert grid.occupancy.sum() == (min_points == 1)


def test_voxelize_too_fine_to_allocate_names_voxel_size():
    cloud = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], METERS)
    with pytest.raises(ValueError, match="voxel_size=1e-07"):
        voxelize(cloud, 1e-7)


def test_voxelize_min_points_threshold():
    c = PointCloud([[0.0, 0.0, 0.0], [0.0001, 0.0, 0.0]], METERS)
    assert voxelize(c, 0.002, min_points=3).occupancy.sum() == 0
    assert voxelize(c, 0.002, min_points=2).occupancy.sum() == 1


@pytest.mark.parametrize("min_points", [2.9, True, 0])
def test_voxelize_refuses_a_min_points_that_is_no_whole_count(min_points):
    """2.9 is not read as 2, nor True as 1: the two-point cell stays unjudged."""
    c = PointCloud([[0.0, 0.0, 0.0], [0.0001, 0.0, 0.0]], METERS)
    with pytest.raises(ValueError, match=f"min_points must be a whole number >= 1, "
                                         f"got {min_points!r}"):
        voxelize(c, 0.002, min_points)


@pytest.mark.parametrize("shape", [(0, 3, 3), (3, 0, 3), (3, 3, 0)])
def test_grid_refuses_a_zero_dim(shape):
    """A grid with no cells would be dumped as a dims record the reader refuses."""
    with pytest.raises(ValueError, match="dims must be positive"):
        VoxelGrid(origin=np.zeros(3), voxel_size=0.002, occupancy=np.zeros(shape, bool))


# --- fill_below --------------------------------------------------------------------


def test_fill_below_column_oracle():
    rng = np.random.default_rng(3)
    occ = rng.uniform(size=(6, 5, 9)) < 0.2
    grid = VoxelGrid(origin=np.zeros(3), voxel_size=0.002, occupancy=occ)
    filled = fill_below(grid).occupancy
    for x in range(6):
        for y in range(5):
            for z in range(9):
                assert filled[x, y, z] == occ[x, y, z:].any()


# --- build_mask --------------------------------------------------------------------


def test_default_mask_nonempty_and_mirror_symmetric():
    mask = build_mask()
    assert len(mask) > 0
    cells = {tuple(c) for c in mask.offsets}
    for x, y, z in cells:
        assert (-x, y, z) in cells
        assert (x, -y, z) in cells
    # the whole bowl sits below the anchor
    assert mask.offsets[:, 2].max() < 0


def test_degenerate_mask():
    with pytest.raises(DegenerateMask):
        build_mask(outer_radius=0.010, inner_radius=0.0099, depth=0.010,
                   voxel_size=0.004)


def test_mask_too_fine_to_allocate_names_voxel_size():
    with pytest.raises(ValueError, match="voxel_size=1e-07"):
        build_mask(voxel_size=1e-7)


def test_mask_matches_predicate_scan():
    for params in ((0.030, 0.020, 0.015, 0.002),
                   (0.024, 0.016, 0.012, 0.003),
                   (0.030, 0.020, 0.030, 0.005)):
        mask = build_mask(*params)
        assert {tuple(c) for c in mask.offsets} == mask_offsets_oracle(*params)


# --- detect_graspable ---------------------------------------------------------------


def small_mask() -> GripperMask:
    return build_mask(outer_radius=0.012, inner_radius=0.007, depth=0.009,
                      voxel_size=0.003)


def test_detect_empty_grid():
    grid = VoxelGrid(origin=np.zeros(3), voxel_size=0.003,
                     occupancy=np.zeros((10, 10, 10), dtype=bool))
    assert detect_graspable(grid, small_mask()) == []


def test_detect_voxel_size_mismatch():
    grid = VoxelGrid(origin=np.zeros(3), voxel_size=0.002,
                     occupancy=np.ones((8, 8, 8), dtype=bool))
    with pytest.raises(DimensionMismatch):
        detect_graspable(grid, small_mask())


def test_detect_solid_block_interior_count():
    mask = small_mask()
    occ = np.ones((14, 13, 12), dtype=bool)
    grid = VoxelGrid(origin=np.zeros(3), voxel_size=0.003, occupancy=occ)
    hits = detect_graspable(grid, mask)
    lo = np.maximum(0, -mask.offsets.min(axis=0))
    hi = np.array(occ.shape) - 1 - np.maximum(0, mask.offsets.max(axis=0))
    expected = int(np.prod(hi - lo + 1))
    assert len(hits) == expected
    assert same_detections(hits, detect_oracle(grid, mask))


def test_detect_matches_triple_loop_oracle_random_grids():
    rng = np.random.default_rng(4)
    mask = small_mask()
    for _ in range(25):
        dims = rng.integers(6, 20, size=3)
        occ = rng.uniform(size=tuple(dims)) < rng.uniform(0.4, 0.95)
        grid = VoxelGrid(origin=rng.normal(size=3), voxel_size=0.003,
                         occupancy=occ)
        assert same_detections(detect_graspable(grid, mask),
                               detect_oracle(grid, mask))


def test_detect_ordering():
    rng = np.random.default_rng(5)
    occ = rng.uniform(size=(16, 16, 14)) < 0.9
    grid = VoxelGrid(origin=np.zeros(3), voxel_size=0.003, occupancy=occ)
    hits = detect_graspable(grid, small_mask())
    assert len(hits) > 1
    keys = [(-p.position[2], p.position[0], p.position[1]) for p in hits]
    assert keys == sorted(keys)


def test_detect_translation_equivariance():
    rng = np.random.default_rng(6)
    mask = small_mask()
    side = 13
    core = rng.uniform(size=(side,) * 3) < 0.97
    pad = 6
    base = np.zeros((side + 2 * pad,) * 3, dtype=bool)
    base[pad:pad + side, pad:pad + side, pad:pad + side] = core
    shift = np.array([2, -3, 1])
    moved = np.zeros_like(base)
    moved[pad + shift[0]:pad + side + shift[0],
          pad + shift[1]:pad + side + shift[1],
          pad + shift[2]:pad + side + shift[2]] = core
    origin = np.array([0.01, -0.02, 0.005])
    hits_a = detect_graspable(VoxelGrid(origin, 0.003, base), mask)
    hits_b = detect_graspable(VoxelGrid(origin, 0.003, moved), mask)
    assert len(hits_a) == len(hits_b) > 0
    for a, b in zip(hits_a, hits_b):
        assert np.allclose(b.position - a.position, shift * 0.003, atol=1e-12)


def test_detect_monotone_under_added_occupancy():
    rng = np.random.default_rng(7)
    mask = small_mask()
    occ = rng.uniform(size=(15, 15, 12)) < 0.85
    grid = VoxelGrid(origin=np.zeros(3), voxel_size=0.003, occupancy=occ)
    before = detect_graspable(grid, mask)
    extra = occ | (rng.uniform(size=occ.shape) < 0.10)
    after = detect_graspable(VoxelGrid(grid.origin, 0.003, extra), mask)
    before_set = {tuple(np.round(p.position, 9)) for p in before}
    after_set = {tuple(np.round(p.position, 9)) for p in after}
    assert before_set <= after_set


def random_height_grids(rng, count: int, voxel: float):
    """``fill_below`` of random occupancies: column-filled grids whose
    heights vary from column to column."""
    for _ in range(count):
        dims = tuple(int(d) for d in rng.integers(6, 41, size=3))
        occ = rng.uniform(size=dims) < rng.uniform(0.05, 0.6)
        yield fill_below(VoxelGrid(rng.normal(size=3), voxel, occ))


def no_slide(*_):
    raise AssertionError("the general slide ran on a column-filled grid")


def test_column_path_matches_oracle_on_column_filled_grids(monkeypatch):
    monkeypatch.setattr(graspmap.mapping, "_slide_support", no_slide)
    rng = np.random.default_rng(16)
    mask = small_mask()
    found = 0
    for grid in random_height_grids(rng, 100, 0.003):
        hits = detect_graspable(grid, mask)
        assert same_detections(hits, detect_oracle(grid, mask))
        found += bool(hits)
    assert found > 10  # not only empty results
    # the default mask spans 31 cells across: a grid wide enough to hold it
    default = build_mask()
    occ = rng.uniform(size=(40, 40, 24)) < 0.3
    grid = fill_below(VoxelGrid(np.zeros(3), DEFAULT_VOXEL_SIZE, occ))
    hits = detect_graspable(grid, default)
    assert hits and same_detections(hits, detect_oracle(grid, default))


def test_column_path_mask_with_gaps_and_a_cell_above_the_anchor(monkeypatch):
    """Only the top of each mask column counts, wherever its other cells lie,
    including above the anchor."""
    monkeypatch.setattr(graspmap.mapping, "_slide_support", no_slide)
    mask = GripperMask(offsets=[[0, 0, -3], [0, 0, -1], [1, 0, -4], [1, 0, 2],
                                [-1, 1, -2], [-1, 1, -5], [0, -2, 0]],
                       voxel_size=0.003)
    rng = np.random.default_rng(17)
    found = 0
    for grid in random_height_grids(rng, 30, 0.003):
        hits = detect_graspable(grid, mask)
        assert same_detections(hits, detect_oracle(grid, mask))
        found += len(hits)
    assert found > 0


def test_grid_smaller_than_the_mask_yields_nothing():
    mask = build_mask()
    for occ in (np.ones((20, 40, 40), bool), np.ones((40, 40, 5), bool),
                np.zeros((20, 40, 40), bool)):
        grid = VoxelGrid(np.zeros(3), DEFAULT_VOXEL_SIZE, occ)
        assert detect_graspable(grid, mask) == []


def test_pipeline_detects_on_the_column_path(monkeypatch, tmp_path):
    monkeypatch.setattr(graspmap.mapping, "_slide_support", no_slide)
    assert main(["pipeline", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "detect" / "graspable.csv").stat().st_size > 0


def test_other_grids_take_the_slide(monkeypatch):
    def no_columns(*_):
        raise AssertionError("the column path ran on a grid that is not column-filled")

    monkeypatch.setattr(graspmap.mapping, "_column_support", no_columns)
    rng = np.random.default_rng(18)
    mask = small_mask()
    for _ in range(10):
        occ = rng.uniform(size=tuple(rng.integers(8, 20, size=3))) < 0.8
        grid = VoxelGrid(rng.normal(size=3), 0.003, occ)
        assert same_detections(detect_graspable(grid, mask), detect_oracle(grid, mask))


def test_hemisphere_fixture_detection():
    cloud = hemisphere_surface_cloud()
    grid = fill_below(voxelize(cloud, DEFAULT_VOXEL_SIZE, min_points=1))
    mask = build_mask()
    hits = detect_graspable(grid, mask)
    assert hits, "the bowl must envelop a matched hemisphere"
    apex = np.array([0.0, 0.0, DEFAULT_OUTER_RADIUS])
    # top-ranked anchor lands on the apex cell column within one voxel
    assert np.abs(hits[0].position - apex).max() <= DEFAULT_VOXEL_SIZE + 1e-12
    assert same_detections(hits, detect_oracle(grid, mask))


def test_flat_plane_yields_nothing():
    cloud = hemisphere_surface_cloud(radius=0.0)
    grid = fill_below(voxelize(cloud, DEFAULT_VOXEL_SIZE, min_points=1))
    assert detect_graspable(grid, build_mask()) == []


# --- file round trips ----------------------------------------------------------------


def test_ply_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    for units in (METERS, UNSCALED_UNITS):
        cloud = PointCloud(rng.normal(size=(200, 3)), units)
        path = tmp_path / f"{units}.ply"
        write_ply(path, cloud)
        back = read_ply(path)
        assert back.units == units
        assert np.array_equal(back.points, cloud.points)


def test_ply_empty_round_trip(tmp_path):
    path = tmp_path / "empty.ply"
    write_ply(path, PointCloud(np.zeros((0, 3)), METERS))
    back = read_ply(path)
    assert len(back) == 0 and back.units == METERS


def test_ply_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("not a ply\n")
    with pytest.raises(ValueError):
        read_ply(path)


def test_ply_is_binary_little_endian(tmp_path):
    """A pinned header, then each vertex as three little-endian doubles."""
    values = [1.0, -2.0, 0.5, 3.25, 0.0, -7.0]
    path = tmp_path / "c.ply"
    write_ply(path, PointCloud(np.reshape(values, (2, 3)), UNSCALED_UNITS))
    assert path.read_bytes() == (
        b"ply\nformat binary_little_endian 1.0\ncomment units unscaled-map-units\n"
        b"element vertex 2\nproperty double x\nproperty double y\nproperty double z\n"
        b"end_header\n" + struct.pack("<6d", *values))


def test_ply_round_trips_extreme_doubles_exactly(tmp_path):
    big = 1.7976931348623157e308
    points = np.array([[-0.0, 5e-324, big], [-big, -5e-324, 0.0]])
    path = tmp_path / "c.ply"
    write_ply(path, PointCloud(points, METERS))
    # compare bytes, so -0.0 must come back as -0.0
    assert read_ply(path).points.tobytes() == points.tobytes()


def test_ply_writes_any_array_layout(tmp_path):
    points = np.random.default_rng(11).normal(size=(9, 3))
    for layout in (points.astype(">f8"), points[::2], np.asfortranarray(points)):
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud(layout, METERS))
        assert np.array_equal(read_ply(path).points, layout)


def test_ply_writes_are_byte_identical(tmp_path):
    cloud = PointCloud(np.random.default_rng(12).normal(size=(300, 3)), UNSCALED_UNITS)
    write_ply(tmp_path / "a.ply", cloud)
    write_ply(tmp_path / "b.ply", PointCloud(cloud.points.copy(), cloud.units))
    assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()


@pytest.mark.parametrize("edit", [
    lambda d: d.replace(b"binary_little_endian", b"binary_big_endian"),
    lambda d: d.replace(b"format binary_little_endian 1.0\n", b""),
    lambda d: d.replace(b"property double z\n", b"property double z\nproperty double w\n"),
    lambda d: d.replace(b"double x\nproperty double y", b"double y\nproperty double x"),
    lambda d: d.replace(b"property double x", b"property float x"),
    lambda d: d + b"\0",
    lambda d: d[:-1],
    lambda d: d.replace(b"comment units meters\n", b""),
    lambda d: b"plx" + d[3:],
    lambda d: d.replace(b"comment units meters\n", b"comment units meters\ncomment by hand\n"),
    lambda d: d.replace(b"comment units meters\n", b"comment units meters\n" * 2),
    lambda d: d.replace(b"1.0\n", b"1.0\nobj_info scanned\n"),
], ids=["big-endian", "no-format", "extra-property", "reordered-properties",
        "float-property", "one-byte-long", "one-byte-short", "no-units", "not-ply",
        "extra-comment", "second-units", "obj-info"])
def test_binary_ply_rejects_a_bad_header_or_body(tmp_path, edit):
    path = tmp_path / "bad.ply"
    write_ply(path, PointCloud(np.random.default_rng(14).normal(size=(4, 3)), METERS))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CorruptArtifact, match="bad.ply: "):
        read_ply(path)


def test_binary_ply_names_the_first_non_finite_vertex(tmp_path):
    path = tmp_path / "bad.ply"
    write_ply(path, PointCloud(np.zeros((9, 3)), METERS))
    body = np.zeros((9, 3))
    body[7, 2], body[8, 0] = np.inf, np.nan
    path.write_bytes(path.read_bytes()[:-body.nbytes] + body.astype("<f8").tobytes())
    with pytest.raises(CorruptArtifact, match="bad.ply: vertex 7 is not finite"):
        read_ply(path)


def grid_dump_reference(grid: VoxelGrid) -> str:
    """The dump format, one run at a time."""
    flat = grid.occupancy.ravel().tolist()
    runs, start = [], 0
    for k in range(1, len(flat) + 1):
        if k == len(flat) or flat[k] != flat[start]:
            runs.append(f"{int(flat[start])}:{k - start}")
            start = k
    return (f"origin {' '.join('%.17g' % v for v in grid.origin)}\n"
            f"voxel_size {'%.17g' % grid.voxel_size}\n"
            f"dims {' '.join(map(str, grid.dims))}\n"
            f"rle {' '.join(runs)}\n")


def test_grid_dump_bytes_match_a_per_run_formatter(tmp_path):
    rng = np.random.default_rng(19)
    occupancies = [np.zeros((4, 3, 5), bool), np.ones((4, 3, 5), bool),
                   np.zeros((1, 1, 1), bool), np.ones((1, 1, 1), bool),
                   *(rng.uniform(size=tuple(rng.integers(1, 12, size=3))) < p
                     for p in (0.05, 0.5, 0.95))]
    path = tmp_path / "grid.txt"
    for occ in occupancies:
        grid = VoxelGrid(rng.normal(size=3), rng.uniform(1e-3, 1e-2), occ)
        save_grid(path, grid)
        assert path.read_text() == grid_dump_reference(grid)


def test_graspable_round_trip(tmp_path):
    pts = [GraspablePoint(position=np.array([0.1, -0.2, 0.31]),
                          support_count=117),
           GraspablePoint(position=np.array([0.0, 0.0, 0.0]),
                          support_count=3)]
    path = tmp_path / "graspable.csv"
    save_graspable(path, pts)
    back = load_graspable(path)
    assert len(back) == 2
    for a, b in zip(pts, back):
        assert np.array_equal(a.position, b.position)
        assert a.support_count == b.support_count
