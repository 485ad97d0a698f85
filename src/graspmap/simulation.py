"""Synthetic data generation: trajectories, tracker deltas, terrain clouds.

Replaces the live monocular tracker and encoders with seeded generators so
every run is reproducible. The terrain is a horizontal plane with hemispherical
bumps; the limb sweeps its gripper camera over the patch in descending lateral
arcs. Tracker output mimics a monocular system: relative rotations are metric,
relative translations and the map cloud are divided by an unknown true scale.

Separate named random streams (joints / tracker rotation / tracker translation
/ cloud) are derived from the one seed, so e.g. rotation noise draws are
identical across runs that differ only in ``true_scale``.
"""

# no ``from __future__ import annotations``: config field types are read at run time

import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (ConfigError, CorruptArtifact, NoVisibleTerrain,
                     UnreachableTerrain)
from .geometry import Pose, Rotation, compose, frozen, inverse, so3_exp
from .kinematics import JointReading, LimbModel, default_limb, fk_poses
from .kinematics import fk_pose  # noqa: F401 -- read only by perfbench/tracer.py
from . import mapping  # bundle I/O calls mapping.*_ply, so wrappers set there apply
from .mapping import UNSCALED_UNITS, PointCloud
from .records import (check_quaternions, config_number, float_fields, from_mapping,
                      load_mapping, read_records, read_table, read_yaml, to_mapping,
                      write_records, write_yaml)

log = logging.getLogger(__name__)

_STREAMS = {"joints": 0, "vo_rot": 1, "vo_trans": 2, "cloud": 3}


def _rng(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), _STREAMS[purpose])))


def _coerce_numbers(config) -> None:
    """Coerce each number field of a frozen config dataclass by its declared type."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in (int, float):
            object.__setattr__(config, f.name, config_number(f.name, value, f.type))
        elif f.type is np.ndarray:  # an (x, y) pair
            object.__setattr__(config, f.name, config_number(f.name, value, length=2))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


@dataclass(frozen=True)
class Hemisphere:
    """Bump on the ground plane; the apex sits one radius above the plane."""

    center: np.ndarray  # (x, y) on the plane
    radius: float

    def __post_init__(self):
        _coerce_numbers(self)
        _require(self.radius > 0.0, "radius must be positive")


@dataclass(frozen=True)
class Terrain:
    """Ground plane at height ``plane_z`` with a square sensing patch; a terrain
    built without ``hemispheres`` is flat ground, see ``default_terrain``."""

    plane_z: float = 0.0
    patch_center: np.ndarray = (0.25, 0.0)  # (x, y)
    patch_size: np.ndarray = (0.16, 0.16)   # (sx, sy)
    hemispheres: tuple[Hemisphere, ...] = ()

    def __post_init__(self):
        _coerce_numbers(self)
        _require(np.all(self.patch_size > 0.0), "patch_size must be positive")
        object.__setattr__(self, "hemispheres", tuple(self.hemispheres))

    def apexes(self) -> np.ndarray:
        """True graspable targets: one apex per hemisphere, meters."""
        return np.array([[h.center[0], h.center[1], self.plane_z + h.radius]
                         for h in self.hemispheres]).reshape(-1, 3)


@dataclass(frozen=True)
class CameraModel:
    """Hand-eye camera: optical axis = gripper +z."""

    fov_deg: float = 100.0
    rate_hz: float = 30.0

    def __post_init__(self):
        _coerce_numbers(self)
        _require(0.0 < self.fov_deg < 180.0, "fov_deg must be in (0, 180)")
        _require(self.rate_hz > 0.0, "rate_hz must be positive")


def default_terrain() -> Terrain:
    # Largest bump matches the default gripper's outer radius so it is the
    # one the bowl mask can envelop; the smaller two stay undetected.
    return Terrain(hemispheres=(Hemisphere((0.25, 0.0), 0.030),
                                Hemisphere((0.20, 0.05), 0.024),
                                Hemisphere((0.29, -0.055), 0.020)))


@dataclass(frozen=True)
class SimConfig:
    """All knobs of one synthetic run; defaults give a mildly noisy instance.
    Its fields and its sections' fields are the config file's schema."""

    seed: int = 0
    true_scale: float = 2.0
    keyframes: int = 20
    joint_noise_stddev: float = 0.002          # rad, per joint per keyframe
    vo_trans_noise_stddev: float = 1.2e-4      # unscaled map units (~1% of a step)
    vo_rot_noise_stddev: float = math.radians(0.2)
    cloud_points_per_keyframe: int = 10000
    camera: CameraModel = field(default_factory=CameraModel)
    terrain: Terrain = field(default_factory=default_terrain)

    def __post_init__(self):
        _coerce_numbers(self)
        _require(self.seed >= 0, "seed must be >= 0")
        _require(self.true_scale > 0.0, "true_scale must be positive")
        _require(self.keyframes >= 2, "keyframes must be >= 2")
        _require(self.joint_noise_stddev >= 0.0, "joint_noise_stddev must be >= 0")
        _require(self.vo_trans_noise_stddev >= 0.0, "vo_trans_noise_stddev must be >= 0")
        _require(self.vo_rot_noise_stddev >= 0.0, "vo_rot_noise_stddev must be >= 0")
        _require(self.cloud_points_per_keyframe >= 1,
                 "cloud_points_per_keyframe must be >= 1")


@dataclass(frozen=True)
class SimBundle:
    """Everything one synthetic run produces, truth included, as arrays: row k
    of the keyframe fields is keyframe k, and row k of the ``vo_*`` fields the
    tracker step from keyframe k to k+1. The true graspable apexes are
    ``config.terrain.apexes()``."""

    config: SimConfig
    timestamps: np.ndarray   # (n,) seconds
    angles: np.ndarray       # (n, dof) noisy joint readings
    truth_quats: np.ndarray  # (n, 4) true gripper rotations
    truth_trans: np.ndarray  # (n, 3) true gripper translations, meters
    vo_quats: np.ndarray     # (n - 1, 4) tracker step rotations
    vo_trans: np.ndarray     # (n - 1, 3) tracker step translations, map units
    cloud: PointCloud        # unscaled map units

    def __post_init__(self):
        timestamps = frozen(self.timestamps, (-1,), "timestamps")
        n = len(timestamps)
        for name, shape, unit in (("timestamps", (n,), False),
                                  ("angles", (n, -1), False),
                                  ("truth_quats", (n, 4), True),
                                  ("truth_trans", (n, 3), False),
                                  ("vo_quats", (n - 1, 4), True),
                                  ("vo_trans", (n - 1, 3), False)):
            object.__setattr__(self, name, frozen(getattr(self, name), shape, name,
                                                  unit=unit))


# --- trajectory ------------------------------------------------------------------


def _sweep_angles(model: LimbModel, config: SimConfig) -> np.ndarray:
    """Joint-space sweep: lateral yaw arcs while the wrist descends over the patch.

    Coefficients are tuned for the default limb proportions and a patch about
    0.25 m ahead of the base; the yaw term re-centers on the patch azimuth.
    """
    base_xy = model.base_pose.translation[:2]
    rel = config.terrain.patch_center - base_xy
    azimuth = math.atan2(rel[1], rel[0])
    u = np.linspace(0.0, 1.0, config.keyframes)
    th1 = azimuth + 0.35 * np.sin(2.5 * np.pi * u)
    th2 = 0.30 + 0.20 * u
    th3 = 0.45 + 0.10 * u
    th4 = (1.25 + 0.15 * u) - th2 - th3
    return np.stack([th1, th2, th3, th4], axis=1)


def generate_trajectory(model: LimbModel, config: SimConfig
                        ) -> tuple[list[JointReading], list[Pose]]:
    """Noisy encoder readings plus the true gripper poses they approximate."""
    base_xy = model.base_pose.translation[:2]
    dist = float(np.linalg.norm(config.terrain.patch_center - base_xy))
    if dist > model.reach():
        raise UnreachableTerrain(
            f"terrain patch {dist:.3f} m from the base exceeds the limb's "
            f"{model.reach():.3f} m reach")
    if model.dof != 4:
        raise UnreachableTerrain(
            f"the built-in sweep drives a 4-joint limb, got {model.dof} joints")
    truth = _sweep_angles(model, config)
    rng = _rng(config.seed, "joints")
    noisy = truth + rng.normal(0.0, config.joint_noise_stddev, truth.shape)
    timestamps = np.arange(config.keyframes) / config.camera.rate_hz
    readings = [JointReading(t, a) for t, a in zip(timestamps, noisy)]
    quats, trans = fk_poses(model, truth)
    return readings, [Pose(Rotation(q), t) for q, t in zip(quats, trans)]


# --- tracker deltas ----------------------------------------------------------------


def generate_vo(truth_poses, config: SimConfig) -> list[tuple[Rotation, np.ndarray]]:
    """Per-step tracker measurements: metric rotation, translation in map units.

    Each step is the true relative transform between consecutive poses with
    the translation divided by ``true_scale``; noise goes on top (rotation via
    a small random axis-angle, translation additive in map units).
    """
    rot_rng = _rng(config.seed, "vo_rot")
    trans_rng = _rng(config.seed, "vo_trans")
    out = []
    for prev, curr in zip(truth_poses[:-1], truth_poses[1:]):
        delta = compose(inverse(prev), curr)
        # zero stddev still consumes the stream, so noiseless and noisy runs
        # with one seed stay draw-for-draw aligned
        rot = delta.rotation @ so3_exp(rot_rng.normal(0.0, config.vo_rot_noise_stddev, 3))
        trans = delta.translation / config.true_scale \
            + trans_rng.normal(0.0, config.vo_trans_noise_stddev, 3)
        out.append((rot, trans))
    return out


# --- terrain cloud ----------------------------------------------------------------


def _sample_surface(terrain: Terrain, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-by-area samples of the terrain surface (plane + bump caps), in
    the order of their surface draws."""
    areas = [float(np.prod(terrain.patch_size))]
    areas += [2.0 * math.pi * h.radius ** 2 for h in terrain.hemispheres]
    weights = np.array(areas) / sum(areas)
    which = rng.choice(len(areas), size=n, p=weights)
    counts = np.bincount(which, minlength=len(areas))
    # grouped by surface, each group in draw order; one scatter at the end
    # puts the rows in draw order
    grouped = np.empty((n, 3))

    n_plane = int(counts[0])
    if n_plane:
        lo = terrain.patch_center - 0.5 * terrain.patch_size

        def plane_xy(m):
            u = rng.uniform(0.0, 1.0, (m, 2))
            u *= terrain.patch_size
            u += lo
            return u

        def under_bump(q):
            hit = np.zeros(q.shape[0], dtype=bool)
            for h in terrain.hemispheres:
                (cx, cy), r = h.center, h.radius
                d2 = q[:, 0] - cx
                d2 *= d2
                dy = q[:, 1] - cy
                dy *= dy
                d2 += dy
                hit |= d2 < r ** 2
            return hit

        # points under a bump belong to the bump surface, not the plane;
        # only a redrawn point can land under one again
        xy = plane_xy(n_plane)
        idx = np.flatnonzero(under_bump(xy))
        while idx.size:
            xy[idx] = plane_xy(idx.size)
            idx = idx[under_bump(xy[idx])]
        grouped[:n_plane, :2] = xy
        grouped[:n_plane, 2] = terrain.plane_z

    start = n_plane
    for h, m in zip(terrain.hemispheres, counts[1:].tolist()):
        if not m:
            continue
        cap = grouped[start:start + m]
        start += m
        zn = rng.uniform(0.0, 1.0, m)          # uniform area on a sphere: z uniform
        az = rng.uniform(0.0, 2.0 * math.pi, m)
        rxy = zn * zn
        np.subtract(1.0, rxy, out=rxy)
        np.maximum(0.0, rxy, out=rxy)
        np.sqrt(rxy, out=rxy)
        rxy *= h.radius
        for axis, trig in ((0, np.cos), (1, np.sin)):
            # into a fresh array, not the strided column: the ufunc's loop,
            # and so the last bit of cos and sin, can depend on the layout
            c = trig(az)
            c *= rxy
            c += h.center[axis]
            cap[:, axis] = c
        zn *= h.radius
        zn += terrain.plane_z
        cap[:, 2] = zn

    # a stable sort of the narrowest integer type is a radix sort
    order = np.argsort(which.astype(np.min_scalar_type(len(areas) - 1)), kind="stable")
    pts = np.empty((n, 3))
    pts[order] = grouped
    return pts


def _visible(points: np.ndarray, pose: Pose, fov_deg: float) -> np.ndarray:
    """Frustum test: within half the field of view of the camera's +z axis."""
    bore = pose.rotation.apply(np.array([0.0, 0.0, 1.0]))
    v = points - pose.translation
    along = v @ bore
    # the distance as np.linalg.norm(v, axis=1) takes it, without its temporaries
    v *= v
    dist = np.add.reduce(v, axis=1)
    np.sqrt(dist, out=dist)
    dist *= math.cos(math.radians(0.5 * fov_deg))
    seen = along >= dist
    seen &= along > 0.0
    return seen


def generate_cloud(truth_poses, config: SimConfig) -> PointCloud:
    """Unscaled terrain cloud as the tracker would map it.

    Samples ``cloud_points_per_keyframe`` surface points seen from each
    keyframe, divides by the true scale, and adds isotropic noise with the
    tracker's translation noise level (both in map units). A keyframe that
    sees too little terrain in 200 batches keeps what it found; the shortfall
    is logged at INFO.
    """
    rng = _rng(config.seed, "cloud")
    fov = config.camera.fov_deg
    want = config.cloud_points_per_keyframe
    parts = []
    short = missing = 0
    for pose in truth_poses:
        remaining = want
        for _ in range(200):
            batch = _sample_surface(config.terrain, max(2 * remaining, 512), rng)
            rows = np.flatnonzero(_visible(batch, pose, fov))[:remaining]
            if rows.size:
                parts.append(batch[rows])
                remaining -= rows.size
            if remaining <= 0:
                break
        if remaining > 0:
            short += 1
            missing += remaining
    if not parts:
        raise NoVisibleTerrain("no terrain surface falls inside any keyframe frustum")
    if short:
        log.info("%d of %d keyframes saw too little terrain: the cloud is %d points "
                 "short of %d", short, len(truth_poses), missing, want * len(truth_poses))
    cloud = np.concatenate(parts, axis=0)
    cloud /= config.true_scale
    cloud += rng.normal(0.0, config.vo_trans_noise_stddev, cloud.shape)
    cloud.flags.writeable = False  # PointCloud keeps it without a copy
    return PointCloud(cloud, UNSCALED_UNITS)


def simulate(config: SimConfig, model: LimbModel | None = None) -> SimBundle:
    """Full synthetic run with one seed; see the per-stage generators."""
    model = model or default_limb()
    readings, truth_poses = generate_trajectory(model, config)
    vo = generate_vo(truth_poses, config)
    return SimBundle(config=config,
                     timestamps=[r.timestamp for r in readings],
                     angles=[r.angles for r in readings],
                     truth_quats=[p.rotation.quat for p in truth_poses],
                     truth_trans=[p.translation for p in truth_poses],
                     vo_quats=[rot.quat for rot, _ in vo],
                     vo_trans=[trans for _, trans in vo],
                     cloud=generate_cloud(truth_poses, config))


# --- config file: SimConfig's fields are its schema (records.from_mapping) -----------


config_to_dict = to_mapping


def config_from_dict(doc: dict) -> SimConfig:
    return from_mapping(SimConfig, doc)


def load_config(path) -> SimConfig:
    return load_mapping(SimConfig, path)


def save_config(path, config: SimConfig) -> None:
    write_yaml(path, to_mapping(config))


# --- bundle directory ----------------------------------------------------------------
#
# Layout:
#   trajectory.csv   timestamp, true pose (7), noisy joint angles
#   vo.csv           step index, translation (map units, 3), rotation quat (4)
#   cloud.ply        unscaled terrain cloud
#   manifest.yaml    {config: the resolved config}; its terrain's apexes are the truth
#
# read_bundle reads only these files and the manifest's ``config`` key, so a
# bundle that carries more (an older graspable_truth.csv, manifest keys) loads.

TRAJECTORY_FILE = "trajectory.csv"
VO_FILE = "vo.csv"
CLOUD_FILE = "cloud.ply"
MANIFEST_FILE = "manifest.yaml"
BUNDLE_FILES = (TRAJECTORY_FILE, VO_FILE, CLOUD_FILE, MANIFEST_FILE)


def write_bundle(directory, bundle: SimBundle) -> list[str]:
    """Write the three data files plus the manifest; returns the file names."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    trajectory = np.column_stack([bundle.timestamps, bundle.truth_trans, bundle.truth_quats,
                                  bundle.angles])
    row = float_fields(trajectory.shape[1], ",")
    write_records(d / TRAJECTORY_FILE, (row % tuple(r) for r in trajectory.tolist()),
                  comment="timestamp,tx,ty,tz,qw,qx,qy,qz,angles...")
    row = "%d," + float_fields(7, ",")
    write_records(d / VO_FILE, (row % (k, *r) for k, r in enumerate(
                      np.hstack([bundle.vo_trans, bundle.vo_quats]).tolist(), 1)),
                  comment="step,dtx,dty,dtz,qw,qx,qy,qz (translation in map units)")
    mapping.write_ply(d / CLOUD_FILE, bundle.cloud)
    write_yaml(d / MANIFEST_FILE, {"config": to_mapping(bundle.config)})
    return list(BUNDLE_FILES)


def read_bundle(directory) -> SimBundle:
    """The bundle in ``directory``. Each data file is read as one table; an
    error names the file and, where it has one, the line."""
    d = Path(directory)
    path = d / MANIFEST_FILE
    try:
        config = config_from_dict(read_yaml(path, CorruptArtifact)["config"])
    except (ConfigError, KeyError, TypeError) as exc:
        raise CorruptArtifact(f"{path}: bad manifest: {type(exc).__name__}: {exc}") from exc

    path = d / TRAJECTORY_FILE
    rows = list(read_records(path, ","))
    if len(rows) != config.keyframes:
        raise CorruptArtifact(f"{path}: {len(rows)} keyframes where the manifest's "
                              f"config has {config.keyframes}")
    # timestamp, pose (7), one angle per joint: every row as wide as the first
    trajectory = read_table(path, rows, max(len(rows[0][1]), 9))
    check_quaternions(path, rows, trajectory[:, 4:8])

    path = d / VO_FILE
    rows = list(read_records(path, ","))
    # step k ties keyframe k-1 to k: rows must run 1, 2, ... in order; a
    # bad number on or before the first misplaced step is named first
    steps = [tokens[0].strip() for _, tokens in rows]
    bad = next((k for k, step in enumerate(steps) if step != str(k + 1)), len(rows))
    vo = read_table(path, rows[:bad + 1], 8)
    if bad < len(rows):
        raise CorruptArtifact(f"{path}:{rows[bad][0]}: step {steps[bad]!r} "
                              f"where step {bad + 1} belongs")
    check_quaternions(path, rows, vo[:, 4:8])
    if len(vo) != len(trajectory) - 1:
        raise CorruptArtifact(f"{path}: {len(vo)} steps for {len(trajectory)} keyframes")

    path = d / CLOUD_FILE
    cloud = mapping.read_ply(path)
    if cloud.units != UNSCALED_UNITS:
        raise CorruptArtifact(f"{path}: bundle cloud must be in {UNSCALED_UNITS}, "
                              f"got {cloud.units}")
    return SimBundle(config=config, timestamps=trajectory[:, 0], angles=trajectory[:, 8:],
                     truth_quats=trajectory[:, 4:8], truth_trans=trajectory[:, 1:4],
                     vo_quats=vo[:, 4:8], vo_trans=vo[:, 1:4], cloud=cloud)
