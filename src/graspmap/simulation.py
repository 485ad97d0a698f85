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

import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from .errors import (ConfigError, CorruptArtifact, NoVisibleTerrain,
                     UnreachableTerrain)
from .geometry import (Pose, Rotation, compose, frozen, inverse,
                       pose_from_seven, pose_to_seven, so3_exp)
from .kinematics import JointReading, LimbModel, default_limb, fk_poses
from .kinematics import fk_pose  # noqa: F401 -- read only by perfbench/tracer.py
from . import mapping  # bundle I/O calls mapping.*_ply, so wrappers set there apply
from .mapping import UNSCALED_UNITS, PointCloud
from .records import (config_number, located, numbers, read_records, read_yaml,
                      write_records, write_yaml)

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
    """Everything one synthetic run produces, truth included; the true
    graspable apexes are ``config.terrain.apexes()``."""

    config: SimConfig
    truth_poses: tuple[Pose, ...]
    readings: tuple[JointReading, ...]
    vo_deltas: tuple[tuple[Rotation, np.ndarray], ...]
    cloud: PointCloud                  # unscaled map units

    def __post_init__(self):
        object.__setattr__(self, "truth_poses", tuple(self.truth_poses))
        object.__setattr__(self, "readings", tuple(self.readings))
        object.__setattr__(self, "vo_deltas",
                           tuple((r, frozen(t, (3,), "vo_deltas translation"))
                                 for r, t in self.vo_deltas))


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
    """Uniform-by-area samples of the terrain surface (plane + bump caps)."""
    areas = [float(np.prod(terrain.patch_size))]
    areas += [2.0 * math.pi * h.radius ** 2 for h in terrain.hemispheres]
    weights = np.array(areas) / sum(areas)
    which = rng.choice(len(areas), size=n, p=weights)
    pts = np.zeros((n, 3))

    plane_sel = which == 0
    n_plane = int(plane_sel.sum())
    if n_plane:
        lo = terrain.patch_center - 0.5 * terrain.patch_size

        def under_bump(q):
            hit = np.zeros(q.shape[0], dtype=bool)
            for h in terrain.hemispheres:
                (cx, cy), r = h.center, h.radius
                hit |= (q[:, 0] - cx) ** 2 + (q[:, 1] - cy) ** 2 < r ** 2
            return hit

        # points under a bump belong to the bump surface, not the plane
        xy = lo + rng.uniform(0.0, 1.0, (n_plane, 2)) * terrain.patch_size
        bad = under_bump(xy)
        while bad.any():
            xy[bad] = lo + rng.uniform(0.0, 1.0, (int(bad.sum()), 2)) * terrain.patch_size
            bad = under_bump(xy)
        pts[plane_sel] = np.column_stack([xy, np.full(n_plane, terrain.plane_z)])

    for k, h in enumerate(terrain.hemispheres, start=1):
        sel = which == k
        m = int(sel.sum())
        if not m:
            continue
        zn = rng.uniform(0.0, 1.0, m)          # uniform area on a sphere: z uniform
        az = rng.uniform(0.0, 2.0 * math.pi, m)
        rxy = np.sqrt(np.maximum(0.0, 1.0 - zn ** 2))
        pts[sel] = np.column_stack([
            h.center[0] + h.radius * rxy * np.cos(az),
            h.center[1] + h.radius * rxy * np.sin(az),
            terrain.plane_z + h.radius * zn,
        ])
    return pts


def _visible(points: np.ndarray, pose: Pose, fov_deg: float) -> np.ndarray:
    """Frustum test: within half the field of view of the camera's +z axis."""
    bore = pose.rotation.apply(np.array([0.0, 0.0, 1.0]))
    v = points - pose.translation
    dist = np.linalg.norm(v, axis=1)
    along = v @ bore
    return (along > 0.0) & (along >= dist * math.cos(math.radians(0.5 * fov_deg)))


def generate_cloud(truth_poses, config: SimConfig) -> PointCloud:
    """Unscaled terrain cloud as the tracker would map it.

    Samples ``cloud_points_per_keyframe`` surface points seen from each
    keyframe, divides by the true scale, and adds isotropic noise with the
    tracker's translation noise level (both in map units).
    """
    rng = _rng(config.seed, "cloud")
    fov = config.camera.fov_deg
    collected = []
    for pose in truth_poses:
        want = config.cloud_points_per_keyframe
        got = []
        remaining = want
        for _ in range(200):
            batch = _sample_surface(config.terrain, max(2 * remaining, 512), rng)
            vis = batch[_visible(batch, pose, fov)]
            if vis.shape[0]:
                got.append(vis[:remaining])
                remaining = want - sum(g.shape[0] for g in got)
            if remaining <= 0:
                break
        if got:
            collected.append(np.concatenate(got, axis=0))
    if not collected:
        raise NoVisibleTerrain("no terrain surface falls inside any keyframe frustum")
    metric = np.concatenate(collected, axis=0)
    unscaled = metric / config.true_scale
    unscaled = unscaled + rng.normal(0.0, config.vo_trans_noise_stddev, unscaled.shape)
    return PointCloud(unscaled, UNSCALED_UNITS)


def simulate(config: SimConfig, model: LimbModel | None = None) -> SimBundle:
    """Full synthetic run with one seed; see the per-stage generators."""
    model = model or default_limb()
    readings, truth_poses = generate_trajectory(model, config)
    vo = generate_vo(truth_poses, config)
    return SimBundle(config=config, truth_poses=tuple(truth_poses),
                     readings=tuple(readings), vo_deltas=tuple(vo),
                     cloud=generate_cloud(truth_poses, config))


# --- config file -------------------------------------------------------------------

def config_to_dict(config) -> dict:
    """A config dataclass as plain YAML values, in field order: sections become
    nested dicts, arrays and tuples lists of Python numbers."""
    def plain(value):
        if is_dataclass(value):
            return config_to_dict(value)
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value.tolist() if isinstance(value, np.ndarray) else value
    return {f.name: plain(getattr(config, f.name)) for f in fields(config)}


def config_from_dict(doc: dict) -> SimConfig:
    return _from_dict(SimConfig, doc)


def _from_dict(cls, doc):
    """A config dataclass ``cls`` from a mapping of its fields, recursing into
    section and tuple fields; a missing key takes the field's default."""
    if not isinstance(doc, dict):
        raise ConfigError(f"expected a mapping, got {doc!r}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(doc) - set(types)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown, key=str)}")
    kwargs = {}
    for name, value in doc.items():
        kind = types[name]
        try:
            if is_dataclass(kind):
                value = _from_dict(kind, value)
            elif get_origin(kind) is tuple:
                value = tuple(_from_dict(get_args(kind)[0], v) for v in value)
        except (ConfigError, TypeError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:  # a field without a default is missing
        raise ConfigError(str(exc)) from exc


def load_config(path) -> SimConfig:
    doc = read_yaml(path, ConfigError)
    try:
        return config_from_dict({} if doc is None else doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_config(path, config: SimConfig) -> None:
    write_yaml(path, config_to_dict(config))


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
    write_records(d / TRAJECTORY_FILE,
                  ([r.timestamp, *pose_to_seven(p), *r.angles]
                   for r, p in zip(bundle.readings, bundle.truth_poses)),
                  ",", "timestamp,tx,ty,tz,qw,qx,qy,qz,angles...")
    write_records(d / VO_FILE,
                  ([i + 1, *t, *r.quat] for i, (r, t) in enumerate(bundle.vo_deltas)),
                  ",", "step,dtx,dty,dtz,qw,qx,qy,qz (translation in map units)")
    mapping.write_ply(d / CLOUD_FILE, bundle.cloud)
    write_yaml(d / MANIFEST_FILE, {"config": config_to_dict(bundle.config)})
    return list(BUNDLE_FILES)


def read_bundle(directory) -> SimBundle:
    d = Path(directory)
    path = d / MANIFEST_FILE
    try:
        config = config_from_dict(read_yaml(path, CorruptArtifact)["config"])
    except (ConfigError, KeyError, TypeError) as exc:
        raise CorruptArtifact(f"{path}: bad manifest: {type(exc).__name__}: {exc}") from exc

    path = d / TRAJECTORY_FILE
    readings, poses, width = [], [], None
    for lineno, tok in read_records(path, ","):
        # timestamp, pose (7), one angle per joint: every row as wide as the first
        width = width or max(len(tok), 9)
        vals = numbers(path, lineno, tok, width)
        with located(path, lineno):
            poses.append(pose_from_seven(vals[1:8]))
        readings.append(JointReading(vals[0], np.array(vals[8:])))

    path, vo = d / VO_FILE, []
    for lineno, tok in read_records(path, ","):
        vals = numbers(path, lineno, tok, 8)
        with located(path, lineno):
            # step k ties keyframe k-1 to k: rows must run 1, 2, ... in order
            if tok[0].strip() != str(len(vo) + 1):
                raise ValueError(f"step {tok[0].strip()!r} where step {len(vo) + 1} belongs")
            vo.append((Rotation(np.array(vals[4:8])), np.array(vals[1:4])))

    if len(vo) != len(poses) - 1:
        raise CorruptArtifact(f"{path}: {len(vo)} steps for {len(poses)} keyframes")

    path = d / CLOUD_FILE
    cloud = mapping.read_ply(path)
    if cloud.units != UNSCALED_UNITS:
        raise CorruptArtifact(f"{path}: bundle cloud must be in {UNSCALED_UNITS}, "
                              f"got {cloud.units}")
    return SimBundle(config=config, truth_poses=poses, readings=readings, vo_deltas=vo,
                     cloud=cloud)
