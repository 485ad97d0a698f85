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

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import (ConfigError, CorruptArtifact, NoVisibleTerrain,
                     UnreachableTerrain)
from .geometry import (Pose, Rotation, compose, inverse, pose_from_seven,
                       pose_to_seven, so3_exp)
from .kinematics import JointReading, LimbModel, default_limb, fk_pose
from . import mapping  # bundle I/O calls mapping.*_ply, so wrappers set there apply
from .mapping import UNSCALED_UNITS, PointCloud
from .records import located, numbers, read_records, write_records

_STREAMS = {"joints": 0, "vo_rot": 1, "vo_trans": 2, "cloud": 3}


def _rng(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), _STREAMS[purpose])))


def _finite(name: str, value, pair: bool = False):
    """``value`` as a finite float, or with ``pair`` as a read-only (x, y)
    array of them; anything else is a ``ConfigError`` naming the field."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError):
        a = np.array(math.nan)
    if a.shape != ((2,) if pair else ()) or not np.all(np.isfinite(a)):
        what = "an (x, y) pair of finite numbers" if pair else "a finite number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if not pair:
        return float(a)
    a.flags.writeable = False
    return a


def _whole(name: str, value) -> int:
    if not _finite(name, value).is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Hemisphere:
    """Bump on the ground plane; the apex sits one radius above the plane."""

    center: np.ndarray  # (x, y) on the plane
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite("hemisphere center", self.center, True))
        r = float(self.radius)
        if not (np.isfinite(r) and r > 0.0):
            raise ValueError("hemisphere radius must be positive")
        object.__setattr__(self, "radius", r)


@dataclass(frozen=True)
class Terrain:
    plane_z: float
    patch_center: np.ndarray  # (x, y)
    patch_size: np.ndarray    # (sx, sy)
    hemispheres: tuple[Hemisphere, ...]

    def __post_init__(self):
        pc = _finite("patch_center", self.patch_center, True)
        ps = _finite("patch_size", self.patch_size, True)
        if np.any(ps <= 0.0):
            raise ValueError("patch_size must be positive")
        object.__setattr__(self, "patch_center", pc)
        object.__setattr__(self, "patch_size", ps)
        object.__setattr__(self, "plane_z", _finite("plane_z", self.plane_z))
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
        for name in ("fov_deg", "rate_hz"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))


def default_terrain() -> Terrain:
    # Largest bump matches the default gripper's outer radius so it is the
    # one the bowl mask can envelop; the smaller two stay undetected.
    return Terrain(plane_z=0.0,
                   patch_center=np.array([0.25, 0.0]),
                   patch_size=np.array([0.16, 0.16]),
                   hemispheres=(Hemisphere(np.array([0.25, 0.0]), 0.030),
                                Hemisphere(np.array([0.20, 0.05]), 0.024),
                                Hemisphere(np.array([0.29, -0.055]), 0.020)))


@dataclass(frozen=True)
class SimConfig:
    """All knobs of one synthetic run; defaults give a mildly noisy instance."""

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
        for name in ("seed", "keyframes", "cloud_points_per_keyframe"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        for name in ("true_scale", "joint_noise_stddev", "vo_trans_noise_stddev",
                     "vo_rot_noise_stddev"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if self.keyframes < 2:
            raise ConfigError("keyframes must be >= 2")
        if not self.true_scale > 0.0:
            raise ConfigError("true_scale must be positive")
        for name in ("joint_noise_stddev", "vo_trans_noise_stddev",
                     "vo_rot_noise_stddev"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")
        if self.cloud_points_per_keyframe < 1:
            raise ConfigError("cloud_points_per_keyframe must be >= 1")
        if not 0.0 < self.camera.fov_deg < 180.0:
            raise ConfigError("camera.fov_deg must be in (0, 180)")
        if not self.camera.rate_hz > 0.0:
            raise ConfigError("camera.rate_hz must be positive")


@dataclass(frozen=True)
class SimBundle:
    """Everything one synthetic run produces, truth included."""

    config: SimConfig
    truth_poses: tuple[Pose, ...]
    readings: tuple[JointReading, ...]
    vo_deltas: tuple[tuple[Rotation, np.ndarray], ...]
    cloud: PointCloud                  # unscaled map units
    truth_graspable: np.ndarray        # (G, 3) apex positions, meters

    def __post_init__(self):
        object.__setattr__(self, "truth_poses", tuple(self.truth_poses))
        object.__setattr__(self, "readings", tuple(self.readings))
        object.__setattr__(self, "vo_deltas",
                           tuple((r, np.asarray(t, dtype=float)) for r, t in self.vo_deltas))
        g = np.asarray(self.truth_graspable, dtype=float).reshape(-1, 3).copy()
        g.flags.writeable = False
        object.__setattr__(self, "truth_graspable", g)


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
    truth_poses = [fk_pose(model, a) for a in truth]
    return readings, truth_poses


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
                hit |= np.sum((q - h.center) ** 2, axis=1) < h.radius ** 2
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


def generate_cloud(truth_poses, config: SimConfig) -> tuple[PointCloud, np.ndarray]:
    """Unscaled terrain cloud as the tracker would map it, plus true apexes.

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
    return PointCloud(unscaled, UNSCALED_UNITS), config.terrain.apexes()


def simulate(config: SimConfig, model: LimbModel | None = None) -> SimBundle:
    """Full synthetic run with one seed; see the per-stage generators."""
    model = model or default_limb()
    readings, truth_poses = generate_trajectory(model, config)
    vo = generate_vo(truth_poses, config)
    cloud, apexes = generate_cloud(truth_poses, config)
    return SimBundle(config=config, truth_poses=tuple(truth_poses),
                     readings=tuple(readings), vo_deltas=tuple(vo),
                     cloud=cloud, truth_graspable=apexes)


# --- config file -------------------------------------------------------------------

_CONFIG_KEYS = {"seed", "true_scale", "keyframes", "joint_noise_stddev",
                "vo_trans_noise_stddev", "vo_rot_noise_stddev",
                "cloud_points_per_keyframe", "camera", "terrain"}


def config_to_dict(config: SimConfig) -> dict:
    return {
        "seed": config.seed,
        "true_scale": config.true_scale,
        "keyframes": config.keyframes,
        "joint_noise_stddev": config.joint_noise_stddev,
        "vo_trans_noise_stddev": config.vo_trans_noise_stddev,
        "vo_rot_noise_stddev": config.vo_rot_noise_stddev,
        "cloud_points_per_keyframe": config.cloud_points_per_keyframe,
        "camera": {"fov_deg": config.camera.fov_deg, "rate_hz": config.camera.rate_hz},
        "terrain": {
            "plane_z": config.terrain.plane_z,
            "patch_center": [float(v) for v in config.terrain.patch_center],
            "patch_size": [float(v) for v in config.terrain.patch_size],
            "hemispheres": [{"center": [float(v) for v in h.center],
                             "radius": h.radius}
                            for h in config.terrain.hemispheres],
        },
    }


def config_from_dict(doc: dict) -> SimConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    defaults = SimConfig()
    try:
        camera = CameraModel(**doc["camera"]) if "camera" in doc else defaults.camera
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"camera: {exc}") from exc
    terrain = defaults.terrain
    if "terrain" in doc:
        tdoc = doc["terrain"]
        if not isinstance(tdoc, dict):
            raise ConfigError("terrain must be a mapping")
        unknown = set(tdoc) - {"plane_z", "patch_center", "patch_size", "hemispheres"}
        if unknown:
            raise ConfigError(f"unknown terrain keys: {sorted(unknown)}")
        try:
            hemis = tuple(Hemisphere(np.asarray(h["center"], dtype=float), h["radius"])
                          for h in tdoc.get("hemispheres", []))
            terrain = Terrain(
                plane_z=tdoc.get("plane_z", defaults.terrain.plane_z),
                patch_center=tdoc.get("patch_center", defaults.terrain.patch_center),
                patch_size=tdoc.get("patch_size", defaults.terrain.patch_size),
                hemispheres=hemis)
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise ConfigError(f"terrain: {exc}") from exc
    kwargs = {k: doc[k] for k in doc if k not in ("camera", "terrain")}
    try:
        return SimConfig(camera=camera, terrain=terrain, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> SimConfig:
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}" if mark is not None else ""
            raise ConfigError(f"{path}: YAML parse error{where}: {exc}") from exc
    if doc is None:
        doc = {}
    try:
        return config_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_config(path, config: SimConfig) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=False)


# --- bundle directory ----------------------------------------------------------------
#
# Layout:
#   trajectory.csv       timestamp, true pose (7), noisy joint angles
#   vo.csv               step index, translation (map units, 3), rotation quat (4)
#   cloud.ply            unscaled terrain cloud
#   graspable_truth.csv  apex positions, meters
#   manifest.yaml        file list + the resolved config (includes true_scale)

TRAJECTORY_FILE = "trajectory.csv"
VO_FILE = "vo.csv"
CLOUD_FILE = "cloud.ply"
TRUTH_GRASPABLE_FILE = "graspable_truth.csv"
MANIFEST_FILE = "manifest.yaml"
BUNDLE_FILES = (TRAJECTORY_FILE, VO_FILE, CLOUD_FILE, TRUTH_GRASPABLE_FILE,
                MANIFEST_FILE)


def write_bundle(directory, bundle: SimBundle) -> list[str]:
    """Write the four data files plus the manifest; returns the file names."""
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
    write_records(d / TRUTH_GRASPABLE_FILE, bundle.truth_graspable, ",",
                  "apex x,y,z (meters)")

    manifest = {
        "seed": bundle.config.seed,
        "true_scale": bundle.config.true_scale,
        "keyframes": bundle.config.keyframes,
        "files": list(BUNDLE_FILES[:-1]),
        "config": config_to_dict(bundle.config),
    }
    with open(d / MANIFEST_FILE, "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=False)
    return list(BUNDLE_FILES)


def read_bundle(directory) -> SimBundle:
    d = Path(directory)
    path = d / MANIFEST_FILE
    with open(path) as fh:
        try:
            config = config_from_dict(yaml.safe_load(fh)["config"])
        except (yaml.YAMLError, ConfigError, KeyError, TypeError) as exc:
            raise CorruptArtifact(
                f"{path}: bad manifest: {type(exc).__name__}: {exc}") from exc

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
            vo.append((Rotation(np.array(vals[4:8])), np.array(vals[1:4])))

    if len(vo) != len(poses) - 1:
        raise CorruptArtifact(f"{path}: {len(vo)} steps for {len(poses)} keyframes")

    path = d / CLOUD_FILE
    cloud = mapping.read_ply(path)
    if cloud.units != UNSCALED_UNITS:
        raise CorruptArtifact(f"{path}: bundle cloud must be in {UNSCALED_UNITS}, "
                              f"got {cloud.units}")

    path = d / TRUTH_GRASPABLE_FILE
    apexes = [numbers(path, lineno, tok, 3) for lineno, tok in read_records(path, ",")]
    return SimBundle(config=config, truth_poses=poses, readings=readings,
                     vo_deltas=vo, cloud=cloud, truth_graspable=apexes)
