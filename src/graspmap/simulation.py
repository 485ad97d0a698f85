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
from .geometry import (Pose, Rotation, compose_stacked, frozen, inverse_stacked,
                       quat_product, quat_rotate, so3_exp_stacked)
from .geometry import compose  # noqa: F401 -- read only by perfbench/tracer.py
from .kinematics import JointReading, LimbModel, default_limb, fk_poses
from .kinematics import fk_pose  # noqa: F401 -- read only by perfbench/tracer.py
from . import mapping  # bundle I/O calls mapping.*_ply, so wrappers set there apply
from .mapping import UNSCALED_UNITS, PointCloud
from .records import (check_quaternions, config_number, float_fields, from_mapping,
                      laid_out, load_mapping, read_records, read_table, read_yaml,
                      to_mapping, write_records, write_yaml)

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


def _trajectory(model: LimbModel, config: SimConfig
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``generate_trajectory`` as arrays: timestamps (n,), noisy joint readings
    (n, dof), and the true gripper poses as (n, 4) quaternions and (n, 3)
    translations."""
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
    return (timestamps, noisy, *fk_poses(model, truth))


def generate_trajectory(model: LimbModel, config: SimConfig
                        ) -> tuple[list[JointReading], list[Pose]]:
    """Noisy encoder readings plus the true gripper poses they approximate."""
    timestamps, noisy, quats, trans = _trajectory(model, config)
    return ([JointReading(t, a) for t, a in zip(timestamps, noisy)],
            [Pose(Rotation(q), t) for q, t in zip(quats, trans)])


def _pose_arrays(poses) -> tuple[np.ndarray, np.ndarray]:
    """Poses as (n, 4) quaternions and (n, 3) translations."""
    return (np.array([p.rotation.quat for p in poses]).reshape(-1, 4),
            np.array([p.translation for p in poses]).reshape(-1, 3))


# --- tracker deltas ----------------------------------------------------------------


def _vo_steps(quats: np.ndarray, trans: np.ndarray, config: SimConfig
              ) -> tuple[np.ndarray, np.ndarray]:
    """``generate_vo`` on poses given as (n, 4) quaternions and (n, 3)
    translations: the steps as (n - 1, 4) rotations and (n - 1, 3)
    translations, each row what the per-step product gives bit for bit."""
    shape = (max(len(quats) - 1, 0), 3)
    dq, dt = compose_stacked(*inverse_stacked(quats[:-1], trans[:-1]), quats[1:], trans[1:])
    # zero stddev still consumes the stream, so noiseless and noisy runs
    # with one seed stay draw-for-draw aligned
    noise = _rng(config.seed, "vo_rot").normal(0.0, config.vo_rot_noise_stddev, shape)
    vo_quats = quat_product(dq, so3_exp_stacked(noise))
    dt /= config.true_scale
    dt += _rng(config.seed, "vo_trans").normal(0.0, config.vo_trans_noise_stddev, shape)
    return vo_quats, dt


def generate_vo(truth_poses, config: SimConfig) -> list[tuple[Rotation, np.ndarray]]:
    """Per-step tracker measurements: metric rotation, translation in map units.

    Each step is the true relative transform between consecutive poses with
    the translation divided by ``true_scale``; noise goes on top (rotation via
    a small random axis-angle, translation additive in map units).
    """
    vo_quats, vo_trans = _vo_steps(*_pose_arrays(truth_poses), config)
    return [(Rotation(q), t) for q, t in zip(vo_quats, vo_trans)]


# --- terrain cloud ----------------------------------------------------------------

# Elements of one block of the rejection test's (bumps, plane samples)
# distances: all bumps at once would take tens of MB for a terrain of 300
# bumps at 20000 samples.
_BUMP_BLOCK = 1 << 15
# Cloud rows per noise draw: a draw's block stays below the 128 KiB above
# which glibc gives a block a mapping of its own.
_NOISE_ROWS = 4096


class _SurfaceSampler:
    """Uniform-by-area samples of the terrain surface (plane + bump caps), and
    the frustum test on them, in batches of up to ``size`` points. The
    buffers are made once: a result is a view the next call overwrites.

    Every draw is a ``next_double`` of ``rng``, in the order and with the
    values of ``Generator.choice`` of the surface by area (a draw against the
    weights' running sums), ``uniform(0, 1)`` (``random``) and
    ``uniform(0, 2 pi)`` (2 pi ``random``)."""

    def __init__(self, terrain: Terrain, size: int, rng: np.random.Generator):
        self.terrain, self.rng = terrain, rng
        areas = [float(np.prod(terrain.patch_size))]
        areas += [2.0 * math.pi * h.radius ** 2 for h in terrain.hemispheres]
        # Generator.choice's running sums of the weights
        self.cdf = (np.array(areas) / sum(areas)).cumsum()
        self.cdf /= self.cdf[-1]
        # a stable sort of the narrowest integer type is a radix sort
        self.surface_type = np.min_scalar_type(len(areas) - 1)
        self.lo = terrain.patch_center - 0.5 * terrain.patch_size
        bumps = terrain.hemispheres
        self.cx = np.array([h.center[0] for h in bumps])
        self.cy = np.array([h.center[1] for h in bumps])
        self.radius = np.array([h.radius for h in bumps])
        # squared as Python squares a float (pow), which need not round as r * r
        self.r2 = np.array([h.radius ** 2 for h in bumps])[:, None]
        block = min(len(bumps) * size, max(_BUMP_BLOCK, size))
        self.d2, self.dy = np.empty(block), np.empty(block)
        self.grouped = np.empty((size, 3))
        self.xy = np.empty((size, 2))
        self.u, self.az, self.rxy, self.trig = (np.empty(size) for _ in range(4))
        self.inv = np.empty(size, dtype=np.intp)
        self.rows = np.arange(size)
        self.v = np.empty((size, 3))
        self.along, self.dist = np.empty(size), np.empty(size)
        self.seen = np.empty(size, dtype=bool)

    def _plane_xy(self, out: np.ndarray) -> np.ndarray:
        """Uniform points of the patch into the first two columns of ``out``.
        Column by column: numpy runs (m, 2) times a 2-vector two numbers at
        a time, several times slower."""
        u = self.rng.random(out=self.xy[:len(out)])
        for k in range(2):
            np.multiply(u[:, k], self.terrain.patch_size[k], out=out[:, k])
            out[:, k] += self.lo[k]
        return out

    def _under_bump(self, xy: np.ndarray) -> np.ndarray:
        """Which of the plane samples, x and y in the first two columns of
        ``xy``, lie under a bump: as many bumps at a time as fit a block,
        each a row of squared distances."""
        m = len(xy)
        x, y = xy[:, 0], xy[:, 1]
        hit = np.zeros(m, dtype=bool)
        step = max(1, len(self.d2) // m)
        for k in range(0, len(self.cx), step):
            cx, cy = self.cx[k:k + step], self.cy[k:k + step]
            shape = (len(cx), m)
            # (cx - x)^2 is (x - cx)^2 to the bit
            d2 = np.subtract.outer(cx, x, out=self.d2[:cx.size * m].reshape(shape))
            d2 *= d2
            dy = np.subtract.outer(cy, y, out=self.dy[:cx.size * m].reshape(shape))
            dy *= dy
            d2 += dy
            hit |= np.logical_or.reduce(d2 < self.r2[k:k + step], axis=0)
        return hit

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``n`` surface samples grouped by surface, each group in draw order,
        as (n, 3) points, and ``inv``: draw r is grouped row ``inv[r]``."""
        rng, terrain = self.rng, self.terrain
        # the surface Generator.choice takes for draw u is cdf.searchsorted(u,
        # side="right"), the count of running sums at or below u: counted
        # here in one pass per surface, as the rejection test makes anyway
        u = rng.random(out=self.u[:n])
        which = np.zeros(n, dtype=self.surface_type)
        for edge in self.cdf:
            which += u >= edge
        counts = np.bincount(which, minlength=len(self.cdf)).tolist()
        grouped = self.grouped[:n]

        n_plane = counts[0]
        if n_plane:
            # points under a bump belong to the bump surface, not the plane;
            # only a redrawn point can land under one again
            plane = self._plane_xy(grouped[:n_plane])
            idx = np.flatnonzero(self._under_bump(plane))
            while idx.size:
                plane[idx, :2] = self._plane_xy(np.empty((idx.size, 2)))
                idx = idx[self._under_bump(plane[idx])]
            plane[:, 2] = terrain.plane_z

        caps, bump_counts = grouped[n_plane:], counts[1:]
        if len(caps):
            zn, az = self.u[:len(caps)], self.az[:len(caps)]
            at = 0
            for m in bump_counts:  # per bump: its heights, then its azimuths
                if m:
                    rng.random(out=zn[at:at + m])  # uniform area on a sphere: z uniform
                    rng.random(out=az[at:at + m])
                    at += m
            # then every cap row at once, each with its own bump's numbers
            az *= 2.0 * math.pi
            radius, cx, cy = (np.repeat(a, bump_counts) for a in (self.radius, self.cx, self.cy))
            rxy = np.multiply(zn, zn, out=self.rxy[:len(caps)])
            np.subtract(1.0, rxy, out=rxy)
            np.maximum(0.0, rxy, out=rxy)
            np.sqrt(rxy, out=rxy)
            rxy *= radius
            for axis, trig, center in ((0, np.cos, cx), (1, np.sin, cy)):
                # into a contiguous buffer, not the strided column: the ufunc's
                # loop, and so the last bit of cos and sin, can depend on the layout
                c = trig(az, out=self.trig[:len(caps)])
                c *= rxy
                c += center
                caps[:, axis] = c
            zn *= radius
            zn += terrain.plane_z
            caps[:, 2] = zn

        inv = self.inv[:n]
        inv[np.argsort(which, kind="stable")] = self.rows[:n]
        return grouped, inv

    def visible(self, points: np.ndarray, bore: np.ndarray, origin: np.ndarray,
                cos_half_fov: float) -> np.ndarray:
        """Frustum test: which ``points`` lie within the half angle whose cosine
        is given of the camera axis ``bore`` from ``origin``. Each row's test
        is the same wherever the row sits in ``points``."""
        n = len(points)
        v = self.v[:n]
        for k in range(3):  # by columns, as in _plane_xy
            np.subtract(points[:, k], origin[k], out=v[:, k])
        along = np.matmul(v, bore, out=self.along[:n])
        # the distance as np.linalg.norm(v, axis=1) takes it, sqrt((x² + y²) + z²),
        # without its temporaries: a sum along each row is slower than down columns
        v *= v
        dist = np.add(v[:, 0], v[:, 1], out=self.dist[:n])
        dist += v[:, 2]
        np.sqrt(dist, out=dist)
        dist *= cos_half_fov
        seen = np.greater_equal(along, dist, out=self.seen[:n])
        seen &= along > 0.0
        return seen


def _cloud(quats: np.ndarray, trans: np.ndarray, config: SimConfig) -> PointCloud:
    """``generate_cloud`` for poses given as (n, 4) quaternions and (n, 3)
    translations."""
    rng = _rng(config.seed, "cloud")
    want = config.cloud_points_per_keyframe
    sampler = _SurfaceSampler(config.terrain, max(2 * want, 512), rng)
    bores = quat_rotate(quats, np.array([0.0, 0.0, 1.0]))  # the optical axes
    cos_half_fov = math.cos(math.radians(0.5 * config.camera.fov_deg))
    cloud = np.empty((want * len(quats), 3))
    filled = short = 0
    for bore, origin in zip(bores, trans):
        remaining = want
        for _ in range(200):
            grouped, inv = sampler.sample(max(2 * remaining, 512))
            # the first visible draws, gathered in draw order
            seen = sampler.visible(grouped, bore, origin, cos_half_fov)[inv]
            rows = inv[np.flatnonzero(seen)[:remaining]]
            # every index is in range; mode="raise" would copy through a temporary
            np.take(grouped, rows, axis=0, out=cloud[filled:filled + rows.size], mode="clip")
            filled += rows.size
            remaining -= rows.size
            if remaining <= 0:
                break
        short += remaining > 0
    if not filled:
        raise NoVisibleTerrain("no terrain surface falls inside any keyframe frustum")
    if short:
        log.info("%d of %d keyframes saw too little terrain: the cloud is %d points "
                 "short of %d", short, len(quats), len(cloud) - filled, len(cloud))
        cloud = cloud[:filled].copy()
    cloud /= config.true_scale
    for start in range(0, filled, _NOISE_ROWS):
        block = cloud[start:start + _NOISE_ROWS]
        block += rng.normal(0.0, config.vo_trans_noise_stddev, block.shape)
    cloud.flags.writeable = False  # PointCloud keeps it without a copy
    return PointCloud(cloud, UNSCALED_UNITS)


def generate_cloud(truth_poses, config: SimConfig) -> PointCloud:
    """Unscaled terrain cloud as the tracker would map it.

    Samples ``cloud_points_per_keyframe`` surface points seen from each
    keyframe, divides by the true scale, and adds isotropic noise with the
    tracker's translation noise level (both in map units). A keyframe that
    sees too little terrain in 200 batches keeps what it found; the shortfall
    is logged at INFO.
    """
    return _cloud(*_pose_arrays(truth_poses), config)


def simulate(config: SimConfig, model: LimbModel | None = None) -> SimBundle:
    """Full synthetic run with one seed; see the per-stage generators."""
    timestamps, angles, quats, trans = _trajectory(model or default_limb(), config)
    vo_quats, vo_trans = _vo_steps(quats, trans, config)
    return SimBundle(config=config, timestamps=timestamps, angles=angles,
                     truth_quats=quats, truth_trans=trans, vo_quats=vo_quats,
                     vo_trans=vo_trans, cloud=_cloud(quats, trans, config))


# --- config file: SimConfig's fields are its schema (records.from_mapping) -----------


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
        config = from_mapping(SimConfig, read_yaml(path, CorruptArtifact)["config"])
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
    # step k ties keyframe k-1 to k
    laid_out(path, rows, ([str(k)] for k in range(1, len(trajectory))))
    vo = read_table(path, rows, 8)
    check_quaternions(path, rows, vo[:, 4:8])

    path = d / CLOUD_FILE
    cloud = mapping.read_ply(path)
    if cloud.units != UNSCALED_UNITS:
        raise CorruptArtifact(f"{path}: bundle cloud must be in {UNSCALED_UNITS}, "
                              f"got {cloud.units}")
    return SimBundle(config=config, timestamps=trajectory[:, 0], angles=trajectory[:, 8:],
                     truth_quats=trajectory[:, 4:8], truth_trans=trajectory[:, 1:4],
                     vo_quats=vo[:, 4:8], vo_trans=vo[:, 1:4], cloud=cloud)
