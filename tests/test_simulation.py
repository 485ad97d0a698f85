"""Synthetic data generation: trajectory, tracker deltas, terrain cloud, I/O."""

import dataclasses
import hashlib
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from graspmap.errors import (ConfigError, CorruptArtifact, NoVisibleTerrain,
                             UnreachableTerrain)
from graspmap import simulation
from graspmap.geometry import Pose, compose, inverse, so3_exp
from graspmap.kinematics import default_limb, fk_pose
from graspmap.mapping import UNSCALED_UNITS
from graspmap.simulation import (CameraModel, Hemisphere, SimConfig, Terrain,
                                 _SurfaceSampler, default_terrain, generate_cloud,
                                 generate_trajectory, generate_vo, load_config,
                                 read_bundle, save_config, simulate,
                                 write_bundle)
from graspmap.records import from_mapping, to_mapping
from tests.conftest import rotation_gap

QUIET = dict(joint_noise_stddev=0.0, vo_trans_noise_stddev=0.0,
             vo_rot_noise_stddev=0.0)


def surface_height(terrain: Terrain, xy: np.ndarray) -> np.ndarray:
    """Terrain elevation oracle: plane plus the tallest covering bump."""
    z = np.full(xy.shape[0], terrain.plane_z)
    for h in terrain.hemispheres:
        d2 = ((xy - h.center) ** 2).sum(axis=1)
        cap = h.radius ** 2 - d2
        lift = np.sqrt(np.maximum(cap, 0.0))
        z = np.maximum(z, terrain.plane_z + lift)
    return z


# --- trajectory ----------------------------------------------------------------------


def test_zero_joint_noise_reports_truth_angles():
    config = SimConfig(seed=3, joint_noise_stddev=0.0,
                       cloud_points_per_keyframe=1)
    model = default_limb()
    readings, truth_poses = generate_trajectory(model, config)
    assert len(readings) == len(truth_poses) == config.keyframes
    for reading, pose in zip(readings, truth_poses):
        refk = fk_pose(model, reading.angles)
        assert np.array_equal(refk.translation, pose.translation)
        assert np.array_equal(refk.rotation.quat, pose.rotation.quat)


def test_timestamps_follow_frame_rate():
    config = SimConfig(camera=CameraModel(rate_hz=30.0))
    readings, _ = generate_trajectory(default_limb(), config)
    stamps = np.array([r.timestamp for r in readings])
    assert np.allclose(np.diff(stamps), 1.0 / 30.0, atol=1e-15)
    assert stamps[0] == 0.0


def test_sweep_moves_every_step():
    _, truth_poses = generate_trajectory(default_limb(), SimConfig())
    steps = [np.linalg.norm(b.translation - a.translation)
             for a, b in zip(truth_poses, truth_poses[1:])]
    moving = sum(s > 1e-3 for s in steps)
    assert moving >= 0.9 * len(steps)


def test_unreachable_patch():
    far = Terrain(plane_z=0.0, patch_center=np.array([0.9, 0.0]),
                  patch_size=np.array([0.16, 0.16]),
                  hemispheres=(Hemisphere(np.array([0.9, 0.0]), 0.03),))
    with pytest.raises(UnreachableTerrain):
        generate_trajectory(default_limb(), SimConfig(terrain=far))


# --- visual odometry -----------------------------------------------------------------


def test_vo_noiseless_unit_scale_matches_truth_deltas():
    config = SimConfig(seed=5, true_scale=1.0, **QUIET)
    _, truth_poses = generate_trajectory(default_limb(), config)
    deltas = generate_vo(truth_poses, config)
    assert len(deltas) == config.keyframes - 1
    for (rot, trans), prev, curr in zip(deltas, truth_poses, truth_poses[1:]):
        truth = compose(inverse(prev), curr)
        assert rotation_gap(rot, truth.rotation) < 1e-15
        assert np.allclose(trans, truth.translation, atol=1e-16)


def test_vo_translation_scales_inversely_with_true_scale():
    base = SimConfig(seed=6, true_scale=1.0, **QUIET)
    doubled = dataclasses.replace(base, true_scale=2.0)
    _, truth_poses = generate_trajectory(default_limb(), base)
    vo1 = generate_vo(truth_poses, base)
    vo2 = generate_vo(truth_poses, doubled)
    for (_, t1), (_, t2) in zip(vo1, vo2):
        assert np.allclose(t2, t1 / 2.0, atol=1e-18)


def test_vo_rotation_draws_independent_of_scale():
    config_a = SimConfig(seed=7, true_scale=0.5)
    config_b = dataclasses.replace(config_a, true_scale=2.0)
    _, truth_poses = generate_trajectory(default_limb(), config_a)
    vo_a = generate_vo(truth_poses, config_a)
    vo_b = generate_vo(truth_poses, config_b)
    for (ra, _), (rb, _) in zip(vo_a, vo_b):
        assert np.array_equal(ra.quat, rb.quat)


def test_vo_chain_composes_to_endpoint():
    config = SimConfig(seed=8, true_scale=3.0, **QUIET)
    _, truth_poses = generate_trajectory(default_limb(), config)
    pose = truth_poses[0]
    for rot, trans in generate_vo(truth_poses, config):
        pose = compose(pose, Pose(rot, trans * config.true_scale))
    assert np.linalg.norm(pose.translation - truth_poses[-1].translation) < 1e-10
    assert rotation_gap(pose.rotation, truth_poses[-1].rotation) < 1e-10


def vo_reference(truth_poses, config: SimConfig, rot_rng, trans_rng) -> list:
    """The tracker steps as a loop of scalar products, one draw of three
    numbers per step from each stream; ``generate_vo`` must give them to the bit."""
    out = []
    for prev, curr in zip(truth_poses[:-1], truth_poses[1:]):
        delta = compose(inverse(prev), curr)
        rot = delta.rotation @ so3_exp(rot_rng.normal(0.0, config.vo_rot_noise_stddev, 3))
        trans = delta.translation / config.true_scale \
            + trans_rng.normal(0.0, config.vo_trans_noise_stddev, 3)
        out.append((rot, trans))
    return out


@pytest.mark.parametrize("keyframes, noise", [(20, {}), (320, {}), (20, QUIET)],
                         ids=["20", "320", "20-noiseless"])
def test_vo_takes_the_per_step_products_and_draws(keyframes, noise, monkeypatch):
    """Same rotations and translations, bit for bit, and both streams left
    where the per-step loop leaves them."""
    config = SimConfig(seed=4, keyframes=keyframes, cloud_points_per_keyframe=1, **noise)
    _, truth_poses = generate_trajectory(default_limb(), config)
    make_rng, streams = simulation._rng, {}

    def recorded(seed, purpose):
        streams[purpose] = rng = make_rng(seed, purpose)
        return rng

    monkeypatch.setattr(simulation, "_rng", recorded)
    steps = generate_vo(truth_poses, config)
    ref_rot, ref_trans = make_rng(config.seed, "vo_rot"), make_rng(config.seed, "vo_trans")
    reference = vo_reference(truth_poses, config, ref_rot, ref_trans)
    assert len(steps) == len(reference) == keyframes - 1
    for (rot, trans), (ref_r, ref_t) in zip(steps, reference):
        assert rot.quat.tobytes() == ref_r.quat.tobytes()
        assert trans.tobytes() == ref_t.tobytes()
    assert streams["vo_rot"].bit_generator.state == ref_rot.bit_generator.state
    assert streams["vo_trans"].bit_generator.state == ref_trans.bit_generator.state


# --- terrain cloud -------------------------------------------------------------------


def test_noiseless_cloud_lies_on_surface():
    config = SimConfig(seed=9, true_scale=2.0, cloud_points_per_keyframe=300,
                       **QUIET)
    _, truth_poses = generate_trajectory(default_limb(), config)
    cloud = generate_cloud(truth_poses, config)
    assert cloud.units == UNSCALED_UNITS
    metric = cloud.points * config.true_scale
    gap = np.abs(metric[:, 2] - surface_height(config.terrain, metric[:, :2]))
    assert gap.max() < 1e-9


def test_cloud_samples_apex_neighborhood():
    config = SimConfig(seed=10, true_scale=2.0,
                       cloud_points_per_keyframe=1000, **QUIET)
    _, truth_poses = generate_trajectory(default_limb(), config)
    metric = generate_cloud(truth_poses, config).points * config.true_scale
    for apex in config.terrain.apexes():
        assert np.linalg.norm(metric - apex, axis=1).min() < 0.005


def test_cloud_noise_level_on_open_plane():
    config = SimConfig(seed=11, true_scale=2.0,
                       cloud_points_per_keyframe=2500)
    _, truth_poses = generate_trajectory(default_limb(), config)
    metric = generate_cloud(truth_poses, config).points * config.true_scale
    open_plane = np.ones(len(metric), dtype=bool)
    for h in config.terrain.hemispheres:
        d = np.linalg.norm(metric[:, :2] - h.center, axis=1)
        open_plane &= d > h.radius + 0.005
    z = metric[open_plane, 2] - config.terrain.plane_z
    assert len(z) > 10_000
    expected = config.vo_trans_noise_stddev * config.true_scale
    assert abs(np.sqrt(np.mean(z ** 2)) - expected) < 0.2 * expected


def sample_surface_reference(terrain: Terrain, n: int, rng) -> np.ndarray:
    """The sampler as a pass per surface and per rejection round over every
    plane sample; ``_sample_surface`` must take the same draws to the bit."""
    areas = [float(np.prod(terrain.patch_size))]
    areas += [2.0 * math.pi * h.radius ** 2 for h in terrain.hemispheres]
    which = rng.choice(len(areas), size=n, p=np.array(areas) / sum(areas))
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
        zn = rng.uniform(0.0, 1.0, m)
        az = rng.uniform(0.0, 2.0 * math.pi, m)
        rxy = np.sqrt(np.maximum(0.0, 1.0 - zn ** 2))
        pts[sel] = np.column_stack([h.center[0] + h.radius * rxy * np.cos(az),
                                    h.center[1] + h.radius * rxy * np.sin(az),
                                    terrain.plane_z + h.radius * zn])
    return pts


def many_bumps(count: int) -> Terrain:
    """``count`` small bumps on a grid inside the default patch."""
    side = math.ceil(math.sqrt(count))
    step = 0.15 / side
    centers = [(0.175 + step * (i % side + 0.5), -0.075 + step * (i // side + 0.5))
               for i in range(count)]
    return Terrain(plane_z=0.01, hemispheres=tuple(Hemisphere(c, 0.3 * step)
                                                   for c in centers))


@pytest.mark.parametrize("terrain", [default_terrain(), Terrain(), many_bumps(300)],
                         ids=["default", "flat", "300-bumps"])
def test_sampler_takes_the_reference_draws(terrain):
    """Same points, in the same order once put in draw order, and the stream
    left in the same state, from one sampler whose buffers each batch
    reuses; 300 bumps make more surfaces than a byte can number."""
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    sampler = _SurfaceSampler(terrain, 20000, rng)
    for n in (1, 512, 20000, 512):
        grouped, inv = sampler.sample(n)
        assert sorted(inv.tolist()) == list(range(n))
        pts = grouped[inv]
        assert pts.tobytes() == sample_surface_reference(terrain, n, ref_rng).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 511, 512, 20000])
def test_frustum_test_does_not_depend_on_row_order(n):
    """The cloud tests points in surface order and keeps them in draw order,
    so a row's test, down to the bits of its distances, must not depend on
    where the row sits: through BLAS, that is not given."""
    config = SimConfig()
    _, truth_poses = generate_trajectory(default_limb(), config)
    pose = truth_poses[3]
    rng = np.random.default_rng(n)
    sampler = _SurfaceSampler(config.terrain, n, rng)
    points = sampler.sample(n)[0].copy()
    perm = rng.permutation(n)
    bore = pose.rotation.apply([0.0, 0.0, 1.0])
    cos_half_fov = math.cos(math.radians(0.5 * config.camera.fov_deg))

    def frustum(pts):
        seen = sampler.visible(pts, bore, pose.translation, cos_half_fov)
        return seen.copy(), sampler.along[:n].copy(), sampler.dist[:n].copy()

    permuted, plain = frustum(points[perm]), frustum(points)
    for a, b in zip(permuted, plain):
        assert a.tobytes() == b[perm].tobytes()
    if n >= 512:
        assert 0 < plain[0].sum() < n


def test_no_visible_terrain():
    config = SimConfig(camera=CameraModel(fov_deg=1e-3), keyframes=2,
                       cloud_points_per_keyframe=1)
    _, truth_poses = generate_trajectory(default_limb(), config)
    with pytest.raises(NoVisibleTerrain):
        generate_cloud(truth_poses, config)


# Clouds of the sampler as it was before it moved to in-place passes: the
# draws from the cloud stream, their order and every rounding stay the same.
CLOUD_DIGESTS = [
    ({}, "8e2bf002852aaf27a32102485674dc0fe01d5a6d6348072cb48801da536ffb39"),
    (dict(seed=7), "822f98ebe04d5b6d2d8435a036a14f3defd7ee641c1074dced7fb1cb8256071f"),
    (dict(seed=0, keyframes=320, cloud_points_per_keyframe=1),
     "c1bd23e4458be1d239402f6a58ac43ec985cc296a9afb694e52daf132cdcfe4f"),
    (dict(seed=12, cloud_points_per_keyframe=150),
     "43e88624de70d6cf8d82b24f5a3684647f665749e7d4710bab5f0d3fb30da0af"),
    # 9 of 300 points: every keyframe comes up short
    (dict(seed=3, keyframes=6, cloud_points_per_keyframe=50,
          camera=CameraModel(fov_deg=0.5)),
     "58dcce9b6fa7b6816d4d9291829769068238f5c0d89162fa0d7dc8678e40e458"),
]


def cloud_digest(config: SimConfig) -> str:
    return hashlib.sha256(simulate(config).cloud.points.tobytes()).hexdigest()


@pytest.mark.parametrize("kw, digest", CLOUD_DIGESTS)
def test_cloud_bytes_are_pinned(kw, digest):
    assert cloud_digest(SimConfig(**kw)) == digest


def test_cloud_bytes_do_not_depend_on_the_allocator():
    """Array alignment follows the allocator, and the frustum test's dot
    product goes through BLAS; a child process with every block above 128 KiB
    mapped on its own must still draw the same cloud."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import hashlib; from graspmap.simulation import SimConfig, simulate; "
            "print(hashlib.sha256(simulate(SimConfig(seed=12, cloud_points_per_keyframe=150))"
            ".cloud.points.tobytes()).hexdigest())")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == cloud_digest(SimConfig(seed=12, cloud_points_per_keyframe=150))


def test_cloud_peak_memory_stays_below_two_clouds():
    """Each batch reuses buffers sized once and the points go straight into
    the one cloud array, so generating the default cloud holds less than
    twice the cloud's bytes at any time."""
    config = SimConfig()
    _, truth_poses = generate_trajectory(default_limb(), config)
    tracemalloc.start()
    try:
        cloud = generate_cloud(truth_poses, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * cloud.points.nbytes, peak / cloud.points.nbytes


def test_short_keyframes_are_logged_once(caplog):
    config = SimConfig(seed=3, keyframes=6, cloud_points_per_keyframe=50,
                       camera=CameraModel(fov_deg=0.5))
    with caplog.at_level(logging.INFO, logger="graspmap.simulation"):
        bundle = simulate(config)
    assert len(bundle.cloud) == 9
    records = [r for r in caplog.records if r.name == "graspmap.simulation"]
    assert [r.levelno for r in records] == [logging.INFO]
    assert records[0].getMessage() == ("6 of 6 keyframes saw too little terrain: "
                                       "the cloud is 291 points short of 300")


def test_full_keyframes_log_nothing(caplog):
    with caplog.at_level(logging.INFO, logger="graspmap.simulation"):
        simulate(SimConfig(seed=12, cloud_points_per_keyframe=150))
    assert not [r for r in caplog.records if r.name == "graspmap.simulation"]


# --- whole-bundle behaviour -----------------------------------------------------------


BUNDLE_ARRAYS = ("timestamps", "angles", "truth_quats", "truth_trans", "vo_quats", "vo_trans")


def test_same_seed_is_bit_identical():
    config = SimConfig(seed=12, cloud_points_per_keyframe=150)
    a = simulate(config)
    b = simulate(config)
    for name in BUNDLE_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.cloud.points, b.cloud.points)


def test_different_seeds_differ():
    a = simulate(SimConfig(seed=0, cloud_points_per_keyframe=150))
    b = simulate(SimConfig(seed=1, cloud_points_per_keyframe=150))
    assert not np.array_equal(a.angles[1], b.angles[1])
    assert not np.array_equal(a.cloud.points, b.cloud.points)


def test_bundle_round_trip(tmp_path):
    bundle = simulate(SimConfig(seed=13, cloud_points_per_keyframe=150))
    write_bundle(tmp_path, bundle)
    back = read_bundle(tmp_path)
    assert to_mapping(back.config) == to_mapping(bundle.config)
    for name in BUNDLE_ARRAYS:
        assert getattr(back, name).shape == getattr(bundle, name).shape, name
        assert np.array_equal(getattr(back, name), getattr(bundle, name)), name
    assert np.array_equal(bundle.cloud.points, back.cloud.points)
    assert back.cloud.units == UNSCALED_UNITS


def test_simulate_packs_the_generators_output():
    """The bundle's arrays are the rows of generate_trajectory's readings and
    poses and of generate_vo's deltas, bit for bit."""
    config = SimConfig(seed=5, keyframes=9, cloud_points_per_keyframe=1)
    bundle = simulate(config)
    readings, truth_poses = generate_trajectory(default_limb(), config)
    deltas = generate_vo(truth_poses, config)
    assert np.array_equal(bundle.timestamps, [r.timestamp for r in readings])
    assert np.array_equal(bundle.angles, [r.angles for r in readings])
    assert np.array_equal(bundle.truth_quats, [p.rotation.quat for p in truth_poses])
    assert np.array_equal(bundle.truth_trans, [p.translation for p in truth_poses])
    assert np.array_equal(bundle.vo_quats, [rot.quat for rot, _ in deltas])
    assert np.array_equal(bundle.vo_trans, [trans for _, trans in deltas])


def test_manifest_that_is_not_utf8_is_corrupt(tmp_path):
    (tmp_path / "manifest.yaml").write_bytes(b"seed: \xff\n")
    with pytest.raises(CorruptArtifact, match="manifest.yaml:1: not UTF-8 text"):
        read_bundle(tmp_path)


# --- configuration -------------------------------------------------------------------


def test_config_round_trip(tmp_path):
    """Every field off its default, hemispheres included, survives a save and load."""
    terrain = Terrain(plane_z=-0.02, patch_center=(0.3, 0.01), patch_size=(0.2, 0.1),
                      hemispheres=(Hemisphere((0.3, 0.02), 0.025),
                                   Hemisphere((0.26, -0.01), 0.01)))
    config = SimConfig(seed=99, true_scale=1.75, keyframes=11, joint_noise_stddev=0.001,
                       vo_trans_noise_stddev=3e-4, vo_rot_noise_stddev=0.01,
                       cloud_points_per_keyframe=123,
                       camera=CameraModel(fov_deg=80.0, rate_hz=15.0), terrain=terrain)
    doc, defaults = to_mapping(config), to_mapping(SimConfig())
    assert all(doc[k] != defaults[k] for k in doc)
    assert all(doc[s][k] != defaults[s][k] for s in ("camera", "terrain") for k in doc[s])
    path = tmp_path / "run.yaml"
    save_config(path, config)
    assert to_mapping(load_config(path)) == doc


def test_default_config_file_matches_defaults(tmp_path):
    path = tmp_path / "default.yaml"
    save_config(path, SimConfig())
    shipped = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    assert path.read_bytes() == shipped.read_bytes()


def test_partial_terrain_takes_field_defaults():
    """Missing plane and patch keys take the defaults; missing hemispheres
    means flat ground."""
    terrain = from_mapping(SimConfig, {"terrain": {"plane_z": 0.01}}).terrain
    assert terrain.plane_z == 0.01 and terrain.hemispheres == ()
    assert np.array_equal(terrain.patch_center, default_terrain().patch_center)
    assert np.array_equal(terrain.patch_size, default_terrain().patch_size)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="warp_factor"):
        from_mapping(SimConfig, {"warp_factor": 9})


def test_config_error_names_the_hemisphere_by_index():
    doc = to_mapping(SimConfig())
    doc["terrain"]["hemispheres"][1]["radius"] = -1
    with pytest.raises(ConfigError) as err:
        from_mapping(SimConfig, doc)
    assert str(err.value) == "terrain: hemispheres[1].radius must be positive"


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="keyframes"):
        SimConfig(keyframes=1)
    with pytest.raises(ConfigError, match="true_scale"):
        SimConfig(true_scale=-2.0)
    with pytest.raises(ConfigError, match="fov"):
        SimConfig(camera=CameraModel(fov_deg=500.0))
    with pytest.raises(ConfigError, match="joint_noise_stddev"):
        SimConfig(joint_noise_stddev=-0.1)
    # non-finite floats and fractional counts name the field
    with pytest.raises(ConfigError, match="true_scale"):
        SimConfig(true_scale=math.inf)
    with pytest.raises(ConfigError, match="vo_rot_noise_stddev"):
        SimConfig(vo_rot_noise_stddev=math.nan)
    with pytest.raises(ConfigError, match="rate_hz"):
        SimConfig(camera=CameraModel(rate_hz=math.inf))
    with pytest.raises(ConfigError, match="plane_z"):
        dataclasses.replace(default_terrain(), plane_z=math.nan)
    with pytest.raises(ConfigError, match="patch_size"):
        dataclasses.replace(default_terrain(), patch_size=[math.inf, 0.16])
    for name, value in (("seed", 1.5), ("keyframes", 2.7),
                        ("cloud_points_per_keyframe", 10.5),
                        ("keyframes", math.inf), ("seed", -3),
                        ("seed", True), ("true_scale", True),
                        ("keyframes", np.bool_(True)), ("keyframes", "20")):
        with pytest.raises(ConfigError, match=name):
            SimConfig(**{name: value})
    # booleans are not numbers, in a section or a pair either
    with pytest.raises(ConfigError, match="camera: fov_deg"):
        from_mapping(SimConfig, {"true_scale": True, "camera": {"fov_deg": True}})
    with pytest.raises(ConfigError, match="terrain: patch_center"):
        from_mapping(SimConfig, {"terrain": {"patch_center": [True, 0.0]}})
    with pytest.raises(ConfigError, match="terrain: plane_z"):
        from_mapping(SimConfig, {"terrain": {"plane_z": math.nan}})
    with pytest.raises(ConfigError, match="camera: rate_hz"):
        from_mapping(SimConfig, {"camera": {"rate_hz": math.inf}})
    with pytest.raises(ConfigError, match="true_scale"):
        from_mapping(SimConfig, {"true_scale": [2.0]})
    with pytest.raises(ConfigError, match="patch_center"):
        from_mapping(SimConfig, {"terrain": {"patch_center": [0.25, 0.0, 0.0]}})
    # a whole float is a whole number
    assert SimConfig(keyframes=20.0).keyframes == 20


def test_config_file_errors_name_the_file_and_line(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("seed: 1\nkeyframes: [unclosed\n")
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "broken.yaml" in str(err.value)
    assert "line" in str(err.value)

    wrong = tmp_path / "wrong.yaml"
    wrong.write_text("keyframes: 1\n")
    with pytest.raises(ConfigError, match="keyframes"):
        load_config(wrong)


def test_default_terrain_bumps_fit_patch():
    terrain = default_terrain()
    lo = terrain.patch_center - terrain.patch_size / 2
    hi = terrain.patch_center + terrain.patch_size / 2
    for h in terrain.hemispheres:
        assert np.all(h.center - h.radius >= lo - 1e-12)
        assert np.all(h.center + h.radius <= hi + 1e-12)
