"""Synthetic data generation: trajectory, tracker deltas, terrain cloud, I/O."""

import dataclasses
import math

import numpy as np
import pytest

from graspmap.errors import ConfigError, NoVisibleTerrain, UnreachableTerrain
from graspmap.geometry import Pose, compose, inverse
from graspmap.kinematics import default_limb, fk_pose
from graspmap.mapping import UNSCALED_UNITS
from graspmap.simulation import (CameraModel, Hemisphere, SimConfig, Terrain,
                                 config_from_dict, config_to_dict,
                                 default_terrain, generate_cloud,
                                 generate_trajectory, generate_vo, load_config,
                                 read_bundle, save_config, simulate,
                                 write_bundle)
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


# --- terrain cloud -------------------------------------------------------------------


def test_noiseless_cloud_lies_on_surface():
    config = SimConfig(seed=9, true_scale=2.0, cloud_points_per_keyframe=300,
                       **QUIET)
    _, truth_poses = generate_trajectory(default_limb(), config)
    cloud, apexes = generate_cloud(truth_poses, config)
    assert cloud.units == UNSCALED_UNITS
    assert np.array_equal(apexes, config.terrain.apexes())
    metric = cloud.points * config.true_scale
    gap = np.abs(metric[:, 2] - surface_height(config.terrain, metric[:, :2]))
    assert gap.max() < 1e-9


def test_cloud_samples_apex_neighborhood():
    config = SimConfig(seed=10, true_scale=2.0,
                       cloud_points_per_keyframe=1000, **QUIET)
    _, truth_poses = generate_trajectory(default_limb(), config)
    cloud, apexes = generate_cloud(truth_poses, config)
    metric = cloud.points * config.true_scale
    for apex in apexes:
        assert np.linalg.norm(metric - apex, axis=1).min() < 0.005


def test_cloud_noise_level_on_open_plane():
    config = SimConfig(seed=11, true_scale=2.0,
                       cloud_points_per_keyframe=2500)
    _, truth_poses = generate_trajectory(default_limb(), config)
    cloud, _ = generate_cloud(truth_poses, config)
    metric = cloud.points * config.true_scale
    open_plane = np.ones(len(metric), dtype=bool)
    for h in config.terrain.hemispheres:
        d = np.linalg.norm(metric[:, :2] - h.center, axis=1)
        open_plane &= d > h.radius + 0.005
    z = metric[open_plane, 2] - config.terrain.plane_z
    assert len(z) > 10_000
    expected = config.vo_trans_noise_stddev * config.true_scale
    assert abs(np.sqrt(np.mean(z ** 2)) - expected) < 0.2 * expected


def test_no_visible_terrain():
    config = SimConfig(camera=CameraModel(fov_deg=1e-3), keyframes=2,
                       cloud_points_per_keyframe=1)
    _, truth_poses = generate_trajectory(default_limb(), config)
    with pytest.raises(NoVisibleTerrain):
        generate_cloud(truth_poses, config)


# --- whole-bundle behaviour -----------------------------------------------------------


def test_same_seed_is_bit_identical():
    config = SimConfig(seed=12, cloud_points_per_keyframe=150)
    a = simulate(config)
    b = simulate(config)
    for ra, rb in zip(a.readings, b.readings):
        assert np.array_equal(ra.angles, rb.angles)
    for (qa, ta), (qb, tb) in zip(a.vo_deltas, b.vo_deltas):
        assert np.array_equal(qa.quat, qb.quat)
        assert np.array_equal(ta, tb)
    assert np.array_equal(a.cloud.points, b.cloud.points)


def test_different_seeds_differ():
    a = simulate(SimConfig(seed=0, cloud_points_per_keyframe=150))
    b = simulate(SimConfig(seed=1, cloud_points_per_keyframe=150))
    assert not np.array_equal(a.readings[1].angles, b.readings[1].angles)
    assert not np.array_equal(a.cloud.points, b.cloud.points)


def test_bundle_round_trip(tmp_path):
    bundle = simulate(SimConfig(seed=13, cloud_points_per_keyframe=150))
    write_bundle(tmp_path, bundle)
    back = read_bundle(tmp_path)
    assert config_to_dict(back.config) == config_to_dict(bundle.config)
    for pa, pb in zip(bundle.truth_poses, back.truth_poses):
        assert np.array_equal(pa.translation, pb.translation)
        # constructor re-normalization may move quat components by one ulp
        assert rotation_gap(pa.rotation, pb.rotation) < 1e-15
    for ra, rb in zip(bundle.readings, back.readings):
        assert ra.timestamp == rb.timestamp
        assert np.array_equal(ra.angles, rb.angles)
    for (qa, ta), (qb, tb) in zip(bundle.vo_deltas, back.vo_deltas):
        assert rotation_gap(qa, qb) < 1e-15
        assert np.array_equal(ta, tb)
    assert np.array_equal(bundle.cloud.points, back.cloud.points)
    assert back.cloud.units == UNSCALED_UNITS
    assert np.array_equal(bundle.truth_graspable, back.truth_graspable)


# --- configuration -------------------------------------------------------------------


def test_config_round_trip(tmp_path):
    config = SimConfig(seed=99, true_scale=1.75, keyframes=11)
    path = tmp_path / "run.yaml"
    save_config(path, config)
    assert config_to_dict(load_config(path)) == config_to_dict(config)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="warp_factor"):
        config_from_dict({"warp_factor": 9})


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
                        ("keyframes", math.inf)):
        with pytest.raises(ConfigError, match=name):
            SimConfig(**{name: value})
    with pytest.raises(ConfigError, match="terrain: plane_z"):
        config_from_dict({"terrain": {"plane_z": math.nan}})
    with pytest.raises(ConfigError, match="camera: rate_hz"):
        config_from_dict({"camera": {"rate_hz": math.inf}})
    with pytest.raises(ConfigError, match="true_scale"):
        config_from_dict({"true_scale": [2.0]})
    with pytest.raises(ConfigError, match="patch_center"):
        config_from_dict({"terrain": {"patch_center": [0.25, 0.0, 0.0]}})
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
