"""A dataclass written by ``to_mapping`` and read back by ``from_mapping``,
in memory or through a YAML file, is the value it was, bit for bit."""

import dataclasses

import numpy as np
import pytest

from graspmap.geometry import Pose
from graspmap.kinematics import default_limb
from graspmap.records import from_mapping, load_mapping, to_mapping, write_yaml
from graspmap.simulation import CameraModel, Hemisphere, SimConfig, Terrain
from tests.test_kinematics import random_limb


def assert_same(a, b, where: str = "value") -> None:
    """``a`` and ``b`` are equal field by field: arrays by ``array_equal`` and
    dtype, poses by the bytes of their quaternion and translation."""
    assert type(a) is type(b), where
    if isinstance(a, Pose):
        assert a.rotation.quat.tobytes() == b.rotation.quat.tobytes(), where
        assert a.translation.tobytes() == b.translation.tobytes(), where
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, tuple):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{k}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), where
    else:
        assert a == b, where


VALUES = {
    "default-config": SimConfig(),
    "config-with-hemispheres": SimConfig(
        seed=99, true_scale=1.75, keyframes=11, joint_noise_stddev=0.001,
        vo_trans_noise_stddev=3e-4, vo_rot_noise_stddev=0.01, cloud_points_per_keyframe=123,
        camera=CameraModel(fov_deg=80.0, rate_hz=15.0),
        terrain=Terrain(plane_z=-0.02, patch_center=(0.3, 0.01), patch_size=(0.2, 0.1),
                        hemispheres=(Hemisphere((0.3, 0.02), 0.025),
                                     Hemisphere((0.26, -0.01), 1 / 3)))),
    "flat-config": SimConfig(seed=5, true_scale=0.1 + 0.2, keyframes=3,
                             camera=CameraModel(fov_deg=179.9),
                             terrain=Terrain(plane_z=0.07, patch_center=(-0.1, 0.2))),
    "default-limb": default_limb(),
    "random-limb-5": random_limb(11, 5),
    "random-limb-1": random_limb(12, 1),
    "random-limb-7": random_limb(13, 7),
}


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_mapping_round_trip_is_bit_for_bit(value, tmp_path):
    cls = type(value)
    assert_same(from_mapping(cls, to_mapping(value)), value)
    path = tmp_path / "value.yaml"
    write_yaml(path, to_mapping(value))
    assert_same(load_mapping(cls, path), value)
