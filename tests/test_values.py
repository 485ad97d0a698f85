"""Every array field of a value type is a finite, read-only copy of its shape.

One row per field: how to build the type around a value, a valid value, one
of the wrong shape, and the error class a wrong shape raises.
"""

import numpy as np
import pytest

from graspmap.errors import DimensionMismatch
from graspmap.factors import FkFactor, McFactor
from graspmap.geometry import Pose, Rotation
from graspmap.kinematics import Joint, JointReading
from graspmap.mapping import (METERS, UNSCALED_UNITS, GraspablePoint,
                              GripperMask, PointCloud, VoxelGrid)
from graspmap.simulation import SimBundle, SimConfig


def sim_bundle(vo_translation):
    return SimBundle(SimConfig(), (), (), ((Rotation.identity(), vo_translation),),
                     PointCloud(np.zeros((1, 3)), UNSCALED_UNITS))


FIELDS = {
    "Rotation.quat": (lambda v: Rotation(v).quat,
                      [1.0, 0.0, 0.0, 0.0], np.ones(3), ValueError),
    "Pose.translation": (lambda v: Pose(Rotation.identity(), v).translation,
                         [0.1, 0.2, 0.3], np.ones(4), ValueError),
    "Joint.axis": (lambda v: Joint(v, Pose.identity()).axis,
                   [0.0, 0.0, 1.0], np.ones((1, 3)), ValueError),
    "JointReading.angles": (lambda v: JointReading(0.0, v).angles,
                            [0.1, 0.2, 0.3, 0.4], np.ones((2, 2)), ValueError),
    "FkFactor.info": (lambda v: FkFactor(1, Pose.identity(), v).info,
                      np.ones(6), np.ones(5), DimensionMismatch),
    "McFactor.delta_trans": (lambda v: McFactor(1, Rotation.identity(), v).delta_trans,
                             [0.1, 0.2, 0.3], np.ones(4), DimensionMismatch),
    "PointCloud.points": (lambda v: PointCloud(v, METERS).points,
                          np.ones((2, 3)), np.ones(6), ValueError),
    "VoxelGrid.origin": (lambda v: VoxelGrid(v, 0.002, np.ones((1, 1, 1))).origin,
                         [0.1, 0.2, 0.3], np.ones((3, 1)), ValueError),
    "VoxelGrid.occupancy": (lambda v: VoxelGrid(np.zeros(3), 0.002, v).occupancy,
                            np.ones((2, 2, 2), bool), np.ones((2, 2), bool), ValueError),
    "GripperMask.offsets": (lambda v: GripperMask(v, 0.002).offsets,
                            np.ones((2, 3), int), np.ones((2, 2), int), ValueError),
    "GraspablePoint.position": (lambda v: GraspablePoint(v, 1).position,
                                [0.1, 0.2, 0.3], np.ones(2), ValueError),
    "SimBundle.vo_deltas": (lambda v: sim_bundle(v).vo_deltas[0][1],
                            [0.1, 0.2, 0.3], np.ones(4), ValueError),
}
FLOAT_FIELDS = [name for name, (_, good, _, _) in FIELDS.items()
                if np.asarray(good).dtype == float]


@pytest.mark.parametrize("name", FIELDS)
def test_wrong_shape_raises_the_field_error(name):
    build, _, wrong, error = FIELDS[name]
    with pytest.raises(error, match="shape"):
        build(wrong)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_entry_raises_value_error(name, bad):
    build, good, _, _ = FIELDS[name]
    value = np.array(good, dtype=float)
    value.flat[-1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        build(value)


@pytest.mark.parametrize("name", FIELDS)
def test_stored_array_is_a_read_only_copy(name):
    build, good, _, _ = FIELDS[name]
    value = np.array(good)
    stored = build(value)
    assert np.array_equal(stored, value)
    assert not stored.flags.writeable
    assert not np.shares_memory(stored, value)
    with pytest.raises(ValueError):
        stored.flat[0] = 0
