"""Every array field of a value type, and of a factor graph's state, is a
finite, read-only copy of its shape.

One row per field: how to build the type around a value, a valid value and
one of the wrong shape, which raises ``DimensionMismatch``, a ``ValueError``.
"""

import numpy as np
import pytest

from graspmap.errors import DimensionMismatch
from graspmap.factors import FkFactor, McFactor, PriorFactor, StackedFactors
from graspmap.geometry import Pose, Rotation
from graspmap.kinematics import Joint, JointReading
from graspmap.mapping import (METERS, UNSCALED_UNITS, GraspablePoint,
                              GripperMask, PointCloud, VoxelGrid)
from graspmap.simulation import SimBundle, SimConfig
from graspmap.solver import FactorGraph


QUAT = [1.0, 0.0, 0.0, 0.0]


def sim_bundle(**field):
    """A two-keyframe ``SimBundle`` with one array field given."""
    arrays = dict(timestamps=[0.0, 0.1], angles=np.zeros((2, 4)), truth_quats=[QUAT, QUAT],
                  truth_trans=np.zeros((2, 3)), vo_quats=[QUAT], vo_trans=np.zeros((1, 3)))
    return SimBundle(SimConfig(), cloud=PointCloud(np.zeros((1, 3)), UNSCALED_UNITS),
                     **{**arrays, **field})


def stacked(**field):
    """A one-row ``StackedFactors`` with one array field given."""
    rows = dict(fk_quat=[QUAT], fk_trans=np.zeros((1, 3)), fk_info=np.ones((1, 6)),
                mc_quat=[QUAT], mc_trans=np.zeros((1, 3)), mc_info=np.ones((1, 6)),
                mc_aligned=[True])
    return StackedFactors(**{**rows, **field})


def one_pose_graph(**field):
    """A one-pose ``FactorGraph`` with one state array given."""
    arrays = dict(quats=[QUAT], trans=np.zeros((1, 3)))
    return FactorGraph.from_arrays(PriorFactor(Pose.identity()), log_s=0.0,
                                   stacked=StackedFactors.empty(), **{**arrays, **field})


def array_field(build, name):
    return lambda v: getattr(build(**{name: v}), name)


FIELDS = {
    "Rotation.quat": (lambda v: Rotation(v).quat,
                      [1.0, 0.0, 0.0, 0.0], np.ones(3)),
    "Pose.translation": (lambda v: Pose(Rotation.identity(), v).translation,
                         [0.1, 0.2, 0.3], np.ones(4)),
    "Joint.axis": (lambda v: Joint(v, Pose.identity()).axis,
                   [0.0, 0.0, 1.0], np.ones((1, 3))),
    "JointReading.angles": (lambda v: JointReading(0.0, v).angles,
                            [0.1, 0.2, 0.3, 0.4], np.ones((2, 2))),
    "FkFactor.info": (lambda v: FkFactor(1, Pose.identity(), v).info,
                      np.ones(6), np.ones(5)),
    "McFactor.delta_trans": (lambda v: McFactor(1, Rotation.identity(), v).delta_trans,
                             [0.1, 0.2, 0.3], np.ones(4)),
    "PointCloud.points": (lambda v: PointCloud(v, METERS).points,
                          np.ones((2, 3)), np.ones(6)),
    "VoxelGrid.origin": (lambda v: VoxelGrid(v, 0.002, np.ones((1, 1, 1))).origin,
                         [0.1, 0.2, 0.3], np.ones((3, 1))),
    "VoxelGrid.occupancy": (lambda v: VoxelGrid(np.zeros(3), 0.002, v).occupancy,
                            np.ones((2, 2, 2), bool), np.ones((2, 2), bool)),
    "GripperMask.offsets": (lambda v: GripperMask(v, 0.002).offsets,
                            np.ones((2, 3), int), np.ones((2, 2), int)),
    "GraspablePoint.position": (lambda v: GraspablePoint(v, 1).position,
                                [0.1, 0.2, 0.3], np.ones(2)),
    "SimBundle.timestamps": (array_field(sim_bundle, "timestamps"),
                             [0.0, 0.1], np.ones((2, 1))),
    "SimBundle.angles": (array_field(sim_bundle, "angles"),
                         np.full((2, 4), 0.1), np.ones(8)),
    "SimBundle.truth_quats": (array_field(sim_bundle, "truth_quats"),
                              [[0.0, 1.0, 0.0, 0.0], QUAT], np.ones((2, 3))),
    "SimBundle.truth_trans": (array_field(sim_bundle, "truth_trans"),
                              [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], np.ones((3, 3))),
    "SimBundle.vo_quats": (array_field(sim_bundle, "vo_quats"),
                           [[0.0, 0.0, 0.0, 1.0]], np.ones((2, 4))),
    "SimBundle.vo_trans": (array_field(sim_bundle, "vo_trans"),
                           [[0.1, 0.2, 0.3]], np.ones((1, 4))),
    "StackedFactors.fk_quat": (array_field(stacked, "fk_quat"),
                               [[0.0, 1.0, 0.0, 0.0]], np.ones((1, 3))),
    "StackedFactors.fk_trans": (array_field(stacked, "fk_trans"),
                                [[0.1, 0.2, 0.3]], np.ones((2, 3))),
    "StackedFactors.fk_info": (array_field(stacked, "fk_info"),
                               np.full((1, 6), 2.0), np.ones((1, 5))),
    "StackedFactors.mc_quat": (array_field(stacked, "mc_quat"),
                               [[0.0, 0.0, 1.0, 0.0]], np.ones((1, 5))),
    "StackedFactors.mc_trans": (array_field(stacked, "mc_trans"),
                                [[0.1, 0.2, 0.3]], np.ones(3)),
    "StackedFactors.mc_info": (array_field(stacked, "mc_info"),
                               np.full((1, 6), 3.0), np.ones((2, 6))),
    "StackedFactors.mc_aligned": (array_field(stacked, "mc_aligned"),
                                  [False], [True, False]),
    "FactorGraph.quats": (array_field(one_pose_graph, "quats"),
                          [[0.0, 0.0, 0.0, 1.0]], np.ones((1, 3))),
    "FactorGraph.trans": (array_field(one_pose_graph, "trans"),
                          [[0.1, 0.2, 0.3]], np.ones((1, 2))),
}
# fields that hold unit vectors: a zero one has no direction
UNIT_FIELDS = ["Rotation.quat", "Joint.axis", "SimBundle.truth_quats", "SimBundle.vo_quats",
               "StackedFactors.fk_quat", "StackedFactors.mc_quat", "FactorGraph.quats"]
FLOAT_FIELDS = [name for name, (_, good, _) in FIELDS.items()
                if np.asarray(good).dtype == float]


@pytest.mark.parametrize("name", FIELDS)
def test_wrong_shape_raises_the_field_error(name):
    build, _, wrong = FIELDS[name]
    with pytest.raises(DimensionMismatch, match="shape"):
        build(wrong)


def test_dimension_mismatch_is_a_value_error():
    assert issubclass(DimensionMismatch, ValueError)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_entry_raises_value_error(name, bad):
    build, good, _ = FIELDS[name]
    value = np.array(good, dtype=float)
    value.flat[-1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        build(value)


@pytest.mark.parametrize("name", FIELDS)
def test_stored_array_is_a_read_only_copy(name):
    build, good, _ = FIELDS[name]
    value = np.array(good)
    stored = build(value)
    assert np.array_equal(stored, value)
    assert not stored.flags.writeable
    assert not np.shares_memory(stored, value)
    with pytest.raises(ValueError):
        stored.flat[0] = 0


@pytest.mark.parametrize("name", [name for name in FIELDS if name not in UNIT_FIELDS])
def test_stored_array_is_kept_as_the_field(name):
    """A stored array (read-only, owning its data) builds a value without a copy."""
    build, good, _ = FIELDS[name]
    stored = build(np.array(good))
    assert build(stored) is stored


def test_only_a_read_only_owned_array_is_shared():
    points = np.ones((4, 3))
    cloud = PointCloud(points, METERS)
    points[0, 0] = 9.0  # a writeable source was copied
    assert cloud.points[0, 0] == 1.0
    points.flags.writeable = False
    assert PointCloud(points, METERS).points is points
    view = points[1:]  # read-only, but another array owns its data
    assert not np.shares_memory(PointCloud(view, METERS).points, points)
    single = points.astype(np.float32)
    single.flags.writeable = False
    assert PointCloud(single, METERS).points.dtype == float
    bad = np.full((1, 3), np.nan)
    bad.flags.writeable = False  # a shared array is checked all the same
    with pytest.raises(ValueError, match="must be finite"):
        PointCloud(bad, METERS)


@pytest.mark.parametrize("name", UNIT_FIELDS)
def test_zero_unit_vector_raises_value_error(name):
    build, good, _ = FIELDS[name]
    with pytest.raises(ValueError, match="must be finite and nonzero"):
        build(np.zeros_like(np.array(good, dtype=float)))


@pytest.mark.parametrize("name", ["fk_info", "mc_info"])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_information_that_is_not_positive_raises_value_error(name, bad):
    info = np.ones((1, 6))
    info[0, 2] = bad
    with pytest.raises(ValueError, match="information diagonal must be positive"):
        stacked(**{name: info})
