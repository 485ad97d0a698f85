"""Forward kinematics against hand-derived closed forms, the scalar compose
loop and the matrix oracle."""

import math

import numpy as np
import pytest

from conftest import fk_compose_loop, rand_pose, rotation_gap
from graspmap.errors import DimensionMismatch
from graspmap.geometry import Pose, Rotation, compose, inverse, se3_log
from graspmap.kinematics import (Joint, JointReading, LimbModel, default_limb,
                                 fk_delta, fk_pose, fk_poses, jacobian_numeric,
                                 load_limb, save_limb)


def planar_two_link(l1: float = 0.3, l2: float = 0.2) -> LimbModel:
    return LimbModel(
        joints=(Joint(axis=[0, 0, 1], offset=Pose.from_parts(translation=[l1, 0, 0])),
                Joint(axis=[0, 0, 1], offset=Pose.from_parts(translation=[l2, 0, 0]))),
        base_pose=Pose.identity(),
        gripper_offset=Pose.identity())


def one_joint_z(offset_x: float = 0.2) -> LimbModel:
    return LimbModel(
        joints=(Joint(axis=[0, 0, 1],
                      offset=Pose.from_parts(translation=[offset_x, 0, 0])),),
        base_pose=Pose.identity(),
        gripper_offset=Pose.identity())


def test_zero_angles_collapse_to_offsets():
    rng = np.random.default_rng(0)
    base, g = rand_pose(rng), rand_pose(rng)
    offs = [rand_pose(rng), rand_pose(rng), rand_pose(rng)]
    model = LimbModel(joints=tuple(Joint(axis=[0, 0, 1], offset=o) for o in offs),
                      base_pose=base, gripper_offset=g)
    expected = base.matrix() @ offs[0].matrix() @ offs[1].matrix() \
        @ offs[2].matrix() @ g.matrix()
    assert np.allclose(fk_pose(model, np.zeros(3)).matrix(), expected, atol=1e-12)


def test_one_joint_hand_multiplication():
    # Rz(pi/2) then translate +x 0.2 in the rotated frame: gripper at (0, 0.2, 0)
    pose = fk_pose(one_joint_z(), [math.pi / 2])
    assert np.allclose(pose.translation, [0.0, 0.2, 0.0], atol=1e-15)
    assert rotation_gap(pose.rotation,
                        Rotation.from_axis_angle([0, 0, 1], math.pi / 2)) < 1e-15


def test_planar_two_link_closed_form():
    th1, th2 = math.pi / 6, math.pi / 3
    pose = fk_pose(planar_two_link(), [th1, th2])
    expected = [0.3 * math.cos(th1) + 0.2 * math.cos(th1 + th2),
                0.3 * math.sin(th1) + 0.2 * math.sin(th1 + th2),
                0.0]
    assert np.allclose(pose.translation, expected, atol=1e-15)
    assert rotation_gap(pose.rotation,
                        Rotation.from_axis_angle([0, 0, 1], th1 + th2)) < 1e-14


def random_limb(seed: int = 11, dof: int = 5) -> LimbModel:
    """Joints about non-unit axes, links with rotated offsets, a random base and
    gripper offset."""
    rng = np.random.default_rng(seed)
    joints = tuple(Joint(axis=rng.normal(size=3) * rng.uniform(0.3, 3.0),
                         offset=rand_pose(rng, span=0.2)) for _ in range(dof))
    return LimbModel(joints=joints, base_pose=rand_pose(rng), gripper_offset=rand_pose(rng))


def rodrigues(axis, angle) -> np.ndarray:
    """4x4 homogeneous rotation by ``angle`` about ``axis``: I + sin K + (1 - cos) K^2."""
    x, y, z = np.asarray(axis) / np.linalg.norm(axis)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    m = np.eye(4)
    m[:3, :3] = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    return m


@pytest.mark.parametrize("model", [default_limb(), random_limb()], ids=["default", "random"])
def test_fk_poses_equals_the_compose_loop_bit_for_bit(model):
    rng = np.random.default_rng(12)
    angles = rng.uniform(-math.pi, math.pi, (10_000, model.dof))
    quats, trans = fk_poses(model, angles)
    want = [fk_compose_loop(model, a) for a in angles]
    assert np.array_equal(quats, np.array([p.rotation.quat for p in want]))
    assert np.array_equal(trans, np.array([p.translation for p in want]))
    for a, p in zip(angles[:100], want):  # the one-reading wrapper keeps its bits
        got = fk_pose(model, a)
        assert np.array_equal(got.rotation.quat, p.rotation.quat)
        assert np.array_equal(got.translation, p.translation)


@pytest.mark.parametrize("model", [default_limb(), random_limb()], ids=["default", "random"])
def test_fk_poses_matches_homogeneous_matrix_product(model):
    rng = np.random.default_rng(13)
    angles = rng.uniform(-math.pi, math.pi, (200, model.dof))
    quats, trans = fk_poses(model, angles)
    for a, q, t in zip(angles, quats, trans):
        m = model.base_pose.matrix()
        for joint, angle in zip(model.joints, a):
            m = m @ rodrigues(joint.axis, angle) @ joint.offset.matrix()
        m = m @ model.gripper_offset.matrix()
        assert np.abs(Pose(Rotation(q), t).matrix() - m).max() <= 1e-12


@pytest.mark.parametrize("shape", [(3, 3), (3, 5), (4,)],
                         ids=["dof-minus-1", "dof-plus-1", "one-dimensional"])
def test_fk_poses_wrong_shape(shape):
    with pytest.raises(DimensionMismatch):
        fk_poses(default_limb(), np.zeros(shape))


def test_fk_poses_zero_and_one_reading():
    model = default_limb()
    quats, trans = fk_poses(model, np.zeros((0, 4)))
    assert quats.shape == (0, 4) and trans.shape == (0, 3)
    angles = np.array([[0.3, 0.1, -0.2, 0.5]])
    quats, trans = fk_poses(model, angles)
    assert quats.shape == (1, 4) and trans.shape == (1, 3)
    want = fk_compose_loop(model, angles[0])
    assert np.array_equal(quats[0], want.rotation.quat)
    assert np.array_equal(trans[0], want.translation)


def test_fk_pose_wrong_angle_count():
    with pytest.raises(DimensionMismatch):
        fk_pose(planar_two_link(), [0.1])
    with pytest.raises(DimensionMismatch):
        jacobian_numeric(planar_two_link(), [0.1, 0.2, 0.3])


def test_fk_delta_trivials():
    model = default_limb()
    a = JointReading(0.0, [0.1, 0.2, 0.3, 0.4])
    same = JointReading(1.0, [0.1, 0.2, 0.3, 0.4])
    d = fk_delta(model, a, same)
    assert d.rotation.angle() < 1e-15
    assert np.linalg.norm(d.translation) < 1e-15
    zero = JointReading(0.0, np.zeros(4))
    d0 = fk_delta(model, zero, JointReading(2.0, np.zeros(4)))
    assert np.allclose(d0.matrix(), np.eye(4), atol=1e-15)


def test_fk_delta_matches_matrix_oracle():
    model = default_limb()
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = JointReading(0.0, rng.uniform(-1.5, 1.5, 4))
        b = JointReading(1.0, rng.uniform(-1.5, 1.5, 4))
        oracle = np.linalg.inv(fk_pose(model, a.angles).matrix()) \
            @ fk_pose(model, b.angles).matrix()
        assert np.allclose(fk_delta(model, a, b).matrix(), oracle, atol=1e-12)


def test_fk_delta_chaining():
    model = default_limb()
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b, c = (JointReading(float(k), rng.uniform(-1.0, 1.0, 4))
                   for k in range(3))
        left = compose(fk_delta(model, a, b), fk_delta(model, b, c))
        right = fk_delta(model, a, c)
        assert np.allclose(left.matrix(), right.matrix(), atol=1e-12)


def test_fk_pose_ignores_timestamps():
    model = default_limb()
    angles = [0.3, 0.1, -0.2, 0.5]
    p1 = fk_pose(model, angles)
    p2 = fk_pose(model, np.array(angles))
    assert np.array_equal(p1.matrix(), p2.matrix())
    # fk_delta likewise depends only on angles
    d1 = fk_delta(model, JointReading(0.0, angles), JointReading(1.0, angles))
    d2 = fk_delta(model, JointReading(5.5, angles), JointReading(-3.0, angles))
    assert np.array_equal(d1.matrix(), d2.matrix())


def test_jacobian_one_joint_screw_axis():
    # revolute z joint, gripper 0.2 m down +x: body screw (0, 0.2, 0, 0, 0, 1)
    j = jacobian_numeric(one_joint_z(), [0.0])
    assert j.shape == (6, 1)
    assert np.allclose(j[:, 0], [0.0, 0.2, 0.0, 0.0, 0.0, 1.0], atol=1e-9)


def test_jacobian_planar_matches_analytic():
    model = planar_two_link()
    rng = np.random.default_rng(3)
    for _ in range(10):
        th1, th2 = rng.uniform(-1.2, 1.2, 2)
        l1, l2 = 0.3, 0.2
        dtip = np.array([
            [-l1 * math.sin(th1) - l2 * math.sin(th1 + th2),
             -l2 * math.sin(th1 + th2)],
            [l1 * math.cos(th1) + l2 * math.cos(th1 + th2),
             l2 * math.cos(th1 + th2)],
            [0.0, 0.0]])
        r12 = Rotation.from_axis_angle([0, 0, 1], th1 + th2).matrix()
        j = jacobian_numeric(model, [th1, th2])
        assert np.allclose(j[:3], r12.T @ dtip, atol=1e-8)
        assert np.allclose(j[3:], [[0, 0], [0, 0], [1, 1]], atol=1e-8)


def test_jacobian_step_halving_converged():
    model = default_limb()
    angles = [0.3, 0.4, 0.5, -0.2]
    coarse = jacobian_numeric(model, angles, step=1e-5)
    fine = jacobian_numeric(model, angles, step=1e-6)
    assert np.abs(coarse - fine).max() < 1e-6


def jacobian_loop(model, angles, step: float) -> np.ndarray:
    """``jacobian_numeric`` as one scalar FK call and one se3_log per bump."""
    angles = np.asarray(angles, dtype=float)
    base_inv = inverse(fk_compose_loop(model, angles))
    jac = np.zeros((6, model.dof))
    for j in range(model.dof):
        bumped = angles.copy()
        bumped[j] = angles[j] + step
        plus = se3_log(compose(base_inv, fk_compose_loop(model, bumped)))
        bumped[j] = angles[j] - step
        minus = se3_log(compose(base_inv, fk_compose_loop(model, bumped)))
        jac[:, j] = (plus - minus) / (2.0 * step)
    return jac


@pytest.mark.parametrize("model, angles, step", [
    (one_joint_z(), [0.0], 1e-6),
    (planar_two_link(), [0.7, -1.1], 1e-6),
    (default_limb(), [0.3, 0.4, 0.5, -0.2], 1e-5),
    (default_limb(), [0.3, 0.4, 0.5, -0.2], 1e-6),
    (random_limb(), [0.9, -2.0, 0.1, 1.4, -0.6], 1e-6),
], ids=["one-joint", "planar", "default-coarse", "default-fine", "random"])
def test_jacobian_equals_the_scalar_loop_bit_for_bit(model, angles, step):
    """Stacking the bumped readings into one fk_poses call moves no bit."""
    assert np.array_equal(jacobian_numeric(model, angles, step),
                          jacobian_loop(model, angles, step))


def test_default_limb_shape():
    model = default_limb()
    assert model.dof == 4
    assert abs(model.reach() - 0.40) < 1e-12
    # gripper boresight (+z) at zero angles points along the last link
    pose = fk_pose(model, np.zeros(4))
    assert np.isfinite(pose.matrix()).all()


def test_limb_yaml_round_trip(tmp_path):
    model = default_limb()
    path = tmp_path / "limb.yaml"
    save_limb(path, model)
    back = load_limb(path)
    assert back.dof == model.dof
    rng = np.random.default_rng(4)
    for _ in range(5):
        q = rng.uniform(-1.0, 1.0, 4)
        assert np.allclose(fk_pose(back, q).matrix(),
                           fk_pose(model, q).matrix(), atol=1e-12)
