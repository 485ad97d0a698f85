"""Serial-chain forward kinematics for a limb with a gripper-mounted camera.

A limb is a list of revolute joints. Joint ``j`` contributes the transform
``rotation(angle[j] about axis[j]) followed by its fixed link offset``, i.e.

    fk(angles) = base_pose @ prod_j [Rot(axis_j, angle_j) @ offset_j] @ gripper_offset

Angles are radians, offsets are meters. The model types are immutable and all
functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .geometry import (Pose, Rotation, compose, compose_stacked, frozen,
                       inverse, inverse_stacked, se3_log_stacked,
                       so3_exp_stacked)
from .records import all_real, load_mapping, to_mapping, write_yaml


@dataclass(frozen=True)
class Joint:
    """Revolute joint: unit rotation axis plus the fixed offset to the next joint."""

    axis: np.ndarray
    offset: Pose

    def __post_init__(self):
        if not all_real(self.axis):  # a limb file's true or "1" is not a number
            raise ValueError(f"axis must hold numbers, got {self.axis!r}")
        object.__setattr__(self, "axis", frozen(self.axis, (3,), "axis", unit=True))


@dataclass(frozen=True)
class LimbModel:
    """Kinematic chain from a fixed base to the gripper frame.

    The gripper frame doubles as the camera frame: its +z axis is the optical
    axis of the hand-eye camera.
    """

    joints: tuple[Joint, ...]
    base_pose: Pose
    gripper_offset: Pose

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        if len(self.joints) == 0:
            raise ValueError("limb needs at least one joint")

    @property
    def dof(self) -> int:
        return len(self.joints)

    def reach(self) -> float:
        """Total link length: an upper bound on gripper distance from the base frame."""
        total = sum(float(np.linalg.norm(j.offset.translation)) for j in self.joints)
        return total + float(np.linalg.norm(self.gripper_offset.translation))


@dataclass(frozen=True)
class JointReading:
    """Encoder snapshot: timestamp in seconds plus one angle per joint."""

    timestamp: float
    angles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", frozen(self.angles, (-1,), "angles"))
        object.__setattr__(self, "timestamp", float(self.timestamp))


def fk_poses(model: LimbModel, angles) -> tuple[np.ndarray, np.ndarray]:
    """Gripper poses in the base/world frame for an (n, dof) array of joint
    angles, one reading per row, as (n, 4) unit quaternions and (n, 3)
    translations. The chain runs once over all rows: one exponential for every
    joint angle, then stacked products down the chain, each giving what the
    scalar ``compose`` gives row by row."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != model.dof:
        raise DimensionMismatch(
            f"model has {model.dof} joints but got angles of shape {angles.shape}")
    axes = np.array([joint.axis for joint in model.joints])
    # sqrt of the dot product is np.linalg.norm of one vector, so each angle
    # is scaled bit for bit as Rotation.from_axis_angle does
    norms = np.sqrt([axis.dot(axis) for axis in axes])
    joint_quats = so3_exp_stacked(axes * (angles / norms)[..., None])
    q, t = model.base_pose.rotation.quat, model.base_pose.translation
    for j, joint in enumerate(model.joints):
        q, t = compose_stacked(q, t, joint_quats[:, j], np.zeros(3))
        q, t = compose_stacked(q, t, joint.offset.rotation.quat, joint.offset.translation)
    g = model.gripper_offset
    return compose_stacked(q, t, g.rotation.quat, g.translation)


def fk_pose(model: LimbModel, angles) -> Pose:
    """Gripper pose in the base/world frame for one vector of joint angles."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (model.dof,):
        raise DimensionMismatch(
            f"model has {model.dof} joints but got {angles.shape} angles")
    q, t = fk_poses(model, angles[None])
    return Pose(Rotation(q[0]), t[0])


def fk_delta(model: LimbModel, prev: JointReading, curr: JointReading) -> Pose:
    """Relative gripper motion between two readings, expressed in the earlier frame."""
    return compose(inverse(fk_pose(model, prev.angles)), fk_pose(model, curr.angles))


def jacobian_numeric(model: LimbModel, angles, step: float = 1e-6) -> np.ndarray:
    """6 x dof geometric Jacobian by central differences.

    Column ``j`` is the local (body-frame) twist d log(fk(q)^-1 fk(q + e_j)) / dq_j,
    rows ordered translation-then-rotation as in ``se3_log``. FK runs once, on
    q and its 2 x dof bumped copies stacked.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (model.dof,):
        raise DimensionMismatch(
            f"model has {model.dof} joints but got {angles.shape} angles")
    # row 0 is q itself, rows 1..dof bump joint j up, the next dof down
    j = np.arange(model.dof)
    rows = np.tile(angles, (2 * model.dof + 1, 1))
    rows[1 + j, j] = angles + step
    rows[1 + model.dof + j, j] = angles - step
    q, t = fk_poses(model, rows)
    twists = se3_log_stacked(*compose_stacked(*inverse_stacked(q[0], t[0]), q[1:], t[1:]))
    return (twists[:model.dof] - twists[model.dof:]).T / (2.0 * step)


def default_limb() -> LimbModel:
    """Four-joint testbed limb: yaw shoulder plus three pitch joints.

    Link lengths (0.05, 0.15, 0.15, 0.05 m) and the 0.30 m base height are
    synthetic defaults sized so the gripper can sweep a tabletop terrain patch
    about 0.25 m in front of the base; they are not measurements of any
    physical arm. The gripper offset turns the frame so +z (the camera axis)
    points along the last link.
    """
    yaw = np.array([0.0, 0.0, 1.0])
    pitch = np.array([0.0, 1.0, 0.0])
    trans = lambda x, y, z: Pose(Rotation.identity(), np.array([x, y, z]))
    joints = (
        Joint(yaw, trans(0.0, 0.0, 0.05)),
        Joint(pitch, trans(0.15, 0.0, 0.0)),
        Joint(pitch, trans(0.15, 0.0, 0.0)),
        Joint(pitch, trans(0.05, 0.0, 0.0)),
    )
    gripper = Pose(Rotation.from_axis_angle(np.array([0.0, 1.0, 0.0]), np.pi / 2),
                   np.zeros(3))
    return LimbModel(joints=joints, base_pose=trans(0.0, 0.0, 0.30), gripper_offset=gripper)


# --- model file: LimbModel's fields are its schema (records.from_mapping) ----------


def save_limb(path, model: LimbModel) -> None:
    write_yaml(path, to_mapping(model))


def load_limb(path) -> LimbModel:
    """The limb model in ``path``; a missing, unknown or invalid key is a
    ``ConfigError`` naming the file and the key."""
    return load_mapping(LimbModel, path)
