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
import yaml

from .errors import DimensionMismatch
from .geometry import (Pose, Rotation, compose, inverse, pose_from_seven,
                       pose_to_seven, se3_log)


@dataclass(frozen=True)
class Joint:
    """Revolute joint: unit rotation axis plus the fixed offset to the next joint."""

    axis: np.ndarray
    offset: Pose

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=float).copy()
        if a.shape != (3,):
            raise ValueError(f"joint axis must be a 3-vector, got shape {a.shape}")
        n = np.linalg.norm(a)
        if not np.isfinite(n) or n == 0.0:
            raise ValueError("joint axis must be finite and nonzero")
        a /= n
        a.flags.writeable = False
        object.__setattr__(self, "axis", a)


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
        a = np.asarray(self.angles, dtype=float).copy()
        if a.ndim != 1:
            raise ValueError("angles must be a flat vector")
        if not np.all(np.isfinite(a)):
            raise ValueError("angles must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "timestamp", float(self.timestamp))


def fk_pose(model: LimbModel, angles) -> Pose:
    """Gripper pose in the base/world frame for one vector of joint angles."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (model.dof,):
        raise DimensionMismatch(
            f"model has {model.dof} joints but got {angles.shape} angles")
    p = model.base_pose
    for joint, theta in zip(model.joints, angles):
        p = compose(p, Pose(Rotation.from_axis_angle(joint.axis, theta), np.zeros(3)))
        p = compose(p, joint.offset)
    return compose(p, model.gripper_offset)


def fk_delta(model: LimbModel, prev: JointReading, curr: JointReading) -> Pose:
    """Relative gripper motion between two readings, expressed in the earlier frame."""
    return compose(inverse(fk_pose(model, prev.angles)), fk_pose(model, curr.angles))


def jacobian_numeric(model: LimbModel, angles, step: float = 1e-6) -> np.ndarray:
    """6 x dof geometric Jacobian by central differences.

    Column ``j`` is the local (body-frame) twist d log(fk(q)^-1 fk(q + e_j)) / dq_j,
    rows ordered translation-then-rotation as in ``se3_log``.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (model.dof,):
        raise DimensionMismatch(
            f"model has {model.dof} joints but got {angles.shape} angles")
    base_inv = inverse(fk_pose(model, angles))
    jac = np.zeros((6, model.dof))
    for j in range(model.dof):
        bumped = angles.copy()
        bumped[j] = angles[j] + step
        plus = se3_log(compose(base_inv, fk_pose(model, bumped)))
        bumped[j] = angles[j] - step
        minus = se3_log(compose(base_inv, fk_pose(model, bumped)))
        jac[:, j] = (plus - minus) / (2.0 * step)
    return jac


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


# --- model file format --------------------------------------------------------
#
# YAML document:
#   base_pose: [tx, ty, tz, qw, qx, qy, qz]
#   gripper_offset: [tx, ty, tz, qw, qx, qy, qz]
#   joints:
#     - axis: [x, y, z]
#       offset: [tx, ty, tz, qw, qx, qy, qz]


def save_limb(path, model: LimbModel) -> None:
    doc = {
        "base_pose": [float(v) for v in pose_to_seven(model.base_pose)],
        "gripper_offset": [float(v) for v in pose_to_seven(model.gripper_offset)],
        "joints": [
            {"axis": [float(v) for v in j.axis],
             "offset": [float(v) for v in pose_to_seven(j.offset)]}
            for j in model.joints
        ],
    }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def load_limb(path) -> LimbModel:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        joints = tuple(Joint(np.asarray(j["axis"], dtype=float),
                             pose_from_seven(j["offset"]))
                       for j in doc["joints"])
        return LimbModel(joints=joints,
                         base_pose=pose_from_seven(doc["base_pose"]),
                         gripper_offset=pose_from_seven(doc["gripper_offset"]))
    except (KeyError, TypeError, yaml.YAMLError) as exc:
        raise ValueError(f"malformed limb model file {path}: {exc}") from exc
