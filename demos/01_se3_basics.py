"""Rigid-motion toolbox tour: rotations, poses, and the exp/log maps."""

import numpy as np

from graspmap.geometry import (Pose, Rotation, compose, inverse,
                               se3_adjoint, se3_exp, se3_log, so3_exp,
                               so3_log)

np.set_printoptions(precision=4, suppress=True)

# A rotation is a unit quaternion under the hood; build one from axis-angle.
r = Rotation.from_axis_angle([0.0, 0.0, 1.0], np.pi / 3)
print("60 degrees about z as a quaternion (w, x, y, z):", r.quat)
print("as a matrix:\n", r.matrix())

# exp and log are inverse bijections away from the 180-degree cut locus
phi = np.array([0.2, -0.1, 0.4])
print("\nround trip so3_log(so3_exp(phi)) - phi:",
      so3_log(so3_exp(phi)) - phi)

# A pose is rotation plus translation; composition chains frames.
grip_in_base = Pose(r, np.array([0.3, 0.0, 0.1]))
cam_in_grip = Pose(Rotation.from_axis_angle([1.0, 0.0, 0.0], np.pi / 2),
                   np.array([0.0, 0.02, 0.0]))
cam_in_base = compose(grip_in_base, cam_in_grip)
print("\ncamera position in the base frame:", cam_in_base.translation)
print("inverse undoes it:",
      compose(inverse(grip_in_base), cam_in_base).translation,
      "(should be the camera-in-gripper offset)")

# A twist is a plain 6-vector of tangent coordinates [rho; phi]: translation
# part (m), then rotation (rad). se3_exp takes one and se3_log returns one.
twist = np.array([0.05, 0.0, 0.0, 0.0, 0.0, 0.5])
motion = se3_exp(twist)
print("\nexp of a screw about z:")
print("  moved to", motion.translation, "while turning",
      np.degrees(motion.rotation.angle()), "degrees")
print("  log recovers the twist:", se3_log(motion))

# The adjoint moves twists between frames: T exp(x) T^-1 = exp(Adj(T) x)
x = np.array([0.01, 0.02, 0.0, 0.03, 0.0, 0.01])
lhs = compose(compose(grip_in_base, se3_exp(x)), inverse(grip_in_base))
rhs = se3_exp(se3_adjoint(grip_in_base) @ x)
print("\nadjoint identity gap:",
      np.abs(lhs.matrix() - rhs.matrix()).max())
