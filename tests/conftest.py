"""Shared sampling helpers and Lie-group oracles.

Rotations are sampled directly in quaternion space (normalized Gaussian
4-vectors), so tests of the exp/log maps never use those maps to build their
own inputs. The oracles compute the exp map and its Jacobians from their
defining series or closed forms, sharing no code with ``geometry``'s maps.
"""

import math

import numpy as np

from graspmap.geometry import Pose, Rotation, hat


def rand_rotation(rng) -> Rotation:
    q = rng.normal(size=4)
    return Rotation(q / np.linalg.norm(q))


def rand_pose(rng, span: float = 1.0) -> Pose:
    return Pose(rand_rotation(rng), rng.uniform(-span, span, 3))


def rand_twist_vector(rng, max_angle: float) -> np.ndarray:
    """Twist vector [rho; phi] with ||phi|| uniform in (0, max_angle]."""
    rho = rng.uniform(-1.0, 1.0, 3)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return np.concatenate([rho, axis * rng.uniform(0.0, max_angle)])


def rotation_gap(a: Rotation, b: Rotation) -> float:
    """Angle of the relative rotation; 0 iff a == b as rotations."""
    return (a.inverse() @ b).angle()


# --- oracles -------------------------------------------------------------------


def mat_exp_series(m: np.ndarray, terms: int = 80) -> np.ndarray:
    """sum_n m^n / n!, truncated."""
    out = np.eye(m.shape[0])
    power = np.eye(m.shape[0])
    for k in range(1, terms):
        power = power @ m / k
        out = out + power
    return out


def jacobian_series(m: np.ndarray, terms: int = 80) -> np.ndarray:
    """sum_n m^n / (n+1)!, truncated: the left Jacobian of SO(3) at
    m = hat(phi), and of SE(3) at m = se3_ad(x)."""
    out = np.eye(m.shape[0])
    power = np.eye(m.shape[0])
    for k in range(1, terms):
        power = power @ m / (k + 1)
        out = out + power
    return out


def se3_hat(x: np.ndarray) -> np.ndarray:
    """4x4 matrix of the (rho, phi) twist ``x``."""
    m = np.zeros((4, 4))
    m[:3, :3] = hat(x[3:])
    m[:3, 3] = x[:3]
    return m


def se3_ad(x: np.ndarray) -> np.ndarray:
    """6x6 matrix of ad(x) for a (rho, phi) twist: [[hat(phi), hat(rho)], [0, hat(phi)]]."""
    m = np.zeros((6, 6))
    m[:3, :3] = m[3:, 3:] = hat(x[3:])
    m[:3, 3:] = hat(x[:3])
    return m


def quat_exp(phi: np.ndarray) -> np.ndarray:
    """Quaternion exponential in closed form: (cos(a/2), sin(a/2) phi/a), a = |phi|."""
    angle = np.linalg.norm(phi)
    if angle == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.concatenate([[math.cos(angle / 2.0)],
                           math.sin(angle / 2.0) * phi / angle])
