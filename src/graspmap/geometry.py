"""Rigid-body geometry: quaternion rotations, SE(3) poses, exp/log maps.

Conventions
-----------
* Quaternions are stored (w, x, y, z) with unit norm.
* A ``Pose`` acts on points as ``R @ p + t``.
* A twist is a plain (6,) array ``[rho; phi]``, translation first, with
  ``rho`` in meters and ``phi`` in radians; the stacked maps take (..., 6)
  arrays in the same order.
* Canonical twists satisfy ``norm(phi) <= pi``; the logarithm refuses inputs
  within ``CUT_LOCUS_MARGIN`` of the pi cut locus, where the map is not
  uniquely invertible.

All types are immutable values and all operations are pure functions, so the
module is safe to use from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutLocusError

# Quaternion exp/log switch to Taylor branches below this angle (rad).
SMALL_ANGLE = 1e-8
# so3/se3 Jacobian coefficients switch to series below this angle; the closed
# trig forms lose too many digits to cancellation well above SMALL_ANGLE.
_SERIES_ANGLE = 1e-2
# Logarithms are refused for rotation angles >= pi - CUT_LOCUS_MARGIN.
CUT_LOCUS_MARGIN = 1e-6


def _vec3(v, n: int = 3) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"expected a {n}-vector, got shape {a.shape}")
    return a


def hat(v) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector: ``hat(v) @ w == cross(v, w)``."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(frozen=True)
class Rotation:
    """Rotation in SO(3) stored as a unit quaternion (w, x, y, z).

    The constructor normalizes, so any nonzero quaternion is accepted and the
    stored value always has unit norm.
    """

    quat: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quat, dtype=float).copy()
        if q.shape != (4,):
            raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
        n = np.linalg.norm(q)
        if not np.isfinite(n) or n == 0.0:
            raise ValueError("quaternion must be finite and nonzero")
        q /= n
        q.flags.writeable = False
        object.__setattr__(self, "quat", q)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.array([1.0, 0.0, 0.0, 0.0]))

    @staticmethod
    def from_axis_angle(axis, angle: float) -> "Rotation":
        axis = _vec3(axis)
        n = np.linalg.norm(axis)
        if n == 0.0:
            raise ValueError("rotation axis must be nonzero")
        return so3_exp(axis * (float(angle) / n))

    @staticmethod
    def from_matrix(m) -> "Rotation":
        """Quaternion from an orthonormal matrix (Shepperd's branch method)."""
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got {m.shape}")
        tr = m[0, 0] + m[1, 1] + m[2, 2]
        if tr > 0.0:
            s = math.sqrt(tr + 1.0) * 2.0
            q = np.array([0.25 * s,
                          (m[2, 1] - m[1, 2]) / s,
                          (m[0, 2] - m[2, 0]) / s,
                          (m[1, 0] - m[0, 1]) / s])
        elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            q = np.array([(m[2, 1] - m[1, 2]) / s,
                          0.25 * s,
                          (m[0, 1] + m[1, 0]) / s,
                          (m[0, 2] + m[2, 0]) / s])
        elif m[1, 1] > m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            q = np.array([(m[0, 2] - m[2, 0]) / s,
                          (m[0, 1] + m[1, 0]) / s,
                          0.25 * s,
                          (m[1, 2] + m[2, 1]) / s])
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            q = np.array([(m[1, 0] - m[0, 1]) / s,
                          (m[0, 2] + m[2, 0]) / s,
                          (m[1, 2] + m[2, 1]) / s,
                          0.25 * s])
        return Rotation(q)

    def matrix(self) -> np.ndarray:
        w, x, y, z = self.quat
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])

    def apply(self, v) -> np.ndarray:
        """Rotate a 3-vector."""
        vx, vy, vz = _vec3(v).tolist()
        w, x, y, z = self.quat.tolist()
        # q v q* expanded: v + 2w (u x v) + 2 u x (u x v) with u = (x, y, z),
        # both cross products written out on floats (np.cross costs ~20x more)
        ax, ay, az = y * vz - z * vy, z * vx - x * vz, x * vy - y * vx
        bx, by, bz = y * az - z * ay, z * ax - x * az, x * ay - y * ax
        return np.array([vx + 2.0 * (w * ax + bx),
                         vy + 2.0 * (w * ay + by),
                         vz + 2.0 * (w * az + bz)])

    def inverse(self) -> "Rotation":
        w, x, y, z = self.quat
        return Rotation(np.array([w, -x, -y, -z]))

    def angle(self) -> float:
        """Rotation angle in [0, pi]."""
        q = self.quat if self.quat[0] >= 0.0 else -self.quat
        return 2.0 * math.atan2(np.linalg.norm(q[1:]), q[0])

    def __matmul__(self, other: "Rotation") -> "Rotation":
        w1, x1, y1, z1 = self.quat
        w2, x2, y2, z2 = other.quat
        # Hamilton product; constructor renormalizes.
        return Rotation(np.array([
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]))


@dataclass(frozen=True)
class Pose:
    """Rigid transform in SE(3): rotation plus translation, acting as R p + t."""

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).copy()
        if t.shape != (3,):
            raise ValueError(f"translation must have shape (3,), got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        t.flags.writeable = False
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(Rotation.identity(), np.zeros(3))

    @staticmethod
    def from_parts(rotation: Rotation | None = None, translation=None) -> "Pose":
        return Pose(rotation if rotation is not None else Rotation.identity(),
                    np.zeros(3) if translation is None else translation)

    @staticmethod
    def from_matrix(m) -> "Pose":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"homogeneous matrix must be 4x4, got {m.shape}")
        return Pose(Rotation.from_matrix(m[:3, :3]), m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation.matrix()
        m[:3, 3] = self.translation
        return m

    def apply(self, v) -> np.ndarray:
        return self.rotation.apply(v) + self.translation

    def inverse(self) -> "Pose":
        return inverse(self)

    def __matmul__(self, other: "Pose") -> "Pose":
        return compose(self, other)


def compose(a: Pose, b: Pose) -> Pose:
    """Group product: ``compose(a, b)`` maps p to ``a(b(p))``."""
    return Pose(a.rotation @ b.rotation,
                a.rotation.apply(b.translation) + a.translation)


def inverse(p: Pose) -> Pose:
    rinv = p.rotation.inverse()
    return Pose(rinv, -rinv.apply(p.translation))


def so3_exp(phi) -> Rotation:
    """Exponential map of so(3): rotation by angle ``norm(phi)`` about ``phi``."""
    phi = _vec3(phi)
    theta = np.linalg.norm(phi)
    half = 0.5 * theta
    if theta < SMALL_ANGLE:
        # sin(theta/2)/theta expanded at zero
        s = 0.5 - theta * theta / 48.0
    else:
        s = math.sin(half) / theta
    return Rotation(np.concatenate([[math.cos(half)], s * phi]))


def so3_log(r: Rotation) -> np.ndarray:
    """Logarithm of SO(3); returns the canonical axis-angle vector, ``norm <= pi``.

    Raises ``CutLocusError`` within ``CUT_LOCUS_MARGIN`` of angle pi, where the
    axis is not continuously determined.
    """
    q = r.quat if r.quat[0] >= 0.0 else -r.quat
    w = q[0]
    n = np.linalg.norm(q[1:])
    theta = 2.0 * math.atan2(n, w)
    if theta >= math.pi - CUT_LOCUS_MARGIN:
        raise CutLocusError(f"rotation angle {theta:.9f} within {CUT_LOCUS_MARGIN} of pi")
    if n < SMALL_ANGLE:
        scale = (2.0 / w) * (1.0 - n * n / (3.0 * w * w))
    else:
        scale = theta / n
    return scale * q[1:]


# --- Jacobian coefficient helpers -------------------------------------------
#
# V(phi) below is the integral matrix coupling rotation and translation in the
# SE(3) exponential (equal to the SO(3) left Jacobian):
#   V = I + a*K + b*K^2,        a = (1-cos th)/th^2,  b = (th-sin th)/th^3
#   V^-1 = I - K/2 + c*K^2,     c = 1/th^2 - (1+cos th)/(2 th sin th)
# The closed forms cancel catastrophically for small th, so each coefficient
# switches to a series well above machine-dominated territory.


def _coeff_a(theta: float) -> float:
    if theta < _SERIES_ANGLE:
        t2 = theta * theta
        return 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    s = math.sin(0.5 * theta)
    return 2.0 * s * s / (theta * theta)


def _coeff_b(theta: float) -> float:
    if theta < _SERIES_ANGLE:
        t2 = theta * theta
        return 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    return (theta - math.sin(theta)) / theta ** 3


def _coeff_c(theta: float) -> float:
    if theta < _SERIES_ANGLE:
        t2 = theta * theta
        return 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0
    return 1.0 / (theta * theta) - (1.0 + math.cos(theta)) / (2.0 * theta * math.sin(theta))


def so3_left_jacobian(phi) -> np.ndarray:
    """Left Jacobian of SO(3); also the V matrix of the SE(3) exponential."""
    phi = _vec3(phi)
    theta = float(np.linalg.norm(phi))
    k = hat(phi)
    return np.eye(3) + _coeff_a(theta) * k + _coeff_b(theta) * (k @ k)


def so3_left_jacobian_inv(phi) -> np.ndarray:
    phi = _vec3(phi)
    theta = float(np.linalg.norm(phi))
    k = hat(phi)
    return np.eye(3) - 0.5 * k + _coeff_c(theta) * (k @ k)


def so3_right_jacobian_inv(phi) -> np.ndarray:
    # Jr^-1(phi) = Jl^-1(-phi)
    return so3_left_jacobian_inv(-_vec3(phi))


def se3_exp(x) -> Pose:
    """Exponential map of se(3) at a twist ``[rho; phi]``."""
    x = _vec3(x, 6)
    return Pose(so3_exp(x[3:]), so3_left_jacobian(x[3:]) @ x[:3])


def se3_log(p: Pose) -> np.ndarray:
    """Logarithm of SE(3); canonical twist ``[rho; phi]`` with ``norm(phi) <= pi``.

    Near the identity the underlying coefficients use series expansions, so
    there is no division by ``norm(phi)`` to blow up. Raises ``CutLocusError``
    within ``CUT_LOCUS_MARGIN`` of the pi cut locus.
    """
    phi = so3_log(p.rotation)
    return np.concatenate([so3_left_jacobian_inv(phi) @ p.translation, phi])


def se3_adjoint(p: Pose) -> np.ndarray:
    """6x6 adjoint of a pose for (rho, phi)-ordered twists."""
    r = p.rotation.matrix()
    out = np.zeros((6, 6))
    out[:3, :3] = r
    out[:3, 3:] = hat(p.translation) @ r
    out[3:, 3:] = r
    return out


def _q_matrix(rho: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Translation-rotation coupling block of the SE(3) left Jacobian."""
    theta = float(np.linalg.norm(phi))
    k = hat(phi)
    p = hat(rho)
    kp = k @ p
    pk = p @ k
    kpk = kp @ k
    if theta < _SERIES_ANGLE:
        t2 = theta * theta
        c1 = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
        c2 = 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0
        c3 = 1.0 / 120.0 - t2 / 2520.0
    else:
        st, ct = math.sin(theta), math.cos(theta)
        c1 = (theta - st) / theta ** 3
        c2 = (theta * theta + 2.0 * ct - 2.0) / (2.0 * theta ** 4)
        c3 = (2.0 * theta + theta * ct - 3.0 * st) / (2.0 * theta ** 5)
    return (0.5 * p
            + c1 * (kp + pk + kpk)
            + c2 * (k @ kp + pk @ k - 3.0 * kpk)
            + c3 * (kpk @ k + k @ kpk))


def se3_left_jacobian_inv(x) -> np.ndarray:
    """Inverse left Jacobian of SE(3) at a twist ``[rho; phi]``."""
    x = _vec3(x, 6)
    jli = so3_left_jacobian_inv(x[3:])
    q = _q_matrix(x[:3], x[3:])
    out = np.zeros((6, 6))
    out[:3, :3] = jli
    out[:3, 3:] = -jli @ q @ jli
    out[3:, 3:] = jli
    return out


def se3_right_jacobian_inv(x) -> np.ndarray:
    # Jr^-1(x) = Jl^-1(-x)
    return se3_left_jacobian_inv(-_vec3(x, 6))


# --- stacked maps --------------------------------------------------------------
#
# Array versions of the maps above, for evaluating many factors at once.
# Quaternions are (..., 4) arrays, vectors (..., 3), twists (..., 6) in
# (rho, phi) order, matrices (..., 3, 3) or (..., 6, 6); leading axes are kept.
# Each follows its scalar counterpart formula for formula, including the
# series branches, which the scalar functions remain the reference for.


def hat_stacked(v: np.ndarray) -> np.ndarray:
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    return np.stack([np.stack([zero, -z, y], axis=-1),
                     np.stack([z, zero, -x], axis=-1),
                     np.stack([-y, x, zero], axis=-1)], axis=-2)


def _normalized(q: np.ndarray) -> np.ndarray:
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Inverse of unit quaternions."""
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, renormalized as ``Rotation`` does."""
    w1, x1, y1, z1 = np.moveaxis(a, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(b, -1, 0)
    return _normalized(np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1))


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vectors by unit quaternions, as ``Rotation.apply``."""
    w, u = q[..., :1], q[..., 1:]
    uv = np.cross(u, v)
    return v + 2.0 * (w * uv + np.cross(u, uv))


def quat_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices of unit quaternions, as ``Rotation.matrix``."""
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
    ], axis=-2)


def _by_angle(theta: np.ndarray, limit: float, series, closed) -> np.ndarray:
    """``series(theta**2)`` where ``theta < limit``, else ``closed(theta)``;
    the closed form sees 1.0 in place of small angles, so it never divides by 0."""
    below = theta < limit
    return np.where(below, series(theta * theta), closed(np.where(below, 1.0, theta)))


def so3_exp_stacked(phi: np.ndarray) -> np.ndarray:
    """Unit quaternions of ``so3_exp``."""
    theta = np.linalg.norm(phi, axis=-1)
    s = _by_angle(theta, SMALL_ANGLE, lambda t2: 0.5 - t2 / 48.0,
                  lambda t: np.sin(0.5 * t) / t)
    return _normalized(np.concatenate([np.cos(0.5 * theta)[..., None],
                                       s[..., None] * phi], axis=-1))


def so3_log_stacked(q: np.ndarray) -> np.ndarray:
    """``so3_log`` of unit quaternions; raises ``CutLocusError`` if any is
    within ``CUT_LOCUS_MARGIN`` of angle pi."""
    q = np.where(q[..., :1] < 0.0, -q, q)
    w = q[..., 0]
    n = np.linalg.norm(q[..., 1:], axis=-1)
    theta = 2.0 * np.arctan2(n, w)
    near_pi = theta >= math.pi - CUT_LOCUS_MARGIN
    if np.any(near_pi):
        raise CutLocusError(f"rotation angle {theta[near_pi].flat[0]:.9f} "
                            f"within {CUT_LOCUS_MARGIN} of pi")
    small = n < SMALL_ANGLE
    scale = np.where(small, (2.0 / w) * (1.0 - n * n / (3.0 * w * w)),
                     theta / np.where(small, 1.0, n))
    return scale[..., None] * q[..., 1:]


def _coeff_a_stacked(theta):
    return _by_angle(theta, _SERIES_ANGLE,
                     lambda t2: 0.5 - t2 / 24.0 + t2 * t2 / 720.0,
                     lambda t: 2.0 * np.sin(0.5 * t) ** 2 / (t * t))


def _coeff_b_stacked(theta):
    return _by_angle(theta, _SERIES_ANGLE,
                     lambda t2: 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                     lambda t: (t - np.sin(t)) / t ** 3)


def _coeff_c_stacked(theta):
    return _by_angle(theta, _SERIES_ANGLE,
                     lambda t2: 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
                     lambda t: 1.0 / (t * t) - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t)))


def so3_left_jacobian_inv_stacked(phi: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(phi, axis=-1)
    k = hat_stacked(phi)
    return np.eye(3) - 0.5 * k + _coeff_c_stacked(theta)[..., None, None] * (k @ k)


def _q_matrix_stacked(rho: np.ndarray, phi: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(phi, axis=-1)
    k = hat_stacked(phi)
    p = hat_stacked(rho)
    kp = k @ p
    pk = p @ k
    kpk = kp @ k
    c1 = _coeff_b_stacked(theta)
    c2 = _by_angle(theta, _SERIES_ANGLE,
                   lambda t2: 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0,
                   lambda t: (t * t + 2.0 * np.cos(t) - 2.0) / (2.0 * t ** 4))
    c3 = _by_angle(theta, _SERIES_ANGLE,
                   lambda t2: 1.0 / 120.0 - t2 / 2520.0,
                   lambda t: (2.0 * t + t * np.cos(t) - 3.0 * np.sin(t)) / (2.0 * t ** 5))
    return (0.5 * p
            + c1[..., None, None] * (kp + pk + kpk)
            + c2[..., None, None] * (k @ kp + pk @ k - 3.0 * kpk)
            + c3[..., None, None] * (kpk @ k + k @ kpk))


def se3_left_jacobian_inv_stacked(x: np.ndarray) -> np.ndarray:
    """``se3_left_jacobian_inv`` of (..., 6) twists; the right one is at ``-x``."""
    rho, phi = x[..., :3], x[..., 3:]
    jli = so3_left_jacobian_inv_stacked(phi)
    out = np.zeros(x.shape[:-1] + (6, 6))
    out[..., :3, :3] = jli
    out[..., :3, 3:] = -jli @ _q_matrix_stacked(rho, phi) @ jli
    out[..., 3:, 3:] = jli
    return out


def se3_exp_stacked(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``se3_exp`` of (..., 6) twists as (unit quaternions, translations)."""
    rho, phi = x[..., :3], x[..., 3:]
    theta = np.linalg.norm(phi, axis=-1)
    k = hat_stacked(phi)
    v = (np.eye(3) + _coeff_a_stacked(theta)[..., None, None] * k
         + _coeff_b_stacked(theta)[..., None, None] * (k @ k))
    return so3_exp_stacked(phi), (v @ rho[..., None])[..., 0]


# --- 7-number pose serialization ---------------------------------------------


def pose_to_seven(p: Pose) -> np.ndarray:
    """Flatten a pose to (tx, ty, tz, qw, qx, qy, qz)."""
    return np.concatenate([p.translation, p.rotation.quat])


def pose_from_seven(row) -> Pose:
    row = np.asarray(row, dtype=float)
    if row.shape != (7,):
        raise ValueError(f"pose row must have 7 numbers, got shape {row.shape}")
    return Pose(Rotation(row[3:]), row[:3])
