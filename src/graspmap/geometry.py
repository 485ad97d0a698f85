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

from .errors import CutLocusError, DimensionMismatch

# Quaternion exp/log switch to Taylor branches below this angle (rad).
SMALL_ANGLE = 1e-8
# so3/se3 Jacobian coefficients switch to series below this angle; the closed
# trig forms lose too many digits to cancellation well above SMALL_ANGLE.
_SERIES_ANGLE = 1e-2
# Logarithms are refused for rotation angles >= pi - CUT_LOCUS_MARGIN.
CUT_LOCUS_MARGIN = 1e-6
# A vector whose computed norm lies this close to 1 is unit length as far as
# rounding can tell; dividing by that norm again would only move its last
# digits, so a quaternion written at 17 digits would not read back as itself.
_UNIT_NORM_TOL = 2 * np.finfo(float).eps


def frozen(value, shape: tuple, what: str, dtype=float, unit: bool = False) -> np.ndarray:
    """``value`` as a read-only copy of type ``dtype`` and shape ``shape``, where
    ``-1`` matches any length. A wrong shape raises ``DimensionMismatch``. A
    float array must be finite, or ``ValueError`` is raised; with ``unit`` each
    vector along the last axis, one or many, is made unit by ``quat_unit`` and
    must also be nonzero. Messages name ``what``. An array that is already
    such a copy (read-only, of ``dtype``, C-contiguous and owning its data)
    is returned as it is, once its shape and values pass."""
    owned = (isinstance(value, np.ndarray) and not value.flags.writeable
             and value.base is None and value.dtype == dtype
             and value.flags.c_contiguous and not unit)
    a = value if owned else np.array(value, dtype=dtype)
    if a.shape != shape and (a.ndim != len(shape)
                             or any(n not in (-1, m) for n, m in zip(shape, a.shape))):
        raise DimensionMismatch(f"{what} must have shape "
                                f"{str(shape).replace('-1', 'N')}, got {a.shape}")
    if unit:
        n = _norms(a)
        if not _norms_ok(n).all():
            raise ValueError(f"{what} must be finite and nonzero")
        a = _divided(a, n)
    elif dtype is float and not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    a.flags.writeable = False
    return a


def _vec3(v, n: int = 3) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"expected a {n}-vector, got shape {a.shape}")
    return a


def hat(v) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector: ``hat(v) @ w == cross(v, w)``."""
    return hat_stacked(_vec3(v))


# The quaternion formulas written once on components, which may be Python
# floats (the scalar types) or arrays of any one shape (the stacked maps):
# the same operations in the same order give the same bits either way.


def _hamilton(w1, x1, y1, z1, w2, x2, y2, z2) -> list:
    """Components of the Hamilton product, not renormalized."""
    return [w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2]


def _rotated(w, x, y, z, vx, vy, vz) -> list:
    """Components of q v q*, expanded as v + 2w (u x v) + 2 u x (u x v) with
    u = (x, y, z); the cross products are written out (np.cross costs more)."""
    ax, ay, az = y * vz - z * vy, z * vx - x * vz, x * vy - y * vx
    bx, by, bz = y * az - z * ay, z * ax - x * az, x * ay - y * ax
    return [vx + 2.0 * (w * ax + bx), vy + 2.0 * (w * ay + by), vz + 2.0 * (w * az + bz)]


@dataclass(frozen=True)
class Rotation:
    """Rotation in SO(3) stored as a unit quaternion (w, x, y, z).

    The constructor normalizes, so any nonzero quaternion is accepted and the
    stored value always has unit norm.
    """

    quat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "quat", frozen(self.quat, (4,), "quaternion", unit=True))

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

    def matrix(self) -> np.ndarray:
        return quat_matrix(self.quat)

    def apply(self, v) -> np.ndarray:
        """Rotate a 3-vector."""
        # on Python floats: numpy scalars cost several times more per operation
        return np.array(_rotated(*self.quat.tolist(), *_vec3(v).tolist()))

    def inverse(self) -> "Rotation":
        w, x, y, z = self.quat
        return Rotation(np.array([w, -x, -y, -z]))

    def angle(self) -> float:
        """Rotation angle in [0, pi]."""
        q = self.quat if self.quat[0] >= 0.0 else -self.quat
        return 2.0 * math.atan2(np.linalg.norm(q[1:]), q[0])

    def __matmul__(self, other: "Rotation") -> "Rotation":
        # the constructor renormalizes
        return Rotation(np.array(_hamilton(*self.quat.tolist(), *other.quat.tolist())))


@dataclass(frozen=True)
class Pose:
    """Rigid transform in SE(3): rotation plus translation, acting as R p + t."""

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "translation", frozen(self.translation, (3,), "translation"))

    @staticmethod
    def identity() -> "Pose":
        return Pose(Rotation.identity(), np.zeros(3))

    @staticmethod
    def from_parts(rotation: Rotation | None = None, translation=None) -> "Pose":
        return Pose(rotation if rotation is not None else Rotation.identity(),
                    np.zeros(3) if translation is None else translation)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation.matrix()
        m[:3, 3] = self.translation
        return m

    def apply(self, v) -> np.ndarray:
        return self.rotation.apply(v) + self.translation


def compose(a: Pose, b: Pose) -> Pose:
    """Group product: ``compose(a, b)`` maps p to ``a(b(p))``."""
    return Pose(a.rotation @ b.rotation,
                a.rotation.apply(b.translation) + a.translation)


def inverse(p: Pose) -> Pose:
    rinv = p.rotation.inverse()
    return Pose(rinv, -rinv.apply(p.translation))


def so3_exp(phi) -> Rotation:
    """Exponential map of so(3): rotation by angle ``norm(phi)`` about ``phi``."""
    return Rotation(so3_exp_stacked(_vec3(phi)))


def so3_log(r: Rotation) -> np.ndarray:
    """Logarithm of SO(3); returns the canonical axis-angle vector, ``norm <= pi``.

    Raises ``CutLocusError`` within ``CUT_LOCUS_MARGIN`` of angle pi, where the
    axis is not continuously determined.
    """
    return so3_log_stacked(r.quat)


def so3_left_jacobian(phi) -> np.ndarray:
    """Left Jacobian of SO(3); also the V matrix of the SE(3) exponential."""
    return so3_left_jacobian_stacked(_vec3(phi))


def so3_left_jacobian_inv(phi) -> np.ndarray:
    return so3_left_jacobian_inv_stacked(_vec3(phi))


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
    return se3_log_stacked(p.rotation.quat, p.translation)


def se3_adjoint(p: Pose) -> np.ndarray:
    """6x6 adjoint of a pose for (rho, phi)-ordered twists."""
    return se3_adjoint_stacked(p.rotation.quat, p.translation)


def se3_left_jacobian_inv(x) -> np.ndarray:
    """Inverse left Jacobian of SE(3) at a twist ``[rho; phi]``."""
    return se3_left_jacobian_inv_stacked(_vec3(x, 6))


def se3_right_jacobian_inv(x) -> np.ndarray:
    # Jr^-1(x) = Jl^-1(-x)
    return se3_left_jacobian_inv(-_vec3(x, 6))


# --- stacked maps --------------------------------------------------------------
#
# The one implementation of the maps above, which check their input's shape and
# call these. Quaternions are (..., 4) arrays, vectors (..., 3), twists (..., 6)
# in (rho, phi) order, matrices (..., 3, 3) or (..., 6, 6); leading axes are
# kept, so a bare (4,), (3,) or (6,) input works as is. A pose is a pair
# (quaternions, translations). ``compose`` and ``inverse`` stay scalar code for
# speed on one pose, but share their formulas (``_hamilton``, ``_rotated``)
# and ``Rotation``'s normalization rule (``quat_unit``) with their stacked
# twins, which therefore give their bits.
#
# V(phi), coupling rotation and translation in the SE(3) exponential, is the
# SO(3) left Jacobian; with K = hat(phi) and th = norm(phi):
#   V = I + a*K + b*K^2,        a = (1-cos th)/th^2,  b = (th-sin th)/th^3
#   V^-1 = I - K/2 + c*K^2,     c = 1/th^2 - (1+cos th)/(2 th sin th)
# The closed forms cancel catastrophically for small th, so each coefficient
# switches to a series below _SERIES_ANGLE.


def hat_stacked(v: np.ndarray) -> np.ndarray:
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Inverse of unit quaternions."""
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def _norms(a: np.ndarray) -> np.ndarray:
    """Norms of the vectors along the last axis, (..., 1), each the one
    ``Rotation`` takes: a batched matmul gives ndarray.dot's bits (einsum and
    np.linalg.norm do not)."""
    return np.sqrt(a[..., None, :] @ a[..., :, None])[..., 0]


def _norms_ok(n: np.ndarray) -> np.ndarray:
    """Which norms are finite and nonzero, which also means finite entries."""
    return (n > 0.0) & (n < math.inf)


def _divided(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``quat_unit``'s rule: a / n only where a norm n is over ``_UNIT_NORM_TOL`` from 1."""
    return np.where(np.abs(n - 1.0) > _UNIT_NORM_TOL, a / n, a)


def unit_norms_ok(a: np.ndarray) -> np.ndarray:
    """Which vectors along the last axis can be scaled to unit norm."""
    return _norms_ok(_norms(a)[..., 0])


def quat_unit(q: np.ndarray) -> np.ndarray:
    """Quaternions normalized as ``Rotation`` stores them, by ``_divided``,
    which leaves its own output as it is. A zero quaternion gives NaN without
    raising; ``frozen(unit=True)`` checks."""
    return _divided(q, _norms(q))


# _components and _joined split the last axis off and put it back; on small
# arrays they cost a fraction of np.moveaxis and np.stack


def _components(a: np.ndarray) -> list:
    return [a[..., k] for k in range(a.shape[-1])]


def _joined(components: list) -> np.ndarray:
    """Components of one shape, stacked along a new last axis."""
    out = np.empty(np.shape(components[0]) + (len(components),))
    for k, c in enumerate(components):
        out[..., k] = c
    return out


def quat_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, normalized by ``quat_unit``: ``Rotation``'s product,
    bit for bit."""
    return quat_unit(_joined(_hamilton(*_components(a), *_components(b))))


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vectors by unit quaternions, as ``Rotation.apply``."""
    return _joined(_rotated(*_components(q), *_components(v)))


def compose_stacked(qa: np.ndarray, ta: np.ndarray, qb: np.ndarray,
                    tb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``compose`` of poses given as (quaternions, translations), bit for bit;
    the leading axes broadcast."""
    return quat_product(qa, qb), quat_rotate(qa, tb) + ta


def inverse_stacked(q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``inverse`` of poses given as (quaternions, translations), bit for bit."""
    q_inv = quat_unit(quat_conjugate(q))
    return q_inv, -quat_rotate(q_inv, t)


def quat_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices of unit quaternions; ``Rotation.matrix`` of one."""
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
    """Quaternions (w, x, y, z) of ``so3_exp``, made unit by ``quat_unit``
    as ``Rotation`` makes them."""
    theta = np.linalg.norm(phi, axis=-1)
    s = _by_angle(theta, SMALL_ANGLE, lambda t2: 0.5 - t2 / 48.0,
                  lambda t: np.sin(0.5 * t) / t)
    return quat_unit(np.concatenate([np.cos(0.5 * theta)[..., None], s[..., None] * phi],
                                    axis=-1))


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


def se3_log_stacked(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``se3_log`` of poses given as (unit quaternions, translations)."""
    phi = so3_log_stacked(q)
    return np.concatenate([(so3_left_jacobian_inv_stacked(phi) @ t[..., None])[..., 0], phi],
                          axis=-1)


def _coeff_b_stacked(theta):
    return _by_angle(theta, _SERIES_ANGLE,
                     lambda t2: 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                     lambda t: (t - np.sin(t)) / t ** 3)


def so3_left_jacobian_stacked(phi: np.ndarray) -> np.ndarray:
    """``so3_left_jacobian`` of (..., 3) vectors: V of ``se3_exp_stacked``."""
    theta = np.linalg.norm(phi, axis=-1)
    k = hat_stacked(phi)
    a = _by_angle(theta, _SERIES_ANGLE,
                  lambda t2: 0.5 - t2 / 24.0 + t2 * t2 / 720.0,
                  lambda t: 2.0 * np.sin(0.5 * t) ** 2 / (t * t))
    return (np.eye(3) + a[..., None, None] * k
            + _coeff_b_stacked(theta)[..., None, None] * (k @ k))


def _so3_left_jacobian_inv_terms(phi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Jl^-1(phi), and the th = norm(phi) and K = hat(phi) it is written in."""
    theta = np.linalg.norm(phi, axis=-1)
    k = hat_stacked(phi)
    c = _by_angle(theta, _SERIES_ANGLE,
                  lambda t2: 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
                  lambda t: 1.0 / (t * t) - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t)))
    return np.eye(3) - 0.5 * k + c[..., None, None] * (k @ k), theta, k


def so3_left_jacobian_inv_stacked(phi: np.ndarray) -> np.ndarray:
    return _so3_left_jacobian_inv_terms(phi)[0]


def so3_left_jacobian_inv_twins(phi: np.ndarray) -> tuple[np.ndarray, ...]:
    """``so3_left_jacobian_inv_stacked`` at ``phi`` and at ``-phi``, bit for
    bit, from one evaluation: Jl^-1(-phi) = I + K/2 + c K^2 is Jl^-1(phi)^T,
    since K^T = -K and K^2 is symmetric as computed; then th and K."""
    jli, theta, k = _so3_left_jacobian_inv_terms(phi)
    return jli, np.ascontiguousarray(np.swapaxes(jli, -1, -2)), theta, k


def _q_matrix_stacked(rho: np.ndarray, theta: np.ndarray, k: np.ndarray) -> tuple:
    """Translation-rotation coupling block Q of the SE(3) left Jacobian, and
    the terms it is summed from, for ``se3_left_jacobian_inv_twins``."""
    p = hat_stacked(rho)
    kp = k @ p
    pk = p @ k
    kpk = kp @ k
    c1 = _coeff_b_stacked(theta)[..., None, None]
    c2 = _by_angle(theta, _SERIES_ANGLE,
                   lambda t2: 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0,
                   lambda t: (t * t + 2.0 * np.cos(t) - 2.0) / (2.0 * t ** 4))
    c3 = _by_angle(theta, _SERIES_ANGLE,
                   lambda t2: 1.0 / 120.0 - t2 / 2520.0,
                   lambda t: (2.0 * t + t * np.cos(t) - 3.0 * np.sin(t)) / (2.0 * t ** 5))
    terms = (0.5 * p, c1, kp + pk, kpk,
             c2[..., None, None] * (k @ kp + pk @ k - 3.0 * kpk),
             c3[..., None, None] * (kpk @ k + k @ kpk))
    half_p, _, even, _, odd2, even3 = terms
    return half_p + c1 * (even + kpk) + odd2 + even3, terms


def _se3_left_jacobian_inv_blocks(jli: np.ndarray, q: np.ndarray) -> np.ndarray:
    """[[J, -J Q J], [0, J]] from the so3 block J = Jl^-1(phi) and Q."""
    out = np.zeros(jli.shape[:-2] + (6, 6))
    out[..., :3, :3] = jli
    out[..., :3, 3:] = -jli @ q @ jli
    out[..., 3:, 3:] = jli
    return out


def se3_left_jacobian_inv_stacked(x: np.ndarray) -> np.ndarray:
    """``se3_left_jacobian_inv`` of (..., 6) twists; the right one is at ``-x``."""
    jli, theta, k = _so3_left_jacobian_inv_terms(x[..., 3:])
    return _se3_left_jacobian_inv_blocks(jli, _q_matrix_stacked(x[..., :3], theta, k)[0])


def se3_left_jacobian_inv_twins(x: np.ndarray, jli: np.ndarray, jli_neg: np.ndarray,
                                theta: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``se3_left_jacobian_inv_stacked`` at ``x`` and at ``-x`` (the right
    Jacobian's inverse at ``x``), bit for bit, given
    ``so3_left_jacobian_inv_twins`` of its rotation part. Q's products and
    coefficients are taken once: with K = hat(phi) and P = hat(rho) both
    negated, the terms P/2, c1 KPK and the c2 term change sign and c1 (KP + PK)
    and the c3 term do not, so Q(-x) is the same terms summed with the signs
    and in the order that evaluating Q at -x gives."""
    q, (half_p, c1, even, kpk, odd2, even3) = _q_matrix_stacked(x[..., :3], theta, k)
    q_neg = c1 * (even - kpk) - half_p - odd2 + even3
    return (_se3_left_jacobian_inv_blocks(jli, q),
            _se3_left_jacobian_inv_blocks(jli_neg, q_neg))


def se3_adjoint_stacked(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``se3_adjoint`` of poses given as (unit quaternions, translations)."""
    r = quat_matrix(q)
    out = np.zeros(q.shape[:-1] + (6, 6))
    out[..., :3, :3] = r
    out[..., :3, 3:] = hat_stacked(t) @ r
    out[..., 3:, 3:] = r
    return out


def se3_exp_stacked(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``se3_exp`` of (..., 6) twists as (unit quaternions, translations),
    bit for bit."""
    rho, phi = x[..., :3], x[..., 3:]
    return so3_exp_stacked(phi), (so3_left_jacobian_stacked(phi) @ rho[..., None])[..., 0]


# --- 7-number pose serialization ---------------------------------------------


def pose_to_seven(p: Pose) -> np.ndarray:
    """Flatten a pose to (tx, ty, tz, qw, qx, qy, qz)."""
    return np.concatenate([p.translation, p.rotation.quat])


def pose_from_seven(row) -> Pose:
    row = np.asarray(row, dtype=float)
    if row.shape != (7,):
        raise ValueError(f"pose row must have 7 numbers, got shape {row.shape}")
    return Pose(Rotation(row[3:]), row[:3])
