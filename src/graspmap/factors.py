"""Factor types tying gripper poses and the global map scale together.

Three factors make up the estimation problem:

* ``FkFactor``   - relative gripper motion predicted by joint encoders and
                   forward kinematics, metric.
* ``McFactor``   - relative motion reported by the monocular tracker. Its
                   translation is only known up to the global map scale, which
                   enters the residual multiplicatively.
* ``PriorFactor``- anchors the first pose (gauge freedom) and softly anchors
                   the scale.

The scale variable is optimized as ``log s`` so any iterate maps to a positive
scale. Jacobians are analytic, taken with respect to right perturbations
``T <- T @ exp(delta)`` of each pose and additive perturbation of ``log s``.

The per-factor functions are the reference. ``StackedFactors`` evaluates the
same kinematic and tracker residuals and Jacobians for a whole chain at once,
as arrays; the solver linearizes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .geometry import (Pose, Rotation, compose, frozen, hat, hat_stacked,
                       inverse, inverse_stacked, quat_conjugate, quat_matrix,
                       quat_product, quat_rotate, quat_unit, se3_adjoint,
                       se3_adjoint_stacked, se3_left_jacobian_inv,
                       se3_left_jacobian_inv_stacked, se3_log,
                       se3_log_stacked, se3_right_jacobian_inv, so3_left_jacobian_inv,
                       so3_left_jacobian_inv_stacked, so3_log, so3_log_stacked,
                       so3_right_jacobian_inv)

# Default information diagonals for the measurement factors. Every entry of
# the 6x6 information matrix diagonal gets the same weight; translation and
# rotation components share it.
FK_INFO_VALUE = 1e-4
MC_INFO_VALUE = 1e-3

# Default anchor strengths. The pose anchor is stiff: it fixes the gauge.
# The scale anchor is deliberately near-zero: it only renders the problem
# nonsingular when the trajectory makes scale unobservable, and must not bias
# the estimate when the data does constrain scale.
POSE_PRIOR_INFO_VALUE = 1e6
SCALE_PRIOR_INFO_VALUE = 1e-14


def default_fk_info() -> np.ndarray:
    return np.full(6, FK_INFO_VALUE)


def default_mc_info() -> np.ndarray:
    return np.full(6, MC_INFO_VALUE)


def _check_info_diag(info, length: int) -> np.ndarray:
    a = frozen(info, (length,), "information diagonal", error=DimensionMismatch)
    if np.any(a <= 0.0):
        raise ValueError("information diagonal must be positive")
    return a


@dataclass(frozen=True)
class ScaleVar:
    """Global metric scale of the monocular map, stored as log(s)."""

    log_value: float

    def __post_init__(self):
        v = float(self.log_value)
        if not math.isfinite(v):
            raise ValueError("log scale must be finite")
        object.__setattr__(self, "log_value", v)

    @staticmethod
    def from_value(value: float) -> "ScaleVar":
        value = float(value)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"scale must be positive and finite, got {value}")
        return ScaleVar(math.log(value))

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


@dataclass(frozen=True)
class FkFactor:
    """Joint-encoder relative-motion constraint between poses i-1 and i."""

    i: int
    delta: Pose
    info: np.ndarray | None = None

    def __post_init__(self):
        if int(self.i) < 1:
            raise ValueError("FkFactor index must be >= 1")
        object.__setattr__(self, "i", int(self.i))
        info = default_fk_info() if self.info is None else self.info
        object.__setattr__(self, "info", _check_info_diag(info, 6))


@dataclass(frozen=True)
class McFactor:
    """Monocular-tracker relative-motion constraint between poses i-1 and i.

    ``delta_trans`` is in unscaled map units. With ``frame_aligned`` (the
    default) the translation residual compares the world-frame pose increment
    against the measured step rotated into the world through the earlier pose:

        r_trans = (t_i - t_{i-1}) - s * R_{i-1} @ delta_trans

    Setting ``frame_aligned=False`` keeps the measured step in the world frame
    unrotated, ``r_trans = (t_i - t_{i-1}) - s * delta_trans``, which is only
    consistent when the camera never yaws; it is kept behind a flag for
    comparison runs.
    """

    i: int
    delta_rot: Rotation
    delta_trans: np.ndarray
    info: np.ndarray | None = None
    frame_aligned: bool = True

    def __post_init__(self):
        if int(self.i) < 1:
            raise ValueError("McFactor index must be >= 1")
        object.__setattr__(self, "i", int(self.i))
        object.__setattr__(self, "delta_trans", frozen(self.delta_trans, (3,), "delta_trans",
                                                       error=DimensionMismatch))
        info = default_mc_info() if self.info is None else self.info
        object.__setattr__(self, "info", _check_info_diag(info, 6))
        object.__setattr__(self, "frame_aligned", bool(self.frame_aligned))


@dataclass(frozen=True)
class PriorFactor:
    """Anchor on the first pose and the scale; exactly one per graph."""

    pose: Pose
    pose_info: np.ndarray | None = None
    scale: float = 1.0
    scale_info: float = SCALE_PRIOR_INFO_VALUE

    def __post_init__(self):
        info = np.full(6, POSE_PRIOR_INFO_VALUE) if self.pose_info is None else self.pose_info
        object.__setattr__(self, "pose_info", _check_info_diag(info, 6))
        s = float(self.scale)
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError("prior scale must be positive")
        object.__setattr__(self, "scale", s)
        si = float(self.scale_info)
        if not (math.isfinite(si) and si > 0.0):
            raise ValueError("scale_info must be positive")
        object.__setattr__(self, "scale_info", si)


Factor = FkFactor | McFactor | PriorFactor


# --- residuals ----------------------------------------------------------------


def fk_residual(t_prev: Pose, t_curr: Pose, factor: FkFactor) -> np.ndarray:
    """Local-frame twist discrepancy between estimated and measured motion."""
    err = compose(compose(inverse(t_prev), t_curr), inverse(factor.delta))
    return se3_log(err)


def mc_residual(t_prev: Pose, t_curr: Pose, scale: ScaleVar,
                factor: McFactor) -> np.ndarray:
    """Stacked [translation; rotation] residual of the scaled tracker motion."""
    s = scale.value
    step = t_curr.translation - t_prev.translation
    if factor.frame_aligned:
        r_trans = step - s * t_prev.rotation.apply(factor.delta_trans)
    else:
        r_trans = step - s * factor.delta_trans
    r_rot = so3_log((t_prev.rotation.inverse() @ t_curr.rotation)
                    @ factor.delta_rot.inverse())
    return np.concatenate([r_trans, r_rot])


def prior_residual(t0: Pose, scale: ScaleVar, factor: PriorFactor) -> np.ndarray:
    """7-vector: pose anchor twist followed by the log-scale anchor gap."""
    pose_part = se3_log(compose(inverse(factor.pose), t0))
    return np.concatenate([pose_part, [scale.log_value - math.log(factor.scale)]])


def factor_cost(residual, info) -> float:
    """Squared Mahalanobis norm r^T Info r for an information diagonal."""
    r = np.asarray(residual, dtype=float)
    if r.ndim != 1:
        raise DimensionMismatch("residual must be a flat vector")
    m = np.asarray(info, dtype=float)
    if m.shape != (r.size,):
        raise DimensionMismatch(
            f"information of shape {m.shape} does not match residual of size {r.size}")
    return float(r @ (m * r))


# --- analytic Jacobians ---------------------------------------------------------


def fk_jacobians(t_prev: Pose, t_curr: Pose,
                 factor: FkFactor) -> tuple[np.ndarray, np.ndarray]:
    """(d r / d pose_{i-1}, d r / d pose_i) for right perturbations."""
    r = fk_residual(t_prev, t_curr, factor)
    j_prev = -se3_left_jacobian_inv(r)
    j_curr = se3_right_jacobian_inv(r) @ se3_adjoint(factor.delta)
    return j_prev, j_curr


def mc_jacobians(t_prev: Pose, t_curr: Pose, scale: ScaleVar,
                 factor: McFactor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d r / d pose_{i-1}, d r / d pose_i, d r / d log s)."""
    s = scale.value
    r_prev = t_prev.rotation.matrix()
    r_curr = t_curr.rotation.matrix()
    r_rot = so3_log((t_prev.rotation.inverse() @ t_curr.rotation)
                    @ factor.delta_rot.inverse())

    j_prev = np.zeros((6, 6))
    j_curr = np.zeros((6, 6))
    j_scale = np.zeros(6)

    j_prev[:3, :3] = -r_prev
    j_curr[:3, :3] = r_curr
    if factor.frame_aligned:
        rotated = r_prev @ factor.delta_trans
        j_prev[:3, 3:] = s * r_prev @ hat(factor.delta_trans)
        j_scale[:3] = -s * rotated
    else:
        j_scale[:3] = -s * factor.delta_trans

    j_prev[3:, 3:] = -so3_left_jacobian_inv(r_rot)
    j_curr[3:, 3:] = so3_right_jacobian_inv(r_rot) @ factor.delta_rot.matrix()
    return j_prev, j_curr, j_scale


def prior_jacobians(t0: Pose, scale: ScaleVar,
                    factor: PriorFactor) -> tuple[np.ndarray, np.ndarray]:
    """(d r / d pose_0, d r / d log s) for the 7-row anchor residual."""
    pose_part = se3_log(compose(inverse(factor.pose), t0))
    j_pose = np.zeros((7, 6))
    j_pose[:6, :] = se3_right_jacobian_inv(pose_part)
    j_scale = np.zeros(7)
    j_scale[6] = 1.0
    return j_pose, j_scale


# --- uniform dispatch used by the solver ---------------------------------------


def factor_info_diag(factor: Factor) -> np.ndarray:
    """Information diagonal matching the factor's residual length."""
    if isinstance(factor, PriorFactor):
        return np.concatenate([factor.pose_info, [factor.scale_info]])
    return factor.info


def factor_residual(factor: Factor, poses, scale: ScaleVar) -> np.ndarray:
    if isinstance(factor, FkFactor):
        return fk_residual(poses[factor.i - 1], poses[factor.i], factor)
    if isinstance(factor, McFactor):
        return mc_residual(poses[factor.i - 1], poses[factor.i], scale, factor)
    if isinstance(factor, PriorFactor):
        return prior_residual(poses[0], scale, factor)
    raise TypeError(f"unknown factor type {type(factor).__name__}")


def factor_jacobians(factor: Factor, poses, scale: ScaleVar) -> dict:
    """Blocks keyed by variable: ('pose', i) -> (m, 6), ('scale',) -> (m,)."""
    if isinstance(factor, FkFactor):
        j_prev, j_curr = fk_jacobians(poses[factor.i - 1], poses[factor.i], factor)
        return {("pose", factor.i - 1): j_prev, ("pose", factor.i): j_curr}
    if isinstance(factor, McFactor):
        j_prev, j_curr, j_scale = mc_jacobians(
            poses[factor.i - 1], poses[factor.i], scale, factor)
        return {("pose", factor.i - 1): j_prev, ("pose", factor.i): j_curr,
                ("scale",): j_scale}
    if isinstance(factor, PriorFactor):
        j_pose, j_scale = prior_jacobians(poses[0], scale, factor)
        return {("pose", 0): j_pose, ("scale",): j_scale}
    raise TypeError(f"unknown factor type {type(factor).__name__}")


# --- stacked evaluation used by the solver ---------------------------------------


def _rows(values, shape: tuple, dtype=float) -> np.ndarray:
    return np.array(values, dtype=dtype).reshape((-1, *shape))


@dataclass(frozen=True)
class StackedFactors:
    """The kinematic and tracker factors of a chain packed into arrays.

    Row k of each ``fk_*`` and ``mc_*`` array is the factor that ties pose k
    to pose k+1. The measurement-only terms (inverse deltas, adjoints, rotation
    matrices) are computed once here. The evaluation methods take the state as
    arrays, (n, 4) unit quaternions, (n, 3) translations and log s, with
    n = m + 1, and return for every row what the scalar residual and Jacobian
    functions return.
    """

    fk_inv_quat: np.ndarray   # (m, 4) rotation of inverse(delta)
    fk_inv_trans: np.ndarray  # (m, 3) translation of inverse(delta)
    fk_adjoint: np.ndarray    # (m, 6, 6) se3_adjoint(delta)
    fk_info: np.ndarray       # (m, 6)
    mc_inv_quat: np.ndarray   # (m, 4) delta_rot.inverse()
    mc_rot: np.ndarray        # (m, 3, 3) delta_rot.matrix()
    mc_trans: np.ndarray      # (m, 3) delta_trans
    mc_aligned: np.ndarray    # (m,) frame_aligned
    mc_info: np.ndarray       # (m, 6)

    @staticmethod
    def pack(fks, mcs) -> "StackedFactors":
        """Arrays of the chain's kinematic and tracker factors, each list in
        keyframe order."""
        fk_quat = _rows([f.delta.rotation.quat for f in fks], (4,))
        fk_trans = _rows([f.delta.translation for f in fks], (3,))
        fk_inv_quat, fk_inv_trans = inverse_stacked(fk_quat, fk_trans)
        mc_quat = _rows([f.delta_rot.quat for f in mcs], (4,))
        return StackedFactors(
            fk_inv_quat=fk_inv_quat,
            fk_inv_trans=fk_inv_trans,
            fk_adjoint=se3_adjoint_stacked(fk_quat, fk_trans),
            fk_info=_rows([f.info for f in fks], (6,)),
            # Rotation.inverse, normalized as Rotation does
            mc_inv_quat=quat_unit(quat_conjugate(mc_quat)),
            mc_rot=quat_matrix(mc_quat),
            mc_trans=_rows([f.delta_trans for f in mcs], (3,)),
            mc_aligned=_rows([f.frame_aligned for f in mcs], (), bool),
            mc_info=_rows([f.info for f in mcs], (6,)))

    def fk(self, quats, trans) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residuals (m, 6) and Jacobians (m, 6, 6) wrt poses k and k+1, as
        ``fk_residual`` and ``fk_jacobians``."""
        prev_inv = quat_conjugate(quats[:-1])
        # compose(compose(inverse(t_prev), t_curr), inverse(delta))
        rel_quat = quat_product(prev_inv, quats[1:])
        rel_trans = quat_rotate(prev_inv, trans[1:]) - quat_rotate(prev_inv, trans[:-1])
        r = se3_log_stacked(quat_product(rel_quat, self.fk_inv_quat),
                            quat_rotate(rel_quat, self.fk_inv_trans) + rel_trans)
        j_prev = -se3_left_jacobian_inv_stacked(r)
        j_curr = se3_left_jacobian_inv_stacked(-r) @ self.fk_adjoint
        return r, j_prev, j_curr

    def mc(self, quats, trans, log_s: float
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Residuals (m, 6), Jacobians (m, 6, 6) wrt poses k and k+1, and
        (m, 6) wrt log s, as ``mc_residual`` and ``mc_jacobians``."""
        s = np.exp(log_s)  # inf, not OverflowError, for a wild trial state
        aligned = self.mc_aligned[:, None]
        r_prev = quat_matrix(quats[:-1])
        moved = np.where(aligned, quat_rotate(quats[:-1], self.mc_trans), self.mc_trans)
        r_rot = so3_log_stacked(quat_product(
            quat_product(quat_conjugate(quats[:-1]), quats[1:]), self.mc_inv_quat))
        r = np.concatenate([(trans[1:] - trans[:-1]) - s * moved, r_rot], axis=-1)

        m = len(r)
        j_prev = np.zeros((m, 6, 6))
        j_curr = np.zeros((m, 6, 6))
        j_scale = np.zeros((m, 6))
        j_prev[:, :3, :3] = -r_prev
        j_curr[:, :3, :3] = quat_matrix(quats[1:])
        j_prev[:, :3, 3:] = np.where(aligned[..., None],
                                     (s * r_prev) @ hat_stacked(self.mc_trans), 0.0)
        j_scale[:, :3] = -s * np.where(aligned, (r_prev @ self.mc_trans[..., None])[..., 0],
                                       self.mc_trans)
        j_prev[:, 3:, 3:] = -so3_left_jacobian_inv_stacked(r_rot)
        j_curr[:, 3:, 3:] = so3_left_jacobian_inv_stacked(-r_rot) @ self.mc_rot
        return r, j_prev, j_curr, j_scale
