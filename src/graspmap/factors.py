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

``StackedFactors.linearize`` is the one implementation of the Jacobians: it
evaluates the residuals and Jacobians of a whole chain at once, as arrays, and
the solver runs on it alone. The scalar residuals are the independent
reference the tests differentiate numerically; the scalar Jacobians are
one-row views of ``linearize``, so those finite differences check the code
the solver runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .geometry import (Pose, Rotation, compose, compose_stacked, frozen, hat_stacked,
                       inverse, inverse_stacked, quat_conjugate, quat_matrix, quat_product,
                       quat_rotate, quat_unit, se3_adjoint_stacked,
                       se3_left_jacobian_inv_twins, se3_log, so3_left_jacobian_inv_twins,
                       so3_log, so3_log_stacked)

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


def _check_info_diag(info, shape: tuple) -> np.ndarray:
    a = frozen(info, shape, "information diagonal")
    if np.any(a <= 0.0):
        raise ValueError("information diagonal must be positive")
    return a


def log_scale_ok(log_value: float) -> bool:
    """Whether exp(log_value) is a finite positive float, as a scale must be."""
    with np.errstate(over="ignore"):
        return bool(0.0 < np.exp(log_value) < np.inf)


@dataclass(frozen=True)
class ScaleVar:
    """Global metric scale of the monocular map, stored as log(s)."""

    log_value: float

    def __post_init__(self):
        v = float(self.log_value)
        if not log_scale_ok(v):
            raise ValueError(f"log scale {v!r} gives no finite positive scale")
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
        info = np.full(6, FK_INFO_VALUE) if self.info is None else self.info
        object.__setattr__(self, "info", _check_info_diag(info, (6,)))


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
        object.__setattr__(self, "delta_trans", frozen(self.delta_trans, (3,), "delta_trans"))
        info = np.full(6, MC_INFO_VALUE) if self.info is None else self.info
        object.__setattr__(self, "info", _check_info_diag(info, (6,)))
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
        object.__setattr__(self, "pose_info", _check_info_diag(info, (6,)))
        s = float(self.scale)
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError("prior scale must be positive")
        object.__setattr__(self, "scale", s)
        si = float(self.scale_info)
        if not (math.isfinite(si) and si > 0.0):
            raise ValueError("scale_info must be positive")
        object.__setattr__(self, "scale_info", si)

    @cached_property
    def anchor_inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """inverse(pose) as (quaternion, translation), taken on first use:
        the constant the stacked prior row composes with pose 0."""
        return inverse_stacked(self.pose.rotation.quat, self.pose.translation)


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


# --- analytic Jacobians: one-row views of StackedFactors.linearize ------------------


def _one_row(t_prev: Pose, t_curr: Pose, log_s: float, fk: FkFactor, mc: McFactor):
    """``linearize`` of the chain whose one row ``fk`` and ``mc`` make, at
    poses t_prev and t_curr, with the prior's pose row anchored at t_prev."""
    return StackedFactors.empty().appended(fk, mc).linearize(
        np.array([t_prev.rotation.quat, t_curr.rotation.quat]),
        np.array([t_prev.translation, t_curr.translation]),
        inverse_stacked(t_prev.rotation.quat, t_prev.translation), log_s)


def fk_jacobians(t_prev: Pose, t_curr: Pose,
                 factor: FkFactor) -> tuple[np.ndarray, np.ndarray]:
    """(d r / d pose_{i-1}, d r / d pose_i) for right perturbations.

    The tracker row beside it has the factor's rotation, so its log reaches
    the cut locus only where the kinematic row's does."""
    placeholder = McFactor(factor.i, factor.delta.rotation, np.zeros(3))
    (_, j_prev, j_curr), _ = _one_row(t_prev, t_curr, 0.0, factor, placeholder)
    return j_prev[0], j_curr[0]


def mc_jacobians(t_prev: Pose, t_curr: Pose, scale: ScaleVar,
                 factor: McFactor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d r / d pose_{i-1}, d r / d pose_i, d r / d log s).

    The kinematic row beside it has the factor's rotation, as in ``fk_jacobians``."""
    placeholder = FkFactor(factor.i, Pose(factor.delta_rot, np.zeros(3)))
    _, (_, j_prev, j_curr, j_scale) = _one_row(t_prev, t_curr, scale.log_value,
                                               placeholder, factor)
    return j_prev[0], j_curr[0], j_scale[0]


def prior_jacobians(t0: Pose, scale: ScaleVar,
                    factor: PriorFactor) -> tuple[np.ndarray, np.ndarray]:
    """(d r / d pose_0, d r / d log s) for the 7-row anchor residual."""
    (_, _, j_curr), _ = StackedFactors.empty().linearize(
        t0.rotation.quat[None], t0.translation[None], factor.anchor_inverse, scale.log_value)
    j_scale = np.zeros(7)
    j_scale[6] = 1.0
    return np.vstack([j_curr[0], np.zeros((1, 6))]), j_scale


# --- uniform dispatch: the reference the tests use -----------------------------


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


@dataclass(frozen=True)
class StackedFactors:
    """The kinematic and tracker factors of a chain as rows of arrays.

    Row k of each ``fk_*`` and ``mc_*`` array is the factor that ties pose k
    to pose k+1: the measured deltas and information diagonals as a graph
    file stores them, each checked once as the factor types check one value.
    This class alone maps a row to its ``FkFactor`` and ``McFactor`` values
    and back: ``appended`` adds the row a pair of them makes, and
    ``factors`` lists every row as that pair.
    The measurement-only terms ``linearize`` needs (inverse deltas, adjoints,
    rotation matrices) are computed on its first call. It takes the state as
    arrays, (n, 4) unit quaternions, (n, 3) translations and log s, with
    n = m + 1, and returns every row's residual, as the scalar residual
    functions give it, and its Jacobians, in one pass over the pose pairs for
    both kinds of row and the prior's pose row.
    """

    fk_quat: np.ndarray     # (m, 4) rotation of the kinematic delta
    fk_trans: np.ndarray    # (m, 3) translation of the kinematic delta
    fk_info: np.ndarray     # (m, 6)
    mc_quat: np.ndarray     # (m, 4) delta_rot
    mc_trans: np.ndarray    # (m, 3) delta_trans, map units
    mc_info: np.ndarray     # (m, 6)
    mc_aligned: np.ndarray  # (m,) frame_aligned

    def __post_init__(self):
        m = len(np.asarray(self.fk_quat))
        for name, width in (("fk_quat", 4), ("fk_trans", 3), ("mc_quat", 4), ("mc_trans", 3)):
            object.__setattr__(self, name, frozen(getattr(self, name), (m, width), name,
                                                  unit=width == 4))
        for name in ("fk_info", "mc_info"):
            object.__setattr__(self, name, _check_info_diag(getattr(self, name), (m, 6)))
        object.__setattr__(self, "mc_aligned", frozen(self.mc_aligned, (m,), "mc_aligned", bool))

    @classmethod
    def empty(cls) -> "StackedFactors":
        """The chain of no rows."""
        return cls(*(np.empty((0, w)) for w in (4, 3, 6, 4, 3, 6)), ())

    def __len__(self) -> int:
        return len(self.fk_quat)

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def appended(self, fk: FkFactor, mc: McFactor) -> "StackedFactors":
        """This chain with one more row, the one ``fk`` and ``mc`` make."""
        row = (fk.delta.rotation.quat, fk.delta.translation, fk.info,
               mc.delta_rot.quat, mc.delta_trans, mc.info, mc.frame_aligned)
        return StackedFactors(*(np.append(rows, [value], axis=0)
                                for rows, value in zip(self._columns(), row)))

    def factors(self) -> list[FkFactor | McFactor]:
        """The rows as values in graph order: fk 1, mc 1, fk 2, mc 2, ..."""
        pairs = ((FkFactor(i, Pose(Rotation(fq), ft), fi),
                  McFactor(i, Rotation(mq), mt, mi, bool(aligned)))
                 for i, (fq, ft, fi, mq, mt, mi, aligned) in enumerate(zip(*self._columns()), 1))
        return [f for pair in pairs for f in pair]

    @cached_property
    def _terms(self) -> tuple[np.ndarray, ...]:
        """The inverse rotations of both kinds' deltas as a (2, m, 4) stack
        (kinematic, tracker), normalized as ``Rotation`` does; the
        translation of inverse(delta) and se3_adjoint(delta) of the
        kinematic rows; delta_rot.matrix() and hat(delta_trans) of the
        tracker rows."""
        fk_inv_quat, fk_inv_trans = inverse_stacked(self.fk_quat, self.fk_trans)
        return (np.stack([fk_inv_quat, quat_unit(quat_conjugate(self.mc_quat))]),
                fk_inv_trans, se3_adjoint_stacked(self.fk_quat, self.fk_trans),
                quat_matrix(self.mc_quat), hat_stacked(self.mc_trans))

    def linearize(self, quats, trans, anchor_inv: tuple[np.ndarray, np.ndarray], log_s: float
                  ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Residuals and Jacobians of every row at the state, as two tuples.

        Kinematic: r (m+1, 6), j_prev (m, 6, 6) and j_curr (m+1, 6, 6). Rows
        0..m-1 are ``fk_residual`` and its Jacobians wrt poses k and k+1;
        row m is log(anchor^-1 T_0), the pose part of ``prior_residual``, and
        its Jacobian wrt pose 0, with ``anchor_inv`` the anchor's inverse as
        (quaternion, translation) (``PriorFactor.anchor_inverse``). Tracker:
        r (m, 6), ``mc_residual``, with its Jacobians j_prev and j_curr
        (m, 6, 6) and (m, 6) wrt log s. ``fk_jacobians``, ``mc_jacobians``
        and ``prior_jacobians`` return one row of these.

        Both kinds share conj(q_k) q_{k+1}, one product with their inverse
        delta rotations, one ``so3_log_stacked`` over the kinematic, prior
        and tracker rows, and one so3 Jl^-1 over the same rows, which also
        gives the kinematic logs' translation part. d/d pose k is -Jl^-1(r)
        and d/d pose k+1 is Jr^-1(r) times the delta's adjoint (its rotation
        matrix for a tracker row), where Jr^-1(r) = Jl^-1(-r) comes from
        Jl^-1(r)'s own terms (``se3_left_jacobian_inv_twins``).
        """
        s = np.exp(log_s)  # inf, not OverflowError, for a wild trial state
        m = len(self)
        inv_quats, inv_trans, adjoint, rot, hat_trans = self._terms
        prev_inv = quat_conjugate(quats[:-1])
        rel_quat = quat_product(prev_inv, quats[1:])
        # compose(compose(inverse(t_prev), t_curr), inverse(delta)), and the
        # tracker's rel delta_rot^-1
        err_quat = quat_product(rel_quat, inv_quats)
        prior_quat, prior_trans = compose_stacked(*anchor_inv, quats[0], trans[0])
        phi = so3_log_stacked(np.concatenate([err_quat[0], prior_quat[None], err_quat[1]]))
        jli, jli_neg, theta, k = so3_left_jacobian_inv_twins(phi)

        # kinematic and prior rows: se3_log_stacked of the error poses
        err_trans = np.concatenate([
            quat_rotate(rel_quat, inv_trans)
            + (quat_rotate(prev_inv, trans[1:]) - quat_rotate(prev_inv, trans[:-1])),
            prior_trans[None]])
        pose = slice(None, m + 1)
        r_fk = np.concatenate([(jli[pose] @ err_trans[..., None])[..., 0], phi[pose]], axis=-1)
        jac, j_curr_fk = se3_left_jacobian_inv_twins(
            r_fk, *(a[pose] for a in (jli, jli_neg, theta, k)))
        j_curr_fk[:m] = j_curr_fk[:m] @ adjoint

        # tracker rows
        aligned = self.mc_aligned[:, None]
        mats = quat_matrix(quats)
        r_prev = mats[:-1]
        moved = np.where(aligned, quat_rotate(quats[:-1], self.mc_trans), self.mc_trans)
        r_mc = np.concatenate([(trans[1:] - trans[:-1]) - s * moved, phi[m + 1:]], axis=-1)
        j_prev = np.zeros((m, 6, 6))
        j_curr = np.zeros((m, 6, 6))
        j_scale = np.zeros((m, 6))
        j_prev[:, :3, :3] = -r_prev
        j_curr[:, :3, :3] = mats[1:]
        j_prev[:, :3, 3:] = np.where(aligned[..., None], (s * r_prev) @ hat_trans, 0.0)
        j_scale[:, :3] = -s * np.where(aligned, (r_prev @ self.mc_trans[..., None])[..., 0],
                                       self.mc_trans)
        j_prev[:, 3:, 3:] = -jli[m + 1:]
        j_curr[:, 3:, 3:] = jli_neg[m + 1:] @ rot
        return (r_fk, -jac[:m], j_curr_fk), (r_mc, j_prev, j_curr, j_scale)
