"""Shared sampling helpers, Lie-group oracles, the scalar FK loop and a test
chain graph.

Rotations are sampled directly in quaternion space (normalized Gaussian
4-vectors), so tests of the exp/log maps never use those maps to build their
own inputs. The oracles compute the exp map and its Jacobians from their
defining series or closed forms, sharing no code with ``geometry``'s maps.
``fk_compose_loop`` is forward kinematics as a loop of scalar ``compose``
calls, the reference ``fk_poses`` must match bit for bit. ``chain_graph``
is a small graph whose factor residual rotations run through ``ANGLES``,
with frame-aligned and literal tracker factors, ``started_at`` a graph's
factors with its state started elsewhere, ``factor_info_diag`` a factor's
information diagonal, and ``scalar_cost`` a graph's cost summed factor by
factor through the scalar residuals.
"""

import math

import numpy as np

from graspmap.factors import (FkFactor, McFactor, PriorFactor, factor_cost,
                              factor_residual)
from graspmap.geometry import (Pose, Rotation, compose, hat, inverse, se3_exp,
                               so3_exp_stacked)
from graspmap.solver import FactorGraph


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


def fk_compose_loop(model, angles) -> Pose:
    """Gripper pose for one vector of joint angles, one scalar ``compose`` per
    joint rotation and per link."""
    axes = np.array([joint.axis for joint in model.joints])
    norms = np.sqrt([axis.dot(axis) for axis in axes])
    quats = so3_exp_stacked(axes * (np.asarray(angles, dtype=float) / norms)[:, None])
    p = model.base_pose
    for joint, quat in zip(model.joints, quats):
        p = compose(p, Pose(Rotation(quat), np.zeros(3)))
        p = compose(p, joint.offset)
    return compose(p, model.gripper_offset)


# --- chain graphs ---------------------------------------------------------------

# rotation angles (rad) of the residuals and twists under test
ANGLES = [0.0, 1e-12, 3e-9, 2e-8, 1e-6, 1e-3, 9e-3, 1.1e-2, 0.3, 1.5, 3.0]


def twist_at_angle(rng, angle: float, rho_span: float = 1.0) -> np.ndarray:
    axis = rng.normal(size=3)
    return np.concatenate([rng.uniform(-rho_span, rho_span, 3),
                           axis / np.linalg.norm(axis) * angle])


def chain(rng, literal_every: int = 3):
    """Random poses with FK and tracker factors whose residual rotations run
    through ANGLES; every literal_every-th tracker factor is not frame-aligned."""
    n = len(ANGLES) + 1
    poses = [rand_pose(rng)]
    for _ in range(n - 1):
        poses.append(compose(poses[-1], se3_exp(twist_at_angle(rng, 0.4, 0.1))))
    fk_values, mc_values = [], []
    for i, angle in enumerate(ANGLES, start=1):
        rel = compose(inverse(poses[i - 1]), poses[i])
        # residual rotation log(rel delta^-1) then has exactly this angle
        off = se3_exp(twist_at_angle(rng, angle, 0.01))
        fk_values.append(FkFactor(i, compose(inverse(off), rel),
                                  info=rng.uniform(0.5, 2.0, 6)))
        mc_values.append(McFactor(i, off.rotation.inverse() @ rel.rotation,
                                  rng.normal(0.0, 0.1, 3), info=rng.uniform(0.5, 2.0, 6),
                                  frame_aligned=(i % literal_every != 0)))
    return poses, fk_values, mc_values


def started_at(graph: FactorGraph, poses, log_s: float | None = None) -> FactorGraph:
    """``graph``'s prior and factors with the state started at ``poses`` and
    ``log_s`` (by default the graph's own)."""
    return FactorGraph.from_arrays(graph.prior, [p.rotation.quat for p in poses],
                                   [p.translation for p in poses],
                                   graph.log_s if log_s is None else log_s, graph.stacked)


def chain_graph(rng) -> FactorGraph:
    poses, fk_values, mc_values = chain(rng)
    prior_pose = compose(poses[0], se3_exp(twist_at_angle(rng, 1e-3, 1e-3)))
    graph = FactorGraph(PriorFactor(pose=prior_pose, scale=1.3, scale_info=0.5))
    for fk, mc in zip(fk_values, mc_values):
        graph.add_keyframe(fk, mc)
    return started_at(graph, poses, 0.2)


def factor_info_diag(factor) -> np.ndarray:
    """Information diagonal matching the factor's residual length."""
    if isinstance(factor, PriorFactor):
        return np.concatenate([factor.pose_info, [factor.scale_info]])
    return factor.info


def scalar_cost(graph: FactorGraph) -> float:
    """The total cost summed factor by factor through the scalar residuals."""
    poses, scale = graph.poses, graph.scale
    return sum(factor_cost(factor_residual(f, poses, scale), factor_info_diag(f))
               for f in graph.factors)
