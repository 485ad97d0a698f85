"""Stacked (array) evaluation against the scalar functions it mirrors.

The solver linearizes through ``StackedFactors`` and the stacked maps in
``geometry``; the scalar residuals, Jacobians and ``total_cost`` stay the
reference. Every comparison runs over rotation angles on both sides of each
series switch: below ``SMALL_ANGLE`` (quaternion Taylor branch), below
``_SERIES_ANGLE`` (Jacobian coefficient series), and up to near pi.
"""

import math

import numpy as np
import pytest

from conftest import rand_pose, rand_rotation
from graspmap.errors import CutLocusError
from graspmap.factors import (FkFactor, McFactor, PriorFactor, ScaleVar,
                              StackedFactors, fk_jacobians, fk_residual,
                              mc_jacobians, mc_residual)
from graspmap.geometry import (Rotation, compose, inverse,
                               quat_matrix, quat_product, quat_rotate,
                               se3_exp, se3_exp_stacked, se3_left_jacobian_inv,
                               se3_left_jacobian_inv_stacked, so3_exp,
                               so3_exp_stacked, so3_left_jacobian_inv,
                               so3_left_jacobian_inv_stacked, so3_log,
                               so3_log_stacked)
from graspmap.solver import FactorGraph, normal_equations

# rotation angles (rad) of the residuals and twists under test
ANGLES = [0.0, 1e-12, 3e-9, 2e-8, 1e-6, 1e-3, 9e-3, 1.1e-2, 0.3, 1.5, 3.0]


def close(got, want, tol: float = 1e-12) -> None:
    want = np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol * scale)


def twist_at_angle(rng, angle: float, rho_span: float = 1.0) -> np.ndarray:
    axis = rng.normal(size=3)
    return np.concatenate([rng.uniform(-rho_span, rho_span, 3),
                           axis / np.linalg.norm(axis) * angle])


def twists(rng) -> np.ndarray:
    return np.array([twist_at_angle(rng, a) for a in ANGLES])


# --- geometry -------------------------------------------------------------------


def test_quaternion_helpers_match_rotation():
    rng = np.random.default_rng(0)
    a = [rand_rotation(rng) for _ in range(8)]
    b = [rand_rotation(rng) for _ in range(8)]
    v = rng.normal(size=(8, 3))
    qa, qb = (np.array([r.quat for r in rs]) for rs in (a, b))
    close(quat_product(qa, qb), [(x @ y).quat for x, y in zip(a, b)])
    close(quat_rotate(qa, v), [x.apply(u) for x, u in zip(a, v)])
    close(quat_matrix(qa), [x.matrix() for x in a])


def test_exp_log_and_jacobians_match_scalar():
    rng = np.random.default_rng(1)
    x = twists(rng)
    close(so3_exp_stacked(x[:, 3:]), [so3_exp(t[3:]).quat for t in x])
    quats, trans = se3_exp_stacked(x)
    want = [se3_exp(t) for t in x]
    close(quats, [p.rotation.quat for p in want])
    close(trans, [p.translation for p in want])
    close(so3_log_stacked(quats), [so3_log(p.rotation) for p in want])
    close(so3_left_jacobian_inv_stacked(x[:, 3:]),
          [so3_left_jacobian_inv(t[3:]) for t in x])
    close(se3_left_jacobian_inv_stacked(x),
          [se3_left_jacobian_inv(t) for t in x])


def test_stacked_log_keeps_leading_axes():
    rng = np.random.default_rng(2)
    q = np.array([[rand_rotation(rng).quat for _ in range(3)] for _ in range(2)])
    assert so3_log_stacked(q).shape == (2, 3, 3)
    assert se3_left_jacobian_inv_stacked(np.zeros((2, 3, 6))).shape == (2, 3, 6, 6)


@pytest.mark.parametrize("gap", [1e-9, 1e-7, 5e-7, 2e-6, 1e-3])
def test_stacked_log_refuses_the_cut_locus_like_scalar(gap):
    rng = np.random.default_rng(3)
    axis = rng.normal(size=3)
    half = 0.5 * (math.pi - gap)
    near_pi = Rotation(np.concatenate([[math.cos(half)],
                                       math.sin(half) * axis / np.linalg.norm(axis)]))
    quats = np.array([Rotation.identity().quat, near_pi.quat])
    try:
        want = so3_log(near_pi)
    except CutLocusError:
        with pytest.raises(CutLocusError):
            so3_log_stacked(quats)
    else:
        close(so3_log_stacked(quats)[1], want)


# --- factors -------------------------------------------------------------------


def chain(rng, literal_every: int = 3):
    """Random poses with FK and tracker factors whose residual rotations run
    through ANGLES; every literal_every-th tracker factor is not frame-aligned."""
    n = len(ANGLES) + 1
    poses = [rand_pose(rng)]
    for _ in range(n - 1):
        poses.append(compose(poses[-1], se3_exp(twist_at_angle(rng, 0.4, 0.1))))
    fks, mcs = [], []
    for i, angle in enumerate(ANGLES, start=1):
        rel = compose(inverse(poses[i - 1]), poses[i])
        # residual rotation log(rel delta^-1) then has exactly this angle
        off = se3_exp(twist_at_angle(rng, angle, 0.01))
        fks.append(FkFactor(i, compose(inverse(off), rel),
                            info=rng.uniform(0.5, 2.0, 6)))
        mcs.append(McFactor(i, off.rotation.inverse() @ rel.rotation,
                            rng.normal(0.0, 0.1, 3), info=rng.uniform(0.5, 2.0, 6),
                            frame_aligned=(i % literal_every != 0)))
    return poses, fks, mcs


def as_state(poses):
    return (np.array([p.rotation.quat for p in poses]),
            np.array([p.translation for p in poses]))


def test_stacked_fk_matches_scalar():
    rng = np.random.default_rng(4)
    poses, fks, mcs = chain(rng)
    r, j_prev, j_curr = StackedFactors.pack(fks, mcs).fk(*as_state(poses))
    for k, f in enumerate(fks):
        close(r[k], fk_residual(poses[f.i - 1], poses[f.i], f))
        want_prev, want_curr = fk_jacobians(poses[f.i - 1], poses[f.i], f)
        close(j_prev[k], want_prev)
        close(j_curr[k], want_curr)


@pytest.mark.parametrize("log_s", [0.0, math.log(2.5), -3.0])
def test_stacked_mc_matches_scalar(log_s):
    rng = np.random.default_rng(5)
    poses, fks, mcs = chain(rng)
    assert {f.frame_aligned for f in mcs} == {True, False}
    scale = ScaleVar(log_s)
    r, j_prev, j_curr, j_scale = StackedFactors.pack(fks, mcs).mc(
        *as_state(poses), log_s)
    for k, f in enumerate(mcs):
        close(r[k], mc_residual(poses[f.i - 1], poses[f.i], scale, f))
        want_prev, want_curr, want_scale = mc_jacobians(poses[f.i - 1], poses[f.i],
                                                        scale, f)
        close(j_prev[k], want_prev)
        close(j_curr[k], want_curr)
        close(j_scale[k], want_scale)


def chain_graph(rng) -> FactorGraph:
    poses, fks, mcs = chain(rng)
    prior_pose = compose(poses[0], se3_exp(twist_at_angle(rng, 1e-3, 1e-3)))
    graph = FactorGraph(PriorFactor(pose=prior_pose, scale=1.3, scale_info=0.5),
                        t0=poses[0], scale=ScaleVar(0.2))
    for fk, mc, pose in zip(fks, mcs, poses[1:]):
        graph.add_keyframe(fk, mc, pose_init=pose)
    return graph


def test_stacked_cost_matches_total_cost():
    graph = chain_graph(np.random.default_rng(6))
    stacked, prior, state = graph._packed()
    system = normal_equations(stacked, prior, *state)
    assert system.cost == pytest.approx(graph.total_cost(), rel=1e-12)


def test_one_pose_graph():
    """No FK or tracker factors: the prior alone makes the system, and the
    solver moves pose 0 and the scale onto it."""
    rng = np.random.default_rng(7)
    prior = PriorFactor(pose=rand_pose(rng), scale=2.0, scale_info=1.0)
    start = compose(prior.pose, se3_exp(twist_at_angle(rng, 0.1, 0.1)))
    graph = FactorGraph(prior, t0=start)
    stacked, prior, state = graph._packed()
    system = normal_equations(stacked, prior, *state)
    assert system.diag.shape == (1, 6, 6)
    assert system.cost == pytest.approx(graph.total_cost(), rel=1e-12)
    report = graph.optimize()
    assert report.converged and report.final_cost < 1e-20
    assert graph.scale.value == pytest.approx(2.0, rel=1e-12)
    assert graph.marginal_scale_stddev() == pytest.approx(1.0, rel=1e-12)
