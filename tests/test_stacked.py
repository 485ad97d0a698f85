"""The stacked (array) maps and factors against independent references.

The stacked maps in ``geometry`` are the one implementation of the exp/log
maps and their Jacobians; the scalar maps are thin wrappers over them. They
are checked against oracles that share no code with them: the quaternion
exponential in closed form, the truncated matrix-exponential series, and the
matrix inverses of the Jacobian series sum_n ad^n/(n+1)! (``conftest``). The
solver linearizes through ``StackedFactors``; the scalar residuals,
Jacobians and ``total_cost`` stay its reference. Every comparison runs over
rotation angles on both sides of each series switch: below ``SMALL_ANGLE``
(quaternion Taylor branch), below ``_SERIES_ANGLE`` (Jacobian coefficient
series), and up to 3.0 rad.
"""

import math

import numpy as np
import pytest

from conftest import (jacobian_series, mat_exp_series, quat_exp, rand_pose,
                      rand_rotation, se3_ad, se3_hat)
from graspmap.errors import CutLocusError
from graspmap.factors import (FkFactor, McFactor, PriorFactor, ScaleVar,
                              StackedFactors, fk_jacobians, fk_residual,
                              mc_jacobians, mc_residual)
from graspmap.geometry import (CUT_LOCUS_MARGIN, Rotation, compose,
                               compose_stacked, hat, inverse, inverse_stacked,
                               quat_matrix, quat_product, quat_rotate,
                               se3_adjoint_stacked, se3_exp,
                               se3_exp_stacked, se3_left_jacobian_inv_stacked,
                               se3_log_stacked,
                               so3_exp_stacked, so3_left_jacobian_inv_stacked,
                               so3_left_jacobian_stacked, so3_log, so3_log_stacked)
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


def test_pose_twins_match_scalar_bit_for_bit():
    rng = np.random.default_rng(9)
    a = [rand_pose(rng) for _ in range(2000)]
    b = [rand_pose(rng) for _ in range(2000)]
    (qa, ta), (qb, tb) = ((np.array([p.rotation.quat for p in ps]),
                           np.array([p.translation for p in ps])) for ps in (a, b))

    def same(got, want):
        q, t = got
        assert np.array_equal(q, [p.rotation.quat for p in want])
        assert np.array_equal(t, [p.translation for p in want])

    same(compose_stacked(qa, ta, qb, tb), [compose(x, y) for x, y in zip(a, b)])
    same(compose_stacked(qa[0], ta[0], qb, tb), [compose(a[0], y) for y in b])
    same(inverse_stacked(qa, ta), [inverse(x) for x in a])
    assert np.array_equal(quat_rotate(qa, tb), [x.rotation.apply(t) for x, t in zip(a, tb)])
    # the adjoint [[R, hat(t) R], [0, R]], built from Rotation.matrix
    want = np.zeros((len(a), 6, 6))
    for w, x in zip(want, a):
        r = x.rotation.matrix()
        w[:3, :3] = w[3:, 3:] = r
        w[:3, 3:] = hat(x.translation) @ r
    assert np.array_equal(se3_adjoint_stacked(qa, ta), want)


def test_exp_log_and_jacobians_match_oracles():
    x = twists(np.random.default_rng(1))
    phi = x[:, 3:]
    want_quats = [quat_exp(p) for p in phi]
    close(so3_exp_stacked(phi), want_quats)
    quats, trans = se3_exp_stacked(x)
    close(quats, want_quats)
    mats = [mat_exp_series(se3_hat(t)) for t in x]
    close(quat_matrix(quats), [m[:3, :3] for m in mats])
    close(trans, [m[:3, 3] for m in mats])
    close(so3_log_stacked(np.array(want_quats)), phi)
    close(se3_log_stacked(np.array(want_quats), np.array([m[:3, 3] for m in mats])), x)
    jl = [jacobian_series(hat(p)) for p in phi]
    close(so3_left_jacobian_stacked(phi), jl)
    close(so3_left_jacobian_inv_stacked(phi), [np.linalg.inv(j) for j in jl])
    close(se3_left_jacobian_inv_stacked(x),
          [np.linalg.inv(jacobian_series(se3_ad(t))) for t in x])


def test_stacked_log_keeps_leading_axes():
    rng = np.random.default_rng(2)
    q = np.array([[rand_rotation(rng).quat for _ in range(3)] for _ in range(2)])
    assert so3_log_stacked(q).shape == (2, 3, 3)
    assert se3_left_jacobian_inv_stacked(np.zeros((2, 3, 6))).shape == (2, 3, 6, 6)


@pytest.mark.parametrize("gap", [1e-9, 1e-7, 5e-7, 2e-6, 1e-3])
def test_stacked_log_refuses_the_cut_locus_like_scalar(gap):
    """The log raises exactly when pi - angle <= CUT_LOCUS_MARGIN, for a lone
    rotation and for one stacked behind the identity alike; otherwise it
    returns the axis times the angle."""
    rng = np.random.default_rng(3)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    near_pi = Rotation(quat_exp(axis * (math.pi - gap)))
    quats = np.array([Rotation.identity().quat, near_pi.quat])
    if gap <= CUT_LOCUS_MARGIN:
        with pytest.raises(CutLocusError):
            so3_log(near_pi)
        with pytest.raises(CutLocusError):
            so3_log_stacked(quats)
    else:
        close(so3_log(near_pi), axis * (math.pi - gap))
        close(so3_log_stacked(quats), [np.zeros(3), axis * (math.pi - gap)])


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
