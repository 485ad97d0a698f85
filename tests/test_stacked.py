"""The stacked (array) maps and factors against independent references.

The stacked maps in ``geometry`` are the one implementation of the exp/log
maps and their Jacobians; the scalar maps are thin wrappers over them. They
are checked against oracles that share no code with them: the quaternion
exponential in closed form, the truncated matrix-exponential series, and the
matrix inverses of the Jacobian series sum_n ad^n/(n+1)! (``conftest``). The
solver linearizes through ``StackedFactors``; the scalar residuals and their
per-factor cost sum stay its reference, and its Jacobians are checked against
central differences of those residuals. Every comparison runs over rotation
angles on both sides of each series switch: below ``SMALL_ANGLE`` (quaternion
Taylor branch), below ``_SERIES_ANGLE`` (Jacobian coefficient series), and up
to 3.0 rad.
"""

import math

import numpy as np
import pytest

from conftest import (ANGLES, chain_graph, jacobian_series, mat_exp_series,
                      quat_exp, rand_pose, rand_rotation, scalar_cost, se3_ad,
                      se3_hat, started_at, twist_at_angle)
from graspmap.errors import CutLocusError
from graspmap.factors import PriorFactor, ScaleVar, fk_residual, mc_residual, prior_residual
from graspmap.geometry import (CUT_LOCUS_MARGIN, Rotation, compose,
                               compose_stacked, hat, inverse, inverse_stacked,
                               quat_matrix, quat_product, quat_rotate, quat_unit,
                               se3_adjoint_stacked, se3_exp,
                               se3_exp_stacked, se3_left_jacobian_inv_stacked,
                               se3_left_jacobian_inv_twins, se3_log_stacked,
                               so3_exp_stacked, so3_left_jacobian_inv_stacked,
                               so3_left_jacobian_inv_twins, so3_left_jacobian_stacked,
                               so3_log, so3_log_stacked)
from graspmap.solver import FactorGraph, normal_equations
from tests.test_factors import FD_TOL, fd_pose_jacobian, fd_scale_jacobian


def close(got, want, tol: float = 1e-12) -> None:
    want = np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol * scale)


def twists(rng) -> np.ndarray:
    return np.array([twist_at_angle(rng, a) for a in ANGLES])


# --- geometry -------------------------------------------------------------------


def test_quaternion_helpers_match_rotation():
    rng = np.random.default_rng(0)
    a = [rand_rotation(rng) for _ in range(2000)]
    b = [rand_rotation(rng) for _ in range(2000)]
    v = rng.normal(size=(8, 3))
    qa, qb = (np.array([r.quat for r in rs]) for rs in (a, b))
    assert np.array_equal(quat_product(qa, qb), [(x @ y).quat for x, y in zip(a, b)])
    close(quat_rotate(qa[:8], v), [x.apply(u) for x, u in zip(a, v)])
    close(quat_matrix(qa[:8]), [x.matrix() for x in a[:8]])


@pytest.mark.parametrize("scale", [1e-100, 1e-3, 1.0, 1e3, 1e100])
def test_quat_unit_leaves_its_output_as_it_is(scale):
    """quat_unit(quat_unit(q)) == quat_unit(q), bit for bit, for random
    quaternions of any size and for chained products of unit ones: a state
    kept unit by it does not move when it is applied again."""
    rng = np.random.default_rng(15)
    q = rng.normal(size=(200_000, 4)) * scale
    if scale == 1.0:  # unit as np.linalg.norm rounds it, not as quat_unit does
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
    unit = quat_unit(q)
    assert np.array_equal(quat_unit(unit), unit)
    product = unit
    for _ in range(3):
        product = quat_product(product, quat_unit(rng.normal(size=q.shape)))
        assert np.array_equal(quat_unit(product), product)


def matrix_by_elements(w, x, y, z) -> np.ndarray:
    """The rotation matrix of a unit quaternion, one element at a time: the
    reference ``quat_matrix``, and so ``Rotation.matrix``, must match bit for bit."""
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


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
    assert np.array_equal([x.rotation.matrix() for x in a], [matrix_by_elements(*q) for q in qa])
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


def same_bits(got, want) -> None:
    """Equal arrays down to the sign of each zero."""
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_jacobian_twins_are_the_maps_at_minus_x_bit_for_bit():
    """Jl^-1 at -phi and at -x, taken from the terms at phi and x, equal the
    maps evaluated at -phi and -x, bit for bit: over 12000 twists at angle 0,
    across the series branch below _SERIES_ANGLE, up to pi - 1e-3, and
    uniform in [0, pi - 1e-3]."""
    rng = np.random.default_rng(17)
    angles = np.concatenate([
        np.zeros(1000), rng.uniform(0.0, 2e-8, 1000), 10.0 ** rng.uniform(-9, -2, 3000),
        rng.uniform(9e-3, 1.1e-2, 1000), math.pi - 1e-3 - rng.uniform(0.0, 1e-4, 1000),
        np.full(1000, math.pi - 1e-3), rng.uniform(0.0, math.pi - 1e-3, 4000)])
    x = np.array([twist_at_angle(rng, a) for a in angles])
    x[:200, :3] = 0.0  # zero translation as well as zero rotation
    jli, jli_neg, theta, k = so3_left_jacobian_inv_twins(x[:, 3:])
    same_bits(jli, so3_left_jacobian_inv_stacked(x[:, 3:]))
    same_bits(jli_neg, so3_left_jacobian_inv_stacked(-x[:, 3:]))
    same_bits(theta, np.linalg.norm(x[:, 3:], axis=-1))
    same_bits(k, np.array([hat(phi) for phi in x[:, 3:]]))
    jac, jac_neg = se3_left_jacobian_inv_twins(x, jli, jli_neg, theta, k)
    same_bits(jac, se3_left_jacobian_inv_stacked(x))
    same_bits(jac_neg, se3_left_jacobian_inv_stacked(-x))


def test_se3_exp_stacked_rotations_are_se3_exps_bit_for_bit():
    rng = np.random.default_rng(16)
    x = np.concatenate([twists(rng),
                        [twist_at_angle(rng, a) for a in rng.uniform(0.0, 3.0, 2000)]])
    quats, _ = se3_exp_stacked(x)
    assert np.array_equal(quats, [se3_exp(t).rotation.quat for t in x])


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


def test_stacked_fk_matches_scalar():
    rng = np.random.default_rng(4)
    graph = chain_graph(rng)
    poses, fk_values = graph.poses, graph.factors[1::2]
    (r, j_prev, j_curr), _ = graph.stacked.linearize(
        graph.quats, graph.trans, graph.prior.anchor_inverse, graph.log_s)
    assert len(r) == len(j_curr) == len(fk_values) + 1 and len(j_prev) == len(fk_values)
    for k, f in enumerate(fk_values):
        close(r[k], fk_residual(poses[f.i - 1], poses[f.i], f))
    # row m is the prior's pose part
    close(r[-1], prior_residual(poses[0], graph.scale, graph.prior)[:6])


@pytest.mark.parametrize("log_s", [0.0, math.log(2.5), -3.0])
def test_stacked_mc_matches_scalar(log_s):
    rng = np.random.default_rng(5)
    graph = chain_graph(rng)
    poses, mc_values = graph.poses, graph.factors[2::2]
    assert {f.frame_aligned for f in mc_values} == {True, False}
    scale = ScaleVar(log_s)
    _, (r, *_) = graph.stacked.linearize(
        graph.quats, graph.trans, graph.prior.anchor_inverse, log_s)
    for k, f in enumerate(mc_values):
        close(r[k], mc_residual(poses[f.i - 1], poses[f.i], scale, f))


def fd_close(got, want) -> None:
    assert np.abs(got - want).max() < FD_TOL


def test_linearize_matches_finite_differences_of_the_scalar_residuals():
    """Every row's Jacobians from ``linearize`` against central differences
    of the scalar residuals, each pose perturbed on the right as
    ``fd_pose_jacobian`` does it: the kinematic rows, the prior's pose row,
    and the tracker rows, frame-aligned and literal, at several log s. The
    rows' residual rotations run through ANGLES, the series branch near 0 and
    out to 3.0 rad, which criterion 4's small perturbations do not reach."""
    graph = chain_graph(np.random.default_rng(10))
    poses, prior = graph.poses, graph.prior
    fk_values, mc_values = graph.factors[1::2], graph.factors[2::2]
    assert {f.frame_aligned for f in mc_values} == {True, False}
    for log_s in (0.0, math.log(2.5), -3.0):
        scale = ScaleVar(log_s)
        (_, fk_prev, fk_curr), (_, mc_prev, mc_curr, mc_scale) = graph.stacked.linearize(
            graph.quats, graph.trans, prior.anchor_inverse, log_s)
        for k, (fk, mc) in enumerate(zip(fk_values, mc_values)):
            a, b = poses[k], poses[k + 1]
            fd_close(fk_prev[k], fd_pose_jacobian(lambda p: fk_residual(p, b, fk), a, 6))
            fd_close(fk_curr[k], fd_pose_jacobian(lambda p: fk_residual(a, p, fk), b, 6))
            fd_close(mc_prev[k], fd_pose_jacobian(lambda p: mc_residual(p, b, scale, mc), a, 6))
            fd_close(mc_curr[k], fd_pose_jacobian(lambda p: mc_residual(a, p, scale, mc), b, 6))
            fd_close(mc_scale[k], fd_scale_jacobian(lambda v: mc_residual(a, b, v, mc), scale))
        fd_close(fk_curr[-1], fd_pose_jacobian(
            lambda p: prior_residual(p, scale, prior)[:6], poses[0], 6))


def test_prior_anchor_inverse_is_inverse_of_the_pose():
    prior = chain_graph(np.random.default_rng(8)).prior
    quat, trans = prior.anchor_inverse
    want = inverse(prior.pose)
    assert np.array_equal(quat, want.rotation.quat)
    assert np.array_equal(trans, want.translation)
    assert prior.anchor_inverse is prior.anchor_inverse


def test_stacked_cost_matches_scalar_cost():
    graph = chain_graph(np.random.default_rng(6))
    system = normal_equations(graph.stacked, graph.prior, graph.quats, graph.trans,
                              graph.log_s)
    assert system.cost == pytest.approx(scalar_cost(graph), rel=1e-12)


def test_one_pose_graph():
    """No FK or tracker factors: the prior alone makes the system, and the
    solver moves pose 0 and the scale onto it."""
    rng = np.random.default_rng(7)
    prior = PriorFactor(pose=rand_pose(rng), scale=2.0, scale_info=1.0)
    start = compose(prior.pose, se3_exp(twist_at_angle(rng, 0.1, 0.1)))
    graph = started_at(FactorGraph(prior), [start])
    system = normal_equations(graph.stacked, graph.prior, graph.quats, graph.trans,
                              graph.log_s)
    assert system.diag.shape == (1, 6, 6)
    assert system.cost == pytest.approx(scalar_cost(graph), rel=1e-12)
    report = graph.optimize()
    assert report.converged and report.final_cost < 1e-20
    assert graph.scale.value == pytest.approx(2.0, rel=1e-12)
    assert graph.marginal_scale_stddev() == pytest.approx(1.0, rel=1e-12)
