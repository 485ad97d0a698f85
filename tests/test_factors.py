"""Residuals, costs, and analytic Jacobians of the three factor types.

The Jacobian oracle is central finite differences over right perturbations
T -> T exp(h e_j) and log s -> log s + h, the same local coordinates the
solver steps in.
"""

import math

import numpy as np
import pytest

from conftest import rand_pose, rand_rotation, rand_twist_vector
from graspmap.errors import DimensionMismatch
from graspmap.factors import (FK_INFO_VALUE, MC_INFO_VALUE, FkFactor, McFactor,
                              PriorFactor, ScaleVar, factor_cost, factor_jacobians,
                              factor_residual, fk_jacobians, fk_residual,
                              log_scale_ok, mc_jacobians, mc_residual,
                              prior_jacobians, prior_residual)
from graspmap.geometry import Pose, Rotation, compose, inverse, se3_exp

FD_STEP = 1e-7
FD_TOL = 1e-5


def fd_pose_jacobian(fun, pose: Pose, rows: int) -> np.ndarray:
    """d fun / d (right tangent of pose), central differences."""
    j = np.zeros((rows, 6))
    for k in range(6):
        step = np.zeros(6)
        step[k] = FD_STEP
        hi = fun(compose(pose, se3_exp(step)))
        lo = fun(compose(pose, se3_exp(-step)))
        j[:, k] = (hi - lo) / (2.0 * FD_STEP)
    return j


def fd_scale_jacobian(fun, scale: ScaleVar) -> np.ndarray:
    hi = fun(ScaleVar(scale.log_value + FD_STEP))
    lo = fun(ScaleVar(scale.log_value - FD_STEP))
    return (hi - lo) / (2.0 * FD_STEP)


# --- residuals ---------------------------------------------------------------------


def test_fk_residual_all_identity():
    f = FkFactor(1, Pose.identity())
    r = fk_residual(Pose.identity(), Pose.identity(), f)
    assert np.array_equal(r, np.zeros(6))


def test_fk_residual_consistent_motion_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t_prev, delta = rand_pose(rng), rand_pose(rng)
        t_curr = compose(t_prev, delta)
        r = fk_residual(t_prev, t_curr, FkFactor(1, delta))
        assert np.abs(r).max() < 1e-12


def test_fk_residual_pure_translation_value():
    f = FkFactor(1, Pose.from_parts(translation=[0.08, 0.0, 0.0]))
    r = fk_residual(Pose.identity(),
                    Pose.from_parts(translation=[0.10, 0.0, 0.0]), f)
    assert np.allclose(r, [0.02, 0, 0, 0, 0, 0], atol=1e-15)


def test_mc_residual_trivials():
    p = Pose.from_parts(translation=[0.3, -0.1, 0.2])
    f = McFactor(1, Rotation.identity(), np.zeros(3))
    assert np.array_equal(mc_residual(p, p, ScaleVar.from_value(3.7), f),
                          np.zeros(6))
    # exact scaling: world step 0.2 m, tracker reports 0.1 map units, s = 2
    f2 = McFactor(1, Rotation.identity(), [0.1, 0.0, 0.0])
    r = mc_residual(Pose.identity(),
                    Pose.from_parts(translation=[0.2, 0.0, 0.0]),
                    ScaleVar.from_value(2.0), f2)
    assert np.abs(r).max() < 1e-15


def test_mc_residual_frame_alignment_disambiguation():
    # prev pose has 90 degree yaw; the step is along the body x axis
    yaw = Rotation.from_axis_angle([0, 0, 1], math.pi / 2)
    t_prev = Pose.from_parts(rotation=yaw, translation=[1.0, 2.0, 0.0])
    t_curr = compose(t_prev, Pose.from_parts(translation=[0.1, 0.0, 0.0]))
    s = ScaleVar.from_value(1.0)

    aligned = McFactor(1, Rotation.identity(), [0.1, 0.0, 0.0])
    r = mc_residual(t_prev, t_curr, s, aligned)
    assert np.abs(r[:3]).max() < 1e-15

    literal = McFactor(1, Rotation.identity(), [0.1, 0.0, 0.0],
                       frame_aligned=False)
    r_lit = mc_residual(t_prev, t_curr, s, literal)
    assert np.allclose(r_lit[:3], [-0.1, 0.1, 0.0], atol=1e-15)


def test_mc_rotation_part_independent_of_scale():
    rng = np.random.default_rng(1)
    for _ in range(10):
        t_prev, t_curr = rand_pose(rng), rand_pose(rng)
        f = McFactor(1, rand_rotation(rng), rng.normal(size=3))
        r1 = mc_residual(t_prev, t_curr, ScaleVar.from_value(1.0), f)
        r2 = mc_residual(t_prev, t_curr, ScaleVar.from_value(7.3), f)
        assert np.array_equal(r1[3:], r2[3:])


def test_mc_translation_gauge():
    # delta_trans * k together with s / k is the same measurement
    rng = np.random.default_rng(2)
    for k in (0.25, 4.0, 11.0):
        t_prev, t_curr = rand_pose(rng), rand_pose(rng)
        dt = rng.normal(size=3)
        r_base = mc_residual(t_prev, t_curr, ScaleVar.from_value(2.0),
                             McFactor(1, Rotation.identity(), dt))
        r_gauge = mc_residual(t_prev, t_curr, ScaleVar.from_value(2.0 / k),
                              McFactor(1, Rotation.identity(), k * dt))
        assert np.allclose(r_base, r_gauge, atol=1e-12)


def test_prior_residual_values():
    rng = np.random.default_rng(3)
    mean = rand_pose(rng)
    p = PriorFactor(pose=mean, scale=1.0)
    assert np.abs(prior_residual(mean, ScaleVar.from_value(1.0), p)).max() < 1e-15

    r = prior_residual(mean, ScaleVar.from_value(math.e), p)
    assert abs(r[6] - 1.0) < 1e-15

    x = 1e-4 * np.array([1.0, -0.5, 0.3, 0.2, -0.7, 0.4])
    x *= 1e-4 / np.linalg.norm(x)
    t0 = compose(mean, se3_exp(x))
    r = prior_residual(t0, ScaleVar.from_value(1.0), p)
    assert np.allclose(r[:6], x, atol=1e-12)


def test_scale_var_validation():
    assert ScaleVar.from_value(2.0).value == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        ScaleVar.from_value(0.0)
    with pytest.raises(ValueError):
        ScaleVar.from_value(-1.0)


@pytest.mark.parametrize("log_value", [800.0, -800.0, math.inf, -math.inf, math.nan])
def test_scale_var_refuses_a_log_without_a_finite_positive_scale(log_value):
    """exp(800) overflows and exp(-800) is 0.0: neither is a scale."""
    with pytest.raises(ValueError, match="no finite positive scale"):
        ScaleVar(log_value)
    assert not log_scale_ok(log_value)


def test_scale_var_accepts_the_ends_of_exp_range():
    for log_value in (709.0, -745.0):
        assert 0.0 < ScaleVar(log_value).value < math.inf


# --- cost --------------------------------------------------------------------------


def test_factor_cost_values():
    fk_info, mc_info = np.full(6, FK_INFO_VALUE), np.full(6, MC_INFO_VALUE)
    assert factor_cost(np.zeros(6), fk_info) == 0.0
    e1 = np.array([1.0, 0, 0, 0, 0, 0])
    assert factor_cost(e1, fk_info) == pytest.approx(1e-4, rel=0, abs=0)
    r = np.array([1.0, 2.0, 0, 0, 0, 0])
    assert factor_cost(r, mc_info) == pytest.approx(5e-3, rel=1e-15)
    assert factor_cost(-r, mc_info) == factor_cost(r, mc_info)


def test_factor_cost_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        factor_cost(np.zeros(6), np.ones(5))
    with pytest.raises(DimensionMismatch):
        factor_cost(np.zeros(6), np.ones((3, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mc_factor_rejects_non_finite_translation(bad):
    with pytest.raises(ValueError, match="delta_trans must be finite"):
        McFactor(1, Rotation.identity(), [0.1, bad, 0.0])


def test_default_info_diagonals_exact():
    assert FK_INFO_VALUE == 1e-4 and MC_INFO_VALUE == 1e-3
    assert np.array_equal(FkFactor(1, Pose.identity()).info, np.full(6, 1e-4))
    assert np.array_equal(McFactor(1, Rotation.identity(), np.zeros(3)).info,
                          np.full(6, 1e-3))
    prior = PriorFactor(pose=Pose.identity())
    assert np.array_equal(prior.pose_info, np.full(6, 1e6))


# --- analytic Jacobians -------------------------------------------------------------


def test_fk_jacobians_at_identity():
    f = FkFactor(1, Pose.identity())
    j_prev, j_curr = fk_jacobians(Pose.identity(), Pose.identity(), f)
    assert np.allclose(j_prev, -np.eye(6), atol=1e-12)
    assert np.allclose(j_curr, np.eye(6), atol=1e-12)


def test_mc_scale_jacobian_value():
    f = McFactor(1, Rotation.identity(), [0.1, 0.0, 0.0])
    _, _, j_s = mc_jacobians(Pose.identity(),
                             Pose.from_parts(translation=[0.2, 0, 0]),
                             ScaleVar.from_value(2.0), f)
    assert np.allclose(j_s[:3], [-0.2, 0.0, 0.0], atol=1e-15)
    assert np.array_equal(j_s[3:], np.zeros(3))


def _random_fk_case(rng):
    t_prev, t_curr = rand_pose(rng), rand_pose(rng)
    # measured delta near the actual relative motion, so the residual rotation
    # stays well inside the cut locus
    delta = compose(compose(inverse(t_prev), t_curr),
                    se3_exp(0.1 * rand_twist_vector(rng, 1.0)))
    return t_prev, t_curr, FkFactor(1, delta)


def test_fk_jacobians_match_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(60):
        t_prev, t_curr, f = _random_fk_case(rng)
        j_prev, j_curr = fk_jacobians(t_prev, t_curr, f)
        fd_prev = fd_pose_jacobian(lambda p: fk_residual(p, t_curr, f), t_prev, 6)
        fd_curr = fd_pose_jacobian(lambda p: fk_residual(t_prev, p, f), t_curr, 6)
        assert np.abs(j_prev - fd_prev).max() < FD_TOL
        assert np.abs(j_curr - fd_curr).max() < FD_TOL


def test_mc_jacobians_match_finite_differences():
    rng = np.random.default_rng(5)
    for aligned in (True, False):
        for _ in range(40):
            t_prev, t_curr = rand_pose(rng), rand_pose(rng)
            rel = t_prev.rotation.inverse() @ t_curr.rotation
            wobble = se3_exp(0.1 * rand_twist_vector(rng, 1.0)).rotation
            f = McFactor(1, rel @ wobble, rng.normal(size=3),
                         frame_aligned=aligned)
            s = ScaleVar.from_value(float(rng.uniform(0.3, 4.0)))
            j_prev, j_curr, j_s = mc_jacobians(t_prev, t_curr, s, f)
            fd_prev = fd_pose_jacobian(
                lambda p: mc_residual(p, t_curr, s, f), t_prev, 6)
            fd_curr = fd_pose_jacobian(
                lambda p: mc_residual(t_prev, p, s, f), t_curr, 6)
            fd_s = fd_scale_jacobian(
                lambda v: mc_residual(t_prev, t_curr, v, f), s)
            assert np.abs(j_prev - fd_prev).max() < FD_TOL
            assert np.abs(j_curr - fd_curr).max() < FD_TOL
            assert np.abs(j_s - fd_s).max() < FD_TOL


def test_prior_jacobians_match_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(40):
        mean = rand_pose(rng)
        t0 = compose(mean, se3_exp(0.3 * rand_twist_vector(rng, 1.0)))
        s = ScaleVar.from_value(float(rng.uniform(0.3, 4.0)))
        p = PriorFactor(pose=mean, scale=float(rng.uniform(0.5, 2.0)))
        j_pose, j_s = prior_jacobians(t0, s, p)
        fd_pose = fd_pose_jacobian(lambda q: prior_residual(q, s, p), t0, 7)
        fd_s = fd_scale_jacobian(lambda v: prior_residual(t0, v, p), s)
        assert np.abs(j_pose - fd_pose).max() < FD_TOL
        assert np.abs(j_s - fd_s).max() < FD_TOL


# --- dispatch ---------------------------------------------------------------------


def test_dispatch_matches_direct_calls():
    rng = np.random.default_rng(7)
    poses = [rand_pose(rng), rand_pose(rng)]
    s = ScaleVar.from_value(2.0)
    fk = FkFactor(1, rand_pose(rng))
    mc = McFactor(1, rand_rotation(rng), rng.normal(size=3))
    prior = PriorFactor(pose=rand_pose(rng))

    assert np.array_equal(factor_residual(fk, poses, s),
                          fk_residual(poses[0], poses[1], fk))
    assert np.array_equal(factor_residual(mc, poses, s),
                          mc_residual(poses[0], poses[1], s, mc))
    assert np.array_equal(factor_residual(prior, poses, s),
                          prior_residual(poses[0], s, prior))

    blocks = factor_jacobians(mc, poses, s)
    j_prev, j_curr, j_s = mc_jacobians(poses[0], poses[1], s, mc)
    assert np.array_equal(blocks[("pose", 0)], j_prev)
    assert np.array_equal(blocks[("pose", 1)], j_curr)
    assert np.array_equal(blocks[("scale",)], j_s)
