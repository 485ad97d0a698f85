"""Factor-graph assembly and the Levenberg-Marquardt loop.

The scale oracle is a golden-section scan over log s with the poses pinned to
the dead-reckoned kinematic chain: on noiseless data that one-dimensional
problem has the same optimum as the joint optimization, found without any of
the solver machinery under test.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from conftest import (chain_graph, rand_pose, rand_twist_vector, scalar_cost, started_at,
                      twist_at_angle)
from graspmap import cli, factors, geometry, kinematics, solver
from graspmap.errors import CorruptArtifact, IndexMismatch, SingularNormalEquations
from graspmap.factors import (FkFactor, McFactor, PriorFactor, ScaleVar,
                              StackedFactors, factor_cost, factor_info_diag, factor_jacobians,
                              factor_residual)
from graspmap.geometry import (Pose, Rotation, compose, inverse,
                               se3_exp, se3_log, so3_exp)
from graspmap.kinematics import JointReading, default_limb, fk_delta, fk_pose
from graspmap.simulation import SimConfig, simulate, write_bundle
from graspmap.solver import (FactorGraph, SolveOptions, SolveReport, build_graph,
                             damped_step, load_graph, load_report,
                             normal_equations, save_graph, save_report)


def smooth_truth_poses(rng, n: int) -> list[Pose]:
    """Random but gentle trajectory: small twists, steps a few centimeters."""
    poses = [rand_pose(rng, span=0.3)]
    for _ in range(n - 1):
        step = rand_twist_vector(rng, 0.2)
        step[:3] *= 0.05
        poses.append(compose(poses[-1], se3_exp(step)))
    return poses


def synthetic_graph(rng, n: int = 20, s_true: float = 2.0,
                    trans_noise: float = 0.0, rot_noise: float = 0.0):
    """Pose-level instance: exact FK deltas, tracker deltas divided by s_true."""
    truth = smooth_truth_poses(rng, n)
    graph = FactorGraph(PriorFactor(pose=truth[0]))
    for i in range(1, n):
        delta = compose(inverse(truth[i - 1]), truth[i])
        rot = delta.rotation
        if rot_noise > 0.0:
            rot = rot @ so3_exp(rng.normal(0.0, rot_noise, 3))
        trans = delta.translation / s_true + rng.normal(0.0, trans_noise, 3)
        graph.add_keyframe(FkFactor(i, delta), McFactor(i, rot, trans))
    return graph, truth


def pinned_chain_cost(graph: FactorGraph, log_s: float) -> float:
    """Total cost with poses dead-reckoned from the FK factors only."""
    poses = [graph.factors[0].pose]
    for f in graph.factors:
        if isinstance(f, FkFactor):
            poses.append(compose(poses[-1], f.delta))
    scale = ScaleVar(log_s)
    return sum(factor_cost(factor_residual(f, poses, scale), factor_info_diag(f))
               for f in graph.factors)


def golden_section_scale(graph: FactorGraph, lo: float = -4.0, hi: float = 4.0,
                         iters: int = 200) -> float:
    """Minimize pinned_chain_cost over log s; returns the scale estimate."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = pinned_chain_cost(graph, c), pinned_chain_cost(graph, d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = pinned_chain_cost(graph, c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = pinned_chain_cost(graph, d)
    return math.exp((a + b) / 2.0)


def tangent_gap(a: Pose, b: Pose) -> float:
    return float(np.linalg.norm(se3_log(compose(inverse(a), b))))


# --- graph assembly ----------------------------------------------------------------


def test_keyframe_counts():
    rng = np.random.default_rng(0)
    graph, _ = synthetic_graph(rng, n=2)
    assert graph.num_poses == 2 and len(graph.factors) == 3
    graph, _ = synthetic_graph(rng, n=21)
    assert graph.num_poses == 21 and len(graph.factors) == 41


def test_new_pose_initialized_by_dead_reckoning():
    rng = np.random.default_rng(1)
    t0, delta = rand_pose(rng), rand_pose(rng)
    graph = FactorGraph(PriorFactor(pose=t0))
    graph.add_keyframe(FkFactor(1, delta),
                       McFactor(1, delta.rotation, delta.translation))
    assert np.allclose(graph.poses[1].matrix(), t0.matrix() @ delta.matrix(),
                       atol=1e-12)


def test_keyframe_index_mismatch():
    rng = np.random.default_rng(2)
    graph = FactorGraph(PriorFactor(pose=rand_pose(rng)))
    with pytest.raises(IndexMismatch):
        graph.add_keyframe(FkFactor(2, Pose.identity()),
                           McFactor(2, Rotation.identity(), np.zeros(3)))
    with pytest.raises(IndexMismatch):
        graph.add_keyframe(FkFactor(1, Pose.identity()),
                           McFactor(2, Rotation.identity(), np.zeros(3)))


def test_from_arrays_makes_the_quaternions_unit():
    """from_arrays stores each quaternion as Rotation would, and refuses one
    of no rotation and a pose count that is not the rows' plus one."""
    rng = np.random.default_rng(21)
    graph, _ = synthetic_graph(rng, n=4)
    quats = graph.quats * np.array([[2.0], [1e-3], [1.0], [7e5]])
    got = FactorGraph.from_arrays(graph.prior, quats, graph.trans, graph.log_s, graph.stacked)
    assert np.array_equal(got.quats, [Rotation(q).quat for q in quats])
    for bad in (0.0, np.inf):
        quats[2] = bad
        with pytest.raises(ValueError, match="quaternion must be finite and nonzero"):
            FactorGraph.from_arrays(graph.prior, quats, graph.trans, graph.log_s, graph.stacked)
    with pytest.raises(ValueError, match=r"quaternion must have shape \(4, 4\), got \(5, 4\)"):
        FactorGraph.from_arrays(graph.prior, np.vstack([graph.quats, graph.quats[:1]]),
                                graph.trans, graph.log_s, graph.stacked)


def test_state_is_read_only_after_add_keyframe_and_optimize():
    """Every write leaves the state arrays read-only, and the poses are a
    view that cannot be assigned."""
    graph, _ = synthetic_graph(np.random.default_rng(23), n=4, trans_noise=1e-4)
    arrays = [graph.quats, graph.trans]  # after add_keyframe
    assert graph.optimize().iterations > 0
    arrays += [graph.quats, graph.trans]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[-1, 0] = 0.0
    with pytest.raises(AttributeError):
        graph.poses = graph.poses


def test_build_graph_runs_fk_once_per_reading(monkeypatch):
    """build_graph runs FK as one stacked call over all readings: no scalar
    fk_pose or compose call. Its deltas are fk_delta's bit for bit."""
    limb = default_limb()
    bundle = simulate(SimConfig(seed=0, keyframes=12, cloud_points_per_keyframe=1),
                      limb)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for module in (solver, kinematics, geometry):
        for name in ("fk_pose", "compose"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    graph = build_graph(bundle, limb)
    monkeypatch.undo()
    assert calls == []
    readings = bundle_readings(bundle)
    for i, f in enumerate(graph.factors[1::2], start=1):
        want = fk_delta(limb, readings[i - 1], readings[i])
        assert np.array_equal(f.delta.matrix(), want.matrix())


def bundle_readings(bundle) -> list[JointReading]:
    return [JointReading(t, a) for t, a in zip(bundle.timestamps, bundle.angles)]


@pytest.mark.parametrize("literal", [False, True])
def test_build_graph_equals_the_value_path(tmp_path, literal):
    """build_graph's rows equal those of a graph built one keyframe at a time
    from fk_delta values and the bundle's tracker deltas, bit for bit, and
    each of its starting poses is fk_pose of its reading, bit for bit; given
    those poses as its starts, the value graph saves the same bytes, and
    load_graph gives the saved rows back bit for bit. Both graphs list the
    factor values given to add_keyframe, field by field, bit for bit, and
    with no keyframes a graph lists only its prior."""
    limb = default_limb()
    bundle = simulate(SimConfig(seed=4, keyframes=40, cloud_points_per_keyframe=1), limb)
    graph = build_graph(bundle, limb, literal)

    readings = bundle_readings(bundle)
    starts = [fk_pose(limb, r.angles) for r in readings]
    values = FactorGraph(PriorFactor(pose=starts[0]))
    added = [values.prior]
    for i in range(1, len(readings)):
        added += [FkFactor(i, fk_delta(limb, readings[i - 1], readings[i])),
                  McFactor(i, Rotation(bundle.vo_quats[i - 1]), bundle.vo_trans[i - 1],
                           frame_aligned=not literal)]
        values.add_keyframe(*added[-2:])
    values = started_at(values, starts)

    def rows(g):
        return {"quats": g.quats, "trans": g.trans,
                **{f.name: getattr(g.stacked, f.name) for f in fields(StackedFactors)}}

    want = rows(values)
    assert np.array_equal(graph.quats, [p.rotation.quat for p in starts])
    assert np.array_equal(graph.trans, [p.translation for p in starts])
    for name, got in rows(graph).items():
        assert got.shape == want[name].shape and np.array_equal(got, want[name]), name
    assert graph.log_s == values.log_s

    save_graph(tmp_path / "rows.txt", graph)
    save_graph(tmp_path / "values.txt", values)
    assert (tmp_path / "rows.txt").read_bytes() == (tmp_path / "values.txt").read_bytes()
    back = load_graph(tmp_path / "rows.txt")
    for name, got in rows(back).items():
        assert np.array_equal(got, want[name]), name
    # graph.txt holds s, and exp(log s) is not always s: compare s
    assert back.scale.value == graph.scale.value

    for listed in (graph.factors, values.factors):
        assert len(listed) == len(added)
        for k, (got, given) in enumerate(zip(listed, added)):
            assert same_bits(got, given), k
    for empty in (FactorGraph(graph.prior),
                  FactorGraph.from_arrays(graph.prior, graph.quats[:1], graph.trans[:1],
                                          graph.log_s, StackedFactors.empty())):
        assert len(empty.factors) == 1 and empty.factors[0] is graph.prior


def same_bits(a, b) -> bool:
    """Whether two values are of one type and hold the same bits in every
    field, down to arrays and numbers."""
    if is_dataclass(a):
        return type(a) is type(b) and all(same_bits(getattr(a, f.name), getattr(b, f.name))
                                          for f in fields(a))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_total_cost_trivials():
    rng = np.random.default_rng(3)
    graph, _ = synthetic_graph(rng, n=10, s_true=1.0)
    # dead-reckoned init equals truth and s_true = 1 matches the initial scale
    assert graph.total_cost() < 1e-12

    graph = FactorGraph(PriorFactor(pose=Pose.identity()))
    graph.add_keyframe(FkFactor(1, Pose.identity()),
                       McFactor(1, Rotation.identity(), [1.0, 0.0, 0.0]))
    graph = started_at(graph, [Pose.identity(), Pose.from_parts(translation=[1.0, 0.0, 0.0])])
    # FK residual is exactly e1 (weight 1e-4); the tracker factor is satisfied
    assert graph.total_cost() == pytest.approx(1e-4, rel=1e-9)


def test_total_cost_matches_naive_summation():
    rng = np.random.default_rng(4)
    graph, _ = synthetic_graph(rng, n=12, s_true=2.0, trans_noise=1e-3,
                               rot_noise=1e-3)
    naive = sum(factor_cost(factor_residual(f, graph.poses, graph.scale),
                            factor_info_diag(f))
                for f in graph.factors)
    assert graph.total_cost() == pytest.approx(naive, rel=1e-14)


# --- optimize ----------------------------------------------------------------------


def test_noiseless_scale_recovery_matches_golden_section():
    rng = np.random.default_rng(5)
    graph, _ = synthetic_graph(rng, n=20, s_true=2.0)
    oracle = golden_section_scale(graph)
    report = graph.optimize()
    assert report.converged
    assert abs(graph.scale.value - 2.0) / 2.0 < 1e-6
    assert abs(graph.scale.value - oracle) / oracle < 1e-6
    assert report.final_cost < 1e-12


def test_optimum_is_fixed_point():
    rng = np.random.default_rng(6)
    graph, _ = synthetic_graph(rng, n=15, s_true=0.7, trans_noise=1e-4)
    first = graph.optimize()
    again = graph.optimize()
    assert again.iterations <= 1
    assert again.final_cost == pytest.approx(first.final_cost, abs=1e-12)


def test_wide_basin_in_log_scale():
    rng = np.random.default_rng(7)
    truth = smooth_truth_poses(rng, 20)
    graph = FactorGraph(PriorFactor(pose=truth[0]))
    for i in range(1, 20):
        delta = compose(inverse(truth[i - 1]), truth[i])
        graph.add_keyframe(FkFactor(i, delta),
                           McFactor(i, delta.rotation, delta.translation / 5.0))
    graph = started_at(graph, graph.poses, math.log(0.1))
    report = graph.optimize()
    assert report.converged
    assert abs(graph.scale.value - 5.0) / 5.0 < 1e-5


def test_accepted_costs_non_increasing_and_deterministic():
    rng = np.random.default_rng(8)
    graph_a, _ = synthetic_graph(rng, n=20, s_true=2.0, trans_noise=3e-4,
                                 rot_noise=2e-3)
    report_a = graph_a.optimize()
    costs = [report_a.initial_cost] + report_a.step_costs
    assert all(b <= a for a, b in zip(costs, costs[1:]))

    rng = np.random.default_rng(8)
    graph_b, _ = synthetic_graph(rng, n=20, s_true=2.0, trans_noise=3e-4,
                                 rot_noise=2e-3)
    report_b = graph_b.optimize()
    assert report_a.step_costs == report_b.step_costs
    assert report_a.final_cost == report_b.final_cost
    assert report_a.iterations == report_b.iterations
    for pa, pb in zip(graph_a.poses, graph_b.poses):
        assert np.array_equal(pa.matrix(), pb.matrix())
    assert graph_a.scale.log_value == graph_b.scale.log_value


def test_gauge_fixing_holds_first_pose():
    rng = np.random.default_rng(9)
    graph, truth = synthetic_graph(rng, n=20, s_true=2.0, trans_noise=3e-4,
                                   rot_noise=2e-3)
    graph.optimize()
    assert tangent_gap(truth[0], graph.poses[0]) < 1e-6


def test_scale_gauge_consistency():
    # scaling every tracker translation by k moves the estimate to s/k and
    # leaves the optimized poses where they were
    rng = np.random.default_rng(10)
    graph, truth = synthetic_graph(rng, n=20, s_true=2.0)
    graph.optimize()
    base_scale = graph.scale.value
    base_poses = [p for p in graph.poses]

    k = 4.0
    scaled = FactorGraph(PriorFactor(pose=truth[0]))
    for f in graph.factors:
        if isinstance(f, FkFactor):
            fk = f
        elif isinstance(f, McFactor):
            scaled.add_keyframe(fk, McFactor(f.i, f.delta_rot,
                                             k * f.delta_trans))
    scaled.optimize()
    assert abs(scaled.scale.value - base_scale / k) / (base_scale / k) < 1e-6
    for a, b in zip(base_poses, scaled.poses):
        assert tangent_gap(a, b) < 1e-8


# --- diagnostics -------------------------------------------------------------------


def test_marginal_stddev_shrinks_with_trajectory_length():
    rng = np.random.default_rng(11)
    long_graph, _ = synthetic_graph(rng, n=40, s_true=2.0, trans_noise=1e-4)
    rng = np.random.default_rng(11)
    short_graph, _ = synthetic_graph(rng, n=5, s_true=2.0, trans_noise=1e-4)
    long_graph.optimize()
    short_graph.optimize()
    s_long = long_graph.marginal_scale_stddev()
    s_short = short_graph.marginal_scale_stddev()
    assert 0.0 < s_long < s_short


def test_pure_rotation_scale_unobservable():
    # rotations only: the tracker never measures a translation, so nothing in
    # the data links map units to meters and only the weak anchor informs s
    spot = np.array([0.4, -0.1, 0.3])
    poses = [Pose.from_parts(rotation=Rotation.from_axis_angle([0, 0, 1], 0.15 * i),
                             translation=spot)
             for i in range(12)]
    graph = FactorGraph(PriorFactor(pose=poses[0]))
    for i in range(1, 12):
        delta = compose(inverse(poses[i - 1]), poses[i])
        graph.add_keyframe(FkFactor(i, delta),
                           McFactor(i, delta.rotation, delta.translation))
    report = graph.optimize()
    assert report.converged
    assert graph.marginal_scale_stddev() > 1e3
    assert abs(graph.scale.value - 1.0) < 1e-3


def test_marginal_stddev_finite_on_translating_data():
    rng = np.random.default_rng(12)
    graph, _ = synthetic_graph(rng, n=20, s_true=2.0)
    graph.optimize()
    stddev = graph.marginal_scale_stddev()
    assert np.isfinite(stddev) and stddev > 0.0


# --- file round trips ----------------------------------------------------------------


@pytest.mark.parametrize("method", ["optimize", "marginal_scale_stddev"])
def test_solver_holds_one_hessian(method):
    """The Hessian is held by its 6x6 blocks and factored block by block, so
    the solver's peak memory grows with n, not with a dense (6n+1)^2 matrix:
    at 100 keyframes it stays well below a quarter of one dense Hessian."""
    limb = default_limb()
    bundle = simulate(SimConfig(seed=0, keyframes=100, cloud_points_per_keyframe=1),
                      limb)
    graph = build_graph(bundle, limb)
    hessian_bytes = (6 * graph.num_poses + 1) ** 2 * 8
    tracemalloc.start()
    try:
        result = getattr(graph, method)()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if method == "optimize":
        assert result.converged
    assert peak < 0.25 * hessian_bytes, peak / hessian_bytes


def small_solve():
    rng = np.random.default_rng(14)
    graph, _ = synthetic_graph(rng, n=8, s_true=1.5, trans_noise=2e-4,
                               rot_noise=1e-3)
    return graph.optimize(), graph


def test_singular_trial_retries_with_more_damping(monkeypatch):
    """A damped system that will not factor costs one lambda step: the solve
    then matches, bit for bit, one started at ten times the initial lambda."""
    monkeypatch.setattr(solver, "INITIAL_LAMBDA", 1e-3)
    want_report, want = small_solve()
    real = solver.block_cholesky
    calls = []

    def fail_first(diag, *args, **kwargs):
        calls.append(diag.shape)
        if len(calls) == 1:
            diag[...] = np.nan  # a failed factor may leave its input half written
            raise np.linalg.LinAlgError("not positive definite")
        return real(diag, *args, **kwargs)

    monkeypatch.setattr(solver, "block_cholesky", fail_first)
    monkeypatch.setattr(solver, "INITIAL_LAMBDA", 1e-4)
    report, graph = small_solve()
    assert len(calls) > 1
    assert report == want_report
    assert graph.scale.log_value == want.scale.log_value
    for a, b in zip(graph.poses, want.poses):
        assert np.array_equal(a.translation, b.translation)
        assert np.array_equal(a.rotation.quat, b.rotation.quat)


def test_never_factoring_raises_singular(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(solver, "block_cholesky", fail)
    with pytest.raises(SingularNormalEquations, match="not positive-definite"):
        small_solve()


def dense_normal_equations(graph: FactorGraph):
    """H and g over [pose_0 .. pose_n-1, log s], summed factor by factor from
    the scalar Jacobians: the dense oracle of the structured solver."""
    n = graph.num_poses
    dim = 6 * n + 1

    def cols(key):
        return slice(6 * key[1], 6 * key[1] + 6) if key[0] == "pose" else slice(dim - 1, dim)

    h = np.zeros((dim, dim))
    g = np.zeros(dim)
    for f in graph.factors:
        r = factor_residual(f, graph.poses, graph.scale)
        info = factor_info_diag(f)
        jac = np.zeros((r.size, dim))
        for key, block in factor_jacobians(f, graph.poses, graph.scale).items():
            jac[:, cols(key)] = block.reshape(r.size, -1)
        h += jac.T @ (info[:, None] * jac)
        g += jac.T @ (info * r)
    return h, g


def test_marginal_stddev_matches_inverse_hessian():
    rng = np.random.default_rng(12)
    graph, _ = synthetic_graph(rng, n=20, s_true=2.0, trans_noise=1e-4)
    graph.optimize()
    h, _ = dense_normal_equations(graph)
    want = math.sqrt(np.linalg.inv(h)[-1, -1])
    assert graph.marginal_scale_stddev() == pytest.approx(want, rel=1e-9)


def moved_synthetic_graph(rng) -> FactorGraph:
    """12 keyframes moved off the dead-reckoned start, so every residual is nonzero."""
    graph, _ = synthetic_graph(rng, n=12, s_true=1.7, trans_noise=3e-4, rot_noise=2e-3)
    return started_at(graph, [compose(p, se3_exp(0.01 * rng.normal(size=6)))
                              for p in graph.poses])


@pytest.mark.parametrize("lam", [0.0, 1e-4, 1e2])
def test_damped_step_matches_dense_solve(lam):
    """One structured LM step solves the same damped system as a dense solve
    of the Hessian built from the scalar factor Jacobians."""
    graph = moved_synthetic_graph(np.random.default_rng(15))
    h, g = dense_normal_equations(graph)
    h[np.diag_indices_from(h)] += lam * np.diag(h)
    want = np.linalg.solve(h, -g)

    step, step_s = damped_step(normal_equations(graph.stacked, graph.prior, graph.quats,
                                                graph.trans, graph.log_s), lam)
    got = np.append(step.ravel(), step_s)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def one_pose_graph(rng) -> FactorGraph:
    """The prior alone, with pose 0 and the scale started off it."""
    graph = FactorGraph(PriorFactor(pose=rand_pose(rng), scale=2.0, scale_info=1.0))
    return started_at(graph, [compose(graph.prior.pose,
                                      se3_exp(twist_at_angle(rng, 0.1, 0.1)))])


@pytest.mark.parametrize("make", [moved_synthetic_graph, chain_graph, one_pose_graph],
                         ids=["synthetic", "chain", "one-pose"])
def test_normal_equations_blocks_match_the_dense_oracle(make):
    """Every block normal_equations assembles, and the cost, equals the dense
    system summed factor by factor from the scalar Jacobians, to 1e-12 of
    that block's largest entry: per pose for diag, sub, border and grad, since
    the prior's pose block can outweigh the rest by ten decades."""
    graph = make(np.random.default_rng(21))
    n = graph.num_poses
    h, g = dense_normal_equations(graph)
    pose_h = h[:-1, :-1].reshape(n, 6, n, 6)
    want = {"diag": pose_h[np.arange(n), :, np.arange(n)],
            "sub": np.concatenate([np.zeros((1, 6, 6)),
                                   pose_h[np.arange(1, n), :, np.arange(n - 1)]]),
            "border": h[:-1, -1].reshape(n, 6), "h_ss": h[-1, -1],
            "grad": g[:-1].reshape(n, 6), "grad_s": g[-1], "cost": scalar_cost(graph)}
    system = normal_equations(graph.stacked, graph.prior, graph.quats, graph.trans,
                              graph.log_s)
    for name, block in want.items():
        got, block = np.asarray(getattr(system, name)), np.asarray(block)
        assert got.shape == block.shape, name
        rows = (len(got), -1) if got.ndim else (1, 1)  # per pose, or the one scalar
        got, block = got.reshape(rows), block.reshape(rows)
        gap = np.max(np.abs(got - block), axis=1)
        assert (gap <= 1e-12 * np.max(np.abs(block), axis=1)).all(), (name, gap)


# what one linearization calls from factors and solver, after its first use
# has filled the measurement-only terms: one pass over the pose pairs
LINEARIZATION_CALLS = {"quat_product": 2, "so3_log_stacked": 1,
                       "so3_left_jacobian_inv_twins": 1, "se3_left_jacobian_inv_twins": 1,
                       "quat_matrix": 1, "se3_log_stacked": 0,
                       "so3_left_jacobian_inv_stacked": 0, "se3_left_jacobian_inv_stacked": 0}


@pytest.mark.parametrize("make", [chain_graph, one_pose_graph], ids=["chain", "one-pose"])
def test_normal_equations_makes_each_geometry_call_once(monkeypatch, make):
    """The kinematic, prior and tracker rows share one conj(q_k) q_{k+1}
    product, one product with the deltas' inverse rotations, one
    so3_log_stacked call and one so3 Jl^-1 call, whose rows also give the
    kinematic logs; Jl^-1 at -r comes with Jl^-1 at r from one se3 call, and
    the tracker rows take one quat_matrix over all poses. No map is called
    per kind or per sign. Calls that geometry makes inside those maps are
    not counted."""
    graph = make(np.random.default_rng(22))
    args = graph.stacked, graph.prior, graph.quats, graph.trans, graph.log_s
    normal_equations(*args)
    calls = Counter()

    def counted(fn):
        def wrapper(*a, **kw):
            calls[fn.__name__] += 1
            return fn(*a, **kw)
        return wrapper

    for module in (factors, solver):
        for name in LINEARIZATION_CALLS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    normal_equations(*args)
    assert {name: calls[name] for name in LINEARIZATION_CALLS} == LINEARIZATION_CALLS


def test_solve_bytes_do_not_depend_on_the_allocator(tmp_path):
    """Array alignment follows the allocator, and the block products go
    through BLAS matmul; a child process with every block above 128 KiB
    mapped on its own must still write the same graph.txt and report.txt
    for the seed-0 320-keyframe bundle as this process."""
    bundle, here, there = tmp_path / "bundle", tmp_path / "here", tmp_path / "there"
    write_bundle(bundle, simulate(SimConfig(seed=0, keyframes=320,
                                            cloud_points_per_keyframe=1)))
    assert cli.main(["solve", str(bundle), "--out", str(here)]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "graspmap.cli", "solve", str(bundle),
                    "--out", str(there)], env=env, capture_output=True, text=True,
                   timeout=120, check=True)
    for name in ("graph.txt", "report.txt"):
        assert (there / name).read_bytes() == (here / name).read_bytes(), name


def random_bordered_system(rng, n: int):
    """Dense SPD H over n pose blocks and log s with the solver's sparsity,
    as a sum of random factors each touching two neighbouring poses and
    log s, and its ``NormalEquations`` blocks with a random gradient."""
    dim = 6 * n + 1
    h = np.eye(dim)
    for k in range(n):
        cols = [*range(6 * k, min(6 * k + 12, dim - 1)), dim - 1]
        jac = rng.normal(size=(12, len(cols)))
        h[np.ix_(cols, cols)] += jac.T @ jac
    blocks = [slice(6 * k, 6 * k + 6) for k in range(n)]
    system = solver.NormalEquations(
        diag=np.array([h[b, b] for b in blocks]),
        sub=np.array([np.zeros((6, 6))] + [h[b, a] for a, b in zip(blocks, blocks[1:])]),
        border=np.array([h[b, -1] for b in blocks]), h_ss=h[-1, -1],
        grad=rng.normal(size=(n, 6)), grad_s=rng.normal(), cost=0.0)
    return h, system


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 33, 40, 41, 81, 160])
def test_reduction_matches_dense_solve_and_inverse(n):
    """Odd-even reduction at every chain length up to a few levels, odd and
    even, against a dense solve and inverse of the same system; from 81
    poses a level has enough pivots to invert their factors by substitution
    (160 poses: 80 pivots, then exactly SUBSTITUTION_PIVOTS)."""
    rng = np.random.default_rng(100 + n)
    h, system = random_bordered_system(rng, n)
    lam = 1e-4
    damped = h + lam * np.diag(np.diag(h))
    want = np.linalg.solve(damped, -np.append(system.grad.ravel(), system.grad_s))
    step, step_s = damped_step(system, lam)
    got = np.append(step.ravel(), step_s)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    factor = solver.block_cholesky(system.diag, system.sub, system.border, system.h_ss)
    assert 1.0 / factor.l_ss == pytest.approx(math.sqrt(np.linalg.inv(h)[-1, -1]),
                                              rel=1e-9)


@pytest.mark.parametrize("value, why", [(math.nan, "not finite"), (math.inf, "not finite"),
                                        (-1.0, "not positive-definite")],
                         ids=["nan", "inf", "minus-one"])
@pytest.mark.parametrize("n, k", [(7, 0), (7, 3), (7, 6), (81, 80), (160, 157)],
                         ids=["first", "middle", "last", "wide-level-0", "wide-level-1"])
def test_bad_pose_block_will_not_factor(value, why, n, k):
    """A pose block that is not finite or not positive-definite raises,
    naming its pose, wherever it sits in the chain, and at the levels wide
    enough to invert their pivots' factors by substitution (81 poses: 41
    pivots at level 0; 160 poses: pose 157 is among level 1's 40)."""
    diag = np.tile(np.eye(6), (n, 1, 1))
    diag[k, 2, 2] = value
    with pytest.raises(np.linalg.LinAlgError, match=f"^pose block {k} is {why}$"):
        solver.block_cholesky(diag, np.zeros((n, 6, 6)), np.zeros((n, 6)), 1.0)


@pytest.mark.parametrize("k", [4, 1, 3, 7], ids=["level-0", "level-1", "level-2", "level-3"])
def test_indefinite_block_named_at_its_level(k):
    """Over 9 poses the reduction eliminates 0, 2, 4, 6, 8 first, then 1, 5,
    then 3, then 7: the error names the original pose at each level."""
    _, system = random_bordered_system(np.random.default_rng(30), 9)
    system.diag[k] = -np.eye(6)
    with pytest.raises(np.linalg.LinAlgError,
                       match=f"^pose block {k} is not positive-definite$"):
        solver.block_cholesky(system.diag, system.sub, system.border, system.h_ss)


def scrambled_graph(seed: int) -> FactorGraph:
    """25 keyframes started about a radian and a meter off the truth."""
    rng = np.random.default_rng(seed)
    graph, _ = synthetic_graph(rng, n=25, s_true=2.0, trans_noise=3e-4,
                               rot_noise=2e-3)
    return started_at(graph, [compose(p, se3_exp(rng.normal(size=6))) for p in graph.poses])


def test_lm_trace_counts_rejected_steps(monkeypatch):
    """A scrambled start at a tiny lambda forces cost increases; the report
    counts them and logs lambda and max|g| per accepted step."""
    graph = scrambled_graph(16)
    monkeypatch.setattr(solver, "INITIAL_LAMBDA", 1e-9)
    report = graph.optimize()
    assert report.converged
    assert report.rejected_steps > 0
    assert len(report.step_lambdas) == len(report.step_grads) == report.iterations
    assert all(v > 0.0 for v in report.step_grads)
    # each accepted step divides lambda by 10 and each rejected one multiplies
    # it by 10, so the damping of the first accepted step shows the rejections
    # before it, and the lambdas stay on the 10^k grid above 1e-15
    assert report.step_lambdas[0] >= 1e-9
    for lam in report.step_lambdas:
        assert math.log10(lam / 1e-9) == pytest.approx(round(math.log10(lam / 1e-9)),
                                                      abs=1e-9)
    _, g = dense_normal_equations(graph)
    assert report.step_grads[-1] == pytest.approx(np.max(np.abs(g)), rel=1e-6)


def test_trial_past_exp_range_is_rejected(monkeypatch):
    """A trial step that sends log s past exp's range has no finite cost: it
    is rejected like any cost increase instead of ending the solve."""
    graph = scrambled_graph(20)
    monkeypatch.setattr(solver, "INITIAL_LAMBDA", 1e-9)
    report = graph.optimize()
    assert report.converged and report.rejected_steps > 0
    assert graph.total_cost() == pytest.approx(report.final_cost, rel=1e-9)


def test_trial_whose_scale_underflows_is_rejected(monkeypatch):
    """exp(-2000) is 0.0, which lowers this graph's cost (the poses stand
    still, the tracker says they move) but is no scale. Every trial step
    here lands there; each is rejected like a cost increase until lambda
    runs out, and the graph keeps the scale it had."""
    graph = FactorGraph(PriorFactor(pose=Pose.identity()))
    for i in (1, 2, 3):
        graph.add_keyframe(FkFactor(i, Pose.identity()),
                           McFactor(i, Rotation.identity(), [1.0, 0.0, 0.0]))
    start = graph.log_s
    trials = []

    def to_zero_scale(system, lam):
        trials.append(lam)
        return np.zeros((graph.num_poses, 6)), -2000.0 - start

    monkeypatch.setattr(solver, "damped_step", to_zero_scale)
    assert graph.total_cost() > 1e-3 > solver.normal_equations(
        graph.stacked, graph.prior, graph.quats, graph.trans, -2000.0).cost
    report = graph.optimize()
    assert report.iterations == 0 and report.rejected_steps == len(trials) > 1
    assert graph.log_s == start


@pytest.mark.parametrize("log_s", [800.0, -800.0])
def test_graph_refuses_a_log_scale_without_a_scale(log_s):
    """At log s = 800 the total cost would be NaN, at -800 the scale 0."""
    graph, _ = synthetic_graph(np.random.default_rng(16), n=3)
    with pytest.raises(ValueError, match="no finite positive scale"):
        FactorGraph.from_arrays(graph.prior, graph.quats, graph.trans, log_s, graph.stacked)


SCALAR_FACTOR_FUNCTIONS = [
    (solver, "factor_residual"), (solver, "factor_jacobians"),
    *((factors, name) for name in ("factor_residual", "factor_jacobians", "factor_cost",
                                   "fk_residual", "mc_residual", "prior_residual",
                                   "fk_jacobians", "mc_jacobians", "prior_jacobians")),
]


@pytest.mark.parametrize("built_by", ["build_graph", "add_keyframe"])
def test_no_graph_method_calls_a_scalar_factor_function(monkeypatch, built_by):
    """The graph runs on its arrays alone: with every scalar residual,
    Jacobian and cost function raising, a graph from build_graph and one
    grown by add_keyframe still solve, report their cost and their scale
    marginal."""
    def refuse(*args, **kwargs):
        raise AssertionError("a scalar factor function was called")

    for module, name in SCALAR_FACTOR_FUNCTIONS:
        monkeypatch.setattr(module, name, refuse)
    if built_by == "build_graph":
        limb = default_limb()
        graph = build_graph(simulate(SimConfig(seed=1, keyframes=12,
                                               cloud_points_per_keyframe=1), limb), limb)
    else:
        graph, _ = synthetic_graph(np.random.default_rng(15), n=12, trans_noise=1e-4)
    report = graph.optimize()
    assert report.converged and report.iterations > 0
    assert graph.total_cost() == report.final_cost
    assert 0.0 < graph.marginal_scale_stddev() < math.inf


def test_graph_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    graph, _ = synthetic_graph(rng, n=8, s_true=1.5, trans_noise=2e-4,
                               rot_noise=1e-3)
    graph.optimize()
    path = tmp_path / "graph.txt"
    save_graph(path, graph)
    back = load_graph(path)
    assert back.num_poses == graph.num_poses
    # graph.txt holds s, not log s, and both come back exact
    assert back.scale.value == graph.scale.value
    assert back.log_s == graph.log_s
    assert back.total_cost() == pytest.approx(graph.total_cost(), rel=1e-12)
    for a, b in zip(graph.poses, back.poses):
        assert tangent_gap(a, b) < 1e-15


def test_log_of_exp_is_a_fixed_point_with_the_same_exp():
    """y = log(exp(x)), the log s optimize stores, is what log rebuilds from
    exp(y), log(exp(y)) == y, and has x's scale, exp(y) == exp(x): over 10^6
    random x in [-5, 5]."""
    xs = np.random.default_rng(24).uniform(-5.0, 5.0, 10 ** 6).tolist()
    ys = list(map(math.log, map(math.exp, xs)))
    assert list(map(math.log, map(math.exp, ys))) == ys
    assert list(map(math.exp, ys)) == list(map(math.exp, xs))


def test_saved_solve_reloads_bit_for_bit(tmp_path):
    """load_graph gives back the state optimize stored, log s included, bit
    for bit, over 40 solves."""
    path = tmp_path / "graph.txt"
    for seed in range(40):
        graph, _ = synthetic_graph(np.random.default_rng(seed), n=8, s_true=1.5,
                                   trans_noise=2e-4, rot_noise=1e-3)
        assert graph.optimize().iterations > 0
        save_graph(path, graph)
        back = load_graph(path)
        assert back.log_s == graph.log_s, seed
        assert np.array_equal(back.quats, graph.quats) and np.array_equal(back.trans,
                                                                           graph.trans), seed


def test_report_file_round_trip(tmp_path):
    report = SolveReport(initial_cost=0.25, final_cost=1.25e-13, iterations=3,
                         converged=True, step_costs=[0.1, 0.01, 1.25e-13],
                         rejected_steps=2, step_lambdas=[1e-4, 1e-3, 1e-4],
                         step_grads=[3.5e-7, 2.25e-9, 1.0e-15])
    path = tmp_path / "report.txt"
    save_report(path, report)
    text = path.read_text()
    assert "rejected_steps 2\n" in text
    assert "step_lambda 1 0.001\n" in text and "step_grad 2 1.0000000000000001e-15\n" in text
    back = load_report(path)
    assert back == report


def step_trace(n):
    """The step records of an n-step report, as ``save_report`` writes them."""
    return "".join(f"{key} {k} 0.5\n" for key in ("step_cost", "step_lambda", "step_grad")
                   for k in range(n))


@pytest.mark.parametrize("iterations, steps, where", [
    (1, step_trace(1).replace("step_lambda", "step_cost 9 0.5\nstep_lambda"),
     "report.txt:7: record 'step_cost 9' where 'step_lambda 0' belongs"),
    (1, step_trace(1).replace("step_lambda 0", "step_lambda -1"),
     "report.txt:7: record 'step_lambda -1' where 'step_lambda 0' belongs"),
    (3, step_trace(3).replace("step_cost 1 0.5\n", ""),
     "report.txt:7: record 'step_cost 2' where 'step_cost 1' belongs"),
    (2, step_trace(2).replace("step_grad 1 0.5\n", ""),
     "report.txt: ends before record 'step_grad 1'"),
    (1000000000000, step_trace(2),
     "report.txt:8: record 'step_lambda 0' where 'step_cost 2' belongs"),
    (-1, step_trace(1), "report.txt:3: iterations must not be negative"),
], ids=["past-the-end", "negative", "gap", "short", "count-past-the-file", "count-negative"])
def test_report_step_indices_must_be_every_iteration(tmp_path, iterations, steps, where):
    """Each step record kind holds indices 0..iterations-1 in file order; the
    first record out of place names its line. The iteration count is checked
    against the file, so a corrupt count fails as fast as any other record."""
    path = tmp_path / "report.txt"
    path.write_text(f"initial_cost 0.25\nfinal_cost 0.125\niterations {iterations}\n"
                    f"converged true\nrejected_steps 0\n{steps}")
    with pytest.raises(CorruptArtifact) as exc:
        load_report(path)
    assert where in str(exc.value)


def test_solve_options_defaults():
    opts = SolveOptions()
    assert opts.max_iter == 100
    assert solver.REL_TOL == 1e-8
    assert solver.INITIAL_LAMBDA == 1e-4


@pytest.mark.parametrize("max_iter", [0, -1])
def test_solve_options_reject_max_iter_below_1(max_iter):
    """A run that may take no step can never converge: a bad parameter."""
    with pytest.raises(ValueError, match="max_iter"):
        SolveOptions(max_iter=max_iter)
