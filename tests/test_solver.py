"""Factor-graph assembly and the Levenberg-Marquardt loop.

The scale oracle is a golden-section scan over log s with the poses pinned to
the dead-reckoned kinematic chain: on noiseless data that one-dimensional
problem has the same optimum as the joint optimization, found without any of
the solver machinery under test.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import rand_pose, rand_twist_vector
from graspmap import geometry, kinematics, solver
from graspmap.errors import CorruptArtifact, IndexMismatch, SingularNormalEquations
from graspmap.factors import (FkFactor, McFactor, PriorFactor, ScaleVar,
                              factor_cost, factor_info_diag, factor_jacobians,
                              factor_residual)
from graspmap.geometry import (Pose, Rotation, compose, inverse,
                               se3_exp, se3_log, so3_exp)
from graspmap.kinematics import default_limb, fk_delta
from graspmap.simulation import SimConfig, simulate
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


def test_build_graph_runs_fk_once_per_reading(monkeypatch):
    """build_graph runs FK as one stacked call over all readings: no scalar
    fk_pose call, and compose only to dead-reckon each new pose from the one
    before. Its deltas are fk_delta's bit for bit."""
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
    assert calls == ["compose"] * (len(bundle.readings) - 1)
    for i, f in enumerate(graph.fks, start=1):
        want = fk_delta(limb, bundle.readings[i - 1], bundle.readings[i])
        assert np.array_equal(f.delta.matrix(), want.matrix())


def test_total_cost_trivials():
    rng = np.random.default_rng(3)
    graph, _ = synthetic_graph(rng, n=10, s_true=1.0)
    # dead-reckoned init equals truth and s_true = 1 matches the initial scale
    assert graph.total_cost() < 1e-12

    t0 = Pose.identity()
    graph = FactorGraph(PriorFactor(pose=t0))
    graph.add_keyframe(FkFactor(1, Pose.identity()),
                       McFactor(1, Rotation.identity(), [1.0, 0.0, 0.0]),
                       pose_init=Pose.from_parts(translation=[1.0, 0.0, 0.0]))
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
    graph = FactorGraph(PriorFactor(pose=truth[0]),
                        scale=ScaleVar.from_value(0.1))
    for i in range(1, 20):
        delta = compose(inverse(truth[i - 1]), truth[i])
        graph.add_keyframe(FkFactor(i, delta),
                           McFactor(i, delta.rotation, delta.translation / 5.0))
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


@pytest.mark.parametrize("lam", [0.0, 1e-4, 1e2])
def test_damped_step_matches_dense_solve(lam):
    """One structured LM step solves the same damped system as a dense solve
    of the Hessian built from the scalar factor Jacobians."""
    rng = np.random.default_rng(15)
    graph, _ = synthetic_graph(rng, n=12, s_true=1.7, trans_noise=3e-4,
                               rot_noise=2e-3)
    # move off the dead-reckoned start so every residual is nonzero
    graph.poses = [compose(p, se3_exp(0.01 * rng.normal(size=6)))
                   for p in graph.poses]
    h, g = dense_normal_equations(graph)
    h[np.diag_indices_from(h)] += lam * np.diag(h)
    want = np.linalg.solve(h, -g)

    stacked, prior, state = graph._packed()
    step, step_s = damped_step(normal_equations(stacked, prior, *state), lam)
    got = np.append(step.ravel(), step_s)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def scrambled_graph(seed: int) -> FactorGraph:
    """25 keyframes started about a radian and a meter off the truth."""
    rng = np.random.default_rng(seed)
    graph, _ = synthetic_graph(rng, n=25, s_true=2.0, trans_noise=3e-4,
                               rot_noise=2e-3)
    graph.poses = [compose(p, se3_exp(rng.normal(size=6)))
                   for p in graph.poses]
    return graph


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


def test_graph_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    graph, _ = synthetic_graph(rng, n=8, s_true=1.5, trans_noise=2e-4,
                               rot_noise=1e-3)
    graph.optimize()
    path = tmp_path / "graph.txt"
    save_graph(path, graph)
    back = load_graph(path)
    assert back.num_poses == graph.num_poses
    assert back.scale.log_value == pytest.approx(graph.scale.log_value, abs=0)
    assert back.total_cost() == pytest.approx(graph.total_cost(), rel=1e-12)
    for a, b in zip(graph.poses, back.poses):
        assert tangent_gap(a, b) < 1e-15


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


def test_report_without_lm_trace_loads(tmp_path):
    """Reports written before the LM trace lines still load, with an empty trace."""
    path = tmp_path / "report.txt"
    path.write_text("initial_cost 0.25\nfinal_cost 0.125\niterations 1\n"
                    "converged true\nstep_cost 0 0.125\n")
    assert load_report(path) == SolveReport(initial_cost=0.25, final_cost=0.125,
                                            iterations=1, converged=True,
                                            step_costs=[0.125])


@pytest.mark.parametrize("iterations, steps, where", [
    (1, "step_cost 0 0.7\nstep_cost 9 0.5\n", "report.txt:6: step_cost 9 "),
    (1, "step_cost 0 0.7\nstep_lambda -1 0.1\n", "report.txt:6: step_lambda -1 "),
    (3, "step_cost 0 0.7\nstep_cost 2 0.5\n", "report.txt: report has no step_cost 1 line"),
    (2, "step_cost 0 0.7\nstep_cost 1 0.5\nstep_grad 0 0.1\n",
     "report.txt: report has no step_grad 1 line"),
], ids=["past-the-end", "negative", "gap", "short"])
def test_report_step_indices_must_be_every_iteration(tmp_path, iterations, steps, where):
    """A step record kind that is present holds exactly indices 0..iterations-1."""
    path = tmp_path / "report.txt"
    path.write_text(f"initial_cost 0.25\nfinal_cost 0.125\niterations {iterations}\n"
                    f"converged true\n{steps}")
    with pytest.raises(CorruptArtifact) as exc:
        load_report(path)
    assert where in str(exc.value)


def test_solve_options_defaults():
    opts = SolveOptions()
    assert opts.max_iter == 100
    assert opts.rel_tol == 1e-8
    assert solver.INITIAL_LAMBDA == 1e-4


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1e-8])
def test_solve_options_reject_bad_rel_tol(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        SolveOptions(rel_tol=rel_tol)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_solve_options_reject_max_iter_below_1(max_iter):
    """A run that may take no step can never converge: a bad parameter."""
    with pytest.raises(ValueError, match="max_iter"):
        SolveOptions(max_iter=max_iter)
