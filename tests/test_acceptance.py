"""Release gate: ten end-to-end guarantees, one test and one verdict line each.

Each test prints `[criterion N] PASS/FAIL: ...` with its tolerances inline so
a bare log excerpt is self-contained, then asserts.
"""

import math
import time

import numpy as np

from conftest import rand_pose, rand_twist_vector
from graspmap.cli import main
from graspmap.factors import (FkFactor, McFactor, PriorFactor, ScaleVar,
                              fk_jacobians, fk_residual, mc_jacobians,
                              mc_residual, prior_jacobians, prior_residual)
from graspmap.geometry import (Pose, Rotation, compose, inverse,
                               se3_exp, se3_log, so3_exp, so3_log)
from graspmap.kinematics import default_limb, fk_delta, fk_pose
from graspmap.mapping import (DEFAULT_VOXEL_SIZE, GripperMask, VoxelGrid,
                              build_mask, detect_graspable, fill_below,
                              load_graspable, voxelize)
from graspmap.simulation import (SimConfig, default_terrain,
                                 generate_trajectory, generate_vo, save_config)
from graspmap.solver import FactorGraph, save_report
from tests.test_factors import FD_STEP, FD_TOL, fd_pose_jacobian, fd_scale_jacobian
from tests.test_mapping import hemisphere_surface_cloud, small_mask
from tests.test_solver import tangent_gap

QUIET = dict(joint_noise_stddev=0.0, vo_trans_noise_stddev=0.0,
             vo_rot_noise_stddev=0.0)


def verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def fused_graph(config: SimConfig, vo_scale: float = 1.0,
                literal: bool = False):
    """Solve-side graph straight from the generators; no cloud involved."""
    model = default_limb()
    readings, truth = generate_trajectory(model, config)
    vo = generate_vo(truth, config)
    graph = FactorGraph(PriorFactor(pose=fk_pose(model, readings[0].angles)))
    for i in range(1, len(readings)):
        rot, trans = vo[i - 1]
        graph.add_keyframe(
            FkFactor(i, fk_delta(model, readings[i - 1], readings[i])),
            McFactor(i, rot, np.asarray(trans) * vo_scale,
                     frame_aligned=not literal))
    return graph, truth


def test_criterion_01_noiseless_scale_recovery(capsys):
    lines, ok = [], True
    for k, s_true in enumerate((0.5, 1.0, 2.0, 5.0)):
        config = SimConfig(seed=k, true_scale=s_true,
                           cloud_points_per_keyframe=1, **QUIET)
        graph, _ = fused_graph(config)
        t0 = time.perf_counter()
        report = graph.optimize()
        wall = time.perf_counter() - t0
        rel = abs(graph.scale.value - s_true) / s_true
        ok &= (report.converged and rel < 1e-6
               and report.final_cost < 1e-12 and wall < 1.0)
        lines.append(f"s*={s_true:g} rel={rel:.1e} cost={report.final_cost:.1e} "
                     f"t={wall * 1e3:.0f}ms")
    verdict(capsys, 1, ok,
            "noiseless scale recovery, 20 keyframes "
            "(rel < 1e-6, cost < 1e-12, < 1 s/case): " + "; ".join(lines))


def test_criterion_02_noisy_scale_recovery(capsys):
    t0 = time.perf_counter()
    errors = []
    for seed in range(50):
        config = SimConfig(seed=seed, true_scale=2.0,
                           cloud_points_per_keyframe=1)
        graph, _ = fused_graph(config)
        report = graph.optimize()
        assert report.converged
        errors.append(abs(graph.scale.value - 2.0) / 2.0)
    wall = time.perf_counter() - t0
    median = float(np.median(errors))
    p90 = float(np.percentile(errors, 90))
    ok = median < 0.02 and p90 < 0.05 and wall < 30.0
    verdict(capsys, 2, ok,
            f"noisy scale recovery over 50 seeds (median < 2%, p90 < 5%, "
            f"< 30 s): median={median:.2%} p90={p90:.2%} t={wall:.1f}s")


def _pipeline_anchor_error(tmp_path, name: str, config: SimConfig) -> float:
    """Full simulate-solve-detect run; inf-norm gap from the top anchor to
    the nearest true apex, inf if nothing was detected."""
    cfg = tmp_path / f"{name}.yaml"
    save_config(cfg, config)
    run = tmp_path / name
    assert main(["pipeline", "--config", str(cfg), "--out", str(run)]) == 0
    hits = load_graspable(run / "detect" / "graspable.csv")
    if not hits:
        return math.inf
    apexes = config.terrain.apexes()
    return float(min(np.abs(hits[0].position - apex).max() for apex in apexes))


def test_criterion_03_end_to_end_apex_placement(capsys, tmp_path):
    noiseless = [_pipeline_anchor_error(
        tmp_path, f"clean{seed}", SimConfig(seed=seed, true_scale=s, **QUIET))
        for seed, s in ((0, 0.5), (1, 1.0), (2, 2.0), (3, 3.0), (4, 5.0),
                        (5, 2.5))]
    noisy = [_pipeline_anchor_error(
        tmp_path, f"noisy{seed}", SimConfig(seed=seed, true_scale=2.0))
        for seed in range(100, 106)]
    clean_ok = all(e <= 0.002 for e in noiseless)
    noisy_hits = sum(e <= 0.006 for e in noisy)
    ok = clean_ok and noisy_hits >= 5
    fmt = lambda errs: ", ".join(f"{e * 1e3:.2f}" for e in errs)
    verdict(capsys, 3, ok,
            "top anchor vs true apex, 6 noiseless trials within 1 voxel "
            f"(2 mm) and >= 5/6 noisy trials within 3 voxels (6 mm): "
            f"noiseless mm [{fmt(noiseless)}], noisy mm [{fmt(noisy)}] "
            f"({noisy_hits}/6)")


def test_criterion_04_jacobians_match_finite_differences(capsys):
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(1000):
        t_prev, t_curr = rand_pose(rng), rand_pose(rng)
        near = compose(compose(inverse(t_prev), t_curr),
                       se3_exp(0.1 * rand_twist_vector(rng, 1.0)))
        s = ScaleVar.from_value(float(rng.uniform(0.3, 4.0)))

        fk = FkFactor(1, near)
        j_prev, j_curr = fk_jacobians(t_prev, t_curr, fk)
        worst = max(
            worst,
            np.abs(j_prev - fd_pose_jacobian(
                lambda p: fk_residual(p, t_curr, fk), t_prev, 6)).max(),
            np.abs(j_curr - fd_pose_jacobian(
                lambda p: fk_residual(t_prev, p, fk), t_curr, 6)).max())

        for aligned in (True, False):
            mc = McFactor(1, near.rotation, rng.normal(size=3),
                          frame_aligned=aligned)
            j_prev, j_curr, j_s = mc_jacobians(t_prev, t_curr, s, mc)
            worst = max(
                worst,
                np.abs(j_prev - fd_pose_jacobian(
                    lambda p: mc_residual(p, t_curr, s, mc), t_prev, 6)).max(),
                np.abs(j_curr - fd_pose_jacobian(
                    lambda p: mc_residual(t_prev, p, s, mc), t_curr, 6)).max(),
                np.abs(j_s - fd_scale_jacobian(
                    lambda v: mc_residual(t_prev, t_curr, v, mc), s)).max())

        prior = PriorFactor(pose=t_prev, scale=float(rng.uniform(0.5, 2.0)))
        j_pose, j_s = prior_jacobians(t_curr, s, prior)
        worst = max(
            worst,
            np.abs(j_pose - fd_pose_jacobian(
                lambda q: prior_residual(q, s, prior), t_curr, 7)).max(),
            np.abs(j_s - fd_scale_jacobian(
                lambda v: prior_residual(t_curr, v, prior), s)).max())
    ok = worst < FD_TOL
    verdict(capsys, 4, ok,
            f"analytic vs central-difference Jacobians, all factor types, "
            f"1000 random states (step {FD_STEP:g}, tol {FD_TOL:g}): "
            f"worst |diff| = {worst:.2e}")


def test_criterion_05_lie_round_trips(capsys):
    rng = np.random.default_rng(50)
    worst_rot, worst_se3 = 0.0, 0.0
    for _ in range(10_000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        phi = axis * rng.uniform(0.0, math.pi - 2e-6)
        worst_rot = max(worst_rot,
                        float(np.linalg.norm(so3_log(so3_exp(phi)) - phi)))
        v = rand_twist_vector(rng, math.pi - 2e-6)
        back = se3_log(se3_exp(v))
        worst_se3 = max(worst_se3, float(np.linalg.norm(back - v)))
    ok = worst_rot < 1e-10 and worst_se3 < 1e-10
    verdict(capsys, 5, ok,
            f"log(exp(x)) = x over 10^4 draws, angle <= pi - 2e-6 "
            f"(tol 1e-10): worst rotation {worst_rot:.2e}, "
            f"worst rigid motion {worst_se3:.2e}")


def test_criterion_06_lm_contract(capsys, tmp_path):
    worst_rise = -math.inf
    identical = True
    cases = ([SimConfig(seed=k, true_scale=s, cloud_points_per_keyframe=1,
                        **QUIET) for k, s in ((0, 0.5), (1, 2.0), (2, 5.0))]
             + [SimConfig(seed=k, true_scale=2.0, cloud_points_per_keyframe=1)
                for k in range(10, 15)])
    for k, config in enumerate(cases):
        graph_a, _ = fused_graph(config)
        report_a = graph_a.optimize()
        costs = [report_a.initial_cost] + report_a.step_costs
        worst_rise = max(worst_rise,
                         max(b - a for a, b in zip(costs, costs[1:])))
        graph_b, _ = fused_graph(config)
        report_b = graph_b.optimize()
        pa, pb = tmp_path / f"a{k}.txt", tmp_path / f"b{k}.txt"
        save_report(pa, report_a)
        save_report(pb, report_b)
        identical &= pa.read_bytes() == pb.read_bytes()
    ok = worst_rise <= 0.0 and identical
    verdict(capsys, 6, ok,
            f"accepted-step costs non-increasing and reruns bit-identical "
            f"over {len(cases)} solves: worst cost rise {worst_rise:.2e}, "
            f"reports identical={identical}")


def _gather_oracle_cells(occ: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-offset bounds-checked gather; no shifting tricks shared with the
    implementation."""
    nx, ny, nz = occ.shape
    gx, gy, gz = np.indices(occ.shape)
    good = np.ones(occ.shape, dtype=bool)
    for dx, dy, dz in offsets:
        tx, ty, tz = gx + dx, gy + dy, gz + dz
        inside = ((tx >= 0) & (tx < nx) & (ty >= 0) & (ty < ny)
                  & (tz >= 0) & (tz < nz))
        hit = np.zeros(occ.shape, dtype=bool)
        hit[inside] = occ[tx[inside], ty[inside], tz[inside]]
        good &= hit
    cells = np.argwhere(good)
    order = np.lexsort((cells[:, 1], cells[:, 0], -cells[:, 2]))
    return cells[order]


def _loop_oracle_cells(occ: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    nx, ny, nz = occ.shape
    out = []
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if all(0 <= x + dx < nx and 0 <= y + dy < ny
                       and 0 <= z + dz < nz and occ[x + dx, y + dy, z + dz]
                       for dx, dy, dz in offsets):
                    out.append((x, y, z))
    out.sort(key=lambda c: (-c[2], c[0], c[1]))
    return np.array(out).reshape(-1, 3)


def _matches_oracle(grid: VoxelGrid, mask: GripperMask) -> bool:
    cells = _gather_oracle_cells(grid.occupancy, mask.offsets)
    hits = detect_graspable(grid, mask)
    if len(hits) != len(cells):
        return False
    return all(np.array_equal(h.position, grid.cell_center(c))
               and h.support_count == len(mask)
               for h, c in zip(hits, cells))


def test_criterion_07_detection_oracle_equivalence(capsys):
    rng = np.random.default_rng(70)
    mask = small_mask()
    # the vectorized oracle must itself agree with a literal triple loop
    for _ in range(5):
        occ = rng.uniform(size=tuple(rng.integers(6, 13, size=3))) < 0.8
        assert np.array_equal(_gather_oracle_cells(occ, mask.offsets),
                              _loop_oracle_cells(occ, mask.offsets))
    agree = 0
    for k in range(100):
        dims = ((64, 64, 64) if k < 2
                else tuple(int(d) for d in rng.integers(8, 65, size=3)))
        occ = rng.uniform(size=dims) < rng.uniform(0.5, 0.95)
        grid = VoxelGrid(origin=rng.normal(size=3), voxel_size=0.003,
                         occupancy=occ)
        agree += _matches_oracle(grid, mask)
    fixture = fill_below(voxelize(hemisphere_surface_cloud(),
                                  DEFAULT_VOXEL_SIZE, min_points=1))
    fixture_ok = _matches_oracle(fixture, build_mask())
    ok = agree == 100 and fixture_ok
    verdict(capsys, 7, ok,
            f"detector equals brute-force mask slide exactly: "
            f"{agree}/100 random grids up to 64^3, hemisphere "
            f"fixture={'yes' if fixture_ok else 'no'}")


def test_criterion_08_scale_gauge(capsys):
    k = 4.0
    config = SimConfig(seed=80, true_scale=2.0, cloud_points_per_keyframe=1,
                       **QUIET)
    base, _ = fused_graph(config)
    base.optimize()
    scaled, _ = fused_graph(config, vo_scale=k)
    scaled.optimize()
    rel = abs(scaled.scale.value * k - base.scale.value) / base.scale.value
    pose_gap = max(tangent_gap(a, b)
                   for a, b in zip(base.poses, scaled.poses))
    ok = rel < 1e-6 and pose_gap < 1e-8
    verdict(capsys, 8, ok,
            f"tracker deltas x{k:g} divide the scale estimate by {k:g} "
            f"(rel < 1e-6) and leave poses put (< 1e-8): "
            f"rel={rel:.2e}, pose gap={pose_gap:.2e}")


def test_criterion_09_information_defaults(capsys):
    fk = FkFactor(1, Pose.identity()).info
    mc = McFactor(1, Rotation.identity(), np.zeros(3)).info
    ok = (np.array_equal(fk, np.full(6, 1e-4))
          and np.array_equal(mc, np.full(6, 1e-3)))
    verdict(capsys, 9, ok,
            f"default information diagonals bitwise exact: "
            f"kinematic={set(fk.tolist())}, tracker={set(mc.tolist())} "
            f"(want {{0.0001}} and {{0.001}})")


def test_criterion_10_scale_unobservable_under_pure_rotation(capsys):
    spot = np.array([0.4, -0.1, 0.3])
    poses = [Pose.from_parts(rotation=Rotation.from_axis_angle([0, 0, 1],
                                                               0.15 * i),
                             translation=spot) for i in range(12)]
    graph = FactorGraph(PriorFactor(pose=poses[0]))
    for i in range(1, 12):
        delta = compose(inverse(poses[i - 1]), poses[i])
        graph.add_keyframe(FkFactor(i, delta),
                           McFactor(i, delta.rotation, delta.translation))
    report = graph.optimize()
    stddev = graph.marginal_scale_stddev()
    drift = abs(graph.scale.value - 1.0)
    ok = report.converged and stddev > 1e3 and drift < 1e-3
    verdict(capsys, 10, ok,
            f"pure rotation leaves scale unobservable (stddev > 1e3) and "
            f"pinned to its prior (|s - 1| < 1e-3): stddev={stddev:.2e}, "
            f"drift={drift:.2e}")
