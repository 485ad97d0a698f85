"""Factor-graph assembly and Levenberg-Marquardt optimization.

The state is the list of keyframe gripper poses T_0..T_n plus one global
log-scale variable. Each iteration linearizes every factor about the current
estimate, solves the damped normal equations with a dense Cholesky
factorization, and applies the step through the retraction

    T_k <- T_k @ exp(delta_k),      log s <- log s + delta_s.

Damping follows the classic Marquardt schedule: multiply lambda by 10 when a
step increases the cost, divide by 10 when it is accepted. Only one dense
system is alive at a time: the damped Hessian is factored in place, and each
trial state is linearized once, its cost deciding acceptance and its Hessian
and gradient becoming the next system. A rejected or singular trial has used
up the factored Hessian, so the current system is rebuilt. Evaluation order is
fixed (factors in insertion order, dense algebra), so repeated runs on the
same graph produce bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import CorruptArtifact, IndexMismatch, SingularNormalEquations
from .factors import (Factor, FkFactor, McFactor, PriorFactor, ScaleVar,
                      factor_cost, factor_info_diag, factor_jacobians,
                      factor_residual)
from .geometry import (Pose, Rotation, Twist, compose, pose_from_seven,
                       pose_to_seven, se3_exp)
from .kinematics import LimbModel, fk_delta, fk_pose
from .records import located, numbers, read_records, write_records
from .simulation import SimBundle


@dataclass
class SolveOptions:
    """Levenberg-Marquardt knobs; the defaults suit graphs of tens of keyframes."""

    max_iter: int = 100
    rel_tol: float = 1e-8
    # grad_tol sits near machine noise on purpose: the information values here
    # are 1e-3..1e-4, so gradients run ~1e6 smaller than in a unit-weight
    # problem and a looser floor would stop well short of the minimum
    grad_tol: float = 1e-14
    initial_lambda: float = 1e-4
    lambda_max: float = 1e8

    def __post_init__(self):
        if not 0.0 <= self.rel_tol < np.inf:
            raise ValueError(f"rel_tol must be finite and non-negative, got {self.rel_tol}")


@dataclass
class SolveReport:
    """Outcome of one optimize() call; step_costs holds accepted costs only."""

    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    step_costs: list[float] = field(default_factory=list)


class FactorGraph:
    """Poses, scale, and factors; exactly one prior anchors pose 0 and the scale."""

    def __init__(self, prior: PriorFactor, t0: Pose | None = None,
                 scale: ScaleVar | None = None):
        self.poses: list[Pose] = [prior.pose if t0 is None else t0]
        self.scale: ScaleVar = (ScaleVar.from_value(prior.scale)
                                if scale is None else scale)
        self.factors: list[Factor] = [prior]

    @property
    def num_poses(self) -> int:
        return len(self.poses)

    def add_keyframe(self, fk: FkFactor, mc: McFactor,
                     pose_init: Pose | None = None) -> None:
        """Append pose i with its two measurement factors.

        The new pose starts at the previous estimate composed with the FK
        delta (dead reckoning) unless an explicit initial value is given.
        """
        i = len(self.poses)
        if fk.i != i or mc.i != i:
            raise IndexMismatch(
                f"graph has poses 0..{i - 1}; next factors must use index {i}, "
                f"got fk.i={fk.i}, mc.i={mc.i}")
        if pose_init is None:
            pose_init = compose(self.poses[-1], fk.delta)
        self.poses.append(pose_init)
        self.factors.append(fk)
        self.factors.append(mc)

    def validate(self) -> None:
        priors = [f for f in self.factors if isinstance(f, PriorFactor)]
        if len(priors) != 1:
            raise IndexMismatch(f"graph must hold exactly one prior, found {len(priors)}")
        for f in self.factors:
            if isinstance(f, (FkFactor, McFactor)) and not (1 <= f.i < len(self.poses)):
                raise IndexMismatch(
                    f"factor index {f.i} out of range for {len(self.poses)} poses")

    def total_cost(self, poses=None, scale=None) -> float:
        """Sum of squared Mahalanobis residuals over all factors (no 1/2 prefactor),
        at the graph's estimate unless other poses and scale are given."""
        poses = self.poses if poses is None else poses
        scale = self.scale if scale is None else scale
        return sum(factor_cost(factor_residual(f, poses, scale), factor_info_diag(f))
                   for f in self.factors)

    # -- linear algebra -------------------------------------------------------

    def _var_slice(self, key) -> slice:
        if key[0] == "pose":
            return slice(6 * key[1], 6 * key[1] + 6)
        return slice(6 * len(self.poses), 6 * len(self.poses) + 1)

    def _linearize(self, poses, scale):
        """Gauss-Newton Hessian, gradient, and cost at the given state."""
        dim = 6 * len(poses) + 1
        h = np.zeros((dim, dim), order="F")
        g = np.zeros(dim)
        cost = 0.0
        for f in self.factors:
            r = factor_residual(f, poses, scale)
            lam = factor_info_diag(f)
            wr = lam * r
            cost += float(r @ wr)
            blocks = [(self._var_slice(k), j.reshape(r.size, -1))
                      for k, j in factor_jacobians(f, poses, scale).items()]
            for sl_a, j_a in blocks:
                g[sl_a] += j_a.T @ wr
                wj_a = lam[:, None] * j_a
                for sl_b, j_b in blocks:
                    h[sl_a, sl_b] += wj_a.T @ j_b
        return h, g, cost

    def _retract(self, poses, scale, delta):
        new_poses = [compose(p, se3_exp(Twist(delta[6 * k:6 * k + 3],
                                              delta[6 * k + 3:6 * k + 6])))
                     for k, p in enumerate(poses)]
        new_scale = ScaleVar(scale.log_value + float(delta[-1]))
        return new_poses, new_scale

    # -- optimization ----------------------------------------------------------

    def optimize(self, options: SolveOptions | None = None) -> SolveReport:
        """Minimize the total cost in place; returns the iteration report."""
        self.validate()
        opts = options or SolveOptions()
        poses, scale = list(self.poses), self.scale
        h, g, cost = self._linearize(poses, scale)
        initial_cost = cost
        step_costs: list[float] = []
        converged = False
        lam = opts.initial_lambda

        while len(step_costs) < opts.max_iter:
            if np.max(np.abs(g)) < opts.grad_tol:
                converged = True
                break
            # damp h itself, which LAPACK then factors in place
            h[np.diag_indices_from(h)] += lam * np.diag(h)
            try:
                cf = scipy.linalg.cho_factor(h, lower=True, overwrite_a=True,
                                             check_finite=False)
            except scipy.linalg.LinAlgError:
                lam *= 10.0
                if lam > opts.lambda_max:
                    raise SingularNormalEquations(
                        f"normal equations not positive-definite at lambda={lam:.1e}")
            else:
                delta = scipy.linalg.cho_solve(cf, -g, check_finite=False)
                del cf, h  # one dense system at a time
                cand_poses, cand_scale = self._retract(poses, scale, delta)
                h, cand_g, cand_cost = self._linearize(cand_poses, cand_scale)
                if cand_cost <= cost:
                    rel_decrease = (cost - cand_cost) / cost if cost > 0.0 else 0.0
                    poses, scale, g, cost = cand_poses, cand_scale, cand_g, cand_cost
                    step_costs.append(cost)
                    lam = max(lam / 10.0, 1e-15)
                    if rel_decrease < opts.rel_tol:
                        converged = True
                        break
                    continue
                lam *= 10.0
                if lam > opts.lambda_max:
                    # No step of any admissible length lowers the cost: the
                    # relative decrease is zero, which meets rel_tol.
                    converged = True
                    break
            # the failed trial used up h: drop it, then rebuild the current system
            del h
            h, g, cost = self._linearize(poses, scale)

        self.poses, self.scale = poses, scale
        return SolveReport(initial_cost=initial_cost,
                           final_cost=cost,
                           iterations=len(step_costs),
                           converged=converged,
                           step_costs=step_costs)

    def marginal_scale_stddev(self) -> float:
        """Marginal standard deviation of log s from the Gauss-Newton Hessian.

        Large values flag trajectories whose translations do not constrain the
        map scale (the estimate then just reproduces the prior).
        """
        h, _, _ = self._linearize(self.poses, self.scale)
        try:
            factor, _ = scipy.linalg.cho_factor(h, lower=True, overwrite_a=True,
                                                check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SingularNormalEquations("Gauss-Newton Hessian is singular") from exc
        # log s is the last variable, so with H = L L^T its variance is
        # 1 / L[-1, -1]^2, rounded exactly as cho_solve would round it
        l = factor[-1, -1]
        return float(np.sqrt(1.0 / l / l))


def build_graph(bundle: SimBundle, model: LimbModel,
                literal: bool = False) -> FactorGraph:
    """Assemble the fusion graph from a bundle: prior at FK of the first
    reading, then one kinematic and one tracker factor per later keyframe."""
    graph = FactorGraph(PriorFactor(pose=fk_pose(model, bundle.readings[0].angles)))
    for i in range(1, len(bundle.readings)):
        rot, trans = bundle.vo_deltas[i - 1]
        graph.add_keyframe(
            FkFactor(i, fk_delta(model, bundle.readings[i - 1], bundle.readings[i])),
            McFactor(i, rot, trans, frame_aligned=not literal))
    return graph


# --- graph file format ----------------------------------------------------------
#
# One record per line in the shared plain-text format (see records.py):
#
#   pose <i> tx ty tz qw qx qy qz
#   scale <value>
#   prior tx ty tz qw qx qy qz <scale> <pose_info x6> <scale_info>
#   fk <i> tx ty tz qw qx qy qz <info x6>
#   mc <i> dtx dty dtz qw qx qy qz <info x6> aligned|literal

def save_graph(path, graph: FactorGraph) -> None:
    rows = [["pose", i, *pose_to_seven(p)] for i, p in enumerate(graph.poses)]
    rows.append(["scale", graph.scale.value])
    for f in graph.factors:
        if isinstance(f, PriorFactor):
            rows.append(["prior", *pose_to_seven(f.pose), f.scale, *f.pose_info,
                         f.scale_info])
        elif isinstance(f, FkFactor):
            rows.append(["fk", f.i, *pose_to_seven(f.delta), *f.info])
        elif isinstance(f, McFactor):
            rows.append(["mc", f.i, *f.delta_trans, *f.delta_rot.quat, *f.info,
                         "aligned" if f.frame_aligned else "literal"])
    write_records(path, rows, comment="factor graph: poses, scale, factors")


def load_graph(path) -> FactorGraph:
    poses: dict[int, Pose] = {}
    scale: ScaleVar | None = None
    prior: PriorFactor | None = None
    fks: dict[int, FkFactor] = {}
    mcs: dict[int, McFactor] = {}
    for lineno, tok in read_records(path):
        with located(path, lineno):
            kind = tok[0]
            if kind == "pose":
                poses[int(tok[1])] = pose_from_seven(numbers(path, lineno, tok[2:], 7))
            elif kind == "scale":
                scale = ScaleVar.from_value(numbers(path, lineno, tok[1:], 1)[0])
            elif kind == "prior":
                vals = numbers(path, lineno, tok[1:], 15)
                prior = PriorFactor(pose=pose_from_seven(vals[0:7]), scale=vals[7],
                                    pose_info=np.array(vals[8:14]),
                                    scale_info=vals[14])
            elif kind == "fk":
                vals = numbers(path, lineno, tok[2:], 13)
                i = int(tok[1])
                fks[i] = FkFactor(i, pose_from_seven(vals[0:7]),
                                  info=np.array(vals[7:13]))
            elif kind == "mc" and tok[-1] in ("aligned", "literal"):
                vals = numbers(path, lineno, tok[2:-1], 13)
                i = int(tok[1])
                mcs[i] = McFactor(i, Rotation(np.array(vals[3:7])),
                                  np.array(vals[0:3]), info=np.array(vals[7:13]),
                                  frame_aligned=(tok[-1] == "aligned"))
            else:
                raise ValueError(f"unrecognized {kind!r} record")
    n = len(poses)
    if prior is None or scale is None or n == 0 or sorted(poses) != list(range(n)) \
            or sorted(fks) != list(range(1, n)) or sorted(mcs) != list(range(1, n)):
        raise CorruptArtifact(f"{path}: graph file needs a prior, a scale, and "
                              f"poses/factors covering indices 0..{n - 1} contiguously")
    graph = FactorGraph(prior, t0=poses[0], scale=scale)
    for i in range(1, n):
        graph.add_keyframe(fks[i], mcs[i], pose_init=poses[i])
    return graph


# --- solve report file -----------------------------------------------------------

def save_report(path, report: SolveReport) -> None:
    write_records(path, [["initial_cost", report.initial_cost],
                         ["final_cost", report.final_cost],
                         ["iterations", report.iterations],
                         ["converged", "true" if report.converged else "false"],
                         *(["step_cost", k, c] for k, c in enumerate(report.step_costs))])


def load_report(path) -> SolveReport:
    fields: dict[str, float | int | bool] = {}
    steps: dict[int, float] = {}
    for lineno, tok in read_records(path):
        with located(path, lineno):
            key, vals = tok[0], tok[1:]
            if key == "step_cost":
                steps[int(vals[0])] = numbers(path, lineno, vals[1:], 1)[0]
            elif key in ("initial_cost", "final_cost", "iterations"):
                kind = int if key == "iterations" else float
                fields[key] = numbers(path, lineno, vals, 1, kind)[0]
            elif key == "converged" and vals in (["true"], ["false"]):
                fields[key] = vals == ["true"]
    missing = {"initial_cost", "final_cost", "iterations", "converged"} - set(fields)
    if missing:
        raise CorruptArtifact(f"{path}: report has no {', '.join(sorted(missing))} line")
    return SolveReport(**fields, step_costs=[steps[k] for k in sorted(steps)])
