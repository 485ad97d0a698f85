"""Factor-graph assembly and Levenberg-Marquardt optimization.

The state is the list of keyframe gripper poses T_0..T_n plus one global
log-scale variable. Each iteration linearizes every factor about the current
estimate, solves the damped normal equations, and applies the step through
the retraction

    T_k <- T_k @ exp(delta_k),      log s <- log s + delta_s.

The graph is a chain, and ``FactorGraph`` stores it as one: a prior on pose 0
and the scale, then for each keyframe k >= 1 one kinematic and one tracker
factor tying pose k-1 to pose k, held in two lists in keyframe order.
Linearization is stacked: the two lists are packed into arrays once per call
(``StackedFactors``) and evaluated for all keyframe pairs at once, pairing
poses [:-1] with [1:]; only the prior goes through the scalar factor
functions. The Gauss-Newton Hessian is therefore block-tridiagonal in 6x6
pose blocks plus one dense border row for log s, and each pair's terms add
into those blocks by slices. ``NormalEquations`` holds just the blocks, and
``block_cholesky`` factors the system by odd-even (cyclic) block reduction
(Heller, SIAM J. Numer. Anal. 1976): each level eliminates every other pose
block of the chain in one batched NumPy step, so n blocks take
floor(log2 n) + 1 levels, in O(n) time and memory, carrying the border through
to a last pivot l_ss, the Schur complement of the poses on log s. No dense
Hessian is ever formed, and the solver needs no LAPACK beyond NumPy's. The
marginal standard deviation of log s is 1 / l_ss.

Damping follows the classic Marquardt schedule: the diagonal is scaled by
1 + lambda, lambda is multiplied by 10 when a step increases the cost or the
damped system will not factor, and divided by 10 when a step is accepted.
Each trial state is linearized once, its cost deciding acceptance and its
system becoming the next one; a rejected trial leaves the current system as
it was. Evaluation order is fixed, so repeated runs on the same graph produce
bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy  # noqa: F401 -- read only by perfbench/tracer.py

from .errors import CorruptArtifact, IndexMismatch, SingularNormalEquations
from .factors import (Factor, FkFactor, McFactor, PriorFactor, ScaleVar,
                      StackedFactors, factor_cost, factor_info_diag,
                      factor_jacobians, factor_residual)
from .geometry import (Pose, Rotation, compose, compose_stacked,
                       inverse_stacked, pose_from_seven, pose_to_seven,
                       quat_product, quat_rotate, se3_exp_stacked)
from .kinematics import LimbModel, fk_poses
from .records import first_record, located, numbers, read_records, write_records
from .simulation import SimBundle

# GRAD_TOL sits near machine noise on purpose: the information values here
# are 1e-3..1e-4, so gradients run ~1e6 smaller than in a unit-weight
# problem and a looser floor would stop well short of the minimum
GRAD_TOL = 1e-14
INITIAL_LAMBDA = 1e-4
LAMBDA_MAX = 1e8


@dataclass
class SolveOptions:
    """Levenberg-Marquardt knobs; the defaults suit graphs of tens of keyframes."""

    max_iter: int = 100
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.rel_tol < np.inf:
            raise ValueError(f"rel_tol must be finite and non-negative, got {self.rel_tol}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass
class SolveReport:
    """Outcome of one optimize() call.

    step_costs holds accepted costs only. Entry k of step_lambdas is the
    damping that produced accepted step k, and of step_grads the largest
    gradient component at the state that step reached. rejected_steps counts
    the steps that were solved but raised the cost; a damped system that will
    not factor yields no step and is not counted.
    """

    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    step_costs: list[float] = field(default_factory=list)
    rejected_steps: int = 0
    step_lambdas: list[float] = field(default_factory=list)
    step_grads: list[float] = field(default_factory=list)


# --- normal equations by blocks ---------------------------------------------------


@dataclass
class NormalEquations:
    """Gauss-Newton system H x = -g at one state, held by blocks.

    Over the 6x6 pose blocks, diag[k] = H[k, k] and sub[k] = H[k, k-1]
    (sub[0] is zero); border[k] = H[k, s] and h_ss = H[s, s] for log s.
    grad and grad_s split g the same way; cost is the total cost at the state.
    """

    diag: np.ndarray    # (n, 6, 6)
    sub: np.ndarray     # (n, 6, 6)
    border: np.ndarray  # (n, 6)
    h_ss: float
    grad: np.ndarray    # (n, 6)
    grad_s: float
    cost: float

    def grad_max(self) -> float:
        return max(float(np.max(np.abs(self.grad))), abs(self.grad_s))


def _add_pairs(system: NormalEquations, info, r, j_prev, j_curr) -> np.ndarray:
    """Add one factor per keyframe pair (row k ties pose k to pose k+1) to the
    pose blocks and gradient; returns the information-weighted residuals."""
    wr = info * r
    wj_prev = info[..., None] * j_prev
    wj_curr = info[..., None] * j_curr
    system.diag[:-1] += np.einsum("kri,krj->kij", j_prev, wj_prev)
    system.diag[1:] += np.einsum("kri,krj->kij", j_curr, wj_curr)
    system.sub[1:] += np.einsum("kri,krj->kij", j_curr, wj_prev)
    system.grad[:-1] += np.einsum("kri,kr->ki", j_prev, wr)
    system.grad[1:] += np.einsum("kri,kr->ki", j_curr, wr)
    system.cost += float(np.einsum("kr,kr->", r, wr))
    return wr


def normal_equations(stacked: StackedFactors, prior: PriorFactor,
                     quats: np.ndarray, trans: np.ndarray,
                     log_s: float) -> NormalEquations:
    """Gauss-Newton system of a chain graph at the state (quats, trans, log_s)."""
    n = len(quats)
    scale = ScaleVar(log_s)
    pose0 = [Pose(Rotation(quats[0]), trans[0])]
    r = factor_residual(prior, pose0, scale)
    info = factor_info_diag(prior)
    jac = factor_jacobians(prior, pose0, scale)
    j_pose, j_s = jac[("pose", 0)], jac[("scale",)]
    wr = info * r
    wj_s = info * j_s
    system = NormalEquations(diag=np.zeros((n, 6, 6)), sub=np.zeros((n, 6, 6)),
                             border=np.zeros((n, 6)), h_ss=float(j_s @ wj_s),
                             grad=np.zeros((n, 6)), grad_s=float(j_s @ wr),
                             cost=float(r @ wr))
    system.diag[0] += j_pose.T @ (info[:, None] * j_pose)
    system.border[0] += j_pose.T @ wj_s
    system.grad[0] += j_pose.T @ wr

    _add_pairs(system, stacked.fk_info, *stacked.fk(quats, trans))
    r, j_prev, j_curr, j_s = stacked.mc(quats, trans, log_s)
    wr = _add_pairs(system, stacked.mc_info, r, j_prev, j_curr)
    wj_s = stacked.mc_info * j_s
    system.border[:-1] += np.einsum("kri,kr->ki", j_prev, wj_s)
    system.border[1:] += np.einsum("kri,kr->ki", j_curr, wj_s)
    system.h_ss += float(np.einsum("kr,kr->", j_s, wj_s))
    system.grad_s += float(np.einsum("kr,kr->", j_s, wr))
    return system


def _mv(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[k] @ vecs[k] for every k."""
    return (mats @ vecs[..., None])[..., 0]


def _t(mats: np.ndarray) -> np.ndarray:
    return np.swapaxes(mats, -1, -2)


def _cholesky_blocks(blocks: np.ndarray, poses: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of pivots; raises naming the first
    that is not finite or not positive-definite by its pose index.
    ``np.linalg.cholesky`` returns NaN for a NaN input instead of raising,
    so finiteness is checked first."""
    if np.isfinite(blocks).all():
        try:
            return np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            pass
    for k, block in zip(poses, blocks):
        if not np.isfinite(block).all():
            raise np.linalg.LinAlgError(f"pose block {k} is not finite")
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(f"pose block {k} is not positive-definite") from None
    return np.linalg.cholesky(blocks)


@dataclass
class BlockCholesky:
    """Cholesky factor L of a bordered block-tridiagonal H = L L^T, taken in
    odd-even order: each level's eliminated blocks, level by level, then log s.

    Level i holds, for each block e it eliminates, the inverse Cholesky
    factor L_e^-1 of its pivot, (m_e, 6, 6), and w = L_e^-1 [H[e, e-1]
    H[e, e+1] H[e, s]], (m_e, 6, 13): its couplings to the kept blocks left
    and right of it (zero where it has none) and to log s. l_ss = L[s, s].
    """

    levels: list[tuple[np.ndarray, np.ndarray]]
    l_ss: float

    def solve(self, b: np.ndarray, b_s: float) -> tuple[np.ndarray, float]:
        """x, x_s with H [x; x_s] = [b; b_s]: forward through the levels,
        then back out."""
        ys = []
        for inv_l, w in self.levels:
            y = _mv(inv_l, b[0::2])
            wy = _mv(_t(w), y)
            kept = b[1::2] - wy[:len(b) // 2, 6:12]
            kept[:len(y) - 1] -= wy[1:, :6]
            b_s = b_s - float(np.sum(wy[:, 12]))
            ys.append(y)
            b = kept
        x_s = b_s / self.l_ss / self.l_ss
        x = b  # the last level keeps no blocks, so b is empty here
        for (inv_l, w), y in zip(reversed(self.levels), reversed(ys)):
            # side[i] and side[i + 1] are the kept blocks left and right of
            # eliminated block i, zero where it has none
            side = np.zeros((len(y) + 1, 6))
            side[1:len(x) + 1] = x
            known = np.concatenate([side[:-1], side[1:], np.full((len(y), 1), x_s)], axis=1)
            chain = np.empty((len(y) + len(x), 6))
            chain[0::2], chain[1::2] = _mv(_t(inv_l), y - _mv(w, known)), x
            x = chain
        return x, x_s


def block_cholesky(diag: np.ndarray, sub: np.ndarray, border: np.ndarray,
                   h_ss: float) -> BlockCholesky:
    """Factor H given by the blocks of ``NormalEquations`` by odd-even
    (cyclic) reduction.

    Each level eliminates the even-indexed blocks of the chain at once. They
    touch only the odd blocks either side and log s, so each pivot is its
    block as it stands. With w = L_e^-1 times its couplings, the Gram matrix
    w^T w holds every update: the kept blocks' diagonals lose their share,
    each pair of kept blocks gains the coupling -w_right^T w_left, and the
    border and h_ss lose theirs. The odd blocks form the next level's chain,
    and once none are left h_ss is the Schur complement of the poses on
    log s, l_ss^2. Raises ``np.linalg.LinAlgError`` naming the pose when a
    pivot is not finite or not positive-definite, and when the last pivot
    is not positive.
    """
    poses = np.arange(len(diag))
    coupling = np.zeros((len(diag) + 1, 6, 6))  # H[j, j-1]; rows 0 and m stay zero
    coupling[1:-1] = sub[1:]
    levels = []
    while len(diag):
        m_e, m_o = (len(diag) + 1) // 2, len(diag) // 2
        inv_l = np.linalg.inv(_cholesky_blocks(diag[0::2], poses[0::2]))
        w = inv_l @ np.concatenate([coupling[0:-1:2], _t(coupling[1::2]),
                                    border[0::2, :, None]], axis=2)
        levels.append((inv_l, w))
        gram = _t(w) @ w
        diag = diag[1::2] - gram[:m_o, 6:12, 6:12]
        diag[:m_e - 1] -= gram[1:, :6, :6]
        border = border[1::2] - gram[:m_o, 6:12, 12]
        border[:m_e - 1] -= gram[1:, :6, 12]
        h_ss = h_ss - float(np.sum(gram[:, 12, 12]))
        coupling = np.zeros((m_o + 1, 6, 6))
        coupling[:m_o] = -gram[:m_o, 6:12, :6]
        poses = poses[1::2]
    if not (np.isfinite(h_ss) and h_ss > 0.0):
        raise np.linalg.LinAlgError(f"scale pivot {h_ss!r} is not positive")
    return BlockCholesky(levels, float(np.sqrt(h_ss)))


def damped_step(system: NormalEquations, lam: float) -> tuple[np.ndarray, float]:
    """Pose steps (n, 6) and log-scale step of (H + lam diag(H)) x = -g.

    Raises ``np.linalg.LinAlgError`` when the damped system will not factor.
    """
    diag = system.diag.copy()
    d = np.arange(6)
    diag[:, d, d] += lam * system.diag[:, d, d]
    factor = block_cholesky(diag, system.sub, system.border,
                            system.h_ss + lam * system.h_ss)
    return factor.solve(-system.grad, -system.grad_s)


def _retract(quats, trans, log_s, step, step_s):
    """T_k @ exp(step_k) for every pose, and log s + step_s."""
    exp_quat, exp_trans = se3_exp_stacked(step)
    return (quat_product(quats, exp_quat), quat_rotate(quats, exp_trans) + trans,
            log_s + step_s)


class FactorGraph:
    """Poses, scale, and a chain of factors: the one prior anchors pose 0 and
    the scale, and fks[k-1], mcs[k-1] tie pose k-1 to pose k."""

    def __init__(self, prior: PriorFactor, t0: Pose | None = None,
                 scale: ScaleVar | None = None):
        self.poses: list[Pose] = [prior.pose if t0 is None else t0]
        self.scale: ScaleVar = (ScaleVar.from_value(prior.scale)
                                if scale is None else scale)
        self.prior = prior
        self.fks: list[FkFactor] = []
        self.mcs: list[McFactor] = []

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
        self.fks.append(fk)
        self.mcs.append(mc)

    @property
    def factors(self) -> tuple[Factor, ...]:
        """Every factor in graph order: prior, fk1, mc1, fk2, mc2, ..."""
        return (self.prior, *(f for pair in zip(self.fks, self.mcs) for f in pair))

    def total_cost(self) -> float:
        """Sum of squared Mahalanobis residuals over all factors (no 1/2 prefactor)."""
        return sum(factor_cost(factor_residual(f, self.poses, self.scale), factor_info_diag(f))
                   for f in self.factors)

    def _packed(self):
        """The chain's factors as arrays, the prior, and the estimate as a
        state (quats, trans, log_s) for ``normal_equations``."""
        state = (np.array([p.rotation.quat for p in self.poses]),
                 np.array([p.translation for p in self.poses]),
                 self.scale.log_value)
        return StackedFactors.pack(self.fks, self.mcs), self.prior, state

    # -- optimization ----------------------------------------------------------

    def optimize(self, options: SolveOptions | None = None) -> SolveReport:
        """Minimize the total cost in place; returns the iteration report."""
        opts = options or SolveOptions()
        stacked, prior, state = self._packed()
        system = normal_equations(stacked, prior, *state)
        report = SolveReport(initial_cost=system.cost, final_cost=system.cost,
                             iterations=0, converged=False)
        lam = INITIAL_LAMBDA

        while len(report.step_costs) < opts.max_iter:
            if system.grad_max() < GRAD_TOL:
                report.converged = True
                break
            try:
                step = damped_step(system, lam)
            except np.linalg.LinAlgError:
                lam *= 10.0
                if lam > LAMBDA_MAX:
                    raise SingularNormalEquations(
                        f"normal equations not positive-definite at lambda={lam:.1e}")
                continue
            cand_state = _retract(*state, *step)
            # a step too long to evaluate (say, log s past exp's range) gives
            # a non-finite cost, which the comparison below rejects
            with np.errstate(over="ignore", invalid="ignore"):
                cand = normal_equations(stacked, prior, *cand_state)
            if cand.cost <= system.cost:
                rel_decrease = ((system.cost - cand.cost) / system.cost
                                if system.cost > 0.0 else 0.0)
                state, system = cand_state, cand
                report.step_costs.append(system.cost)
                report.step_lambdas.append(lam)
                report.step_grads.append(system.grad_max())
                lam = max(lam / 10.0, 1e-15)
                if rel_decrease < opts.rel_tol:
                    report.converged = True
                    break
                continue
            report.rejected_steps += 1
            lam *= 10.0
            if lam > LAMBDA_MAX:
                # No step of any admissible length lowers the cost: the
                # relative decrease is zero, which meets rel_tol.
                report.converged = True
                break

        if report.step_costs:
            quats, trans, log_s = state
            self.poses = [Pose(Rotation(q), t) for q, t in zip(quats, trans)]
            self.scale = ScaleVar(log_s)
        report.final_cost = system.cost
        report.iterations = len(report.step_costs)
        return report

    def marginal_scale_stddev(self) -> float:
        """Marginal standard deviation of log s from the Gauss-Newton Hessian.

        Large values flag trajectories whose translations do not constrain the
        map scale (the estimate then just reproduces the prior).
        """
        stacked, prior, state = self._packed()
        system = normal_equations(stacked, prior, *state)
        try:
            factor = block_cholesky(system.diag, system.sub, system.border, system.h_ss)
        except np.linalg.LinAlgError as exc:
            raise SingularNormalEquations("Gauss-Newton Hessian is singular") from exc
        # log s is the last variable, so with H = L L^T its variance is 1 / l_ss^2
        return 1.0 / factor.l_ss


def build_graph(bundle: SimBundle, model: LimbModel,
                literal: bool = False) -> FactorGraph:
    """Assemble the fusion graph from a bundle: prior at FK of the first
    reading, then one kinematic and one tracker factor per later keyframe.
    FK runs once over all readings; each kinematic delta joins two neighbours."""
    quats, trans = fk_poses(model, np.array([r.angles for r in bundle.readings]))
    delta_q, delta_t = compose_stacked(*inverse_stacked(quats[:-1], trans[:-1]),
                                       quats[1:], trans[1:])
    graph = FactorGraph(PriorFactor(pose=Pose(Rotation(quats[0]), trans[0])))
    for i in range(1, len(quats)):
        rot, step = bundle.vo_deltas[i - 1]
        graph.add_keyframe(FkFactor(i, Pose(Rotation(delta_q[i - 1]), delta_t[i - 1])),
                           McFactor(i, rot, step, frame_aligned=not literal))
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
    p = graph.prior
    rows.append(["prior", *pose_to_seven(p.pose), p.scale, *p.pose_info, p.scale_info])
    for fk, mc in zip(graph.fks, graph.mcs):
        rows.append(["fk", fk.i, *pose_to_seven(fk.delta), *fk.info])
        rows.append(["mc", mc.i, *mc.delta_trans, *mc.delta_rot.quat, *mc.info,
                     "aligned" if mc.frame_aligned else "literal"])
    write_records(path, rows, comment="factor graph: poses, scale, factors")


def load_graph(path) -> FactorGraph:
    seen: set = set()
    poses: dict[int, Pose] = {}
    scale: ScaleVar | None = None
    prior: PriorFactor | None = None
    fks: dict[int, FkFactor] = {}
    mcs: dict[int, McFactor] = {}
    for lineno, tok in read_records(path):
        with located(path, lineno):
            kind = tok[0]
            i = int(tok[1]) if kind in ("pose", "fk", "mc") else None
            first_record(seen, kind, i)
            if kind == "pose":
                poses[i] = pose_from_seven(numbers(path, lineno, tok[2:], 7))
            elif kind == "scale":
                scale = ScaleVar.from_value(numbers(path, lineno, tok[1:], 1)[0])
            elif kind == "prior":
                vals = numbers(path, lineno, tok[1:], 15)
                prior = PriorFactor(pose=pose_from_seven(vals[0:7]), scale=vals[7],
                                    pose_info=np.array(vals[8:14]),
                                    scale_info=vals[14])
            elif kind == "fk":
                vals = numbers(path, lineno, tok[2:], 13)
                fks[i] = FkFactor(i, pose_from_seven(vals[0:7]),
                                  info=np.array(vals[7:13]))
            elif kind == "mc" and tok[-1] in ("aligned", "literal"):
                vals = numbers(path, lineno, tok[2:-1], 13)
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

# per-step records: key -> SolveReport list field
STEP_RECORDS = {"step_cost": "step_costs", "step_lambda": "step_lambdas",
                "step_grad": "step_grads"}


def save_report(path, report: SolveReport) -> None:
    write_records(path, [["initial_cost", report.initial_cost],
                         ["final_cost", report.final_cost],
                         ["iterations", report.iterations],
                         ["converged", "true" if report.converged else "false"],
                         ["rejected_steps", report.rejected_steps],
                         *([key, k, v] for key, name in STEP_RECORDS.items()
                           for k, v in enumerate(getattr(report, name)))])


def load_report(path) -> SolveReport:
    """Read a report; the LM trace lines (rejected_steps, step_lambda,
    step_grad) are optional, so reports written before them still load. An
    unknown or repeated record is corrupt, and so is a step record kind whose
    indices are not exactly 0..iterations-1."""
    seen: set = set()
    fields: dict[str, float | int | bool] = {}
    steps: dict[str, dict[int, tuple[int, float]]] = {key: {} for key in STEP_RECORDS}
    for lineno, tok in read_records(path):
        with located(path, lineno):
            key, vals = tok[0], tok[1:]
            k = int(vals[0]) if key in STEP_RECORDS else None
            first_record(seen, key, k)
            if key in STEP_RECORDS:
                steps[key][k] = lineno, numbers(path, lineno, vals[1:], 1)[0]
            elif key in ("initial_cost", "final_cost", "iterations", "rejected_steps"):
                kind = float if key.endswith("cost") else int
                fields[key] = numbers(path, lineno, vals, 1, kind)[0]
            elif key == "converged" and vals in (["true"], ["false"]):
                fields[key] = vals == ["true"]
            else:
                raise ValueError(f"unrecognized {key!r} record")
    missing = {"initial_cost", "final_cost", "iterations", "converged"} - set(fields)
    if missing:
        raise CorruptArtifact(f"{path}: report has no {', '.join(sorted(missing))} line")
    n = fields["iterations"]
    extra = [(lineno, key, k) for key, v in steps.items()
             for k, (lineno, _) in v.items() if not 0 <= k < n]
    if extra:
        lineno, key, k = min(extra)
        raise CorruptArtifact(f"{path}:{lineno}: {key} {k} is outside the "
                              f"{n} iterations")
    for key, v in steps.items():
        if v and len(v) < n:
            gap = min(set(range(n)) - set(v))
            raise CorruptArtifact(f"{path}: report has no {key} {gap} line")
    return SolveReport(**fields, **{STEP_RECORDS[key]: [v[k][1] for k in sorted(v)]
                                    for key, v in steps.items()})
