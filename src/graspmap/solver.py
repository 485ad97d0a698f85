"""Factor-graph assembly and Levenberg-Marquardt optimization.

The state is the list of keyframe gripper poses T_0..T_n plus one global
log-scale variable. Each iteration linearizes every factor about the current
estimate, solves the damped normal equations, and applies the step through
the retraction

    T_k <- T_k @ exp(delta_k),      log s <- log s + delta_s.

The graph is a chain, and ``FactorGraph`` stores it as one, in arrays: the
state (quaternions, translations, log s), a prior on pose 0 and the scale,
and one ``StackedFactors`` whose row k holds the kinematic and the tracker
factor tying pose k to pose k+1. ``FactorGraph._set`` alone writes the
whole state and is its one check (n = rows + 1 poses, quaternions made unit
by ``quat_unit``, finite translations, a log s with a scale, read-only
copies); ``add_keyframe`` only appends a dead-reckoned row. ``optimize``
stores log(exp(log s)), the log s a saved graph reloads as. ``poses``,
``scale`` and ``factors`` are read-only value views built on demand, the
factors by ``StackedFactors``, which alone maps rows to them. Linearization
evaluates the rows for all keyframe pairs at once, pairing poses [:-1] with
[1:], and the prior on the same arrays; no graph method calls a scalar factor
function, and ``total_cost`` is the cost it sums. One linearization
(``StackedFactors.linearize``) is one pass over the pose pairs for the
kinematic rows, the tracker rows and the prior's pose row together: one
relative rotation per pair, one so3 log and one so3 Jl^-1 over all rows.
The second sign each Jacobian needs, Jl^-1(-r) = Jr^-1(r), comes from the
terms of Jl^-1(r) (Sola et al., "A micro Lie theory for state estimation in
robotics", 2018): Jl^-1(-phi) = Jl^-1(phi)^T for SO(3), and the SE(3)
coupling block Q(-x) (Barfoot, State Estimation for Robotics, 2017,
sec. 7.1.5) re-signs the odd terms of Q(x). The Gauss-Newton
Hessian is therefore block-tridiagonal in 6x6 pose blocks plus one dense
border row for log s, and each pair's terms add into those blocks by
slices, every block product J^T (info J) one batched matmul over the rows.
``NormalEquations`` holds just the blocks, and ``block_cholesky`` factors
the system by odd-even (cyclic) block reduction (Heller, SIAM J. Numer.
Anal. 1976): each level eliminates every other pose
block of the chain in one batched NumPy step, so n blocks take
floor(log2 n) + 1 levels, in O(n) time and memory, carrying the border through
to a last pivot l_ss, the Schur complement of the poses on log s. A level
inverts its pivots' lower Cholesky factors by forward substitution over the
whole stack when it has ``SUBSTITUTION_PIVOTS`` or more of them, and by
``np.linalg.inv`` below that, where the general inverse is as fast. No dense
Hessian is ever formed, and the solver needs no LAPACK beyond NumPy's. The
marginal standard deviation of log s is 1 / l_ss.

Damping follows the classic Marquardt schedule: the diagonal is scaled by
1 + lambda, lambda starts at ``INITIAL_LAMBDA``, is multiplied by 10 when a
step increases the cost or the damped system will not factor, and divided by
10 when a step is accepted. A run converges when max|g| < ``GRAD_TOL``, when
an accepted step lowers the cost by a fraction below ``REL_TOL`` or when
rejected steps push lambda past ``LAMBDA_MAX``; ``max_iter`` (by default
``MAX_ITER``) accepted steps end it unconverged.
Each trial state is linearized once, its cost deciding acceptance and its
system becoming the next one; a rejected trial leaves the current system as
it was. Evaluation order is fixed, so repeated runs on the same graph produce
bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import CorruptArtifact, IndexMismatch, SingularNormalEquations
from .factors import (FK_INFO_VALUE, MC_INFO_VALUE, Factor, FkFactor,
                      McFactor, PriorFactor, ScaleVar, StackedFactors, log_scale_ok)
from .factors import factor_jacobians, factor_residual  # noqa: F401 -- read only by perfbench/tracer.py
from .geometry import (Pose, Rotation, compose_stacked, frozen, inverse_stacked,
                       pose_from_seven, pose_to_seven, quat_product, quat_rotate,
                       se3_exp_stacked)
from .geometry import compose  # noqa: F401 -- read only by perfbench/tracer.py
from .kinematics import LimbModel, fk_poses
from .records import (check_quaternions, check_rows, float_fields, laid_out, located,
                      numbers, read_records, read_table, write_records)
from .simulation import SimBundle


def __getattr__(name: str):
    """``scipy``, imported on first access: perfbench/tracer.py patches
    ``solver.scipy.linalg``, and the solver itself needs only NumPy, so a run
    that is not traced never loads scipy."""
    if name == "scipy":
        import scipy
        globals()["scipy"] = scipy
        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# GRAD_TOL sits near machine noise on purpose: the information values here
# are 1e-3..1e-4, so gradients run ~1e6 smaller than in a unit-weight
# problem and a looser floor would stop well short of the minimum
GRAD_TOL = 1e-14
REL_TOL = 1e-8
INITIAL_LAMBDA = 1e-4
LAMBDA_MAX = 1e8
# accepted steps before a run ends unconverged; enough for graphs of tens of keyframes
MAX_ITER = 100


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
    pose blocks and gradient; returns the information-weighted residuals.
    Each block product J^T (info J) is one batched matmul over the rows."""
    wr = info * r
    wj_prev = info[..., None] * j_prev
    wj_curr = info[..., None] * j_curr
    system.diag[:-1] += _t(j_prev) @ wj_prev
    system.diag[1:] += _t(j_curr) @ wj_curr
    system.sub[1:] += _t(j_curr) @ wj_prev
    system.grad[:-1] += _mv(_t(j_prev), wr)
    system.grad[1:] += _mv(_t(j_curr), wr)
    system.cost += float(np.vdot(r, wr))
    return wr


def normal_equations(stacked: StackedFactors, prior: PriorFactor,
                     quats: np.ndarray, trans: np.ndarray,
                     log_s: float) -> NormalEquations:
    """Gauss-Newton system of a chain graph at the state (quats, trans, log_s)."""
    n = len(quats)
    # the prior's pose part rides as the last kinematic row: its twist
    # log(anchor^-1 T_0) and d/d pose 0; d/d log s of its scale gap is 1
    (r, j_prev, j_curr), mc = stacked.linearize(quats, trans, prior.anchor_inverse, log_s)
    j_pose = j_curr[-1]
    r_prior = np.append(r[-1], log_s - math.log(prior.scale))
    wr_prior = np.append(prior.pose_info, prior.scale_info) * r_prior
    system = NormalEquations(diag=np.zeros((n, 6, 6)), sub=np.zeros((n, 6, 6)),
                             border=np.zeros((n, 6)), h_ss=prior.scale_info,
                             grad=np.zeros((n, 6)), grad_s=float(wr_prior[6]),
                             cost=float(r_prior @ wr_prior))
    system.diag[0] += j_pose.T @ (prior.pose_info[:, None] * j_pose)
    system.grad[0] += j_pose.T @ wr_prior[:6]

    _add_pairs(system, stacked.fk_info, r[:-1], j_prev, j_curr[:-1])
    r, j_prev, j_curr, j_s = mc
    wr = _add_pairs(system, stacked.mc_info, r, j_prev, j_curr)
    wj_s = stacked.mc_info * j_s
    system.border[:-1] += _mv(_t(j_prev), wj_s)
    system.border[1:] += _mv(_t(j_curr), wj_s)
    system.h_ss += float(np.vdot(j_s, wj_s))
    system.grad_s += float(np.vdot(j_s, wr))
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


# below this many pivots in a level, np.linalg.inv inverts their Cholesky
# factors as fast as forward substitution or faster
SUBSTITUTION_PIVOTS = 40


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular 6x6 factors, by forward
    substitution a row at a time over the whole stack: row i of the inverse
    is (e_i - L[i, :i] X[:i]) / L[i, i]."""
    d = 1.0 / np.diagonal(lower, axis1=-2, axis2=-1)
    scaled = lower * d[..., None]
    out = np.zeros_like(lower)
    out[:, 0, 0] = d[:, 0]
    for i in range(1, 6):
        out[:, i, :i] = -(scaled[:, i, None, :i] @ out[:, :i, :i])[:, 0]
        out[:, i, i] = d[:, i]
    return out


@dataclass
class BlockCholesky:
    """Cholesky factor L of a bordered block-tridiagonal H = L L^T, taken in
    odd-even order: each level's eliminated blocks, level by level, then log s.

    Level i holds, for each block e it eliminates, the inverse Cholesky
    factor L_e^-1 of its pivot, (m_e, 6, 6), w = L_e^-1 [H[e, e-1]
    H[e, e+1] H[e, s]], (m_e, 6, 13): its couplings to the kept blocks left
    and right of it (zero where it has none) and to log s, and w^T as a
    contiguous (m_e, 13, 6) copy, which NumPy's matmul takes faster than
    the swapped view of w. l_ss = L[s, s].
    """

    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    l_ss: float

    def solve(self, b: np.ndarray, b_s: float) -> tuple[np.ndarray, float]:
        """x, x_s with H [x; x_s] = [b; b_s]: forward through the levels,
        then back out."""
        ys = []
        for inv_l, _, w_t in self.levels:
            y = _mv(inv_l, b[0::2])
            wy = _mv(w_t, y)
            kept = b[1::2] - wy[:len(b) // 2, 6:12]
            kept[:len(y) - 1] -= wy[1:, :6]
            b_s = b_s - float(np.sum(wy[:, 12]))
            ys.append(y)
            b = kept
        x_s = b_s / self.l_ss / self.l_ss
        x = b  # the last level keeps no blocks, so b is empty here
        for (inv_l, w, _), y in zip(reversed(self.levels), reversed(ys)):
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
        lower = _cholesky_blocks(diag[0::2], poses[0::2])
        inv_l = _lower_inverse(lower) if m_e >= SUBSTITUTION_PIVOTS else np.linalg.inv(lower)
        w = inv_l @ np.concatenate([coupling[0:-1:2], _t(coupling[1::2]),
                                    border[0::2, :, None]], axis=2)
        w_t = np.ascontiguousarray(_t(w))
        levels.append((inv_l, w, w_t))
        gram = w_t @ w
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
    """Poses, scale, and a chain of factors, held as arrays: the state
    ``quats`` (n, 4), ``trans`` (n, 3) and ``log_s``, the one ``prior`` on
    pose 0 and the scale, and ``stacked``, whose row k ties pose k to pose
    k+1, written whole only by ``_set``. ``poses``, ``scale`` and
    ``factors`` are read-only value views of them, built on each access."""

    def __init__(self, prior: PriorFactor):
        self.prior = prior
        self._set(prior.pose.rotation.quat[None], prior.pose.translation[None],
                  math.log(prior.scale), StackedFactors.empty())

    @classmethod
    def from_arrays(cls, prior: PriorFactor, quats: np.ndarray, trans: np.ndarray,
                    log_s: float, stacked: StackedFactors) -> "FactorGraph":
        """A graph with its state given as arrays, checked by ``_set``."""
        graph = cls.__new__(cls)
        graph.prior = prior
        graph._set(quats, trans, log_s, stacked)
        return graph

    def _set(self, quats, trans, log_s: float, stacked: StackedFactors) -> None:
        """Write the whole state, or raise ``ValueError``: len(stacked) + 1
        unit quaternions and finite translations, as read-only copies."""
        self.quats = frozen(quats, (len(stacked) + 1, 4), "quaternion", unit=True)
        self.trans = frozen(trans, (len(self.quats), 3), "translation")
        self.log_s = ScaleVar(log_s).log_value
        self.stacked = stacked

    @property
    def num_poses(self) -> int:
        return len(self.quats)

    @property
    def poses(self) -> list[Pose]:
        return [Pose(Rotation(q), t) for q, t in zip(self.quats, self.trans)]

    @property
    def scale(self) -> ScaleVar:
        return ScaleVar(self.log_s)

    def add_keyframe(self, fk: FkFactor, mc: McFactor) -> None:
        """Append pose i with its two measurement factors as row i - 1.

        The new pose starts at the previous estimate composed with the FK
        delta (dead reckoning); earlier rows are not checked again.
        """
        i = self.num_poses
        if fk.i != i or mc.i != i:
            raise IndexMismatch(
                f"graph has poses 0..{i - 1}; next factors must use index {i}, "
                f"got fk.i={fk.i}, mc.i={mc.i}")
        self.stacked = self.stacked.appended(fk, mc)
        quat, trans = compose_stacked(self.quats[-1], self.trans[-1],
                                      fk.delta.rotation.quat, fk.delta.translation)
        self.quats = np.append(self.quats, [quat], axis=0)
        self.trans = np.append(self.trans, [trans], axis=0)
        self.quats.flags.writeable = self.trans.flags.writeable = False

    @property
    def factors(self) -> tuple[Factor, ...]:
        """Every factor in graph order: prior, fk1, mc1, fk2, mc2, ..."""
        return (self.prior, *self.stacked.factors())

    def total_cost(self) -> float:
        """Sum of squared Mahalanobis residuals over all factors (no 1/2
        prefactor), as the normal equations at the current state sum it."""
        return self._system().cost

    def _system(self) -> NormalEquations:
        return normal_equations(self.stacked, self.prior, self.quats, self.trans, self.log_s)

    # -- optimization ----------------------------------------------------------

    def optimize(self, max_iter: int = MAX_ITER) -> SolveReport:
        """Minimize the total cost in place in at most ``max_iter`` accepted
        steps; returns the iteration report."""
        if not max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {max_iter}")
        state = self.quats, self.trans, self.log_s
        system = self._system()
        report = SolveReport(initial_cost=system.cost, final_cost=system.cost,
                             iterations=0, converged=False)
        lam = INITIAL_LAMBDA

        while len(report.step_costs) < max_iter:
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
            # a trial past exp's range in log s has a non-finite cost, and one
            # whose scale underflows to 0 has no scale; both are rejected
            with np.errstate(over="ignore", invalid="ignore"):
                cand = normal_equations(self.stacked, self.prior, *cand_state)
            if cand.cost <= system.cost and log_scale_ok(cand_state[2]):
                rel_decrease = ((system.cost - cand.cost) / system.cost
                                if system.cost > 0.0 else 0.0)
                state, system = cand_state, cand
                report.step_costs.append(system.cost)
                report.step_lambdas.append(lam)
                report.step_grads.append(system.grad_max())
                lam = max(lam / 10.0, 1e-15)
                if rel_decrease < REL_TOL:
                    report.converged = True
                    break
                continue
            report.rejected_steps += 1
            lam *= 10.0
            if lam > LAMBDA_MAX:
                # No step of any admissible length lowers the cost: the
                # relative decrease is zero, which meets REL_TOL.
                report.converged = True
                break

        if report.step_costs:
            quats, trans, log_s = state
            # log(exp(log s)) has the same scale and is what graph.txt reloads as
            self._set(quats, trans, math.log(math.exp(log_s)), self.stacked)
        report.final_cost = system.cost
        report.iterations = len(report.step_costs)
        return report

    def marginal_scale_stddev(self) -> float:
        """Marginal standard deviation of log s from the Gauss-Newton Hessian.

        Large values flag trajectories whose translations do not constrain the
        map scale (the estimate then just reproduces the prior).
        """
        system = self._system()
        try:
            factor = block_cholesky(system.diag, system.sub, system.border, system.h_ss)
        except np.linalg.LinAlgError as exc:
            raise SingularNormalEquations("Gauss-Newton Hessian is singular") from exc
        # log s is the last variable, so with H = L L^T its variance is 1 / l_ss^2
        return 1.0 / factor.l_ss


def build_graph(bundle: SimBundle, model: LimbModel,
                literal: bool = False) -> FactorGraph:
    """Assemble the fusion graph from a bundle: prior at FK of the first
    reading, then one kinematic and one tracker factor per later keyframe,
    as rows. FK runs once over all readings; each kinematic delta joins two
    neighbours, and each pose starts at FK of its reading."""
    quats, trans = fk_poses(model, bundle.angles)
    delta_q, delta_t = compose_stacked(*inverse_stacked(quats[:-1], trans[:-1]),
                                       quats[1:], trans[1:])
    m = len(delta_q)
    stacked = StackedFactors(fk_quat=delta_q, fk_trans=delta_t,
                             fk_info=np.full((m, 6), FK_INFO_VALUE),
                             mc_quat=bundle.vo_quats, mc_trans=bundle.vo_trans,
                             mc_info=np.full((m, 6), MC_INFO_VALUE),
                             mc_aligned=np.full(m, not literal))
    prior = PriorFactor(pose=Pose(Rotation(quats[0]), trans[0]))
    return FactorGraph.from_arrays(prior, quats, trans, math.log(prior.scale), stacked)


# --- graph file format ----------------------------------------------------------
#
# One record per line in the shared plain-text format (see records.py), in
# this order: n poses, the scale, the prior, then fk i and mc i alternating
# for i = 1..n-1.
#
#   pose <i> tx ty tz qw qx qy qz
#   scale <value>
#   prior tx ty tz qw qx qy qz <scale> <pose_info x6> <scale_info>
#   fk <i> tx ty tz qw qx qy qz <info x6>
#   mc <i> dtx dty dtz qw qx qy qz <info x6> aligned|literal

def _info_texts(info: np.ndarray) -> list[str]:
    """The rows of an (m, 6) information array as text. A graph's factors of
    one kind mostly share their diagonal, so each distinct row is formatted
    once: 17-digit formatting is most of the cost of writing a graph."""
    rows = list(map(tuple, info.tolist()))
    text = {row: float_fields(6) % row for row in set(rows)}
    return [text[row] for row in rows]


def save_graph(path, graph: FactorGraph) -> None:
    f, p = graph.stacked, graph.prior
    pose_row = "pose %d " + float_fields(7)
    rows = [pose_row % (i, *row)
            for i, row in enumerate(np.hstack([graph.trans, graph.quats]).tolist())]
    rows.append(["scale", graph.scale.value])
    rows.append(["prior", *pose_to_seven(p.pose), p.scale, *p.pose_info, p.scale_info])
    fk_row, mc_row = "fk %d " + float_fields(7) + " %s", "mc %d " + float_fields(7) + " %s %s"
    for i, (fk, fk_info, mc, mc_info, aligned) in enumerate(zip(
            np.hstack([f.fk_trans, f.fk_quat]).tolist(), _info_texts(f.fk_info),
            np.hstack([f.mc_trans, f.mc_quat]).tolist(), _info_texts(f.mc_info),
            f.mc_aligned.tolist()), 1):
        rows.append(fk_row % (i, *fk, fk_info))
        rows.append(mc_row % (i, *mc, mc_info, "aligned" if aligned else "literal"))
    write_records(path, rows, comment="factor graph: poses, scale, factors")


def load_graph(path) -> FactorGraph:
    """The graph in ``path``, its records laid out as ``save_graph`` writes
    them (the format above), each indexed kind read as one table and checked
    as the value types check one value; errors name ``path:line``."""
    rows = list(read_records(path))
    n = max(sum(tok[0] == "pose" for _, tok in rows), 1)
    laid_out(path, rows, chain((["pose", str(i)] for i in range(n)), (["scale"], ["prior"]),
                               ([kind, str(i)] for i in range(1, n) for kind in ("fk", "mc"))))
    (scale_line, scale_tok), (prior_line, prior_tok) = rows[n:n + 2]
    with located(path, scale_line):
        scale = ScaleVar.from_value(numbers(path, scale_line, scale_tok[1:], 1)[0])
    with located(path, prior_line):
        vals = numbers(path, prior_line, prior_tok[1:], 15)
        prior = PriorFactor(pose=pose_from_seven(vals[0:7]), scale=vals[7],
                            pose_info=np.array(vals[8:14]), scale_info=vals[14])
    pose_rows, fk_rows, mc_rows = rows[:n], rows[n + 2::2], rows[n + 3::2]
    # an mc record ends in its aligned|literal flag, after the numbers
    check_rows(path, mc_rows, np.array([tok[-1] in ("aligned", "literal") for _, tok in mc_rows]),
               "unrecognized 'mc' record")
    tables = []
    for kind_rows, width, end in ((pose_rows, 7, None), (fk_rows, 13, None), (mc_rows, 13, -1)):
        table = read_table(path, [(lineno, tok[2:end]) for lineno, tok in kind_rows], width)
        check_quaternions(path, kind_rows, table[:, 3:7])
        if width == 13:  # a factor: its information diagonal follows the pose
            check_rows(path, kind_rows, (table[:, 7:] > 0.0).all(axis=1),
                       "information diagonal must be positive")
        tables.append(table)
    poses, fk, mc = tables
    stacked = StackedFactors(fk_quat=fk[:, 3:7], fk_trans=fk[:, :3], fk_info=fk[:, 7:],
                             mc_quat=mc[:, 3:7], mc_trans=mc[:, :3], mc_info=mc[:, 7:],
                             mc_aligned=[tok[-1] == "aligned" for _, tok in mc_rows])
    return FactorGraph.from_arrays(prior, poses[:, 3:7], poses[:, :3], scale.log_value,
                                   stacked)


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
    """The report in ``path``, its records laid out as ``save_report`` writes
    them: the five head records, then ``step_cost``, ``step_lambda`` and
    ``step_grad``, each for steps 0..iterations-1. Errors name ``path:line``."""
    rows = list(read_records(path))
    head = {"initial_cost": float, "final_cost": float, "iterations": int,
            "converged": bool, "rejected_steps": int}
    laid_out(path, rows[:len(head)], ([key] for key in head))
    fields: dict[str, float | int | bool] = {}
    for (lineno, (key, *vals)), kind in zip(rows, head.values()):
        if kind is bool:
            if vals not in (["true"], ["false"]):
                raise CorruptArtifact(f"{path}:{lineno}: {key} must be true or false")
            fields[key] = vals == ["true"]
        else:
            fields[key] = numbers(path, lineno, vals, 1, kind)[0]
            if fields[key] < 0:
                raise CorruptArtifact(f"{path}:{lineno}: {key} must not be negative")
    n, steps = fields["iterations"], rows[len(head):]
    # the keys are walked as far as the rows go: a corrupt count builds none
    laid_out(path, steps, ([key, str(k)] for key in STEP_RECORDS for k in range(n)))
    values = [numbers(path, lineno, tok[2:], 1)[0] for lineno, tok in steps]
    return SolveReport(**fields, **{name: values[j * n:(j + 1) * n]
                                    for j, name in enumerate(STEP_RECORDS.values())})
