"""SE(3)/SO(3) primitives against independent oracles.

Oracle routes, each avoiding the code path under test:
  * compose/inverse  -> 4x4 homogeneous matrix algebra
  * se3_exp          -> term-by-term series summation of the matrix exponential
  * so3_log          -> eigen-axis extraction (axis = eigenvector of R at
                        eigenvalue 1, sign from the skew part)
  * so3_exp          -> quaternion exponential identity and scipy's rotations
"""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from conftest import rand_pose, rand_rotation, rand_twist_vector, rotation_gap
from graspmap.errors import CutLocusError
from graspmap.geometry import (Pose, Rotation, compose, hat, inverse,
                               pose_from_seven, pose_to_seven, se3_adjoint,
                               se3_exp, se3_left_jacobian_inv, se3_log,
                               se3_right_jacobian_inv, so3_exp,
                               so3_left_jacobian, so3_left_jacobian_inv,
                               so3_log, so3_right_jacobian_inv)

PI = math.pi


# --- oracles -------------------------------------------------------------------


def mat_exp_series(m: np.ndarray, terms: int = 80) -> np.ndarray:
    out = np.eye(m.shape[0])
    power = np.eye(m.shape[0])
    for k in range(1, terms):
        power = power @ m / k
        out = out + power
    return out


def se3_hat(x: np.ndarray) -> np.ndarray:
    m = np.zeros((4, 4))
    m[:3, :3] = hat(x[3:])
    m[:3, 3] = x[:3]
    return m


def eigen_axis_log(r_mat: np.ndarray) -> np.ndarray:
    """Axis-angle from eigenstructure; valid for angles in (0, pi)."""
    angle = math.acos(np.clip((np.trace(r_mat) - 1.0) / 2.0, -1.0, 1.0))
    w, v = np.linalg.eig(r_mat)
    axis = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    axis /= np.linalg.norm(axis)
    skew = (r_mat - r_mat.T) / 2.0  # sin(angle) * hat(axis)
    sin_axis = np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
    if sin_axis @ axis < 0.0:
        axis = -axis
    return axis * angle


def quat_exp(phi: np.ndarray) -> np.ndarray:
    angle = np.linalg.norm(phi)
    if angle == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.concatenate([[math.cos(angle / 2.0)],
                           math.sin(angle / 2.0) * phi / angle])


# --- hat / basic types ------------------------------------------------------------


def test_hat_is_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v, w = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(hat(v) @ w, np.cross(v, w), atol=1e-15)
        assert np.allclose(hat(v).T, -hat(v), atol=0)


def test_rotation_constructors_unit_norm():
    rng = np.random.default_rng(1)
    rots = [rand_rotation(rng) for _ in range(50)]
    rots.append(Rotation.from_axis_angle([0, 0, 1], 0.3))
    rots.append(Rotation(np.array([10.0, 0.0, 0.0, 0.0])))  # normalizing
    for r in rots:
        assert abs(np.linalg.norm(r.quat) - 1.0) < 1e-12


def test_rotation_matrix_round_trip():
    rng = np.random.default_rng(2)
    specials = [Rotation.identity(),
                Rotation.from_axis_angle([1, 0, 0], PI),
                Rotation.from_axis_angle([0, 1, 0], PI),
                Rotation.from_axis_angle([0, 0, 1], PI),
                Rotation.from_axis_angle([1, 1, 1], PI - 1e-7)]
    for r in [rand_rotation(rng) for _ in range(50)] + specials:
        back = Rotation.from_matrix(r.matrix())
        assert rotation_gap(r, back) < 1e-12


def test_rotation_apply_matches_matrix():
    rng = np.random.default_rng(3)
    for _ in range(30):
        r, v = rand_rotation(rng), rng.normal(size=3)
        assert np.allclose(r.apply(v), r.matrix() @ v, atol=1e-13)


def test_pose_apply_and_matrix():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p, v = rand_pose(rng), rng.normal(size=3)
        hom = p.matrix() @ np.append(v, 1.0)
        assert np.allclose(p.apply(v), hom[:3], atol=1e-13)
        back = Pose.from_matrix(p.matrix())
        assert np.allclose(back.translation, p.translation, atol=1e-13)
        assert rotation_gap(back.rotation, p.rotation) < 1e-12


@pytest.mark.parametrize("fn", [se3_exp, se3_left_jacobian_inv,
                                se3_right_jacobian_inv])
@pytest.mark.parametrize("shape", [(5,), (1, 6), (7,)], ids=["5", "1x6", "7"])
def test_se3_maps_reject_non_twist_shapes(fn, shape):
    with pytest.raises(ValueError, match="6-vector"):
        fn(np.zeros(shape))


def test_pose_seven_number_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rand_pose(rng)
        q = pose_from_seven(pose_to_seven(p))
        assert np.allclose(q.translation, p.translation, atol=0)
        assert rotation_gap(q.rotation, p.rotation) < 1e-15


# --- compose / inverse -----------------------------------------------------------


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(6)
    p = rand_pose(rng)
    assert rotation_gap(compose(Pose.identity(), p).rotation, p.rotation) < 1e-15
    assert np.allclose(compose(Pose.identity(), p).translation, p.translation)
    pinv = compose(p, inverse(p))
    assert pinv.rotation.angle() < 1e-12
    assert np.linalg.norm(pinv.translation) < 1e-12


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = rand_pose(rng), rand_pose(rng)
        assert np.allclose(compose(a, b).matrix(), a.matrix() @ b.matrix(),
                           atol=1e-12)


def test_inverse_trivials_and_matrix_oracle():
    assert np.allclose(inverse(Pose.identity()).matrix(), np.eye(4), atol=0)
    shift = Pose.from_parts(translation=[0.1, 0.0, 0.0])
    assert np.allclose(inverse(shift).translation, [-0.1, 0.0, 0.0], atol=0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = rand_pose(rng)
        assert np.allclose(inverse(p).matrix(), np.linalg.inv(p.matrix()),
                           atol=1e-12)


def test_group_axioms():
    rng = np.random.default_rng(9)
    for _ in range(30):
        a, b, c = rand_pose(rng), rand_pose(rng), rand_pose(rng)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.allclose(left.matrix(), right.matrix(), atol=1e-12)
        assert np.allclose(compose(a, inverse(a)).matrix(), np.eye(4), atol=1e-12)
        assert np.allclose(compose(inverse(a), a).matrix(), np.eye(4), atol=1e-12)


def test_matmul_operator_matches_compose():
    rng = np.random.default_rng(10)
    a, b = rand_pose(rng), rand_pose(rng)
    assert np.allclose((a @ b).matrix(), compose(a, b).matrix(), atol=0)


# --- so3 exp/log -------------------------------------------------------------------


def test_so3_exp_trivials():
    assert so3_exp(np.zeros(3)).angle() == 0.0
    half_turn = so3_exp(np.array([0.0, 0.0, PI]))
    assert np.allclose(half_turn.matrix(), np.diag([-1.0, -1.0, 1.0]), atol=1e-15)


def test_so3_exp_matches_quaternion_exponential():
    rng = np.random.default_rng(11)
    for _ in range(100):
        phi = rand_twist_vector(rng, PI - 0.01)[3:]
        q = quat_exp(phi)
        got = so3_exp(phi).quat
        assert min(np.abs(got - q).max(), np.abs(got + q).max()) < 1e-14


def test_so3_exp_matches_scipy():
    rng = np.random.default_rng(12)
    for _ in range(100):
        phi = rand_twist_vector(rng, PI - 0.01)[3:]
        assert np.allclose(so3_exp(phi).matrix(),
                           ScipyRotation.from_rotvec(phi).as_matrix(), atol=1e-13)


def test_so3_log_trivials():
    assert np.array_equal(so3_log(Rotation.identity()), np.zeros(3))
    r = Rotation.from_axis_angle([1, 0, 0], 0.3)
    assert np.allclose(so3_log(r), [0.3, 0.0, 0.0], atol=1e-15)


def test_so3_log_matches_eigen_axis_oracle():
    rng = np.random.default_rng(13)
    done = 0
    while done < 100:
        r = rand_rotation(rng)
        if not 0.1 < r.angle() < PI - 0.1:  # oracle degenerates at the ends
            continue
        assert np.allclose(so3_log(r), eigen_axis_log(r.matrix()), atol=1e-10)
        done += 1


def test_so3_log_matches_scipy():
    rng = np.random.default_rng(14)
    done = 0
    while done < 100:
        r = rand_rotation(rng)
        if r.angle() > PI - 0.1:
            continue
        assert np.allclose(so3_log(r), ScipyRotation.from_matrix(r.matrix())
                           .as_rotvec(), atol=1e-12)
        done += 1


def test_so3_round_trip_ten_thousand():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(10_000):
        phi = rand_twist_vector(rng, PI - 1e-6 - 1e-9)[3:]
        worst = max(worst, np.abs(so3_log(so3_exp(phi)) - phi).max())
    assert worst < 1e-10


def test_so3_log_cut_locus():
    with pytest.raises(CutLocusError):
        so3_log(Rotation.from_axis_angle([0, 0, 1], PI))
    with pytest.raises(CutLocusError):
        so3_log(Rotation.from_axis_angle([1, 2, 3], PI - 1e-7))
    # just inside the margin still works
    phi = so3_log(Rotation.from_axis_angle([0, 1, 0], PI - 1e-5))
    assert abs(np.linalg.norm(phi) - (PI - 1e-5)) < 1e-12


# --- se3 exp/log -------------------------------------------------------------------


def test_se3_exp_trivials():
    assert np.allclose(se3_exp(np.zeros(6)).matrix(), np.eye(4), atol=0)
    p = se3_exp([0, 0, 0, 0, 0, PI / 2])
    assert np.allclose(p.translation, 0.0, atol=0)
    assert rotation_gap(p.rotation, Rotation.from_axis_angle([0, 0, 1], PI / 2)) < 1e-15


def test_se3_exp_matches_series_oracle():
    rng = np.random.default_rng(16)
    for _ in range(50):
        x = rand_twist_vector(rng, 3.0)
        assert np.allclose(se3_exp(x).matrix(),
                           mat_exp_series(se3_hat(x)), atol=1e-12)
    # the fixed-angle case: random direction, rotation magnitude exactly 2.0
    x = rand_twist_vector(rng, PI)
    x[3:] *= 2.0 / np.linalg.norm(x[3:])
    assert np.allclose(se3_exp(x).matrix(),
                       mat_exp_series(se3_hat(x)), atol=1e-12)


def test_se3_log_trivials():
    assert np.array_equal(se3_log(Pose.identity()), np.zeros(6))
    shift = Pose.from_parts(translation=[0.1, 0.0, 0.0])
    assert np.allclose(se3_log(shift), [0.1, 0, 0, 0, 0, 0], atol=0)
    turn = Pose.from_parts(rotation=Rotation.from_axis_angle([0, 0, 1], PI / 2))
    x = se3_log(turn)
    assert np.allclose(x[:3], 0.0, atol=1e-15)
    assert np.allclose(x[3:], [0, 0, PI / 2], atol=1e-15)


def test_se3_round_trip_ten_thousand():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10_000):
        x = rand_twist_vector(rng, PI - 1e-6 - 1e-9)
        back = se3_log(se3_exp(x))
        worst = max(worst, np.abs(back - x).max())
    assert worst < 1e-10


def test_se3_log_cut_locus():
    p = Pose.from_parts(rotation=Rotation.from_axis_angle([1, 0, 0], PI - 1e-8),
                        translation=[0.1, 0.2, 0.3])
    with pytest.raises(CutLocusError):
        se3_log(p)


def test_log_continuity_near_zero():
    # at ||phi|| = 1e-7 the implementation takes its series branch; the naive
    # closed-form coefficients lose ~2 digits there but must agree to 1e-9
    rng = np.random.default_rng(18)
    for _ in range(20):
        x = rand_twist_vector(rng, 1.0)
        x[3:] *= 1e-7 / np.linalg.norm(x[3:])
        p = se3_exp(x)
        theta = np.linalg.norm(x[3:])
        k = hat(x[3:])
        a = (1.0 - math.cos(theta)) / theta ** 2
        b = (theta - math.sin(theta)) / theta ** 3
        v_naive = np.eye(3) + a * k + b * (k @ k)
        rho = np.linalg.solve(v_naive, p.translation)
        got = se3_log(p)
        assert np.allclose(got[3:], x[3:], atol=1e-9)
        assert np.allclose(got[:3], rho, atol=1e-9)


# --- tangent-space Jacobian helpers ------------------------------------------------


def test_so3_left_jacobian_defining_property():
    # exp(phi + d) == exp(J_l(phi) d) exp(phi) to first order in d
    rng = np.random.default_rng(19)
    for _ in range(30):
        phi = rand_twist_vector(rng, 2.5)[3:]
        jl = so3_left_jacobian(phi)
        for k in range(3):
            d = 1e-7 * np.eye(3)[k]
            lhs = so3_exp(phi + d)
            rhs = so3_exp(jl @ d) @ so3_exp(phi)
            assert rotation_gap(lhs, rhs) < 1e-12


def test_so3_jacobian_inverses_are_inverses():
    rng = np.random.default_rng(20)
    for _ in range(30):
        phi = rand_twist_vector(rng, 2.9)[3:]
        assert np.allclose(so3_left_jacobian(phi) @ so3_left_jacobian_inv(phi),
                           np.eye(3), atol=1e-10)
        assert np.allclose(so3_right_jacobian_inv(phi),
                           so3_left_jacobian_inv(-phi), atol=0)


def test_se3_left_jacobian_inv_first_order():
    # log(exp(d) exp(x)) == x + J_l^{-1}(x) d + O(|d|^2)
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = rand_twist_vector(rng, 2.0)
        jli = se3_left_jacobian_inv(x)
        d = 1e-6 * rng.normal(size=6)
        lhs = se3_log(compose(se3_exp(d), se3_exp(x)))
        assert np.allclose(lhs - x, jli @ d, atol=1e-10)


def test_se3_right_jacobian_inv_first_order():
    # log(exp(x) exp(d)) == x + J_r^{-1}(x) d + O(|d|^2)
    rng = np.random.default_rng(22)
    for _ in range(20):
        x = rand_twist_vector(rng, 2.0)
        jri = se3_right_jacobian_inv(x)
        d = 1e-6 * rng.normal(size=6)
        lhs = se3_log(compose(se3_exp(x), se3_exp(d)))
        assert np.allclose(lhs - x, jri @ d, atol=1e-10)


def test_adjoint_conjugation_identity():
    # T exp(x) T^{-1} == exp(Adj(T) x), exact for any x
    rng = np.random.default_rng(23)
    for _ in range(20):
        t = rand_pose(rng)
        x = rand_twist_vector(rng, 1.5)
        lhs = compose(compose(t, se3_exp(x)), inverse(t))
        rhs = se3_exp(se3_adjoint(t) @ x)
        assert np.allclose(lhs.matrix(), rhs.matrix(), atol=1e-12)
