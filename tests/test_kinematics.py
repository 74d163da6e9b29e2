import math

import numpy as np
import pytest

from floatdyn import (
    GimbalLock,
    Pose,
    k3_body,
    omega_map,
    rotation_matrix,
)
from floatdyn.kinematics import GIMBAL_GUARD, depth_rows, k3_rows, omega_chart, omega_maps


def random_poses(rng, n, max_angle=1.4):
    poses = []
    for _ in range(n):
        poses.append(
            Pose(
                xi=rng.uniform(-5, 5),
                eta=rng.uniform(-5, 5),
                zeta=rng.uniform(-2, 2),
                psi=rng.uniform(-math.pi, math.pi),
                theta=rng.uniform(-max_angle, max_angle),
                phi=rng.uniform(-math.pi, math.pi),
            )
        )
    return poses


class TestRotationMatrix:
    def test_identity_at_zero_angles(self):
        assert np.array_equal(rotation_matrix(Pose()), np.eye(3))

    def test_third_row_near_pitch_limit(self):
        # close to pitch +pi/2 the down axis aligns with the first body axis
        pose = Pose(theta=math.pi / 2 - 1e-9)
        np.testing.assert_allclose(
            rotation_matrix(pose)[2], [-1.0, 0.0, 0.0], atol=1e-8
        )

    def test_third_row_at_quarter_roll(self):
        pose = Pose(phi=math.pi / 2)
        np.testing.assert_allclose(
            rotation_matrix(pose)[2], [0.0, 1.0, 0.0], atol=1e-15
        )

    def test_orthogonality_and_determinant_bulk(self):
        rng = np.random.default_rng(7)
        for pose in random_poses(rng, 10_000):
            r = rotation_matrix(pose)
            assert abs(r[0] @ r[1]) < 1e-12
            assert abs(r[0] @ r[2]) < 1e-12
            assert abs(r[1] @ r[2]) < 1e-12
            assert abs(r[0] @ r[0] - 1) < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_third_row_is_k3_body(self):
        rng = np.random.default_rng(3)
        for pose in random_poses(rng, 50):
            np.testing.assert_array_equal(rotation_matrix(pose)[2], k3_body(pose))


class TestK3Body:
    def test_zero_angles(self):
        np.testing.assert_array_equal(k3_body(Pose()), [0.0, 0.0, 1.0])

    def test_pure_pitch(self):
        v = k3_body(Pose(theta=0.3))
        np.testing.assert_allclose(v, [-math.sin(0.3), 0.0, math.cos(0.3)], rtol=1e-15)

    def test_unit_norm(self):
        rng = np.random.default_rng(11)
        for pose in random_poses(rng, 200):
            assert abs(np.linalg.norm(k3_body(pose)) - 1.0) < 1e-12


    def test_depth_rows_are_the_bits_of_k3_body_and_the_chart(self):
        rng = np.random.default_rng(12)
        poses = random_poses(rng, 200)
        k3, k3_th, k3_ph = depth_rows([p.theta for p in poses], [p.phi for p in poses])
        assert k3_rows([p.theta for p in poses], [p.phi for p in poses]).tobytes() == k3.tobytes()
        for i, pose in enumerate(poses):
            _, d_th, d_ph = omega_chart(pose.theta, pose.phi)
            assert k3[i].tobytes() == k3_body(pose).tobytes()
            assert k3_th[i].tobytes() == d_th[:, 0].tobytes()
            assert k3_ph[i].tobytes() == d_ph[:, 0].tobytes()


class TestOmegaMap:
    def test_stacked_maps_are_the_bits_of_omega_map(self):
        rng = np.random.default_rng(13)
        poses = random_poses(rng, 200)
        maps = omega_maps(np.array([p.theta for p in poses]), [p.phi for p in poses])
        for w, pose in zip(maps, poses):
            assert w.tobytes() == omega_map(pose.theta, pose.phi).tobytes()

    def test_stacked_maps_keep_the_gimbal_check(self):
        theta = np.array([0.1, math.pi / 2 - 0.5 * GIMBAL_GUARD])
        with pytest.raises(GimbalLock, match="within guard"):
            omega_maps(theta, np.zeros(2))

    def test_omega_map_is_the_first_of_omega_chart(self):
        rng = np.random.default_rng(38)
        bound = math.pi / 2 - GIMBAL_GUARD
        for theta, phi in zip(rng.uniform(-bound, bound, 200), rng.uniform(-4.0, 4.0, 200)):
            theta, phi = float(theta), float(phi)
            assert omega_map(theta, phi).tobytes() == omega_chart(theta, phi)[0].tobytes()

    @pytest.mark.parametrize("theta", [math.pi / 2 - GIMBAL_GUARD, -math.pi / 2, 2.0])
    def test_omega_map_guard_names_the_pitch(self, theta):
        with pytest.raises(GimbalLock) as raised:
            omega_map(theta, 0.3)
        assert str(raised.value) == f"pitch {theta} within guard of pi/2"

    def test_zero_angles_permutation(self):
        w = omega_map(0.0, 0.0)
        rates = np.array([1.5, -2.0, 0.7])  # (psi, theta, phi) rates
        np.testing.assert_array_equal(w @ rates, [0.7, -2.0, 1.5])

    def test_pure_yaw_rate(self):
        w = omega_map(0.2, 0.1)
        omega = w @ np.array([1.0, 0.0, 0.0])
        expected = [
            -math.sin(0.2),
            math.cos(0.2) * math.sin(0.1),
            math.cos(0.2) * math.cos(0.1),
        ]
        np.testing.assert_allclose(omega, expected, rtol=1e-15)

    def test_determinant_magnitude(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            theta = rng.uniform(-1.5, 1.5)
            phi = rng.uniform(-math.pi, math.pi)
            det = np.linalg.det(omega_map(theta, phi))
            assert det < 0.0
            assert abs(abs(det) - math.cos(theta)) < 1e-12

    def test_gimbal_guard(self):
        with pytest.raises(GimbalLock):
            omega_map(math.pi / 2 - 1e-9, 0.0)

    def test_partials_match_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(50):
            theta = rng.uniform(-1.3, 1.3)
            phi = rng.uniform(-3.0, 3.0)
            _, d_th, d_ph = omega_chart(theta, phi)
            fd_th = (omega_map(theta + h, phi) - omega_map(theta - h, phi)) / (2 * h)
            fd_ph = (omega_map(theta, phi + h) - omega_map(theta, phi - h)) / (2 * h)
            np.testing.assert_allclose(d_th, fd_th, atol=1e-8)
            np.testing.assert_allclose(d_ph, fd_ph, atol=1e-8)

    def test_rotation_rate_reconstruction(self):
        # along a smooth angle trajectory, Rdot must equal R [omega]_x
        def angles(t):
            return 0.4 * math.sin(t), 0.5 * math.sin(0.7 * t), 0.6 * math.cos(1.3 * t)

        def rates(t, h=1e-6):
            a0 = np.array(angles(t - h))
            a1 = np.array(angles(t + h))
            return (a1 - a0) / (2 * h)

        for t in np.linspace(0.0, 5.0, 23):
            psi, theta, phi = angles(t)
            dpsi, dtheta, dphi = rates(t)
            omega = omega_map(theta, phi) @ np.array([dpsi, dtheta, dphi])
            skew = np.array(
                [
                    [0.0, -omega[2], omega[1]],
                    [omega[2], 0.0, -omega[0]],
                    [-omega[1], omega[0], 0.0],
                ]
            )
            pose = Pose(psi=psi, theta=theta, phi=phi)
            r = rotation_matrix(pose)
            h = 1e-6
            psi_p, theta_p, phi_p = angles(t + h)
            psi_m, theta_m, phi_m = angles(t - h)
            r_dot_fd = (
                rotation_matrix(Pose(psi=psi_p, theta=theta_p, phi=phi_p))
                - rotation_matrix(Pose(psi=psi_m, theta=theta_m, phi=phi_m))
            ) / (2 * h)
            np.testing.assert_allclose(r @ skew, r_dot_fd, atol=1e-6)


def depth_row_partials(pose):
    """k3 and its first and second angle partials, read from the chart.

    The second partials are the sign flips the hydrostatics use.
    """
    w, d_th, d_ph = omega_chart(pose.theta, pose.phi)
    k3, k3_th, k3_ph = w[:, 0], d_th[:, 0], d_ph[:, 0]
    k3_thth = -k3
    k3_thph = np.array([0.0, k3_th[2], -k3_th[1]])
    k3_phph = np.array([0.0, -k3[1], -k3[2]])
    return k3, k3_th, k3_ph, k3_thth, k3_thph, k3_phph


class TestPartialsR3:
    """Partials of the depth row, the third row r3 of the rotation matrix."""

    def test_chart_column_zero_is_k3_body(self):
        rng = np.random.default_rng(23)
        for pose in random_poses(rng, 200):
            w = omega_chart(pose.theta, pose.phi)[0]
            assert w[:, 0].tobytes() == k3_body(pose).tobytes()

    def test_values_at_upright_pose(self):
        _, d_theta, d_phi, thth, thph, phph = depth_row_partials(Pose())
        np.testing.assert_array_equal(d_theta, [-1.0, 0.0, 0.0])
        np.testing.assert_array_equal(d_phi, [0.0, 1.0, 0.0])
        x = np.array([1.7, -0.3, 2.2])
        # contractions with a body point reproduce the classic table
        assert d_theta @ x == -x[0]
        assert d_phi @ x == x[1]
        assert thth @ x == -x[2]
        assert phph @ x == -x[2]
        assert thph @ x == 0.0

    def test_first_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for pose in random_poses(rng, 100):
            _, d_theta, d_phi, *_ = depth_row_partials(pose)
            fd_th = (
                k3_body(pose.replace(theta=pose.theta + h))
                - k3_body(pose.replace(theta=pose.theta - h))
            ) / (2 * h)
            fd_ph = (
                k3_body(pose.replace(phi=pose.phi + h))
                - k3_body(pose.replace(phi=pose.phi - h))
            ) / (2 * h)
            np.testing.assert_allclose(d_theta, fd_th, atol=1e-6)
            np.testing.assert_allclose(d_phi, fd_ph, atol=1e-6)

    def test_second_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(19)
        h = 1e-5
        for pose in random_poses(rng, 30):
            _, _, _, thth, thph, phph = depth_row_partials(pose)
            fd_thth = (
                k3_body(pose.replace(theta=pose.theta + h))
                - 2 * k3_body(pose)
                + k3_body(pose.replace(theta=pose.theta - h))
            ) / h**2
            np.testing.assert_allclose(thth, fd_thth, atol=1e-5)
            fd_thph = (
                k3_body(pose.replace(theta=pose.theta + h, phi=pose.phi + h))
                - k3_body(pose.replace(theta=pose.theta + h, phi=pose.phi - h))
                - k3_body(pose.replace(theta=pose.theta - h, phi=pose.phi + h))
                + k3_body(pose.replace(theta=pose.theta - h, phi=pose.phi - h))
            ) / (4 * h**2)
            np.testing.assert_allclose(thph, fd_thph, atol=1e-5)
            fd_phph = (
                k3_body(pose.replace(phi=pose.phi + h))
                - 2 * k3_body(pose)
                + k3_body(pose.replace(phi=pose.phi - h))
            ) / h**2
            np.testing.assert_allclose(phph, fd_phph, atol=1e-5)


class TestPose:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Pose(zeta=float("nan"))

    @pytest.mark.parametrize("theta", [math.pi / 2, 2.0, -3.0])
    def test_takes_any_finite_pitch(self, theta):
        # the down axis is defined at every attitude; only the angle-rate
        # map refuses the pole
        pose = Pose(zeta=0.1, theta=theta, phi=0.3)
        np.testing.assert_array_equal(k3_body(pose), rotation_matrix(pose)[2])
        with pytest.raises(GimbalLock, match="within guard"):
            omega_map(pose.theta, pose.phi)

    def test_array_round_trip(self):
        pose = Pose(0.1, -0.2, 0.3, 0.4, -0.5, 0.6)
        assert Pose.from_array(pose.as_array()) == pose
