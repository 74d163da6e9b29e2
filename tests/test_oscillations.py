import numpy as np
import pytest

import floatdyn as fd
from floatdyn import (
    ReducedState,
    hessian_at_equilibrium,
    integrate_reduced,
    kinetic_metric,
    normal_modes,
    reduced_mass_matrix,
)
from floatdyn.errors import IndefiniteMass, NonSymmetricInput
from helpers import linearized_prediction


@pytest.fixture(scope="module")
def barge_modal(barge, barge_body, env, barge_equilibrium):
    hessian = hessian_at_equilibrium(barge, barge_equilibrium.pose, env, mass=barge_body.mass)
    m_red = reduced_mass_matrix(
        kinetic_metric(barge_body, barge_equilibrium.pose.theta, barge_equilibrium.pose.phi)
    )
    return normal_modes(hessian, m_red), hessian, m_red


class TestNormalModes:
    def test_diagonal_oscillators(self):
        c = np.diag([4.0, 9.0, 25.0])
        m = np.diag([1.0, 1.0, 1.0])
        modal = normal_modes(-c, m)
        np.testing.assert_allclose(modal.lambdas, [4.0, 9.0, 25.0], rtol=1e-14)
        np.testing.assert_allclose(modal.omegas, [2.0, 3.0, 5.0], rtol=1e-14)
        np.testing.assert_allclose(
            modal.frequencies_hz, np.array([2.0, 3.0, 5.0]) / (2 * np.pi), rtol=1e-14
        )

    def test_barge_against_decoupled_formulas(self, barge_modal, barge_body, env):
        modal, hessian, m_red = barge_modal
        mass = barge_body.mass
        inertia = barge_body.inertia
        area = 2.0
        gm_t, gm_l = 5.0 / 24.0, 29.0 / 24.0
        delta = mass * env.g
        expected = np.sort(
            [
                env.rho * env.g * area / mass,
                delta * gm_l / inertia[1, 1],
                delta * gm_t * inertia[2, 2]
                / (inertia[0, 0] * inertia[2, 2] - inertia[0, 2] ** 2),
            ]
        )
        np.testing.assert_allclose(modal.lambdas, expected, rtol=1e-9)

    def test_characteristic_polynomial_vanishes_at_eigenvalues(self, barge_modal):
        modal, hessian, m_red = barge_modal
        c = -hessian
        scale = abs(np.linalg.det(m_red)) * max(np.abs(modal.lambdas)) ** 3
        for lam in modal.lambdas:
            assert abs(np.linalg.det(c - lam * m_red)) <= 1e-8 * scale

    def test_mass_orthogonality(self, barge_modal):
        modal, _, m_red = barge_modal
        gram = modal.mode_shapes.T @ m_red @ modal.mode_shapes
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-9)

    def test_roll_mode_decouples_exactly(self, barge_modal):
        modal, _, _ = barge_modal
        roll_col = None
        for k in range(3):
            if modal.mode_shapes[2, k] != 0.0:
                roll_col = k
        assert roll_col is not None
        shape = modal.mode_shapes[:, roll_col]
        assert shape[0] == 0.0 and shape[1] == 0.0 and shape[2] > 0.0
        others = [k for k in range(3) if k != roll_col]
        for k in others:
            assert modal.mode_shapes[2, k] == 0.0

    def test_congruence_invariance(self, barge_modal, rng):
        modal, hessian, m_red = barge_modal
        c = -hessian
        for _ in range(20):
            t = rng.normal(size=(3, 3))
            while abs(np.linalg.det(t)) < 0.1:
                t = rng.normal(size=(3, 3))
            modal_t = normal_modes(-(t.T @ c @ t), t.T @ m_red @ t)
            np.testing.assert_allclose(modal_t.lambdas, modal.lambdas, rtol=1e-8)

    def test_unstable_eigenvalues_reported_not_suppressed(self, cube, env):
        hessian = hessian_at_equilibrium(cube, fd.Pose(zeta=0.0), env)
        mass = 500.0
        m_red = reduced_mass_matrix(
            kinetic_metric(fd.BodyProperties(mass, mass / 6.0 * np.eye(3)), 0.0, 0.0)
        )
        modal = normal_modes(hessian, m_red)
        assert (modal.lambdas < 0).sum() == 2  # pitch and roll of the cube
        assert np.isnan(modal.omegas[modal.lambdas < 0]).all()

    def test_indefinite_mass_rejected(self):
        with pytest.raises(IndefiniteMass):
            normal_modes(-np.eye(3), np.diag([1.0, -1.0, 1.0]))

    def test_asymmetric_input_rejected(self):
        bad = np.eye(3)
        bad[0, 1] = 0.2
        with pytest.raises(NonSymmetricInput):
            normal_modes(bad, np.eye(3))
        with pytest.raises(NonSymmetricInput):
            normal_modes(-np.eye(3), bad)


def assert_matches_scipy_eigh(modal, c, m):
    """``normal_modes`` against ``scipy.linalg.eigh(c, m)``."""
    linalg = pytest.importorskip("scipy.linalg")
    ref_vals, ref_shapes = linalg.eigh(c, m)
    np.testing.assert_allclose(modal.lambdas, ref_vals, rtol=1e-12)
    shapes = modal.mode_shapes
    np.testing.assert_allclose(shapes.T @ m @ shapes, np.eye(3), rtol=0, atol=1e-12)
    # mass-normalized shapes: parallel columns have m-inner product +-1
    signs = np.sign(np.sum(ref_shapes * (m @ shapes), axis=0))
    np.testing.assert_allclose(
        shapes * signs, ref_shapes, rtol=0, atol=1e-12 * np.abs(ref_shapes).max()
    )


class TestAgainstScipyEigh:
    def test_random_definite_pairs(self, rng):
        for k in range(200):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            m = a @ a.T + 0.5 * np.eye(3)
            c = b @ b.T + 0.5 * np.eye(3)
            if k % 2:
                c = c - 2.0 * m  # unstable pairs: some eigenvalues negative
            assert_matches_scipy_eigh(normal_modes(-c, m), c, m)

    def test_random_decoupled_pairs(self, rng):
        for k in range(200):
            a = np.zeros((3, 3))
            b = np.zeros((3, 3))
            a[:2, :2] = rng.normal(size=(2, 2))
            b[:2, :2] = rng.normal(size=(2, 2))
            a[2, 2], b[2, 2] = rng.uniform(0.5, 2.0, 2)
            m = a @ a.T + 0.5 * np.eye(3)
            c = b @ b.T + 0.5 * np.eye(3)
            if k % 2:
                c = c - 2.0 * m
            modal = normal_modes(-c, m)
            assert_matches_scipy_eigh(modal, c, m)
            roll = int(np.argmax(np.abs(modal.mode_shapes[2])))
            assert np.all(modal.mode_shapes[:2, roll] == 0.0)
            assert np.all(np.delete(modal.mode_shapes[2], roll) == 0.0)

    def test_barge_equilibrium_decoupled(self, barge_modal):
        modal, hessian, m_red = barge_modal
        assert_matches_scipy_eigh(modal, -hessian, m_red)

    def test_tilted_l_prism_equilibrium_coupled(self, l_prism, env):
        mass, inertia = fd.inertia_from_mesh(l_prism, 600.0)
        body = fd.BodyProperties(mass, inertia)
        eq = fd.find_equilibrium(l_prism, body, env, initial=(0.0, 0.1, 0.05))
        assert eq.converged and abs(eq.pose.theta) + abs(eq.pose.phi) > 1e-3
        hessian = hessian_at_equilibrium(l_prism, eq.pose, env, mass=mass)
        m_red = reduced_mass_matrix(kinetic_metric(body, eq.pose.theta, eq.pose.phi))
        assert np.abs(hessian[:2, 2]).max() > 1e-6 * np.abs(hessian).max()
        modal = normal_modes(hessian, m_red)
        assert np.all(modal.mode_shapes != 0.0)
        assert_matches_scipy_eigh(modal, -hessian, m_red)


class TestCoupledHeavePitchBlock:
    def test_eigenvalues_match_quadratic_formula(self, raked_prism, env):
        # with an offset floating center the heave-pitch block couples;
        # its determinant is a quadratic whose roots are the oracle
        mesh, pose, body = raked_prism
        hessian = hessian_at_equilibrium(mesh, pose, env, mass=body.mass)
        m_red = reduced_mass_matrix(kinetic_metric(body, 0.0, 0.0))
        modal = normal_modes(hessian, m_red)

        c = -hessian
        a2 = m_red[0, 0] * m_red[1, 1]
        a1 = -(m_red[0, 0] * c[1, 1] + m_red[1, 1] * c[0, 0])
        a0 = c[0, 0] * c[1, 1] - c[0, 1] ** 2
        disc = np.sqrt(a1 * a1 - 4 * a2 * a0)
        block_roots = np.sort([(-a1 - disc) / (2 * a2), (-a1 + disc) / (2 * a2)])
        roll_root = c[2, 2] / m_red[2, 2]
        expected = np.sort(np.append(block_roots, roll_root))
        np.testing.assert_allclose(modal.lambdas, expected, rtol=1e-10)
        # coupled shapes mix heave and pitch but keep roll clean
        roll_col = int(np.argmax(np.abs(modal.mode_shapes[2])))
        others = [k for k in range(3) if k != roll_col]
        for k in others:
            assert modal.mode_shapes[0, k] != 0.0
            assert modal.mode_shapes[1, k] != 0.0
            assert modal.mode_shapes[2, k] == 0.0


class TestLinearizedPrediction:
    def test_single_mode_is_a_pure_sinusoid(self, barge_modal):
        modal, _, _ = barge_modal
        shape = modal.mode_shapes[:, 1]
        osc = linearized_prediction(modal, 0.01 * shape, np.zeros(3))
        t = np.linspace(0.0, 3.0, 97)
        samples = osc.deviations(t)
        expected = 0.01 * np.outer(np.cos(modal.omegas[1] * t), shape)
        np.testing.assert_allclose(samples, expected, atol=1e-12)

    def test_zero_deviation_stays_zero(self, barge_modal):
        modal, _, _ = barge_modal
        osc = linearized_prediction(modal, np.zeros(3), np.zeros(3))
        assert np.all(osc.deviations(np.linspace(0, 5, 11)) == 0.0)

    def test_initial_rates_enter_through_sines(self, barge_modal):
        modal, _, _ = barge_modal
        osc = linearized_prediction(modal, np.zeros(3), np.array([0.02, 0.0, 0.0]))
        h = 1e-7
        ahead, behind = osc.deviations(np.array([h]))[0], osc.deviations(np.array([-h]))[0]
        rate = (ahead - behind) / (2 * h)
        np.testing.assert_allclose(rate, [0.02, 0.0, 0.0], atol=1e-7)

    def test_small_heave_release_tracks_nonlinear_dynamics(
        self, barge, barge_body, env, barge_equilibrium, barge_modal
    ):
        modal, _, _ = barge_modal
        amp = 1e-3 * barge.height
        eq = barge_equilibrium.pose
        osc = linearized_prediction(modal, np.array([amp, 0.0, 0.0]), np.zeros(3))
        heave_omega = modal.omegas[np.argmax(np.abs(modal.mode_shapes[0]) > 0.5)]
        period = 2 * np.pi / heave_omega
        traj = integrate_reduced(
            barge, barge_body, env,
            ReducedState(np.array([eq.zeta + amp, 0.0, 0.0]), np.zeros(3), np.zeros(3)),
            5 * period, period / 100, rtol=1e-11, atol=1e-12,
        )
        predicted = osc.deviations(traj.t) + np.array([eq.zeta, 0.0, 0.0])
        actual = traj.q[:, [2, 4, 5]]
        err = np.linalg.norm(actual[:, 0] - predicted[:, 0]) / np.linalg.norm(
            predicted[:, 0] - eq.zeta
        )
        assert err < 0.01
