import json
from pathlib import Path

import numpy as np
import pytest

import floatdyn as fd
from floatdyn import (
    BodyProperties,
    FullState,
    Pose,
    ReducedState,
    cyclic_rates,
    integrate_full,
    integrate_reduced,
    kinetic_metric,
    reduced_mass_matrix,
)
from floatdyn.dynamics import (
    MAX_NATURAL_ENERGY, METHODS, _check_start, _metric_and_partials, _sample_times,
)
from floatdyn.kinematics import omega_map
from helpers import (
    IX_AA, IX_NN, conserved_momenta, lagrangian, routhian, schur_reduced_mass, solved_cyclic_rates,
)


WORK_PRECISION = Path(__file__).resolve().parents[1] / "BENCH_work_precision.json"


def random_inertia(rng, scale=10.0):
    """Random physically valid inertia: from a sampled mass distribution."""
    points = rng.normal(size=(12, 3)) * scale**0.5
    masses = rng.uniform(0.5, 2.0, 12)
    inertia = np.zeros((3, 3))
    for m, p in zip(masses, points):
        inertia += m * ((p @ p) * np.eye(3) - np.outer(p, p))
    return inertia


class TestBodyProperties:
    def test_rejects_indefinite_inertia(self):
        with pytest.raises(ValueError):
            BodyProperties(1.0, np.diag([1.0, 1.0, -0.1]))

    def test_rejects_triangle_inequality_violation(self):
        # a single principal moment larger than the other two combined
        with pytest.raises(ValueError):
            BodyProperties(1.0, np.diag([10.0, 1.0, 1.0]))

    def test_rejects_asymmetric_inertia(self):
        bad = np.diag([2.0, 3.0, 4.0])
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            BodyProperties(1.0, bad)

    def test_accepts_physical_inertia(self, rng):
        for _ in range(20):
            BodyProperties(1.0, random_inertia(rng))


class TestKineticMetric:
    @pytest.mark.parametrize("theta", [np.pi / 2, 2.0])
    def test_refuses_the_pitch_pole(self, barge_body, theta):
        # a Pose takes this pitch; the angle-rate map does not
        with pytest.raises(fd.GimbalLock, match="within guard"):
            kinetic_metric(barge_body, Pose(theta=theta).theta, 0.0)

    def test_zero_angles_maps_axes(self, rng):
        inertia = np.diag([3.0, 5.0, 7.0])
        body = BodyProperties(2.0, inertia)
        a = kinetic_metric(body, 0.0, 0.0)
        assert np.all(a[:3, :3] == 2.0 * np.eye(3))
        # rotational block in (psi, theta, phi) order picks I33, I22, I11
        np.testing.assert_array_equal(a[3:, 3:], np.diag([7.0, 5.0, 3.0]))

    def test_quadratic_form_equals_kinetic_energy(self, rng):
        for _ in range(50):
            body = BodyProperties(rng.uniform(0.5, 5.0), random_inertia(rng))
            theta = rng.uniform(-1.2, 1.2)
            phi = rng.uniform(-3.0, 3.0)
            qdot = rng.normal(size=6)
            a = kinetic_metric(body, theta, phi)
            omega = omega_map(theta, phi) @ qdot[[3, 4, 5]]
            expected = body.mass * qdot[:3] @ qdot[:3] + omega @ body.inertia @ omega
            assert qdot @ a @ qdot == pytest.approx(expected, rel=1e-12)

    def test_positive_definite_in_the_admissible_range(self, rng):
        for _ in range(1000):
            body = BodyProperties(1.0, random_inertia(rng))
            theta = rng.uniform(-1.5, 1.5)
            phi = rng.uniform(-np.pi, np.pi)
            eigs = np.linalg.eigvalsh(kinetic_metric(body, theta, phi))
            assert eigs.min() > 0.0

    def test_metric_partials_match_finite_differences(self, rng):
        h = 1e-6
        for _ in range(20):
            body = BodyProperties(1.0, random_inertia(rng))
            theta = rng.uniform(-1.2, 1.2)
            phi = rng.uniform(-3.0, 3.0)
            _, d_th, d_ph = _metric_and_partials(body, theta, phi)
            fd_th = (
                kinetic_metric(body, theta + h, phi)
                - kinetic_metric(body, theta - h, phi)
            ) / (2 * h)
            fd_ph = (
                kinetic_metric(body, theta, phi + h)
                - kinetic_metric(body, theta, phi - h)
            ) / (2 * h)
            scale = np.abs(d_th).max() + np.abs(d_ph).max() + 1.0
            np.testing.assert_allclose(d_th, fd_th, atol=1e-7 * scale)
            np.testing.assert_allclose(d_ph, fd_ph, atol=1e-7 * scale)


class TestConservedMomenta:
    def test_rest_state(self, rng):
        body = BodyProperties(3.0, random_inertia(rng))
        state = FullState(Pose(zeta=0.2, theta=0.1), np.zeros(6))
        np.testing.assert_array_equal(conserved_momenta(body, state), np.zeros(3))

    def test_surge_momentum(self):
        body = BodyProperties(3.0, np.eye(3))
        state = FullState(Pose(), np.array([2.0, 0, 0, 0, 0, 0]))
        assert conserved_momenta(body, state)[0] == 6.0

    def test_yaw_momentum_at_zero_angles(self):
        body = BodyProperties(1.0, np.diag([2.0, 3.0, 4.0]))
        state = FullState(Pose(), np.array([0, 0, 0, 0.5, 0, 0]))
        assert conserved_momenta(body, state)[2] == pytest.approx(4.0 * 0.5)


class TestRouthian:
    def test_reduces_without_coupling_at_zero_momenta(self, rng):
        body = BodyProperties(2.0, np.diag([2.0, 3.0, 4.0]))
        metric = kinetic_metric(body, 0.0, 0.0)
        qdot_alpha = np.array([0.4, -0.2, 0.7])
        u = -12.5
        value = routhian(metric, u, qdot_alpha, np.zeros(3))
        a_nn = metric[IX_NN]
        assert value == pytest.approx(0.5 * qdot_alpha @ a_nn @ qdot_alpha + u)

    def test_legendre_consistency_with_full_lagrangian(self, cube, cube_body, env, rng):
        # R equals L - p . qdot_cyclic when the cyclic rates solve the
        # momentum relations
        for _ in range(25):
            pose = Pose(zeta=rng.uniform(-0.2, 0.2), theta=rng.uniform(-0.5, 0.5),
                        phi=rng.uniform(-1.0, 1.0))
            qdot = rng.normal(size=6)
            state = FullState(pose, qdot)
            p = conserved_momenta(cube_body, state)
            metric = kinetic_metric(cube_body, pose.theta, pose.phi)
            u = cube_body.mass * env.g * pose.zeta + fd.potential(cube, pose, env)
            r_value = routhian(metric, u, qdot[[2, 4, 5]], p)
            l_value = lagrangian(cube, cube_body, env, state)
            assert r_value == pytest.approx(
                l_value - p @ qdot[[0, 1, 3]], rel=1e-10, abs=1e-10
            )

    def test_momentum_derivative_recovers_cyclic_rates(self, rng):
        # dR/dp = -qdot_cyclic at the reconstruction point
        body = BodyProperties(2.0, random_inertia(rng))
        metric = kinetic_metric(body, 0.4, -0.7)
        qdot_alpha = rng.normal(size=3)
        p = rng.normal(size=3)
        h = 1e-6
        u_dot = cyclic_rates(metric, qdot_alpha, p)
        for k in range(3):
            dp = np.zeros(3)
            dp[k] = h
            deriv = (
                routhian(metric, 0.0, qdot_alpha, p + dp)
                - routhian(metric, 0.0, qdot_alpha, p - dp)
            ) / (2 * h)
            assert deriv == pytest.approx(-u_dot[k], rel=1e-6, abs=1e-8)


class TestReducedMassMatrix:
    def test_no_coupling_returns_noncyclic_block(self):
        body = BodyProperties(2.0, np.diag([2.0, 3.0, 4.0]))
        metric = kinetic_metric(body, 0.0, 0.0)
        np.testing.assert_allclose(
            reduced_mass_matrix(metric), metric[IX_NN], atol=1e-15
        )

    def test_symmetric_body_block_values(self):
        # with the (1,2)/(2,3) couplings zero but a nonzero (1,3) product
        # of inertia, the roll entry picks up the gyroscopic reduction
        inertia = np.array([[4.0, 0.0, 0.8], [0.0, 5.0, 0.0], [0.8, 0.0, 6.0]])
        body = BodyProperties(2.5, inertia)
        m_red = reduced_mass_matrix(kinetic_metric(body, 0.0, 0.0))
        expected = np.diag(
            [2.5, 5.0, (4.0 * 6.0 - 0.8**2) / 6.0]
        )
        np.testing.assert_allclose(m_red, expected, atol=1e-13)

    def test_schur_determinant_identity(self, rng):
        for _ in range(50):
            body = BodyProperties(rng.uniform(0.5, 3.0), random_inertia(rng))
            metric = kinetic_metric(body, rng.uniform(-1.2, 1.2), rng.uniform(-3, 3))
            m_red = reduced_mass_matrix(metric)
            lhs = np.linalg.det(m_red)
            rhs = np.linalg.det(metric) / np.linalg.det(metric[IX_AA])
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_positive_definite(self, rng):
        for _ in range(100):
            body = BodyProperties(1.0, random_inertia(rng))
            metric = kinetic_metric(body, rng.uniform(-1.4, 1.4), rng.uniform(-3, 3))
            assert np.linalg.eigvalsh(reduced_mass_matrix(metric)).min() > 0.0


class TestClosedFormReduction:
    # the kinetic metric's cyclic block is diag(m, m, c), so the package
    # reduces in closed form; the generic solves of the oracle do not
    # assume that shape

    def test_matches_the_generic_solves(self, rng):
        for _ in range(200):
            body = BodyProperties(rng.uniform(0.5, 3.0), random_inertia(rng))
            metric = kinetic_metric(body, rng.uniform(-1.4, 1.4), rng.uniform(-3, 3))
            expected = schur_reduced_mass(metric)
            np.testing.assert_allclose(
                reduced_mass_matrix(metric), expected, rtol=0, atol=1e-14 * np.abs(expected).max()
            )
            qdot_alpha, p = rng.normal(size=3), rng.normal(size=3)
            expected = solved_cyclic_rates(metric, qdot_alpha, p)
            np.testing.assert_allclose(
                cyclic_rates(metric, qdot_alpha, p), expected,
                rtol=0, atol=1e-14 * np.abs(expected).max(),
            )


class TestLagrangian:
    def test_rest_at_equilibrium_is_pure_potential(self, barge, barge_body, env, barge_equilibrium):
        state = FullState(barge_equilibrium.pose, np.zeros(6))
        expected = barge_body.mass * env.g * barge_equilibrium.pose.zeta + fd.potential(
            barge, barge_equilibrium.pose, env
        )
        assert lagrangian(barge, barge_body, env, state) == pytest.approx(expected)

    def test_pure_heave_adds_quadratic_kinetic_term(self, barge, barge_body, env, barge_equilibrium):
        rest = FullState(barge_equilibrium.pose, np.zeros(6))
        moving = FullState(barge_equilibrium.pose, np.array([0, 0, 0.7, 0, 0, 0]))
        gain = lagrangian(barge, barge_body, env, moving) - lagrangian(
            barge, barge_body, env, rest
        )
        assert gain == pytest.approx(0.5 * barge_body.mass * 0.7**2, rel=1e-12)

    def test_pure_yaw_rate_kinetic_term(self, barge, barge_body, env, barge_equilibrium):
        rest = FullState(barge_equilibrium.pose, np.zeros(6))
        spinning = FullState(barge_equilibrium.pose, np.array([0, 0, 0, 1.3, 0, 0]))
        gain = lagrangian(barge, barge_body, env, spinning) - lagrangian(
            barge, barge_body, env, rest
        )
        assert gain == pytest.approx(
            0.5 * barge_body.inertia[2, 2] * 1.3**2, rel=1e-12
        )


class TestIntegrateFull:
    def test_equilibrium_is_a_fixed_point(self, barge, barge_body, env, barge_equilibrium):
        state = FullState(barge_equilibrium.pose, np.zeros(6))
        traj = integrate_full(barge, barge_body, env, state, 2.0, 0.05)
        np.testing.assert_allclose(
            traj.q, np.tile(barge_equilibrium.pose.as_array(), (len(traj.t), 1)),
            atol=1e-9,
        )

    def test_neutrally_buoyant_translation(self, cube, env):
        # fully submerged, m = rho V, B = G: force free translation
        body = BodyProperties(1000.0, 1000.0 / 6.0 * np.eye(3))
        state = FullState(Pose(zeta=3.0), np.array([0.4, -0.1, 0.05, 0, 0, 0]))
        traj = integrate_full(cube, body, env, state, 2.0, 0.1)
        # surge and sway have no forces at all: momenta exactly constant
        assert np.all(traj.momenta[:, 0] == traj.momenta[0, 0])
        assert np.all(traj.momenta[:, 1] == traj.momenta[0, 1])
        np.testing.assert_allclose(
            traj.q[-1, :2],
            state.pose.as_array()[:2] + 2.0 * np.array([0.4, -0.1]),
            rtol=1e-9,
        )

    def test_heave_release_period(self, barge, barge_body, env, barge_equilibrium):
        area = 2.0
        period = 2 * np.pi * np.sqrt(barge_body.mass / (env.rho * env.g * area))
        start = FullState(
            barge_equilibrium.pose.replace(zeta=barge_equilibrium.pose.zeta + 0.01),
            np.zeros(6),
        )
        traj = integrate_full(barge, barge_body, env, start, 3 * period, period / 200)
        z = traj.q[:, 2] - barge_equilibrium.pose.zeta
        up = np.nonzero((z[:-1] < 0) & (z[1:] >= 0))[0]
        times = [
            traj.t[i] - z[i] * (traj.t[i + 1] - traj.t[i]) / (z[i + 1] - z[i])
            for i in up
        ]
        measured = (times[-1] - times[0]) / (len(times) - 1)
        assert measured == pytest.approx(period, rel=0.01)

    def test_conservation_diagnostics(self, barge, barge_body, env, barge_equilibrium):
        rates = np.array([0.05, -0.02, 0.08, 0.04, 0.06, -0.07])
        state = FullState(
            barge_equilibrium.pose.replace(zeta=barge_equilibrium.pose.zeta + 0.02),
            rates,
        )
        traj = integrate_full(barge, barge_body, env, state, 3.0, 0.02)
        assert traj.energy_drift() < 1e-8
        assert traj.momentum_drift().max() < 1e-9 * max(
            1.0, np.abs(traj.momenta[0]).max()
        )

    def test_cyclic_rows_take_no_force(self, barge, barge_body, env, barge_equilibrium):
        # the forces enter only the heave, pitch and roll rows, so the
        # surge and sway rates, and their momenta, keep every bit
        rates = np.array([0.1, -0.05, 0.02, 0.7, 0.3, -0.4])
        pose = barge_equilibrium.pose
        state = FullState(pose.replace(zeta=pose.zeta + 0.01, phi=0.2), rates)
        traj = integrate_full(barge, barge_body, env, state, 2.0, 0.05)
        assert np.all(traj.qdot[:, :2] == rates[:2])
        start = np.tile(traj.momenta[0, :2], (len(traj.t), 1))
        assert traj.momenta[:, :2].tobytes() == start.tobytes()

    def test_initial_yaw_does_not_affect_restoring_dynamics(
        self, barge, barge_body, env, barge_equilibrium
    ):
        # heave/pitch/roll evolution is invariant under the starting yaw
        rates = np.array([0.0, 0.0, 0.05, 0.0, 0.03, -0.04])
        base = FullState(
            barge_equilibrium.pose.replace(zeta=barge_equilibrium.pose.zeta + 0.01),
            rates,
        )
        yawed = FullState(base.pose.replace(psi=0.7, xi=3.0, eta=-2.0), rates)
        # the vector field is exactly invariant; the two runs differ only
        # through step-size control, so compare at integration accuracy
        tight = {"rtol": 1e-11, "atol": 1e-12}
        traj_a = integrate_full(barge, barge_body, env, base, 1.5, 0.05, **tight)
        traj_b = integrate_full(barge, barge_body, env, yawed, 1.5, 0.05, **tight)
        np.testing.assert_allclose(
            traj_a.q[:, [2, 4, 5]], traj_b.q[:, [2, 4, 5]], atol=1e-7
        )
        # pitch and roll couple kinematically into a small yaw wobble at
        # conserved zero yaw momentum; only the yaw offset is preserved
        np.testing.assert_allclose(
            traj_b.q[:, 3] - traj_a.q[:, 3], 0.7, atol=1e-7
        )

    def test_gimbal_lock_halts_early(self, cube, env):
        body = BodyProperties(1000.0, 1000.0 / 6.0 * np.eye(3))
        # submerged neutral body spinning about the pitch axis
        state = FullState(Pose(zeta=3.0), np.array([0, 0, 0, 0, 1.0, 0]))
        traj = integrate_full(cube, body, env, state, 5.0, 0.05)
        assert traj.terminated_early
        assert traj.t[-1] < 1.6
        assert np.abs(traj.q[:, 4]).max() < np.pi / 2


class TestStartCheck:
    @pytest.mark.parametrize("share", [0.99, 1.01])
    def test_kinetic_energy_bound_in_units_of_m_g_d(self, barge, barge_body, env, share):
        # a surge start with kinetic energy share * bound * m g d, given as
        # a rate (full) and as a momentum (reduced)
        m = barge_body.mass
        rate = np.sqrt(2.0 * share * MAX_NATURAL_ENERGY * env.g * barge.diameter)
        starts = [(np.array([rate, 0, 0, 0, 0, 0]), None),
                  (np.zeros(3), np.array([m * rate, 0.0, 0.0]))]
        for rates, momenta in starts:
            if share < 1.0:
                _check_start(barge, barge_body, env, 0.0, 0.0, rates, momenta)
            else:
                with pytest.raises(fd.ConfigError, match="kinetic energy is 1.01e[+]04 m g d"):
                    _check_start(barge, barge_body, env, 0.0, 0.0, rates, momenta)


class TestNonFiniteState:
    """A state that is not finite inside the integrator ends the run typed,
    in both right-hand sides, whatever the method."""

    @pytest.mark.parametrize("mode", ["full", "reduced"])
    @pytest.mark.parametrize("name, value", [("theta", np.inf), ("zeta", np.nan)])
    def test_ends_in_integration_failed(
        self, monkeypatch, barge, barge_body, env, barge_equilibrium, mode, name, value
    ):
        from floatdyn import rk

        # a stepper whose first stage state is not finite in one coordinate
        def stepper(fun, t_span, y0, *args):
            y = y0.copy()
            y[index] = value
            fun(0.0, y)

        monkeypatch.setattr(rk, "solve", stepper)
        zeta = barge_equilibrium.pose.zeta
        if mode == "full":
            index = {"zeta": 2, "theta": 4}[name]
            start = FullState(Pose(zeta=zeta), np.zeros(6))
            integrate = integrate_full
        else:
            index = {"zeta": 0, "theta": 1}[name]
            start = ReducedState([zeta, 0.0, 0.0], np.zeros(3), np.zeros(3))
            integrate = integrate_reduced
        with pytest.raises(fd.IntegrationFailed, match="at t = 0: the state is not finite"):
            integrate(barge, barge_body, env, start, 1.0, 0.1)


def _spinning_start(hull, request):
    """``(mesh, body, coords, rates, momenta)`` of a start with yaw momentum.

    The barge is a small heave-pitch-roll release with yaw momentum
    only.  The jittered L-prism, centered on G, has products of inertia
    and starts trimmed and heeled by about 1 rad at its displacement
    draft, with all three cyclic momenta nonzero.
    """
    if hull == "barge":
        zeta = request.getfixturevalue("barge_equilibrium").pose.zeta
        return (
            request.getfixturevalue("barge"),
            request.getfixturevalue("barge_body"),
            np.array([zeta + 0.015, 0.03, 0.05]),
            np.array([0.0, 0.02, -0.04]),
            np.array([0.0, 0.0, 40.0]),
        )
    l_prism, rho = request.getfixturevalue("l_prism"), request.getfixturevalue("env").rho
    mesh = l_prism.translated(-l_prism.volume_centroid)
    body = BodyProperties(*fd.inertia_from_mesh(mesh, 0.5 * rho))
    assert abs(body.inertia[0, 2]) > 0.1 * body.inertia[0, 0]
    theta, phi = 0.9, -0.7
    lo, hi = -1.0, 1.0
    for _ in range(60):
        zeta = 0.5 * (lo + hi)
        volume = fd.evaluate(mesh, Pose(zeta=zeta, theta=theta, phi=phi)).volume
        lo, hi = (zeta, hi) if rho * volume < body.mass else (lo, zeta)
    return (
        mesh,
        body,
        np.array([zeta + 0.02, theta, phi]),
        np.array([0.03, 0.1, -0.15]),
        np.array([4.0, -3.0, 25.0]),
    )


class TestIntegrateReduced:
    def test_rest_at_equilibrium_stays(self, barge, barge_body, env, barge_equilibrium):
        initial = ReducedState(
            np.array([barge_equilibrium.pose.zeta, 0.0, 0.0]),
            np.zeros(3),
            np.zeros(3),
        )
        traj = integrate_reduced(barge, barge_body, env, initial, 2.0, 0.05)
        np.testing.assert_allclose(traj.q[:, 2], barge_equilibrium.pose.zeta, atol=1e-9)
        np.testing.assert_allclose(traj.q[:, [4, 5]], 0.0, atol=1e-9)
        # cyclic coordinates stay parked at zero
        np.testing.assert_allclose(traj.q[:, [0, 1, 3]], 0.0, atol=1e-12)

    def test_matches_full_projection_at_zero_momenta(self, barge, barge_body, env, barge_equilibrium):
        coords = np.array([barge_equilibrium.pose.zeta + 0.02, 0.05, 0.04])
        rates = np.array([0.01, -0.03, 0.02])
        metric = kinetic_metric(barge_body, coords[1], coords[2])
        full_rates = np.zeros(6)
        full_rates[[2, 4, 5]] = rates
        full_rates[[0, 1, 3]] = cyclic_rates(metric, rates, np.zeros(3))
        pose0 = Pose(0, 0, coords[0], 0, coords[1], coords[2])
        t_end, dt = 2.0, 0.02
        traj_full = integrate_full(
            barge, barge_body, env, FullState(pose0, full_rates), t_end, dt,
            rtol=1e-11, atol=1e-12,
        )
        traj_red = integrate_reduced(
            barge, barge_body, env, ReducedState(coords, rates, np.zeros(3)),
            t_end, dt, rtol=1e-11, atol=1e-12,
        )
        np.testing.assert_allclose(
            traj_red.q[:, [2, 4, 5]], traj_full.q[:, [2, 4, 5]], atol=1e-8
        )
        np.testing.assert_allclose(
            traj_red.q[:, [0, 1, 3]], traj_full.q[:, [0, 1, 3]], atol=1e-8
        )

    @pytest.mark.parametrize("hull", ["barge", "l_prism"])
    def test_matches_full_projection_at_nonzero_yaw_momentum(self, hull, request, env):
        mesh, body, coords, rates, p_target = _spinning_start(hull, request)
        metric = kinetic_metric(body, coords[1], coords[2])
        full_rates = np.zeros(6)
        full_rates[[2, 4, 5]] = rates
        full_rates[[0, 1, 3]] = cyclic_rates(metric, rates, p_target)
        pose0 = Pose(0, 0, coords[0], 0, coords[1], coords[2])
        state = FullState(pose0, full_rates)
        np.testing.assert_allclose(
            conserved_momenta(body, state), p_target, atol=1e-12
        )
        t_end, dt = 2.0, 0.02
        traj_full = integrate_full(
            mesh, body, env, state, t_end, dt, rtol=1e-11, atol=1e-12
        )
        traj_red = integrate_reduced(
            mesh, body, env, ReducedState(coords, rates, p_target),
            t_end, dt, rtol=1e-11, atol=1e-12,
        )
        assert not traj_full.terminated_early and len(traj_red.t) == len(traj_full.t)
        volumes = [fd.evaluate(mesh, Pose.from_array(q)).volume for q in traj_full.q]
        assert 0.0 < min(volumes) and max(volumes) < mesh.volume  # partly submerged
        np.testing.assert_allclose(
            traj_red.q[:, [2, 4, 5]], traj_full.q[:, [2, 4, 5]], atol=1e-8
        )
        np.testing.assert_allclose(
            traj_red.q[:, [0, 1, 3]], traj_full.q[:, [0, 1, 3]], atol=1e-8
        )
        assert np.abs(traj_red.momenta - p_target).max() < 1e-9

    def test_reduced_energy_conserved(self, barge, barge_body, env, barge_equilibrium):
        initial = ReducedState(
            np.array([barge_equilibrium.pose.zeta + 0.02, 0.06, -0.05]),
            np.array([0.0, 0.01, 0.02]),
            np.array([0.0, 0.0, 25.0]),
        )
        traj = integrate_reduced(barge, barge_body, env, initial, 4.0, 0.02)
        assert traj.energy_drift() < 1e-8


class TestReducedEulerLagrangeResidual:
    def test_trajectory_satisfies_the_variational_equations(
        self, barge, barge_body, env, barge_equilibrium
    ):
        """Finite differences of the scalar routhian along a simulated
        trajectory must satisfy d/dt (dR/dqdot) = dR/dq.

        This route never touches the assembled vector field, so it
        checks the reduction algebra end to end.
        """
        p = np.array([0.0, 0.0, 30.0])
        initial = ReducedState(
            np.array([barge_equilibrium.pose.zeta + 0.02, 0.04, 0.05]),
            np.array([0.0, 0.02, -0.01]),
            p,
        )
        dt = 2e-3
        traj = integrate_reduced(
            barge, barge_body, env, initial, 0.2, dt, rtol=1e-12, atol=1e-13
        )

        def scalar_routhian(coords, rates):
            metric = kinetic_metric(barge_body, coords[1], coords[2])
            pose = Pose(0, 0, coords[0], 0, coords[1], coords[2])
            u = barge_body.mass * env.g * coords[0] + fd.potential(barge, pose, env)
            return routhian(metric, u, rates, p)

        def momentum_vector(coords, rates, h=1e-6):
            out = np.zeros(3)
            for k in range(3):
                dr = np.zeros(3)
                dr[k] = h
                out[k] = (
                    scalar_routhian(coords, rates + dr)
                    - scalar_routhian(coords, rates - dr)
                ) / (2 * h)
            return out

        coords = traj.q[:, [2, 4, 5]]
        rates = traj.qdot[:, [2, 4, 5]]
        scale = barge_body.mass * env.g
        for k in range(1, len(traj.t) - 1, 10):
            dp_dt = (
                momentum_vector(coords[k + 1], rates[k + 1])
                - momentum_vector(coords[k - 1], rates[k - 1])
            ) / (2 * dt)
            dr_dq = np.zeros(3)
            for j in range(3):
                dq = np.zeros(3)
                dq[j] = 1e-6
                dr_dq[j] = (
                    scalar_routhian(coords[k] + dq, rates[k])
                    - scalar_routhian(coords[k] - dq, rates[k])
                ) / (2e-6)
            residual = np.abs(dp_dt - dr_dq).max()
            assert residual < 1e-3 * scale  # limited by the time differencing


class TestTrajectory:
    def test_csv_round_trip_and_determinism(self, tmp_path, barge, barge_body, env, barge_equilibrium):
        state = FullState(
            barge_equilibrium.pose.replace(zeta=barge_equilibrium.pose.zeta + 0.01),
            np.zeros(6),
        )
        traj1 = integrate_full(barge, barge_body, env, state, 0.5, 0.05)
        traj2 = integrate_full(barge, barge_body, env, state, 0.5, 0.05)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        traj1.to_csv(p1)
        traj2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header.split(",") == list(traj1.columns)
        data = np.genfromtxt(p1, delimiter=",", skip_header=1)
        np.testing.assert_array_equal(data, traj1.as_table())

    @pytest.mark.parametrize("hull", ["barge", "l_prism"])
    @pytest.mark.parametrize("mode", ["full", "reduced"])
    def test_stacked_diagnostics_equal_the_per_sample_loop(self, hull, mode, request, env):
        # the loop the stacked post-pass replaced: one metric, cyclic-rate
        # solve and quadratic form per sample, bit for bit
        mesh, body, coords, rates, momenta = _spinning_start(hull, request)
        if mode == "reduced":
            traj = integrate_reduced(
                mesh, body, env, ReducedState(coords, rates, momenta), 1.0, 0.01)
        else:
            full_rates = np.zeros(6)
            full_rates[[2, 4, 5]] = rates
            full_rates[[0, 1, 3]] = cyclic_rates(
                kinetic_metric(body, coords[1], coords[2]), rates, momenta)
            pose = Pose(0, 0, coords[0], 0, coords[1], coords[2])
            traj = integrate_full(mesh, body, env, FullState(pose, full_rates), 1.0, 0.01)
        qd = traj.qdot.copy()
        u_b = fd.potential(mesh, traj.q[:, [2, 4, 5]], env)
        for k, q in enumerate(traj.q):
            a = kinetic_metric(body, q[4], q[5])
            if mode == "reduced":
                qd[k, [0, 1, 3]] = cyclic_rates(a, qd[k, [2, 4, 5]], momenta)
            energy = 0.5 * qd[k] @ a @ qd[k] - (body.mass * env.g * q[2] + u_b[k])
            assert energy.tobytes() == traj.energy[k].tobytes(), k
            assert (a @ qd[k])[[0, 1, 3]].tobytes() == traj.momenta[k].tobytes(), k
        assert qd.tobytes() == traj.qdot.tobytes()

    def test_invalid_sampling_arguments(self, barge, barge_body, env):
        state = FullState(Pose(), np.zeros(6))
        with pytest.raises(ValueError):
            integrate_full(barge, barge_body, env, state, -1.0, 0.1)
        with pytest.raises(ValueError):
            integrate_full(barge, barge_body, env, state, 1.0, 0.0)

    @pytest.mark.parametrize("method", ["BDF", "RK23", "RK45"])
    def test_dropped_method_raises(self, barge, barge_body, env, method):
        # the config check refuses these names; the library call must too,
        # rather than hand them to SciPy
        state = FullState(Pose(), np.zeros(6))
        with pytest.raises(ValueError, match="use one of DOP853, LSODA$"):
            integrate_full(barge, barge_body, env, state, 0.1, 0.01, method=method)

    def test_methods_are_the_ones_the_work_precision_verdict_keeps(self):
        # tools/work_precision.py drops a method once each of its counted
        # runs is beaten by a kept method; the default DOP853 is the
        # reference of the diagram and stays
        result = json.loads(WORK_PRECISION.read_text())
        assert result["rule"]["kept_methods"] == list(METHODS)
        kept = {method for method, verdict in result["verdict"].items() if verdict["kept"]}
        assert kept == set(METHODS)
        for method in METHODS:
            assert method == "DOP853" or not result["verdict"][method]["all_beaten"], method


class TestSampleTimes:
    def test_samples_stay_in_the_span(self):
        rng = np.random.default_rng(20)
        periods = rng.uniform(0.05, 5.0, 4000)
        pairs = [(5.0 * p, p / 200.0) for p in periods]
        pairs += list(zip(rng.uniform(0.01, 20.0, 4000), rng.uniform(1e-3, 2.0, 4000)))
        for t_end, dt in pairs:
            t = _sample_times(t_end, dt)
            assert t[0] == 0.0 and t[-1] <= t_end
            assert np.all(np.diff(t) > 0.0)
            n = round(t_end / dt)
            if abs(n * dt - t_end) <= 1e-12 * t_end:
                assert len(t) == n + 1
                assert t[-1] == pytest.approx(t_end, rel=1e-12)

    def test_roundoff_overshoot_pulled_back_to_t_end(self):
        assert 7 * 0.1 > 0.7
        t = _sample_times(0.7, 0.1)
        assert len(t) == 8 and t[-1] == 0.7
        np.testing.assert_array_equal(t[:-1], np.arange(7) * 0.1)

    def test_grid_without_overshoot_is_the_plain_product(self):
        # 10/0.01 and 2/0.01 do not overshoot: their sample times, and so
        # their trajectory CSV bytes, stay as they were
        for t_end in (10.0, 2.0):
            np.testing.assert_array_equal(
                _sample_times(t_end, 0.01), np.arange(round(t_end / 0.01) + 1) * 0.01
            )
