"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single PASS line once its assertions hold (visible
with ``pytest -s`` or on failure through the normal pytest report), so
the suite doubles as a checklist:

1. conservativeness (closed-loop work + force/gradient identity)
2. waterplane-term identity and the two potential forms
3. force-gradient finite-difference chain and the closed-form Hessian
4. metacentric oracle (barge and cube classics)
5. reduction equivalence and conservation drifts
6. normal-mode eigenvalues against decoupled formulas
7. small-oscillation convergence (linear limit, quadratic error decay)
8. Monte-Carlo geometry oracle
"""

import time

import numpy as np
import pytest

import floatdyn as fd
from floatdyn import (
    BodyProperties,
    FullState,
    Pose,
    ReducedState,
    clip_by_waterplane,
    cyclic_rates,
    force_gradient,
    generalized_forces,
    hessian_at_equilibrium,
    integrate_full,
    integrate_reduced,
    kinetic_metric,
    metacentric_heights,
    normal_modes,
    potential,
    pseudo_stability_check,
    reduced_mass_matrix,
    volume_and_first_moments,
    waterplane_properties,
)
from floatdyn import shapes
from floatdyn.verification import (
    SubmergedMonteCarlo,
    gradient_residual,
    loop_work_residual,
    random_partial_poses,
)
from helpers import (
    clipped_surface_term, conserved_momenta, linearized_prediction, textbook_hessian,
)

RHO = 1000.0
G = 9.81


@pytest.fixture(scope="module")
def nonconvex_hull():
    return shapes.l_prism(outer=(1.0, 1.0), notch=(0.5, 0.5), length=1.0,
                          jitter=0.02, seed=11)


@pytest.fixture(scope="module")
def barge_setup(barge, env):
    mass, inertia = fd.inertia_from_mesh(barge, RHO / 2.0)
    body = BodyProperties(mass, inertia)
    equilibrium = fd.find_equilibrium(barge, body, env, initial=(0.1, 0.0, 0.0))
    hessian = hessian_at_equilibrium(barge, equilibrium.pose, env, mass=mass)
    m_red = reduced_mass_matrix(
        kinetic_metric(body, equilibrium.pose.theta, equilibrium.pose.phi)
    )
    modal = normal_modes(hessian, m_red)
    return body, equilibrium, hessian, m_red, modal


def test_criterion_1_conservativeness(cube, nonconvex_hull, env):
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for mesh in (cube, nonconvex_hull):
        loop_residual = loop_work_residual(mesh, env, rng, n_loops=20)
        assert loop_residual < 1e-6
        poses = random_partial_poses(mesh, 50, rng)
        assert gradient_residual(mesh, env, poses) < 1e-5
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 conservativeness: PASS ({elapsed:.1f}s)")


def test_criterion_2_waterplane_term_identity(cube, env):
    rng = np.random.default_rng(202)
    scale4 = cube.diameter**4
    rg = env.rho * env.g
    for pose in random_partial_poses(cube, 50, rng):
        assert abs(clipped_surface_term(cube, pose)) < 1e-12 * scale4
        # volume+surface form of the force function against the compact
        # volume-only form, fixed origin on the free surface
        solid = clip_by_waterplane(cube, pose)
        volume, first = volume_and_first_moments(solid)
        depth_integral = volume * pose.zeta + solid.plane_normal @ first
        full_form = rg * (-depth_integral + clipped_surface_term(cube, pose))
        compact = potential(cube, pose, env)
        assert full_form == pytest.approx(compact, rel=1e-10)
    print("\nACCEPTANCE 2 waterplane-term identity: PASS")


def test_criterion_3_hessian_chain(cube, barge, env, barge_setup):
    rng = np.random.default_rng(303)
    step = 1e-5
    for pose in random_partial_poses(cube, 25, rng):
        grad = force_gradient(cube, pose, env)
        scale = np.abs(grad).max()
        q = pose.as_array()
        for r in (2, 4, 5):
            qp, qm = q.copy(), q.copy()
            qp[r] += step
            qm[r] -= step
            fd_col = (
                generalized_forces(cube, Pose.from_array(qp), env)
                - generalized_forces(cube, Pose.from_array(qm), env)
            ) / (2 * step)
            assert np.abs(grad[:, r] - fd_col).max() < 1e-5 * scale

    _, barge_eq, _, _, _ = barge_setup
    for mesh, pose in ((cube, Pose(zeta=0.0)), (barge, barge_eq.pose)):
        closed = textbook_hessian(mesh, pose, env)
        general = hessian_at_equilibrium(mesh, pose, env)
        assert np.abs(closed - general).max() <= 1e-8 * np.abs(closed).max()
        assert closed[0, 2] == 0.0 and closed[1, 2] == 0.0
        assert abs(general[0, 2]) <= 1e-12 * np.abs(general).max()
        assert abs(general[1, 2]) <= 1e-12 * np.abs(general).max()
    print("\nACCEPTANCE 3 hessian chain: PASS")


def test_criterion_4_metacentric_oracle(cube, barge, env, barge_setup):
    body, equilibrium, hessian, _, _ = barge_setup
    state = fd.hydrostatic_state(barge, equilibrium.pose, env)
    gm_t, gm_l = metacentric_heights(
        state.volume, state.buoyancy_center[2], state.waterplane.second_moment
    )
    # classic keel-referenced oracle: GM = KB + BM - KG at draft 0.25
    draft, beam, length, height = 0.25, 1.0, 2.0, 0.5
    kb, kg = draft / 2.0, height / 2.0
    bm_t = length * beam**3 / 12.0 / (length * beam * draft)
    bm_l = beam * length**3 / 12.0 / (length * beam * draft)
    assert gm_t == pytest.approx(kb + bm_t - kg, rel=1e-9)
    assert gm_l == pytest.approx(kb + bm_l - kg, rel=1e-9)
    assert gm_t == pytest.approx(5.0 / 24.0, rel=1e-9)
    assert gm_l == pytest.approx(29.0 / 24.0, rel=1e-9)
    barge_report = pseudo_stability_check(
        hessian,
        v_star=state.volume,
        z_b_star=float(state.buoyancy_center[2]),
        second_moment=state.waterplane.second_moment,
        env=env,
    )
    assert barge_report.pseudo_stable

    cube_pose = Pose(zeta=0.0)
    cube_solid = clip_by_waterplane(cube, cube_pose)
    cube_volume, cube_first = volume_and_first_moments(cube_solid)
    cube_wp = waterplane_properties(cube_solid)
    cube_gm_t, _ = metacentric_heights(
        cube_volume, cube_first[2] / cube_volume, cube_wp.second_moment
    )
    assert abs(cube_gm_t - (-1.0 / 12.0)) < 1e-10
    cube_report = pseudo_stability_check(
        hessian_at_equilibrium(cube, cube_pose, env),
        v_star=cube_volume,
        z_b_star=float(cube_first[2] / cube_volume),
        second_moment=cube_wp.second_moment,
        env=env,
    )
    assert not cube_report.pseudo_stable
    print("\nACCEPTANCE 4 metacentric oracle: PASS")


def _matched_initial_states(body, coords, rates, momenta):
    metric = kinetic_metric(body, coords[1], coords[2])
    full_rates = np.zeros(6)
    full_rates[[2, 4, 5]] = rates
    full_rates[[0, 1, 3]] = cyclic_rates(metric, rates, momenta)
    pose = Pose(0.0, 0.0, coords[0], 0.0, coords[1], coords[2])
    return FullState(pose, full_rates), ReducedState(coords, rates, momenta)


def test_criterion_5_reduction_equivalence(barge, env, barge_setup):
    body, equilibrium, _, _, modal = barge_setup
    heave_omega = float(np.sqrt(env.rho * env.g * 2.0 / body.mass))
    heave_period = 2 * np.pi / heave_omega
    t_end = 10 * heave_period
    dt = heave_period / 40.0
    tight = {"rtol": 1e-11, "atol": 1e-12}

    for p_psi in (0.0, 40.0):
        momenta = np.array([0.0, 0.0, p_psi])
        coords = np.array([equilibrium.pose.zeta + 0.02, 0.05, 0.04])
        rates = np.array([0.01, -0.03, 0.02])
        full_state, reduced_state = _matched_initial_states(body, coords, rates, momenta)
        np.testing.assert_allclose(
            conserved_momenta(body, full_state), momenta, atol=1e-12
        )
        traj_full = integrate_full(barge, body, env, full_state, t_end, dt, **tight)
        traj_red = integrate_reduced(barge, body, env, reduced_state, t_end, dt, **tight)
        deviation = np.abs(
            traj_red.q[:, [2, 4, 5]] - traj_full.q[:, [2, 4, 5]]
        ).max()
        assert deviation < 1e-6
        # cyclic coordinates rebuilt from the momenta track the full run
        cyc_dev = np.abs(traj_red.q[:, [0, 1, 3]] - traj_full.q[:, [0, 1, 3]]).max()
        assert cyc_dev < 1e-5
        p_scale = max(1.0, np.abs(momenta).max())
        assert traj_full.momentum_drift().max() < 1e-9 * p_scale

    # energy drift over ten thousand integrator steps at default tolerances
    coords = np.array([equilibrium.pose.zeta + 0.02, 0.05, 0.04])
    rates = np.array([0.01, -0.03, 0.02])
    full_state, _ = _matched_initial_states(body, coords, rates, np.zeros(3))
    horizon = 10.0
    traj = integrate_full(
        barge, body, env, full_state, horizon, horizon / 200,
        max_step=horizon / 10_000,
    )
    steps_lower_bound = int(horizon / (horizon / 10_000))
    assert steps_lower_bound >= 10_000
    assert traj.energy_drift() < 1e-7
    assert traj.momentum_drift().max() < 1e-9
    print("\nACCEPTANCE 5 reduction equivalence: PASS")


def test_criterion_6_normal_modes(env, barge_setup):
    body, _, hessian, m_red, modal = barge_setup
    inertia = body.inertia
    delta = body.mass * env.g
    area = 2.0
    gm_t, gm_l = 5.0 / 24.0, 29.0 / 24.0
    expected = np.sort(
        [
            env.rho * env.g * area / body.mass,
            delta * gm_l / inertia[1, 1],
            delta * gm_t * inertia[2, 2]
            / (inertia[0, 0] * inertia[2, 2] - inertia[0, 2] ** 2),
        ]
    )
    np.testing.assert_allclose(modal.lambdas, expected, rtol=1e-9)

    c = -hessian
    det_scale = abs(np.linalg.det(m_red)) * float(np.max(np.abs(modal.lambdas))) ** 3
    for lam in modal.lambdas:
        assert abs(np.linalg.det(c - lam * m_red)) <= 1e-8 * det_scale
    print("\nACCEPTANCE 6 normal modes: PASS")


def _upward_crossing_period(t, signal):
    up = np.nonzero((signal[:-1] < 0) & (signal[1:] >= 0))[0]
    crossings = [
        t[i] - signal[i] * (t[i + 1] - t[i]) / (signal[i + 1] - signal[i])
        for i in up
    ]
    return (crossings[-1] - crossings[0]) / (len(crossings) - 1)


def test_criterion_7_small_oscillation_convergence(barge, wedge, env, barge_setup):
    # linear-limit accuracy on the barge: simulated heave release at
    # amplitude 1e-3 of the hull height against the closed-form modes
    body, equilibrium, _, _, modal = barge_setup
    amp = 1e-3 * barge.height
    heave_idx = int(np.argmax(np.abs(modal.mode_shapes[0])))
    heave_omega = modal.omegas[heave_idx]
    period = 2 * np.pi / heave_omega
    traj = integrate_full(
        barge, body, env,
        FullState(
            equilibrium.pose.replace(zeta=equilibrium.pose.zeta + amp), np.zeros(6)
        ),
        5 * period, period / 200, rtol=1e-12, atol=1e-13,
    )
    z = traj.q[:, 2] - equilibrium.pose.zeta
    measured = _upward_crossing_period(traj.t, z)
    assert abs(measured - period) / period < 0.01
    osc = linearized_prediction(modal, np.array([amp, 0.0, 0.0]), np.zeros(3))
    predicted = osc.deviations(traj.t)[:, 0]
    l2_err = np.linalg.norm(z - predicted) / np.linalg.norm(predicted)
    assert l2_err < 0.01

    # quadratic error decay needs genuine anharmonicity: the wedge hull
    # has draft-dependent waterplane area, the wall-sided barge does not
    mass, inertia = fd.inertia_from_mesh(wedge, 400.0)
    wedge_body = BodyProperties(mass, inertia)
    wedge_eq = fd.find_equilibrium(wedge, wedge_body, env, initial=(0.0, 0.0, 0.0))
    wedge_hessian = hessian_at_equilibrium(wedge, wedge_eq.pose, env, mass=mass)
    wedge_m_red = reduced_mass_matrix(kinetic_metric(wedge_body, 0.0, 0.0))
    wedge_modal = normal_modes(wedge_hessian, wedge_m_red)
    idx = int(np.argmax(np.abs(wedge_modal.mode_shapes[0])))
    t_lin = 2 * np.pi / wedge_modal.omegas[idx]

    errors = []
    for amp in (1e-3 * wedge.height, 0.5e-3 * wedge.height, 0.25e-3 * wedge.height):
        traj = integrate_full(
            wedge, wedge_body, env,
            FullState(wedge_eq.pose.replace(zeta=wedge_eq.pose.zeta + amp), np.zeros(6)),
            6 * t_lin, t_lin / 400, rtol=1e-12, atol=1e-13,
        )
        measured = _upward_crossing_period(traj.t, traj.q[:, 2] - wedge_eq.pose.zeta)
        errors.append(abs(measured - t_lin) / t_lin)
    assert errors[0] < 0.01
    for coarse, fine in zip(errors[:-1], errors[1:]):
        ratio = coarse / fine
        assert 2.0 < ratio < 8.0
    print(
        "\nACCEPTANCE 7 small-oscillation convergence: PASS "
        f"(errors {errors[0]:.2e}/{errors[1]:.2e}/{errors[2]:.2e})"
    )


def test_criterion_8_monte_carlo_geometry(cube, convex_blob, env):
    start = time.monotonic()
    rng = np.random.default_rng(808)
    n_samples = 1_000_000
    for mesh in (cube, convex_blob):
        sampler = SubmergedMonteCarlo(mesh, n_samples, rng)
        for pose in random_partial_poses(mesh, 10, rng):
            solid = clip_by_waterplane(mesh, pose)
            volume, first = volume_and_first_moments(solid)
            v_hat, v_sig, m_hat, m_sig = sampler.estimate(pose)
            assert abs(volume - v_hat) < 4 * v_sig
            for k in range(3):
                assert abs(first[k] - m_hat[k]) < 4 * max(m_sig[k], 1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8 geometry oracle: PASS ({elapsed:.1f}s)")
