import numpy as np
import pytest

import floatdyn as fd
from floatdyn import BodyProperties, Pose, find_equilibrium, potential
from floatdyn.errors import WontFloat, ZeroVolume
from helpers import random_convex_mesh

RHO = 1000.0


def uniform_body(mesh, density):
    mass, inertia = fd.inertia_from_mesh(mesh, density)
    return BodyProperties(mass, inertia)


class TestFindEquilibrium:
    def test_three_quarter_density_cube(self, cube, env):
        body = uniform_body(cube, 0.75 * RHO)
        result = find_equilibrium(cube, body, env, initial=(0.5, 0.0, 0.0))
        assert result.converged
        assert result.pose.zeta == pytest.approx(0.25, abs=1e-12)
        assert result.pose.theta == pytest.approx(0.0, abs=1e-12)
        assert result.pose.phi == pytest.approx(0.0, abs=1e-12)
        assert result.waterline_distance == pytest.approx(0.25, abs=1e-12)

    def test_half_density_cube_floats_with_g_on_the_waterline(self, cube, env):
        body = uniform_body(cube, 0.5 * RHO)
        result = find_equilibrium(cube, body, env, initial=(0.3, 0.0, 0.0))
        assert abs(result.pose.zeta) < 1e-12

    def test_too_heavy_body_wont_float(self, cube, env):
        body = BodyProperties(RHO * 1.0, np.eye(3) * 100.0)
        with pytest.raises(WontFloat):
            find_equilibrium(cube, body, env)

    def test_fluid_too_dense_for_the_hull_fails_early(self, barge, barge_body):
        # the draft would lie inside the clip's snap band: the solve used
        # to run all its iterations and end in "no convergence"
        dense = fd.FluidEnvironment(rho=1e300, g=9.81)
        with pytest.raises(ZeroVolume, match="snap band"):
            find_equilibrium(barge, barge_body, dense)

    def test_archimedes_to_high_precision(self, barge, barge_body, env, barge_equilibrium):
        state = fd.hydrostatic_state(barge, barge_equilibrium.pose, env)
        assert state.volume * env.rho == pytest.approx(
            barge_body.mass, rel=1e-10
        )
        # buoyancy center vertically aligned with G at a level equilibrium
        assert abs(state.buoyancy_center[0]) < 1e-10 * barge.diameter
        assert abs(state.buoyancy_center[1]) < 1e-10 * barge.diameter

    def test_residual_below_contract_threshold(self, barge, barge_body, env, barge_equilibrium):
        weight = barge_body.mass * env.g
        assert np.abs(barge_equilibrium.residual).max() < 1e-10 * weight

    def test_tilted_start_converges_level(self, barge, barge_body, env):
        result = find_equilibrium(barge, barge_body, env, initial=(0.4, 0.15, -0.12))
        assert result.pose.zeta == pytest.approx(0.0, abs=1e-10)
        assert abs(result.pose.theta) < 1e-10
        assert abs(result.pose.phi) < 1e-10

    def test_fully_submerged_start_recovers(self, cube, env):
        body = uniform_body(cube, 0.6 * RHO)
        result = find_equilibrium(cube, body, env, initial=(5.0, 0.0, 0.0))
        assert result.pose.zeta == pytest.approx(0.1, abs=1e-10)

    def test_fully_emerged_start_recovers(self, cube, env):
        body = uniform_body(cube, 0.6 * RHO)
        result = find_equilibrium(cube, body, env, initial=(-5.0, 0.0, 0.0))
        assert result.pose.zeta == pytest.approx(0.1, abs=1e-10)

    def test_symmetric_slice_keeps_heel_negligible(self, barge, barge_body, env):
        # port-starboard symmetric hull started upright: heel stays at
        # roundoff (the heel residual is zero on the symmetric slice)
        result = find_equilibrium(barge, barge_body, env, initial=(0.3, 0.1, 0.0))
        assert abs(result.pose.phi) < 1e-13

    def test_wedge_equilibrium(self, wedge, wedge_body, env):
        result = find_equilibrium(wedge, wedge_body, env, initial=(0.0, 0.0, 0.0))
        state = fd.hydrostatic_state(wedge, result.pose, env)
        assert state.volume * env.rho == pytest.approx(wedge_body.mass, rel=1e-10)
        assert abs(result.pose.theta) < 1e-10

    def test_heeled_equilibrium_of_asymmetric_hull(self, l_prism, env):
        # L-section hulls heel far over; the solver reports the pose it
        # found and leaves accepting or rejecting it to the caller
        body = uniform_body(l_prism, 0.5 * RHO)
        result = find_equilibrium(l_prism, body, env, initial=(0.0, 0.0, 0.0))
        assert result.converged
        forces = fd.generalized_forces(l_prism, result.pose, env)
        assert abs(body.mass * env.g + forces[2]) < 1e-9 * body.mass * env.g

    def test_total_force_function_stationary_at_equilibrium(
        self, barge, barge_body, env, barge_equilibrium
    ):
        # independent check: finite differences of m g zeta + U_B vanish
        weight = barge_body.mass * env.g
        q_star = barge_equilibrium.pose.as_array()
        h = 1e-6

        def total(q):
            pose = Pose.from_array(q)
            return barge_body.mass * env.g * pose.zeta + potential(barge, pose, env)

        for k in (2, 4, 5):
            qp, qm = q_star.copy(), q_star.copy()
            qp[k] += h
            qm[k] -= h
            gradient = (total(qp) - total(qm)) / (2 * h)
            assert abs(gradient) < 1e-6 * weight

    def test_heave_residual_monotone_for_convex_hull(self, convex_blob, env):
        body = uniform_body(convex_blob, 0.5 * RHO)
        weight = body.mass * env.g
        drafts = np.linspace(-0.6 * convex_blob.height, 0.6 * convex_blob.height, 41)
        residuals = []
        for zeta in drafts:
            forces = fd.generalized_forces(convex_blob, Pose(zeta=float(zeta)), env)
            residuals.append(weight + forces[2])
        assert np.all(np.diff(residuals) <= 1e-9 * weight)


@pytest.fixture(scope="module")
def top_heavy_barge():
    base = fd.shapes.box(2.0, 1.0, 0.5)
    # shifting the hull down places G above the geometric center,
    # driving the upright transverse metacentric height just negative
    mesh = fd.HullMesh(base.vertices + np.array([0.0, 0.0, 0.2233]), base.triangles)
    _, inertia = fd.inertia_from_mesh(base, 500.0)
    return mesh, BodyProperties(500.0, inertia)


class TestLollEquilibrium:
    """Top-heavy wall-sided barge: upright is a saddle, the hull rests at
    the heel angle the classic wall-sided formula predicts exactly,
    tan(phi) = sqrt(-2 GM_T / BM), while the deck edge stays dry."""

    def test_loll_angle_matches_wall_sided_formula(self, top_heavy_barge, env):
        mesh, body = top_heavy_barge
        upright = find_equilibrium(mesh, body, env, initial=(0.0, 0.0, 0.0))
        state = fd.hydrostatic_state(mesh, upright.pose, env)
        gm_t, _ = fd.metacentric_heights(
            state.volume, state.buoyancy_center[2], state.waterplane.second_moment
        )
        bm = state.waterplane.second_moment[1, 1] / state.volume
        assert gm_t < 0.0
        predicted = np.arctan(np.sqrt(-2.0 * gm_t / bm))

        lolled = find_equilibrium(
            mesh, body, env, initial=(upright.pose.zeta, 0.0, 0.25)
        )
        assert lolled.pose.phi == pytest.approx(predicted, rel=1e-12)
        # formula valid while the deck edge stays dry
        solid = fd.clip_by_waterplane(mesh, lolled.pose)
        deck = mesh.vertices[mesh.vertices[:, 2] == mesh.vertices[:, 2].min()]
        assert (solid.plane_offset + deck @ solid.plane_normal).max() < 0.0

        mirrored = find_equilibrium(
            mesh, body, env, initial=(upright.pose.zeta, 0.0, -0.25)
        )
        assert mirrored.pose.phi == pytest.approx(-predicted, rel=1e-12)

    def test_upright_saddle_lolled_stable(self, top_heavy_barge, env):
        mesh, body = top_heavy_barge
        upright = find_equilibrium(mesh, body, env, initial=(0.0, 0.0, 0.0))
        h_up = fd.hessian_at_equilibrium(mesh, upright.pose, env, mass=body.mass)
        assert h_up[2, 2] > 0.0  # heel direction destabilized
        lolled = find_equilibrium(
            mesh, body, env, initial=(upright.pose.zeta, 0.0, 0.25)
        )
        h_loll = fd.hessian_at_equilibrium(mesh, lolled.pose, env, mass=body.mass)
        assert np.all(np.linalg.eigvalsh(-h_loll) > 0.0)


def assert_pseudo_stable(mesh, body, env, result):
    state = fd.hydrostatic_state(mesh, result.pose, env)
    assert state.volume * env.rho == pytest.approx(body.mass, rel=1e-9)
    hessian = fd.hessian_at_equilibrium(mesh, result.pose, env, mass=body.mass)
    assert np.all(np.linalg.eigvalsh(-hessian) > 0.0)


class TestSolverRobustness:
    # the cases on random_convex_mesh skip without SciPy, which its
    # hull triangulation needs

    def test_formerly_cycling_convex_blob(self, env):
        pytest.importorskip("scipy")
        # regression: clamped Newton used to enter a pitch limit cycle on
        # this hull; the trust-region climb has no cycle to enter
        mesh = random_convex_mesh(n_points=37, seed=112)
        mass, inertia = fd.inertia_from_mesh(mesh, env.rho * 0.5225263813465054)
        body = BodyProperties(mass, inertia)
        result = find_equilibrium(
            mesh, body, env,
            initial=(-0.04354889176156439, -0.22338580626451338, -0.1454624970542857),
        )
        assert result.converged
        state = fd.hydrostatic_state(mesh, result.pose, env)
        assert state.volume * env.rho == pytest.approx(mass, rel=1e-10)

    def test_random_bodies_and_guesses(self, env):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(7)
        converged = 0
        for seed in range(10):
            if seed % 2:
                mesh = random_convex_mesh(n_points=24 + seed, seed=seed)
            else:
                mesh = fd.shapes.box(1.0 + 0.1 * seed, 0.8, 0.6)
            frac = rng.uniform(0.2, 0.85)
            mass, inertia = fd.inertia_from_mesh(mesh, env.rho * frac)
            body = BodyProperties(mass, inertia)
            start = (
                rng.uniform(-0.3, 0.3) * mesh.height,
                rng.uniform(-0.25, 0.25),
                rng.uniform(-0.25, 0.25),
            )
            result = find_equilibrium(mesh, body, env, initial=start)
            state = fd.hydrostatic_state(mesh, result.pose, env)
            assert state.volume * env.rho == pytest.approx(mass, rel=1e-9)
            converged += 1
        assert converged == 10

    @pytest.mark.parametrize(
        "n_points, seed, fraction, guess",
        [
            (20, 500, 0.5295230059112959,
             (0.07997646635479279, 0.008341171784436274, 0.33053046049534907)),
            (35, 515, 0.5629670147819531,
             (-0.1278338450967473, 0.12446072775829103, 0.23951834166555253)),
            (53, 533, 0.8588244037989058,
             (0.08587406847953669, -0.09745927643760405, 0.18987488013382736)),
        ],
    )
    def test_formerly_diverging_convex_hulls(self, env, n_points, seed, fraction, guess):
        pytest.importorskip("scipy")
        # regression: the damped Newton stack ran out of its 60 iterations
        mesh = random_convex_mesh(n_points=n_points, seed=seed)
        body = uniform_body(mesh, RHO * fraction)
        result = find_equilibrium(mesh, body, env, initial=guess)
        assert_pseudo_stable(mesh, body, env, result)

    def test_convergence_on_the_last_allowed_step_is_returned(self, env):
        pytest.importorskip("scipy")
        # regression: the residual was never rechecked after the last step,
        # so a solve converging on it still raised Diverged
        mesh = random_convex_mesh(n_points=26, seed=506)
        body = uniform_body(mesh, RHO * 0.2952598152524136)
        guess = (-0.5287989422970065, -0.173568015633911, -0.28336501384738466)
        result = find_equilibrium(mesh, body, env, initial=guess)
        assert result.iterations > 0
        edge = find_equilibrium(mesh, body, env, initial=guess, max_iter=result.iterations)
        assert edge.pose == result.pose
        np.testing.assert_array_equal(edge.residual, result.residual)
        with pytest.raises(fd.Diverged):
            find_equilibrium(mesh, body, env, initial=guess, max_iter=result.iterations - 1)

    def test_off_slice_guesses_reach_pseudo_stable_equilibria(self, env):
        pytest.importorskip("scipy")
        # the climb goes uphill in the force function, so it ends on a
        # maximum: never on the saddles a guess off the symmetry slices
        # used to settle on
        rng = np.random.default_rng(2611)
        for seed in range(600, 612):
            mesh = random_convex_mesh(n_points=int(rng.integers(16, 48)), seed=seed)
            body = uniform_body(mesh, RHO * rng.uniform(0.2, 0.85))
            guess = (0.0, *rng.uniform(0.05, 0.5, 2) * rng.choice([-1.0, 1.0], 2))
            result = find_equilibrium(mesh, body, env, initial=guess)
            assert_pseudo_stable(mesh, body, env, result)

    def test_guess_past_the_pole_gives_the_mirror_guess_pose(self, convex_blob, env):
        # (theta, phi) and (pi - theta, phi + pi) put the same axis down;
        # a climb crossing the pole is read back with |theta| < pi/2
        body = uniform_body(convex_blob, 0.5 * RHO)
        near = find_equilibrium(convex_blob, body, env, initial=(0.0, 0.2, 0.1))
        far = find_equilibrium(
            convex_blob, body, env, initial=(0.0, np.pi - 0.2, 0.1 + np.pi)
        )
        assert abs(far.pose.theta) < np.pi / 2
        np.testing.assert_allclose(
            far.pose.as_array(), near.pose.as_array(), rtol=0.0, atol=1e-9
        )

    def test_tilted_l_prism_solve_evaluation_count(self, l_prism, env, monkeypatch):
        # the Newton draft balance needs few evaluations per attitude:
        # 22 for this whole solve, where bisecting the draft needs more
        # than 30
        calls = []
        real = fd.equilibrium.evaluate
        monkeypatch.setattr(
            fd.equilibrium, "evaluate", lambda *args: calls.append(1) or real(*args)
        )
        body = uniform_body(l_prism, 0.6 * RHO)
        result = find_equilibrium(l_prism, body, env, initial=(0.0, 0.1, 0.05))
        assert_pseudo_stable(l_prism, body, env, result)
        assert len(calls) <= 30

    @pytest.mark.parametrize("gravity", [1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300])
    def test_any_gravity_converges_as_at_earth_gravity(self, l_prism, env, gravity):
        # the trust region works in units of the weight: at gravity 1e200
        # its Schur complement overflowed, and at 1e-200 it underflowed and
        # took two more steps
        body = uniform_body(l_prism, 0.6 * RHO)
        guess = (0.0, 0.1, 0.05)
        earth = find_equilibrium(l_prism, body, env, initial=guess)
        result = find_equilibrium(l_prism, body, fd.FluidEnvironment(rho=RHO, g=gravity),
                                  initial=guess)
        assert result.iterations == earth.iterations
        np.testing.assert_allclose(
            result.pose.as_array(), earth.pose.as_array(), rtol=0.0, atol=1e-9
        )

    def test_equilibrium_on_the_pole_is_refused(self, env):
        # a flat box floats on its largest face; with the short first axis
        # vertical that pose has pitch pi/2, where the angles are singular
        mesh = fd.shapes.box(0.5, 1.5, 1.2)
        body = uniform_body(mesh, 0.4 * RHO)
        with pytest.raises(fd.GimbalLock, match="rotate the mesh"):
            find_equilibrium(mesh, body, env, initial=(0.0, 0.5, 0.3))

