import math
from dataclasses import replace

import numpy as np
import pytest

import floatdyn as fd
from floatdyn import (
    Pose,
    clip_by_waterplane,
    force_gradient,
    generalized_forces,
    hessian_at_equilibrium,
    hydrostatic_state,
    metacentric_heights,
    potential,
    pseudo_stability_check,
    volume_and_first_moments,
    waterplane_properties,
)
from floatdyn.errors import NotAnEquilibrium, ZeroVolume
from floatdyn.kinematics import k3_body, omega_map, rotation_matrix
from floatdyn.verification import random_partial_poses
import helpers
from helpers import (
    assert_clip_matches_evaluate,
    buoyant_force_torque,
    clipped_surface_term,
    textbook_hessian,
    touching_loops,
    vertex_on_plane_poses,
)

RHO_G = 1000.0 * 9.81


class TestFluidEnvironment:
    @pytest.mark.parametrize("field", ["rho", "g"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_positive_or_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"'{field}'"):
            fd.FluidEnvironment(**{field: value})


class TestPotential:
    def test_fully_emerged_is_zero(self, cube, env):
        assert potential(cube, Pose(zeta=-0.8), env) == 0.0

    def test_half_submerged_cube_value(self, cube, env):
        # V = 0.5 at buoyancy-center depth 0.25
        assert potential(cube, Pose(zeta=0.0), env) == pytest.approx(
            -1000.0 * 9.81 * 0.5 * 0.25, rel=1e-14
        )

    def test_linear_in_depth_once_submerged(self, cube, env):
        values = [potential(cube, Pose(zeta=z), env) for z in (0.7, 1.0, 1.6)]
        assert values[0] == pytest.approx(-RHO_G * 0.7, rel=1e-13)
        slope1 = (values[1] - values[0]) / 0.3
        slope2 = (values[2] - values[1]) / 0.6
        assert slope1 == pytest.approx(-RHO_G, rel=1e-12)
        assert slope2 == pytest.approx(slope1, rel=1e-12)

    def test_never_positive(self, l_prism, env, rng):
        for pose in random_partial_poses(l_prism, 20, rng):
            assert potential(l_prism, pose, env) <= 1e-12


class TestSurfaceTerm:
    """The waterplane term over the clipped solid's explicit caps."""

    def test_vanishes_with_origin_on_surface(self, cube, rng):
        scale4 = cube.diameter**4
        for pose in random_partial_poses(cube, 25, rng):
            assert abs(clipped_surface_term(cube, pose)) < 1e-12 * scale4

    def test_vanishing_catches_caps_off_the_plane(self, cube, monkeypatch):
        # criterion 2's poses: intact caps read roundoff, caps moved 1e-3
        # along the plane normal read half the cap area times 1e-6
        shift = 1e-3
        scale4 = cube.diameter**4
        poses = list(random_partial_poses(cube, 50, np.random.default_rng(202)))
        intact = [abs(clipped_surface_term(cube, pose)) for pose in poses]

        def shifted_clip(mesh, pose):
            solid = clip_by_waterplane(mesh, pose)
            loops = [loop + shift * solid.plane_normal for loop in solid.cap_polygons]
            return replace(solid, cap_polygons=loops)

        monkeypatch.setattr(helpers, "clip_by_waterplane", shifted_clip)
        shifted = [abs(clipped_surface_term(cube, pose)) for pose in poses]
        assert max(intact) <= 1e-12 * scale4
        assert min(shifted) >= 1e-9 * scale4

    def test_offset_origin_level_cube(self, cube):
        h = 0.37
        # constant integrand h over the unit cap
        assert clipped_surface_term(cube, Pose(zeta=0.2), origin_offset=h) == pytest.approx(
            0.5 * 1.0 * h**2, rel=1e-12
        )

    def test_two_potential_forms_reconcile_under_origin_shift(self, cube, env, rng):
        # the volume+surface form with a shifted origin equals the compact
        # form plus rho g (V h + A h^2 / 2)
        h = 0.23
        rg = env.rho * env.g
        for pose in random_partial_poses(cube, 10, rng):
            solid = clip_by_waterplane(cube, pose)
            volume, first = volume_and_first_moments(solid)
            area = waterplane_properties(solid).area
            compact = potential(cube, pose, env)
            depth_integral = volume * pose.zeta + solid.plane_normal @ first
            shifted = rg * (-(depth_integral - volume * h)
                            + clipped_surface_term(cube, pose, origin_offset=h))
            assert shifted == pytest.approx(
                compact + rg * (volume * h + 0.5 * area * h * h), rel=1e-10
            )


class TestGeneralizedForces:
    def test_level_half_submerged_cube(self, cube, env):
        forces = generalized_forces(cube, Pose(zeta=0.0), env)
        assert forces[0] == 0.0 and forces[1] == 0.0 and forces[3] == 0.0
        assert forces[2] == pytest.approx(-RHO_G * 0.5, rel=1e-14)
        assert abs(forces[4]) < 1e-12 * RHO_G
        assert abs(forces[5]) < 1e-12 * RHO_G

    def test_fully_submerged_cube_any_angles(self, cube, env):
        forces = generalized_forces(cube, Pose(zeta=1.5, theta=0.4, phi=-0.8), env)
        assert forces[2] == pytest.approx(-RHO_G * 1.0, rel=1e-13)
        # centroid at the origin: no restoring moments
        assert abs(forces[4]) < 1e-12 * RHO_G
        assert abs(forces[5]) < 1e-12 * RHO_G

    def test_matches_trigonometric_moment_integrals(self, l_prism, env, rng):
        # pitch / roll entries written out with explicit trigonometry
        for pose in random_partial_poses(l_prism, 15, rng):
            solid = clip_by_waterplane(l_prism, pose)
            _, m = volume_and_first_moments(solid)
            cth, sth = math.cos(pose.theta), math.sin(pose.theta)
            cph, sph = math.cos(pose.phi), math.sin(pose.phi)
            rg = env.rho * env.g
            q_theta = rg * (cth * m[0] + sth * (sph * m[1] + cph * m[2]))
            q_phi = -rg * cth * (cph * m[1] - sph * m[2])
            forces = generalized_forces(l_prism, pose, env)
            assert forces[4] == pytest.approx(q_theta, rel=1e-12, abs=1e-9)
            assert forces[5] == pytest.approx(q_phi, rel=1e-12, abs=1e-9)

    def test_matches_finite_differences_of_potential(self, cube, env, rng):
        from floatdyn.verification import gradient_residual

        poses = random_partial_poses(cube, 20, rng)
        assert gradient_residual(cube, env, poses) < 1e-5


class TestBuoyantForceTorque:
    def test_level_cube_resultant(self, cube, env):
        force, torque = buoyant_force_torque(cube, Pose(zeta=0.0), env)
        np.testing.assert_allclose(force, [0.0, 0.0, -4905.0], rtol=1e-14)
        np.testing.assert_allclose(torque, np.zeros(3), atol=1e-10)

    def test_offset_buoyancy_center_lever(self, env):
        # box shifted along x1 fully submerged: B sits at +x1 from G
        mesh = fd.HullMesh(
            (fd.shapes.box(1.0, 1.0, 1.0).vertices + [0.3, 0.0, 0.0]),
            fd.shapes.box(1.0, 1.0, 1.0).triangles,
        )
        force, torque = buoyant_force_torque(mesh, Pose(zeta=2.0), env)
        np.testing.assert_allclose(force, [0.0, 0.0, -RHO_G], rtol=1e-13)
        np.testing.assert_allclose(
            torque, [0.0, RHO_G * 0.3, 0.0], rtol=1e-12, atol=1e-9
        )

    def test_power_identity(self, l_prism, env, rng):
        # F . v_G + M . omega equals Q . qdot for arbitrary rates
        for pose in random_partial_poses(l_prism, 5, rng):
            force, torque = buoyant_force_torque(l_prism, pose, env)
            forces = generalized_forces(l_prism, pose, env)
            r = rotation_matrix(pose)
            w = omega_map(pose.theta, pose.phi)
            for _ in range(20):
                qdot = rng.normal(size=6)
                v_g = qdot[:3]
                omega_body = w @ qdot[[3, 4, 5]]
                power_resultant = force @ v_g + torque @ (r @ omega_body)
                power_generalized = forces @ qdot
                assert power_resultant == pytest.approx(
                    power_generalized, rel=1e-9, abs=1e-9
                )


class TestForceGradient:
    def test_level_cube_heave_stiffness(self, cube, env):
        grad = force_gradient(cube, Pose(zeta=0.0), env)
        assert grad[2, 2] == pytest.approx(-RHO_G * 1.0, rel=1e-13)
        # only the restoring block is nonzero
        mask = np.zeros((6, 6), dtype=bool)
        mask[np.ix_((2, 4, 5), (2, 4, 5))] = True
        assert np.all(grad[~mask] == 0.0)

    def test_matches_finite_differences(self, cube, env, rng):
        step = 1e-6
        for pose in random_partial_poses(cube, 10, rng):
            grad = force_gradient(cube, pose, env)
            scale = np.abs(grad).max()
            for r in (2, 4, 5):
                q = pose.as_array()
                qp, qm = q.copy(), q.copy()
                qp[r] += step
                qm[r] -= step
                fd_col = (
                    generalized_forces(cube, Pose.from_array(qp), env)
                    - generalized_forces(cube, Pose.from_array(qm), env)
                ) / (2 * step)
                np.testing.assert_allclose(
                    grad[:, r], fd_col, atol=1e-5 * scale
                )

    def test_fully_submerged_loses_waterplane_stiffness(self, cube, env):
        grad = force_gradient(cube, Pose(zeta=2.0, theta=0.3, phi=0.2), env)
        assert grad[2, 2] == 0.0
        assert grad[2, 4] == 0.0 and grad[2, 5] == 0.0

    def test_symmetric(self, l_prism, env, rng):
        for pose in random_partial_poses(l_prism, 10, rng):
            grad = force_gradient(l_prism, pose, env)
            assert np.array_equal(grad, grad.T)


class TestHessianAtEquilibrium:
    def test_half_density_cube_closed_form(self, cube, env):
        h = hessian_at_equilibrium(cube, Pose(zeta=0.0), env)
        expected = RHO_G * np.diag([-1.0, 1.0 / 24.0, 1.0 / 24.0])
        np.testing.assert_allclose(h, expected, rtol=1e-13, atol=1e-9)

    def test_zero_pattern(self, barge, env):
        h = hessian_at_equilibrium(barge, Pose(zeta=0.0), env)
        assert h[0, 2] == 0.0 and h[1, 2] == 0.0
        assert h[2, 0] == 0.0 and h[2, 1] == 0.0

    def test_closed_form_matches_general_block(self, barge, env):
        h_closed = textbook_hessian(barge, Pose(zeta=0.0), env)
        h_general = hessian_at_equilibrium(barge, Pose(zeta=0.0), env)
        assert np.abs(h_closed - h_general).max() <= 1e-8 * np.abs(h_closed).max()

    @pytest.mark.parametrize("hull", ["cube", "barge", "raked_prism", "wedge", "l_prism"])
    def test_equals_force_gradient_block(self, hull, request, env):
        # one route at every pose, whatever the hull and its symmetry claim
        mesh = request.getfixturevalue(hull)
        if hull == "raked_prism":
            mesh, pose, _ = mesh
        elif hull in ("wedge", "l_prism"):
            pose = _half_density_equilibrium_pose(mesh, env)
        else:
            pose = Pose(zeta=0.0)
        hessian = hessian_at_equilibrium(mesh, pose, env)
        gradient = force_gradient(mesh, pose, env)[np.ix_([2, 4, 5], [2, 4, 5])]
        assert np.array_equal(hessian, gradient)

    def test_not_an_equilibrium_rejected(self, cube, env):
        with pytest.raises(NotAnEquilibrium):
            hessian_at_equilibrium(cube, Pose(zeta=0.0), env, mass=900.0)
        with pytest.raises(NotAnEquilibrium):
            # strong pitch moment at a tilted non-equilibrium pose
            hessian_at_equilibrium(cube, Pose(zeta=0.2, theta=0.3), env)

    def test_zero_volume_rejected(self, cube, env):
        with pytest.raises(ZeroVolume):
            hessian_at_equilibrium(cube, Pose(zeta=-0.8), env)


def _half_density_equilibrium_pose(mesh, env):
    """Equilibrium of the uniform half-density body, solved from zero angles."""
    from floatdyn import BodyProperties, find_equilibrium, inertia_from_mesh

    mass, inertia = inertia_from_mesh(mesh, env.rho / 2.0)
    body = BodyProperties(mass, inertia)
    return find_equilibrium(mesh, body, env, initial=(0.0, 0.0, 0.0)).pose


class TestMetacentricHeights:
    def test_half_density_cube_is_the_classic_negative(self, cube, env):
        solid = clip_by_waterplane(cube, Pose(zeta=0.0))
        volume, first = volume_and_first_moments(solid)
        wp = waterplane_properties(solid)
        gm_t, gm_l = metacentric_heights(volume, first[2] / volume, wp.second_moment)
        assert gm_t == pytest.approx(-1.0 / 12.0, abs=1e-10)
        assert gm_l == pytest.approx(-1.0 / 12.0, abs=1e-10)

    def test_barge_against_keel_reference_oracle(self, barge, env):
        # classic naval form: GM = KB + BM - KG measured from the keel
        draft, beam, length, height = 0.25, 1.0, 2.0, 0.5
        kb = draft / 2.0
        bm_t = length * beam**3 / 12.0 / (length * beam * draft)
        bm_l = beam * length**3 / 12.0 / (length * beam * draft)
        kg = height / 2.0
        solid = clip_by_waterplane(barge, Pose(zeta=0.0))
        volume, first = volume_and_first_moments(solid)
        wp = waterplane_properties(solid)
        gm_t, gm_l = metacentric_heights(volume, first[2] / volume, wp.second_moment)
        assert gm_t == pytest.approx(kb + bm_t - kg, rel=1e-9)
        assert gm_l == pytest.approx(kb + bm_l - kg, rel=1e-9)

    def test_square_section_makes_them_equal(self, env):
        # four-fold symmetry: S11 == S22 so both heights coincide
        mesh = fd.shapes.box(1.0, 1.0, 0.5)
        solid = clip_by_waterplane(mesh, Pose(zeta=0.1))
        volume, first = volume_and_first_moments(solid)
        wp = waterplane_properties(solid)
        gm_t, gm_l = metacentric_heights(volume, first[2] / volume, wp.second_moment)
        assert gm_t == pytest.approx(gm_l, rel=1e-12)

    def test_zero_volume_raises(self):
        with pytest.raises(ZeroVolume):
            metacentric_heights(0.0, 0.1, np.eye(3))


class TestPseudoStability:
    def _report(self, mesh, env, pose=Pose(zeta=0.0)):
        solid = clip_by_waterplane(mesh, pose)
        volume, first = volume_and_first_moments(solid)
        wp = waterplane_properties(solid)
        hessian = hessian_at_equilibrium(mesh, pose, env)
        return pseudo_stability_check(
            hessian,
            v_star=volume,
            z_b_star=first[2] / volume,
            second_moment=wp.second_moment,
            env=env,
        )

    def test_half_density_cube_not_stable(self, cube, env):
        report = self._report(cube, env)
        assert not report.pseudo_stable
        assert report.gm_transverse == pytest.approx(-1.0 / 12.0, abs=1e-10)
        assert report.margins[0] < 0.0

    def test_barge_stable(self, barge, env):
        report = self._report(barge, env)
        assert report.pseudo_stable
        assert report.margins[0] > 0.0 and report.margins[1] > 0.0
        assert not report.marginal
        assert report.displacement == pytest.approx(RHO_G * 0.5, rel=1e-12)

    def test_centered_floating_center_reduces_second_condition(self, barge, env):
        # x_C = 0: the longitudinal margin is V * GM_L exactly
        report = self._report(barge, env)
        assert report.margins[1] == pytest.approx(
            0.5 * report.gm_longitudinal, rel=1e-12
        )

    def test_margins_are_the_classic_formulas_upright(self, cube, barge, env):
        # at the upright equilibrium of a symmetric hull the Hessian pivots
        # are S22 - V z_B and S11 - V z_B - A x_C^2
        for mesh in (cube, barge):
            solid = clip_by_waterplane(mesh, Pose(zeta=0.0))
            _, first = volume_and_first_moments(solid)
            wp = waterplane_properties(solid)
            s = wp.second_moment
            expected = (s[1, 1] - first[2], s[0, 0] - first[2] - wp.area * wp.x_c**2)
            assert self._report(mesh, env).margins == pytest.approx(expected, rel=1e-12)

    def test_margins_are_pivots_of_a_coupled_hessian(self, env):
        # heave, pitch and roll all coupled, as at a trimmed and heeled pose
        a = np.random.default_rng(3).normal(size=(3, 3))
        stiffness = a @ a.T
        minors = [np.linalg.det(stiffness[:k, :k]) for k in (1, 2, 3)]
        kwargs = dict(v_star=1.0, z_b_star=0.1, second_moment=np.eye(3), env=env)
        report = pseudo_stability_check(-RHO_G * stiffness, **kwargs)
        assert report.margins == pytest.approx(
            (minors[2] / minors[1], minors[1] / minors[0]), rel=1e-12
        )
        assert report.pseudo_stable and not report.marginal
        assert not pseudo_stability_check(RHO_G * stiffness, **kwargs).pseudo_stable

    def test_verdict_matches_hessian_minors(self, cube, barge, env):
        for mesh in (cube, barge):
            report = self._report(mesh, env)
            neg = -report.hessian
            minors = [neg[0, 0], np.linalg.det(neg[:2, :2]), np.linalg.det(neg)]
            assert report.pseudo_stable == all(m > 0 for m in minors)

    def test_marginal_flag(self, env):
        # doctor the margins to sit at zero: flag raised, no exception
        hessian = np.diag([-1.0, 0.0, 0.0])
        report = pseudo_stability_check(
            hessian,
            v_star=1.0,
            z_b_star=0.1,
            second_moment=np.diag([0.1, 0.1, 0.0]),
            env=env,
        )
        assert report.marginal


class TestOffsetFloatingCenter:
    """Raked hull: the waterplane centroid is ahead of G at equilibrium,
    so the heave-pitch coupling entries of the Hessian are nonzero and
    the second stability condition carries its quadratic penalty."""

    def test_equilibrium_with_offset_floating_center(self, raked_prism, env):
        mesh, pose, body = raked_prism
        forces = generalized_forces(mesh, pose, env)
        assert abs(body.mass * env.g + forces[2]) < 1e-9 * body.mass * env.g
        assert abs(forces[4]) < 1e-9 * body.mass * env.g
        wp = waterplane_properties(clip_by_waterplane(mesh, pose))
        assert abs(wp.x_c) > 0.05  # genuinely offset

    def test_coupling_entry_sign_against_force_gradient(self, raked_prism, env):
        mesh, pose, body = raked_prism
        closed = textbook_hessian(mesh, pose, env)
        general = hessian_at_equilibrium(mesh, pose, env)
        assert np.abs(closed - general).max() <= 1e-8 * np.abs(closed).max()
        wp = waterplane_properties(clip_by_waterplane(mesh, pose))
        assert general[0, 1] == pytest.approx(
            env.rho * env.g * wp.area * wp.x_c, rel=1e-12
        )
        assert general[0, 1] > 0.0
        # the independent route: finite differences of the pitch force
        # with respect to draft
        h = 1e-6
        fd_entry = (
            generalized_forces(mesh, pose.replace(zeta=pose.zeta + h), env)[4]
            - generalized_forces(mesh, pose.replace(zeta=pose.zeta - h), env)[4]
        ) / (2 * h)
        assert fd_entry == pytest.approx(closed[0, 1], rel=1e-6)

    def test_stability_margin_carries_the_offset_penalty(self, raked_prism, env):
        mesh, pose, body = raked_prism
        solid = clip_by_waterplane(mesh, pose)
        volume, first = volume_and_first_moments(solid)
        wp = waterplane_properties(solid)
        hessian = hessian_at_equilibrium(mesh, pose, env)
        report = pseudo_stability_check(
            hessian,
            v_star=volume,
            z_b_star=first[2] / volume,
            second_moment=wp.second_moment,
            env=env,
        )
        z_b = first[2] / volume
        assert report.margins[1] == pytest.approx(
            wp.second_moment[0, 0] - volume * z_b - wp.area * wp.x_c**2, rel=1e-12
        )
        assert report.margins[1] < wp.second_moment[0, 0] - volume * z_b
        assert report.pseudo_stable


class TestSmallHeelRestoringMoment:
    def test_heel_moment_slope_equals_weighted_metacentric_height(self, barge, env):
        # classic relation: near upright equilibrium the restoring heel
        # moment is -(displacement * GM_T) per radian; the left side comes
        # from clipped-moment finite differences only
        solid = clip_by_waterplane(barge, Pose(zeta=0.0))
        volume, first = volume_and_first_moments(solid)
        wp = waterplane_properties(solid)
        gm_t, gm_l = metacentric_heights(volume, first[2] / volume, wp.second_moment)
        displacement = env.rho * env.g * volume
        h = 1e-6
        slope_phi = (
            generalized_forces(barge, Pose(zeta=0.0, phi=h), env)[5]
            - generalized_forces(barge, Pose(zeta=0.0, phi=-h), env)[5]
        ) / (2 * h)
        assert slope_phi == pytest.approx(-displacement * gm_t, rel=1e-7)
        slope_theta = (
            generalized_forces(barge, Pose(zeta=0.0, theta=h), env)[4]
            - generalized_forces(barge, Pose(zeta=0.0, theta=-h), env)[4]
        ) / (2 * h)
        assert slope_theta == pytest.approx(-displacement * gm_l, rel=1e-7)


class TestHydrostaticState:
    def test_cyclic_forces_are_structural_zeros(self, l_prism, env, rng):
        for pose in random_partial_poses(l_prism, 10, rng):
            state = hydrostatic_state(l_prism, pose, env)
            assert state.forces[0] == 0.0
            assert state.forces[1] == 0.0
            assert state.forces[3] == 0.0
            assert state.potential <= 1e-12

    def test_consistent_with_individual_operations(self, cube, env):
        pose = Pose(zeta=0.1, theta=0.15, phi=-0.1)
        state = hydrostatic_state(cube, pose, env)
        assert state.potential == potential(cube, pose, env)
        np.testing.assert_array_equal(
            state.forces, generalized_forces(cube, pose, env)
        )


class TestArrayForms:
    """``potential`` and ``generalized_forces`` on ``(n, 6)`` coordinates."""

    @pytest.mark.parametrize("mesh_name", ["barge", "l_prism", "convex_blob"])
    def test_rows_equal_the_pose_values_bitwise(self, mesh_name, request, env):
        mesh = request.getfixturevalue(mesh_name)
        rng = np.random.default_rng(41)
        poses = random_partial_poses(mesh, 70, rng) + [
            Pose(zeta=-5.0, theta=0.2), Pose(zeta=5.0, phi=-0.3), Pose(zeta=0.1)
        ]
        q = np.array([p.as_array() for p in poses])
        u = potential(mesh, q, env)
        forces = generalized_forces(mesh, q, env)
        assert u.shape == (len(poses),) and forces.shape == (len(poses), 6)
        for k, pose in enumerate(poses):
            assert u[k].tobytes() == np.float64(potential(mesh, pose, env)).tobytes()
            assert forces[k].tobytes() == generalized_forces(mesh, pose, env).tobytes()

    def test_surge_sway_and_yaw_columns_are_ignored(self, l_prism, env):
        rng = np.random.default_rng(43)
        q = np.array([p.as_array() for p in random_partial_poses(l_prism, 40, rng)])
        moved = q.copy()
        moved[:, [0, 1, 3]] = rng.uniform(-10.0, 10.0, (len(q), 3))
        assert potential(l_prism, moved, env).tobytes() == potential(l_prism, q, env).tobytes()
        assert (
            generalized_forces(l_prism, moved, env).tobytes()
            == generalized_forces(l_prism, q, env).tobytes()
        )

    def test_empty_batch(self, cube, env):
        q = np.zeros((0, 6))
        assert potential(cube, q, env).shape == (0,)
        assert generalized_forces(cube, q, env).shape == (0, 6)

    def test_rejects_other_shapes(self, cube, env):
        with pytest.raises(ValueError, match=r"\(n, 6\)"):
            potential(cube, np.zeros(6), env)
        with pytest.raises(ValueError, match=r"\(n, 6\)"):
            generalized_forces(cube, np.zeros((4, 3)), env)


class TestNonManifoldWaterline:
    def test_lprism_poses_with_touching_loops_integrate(self, l_prism, env):
        # a vertex exactly on the plane can pinch the waterline into loops
        # that touch; the clipped solid and the wetted faces agree there,
        # and the volume stays between the shifted poses'
        eps = 1e-7 * l_prism.diameter
        found = 0
        for pose in vertex_on_plane_poses(l_prism, np.random.default_rng(12), 240):
            solid = clip_by_waterplane(l_prism, pose)
            if not touching_loops(solid):
                continue
            found += 1
            assert_clip_matches_evaluate(l_prism, pose, solid)
            state = hydrostatic_state(l_prism, pose, env)
            grad = force_gradient(l_prism, pose, env)
            assert np.all(np.isfinite(state.forces))
            assert np.isfinite(state.potential)
            assert np.all(np.isfinite(state.waterplane.second_moment))
            assert np.all(np.isfinite(grad))
            v_lo = hydrostatic_state(l_prism, pose.replace(zeta=pose.zeta - eps), env).volume
            v_hi = hydrostatic_state(l_prism, pose.replace(zeta=pose.zeta + eps), env).volume
            assert v_lo - 1e-12 <= state.volume <= v_hi + 1e-12
            assert v_hi - v_lo < 1e-5 * max(l_prism.volume, 1.0)
        assert found >= 5
