from floatdyn.verification import (
    GRADIENT_SYMMETRY_TOL,
    GRADIENT_TOL,
    LOOP_WORK_TOL,
    PLANAR_INVARIANCE_TOL,
    gradient_residual,
    gradient_symmetry_residual,
    loop_work_residual,
    planar_invariance_residual,
    random_partial_poses,
    run_verification,
)


def test_sampled_poses_stay_partially_submerged(cube, rng):
    from floatdyn.kinematics import k3_body

    for pose in random_partial_poses(cube, 50, rng):
        depths = pose.zeta + cube.vertices @ k3_body(pose)
        assert depths.min() < 0.0 < depths.max()


def test_gradient_residual_small_on_cube(cube, env, rng):
    poses = random_partial_poses(cube, 10, rng)
    assert gradient_residual(cube, env, poses) < 1e-5


def test_gradient_residual_small_on_random_convex_hull(convex_blob, env, rng):
    poses = random_partial_poses(convex_blob, 50, rng)
    assert gradient_residual(convex_blob, env, poses) < 1e-5


def test_gradient_symmetry_exact(cube, env, rng):
    poses = random_partial_poses(cube, 10, rng)
    assert gradient_symmetry_residual(cube, env, poses) == 0.0


def test_planar_invariance_is_bitwise(l_prism, env, rng):
    poses = random_partial_poses(l_prism, 10, rng)
    assert planar_invariance_residual(l_prism, env, poses, rng) == 0.0


def test_loop_work_vanishes(cube, env, rng):
    assert loop_work_residual(cube, env, rng, n_loops=2) < 1e-6


def test_run_verification_summary(cube, env):
    summary = run_verification(cube, env, seed=3, n_poses=8, n_loops=1)
    assert summary.passed
    payload = summary.to_dict()
    assert payload["passed"] is True
    assert set(payload) >= {"loop_work", "gradient", "gradient_symmetry",
                            "planar_invariance"}
    # the thresholds are the module's, echoed unchanged
    assert (payload["loop_work_tol"], payload["gradient_tol"],
            payload["gradient_symmetry_tol"], payload["planar_invariance_tol"]) == (
        LOOP_WORK_TOL, GRADIENT_TOL, GRADIENT_SYMMETRY_TOL, PLANAR_INVARIANCE_TOL)
