import numpy as np
import pytest

from floatdyn import HullMesh, Pose, clipping, shapes, verification
from floatdyn.kinematics import k3_body
from floatdyn.verification import (
    TOLERANCES,
    gradient_residual,
    gradient_symmetry_residual,
    loop_work_residual,
    planar_invariance_residual,
    _gauss_legendre,
    _vertex_crossings,
    random_partial_poses,
    run_verification,
)
from helpers import flipped_roll


def elliptic_cylinder(sides=96):
    """A fine tessellation: 380 faces, most of them long slivers."""
    angle = np.linspace(0.0, 2.0 * np.pi, sides, endpoint=False)
    return shapes.extrude_polygon(np.c_[1.2 * np.cos(angle), 0.5 * np.sin(angle)], 3.0)


#: hulls whose body origin lies away from the hull, by up to five hull lengths
OFF_ORIGIN = {
    "barge_x1": lambda: shapes.box(2.0, 1.0, 0.5).translated((6.0, 0.0, 0.0)),
    "barge_x3": lambda: shapes.box(2.0, 1.0, 0.5).translated((0.0, 0.0, 1.0)),
    "fine_cylinder": lambda: elliptic_cylinder().translated((-10.0, 0.0, 2.0)),
}


def test_pose_budget_grows_with_the_poses_asked_for(barge, rng):
    # a budget for the whole call would refuse 2000 poses on any hull
    assert len(random_partial_poses(barge, 2000, rng)) == 2000


def test_sampled_poses_stay_partially_submerged(cube, rng):
    for pose in random_partial_poses(cube, 50, rng):
        depths = pose.zeta + cube.vertices @ k3_body(pose)
        assert depths.min() < 0.0 < depths.max()


@pytest.mark.parametrize("mesh_name", list(OFF_ORIGIN))
def test_sampled_poses_pierce_a_hull_off_its_origin(mesh_name, rng):
    mesh = OFF_ORIGIN[mesh_name]()
    for pose in random_partial_poses(mesh, 50, rng):
        depths = pose.zeta + mesh.vertices @ k3_body(pose)
        assert depths.min() < 0.0 < depths.max()


def test_gradient_residual_small_on_cube(cube, env, rng):
    poses = random_partial_poses(cube, 10, rng)
    assert gradient_residual(cube, env, poses) < 1e-5


def test_gradient_residual_small_on_random_convex_hull(convex_blob, env, rng):
    poses = random_partial_poses(convex_blob, 50, rng)
    assert gradient_residual(convex_blob, env, poses) < 1e-5


def far_barge():
    """The barge with its body origin 20 m off, where flat steps of 1e-5
    leave an angle truncation of 1.4e-5 (seed 0)."""
    return shapes.box(2.0, 1.0, 0.5).translated((-20.0, 0.0, 2.0))


@pytest.mark.parametrize("seed", range(4))
def test_gradient_residual_passes_far_from_the_origin(env, seed):
    mesh = far_barge()
    poses = random_partial_poses(mesh, 25, np.random.default_rng(seed))
    assert gradient_residual(mesh, env, poses) < TOLERANCES["gradient"]


def test_gradient_residual_catches_nonconservative_forces(env, monkeypatch):
    # a pitch moment growing with roll, Q_theta += c phi, is no gradient
    # of the buoyancy force function, so differences of U_B miss it
    mesh = far_barge()
    conservative = verification.generalized_forces
    c = 1e-3 * env.rho * env.g

    def skewed(mesh, q, env):
        forces = conservative(mesh, q, env)
        forces[:, 4] += c * np.asarray(q)[:, 5]
        return forces

    poses = random_partial_poses(mesh, 25, np.random.default_rng(0))
    assert gradient_residual(mesh, env, poses) < TOLERANCES["gradient"]
    monkeypatch.setattr(verification, "generalized_forces", skewed)
    assert gradient_residual(mesh, env, poses) > 10 * TOLERANCES["gradient"]


@pytest.mark.parametrize("mesh_name", ["cube", "l_prism"])
def test_gradient_symmetry_residual_below_tolerance(mesh_name, request, env, rng):
    mesh = request.getfixturevalue(mesh_name)
    poses = random_partial_poses(mesh, 10, rng)
    assert gradient_symmetry_residual(mesh, env, poses) < TOLERANCES["gradient_symmetry"]


@pytest.mark.parametrize("mesh_name", list(OFF_ORIGIN))
def test_gradient_symmetry_residual_below_tolerance_off_origin(mesh_name, env, rng):
    # 50 poses: at a flat step the far barge fails on a few of them
    mesh = OFF_ORIGIN[mesh_name]()
    poses = random_partial_poses(mesh, 50, rng)
    assert gradient_symmetry_residual(mesh, env, poses) < TOLERANCES["gradient_symmetry"]


def test_gradient_symmetry_catches_nonconservative_forces(cube, env, rng, monkeypatch):
    # a pitch moment growing with roll, Q_theta += c phi, has no force
    # function: dQ_theta/dphi gains c while dQ_phi/dtheta does not
    conservative = verification.generalized_forces
    c = 1e-5 * env.rho * env.g

    def skewed(mesh, q, env):
        forces = conservative(mesh, q, env)
        forces[:, 4] += c * np.asarray(q)[:, 5]
        return forces

    poses = random_partial_poses(cube, 10, rng)
    assert gradient_symmetry_residual(cube, env, poses) < TOLERANCES["gradient_symmetry"]
    monkeypatch.setattr(verification, "generalized_forces", skewed)
    assert gradient_symmetry_residual(cube, env, poses) > 100 * TOLERANCES["gradient_symmetry"]


@pytest.mark.parametrize("mesh_name", ["barge", "l_prism", "cube", "wedge", "small_barge"])
def test_planar_invariance_holds(mesh_name, request, rng):
    mesh = request.getfixturevalue(mesh_name)
    poses = random_partial_poses(mesh, 10, rng)
    assert planar_invariance_residual(mesh, poses, rng) <= TOLERANCES["planar_invariance"]


@pytest.mark.parametrize("mesh_name", ["barge", "l_prism", "cube", "wedge", "small_barge"])
def test_planar_invariance_catches_a_flipped_roll(mesh_name, request, rng, monkeypatch):
    mesh = request.getfixturevalue(mesh_name)
    # a fresh copy, so no pose stored on the fixture answers for the kernel
    mesh = HullMesh(mesh.vertices, mesh.triangles)
    poses = random_partial_poses(mesh, 10, rng)
    monkeypatch.setattr(clipping, "k3_body", flipped_roll)
    assert planar_invariance_residual(mesh, poses, rng) > 1e-3


def test_loop_work_vanishes(cube, env, rng):
    assert loop_work_residual(cube, env, rng, n_loops=2) < 1e-6


def test_run_verification_summary(cube, env):
    residuals = run_verification(cube, env, seed=3, n_poses=8, n_loops=1)
    # one residual per check of the table, in its order, each within its tolerance
    assert list(residuals) == list(TOLERANCES)
    assert all(residuals[name] <= tol for name, tol in TOLERANCES.items())


def scalar_crossings(mesh, a, b, grid=33):
    """One segment's vertex-plane crossings, one depth scan per pose."""
    s_grid = np.linspace(0.0, 1.0, grid)

    def depths_at(s):
        y = a + s * (b - a)
        return y[0] + mesh.vertices @ k3_body(Pose(zeta=y[0], theta=y[1], phi=y[2]))

    table = np.array([depths_at(s) for s in s_grid])
    cuts = []
    for i, j in zip(*np.nonzero(table[:-1] * table[1:] < 0.0)):
        lo, hi, flo = s_grid[i], s_grid[i + 1], table[i, j]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = depths_at(mid)[j]
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        cuts.append(0.5 * (lo + hi))
    return sorted(cuts)


@pytest.mark.parametrize("mesh_name", ["barge", "l_prism", "convex_blob"])
def test_batched_crossings_match_the_scalar_bisection(mesh_name, request, rng):
    mesh = request.getfixturevalue(mesh_name)
    waypoints = np.array(
        [p.as_array()[[2, 4, 5]] for p in random_partial_poses(mesh, 12, rng, 0.25)]
    )
    ends = np.roll(waypoints, -1, axis=0)
    batched = _vertex_crossings(mesh, waypoints, ends)
    assert len(batched) == len(waypoints)
    assert sum(map(len, batched)) > len(waypoints)
    for a, b, cuts in zip(waypoints, ends, batched):
        expected = scalar_crossings(mesh, a, b)
        assert len(cuts) == len(expected)
        np.testing.assert_allclose(cuts, expected, rtol=0.0, atol=1e-15)


def test_segment_without_crossings(cube):
    level = np.array([[0.1, 0.0, 0.0], [0.2, 0.0, 0.0]])
    assert _vertex_crossings(cube, level[:1], level[1:]) == [[]]


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
def test_gauss_nodes_match_leggauss(n):
    nodes, weights = _gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0.0, atol=2e-15)
    np.testing.assert_allclose(weights, ref_weights, rtol=0.0, atol=2e-15)
