"""Property-check suites runnable on arbitrary user geometry.

Each check returns its worst residual so callers can compare against
their own thresholds; :func:`run_verification` bundles the standard set
used by the command-line ``verify`` subcommand:

* loop work: the generalized forces integrated around closed loops in
  configuration space must do zero net work (conservativeness);
* gradient identity: the forces must match finite differences of the
  buoyancy force function;
* gradient symmetry: the force gradient must be a symmetric matrix;
* planar invariance: horizontal translation and yaw must leave every
  body-frame hydrostatic quantity bitwise unchanged.

A rejection-sampling volume estimator provides the independent
Monte-Carlo oracle for the clipped volume and first moments.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .clipping import evaluate
from .hydrostatics import FluidEnvironment, force_gradient, generalized_forces, potential
from .kinematics import Pose, k3_body
from .mesh import HullMesh


def random_partial_poses(
    mesh: HullMesh,
    n: int,
    rng,
    max_angle: float = 0.3,
    margin_fraction: float = 0.02,
    max_tries: int = 2000,
):
    """Sample poses keeping the hull strictly pierced by the surface.

    Both the deepest and the shallowest vertex stay at least
    ``margin_fraction * diameter`` away from the plane, so finite
    differences around the pose never change the submersion topology.
    """
    margin = margin_fraction * mesh.diameter
    lo, hi = mesh.bbox
    poses = []
    tries = 0
    while len(poses) < n:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("could not sample enough partially submerged poses")
        theta = rng.uniform(-max_angle, max_angle)
        phi = rng.uniform(-max_angle, max_angle)
        zeta = rng.uniform(lo[2] - 0.2 * mesh.height, hi[2] + 0.2 * mesh.height)
        pose = Pose(0.0, 0.0, zeta, 0.0, theta, phi)
        depths = zeta + mesh.vertices @ k3_body(pose)
        if depths.min() < -margin and depths.max() > margin:
            poses.append(pose)
    return poses


def gradient_residual(
    mesh: HullMesh,
    env: FluidEnvironment,
    poses,
    step: float = 1e-5,
) -> float:
    """Worst relative deviation of forces from central differences of U_B.

    The cyclic coordinates are checked for exact zeros (their finite
    differences vanish identically); the three restoring coordinates are
    compared at the given step.
    """
    worst = 0.0
    for pose in poses:
        forces = generalized_forces(mesh, pose, env)
        assert forces[0] == 0.0 and forces[1] == 0.0 and forces[3] == 0.0
        q = pose.as_array()
        scale = max(np.abs(forces).max(), 1e-300)
        for k in (2, 4, 5):
            qp, qm = q.copy(), q.copy()
            qp[k] += step
            qm[k] -= step
            fd = (
                potential(mesh, Pose.from_array(qp), env)
                - potential(mesh, Pose.from_array(qm), env)
            ) / (2.0 * step)
            worst = max(worst, abs(fd - forces[k]) / scale)
    return worst


def _vertex_crossings(mesh, a, b, grid: int = 33):
    """Parameter values in (0, 1) where a vertex depth changes sign.

    The clipped volume is piecewise analytic in the configuration with
    breakpoints exactly at vertex-plane crossings, so splitting the
    quadrature there keeps every piece smooth.  Depth evaluation never
    clips the mesh, so scanning is cheap.
    """
    s_grid = np.linspace(0.0, 1.0, grid)

    def depths_at(s):
        y = a + s * (b - a)
        pose = Pose(0.0, 0.0, y[0], 0.0, y[1], y[2])
        return y[0] + mesh.vertices @ k3_body(pose)

    table = np.array([depths_at(s) for s in s_grid])

    cuts = []
    sign_change = table[:-1] * table[1:] < 0.0
    for i, j in zip(*np.nonzero(sign_change)):
        lo, hi = s_grid[i], s_grid[i + 1]
        flo = table[i, j]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = depths_at(mid)[j]
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        cuts.append(0.5 * (lo + hi))
    return sorted(cuts)


def loop_work_residual(
    mesh: HullMesh,
    env: FluidEnvironment,
    rng,
    n_loops: int = 20,
    n_segments: int = 20,
    gauss_points: int = 10,
    panels: int = 2,
    max_angle: float = 0.25,
) -> float:
    """Worst relative net work of the forces around random closed loops.

    Loops are random closed polylines in (zeta, theta, phi).  Each
    segment is split at vertex-plane crossings and every smooth piece is
    integrated by composite Gauss-Legendre quadrature, so the residual
    reflects the forces, not quadrature error at submersion-topology
    kinks.  Normalized by the largest force-function magnitude seen
    along the loop.
    """
    nodes, weights = np.polynomial.legendre.leggauss(gauss_points)
    worst = 0.0
    for _ in range(n_loops):
        waypoints = np.array(
            [
                p.as_array()[[2, 4, 5]]
                for p in random_partial_poses(mesh, n_segments, rng, max_angle)
            ]
        )
        u_scale = max(
            abs(potential(mesh, Pose(0, 0, w[0], 0, w[1], w[2]), env))
            for w in waypoints
        )
        work = 0.0
        for seg in range(n_segments):
            a = waypoints[seg]
            b = waypoints[(seg + 1) % n_segments]
            delta = b - a
            breaks = [0.0] + _vertex_crossings(mesh, a, b) + [1.0]
            for left, right in zip(breaks[:-1], breaks[1:]):
                width = (right - left) / panels
                if width <= 0.0:
                    continue
                for panel in range(panels):
                    start = left + panel * width
                    for node, wt in zip(nodes, weights):
                        s = start + width * 0.5 * (node + 1.0)
                        y = a + s * delta
                        pose = Pose(0.0, 0.0, y[0], 0.0, y[1], y[2])
                        forces = generalized_forces(mesh, pose, env)
                        work += wt * 0.5 * width * (forces[[2, 4, 5]] @ delta)
        worst = max(worst, abs(work) / max(u_scale, 1e-300))
    return worst


def gradient_symmetry_residual(mesh: HullMesh, env: FluidEnvironment, poses) -> float:
    """Worst relative asymmetry of the force gradient."""
    worst = 0.0
    for pose in poses:
        grad = force_gradient(mesh, pose, env)
        scale = max(np.abs(grad).max(), 1e-300)
        worst = max(worst, np.abs(grad - grad.T).max() / scale)
    return worst


def planar_invariance_residual(
    mesh: HullMesh, env: FluidEnvironment, poses, rng
) -> float:
    """Worst absolute change of body-frame quantities under surge/sway/yaw.

    The submerged integrals, the potential and the generalized forces may
    not depend on those coordinates at all, so the expected residual is
    exactly zero.
    """
    worst = 0.0
    for pose in poses:
        shifted = Pose(
            pose.xi + rng.uniform(-5, 5),
            pose.eta + rng.uniform(-5, 5),
            pose.zeta,
            pose.psi + rng.uniform(-3, 3),
            pose.theta,
            pose.phi,
        )
        a = evaluate(mesh, pose)
        b = evaluate(mesh, shifted)
        worst = max(worst, abs(a.volume - b.volume), np.abs(a.first - b.first).max())
        worst = max(
            worst, abs(potential(mesh, pose, env) - potential(mesh, shifted, env))
        )
        qa = generalized_forces(mesh, pose, env)
        qb = generalized_forces(mesh, shifted, env)
        worst = max(worst, np.abs(qa - qb).max())
    return worst


class SubmergedMonteCarlo:
    """Rejection sampler reusable across poses of one mesh.

    The point cloud and the (expensive) containment mask depend only on
    the mesh; per pose only the depth filter changes, so sweeps over
    many poses amortize the ray casting.
    """

    def __init__(self, mesh: HullMesh, n_samples: int, rng):
        lo, hi = mesh.bbox
        self.points = rng.uniform(lo, hi, size=(n_samples, 3))
        self.inside = mesh.contains_points(self.points)
        self.box_volume = float(np.prod(hi - lo))
        self.n_samples = n_samples

    def estimate(self, pose: Pose):
        """``(v_hat, v_sigma, m_hat, m_sigma)`` with one-standard-error bars."""
        depths = pose.zeta + self.points @ k3_body(pose)
        hit = self.inside & (depths >= 0.0)

        p = hit.mean()
        v_hat = self.box_volume * p
        v_sigma = self.box_volume * np.sqrt(max(p * (1.0 - p), 0.0) / self.n_samples)

        weights = np.where(hit[:, None], self.points, 0.0)
        m_hat = self.box_volume * weights.mean(axis=0)
        m_sigma = self.box_volume * weights.std(axis=0) / np.sqrt(self.n_samples)
        return v_hat, v_sigma, m_hat, m_sigma


def rejection_sample_submerged(mesh: HullMesh, pose: Pose, n_samples: int, rng):
    """One-shot Monte-Carlo estimate of submerged volume and first moments."""
    return SubmergedMonteCarlo(mesh, n_samples, rng).estimate(pose)


@dataclass(frozen=True)
class VerificationSummary:
    """Worst residual per property check, with the thresholds applied."""

    loop_work: float
    gradient: float
    gradient_symmetry: float
    planar_invariance: float
    loop_work_tol: float
    gradient_tol: float
    gradient_symmetry_tol: float
    planar_invariance_tol: float

    @property
    def passed(self) -> bool:
        return (
            self.loop_work <= self.loop_work_tol
            and self.gradient <= self.gradient_tol
            and self.gradient_symmetry <= self.gradient_symmetry_tol
            and self.planar_invariance <= self.planar_invariance_tol
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["passed"] = self.passed
        return out


#: thresholds of the standard suite, one per check
LOOP_WORK_TOL = 1e-6
GRADIENT_TOL = 1e-5
GRADIENT_SYMMETRY_TOL = 1e-8
PLANAR_INVARIANCE_TOL = 0.0


def run_verification(
    mesh: HullMesh,
    env: FluidEnvironment,
    seed: int = 0,
    n_poses: int = 25,
    n_loops: int = 5,
) -> VerificationSummary:
    """Run the standard residual suite on one mesh."""
    rng = np.random.default_rng(seed)
    poses = random_partial_poses(mesh, n_poses, rng)
    return VerificationSummary(
        loop_work=loop_work_residual(mesh, env, rng, n_loops=n_loops),
        gradient=gradient_residual(mesh, env, poses),
        gradient_symmetry=gradient_symmetry_residual(mesh, env, poses),
        planar_invariance=planar_invariance_residual(mesh, env, poses, rng),
        loop_work_tol=LOOP_WORK_TOL,
        gradient_tol=GRADIENT_TOL,
        gradient_symmetry_tol=GRADIENT_SYMMETRY_TOL,
        planar_invariance_tol=PLANAR_INVARIANCE_TOL,
    )
