"""Checks on clipped solids shared by the clipping, hydrostatics and CLI
tests, the clip-side oracle of the equilibrium Hessian, and the reference
quantities the tests compare the package with: the Lagrangian, the cyclic
momenta and the Routhian, the buoyant force and torque, and the
closed-form small oscillations, and the Monte-Carlo oracle for the
clipped volume and first moments: parity ray-cast containment and a
rejection sampler, which share no code with the kernel."""

from dataclasses import dataclass

import numpy as np

from floatdyn import (
    ModalResult, Pose, clip_by_waterplane, kinetic_metric, potential, volume_and_first_moments,
    waterplane_properties,
)
from floatdyn.clipping import cap_raw_moments, evaluate
from floatdyn.dynamics import _IX_AA, _IX_AN, _IX_NN
from floatdyn.errors import SingularCyclicBlock
from floatdyn.kinematics import CYCLIC, depth_row, k3_body, rotation_matrix
from floatdyn.mesh import _RAY_DIRECTION, _check_edges, _ray_parity


def vertex_on_plane_poses(mesh, rng, count):
    """Seeded poses, heel and trim in [-0.3, 0.3], that put a random mesh
    vertex exactly on the waterplane."""
    for _ in range(count):
        theta, phi = (float(x) for x in rng.uniform(-0.3, 0.3, 2))
        vertex = mesh.vertices[rng.integers(len(mesh.vertices))]
        zeta = float(-vertex @ k3_body(Pose(theta=theta, phi=phi)))
        yield Pose(zeta=zeta, theta=theta, phi=phi)


def flipped_roll(pose):
    """The down axis at the opposite roll: a wrong attitude convention for
    ``clipping.k3_body``, which the planar-invariance checks must catch."""
    return np.array(depth_row(pose.theta, -pose.phi)[0])


def touching_loops(solid):
    """Whether some cap point occurs twice, bitwise, across the cap loops:
    waterline loops touching at a vertex on the plane."""
    points = np.concatenate(solid.cap_polygons or [np.zeros((0, 3))])
    return len(np.unique(points.view(np.void(24)))) < len(points)


def assert_edges_paired(solid):
    """Every directed edge of the exported boundary occurs once and has
    exactly one reverse, corners compared by their bits: the boundary is
    closed and consistently oriented.  Raises ``NonWatertightMesh``
    otherwise."""
    corners = np.ascontiguousarray(solid.boundary_triangles().reshape(-1, 3))
    _, ids = np.unique(corners.view(np.void(24))[:, 0], return_inverse=True)
    _check_edges(ids.reshape(-1, 3), len(corners))


def assert_clip_matches_evaluate(mesh, pose, solid, tol=1e-12):
    """Volume, first moments and cap moments of the clipped solid equal
    those of the wetted-face integrals to ``tol`` relative to the mesh
    diameter's powers."""
    got = evaluate(mesh, pose)
    volume, first = volume_and_first_moments(solid)
    area, cap_first, cap_second = cap_raw_moments(solid)
    d = mesh.diameter
    assert abs(volume - got.volume) <= tol * d**3
    assert np.abs(first - got.first).max() <= tol * d**4
    assert abs(area - got.cap_area) <= tol * d**2
    assert np.abs(cap_first - got.cap_first).max() <= tol * d**3
    assert np.abs(cap_second - got.cap_second).max() <= tol * d**4


def textbook_hessian(mesh, pose, env):
    """The textbook equilibrium stiffness of a port-starboard symmetric
    hull floating upright::

        rho g [[-A,     A x_C,          0          ],
               [A x_C,  V z_B - S11,    0          ],
               [0,      0,              V z_B - S22]]

    from the clipped solid, its waterplane and its volume integrals: a
    route that shares no code with ``evaluate``.  The zeros are exact."""
    solid = clip_by_waterplane(mesh, pose)
    volume, first = volume_and_first_moments(solid)
    wp = waterplane_properties(solid)
    area, x_c, second = wp.area, wp.x_c, wp.second_moment
    return env.rho * env.g * np.array([
        [-area, area * x_c, 0.0],
        [area * x_c, first[2] - second[0, 0], 0.0],
        [0.0, 0.0, first[2] - second[1, 1]],
    ])


def clipped_surface_term(mesh, pose, origin_offset=0.0):
    """The waterplane term ``1/2 * integral of depth^2 dS`` over the explicit
    cap polygons of the clipped solid, depth measured from a fixed origin
    ``origin_offset`` below the free surface: a route that shares no code
    with ``evaluate``, whose cap moments are fixed by closure.  With the
    origin on the surface every cap point has zero depth and so does the
    term (to roundoff).  Bare, in m^4."""
    solid = clip_by_waterplane(mesh, pose)
    area, first, second = cap_raw_moments(solid)
    c = solid.plane_offset - origin_offset
    n = solid.plane_normal
    return 0.5 * (c * c * area + 2.0 * c * (n @ first) + n @ second @ n)


def lagrangian(mesh, body, env, state) -> float:
    """Kinetic energy plus the force function at the given state."""
    a = kinetic_metric(body, state.pose.theta, state.pose.phi)
    kinetic = 0.5 * state.rates @ a @ state.rates
    u = body.mass * env.g * state.pose.zeta + potential(mesh, state.pose, env)
    return float(kinetic + u)


def conserved_momenta(body, state) -> np.ndarray:
    """Momenta conjugate to surge, sway and yaw: ``(a qdot)`` cyclic rows."""
    a = kinetic_metric(body, state.pose.theta, state.pose.phi)
    return (a @ state.rates)[list(CYCLIC)]


def routhian(metric, u: float, qdot_alpha, p_cyclic) -> float:
    """Partial Legendre transform of the Lagrangian over the cyclic rates,
    given the 6x6 kinetic metric.

    ``R = 1/2 qdot_a' a_aa qdot_a - 1/2 w' aAA^-1 w + U`` with
    ``w = p - a_Aa qdot_a``.  Equals ``L - p . qdot_cyclic`` when the
    cyclic rates are reconstructed from the momenta.
    """
    qdot_alpha = np.asarray(qdot_alpha, dtype=float)
    p = np.asarray(p_cyclic, dtype=float)
    a_aa = metric[_IX_AA]
    a_an = metric[_IX_AN]
    a_nn = metric[_IX_NN]
    w = p - a_an @ qdot_alpha
    try:
        u_dot = np.linalg.solve(a_aa, w)
    except np.linalg.LinAlgError as exc:
        raise SingularCyclicBlock("cyclic block of the metric is singular") from exc
    return float(0.5 * qdot_alpha @ a_nn @ qdot_alpha - 0.5 * w @ u_dot + u)


def buoyant_force_torque(mesh, pose, env):
    """Resultant buoyant force and torque about G, fixed-frame components.

    The force is ``rho g V`` straight up (negative third component,
    since the fixed third axis points down); the torque is the lever of
    the buoyancy center about G.  Together they reproduce the power of
    the generalized forces for any motion:
    ``F . v_G + M . omega == Q . qdot``.
    """
    integrals = evaluate(mesh, pose)
    volume = integrals.volume
    force = np.array([0.0, 0.0, -env.rho * env.g * volume])
    if volume > 0.0:
        lever = rotation_matrix(pose) @ (integrals.first / volume)
        torque = np.cross(lever, force)
    else:
        torque = np.zeros(3)
    return force, torque


@dataclass(frozen=True)
class LinearizedOscillation:
    """Closed-form small-motion trajectory about the equilibrium.

    Evaluate with :meth:`deviations`; add the equilibrium coordinates to
    get absolute heave, pitch and roll.
    """

    modal: ModalResult
    cos_coeff: np.ndarray
    sin_coeff: np.ndarray

    def deviations(self, t) -> np.ndarray:
        """Deviation samples, shape (len(t), 3)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        omegas = self.modal.omegas
        phases = np.outer(t, omegas)
        amp = np.cos(phases) * self.cos_coeff + np.sin(phases) * self.sin_coeff
        return amp @ self.modal.mode_shapes.T


def linearized_prediction(
    modal: ModalResult, initial_deviation, initial_rates
) -> LinearizedOscillation:
    """Superpose the modes matching an initial deviation and rate.

    Only meaningful at pseudo-stable equilibria, where every eigenvalue
    is positive.  Serves as the small-amplitude oracle against the
    nonlinear reduced dynamics.
    """
    assert np.all(modal.lambdas > 0), "linearized prediction needs all eigenvalues positive"
    eta0 = np.asarray(initial_deviation, dtype=float)
    etadot0 = np.asarray(initial_rates, dtype=float)
    # shapes are mass-orthonormal, so the mass metric inverts the basis
    proj = modal.mode_shapes.T @ modal.mass
    cos_coeff = proj @ eta0
    sin_coeff = (proj @ etadot0) / modal.omegas
    return LinearizedOscillation(modal, cos_coeff, sin_coeff)


#: points per batch of :func:`contains_points`
_CONTAINS_CHUNK = 20000


def contains_points(mesh, points) -> np.ndarray:
    """Parity ray-cast containment test of a batch of points in ``mesh``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(len(points), dtype=bool)
    for start in range(0, len(points), _CONTAINS_CHUNK):
        stop = min(start + _CONTAINS_CHUNK, len(points))
        out[start:stop] = _ray_parity(points[start:stop], mesh._tri_vertices, _RAY_DIRECTION)
    return out


class SubmergedMonteCarlo:
    """Rejection sampler reusable across poses of one mesh.

    The point cloud and the (expensive) containment mask depend only on
    the mesh; per pose only the depth filter changes, so sweeps over
    many poses amortize the ray casting.
    """

    def __init__(self, mesh, n_samples: int, rng):
        lo, hi = mesh.bbox
        self.points = rng.uniform(lo, hi, size=(n_samples, 3))
        self.inside = contains_points(mesh, self.points)
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
