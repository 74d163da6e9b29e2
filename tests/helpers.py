"""Checks on clipped solids shared by the clipping, hydrostatics and CLI
tests, and the clip-side oracle of the equilibrium Hessian."""

import numpy as np

from floatdyn import Pose, clip_by_waterplane, volume_and_first_moments, waterplane_properties
from floatdyn.clipping import cap_raw_moments, evaluate
from floatdyn.kinematics import depth_row, k3_body
from floatdyn.mesh import _check_edges


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
