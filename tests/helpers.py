"""Checks on clipped solids shared by the clipping, hydrostatics and CLI
tests, the clip-side oracle of the equilibrium Hessian, and the reference
quantities the tests compare the package with: the Lagrangian, the cyclic
momenta, the Routhian and the generic Schur complement and cyclic-rate
solve, the buoyant force and torque, and the closed-form small
oscillations, the shoelace moments of a 2D polygon, and the Monte-Carlo
oracle for the clipped volume and first moments: parity ray-cast
containment and a rejection sampler, which share no code with the
kernel.  Also malformed copies of a cube's OBJ and ASCII STL files,
copies whose faces fail validation in all three formats, the per-facet
encoder of binary STL that ``save_stl`` must match byte for byte, and
the convex-hull meshes, whose triangulation needs SciPy: the tests on
them skip without it."""

import struct
from dataclasses import dataclass

import numpy as np

from floatdyn import (
    HullMesh, ModalResult, Pose, clip_by_waterplane, kinetic_metric, potential,
    volume_and_first_moments, waterplane_properties,
)
from floatdyn.clipping import cap_raw_moments, evaluate
from floatdyn.errors import InvalidMesh, NonWatertightMesh
from floatdyn.kinematics import CYCLIC, NONCYCLIC, depth_row, k3_body, rotation_matrix
from floatdyn.mesh import _RAY_DIRECTION, _check_edges, _ray_parity
from floatdyn.shapes import unit_cube

#: the cyclic, coupling and non-cyclic blocks of a 6x6 metric
IX_AA = np.ix_(CYCLIC, CYCLIC)
IX_AN = np.ix_(CYCLIC, NONCYCLIC)
IX_NN = np.ix_(NONCYCLIC, NONCYCLIC)


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


@dataclass(frozen=True)
class PolygonMoments:
    """Area, centroid and second moments of a planar region.

    ``second_moment[i, j]`` is the integral of ``x_i * x_j`` over the
    region, coordinates measured from the reference point the moments
    were requested about.
    """

    area: float
    centroid: np.ndarray
    second_moment: np.ndarray


def polygon_moments(vertices, about=None) -> PolygonMoments:
    """Shoelace-family moments of a 2D polygon, assumed simple (unchecked):
    the oracle of ``clipping.planar_moments_3d`` and of the ear clipper's
    areas.

    Parameters
    ----------
    vertices : (n, 2) array_like
        Loop vertices, either winding direction; the final edge closes
        the loop implicitly.  Counter-clockwise loops yield positive
        area, clockwise negative (useful for holes).
    about : (2,) array_like, optional
        Point the second moments are taken about (default origin).  The
        centroid is reported in the same shifted coordinates.
    """
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise ValueError("polygon needs an (n, 2) array with n >= 3")
    if about is not None:
        pts = pts - np.asarray(about, dtype=float)

    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y

    area = 0.5 * np.sum(cross)
    if area == 0.0:
        return PolygonMoments(0.0, np.zeros(2), np.zeros((2, 2)))

    cx = np.sum((x + xn) * cross) / (6.0 * area)
    cy = np.sum((y + yn) * cross) / (6.0 * area)
    ixx = np.sum((x * x + x * xn + xn * xn) * cross) / 12.0
    iyy = np.sum((y * y + y * yn + yn * yn) * cross) / 12.0
    ixy = np.sum((x * yn + 2.0 * x * y + 2.0 * xn * yn + xn * y) * cross) / 24.0
    second = np.array([[ixx, ixy], [ixy, iyy]])
    return PolygonMoments(float(area), np.array([cx, cy]), second)


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
    a_aa = metric[IX_AA]
    a_an = metric[IX_AN]
    a_nn = metric[IX_NN]
    w = p - a_an @ qdot_alpha
    u_dot = np.linalg.solve(a_aa, w)
    return float(0.5 * qdot_alpha @ a_nn @ qdot_alpha - 0.5 * w @ u_dot + u)


def schur_reduced_mass(metric) -> np.ndarray:
    """The Schur complement of the cyclic block of any 6x6 metric, by a
    generic solve: the oracle of the closed-form reduced mass matrix."""
    a_an = metric[IX_AN]
    return metric[IX_NN] - a_an.T @ np.linalg.solve(metric[IX_AA], a_an)


def solved_cyclic_rates(metric, qdot_alpha, p_cyclic) -> np.ndarray:
    """Surge, sway and yaw rates from the momentum relations of any 6x6
    metric, by a generic solve: the oracle of the closed-form rates."""
    w = np.asarray(p_cyclic, dtype=float) - metric[IX_AN] @ np.asarray(qdot_alpha, dtype=float)
    return np.linalg.solve(metric[IX_AA], w)


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


def convex_hull_mesh(points) -> HullMesh:
    """Watertight triangulation of the convex hull of a point cloud."""
    from scipy.spatial import ConvexHull

    points = np.asarray(points, dtype=float)
    hull = ConvexHull(points)
    verts = points[hull.vertices]
    remap = {old: new for new, old in enumerate(hull.vertices)}
    center = verts.mean(axis=0)

    tris = []
    for simplex in hull.simplices:
        a, b, c = (points[i] for i in simplex)
        n = np.cross(b - a, c - a)
        face = [remap[i] for i in simplex]
        if n @ (a - center) < 0:
            face = [face[0], face[2], face[1]]
        tris.append(face)
    return HullMesh(verts, np.array(tris, dtype=np.int64))


def random_convex_mesh(n_points: int = 40, seed: int = 7) -> HullMesh:
    """Random convex blob: jittered radial point cloud, hull-triangulated,
    centred on its volume centroid."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_points, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = rng.uniform(0.6, 1.0, n_points)
    mesh = convex_hull_mesh(dirs * radii[:, None])
    return mesh.translated(-mesh.volume_centroid)


#: the unit cube as an OBJ of quads, 1-based indices
CUBE_OBJ = ["v -0.5 -0.5 -0.5", "v 0.5 -0.5 -0.5", "v 0.5 0.5 -0.5",
            "v -0.5 0.5 -0.5", "v -0.5 -0.5 0.5", "v 0.5 -0.5 0.5",
            "v 0.5 0.5 0.5", "v -0.5 0.5 0.5",
            "f 1 4 3 2", "f 5 6 7 8", "f 1 2 6 5",
            "f 3 4 8 7", "f 2 3 7 6", "f 4 1 5 8"]


def cube_stl():
    """The unit cube as ASCII STL lines, seven lines a facet after the
    ``solid`` line: the first facet's vertices are lines 4 to 6."""
    lines = ["solid cube"]
    for triangle in unit_cube().triangle_vertices:
        lines += ["facet normal 0 0 0", "outer loop"]
        lines += [f"vertex {v[0]:g} {v[1]:g} {v[2]:g}" for v in triangle]
        lines += ["endloop", "endfacet"]
    return lines + ["endsolid cube"]


def _with_line(lines, number, text):
    """``lines`` with line ``number`` (1-based) replaced by ``text``."""
    return lines[:number - 1] + [text] + lines[number:]


#: malformed cube files by case: the file name, its lines, the line the
#: error names and the rest of the message
MALFORMED_RECORDS = {
    "obj-quad-index-past-end": (
        "cube.obj", _with_line(CUBE_OBJ, 10, "f 5 6 7 99"), 10,
        "face index 99 is out of range for 8 vertices"),
    "obj-quad-index-zero": (
        "cube.obj", _with_line(CUBE_OBJ, 10, "f 5 6 7 0"), 10,
        "face index 0 is out of range for 8 vertices"),
    "obj-quad-index-before-start": (
        "cube.obj", _with_line(CUBE_OBJ, 10, "f 5 6 7 -9"), 10,
        "face index -9 is out of range for 8 vertices"),
    "obj-triangle-index-past-end": (
        "cube.obj", _with_line(CUBE_OBJ, 11, "f 1 2 99"), 11,
        "face index 99 is out of range for 8 vertices"),
    "obj-bow-tie-quad": (
        "cube.obj", _with_line(CUBE_OBJ, 9, "f 1 3 2 4"), 9, "degenerate polygonal face"),
    "obj-skew-quad-without-ear": (
        "cube.obj", _with_line(CUBE_OBJ, 9, "f 1 2 4 6"), 9,
        "no ear found; polygon not simple"),
    "obj-face-of-two-vertices": (
        "cube.obj", _with_line(CUBE_OBJ, 12, "f 3 4"), 12, "face with fewer than 3 vertices"),
    "stl-facet-of-four-vertices": (
        "cube.stl", cube_stl()[:6] + ["vertex 1 1 1"] + cube_stl()[6:], 9,
        "facet ends after 4 vertices, expected 3"),
    "stl-ends-inside-a-facet": (
        "cube.stl", cube_stl()[:-3] + cube_stl()[-1:], 81,
        "the file ends before the endfacet of the facet from this line"),
}


def packed_stl(triangles, name="floatdyn"):
    """The bytes of a binary STL of a (m, 3, 3) triangle array, one
    ``struct.pack`` call per value as ``save_stl`` once wrote them, with
    its rule for dropping zero-area triangles."""
    triangles = np.asarray(triangles, dtype=float)
    p, q, r = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    normals = np.cross(q - p, r - p)
    lengths = np.linalg.norm(normals, axis=1)
    scale = np.abs(triangles).max() if triangles.size else 1.0
    keep = lengths > 1e-14 * scale ** 2
    triangles, normals, lengths = triangles[keep], normals[keep], lengths[keep]
    normals = normals / lengths[:, None]
    blob = bytearray()
    blob += name.encode("ascii")[:80].ljust(80, b"\0")
    blob += struct.pack("<I", len(triangles))
    for n, tri in zip(normals, triangles):
        blob += struct.pack("<3f", *n)
        for vtx in tri:
            blob += struct.pack("<3f", *vtx)
        blob += struct.pack("<H", 0)
    return bytes(blob)


def _text(lines):
    return ("\n".join(lines) + "\n").encode()


_CUBE_FACETS = unit_cube().triangle_vertices
#: vertices 4, 5 and 8 of CUBE_OBJ, named as the STL messages name them
_V4, _V5, _V8 = "(-0.5, 0.5, -0.5)", "(-0.5, -0.5, 0.5)", "(-0.5, 0.5, 0.5)"

#: cube files whose faces fail HullMesh validation, by case: the file
#: name, its bytes, the error type, the place of the face at fault and
#: the rest of the message.  Without its last face the cube has an edge
#: without its reverse; with its last face twice, a directed edge twice.
UNSOUND_MESHES = {
    "obj-last-face-missing": (
        "cube.obj", _text(CUBE_OBJ[:-1]), NonWatertightMesh, "line 10",
        "edge (8, 5) has no opposite partner"),
    "obj-last-face-repeated": (
        "cube.obj", _text(CUBE_OBJ + CUBE_OBJ[-1:]), NonWatertightMesh, "line 15",
        "directed edge (8, 4) appears twice"),
    "obj-repeated-index": (
        "cube.obj", _text(CUBE_OBJ + ["f 4 4 5"]), InvalidMesh, "line 15",
        "triangle (4, 4, 5) with repeated vertex index"),
    "obj-degenerate-face": (
        "cube.obj", _text(CUBE_OBJ + ["v 0 -0.5 -0.5", "f 1 2 9"]), InvalidMesh, "line 16",
        "degenerate triangle (1, 2, 9) with area 0.000e+00"),
    "ascii-stl-last-facet-missing": (
        "cube.stl", _text(cube_stl()[:-8] + cube_stl()[-1:]), NonWatertightMesh, "line 46",
        f"edge ({_V4}, {_V8}) has no opposite partner"),
    "ascii-stl-last-facet-repeated": (
        "cube.stl", _text(cube_stl()[:-1] + cube_stl()[-8:]), NonWatertightMesh, "line 88",
        f"directed edge ({_V4}, {_V5}) appears twice"),
    "binary-stl-last-facet-missing": (
        "cube.stl", packed_stl(_CUBE_FACETS[:-1]), NonWatertightMesh, "facet 7",
        f"edge ({_V4}, {_V8}) has no opposite partner"),
    "binary-stl-last-facet-repeated": (
        "cube.stl", packed_stl(np.concatenate([_CUBE_FACETS, _CUBE_FACETS[-1:]])),
        NonWatertightMesh, "facet 13", f"directed edge ({_V4}, {_V5}) appears twice"),
}
