"""Property-check suites runnable on arbitrary user geometry.

Each check returns its worst residual so callers can compare against
their own thresholds; :func:`run_verification` runs the standard set
that the command-line ``verify`` subcommand holds to :data:`TOLERANCES`:

* loop work: the generalized forces integrated around closed loops in
  configuration space must do zero net work (conservativeness);
* gradient identity: the forces must match the derivatives of the
  buoyancy force function;
* gradient symmetry: the derivatives of the forces must be symmetric;
* planar invariance: the body-frame integrals must equal those of the
  mesh moved into the fixed frame, whatever the surge, sway and yaw.

The two derivative suites share one difference rule, :func:`_derivatives`.
The first three suites evaluate their poses in batches: the quadrature
nodes of a whole loop, the waypoint scales and the shifted potentials and
forces each go through one call of the array forms of
:func:`~floatdyn.hydrostatics.potential` and
:func:`~floatdyn.hydrostatics.generalized_forces`, which take
``(zeta, theta, phi)`` rows and give the same bits as one call per pose.
Surge, sway and yaw are cyclic, so the first three suites never move
them; only planar invariance does.  The Gauss-Legendre nodes come from an
eigensolve of the Jacobi matrix, so :mod:`numpy.polynomial` never loads.
"""

from __future__ import annotations

import numpy as np

from .clipping import evaluate
from .errors import FloatDynError
from .hydrostatics import FluidEnvironment, generalized_forces, potential
from .kinematics import Pose, depth_rows, k3_body, rotation_matrix
from .mesh import HullMesh


#: clearance of the deepest and the shallowest vertex from the plane at a
#: sampled pose, in hull diameters
_MARGIN_FRACTION = 0.02
#: draws per pose asked for that :func:`random_partial_poses` may make
_TRIES_PER_POSE = 100


def random_partial_poses(mesh: HullMesh, n: int, rng, max_angle: float = 0.3):
    """Sample poses keeping the hull strictly pierced by the surface.

    Both the deepest and the shallowest vertex stay at least
    :data:`_MARGIN_FRACTION` diameters away from the plane, so the hull
    stays pierced by the plane at every pose the differences around it
    reach.  Other vertices may cross the plane there.
    Raises :class:`~floatdyn.errors.FloatDynError` if
    :data:`_TRIES_PER_POSE` draws per pose do not give ``n`` such poses.
    """
    margin = _MARGIN_FRACTION * mesh.diameter
    lo, hi = mesh.bbox
    poses = []
    tries = 0
    while len(poses) < n:
        tries += 1
        if tries > _TRIES_PER_POSE * n:
            raise FloatDynError(
                f"{tries - 1} draws gave {len(poses)} of the {n} partially submerged "
                "poses asked for"
            )
        theta = rng.uniform(-max_angle, max_angle)
        phi = rng.uniform(-max_angle, max_angle)
        zeta = rng.uniform(-hi[2] - 0.2 * mesh.height, -lo[2] + 0.2 * mesh.height)
        pose = Pose(0.0, 0.0, zeta, 0.0, theta, phi)
        depths = zeta + mesh.vertices @ k3_body(pose)
        if depths.min() < -margin and depths.max() > margin:
            poses.append(pose)
    return poses


#: largest vertex-depth move of one difference step, in hull diameters
_STEP = 1e-5


def _derivatives(values, mesh: HullMesh, q):
    """Derivatives by (zeta, theta, phi) of ``values`` at the rows ``q``,
    entry ``[j, p]`` by coordinate ``j`` at row ``p``, and the steps ``h``.

    The heave step is :data:`_STEP` diameters, the angle steps that length
    over the farthest vertex's distance from the origin, so a hull far from
    its body origin keeps the angle differences' truncation as small as one
    centred on it.  ``values`` (the array form of ``potential`` or of
    ``generalized_forces``) gets the rows shifted by ``h`` and ``h/2`` both
    ways, 12 per pose, in one call.  The central differences ``D(h)`` and
    ``D(h/2)`` give ``(4 D(h/2) - D(h)) / 3``, in which their ``h^2``
    errors cancel (Richardson extrapolation).
    """
    reach = np.sqrt((mesh.vertices**2).sum(axis=1).max())
    h = _STEP * mesh.diameter * np.array([1.0, 1.0 / reach, 1.0 / reach])
    shifts = np.array([1.0, -1.0, 0.5, -0.5])[:, None, None] * np.diag(h)
    v = values((q + shifts[:, :, None]).reshape(-1, 3)).reshape(4, 3, len(q), -1)
    # (4 D(h/2) - D(h)) / 3, with D(h) = (v0 - v1) / 2h and D(h/2) = (v2 - v3) / h
    return (8.0 * (v[2] - v[3]) - (v[0] - v[1])) / (6.0 * h[:, None, None]), h


def gradient_residual(mesh: HullMesh, env: FluidEnvironment, poses) -> float:
    """Worst relative deviation of forces from the derivatives of U_B.

    The derivatives are :func:`_derivatives` of the potentials; the forces
    of all poses come from one batched call.
    """
    q = np.array([(p.zeta, p.theta, p.phi) for p in poses])
    forces = generalized_forces(mesh, q, env)
    scale = np.maximum(np.abs(forces).max(axis=1), 1e-300)
    du, _ = _derivatives(lambda rows: potential(mesh, rows, env), mesh, q)
    return float((np.abs(du[:, :, 0] - forces.T) / scale).max())


#: points per segment of the scan for vertex-plane crossings
_CROSSING_GRID = 33


def _vertex_crossings(mesh, a, b):
    """Per segment ``a[i] -> b[i]``, the sorted parameters in (0, 1) where a
    vertex depth changes sign.

    The clipped volume is piecewise analytic in the configuration with
    breakpoints exactly at vertex-plane crossings, so splitting the
    quadrature there keeps every piece smooth.  The depths of all segments
    are scanned on a :data:`_CROSSING_GRID`-point table in one batch, and
    every bracketed sign change is then halved 60 times together.
    Depth evaluation never clips the mesh, so scanning is cheap.
    """
    a = np.asarray(a, dtype=float)
    delta = np.asarray(b, dtype=float) - a
    s_grid = np.linspace(0.0, 1.0, _CROSSING_GRID)
    y = a[:, None] + s_grid[:, None] * delta[:, None]
    k3 = depth_rows(y[..., 1].ravel(), y[..., 2].ravel())[0].reshape(y.shape)
    table = y[..., :1] + (mesh.vertices @ k3[..., None])[..., 0]
    seg, i, j = np.nonzero(table[:, :-1] * table[:, 1:] < 0.0)
    flo = table[seg, i, j]
    lo, hi = s_grid[i], s_grid[i + 1]
    corner = mesh.vertices[j][:, None, :]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        y = a[seg] + mid[:, None] * delta[seg]
        k3 = depth_rows(y[:, 1], y[:, 2])[0]
        fmid = y[:, 0] + (corner @ k3[:, :, None])[:, 0, 0]
        left = flo * fmid <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fmid)
    cuts = 0.5 * (lo + hi)
    return [sorted(cuts[seg == k].tolist()) for k in range(len(a))]


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] by Golub-Welsch.

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    Legendre recurrence, the weights twice the squared first components
    of its eigenvectors.
    """
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return nodes, 2.0 * vectors[0] ** 2


#: Gauss-Legendre points per panel, panels per smooth piece of a loop
#: segment, the largest waypoint pitch and roll and the segments per loop
#: of the loop-work check
_GAUSS_POINTS = 10
_PANELS = 2
_LOOP_MAX_ANGLE = 0.25
_LOOP_SEGMENTS = 20


def loop_work_residual(mesh: HullMesh, env: FluidEnvironment, rng, n_loops: int) -> float:
    """Worst relative net work of the forces around random closed loops.

    Loops are random closed polylines of :data:`_LOOP_SEGMENTS` segments
    in (zeta, theta, phi).  Each segment is split at vertex-plane
    crossings and every smooth piece is integrated by composite
    Gauss-Legendre quadrature, so the residual reflects the forces, not
    quadrature error at submersion-topology kinks.  The forces at every
    quadrature node of a loop come from one batched call.  Normalized by
    the largest force-function magnitude seen at the loop's waypoints.
    """
    nodes, weights = _gauss_legendre(_GAUSS_POINTS)
    worst = 0.0
    for _ in range(n_loops):
        poses = random_partial_poses(mesh, _LOOP_SEGMENTS, rng, _LOOP_MAX_ANGLE)
        waypoints = np.array([(p.zeta, p.theta, p.phi) for p in poses])
        u_scale = np.abs(potential(mesh, waypoints, env)).max()
        ends = np.roll(waypoints, -1, axis=0)
        delta = ends - waypoints
        segment, s_nodes, coef = [], [], []
        for seg, cuts in enumerate(_vertex_crossings(mesh, waypoints, ends)):
            breaks = [0.0, *cuts, 1.0]
            for left, right in zip(breaks[:-1], breaks[1:]):
                width = (right - left) / _PANELS
                if width <= 0.0:
                    continue
                for panel in range(_PANELS):
                    start = left + panel * width
                    segment.append(np.full(_GAUSS_POINTS, seg))
                    s_nodes.append(start + width * 0.5 * (nodes + 1.0))
                    coef.append(weights * 0.5 * width)
        segment, s_nodes = np.concatenate(segment), np.concatenate(s_nodes)
        y = waypoints[segment] + s_nodes[:, None] * delta[segment]
        forces = generalized_forces(mesh, y, env)
        power = (forces[:, None, :] @ delta[segment][:, :, None])[:, 0, 0]
        work = 0.0
        # summed node by node, in the order of the segments and panels
        for term in (np.concatenate(coef) * power).tolist():
            work += term
        worst = max(worst, abs(work) / max(u_scale, 1e-300))
    return float(worst)


def gradient_symmetry_residual(mesh: HullMesh, env: FluidEnvironment, poses) -> float:
    """Worst relative asymmetry of the force Jacobian, by differences.

    Conservative forces have a symmetric Jacobian, ``dQ_i/dq_j = dQ_j/dq_i``;
    both sides are :func:`_derivatives` of the forces.  ``J_ij h_i h_j`` is
    compared, relative to the pose's largest entry, so hull size and origin
    do not set the residual.
    """
    q = np.array([(p.zeta, p.theta, p.phi) for p in poses])
    dq, h = _derivatives(lambda rows: generalized_forces(mesh, rows, env), mesh, q)
    # jac[p, i, j] = h_i h_j dQ_i / dq_j over the restoring coordinates
    jac = (dq * h[:, None, None] * h).transpose(1, 2, 0)
    asymmetry = np.abs(jac - jac.transpose(0, 2, 1)).max(axis=(1, 2))
    return float((asymmetry / np.maximum(np.abs(jac).max(axis=(1, 2)), 1e-300)).max())


def planar_invariance_residual(mesh: HullMesh, poses, rng) -> float:
    """Worst change of the submerged integrals from the body frame to the
    fixed frame, relative to the hull.

    Each pose gets random surge and sway of up to two hull diameters and
    random yaw, and the mesh is moved by the pose's whole rigid motion,
    ``x -> R x + (xi, eta, zeta)``, then integrated at the rest pose.
    The volume, the depth integral and the waterplane area must not
    change, and the first moments must be
    ``R first + V (xi, eta, zeta)``; with the diameter ``d``, the
    differences are divided by ``d^3``, ``d^4``, ``d^2`` and ``d^4``.  The
    body frame never sees surge, sway or yaw, so a wrong attitude
    convention in the depth function shows here and nowhere else.
    """
    d = mesh.diameter
    worst = 0.0
    for pose in poses:
        moved = pose.replace(
            xi=pose.xi + rng.uniform(-2, 2) * d,
            eta=pose.eta + rng.uniform(-2, 2) * d,
            psi=pose.psi + rng.uniform(-3, 3),
        )
        body = evaluate(mesh, moved)
        r = rotation_matrix(moved)
        t = np.array([moved.xi, moved.eta, moved.zeta])
        fixed = evaluate(HullMesh(mesh.vertices @ r.T + t, mesh.triangles), Pose())
        worst = max(
            worst,
            abs(fixed.volume - body.volume) / d**3,
            abs(fixed.depth_integral - body.depth_integral) / d**4,
            abs(fixed.cap_area - body.cap_area) / d**2,
            np.abs(fixed.first - (r @ body.first + body.volume * t)).max() / d**4,
        )
    return float(worst)


#: the checks of the standard suite, in order, each with the largest
#: residual that passes
TOLERANCES = {
    "loop_work": 1e-6,
    "gradient": 1e-5,
    "gradient_symmetry": 1e-8,
    "planar_invariance": 1e-12,
}


def run_verification(
    mesh: HullMesh,
    env: FluidEnvironment,
    seed: int = 0,
    n_poses: int = 25,
    n_loops: int = 5,
) -> dict:
    """Worst residual of each check of the standard suite on one mesh,
    under the keys of :data:`TOLERANCES`."""
    rng = np.random.default_rng(seed)
    poses = random_partial_poses(mesh, n_poses, rng)
    return {
        "loop_work": loop_work_residual(mesh, env, rng, n_loops=n_loops),
        "gradient": gradient_residual(mesh, env, poses),
        "gradient_symmetry": gradient_symmetry_residual(mesh, env, poses),
        "planar_invariance": planar_invariance_residual(mesh, poses, rng),
    }
