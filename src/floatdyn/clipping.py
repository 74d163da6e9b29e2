"""Integrate the submerged part of a hull mesh and clip it for export.

Everything happens in body coordinates: at pose ``q`` the free surface is
the plane ``zeta + k3 . x = 0`` with ``k3`` the fixed down axis in body
components, and a point is submerged when its depth ``d = zeta + k3 . x``
is positive.  Working in the body frame keeps every integral (volume,
buoyancy center, waterplane moments) natively in body axes and avoids
transforming the mesh for each pose.

:func:`evaluate` computes all the integrals of one pose, and
:func:`evaluate_many` those of stacked poses, from the wetted hull faces
alone, through one kernel that gives a pose the same bits alone or in a
stack.  The depth vanishes on the waterplane, so the divergence theorem
turns the volume, ``integral of d dV`` and the first moments into sums
over the wetted faces, and closure of the submerged boundary
(``sum of f n dS = integral of grad f dV`` for ``f = 1, x_i, x_i x_j``)
gives the waterplane area, first and second moments without building the
waterplane itself (Mirtich, "Fast and Accurate Computation of Polyhedral
Mass Properties", JGT 1996).  Each face's sums enter contracted with the
down axis ``k``: ``n . k`` times 13 weights of its corners, from a table
built once per mesh for whole faces.  One lookup of each face's sign code
(its corner depth signs in base 3) says whether it counts whole and which
corner triangle of a crossed face is added or taken off.  Nothing assumes
convexity, and any waterline topology, a vertex exactly on the plane
included, integrates without special cases.

Each mesh keeps one slot with the last pose :func:`evaluate` integrated,
keyed by the exact bits of ``(zeta, theta, phi)``, so the potential, the
forces and their gradient at one pose come from one kernel run whichever
of them asks first.  The stored result's arrays are read-only, and the
slot is swapped whole, so threads sharing a mesh at worst recompute.
:func:`evaluate_many` keeps no slot; it pays off where many poses are
known at once (the verification suites, the energy pass of a trajectory).

:func:`clip_by_waterplane` builds the submerged boundary explicitly, the
clipped hull triangles plus one planar cap polygon per waterline loop,
for ``floatdyn clip`` STL export; the tests use it as an independent
oracle for :func:`evaluate`.  Loops of either orientation (holes),
several loops (catamaran sections) and loops touching at a vertex on the
plane (split into simple loops) are supported; it never raises for a
validated mesh.  Waterline crossing points are computed per mesh edge in
canonical index order, so the two triangles sharing an edge agree
bitwise and the cap segments match up by key.  Its integrals fan each
loop from its first vertex, exact for non-convex loops by signed areas.

The integrals and the explicit clip share the snap rule: vertex depths
within :attr:`HullMesh.snap_distance` (:data:`DEFAULT_SNAP_FRACTION` of
the mesh diameter) of zero are snapped to exactly zero and triangles are
then classified by their sign pattern, so coplanar faces (flat-bottomed
barges, decks awash) give clean waterplanes instead of sliver geometry.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kinematics import Pose, k3_body
from .mesh import DEFAULT_SNAP_FRACTION, HullMesh, _volume_integrals, surface_weights

#: the exact bits of ``(zeta, theta, phi)``: the key of :func:`evaluate`'s slot
_POSE_KEY = struct.Struct("<3d")
#: the down axis, first moments, cap first and cap second moments of one
#: pose: numpy views the packed bytes read-only, without a copy
_RESULT_ARRAYS = struct.Struct("<18d")


@dataclass(frozen=True)
class SubmergedSolid:
    """Boundary of the submerged region in body coordinates.

    ``hull_triangles`` are the clipped wetted-surface triangles and
    ``cap_polygons`` the waterline loops closing them, wound so their
    outward normal is the *up* direction ``-plane_normal`` (hole loops
    wind the other way).  Each loop is simple: loops touching at a
    point come as separate loops sharing it.
    ``depth(x) = plane_offset + plane_normal . x`` is positive on the
    submerged side.
    """

    hull_triangles: np.ndarray
    cap_polygons: list[np.ndarray] = field(default_factory=list)
    plane_normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    plane_offset: float = 0.0

    def __post_init__(self):
        # instances may be shared across threads; freeze the geometry
        for arr in (self.hull_triangles, self.plane_normal, *self.cap_polygons):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    @property
    def is_empty(self) -> bool:
        return len(self.hull_triangles) == 0 and not self.cap_polygons

    @cached_property
    def _boundary_triangles(self) -> np.ndarray:
        parts = [self.hull_triangles.reshape(-1, 3, 3)]
        for loop in self.cap_polygons:
            parts.append(fan_triangles(loop))
        return np.concatenate(parts)

    def boundary_triangles(self) -> np.ndarray:
        """Hull triangles plus fanned cap triangles: the closed boundary."""
        return self._boundary_triangles


def _snapped_depths(mesh, offset, normal):
    """Vertex depths with those within the snap distance of the plane set
    to zero, for one plane (a float ``offset`` and a ``(3,)`` ``normal``) or
    stacked planes (an ``(n, 1)`` column and ``(n, 3)``)."""
    depths = offset + (mesh.vertices @ normal[..., None])[..., 0]
    depths[np.abs(depths) < mesh.snap_distance] = 0.0
    return depths


def clip_by_waterplane(mesh: HullMesh, pose: Pose) -> SubmergedSolid:
    """Split the hull at the free surface, keeping the submerged side.

    Parameters
    ----------
    mesh : HullMesh
        Validated watertight hull.
    pose : Pose
        Current configuration; only ``zeta``, ``theta`` and ``phi``
        enter (horizontal position and yaw do not move the plane in
        body coordinates).

    Returns
    -------
    SubmergedSolid
        Empty when fully emerged; the whole mesh with no caps when
        strictly fully submerged.
    """
    normal = k3_body(pose)
    offset = pose.zeta
    depths = _snapped_depths(mesh, offset, normal)
    tri_d = depths[mesh.triangles]
    any_neg = (tri_d < 0.0).any(axis=1)
    any_pos = (tri_d > 0.0).any(axis=1)
    n_zero = (tri_d == 0.0).sum(axis=1)

    # faces with no dry vertex are kept whole; fully coplanar faces are
    # dropped because the cap re-covers that part of the surface
    keep = ~any_neg & (n_zero < 3)
    crossed = any_neg & any_pos

    hull_parts = [mesh.triangle_vertices[keep]]
    # directed waterline segments: (start key, end key) -> start point
    segments: dict[tuple, np.ndarray] = {}

    def add_segment(key_a, key_b, pt_a):
        # opposite duplicates cancel (ridges lying exactly in the plane)
        if (key_b, key_a) in segments:
            del segments[(key_b, key_a)]
        else:
            segments[(key_a, key_b)] = pt_a

    # plane-resident edges of kept faces become cap boundary pieces: the
    # edge after the face's wet vertex
    for ti in np.nonzero(keep & (n_zero == 2))[0]:
        k = int(np.argmax(tri_d[ti] != 0.0))
        i, j = int(mesh.triangles[ti, (k + 1) % 3]), int(mesh.triangles[ti, (k + 2) % 3])
        add_segment(("v", i), ("v", j), mesh.vertices[i])

    verts = mesh.vertices
    extra_tris = []
    for ti in np.nonzero(crossed)[0]:
        idx = mesh.triangles[ti]
        d = tri_d[ti]
        poly_pts, poly_keys, poly_depth = [], [], []
        for k in range(3):
            i, j = int(idx[k]), int(idx[(k + 1) % 3])
            di, dj = d[k], d[(k + 1) % 3]
            if di >= 0.0:
                poly_pts.append(verts[i])
                poly_keys.append(("v", i))
                poly_depth.append(di)
            if di * dj < 0.0:
                # canonical index order makes both adjacent faces agree bitwise
                a, b = min(i, j), max(i, j)
                t = depths[a] / (depths[a] - depths[b])
                poly_pts.append(verts[a] + t * (verts[b] - verts[a]))
                poly_keys.append(("e", a, b))
                poly_depth.append(0.0)
        # a wet vertex, the crossing towards a dry one and the third
        # vertex or its crossing: m >= 3
        m = len(poly_pts)
        for k in range(1, m - 1):
            extra_tris.append((poly_pts[0], poly_pts[k], poly_pts[k + 1]))
        for k in range(m):
            k2 = (k + 1) % m
            if poly_depth[k] == 0.0 and poly_depth[k2] == 0.0:
                add_segment(poly_keys[k], poly_keys[k2], poly_pts[k])

    if extra_tris:
        hull_parts.append(np.array(extra_tris))
    hull = np.concatenate(hull_parts)

    caps = _chain_loops(segments)
    return SubmergedSolid(hull, caps, plane_normal=normal, plane_offset=offset)


def _chain_loops(segments) -> list[np.ndarray]:
    """Split directed plane segments into simple closed loops, cap-oriented.

    The segments are the boundary of the wetted surface, so every
    waterline point has as many segments leaving as arriving, and a walk
    along unused outgoing segments never gets stuck (Hierholzer, Math.
    Ann. 6, 1873).  A point met again closes the cycle walked since its
    first visit, so loops that touch at a point come out as separate
    simple loops and every directed boundary edge has exactly one
    reverse.  Face windings trace each loop counter-clockwise around the
    *down* normal; caps must wind around the up normal, so finished
    loops are reversed.
    """
    outgoing: dict[tuple, list] = {}
    for (ka, kb), pa in segments.items():
        outgoing.setdefault(ka, []).append((kb, pa))

    loops = []
    for start, unused in outgoing.items():
        while unused:
            # the open walk: path[k] is the key of point pts[k]
            path, pts, at = [start], [], {start: 0}
            while True:
                key, pt = outgoing[path[-1]].pop(0)
                pts.append(pt)
                i = at.get(key)
                if i is None:
                    at[key] = len(path)
                    path.append(key)
                    continue
                loops.append(np.array(pts[i:])[::-1])
                for done in path[i + 1:]:
                    del at[done]
                del path[i + 1:], pts[i:]
                if i == 0:
                    break
    return loops


def fan_triangles(loop) -> np.ndarray:
    """Fan decomposition of a loop into (n-2, 3, 3) triangles from vertex 0.

    For a planar loop the signed triangle areas make every downstream
    integral exact even when the loop is non-convex or the fan apex lies
    outside the region.
    """
    loop = np.asarray(loop, dtype=float)
    n = len(loop)
    if n < 3:
        return np.zeros((0, 3, 3))
    tris = np.empty((n - 2, 3, 3))
    tris[:, 0] = loop[0]
    tris[:, 1] = loop[1:-1]
    tris[:, 2] = loop[2:]
    return tris


def planar_moments_3d(loop, normal):
    """Signed area, first and second moments of a planar 3D loop.

    Parameters
    ----------
    loop : (n, 3) array_like
        Loop vertices lying in a common plane.
    normal : (3,) array_like
        Unit normal fixing the sign convention: loops winding
        counter-clockwise around ``normal`` get positive area.

    Returns
    -------
    area : float
        Signed area.
    first : (3,) ndarray
        Integral of the position vector over the region.
    second : (3, 3) ndarray
        Integral of the outer product ``x x^T`` over the region.
    """
    tris = fan_triangles(loop)
    if len(tris) == 0:
        return 0.0, np.zeros(3), np.zeros((3, 3))
    normal = np.asarray(normal, dtype=float)
    p, q, r = tris[:, 0], tris[:, 1], tris[:, 2]
    cross = np.cross(q - p, r - p)
    a = 0.5 * cross @ normal
    s = p + q + r
    area = np.sum(a)
    first = (a[:, None] * s).sum(axis=0) / 3.0
    outer = (
        np.einsum("ti,tj->tij", p, p)
        + np.einsum("ti,tj->tij", q, q)
        + np.einsum("ti,tj->tij", r, r)
        + np.einsum("ti,tj->tij", s, s)
    )
    second = np.einsum("t,tij->ij", a, outer) / 12.0
    return float(area), first, second


def volume_and_first_moments(solid: SubmergedSolid):
    """Volume and first moments of the submerged region, body coordinates.

    Both come from the divergence theorem over the closed boundary
    (hull triangles plus caps).  Returns ``(V, M)`` with ``M_i`` the
    integral of ``x_i``; the buoyancy center is ``M / V`` for positive
    volume.  An empty solid yields exact zeros.
    """
    if solid.is_empty:
        return 0.0, np.zeros(3)
    volume, first, _ = _volume_integrals(solid.boundary_triangles())
    # clamp roundoff on slivers
    return max(volume, 0.0), first


@dataclass(frozen=True)
class WaterplaneProperties:
    """Waterplane area, floating-center offset and second-moment tensor.

    ``centroid_offset`` is the in-plane offset of the area centroid from
    the reference point projected onto the cap plane, reported in body
    axes (first two components).  ``second_moment[i, j]`` integrates
    ``(x - ref_projected)_i (x - ref_projected)_j`` over the waterplane;
    the tensor annihilates the plane normal.
    """

    area: float
    centroid_offset: np.ndarray
    second_moment: np.ndarray

    @property
    def x_c(self) -> float:
        return float(self.centroid_offset[0])

    @property
    def y_c(self) -> float:
        return float(self.centroid_offset[1])


def cap_raw_moments(solid: SubmergedSolid):
    """Signed area, first and second moments of the caps about the origin."""
    up = -solid.plane_normal
    area = 0.0
    first = np.zeros(3)
    second = np.zeros((3, 3))
    for loop in solid.cap_polygons:
        a, f, s = planar_moments_3d(loop, up)
        area += a
        first += f
        second += s
    return area, first, second


def waterplane_properties(
    solid: SubmergedSolid, ref_point=(0.0, 0.0, 0.0)
) -> WaterplaneProperties:
    """Area, floating center and second moments of the waterplane.

    ``ref_point`` (body coordinates, typically the origin G) is
    projected orthogonally onto the cap plane; moments are taken about
    the projection.  With several cap loops the floating center is the
    area-weighted centroid over all of them.  No caps yields zeros.
    """
    return _waterplane_about(
        *cap_raw_moments(solid), solid.plane_normal, solid.plane_offset, ref_point
    )


def _waterplane_about(area, first, second, normal, offset, ref_point):
    """Shift raw waterplane moments to the projection of ``ref_point``, in
    floats; the offset and the shifted moments are views of one array."""
    if area == 0.0:
        return WaterplaneProperties(0.0, np.zeros(2), np.zeros((3, 3)))
    ref, k, first = list(map(float, ref_point)), normal.tolist(), first.tolist()
    depth = offset + _dot(ref, k)
    p = [ref[i] - depth * k[i] for i in (0, 1, 2)]
    second = second.tolist()
    flat = np.array([first[0] / area - p[0], first[1] / area - p[1]] + [
        second[i][j] - first[i] * p[j] - p[i] * first[j] + area * (p[i] * p[j])
        for i in (0, 1, 2) for j in (0, 1, 2)])
    return WaterplaneProperties(float(area), flat[:2], flat[2:].reshape(3, 3))


@dataclass(frozen=True)
class SubmergedIntegrals:
    """Integrals of the submerged region at one pose, body coordinates.

    ``volume``, ``first`` (integral of ``x``) and ``depth_integral``
    (integral of the depth ``plane_offset + plane_normal . x``) are taken
    over the submerged volume.  ``cap_area``, ``cap_first`` and
    ``cap_second`` are the raw waterplane moments about the body origin
    (area, integral of ``x``, integral of ``x x^T``), the same numbers
    :func:`cap_raw_moments` returns for the clipped solid; they are exact
    zeros when no waterline exists.
    """

    plane_normal: np.ndarray
    plane_offset: float
    volume: float
    first: np.ndarray
    depth_integral: float
    cap_area: float
    cap_first: np.ndarray
    cap_second: np.ndarray

    def waterplane(self) -> WaterplaneProperties:
        """Waterplane properties about the body origin projected onto the
        plane, as :func:`waterplane_properties` gives them for the clipped
        solid; the shift runs on floats of the down axis and the moments."""
        return _waterplane_about(
            self.cap_area, self.cap_first, self.cap_second,
            self.plane_normal, self.plane_offset, (0.0, 0.0, 0.0),
        )


def _sign_code_tables():
    """Per face sign code ``s0 + 3 s1 + 9 s2`` (``s_k`` the sign of corner
    ``k``'s depth; a negative code indexes from the end): whether the face
    counts whole (a wet corner and no dry one, or two wet and one dry), the
    sign of its tip triangle (+1 at a lone wet corner, -1 at a lone dry one
    under a whole face, 0 uncrossed), its corners rotated lone corner first
    (the tip keeps the face's winding), and whether it is a wetted face
    with an edge in the plane."""
    whole, tip = np.zeros(27), np.zeros(27)
    order = np.zeros((27, 3), dtype=np.intp)
    plane_edge = np.zeros(27, dtype=bool)
    for signs in itertools.product((-1, 0, 1), repeat=3):
        code = signs[0] + 3 * signs[1] + 9 * signs[2]
        n_wet, n_dry = signs.count(1), signs.count(-1)
        whole[code] = n_wet > n_dry
        if n_wet and n_dry:
            tip[code] = -1.0 if n_wet > n_dry else 1.0
            order[code] = np.roll([0, 1, 2], -signs.index(tip[code]))
        plane_edge[code] = (n_wet, n_dry) == (1, 0)
    return whole, tip, order, plane_edge


_WHOLE, _TIP, _LONE_FIRST, _PLANE_EDGE = _sign_code_tables()
#: per sign code, the rotation of :attr:`HullMesh.corner_rotations` from the lone corner
_LONE = _LONE_FIRST[:, 0]
_PLACES = np.array([1.0, 3.0, 9.0])


def _sign_codes(depths, triangles) -> np.ndarray:
    """Sign code of every face, for the last axis of the vertex depths."""
    return (np.sign(depths).take(triangles, axis=-1) @ _PLACES).astype(np.intp)


def _dot(a, b):
    """``a . b`` for 3-sequences of floats or of equally long arrays."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _finish(zeta, k, projected):
    """Volume, depth integral, first moments and closure's cap moments from
    the wetted-surface integrals of ``n . k`` times ``1``, ``x_i`` and
    ``x_i x_j`` in ``projected``.  The arguments are floats, or arrays with
    one entry per pose: the same operations give :func:`evaluate` and
    :func:`evaluate_many` the same bits."""
    area, n1k, n2k = projected[0], projected[1:4], projected[4:]
    n2kk = [_dot(n2k[3 * i:3 * i + 3], k) for i in range(3)]
    kn1k, k_n2kk = _dot(k, n1k), _dot(k, n2kk)
    # depth vanishes on the waterplane, so the wetted faces carry
    # V = sum d (k.n) dS, integral of d dV = 1/2 sum d^2 (k.n) dS and
    # integral of x dV = sum x d (k.n) dS - k integral of d dV
    volume = zeta * area + kn1k
    depth_integral = 0.5 * (zeta * (zeta * area + 2.0 * kn1k) + k_n2kk)
    first = [zeta * n1k[i] + n2kk[i] - depth_integral * k[i] for i in range(3)]
    # closure, with the waterplane's outward normal -k
    cap_first = [n1k[i] - volume * k[i] for i in range(3)]
    cap_second = [n2k[3 * i + j] - (k[i] * first[j] + k[j] * first[i])
                  for i in range(3) for j in range(3)]
    return volume, depth_integral, first, area, cap_first, cap_second


#: the cap moments of a pose without a waterline, and its first moments when
#: nothing is submerged
_ZEROS = [0.0] * 9


def evaluate(mesh: HullMesh, pose: Pose) -> SubmergedIntegrals:
    """Submerged-volume and waterplane integrals from the wetted faces.

    The mesh remembers the last pose it integrated, in one slot keyed by
    the exact bits of ``(zeta, theta, phi)`` (so ``0.0`` and ``-0.0``
    never share it): a repeat of that pose returns the stored result, any
    other pose runs :func:`_evaluate` and takes the slot.  Every array of
    the result is read-only, so no caller can change what another gets.
    The slot is swapped by one attribute store of a ``(key, result)``
    tuple, so a thread never pairs one pose's key with another's result;
    threads sharing a mesh may only recompute more often.
    """
    key = _POSE_KEY.pack(pose.zeta, pose.theta, pose.phi)
    slot = mesh._last_evaluation
    if slot is not None and slot[0] == key:
        return slot[1]
    integrals = _evaluate(mesh, pose)
    mesh._last_evaluation = (key, integrals)
    return integrals


def _evaluate(mesh: HullMesh, pose: Pose) -> SubmergedIntegrals:
    """:func:`evaluate` without the slot: :func:`_wetted_sums` at the pose,
    finished in floats into views of one read-only buffer, so no caller can
    change what another gets.  Only ``zeta``, ``theta`` and ``phi`` enter.
    Never raises for a validated mesh."""
    normal = k3_body(pose)
    zeta, k = pose.zeta, normal.tolist()
    depths = _snapped_depths(mesh, zeta, normal)
    # argmax finds the deepest vertex faster than max does
    if depths[depths.argmax()] > 0.0:
        projected, has_waterline = _wetted_sums(mesh, depths, normal)
        volume, depth_integral, first, area, cap_first, cap_second = _finish(
            zeta, k, projected.tolist())
    else:  # nothing is wet
        volume, depth_integral, first, has_waterline = 0.0, 0.0, _ZEROS[:3], False
    if not has_waterline:
        area, cap_first, cap_second = 0.0, _ZEROS[:3], _ZEROS
    if volume < 0.0:  # roundoff on slivers
        volume = 0.0
    flat = np.frombuffer(_RESULT_ARRAYS.pack(*k, *first, *cap_first, *cap_second))
    return SubmergedIntegrals(flat[:3], zeta, volume, flat[3:6], depth_integral, area,
                              flat[6:9], flat[9:].reshape(3, 3))


#: pose-by-face entries per pass of :func:`evaluate_many`: larger passes run no
#: faster, and their tip temporaries raise the peak memory (by 6 MB at 2**14)
_EVALUATE_BUDGET = 2**12


def evaluate_many(mesh: HullMesh, zeta, k3) -> SubmergedIntegrals:
    """:func:`evaluate` for stacked poses, one row per pose.

    ``zeta`` holds ``n`` drafts and ``k3`` the matching ``(n, 3)`` down
    axes in body components (the bits :func:`k3_body` gives).  Returns
    a :class:`SubmergedIntegrals` whose fields carry a leading pose
    axis; row ``i`` of every field equals the field of :func:`evaluate`
    at pose ``i`` bitwise: both run :func:`_wetted_sums`, and
    :func:`_finish` runs here on columns.  Poses go through in passes of
    about :data:`_EVALUATE_BUDGET` pose-by-face entries, one pose at least.
    """
    zeta = np.asarray(zeta, dtype=float)
    k3 = np.asarray(k3, dtype=float).reshape(-1, 3)
    n = len(zeta)
    if len(k3) != n:
        raise ValueError(f"{n} drafts but {len(k3)} down axes")
    projected, live, has_waterline = np.zeros((n, 13)), np.zeros(n, bool), np.zeros(n, bool)
    step = max(1, _EVALUATE_BUDGET // len(mesh.triangles))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        depths = _snapped_depths(mesh, zeta[rows, None], k3[rows])
        projected[rows], has_waterline[rows] = _wetted_sums(mesh, depths, k3[rows])
        live[rows] = depths.max(axis=1) > 0.0
    volume, depth_integral, first, area, cap_first, cap_second = _finish(
        zeta, k3.T, projected.T)
    # fully emerged rows get exact zeros, as evaluate gives them
    wet = has_waterline[:, None]
    return SubmergedIntegrals(
        k3, zeta, np.where(live & ~(volume < 0.0), volume, 0.0),
        np.where(live[:, None], np.stack(first, axis=1), 0.0), np.where(live, depth_integral, 0.0),
        np.where(has_waterline, area, 0.0), np.where(wet, np.stack(cap_first, axis=1), 0.0),
        np.where(wet, np.stack(cap_second, axis=1), 0.0).reshape(n, 3, 3),
    )


def _wetted_sums(mesh, depths, normal):
    """The kernel of :func:`evaluate` and :func:`evaluate_many`: the 13
    wetted-surface integrals of ``n . k`` times ``1``, ``x_i`` and
    ``x_i x_j``, and whether a waterline exists, from the snapped vertex
    depths and the down axis of one pose (``(V,)`` and ``(3,)``) or of
    stacked poses (``(n, V)`` and ``(n, 3)``, the pose axis first in the
    results).  Each pose's faces are contracted in one ``(1, F)`` product
    and its tips in one ``(1, k)`` product, so a pose has the same bits
    alone and in a stack.  A fully emerged pose has no wet face and no
    waterline; the callers give it exact zeros.
    """
    normals, weights = mesh.face_table
    codes = _sign_codes(depths, mesh.triangles)
    whole, tip = _WHOLE[codes], _TIP[codes]
    nk = (normals @ normal[..., None])[..., 0]
    projected = ((whole * nk)[..., None, :] @ weights)[..., 0, :]
    # a whole face adds n . k times its face_table weights, a crossed face
    # +-t1 t2 (n . k) times those of its tip triangle (see _sign_code_tables):
    # the lone corner and the crossings at t1 and t2 along its edges.  Faces
    # in the plane are left out, like dry ones; the waterplane re-covers them
    tips = tip.nonzero()
    *rows, faces = tips
    if not len(faces):
        return projected, _PLANE_EDGE[codes].any(axis=-1)
    corners = mesh.corner_rotations[faces, _LONE[codes[tips]]]
    corner_d = depths[(*rows, corners.T)]
    t = corner_d[0] / (corner_d[0] - corner_d[1:])
    tri = mesh.vertices[corners]
    apex = tri[:, :1]
    tri[:, 1:] = apex + t.T[:, :, None] * (tri[:, 1:] - apex)
    coef, tip_weights = tip[tips] * (t[0] * t[1]) * nk[tips], surface_weights(tri)
    if not rows:
        return projected + coef @ tip_weights, True
    # each pose's tips are contiguous; poses with the same count k
    # contract theirs in one stacked (1, k) product
    counts = np.bincount(rows[0], minlength=len(depths))
    first_row = np.cumsum(counts) - counts
    for k in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        group = np.flatnonzero(counts == k)
        picked = first_row[group, None] + np.arange(k)
        summed = coef[picked][:, None, :] @ tip_weights[picked]
        projected[group] = projected[group] + summed[:, 0]
    return projected, (counts > 0) | _PLANE_EDGE[codes].any(axis=1)
