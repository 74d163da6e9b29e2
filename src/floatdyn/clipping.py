"""Integrate the submerged part of a hull mesh and clip it for export.

Everything happens in body coordinates: at pose ``q`` the free surface is
the plane ``zeta + k3 . x = 0`` with ``k3`` the fixed down axis in body
components, and a point is submerged when its depth ``d = zeta + k3 . x``
is positive.  Working in the body frame keeps every integral (volume,
buoyancy center, waterplane moments) natively in body axes and avoids
transforming the mesh for each pose.

:func:`evaluate` computes all the integrals of one pose from the wetted
hull faces alone.  The depth vanishes on the waterplane, so the divergence
theorem turns the volume, ``integral of d dV`` and the first moments into
sums over the wetted faces, and closure of the submerged boundary
(``sum of f n dS = integral of grad f dV`` for ``f = 1, x_i, x_i x_j``)
gives the waterplane area, first and second moments without building the
waterplane itself (Mirtich, "Fast and Accurate Computation of Polyhedral
Mass Properties", JGT 1996).  Fully wetted faces are summed from a
per-face moment table built once per mesh; each face crossing the surface
adds its wet corner triangle or subtracts its dry one.  Nothing assumes
convexity, and any waterline topology, a vertex exactly on the plane
included, integrates without special cases.  :func:`evaluate_many` does
the same for stacked poses, bit for bit; it pays off where many poses
are known at once (the verification suites, the energy pass of a
trajectory), while the callers that need one pose at a time keep the
cheaper single-pose :func:`evaluate`.

:func:`clip_by_waterplane` builds the submerged boundary explicitly, the
clipped hull triangles plus one planar cap polygon per waterline loop,
for ``floatdyn clip`` STL export; the tests use it as an independent
oracle for :func:`evaluate`.  Loops of either orientation (holes),
several loops (catamaran sections) and loops touching at a vertex on the
plane (split into simple loops) are supported; it never raises for a
validated mesh.  Waterline crossing points are computed per mesh edge in
canonical index order, so the two triangles sharing an edge agree
bitwise and the cap segments match up by key.

Both routes share the snap rule: vertex depths within
:data:`DEFAULT_SNAP_FRACTION` of the mesh diameter from zero are snapped
to exactly zero and triangles are then classified by their sign pattern,
so coplanar faces (flat-bottomed barges, decks awash) give clean
waterplanes instead of sliver geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kinematics import Pose, k3_body
from .mesh import HullMesh, _volume_integrals, triangle_moments
from .polygons import fan_triangles, planar_moments_3d


#: fraction of the mesh diameter below which a vertex depth is treated as zero
DEFAULT_SNAP_FRACTION = 1e-10


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

    def depth_of(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return self.plane_offset + points @ self.plane_normal


def _snapped_depths(mesh, offset, normal):
    """Vertex depths with those within the snap distance of the plane set
    to zero."""
    depths = offset + mesh.vertices @ normal
    depths[np.abs(depths) < DEFAULT_SNAP_FRACTION * mesh.diameter] = 0.0
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
    """Shift raw waterplane moments to the projection of ``ref_point``."""
    if area == 0.0:
        return WaterplaneProperties(0.0, np.zeros(2), np.zeros((3, 3)))
    ref = np.asarray(ref_point, dtype=float)
    proj = ref - (offset + ref @ normal) * normal
    offset3 = first / area - proj
    shifted = (
        second
        - np.outer(first, proj)
        - np.outer(proj, first)
        + area * np.outer(proj, proj)
    )
    return WaterplaneProperties(float(area), offset3[:2].copy(), shifted)


@dataclass(frozen=True)
class SubmergedIntegrals:
    """Integrals of the submerged region at one pose, body coordinates.

    ``volume``, ``first`` (integral of ``x``) and ``depth_integral``
    (integral of the depth ``plane_offset + plane_normal . x``) are taken
    over the submerged volume.  ``cap_area``, ``cap_first`` and
    ``cap_second`` are the raw waterplane moments about the body origin
    (area, integral of ``x``, integral of ``x x^T``), the same numbers
    :func:`cap_raw_moments` returns for the clipped solid; they are exact
    zeros when no waterline exists.  ``wetted_area_vector`` is the
    integral of the outward normal over the wetted hull surface; closure
    puts it along ``plane_normal`` on a watertight mesh, which the tests
    check (nothing checks it at run time).
    """

    plane_normal: np.ndarray
    plane_offset: float
    volume: float
    first: np.ndarray
    depth_integral: float
    cap_area: float
    cap_first: np.ndarray
    cap_second: np.ndarray
    wetted_area_vector: np.ndarray

    def waterplane(self) -> WaterplaneProperties:
        """Waterplane properties about the body origin projected onto the
        plane, as :func:`waterplane_properties` gives them for the clipped
        solid."""
        return _waterplane_about(
            self.cap_area, self.cap_first, self.cap_second,
            self.plane_normal, self.plane_offset, np.zeros(3),
        )


#: corner orders putting the lone vertex first: the face's own winding
#: (rows 0-2) and the reversed one (rows 3-5), which negates the moments
_LONE_FIRST = np.array(
    [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1], [1, 0, 2], [2, 1, 0]]
)

def evaluate(mesh: HullMesh, pose: Pose) -> SubmergedIntegrals:
    """Submerged-volume and waterplane integrals from the wetted faces.

    Faces with no dry vertex contribute their row of
    :attr:`HullMesh.face_moments`.  A face crossing the surface has one
    vertex alone on its side: a lone wet vertex contributes the wet
    triangle it spans with the two edge crossings, a lone dry vertex
    the negated dry triangle, subtracted from the face's full row.
    Faces lying in the plane are left out, like any dry face; the
    waterplane re-covers them.  Only ``zeta``, ``theta`` and ``phi``
    enter.  Never raises for a validated mesh.
    """
    normal = k3_body(pose)
    zeta = pose.zeta
    depths = _snapped_depths(mesh, zeta, normal)
    if not (depths > 0.0).any():
        return SubmergedIntegrals(
            normal, zeta, 0.0, np.zeros(3), 0.0,
            0.0, np.zeros(3), np.zeros((3, 3)), np.zeros(3),
        )

    tri_d = depths[mesh.triangles]
    wet = tri_d > 0.0
    dry = tri_d < 0.0
    # column adds on int8 views: a boolean sum(axis=1) is about 8x slower
    # on 65k rows
    wet8, dry8 = wet.view(np.int8), dry.view(np.int8)
    n_wet = wet8[:, 0] + wet8[:, 1] + wet8[:, 2]
    n_dry = dry8[:, 0] + dry8[:, 1] + dry8[:, 2]
    # whole rows: no dry vertex, or two wet vertices and a dry tip
    whole = n_wet > n_dry
    # a product, not a sum over the selected rows: no copy of the table
    totals = whole.astype(float) @ mesh.face_moments
    crossed = (n_wet > 0) & (n_dry > 0)
    if crossed.any():
        faces = np.flatnonzero(crossed)
        minus = whole[faces]
        lone = np.where(minus[:, None], dry[faces], wet[faces]).argmax(axis=1)
        order = _LONE_FIRST[lone + 3 * minus]
        corners = mesh.triangles[faces[:, None], order]
        # the tip triangle: the lone vertex and the crossings on its two edges
        tips = mesh.vertices[corners]
        corner_d = depths[corners]
        lone_d = corner_d[:, :1]
        t = lone_d / (lone_d - corner_d[:, 1:])
        apex = tips[:, :1]
        tips[:, 1:] = apex + t[:, :, None] * (tips[:, 1:] - apex)
        totals = totals + triangle_moments(tips).sum(axis=0)
        has_waterline = True
    else:
        # a wetted face with two vertices on the plane has a waterline edge
        has_waterline = bool((whole & (n_wet == 1)).any())

    # contract every normal index with k: area, then (N1 k)_i, then (N2 k)_ij
    projected = totals.reshape(13, 3) @ normal
    area = projected[0]
    n1k = projected[1:4]
    n2k = projected[4:].reshape(3, 3)
    n2kk = n2k @ normal
    kn1k = normal @ n1k
    # depth vanishes on the waterplane, so the wetted faces carry
    # V = sum d (k.n) dS, integral of d dV = 1/2 sum d^2 (k.n) dS and
    # integral of x dV = sum x d (k.n) dS - k integral of d dV
    volume = float(zeta * area + kn1k)
    depth_integral = float(0.5 * (zeta * (zeta * area + 2.0 * kn1k) + normal @ n2kk))
    first = zeta * n1k + n2kk - depth_integral * normal
    if not has_waterline:
        cap_area, cap_first, cap_second = 0.0, np.zeros(3), np.zeros((3, 3))
    else:
        # closure, with the waterplane's outward normal -k
        cap_area = float(area)
        cap_first = n1k - volume * normal
        cross = np.outer(normal, first)
        cap_second = n2k - (cross + cross.T)
    if volume < 0.0:
        # roundoff on slivers
        volume = 0.0
    return SubmergedIntegrals(
        normal, zeta, volume, first, depth_integral,
        cap_area, cap_first, cap_second, totals[:3],
    )


#: poses per pass of :func:`evaluate_many`; bounds its temporaries to a few
#: pose-by-face arrays of this many rows
EVALUATE_CHUNK = 32


def evaluate_many(mesh: HullMesh, zeta, k3) -> SubmergedIntegrals:
    """:func:`evaluate` for stacked poses, one row per pose.

    ``zeta`` holds ``n`` drafts and ``k3`` the matching ``(n, 3)`` down
    axes in body components (the bits :func:`k3_body` gives).  Returns
    a :class:`SubmergedIntegrals` whose fields carry a leading pose
    axis; row ``i`` of every field equals the field of :func:`evaluate`
    at pose ``i`` bitwise.  Each scalar contraction of :func:`evaluate`
    is mirrored by a stacked matmul, and the tip-triangle rows of the
    poses sharing a crossed-face count are summed in one reduction.
    Poses go through in chunks of :data:`EVALUATE_CHUNK`.
    """
    zeta = np.asarray(zeta, dtype=float)
    k3 = np.asarray(k3, dtype=float).reshape(-1, 3)
    n = len(zeta)
    out = SubmergedIntegrals(
        k3, zeta, np.zeros(n), np.zeros((n, 3)), np.zeros(n),
        np.zeros(n), np.zeros((n, 3)), np.zeros((n, 3, 3)), np.zeros((n, 3)),
    )
    for start in range(0, n, EVALUATE_CHUNK):
        _evaluate_chunk(mesh, out, slice(start, start + EVALUATE_CHUNK))
    return out


def _evaluate_chunk(mesh, out, rows):
    """Fill ``rows`` of the batch ``out`` as :func:`evaluate` would."""
    zeta, normal = out.plane_offset[rows], out.plane_normal[rows]
    c = len(zeta)
    depths = zeta[:, None] + (mesh.vertices @ normal[:, :, None])[:, :, 0]
    depths[np.abs(depths) < DEFAULT_SNAP_FRACTION * mesh.diameter] = 0.0
    # fully emerged rows keep the exact zeros they start with
    live = (depths > 0.0).any(axis=1)
    if not live.all():
        rows = np.arange(rows.start, rows.start + c)[live]
        zeta, normal, depths = zeta[live], normal[live], depths[live]
        c = len(zeta)
        if c == 0:
            return

    tri_d = depths[:, mesh.triangles]
    wet = tri_d > 0.0
    dry = tri_d < 0.0
    wet8, dry8 = wet.view(np.int8), dry.view(np.int8)
    n_wet = wet8[:, :, 0] + wet8[:, :, 1] + wet8[:, :, 2]
    n_dry = dry8[:, :, 0] + dry8[:, :, 1] + dry8[:, :, 2]
    whole = n_wet > n_dry
    totals = (whole.astype(float)[:, None, :] @ mesh.face_moments)[:, 0]
    crossed = (n_wet > 0) & (n_dry > 0)
    pose, faces = np.nonzero(crossed)
    counts = np.bincount(pose, minlength=c)
    if len(faces):
        minus = whole[pose, faces]
        lone = np.where(
            minus[:, None], dry[pose, faces], wet[pose, faces]
        ).argmax(axis=1)
        order = _LONE_FIRST[lone + 3 * minus]
        corners = mesh.triangles[faces[:, None], order]
        tips = mesh.vertices[corners]
        corner_d = depths[pose[:, None], corners]
        lone_d = corner_d[:, :1]
        t = lone_d / (lone_d - corner_d[:, 1:])
        apex = tips[:, :1]
        tips[:, 1:] = apex + t[:, :, None] * (tips[:, 1:] - apex)
        moments = triangle_moments(tips)
        # each pose's rows are contiguous; poses with the same count k sum
        # theirs in one (g, k, 39) reduction, in the order evaluate does
        first_row = np.cumsum(counts) - counts
        for k in np.flatnonzero(np.bincount(counts)[1:]) + 1:
            group = np.flatnonzero(counts == k)
            picked = moments[first_row[group, None] + np.arange(k)]
            totals[group] = totals[group] + picked.sum(axis=1)
    has_waterline = (counts > 0) | (whole & (n_wet == 1)).any(axis=1)

    k_col = normal[:, :, None]
    projected = (totals.reshape(c, 13, 3) @ k_col)[:, :, 0]
    area = projected[:, 0]
    n1k = projected[:, 1:4]
    n2k = projected[:, 4:].reshape(c, 3, 3)
    n2kk = (n2k @ k_col)[:, :, 0]
    kn1k = (normal[:, None, :] @ n1k[:, :, None])[:, 0, 0]
    k_n2kk = (normal[:, None, :] @ n2kk[:, :, None])[:, 0, 0]
    volume = zeta * area + kn1k
    depth_integral = 0.5 * (zeta * (zeta * area + 2.0 * kn1k) + k_n2kk)
    first = zeta[:, None] * n1k + n2kk - depth_integral[:, None] * normal
    cross = normal[:, :, None] * first[:, None, :]
    out.cap_area[rows] = np.where(has_waterline, area, 0.0)
    out.cap_first[rows] = np.where(
        has_waterline[:, None], n1k - volume[:, None] * normal, 0.0
    )
    out.cap_second[rows] = np.where(
        has_waterline[:, None, None], n2k - (cross + cross.transpose(0, 2, 1)), 0.0
    )
    out.volume[rows] = np.where(volume < 0.0, 0.0, volume)
    out.first[rows] = first
    out.depth_integral[rows] = depth_integral
    out.wetted_area_vector[rows] = totals[:, :3]
