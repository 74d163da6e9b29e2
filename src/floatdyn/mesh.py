"""Watertight hull meshes: validation, exact volume integrals, file I/O.

A :class:`HullMesh` is a triangle surface in body coordinates (meters)
whose triangles wind counter-clockwise seen from outside.  Validation
enforces the invariants every downstream algorithm relies on: each edge
shared by exactly two triangles with opposite traversal, strictly
positive enclosed volume, no face of area ``1e-12 * diameter**2`` or less,
a diameter within :data:`DIAMETER_RANGE` and a bounding-box centre at most
:data:`MAX_OFFSET` diameters from the origin.

Volume, centroid and inertia integrals use the signed-tetrahedron
decomposition against the origin, which is exact for polyhedral
boundaries.
"""

from __future__ import annotations

import struct
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EmptyMesh, InvalidMesh, NonWatertightMesh
from .polygons import triangulate_simple_polygon

#: default ray direction for point containment tests; fixed irrationalish
#: components dodge edge-aligned degeneracies on axis-aligned meshes
_RAY_DIRECTION = np.array([0.540302305868, 0.173648177667, 0.823411951498])

#: HullMesh validation: the minimum triangle area relative to the squared
#: diameter
_AREA_TOL = 1e-12
#: HullMesh validation: the accepted diameters in meters, ten decades
#: inside the scales where a scale sweep of the barge and the jittered
#: L-prism first failed (the inertia underflows near 1e-64, the modal
#: solve overflows near 1e26)
DIAMETER_RANGE = (1e-50, 1e15)
#: HullMesh validation: the largest distance of the bounding-box centre
#: from the origin, in diameters.  The integrals are taken about the
#: origin, so their roundoff grows with this ratio; past about 3e3 the
#: inertia of both hulls stops being positive definite.
MAX_OFFSET = 1e3


class HullMesh:
    """Validated, immutable watertight triangle mesh in body coordinates.

    Parameters
    ----------
    vertices : (n, 3) array_like
        Vertex positions, meters.
    triangles : (m, 3) array_like of int
        Vertex index triples, counter-clockwise seen from outside.
    """

    def __init__(self, vertices, triangles):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise InvalidMesh("vertices must be an (n, 3) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise InvalidMesh("triangles must be an (m, 3) index array")
        if len(triangles) == 0:
            raise EmptyMesh("mesh has no triangles")
        if not np.all(np.isfinite(vertices)):
            raise InvalidMesh("non-finite vertex coordinates")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise InvalidMesh("triangle index out of range")

        self.vertices = vertices
        self.triangles = triangles
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)

        bbox_min = vertices.min(axis=0)
        bbox_max = vertices.max(axis=0)
        self.bbox = (bbox_min, bbox_max)
        low, high = DIAMETER_RANGE
        reach = max(-bbox_min.min(), bbox_max.max())
        if reach > (MAX_OFFSET + 1.0) * high:  # so the diameter's squares cannot overflow
            raise InvalidMesh(f"mesh coordinates reach {reach:.3g} m, past the supported "
                              f"scale [{low:g}, {high:g}] m and offset {MAX_OFFSET:g} diameters")
        self.diameter = float(np.linalg.norm(bbox_max - bbox_min))
        self.height = float(bbox_max[2] - bbox_min[2])
        if not low <= self.diameter <= high:
            raise InvalidMesh(f"mesh diameter {self.diameter:.3g} m is outside the "
                              f"supported scale [{low:g}, {high:g}] m")
        offset = float(np.linalg.norm(bbox_min + bbox_max)) / (2.0 * self.diameter)
        if offset > MAX_OFFSET:
            raise InvalidMesh(f"mesh offset {offset:.3g} diameters from its origin is more than "
                              f"{MAX_OFFSET:g}: move the mesh near its origin")

        self._tri_vertices = vertices[triangles]
        self._tri_vertices.setflags(write=False)
        # (pose key, integrals) of the last pose clipping.evaluate integrated
        self._last_evaluation = None

        self._validate()

        v6 = _signed_det(self._tri_vertices)
        self.volume = float(v6.sum() / 6.0)
        if self.volume <= 0.0:
            raise InvalidMesh(
                f"signed enclosed volume {self.volume} not positive; "
                "check triangle orientation"
            )
        s = self._tri_vertices.sum(axis=1)
        self.volume_centroid = (v6[:, None] * s).sum(axis=0) / 24.0 / self.volume
        self.volume_centroid.setflags(write=False)

    # -- construction helpers -------------------------------------------------

    def translated(self, offset) -> "HullMesh":
        """Copy of the mesh with all vertices shifted by ``offset``."""
        return HullMesh(self.vertices + np.asarray(offset, dtype=float), self.triangles)

    @property
    def triangle_vertices(self) -> np.ndarray:
        """Triangle corner positions, shape (m, 3, 3)."""
        return self._tri_vertices

    @cached_property
    def face_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Normals and surface weights of each face, built on first use.

        ``normals`` (m, 3) holds twice each face's area times its outward
        unit normal, ``weights`` (m, 13) the rows of
        :func:`surface_weights`.  The waterplane evaluator contracts both
        with the down axis for every fully wetted face.
        """
        p, q, r = (self._tri_vertices[:, k] for k in range(3))
        normals = np.cross(q - p, r - p)
        weights = surface_weights(self._tri_vertices)
        normals.setflags(write=False)
        weights.setflags(write=False)
        return normals, weights

    # -- validation ------------------------------------------------------------

    def _validate(self):
        tri = self.triangles
        if np.any((tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]) | (tri[:, 2] == tri[:, 0])):
            raise InvalidMesh("triangle with repeated vertex index")

        p, q, r = (self._tri_vertices[:, k] for k in range(3))
        areas = 0.5 * np.linalg.norm(np.cross(q - p, r - p), axis=1)
        if np.any(areas <= _AREA_TOL * self.diameter**2):
            bad = int(np.argmin(areas))
            raise InvalidMesh(f"degenerate triangle {bad} with area {areas[bad]:.3e}")

        _check_edges(tri, len(self.vertices))

    # -- integrals ---------------------------------------------------------------

    def volume_integrals(self):
        """Exact volume, first and second moments about the body origin.

        Returns ``(V, first, second)`` with ``first_i = integral of x_i``
        and ``second_ij = integral of x_i x_j`` over the enclosed solid.
        """
        return _volume_integrals(self._tri_vertices)


def _check_edges(tri, n_vertices):
    """Raise unless each directed edge occurs once and has its reverse.

    Edges are taken in the order ``(0, 1)`` of every triangle, then
    ``(1, 2)``, then ``(2, 0)``, each encoded as the int64
    ``i * n_vertices + j``; one stable sort finds the repeated codes and
    a search of the sorted codes the missing reverses.  The edge named
    in a message is the first offending one in that order.
    """
    edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    codes = edges[:, 0] * n_vertices + edges[:, 1]
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    # the later members of each run of equal codes are the repeats
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    if len(repeats):
        i, j = edges[repeats.min()].tolist()
        raise NonWatertightMesh(f"directed edge {(i, j)} appears twice")
    reverse = edges[:, 1] * n_vertices + edges[:, 0]
    found = ranked[np.minimum(np.searchsorted(ranked, reverse), len(ranked) - 1)]
    missing = np.flatnonzero(found != reverse)
    if len(missing):
        i, j = edges[missing[0]].tolist()
        raise NonWatertightMesh(f"edge ({i}, {j}) has no opposite partner")


def check_shells(mesh: HullMesh):
    """Raise :class:`InvalidMesh` if a vertex of one shell of ``mesh`` (the
    triangles connected through shared vertices) lies inside another.

    Overlapping shells count their common volume twice, and a shell
    inside another (an inward-wound cavity) takes its volume off the
    hull's.  Disjoint shells, such as a catamaran's hulls, pass; shells
    that cross with no vertex inside each other are not caught.  Shells
    come from hooking and pointer jumping (Shiloach and Vishkin): each
    round points the root of every edge's tail at the head's root where
    that is smaller, then every vertex at its root, until both ends of
    every edge share one.  Only the vertices inside another shell's
    bounding box are ray cast against it.
    """
    label = np.arange(len(mesh.vertices))
    # a watertight mesh holds every edge in both directions
    tails = mesh.triangles.ravel()
    heads = np.concatenate((mesh.triangles[:, 1:], mesh.triangles[:, :1]), axis=1).ravel()
    while not ((roots := label[tails]) == label[heads]).all():
        np.minimum.at(label, roots, label[heads])
        while not ((jumped := label[label]) == label).all():
            label = jumped
    shell = label[mesh.triangles[:, 0]]
    # not np.unique, which loads numpy.ma (over a megabyte)
    roots = np.flatnonzero(np.bincount(shell))
    for inner in roots:
        points = np.flatnonzero(label == inner)
        for outer in roots[roots != inner]:
            faces = mesh.triangle_vertices[shell == outer]
            near = points[np.all((mesh.vertices[points] >= faces.min(axis=(0, 1)))
                                 & (mesh.vertices[points] <= faces.max(axis=(0, 1))), axis=1)]
            # batches of about a million point-face pairs
            for batch in np.array_split(near, 1 + len(near) * len(faces) // 10**6):
                inside = _ray_parity(mesh.vertices[batch], faces, _RAY_DIRECTION)
                if inside.any():
                    raise InvalidMesh(
                        f"overlapping shells: vertex {batch[inside][0]} of the shell of "
                        f"vertex {inner} lies inside the shell of vertex {outer}"
                    )


def _signed_det(tris) -> np.ndarray:
    """6x the signed tetra volumes (origin, p, q, r) per triangle."""
    p, q, r = tris[:, 0], tris[:, 1], tris[:, 2]
    return np.einsum("ij,ij->i", p, np.cross(q, r))


def surface_weights(tris) -> np.ndarray:
    """Surface weights of each triangle, shape (m, 13).

    With ``n`` twice the triangle's area times its outward unit normal,
    the integrals of ``1``, ``x_i`` and ``x_i x_j`` times the unit normal
    over triangle ``t`` are ``w[t, a] n`` for ``a = 0``, ``1 + i`` and
    ``4 + 3 i + j``: ``1/2``, ``s_i / 6`` and ``(sum_v v_i v_j + s_i s_j) / 24``
    with ``s`` the corner sum, whatever the winding.
    """
    s = tris.sum(axis=1)
    m = len(tris)
    corners = np.concatenate((tris, s[:, None]), axis=1)
    weights = np.empty((m, 13))
    weights[:, 0] = 0.5
    weights[:, 1:4] = s / 6.0
    weights[:, 4:] = (corners.transpose(0, 2, 1) @ corners).reshape(m, 9) / 24.0
    return weights


def _volume_integrals(tris):
    v6 = _signed_det(tris)
    volume = v6.sum() / 6.0
    s = tris.sum(axis=1)
    first = (v6[:, None] * s).sum(axis=0) / 24.0
    # integral of x_i x_j over the tetra (0,p,q,r): V/20 (sum_v v_i v_j + s_i s_j)
    outer = np.einsum("tki,tkj->tij", tris, tris) + np.einsum("ti,tj->tij", s, s)
    second = np.einsum("t,tij->ij", v6 / 6.0, outer) / 20.0
    return float(volume), first, second


def _ray_parity(points, tris, direction):
    """Count ray-triangle crossings per point, return odd-parity mask."""
    eps = 1e-13
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    h = np.cross(direction, e2)
    a = np.einsum("tj,tj->t", e1, h)
    ok = np.abs(a) > eps
    f = np.zeros_like(a)
    f[ok] = 1.0 / a[ok]

    s = points[:, None, :] - tris[None, :, 0, :]
    u = f[None, :] * np.einsum("ptj,tj->pt", s, h)
    qv = np.cross(s, e1[None, :, :])
    v = f[None, :] * np.einsum("ptj,j->pt", qv, direction)
    t = f[None, :] * np.einsum("ptj,tj->pt", qv, e2)
    hits = ok[None, :] & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > eps)
    return hits.sum(axis=1) % 2 == 1


def inertia_from_mesh(mesh: HullMesh, density: float):
    """Mass and inertia tensor of the uniform solid bounded by the mesh.

    Returns ``(mass, inertia)`` with the inertia taken about the volume
    centroid in body axes; place G at the centroid when using it.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    volume, first, second = mesh.volume_integrals()
    centroid = first / volume
    # parallel-axis shift of the raw origin moments to the centroid
    second_c = second - volume * np.outer(centroid, centroid)
    trace = np.trace(second_c)
    inertia = density * (trace * np.eye(3) - second_c)
    mass = density * volume
    return mass, inertia


# -- file ingestion ---------------------------------------------------------------


def load_mesh(path) -> HullMesh:
    """Load an STL or OBJ file, dispatching on the extension."""
    path = Path(path)
    ext = path.suffix.lower()
    if ext == ".stl":
        return load_stl(path)
    if ext == ".obj":
        return load_obj(path)
    raise InvalidMesh(f"unsupported mesh format {ext!r} (expected .stl or .obj)")


def load_stl(path) -> HullMesh:
    """Read a binary or ASCII STL file and weld identical vertices."""
    raw = Path(path).read_bytes()
    if len(raw) >= 84:
        (count,) = struct.unpack_from("<I", raw, 80)
        if len(raw) == 84 + 50 * count:
            return _mesh_from_soup(_parse_stl_binary(raw, count))
    text = raw.decode("ascii", "replace")
    return _mesh_from_soup(_parse_stl_ascii(text, path))


def _parse_stl_binary(raw, count):
    data = np.frombuffer(raw[84 : 84 + 50 * count], dtype=np.uint8)
    records = data.reshape(count, 50)
    floats = records[:, :48].copy().view("<f4").reshape(count, 4, 3)
    return floats[:, 1:4, :].astype(float)


def _coordinates(parts, path, number):
    """The coordinates of a ``v`` or ``vertex`` record split into ``parts``."""
    try:
        if len(parts) >= 4:
            return [float(x) for x in parts[1:4]]
    except ValueError:
        pass
    raise InvalidMesh(
        f"{path}, line {number}: expected three coordinates after "
        f"{parts[0]!r}, got {' '.join(parts[1:])!r}"
    )


def _parse_stl_ascii(text, path):
    tris = []
    current = []
    for number, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "vertex":
            current.append(_coordinates(parts, path, number))
        elif parts[0] == "endfacet":
            if len(current) != 3:
                raise InvalidMesh("ASCII STL facet without exactly 3 vertices")
            tris.append(current)
            current = []
    if not tris:
        raise EmptyMesh("no facets found in ASCII STL")
    return np.array(tris, dtype=float)


def _mesh_from_soup(tri_soup):
    """Weld a (m, 3, 3) triangle soup into an indexed mesh by exact equality."""
    flat = tri_soup.reshape(-1, 3)
    vertices, inverse = np.unique(flat, axis=0, return_inverse=True)
    triangles = inverse.reshape(-1, 3)
    return HullMesh(vertices, triangles)


def load_obj(path) -> HullMesh:
    """Read a Wavefront OBJ file (v/f records, polygonal faces allowed)."""
    vertices = []
    faces = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            vertices.append(_coordinates(parts, path, number))
        elif parts[0] == "f":
            try:
                indices = [int(token.split("/")[0]) for token in parts[1:]]
            except ValueError:
                raise InvalidMesh(
                    f"{path}, line {number}: face indices must be integers, "
                    f"got {' '.join(parts[1:])!r}"
                ) from None
            faces.append([i - 1 if i > 0 else len(vertices) + i for i in indices])
    if not vertices or not faces:
        raise EmptyMesh("no geometry found in OBJ file")
    vertices = np.array(vertices, dtype=float)

    triangles = []
    for face in faces:
        if len(face) < 3:
            raise InvalidMesh("OBJ face with fewer than 3 vertices")
        if len(face) == 3:
            triangles.append(face)
            continue
        ring = vertices[face]
        normal = _newell_normal(ring)
        plane = _project_to_plane(ring, normal)
        for a, b, c in triangulate_simple_polygon(plane):
            triangles.append([face[a], face[b], face[c]])
    return HullMesh(vertices, np.array(triangles, dtype=np.int64))


def _newell_normal(ring):
    nxt = np.roll(ring, -1, axis=0)
    n = np.array(
        [
            np.sum((ring[:, 1] - nxt[:, 1]) * (ring[:, 2] + nxt[:, 2])),
            np.sum((ring[:, 2] - nxt[:, 2]) * (ring[:, 0] + nxt[:, 0])),
            np.sum((ring[:, 0] - nxt[:, 0]) * (ring[:, 1] + nxt[:, 1])),
        ]
    )
    norm = np.linalg.norm(n)
    if norm == 0:
        raise InvalidMesh("degenerate polygonal face")
    return n / norm


def _project_to_plane(ring, normal):
    u = np.cross(normal, [1.0, 0.0, 0.0])
    if np.linalg.norm(u) < 1e-12:
        u = np.cross(normal, [0.0, 1.0, 0.0])
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    return np.column_stack([ring @ u, ring @ v])


def save_stl(path, triangles, name: str = "floatdyn"):
    """Write a (m, 3, 3) triangle array (or HullMesh) as a binary STL file.

    Zero-area triangles (cap fans over collinear waterline runs produce
    them) are dropped: they carry no geometry and upset STL viewers.
    """
    if isinstance(triangles, HullMesh):
        triangles = triangles.triangle_vertices
    triangles = np.asarray(triangles, dtype=float)
    p, q, r = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    normals = np.cross(q - p, r - p)
    lengths = np.linalg.norm(normals, axis=1)
    scale = np.abs(triangles).max() if triangles.size else 1.0
    keep = lengths > 1e-14 * max(scale, 1.0) ** 2
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
    Path(path).write_bytes(bytes(blob))
