"""Exact area, centroid and second-moment integrals of planar polygons.

Two families of kernels live here:

* closed-form shoelace sums for simple polygons given as 2D vertex
  loops, used directly and as the reference the clipper's cap integrals
  are tested against;
* signed fan decompositions of planar loops embedded in 3D, which stay
  exact for non-convex loops because overlapping fan triangles carry
  signed areas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SelfIntersecting


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
    """Shoelace-family moments of a 2D polygon, assumed simple (unchecked).

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


def triangulate_simple_polygon(vertices) -> np.ndarray:
    """Ear-clip a simple 2D polygon into (m, 3) index triples.

    Used where genuine non-overlapping triangles are required (surface
    export, polygonal mesh faces); integration paths use signed fans
    instead.  Raises :class:`SelfIntersecting` if no ear can be found,
    which for a simple polygon only happens on degenerate input.
    """
    pts = np.asarray(vertices, dtype=float)
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 vertices")
    if n == 3:
        return np.array([[0, 1, 2]])

    signed = polygon_moments(pts).area
    order = list(range(n)) if signed >= 0 else list(range(n))[::-1]

    def is_ear(idx_prev, idx_cur, idx_nxt, remaining):
        a, b, c = pts[idx_prev], pts[idx_cur], pts[idx_nxt]
        area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if area2 <= 0:
            return False
        for k in remaining:
            if k in (idx_prev, idx_cur, idx_nxt):
                continue
            if _point_in_triangle(pts[k], a, b, c):
                return False
        return True

    triangles = []
    guard = 0
    while len(order) > 3:
        guard += 1
        if guard > 2 * n * n:
            raise SelfIntersecting("ear clipping failed; polygon degenerate")
        m = len(order)
        clipped = False
        for i in range(m):
            ip, ic, inx = order[i - 1], order[i], order[(i + 1) % m]
            if is_ear(ip, ic, inx, order):
                triangles.append((ip, ic, inx))
                order.pop(i)
                clipped = True
                break
        if not clipped:
            raise SelfIntersecting("no ear found; polygon not simple")
    triangles.append(tuple(order))
    return np.array(triangles, dtype=int)


def _point_in_triangle(p, a, b, c) -> bool:
    d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
    d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
    has_neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
    has_pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (has_neg and has_pos)
