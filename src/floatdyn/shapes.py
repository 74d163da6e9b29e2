"""Programmatic watertight meshes: boxes, wedges and prisms.

Handy for tests, documentation and quick CLI experiments.  All builders
return validated :class:`~floatdyn.mesh.HullMesh` objects centered the
way the docstring of each function states.
"""

from __future__ import annotations

import numpy as np

from .mesh import HullMesh, _signed_area, triangulate_simple_polygon


def box(lx: float, ly: float, lz: float, center=(0.0, 0.0, 0.0)) -> HullMesh:
    """Axis-aligned box of side lengths (lx, ly, lz) about ``center``."""
    cx, cy, cz = center
    hx, hy, hz = lx / 2.0, ly / 2.0, lz / 2.0
    verts = np.array(
        [
            [cx - hx, cy - hy, cz - hz],
            [cx + hx, cy - hy, cz - hz],
            [cx + hx, cy + hy, cz - hz],
            [cx - hx, cy + hy, cz - hz],
            [cx - hx, cy - hy, cz + hz],
            [cx + hx, cy - hy, cz + hz],
            [cx + hx, cy + hy, cz + hz],
            [cx - hx, cy + hy, cz + hz],
        ]
    )
    # outward CCW winding per face of the unit cube template
    tris = np.array(
        [
            [0, 2, 1], [0, 3, 2],  # bottom plane z = -hz (outward -z)
            [4, 5, 6], [4, 6, 7],  # top plane z = +hz (outward +z)
            [0, 1, 5], [0, 5, 4],  # y = -hy
            [2, 3, 7], [2, 7, 6],  # y = +hy
            [1, 2, 6], [1, 6, 5],  # x = +hx
            [3, 0, 4], [3, 4, 7],  # x = -hx
        ]
    )
    return HullMesh(verts, tris)


def unit_cube() -> HullMesh:
    """Cube of side 1 centered at the origin."""
    return box(1.0, 1.0, 1.0)


def extrude_polygon(section, width: float) -> HullMesh:
    """Prism obtained by extruding a simple (x1, x3) section along x2.

    Parameters
    ----------
    section : (n, 2) array_like
        Simple polygon in the (x1, x3) plane, either winding.
    width : float
        Extrusion length; the prism spans ``x2 in [-width/2, width/2]``.
    """
    section = np.asarray(section, dtype=float)
    if _signed_area(section) < 0:
        section = section[::-1]
    n = len(section)
    w = width / 2.0

    verts = np.empty((2 * n, 3))
    verts[:n, 0] = section[:, 0]
    verts[:n, 1] = -w
    verts[:n, 2] = section[:, 1]
    verts[n:, 0] = section[:, 0]
    verts[n:, 1] = w
    verts[n:, 2] = section[:, 1]

    tris = []
    # section winds CCW in (x1, x3), whose plane normal (x1 cross x3 sense)
    # is -x2; the x2 = -w cap keeps that winding, the +w cap reverses it
    for a, b, c in triangulate_simple_polygon(section):
        tris.append([a, b, c])
        tris.append([n + a, n + c, n + b])
    for i in range(n):
        j = (i + 1) % n
        # wall quad: traversal must oppose the caps along shared edges
        tris.append([j, i, n + i])
        tris.append([j, n + i, n + j])

    return HullMesh(verts, np.array(tris, dtype=np.int64))


def wedge(beam: float, depth: float, length: float) -> HullMesh:
    """Triangular prism: deck of width ``beam``, apex ``depth`` below it
    (at larger x3, since x3 points down).  Centered at the volume centroid.
    """
    section = np.array(
        [
            [-beam / 2.0, 0.0],
            [beam / 2.0, 0.0],
            [0.0, depth],
        ]
    )
    mesh = extrude_polygon(section, length)
    return mesh.translated(-mesh.volume_centroid)


def l_prism(
    outer=(1.0, 1.0),
    notch=(0.5, 0.5),
    length: float = 1.0,
    jitter: float = 0.0,
    seed: int = 0,
) -> HullMesh:
    """Non-convex L-section prism, optionally with jittered vertices.

    The notch is removed from one deep corner of the outer rectangle of
    the (x1, x3) section.  ``jitter`` displaces every vertex by a
    uniform random offset of that amplitude (topology preserved, so the
    mesh stays watertight).
    Centered at the volume centroid.
    """
    ox, oz = outer
    nx, nz = notch
    if not (0 < nx < ox and 0 < nz < oz):
        raise ValueError("notch must be strictly inside the outer rectangle")
    section = np.array(
        [
            [0.0, 0.0],
            [ox, 0.0],
            [ox, oz],
            [ox - nx, oz],
            [ox - nx, oz - nz],
            [0.0, oz - nz],
        ]
    )
    section = section - section.mean(axis=0)
    mesh = extrude_polygon(section, length)
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        verts = mesh.vertices + rng.uniform(-jitter, jitter, mesh.vertices.shape)
        mesh = HullMesh(verts, mesh.triangles)
    return mesh.translated(-mesh.volume_centroid)

