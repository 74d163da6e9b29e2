"""Pose coordinates, rotation matrices and the yaw-pitch-roll chart.

Frame conventions used throughout the package:

* Fixed frame: origin on the free surface, third axis pointing *down*.
  ``zeta`` is the submergence of the mass center G (positive below the
  surface).
* Body frame: origin at G.  The third body axis points into the same
  half-space as the fixed down axis; for port-starboard symmetric hulls
  the plane ``x2 = 0`` is the symmetry plane.
* Orientation: yaw ``psi`` about the down axis, then pitch ``theta``,
  then roll ``phi``.  The rotation matrix maps body components to fixed
  components, ``v_fixed = R @ v_body``, so its rows are the fixed axes
  expressed in body coordinates.

Coordinate order is ``(xi, eta, zeta, psi, theta, phi)`` everywhere; the
``CYCLIC`` indices (surge, sway, yaw) carry no hydrostatic restoring
force, the ``NONCYCLIC`` ones (heave, pitch, roll) do.

One function, :func:`depth_row`, gives the depth row ``k3`` and its pitch
and roll partials as floats, which the generalized forces and the force
gradient contract with the submerged moments; :func:`omega_chart` puts
them in the first columns of the angle-rate map W and its two partials,
which feed the kinetic metric; :func:`depth_rows` stacks them, and
:func:`k3_rows` stacks the depth rows alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GimbalLock

COORD_NAMES = ("xi", "eta", "zeta", "psi", "theta", "phi")
CYCLIC = (0, 1, 3)
NONCYCLIC = (2, 4, 5)

#: pitch range guard for the angle-rate map, radians
GIMBAL_GUARD = 1e-6


@dataclass(frozen=True)
class Pose:
    """Configuration of the body: position of G plus yaw-pitch-roll angles.

    ``zeta`` is positive downward.  Any finite attitude is a pose; only the
    angle-rate map (:func:`omega_map`) refuses the pitch pole ``+-pi/2``.
    """

    xi: float = 0.0
    eta: float = 0.0
    zeta: float = 0.0
    psi: float = 0.0
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        values = (self.xi, self.eta, self.zeta, self.psi, self.theta, self.phi)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"pose coordinates must be finite, got {values}")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.xi, self.eta, self.zeta, self.psi, self.theta, self.phi]
        )

    @classmethod
    def from_array(cls, q) -> "Pose":
        q = np.asarray(q, dtype=float)
        return cls(*q.tolist())

    def replace(self, **kwargs) -> "Pose":
        state = {name: getattr(self, name) for name in COORD_NAMES}
        state.update(kwargs)
        return Pose(**state)


def rotation_matrix(pose: Pose) -> np.ndarray:
    """Body-to-fixed rotation matrix for the pose's yaw-pitch-roll angles.

    The third row is ``(-sin(theta), cos(theta) sin(phi),
    cos(theta) cos(phi))``: the fixed down axis in body components.
    """
    cps, sps = math.cos(pose.psi), math.sin(pose.psi)
    cth, sth = math.cos(pose.theta), math.sin(pose.theta)
    cph, sph = math.cos(pose.phi), math.sin(pose.phi)
    return np.array(
        [
            [cps * cth, cps * sth * sph - sps * cph, cps * sth * cph + sps * sph],
            [sps * cth, sps * sth * sph + cps * cph, sps * sth * cph - cps * sph],
            [-sth, cth * sph, cth * cph],
        ]
    )


def k3_body(pose: Pose) -> np.ndarray:
    """Fixed down axis expressed in body coordinates (unit vector).

    Equals the third row of :func:`rotation_matrix` and is also the
    gradient of the depth function ``zeta + k3 . x`` with respect to the
    body point ``x``.
    """
    return np.array(depth_row(pose.theta, pose.phi)[0])


def depth_row(theta: float, phi: float) -> tuple[tuple[float, ...], ...]:
    """The depth row ``k3`` and its pitch and roll partials at one attitude,
    as tuples of floats: the bits of :func:`k3_body`, of the first columns
    of :func:`omega_chart` and of the rows of :func:`depth_rows`."""
    return _depth_row(math.cos(theta), math.sin(theta), math.cos(phi), math.sin(phi), 0.0)


def _k3(cth, sth, cph, sph):
    """The depth row from the sines and cosines, on floats or on arrays of them."""
    return (-sth, cth * sph, cth * cph)


def _depth_row(cth, sth, cph, sph, zero):
    """The formulas of :func:`depth_row`, on floats or on arrays of them."""
    return _k3(cth, sth, cph, sph), (-cth, -sth * sph, -sth * cph), (zero, cth * cph, -cth * sph)


def _trig(theta, phi) -> list[np.ndarray]:
    """``cos theta, sin theta, cos phi, sin phi`` of arrays of angles, by :mod:`math`."""
    angles = [np.asarray(a, dtype=float).tolist() for a in (theta, phi)]
    return [np.fromiter(map(f, a), float, len(a)) for a in angles for f in (math.cos, math.sin)]


def depth_rows(theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depth rows ``k3`` and their pitch and roll partials for arrays of angles.

    Returns three ``(n, 3)`` arrays whose row ``i`` is the :func:`depth_row`
    triple at ``(theta[i], phi[i])``: the same formulas on the sines and
    cosines of :mod:`math`, so the same bits.
    """
    trig = _trig(theta, phi)
    return tuple(np.stack(row, axis=1) for row in _depth_row(*trig, np.zeros(len(trig[0]))))


def k3_rows(theta, phi) -> np.ndarray:
    """The first of :func:`depth_rows`, the ``(n, 3)`` rows ``k3``, alone."""
    return np.stack(_k3(*_trig(theta, phi)), axis=1)


def omega_chart(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The angle-rate map W and its pitch and roll partials.

    Column 0 of W is the depth row and column 0 of each partial is the
    matching depth-row partial, the floats of :func:`depth_row`, so the
    hydrostatic moments and the kinetic metric read the same chart.  The
    second partials of the depth row are exact sign flips of these entries:
    ``d2k3/dtheta2 = -k3``, ``d2k3/dphi2 = (0, -k3_2, -k3_3)`` and
    ``d2k3/dtheta dphi = (0, dk3_3/dtheta, -dk3_2/dtheta)``.

    No gimbal check; :func:`omega_map` adds it.
    """
    (k0, k1, k2), (t0, t1, t2), (_, p1, p2) = depth_row(theta, phi)
    cph, sph = math.cos(phi), math.sin(phi)
    w = np.array([[k0, 0.0, 1.0], [k1, cph, 0.0], [k2, -sph, 0.0]])
    d_theta = np.array([[t0, 0.0, 0.0], [t1, 0.0, 0.0], [t2, 0.0, 0.0]])
    d_phi = np.array([[0.0, 0.0, 0.0], [p1, -sph, 0.0], [p2, -cph, 0.0]])
    return w, d_theta, d_phi


def omega_map(theta: float, phi: float) -> np.ndarray:
    """Matrix W mapping angle rates to the body-frame angular velocity.

    ``omega_body = W @ (psi_dot, theta_dot, phi_dot)``.  The determinant
    is ``-cos(theta)``, so the map degenerates at ``theta = +-pi/2``.

    Raises
    ------
    GimbalLock
        If ``|theta| >= pi/2 - GIMBAL_GUARD``.
    """
    if abs(theta) >= math.pi / 2 - GIMBAL_GUARD:
        raise GimbalLock(f"pitch {theta} within guard of pi/2")
    return omega_chart(theta, phi)[0]


def omega_maps(theta, phi) -> np.ndarray:
    """:func:`omega_map` for arrays of angles, with its gimbal check.

    Returns an ``(n, 3, 3)`` array whose slice ``i`` is the map at
    ``(theta[i], phi[i])``: the depth rows of :func:`k3_rows` and the
    sines and cosines of :mod:`math`, so the same bits.
    """
    beyond = np.flatnonzero(np.abs(theta) >= math.pi / 2 - GIMBAL_GUARD)
    if len(beyond):
        raise GimbalLock(f"pitch {float(theta[beyond[0]])} within guard of pi/2")
    cth, sth, cph, sph = _trig(theta, phi)
    w = np.zeros((len(cph), 3, 3))
    w[:, 0, 0], w[:, 1, 0], w[:, 2, 0] = _k3(cth, sth, cph, sph)
    w[:, 0, 2] = 1.0
    w[:, 1, 1], w[:, 2, 1] = cph, -sph
    return w
