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

One builder, :func:`omega_chart`, serves both halves of the mechanics
from one set of sines and cosines of pitch and roll: the angle-rate map
W and its two partials feed the kinetic metric, and their first columns
are the depth row ``k3`` and its partials, which the generalized forces
and the force gradient contract with the submerged moments.
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

    ``zeta`` is positive downward.  ``theta`` must stay strictly inside
    ``(-pi/2, pi/2)`` so the angle-rate map remains invertible.
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
        if abs(self.theta) >= math.pi / 2:
            raise GimbalLock(f"pitch {self.theta} outside (-pi/2, pi/2)")

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


def _pose_unchecked(q) -> Pose:
    """Pose without invariant checks, for integrator internals only.

    Adaptive steppers may probe configurations slightly past the pitch
    guard while locating the terminal event; those evaluations must not
    raise even though user-facing constructors would.
    """
    pose = object.__new__(Pose)
    for name, value in zip(COORD_NAMES, q):
        object.__setattr__(pose, name, float(value))
    return pose


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
    cth, sth = math.cos(pose.theta), math.sin(pose.theta)
    cph, sph = math.cos(pose.phi), math.sin(pose.phi)
    return np.array([-sth, cth * sph, cth * cph])


def depth_rows(theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depth rows ``k3`` and their pitch and roll partials for arrays of angles.

    Returns three ``(n, 3)`` arrays whose row ``i`` holds the bits
    :func:`k3_body` and the first columns of :func:`omega_chart` give at
    ``(theta[i], phi[i])``: the sines and cosines come from :mod:`math`,
    as there.
    """
    theta = np.asarray(theta, dtype=float).tolist()
    phi = np.asarray(phi, dtype=float).tolist()
    n = len(theta)
    cth = np.fromiter(map(math.cos, theta), float, n)
    sth = np.fromiter(map(math.sin, theta), float, n)
    cph = np.fromiter(map(math.cos, phi), float, n)
    sph = np.fromiter(map(math.sin, phi), float, n)
    k3 = np.stack([-sth, cth * sph, cth * cph], axis=1)
    k3_theta = np.stack([-cth, -sth * sph, -sth * cph], axis=1)
    k3_phi = np.stack([np.zeros(n), cth * cph, -cth * sph], axis=1)
    return k3, k3_theta, k3_phi


def omega_chart(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The angle-rate map W and its pitch and roll partials, one trig pass.

    Column 0 of W is the depth row :func:`k3_body` and column 0 of each
    partial is the matching depth-row partial, so the hydrostatic moments
    and the kinetic metric read the same chart.  The second partials of
    the depth row are exact sign flips of these entries:
    ``d2k3/dtheta2 = -k3``, ``d2k3/dphi2 = (0, -k3_2, -k3_3)`` and
    ``d2k3/dtheta dphi = (0, dk3_3/dtheta, -dk3_2/dtheta)``.

    No gimbal check; :func:`omega_map` adds it.
    """
    cth, sth = math.cos(theta), math.sin(theta)
    cph, sph = math.cos(phi), math.sin(phi)
    w = np.array(
        [
            [-sth, 0.0, 1.0],
            [cth * sph, cph, 0.0],
            [cth * cph, -sph, 0.0],
        ]
    )
    d_theta = np.array(
        [
            [-cth, 0.0, 0.0],
            [-sth * sph, 0.0, 0.0],
            [-sth * cph, 0.0, 0.0],
        ]
    )
    d_phi = np.array(
        [
            [0.0, 0.0, 0.0],
            [cth * cph, -sph, 0.0],
            [-cth * sph, -cph, 0.0],
        ]
    )
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
