"""Hydrostatic potential, generalized buoyancy forces and stability tests.

Sign conventions (documented once, used everywhere): the depth
coordinate ``zeta`` is positive *downward* and the free surface sits at
zero depth.  The scalar ``U`` carried around by this module is the force
function of the conservative effects, ``U = m g zeta + U_B``: its
gradient *is* the generalized force vector, and a stable equilibrium is
a maximum of ``U`` (equivalently a minimum of the potential energy
``-U``).  Most marine tools use z-up; mind the sign of ``zeta`` and of
``z_b_star`` when comparing.

Surge, sway and yaw never acquire a restoring force: the corresponding
entries of the generalized force vector are structural zeros, not small
numbers.

Stability is decided from the Hessian alone: an equilibrium is
pseudo-stable exactly when the (zeta, theta, phi) Hessian of ``U``, the
restoring block of :func:`force_gradient` at every pose, is negative
definite.  The metacentric heights reported beside the verdict are
body-axis quantities, the classic ones only for an upright hull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clipping import SubmergedIntegrals, WaterplaneProperties, _dot, evaluate, evaluate_many
from .errors import NotAnEquilibrium, ZeroVolume
from .kinematics import NONCYCLIC, Pose, depth_row, depth_rows, k3_rows
from .mesh import HullMesh

#: the (zeta, theta, phi) block of a 6x6 matrix
_RESTORING = np.ix_(NONCYCLIC, NONCYCLIC)


@dataclass(frozen=True)
class FluidEnvironment:
    """Fluid mass density (kg/m^3) and gravitational acceleration (m/s^2)."""

    rho: float = 1025.0
    g: float = 9.81

    def __post_init__(self):
        for name in ("rho", "g"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"fluid '{name}' must be positive and finite, got {value!r}")


def potential(mesh: HullMesh, pose, env: FluidEnvironment):
    """Buoyancy force function: ``-rho g V * (depth of buoyancy center)``.

    Zero for a fully emerged body, ``-rho g V_total zeta`` plus a
    body-fixed constant once fully submerged, and never positive while
    the fixed origin sits on the free surface.

    ``pose`` is a :class:`Pose`, or an ``(n, 6)`` array of coordinates
    in the order ``(xi, eta, zeta, psi, theta, phi)``: the result is
    then an ``(n,)`` array, entry ``i`` equal bitwise to the value at
    ``Pose(*q[i])``.  The array form reads only the ``zeta``, ``theta``
    and ``phi`` columns, checks no pitch range and evaluates all rows
    through :func:`~floatdyn.clipping.evaluate_many`.
    """
    if isinstance(pose, Pose):
        return _potential(evaluate(mesh, pose), env)
    q = _coordinate_rows(pose)
    return _potential(evaluate_many(mesh, q[:, 2], k3_rows(q[:, 4], q[:, 5])), env)


def _coordinate_rows(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != 6:
        raise ValueError(f"expected a Pose or an (n, 6) coordinate array, got shape {q.shape}")
    return q


def _potential(integrals: SubmergedIntegrals, env: FluidEnvironment) -> float:
    return -env.rho * env.g * integrals.depth_integral


def generalized_forces(mesh: HullMesh, pose, env: FluidEnvironment) -> np.ndarray:
    """Generalized buoyancy forces, coordinate order (xi..phi).

    Surge, sway and yaw entries are exactly zero.  Heave carries the
    Archimedean force ``-rho g V``; pitch and roll carry the moment
    integrals obtained by contracting the derivatives of the depth row
    with the first moments of the submerged region.

    ``pose`` may also be an ``(n, 6)`` coordinate array, as for
    :func:`potential`; the result is then ``(n, 6)``, row ``i`` equal
    bitwise to the forces at ``Pose(*q[i])``.
    """
    if isinstance(pose, Pose):
        return _generalized_forces(evaluate(mesh, pose), depth_row(pose.theta, pose.phi), env)
    q = _coordinate_rows(pose)
    k3, k3_theta, k3_phi = depth_rows(q[:, 4], q[:, 5])
    integrals = evaluate_many(mesh, q[:, 2], k3)
    # columns, one entry per pose: the arithmetic of the one-pose floats
    first = integrals.first.T
    rg = env.rho * env.g
    forces = np.zeros((len(q), 6))
    forces[:, 2] = -rg * integrals.volume
    forces[:, 4] = -rg * _dot(k3_theta.T, first)
    forces[:, 5] = -rg * _dot(k3_phi.T, first)
    return forces


def _generalized_forces(integrals: SubmergedIntegrals, rows, env) -> np.ndarray:
    """The forces from the integrals and the :func:`depth_row` triple of
    the pose's attitude."""
    _, k3_theta, k3_phi = rows
    first = integrals.first.tolist()
    rg = env.rho * env.g
    return np.array(
        [0.0, 0.0, -rg * integrals.volume, 0.0,
         -rg * _dot(k3_theta, first), -rg * _dot(k3_phi, first)]
    )


def force_gradient(mesh: HullMesh, pose: Pose, env: FluidEnvironment) -> np.ndarray:
    """Configuration gradient of the generalized forces, 6x6, symmetric.

    Only the (zeta, theta, phi) block is nonzero.  It combines a volume
    term (second derivatives of the depth row contracted with the first
    moments) and a waterplane term ``L G L^T``: row ``a`` of ``L`` holds
    the derivative of the depth function ``zeta + k3 . x`` by coordinate
    ``a`` (its constant part, then its linear part) and ``G`` is the 4x4
    block ``[[A, C1^T], [C1, C2]]`` of the waterplane area, first and
    second moments.  For a fully submerged body the waterplane term is
    absent and the heave-heave entry vanishes.
    """
    return _force_gradient(evaluate(mesh, pose), depth_row(pose.theta, pose.phi), env)


def _force_gradient(integrals: SubmergedIntegrals, rows, env) -> np.ndarray:
    """The gradient from the integrals and the :func:`depth_row` triple of
    the pose's attitude, in floats; each off-diagonal entry is computed
    once, so the matrix is symmetric by construction."""
    k3, k3_th, k3_ph = rows
    first, c1 = integrals.first.tolist(), integrals.cap_first.tolist()
    c2 = integrals.cap_second.tolist()
    c2_th, c2_ph = [_dot(row, k3_th) for row in c2], [_dot(row, k3_ph) for row in c2]
    # the second partials of k3 (theta-theta, theta-phi, phi-phi) are sign
    # flips of k3 and its pitch partial; the volume term contracts them
    # with the first moments, the waterplane term is L G L^T
    zz, zt, zp = integrals.cap_area, _dot(c1, k3_th), _dot(c1, k3_ph)
    tt = -_dot(k3, first) + _dot(k3_th, c2_th)
    tp = (k3_th[2] * first[1] - k3_th[1] * first[2]) + _dot(k3_th, c2_ph)
    pp = -(k3[1] * first[1] + k3[2] * first[2]) + _dot(k3_ph, c2_ph)
    rg = env.rho * env.g
    grad = np.zeros((6, 6))
    grad[_RESTORING] = [
        [-rg * zz, -rg * zt, -rg * zp],
        [-rg * zt, -rg * tt, -rg * tp],
        [-rg * zp, -rg * tp, -rg * pp],
    ]
    return grad


@dataclass(frozen=True)
class HydrostaticState:
    """Everything hydrostatic about one pose, from a single evaluation."""

    volume: float
    buoyancy_center: np.ndarray
    waterplane: WaterplaneProperties
    potential: float
    forces: np.ndarray


def hydrostatic_state(mesh: HullMesh, pose: Pose, env: FluidEnvironment) -> HydrostaticState:
    """Evaluate once and assemble volume, centers, potential and forces."""
    integrals = evaluate(mesh, pose)
    rows = depth_row(pose.theta, pose.phi)
    volume = integrals.volume
    center = integrals.first / volume if volume > 0.0 else np.zeros(3)
    return HydrostaticState(
        volume,
        center,
        integrals.waterplane(),
        _potential(integrals, env),
        _generalized_forces(integrals, rows, env),
    )


#: default residual, relative to the displacement, of hessian_at_equilibrium
RESIDUAL_TOL = 1e-8
#: margin, relative to the pitch-roll stiffness, that pseudo_stability_check flags
MARGIN_TOL = 1e-9


def _scaled_residual(residual, diameter: float) -> float:
    """Size in N of an equilibrium residual ``(m g + Q_zeta, Q_theta, Q_phi)``,
    the moments divided by the hull diameter: the one measure by which the
    solver converges and :func:`hessian_at_equilibrium` accepts."""
    return max(abs(residual[0]), abs(residual[1]) / diameter, abs(residual[2]) / diameter)


def hessian_at_equilibrium(
    mesh: HullMesh,
    q_star: Pose,
    env: FluidEnvironment,
    mass: float | None = None,
    residual_tol: float = RESIDUAL_TOL,
) -> np.ndarray:
    """Hessian of the total force function at equilibrium, (zeta, theta, phi).

    The hydrostatic effects are conservative, so this is the restoring
    block of :func:`force_gradient`, for any hull and pose; at the upright
    equilibrium of a port-starboard symmetric hull it is the textbook
    ``rho g [[-A, A x_C, 0], [A x_C, V z_B - S11, 0], [0, 0, V z_B - S22]]``.
    Gravity is linear in zeta and contributes nothing.

    Parameters
    ----------
    mass : float, optional
        Body mass for the equilibrium residual check; inferred from the
        Archimedean relation ``m = rho V*`` when omitted.

    Raises
    ------
    NotAnEquilibrium
        If the residual, measured as in the equilibrium solver, exceeds
        ``residual_tol`` times the displacement.
    """
    integrals = evaluate(mesh, q_star)
    volume = integrals.volume
    if volume <= 0.0:
        raise ZeroVolume("no submerged volume at the supposed equilibrium")
    m_eff = env.rho * volume if mass is None else mass
    displacement = m_eff * env.g

    rows = depth_row(q_star.theta, q_star.phi)
    forces = _generalized_forces(integrals, rows, env)
    residual = _scaled_residual((m_eff * env.g + forces[2], forces[4], forces[5]), mesh.diameter)
    if residual > residual_tol * displacement:
        raise NotAnEquilibrium(
            f"residual force {residual:.3e} exceeds {residual_tol:.1e} * displacement"
        )
    return _force_gradient(integrals, rows, env)[_RESTORING]


def metacentric_heights(v_star: float, z_b_star: float, second_moment) -> tuple[float, float]:
    """Transverse and longitudinal metacentric heights.

    ``GM_T = S22 / V* - z_B*`` and ``GM_L = S11 / V* - z_B*`` where the
    second-moment tensor is taken about the projection of G on the
    static waterplane and ``z_B*`` is the body-frame depth of the
    buoyancy center below G (positive down).  Both are body-axis
    quantities: the metacentric heights only for an upright hull.
    """
    if v_star <= 0.0:
        raise ZeroVolume("metacentric heights need positive submerged volume")
    s = np.asarray(second_moment, dtype=float)
    return float(s[1, 1] / v_star - z_b_star), float(s[0, 0] / v_star - z_b_star)


@dataclass(frozen=True)
class StabilityReport:
    """Equilibrium stiffness data and the restricted-problem verdict.

    ``margins`` are the roll and pitch pivots of ``-H / (rho g)`` in m^4
    (see :func:`pseudo_stability_check`); at the upright equilibrium of
    a port-starboard symmetric hull they are the classic
    ``(S22 - V z_B, S11 - V z_B - A x_C^2)``.
    """

    hessian: np.ndarray
    gm_transverse: float
    gm_longitudinal: float
    displacement: float
    pseudo_stable: bool
    margins: tuple[float, float]
    marginal: bool


def pseudo_stability_check(
    hessian,
    *,
    v_star: float,
    z_b_star: float,
    second_moment,
    env: FluidEnvironment,
) -> StabilityReport:
    """Classify an equilibrium by the Hessian of the force function alone.

    Pseudo-stable means ``-hessian`` is positive definite: all pivots of
    its LDL' factorization, in the order heave, pitch, roll, are
    positive.  The margins are the pitch pivot (after heave) and the roll
    pivot (after heave and pitch) of ``-hessian / (rho g)``; ``marginal``
    flags one within :data:`MARGIN_TOL` of zero, relative to the largest
    pitch-roll stiffness.  The other arguments give only the body-axis
    metacentric heights and the displacement.
    """
    hessian = np.asarray(hessian, dtype=float)
    gm_t, gm_l = metacentric_heights(v_star, z_b_star, second_moment)
    stiffness = -hessian / (env.rho * env.g)
    scale = np.abs(stiffness[1:, 1:]).max()
    pivots = []
    for k in range(3):
        pivot = float(stiffness[k, k])
        pivots.append(pivot)
        if pivot != 0.0:
            rest = slice(k + 1, 3)
            stiffness[rest, rest] -= np.outer(stiffness[rest, k], stiffness[k, rest]) / pivot
    _, margin_l, margin_t = pivots
    marginal = min(abs(margin_t), abs(margin_l)) <= MARGIN_TOL * max(scale, 1e-300)

    return StabilityReport(
        hessian=hessian,
        gm_transverse=gm_t,
        gm_longitudinal=gm_l,
        displacement=float(env.rho * env.g * v_star),
        pseudo_stable=all(pivot > 0.0 for pivot in pivots),
        margins=(margin_t, margin_l),
        marginal=bool(marginal),
    )
