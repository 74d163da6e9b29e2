"""Locate floating equilibria: draft, trim and heel balancing weight.

An equilibrium is a stationary point of the force function
``F = m g zeta + U_B``; its gradient is the residual
``(m g + Q_zeta, Q_theta, Q_phi)``, its Hessian the force gradient.
``F`` is concave in heave (curvature ``-rho g A``), so at fixed angles a
safeguarded Newton iteration finds the balancing draft inside the
bracket of the fully emerged and submerged drafts.
Heave eliminated, ``G(theta, phi) = max over zeta of F`` has the moment
residual as gradient and the Schur complement of the heave entry as
Hessian, and a dogleg trust region climbs it (Nocedal & Wright,
*Numerical Optimization*, ch. 4).  So the solver reaches the
pseudo-stable equilibrium uphill of the guess; a guess whose moments
already vanish is returned as found, stable or not.  The guess's draft
is unused.

Equilibria are reported in canonical form with surge, sway and yaw
zeroed, pitch inside (-pi/2, pi/2) and roll in [-pi, pi]; surge, sway
and yaw never influence the hydrostatics, so any equilibrium can be
represented this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clipping import DEFAULT_SNAP_FRACTION, evaluate
from .dynamics import BodyProperties
from .errors import Diverged, GimbalLock, WontFloat, ZeroVolume
from .hydrostatics import FluidEnvironment, _scaled_residual, force_gradient, generalized_forces
from .kinematics import GIMBAL_GUARD, Pose, k3_body
from .mesh import HullMesh


@dataclass(frozen=True)
class EquilibriumResult:
    """Converged equilibrium pose plus solver diagnostics.

    ``waterline_distance`` is the distance from G to the static
    waterplane; it equals ``zeta*`` whenever G floats at or below the
    surface.  ``iterations`` counts trust-region steps, rejected or not.
    """

    pose: Pose
    residual: np.ndarray
    iterations: int
    waterline_distance: float
    converged: bool


def find_equilibrium(
    mesh: HullMesh,
    body: BodyProperties,
    env: FluidEnvironment,
    initial=(0.0, 0.0, 0.0),
    tol: float = 1e-12,
    max_iter: int = 100,
) -> EquilibriumResult:
    """Solve for the pose where weight balances buoyancy and moments vanish.

    Parameters
    ----------
    initial : (zeta0, theta0, phi0)
        Starting guess; only the angles are used, each reduced to
        [-pi, pi] first, so a guess and its reduced angles give the same
        result bit for bit.  Multiple equilibria
        (cube face-up versus edge-up) are reached from different
        guesses; there is no global search.
    tol : float
        Convergence threshold on the scaled residual (moments divided by
        the hull diameter), relative to the weight ``m g``.

    Raises
    ------
    WontFloat
        If ``m >= rho * V_total`` (no draft can displace the weight).
    ZeroVolume
        If ``m < rho * V_total`` times the clip's snap fraction: the
        balancing draft would lie inside the band of vertex depths the
        clip snaps to the waterline.
    Diverged
        If ``max_iter`` steps do not converge.
    GimbalLock
        If the equilibrium has its pitch within the gimbal guard of pi/2.
    """
    m = body.mass
    if m >= env.rho * mesh.volume:
        raise WontFloat(f"mass {m} exceeds maximum displaceable mass {env.rho * mesh.volume}")
    if m < DEFAULT_SNAP_FRACTION * env.rho * mesh.volume:
        raise ZeroVolume(f"mass {m} is below {DEFAULT_SNAP_FRACTION:g} of the maximum "
                         f"displaceable mass {env.rho * mesh.volume}: the hull would float "
                         "on the waterline, inside the clip's snap band")
    weight = m * env.g
    rg = env.rho * env.g
    # the trust region's model in units of the weight, rounded to a power
    # of two so that the scaling is exact: products of two force
    # gradients of order rho g d^4 overflow at gravity 1e200
    unit = math.ldexp(1.0, -math.frexp(weight)[1])

    def balance(zeta, theta, phi):
        """The pose at the balancing draft for fixed angles, the last one
        :func:`evaluate` integrated.

        ``m g - rho g V`` falls with the draft at slope ``-rho g A``.
        """
        heights = mesh.vertices @ k3_body(Pose(theta=theta, phi=phi))
        lo, hi = -heights.max(), -heights.min()
        zeta = 0.5 * (lo + hi) if zeta is None else min(max(zeta, lo), hi)
        for _ in range(100):  # halving alone reaches adjacent floats in ~60
            pose = Pose(zeta=float(zeta), theta=float(theta), phi=float(phi))
            integrals = evaluate(mesh, pose)
            excess = weight - rg * integrals.volume
            if abs(excess) <= tol * weight:
                break
            lo, hi = (zeta, hi) if excess > 0.0 else (lo, zeta)
            area = integrals.cap_area
            newton = zeta + excess / (rg * area) if area > 0.0 else hi
            zeta = newton if lo < newton < hi else 0.5 * (lo + hi)
            if not lo < zeta < hi:
                break  # the bracket has shrunk to adjacent floats
        return pose

    def residual(pose):
        forces = generalized_forces(mesh, pose, env)
        return np.array([weight + forces[0], forces[1], forces[2]])

    turn = 2.0 * math.pi
    pose = balance(None, math.remainder(initial[1], turn), math.remainder(initial[2], turn))
    r = residual(pose)
    radius = 0.2  # rad: a first step short enough to keep the waterplane topology
    for iteration in range(max_iter + 1):
        scaled = _scaled_residual(r, mesh.diameter)
        if scaled <= tol * weight:
            # the climb may cross the pole of the angle chart: read the
            # same down axis with the pitch inside (-pi/2, pi/2)
            theta, phi = math.remainder(pose.theta, turn), pose.phi
            if abs(theta) > math.pi / 2:
                theta, phi = math.copysign(math.pi, theta) - theta, phi + math.pi
                r[1] = -r[1]
            phi = math.remainder(phi, turn)
            if abs(theta) >= math.pi / 2 - GIMBAL_GUARD:
                raise GimbalLock(f"equilibrium at pitch {theta:.9g}: the first body axis "
                                 "is vertical, where the angles are singular; rotate the mesh")
            pose = Pose(0.0, 0.0, pose.zeta, 0.0, theta, phi)
            return EquilibriumResult(pose, r, iteration, abs(pose.zeta), True)
        if iteration == max_iter:
            break
        hessian = force_gradient(mesh, pose, env) * unit
        curvature = hessian[1:, 1:]
        if hessian[0, 0] < 0.0:
            curvature = curvature - np.outer(hessian[1:, 0], hessian[0, 1:]) / hessian[0, 0]
        gradient = r[1:] * unit
        step = _dogleg(gradient, curvature, radius)
        predicted = gradient @ step + 0.5 * step @ curvature @ step
        length = float(np.hypot(*step))
        trial = balance(pose.zeta, pose.theta + step[0], pose.phi + step[1])
        r_trial = residual(trial)
        # trapezoid rule on the exact gradient: differencing F loses the
        # gain to roundoff near the peak
        gain = 0.5 * (gradient + r_trial[1:] * unit) @ step
        if gain < 0.25 * predicted:
            radius = 0.25 * length
        elif gain > 0.75 * predicted and length > 0.99 * radius:
            radius = min(2.0 * radius, math.pi / 2)
        if gain > 0.1 * predicted:
            pose, r = trial, r_trial

    raise Diverged(
        f"no convergence in {max_iter} iterations, residual {scaled:.3e}; equilibria are "
        "found per initial guess, try starting closer to the expected attitude"
    )


def _dogleg(gradient, curvature, radius):
    """Dogleg ascent step for the model ``g.p + p.B.p / 2`` in ``|p| <= radius``.

    Steepest ascent to the model's peak or the boundary (the Cauchy
    point), then, for a negative definite ``B``, on towards the Newton step.
    """
    g_norm = max(float(np.hypot(*gradient)), 1e-300)
    along = gradient @ curvature @ gradient
    reach = radius / g_norm
    cauchy = (min(g_norm**2 / -along, reach) if along < 0.0 else reach) * gradient
    if np.all(np.linalg.eigvalsh(curvature) < 0.0):
        newton = np.linalg.solve(curvature, -gradient)
        if np.hypot(*newton) <= radius:
            return newton
        leg = newton - cauchy
        # |cauchy + tau leg| = radius with tau in [0, 1]
        a, b, c = leg @ leg, 2.0 * cauchy @ leg, cauchy @ cauchy - radius**2
        if c < 0.0:
            return cauchy + (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a) * leg
    return cauchy
