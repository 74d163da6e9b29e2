"""Rigid-body dynamics of the floating hull, full and reduced.

The Lagrangian splits into a configuration-dependent kinetic form
``T = 1/2 qdot' a(q) qdot`` and the force function
``U = m g zeta + U_B(q)``, so the equations of motion read
``a(q) qddot = dT/dq - adot qdot + grad U``.  The kinetic metric is
block diagonal: a constant ``m I`` translational block and a rotational
block built from the angle-rate map, depending on pitch and roll only.

Surge, sway and yaw are cyclic: their conjugate momenta are conserved,
and eliminating their rates in favor of those constants reduces the
problem to three coordinates (heave, pitch, roll).  The cyclic block of
the metric is ``diag(m, m, c)`` with ``c = k3' I k3 > 0``, and only yaw
couples to pitch and roll, so the reduced equations are in closed form:
surge and sway rates are ``p / m``, the yaw rate is
``(p_psi - b . (theta_dot, phi_dot)) / c``, heave decouples, and pitch
and roll take one 2x2 solve with ``K - b b' / c``.  One helper writes
these for the reduced right-hand side, :func:`reduced_mass_matrix`,
:func:`cyclic_rates` and the reduced trajectory's samples.  The full
route solves the generic 6x6 Euler-Lagrange equations and is the
reference the reduced one is checked against; the energy and momenta of
every trajectory are recomputed from the generic metric.

State ordering is ``(xi, eta, zeta, psi, theta, phi)`` everywhere;
cyclic indices ``(0, 1, 3)``.  Each right-hand side takes the metric
and its closed-form angle partials from one evaluation of the chart.

Both integrators run through one solve routine and take one of
:data:`METHODS`.  The default ``DOP853`` is the in-package explicit
Runge-Kutta pair of :mod:`floatdyn.rk`, which reproduces SciPy's
``solve_ivp`` bit for bit; ``LSODA`` calls ``solve_ivp`` and needs
SciPy.  The routine imports either only when called, so no other
subcommand loads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, GimbalLock, IntegrationFailed, MissingDependency
from .hydrostatics import FluidEnvironment, generalized_forces, potential
from .kinematics import CYCLIC, NONCYCLIC, Pose, omega_chart, omega_map, omega_maps
from .mesh import HullMesh


@dataclass(frozen=True)
class BodyProperties:
    """Mass (kg) and inertia tensor about G in body axes (kg m^2).

    The inertia must be symmetric positive definite with principal
    moments satisfying the triangle inequalities; port-starboard
    symmetric bodies additionally have zero (1,2) and (2,3) couplings.
    """

    mass: float
    inertia: np.ndarray

    def __post_init__(self):
        if self.mass <= 0 or not math.isfinite(self.mass):
            raise ValueError("mass must be positive and finite")
        inertia = np.asarray(self.inertia, dtype=float)
        if inertia.shape != (3, 3):
            raise ValueError("inertia must be a 3x3 tensor")
        if not np.allclose(inertia, inertia.T, rtol=1e-9, atol=0.0):
            raise ValueError("inertia tensor must be symmetric")
        eig = np.linalg.eigvalsh(inertia)
        if eig[0] <= 0:
            raise ValueError("inertia tensor must be positive definite")
        slack = 1e-9 * eig.sum()
        for i in range(3):
            if eig[i] > eig.sum() - eig[i] + slack:
                raise ValueError("principal moments violate the triangle inequality")
        object.__setattr__(self, "inertia", inertia)


@dataclass(frozen=True)
class FullState:
    """Pose plus the six coordinate rates."""

    pose: Pose
    rates: np.ndarray

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        if rates.shape != (6,) or not np.all(np.isfinite(rates)):
            raise ValueError("rates must be six finite numbers")
        object.__setattr__(self, "rates", rates)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.pose.as_array(), self.rates])


@dataclass(frozen=True)
class ReducedState:
    """Heave, pitch, roll with their rates and the fixed cyclic momenta."""

    coords: np.ndarray
    rates: np.ndarray
    momenta: np.ndarray

    def __post_init__(self):
        for name in ("coords", "rates", "momenta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (3,) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be three finite numbers")
            object.__setattr__(self, name, arr)


def kinetic_metric(body: BodyProperties, theta: float, phi: float) -> np.ndarray:
    """The 6x6 kinetic metric at the given pitch and roll, in coordinate order.

    Translational block is ``m I``; the rotational block is the
    angle-rate map congruence of the inertia tensor, positive definite
    away from gimbal lock.
    """
    return _metric_matrix(body, omega_map(theta, phi))


def _metric_matrix(body: BodyProperties, w: np.ndarray) -> np.ndarray:
    """The 6x6 metric from the angle-rate map ``w``, or one per map of a
    stack of them."""
    a = np.zeros(w.shape[:-2] + (6, 6))
    a[..., 0, 0] = a[..., 1, 1] = a[..., 2, 2] = body.mass
    a[..., 3:, 3:] = w.swapaxes(-1, -2) @ body.inertia @ w
    return a


def _metric_and_partials(body: BodyProperties, theta: float, phi: float):
    """The metric and its pitch and roll partials from one chart, unchecked."""
    w, dw_th, dw_ph = omega_chart(theta, phi)
    iw = body.inertia @ w
    out = [_metric_matrix(body, w)]
    for dw in (dw_th, dw_ph):
        block = dw.T @ iw
        da = np.zeros((6, 6))
        da[3:, 3:] = block + block.T
        out.append(da)
    return out


def _reduce_yaw(j, p_psi, rates):
    """Routh's reduction over yaw of the rotational block
    ``j = [[c, b'], [b, K]]`` ((psi, theta, phi) order, ``b`` the column
    ``j[1:, 0]``), or of a stack of blocks, each slice with the bits of one:
    ``c``, ``b``, ``K - b b' / c`` and the yaw rate ``(p_psi - b . rates) / c``
    at the pitch and roll ``rates``."""
    c, b = j[..., 0, 0], j[..., 1:, 0]
    k_red = j[..., 1:, 1:] - b[..., :, None] * b[..., None, :] / c[..., None, None]
    psi_dot = (p_psi - (b[..., None, :] @ rates[..., :, None])[..., 0, 0]) / c
    return c, b, k_red, psi_dot


def reduced_mass_matrix(metric: np.ndarray) -> np.ndarray:
    """The reduced kinetic matrix, (zeta, theta, phi) order, of the 6x6
    kinetic metric, whose cyclic block is ``diag(m, m, c)``: ``m`` in heave
    and ``K - b b' / c`` in pitch and roll, symmetrized."""
    m = np.zeros((3, 3))
    m[0, 0] = metric[2, 2]
    m[1:, 1:] = _reduce_yaw(metric[3:, 3:], 0.0, np.zeros(2))[2]
    return 0.5 * (m + m.T)


def cyclic_rates(metric: np.ndarray, qdot_alpha, p_cyclic) -> np.ndarray:
    """Surge, sway and yaw rates from the momenta ``p_cyclic`` and the heave,
    pitch and roll rates, given the 6x6 kinetic metric, whose cyclic block
    is ``diag(m, m, c)``: ``p / m`` and ``(p_psi - b . (theta_dot, phi_dot)) / c``."""
    p = np.asarray(p_cyclic, dtype=float)
    rates = np.asarray(qdot_alpha, dtype=float)[1:]
    mass = metric[0, 0]
    return np.array([p[0] / mass, p[1] / mass, _reduce_yaw(metric[3:, 3:], p[2], rates)[3]])


@dataclass
class Trajectory:
    """Sampled trajectory with conservation diagnostics.

    ``q`` and ``qdot`` hold all six coordinates; reduced runs fill the
    cyclic columns with the coordinates reconstructed by integrating the
    recovered rates.  ``energy`` is ``T - U`` (mechanical energy) and
    ``momenta`` the three cyclic momenta recomputed at each sample.
    """

    t: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    energy: np.ndarray
    momenta: np.ndarray
    terminated_early: bool = False
    nfev: int = 0
    columns = (
        "t",
        "xi", "eta", "zeta", "psi", "theta", "phi",
        "xi_dot", "eta_dot", "zeta_dot", "psi_dot", "theta_dot", "phi_dot",
        "E", "p_xi", "p_eta", "p_psi",
    )

    def as_table(self) -> np.ndarray:
        return np.column_stack(
            [self.t, self.q, self.qdot, self.energy, self.momenta]
        )

    def to_csv(self, path):
        table = self.as_table()
        with open(Path(path), "w") as handle:
            handle.write(",".join(self.columns) + "\n")
            for row in table:
                # repr of a Python float round-trips the full precision
                handle.write(",".join(repr(float(v)) for v in row) + "\n")

    def momentum_drift(self) -> np.ndarray:
        return np.max(np.abs(self.momenta - self.momenta[0]), axis=0)

    def energy_drift(self) -> float:
        scale = max(np.max(np.abs(self.energy)), 1e-300)
        return float((self.energy.max() - self.energy.min()) / scale)


#: the ``integrator.method`` names: the ``solve_ivp`` methods that a
#: work-precision diagram of the releases keeps (``tools/work_precision.py``)
METHODS = ("DOP853", "LSODA")

#: pitch magnitude at which integrations halt; safely inside the region
#: where the metric stays well conditioned
GIMBAL_HALT_MARGIN = 1e-3

#: the longest span the integrators accept, in natural times ``sqrt(d / g)``
#: of the hull (diameter ``d``); a 10 s release of the bench barge spans 20.7
MAX_NATURAL_SPAN = 1e4

#: right-hand-side calls in a row that may fail to pass the latest time a
#: SciPy method has reached before the run counts as stalled
STALL_CALLS = 10_000


def integrate_full(
    mesh: HullMesh,
    body: BodyProperties,
    env: FluidEnvironment,
    initial: FullState,
    t_end: float,
    dt: float,
    method: str = "DOP853",
    rtol: float = 1e-9,
    atol: float = 1e-10,
    max_step: float = np.inf,
) -> Trajectory:
    """Integrate the full six-coordinate equations of motion.

    Samples are taken every ``dt``.  Integration halts early (with the
    partial trajectory flagged) if pitch approaches gimbal lock.
    Default tolerances keep the energy drift well under 1e-7 relative
    over ten-thousand-step runs; conservation columns in the returned
    trajectory let callers police that.
    """
    _check_span(mesh, env, t_end)
    weight = body.mass * env.g

    def rhs(t, y):
        q, qd = y[:6], y[6:]
        pose = Pose(*q.tolist())
        a, da_th, da_ph = _metric_and_partials(body, q[4], q[5])
        grad_u = generalized_forces(mesh, pose, env)
        grad_u[2] += weight
        adot = qd[4] * da_th + qd[5] * da_ph
        rhs_vec = -adot @ qd + grad_u
        rhs_vec[4] += 0.5 * qd @ da_th @ qd
        rhs_vec[5] += 0.5 * qd @ da_ph @ qd
        return np.concatenate([qd, np.linalg.solve(a, rhs_vec)])

    sol = _solve(rhs, initial.as_array(), 4, t_end, dt, method, rtol, atol, max_step)
    return _trajectory(mesh, body, env, sol, sol.y[:6].T, sol.y[6:].T)


def integrate_reduced(
    mesh: HullMesh,
    body: BodyProperties,
    env: FluidEnvironment,
    initial: ReducedState,
    t_end: float,
    dt: float,
    method: str = "DOP853",
    rtol: float = 1e-9,
    atol: float = 1e-10,
    max_step: float = np.inf,
    cyclic_start=(0.0, 0.0, 0.0),
) -> Trajectory:
    """Integrate the three reduced equations at fixed cyclic momenta.

    The state is augmented with surge, sway and yaw driven by the
    reconstructed rates, starting at ``cyclic_start``, so the output
    trajectory carries all six coordinates and is directly comparable
    with :func:`integrate_full`.  The reported energy uses the
    reconstructed full velocity and is conserved along reduced motions.
    """
    _check_span(mesh, env, t_end)
    mass, weight = body.mass, body.mass * env.g
    p = np.asarray(initial.momenta, dtype=float)

    def rhs(t, y):
        zeta, theta, phi, zeta_dot, theta_dot, phi_dot = y[:6]
        pose = Pose(0.0, 0.0, float(zeta), 0.0, float(theta), float(phi))
        a, da_th, da_ph = _metric_and_partials(body, theta, phi)
        # rotational block [[c, b'], [b, K]] in (psi, theta, phi) order
        j, dj_th, dj_ph = a[3:, 3:], da_th[3:, 3:], da_ph[3:, 3:]
        c, b, k_red, psi_dot = _reduce_yaw(j, p[2], y[4:6])
        omega = np.array([psi_dot, theta_dot, phi_dot])
        jdot_omega = (theta_dot * dj_th + phi_dot * dj_ph) @ omega
        grad_u = generalized_forces(mesh, pose, env)
        force = np.array(
            [grad_u[4] + 0.5 * omega @ dj_th @ omega, grad_u[5] + 0.5 * omega @ dj_ph @ omega]
        )
        force -= jdot_omega[1:] - b * (jdot_omega[0] / c)
        theta_ddot, phi_ddot = np.linalg.solve(k_red, force)
        return np.array([
            zeta_dot, theta_dot, phi_dot,
            (grad_u[2] + weight) / mass, theta_ddot, phi_ddot,
            p[0] / mass, p[1] / mass, psi_dot,
        ])

    y0 = np.concatenate([initial.coords, initial.rates, np.asarray(cyclic_start, float)])
    sol = _solve(rhs, y0, 1, t_end, dt, method, rtol, atol, max_step)
    q = sol.y[[6, 7, 0, 8, 1, 2]].T  # (xi, eta, zeta, psi, theta, phi)
    qd = np.zeros((len(sol.t), 6))
    qd[:, list(NONCYCLIC)] = sol.y[3:6].T
    return _trajectory(mesh, body, env, sol, q, qd, momenta=p)


def _check_span(mesh, env, t_end):
    """Refuse a ``gravity`` so far from physical that the steps would take hours or overflow."""
    if (span := t_end * math.sqrt(env.g / mesh.diameter)) > MAX_NATURAL_SPAN:
        raise ConfigError(f"'gravity' {env.g:g} with 't_end' {t_end:g} on a hull of diameter "
                          f"{mesh.diameter:g} spans {span:.3g} natural times "
                          f"sqrt(diameter / gravity), more than {MAX_NATURAL_SPAN:g}")


def _solve(rhs, y0, theta_index, t_end, dt, method, rtol, atol, max_step):
    """Integrate from 0 to ``t_end``, sampled every ``dt``, halting as pitch nears gimbal lock.

    ``theta_index`` is the place of pitch in the state vector ``y0``.  The
    explicit methods run on :mod:`floatdyn.rk`, ``LSODA`` on SciPy's
    ``solve_ivp``; both are imported only here, after a ``method`` not
    in :data:`METHODS` has raised ``ValueError``.
    Either way the result has ``t``, ``y``, ``status`` (1 after the
    gimbal halt) and ``nfev``.  The right-hand side is checked for
    finite values at every call, so a non-finite one, or a state that is
    not finite, raises :class:`IntegrationFailed` whatever the method; a
    run that cannot advance raises it too (for ``LSODA``, after
    :data:`STALL_CALLS` calls in a row that do not pass the latest time
    reached).  A start already inside the
    halt margin raises :class:`GimbalLock`: the halt fires on crossing
    the margin, so such a run would integrate where the guard forbids.
    ``atol`` 0 with a state component exactly 0 (error scale 0) raises
    :class:`IntegrationFailed` before the first step.
    """
    if method not in METHODS:
        raise ValueError(
            f"unknown integrator method {method!r}; use one of {', '.join(METHODS)}"
        )
    from . import rk

    if dt <= 0 or t_end <= 0:
        raise ValueError("t_end and dt must be positive")

    def gimbal(t, y):
        return (math.pi / 2 - GIMBAL_HALT_MARGIN) - abs(y[theta_index])

    if gimbal(0.0, y0) <= 0.0:
        raise GimbalLock(
            f"start pitch {y0[theta_index]:.9g} is not inside (-pi/2 + margin, pi/2 - margin), "
            f"with the halt margin {GIMBAL_HALT_MARGIN:g}"
        )

    if np.any((y0 == 0.0) & (np.asarray(atol) == 0.0)):
        raise IntegrationFailed("integration failed at t = 0: with atol 0 a state component "
                                "that is exactly 0 has no error scale; give a positive atol")

    def finite(t, y):
        try:
            out, what = rhs(t, y), "right-hand side"
        except ValueError:  # a Pose refuses coordinates that are not finite
            if np.isfinite(y).all():
                raise
            out, what = y, "state"
        if not np.isfinite(out).all():
            raise IntegrationFailed(f"integration failed at t = {t:.9g}: the {what} is not finite")
        return out

    t_eval = _sample_times(t_end, dt)
    if method == "DOP853":
        return rk.solve(finite, (0.0, t_end), y0, t_eval, gimbal, rtol, atol, max_step)
    try:
        from scipy.integrate import solve_ivp
    except ImportError as exc:
        raise MissingDependency(f"integrator method {method!r} needs SciPy, which is not "
                                "installed: pip install floatdyn[scipy]") from exc
    gimbal.terminal = True
    reached, stalled = 0.0, 0

    def advancing(t, y):
        # a call passes the latest time if it lies beyond it by more than
        # ten float spacings, the step floor of floatdyn.rk
        nonlocal reached, stalled
        if t > reached + 10 * math.ulp(reached):
            reached, stalled = t, 0
        elif (stalled := stalled + 1) >= STALL_CALLS:
            raise IntegrationFailed(
                f"integration failed: cannot advance past t = {reached:.9g} in "
                f"{STALL_CALLS} right-hand-side calls in a row"
            )
        return finite(t, y)

    sol = solve_ivp(
        advancing,
        (0.0, t_end),
        y0,
        method=method,
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
        max_step=max_step,
        events=[gimbal],
        dense_output=False,
    )
    if sol.status < 0:
        last = sol.t[-1] if len(sol.t) else 0.0
        raise IntegrationFailed(
            f"integration failed after the sample at t = {last:.9g}: {sol.message}"
        )
    return sol


def _sample_times(t_end, dt):
    """Output times ``0, dt, 2 dt, ...`` up to ``t_end``, none past it.

    A last sample that overshoots ``t_end`` by roundoff is pulled back to
    exactly ``t_end``, so every sample lies in the integration span: the
    dense output is only valid there, and ``solve_ivp`` rejects a sample
    outside it.
    """
    n = int(round(t_end / dt))
    t = np.arange(n + 1) * dt
    if t[-1] > t_end:
        t = np.minimum(t[t <= t_end + 1e-12 * t_end], t_end)
    return t


def _trajectory(mesh, body, env, sol, q, qd, momenta=None):
    """The solver's samples with the energy and cyclic momenta of each.

    Given the fixed cyclic ``momenta`` of a reduced run, the cyclic rates
    in ``qd`` are first reconstructed from them.  The kinetic metrics,
    the yaw reductions and the quadratic forms of all samples are
    stacked; each slice runs the products of one sample, so the results
    are the bits of :func:`kinetic_metric` and :func:`cyclic_rates`
    sample by sample.  The energy and momenta take the generic 6x6
    metric, so they check the closed-form rates.  The buoyancy potential
    of all samples comes from one batched call.
    """
    a = _metric_matrix(body, omega_maps(q[:, 4], q[:, 5]))
    if momenta is not None:
        qd[:, 0], qd[:, 1] = momenta[0] / body.mass, momenta[1] / body.mass
        qd[:, 3] = _reduce_yaw(a[:, 3:, 3:], momenta[2], qd[:, 4:6])[3]
    kinetic = ((0.5 * qd)[:, None, :] @ a @ qd[:, :, None])[:, 0, 0]
    energy = kinetic - (body.mass * env.g * q[:, 2] + potential(mesh, q, env))
    p_cyclic = (a @ qd[:, :, None])[:, list(CYCLIC), 0]
    return Trajectory(
        t=sol.t,
        q=q,
        qdot=qd,
        energy=energy,
        momenta=p_cyclic,
        terminated_early=(sol.status == 1),
        nfev=sol.nfev,
    )
