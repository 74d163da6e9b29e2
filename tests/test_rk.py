"""The in-package Runge-Kutta integrator against SciPy's ``solve_ivp``.

``floatdyn.rk`` evaluates the same coefficients and numpy expressions as
``solve_ivp`` does for DOP853, so the samples must agree bit for bit,
with the same right-hand-side count and the same halt.  The
dynamics cases run the real right-hand sides: the benchmark workloads of
``bench/hulls.py`` (seeds 1-3), a tilted start with all three cyclic
momenta, and the spinning cube that halts at the gimbal guard.  Spans
are shorter than the benchmark's to keep the suite fast; the integrator's
arithmetic shows within the first steps.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

from floatdyn import BodyProperties, FullState, Pose, dynamics, integrate_full, rk
from floatdyn.cli import _initial_state
from floatdyn.dynamics import GIMBAL_HALT_MARGIN, _sample_times
from floatdyn.errors import IntegrationFailed
from floatdyn.report import AnalysisConfig, load_equilibrium

BENCH = Path(__file__).resolve().parents[1] / "bench"
#: the method ``floatdyn.rk`` runs, a parameter so that the test ids name it
EXPLICIT = ("DOP853",)
#: integration span: long enough for hundreds of steps
SPAN = 0.5


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference(rhs, y0, theta_index, t_end, dt, method, rtol, atol, max_step):
    """The integration as ``solve_ivp`` runs it, gimbal halt included."""

    def gimbal(t, y):
        return (math.pi / 2 - GIMBAL_HALT_MARGIN) - abs(y[theta_index])

    gimbal.terminal = True
    return solve_ivp(
        rhs, (0.0, t_end), y0, method=method, rtol=rtol, atol=atol,
        t_eval=_sample_times(t_end, dt), max_step=max_step, events=[gimbal],
    )


def run_both(monkeypatch, integrate, *args, **kwargs):
    """Run ``integrate``; return its trajectory, ``floatdyn.rk``'s result and
    ``solve_ivp``'s on the same right-hand side and options."""
    seen = {}
    solve = dynamics._solve

    def spy(*solve_args):
        seen["args"] = solve_args
        seen["ours"] = solve(*solve_args)
        return seen["ours"]

    monkeypatch.setattr(dynamics, "_solve", spy)
    traj = integrate(*args, **kwargs)
    return traj, seen["ours"], reference(*seen["args"])


def assert_same_run(ours, ref):
    assert ref.status >= 0, ref.message
    assert ours.status == ref.status
    assert ours.nfev == ref.nfev
    assert ours.t.tobytes() == ref.t.tobytes()
    assert ours.y.shape == ref.y.shape
    assert ours.y.tobytes() == ref.y.tobytes()


def workload_case(tmp_path, case):
    """Mesh, body, environment, equilibrium and simulate section of a
    benchmark case; ``tilted`` is the L-prism of seed 1 started off level
    with momenta."""
    workload, seed = ("lprism", 1) if case == "tilted" else case.split("-")
    hulls, run = bench_module("hulls"), bench_module("run")
    path = hulls.BUILDERS[workload](tmp_path, run.input_rng(int(seed)))
    config = AnalysisConfig.from_file(path)
    sim = dict(config.simulate)
    if case == "tilted":
        sim = {"initial": {"theta": 0.3, "phi": -0.25}, "momenta": [0.5, -0.2, 3.0]}
    mesh, body, _, env, equilibrium = load_equilibrium(config)
    return (mesh, body, env, equilibrium), sim


CASES = [f"{w}-{s}" for w in ("barge", "lprism") for s in (1, 2, 3)] + ["tilted"]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("mode", ["full", "reduced"])
@pytest.mark.parametrize("method", EXPLICIT)
def test_dynamics_match_solve_ivp(monkeypatch, tmp_path, case, mode, method):
    (mesh, body, env, equilibrium), sim = workload_case(tmp_path, case)
    start = _initial_state(mode, equilibrium.pose, sim, body)
    integrate = integrate_full if mode == "full" else dynamics.integrate_reduced
    traj, ours, ref = run_both(
        monkeypatch, integrate, mesh, body, env,
        t_end=SPAN, dt=0.01, method=method, **start,
    )
    assert_same_run(ours, ref)
    assert ours.status == 0 and not traj.terminated_early


@pytest.mark.parametrize("method", EXPLICIT)
def test_gimbal_halt_keeps_the_same_samples(monkeypatch, cube, env, method):
    # the spinning cube of test_dynamics' gimbal-lock test
    body = BodyProperties(1000.0, 1000.0 / 6.0 * np.eye(3))
    state = FullState(Pose(zeta=3.0), np.array([0, 0, 0, 0, 1.0, 0]))
    traj, ours, ref = run_both(
        monkeypatch, integrate_full, cube, body, env, state, 5.0, 0.05, method=method
    )
    assert_same_run(ours, ref)
    assert ours.status == 1 and traj.terminated_early
    assert traj.t[-1] < 1.6


def pendulum(t, y):
    return np.array([y[1], -math.sin(y[0]) - 0.1 * y[1], 0.3 * y[0]])


def swing_limit(t, y):
    """Crosses zero when the swing first exceeds a slowly growing limit."""
    return 0.9 + 0.05 * t - abs(y[0])


swing_limit.terminal = True


def both_on_pendulum(t_end, method, **options):
    t_eval = np.linspace(0.0, t_end, 51)
    y0 = np.array([1.0, 0.5, 0.2])
    ours = rk.solve(pendulum, (0.0, t_end), y0, t_eval, swing_limit, **options)
    ref = solve_ivp(pendulum, (0.0, t_end), y0, method=method, t_eval=t_eval,
                    events=[swing_limit], **options)
    return ours, ref


@pytest.mark.parametrize("method", EXPLICIT)
@pytest.mark.parametrize("t_end", [1.0, 10.0], ids=["to_the_end", "halted"])
@pytest.mark.parametrize("options", [
    {"rtol": 1e-6, "atol": 1e-8, "max_step": 0.3},
    {"rtol": 1e-6, "atol": np.array([1e-8, 1e-6, 1e-10]), "max_step": np.inf},
    {"rtol": 1e-4, "atol": 0.0, "max_step": 1},
], ids=["max_step", "atol_vector", "pure_relative"])
def test_options_match_solve_ivp(method, t_end, options):
    ours, ref = both_on_pendulum(t_end, method, **options)
    assert_same_run(ours, ref)
    assert ours.status == (t_end == 10.0)


@pytest.mark.parametrize("method", EXPLICIT)
def test_rtol_floor_matches_solve_ivp(method):
    # rtol below 100 eps is raised to it, with a warning, by both
    with pytest.warns(UserWarning, match="rtol") as record:
        ours, ref = both_on_pendulum(1.0, method, rtol=0.0, atol=1e-12, max_step=np.inf)
    assert sum("rtol" in str(w.message) for w in record) == 2
    assert_same_run(ours, ref)


@pytest.mark.parametrize("options", [
    {"max_step": 0.0}, {"max_step": -1.0}, {"atol": -1e-9}, {"atol": np.ones(2)},
])
def test_invalid_options_rejected_like_solve_ivp(options):
    options = {"rtol": 1e-6, "atol": 1e-8, "max_step": np.inf, **options}
    y0 = np.array([1.0, 0.5, 0.2])
    with pytest.raises(ValueError):
        solve_ivp(pendulum, (0.0, 1.0), y0, method="DOP853", **options)
    with pytest.raises(ValueError):
        rk.solve(pendulum, (0.0, 1.0), y0, [0.0, 1.0], swing_limit, **options)


def nan_after(t_bad):
    """A decay that turns to NaN after ``t_bad``."""

    def rhs(t, y):
        return -y if t <= t_bad else np.full_like(y, np.nan)

    return rhs


#: how every method fails on ``nan_after(0.05)``: at the first call past
#: 0.05, whose time depends on the method's steps
FAILURES = {
    method: r"^integration failed at t = 0\.0[56]\d*: the right-hand side is not finite$"
    for method in EXPLICIT + ("LSODA",)
}


@pytest.mark.parametrize("method", FAILURES)
def test_failed_integration_raises(method):
    # unchecked, the explicit methods underflow their step size and LSODA
    # reports success with NaN samples; the integrator must not hand back a
    # truncated or NaN run
    with pytest.raises(IntegrationFailed, match=FAILURES[method]):
        dynamics._solve(nan_after(0.05), np.array([0.0, 1.0]), 0, 1.0, 0.01, method,
                        1e-9, 1e-10, np.inf)


def jump_at_half(t, y):
    """A finite slope too steep to follow after ``t = 0.5``; the second
    component, the pitch for the gimbal guard, stays zero."""
    return np.array([1e100 if t > 0.5 else 0.0, 0.0])


@pytest.mark.parametrize("method", EXPLICIT)
def test_step_size_underflow_raises(method):
    # solve_ivp gives up on the same slope with status -1
    ref = solve_ivp(jump_at_half, (0.0, 1.0), np.zeros(2), method=method,
                    rtol=1e-9, atol=1e-10)
    assert ref.status == -1 and "spacing between numbers" in ref.message
    with pytest.raises(IntegrationFailed,
                       match=r"^integration failed at t = 0\.5: .* below the spacing of floats"):
        rk.solve(jump_at_half, (0.0, 1.0), np.zeros(2), np.linspace(0.0, 1.0, 11),
                 lambda t, y: 1.0, 1e-9, 1e-10, np.inf)


def test_lsoda_that_cannot_advance_raises():
    # LSODA stalls below t = 0.64 on this slope and ran without end; the
    # right-hand side refuses to be called past twice the stall bound, so
    # a run that misses the bound fails instead of hanging
    calls = 0

    def counted(t, y):
        nonlocal calls
        calls += 1
        assert calls <= 2 * dynamics.STALL_CALLS, "LSODA ran on past the stall bound"
        return jump_at_half(t, y)

    with pytest.raises(IntegrationFailed, match=r"^integration failed: cannot advance past "
                                                r"t = 0\.[5-9]\d* in 10000 right-hand-side"):
        dynamics._solve(counted, np.zeros(2), 1, 1.0, 0.1, "LSODA", 1e-9, 1e-10, np.inf)


def test_invalid_implicit_options_stay_value_errors():
    # an invalid option is the caller's error, not a failed integration
    with pytest.raises(ValueError, match="atol"):
        dynamics._solve(nan_after(0.05), np.array([0.0, 1.0]), 0, 1.0, 0.01, "LSODA",
                        1e-9, -1.0, np.inf)
