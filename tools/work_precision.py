"""Work-precision sweep of the integrator methods on free releases.

Usage (from the repository root, SciPy required)::

    python3 tools/work_precision.py [--out BENCH_work_precision.json]

Every method ``solve_ivp`` offers runs, through SciPy, on the package's
own full-mode right-hand side, captured from ``dynamics._solve`` as
``tests/test_rk.py`` does.  The dropped methods run too, so the verdict
can be rerun.  Each release lasts 10 s and is sampled every 0.01 s:

* the bench barge (seed 1) at its equilibrium plus heave 0.01 m and
  roll 0.05, 0.3 or 0.6 rad;
* the bench L-prism (seed 1) at its equilibrium plus heave 0.005 m and
  pitch and roll 0.05 rad.

``rtol`` runs from 1e-5 to 1e-13 with ``atol = rtol / 10``.  The error
of a run is its largest deviation in heave, pitch and roll from DOP853 at
``rtol`` 1e-13, each divided by the reference's range of that coordinate
plus 1e-3.  The calls are the right-hand-side calls, counted at the
right-hand side, so finite-difference Jacobians count too.

The verdict rule, printed at the end, is:

* only runs whose relative energy drift is below 1e-7 count (the bar the
  benchmark sets for ``simulate``);
* errors are floored at the disagreement of DOP853 and LSODA at 1e-13,
  below which the reference cannot rank runs;
* a run is beaten by a run of another kept method (``dynamics.METHODS``)
  on the same release with fewer calls and an error no larger.

A run is skipped, and listed as such, when the same method's run at the
next looser ``rtol`` took more than ``SKIP_AFTER_CALLS`` calls.  The
results, the floors, the verdict per method, SciPy's version and the
machine block of ``tools/machine.py`` go to the JSON file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.integrate import solve_ivp

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

from floatdyn import dynamics  # noqa: E402
from floatdyn.cli import _initial_state  # noqa: E402
from floatdyn.report import AnalysisConfig, load_equilibrium  # noqa: E402
from machine import machine  # noqa: E402

ALL_METHODS = ("DOP853", "RK45", "LSODA", "RK23", "BDF", "Radau")
RTOLS = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13)
REFERENCE_RTOL = 1e-13
T_END, DT = 10.0, 0.01
DRIFT_BAR = 1e-7
SKIP_AFTER_CALLS = 60_000
#: (name, bench workload, deviation from the equilibrium)
RELEASES = (
    ("barge-roll-0.05", "barge", {"zeta": 0.01, "phi": 0.05}),
    ("barge-roll-0.3", "barge", {"zeta": 0.01, "phi": 0.3}),
    ("barge-roll-0.6", "barge", {"zeta": 0.01, "phi": 0.6}),
    ("lprism", "lprism", {"zeta": 0.005, "theta": 0.05, "phi": 0.05}),
)


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def release_setup(workload, deviation, directory):
    """Mesh, body, fluid and full-mode start of one release."""
    hulls, run = bench_module("hulls"), bench_module("run")
    config = AnalysisConfig.from_file(hulls.BUILDERS[workload](directory, run.input_rng(1)))
    mesh, body, _, env, equilibrium = load_equilibrium(config)
    start = _initial_state("full", equilibrium.pose, {"initial": deviation}, body)
    return mesh, body, env, start["initial"]


def run_once(setup, method, rtol):
    """Samples, calls, energy drift and wall time of one release."""
    calls = 0

    def scipy_solve(rhs, y0, theta_index, t_end, dt, _method, rtol, atol, max_step):
        def counted(t, y):
            nonlocal calls
            calls += 1
            return rhs(t, y)

        sol = solve_ivp(counted, (0.0, t_end), y0, method=method, rtol=rtol, atol=atol,
                        t_eval=dynamics._sample_times(t_end, dt), max_step=max_step)
        if sol.status != 0:
            raise RuntimeError(f"{method} at rtol {rtol:g}: {sol.message}")
        sol.nfev = calls
        return sol

    solve, dynamics._solve = dynamics._solve, scipy_solve
    try:
        began = time.perf_counter()
        traj = dynamics.integrate_full(*setup, T_END, DT, rtol=rtol, atol=rtol / 10)
        seconds = time.perf_counter() - began
    finally:
        dynamics._solve = solve
    return traj.q[:, [2, 4, 5]], calls, traj.energy_drift(), seconds


def error(q, reference):
    scale = np.ptp(reference, axis=0) + 1e-3
    return float(np.max(np.abs(q - reference) / scale))


def verdict(runs, floors):
    """Mark each counted run beaten or not; the tally per method."""
    counted = [r for r in runs if r["drift"] < DRIFT_BAR]
    for r in counted:
        r["floored_error"] = max(r["error"], floors[r["release"]])
    for r in counted:
        rivals = [s for s in counted if s["release"] == r["release"] and s["method"] != r["method"]
                  and s["method"] in dynamics.METHODS and s["calls"] < r["calls"]
                  and s["floored_error"] <= r["floored_error"]]
        best = min(rivals, key=lambda s: s["calls"], default=None)
        r["beaten_by"] = None if best is None else {"method": best["method"], "rtol": best["rtol"]}
    tally = {}
    for method in ALL_METHODS:
        mine = [r for r in runs if r["method"] == method]
        kept = [r for r in mine if r["drift"] < DRIFT_BAR]
        beaten = sum(r["beaten_by"] is not None for r in kept)
        tally[method] = {
            "runs": len(mine), "counted": len(kept), "beaten": beaten,
            "all_beaten": beaten == len(kept), "kept": method in dynamics.METHODS,
        }
    return tally


def to_json(result):
    """``result`` as JSON text with one line per top-level key and per run."""
    parts = []
    for key, value in result.items():
        if key in ("runs", "skipped"):
            rows = ",\n  ".join(json.dumps(item) for item in value)
            parts.append(f' "{key}": [\n  {rows}\n ]')
        else:
            parts.append(f' "{key}": {json.dumps(value)}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def machine_block() -> dict:
    """The shared machine block (``tools/machine.py``) and SciPy's version."""
    return {**machine(), "scipy": scipy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_work_precision.json"))
    args = parser.parse_args(argv)
    began = time.perf_counter()
    runs, skipped, floors = [], [], {}
    with tempfile.TemporaryDirectory() as directory:
        for name, workload, deviation in RELEASES:
            setup = release_setup(workload, deviation, Path(directory))
            reference, *_ = run_once(setup, "DOP853", REFERENCE_RTOL)
            for method in ALL_METHODS:
                last = None
                for rtol in RTOLS:
                    if last is not None and last["calls"] > SKIP_AFTER_CALLS:
                        skipped.append({"release": name, "method": method, "rtol": rtol,
                                        "reason": f"the run at rtol {last['rtol']:g} took "
                                                  f"{last['calls']} calls"})
                        continue
                    q, calls, drift, seconds = run_once(setup, method, rtol)
                    runs.append({"release": name, "method": method, "rtol": rtol,
                                 "calls": calls, "error": error(q, reference),
                                 "drift": drift, "seconds": round(seconds, 3)})
                    last = runs[-1]
                    print(f"{name:16s} {method:6s} rtol {rtol:.0e}: {calls:7d} calls, "
                          f"error {runs[-1]['error']:.2e}, drift {drift:.2e}", flush=True)
            lsoda = next(r for r in runs if r["release"] == name and r["method"] == "LSODA"
                         and r["rtol"] == REFERENCE_RTOL)
            floors[name] = lsoda["error"]
    tally = verdict(runs, floors)
    result = {
        "releases": [{"name": n, "workload": w, "deviation": d} for n, w, d in RELEASES],
        "t_end": T_END, "dt": DT, "rtols": list(RTOLS), "atol": "rtol / 10",
        "reference": {"method": "DOP853", "rtol": REFERENCE_RTOL},
        "rule": {"drift_bar": DRIFT_BAR, "floor": "LSODA against the reference at rtol 1e-13",
                 "beaten": "a run of another kept method on the same release with fewer "
                           "calls and a floored error no larger",
                 "kept_methods": list(dynamics.METHODS), "skip_after_calls": SKIP_AFTER_CALLS},
        "floors": floors,
        "verdict": tally,
        "runs": runs,
        "skipped": skipped,
        "machine": machine_block(),
        "seconds": round(time.perf_counter() - began, 1),
    }
    Path(args.out).write_text(to_json(result))
    print(f"only runs with relative energy drift below {DRIFT_BAR:g} count; errors are floored "
          "at the DOP853-LSODA disagreement at rtol 1e-13; a run is beaten by a run of another "
          f"kept method ({', '.join(dynamics.METHODS)}) with fewer calls and an error no larger")
    for method, t in tally.items():
        print(f"{method:6s} {'kept' if t['kept'] else 'dropped':7s} {t['counted']:2d} of "
              f"{t['runs']:2d} runs counted, {t['beaten']:2d} beaten")
    print(f"wrote {args.out} in {result['seconds']} s")


if __name__ == "__main__":
    main()
