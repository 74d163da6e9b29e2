"""Command-line front end.

Subcommands
-----------
analyze   equilibrium, stability and normal modes -> JSON report
simulate  integrate full or reduced dynamics -> CSV trajectory
verify    run the residual property suites on user geometry
clip      export the submerged part at a pose as STL (debugging aid)

Exit codes: 0 success, 1 error, 2 equilibrium found but not
pseudo-stable (so sweep scripts can tell the outcomes apart) or a usage
error on the command line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import (
    FullState, ReducedState, cyclic_rates, integrate_full, integrate_reduced, kinetic_metric,
)
from .clipping import clip_by_waterplane
from .errors import ConfigError, FloatDynError
from .kinematics import COORD_NAMES, CYCLIC, NONCYCLIC, RATE_NAMES, Pose
from .mesh import save_stl
from .report import (
    DEFAULT_DT, DEFAULT_T_END, AnalysisConfig, load_body, load_equilibrium, run_analysis,
)
from .verification import TOLERANCES, run_verification

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_PSEUDO_STABLE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floatdyn",
        description="Hydrostatics, stability and dynamics of floating hulls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="equilibrium + stability + modes")
    p_analyze.set_defaults(run=_cmd_analyze)
    p_analyze.add_argument("--config", required=True, help="JSON config path")
    p_analyze.add_argument("--out", default=None, help="report path (JSON)")

    p_sim = sub.add_parser("simulate", help="integrate the dynamics")
    p_sim.set_defaults(run=_cmd_simulate)
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None, help="trajectory path (CSV)")
    p_sim.add_argument("--mode", choices=("full", "reduced"), default="full")

    p_verify = sub.add_parser("verify", help="run property suites on the geometry")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--poses", type=int, default=25)
    p_verify.add_argument("--loops", type=int, default=5)

    p_clip = sub.add_parser("clip", help="export the submerged part as STL")
    p_clip.set_defaults(run=_cmd_clip)
    p_clip.add_argument("--config", required=True)
    p_clip.add_argument("--out", required=True)
    p_clip.add_argument("--pose", default="0,0,0",
                        help="zeta,theta,phi; write --pose=-0.1,0,0 for a negative zeta")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (FloatDynError, OSError) as exc:
        # OSError: an --out path that cannot be written, an unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _cmd_analyze(args) -> int:
    report = run_analysis(AnalysisConfig.from_file(args.config))
    if args.out:
        report.save(args.out)
    stab = report.stability
    eq = report.equilibrium
    print(
        f"equilibrium: zeta*={eq['pose']['zeta']:.6g} m, "
        f"theta*={eq['pose']['theta']:.6g} rad, phi*={eq['pose']['phi']:.6g} rad "
        f"({eq['iterations']} iterations)"
    )
    print(
        f"GM_T={stab['gm_transverse']:.6g} m, GM_L={stab['gm_longitudinal']:.6g} m, "
        f"displacement={stab['displacement']:.6g} N"
    )
    freqs = [f for f in report.modal["frequencies_hz"] if f is not None]
    if freqs:
        print("mode frequencies [Hz]: " + ", ".join(f"{f:.6g}" for f in freqs))
    verdict = "pseudo-stable" if stab["pseudo_stable"] else "NOT pseudo-stable"
    print(f"verdict: {verdict}")
    if args.out:
        print(f"report written to {args.out}")
    return EXIT_OK if stab["pseudo_stable"] else EXIT_NOT_PSEUDO_STABLE


def _cmd_simulate(args) -> int:
    config = AnalysisConfig.from_file(args.config)
    mesh, body, _, env, equilibrium = load_equilibrium(config)
    sim = config.simulate
    t_end = float(sim.get("t_end", DEFAULT_T_END))
    dt = float(sim.get("dt", DEFAULT_DT))

    start = _initial_state(args.mode, equilibrium.pose, sim, body)
    integrate = integrate_full if args.mode == "full" else integrate_reduced
    traj = integrate(mesh, body, env, t_end=t_end, dt=dt, **start, **config.integrator)

    if args.out:
        traj.to_csv(args.out)
        print(f"trajectory written to {args.out}")
    drift = traj.momentum_drift()
    print(
        f"samples: {len(traj.t)}, energy drift (relative): {traj.energy_drift():.3e}, "
        f"momentum drift: {drift[0]:.3e}, {drift[1]:.3e}, {drift[2]:.3e}"
    )
    if traj.terminated_early:
        print("warning: integration halted early (gimbal guard)", file=sys.stderr)
    return EXIT_OK


def _initial_state(mode, eq_pose, sim, body):
    """Integrator start arguments: the equilibrium plus ``simulate.initial``.

    ``simulate.momenta`` fixes the surge, sway and yaw rates: a reduced
    run holds them, a full run starts from the rates they give at the
    start pose.  Either way those rates may not be given as well.
    """
    deviation = sim.get("initial", {})

    def value(name):
        return float(deviation.get(name, 0.0))

    if mode == "reduced" or "momenta" in sim:
        for name in (RATE_NAMES[i] for i in CYCLIC):
            if name in deviation:
                raise ConfigError(
                    f"'simulate.initial.{name}' is fixed by 'simulate.momenta' in {mode} mode"
                )
    q = np.array([value(name) for name in COORD_NAMES])
    q[list(NONCYCLIC)] += (eq_pose.zeta, eq_pose.theta, eq_pose.phi)
    rates = np.array([value(name) for name in RATE_NAMES])
    momenta = np.asarray(sim.get("momenta", (0.0, 0.0, 0.0)), dtype=float)
    if mode == "reduced":
        return {
            "initial": ReducedState(q[list(NONCYCLIC)], rates[list(NONCYCLIC)], momenta),
            "cyclic_start": q[list(CYCLIC)],
        }
    pose = Pose.from_array(q)
    if "momenta" in sim:
        metric = kinetic_metric(body, pose.theta, pose.phi)
        with np.errstate(over="ignore"):
            rates[list(CYCLIC)] = cyclic_rates(metric, rates[list(NONCYCLIC)], momenta)
        if not np.isfinite(rates).all():
            raise ConfigError(f"'simulate.momenta' {momenta.tolist()} give surge, sway or yaw "
                              "rates past the float range")
    return {"initial": FullState(pose, rates)}


def _cmd_verify(args) -> int:
    config = AnalysisConfig.from_file(args.config)
    for flag, count, least in (("--seed", args.seed, 0), ("--poses", args.poses, 1),
                               ("--loops", args.loops, 1)):
        if count < least:
            raise ConfigError(f"'{flag}' must be an integer of at least {least}, got {count}")
    mesh, _, _ = load_body(config)
    residuals = run_verification(
        mesh, config.environment(), seed=args.seed, n_poses=args.poses, n_loops=args.loops
    )
    passed = {name: residuals[name] <= tol for name, tol in TOLERANCES.items()}
    for name, tol in TOLERANCES.items():
        status = "PASS" if passed[name] else "FAIL"
        print(f"{name:24s} max residual {residuals[name]:.3e}  (tol {tol:.1e})  {status}")
    ok = all(passed.values())
    if args.out:
        tols = {f"{name}_tol": tol for name, tol in TOLERANCES.items()}
        Path(args.out).write_text(json.dumps({**residuals, **tols, "passed": ok}, indent=2) + "\n")
    return EXIT_OK if ok else EXIT_ERROR


def _cmd_clip(args) -> int:
    config = AnalysisConfig.from_file(args.config)
    mesh, _, _ = load_body(config)
    try:
        values = [float(x) for x in args.pose.split(",")]
        if len(values) > 3:
            raise ValueError(f"expected at most three values, got {len(values)}")
        zeta, theta, phi = values + [0.0] * (3 - len(values))
        pose = Pose(zeta=zeta, theta=theta, phi=phi)
    except ValueError as exc:
        raise ConfigError(f"invalid --pose {args.pose!r}: {exc}") from exc
    solid = clip_by_waterplane(mesh, pose)
    if solid.is_empty:
        print("fully emerged: nothing to export", file=sys.stderr)
        return EXIT_ERROR
    save_stl(args.out, solid.boundary_triangles(), name="submerged")
    print(
        f"wrote {args.out}: {len(solid.hull_triangles)} hull triangles, "
        f"{len(solid.cap_polygons)} cap triangles"
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
