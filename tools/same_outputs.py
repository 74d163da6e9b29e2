"""Byte identity of the outputs of two source trees on the benchmark cases.

Usage (from the repository root)::

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC [--seeds 1 2 3] [--smoke]

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories, for example of
a ``git archive`` copy of the parent commit and of the working tree.  For
each workload of ``bench/run.py`` and each seed, a child process of each
tree builds the case through ``run.build_case`` (``bench`` imported
read-only, as ``tools/kernel_cost.py`` does), which writes the hull STL
and the config.  One more case, the tandem of the first seed, is the
barge case with two barges in one mesh (:func:`tandem_case`): the bench
hulls are single shells, so only it reaches a waterline of two loops in
``clip``, the overlap check of two shells and ``verify`` on such a hull.  The tree
then runs, as ``python -m floatdyn.cli`` children:

* every subcommand of ``run.cli_commands``, and ``verify`` once more
  with ``--out``;
* three spinning releases, since the bench releases have no yaw rate: a
  full one that adds the rates of :data:`SPIN` to the bench release, and
  a full and a reduced one that add the momenta, roll and rates of
  :data:`SPIN_MOMENTA`.

The child that builds the case also writes :data:`POSE_FILE`, the bytes
of what the benchmark's pose loop reads at every pose of the case's pose
set (:func:`pose_records`): every field of ``hydrostatic_state``, then
``force_gradient`` and ``generalized_forces``, and the ``evaluate_many``
rows of the same poses.  Half of the L-prism's poses put a vertex on the
waterline, which no CLI output reaches in bulk.  The tandem's poses are
drawn for its own mesh, every other one with a vertex on the waterline.

Both trees run in one work directory per case, one after the other, so
the paths echoed in the outputs agree; a tree runs :data:`WORKERS` of its
commands at a time, each of which writes its own files.  The standard
output, standard error and exit code of every command, and every file the
case leaves in the work directory (the report, the CSVs, the ``verify``
JSON, the clip STL, the hull STL, the configs and the pose records), are
compared byte for byte.  Each differing item is printed, and the exit code is 1 if any
differ.
``--smoke`` runs one case, the seed-1 L-prism.  The work is done in a
temporary directory and the children write no bytecode, so nothing is
written into either tree.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("barge", "lprism")
#: CLI children of one tree that run at a time
WORKERS = 2
#: rates added to the bench release in the full spinning release
SPIN = {"xi_dot": 0.1, "psi_dot": 0.7, "theta_dot": 0.3, "phi_dot": -0.4}
#: cyclic momenta and the start added to the bench release in the
#: releases run full and reduced
SPIN_MOMENTA = ([5.0, -3.0, 40.0], {"phi": 0.2, "theta_dot": 0.3, "phi_dot": -0.4})
#: the surge of the centres of the tandem's two barges, m, and the
#: ``(zeta, theta, phi)`` of its clip, which cuts both
TANDEM_SURGE = 3.4
TANDEM_CLIP = (0.05, 0.03, 0.1)
#: the file of :func:`pose_records` in each case's work directory
POSE_FILE = "pose_records.bin"


def tandem_case(run, seed: int, directory: Path) -> dict:
    """The barge case of ``seed`` (its densities, release and ``verify``
    arguments) with the hull replaced by two of its boxes, centred at
    ``x = +-TANDEM_SURGE``: one mesh of two shells."""
    from floatdyn import Pose, shapes
    from floatdyn.mesh import save_stl
    from floatdyn.report import AnalysisConfig, load_body

    with tempfile.TemporaryDirectory() as tmp:
        case = run.build_case("barge", seed, Path(tmp))
        config = json.loads(case["config"].read_text())
    hulls = [shapes.box(2.0, 1.0, 0.5).translated((x, 0.0, 0.0))
             for x in (TANDEM_SURGE, -TANDEM_SURGE)]
    save_stl(directory / "tandem.stl", [*hulls[0].triangle_vertices, *hulls[1].triangle_vertices])
    path = directory / "tandem.json"
    path.write_text(json.dumps({**config, "mesh_path": str(directory / "tandem.stl")}, indent=2)
                    + "\n")
    mesh, _, _ = load_body(AnalysisConfig.from_file(path))
    poses = run.make_poses(mesh, np.random.default_rng([seed, 3]), len(case["poses"]), 2)
    return {**case, "dir": directory, "config": path, "clip_pose": Pose(0.0, 0.0, *TANDEM_CLIP),
            "mesh": mesh, "poses": poses}


def pose_records(case) -> bytes:
    """The float bits of what the benchmark's pose loop reads at each of the
    case's poses, and of the ``evaluate_many`` rows of those poses."""
    from floatdyn import clipping, hydrostatics
    from floatdyn.kinematics import k3_body

    mesh, env, poses = case["mesh"], case["env"], case["poses"]
    records = []
    for pose in poses:
        state = hydrostatics.hydrostatic_state(mesh, pose, env)
        plane = state.waterplane
        records += [state.volume, state.buoyancy_center, plane.area, plane.centroid_offset,
                    plane.second_moment, state.potential, state.forces,
                    hydrostatics.force_gradient(mesh, pose, env),
                    hydrostatics.generalized_forces(mesh, pose, env)]
    batch = clipping.evaluate_many(mesh, [pose.zeta for pose in poses],
                                   np.array([k3_body(pose) for pose in poses]))
    records += [getattr(batch, field.name) for field in dataclasses.fields(batch)]
    return b"".join(np.asarray(record, dtype=float).tobytes() for record in records)


def build(src: str, workload: str, seed: int, directory: Path) -> dict:
    """Build the case with the tree at ``src`` and write its pose records;
    return its CLI argument lists and the number of poses."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [src, str(ROOT / "bench")]
    import run

    if workload == "tandem":
        case = tandem_case(run, seed, directory)
    else:
        case = run.build_case(workload, seed, directory)
    (directory / POSE_FILE).write_bytes(pose_records(case))
    commands = [argv for _, argv, _ in run.cli_commands(case)]
    verify = next(argv for argv in commands if argv[0] == "verify")
    commands.append([*verify, "--out", str(directory / "verify.json")])
    config = json.loads(case["config"].read_text())
    bench = config["simulate"]
    momenta, start = SPIN_MOMENTA
    releases = {
        "spin": ({**bench, "initial": {**bench["initial"], **SPIN}}, ("full",)),
        "spin_momenta": ({**bench, "initial": {**bench["initial"], **start}, "momenta": momenta},
                         ("full", "reduced")),
    }
    for name, (simulate, modes) in releases.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps({**config, "simulate": simulate}, indent=2) + "\n")
        for mode in modes:
            commands.append(["simulate", "--config", str(path), "--mode", mode,
                             "--out", str(directory / f"{name}_{mode}.csv")])
    return {"commands": commands, "poses": len(case["poses"])}


def run_tree(src: Path, workload: str, seed: int, work: Path, keep: Path) -> tuple[dict, int]:
    """Build and run one case with the tree at ``src`` in ``work``, then move
    what it wrote to ``keep``; return ``(exit code, stdout, stderr)`` by command,
    and the number of poses of the pose records."""
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    built = subprocess.run(
        [sys.executable, __file__, "--build", str(src), workload, str(seed), str(work)],
        capture_output=True, text=True, env=env, cwd=work,
    )
    if built.returncode:
        raise SystemExit(f"building {workload} seed {seed} with {src} failed:\n{built.stderr}")
    case = json.loads(built.stdout.splitlines()[-1])
    commands = case["commands"]

    def cli(argv):
        return subprocess.run([sys.executable, "-m", "floatdyn.cli", *argv],
                              capture_output=True, env=env, cwd=work)

    # every command writes its own files, so two at a time give the same bytes
    with ThreadPoolExecutor(WORKERS) as pool:
        procs = list(pool.map(cli, commands))
    streams = {" ".join(argv).replace(f"{work}{os.sep}", ""): (p.returncode, p.stdout, p.stderr)
               for argv, p in zip(commands, procs)}
    keep.parent.mkdir(parents=True, exist_ok=True)
    shutil.move(work, keep)
    return streams, case["poses"]


def differences(label: str, parent: tuple, change: tuple) -> list:
    """The items of one case that differ between the two trees' runs."""
    (parent_dir, parent_streams), (change_dir, change_streams) = parent, change
    found = []
    names = {p.name for p in parent_dir.iterdir()} | {p.name for p in change_dir.iterdir()}
    for name in sorted(names):
        a, b = parent_dir / name, change_dir / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            found.append(f"{label}: {name}")
    for command in sorted(set(parent_streams) | set(change_streams)):
        if command not in parent_streams or command not in change_streams:
            found.append(f"{label}: {command}: run by one tree only")
            continue
        for what, a, b in zip(("exit code", "stdout", "stderr"),
                              parent_streams[command], change_streams[command]):
            if a != b:
                found.append(f"{label}: {command}: {what}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path, help="src directory of the parent tree")
    parser.add_argument("change", nargs="?", type=Path, help="src directory of the changed tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--smoke", action="store_true", help="one case: the seed-1 L-prism")
    parser.add_argument("--build", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build:
        src, workload, seed, directory = args.build
        print(json.dumps(build(src, workload, int(seed), Path(directory))))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_SRC and CHANGE_SRC are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for src in trees.values():
        if not (src / "floatdyn" / "__init__.py").is_file():
            parser.error(f"no floatdyn package in {src}")
    cases = [("lprism", 1)] if args.smoke else [
        *((w, s) for w in WORKLOADS for s in args.seeds), ("tandem", args.seeds[0])]
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in cases:
            runs = []
            for side, src in trees.items():
                keep = Path(tmp) / side / f"{workload}-{seed}"
                streams, poses = run_tree(src, workload, seed, Path(tmp) / "work", keep)
                runs.append((keep, streams))
            label = f"{workload} seed {seed}"
            case = differences(label, *runs)
            files, commands = len(list(runs[0][0].iterdir())), len(runs[0][1])
            print(f"# {label}: {files} files, {commands} commands, {poses} poses, "
                  f"{len(case)} differ", file=sys.stderr)
            found += case
    for item in found:
        print(item)
    print(f"{len(found)} items differ" if found else "same outputs")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
