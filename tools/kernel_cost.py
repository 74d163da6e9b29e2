"""Kernel cost of two source trees: one pose at a time and stacked poses.

Usage (from the repository root)::

    python3 tools/kernel_cost.py PARENT_SRC CHANGE_SRC [--rounds 15] [--out BENCH_kernel.json]
    python3 tools/kernel_cost.py --smoke SRC SRC --out kernel.json

``PARENT_SRC`` and ``CHANGE_SRC`` are ``src`` directories, for example of
a ``git archive`` copy of the parent commit and of the working tree.
Each round starts one child process per tree, both pinned to one CPU;
the tree that starts first alternates from round to round, and the rounds
take the CPUs in turn.  The two children take turns through a lock file:
each holds it while it imports and builds its inputs and while it times
one pass, so no timed stretch shares the CPU with the other child, and
both meet the CPU in the same speed state.  On a shared host one CPU can
run 1.5 to 2 times slower than the other for seconds at a time, so
children run one after the other can disagree by that much.

A child builds the seed-1 barge and L-prism inputs of the benchmark
(``bench/hulls.py`` and ``bench/run.make_poses``, imported read-only
through ``run.build_case``) and times, on each pose set:

* ``evaluate_us``: the median of single calls of ``clipping.evaluate``,
  with the mesh's last-pose slot cleared before each, so every call runs
  the kernel (its topology memo, where the tree has one, stays warm);
* ``pose_us``: the median of the benchmark's pose evaluation,
  ``hydrostatics.hydrostatic_state`` then ``hydrostatics.force_gradient``
  at the same pose, with the slot cleared before each pair;
* ``evaluate_cold_us``: ``evaluate_us`` with the slot and the topology
  memo both cleared before each call, so every call classifies the faces;
* ``evaluate_many_row_us``: the median over passes of one
  ``clipping.evaluate_many`` call on the whole pose set, per pose.

The JSON file gets, per workload and metric, each tree's round values
with their median and quartiles, the ratio of the change's median to the
parent's, the per-round ratios with their median and quartiles, and in
how many rounds the change was faster; and the machine block of
``tools/machine.py``: the CPU, Python, numpy and its BLAS, and
``OPENBLAS_CORETYPE`` and ``OPENBLAS_NUM_THREADS`` as the children saw
them.  ``--smoke`` runs one short round, to check the tool,
not the trees.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from machine import machine

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("barge", "lprism")
METRICS = ("evaluate_us", "pose_us", "evaluate_cold_us", "evaluate_many_row_us")
SEED = 1
#: passes over each pose set per child: (full run, smoke run)
PASSES = (9, 1)


@contextmanager
def turn(lock):
    """Hold the round's lock file, then give the other child its turn."""
    fcntl.flock(lock, fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.flock(lock, fcntl.LOCK_UN)
        time.sleep(1e-3)


def child(src: str, passes: int, lock_path: str) -> dict:
    """Time both kernels of the tree at ``src`` in this process."""
    with open(lock_path, "a") as lock:
        with turn(lock), tempfile.TemporaryDirectory() as tmp:
            sys.path[:0] = [src, str(ROOT / "bench")]
            import run

            from floatdyn import clipping, hydrostatics
            from floatdyn.kinematics import k3_body

            cases = {}
            for workload in WORKLOADS:
                (Path(tmp) / workload).mkdir()
                cases[workload] = run.build_case(workload, SEED, Path(tmp) / workload)
        out = {}
        for workload, case in cases.items():
            mesh, env, poses = case["mesh"], case["env"], case["poses"]
            zeta = np.array([pose.zeta for pose in poses])
            k3 = np.array([k3_body(pose) for pose in poses])

            def evaluate(pose):
                clipping.evaluate(mesh, pose)

            def pose_pair(pose):
                hydrostatics.hydrostatic_state(mesh, pose, env)
                hydrostatics.force_gradient(mesh, pose, env)

            # (metric, the call timed, whether the topology memo is cleared)
            single = [("evaluate_us", evaluate, False), ("pose_us", pose_pair, False),
                      ("evaluate_cold_us", evaluate, True)]
            times = {metric: [] for metric in METRICS}
            for _ in range(passes):
                for metric, call, cold in single:
                    with turn(lock):
                        for pose in poses:
                            mesh._last_evaluation = None
                            if cold:
                                mesh._topologies = {}
                            start = time.perf_counter_ns()
                            call(pose)
                            times[metric].append(time.perf_counter_ns() - start)
                with turn(lock):
                    start = time.perf_counter_ns()
                    clipping.evaluate_many(mesh, zeta, k3)
                    times["evaluate_many_row_us"].append(
                        (time.perf_counter_ns() - start) / len(poses))
            out[workload] = {"poses": len(poses), **{
                metric: statistics.median(values) * 1e-3 for metric, values in times.items()}}
    return out


def spread(values) -> dict:
    """Median and quartiles of ``values``; one value is all three."""
    low, mid, high = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": mid, "q1": low, "q3": high, "rounds": values}


def run_round(trees: dict, passes: int, lock_path: Path) -> dict:
    """Start one child per tree, in the order of ``trees``, and read their results."""
    started = {
        side: subprocess.Popen(
            [sys.executable, __file__, "--child", str(src), "--passes", str(passes),
             "--lock", str(lock_path)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        for side, src in trees.items()
    }
    results = {}
    try:
        for side, process in started.items():
            out, _ = process.communicate()
            if process.returncode:
                raise SystemExit(f"the {side} child exited with code {process.returncode}")
            results[side] = json.loads(out.splitlines()[-1])
    finally:
        for process in started.values():
            if process.poll() is None:
                process.kill()
                process.wait()
    return results


def compare(parent: Path, change: Path, rounds: int, passes: int) -> tuple[list, dict]:
    samples = {"parent": [], "change": []}
    allowed = os.sched_getaffinity(0)
    cpus = [sorted(allowed)[k % len(allowed)] for k in range(rounds)]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for k, cpu in enumerate(cpus):
                # the children inherit the CPU this process is pinned to
                os.sched_setaffinity(0, {cpu})
                trees = {"parent": parent, "change": change}
                if k % 2:
                    trees = dict(reversed(trees.items()))
                for side, result in run_round(trees, passes, Path(tmp) / "lock").items():
                    samples[side].append(result)
                print(f"# round {k + 1}/{rounds}", file=sys.stderr)
        finally:
            os.sched_setaffinity(0, allowed)
    results = {}
    for workload in WORKLOADS:
        for metric in METRICS:
            pairs = [(p[workload][metric], c[workload][metric])
                     for p, c in zip(samples["parent"], samples["change"])]
            before, after = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
            results[f"{workload}.{metric}"] = {
                "parent": before,
                "change": after,
                "ratio": after["median"] / before["median"],
                "round_ratio": spread([c / p for p, c in pairs]),
                "change_faster_rounds": sum(c < p for p, c in pairs),
            }
    return cpus, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path, help="src directory of the parent tree")
    parser.add_argument("change", nargs="?", type=Path, help="src directory of the changed tree")
    parser.add_argument("--rounds", type=int, default=15, help="at least 7")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kernel.json")
    parser.add_argument("--smoke", action="store_true", help="one short round")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--lock", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.passes, args.lock)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_SRC and CHANGE_SRC are required")
    for src in (args.parent, args.change):
        if not (src / "floatdyn" / "__init__.py").is_file():
            parser.error(f"no floatdyn package in {src}")
    rounds, passes = (1, PASSES[1]) if args.smoke else (max(args.rounds, 7), PASSES[0])
    cpus, results = compare(args.parent.resolve(), args.change.resolve(), rounds, passes)
    report = {"seed": SEED, "rounds": rounds, "passes": passes, "round_cpus": cpus,
              "machine": machine(), "results": results}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for name, result in results.items():
        print(f"{name}: {result['parent']['median']:.2f} -> {result['change']['median']:.2f} us "
              f"(x{result['ratio']:.3f}; per round x{result['round_ratio']['median']:.3f}, "
              f"change faster in {result['change_faster_rounds']} of {rounds})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
