"""floatdyn benchmark: CLI wall times and pose-evaluation throughput.

Usage (from the repository root)::

    python3 bench/run.py --workload barge --seed 1 --seconds 30 --trace 0

One run builds the workload's hull and config from ``--seed``, then runs
rounds of the five ``floatdyn`` subcommands as child processes, one at a
time (a closed loop with a single client).  After each round a fresh
worker process (``pose_worker.py``) builds the inputs again several times
(the timed set-up) and passes over a seeded pose set a fixed number of
times.  The number of rounds is ``--seconds`` divided by the workload's
nominal round time, so a seed and a ``--seconds`` value always give the
same operations, and the same failures.  Every output is
checked.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the
per-layer metrics of a separate traced run (spans around each module's
public functions, see ``spans.py``) and the tracing overhead.

An operation is one CLI invocation or one pose evaluation.  A CLI exit
code other than 0, or a traceback, is a failed operation, except exit
code 2 from ``analyze``: that is the "not pseudo-stable" verdict.  A
pose evaluation that raises is a failed operation.  Failures are
counted, not fatal; a failed correctness check fails the run (exit code
1, no metrics).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- workloads -------------------------------------------------------------------

WORKLOADS = {
    # name: pose-set size, every n-th pose puts a vertex on the waterline
    # (0: none), passes over the pose set per round, extra ``verify``
    # arguments, nominal seconds of one round on a 2-core x86-64 host
    "barge": dict(poses=200, snap_every=0, passes=3, verify=[], round_s=13.0),
    # 240 of the 480 L-prism poses touch the waterline with a vertex, so
    # the ClipDegenerate defect shows on every seed.  The barge runs the
    # loop-work suite at its default size; two loops here keep a run of
    # five rounds within the time the benchmark may take on a slow host.
    "lprism": dict(poses=480, snap_every=2, passes=1, verify=["--loops", "2"], round_s=10.0),
}


def rounds_for(workload, seconds):
    """Rounds that fill about ``seconds``: fixed by the arguments alone, so
    two runs with the same seed attempt the same operations."""
    return max(1, round(seconds / WORKLOADS[workload]["round_s"]))


def input_rng(seed):
    return np.random.default_rng([seed, 1])


def make_poses(mesh, rng, count, snap_every):
    """Seeded partially-submerged poses; every ``snap_every``-th one puts
    a random vertex exactly on the waterline."""
    from floatdyn.kinematics import Pose, k3_body

    poses = []
    for k in range(count):
        theta, phi = (float(x) for x in rng.uniform(-0.3, 0.3, 2))
        heights = mesh.vertices @ k3_body(Pose(theta=theta, phi=phi))
        if snap_every and k % snap_every == snap_every - 1:
            zeta = -heights[rng.integers(len(heights))]
        else:
            lo, hi = heights.min(), heights.max()
            zeta = -(lo + rng.uniform(0.05, 0.95) * (hi - lo))
        poses.append(Pose(zeta=float(zeta), theta=theta, phi=phi))
    return poses


def evaluate(case, pose):
    """One pose evaluation; return (seconds, exception name or None)."""
    from floatdyn import hydrostatics

    mesh, env = case["mesh"], case["env"]
    start = time.perf_counter_ns()
    try:
        state = hydrostatics.hydrostatic_state(mesh, pose, env)
        grad = hydrostatics.force_gradient(mesh, pose, env)
    except Exception as exc:  # counted as a failed operation
        return (time.perf_counter_ns() - start) * 1e-9, type(exc).__name__
    seconds = (time.perf_counter_ns() - start) * 1e-9
    check(np.all(np.isfinite(state.forces)) and np.all(np.isfinite(grad)),
          f"non-finite forces or gradient at {pose}")
    check(-1e-12 <= state.volume <= mesh.volume * (1 + 1e-9),
          f"submerged volume {state.volume} outside [0, {mesh.volume}]")
    return seconds, None


def pose_chunk(case, poses, tally, tracer=None):
    """Evaluate ``poses`` in order; return the time of each evaluation."""
    times = []
    for pose in poses:
        if tracer is not None:
            tracer.op = tally.attempted
        seconds, error = evaluate(case, pose)
        times.append(seconds)
        tally.add_pose(error)
    return times


# -- CLI commands ------------------------------------------------------------------


def cli_commands(case):
    """(metric, argv, checker) for the five subcommands of one round."""
    work = case["dir"]
    config = str(case["config"])
    pose = case["clip_pose"]
    return [
        ("analyze_s", ["analyze", "--config", config, "--out", str(work / "report.json")],
         check_analyze),
        ("simulate_full_s", ["simulate", "--config", config, "--mode", "full",
                             "--out", str(work / "full.csv")], check_simulate),
        ("simulate_reduced_s", ["simulate", "--config", config, "--mode", "reduced",
                                "--out", str(work / "reduced.csv")], check_simulate),
        ("verify_s", ["verify", "--config", config, "--seed", str(case["verify_seed"]),
                      *case["verify_args"]], check_verify),
        ("clip_s", ["clip", "--config", config, "--out", str(work / "clip.stl"),
                    f"--pose={pose.zeta!r},{pose.theta!r},{pose.phi!r}"], check_clip),
    ]


def run_cli(argv, work: Path, spans_file=None, op=0):
    """Run one CLI command; return (wall s, exit code, peak RSS MB, stdout, stderr)."""
    if spans_file is None:
        cmd = [sys.executable, "-m", "floatdyn.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_file), str(op),
               "--", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=work)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, code, usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text()


def check_analyze(case, argv, stdout):
    report = json.loads((case["dir"] / "report.json").read_text())
    eq, stab, hydro = report["equilibrium"], report["stability"], report["hydrostatics"]
    check(eq["converged"], "equilibrium did not converge")
    check(stab["pseudo_stable"], "equilibrium is not pseudo-stable")
    name = case["workload"]
    if name == "barge":
        # draft = depth of G plus the half height of the re-centered box
        draft = eq["pose"]["zeta"] + 0.25
        check(abs(draft - 0.25) <= 1e-9, f"barge draft {draft!r} != 0.25")
        check(abs(stab["gm_transverse"] - 5 / 24) <= 1e-9,
              f"barge GM_T {stab['gm_transverse']!r} != 5/24")
        check(abs(stab["gm_longitudinal"] - 29 / 24) <= 1e-9,
              f"barge GM_L {stab['gm_longitudinal']!r} != 29/24")
    if name == "lprism":
        tilt = max(abs(eq["pose"]["theta"]), abs(eq["pose"]["phi"]))
        check(tilt > 1e-3, "L-prism equilibrium is level; expected trim and heel")


def read_csv(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_simulate(case, argv, stdout):
    path = Path(argv[argv.index("--out") + 1])
    header, table = read_csv(path)
    sim = case["simulate"]
    expected = int(round(sim["t_end"] / sim["dt"])) + 1
    check(len(table) == expected, f"{path.name}: {len(table)} samples, expected {expected}")
    energy = table[:, header.index("E")]
    drift = (energy.max() - energy.min()) / max(abs(energy).max(), 1e-300)
    check(drift < 1e-7, f"{path.name}: relative energy drift {drift:.3e} >= 1e-7")
    case["csv_sha256"].setdefault(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
    full, reduced = case["dir"] / "full.csv", case["dir"] / "reduced.csv"
    if path == reduced and full.exists():
        # zero-momentum release: both routes give the same non-cyclic motion
        cols = [header.index(c) for c in ("zeta", "theta", "phi")]
        gap = abs(read_csv(full)[1][:, cols] - table[:, cols]).max()
        check(gap < 1e-6, f"full and reduced (zeta, theta, phi) differ by {gap:.3e}")


def check_verify(case, argv, stdout):
    lines = [line for line in stdout.splitlines() if "max residual" in line]
    check(len(lines) == 4, f"verify printed {len(lines)} suite lines, expected 4")
    for line in lines:
        check(line.rstrip().endswith("PASS"), f"verify: {line.strip()}")


def check_clip(case, argv, stdout):
    raw = (case["dir"] / "clip.stl").read_bytes()
    count = int.from_bytes(raw[80:84], "little")
    tris = np.frombuffer(raw[84:], dtype=np.uint8).reshape(count, 50)[:, 12:48]
    tris = tris.copy().view("<f4").reshape(count, 3, 3).astype(float)
    volume = np.einsum("ij,ij->i", tris[:, 0], np.cross(tris[:, 1], tris[:, 2])).sum() / 6
    target = case["clip_volume"]
    check(abs(volume - target) <= 1e-5 * case["mesh"].volume,
          f"clipped STL volume {volume!r} != {target!r}")


# -- reporting ---------------------------------------------------------------------


def high_percentile(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    usable = [p for p in (90.0, 99.0, 99.9) if len(values) * (1 - p / 100) >= 10]
    if not usable:
        return None
    return usable[-1], statistics.quantiles(values, n=1000)[int(usable[-1] * 10) - 1]


def describe(name, value, unit, samples=None):
    text = f"{name:34s} {value:.6g} {unit}"
    if samples is not None:
        text += f"  (median of n={len(samples)}"
        high = high_percentile(samples)
        if high:
            text += f", p{high[0]:g}={high[1]:.6g}"
        text += ")"
    print(text)


def run_info():
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": src_lines,
    }


# -- the run -----------------------------------------------------------------------


def build_case(workload, seed, directory: Path):
    """Write the workload's hull and config into ``directory`` and load them
    in process as the CLI does, with the seeded poses."""
    import hulls
    from floatdyn.clipping import clip_by_waterplane, volume_and_first_moments
    from floatdyn.report import AnalysisConfig, load_body

    spec = WORKLOADS[workload]
    config_path = hulls.BUILDERS[workload](directory, input_rng(seed))
    config = AnalysisConfig.from_file(config_path)
    mesh, _, _ = load_body(config)
    rng = np.random.default_rng([seed, 2])
    clip_pose = make_poses(mesh, rng, 1, 0)[0]
    return {
        "workload": workload,
        "seed": seed,
        "dir": directory,
        "config": config_path,
        "mesh": mesh,
        "env": config.environment(),
        "simulate": config.simulate,
        "poses": make_poses(mesh, rng, spec["poses"], spec["snap_every"]),
        "clip_pose": clip_pose,
        "clip_volume": volume_and_first_moments(clip_by_waterplane(mesh, clip_pose))[0],
        "verify_seed": int(rng.integers(1 << 30)),
        "verify_args": spec["verify"],
        "csv_sha256": {},
    }


class Tally:
    """Attempted and failed operations, failures by kind.

    An operation's id, shared by its spans, is its index in this count.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()

    @property
    def failed(self):
        return sum(self.failures.values())

    def add_cli(self, name, code, stderr):
        self.attempted += 1
        # only analyze exits 2 as a verdict; argparse usage errors exit 2 too
        verdict = (2,) if name == "analyze_s" else ()
        if (code != 0 and code not in verdict) or "Traceback" in stderr:
            self.failures[f"{name} exit {code}"] += 1
            return False
        return True

    def add_pose(self, error):
        self.attempted += 1
        if error is not None:
            self.failures[error] += 1


def cli_loop(case, tally, rounds, spans_dir=None, after=None):
    """Run ``rounds`` rounds of the subcommands, calling ``after(n)`` after
    round n.  Return each round's wall times of the commands that
    succeeded, by metric, and the peak RSS."""
    commands = cli_commands(case)
    walls = []
    peak_rss = 0.0
    for n in range(rounds):
        walls.append({})
        for k, (metric, argv, checker) in enumerate(commands):
            spans_file = None if spans_dir is None else spans_dir / f"cli{n}-{k}.json"
            wall, code, rss, stdout, stderr = run_cli(argv, case["dir"], spans_file,
                                                      op=tally.attempted)
            peak_rss = max(peak_rss, rss)
            if tally.add_cli(metric, code, stderr):
                checker(case, argv, stdout)
                walls[-1][metric] = wall
            elif stderr.strip():
                print(f"# {metric} failed (exit {code}): {stderr.strip().splitlines()[-1]}")
        if after is not None:
            after(n)
    return walls, peak_rss


def pose_worker(case, n, tally, setup_times, latencies):
    """Time set-up and pose evaluations in a fresh process (``pose_worker.py``)."""
    directory = case["dir"] / f"worker{n}"
    directory.mkdir()
    cmd = [sys.executable, str(BENCH / "pose_worker.py"), case["workload"], str(case["seed"]),
           str(directory)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=directory)
    if proc.returncode != 0:
        raise CheckFailed(f"pose worker exit {proc.returncode}: "
                          f"{(proc.stderr.strip().splitlines() or [''])[-1]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    setup_times += result["setup_s"]
    latencies += result["latencies"]
    tally.attempted += len(result["latencies"])
    tally.failures.update(result["failures"])


def measure(args, work: Path, tally):
    case = build_case(args.workload, args.seed, work)
    setup_times, latencies = [], []
    rounds = rounds_for(args.workload, args.seconds)
    walls, peak_rss = cli_loop(
        case, tally, rounds,
        after=lambda n: pose_worker(case, n, tally, setup_times, latencies))
    names = [metric for metric, _, _ in cli_commands(case)]
    # a round counts only if all five commands succeeded
    totals = [sum(w.values()) for w in walls if len(w) == len(names)]
    if not totals:
        raise CheckFailed("no round in which every command succeeded")

    # A single command's wall time swings by a quarter from one second to
    # the next on a shared host; a round's total averages over its seconds.
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", setup_times),
        "cli_round_s": (statistics.median(totals), "s", totals),
        # the median evaluation, so a burst of host noise moves it little
        "pose_evals_per_s": (1.0 / statistics.median(latencies), "1/s", None),
        "peak_rss_mb": (peak_rss, "MB", None),
    }
    for name, (value, unit, values) in metrics.items():
        describe(name, value, unit, values)
    for name in names:
        values = [w[name] for w in walls if name in w]
        describe(name, statistics.median(values), "s", values)
    describe("pose_eval_latency_s", statistics.median(latencies), "s", latencies)
    print(f"{'failed_share':34s} {tally.failed / tally.attempted:.6g} share  "
          f"({tally.failed} of {tally.attempted} operations; {dict(tally.failures)})")
    return case, {name: (m[0], m[1]) for name, m in metrics.items()}


def measure_traced(args, work: Path, tally):
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        case = build_case(args.workload, args.seed, work)
    finally:
        tracer.restore()
    spans_dir = work / "spans"
    spans_dir.mkdir()
    walls, _ = cli_loop(case, tally, 1, spans_dir=spans_dir)
    sources = [tracer.spans]
    import_s = []
    for path in sorted(spans_dir.glob("*.json")):
        child = json.loads(path.read_text())
        sources.append(child)
        import_s += [(s[2] - s[1]) * 1e-9 for s in child if s[0] == "cli.import"]

    def traced_pass(recorder):
        recorder.install()
        try:
            return pose_chunk(case, case["poses"], tally, tracer=recorder)
        finally:
            recorder.restore()

    traced_pass(tracer)
    # untraced and traced passes alternate, a fixed number of each
    spec = WORKLOADS[args.workload]
    pairs = max(2, 4 * spec["passes"] * (rounds_for(args.workload, args.seconds) - 1))
    plain, traced = [], []
    for _ in range(pairs):
        plain += pose_chunk(case, case["poses"], tally)
        traced += traced_pass(spans.Tracer())
    overhead = 1.0 - statistics.median(plain) / statistics.median(traced)
    metrics = spans.layer_metrics(sources, import_s, overhead)
    # each command's wall time in the traced round, for attribution
    metrics.update({f"cli.{name}": (wall, "s") for name, wall in walls[0].items()})
    for name, (value, unit) in metrics.items():
        describe(name, value, unit)
    print(f"{'pose_evals_per_s untraced/traced':34s} {1 / statistics.median(plain):.6g} / "
          f"{1 / statistics.median(traced):.6g} 1/s")
    return case, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "floatdyn" / "__init__.py").is_file():
        print(f"error: floatdyn sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    print(f"# floatdyn benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    SCRATCH.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix="run-", dir=SCRATCH) as tmp:
        try:
            run = measure_traced if args.trace else measure
            case, metrics = run(args, Path(tmp), tally)
        except CheckFailed as exc:
            print(f"# CHECK FAILED: {exc}")
            print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                              "failed": tally.failed, "metrics": {}}))
            return 1
    info = run_info()
    info["csv_sha256"] = case["csv_sha256"]
    print("# info " + json.dumps(info))
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
