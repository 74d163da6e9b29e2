"""Quick self-test of the benchmark harness (not part of the test suite).

Runs every workload once, short, untraced and traced, with the output
checks on, and asserts that each run passes its checks and reports every
metric BENCHMARK.json names, and that a second traced run repeats every
count.  Then runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark's own files, where it must fail without
printing a result.  Takes about two minutes::

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(workload, trace)
            names = [m["name"] for m in SPEC[key]]
            assert sorted(result["metrics"]) == sorted(names), (
                workload, set(names) ^ set(result["metrics"]))
            for metric in SPEC[key]:
                entry = result["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"], (metric, entry)
                # every end-to-end metric, and every layer's time, is nonzero
                if trace == 0 or metric["unit"] in ("s", "us"):
                    assert entry["value"] > 0, (workload, metric, entry)
            print(f"ok {workload} trace={trace}: {len(names)} metrics, "
                  f"{result['failed']} of {result['attempted']} operations failed")
        again = counts(result_of(workload, 1))
        assert again == counts(result), (workload, again, counts(result))
        print(f"ok {workload}: {len(again)} counts repeat exactly")

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without the sources"
        assert '"metrics"' not in proc.stdout, proc.stdout
        print("ok bare checkout fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
