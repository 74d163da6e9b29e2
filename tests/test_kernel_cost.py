"""Smoke test of ``tools/kernel_cost.py``: one short round of this tree
against itself.  It checks the report the tool writes, not the timings."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernel_cost.py"


def test_smoke_round_writes_the_report(tmp_path):
    out = tmp_path / "kernel.json"
    src = str(ROOT / "src")
    subprocess.run([sys.executable, str(TOOL), "--smoke", src, src, "--out", str(out)],
                   check=True, capture_output=True, text=True, timeout=60)
    report = json.loads(out.read_text())
    assert report["rounds"] == len(report["round_cpus"]) == 1
    for key in ("cpu", "python", "numpy", "blas", "OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS"):
        assert key in report["machine"]
    assert set(report["results"]) == {
        f"{workload}.{metric}" for workload in ("barge", "lprism")
        for metric in ("evaluate_us", "pose_us", "evaluate_cold_us", "evaluate_many_row_us")
    }
    for result in report["results"].values():
        for side in ("parent", "change"):
            assert len(result[side]["rounds"]) == 1 and result[side]["median"] > 0.0
        assert result["ratio"] > 0.0 and result["change_faster_rounds"] in (0, 1)
