"""Checks of ``tools/same_outputs.py`` on one case: this tree against
itself, and against a copy of its sources with one output-visible edit."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"


def compare(parent, change):
    return subprocess.run([sys.executable, str(TOOL), str(parent), str(change), "--smoke"],
                          capture_output=True, text=True, timeout=120)


def test_smoke_of_the_tree_against_itself_finds_no_difference():
    result = compare(ROOT / "src", ROOT / "src")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "same outputs\n"


def test_an_edited_copy_differs_in_the_report_alone(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    report = copy / "floatdyn" / "report.py"
    text = report.read_text()
    assert text.count("\nSCHEMA_VERSION = 1\n") == 1
    report.write_text(text.replace("\nSCHEMA_VERSION = 1\n", "\nSCHEMA_VERSION = 2\n"))
    result = compare(ROOT / "src", copy)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.splitlines() == ["lprism seed 1: report.json", "1 items differ"]


def test_a_one_ulp_edit_of_the_force_gradient_is_reported(tmp_path):
    # the pose records hold force_gradient at each of the case's poses
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    hydrostatics = copy / "floatdyn" / "hydrostatics.py"
    text = hydrostatics.read_text()
    entry = "        [-rg * zp, -rg * tp, -rg * pp],\n"
    assert text.count(entry) == 1
    hydrostatics.write_text(
        text.replace(entry, "        [-rg * zp, -rg * tp, np.nextafter(-rg * pp, 0.0)],\n"))
    result = compare(ROOT / "src", copy)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "lprism seed 1: pose_records.bin" in result.stdout.splitlines()
