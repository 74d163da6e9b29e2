"""Smoke test of ``tools/work_precision.py`` on short releases.

The tool imports ``cli._initial_state`` and swaps ``dynamics._solve``
for a counting SciPy call that reads ``dynamics._sample_times``, so a
change to those names breaks it; nothing else runs it.  Here each
workload gets one release of 0.2 s, run by DOP853 and LSODA at one
tolerance, and the verdict is taken on those runs.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("scipy")

from floatdyn import dynamics  # noqa: E402

TOOL = Path(__file__).resolve().parents[1] / "tools" / "work_precision.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("work_precision", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_short_releases_run_and_get_a_verdict(tmp_path, monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "T_END", 0.2)
    samples = round(tool.T_END / tool.DT) + 1
    first = {}
    for release in tool.RELEASES:
        first.setdefault(release[1], release)
    assert set(first) == {"barge", "lprism"}
    runs, floors = [], {}
    for name, workload, deviation in first.values():
        setup = tool.release_setup(workload, deviation, tmp_path)
        reference, *_ = tool.run_once(setup, "DOP853", tool.REFERENCE_RTOL)
        assert reference.shape == (samples, 3)
        for method in ("DOP853", "LSODA"):
            q, calls, drift, seconds = tool.run_once(setup, method, 1e-6)
            runs.append({"release": name, "method": method, "rtol": 1e-6, "calls": calls,
                         "error": tool.error(q, reference), "drift": drift})
            assert q.shape == (samples, 3) and calls > 0 and seconds > 0.0
            assert runs[-1]["error"] < 1e-3 and np.isfinite(drift)
        floors[name] = 0.0
    # the tool put the package's own solve routine back
    assert dynamics._solve.__module__ == "floatdyn.dynamics"
    tally = tool.verdict(runs, floors)
    assert list(tally) == list(tool.ALL_METHODS)
    for method, counts in tally.items():
        assert counts["runs"] == (2 if method in ("DOP853", "LSODA") else 0)
        assert counts["kept"] == (method in dynamics.METHODS)
    assert all("beaten_by" in r for r in runs if r["drift"] < tool.DRIFT_BAR)


def test_machine_block_names_the_blas_and_its_threads():
    # the bits of a run depend on the BLAS kernel and the thread count
    block = load_tool().machine_block()
    for key in ("cpu", "nproc", "python", "numpy", "blas", "OPENBLAS_CORETYPE",
                "OPENBLAS_NUM_THREADS", "scipy"):
        assert key in block
