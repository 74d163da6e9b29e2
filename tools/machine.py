"""The machine block both tools write: the CPU, the CPUs this process may
run on, Python, numpy and its BLAS, and ``OPENBLAS_CORETYPE`` and
``OPENBLAS_NUM_THREADS``.  The bits of a run depend on the BLAS kernel,
and on large hulls on the thread count, so a result is only comparable
with one from the same block."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its build
        blas = {}
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
