"""Benchmark inputs: hull meshes, STL files and analysis configs.

Every workload input is built here from the workload seed, so the
benchmark needs no checked-in data files.  The barge and the L-prism come
from :mod:`floatdyn.shapes`.
"""

from __future__ import annotations

import json
from pathlib import Path

from floatdyn import shapes
from floatdyn.mesh import HullMesh, save_stl

RHO = 1000.0
G = 9.81


def write_case(directory: Path, name: str, mesh: HullMesh, config: dict) -> Path:
    """Save ``mesh`` as binary STL and ``config`` (pointing at it) as JSON."""
    stl = directory / f"{name}.stl"
    save_stl(stl, mesh)
    config = {"mesh_path": str(stl), **config}
    path = directory / f"{name}.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def barge(directory: Path, rng) -> Path:
    """12-triangle 2 x 1 x 0.5 box at half density.

    The box is written off-center so loading re-centers it on the volume
    centroid, as it would for a user mesh.  The offset is a multiple of
    1/8, which binary STL stores exactly, so the draft and metacentric
    heights stay exact.
    """
    offset = tuple(float(x) for x in rng.integers(-4, 5, 3) / 8.0)
    mesh = shapes.box(2.0, 1.0, 0.5, center=offset)
    release = {"zeta": float(rng.uniform(0.009, 0.011))}
    return write_case(directory, "barge", mesh, {
        "uniform_density": RHO / 2.0,
        "fluid_density": RHO,
        "gravity": G,
        "initial_guess": [0.1, 0.0, 0.0],
        "simulate": {"t_end": 10.0, "dt": 0.01, "initial": release},
    })


def lprism(directory: Path, rng) -> Path:
    """Jittered non-convex L-prism, analysed from an off-level guess."""
    mesh = shapes.l_prism(outer=(1.0, 1.0), notch=(0.5, 0.5), length=1.0,
                          jitter=0.02, seed=11)
    guess = [0.0, float(rng.uniform(0.08, 0.12)), float(rng.uniform(0.04, 0.06))]
    release = {"zeta": float(rng.uniform(0.004, 0.006))}
    return write_case(directory, "lprism", mesh, {
        "uniform_density": 0.6 * RHO,
        "fluid_density": RHO,
        "gravity": G,
        "initial_guess": guess,
        "simulate": {"t_end": 2.0, "dt": 0.01, "initial": release},
    })


BUILDERS = {"barge": barge, "lprism": lprism}
