"""Fuzz of the command line: hostile values for every config key.

Each example replaces one known config key, nested ones included, with
null, a boolean, a string, a list, a dict, -1, 0, NaN, +-inf, 1e308 or
1e-308, and runs every subcommand in process on the result.  Whatever the
value, the subcommand returns 0, 1 or 2, no exception but
``SystemExit`` escapes, and exit code 1 comes with exactly one
``error: ...`` line on standard error.  The examples are derandomized
and no example database is kept, so the test is the same on every run.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from floatdyn import save_stl, shapes
from floatdyn.cli import main

#: the barge at half density, every config key given, released for 0.5 s
BASE = {
    "mesh_path": "barge.stl",
    "mass": None,
    "uniform_density": 500.0,
    "inertia": None,
    "cg": None,
    "fluid_density": 1000.0,
    "gravity": 9.81,
    "initial_guess": [0.1, 0.0, 0.0],
    "solver": {"tol": 1e-12, "max_iter": 100},
    "integrator": {"method": "DOP853", "rtol": 1e-9, "atol": 1e-10, "max_step": 1.0},
    "simulate": {
        "t_end": 0.5, "dt": 0.01, "initial": {"zeta": 0.01},
        "momenta": [0.0, 0.0, 0.0],
    },
}

KEYS = [
    *[(name,) for name in BASE],
    *[(section, name) for section in ("solver", "integrator", "simulate")
      for name in BASE[section]],
    ("simulate", "initial", "zeta"),
]

VALUES = [
    None, True, False, "x", [], [1.0, 2.0, 3.0], {}, {"a": 1},
    -1, 0, math.nan, math.inf, -math.inf, 1e308, 1e-308,
]

#: every subcommand
COMMANDS = [
    ["analyze", "--out", "report.json"],
    ["simulate", "--out", "t.csv"],
    ["simulate", "--mode", "reduced"],
    ["verify", "--poses", "3", "--loops", "1"],
    ["clip", "--out", "c.stl"],
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save_stl(path / "barge.stl", shapes.box(2.0, 1.0, 0.5))
    return path


def run(argv):
    """``(exit code, standard error)`` of one in-process ``floatdyn`` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, err.getvalue()


def check(code, err):
    assert code in (0, 1, 2), (code, err)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_the_keys_are_every_known_key():
    from floatdyn.report import _SECTION_OPTIONS, AnalysisConfig

    assert {key[0] for key in KEYS} == set(AnalysisConfig.__dataclass_fields__)
    assert {key[:2] for key in KEYS if len(key) > 1} == {
        (section, name) for section, names in _SECTION_OPTIONS.items() for name in names
    }


def write_config(workdir, key=None, value=None):
    """The base config, with ``key`` set to ``value`` if given, in ``workdir``."""
    config = copy.deepcopy(BASE)
    config["mesh_path"] = str(workdir / BASE["mesh_path"])
    if key is not None:
        section = config
        for name in key[:-1]:
            section = section[name]
        section[key[-1]] = value
    path = workdir / "config.json"
    path.write_text(json.dumps({
        name: item for name, item in config.items()
        if item is not None or (key is not None and name == key[0])
    }))
    return path


def run_all(workdir, path):
    """Exit code and standard error of every subcommand on the config at ``path``."""
    results = []
    for name, *flags in COMMANDS:
        if "--out" in flags:
            flags[-1] = str(workdir / flags[-1])
        results.append(run([name, "--config", str(path), *flags]))
    return results


def test_the_base_config_runs_every_subcommand(workdir):
    # so the examples below start from a config that works
    assert run_all(workdir, write_config(workdir)) == [(0, "")] * len(COMMANDS)


# rtol 0 and 1e-308 are raised to 100 eps with a warning, as in solve_ivp
@pytest.mark.filterwarnings("ignore:rtol is too small:UserWarning")
@settings(max_examples=len(KEYS) * len(VALUES) + 40, derandomize=True, database=None,
          deadline=None)
@given(key=st.sampled_from(KEYS), value=st.sampled_from(VALUES))
def test_hostile_config_values_fail_typed(workdir, key, value):
    # the space of (key, value) pairs is small: hypothesis tries each once
    for code, err in run_all(workdir, write_config(workdir, key, value)):
        check(code, err)
