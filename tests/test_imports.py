"""Import budget: the CLI runs on numpy alone.

``import floatdyn``, the ``analyze``, ``verify`` and ``clip`` subcommands
and ``simulate`` with an explicit Runge-Kutta method load no SciPy, and
no subcommand loads ``numpy.polynomial`` or ``numpy.ma`` (each adds over
a megabyte to the process).  Only the ``LSODA`` integrator method needs
it, and without it that raises a typed error naming the ``scipy`` extra;
the package source names SciPy nowhere else.  The integrator module ``floatdyn.rk``
loads only in ``simulate``.  Each check runs in a fresh
interpreter, since the test process itself may have SciPy loaded.  The
tests that need SciPy installed skip without it, so this file also runs
in a numpy-only environment.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from floatdyn import save_stl, shapes

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys
if sys.argv[2] == "without-scipy":
    sys.modules["scipy"] = None  # as if SciPy were not installed
import floatdyn, floatdyn.cli

def tracked_modules():
    # SciPy's, the integrator only simulate needs, and the numpy
    # subpackages nothing needs (numpy.polynomial held the Gauss nodes,
    # numpy.ma loads with np.unique); a blocked SciPy sits in sys.modules
    # as None
    return sorted(
        m for m, module in sys.modules.items()
        if module is not None and (
            m in ("scipy", "floatdyn.rk", "numpy.polynomial", "numpy.ma")
            or m.startswith("scipy.")
        )
    )

loaded = {"import": tracked_modules()}
for argv in json.loads(sys.argv[1]):
    code = floatdyn.cli.main(argv)
    assert code == 0, (argv, code)
    loaded[argv[0]] = tracked_modules()
print(json.dumps(loaded))
"""


@pytest.fixture()
def barge_config(tmp_path):
    mesh_path = tmp_path / "barge.stl"
    save_stl(mesh_path, shapes.box(2.0, 1.0, 0.5))
    path = tmp_path / "barge.json"
    path.write_text(json.dumps({
        "mesh_path": str(mesh_path),
        "uniform_density": 500.0,
        "fluid_density": 1000.0,
        "gravity": 9.81,
        "simulate": {"t_end": 0.2, "dt": 0.1},
    }))
    return path


MISSING_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # as if SciPy were not installed
import floatdyn, floatdyn.cli

out = {}
for name, argv in json.loads(sys.argv[1]).items():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        out[name] = [floatdyn.cli.main(argv), err.getvalue()]
print(json.dumps(out))
"""


def run_child(commands, scipy="with-scipy", script=CHILD):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands), scipy],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def with_config(path, **changes):
    """A copy of the JSON config at ``path`` with top-level keys changed."""
    config = json.loads(path.read_text())
    config.update(changes)
    changed = path.with_name(f"{path.stem}-{'-'.join(changes)}.json")
    changed.write_text(json.dumps(config))
    return str(changed)


def test_numpy_only_subcommands_load_no_scipy(barge_config, tmp_path):
    config = str(barge_config)
    report = str(tmp_path / "report.json")
    loaded = run_child([
        ["analyze", "--config", config, "--out", report],
        ["verify", "--config", config, "--loops", "1", "--poses", "3",
         "--out", str(tmp_path / "verify.json")],
        ["clip", "--config", config, "--out", str(tmp_path / "wet.stl")],
    ])
    assert set(loaded) == {"import", "analyze", "verify", "clip"}
    assert all(modules == [] for modules in loaded.values()), loaded


@pytest.mark.parametrize("scipy", ["with-scipy", "without-scipy"])
def test_simulate_loads_no_scipy(barge_config, tmp_path, scipy):
    # the default DOP853 in both modes runs on floatdyn.rk; with SciPy
    # blocked it must still succeed
    config = str(barge_config)
    loaded = run_child([
        ["simulate", "--config", config, "--out", str(tmp_path / "t.csv")],
        ["simulate", "--config", config, "--mode", "reduced", "--out", str(tmp_path / "r.csv")],
    ], scipy)
    # modules accumulate: the entry after the second run covers both
    assert loaded == {"import": [], "simulate": ["floatdyn.rk"]}


def test_lsoda_simulate_loads_scipy_integrate(barge_config, tmp_path):
    # the checks above are not vacuous: the child does see SciPy when loaded
    pytest.importorskip("scipy")
    lsoda = with_config(barge_config, integrator={"method": "LSODA"})
    loaded = run_child([["simulate", "--config", lsoda, "--out", str(tmp_path / "t.csv")]])
    assert loaded["import"] == []
    assert "scipy.integrate" in loaded["simulate"]


def test_features_needing_scipy_raise_a_typed_error_without_it(barge_config, tmp_path):
    out = run_child({
        "implicit": [
            "simulate", "--config", with_config(barge_config, integrator={"method": "LSODA"}),
            "--out", str(tmp_path / "t.csv"),
        ],
    }, script=MISSING_SCIPY)
    hint = "pip install floatdyn[scipy]"
    code, err = out["implicit"]
    assert code == 1 and err.startswith("error: ") and hint in err, err
    assert "Traceback" not in err
    assert "'LSODA'" in err
    assert not (tmp_path / "t.csv").exists()


def test_source_names_scipy_only_in_the_solve_routine():
    # one place imports SciPy, so one place needs the typed error; no
    # module imports by a computed name, which this scan could not see
    hits = []
    for path in sorted((SRC / "floatdyn").glob("*.py")):
        text = path.read_text()
        assert "importlib" not in text, path.name
        functions = [
            (node.name, node.lineno, node.end_lineno)
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)
        ]
        for lineno, line in enumerate(text.splitlines(), 1):
            if "scipy" in line:
                inner = min(
                    (f for f in functions if f[1] <= lineno <= f[2]),
                    key=lambda f: f[2] - f[1], default=(None,),
                )
                hits.append((path.name, inner[0]))
    assert hits and set(hits) == {("dynamics.py", "_solve")}, hits


def test_config_method_list_matches_solve_ivp():
    # the method list is a copy, so checking a config imports no
    # scipy.integrate; each name must still be one solve_ivp runs
    pytest.importorskip("scipy")
    from scipy.integrate._ivp.ivp import METHODS as SOLVE_IVP_METHODS

    from floatdyn.dynamics import METHODS

    assert set(METHODS) <= set(SOLVE_IVP_METHODS)
