"""The README's examples run as written.

The "Library quick start" block is executed, and the example config is
analyzed with its ``mesh_path`` pointed at a barge STL, so a removed
key or name cannot linger in the documentation.
"""

import json
import re
from pathlib import Path

from floatdyn import save_stl, shapes
from floatdyn.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(after, language):
    """The first fenced ``language`` block after the line ``after``."""
    rest = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", rest, re.S).group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(block("## Library quick start", "python"), "README.md", "exec"), {})
    assert (tmp_path / "heave_release.csv").stat().st_size > 0


def test_example_config_analyzes(tmp_path, capsys):
    config = json.loads(block("A config is a JSON file:", "json"))
    config["mesh_path"] = str(tmp_path / "barge.stl")
    save_stl(config["mesh_path"], shapes.box(2.0, 1.0, 0.5))
    path = tmp_path / "barge.json"
    path.write_text(json.dumps(config))
    assert main(["analyze", "--config", str(path)]) == 0
    assert "verdict: pseudo-stable" in capsys.readouterr().out
