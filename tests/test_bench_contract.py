"""The benchmark's tracer wraps package functions by name: a rename or a
removal in ``src/`` must fail here, not only in the benchmark's own
self-test."""

import importlib.util
import sys
from pathlib import Path

import floatdyn
from floatdyn import Pose, clip_by_waterplane, shapes

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans(monkeypatch):
    """``bench/spans.py`` as a module, without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_on_every_traced_name_and_restores(monkeypatch):
    spans = load_spans(monkeypatch)

    def traced():
        """Each traced function as its module binds it."""
        found = {}
        for module_name, functions in spans.TRACED.items():
            module = sys.modules[module_name]
            for attr in functions:
                owner, _, name = attr.rpartition(".")
                found[module_name, attr] = vars(getattr(module, owner) if owner else module)[name]
        return found

    exported = dict(vars(floatdyn))
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(hasattr(fn, "__wrapped__") for fn in traced().values())
        assert hasattr(floatdyn.clip_by_waterplane, "__wrapped__")
    finally:
        tracer.restore()
    assert not any(hasattr(fn, "__wrapped__") for fn in traced().values())
    assert dict(vars(floatdyn)) == exported


def test_clip_observer_reads_the_export(monkeypatch):
    spans = load_spans(monkeypatch)
    solid = clip_by_waterplane(shapes.box(2.0, 1.0, 0.5), Pose(zeta=0.1, theta=0.2, phi=0.1))
    info = spans.OBSERVERS["clipping.clip"](solid)
    assert info == {"hull_triangles": len(solid.hull_triangles),
                    "cap_loops": len(solid.cap_polygons)}
    assert info["cap_loops"] > 1
