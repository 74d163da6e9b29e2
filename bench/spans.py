"""In-memory spans around the public functions of each floatdyn module.

:func:`install` replaces each traced function on every ``floatdyn``
module attribute that refers to it, so calls between modules (for example
``floatdyn.equilibrium.generalized_forces``) are seen as well as calls
from outside.  A span records its name, start, end, parent span and the
operation it belongs to; :meth:`Tracer.restore` puts the originals back.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

#: traced functions, by module, with the layer name each span gets
TRACED = {
    "floatdyn.mesh": {
        "load_mesh": "mesh.load",
        "inertia_from_mesh": "mesh.inertia",
        "HullMesh.translated": "mesh.translate",
    },
    "floatdyn.report": {
        "load_body": "report.load_body",
        "run_analysis": "report.run_analysis",
    },
    "floatdyn.clipping": {
        "clip_by_waterplane": "clipping.clip",
        "volume_and_first_moments": "clipping.volume_integrals",
        "waterplane_properties": "clipping.waterplane_integrals",
        "cap_raw_moments": "clipping.cap_integrals",
    },
    "floatdyn.hydrostatics": {
        "generalized_forces": "hydrostatics.forces",
        "potential": "hydrostatics.potential",
        "force_gradient": "hydrostatics.gradient",
        "hydrostatic_state": "hydrostatics.state",
        "hessian_at_equilibrium": "hydrostatics.hessian",
    },
    "floatdyn.equilibrium": {"find_equilibrium": "equilibrium.solve"},
    "floatdyn.dynamics": {
        "integrate_full": "dynamics.integrate_full",
        "integrate_reduced": "dynamics.integrate_reduced",
        "kinetic_metric": "dynamics.kinetic_metric",
    },
    "floatdyn.verification": {"run_verification": "verification.run"},
    "floatdyn.oscillations": {"normal_modes": "oscillations.normal_modes"},
}


def _clip_info(solid):
    return {"hull_triangles": len(solid.hull_triangles),
            "cap_loops": len(solid.cap_polygons)}


#: per-layer counts taken from a call's result
OBSERVERS = {
    "clipping.clip": _clip_info,
    "equilibrium.solve": lambda result: {"iterations": result.iterations},
    "dynamics.integrate_full": lambda traj: {"nfev": int(traj.nfev)},
    "dynamics.integrate_reduced": lambda traj: {"nfev": int(traj.nfev)},
}


class Tracer:
    """Span recorder; one per process.

    Each span is ``[name, start_ns, end_ns, parent, op, info]`` where
    ``parent`` indexes ``spans`` (-1 at top level), ``op`` is the
    operation id current when the span opened and ``info`` holds counts
    from the result or the name of the exception raised.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def add(self, name, start_ns, end_ns, info=None):
        """Record a span measured by the caller (no nesting)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, self.op, info])

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0, 0, parent, self.op, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[5] = {"error": type(exc).__name__}
                raise
            else:
                span[2] = clock()
                if observe is not None:
                    span[5] = observe(result)
                return result
            finally:
                self._stack.pop()

        return traced

    def install(self):
        """Wrap every function in :data:`TRACED` wherever floatdyn binds it."""
        import floatdyn  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "floatdyn" or n.startswith("floatdyn."))]
        for module_name, functions in TRACED.items():
            home = sys.modules[module_name]
            for attr, name in functions.items():
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patched.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(name, original))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)

    def restore(self):
        """Undo :meth:`install`."""
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


INTEGRALS = ("clipping.volume_integrals", "clipping.waterplane_integrals",
             "clipping.cap_integrals")
HYDRO_LAYERS = ("hydrostatics.", "clipping.")


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _seconds(span):
    return (span[2] - span[1]) * 1e-9


class SpanSet:
    """Spans of several processes, indexed by name for aggregation."""

    def __init__(self, sources):
        self.calls = defaultdict(list)  # name -> [(spans, children, index)]
        for spans in sources:
            children = [[] for _ in spans]
            for i, span in enumerate(spans):
                if span[3] >= 0:
                    children[span[3]].append(i)
            for i, span in enumerate(spans):
                self.calls[span[0]].append((spans, children, i))

    def spans(self, name):
        return [spans[i] for spans, _, i in self.calls[name]]

    def median_s(self, name):
        return _median(map(_seconds, self.spans(name)))

    def mean_us(self, name):
        return 1e6 * _mean(map(_seconds, self.spans(name)))

    def mean_info(self, name, key):
        return _mean(s[5][key] for s in self.spans(name) if s[5] and key in s[5])

    def under(self, name, inner):
        """Per call of ``name``: outermost ``inner`` spans beneath it."""
        out = []
        for spans, children, i in self.calls[name]:
            found, stack = [], list(children[i])
            while stack:
                j = stack.pop()
                if spans[j][0] == inner:
                    found.append(spans[j])
                else:
                    stack.extend(children[j])
            out.append(found)
        return out

    def self_s(self, name):
        """Median self time: span time minus its direct children."""
        return _median(
            _seconds(spans[i]) - sum(_seconds(spans[j]) for j in children[i])
            for spans, children, i in self.calls[name]
        )


def layer_metrics(sources, import_s, overhead_share):
    """Per-layer metrics of one traced run, by the names BENCHMARK.json uses.

    ``sources`` holds the span lists of each process.  ``*_s`` metrics are
    medians per call, ``*_us`` means per call; ``clipping.integrals_us`` is
    the time in the submerged and waterplane integrals per clip.  Counts
    are means per call of the layer named: triangles and cap loops per
    clip, Newton iterations and generalized-force evaluations per
    equilibrium solve, right-hand-side calls per integration, and calls
    into the hydrostatics and clipping layers per ``run_verification``.
    ``dynamics.*_s_full`` split one ``integrate_full`` call into forces,
    the potential (diagnostics pass) and its own time.
    ``clipping.degenerate_share`` is the share of clips that raised
    ``ClipDegenerate``.  Layers a run never reached read 0.
    """
    t = SpanSet(sources)
    clips = t.spans("clipping.clip")
    integral_ns = sum(
        s[i][2] - s[i][1]
        for name in INTEGRALS
        for s, _, i in t.calls[name]
        if s[i][3] < 0 or s[s[i][3]][0] not in INTEGRALS
    )
    degenerate = sum(1 for s in clips if (s[5] or {}).get("error") == "ClipDegenerate")

    def total_s(groups):
        return _median(sum(map(_seconds, group)) for group in groups)

    hydro_calls = (
        sum(1 for j in children[i] if spans[j][0].startswith(HYDRO_LAYERS))
        for spans, children, i in t.calls["verification.run"]
    )
    return {
        "cli.import_s": (_median(import_s), "s"),
        "mesh.load_s": (t.median_s("mesh.load"), "s"),
        "mesh.translate_s": (t.median_s("mesh.translate"), "s"),
        "mesh.inertia_s": (t.median_s("mesh.inertia"), "s"),
        "report.load_body_s": (t.median_s("report.load_body"), "s"),
        "report.run_analysis_s": (t.median_s("report.run_analysis"), "s"),
        "clipping.clip_us": (t.mean_us("clipping.clip"), "us"),
        "clipping.integrals_us": (1e-3 * integral_ns / max(len(clips), 1), "us"),
        "clipping.hull_triangles_per_clip":
            (t.mean_info("clipping.clip", "hull_triangles"), "count"),
        "clipping.cap_loops_per_clip":
            (t.mean_info("clipping.clip", "cap_loops"), "count"),
        "clipping.degenerate_share": (degenerate / max(len(clips), 1), "share"),
        "hydrostatics.forces_us": (t.mean_us("hydrostatics.forces"), "us"),
        "hydrostatics.potential_us": (t.mean_us("hydrostatics.potential"), "us"),
        "hydrostatics.gradient_us": (t.mean_us("hydrostatics.gradient"), "us"),
        "hydrostatics.state_us": (t.mean_us("hydrostatics.state"), "us"),
        "hydrostatics.hessian_us": (t.mean_us("hydrostatics.hessian"), "us"),
        "equilibrium.solve_s": (t.median_s("equilibrium.solve"), "s"),
        "equilibrium.iterations":
            (t.mean_info("equilibrium.solve", "iterations"), "count"),
        "equilibrium.force_evals_per_solve": (
            _mean(map(len, t.under("equilibrium.solve", "hydrostatics.forces"))),
            "count"),
        "dynamics.integrate_full_s": (t.median_s("dynamics.integrate_full"), "s"),
        "dynamics.integrate_reduced_s":
            (t.median_s("dynamics.integrate_reduced"), "s"),
        "dynamics.rhs_calls_full":
            (t.mean_info("dynamics.integrate_full", "nfev"), "count"),
        "dynamics.rhs_calls_reduced":
            (t.mean_info("dynamics.integrate_reduced", "nfev"), "count"),
        "dynamics.forces_s_full": (
            total_s(t.under("dynamics.integrate_full", "hydrostatics.forces")), "s"),
        "dynamics.potential_s_full": (
            total_s(t.under("dynamics.integrate_full", "hydrostatics.potential")),
            "s"),
        "dynamics.self_s_full": (t.self_s("dynamics.integrate_full"), "s"),
        "dynamics.kinetic_metric_us": (t.mean_us("dynamics.kinetic_metric"), "us"),
        "verification.run_s": (t.median_s("verification.run"), "s"),
        "verification.hydro_calls": (_mean(hydro_calls), "count"),
        "oscillations.normal_modes_us":
            (t.mean_us("oscillations.normal_modes"), "us"),
        "trace.overhead_share": (overhead_share, "share"),
    }
