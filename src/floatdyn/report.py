"""Analysis configuration, the JSON report and the standard pipeline.

The pipeline chains equilibrium search, the equilibrium Hessian,
metacentric heights, the stability verdict and normal modes, and bundles
the numbers into a versioned, round-trippable JSON report.  Mass
properties resolve in one of two ways: an explicit mass (mesh assumed
already centered on G unless ``cg`` says otherwise) or a uniform
density, in which case G lands at the volume centroid and the inertia
comes from exact mesh integrals.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .dynamics import METHODS, BodyProperties, kinetic_metric, reduced_mass_matrix
from .equilibrium import find_equilibrium
from .errors import ConfigError
from .hydrostatics import (
    RESIDUAL_TOL,
    FluidEnvironment,
    hessian_at_equilibrium,
    hydrostatic_state,
    pseudo_stability_check,
)
from .kinematics import COORD_NAMES
from .mesh import check_shells, inertia_from_mesh, load_mesh
from .oscillations import normal_modes

SCHEMA_VERSION = 1

#: every key the config's sections accept and the values each numeric
#: one takes: "positive" or "non-negative" finite numbers (max_step may
#: also be infinite), or a "count"; atol 0 is valid (pure relative error
#: control).  Keys mapped to None, and the bounds of rtol and atol, are
#: checked on their own.
_SECTION_OPTIONS = {
    "solver": {"tol": "positive", "max_iter": "count"},
    "integrator": {
        "method": None, "rtol": "non-negative", "atol": "non-negative", "max_step": "positive",
    },
    "simulate": {"t_end": "positive", "dt": "positive", "initial": None, "momenta": None},
}

#: smallest integrator.rtol: both integrators raise a smaller one to it,
#: with a warning
RTOL_FLOOR = 100 * float(np.finfo(float).eps)

#: farthest a mesh given 'mass' without 'inertia' may have its volume
#: centroid from its origin, in diameters; single-precision STL moves the
#: centroid of a centred mesh by about 1e-7
CENTROID_SLACK = 1e-6

#: simulated span and sample step when the config gives none, in seconds
DEFAULT_T_END = 10.0
DEFAULT_DT = 0.01
#: most trajectory samples a config may ask for: the diagnostics pass
#: stacks a 6x6 metric per sample, about 0.3 GB at this count
MAX_SAMPLES = 1_000_000


def _require_number(name, value, kind="positive", allow_inf=False):
    in_range = isinstance(value, numbers.Real) and not isinstance(value, bool) and (
        kind == "real" or (value > 0 if kind == "positive" else value >= 0)
    )
    if not (in_range and (math.isfinite(value) or (allow_inf and value == math.inf))):
        finite = "" if allow_inf else " finite"
        raise ConfigError(f"'{name}' must be a {kind}{finite} number, got {value!r}")


def _require_count(name, value):
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 0):
        raise ConfigError(f"'{name}' must be a non-negative integer, got {value!r}")


def _require_known_keys(name, options, known):
    if not isinstance(options, dict):
        raise ConfigError(f"'{name}' must be a JSON object, got {options!r}")
    unknown = set(options) - set(known)
    if unknown:
        raise ConfigError(f"unknown '{name}' keys: {sorted(unknown)}")


def _read_json(path, what, known, required) -> dict:
    """The JSON object in the ``what`` file at ``path``, with keys among
    ``known`` and every key of ``required``."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}")
    _require_known_keys(what, data, known)
    missing = set(required) - set(data)
    if missing:
        raise ConfigError(f"{what} file {path} lacks the keys {sorted(missing)}")
    return data


def _all_finite(value) -> bool:
    try:
        return bool(np.all(np.isfinite(np.asarray(value, dtype=float))))
    except (TypeError, ValueError):
        return False


@dataclass
class AnalysisConfig:
    """User-facing description of one analysis run."""

    mesh_path: str
    mass: float | None = None
    uniform_density: float | None = None
    inertia: list | None = None
    cg: list | None = None
    fluid_density: float = 1025.0
    gravity: float = 9.81
    initial_guess: tuple = (0.0, 0.0, 0.0)
    solver: dict = field(default_factory=dict)
    integrator: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.mass is None) == (self.uniform_density is None):
            raise ConfigError("give exactly one of 'mass' or 'uniform_density'")
        given = "mass" if self.uniform_density is None else "uniform_density"
        for name in (given, "fluid_density", "gravity"):
            _require_number(name, getattr(self, name))
        _require_number("fluid_density * gravity", self.fluid_density * self.gravity)
        for section, ranges in _SECTION_OPTIONS.items():
            options = getattr(self, section)
            _require_known_keys(section, options, ranges)
            for key, value in options.items():
                if ranges[key] == "count":
                    _require_count(f"{section}.{key}", value)
                elif ranges[key] is not None:
                    # max_step defaults to infinity: no step limit
                    _require_number(
                        f"{section}.{key}", value, ranges[key], allow_inf=key == "max_step"
                    )
        t_end = self.simulate.get("t_end", DEFAULT_T_END)
        dt = self.simulate.get("dt", DEFAULT_DT)
        ratio = t_end / dt
        if not (math.isfinite(ratio) and round(ratio) + 1 <= MAX_SAMPLES):
            raise ConfigError(
                f"'simulate.t_end' {t_end!r} over 'simulate.dt' {dt!r} gives {ratio + 1:.4g} "
                f"samples, more than {MAX_SAMPLES}"
            )
        steps = t_end / self.integrator.get("max_step", math.inf)
        if not steps <= MAX_SAMPLES:
            raise ConfigError(f"'integrator.max_step' gives at least {steps:.4g} steps over "
                              f"'simulate.t_end' {t_end!r}, more than {MAX_SAMPLES}")
        # below 1e-100 the integrator's squared scaled error of a unit slope overflows
        if 0.0 < self.integrator.get("atol", 0.0) < 1e-100:
            raise ConfigError("'integrator.atol' must be 0 or at least 1e-100")
        if self.integrator.get("rtol", RTOL_FLOOR) < RTOL_FLOOR:
            raise ConfigError(f"'integrator.rtol' must be at least 100 eps, {RTOL_FLOOR!r}")
        # a deviation from equilibrium and a rate per coordinate
        initial_keys = COORD_NAMES + tuple(f"{name}_dot" for name in COORD_NAMES)
        _require_known_keys("simulate.initial", self.simulate.get("initial", {}), initial_keys)
        for key, value in self.simulate.get("initial", {}).items():
            _require_number(f"simulate.initial.{key}", value, "real")
        momenta = self.simulate.get("momenta", (0.0, 0.0, 0.0))
        if not (_all_finite(momenta) and np.shape(momenta) == (3,)):
            raise ConfigError(f"'simulate.momenta' must be three finite numbers, got {momenta!r}")
        if self.integrator.get("method", "DOP853") not in METHODS:
            raise ConfigError(f"'integrator.method' must be one of {', '.join(METHODS)}")
        for name, shape in (("initial_guess", (3,)), ("inertia", (3, 3)), ("cg", (3,))):
            value = getattr(self, name)
            if value is None and name != "initial_guess":
                continue
            if not (_all_finite(value) and np.shape(value) == shape):
                raise ConfigError(
                    f"'{name}' must hold {'x'.join(map(str, shape))} finite numbers, got {value!r}"
                )
        if not isinstance(self.mesh_path, (str, os.PathLike)):
            raise ConfigError(f"'mesh_path' must be a file path, got {self.mesh_path!r}")
        # normalize to JSON-native types so the config echo round-trips
        self.mesh_path = str(self.mesh_path)
        self.initial_guess = [float(x) for x in self.initial_guess]

    @classmethod
    def from_file(cls, path) -> "AnalysisConfig":
        return cls(**_read_json(path, "config", cls.__dataclass_fields__, ["mesh_path"]))

    def environment(self) -> FluidEnvironment:
        return FluidEnvironment(rho=self.fluid_density, g=self.gravity)

    def to_dict(self) -> dict:
        return _as_dict(self)


def load_body(config: AnalysisConfig):
    """Resolve the mesh (re-centered on G) and the body mass properties.

    ``uniform_density`` pins the mass center to the volume centroid and
    derives the inertia from exact mesh integrals, so it takes neither
    ``cg`` nor ``inertia``.  An explicit ``mass``
    assumes the mesh is already G-centered; giving ``cg`` (mesh
    coordinates of the mass center), or a mesh whose volume centroid
    lies more than :data:`CENTROID_SLACK` diameters from its origin,
    requires an explicit ``inertia`` about that point, because no
    consistent tensor can be derived for a non-centroidal mass center.
    """
    path = Path(config.mesh_path)
    if not path.exists():
        raise ConfigError(f"mesh file not found: {path}")
    mesh = load_mesh(path)
    check_shells(mesh)

    if config.uniform_density is not None:
        for name, fixed in (("cg", "mass center"), ("inertia", "inertia")):
            if getattr(config, name) is not None:
                raise ConfigError(
                    f"'{name}' contradicts 'uniform_density': a uniform body has "
                    f"its {fixed} from the mesh"
                )
        mass, inertia = inertia_from_mesh(mesh, config.uniform_density)
        center = mesh.volume_centroid
    else:
        mass = float(config.mass)
        center = np.zeros(3) if config.cg is None else np.asarray(config.cg, float)
        offset = np.linalg.norm(mesh.volume_centroid) / mesh.diameter
        if config.inertia is not None:
            inertia = np.asarray(config.inertia, dtype=float)
        elif config.cg is not None:
            raise ConfigError(
                "'cg' needs an explicit 'inertia' about the mass center; a "
                "shape-derived tensor would be inconsistent with an "
                "off-centroid mass center"
            )
        elif offset > CENTROID_SLACK:
            centroid = ", ".join(f"{x:.6g}" for x in mesh.volume_centroid)
            raise ConfigError(
                f"the mesh's volume centroid ({centroid}) is {offset:.3g} diameters from "
                "its origin, which 'mass' without 'inertia' takes as the mass center; give "
                "'inertia' about the origin, or 'uniform_density'"
            )
        else:
            # uniform distribution scaled to the given mass
            density = mass / mesh.volume
            _, inertia = inertia_from_mesh(mesh, density)
    if np.any(center != 0.0):
        mesh = mesh.translated(-center)
    try:
        body = BodyProperties(mass=mass, inertia=inertia)
    except ValueError as exc:
        raise ConfigError(f"invalid mass properties: {exc}") from exc
    return mesh, body, center


@dataclass
class Report:
    """Versioned analysis report; all leaves are JSON-native types."""

    config: dict
    cg_shift: list
    equilibrium: dict
    hydrostatics: dict
    stability: dict
    modal: dict
    verification: dict | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {"schema_version": self.schema_version, **_as_dict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def save(self, path):
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        data = dict(data)
        version = data.pop("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ConfigError(
                f"report 'schema_version' {version!r} is not the supported {SCHEMA_VERSION}"
            )
        return cls(schema_version=version, **data)

    @classmethod
    def load(cls, path) -> "Report":
        fields = cls.__dataclass_fields__
        return cls.from_dict(_read_json(path, "report", fields, set(fields) - {"verification"}))


def _listify(value):
    return np.asarray(value, dtype=float).tolist()


def _as_dict(obj) -> dict:
    """The fields of the dataclass ``obj`` in order, nested dataclasses as
    dicts and arrays and tuples as lists."""
    out = {}
    for item in fields(obj):
        value = getattr(obj, item.name)
        if is_dataclass(value):
            value = _as_dict(value)
        elif isinstance(value, (np.ndarray, tuple)):
            value = _listify(value)
        out[item.name] = value
    return out


def load_equilibrium(config: AnalysisConfig):
    """``(mesh, body, cg_shift, env, result)``: :func:`load_body`, the
    fluid and the equilibrium the configured solver finds."""
    mesh, body, cg_shift = load_body(config)
    env = config.environment()
    result = find_equilibrium(
        mesh, body, env, initial=tuple(config.initial_guess), **config.solver
    )
    return mesh, body, cg_shift, env, result


def run_analysis(config: AnalysisConfig) -> Report:
    """Equilibrium, stability and modal pipeline for one configuration.

    :func:`load_equilibrium` gives the live mesh, body and equilibrium to
    callers that keep computing.  The Hessian checks the equilibrium at
    the solver's tolerance or its own default, whichever is looser.
    """
    mesh, body, cg_shift, env, result = load_equilibrium(config)
    state = hydrostatic_state(mesh, result.pose, env)
    hessian = hessian_at_equilibrium(
        mesh, result.pose, env, mass=body.mass,
        residual_tol=max(config.solver.get("tol", 0.0), RESIDUAL_TOL),
    )
    stability = pseudo_stability_check(
        hessian,
        v_star=state.volume,
        z_b_star=float(state.buoyancy_center[2]),
        second_moment=state.waterplane.second_moment,
        env=env,
    )
    metric = kinetic_metric(body, result.pose.theta, result.pose.phi)
    m_red = reduced_mass_matrix(metric)
    modal = normal_modes(hessian, m_red)

    return Report(
        config=config.to_dict(),
        cg_shift=_listify(cg_shift),
        equilibrium=_as_dict(result),
        hydrostatics={
            "volume": state.volume,
            "buoyancy_center": _listify(state.buoyancy_center),
            "z_b_star": float(state.buoyancy_center[2]),
            "waterplane_area": state.waterplane.area,
            "x_c": state.waterplane.x_c,
            "y_c": state.waterplane.y_c,
            "second_moment": _listify(state.waterplane.second_moment),
            "potential": state.potential,
        },
        stability=_as_dict(stability),
        modal={**modal.to_dict(), "reduced_mass": _listify(m_red)},
    )
