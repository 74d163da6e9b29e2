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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import BodyProperties, kinetic_metric, reduced_mass_matrix
from .equilibrium import find_equilibrium
from .errors import ConfigError
from .hydrostatics import (
    FluidEnvironment,
    hessian_at_equilibrium,
    hydrostatic_state,
    pseudo_stability_check,
)
from .kinematics import COORD_NAMES
from .mesh import inertia_from_mesh, load_mesh
from .oscillations import normal_modes

SCHEMA_VERSION = 1

#: every key the config's sections accept and the values each numeric
#: one takes: "positive" or "non-negative" finite numbers (max_step may
#: also be infinite), or a "count"; zero tolerances are valid for
#: solve_ivp (atol 0 is pure relative error control).  Keys mapped to
#: None are checked on their own.
_SECTION_OPTIONS = {
    "solver": {"tol": "positive", "max_iter": "count"},
    "integrator": {
        "method": None, "rtol": "non-negative", "atol": "non-negative", "max_step": "positive",
    },
    "simulate": {
        "mode": None, "t_end": "positive", "dt": "positive", "initial": None, "momenta": None,
    },
}

#: the ``method`` names solve_ivp accepts; a copy, so checking a config
#: loads no scipy.integrate (tests/test_imports.py compares it with SciPy's)
_INTEGRATOR_METHODS = ("RK45", "RK23", "DOP853", "Radau", "BDF", "LSODA")


def _require_number(name, value, kind="positive", allow_inf=False):
    in_range = isinstance(value, numbers.Real) and not isinstance(value, bool) and (
        value > 0 if kind == "positive" else value >= 0
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
    symmetry: bool = False
    solver: dict = field(default_factory=dict)
    integrator: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if (self.mass is None) == (self.uniform_density is None):
            raise ConfigError("give exactly one of 'mass' or 'uniform_density'")
        for name in ("mass", "uniform_density", "fluid_density", "gravity"):
            value = getattr(self, name)
            if value is not None:
                _require_number(name, value)
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
        # a deviation from equilibrium and a rate per coordinate
        initial_keys = COORD_NAMES + tuple(f"{name}_dot" for name in COORD_NAMES)
        _require_known_keys("simulate.initial", self.simulate.get("initial", {}), initial_keys)
        momenta = self.simulate.get("momenta", (0.0, 0.0, 0.0))
        if not (_all_finite(momenta) and np.shape(momenta) == (3,)):
            raise ConfigError(f"'simulate.momenta' must be three finite numbers, got {momenta!r}")
        if self.integrator.get("method", "DOP853") not in _INTEGRATOR_METHODS:
            raise ConfigError(
                f"'integrator.method' must be one of {', '.join(_INTEGRATOR_METHODS)}"
            )
        if self.simulate.get("mode", "full") not in ("full", "reduced"):
            raise ConfigError("'simulate.mode' must be 'full' or 'reduced'")
        for name in ("initial_guess", "inertia", "cg"):
            value = getattr(self, name)
            if value is not None and not _all_finite(value):
                raise ConfigError(f"'{name}' must hold finite numbers, got {value!r}")
        _require_count("seed", self.seed)
        if len(tuple(self.initial_guess)) != 3:
            raise ConfigError("'initial_guess' must be (zeta0, theta0, phi0)")
        # normalize to JSON-native types so the config echo round-trips
        self.initial_guess = [float(x) for x in self.initial_guess]

    @classmethod
    def from_file(cls, path) -> "AnalysisConfig":
        try:
            data = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def environment(self) -> FluidEnvironment:
        return FluidEnvironment(rho=self.fluid_density, g=self.gravity)

    def to_dict(self) -> dict:
        return {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }


def load_body(config: AnalysisConfig):
    """Resolve the mesh (re-centered on G) and the body mass properties.

    ``uniform_density`` pins the mass center to the volume centroid and
    derives the inertia from exact mesh integrals.  An explicit ``mass``
    assumes the mesh is already G-centered; giving ``cg`` (mesh
    coordinates of the mass center) requires an explicit ``inertia``
    about that point, because no consistent tensor can be derived for a
    non-centroidal mass center.
    """
    path = Path(config.mesh_path)
    if not path.exists():
        raise ConfigError(f"mesh file not found: {path}")
    mesh = load_mesh(path, symmetry_flag=config.symmetry)

    if config.uniform_density is not None:
        if config.cg is not None:
            raise ConfigError(
                "'cg' contradicts 'uniform_density': a uniform body has its "
                "mass center at the volume centroid"
            )
        mass, inertia = inertia_from_mesh(mesh, config.uniform_density)
        center = mesh.volume_centroid
    else:
        mass = float(config.mass)
        center = np.zeros(3) if config.cg is None else np.asarray(config.cg, float)
        if config.inertia is not None:
            inertia = np.asarray(config.inertia, dtype=float)
        elif config.cg is None:
            # uniform distribution scaled to the given mass
            density = mass / mesh.volume
            _, inertia = inertia_from_mesh(mesh, density)
        else:
            raise ConfigError(
                "'cg' needs an explicit 'inertia' about the mass center; a "
                "shape-derived tensor would be inconsistent with an "
                "off-centroid mass center"
            )
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
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "cg_shift": self.cg_shift,
            "equilibrium": self.equilibrium,
            "hydrostatics": self.hydrostatics,
            "stability": self.stability,
            "modal": self.modal,
            "verification": self.verification,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path):
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        data = dict(data)
        version = data.pop("schema_version")
        return cls(schema_version=version, **data)

    @classmethod
    def load(cls, path) -> "Report":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _listify(value):
    return np.asarray(value, dtype=float).tolist()


def run_analysis(config: AnalysisConfig):
    """Equilibrium, stability and modal pipeline for one configuration.

    Returns ``(report, objects)`` where ``objects`` carries the live
    mesh/body/equilibrium instances for callers that keep computing
    (simulation, verification).
    """
    mesh, body, cg_shift = load_body(config)
    env = config.environment()

    result = find_equilibrium(
        mesh, body, env, initial=tuple(config.initial_guess), **config.solver
    )

    state = hydrostatic_state(mesh, result.pose, env)
    hessian = hessian_at_equilibrium(mesh, result.pose, env, mass=body.mass)
    stability = pseudo_stability_check(
        hessian,
        v_star=state.volume,
        z_b_star=float(state.buoyancy_center[2]),
        waterplane_area=state.waterplane.area,
        x_c=state.waterplane.x_c,
        second_moment=state.waterplane.second_moment,
        env=env,
    )
    metric = kinetic_metric(body, result.pose.theta, result.pose.phi)
    m_red = reduced_mass_matrix(metric)
    modal = normal_modes(hessian, m_red)

    report = Report(
        config=config.to_dict(),
        cg_shift=_listify(cg_shift),
        equilibrium={
            "pose": {
                "xi": 0.0,
                "eta": 0.0,
                "zeta": result.pose.zeta,
                "psi": 0.0,
                "theta": result.pose.theta,
                "phi": result.pose.phi,
            },
            "residual": _listify(result.residual),
            "iterations": result.iterations,
            "waterline_distance": result.waterline_distance,
            "converged": result.converged,
        },
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
        stability={
            "hessian": _listify(stability.hessian),
            "gm_transverse": stability.gm_transverse,
            "gm_longitudinal": stability.gm_longitudinal,
            "displacement": stability.displacement,
            "pseudo_stable": stability.pseudo_stable,
            "margins": list(stability.margins),
            "marginal": stability.marginal,
        },
        modal={**modal.to_dict(), "reduced_mass": _listify(m_red)},
    )
    objects = {
        "mesh": mesh,
        "body": body,
        "env": env,
        "equilibrium": result,
        "state": state,
        "stability": stability,
        "modal": modal,
        "reduced_mass": m_red,
    }
    return report, objects
