"""Hydrostatics, stability and rigid-body dynamics of floating hulls.

From a watertight hull mesh and mass properties the package computes the
buoyancy force function and generalized forces, locates and classifies
floating equilibria (metacentric heights, restricted-problem stability),
integrates the full six-coordinate and the reduced three-coordinate
dynamics, and extracts small-oscillation normal modes.

Sign conventions: depth is positive downward, the free surface sits at
zero depth and the body frame has its origin at the mass center.
"""

from .clipping import (
    SubmergedIntegrals,
    SubmergedSolid,
    WaterplaneProperties,
    clip_by_waterplane,
    evaluate,
    evaluate_many,
    volume_and_first_moments,
    waterplane_properties,
)
from .dynamics import (
    BodyProperties,
    FullState,
    ReducedState,
    Trajectory,
    cyclic_rates,
    integrate_full,
    integrate_reduced,
    kinetic_metric,
    reduced_mass_matrix,
)
from .equilibrium import EquilibriumResult, find_equilibrium
from .errors import (
    ConfigError,
    Diverged,
    FloatDynError,
    GimbalLock,
    IndefiniteMass,
    IntegrationFailed,
    InvalidMesh,
    MissingDependency,
    NonSymmetricInput,
    NonWatertightMesh,
    NotAnEquilibrium,
    SelfIntersecting,
    WontFloat,
    ZeroVolume,
)
from .hydrostatics import (
    FluidEnvironment,
    HydrostaticState,
    StabilityReport,
    force_gradient,
    generalized_forces,
    hessian_at_equilibrium,
    hydrostatic_state,
    metacentric_heights,
    potential,
    pseudo_stability_check,
)
from .kinematics import (
    CYCLIC,
    NONCYCLIC,
    Pose,
    k3_body,
    omega_map,
    rotation_matrix,
)
from .mesh import HullMesh, inertia_from_mesh, load_mesh, load_obj, load_stl, save_stl
from .oscillations import ModalResult, normal_modes
from .report import AnalysisConfig, Report, run_analysis
from .verification import run_verification

__version__ = "0.1.0"
