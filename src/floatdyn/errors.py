"""Exception types shared across the package.

Clipping and the submerged integrals raise none for a validated mesh,
whatever the waterline topology.
"""


class FloatDynError(Exception):
    """Base class for all package errors."""


class InvalidMesh(FloatDynError):
    """Mesh fails a structural invariant (degenerate face, negative volume, ...)."""


class NonWatertightMesh(InvalidMesh):
    """Edge pairing failed: the surface has a boundary or non-manifold edge."""


class SelfIntersecting(FloatDynError):
    """Ear clipping found no ear: the polygon is not simple or is degenerate."""


class GimbalLock(FloatDynError):
    """Pitch too close to +-pi/2: the angle-rate map is not invertible."""


class EmptyMesh(InvalidMesh):
    """Mesh has no triangles."""


class NotAnEquilibrium(FloatDynError):
    """Residual generalized forces at the supposed equilibrium exceed tolerance."""


class ZeroVolume(FloatDynError):
    """Submerged volume vanishes where a positive volume is required."""


class WontFloat(FloatDynError):
    """Body is at least as heavy as the fluid it could ever displace."""


class Diverged(FloatDynError):
    """Iterative solver hit its iteration or step limit without converging."""


class IndefiniteMass(FloatDynError):
    """Reduced mass matrix is not positive definite."""


class NonSymmetricInput(FloatDynError):
    """Matrix argument expected to be symmetric is not."""


class ConfigError(FloatDynError):
    """Analysis configuration is malformed or inconsistent."""


class IntegrationFailed(FloatDynError):
    """The integrator could not advance: the right-hand side turned
    non-finite, or the step size underflowed."""


class MissingDependency(ConfigError):
    """The requested feature needs SciPy, which is not installed."""

