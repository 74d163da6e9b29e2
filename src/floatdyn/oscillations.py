"""Normal modes of small motions about a pseudo-stable equilibrium.

Linearizing the reduced heave-pitch-roll problem yields a standard
``c eta = lambda m eta`` generalized eigenproblem with stiffness
``c = -H`` (the negated force-function Hessian) and the reduced mass
matrix.  It is solved by symmetric-definite reduction in numpy rather
than by expanding the characteristic determinant: with the Cholesky
factor ``m = L L^T`` it becomes the standard symmetric problem for
``L^-1 c L^-T``, whose eigenvectors are back-substituted through
``L^T`` (the reduction LAPACK's ``sygvd`` performs).  Tests keep the
determinant form as an oracle.

For the symmetric zero-angle equilibrium both matrices are block
diagonal and the roll mode decouples exactly: roll couplings at the
level of roundoff are set to zero before the one solve, so the roll
eigenvector comes out as a clean unit vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndefiniteMass, NonSymmetricInput


@dataclass(frozen=True)
class ModalResult:
    """Eigenvalues, frequencies and shapes in (zeta, theta, phi) order.

    ``lambdas`` are ascending eigenvalues (1/s^2): squared angular
    frequencies ``omega = sqrt(lambda)`` for positive values.
    ``frequencies_hz`` is ``sqrt(lambda)/(2 pi)`` (nan where the mode is
    not oscillatory).  ``mode_shapes[:, i]`` is the i-th shape,
    normalized so the shapes are orthonormal in the mass metric.
    """

    lambdas: np.ndarray
    omegas: np.ndarray
    frequencies_hz: np.ndarray
    mode_shapes: np.ndarray
    mass: np.ndarray

    def to_dict(self) -> dict:
        """JSON-native eigenvalues, frequencies and shapes.

        A non-finite frequency (a mode that does not oscillate) becomes None.
        """
        return {
            "lambdas": self.lambdas.tolist(),
            "omegas_rad_s": [w if math.isfinite(w) else None for w in self.omegas.tolist()],
            "frequencies_hz": [
                f if math.isfinite(f) else None for f in self.frequencies_hz.tolist()
            ],
            "mode_shapes": self.mode_shapes.tolist(),
        }


def _check_symmetric(name, mat, tol=1e-8):
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        raise NonSymmetricInput(f"{name} must be 3x3")
    scale = max(np.abs(mat).max(), 1e-300)
    if np.abs(mat - mat.T).max() > tol * scale:
        raise NonSymmetricInput(f"{name} is not symmetric")
    return 0.5 * (mat + mat.T)


def _eigh_definite(c, low):
    """Eigenpairs of ``c x = lambda m x`` given the Cholesky factor of ``m``.

    ``low`` is lower triangular with ``m = low low^T``.  Eigenvalues come
    ascending, eigenvectors normalized to ``x^T m x = 1``.
    """
    half = np.linalg.solve(low, c)
    lambdas, vecs = np.linalg.eigh(np.linalg.solve(low, half.T))
    return lambdas, np.linalg.solve(low.T, vecs)


def normal_modes(hessian, reduced_mass) -> ModalResult:
    """Solve ``det(c - lambda m) = 0`` with ``c = -hessian``.

    Raises :class:`IndefiniteMass` if the reduced mass matrix is not
    positive definite and :class:`NonSymmetricInput` on asymmetric
    arguments.  Eigenvalues may be negative (unstable equilibria); they
    are reported, not suppressed.
    """
    c = _check_symmetric("stiffness (negated Hessian)", -np.asarray(hessian, float))
    m = _check_symmetric("reduced mass matrix", reduced_mass)
    # the upright symmetric hull: roll couplings at roundoff become exact
    # zeros, which LAPACK deflates, so the roll shape is an exact unit vector
    if all(np.abs(a[:2, 2]).max() <= 1e-14 * max(np.abs(a).max(), 1e-300) for a in (c, m)):
        for a in (c, m):
            a[:2, 2] = a[2, :2] = 0.0
    try:
        low = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMass("reduced mass matrix is not positive definite") from exc
    lambdas, shapes = _eigh_definite(c, low)

    omegas = np.where(lambdas > 0.0, np.sqrt(np.abs(lambdas)), np.nan)
    freqs = omegas / (2.0 * math.pi)
    return ModalResult(
        lambdas=lambdas,
        omegas=omegas,
        frequencies_hz=freqs,
        mode_shapes=shapes,
        mass=m,
    )
