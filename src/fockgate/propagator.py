"""Exact unitary propagation of time-independent Hermitian generators.

Dimensions here stay small (tens), so eigendecomposition beats
scaling-and-squaring: the factorization is reused across arbitrarily many
evolution times and the resulting propagators are unitary to round-off.
"""

from __future__ import annotations

import numpy as np

from .spaces import StateVector, hermiticity_defect

HERMITICITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10


class Propagator:
    """Cached eigendecomposition of a Hermitian generator.

    The generator is symmetrized to (H + H†)/2 after passing the hermiticity
    gate; inputs whose defect exceeds the tolerance are rejected outright
    rather than silently Schur-decomposed.
    """

    def __init__(self, generator: np.ndarray):
        H = np.asarray(generator, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"generator must be square, got shape {H.shape}")
        defect = hermiticity_defect(H)
        if defect >= HERMITICITY_TOL:
            raise ValueError(
                f"generator is not Hermitian: max|H - H†| = {defect:.3e} >= {HERMITICITY_TOL:.1e}"
            )
        H = 0.5 * (H + H.conj().T)
        self.generator = H
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(H)
        recon = (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T
        err = np.max(np.abs(recon - H))
        if err > RECONSTRUCTION_TOL:
            raise ArithmeticError(f"eigendecomposition reconstruction error {err:.3e}")

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def unitary(self, t: float) -> np.ndarray:
        """exp(-i H t) via V e^{-i lambda t} V†."""
        if not np.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        phases = np.exp(-1j * self.eigenvalues * t)
        return (self.eigenvectors * phases) @ self.eigenvectors.conj().T

    def evolve(self, psi, t: float):
        """Apply exp(-i H t) to a state (array or StateVector)."""
        if isinstance(psi, StateVector):
            return StateVector(psi.space, self.evolve(psi.amplitudes, t))
        amps = np.asarray(psi, dtype=complex)
        if amps.shape != (self.dim,):
            raise ValueError(f"state has shape {amps.shape}, expected ({self.dim},)")
        phases = np.exp(-1j * self.eigenvalues * t)
        return self.eigenvectors @ (phases * (self.eigenvectors.conj().T @ amps))


def unitary_of(H: np.ndarray, t: float) -> np.ndarray:
    return Propagator(H).unitary(t)


def evolve(psi, H: np.ndarray, t: float):
    return Propagator(H).evolve(psi, t)
