"""Hilbert-space bookkeeping for a few-level atom coupled to a truncated oscillator.

Joint states live on atom ⊗ oscillator with atom-major ordering: the joint
index of atomic level ``a`` and Fock level ``n`` is ``a * fock_cutoff + n``.
The topmost retained Fock level acts as a guard level: population there means
the truncation is biting and results should not be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ATOM_LEVELS = {"g": 0, "e": 1, "h": 2}


@dataclass(frozen=True)
class HilbertSpace:
    """Dimensions and index layout of one atom ⊗ oscillator product space."""

    atom_dim: int
    fock_cutoff: int

    def __post_init__(self):
        if self.atom_dim < 2:
            raise ValueError(f"atom_dim must be >= 2, got {self.atom_dim}")
        if self.fock_cutoff < 2:
            raise ValueError(f"fock_cutoff must be >= 2, got {self.fock_cutoff}")

    @property
    def dim(self) -> int:
        return self.atom_dim * self.fock_cutoff

    @property
    def guard_level(self) -> int:
        return self.fock_cutoff - 1

    def index(self, atom: int | str, n: int) -> int:
        """Joint basis index of |atom, n>."""
        a = self.atom_index(atom)
        if not 0 <= n < self.fock_cutoff:
            raise ValueError(f"Fock level {n} outside 0..{self.fock_cutoff - 1}")
        return a * self.fock_cutoff + n

    def atom_index(self, atom: int | str) -> int:
        if isinstance(atom, str):
            if atom not in ATOM_LEVELS:
                raise ValueError(f"unknown atomic level label {atom!r}")
            atom = ATOM_LEVELS[atom]
        if not 0 <= atom < self.atom_dim:
            raise ValueError(f"atomic level {atom} outside 0..{self.atom_dim - 1}")
        return atom


@dataclass
class StateVector:
    """Complex amplitudes over a joint (atom ⊗ Fock) basis."""

    space: HilbertSpace
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.space.dim},)"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        self.amplitudes = amps

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / n)

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (atom_dim, fock_cutoff)."""
        return self.amplitudes.reshape(self.space.atom_dim, self.space.fock_cutoff)

    def fock_populations(self) -> np.ndarray:
        """Population per Fock level, summed over atomic levels."""
        return np.sum(np.abs(self.as_matrix()) ** 2, axis=0)

    @property
    def guard_population(self) -> float:
        return float(self.fock_populations()[self.space.guard_level])


def basis_state(space: HilbertSpace, atom: int | str, n: int) -> StateVector:
    amps = np.zeros(space.dim, dtype=complex)
    amps[space.index(atom, n)] = 1.0
    return StateVector(space, amps)


def product_state(space: HilbertSpace, atom_amps, osc_amps) -> StateVector:
    """|atom> ⊗ |oscillator> under the atom-major layout."""
    atom_amps = np.asarray(atom_amps, dtype=complex)
    osc_amps = np.asarray(osc_amps, dtype=complex)
    if atom_amps.shape != (space.atom_dim,):
        raise ValueError(f"atom factor has shape {atom_amps.shape}, expected ({space.atom_dim},)")
    if osc_amps.shape != (space.fock_cutoff,):
        raise ValueError(
            f"oscillator factor has shape {osc_amps.shape}, expected ({space.fock_cutoff},)"
        )
    return StateVector(space, np.kron(atom_amps, osc_amps))


def annihilation(cutoff: int) -> np.ndarray:
    """Truncated lowering operator, <n-1|a|n> = sqrt(n)."""
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(1, cutoff):
        a[n - 1, n] = np.sqrt(n)
    return a


def creation(cutoff: int) -> np.ndarray:
    return annihilation(cutoff).conj().T


def number_operator(cutoff: int) -> np.ndarray:
    return creation(cutoff) @ annihilation(cutoff)


def atomic_sigma(i: int | str, j: int | str, atom_dim: int) -> np.ndarray:
    """Atomic transition operator |i><j|."""
    space = HilbertSpace(atom_dim, 2)  # label validation only
    out = np.zeros((atom_dim, atom_dim), dtype=complex)
    out[space.atom_index(i), space.atom_index(j)] = 1.0
    return out


def tensor(atomic: np.ndarray, oscillator: np.ndarray) -> np.ndarray:
    """Kronecker product, atomic factor major."""
    atomic = np.asarray(atomic, dtype=complex)
    oscillator = np.asarray(oscillator, dtype=complex)
    for name, mat in (("atomic", atomic), ("oscillator", oscillator)):
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"{name} factor must be a square matrix, got shape {mat.shape}")
    return np.kron(atomic, oscillator)


def _amplitudes(psi, space: HilbertSpace | None):
    if isinstance(psi, StateVector):
        return psi.amplitudes, psi.space
    amps = np.asarray(psi, dtype=complex)
    if space is None:
        raise ValueError("a HilbertSpace is required when passing a bare array")
    if amps.shape != (space.dim,):
        raise ValueError(f"state has shape {amps.shape}, expected ({space.dim},)")
    return amps, space


def reduced_oscillator_state(psi, space: HilbertSpace | None = None) -> np.ndarray:
    """Density matrix of the oscillator after tracing out the atom.

    Returns a (fock_cutoff, fock_cutoff) positive matrix with unit trace for a
    normalized input.
    """
    amps, space = _amplitudes(psi, space)
    mat = amps.reshape(space.atom_dim, space.fock_cutoff)
    return np.einsum("an,am->nm", mat, mat.conj())


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def fidelity(a, b, space: HilbertSpace | None = None) -> float:
    """Squared modulus of the overlap, |<a|b>|^2."""
    amps_a, space_a = _amplitudes(a, space)
    amps_b, space_b = _amplitudes(b, space if space is not None else space_a)
    if amps_a.shape != amps_b.shape:
        raise ValueError(f"state dimensions differ: {amps_a.shape} vs {amps_b.shape}")
    return float(np.abs(np.vdot(amps_a, amps_b)) ** 2)


def hermiticity_defect(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat - mat.conj().T)))


def max_abs(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat))) if mat.size else 0.0
