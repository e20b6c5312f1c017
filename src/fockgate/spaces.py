"""Hilbert-space bookkeeping for a few-level atom coupled to a truncated oscillator.

States are plain complex arrays, read through an explicit ``HilbertSpace``.
Joint states live on atom ⊗ oscillator with atom-major ordering: the joint
index of atomic level ``a`` and Fock level ``n`` is ``a * fock_cutoff + n``;
``product_state`` and ``project_atom`` apply |atom> ⊗ I and <atom| ⊗ I.
The topmost retained Fock level acts as a guard level: population there means
the truncation is biting and results should not be trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATOM_LEVELS = {"g": 0, "e": 1, "h": 2}


@dataclass(frozen=True)
class HilbertSpace:
    """Dimensions and index layout of one atom ⊗ oscillator product space."""

    atom_dim: int
    fock_cutoff: int

    def __post_init__(self):
        for name, value in (("atom_dim", self.atom_dim), ("fock_cutoff", self.fock_cutoff)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def basis_state(space: HilbertSpace, atom: int | str, n: int) -> np.ndarray:
    amps = np.zeros(space.dim, dtype=complex)
    amps[space.index(atom, n)] = 1.0
    return amps


def product_state(space: HilbertSpace, atom_amps, osc_amps) -> np.ndarray:
    """|atom> ⊗ x for an oscillator state x (fock_cutoff,) or a (fock_cutoff, k) stack.

    ``project_atom`` undoes it for a normalized atomic state.
    """
    atom_amps = np.asarray(atom_amps, dtype=complex)
    osc_amps = np.asarray(osc_amps, dtype=complex)
    if atom_amps.shape != (space.atom_dim,):
        raise ValueError(f"atom factor has shape {atom_amps.shape}, expected ({space.atom_dim},)")
    if osc_amps.ndim not in (1, 2) or len(osc_amps) != space.fock_cutoff:
        raise ValueError(
            f"oscillator factor has shape {osc_amps.shape}, expected ({space.fock_cutoff},) "
            f"or ({space.fock_cutoff}, k)"
        )
    if not (np.isfinite(atom_amps).all() and np.isfinite(osc_amps).all()):
        raise ValueError("amplitudes must be finite")
    joint = atom_amps.reshape((-1,) + (1,) * osc_amps.ndim) * osc_amps
    return joint.reshape((space.dim,) + osc_amps.shape[1:])


def project_atom(atom_amps, joint, space: HilbertSpace) -> np.ndarray:
    """(<atom| ⊗ I) applied to a joint state (dim,) or a (dim, k) stack of columns."""
    joint = np.asarray(joint, dtype=complex)
    projected = np.asarray(atom_amps, dtype=complex).conj() @ joint.reshape(space.atom_dim, -1)
    return projected.reshape((space.fock_cutoff,) + joint.shape[1:])


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


def _amplitudes(psi, space: HilbertSpace, stacks: bool = False) -> np.ndarray:
    """psi as a complex joint state (dim,), or with ``stacks`` any (..., dim) stack of them."""
    amps = np.asarray(psi, dtype=complex)
    if amps.shape[-1:] != (space.dim,) or (amps.ndim > 1 and not stacks):
        raise ValueError(f"state has shape {amps.shape}, expected ({'..., ' if stacks else ''}{space.dim},)")
    return amps


def fock_populations(psi, space: HilbertSpace) -> np.ndarray:
    """Population per Fock level, summed over atomic levels, of a joint state (dim,) or each of a (..., dim) stack."""
    amps = _amplitudes(psi, space, stacks=True)
    return np.add.reduce(np.abs(amps.reshape(amps.shape[:-1] + (space.atom_dim, space.fock_cutoff))) ** 2, axis=-2)


def reduced_oscillator_state(psi, space: HilbertSpace) -> np.ndarray:
    """Density matrix of the oscillator after tracing out the atom.

    Returns a (fock_cutoff, fock_cutoff) positive matrix with unit trace for a
    normalized input.
    """
    mat = _amplitudes(psi, space).reshape(space.atom_dim, space.fock_cutoff)
    return np.einsum("an,am->nm", mat, mat.conj())


def purity(rho: np.ndarray):
    """Tr(rho^2) of a density matrix (a float), or of each matrix of a (..., d, d) stack (an array)."""
    rho = np.asarray(rho)
    value = np.real(np.trace(rho @ rho, axis1=-2, axis2=-1))
    return float(value) if rho.ndim == 2 else value


def fidelity(a, b, space: HilbertSpace):
    """|<a|b>|^2 of two joint states (dim,), a float, or of each pair of two (..., dim) stacks, an array."""
    overlap = np.add.reduce(_amplitudes(a, space, stacks=True).conj() * _amplitudes(b, space, stacks=True), axis=-1)
    return float(np.abs(overlap) ** 2) if overlap.ndim == 0 else np.abs(overlap) ** 2


def hermiticity_defect(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat - mat.conj().T)))


def max_abs(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat))) if mat.size else 0.0


def normalize(v) -> tuple[np.ndarray, float]:
    """v / |v| and |v| of a finite complex vector, with no overflow, underflow or warning on the way.

    v is first scaled, exactly, by the power of two that puts its largest
    real or imaginary part in [0.5, 1), so the norm of the scaled vector is
    in range; |v| is inf only where it passes the largest float, and an
    all-zero v is returned as it is, with norm 0.
    """
    parts = np.ascontiguousarray(v, dtype=complex).view(float)
    e = math.frexp(np.abs(parts).max(initial=0.0))[1]  # 0 for an all-zero v
    scaled = np.ldexp(parts, -e)
    nrm = float(np.linalg.norm(scaled.view(complex)))
    # float parts / nrm: exact +-1 for one nonzero real amplitude (complex / float multiplies by a rounded 1/nrm)
    unit = (scaled / nrm if nrm else scaled).view(complex)
    try:
        return unit, math.ldexp(nrm, e)
    except OverflowError:
        return unit, math.inf
