"""Exact unitary propagation of time-independent Hermitian generators.

Gates propagate by blocks.  A pulse generator splits into small blocks of
fixed excitation number (``hamiltonians.PulseBlocks``); ``block_unitaries``
exponentiates a whole stack, for one time or an array of times: 2x2 doublets
(two-level Rabi problems) in closed form, larger blocks (the full model's
triplets) from their eigendecompositions; ``gates.echo_pulses`` frames the
result into a gate's two pulses.  Every eigh of the package runs in this
module.

A gate's triplet layer, and a plan's stack of them, depends only on the
device, the cutoff and the selected levels, never on an angle, duration or
drive phase, so a repeated plan, gate or calibration step exponentiates the
same generator stack again.  ``SPECTRA`` keeps the eigendecomposition of
each whole stack it has diagonalised, least recently used first, within a
fixed byte budget: a repeated stack costs one lookup and the t-dependent
reconstruction.

``Propagator`` checks and symmetrizes one dense generator and exponentiates
it as a stack of one block, so dense and block propagation share one path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .spaces import hermiticity_defect

HERMITICITY_TOL = 1e-10
SPECTRA_BUDGET = 1 << 22  # bytes: keys, eigenvalues and eigenvectors of every cached stack


class Spectra:
    """Eigendecompositions of whole generator stacks, keyed by dtype, shape and bytes, within SPECTRA_BUDGET bytes.

    Least recently used stacks go first; a stack larger than the budget is
    not kept.  Stored arrays are read-only.  A miss is one eigh of the whole
    stack, looked up on this module's ``np`` at call time.
    """

    def __init__(self):
        self.nbytes = 0
        self.entries: OrderedDict[tuple, tuple[int, tuple[np.ndarray, np.ndarray]]] = OrderedDict()  # (bytes, pair)
        self._lock = threading.Lock()

    def eigh(self, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues and eigenvectors of a (..., b, b) Hermitian stack."""
        key = (H.dtype.str, H.shape, H.tobytes())
        with self._lock:
            if key in self.entries:
                self.entries.move_to_end(key)
                return self.entries[key][1]
        pair = np.linalg.eigh(H)
        for array in pair:
            array.flags.writeable = False
        size = len(key[2]) + pair[0].nbytes + pair[1].nbytes  # the key's bytes, eigenvalues and eigenvectors
        with self._lock:
            if key not in self.entries and size <= SPECTRA_BUDGET:
                self.entries[key] = size, pair
                self.nbytes += size
                while self.nbytes > SPECTRA_BUDGET:
                    self.nbytes -= self.entries.popitem(last=False)[1][0]
        return pair


SPECTRA = Spectra()


def block_unitaries(generators: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) of every block of a (..., b, b) Hermitian stack; t broadcasts against its leading axes.

    A doublet gives e^{-iat} [cos(wt) I - i t sinc(wt/pi) (H - aI)], a the mean of its diagonal
    and w = sqrt(((h00 - h11)/2)^2 + |h01|^2), exact for zero and degenerate blocks; larger blocks
    go through their eigendecompositions, kept per stack in ``SPECTRA``.  A non-finite H or t is a
    ValueError.
    """
    H = np.asarray(generators)
    if not np.isfinite(H).all():
        raise ValueError("generator must be finite")
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"time must be finite, got {t}")
    if H.shape[-1] != 2:
        evals, evecs = SPECTRA.eigh(H)
        return (evecs * np.exp(-1j * evals * t[..., None])[..., None, :]) @ np.swapaxes(evecs, -1, -2).conj()
    h00, h11, t = H[..., :1, :1], H[..., 1:, 1:], t[..., None, None]  # (..., 1, 1): they broadcast against H
    a = (0.5 * h00 + 0.5 * h11).real  # halves first: no overflow near the largest float
    w = np.hypot((0.5 * h00 - 0.5 * h11).real, np.abs(H[..., :1, 1:]))
    return np.exp(-1j * a * t) * (np.cos(w * t) * np.eye(2) - 1j * t * np.sinc(w * t / np.pi) * (H - a * np.eye(2)))


class Propagator:
    """exp(-i H t) of one dense Hermitian generator: ``block_unitaries`` on a stack of one block.

    The generator is symmetrized to (H + H†)/2 after passing the hermiticity
    gate; inputs whose defect exceeds the tolerance are rejected outright
    rather than silently Schur-decomposed.  The class adds no propagation of
    its own: it stays because bench/spans.py replaces it in ``gates``,
    ``validation`` and this module to trace it.
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
        self.generator = 0.5 * (H + H.conj().T)

    def unitary(self, t: float) -> np.ndarray:
        """exp(-i H t)."""
        return block_unitaries(self.generator[None], t)[0]

    def evolve(self, psi, t: float) -> np.ndarray:
        """Apply exp(-i H t) to a state vector."""
        amps = np.asarray(psi, dtype=complex)
        if amps.shape != self.generator.shape[:1]:
            raise ValueError(f"state has shape {amps.shape}, expected ({len(self.generator)},)")
        return self.unitary(t) @ amps
