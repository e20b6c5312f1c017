"""Exact unitary propagation of time-independent Hermitian generators.

Gates propagate by blocks.  A pulse generator splits into small blocks of
fixed excitation number (``hamiltonians.PulseBlocks``); ``block_unitaries``
exponentiates a whole stack, for one time or an array of times: 2x2 doublets
(two-level Rabi problems) in closed form, larger blocks (the full model's
triplets) by one batched eigh; ``gates.echo_pulses`` frames the result into
a gate's two pulses.  Every eigh of the package runs in this function.

``Propagator`` checks and symmetrizes one dense generator and exponentiates
it as a stack of one block, so dense and block propagation share one path.
"""

from __future__ import annotations

import numpy as np

from .spaces import hermiticity_defect

HERMITICITY_TOL = 1e-10


def block_unitaries(generators: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) of every block of a (..., b, b) Hermitian stack; t broadcasts against its leading axes.

    A doublet gives e^{-iat} [cos(wt) I - i t sinc(wt/pi) (H - aI)], a the mean of its diagonal
    and w = sqrt(((h00 - h11)/2)^2 + |h01|^2), exact for zero and degenerate blocks; larger blocks
    go through one batched eigh.  A non-finite H or t is a ValueError.
    """
    H = np.asarray(generators)
    if not np.isfinite(H).all():
        raise ValueError("generator must be finite")
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"time must be finite, got {t}")
    if H.shape[-1] != 2:
        evals, evecs = np.linalg.eigh(H)
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
