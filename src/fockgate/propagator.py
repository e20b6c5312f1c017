"""Exact unitary propagation of time-independent Hermitian generators.

Gates propagate by blocks.  A pulse generator splits into small blocks of
fixed excitation number (``hamiltonians.PulseBlocks``); ``block_unitaries``
exponentiates a whole stack, for one time or an array of times: 2x2 doublets
(two-level Rabi problems) in closed form, larger blocks (the full model's
triplets) from their eigendecompositions; ``gates.echo_pulses`` frames the
result into a gate's two pulses.  Every eigh of the package runs in this
module.

A triplet layer, one (nb, b, b) generator stack, depends only on the device,
the cutoff and the selected level, never on a gate's angle, duration or
drive phase, so plans and repeated gates exponentiate the same few layers
over and over.  ``SPECTRA`` keeps the eigendecomposition of each layer it
has diagonalised, least recently used first, within a fixed byte budget:
a repeated layer costs a lookup and the t-dependent reconstruction.

``Propagator`` checks and symmetrizes one dense generator and exponentiates
it as a stack of one block, so dense and block propagation share one path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .spaces import hermiticity_defect

HERMITICITY_TOL = 1e-10
SPECTRA_BUDGET = 1 << 22  # bytes: keys, eigenvalues and eigenvectors of every cached layer


class Spectra:
    """Eigendecompositions of generator layers, keyed by dtype, shape and bytes, within SPECTRA_BUDGET bytes.

    Least recently used layers go first; a layer larger than the budget is
    not kept.  Stored arrays are read-only.  Misses go through one batched
    eigh, looked up on this module's ``np`` at call time.
    """

    def __init__(self):
        self.nbytes = 0
        self.entries: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._lock = threading.Lock()

    def eigh(self, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues and eigenvectors of a (..., nb, b, b) Hermitian stack, one cached layer per (nb, b, b) slice."""
        layers = H.reshape((-1,) + H.shape[-3:]) if H.size else np.empty((0,) + H.shape[-3:])
        keys = [(H.dtype.str, layer.shape, layer.tobytes()) for layer in layers]
        rows = dict(zip(keys, range(len(keys))))  # a layer of each distinct key
        with self._lock:
            pairs = {key: self.entries.get(key) for key in rows}
        missing = [key for key, pair in pairs.items() if pair is None]
        if missing:
            evals, evecs = np.linalg.eigh(layers[[rows[key] for key in missing]])
            for key, w, v in zip(missing, evals, evecs):
                pairs[key] = w.copy(), v.copy()
                for array in pairs[key]:
                    array.flags.writeable = False
        with self._lock:
            for key, pair in pairs.items():  # new and reused layers become the most recently used
                if key not in self.entries and _size(key, pair) <= SPECTRA_BUDGET:
                    self.entries[key] = pair
                    self.nbytes += _size(key, pair)
                if key in self.entries:
                    self.entries.move_to_end(key)
            while self.nbytes > SPECTRA_BUDGET:
                self.nbytes -= _size(*self.entries.popitem(last=False))
        return (np.array([pairs[key][0] for key in keys]).reshape(H.shape[:-1]),
                np.array([pairs[key][1] for key in keys]).reshape(H.shape))


def _size(key: tuple, pair: tuple[np.ndarray, np.ndarray]) -> int:
    """Bytes one cached layer holds: its key's bytes, eigenvalues and eigenvectors."""
    return len(key[2]) + pair[0].nbytes + pair[1].nbytes


SPECTRA = Spectra()


def block_unitaries(generators: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) of every block of a (..., b, b) Hermitian stack; t broadcasts against its leading axes.

    A doublet gives e^{-iat} [cos(wt) I - i t sinc(wt/pi) (H - aI)], a the mean of its diagonal
    and w = sqrt(((h00 - h11)/2)^2 + |h01|^2), exact for zero and degenerate blocks; larger blocks
    go through their eigendecompositions, kept per layer in ``SPECTRA``.  A non-finite H or t is a
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
