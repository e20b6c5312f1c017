"""Exact unitary propagation of time-independent Hermitian generators.

Gates propagate by blocks.  A pulse generator splits into small blocks of
fixed excitation number (``hamiltonians.PulseBlocks``); ``block_unitaries``
exponentiates a whole stack, for one time or an array of times, and writes
each pulse in the frame of its drive phase (e^{-i theta} on |e>, the last
slot of every block): 2x2 doublets (two-level Rabi problems) entry by entry
from their closed form, larger blocks (the full model's triplets) from
their eigendecompositions.  ``gates.echo_pulses`` makes one call for both
pulses of a gate or a batch.  Every eigh of the package runs in this
module.

A gate's triplet layer, and a plan's stack of them, depends only on the
device, the cutoff and the selected levels, never on an angle, duration or
drive phase, so a repeated plan, gate or calibration step exponentiates the
same generator stack again.  ``SPECTRA`` keeps the eigenvalues and real
rank-one projectors of each whole stack it has diagonalised, least recently
used first, within a fixed byte budget: a repeated stack costs one lookup,
one real-by-complex contraction over the eigenvalues and the frame.  Dense
generators keep their eigenvectors: at b = 24 their projectors are 24 times
larger and a miss builds them in about the time of the eigh itself.

``Propagator`` checks and symmetrizes one dense generator and exponentiates
it as a stack of one block at theta = 0, so dense and block propagation
share one path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .spaces import hermiticity_defect

HERMITICITY_TOL = 1e-10
SPECTRA_BUDGET = 1 << 22  # bytes: keys, eigenvalues and factors of every cached stack


class Spectra:
    """Eigenvalues and reconstruction factors of whole generator stacks, keyed by dtype, shape and bytes, within SPECTRA_BUDGET bytes.

    The factor of a real triplet stack is its real rank-one projectors
    v_k v_kᵀ, laid out (..., b*b, b) for one real-by-complex contraction
    over k; any other stack (``Propagator``'s complex dense generators)
    keeps its eigenvectors.  Least recently used stacks go first; a stack
    larger than the budget is not kept: a real triplet stack costs 312
    bytes a block, so one of more than 13,443 blocks (a plan of 114 steps
    at fock_cutoff 118) is diagonalised on every call.  Stored arrays are
    read-only.
    A miss is one eigh of the whole stack, looked up on this module's ``np``
    at call time.
    """

    def __init__(self):
        self.nbytes = 0
        self.entries: OrderedDict[tuple, tuple[int, tuple[np.ndarray, np.ndarray]]] = OrderedDict()  # (bytes, pair)
        self._lock = threading.Lock()

    def spectrum(self, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues and the factor (projectors of real triplets, else eigenvectors) of a (..., b, b) Hermitian stack."""
        key = (H.dtype.str, H.shape, H.tobytes())
        with self._lock:
            if key in self.entries:
                self.entries.move_to_end(key)
                return self.entries[key][1]
        evals, factor = np.linalg.eigh(H)
        if _real_triplets(H):
            factor = _projectors(factor)
        pair = evals, factor
        for array in pair:
            array.flags.writeable = False
        size = len(key[2]) + evals.nbytes + factor.nbytes  # the key's bytes, eigenvalues and factor
        with self._lock:
            if key not in self.entries and size <= SPECTRA_BUDGET:
                self.entries[key] = size, pair
                self.nbytes += size
                while self.nbytes > SPECTRA_BUDGET:
                    self.nbytes -= self.entries.popitem(last=False)[1][0]
        return pair


SPECTRA = Spectra()


def block_unitaries(generators: np.ndarray, t, theta=0.0) -> np.ndarray:
    """Z(theta) exp(-i H t) Z(theta)† of every block of a (..., b, b) Hermitian stack, Z(theta) = e^{-i theta} on the last slot.

    t and theta broadcast against the stack's leading axes, and the result
    takes the broadcast shape.  The last slot of every pulse block is |e>,
    so theta is the drive phase; the default theta = 0 frames by ones,
    which leaves every entry as it is (``Propagator``).  A doublet is
    written entry by entry from its closed form: with a and d the mean and
    half difference of its diagonal (halves first: no overflow near the
    largest float), w = sqrt(d^2 + |h01|^2) and s = t sinc(wt/pi), the
    diagonal is e^{-iat}(cos wt -+ i s d) and the off-diagonal
    -i s h01 e^{-iat} e^{+i theta} (and h10, e^{-i theta}), exact for zero
    and degenerate blocks.  Larger blocks go through ``SPECTRA``: a real
    triplet stack is the contraction of e^{-i lambda_k t} with its
    projectors, any other stack (dense generators) the product of its
    eigenvectors; the frame then multiplies the last row and column.  A
    non-finite H, t or theta is a ValueError.
    """
    H = np.asarray(generators)
    if not np.isfinite(H).all():
        raise ValueError("generator must be finite")
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"time must be finite, got {t}")
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError(f"drive phase must be finite, got {theta}")
    b = H.shape[-1]
    if b == 2:
        return _doublets(H, t, theta)
    evals, factor = SPECTRA.spectrum(H)
    phases = np.exp(-1j * (evals * t[..., None]))
    if _real_triplets(H):  # one real product of the projectors with the (re, im) pairs of the phases
        U = (factor @ phases.view(float).reshape(phases.shape + (2,))).view(complex).reshape(phases.shape[:-1] + (b, b))
    else:
        U = (factor * phases[..., None, :]) @ np.swapaxes(factor, -1, -2).conj()
    z = np.exp(-1j * theta)[..., None]
    frame = np.ones(theta.shape + (b, b), dtype=complex)  # z_i conj(z_j): z on the last row, conj(z) on the last column
    frame[..., -1, :-1], frame[..., :-1, -1] = z, z.conj()
    return U * frame


def _real_triplets(H: np.ndarray) -> bool:
    """Whether the stack H is propagated through its projectors: a real stack of 3x3 blocks."""
    return H.dtype.kind == "f" and H.shape[-1] == 3


def _projectors(evecs: np.ndarray) -> np.ndarray:
    """The rank-one projectors v_k v_kᵀ of real eigenvectors (..., b, b), laid out (..., b*b, b)."""
    b = evecs.shape[-1]
    return (evecs[..., :, None, :] * evecs[..., None, :, :]).reshape(evecs.shape[:-2] + (b * b, b))


def _doublets(H: np.ndarray, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``block_unitaries`` of a (..., 2, 2) stack, written entry by entry from the closed form."""
    half0, half1 = 0.5 * H[..., 0, 0], 0.5 * H[..., 1, 1]
    a, d = (half0 + half1).real, (half0 - half1).real
    h01 = H[..., 0, 1]
    wt = np.hypot(d, np.abs(h01)) * t
    s = t * np.sinc(wt / np.pi)
    e = np.exp(-1j * (a * t))
    out = np.empty(np.broadcast_shapes(e.shape, theta.shape) + (2, 2), dtype=complex)
    cos, isd = np.cos(wt), 1j * (s * d)
    np.multiply(e, cos - isd, out=out[..., 0, 0])
    np.multiply(e, cos + isd, out=out[..., 1, 1])
    off = (-1j * s) * e
    frame = np.exp(1j * theta)
    np.multiply(off * h01, frame, out=out[..., 0, 1])
    np.multiply(off * H[..., 1, 0], np.conj(frame), out=out[..., 1, 0])
    return out


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
