"""Hamiltonian builders for level-selective atom-oscillator coupling.

Physical picture: a driven Raman configuration where ground level |g> couples
to a far-detuned upper level |h> through the quantized mode (strength g) and
an intermediate level |e> couples to |h> through a classical drive (strength
|Omega_L|, phase theta), both detuned by delta.  Adiabatic elimination of |h>
leaves a two-level atom exchanging quanta with the oscillator at the reduced
rate lambda = g*|Omega_L|/delta, on top of photon-number-dependent dispersive
shifts g^2*n/delta.  An engineered Stark shift on |e>, in every model, puts
exactly one doublet {|g,m>, |e,m-1>} on resonance; all other doublets are
detuned by g^2*(n-m)/delta, which dominates lambda when g >> |Omega_L|.

``RamanParams`` holds the device; the selected level m and the drive phase
theta are pulse arguments.  The dense ``*_hamiltonian`` builders take both,
``builder(p, space, m, theta=0.0)``, and return complex matrices on the joint
space (atom-major ordering), Hermitian by construction.  hbar = 1
throughout; every coefficient is an angular frequency.

Every pulse conserves the excitation number N = a†a + |e><e| + |h><h|, so
its generator is block diagonal: doublets {|g,N>, |e,N-1>} (effective and
ideal) and triplets {|g,N>, |h,N-1>, |e,N-1>} (full).  The ``*_blocks``
builders return that structure directly as ``PulseBlocks``: a
``BlockLayout`` (the joint row of each block slot, its inverse, and the spin
flip as a permutation of slots, built once per layout) and a stack of small
real generators at drive phase 0 (no theta: ``propagator.block_unitaries``
applies it as a diagonal frame); each builder takes one level or an array of levels,
which gives a (..., nb, b, b) stack on one layout.  The ideal pulse writes no
entry of its own: it is the effective pulse with every entry off the
selected pair set to zero.  Every layout is a permutation of the joint
basis in fock_cutoff blocks.  The truncation leaves |g,0> and the top level
of |e> (and |h>) without an exchange partner; level N - 1 is taken mod
fock_cutoff, so these share block 0, where the exchange (a factor
sqrt(N)) vanishes.
Gates run on these; the dense builders are the oracle of validation and
the tests.  ``multiquantum_hamiltonian``, a dense exchange of several
quanta, is only the reference model of acceptance check A10: no gate or
plan runs it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spaces import (
    HilbertSpace,
    annihilation,
    atomic_sigma,
    creation,
    number_operator,
    tensor,
)

SELECTIVITY_RATIO_WARN = 0.2


@dataclass(frozen=True)
class RamanParams:
    """The device: physical couplings of the driven Raman configuration.

    g: atom-mode coupling (taken real).
    omega_l: magnitude of the classical drive |Omega_L|.
    delta: common detuning of both transitions from |h>; must be nonzero.
    """

    g: float
    omega_l: float
    delta: float = 20.0

    def __post_init__(self):
        for name in ("g", "omega_l", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta == 0.0:
            raise ValueError("delta must be nonzero")
        if self.omega_l < 0.0:
            raise ValueError(f"omega_l must be >= 0, got {self.omega_l}")
        r = self.selectivity_ratio
        if r > SELECTIVITY_RATIO_WARN:
            warnings.warn(
                f"selectivity ratio |Omega_L|/g = {r:.3g} > {SELECTIVITY_RATIO_WARN}; "
                "doublet selectivity degrades as this ratio grows",
                stacklevel=2,
            )

    @property
    def coupling(self) -> float:
        """Selective exchange rate lambda = g*|Omega_L|/delta."""
        return self.g * self.omega_l / self.delta

    @property
    def dispersive_rate(self) -> float:
        """Per-quantum dispersive shift g^2/delta."""
        return self.g * self.g / self.delta  # a product overflows to inf, where g**2 raises OverflowError

    def engineered_shift(self, m: int) -> float:
        """Stark shift applied to |e> to select the doublet at Fock level m."""
        return (self.g * self.g * m - self.omega_l * self.omega_l) / self.delta  # products, as above

    @property
    def selectivity_ratio(self) -> float:
        return self.omega_l / self.g if self.g != 0.0 else math.inf


def _require_cutoff(space: HilbertSpace, m):
    for level in np.asarray(m).ravel().tolist():  # one level or an array of levels: the first that fails is named
        if level < 0:
            raise ValueError(f"m must be >= 0, got {level}")
        if space.fock_cutoff < level + 2:
            raise ValueError(
                f"fock_cutoff {space.fock_cutoff} too small for selected level m={level}; "
                f"need at least m + 2 = {level + 2} (guard level)"
            )


def full_hamiltonian(p: RamanParams, space: HilbertSpace, m: int, theta: float = 0.0) -> np.ndarray:
    """Three-level rotating-frame Hamiltonian with explicit |h>.

    Static frame chosen so that the couplings are time independent: |h> sits
    at -delta, which reproduces the +g^2*n/delta dispersive shifts of the
    eliminated model for delta > 0.  Couplings: g*(|h><g| a + h.c.) and
    |Omega_L|*(e^{i theta}|h><e| + h.c.); the engineered shift
    (g^2*m - |Omega_L|^2)/delta acts on |e>.
    """
    if space.atom_dim != 3:
        raise ValueError(f"full model needs atom_dim = 3, got {space.atom_dim}")
    _require_cutoff(space, m)
    nf = space.fock_cutoff
    a = annihilation(nf)
    ident = np.eye(nf, dtype=complex)
    H = -p.delta * tensor(atomic_sigma("h", "h", 3), ident)
    H += p.g * (tensor(atomic_sigma("h", "g", 3), a) + tensor(atomic_sigma("g", "h", 3), creation(nf)))
    drive = p.omega_l * np.exp(1j * theta)
    H += drive * tensor(atomic_sigma("h", "e", 3), ident)
    H += np.conj(drive) * tensor(atomic_sigma("e", "h", 3), ident)
    H += p.engineered_shift(m) * tensor(atomic_sigma("e", "e", 3), ident)
    return H


def effective_hamiltonian(
    p: RamanParams, space: HilbertSpace, m: int, theta: float = 0.0
) -> np.ndarray:
    """Two-level model after eliminating |h>.

    (g^2/delta) a†a on |g>, the shifted constant g^2*m/delta on |e>, and the
    exchange term lambda*(e^{i theta} |g><e| a† + h.c.) coupling every doublet
    {|g,n>, |e,n-1>}.
    """
    if space.atom_dim != 2:
        raise ValueError(f"effective model needs atom_dim = 2, got {space.atom_dim}")
    _require_cutoff(space, m)
    nf = space.fock_cutoff
    rate = p.dispersive_rate
    H = rate * tensor(atomic_sigma("g", "g", 2), number_operator(nf))
    H += rate * m * tensor(atomic_sigma("e", "e", 2), np.eye(nf, dtype=complex))
    lam = p.coupling
    H += lam * np.exp(1j * theta) * tensor(atomic_sigma("g", "e", 2), creation(nf))
    H += lam * np.exp(-1j * theta) * tensor(atomic_sigma("e", "g", 2), annihilation(nf))
    return H


def selective_hamiltonian(
    p: RamanParams, space: HilbertSpace, m: int, theta: float = 0.0
) -> np.ndarray:
    """Effective model with the off-resonant exchange terms projected out.

    Keeps the dispersive diagonal and only the resonant doublet coupling
    {|g,m>, |e,m-1>}.  Built by zeroing the detuned couplings of the exact
    effective operator, so it provides a construction route independent of
    the term-by-term decomposition.
    """
    if m < 1:
        raise ValueError(f"selective model needs m >= 1, got {m}")
    H = effective_hamiltonian(p, space, m, theta)
    for n in range(1, space.fock_cutoff):
        if n == m:
            continue
        i_g = space.index("g", n)
        i_e = space.index("e", n - 1)
        H[i_g, i_e] = 0.0
        H[i_e, i_g] = 0.0
    return H


class SelectiveParts(NamedTuple):
    """Term-by-term split of the selective-regime Hamiltonian."""

    dispersive: np.ndarray    # diagonal shifts on Fock levels outside {m-1, m}
    pair_energy: np.ndarray   # self-energy on the four states {g,e} x {m-1, m}
    pair_coupling: np.ndarray # resonant exchange inside {|g,m>, |e,m-1>}


def decompose_effective(
    p: RamanParams, space: HilbertSpace, m: int, theta: float = 0.0
) -> SelectiveParts:
    """Split the selective-regime dynamics into its three commout-friendly parts.

    dispersive + pair_energy + pair_coupling reproduces
    ``selective_hamiltonian`` entrywise.  Relative to the exact effective
    operator the sum omits only the detuned exchange terms (those are the
    leakage channels; see ``selectivity residual`` tests).
    """
    if space.atom_dim != 2:
        raise ValueError(f"decomposition needs atom_dim = 2, got {space.atom_dim}")
    if m < 1:
        raise ValueError(f"decomposition needs m >= 1, got {m}")
    _require_cutoff(space, m)
    nf = space.fock_cutoff
    rate = p.dispersive_rate

    dispersive = np.zeros((space.dim, space.dim), dtype=complex)
    for n in range(nf):
        if n in (m - 1, m):
            continue
        dispersive[space.index("g", n), space.index("g", n)] = rate * n
        dispersive[space.index("e", n), space.index("e", n)] = rate * m

    pair_energy = np.zeros_like(dispersive)
    for atom in ("g", "e"):
        for n in (m - 1, m):
            idx = space.index(atom, n)
            pair_energy[idx, idx] = rate * m
    idx_gm1 = space.index("g", m - 1)
    pair_energy[idx_gm1, idx_gm1] -= rate

    pair_coupling = np.zeros_like(dispersive)
    amp = p.coupling * np.sqrt(m) * np.exp(1j * theta)
    pair_coupling[space.index("g", m), space.index("e", m - 1)] = amp
    pair_coupling[space.index("e", m - 1), space.index("g", m)] = np.conj(amp)

    return SelectiveParts(dispersive, pair_energy, pair_coupling)


def effective_detuning(n: int, m: int, p: RamanParams) -> float:
    """Detuning g^2*(n-m)/delta of doublet {|g,n>, |e,n-1>}; zero at n = m."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return p.dispersive_rate * (n - m)


def _require_doublet(quanta: int, m: int, space: HilbertSpace):
    if quanta < 1:
        raise ValueError(f"quanta must be >= 1, got {quanta}")
    if m < quanta:
        raise ValueError(f"no doublet {{|g,{m}>, |e,{m - quanta}>}}: need m >= quanta")
    if space.atom_dim != 2:
        raise ValueError(f"multiquantum model needs atom_dim = 2, got {space.atom_dim}")
    if space.fock_cutoff < m + 1:
        raise ValueError(f"fock_cutoff {space.fock_cutoff} too small for m={m}")


def multiquantum_hamiltonian(
    quanta: int, rate: float, theta: float, m: int, space: HilbertSpace
) -> np.ndarray:
    """Dense exchange of q = ``quanta`` quanta, rate*(e^{i theta}|g><e| a†^q + h.c.): check A10's reference model.

    It couples doublets {|g,n>, |e,n-q>}, the one at n = m with element
    rate*sqrt(m!/(m-q)!); the rate is free (for trapped ions it follows
    from the sideband expansion; it is not derived here).  The raising term
    carries e^{i theta} so the operator is Hermitian for any phase.  Fock
    levels below q are annihilated by a^q and stay uncoupled.  No gate or
    plan runs this model: every gate exchanges one quantum, on {m-1, m}.
    """
    _require_doublet(quanta, m, space)
    a_q = np.linalg.matrix_power(annihilation(space.fock_cutoff), quanta)
    raise_term = rate * np.exp(1j * theta) * tensor(atomic_sigma("g", "e", 2), a_q.conj().T)
    return raise_term + raise_term.conj().T


class BlockLayout(NamedTuple):
    """Where the blocks of one layout sit in the joint basis: read-only, built once per layout.

    A state in the block layout is a (nb, b) array of slots, slot (i, j)
    holding joint row ``index[i, j]``; flat slot s is (s // b, s % b).
    """

    index: np.ndarray    # (nb, b) joint row of each slot, a permutation of range(space.dim)
    inverse: np.ndarray  # (dim,) flat slot of each joint row
    flipped: np.ndarray  # (nb, b) flat slot each slot reads through the spin flip |g,n> <-> |e,n>


class PulseBlocks(NamedTuple):
    """A pulse generator as a stack of blocks of fixed excitation number.

    Block i acts on the joint basis indices ``layout.index[i]``, a row of a
    permutation of range(space.dim), so every joint state lies in exactly
    one block.  ``layout`` is shared by every pulse of the same layout and
    is read-only.
    """

    layout: BlockLayout    # the slots of the blocks in the joint basis
    generator: np.ndarray  # (nb, b, b) real symmetric blocks


@functools.lru_cache(maxsize=64)
def _block_layout(space: HilbertSpace, atoms: tuple[int, ...]) -> tuple[np.ndarray, BlockLayout]:
    """Excitation numbers N and their ``BlockLayout``, built once per layout and read-only.

    The first atomic level of ``atoms`` sits at Fock level N, the others at
    N - 1 mod fock_cutoff, for N = 0..fock_cutoff - 1: block 0 holds the
    members that the truncation leaves without an exchange partner.  The
    spin flip sends each member to the same Fock level of the swapped atomic
    level (|h> stays).  Every layout ends its atoms with |e>, (0, 1) or
    (0, 2, 1), so |e> is the last slot of every block:
    ``propagator.block_unitaries`` frames pulses by that position.
    """
    nf = space.fock_cutoff
    n = np.arange(nf)
    levels = (n[:, None] - (np.arange(len(atoms)) > 0)) % nf
    index = np.asarray(atoms) * nf + levels
    inverse = np.argsort(index, axis=None)
    flipped = inverse[np.asarray((1, 0, 2))[list(atoms)] * nf + levels]
    for array in (n, index, inverse, flipped):  # every caller shares them
        array.flags.writeable = False
    return n, BlockLayout(index, inverse, flipped)


def effective_blocks(p: RamanParams, space: HilbertSpace, m) -> PulseBlocks:
    """``effective_hamiltonian`` as doublets {|g,N>, |e,N-1>}, levels mod fock_cutoff; an array m gives a stack."""
    if space.atom_dim != 2:
        raise ValueError(f"effective model needs atom_dim = 2, got {space.atom_dim}")
    _require_cutoff(space, m)
    n, layout = _block_layout(space, (0, 1))
    rate = p.dispersive_rate
    energy = np.asarray(rate * m)[..., None]  # the |e> energy of each level
    H = np.zeros(energy.shape[:-1] + (len(n), 2, 2))
    H[..., 0, 0] = rate * n
    H[..., 1, 1] = energy
    H[..., 0, 1] = H[..., 1, 0] = p.coupling * np.sqrt(n)
    return PulseBlocks(layout, H)


def full_blocks(p: RamanParams, space: HilbertSpace, m) -> PulseBlocks:
    """``full_hamiltonian`` as triplets {|g,N>, |h,N-1>, |e,N-1>}, levels mod fock_cutoff; an array m gives a stack."""
    if space.atom_dim != 3:
        raise ValueError(f"full model needs atom_dim = 3, got {space.atom_dim}")
    _require_cutoff(space, m)
    n, layout = _block_layout(space, (0, 2, 1))
    energy = np.asarray(p.engineered_shift(m))[..., None]  # the |e> energy of each level
    H = np.zeros(energy.shape[:-1] + (len(n), 3, 3))
    H[..., 1, 1] = -p.delta
    H[..., 0, 1] = H[..., 1, 0] = p.g * np.sqrt(n)
    H[..., 1, 2] = H[..., 2, 1] = p.omega_l
    H[..., 2, 2] = energy
    return PulseBlocks(layout, H)


def ideal_blocks(p: RamanParams, space: HilbertSpace, m) -> PulseBlocks:
    """The ideal pulse, pair_energy + pair_coupling of ``decompose_effective``: ``effective_blocks`` kept on the pair.

    Of the doublets {|g,N>, |e,N-1>} only the resonant block N = m is kept
    whole; block N = m-1 keeps the energy of |g,m-1> and block N = m+1 that
    of |e,m>.  ``m`` is one level, or an array of levels for a
    (..., nb, 2, 2) stack on the one layout.
    """
    if space.atom_dim != 2:
        raise ValueError(f"ideal model needs atom_dim = 2, got {space.atom_dim}")
    levels = np.asarray(m)
    lowest = levels.min(initial=1)
    if lowest < 1:
        raise ValueError(f"ideal model needs m >= 1, got {lowest}")
    blocks = effective_blocks(p, space, levels)
    offset = (np.arange(space.fock_cutoff) - levels[..., None])[..., None, None]  # N - m of each block
    # block m whole, |g,m-1> on the diagonal of block m-1 and |e,m> on that of block m+1; np.where, so no -0.0
    keep = (offset == 0) | (offset == [[-1, 0], [0, 1]])
    return blocks._replace(generator=np.where(keep, blocks.generator, 0.0))
