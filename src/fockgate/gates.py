"""Three-step selective gate on one Fock pair and its closed-form rotation.

The circuit is: selective pulse of duration tau, instantaneous spin flip
sigma_x on the atom, second selective pulse of duration tau with the drive
phase retarded by theta0 = (g^2/delta)*tau.  For an atom prepared in a
sigma_x eigenstate |+-> the net effect on the oscillator is a unitary
rotation of the pair {|m-1>, |m>}, with the atom returned unentangled -- the
spin echo symmetrizes the dispersive phases of the two pulses.

Conventions, pinned by the oracle tests against brute-force propagation of
the exchange term lambda*(e^{i theta}|g><e| a† + h.c.):

* the disentangling second-pulse phase is -theta0 relative to the first
  (a second pulse at +theta0 leaves atom and oscillator entangled);
* for atomic input |+> the closed-form rotation on (c_{m-1}, c_m) is

      e^{-2i eta} * diag(e^{+i theta0}, 1) * [[cos phi, -i sin phi],
                                              [-i sin phi, cos phi]]

  with phi = lambda*tau*sqrt(m) and eta = (g^2 m/delta)*tau;
* atomic input |-> gives the same rotation with phi -> -phi times a global
  factor -1.

A common offset chi added to both pulse phases steers the rotation axis: the
transfer amplitudes pick up e^{+-i chi}.  The state-synthesis compiler uses
that knob for phase bookkeeping.

The spin flip is modeled as an instantaneous sigma_x on {g, e}.  For
near-degenerate level pairs (e.g. hyperfine partners) the same echo can be
produced without a flip, by briefly shifting the levels so that their roles
in the exchange swap (an anti-Jaynes-Cummings stretch); that hardware
variant is noted here but not modeled.

Both pulses are propagated by excitation-number blocks
(``hamiltonians.PulseBlocks``) and the flip is a permutation of joint
indices.  The drive phase theta enters only the g-e (or h-e) coupling, so a
pulse at theta is Z(theta) B Z(theta)† with Z(theta) = e^{-i theta |e><e|} ⊗ I
and B = exp(-i H0 tau) from the real theta = 0 generator H0: one eigensystem
per level and device serves both pulses and every offset and duration.
``apply_pair_gate`` applies the gate to joint states without building a
joint-space matrix; ``pair_gate`` assembles the dense unitary from the same
blocks.  The dense builders and ``Propagator`` serve as the oracle in
validation and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hamiltonians import (
    PulseBlocks,
    RamanParams,
    decompose_effective,
    effective_blocks,
    full_blocks,
    ideal_blocks,
    multiquantum_blocks,
    multiquantum_coupling_element,
)
from .hamiltonians import effective_hamiltonian  # noqa: F401  unused; bench/spans.py wraps it here
from .hamiltonians import full_hamiltonian  # noqa: F401  unused; bench/spans.py wraps it here
from .hamiltonians import multiquantum_hamiltonian  # noqa: F401  unused; bench/spans.py wraps it here
from .propagator import Propagator  # noqa: F401  unused; bench/spans.py replaces it here
from .propagator import apply_blocks, block_unitaries
from .spaces import HilbertSpace, atomic_sigma, fidelity, fock_populations, product_state, project_atom, tensor

MODELS = ("ideal", "effective", "full")


def model_space(model: str, fock_cutoff: int) -> HilbertSpace:
    """Working space of one model: three atomic levels (|h> kept) for "full", else two."""
    return HilbertSpace(3 if model == "full" else 2, fock_cutoff)


@dataclass(frozen=True)
class GateParams:
    """Derived quantities of one three-step gate on the pair {m-k, m}.

    phi is the rotation half-angle, equal to the doublet coupling element
    times tau; theta0 and eta are the dispersive phases (g^2/delta)*tau and
    (g^2 m/delta)*tau accumulated per pulse.  k = 1 is the cavity case; for
    k > 1 the dispersive structure is not modeled and theta0 = eta = 0.
    """

    m: int
    tau: float
    lam: float
    theta0: float
    phi: float
    eta: float
    k: int = 1

    def __post_init__(self):
        for name in ("m", "k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("lam", "tau", "phi", "theta0", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.m - self.k < 0:
            raise ValueError(f"pair {{{self.m - self.k}, {self.m}}} infeasible: m - k < 0")
        expected_phi = self.coupling_element * self.tau
        if not math.isclose(self.phi, expected_phi, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(
                f"phi = {self.phi} inconsistent with coupling*tau = {expected_phi}"
            )

    @property
    def coupling_element(self) -> float:
        """Exchange matrix element of the selected doublet."""
        return multiquantum_coupling_element(self.lam, self.m, self.k)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.m - self.k, self.m)

    @classmethod
    def from_raman(
        cls,
        p: RamanParams,
        m: int,
        phi: float | None = None,
        tau: float | None = None,
    ) -> "GateParams":
        """Single-quantum gate parameters; give exactly one of phi or tau."""
        lam = p.coupling
        phi, tau = _phi_and_tau(lam * math.sqrt(m), phi, tau)
        theta0 = p.dispersive_rate * tau
        return cls(m=m, tau=tau, lam=lam, theta0=theta0, phi=phi, eta=m * theta0, k=1)

    @classmethod
    def from_multiquantum(
        cls, lam_k: float, m: int, k: int, phi: float | None = None, tau: float | None = None
    ) -> "GateParams":
        """k-quantum gate on {m-k, m}; pure exchange, no dispersive phases."""
        phi, tau = _phi_and_tau(multiquantum_coupling_element(lam_k, m, k), phi, tau)
        return cls(m=m, tau=tau, lam=lam_k, theta0=0.0, phi=phi, eta=0.0, k=k)


def _phi_and_tau(element: float, phi: float | None, tau: float | None) -> tuple[float, float]:
    """(phi, tau) from exactly one of them, with phi = element * tau."""
    if (phi is None) == (tau is None):
        raise ValueError("give exactly one of phi or tau")
    name, value = ("phi", phi) if tau is None else ("tau", tau)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if tau is None:
        if element == 0.0:
            raise ValueError("cannot derive tau from phi with zero coupling")
        return phi, phi / element
    return element * tau, tau


def spin_flip(atom_dim: int) -> np.ndarray:
    """sigma_x on {g, e}; identity on any further atomic levels."""
    sx = atomic_sigma("g", "e", atom_dim) + atomic_sigma("e", "g", atom_dim)
    for extra in range(2, atom_dim):
        sx[extra, extra] = 1.0
    return sx


def atom_plus(atom_dim: int) -> np.ndarray:
    v = np.zeros(atom_dim, dtype=complex)
    v[0] = v[1] = 1.0 / np.sqrt(2.0)
    return v


def atom_minus(atom_dim: int) -> np.ndarray:
    v = np.zeros(atom_dim, dtype=complex)
    v[0] = 1.0 / np.sqrt(2.0)
    v[1] = -1.0 / np.sqrt(2.0)
    return v


def pulse_generator(gp: GateParams, p: RamanParams, space: HilbertSpace, model: str) -> PulseBlocks:
    """H0, the block generator of the pulses of ``gp`` at drive phase 0 (real for every model)."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    if space.fock_cutoff < gp.m + 2:
        raise ValueError(f"fock_cutoff {space.fock_cutoff} too small for m={gp.m}; need >= m + 2")
    if model == "ideal":
        if gp.k == 1:
            return ideal_blocks(p, space, gp.m)
        return multiquantum_blocks(gp.k, gp.lam, gp.m, space)
    if gp.k != 1:
        raise ValueError(f"{model} model is defined for k = 1 only")
    if model == "effective":
        return effective_blocks(p, space, gp.m)
    return full_blocks(p, space, gp.m)


def _flip_order(space: HilbertSpace) -> np.ndarray:
    """Joint row order x[order] that applies spin_flip ⊗ I to x: |g,n> <-> |e,n>."""
    nf = space.fock_cutoff
    order = np.arange(space.dim)
    order[: 2 * nf] = (order[: 2 * nf] + nf) % (2 * nf)
    return order


def pulse_at(index: np.ndarray, pulse: np.ndarray, space: HilbertSpace, theta) -> np.ndarray:
    """Z(theta) B Z(theta)†: the phase e^{-i theta} on each block's |e> members, for each theta given."""
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError(f"drive phase must be finite, got {theta}")
    nf = space.fock_cutoff
    z = np.exp(-1j * theta[..., None, None] * ((index >= nf) & (index < 2 * nf)))
    return z[..., :, None] * pulse * z.conj()[..., None, :]


def apply_echo(index, pulse, theta0, space: HilbertSpace, x, phase_offset: float = 0.0) -> np.ndarray:
    """pulse(chi) -> flip -> pulse(chi - theta0) on x, from the phase-0 block unitaries ``pulse``."""
    u1, u2 = pulse_at(index, pulse, space, [phase_offset, phase_offset - theta0])
    return apply_blocks(index, u2, apply_blocks(index, u1, x)[_flip_order(space)])


def apply_pair_gate(
    gp: GateParams,
    p: RamanParams,
    space: HilbertSpace,
    x: np.ndarray,
    model: str = "ideal",
    phase_offset: float = 0.0,
) -> np.ndarray:
    """The three-step gate pulse(chi) -> flip -> pulse(chi - theta0) applied to x.

    x is a joint state of shape (dim,) or a (dim, k) stack of columns.  Each
    pulse acts block by block (see ``hamiltonians.PulseBlocks``) and the
    spin flip is a row permutation, so the work is O(dim * b^2) per column
    and no joint-space matrix is built.  model selects the pulse: "ideal"
    keeps only the pair self-energy and resonant coupling (exactly confined
    to {m-k, m}); "effective" uses the eliminated two-level model with all
    its detuned exchange channels; "full" keeps the explicit third level.
    """
    index, generator = pulse_generator(gp, p, space, model)
    return apply_echo(index, block_unitaries(generator, gp.tau), gp.theta0, space, x, phase_offset)


def pair_gate(
    gp: GateParams,
    p: RamanParams,
    space: HilbertSpace,
    model: str = "ideal",
    phase_offset: float = 0.0,
) -> np.ndarray:
    """Dense unitary of ``apply_pair_gate``, assembled entry by entry from the blocks.

    U = B2 F B1 with block-diagonal pulses B1, B2 and the flip F.  Row s of
    F B1 is row order[s] of B1, nonzero only on the columns of one B1
    block.  The flip moves the members of one B2 block into distinct B1
    blocks (it shifts N by +k on |g>, -k on |e> and 0 on |h>), so the
    b^3 products per B2 block land on distinct entries of U.
    """
    dim = space.dim
    index, generator = pulse_generator(gp, p, space, model)
    pulse = block_unitaries(generator, gp.tau)
    u1, u2 = pulse_at(index, pulse, space, [phase_offset, phase_offset - gp.theta0])
    nb, b = index.shape
    block = np.empty(dim + 1, dtype=int)
    position = np.empty(dim + 1, dtype=int)
    block[index] = np.arange(nb)[:, None]
    position[index] = np.arange(b)
    source = np.append(_flip_order(space), dim)[index]  # B1 row read by each B2 column
    columns = index[block[source]]
    # a missing B2 member has no B1 row: its products go to the dropped
    # column, not onto entries that another product sets
    columns[source == dim] = dim
    values = u2[:, :, :, None] * u1[block[source], position[source]][:, None, :, :]
    out = np.zeros((dim + 1, dim + 1), dtype=complex)
    out[index[:, :, None, None], columns[:, None, :, :]] = values
    return out[:dim, :dim]


def rotation_matrix(gp: GateParams, atom_sign: int = +1, phase_offset: float = 0.0) -> np.ndarray:
    """Closed-form 2x2 rotation induced on (|m-k>, |m>) for atom input |+> or |->.

    atom_sign = +1 for |+>, -1 for |->; the latter flips the rotation sense
    and carries a global -1 from the spin flip.
    """
    if atom_sign not in (+1, -1):
        raise ValueError(f"atom_sign must be +1 or -1, got {atom_sign}")
    phi = atom_sign * gp.phi
    c, s = np.cos(phi), np.sin(phi)
    chi = phase_offset
    kernel = np.array(
        [[c, -1j * s * np.exp(-1j * chi)], [-1j * s * np.exp(1j * chi), c]], dtype=complex
    )
    free = np.diag([np.exp(1j * gp.theta0), 1.0]).astype(complex)
    sign = 1.0 if atom_sign == +1 else -1.0
    return sign * np.exp(-2j * gp.eta) * (free @ kernel)


def closed_form_rotation(
    alpha: complex,
    beta: complex,
    gp: GateParams,
    atom_sign: int = +1,
    phase_offset: float = 0.0,
) -> np.ndarray:
    """Final (c_{m-k}, c_m) for pair input alpha|m-k> + beta|m>."""
    nrm = abs(alpha) ** 2 + abs(beta) ** 2
    if not math.isclose(nrm, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError(f"|alpha|^2 + |beta|^2 = {nrm}, expected 1")
    return rotation_matrix(gp, atom_sign, phase_offset) @ np.array([alpha, beta], dtype=complex)


def closed_form_states(
    gp: GateParams, space: HilbertSpace, alpha: complex, beta: complex, reference: GateParams | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """|+> ⊗ (alpha|m-k> + beta|m>) and |+> ⊗ its ``closed_form_rotation`` under ``reference`` (or ``gp``)."""
    osc = np.zeros((2, space.fock_cutoff), dtype=complex)
    osc[:, list(gp.pair)] = [alpha, beta], closed_form_rotation(alpha, beta, reference or gp)
    return tuple(product_state(space, atom_plus(space.atom_dim), osc.T).T)


def closed_form_check(
    U: np.ndarray,
    gp: GateParams,
    space: HilbertSpace,
    alpha: complex,
    beta: complex,
    reference: GateParams | None = None,
) -> tuple[np.ndarray, float]:
    """Apply U to |+> ⊗ (alpha|m-k> + beta|m>) and score it against the closed form.

    Returns the output joint state and its fidelity with |+> ⊗ the pair as
    ``closed_form_rotation`` maps it under ``reference`` (default ``gp``).
    """
    prepared, expected = closed_form_states(gp, space, alpha, beta, reference)
    psi = U @ prepared
    return psi, fidelity(expected, psi, space)


class EchoFactors(NamedTuple):
    """sigma_x-conjugated pieces of the pulse Hamiltonian."""

    flipped_pulse: np.ndarray     # sigma_x (pair_energy + pair_coupling(0)) sigma_x
    flipped_coupling: np.ndarray  # sigma_x pair_coupling(0) sigma_x
    flipped_energy: np.ndarray    # sigma_x pair_energy sigma_x


def echo_factors(gp: GateParams, p: RamanParams, space: HilbertSpace) -> EchoFactors:
    """Conjugate the ideal pulse terms at drive phase 0 by the spin flip.

    These satisfy [pair_energy, pair_coupling] = 0 and
    [pair_coupling, flipped_coupling] = 0, the identities behind the
    closed-form reduction of the three-step product.
    """
    if space.atom_dim != 2:
        raise ValueError(f"echo factors need atom_dim = 2, got {space.atom_dim}")
    parts = decompose_effective(p, space, gp.m)
    flip = tensor(spin_flip(2), np.eye(space.fock_cutoff, dtype=complex))
    flipped_energy = flip @ parts.pair_energy @ flip
    flipped_coupling = flip @ parts.pair_coupling @ flip
    return EchoFactors(flipped_energy + flipped_coupling, flipped_coupling, flipped_energy)


def combined_echo_coupling(gp: GateParams, space: HilbertSpace, angle: float) -> np.ndarray:
    """(coupling(angle) + flipped coupling(angle)) * tau in projector form.

    Equals phi * (|+><+| - |-><-|) ⊗ (e^{i angle}|m><m-1| + h.c.), i.e. a
    direct pair coupling whose sign is set by the atomic sigma_x eigenvalue.
    """
    plus = atom_plus(2)
    minus = atom_minus(2)
    atom_part = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
    osc = np.zeros((space.fock_cutoff, space.fock_cutoff), dtype=complex)
    osc[gp.m, gp.m - 1] = np.exp(1j * angle)
    osc[gp.m - 1, gp.m] = np.exp(-1j * angle)
    return gp.phi * tensor(atom_part, osc)


def leakage(psi: np.ndarray, m: int, k: int, space: HilbertSpace) -> float:
    """Population outside the Fock pair {m-k, m}, summed over atomic levels."""
    pops = fock_populations(psi, space)
    kept = pops[m - k] + pops[m]
    return float(np.sum(pops) - kept)


def induced_oscillator_unitary(
    gate: np.ndarray, space: HilbertSpace, atom_state: np.ndarray
) -> np.ndarray:
    """(<a| ⊗ I) U (|a> ⊗ I): the oscillator map for a fixed atomic in/out state.

    Unitary (up to round-off) exactly when the gate leaves that atomic state
    unentangled from the oscillator.
    """
    prepared = product_state(space, atom_state, np.eye(space.fock_cutoff))
    return project_atom(atom_state, gate @ prepared, space)
