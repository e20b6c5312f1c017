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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hamiltonians import (
    RamanParams,
    decompose_effective,
    effective_hamiltonian,
    full_hamiltonian,
    multiquantum_coupling_element,
    multiquantum_hamiltonian,
)
from .propagator import Propagator
from .spaces import HilbertSpace, StateVector, atomic_sigma, fidelity, product_state, tensor

MODELS = ("ideal", "effective", "full")

_INVARIANT_RTOL = 1e-12


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
        if (phi is None) == (tau is None):
            raise ValueError("give exactly one of phi or tau")
        lam = p.coupling
        element = lam * math.sqrt(m)
        if tau is None:
            if element == 0.0:
                raise ValueError("cannot derive tau from phi with zero coupling")
            tau = phi / element
        else:
            phi = element * tau
        theta0 = p.dispersive_rate * tau
        return cls(m=m, tau=tau, lam=lam, theta0=theta0, phi=phi, eta=m * theta0, k=1)

    @classmethod
    def from_multiquantum(
        cls, lam_k: float, m: int, k: int, phi: float | None = None, tau: float | None = None
    ) -> "GateParams":
        """k-quantum gate on {m-k, m}; pure exchange, no dispersive phases."""
        if (phi is None) == (tau is None):
            raise ValueError("give exactly one of phi or tau")
        element = multiquantum_coupling_element(lam_k, m, k)
        if tau is None:
            if element == 0.0:
                raise ValueError("cannot derive tau from phi with zero coupling")
            tau = phi / element
        else:
            phi = element * tau
        return cls(m=m, tau=tau, lam=lam_k, theta0=0.0, phi=phi, eta=0.0, k=k)


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


def _pulse_hamiltonian(
    gp: GateParams, p: RamanParams, space: HilbertSpace, model: str, angle: float
) -> np.ndarray:
    if model == "ideal":
        if gp.k == 1:
            parts = decompose_effective(p, space, gp.m, angle)
            return parts.pair_energy + parts.pair_coupling
        full_coupling = multiquantum_hamiltonian(gp.k, gp.lam, angle, gp.m, space)
        keep = np.zeros_like(full_coupling)
        i_g = space.index("g", gp.m)
        i_e = space.index("e", gp.m - gp.k)
        keep[i_g, i_e] = full_coupling[i_g, i_e]
        keep[i_e, i_g] = full_coupling[i_e, i_g]
        return keep
    if model == "effective":
        if gp.k != 1:
            raise ValueError("effective model is defined for k = 1 only")
        return effective_hamiltonian(p, space, gp.m, angle)
    if model == "full":
        if gp.k != 1:
            raise ValueError("full model is defined for k = 1 only")
        return full_hamiltonian(p, space, gp.m, angle)
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


def pair_gate(
    gp: GateParams,
    p: RamanParams,
    space: HilbertSpace,
    model: str = "ideal",
    phase_offset: float = 0.0,
) -> np.ndarray:
    """Unitary of the three-step gate: pulse(chi) -> flip -> pulse(chi - theta0).

    model selects the pulse Hamiltonian: "ideal" keeps only the pair
    self-energy and resonant coupling (exactly confined to {m-1, m});
    "effective" uses the eliminated two-level model with all its detuned
    exchange channels; "full" keeps the explicit third level.
    """
    if space.fock_cutoff < gp.m + 2:
        raise ValueError(
            f"fock_cutoff {space.fock_cutoff} too small for m={gp.m}; need >= m + 2"
        )
    chi = phase_offset
    h_first = _pulse_hamiltonian(gp, p, space, model, chi)
    h_second = _pulse_hamiltonian(gp, p, space, model, chi - gp.theta0)
    flip = tensor(spin_flip(space.atom_dim), np.eye(space.fock_cutoff, dtype=complex))
    u_first = Propagator(h_first).unitary(gp.tau)
    u_second = Propagator(h_second).unitary(gp.tau)
    return u_second @ flip @ u_first


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
    plus = atom_plus(space.atom_dim)
    lo, hi = gp.pair
    osc = np.zeros(space.fock_cutoff, dtype=complex)
    osc[lo], osc[hi] = alpha, beta
    psi = U @ product_state(space, plus, osc).amplitudes
    ref_osc = np.zeros(space.fock_cutoff, dtype=complex)
    ref_osc[lo], ref_osc[hi] = closed_form_rotation(alpha, beta, reference or gp)
    ref = product_state(space, plus, ref_osc).amplitudes
    return psi, fidelity(ref, psi, space)


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


def leakage(psi: StateVector | np.ndarray, m: int, k: int = 1, space: HilbertSpace | None = None) -> float:
    """Population outside the Fock pair {m-k, m}, summed over atomic levels."""
    if isinstance(psi, StateVector):
        space = psi.space
        amps = psi.amplitudes
    else:
        if space is None:
            raise ValueError("a HilbertSpace is required when passing a bare array")
        amps = np.asarray(psi, dtype=complex)
    pops = np.sum(np.abs(amps.reshape(space.atom_dim, space.fock_cutoff)) ** 2, axis=0)
    kept = pops[m - k] + pops[m]
    return float(np.sum(pops) - kept)


def induced_oscillator_unitary(
    gate: np.ndarray, space: HilbertSpace, atom_state: np.ndarray
) -> np.ndarray:
    """(<a| ⊗ I) U (|a> ⊗ I): the oscillator map for a fixed atomic in/out state.

    Unitary (up to round-off) exactly when the gate leaves that atomic state
    unentangled from the oscillator.
    """
    atom_state = np.asarray(atom_state, dtype=complex)
    nf = space.fock_cutoff
    bra = np.kron(atom_state.conj(), np.eye(nf, dtype=complex))
    ket = np.kron(atom_state.reshape(-1, 1), np.eye(nf, dtype=complex))
    return bra @ gate @ ket
