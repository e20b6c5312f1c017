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
that knob for phase bookkeeping.  ``rotation_matrix`` writes the closed form
as a 2x2 matrix for either atomic input and any chi; ``closed_form_states``
writes a batch of pair inputs and their images under it (atom |+>, chi = 0)
as joint states.

The spin flip is modeled as an instantaneous sigma_x on {g, e}.  For
near-degenerate level pairs (e.g. hyperfine partners) the same echo can be
produced without a flip, by briefly shifting the levels so that their roles
in the exchange swap (an anti-Jaynes-Cummings stretch); that hardware
variant is noted here but not modeled.

Both pulses are propagated by excitation-number blocks
(``hamiltonians.PulseBlocks``, whose layout is a permutation of the joint
basis) and the flip is a permutation of the blocks' slots
(``hamiltonians.BlockLayout``).  The drive phase theta enters only the g-e
(or h-e) coupling, so a pulse at theta is Z(theta) B Z(theta)† with
Z(theta) = e^{-i theta |e><e|} ⊗ I and B = exp(-i H0 tau) from the real
theta = 0 generator H0: one block stack per level and device serves both
pulses and every offset and duration.  ``echo_pulses`` builds the framed
pulses of one gate or a batch in one ``propagator.block_unitaries`` call,
which writes each pulse in its frame (doublets entry by entry from the
closed form), and ``echo_slots`` runs them on states held in the block
layout: pulse, one gather through the flip's slots, pulse.  ``run_echo``
gathers joint states into that layout and back (``apply_pair_gate``;
``closed_form_samples``, the one route by which ``sweep`` and ``validate``
run sampled gates on several devices, a pass per block layout, and score
them against ``closed_form_states``); plan execution and calibration gather
|+> ⊗ osc into it straight from the oscillator.  ``pair_gate`` writes the
dense unitary from the same pulses, the flip's slots naming the first-pulse
row of each product, into dense entries computed once per space.
``gate_columns`` holds the gate arithmetic, tau, theta0 and 2*eta from the
angle, for ``raman_columns`` and the configuration checks.  Every gate
exchanges one quantum, on the adjacent pair {m-1, m}: adjacent pairs are
all that a ladder of two-by-two rotations needs to reach any oscillator
state or unitary (Reck et al., PRL 73, 58 (1994); Law and Eberly, PRL 76,
1055 (1996)).  The dense builders serve as the oracle in validation and the
tests; ``Propagator`` runs the same ``block_unitaries`` on one dense block,
at drive phase 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .hamiltonians import (
    BlockLayout,
    PulseBlocks,
    RamanParams,
    _block_layout,
    decompose_effective,
    effective_blocks,
    full_blocks,
    ideal_blocks,
)
from .hamiltonians import effective_hamiltonian  # noqa: F401  unused; bench/spans.py wraps it here
from .hamiltonians import full_hamiltonian  # noqa: F401  unused; bench/spans.py wraps it here
from .hamiltonians import multiquantum_hamiltonian  # noqa: F401  unused; bench/spans.py wraps it here
from .propagator import Propagator  # noqa: F401  unused; bench/spans.py replaces it here
from .propagator import block_unitaries
from .spaces import HilbertSpace, atomic_sigma, fock_populations, product_state, project_atom, tensor

MODELS = ("ideal", "effective", "full")


def model_space(model: str, fock_cutoff: int) -> HilbertSpace:
    """Working space of one model: three atomic levels (|h> kept) for "full", else two."""
    return HilbertSpace(3 if model == "full" else 2, fock_cutoff)


@dataclass(frozen=True)
class GateParams:
    """Derived quantities of one three-step gate on the pair {m-1, m}.

    phi is the rotation half-angle, equal to the doublet coupling element
    lam*sqrt(m) times tau; theta0 = (g^2/delta)*tau is the dispersive phase
    per pulse and eta = m*theta0 its echo on level m.  Every gate exchanges
    one quantum: k is 1 on the class, not a field.
    """

    m: int
    tau: float
    lam: float
    theta0: float
    phi: float
    k: ClassVar[int] = 1

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, (int, np.integer)):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        try:
            eta = self.eta
        except OverflowError:  # m * theta0 takes m as a float
            raise ValueError(f"level m = {self.m} must lie in float range") from None
        for name, value in (("lam", self.lam), ("tau", self.tau), ("phi", self.phi),
                            ("theta0", self.theta0), ("2*eta", 2 * eta)):  # the closed form's e^{-2i eta}
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        expected_phi = self.coupling_element * self.tau
        if not math.isclose(self.phi, expected_phi, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(
                f"phi = {self.phi} inconsistent with coupling*tau = {expected_phi}"
            )

    @property
    def eta(self) -> float:
        """Echoed dispersive phase m*theta0 = (g^2 m/delta)*tau."""
        return self.m * self.theta0

    @property
    def coupling_element(self) -> float:
        """Exchange matrix element lam*sqrt(m) of the selected doublet {|g,m>, |e,m-1>}."""
        return self.lam * math.sqrt(self.m)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.m - 1, self.m)

    @classmethod
    def from_raman(cls, p: RamanParams, m: int, phi: float) -> "GateParams":
        """Gate at angle phi on device p, tau and theta0 from ``raman_columns``."""
        tau, theta0 = (column.item() for column in raman_columns([p], m, phi))
        return cls(m=m, tau=tau, lam=p.coupling, theta0=theta0, phi=phi)


def gate_columns(lam, rate, m, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tau = phi/(lam*sqrt(m)), theta0 = rate*tau and 2*eta = 2*(m*theta0) of gates (m, phi) on (lam, rate) columns.

    rate is the dispersive rate g^2/delta; all arguments broadcast.  An
    overflow or invalid value gives inf or nan without a warning, for the
    caller to name; so does a level beyond float range, taken as +-inf.
    """
    try:
        level = np.asarray(m, dtype=float)  # a level past int64 as a float, as math.sqrt takes it
    except OverflowError:  # a Python int past float range
        level = np.vectorize(_float_or_inf, otypes=[float])(np.asarray(m, dtype=object))
    with np.errstate(all="ignore"):
        tau = phi / (lam * np.sqrt(level))
        theta0 = rate * tau
        return tau, theta0, 2 * (level * theta0)


def _float_or_inf(level) -> float:
    """``float(level)``, or +-inf for an integer beyond float range."""
    try:
        return float(level)
    except OverflowError:
        return math.inf if level > 0 else -math.inf


def raman_columns(devices: list[RamanParams], m, phi) -> tuple[np.ndarray, np.ndarray]:
    """tau and theta0 of gates (m[j], phi[j]) on devices[i], as (devices, gates) arrays.

    ``gate_columns`` on the devices' coupling and dispersive rate, with m
    and phi broadcast to one gate axis.  The first gate whose columns are
    not finite raises its error: a level below 1, a phi that is not finite,
    a zero coupling, or the message of ``GateParams``.
    """
    lam = np.array([p.coupling for p in devices])[:, None]
    rate = np.array([p.dispersive_rate for p in devices])[:, None]
    tau, theta0, doubled = gate_columns(lam, rate, m, phi)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(lam * doubled)
    if bad.any():
        m, phi = (np.broadcast_to(np.asarray(column, dtype=object), tau.shape[-1:]) for column in (m, phi))
        for i, j in zip(*np.nonzero(bad)):  # a gate flagged only as lam * 2*eta overflows builds, and passes
            if m[j] < 1:
                raise ValueError(f"m must be >= 1, got {m[j]}")
            if not math.isfinite(phi[j]):
                raise ValueError(f"phi must be finite, got {phi[j]}")
            if lam[i, 0] == 0.0:
                raise ValueError("cannot derive tau from phi with zero coupling")
            GateParams(m=m[j], tau=tau[i, j].item(), lam=lam[i, 0].item(), theta0=theta0[i, j].item(), phi=phi[j])
    return tau, theta0


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


def pulse_generator(p: RamanParams, space: HilbertSpace, model: str, m) -> PulseBlocks:
    """H0, the block generator at drive phase 0 (real for every model) of the pulses on level m.

    m may be an array of levels, for a (..., nb, b, b) stack on one layout;
    the first level whose guard level lies outside the space is named.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    return {"ideal": ideal_blocks, "effective": effective_blocks, "full": full_blocks}[model](p, space, m)


def echo_pulses(generator: np.ndarray, tau, theta0, chi) -> np.ndarray:
    """The framed pulses (2, ..., nb, b, b) of the echo pulse(chi) -> flip -> pulse(chi - theta0), for ``run_echo``.

    ``generator`` is a phase-0 stack (..., nb, b, b), a ``PulseBlocks``'
    generator; tau, theta0 and chi broadcast against its gate axes.  One
    ``block_unitaries`` call writes both pulses, each in the frame of its
    drive phase.  A non-finite drive phase is a ValueError; in a batch it
    names the gate as a plan step.
    """
    theta = np.empty((2,) + np.broadcast(chi, theta0).shape)  # chi and chi - theta0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned about
        theta[0], theta[1] = chi, np.subtract(chi, theta0)
    bad = np.flatnonzero(~np.isfinite(theta).all(axis=0)) if theta.ndim == 2 else ()
    if len(bad):
        first, second = theta[:, bad[0]].tolist()
        raise ValueError(f"plan step {bad[0]}: drive phases chi = {first!r}, chi - theta0 = {second!r} must be finite")
    return block_unitaries(generator, np.asarray(tau, dtype=float)[..., None], theta[..., None])


def echo_slots(pulses: np.ndarray, flipped: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """pulse -> flip -> pulse on states in the block layout: (..., nb, b, k) slots in, a new such array out.

    ``pulses`` is an ``echo_pulses`` array (2, ..., nb, b, b) and ``flipped``
    its layout's flip: each pulse is one batched b x b product, and the flip
    one gather of the slots between them.
    """
    first = pulses[0] @ slots
    return pulses[1] @ first.reshape(first.shape[:-3] + (-1, first.shape[-1]))[..., flipped, :]


def run_echo(layout: BlockLayout, pulses: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The echo ``pulses`` on ``layout`` applied to joint states ``states``, shape (..., dim, k), as a new array.

    O(dim * b^2) per column.  The leading axes of ``states`` are the gate
    axes of ``pulses``.  The states are gathered into the block layout, run
    through ``echo_slots`` and gathered back by the inverse layout; no
    joint-space matrix is built.
    """
    index, inverse, flipped = layout
    out = echo_slots(pulses, flipped, states[..., index, :])
    return out.reshape(out.shape[:-3] + (-1, out.shape[-1]))[..., inverse, :]


def apply_pair_gate(
    gp: GateParams,
    p: RamanParams,
    space: HilbertSpace,
    x: np.ndarray,
    model: str = "ideal",
    phase_offset: float = 0.0,
) -> np.ndarray:
    """The three-step gate pulse(chi) -> flip -> pulse(chi - theta0) applied to x.

    x is a finite joint state of shape (dim,) or a (dim, k) stack of
    columns; another shape or a non-finite amplitude is a ValueError.  The
    gate runs block by block (``run_echo``).
    model selects the pulse: "ideal" keeps only the pair self-energy and
    resonant coupling (exactly confined to {m-1, m}); "effective" uses the
    eliminated two-level model with all its detuned exchange channels;
    "full" keeps the explicit third level.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or len(x) != space.dim:
        raise ValueError(f"state has shape {x.shape}, expected ({space.dim},) or ({space.dim}, k)")
    if not np.isfinite(x).all():
        raise ValueError("state amplitudes must be finite")
    blocks = pulse_generator(p, space, model, gp.m)
    pulses = echo_pulses(blocks.generator, gp.tau, gp.theta0, phase_offset)
    return run_echo(blocks.layout, pulses, x.reshape(space.dim, -1)).reshape(x.shape)


def pair_gate(
    gp: GateParams,
    p: RamanParams,
    space: HilbertSpace,
    model: str = "ideal",
    phase_offset: float = 0.0,
) -> np.ndarray:
    """Dense unitary of ``apply_pair_gate``, written entry by entry from the blocks.

    U = B2 F B1 with block-diagonal pulses B1, B2 and the flip F.  Row s of
    F B1 is the B1 row of slot flipped[s], nonzero only on the columns of
    one B1 block, so each B2 block contributes b^3 products.  The flip
    shifts N by +1 on |g>, -1 on |e> and 0 on |h>, mod fock_cutoff, so at
    every cutoff a gate allows (3 and up) the members of one B2 block read
    distinct B1 blocks, and each entry of U is one product, written where
    ``_dense_entries`` says.
    """
    dim = space.dim
    blocks = pulse_generator(p, space, model, gp.m)
    first, second = echo_pulses(blocks.generator, gp.tau, gp.theta0, phase_offset)
    b = first.shape[-1]
    values = second[:, :, :, None] * first.reshape(-1, b)[blocks.layout.flipped][:, None, :, :]
    out = np.zeros(dim * dim, dtype=complex)
    out[_dense_entries(space)] = values.ravel()
    return out.reshape(dim, dim)


@functools.lru_cache(maxsize=8)
def _dense_entries(space: HilbertSpace) -> np.ndarray:
    """Flat dim x dim entry of each ``pair_gate`` product second[i, r, j] * first[flipped[i, j], c], by (i, r, j, c).

    It depends only on the block layout, which the space's atom count fixes
    (``hamiltonians._block_layout``), so it is built once per space; the
    array is read-only.
    """
    index, _, flipped = _block_layout(space, (0, 1) if space.atom_dim == 2 else (0, 2, 1))[1]
    entries = (space.dim * index[:, :, None, None] + index[flipped // index.shape[1]][:, None, :, :]).ravel()
    entries.flags.writeable = False
    return entries


def rotation_matrix(gp: GateParams, atom_sign: int = +1, phase_offset: float = 0.0) -> np.ndarray:
    """Closed-form 2x2 rotation induced on (|m-1>, |m>) for atom input |+> or |->.

    atom_sign = +1 for |+>, -1 for |->; the latter flips the rotation sense
    and carries a global -1 from the spin flip.
    """
    if atom_sign not in (+1, -1):
        raise ValueError(f"atom_sign must be +1 or -1, got {atom_sign}")
    return np.array(_rotated(gp.m, gp.phi, gp.theta0, *np.eye(2), atom_sign, phase_offset))  # columns: |m-1>, |m>


def _rotated(m, phi, theta0, alpha, beta, atom_sign: int = +1, chi: float = 0.0) -> tuple:
    """(c_{m-1}, c_m) that ``rotation_matrix`` makes of alpha|m-1> + beta|m>; all arguments broadcast."""
    phi, theta0 = np.multiply(atom_sign, phi), np.asarray(theta0)
    c, s, offset = np.cos(phi), -1j * np.sin(phi), np.exp(1j * chi)
    echo = atom_sign * np.exp(-2j * (m * theta0))  # e^{-2i eta}, and the flip's -1 for |->
    return echo * np.exp(1j * theta0) * (c * alpha + s / offset * beta), echo * (s * offset * alpha + c * beta)


def closed_form_states(space: HilbertSpace, m, phi, theta0, alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """|+> ⊗ (alpha|m-1> + beta|m>) and |+> ⊗ the pair as the closed form maps it, as (..., dim) stacks.

    m, phi, theta0, alpha and beta broadcast together, one gate each (scalars:
    one (dim,) state each); the map is ``rotation_matrix`` of such a gate for
    atom |+>.  |alpha|^2 + |beta|^2 off 1 by more than 1e-9, an m below 1
    or at or above fock_cutoff, or a phi, theta0 or 2*eta = 2*(m*theta0)
    that is not finite (``GateParams``' rules), is a ValueError.
    """
    m, alpha, beta = np.asarray(m), np.asarray(alpha, dtype=complex), np.asarray(beta, dtype=complex)
    if (m < 1).any():
        raise ValueError(f"m must be >= 1, got {m[m < 1].flat[0]}")
    if (m >= space.fock_cutoff).any():
        raise ValueError(f"m = {m.max()} lies outside fock_cutoff {space.fock_cutoff}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, not warned about
        doubled = 2 * (m * np.asarray(theta0))
        nrm = np.hypot(np.abs(alpha), np.abs(beta))  # inf only past the float range, unlike |alpha|^2
        off = np.abs(nrm * nrm - 1.0)
    for name, value in (("phi", phi), ("theta0", theta0), ("2*eta", doubled)):  # the closed form's e^{-2i eta}
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")
    if not (off <= 1e-9).all():
        raise ValueError(f"sqrt(|alpha|^2 + |beta|^2) = {nrm}, expected 1")
    amps = np.empty((4,) + np.broadcast(m, phi, theta0, alpha, beta).shape + (1,), dtype=complex)  # filled in place
    amps[0, ..., 0], amps[1, ..., 0] = alpha, beta
    amps[2, ..., 0], amps[3, ..., 0] = _rotated(m, phi, theta0, alpha, beta)
    levels = np.arange(space.fock_cutoff)  # the pair's levels of each gate, as masks
    osc = (levels == (m - 1)[..., None]) * amps[0::2] + (levels == m[..., None]) * amps[1::2]
    joint = atom_plus(space.atom_dim)[:, None] * osc[..., None, :]
    return tuple(joint.reshape(osc.shape[:-1] + (space.dim,)))


def closed_form_samples(devices: list[RamanParams], space: HilbertSpace, models, m, phi, alpha, beta) -> tuple:
    """Gates (m, phi) of each model on each device run from |+> ⊗ (alpha|m-1> + beta|m>), and their closed-form images.

    The models share ``space``, so one block layout (``ideal`` and ``effective``, or ``full``);
    m, phi, alpha and beta broadcast over one sample axis (m a level or a column of levels).
    One pass: one ``raman_columns`` call, one ``pulse_generator`` per model and device, one
    ``echo_pulses`` (on tau[None] and theta0[None], so the models axis misses its pulse axis),
    one ``closed_form_states`` and one ``run_echo``.  Returns the output states (models,
    devices, samples, dim), their images (devices, samples, dim), and tau and theta0 (devices, samples).
    """
    tau, theta0 = raman_columns(devices, m, phi)
    blocks = [pulse_generator(p, space, model, m) for model in models for p in devices]
    shape = (len(models), len(devices), -1) + blocks[0].generator.shape[-3:]  # one level: the samples share its blocks
    pulses = echo_pulses(np.reshape([b.generator for b in blocks], shape), tau[None], theta0[None], 0.0)
    prepared, expected = closed_form_states(space, m, phi, theta0, alpha, beta)
    return run_echo(blocks[0].layout, pulses, prepared[..., None])[..., 0], expected, tau, theta0


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


def leakage(psi: np.ndarray, m: int, space: HilbertSpace):
    """Population outside the Fock pair {m-1, m}, summed over atomic levels.

    A float for one joint state (dim,), an array for a (..., dim) stack.  A
    pair outside the space (m < 1 or m >= fock_cutoff) is a ValueError.
    """
    if m < 1 or m >= space.fock_cutoff:
        raise ValueError(f"pair {{{m - 1}, {m}}} lies outside the Fock levels 0..{space.fock_cutoff - 1}")
    pops = fock_populations(psi, space)
    value = np.add.reduce(pops, axis=-1) - (pops[..., m - 1] + pops[..., m])
    return float(value) if pops.ndim == 1 else value


def induced_oscillator_unitary(
    gate: np.ndarray, space: HilbertSpace, atom_state: np.ndarray
) -> np.ndarray:
    """(<a| ⊗ I) U (|a> ⊗ I): the oscillator map for a fixed atomic in/out state.

    Unitary (up to round-off) exactly when the gate leaves that atomic state
    unentangled from the oscillator.
    """
    prepared = product_state(space, atom_state, np.eye(space.fock_cutoff))
    return project_atom(atom_state, gate @ prepared, space)
