import re
import warnings

import numpy as np
import pytest
from dataclasses import fields, replace
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from fockgate import (
    GateParams,
    HilbertSpace,
    RamanParams,
    atom_minus,
    atom_plus,
    combined_echo_coupling,
    decompose_effective,
    echo_factors,
    induced_oscillator_unitary,
    leakage,
    pair_gate,
    product_state,
    purity,
    reduced_oscillator_state,
    rotation_matrix,
    selective_hamiltonian,
    spin_flip,
    tensor,
)
from fockgate.gates import closed_form_samples, closed_form_states, echo_pulses, pulse_generator
from fockgate.gates import raman_columns, run_echo
from fockgate.hamiltonians import BlockLayout, effective_blocks, full_blocks, ideal_blocks
from fockgate.propagator import Propagator, block_unitaries
from fockgate.spaces import fidelity, max_abs

from conftest import dense_pulse, expm_gate, random_pair_amplitudes


def pair_input(space, atom, alpha, beta, m):
    osc = np.zeros(space.fock_cutoff, dtype=complex)
    osc[m - 1], osc[m] = alpha, beta
    return product_state(space, atom, osc)


def embed_pair(space, atom, pair, m):
    osc = np.zeros(space.fock_cutoff, dtype=complex)
    osc[m - 1], osc[m] = pair
    return product_state(space, atom, osc)


# ---- gate parameter bookkeeping -------------------------------------------


def test_from_raman_derived_quantities(params):
    gp = GateParams.from_raman(params, m=4, phi=0.9)
    assert gp.phi == pytest.approx(gp.lam * gp.tau * np.sqrt(4))
    assert gp.theta0 == pytest.approx(params.dispersive_rate * gp.tau)
    assert gp.eta == pytest.approx(4 * gp.theta0)
    # a level past int64 is a float under the square root, as for math.sqrt
    assert GateParams.from_raman(params, m=2**70, phi=0.9).tau == 0.9 / (params.coupling * np.sqrt(2.0**70))


@settings(max_examples=30)
@given(st.integers(1, 6), st.floats(0.01, 6.0))
def test_from_raman_invariants(m, phi):
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    gp = GateParams.from_raman(p, m=m, phi=phi)
    assert gp.phi == pytest.approx(gp.lam * np.sqrt(m) * gp.tau, rel=1e-12)
    assert gp.eta == pytest.approx(m * gp.theta0, rel=1e-12)


def test_eta_is_derived_from_theta0(params):
    # eta is no field of its own: a replaced theta0 carries it along
    assert [f.name for f in fields(GateParams)] == ["m", "tau", "lam", "theta0", "phi"]
    gp = GateParams.from_raman(params, m=3, phi=0.7)
    corrupt = replace(gp, theta0=-gp.theta0)
    assert (gp.eta, corrupt.eta) == (3 * gp.theta0, -3 * gp.theta0)


def test_gate_params_consistency_enforced():
    with pytest.raises(ValueError, match="phi"):
        GateParams(m=1, tau=1.0, lam=0.01, theta0=0.05, phi=0.5)
    # every gate exchanges one quantum, on {m-1, m}: k is no field, and the pair needs m >= 1
    assert GateParams.k == 1 and GateParams(m=3, tau=0.0, lam=0.01, theta0=0.0, phi=0.0).pair == (2, 3)
    with pytest.raises(TypeError, match="k"):
        GateParams(m=2, tau=0.0, lam=0.01, theta0=0.0, phi=0.0, k=2)
    with pytest.raises(ValueError, match="m must be >= 1, got 0"):
        GateParams(m=0, tau=0.0, lam=0.01, theta0=0.0, phi=0.0)


def test_gate_rejects_small_cutoff(params):
    gp = GateParams.from_raman(params, m=5, phi=0.3)
    with pytest.raises(ValueError, match="cutoff"):
        pair_gate(gp, params, HilbertSpace(2, 6), "ideal")


# ---- three-step circuit ----------------------------------------------------


def test_zero_duration_is_pure_spin_flip(params, space):
    gp = GateParams.from_raman(params, m=1, phi=0.0)
    assert gp.tau == 0.0
    U = pair_gate(gp, params, space, "ideal")
    assert_allclose(U, tensor(spin_flip(2), np.eye(space.fock_cutoff)), atol=1e-14)


@pytest.mark.parametrize("model", ["ideal", "effective", "full"])
def test_gate_unitary(params, model):
    space = HilbertSpace(3 if model == "full" else 2, 10)
    gp = GateParams.from_raman(params, m=2, phi=0.8)
    U = pair_gate(gp, params, space, model)
    assert max_abs(U.conj().T @ U - np.eye(space.dim)) < 1e-10


def test_closed_form_matches_brute_force(params, space, rng):
    # oracle route: Pade exponentials, no shared propagator code
    alphas, betas = random_pair_amplitudes(rng, 25)
    for alpha, beta in zip(alphas, betas):
        m = int(rng.integers(1, 6))
        phi = float(rng.uniform(0, 2 * np.pi))
        gp = GateParams.from_raman(params, m=m, phi=phi)
        U = expm_gate(gp, params, space)
        out = U @ pair_input(space, atom_plus(2), alpha, beta, m)
        _, ref = closed_form_states(space, m, gp.phi, gp.theta0, alpha, beta)
        assert_allclose(out, ref, atol=1e-10)


def test_closed_form_includes_global_phase(params, space):
    # entrywise match, not only up to a phase
    gp = GateParams.from_raman(params, m=3, phi=0.7)
    U = pair_gate(gp, params, space, "ideal")
    out = U @ pair_input(space, atom_plus(2), 0.6, 0.8j, 3)
    _, ref = closed_form_states(space, 3, gp.phi, gp.theta0, 0.6, 0.8j)
    assert_allclose(out, ref, atol=1e-11)


def test_closed_form_states_score_against_reference(params, space, rng):
    # U applied to the prepared |+> ⊗ pair input scores 1 against the closed-form image.
    # A reference with the dispersive phase negated differs by e^{2i theta0} on the
    # lower level, so it scores 1 - 4 |c_lo|^2 |c_hi|^2 sin^2(theta0)
    gp = GateParams.from_raman(params, m=2, phi=0.67)  # theta0 near 3*pi/2
    U = expm_gate(gp, params, space)
    alphas, betas = random_pair_amplitudes(rng, 5)
    for alpha, beta in zip(alphas, betas):
        prepared, expected = closed_form_states(space, gp.m, gp.phi, gp.theta0, alpha, beta)
        assert_allclose(prepared, pair_input(space, atom_plus(2), alpha, beta, 2), atol=1e-15)
        assert fidelity(expected, U @ prepared, space) == pytest.approx(1.0, abs=1e-10)
        lo, hi = np.abs(rotation_matrix(gp) @ [alpha, beta]) ** 2
        _, corrupt = closed_form_states(space, 2, gp.phi, -gp.theta0, alpha, beta)
        bad = fidelity(corrupt, U @ prepared, space)
        assert bad == pytest.approx(1.0 - 4.0 * lo * hi * np.sin(gp.theta0) ** 2, abs=1e-10)


def test_closed_form_states_reject_level_outside_cutoff(params, space):
    # a pair level at or above fock_cutoff has no basis state to carry it
    for m in (space.fock_cutoff, space.fock_cutoff + 3):
        gp = GateParams.from_raman(params, m=m, phi=0.4)
        with pytest.raises(ValueError, match="fock_cutoff"):
            closed_form_states(space, gp.m, gp.phi, gp.theta0, 0.6, 0.8)
    gp = GateParams.from_raman(params, m=space.fock_cutoff - 1, phi=0.4)
    prepared, expected = closed_form_states(space, gp.m, gp.phi, gp.theta0, 1.0, 0.0)
    assert np.isfinite(fidelity(expected, prepared, space))


@pytest.mark.parametrize("m, named", [(0, 0), (-1, -1), ([2, 0, 3], 0), ([1, -5, 0], -5)])
def test_closed_form_states_reject_level_below_one(space, m, named):
    # no pair {m-1, m} below m = 1: the first such level is named, as GateParams names it
    with pytest.raises(ValueError, match=rf"^m must be >= 1, got {named}$"):
        closed_form_states(space, m, 0.4, 0.01, 0.6, 0.8)


def test_phase_only_gate_at_zero_angle(params, space):
    # phi = 0 leaves the populations alone; the lower pair level picks up the
    # dispersive phase
    gp = GateParams.from_raman(params, m=2, phi=0.0)
    pair = rotation_matrix(gp) @ [0.8, 0.6]
    assert_allclose(pair, [0.8, 0.6], atol=1e-12)
    gp_t = GateParams.from_raman(params, m=2, phi=params.coupling * np.sqrt(2) * 50.0)  # tau = 50
    pair_t = rotation_matrix(replace(gp_t, phi=0.0, lam=0.0)) @ [1.0, 0.0]
    assert pair_t[0] == pytest.approx(np.exp(-2j * gp_t.eta) * np.exp(1j * gp_t.theta0))
    assert pair_t[1] == pytest.approx(0.0)


def test_quarter_rotation_swaps_with_i(params):
    gp = replace(GateParams.from_raman(params, m=2, phi=0.5 * np.pi), theta0=0.0)
    pair = rotation_matrix(gp) @ [0.6, 0.8]
    assert_allclose(pair, [-1j * 0.8, -1j * 0.6], atol=1e-12)


def test_minus_input_flips_rotation_sense(params):
    # |-> sees the rotation with phi -> -phi, times a global -1 from the flip
    gp = GateParams.from_raman(params, m=2, phi=0.9)
    c, s = np.cos(gp.phi), np.sin(gp.phi)
    kernel_neg = np.array([[c, 1j * s], [1j * s, c]])
    expected = -np.exp(-2j * gp.eta) * np.diag([np.exp(1j * gp.theta0), 1.0]) @ kernel_neg
    assert_allclose(rotation_matrix(gp, atom_sign=-1), expected, atol=1e-14)


def test_minus_input_matches_gate(params, space, rng):
    alphas, betas = random_pair_amplitudes(rng, 5)
    gp = GateParams.from_raman(params, m=2, phi=1.3)
    U = pair_gate(gp, params, space, "ideal")
    for alpha, beta in zip(alphas, betas):
        out = U @ pair_input(space, atom_minus(2), alpha, beta, 2)
        ref = embed_pair(space, atom_minus(2), rotation_matrix(gp, atom_sign=-1) @ [alpha, beta], 2)
        assert_allclose(out, ref, atol=1e-11)


def test_phase_offset_steers_transfer_phase(params, space):
    gp = GateParams.from_raman(params, m=1, phi=0.6)
    chi = 1.1
    U = pair_gate(gp, params, space, "ideal", phase_offset=chi)
    out = U @ pair_input(space, atom_plus(2), 1.0, 0.0, 1)
    ref = embed_pair(space, atom_plus(2), rotation_matrix(gp, phase_offset=chi) @ [1.0, 0.0], 1)
    assert_allclose(out, ref, atol=1e-11)


def test_closed_form_rejects_unnormalized(params, space):
    # the norm is taken without overflow or underflow: every such pair is a ValueError, with no RuntimeWarning
    gp = GateParams.from_raman(params, m=1, phi=0.3)
    for alpha, beta in ((1.0, 1.0), (1e200, 0.0), (1e308, 1e308j), (1e-320, 0.0), ([0.6, 1e200], 0.8)):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="expected 1"):
            warnings.simplefilter("error")
            closed_form_states(space, gp.m, gp.phi, gp.theta0, alpha, beta)


@settings(max_examples=60)
@given(
    st.integers(1, 6),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(0.005, 0.2),
    st.sampled_from([+1, -1]),
    st.floats(-2.0 * np.pi, 2.0 * np.pi),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(0.0, 2.0 * np.pi),
)
def test_rotation_matrix_forms(m, phi, omega_l, atom_sign, chi, mix, relative):
    """``rotation_matrix`` at atom |+> and chi = 0 maps a pair as ``closed_form_states`` does; at
    atom sign s = +-1 and any chi it is s e^{-2i eta} diag(e^{i theta0}, 1) D K(s phi) D†, with
    D = diag(1, e^{i chi}) and K(phi) = [[cos phi, -i sin phi], [-i sin phi, cos phi]]."""
    p = RamanParams(g=1.0, omega_l=omega_l, delta=20.0)
    gp = GateParams.from_raman(p, m=m, phi=phi)
    space = HilbertSpace(2, m + 2)
    alpha, beta = np.cos(mix), np.sin(mix) * np.exp(1j * relative)
    prepared, expected = closed_form_states(space, m, gp.phi, gp.theta0, alpha, beta)
    assert_allclose(prepared, pair_input(space, atom_plus(2), alpha, beta, m), atol=1e-15)
    assert_allclose(expected, embed_pair(space, atom_plus(2), rotation_matrix(gp) @ [alpha, beta], m), atol=1e-12)
    cos, sin = np.cos(atom_sign * gp.phi), np.sin(atom_sign * gp.phi)
    D = np.diag([1.0, np.exp(1j * chi)])
    form = atom_sign * np.exp(-2j * gp.eta) * np.diag([np.exp(1j * gp.theta0), 1.0]) @ D
    form = form @ np.array([[cos, -1j * sin], [-1j * sin, cos]]) @ D.conj()
    R = rotation_matrix(gp, atom_sign, chi)
    assert_allclose(R, form, atol=1e-12)
    # |-> flips the rotation sense and carries the flip's -1: R(-) = -Z R(+) Z, Z = diag(1, -1)
    Z = np.diag([1.0, -1.0])
    assert_allclose(rotation_matrix(gp, -atom_sign, chi), -Z @ R @ Z, atol=1e-12)
    assert_allclose(R.conj().T @ R, np.eye(2), atol=1e-12)


# ---- disentanglement -------------------------------------------------------


@pytest.mark.parametrize("atom_sign", [+1, -1])
def test_sigma_x_eigenstates_stay_unentangled(params, space, atom_sign):
    atom = atom_plus(2) if atom_sign == +1 else atom_minus(2)
    gp = GateParams.from_raman(params, m=3, phi=0.7)
    out = pair_gate(gp, params, space, "ideal") @ pair_input(space, atom, 0.6, 0.8, 3)
    assert 1.0 - purity(reduced_oscillator_state(out, space)) < 1e-9


def test_bare_ground_input_entangles(params, space):
    gp = GateParams.from_raman(params, m=2, phi=np.pi / 4)
    atom_g = np.array([1.0, 0.0], dtype=complex)
    out = pair_gate(gp, params, space, "ideal") @ pair_input(space, atom_g, 1.0, 0.0, 2)
    assert purity(reduced_oscillator_state(out, space)) < 0.99


def test_second_pulse_phase_sign_is_load_bearing(params, space):
    # advancing instead of retarding the second pulse leaves the systems
    # entangled; this pins the pulse-phase convention
    gp = GateParams.from_raman(params, m=2, phi=0.7)
    wrong = expm_gate(replace(gp, theta0=-gp.theta0), params, space)  # second pulse at +theta0
    out = wrong @ pair_input(space, atom_plus(2), 0.6, 0.8, 2)
    assert 1.0 - purity(reduced_oscillator_state(out, space)) > 1e-4


# ---- confinement and leakage ------------------------------------------------


def test_ideal_model_confined_exactly(params, space, rng):
    alphas, betas = random_pair_amplitudes(rng, 4)
    for alpha, beta in zip(alphas, betas):
        gp = GateParams.from_raman(params, m=2, phi=float(rng.uniform(0, np.pi)))
        out = pair_gate(gp, params, space, "ideal") @ pair_input(space, atom_plus(2), alpha, beta, 2)
        assert leakage(out, 2, space) < 1e-28


def test_effective_model_leaks_a_little(params, space):
    gp = GateParams.from_raman(params, m=2, phi=np.pi / 4)
    out = pair_gate(gp, params, space, "effective") @ pair_input(space, atom_plus(2), 0.0, 1.0, 2)
    leak = leakage(out, 2, space)
    assert 0.0 < leak < 1e-2


@pytest.mark.parametrize("m", [0, 6, 7], ids=["at-0", "at-cutoff", "past-cutoff"])
def test_leakage_rejects_pair_outside_space(m):
    # the guard level's population is not read as level m - 1 = -1, and m >= fock_cutoff is no IndexError
    space = HilbertSpace(2, 6)
    psi = product_state(space, atom_plus(2), np.eye(6)[5])  # all on the guard level
    with pytest.raises(ValueError, match=re.escape(f"pair {{{m - 1}, {m}}} lies outside the Fock levels 0..5")):
        leakage(psi, m, space)
    assert leakage(psi, 5, space) == 0.0 and leakage(psi, 2, space) == pytest.approx(1.0)


@pytest.mark.parametrize("m", [1.5, 2.0, True])
def test_leakage_rejects_a_level_that_is_not_an_integer(m):
    # 1.5 was an IndexError from numpy's indexing
    space = HilbertSpace(2, 6)
    with pytest.raises(ValueError, match=re.escape(f"m must be an integer, got {m!r}")):
        leakage(np.ones(space.dim), m, space)


def test_full_model_agrees_with_effective(params):
    space2 = HilbertSpace(2, 12)
    space3 = HilbertSpace(3, 12)
    gp = GateParams.from_raman(params, m=1, phi=np.pi / 4)
    out_eff = pair_gate(gp, params, space2, "effective") @ pair_input(
        space2, atom_plus(2), 0.0, 1.0, 1
    )
    out_full = pair_gate(gp, params, space3, "full") @ pair_input(
        space3, atom_plus(3), 0.0, 1.0, 1
    )
    embedded = np.zeros(space3.dim, dtype=complex)
    embedded[: space2.dim] = out_eff  # g and e blocks, empty h block
    assert fidelity(embedded, out_full, space3) > 0.99


# ---- spin-echo algebra -------------------------------------------------------


def test_echo_factor_commutators(params, space):
    gp = GateParams.from_raman(params, m=3, phi=0.5)
    parts = decompose_effective(params, space, 3)
    factors = echo_factors(gp, params, space)
    c1 = parts.pair_energy @ parts.pair_coupling - parts.pair_coupling @ parts.pair_energy
    c2 = (
        parts.pair_coupling @ factors.flipped_coupling
        - factors.flipped_coupling @ parts.pair_coupling
    )
    assert max_abs(c1) < 1e-12
    assert max_abs(c2) < 1e-12


def test_echo_conjugation_identity(params, space):
    # flip . exp(-iH tau) . flip computed two independent ways
    gp = GateParams.from_raman(params, m=2, phi=0.8)
    parts = decompose_effective(params, space, 2)
    pulse = parts.pair_energy + parts.pair_coupling
    flip = tensor(spin_flip(2), np.eye(space.fock_cutoff))
    lhs = flip @ expm(-1j * pulse * gp.tau) @ flip
    rhs = expm(-1j * echo_factors(gp, params, space).flipped_pulse * gp.tau)
    assert max_abs(lhs - rhs) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.floats(-np.pi, np.pi), st.floats(0.05, 3.0))
def test_pulse_terms_at_any_drive_phase(m, theta, phi):
    # the echo identities hold at every drive phase, with level and phase
    # passed to the builders explicitly
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    space = HilbertSpace(2, 9)
    gp = GateParams.from_raman(p, m=m, phi=phi)
    parts = decompose_effective(p, space, m, theta)
    flip = tensor(spin_flip(2), np.eye(space.fock_cutoff))
    flipped_energy = flip @ parts.pair_energy @ flip
    flipped_coupling = flip @ parts.pair_coupling @ flip
    pulse = parts.pair_energy + parts.pair_coupling
    lhs = flip @ expm(-1j * pulse * gp.tau) @ flip
    rhs = expm(-1j * (flipped_energy + flipped_coupling) * gp.tau)
    assert max_abs(lhs - rhs) < 1e-10
    c1 = parts.pair_energy @ parts.pair_coupling - parts.pair_coupling @ parts.pair_energy
    c2 = parts.pair_coupling @ flipped_coupling - flipped_coupling @ parts.pair_coupling
    assert max_abs(c1) < 1e-12
    assert max_abs(c2) < 1e-12
    total = parts.dispersive + parts.pair_energy + parts.pair_coupling
    assert max_abs(total - selective_hamiltonian(p, space, m, theta)) < 1e-12


def test_combined_coupling_projector_form(params, space):
    gp = GateParams.from_raman(params, m=2, phi=0.8)
    angle = gp.theta0
    coupling = decompose_effective(params, space, 2, angle).pair_coupling
    flip = tensor(spin_flip(2), np.eye(space.fock_cutoff))
    combined = (coupling + flip @ coupling @ flip) * gp.tau
    assert max_abs(combined - combined_echo_coupling(gp, space, angle)) < 1e-12


def test_flipped_energy_structure(params, space):
    # the flip moves the dispersive correction from |g,m-1> onto |e,m-1>
    gp = GateParams.from_raman(params, m=2, phi=0.4)
    factors = echo_factors(gp, params, space)
    rate = params.dispersive_rate
    i_em1 = space.index("e", 1)
    i_gm1 = space.index("g", 1)
    assert factors.flipped_energy[i_em1, i_em1] == pytest.approx(rate * 2 - rate)
    assert factors.flipped_energy[i_gm1, i_gm1] == pytest.approx(rate * 2)


# ---- induced oscillator unitaries --------------------------------------------


def test_induced_unitary_is_unitary(params, space):
    gp = GateParams.from_raman(params, m=2, phi=0.9)
    U = pair_gate(gp, params, space, "ideal")
    R = induced_oscillator_unitary(U, space, atom_plus(2))
    assert max_abs(R.conj().T @ R - np.eye(space.fock_cutoff)) < 1e-10


def test_induced_unitary_matches_rotation_block(params, space):
    gp = GateParams.from_raman(params, m=3, phi=0.7)
    R = induced_oscillator_unitary(pair_gate(gp, params, space, "ideal"), space, atom_plus(2))
    block = rotation_matrix(gp)
    assert_allclose(R[np.ix_([2, 3], [2, 3])], block, atol=1e-11)
    # identity elsewhere
    others = [n for n in range(space.fock_cutoff) if n not in (2, 3)]
    assert_allclose(R[np.ix_(others, others)], np.eye(len(others)), atol=1e-11)


# ---- input checks ------------------------------------------------------------


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["tau", "phi", "lam", "theta0"])
def test_gate_params_reject_non_finite(name, value):
    kwargs = dict(m=1, tau=1.0, lam=0.01, theta0=0.05, phi=0.01)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GateParams(**kwargs)
    if name in ("phi", "theta0"):  # the closed form's states take them by the same rule
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            closed_form_states(HilbertSpace(2, 4), 1, kwargs["phi"], kwargs["theta0"], 0.6, 0.8)


@pytest.mark.parametrize("theta0", [1e308, -1e308, 6e307, -6e307])
def test_gate_params_reject_overflowing_eta(theta0):
    # 2*eta = 2*m*theta0, the closed form's phase, is derived and checked like the stored phases
    with pytest.raises(ValueError, match="eta must be finite"):
        GateParams(m=2, tau=1.0, lam=0.01, theta0=theta0, phi=0.01 * np.sqrt(2))
    # the closed form's states check 2*eta too, with no overflow warning: they were all NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="eta must be finite"):
            closed_form_states(HilbertSpace(2, 4), 2, 0.5, theta0, 0.6, 0.8)


def test_gate_params_reject_level_beyond_float_range(params):
    # eta = m*theta0 and sqrt(m) take m as a float, which raised an OverflowError
    message = f"^level m = {10**400} must lie in float range$"
    with pytest.raises(ValueError, match=message):
        GateParams(m=10**400, tau=1.0, lam=0.0, theta0=0.0, phi=0.0)
    with pytest.raises(ValueError, match=message):
        GateParams.from_raman(params, 10**400, 0.5)
    with pytest.raises(ValueError, match=message):
        raman_columns([params], [2, 10**400, 3], 0.5)
    # the first bad gate in gate order names its error, a level below 1 first
    with pytest.raises(ValueError, match="^m must be >= 1, got 0$"):
        raman_columns([params], [0, 10**400], 0.5)
    with pytest.raises(ValueError, match=f"^m must be >= 1, got {-10**400}$"):
        raman_columns([params], [2, -10**400, 10**400], 0.5)
    with pytest.raises(ValueError, match=f"^m must be >= 1, got {-10**400}$"):
        GateParams.from_raman(params, -10**400, 0.5)


@pytest.mark.parametrize("name, value", [("phi", np.inf), ("phi", np.nan), ("lam", np.inf)],
                         ids=["phi-inf", "phi-nan", "lam-inf"])
def test_gate_factories_reject_non_finite(params, name, value):
    if name == "phi":
        with pytest.raises(ValueError, match="phi must be finite"):
            GateParams.from_raman(params, m=2, phi=value)
    else:  # lam = g*|Omega_L|/delta overflows to inf for this device, whose entries are finite
        device = RamanParams(g=1e150, omega_l=1e149, delta=1e-200)
        assert device.coupling == value
        with pytest.raises(ValueError, match="lam must be finite"):
            GateParams.from_raman(device, m=2, phi=1.0)


def test_gate_factories_reject_overflowing_duration(params):
    with pytest.raises(ValueError, match="tau must be finite"):
        GateParams.from_raman(params, m=2, phi=1e307)
    with pytest.raises(ValueError, match="cannot derive tau from phi with zero coupling"):
        GateParams.from_raman(RamanParams(g=1.0, omega_l=0.0, delta=20.0), m=2, phi=1.0)


@pytest.mark.parametrize("m", [0, -1])
def test_gate_factories_name_a_level_below_one_first(params, m):
    # m = 0 has a zero coupling element and m = -1 no square root: the level is named, before phi
    for phi in (0.5, np.nan):
        with pytest.raises(ValueError, match=f"^m must be >= 1, got {m}$"):
            GateParams.from_raman(params, m=m, phi=phi)
        with pytest.raises(ValueError, match=f"^m must be >= 1, got {m}$"):
            raman_columns([params], [2, m], [0.5, phi])


def test_raman_columns_names_the_bad_gate_of_a_scalar_call(params):
    # scalar m and phi are one gate, as in from_raman
    with pytest.raises(ValueError, match="^phi must be finite, got nan$"):
        raman_columns([params], 2, np.nan)
    tau, theta0 = raman_columns([params, params], 2, 0.5)
    gp = GateParams.from_raman(params, m=2, phi=0.5)
    assert tau.shape == theta0.shape == (2, 1) and (tau == gp.tau).all() and (theta0 == gp.theta0).all()


def test_overflowing_device_is_a_value_error():
    # g*g and g*|Omega_L| overflow to inf, which the gate checks name; g**2 raised OverflowError
    device = RamanParams(g=1e200, omega_l=1e199, delta=1e-200)
    assert device.dispersive_rate == np.inf and device.coupling == np.inf
    assert np.isnan(device.engineered_shift(2))  # inf - inf
    assert RamanParams(g=1e200, omega_l=1.0, delta=1.0).engineered_shift(2) == np.inf
    with pytest.raises(ValueError, match="^lam must be finite, got inf$"):
        GateParams.from_raman(device, m=2, phi=0.5)
    with pytest.raises(ValueError, match="^lam must be finite, got inf$"):
        raman_columns([device], [1, 2], [0.5, 0.5])


# ---- block propagation against the dense oracle ---------------------------------------


def joint_matrix(index, blocks, space):
    """The joint-space matrix of the block-diagonal ``blocks`` (rows ``index``), by ``run_echo``.

    The echo's second pulse is the identity, and each slot reads itself in
    place of the flip, so the kernel applies ``blocks`` alone to the columns
    of the identity.
    """
    second = np.broadcast_to(np.eye(index.shape[-1]), blocks.shape)
    layout = BlockLayout(index, np.argsort(index, axis=None), np.arange(index.size).reshape(index.shape))
    return run_echo(layout, np.array([blocks, second]), np.eye(space.dim, dtype=complex))


def row_phases(space, theta):
    """Z(theta) = e^{-i theta |e><e|} ⊗ I as the diagonal of the joint basis: the dense oracle of the frame."""
    z = np.ones(space.dim, dtype=complex)
    z[space.fock_cutoff : 2 * space.fock_cutoff] = np.exp(-1j * theta)
    return z


# the block builders take no drive phase: a pulse at phase theta is the
# phase-0 pulse in the frame Z(theta), which ``block_unitaries`` writes
BLOCK_BUILDERS = {
    "ideal": lambda p, space, gp: ideal_blocks(p, space, gp.m),
    "effective": lambda p, space, gp: effective_blocks(p, space, gp.m),
    "full": lambda p, space, gp: full_blocks(p, space, gp.m),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ideal", "effective", "full"]), st.data())
def test_every_block_layout_is_a_permutation(builder, data):
    """fock_cutoff blocks cover every joint state once.

    Block 0 holds the members the truncation leaves without an exchange
    partner: |g,0> couples to nothing there (under "full", |h> and |e> of
    one Fock level keep their drive coupling).  The layout's inverse gives
    each joint row's slot, and its flip the slot that each slot reads
    through the spin flip (``spin_flip`` on the atom).
    """
    cutoff = data.draw(st.integers(3, 24), label="cutoff")
    m = data.draw(st.integers(1, cutoff - 2), label="m")
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    space = HilbertSpace(3 if builder == "full" else 2, cutoff)
    blocks = {"ideal": ideal_blocks, "effective": effective_blocks, "full": full_blocks}[builder](p, space, m)
    assert np.array_equal(np.sort(blocks.layout.index, axis=None), np.arange(space.dim))
    assert blocks.layout.index.shape == (cutoff, space.atom_dim)
    rows = blocks.layout.index.ravel()
    assert np.array_equal(rows[blocks.layout.inverse], np.arange(space.dim))
    flip = tensor(spin_flip(space.atom_dim), np.eye(cutoff)).real.astype(int)
    assert np.array_equal(rows[blocks.layout.flipped], np.argmax(flip[blocks.layout.index], axis=-1))
    assert np.array_equal(blocks.layout.index[:, -1] // cutoff, np.ones(cutoff))  # |e> is every block's last slot
    folded = blocks.generator[0]
    assert not np.any(folded[0, 1:]) and not np.any(folded[1:, 0])


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(BLOCK_BUILDERS)),
    st.data(),
    st.floats(0.05, np.pi),
    st.floats(0.0, 2.0 * np.pi),
)
def test_block_path_matches_dense_oracles(case, data, phi, chi):
    """Framed blocks, the dense builders with Propagator, and scipy expm agree to 1e-12.

    The device is drawn in the adiabatic (|delta| >= 10 g, of either sign)
    and selective (|Omega_L| <= 0.2 g) regimes.  Pulses are cut to
    ||H||*|tau| <= 10, where all three routes are round-off limited; the gate
    composes two such pulses around the flip.
    """
    model = case
    cutoff = data.draw(st.integers(3, 20), label="cutoff")
    m = data.draw(st.integers(1, cutoff - 2), label="m")
    g = data.draw(st.floats(0.2, 2.0), label="g")
    ratio = data.draw(st.floats(0.01, 0.19), label="|Omega_L|/g")
    detuning = data.draw(st.floats(10.0, 40.0), label="|delta|/g") * data.draw(st.sampled_from((1, -1)), label="sign")
    p = RamanParams(g=g, omega_l=ratio * g, delta=detuning * g)
    space = HilbertSpace(3 if model == "full" else 2, cutoff)

    gp = GateParams.from_raman(p, m=m, phi=phi)
    norm = np.linalg.norm(dense_pulse(gp, p, space, model, chi), 2)
    tau = np.clip(gp.tau, -10.0 / norm, 10.0 / norm)  # tau < 0 where delta < 0
    gp = GateParams.from_raman(p, m=m, phi=gp.coupling_element * tau)

    blocks = BLOCK_BUILDERS[case](p, space, gp)
    pulses = echo_pulses(blocks.generator, gp.tau, gp.theta0, chi)
    generator = joint_matrix(blocks.layout.index, blocks.generator, space)
    dense = []
    for angle, framed_pulse in zip((chi, chi - gp.theta0), pulses):
        h = dense_pulse(gp, p, space, model, angle)
        z = row_phases(space, angle)
        assert max_abs(z[:, None] * generator * z.conj() - h) < 1e-15
        u_blocks = joint_matrix(blocks.layout.index, block_unitaries(blocks.generator, gp.tau, angle), space)
        u_expm = expm(-1j * h * gp.tau)
        u_prop = Propagator(h).unitary(gp.tau)
        assert max_abs(u_blocks - u_expm) < 1e-12
        assert max_abs(u_blocks - u_prop) < 1e-12
        assert max_abs(u_prop - u_expm) < 1e-12
        assert max_abs(joint_matrix(blocks.layout.index, framed_pulse, space) - u_expm) < 1e-12
        dense.append(u_expm)

    flip = tensor(spin_flip(space.atom_dim), np.eye(space.fock_cutoff))
    U = pair_gate(gp, p, space, model, chi)
    assert max_abs(U - dense[1] @ flip @ dense[0]) < 1e-12
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    states = rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3))
    assert max_abs(run_echo(blocks.layout, pulses, states) - U @ states) < 1e-12


@pytest.mark.parametrize("model", ["ideal", "effective", "full"])
def test_gate_at_the_smallest_cutoff(params, model):
    """At fock_cutoff = 3, the least a gate allows, the flip still sends the members of a block to distinct blocks.

    Pulses are cut to ||H||*tau <= 10, where the expm oracle holds 1e-12.
    """
    space = HilbertSpace(3 if model == "full" else 2, 3)
    gp = GateParams.from_raman(params, m=1, phi=1.1)
    norm = np.linalg.norm(dense_pulse(gp, params, space, model, 0.4), 2)
    gp = GateParams.from_raman(params, m=1, phi=gp.coupling_element * min(gp.tau, 10.0 / norm))
    U = pair_gate(gp, params, space, model, 0.4)
    assert max_abs(U - expm_gate(gp, params, space, model, 0.4)) < 1e-12
    states = np.random.default_rng(3).normal(size=(space.dim, 2)).astype(complex)
    blocks = pulse_generator(params, space, model, 1)
    pulses = echo_pulses(blocks.generator, gp.tau, gp.theta0, 0.4)
    assert max_abs(run_echo(blocks.layout, pulses, states) - U @ states) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(BLOCK_BUILDERS)),
    st.data(),
    st.floats(0.05, np.pi),
    st.floats(-2.0 * np.pi, 2.0 * np.pi),
)
def test_drive_phase_is_a_diagonal_frame(case, data, phi, theta):
    """A pulse at theta from the real theta = 0 generator and row phases.

    Z(theta) B Z(theta)† with Z(theta) = e^{-i theta |e><e|} ⊗ I, written by
    ``block_unitaries`` and as dense row phases, equals the propagation of
    the framed generator (complex blocks) and scipy's expm of the dense
    generator at theta to 1e-12.
    """
    model = case
    cutoff = data.draw(st.integers(3, 16), label="cutoff")
    m = data.draw(st.integers(1, cutoff - 2), label="m")
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    space = HilbertSpace(3 if model == "full" else 2, cutoff)
    gp = GateParams.from_raman(p, m=m, phi=phi)
    dense = dense_pulse(gp, p, space, model, theta)
    tau = min(gp.tau, 10.0 / np.linalg.norm(dense, 2))

    base = BLOCK_BUILDERS[case](p, space, gp)
    assert not np.any(base.generator.imag)
    b = base.generator.shape[-1]
    z = np.where(np.arange(b) == b - 1, np.exp(-1j * theta), 1.0)  # Z(theta) on one block
    at_theta = z[:, None] * base.generator * z.conj()
    framed = joint_matrix(base.layout.index, block_unitaries(base.generator, tau, theta), space)
    eigh_theta = joint_matrix(base.layout.index, block_unitaries(at_theta, tau), space)
    assert max_abs(framed - eigh_theta) < 1e-12

    rows = row_phases(space, theta)
    rows = rows[:, None] * joint_matrix(base.layout.index, block_unitaries(base.generator, tau), space) * rows.conj()
    u_expm = expm(-1j * dense * tau)
    assert max_abs(rows - u_expm) < 1e-12
    assert max_abs(framed - u_expm) < 1e-12
    # phases per block row, stacked over two frames, match one call per block and frame
    per_row = theta * np.linspace(-1.0, 1.0, len(base.layout.index))
    stacked = block_unitaries(base.generator, tau, [per_row, -per_row])
    for frame, phases in zip(stacked, (per_row, -per_row)):
        for i, phase in enumerate(phases):
            assert np.array_equal(frame[i], block_unitaries(base.generator[i : i + 1], tau, phase)[0])


@pytest.mark.parametrize("case", sorted(BLOCK_BUILDERS))
def test_block_layout_is_memoized_and_read_only(params, case):
    # every builder call on one (space, atoms) shares one layout, which no caller can change
    space = HilbertSpace(3 if case == "full" else 2, 9)
    first, second = (BLOCK_BUILDERS[case](params, space, GateParams.from_raman(params, m=m, phi=0.3)) for m in (2, 5))
    assert first.layout is second.layout
    for array in first.layout:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert first.generator.flags.writeable and first.generator is not second.generator


@pytest.mark.parametrize("phase", [np.nan, np.inf])
def test_non_finite_drive_phase_rejected(params, phase):
    gp = GateParams.from_raman(params, m=2, phi=0.4)
    space = HilbertSpace(2, 6)
    with pytest.raises(ValueError, match="drive phase must be finite"):
        pair_gate(gp, params, space, "effective", phase_offset=phase)
    with pytest.raises(ValueError, match="drive phase must be finite"):
        echo_pulses(pulse_generator(params, space, "ideal", 2).generator, gp.tau, gp.theta0, phase)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["ideal", "effective", "full"]), st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_one_echo_runs_a_batch_of_gates(model, seed, count):
    """A batch of gates with a column each, as the sweep runs it, equals the dense gates one by one.

    The gates share one level and one phase-0 block stack and differ in
    angle, and so in tau and theta0, and in drive phase chi.  The dense
    ``pair_gate`` is checked against the expm oracle above, where pulses
    are short enough for that oracle to hold 1e-12.
    """
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    rng = np.random.default_rng(seed)
    space = HilbertSpace(3 if model == "full" else 2, 7)
    gates = [GateParams.from_raman(p, m=3, phi=phi) for phi in rng.uniform(0.0, 1.5, count)]
    chis = rng.uniform(-np.pi, np.pi, count)
    blocks = pulse_generator(p, space, model, 3)
    pulses = echo_pulses(blocks.generator, [gp.tau for gp in gates], [gp.theta0 for gp in gates], chis)
    assert pulses.shape[:2] == (2, count)
    states = rng.normal(size=(count, space.dim)) + 1j * rng.normal(size=(count, space.dim))
    out = run_echo(blocks.layout, pulses, states[..., None].copy())[..., 0]
    for gp, chi, x, y in zip(gates, chis, states, out):
        assert max_abs(y - pair_gate(gp, p, space, model, chi) @ x) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["ideal", "effective", "full"]), st.data())
def test_closed_form_samples_match_dense_gates_per_sample(model, data):
    """Several devices and a column of levels in one call equal the dense gates one by one.

    Each output is ``pair_gate`` on the prepared |+> ⊗ (alpha|m-1> + beta|m>)
    and each image ``closed_form_states`` of that one gate, to 1e-12; each
    angle is cut so that ||H||*tau <= 100 on every device.
    """
    cutoff = data.draw(st.integers(3, 10), label="cutoff")
    ratios = data.draw(st.lists(st.sampled_from([0.02, 0.05, 0.1, 0.2]), min_size=2, max_size=3), label="ratios")
    count = data.draw(st.integers(1, 5), label="samples")
    levels = np.array(data.draw(st.lists(st.integers(1, cutoff - 2), min_size=count, max_size=count), label="levels"))
    fractions = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count), label="fractions"))
    alpha, beta = random_pair_amplitudes(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")), count)
    devices = [RamanParams(g=1.0, omega_l=r, delta=20.0) for r in ratios]
    space = HilbertSpace(3 if model == "full" else 2, cutoff)
    reach = np.array([[np.linalg.norm(dense_pulse(gp, p, space, model, 0.0), 2) * gp.tau  # ||H||*tau at phi = 1
                       for gp in (GateParams.from_raman(p, m=m, phi=1.0) for m in levels.tolist())] for p in devices])
    phi = fractions * 100.0 / reach.max(axis=0)

    (psis,), expected, tau, theta0 = closed_form_samples(devices, space, (model,), levels, phi, alpha, beta)
    assert psis.shape == expected.shape == (len(devices), count, space.dim)
    for i, p in enumerate(devices):
        for j, m in enumerate(levels.tolist()):
            gp = GateParams.from_raman(p, m=m, phi=phi[j])
            prepared, image = closed_form_states(space, m, gp.phi, gp.theta0, alpha[j], beta[j])
            assert (tau[i, j], theta0[i, j]) == (gp.tau, gp.theta0)
            assert max_abs(psis[i, j] - pair_gate(gp, p, space, model) @ prepared) < 1e-12
            assert max_abs(expected[i, j] - image) < 1e-12


def test_closed_form_samples_rejects_no_devices_or_no_models(params):
    # each was an IndexError at blocks[0]
    space = HilbertSpace(2, 6)
    with pytest.raises(ValueError, match="^devices must not be empty$"):
        closed_form_samples([], space, ("ideal",), 1, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError, match="^models must not be empty$"):
        closed_form_samples([params], space, (), 1, 0.5, 1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ideal", "effective", "full"]), st.data())
def test_column_builders_equal_per_level_builds(model, data):
    """A builder called on an array of levels equals one call per level, bit for bit, on the one layout.

    With levels past the cutoff put in, the first of them in the array's
    order is the level named, by the builder and by ``pulse_generator``.
    """
    cutoff = data.draw(st.integers(3, 16), label="cutoff")
    shape = data.draw(st.sampled_from([(), (1,), (5,), (2, 3)]), label="shape")
    levels = np.asarray(data.draw(st.lists(st.integers(1, cutoff - 2), min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape))), label="levels")).reshape(shape)
    p = RamanParams(g=1.0, omega_l=data.draw(st.sampled_from([0.02, 0.1]), label="omega_l"), delta=20.0)
    space = HilbertSpace(3 if model == "full" else 2, cutoff)
    builder = {"ideal": ideal_blocks, "effective": effective_blocks, "full": full_blocks}[model]
    stack = builder(p, space, levels)
    single = [builder(p, space, int(m)) for m in levels.ravel()]
    assert stack.generator.shape == shape + single[0].generator.shape
    assert all(blocks.layout is stack.layout for blocks in single)
    assert stack.generator.tobytes() == np.array([blocks.generator for blocks in single]).tobytes()
    assert pulse_generator(p, space, model, levels).generator.tobytes() == stack.generator.tobytes()
    bad = levels.ravel().copy()
    past = data.draw(st.lists(st.integers(0, bad.size - 1), min_size=1, unique=True), label="past")
    bad[past] = data.draw(st.lists(st.integers(cutoff - 1, cutoff + 5), min_size=len(past), max_size=len(past)),
                          label="bad levels")
    named = re.escape(f"too small for selected level m={bad[min(past)]};")
    for build in (lambda m: builder(p, space, m), lambda m: pulse_generator(p, space, model, m)):
        with pytest.raises(ValueError, match=named):
            build(bad.reshape(shape))
