"""Acceptance checks, one per criterion, each printing a pass/fail line.

Brute-force references use scipy's Pade matrix exponential so the oracle
route shares no code with the eigendecomposition propagator under test.
Run with ``pytest tests/test_acceptance.py -s`` to see one line per check.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from fockgate import (
    GateParams,
    HilbertSpace,
    RamanParams,
    atom_minus,
    atom_plus,
    combined_echo_coupling,
    commutation_check,
    decompose_effective,
    echo_factors,
    effective_hamiltonian,
    execute_plan,
    full_hamiltonian,
    leakage,
    multiquantum_hamiltonian,
    pair_gate,
    plan_general_state,
    plan_superposition,
    product_state,
    purity,
    reduced_oscillator_state,
    selective_hamiltonian,
    spin_flip,
    tensor,
)
from fockgate.gates import closed_form_states
from fockgate.spaces import fidelity, max_abs

from conftest import dense_pulse, expm_gate

DEFAULTS = dict(g=1.0, omega_l=0.1, delta=20.0)


def verdict(tag: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}" + (f" | {detail}" if detail else ""))
    assert ok, f"{tag}: {detail}"


def pair_input(space, atom, alpha, beta, m, k=1):
    osc = np.zeros(space.fock_cutoff, dtype=complex)
    osc[m - k], osc[m] = alpha, beta
    return product_state(space, atom, osc)


def random_pair(rng):
    z = rng.normal(size=4)
    alpha, beta = complex(z[0], z[1]), complex(z[2], z[3])
    nrm = np.hypot(abs(alpha), abs(beta))
    return alpha / nrm, beta / nrm


def selective_device(data) -> RamanParams:
    """A drawn device in the selective regime: g/delta <= 0.1 and |Omega_L|/g <= 0.1."""
    g = data.draw(st.floats(0.2, 2.0), label="g")
    ratio = data.draw(st.floats(0.005, 0.1), label="|Omega_L|/g")
    detuning = data.draw(st.floats(10.0, 40.0), label="delta/g")
    return RamanParams(g=g, omega_l=ratio * g, delta=detuning * g)


def drawn_gate(data, p, space, m) -> GateParams:
    """An ideal gate on {m-1, m} at a drawn angle, its duration cut to ||H||*tau <= 100."""
    gp = GateParams.from_raman(p, m=m, phi=data.draw(st.floats(0.05, 2.0 * np.pi), label=f"phi on level {m}"))
    norm = np.linalg.norm(dense_pulse(gp, p, space, "ideal", 0.0), 2)
    return GateParams.from_raman(p, m=m, phi=gp.coupling_element * min(gp.tau, 100.0 / norm))


def test_a01_closed_form_oracle_equivalence():
    """200 random gates: the three-factor product matches the closed form."""
    rng = np.random.default_rng(20240801)
    p = RamanParams(**DEFAULTS)
    space = HilbertSpace(2, 9)
    worst = 1.0
    for _ in range(200):
        m = int(rng.integers(1, 6))
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        alpha, beta = random_pair(rng)
        gp = GateParams.from_raman(p, m=m, phi=phi)
        U = expm_gate(gp, p, space)
        out = U @ pair_input(space, atom_plus(2), alpha, beta, m)
        _, expect = closed_form_states(space, m, gp.phi, gp.theta0, alpha, beta)
        worst = min(worst, fidelity(expect, out, space))
    verdict(
        "A1 closed-form oracle equivalence",
        worst >= 1.0 - 1e-9,
        f"worst fidelity over 200 samples = {worst:.3e} (bound 1-1e-9)",
    )


def test_a02_disentanglement():
    """sigma_x eigenstates exit unentangled; bare |g> does not."""
    rng = np.random.default_rng(20240802)
    p = RamanParams(**DEFAULTS)
    space = HilbertSpace(2, 9)
    worst = 1.0
    for _ in range(40):
        m = int(rng.integers(1, 6))
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        alpha, beta = random_pair(rng)
        gp = GateParams.from_raman(p, m=m, phi=phi)
        U = pair_gate(gp, p, space, "ideal")
        for atom in (atom_plus(2), atom_minus(2)):
            out = U @ pair_input(space, atom, alpha, beta, m)
            worst = min(worst, purity(reduced_oscillator_state(out, space)))
    gp = GateParams.from_raman(p, m=2, phi=np.pi / 4)
    out_g = pair_gate(gp, p, space, "ideal") @ pair_input(
        space, np.array([1.0, 0.0]), 1.0, 0.0, 2
    )
    control = purity(reduced_oscillator_state(out_g, space))
    verdict(
        "A2 disentanglement",
        worst >= 1.0 - 1e-9 and control <= 0.99,
        f"worst |+->-input purity = {1 - worst:.3e} deficit; |g>-input control purity = {control:.4f}",
    )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_a02_disentanglement_over_devices(data):
    """A2 over devices, levels, angles and pair inputs: |+> and |-> exit unentangled (deficit < 1e-9)."""
    p = selective_device(data)
    space = HilbertSpace(2, data.draw(st.integers(3, 12), label="cutoff"))
    m = data.draw(st.integers(1, space.fock_cutoff - 2), label="m")
    gp = drawn_gate(data, p, space, m)
    U = pair_gate(gp, p, space, "ideal")
    alpha, beta = random_pair(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")))
    for atom in (atom_plus(2), atom_minus(2)):
        out = U @ pair_input(space, atom, alpha, beta, m)
        assert 1.0 - purity(reduced_oscillator_state(out, space)) < 1e-9


def test_a03_derivation_identities():
    """Commutators, flip conjugation, and the projector-form coupling."""
    p = RamanParams(**DEFAULTS)
    space = HilbertSpace(2, 10)
    gp = GateParams.from_raman(p, m=3, phi=0.8)
    parts = decompose_effective(p, space, 3)
    factors = echo_factors(gp, p, space)

    c1 = max_abs(parts.pair_energy @ parts.pair_coupling - parts.pair_coupling @ parts.pair_energy)
    c2 = max_abs(
        parts.pair_coupling @ factors.flipped_coupling
        - factors.flipped_coupling @ parts.pair_coupling
    )

    flip = tensor(spin_flip(2), np.eye(space.fock_cutoff))
    pulse = parts.pair_energy + parts.pair_coupling
    conj = max_abs(
        flip @ expm(-1j * pulse * gp.tau) @ flip
        - expm(-1j * factors.flipped_pulse * gp.tau)
    )

    coupling_rot = decompose_effective(p, space, 3, gp.theta0).pair_coupling
    combined = (coupling_rot + flip @ coupling_rot @ flip) * gp.tau
    proj = max_abs(combined - combined_echo_coupling(gp, space, gp.theta0))

    verdict(
        "A3 derivation identities",
        c1 < 1e-12 and c2 < 1e-12 and conj < 1e-10 and proj < 1e-10,
        f"commutators {c1:.1e}, {c2:.1e}; conjugation {conj:.1e}; projector form {proj:.1e}",
    )


def test_a04_decomposition_consistency():
    """Term sum reproduces the selective-regime operator for m = 1..6.

    The decomposition targets the selective-regime Hamiltonian (detuned
    exchange channels dropped); relative to the exact eliminated operator the
    residual is verified to consist of exactly those channels.
    """
    space = HilbertSpace(2, 10)
    worst_sum = 0.0
    worst_residual = 0.0
    for m in range(1, 7):
        p = RamanParams(**DEFAULTS)
        parts = decompose_effective(p, space, m)
        total = parts.dispersive + parts.pair_energy + parts.pair_coupling
        worst_sum = max(worst_sum, max_abs(total - selective_hamiltonian(p, space, m)))
        residual = effective_hamiltonian(p, space, m) - total
        expected = np.zeros_like(residual)
        for n in range(1, space.fock_cutoff):
            if n == m:
                continue
            amp = p.coupling * np.sqrt(n)
            expected[space.index("g", n), space.index("e", n - 1)] = amp
            expected[space.index("e", n - 1), space.index("g", n)] = amp
        worst_residual = max(worst_residual, max_abs(residual - expected))
    verdict(
        "A4 decomposition consistency",
        worst_sum < 1e-12 and worst_residual < 1e-12,
        f"worst sum defect {worst_sum:.1e}; worst residual-structure defect {worst_residual:.1e}",
    )


def test_a05_selectivity_scaling():
    """One gate at r = 0.1 leaks below 1e-2 and leakage grows with the ratio."""
    space = HilbertSpace(2, 12)
    m, phi = 2, np.pi / 4

    def one_gate_leak(ratio, angle):
        p = RamanParams(**{**DEFAULTS, "omega_l": ratio * DEFAULTS["g"]})
        gp = GateParams.from_raman(p, m=m, phi=angle)
        out = pair_gate(gp, p, space, "effective") @ pair_input(
            space, atom_plus(2), 1.0, 0.0, m
        )
        return leakage(out, m, space)

    anchor = one_gate_leak(0.1, phi)
    low = one_gate_leak(0.02, phi)

    # grid trend on angle-averaged leakage (single angles oscillate with the
    # detuned-channel phase at the pulse end)
    rng = np.random.default_rng(20240805)
    angles = rng.uniform(0.15, 0.5 * np.pi, size=12)
    grid = [0.02, 0.05, 0.1, 0.2, 0.5]
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        means = [float(np.mean([one_gate_leak(r, a) for a in angles])) for r in grid]
    monotone = all(a < b for a, b in zip(means, means[1:]))
    verdict(
        "A5 selectivity scaling",
        anchor < 1e-2 and low < anchor and monotone,
        f"leak(r=0.1) = {anchor:.2e} (< 1e-2); leak(r=0.02) = {low:.2e}; "
        f"angle-averaged grid {['%.1e' % v for v in means]} monotone = {monotone}",
    )


def test_a06_full_vs_effective_agreement():
    """Three-level and eliminated models agree at g/delta = 0.05, r = 0.1."""
    p = RamanParams(**DEFAULTS)
    space2 = HilbertSpace(2, 12)
    space3 = HilbertSpace(3, 12)
    gp = GateParams.from_raman(p, m=1, phi=np.pi / 4)

    out_eff = pair_gate(gp, p, space2, "effective") @ pair_input(space2, atom_plus(2), 0.0, 1.0, 1)
    out_full = pair_gate(gp, p, space3, "full") @ pair_input(space3, atom_plus(3), 0.0, 1.0, 1)
    embedded = np.zeros(space3.dim, dtype=complex)
    embedded[: space2.dim] = out_eff
    agree = fidelity(embedded, out_full, space3)

    # transient population of the eliminated level, sampled along both pulses
    psi0 = pair_input(space3, atom_plus(3), 0.0, 1.0, 1)
    h_first = full_hamiltonian(p, space3, gp.m, 0.0)
    h_second = full_hamiltonian(p, space3, gp.m, -gp.theta0)
    flip = tensor(spin_flip(3), np.eye(space3.fock_cutoff))
    h_max = 0.0
    times = np.linspace(0.0, gp.tau, 240)
    for t in times:
        st = expm(-1j * h_first * t) @ psi0
        h_max = max(h_max, float(np.sum(np.abs(st.reshape(3, -1)[2]) ** 2)))
    mid = flip @ expm(-1j * h_first * gp.tau) @ psi0
    for t in times:
        st = expm(-1j * h_second * t) @ mid
        h_max = max(h_max, float(np.sum(np.abs(st.reshape(3, -1)[2]) ** 2)))

    verdict(
        "A6 full-vs-effective agreement",
        agree >= 0.99 and h_max < 0.01,
        f"fidelity = {agree:.4f} (>= 0.99); max transient upper-level population = {h_max:.4f} (< 0.01)",
    )


def test_a07_preparation_recipe():
    """n-gate recipe: exact under the ideal model, >= 0.99 under the effective
    model at default parameters, for n = 1..5.

    The effective-model recipe is compiled with the "calibrated" phase model.
    The first-order "effective" ledger alone falls short at |Omega_L|/g = 0.1
    (0.9971, 0.9543, 0.9833, 0.9543, 0.6201): it does not book the shifts
    that the detuned doublets put on every level, about r*phi per pulse and
    so linear in r, and the draws end with the right populations but a wrong
    relative phase of |0> and |n>.  That phase is recoverable; refining each
    step's angle and pulse phase against the effective dynamics lifts every
    draw over the bar.  The leakage left after calibration is about 1e-3 for
    n <= 4 and 4e-3 at n = 5.
    """
    rng = np.random.default_rng(20240807)
    p = RamanParams(**DEFAULTS)
    space = HilbertSpace(2, 9)
    rows = []
    ok = True
    for n in range(1, 6):
        alpha, beta = random_pair(rng)
        plan_i = plan_superposition(alpha, beta, n, p, phase_model="ideal")
        structure = (
            len(plan_i) == n
            and np.isclose(plan_i.phi[0], np.arccos(abs(alpha)))
            and bool(np.isclose(plan_i.phi[1:], np.pi / 2).all())
        )
        _, rep_i = execute_plan(plan_i, np.array([1.0]), "ideal", p, space)
        plan_e = plan_superposition(alpha, beta, n, p, phase_model="calibrated")
        structure = structure and (
            len(plan_e) == n
            and plan_e.pairs() == [(j - 1, j) for j in range(1, n + 1)]
            and bool((plan_e.tau > 0.0).all())
        )
        _, rep_e = execute_plan(plan_e, np.array([1.0]), "effective", p, space)
        rows.append(
            f"n={n}: structure={structure} ideal={rep_i.fidelity:.12f} effective={rep_e.fidelity:.4f}"
        )
        ok = ok and structure and rep_i.fidelity >= 1.0 - 1e-9 and rep_e.fidelity >= 0.99
    verdict("A7 preparation recipe", ok, "; ".join(rows))


def test_a08_general_synthesis_round_trip():
    """50 random targets with support <= 6 compile and execute exactly."""
    rng = np.random.default_rng(20240808)
    p = RamanParams(**DEFAULTS)
    space = HilbertSpace(2, 9)
    worst = 1.0
    for _ in range(50):
        top = int(rng.integers(1, 7))
        amps = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
        amps[top] += 0.4
        target = amps / np.linalg.norm(amps)
        plan = plan_general_state(target, p)
        assert len(plan) <= top
        _, report = execute_plan(plan, np.array([1.0]), "ideal", p, space)
        worst = min(worst, report.fidelity)
    verdict(
        "A8 general synthesis round trip",
        worst >= 1.0 - 1e-9,
        f"worst fidelity over 50 targets = {worst:.12f}",
    )


def test_a09_parallelizability():
    """Disjoint pairs commute; overlapping pairs do not."""
    p = RamanParams(**DEFAULTS)
    space = HilbertSpace(2, 8)
    ga = GateParams.from_raman(p, m=1, phi=np.pi / 3)
    gb = GateParams.from_raman(p, m=3, phi=np.pi / 3)
    disjoint = commutation_check(ga, gb, p, space)
    gc = GateParams.from_raman(p, m=2, phi=0.9)
    gd = GateParams.from_raman(p, m=3, phi=1.2)
    overlap = commutation_check(gc, gd, p, space)
    verdict(
        "A9 parallelizability",
        disjoint < 1e-9 and overlap > 1e-3,
        f"disjoint-pair commutator {disjoint:.2e} (< 1e-9); overlapping {overlap:.2e} (> 1e-3)",
    )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_a09_disjoint_pairs_commute_over_devices(data):
    """A9 over devices, angles and disjoint pairs: the ideal gates' |+> maps commute (< 1e-9)."""
    p = selective_device(data)
    space = HilbertSpace(2, data.draw(st.integers(5, 12), label="cutoff"))
    low = data.draw(st.integers(1, space.fock_cutoff - 4), label="lower m")
    high = data.draw(st.integers(low + 2, space.fock_cutoff - 2), label="upper m")
    assert commutation_check(drawn_gate(data, p, space, low), drawn_gate(data, p, space, high), p, space) < 1e-9


def test_a10_multiquantum_doublet():
    """k = 2 coupling: the {|g,2>, |e,0>} doublet oscillates at lam*sqrt(2)
    and the skipped level |1> never populates."""
    space = HilbertSpace(2, 8)
    lam_k = 0.004
    H = multiquantum_hamiltonian(2, lam_k, 0.0, 2, space)
    omega = lam_k * np.sqrt(2.0)
    psi0 = pair_input(space, np.array([1.0, 0.0]), 0.0, 1.0, 2, k=2)  # |g,2>
    worst_pop = 0.0
    worst_skip = 0.0
    for t in np.linspace(0.0, 2.0 * np.pi / omega, 33):  # one full period
        st = expm(-1j * H * t) @ psi0
        mat = st.reshape(2, space.fock_cutoff)
        p_g2 = abs(mat[0, 2]) ** 2
        p_e0 = abs(mat[1, 0]) ** 2
        worst_pop = max(worst_pop, abs(p_g2 - np.cos(omega * t) ** 2), abs(p_e0 - np.sin(omega * t) ** 2))
        worst_skip = max(worst_skip, float(abs(mat[0, 1]) ** 2 + abs(mat[1, 1]) ** 2))
    # period check: full revival at t = pi / omega
    revived = expm(-1j * H * (np.pi / omega)) @ psi0
    revival_defect = 1.0 - fidelity(psi0, revived, space)
    verdict(
        "A10 multiquantum doublet",
        worst_pop < 1e-9 and worst_skip < 1e-24 and revival_defect < 1e-9,
        f"max population deviation from the two-level law {worst_pop:.1e}; "
        f"skipped-level population {worst_skip:.1e}; revival defect {revival_defect:.1e}",
    )
