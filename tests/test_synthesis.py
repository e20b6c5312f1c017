import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from fockgate import (
    CircuitPlan,
    GateParams,
    HilbertSpace,
    RamanParams,
    atom_plus,
    commutation_check,
    effective_hamiltonian,
    execute_plan,
    induced_oscillator_unitary,
    pair_gate,
    plan_from_dict,
    plan_general_state,
    plan_superposition,
    plan_to_dict,
    PlanStep,
    rotation_matrix,
    load_plan,
    save_plan,
    spin_flip,
    tensor,
)
from fockgate.gates import apply_pair_gate, model_space
from fockgate.spaces import max_abs, product_state, project_atom, purity, reduced_oscillator_state
from fockgate.synthesis import CALIBRATION_FD_STEP, LEDGER_MODELS, PHASE_MODELS, _calibration_runner


def random_target(rng, top):
    amps = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
    amps[top] += 0.5  # keep the top level occupied
    return amps / np.linalg.norm(amps)


# ---- superposition recipe ---------------------------------------------------


def test_vacuum_target_gives_empty_plan(params):
    plan = plan_superposition(1.0, 0.0, 3, params)
    assert len(plan) == 0


def test_recipe_angles(params):
    alpha = beta = 1.0 / np.sqrt(2)
    plan = plan_superposition(alpha, beta, 2, params)
    assert [s.gate.m for s in plan.steps] == [1, 2]
    assert plan.steps[0].gate.phi == pytest.approx(np.pi / 4)
    assert plan.steps[1].gate.phi == pytest.approx(np.pi / 2)


@pytest.mark.parametrize("n", range(1, 6))
def test_recipe_executes_exactly_under_ideal_model(params, n, rng):
    z = rng.normal(size=4)
    alpha = complex(z[0], z[1])
    beta = complex(z[2], z[3])
    nrm = np.hypot(abs(alpha), abs(beta))
    alpha, beta = alpha / nrm, beta / nrm
    plan = plan_superposition(alpha, beta, n, params)
    assert len(plan) == n
    space = HilbertSpace(2, n + 3)
    _, report = execute_plan(plan, np.array([1.0]), "ideal", params, space)
    assert report.fidelity > 1 - 1e-9
    assert report.guard_population < 1e-20


def test_recipe_under_effective_model_in_selective_regime():
    # deep selectivity: detuned-exchange leakage is quadratically suppressed
    p = RamanParams(g=1.0, omega_l=0.02, delta=20.0)
    plan = plan_superposition(
        1 / np.sqrt(2), 1j / np.sqrt(2), 3, p, phase_model="effective"
    )
    _, report = execute_plan(plan, np.array([1.0]), "effective", p, HilbertSpace(2, 8))
    assert report.fidelity > 0.99


def test_effective_phase_model_beats_ideal_bookkeeping_when_selective():
    # the dispersive spectator phases (eta + n*theta0 per gate) are order ten
    # radians; a plan compiled without them lands at an essentially random
    # relative phase, while the matched ledger stays within the small
    # second-order residuals
    p = RamanParams(g=1.0, omega_l=0.02, delta=20.0)
    a = b = 1 / np.sqrt(2)
    plan_ideal_phases = plan_superposition(a, b, 3, p, phase_model="ideal")
    plan_matched = plan_superposition(a, b, 3, p, phase_model="effective")
    space = HilbertSpace(2, 8)
    _, rep_mismatch = execute_plan(plan_ideal_phases, np.array([1.0]), "effective", p, space)
    _, rep_matched = execute_plan(plan_matched, np.array([1.0]), "effective", p, space)
    assert rep_matched.fidelity > 0.99
    assert rep_matched.fidelity > rep_mismatch.fidelity + 0.1


def test_infeasible_superposition_rejected(params):
    with pytest.raises(ValueError):
        plan_superposition(0.6, 0.8, 0, params)
    with pytest.raises(ValueError):
        plan_superposition(0.9, 0.8, 2, params)


# ---- calibrated phase model ---------------------------------------------------


def expm_execution(plan, p, space):
    """Final oscillator state of ``plan`` from the vacuum, built independently:
    each effective-model pulse by scipy's Pade exponential, the atom prepared
    in |+> and projected back onto it after every gate."""
    nf = space.fock_cutoff
    flip = tensor(spin_flip(2), np.eye(nf))
    plus = atom_plus(2)
    osc = np.zeros(nf, dtype=complex)
    osc[0] = 1.0
    for step in plan.steps:
        gp, chi = step.gate, step.phase_correction

        def pulse(angle):
            return effective_hamiltonian(p, space, gp.m, angle)

        U = expm(-1j * pulse(chi - gp.theta0) * gp.tau) @ flip @ expm(-1j * pulse(chi) * gp.tau)
        branch = np.kron(plus.conj(), np.eye(nf)) @ (U @ np.kron(plus, osc))
        osc = branch / np.linalg.norm(branch)
    return osc


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([0.02, 0.1]), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_calibration_keeps_pairs_and_never_lowers_fidelity(ratio, top, seed):
    p = RamanParams(g=1.0, omega_l=ratio, delta=20.0)
    target = random_target(np.random.default_rng(seed), top)
    ledger = plan_general_state(target, p, phase_model="effective")
    calibrated = plan_general_state(target, p, phase_model="calibrated")
    assert calibrated.phase_model == "calibrated"
    assert calibrated.pairs() == ledger.pairs()
    assert all(s.gate.tau > 0.0 for s in calibrated.steps)
    assert all(
        s.gate.theta0 == pytest.approx(p.dispersive_rate * s.gate.tau, rel=1e-12)
        for s in calibrated.steps
    )
    space = HilbertSpace(2, top + 4)
    _, rep_ledger = execute_plan(ledger, np.array([1.0]), "effective", p, space)
    _, rep_calibrated = execute_plan(calibrated, np.array([1.0]), "effective", p, space)
    assert rep_calibrated.fidelity >= rep_ledger.fidelity - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.sampled_from([0.02, 0.1]), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_calibration_runs_plans_through_execute_plans_step(top, ratio, seed, extra):
    """The calibrator's images are execute_plan runs from the vacuum at the same cutoff.

    Column 0 is the plan itself; column 1 + k is the plan with parameter k
    moved by the finite-difference step, phi of step k // 2 for even k and
    its chi for odd k.
    """
    p = RamanParams(g=1.0, omega_l=ratio, delta=20.0)
    plan = plan_general_state(random_target(np.random.default_rng(seed), top), p, "effective")
    space = HilbertSpace(2, top + 2 + extra)
    x = np.ravel([(s.gate.phi, s.phase_correction) for s in plan.steps])
    _, images = _calibration_runner(plan, p, space)
    stack = images(x, columns=True)
    assert stack.shape == (space.fock_cutoff, 1 + len(x))
    assert max_abs(images(x)[:, 0] - stack[:, 0]) < 1e-12

    def executed(steps):
        return execute_plan(replace(plan, steps=steps), np.array([1.0]), "effective", p, space)[0]

    assert max_abs(stack[:, 0] / np.linalg.norm(stack[:, 0]) - executed(plan.steps)) < 1e-12
    for k in range(len(x)):
        moved = x.copy()
        moved[k] += CALIBRATION_FD_STEP
        i = k // 2
        steps = list(plan.steps)
        steps[i] = PlanStep(GateParams.from_raman(p, m=steps[i].gate.m, phi=moved[2 * i]), moved[2 * i + 1])
        column = stack[:, 1 + k]
        assert max_abs(column / np.linalg.norm(column) - executed(steps)) < 1e-12


def test_calibrated_plan_matches_expm_oracle(params):
    # the calibration must not exploit a defect of the propagator it runs on
    plan = plan_superposition(0.6, 0.8j, 4, params, phase_model="calibrated")
    ledger = plan_superposition(0.6, 0.8j, 4, params, phase_model="effective")
    space = HilbertSpace(2, 8)
    _, report = execute_plan(plan, np.array([1.0]), "effective", params, space)
    _, rep_ledger = execute_plan(ledger, np.array([1.0]), "effective", params, space)
    assert report.fidelity > rep_ledger.fidelity + 0.01
    osc = expm_execution(plan, params, space)
    ref = np.zeros(space.fock_cutoff, dtype=complex)
    ref[: len(plan.target)] = plan.target
    pops = np.abs(osc) ** 2
    leak = float(np.sum(pops) - pops[0] - pops[4])
    assert abs(float(np.abs(np.vdot(ref, osc)) ** 2) - report.fidelity) < 1e-10
    assert abs(leak - report.leakage) < 1e-10


# ---- general targets ---------------------------------------------------------


@pytest.mark.parametrize("phase_model", PHASE_MODELS)
@pytest.mark.parametrize("target", [[1.0], [1.0, 0.0, 0.0]])
def test_general_vacuum_is_empty(params, phase_model, target):
    plan = plan_general_state(np.array(target, dtype=complex), params, phase_model)
    assert len(plan) == 0
    assert plan.phase_model == phase_model
    assert np.array_equal(plan.target, target)


def test_three_level_flat_target(params):
    target = np.ones(3, dtype=complex) / np.sqrt(3)
    plan = plan_general_state(target, params)
    assert len(plan) == 2
    _, report = execute_plan(plan, np.array([1.0]), "ideal", params, HilbertSpace(2, 6))
    assert report.fidelity > 1 - 1e-9


def test_pure_fock_target_uses_full_transfers(params):
    target = np.zeros(5, dtype=complex)
    target[4] = 1.0
    plan = plan_general_state(target, params)
    assert len(plan) == 4
    assert all(s.gate.phi == pytest.approx(np.pi / 2) for s in plan.steps)
    _, report = execute_plan(plan, np.array([1.0]), "ideal", params, HilbertSpace(2, 7))
    assert report.fidelity > 1 - 1e-9


def test_round_trip_random_targets(params, rng):
    for _ in range(20):
        top = int(rng.integers(1, 7))
        target = random_target(rng, top)
        plan = plan_general_state(target, params)
        assert len(plan) <= top
        _, report = execute_plan(plan, np.array([1.0]), "ideal", params, HilbertSpace(2, 9))
        assert report.fidelity > 1 - 1e-9, f"target support {top}: {report.fidelity}"


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 120),
    st.sampled_from(LEDGER_MODELS),
    st.sampled_from([0.02, 0.1]),
)
def test_ledger_replay_reaches_target(seed, top, phase_model, ratio):
    """Replaying a plan with the closed-form pair maps lands on its target.

    Each step applies ``rotation_matrix`` to its pair; under "effective"
    every other level n also picks up -(eta + n*theta0).  Interior zero
    amplitudes exercise the full-transfer steps.
    """
    p = RamanParams(g=1.0, omega_l=ratio, delta=20.0)
    rng = np.random.default_rng(seed)
    target = random_target(rng, top)
    target[:top][rng.random(top) < 0.2] = 0.0
    target /= np.linalg.norm(target)
    plan = plan_general_state(target, p, phase_model)
    levels = np.arange(top + 1)
    osc = np.zeros(top + 1, dtype=complex)
    osc[0] = 1.0
    for step in plan.steps:
        gp = step.gate
        pair = list(gp.pair)
        rotated = rotation_matrix(gp, phase_offset=step.phase_correction) @ osc[pair]
        if phase_model == "effective":
            osc = osc * np.exp(-1j * (gp.eta + levels * gp.theta0))
        osc[pair] = rotated
    overlap = np.vdot(target, osc)
    assert max_abs(osc - overlap / abs(overlap) * target) < 1e-9


def test_interior_zero_amplitude(params):
    target = np.array([0.6, 0.0, 0.8], dtype=complex)
    plan = plan_general_state(target, params)
    # the empty middle level forces a full transfer on the second gate
    assert plan.steps[1].gate.phi == pytest.approx(np.pi / 2)
    _, report = execute_plan(plan, np.array([1.0]), "ideal", params, HilbertSpace(2, 6))
    assert report.fidelity > 1 - 1e-9


def test_zero_ground_amplitude(params):
    target = np.array([0.0, 0.6, 0.8j], dtype=complex)
    plan = plan_general_state(target, params)
    _, report = execute_plan(plan, np.array([1.0]), "ideal", params, HilbertSpace(2, 6))
    assert report.fidelity > 1 - 1e-9


def test_unnormalized_target_rejected(params):
    with pytest.raises(ValueError, match="norm"):
        plan_general_state(np.array([1.0, 1.0]), params)


# ---- execution ----------------------------------------------------------------


def test_empty_plan_returns_initial(params):
    from fockgate.synthesis import CircuitPlan

    plan = CircuitPlan(steps=[])
    initial = np.array([0.6, 0.8], dtype=complex)
    state, report = execute_plan(plan, initial, "ideal", params, HilbertSpace(2, 4))
    assert report.fidelity == pytest.approx(1.0)
    assert_allclose(state[:2], initial, atol=1e-15)


@pytest.mark.parametrize("with_steps", [False, True])
@pytest.mark.parametrize(
    "initial",
    [np.array([]), np.array([0.0, 0.0]), np.array([np.nan, 1.0]), np.array([1.0, np.inf]), np.ones((2, 1))],
)
def test_execute_plan_rejects_bad_initial(params, initial, with_steps):
    # empty, zero, non-finite or not 1-d: named up front, not NaN fidelities one step in
    plan = plan_superposition(0.6, 0.8, 2, params) if with_steps else CircuitPlan(steps=[])
    with pytest.raises(ValueError, match="initial must be"):
        execute_plan(plan, initial, "effective", params, HilbertSpace(2, 6))


def test_plan_step_rejects_non_finite_phase_correction(params, tmp_path):
    gate = GateParams.from_raman(params, m=1, phi=0.3)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="phase_correction must be finite"):
            PlanStep(gate, value)
    doc = plan_to_dict(plan_superposition(0.6, 0.8, 2, params))
    doc["steps"][1]["phase_correction"] = float("nan")
    path = tmp_path / "nan_plan.json"
    path.write_text(json.dumps(doc))  # json writes NaN and reads it back
    with pytest.raises(ValueError, match="phase_correction must be finite"):
        load_plan(path)


def test_execution_reports_step_purities(params):
    plan = plan_superposition(0.6, 0.8, 2, params)
    _, report = execute_plan(plan, np.array([1.0]), "ideal", params, HilbertSpace(2, 6))
    assert len(report.step_purities) == 2
    assert all(p > 1 - 1e-9 for p in report.step_purities)
    assert all(w > 1 - 1e-9 for w in report.step_atom_overlaps)


def test_plan_exceeding_cutoff_rejected(params):
    plan = plan_superposition(0.6, 0.8, 4, params)
    with pytest.raises(ValueError, match="cutoff"):
        execute_plan(plan, np.array([1.0]), "ideal", params, HilbertSpace(2, 5))


def test_execution_under_full_model():
    p = RamanParams(g=1.0, omega_l=0.05, delta=20.0)
    plan = plan_superposition(0.6, 0.8, 1, p, phase_model="effective")
    _, report = execute_plan(plan, np.array([1.0]), "full", p, HilbertSpace(3, 5))
    assert report.fidelity > 0.98


@pytest.mark.parametrize("model", ["ideal", "effective", "full"])
def test_default_cutoff(model):
    # ideal gates stay in their pairs (max_m + 2); effective and full ones
    # carry amplitude two levels up per gate (1 + 2s from the vacuum)
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    plan = plan_superposition(2**-0.5, 2**-0.5, 3, p, "ideal" if model == "ideal" else "effective")
    vacuum = np.array([1.0])
    cutoff = 5 if model == "ideal" else 2 * len(plan) + 1
    space = HilbertSpace(3 if model == "full" else 2, cutoff)
    osc, report = execute_plan(plan, vacuum, model, p)
    ref, ref_report = execute_plan(plan, vacuum, model, p, space)
    assert np.array_equal(osc, ref)
    assert report == ref_report
    if model == "effective":
        assert report.fidelity == pytest.approx(0.840114, abs=1e-6)


# ---- commutation ---------------------------------------------------------------


def test_disjoint_pairs_commute(params):
    space = HilbertSpace(2, 8)
    ga = GateParams.from_raman(params, m=1, phi=np.pi / 3)
    gb = GateParams.from_raman(params, m=3, phi=np.pi / 3)
    assert commutation_check(ga, gb, params, space) < 1e-9


def test_overlapping_pairs_do_not_commute(params):
    space = HilbertSpace(2, 8)
    ga = GateParams.from_raman(params, m=2, phi=0.9)
    gb = GateParams.from_raman(params, m=3, phi=1.1)
    assert commutation_check(ga, gb, params, space) > 1e-3


def test_gate_commutes_with_itself(params):
    space = HilbertSpace(2, 8)
    ga = GateParams.from_raman(params, m=2, phi=0.9)
    assert commutation_check(ga, ga, params, space) < 1e-12


def test_parallel_group_order_invariance(params, rng):
    # disjoint-pair gates give the same oscillator state in any serial order
    space = HilbertSpace(2, 9)
    gates = [
        GateParams.from_raman(params, m=1, phi=0.7),
        GateParams.from_raman(params, m=3, phi=1.2),
        GateParams.from_raman(params, m=5, phi=0.4),
    ]
    osc0 = rng.normal(size=space.fock_cutoff) + 1j * rng.normal(size=space.fock_cutoff)
    osc0 /= np.linalg.norm(osc0)
    results = []
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        osc = osc0.copy()
        for i in order:
            R = induced_oscillator_unitary(
                pair_gate(gates[i], params, space, "ideal"), space, atom_plus(2)
            )
            osc = R @ osc
        results.append(osc)
    assert np.max(np.abs(results[0] - results[1])) < 1e-9
    assert np.max(np.abs(results[0] - results[2])) < 1e-9


# ---- serialization ---------------------------------------------------------------


def test_plan_json_round_trip(params, tmp_path):
    plan = plan_superposition(0.6, 0.8j, 3, params, phase_model="effective")
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert len(loaded) == len(plan)
    for a, b in zip(plan.steps, loaded.steps):
        assert a.gate.m == b.gate.m
        assert a.gate.k == b.gate.k
        assert a.gate.phi == pytest.approx(b.gate.phi)
        assert a.gate.theta0 == pytest.approx(b.gate.theta0)
        assert a.gate.tau == pytest.approx(b.gate.tau)
        assert a.phase_correction == pytest.approx(b.phase_correction)
    assert_allclose(loaded.target, plan.target, atol=1e-15)
    # identical execution
    space = HilbertSpace(2, 7)
    _, rep_a = execute_plan(plan, np.array([1.0]), "ideal", params, space)
    _, rep_b = execute_plan(loaded, np.array([1.0]), "ideal", params, space)
    assert rep_a.fidelity == pytest.approx(rep_b.fidelity, abs=1e-12)


def test_calibrated_plan_json_round_trip(params, tmp_path):
    plan = plan_superposition(0.6, 0.8j, 3, params, phase_model="calibrated")
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert loaded.phase_model == "calibrated"
    space = HilbertSpace(2, 7)
    osc_a, rep_a = execute_plan(plan, np.array([1.0]), "effective", params, space)
    osc_b, rep_b = execute_plan(loaded, np.array([1.0]), "effective", params, space)
    assert_allclose(osc_b, osc_a, atol=1e-12)
    assert rep_b.fidelity == pytest.approx(rep_a.fidelity, abs=1e-12)
    assert rep_b.leakage == pytest.approx(rep_a.leakage, abs=1e-12)


def test_plans_are_sequential_only(params):
    plan = plan_superposition(0.6, 0.8, 2, params)
    assert plan.schedule == "sequential"
    assert plan_to_dict(plan)["schedule"] == "sequential"
    assert "groups" not in plan_to_dict(plan)
    with pytest.raises(TypeError):
        CircuitPlan(steps=plan.steps, schedule="sequential")


def test_legacy_parallel_groups_document_loads_in_order(params):
    plan = plan_general_state(random_target(np.random.default_rng(3), 5), params, "effective")
    legacy = dict(plan_to_dict(plan), schedule="parallel-groups", groups=[[0, 2, 4], [1, 3]])
    loaded = plan_from_dict(json.loads(json.dumps(legacy)))
    assert loaded.steps == plan.steps
    assert loaded.schedule == "sequential"


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.sampled_from(LEDGER_MODELS),
    st.lists(st.sampled_from(["tau0", "k2"]), max_size=3),
)
def test_plan_round_trip_reproduces_execution(tmp_path_factory, seed, top, phase_model, extras):
    """save_plan/load_plan keep every step bit for bit, so execution is identical.

    Ladder plans get optional extra steps with tau = 0 (lam not derivable
    from phi/tau) and k = 2 (run under "ideal", the only model defined
    for k > 1).
    """
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    rng = np.random.default_rng(seed)
    plan = plan_general_state(random_target(rng, top), p, phase_model)
    for kind in extras:
        m = int(rng.integers(2, top + 2))
        gate = (
            GateParams.from_raman(p, m=m, tau=0.0)
            if kind == "tau0"
            else GateParams.from_multiquantum(0.004, m=m, k=2, phi=float(rng.uniform(0.1, 1.5)))
        )
        plan.steps.append(PlanStep(gate, phase_correction=float(rng.uniform(-np.pi, np.pi))))
    path = tmp_path_factory.getbasetemp() / "round_trip_plan.json"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert loaded.steps == plan.steps
    model = "ideal" if "k2" in extras else phase_model
    space = HilbertSpace(2, 2 * len(plan) + top + 4)
    osc_a, rep_a = execute_plan(plan, np.array([1.0]), model, p, space)
    osc_b, rep_b = execute_plan(loaded, np.array([1.0]), model, p, space)
    assert np.array_equal(osc_a, osc_b)
    assert rep_a == rep_b


def test_plan_document_fields(params):
    plan = plan_superposition(0.6, 0.8, 2, params)
    doc = plan_to_dict(plan)
    assert set(doc["steps"][0]) == {"m", "k", "phi", "theta0", "tau", "lam", "phase_correction"}
    rebuilt = plan_from_dict(json.loads(json.dumps(doc)))
    assert rebuilt.steps[0].gate.m == 1


def test_plan_json_stores_lam_at_zero_tau_and_k2(params):
    # lam cannot be recovered from phi/tau when tau = 0; the file carries it
    steps = [
        PlanStep(GateParams.from_raman(params, m=1, tau=0.0), phase_correction=0.3),
        PlanStep(GateParams.from_multiquantum(0.004, m=3, k=2, phi=0.6), phase_correction=-0.2),
    ]
    plan = CircuitPlan(steps=steps)
    loaded = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
    assert [s.gate for s in loaded.steps] == [s.gate for s in plan.steps]
    assert loaded.steps[0].gate.lam == params.coupling
    space = HilbertSpace(2, 6)
    initial = np.array([0.6, 0.0, 0.0, 0.8j])
    osc_a, _ = execute_plan(plan, initial, "ideal", params, space)
    osc_b, _ = execute_plan(loaded, initial, "ideal", params, space)
    assert np.array_equal(osc_a, osc_b)


@pytest.mark.parametrize("target", [[[0.6, 0.0], [0.0, 0.0], [0.0, 0.0]], [[float("nan"), 0.0], [0.0, 0.0], [0.8, 0.0]]])
def test_plan_document_rejects_bad_target(params, target):
    # unnormalised or NaN: named on load, not a fidelity of 0.1296 or NaN on execution
    doc = dict(plan_to_dict(plan_superposition(0.6, 0.8, 2, params)), target=target)
    with pytest.raises(ValueError, match="target"):
        plan_from_dict(json.loads(json.dumps(doc)))


def test_plan_rejects_target_not_1d():
    with pytest.raises(ValueError, match="target must be a finite 1-d state"):
        CircuitPlan(steps=[], target=np.eye(2) / np.sqrt(2))


@pytest.mark.parametrize("with_lam", [True, False])
@pytest.mark.parametrize("field, value", [("m", 2.5), ("k", 1.0), ("m", True)])
def test_plan_document_rejects_non_integer_level(params, field, value, with_lam):
    doc = plan_to_dict(plan_superposition(0.6, 0.8, 2, params))
    doc["steps"][0][field] = value
    if not with_lam:
        del doc["steps"][0]["lam"]
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        plan_from_dict(json.loads(json.dumps(doc)))


def test_plan_without_lam_derives_it(params):
    doc = plan_to_dict(plan_superposition(0.6, 0.8, 2, params))
    for step in doc["steps"]:
        del step["lam"]
    for step in plan_from_dict(doc).steps:
        assert step.gate.lam == pytest.approx(params.coupling, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.sampled_from(["ideal", "effective", "full"]),
    st.integers(0, 4),
)
def test_execute_plan_cutoff_invariance(seed, top, model, extra):
    """Levels above the reach of a plan change nothing, to round-off.

    An ideal gate never leaves its pair, so cutoff top + 3 suffices.  Under
    "effective" and "full" each gate carries amplitude up to two levels
    higher through the detuned doublets, so a plan of s gates from the
    vacuum reaches level 2s and needs cutoff 2s + 1; at cutoff top + 3 the
    state differs by up to ~1e-5 from top = 3 on.
    """
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    rng = np.random.default_rng(seed)
    plan = plan_general_state(random_target(rng, top), p, "ideal" if model == "ideal" else "effective")
    low = top + 3 if model == "ideal" else 2 * len(plan) + 1
    atom_dim = 3 if model == "full" else 2
    vacuum = np.array([1.0])
    osc, _ = execute_plan(plan, vacuum, model, p, HilbertSpace(atom_dim, low + extra))
    ref, _ = execute_plan(plan, vacuum, model, p, HilbertSpace(atom_dim, low + 5))
    assert max_abs(ref[len(osc):]) == 0.0
    assert max_abs(osc - ref[: len(osc)]) < 1e-12


def per_step_execution(plan, initial, model, p, space):
    """execute_plan's result by one ``apply_pair_gate`` per step.

    Each gate diagonalises its own generator, and each step's purity is read
    from the nf x nf reduced oscillator state.
    """
    osc = np.pad(initial, (0, space.fock_cutoff - len(initial)))
    osc = osc / np.linalg.norm(osc)
    plus = atom_plus(space.atom_dim)
    purities, overlaps = [], []
    for step in plan.steps:
        prepared = product_state(space, plus, osc)
        joint = apply_pair_gate(step.gate, p, space, prepared, model, step.phase_correction)
        purities.append(purity(reduced_oscillator_state(joint, space)))
        branch = project_atom(plus, joint, space)
        overlaps.append(float(np.linalg.norm(branch)) ** 2)
        osc = branch / np.linalg.norm(branch)
    ref = np.pad(plan.target, (0, space.fock_cutoff - len(plan.target)))
    pops = np.abs(osc) ** 2
    support = np.abs(ref) > 1e-12
    return osc, {
        "fidelity": float(np.abs(np.vdot(ref, osc)) ** 2),
        "leakage": float(np.sum(pops) - np.sum(pops[support])),
        "guard_population": float(pops[space.guard_level]),
        "step_purities": purities,
        "step_atom_overlaps": overlaps,
    }


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.sampled_from(["ideal", "effective", "full"]),
    st.sampled_from([0.02, 0.1, 0.2]),
    st.integers(0, 2),
)
def test_batched_execution_matches_per_step_gates(seed, top, model, ratio, k2_steps):
    """One eigendecomposition per plan gives the per-step result to 1e-12.

    Ideal plans get up to two extra k = 2 steps, whose block layout is one
    block longer than the k = 1 steps'.
    """
    p = RamanParams(g=1.0, omega_l=ratio, delta=20.0)
    rng = np.random.default_rng(seed)
    plan = plan_general_state(random_target(rng, top), p, "ideal" if model == "ideal" else "effective")
    if model == "ideal":
        for _ in range(k2_steps):
            gate = GateParams.from_multiquantum(0.004, m=int(rng.integers(2, top + 2)), k=2, phi=1.0)
            plan.steps.insert(int(rng.integers(0, len(plan) + 1)), PlanStep(gate, 0.3))
    space = model_space(model, 2 * len(plan) + top + 3)
    initial = random_target(rng, 2)
    osc, report = execute_plan(plan, initial, model, p, space)
    ref_osc, ref = per_step_execution(plan, initial, model, p, space)
    assert max_abs(osc - ref_osc) < 1e-12
    for name, value in ref.items():
        assert max_abs(np.subtract(getattr(report, name), value)) < 1e-12, name
