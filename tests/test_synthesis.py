import json
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from fockgate import (
    CircuitPlan,
    GateParams,
    HilbertSpace,
    RamanParams,
    atom_plus,
    commutation_check,
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
)
from fockgate import propagator
from fockgate.gates import model_space, pulse_generator
from fockgate.spaces import max_abs, product_state, project_atom, purity, reduced_oscillator_state
from fockgate.synthesis import (
    CALIBRATION_FD_STEP,
    LEDGER_MODELS,
    PHASE_MODELS,
    STEP_COLUMNS,
    _calibration_runner,
)

from conftest import expm_gate


def random_target(rng, top):
    amps = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
    amps[top] += 0.5  # keep the top level occupied
    return amps / np.linalg.norm(amps)


def gate_plan(*steps, **kwargs):
    """A ``CircuitPlan`` of (GateParams, chi) steps, built column by column."""
    rows = [(g.m, g.phi, g.tau, g.theta0, g.lam, chi) for g, chi in steps]
    return CircuitPlan(**dict(zip(STEP_COLUMNS, map(list, zip(*rows)))), **kwargs)


def with_step(plan, i, gate, chi):
    """``plan`` with the step of ``gate`` at pulse-phase offset chi inserted before step i."""
    row = dict(zip(STEP_COLUMNS, (gate.m, gate.phi, gate.tau, gate.theta0, gate.lam, chi)))
    return replace(plan, **{c: np.insert(getattr(plan, c), i, value) for c, value in row.items()})


def same_columns(a, b):
    """Whether two plans hold the same steps, bit for bit."""
    return all(getattr(a, c).dtype == getattr(b, c).dtype and getattr(a, c).tobytes() == getattr(b, c).tobytes()
               for c in STEP_COLUMNS)


# ---- superposition recipe ---------------------------------------------------


def test_vacuum_target_gives_empty_plan(params):
    plan = plan_superposition(1.0, 0.0, 3, params)
    assert len(plan) == 0


def test_recipe_angles(params):
    alpha = beta = 1.0 / np.sqrt(2)
    plan = plan_superposition(alpha, beta, 2, params)
    assert plan.m.tolist() == [1, 2]
    assert plan.phi[0] == pytest.approx(np.pi / 4)
    assert plan.phi[1] == pytest.approx(np.pi / 2)


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
    # a level that is not an integer was a TypeError from np.zeros
    for n in (2.0, True):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
            plan_superposition(0.6, 0.8, n, params)
    # an unnormalized pair is a ValueError: its norm is taken with no OverflowError and no RuntimeWarning
    for alpha, beta in ((0.9, 0.8), (1e200, 0.0), (1e308, 0.0), (1e308, 1e308j), (1e-320, 0.0)):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="expected 1"):
            warnings.simplefilter("error")
            plan_superposition(alpha, beta, 2, params)


# ---- calibrated phase model ---------------------------------------------------


def expm_execution(plan, p, space):
    """Final oscillator state of ``plan`` from the vacuum, built independently:
    each effective-model gate by the expm oracle, the atom prepared in |+>
    and projected back onto it after every gate."""
    nf = space.fock_cutoff
    plus = atom_plus(2)
    osc = np.zeros(nf, dtype=complex)
    osc[0] = 1.0
    for step in plan.steps:
        U = expm_gate(step.gate, p, space, "effective", step.phase_correction)
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
    assert (calibrated.tau > 0.0).all()
    assert calibrated.theta0 == pytest.approx(p.dispersive_rate * calibrated.tau, rel=1e-12)
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
    x = np.column_stack((plan.phi, plan.chi)).ravel()
    _, images = _calibration_runner(plan, p, space)
    stack = images(x, columns=True)
    assert stack.shape == (space.fock_cutoff, 1 + len(x))
    assert max_abs(images(x)[:, 0] - stack[:, 0]) < 1e-12

    def executed(plan):
        return execute_plan(plan, np.array([1.0]), "effective", p, space)[0]

    assert max_abs(stack[:, 0] / np.linalg.norm(stack[:, 0]) - executed(plan)) < 1e-12
    for k in range(len(x)):
        moved = x.copy()
        moved[k] += CALIBRATION_FD_STEP
        i = k // 2
        gate = GateParams.from_raman(p, m=int(plan.m[i]), phi=moved[2 * i])
        moved_plan = with_step(replace(plan, **{c: np.delete(getattr(plan, c), i) for c in STEP_COLUMNS}),
                               i, gate, moved[2 * i + 1])
        column = stack[:, 1 + k]
        assert max_abs(column / np.linalg.norm(column) - executed(moved_plan)) < 1e-12


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
    assert plan.phi == pytest.approx(np.pi / 2)
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.sampled_from(LEDGER_MODELS))
@example(seed=30118, top=52, phase_model="ideal")  # phi ~ 0.016: arccos would amplify rounding ~61x
def test_angles_are_suffix_norm_ratios(seed, top, phase_model):
    """Step j keeps cos(phi) = |t[j-1]| / ||t[j-1:]|| of the remaining weight; no zero angle is kept.

    The cosine is compared, not the angle: that ratio is what the compiler computes, and
    near phi = 0 the slope 1/sin(phi) of arccos magnifies its last-digit rounding.
    """
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    rng = np.random.default_rng(seed)
    target = random_target(rng, top)
    target[:top][rng.random(top) < 0.15] = 0.0
    target /= np.linalg.norm(target)
    plan = plan_general_state(target, p, phase_model)
    kept = dict(zip(plan.m.tolist(), plan.phi.tolist()))
    assert all(phi > 1e-15 for phi in kept.values())
    for j in range(1, top + 1):
        ratio = min(1.0, abs(target[j - 1]) / np.linalg.norm(target[j - 1 :]))
        assert abs(np.cos(kept.get(j, 0.0)) - ratio) <= 1e-14, (j, kept.get(j), ratio)


def test_zero_angle_gate_is_dropped(params):
    # |t[0]|^2 absorbs the 1e-22 of level 2 in the suffix sum: gate 1 has phi = 0
    plan = plan_general_state(np.array([1.0, 0.0, 1e-11]), params)
    assert plan.pairs() == [(1, 2)]
    assert plan.phi[0] == pytest.approx(np.pi / 2)


def test_interior_zero_amplitude(params):
    target = np.array([0.6, 0.0, 0.8], dtype=complex)
    plan = plan_general_state(target, params)
    # the empty middle level forces a full transfer on the second gate
    assert plan.phi[1] == pytest.approx(np.pi / 2)
    _, report = execute_plan(plan, np.array([1.0]), "ideal", params, HilbertSpace(2, 6))
    assert report.fidelity > 1 - 1e-9


def test_zero_ground_amplitude(params):
    target = np.array([0.0, 0.6, 0.8j], dtype=complex)
    plan = plan_general_state(target, params)
    _, report = execute_plan(plan, np.array([1.0]), "ideal", params, HilbertSpace(2, 6))
    assert report.fidelity > 1 - 1e-9


def test_unnormalized_target_rejected(params):
    # the norm is taken without overflow or underflow, and with no RuntimeWarning
    for target in ([1.0, 1.0], [1e200, 1e200], [1e308, 1e308], [1e308j, 1e308], [1e-320]):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="norm"):
            warnings.simplefilter("error")
            plan_general_state(np.array(target), params)


# ---- execution ----------------------------------------------------------------


def test_empty_plan_returns_initial(params):
    plan = CircuitPlan()
    initial = np.array([0.6, 0.8], dtype=complex)
    state, report = execute_plan(plan, initial, "ideal", params, HilbertSpace(2, 4))
    assert report.fidelity == pytest.approx(1.0)
    assert_allclose(state[:2], initial, atol=1e-15)


@pytest.mark.parametrize("with_steps", [False, True])
@pytest.mark.parametrize(
    "initial",
    [np.array([]), np.array([0.0, 0.0]), np.array([np.nan, 1.0]), np.array([1.0, np.inf]), np.ones((2, 1)),
     np.array([1e-320]), np.array([1e308, 1e308])],
)
def test_execute_plan_rejects_bad_initial(params, initial, with_steps):
    # empty, zero, non-finite, not 1-d, or a norm that underflows or overflows: named up front, not NaN fidelities
    plan = plan_superposition(0.6, 0.8, 2, params) if with_steps else CircuitPlan()
    with pytest.raises(ValueError, match="initial must be"):
        execute_plan(plan, initial, "effective", params, HilbertSpace(2, 6))


def test_plan_step_rejects_non_finite_phase_correction(params, tmp_path):
    gate = GateParams.from_raman(params, m=1, phi=0.3)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="phase_correction must be finite"):
            PlanStep(gate, value)
        with pytest.raises(ValueError, match="^plan step 1: phase_correction must be finite"):
            gate_plan((gate, 0.0), (gate, value))
    doc = plan_to_dict(plan_superposition(0.6, 0.8, 2, params))
    doc["steps"][1]["phase_correction"] = float("nan")
    path = tmp_path / "nan_plan.json"
    path.write_text(json.dumps(doc))  # json writes NaN and reads it back
    with pytest.raises(ValueError, match="phase_correction must be finite"):
        load_plan(path)


def test_execute_plan_names_the_step_whose_drive_phase_overflows(params):
    # chi is finite, chi - theta0 is not: an error before any pulse is built, not an inf phase
    gate = GateParams.from_raman(params, m=1, phi=-1e305)
    plan = gate_plan((GateParams.from_raman(params, m=1, phi=0.3), 0.0), (gate, 1.79e308))
    with pytest.raises(ValueError, match=r"plan step 1: drive phases chi = 1\.79e\+308, chi - theta0 = inf"):
        execute_plan(plan, np.array([1.0]), "ideal", params, HilbertSpace(2, 4))


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


@pytest.mark.parametrize("model", ["ideal", "effective"])
def test_target_zero_tail_beyond_cutoff_is_dropped(params, model):
    a = 2**-0.5
    long = plan_general_state(np.array([a, a, 0, 0, 0, 0, 0, 0]), params, model)
    short = plan_general_state(np.array([a, a]), params, model)
    space = HilbertSpace(2, 4)  # a cutoff below the long target's 8 amplitudes
    osc_long, rep_long = execute_plan(long, np.array([1.0]), model, params, space)
    osc_short, rep_short = execute_plan(short, np.array([1.0]), model, params, space)
    assert np.array_equal(osc_long, osc_short)
    assert rep_long == rep_short


def test_target_support_beyond_cutoff_rejected(params):
    plan = replace(plan_superposition(0.6, 0.8, 1, params), target=np.array([0.6, 0, 0, 0, 0.8]))
    with pytest.raises(ValueError, match="target has support beyond the Fock cutoff 4"):
        execute_plan(plan, np.array([1.0]), "ideal", params, HilbertSpace(2, 4))


def test_execution_under_full_model():
    p = RamanParams(g=1.0, omega_l=0.05, delta=20.0)
    plan = plan_superposition(0.6, 0.8, 1, p, phase_model="effective")
    _, report = execute_plan(plan, np.array([1.0]), "full", p, HilbertSpace(3, 5))
    assert report.fidelity > 0.98


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
    assert np.array_equal(loaded.m, plan.m)
    for name in ("phi", "theta0", "tau", "chi"):
        assert getattr(plan, name) == pytest.approx(getattr(loaded, name))
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


def test_indented_plan_file_loads_like_a_compact_one(params, tmp_path):
    target = random_target(np.random.default_rng(5), 12)
    target[3], target[5] = complex(-0.0, target[3].imag), complex(target[5].real, -0.0)
    plan = plan_general_state(target / np.linalg.norm(target), params, "effective")
    indented, compact = tmp_path / "indented.json", tmp_path / "compact.json"
    with open(indented, "w", encoding="utf-8") as fh:
        json.dump(plan_to_dict(plan), fh, indent=2)  # the layout of earlier plan files
    save_plan(plan, compact)
    assert len(compact.read_text(encoding="utf-8").splitlines()) == 1
    old, new = load_plan(indented), load_plan(compact)
    assert same_columns(old, plan) and same_columns(new, plan)
    assert old.target.tobytes() == new.target.tobytes() == plan.target.tobytes()  # signed zeros too


@pytest.mark.parametrize("index", [0, 2])
@pytest.mark.parametrize("field", ["m", "phi", "tau", "theta0"])
def test_plan_document_names_missing_step_field(params, field, index):
    doc = plan_to_dict(plan_superposition(0.6, 0.8, 3, params))
    del doc["steps"][index][field]
    with pytest.raises(ValueError, match=f"plan step {index} has no '{field}' field"):
        plan_from_dict(doc)


def _with_step_field(field, value):
    def edit(doc):
        doc["steps"][1][field] = value
        return doc

    return edit


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc: doc["steps"], "'steps' is a list"),  # a list, not an object
        (lambda doc: {key: doc[key] for key in doc if key != "steps"}, "'steps' is a list"),
        (lambda doc: dict(doc, steps={"0": doc["steps"][0]}), "'steps' is a list"),
        (lambda doc: dict(doc, steps=[doc["steps"][0], 5]), "plan step 1 must be an object"),
        (_with_step_field("tau", "abc"), "plan step 1 field 'tau' must be a number"),
        (_with_step_field("phi", None), "plan step 1 field 'phi' must be a number"),
        (_with_step_field("theta0", True), "plan step 1 field 'theta0' must be a number"),
        (_with_step_field("phase_correction", "0.1"), "plan step 1 field 'phase_correction' must be a number"),
        (_with_step_field("lam", "0.005"), "plan step 1 field 'lam' must be a number"),
        (_with_step_field("tau", 10**400), "plan step 1 field 'tau' is an integer out of float range"),
        (_with_step_field("m", 2**63), "plan step 1 field 'm' is an integer out of int64 range"),
    ],
    ids=["document-list", "no-steps", "steps-object", "step-number", "tau-string", "phi-null",
         "theta0-bool", "phase_correction-string", "lam-string", "tau-huge-integer", "m-beyond-int64"],
)
def test_plan_document_rejects_wrong_types(params, edit, match):
    doc = plan_to_dict(plan_superposition(0.6, 0.8, 2, params))
    with pytest.raises(ValueError, match=match):
        plan_from_dict(json.loads(json.dumps(edit(doc))))


def _without_lam(field, value):
    def edit(doc):
        del doc["steps"][1]["lam"]
        return _with_step_field(field, value)(doc)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_with_step_field("tau", float("nan")), "tau must be finite, got nan"),
        (_with_step_field("k", 0), "k must be 1 (every gate exchanges one quantum), got 0"),
        (_without_lam("k", 0), "k must be 1 (every gate exchanges one quantum), got 0"),
        (_with_step_field("phi", 0.3), "phi = 0.3 inconsistent with coupling*tau = "),
        (_with_step_field("phase_correction", float("inf")), "phase_correction must be finite, got inf"),
    ],
    ids=["tau-nan", "k-zero", "k-zero-without-lam", "phi-tau-mismatch", "phase_correction-inf"],
)
def test_plan_document_names_the_step_of_a_rejected_gate(params, edit, message):
    doc = plan_to_dict(plan_superposition(0.6, 0.8, 2, params))
    with pytest.raises(ValueError, match="^" + re.escape(f"plan step 1: {message}")):
        plan_from_dict(json.loads(json.dumps(edit(doc))))


def test_plan_level_beyond_int64_is_named(params):
    # a uint64 level past int64 was stored wrapped, as m = -9223372036854775803; the row is valid as given
    m = 2**63 + 5
    uint = dict(m=np.array([m], dtype=np.uint64), phi=[0.1], lam=[1e-9],
                theta0=[0.0], chi=[0.0], tau=[0.1 / (1e-9 * np.sqrt(float(m)))])
    with pytest.raises(ValueError, match="^plan step 0: level m = 9223372036854775813 must lie in int64 range"):
        CircuitPlan(**uint)
    # so is a Python integer past int64 in an object array, which raised an OverflowError in the cast
    m = 2**64 + 3
    beyond = dict(uint, m=np.array([m], dtype=object), tau=[0.1 / (1e-9 * np.sqrt(float(m)))])
    with pytest.raises(ValueError, match=f"^plan step 0: level m = {m} must lie in int64 range"):
        CircuitPlan(**beyond)
    # levels of any other integer dtype, or Python integers in an object array, are stored as int64
    gate = GateParams.from_raman(params, m=2, phi=0.4)
    for kind in (np.uint64, np.int32, object):
        plan = CircuitPlan(m=np.array([2], dtype=kind), phi=[gate.phi], tau=[gate.tau],
                           theta0=[gate.theta0], lam=[gate.lam], chi=[0.0])
        assert plan.m.dtype == np.int64 and plan.m.tolist() == [2]


@pytest.mark.parametrize("sign", [1, -1])
def test_plan_level_beyond_float_is_named(sign):
    # a Python integer past float range in an object array raised an OverflowError in a cast to float
    m = sign * 10**400
    with pytest.raises(ValueError, match=f"^plan step 0: level m = {m} must lie in float range"):
        CircuitPlan(m=np.array([m], dtype=object), phi=[0.5], tau=[1.0], theta0=[0.1], lam=[0.5], chi=[0.0])


@pytest.mark.parametrize("field", ["k", "phase_correction"])  # lam: test_plan_without_lam_derives_it
def test_plan_document_optional_step_fields(params, field):
    plan = plan_superposition(0.6, 0.8j, 3, params, "effective")
    doc = plan_to_dict(plan)
    for step in doc["steps"]:
        del step[field]
    loaded = plan_from_dict(doc)
    for name in STEP_COLUMNS[:-1]:
        assert np.array_equal(getattr(loaded, name), getattr(plan, name))
    assert np.array_equal(loaded.chi, np.zeros(len(plan)) if field == "phase_correction" else plan.chi)


def test_plans_are_sequential_only(params):
    plan = plan_superposition(0.6, 0.8, 2, params)
    assert plan.schedule == "sequential"
    assert plan_to_dict(plan)["schedule"] == "sequential"
    assert "groups" not in plan_to_dict(plan)
    with pytest.raises(TypeError):
        replace(plan, schedule="sequential")


def test_legacy_parallel_groups_document_loads_in_order(params):
    plan = plan_general_state(random_target(np.random.default_rng(3), 5), params, "effective")
    legacy = dict(plan_to_dict(plan), schedule="parallel-groups", groups=[[0, 2, 4], [1, 3]])
    loaded = plan_from_dict(json.loads(json.dumps(legacy)))
    assert same_columns(loaded, plan)
    assert loaded.schedule == "sequential"


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.sampled_from(LEDGER_MODELS),
    st.integers(0, 3),
)
def test_plan_round_trip_reproduces_execution(tmp_path_factory, seed, top, phase_model, tau0_steps):
    """save_plan/load_plan keep every step bit for bit, so execution is identical.

    Ladder plans get optional extra steps with tau = 0 (lam not derivable
    from phi/tau).
    """
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    rng = np.random.default_rng(seed)
    plan = plan_general_state(random_target(rng, top), p, phase_model)
    for _ in range(tau0_steps):
        gate = GateParams.from_raman(p, m=int(rng.integers(2, top + 2)), phi=0.0)
        plan = with_step(plan, len(plan), gate, float(rng.uniform(-np.pi, np.pi)))
    path = tmp_path_factory.getbasetemp() / "round_trip_plan.json"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert same_columns(loaded, plan)
    space = HilbertSpace(2, 2 * len(plan) + top + 4)
    osc_a, rep_a = execute_plan(plan, np.array([1.0]), phase_model, p, space)
    osc_b, rep_b = execute_plan(loaded, np.array([1.0]), phase_model, p, space)
    assert np.array_equal(osc_a, osc_b)
    assert rep_a == rep_b


def test_plan_document_fields(params):
    plan = plan_superposition(0.6, 0.8, 2, params)
    doc = plan_to_dict(plan)
    assert set(doc["steps"][0]) == {"m", "k", "phi", "theta0", "tau", "lam", "phase_correction"}
    rebuilt = plan_from_dict(json.loads(json.dumps(doc)))
    assert rebuilt.m[0] == 1


def test_plan_json_stores_lam_at_zero_tau(params):
    # lam cannot be recovered from phi/tau when tau = 0; the file carries it
    plan = gate_plan(
        (GateParams.from_raman(params, m=1, phi=0.0), 0.3),
        (GateParams.from_raman(params, m=3, phi=0.6), -0.2),
    )
    loaded = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
    assert same_columns(loaded, plan)
    assert loaded.lam[0] == params.coupling
    space = HilbertSpace(2, 6)
    initial = np.array([0.6, 0.0, 0.0, 0.8j])
    osc_a, _ = execute_plan(plan, initial, "ideal", params, space)
    osc_b, _ = execute_plan(loaded, initial, "ideal", params, space)
    assert np.array_equal(osc_a, osc_b)


@pytest.mark.parametrize(
    "target",
    [
        [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[float("nan"), 0.0], [0.0, 0.0], [0.8, 0.0]],
        [[0.6, 0.0, 0.0], [0.0, 0.0, 0.0], [0.8, 0.0, 0.0]],
        [0.6, 0.0, 0.8],
        [[0.6, 0.0], [0.0], [0.8, 0.0]],
        [["0.6", "0"], ["0", "0"], ["0.8", "0"]],
        [[0.6, 0.0], None, [0.8, 0.0]],
    ],
)
def test_plan_document_rejects_bad_target(params, target):
    # unnormalised or NaN: named on load, not a fidelity of 0.1296 or NaN on
    # execution; entries that are not [re, im] number pairs: named, not an unpacking error
    doc = dict(plan_to_dict(plan_superposition(0.6, 0.8, 2, params)), target=target)
    with pytest.raises(ValueError, match="target"):
        plan_from_dict(json.loads(json.dumps(doc)))


def test_plan_rejects_target_not_1d():
    with pytest.raises(ValueError, match="target must be a finite 1-d state"):
        CircuitPlan(target=np.eye(2) / np.sqrt(2))


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
    assert plan_from_dict(doc).lam == pytest.approx(params.coupling, rel=1e-12)


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
    """execute_plan's result by one dense ``pair_gate`` per step.

    Each gate exponentiates its own generator and is assembled into a
    joint-space matrix, not run through the echo kernel; each step's purity
    is read from the nf x nf reduced oscillator state.
    """
    osc = np.pad(initial, (0, space.fock_cutoff - len(initial)))
    osc = osc / np.linalg.norm(osc)
    plus = atom_plus(space.atom_dim)
    purities, overlaps = [], []
    for step in plan.steps:
        prepared = product_state(space, plus, osc)
        joint = pair_gate(step.gate, p, space, model, step.phase_correction) @ prepared
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
@example(seed=1, top=3, model="ideal", ratio=0.1, tau0_steps=1)
@example(seed=2, top=1, model="full", ratio=0.1, tau0_steps=2)
def test_batched_execution_matches_per_step_gates(seed, top, model, ratio, tau0_steps):
    """One eigendecomposition and one framing per plan give the per-step result to 1e-12.

    Every model gets up to two extra tau = 0 steps (a bare spin flip),
    carrying pulse phases chi drawn from [-100, 100].
    """
    p = RamanParams(g=1.0, omega_l=ratio, delta=20.0)
    rng = np.random.default_rng(seed)
    plan = plan_general_state(random_target(rng, top), p, "ideal" if model == "ideal" else "effective")
    extra = [GateParams.from_raman(p, m=int(rng.integers(1, top + 2)), phi=0.0) for _ in range(tau0_steps)]
    for gate in extra:
        plan = with_step(plan, int(rng.integers(0, len(plan) + 1)), gate, float(rng.uniform(-100.0, 100.0)))
    space = model_space(model, 2 * len(plan) + top + 3)
    initial = random_target(rng, 2)
    osc, report = execute_plan(plan, initial, model, p, space)
    ref_osc, ref = per_step_execution(plan, initial, model, p, space)
    assert max_abs(osc - ref_osc) < 1e-12
    for name, value in ref.items():
        assert max_abs(np.subtract(getattr(report, name), value)) < 1e-12, name


@pytest.mark.parametrize("model", ["ideal", "effective", "full"])
def test_only_the_full_model_diagonalises(params, model, monkeypatch):
    """Doublets are exponentiated in closed form, and full diagonalises only generator stacks it has not seen.

    From a cold cache, ideal and effective plans, gates and calibrations
    make no eigh call.  Full diagonalises its first plan's stack in one
    call and the same plan again in none; a gate on one of the plan's
    levels is one more stack, diagonalised once.  The calibrated compile
    makes none, a plan one level higher is one new stack, and so is an
    empty plan.  Warm results equal cold ones with ==.
    """
    shapes = []  # the stack of each eigh call
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: shapes.append(a.shape) or eigh(a, *args, **kwargs))
    monkeypatch.setattr(propagator, "SPECTRA", propagator.Spectra())
    phase_model = "ideal" if model == "ideal" else "effective"
    plan = plan_superposition(np.sqrt(0.5), np.sqrt(0.5), 3, params, phase_model)
    space = model_space(model, 7)
    runs = {
        "plan": lambda: execute_plan(plan, np.array([1.0]), model, params, space),
        "plan again": lambda: execute_plan(plan, np.array([1.0]), model, params, space),
        "gate": lambda: pair_gate(plan.steps[1].gate, params, space, model, 0.3),
        "gate again": lambda: pair_gate(plan.steps[1].gate, params, space, model, 0.3),
        "calibrated": lambda: plan_superposition(np.sqrt(0.5), np.sqrt(0.5), 3, params, "calibrated"),
        "higher plan": lambda: execute_plan(plan_superposition(np.sqrt(0.5), np.sqrt(0.5), 4, params, phase_model),
                                            np.array([1.0]), model, params, space),
        "empty plan": lambda: execute_plan(CircuitPlan(), np.array([1.0]), model, params, space),
    }
    calls, warm = {}, {}
    for name, run in runs.items():
        before = len(shapes)
        warm[name] = run()
        calls[name] = shapes[before:]
    full = model == "full"
    assert calls == {"plan": [(3, 7, 3, 3)] if full else [], "plan again": [], "gate": [(7, 3, 3)] if full else [],
                     "gate again": [], "calibrated": [], "higher plan": [(4, 7, 3, 3)] if full else [],
                     "empty plan": [(0, 7, 3, 3)] if full else []}
    assert np.array_equal(warm["gate"], warm["gate again"])
    monkeypatch.setattr(propagator, "SPECTRA", propagator.Spectra())
    cold_gate = runs["gate"]()
    assert np.array_equal(cold_gate, warm["gate"])
    (cold, cold_report), (osc, report) = warm["plan"], warm["plan again"]
    assert np.array_equal(cold, osc) and vars(cold_report) == vars(report)


def _signed_zero_target(rng, top):
    """A random target with zero interior amplitudes, every zero part of it signed at random."""
    target = random_target(rng, top)
    target[:top][rng.random(top) < 0.2] = 0.0
    parts = (target / np.linalg.norm(target)).view(float).copy()
    zero = parts == 0.0
    parts[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    return parts.view(complex)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.sampled_from(LEDGER_MODELS))
def test_plan_file_round_trip_is_exact(tmp_path_factory, seed, top, phase_model):
    """save -> load -> save writes the same bytes and keeps every column and the target, signed zeros too."""
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    plan = plan_general_state(_signed_zero_target(np.random.default_rng(seed), top), p, phase_model)
    first, second = (tmp_path_factory.getbasetemp() / name for name in ("first.json", "second.json"))
    save_plan(plan, first)
    loaded = load_plan(first)
    save_plan(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert same_columns(loaded, plan)
    assert loaded.target.tobytes() == plan.target.tobytes()
    assert loaded.phase_model == plan.phase_model


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.sampled_from([0, 2, -1, 2**62, True]))
def test_plan_files_write_k_1_and_name_a_step_with_any_other(tmp_path_factory, seed, top, k):
    """Every gate exchanges one quantum: each written step has "k": 1, and a file with another k names that step.

    save_plan(load_plan(f)) writes f's bytes again: the key that fills no
    plan column changes no round trip.
    """
    rng = np.random.default_rng(seed)
    plan = plan_general_state(random_target(rng, top), RamanParams(1.0, 0.1, 20.0), "effective")
    base = tmp_path_factory.getbasetemp()
    written, again, edited = (base / f"k_{name}.json" for name in ("written", "again", "edited"))
    save_plan(plan, written)
    save_plan(load_plan(written), again)
    assert again.read_bytes() == written.read_bytes()
    doc = json.loads(written.read_text())
    assert len(doc["steps"]) == len(plan) and all(type(step["k"]) is int and step["k"] == 1 for step in doc["steps"])
    i = int(rng.integers(len(plan)))
    doc["steps"][i]["k"] = k
    edited.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^plan step {i}: k must be "):
        load_plan(edited)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.sampled_from([("tau", float("nan")), ("k", 0), ("theta0", "0.5"), ("phase_correction", True), ("phi", None)]),
)
def test_plan_document_names_the_step_of_any_rejected_field(seed, top, edit):
    """One rejected value (NaN tau, k = 0, a string, a bool, a mismatched phi) in one step is named with that step."""
    rng = np.random.default_rng(seed)
    doc = plan_to_dict(plan_general_state(random_target(rng, top), RamanParams(1.0, 0.1, 20.0), "effective"))
    i = int(rng.integers(len(doc["steps"])))
    field, value = edit
    step = doc["steps"][i]
    step[field] = step["phi"] + 0.1 if value is None else value  # None: a phi that tau does not give
    with pytest.raises(ValueError, match=f"^plan step {i}[ :]"):
        plan_from_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("model", ["ideal", "effective", "full"])
def test_plan_blocks_stack_the_per_step_generators(params, model):
    # one builder call on the m column gives what one pulse_generator call per step gives, bit for bit, on one layout
    phase_model = "ideal" if model == "ideal" else "effective"
    plan = plan_general_state(random_target(np.random.default_rng(11), 6), params, phase_model)
    space = model_space(model, 9)
    stack = pulse_generator(params, space, model, plan.m)
    steps = [pulse_generator(params, space, model, step.gate.m) for step in plan.steps]
    assert all(blocks.layout is stack.layout for blocks in steps)
    assert np.array_equal(stack.generator, [blocks.generator for blocks in steps])
    with pytest.raises(ValueError, match="too small for selected level m=4;"):  # the first step past the cutoff
        pulse_generator(params, model_space(model, 5), model, plan.m)


def test_plan_columns_are_read_only_and_steps_a_view(params):
    plan = plan_superposition(0.6, 0.8j, 3, params, "effective")
    for name in STEP_COLUMNS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(plan, name)[0] = 0
    with pytest.raises(AttributeError):
        plan.phi = plan.phi[::-1]
    steps = plan.steps
    assert isinstance(steps, tuple) and all(isinstance(step, PlanStep) for step in steps)
    assert [(s.gate.m, s.gate.tau, s.gate.theta0, s.phase_correction) for s in steps] == list(
        zip(plan.m.tolist(), plan.tau.tolist(), plan.theta0.tolist(), plan.chi.tolist()))
    assert same_columns(gate_plan(*((s.gate, s.phase_correction) for s in steps)), plan)


def test_plan_columns_are_checked_like_gates(params):
    gate = GateParams.from_raman(params, m=2, phi=0.4)
    plan = gate_plan((gate, 0.0), (gate, 0.0))
    with pytest.raises(ValueError, match="^plan step 0: m must be an integer, got 2.0"):
        replace(plan, m=[2.0, 2.0])
    with pytest.raises(ValueError, match="^plan step 1: m must be >= 1, got 0"):
        replace(plan, m=[2, 0])
    with pytest.raises(ValueError, match=r"^plan step 1: phi = 0\.5 inconsistent with coupling\*tau = "):
        replace(plan, phi=[0.4, 0.5])
    with pytest.raises(ValueError, match="1-d and of one length"):
        replace(plan, chi=[0.0])
    with pytest.raises(ValueError, match=r"^plan step 1: 2\*eta must be finite"):  # eta = 2 * 6e307 is finite
        replace(plan, theta0=[gate.theta0, 6e307])


def test_plan_paths_build_no_gate_per_step(params, tmp_path, monkeypatch):
    # compile, save, load, execute and calibrate read and write columns: no PlanStep and no GateParams
    built = []
    check = GateParams.__post_init__
    monkeypatch.setattr(GateParams, "__post_init__", lambda gate: built.append(gate) or check(gate))
    monkeypatch.setattr(CircuitPlan, "steps", property(lambda plan: pytest.fail("plan.steps was built")))
    target = random_target(np.random.default_rng(2), 12)
    plan = plan_general_state(target, params, "effective")
    save_plan(plan, tmp_path / "plan.json")
    loaded = load_plan(tmp_path / "plan.json")
    assert len(loaded) == 12 and not built
    execute_plan(loaded, np.array([1.0]), "full", params, HilbertSpace(3, 30))
    plan_general_state(target[:4] / np.linalg.norm(target[:4]), params, "calibrated")
    assert len(built) == 0


# ---- the column reader against the step-by-step reader it replaced ----------

_FILE_KEYS = ("m", "k", "phi", "theta0", "tau", "lam", "phase_correction")


def scanned_columns(raws):
    """The step columns of a plan file's steps, read step by step: the reference of ``plan_from_dict``.

    The first bad step raises, naming the step and field.  This is how plan
    files were read before the column reader; it builds a ``GateParams`` per
    step, and derives a missing or null lam through one.
    """
    rows = []
    for i, raw in enumerate(raws):
        if not isinstance(raw, dict):
            raise ValueError(f"plan step {i} must be an object, got {raw!r}")
        try:
            m, phi, tau, theta0 = raw["m"], raw["phi"], raw["tau"], raw["theta0"]
        except KeyError as exc:
            raise ValueError(f"plan step {i} has no {exc.args[0]!r} field") from None
        for name in ("phi", "tau", "theta0", "lam", "phase_correction"):
            value = raw.get(name, 0.0)  # a null lam is derived below, like an absent one
            if (isinstance(value, bool) or not isinstance(value, (int, float))) and not (name == "lam" and value is None):
                raise ValueError(f"plan step {i} field {name!r} must be a number, got {value!r}")
        for name in _FILE_KEYS:  # an integer its column cannot hold
            kind, limit = ("int64", 2**63 - 1) if name in ("m", "k") else ("float", sys.float_info.max)
            if type(raw.get(name)) is int and abs(raw[name]) > limit:
                raise ValueError(f"plan step {i} field {name!r} is an integer out of {kind} range")
        k, lam, chi = raw.get("k", 1), raw.get("lam"), raw.get("phase_correction", 0.0)
        try:
            if isinstance(k, bool) or not isinstance(k, int):
                raise ValueError(f"k must be an integer, got {k!r}")
            if k != 1:
                raise ValueError(f"k must be 1 (every gate exchanges one quantum), got {k!r}")
            if lam is None:  # files written before lam was stored: phi = lam * ratio * tau
                ratio = GateParams(m=m, tau=0.0, lam=1.0, theta0=0.0, phi=0.0).coupling_element
                lam = phi / tau / ratio if tau != 0.0 else 0.0
            PlanStep(GateParams(m=m, tau=tau, lam=lam, theta0=theta0, phi=phi), chi)
        except ValueError as exc:
            raise ValueError(f"plan step {i}: {exc}") from None
        rows.append((m, phi, tau, theta0, lam, chi))
    return dict(zip(STEP_COLUMNS, zip(*rows)))


def ints_as_floats(steps):
    """``steps`` with each integer of a float field that float range holds written as the float its column holds.

    A value error names a field as its column holds it: phi = 0.0 where the
    file has 0.
    """
    floats = ("phi", "theta0", "tau", "lam", "phase_correction")
    return [{key: float(value) if key in floats and type(value) is int and abs(value) <= sys.float_info.max else value
             for key, value in step.items()} if isinstance(step, dict) else step for step in steps]


def load_outcome(load):
    """The columns of the plan ``load()`` returns, as (dtype, bytes), or the message of the ValueError it raises."""
    try:
        plan = load()
    except ValueError as exc:
        return str(exc)
    return [(getattr(plan, c).dtype, getattr(plan, c).tobytes()) for c in STEP_COLUMNS]


_GONE = object()  # a corruption that deletes the field
CORRUPTIONS = [
    ("m", _GONE), ("phi", _GONE), ("tau", _GONE), ("theta0", _GONE), ("step", 5), ("step", [1, 2]),
    ("m", 2.5), ("m", 2.0), ("m", None), ("m", "3"), ("m", True), ("m", 0), ("m", -3), ("m", 2**62),
    ("m", 2**63), ("m", -(2**70)), ("k", 0), ("k", -1), ("k", 1.0), ("k", False), ("k", 3), ("k", 30),
    ("phi", float("nan")), ("phi", "0.5"), ("phi", None), ("phi", 10**400), ("phi", 7.5), ("phi", 0),
    ("tau", float("inf")), ("tau", 0), ("tau", -1.0), ("tau", [1.0]), ("tau", 10**309),
    ("theta0", float("-inf")), ("theta0", True), ("theta0", 10**300), ("theta0", {"a": 1}),
    ("lam", float("nan")), ("lam", "x"), ("lam", 0.0), ("lam", -(10**400)), ("lam", 1e300),
    ("phase_correction", float("inf")), ("phase_correction", None), ("phase_correction", "0"),
    ("phase_correction", 10**400),
]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.sampled_from(LEDGER_MODELS),
    st.integers(0, 3),
    st.data(),
)
def test_column_reader_matches_step_reader(tmp_path_factory, seed, top, phase_model, tau0_steps, data):
    """Legal rewrites of a compiled plan's file, and one corrupted field, load as the step-by-step reader loads them.

    The rewrites: integral floats written as ints, k dropped,
    phase_correction dropped, lam dropped or null, the file indented.  The
    columns agree bit for bit; a corrupted field is named with the same step
    and message, with an integer in a float field shown as its float.
    """
    p = RamanParams(g=1.0, omega_l=0.1, delta=20.0)
    rng = np.random.default_rng(seed)
    plan = plan_general_state(random_target(rng, top), p, phase_model)
    for _ in range(tau0_steps):  # tau = 0 steps: integral phi, tau and theta0
        gate = GateParams.from_raman(p, m=int(rng.integers(2, top + 2)), phi=0.0)
        plan = with_step(plan, int(rng.integers(0, len(plan) + 1)), gate, 0.0)
    doc = plan_to_dict(plan)
    as_ints, drop_k, drop_chi, indent = (data.draw(st.booleans(), label=f) for f in ("ints", "k", "chi", "indent"))
    for step in doc["steps"]:
        if as_ints:
            step.update({key: int(value) for key, value in step.items() if type(value) is float and value.is_integer()})
        if drop_k:
            del step["k"]
        if drop_chi:
            del step["phase_correction"]
        lam = data.draw(st.sampled_from(["keep", "drop", "null"]), label="lam")
        if lam != "keep":
            step["lam"] = None
            if lam == "drop":
                del step["lam"]
    corruption = data.draw(st.none() | st.sampled_from(CORRUPTIONS), label="corruption")
    if corruption is not None:
        i, (field, value) = data.draw(st.integers(0, len(plan) - 1), label="step"), corruption
        if field == "step":
            doc["steps"][i] = value
        elif value is _GONE:
            doc["steps"][i].pop(field, None)
        else:
            doc["steps"][i][field] = value
    text = json.dumps(doc, indent=2 if indent else None)
    path = tmp_path_factory.getbasetemp() / "rewritten_plan.json"
    path.write_text(text, encoding="utf-8")
    reference = load_outcome(lambda: CircuitPlan(**scanned_columns(ints_as_floats(json.loads(text)["steps"]))))
    assert load_outcome(lambda: load_plan(path)) == reference
    if corruption is None:
        assert not isinstance(reference, str), reference
