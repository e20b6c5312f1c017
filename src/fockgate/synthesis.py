"""Compile target oscillator states into sequences of pair gates and run them.

A target with support on Fock levels 0..N compiles to at most N gates applied
in ascending pair order {0,1}, {1,2}, ..., {N-1,N}: gate j splits the
amplitude riding at level j-1, freezing the share that belongs at j-1 and
carrying the rest upward.  The rotation angles come from the target moduli
(descending accumulation, so gate j sees the combined weight of levels >= j);
the per-gate pulse-phase offsets come from an exact phase ledger, because
each gate contributes -i factors and dispersive phases (theta0 on the lower
pair level, a global 2*eta) that the bare magnitude recipe ignores.  The
offset chi_j of gate j shifts every level >= j alike, so each level's end
phase at chi = 0 is a cumulative sum over the gates, and each offset closes
the phase gap between two neighbouring occupied levels (the step-by-step
ladder of C. K. Law and J. H. Eberly, PRL 76, 1055 (1996)).

The ledger can book phases for two device models: "ideal" (gates touch
nothing outside their pair) and "effective" (spectator Fock levels n pick up
the echoed dispersive phase eta + n*theta0 per gate).  The effective ledger is
first order.  It ignores the shifts that the detuned doublets
{|g,n>, |e,n-1>} put on every level: second order in lambda, but over a
detuning of only multiples of g^2/delta, so each pulse moves a level's phase
by about r*phi, linear in r = |Omega_L|/g.  Level 0 under a full transfer on
{1,2} moves by -0.119, -0.056, -0.0225 and -0.011 rad at r = 0.1, 0.05, 0.02
and 0.01.  These phases are recoverable.  The third phase model,
"calibrated", compiles the effective-ledger plan and then refines every
step's angle and pulse phase against the effective dynamics themselves.
What phases cannot undo is leakage through the detuned exchange channels
(population ~ 4*r^2*(m+1) per gate, modulated by the pulse-end phase).  For
the (alpha|0> + beta|n>) draws of acceptance check A7 at r = 0.1, phase-only
re-optimisation already reaches 0.998, 0.998, 0.997 and 0.997 for n = 1..4;
only at n = 5 does leakage cap it, at 0.964.

A plan runs its gates one after another through one auxiliary atom, which is
re-prepared in |+> between gates; since an ideal gate returns the atom
exactly to |+>, this reset is bookkeeping rather than back-action.  Only
under the "ideal" model do gates on disjoint pairs commute: under
"effective" and "full" every gate puts its own level-dependent dispersive
phase on the spectator levels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .gates import GateParams, apply_echo, atom_plus, induced_oscillator_unitary, model_space, pair_gate
from .gates import pulse_generator
from .hamiltonians import RamanParams
from .propagator import block_eigensystem, block_unitaries, eigen_unitaries
from .spaces import HilbertSpace, product_state, project_atom, purity, reduced_atom_state
from .spaces import reduced_oscillator_state  # noqa: F401  unused; bench/spans.py wraps it here

LEDGER_MODELS = ("ideal", "effective")
PHASE_MODELS = LEDGER_MODELS + ("calibrated",)

# calibration: Fock levels kept above the plan's top level, damped
# Gauss-Newton iteration cap, finite-difference step, and stopping threshold
# on the relative drop of the squared residual per iteration
CALIBRATION_HEADROOM = 4
CALIBRATION_MAX_ITER = 30
CALIBRATION_FD_STEP = 1e-7
CALIBRATION_RTOL = 1e-3


@dataclass(frozen=True)
class PlanStep:
    gate: GateParams
    phase_correction: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.phase_correction):
            raise ValueError(f"phase_correction must be finite, got {self.phase_correction}")


@dataclass
class CircuitPlan:
    """Ordered pair-gate sequence preparing ``target`` from the vacuum."""

    steps: list[PlanStep]
    target: np.ndarray | None = None
    phase_model: str = "ideal"
    schedule: ClassVar[str] = "sequential"

    def __post_init__(self):
        if self.phase_model not in PHASE_MODELS:
            raise ValueError(f"unknown phase model {self.phase_model!r}")
        if self.target is not None:
            self.target = _checked_target(self.target)

    def __len__(self) -> int:
        return len(self.steps)

    def pairs(self) -> list[tuple[int, int]]:
        return [s.gate.pair for s in self.steps]


def _checked_target(target) -> np.ndarray:
    """A complex copy of ``target``, which must be a finite 1-d state of norm 1 (to 1e-9)."""
    t = np.array(target, dtype=complex)
    if t.ndim != 1 or not np.isfinite(t).all():
        raise ValueError(f"target must be a finite 1-d state, got shape {t.shape}")
    nrm = float(np.linalg.norm(t))
    if not math.isclose(nrm, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError(f"target norm {nrm} != 1")
    return t


@dataclass
class ExecutionReport:
    fidelity: float
    leakage: float
    guard_population: float
    step_purities: list[float] = field(default_factory=list)
    step_atom_overlaps: list[float] = field(default_factory=list)


def _compile_ladder(target: np.ndarray, p: RamanParams, phase_model: str) -> CircuitPlan:
    """Angles from target moduli, pulse-phase offsets from the ledger.

    The ledger needs no running state: each level's end phase at chi = 0 is
    a cumulative sum, and the offset of the gate that carries amplitude up
    to an occupied level closes that level's phase gap to the occupied level
    below it.  "calibrated" compiles the "effective" ledger plan and refines it.
    """
    if phase_model == "calibrated":
        return _calibrate(_compile_ladder(target, p, "effective"), p)
    if phase_model not in LEDGER_MODELS:
        raise ValueError(f"unknown phase model {phase_model!r}")
    t = _checked_target(target)
    occupied = np.nonzero(np.abs(t) > 1e-12)[0]
    if len(occupied) == 0:
        raise ValueError("target has no support")
    top = int(occupied[-1])

    # rotation angles: gate j acts on pair {j-1, j}; cos(phi_j) is the share
    # of the remaining weight that stays at level j-1
    phis = []
    for j in range(1, top + 1):
        remaining = float(np.linalg.norm(t[j - 1 :]))
        ratio = min(1.0, abs(t[j - 1]) / remaining)
        phis.append(float(np.arccos(ratio)))

    gates = [GateParams.from_raman(p, m=j, phi=phis[j - 1]) for j in range(1, top + 1)]
    eta = np.array([gp.eta for gp in gates])
    theta0 = np.array([gp.theta0 for gp in gates])

    # phase ledger: chi_j multiplies the amplitude carried to level j, so it
    # shifts every level >= j alike.  At chi = 0 each level's end phase is a
    # cumulative sum; each offset then closes the phase gap between two
    # neighbouring occupied levels, up to one global phase.
    future = np.zeros(top + 1)  # spectator phase level i gains after its freeze
    if phase_model == "effective":
        # gate j puts -(eta_j + i*theta0_j) on spectator level i; level i
        # freezes after gate min(i+1, top) and collects every later gate, so
        # it needs the suffix sums eta_after[k], theta0_after[k] over gates > k
        eta_after = np.append(np.cumsum(eta[::-1])[::-1], 0.0)
        theta0_after = np.append(np.cumsum(theta0[::-1])[::-1], 0.0)
        levels = np.arange(top + 1)
        freeze = np.minimum(levels + 1, top)
        future = -(eta_after[freeze] + levels * theta0_after[freeze])
    # end phase at chi = 0: arrival (each climb gives -i and -2 eta), the
    # freezing gate's -2 eta + theta0 (no gate freezes the top), spectators
    arrival = np.append(0.0, np.cumsum(-2.0 * eta - 0.5 * math.pi))
    ends = arrival + np.append(-2.0 * eta + theta0, 0.0) + future
    gap = np.angle(t[occupied]) - ends[occupied]
    chis = np.zeros(top)
    chis[occupied[1:] - 1] = np.diff(gap)

    steps = [
        PlanStep(gate=gp, phase_correction=chi)
        for gp, chi in zip(gates, chis.tolist())
        if gp.phi > 1e-15
    ]
    return CircuitPlan(steps=steps, target=t, phase_model=phase_model)


def plan_general_state(
    target: np.ndarray, p: RamanParams, phase_model: str = "ideal"
) -> CircuitPlan:
    """Plan preparing an arbitrary normalized oscillator state from |0>.

    Plan length is at most the highest occupied level; zero-amplitude
    interior levels cost a full-transfer gate, zero-angle gates are elided.
    phase_model is "ideal", "effective" or "calibrated" (see the module
    docstring).
    """
    return _compile_ladder(target, p, phase_model)


def plan_superposition(
    alpha: complex, beta: complex, n: int, p: RamanParams, phase_model: str = "ideal"
) -> CircuitPlan:
    """Plan preparing alpha|0> + beta|n> from |0>.

    Exactly n gates when beta != 0: the first rotates by arccos|alpha| on
    {0,1}, the rest climb with full pi/2 transfers.  Under the "calibrated"
    phase model these angles, and with them the pulse durations, are only
    the starting point: calibration moves them (by up to about 0.2 rad at
    |Omega_L|/g = 0.1) along with the pulse phases, on the same n pairs.
    """
    if n < 0 or (n == 0 and abs(beta) > 0):
        raise ValueError(f"cannot place the excited component at level n={n}")
    nrm = abs(alpha) ** 2 + abs(beta) ** 2
    if not math.isclose(nrm, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError(f"|alpha|^2 + |beta|^2 = {nrm}, expected 1")
    target = np.zeros(n + 1, dtype=complex)
    target[0] = alpha
    if n > 0:
        target[n] = beta
    return _compile_ladder(target, p, phase_model)


def _apply_step(step: PlanStep, index: np.ndarray, pulse: np.ndarray, space: HilbertSpace, osc):
    """|+> ⊗ osc through the gate of ``step`` from its phase-0 block unitaries ``pulse``.

    osc is an oscillator state or an (fock_cutoff, k) stack.  Returns the
    joint state and its <+| branch: the oscillator, unnormalized, after the atom reset.
    """
    plus = atom_plus(space.atom_dim)
    prepared = product_state(space, plus, osc)
    joint = apply_echo(index, pulse, step.gate.theta0, space, prepared, step.phase_correction)
    return joint, project_atom(plus, joint, space)


def execute_plan(
    plan: CircuitPlan,
    initial: np.ndarray,
    model: str,
    p: RamanParams,
    space: HilbertSpace | None = None,
) -> tuple[np.ndarray, ExecutionReport]:
    """Run a plan on an oscillator state, re-preparing the atom per gate.

    Each gate acts on |+> ⊗ osc block by block (``_apply_step``), from
    one batched eigendecomposition for all steps, so applying a gate costs
    O(fock_cutoff) and no joint-space matrix is formed.  Returns the final
    oscillator state and a report; fidelity is measured against the plan
    target (padded to the working cutoff) when one is set, otherwise against
    the initial state.  Without a ``space`` the cutoff is
    max_m + 2 (and at least len(initial)); under "effective" and "full" it is
    at least len(initial) + 2 * len(plan), the reach of the detuned doublets.
    """
    initial = np.asarray(initial, dtype=complex)
    if initial.ndim != 1 or not np.isfinite(initial).all() or not initial.any():
        raise ValueError(f"initial must be a finite 1-d state of nonzero norm, shape {initial.shape}")
    if space is None:
        max_m = max((s.gate.m for s in plan.steps), default=0)
        cutoff = max(len(initial), max_m + 2)
        if model != "ideal":
            # the detuned doublets carry amplitude two levels up per gate
            cutoff = max(cutoff, len(initial) + 2 * len(plan))
        space = model_space(model, cutoff)
    if len(initial) > space.fock_cutoff:
        raise ValueError("initial state longer than the Fock cutoff")

    osc = np.pad(initial, (0, space.fock_cutoff - len(initial)))
    osc = osc / np.linalg.norm(osc)

    # one eigh for the plan: every step's phase-0 blocks in one stack, each at its step's tau
    blocks = [pulse_generator(step.gate, p, space, model) for step in plan.steps]
    ends = np.cumsum([len(b.index) for b in blocks], dtype=int)
    taus = np.repeat([step.gate.tau for step in plan.steps], np.diff(ends, prepend=0))
    stack = block_unitaries(np.concatenate([b.generator for b in blocks]), taus) if blocks else []
    pulses = np.split(stack, ends[:-1])

    purities: list[float] = []
    atom_overlaps: list[float] = []
    for step, b, pulse in zip(plan.steps, blocks, pulses):
        joint, branch = _apply_step(step, b.index, pulse, space, osc)
        purities.append(purity(reduced_atom_state(joint, space)))  # the oscillator's, joint being pure
        # projective reset of the atom to |+>
        weight = float(np.linalg.norm(branch))
        atom_overlaps.append(weight**2)
        if weight == 0.0:
            raise ArithmeticError("atom reset branch has zero weight")
        osc = branch / weight

    source = plan.target if plan.target is not None else initial / np.linalg.norm(initial)
    ref = np.pad(source, (0, space.fock_cutoff - len(source)))
    support = np.nonzero(np.abs(ref) > 1e-12)[0]

    fid = float(np.abs(np.vdot(ref, osc)) ** 2)
    pops = np.abs(osc) ** 2
    leak = float(np.sum(pops) - np.sum(pops[support]))
    report = ExecutionReport(
        fidelity=fid,
        leakage=leak,
        guard_population=float(pops[space.guard_level]),
        step_purities=purities,
        step_atom_overlaps=atom_overlaps,
    )
    return osc, report


def _calibration_runner(plan: CircuitPlan, p: RamanParams, space: HilbertSpace):
    """Calibration's ``steps_at`` and ``images`` on the levels of ``plan``, from one eigh per level.

    ``steps_at(x)`` gives the steps at (phi_i, chi_i) = x[2i:2i+2] and their
    phase-0 block unitaries.  ``images(x, columns=False)`` runs the vacuum
    through them by ``_apply_step`` under the effective model, without
    renormalizing: column 0 is the image at x; with ``columns``, column 1 + k
    has x[k] moved by CALIBRATION_FD_STEP and branches off column 0 just
    before the step of x[k].
    """
    blocks = [pulse_generator(s.gate, p, space, "effective") for s in plan.steps]
    evals, evecs = block_eigensystem(np.array([b.generator for b in blocks]))

    def steps_at(x: np.ndarray) -> tuple[list[PlanStep], np.ndarray]:
        steps = [
            PlanStep(GateParams.from_raman(p, m=s.gate.m, phi=float(phi)), float(chi))
            for s, (phi, chi) in zip(plan.steps, x.reshape(-1, 2))
        ]
        return steps, eigen_unitaries(evals, evecs, np.array([s.gate.tau for s in steps])[:, None])

    def images(x: np.ndarray, columns: bool = False) -> np.ndarray:
        # x, then (with columns) x with every phi moved and x with every chi moved
        moves = [(0.0, 0.0)] + ([(CALIBRATION_FD_STEP, 0.0), (0.0, CALIBRATION_FD_STEP)] if columns else [])
        (steps, pulses), *moved = [steps_at(x + np.tile(d, len(blocks))) for d in moves]
        osc = np.eye(space.fock_cutoff, 1, dtype=complex)  # the vacuum
        for i, b in enumerate(blocks):
            branches = [_apply_step(m[i], b.index, u[i], space, osc[:, :1])[1] for m, u in moved]
            osc = np.hstack([_apply_step(steps[i], b.index, pulses[i], space, osc)[1], *branches])
        return osc

    return steps_at, images


def _calibrate(plan: CircuitPlan, p: RamanParams) -> CircuitPlan:
    """Refine an effective-ledger plan against the effective dynamics it runs.

    The ledger books only the first-order echo phases; the detuned doublets
    also shift every level by about r*phi per pulse (second order in lambda
    over a detuning of only g^2/delta), which is linear in r = |Omega_L|/g
    and lands mostly in the relative phases of the target levels.  Damped
    Gauss-Newton with a finite-difference Jacobian adjusts each step's phi
    (tau follows, theta0 = (g^2/delta)*tau) and phase_correction.  The
    residual is the vacuum's image under the plan, run by ``execute_plan``'s
    step routine under the effective model at cutoff top +
    CALIBRATION_HEADROOM, minus the target after removing the best global
    phase.  Each iteration runs the image and its 2n finite-difference
    columns through the plan as one (fock_cutoff, 1 + 2n) stack
    (``_calibration_runner``); trial points run the image alone.  Steps are
    accepted only when they lower the residual and keep every tau > 0; the
    pairs stay those of the input plan.
    """
    if not plan.steps:
        return replace(plan, phase_model="calibrated")
    space = HilbertSpace(2, max(max(s.gate.m for s in plan.steps) + CALIBRATION_HEADROOM, len(plan.target)))
    ref = np.pad(plan.target, (0, space.fock_cutoff - len(plan.target)))
    steps_at, images = _calibration_runner(plan, p, space)

    def residuals(osc: np.ndarray) -> np.ndarray:
        # per column: normalized, best global phase removed, minus the target
        osc = osc / np.linalg.norm(osc, axis=0)
        diff = osc * np.exp(1j * np.angle(osc.conj().T @ ref)) - ref[:, None]
        return np.concatenate([diff.real, diff.imag])

    x = np.ravel([(s.gate.phi, s.phase_correction) for s in plan.steps])
    damping = 1e-3
    for _ in range(CALIBRATION_MAX_ITER):
        columns = residuals(images(x, columns=True))
        cost = float(np.sum(columns[:, 0] ** 2))
        jac = (columns[:, 1:] - columns[:, :1]) / CALIBRATION_FD_STEP
        normal = jac.T @ jac
        scale = np.diag(np.diag(normal)) + 1e-12 * np.eye(len(x))
        while damping < 1e8:
            trial = x - np.linalg.solve(normal + damping * scale, jac.T @ columns[:, 0])
            if np.all(trial[0::2] > 0.0):
                trial_cost = float(np.sum(residuals(images(trial))[:, 0] ** 2))
                if trial_cost < cost:
                    break
            damping *= 4.0
        else:
            break
        damping = max(damping / 3.0, 1e-9)
        x, converged = trial, cost - trial_cost <= CALIBRATION_RTOL * cost
        if converged:
            break
    return replace(plan, phase_model="calibrated", steps=steps_at(x)[0])


def commutation_check(
    ga: GateParams, gb: GateParams, p: RamanParams, space: HilbertSpace
) -> float:
    """Max-norm of the commutator of the two induced oscillator unitaries.

    Built under the ideal model with the atom in |+>; vanishes (to round-off)
    exactly when the two pairs are disjoint.
    """
    plus = atom_plus(space.atom_dim)
    ra = induced_oscillator_unitary(pair_gate(ga, p, space, "ideal"), space, plus)
    rb = induced_oscillator_unitary(pair_gate(gb, p, space, "ideal"), space, plus)
    comm = ra @ rb - rb @ ra
    return float(np.max(np.abs(comm)))


def plan_to_dict(plan: CircuitPlan) -> dict:
    doc = {
        "schedule": plan.schedule,
        "phase_model": plan.phase_model,
        "steps": [
            {
                "m": s.gate.m,
                "k": s.gate.k,
                "phi": s.gate.phi,
                "theta0": s.gate.theta0,
                "tau": s.gate.tau,
                "lam": s.gate.lam,
                "phase_correction": s.phase_correction,
            }
            for s in plan.steps
        ],
    }
    if plan.target is not None:
        doc["target"] = [[float(c.real), float(c.imag)] for c in plan.target]
    return doc


def plan_from_dict(doc: dict) -> CircuitPlan:
    steps = []
    for raw in doc["steps"]:
        m, k, phi, tau = raw["m"], raw.get("k", 1), raw["phi"], raw["tau"]
        lam = raw.get("lam")
        if lam is None:  # files written before lam was stored: phi = lam * ratio * tau
            ratio = GateParams(m=m, tau=0.0, lam=1.0, theta0=0.0, phi=0.0, eta=0.0, k=k).coupling_element
            lam = phi / tau / ratio if tau != 0.0 else 0.0
        gate = GateParams(
            m=m, tau=tau, lam=lam, theta0=raw["theta0"], phi=phi, eta=m * raw["theta0"], k=k
        )
        steps.append(PlanStep(gate=gate, phase_correction=raw.get("phase_correction", 0.0)))
    target = None
    if "target" in doc:
        target = np.array([complex(re, im) for re, im in doc["target"]])
    # other keys, such as an older file's schedule, are ignored: steps run in order
    return CircuitPlan(steps=steps, target=target, phase_model=doc.get("phase_model", "ideal"))


def save_plan(plan: CircuitPlan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan_to_dict(plan), fh, indent=2)


def load_plan(path) -> CircuitPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_dict(json.load(fh))
