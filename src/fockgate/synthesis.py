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

A plan holds its steps as read-only numpy columns m, phi, tau, theta0, lam
(the ``GateParams`` fields) and chi (the pulse-phase offset, a
``PlanStep``'s and a plan file's ``phase_correction``), checked once when the
plan is made.  Every step is a gate on the adjacent pair {m-1, m}, so a plan
has no k column; plan files still write ``"k": 1`` in every step, and the
reader rejects any other k.  Compilation, plan files, execution and
calibration read and write the columns; ``CircuitPlan.steps`` builds
``PlanStep`` objects from them only for callers that ask.  A plan file is
read one field at a time, as a column; the reader checks types and
``CircuitPlan`` the values.

A plan runs its gates one after another through one auxiliary atom, which is
re-prepared in |+> between gates; since an ideal gate returns the atom
exactly to |+>, this reset is bookkeeping rather than back-action.  Under
"effective" and "full" it is a projection: ``execute_plan`` keeps the <+|
branch of every gate and renormalizes it, so ``ExecutionReport.fidelity`` is
post-selected on finding the atom in |+> after every gate, and the product
of ``step_atom_overlaps`` is the probability of that outcome.  Plan
execution and calibration build every step's pulses in one
``gates.echo_pulses`` call and share one step routine (``_step_runner``):
it runs |+> ⊗ osc through ``gates.run_echo`` on the block layout that
every step shares and keeps the <+| branch.  The ``echo_pulses`` call writes every
step's two pulses in their frames; under "full" a plan's stack of triplet
layers is diagonalised once per device, cutoff and levels
(``propagator.SPECTRA`` keeps its projectors while the stack fits its
budget), so a repeated plan or calibration pays only the reconstruction,
one contraction over the eigenvalues and the frame.  Only
under the "ideal" model do gates on disjoint pairs commute: under
"effective" and "full" every gate puts its own level-dependent dispersive
phase on the spectator levels.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import ClassVar

import numpy as np

from .gates import GateParams, atom_plus, echo_pulses, induced_oscillator_unitary, pair_gate, pulse_generator
from .gates import _require_integer, raman_columns, run_echo
from .hamiltonians import BlockLayout, RamanParams
from .spaces import HilbertSpace, normalize, purity
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


STEP_COLUMNS = ("m", "phi", "tau", "theta0", "lam", "chi")  # chi: a PlanStep's phase_correction


@dataclass(frozen=True, eq=False)
class CircuitPlan:
    """Ordered pair-gate sequence preparing ``target`` from the vacuum, stored as read-only columns.

    Step i is ``PlanStep(GateParams(m[i], tau[i], lam[i], theta0[i], phi[i]),
    chi[i])``; ``steps`` builds them on each access.  The columns (int64 m,
    float64 others) are checked by those two classes' rules in one
    vectorised pass; the first row that breaks one (every row, if m is not
    an integer array) is built, raising "plan step i: " and its message; a
    level outside int64 is named so too.
    """

    m: np.ndarray = ()
    phi: np.ndarray = ()
    tau: np.ndarray = ()
    theta0: np.ndarray = ()
    lam: np.ndarray = ()
    chi: np.ndarray = ()
    target: np.ndarray | None = None
    phase_model: str = "ideal"
    schedule: ClassVar[str] = "sequential"

    def __post_init__(self):
        given = [np.asarray(getattr(self, c)) for c in STEP_COLUMNS]
        if given[0].ndim != 1 or any(a.shape != given[0].shape for a in given):
            raise ValueError(f"plan columns must be 1-d and of one length, got shapes {[a.shape for a in given]}")
        integral = given[0].dtype.kind in "iu" or given[0].size == 0
        # an m column of another kind stays as given: every row is built below, naming a level past float range
        m, phi, tau, theta0, lam, chi = columns = [given[0].astype(np.int64) if integral else given[0],
                                                   *(a.astype(float) for a in given[1:])]
        first = 0
        if integral:
            element = np.sqrt(np.where(m >= 1, m, np.nan))
            with np.errstate(all="ignore"):  # overflows and NaNs are what the check looks for
                expected = lam * element * tau  # GateParams.coupling_element * tau
                ok = np.isfinite([phi, tau, theta0, lam, chi, 2 * (m * theta0), expected]).all(axis=0)
                ok &= np.abs(phi - expected) <= np.maximum(1e-9 * np.maximum(np.abs(phi), np.abs(expected)), 1e-12)
            first = int(np.argmin(ok)) if not ok.all() else len(ok)
        for i in range(first, len(m)):
            try:
                _plan_step(given, i)
                if not -(2**63) <= int(given[0][i]) < 2**63:  # valid, but int64 cannot hold it
                    raise ValueError(f"level m = {given[0][i]} must lie in int64 range")
            except ValueError as exc:
                raise ValueError(f"plan step {i}: {exc}") from None
        if not integral:  # every row was built, so m holds int64 integers, such as an object array's
            columns[0] = given[0].astype(np.int64)
        for name, column in zip(STEP_COLUMNS, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.phase_model not in PHASE_MODELS:
            raise ValueError(f"unknown phase model {self.phase_model!r}")
        if self.target is not None:
            object.__setattr__(self, "target", _checked_target(self.target))

    def __len__(self) -> int:
        return len(self.m)

    @property
    def steps(self) -> tuple[PlanStep, ...]:
        return tuple(_plan_step([getattr(self, c) for c in STEP_COLUMNS], i) for i in range(len(self)))

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip((self.m - 1).tolist(), self.m.tolist()))


def _plan_step(columns: list, i: int) -> PlanStep:
    """Row i of columns in ``STEP_COLUMNS`` order as a ``PlanStep``, built, so checked, from Python scalars."""
    m, phi, tau, theta0, lam, chi = (c[i : i + 1].tolist()[0] for c in columns)
    return PlanStep(GateParams(m=m, tau=tau, lam=lam, theta0=theta0, phi=phi), chi)


def _checked_target(target) -> np.ndarray:
    """A complex copy of ``target``, which must be a finite 1-d state of norm 1 (to 1e-9)."""
    t = np.array(target, dtype=complex)
    if t.ndim != 1 or not np.isfinite(t).all():
        raise ValueError(f"target must be a finite 1-d state, got shape {t.shape}")
    nrm = normalize(t)[1]
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
    # of the remaining weight ||t[j-1:]|| (a suffix sum) that stays at level j-1
    moduli = np.abs(t)
    remaining = np.sqrt(np.cumsum(moduli[::-1] ** 2)[::-1])
    phi = np.arccos(np.minimum(1.0, moduli[:top] / remaining[:top]))

    # tau and theta0 of every gate; a device without a usable coupling raises its error
    m = np.arange(1, top + 1)
    (tau,), (theta0,) = raman_columns([p], m, phi)
    eta = m * theta0

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

    kept = phi > 1e-15
    return CircuitPlan(
        m=m[kept], phi=phi[kept], tau=tau[kept], theta0=theta0[kept], lam=np.full(kept.sum(), p.coupling),
        chi=chis[kept], target=t, phase_model=phase_model,
    )


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
    _require_integer("n", n)
    if n < 0 or (n == 0 and beta != 0):
        raise ValueError(f"cannot place the excited component at level n={n}")
    nrm = math.hypot(alpha.real, alpha.imag, beta.real, beta.imag)  # no overflow, unlike abs(alpha) ** 2
    if not math.isclose(nrm * nrm, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError(f"sqrt(|alpha|^2 + |beta|^2) = {nrm}, expected 1")
    target = np.zeros(n + 1, dtype=complex)
    target[0] = alpha
    if n > 0:
        target[n] = beta
    return _compile_ladder(target, p, phase_model)


def _step_runner(layout: BlockLayout, space: HilbertSpace):
    """The routine that runs one plan step on |+> ⊗ osc, for ``execute_plan`` and calibration.

    ``step(pulses, i, osc)`` runs step i of ``pulses``, an ``echo_pulses``
    array on ``layout``, the one layout of every step, on |+> ⊗ osc for a
    (fock_cutoff, k) stack osc, by ``run_echo``.  It returns the (dim, k)
    joint states and their <+| branch.
    """
    plus = atom_plus(space.atom_dim)
    bra = plus.conj()

    def step(pulses: np.ndarray, i: int, osc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        joint = run_echo(layout, pulses[:, i], (plus[:, None, None] * osc).reshape(-1, osc.shape[1]))
        return joint, (bra @ joint.reshape(len(bra), -1)).reshape(osc.shape)

    return step


def execute_plan(
    plan: CircuitPlan,
    initial: np.ndarray,
    model: str,
    p: RamanParams,
    space: HilbertSpace,
) -> tuple[np.ndarray, ExecutionReport]:
    """Run a plan on an oscillator state, re-preparing the atom per gate.

    The gates run in ``space``, the working space of ``model``
    (``gates.model_space``).  One ``pulse_generator`` call on the m column
    puts every step's phase-0 blocks into one (steps, nb, b, b) stack on one
    layout, naming the first step past the cutoff, and one ``echo_pulses``
    call builds every framed pulse.  The loop then only runs |+> ⊗ osc through each
    gate (``_step_runner``, also calibration's step) and resets the atom;
    the step purities come from the joint states after the loop.  A step
    whose drive phase chi or chi - theta0 is not finite is a ValueError
    naming the step.  Returns the final oscillator state and a report, both
    post-selected on the atom's |+> outcome at every reset; fidelity is
    measured against the plan target (padded to the working cutoff, a zero
    tail beyond it dropped) when one is set, otherwise against the initial
    state; target support beyond the cutoff is an error.
    """
    initial = np.asarray(initial, dtype=complex)
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below, not warned about
        norm = np.linalg.norm(initial) if initial.ndim == 1 else np.nan
    if not 0.0 < norm < np.inf:  # also a non-finite entry, or a norm that underflows to 0
        raise ValueError(f"initial must be a finite 1-d state of nonzero norm, shape {initial.shape}")
    if len(initial) > space.fock_cutoff:
        raise ValueError("initial state longer than the Fock cutoff")
    source = plan.target if plan.target is not None else initial / norm
    if np.any(np.abs(source[space.fock_cutoff :]) > 1e-12):
        raise ValueError(f"target has support beyond the Fock cutoff {space.fock_cutoff}")

    osc = np.zeros((space.fock_cutoff, 1), dtype=complex)
    osc[: len(initial), 0] = initial / norm

    blocks = pulse_generator(p, space, model, plan.m)
    step = _step_runner(blocks.layout, space)
    pulses = echo_pulses(blocks.generator, plan.tau, plan.theta0, plan.chi)
    joints = []
    atom_overlaps: list[float] = []
    for i in range(len(plan)):
        joint, branch = step(pulses, i, osc)
        joints.append(joint)
        # projective reset of the atom to |+>; its norm summed as np.linalg.norm sums it, without the call
        flat = branch.ravel()
        weight = math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))
        atom_overlaps.append(weight**2)
        if weight == 0.0:
            raise ArithmeticError("atom reset branch has zero weight")
        osc = branch / weight
    osc = osc[:, 0]
    # the reduced atom states; their purity is the oscillator's, each joint state being pure
    states = np.reshape(joints, (len(plan), space.atom_dim, space.fock_cutoff))
    purities = purity(states @ states.conj().swapaxes(1, 2)).tolist()

    ref = np.zeros(space.fock_cutoff, dtype=complex)
    ref[: len(source)] = source[: space.fock_cutoff]
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
    """Calibration's ``plan_at`` and ``images`` on the levels of ``plan``; doublets in closed form, no eigh.

    ``plan_at(x)`` is ``plan`` with (phi_i, chi_i) = x[2i:2i+2], tau and
    theta0 following from ``raman_columns``.
    ``images(x, columns=False)`` runs the vacuum through them by
    ``execute_plan``'s step routine under the effective model, without
    renormalizing: column 0 is the image at x; with ``columns``, column
    1 + k has x[k] moved by CALIBRATION_FD_STEP and branches off column 0
    just before the step of x[k].  The generator stack is built once; each
    parameter set's pulses come from one ``echo_pulses`` call.
    """
    stack = pulse_generator(p, space, "effective", plan.m)
    step = _step_runner(stack.layout, space)

    def plan_at(x: np.ndarray) -> CircuitPlan:
        (tau,), (theta0,) = raman_columns([p], plan.m, x[0::2])
        return replace(plan, phi=x[0::2], tau=tau, theta0=theta0, chi=x[1::2])

    def images(x: np.ndarray, columns: bool = False) -> np.ndarray:
        # x, then (with columns) x with every phi moved and x with every chi moved
        moves = [(0.0, 0.0)] + ([(CALIBRATION_FD_STEP, 0.0), (0.0, CALIBRATION_FD_STEP)] if columns else [])
        base, *moved = [echo_pulses(stack.generator, at.tau, at.theta0, at.chi)
                        for at in (plan_at(x + np.tile(d, len(plan))) for d in moves)]
        osc = np.eye(space.fock_cutoff, 1, dtype=complex)  # the vacuum
        for i in range(len(plan)):
            branches = [step(pulses, i, osc[:, :1])[1] for pulses in moved]
            osc = np.hstack([step(base, i, osc)[1], *branches])
        return osc

    return plan_at, images


def _calibrate(plan: CircuitPlan, p: RamanParams) -> CircuitPlan:
    """Refine an effective-ledger plan against the effective dynamics it runs.

    The ledger books only the first-order echo phases; the detuned doublets
    also shift every level by about r*phi per pulse (second order in lambda
    over a detuning of only g^2/delta), which is linear in r = |Omega_L|/g
    and lands mostly in the relative phases of the target levels.  Damped
    Gauss-Newton with a finite-difference Jacobian adjusts each step's phi
    (tau follows, theta0 = (g^2/delta)*tau) and chi.  The
    residual is the vacuum's image under the plan, run by ``execute_plan``'s
    step routine under the effective model at cutoff top +
    CALIBRATION_HEADROOM, minus the target after removing the best global
    phase.  Each iteration runs the image and its 2n finite-difference
    columns through the plan as one (fock_cutoff, 1 + 2n) stack
    (``_calibration_runner``); trial points run the image alone.  Steps are
    accepted only when they lower the residual and keep every tau > 0; the
    pairs stay those of the input plan.
    """
    if not len(plan):
        return replace(plan, phase_model="calibrated")
    space = HilbertSpace(2, max(int(plan.m.max()) + CALIBRATION_HEADROOM, len(plan.target)))
    ref = np.pad(plan.target, (0, space.fock_cutoff - len(plan.target)))
    plan_at, images = _calibration_runner(plan, p, space)

    def residuals(osc: np.ndarray) -> np.ndarray:
        # per column: normalized, best global phase removed, minus the target
        osc = osc / np.linalg.norm(osc, axis=0)
        diff = osc * np.exp(1j * np.angle(osc.conj().T @ ref)) - ref[:, None]
        return np.concatenate([diff.real, diff.imag])

    x = np.column_stack((plan.phi, plan.chi)).ravel()
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
    return replace(plan_at(x), phase_model="calibrated")


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


_REQUIRED = object()  # the default of a field that every step must have
_NUMBER = {int, float}

# a plan file step's keys, in the order written: the column each fills, the
# JSON types it takes, and the value of a missing key (a null lam is derived;
# k, always 1, is read and checked but fills no plan column)
_FILE_FIELDS = {"m": ("m", {int}, _REQUIRED), "k": ("k", {int}, 1), "phi": ("phi", _NUMBER, _REQUIRED),
                "theta0": ("theta0", _NUMBER, _REQUIRED), "tau": ("tau", _NUMBER, _REQUIRED),
                "lam": ("lam", _NUMBER | {type(None)}, None), "phase_correction": ("chi", _NUMBER, 0.0)}


def plan_to_dict(plan: CircuitPlan) -> dict:
    columns = zip(*(getattr(plan, name).tolist() for name in ("m", "phi", "theta0", "tau", "lam", "chi")))
    doc = {
        "schedule": plan.schedule,
        "phase_model": plan.phase_model,
        "steps": [
            {"m": m, "k": 1, "phi": phi, "theta0": theta0, "tau": tau, "lam": lam, "phase_correction": chi}
            for m, phi, theta0, tau, lam, chi in columns
        ],
    }
    if plan.target is not None:
        doc["target"] = np.column_stack((plan.target.real, plan.target.imag)).tolist()
    return doc


def plan_from_dict(doc: dict) -> CircuitPlan:
    """The plan of a JSON document, each step field read as one column.

    Each column's types take one pass, in file key order; only a type the
    column cannot take starts a scan, which names the first such step.  So
    of two steps with bad types, the one whose bad field comes first is
    named.  A missing k is 1 and a missing phase_correction 0; a missing or
    null lam is derived, for those steps alone.  A k other than 1 names its
    step; ``CircuitPlan`` checks the other values.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("steps"), list):
        raise ValueError("plan document must be an object whose 'steps' is a list")
    raws, columns = doc["steps"], {}
    if set(map(type, raws)) - {dict}:
        i, raw = next((i, raw) for i, raw in enumerate(raws) if type(raw) is not dict)
        raise ValueError(f"plan step {i} must be an object, got {raw!r}")
    for key, (name, types, default) in _FILE_FIELDS.items():
        values = list(map(dict.get, raws, repeat(key), repeat(default)))
        if set(map(type, values)) - types:
            i, value = next((i, value) for i, value in enumerate(values) if type(value) not in types)
            if value is _REQUIRED:
                raise ValueError(f"plan step {i} has no {key!r} field")
            if types == {int}:  # worded as GateParams words it
                raise ValueError(f"plan step {i}: {key} must be an integer, got {value!r}")
            raise ValueError(f"plan step {i} field {key!r} must be a number, got {value!r}")
        kind = np.int64 if types == {int} else float
        try:
            columns[name] = np.array(values, dtype=kind)  # a null lam reads as NaN
        except OverflowError:  # an integer the column cannot hold
            limit = 2**63 - 1 if kind is np.int64 else sys.float_info.max
            i = next(i for i, value in enumerate(values) if type(value) is int and abs(value) > limit)
            raise ValueError(f"plan step {i} field {key!r} is an integer out of {kind.__name__} range") from None
    other_k = np.flatnonzero(columns.pop("k") != 1)
    if len(other_k):
        i = other_k[0]
        raise ValueError(f"plan step {i}: k must be 1 (every gate exchanges one quantum), got {raws[i]['k']!r}")
    for i in np.flatnonzero(np.isnan(columns["lam"])):  # a lam that is NaN, missing or null
        if raws[i].get("lam") is None:  # written before lam was stored: phi = lam * sqrt(m) * tau
            m, phi, tau = (columns[c][i].item() for c in ("m", "phi", "tau"))
            # m < 1 has no coupling element and fails below, naming its step
            columns["lam"][i] = phi / tau / math.sqrt(m) if tau != 0.0 and m >= 1 else 0.0
    target = None
    if "target" in doc:
        try:  # a ragged list fails in asarray
            pairs = np.asarray(doc["target"])
            if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "biuf":
                raise ValueError
        except ValueError:
            CircuitPlan(**columns)  # a bad step is named before the target
            raise ValueError("target must be a list of [re, im] number pairs") from None
        target = np.ascontiguousarray(pairs, dtype=float).view(complex)[:, 0]  # exact, signed zeros kept
    # other keys, such as an older file's schedule, are ignored: steps run in order
    return CircuitPlan(**columns, target=target, phase_model=doc.get("phase_model", "ideal"))


def _write_json(path, payload) -> None:
    """One line of JSON, written by the C encoder (``json.dump`` with ``indent`` runs the Python one)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))


def save_plan(plan: CircuitPlan, path) -> None:
    """Write ``plan_to_dict(plan)`` as single-line JSON; ``load_plan`` also reads indented files."""
    _write_json(path, plan_to_dict(plan))


def load_plan(path) -> CircuitPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_dict(json.load(fh))
