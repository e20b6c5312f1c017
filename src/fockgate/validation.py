"""Numerical identity checks behind the `validate` command.

Each check measures a defect (a max-norm deviation or an infidelity) and
compares it against a bound.  Bounds are overridable so that a deliberately
unattainable tolerance demonstrates the reporting path, and a self-test mode
corrupts the dispersive phase to prove the closed-form equivalence check has
teeth.  That check runs its sampled gates through ``gates.closed_form_samples``,
as the sweep does; only the corrupted reference is built again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .gates import (
    GateParams,
    atom_minus,
    atom_plus,
    closed_form_samples,
    closed_form_states,
    combined_echo_coupling,
    echo_factors,
    pair_gate,
    spin_flip,
)
from .hamiltonians import (
    RamanParams,
    decompose_effective,
    effective_hamiltonian,
    full_hamiltonian,
    selective_hamiltonian,
)
from .propagator import Propagator
from .spaces import (
    HilbertSpace,
    annihilation,
    creation,
    fidelity,
    hermiticity_defect,
    max_abs,
    product_state,
    purity,
    reduced_oscillator_state,
    tensor,
)

# the closed-form check's gates: phi uniform in the interval (upper end excluded) on
# levels 1..min(top, fock_cutoff - 2); run_validation and the config rules read it
VALIDATION_GATES = ((0.0, 2.0 * math.pi), 5)

DEFAULT_TOLERANCES = {
    "algebraic": 1e-12,
    "propagation": 1e-10,
    "closed_form_infidelity": 1e-9,
    "purity_deficit": 1e-9,
}


def check_tolerances(tolerances: dict | None) -> dict:
    """DEFAULT_TOLERANCES updated by ``tolerances``.

    Raises ValueError for an unknown key or a bound that is not a finite
    number > 0.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances is None:
        return tol
    if not isinstance(tolerances, dict):
        raise ValueError(f"tolerances: expected an object, got {tolerances!r}")
    for key, bound in tolerances.items():
        if key not in DEFAULT_TOLERANCES:
            raise ValueError(f"tolerances.{key}: unknown field")
        number = isinstance(bound, numbers.Real) and not isinstance(bound, bool)
        if not number or not math.isfinite(bound) or bound <= 0:
            raise ValueError(f"tolerances.{key}: must be a finite number > 0, got {bound!r}")
        tol[key] = float(bound)
    return tol


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.value < self.bound

    def describe(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: measured {self.value:.3e}, bound {self.bound:.1e}"


def run_validation(
    p: RamanParams,
    space: HilbertSpace,
    m: int,
    tolerances: dict | None = None,
    corrupt_theta0: bool = False,
    seed: int = 0,
) -> list[CheckResult]:
    """Run the identity suite for a two-level space at level m; one result per check."""
    tol = check_tolerances(tolerances)
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    algebraic = tol["algebraic"]
    propagation = tol["propagation"]

    nf = space.fock_cutoff
    a, ad = annihilation(nf), creation(nf)

    num = ad @ a
    results.append(
        CheckResult("ladder number operator", max_abs(num - np.diag(np.arange(nf))), algebraic)
    )
    comm = (a @ ad - ad @ a)[: nf - 1, : nf - 1] - np.eye(nf - 1)
    results.append(CheckResult("ladder commutator below guard level", max_abs(comm), algebraic))

    h_eff = effective_hamiltonian(p, space, m)
    results.append(CheckResult("effective model hermiticity", hermiticity_defect(h_eff), algebraic))
    space3 = HilbertSpace(3, nf)
    results.append(
        CheckResult(
            "three-level model hermiticity",
            hermiticity_defect(full_hamiltonian(p, space3, m)),
            algebraic,
        )
    )

    parts = decompose_effective(p, space, m)
    sel = selective_hamiltonian(p, space, m)
    scale = max_abs(sel)  # relative to the largest entry, so that the check holds in any units
    residual = max_abs(parts.dispersive + parts.pair_energy + parts.pair_coupling - sel)
    results.append(
        CheckResult("decomposition reproduces selective model", residual / scale if scale else residual, algebraic)
    )

    results.append(
        CheckResult(
            "pair terms commute",
            max_abs(parts.pair_energy @ parts.pair_coupling - parts.pair_coupling @ parts.pair_energy),
            algebraic,
        )
    )
    gp = GateParams.from_raman(p, m=m, phi=0.7)
    factors = echo_factors(gp, p, space)
    results.append(
        CheckResult(
            "coupling commutes with flipped coupling",
            max_abs(
                parts.pair_coupling @ factors.flipped_coupling
                - factors.flipped_coupling @ parts.pair_coupling
            ),
            algebraic,
        )
    )

    pulse = parts.pair_energy + parts.pair_coupling
    flip = tensor(spin_flip(2), np.eye(nf))
    lhs = flip @ Propagator(pulse).unitary(gp.tau) @ flip
    rhs = Propagator(factors.flipped_pulse).unitary(gp.tau)
    results.append(CheckResult("spin-echo conjugation identity", max_abs(lhs - rhs), propagation))

    coupling_at_theta0 = decompose_effective(p, space, gp.m, gp.theta0).pair_coupling
    combined = (coupling_at_theta0 + flip @ coupling_at_theta0 @ flip) * gp.tau
    results.append(
        CheckResult(
            "combined echo coupling projector form",
            max_abs(combined - combined_echo_coupling(gp, space, gp.theta0)),
            propagation,
        )
    )

    # closed-form equivalence on sampled gates (per gate: level, phi, four normals), all in one
    # closed_form_samples call; the self-test corrupts the reference only
    draws = [(rng.integers(1, min(VALIDATION_GATES[1], nf - 2) + 1), rng.uniform(*VALIDATION_GATES[0]),
              rng.normal(size=4)) for _ in range(24)]
    levels, phis, z = (np.array(column) for column in zip(*draws))
    alpha, beta = (z / np.linalg.norm(z, axis=1, keepdims=True)).view(complex).T  # z0 + i z1, z2 + i z3
    psis, expected, _, theta0 = closed_form_samples([p], space, ("ideal",), levels, phis, alpha, beta)
    if corrupt_theta0:
        _, expected = closed_form_states(space, levels, phis, -theta0, alpha, beta)
    fids = fidelity(expected, psis, space)
    worst = max(0.0, float(np.max(1.0 - fids)))
    results.append(
        CheckResult("closed-form rotation infidelity", worst, tol["closed_form_infidelity"])
    )

    gates = {model: pair_gate(gp, p, sp, model=model)
             for model, sp in (("ideal", space), ("effective", space), ("full", space3))}
    worst_unit = max(max_abs(U.conj().T @ U - np.eye(len(U))) for U in gates.values())
    results.append(CheckResult("gate unitarity across models", worst_unit, propagation))

    worst_purity = 0.0
    for atom in (atom_plus(2), atom_minus(2)):
        osc = np.zeros(nf, dtype=complex)
        osc[gp.m - 1], osc[gp.m] = 0.6, 0.8
        out = gates["ideal"] @ product_state(space, atom, osc)
        worst_purity = max(worst_purity, 1.0 - purity(reduced_oscillator_state(out, space)))
    results.append(
        CheckResult("disentanglement purity deficit", worst_purity, tol["purity_deficit"])
    )

    return results
