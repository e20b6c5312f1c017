"""The four benchmark workloads: seeded inputs, one timed op, an oracle check.

Each workload builds its shared inputs through the library at construction
(part of set-up), draws one op's inputs at a time from a seeded generator
(outside the timed region), runs one op through fockgate's public API (the
timed region) and checks the op's output against ``oracle`` (outside the
timed region).  ``check`` returns deviations keyed by ``oracle.TOL`` names.

Op kinds are drawn in balanced cycles: every cycle runs each kind once, in a
seeded order unless the workload fixes it, so every seed times the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re

import numpy as np

from fockgate import cli, gates, synthesis
from fockgate.hamiltonians import RamanParams
from fockgate.spaces import HilbertSpace

import oracle
from oracle import EXACT

MODELS = ("ideal", "effective", "full")

# The CLI defaults (g = 1, |Omega_L| = 0.1, delta = 20), shared by every workload.
G, OMEGA_L, DELTA = 1.0, 0.1, 20.0


def _phase_model(model: str) -> str:
    return "ideal" if model == "ideal" else "effective"


def _atom_dim(model: str) -> int:
    return 3 if model == "full" else 2


def _random_state(rng: np.random.Generator, top: int) -> np.ndarray:
    z = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
    return z / np.linalg.norm(z)


def _flag(ok: bool) -> float:
    return 0.0 if ok else 1.0


def _ledger_deviation(plan, target: np.ndarray) -> float:
    """Distance of the plan's own phase bookkeeping from the target, by ``oracle``."""
    steps = [(s.gate.m, s.gate.tau, s.phase_correction) for s in plan.steps]
    osc = oracle.ladder_ledger(steps, plan.phase_model, len(target), G, OMEGA_L, DELTA)
    return oracle.ledger_deviation(osc, target)


class Workload:
    name = ""
    shuffle = True
    kinds: list = []
    warmup_kinds: list = []

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.params = RamanParams(g=G, omega_l=OMEGA_L, delta=DELTA)

    def make_input(self, rng: np.random.Generator, kind):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> dict[str, float]:
        raise NotImplementedError


class GateLarge(Workload):
    """One ``gates.pair_gate`` at fock_cutoff nf (64: dense eigh on 128 and 192 dims)."""

    name = "gate_large"
    EXPM_SHARE = 0.25
    kinds = list(MODELS)
    warmup_kinds = list(MODELS)

    def __init__(self, workdir: str, nf: int = 64):
        super().__init__(workdir)
        self.nf = nf
        self.spaces = {m: HilbertSpace(_atom_dim(m), nf) for m in MODELS}

    def make_input(self, rng, model):
        m = int(rng.integers(1, self.nf - 1))
        phi = float(rng.uniform(0.05, 0.5 * math.pi))
        chi = float(rng.uniform(0.0, 2.0 * math.pi))
        gp = gates.GateParams.from_raman(self.params, m=m, phi=phi)
        with_expm = model != "ideal" and bool(rng.random() < self.EXPM_SHARE)
        return model, gp, chi, with_expm

    def op(self, inp):
        model, gp, chi, _ = inp
        return gates.pair_gate(gp, self.params, self.spaces[model], model, chi)

    def check(self, inp, U):
        model, gp, chi, with_expm = inp
        nf = self.nf
        dev = {"unitarity": float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))}
        if model == "ideal":
            expect = np.eye(nf, dtype=complex)
            expect[gp.m - 1 : gp.m + 1, gp.m - 1 : gp.m + 1] = oracle.closed_form_pair(
                gp.phi, gp.theta0, gp.eta, chi
            )
            dev["ideal_closed_form"] = float(np.max(np.abs(oracle.induced_plus(U, 2, nf) - expect)))
        if with_expm:
            ref = oracle.gate_expm(model, nf, G, OMEGA_L, DELTA, gp.m, gp.tau, gp.theta0, chi)
            dev[f"gate_expm_{model}"] = float(np.max(np.abs(U - ref)))
        return dev


class LadderExec(Workload):
    """Compile a seeded target and run ``execute_plan`` from the vacuum at cutoff n+4."""

    name = "ladder_exec"
    TOPS = (8, 16, 24)
    kinds = [(n, model, target) for n in TOPS for model in MODELS for target in ("random", "pair")]
    warmup_kinds = [kind for kind in kinds if kind[0] == 8]

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.spaces = {
            (n, m): HilbertSpace(_atom_dim(m), n + 4) for n in self.TOPS for m in MODELS
        }
        self.vacuum = {n: np.eye(n + 4, dtype=complex)[0] for n in self.TOPS}

    def make_input(self, rng, kind):
        n, model, target = kind
        if target == "random":
            return n, model, _random_state(rng, n), False
        state = np.zeros(n + 1, dtype=complex)
        state[0] = state[n] = 1.0 / math.sqrt(2.0)
        return n, model, state, True

    def op(self, inp):
        n, model, target, pair = inp
        pm = _phase_model(model)
        if pair:
            plan = synthesis.plan_superposition(target[0], target[n], n, self.params, pm)
        else:
            plan = synthesis.plan_general_state(target, self.params, pm)
        _, report = synthesis.execute_plan(
            plan, self.vacuum[n], model, self.params, self.spaces[(n, model)]
        )
        return plan, report

    def check(self, inp, out):
        n, model, target, _ = inp
        plan, report = out
        dev = {EXACT: _flag(len(plan) == n), "plan_ledger": _ledger_deviation(plan, target)}
        if model == "ideal":
            dev["ladder_ideal_fidelity"] = abs(1.0 - report.fidelity)
        steps = [(s.gate.m, s.gate.tau, s.gate.theta0, s.phase_correction) for s in plan.steps]
        fid, leak, guard = oracle.ladder_expm(steps, model, n + 4, G, OMEGA_L, DELTA, target)
        dev[f"ladder_expm_{model}"] = max(
            abs(fid - report.fidelity),
            abs(leak - report.leakage),
            abs(guard - report.guard_population),
        )
        return dev


class PlanCompile(Workload):
    """Compile a seeded target with top level 50..200, then save_plan and load_plan.

    Only the effective phase model is compiled: its ledger books spectator
    phases, the ideal one books zeros at nearly the same cost.  One model per
    size keeps each size's latencies in one group, so the median and the 90th
    percentile fall inside a group rather than on the edge between two.
    """

    name = "plan_compile"
    PHASE_MODEL = "effective"
    kinds = [50, 100, 200]
    warmup_kinds = [50]

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.path = os.path.join(workdir, "plan.json")

    def make_input(self, rng, n):
        return n, _random_state(rng, n)

    def op(self, inp):
        plan = synthesis.plan_general_state(inp[1], self.params, self.PHASE_MODEL)
        synthesis.save_plan(plan, self.path)
        return plan, synthesis.load_plan(self.path)

    def check(self, inp, out):
        n, target = inp
        plan, loaded = out
        same = (
            len(plan) == n
            and len(loaded) == len(plan)
            and loaded.phase_model == plan.phase_model == self.PHASE_MODEL
            and loaded.schedule == plan.schedule
            and np.array_equal(loaded.target, target)
        )
        lam_rel = 0.0
        for a, b in zip(plan.steps, loaded.steps):
            ga, gb = a.gate, b.gate
            same = same and a.phase_correction == b.phase_correction and (
                (ga.m, ga.k, ga.phi, ga.theta0, ga.tau, ga.eta)
                == (gb.m, gb.k, gb.phi, gb.theta0, gb.tau, gb.eta)
            )
            lam_rel = max(lam_rel, abs(gb.lam - ga.lam) / abs(ga.lam))
        return {EXACT: _flag(same), "plan_lam_rel": lam_rel,
                "plan_ledger": _ledger_deviation(plan, target)}


class CliDefault(Workload):
    """In-process ``fockgate.cli.main`` calls over a fixed cycle at the default cutoff."""

    name = "cli_default"
    shuffle = False
    kinds = ["gate", "sweep", "synthesize_pair", "synthesize_amplitudes", "validate"]
    warmup_kinds = kinds
    SWEEP_ROWS = 3 * 5  # three models times the default ratio grid
    SYNTH_LINE = re.compile(r"^synthesize model=(\w+): steps=(\d+) fidelity=(\S+)")

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.out_dir = os.path.join(workdir, "cli_out")

    def make_input(self, rng, kind):
        seed = str(int(rng.integers(0, 2**31)))
        if kind == "gate":
            return kind, ["gate", "--model", "all"], None
        if kind == "sweep":
            return kind, ["sweep", "--model", "all", "--seed", seed], None
        if kind == "synthesize_pair":
            return kind, ["synthesize", "--model", "all", "--out", self.out_dir], 3
        if kind == "synthesize_amplitudes":
            top = int(rng.integers(2, 10))  # default cutoff 12 keeps support <= 9
            amps = [[float(c.real), float(c.imag)] for c in _random_state(rng, top)]
            return kind, ["synthesize", "--set", f"target.amplitudes={json.dumps(amps)}"], top
        return kind, ["validate", "--seed", seed], None

    def op(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(inp[1])
        return code, buf.getvalue()

    def check(self, inp, out):
        kind, _, top = inp
        code, text = out
        lines = text.splitlines()
        ok = code == 0
        ideal = []
        if kind == "gate":
            ok = ok and len(lines) == 3
            for line in lines:
                if " model=ideal:" in line:
                    ideal.append(float(line.split("closed-form fidelity=")[1].split()[0]))
        elif kind == "sweep":
            ok = ok and len(lines) == 1 + self.SWEEP_ROWS
            for row in lines[1:]:
                fields = row.split(",")
                if fields[1] == "ideal":
                    ideal.append(float(fields[2]))
        elif kind.startswith("synthesize"):
            found = [self.SYNTH_LINE.match(line) for line in lines]
            found = [m for m in found if m]
            ok = ok and len(found) == (3 if kind == "synthesize_pair" else 1)
            for m in found:
                ok = ok and int(m.group(2)) == top
                if m.group(1) == "ideal":
                    ideal.append(float(m.group(3)))
        else:
            ok = ok and bool(re.fullmatch(r"all \d+ checks passed", lines[-1] if lines else ""))
        ok = ok and (kind == "validate" or bool(ideal))
        return {
            EXACT: _flag(ok),
            "cli_ideal_fidelity": max((abs(1.0 - f) for f in ideal), default=0.0),
        }


WORKLOADS = {w.name: w for w in (GateLarge, LadderExec, PlanCompile, CliDefault)}
