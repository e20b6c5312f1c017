"""Command-line front end: gate validation, selectivity sweeps, state synthesis.

Subcommands: ``gate``, ``sweep``, ``synthesize``, ``validate``.  Machine
output is CSV for tables and JSON for single reports; stdout carries a human
summary.  Exit codes: 0 success, 1 a validation/identity check failed,
2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .config import (
    MODEL_CHOICES,
    SWEEP_ANGLES,
    ConfigError,
    RunConfig,
    config_to_dict,
    load_config,
    target_state,
    to_raman,
)
from .gates import MODELS, GateParams, closed_form_samples, closed_form_states, leakage, model_space, pair_gate
from .spaces import product_state  # noqa: F401  unused; bench/spans.py wraps it here
from .spaces import fidelity, fock_populations, purity, reduced_oscillator_state
from .synthesis import _write_json, execute_plan, plan_general_state, save_plan
from .synthesis import plan_superposition  # noqa: F401  unused; bench/spans.py wraps it here
from .validation import run_validation

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _models(cfg: RunConfig) -> list[str]:
    return list(MODELS) if cfg.model == "all" else [cfg.model]


def _out_dir(cfg: RunConfig) -> Path | None:
    """The ``--out`` directory, which ``main`` has created, or None."""
    return None if cfg.out_dir is None else Path(cfg.out_dir)


def _write_report(cfg: RunConfig, name: str, payload) -> None:
    """Write ``payload`` as JSON to ``name`` in the ``--out`` directory, if there is one."""
    out = _out_dir(cfg)
    if out is not None:
        _write_json(out / name, payload)
        print(f"wrote {out / name}")


def _gate_record(cfg: RunConfig, model: str, config: dict) -> dict:
    start = time.perf_counter()
    p = to_raman(cfg)
    space = model_space(model, cfg.space.fock_cutoff)
    gp = GateParams.from_raman(p, m=cfg.gate.m, phi=cfg.gate.phi)
    amp = 1.0 / np.sqrt(2.0)
    prepared, expected = closed_form_states(space, gp.m, gp.phi, gp.theta0, amp, amp)
    psi = pair_gate(gp, p, space, model=model) @ prepared
    rho = reduced_oscillator_state(psi, space)
    return {
        "task": "gate",
        "model": model,
        "fidelity": min(1.0, fidelity(expected, psi, space)),
        "leakage": leakage(psi, gp.m, space),
        "guard_population": float(fock_populations(psi, space)[space.guard_level]),
        "purity": purity(rho),
        "duration_s": time.perf_counter() - start,
        "config": config,
        "extra": {"m": gp.m, "phi": gp.phi, "theta0": gp.theta0, "tau": gp.tau},
    }


def cmd_gate(cfg: RunConfig) -> int:
    config = config_to_dict(cfg)
    rows = [_gate_record(cfg, model, config) for model in _models(cfg)]
    for row in rows:
        print(
            f"gate m={row['extra']['m']} model={row['model']}: "
            f"closed-form fidelity={row['fidelity']:.12f} leakage={row['leakage']:.3e} "
            f"purity={row['purity']:.12f} guard={row['guard_population']:.3e}"
        )
    _write_report(cfg, "gate_report.json", rows)
    return EXIT_OK


def _sweep_rows(cfg: RunConfig) -> list[dict]:
    """One row per model and drive ratio: mean closed-form fidelity, leakage and gate time over the samples.

    Common random numbers: every grid point of every model sees the same sampled angles and pair
    amplitudes (per sample, phi then four normals), so trends are paired comparisons.  Draws and
    devices are made once; one ``closed_form_samples`` call per block layout runs its models' grid.
    """
    rng = np.random.default_rng(cfg.seed)
    draws = np.array([[rng.uniform(*SWEEP_ANGLES), *rng.normal(size=4)] for _ in range(cfg.sweep.samples)])
    phi, z = draws[:, 0], draws[:, 1:]
    alpha, beta = (z / np.linalg.norm(z, axis=1, keepdims=True)).view(complex).T  # z0 + i z1, z2 + i z3
    with warnings.catch_warnings():  # large ratios trip the selectivity warning, by design of the scan
        warnings.filterwarnings("ignore", "selectivity ratio ", UserWarning)
        devices = [to_raman(cfg, omega_l=ratio * cfg.physical.g) for ratio in cfg.sweep.ratios]
    m, layouts, rows = cfg.gate.m, {}, []
    for model in _models(cfg):  # the models of one space share its block layout
        layouts.setdefault(model_space(model, cfg.space.fock_cutoff), []).append(model)
    for space, models in layouts.items():
        outputs, expected, tau, _ = closed_form_samples(devices, space, models, m, phi, alpha, beta)
        for model, psis in zip(models, outputs):  # (ratios, samples, dim), scored alone: summed as in a one-model run
            fids, leaks = fidelity(expected, psis, space).mean(axis=1), leakage(psis, m, space).mean(axis=1)
            rows += [{"r": r, "model": model, "fidelity": float(f), "leakage": float(x), "gate_time": float(t)}
                     for r, f, x, t in zip(cfg.sweep.ratios, fids, leaks, tau.mean(axis=1))]
    return rows


def cmd_sweep(cfg: RunConfig) -> int:
    header = ["r", "model", "fidelity", "leakage", "gate_time"]
    table = [[row[key] if key == "model" else _fmt(row[key]) for key in header] for row in _sweep_rows(cfg)]
    for cells in [header] + table:
        print(",".join(cells))
    out = _out_dir(cfg)
    if out is not None:
        path = out / "sweep.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + table)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_synthesize(cfg: RunConfig) -> int:
    target = target_state(cfg)
    config = config_to_dict(cfg)
    rows = {}
    out = _out_dir(cfg)
    for model in _models(cfg):
        start = time.perf_counter()
        phase_model = "effective" if model in ("effective", "full") else "ideal"
        p = to_raman(cfg)
        plan = plan_general_state(target, p, phase_model=phase_model)
        _, report = execute_plan(plan, np.array([1.0]), model, p, model_space(model, cfg.space.fock_cutoff))
        row = rows[model] = {
            "task": "synthesize",
            "model": model,
            "fidelity": min(1.0, report.fidelity),
            "leakage": report.leakage,
            "guard_population": report.guard_population,
            "purity": min(report.step_purities, default=1.0),
            "duration_s": time.perf_counter() - start,
            "config": config,
            "extra": {"steps": len(plan), "phase_model": phase_model, "step_purities": report.step_purities},
        }
        print(
            f"synthesize model={model}: steps={len(plan)} "
            f"fidelity={row['fidelity']:.12f} leakage={row['leakage']:.3e} "
            f"guard={row['guard_population']:.3e}"
        )
        if out is not None:
            save_plan(plan, out / f"plan_{model}.json")
    _write_report(cfg, "synth_report.json", rows)
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    p = to_raman(cfg)
    space = model_space("ideal", cfg.space.fock_cutoff)
    self_test = cfg.validate.self_test
    results = run_validation(
        p, space, cfg.gate.m, tolerances=cfg.tolerances, corrupt_theta0=self_test, seed=cfg.seed
    )
    for res in results:
        print(res.describe())
    _write_report(cfg, "validate_report.json", [dict(vars(r), passed=r.passed) for r in results])
    if self_test:
        corrupted = next(r for r in results if r.name == "closed-form rotation infidelity")
        if corrupted.passed:
            print("self-test FAILED: corrupted dispersive phase went undetected")
            return EXIT_CHECK_FAILED
        print("self-test ok: corrupted dispersive phase was flagged by the closed-form check")
        return EXIT_OK
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return EXIT_CHECK_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``main`` only parses with it.

    The subcommand is the task: ``main`` runs ``cmd_<subcommand>``, looked up when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="fockgate",
        description="Selective pair gates on a harmonic oscillator: validate, sweep, synthesize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gate", "build one pair gate and report closed-form fidelity, purity, leakage"),
        ("sweep", "scan the drive ratio |Omega_L|/g and tabulate fidelity and leakage"),
        ("synthesize", "compile a target oscillator state into a gate plan and run it"),
        ("validate", "run the algebraic and propagation identity checks"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a JSON configuration document")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY.PATH=VALUE",
            help="override any config field (repeatable)",
        )
        cmd.add_argument("--out", help="directory for machine-readable outputs")
        cmd.add_argument("--seed", type=int, help="random seed for sampled checks")
        cmd.add_argument(
            "--model",
            choices=MODEL_CHOICES,
            help="dynamics model to run",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # flags come after --set, so they win; JSON-encoded, "--out 5" names a directory, not the number 5
    flags = {"model": args.model, "seed": args.seed, "out_dir": args.out}
    overrides = args.overrides + [f"{key}={json.dumps(value)}" for key, value in flags.items() if value is not None]
    try:
        cfg = load_config(args.config, overrides)
        if cfg.out_dir is not None:
            try:
                Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"out_dir: {exc}") from exc
        return globals()[f"cmd_{args.command}"](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
