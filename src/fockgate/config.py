"""Run configuration: one JSON document, flags may override any field.

Override syntax is a dotted path, e.g. ``--set physical.delta=10`` or
``--set sweep.ratios=[0.02,0.1]``; values parse as JSON with a plain-string
fallback.  Defaults put the model in both the adiabatic (g/delta = 0.05) and
selective (|Omega_L|/g = 0.1) regimes; they are conventions of this package.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .gates import MODELS, model_space
from .hamiltonians import RamanParams
from .spaces import HilbertSpace
from .validation import check_tolerances

TASKS = ("gate", "synthesize", "sweep", "validate")
MODEL_CHOICES = MODELS + ("all",)


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


@dataclass
class PhysicalConfig:
    g: float = 1.0
    omega_l: float = 0.1
    delta: float = 20.0
    include_shift: bool = True


@dataclass
class SpaceConfig:
    fock_cutoff: int = 12


@dataclass
class GateConfig:
    m: int = 1
    phi: float = 0.7853981633974483  # pi/4


@dataclass
class SweepConfig:
    ratios: list[float] = field(default_factory=lambda: [0.02, 0.05, 0.1, 0.2, 0.5])
    samples: int = 8


@dataclass
class TargetConfig:
    """Oscillator target: an explicit amplitude list or a named preset."""

    amplitudes: list | None = None
    preset: str | None = "pair"
    n: int = 3
    alpha: list[float] = field(default_factory=lambda: [0.7071067811865476, 0.0])
    beta: list[float] = field(default_factory=lambda: [0.7071067811865476, 0.0])


@dataclass
class ValidateConfig:
    self_test: bool = False


@dataclass
class RunConfig:
    task: str = "gate"
    model: str = "ideal"
    seed: int = 1234
    out_dir: str | None = None
    physical: PhysicalConfig = field(default_factory=PhysicalConfig)
    space: SpaceConfig = field(default_factory=SpaceConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    target: TargetConfig = field(default_factory=TargetConfig)
    tolerances: dict = field(default_factory=dict)
    validate: ValidateConfig = field(default_factory=ValidateConfig)


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(data).__name__}")
    sections = {
        "physical": PhysicalConfig,
        "space": SpaceConfig,
        "gate": GateConfig,
        "sweep": SweepConfig,
        "target": TargetConfig,
        "validate": ValidateConfig,
    }
    kwargs = {}
    names = {f.name for f in dataclasses.fields(cls)}
    for key, value in data.items():
        if key not in names:
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown field")
        if key in sections:
            kwargs[key] = _build(sections[key], value, f"{path + '.' if path else ''}{key}")
        else:
            kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    cfg = _build(RunConfig, data, "")
    validate_config(cfg)
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    for item in overrides or []:
        data = apply_override(data, item)
    return config_from_dict(data)


def apply_override(data: dict, item: str) -> dict:
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key.path=value")
    key, raw = item.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override {item!r} has an empty key path")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {key!r} crosses a non-object field")
    node[parts[-1]] = value
    return data


def _check_number(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name}: must be a finite number, got {value!r}")


def _check_count(name: str, value: Any, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}, got {value}")


def validate_config(cfg: RunConfig) -> None:
    if cfg.task not in TASKS:
        raise ConfigError(f"task: {cfg.task!r} is not one of {TASKS}")
    if cfg.model not in MODEL_CHOICES:
        raise ConfigError(f"model: {cfg.model!r} is not one of {MODEL_CHOICES}")
    if cfg.out_dir is not None and not isinstance(cfg.out_dir, str):
        raise ConfigError(f"out_dir: must be a path string, got {cfg.out_dir!r}")
    for name in ("g", "omega_l", "delta"):
        _check_number(f"physical.{name}", getattr(cfg.physical, name))
    _check_number("gate.phi", cfg.gate.phi)
    if cfg.physical.g <= 0:
        raise ConfigError(f"physical.g: must be > 0, got {cfg.physical.g}")
    if cfg.physical.omega_l < 0:
        raise ConfigError(f"physical.omega_l: must be >= 0, got {cfg.physical.omega_l}")
    if cfg.physical.delta == 0:
        raise ConfigError("physical.delta: must be nonzero")
    for name, flag in (
        ("physical.include_shift", cfg.physical.include_shift),
        ("validate.self_test", cfg.validate.self_test),
    ):
        if not isinstance(flag, bool):
            raise ConfigError(f"{name}: must be true or false, got {flag!r}")
    try:
        check_tolerances(cfg.tolerances)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_count("space.fock_cutoff", cfg.space.fock_cutoff, 2)
    _check_count("gate.m", cfg.gate.m, 1)
    if cfg.gate.m + 2 > cfg.space.fock_cutoff:
        raise ConfigError(
            f"gate.m: level {cfg.gate.m} needs fock_cutoff >= {cfg.gate.m + 2} "
            f"(guard level), got {cfg.space.fock_cutoff}"
        )
    if not isinstance(cfg.sweep.ratios, list) or not cfg.sweep.ratios:
        raise ConfigError("sweep.ratios: grid must be a non-empty list")
    for r in cfg.sweep.ratios:
        _check_number("sweep.ratios", r)
        if r <= 0:
            raise ConfigError("sweep.ratios: all ratios must be > 0")
    _check_count("sweep.samples", cfg.sweep.samples, 1)
    _check_count("seed", cfg.seed, 0)
    _check_count("target.n", cfg.target.n, 0)
    if cfg.target.amplitudes is not None and not isinstance(cfg.target.amplitudes, list):
        raise ConfigError(f"target.amplitudes: must be a list, got {cfg.target.amplitudes!r}")
    top = int(np.nonzero(np.abs(target_state(cfg)) > 1e-12)[0][-1])
    if top + 2 > cfg.space.fock_cutoff:
        raise ConfigError(
            f"target: support reaches level {top} but fock_cutoff "
            f"{cfg.space.fock_cutoff} requires support <= {cfg.space.fock_cutoff - 3} "
            "(guard level)"
        )


def _parse_amplitude(value: Any, where: str) -> complex:
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value, 0.0]
    if not all(isinstance(part, (int, float)) for part in parts):
        raise ConfigError(f"{where}: amplitudes must be numbers or [re, im] pairs")
    for part in parts:
        _check_number(where, part)
    return complex(float(parts[0]), float(parts[1]))


def target_state(cfg: RunConfig) -> np.ndarray:
    """Normalized oscillator target amplitudes from the target block."""
    t = cfg.target
    if t.amplitudes is not None:
        amps = np.array(
            [_parse_amplitude(v, "target.amplitudes") for v in t.amplitudes], dtype=complex
        )
    elif t.preset == "vacuum":
        amps = np.array([1.0], dtype=complex)
    elif t.preset == "fock":
        amps = np.zeros(t.n + 1, dtype=complex)
        amps[t.n] = 1.0
    elif t.preset == "pair":
        amps = np.zeros(t.n + 1, dtype=complex)
        amps[0] = _parse_amplitude(t.alpha, "target.alpha")
        amps[t.n] = _parse_amplitude(t.beta, "target.beta")
    else:
        raise ConfigError(
            f"target.preset: {t.preset!r} is not one of ('vacuum', 'fock', 'pair') "
            "and no amplitude list was given"
        )
    nrm = np.linalg.norm(amps)
    if nrm == 0:
        raise ConfigError("target: amplitudes are all zero")
    if not math.isfinite(nrm):
        raise ConfigError("target: amplitudes too large to normalize")
    return amps / nrm


def to_raman(cfg: RunConfig, omega_l: float | None = None) -> RamanParams:
    ph = cfg.physical
    return RamanParams(
        g=ph.g,
        omega_l=ph.omega_l if omega_l is None else omega_l,
        delta=ph.delta,
        include_shift=ph.include_shift,
    )


def to_space(cfg: RunConfig, model: str) -> HilbertSpace:
    """Working space of one model (``gates.model_space``) at the configured cutoff."""
    return model_space(model, cfg.space.fock_cutoff)
