"""Run configuration: one JSON document, flags may override any field.

Override syntax is a dotted path, e.g. ``--set physical.delta=10`` or
``--set sweep.ratios=[0.02,0.1]``; values parse as JSON with a plain-string
fallback.  Every field's type is checked from its declaration.  The subcommand
is the task, so ``task`` is an unknown field.  A device with no usable coupling
(lambda = g*|Omega_L|/delta zero or not finite, 1/lambda or g^2/delta not
finite), at the configured drive or at a sweep drive r*g, is a configuration
error.  So is a ``gate.phi``, the largest angle of ``SWEEP_ANGLES`` at any
sweep drive, or that of ``validation.VALIDATION_GATES`` on any level it
samples, with a non-finite tau, theta0 or 2*eta, or a pulse-block entry
(``_block_entries``) that is not finite alone or times such a tau.  So are
a negative ``physical.delta`` and a ``space.fock_cutoff`` whose (3*cutoff)^2
complex joint matrix numpy cannot size, and a ``pair`` or ``fock`` preset
whose ``target.n`` breaks the cutoff rule, zero beta or not.  Defaults put
the model in both the adiabatic (g/delta = 0.05) and selective
(|Omega_L|/g = 0.1) regimes; they are conventions of this package.
"""

# no `from __future__ import annotations`: _build needs each field's type as a class, not a string
import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .gates import MODELS, gate_columns
from .hamiltonians import RamanParams, _require_cutoff
from .spaces import HilbertSpace, normalize
from .validation import VALIDATION_GATES, check_tolerances

MODEL_CHOICES = MODELS + ("all",)

# the interval a sweep sample's rotation angle phi is drawn from (uniform,
# upper end excluded): the sweep itself and the check of its largest gate read it
SWEEP_ANGLES = (0.15, 0.5 * math.pi)


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


@dataclass
class PhysicalConfig:
    g: float = 1.0
    omega_l: float = 0.1
    delta: float = 20.0


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
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        name = f"{path}.{key}" if path else key
        kind = types.get(key)
        if kind is None:
            raise ConfigError(f"{name}: unknown field")
        if dataclasses.is_dataclass(kind):
            value = _build(kind, value, name)
        elif kind is bool and not isinstance(value, bool):
            raise ConfigError(f"{name}: must be true or false, got {value!r}")
        elif kind is int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"{name}: must be an integer, got {value!r}")
        elif kind is float:
            _check_number(name, value)
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
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigError(f"config file {path}: {exc.strerror}") from exc
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError before it
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
        node = node.setdefault(part, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):  # the document itself may be a list from --config
        raise ConfigError(f"override path {key!r} crosses a non-object field")
    node[parts[-1]] = value
    return data


def _require_coupling(name: str, lam: float, shift: float) -> None:
    """The device rule: lambda = g*omega_l/delta nonzero, lambda, 1/lambda and g*g/delta finite."""
    if lam == 0 or not all(map(math.isfinite, (lam, 1 / lam, shift))):
        raise ConfigError(f"{name}: no usable coupling, g*omega_l/delta = {lam!r} and g*g/delta = {shift!r}")


def _block_entries(g: float, omega_l: float, delta: float, nf: int) -> dict[str, float]:
    """Bounds on the pulse-block entries at cutoff nf (``hamiltonians.*_blocks``), computed as the builders would."""
    return {"g*sqrt(fock_cutoff)": g * math.sqrt(nf), "lambda*sqrt(fock_cutoff)": g * omega_l / delta * math.sqrt(nf),
            "(g*g/delta)*fock_cutoff": g * g / delta * nf, "delta": delta, "omega_l": omega_l,
            "omega_l*omega_l/delta": omega_l * omega_l / delta}


def _require_finite_gate(name: str, phi: float, lam: float, shift: float, m: int) -> float:
    """tau of gate (m, phi) at lambda = lam and g^2/delta = shift; its ``gates.gate_columns`` must all be finite."""
    columns = gate_columns(lam, shift, m, phi)
    if not np.isfinite(columns).all():
        raise ConfigError(f"{name} gives a gate with non-finite tau, theta0 or 2*eta")
    return float(columns[0])


def _require_finite_pulses(name: str, tau: float, g: float, omega_l: float, delta: float, nf: int) -> None:
    """Each pulse-block entry times tau, a phase of the pulse's exponential, is finite."""
    for label, entry in _block_entries(g, omega_l, delta, nf).items():
        if not math.isfinite(entry * tau):
            raise ConfigError(f"{name} gives a pulse whose {label} = {entry!r} times tau = {tau!r} is not finite")


def _check_number(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name}: must be a finite number, got {value!r}")


def validate_config(cfg: RunConfig) -> None:
    if cfg.model not in MODEL_CHOICES:
        raise ConfigError(f"model: {cfg.model!r} is not one of {MODEL_CHOICES}")
    if cfg.out_dir is not None and not isinstance(cfg.out_dir, str):
        raise ConfigError(f"out_dir: must be a path string, got {cfg.out_dir!r}")
    ph = cfg.physical
    if ph.g <= 0:
        raise ConfigError(f"physical.g: must be > 0, got {ph.g}")
    if ph.omega_l < 0:
        raise ConfigError(f"physical.omega_l: must be >= 0, got {ph.omega_l}")
    if ph.delta <= 0:  # lambda = g*omega_l/delta < 0 would give gates of negative duration
        raise ConfigError(f"physical.delta: must be > 0, got {ph.delta}")
    lam, shift = ph.g * ph.omega_l / ph.delta, ph.g * ph.g / ph.delta  # as RamanParams derives them
    _require_coupling("physical", lam, shift)
    try:
        check_tolerances(cfg.tolerances)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for name, value, minimum in (
        ("space.fock_cutoff", cfg.space.fock_cutoff, 2),
        ("gate.m", cfg.gate.m, 1),
        ("sweep.samples", cfg.sweep.samples, 1),
        ("seed", cfg.seed, 0),
        ("target.n", cfg.target.n, 0),
    ):
        if value < minimum:
            raise ConfigError(f"{name}: must be >= {minimum}, got {value}")
    if cfg.space.fock_cutoff >= 2**63:  # numpy sizes it as an int64
        raise ConfigError(f"space.fock_cutoff: must lie in int64 range, got {cfg.space.fock_cutoff}")
    if (3 * cfg.space.fock_cutoff) ** 2 * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise ConfigError(f"space.fock_cutoff: the largest joint matrix, (3*fock_cutoff)^2 complex entries, "
                          f"exceeds numpy's maximum array size, got {cfg.space.fock_cutoff}")
    try:  # the guard rule (fock_cutoff >= level + 2) is hamiltonians'
        _require_cutoff(HilbertSpace(2, cfg.space.fock_cutoff), cfg.gate.m)
    except ValueError as exc:
        raise ConfigError(f"gate.m: {exc}") from exc
    if not isinstance(cfg.sweep.ratios, list) or not cfg.sweep.ratios:
        raise ConfigError("sweep.ratios: grid must be a non-empty list")
    gates = []  # (name, tau, omega_l): the sweep's largest gate at each drive, then the configured gate
    for r in cfg.sweep.ratios:
        _check_number("sweep.ratios", r)
        if r <= 0:
            raise ConfigError("sweep.ratios: all ratios must be > 0")
        lam_r = ph.g * (r * ph.g) / ph.delta  # omega_l = r*g
        _require_coupling(f"sweep.ratios (r = {r!r})", lam_r, shift)
        # tau grows with phi: the sample nearest the top of SWEEP_ANGLES has the largest gate
        name = f"sweep.ratios (r = {r!r}): phi = {SWEEP_ANGLES[1]!r}"
        gates.append((name, _require_finite_gate(name, SWEEP_ANGLES[1], lam_r, shift, cfg.gate.m), r * ph.g))
    name = f"gate.phi: {cfg.gate.phi!r}"
    gates.append((name, _require_finite_gate(name, cfg.gate.phi, lam, shift, cfg.gate.m), ph.omega_l))
    nf = cfg.space.fock_cutoff
    for label, entry in _block_entries(ph.g, ph.omega_l, ph.delta, nf).items():
        if not math.isfinite(entry):
            raise ConfigError(f"physical: the pulse generator's {label} = {entry!r} is not finite")
    for name, tau, omega_l in gates:
        _require_finite_pulses(name, tau, ph.g, omega_l, ph.delta, nf)
    # validate's closed-form check samples larger gates: tau is largest on level 1, 2*eta on the top level
    (_, phi), top_level = VALIDATION_GATES
    name = f"physical: the closed-form check's gate at phi = {phi!r}"
    taus = [_require_finite_gate(f"{name}, m = {m}", phi, lam, shift, m) for m in range(1, min(top_level, nf - 2) + 1)]
    _require_finite_pulses(name, max(taus), ph.g, ph.omega_l, ph.delta, nf)
    if cfg.target.amplitudes is not None and not isinstance(cfg.target.amplitudes, list):
        raise ConfigError(f"target.amplitudes: must be a list, got {cfg.target.amplitudes!r}")
    if cfg.target.amplitudes is None and cfg.target.preset in ("pair", "fock"):
        try:  # before target_state sizes its n + 1 amplitudes
            _require_cutoff(HilbertSpace(2, nf), cfg.target.n)
        except ValueError as exc:
            raise ConfigError(f"target: target.n = {cfg.target.n} of the {cfg.target.preset} preset; {exc}") from exc
    top = int(np.nonzero(np.abs(target_state(cfg)) > 1e-12)[0][-1])
    try:
        _require_cutoff(HilbertSpace(2, cfg.space.fock_cutoff), top)
    except ValueError as exc:
        raise ConfigError(f"target: support reaches level {top}; {exc}") from exc


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
        beta = _parse_amplitude(t.beta, "target.beta")
        if t.n > 0:
            amps[t.n] = beta
        elif beta != 0:  # alpha|0> + beta|n> has no level n of its own for beta
            raise ConfigError(f"target.n: the pair preset needs n >= 1 for a nonzero target.beta, got {t.n}")
    else:
        raise ConfigError(
            f"target.preset: {t.preset!r} is not one of ('vacuum', 'fock', 'pair') "
            "and no amplitude list was given"
        )
    unit, nrm = normalize(amps)
    if nrm == 0:
        raise ConfigError("target: amplitudes are all zero")
    return unit


def to_raman(cfg: RunConfig, omega_l: float | None = None) -> RamanParams:
    """The configured device (``PhysicalConfig`` has ``RamanParams``' fields); ``omega_l`` overrides the drive."""
    device = vars(cfg.physical)
    return RamanParams(**(device if omega_l is None else dict(device, omega_l=omega_l)))
