import collections
import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockgate import cli, gates, validation
from fockgate.cli import _sweep_rows, main
from fockgate.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    target_state,
)
from fockgate.gates import GateParams, closed_form_states, leakage, model_space, pair_gate
from fockgate.hamiltonians import RamanParams
from fockgate.config import to_raman
from fockgate.spaces import HilbertSpace, fidelity
from fockgate.validation import VALIDATION_GATES, run_validation


# ---- configuration ----------------------------------------------------------


def test_defaults_are_valid():
    cfg = load_config(None, [])
    assert cfg.physical.g == 1.0
    assert cfg.physical.delta == 20.0
    assert cfg.space.fock_cutoff == 12


def test_round_trip_idempotent(tmp_path):
    cfg = load_config(None, ["physical.delta=17.5", "gate.m=3", "sweep.samples=4"])
    doc = config_to_dict(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg2 = load_config(str(path), [])
    assert config_to_dict(cfg2) == doc
    cfg3 = config_from_dict(json.loads(json.dumps(config_to_dict(cfg2))))
    assert config_to_dict(cfg3) == doc


def test_override_paths_and_json_values():
    cfg = load_config(
        None,
        [
            "physical.omega_l=0.05",
            "sweep.ratios=[0.1, 0.2]",
            "validate.self_test=true",
            "target.preset=fock",
        ],
    )
    assert cfg.physical.omega_l == 0.05
    assert cfg.sweep.ratios == [0.1, 0.2]
    assert cfg.validate.self_test is True
    assert cfg.target.preset == "fock"


def test_bad_override_rejected():
    with pytest.raises(ConfigError, match="key.path"):
        load_config(None, ["justakey"])
    with pytest.raises(ConfigError, match="unknown field"):
        load_config(None, ["nonsense.field=3"])


def test_validation_names_offending_field():
    with pytest.raises(ConfigError, match="physical.delta"):
        load_config(None, ["physical.delta=0"])
    with pytest.raises(ConfigError, match="gate.m"):
        load_config(None, ["gate.m=0"])
    with pytest.raises(ConfigError, match="sweep.ratios"):
        load_config(None, ["sweep.ratios=[]"])


def test_cutoff_guard_rule():
    with pytest.raises(ConfigError, match="fock_cutoff"):
        load_config(None, ["gate.m=11"])


def test_target_presets():
    cfg = load_config(None, ["target.preset=fock", "target.n=4"])
    amps = target_state(cfg)
    assert amps[4] == pytest.approx(1.0)
    cfg = load_config(None, ["target.preset=pair", "target.n=2"])
    amps = target_state(cfg)
    assert abs(amps[0]) == pytest.approx(1 / np.sqrt(2))
    assert abs(amps[2]) == pytest.approx(1 / np.sqrt(2))
    # at n = 0 a zero beta leaves alpha|0>
    assert target_state(load_config(None, ["target.n=0", "target.beta=0"])) == pytest.approx([1.0])


def test_target_amplitude_list():
    cfg = load_config(None, ['target.amplitudes=[[0.6,0],[0,0],[0,0.8]]'])
    amps = target_state(cfg)
    assert amps[0] == pytest.approx(0.6)
    assert amps[2] == pytest.approx(0.8j)


def test_target_state_normalises_any_finite_nonzero_list(capsys):
    # the amplitudes are scaled by a power of two before the norm: no overflow, no RuntimeWarning, and a
    # subnormal list is not all zero; huge amplitudes synthesize as their plain counterparts do
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for huge, plain in (("[1e308,1e308]", "[1,1]"), ("[1e200,[0,1e200]]", "[1,[0,1]]"), ("[1e-320]", "[1]")):
            amps = [target_state(load_config(None, [f"target.amplitudes={a}"])) for a in (huge, plain)]
            np.testing.assert_allclose(amps[0], amps[1], rtol=1e-15)
            printed = []
            for amplitudes in (huge, plain):
                assert main(["synthesize", "--set", f"target.amplitudes={amplitudes}"]) == 0
                printed.append(capsys.readouterr().out)
            assert printed[0] == printed[1]
        pair = target_state(load_config(None, ["target.alpha=[1e308,0]"]))
        assert pair[0] == 1.0 and 0.0 < pair[3].real < 1e-307


def test_target_support_guard(capsys):
    # support may reach cutoff - 2; the guard level itself stays reserved
    load_config(None, ["target.preset=fock", "target.n=10"])
    with pytest.raises(ConfigError, match=r"^target: .*fock_cutoff 12 .*m \+ 2 = 13 \(guard level\)"):
        load_config(None, ["target.preset=fock", "target.n=11"])
    assert main(["synthesize", "--set", "target.preset=fock", "--set", "target.n=10"]) == 0
    assert main(["synthesize", "--set", "target.preset=fock", "--set", "target.n=11"]) == 2
    assert "= 13 (guard level)" in capsys.readouterr().err


# ---- CLI ---------------------------------------------------------------------


def test_gate_command_writes_report(tmp_path, capsys):
    rc = main(["gate", "--out", str(tmp_path), "--model", "ideal"])
    assert rc == 0
    report = json.loads((tmp_path / "gate_report.json").read_text())
    assert len(report) == 1
    assert report[0]["fidelity"] > 1 - 1e-9
    assert report[0]["leakage"] < 1e-20
    assert "closed-form fidelity" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["gate", "sweep", "synthesize", "validate"])
@pytest.mark.parametrize("flag", ["--out", "--set out_dir="])
def test_out_naming_a_file_is_config_error(command, flag, tmp_path, capsys):
    taken = tmp_path / "report"
    taken.write_text("not a directory")
    for path in (taken, taken / "sub"):
        out = ["--out", str(path)] if flag == "--out" else ["--set", f"out_dir={path}"]
        assert main([command, *out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: out_dir: ")
        assert captured.out == ""  # the handler never ran
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("command, report", [("gate", "gate_report.json"), ("synthesize", "synth_report.json")])
def test_report_rows_share_one_config_copy(command, report, tmp_path, monkeypatch):
    copies = []

    def counted_copy(cfg):
        copies.append(config_to_dict(cfg))
        return copies[-1]

    monkeypatch.setattr(cli, "config_to_dict", counted_copy)
    assert main([command, "--model", "all", "--out", str(tmp_path)]) == 0
    assert len(copies) == 1
    rows = json.loads((tmp_path / report).read_text())
    rows = rows if command == "gate" else list(rows.values())
    assert [row["model"] for row in rows] == ["ideal", "effective", "full"]
    for row in rows:
        assert list(row) == [
            "task", "model", "fidelity", "leakage", "guard_population", "purity", "duration_s", "config", "extra"
        ]
        assert (row["task"], row["config"]) == (command, copies[0])


def test_out_flag_is_a_directory_name(tmp_path, monkeypatch):
    # "--out 5" names the directory 5, not the JSON number 5
    monkeypatch.chdir(tmp_path)
    assert main(["gate", "--out", "5"]) == 0
    assert (tmp_path / "5" / "gate_report.json").exists()


def test_gate_command_all_models(tmp_path):
    rc = main(["gate", "--out", str(tmp_path), "--model", "all"])
    assert rc == 0
    report = json.loads((tmp_path / "gate_report.json").read_text())
    assert [r["model"] for r in report] == ["ideal", "effective", "full"]
    for r in report:
        assert 0.0 <= r["fidelity"] <= 1.0 + 1e-9


def test_gate_command_config_error(capsys):
    rc = main(["gate", "--set", "gate.m=11"])
    assert rc == 2
    assert "gate.m" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["gate", "--set", "physical.g=NaN"], "physical.g"),
        (["gate", "--set", "physical.omega_l=Infinity"], "physical.omega_l"),
        (["gate", "--set", "physical.delta=NaN"], "physical.delta"),
        (["gate", "--set", "gate.phi=NaN"], "gate.phi"),
        (["sweep", "--set", "sweep.ratios=[NaN]"], "sweep.ratios"),
        (["synthesize", "--set", "target.amplitudes=[[NaN,0],[1,0]]"], "target.amplitudes"),
        (["gate", "--set", "space.fock_cutoff=1e400"], "space.fock_cutoff"),
        (["sweep", "--set", "sweep.samples=2.5"], "sweep.samples"),
        (["validate", "--set", "tolerances.algebraic=abc"], "tolerances.algebraic"),
        (["validate", "--set", "tolerances=5"], "tolerances"),
        (["validate", "--set", "tolerances.algebra=1e-30"], "tolerances.algebra: unknown field"),
        (["validate", "--set", "tolerances.algebraic=NaN"], "tolerances.algebraic"),
        (["validate", "--set", "tolerances.propagation=0"], "tolerances.propagation"),
        (["gate", "--set", "physical.include_shift=no"], "physical.include_shift"),
        (["validate", "--set", "validate.self_test=no"], "validate.self_test"),
        (["gate", "--set", "target.amplitudes=5"], "target.amplitudes"),
        (["synthesize", "--set", "target.amplitudes=5"], "target.amplitudes"),
        (["gate", "--set", "out_dir=5"], "out_dir"),
        (["gate", "--set", "target.amplitudes=[[NaN,0]]"], "target.amplitudes"),
        (["validate", "--set", "target.preset=bogus"], "target.preset"),
        (["sweep", "--set", "target.alpha=[1,2,3]"], "target.alpha"),
        # a device with no usable coupling: lambda = g*omega_l/delta zero, 1/lambda or g*g/delta not finite
        (["gate", "--set", "physical.omega_l=0"], "physical: no usable coupling"),
        (["synthesize", "--set", "physical.g=1e300"], "physical: no usable coupling"),
        (["validate", "--set", "physical.delta=1e-320"], "physical: no usable coupling"),
        (["sweep", "--set", "physical.omega_l=1e-320"], "physical: no usable coupling"),
        # --config: missing, a directory, not JSON, not UTF-8, not an object (with and without overrides)
        (["gate", "--config", "missing.json"], "config file missing.json: No such file"),
        (["gate", "--config", "."], "config file .: "),
        (["sweep", "--config", "broken.json"], "config file is not valid JSON"),
        (["validate", "--config", "binary.json"], "config file is not valid JSON"),
        (["gate", "--config", "array.json"], "config: expected an object, got list"),
        (["gate", "--config", "array.json", "--model", "full"], "override path 'model' crosses a non-object"),
        (["gate", "--set", "physical=3", "--set", "physical.g=2"], "override path 'physical.g' crosses"),
        (["gate", "--set", "=3"], "empty key path"),
        (["gate", "--set", "model=bogus"], "model: 'bogus' is not one of"),
        (["gate", "--set", "physical.g=-1"], "physical.g: must be > 0"),
        (["sweep", "--set", "physical.omega_l=-0.1"], "physical.omega_l: must be >= 0"),
        (["sweep", "--set", "sweep.ratios=[0.1,-1]"], "sweep.ratios: all ratios must be > 0"),
        (["synthesize", "--set", "target.amplitudes=[0,0]"], "target: amplitudes are all zero"),
        (["synthesize", "--set", "target.amplitudes=[]"], "target: amplitudes are all zero"),
        # every sweep drive omega_l = r*g needs a usable coupling, and the configured gate a finite duration
        (["sweep", "--set", "sweep.ratios=[1e-320]"], "sweep.ratios (r = 1e-320): no usable coupling"),
        (["sweep", "--set", "physical.g=1e-200"], "sweep.ratios (r = 0.02): no usable coupling"),
        (["gate", "--set", "gate.phi=1e307"], "gate.phi: 1e+307 gives a gate with non-finite tau"),
        # and so does the sweep's largest sampled gate (phi up to pi/2) at every sweep drive
        (
            ["sweep", "--set", "physical.g=1e154", "--set", "physical.delta=1", "--set", "sweep.ratios=[1e-310]"],
            "sweep.ratios (r = 1e-310): phi = 1.5707963267948966 gives a gate with non-finite tau",
        ),
        # pulse-block entries (g^2/delta)*cutoff = 1.2e309 overflow: the dynamics would print NaN
        *(
            ([command, "--set", "physical.g=1e154", "--set", "physical.delta=1"],
             "physical: the pulse generator's (g*g/delta)*fock_cutoff = inf is not finite")
            for command in ("gate", "sweep", "synthesize", "validate")
        ),
        # finite entries, but (g^2/delta)*cutoff times the gate's tau overflows
        (
            ["gate", "--set", "physical.g=1e16", "--set", "physical.omega_l=2e-292"],
            "gate.phi: 0.7853981633974483 gives a pulse whose (g*g/delta)*fock_cutoff",
        ),
        # the configured gate and the sweep's are finite, but validate samples phi up to 2*pi on
        # levels up to 5, and 2*eta of such a gate overflows
        *(
            ([command, "--set", "physical.g=1e16", "--set", "physical.omega_l=1.2e-291"],
             "physical: the closed-form check's gate at phi = 6.283185307179586, m = 3 gives a gate with non-finite")
            for command in ("gate", "sweep", "synthesize", "validate")
        ),
        # the pair preset puts beta at level n: at n = 0 it would overwrite alpha
        *(
            ([command, "--set", "target.n=0", "--set", "target.alpha=[1,0]", "--set", "target.beta=[-1,0]"],
             "target.n: the pair preset needs n >= 1 for a nonzero target.beta, got 0")
            for command in ("gate", "sweep", "synthesize", "validate")
        ),
        # a cutoff beyond int64 (and float) range: no array can have that size
        (["gate", "--set", "space.fock_cutoff=1" + "0" * 400], "space.fock_cutoff: must lie in int64 range"),
        # within int64, but the (3*cutoff)^2 complex joint matrix exceeds numpy's maximum array size
        (["gate", "--set", f"space.fock_cutoff={2**62}"], "space.fock_cutoff: the largest joint matrix"),
        # a negative detuning gives a negative coupling, so gates of negative duration
        (["sweep", "--set", "physical.delta=-20", "--set", "sweep.ratios=[0.1]"], "physical.delta: must be > 0"),
        # a pair or fock target past the cutoff is named before its n + 1 amplitudes are allocated
        *(
            ([command, "--set", f"target.n={n}"], f"target: target.n = {n} of the pair preset; fock_cutoff 12")
            for command in ("gate", "sweep", "synthesize", "validate")
            for n in (10**12, 2**63 - 2)
        ),
        (["gate", "--set", "target.preset=fock", "--set", f"target.n={2**63 - 2}"], "of the fock preset; fock_cutoff"),
        # a zero beta leaves the pair target at |0>, but its n must still respect the cutoff
        (["synthesize", "--set", "target.n=11", "--set", "target.beta=0"],
         "target: target.n = 11 of the pair preset; fock_cutoff 12 too small"),
    ],
)
def test_non_finite_or_non_integer_input_is_config_error(argv, field, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    (tmp_path / "array.json").write_text("[1, 2]")
    rc = main(argv)
    assert rc == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "tolerances, field",
    [
        ({"algebra": 1e-30}, "tolerances.algebra: unknown field"),
        ({"propagation": float("nan")}, "tolerances.propagation"),
        ({"algebraic": "1e-9"}, "tolerances.algebraic"),
        ({"purity_deficit": -1.0}, "tolerances.purity_deficit"),
        (5, "tolerances"),
    ],
)
def test_run_validation_rejects_bad_tolerances(tolerances, field):
    # the library entry point applies the same rules as the config check
    with pytest.raises(ValueError, match=field):
        run_validation(
            RamanParams(g=1.0, omega_l=0.1), HilbertSpace(2, 12), 1, tolerances=tolerances
        )


def test_sweep_reads_gate_level_and_its_guard(capsys):
    rc = main(["sweep", "--set", "gate.m=11"])
    assert rc == 2
    assert "gate.m" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key",
    ["sweep.workers", "sweep.m", "space.atom_dim", "gate.k", "physical.theta", "physical.include_shift", "task"],
)
def test_removed_fields_are_unknown(key, capsys):
    rc = main(["gate", "--set", f"{key}=1"])
    assert rc == 2
    assert f"{key}: unknown field" in capsys.readouterr().err


def test_subcommand_is_the_task(capsys):
    assert main(["gate", "--set", "task=validate"]) == 2
    assert "task: unknown field" in capsys.readouterr().err


def _leaves(cls, prefix=""):
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from _leaves(f.type, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f.type


TYPED_LEAVES = [(path, kind) for path, kind in _leaves(RunConfig) if kind in (bool, int, float)]
WRONG_VALUE = {float: '"x"', int: "2.5", bool: "1"}


def test_field_types_are_classes_not_strings():
    # a string annotation (from __future__ import annotations) would leave its field unchecked
    assert not [path for path, kind in _leaves(RunConfig) if isinstance(kind, str)]
    assert {kind for _, kind in TYPED_LEAVES} == {bool, int, float}


@pytest.mark.parametrize("path, kind", TYPED_LEAVES, ids=[path for path, _ in TYPED_LEAVES])
def test_every_typed_field_rejects_a_wrong_type(path, kind, capsys):
    assert main(["gate", "--set", f"{path}={WRONG_VALUE[kind]}"]) == 2
    assert f"{path}: must be" in capsys.readouterr().err


def test_zero_duration_gate(tmp_path):
    rc = main(["gate", "--out", str(tmp_path), "--set", "gate.phi=0.0", "--model", "ideal"])
    assert rc == 0
    report = json.loads((tmp_path / "gate_report.json").read_text())
    # phase-only gate: populations untouched, oscillator pure
    assert report[0]["purity"] > 1 - 1e-9


def test_sweep_csv_and_monotonic_fidelity(tmp_path):
    rc = main(
        [
            "sweep",
            "--out",
            str(tmp_path),
            "--model",
            "effective",
            "--seed",
            "7",
            "--set",
            "sweep.samples=6",
        ]
    )
    assert rc == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["r"] for r in rows] == ["0.02", "0.050000000000000003", "0.10000000000000001", "0.20000000000000001", "0.5"]
    fids = [float(r["fidelity"]) for r in rows]
    leaks = [float(r["leakage"]) for r in rows]
    times = [float(r["gate_time"]) for r in rows]
    assert all(a >= b for a, b in zip(fids, fids[1:])), fids
    assert all(a < b for a, b in zip(leaks, leaks[1:])), leaks
    assert all(a > b for a, b in zip(times, times[1:])), times


def test_sweep_gate_time_scaling(tmp_path):
    # fixed angle: doubling the drive halves the pulse duration
    rc = main(
        [
            "sweep",
            "--out",
            str(tmp_path),
            "--model",
            "ideal",
            "--seed",
            "3",
            "--set",
            "sweep.ratios=[0.05,0.1]",
            "--set",
            "sweep.samples=5",
        ]
    )
    assert rc == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["gate_time"]) == pytest.approx(2 * float(rows[1]["gate_time"]))


@pytest.mark.parametrize("model", ["ideal", "effective", "full"])
@pytest.mark.parametrize("ratio", [0.02, 0.1, 0.5])
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    m=st.integers(1, 5),
    samples=st.integers(1, 4),
    others=st.lists(st.sampled_from([0.01, 0.05, 0.2, 1.0]), max_size=2),
    at=st.integers(0, 2),
)
def test_sweep_point_matches_dense_gate_per_sample(model, ratio, seed, m, samples, others, at):
    # each grid point of the batched sweep against the per-sample route: the same
    # draws in the same order, one dense pair_gate per sample, scored by closed_form_states
    ratios = others[:at] + [ratio] + others[at:]
    cfg = load_config(None, [f"gate.m={m}", f"sweep.samples={samples}", f"seed={seed}", f"sweep.ratios={ratios}"])
    rows = _sweep_rows(cfg, model)
    space = model_space(model, cfg.space.fock_cutoff)
    assert [(row["r"], row["model"]) for row in rows] == [(r, model) for r in ratios]
    for r, row in zip(ratios, rows):
        rng = np.random.default_rng(cfg.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the selectivity warning at large r
            p = to_raman(cfg, omega_l=r * cfg.physical.g)
        fids, leaks, times = [], [], []
        for _ in range(cfg.sweep.samples):
            phi = float(rng.uniform(0.15, 0.5 * np.pi))
            z = rng.normal(size=4)
            nrm = np.hypot(abs(complex(z[0], z[1])), abs(complex(z[2], z[3])))
            gp = GateParams.from_raman(p, m=cfg.gate.m, phi=phi)
            prepared, expected = closed_form_states(
                space, gp.m, gp.phi, gp.theta0, complex(z[0], z[1]) / nrm, complex(z[2], z[3]) / nrm
            )
            psi = pair_gate(gp, p, space, model) @ prepared
            fids.append(fidelity(expected, psi, space))
            leaks.append(leakage(psi, gp.m, space))
            times.append(gp.tau)
        assert abs(row["fidelity"] - np.mean(fids)) < 1e-12
        assert abs(row["leakage"] - np.mean(leaks)) < 1e-12
        assert row["gate_time"] == float(np.mean(times))


def _count_calls(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[f"{module.__name__}.{name}"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_sweep_and_validate_run_their_samples_in_one_batch(monkeypatch, capsys):
    # one closed_form_samples call, so one echo, per model for the whole sweep grid and one for
    # validate's sampled gates; pair_gate only in validate's unitarity and purity checks
    calls = collections.Counter()
    for module, name in [(cli, "closed_form_samples"), (cli, "pair_gate"), (validation, "closed_form_samples"),
                         (validation, "pair_gate"), (gates, "echo_pulses")]:
        _count_calls(monkeypatch, calls, module, name)
    assert main(["sweep", "--model", "all"]) == 0
    assert calls == {"fockgate.cli.closed_form_samples": 3, "fockgate.gates.echo_pulses": 3}
    calls.clear()
    assert main(["validate"]) == 0
    assert calls == {"fockgate.validation.closed_form_samples": 1, "fockgate.validation.pair_gate": 3,
                     "fockgate.gates.echo_pulses": 4}


def test_sweep_warns_nothing_at_large_ratio():
    # the default grid reaches r = 0.5, past the selectivity warning's threshold
    assert 0.5 in load_config(None, []).sweep.ratios
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--model", "all"]) == 0


@pytest.mark.parametrize("module, where, category", [
    pytest.param(cli, "to_raman", UserWarning, id="to_raman-UserWarning"),
    pytest.param(gates, "run_echo", RuntimeWarning, id="run_echo-RuntimeWarning"),  # inside closed_form_samples
])
def test_sweep_passes_other_warnings_on(monkeypatch, module, where, category):
    # only the selectivity warning is filtered, and only while the devices are built
    original = getattr(module, where)

    def warns(*args, **kwargs):
        warnings.warn("something else", category)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, where, warns)
    with pytest.warns(category, match="something else"):
        assert main(["sweep", "--model", "ideal", "--set", "sweep.ratios=[0.5]"]) == 0


def _per_gate_closed_form_infidelity(p, space, seed, corrupt_theta0):
    # validate's closed-form check one gate at a time: the same draws, one dense pair_gate each
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(24):
        level = int(rng.integers(1, min(VALIDATION_GATES[1], space.fock_cutoff - 2) + 1))
        phi = float(rng.uniform(*VALIDATION_GATES[0]))
        z = rng.normal(size=4)
        alpha, beta = complex(z[0], z[1]), complex(z[2], z[3])
        nrm = np.hypot(abs(alpha), abs(beta))
        gp = GateParams.from_raman(p, m=level, phi=phi)
        prepared, expected = closed_form_states(space, gp.m, gp.phi, -gp.theta0 if corrupt_theta0 else gp.theta0,
                                                alpha / nrm, beta / nrm)
        fid = fidelity(expected, pair_gate(gp, p, space, "ideal") @ prepared, space)
        worst = max(worst, 1.0 - fid)
    return worst


@pytest.mark.parametrize("corrupt_theta0", [False, True])
@pytest.mark.parametrize("seed, fock_cutoff, m", [(0, 12, 1), (3, 5, 2), (17, 8, 4), (2024, 3, 1)])
def test_validation_batch_matches_per_gate_route(seed, fock_cutoff, m, corrupt_theta0):
    p, space = RamanParams(g=1.0, omega_l=0.1), HilbertSpace(2, fock_cutoff)
    results = run_validation(p, space, m, corrupt_theta0=corrupt_theta0, seed=seed)
    batched = next(r.value for r in results if r.name == "closed-form rotation infidelity")
    assert abs(batched - _per_gate_closed_form_infidelity(p, space, seed, corrupt_theta0)) < 1e-12
    assert (batched > 1e-3) == corrupt_theta0


def test_sweep_reproducible(tmp_path):
    args = [
        "sweep",
        "--model",
        "effective",
        "--seed",
        "11",
        "--set",
        "sweep.ratios=[0.05,0.1]",
        "--set",
        "sweep.samples=3",
    ]
    rc1 = main(args + ["--out", str(tmp_path / "a")])
    rc2 = main(args + ["--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()


def test_synthesize_pair_target(tmp_path):
    rc = main(
        [
            "synthesize",
            "--out",
            str(tmp_path),
            "--model",
            "ideal",
            "--set",
            "target.preset=pair",
            "--set",
            "target.n=3",
        ]
    )
    assert rc == 0
    plan = json.loads((tmp_path / "plan_ideal.json").read_text())
    assert len(plan["steps"]) == 3
    assert plan["steps"][0]["phi"] == pytest.approx(np.pi / 4)
    assert plan["steps"][1]["phi"] == pytest.approx(np.pi / 2)
    report = json.loads((tmp_path / "synth_report.json").read_text())
    assert report["ideal"]["fidelity"] > 1 - 1e-9


def test_synthesize_vacuum_is_empty_plan(tmp_path):
    rc = main(
        [
            "synthesize",
            "--out",
            str(tmp_path),
            "--model",
            "ideal",
            "--set",
            "target.preset=vacuum",
        ]
    )
    assert rc == 0
    plan = json.loads((tmp_path / "plan_ideal.json").read_text())
    assert plan["steps"] == []
    report = json.loads((tmp_path / "synth_report.json").read_text())
    assert report["ideal"]["fidelity"] == pytest.approx(1.0)


def test_synthesize_zero_tail_beyond_cutoff_prints_as_trimmed(capsys):
    # 13 amplitudes at the default cutoff 12, support 0..1
    assert main(["synthesize", "--model", "all", "--set", "target.amplitudes=[1, 1" + ", 0" * 11 + "]"]) == 0
    long_out = capsys.readouterr().out
    assert main(["synthesize", "--model", "all", "--set", "target.amplitudes=[1, 1]"]) == 0
    assert long_out == capsys.readouterr().out
    assert long_out.count("steps=1 ") == 3


def test_synthesize_rejects_overflowing_target():
    rc = main(["synthesize", "--set", "target.preset=fock", "--set", "target.n=11"])
    assert rc == 2


def test_validate_passes_by_default(tmp_path):
    rc = main(["validate", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "validate_report.json").read_text())
    assert all(item["passed"] for item in report)


def test_validate_passes_in_other_units(capsys):
    # the default device with every rate scaled by 1e150: the decomposition residual is relative to the generator
    rc = main(["validate", "--model", "all", "--set", "physical.g=1e150", "--set", "physical.omega_l=1e149",
               "--set", "physical.delta=2e151"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "all 12 checks passed" in out and "nan" not in out


def test_validate_self_test_detects_corruption(capsys):
    rc = main(["validate", "--set", "validate.self_test=true"])
    assert rc == 0
    assert "flagged" in capsys.readouterr().out


def test_validate_unattainable_tolerance_fails():
    rc = main(["validate", "--set", "tolerances.algebraic=1e-30"])
    assert rc == 1
