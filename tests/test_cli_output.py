"""Stdout and exit code of twelve CLI runs, and the plan files of the synthesize runs, pinned under ``cli_expected``.

The text between numbers must match exactly and every number must match
within ``math.isclose(rel_tol=1e-12, abs_tol=1e-12)``: another BLAS's
round-off moves validate's 1e-15 defects and the 17-digit sweep values, the
program's behaviour does not.  ``cli_expected/plans/<run>_plan_<model>.json``
is the plan that run writes with ``--out``.
"""

import math
import re
from pathlib import Path

import pytest

from fockgate.cli import main

EXPECTED = Path(__file__).parent / "cli_expected"
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

# expected file stem -> (argv, exit code)
RUNS = {
    "gate_all": (["gate", "--model", "all"], 0),
    "gate_m3": (["gate", "--model", "all", "--set", "gate.m=3", "--set", "gate.phi=1.1"], 0),
    "sweep_all": (["sweep", "--model", "all"], 0),
    "sweep_seed7": (["sweep", "--model", "all", "--seed", "7", "--set", "sweep.samples=4"], 0),
    "synth_pair": (["synthesize", "--model", "all"], 0),
    "synth_n5": (["synthesize", "--model", "all", "--set", "target.n=5"], 0),
    "synth_fock4": (["synthesize", "--model", "all", "--set", "target.preset=fock", "--set", "target.n=4"], 0),
    "synth_amps": (["synthesize", "--model", "all", "--set", "target.amplitudes=[0,0.5,0,[0.3,0.4],0,0,0.6]"], 0),
    "validate": (["validate"], 0),
    "validate_all": (["validate", "--model", "all"], 0),
    "validate_self": (["validate", "--set", "validate.self_test=true"], 0),
    "validate_m3": (["validate", "--set", "gate.m=3"], 0),
}


def assert_matches(actual: str, expected: str):
    actual, expected = NUMBER.split(actual), NUMBER.split(expected)
    # split with one group: text at even positions, numbers at odd ones
    assert actual[0::2] == expected[0::2]
    far = [
        (a, e)
        for a, e in zip(actual[1::2], expected[1::2])
        if not math.isclose(float(a), float(e), rel_tol=1e-12, abs_tol=1e-12)
    ]
    assert not far, far


@pytest.mark.parametrize("name", RUNS)
def test_cli_stdout_matches_expected(name, capsys):
    argv, code = RUNS[name]
    assert main(argv) == code
    assert_matches(capsys.readouterr().out, (EXPECTED / f"{name}.txt").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", [name for name, (argv, _) in RUNS.items() if argv[0] == "synthesize"])
def test_synthesize_plan_files_match_expected(name, tmp_path):
    argv, code = RUNS[name]
    assert main(argv + ["--out", str(tmp_path)]) == code
    expected = sorted((EXPECTED / "plans").glob(f"{name}_plan_*.json"))
    written = sorted(tmp_path.glob("plan_*.json"))
    assert [path.name for path in written] == [path.name.removeprefix(f"{name}_") for path in expected]
    for path, pinned in zip(written, expected):
        assert_matches(path.read_text(encoding="utf-8"), pinned.read_text(encoding="utf-8"))
