"""One-off reference tables timed with the benchmark's own loop.

Run from the repository root (BLAS threads are pinned to 1 by importing run):

    python3 bench/reference.py

Prints three tables, each cell the median and interquartile range of op
latency with its repeat count, every op checked against ``oracle``:

* ``pair_gate`` per model at fock_cutoff 12, 50 and 200;
* ``execute_plan`` of (|0> + |n>)/sqrt(2) per model at n = 5, 20 and 40
  (cutoff n + 4; the plan is compiled outside the timed region);
* the ``cli_default`` sweep op at the default ``sweep.workers`` against
  ``--set sweep.workers=1``, run as alternating pairs, with the traced
  ``cli.sweep_overlap`` of each setting.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

import run  # pins BLAS threads before numpy loads

run.import_fockgate()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from fockgate import synthesis  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

MIN_REPEATS = 5
CELL_SECONDS = 2.0  # minimum time per table cell
SWEEP_PAIRS = 20  # alternating pairs in the sweep comparison


class ExecutePair(workloads.LadderExec):
    """execute_plan alone on a precompiled (|0> + |n>)/sqrt(2) plan."""

    def __init__(self, workdir: str, n: int):
        self.TOPS = (n,)
        super().__init__(workdir)

    def make_input(self, rng, model):
        n = self.TOPS[0]
        inp = super().make_input(rng, (n, model, "pair"))
        plan = synthesis.plan_superposition(inp[2][0], inp[2][n], n, self.params, workloads._phase_model(model))
        return inp, plan

    def op(self, inp):
        (n, model, _, _), plan = inp
        _, report = synthesis.execute_plan(plan, self.vacuum[n], model, self.params,
                                           self.spaces[(n, model)])
        return plan, report

    def check(self, inp, out):
        return super().check(inp[0], out)


def time_kind(workload, kind) -> list[float]:
    """Latencies (ms) of one op kind, after one untimed warm-up op."""
    loop = run.Loop(workload, seed=0)
    workload.op(workload.make_input(loop.rng, kind))
    latencies = []
    start = time.perf_counter()
    while len(latencies) < MIN_REPEATS or time.perf_counter() - start < CELL_SECONDS:
        latencies.append(1e3 * loop.run_op(kind, run.call))
    if loop.failed:
        raise SystemExit(f"{kind}: {loop.errors}")
    return latencies


def cell(latencies: list[float]) -> str:
    q1, q2, q3 = run.quartiles(latencies)
    return f"{q2:9.3f} ms (IQR {q3 - q1:.3f}, n={len(latencies)})"


def gate_table(workdir: str) -> None:
    print("\npair_gate latency, one op per call")
    print(f"{'nf':>5} " + " ".join(f"{m:>34}" for m in workloads.MODELS))
    for nf in (12, 50, 200):
        workload = workloads.GateLarge(workdir, nf=nf)
        print(f"{nf:5d} " + " ".join(
            f"{cell(time_kind(workload, model)):>34}" for model in workloads.MODELS), flush=True)


def execute_table(workdir: str) -> None:
    print("\nexecute_plan latency, (|0> + |n>)/sqrt(2) from the vacuum at cutoff n + 4")
    print(f"{'n':>5} " + " ".join(f"{m:>34}" for m in workloads.MODELS))
    for n in (5, 20, 40):
        workload = ExecutePair(workdir, n)
        print(f"{n:5d} " + " ".join(
            f"{cell(time_kind(workload, model)):>34}" for model in workloads.MODELS), flush=True)


def sweep_table(workdir: str) -> None:
    print(f"\nsweep --model all (cli_default sweep op), {SWEEP_PAIRS} alternating pairs")
    workload = workloads.CliDefault(workdir)
    rng = np.random.default_rng(0)
    settings = {"default": [], "workers=1": []}
    argv = {"default": ["sweep", "--model", "all"],
            "workers=1": ["sweep", "--model", "all", "--set", "sweep.workers=1"]}
    for name in settings:  # warm-up
        workload.op(("sweep", argv[name], None))
    wins = 0
    for i in range(SWEEP_PAIRS):
        order = list(settings) if i % 2 == 0 else list(settings)[::-1]
        seed = str(int(rng.integers(0, 2**31)))
        times = {}
        for name in order:
            inp = ("sweep", argv[name] + ["--seed", seed], None)
            start = time.perf_counter()
            out = workload.op(inp)
            times[name] = 1e3 * (time.perf_counter() - start)
            bad = run.violations(workload.check(inp, out))
            if bad:
                raise SystemExit(f"sweep {name} failed its check: {bad}")
            settings[name].append(times[name])
        wins += times["default"] < times["workers=1"]
    for name, latencies in settings.items():
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(3):
                tracer.span_op(workload.op, ("sweep", argv[name], None))
        finally:
            tracer.uninstall()
        overlap = layer_metrics(tracer.spans)["cli.sweep_overlap"]
        print(f"  {name:10s} {cell(latencies)}  cli.sweep_overlap {overlap:.2f}")
    print(f"  default faster in {wins} of {SWEEP_PAIRS} pairs")


def main() -> int:
    print(f"environment: {run.json.dumps(run.environment())}")
    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT_DIR)
    try:
        gate_table(workdir)
        execute_table(workdir)
        sweep_table(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
