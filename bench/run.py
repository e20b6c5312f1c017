"""fockgate benchmark: one workload, one seed, one closed-loop run.

Run from the repository root:

    python3 bench/run.py --workload gate_large --seed 1 --seconds 28 --trace 0

One client in one process and one thread sends the next op only after the
previous one returned.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced cycles and reports the per-layer
metrics of ``spans.py`` plus the tracing overhead.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a human summary with units (including
``failed_frac``, which the JSON carries as ``failed`` over ``attempted``),
the largest check deviations and a stamp of the environment.  fockgate is
imported from ``src/`` of the working directory; without it the run exits
with a non-zero code and prints no result.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here, before numpy or fockgate load

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np

from oracle import TOL

SETUP_REPEATS = 5  # this process plus four fresh set-up-only processes
WINDOW_OPS = 100  # ops per p90 window, rounded up to whole cycles: ten above p90
P50_WINDOW_OPS = 10  # ops per median window, rounded up to whole cycles
MIN_WINDOWS = 3
MAX_STRETCH = 3.0  # a run that has not timed MIN_WINDOWS windows stops at 3x --seconds
OUT_DIR = ".bench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="fockgate closed-loop benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_fockgate():
    """Import fockgate from ./src, refusing any other installation."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    try:
        import fockgate
    except ImportError as exc:
        sys.exit(f"cannot import fockgate from {src}: {exc}")
    if not os.path.abspath(fockgate.__file__).startswith(src + os.sep):
        sys.exit(f"fockgate was imported from {fockgate.__file__}, not from {src}")


def quartiles(values):
    return statistics.quantiles(values, n=4)


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def violations(devs):
    """Check deviations that exceed their tolerance in ``oracle.TOL``."""
    return [f"{key} {dev:.3g} > {TOL[key]:.1g}" for key, dev in devs.items() if not dev <= TOL[key]]


class Loop:
    """The closed loop: inputs, timed op, check, failure accounting."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        cycle = len(workload.kinds)
        self.window_ops = cycle * math.ceil(WINDOW_OPS / cycle)
        self.p50_window_ops = cycle * math.ceil(P50_WINDOW_OPS / cycle)
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.max_dev = {}

    def cycle(self):
        kinds = list(self.workload.kinds)
        if self.workload.shuffle:
            kinds = [kinds[i] for i in self.rng.permutation(len(kinds))]
        return kinds

    def run_op(self, kind, timed_call):
        """Draw inputs, time one op, check it; returns the op's seconds."""
        inp = self.workload.make_input(self.rng, kind)
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = timed_call(self.workload.op, inp)
        except Exception as exc:  # an op that raises counts as failed
            elapsed = time.perf_counter() - start
            self._fail(f"{kind}: op raised {exc!r}")
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            devs = self.workload.check(inp, out)
        except Exception as exc:  # a check that cannot run fails the op
            self._fail(f"{kind}: check raised {exc!r}")
            return elapsed
        for key, dev in devs.items():
            self.max_dev[key] = max(self.max_dev.get(key, 0.0), dev)
        bad = violations(devs)
        if bad:
            self._fail(f"{kind}: " + ", ".join(bad))
        return elapsed

    def _fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def call(fn, inp):
    return fn(inp)


def warm_up(workload, seed, kinds, stream=1):
    rng = np.random.default_rng([seed, stream])  # separate stream: timed inputs do not depend on it
    for kind in kinds:
        workload.op(workload.make_input(rng, kind))


def peak_rss_mb():
    """Peak resident memory of this process image, in MB (Linux).

    ``ru_maxrss`` would not do: Linux carries the spawning process's peak
    across fork and exec, so the high-water mark of this image (VmHWM) is read.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def fresh_setup(args):
    """Set-up seconds and peak RSS (MB) of one fresh set-up-only process.

    After its set-up the process runs one op of every kind, unchecked, so
    its peak RSS is the program's at every input size, without the oracle's
    scipy import that the measuring process carries.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    _, setup_s, _, rss_mb = done.stdout.split()[-4:]
    return float(setup_s), float(rss_mb)


def stamp(latencies_ms, setups, window_ops):
    """Spread of this run's samples plus the environment it ran in."""
    q1, q2, q3 = quartiles(latencies_ms)
    s1, s2, s3 = quartiles(setups)
    return {
        "op_latency_ms": {"median": q2, "iqr": q3 - q1, "samples": len(latencies_ms),
                          "windows": len(latencies_ms) // window_ops, "window_ops": window_ops},
        "setup_s": {"median": s2, "iqr": s3 - s1, "repeats": len(setups)},
        **environment(),
    }


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def git_sha():
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def run_untraced(loop, seconds, setup):
    """Timed closed loop; returns op latencies and (set-up s, peak RSS MB) of fresh processes.

    The fresh set-ups run between cycles at evenly spaced points of the run,
    so that they sample the same machine states as the ops; the time they
    take is not counted towards the run's length.
    """
    latencies, setups = [], []
    points = [seconds * (i + 0.5) / (SETUP_REPEATS - 1) for i in range(SETUP_REPEATS - 1)]
    start = time.perf_counter()
    while not finished(start, seconds, len(latencies) >= MIN_WINDOWS * loop.window_ops):
        if points and time.perf_counter() - start >= points[0]:
            points.pop(0)
            paused = time.perf_counter()
            setups.append(setup())
            start += time.perf_counter() - paused
        latencies.extend(loop.run_op(kind, call) for kind in loop.cycle())
    return latencies, setups


def finished(start, seconds, enough_ops):
    elapsed = time.perf_counter() - start
    return elapsed >= seconds * MAX_STRETCH or (elapsed >= seconds and enough_ops)


def run_traced(loop, seconds, workload, seed):
    """Alternate whole untraced and traced cycles; returns layer metrics."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not finished(start, seconds, min(len(plain), len(traced)) >= loop.window_ops):
        plain.extend(loop.run_op(kind, call) for kind in loop.cycle())
        tracer.install()
        try:
            traced.extend(loop.run_op(kind, tracer.span_op) for kind in loop.cycle())
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = 1.0 - (len(traced) / sum(traced)) / (len(plain) / sum(plain))
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.jsonl.gz"))
    return metrics


def main(argv=None):
    args = parse_args(argv)
    import_fockgate()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](workdir)
        warm_up(workload, args.seed, workload.warmup_kinds)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            warm_up(workload, args.seed, workload.kinds, stream=2)
            print(f"setup_s {setup_s!r} peak_rss_mb {peak_rss_mb()!r}")
            return 0
        loop = Loop(workload, args.seed)
        if args.trace:
            metrics = run_traced(loop, args.seconds, workload, args.seed)
            report = {k: {"value": v, "unit": LAYER_UNITS[k.rsplit(".", 1)[-1]]}
                      for k, v in metrics.items()}
        else:
            latencies, fresh = run_untraced(loop, args.seconds, lambda: fresh_setup(args))
            setups = [setup_s] + [f[0] for f in fresh]
            rss = statistics.median(f[1] for f in fresh)
            report = end_to_end(latencies, setups, rss, loop)
            print(f"stamp: {json.dumps(stamp([1e3 * t for t in latencies], setups, loop.window_ops))}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summarize(args, loop, report)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": report,
    }))
    return 0


LAYER_UNITS = {
    "calls": "1/op", "self_ms": "ms/op", "share": "ratio", "eigh_ms": "ms/op",
    "eigh_per_gate": "1/gate", "unitary_per_eigh": "ratio", "work_d3": "d3/op",
    "max_dim": "count", "builds_per_gate": "1/gate", "steps": "1/op", "gates": "1/op",
    "bytes": "B/op", "sweep_overlap": "ratio", "overhead_frac": "ratio",
}


def windows(latencies_ms, size):
    """Consecutive windows of ``size`` ops; a trailing partial window is dropped.

    A run too short for one whole window (only when --seconds is far below
    the benchmark's run length) is taken as a single window.
    """
    wins = [latencies_ms[i : i + size] for i in range(0, len(latencies_ms) - size + 1, size)]
    return wins or [latencies_ms]


def end_to_end(latencies, setups, peak_rss_mb, loop):
    """The end-to-end metrics of one untraced run.

    The percentiles are taken within each window of whole cycles (every op
    kind equally often) and averaged over the run's windows.  The machine's
    speed drifts between states that last seconds; averaging per-window
    percentiles weighs every stretch of the run equally, where a percentile
    of the pooled run jumps with the share of time spent in the slower state.
    A p90 window holds at least ten samples above its 90th percentile; a
    median window is about a tenth of that, short enough that few windows
    straddle two machine states (see BASELINE.md for the traces behind it).
    """
    latencies_ms = [1e3 * t for t in latencies]
    wins = windows(latencies_ms, loop.window_ops)
    p50_wins = windows(latencies_ms, loop.p50_window_ops)
    completed = loop.attempted - loop.failed
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (completed / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.fmean(statistics.median(w) for w in p50_wins), "ms"),
        "op_p90_ms": (statistics.fmean(p90(w) for w in wins), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def summarize(args, loop, report):
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{loop.attempted} ops attempted, {loop.failed} failed")
    for name, m in report.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'failed_frac':32s} {loop.failed / loop.attempted:.6g} ratio")
    devs = {k: {"max": v, "tol": TOL[k]} for k, v in sorted(loop.max_dev.items())}
    print(f"deviations: {json.dumps(devs)}")
    for message in loop.errors:
        print(f"  failure: {message}")


if __name__ == "__main__":
    sys.exit(main())
