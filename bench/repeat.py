"""Repeat bench/run.py over seeds and summarize each metric's spread.

Run from the repository root:

    python3 bench/repeat.py --seeds 1        # all six end-to-end metrics, every workload
    python3 bench/repeat.py --workloads gate_large,cli_default --seeds 1-10 \
        --out .bench_out/record.json
    python3 bench/repeat.py --compare .bench_out/before.json .bench_out/after.json

For every workload and metric it prints the median over the runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median.  ``--out`` writes the runs, the summary and the first
run's environment stamp as JSON.  ``--compare`` reads two such records and
flags every end-to-end metric whose median got worse by more than its bound
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

SPEC = "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Final JSON result of one run, and its prefixed JSON lines (stamp, deviations)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    extra = {}
    for line in lines:
        key, sep, rest = line.partition(": ")
        if sep and key in ("stamp", "deviations"):
            extra[key] = json.loads(rest)
    return json.loads(lines[-1]), extra


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def collect(workloads: list[str], seeds: list[int], seconds: int, trace: int) -> dict:
    record = {"seconds": seconds, "trace": trace, "seeds": seeds, "stamp": None,
              "runs": {}, "summary": {}, "max_deviation": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, extra = run_once(workload, seed, seconds, trace)
            record["stamp"] = record["stamp"] or extra.get("stamp")
            for key, dev in extra["deviations"].items():
                worst = record["max_deviation"].setdefault(key, dev)
                worst["max"] = max(worst["max"], dev["max"])
            metrics = dict(result["metrics"])
            if not trace:  # the sixth end-to-end metric; the result carries it as counts
                metrics["failed_frac"] = {"value": result["failed"] / result["attempted"],
                                          "unit": "ratio"}
            values = {k: m["value"] for k, m in metrics.items()}
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values})
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {m['value']:.4g} {m['unit']}" for k, m in metrics.items()), flush=True)
        record["runs"][workload] = runs
        record["summary"][workload] = {
            k: summarize([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]
        }
    return record


def print_summary(record: dict, bounds: dict) -> None:
    print("\nlargest check deviations: " + ", ".join(
        f"{k} {d['max']:.2e} (tol {d['tol']:.0e})" for k, d in sorted(record["max_deviation"].items())))
    for workload, metrics in record["summary"].items():
        print(f"\n{workload}  ({len(record['seeds'])} runs of {record['seconds']} s)")
        for k, s in metrics.items():
            bound = bounds.get(k)
            flag = "" if bound is None else (
                f"  bound {bound:.2f}" + ("  WIDE" if s["spread"] > bound / 3 else "")
            )
            print(f"  {k:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f}{flag}")


def compare(before: dict, after: dict, spec: dict) -> int:
    """Flag end-to-end metrics whose median worsened by more than the bound."""
    worse = 0
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        for workload, summary in before["summary"].items():
            if workload not in after["summary"] or name not in summary:
                continue
            a, b = summary[name]["median"], after["summary"][workload][name]["median"]
            change = (b - a) / a if lower else (a - b) / a
            verdict = "WORSE" if change > bound else "ok"
            worse += verdict == "WORSE"
            print(f"{workload:14s} {name:14s} {a:.6g} -> {b:.6g}  worse by {change:+.3f} "
                  f"(bound {bound:.2f})  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default: every workload")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the record here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            return compare(json.load(fa), json.load(fb), spec)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    record = collect(workloads, parse_seeds(args.seeds), args.seconds or spec["run_seconds"], args.trace)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print_summary(record, bounds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
