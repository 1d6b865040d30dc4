#!/usr/bin/env python3
"""Steadiness check: run every workload on several seeds, report spreads.

Runs ``perfbench/run.py --trace 0`` once per (seed, workload), cycling
through the workloads for each seed so that slow drift of the host lands
on every workload alike, then prints for each end-to-end metric the
median over seeds and the interquartile range as a share of that median,
next to the metric's bound from ``BENCHMARK.json``::

    python3 perfbench/spread.py --runs 10 --out spread-a.json
    python3 perfbench/spread.py --runs 10 --first-seed 100 --baseline spread-a.json

With ``--baseline`` it also reports, per metric, how far this set's
median moved against the baseline set's, as a share of the baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}: {completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--out", type=Path, help="write the raw values here")
    parser.add_argument("--baseline", type=Path, help="raw values of an earlier set")
    args = parser.parse_args()

    bench = _bench()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {w: {name: [] for name in bounds} for w in workloads}
    for index in range(args.runs):
        seed = args.first_seed + index
        for workload in workloads:
            result = _run(workload, seed, bench["run_seconds"])
            if not result["correct"]:
                print(f"INCORRECT: {workload} seed {seed}: {result}", file=sys.stderr)
                return 1
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds
            ), flush=True)
    if args.out:
        args.out.write_text(json.dumps(values, indent=1))
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None

    worst = 0.0
    for workload in workloads:
        for name, spec in bounds.items():
            series = values[workload][name]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            line = (
                f"{workload:24s} {name:22s} median {median:12.4f} "
                f"spread {spread:6.3f} (bound {spec['bound']}, target < {spec['bound'] / 3:.3f})"
            )
            if name != "setup_s":
                worst = max(worst, spread / spec["bound"])
            if baseline is not None:
                base = statistics.median(baseline[workload][name])
                worse = (median - base) / base
                if spec["better"] == "higher":
                    worse = -worse
                line += f" worse-than-baseline {worse:+.3f}"
            print(line)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
