#!/usr/bin/env python3
"""Record the reference result digests of each workload family.

Runs every family's grid inline (``jobs=1``, the reference path) for the
given seeds and writes ``perfbench/digests.json``.  Re-record only when a
change to the program is meant to change simulation output::

    python3 perfbench/record_digests.py --tiny-seeds 64 --paper-seeds 32
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_check  # noqa: E402
import bench_workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny-seeds", type=int, default=64)
    parser.add_argument("--paper-seeds", type=int, default=32)
    args = parser.parse_args()

    from repro.api import run_specs

    recorded = {}
    for family, workload, seeds in (
        ("tiny-grid", "tiny-grid.inline", args.tiny_seeds),
        ("paper-trace", "paper-trace.pool", args.paper_seeds),
    ):
        recorded[family] = {}
        for seed in range(seeds):
            bench_workloads.clear_process_caches()
            specs = bench_workloads.build_specs(bench_workloads.WORKLOADS[workload], seed)
            outcome = run_specs(specs, executor="inline")
            hashes = [bench_check.payload_hash(result) for result in outcome.results]
            recorded[family][str(seed)] = bench_check.digest(hashes)
            print(family, seed, recorded[family][str(seed)], flush=True)
    bench_check.DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
