"""Print every end-to-end metric of every workload, by name and unit.

    python3 floorbench/report.py [--seed N]

Runs ``run.py --trace 0`` once per workload, for the ``run_seconds`` of
``BENCHMARK.json``, and prints one table, with failed_ratio as failed jobs
over attempted jobs.  Exit 1 if any job failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(HERE.parent / "BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]
    all_correct = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        all_correct &= result["correct"]
        print(workload)
        for name, metric in result["metrics"].items():
            print(f"  {name:14s} {metric['value']:12.6f} {metric['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"  {'failed_ratio':14s} {ratio:12.6f} ratio "
              f"({result['failed']} of {result['attempted']} jobs)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
