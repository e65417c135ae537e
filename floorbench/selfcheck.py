"""Exact-count self-check of the traced run.

    python3 floorbench/selfcheck.py [--seed N]

Runs ``run.py --trace 1`` twice per workload and fails (exit 1) unless
* both runs are correct, which includes the traced pass's stdout digests
  equalling the untraced pass's;
* no (delta, n) is listed by two jobs of one process (the load model);
* every count (``.calls``, ``.diagrams``, ``.terms``, ``useful_ratio``,
  ``cli.stdout_bytes``) repeats exactly;
* the largest self time is the layer the workload is built to stress.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_TOP = {
    "severi_counts": "diagrams.enumerate_marked.self_s",
    "series_tables": "algebra.USeries.mul.self_s",
    "oracle_grid": "oracle.brute_force_enumerate.self_s",
}
COUNT_SUFFIXES = (".calls", ".diagrams", ".terms", "useful_ratio", "stdout_bytes")


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """(detail line, result line) of one traced run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    detail, result = proc.stdout.splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def check(workload: str, seed: int) -> list[str]:
    (detail, first), (_, second) = traced_run(workload, seed), traced_run(workload, seed)
    problems = [f"run {i} not correct" for i, r in enumerate((first, second), 1) if not r["correct"]]
    if detail["cross_job_repeats"]:
        problems.append(f"{detail['cross_job_repeats']} (delta, n) listed by two jobs of one process")
    for name, metric in first["metrics"].items():
        again = second["metrics"][name]["value"]
        if name.endswith(COUNT_SUFFIXES) and metric["value"] != again:
            problems.append(f"{name} {metric['value']} then {again}")
    self_times = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".self_s")}
    top = max(self_times, key=self_times.get)
    if top != EXPECTED_TOP[workload]:
        problems.append(f"largest self time is {top}, expected {EXPECTED_TOP[workload]}")
    total = sum(self_times.values())
    print(f"{workload}: largest self time {top} "
          f"({self_times[top]:.3f} s, {self_times[top] / total:.0%} of traced self time)")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failed = False
    for workload in EXPECTED_TOP:
        problems = check(workload, args.seed)
        for problem in problems:
            print(f"  FAIL {problem}")
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
