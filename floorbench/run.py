"""floorgw benchmark: run one workload and print its metrics.

    python3 floorbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Load model: a closed loop with one client.
A pass over the workload runs each of its job groups in a fresh
interpreter (``worker.py``), one job after another, so no pass or group can
reuse another's in-process state; the benchmark starts no threads and runs
one process at a time.

``--trace 0`` makes set-up-only interpreter starts, then as many untraced
passes as fit in the rest of S seconds at the workload's nominal pass time
(at least 2), and prints the end-to-end metrics.  Their times are scaled
to a host of nominal speed by kernel runs timed in and next to each job
and each start (``hostspeed.py``); the measured seconds are printed on
the detail line.  ``--trace 1`` makes one
untraced and one traced pass and prints the per-layer metrics.  Every
job's output is checked against the stored references; the last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from tracer import LISTINGS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 9
# Nominal time of the untimed first start and the set-up probes; passes
# fill the rest of the run's seconds.
PROBES_NOMINAL_S = 2.0
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, group: int = 0) -> dict:
    """Run one worker to completion; add its set-up time to its result.

    ``setup_s`` is scaled by host speed bursts of this process, timed just
    before the start, and of the worker, timed just after it.
    """
    before = hostspeed.burst()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), mode, workload, str(seed), str(group)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - start
    result["setup_s"] = result["raw_setup_s"] * hostspeed.factor([before, result["ready_burst"]])
    return result


def run_pass(mode: str, workload: str, seed: int) -> dict:
    """One pass over the workload: each group in its own fresh worker, in turn."""
    groups = [
        spawn(mode, workload, seed, group) for group in range(len(workloads.WORKLOADS[workload]()))
    ]
    return {
        "groups": groups,
        "wall_s": sum(g["wall_s"] for g in groups),
        "rss_kib": max(g["rss_kib"] for g in groups),
        "jobs": [job for g in groups for job in g["jobs"]],
    }


def tail(latencies: list[float], per_job: list[float]) -> tuple[float, str]:
    """The job latency at the highest percentile with TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND samples that percentile would lie
    below the median; the tail is then the largest per-job median over
    the passes.
    """
    if len(latencies) < 2 * TAIL_BEYOND:
        return max(per_job), f"largest of {len(per_job)} per-job medians"
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], f"p{100.0 * rank / len(ordered):.1f} of {len(ordered)} samples"


def failures(passes: list[dict]) -> list[str]:
    return [f"{j['id']}: {j['failure']}" for p in passes for j in p["jobs"] if j["failure"]]


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[list[dict], dict, dict]:
    count = max(2, int((seconds - PROBES_NOMINAL_S) // workloads.NOMINAL_PASS_S[workload]))
    spawn("probe", workload, seed)  # compiles bytecode; not timed
    probes = [spawn("probe", workload, seed) for _ in range(SETUP_PROBES)]
    passes = [run_pass("pass", workload, seed) for _ in range(count)]
    starts = probes + [g for p in passes for g in p["groups"]]
    setups = [g["setup_s"] for g in starts]
    latencies = [j["scaled_s"] for p in passes for j in p["jobs"]]

    def per_job(key: str) -> list[float]:
        # Each job's median over the passes, so a burst of host noise that
        # hits one pass moves the sum, the median and the tail less than it
        # moves that pass.
        return [
            statistics.median(samples)
            for samples in zip(*([j[key] for j in p["jobs"]] for p in passes))
        ]

    scaled = per_job("scaled_s")
    tail_s, tail_rule = tail(latencies, scaled)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(scaled), "s"),
        "job_p50_s": (statistics.median(scaled), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(p["rss_kib"] for p in passes) / 1024, "MiB"),
    }
    detail = {
        "passes": count,
        "setup_samples": len(setups),
        "job_samples": len(latencies),
        "job_tail": tail_rule,
        "measured_setup_s": statistics.median(g["raw_setup_s"] for g in starts),
        "measured_wall_s": sum(per_job("latency_s")),
        "measured_job_p50_s": statistics.median(per_job("latency_s")),
    }
    return passes, metrics, detail


def layer_metrics(groups: list[dict]) -> dict[str, int | float]:
    """Add up the traced groups' metrics; useful ratios from their distinct inputs."""
    out: dict[str, int | float] = {}
    for g in groups:
        for name, value in g["layers"].items():
            out[name] = out.get(name, 0) + value
    for name in LISTINGS:
        distinct = set().union(*(g["listing_inputs"][name] for g in groups))
        calls = out[f"{name}.calls"]
        # With no calls nothing was wasted.
        out[f"{name}.useful_ratio"] = len(distinct) / calls if calls else 1.0
    return out


def traced(workload: str, seed: int) -> tuple[list[dict], dict, dict]:
    plain = run_pass("pass", workload, seed)
    trace = run_pass("trace", workload, seed)
    metrics = {name: (value, unit_of(name)) for name, value in layer_metrics(trace["groups"]).items()}
    metrics["trace.overhead_ratio"] = (trace["wall_s"] / plain["wall_s"], "ratio")
    mismatched = [
        p["id"] for p, t in zip(plain["jobs"], trace["jobs"]) if p["digest"] != t["digest"]
    ]
    for job in trace["jobs"]:
        if job["id"] in mismatched and not job["failure"]:
            job["failure"] = "traced stdout differs from untraced stdout"
    detail = {
        "spans_files": [g["spans_file"] for g in trace["groups"]],
        "traced_digest_mismatches": len(mismatched),
        "cross_job_repeats": sum(g["cross_job_repeats"] for g in trace["groups"]),
    }
    return [plain, trace], metrics, detail


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "floorgw" / "cli.py").is_file():
        print(f"error: no floorgw sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    try:
        if args.trace:
            passes, metrics, detail = traced(args.workload, args.seed)
        else:
            passes, metrics, detail = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = failures(passes)
    attempted = sum(len(p["jobs"]) for p in passes)
    for line in failed[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          "load: closed loop, 1 client, fresh process per pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(f"  {'failed_ratio':48s} {len(failed) / attempted:14.6f} ratio "
          f"({len(failed)} of {attempted} jobs)")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
