"""One fresh benchmark process.

    python3 floorbench/worker.py probe|pass|trace WORKLOAD SEED GROUP

``probe`` imports ``floorgw.cli`` and exits; ``pass`` runs the jobs of one
group of the workload once, in the seed's order, through ``floorgw.cli.main``
in-process; ``trace`` does the same with the tracer installed and writes
the spans to ``.floorbench/``.  Job outputs are checked after the pass, outside the
timed region.  The last stdout line is a JSON result whose ``ready`` is
the CLOCK_MONOTONIC reading taken once ``floorgw.cli`` is imported, and
whose ``ready_burst`` is a host speed burst (``hostspeed.py``) timed just
after that.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from floorgw import cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import zlib  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPANS_DIR = ROOT / ".floorbench"

try:  # glibc: hand the heap's free pages back to the OS between jobs
    MALLOC_TRIM = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):
    MALLOC_TRIM = None


def run_job(argv: list[str]) -> tuple[int | None, str, str | None]:
    """(exit code, stdout, error) of one CLI call; code is None if it raised."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv), out.getvalue(), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), out.getvalue(), None
    except Exception as exc:  # a crashing job is a failed job, not a failed run
        return None, out.getvalue(), f"raised {exc!r}"


def run_pass(
    workload: str,
    seed: int,
    group: int,
    tracer: Tracer | None,
    sampler: hostspeed.Sampler | None,
) -> dict:
    """Run the jobs once; wall time is the sum of job latencies.

    With a ``sampler`` (untraced passes), each job's ``latency_s`` leaves
    out the sampler's time and its ``scaled_s`` is scaled by the host
    speed samples taken in and next to it; without one they are equal.
    Between jobs, outside the timed region, the benchmark also frees the previous
    job's cyclic garbage (the sweep's recursive closures keep its diagram
    list alive), returns free heap pages to the OS and keeps only a
    compressed copy of the job's stdout.  A CLI user starts each job with a
    clean heap, and this way neither peak RSS nor collector pauses depend
    on the job order.
    """
    jobs = workloads.jobs_for(workload, seed, group)
    runs = []
    if sampler is not None:
        sampler.start()
    for i, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        gc.collect()
        if MALLOC_TRIM is not None:
            MALLOC_TRIM(0)
        t0 = time.perf_counter()
        code, out, error = run_job(argv)
        t1 = time.perf_counter()
        runs.append((t0, t1, code, zlib.compress(out.encode(), 1), error))
        del out
    if sampler is not None:
        time.sleep(hostspeed.PAD_S)  # a sample after the last job
        sampler.stop()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    refs = checks.load_references()
    records = []
    stdout_bytes = 0
    for argv, (t0, t1, code, packed, error) in zip(jobs, runs):
        latency, scaled = sampler.job(t0, t1) if sampler is not None else (t1 - t0, t1 - t0)
        out = zlib.decompress(packed).decode()
        stdout_bytes += len(out.encode())
        if error is None:
            try:
                error = checks.check_job(argv, code, out, refs)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                error = f"unreadable output: {exc!r}"
        records.append({
            "id": workloads.job_id(argv),
            "latency_s": latency,
            "scaled_s": scaled,
            "digest": checks.digest(out),
            "failure": error,
        })
    result = {
        "wall_s": sum(r["latency_s"] for r in records),
        "rss_kib": rss_kib,
        "jobs": records,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.stdout_bytes"] = stdout_bytes
        result["layers"] = layers
        result["listing_inputs"] = tracer.listing_inputs()
        result["cross_job_repeats"] = tracer.cross_job_repeats()
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"spans-{workload}-seed{seed}-group{group}.bin"
        tracer.write(path, [r["id"] for r in records])
        result["spans_file"] = str(path.relative_to(ROOT))
    return result


def main(argv: list[str]) -> int:
    mode, workload, seed, group = argv[0], argv[1], int(argv[2]), int(argv[3])
    result: dict = {"ready": READY, "ready_burst": hostspeed.burst()}
    if mode != "probe":
        tracer = sampler = None
        if mode == "trace":
            tracer = Tracer()
            tracer.install()
        else:
            sampler = hostspeed.Sampler()
        result.update(run_pass(workload, seed, group, tracer, sampler))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
