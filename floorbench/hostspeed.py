"""Host speed probe: a fixed pure-Python kernel, timed next to the jobs.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.7x, switching within a tenth of a second or holding for minutes, with
process CPU time equal to wall time, so a slow stretch cannot be told from
slow code by the clock alone.  A kernel run of fixed work measures the
host's speed at that moment.  While a pass runs, a ``Sampler`` times one
kernel run every ``INTERVAL_S`` from a SIGALRM handler, in the worker's own
thread; ``Sampler.job`` turns a job's latency into the seconds it would
take on a host where one kernel run takes ``NOMINAL_S``.  The kernel mixes what
floorgw spends its time on: exact rationals, big integers, and small
tuples and lists in dicts.  It runs with the cyclic collector off, so the
program's heap does not change its cost.
"""

from __future__ import annotations

import gc
import signal
from array import array
from fractions import Fraction
from time import perf_counter

# One kernel run at the median speed of a 2-vCPU x86-64 VM; it only sets the
# scale of the reported seconds.
NOMINAL_S = 0.001
INTERVAL_S = 0.05
# Samples this close to a job count towards its speed, so a job shorter
# than the interval still has one near it.
PAD_S = INTERVAL_S


def _kernel() -> int:
    total = Fraction(0)
    for i in range(1, 45):
        total += Fraction(i, i * i + 1)
    big = 1
    for i in range(1, 200):
        big = big * (3 * i + 1) // (i % 7 + 1) + i
    table: dict[tuple[int, int], list[int]] = {}
    for i in range(1250):
        key = (i % 97, i // 97)
        table.setdefault(key, []).append(i)
    return total.numerator % 1000 + big % 1000 + sum(len(v) for v in table.values())


def _timed(repeats: int) -> tuple[float, float]:
    """(start, seconds per kernel run) of ``repeats`` runs, collector off.

    An untimed run first brings the kernel's code and data into the caches,
    so the timed runs do not depend on what the program left there.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        timed = perf_counter()
        for _ in range(repeats):
            _kernel()
        return start, (perf_counter() - timed) / repeats
    finally:
        if enabled:
            gc.enable()


def burst() -> float:
    """Seconds per kernel run now, over ten runs."""
    return _timed(10)[1]


def factor(per_run: list[float]) -> float:
    """Nominal seconds per second of work timed next to these kernel runs.

    The mean of NOMINAL_S / t: the work a host does in a second is
    proportional to 1 / t, so this is the time-weighted rate when the
    samples are evenly spaced in time.
    """
    return sum(NOMINAL_S / t for t in per_run) / len(per_run)


class Sampler:
    """One timed kernel run every ``INTERVAL_S`` of real time, in-thread."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.per_run = array("d")

    def _tick(self, signum, frame) -> None:
        start, per_run = _timed(1)
        self.starts.append(start)
        self.per_run.append(per_run)
        self.ends.append(perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def job(self, t0: float, t1: float) -> tuple[float, float]:
        """(latency, scaled latency) of a job timed from ``t0`` to ``t1``.

        The latency leaves out the sampler's own time inside the job.
        """
        inside = sum(
            min(e, t1) - max(s, t0)
            for s, e in zip(self.starts, self.ends)
            if s < t1 and e > t0
        )
        latency = t1 - t0 - inside
        near = [p for s, p in zip(self.starts, self.per_run) if t0 - PAD_S <= s <= t1 + PAD_S]
        if not near:  # a long C call held the signal back: take the closest
            i = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - t0))
            near = [self.per_run[i]]
        return latency, latency * factor(near)
