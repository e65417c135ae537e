"""Job lists of the three benchmark workloads.

A job is the argv list handed to ``floorgw.cli.main``.  Its id is the argv
joined by spaces; the references in ``references.json`` are keyed by it.
A workload is a list of groups, and each group runs in its own fresh
process.  No two jobs of one group list the same (delta, n), so a cache
added to the program later cannot serve one job from another job's work,
which a CLI user, who runs one job per process, never gets.  The workload
seed only fixes the order in which each group runs its jobs.
"""

from __future__ import annotations

import random

# Pass times at the slow end of what a 2-core x86-64 host showed, with the
# interpreter starts and the output checks; a run makes as many passes as
# fit in its seconds at these times, and at least 2.
NOMINAL_PASS_S = {"severi_counts": 18.0, "series_tables": 9.0, "oracle_grid": 18.0}


def _p2(d: int) -> list[str]:
    return ["--surface", "p2", "--degree", str(d)]


def _fk(k: int, h: int, d: int) -> list[str]:
    return ["--surface", "fk", "--k", str(k), "--h", str(h), "--d", str(d)]


def _genus(g: int) -> list[str]:
    return ["--genus", str(g)]


def severi_counts() -> list[list[list[str]]]:
    surfaces = [(_p2(5), g) for g in (0, 4, 5, 6, 7)]
    surfaces += [(_fk(2, 3, 1), 0), (_fk(3, 3, 0), 0)]
    return [[
        ["count", *surface, *_genus(g), "--refined", "--format", "json"]
        for surface, g in surfaces
    ]]


def series_tables() -> list[list[list[str]]]:
    """Two groups: ``gw`` and ``log-gw`` list the same (delta, n) as the
    ``verify degeneration`` job of their surface and genus."""
    jobs, relative = [], []
    for surface, genera in ((_p2(4), range(4)), (_fk(1, 3, 1), range(3))):
        for g in genera:
            jobs.append(
                ["verify", "degeneration", *surface, *_genus(g), "--order", "48",
                 "--format", "json"]
            )
    for g in range(3):
        relative.append(["gw", *_p2(4), *_genus(g), "--order", "120", "--format", "json"])
    for g in range(2):
        relative.append(
            ["log-gw", *_fk(1, 3, 1), *_genus(g), "--order", "120", "--format", "json"]
        )
    for mu, nu in (("3,2,1", "1,1"), ("4,1", "2"), ("2,2,2", "3"), ("5", "1,1,1")):
        jobs.append(
            ["vertex", "--mu", mu, "--nu", nu, "--order", "120", "--format", "json"]
        )
    for a, b, n in ((3, 0, 11), (2, 1, 9)):
        jobs.append(
            ["verify", "ab", "--a", str(a), "--b", str(b), "--points", str(n),
             "--order", "40", "--format", "json"]
        )
    return [jobs, relative]


def oracle_pairs() -> list[tuple[list[str], int]]:
    """(surface argv, genus) pairs.

    The first 63 mirror the test suite's acceptance grid (P2 degrees 1..3
    and F_k with k, h, d <= 2, h + d >= 1, each at genus 0..2) without the
    18 pairs whose degree another pair of the grid already has: a height-0
    F_k class is the same degree for every k, and F1 (h, 0) is P2 degree h.
    The last 12 are larger F_k classes that stay within the oracle's
    n <= 16 cap (F2 (2,2) only at genus 3, as the grid has its genus 0..2).
    """
    surfaces = [_p2(d) for d in (1, 2, 3)]
    surfaces += [
        _fk(k, h, d)
        for k in range(3)
        for h in range(3)
        for d in range(3)
        if h + d >= 1 and not (h == 0 and k > 0) and not (k == 1 and d == 0)
    ]
    pairs = [(s, g) for s in surfaces for g in range(3)]
    for (k, h, d), genera in (
        ((1, 3, 1), range(4)),
        ((1, 3, 2), range(3)),
        ((2, 3, 0), range(4)),
        ((2, 2, 2), [3]),
    ):
        pairs += [(_fk(k, h, d), g) for g in genera]
    return pairs


def oracle_grid() -> list[list[list[str]]]:
    """Two groups: ``enumerate`` lists the same (delta, n) as ``verify oracle``."""
    pairs = oracle_pairs()
    return [
        [["verify", "oracle", *surface, *_genus(g), "--format", "json"] for surface, g in pairs],
        [["enumerate", *surface, *_genus(g), "--format", "json"] for surface, g in pairs],
    ]


WORKLOADS = {
    "severi_counts": severi_counts,
    "series_tables": series_tables,
    "oracle_grid": oracle_grid,
}


def job_id(argv: list[str]) -> str:
    return " ".join(argv)


def all_jobs(workload: str) -> list[list[str]]:
    return [argv for group in WORKLOADS[workload]() for argv in group]


def jobs_for(workload: str, seed: int, group: int) -> list[list[str]]:
    """The jobs of one group of the workload, in the order fixed by ``seed``."""
    jobs = WORKLOADS[workload]()[group]
    random.Random(seed).shuffle(jobs)
    return jobs
