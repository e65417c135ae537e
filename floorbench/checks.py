"""Independent references for every benchmark job, and the job check.

Plane counts come from closed formulas in this file (Kontsevich's
recursion, the node polynomials for one and two nodes, and the
maximal-genus and above-maximal-genus cases).  Everything else comes from
``references.json``, which ``make_references.py`` builds once: F_k counts
from the brute-force oracle, vertex series from a sympy expansion, and the
SHA-256 digest of every job's stdout.  Nothing here calls floorgw.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)


@lru_cache(maxsize=None)
def kontsevich(d: int) -> int:
    """Rational plane curves of degree d through 3d - 1 points."""
    if d == 1:
        return 1
    return sum(
        kontsevich(a) * kontsevich(d - a) * a * a * (d - a)
        * ((d - a) * comb(3 * d - 4, 3 * a - 2) - a * comb(3 * d - 4, 3 * a - 1))
        for a in range(1, d)
    )


def plane_count(d: int, g: int) -> int | None:
    """Irreducible genus-g plane curves of degree d through 3d - 1 + g points.

    None where this file has no independent formula.
    """
    nodes = (d - 1) * (d - 2) // 2 - g
    if nodes < 0:
        return 0
    if nodes == 0:
        return 1
    if g == 0:
        return kontsevich(d)
    if nodes == 1:
        return 3 * (d - 1) ** 2
    if nodes == 2 and d >= 4:
        return 3 * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11) // 2
    return None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _option(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def surface_key(argv: list[str]) -> str:
    """'p2 d g' or 'fk k h d g' for a job's surface and genus."""
    g = _option(argv, "--genus")
    if argv[argv.index("--surface") + 1] == "p2":
        return f"p2 {_option(argv, '--degree')} {g}"
    return f"fk {_option(argv, '--k')} {_option(argv, '--h')} {_option(argv, '--d')} {g}"


def classical_count(argv: list[str], refs: dict) -> int:
    key = surface_key(argv)
    if key.startswith("p2"):
        _, d, g = key.split()
        expected = plane_count(int(d), int(g))
        if expected is not None:
            return expected
    return refs["classical"][key]


def _same_series(got: dict, want: dict) -> bool:
    return (
        got["valuation"] == want["valuation"]
        and got["order"] == want["order"]
        and [Fraction(c) for c in got["coefficients"]]
        == [Fraction(c) for c in want["coefficients"]]
    )


def check_job(argv: list[str], code: int, out: str, refs: dict) -> str | None:
    """None if the job's result is right, else the reason it is not."""
    job = " ".join(argv)
    if code != 0:
        return f"exit code {code}"
    if digest(out) != refs["digests"][job]:
        return "stdout digest differs from the reference"
    payload = json.loads(out)
    command = argv[0]
    if command == "verify":
        if payload.get("equal") is not True:
            return "identity reported unequal"
        if argv[1] == "oracle" and payload["sweep_diagrams"] != refs["diagrams"][surface_key(argv)]:
            return "sweep diagram count differs from the oracle reference"
    elif command == "count":
        refined = sum(int(c) for c in payload["refined"]["coefficients"])
        expected = classical_count(argv, refs)
        if payload["classical"] != expected or refined != expected:
            return f"count {payload['classical']} (refined at q=1: {refined}), expected {expected}"
    elif command in ("gw", "log-gw"):
        g_min = payload["invariants"][0]
        expected = classical_count(argv, refs)
        if g_min["g"] != _option(argv, "--genus") or Fraction(g_min["value"]) != expected:
            return f"minimal-genus invariant {g_min}, expected {expected}"
    elif command == "vertex":
        if not _same_series(payload["series"], refs["vertex"][job]):
            return "vertex series differs from the sympy expansion"
    elif command == "enumerate":
        if payload["count"] != refs["diagrams"][surface_key(argv)]:
            return "diagram count differs from the oracle reference"
    else:
        return f"no reference for command {command}"
    return None
