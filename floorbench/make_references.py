"""Build ``references.json``, the benchmark's stored references.

Run once from the repository root, at the commit whose output is pinned:

    python3 floorbench/make_references.py

It records, for every job of every workload:
* F_k classical counts and diagram counts from the brute-force oracle
  (``floorgw.oracle``, which shares no code with the sweep enumerator);
* each vertex series from a sympy expansion of prod_l ((1/l) 2 sin(l*u/2));
* the SHA-256 digest of each job's stdout, so later runs must produce
  byte-identical output.
Plane counts are not stored: ``checks.py`` derives them from formulas.
It then checks every job against the finished references.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import sympy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from floorgw import cli  # noqa: E402
from floorgw.algebra import lp_eval_at_one  # noqa: E402
from floorgw.diagrams import degree_hirzebruch, degree_p2, points_for_genus  # noqa: E402
from floorgw.oracle import brute_force_enumerate, brute_force_refined_count  # noqa: E402


def _delta_n(key: str):
    family, *params = key.split()
    *shape, g = (int(p) for p in params)
    delta = degree_p2(*shape) if family == "p2" else degree_hirzebruch(*shape)
    return delta, points_for_genus(delta, g)


def oracle_references(jobs: list[list[str]]) -> tuple[dict, dict]:
    classical_keys, diagram_keys = set(), set()
    for argv in jobs:
        if argv[0] in ("count", "gw", "log-gw"):
            key = checks.surface_key(argv)
            if key.startswith("fk"):
                classical_keys.add(key)
        elif argv[0] == "enumerate" or argv[:2] == ["verify", "oracle"]:
            diagram_keys.add(checks.surface_key(argv))
    classical = {}
    for key in sorted(classical_keys):
        classical[key] = lp_eval_at_one(brute_force_refined_count(*_delta_n(key)))
        print(f"oracle classical {key}: {classical[key]}", file=sys.stderr)
    diagrams = {key: len(brute_force_enumerate(*_delta_n(key))) for key in sorted(diagram_keys)}
    return classical, diagrams


def sympy_vertex(mu: str, nu: str, order: int) -> dict:
    """prod_l ((1/l) 2 sin(l*u/2))^(m_l) to O(u^order), in USeries JSON form."""
    u = sympy.symbols("u")
    sin = sympy.series(sympy.sin(u), u, 0, order + 1).removeO()
    parts = [int(p) for p in f"{mu},{nu}".split(",") if p]
    product = sympy.Poly(1, u)
    for part in parts:
        factor = sympy.Poly(sympy.Rational(2, part) * sin.subs(u, sympy.Rational(part, 2) * u), u)
        product = sympy.Poly.from_dict(
            {k: c for k, c in (product * factor).as_dict().items() if k[0] < order}, u
        )
    coeffs = [product.coeff_monomial(u**k) for k in range(order)]
    valuation = next(k for k, c in enumerate(coeffs) if c != 0)
    return {
        "valuation": valuation,
        "order": order,
        "coefficients": [str(c) for c in coeffs[valuation:]],
    }


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main() -> int:
    jobs = [argv for name in workloads.WORKLOADS for argv in workloads.all_jobs(name)]
    classical, diagrams = oracle_references(jobs)
    vertex = {}
    for argv in jobs:
        if argv[0] == "vertex":
            mu, nu = argv[argv.index("--mu") + 1], argv[argv.index("--nu") + 1]
            vertex[workloads.job_id(argv)] = sympy_vertex(mu, nu, int(argv[argv.index("--order") + 1]))
    outputs = {workloads.job_id(argv): run_cli(argv) for argv in jobs}
    refs = {
        "classical": classical,
        "diagrams": diagrams,
        "vertex": vertex,
        "digests": {job: checks.digest(out) for job, (_, out) in outputs.items()},
    }
    failures = 0
    for argv in jobs:
        code, out = outputs[workloads.job_id(argv)]
        reason = checks.check_job(argv, code, out, refs)
        if reason:
            failures += 1
            print(f"FAIL {workloads.job_id(argv)}: {reason}", file=sys.stderr)
    if failures:
        print(f"{failures} job(s) disagree with the references; nothing written", file=sys.stderr)
        return 1
    with open(checks.REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {checks.REFERENCES.name}: {len(jobs)} jobs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
