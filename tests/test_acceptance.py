"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is exact equality of integers, rationals or series
coefficients.
"""

import time
from fractions import Fraction

from floorgw import (
    LaurentPolyS,
    ab_identity_check,
    brute_force_enumerate,
    brute_force_refined_count,
    classical_count,
    degeneration_cross_check,
    degree_p2,
    enumerate_marked,
    gw_relative_series,
    log_series,
    lp_eval_at_one,
    q_integer,
    refined_count,
)
from floorgw.algebra import lp_substitute_exponential, sin_factor_series
from helpers import acceptance_grid, diagram_key, nonzero_exponents

F = Fraction


def report(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_classical_severi_numbers():
    start = time.monotonic()
    values = {}
    for d, n in [(1, 2), (2, 5), (3, 8), (4, 11)]:
        values[d] = classical_count(degree_p2(d), n)
    elapsed = time.monotonic() - start
    ok = values == {1: 1, 2: 1, 3: 12, 4: 620} and elapsed < 10.0
    report(
        1,
        ok,
        f"plane classical counts {values} (expected 1, 1, 12, 620) "
        f"in {elapsed:.2f}s",
    )


def test_criterion_2_refined_cubic_fixture():
    refined = refined_count(degree_p2(3), 8)
    expected = LaurentPolyS(-2, [1, 0, 10, 0, 1])
    ok = (
        refined == expected
        and lp_eval_at_one(refined) == 12
        and refined.is_palindromic()
    )
    report(2, ok, f"refined count for plane cubics is {refined}, value 12 at s=1")


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    ok = True
    for delta, n in acceptance_grid():
        sweep = sorted(map(diagram_key, enumerate_marked(delta, n)))
        brute = sorted(map(diagram_key, brute_force_enumerate(delta, n)))
        if sweep != brute or refined_count(delta, n) != brute_force_refined_count(delta, n):
            ok = False
            break
        checked += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    report(
        3,
        ok,
        f"sweep and brute force agree exactly on {checked} (degree, n) "
        f"instances in {elapsed:.2f}s",
    )


def test_criterion_4_degeneration_cross_check():
    audit = degeneration_cross_check(degree_p2(1), 2, 16)
    ok = audit.equal and audit.diagram_sum.valuation == 1
    checked = 1
    for delta, n in acceptance_grid():
        if not degeneration_cross_check(delta, n, 16).equal:
            ok = False
            break
        checked += 1
    report(
        4,
        ok,
        f"diagram-sum route equals refined-count route to order u^16 on "
        f"{checked} instances, including the plane degree-1 exponent audit",
    )


def test_criterion_5_series_fixtures():
    inv = sin_factor_series(1, -1, 5)
    gw = gw_relative_series(degree_p2(3), 8, 7).series
    ok = (
        [inv.coefficient(k) for k in (-1, 1, 3)] == [1, F(1, 24), F(7, 5760)]
        and [gw.coefficient(k) for k in (1, 3, 5)] == [12, F(-3, 2), F(21, 160)]
    )
    report(
        5,
        ok,
        "(2 sin(u/2))^-1 = u^-1 + u/24 + 7u^3/5760 + ...; cubic relative "
        "series = 12u - 3/2 u^3 + 21/160 u^5 + ...",
    )


def test_criterion_6_abramovich_bertram():
    start = time.monotonic()
    checked = 0
    ok = True
    for a in range(3):
        for b in range(3):
            for g in range(5):
                n = g - 1 + 4 * a + 2 * b
                if n < 0:
                    continue
                result = ab_identity_check(a, b, n, 16)
                if not (result.polynomial_equal and result.series_equal):
                    ok = False
                    break
                checked += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    report(
        6,
        ok,
        f"F0/F2 identity holds at polynomial and series level on {checked} "
        f"(a, b, n) triples in {elapsed:.2f}s",
    )


def test_criterion_7_log_conversion():
    checked = 0
    ok = True
    for delta, n in acceptance_grid():
        g0 = n + 1 - delta.size
        log = log_series(delta, n, 16)
        rel = gw_relative_series(delta, n, 16)
        if classical_count(delta, n) != 0:
            if not (
                log.invariant(g0)
                == rel.invariant(g0)
                == classical_count(delta, n)
            ):
                ok = False
                break
            if log.series.valuation != 2 * g0 + log.exponent_offset:
                ok = False
                break
        if any((k - log.exponent_offset) % 2 for k in nonzero_exponents(log.series)):
            ok = False
            break
        checked += 1
    report(
        7,
        ok,
        f"minimal-genus log invariant equals the classical count, with parity "
        f"and valuation invariants, on {checked} instances",
    )


def test_criterion_8_q_integer_suite():
    ok = True
    for m in range(1, 9):
        lhs = lp_substitute_exponential(q_integer(m), 16) * sin_factor_series(1, 1, 16)
        if lhs != sin_factor_series(m, 1, 16):
            ok = False
    for m in range(1, 13):
        p = q_integer(m)
        if not p.is_palindromic() or lp_eval_at_one(p) != m:
            ok = False
    report(
        8,
        ok,
        "[m]_q * 2 sin(u/2) = 2 sin(mu/2) to u^16 for m <= 8; palindromy and "
        "value m at q = 1 for m <= 12",
    )
