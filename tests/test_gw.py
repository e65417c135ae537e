"""Generating series: relative, vertex, degeneration, log, F0/F2 identities."""

import copy
import pickle
import re
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from unittest.mock import patch

import pytest

import floorgw.gw
from floorgw import (
    DiagramError,
    GwError,
    GwSeries,
    LaurentPolyS,
    Partition,
    USeries,
    ab_identity_check,
    classical_count,
    degeneration_cross_check,
    degeneration_series,
    degree_hirzebruch,
    degree_p2,
    enumerate_marked,
    gw_relative_series,
    log_series,
    multiplicity,
    points_for_genus,
    rational_to_str,
    vertex_series,
)
from floorgw.algebra import _sine_series, sin_factor_series
from floorgw.diagrams import vertex_partitions
from floorgw.gw import f0_absolute_series, f2_relative_dminus2_series
from helpers import acceptance_grid, bernoulli, nonzero_exponents

F = Fraction


# ------------------------------------------------------ copies and pickles


@pytest.mark.parametrize("make", [
    lambda: degree_p2(3),
    lambda: degree_hirzebruch(1, 2, 3),
    lambda: gw_relative_series(degree_p2(3), 8),
    lambda: log_series(degree_hirzebruch(1, 3, 1), 10),
], ids=["p2", "hirzebruch", "relative-series", "log-series"])
def test_pickle_and_copies_keep_a_degree_and_a_series(make):
    """The immutable classes refuse the default rebuild, which sets each slot."""
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and hash(twin) == hash(value)
        assert twin.to_json() == value.to_json()
        # a series keeps its degree
        assert getattr(twin, "delta", twin).label == getattr(value, "delta", value).label


# ----------------------------------------------------------- relative series


def test_relative_series_p2_degree1():
    gw = gw_relative_series(degree_p2(1), 2, 6)
    assert gw.series.valuation == -1
    assert [gw.series.coefficient(k) for k in (-1, 1, 3)] == [1, F(1, 24), F(7, 5760)]


def test_relative_series_of_the_line_is_the_lambda_g_integral():
    """The line through 2 points: the invariants are 1 at g = 0 and, from
    g = 1 on, the lambda_g integral (2^(2g-1) - 1) / 2^(2g-1) * |B_2g| / (2g)!
    (Faber-Pandharipande, math/9810173), which shares no code with floorgw."""
    b = bernoulli(40)  # order 40 knows u^(2g - 1) up to g = 20
    expected = [F(1)] + [F(2 ** (2 * g - 1) - 1, 2 ** (2 * g - 1)) * abs(b[2 * g])
                         / factorial(2 * g) for g in range(1, 21)]
    assert gw_relative_series(degree_p2(1), 2, 40).invariants() == list(enumerate(expected))


def test_relative_series_p2_cubics():
    gw = gw_relative_series(degree_p2(3), 8, 7)
    assert [gw.series.coefficient(k) for k in (1, 3, 5)] == [12, F(-3, 2), F(21, 160)]


def test_relative_series_f0_trivial_prefactor():
    # one floor, one contact on each horizontal divisor: exponent 0, count 1
    gw = gw_relative_series(degree_hirzebruch(0, 1, 1), 3, 6)
    assert gw.series == USeries.one(6)


def test_invariant_values_and_errors():
    s1 = gw_relative_series(degree_p2(1), 2, 6)
    assert s1.invariant(1) == F(1, 24)
    s3 = gw_relative_series(degree_p2(3), 8, 8)
    assert s3.invariant(0) == 12
    assert s3.invariant(2) == F(21, 160)
    with pytest.raises(GwError):
        s3.invariant(4)  # u^9 is past the truncation order
    with pytest.raises(GwError):
        s3.invariant(-1)
    for g in (1.0, True, "1"):
        with pytest.raises(GwError, match=re.escape(f"genus must be an integer, got {g!r}")):
            s3.invariant(g)


def test_invariant_texts_are_the_texts_of_the_invariants():
    """Each invariant's text is the series' text at its exponent, "0" below
    the valuation (the empty class's series is zero)."""
    built = [make(delta, n, 24) for delta, n in acceptance_grid()[::4]
             for make in (gw_relative_series, log_series, degeneration_series)]
    built += [vertex_series(Partition([3, 2, 1]), Partition([1, 1]), 40),
              f0_absolute_series(0, 0, 2, 12), f0_absolute_series(1, 0, 3, 20)]
    for gw in built:
        assert gw._invariant_texts() == [(g, rational_to_str(v)) for g, v in gw.invariants()]


def test_leading_invariant_is_classical_count():
    for delta, n in acceptance_grid():
        if classical_count(delta, n) == 0:
            continue
        gw = gw_relative_series(delta, n, 16)
        g0 = n + 1 - delta.size
        assert gw.invariant(g0) == classical_count(delta, n), (delta.label, n)


def test_series_parity():
    for delta, n in acceptance_grid()[::3]:
        for build in (gw_relative_series, log_series, degeneration_series):
            gw = build(delta, n, 16)
            for k in nonzero_exponents(gw.series):
                assert (k - gw.exponent_offset) % 2 == 0, (build.__name__, delta.label)
    for gw in (
        f0_absolute_series(1, 1, 6, 16),
        f0_absolute_series(2, 0, 8, 16),
        f2_relative_dminus2_series(1, 1, 6, 16),
        f2_relative_dminus2_series(2, 1, 11, 16),
        vertex_series(Partition([2, 1]), Partition([1]), 12),
    ):
        for k in nonzero_exponents(gw.series):
            assert (k - gw.exponent_offset) % 2 == 0, gw.kind


# ------------------------------------------------------------- vertex series


def test_vertex_series_base_case():
    gw = vertex_series(Partition(), Partition(), 8)
    assert gw.series == USeries.one(8)
    assert gw.invariant(0) == 1


def test_vertex_series_single_parts():
    one = vertex_series(Partition([1]), Partition(), 7)
    assert [one.series.coefficient(k) for k in (1, 3, 5)] == [
        1,
        F(-1, 24),
        F(1, 1920),
    ]
    two = vertex_series(Partition([2]), Partition(), 7)
    assert [two.series.coefficient(k) for k in (1, 3, 5)] == [1, F(-1, 6), F(1, 120)]


def test_vertex_series_leading_normalization():
    # each factor (1/l) 2 sin(l*u/2) ~ u, so the leading coefficient at
    # u^(len(mu)+len(nu)) is 1; rescaled by prod(l^mult) it becomes the
    # leading coefficient of prod (2 sin(l*u/2))^mult
    for mu, nu in [((2, 1), (1,)), ((3,), (2, 2)), ((1, 1, 1), ())]:
        mu, nu = Partition(mu), Partition(nu)
        gw = vertex_series(mu, nu, len(mu) + len(nu) + 5)
        lead = gw.series.coefficient(len(mu) + len(nu))
        assert lead == 1
        scale = 1
        for p in list(mu) + list(nu):
            scale *= p
        scaled = gw.series * scale
        assert scaled.coefficient(len(mu) + len(nu)) == scale


# ------------------------------------------------- degeneration cross-check


def test_degeneration_series_examples():
    # single floor fed by two unit edges: the square of 2 sin(u/2)
    gw = degeneration_series(degree_hirzebruch(2, 1, 0), 3, 8)
    assert gw.series == sin_factor_series(1, 2, 8)
    # plane degree 1: diagram sum is 2 sin(u/2) itself (valuation +1, not -1)
    gw1 = degeneration_series(degree_p2(1), 2, 8)
    assert gw1.series == sin_factor_series(1, 1, 8)


def test_degeneration_exponent_audit_p2_degree1():
    """Diagram sum valuation exceeds the relative valuation by exactly 2h."""
    delta = degree_p2(1)
    rel = gw_relative_series(delta, 2, 12)
    deg = degeneration_series(delta, 2, 12)
    assert rel.series.valuation == -1
    assert deg.series.valuation == 1
    assert deg.series.valuation - rel.series.valuation == 2 * delta.height
    report = degeneration_cross_check(delta, 2, 12)
    assert report.equal


def test_degeneration_equals_relative_route_for_cubics():
    report = degeneration_cross_check(degree_p2(3), 8, 16)
    assert report.equal
    assert report.diagram_sum == report.from_refined


def test_degeneration_cross_check_grid():
    for delta, n in acceptance_grid():
        assert degeneration_cross_check(delta, n, 16).equal, (delta.label, n)


@pytest.mark.parametrize(
    "delta,g",
    [(degree_p2(3), 0), (degree_p2(4), 1), (degree_hirzebruch(1, 2, 1), 0),
     (degree_hirzebruch(1, 2, 1), 1)],
    ids=["P2d3g0", "P2d4g1", "F1(2,1)g0", "F1(2,1)g1"],
)
def test_degeneration_series_equals_literal_diagram_sum(delta, g):
    """The per-profile sum equals sum_D mult(D) prod_V vertex(mu(V), nu(V))."""
    n, order = points_for_genus(delta, g), 16
    literal = USeries.zero(order)
    for diagram in enumerate_marked(delta, n):
        product = USeries.one(order)
        for v in diagram.vertex_positions:
            product = product * vertex_series(*vertex_partitions(diagram, v), order).series
        literal = literal + product.truncate(order) * multiplicity(diagram)
    assert not literal.is_zero()
    assert degeneration_series(delta, n, order).series == literal


def test_degeneration_matches_log_series_invariants():
    delta = degree_p2(3)
    deg = degeneration_series(delta, 8, 16)
    log = log_series(delta, 8, 16)
    assert deg.exponent_offset == log.exponent_offset
    assert deg.invariants() == log.invariants()


# ----------------------------------------------------------------- log series


def test_log_series_p2_degree1():
    gw = log_series(degree_p2(1), 2, 8)
    assert gw.series == sin_factor_series(1, 1, 8)
    assert gw.invariant(0) == 1


def test_log_series_p2_cubics_leading():
    gw = log_series(degree_p2(3), 8, 10)
    assert gw.series.valuation == 7
    assert gw.series.coefficient(7) == 12
    assert gw.invariant(0) == 12


def test_log_series_f0():
    gw = log_series(degree_hirzebruch(0, 1, 1), 3, 8)
    assert gw.series == sin_factor_series(1, 2, 8)
    assert gw.invariant(0) == 1


def test_log_minimal_genus_matches_classical():
    for delta, n in acceptance_grid():
        if classical_count(delta, n) == 0:
            continue
        gw = log_series(delta, n, 16)
        g0 = n + 1 - delta.size
        assert gw.invariant(g0) == classical_count(delta, n)
        assert gw.series.valuation == 2 * g0 + gw.exponent_offset


# ----------------------------------------------------------- F0 / F2 series


def test_f2_series_single_floor():
    gw = f2_relative_dminus2_series(1, 0, 3, 6)
    assert gw.series.valuation == -2
    assert [gw.series.coefficient(k) for k in (-2, 0, 2, 4)] == [
        1,
        F(1, 12),
        F(1, 240),
        F(1, 6048),
    ]


def test_f2_series_zero_when_no_floors():
    assert f2_relative_dminus2_series(0, 2, 3, 8).series.is_zero()


def test_f2_series_leading_is_classical():
    gw = f2_relative_dminus2_series(1, 2, 7, 8)
    assert gw.series.coefficient(0) == classical_count(degree_hirzebruch(2, 1, 2), 7)


def test_f0_series_examples():
    gw = f0_absolute_series(1, 0, 3, 6)
    assert gw.series.valuation == -2
    assert gw.invariant(0) == 1
    assert f0_absolute_series(1, 0, 4, 6).series.is_zero()
    assert f0_absolute_series(0, 1, 1, 6).series.is_zero()


def test_f0_f2_preconditions():
    with pytest.raises(DiagramError, match=re.escape(
            "no diagrams: n = 2 gives negative genus -1 for F0(h=1,d=1)")):
        f0_absolute_series(1, 0, 2, 8)  # n + 1 - 4a - 2b < 0
    with pytest.raises(DiagramError, match=re.escape(
            "no diagrams: n = 4 gives negative genus -1 for F2(h=1,d=1)")):
        f2_relative_dminus2_series(1, 1, 4, 8)
    with pytest.raises(DiagramError, match=re.escape(
            "Hirzebruch parameters must be nonnegative integers, got (0, -1, -1)")):
        f0_absolute_series(-1, 0, 3, 8)


@pytest.mark.parametrize("order", [8, 16])
def test_f0_series_serves_a_negative_b(order):
    """a*D + (a+b)*F is a class when a + b >= 0, b < 0 included: 2D + F is
    D + 2F with the two rulings of P1 x P1 swapped."""
    assert (f0_absolute_series(2, -1, 5, order).series
            == f0_absolute_series(1, 1, 5, order).series)


def test_empty_f_class_counts_zero_at_genus_n_plus_one():
    for make in (f0_absolute_series, f2_relative_dminus2_series):
        gw = make(0, 0, 2, 12)
        assert gw.delta is None and gw.g_min == 3 and gw.series.is_zero()
        with pytest.raises(DiagramError, match=re.escape("n must be nonnegative, got -1")):
            make(0, 0, -1, 12)
        for n in (2.0, True, "2"):
            with pytest.raises(DiagramError, match=re.escape(f"n must be an integer, got {n!r}")):
                make(0, 0, n, 12)


# ------------------------------------------------------ Abramovich-Bertram


def test_ab_identity_fixtures():
    r = ab_identity_check(1, 0, 3, 12)
    assert r.equal
    assert r.lhs_polynomial == r.rhs_polynomial
    assert sum(r.lhs_polynomial.coefficients) == 1

    r = ab_identity_check(1, 0, 4, 12)
    assert r.equal
    assert r.lhs_polynomial.is_zero()

    r = ab_identity_check(2, 0, 7, 12)
    assert r.equal
    assert str(r.lhs_polynomial) == "s^-2 + 10 + s^2"


def test_ab_identity_rejects_bad_parameters():
    with pytest.raises(DiagramError, match=re.escape(
            "no diagrams: n = 2 gives negative genus -1 for F0(h=1,d=1)")):
        ab_identity_check(1, 0, 2, 12)
    with pytest.raises(DiagramError, match=re.escape(
            "Hirzebruch parameters must be nonnegative integers, got (0, -1, -1)")):
        ab_identity_check(-1, 0, 3, 12)


@pytest.mark.parametrize("a,b,n,order,message", [
    # F0 (1, 0) is a class, but the F2 class (a, b) at j = 0 is not
    (1, -1, 5, 12, "Hirzebruch parameters must be nonnegative integers, got (2, 1, -1)"),
    (0, 0, -1, 12, "n must be nonnegative, got -1"),
    # the classes are refused before the order is checked
    (1, 0, 2, 501, "no diagrams: n = 2 gives negative genus -1 for F0(h=1,d=1)"),
    # a and b are refused as integers before their sum is taken
    ("x", 0, 5, 16, "a must be an integer, got 'x'"),
    (3, "x", 5, 16, "b must be an integer, got 'x'"),
])
def test_ab_identity_refuses_a_class_before_counting(monkeypatch, a, b, n, order, message):
    def no_count(delta, n):
        raise AssertionError("counted before every class was built")

    monkeypatch.setattr(floorgw.gw, "refined_count", no_count)
    with pytest.raises(DiagramError, match=re.escape(message)):
        ab_identity_check(a, b, n, order)


def test_ab_identity_grid():
    for a in range(3):
        for b in range(3):
            for g in range(5):
                n = g - 1 + 4 * a + 2 * b
                if n < 0:
                    continue
                report = ab_identity_check(a, b, n, 16)
                assert report.polynomial_equal, (a, b, n)
                assert report.series_equal, (a, b, n)


def test_ab_identity_counts_each_class_once(monkeypatch):
    calls = Counter()
    real = floorgw.gw.refined_count

    def counting(delta, n):
        calls[(delta, n)] += 1
        return real(delta, n)

    monkeypatch.setattr(floorgw.gw, "refined_count", counting)
    for a, b, n in [(2, 0, 7), (1, 1, 6), (2, 1, 10)]:
        calls.clear()
        assert ab_identity_check(a, b, n, 12).equal
        assert calls and max(calls.values()) == 1, (a, b, n, calls)


@pytest.mark.parametrize("a,b,n,g0", [(3, 0, 11, 0), (2, 1, 9, 0), (3, 2, 16, 1), (2, 3, 14, 1)])
def test_ab_identity_takes_no_series_power(monkeypatch, a, b, n, g0):
    """An equal report substitutes its count sum times S^(2*g0 - 2) once, the
    right series being the left one: one Newton inverse of S^2 and two
    substitutions (S^2 and the polynomial) when g0 = 0, else one
    substitution, and no series power."""
    calls = Counter()
    real_inverse, real_pow = floorgw.algebra.USeries.inverse, floorgw.algebra.USeries.__pow__
    real_substitute = floorgw.algebra._substitute

    def counting_substitute(p, turns, order):
        calls["substitute"] += 1
        return real_substitute(p, turns, order)

    def counting_inverse(self):
        calls["inverse"] += 1
        return real_inverse(self)

    def counting_pow(self, k):
        calls["pow"] += 1
        return real_pow(self, k)

    monkeypatch.setattr(floorgw.algebra.USeries, "inverse", counting_inverse)
    monkeypatch.setattr(floorgw.algebra.USeries, "__pow__", counting_pow)
    monkeypatch.setattr(floorgw.algebra, "_substitute", counting_substitute)
    assert ab_identity_check(a, b, n, 24).equal
    assert calls == Counter(inverse=int(g0 == 0), substitute=2 if g0 == 0 else 1)


@pytest.mark.parametrize("a,b,n,g0", [(2, 1, 9, 0), (3, 2, 16, 1)])
def test_a_failing_ab_identity_reports_both_sides(monkeypatch, a, b, n, g0):
    """With one F2 class miscounted, both levels fail and each series is its
    own polynomial times S^(2*g0 - 2), the right one substituted apart."""
    real, wrong = floorgw.gw._count, degree_hirzebruch(2, a - 1, b + 2)

    def miscounting(delta, n):
        count = real(delta, n)
        return count + LaurentPolyS.one() if delta == wrong else count

    monkeypatch.setattr(floorgw.gw, "_count", miscounting)
    report = ab_identity_check(a, b, n, 24)
    assert not report.polynomial_equal and not report.series_equal and not report.equal
    for series, polynomial in ((report.lhs_series, report.lhs_polynomial),
                               (report.rhs_series, report.rhs_polynomial)):
        assert series == _sine_series(polynomial, [(1, 2 * g0 - 2)], 24)


def assert_ab_series_matches_paper_form(a: int, b: int, n: int, order: int) -> None:
    """The report's right series equals the paper's form, built term by term as
    series: sum_j C(b+2j, j) * (F2/D_(-2) series) * S^-(b+2j), each term wide
    enough to know ``order`` and the sum truncated there.  The terms may be
    wider than the order cap, which sizes requests, not this arithmetic."""
    wide = order + 2 * a + b + 2
    paper = USeries.zero(order)
    with patch.object(floorgw.gw, "_ORDER_CAP", max(floorgw.gw._ORDER_CAP, wide)):
        for j in range(a + 1):
            d = b + 2 * j
            term = (f2_relative_dminus2_series(a - j, d, n, wide).series
                    * sin_factor_series(1, -d, wide))
            paper = paper + term.truncate(order) * comb(d, j)
    assert ab_identity_check(a, b, n, order).rhs_series == paper, (a, b, n, order)


def test_ab_series_matches_paper_form():
    """Every (a, b, n, order) with a, b <= 3, n <= 11 whose F0 class exists and
    whose order exceeds the valuation 2*g0 - 2."""
    checked = 0
    for order in (16, 40):
        for a in range(4):
            for b in range(4):
                for n in range(12):
                    g0 = n + 1 - 4 * a - 2 * b
                    if 0 <= g0 and 2 * g0 - 2 < order:
                        assert_ab_series_matches_paper_form(a, b, n, order)
                        checked += 1
    assert checked == 140


def test_degeneration_cross_check_takes_one_forward_pass(monkeypatch):
    """Both routes read one weight_profiles pass: the diagram sum sums its
    profiles and the refined count folds them."""
    calls = Counter()
    real = floorgw.diagrams.weight_profiles

    def counting(delta, n):
        calls[(delta, n)] += 1
        return real(delta, n)

    # refined_count reaches the pass through the diagrams module's own name
    monkeypatch.setattr(floorgw.gw, "weight_profiles", counting)
    monkeypatch.setattr(floorgw.diagrams, "weight_profiles", counting)
    for delta, n in [(degree_p2(3), 9), (degree_hirzebruch(1, 2, 1), 7), (degree_p2(1), 2)]:
        calls.clear()
        assert degeneration_cross_check(delta, n, 16).equal
        assert calls == {(delta, n): 1}, (delta, n, calls)


@pytest.mark.parametrize("step", [1, -1])
@pytest.mark.parametrize("delta", [degree_p2(3), degree_hirzebruch(1, 2, 1)],
                         ids=["P2d3g0", "F1(2,1)g0"])
def test_degeneration_cross_check_fails_on_a_moved_fold(monkeypatch, delta, step):
    """The check compares the profiles' sine products with the packed fold: a
    fold whose middle coefficient moves by one, still palindromic, fails it."""
    real = floorgw.gw.fold_refined

    def moved(profiles):
        folded = real(profiles) + LaurentPolyS(0, (step,))
        assert folded.is_palindromic()
        return folded

    monkeypatch.setattr(floorgw.gw, "fold_refined", moved)
    assert not degeneration_cross_check(delta, points_for_genus(delta, 0), 16).equal


# ------------------------------------------------------------ the order rule

# (kind, build(order), valuation 2*g_min + exponent_offset); the zero cases
# have a zero refined count, which once let any order through.
ORDER_CASES = [
    ("relative", lambda o: gw_relative_series(degree_p2(3), 8, o), 1),
    ("relative_zero", lambda o: gw_relative_series(degree_p2(1), 3, o), 1),
    ("log", lambda o: log_series(degree_hirzebruch(1, 2, 1), 7, o), 6),
    ("degeneration", lambda o: degeneration_series(degree_p2(2), 5, o), 4),
    ("degeneration_zero", lambda o: degeneration_series(degree_p2(2), 8, o), 10),
    ("absolute_F0", lambda o: f0_absolute_series(1, 0, 3, o), -2),
    ("absolute_F0_zero", lambda o: f0_absolute_series(0, 1, 1, o), -2),
    ("relative_F2_Dminus2", lambda o: f2_relative_dminus2_series(1, 1, 6, o), 1),
    ("vertex", lambda o: vertex_series(Partition([2, 1]), Partition([1]), o), 3),
    ("AB", lambda o: ab_identity_check(1, 0, 4, o), 0),
]


@pytest.mark.parametrize("build,valuation", [c[1:] for c in ORDER_CASES],
                         ids=[c[0] for c in ORDER_CASES])
def test_order_one_past_the_valuation_is_accepted(build, valuation):
    result = build(valuation + 1)
    if isinstance(result, GwSeries):
        assert result.series.order == valuation + 1
        assert 2 * result.g_min + result.exponent_offset == valuation
    else:
        assert result.equal
        assert result.lhs_series.order == valuation + 1


@pytest.mark.parametrize("build,valuation", [c[1:] for c in ORDER_CASES],
                         ids=[c[0] for c in ORDER_CASES])
def test_order_at_the_valuation_is_rejected_before_counting(
    monkeypatch, build, valuation
):
    def forbidden(*args):
        raise AssertionError("counted or listed before the order check")

    monkeypatch.setattr(floorgw.gw, "refined_count", forbidden)
    monkeypatch.setattr(floorgw.gw, "weight_profiles", forbidden)
    message = (
        f"order {valuation} is too small: the series starts at u^{valuation}, "
        f"so the order must be at least {valuation + 1}"
    )
    with pytest.raises(GwError, match=re.escape(message)):
        build(valuation)


@pytest.mark.parametrize("build", [c[1] for c in ORDER_CASES], ids=[c[0] for c in ORDER_CASES])
@pytest.mark.parametrize("order", [16.0, True, "16"])
def test_order_that_is_not_an_int_is_rejected_before_counting(monkeypatch, build, order):
    """An order must be an int, as a degree must: never a float, a bool or a str."""
    def forbidden(*args):
        raise AssertionError("counted or listed before the order check")

    monkeypatch.setattr(floorgw.gw, "refined_count", forbidden)
    monkeypatch.setattr(floorgw.gw, "weight_profiles", forbidden)
    with pytest.raises(GwError, match=re.escape(f"order must be an integer, got {order!r}")):
        build(order)


# ------------------------------------------------------ records: shape and IO


def test_gw_series_json():
    gw = gw_relative_series(degree_p2(1), 2, 6)
    # the three records are named tuples with these fields, in this order
    for record, names in [
        (gw, ("series", "kind", "delta", "n", "exponent_offset", "g_min")),
        (degeneration_cross_check(degree_p2(1), 2, 6),
         ("delta", "n", "diagram_sum", "from_refined", "equal")),
        (ab_identity_check(1, 0, 4, 8),
         ("a", "b", "n", "lhs_polynomial", "rhs_polynomial", "polynomial_equal",
          "lhs_series", "rhs_series", "series_equal")),
    ]:
        assert isinstance(record, tuple) and record._fields == names
    assert gw == (gw.series, "relative", degree_p2(1), 2, -1, 0)
    data = gw.to_json()
    assert data["kind"] == "relative"
    assert data["delta"]["family"] == "p2"
    assert data["series"]["valuation"] == -1
    assert data["invariants"][0] == {"g": 0, "value": "1"}
    assert data["invariants"][1] == {"g": 1, "value": "1/24"}
    assert USeries.from_json(data["series"]) == gw.series


def test_relative_series_against_independent_symbolic_expansion():
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols("u")
    expr = (2 * sympy.cos(u) + 10) * 2 * sympy.sin(u / 2)
    expansion = sympy.series(expr, u, 0, 8).removeO()
    ours = gw_relative_series(degree_p2(3), 8, 8).series
    for k in range(ours.valuation, 8):
        assert F(ours.coefficient(k)) == F(str(sympy.nsimplify(expansion.coeff(u, k))))
