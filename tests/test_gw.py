"""Generating series: relative, vertex, degeneration, log, F0/F2 identities."""

import re
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

import floorgw.gw
from floorgw import (
    DiagramError,
    GwError,
    GwSeries,
    Partition,
    USeries,
    ab_identity_check,
    classical_count,
    degeneration_cross_check,
    degeneration_series,
    degree_hirzebruch,
    degree_p2,
    enumerate_marked,
    extract_invariant,
    f0_absolute_series,
    f2_relative_dminus2_series,
    gw_relative_series,
    log_series,
    multiplicity,
    points_for_genus,
    sin_factor_series,
    vertex_partitions,
    vertex_series,
)
from helpers import acceptance_grid, bernoulli

F = Fraction


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


def test_extract_invariant_values_and_errors():
    s1 = gw_relative_series(degree_p2(1), 2, 6)
    assert extract_invariant(s1, 1) == F(1, 24)
    s3 = gw_relative_series(degree_p2(3), 8, 8)
    assert extract_invariant(s3, 0) == 12
    assert extract_invariant(s3, 2) == F(21, 160)
    with pytest.raises(GwError):
        extract_invariant(s3, 4)  # u^9 is past the truncation order
    with pytest.raises(GwError):
        extract_invariant(s3, -1)


def test_leading_invariant_is_classical_count():
    for delta, n in acceptance_grid():
        if classical_count(delta, n) == 0:
            continue
        gw = gw_relative_series(delta, n, 16)
        g0 = delta.genus_for_points(n)
        assert extract_invariant(gw, g0) == classical_count(delta, n), (delta.label, n)


def test_series_parity():
    for delta, n in acceptance_grid()[::3]:
        for build in (gw_relative_series, log_series, degeneration_series):
            gw = build(delta, n, 16)
            for k in gw.series.nonzero_exponents():
                assert (k - gw.exponent_offset) % 2 == 0, (build.__name__, delta.label)
    for gw in (
        f0_absolute_series(1, 1, 6, 16),
        f0_absolute_series(2, 0, 8, 16),
        f2_relative_dminus2_series(1, 1, 6, 16),
        f2_relative_dminus2_series(2, 1, 11, 16),
        vertex_series(Partition([2, 1]), Partition([1]), 12),
    ):
        for k in gw.series.nonzero_exponents():
            assert (k - gw.exponent_offset) % 2 == 0, gw.kind


# ------------------------------------------------------------- vertex series


def test_vertex_series_base_case():
    gw = vertex_series(Partition(), Partition(), 8)
    assert gw.series == USeries.one(8)
    assert extract_invariant(gw, 0) == 1


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
    assert extract_invariant(gw, 0) == 1


def test_log_series_p2_cubics_leading():
    gw = log_series(degree_p2(3), 8, 10)
    assert gw.series.valuation == 7
    assert gw.series.coefficient(7) == 12
    assert extract_invariant(gw, 0) == 12


def test_log_series_f0():
    gw = log_series(degree_hirzebruch(0, 1, 1), 3, 8)
    assert gw.series == sin_factor_series(1, 2, 8)
    assert extract_invariant(gw, 0) == 1


def test_log_minimal_genus_matches_classical():
    for delta, n in acceptance_grid():
        if classical_count(delta, n) == 0:
            continue
        gw = log_series(delta, n, 16)
        g0 = delta.genus_for_points(n)
        assert extract_invariant(gw, g0) == classical_count(delta, n)
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
    assert extract_invariant(gw, 0) == 1
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
def test_ab_identity_builds_one_inverse_for_every_j(monkeypatch, a, b, n, g0):
    """One Newton inverse, S^-2, serves every j of the F2 side; the F0
    side's S^(2*g0 - 2) takes one more when g0 = 0."""
    calls = []
    real = floorgw.algebra.USeries.inverse

    def counting(self):
        calls.append(None)
        return real(self)

    monkeypatch.setattr(floorgw.algebra.USeries, "inverse", counting)
    assert ab_identity_check(a, b, n, 24).equal
    assert len(calls) == 1 + (g0 == 0)


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
