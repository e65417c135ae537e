"""Generating series of relative and log Gromov-Witten invariants.

The engine turns refined floor-diagram counts into invariant tables through
the substitution q = e^(iu).  Writing S for the series 2 sin(u/2) and g0 for
the minimal genus n + 1 - |delta|, every series built from a refined count
is (refined count)|_{q=e^(iu)} * S^(2*g0 + offset), with the genus-g
invariant at u^(2g + offset).  Only the offset (``exponent_offset``) differs:
d_b + d_t - 2 for the relative series, 2h + d_b + d_t - 2 for the log series
(relative * S^(2h)), -2 for the F0 absolute series and d - 2 for the F2
series relative to D_(-2).  One builder, ``_count_series``, makes all four:
it checks the order, then takes the count.  ``_f_class`` builds the F0 and
F2 classes, the empty class h = d = 0 counting 0 at genus n + 1.
``algebra._sine_series`` builds every series here, a Laurent polynomial
times sine powers substituted once: the count series, the vertex, the
diagram sum and the checks' sides.
Two series do not start from the count:

* vertex:       sum_g N(g) u^(2g+len(mu)+len(nu))
                = prod_l ((1/l) 2 sin(l*u/2))^(mu_l + nu_l),
                the contribution of a single floor with outgoing partition
                mu and incoming partition nu;
* degeneration: the diagram sum
                sum_D (prod_E w_E^2) (prod_V vertex(mu(V), nu(V))).
                A term depends only on the diagram's bounded edge weights,
                so the sum adds one sine product per
                ``weight_profiles`` entry, in the packed fold that also
                folds the refined count (``diagrams._fold``), and
                substitutes the total once.
                The refined count folds the same profiles, so the two
                routes check the series side of the degeneration theorem;
                the tests check the profiles against listed diagrams,
                ``oracle_cross_check`` against the oracle's, counted per
                shape.

Order rule.  ``order`` is the u-truncation order of the reported series and
must exceed its valuation 2*g0 + offset.  A smaller order is rejected with
one message naming the minimum, before any counting or listing, whether or
not the count is zero; so is an order over ``_ORDER_CAP``, and a vertex
with |mu| + |nu| over ``_VERTEX_SIZE_CAP``.

Exponent audit.  Each diagram has g0 + h - 1 bounded edges, so the vertex
products carry total valuation 2*(g0+h-1) + d_b + d_t, which exceeds the
relative series' valuation by exactly 2h: the degeneration sum reproduces
the relative series only after dividing by S^(2h), i.e. it *is* the log
series.  ``degeneration_cross_check`` therefore compares the diagram sum
against relative * S^(2h), term by term; the plane-degree-1 case (relative
valuation -1, diagram sum valuation +1) pins the convention.
``ab_identity_check`` verifies the Abramovich-Bertram relation between F0
and F2 counts at the polynomial and the series level, and
``oracle_cross_check`` the sweep's listing and profiles against the
brute-force oracle's.  Each check's series
level is its polynomial identity under one substitution, so each check
decides its identity once, on exact values: the degeneration check compares
the profiles' sine products with the packed fold times its sine power, the
AB check the two count sums, the oracle check the two profile dicts.  An
identity that holds builds one side, substitutes or folds it once and
reports it as both; only a failing identity builds the other side too, so
that its report shows both.
"""

from __future__ import annotations

from collections import Counter
from math import comb, prod
from typing import TYPE_CHECKING, NamedTuple

from .algebra import (
    LaurentPolyS,
    Partition,
    USeries,
    _sine_power,
    _sine_series,
    _series,
    _shown,
    _whole,
)
from .diagrams import (
    DiagramError,
    HTransverseDegree,
    _diagram_tuples,
    _fold,
    _genus,
    _listed,
    degree_hirzebruch,
    fold_refined,
    refined_count,
    weight_profiles,
)
from .oracle import brute_force_enumerate, check_cap

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["AbIdentityReport", "CrossCheckReport", "GwError", "GwSeries", "OracleReport",
           "ab_identity_check", "degeneration_cross_check", "degeneration_series",
           "gw_relative_series", "log_series", "oracle_cross_check", "vertex_series"]


class GwError(ValueError):
    """Invalid request to the generating-series layer."""


# Caps on the work of one request, sized on a shared 2-vCPU x86-64 host.  At order 500 the
# slowest series known is still ``ab_identity_check(3, 0, 11)``: about 0.42-0.51 s in
# process (Python 3.11), as at g0 = 0 its one substitution, which serves both equal sides,
# takes a Newton inverse of S^2 and one product with it (about 2.2 s at order 750).  A
# vertex's sine product is a Laurent polynomial of 2 * (|mu| + |nu|) + 1 coefficients;
# with distinct parts 1..140, |mu| = 9870, it takes about 0.5 s at order 500 on the same
# host.
_ORDER_CAP = 500
_VERTEX_SIZE_CAP = 10_000


class GwSeries(NamedTuple):
    """A generating series with its genus-indexing convention.

    The genus-g invariant sits at u^(2g + exponent_offset); ``g_min`` is the
    lowest genus the series carries.  ``delta``/``n`` record the geometric
    input when there is one (the vertex kind has neither).  A named tuple,
    like the two reports below.
    """

    series: USeries
    kind: str
    delta: HTransverseDegree | None
    n: int | None
    exponent_offset: int
    g_min: int

    def invariant(self, g: int) -> Fraction:
        """The coefficient at genus g's u-power; a genus below ``g_min`` or past the
        truncation order is a GwError, never a truncated coefficient read as 0."""
        if _whole(g, "genus", GwError) < self.g_min:
            raise GwError(f"genus {_shown(g)} is below the minimal genus {self.g_min}")
        exponent = 2 * g + self.exponent_offset
        if exponent >= self.series.order:
            raise GwError(
                f"genus {_shown(g)} sits at u^{_shown(exponent)}, beyond truncation order "
                f"{self.series.order}"
            )
        return self.series.coefficient(exponent)

    def max_genus(self) -> int:
        """Largest genus whose coefficient lies below the truncation order."""
        return (self.series.order - self.exponent_offset - 1) // 2

    def invariants(self) -> list[tuple[int, Fraction]]:
        return [(g, self.invariant(g)) for g in range(self.g_min, self.max_genus() + 1)]

    def _invariant_texts(self) -> list[tuple[int, str]]:
        """:meth:`invariants` as ``rational_to_str`` writes them: each the
        series' text at the genus' exponent, "0" below its valuation."""
        texts, low = self.series._texts(), self.series.valuation
        return [(g, texts[i] if (i := 2 * g + self.exponent_offset - low) >= 0 else "0")
                for g in range(self.g_min, self.max_genus() + 1)]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "delta": self.delta.to_json() if self.delta is not None else None,
            "n": self.n,
            "series": self.series.to_json(),
            "invariants": [{"g": g, "value": v} for g, v in self._invariant_texts()],
        }


def _order_check(order: int, valuation: int) -> None:
    """Reject a truncation order that is not an int, over the cap or leaving none."""
    if _whole(order, "order", GwError) > _ORDER_CAP:
        raise GwError(f"order {_shown(order)} is over the order cap {_ORDER_CAP}")
    if order <= valuation:
        raise GwError(
            f"order {_shown(order)} is too small: the series starts at u^{_shown(valuation)}, "
            f"so the order must be at least {_shown(valuation + 1)}"
        )


def _log_offset(delta: HTransverseDegree) -> int:
    """The offset of the log series and of the diagram sum (relative * S^(2h))."""
    return 2 * delta.height + delta.d_b + delta.d_t - 2


def _f_class(k: int, h: int, d: int, n: int) -> tuple[HTransverseDegree | None, int]:
    """The class h*D_k + d*F and its genus on n points (:func:`_genus`); the
    empty class h = d = 0 is None, of genus n + 1 for n >= 0, counting 0."""
    if h or d:
        delta = degree_hirzebruch(k, h, d)
        return delta, _genus(delta, n)
    if _whole(n, "n", DiagramError) < 0:
        raise DiagramError(f"n must be nonnegative, got {_shown(n)}")
    return None, n + 1


def _f0_class(a: int, b: int, n: int) -> tuple[HTransverseDegree | None, int]:
    """The F0 class a*D + (a+b)*F by :func:`_f_class`, a and b refused as
    integers first, so that their sum is only ever taken of two ints."""
    _whole(a, "a", DiagramError)
    _whole(b, "b", DiagramError)
    return _f_class(0, a, a + b, n)


def _count(delta: HTransverseDegree | None, n: int) -> LaurentPolyS:
    """The refined count; the empty class (None) counts 0."""
    return LaurentPolyS.zero() if delta is None else refined_count(delta, n)


def _count_series(kind: str, delta: HTransverseDegree | None, n: int, g0: int,
                  offset: int, order: int) -> GwSeries:
    """The count series (refined count)|_{q=e^(iu)} * S^(2*g0 + offset).

    The order is checked before the count is taken, so a too-small order
    is rejected before any counting.
    """
    e = 2 * g0 + offset
    _order_check(order, e)
    series = _sine_series(_count(delta, n), [(1, e)], order)
    return GwSeries(series, kind, delta, n, exponent_offset=offset, g_min=g0)


def vertex_series(mu: Partition, nu: Partition, order: int) -> GwSeries:
    """Contribution of one floor: prod_l ((1/l) 2 sin(l*u/2))^(mu_l + nu_l).

    Valuation len(mu) + len(nu); the genus-g invariant sits at
    u^(2g + len(mu) + len(nu)).  Requires order >= len(mu) + len(nu) + 1.
    """
    mu, nu = Partition(mu), Partition(nu)
    _order_check(order, len(mu) + len(nu))
    if mu.size + nu.size > _VERTEX_SIZE_CAP:
        raise GwError(f"|mu| + |nu| = {_shown(mu.size + nu.size)} is over the vertex "
                      f"size cap {_VERTEX_SIZE_CAP}")
    specs = sorted(Counter(mu + nu).items())
    series = _sine_series(LaurentPolyS.one(), specs, order)
    # divided by the integer prod part^m: its denominator times it, no Fraction built
    series = _series(series.valuation, series._nums,
                     series._den * prod(part ** m for part, m in specs), order)
    return GwSeries(series, "vertex", None, None, exponent_offset=len(mu) + len(nu), g_min=0)


def gw_relative_series(delta: HTransverseDegree, n: int, order: int = 16) -> GwSeries:
    """Relative invariants with a top lambda-class insertion, as a series.

    Refined count under q = e^(iu), times S^(2*g0 - 2 + d_b + d_t) with
    S = 2 sin(u/2).  The exponent can be negative (plane degree 1 gives
    S^(-1)), so the result is a Laurent series; the genus-g invariant sits
    at u^(2g - 2 + d_b + d_t) and the leading one equals the classical
    count.
    """
    return _count_series("relative", delta, n, _genus(delta, n), delta.d_b + delta.d_t - 2,
                         order)


def degeneration_series(delta: HTransverseDegree, n: int, order: int = 16) -> GwSeries:
    """The diagram sum: sum_D (prod_E w_E^2) (prod_V vertex contribution).

    Computed from sine products over the counts of ``weight_profiles``,
    never touching the refined-count polynomial, and without listing any
    diagram.  The vertex partitions hold each bounded weight w twice and each
    of the d_b + d_t unbounded edges as a part 1, so the vertex factors'
    1/prod(parts) is 1/prod_E w_E^2 and cancels the prod w^2 exactly: each
    diagram adds prod_w (2 sin(w*u/2))^(2*#w) * S^(d_b + d_t), which depends
    only on its sorted bounded weights.  Every diagram has g0 + h - 1 bounded
    edges, so every term carries the same sine exponent and the sum is one
    polynomial under one substitution: the profiles' products of
    (2 sin(w*u/2))^2 as Laurent polynomials in s, each times its number of
    diagrams, folded in one packed integer (``_degeneration``) and
    substituted once with S^(d_b + d_t).  Its genus-g
    coefficient sits at u^(2g - 2 + 2h + d_b + d_t): the sum equals relative *
    S^(2h), i.e. the log series (see the module docstring's exponent audit).
    """
    g0, _, total = _degeneration(delta, n, order)
    series = _sine_series(total, [(1, delta.d_b + delta.d_t)], order)
    return GwSeries(series, "degeneration", delta, n, exponent_offset=_log_offset(delta), g_min=g0)


def _degeneration(delta: HTransverseDegree, n: int, order: int) -> tuple[int, dict, LaurentPolyS]:
    """The order check, then g0, the ``weight_profiles`` and the sum of their
    sine products: the diagram sum before its substitution, the packed
    ``diagrams._fold`` with (2 sin(w*u/2))^2 per bounded edge of weight w.
    At q = s^2 = e^(iu) that factor is -(s^w - s^-w)^2 = -q^w + 2 - q^-w, so
    its q-coefficients -1, 0, ..., 0, 2, 0, ..., 0, -1 carry the sign
    (-1)^B of the B = g0 + h - 1 bounded edges' (s^w - s^-w)^2.
    """
    g0 = _genus(delta, n)
    _order_check(order, 2 * g0 + _log_offset(delta))
    profiles = weight_profiles(delta, n)
    return g0, profiles, _fold(profiles, lambda w: [-1, *[0] * (w - 1), 2, *[0] * (w - 1), -1])


def log_series(delta: HTransverseDegree, n: int, order: int = 16) -> GwSeries:
    """Log invariants: sum_g N_log(g) u^(2g-2+2h+d_b+d_t) = relative * S^(2h).

    The conversion factor S^(2h) accounts for the 2h contact points with the
    non-horizontal toric divisors.  At minimal genus N_log = N_rel equals
    the classical count.
    """
    return _count_series("log", delta, n, _genus(delta, n), _log_offset(delta), order)


def _report_json(target: str, report) -> dict:
    """``{"target": target}``, then each field of the report in order, a
    series, polynomial or degree by its ``to_json``."""
    out = {"target": target}
    for name, value in zip(report._fields, report):
        out[name] = value.to_json() if hasattr(value, "to_json") else value
    return out


class CrossCheckReport(NamedTuple):
    """Outcome of the degeneration cross-check for one (delta, n)."""

    delta: HTransverseDegree
    n: int
    diagram_sum: USeries
    from_refined: USeries
    equal: bool

    def to_json(self) -> dict:
        return _report_json("degeneration", self)


def degeneration_cross_check(
    delta: HTransverseDegree, n: int, order: int = 16
) -> CrossCheckReport:
    """Compare the two evaluation routes term by term.

    Route one is the diagram sum of ``degeneration_series``: the weight
    profiles' sine products, folded in one packed integer and substituted
    once.  Route two is the log series, relative * S^(2h): the folded
    refined count times its sine power.  Both routes read one
    ``weight_profiles`` pass and one packed fold, ``diagrams._fold``, with
    their own factors: (2 sin(w*u/2))^2 for route one, [w]_q^2 for route
    two (``fold_refined``); neither lists a diagram.  The series level is a
    polynomial identity under one substitution: route one's sum, of sign
    (-1)^B over the B = g0 + h - 1 bounded edges, against
    (-1)^B * fold * (s - s^-1)^(2B), the (-i)^(2B) of the substitution
    cancelling (-1)^B.  When they agree, route one alone is substituted and
    its series is reported as both ``diagram_sum`` and ``from_refined``;
    only a failing identity substitutes route two too.  ``equal`` stays the
    series comparison.  Both build their series with
    ``algebra._sine_series`` from nonnegative sine powers, so neither
    multiplies two series.

    The two factors stay apart, so the check catches a wrong [w]_q^2 or a
    wrong sine factor.  A fault of the packed fold that hits both routes
    alike, an error in the substitution (a wrong u-scale, say) or one in
    ``USeries`` multiplication passes here; the tests pin the fold against
    polynomial sums, and the substitution and product against sympy and a
    schoolbook product.
    """
    g0, profiles, total = _degeneration(delta, n, order)
    bounded, ends, refined = g0 + delta.height - 1, delta.d_b + delta.d_t, fold_refined(profiles)
    # S^(2B) = (-1)^B (s - s^-1)^(2B) over the B bounded edges, the diagram sum's sign; a
    # class with B < 0 has no diagram and both sides are 0
    holds = total == (-1 if bounded % 2 else 1) * refined * _sine_power(1, 2 * bounded)
    diagram_sum = _sine_series(total, [(1, ends)], order)
    from_refined = diagram_sum if holds else _sine_series(refined, [(1, 2 * bounded + ends)], order)
    return CrossCheckReport(delta, n, diagram_sum, from_refined, diagram_sum == from_refined)


def f0_absolute_series(a: int, b: int, n: int, order: int = 16) -> GwSeries:
    """Absolute invariants of F0 in class a*D + (a+b)*F: sum_g N(g) u^(2g-2).

    Equals the relative series of the F0 degree (a, a+b) divided by
    S^(2(a+b)), one factor of S for each of the d_b + d_t = 2(a+b) boundary
    contacts traded away.  A negative b with a + b >= 0 is a class too.  Not
    exported: the left side of ``verify ab``'s series level, which floorbench traces.
    """
    delta, g0 = _f0_class(a, b, n)
    return _count_series("absolute_F0", delta, n, g0, -2, order)


def f2_relative_dminus2_series(h: int, d: int, n: int, order: int = 16) -> GwSeries:
    """Invariants of F2 relative to D_(-2) only: sum_g N(g) u^(2g-2+d).

    Equals the relative series of the F2 degree (h, d) divided by
    S^(2h + d), one factor for each contact with D_2 traded away.  Not exported:
    the right side's terms of ``verify ab``'s series level, which floorbench traces.
    """
    delta, g0 = _f_class(2, h, d, n)
    return _count_series("relative_F2_Dminus2", delta, n, g0, d - 2, order)


class AbIdentityReport(NamedTuple):
    """Both levels of the Abramovich-Bertram comparison for (a, b, n)."""

    a: int
    b: int
    n: int
    lhs_polynomial: LaurentPolyS
    rhs_polynomial: LaurentPolyS
    polynomial_equal: bool
    lhs_series: USeries
    rhs_series: USeries
    series_equal: bool

    @property
    def equal(self) -> bool:
        return self.polynomial_equal and self.series_equal

    def to_json(self) -> dict:
        return {**_report_json("ab", self), "equal": self.equal}


def ab_identity_check(a: int, b: int, n: int, order: int = 16) -> AbIdentityReport:
    """Verify the Abramovich-Bertram relation between F0 and F2 counts.

    Polynomial level: the refined F0 (a, a+b) count must equal
    sum_{j=0..a} C(b+2j, j) * refined F2 (a-j, b+2j) count.  Series level:
    the F0 absolute series must equal
    sum_j C(b+2j, j) * (F2/D_(-2) series) * S^-(b+2j) to the truncation
    order.  Every F2 class has the genus g0 of the F0 class, so each right
    term is (F2 count) * S^(2*g0 - 2) and the series level is the polynomial
    identity under one substitution of each count sum times S^(2*g0 - 2).
    So equal polynomials are substituted once, the right series being the
    left one; only a failing identity substitutes the right polynomial too,
    and reports both series.  Every class is built (the F2 class (a, b)
    refuses b < 0) before the order check, and each refined count is taken
    once for both levels.  Returns both sides of both levels.
    """
    f0, g0 = _f0_class(a, b, n)
    f2 = [_f_class(2, a - j, b + 2 * j, n)[0] for j in range(a + 1)]
    _order_check(order, 2 * g0 - 2)
    lhs_poly = _count(f0, n)
    rhs_poly = sum((comb(b + 2 * j, j) * _count(f2[j], n) for j in range(a + 1)),
                   LaurentPolyS.zero())
    sines, holds = [(1, 2 * g0 - 2)], lhs_poly == rhs_poly
    lhs_series = _sine_series(lhs_poly, sines, order)
    rhs_series = lhs_series if holds else _sine_series(rhs_poly, sines, order)
    return AbIdentityReport(a, b, n, lhs_poly, rhs_poly, holds,
                            lhs_series, rhs_series, lhs_series == rhs_series)


class OracleReport(NamedTuple):
    """Outcome of the oracle cross-check for one (delta, n)."""

    delta: HTransverseDegree
    n: int
    sweep_diagrams: int
    brute_force_diagrams: int
    diagrams_equal: bool
    sweep: LaurentPolyS
    brute_force: LaurentPolyS
    equal: bool

    def to_json(self) -> dict:
        return _report_json("oracle", self)


def oracle_cross_check(delta: HTransverseDegree, n: int) -> OracleReport:
    """Compare the sweep's listing with the brute-force oracle's (``floorgw.oracle``).

    Refuses a negative genus, then n over the oracle's cap, which needs no
    count, then a class over the listing cap (``diagrams._listed``).  Equal
    when both list the same diagrams, each as often, and the count pass's
    weight profiles equal the oracle's, which its listing counts per shape
    (every diagram of a shape has its bounded weights); ``sweep`` and
    ``brute_force`` are the refined counts folded from the two.
    """
    check_cap(delta, n)
    profiles, block = _listed(delta, n)
    brute_profiles: dict[tuple[int, ...], int] = {}
    brute = brute_force_enumerate(delta, n, brute_profiles)
    # the sweep's diagrams as plain tuples, which equal and hash like the oracle's
    sweep = Counter(_diagram_tuples(delta, n, block))
    # dict.__eq__, in C: Counter.__eq__ walks both in a generator, and here every count is positive
    diagrams_equal, holds = dict.__eq__(sweep, Counter(brute)), profiles == brute_profiles
    sweep_fold = fold_refined(profiles)
    brute_fold = sweep_fold if holds else fold_refined(brute_profiles)
    return OracleReport(delta, n, sweep.total(), len(brute), diagrams_equal, sweep_fold,
                        brute_fold, diagrams_equal and holds)
