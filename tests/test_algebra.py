"""Exact-arithmetic layer: Laurent polynomials in s, truncated series in u."""

import copy
import json
import pickle
from fractions import Fraction
from functools import reduce
from math import factorial
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floorgw import (
    AlgebraError,
    DiagramError,
    GwError,
    LaurentPolyS,
    OracleLimitError,
    Partition,
    USeries,
    ab_identity_check,
    brute_force_enumerate,
    degree_hirzebruch,
    degree_p2,
    gw_relative_series,
    lp_eval_at_one,
    points_for_genus,
    q_integer,
    rational_to_str,
    refined_count,
    vertex_series,
)
from floorgw.algebra import (_Q_INTEGER_CAP, _sine_power, _sine_series, _substitute,
                             lp_substitute_exponential, rational_from_str, sin_factor_series)
from floorgw.diagrams import _MAX_POINTS
from floorgw.gw import f0_absolute_series
from helpers import FrozenUSeries, bernoulli, frozen_substitute

F = Fraction


# ---------------------------------------------------------------- q-integers


@pytest.mark.parametrize(
    "m,expected",
    [
        (1, LaurentPolyS(0, [1])),
        (2, LaurentPolyS(-1, [1, 0, 1])),
        (3, LaurentPolyS(-2, [1, 0, 1, 0, 1])),
    ],
)
def test_q_integer_small_values(m, expected):
    assert q_integer(m) == expected


@pytest.mark.parametrize("m", [0, -1, -5])
def test_q_integer_rejects_nonpositive(m):
    with pytest.raises(AlgebraError):
        q_integer(m)


def test_q_integer_palindromic_and_eval():
    for m in range(1, 13):
        p = q_integer(m)
        assert p.is_palindromic()
        assert lp_eval_at_one(p) == m


# ---------------------------------------------------- Laurent polynomial ops


def test_laurent_normalization_and_coefficients():
    p = LaurentPolyS(-3, [0, 0, 5, 0, -1, 0, 0])
    assert p.valuation == -1
    assert p.coefficients == (5, 0, -1)
    assert p.coefficient(-1) == 5
    assert p.coefficient(1) == -1
    assert p.coefficient(7) == 0
    assert p.degree == 1


def test_laurent_eval_examples():
    assert lp_eval_at_one(LaurentPolyS.one()) == 1
    assert lp_eval_at_one(q_integer(2)) == 2
    assert lp_eval_at_one(LaurentPolyS(-2, [1, 0, 10, 0, 1])) == 12


def test_laurent_ring_ops():
    p = q_integer(2)
    assert p * p == LaurentPolyS(-2, [1, 0, 2, 0, 1])
    assert p**2 == p * p
    assert (q_integer(3) ** 2) == LaurentPolyS(-4, [1, 0, 2, 0, 3, 0, 2, 0, 1])
    assert p + (-p) == LaurentPolyS.zero()
    assert (p - p).is_zero()
    assert 3 * LaurentPolyS.one() == LaurentPolyS(0, [3])
    with pytest.raises(AlgebraError):
        p ** (-1)


def test_laurent_palindromy_detection():
    assert LaurentPolyS(-2, [1, 0, 10, 0, 1]).is_palindromic()
    assert not LaurentPolyS(0, [1, 1]).is_palindromic()
    assert not LaurentPolyS(-1, [1, 0, 2]).is_palindromic()
    assert LaurentPolyS.zero().is_palindromic()


def test_laurent_json_round_trip():
    p = LaurentPolyS(-2, [1, 0, 10, 0, 1])
    data = p.to_json()
    assert data == {"valuation": -2, "coefficients": ["1", "0", "10", "0", "1"]}
    assert LaurentPolyS.from_json(data) == p


# -------------------------------------------------------------- USeries core


def test_useries_window_and_coefficient_access():
    x = USeries(1, [F(1), F(0), F(-1, 24)], 4)
    assert x.valuation == 1
    assert x.order == 4
    assert x.coefficient(0) == 0  # below valuation: known zero
    assert x.coefficient(3) == F(-1, 24)
    with pytest.raises(AlgebraError):
        x.coefficient(4)  # at the order: undefined, not zero


def test_useries_rejects_overlong_window():
    with pytest.raises(AlgebraError):
        USeries(0, [1, 2, 3], 2)


def test_useries_rejects_floats():
    with pytest.raises(AlgebraError):
        USeries(0, [0.5], 2)


@pytest.mark.parametrize("build,kind", [
    (lambda: USeries(0, [True, 2], 3), "bool"),
    (lambda: USeries(0, [1, 0.5], 3), "float"),
    (lambda: rational_to_str(True), "bool"),
    (lambda: rational_to_str(0.5), "float"),
    (lambda: USeries(0, [1, 2], 3) * True, "bool"),
    (lambda: USeries(0, [1, 2], 3) * 1.5, "float"),
    (lambda: 1.5 * USeries(0, [1, 2], 3), "float"),
    (lambda: LaurentPolyS(0, [1]) * True, "bool"),
    (lambda: LaurentPolyS(0, [1]) * 1.5, "float"),
    (lambda: True * LaurentPolyS(0, [1]), "bool"),
], ids=["series-bool", "series-float", "text-bool", "text-float", "series-scalar-bool",
        "series-scalar-float", "float-scalar-series", "poly-scalar-bool", "poly-scalar-float",
        "bool-scalar-poly"])
def test_rationals_refuse_a_bool_or_a_float_in_one_message(build, kind):
    """A bool is not read as the int 0 or 1: it is refused as a float is, as
    a coefficient and as a scalar factor."""
    with pytest.raises(AlgebraError) as refused:
        build()
    assert str(refused.value) == f"expected an exact rational, got {kind}"


@pytest.mark.parametrize("build", [
    lambda: LaurentPolyS(0, [1.7, 0.5]),
    lambda: LaurentPolyS(0, [F(3, 2)]),
    lambda: LaurentPolyS(0, [1, F(2)]),
    lambda: LaurentPolyS(0.5, [1, 2]),
    lambda: LaurentPolyS(F(1, 2), [1]),
], ids=["poly-float", "poly-fraction", "poly-whole-fraction", "poly-float-valuation",
        "poly-fraction-valuation"])
def test_exact_constructors_refuse_non_integers(build):
    """A float or a Fraction is refused, not truncated to an int or carried on
    as an exponent."""
    with pytest.raises(AlgebraError, match="must be integers"):
        build()


@pytest.mark.parametrize("build,name,value", [
    (lambda: Partition([2.7, 1.2]), "partition part", 2.7),
    (lambda: Partition([F(2)]), "partition part", F(2)),
    (lambda: Partition([True, 2]), "partition part", True),
    (lambda: vertex_series([2.5], [], 6), "partition part", 2.5),
    (lambda: USeries(0, [1], 2.5), "order", 2.5),
    (lambda: USeries(0, [1], True), "order", True),
    (lambda: USeries(0.5, [1], 3), "valuation", 0.5),
    (lambda: USeries(True, [1], 3), "valuation", True),
    (lambda: q_integer(True), "m", True),
    (lambda: q_integer(2.0), "m", 2.0),
    (lambda: sin_factor_series(1, 1, 7.0), "order", 7.0),
    (lambda: sin_factor_series(True, 1, 7), "a", True),
    (lambda: sin_factor_series(1, 1.0, 7), "exponent", 1.0),
    (lambda: lp_substitute_exponential(q_integer(2), 6.0), "order", 6.0),
    (lambda: lp_substitute_exponential(q_integer(2), True), "order", True),
    (lambda: USeries(1, [1, 2], 5) ** True, "exponent", True),
    (lambda: USeries(1, [1, 2], 5) ** 1.0, "exponent", 1.0),
    (lambda: USeries(1, [1, 2], 5) ** 2.5, "exponent", 2.5),
    (lambda: USeries(1, [1, 2], 5) ** -1.0, "exponent", -1.0),
    (lambda: LaurentPolyS(-1, [1, 0, 1]) ** True, "exponent", True),
    (lambda: LaurentPolyS(-1, [1, 0, 1]) ** 1.0, "exponent", 1.0),
    (lambda: LaurentPolyS(-1, [1, 0, 1]) ** 2.5, "exponent", 2.5),
    (lambda: LaurentPolyS(-1, [1, 0, 1]) ** -1.0, "exponent", -1.0),
    (lambda: USeries(1, [1, 2], 5).truncate(2.5), "order", 2.5),
    (lambda: USeries(1, [1, 2], 5).truncate(True), "order", True),
    (lambda: USeries(1, [1, 2], 5).shift("3"), "shift", "3"),
    (lambda: USeries(1, [1, 2], 5).shift(True), "shift", True),
    (lambda: USeries(1, [1, 2], 5).coefficient(None), "exponent", None),
    (lambda: USeries(1, [1, 2], 5).coefficient(2.0), "exponent", 2.0),
    (lambda: USeries(1, [1, 2], 5).coefficient(True), "exponent", True),
    (lambda: LaurentPolyS(-1, [1, 0, 1]).coefficient(2.0), "exponent", 2.0),
    (lambda: LaurentPolyS(-1, [1, 0, 1]).coefficient(True), "exponent", True),
], ids=["partition-float", "partition-fraction", "partition-bool", "vertex-float",
        "series-float-order", "series-bool-order", "series-float-valuation",
        "series-bool-valuation", "q-integer-bool", "q-integer-float", "sine-float-order",
        "sine-bool-frequency", "sine-float-exponent", "substitution-float-order",
        "substitution-bool-order", "series-bool-power", "series-float-power",
        "series-fractional-power", "series-negative-float-power", "poly-bool-power",
        "poly-float-power", "poly-fractional-power", "poly-negative-float-power",
        "series-float-truncate", "series-bool-truncate", "series-str-shift", "series-bool-shift",
        "series-none-coefficient", "series-float-coefficient", "series-bool-coefficient",
        "poly-float-coefficient", "poly-bool-coefficient"])
def test_entry_points_refuse_a_bool_or_a_float_in_one_message(build, name, value):
    """Not a bare TypeError, nor a bool read as 0 or 1: the one refusal of
    ``algebra._whole``."""
    with pytest.raises(AlgebraError) as refused:
        build()
    assert str(refused.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("build,message", [
    (lambda: Partition(3), "partition parts must be iterable, got int"),
    (lambda: USeries(0, 5, 3), "coefficients must be iterable, got int"),
    (lambda: vertex_series(1, (), 16), "partition parts must be iterable, got int"),
    (lambda: q_integer(10**30), "q_integer: m is over the cap _Q_INTEGER_CAP = 10000"),
], ids=["partition-int", "series-int-coefficients", "vertex-int-mu", "q-integer-huge"])
def test_entry_points_refuse_a_non_iterable_or_an_over_cap_size(build, message):
    """Once a bare TypeError or OverflowError; a size is refused before
    anything is allocated."""
    with pytest.raises(AlgebraError) as refused:
        build()
    assert str(refused.value) == message


HUGE = 10**5000  # past the 4,300 digits that Python converts to text by default
HUGE_TEXT = "<an int of 16610 bits>"


@pytest.mark.parametrize("build,error,message", [
    (lambda: degree_p2(-HUGE), DiagramError,
     f"plane degree must be a positive integer, got -{HUGE_TEXT}"),
    (lambda: degree_hirzebruch(-HUGE, 1, 1), DiagramError,
     f"Hirzebruch parameters must be nonnegative integers, got (-{HUGE_TEXT}, 1, 1)"),
    (lambda: points_for_genus(degree_p2(3), -HUGE), DiagramError,
     f"no diagrams: n = -{HUGE_TEXT} gives negative genus -{HUGE_TEXT} for P2(d=3)"),
    (lambda: refined_count(degree_p2(3), HUGE), DiagramError,
     f"n = {HUGE_TEXT} for P2(d=3) is over the point cap _MAX_POINTS = 900"),
    (lambda: refined_count(degree_p2(3), -HUGE), DiagramError,
     f"no diagrams: n = -{HUGE_TEXT} gives negative genus -{HUGE_TEXT} for P2(d=3)"),
    (lambda: gw_relative_series(degree_p2(3), 8, HUGE), GwError,
     f"order {HUGE_TEXT} is over the order cap 500"),
    (lambda: vertex_series((1,), (1,), HUGE), GwError,
     f"order {HUGE_TEXT} is over the order cap 500"),
    (lambda: brute_force_enumerate(degree_p2(3), HUGE), OracleLimitError,
     f"n = {HUGE_TEXT} exceeds the brute-force cap 16"),
    (lambda: q_integer(-HUGE), AlgebraError,
     f"q_integer requires a positive integer, got -{HUGE_TEXT}"),
    (lambda: Partition([-HUGE]), AlgebraError,
     f"partition parts must be positive, got (-{HUGE_TEXT},)"),
    (lambda: USeries(0, [1], -HUGE), AlgebraError,
     f"coefficient window [0, 1) exceeds truncation order -{HUGE_TEXT}"),
    (lambda: gw_relative_series(degree_p2(3), 8, 10).invariant(-HUGE), GwError,
     f"genus -{HUGE_TEXT} is below the minimal genus 0"),
    (lambda: ab_identity_check(HUGE, 0, 11), DiagramError,
     "no diagrams: n = 11 gives negative genus -<an int of 16612 bits> for "
     f"F0(h={HUGE_TEXT},d={HUGE_TEXT})"),
    (lambda: Partition([F(HUGE)]), AlgebraError,
     "partition part must be an integer, got <Fraction>"),
], ids=["degree-p2", "degree-hirzebruch", "points-for-genus", "count-over-cap",
        "count-negative-genus", "gw-order", "vertex-order", "oracle-n", "q-integer",
        "partition-part", "series-order", "invariant-genus", "ab-class", "fraction-part"])
def test_refusals_write_an_int_past_the_digit_limit_by_its_size(build, error, message):
    """Once a bare ValueError from the f-string of the refusal itself:
    ``algebra._shown`` writes every refused value, an int of 100 digits or more
    by its sign and bit length."""
    with pytest.raises(error) as refused:
        build()
    assert type(refused.value) is error and str(refused.value) == message


def test_q_integer_cap_is_well_above_every_listed_weight():
    """A weight is at most d_b <= n <= _MAX_POINTS; [m]_q at the cap is built."""
    assert _MAX_POINTS < _Q_INTEGER_CAP // 10
    assert lp_eval_at_one(q_integer(_Q_INTEGER_CAP)) == _Q_INTEGER_CAP


def test_useries_mul_examples():
    # u^-1 * u = 1
    x = USeries(-1, [1], 6)
    y = USeries(1, [1], 6)
    prod = x * y
    assert prod.coefficient(0) == 1
    assert prod == USeries(0, [1], 5)
    # (1 + u)^2 = 1 + 2u + u^2
    one_plus_u = USeries(0, [1, 1], 6)
    sq = one_plus_u**2
    assert [sq.coefficient(k) for k in range(3)] == [1, 2, 1]


def test_useries_mul_fixture_cos_times_sin():
    # (2 cos u + 10) * 2 sin(u/2) = 12u - 3/2 u^3 + 21/160 u^5 + ...
    lhs = lp_substitute_exponential(LaurentPolyS(-2, [1, 0, 10, 0, 1]), 6)
    rhs = sin_factor_series(1, 1, 7)
    prod = lhs * rhs
    assert prod.coefficient(1) == 12
    assert prod.coefficient(3) == F(-3, 2)
    assert prod.coefficient(5) == F(21, 160)


def test_useries_truncation_propagation():
    x = USeries(0, [1] * 8, 8)
    y = USeries(2, [1] * 3, 5)
    assert (x * y).order == min(8 + 2, 5 + 0)
    assert (x + y).order == 5
    assert y.shift(-2).order == 3
    z = USeries(1, [1, 1], 3)
    assert z.inverse().order == 3 - 2 * 1


def test_useries_shift_and_pow():
    x = USeries(0, [1, 1], 8)
    assert x.shift(3).valuation == 3
    assert (x**3).coefficient(2) == 3
    inv = USeries(0, [1, 1], 8) ** -1
    assert [inv.coefficient(k) for k in range(4)] == [1, -1, 1, -1]
    with pytest.raises(AlgebraError):
        USeries.zero(5).inverse()
    with pytest.raises(AlgebraError):
        USeries.zero(5) ** -2


def test_useries_equality_and_zero():
    assert USeries.zero(7) == USeries(3, [0, 0, 0, 0], 7)
    assert USeries.zero(7) != USeries.zero(8)
    assert USeries(0, [1], 5) != USeries(0, [1], 6)


def test_useries_truncate_scale_and_shift_edges():
    x = USeries(2, [1, 1], 6)
    with pytest.raises(AlgebraError, match="cannot increase the truncation order"):
        x.truncate(7)
    assert x.truncate(3) == USeries(2, [1], 3)
    assert x.truncate(2) == USeries.zero(2) and x.truncate(-1) == USeries.zero(-1)
    assert x * 0 == USeries.zero(6) and F(0) * x == USeries.zero(6)
    assert USeries.zero(5).shift(2) == USeries.zero(7)
    assert USeries.zero(5).shift(-3) == USeries.zero(2)


@pytest.mark.parametrize("value", [LaurentPolyS(-1, [1, 0, 1]), USeries(-1, [F(1, 2), 0, 3], 4),
                                   degree_p2(3)],
                         ids=["LaurentPolyS", "USeries", "HTransverseDegree"])
def test_frozen_values_refuse_assignment_and_round_trip(value):
    """Each value type refuses a write, and pickle and deepcopy, which
    cannot set its slots, rebuild an equal value that refuses one too."""
    for twin in (value, pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            twin.valuation = 5


def test_zero_polynomial_has_no_degree():
    with pytest.raises(AlgebraError, match="^the zero polynomial has no degree$"):
        LaurentPolyS.zero().degree


@pytest.mark.parametrize("operate", [
    lambda: LaurentPolyS.one() + 1,
    lambda: LaurentPolyS.one() * "x",
    lambda: USeries.one(3) + 1,
    lambda: USeries.one(3) * "x",
], ids=["poly+1", "poly*str", "series+1", "series*str"])
def test_series_refuse_an_operand_of_another_type(operate):
    """The operators return NotImplemented, so Python raises a TypeError."""
    with pytest.raises(TypeError):
        operate()


def test_value_reprs():
    assert repr(Partition([1, 3, 1])) == "Partition((3, 1, 1))"
    assert repr(LaurentPolyS(-1, [1, 0, 1])) == "LaurentPolyS(-1, (1, 0, 1))"
    assert repr(USeries(-1, [F(1, 2), 0], 1)) == (
        "USeries(-1, (Fraction(1, 2), Fraction(0, 1)), order=1)")


def test_laurent_hash_agrees_with_equality():
    p, q = LaurentPolyS(-1, [1, 0, 1]), LaurentPolyS(-2, [0, 1, 0, 1, 0])
    assert p == q and hash(p) == hash(q)
    assert len({p, q, LaurentPolyS.one(), LaurentPolyS(0, [1])}) == 2


def test_useries_json_round_trip():
    x = USeries(-1, [F(1), F(0), F(1, 24)], 2)
    data = x.to_json()
    assert data == {"valuation": -1, "order": 2, "coefficients": ["1", "0", "1/24"]}
    assert USeries.from_json(data) == x


def test_rational_string_round_trip():
    assert rational_to_str(F(7, 5760)) == "7/5760"
    assert rational_to_str(F(-3)) == "-3"
    assert rational_from_str("7/5760") == F(7, 5760)
    assert rational_from_str("-3") == F(-3)


def test_rational_from_str_reads_what_rational_to_str_writes():
    for x in [F(0), F(-3), F(1, 2), F(-7, 5760), F(10**50, 3)]:
        assert rational_from_str(rational_to_str(x)) == x
    for text in ["1/1", "-0", "0/-1", "4/-6", "-4/6/1", "1/2 "]:
        with pytest.raises(AlgebraError, match="in lowest terms with den > 1$"):
            rational_from_str(text)


# Fields that a reader once truncated or misread (the first row read as 1 + 2*s, an order
# of 3.9 as 3, coefficients "12" as 1 + 2*s) or refused with another exception (a missing
# key, "1/0", a payload or coefficients of the wrong JSON type).
BAD_SERIES_JSON = [
    (LaurentPolyS, {"valuation": 0.5, "coefficients": [1.7, "2"]}, r"^valuation 0\.5 is"),
    (LaurentPolyS, {"valuation": 0, "coefficients": [1.7, "2"]}, r"^coefficient 1\.7 is"),
    (LaurentPolyS, {"valuation": 0, "coefficients": ["1", "2.5"]}, r"^coefficient '2\.5' is"),
    (LaurentPolyS, {"valuation": True, "coefficients": ["1"]}, r"^valuation True is"),
    (LaurentPolyS, {"valuation": 0, "coefficients": [False]}, r"^coefficient False is"),
    (LaurentPolyS, {"coefficients": ["1"]}, r"^series JSON has no key 'valuation'$"),
    (USeries, {"valuation": 0, "order": 3.9, "coefficients": ["1"]}, r"^order 3\.9 is"),
    (USeries, {"valuation": "0.5", "order": 3, "coefficients": ["1"]}, r"^valuation '0\.5' is"),
    (USeries, {"valuation": 0, "order": True, "coefficients": []}, r"^order True is"),
    (USeries, {"valuation": 0, "order": 3, "coefficients": [1.5]}, r"^1\.5 is not a rational"),
    (USeries, {"valuation": 0, "order": 3, "coefficients": ["1/2.5"]}, r"^'1/2\.5' is not"),
    (USeries, {"valuation": 0, "order": 3, "coefficients": ["1/"]}, r"^'1/' is not"),
    (USeries, {"valuation": 0, "order": 3, "coefficients": ["1/0"]}, r"terms with den > 1$"),
    (USeries, {"valuation": 0, "coefficients": ["1"]}, r"^series JSON has no key 'order'$"),
    (USeries, {"valuation": 0, "order": 3}, r"^series JSON has no key 'coefficients'$"),
    (LaurentPolyS, {"valuation": 0, "coefficients": "12"}, r"^coefficients is not a JSON array$"),
    (USeries, {"valuation": 0, "order": 3, "coefficients": 5}, r"^coefficients is not a JSON"),
    (LaurentPolyS, [0, ["1"]], r"^the series is not a JSON object$"),
    (USeries, None, r"^the series is not a JSON object$"),
    # texts that int() reads but str(int) never writes (the first row read as 10*s^-1 + 2)
    (LaurentPolyS, {"valuation": "-1", "coefficients": ["1_0", " 2"]}, r"^coefficient '1_0' is"),
    (LaurentPolyS, {"valuation": "-1", "coefficients": ["1", " 2"]}, r"^coefficient ' 2' is"),
    (LaurentPolyS, {"valuation": "+1", "coefficients": ["1"]}, r"^valuation '\+1' is"),
    (LaurentPolyS, {"valuation": "01", "coefficients": ["1"]}, r"^valuation '01' is"),
    (USeries, {"valuation": "-0", "order": 3, "coefficients": ["1"]}, r"^valuation '-0' is"),
    (USeries, {"valuation": 0, "order": "3\n", "coefficients": ["1"]}, r"^order '3\\n' is"),
    (USeries, {"valuation": 0, "order": 3, "coefficients": ["1_0"]}, r"^'1_0' is not a rational"),
    (USeries, {"valuation": 0, "order": 3, "coefficients": ["1/ 2"]}, r"^'1/ 2' is not a rational"),
    (USeries, {"valuation": 0, "order": 3, "coefficients": ["\uff11"]}, r"^'\uff11' is not a"),
    # fractions that rational_to_str never writes (read once as -1/2, 1/2, 3 and 0)
    (USeries, {"valuation": 0, "order": 3, "coefficients": ["1/-2"]}, r"^'1/-2' is not a rational"),
    (USeries, {"valuation": 0, "order": 3, "coefficients": ["2/4"]}, r"^'2/4' is not a rational"),
    (USeries, {"valuation": 0, "order": 3, "coefficients": ["3/1"]}, r"^'3/1' is not a rational"),
    (USeries, {"valuation": 0, "order": 3, "coefficients": ["0/7"]}, r"terms with den > 1$"),
]


@pytest.mark.parametrize("cls,data,message", BAD_SERIES_JSON,
                         ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(BAD_SERIES_JSON)])
def test_json_readers_refuse_what_they_cannot_read_exactly(cls, data, message):
    with pytest.raises(AlgebraError, match=message):
        cls.from_json(data)


def test_json_readers_take_integer_strings():
    assert LaurentPolyS.from_json({"valuation": "-1", "coefficients": ["1", 0, "1"]}) == \
        LaurentPolyS(-1, [1, 0, 1])
    assert USeries.from_json({"valuation": 1, "order": "3", "coefficients": ["-1/2", "3"]}) == \
        USeries(1, [F(-1, 2), 3], 3)


# ------------------------------------------------------ cosine substitution


def test_substitution_examples():
    const = lp_substitute_exponential(LaurentPolyS.one(), 6)
    assert const == USeries(0, [1], 6)

    two_cos_half = lp_substitute_exponential(q_integer(2), 6)
    assert two_cos_half.coefficient(0) == 2
    assert two_cos_half.coefficient(2) == F(-1, 4)
    assert two_cos_half.coefficient(4) == F(1, 192)

    two_cos = lp_substitute_exponential(LaurentPolyS(-2, [1, 0, 0, 0, 1]), 6)
    assert two_cos.coefficient(0) == 2
    assert two_cos.coefficient(2) == -1
    assert two_cos.coefficient(4) == F(1, 12)


def test_substitution_rejects_non_palindromic():
    with pytest.raises(AlgebraError):
        lp_substitute_exponential(LaurentPolyS(0, [1, 1]), 6)
    with pytest.raises(AlgebraError):
        lp_substitute_exponential(q_integer(2), 0)


def palindrome(half):
    """The palindromic polynomial with coefficient half[a] at s^a and s^-a."""
    return LaurentPolyS(1 - len(half), half[::-1] + half[1:])


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_substitution_at_u0_is_eval_at_one(half_coeffs):
    p = palindrome(half_coeffs)
    assert p.is_palindromic()
    series = lp_substitute_exponential(p, 5)
    if p.is_zero():
        assert series.is_zero()
    else:
        assert series.coefficient(0) == lp_eval_at_one(p)


# --------------------------------------------------------------- sine factors


def test_sin_factor_examples():
    s = sin_factor_series(1, 1, 7)
    assert [s.coefficient(k) for k in (1, 3, 5)] == [1, F(-1, 24), F(1, 1920)]
    assert sin_factor_series(1, 0, 7) == USeries.one(7)
    inv = sin_factor_series(1, -1, 5)
    assert [inv.coefficient(k) for k in (-1, 1, 3)] == [1, F(1, 24), F(7, 5760)]


def test_sin_factor_rejects_degenerate_requests():
    with pytest.raises(AlgebraError):
        sin_factor_series(0, 1, 7)
    with pytest.raises(AlgebraError):
        sin_factor_series(1, 3, 3)


def test_q_integer_sine_identity():
    # [m]_q * 2 sin(u/2) = 2 sin(m u / 2) as series, to order 16
    N = 16
    for m in range(1, 9):
        lhs = lp_substitute_exponential(q_integer(m), N) * sin_factor_series(1, 1, N)
        rhs = sin_factor_series(m, 1, N)
        assert lhs == rhs, m


def test_sin_factor_inverse_pairs():
    for k in range(1, 7):
        prod = sin_factor_series(1, k, 16) * sin_factor_series(1, -k, 16)
        assert prod == USeries.one(prod.order)
        assert prod.order == 16 - k


def test_sin_factor_against_independent_symbolic_expansion():
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols("u")
    for a, e in [(1, 1), (2, 1), (1, -1), (1, -2), (3, 2), (4, 3), (2, -3)]:
        expansion = sympy.series(
            (2 * sympy.sin(a * u / 2)) ** e, u, 0, 16
        ).removeO()
        for order in (9, 15):
            ours = sin_factor_series(a, e, order)
            for k in range(ours.valuation, ours.order):
                expected = sympy.nsimplify(expansion.coeff(u, k))
                assert F(ours.coefficient(k)) == F(str(expected)), (a, e, order, k)


def sine_power_reference(a, e, order):
    """(2 sin(a*u/2))^e to ``order`` from Bernoulli numbers, sharing no code
    with floorgw: (a*u)^e * exp(e * log(sin x / x)) at x = a*u/2, where
    log(sin x / x) = sum_k>=1 (-1)^k 2^(2k-1) B_2k x^(2k) / (k (2k)!), and
    exp by the recurrence n * E_n = sum_k k * c_k * E_(n-k)."""
    size = order - e
    b = bernoulli(size)
    c = [F(0)] * size  # e * log(sin x / x) in powers of u
    for k in range(1, (size + 1) // 2):
        c[2 * k] = F(e * (-1) ** k * a ** (2 * k), 2 * k * factorial(2 * k)) * b[2 * k]
    exp = [F(1)]
    for n in range(1, size):
        exp.append(sum((k * c[k] * exp[n - k] for k in range(2, n + 1, 2)), F(0)) / n)
    return USeries(e, [F(a) ** e * x for x in exp], order)


@pytest.mark.parametrize("a,e,order", [(1, -1, 40), (1, 1, 120), (3, -6, 120)] + [
    # the sympy test's sine powers and orders
    (a, e, order) for a, e in [(1, 1), (2, 1), (1, -1), (1, -2), (3, 2), (4, 3), (2, -3)]
    for order in (9, 15)
])
def test_sin_factor_against_bernoulli_reference(a, e, order):
    assert sin_factor_series(a, e, order) == sine_power_reference(a, e, order)


def assert_substitution_matches_sympy(p, order=15):
    """p(e^(iu/2)) against sympy's own series of the exponentials, to u^14."""
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols("u")
    expr = sum((c * sympy.exp(sympy.I * k * u / 2)
                for k, c in enumerate(p.coefficients, p.valuation)), sympy.Integer(0))
    expansion = sympy.expand(sympy.series(expr, u, 0, order).removeO())
    ours = lp_substitute_exponential(p, order)
    for k in range(order):
        assert ours.coefficient(k) == sympy_coefficient(expansion, u, k), (p, k)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=4))
@settings(max_examples=6, deadline=None)
def test_substitution_against_sympy_series(half_coeffs):
    assert_substitution_matches_sympy(palindrome(half_coeffs))


def test_substitution_of_the_plane_cubic_count_against_sympy_series():
    assert_substitution_matches_sympy(
        refined_count(degree_p2(3), points_for_genus(degree_p2(3), 0)))


def test_referential_transparency():
    assert sin_factor_series(2, -3, 12) == sin_factor_series(2, -3, 12)
    assert q_integer(7) == q_integer(7)
    assert lp_substitute_exponential(q_integer(5), 10) == lp_substitute_exponential(
        q_integer(5), 10
    )


# ------------------------------------------- property tests against sympy

# Small Laurent polynomials in s and truncated series in u: short windows
# keep the sympy side (expansion and ``series``) fast.
laurent_polys = st.builds(
    LaurentPolyS, st.integers(-4, 4), st.lists(st.integers(-5, 5), max_size=5)
)


@st.composite
def useries(draw, max_len=4):
    valuation = draw(st.integers(-3, 3))
    coeffs = draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=5), max_size=max_len
    ))
    return USeries(valuation, coeffs, valuation + len(coeffs) + draw(st.integers(0, 2)))


def to_sympy(x, var):
    """The polynomial a LaurentPolyS or a USeries' known window stands for."""
    import sympy

    return sum(
        (sympy.Rational(c.numerator, c.denominator) * var ** (x.valuation + i)
         for i, c in enumerate(map(F, x.coefficients))),
        sympy.Integer(0),
    )


def sympy_coefficient(expr, var, k):
    c = expr.coeff(var, k)
    return F(int(c.p), int(c.q))


@given(laurent_polys, laurent_polys, laurent_polys)
@settings(max_examples=60, deadline=None)
# zero operands, one and both, on every run: the sum and product have no zero branch
@example(LaurentPolyS.zero(), LaurentPolyS(-2, [1, 0, -3]), LaurentPolyS(3, [2, 5]))
@example(LaurentPolyS(-4, [-1, 2]), LaurentPolyS(2, [0, 0]), LaurentPolyS.zero())
@example(LaurentPolyS.zero(), LaurentPolyS.zero(), LaurentPolyS.zero())
def test_laurent_ring_laws_against_sympy_expansion(p, q, r):
    sympy = pytest.importorskip("sympy")
    s = sympy.symbols("s")
    zero, one = LaurentPolyS.zero(), LaurentPolyS.one()
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r) and (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and (p - p).is_zero()
    ps, qs = to_sympy(p, s), to_sympy(q, s)
    assert sympy.expand(to_sympy(p + q, s) - (ps + qs)) == 0
    assert sympy.expand(to_sympy(p - q, s) - (ps - qs)) == 0
    assert sympy.expand(to_sympy(p * q, s) - ps * qs) == 0
    assert sympy.expand(to_sympy(p**3, s) - ps**3) == 0


@given(useries(), useries())
@settings(max_examples=60, deadline=None)
def test_useries_add_and_mul_against_sympy(x, y):
    """Sum and product know exactly the coefficients both inputs determine:
    order min(ox, oy) for the sum, min(ox + vy, oy + vx) for the product."""
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols("u")
    xs, ys = to_sympy(x, u), to_sympy(y, u)
    total, added = x + y, sympy.expand(xs + ys)
    assert total.order == min(x.order, y.order)
    for k in range(min(x.valuation, y.valuation), total.order):
        assert total.coefficient(k) == sympy_coefficient(added, u, k)
    product, multiplied = x * y, sympy.expand(xs * ys)
    assert product.order == min(x.order + y.valuation, y.order + x.valuation)
    for k in range(x.valuation + y.valuation, product.order):
        assert product.coefficient(k) == sympy_coefficient(multiplied, u, k)


@given(useries().filter(lambda x: not x.is_zero()))
@settings(max_examples=20, deadline=None)
def test_useries_inverse_against_sympy_series(x):
    """The inverse of valuation v and order o has valuation -v and order o - 2v."""
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols("u")
    v = x.valuation
    inv = x.inverse()
    assert inv.valuation == -v and inv.order == x.order - 2 * v
    # 1/x = u^-v / (x u^-v), and x u^-v has a nonzero constant term
    unit = sympy.expand(to_sympy(x, u) * u**-v)
    expansion = sympy.series(1 / unit, u, 0, x.order - v).removeO()
    for k in range(inv.valuation, inv.order):
        assert inv.coefficient(k) == sympy_coefficient(expansion, u, k + v)


# --------------------------- the integer series against the Fraction reference

# Numerators and denominators: small, huge, pairwise coprime (primes) and sharing factors.
_denominators = st.one_of(st.integers(1, 12), st.sampled_from([7, 11, 13, 101, 2**61 - 1]),
                          st.integers(1, 10**25))
_exact = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**20), 10**20),
                   st.builds(F, st.integers(-(10**12), 10**12), _denominators))


@st.composite
def series_args(draw, max_len=12):
    """(valuation, coefficients, order) for both series types: ints and Fractions,
    negative valuations, all-zero windows and windows shorter than the order."""
    valuation = draw(st.integers(-6, 4))
    coeffs = draw(st.lists(_exact, max_size=max_len))
    return valuation, coeffs, valuation + len(coeffs) + draw(st.integers(0, 3))


def outcome(build):
    """The value ``build()`` returns, or ("refused", message) for an AlgebraError."""
    try:
        return build()
    except AlgebraError as error:
        return ("refused", str(error))


def assert_matches(ours, frozen):
    """The integer series carries the reference's window, order and Fractions,
    or both refused with one message."""
    if isinstance(frozen, tuple):
        assert ours == frozen
        return
    assert (ours.valuation, ours.order) == (frozen.valuation, frozen.order)
    assert ours.coefficients == frozen.coefficients
    assert all(type(c) is F for c in ours.coefficients)
    assert str(ours) == str(frozen) and ours.to_json() == frozen.to_json()


@given(series_args(), series_args(), st.one_of(_exact, st.just(F(0))), st.integers(-4, 4),
       st.integers(-8, 16))
@settings(max_examples=150, deadline=None)
# zero operands, one and both, on every run: sum, product, shift and power have no
# zero branch but 0**0
@example((2, [], 5), (-1, [F(1, 2), 3], 4), F(0), 3, 2)
@example((-1, [3, F(-1, 2)], 3), (0, [0, 0], 4), 2, -2, 0)
@example((-3, [], -1), (1, [0], 3), 0, 4, -2)
def test_useries_matches_the_fraction_reference(x_args, y_args, scalar, k, cut):
    x, fx = USeries(*x_args), FrozenUSeries(*x_args)
    y, fy = USeries(*y_args), FrozenUSeries(*y_args)
    assert_matches(x, fx)
    assert_matches(y, fy)
    assert_matches(x + y, fx + fy)
    assert_matches(x - y, fx - fy)
    assert_matches(-x, -fx)
    assert_matches(x * y, fx * fy)
    assert_matches(y * x, fy * fx)
    assert_matches(x * scalar, fx * scalar)
    assert_matches(scalar * x, scalar * fx)
    assert_matches(x.shift(k), fx.shift(k))
    assert_matches(outcome(lambda: x.truncate(cut)), outcome(lambda: fx.truncate(cut)))
    assert_matches(outcome(x.inverse), outcome(fx.inverse))
    for power in (-2, -1, 0, 1, 2, 3):
        assert_matches(outcome(lambda: x ** power), outcome(lambda: fx ** power))
    for exponent in range(x.valuation - 2, x.order + 2):
        assert outcome(lambda: x.coefficient(exponent)) == \
            outcome(lambda: fx.coefficient(exponent))
    assert (x == y) == (fx == fy)
    read = USeries.from_json(json.loads(json.dumps(x.to_json())))
    assert read == x and hash(read) == hash(x)
    assert_matches(read, FrozenUSeries.from_json(fx.to_json()))


@given(series_args(), st.integers(2, 10**6))
@settings(max_examples=60, deadline=None)
def test_equal_integer_series_have_equal_hashes(args, factor):
    """Equal series built over different denominators (a scalar that cancels,
    a sum with zero, a product with one) are equal and hash alike."""
    x = USeries(*args)
    same = [(x * factor) * F(1, factor), x + USeries.zero(x.order),
            x * USeries.one(max(x.order - x.valuation, 1))]
    for y in same:
        assert y == x and hash(y) == hash(x)
    assert len({x, *same}) == 1


REFUSALS = [
    lambda S: S(0, [0.5], 2),
    lambda S: S(0, [1, 2, 3], 2),
    lambda S: S(0, [1], 2.5),
    lambda S: S(F(1, 2), [1], 3),
    lambda S: S(0, ["1"], 3),
    lambda S: S.one(0),
    lambda S: S(3, [1], 3),
    lambda S: S(2, [1, 1], 6).truncate(7),
    lambda S: S(2, [1, 1], 6).coefficient(6),
    lambda S: S.zero(5).inverse(),
    lambda S: S.zero(5) ** 0,
    lambda S: S.zero(5) ** -2,
]


@pytest.mark.parametrize("build", REFUSALS, ids=[
    "float-coefficient", "overlong-window", "float-order", "fraction-valuation",
    "text-coefficient", "one-at-order-0", "window-at-order", "truncate-up",
    "coefficient-at-order", "zero-inverse", "zero-to-the-0", "zero-to-a-negative-power"])
def test_useries_refusals_match_the_fraction_reference(build):
    ours = outcome(lambda: build(USeries))
    assert ours[0] == "refused" and ours == outcome(lambda: build(FrozenUSeries))


@given(laurent_polys, st.integers(0, 5), st.integers(1, 70))
@settings(max_examples=80, deadline=None)
def test_substitution_matches_the_fraction_reference(p, turns, order):
    assert_matches(_substitute(p, turns, order), frozen_substitute(p, turns, order))


# ------------------------------------- the integer kernel against references


def schoolbook_mul(x, y):
    """The per-term Fraction product that ``USeries.__mul__`` replaced."""
    order = min(x.order + y.valuation, y.order + x.valuation)
    if x.is_zero() or y.is_zero():
        return USeries.zero(order)
    n = order - (x.valuation + y.valuation)
    out = [F(0)] * n
    for i, a in enumerate(x.coefficients):
        if a and i < n:
            for j, b in enumerate(y.coefficients):
                if i + j >= n:
                    break
                if b:
                    out[i + j] += a * b
    return USeries(x.valuation + y.valuation, out, order)


def recurrence_inverse(x):
    """The term-by-term inverse that ``USeries.inverse`` replaced."""
    n = x.order - x.valuation
    c = x.coefficients
    inv = [1 / c[0]] + [F(0)] * (n - 1)
    for k in range(1, n):
        inv[k] = -sum((c[i] * inv[k - i] for i in range(1, k + 1) if c[i]), F(0)) / c[0]
    return USeries(-x.valuation, inv, -x.valuation + n)


@st.composite
def kernel_operands(draw, max_len=24):
    """Series with mixed small and huge denominators, negative valuations,
    and often only even or only odd slots filled.  Two independent lengths
    make one operand longer than the product's window most of the time."""
    valuation = draw(st.integers(-6, 4))
    length = draw(st.integers(0, max_len))
    denominator = st.one_of(st.integers(1, 12), st.integers(1, 10**30))
    numerator = st.one_of(st.integers(-9, 9), st.integers(-(10**20), 10**20))
    coeffs = draw(st.lists(
        st.builds(F, numerator, denominator), min_size=length, max_size=length
    ))
    parity = draw(st.sampled_from((None, 0, 1)))
    if parity is not None:
        coeffs = [c if i % 2 == parity else 0 for i, c in enumerate(coeffs)]
    return USeries(valuation, coeffs, valuation + length + draw(st.integers(0, 3)))


@given(kernel_operands(), kernel_operands())
@settings(max_examples=100, deadline=None)
def test_useries_mul_matches_the_fraction_schoolbook(x, y):
    expected = schoolbook_mul(x, y)
    for product in (x * y, y * x):
        assert product.order == expected.order
        assert product.valuation == expected.valuation
        assert product.coefficients == expected.coefficients


@given(kernel_operands(max_len=16).filter(lambda x: not x.is_zero()))
@settings(max_examples=60, deadline=None)
def test_useries_inverse_matches_the_term_by_term_recurrence(x):
    assert x.inverse() == recurrence_inverse(x)


# ------------------------- the substitution against the builders it replaced


def two_cos_half(a, order):
    # 2 cos(a*u/2) = sum_j (-1)^j * 2 * a^(2j) / (4^j * (2j)!) * u^(2j)
    coeffs = []
    j = 0
    while 2 * j < order:
        coeffs.append(F((-1) ** j * 2 * a ** (2 * j), 4**j * factorial(2 * j)))
        coeffs.append(F(0))
        j += 1
    return USeries(0, coeffs[:order], order)


def cosine_basis_substitution(p, order):
    """The sum over the basis {1, s^a + s^(-a)} that ``lp_substitute_exponential``
    replaced."""
    if p.is_zero():
        return USeries.zero(order)
    result = USeries(0, (p.coefficient(0),), order)
    for a in range(1, p.degree + 1):
        c = p.coefficient(a)
        if c:
            result = result + two_cos_half(a, order) * c
    return result


def taylor_sin_factor(a, exponent, order):
    """The sin(x)/x unit raised to a power that ``sin_factor_series`` replaced."""
    n = order - exponent
    if exponent == 0:
        return USeries.one(order)
    # unit part of 2 sin(a*u/2) / u: coefficient of u^(2j) is
    # (-1)^j * a^(2j+1) / (4^j * (2j+1)!)
    coeffs = []
    j = 0
    while 2 * j < n:
        coeffs.append(F((-1) ** j * a ** (2 * j + 1), 4**j * factorial(2 * j + 1)))
        coeffs.append(F(0))
        j += 1
    return (USeries(0, coeffs[:n], n) ** exponent).shift(exponent)


def assert_same_series(x, y):
    assert (x.valuation, x.order, x.coefficients) == (y.valuation, y.order, y.coefficients)


@given(st.integers(1, 6), st.integers(-8, 30), st.integers(1, 60))
@settings(max_examples=80, deadline=None)
def test_sin_factor_matches_the_taylor_unit_power(a, exponent, window):
    order = exponent + window
    assert_same_series(sin_factor_series(a, exponent, order),
                       taylor_sin_factor(a, exponent, order))


@given(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=13), st.integers(1, 80))
@settings(max_examples=80, deadline=None)
def test_substitution_matches_the_cosine_basis(half_coeffs, order):
    p = palindrome(half_coeffs)
    assert_same_series(lp_substitute_exponential(p, order),
                       cosine_basis_substitution(p, order))


def product_route(p, sines, order):
    """The route ``_sine_series`` replaced: substitute p and each sine power
    apart, pad each window so that the product ends at ``order``, and
    multiply the truncated series."""
    total = sum(e for _, e in sines)
    result = lp_substitute_exponential(p, order - total)
    for a, e in sines:
        result = result * sin_factor_series(a, e, order - (total - e))
    return result


@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=5), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(1, 5), st.integers(-3, 4)), max_size=4),
       st.integers(1, 120))
@settings(max_examples=60, deadline=None)
# p = 1 over negative sine powers alone: the numerator is substituted and multiplied
# by the inverse as any other p is
@example([[1]], [(1, -2)], 30)
@example([[1], [0, 1]], [(2, -1), (1, -3)], 9)
def test_sine_series_matches_the_product_route(halves, sines, window):
    """``_sine_series`` of each drawn polynomial equals the product route."""
    order = sum(e for _, e in sines) + window
    for p in map(palindrome, halves):
        assert_same_series(_sine_series(p, sines, order), product_route(p, sines, order))


def test_sine_power_is_the_repeated_product():
    """The binomial formula gives (s^a - s^-a)^e as square-and-multiply does."""
    for a in range(1, 13):
        base = LaurentPolyS(-a, [-1] + [0] * (2 * a - 1) + [1])
        for e in range(25):
            assert _sine_power(a, e) == base ** e


@pytest.mark.parametrize("series,delta,n,e", [
    # plane lines through 2 points: count * S^-1
    (lambda order: gw_relative_series(degree_p2(1), 2, order), degree_p2(1), 2, -1),
    # F0 absolute at g0 = 0: count * S^-2
    (lambda order: f0_absolute_series(1, 0, 3, order), degree_hirzebruch(0, 1, 1), 3, -2),
    (lambda order: f0_absolute_series(1, 1, 5, order), degree_hirzebruch(0, 1, 2), 5, -2),
], ids=["p2-d1", "f0-a1-b0", "f0-a1-b1"])
def test_count_times_a_negative_sine_power_matches_the_product_route(series, delta, n, e):
    count = refined_count(delta, n)
    for order in (e + 1, 9, 80):
        assert_same_series(series(order).series, product_route(count, [(1, e)], order))


@given(laurent_polys, useries())
@settings(max_examples=60, deadline=None)
def test_json_round_trips(p, x):
    assert LaurentPolyS.from_json(json.loads(json.dumps(p.to_json()))) == p
    assert USeries.from_json(json.loads(json.dumps(x.to_json()))) == x


# ------------------------------------------------- text rendering and powers


@pytest.mark.parametrize("p,text", [
    (LaurentPolyS.zero(), "0"),
    (LaurentPolyS(0, (7,)), "7"),
    (LaurentPolyS(0, (-7,)), "-7"),
    (LaurentPolyS(1, (1,)), "s"),
    (LaurentPolyS(1, (-1,)), "-s"),
    (LaurentPolyS(-1, (1,)), "s^-1"),
    (LaurentPolyS(-1, (-1,)), "-s^-1"),
    (LaurentPolyS(-2, [1, 0, 10, 0, 1]), "s^-2 + 10 + s^2"),
    (LaurentPolyS(-2, [-3, 1, -1, -1, 2]), "-3*s^-2 + s^-1 - 1 - s + 2*s^2"),
])
def test_laurent_text(p, text):
    assert str(p) == text


@pytest.mark.parametrize("x,text", [
    (USeries.zero(5), "0 + O(u^5)"),
    (USeries(-1, [1, 0, F(1, 24)], 2), "u^-1 + 1/24*u + O(u^2)"),
    (USeries(0, [F(1, 2), F(-3, 4), 0, F(5, 3)], 6), "1/2 - 3/4*u + 5/3*u^3 + O(u^6)"),
    (USeries(1, [-1, 0, 1], 4), "-u + u^3 + O(u^4)"),
    (USeries(0, [-1, 0, -1], 3), "-1 - u^2 + O(u^3)"),
])
def test_useries_text(x, text):
    assert str(x) == text


@given(series_args(), series_args(), st.one_of(_exact, st.just(F(0))))
@settings(max_examples=100, deadline=None)
def test_series_texts_are_the_texts_of_the_fractions(x_args, y_args, scalar):
    """The text and the JSON read each coefficient's text from the reduced
    integer pair; it is the text of the coefficient's Fraction."""
    x, y = USeries(*x_args), USeries(*y_args)
    series = [x, y, USeries.zero(x.order), x + y, -x, x * y, x * scalar,
              *(s.inverse() for s in (x, x * y) if not s.is_zero())]
    for s in series:
        assert s._texts() == tuple(rational_to_str(c) for c in s.coefficients)


@given(laurent_polys, useries(), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_powers_are_repeated_products(p, x, k):
    assert p**k == reduce(mul, [p] * k, LaurentPolyS.one())
    if k:
        assert x**k == reduce(mul, [x] * k)
    elif x.is_zero():
        with pytest.raises(AlgebraError):
            x**k
    else:
        assert x**k == USeries.one(x.order - x.valuation)


def test_power_squares_no_further_than_the_top_bit(monkeypatch):
    """k = 2 takes one squaring and the multiply into 1; k = 64 six
    squarings and that multiply."""
    products = []
    multiply = LaurentPolyS.__mul__

    def counting(a, b):
        products.append(None)
        return multiply(a, b)

    monkeypatch.setattr(LaurentPolyS, "__mul__", counting)
    for k, expected in ((2, 2), (64, 7)):
        products.clear()
        q_integer(3) ** k
        assert len(products) == expected


# ----------------------------------------------------------------- Partition


def test_partition_accessors():
    mu = Partition([1, 3, 1])
    assert tuple(mu) == (3, 1, 1)
    assert mu.size == 5
    assert len(mu) == 3
    assert Partition().size == 0
    with pytest.raises(AlgebraError):
        Partition([2, 0])
