"""Exact series arithmetic underlying refined curve counts.

Everything in this module (and in the whole package) is exact: arbitrary
precision integers, ``fractions.Fraction``, and two series types built on
them.  There is no floating point anywhere.

``LaurentPolyS`` is a Laurent polynomial with integer coefficients in a
variable ``s`` standing for q^(1/2), so the exponent of s^k encodes q^(k/2)
and s^2 = q.  Refined multiplicities of floor diagrams live here.

``USeries`` is a truncated Laurent series in a variable ``u`` with rational
coefficients and an explicit truncation order: the coefficient of u^k is
known for valuation <= k < truncation_order and *undefined* (not zero) at or
beyond the order.  Every operation propagates the narrowest reliable
truncation order of its inputs, so an equality of two USeries asserts all
coefficients that both sides actually know.  A USeries holds one tuple of
integer numerators over one positive denominator, and its arithmetic works
on those integers: a sum brings both operands to the lcm of their
denominators; a product takes the window of each operand that it reads in
lowest terms, convolves the numerators as plain integers and reduces the
result, each reduction one gcd over a denominator and its numerators, never
one per coefficient, which keeps the sizes bounded through a Newton
inverse.  Sums, scalar multiples, shifts and truncations are not reduced.
A coefficient becomes a ``Fraction`` only where a library caller reads one
(``coefficient``, ``coefficients``), built on each read and not kept; the
text and the JSON write each numerator and the denominator divided by their
gcd, through ``_ratio_texts``, the one writer of every coefficient text.
``fractions`` is imported only by the functions that build or recognise a
``Fraction`` (``_rational`` past its int fast path, ``rational_from_str``,
those two readers and the scalar branch of ``USeries.__mul__``), so the
CLI, which reads no ``Fraction``, never loads it.
Both types share one sum loop (``_window_sum``), one product loop
(``_convolve``), one square-and-multiply loop (``_power``) and one term
printer (``_terms_str``), so ``s^-2 + 10 + s^2`` and
``u - 1/24*u^3 + O(u^5)`` read alike.  Each operation has one path: a
zero operand or scalar goes through the general loops, which leave the zero
of the result's order; ``**`` keeps one zero branch, which refuses 0**0.

The bridge between the two worlds is the substitution s = e^(iu/2), i.e.
q = e^(iu), performed purely over the rationals by one formula: s^k puts
i^m k^m / (2^m m!) at u^m, so (-i)^t * p(e^(iu/2)) has coefficient
(-1)^((m - t)/2) * sum_k p_k k^m / (2^m m!) at u^m when m - t is even, and
0 otherwise; ``_substitute`` writes these sums over one denominator 2^M M!,
M the last such m below the order, and makes no ``Fraction``.  One
builder, ``_sine_series``, makes every u-series of the package with it: a
palindromic Laurent polynomial p (invariant under s -> 1/s) times
prod (2 sin(a*u/2))^e.  Since 2 sin(a*u/2) = -i (s^a - s^(-a)),
each (s^a - s^(-a))^|e| is written by the binomial formula
(``_sine_power``, no square-and-multiply), the powers e >= 0 are
multiplied into p and the product is substituted once with t = the sum of
those e; the negative powers are substituted together, inverted once and
multiplied in, p = 1 included.  It takes one polynomial: the AB check
substitutes its identity's polynomial once and the right side apart only
when the identity fails.
``lp_substitute_exponential`` (p alone, where each s^a + s^(-a) becomes
2 cos(a*u/2)) and ``sin_factor_series`` (one sine power) are its two
named cases, not exported: no route calls them, but they are the series of
the paper's substitution that a reader can check, and floorbench traces
both.

Non-palindromic input to the substitution is rejected: its image would have
a non-cancelling imaginary part, and every refined count is palindromic, so
such input always signals a bug upstream.
"""

from __future__ import annotations

from contextlib import suppress
from math import comb, factorial, gcd, lcm
from operator import add, index
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["AlgebraError", "LaurentPolyS", "Partition", "USeries", "lp_eval_at_one", "q_integer",
           "rational_to_str"]


class AlgebraError(ValueError):
    """Domain violation in exact-series arithmetic."""


def _rational(x) -> Fraction | int:
    """``x``, a ``Fraction`` or an int; a bool or a float is an AlgebraError."""
    if type(x) is int:
        return x
    from fractions import Fraction
    if isinstance(x, Fraction) or type(x) is not bool and isinstance(x, int):
        return x
    raise AlgebraError(f"expected an exact rational, got {type(x).__name__}")


def _ratio_texts(nums, den: int) -> list[str]:
    """The text of each nums[i] / den, den > 0, in lowest terms: "num/den",
    or "num" when the reduced denominator is 1, so "0" for a zero.  The one
    writer of a rational's text.

    An integer past the interpreter's int-to-str digit limit is an
    AlgebraError; the limit itself is left as it is.
    """
    try:
        return [f"{c // common}/{den // common}" if (common := gcd(c, den)) != den
                else str(c // common) for c in nums]
    except ValueError:
        raise AlgebraError("a coefficient has more digits than the interpreter's "
                           "int-to-str limit allows") from None


def rational_to_str(x: Fraction | int) -> str:
    """Serialize a rational as ``"num/den"``, or ``"num"`` when den = 1; an
    integer past the int-to-str digit limit is an AlgebraError."""
    x = _rational(x)
    return _ratio_texts((x.numerator,), x.denominator)[0]


def rational_from_str(text: str) -> Fraction:
    """The rational that :func:`rational_to_str` writes as ``text``, else an AlgebraError."""
    from fractions import Fraction
    num, slash, den = text.partition("/") if type(text) is str else ("", "", "")
    with suppress(ValueError, ZeroDivisionError):
        if rational_to_str(x := Fraction(int(num), int(den) if slash else 1)) == text:
            return x
    raise AlgebraError(f"{text!r} is not a rational as rational_to_str writes it: "
                       "'num', or 'num/den' in lowest terms with den > 1")


def _int_text(text: str) -> int:
    """The int that ``str`` writes as ``text``, else a ValueError: ``int`` also
    reads "1_0" as 10 and " 2" as 2."""
    if str(number := int(text)) != text:
        raise ValueError(text)
    return number


def _integer(value, field: str) -> int:
    """An int or the text ``str`` writes of one (JSON keys are strings); never a
    float or a bool."""
    if type(value) is int:
        return value
    if type(value) is str:
        with suppress(ValueError):
            return _int_text(value)
    raise AlgebraError(f"{field} {_shown(value)} is not an integer")


def _whole(value, name: str, error: type) -> int:
    """``value`` when it is an int, else ``error``: not a float, a str or a bool."""
    if type(value) is not int:  # not isinstance: a bool is an int
        raise error(f"{name} must be an integer, got {_shown(value)}")
    return value


# ints this far from 0 are shown by their size: under 640 digits, no limit that
# sys.set_int_max_str_digits can set refuses their text
_SHOWN_BOUND = 10**100


def _shown(value) -> str:
    """The text of a value in a refusal: ``repr(value)``, but an int of 100 digits
    or more is written as its sign and bit length, ``-<an int of 16610 bits>``,
    element by element in a tuple or a list, and a value whose repr raises
    ValueError (a ``Fraction`` of such an int) as ``<its type's name>``.  So no
    refusal meets Python's limit on the digits of an int's text."""
    if type(value) is int and not -_SHOWN_BOUND < value < _SHOWN_BOUND:
        return f"{'-' if value < 0 else ''}<an int of {value.bit_length()} bits>"
    if type(value) is list:
        return f"[{', '.join(map(_shown, value))}]"
    if type(value) is tuple:
        return f"({', '.join(map(_shown, value))}{',' if len(value) == 1 else ''})"
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__}>"


def _iterable(values, name: str):
    """An iterator over ``values``, else an AlgebraError: an int where a
    sequence is documented is refused, not left to a bare TypeError."""
    try:
        return iter(values)
    except TypeError:
        raise AlgebraError(f"{name} must be iterable, got {type(values).__name__}") from None


def _json(value, kind: type, field: str):
    """``value``, which JSON holds as a ``kind``: dict or list."""
    if not isinstance(value, kind):
        raise AlgebraError(f"{field} is not a JSON {'object' if kind is dict else 'array'}")
    return value


def _read_series(cls, data: dict, coefficient, *keys):
    """``cls(valuation, coefficients, *rest)`` from series JSON, the integers at ``keys``."""
    try:
        valuation, *rest = [_integer(_json(data, dict, "the series")[key], key) for key in keys]
        coefficients = _json(data["coefficients"], list, "coefficients")
    except KeyError as missing:
        raise AlgebraError(f"series JSON has no key {missing}") from None
    return cls(valuation, [coefficient(c) for c in coefficients], *rest)


class _Memo(dict):
    """A per-call table: ``make(key)`` for each key, made when first asked and kept."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _Frozen:
    """The slots-only base of the immutable value types: a write after the
    constructor's ``object.__setattr__`` is refused, and pickle and copy
    rebuild an instance from its slots in order."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple([getattr(self, slot) for slot in self.__slots__])


class Partition(tuple):
    """A partition: weakly decreasing tuple of positive integers.

    ``size`` is the sum of the parts and ``len()`` the number of parts.
    Construction sorts the parts, so ``Partition([1, 3, 1])`` and
    ``Partition([3, 1, 1])`` coincide.
    """

    def __new__(cls, parts: Iterable[int] = ()):
        normalized = tuple(sorted([_whole(p, "partition part", AlgebraError)
                                   for p in _iterable(parts, "partition parts")], reverse=True))
        if any(p <= 0 for p in normalized):
            raise AlgebraError(f"partition parts must be positive, got {_shown(normalized)}")
        return super().__new__(cls, normalized)

    @property
    def size(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)})"


def _power(base, k: int, one):
    """base ** k for k >= 0 by square-and-multiply; squares no further than
    k's top bit."""
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def _convolve(xs, ys, n: int) -> list[int]:
    """The first n coefficients of the product of the windows xs and ys, by the
    schoolbook double loop of both series types; zero terms are skipped."""
    out = [0] * n
    for i, x in enumerate(xs[:n]):
        if x:
            for k, y in enumerate(ys[: n - i], i):
                if y:
                    out[k] += x * y
    return out


def _window_sum(lo: int, hi: int, *windows) -> list[int]:
    """The coefficients over [lo, hi) of the sum of the windows (valuation,
    ints, scale), each cut at hi and multiplied by its scale: the one sum
    loop of both series types."""
    out = [0] * (hi - lo)
    for valuation, ints, scale in windows:
        ints = ints[: max(hi - valuation, 0)]
        i = valuation - lo
        out[i:i + len(ints)] = map(add, out[i:], ints if scale == 1 else [c * scale for c in ints])
    return out


def _terms_str(valuation: int, texts, var: str) -> str:
    """The nonzero terms ``c*var^k`` of a window of coefficient texts (as
    ``_ratio_texts`` writes them) starting at ``var^valuation``, joined by
    signs: ``c`` alone at k = 0, ``var`` for k = 1, no ``1*`` or ``-1*``,
    and "0" when no term is nonzero."""
    terms = []
    for k, c in enumerate(texts, valuation):
        if c == "0":
            continue
        power = var if k == 1 else f"{var}^{k}"
        if k == 0:
            terms.append(c)
        elif c in ("1", "-1"):
            terms.append(power if c == "1" else f"-{power}")
        else:
            terms.append(f"{c}*{power}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


class LaurentPolyS(_Frozen):
    """Laurent polynomial in s = q^(1/2) with integer coefficients.

    Stored as a valuation plus a dense coefficient tuple indexed from the
    valuation upward; leading and trailing stored coefficients are nonzero
    unless the polynomial is zero (empty tuple, valuation 0).  Instances are
    immutable and hashable.
    """

    __slots__ = ("valuation", "coefficients")

    def __init__(self, valuation: int, coefficients: Iterable[int]):
        try:  # index, not _whole, which refuses a bool too: every operation builds one
            valuation, coeffs = index(valuation), list(map(index, coefficients))
        except TypeError as error:
            raise AlgebraError(f"valuation and coefficients must be integers: {error}") from None
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "valuation", 0)
            object.__setattr__(self, "coefficients", ())
        else:
            object.__setattr__(self, "valuation", valuation + lo)
            object.__setattr__(self, "coefficients", tuple(coeffs[lo:hi]))

    @classmethod
    def zero(cls) -> "LaurentPolyS":
        return cls(0, ())

    @classmethod
    def one(cls) -> "LaurentPolyS":
        return cls(0, (1,))

    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        if self.is_zero():
            raise AlgebraError("the zero polynomial has no degree")
        return self.valuation + len(self.coefficients) - 1

    def coefficient(self, exponent: int) -> int:
        """The coefficient of s^exponent: public as the reader of one term of a count."""
        i = _whole(exponent, "exponent", AlgebraError) - self.valuation
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return 0

    def is_palindromic(self) -> bool:
        """True when invariant under s -> 1/s."""
        if self.is_zero():
            return True
        return (
            self.coefficients == tuple(reversed(self.coefficients))
            and self.valuation == -self.degree
        )

    def __add__(self, other: "LaurentPolyS") -> "LaurentPolyS":
        if not isinstance(other, LaurentPolyS):
            return NotImplemented
        lo = min(self.valuation, other.valuation)
        hi = max(self.valuation + len(self.coefficients), other.valuation + len(other.coefficients))
        return LaurentPolyS(lo, _window_sum(lo, hi, *[(p.valuation, p.coefficients, 1)
                                                      for p in (self, other)]))

    def __neg__(self) -> "LaurentPolyS":
        return LaurentPolyS(self.valuation, [-c for c in self.coefficients])

    def __sub__(self, other: "LaurentPolyS") -> "LaurentPolyS":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            other = _rational(other)
            return LaurentPolyS(self.valuation, [c * other for c in self.coefficients])
        if not isinstance(other, LaurentPolyS):
            return NotImplemented
        xs, ys = self.coefficients, other.coefficients
        return LaurentPolyS(self.valuation + other.valuation,
                            _convolve(xs, ys, len(xs) + len(ys) - 1))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPolyS":
        if _whole(k, "exponent", AlgebraError) < 0:
            raise AlgebraError("negative powers of Laurent polynomials are not defined here")
        return _power(self, k, LaurentPolyS.one())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPolyS)
            and self.valuation == other.valuation
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash(("LaurentPolyS", self.valuation, self.coefficients))

    def __str__(self) -> str:
        return _terms_str(self.valuation, _ratio_texts(self.coefficients, 1), "s")

    def __repr__(self) -> str:
        return f"LaurentPolyS({self.valuation}, {self.coefficients})"

    def to_json(self) -> dict:
        return {
            "valuation": self.valuation,
            "coefficients": _ratio_texts(self.coefficients, 1),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPolyS":
        """What :meth:`to_json` wrote: public for the round trip that README documents."""
        return _read_series(cls, data, lambda c: _integer(c, "coefficient"), "valuation")


# the largest m of q_integer: a listed diagram's weights are at most d_b <= n <= 900
# (diagrams._MAX_POINTS), and [m]_q holds 2m - 1 coefficients
_Q_INTEGER_CAP = 10_000


def q_integer(m: int) -> LaurentPolyS:
    """The q-integer [m]_q = s^-(m-1) + s^-(m-3) + ... + s^(m-1).

    Palindromic, with value m at s = 1.  Rejects m <= 0 and m over
    ``_Q_INTEGER_CAP``, before anything is built.
    """
    if _whole(m, "m", AlgebraError) <= 0:
        raise AlgebraError(f"q_integer requires a positive integer, got {_shown(m)}")
    if m > _Q_INTEGER_CAP:
        raise AlgebraError(f"q_integer: m is over the cap _Q_INTEGER_CAP = {_Q_INTEGER_CAP}")
    coeffs = [0] * (2 * m - 1)
    coeffs[::2] = [1] * m
    return LaurentPolyS(-(m - 1), coeffs)


def lp_eval_at_one(p: LaurentPolyS) -> int:
    """Value at s = 1, i.e. the plain coefficient sum (the q -> 1 limit)."""
    return sum(p.coefficients)


class USeries(_Frozen):
    """Truncated Laurent series in u with exact rational coefficients.

    The coefficient of u^(valuation + i) is ``coefficients[i]``; the window
    covers exactly [valuation, order).  Coefficients below the valuation are
    known to vanish; coefficients at or beyond ``order`` are *unknown* and
    requesting one raises.  The zero-to-its-order series has an empty window
    and valuation == order.

    Stored as one tuple of integer numerators, the whole window, over one
    positive denominator; the window's first numerator is nonzero.  The pair
    need not be in lowest terms: a product reads each operand's window in
    lowest terms and reduces its result, each by one gcd over the denominator
    and the numerators, and sums, negations, scalar multiples, shifts and
    truncations keep what they get.  ``coefficients`` is the window as
    ``Fraction``s, built on each read; ``_texts`` is the window as the text
    that ``rational_to_str`` writes, built on first read and kept, the one
    cache of the type.  The text and the JSON read only the texts.  Equality
    and the hash compare the lowest-terms pair.  Instances are immutable.
    """

    __slots__ = ("valuation", "order", "_nums", "_den", "_strs")

    def __new__(cls, valuation: int, coefficients: Iterable, order: int):
        valuation = _whole(valuation, "valuation", AlgebraError)
        order = _whole(order, "order", AlgebraError)
        coeffs = [_rational(c) for c in _iterable(coefficients, "coefficients")]
        if valuation + len(coeffs) > order:
            raise AlgebraError(
                f"coefficient window [{_shown(valuation)}, {_shown(valuation + len(coeffs))}) "
                f"exceeds truncation order {_shown(order)}"
            )
        den = lcm(*(c.denominator for c in coeffs))
        return _series(valuation, [c.numerator * (den // c.denominator) for c in coeffs], den,
                       order)

    def __reduce__(self):  # from the Fractions: the slots hold a cache
        return USeries, (self.valuation, self.coefficients, self.order)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
        return tuple([Fraction(c, self._den) for c in self._nums])

    def _texts(self) -> tuple[str, ...]:
        """The window's coefficients as ``rational_to_str`` writes them, from
        each numerator and the denominator divided by their gcd: no
        ``Fraction`` is built."""
        if self._strs is None:
            object.__setattr__(self, "_strs", tuple(_ratio_texts(self._nums, self._den)))
        return self._strs

    @classmethod
    def zero(cls, order: int) -> "USeries":
        return cls(order, (), order)

    @classmethod
    def one(cls, order: int) -> "USeries":
        if order < 1:
            raise AlgebraError("order must be >= 1 to represent the constant 1")
        return cls(0, (1,), order)

    def is_zero(self) -> bool:
        return not self._nums

    def coefficient(self, exponent: int) -> Fraction:
        if _whole(exponent, "exponent", AlgebraError) >= self.order:
            raise AlgebraError(
                f"coefficient of u^{_shown(exponent)} is beyond truncation order "
                f"{_shown(self.order)}"
            )
        from fractions import Fraction
        return Fraction(self._nums[i] if (i := exponent - self.valuation) >= 0 else 0, self._den)

    def truncate(self, new_order: int) -> "USeries":
        """Forget coefficients at or beyond ``new_order`` (never extends)."""
        if _whole(new_order, "order", AlgebraError) > self.order:
            raise AlgebraError("truncate cannot increase the truncation order")
        return _series(self.valuation, self._nums[: max(new_order - self.valuation, 0)],
                       self._den, new_order)

    def __add__(self, other: "USeries") -> "USeries":
        if not isinstance(other, USeries):
            return NotImplemented
        order = min(self.order, other.order)
        lo = min(self.valuation, other.valuation, order)
        den = lcm(self._den, other._den)
        return _series(lo, _window_sum(lo, order, *[(x.valuation, x._nums, den // x._den)
                                                    for x in (self, other)]), den, order)

    def __neg__(self) -> "USeries":
        return _series(self.valuation, [-c for c in self._nums], self._den, self.order)

    def __sub__(self, other: "USeries") -> "USeries":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, USeries):
            from fractions import Fraction
            if not isinstance(other, (int, float, Fraction)):
                return NotImplemented
            num = (other := _rational(other)).numerator
            return _series(self.valuation, [c * num for c in self._nums],
                           self._den * other.denominator, self.order)
        # a zero operand's valuation is its order, so it leaves n = 0 and the zero of this order
        order = min(self.order + other.valuation, other.order + self.valuation)
        v = self.valuation + other.valuation
        n = order - v
        # each operand's window in lowest terms: a truncated or longer operand
        # needs less than its whole denominator
        xs, dx = _lowest_terms(self._nums[:n], self._den)
        ys, dy = _lowest_terms(other._nums[:n], other._den)
        return _series(v, *_lowest_terms(_convolve(xs, ys, n), dx * dy), order)

    __rmul__ = __mul__

    def shift(self, k: int) -> "USeries":
        """Multiply by u^k."""
        k = _whole(k, "shift", AlgebraError)
        return _series(self.valuation + k, self._nums, self._den, self.order + k)

    def inverse(self) -> "USeries":
        """Multiplicative inverse; the unit part is inverted by Newton
        iteration y <- y * (2 - unit * y), which doubles the known terms.
        Of the window length L, the steps know ceil(L / 2^s) terms for
        s = ..., 1, 0, so the last, costliest step never adds only a few.

        Input with window length L and valuation v yields valuation -v and
        window length L again, i.e. truncation order (order - 2v).
        """
        if self.is_zero():
            raise AlgebraError("inversion of the zero series is rejected")
        n = self.order - self.valuation
        unit = _series(0, self._nums, self._den, n)
        lead = self._nums[0]
        inv = _series(0, [self._den if lead > 0 else -self._den], abs(lead), 1)
        for s in reversed(range((n - 1).bit_length())):
            m = ((n - 1) >> s) + 1
            guess = _series(0, inv._nums, inv._den, m)  # inv padded with zeros
            inv = guess * (_series(0, [2], 1, m) - unit.truncate(m) * guess)
        return inv.shift(-self.valuation)

    def __pow__(self, k: int) -> "USeries":
        if _whole(k, "exponent", AlgebraError) < 0:
            return self.inverse() ** (-k)
        if self.is_zero():
            if not k:
                raise AlgebraError("0**0 of series is undefined")
            return USeries.zero(k * self.order)
        unit = _series(0, self._nums, self._den, self.order - self.valuation)
        return _power(unit, k, USeries.one(unit.order)).shift(k * self.valuation)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, USeries)
            and self.order == other.order
            and self.valuation == other.valuation
            and _lowest_terms(self._nums, self._den) == _lowest_terms(other._nums, other._den)
        )

    def __hash__(self) -> int:
        return hash(("USeries", self.valuation, _lowest_terms(self._nums, self._den), self.order))

    def __str__(self) -> str:
        return f"{_terms_str(self.valuation, self._texts(), 'u')} + O(u^{self.order})"

    def __repr__(self) -> str:
        return f"USeries({self.valuation}, {self.coefficients}, order={self.order})"

    def to_json(self) -> dict:
        return {
            "valuation": self.valuation,
            "order": self.order,
            "coefficients": list(self._texts()),
        }

    @classmethod
    def from_json(cls, data: dict) -> "USeries":
        """What :meth:`to_json` wrote: public for the round trip that README documents."""
        return _read_series(cls, data, rational_from_str, "valuation", "order")


def _lowest_terms(nums, den: int) -> tuple:
    """nums[i] / den as (numerators, denominator) in lowest terms, by one gcd
    over ``den`` and every numerator; ``nums`` itself when it is already."""
    common = gcd(den, *nums)
    return (nums, den) if common == 1 else (tuple([c // common for c in nums]), den // common)


def _series(valuation: int, nums, den: int, order: int) -> USeries:
    """The series nums[i] / den at u^(valuation + i) over [valuation, order):
    ``nums`` holds at most order - valuation ints, padded here with zeros,
    and ``den`` is positive."""
    lo = 0
    while lo < len(nums) and not nums[lo]:
        lo += 1
    if lo == len(nums):
        nums, den, valuation = (), 1, order
    else:
        nums = (*nums[lo:], *[0] * (order - valuation - len(nums)))
        valuation += lo
    series = object.__new__(USeries)
    for slot, value in (("valuation", valuation), ("order", order), ("_nums", nums),
                        ("_den", den), ("_strs", None)):
        object.__setattr__(series, slot, value)
    return series


def _substitute(p: LaurentPolyS, turns: int, order: int) -> USeries:
    """(-i)^turns * p(e^(iu/2)) to ``order``, by the module docstring's formula.

    The callers' p has a real image, p(1/s) = (-1)^turns p(s), so the
    coefficients at u^m with m - turns odd are 0 and are not summed.  For
    the others (-k)^m = (-1)^turns k^m, so s^k and s^-k are summed as one
    term.  The sums[m] / (2^m m!) are written over one denominator
    2^top top!, top the last such m below the order.
    """
    parity = turns % 2
    folded: dict[int, int] = {}
    for k, c in enumerate(p.coefficients, p.valuation):
        folded[abs(k)] = folded.get(abs(k), 0) + (-c if k < 0 and parity else c)
    sums = [0] * order
    for k, c in folded.items():
        if c:
            power, step = c * k**parity, k * k  # 0 ** 0 == 1 keeps the constant term
            for m in range(parity, order, 2):
                sums[m] += power
                power *= step
    top = order - 1 - (order - 1 - parity) % 2
    if top < 0:
        return USeries.zero(order)
    scale = 1  # 2^top top! / (2^m m!)
    for m in range(top, -1, -2):
        sums[m] *= scale if (m - turns) // 2 % 2 == 0 else -scale
        scale *= 4 * m * (m - 1)
    return _series(0, sums, factorial(top) << top, order)


def _sine_power(a: int, e: int) -> LaurentPolyS:
    """(s^a - s^-a)^e for a >= 1 and e >= 0 by the binomial formula: the
    coefficient of s^(a(2j - e)) is (-1)^(e - j) C(e, j), no product taken."""
    coeffs = [0] * (2 * a * e + 1)
    coeffs[::2 * a] = [(-1) ** (e - j) * comb(e, j) for j in range(e + 1)]
    return LaurentPolyS(-a * e, coeffs)


def _sine_series(p: LaurentPolyS, sines: Iterable[tuple[int, int]], order: int) -> USeries:
    """p(e^(iu/2)) * prod (2 sin(a*u/2))^e over (a, e) in ``sines``, to ``order``,
    as the module docstring says; requires order > the sum of all e.  The
    sine powers e >= 0 are multiplied into p, which is substituted once; the
    negative ones are substituted together and inverted once."""
    if not p.is_palindromic():
        raise AlgebraError(
            "substitution requires a palindromic polynomial (imaginary parts "
            "would not cancel)"
        )
    den, up, down = LaurentPolyS.one(), 0, 0
    for a, e in sines:
        power = _sine_power(a, abs(e))
        if e >= 0:
            p, up = power * p, up + e
        else:
            den, down = power * den, down - e
    series = _substitute(p, up, order + down)
    if down:
        # window order + down - up: the inverse ends at order - up, and the
        # numerator's series starts at u^up or later
        series = series * _substitute(den, down, order + 2 * down - up).inverse()
    if series.order != order:
        raise AssertionError("truncation bookkeeping drift")
    return series


def lp_substitute_exponential(p: LaurentPolyS, order: int) -> USeries:
    """Substitute s = e^(iu/2) into a palindromic Laurent polynomial.

    The coefficient of u^m is (-1)^(m/2) * sum_k p_k k^m / (2^m m!) for even
    m and 0 for odd m: each pair s^a + s^(-a) becomes 2 cos(a*u/2).  The
    result is a real series of valuation >= 0, truncated at ``order``.
    Non-palindromic input is rejected.
    """
    if _whole(order, "order", AlgebraError) < 1:
        raise AlgebraError("substitution order must be >= 1")
    return _sine_series(p, (), order)


def sin_factor_series(a: int, exponent: int, order: int) -> USeries:
    """(2 sin(a*u/2))^exponent as a truncated Laurent series in u.

    2 sin(a*u/2) = -i (s^a - s^(-a)) at s = e^(iu/2), so a power e >= 0 is
    (-i)^e (s^a - s^(-a))^e substituted, of valuation e.  A negative power
    inverts the positive one, built with a window of order - exponent
    terms.  Requires order > exponent so at least one coefficient exists.
    """
    for value, name in ((a, "a"), (exponent, "exponent"), (order, "order")):
        _whole(value, name, AlgebraError)
    if a < 1:
        raise AlgebraError(f"sine frequency must be a positive integer, got {_shown(a)}")
    if order <= exponent:
        raise AlgebraError(
            f"order {_shown(order)} leaves no coefficients for valuation {_shown(exponent)}"
        )
    return _sine_series(LaurentPolyS.one(), [(a, exponent)], order)
