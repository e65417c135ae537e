"""Shared grids and small utilities for the test suite."""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, lcm, prod

from floorgw import Edge, MarkedFloorDiagram, degree_hirzebruch, degree_p2, points_for_genus
from floorgw.algebra import (
    AlgebraError,
    LaurentPolyS,
    _Memo,
    _power,
    _read_series,
    _terms_str,
    _whole,
    q_integer,
    rational_from_str,
    rational_to_str,
)
from floorgw.diagrams import InvalidDiagram, _head_subsets, _limits


def assert_same_text(got: str, want: str, *context) -> None:
    """``got == want`` tested as one bool: on a mismatch the message names the
    first differing offset with a window of 40 characters on each side, so
    two listings of megabytes fail at once, not after an assert's diff of
    both whole texts."""
    if got != want:
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
                  min(len(got), len(want)))
        start, where = max(at - 40, 0), f"{context}: " if context else ""
        raise AssertionError(f"{where}texts of {len(got)} and {len(want)} characters first differ "
                             f"at offset {at}: {got[start:at + 40]!r} != {want[start:at + 40]!r}")


def hirzebruch_family_grid(k_max=2, h_max=2, d_max=2):
    out = []
    for k in range(k_max + 1):
        for h in range(h_max + 1):
            for d in range(d_max + 1):
                if h + d >= 1:
                    out.append(degree_hirzebruch(k, h, d))
    return out


def acceptance_grid():
    """Every (delta, n) pair of the oracle-equivalence criterion:
    P2 degrees up to 3 and Hirzebruch k,h <= 2, d <= 2, for genus 0..2."""
    deltas = [degree_p2(d) for d in (1, 2, 3)] + hirzebruch_family_grid()
    return [
        (delta, points_for_genus(delta, g)) for delta in deltas for g in (0, 1, 2)
    ]


def diagram_key(diagram):
    """Canonical comparison key for a marked diagram (None endpoints -> 0)."""
    return (
        diagram.n,
        diagram.vertex_positions,
        diagram.divergence,
        tuple(
            sorted(
                (e.position, e.source or 0, e.target or 0, e.weight)
                for e in diagram.edges
            )
        ),
    )


def listing_profiles(delta, diagrams):
    """``diagrams.weight_profiles`` of a listing of valid diagrams of ``delta``, read
    diagram by diagram: the reference applied to a listing, against the dict that
    ``oracle.brute_force_enumerate`` fills per shape.  Each diagram is keyed once
    by the sorted weights of all its edges; its d_b + d_t unbounded edges weigh 1,
    so they lead its key and are cut from each distinct key."""
    keys = Counter(tuple(sorted([e[3] for e in d.edges])) for d in diagrams)
    ends = delta.d_b + delta.d_t
    return {key[ends:]: count for key, count in keys.items()}


def disconnected_refined_counts(delta) -> list:
    """R(delta, n) for n = 0, 1, ..., the refined count of the possibly
    disconnected marked floor diagrams of ``delta`` on n points, by one
    forward pass over the positions that keeps no components.  It shares no
    code with ``diagrams._state_sum``, ``weight_profiles`` or ``_walk``, and
    reads only ``LaurentPolyS`` and ``q_integer``.  A state is (incoming ends used, outgoing ends used,
    floors left, free incoming heads, the sorted positive budgets of the
    placed floors, the sorted weights of the pending bounded heads).  At each
    position the state places an incoming head; a bounded edge of weight
    w <= b from one of the floors of budget b, times [w]_q^2; an outgoing
    end from one of them; or a floor that takes r0 free heads and a
    sub-multiset of the pending heads, in C(free, r0) prod C(m_w, r_w) ways,
    with budget = weight taken + r0 - divergence >= 0 (a divergence-0 floor
    may take nothing).  Nothing bounds the number of bounded edges, so the
    finished state at layer n is R(delta, n), and the pass ends when no
    state is left.  No branch is pruned."""
    d_b, d_t, div = delta.d_b, delta.d_t, delta.divergence
    # free heads, pending weights and budgets together never exceed the incoming ends placed
    squares = {w: q_integer(w) ** 2 for w in range(1, d_b + 1)}
    zero = LaurentPolyS.zero()
    layer, counts = {(0, 0, delta.height, 0, (), ()): LaurentPolyS.one()}, []
    while layer:
        counts.append(layer.get((d_b, d_t, 0, 0, (), ()), zero))
        after = {}
        for (ins, outs, floors, free, budgets, pending), value in layer.items():
            branches = []
            if ins < d_b:
                branches.append((value, (ins + 1, outs, floors, free + 1, budgets, pending)))
            for b in set(budgets):
                rest = list(budgets)
                rest.remove(b)
                placed = value * budgets.count(b)
                for w in range(1, b + 1):
                    branches.append((placed * squares[w], (
                        ins, outs, floors, free, tuple(sorted(rest + [b - w] * (w < b))),
                        tuple(sorted(pending + (w,))))))
                if outs < d_t:
                    branches.append((placed, (ins, outs + 1, floors, free,
                                              tuple(sorted(rest + [b - 1] * (b > 1))), pending)))
            groups = [(w, pending.count(w)) for w in sorted(set(pending))]
            for r0, *takes in product(range(free + 1), *[range(m + 1) for _, m in groups]):
                budget = sum([w * r for (w, _), r in zip(groups, takes)]) + r0 - div
                if floors and budget >= 0:
                    ways = comb(free, r0) * prod([comb(m, r) for (_, m), r in zip(groups, takes)])
                    left = tuple([w for (w, m), r in zip(groups, takes) for _ in range(m - r)])
                    branches.append((value * ways, (
                        ins, outs, floors - 1, free - r0,
                        tuple(sorted(budgets + (budget,) * (budget > 0))), left)))
            for part, child in branches:
                after[child] = after[child] + part if child in after else part
        layer = after
    return counts


def frozen_state_sum(state: tuple, limits: tuple) -> list[tuple[int, int, tuple]]:
    """A frozen copy of ``diagrams._state_sum`` as it was before it tested
    its prunes from what each branch changes: it builds every raw child,
    sorts its components and then drops the dead ones, by the three tests at
    its end.  The live branches of a canonical ``weight_profiles`` state, as
    (sweep branches, bounded edge weight or 0, canonical child).
    ``limits`` is the record of ``diagrams._limits``: n, h, d_b, the number
    of bounded edges, d_t, the divergence of every floor and the room of
    the later windows."""
    in_used, bd_used, out_used, floors, free, comps = state
    _, _, d_b, total_bounded, d_t, div, room = limits
    branches = []
    if floors and in_used < d_b:
        branches.append((1, 0, (in_used + 1, bd_used, out_used, floors, free + 1, comps)))
    for i, (budgets, heads) in enumerate(comps):
        others = comps[:i] + comps[i + 1:]
        for b in dict.fromkeys(budgets):
            m = budgets.count(b)
            k = budgets.index(b)
            rest = budgets[:k] + budgets[k + 1:]
            if floors and bd_used < total_bounded:
                for w in range(1, b + 1):
                    left = tuple(sorted(rest + (b - w,))) if w < b else rest
                    comp = (left, tuple(sorted(heads + (w,))))
                    branches.append((m, w, (in_used, bd_used + 1, out_used, floors, free,
                                            others + (comp,))))
            if out_used < d_t:
                left = tuple(sorted(rest + (b - 1,))) if b > 1 else rest
                branches.append((m, 0, (in_used, bd_used, out_used + 1, floors, free,
                                        others + ((left, heads),))))
    last = floors == 1
    if floors and not (last and (in_used < d_b or bd_used < total_bounded)):
        # head groups: (component index or None for unbounded heads, weight, count)
        groups = [(None, 1, free)] + [
            (i, w, heads.count(w))
            for i, (_, heads) in enumerate(comps)
            for w in dict.fromkeys(heads)
        ]
        for takes in product(*(((m,) if last else range(m + 1)) for _, _, m in groups)):
            ways = prod(comb(m, r) for (_, _, m), r in zip(groups, takes))
            budget = sum(w * r for (_, w, _), r in zip(groups, takes)) - div
            if budget < 0:
                continue
            touched = {i for (i, _, _), r in zip(groups, takes) if r and i is not None}
            budgets = [b for i in touched for b in comps[i][0]]
            heads = tuple(sorted(
                w for (i, w, m), r in zip(groups, takes) if i in touched
                for _ in range(m - r)
            ))
            untouched = tuple(c for i, c in enumerate(comps) if i not in touched)
            left = tuple(sorted(budgets + [budget] if budget else budgets))
            branches.append((ways, 0, (in_used, bd_used, out_used, floors - 1,
                                       free - takes[0], untouched + ((left, heads),))))
    live = []
    for ways, w, (in_used, bd_used, out_used, floors, free, comps) in branches:
        comps = tuple(sorted(comps))
        spare = sum(sum(budgets) for budgets, _ in comps)
        pending = sum(len(heads) for _, heads in comps)
        # the cycle test is bd_used - pending - (h - floors) + len(comps) >
        # total_bounded - h + 1, the genus, with h taken off both sides
        if not (((), ()) in comps and (len(comps) > 1 or floors)
                or spare < total_bounded - bd_used - room[floors]
                or bd_used - pending + floors + len(comps) > total_bounded + 1):
            live.append((ways, w, (in_used, bd_used, out_used, floors, free, comps)))
    return live


def frozen_head_takes(key: tuple) -> list[tuple[int, int, tuple, int]]:
    """A frozen copy of ``diagrams._head_takes`` as it was before it folded
    over the weight groups: one ``product`` over the groups' take counts,
    with four comprehensions per take."""
    heads, last = key
    groups = [(w, heads.count(w)) for w in dict.fromkeys(heads)]
    return [(sum([w * r for (w, _), r in zip(groups, rs)]), sum(rs),
             tuple([w for (w, m), r in zip(groups, rs) for _ in range(m - r)]),
             prod([comb(m, r) for (_, m), r in zip(groups, rs)]))
            for rs in product(*[(m,) if last else range(m + 1) for _, m in groups])]


def frozen_weight_profiles(delta, n) -> tuple[dict[tuple[int, ...], int], int]:
    """A frozen copy of the loop of ``diagrams.weight_profiles`` as it was
    before it packed each profile into one int and left unexpanded the states
    whose budgets the ends left cannot spend: every state is expanded, by
    :func:`frozen_state_sum`, and each profile is a sorted tuple.  Returns the
    profile dict and the number of states expanded."""
    _, h, d_b, total_bounded, d_t, _, _ = limits = _limits(delta, n)
    layer, expanded = {(0, 0, 0, h, 0, ()): {(): 1}}, 0
    for _ in range(n):
        following = {}
        for state, profiles in layer.items():
            expanded += 1
            for ways, w, child in frozen_state_sum(state, limits):
                total = following.setdefault(child, {})
                for profile, count in profiles.items():
                    if w:
                        profile = tuple(sorted(profile + (w,)))
                    total[profile] = total.get(profile, 0) + count * ways
        layer = following
    return layer.get((d_b, total_bounded, d_t, 0, 0, (((), ()),)), {}), expanded


def frozen_enumerate_marked(delta, n):
    """A frozen copy of ``diagrams.enumerate_marked`` as it was while the sweep
    still walked each outgoing end after the last floor: every completed
    sweep is a leaf state, listed when its graph is connected."""
    limits, made = _limits(delta, n), _Memo(Edge._make)
    found = []
    stack = [((), (), (), (), 0, 0, 0)]
    while stack:
        stack.extend(reversed(frozen_sweep(found, limits, made, *stack.pop())))
    return found


def frozen_sweep(found, limits, made, vertices, budgets, edges, heads, in_used, bd_used,
                 out_used):
    """A frozen copy of the sweep that once listed at its leaves: the children of
    a sweep state in branch order, or none when it is a leaf, which is listed
    in ``found`` (edges sorted) if connected, or dead."""
    n, h, d_b, total_bounded, d_t, div, room = limits
    spare = sum(budgets)
    need = total_bounded - bd_used - room[h - len(vertices)]  # the window test is spare >= need
    pos = len(vertices) + len(edges) + len(heads) + 1
    if pos > n:
        if frozen_connected(vertices, edges):
            found.append(MarkedFloorDiagram(n, vertices, div, tuple(sorted(edges))))
        return []
    children = []
    open_vertex = len(vertices) < h
    if open_vertex and in_used < d_b and spare >= need:
        children.append((vertices, budgets, edges, heads + ((pos, None, 1),),
                         in_used + 1, bd_used, out_used))
    if open_vertex and bd_used < total_bounded:  # weight w leaves spare - w for need - 1
        for i, b in enumerate(budgets):
            for w in range(1, min(b, spare - need + 1) + 1):
                children.append((vertices, budgets[:i] + (b - w,) + budgets[i + 1:], edges,
                                 heads + ((pos, vertices[i], w),), in_used, bd_used + 1, out_used))
    if out_used < d_t and spare > need:  # an outgoing end leaves spare - 1 for need
        for i, b in enumerate(budgets):
            if b >= 1:
                children.append((vertices, budgets[:i] + (b - 1,) + budgets[i + 1:],
                                 edges + (made[pos, vertices[i], None, 1],), heads,
                                 in_used, bd_used, out_used + 1))
    if len(vertices) < h - 1:
        short = total_bounded - bd_used - room[h - len(vertices) - 1] - spare
        head_choices = _head_subsets(heads, div + max(0, short))
    elif open_vertex and in_used == d_b and bd_used == total_bounded:
        head_choices = [heads]
    else:
        return children
    for subset in head_choices:
        budget = sum([w for _, _, w in subset]) - div
        if budget < 0:
            continue
        children.append((vertices + (pos,), budgets + (budget,),
                         edges + tuple([made[p, source, pos, w] for p, source, w in subset]),
                         tuple([head for head in heads if head not in subset]),
                         in_used, bd_used, out_used))
    return children


def frozen_connected(vertices, edges):
    """A frozen copy of ``diagrams._connected`` as it was while it took the
    edges and picked out the bounded ones itself."""
    links = [(s, t) for _, s, t, _ in edges if s is not None and t is not None]
    reached, grew = {vertices[0]}, True
    while grew:
        grew = False
        for s, t in links:
            if (s in reached) != (t in reached):
                reached.update((s, t))
                grew = True
    return len(reached) == len(vertices)


def frozen_validate_diagram(diagram, delta):
    """A frozen copy of ``diagrams.validate_diagram`` as it was while every
    edge went through the endpoint checks before its kind's branch and the
    connectivity test picked the bounded edges out again."""
    n, vertices, edges = diagram.n, diagram.vertex_positions, diagram.edges
    positions = sorted([*vertices, *(position for position, _, _, _ in edges)])
    if positions != list(range(1, n + 1)):
        raise InvalidDiagram("positions do not partition 1..n into vertices and edges")
    if len(vertices) != delta.height:
        raise InvalidDiagram(f"expected {delta.height} vertices, found {len(vertices)}")
    if diagram.divergence != delta.divergence:
        raise InvalidDiagram(
            f"divergence {diagram.divergence} differs from the degree's {delta.divergence}")

    incoming_unbounded = outgoing_unbounded = 0
    flow = dict.fromkeys(vertices, 0)
    for position, source, target, weight in edges:
        if weight < 1:
            raise InvalidDiagram(f"edge at position {position} has weight {weight}")
        if source is None and target is None:
            raise InvalidDiagram("edge with no endpoint")
        if source is not None and source not in flow:
            raise InvalidDiagram(f"edge source {source} is not a vertex")
        if target is not None and target not in flow:
            raise InvalidDiagram(f"edge target {target} is not a vertex")
        if source is None:
            incoming_unbounded += 1
            if weight != 1:
                raise InvalidDiagram("incoming unbounded edge of weight != 1")
            if not position < target:
                raise InvalidDiagram("incoming unbounded edge not before its target")
            flow[target] += weight
        elif target is None:
            outgoing_unbounded += 1
            if weight != 1:
                raise InvalidDiagram("outgoing unbounded edge of weight != 1")
            if not source < position:
                raise InvalidDiagram("outgoing unbounded edge not after its source")
            flow[source] -= weight
        else:
            if not source < position < target:
                raise InvalidDiagram(
                    f"bounded edge at {position} violates source < position < target")
            flow[target] += weight
            flow[source] -= weight
    if incoming_unbounded != delta.d_b:
        raise InvalidDiagram(f"expected {delta.d_b} incoming unbounded edges")
    if outgoing_unbounded != delta.d_t:
        raise InvalidDiagram(f"expected {delta.d_t} outgoing unbounded edges")
    for p in vertices:
        if flow[p] != delta.divergence:
            raise InvalidDiagram(f"divergence mismatch at vertex {p}")
    if not frozen_connected(vertices, edges):
        raise InvalidDiagram("underlying graph is disconnected")


def frozen_extensions(h, classes, divergence, made):
    """A frozen copy of ``oracle._extensions`` as it was while it placed one
    vertex or edge copy per position, depth first, and built each diagram at
    a leaf: every marked diagram of one shape, one per ordering of its
    vertices 0..h-1 and edge classes.  ``classes`` maps an edge class
    (source_rank, target_rank, weight) to its count, with source rank -1 for
    an incoming and target rank h for an outgoing unbounded edge."""
    keys = sorted(classes)
    counts = [classes[key] for key in keys]
    n = h + sum(counts)
    # endpoints shifted by one, so that at[0] and at[h + 1] stand for no vertex
    ends = [(s + 1, t + 1, w) for s, t, w in keys]
    into = [0] * (h + 2)  # live copies per target, shifted like ``ends``
    for (_, t, _), count in zip(ends, counts):
        into[t] += count
    eligible = [bisect_left(keys, (placed,)) for placed in range(h + 1)]
    at = [None] * (h + 2)
    placed_edges = []  # (position, shifted class) of each placed copy
    diagrams = []

    def extend(placed, position):
        if position > n:
            fields = [(pos, at[s], at[t], w) for pos, (s, t, w) in placed_edges]
            edges = tuple([made.get(e) or made.setdefault(e, Edge._make(e)) for e in fields])
            diagrams.append(MarkedFloorDiagram(n, tuple(at[1:h + 1]), divergence, edges))
            return
        if placed < h and not into[placed + 1]:
            at[placed + 1] = position
            extend(placed + 1, position + 1)
        for k in range(eligible[placed]):
            if counts[k]:
                end = ends[k]
                counts[k] -= 1
                into[end[1]] -= 1
                placed_edges.append((position, end))
                extend(placed, position + 1)
                placed_edges.pop()
                into[end[1]] += 1
                counts[k] += 1

    extend(0, 1)
    return diagrams


def nonzero_exponents(p):
    """The exponents of the nonzero coefficients of a LaurentPolyS or USeries."""
    return [k for k, c in enumerate(p.coefficients, p.valuation) if c]


def bernoulli(m_max):
    """B_0..B_m_max (with B_1 = +1/2) by the Akiyama-Tanigawa algorithm."""
    row, b = [], []
    for m in range(m_max + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        b.append(row[0])
    return b


def frozen_fold_refined(profiles):
    """A frozen copy of ``diagrams.fold_refined`` as it was before the fold
    was packed into one integer: the sum over the profiles of count times
    the product of [w]_q^2, as ``LaurentPolyS`` arithmetic."""
    squares = {w: q_integer(w) ** 2 for w in set().union(*profiles)}
    return sum((prod(map(squares.get, weights), start=LaurentPolyS.one()) * count
                for weights, count in profiles.items()), LaurentPolyS.zero())


def _frozen_as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise AlgebraError(f"expected an exact rational, got {type(x).__name__}")


class FrozenUSeries:
    """A frozen copy of ``algebra.USeries`` as it was when it stored one
    ``Fraction`` per coefficient, the reference for the integer series:
    the same constructor, window, truncation orders, refusals, text and
    JSON.  Its product scales both operands to integers over their least
    common denominators and reduces one ``Fraction`` per coefficient."""

    __slots__ = ("valuation", "coefficients", "order")

    def __init__(self, valuation, coefficients, order):
        valuation = _whole(valuation, "valuation", AlgebraError)
        order = _whole(order, "order", AlgebraError)
        coeffs = [_frozen_as_fraction(c) for c in coefficients]
        if valuation + len(coeffs) > order:
            raise AlgebraError(
                f"coefficient window [{valuation}, {valuation + len(coeffs)}) "
                f"exceeds truncation order {order}"
            )
        coeffs.extend([Fraction(0)] * (order - valuation - len(coeffs)))
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        object.__setattr__(self, "valuation", valuation + lo)
        object.__setattr__(self, "coefficients", tuple(coeffs[lo:]))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("USeries is immutable")

    @classmethod
    def zero(cls, order):
        return cls(order, (), order)

    @classmethod
    def one(cls, order):
        if order < 1:
            raise AlgebraError("order must be >= 1 to represent the constant 1")
        return cls(0, (1,), order)

    def is_zero(self):
        return not self.coefficients

    def coefficient(self, exponent):
        if exponent >= self.order:
            raise AlgebraError(
                f"coefficient of u^{exponent} is beyond truncation order {self.order}"
            )
        i = exponent - self.valuation
        if i < 0:
            return Fraction(0)
        return self.coefficients[i]

    def truncate(self, new_order):
        if new_order > self.order:
            raise AlgebraError("truncate cannot increase the truncation order")
        if new_order <= self.valuation:
            return FrozenUSeries.zero(new_order)
        return FrozenUSeries(
            self.valuation, self.coefficients[: new_order - self.valuation], new_order
        )

    def __add__(self, other):
        if not isinstance(other, FrozenUSeries):
            return NotImplemented
        order = min(self.order, other.order)
        lo = min(self.valuation, other.valuation, order)
        vals = [0] * (order - lo)
        for x in (self, other):
            window = x.coefficients[: max(order - x.valuation, 0)]
            i = x.valuation - lo
            vals[i:i + len(window)] = [a + b if a and b else a or b
                                       for a, b in zip(vals[i:], window)]
        return FrozenUSeries(lo, vals, order)

    def __neg__(self):
        return FrozenUSeries(self.valuation, [-c for c in self.coefficients], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return FrozenUSeries.zero(self.order)
            return FrozenUSeries(
                self.valuation, [c * other for c in self.coefficients], self.order
            )
        if not isinstance(other, FrozenUSeries):
            return NotImplemented
        order = min(self.order + other.valuation, other.order + self.valuation)
        if self.is_zero() or other.is_zero():
            return FrozenUSeries.zero(order)
        v = self.valuation + other.valuation
        n = order - v
        xs, dx = _frozen_over_common_denominator(self.coefficients[:n])
        ys, dy = _frozen_over_common_denominator(other.coefficients[:n])
        out = [0] * n
        for i, x in enumerate(xs):
            if x:
                for k, y in enumerate(ys[: n - i], i):
                    if y:
                        out[k] += x * y
        d = dx * dy
        return FrozenUSeries(v, [Fraction(c, d) for c in out], order)

    __rmul__ = __mul__

    def shift(self, k):
        if self.is_zero():
            return FrozenUSeries.zero(self.order + k)
        return FrozenUSeries(self.valuation + k, self.coefficients, self.order + k)

    def inverse(self):
        if self.is_zero():
            raise AlgebraError("inversion of the zero series is rejected")
        n = self.order - self.valuation
        unit = FrozenUSeries(0, self.coefficients, n)
        inv = FrozenUSeries(0, (1 / self.coefficients[0],), 1)
        for s in reversed(range((n - 1).bit_length())):
            m = ((n - 1) >> s) + 1
            guess = FrozenUSeries(0, inv.coefficients, m)
            inv = guess * (FrozenUSeries(0, (2,), m) - unit.truncate(m) * guess)
        return inv.shift(-self.valuation)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            if self.is_zero():
                raise AlgebraError("0**0 of series is undefined")
            return FrozenUSeries.one(self.order - self.valuation)
        if self.is_zero():
            return FrozenUSeries.zero(k * self.order)
        unit = FrozenUSeries(0, self.coefficients, self.order - self.valuation)
        return _power(unit, k, FrozenUSeries.one(unit.order)).shift(k * self.valuation)

    def __eq__(self, other):
        return (
            isinstance(other, FrozenUSeries)
            and self.order == other.order
            and self.valuation == other.valuation
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash(("USeries", self.valuation, self.coefficients, self.order))

    def __str__(self):
        texts = [rational_to_str(c) for c in self.coefficients]
        return f"{_terms_str(self.valuation, texts, 'u')} + O(u^{self.order})"

    def to_json(self):
        return {
            "valuation": self.valuation,
            "order": self.order,
            "coefficients": [rational_to_str(c) for c in self.coefficients],
        }

    @classmethod
    def from_json(cls, data):
        return _read_series(cls, data, rational_from_str, "valuation", "order")


def _frozen_over_common_denominator(coeffs):
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def frozen_substitute(p, turns, order):
    """A frozen copy of ``algebra._substitute`` as it was when it made one
    ``Fraction`` per coefficient: (-i)^turns * p(e^(iu/2)) to ``order``."""
    parity = turns % 2
    sums = [0] * order
    for k, c in enumerate(p.coefficients, p.valuation):
        if c:
            power, step = c * k**parity, k * k
            for m in range(parity, order, 2):
                sums[m] += power
                power *= step
    coeffs, scale = [], 1
    for m in range(order):
        coeffs.append(Fraction((-1) ** ((m - turns) // 2 % 2) * sums[m], scale))
        scale *= 2 * (m + 1)
    return FrozenUSeries(0, coeffs, order)
