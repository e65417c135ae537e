"""Marked floor diagrams for the plane and for Hirzebruch surfaces.

A degree datum is a balanced, h-transverse collection of integer vectors:
every vector is (0, +-1) or has horizontal component +-1, and the collection
sums to zero.  Only three derived quantities matter combinatorially:

* ``d_b`` / ``d_t`` -- the numbers of (0,-1) / (0,1) vectors, i.e. of bottom
  incoming / top outgoing unbounded edges;
* the height ``h`` -- the common cardinality of the left and right vector
  subsets, i.e. the number of floors (vertices);
* the multiset of per-floor divergences, where the divergence of a floor is
  (sum of incoming edge weights) - (sum of outgoing edge weights).

The two families of interest are ``degree_p2(d)`` (d copies each of (-1,0),
(0,-1), (1,1); every divergence 1) and ``degree_hirzebruch(k, h, d)``
(d + k*h copies of (0,-1), d of (0,1), h of (-1,0), h of (1,k); every
divergence k).

A *marked* floor diagram on n points is a connected weighted acyclic digraph
together with an order-preserving bijection of its h vertices and n - h
edges onto the positions 1..n; marking rigidifies the diagram, so
isomorphism classes are exactly the distinct position-labelled structures.
``enumerate_marked`` produces one representative per class by a left-to-right
sweep over positions, branching at each position over the element placed
there; see its docstring for the exact branching order.  One memoized
recursion over canonical sweep states, ``weight_profiles``, takes the same
branches without listing any diagram and counts the diagrams per multiset
of bounded edge weights; every count is a fold of its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod
from typing import Iterable, NamedTuple

from .algebra import LaurentPolyS, Partition, q_integer


class DiagramError(ValueError):
    """Invalid degree data or invalid request."""


class InvalidDiagram(DiagramError):
    """A structure violating the marked-floor-diagram invariants."""


class HTransverseDegree:
    """Degree datum: the balanced h-transverse vector collection.

    Exposes the derived quantities ``d_b``, ``d_t``, ``height``, ``size``
    (= d_b + d_t + 2*height) and the sorted divergence multiset.  Build
    instances through :func:`degree_p2`, :func:`degree_hirzebruch` or
    :func:`general_degree`.
    """

    __slots__ = ("family", "params", "vectors", "d_b", "d_t", "height", "divergences")

    def __init__(self, family: str, params: tuple, vectors: tuple):
        vectors = tuple((int(x), int(y)) for x, y in vectors)
        sx = sum(v[0] for v in vectors)
        sy = sum(v[1] for v in vectors)
        if (sx, sy) != (0, 0):
            raise DiagramError(f"vector collection is not balanced: sums to {(sx, sy)}")
        for v in vectors:
            if v == (0, 0):
                raise DiagramError("zero vector is not allowed")
            if v[0] not in (-1, 0, 1) or (v[0] == 0 and v[1] not in (-1, 1)):
                raise DiagramError(f"vector {v} is not h-transverse")
        left = sorted(v[1] for v in vectors if v[0] == -1)
        right = sorted(v[1] for v in vectors if v[0] == 1)
        if len(left) != len(right):
            raise DiagramError("left and right vector counts differ")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "d_b", sum(1 for v in vectors if v == (0, -1)))
        object.__setattr__(self, "d_t", sum(1 for v in vectors if v == (0, 1)))
        object.__setattr__(self, "height", len(left))
        # Divergence multiset from the canonical sorted pairing of left and
        # right vectors.  For the named families all left vectors (and all
        # right vectors) coincide, so the pairing is immaterial; for general
        # collections this is a documented convention.
        object.__setattr__(
            self, "divergences", tuple(sorted(l + r for l, r in zip(left, right)))
        )

    def __setattr__(self, name, value):
        raise AttributeError("HTransverseDegree is immutable")

    @property
    def size(self) -> int:
        return self.d_b + self.d_t + 2 * self.height

    def genus_for_points(self, n: int) -> int:
        return n + 1 - self.size

    def max_bounded_weight(self) -> int:
        """Flow bound on bounded edge weights: d_b plus total negative divergence."""
        return self.d_b + sum(max(-d, 0) for d in self.divergences)

    @property
    def label(self) -> str:
        if self.family == "p2":
            return f"P2(d={self.params[0]})"
        if self.family == "hirzebruch":
            k, h, d = self.params
            return f"F{k}(h={h},d={d})"
        return f"general{self.vectors}"

    def __eq__(self, other) -> bool:
        return isinstance(other, HTransverseDegree) and sorted(self.vectors) == sorted(
            other.vectors
        )

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.vectors)))

    def __repr__(self) -> str:
        return f"HTransverseDegree<{self.label}>"

    def to_json(self) -> dict:
        out: dict = {"family": self.family}
        if self.family == "p2":
            out["degree"] = self.params[0]
        elif self.family == "hirzebruch":
            out["k"], out["h"], out["d"] = self.params
        else:
            out["vectors"] = [list(v) for v in self.vectors]
        out["d_b"] = self.d_b
        out["d_t"] = self.d_t
        out["height"] = self.height
        return out


def degree_p2(d: int) -> HTransverseDegree:
    """Degree-d curves in the plane: d_b = d, d_t = 0, height = d."""
    if d <= 0:
        raise DiagramError(f"plane degree must be positive, got {d}")
    vectors = [(-1, 0)] * d + [(0, -1)] * d + [(1, 1)] * d
    return HTransverseDegree("p2", (d,), tuple(vectors))


def degree_hirzebruch(k: int, h: int, d: int) -> HTransverseDegree:
    """Class h*D_k + d*F on the Hirzebruch surface F_k.

    Requires k >= 0, h >= 0, d >= 0, d + k*h >= 0 and h + d >= 1.  Derived:
    d_b = d + k*h, d_t = d, height = h, every divergence = k.
    """
    if k < 0 or h < 0 or d < 0:
        raise DiagramError(f"Hirzebruch parameters must be nonnegative, got {(k, h, d)}")
    if d + k * h < 0:
        raise DiagramError("d + k*h must be nonnegative")
    if h + d < 1:
        raise DiagramError("h + d must be at least 1")
    vectors = [(0, -1)] * (d + k * h) + [(0, 1)] * d + [(-1, 0)] * h + [(1, k)] * h
    return HTransverseDegree("hirzebruch", (k, h, d), tuple(vectors))


def general_degree(vectors: Iterable[tuple[int, int]]) -> HTransverseDegree:
    """Any balanced h-transverse collection.

    Refined counts for general collections are an extension beyond the two
    named families: the per-floor data is reduced to divergence values (via
    the canonical sorted pairing of left and right vectors), which is the
    only information the named families carry.
    """
    return HTransverseDegree("general", (), tuple(vectors))


def points_for_genus(delta: HTransverseDegree, g: int) -> int:
    """The point count n with genus(delta, n) = g, i.e. n = g - 1 + |delta|."""
    if g < 0:
        raise DiagramError(f"genus must be nonnegative, got {g}")
    return g - 1 + delta.size


class Edge(NamedTuple):
    """One edge of a marked diagram.

    ``source is None`` marks an incoming unbounded edge, ``target is None``
    an outgoing unbounded one; bounded edges carry both endpoints.  Endpoints
    are marking positions of vertices.  A tuple, so it equals and hashes
    like the plain tuple (position, source, target, weight).
    """

    position: int
    source: int | None
    target: int | None
    weight: int


@dataclass(frozen=True)
class MarkedFloorDiagram:
    """A marked floor diagram, identified with its position-labelled structure."""

    n: int
    vertex_positions: tuple[int, ...]
    divergences: tuple[int, ...]  # aligned with vertex_positions
    edges: tuple[Edge, ...]

    def divergence_at(self, position: int) -> int:
        for p, d in zip(self.vertex_positions, self.divergences):
            if p == position:
                return d
        raise DiagramError(f"position {position} is not a vertex")

    def bounded_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.source is not None and e.target is not None]

    def betti(self) -> int:
        return len(self.bounded_edges()) - len(self.vertex_positions) + 1

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vertices": list(self.vertex_positions),
            "divergences": {str(p): d for p, d in zip(self.vertex_positions, self.divergences)},
            "edges": [
                {"position": position, "source": source, "target": target, "weight": weight}
                for position, source, target, weight in self.edges
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MarkedFloorDiagram":
        vertices = tuple(int(p) for p in data["vertices"])
        div_map = {int(p): int(d) for p, d in data["divergences"].items()}
        if set(div_map) != set(vertices):
            raise InvalidDiagram("divergence keys do not match the vertex list")
        edges = tuple(
            Edge(
                int(e["position"]),
                None if e["source"] is None else int(e["source"]),
                None if e["target"] is None else int(e["target"]),
                int(e["weight"]),
            )
            for e in data["edges"]
        )
        return cls(int(data["n"]), vertices, tuple(div_map[p] for p in vertices), edges)


def multiplicity(diagram: MarkedFloorDiagram) -> int:
    """Product of squared edge weights over all edges (unbounded ones weigh 1)."""
    m = 1
    for e in diagram.edges:
        m *= e.weight * e.weight
    return m


def refined_multiplicity(diagram: MarkedFloorDiagram) -> LaurentPolyS:
    """Product of squared q-integers of the edge weights; palindromic."""
    m = LaurentPolyS.one()
    for e in diagram.edges:
        if e.weight != 1:
            m = m * (q_integer(e.weight) ** 2)
    return m


def vertex_partitions(diagram: MarkedFloorDiagram, position: int) -> tuple[Partition, Partition]:
    """(mu, nu) at a vertex: weights of outgoing resp. incoming edges."""
    if position not in diagram.vertex_positions:
        raise DiagramError(f"position {position} is not a vertex of the diagram")
    mu = Partition(e.weight for e in diagram.edges if e.source == position)
    nu = Partition(e.weight for e in diagram.edges if e.target == position)
    return mu, nu


def validate_diagram(diagram: MarkedFloorDiagram, delta: HTransverseDegree) -> None:
    """Check every marked-floor-diagram invariant; raise InvalidDiagram on failure.

    Checks: positions partition {1..n}; unbounded edge counts and weights;
    order compatibility of the marking; per-vertex divergence against the
    degree's divergence multiset; connectivity; first Betti number equal to
    n + 1 - |delta| >= 0.
    """
    n = diagram.n
    vset = set(diagram.vertex_positions)
    edges = diagram.edges  # unpacked, not read by field name: this runs on every listed diagram
    positions = sorted(list(vset) + [position for position, _, _, _ in edges])
    if positions != list(range(1, n + 1)):
        raise InvalidDiagram("positions do not partition 1..n into vertices and edges")
    if len(diagram.vertex_positions) != delta.height:
        raise InvalidDiagram(
            f"expected {delta.height} vertices, found {len(diagram.vertex_positions)}"
        )
    if sorted(diagram.divergences) != list(delta.divergences):
        raise InvalidDiagram("vertex divergences do not match the degree's multiset")

    incoming_unbounded = outgoing_unbounded = 0
    for position, source, target, weight in edges:
        if weight < 1:
            raise InvalidDiagram(f"edge at position {position} has weight {weight}")
        if source is None and target is None:
            raise InvalidDiagram("edge with no endpoint")
        if source is not None and source not in vset:
            raise InvalidDiagram(f"edge source {source} is not a vertex")
        if target is not None and target not in vset:
            raise InvalidDiagram(f"edge target {target} is not a vertex")
        if source is None:
            incoming_unbounded += 1
            if weight != 1:
                raise InvalidDiagram("incoming unbounded edge of weight != 1")
            if not position < target:
                raise InvalidDiagram("incoming unbounded edge not before its target")
        elif target is None:
            outgoing_unbounded += 1
            if weight != 1:
                raise InvalidDiagram("outgoing unbounded edge of weight != 1")
            if not source < position:
                raise InvalidDiagram("outgoing unbounded edge not after its source")
        else:
            if not source < position < target:
                raise InvalidDiagram(
                    f"bounded edge at {position} violates source < position < target"
                )
    if incoming_unbounded != delta.d_b:
        raise InvalidDiagram(f"expected {delta.d_b} incoming unbounded edges")
    if outgoing_unbounded != delta.d_t:
        raise InvalidDiagram(f"expected {delta.d_t} outgoing unbounded edges")

    for p in diagram.vertex_positions:
        flow = 0
        for _, source, target, weight in edges:
            if target == p:
                flow += weight
            if source == p:
                flow -= weight
        if flow != diagram.divergence_at(p):
            raise InvalidDiagram(f"divergence mismatch at vertex {p}")

    links = [(s, t) for _, s, t, _ in edges if s is not None and t is not None]
    if vset:
        reached = {diagram.vertex_positions[0]}
        frontier = [diagram.vertex_positions[0]]
        while frontier:
            v = frontier.pop()
            for link in links:
                for w in link:
                    if w not in reached and v in link:
                        reached.add(w)
                        frontier.append(w)
        if reached != vset:
            raise InvalidDiagram("underlying graph is disconnected")

    g = delta.genus_for_points(n)
    if g < 0:
        raise InvalidDiagram(f"genus {g} is negative")
    if diagram.betti() != g:
        raise InvalidDiagram(f"first Betti number {diagram.betti()} != genus {g}")


def enumerate_marked(delta: HTransverseDegree, n: int) -> list[MarkedFloorDiagram]:
    """All isomorphism classes of marked floor diagrams on n points.

    Sweep enumeration: positions 1..n are processed in increasing order,
    keeping the placed vertices with their remaining outgoing-weight budgets
    and the pending edge heads (positioned edges whose target vertex comes
    later).  At each position the branches are, in this fixed order:

    * edge roles first -- a new incoming unbounded head (while fewer than
      d_b are used), then a bounded edge for each placed source vertex in
      ascending position and each weight from 1 to that vertex's remaining
      budget, then an outgoing unbounded edge for each placed source vertex
      in ascending position with budget >= 1 (while fewer than d_t are
      used); incoming and bounded edges are placed only while a vertex
      remains to take their heads;
    * then a vertex -- for each distinct remaining divergence value in
      ascending order, and for each subset of pending heads, attach the
      subset as incoming edges and open an outgoing budget of (attached
      weight sum) - divergence, pruning negative budgets.  Subsets come in
      plain lexicographic order of their head-position tuples, all sizes
      together: (), (a,), (a, b), (a, b, c), (a, c), (b,), (b, c), (c,) for
      heads at a < b < c.  The last vertex takes every pending head and is
      placed only once all d_b incoming and all bounded edges are used.

    A completed sweep must exhaust every budget and yield a connected graph
    (the element counts then force every unbounded edge used and every head
    attached).  Each surviving trace is a distinct isomorphism class
    (markings rigidify), so no deduplication is performed; selecting between
    equal-weight pending heads by position produces genuinely distinct
    marked diagrams.
    """
    total_bounded = _bounded_edge_count(delta, n)
    if delta.height == 0:
        return []
    found: list[MarkedFloorDiagram] = []
    limits = (n, delta.height, delta.d_b, total_bounded, delta.d_t)
    _sweep(found, limits, (), (), (), (), (), 0, 0, 0, delta.divergences)
    return found


def _sweep(found, limits, vertices, divs, budgets, edges, pending, in_used, bd_used, out_used,
           divs_left) -> None:
    """Append to ``found`` every completed diagram below one sweep state.

    The state is immutable and each branch hands its child new tuples:
    ``vertices``, ``divs`` and ``budgets`` are the placed vertex positions,
    their divergences and their remaining outgoing budgets; ``edges`` the
    placed edges as (position, source, target, weight), target None while
    unattached; ``pending`` the indices in ``edges`` of the heads awaiting a
    vertex; ``in_used``, ``bd_used`` and ``out_used`` the numbers of
    incoming, bounded and outgoing edges placed; ``divs_left`` the sorted
    divergences not yet given to a vertex.
    """
    n, h, d_b, total_bounded, d_t = limits
    if len(vertices) == h - 1 and sum(budgets) < total_bounded - bd_used:
        # each bounded edge still to come takes at least 1 from the budget of
        # a placed vertex: the last vertex has no later vertex to point to
        return
    pos = len(vertices) + len(edges) + 1
    if pos > n:
        if not any(budgets) and _connected(vertices, edges):
            found.append(MarkedFloorDiagram(n, vertices, divs, tuple(map(Edge._make, edges))))
        return
    open_vertex = len(vertices) < h
    if open_vertex and in_used < d_b:
        _sweep(found, limits, vertices, divs, budgets, edges + ((pos, None, None, 1),),
               pending + (len(edges),), in_used + 1, bd_used, out_used, divs_left)
    if open_vertex and bd_used < total_bounded:
        for i, b in enumerate(budgets):
            for w in range(1, b + 1):
                _sweep(found, limits, vertices, divs, budgets[:i] + (b - w,) + budgets[i + 1:],
                       edges + ((pos, vertices[i], None, w),), pending + (len(edges),),
                       in_used, bd_used + 1, out_used, divs_left)
    if out_used < d_t:
        for i, b in enumerate(budgets):
            if b >= 1:
                _sweep(found, limits, vertices, divs, budgets[:i] + (b - 1,) + budgets[i + 1:],
                       edges + ((pos, vertices[i], None, 1),), pending,
                       in_used, bd_used, out_used + 1, divs_left)
    if len(vertices) < h - 1:
        head_choices = sorted(s for r in range(len(pending) + 1) for s in combinations(pending, r))
    elif open_vertex and in_used == d_b and bd_used == total_bounded:
        head_choices = [pending]
    else:
        return
    for div in dict.fromkeys(divs_left):
        k = divs_left.index(div)
        rest = divs_left[:k] + divs_left[k + 1:]
        for subset in head_choices:
            budget = sum(edges[i][3] for i in subset) - div
            if budget < 0:
                continue
            attached = list(edges)
            for i in subset:
                p, source, _, w = edges[i]
                attached[i] = (p, source, pos, w)
            _sweep(found, limits, vertices + (pos,), divs + (div,), budgets + (budget,),
                   tuple(attached), tuple([i for i in pending if i not in subset]),
                   in_used, bd_used, out_used, rest)


def _connected(vertices: tuple[int, ...], edges: tuple[tuple, ...]) -> bool:
    """Whether the bounded edges join every vertex to the first one."""
    links = [(s, t) for _, s, t, _ in edges if s is not None and t is not None]
    reached, grew = {vertices[0]}, True
    while grew:
        grew = False
        for s, t in links:
            if (s in reached) != (t in reached):
                reached.update((s, t))
                grew = True
    return len(reached) == len(vertices)


def _bounded_edge_count(delta: HTransverseDegree, n: int) -> int:
    """Bounded edges of every diagram on n points, g + h - 1; rejects g < 0."""
    g = delta.genus_for_points(n)
    if g < 0:
        raise DiagramError(
            f"no diagrams: n = {n} gives negative genus {g} for {delta.label}"
        )
    total_bounded = n - delta.height - delta.d_b - delta.d_t
    if total_bounded != g + delta.height - 1:
        raise AssertionError("element count bookkeeping is inconsistent")
    return total_bounded


def weight_profiles(delta: HTransverseDegree, n: int) -> dict[tuple[int, ...], int]:
    """Map the sorted weights of the bounded edges to the number of marked
    diagrams on n points that have them, without listing any diagram.

    A memoized recursion over the states of the sweep of
    :func:`enumerate_marked`, taking exactly its branches.  As in the
    floor-diagram recursions of Fomin-Mikhalkin and Block-Goettsche, the
    future of the sweep depends only on a small canonical state:

    * the numbers of incoming, bounded and outgoing edges placed so far (the
      position is their sum plus the number of placed vertices);
    * the remaining divergences, as a sorted tuple;
    * the number of pending incoming unbounded heads;
    * the sorted tuple of connected components of the placed vertices, each
      a pair (sorted positive outgoing budgets, sorted weights of the
      pending bounded heads leaving it).

    Vertices of equal budget in one component give equal states, so their
    branch is taken once and weighted by their number; a vertex taking r of
    the m pending heads of one weight in one component is weighted by
    C(m, r).  A closed component (no budget, no pending head) can never be
    joined again, so a state holding one beside another component or an
    unplaced vertex is dead.  Every count is a fold of the result, as are
    the degeneration vertex products.  The memo table lives for one call.
    """
    total_bounded = _bounded_edge_count(delta, n)
    fixed = (delta.d_b, total_bounded, delta.d_t)
    return _state_sum((0, 0, 0, delta.divergences, 0, ()), fixed, {})


def _state_sum(state: tuple, fixed: tuple, memo: dict) -> dict[tuple[int, ...], int]:
    """The :func:`weight_profiles` of the completions of one sweep state, whose
    components need not be sorted yet, over the bounded edges still to be
    placed.  ``fixed`` holds d_b, the number of bounded edges and d_t."""
    in_used, bd_used, out_used, divs, free, comps = state
    d_b, total_bounded, d_t = fixed
    comps = tuple(sorted(comps))
    if ((), ()) in comps and (len(comps) > 1 or divs):
        return {}
    if not divs and (in_used, bd_used, out_used) == (d_b, total_bounded, d_t):
        return {(): 1} if comps == (((), ()),) else {}
    key = (in_used, bd_used, out_used, divs, free, comps)
    if key in memo:
        return memo[key]
    branches = []  # (number of sweep branches, bounded edge weight or 0, next state)
    if divs and in_used < d_b:
        branches.append((1, 0, (in_used + 1, bd_used, out_used, divs, free + 1, comps)))
    for i, (budgets, heads) in enumerate(comps):
        others = comps[:i] + comps[i + 1:]
        for b in dict.fromkeys(budgets):
            m = budgets.count(b)
            k = budgets.index(b)
            rest = budgets[:k] + budgets[k + 1:]
            if divs and bd_used < total_bounded:
                for w in range(1, b + 1):
                    left = tuple(sorted(rest + (b - w,))) if w < b else rest
                    comp = (left, tuple(sorted(heads + (w,))))
                    branches.append((m, w, (in_used, bd_used + 1, out_used, divs, free,
                                            others + (comp,))))
            if out_used < d_t:
                left = tuple(sorted(rest + (b - 1,))) if b > 1 else rest
                branches.append((m, 0, (in_used, bd_used, out_used + 1, divs, free,
                                        others + ((left, heads),))))
    last = len(divs) == 1
    if divs and not (last and (in_used < d_b or bd_used < total_bounded)):
        # head groups: (component index or None for unbounded heads, weight, count)
        groups = [(None, 1, free)] + [
            (i, w, heads.count(w))
            for i, (_, heads) in enumerate(comps)
            for w in dict.fromkeys(heads)
        ]
        for takes in product(*(((m,) if last else range(m + 1)) for _, _, m in groups)):
            ways = prod(comb(m, r) for (_, _, m), r in zip(groups, takes))
            inflow = sum(w * r for (_, w, _), r in zip(groups, takes))
            touched = {i for (i, _, _), r in zip(groups, takes) if r and i is not None}
            budgets = [b for i in touched for b in comps[i][0]]
            heads = tuple(sorted(
                w for (i, w, m), r in zip(groups, takes) if i in touched
                for _ in range(m - r)
            ))
            untouched = tuple(c for i, c in enumerate(comps) if i not in touched)
            for div in dict.fromkeys(divs):
                budget = inflow - div
                if budget < 0:
                    continue
                k = divs.index(div)
                left = tuple(sorted(budgets + [budget] if budget else budgets))
                branches.append((ways, 0, (in_used, bd_used, out_used, divs[:k] + divs[k + 1:],
                                           free - takes[0], untouched + ((left, heads),))))
    total: dict[tuple[int, ...], int] = {}
    for ways, w, nxt in branches:
        for profile, count in _state_sum(nxt, fixed, memo).items():
            if w:
                profile = tuple(sorted(profile + (w,)))
            total[profile] = total.get(profile, 0) + count * ways
    memo[key] = total
    return total


def refined_count(delta: HTransverseDegree, n: int) -> LaurentPolyS:
    """Sum of refined multiplicities over all marked diagrams on n points,
    counted without listing them: :func:`fold_refined` of
    :func:`weight_profiles`."""
    return fold_refined(weight_profiles(delta, n))


def fold_refined(profiles: dict[tuple[int, ...], int]) -> LaurentPolyS:
    """The refined count of the diagrams that ``profiles`` (a result of
    :func:`weight_profiles`) counts: [w]_q^2 per bounded edge of weight w."""
    squares = {w: q_integer(w) ** 2 for w in set().union(*profiles)}
    return sum((prod(map(squares.get, weights), start=LaurentPolyS.one()) * count
                for weights, count in profiles.items()), LaurentPolyS.zero())


def classical_count(delta: HTransverseDegree, n: int) -> int:
    """The refined count at q = 1, i.e. the plain count with multiplicity:
    the fold of :func:`weight_profiles` with w^2 per bounded edge."""
    return sum(c * prod(weights) ** 2 for weights, c in weight_profiles(delta, n).items())


def diagram_count(delta: HTransverseDegree, n: int) -> int:
    """The number of marked diagrams on n points, len(enumerate_marked(delta,
    n)), without listing them: the sum of :func:`weight_profiles`."""
    return sum(weight_profiles(delta, n).values())
