"""Marked floor diagrams for the plane and for Hirzebruch surfaces.

A degree datum is the plane's ``degree_p2(d)`` or the Hirzebruch surface's
``degree_hirzebruch(k, h, d)``.  Only four derived quantities matter
combinatorially:

* ``d_b`` / ``d_t`` -- the numbers of bottom incoming / top outgoing
  unbounded edges;
* the height ``h`` -- the number of floors (vertices);
* the divergence shared by every floor, (sum of incoming edge weights) -
  (sum of outgoing edge weights): 1 on P2 and k on F_k.

P2 of degree d has d_b = d, d_t = 0, height d; the class h*D_k + d*F on
F_k has d_b = d + k*h, d_t = d, height h.

A *marked* floor diagram on n points is a connected weighted acyclic digraph
together with an order-preserving bijection of its h vertices and n - h
edges onto the positions 1..n; marking rigidifies the diagram, so
isomorphism classes are exactly the distinct position-labelled structures.
``enumerate_marked`` produces one representative per class by a left-to-right
sweep over positions, branching at each position over the element placed
there; see its docstring for the exact branching order.  One forward pass
over the positions, ``weight_profiles``, takes the same branches on
canonical sweep states without listing any diagram and counts the diagrams
per multiset of bounded edge weights; every count is a fold of its result.
"""

from __future__ import annotations

from itertools import accumulate, product
from math import comb, prod
from typing import NamedTuple

from .algebra import AlgebraError, LaurentPolyS, Partition, _integer, _json, q_integer


class DiagramError(ValueError):
    """Invalid degree data or invalid request."""


class InvalidDiagram(DiagramError):
    """A structure violating the marked-floor-diagram invariants."""


class HTransverseDegree:
    """Degree datum of the plane or of a Hirzebruch surface.

    ``name`` holds the JSON fields that name the degree: "family" and
    "degree", or "family", "k", "h" and "d".  Exposes the derived quantities
    ``d_b``, ``d_t``, ``height``, ``size`` (= d_b + d_t + 2*height), the
    ``divergence`` of every floor and the balanced h-transverse ``vectors``;
    two degrees are equal when their vector multisets are.  Only
    :func:`degree_p2` and :func:`degree_hirzebruch` build instances: they
    check the parameters and derive every field.
    """

    __slots__ = ("name", "d_b", "d_t", "height", "divergence", "label")

    def __init__(self, name, d_b, d_t, height, divergence, label):
        fields = name, d_b, d_t, height, divergence, label
        for slot, value in zip(self.__slots__, fields):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("HTransverseDegree is immutable")

    @property
    def size(self) -> int:
        return self.d_b + self.d_t + 2 * self.height

    @property
    def vectors(self) -> tuple[tuple[int, int], ...]:
        """The sorted vector collection: height copies of (-1, 0), d_b of
        (0, -1), d_t of (0, 1) and height of (1, divergence)."""
        h = self.height
        return (((-1, 0),) * h + ((0, -1),) * self.d_b + ((0, 1),) * self.d_t
                + ((1, self.divergence),) * h)

    def genus_for_points(self, n: int) -> int:
        return n + 1 - self.size

    def __eq__(self, other) -> bool:
        return isinstance(other, HTransverseDegree) and self.vectors == other.vectors

    def __hash__(self) -> int:
        return hash(self.vectors)

    def __repr__(self) -> str:
        return f"HTransverseDegree<{self.label}>"

    def to_json(self) -> dict:
        return {**dict(self.name), "d_b": self.d_b, "d_t": self.d_t, "height": self.height}


def degree_p2(d: int) -> HTransverseDegree:
    """Degree-d curves in the plane: d_b = d, d_t = 0, height = d, divergence 1."""
    if type(d) is not int or d <= 0:  # not isinstance: a bool is an int
        raise DiagramError(f"plane degree must be a positive integer, got {d!r}")
    return HTransverseDegree((("family", "p2"), ("degree", d)), d, 0, d, 1, f"P2(d={d})")


def degree_hirzebruch(k: int, h: int, d: int) -> HTransverseDegree:
    """Class h*D_k + d*F on the Hirzebruch surface F_k.

    Requires integers k >= 0, h >= 0, d >= 0 and h + d >= 1.  Derived:
    d_b = d + k*h, d_t = d, height = h, divergence = k.
    """
    if not all(type(x) is int and x >= 0 for x in (k, h, d)):
        raise DiagramError(f"Hirzebruch parameters must be nonnegative integers, got {(k, h, d)}")
    if h + d < 1:
        raise DiagramError("h + d must be at least 1")
    name = ("family", "hirzebruch"), ("k", k), ("h", h), ("d", d)
    return HTransverseDegree(name, d + k * h, d, h, k, f"F{k}(h={h},d={d})")


def points_for_genus(delta: HTransverseDegree, g: int) -> int:
    """The point count n = g - 1 + |delta| of genus g; :func:`_genus` refuses g < 0."""
    n = g - 1 + delta.size
    _genus(delta, n)
    return n


def _genus(delta: HTransverseDegree, n: int) -> int:
    """The genus n + 1 - |delta|; every entry point of a class refuses g < 0 here."""
    g = delta.genus_for_points(n)
    if g < 0:
        raise DiagramError(f"no diagrams: n = {n} gives negative genus {g} for {delta.label}")
    return g


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


_EDGE_JSON = '{"position": %s, "source": %s, "target": %s, "weight": %s}'


class _Edges(dict):
    """The one :class:`Edge` of each (position, source, target, weight), made when first asked."""

    def __missing__(self, key):
        return self.setdefault(key, Edge._make(key))


class MarkedFloorDiagram(NamedTuple):
    """A marked floor diagram, identified with its position-labelled structure;
    ``divergence`` is the one divergence of every floor.  A tuple, like
    ``Edge``, so it equals and hashes like the plain tuple (n,
    vertex_positions, divergence, edges), in C.
    """

    n: int
    vertex_positions: tuple[int, ...]
    divergence: int
    edges: tuple[Edge, ...]

    def bounded_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.source is not None and e.target is not None]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vertices": list(self.vertex_positions),
            "divergences": {str(p): self.divergence for p in self.vertex_positions},
            "edges": [
                {"position": position, "source": source, "target": target, "weight": weight}
                for position, source, target, weight in self.edges
            ],
        }

    def json_text(self) -> str:
        """``json.dumps(self.to_json())``: the one-diagram case of :func:`json_pieces`."""
        return "".join(json_pieces([self]))

    @classmethod
    def from_json(cls, data: dict) -> "MarkedFloorDiagram":
        """The diagram that :meth:`to_json` wrote.  InvalidDiagram names a missing key, a
        field that is not a JSON object or array as it should be, a non-integer field,
        no vertex, divergence keys not the vertices or unequal values."""
        try:
            data = _json(data, dict, "the diagram")
            n = _integer(data["n"], "n")
            vertices = tuple(_integer(p, "vertex")
                             for p in _json(data["vertices"], list, "vertices"))
            div_map = {_integer(p, "vertex"): _integer(d, "divergence")
                       for p, d in _json(data["divergences"], dict, "divergences").items()}
            objects = [_json(e, dict, "an edge") for e in _json(data["edges"], list, "edges")]
            edges = tuple(Edge(*(None if e[f] is None and f in ("source", "target")
                                 else _integer(e[f], f) for f in Edge._fields)) for e in objects)
        except KeyError as missing:
            raise InvalidDiagram(f"diagram JSON has no key {missing}") from None
        except AlgebraError as field:  # a non-integer field or a wrong JSON type
            raise InvalidDiagram(str(field)) from None
        if not vertices:
            raise InvalidDiagram("diagram JSON has no vertex")
        if set(div_map) != set(vertices):
            raise InvalidDiagram("divergence keys do not match the vertex list")
        if len(set(div_map.values())) > 1:
            raise InvalidDiagram(f"divergence values {sorted(set(div_map.values()))} differ")
        return cls(n, vertices, div_map[vertices[0]], edges)


def json_pieces(diagrams) -> list[str]:
    """Texts joining to ``", ".join(json.dumps(d.to_json()) for d in diagrams)`` when
    floors are distinct and fields are ints or None: each distinct head (n, vertices,
    divergence) and distinct edge with its ``, `` or ``]}`` is rendered once, and shared."""
    heads, inner, last, pieces = {}, {}, {}, []
    for n, floors, div, edges in diagrams:
        if (head := heads.get(key := (n, floors, div))) is None:
            head = heads[key] = '{"n": %s, "vertices": [%s], "divergences": {%s}, "edges": [' % (
                n, ", ".join(map(str, floors)), ", ".join(['"%s": %s' % (p, div) for p in floors]))
        pieces.append(head)
        for i, e in enumerate(edges, 1 - len(edges)):  # i is 0 at the last edge
            table, end = (inner, ", ") if i else (last, "]}")
            pieces.append(table.get(e) or table.setdefault(
                e, (_EDGE_JSON % e).replace("None", "null") + end))
        pieces += [", "] if edges else ["]}", ", "]
    del pieces[-1:]  # the separator after the last diagram
    return pieces


def multiplicity(diagram: MarkedFloorDiagram) -> int:
    """Product of squared edge weights over all edges (unbounded ones weigh 1)."""
    return prod(e.weight for e in diagram.edges) ** 2


def refined_multiplicity(diagram: MarkedFloorDiagram) -> LaurentPolyS:
    """Product of squared q-integers of the edge weights; palindromic."""
    return prod((q_integer(e.weight) ** 2 for e in diagram.edges if e.weight != 1),
                start=LaurentPolyS.one())


def vertex_partitions(diagram: MarkedFloorDiagram, position: int) -> tuple[Partition, Partition]:
    """(mu, nu) at a vertex: weights of outgoing resp. incoming edges."""
    if position not in diagram.vertex_positions:
        raise DiagramError(f"position {position} is not a vertex of the diagram")
    mu = Partition(e.weight for e in diagram.edges if e.source == position)
    nu = Partition(e.weight for e in diagram.edges if e.target == position)
    return mu, nu


def validate_diagram(diagram: MarkedFloorDiagram, delta: HTransverseDegree) -> None:
    """Check every marked-floor-diagram invariant; raise InvalidDiagram on failure.

    Checks: vertex and edge positions partition {1..n}, so no vertex
    position repeats; h vertices; the degree's divergence; edge weights,
    endpoints and marking order; the unbounded edge counts; every vertex's
    net flow equal to the divergence; connectivity.

    The genus needs no check.  With h vertices and d_b + d_t unbounded
    edges among the n positions, n - h - d_b - d_t edges are bounded, so
    the first Betti number, bounded - h + 1, is n + 1 - |delta|: the genus.
    The bounded edges connect the h >= 1 vertices, so there are at least
    h - 1 of them and the genus is >= 0.  (With h = 0 no edge has an end, so a height-0
    degree has no diagram; the counts return 0, not a refusal: see ROADMAP item 5.)
    """
    n, vertices, edges = diagram.n, diagram.vertex_positions, diagram.edges
    # edges unpacked, not read by field name: this runs on every listed diagram
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
    if not _connected(vertices, edges):
        raise InvalidDiagram("underlying graph is disconnected")


def enumerate_marked(delta: HTransverseDegree, n: int) -> list[MarkedFloorDiagram]:
    """All isomorphism classes of marked floor diagrams on n points.

    Sweep enumeration: positions 1..n are processed in increasing order,
    keeping the placed vertices with their remaining outgoing-weight budgets,
    the finished edges and the pending heads (edges whose floor comes later),
    as Fomin-Mikhalkin do.  At each position the branches are, in this order:

    * edge roles first -- a new incoming unbounded head (while fewer than
      d_b are used), then a bounded edge for each placed source vertex in
      ascending position and each weight from 1 to that vertex's remaining
      budget, then an outgoing unbounded edge for each placed source vertex
      in ascending position with budget >= 1 (while fewer than d_t are
      used); incoming and bounded edges are placed only while a vertex
      remains to take their heads;
    * then a vertex -- for each subset of pending heads, attach the subset
      as incoming edges and open an outgoing budget of the attached weight
      sum minus the divergence, pruning negative budgets.  Subsets come in
      plain lexicographic order of their head positions, all sizes
      together: (), (a,), (a, b), (a, b, c), (a, c), (b,), (b, c), (c,) for
      heads at a < b < c.  The last vertex takes every pending head and is
      placed only once all d_b incoming and all bounded edges are used.

    A completed sweep is listed when its graph is connected; its budgets
    need no test.  The element counts are each capped and add up to n, so
    every floor and edge is placed and the last floor took every pending
    head.  The budgets, each >= 0, then sum to d_b - d_t - h * divergence,
    the inflow less the outflow and divergence of every floor: d - 0 - d on
    P2, (d + kh) - d - hk on F_k, so every one is spent.  Each completed
    trace is a distinct isomorphism class (markings rigidify), so no
    deduplication is performed; selecting between equal-weight pending heads
    by position produces genuinely distinct marked diagrams.  No child is
    built that the window-capacity prune of :func:`_limits` refuses.
    """
    limits, made = _limits(delta, n), _Edges()
    found: list[MarkedFloorDiagram] = []
    stack = [((), (), (), (), 0, 0, 0)]
    while stack:
        stack.extend(reversed(_sweep(found, limits, made, *stack.pop())))
    return found


def _sweep(found, limits, made, vertices, budgets, edges, heads, in_used, bd_used, out_used):
    """The children of a sweep state in branch order, or none when it is a
    leaf, which is listed in ``found`` (edges sorted) if connected, or dead.

    ``limits`` is the record of :func:`_limits`.  The state is immutable
    and each branch hands its child new tuples: ``vertices`` and
    ``budgets`` are the placed vertex positions and their remaining
    outgoing budgets; ``edges`` the finished edges, each taken from
    ``made`` (:class:`_Edges`) once its last end is placed; ``heads`` the pending heads
    as (position, source or None, weight), in position order; ``in_used``,
    ``bd_used`` and ``out_used`` the numbers of incoming, bounded and
    outgoing edges placed.  A child is the tuple of these seven arguments.
    """
    n, h, d_b, total_bounded, d_t, div, room = limits
    # not shared with the count: a shared gate measured ~1 % slower, plus a head walker 7-15 %
    spare = sum(budgets)
    need = total_bounded - bd_used - room[h - len(vertices)]  # the window test is spare >= need
    pos = len(vertices) + len(edges) + len(heads) + 1
    if pos > n:
        if _connected(vertices, edges):
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
        # heads weighing less than div + max(0, short) leave the new floor a
        # negative budget or a state that the window-capacity prune refuses
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


def _head_subsets(heads: tuple[tuple, ...], least: int) -> list[tuple[tuple, ...]]:
    """The subsets of the pending ``heads`` whose weights sum to at least
    ``least``, as tuples in plain lexicographic order (all sizes together),
    without building the lighter ones: a depth-first walk that drops a
    branch once the heads after it cannot make up the weight."""
    tails = list(accumulate([w for _, _, w in reversed(heads)], initial=0))[::-1]
    subsets, stack = [], [(0, (), 0)]  # tails[i]: the weight of heads[i:]
    while stack:
        start, chosen, total = stack.pop()
        if total >= least:
            subsets.append(chosen)
        for i in range(len(heads) - 1, start - 1, -1):  # pushed last first, so popped in order
            if total + tails[i] >= least:
                stack.append((i + 1, chosen + (heads[i],), total + heads[i][2]))
    return subsets


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


# the most points accepted: without a cap on work, P2 d=400 at genus 0 runs without bound
_MAX_POINTS = 900


def _limits(delta: HTransverseDegree, n: int) -> tuple:
    """The record (n, h, d_b, bounded, d_t, divergence, room) that both
    passes over the sweep read; refuses g < 0 (:func:`_genus`), then n > _MAX_POINTS.  Every
    diagram on n points has ``bounded`` = n - h - d_b - d_t = g + h - 1
    bounded edges, and room[f] = sum of max(0, d_b - j * divergence) over
    j = h - f + 1 .. h - 1 is the most bounded edges the windows after the
    next floor can take while f floors are still to place.

    The window-capacity prune, a flow bound in the sense of Fomin-Mikhalkin.
    Call window j the positions between floor j and floor j + 1.  While
    window j is open, the budgets of floors 1..j sum to at most
    d_b - j * divergence: a budget is the floor's inflow less the divergence
    and its outflow so far, the bounded edges among these floors add to one
    budget what they take from another, their unbounded inflow is at most
    d_b, and edges leaving them only subtract.  Each bounded or outgoing edge
    placed in window j takes at least 1 from that sum and nothing placed
    there adds to it, so window j takes at most max(0, d_b - j * divergence)
    bounded edges, and the window after the last floor takes none.  A state
    with f floors still to place is therefore dead when

        bounded edges still to place > sum(budgets) + room[f].

    Both passes test it on each branch, before the child is built.  An
    incoming head moves neither side, so its child is tested as the parent
    would be, which refuses a dead root; a bounded edge of weight w takes 1
    from the left and w from the right, which caps w; an outgoing end takes
    1 from the right; a floor adds its budget and loses room, which gives
    its head subsets a least weight.  A wrong bound would drop the same
    diagrams from the count and the listing: the brute-force oracle catches
    that for n <= 16, where the acceptance grid exercises the prune, and
    beyond it the Kontsevich, node-polynomial and maximal-genus pins of the
    counts do.  The count also refuses states whose attached edges hold more
    cycles than the genus, which the listing does not, so the tests
    comparing the two check that bound.
    """
    _genus(delta, n)
    if n > _MAX_POINTS:
        raise DiagramError(f"n = {n} for {delta.label} is over the point cap "
                           f"_MAX_POINTS = {_MAX_POINTS}")
    h, d_b, d_t, div = delta.height, delta.d_b, delta.d_t, delta.divergence
    room = (0, *accumulate([max(0, d_b - j * div) for j in range(h - 1, 0, -1)], initial=0))
    return n, h, d_b, n - h - d_b - d_t, d_t, div, room


def weight_profiles(delta: HTransverseDegree, n: int) -> dict[tuple[int, ...], int]:
    """Map the sorted weights of the bounded edges to the number of marked
    diagrams on n points that have them, without listing any diagram.

    A forward pass over the positions 1..n, taking exactly the branches of
    the sweep of :func:`enumerate_marked` on canonical states.  As in the
    floor-diagram recursions of Fomin-Mikhalkin and Block-Goettsche, the
    future of the sweep depends only on the numbers of incoming, bounded and
    outgoing edges placed, the number of floors still to place, the number
    of pending incoming unbounded heads, and the sorted tuple of connected
    components of the placed vertices, each a pair (sorted positive outgoing
    budgets, sorted weights of the pending bounded heads leaving it).  Each
    branch places one element, so layer j holds the states at position j,
    each with its number of sweep traces per profile placed so far.

    Vertices of equal budget in one component give equal states, so their
    branch is taken once and weighted by their number; a vertex taking r of
    the m pending heads of one weight in one component is weighted by
    C(m, r).  No dead child is built; each prune is tested, before the
    child exists, on the branches that can change what it reads:

    * a closed component (no budget, no pending head) beside another
      component or an unplaced floor, which nothing can join again: only an
      outgoing end or a floor can close one, as a bounded edge leaves its
      component a pending head and an incoming head joins none;
    * the window-capacity prune of :func:`_limits`, tested on each branch as
      the sweep does (the incoming head too, which refuses the root);
    * more cycles among the attached bounded edges than the genus, since
      they form a subgraph of every completion and no subgraph has a larger
      first Betti number: only a floor adds cycles, r - 1 for r heads taken
      from one component, as an edge or an end attaches nothing.

    :func:`_limits` says what catches a wrong bound.  Every count and every
    degeneration vertex product is a fold of the result.
    """
    _, h, d_b, total_bounded, d_t, _, _ = limits = _limits(delta, n)
    layer = {(0, 0, 0, h, 0, ()): {(): 1}}
    for _ in range(n):
        following: dict[tuple, dict[tuple[int, ...], int]] = {}
        for state, profiles in layer.items():
            for ways, w, child in _state_sum(state, limits):
                total = following.setdefault(child, {})
                for profile, count in profiles.items():
                    if w:
                        profile = tuple(sorted(profile + (w,)))
                    total[profile] = total.get(profile, 0) + count * ways
        layer = following
    return layer.get((d_b, total_bounded, d_t, 0, 0, (((), ()),)), {})


def _state_sum(state: tuple, limits: tuple) -> list[tuple[int, int, tuple]]:
    """The live branches of a canonical :func:`weight_profiles` state, as
    (sweep branches, bounded edge weight or 0, canonical child), in branch
    order; ``limits`` is the record of :func:`_limits`.  Each prune is
    tested before the child is built, as :func:`weight_profiles` says."""
    in_used, bd_used, out_used, floors, free, comps = state
    _, _, d_b, total_bounded, d_t, div, room = limits
    # not shared with the sweep: a shared gate measured ~1 % slower, plus a head walker 7-15 %
    spare = sum([sum(budgets) for budgets, _ in comps])
    need = total_bounded - bd_used - room[floors]  # the window test is spare >= need
    branches = []
    if floors and in_used < d_b and spare >= need:
        branches.append((1, 0, (in_used + 1, bd_used, out_used, floors, free + 1, comps)))
    # a bounded edge of weight w leaves spare - w for need - 1, an outgoing end spare - 1
    cap = spare - need + 1 if floors and bd_used < total_bounded else 0
    ends = out_used < d_t and spare > need
    for i, (budgets, heads) in enumerate(comps):
        others = comps[:i] + comps[i + 1:]
        for b in dict.fromkeys(budgets):
            m, k = budgets.count(b), budgets.index(b)
            rest = budgets[:k] + budgets[k + 1:]
            for w in range(1, min(b, cap) + 1):
                left = tuple(sorted(rest + (b - w,))) if w < b else rest
                grown = (left, tuple(sorted(heads + (w,))))
                branches.append((m, w, (in_used, bd_used + 1, out_used, floors, free,
                                        tuple(sorted([*others, grown])))))
            # an outgoing end that leaves its component nothing closes it
            if ends and (b > 1 or rest or heads or not (others or floors)):
                left = tuple(sorted(rest + (b - 1,))) if b > 1 else rest
                branches.append((m, 0, (in_used, bd_used, out_used + 1, floors, free,
                                        tuple(sorted([*others, (left, heads)])))))
    last = floors == 1
    if floors and not (last and (in_used < d_b or bd_used < total_bounded)):
        # head groups: (component index or None for unbounded heads, weight, count)
        groups = [(None, 1, free)] + [(i, w, heads.count(w)) for i, (_, heads) in enumerate(comps)
                                      for w in dict.fromkeys(heads)]
        # the new floor's budget keeps the window test; r heads taken from one
        # component close r - 1 cycles, of the ``cycles`` the genus leaves
        least = max(0, total_bounded - bd_used - room[floors - 1] - spare)
        cycles = total_bounded + 1 - bd_used - floors + sum([len(h) - 1 for _, h in comps])
        for takes in product(*(((m,) if last else range(m + 1)) for _, _, m in groups)):
            budget = sum(w * r for (_, w, _), r in zip(groups, takes)) - div
            if budget < least:
                continue
            touched = {i for (i, _, _), r in zip(groups, takes) if r and i is not None}
            if sum(takes) - takes[0] - len(touched) > cycles:
                continue
            budgets = [b for i in touched for b in comps[i][0]]
            heads = tuple(sorted(w for (i, w, m), r in zip(groups, takes) if i in touched
                                 for _ in range(m - r)))
            if not (budget or budgets or heads) and (len(touched) < len(comps) or not last):
                continue  # a closed component beside another or an unplaced floor
            ways = prod(comb(m, r) for (_, _, m), r in zip(groups, takes))
            kept = [c for i, c in enumerate(comps) if i not in touched]
            left = tuple(sorted(budgets + [budget] if budget else budgets))
            branches.append((ways, 0, (in_used, bd_used, out_used, floors - 1,
                                       free - takes[0], tuple(sorted([*kept, (left, heads)])))))
    return branches


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
