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

from contextlib import suppress
from itertools import accumulate
from math import comb, prod
from typing import NamedTuple

from .algebra import (AlgebraError, LaurentPolyS, Partition, _Frozen, _integer, _json, _Memo,
                      _shown, _whole, q_integer)

__all__ = ["DiagramError", "Edge", "HTransverseDegree", "InvalidDiagram", "MarkedFloorDiagram",
           "classical_count", "degree_hirzebruch", "degree_p2", "diagram_count",
           "enumerate_marked", "multiplicity", "points_for_genus", "refined_count",
           "validate_diagram", "weight_profiles"]


class DiagramError(ValueError):
    """Invalid degree data or invalid request."""


class InvalidDiagram(DiagramError):
    """A structure violating the marked-floor-diagram invariants."""


class HTransverseDegree(_Frozen):
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
        raise DiagramError(f"plane degree must be a positive integer, got {_shown(d)}")
    return HTransverseDegree((("family", "p2"), ("degree", d)), d, 0, d, 1, f"P2(d={_shown(d)})")


def degree_hirzebruch(k: int, h: int, d: int) -> HTransverseDegree:
    """Class h*D_k + d*F on the Hirzebruch surface F_k.

    Requires integers k >= 0, h >= 0, d >= 0 and h + d >= 1.  Derived:
    d_b = d + k*h, d_t = d, height = h, divergence = k.
    """
    if not all(type(x) is int and x >= 0 for x in (k, h, d)):
        raise DiagramError(
            f"Hirzebruch parameters must be nonnegative integers, got {_shown((k, h, d))}")
    if h + d < 1:
        raise DiagramError("h + d must be at least 1")
    name = ("family", "hirzebruch"), ("k", k), ("h", h), ("d", d)
    label = f"F{_shown(k)}(h={_shown(h)},d={_shown(d)})"
    return HTransverseDegree(name, d + k * h, d, h, k, label)


def points_for_genus(delta: HTransverseDegree, g: int) -> int:
    """The point count n = g - 1 + |delta| of genus g; :func:`_genus` refuses g < 0."""
    n = _whole(g, "genus", DiagramError) - 1 + delta.size
    _genus(delta, n)
    return n


def _genus(delta: HTransverseDegree, n: int) -> int:
    """The genus n + 1 - |delta|; every entry point of a class refuses g < 0 here."""
    g = _whole(n, "n", DiagramError) + 1 - delta.size
    if g < 0:
        raise DiagramError(
            f"no diagrams: n = {_shown(n)} gives negative genus {_shown(g)} for {delta.label}")
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
            raise InvalidDiagram(
                f"divergence values {_shown(sorted(set(div_map.values())))} differ")
        return cls(n, vertices, div_map[vertices[0]], edges)


def multiplicity(diagram: MarkedFloorDiagram) -> int:
    """Product of squared edge weights over all edges (unbounded ones weigh 1)."""
    return prod(e.weight for e in diagram.edges) ** 2


def refined_multiplicity(diagram: MarkedFloorDiagram) -> LaurentPolyS:
    """Product of squared q-integers of the edge weights; palindromic.  Not exported: the
    paper's multiplicity, which a demo prints and the fold never calls; floorbench traces it."""
    return prod((q_integer(e.weight) ** 2 for e in diagram.edges if e.weight != 1),
                start=LaurentPolyS.one())


def vertex_partitions(diagram: MarkedFloorDiagram, position: int) -> tuple[Partition, Partition]:
    """(mu, nu) at a vertex: weights of outgoing resp. incoming edges.  Not exported: the
    paper's vertex data, which the profile sum never lists; floorbench traces it."""
    if position not in diagram.vertex_positions:
        raise DiagramError(f"position {_shown(position)} is not a vertex of the diagram")
    mu = Partition(e.weight for e in diagram.edges if e.source == position)
    nu = Partition(e.weight for e in diagram.edges if e.target == position)
    return mu, nu


def validate_diagram(diagram: MarkedFloorDiagram, delta: HTransverseDegree) -> None:
    """Check every marked-floor-diagram invariant; raise InvalidDiagram on failure.

    Checks: vertex and edge positions partition {1..n}, so no vertex position repeats;
    h vertices; the degree's divergence; edge weights, endpoints and marking order; the
    unbounded edge counts; every vertex's net flow equal to the divergence; connectivity;
    every field an int (an edge's ends may be None), naming the first that is not; and,
    as malformed, a record of the wrong arity, a record that is not iterable, or one
    whose fields cannot be read by position.

    The genus needs no check.  With h vertices and d_b + d_t unbounded
    edges among the n positions, n - h - d_b - d_t edges are bounded, so
    the first Betti number, bounded - h + 1, is n + 1 - |delta|: the genus.
    The bounded edges connect the h >= 1 vertices, so there are at least
    h - 1 of them and the genus is >= 0.  (With h = 0 no edge has an end, so a height-0
    degree has no diagram; the counts return 0, not a refusal: see ROADMAP item 5.)
    """
    try:  # one try per diagram, none per edge
        # the record and its edges unpacked, not read by field name or index: this runs on
        # every listed diagram, unpacking refuses a record of the wrong arity, and the
        # partition reads each position as the edge loop does (a dict edge unpacks its keys)
        n, vertices, divergence, edges = diagram
        positions = sorted([*vertices, *[position for position, _, _, _ in edges]])
        if positions != list(range(1, n + 1)):
            raise InvalidDiagram("positions do not partition 1..n into vertices and edges")
        if len(vertices) != delta.height:
            raise InvalidDiagram(
                f"expected {_shown(delta.height)} vertices, found {len(vertices)}")
        if divergence != delta.divergence:
            raise InvalidDiagram(
                f"divergence {_shown(divergence)} differs from the degree's "
                f"{_shown(delta.divergence)}")
        incoming_unbounded = outgoing_unbounded = 0
        flow = dict.fromkeys(vertices, 0)
        links = []  # (source, target) of each bounded edge
        # a float or a bool equal to an int passes the other checks, but not to_json
        if not type(n) is type(divergence) is int:
            _refuse_non_integer(diagram)
        for position, source, target, weight in edges:
            if not type(position) is type(weight) is int:
                _refuse_non_integer(diagram)
            if weight < 1:
                raise InvalidDiagram(
                    f"edge at position {_shown(position)} has weight {_shown(weight)}")
            if source is None:
                if target is None:
                    raise InvalidDiagram("edge with no endpoint")
                if target not in flow:
                    raise InvalidDiagram(f"edge target {_shown(target)} is not a vertex")
                if type(target) is not int:
                    _refuse_non_integer(diagram)
                if weight != 1:
                    raise InvalidDiagram("incoming unbounded edge of weight != 1")
                if not position < target:
                    raise InvalidDiagram("incoming unbounded edge not before its target")
                incoming_unbounded += 1
                flow[target] += weight
            elif source not in flow:  # an outgoing or a bounded edge
                raise InvalidDiagram(f"edge source {_shown(source)} is not a vertex")
            elif type(source) is not int:
                _refuse_non_integer(diagram)
            elif target is None:
                if weight != 1:
                    raise InvalidDiagram("outgoing unbounded edge of weight != 1")
                if not source < position:
                    raise InvalidDiagram("outgoing unbounded edge not after its source")
                outgoing_unbounded += 1
                flow[source] -= weight
            else:
                if target not in flow:
                    raise InvalidDiagram(f"edge target {_shown(target)} is not a vertex")
                if type(target) is not int:
                    _refuse_non_integer(diagram)
                if not source < position < target:
                    raise InvalidDiagram(
                        f"bounded edge at {_shown(position)} violates source < position < target")
                flow[target] += weight
                flow[source] -= weight
                links.append((source, target))
        if incoming_unbounded != delta.d_b:
            raise InvalidDiagram(f"expected {_shown(delta.d_b)} incoming unbounded edges")
        if outgoing_unbounded != delta.d_t:
            raise InvalidDiagram(f"expected {_shown(delta.d_t)} outgoing unbounded edges")
        for p in vertices:
            if type(p) is not int:
                _refuse_non_integer(diagram)
            if flow[p] != delta.divergence:
                raise InvalidDiagram(f"divergence mismatch at vertex {_shown(p)}")
        if not _connected(vertices, links):
            raise InvalidDiagram("underlying graph is disconnected")
    except InvalidDiagram:
        raise
    except (TypeError, ValueError, LookupError) as error:  # a field of the wrong type or arity
        # InvalidDiagram, a ValueError, names a non-int field; a record that cannot be
        # indexed, or one with too few fields, is left malformed
        with suppress(TypeError, LookupError):
            _refuse_non_integer(diagram)
        raise InvalidDiagram(f"malformed diagram record: {error}") from error


def _refuse_non_integer(diagram: MarkedFloorDiagram) -> None:
    """Raise InvalidDiagram naming the first field of ``diagram``, in record
    order, that is not an int; an edge's source and target may be None.  The
    fields are read by position, as ``validate_diagram`` unpacks them, so a
    plain tuple is read as a record is."""
    _whole(diagram[0], "n", InvalidDiagram)
    for p in diagram[1]:
        _whole(p, "vertex", InvalidDiagram)
    _whole(diagram[2], "divergence", InvalidDiagram)
    for edge in diagram[3]:
        for name, value in zip(Edge._fields, edge):
            if value is not None:
                _whole(value, name, InvalidDiagram)


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

    One walk per residue and listing (:func:`_walk`) lists what every
    sweep state sharing that residue still lists.  A floor that is not the
    last one starts, for each subset of heads it takes, a child residue,
    whose block the walk splices into its own; the walks wait on an
    explicit stack, so no frame is taken per floor.  Each diagram is built
    once, from the root's block (:func:`_root_block`).  The last floor is
    placed only where the graph is connected, and only outgoing ends follow
    it.  The budgets, each >= 0, sum to the ends still to place plus d_b -
    d_t - h * divergence (the inflow less the outflow and divergence of
    every floor), which is d - 0 - d on P2 and (d + kh) - d - hk on F_k.  So the
    ends fill the positions after the last floor, and each ordering of
    them, a multiset permutation of the floors by budget (:func:`_ends`),
    is one diagram, in the order of a sweep that walks each end.  Each
    completed trace is a distinct isomorphism class (markings rigidify), so
    no deduplication is performed; selecting between equal-weight pending
    heads by position produces genuinely distinct marked diagrams.  No
    child is built that the window-capacity prune of :func:`_limits`
    refuses.  A height-0 degree has no floor for its unbounded edges to end
    on, so no diagram.  A class of more than ``LISTING_CAP`` diagrams is
    refused after the count pass, before anything is listed (:func:`_listed`).
    """
    return list(map(MarkedFloorDiagram._make, _diagram_tuples(delta, n, _listed(delta, n)[1])))


def _diagram_tuples(delta: HTransverseDegree, n: int, block: list[tuple]):
    """Each diagram of ``block``, the :func:`_root_block` of (delta, n), as
    the plain tuple (n, floors, divergence, edges), which equals and hashes
    like its :class:`MarkedFloorDiagram`, in listing order."""
    div = delta.divergence
    return ((n, floors, div, edges + tail) for floors, _, edges, tails in block for tail in tails)


# the most diagrams a listing holds: the count reaches P2 d=7 g=0, 1,413,862,091 of them
LISTING_CAP = 100_000


def _listed(delta: HTransverseDegree, n: int) -> tuple[dict, list]:
    """The weight profiles and the root block (:func:`_root_block`) of
    (delta, n), the one entry of every listing: a class of more than
    LISTING_CAP diagrams is refused after the count pass, before any listing."""
    profiles = weight_profiles(delta, n)
    if (count := sum(profiles.values())) > LISTING_CAP:
        raise DiagramError(f"{delta.label}, n = {n} has {count} diagrams, "
                           f"over the listing cap LISTING_CAP = {LISTING_CAP}")
    return profiles, _root_block(delta, n)


def _root_block(delta: HTransverseDegree, n: int) -> list[tuple]:
    """The block of the listing's root residue (:func:`_walk`): entries
    (floors, (), the edges up to the last floor, the shared :func:`_ends`
    tails after it), each tail one diagram, in listing order.  The one
    listing form: :func:`_diagram_tuples` expands it for
    :func:`enumerate_marked` and ``gw.oracle_cross_check``, and the CLI
    renders it without building a diagram."""
    limits, made = _limits(delta, n), _Memo(Edge._make)
    if not delta.height:
        return []
    # the one Edge of each (position, source, target, weight) and the one list
    # of :func:`_ends` of each (floors, budgets), shared by the walks and diagrams
    ends = _Memo(lambda key: _ends(*key, made))
    root = (1, (), (), (), (), 0, 0, 0)
    blocks, walks, block = {}, [(root, _walk(limits, made, ends, *root))], None
    while walks:  # the top walk gets the block of the residue it last asked for
        try:
            key = walks[-1][1].send(block)
        except StopIteration as done:
            block = blocks[walks.pop()[0]] = done.value
            continue
        if (block := blocks.get(key)) is None:
            walks.append((key, _walk(limits, made, ends, *key)))
    return block


def _walk(limits, made, ends, pos, vertices, budgets, heads, components, in_used, bd_used,
          out_used):
    """The block of a residue: what every sweep state sharing it still
    lists, as (floors, the target floor of each pending head, the edges from
    ``pos`` to the last floor, the :func:`_ends` tails after it), in branch
    order.  A generator: it yields each child residue it needs and is sent
    that residue's block.

    A residue is a sweep state less what its future does not read: the
    pending heads keep their (source or None, weight) in position order,
    and the finished edges only the ``components`` they join the floors
    into, each labelled by its first floor.  ``limits`` is the record of
    :func:`_limits`; edges come from ``made`` and tails from ``ends``, the
    memos of :func:`_root_block`.
    The edge branches pass the window test of :func:`_limits`.  A floor
    before the last starts a child residue for each head subset of
    :func:`_head_subsets` and resolves the heads' edges once per (floor,
    subset, child targets).  The last floor takes every head once each
    incoming and bounded edge is placed; a state is dropped once its
    components with no head outnumber the bounded edges left, so no last
    floor is disconnected.  The stack pops the reversed branch order (a
    state's own floor before its children) and the block is reversed once.
    """
    _, h, d_b, total_bounded, d_t, div, room = limits
    last, later = len(vertices) == h - 1, room[h - len(vertices)]
    masks = [1 << components.index(c) for c in components]  # a bit per component
    lacking = sum(set(masks)) - sum({masks[vertices.index(s)] for s, _ in heads if s is not None})
    # the residue's heads are named 0, 1, ..., below pos; a head placed here by its position
    named, block = tuple([(i, *head) for i, head in enumerate(heads)]), []
    label = dict(zip(vertices, components))
    stack = [(pos, budgets, (), sum([w for _, w in heads]), lacking, in_used, bd_used, out_used)]
    while stack:
        p, budgets, path, weight, lacking, in_used, bd_used, out_used = stack.pop()
        spare, need = sum(budgets), total_bounded - bd_used - later  # window test: spare >= need
        if not last:
            pending, here = named + tuple([e for e in path if type(e) is not Edge]), []
            # lighter heads leave the new floor a negative budget or a state the window test refuses
            short = total_bounded - bd_used - room[h - len(vertices) - 1] - spare
            for subset in _head_subsets(pending, div + max(0, short)):
                rest = [head for head in pending if head not in subset]
                joined = {label[s] for _, s, _ in subset if s is not None}
                new = min(joined, default=p)
                budget = sum([w for _, _, w in subset]) - div
                child = yield (p + 1, vertices + (p,), budgets + (budget,),
                               tuple([(s, w) for _, s, w in rest]),
                               tuple([new if c in joined else c for c in components]) + (new,),
                               in_used, bd_used, out_used)
                resolved, ids = {}, [i for i, _, _ in rest]
                for floors, targets, edges, tails in child:
                    if (start := resolved.get(targets)) is None:
                        at = dict.fromkeys([i for i, _, _ in subset], p) | dict(zip(ids, targets))
                        start = resolved[targets] = (
                            tuple([at[i] for i in range(len(named))]),
                            tuple([e if type(e) is Edge else made[e[0], e[1], at[e[0]], e[2]]
                                   for e in path]))
                    here.append((floors, start[0], start[1] + edges, tails))
            block += reversed(here)
        elif lacking.bit_count() > need:  # each bounded edge left reaches one component
            continue
        elif in_used == d_b and not need and weight >= div:  # so no component lacks a head
            floors = vertices + (p,)
            prefix = tuple([e if type(e) is Edge else made[e[0], e[1], p, e[2]] for e in path])
            tails = ends[floors, budgets + (weight - div,)]
            block.append((floors, (p,) * len(named), prefix, tails))
        if in_used < d_b and spare >= need:
            stack.append((p + 1, budgets, path + ((p, None, 1),), weight + 1, lacking,
                          in_used + 1, bd_used, out_used))
        if bd_used < total_bounded:  # weight w leaves spare - w for need - 1
            for i, b in enumerate(budgets):
                for w in range(1, min(b, spare - need + 1) + 1):
                    stack.append((p + 1, budgets[:i] + (b - w,) + budgets[i + 1:],
                                  path + ((p, vertices[i], w),), weight + w,
                                  lacking & ~masks[i], in_used, bd_used + 1, out_used))
        if out_used < d_t and spare > need:  # an outgoing end leaves spare - 1 for need
            for i, b in enumerate(budgets):
                if b >= 1:
                    stack.append((p + 1, budgets[:i] + (b - 1,) + budgets[i + 1:],
                                  path + (made[p, vertices[i], None, 1],), weight, lacking,
                                  in_used, bd_used, out_used + 1))
    block.reverse()
    return block


def _ends(floors: tuple[int, ...], budgets: tuple[int, ...], made: dict) -> list[tuple[Edge, ...]]:
    """Every ordering of the outgoing ends that ``budgets`` leave the
    ``floors``, at the positions after the last floor: the multiset
    permutations of the floors, each as often as its budget, in the sweep's
    branch order, a floor before every later one; ``made`` is the listing's
    memo of Edges."""
    tails = [((), budgets)]
    start = floors[-1] + 1
    for p in range(start, start + sum(budgets)):
        tails = [(tail + (made[p, floors[i], None, 1],), left[:i] + (b - 1,) + left[i + 1:])
                 for tail, left in tails for i, b in enumerate(left) if b]
    return [tail for tail, _ in tails]


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


def _connected(vertices: tuple[int, ...], links: list[tuple[int, int]]) -> bool:
    """Whether the (source, target) links join every vertex to the first one:
    passes over the links until one reaches every vertex or none more."""
    reached, size = {vertices[0]}, 0
    while size < len(reached) < len(vertices):
        size = len(reached)
        for s, t in links:
            if (s in reached) != (t in reached):
                reached.update((s, t))
    return len(reached) == len(vertices)


# the most points accepted: without a cap on work, P2 d=400 at genus 0 runs without bound
_MAX_POINTS = 900


def _limits(delta: HTransverseDegree, n: int) -> tuple:
    """The record (n, h, d_b, bounded, d_t, divergence, room) that the
    listing's walk (:func:`_walk`) and the count read; refuses g < 0
    (:func:`_genus`), then n > _MAX_POINTS.  Every diagram on n points has
    ``bounded`` = n - h - d_b - d_t = g + h - 1 bounded edges, and room[f] =
    sum of max(0, d_b - j * divergence) over j = h - f + 1 .. h - 1 is the
    most bounded edges the windows after the next floor can take while f
    floors are still to place.

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

    The walk and the count test it on each branch, before the child is
    built.  An incoming head moves neither side, so its child is tested as
    the parent would be, which refuses a dead root; a bounded edge of
    weight w takes 1 from the left and w from the right, which caps w; an
    outgoing end takes 1 from the right; a floor adds its budget and loses
    room, which gives its head subsets a least weight.  A wrong bound would
    drop the same diagrams from the count and the listing: the brute-force
    oracle catches that for n <= 16, where the acceptance grid exercises the
    prune, and beyond it the Kontsevich, node-polynomial and maximal-genus
    pins of the counts do.  The count also refuses states whose attached
    edges hold more cycles than the genus, which the listing does not, so
    the tests comparing the two check that bound.
    """
    _genus(delta, n)
    if n > _MAX_POINTS:
        raise DiagramError(f"n = {_shown(n)} for {delta.label} is over the point cap "
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

    A fourth prune is tested on each state before it is expanded, not on the
    branches: a state whose bounded edges are all placed and whose budgets sum
    to more than the d_t - out_used ends it has left is dead.  With no bounded
    edge left, a floor adds a budget >= 0 and only an end spends one, one
    unit each, while the finished state has no budget.

    Inside the pass a profile is one int, sum of count_w << W * (w - 1) over
    its weights w, W = (bounded + 1).bit_length(), so a bounded edge of
    weight w adds the precomputed 1 << W * (w - 1).  A profile holds at most
    ``bounded`` edges, so no count fills its W bits and no field carries
    into the next; every w is at most d_b, since an edge's weight is at most
    the budgets' sum, at most d_b - j * divergence while window j is open
    (:func:`_limits`).  So the packing is one-to-one, the merges meet the
    same profiles in the same order, and the ints are decoded to sorted
    tuples once, at the end.

    :func:`_limits` says what catches a wrong bound.  Every count and every
    degeneration vertex product is a fold of the result.  The floors' head
    takes per component come from one memo of :func:`_head_takes`, dropped
    with the pass.
    """
    _, h, d_b, total_bounded, d_t, _, _ = limits = _limits(delta, n)
    width = (total_bounded + 1).bit_length()
    steps = [0] + [1 << width * (w - 1) for w in range(1, d_b + 1)]  # steps[w]: one edge of w
    layer, takes = {(0, 0, 0, h, 0, ()): {0: 1}}, _Memo(_head_takes)
    for _ in range(n):
        following: dict[tuple, dict[int, int]] = {}
        for state, profiles in layer.items():
            _, bd_used, out_used, _, _, comps = state
            if bd_used == total_bounded and sum([sum(b) for b, _ in comps]) > d_t - out_used:
                continue  # budgets that the ends left cannot spend
            for ways, w, child in _state_sum(state, limits, takes):
                step, total = steps[w], following.setdefault(child, {})
                for profile, count in profiles.items():
                    profile += step
                    total[profile] = total.get(profile, 0) + count * ways
        layer = following
    mask, profiles = (1 << width) - 1, layer.get((d_b, total_bounded, d_t, 0, 0, (((), ()),)), {})
    return {tuple([w for w in range(1, d_b + 1) for _ in range(packed >> width * (w - 1) & mask)]):
            count for packed, count in profiles.items()}


def _head_takes(key: tuple) -> list[tuple[int, int, tuple, int]]:
    """The takes of a component's (sorted pending heads, last floor) by a new
    floor: (weight taken, heads taken, sorted heads left, prod of C(m, r) for
    r of the m heads of a weight), r = m for every weight at the last floor.

    One fold over the weight groups, ascending: each take so far is extended
    by every r of the next group in turn, so the first group varies slowest
    and the takes come in the order of ``product`` over the groups' ranges."""
    heads, last = key
    takes = [(0, 0, (), 1)]
    for w in dict.fromkeys(heads):
        m = heads.count(w)
        takes = [(weight + w * r, taken + r, left + (w,) * (m - r), ways * comb(m, r))
                 for weight, taken, left, ways in takes for r in ((m,) if last else range(m + 1))]
    return takes


def _state_sum(state: tuple, limits: tuple, takes: _Memo) -> list[tuple[int, int, tuple]]:
    """The live branches of a canonical :func:`weight_profiles` state, as
    (sweep branches, bounded edge weight or 0, canonical child), in branch
    order; ``limits`` is the record of :func:`_limits`.  Each prune is
    tested before the child is built, as :func:`weight_profiles` says.

    ``takes`` is the pass's memo of :func:`_head_takes`.  A floor
    joins the components' takes in turn, dropping joins that close too many
    cycles, and takes r0 unbounded heads outside them: ``product`` order over
    (r0, each component's takes), and each component's takes in ``product``
    order over its weight groups, as the fold of :func:`_head_takes` gives
    them, so layers and profile dicts keep their order.  A child with one
    component is ``(grown,)``, which needs no sort.
    """
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
                                        tuple(sorted([*others, grown])) if others else (grown,))))
            # an outgoing end that leaves its component nothing closes it
            if ends and (b > 1 or rest or heads or not (others or floors)):
                grown = (tuple(sorted(rest + (b - 1,))) if b > 1 else rest, heads)
                branches.append((m, 0, (in_used, bd_used, out_used + 1, floors, free,
                                        tuple(sorted([*others, grown])) if others else (grown,))))
    last = floors == 1
    if floors and not (last and (in_used < d_b or bd_used < total_bounded)):
        # the new floor's budget keeps the window test; r heads taken from one
        # component close r - 1 cycles, of the ``cycles`` the genus leaves
        least = max(0, total_bounded - bd_used - room[floors - 1] - spare)
        cycles = total_bounded + 1 - bd_used - floors + sum([len(h) - 1 for _, h in comps])
        # (weight, cycles, ways, touched budgets, their heads left, untouched) per join
        joined = [(0, 0, 1, (), (), ())]
        for comp in comps:
            joined = [(weight + w, closed + r - 1, ways * c, spent + comp[0], left + rest, kept)
                      if r else (weight, closed, ways, spent, left, kept + (comp,))
                      for weight, closed, ways, spent, left, kept in joined
                      for w, r, rest, c in takes[comp[1], last] if closed + r - 1 <= cycles]
        for r0 in (free,) if last else range(free + 1):
            unbounded = comb(free, r0)
            for weight, _, ways, spent, left, kept in joined:
                budget = weight + r0 - div
                if budget < least or not (budget or spent or left) and (kept or not last):
                    continue  # a closed component beside another or an unplaced floor
                grown = (tuple(sorted(spent + (budget,) if budget else spent)), tuple(sorted(left)))
                branches.append((unbounded * ways, 0, (
                    in_used, bd_used, out_used, floors - 1, free - r0,
                    tuple(sorted([*kept, grown])) if kept else (grown,))))
    return branches


def refined_count(delta: HTransverseDegree, n: int) -> LaurentPolyS:
    """Sum of refined multiplicities over all marked diagrams on n points,
    counted without listing them: :func:`fold_refined` of
    :func:`weight_profiles`."""
    return fold_refined(weight_profiles(delta, n))


def fold_refined(profiles: dict[tuple[int, ...], int]) -> LaurentPolyS:
    """The refined count of the diagrams that ``profiles`` (a result of
    :func:`weight_profiles`) counts: [w]_q^2 per bounded edge of weight w.

    Folded in one integer (Kronecker substitution).  Every [w]_q^2 has only
    even s-exponents, so its coefficients 1, 2, ..., w, ..., 2, 1 at
    s^-2(w-1), ..., s^2(w-1) go into one int at B bits per q-step.  A
    profile's product, times its count, is shifted up by
    B * (E - sum 2(w - 1)) / 2, E the largest sum 2(w - 1) over the profiles,
    so that every product's slot j holds s^(-E + 2j); the sum is unpacked
    once.

    B is one more than the bit length of T = sum count * prod w^2, the value
    at s = 1.  Every polynomial here, each factor, partial product, scaled
    product and partial sum, has coefficients >= 0, so each of its
    coefficients is at most its value at s = 1, and that value is at most T
    < 2^(B-1).  So no slot of any packed int reaches 2^B, no carry crosses
    a slot, and each int operation is the polynomial operation.
    """
    if not profiles:
        return LaurentPolyS.zero()
    bits = sum(c * prod(weights) ** 2 for weights, c in profiles.items()).bit_length() + 1
    squares = {w: sum(min(j + 1, 2 * w - 1 - j) << bits * j for j in range(2 * w - 1))
               for w in set().union(*profiles)}
    top = max(sum(weights) - len(weights) for weights in profiles)  # E / 2
    total = sum(count * prod(map(squares.__getitem__, weights))
                << bits * (top - sum(weights) + len(weights))
                for weights, count in profiles.items())
    mask, coeffs = (1 << bits) - 1, []
    for _ in range(2 * top + 1):
        coeffs += (total & mask, 0)
        total >>= bits
    return LaurentPolyS(-2 * top, coeffs[:-1])


def classical_count(delta: HTransverseDegree, n: int) -> int:
    """The refined count at q = 1, i.e. the plain count with multiplicity:
    the fold of :func:`weight_profiles` with w^2 per bounded edge."""
    return sum(c * prod(weights) ** 2 for weights, c in weight_profiles(delta, n).items())


def diagram_count(delta: HTransverseDegree, n: int) -> int:
    """The number of marked diagrams on n points, len(enumerate_marked(delta,
    n)), without listing them: the sum of :func:`weight_profiles`."""
    return sum(weight_profiles(delta, n).values())
