"""Independent brute-force enumeration of marked floor diagrams.

It cross-checks the sweep enumerator by a structurally different algorithm,
after Fomin-Mikhalkin: list every weighted digraph shape (vertices in rank
order, bounded edges with weights up to the flow bound, unbounded edge
attachments) that meets the divergence and connectivity requirements, then
realize each shape as marked diagrams through its linear extensions, with
indistinguishable parallel edges as one class so that each diagram appears
exactly once.  The shapes are found by a depth-first search over the ranks,
cut by two lower bounds on the unbounded edges a partial shape already needs
(see ``_shapes``), and each shape's linear extensions are listed gap by gap
(see ``_extensions``).  Every diagram passes the full invariant validator.
Both recursive searches clear their own cell once they return, so the
listing leaves no reference cycle: reference counting frees it, and the CLI
can run with the cyclic collector paused.
The oracle's weight profiles come per shape, not per diagram: every diagram
of a shape has the shape's bounded edge weights, so the listing adds each
shape's diagram count under them, into a dict its caller passes.
There are no options; n is capped by ``MAX_N``.  Neither the sweep's walk nor
its count pass is shared: from ``diagrams`` come only the value types
``Edge``, ``HTransverseDegree`` and ``MarkedFloorDiagram``, the connectivity
test ``_connected``, the validator ``validate_diagram``, the negative-genus
refusal ``_genus`` and the count pass's fold ``fold_refined``, and from
``algebra`` ``LaurentPolyS`` and the per-call table ``_Memo``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, product
from operator import itemgetter

from .algebra import LaurentPolyS, _Memo, _shown
from .diagrams import (
    Edge,
    HTransverseDegree,
    MarkedFloorDiagram,
    _connected,
    _genus,
    fold_refined,
    validate_diagram,
)

__all__ = ["OracleLimitError", "brute_force_enumerate", "brute_force_refined_count"]


class OracleLimitError(ValueError):
    """The request exceeds the brute-force cap on n."""


# The cap on n.  At n = 16 the oracle lists P2 d=5 g=2 (9,864 diagrams) in
# about 0.2 s and F1 (h=3, d=3) g=2 (59,782) in about 0.8 s on a 2-vCPU x86-64
# host; n = 16 classes with more diagrams are refused by ``diagrams.LISTING_CAP``.
MAX_N = 16


def _shapes(delta: HTransverseDegree, n: int) -> list:
    """The (bounded, incoming, outgoing) shapes, in a fixed order.

    Ranks 0..h-1 stand for the vertices in marking order.  ``bounded`` is a
    sorted tuple of the (source_rank, target_rank, weight) of the bounded
    edges, source < target and weight up to the flow bound d_b (no
    divergence is negative, so no edge carries more than all incoming
    unbounded edges); ``incoming`` / ``outgoing`` are sorted tuples of the
    target / source ranks of the unbounded edges.

    The bounded edges are chosen rank by rank, depth first.  When rank r is
    reached, its inflow from lower ranks is final; the search then chooses
    the multiplicities of the types (r, j, w), j > r, in sorted order, each
    from the largest possible down to 0, so the bounded tuples come in
    lexicographic order, the order of ``combinations_with_replacement``
    over the sorted types.  Write in_r / out_r for the incoming / outgoing
    unbounded edges at rank r; its balance reads

        inflow_r + in_r - outflow_r - out_r = divergence.

    Two bounds cut the search.  Both follow from the balance, so neither
    loses a shape.

    * Once rank r is chosen, x = divergence - (inflow_r - outflow_r) equals
      in_r - out_r, so in_r >= max(x, 0) and out_r >= max(-x, 0).
      ``used_in`` / ``used_out`` sum these lower bounds over the ranks
      chosen; a branch where either exceeds d_b / d_t has no attachment.
    * The outflow of rank r is at most inflow_r + (d_b - used_in) -
      divergence, with ``used_in`` summed over the ranks below r: the
      balance gives outflow_r <= inflow_r + in_r - divergence, and in_r <=
      d_b - used_in, because the ranks below r take at least ``used_in``
      of the d_b incoming edges.

    With every bounded edge chosen, the unbounded attachments are matched
    by flow: the attachment pairs are indexed once by their net flow per
    rank, and the bounded edges with net flow f take exactly the pairs
    indexed at (divergence - f per rank).  Only a choice with at least one
    match is checked for connectivity.  The search takes one frame per
    type and rank, at most 65 under ``MAX_N``.
    """
    h = delta.height
    d_b, d_t, divergence = delta.d_b, delta.d_t, delta.divergence
    n_bounded = n - h - d_b - d_t
    if n_bounded < 0 or h == 0:  # with no vertex, the d_b + d_t >= 1 unbounded edges have no end
        return []
    attachments: dict[tuple[int, ...], list] = {}
    for incoming in combinations_with_replacement(range(h), d_b):
        for outgoing in combinations_with_replacement(range(h), d_t):
            net = [0] * h
            for t in incoming:
                net[t] += 1
            for s in outgoing:
                net[s] -= 1
            attachments.setdefault(tuple(net), []).append((incoming, outgoing))
    types = [[(r, j, w) for j in range(r + 1, h) for w in range(1, d_b + 1)]
             for r in range(h)]
    flow = [0] * h  # net bounded flow into each rank so far
    bounded: list = []
    shapes: list = []

    def choose(r: int, t: int, cap: int, used_in: int, used_out: int, left: int) -> None:
        # types[r][t:] are open; ``cap`` is what rank r may still send out
        if t < len(types[r]):
            edge = types[r][t]
            _, j, w = edge
            for m in range(min(left, cap // w), -1, -1):
                bounded.extend((edge,) * m)
                flow[r] -= m * w
                flow[j] += m * w
                choose(r, t + 1, cap - m * w, used_in, used_out, left - m)
                flow[r] += m * w
                flow[j] -= m * w
                del bounded[len(bounded) - m:]
        elif r == h - 1:
            if left:
                return
            matches = attachments.get(tuple([divergence - f for f in flow]))
            if matches and _connected(range(h), [(i, j) for i, j, _ in bounded]):
                key = tuple(bounded)
                shapes.extend((key, incoming, outgoing) for incoming, outgoing in matches)
        else:
            x = divergence - flow[r]
            used_in += max(x, 0)
            used_out += max(-x, 0)
            if used_in <= d_b and used_out <= d_t:
                choose(r + 1, 0, flow[r + 1] + (d_b - used_in) - divergence,
                       used_in, used_out, left)

    choose(0, 0, d_b - divergence, 0, 0, n_bounded)
    del choose  # its cell refers back to it: cleared, the search leaves no reference cycle
    return shapes


def _extensions(h: int, classes: dict, divergence: int, made: dict, orders: dict) -> list:
    """Every marked diagram of one shape, once each, gap by gap.

    ``classes`` maps an edge class (source_rank, target_rank, weight) to its
    count; an incoming unbounded edge has source rank -1 and an outgoing one
    target rank h.  The vertices take their positions in rank order; gap g
    holds the edges just before vertex g, and gap h those after the last.
    An edge lies between its ends, so a class (s, t, w) goes in gaps
    s+1..t, and a linear extension of the shape is a distribution of each
    class's copies over its gaps, then an ordering inside each gap.  The
    walk chooses the copies that each gap takes, in turn, using up a class
    with t = g in gap g; a full distribution fixes every position, and its
    diagrams are one ordering per gap, concatenated.  Copies of a class are
    indistinguishable, so a gap's orderings are the permutations of a
    multiset and each diagram comes once.  Earlier gaps take more copies
    first, and a gap's orderings come in sorted class order.  ``made`` and
    ``orders`` are the listing's memos of its one Edge per distinct edge and
    of its orderings (:func:`_orderings`) per tuple of copies that a gap takes.
    """
    keys = sorted(classes)
    n = h + sum(classes.values())
    opens = [[k for k, (s, t, _) in enumerate(keys) if s < g <= t] for g in range(h + 1)]
    gaps: list = []  # (first position, position after, class index and copies) of each gap
    diagrams: list = []

    def distribute(g: int, start: int, left: list) -> None:
        if g > h:
            diagrams.extend(_markings(n, divergence, keys, gaps, made, orders))
            return
        live = [k for k in opens[g] if left[k]]
        for takes in product(*[range(left[k], left[k] - 1 if keys[k][1] == g else -1, -1)
                               for k in live]):
            rest = left.copy()
            for k, m in zip(live, takes):
                rest[k] -= m
            gaps.append((start, start + sum(takes), [(k, m) for k, m in zip(live, takes) if m]))
            distribute(g + 1, start + sum(takes) + 1, rest)
            gaps.pop()

    distribute(0, 1, [classes[key] for key in keys])
    del distribute  # as in ``_shapes``: no cycle keeps the shape's diagrams alive
    return diagrams


def _markings(n: int, divergence: int, keys: list, gaps: list, made: dict, orders: dict) -> list:
    """The diagrams of one distribution: one ordering of each gap, concatenated."""
    floors = tuple([stop for _, stop, _ in gaps[:-1]])
    at = [None, *floors, None]  # at[r + 1] is the position of vertex rank r
    edges = [()]
    for start, stop, content in gaps:
        if content:
            fields = [(p, at[s + 1], at[t + 1], w)
                      for s, t, w in [keys[k] for k, _ in content] for p in range(start, stop)]
            table = tuple([made[e] for e in fields])
            if content[1:]:
                orderings = orders[tuple([m for _, m in content])]
                edges = [e + take(table) for e in edges for take in orderings]
            else:  # one class: its Edges in turn
                edges = [e + table for e in edges]
    return [MarkedFloorDiagram(n, floors, divergence, e) for e in edges]


def _orderings(counts: tuple) -> list:
    """One itemgetter per ordering of a gap of two or more classes, with
    counts[i] copies of class i: from a table of each class's Edges at the
    gap's k positions in turn, it takes the ordering's Edge at each position."""
    k = sum(counts)
    sequences = [((), counts)]  # (classes so far, copies left)
    for _ in range(k):
        sequences = [((*seq, i), left[:i] + (c - 1,) + left[i + 1:])
                     for seq, left in sequences for i, c in enumerate(left) if c]
    return [itemgetter(*[i * k + j for j, i in enumerate(seq)]) for seq, _ in sequences]


def check_cap(delta: HTransverseDegree, n: int) -> None:
    """Refuse a negative genus (``diagrams._genus``), then n over ``MAX_N``, before any work."""
    _genus(delta, n)
    if n > MAX_N:
        raise OracleLimitError(f"n = {_shown(n)} exceeds the brute-force cap {MAX_N}")


def brute_force_enumerate(delta: HTransverseDegree, n: int,
                          profiles: dict | None = None) -> list[MarkedFloorDiagram]:
    """Every valid marked diagram on n points, by exhaustive generation, once the checks pass.

    ``profiles``, when given, is an output: each shape adds its number of listed
    diagrams under its sorted bounded edge weights, since every diagram of a shape
    has that shape's weights.  So it ends equal to ``diagrams.weight_profiles`` of
    the class, read from no diagram; the listing is the same with or without it.
    """
    check_cap(delta, n)
    h, results, made, orders = delta.height, [], _Memo(Edge._make), _Memo(_orderings)
    for bounded, incoming, outgoing in _shapes(delta, n):
        classes = Counter([*bounded, *((-1, t, 1) for t in incoming),
                           *((s, h, 1) for s in outgoing)])
        listed = len(results)
        for diagram in _extensions(h, classes, delta.divergence, made, orders):
            validate_diagram(diagram, delta)
            results.append(diagram)
        if profiles is not None:
            key = tuple(sorted([w for _, _, w in bounded]))
            profiles[key] = profiles.get(key, 0) + len(results) - listed
    return results


def brute_force_refined_count(delta: HTransverseDegree, n: int) -> LaurentPolyS:
    """Refined count through the brute-force path: the fold of its listing's profiles,
    counted per shape."""
    profiles: dict[tuple[int, ...], int] = {}
    brute_force_enumerate(delta, n, profiles)
    return fold_refined(profiles)
