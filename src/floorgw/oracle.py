"""Independent brute-force enumeration of marked floor diagrams.

It cross-checks the sweep enumerator by a structurally different algorithm,
after Fomin-Mikhalkin: list every weighted digraph shape (vertices in rank
order, bounded edges with weights up to the flow bound, unbounded edge
attachments) that meets the divergence and connectivity requirements, then
realize each shape as marked diagrams through its linear extensions, with
indistinguishable parallel edges as one class so that each diagram appears
exactly once.  The shapes are found by a depth-first search over the ranks,
cut by two lower bounds on the unbounded edges a partial shape already needs
(see ``_shapes``), and each linear extension builds its diagram as its
positions are chosen (see ``_extensions``).  Every diagram passes the full
invariant validator.  There are no options; n is capped by ``MAX_N``.
Nothing here is shared with the sweep but the negative-genus refusal.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import combinations_with_replacement

from .algebra import LaurentPolyS
from .diagrams import (
    Edge,
    HTransverseDegree,
    MarkedFloorDiagram,
    _genus,
    refined_multiplicity,
    validate_diagram,
)


class OracleLimitError(ValueError):
    """The request exceeds the brute-force cap on n."""


# The cap on n.  At n = 16 the oracle lists P2 d=5 g=2 (9,864 diagrams) in
# about 0.4 s and F1 (h=3, d=3) g=2 (59,782) in about 3 s on a 2-vCPU x86-64
# host; n = 16 classes with more diagrams are refused by the CLI's listing cap.
MAX_N = 16


def _connected(h: int, bounded: tuple) -> bool:
    if h <= 1:
        return True
    adj = {r: set() for r in range(h)}
    for i, j, _ in bounded:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == h


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
            if matches and _connected(h, bounded):
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
    return shapes


def _extensions(h: int, classes: dict, divergence: int, made: dict) -> list[MarkedFloorDiagram]:
    """Every marked diagram of one shape, one per ordering of its vertices
    0..h-1 and edge classes.

    ``classes`` maps an edge class (source_rank, target_rank, weight) to its
    count; an incoming unbounded edge has source rank -1 and an outgoing one
    target rank h.  Vertices appear in rank order.  Vertex ``placed`` may go
    next iff no live copy targets it (a count per rank), and a class may go
    next iff its source is below ``placed`` (a prefix of the sorted
    classes).  So an edge comes after its source and before its target, and
    no class can outlive its window: a vertex is placed only after every
    edge into it, so every branch ends in an ordering.  Copies of one class
    are indistinguishable, so each distinct ordering is produced exactly
    once.  The position of each vertex rank and of each placed edge copy is
    recorded as it is chosen, and each leaf builds its diagram from ``made``,
    the listing's one Edge per distinct edge; the recursion is at most n + 1 deep.
    """
    keys = sorted(classes)
    counts = [classes[key] for key in keys]
    n = h + sum(counts)
    # endpoints shifted by one, so that at[0] and at[h + 1] stand for no vertex
    ends = [(s + 1, t + 1, w) for s, t, w in keys]
    into = [0] * (h + 2)  # live copies per target, shifted like ``ends``
    for (_, t, _), count in zip(ends, counts):
        into[t] += count
    eligible = [bisect_left(keys, (placed,)) for placed in range(h + 1)]
    at: list = [None] * (h + 2)
    placed_edges: list = []  # (position, shifted class) of each placed copy
    diagrams: list = []

    def extend(placed: int, position: int) -> None:
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


def check_cap(n: int) -> None:
    """Refuse n over ``MAX_N``, before any work."""
    if n > MAX_N:
        raise OracleLimitError(f"n = {n} exceeds the brute-force cap {MAX_N}")


def brute_force_enumerate(delta: HTransverseDegree, n: int) -> list[MarkedFloorDiagram]:
    """Every valid marked diagram on n points, by exhaustive generation, once the checks pass."""
    check_cap(n)
    _genus(delta, n)
    h, results, made = delta.height, [], {}
    for bounded, incoming, outgoing in _shapes(delta, n):
        classes = Counter([*bounded, *((-1, t, 1) for t in incoming),
                           *((s, h, 1) for s in outgoing)])
        for diagram in _extensions(h, classes, delta.divergence, made):
            validate_diagram(diagram, delta)
            results.append(diagram)
    return results


def refined_sum(diagrams) -> LaurentPolyS:
    """The sum of the refined multiplicities of ``diagrams``, taking one
    multiplicity per class of diagrams with the same sorted edge weights, on
    which it depends: each class keeps its first diagram and a count."""
    classes: dict[tuple[int, ...], list] = {}
    for d in diagrams:
        key = tuple(sorted([e[3] for e in d.edges]))
        if (entry := classes.get(key)) is None:
            classes[key] = [d, 1]
        else:
            entry[1] += 1
    return sum((refined_multiplicity(d) * count for d, count in classes.values()),
               LaurentPolyS.zero())


def brute_force_refined_count(delta: HTransverseDegree, n: int) -> LaurentPolyS:
    """Refined count through the brute-force path."""
    return refined_sum(brute_force_enumerate(delta, n))
