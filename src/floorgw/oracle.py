"""Independent brute-force enumeration of marked floor diagrams.

It cross-checks the sweep enumerator by a structurally different algorithm,
after Fomin-Mikhalkin: list every weighted digraph shape (vertices in rank
order, bounded edges with weights up to the flow bound, unbounded edge
attachments) that meets the divergence and connectivity requirements, then
realize each shape as marked diagrams through its linear extensions, with
indistinguishable parallel edges as one class so that each diagram appears
exactly once.  Every diagram passes the full invariant validator.  There are
no options; n is capped by ``MAX_N``.  Nothing here is shared with the sweep.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement

from .algebra import LaurentPolyS
from .diagrams import (
    Edge,
    HTransverseDegree,
    MarkedFloorDiagram,
    refined_multiplicity,
    validate_diagram,
)


class OracleLimitError(ValueError):
    """The request exceeds the brute-force cap on n."""


# the cap on n, sized to keep a run under a minute
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


def _shapes(delta: HTransverseDegree, n: int):
    """Yield (bounded, incoming, outgoing) shapes.

    Ranks 0..h-1 stand for the vertices in marking order.  ``bounded`` is a
    multiset of (source_rank, target_rank, weight) with source < target and
    weight up to the flow bound d_b (no divergence is negative, so no edge
    carries more than all incoming unbounded edges); ``incoming`` /
    ``outgoing`` are multisets of target / source ranks.

    Every bounded multiset is tried.  The unbounded attachments are matched
    to it by flow: the attachment pairs are indexed once by their net flow
    per rank, and a bounded multiset with flow f takes exactly the pairs
    indexed at (divergence - f per rank).  Only a multiset with at least one
    match is checked for connectivity.
    """
    h = delta.height
    n_bounded = n - h - delta.d_b - delta.d_t
    if n_bounded < 0:
        return
    edge_types = [
        (i, j, w)
        for i in range(h)
        for j in range(i + 1, h)
        for w in range(1, delta.d_b + 1)
    ]
    attachments: dict[tuple[int, ...], list] = {}
    for incoming in combinations_with_replacement(range(h), delta.d_b):
        for outgoing in combinations_with_replacement(range(h), delta.d_t):
            net = [0] * h
            for t in incoming:
                net[t] += 1
            for s in outgoing:
                net[s] -= 1
            attachments.setdefault(tuple(net), []).append((incoming, outgoing))
    for bounded in combinations_with_replacement(edge_types, n_bounded):
        flow = [0] * h
        for i, j, w in bounded:
            flow[i] -= w
            flow[j] += w
        matches = attachments.get(tuple([delta.divergence - f for f in flow]))
        if matches and _connected(h, bounded):
            for incoming, outgoing in matches:
                yield bounded, incoming, outgoing


def _extensions(h: int, classes: dict):
    """All orderings of vertices 0..h-1 and edge classes.

    ``classes`` maps an edge class (source_rank, target_rank, weight) to its
    count; an incoming unbounded edge has source rank -1 and an outgoing one
    target rank h.  Vertices appear in rank order.  Vertex ``placed`` may go
    next iff no live class has target ``placed``, and a class may go next iff
    its source is below ``placed``.  So an edge comes after its source and
    before its target, and no class can outlive its window: a vertex is
    placed only after every edge into it, so every branch ends in an
    ordering.  Copies of one class are indistinguishable, so each distinct
    sequence is produced exactly once.  Yields sequences of items: a vertex
    rank or a class key.
    """
    keys = sorted(classes)
    sequence = []

    def rec(placed: int, left: int):
        if placed == h and not left:
            yield tuple(sequence)
            return
        if placed < h and not any(classes[k] and k[1] == placed for k in keys):
            sequence.append(placed)
            yield from rec(placed + 1, left)
            sequence.pop()
        for key in keys:
            if classes[key] and key[0] < placed:
                classes[key] -= 1
                sequence.append(key)
                yield from rec(placed, left - 1)
                sequence.pop()
                classes[key] += 1

    yield from rec(0, sum(classes.values()))


def check_cap(n: int) -> None:
    """Refuse n over ``MAX_N``, before any work."""
    if n > MAX_N:
        raise OracleLimitError(f"n = {n} exceeds the brute-force cap {MAX_N}")


def brute_force_enumerate(delta: HTransverseDegree, n: int) -> list[MarkedFloorDiagram]:
    """Every valid marked diagram on n points, by exhaustive generation."""
    check_cap(n)
    h = delta.height
    if delta.genus_for_points(n) < 0 or h == 0:
        return []

    divs = (delta.divergence,) * h
    results = []
    for bounded, incoming, outgoing in _shapes(delta, n):
        classes = Counter([*bounded, *((-1, t, 1) for t in incoming),
                           *((s, h, 1) for s in outgoing)])
        for seq in _extensions(h, classes):
            rank_pos = {item: pos for pos, item in enumerate(seq, 1) if type(item) is int}
            edges = tuple(
                Edge(pos, rank_pos.get(item[0]), rank_pos.get(item[1]), item[2])
                for pos, item in enumerate(seq, 1)
                if type(item) is tuple
            )
            diagram = MarkedFloorDiagram(n, tuple(rank_pos.values()), divs, edges)
            validate_diagram(diagram, delta)
            results.append(diagram)
    return results


def refined_sum(diagrams) -> LaurentPolyS:
    """The sum of the refined multiplicities of ``diagrams``, taking one
    multiplicity per class of diagrams with the same sorted edge weights, on
    which it depends."""
    classes: dict[tuple[int, ...], list] = {}
    for d in diagrams:
        classes.setdefault(tuple(sorted(w for _, _, _, w in d.edges)), []).append(d)
    return sum((refined_multiplicity(ds[0]) * len(ds) for ds in classes.values()),
               LaurentPolyS.zero())


def brute_force_refined_count(delta: HTransverseDegree, n: int) -> LaurentPolyS:
    """Refined count through the brute-force path."""
    return refined_sum(brute_force_enumerate(delta, n))
