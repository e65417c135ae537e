"""Independent brute-force enumeration of marked floor diagrams.

This module exists to cross-check the sweep enumerator through a structurally
different algorithm: it first lists every admissible weighted digraph shape
(vertices in a fixed rank order, bounded edge multisets, unbounded edge
attachments), filters by the divergence and connectivity requirements, and
then realizes each shape as marked diagrams by generating all of its linear
extensions, treating indistinguishable parallel edges as a single class so
each position-labelled structure appears exactly once.  The search stays
exhaustive: every bounded edge multiset is tried.  Its flows are matched
first: the unbounded attachments are found for it by an indexed flow match
(a table from net flow to attachment pairs, built once per call) instead of
a loop over every attachment pair, and only a multiset with a match is then
checked for connectivity, which yields the same shapes.  Every produced
diagram is passed through the full invariant validator before being
returned.  Correctness over speed; nothing here is shared with the sweep's
pruning logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

from .algebra import LaurentPolyS
from .diagrams import (
    Edge,
    HTransverseDegree,
    MarkedFloorDiagram,
    refined_multiplicity,
    validate_diagram,
)


class OracleLimitError(ValueError):
    """The request exceeds the configured brute-force caps."""


@dataclass(frozen=True)
class OracleConfig:
    """Caps for the brute-force search.

    ``max_weight``: bound for bounded edge weights; ``None`` means the flow
    bound d_b + sum(max(-divergence, 0)).  ``max_elements``: cap on n, sized
    to keep a run under a minute.
    """

    max_weight: int | None = None
    max_elements: int = 16

    def __post_init__(self):
        if self.max_weight is not None and self.max_weight < 1:
            raise OracleLimitError("max_weight must be >= 1")


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


def _shapes(delta: HTransverseDegree, n: int, max_weight: int):
    """Yield (divergences_by_rank, bounded, incoming, outgoing) shapes.

    Ranks 0..h-1 stand for the vertices in marking order.  ``bounded`` is a
    multiset of (source_rank, target_rank, weight) with source < target;
    ``incoming`` / ``outgoing`` are multisets of target / source ranks.

    Every bounded multiset is tried.  The unbounded attachments are matched
    to it by flow: the attachment pairs are indexed once by their net flow
    per rank, and a bounded multiset with flow f under the divergence
    assignment divs takes exactly the pairs indexed at divs - f.  Only a
    multiset with at least one match is checked for connectivity.
    """
    h = delta.height
    n_bounded = n - h - delta.d_b - delta.d_t
    if n_bounded < 0:
        return
    edge_types = [
        (i, j, w)
        for i in range(h)
        for j in range(i + 1, h)
        for w in range(1, max_weight + 1)
    ]
    div_assignments = sorted(set(permutations(delta.divergences)))
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
        matches = [
            (divs, pair)
            for divs in div_assignments
            for pair in attachments.get(tuple(d - f for d, f in zip(divs, flow)), ())
        ]
        if matches and _connected(h, bounded):
            for divs, (incoming, outgoing) in matches:
                yield divs, bounded, incoming, outgoing


def _extensions(h: int, classes: dict):
    """All orderings of vertices 0..h-1 and edge classes.

    ``classes`` maps an edge-class key to its remaining count, where the key
    is ("in", target), ("out", source) or ("bd", source, target, weight) in
    vertex ranks.  Vertices appear in rank order; an edge must come after
    its source vertex and before its target vertex.  Copies of one class are
    indistinguishable, so each distinct sequence is produced exactly once.
    Yields sequences of items: ("V", rank) or a class key.
    """
    sequence = []

    def rec(next_rank: int):
        if next_rank == h and all(c == 0 for c in classes.values()):
            yield tuple(sequence)
            return
        # a class whose placement window has closed kills the branch
        for key, c in classes.items():
            if c and key[0] != "out":
                target = key[1] if key[0] == "in" else key[2]
                if target < next_rank:
                    return
        if next_rank < h:
            blocked = any(
                c and key[0] != "out" and (key[1] if key[0] == "in" else key[2]) == next_rank
                for key, c in classes.items()
            )
            if not blocked:
                sequence.append(("V", next_rank))
                yield from rec(next_rank + 1)
                sequence.pop()
        for key in sorted(k for k, c in classes.items() if c):
            kind = key[0]
            if kind == "in":
                ok = key[1] >= next_rank
            elif kind == "out":
                ok = key[1] < next_rank
            else:
                ok = key[1] < next_rank <= key[2]
            if ok:
                classes[key] -= 1
                sequence.append(key)
                yield from rec(next_rank)
                sequence.pop()
                classes[key] += 1

    yield from rec(0)


def brute_force_enumerate(
    delta: HTransverseDegree, n: int, cfg: OracleConfig | None = None
) -> list[MarkedFloorDiagram]:
    """Every valid marked diagram on n points, by exhaustive generation."""
    cfg = cfg or OracleConfig()
    if n > cfg.max_elements:
        raise OracleLimitError(
            f"n = {n} exceeds the brute-force cap {cfg.max_elements}"
        )
    if delta.genus_for_points(n) < 0 or delta.height == 0:
        return []
    max_weight = cfg.max_weight or delta.max_bounded_weight()

    results = []
    for divs, bounded, incoming, outgoing in _shapes(delta, n, max_weight):
        classes: dict = {}
        for i, j, w in bounded:
            classes[("bd", i, j, w)] = classes.get(("bd", i, j, w), 0) + 1
        for t in incoming:
            classes[("in", t)] = classes.get(("in", t), 0) + 1
        for s in outgoing:
            classes[("out", s)] = classes.get(("out", s), 0) + 1
        for seq in _extensions(delta.height, classes):
            rank_pos = {
                item[1]: pos
                for pos, item in enumerate(seq, start=1)
                if item[0] == "V"
            }
            edges = []
            for pos, item in enumerate(seq, start=1):
                if item[0] == "in":
                    edges.append(Edge(pos, None, rank_pos[item[1]], 1))
                elif item[0] == "out":
                    edges.append(Edge(pos, rank_pos[item[1]], None, 1))
                elif item[0] == "bd":
                    edges.append(Edge(pos, rank_pos[item[1]], rank_pos[item[2]], item[3]))
            diagram = MarkedFloorDiagram(
                n,
                tuple(sorted(rank_pos.values())),
                tuple(divs),
                tuple(edges),
            )
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


def brute_force_refined_count(
    delta: HTransverseDegree, n: int, cfg: OracleConfig | None = None
) -> LaurentPolyS:
    """Refined count through the brute-force path."""
    return refined_sum(brute_force_enumerate(delta, n, cfg))
