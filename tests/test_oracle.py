"""Brute-force oracle: fixtures and exact agreement with the sweep."""

from collections import Counter
from functools import cache
from itertools import combinations_with_replacement, product
from math import factorial, prod

import pytest

import floorgw.oracle as oracle
from floorgw import (
    Edge,
    LaurentPolyS,
    OracleLimitError,
    brute_force_enumerate,
    brute_force_refined_count,
    degree_hirzebruch,
    degree_p2,
    diagram_count,
    enumerate_marked,
    lp_eval_at_one,
    multiplicity,
    points_for_genus,
    refined_count,
    validate_diagram,
)
from floorgw.algebra import _Memo
from floorgw.diagrams import LISTING_CAP, fold_refined, refined_multiplicity, weight_profiles
from floorgw.oracle import MAX_N, _extensions, _orderings, _shapes
from helpers import acceptance_grid, diagram_key, frozen_extensions, listing_profiles
from test_count_paths import genus_range, larger_frozen_copy_pairs


def test_oracle_fixtures():
    assert len(brute_force_enumerate(degree_p2(1), 2)) == 1
    assert len(brute_force_enumerate(degree_hirzebruch(0, 1, 1), 3)) == 1
    assert brute_force_refined_count(degree_p2(1), 2) == LaurentPolyS.one()
    assert brute_force_refined_count(degree_p2(2), 5) == LaurentPolyS.one()


def test_oracle_p2_cubics():
    diagrams = brute_force_enumerate(degree_p2(3), 8)
    assert sum(multiplicity(d) for d in diagrams) == 12
    assert sorted(multiplicity(d) for d in diagrams) == [1] * 8 + [4]
    assert brute_force_refined_count(degree_p2(3), 8) == LaurentPolyS(
        -2, [1, 0, 10, 0, 1]
    )


def test_oracle_certifies_p2_quartics():
    refined = brute_force_refined_count(degree_p2(4), 11)
    assert refined == LaurentPolyS(-6, [1, 0, 13, 0, 94, 0, 404, 0, 94, 0, 13, 0, 1])
    assert lp_eval_at_one(refined) == 620
    assert refined == refined_count(degree_p2(4), 11)


def test_oracle_outputs_validate():
    for diagram in brute_force_enumerate(degree_hirzebruch(1, 2, 1), 7):
        validate_diagram(diagram, degree_hirzebruch(1, 2, 1))


def test_oracle_element_cap(monkeypatch):
    def no_shapes(*args, **kwargs):
        raise AssertionError("the oracle searched shapes before the cap was checked")

    monkeypatch.setattr(oracle, "_shapes", no_shapes)
    with pytest.raises(OracleLimitError, match=r"^n = 17 exceeds the brute-force cap 16$"):
        brute_force_enumerate(degree_p2(5), 17)


# The larger F_k classes of the benchmark's oracle grid, all within n <= 16.
LARGER_ORACLE_PAIRS = [
    (degree_hirzebruch(k, h, d), g)
    for (k, h, d), genera in (
        ((1, 3, 1), range(4)),
        ((1, 3, 2), range(3)),
        ((2, 3, 0), range(4)),
        ((2, 2, 2), [3]),
    )
    for g in genera
]


def test_sweep_matches_oracle_everywhere():
    """Exact agreement of diagram multisets and weight profiles on the grid, on
    the larger F_k classes, whose shapes give the marking generator longer
    windows, and on P2 d=5 g=2, where n = 16 is the oracle's cap."""
    larger = [(delta, points_for_genus(delta, g))
              for delta, g in LARGER_ORACLE_PAIRS + [(degree_p2(5), 2)]]
    for delta, n in acceptance_grid() + larger:
        listing = brute_force_enumerate(delta, n)
        sweep = sorted(map(diagram_key, enumerate_marked(delta, n)))
        assert sweep == sorted(map(diagram_key, listing)), (delta.label, n)
        assert weight_profiles(delta, n) == listing_profiles(delta, listing), (delta.label, n)


@pytest.mark.parametrize("listed", [enumerate_marked, brute_force_enumerate])
def test_a_listing_holds_one_edge_object_per_distinct_edge(listed):
    delta = degree_hirzebruch(1, 3, 1)
    edges = [e for d in listed(delta, points_for_genus(delta, 0)) for e in d.edges]
    assert len(edges) == 2121 and {type(e) for e in edges} == {Edge}
    assert len({id(e) for e in edges}) == len(set(edges)) == 104


def connected_ranks(h, bounded):
    """Whether the bounded (source_rank, target_rank, weight) edges join the
    ranks 0..h-1, by a depth-first search from rank 0."""
    if h <= 1:
        return True
    adj = {r: set() for r in range(h)}
    for i, j, _ in bounded:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        for r in adj[stack.pop()] - seen:
            seen.add(r)
            stack.append(r)
    return len(seen) == h


def _reference_shapes(delta, n, max_weight):
    """Reference shape search by nested loops: every bounded multiset against
    every incoming x outgoing attachment pair, with no index."""
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
    divs = [delta.divergence] * h
    for bounded in combinations_with_replacement(edge_types, n_bounded):
        if not connected_ranks(h, bounded):
            continue
        flow = [0] * h
        for i, j, w in bounded:
            flow[i] -= w
            flow[j] += w
        for incoming in combinations_with_replacement(range(h), delta.d_b):
            for outgoing in combinations_with_replacement(range(h), delta.d_t):
                net = flow.copy()
                for t in incoming:
                    net[t] += 1
                for s in outgoing:
                    net[s] -= 1
                if net == divs:
                    yield bounded, incoming, outgoing


def test_indexed_shapes_equal_the_nested_loop_reference():
    # the rank search with its two bounds against every bounded multiset;
    # the reference's nested loops take minutes at P2 d=5
    extra = [(degree_p2(4), 0), (degree_p2(4), 1), (degree_hirzebruch(3, 3, 0), 0)]
    cases = acceptance_grid()
    cases += [(delta, points_for_genus(delta, g)) for delta, g in LARGER_ORACLE_PAIRS + extra]
    for delta, n in cases:
        expected = Counter(_reference_shapes(delta, n, delta.d_b))
        assert Counter(_shapes(delta, n)) == expected, (delta.label, n)


def test_the_flow_bound_loses_no_shape():
    # weights one past the flow bound add no shape, so the bound loses nothing
    for delta, n in acceptance_grid():
        expected = Counter(_reference_shapes(delta, n, delta.d_b + 1))
        assert Counter(_shapes(delta, n)) == expected, (delta.label, n)


def test_profiles_counted_per_shape_equal_the_listing_profiles():
    """The dict that ``brute_force_enumerate`` fills per shape equals the
    profiles read from each diagram of its listing, on the grid and the larger
    F_k classes; the listing is the same, in order, without the dict, and the
    refined count folds the same profiles."""
    larger = [(delta, points_for_genus(delta, g)) for delta, g in LARGER_ORACLE_PAIRS]
    for delta, n in acceptance_grid() + larger:
        profiles = {}
        listing = brute_force_enumerate(delta, n, profiles)
        assert profiles == listing_profiles(delta, listing), (delta.label, n)
        assert listing == brute_force_enumerate(delta, n), (delta.label, n)
        assert brute_force_refined_count(delta, n) == fold_refined(profiles), (delta.label, n)


def test_per_class_brute_sum_equals_the_per_diagram_sum_on_the_grid():
    # each weight profile stands for its diagrams: a coarser grouping key
    # (say, the bounded edge count) merges profiles of unequal multiplicity
    for delta, n in acceptance_grid():
        brute = brute_force_enumerate(delta, n)
        expected = sum(map(refined_multiplicity, brute), LaurentPolyS.zero())
        assert fold_refined(listing_profiles(delta, brute)) == expected, (delta.label, n)


def shape_classes(delta, n):
    """The edge classes of each shape of (delta, n) as ``brute_force_enumerate``
    builds them: (source_rank, target_rank, weight) -> count, with source rank
    -1 for an incoming and target rank h for an outgoing unbounded edge."""
    h = delta.height
    return [Counter([*bounded, *((-1, t, 1) for t in incoming), *((s, h, 1) for s in outgoing)])
            for bounded, incoming, outgoing in _shapes(delta, n)]


def marking_count(h, classes):
    """The number of markings of a shape, counted and not listed: a DP over
    gaps 0..h (gap g just before vertex g, gap h after the last), whose state
    is the copies left per class.  A class (s, t, w) may take gaps s+1..t and
    must be used up by gap t; a gap of k edges holding m_c copies of class c
    has k! / prod(m_c!) orderings."""
    keys = sorted(classes)

    @cache
    def count(g, left):
        if g > h:
            return 1
        choices = [range(c, c + 1) if t == g else range(c + 1) if s < g else range(1)
                   for (s, t, _), c in zip(keys, left)]
        return sum(factorial(sum(takes)) // prod(map(factorial, takes))
                   * count(g + 1, tuple(c - m for c, m in zip(left, takes)))
                   for takes in product(*choices))

    return count(0, tuple(classes[key] for key in keys))


def listed_shape(diagram, h):
    """The shape of a listed diagram, as sorted (class, count) pairs."""
    rank = {p: r for r, p in enumerate(diagram.vertex_positions)}
    return tuple(sorted(Counter((rank.get(s, -1), rank.get(t, h), w)
                                for _, s, t, w in diagram.edges).items()))


def test_marking_count_equals_the_listing_per_shape_on_the_grid():
    """Per shape, the sum over the distributions of the copies over the gaps
    of the orderings inside each gap is the number of diagrams that
    ``brute_force_enumerate`` lists of that shape."""
    for delta, n in acceptance_grid():
        h, expected = delta.height, Counter()
        for classes in shape_classes(delta, n):
            expected[tuple(sorted(classes.items()))] += marking_count(h, classes)
        listed = Counter(listed_shape(d, h) for d in brute_force_enumerate(delta, n))
        assert listed == expected, (delta.label, n)


def test_marking_count_of_a_small_shape():
    # P2 d=3 at genus 0: vertex 0 takes the three incoming edges and sends an
    # edge to each other vertex; the edge to vertex 2 goes in gap 1 beside the
    # edge to vertex 1 (two orderings) or alone in gap 2 (one)
    delta, shape = degree_p2(3), {(-1, 0, 1): 3, (0, 1, 1): 1, (0, 2, 1): 1}
    assert shape in shape_classes(delta, 8)
    listed = [d for d in brute_force_enumerate(delta, 8)
              if listed_shape(d, 3) == tuple(sorted(shape.items()))]
    assert marking_count(3, shape) == len(listed) == 3


def assert_extensions_match_frozen_copy(pairs):
    """Per shape, the gap-by-gap listing equals the frozen per-position
    recursion as a multiset, with no diagram twice; per class, the listing's
    weight profiles, read from each diagram and as ``brute_force_enumerate``
    counts them per shape, equal :func:`weight_profiles`.  Returns the classes
    and the diagrams compared."""
    total = 0
    for delta, n in pairs:
        h, div, profiles, per_shape = delta.height, delta.divergence, Counter(), {}
        for classes in shape_classes(delta, n):
            listing = _extensions(h, classes, div, _Memo(Edge._make), _Memo(_orderings))
            assert len(set(listing)) == len(listing), (delta.label, n, classes)
            assert Counter(listing) == Counter(frozen_extensions(h, classes, div, {})), (
                delta.label, n, classes)
            profiles.update(listing_profiles(delta, listing))
            total += len(listing)
        brute_force_enumerate(delta, n, per_shape)
        assert profiles == per_shape == weight_profiles(delta, n), (delta.label, n)
    return len(pairs), total


def test_extensions_equal_the_frozen_recursion():
    """The grid, F1 (3,2) at genus 0..2 and F2 (3,0) at genus 0..3.  CI runs
    :func:`larger_extension_pairs`."""
    pairs = acceptance_grid() + genus_range(degree_hirzebruch(1, 3, 2), range(3))
    pairs += genus_range(degree_hirzebruch(2, 3, 0), range(4))
    assert assert_extensions_match_frozen_copy(pairs) == (88, 14493)


def larger_extension_pairs():
    """The classes of :func:`larger_frozen_copy_pairs` within the oracle's
    cap on n and the CLI's listing cap: 265 classes, among them P2 d=5 at
    genus 0..2 and F1 (3,3) at genus 2 (n = 16, 59,782 diagrams)."""
    return [(delta, n) for delta, n in larger_frozen_copy_pairs()
            if n <= MAX_N and diagram_count(delta, n) <= LISTING_CAP]
