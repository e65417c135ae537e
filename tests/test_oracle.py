"""Brute-force oracle: fixtures and exact agreement with the sweep."""

from collections import Counter
from itertools import combinations_with_replacement

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
    enumerate_marked,
    lp_eval_at_one,
    multiplicity,
    points_for_genus,
    refined_count,
    refined_multiplicity,
    validate_diagram,
)
from floorgw.oracle import _connected, _shapes, refined_sum
from helpers import acceptance_grid, diagram_key


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
    """Exact agreement of diagram multisets and refined counts on the grid, on
    the larger F_k classes, whose shapes give the marking generator longer
    windows, and on P2 d=5 g=2, where n = 16 is the oracle's cap."""
    larger = [(delta, points_for_genus(delta, g))
              for delta, g in LARGER_ORACLE_PAIRS + [(degree_p2(5), 2)]]
    for delta, n in acceptance_grid() + larger:
        listing = brute_force_enumerate(delta, n)
        sweep = sorted(map(diagram_key, enumerate_marked(delta, n)))
        assert sweep == sorted(map(diagram_key, listing)), (delta.label, n)
        assert refined_count(delta, n) == refined_sum(listing)


@pytest.mark.parametrize("listed", [enumerate_marked, brute_force_enumerate])
def test_a_listing_holds_one_edge_object_per_distinct_edge(listed):
    delta = degree_hirzebruch(1, 3, 1)
    edges = [e for d in listed(delta, points_for_genus(delta, 0)) for e in d.edges]
    assert len(edges) == 2121 and {type(e) for e in edges} == {Edge}
    assert len({id(e) for e in edges}) == len(set(edges)) == 104


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
        if not _connected(h, bounded):
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


def test_per_class_brute_sum_equals_the_per_diagram_sum_on_the_grid():
    # each weight class stands for its diagrams: a coarser grouping key
    # (say, the bounded edge count) merges classes of unequal multiplicity
    for delta, n in acceptance_grid():
        brute = brute_force_enumerate(delta, n)
        expected = sum(map(refined_multiplicity, brute), LaurentPolyS.zero())
        assert refined_sum(brute) == expected, (delta.label, n)
