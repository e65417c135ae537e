"""The state-sweep count against the listing sweep and independent pins.

``weight_profiles`` counts the diagrams per multiset of bounded edge
weights over canonical sweep states, without listing any diagram, and
``refined_count``, ``classical_count`` and ``diagram_count`` are folds of
it.  Within the listing sweep's reach the profiles must equal, exactly, the
grouping of ``enumerate_marked`` by sorted bounded weights, and the counts
the sum of refined multiplicities over it, its value at q = 1 and the
number of diagrams listed; beyond it, the counts are pinned by Kontsevich's recursion, the one-
and two-node polynomials and the counts at and above maximal genus, none of
which shares code with the sweep.
"""

import gc
from collections import Counter
from math import comb

import pytest

from floorgw import (
    LaurentPolyS,
    classical_count,
    degree_hirzebruch,
    degree_p2,
    diagram_count,
    enumerate_marked,
    lp_eval_at_one,
    points_for_genus,
    refined_count,
    refined_multiplicity,
    weight_profiles,
)
import floorgw.diagrams as diagrams
from helpers import acceptance_grid


def assert_counts_match_listing(delta, n):
    """The profile recursion and its three folds against one listing: the
    grouping by sorted bounded weights, the refined multiplicity sum, the
    number of diagrams, and the refined count at q = 1."""
    diagrams = enumerate_marked(delta, n)
    assert weight_profiles(delta, n) == Counter(
        tuple(sorted(e.weight for e in d.bounded_edges())) for d in diagrams
    ), (delta, n)
    total = LaurentPolyS.zero()
    for diagram in diagrams:
        total = total + refined_multiplicity(diagram)
    refined = refined_count(delta, n)
    assert refined == total, (delta, n)
    assert diagram_count(delta, n) == len(diagrams), (delta, n)
    assert classical_count(delta, n) == lp_eval_at_one(refined), (delta, n)


def genus_range(delta, genera):
    return [(delta, points_for_genus(delta, g)) for g in genera]


def test_refined_count_equals_listing_sum_on_acceptance_grid():
    for delta, n in acceptance_grid():
        assert_counts_match_listing(delta, n)


BEYOND_GRID = (
    genus_range(degree_p2(4), range(5))
    # the window-capacity prune cuts most of the sweep in the next two
    + genus_range(degree_p2(5), [4, 5, 6])
    + genus_range(degree_p2(6), [8, 9, 10])
    + genus_range(degree_hirzebruch(1, 3, 1), range(4))
    + genus_range(degree_hirzebruch(2, 3, 0), range(4))
)


@pytest.mark.parametrize(
    "delta,n", BEYOND_GRID, ids=[f"{delta.label}-n{n}" for delta, n in BEYOND_GRID]
)
def test_refined_count_equals_listing_sum_beyond_grid(delta, n):
    assert_counts_match_listing(delta, n)


def counted(monkeypatch, name):
    """Count the calls of the recursion ``diagrams.<name>``, itself included."""
    calls = []
    recursion = getattr(diagrams, name)

    def counting(*args):
        calls.append(None)
        return recursion(*args)

    monkeypatch.setattr(diagrams, name, counting)
    return calls


@pytest.mark.parametrize("d,g", [(5, 6), (10, 36)])
def test_sweep_stops_where_bounded_edges_cannot_be_placed(monkeypatch, d, g):
    """Both classes have 1 diagram.  Before the window-capacity prune the
    sweep visited 231,323 states for P2 d=5 g=6; with it, 31.  Without
    dropping the head subsets too light for a live floor, the first floor of
    P2 d=10 g=36 alone tried every subset of its 10 heads (4,193 states)."""
    calls = counted(monkeypatch, "_sweep")
    delta = degree_p2(d)
    assert len(enumerate_marked(delta, points_for_genus(delta, g))) == 1
    assert len(calls) <= 1000


@pytest.mark.parametrize("d,g", [(5, 7), (40, 742)])
def test_count_refuses_the_root_above_maximal_genus(monkeypatch, d, g):
    """One above the maximal genus, the windows cannot take the bounded edges
    at all: (d - 1)(d - 2)/2 + d bounded edges against room for
    (d - 1)(d - 2)/2 + d - 1."""
    calls = counted(monkeypatch, "_state_sum")
    delta = degree_p2(d)
    assert weight_profiles(delta, points_for_genus(delta, g)) == {}
    assert len(calls) == 1


def kontsevich(d_max):
    """Genus-0 plane counts N_1..N_d_max from Kontsevich's recursion."""
    N = {1: 1}
    for d in range(2, d_max + 1):
        N[d] = sum(
            N[a] * N[d - a] * a * a * (d - a)
            * ((d - a) * comb(3 * d - 4, 3 * a - 2) - a * comb(3 * d - 4, 3 * a - 1))
            for a in range(1, d)
        )
    return [N[d] for d in range(1, d_max + 1)]


def test_genus_zero_plane_counts_follow_kontsevich():
    expected = kontsevich(7)
    assert expected == [1, 1, 12, 620, 87304, 26312976, 14616808192]
    assert [classical_count(degree_p2(d), 3 * d - 1) for d in range(1, 8)] == expected


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_one_and_two_node_counts_follow_node_polynomials(d):
    delta = degree_p2(d)
    top = (d - 1) * (d - 2) // 2
    one_node = classical_count(delta, points_for_genus(delta, top - 1))
    two_nodes = classical_count(delta, points_for_genus(delta, top - 2))
    assert one_node == 3 * (d - 1) ** 2
    assert 2 * two_nodes == 3 * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11)


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_plane_count_is_one_at_maximal_genus_and_zero_above(d):
    delta = degree_p2(d)
    top = (d - 1) * (d - 2) // 2
    assert classical_count(delta, points_for_genus(delta, top)) == 1
    assert refined_count(delta, points_for_genus(delta, top + 1)).is_zero()


def test_refined_count_leaves_no_cyclic_garbage():
    """The memo table is freed on return by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        weight_profiles(degree_p2(4), 11)
        refined_count(degree_p2(4), 11)
        assert gc.collect() == 0
    finally:
        gc.enable()
