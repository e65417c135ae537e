"""Degree data, sweep enumeration and diagram invariants."""

import gc
import weakref

import pytest

from floorgw import (
    DiagramError,
    Edge,
    InvalidDiagram,
    LaurentPolyS,
    MarkedFloorDiagram,
    classical_count,
    degree_hirzebruch,
    degree_p2,
    enumerate_marked,
    general_degree,
    lp_eval_at_one,
    multiplicity,
    points_for_genus,
    refined_count,
    refined_multiplicity,
    validate_diagram,
    vertex_partitions,
)
from helpers import acceptance_grid


# ------------------------------------------------------------------- degrees


@pytest.mark.parametrize("d,db,dt,h", [(1, 1, 0, 1), (2, 2, 0, 2), (3, 3, 0, 3)])
def test_degree_p2(d, db, dt, h):
    delta = degree_p2(d)
    assert (delta.d_b, delta.d_t, delta.height) == (db, dt, h)
    assert delta.size == 3 * d
    assert delta.divergences == (1,) * d


def test_degree_p2_rejects():
    with pytest.raises(DiagramError):
        degree_p2(0)


@pytest.mark.parametrize(
    "k,h,d,db,dt",
    [(0, 1, 1, 1, 1), (2, 1, 0, 2, 0), (2, 0, 2, 2, 2), (1, 2, 1, 3, 1)],
)
def test_degree_hirzebruch(k, h, d, db, dt):
    delta = degree_hirzebruch(k, h, d)
    assert (delta.d_b, delta.d_t, delta.height) == (db, dt, h)
    assert delta.divergences == (k,) * h


def test_degree_hirzebruch_rejects():
    with pytest.raises(DiagramError):
        degree_hirzebruch(-1, 1, 1)
    with pytest.raises(DiagramError):
        degree_hirzebruch(0, 0, 0)
    with pytest.raises(DiagramError):
        degree_hirzebruch(1, -1, 2)


def test_general_degree_balancing():
    delta = general_degree([(-1, 0), (1, 1), (0, -1)])
    assert (delta.d_b, delta.d_t, delta.height) == (1, 0, 1)
    with pytest.raises(DiagramError):
        general_degree([(-1, 0), (1, 1)])  # not balanced
    with pytest.raises(DiagramError):
        general_degree([(-2, 0), (2, 0)])  # not h-transverse
    with pytest.raises(DiagramError):
        general_degree([(0, 2), (0, -2)])  # vertical but not unit


def test_points_for_genus():
    assert points_for_genus(degree_p2(3), 0) == 8
    assert points_for_genus(degree_p2(1), 0) == 2
    assert points_for_genus(degree_hirzebruch(0, 1, 1), 1) == 4
    assert points_for_genus(degree_p2(2), 0) == 5  # |delta| = 6
    with pytest.raises(DiagramError):
        points_for_genus(degree_p2(2), -1)


# --------------------------------------------------------------- enumeration


def test_p2_degree1_unique_diagram():
    diagrams = enumerate_marked(degree_p2(1), 2)
    assert len(diagrams) == 1
    (d,) = diagrams
    assert d.vertex_positions == (2,)
    assert d.edges == (Edge(1, None, 2, 1),)


def test_p2_degree2_unique_diagram():
    diagrams = enumerate_marked(degree_p2(2), 5)
    assert len(diagrams) == 1
    (d,) = diagrams
    assert d.vertex_positions == (3, 5)
    assert set(d.edges) == {
        Edge(1, None, 3, 1),
        Edge(2, None, 3, 1),
        Edge(4, 3, 5, 1),
    }


def test_f2_height1_unique_diagram():
    diagrams = enumerate_marked(degree_hirzebruch(2, 1, 0), 3)
    assert len(diagrams) == 1
    (d,) = diagrams
    assert d.vertex_positions == (3,)
    assert d.divergences == (2,)
    assert set(d.edges) == {Edge(1, None, 3, 1), Edge(2, None, 3, 1)}


def test_enumerate_rejects_negative_genus():
    with pytest.raises(DiagramError):
        enumerate_marked(degree_p2(1), 1)


def test_height_zero_collections_have_no_diagrams():
    delta = degree_hirzebruch(2, 0, 2)
    assert enumerate_marked(delta, 3) == []
    assert refined_count(delta, 3).is_zero()
    assert classical_count(delta, 3) == 0


def test_enumeration_is_deterministic():
    a = enumerate_marked(degree_p2(3), 8)
    b = enumerate_marked(degree_p2(3), 8)
    assert a == b


def test_dropped_listing_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        diagrams = enumerate_marked(degree_p2(3), 8)
        first = weakref.ref(diagrams[0])
        del diagrams
        assert first() is None
    finally:
        gc.enable()


def test_every_enumerated_diagram_validates():
    for delta, n in acceptance_grid():
        for diagram in enumerate_marked(delta, n):
            validate_diagram(diagram, delta)


def test_divergence_sum_and_weight_bound():
    for delta, n in acceptance_grid():
        for diagram in enumerate_marked(delta, n):
            assert sum(diagram.divergences) == delta.d_b - delta.d_t
            for e in diagram.edges:
                assert e.weight <= delta.max_bounded_weight()


# ------------------------------------------------------------ multiplicities


def test_multiplicity_examples():
    diagrams = enumerate_marked(degree_p2(2), 5)
    assert multiplicity(diagrams[0]) == 1
    assert refined_multiplicity(diagrams[0]) == LaurentPolyS.one()

    weighted = MarkedFloorDiagram(
        3,
        (1, 3),
        (2, 2),
        (Edge(2, 1, 3, 2),),
    )
    assert multiplicity(weighted) == 4
    assert refined_multiplicity(weighted) == LaurentPolyS(-2, [1, 0, 2, 0, 1])

    two_weights = MarkedFloorDiagram(
        4,
        (1, 4),
        (5, 5),
        (Edge(2, 1, 4, 2), Edge(3, 1, 4, 3)),
    )
    assert multiplicity(two_weights) == 36
    assert lp_eval_at_one(refined_multiplicity(two_weights)) == 36


def test_vertex_partitions_examples():
    (d1,) = enumerate_marked(degree_p2(1), 2)
    mu, nu = vertex_partitions(d1, 2)
    assert (tuple(mu), tuple(nu)) == ((), (1,))

    (d2,) = enumerate_marked(degree_p2(2), 5)
    mu, nu = vertex_partitions(d2, 3)
    assert (tuple(mu), tuple(nu)) == ((1,), (1, 1))

    (df2,) = enumerate_marked(degree_hirzebruch(2, 1, 0), 3)
    mu, nu = vertex_partitions(df2, 3)
    assert (tuple(mu), tuple(nu)) == ((), (1, 1))
    assert nu.size - mu.size == df2.divergence_at(3)

    with pytest.raises(DiagramError):
        vertex_partitions(d1, 1)


def test_vertex_partition_divergence_relation():
    for delta, n in acceptance_grid()[:20]:
        for diagram in enumerate_marked(delta, n):
            for v in diagram.vertex_positions:
                mu, nu = vertex_partitions(diagram, v)
                assert nu.size - mu.size == diagram.divergence_at(v)


# -------------------------------------------------------------------- counts


def test_classical_counts_p2():
    for d, expected in [(1, 1), (2, 1), (3, 12), (4, 620)]:
        assert classical_count(degree_p2(d), points_for_genus(degree_p2(d), 0)) == expected


def test_refined_count_p2_cubics():
    assert refined_count(degree_p2(3), 8) == LaurentPolyS(-2, [1, 0, 10, 0, 1])


def test_refined_count_trivial_cases():
    assert refined_count(degree_p2(1), 2) == LaurentPolyS.one()
    assert refined_count(degree_p2(2), 5) == LaurentPolyS.one()
    assert refined_count(degree_hirzebruch(2, 1, 0), 3) == LaurentPolyS.one()


def test_refined_counts_palindromic_and_match_classical():
    for delta, n in acceptance_grid():
        refined = refined_count(delta, n)
        assert refined.is_palindromic()
        assert lp_eval_at_one(refined) == classical_count(delta, n)
        assert lp_eval_at_one(refined) == sum(
            multiplicity(d) for d in enumerate_marked(delta, n)
        )


# ---------------------------------------------------------- JSON + validator


def test_diagram_json_round_trip():
    for diagram in enumerate_marked(degree_p2(3), 8):
        data = diagram.to_json()
        back = MarkedFloorDiagram.from_json(data)
        assert back == diagram
        validate_diagram(back, degree_p2(3))


def test_validator_rejects_externally_supplied_junk():
    delta = degree_p2(1)
    # wrong unbounded count
    with pytest.raises(InvalidDiagram):
        validate_diagram(MarkedFloorDiagram(1, (1,), (1,), ()), delta)
    # marking order violated: edge after its target
    with pytest.raises(InvalidDiagram):
        validate_diagram(
            MarkedFloorDiagram(2, (1,), (1,), (Edge(2, None, 1, 1),)), delta
        )
    # weight on an unbounded edge
    with pytest.raises(InvalidDiagram):
        validate_diagram(
            MarkedFloorDiagram(2, (2,), (1,), (Edge(1, None, 2, 2),)), delta
        )
    # divergence mismatch
    with pytest.raises(InvalidDiagram):
        validate_diagram(
            MarkedFloorDiagram(2, (2,), (0,), (Edge(1, None, 2, 1),)), delta
        )
    # two floors with no bounded edge between them: disconnected
    f0 = degree_hirzebruch(0, 2, 2)
    with pytest.raises(InvalidDiagram, match="disconnected"):
        validate_diagram(
            MarkedFloorDiagram(
                6,
                (2, 5),
                (0, 0),
                (
                    Edge(1, None, 2, 1),
                    Edge(3, 2, None, 1),
                    Edge(4, None, 5, 1),
                    Edge(6, 5, None, 1),
                ),
            ),
            f0,
        )


def test_validator_accepts_valid_external_json():
    data = {
        "n": 2,
        "vertices": [2],
        "divergences": {"2": 1},
        "edges": [{"position": 1, "source": None, "target": 2, "weight": 1}],
    }
    diagram = MarkedFloorDiagram.from_json(data)
    validate_diagram(diagram, degree_p2(1))
