"""Degree data, sweep enumeration and diagram invariants."""

import gc
import hashlib
import json
import re
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floorgw import (
    AlgebraError,
    DiagramError,
    Edge,
    InvalidDiagram,
    LaurentPolyS,
    MarkedFloorDiagram,
    brute_force_enumerate,
    brute_force_refined_count,
    classical_count,
    degeneration_cross_check,
    degeneration_series,
    degree_hirzebruch,
    degree_p2,
    diagram_count,
    enumerate_marked,
    gw_relative_series,
    log_series,
    lp_eval_at_one,
    multiplicity,
    oracle_cross_check,
    points_for_genus,
    refined_count,
    validate_diagram,
    weight_profiles,
)
import floorgw.diagrams as diagrams
from floorgw.algebra import _Memo
from floorgw.cli import _json_texts, _pieces
from floorgw.diagrams import _head_subsets, _root_block, refined_multiplicity, vertex_partitions
from helpers import (
    acceptance_grid,
    assert_same_text,
    frozen_enumerate_marked,
    frozen_sweep,
    frozen_validate_diagram,
)


# ------------------------------------------------------------------- degrees


@pytest.mark.parametrize("d,db,dt,h", [(1, 1, 0, 1), (2, 2, 0, 2), (3, 3, 0, 3)])
def test_degree_p2(d, db, dt, h):
    delta = degree_p2(d)
    assert (delta.d_b, delta.d_t, delta.height) == (db, dt, h)
    assert delta.size == 3 * d
    assert delta.divergence == 1


def test_degree_p2_rejects():
    with pytest.raises(DiagramError):
        degree_p2(0)
    with pytest.raises(DiagramError, match="integer, got 2.5"):
        degree_p2(2.5)
    with pytest.raises(DiagramError, match="integer, got True"):
        degree_p2(True)


@pytest.mark.parametrize(
    "k,h,d,db,dt",
    [(0, 1, 1, 1, 1), (2, 1, 0, 2, 0), (2, 0, 2, 2, 2), (1, 2, 1, 3, 1)],
)
def test_degree_hirzebruch(k, h, d, db, dt):
    delta = degree_hirzebruch(k, h, d)
    assert (delta.d_b, delta.d_t, delta.height) == (db, dt, h)
    assert delta.divergence == k


def test_degree_hirzebruch_rejects():
    with pytest.raises(DiagramError):
        degree_hirzebruch(-1, 1, 1)
    with pytest.raises(DiagramError):
        degree_hirzebruch(0, 0, 0)
    with pytest.raises(DiagramError):
        degree_hirzebruch(1, -1, 2)
    with pytest.raises(DiagramError, match=r"integers, got \(1, 1\.5, 1\)"):
        degree_hirzebruch(1, 1.5, 1)
    with pytest.raises(DiagramError, match=r"integers, got \(True, 1, 0\)"):
        degree_hirzebruch(True, 1, 0)


def test_degree_identity():
    # a degree equals and hashes as its sorted vector multiset, which is how
    # callers key their inputs: F1 of height h with no fiber class is P2(h)
    for h in (1, 2, 3):
        assert degree_hirzebruch(1, h, 0) == degree_p2(h)
        assert hash(degree_hirzebruch(1, h, 0)) == hash(degree_p2(h))
    assert degree_hirzebruch(0, 0, 1) == degree_hirzebruch(3, 0, 1)
    assert degree_p2(2) != degree_hirzebruch(1, 2, 1)
    for d in (1, 2, 3):
        expected = [(-1, 0)] * d + [(0, -1)] * d + [(1, 1)] * d
        assert sorted(degree_p2(d).vectors) == sorted(expected)
    for k, h, d in [(0, 1, 1), (2, 0, 2), (2, 1, 0), (1, 2, 1), (3, 2, 2)]:
        expected = [(0, -1)] * (d + k * h) + [(0, 1)] * d + [(-1, 0)] * h + [(1, k)] * h
        assert sorted(degree_hirzebruch(k, h, d).vectors) == sorted(expected)


def test_points_for_genus():
    assert points_for_genus(degree_p2(3), 0) == 8
    assert points_for_genus(degree_p2(1), 0) == 2
    assert points_for_genus(degree_hirzebruch(0, 1, 1), 1) == 4
    assert points_for_genus(degree_p2(2), 0) == 5  # |delta| = 6
    with pytest.raises(DiagramError):
        points_for_genus(degree_p2(2), -1)
    # a genus that is not an int is refused, as degree_p2 refuses such a degree
    for g in (1.5, 0.0, True, "0"):
        with pytest.raises(DiagramError, match=re.escape(f"genus must be an integer, got {g!r}")):
            points_for_genus(degree_p2(2), g)


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
    assert d.divergence == 2
    assert set(d.edges) == {Edge(1, None, 3, 1), Edge(2, None, 3, 1)}


def test_enumerate_rejects_negative_genus():
    with pytest.raises(DiagramError):
        enumerate_marked(degree_p2(1), 1)


@pytest.mark.parametrize("delta,n,message", [
    (degree_p2(1), 1, "no diagrams: n = 1 gives negative genus -1 for P2(d=1)"),
    (degree_p2(40), 901, "n = 901 for P2(d=40) is over the point cap _MAX_POINTS = 900"),
    (degree_p2(2), 5.0, "n must be an integer, got 5.0"),
    (degree_p2(2), True, "n must be an integer, got True"),
    (degree_p2(2), "5", "n must be an integer, got '5'"),
])
def test_listing_and_count_refuse_a_class_alike_before_any_branch(monkeypatch, delta, n,
                                                                   message):
    def no_work(*args):
        raise AssertionError("branched before the class was checked")

    monkeypatch.setattr("floorgw.diagrams._walk", no_work)
    monkeypatch.setattr("floorgw.diagrams._state_sum", no_work)
    monkeypatch.setattr("floorgw.oracle._shapes", no_work)
    # a negative genus or an n that is not an int is refused alike by every entry point of a
    # (delta, n) request: the counts, the oracle and the series too (n = 901 meets the
    # oracle's and the order's caps)
    others = (classical_count, diagram_count, brute_force_enumerate, brute_force_refined_count,
              gw_relative_series, log_series, degeneration_series, degeneration_cross_check)
    for run in (enumerate_marked, weight_profiles, refined_count,
                *(others if n != 901 else ())):
        with pytest.raises(DiagramError) as refused:
            run(delta, n)
        assert str(refused.value) == message, run


@pytest.mark.parametrize("value", [None, "p2", 3, (3, 0, 3)], ids=["none", "str", "int", "tuple"])
def test_every_entry_of_a_class_refuses_a_non_degree_in_one_line(value):
    """Once a bare AttributeError: every entry point of a (delta, n) or
    (delta, g) request refuses a delta that is not a degree with the one
    DiagramError of ``diagrams._genus``, ``points_for_genus`` before it reads
    the size; ``validate_diagram`` refuses it, and ``multiplicity`` a value
    that is not a diagram, as an InvalidDiagram, and ``lp_eval_at_one`` a
    value that is not a polynomial as an AlgebraError."""
    got = f"got {type(value).__name__}"
    for run in (refined_count, classical_count, diagram_count, weight_profiles,
                enumerate_marked, points_for_genus, gw_relative_series, log_series,
                degeneration_series, degeneration_cross_check, oracle_cross_check,
                brute_force_enumerate, brute_force_refined_count):
        with pytest.raises(DiagramError) as refused:
            run(value, 3)
        assert str(refused.value) == f"delta must be of type HTransverseDegree, {got}", run
    diagram = enumerate_marked(degree_p2(2), 5)[0]
    with pytest.raises(InvalidDiagram, match=f"^delta must be of type HTransverseDegree, {got}$"):
        validate_diagram(diagram, value)
    with pytest.raises(InvalidDiagram, match=f"^diagram must be of type MarkedFloorDiagram, {got}$"):
        multiplicity(value)
    with pytest.raises(AlgebraError, match=f"^p must be of type LaurentPolyS, {got}$"):
        lp_eval_at_one(value)


def test_height_zero_collections_have_no_diagrams():
    delta = degree_hirzebruch(2, 0, 2)
    assert enumerate_marked(delta, 3) == []
    assert refined_count(delta, 3).is_zero()
    assert classical_count(delta, 3) == 0


def test_enumeration_is_deterministic():
    a = enumerate_marked(degree_p2(3), 8)
    b = enumerate_marked(degree_p2(3), 8)
    assert a == b


# SHA-256 of json.dumps([d.to_json() for d in enumerate_marked(delta, n)]):
# the listing's order and content are part of the output contract
# (``enumerate`` prints them), so any change to the sweep must keep these.
LISTING_DIGESTS = [
    (degree_p2(3), 0, 9, "1613c02abdf15fdf58a5c2bf53872b2cf42067eb5e7e3b739fb504dc4667642a"),
    (degree_p2(3), 1, 1, "cec5e0de484ebd578c10999dcc954a84a2e0430a466f69024d93b2c249675b7a"),
    (degree_p2(3), 2, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (degree_p2(4), 0, 303, "4f90dd7fbd61c7b3ec51170a15d2161062bdc1287b0cd1667c885d4a1f1d7473"),
    (degree_p2(4), 1, 118, "4fde1c6d56e7903c4adca7f47d3f2557627270843bf9d7ab94effd51df88a9ba"),
    (degree_hirzebruch(1, 3, 1), 0, 303,
     "1e8097253895667abf2c091bc677d5a6ce5ef786446b488f74fc7809e8ff3d17"),
    (degree_hirzebruch(2, 3, 0), 1, 536,
     "612ff94ce9e18ec1f84b3ecd8ae3610a877dbf75b3d489edef9a3c96a87d01f6"),
    (degree_hirzebruch(0, 2, 2), 0, 9,
     "eb800a32760a6f0e479f793b8d6a68007a44b6648aebeeb42096b1fc82ec4c66"),
    # the last-floor case of the window-capacity prune cuts branches in these two
    (degree_p2(4), 3, 1, "942f94be47fec112e617b26ae595f3a5264d5f88c712a13583a0b0b0b673c4c7"),
    (degree_hirzebruch(1, 3, 2), 2, 1495,
     "3bd671eaed65d345fb47886c58aa2234b47eac50086214f2a7fd6821b145772e"),
    # the window-capacity prune cuts most of the sweep in these two; their
    # digests were taken with the sweep before it
    (degree_p2(5), 6, 1, "f082a087c549e1015706016b3b74a534d538e729d9657f45f4f3a6d6ebb18cdd"),
    (degree_p2(6), 8, 891, "d734dd2f4c48c1e2d58964c286a0470f9a26a7b4a6333995c59ea6e816224e42"),
    # three outgoing ends, whose orderings follow the last floor; taken with
    # the sweep that walked each end
    (degree_hirzebruch(1, 2, 3), 0, 325,
     "2cbdd93e4ab4cd487d6392f48fdde2104676fe2dd0d0c4e5c07dbc3819ce9a0a"),
]


@pytest.mark.parametrize(
    "delta,g,count,digest", LISTING_DIGESTS,
    ids=[f"{delta.label}-g{g}" for delta, g, _, _ in LISTING_DIGESTS],
)
def test_listing_order_is_pinned(delta, g, count, digest):
    n = points_for_genus(delta, g)
    diagrams = enumerate_marked(delta, n)
    assert len(diagrams) == count
    text = json.dumps([d.to_json() for d in diagrams])
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    texts = [json.dumps(d.to_json()) for d in diagrams]
    block = _root_block(delta, n)
    assert_same_text("".join(_pieces([], block, *_json_texts(n, delta.divergence))),
                     ", ".join(texts))


# the d_t = 3 classes: up to three orderings of the outgoing ends per last floor
THREE_ENDS = [(degree_hirzebruch(k, 2, 3), g) for k, genera in ((0, range(3)), (1, range(3)),
                                                                 (2, [0])) for g in genera]


def test_listing_equals_the_frozen_leaf_listing():
    """The sweep lists each diagram where it places the last floor; the
    frozen copy walks every outgoing end after it to a leaf."""
    pairs = acceptance_grid() + [(delta, points_for_genus(delta, g)) for delta, g in THREE_ENDS]
    for delta, n in pairs:
        assert enumerate_marked(delta, n) == frozen_enumerate_marked(delta, n), (delta, n)


def assert_listings_match_frozen_copy(pairs, most):
    """Compare the listing with the frozen leaf listing, list for list, on
    each pair with at most ``most`` diagrams; the (classes, diagrams)
    compared.  CI runs :func:`test_count_paths.larger_frozen_copy_pairs`."""
    classes = listed = 0
    for delta, n in pairs:
        if diagram_count(delta, n) <= most:
            listing = enumerate_marked(delta, n)
            assert listing == frozen_enumerate_marked(delta, n), (delta, n)
            classes, listed = classes + 1, listed + len(listing)
    return classes, listed


def counted_walks(monkeypatch):
    """The residues that ``diagrams._walk`` is called with, in call order."""
    walk, residues = diagrams._walk, []

    def counted(limits, made, ends, *residue):
        residues.append(residue)
        return walk(limits, made, ends, *residue)

    monkeypatch.setattr(diagrams, "_walk", counted)
    return residues


# (residues walked); the sweep that stopped at one floor left entered 599
# and 648 states, and 56 and 228 walks completed those
LAST_FLOOR_CLASSES = [(degree_p2(4), 0, 114), (degree_hirzebruch(1, 3, 2), 0, 244)]


@pytest.mark.parametrize("delta,g,walks", LAST_FLOOR_CLASSES,
                         ids=[f"{delta.label}-g{g}" for delta, g, _ in LAST_FLOOR_CLASSES])
def test_sweep_enters_no_state_with_every_floor_placed(monkeypatch, delta, g, walks):
    """The listing walks each residue once, and none with every floor
    placed: a walk places the last floor and the ends after it at once.
    The listing never tests the graph: the walk keeps only connected last
    floors."""
    n, h, connected = points_for_genus(delta, g), delta.height, diagrams._connected
    residues, tests = counted_walks(monkeypatch), []

    def counted_connected(*args):
        tests.append(None)
        return connected(*args)

    monkeypatch.setattr(diagrams, "_connected", counted_connected)
    assert enumerate_marked(delta, n) == frozen_enumerate_marked(delta, n)
    assert max(len(vertices) for _, vertices, *_ in residues) == h - 1
    assert len(residues) == len(set(residues)) == walks
    assert tests == []


def floor_components(vertices, edges):
    """Each floor's component under the bounded ``edges``, named by its first floor."""
    label = dict(zip(vertices, vertices))
    for _, s, t, _ in edges:
        if s is not None and t is not None:
            keep, drop = sorted((label[s], label[t]))
            label = {v: keep if c == drop else c for v, c in label.items()}
    return tuple(label.values())


def frozen_residues(delta, n):
    """The residue of each state of the frozen sweep at the root or just
    after a floor, with a floor still to place, mapped to the (finished
    edges, pending heads) of the states that share it."""
    limits, made, h = diagrams._limits(delta, n), _Memo(Edge._make), delta.height
    shared, stack = {}, [((), (), (), (), 0, 0, 0)]
    while stack:
        vertices, budgets, edges, heads, *used = state = stack.pop()
        pos = len(vertices) + len(edges) + len(heads) + 1
        if len(vertices) < h and (vertices or (0,))[-1] == pos - 1:
            residue = (pos, vertices, budgets, tuple([(s, w) for _, s, w in heads]),
                       floor_components(vertices, edges), *used)
            shared.setdefault(residue, set()).add((edges, heads))
        stack += frozen_sweep([], limits, made, *state)
    return shared


# in each class, states that share a residue differ in their head positions
# and in their finished edges; in P2 d=5 g=2 also states with two or more
# floors left
SHARED_RESIDUE_CLASSES = [(degree_p2(4), 0), (degree_p2(5), 2), (degree_hirzebruch(1, 3, 1), 0),
                          (degree_hirzebruch(2, 3, 0), 0)]


@pytest.mark.parametrize("delta,g", SHARED_RESIDUE_CLASSES,
                         ids=[f"{delta.label}-g{g}" for delta, g in SHARED_RESIDUE_CLASSES])
def test_states_sharing_a_residue_list_as_the_frozen_copy(monkeypatch, delta, g):
    """The residue leaves out the positions of the pending heads and the
    finished edges but for their components; the frozen sweep's states
    that differ only there share one walk, which lists what the frozen
    copy lists from each of them."""
    n, h = points_for_genus(delta, g), delta.height
    residues = counted_walks(monkeypatch)
    assert enumerate_marked(delta, n) == frozen_enumerate_marked(delta, n)
    shared = frozen_residues(delta, n)
    assert len(residues) == len(set(residues)) == len(shared) and set(residues) == set(shared)
    assert any(len({heads for _, heads in states}) > 1 for states in shared.values())
    assert any(len({edges for edges, _ in states}) > 1 for states in shared.values())
    if (delta, g) == (degree_p2(5), 2):
        assert any(len(states) > 1 for (_, vertices, *_), states in shared.items()
                   if len(vertices) <= h - 2)


def listed_within_50_frames(delta, n):
    """``enumerate_marked(delta, n)`` with the recursion limit 50 frames
    above the caller."""
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        return enumerate_marked(delta, n)
    finally:
        sys.setrecursionlimit(limit)


def test_one_floor_lists_in_one_walk_under_a_low_recursion_limit(monkeypatch):
    """F0 (1,449) g=0 (n = 899) has one floor, so its listing is one walk
    over 899 positions; it runs within 50 frames of its caller."""
    delta = degree_hirzebruch(0, 1, 449)
    n, walks = points_for_genus(delta, 0), counted_walks(monkeypatch)
    listing = listed_within_50_frames(delta, n)
    assert n == 899 and len(walks) == 1
    assert [d.vertex_positions for d in listing] == [(450,)]
    validate_diagram(listing[0], delta)


def test_many_floors_list_without_a_frame_per_floor(monkeypatch):
    """F0 (449,1) g=0 (n = 899) has 449 floors, so its listing waits on
    448 walks at once, on the listing's own stack: it runs within 50
    frames of its caller."""
    delta = degree_hirzebruch(0, 449, 1)
    n, walks = points_for_genus(delta, 0), counted_walks(monkeypatch)
    listing = listed_within_50_frames(delta, n)
    assert n == 899 and len(listing) == 1 and len(walks) == 449
    validate_diagram(listing[0], delta)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=8), st.integers(-1, 20))
def test_head_subsets_are_the_sorted_heavy_combinations(weights, least):
    """The reference is the sweep's former head-choice list: every
    combination of the heads, sorted, here kept only when heavy enough."""
    heads = tuple((p, None if w == 1 else p - 1, w)
                  for p, w in zip(range(2, 2 + 3 * len(weights), 3), weights))
    every = sorted(s for r in range(len(heads) + 1) for s in combinations(heads, r))
    expected = [s for s in every if sum(w for _, _, w in s) >= least]
    assert _head_subsets(heads, least) == expected


def test_head_subsets_do_not_build_the_lighter_ones():
    heads = tuple((p, None, 1) for p in range(40))
    assert _head_subsets(heads, 40) == [heads]
    # 41 of the 2^40 subsets weigh 39 or more: all heads, and each but one
    heavy = [heads] + [heads[:i] + heads[i + 1:] for i in range(40)]
    assert _head_subsets(heads, 39) == sorted(heavy)


def test_dropped_listing_is_freed_without_the_cycle_collector():
    # a diagram is a tuple, which takes no weak reference: the probe is the
    # reference count of one held diagram, which loses exactly the list's
    gc.collect()
    gc.disable()
    try:
        diagrams = enumerate_marked(degree_p2(3), 8)
        first = diagrams[0]
        held = sys.getrefcount(first)
        del diagrams
        assert sys.getrefcount(first) == held - 1
    finally:
        gc.enable()


def test_every_enumerated_diagram_validates():
    for delta, n in acceptance_grid():
        for diagram in enumerate_marked(delta, n):
            validate_diagram(diagram, delta)


def test_divergence_sum_and_weight_bound():
    for delta, n in acceptance_grid():
        for diagram in enumerate_marked(delta, n):
            assert len(diagram.vertex_positions) * diagram.divergence == delta.d_b - delta.d_t
            for e in diagram.edges:
                assert e.weight <= delta.d_b


# ------------------------------------------------------------ multiplicities


def test_multiplicity_examples():
    diagrams = enumerate_marked(degree_p2(2), 5)
    assert multiplicity(diagrams[0]) == 1
    assert refined_multiplicity(diagrams[0]) == LaurentPolyS.one()

    weighted = MarkedFloorDiagram(
        3,
        (1, 3),
        2,
        (Edge(2, 1, 3, 2),),
    )
    assert multiplicity(weighted) == 4
    assert refined_multiplicity(weighted) == LaurentPolyS(-2, [1, 0, 2, 0, 1])

    two_weights = MarkedFloorDiagram(
        4,
        (1, 4),
        5,
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
    assert nu.size - mu.size == df2.divergence

    with pytest.raises(DiagramError):
        vertex_partitions(d1, 1)


def test_vertex_partition_divergence_relation():
    for delta, n in acceptance_grid()[:20]:
        for diagram in enumerate_marked(delta, n):
            for v in diagram.vertex_positions:
                mu, nu = vertex_partitions(diagram, v)
                assert nu.size - mu.size == diagram.divergence


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


def test_edge_is_a_named_tuple_with_the_old_repr_and_fields():
    edge = Edge(2, 1, 4, 3)
    assert repr(edge) == "Edge(position=2, source=1, target=4, weight=3)"
    assert (edge.position, edge.source, edge.target, edge.weight) == (2, 1, 4, 3)
    position, source, target, weight = Edge(1, None, 2, 1)
    assert (position, source, target, weight) == (1, None, 2, 1)
    # equal to the plain 4-tuple, so hash must agree with it too
    assert edge == (2, 1, 4, 3) and hash(edge) == hash((2, 1, 4, 3))
    assert edge == Edge(2, 1, 4, 3) and hash(edge) == hash(Edge(2, 1, 4, 3))
    assert edge != Edge(2, 1, 4, 2) and edge != Edge(3, 1, 4, 3)
    assert len({edge, Edge(2, 1, 4, 3), (2, 1, 4, 3)}) == 1
    diagram = MarkedFloorDiagram(4, (1, 4), 0, (edge,))
    back = MarkedFloorDiagram.from_json(json.loads(json.dumps(diagram.to_json())))
    assert back == diagram and hash(back) == hash(diagram)
    assert all(type(e) is Edge for e in back.edges)


@pytest.mark.parametrize("delta,g", [
    (degree_p2(3), 0), (degree_p2(4), 1), (degree_hirzebruch(1, 3, 1), 0),
    (degree_hirzebruch(2, 3, 0), 1), (degree_hirzebruch(2, 2, 1), 0),
])
def test_listed_edges_are_edges_in_position_order(delta, g):
    """multiplicity and vertex_partitions read edge fields by name, and
    the JSON output writes the edges in their listed order."""
    diagrams = enumerate_marked(delta, points_for_genus(delta, g))
    assert diagrams
    for diagram in diagrams:
        assert all(type(e) is Edge for e in diagram.edges)
        positions = [e.position for e in diagram.edges]
        assert all(a < b for a, b in zip(positions, positions[1:]))


def test_diagram_is_a_named_tuple_like_edge():
    diagram = MarkedFloorDiagram(3, (2,), 1, (Edge(1, None, 2, 1), Edge(3, 2, None, 1)))
    plain = (3, (2,), 1, ((1, None, 2, 1), (3, 2, None, 1)))
    assert diagram == plain and hash(diagram) == hash(plain)
    assert len({diagram, plain, MarkedFloorDiagram(*plain)}) == 1
    assert diagram != MarkedFloorDiagram(3, (2,), 0, diagram.edges)
    assert repr(diagram) == (
        "MarkedFloorDiagram(n=3, vertex_positions=(2,), divergence=1, "
        "edges=(Edge(position=1, source=None, target=2, weight=1), "
        "Edge(position=3, source=2, target=None, weight=1)))")
    n, vertex_positions, divergence, edges = diagram
    assert (n, vertex_positions, divergence, edges) == (3, (2,), 1, diagram.edges)


# ---------------------------------------------------------- JSON + validator


def test_diagram_json_round_trip():
    for diagram in enumerate_marked(degree_p2(3), 8):
        data = diagram.to_json()
        back = MarkedFloorDiagram.from_json(data)
        assert back == diagram
        validate_diagram(back, degree_p2(3))


# Listings with incoming, bounded and outgoing edges and with divergences
# 0, 1 and 2, so every kind of edge endpoint is serialized.
ROUND_TRIP_POOL = [
    (delta, diagram)
    for delta, g in [
        (degree_p2(3), 0), (degree_hirzebruch(1, 2, 1), 1), (degree_hirzebruch(0, 2, 2), 0),
        (degree_hirzebruch(2, 2, 1), 0),
    ]
    for diagram in enumerate_marked(delta, points_for_genus(delta, g))
]


@given(st.sampled_from(ROUND_TRIP_POOL))
@settings(max_examples=60, deadline=None)
def test_diagram_json_text_round_trip(pair):
    delta, diagram = pair
    back = MarkedFloorDiagram.from_json(json.loads(json.dumps(diagram.to_json())))
    assert back == diagram
    validate_diagram(back, delta)


def _incoming(position, target):
    return Edge(position, None, target, 1)


# One row per check of validate_diagram, in the order it runs them; each
# diagram passes every earlier check.  P2 d=1 has one floor and one incoming
# edge.  The last two rows repeat a vertex position and give a dict edge, which
# the partition check refuses.
INVALID_DIAGRAMS = [
    ("partition", degree_p2(1), MarkedFloorDiagram(3, (2,), 1, (_incoming(1, 2),)),
     r"^positions do not partition 1\.\.n into vertices and edges$"),
    ("vertex-count", degree_p2(2), MarkedFloorDiagram(2, (2,), 1, (_incoming(1, 2),)),
     r"^expected 2 vertices, found 1$"),
    ("divergences", degree_p2(1), MarkedFloorDiagram(2, (2,), 0, (_incoming(1, 2),)),
     r"^divergence 0 differs from the degree's 1$"),
    ("weight", degree_p2(1), MarkedFloorDiagram(2, (2,), 1, (Edge(1, None, 2, 0),)),
     r"^edge at position 1 has weight 0$"),
    ("no-endpoint", degree_p2(1), MarkedFloorDiagram(2, (2,), 1, (Edge(1, None, None, 1),)),
     r"^edge with no endpoint$"),
    ("unknown-source", degree_p2(1), MarkedFloorDiagram(2, (2,), 1, (Edge(1, 3, 2, 1),)),
     r"^edge source 3 is not a vertex$"),
    ("unknown-target", degree_p2(1), MarkedFloorDiagram(2, (2,), 1, (_incoming(1, 3),)),
     r"^edge target 3 is not a vertex$"),
    ("incoming-weight", degree_p2(1), MarkedFloorDiagram(2, (2,), 1, (Edge(1, None, 2, 2),)),
     r"^incoming unbounded edge of weight != 1$"),
    ("incoming-order", degree_p2(1), MarkedFloorDiagram(2, (1,), 1, (_incoming(2, 1),)),
     r"^incoming unbounded edge not before its target$"),
    ("outgoing-weight", degree_p2(1),
     MarkedFloorDiagram(3, (2,), 1, (_incoming(1, 2), Edge(3, 2, None, 2))),
     r"^outgoing unbounded edge of weight != 1$"),
    ("outgoing-order", degree_p2(1),
     MarkedFloorDiagram(3, (3,), 1, (_incoming(1, 3), Edge(2, 3, None, 1))),
     r"^outgoing unbounded edge not after its source$"),
    ("bounded-order", degree_p2(2),
     MarkedFloorDiagram(4, (2, 3), 1, (_incoming(1, 2), Edge(4, 2, 3, 1))),
     r"^bounded edge at 4 violates source < position < target$"),
    ("incoming-count", degree_p2(1), MarkedFloorDiagram(1, (1,), 1, ()),
     r"^expected 1 incoming unbounded edges$"),
    ("outgoing-count", degree_p2(1),
     MarkedFloorDiagram(3, (2,), 1, (_incoming(1, 2), Edge(3, 2, None, 1))),
     r"^expected 0 outgoing unbounded edges$"),
    # two floors of the plane's divergence 1 whose edge flows are 0 and 2
    ("flow", degree_p2(2),
     MarkedFloorDiagram(5, (2, 5), 1, (_incoming(1, 2), Edge(3, 2, 5, 1), _incoming(4, 5))),
     r"^divergence mismatch at vertex 2$"),
    # two floors of F0 with no bounded edge between them
    ("disconnected", degree_hirzebruch(0, 2, 2),
     MarkedFloorDiagram(6, (2, 5), 0, (_incoming(1, 2), Edge(3, 2, None, 1),
                                       _incoming(4, 5), Edge(6, 5, None, 1))),
     r"^underlying graph is disconnected$"),
    # once a genus -2 and a Betti number 1 against genus 0, before the
    # partition check saw the vertex tuple
    ("repeated-vertex", degree_hirzebruch(0, 2, 1),
     MarkedFloorDiagram(3, (2, 2), 0, (_incoming(1, 2), Edge(3, 2, None, 1))),
     r"^positions do not partition 1\.\.n into vertices and edges$"),
    # unpacked, its keys are (0, None, 2, 1): once validated with position 1, its
    # key 0's value, while the edge loop and to_json read position 0
    ("dict-edge", degree_p2(1), MarkedFloorDiagram(2, (2,), 1, ({0: 1, None: 0, 2: 0, 1: 0},)),
     r"^positions do not partition 1\.\.n into vertices and edges$"),
]


@pytest.mark.parametrize("delta,diagram,message", [row[1:] for row in INVALID_DIAGRAMS],
                         ids=[row[0] for row in INVALID_DIAGRAMS])
def test_validator_names_each_failure(delta, diagram, message):
    with pytest.raises(InvalidDiagram, match=message):
        validate_diagram(diagram, delta)


# Records built in Python with a field or a record of the wrong arity, or no record,
# which once raised a bare TypeError, ValueError, IndexError or AttributeError, or
# (five fields) passed; from_json refuses each of them earlier
MALFORMED_DIAGRAMS = [
    ("three-field-edge", MarkedFloorDiagram(2, (2,), 1, ((1, None, 2),)),
     r"^malformed diagram record: not enough values to unpack \(expected 4, got 3\)$"),
    ("three-field-record", tuple.__new__(MarkedFloorDiagram, (2, (2,), 1)),
     r"^malformed diagram record: not enough values to unpack \(expected 4, got 3\)$"),
    ("five-field-record",
     tuple.__new__(MarkedFloorDiagram, (2, (2,), 1, (_incoming(1, 2),), 0)),
     r"^malformed diagram record: too many values to unpack \(expected 4(, got 5)?\)$"),
    ("none-record", None,
     r"^malformed diagram record: cannot unpack non-iterable NoneType object$"),
]


@pytest.mark.parametrize("diagram,message", [row[1:] for row in MALFORMED_DIAGRAMS],
                         ids=[row[0] for row in MALFORMED_DIAGRAMS])
def test_validator_refuses_a_malformed_record_as_invalid(diagram, message):
    with pytest.raises(InvalidDiagram, match=message) as refused:
        validate_diagram(diagram, degree_p2(1))
    assert isinstance(refused.value.__cause__, (TypeError, ValueError))


# Records built in Python with a field that is not an int.  A float or a bool
# equal to an int passes every other check: once validated, its to_json was JSON
# that from_json refuses.  A fractional n or a str vertex failed in another check,
# refused as a malformed record without the field's name.
NON_INTEGER_DIAGRAMS = [
    ("str-vertex", degree_p2(1), MarkedFloorDiagram(2, ("2",), 1, (_incoming(1, 2),)),
     r"^vertex must be an integer, got '2'$"),
    ("float-n", degree_p2(1), MarkedFloorDiagram(2.5, (2,), 1, (_incoming(1, 2),)),
     r"^n must be an integer, got 2\.5$"),
    ("float-vertex-bool-position-and-weight", degree_p2(1),
     MarkedFloorDiagram(2, (2.0,), 1, (Edge(True, None, 2, True),)),
     r"^vertex must be an integer, got 2\.0$"),
    # int edge fields: the float vertex is refused in the vertex loop
    ("float-vertex", degree_p2(1), MarkedFloorDiagram(2, (2.0,), 1, (Edge(1, None, 2, 1),)),
     r"^vertex must be an integer, got 2\.0$"),
    ("float-target", degree_p2(1), MarkedFloorDiagram(2, (2,), 1, (Edge(1, None, 2.0, 1),)),
     r"^target must be an integer, got 2\.0$"),
    ("bool-weight", degree_p2(1), MarkedFloorDiagram(2, (2,), 1, (Edge(1, None, 2, True),)),
     r"^weight must be an integer, got True$"),
    ("bool-position", degree_p2(1), MarkedFloorDiagram(2, (2,), 1, (Edge(True, None, 2, 1),)),
     r"^position must be an integer, got True$"),
    ("bool-n", degree_hirzebruch(0, 1, 0), MarkedFloorDiagram(True, (1,), 0, ()),
     r"^n must be an integer, got True$"),
    ("bool-divergence", degree_p2(1), MarkedFloorDiagram(2, (2,), True, (_incoming(1, 2),)),
     r"^divergence must be an integer, got True$"),
    ("float-outgoing-source", degree_hirzebruch(0, 1, 1),
     MarkedFloorDiagram(3, (2,), 0, (_incoming(1, 2), Edge(3, 2.0, None, 1))),
     r"^source must be an integer, got 2\.0$"),
    ("float-bounded-source", degree_p2(2),
     MarkedFloorDiagram(5, (3, 5), 1, (_incoming(1, 3), _incoming(2, 3), Edge(4, 3.0, 5, 1))),
     r"^source must be an integer, got 3\.0$"),
    ("float-bounded-target", degree_p2(2),
     MarkedFloorDiagram(5, (3, 5), 1, (_incoming(1, 3), _incoming(2, 3), Edge(4, 3, 5.0, 1))),
     r"^target must be an integer, got 5\.0$"),
    # a plain tuple, not a MarkedFloorDiagram: its fields are read by position
    ("float-n-plain-tuple", degree_p2(1), (2.0, (2,), 1, (Edge(1, None, 2, 1),)),
     r"^n must be an integer, got 2\.0$"),
]


@pytest.mark.parametrize("name,delta,diagram,message", NON_INTEGER_DIAGRAMS,
                         ids=[row[0] for row in NON_INTEGER_DIAGRAMS])
def test_validator_refuses_a_field_equal_to_an_int_that_is_not_one(name, delta, diagram,
                                                                    message):
    n, vertices, divergence, edges = diagram
    ints = MarkedFloorDiagram(int(n), tuple(map(int, vertices)), int(divergence),
                              tuple(Edge(*[None if f is None else int(f) for f in e])
                                    for e in edges))
    assert (ints == diagram) is (name not in ("str-vertex", "float-n"))
    validate_diagram(ints, delta)
    with pytest.raises(InvalidDiagram, match=message):
        validate_diagram(diagram, delta)


# A str where a record holds an int, with no int form to build: the str record, read
# by position, was a bare AttributeError, and the dict edge, read as the tuple of its
# keys, a bare KeyError
STR_FIELD_DIAGRAMS = [
    ("str-record", "abcd", r"^n must be an integer, got 'a'$"),
    ("dict-edge", MarkedFloorDiagram(2, (2,), 1, ({"a": 1},)),
     r"^position must be an integer, got 'a'$"),
]


@pytest.mark.parametrize("diagram,message", [row[1:] for row in STR_FIELD_DIAGRAMS],
                         ids=[row[0] for row in STR_FIELD_DIAGRAMS])
def test_validator_names_a_str_field_of_a_record_with_no_int_form(diagram, message):
    with pytest.raises(InvalidDiagram, match=message):
        validate_diagram(diagram, degree_p2(1))


def test_validator_accepts_valid_external_json():
    data = {
        "n": 2,
        "vertices": [2],
        "divergences": {"2": 1},
        "edges": [{"position": 1, "source": None, "target": 2, "weight": 1}],
    }
    diagram = MarkedFloorDiagram.from_json(data)
    validate_diagram(diagram, degree_p2(1))


def _diagram_json(**changes):
    """The JSON of P2 d=1's one diagram, with ``changes`` applied (None drops a key)."""
    data = {"n": 2, "vertices": [2], "divergences": {"2": 1},
            "edges": [{"position": 1, "source": None, "target": 2, "weight": 1}]}
    data.update(changes)
    return {key: value for key, value in data.items() if value is not None}


# One row per refusal of MarkedFloorDiagram.from_json; the divergence-keys and
# different-divergences rows once built a diagram whose JSON did not read back as it.
INVALID_JSON = [
    ("missing-vertices", _diagram_json(vertices=None), r"^diagram JSON has no key 'vertices'$"),
    ("missing-divergences", _diagram_json(divergences=None),
     r"^diagram JSON has no key 'divergences'$"),
    ("missing-source", _diagram_json(edges=[{"position": 1, "target": 2, "weight": 1}]),
     r"^diagram JSON has no key 'source'$"),
    ("non-integer-n", _diagram_json(n="two"), r"^n 'two' is not an integer$"),
    ("non-integer-weight",
     _diagram_json(edges=[{"position": 1, "source": None, "target": 2, "weight": 1.5}]),
     r"^weight 1\.5 is not an integer$"),
    ("non-integer-divergence", _diagram_json(divergences={"2": "x"}),
     r"^divergence 'x' is not an integer$"),
    ("empty-vertices", _diagram_json(vertices=[], divergences={}),
     r"^diagram JSON has no vertex$"),
    ("divergence-keys", _diagram_json(divergences={"3": 1}),
     r"^divergence keys do not match the vertex list$"),
    ("different-divergences",
     _diagram_json(n=3, vertices=[2, 3], divergences={"2": 1, "3": 0}),
     r"^divergence values \[0, 1\] differ$"),
    # a container of the wrong JSON type once raised AttributeError or TypeError
    ("divergences-array", _diagram_json(divergences=[1]), r"^divergences is not a JSON object$"),
    ("edge-integer", _diagram_json(edges=[5]), r"^an edge is not a JSON object$"),
    ("vertices-integer", _diagram_json(vertices=2), r"^vertices is not a JSON array$"),
    ("edges-object", _diagram_json(edges={"1": {"position": 1}}), r"^edges is not a JSON array$"),
    ("payload-array", [_diagram_json()], r"^the diagram is not a JSON object$"),
    ("payload-null", None, r"^the diagram is not a JSON object$"),
]


@pytest.mark.parametrize("data,message", [row[1:] for row in INVALID_JSON],
                         ids=[row[0] for row in INVALID_JSON])
def test_from_json_names_each_failure(data, message):
    with pytest.raises(InvalidDiagram, match=message):
        MarkedFloorDiagram.from_json(data)


# classes with a few to a few dozen diagrams
SMALL_CLASSES = [(degree_p2(3), 0), (degree_p2(3), 1), (degree_p2(4), 2), (degree_p2(4), 3),
                 (degree_hirzebruch(0, 2, 2), 1), (degree_hirzebruch(1, 2, 1), 1),
                 (degree_hirzebruch(2, 2, 1), 0), (degree_hirzebruch(2, 1, 0), 0)]


@st.composite
def small_diagrams(draw):
    """A small degree and a diagram on its number of points for some genus,
    or one more or less: a listed diagram, as it is or with one vertex
    position (possibly repeated) or one edge's endpoints and weight redrawn,
    or a random one."""
    delta, g = draw(st.sampled_from(SMALL_CLASSES))
    n = points_for_genus(delta, g) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    change = draw(st.sampled_from(["none", "vertex", "edge", "random"]))
    if change != "random":
        diagram = draw(st.sampled_from(enumerate_marked(delta, points_for_genus(delta, g))))
        n, vertices, edges = diagram.n, list(diagram.vertex_positions), list(diagram.edges)
        ends = st.sampled_from([None, *vertices])
        if change == "vertex":
            vertices[draw(st.integers(0, len(vertices) - 1))] = draw(st.integers(1, n))
        elif change == "edge":
            i = draw(st.integers(0, len(edges) - 1))
            edges[i] = Edge(edges[i].position, draw(ends), draw(ends), draw(st.integers(1, 3)))
    else:
        vertices = sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=4)))
        ends = st.sampled_from([None, *vertices])
        edges = [Edge(p, draw(ends), draw(ends), draw(st.integers(1, 3)))
                 for p in range(1, n + 1) if p not in vertices]
    return delta, MarkedFloorDiagram(n, tuple(vertices), delta.divergence, tuple(edges))


@settings(max_examples=300, deadline=None)
@given(small_diagrams())
def test_a_valid_diagram_has_its_genus_as_betti_number(pair):
    """validate_diagram checks neither the genus nor the first Betti number;
    its docstring proves both follow from what it checks.  A diagram it
    passes is also one the sweep lists."""
    delta, diagram = pair
    try:
        validate_diagram(diagram, delta)
    except InvalidDiagram:
        return
    betti = sum(None not in e for e in diagram.edges) - len(diagram.vertex_positions) + 1
    assert betti == diagram.n + 1 - delta.size >= 0
    assert diagram in enumerate_marked(delta, diagram.n)


def refusal(validate, delta, diagram):
    """The message ``validate`` refuses ``diagram`` with, or None if it passes."""
    try:
        validate(diagram, delta)
    except InvalidDiagram as error:
        return str(error)
    return None


def _plane_conic(last_edge):
    """P2 d=2 on 5 points: incoming edges at 1 and 2 into the floor at 3, a
    floor at 5 and ``last_edge`` at 4."""
    return degree_p2(2), MarkedFloorDiagram(5, (3, 5), 1, (_incoming(1, 3), _incoming(2, 3),
                                                           last_edge))


@settings(max_examples=300, deadline=None)
@given(small_diagrams())
# small_diagrams draws ends among the floors, and a moved floor fails the
# partition check: these fail two edge checks at once, where the order tells
@example(_plane_conic(Edge(4, 6, 7, 1)))
@example(_plane_conic(Edge(4, 6, 7, 0)))
@example(_plane_conic(Edge(4, None, 7, 2)))
@example(_plane_conic(Edge(4, 6, None, 2)))
@example(_plane_conic(Edge(4, 3, 7, 2)))
@example(_plane_conic(Edge(4, 5, 3, 1)))
def test_validator_refuses_what_the_frozen_copy_refuses(pair):
    """One branch per edge kind and the links gathered in the edge loop keep
    every check: the validator passes and fails the diagrams that its frozen
    copy does, with the same message."""
    delta, diagram = pair
    assert refusal(validate_diagram, delta, diagram) == refusal(
        frozen_validate_diagram, delta, diagram)


@pytest.mark.parametrize("delta,diagram", [row[1:3] for row in INVALID_DIAGRAMS],
                         ids=[row[0] for row in INVALID_DIAGRAMS])
def test_validator_refuses_each_row_as_the_frozen_copy(delta, diagram):
    # the rows reach the checks that small_diagrams seldom draws: a weight
    # below 1, an endpoint that is no vertex, a disconnected graph
    assert refusal(validate_diagram, delta, diagram) == refusal(
        frozen_validate_diagram, delta, diagram) is not None
