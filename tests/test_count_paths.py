"""The state-sweep count against the listing sweep and independent pins.

``weight_profiles`` counts the diagrams per multiset of bounded edge
weights over canonical sweep states, without listing any diagram, and
``refined_count``, ``classical_count`` and ``diagram_count`` are folds of
it.  Within the listing sweep's reach the profiles must equal, exactly, the
grouping of ``enumerate_marked`` by sorted bounded weights, and the counts
the sum of refined multiplicities over it, its value at q = 1 and the
number of diagrams listed; beyond it, the counts are pinned by Kontsevich's recursion, the
WDVV recursion of F0 and F1 (and of F2 through the Abramovich-Bertram
relation), the one- and two-node polynomials and the counts at and above
maximal genus, none of which shares code with the sweep, and by
polynomiality in the degree and refined universality across surfaces.
"""

import gc
import io
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb

import pytest

from floorgw import (
    LaurentPolyS,
    brute_force_enumerate,
    brute_force_refined_count,
    classical_count,
    degree_hirzebruch,
    degree_p2,
    diagram_count,
    enumerate_marked,
    lp_eval_at_one,
    oracle_cross_check,
    points_for_genus,
    refined_count,
    weight_profiles,
)
from floorgw import cli
from floorgw.algebra import _Memo
from floorgw.diagrams import refined_multiplicity
import floorgw.diagrams as diagrams
from helpers import (acceptance_grid, frozen_fold_refined, frozen_head_takes, frozen_state_sum,
                     frozen_weight_profiles, hirzebruch_family_grid, nonzero_exponents)


def assert_counts_match_listing(delta, n):
    """The profile count and its three folds against one listing: the
    grouping by sorted bounded weights, the refined multiplicity sum, the
    number of diagrams, and the refined count at q = 1."""
    diagrams = enumerate_marked(delta, n)
    assert weight_profiles(delta, n) == Counter(
        tuple(sorted(e.weight for e in d.edges if None not in e)) for d in diagrams
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


# F4 classes with 5 or 6 bounded edges (1, 29 and 1 diagrams), where a last floor's
# ways doubled at divergence 4 and 5 <= bounded <= 58 passed every other test
F4_FIVE_BOUNDED = (genus_range(degree_hirzebruch(4, 2, 1), [4])
                   + genus_range(degree_hirzebruch(4, 2, 2), [4, 5]))

BEYOND_GRID = (
    genus_range(degree_p2(4), range(5))
    # the window-capacity prune cuts most of the sweep in the next two
    + genus_range(degree_p2(5), [4, 5, 6])
    + genus_range(degree_p2(6), [8, 9, 10])
    + genus_range(degree_hirzebruch(1, 3, 1), range(4))
    + genus_range(degree_hirzebruch(2, 3, 0), range(4))
    + F4_FIVE_BOUNDED
)


@pytest.mark.parametrize(
    "delta,n", BEYOND_GRID, ids=[f"{delta.label}-n{n}" for delta, n in BEYOND_GRID]
)
def test_refined_count_equals_listing_sum_beyond_grid(delta, n):
    assert_counts_match_listing(delta, n)


def counted(monkeypatch, name):
    """Count the calls of ``diagrams.<name>``."""
    calls = []
    function = getattr(diagrams, name)

    def counting(*args):
        calls.append(None)
        return function(*args)

    monkeypatch.setattr(diagrams, name, counting)
    return calls


@pytest.mark.parametrize("d,g", [(5, 6), (10, 36)])
def test_sweep_stops_where_bounded_edges_cannot_be_placed(monkeypatch, d, g):
    """Both classes have 1 diagram.  Before the window-capacity prune the
    sweep visited 231,323 states for P2 d=5 g=6; with it, the listing walks
    5 residues, and 6,004 without the window test.  Without dropping the
    head subsets too light for a live floor, the first floor of P2 d=10
    g=36 alone tried every subset of its 10 heads (4,193 states); it walks
    10 residues."""
    calls = counted(monkeypatch, "_walk")
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


def test_count_drops_a_child_with_more_cycles_than_the_genus():
    """P2 d=3 at genus 0: the first floor sent two bounded edges of weight 1
    up.  The second floor may take one of them (two ways) or neither, which
    leaves it a negative budget; taking both closes a cycle."""
    limits = diagrams._limits(degree_p2(3), 8)
    state = (3, 2, 0, 2, 0, (((), (1, 1)),))
    assert diagrams._state_sum(state, limits, _Memo(diagrams._head_takes)) == [
        (2, 0, (3, 2, 0, 1, 0, (((), (1,)),)))]


def passes_the_three_prunes(child, limits):
    """Whether a child is canonical and passes the three tests that the
    frozen copy runs on every raw child: no closed component beside another
    component or an unplaced floor, the window-capacity test, no more cycles
    than the genus."""
    _, bd_used, _, floors, _, comps = child
    _, _, _, total_bounded, _, _, room = limits
    spare = sum(sum(budgets) for budgets, _ in comps)
    pending = sum(len(heads) for _, heads in comps)
    return (comps == tuple(sorted(comps))
            and not (((), ()) in comps and (len(comps) > 1 or floors))
            and spare >= total_bounded - bd_used - room[floors]
            and bd_used - pending + floors + len(comps) <= total_bounded + 1)


def assert_state_sums_match_frozen_copy(pairs):
    """On every state the forward pass reaches for each (delta, n), the
    branches of ``_state_sum`` are those of the frozen build-then-filter copy
    in ``helpers``, in the same order, and every child passes the three
    prunes.  Each class shares one take table, as each pass of
    :func:`weight_profiles` does.  Returns the number of states compared."""
    states = 0
    for delta, n in pairs:
        if n + 1 - delta.size < 0:
            continue
        limits, takes = diagrams._limits(delta, n), _Memo(diagrams._head_takes)
        layer = {(0, 0, 0, delta.height, 0, ())}
        for _ in range(n):
            following = set()
            for state in layer:
                branches = diagrams._state_sum(state, limits, takes)
                assert branches == frozen_state_sum(state, limits), (delta, n, state)
                for _, _, child in branches:
                    assert passes_the_three_prunes(child, limits), (delta, n, state, child)
                    following.add(child)
            states += len(layer)
            layer = following
    return states


def plane_every_genus(d_max):
    """P2 of degree 1..d_max at every genus up to one above the maximal."""
    return [pair for d in range(1, d_max + 1)
            for pair in genus_range(degree_p2(d), range((d - 1) * (d - 2) // 2 + 2))]


def test_state_sum_builds_the_branches_of_the_frozen_copy():
    """Under a second.  CI runs :func:`larger_frozen_copy_pairs` (about 8 s)
    and the F4 classes with 1 <= h <= 3, d <= 3 at genus <= 5."""
    pairs = acceptance_grid() + plane_every_genus(6) + F4_FIVE_BOUNDED
    assert assert_state_sums_match_frozen_copy(pairs) == 4281


def larger_frozen_copy_pairs():
    """The distinct classes of P2 d <= 7 at every genus and F_k with k, h, d
    <= 3 at genus <= 5: a height-0 F_k degree is the same for every k, and
    F1 (h, 0) is P2 degree h, so 348 of the 409 pairs, with 56,296 states."""
    return list(dict.fromkeys(plane_every_genus(7) + [
        pair for delta in hirzebruch_family_grid(3, 3, 3) for pair in genus_range(delta, range(6))]))


def f4_frozen_copy_pairs():
    """F4 with 1 <= h <= 3, d <= 3 at genus <= 5, beyond the k <= 3 of
    :func:`larger_frozen_copy_pairs`: 72 pairs, with 63,760 states."""
    return [pair for h in range(1, 4) for d in range(4)
            for pair in genus_range(degree_hirzebruch(4, h, d), range(6))]


def test_head_takes_fold_equals_the_frozen_product():
    """Every sorted head tuple of at most 7 heads of weights 1..4, at a
    last floor and before it: the same takes in the same order."""
    for size in range(8):
        for heads in combinations_with_replacement(range(1, 5), size):
            for last in (False, True):
                assert diagrams._head_takes((heads, last)) == frozen_head_takes((heads, last))


def assert_profiles_match_frozen_pass(pairs):
    """On each (delta, n), ``weight_profiles`` equals the frozen pass of
    ``helpers``: the same profiles with the same counts, in the same order.
    Returns the states the frozen pass expands and those ``weight_profiles``
    expands, which leaves unexpanded a state whose budgets the ends it has
    left cannot spend."""
    frozen_states = 0
    with pytest.MonkeyPatch.context() as patch:
        calls = counted(patch, "_state_sum")
        for delta, n in pairs:
            frozen, expanded = frozen_weight_profiles(delta, n)
            assert list(weight_profiles(delta, n).items()) == list(frozen.items()), (delta, n)
            frozen_states += expanded
    return frozen_states, len(calls)


def test_weight_profiles_equal_the_frozen_pass_in_order():
    """CI runs :func:`larger_frozen_copy_pairs` and :func:`f4_frozen_copy_pairs`."""
    pairs = acceptance_grid() + plane_every_genus(6) + F4_FIVE_BOUNDED
    assert assert_profiles_match_frozen_pass(pairs) == (4281, 4275)


SEVERI_CLASSES = ([(degree_p2(5), g) for g in (0, 4, 5, 6, 7)]
                  + [(degree_hirzebruch(2, 3, 1), 0), (degree_hirzebruch(3, 3, 0), 0)])


def test_count_leaves_spent_states_unexpanded(monkeypatch):
    """The seven classes of floorbench's ``severi_counts`` expand 538 states
    in all, 580 with every state expanded: the dead-state test skips 11 on
    F2 (3,1) and 31 on F3 (3,0), whose other 16 dead states need a look
    further ahead.  It changes no count, so only this pins it."""
    calls = counted(monkeypatch, "_state_sum")
    expanded = []
    for delta, g in SEVERI_CLASSES:
        weight_profiles(delta, points_for_genus(delta, g))
        expanded.append(len(calls) - sum(expanded))
    assert expanded == [105, 76, 44, 20, 1, 157, 135]


def test_packed_fold_equals_the_frozen_polynomial_fold():
    """On the acceptance grid and on P2 d <= 7 at every genus."""
    for delta, n in acceptance_grid() + plane_every_genus(7):
        profiles = weight_profiles(delta, n)
        assert diagrams.fold_refined(profiles) == frozen_fold_refined(profiles), (delta.label, n)


def test_packed_fold_of_a_count_past_64_bits():
    """F0 (14, 4) at genus 0: its largest coefficient has 71 bits, so the
    packed fold's slots are wider than a machine word."""
    delta = degree_hirzebruch(0, 14, 4)
    profiles = weight_profiles(delta, points_for_genus(delta, 0))
    refined = diagrams.fold_refined(profiles)
    assert refined == frozen_fold_refined(profiles)
    assert max(refined.coefficients).bit_length() == 71


SWEEP_CLASSES = [(degree_p2(4), 0), (degree_p2(4), 2), (degree_hirzebruch(1, 3, 1), 0),
                 (degree_hirzebruch(2, 3, 0), 1)]


@pytest.mark.parametrize("delta,g", SWEEP_CLASSES,
                         ids=[f"{delta.label}-g{g}" for delta, g in SWEEP_CLASSES])
def test_sweep_builds_only_children_that_pass_the_window_test(monkeypatch, delta, g):
    """Every residue walked, the root and each child a floor starts, passes
    the window test."""
    n = points_for_genus(delta, g)
    walk, residues = diagrams._walk, []

    def checked(limits, made, ends, *residue):
        _, vertices, budgets, _, _, _, bd_used, _ = residue
        _, h, _, total_bounded, _, _, room = limits
        assert sum(budgets) >= total_bounded - bd_used - room[h - len(vertices)]
        residues.append(residue)
        return walk(limits, made, ends, *residue)

    monkeypatch.setattr(diagrams, "_walk", checked)
    assert enumerate_marked(delta, n) and len(residues) > 1


def test_count_and_listing_run_from_deep_callers():
    """Neither the count nor the listing takes a stack frame per point: P2
    d=40 at its maximal genus (n = 860) counts and lists from 500 frames
    down."""
    delta = degree_p2(40)

    def nested(depth):
        if depth:
            return nested(depth - 1)
        return classical_count(delta, 860), len(enumerate_marked(delta, 860))

    assert nested(500) == (1, 1)


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


def test_genus_zero_plane_counts_at_q_minus_one_are_welschinger_invariants():
    """At s = i, [w]_q^2 is 1 for odd w and 0 for even w, so a genus-0 plane
    count there is the number of diagrams with only odd bounded weights: the
    Welschinger invariant W_d (Itenberg-Kharlamov-Shustin, math/0303378;
    Arroyo-Brugalle-Lopez de Medrano, 0809.1541).  This pins counts past the
    oracle's reach at a point other than q = 1."""
    expected = [1, 1, 8, 240, 18264, 2845440, 792731520]
    at_i, all_odd = [], []
    for d in range(1, 8):
        delta, n = degree_p2(d), 3 * d - 1
        refined = refined_count(delta, n)
        assert all(k % 2 == 0 for k in nonzero_exponents(refined))
        # s^k at s = i for even k, by k % 4: (-1) ** (k // 2) is a float for k < 0
        at_i.append(sum(refined.coefficient(k) * (1 if k % 4 == 0 else -1)
                        for k in nonzero_exponents(refined)))
        all_odd.append(sum(c for weights, c in weight_profiles(delta, n).items()
                           if all(w % 2 for w in weights)))
    assert at_i == all_odd == expected


def _binomial(m, j):
    return comb(m, j) if 0 <= j <= m else 0


def wdvv(k):
    """The genus-0 count N(h, d) of the class h*D_k + d*F on F0 or F1 (k = 0
    or 1), from the WDVV equation with insertions (D_k, F | pt, pt) of
    quantum cohomology (Kontsevich-Manin, hep-th/9402147;
    Goettsche-Pandharipande, alg-geom/9611012).  It shares no code with
    floor diagrams.

    D_k^2 = k, D_k.F = 1 and F^2 = 0; the effective classes are h >= 0,
    d >= -k*h, and a class passes through n = 2d + k*h + 2h - 1 points.  The
    seeds, all with n < 3, are the fiber F, D_0 on F0, and E = D_1 - F and
    D_1 on F1, each counting 1; every other class with n < 3 counts 0.  The
    (D, F | D, F) equation divides by beta^2, so it fails on the fibers."""
    def points(h, d):
        return 2 * d + k * h + 2 * h - 1

    @cache
    def count(h, d):
        n = points(h, d)
        if n < 3:
            return int((h, d) in ((0, 1), (1, 0), (1, -k)))
        total = 0
        for h1 in range(h + 1):
            for d1 in range(-k * h1, d + k * (h - h1) + 1):
                h2, d2 = h - h1, d - d1
                n1, n2 = points(h1, d1), points(h2, d2)
                if 0 in (h1 + d1, h2 + d2) or n1 < 0 or n2 < 0:
                    continue
                total += (count(h1, d1) * count(h2, d2) * (k * h1 * h2 + h1 * d2 + d1 * h2)
                          * (k * h1 + d1)
                          * (h1 * _binomial(n - 3, n1) - h2 * _binomial(n - 3, n1 - 1)))
        return -total

    return count


def f2_from_ab(f0):
    """The genus-0 count of F2 (h, d), from the F0 counts ``f0`` by the
    Abramovich-Bertram relation F0 (h, h + d) = sum_j C(d + 2j, j) F2 (h - j,
    d + 2j), triangular in h; of the height-0 classes d*F, only the fiber
    counts 1."""
    @cache
    def count(h, d):
        if h == 0:
            return int(d == 1)
        return f0(h, h + d) - sum(comb(d + 2 * j, j) * count(h - j, d + 2 * j)
                                  for j in range(1, h + 1))

    return count


def assert_genus_zero_counts_follow_wdvv(ks, top):
    """``classical_count`` at genus 0 on F_k (h, d) for h = 1..top and
    d = 0..top: WDVV for k = 0 and 1, and F0's WDVV counts through the AB
    relation for k = 2."""
    for k in ks:
        expected = f2_from_ab(wdvv(0)) if k == 2 else wdvv(k)
        for h in range(1, top + 1):
            for d in range(top + 1):
                delta = degree_hirzebruch(k, h, d)
                assert classical_count(delta, points_for_genus(delta, 0)) == expected(h, d), \
                    (k, h, d)


def test_genus_zero_hirzebruch_counts_follow_wdvv():
    """60 classes, F1 (4,4) at n = 19 and F2 (4,4) at n = 23 past the oracle's
    n <= 16; F1's classes (d, 0) = d*H are the plane's, so WDVV on F1 gives
    Kontsevich's numbers.  CI runs F0 and F1 up to (6,6)."""
    f0, f1 = wdvv(0), wdvv(1)
    assert [f1(d, 0) for d in range(1, 8)] == kontsevich(7)
    assert [f0(2, 2), f0(2, 3), f0(3, 3), f0(4, 4)] == [12, 96, 3510, 6508640]
    assert_genus_zero_counts_follow_wdvv([0, 1, 2], 4)


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_one_and_two_node_counts_follow_node_polynomials(d):
    delta = degree_p2(d)
    top = (d - 1) * (d - 2) // 2
    one_node = classical_count(delta, points_for_genus(delta, top - 1))
    two_nodes = classical_count(delta, points_for_genus(delta, top - 2))
    assert one_node == 3 * (d - 1) ** 2
    assert 2 * two_nodes == 3 * (d - 1) * (d - 2) * (3 * d * d - 3 * d - 11)


def test_three_node_counts_follow_kleiman_piene():
    """N_3(d) of Kleiman-Piene for d = 5..12.  The 3-nodal class of d = 5
    (n = 17) is the first past the oracle's cap, and from d = 9 on a floor
    takes a group of 9 or more equal heads, more than in any class on which
    the count is compared with a listing (at most 6)."""
    for d in range(5, 13):
        n3 = (9 * d**6 - 54 * d**5 + 9 * d**4 + 423 * d**3 - 458 * d**2 - 829 * d + 1050) // 2
        assert classical_count(degree_p2(d), d * (d + 3) // 2 - 3) == n3, d


F_CLASSES = [(k, h, delta) for k in range(4) for h in (2, 3) for delta in (1, 2)]


@pytest.mark.parametrize("k,h,delta", F_CLASSES, ids=[f"F{k}-h{h}-delta{delta}"
                                                      for k, h, delta in F_CLASSES])
def test_refined_counts_of_f_k_are_polynomial_in_d(k, h, delta):
    """With delta nodes, each s-coefficient of the refined count of
    h*D_k + d*F is a polynomial of degree delta in d (Ardila-Block;
    Block-Goettsche), so its (delta + 1)-th difference in d vanishes.  Every
    case here is polynomial from d = delta + 1 on; d = delta + 2 ..
    2 * delta + 7 gives five differences per case.  h = 1 has no nodal
    class (arithmetic genus 0), and k, h <= 3 keep the cases near a second
    in all."""
    counts = []
    for d in range(delta + 2, 2 * delta + 8):
        surface = degree_hirzebruch(k, h, d)
        arithmetic_genus = (h - 1) * (k * h + 2 * d - 2) // 2
        counts.append(refined_count(surface, points_for_genus(surface, arithmetic_genus - delta)))
    for exponent in set().union(*(nonzero_exponents(c) for c in counts)):
        values = [c.coefficient(exponent) for c in counts]
        for _ in range(delta + 1):
            values = [b - a for a, b in zip(values, values[1:])]
        assert values == [0] * 5, exponent


def assert_plane_counts_polynomial_in_d(delta):
    """With delta nodes, each s-coefficient of the refined count of plane
    curves of degree d is a polynomial of degree exactly 2 * delta in d, from
    d = delta on (Fomin-Mikhalkin, Block; refined: Block-Goettsche).  Over
    d = delta + 2 .. 3 * delta + 3 its 2 * delta-th difference is therefore
    two equal values, not 0: the next difference vanishes, this one does
    not.  At delta = 5 this takes about 7 s, so tier-1 stops at 4 and CI
    runs 5."""
    counts = [refined_count(degree_p2(d), d * (d + 3) // 2 - delta)
              for d in range(delta + 2, 3 * delta + 4)]
    for exponent in set().union(*(nonzero_exponents(c) for c in counts)):
        values = [c.coefficient(exponent) for c in counts]
        for _ in range(2 * delta):
            values = [b - a for a, b in zip(values, values[1:])]
        assert values[1] - values[0] == 0 != values[0], (delta, exponent, values)


@pytest.mark.parametrize("delta", range(5), ids=[f"delta{delta}" for delta in range(5)])
def test_refined_plane_counts_are_polynomial_in_d(delta):
    assert_plane_counts_polynomial_in_d(delta)


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_plane_count_is_one_at_maximal_genus_and_zero_above(d):
    delta = degree_p2(d)
    top = (d - 1) * (d - 2) // 2
    assert classical_count(delta, points_for_genus(delta, top)) == 1
    assert refined_count(delta, points_for_genus(delta, top + 1)).is_zero()


# one well-formed request per subcommand, each exiting 0
_CLI_REQUESTS = [
    "enumerate --surface p2 --degree 4 --genus 0 --format json",
    "count --surface p2 --degree 4 --genus 0 --refined",
    "gw --surface p2 --degree 4 --genus 0",
    "log-gw --surface fk --k 1 --h 2 --d 1 --genus 1 --format csv",
    "vertex --mu 2,1 --nu 1",
    "verify degeneration --surface p2 --degree 4 --genus 0",
    "verify ab --a 2 --b 0 --points 7",
    "verify oracle --surface fk --k 1 --h 3 --d 2 --genus 0",
]


def test_refined_count_leaves_no_cyclic_garbage():
    """The layers of the count, the generators of the listing, the oracle's
    search and every CLI command are freed on return by reference counting
    alone, which is what lets ``cli.main`` run with the collector paused."""
    p2, f1 = degree_p2(4), degree_hirzebruch(1, 3, 2)
    calls = [
        ("weight_profiles", lambda: weight_profiles(p2, 11)),
        ("refined_count", lambda: refined_count(p2, 11)),
        ("enumerate_marked", lambda: enumerate_marked(p2, 11)),
        ("brute_force_enumerate", lambda: brute_force_enumerate(f1, 13)),
        ("brute_force_refined_count", lambda: brute_force_refined_count(f1, 13)),
        ("oracle_cross_check", lambda: oracle_cross_check(f1, 13)),
    ]
    gc.collect()
    gc.disable()
    try:
        for name, call in calls:
            call()
            assert gc.collect() == 0, name
        for argv in _CLI_REQUESTS:
            with redirect_stdout(io.StringIO()):
                assert cli.main(argv.split()) == 0, argv
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def _combine(*terms):
    """The sum of c * p over (c, p) in ``terms``, each p a Laurent polynomial
    in s as {exponent: Fraction}, without zero coefficients."""
    out = {}
    for c, p in terms:
        for e, x in p.items():
            out[e] = out.get(e, 0) + c * x
    return {e: x for e, x in out.items() if x}


def _times(p, q):
    return _combine(*((x * y, {a + b: 1}) for a, x in p.items() for b, y in q.items()))


def log_node_series(delta, arithmetic_genus, top=4):
    """log sum_{j <= top} N_j t^j, with N_j the refined count at j nodes (genus
    ``arithmetic_genus`` - j): its coefficients of t^1 .. t^top, by
    n G_n = n N_n - sum_{k < n} k G_k N_(n-k) from N = exp(G)."""
    counts = [refined_count(delta, points_for_genus(delta, arithmetic_genus - j))
              for j in range(top + 1)]
    assert counts[0] == LaurentPolyS.one(), delta
    nodes = [{e: Fraction(c.coefficient(e)) for e in nonzero_exponents(c)} for c in counts]
    g = [{}]
    for m in range(1, top + 1):
        g.append(_combine((1, nodes[m]), *((Fraction(-k, m), _times(g[k], nodes[m - k]))
                                           for k in range(1, m))))
    return g[1:]


def plane_class(d):
    """Degree, (L^2, L.K) and arithmetic genus of plane curves of degree d."""
    return degree_p2(d), (d * d, -3 * d), (d - 1) * (d - 2) // 2


def hirzebruch_class(k, h, d):
    """The same for h*D_k + d*F on F_k, whose lattice polygon has bottom
    d + k*h, top d and height h: L^2 is twice its area, -L.K its lattice
    perimeter."""
    return (degree_hirzebruch(k, h, d), (k * h * h + 2 * h * d, -k * h - 2 * h - 2 * d),
            (h - 1) * (k * h + 2 * d - 2) // 2)


def _det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def universal_series():
    """The universal part of log sum N_delta t^delta for delta = 1..4.

    Refined universality (Goettsche-Shende, arXiv:1208.1973; refined Severi
    degrees of Block-Goettsche, arXiv:1407.2901): each coefficient is
    L^2 A1 + L.K A2 + K^2 A3 + c2 A4, with A1..A4 Laurent polynomials in s
    that depend on neither the surface nor the class.  (K^2, c2) is (9, 3)
    on P2 and (8, 4) on every F_k, so P2 d = 6, 7, 8 give A1, A2 and
    9 A3 + 3 A4 by Cramer's rule, and F1 (5,5) then gives 8 A3 + 4 A4.
    Every class used has d >= delta + 2 on P2 (no reducible nodal curve) and
    h, d >= delta + 1 on F_k.
    Returns, per delta, (A1, A2, 8 A3 + 4 A4) as s-exponent dicts."""
    planes = [plane_class(d) for d in (6, 7, 8)]
    logs = [log_node_series(delta, genus) for delta, _, genus in planes]
    rows = [[Fraction(l2), Fraction(lk), Fraction(1)] for _, (l2, lk), _ in planes]
    det = _det(rows)
    delta, (l2, lk), genus = hirzebruch_class(1, 5, 5)
    f1 = log_node_series(delta, genus)
    fits = []
    for j in range(4):
        exponents = set().union(*(log[j] for log in logs))
        a = [{e: _det([row[:i] + [log[j].get(e, 0)] + row[i + 1:]
                       for row, log in zip(rows, logs)]) / det for e in exponents}
             for i in range(3)]
        fits.append((a[0], a[1], _combine((1, f1[j]), (-l2, a[0]), (-lk, a[1]))))
    return fits


def assert_universal_across_surfaces(classes):
    """Each (k, h, d) in ``classes`` has log sum N_delta t^delta = L^2 A1 +
    L.K A2 + 8 A3 + 4 A4 at every delta <= 4, as ``universal_series`` fits
    them.  The range is h, d >= delta + 1 = 5: below it a curve can contain a
    fiber and the prediction fails (F1 (2,6) and F0 (2,8) hold at delta = 1
    only, F2 (3,6) at delta <= 2).  F3 (5,5) and F2 (6,6) take 2 s, so CI
    runs them."""
    fits = universal_series()
    for k, h, d in classes:
        delta, (l2, lk), genus = hirzebruch_class(k, h, d)
        for j, (log, (a1, a2, rest)) in enumerate(zip(log_node_series(delta, genus), fits)):
            assert log == _combine((l2, a1), (lk, a2), (1, rest)), (k, h, d, j + 1)


def test_refined_counts_are_universal_across_surfaces():
    assert_universal_across_surfaces([(0, 5, 5), (1, 6, 5), (2, 5, 6), (0, 6, 7)])
