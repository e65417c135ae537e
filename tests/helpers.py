"""Shared grids and small utilities for the test suite."""

from floorgw import degree_hirzebruch, degree_p2, points_for_genus


def hirzebruch_family_grid(k_max=2, h_max=2, d_max=2):
    out = []
    for k in range(k_max + 1):
        for h in range(h_max + 1):
            for d in range(d_max + 1):
                if h + d >= 1:
                    out.append(degree_hirzebruch(k, h, d))
    return out


def acceptance_grid():
    """Every (delta, n) pair of the oracle-equivalence criterion:
    P2 degrees up to 3 and Hirzebruch k,h <= 2, d <= 2, for genus 0..2."""
    deltas = [degree_p2(d) for d in (1, 2, 3)] + hirzebruch_family_grid()
    return [
        (delta, points_for_genus(delta, g)) for delta in deltas for g in (0, 1, 2)
    ]


def diagram_key(diagram):
    """Canonical comparison key for a marked diagram (None endpoints -> 0)."""
    return (
        diagram.n,
        diagram.vertex_positions,
        diagram.divergence,
        tuple(
            sorted(
                (e.position, e.source or 0, e.target or 0, e.weight)
                for e in diagram.edges
            )
        ),
    )
