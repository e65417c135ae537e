"""Classical and refined Severi degrees of the plane from floor diagrams.

Enumerates all marked floor diagrams for plane curves of degree d through
3d - 1 points (genus 0), prints each diagram's multiplicity, and totals the
classical and refined counts.  The classical values 1, 1, 12, 620 are the
rational Severi degrees; the refined total is a palindromic Laurent
polynomial in s = q^(1/2) specializing to them at s = 1.
"""

from floorgw import (
    classical_count,
    degree_p2,
    enumerate_marked,
    multiplicity,
    points_for_genus,
    refined_count,
)
from floorgw.diagrams import refined_multiplicity


def main():
    for d in (1, 2, 3, 4):
        delta = degree_p2(d)
        n = points_for_genus(delta, 0)
        diagrams = enumerate_marked(delta, n)
        print(f"degree {d}: {len(diagrams)} marked diagrams through {n} points")
        if d <= 3:
            for i, diagram in enumerate(diagrams):
                weights = sorted(e.weight for e in diagram.edges)
                print(
                    f"  #{i}: edge weights {weights}, "
                    f"multiplicity {multiplicity(diagram)}, "
                    f"refined {refined_multiplicity(diagram)}"
                )
        print(f"  classical count: {classical_count(delta, n)}")
        print(f"  refined count  : {refined_count(delta, n)}")
        print()


if __name__ == "__main__":
    main()
