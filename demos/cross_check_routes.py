"""Two routes to one series, and the exponent audit.

Route one substitutes q = e^(iu) into the refined count and multiplies by
(2 sin(u/2))^(2*g0 - 2 + d_b + d_t + 2h).  Route two never sees the refined
polynomial: it sums, over weight profiles (the multisets of bounded edge
weights, each with its number of marked diagrams), the product of squared
edge weights with one sine-product contribution per floor.  The two routes
agree term by term; a per-edge cancellation (w^2 * ((1/w)[w]_q)^2 =
[w]_q^2) is what makes the diagram sum reproduce the refined count.  Both
read the same profile counts, so the agreement checks the series side of
the degeneration theorem; the profiles themselves are checked against
listed diagrams by the test suite and by ``floorgw verify oracle``.

The plane degree-1 case pins the exponent bookkeeping: the relative series
starts at u^(-1) while the diagram sum starts at u^(+1); the gap is exactly
the conversion factor (2 sin(u/2))^(2h) with h = 1, which is also the
relative-to-log conversion.
"""

from floorgw import (
    degeneration_cross_check,
    degeneration_series,
    degree_hirzebruch,
    degree_p2,
    gw_relative_series,
    points_for_genus,
)


def main():
    delta = degree_p2(1)
    rel = gw_relative_series(delta, 2, 12)
    deg = degeneration_series(delta, 2, 12)
    print("plane degree 1, n = 2:")
    print(f"  relative series (valuation {rel.series.valuation}): {rel.series}")
    print(f"  diagram sum     (valuation {deg.series.valuation}): {deg.series}")
    print(f"  valuation gap = 2h = {deg.series.valuation - rel.series.valuation}")
    print()

    for delta, g in [
        (degree_p2(2), 0),
        (degree_p2(3), 0),
        (degree_p2(3), 1),
        (degree_hirzebruch(1, 2, 1), 1),
        (degree_hirzebruch(2, 2, 2), 2),
    ]:
        n = points_for_genus(delta, g)
        report = degeneration_cross_check(delta, n, 16)
        print(f"{delta.label}, n = {n}: routes agree -> {report.equal}")
        print(f"  {report.diagram_sum}")


if __name__ == "__main__":
    main()
