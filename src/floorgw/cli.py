"""Command-line front end.

Subcommands: ``enumerate``, ``count``, ``gw``, ``log-gw``, ``vertex`` and
``verify`` (with targets ``degeneration``, ``ab`` and ``oracle``).  Surfaces
are selected with ``--surface p2 --degree D`` or
``--surface fk --k K --h H --d D``; the point count comes from exactly one
of ``--points N`` or ``--genus G``.  ``--order`` is the u-truncation of the
reported series and must exceed the series' lowest exponent; a smaller order
is a domain error naming the minimum.  Output formats: ``text`` (default),
``json``, ``csv``.  Exit codes: 0 success (and, for ``verify``, identity
holds), 1 domain error, 2 usage error.  Rationals are serialized as strings
("num/den") so no JSON consumer can lose precision; identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .algebra import AlgebraError, Partition, lp_eval_at_one, rational_to_str
from .diagrams import (
    DiagramError,
    degree_hirzebruch,
    degree_p2,
    diagram_count,
    enumerate_marked,
    points_for_genus,
    refined_count,
)
from .gw import (
    GwError,
    ab_identity_check,
    degeneration_cross_check,
    gw_relative_series,
    log_series,
    vertex_series,
)
from .oracle import OracleLimitError, brute_force_enumerate, check_cap, refined_sum

LISTING_CAP = 100_000


def _add_surface_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--surface", choices=("p2", "fk"), required=True)
    parser.add_argument("--degree", type=int, help="degree for --surface p2")
    parser.add_argument("--k", type=int, help="Hirzebruch index for --surface fk")
    parser.add_argument("--h", type=int, help="height for --surface fk")
    parser.add_argument("--d", type=int, help="fiber coefficient for --surface fk")


def _add_points_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--points", type=int, help="number of point constraints n")
    group.add_argument("--genus", type=int, help="genus g (sets n = g - 1 + |delta|)")


def _parse_surface(args: argparse.Namespace, parser: argparse.ArgumentParser):
    if args.surface == "p2":
        if args.degree is None:
            parser.error("--surface p2 requires --degree")
        return degree_p2(args.degree)
    if args.k is None or args.h is None or args.d is None:
        parser.error("--surface fk requires --k, --h and --d")
    return degree_hirzebruch(args.k, args.h, args.d)


def _parse_points(delta, args: argparse.Namespace) -> int:
    if args.points is not None:
        return args.points
    return points_for_genus(delta, args.genus)


def _parse_partition(text: str, flag: str, parser: argparse.ArgumentParser) -> Partition:
    text = text.strip()
    if not text:
        return Partition()
    try:
        return Partition(int(p) for p in text.split(","))
    except ValueError:
        parser.error(f"{flag} must be a comma-separated list of positive integers, got {text!r}")


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _series_rows(gw) -> list[tuple[int, str]]:
    return [(g, rational_to_str(v)) for g, v in gw.invariants()]


def _print_gw(gw, fmt: str, header: str) -> None:
    if fmt == "json":
        _emit(json.dumps(gw.to_json()))
    elif fmt == "csv":
        _emit("g,value")
        for g, v in _series_rows(gw):
            _emit(f"{g},{v}")
    else:
        _emit(header)
        _emit(f"  series: {gw.series}")
        for g, v in _series_rows(gw):
            _emit(f"  g={g} -> {v}")


def _check_listing_cap(delta, n: int) -> None:
    """Refuse to list (delta, n) when it has more than LISTING_CAP diagrams,
    counted without listing them."""
    count = diagram_count(delta, n)
    if count > LISTING_CAP:
        raise DiagramError(f"{delta.label}, n = {n} has {count} diagrams, "
                           f"over the listing cap LISTING_CAP = {LISTING_CAP}")


def _cmd_enumerate(args, parser) -> int:
    delta = _parse_surface(args, parser)
    n = _parse_points(delta, args)
    _check_listing_cap(delta, n)
    diagrams = enumerate_marked(delta, n)
    if args.format == "json":
        # one diagram's dict at a time, byte-identical to dumping the whole payload
        body = ", ".join(json.dumps(d.to_json()) for d in diagrams)
        _emit(f'{{"count": {len(diagrams)}, "diagrams": [{body}]}}')
    elif args.format == "csv":
        _emit("index,n,vertices,edges")
        for i, d in enumerate(diagrams):
            vs = ";".join(str(p) for p in d.vertex_positions)
            es = ";".join(
                f"{e.position}:{e.source}->{e.target}*{e.weight}" for e in d.edges
            )
            _emit(f"{i},{d.n},{vs},{es}")
    else:
        _emit(f"{len(diagrams)} marked diagram(s) for {delta.label}, n = {n}")
        for i, d in enumerate(diagrams):
            _emit(f"  #{i}: vertices {list(d.vertex_positions)}")
            for e in d.edges:
                _emit(f"      edge@{e.position}: {e.source} -> {e.target}, weight {e.weight}")
    return 0


def _cmd_count(args, parser) -> int:
    delta = _parse_surface(args, parser)
    n = _parse_points(delta, args)
    refined = refined_count(delta, n)
    classical = lp_eval_at_one(refined)
    if args.format == "json":
        payload: dict = {"classical": classical}
        if args.refined:
            payload["refined"] = refined.to_json()
        _emit(json.dumps(payload))
    elif args.format == "csv":
        if args.refined:
            _emit("classical,refined")
            _emit(f"{classical},{refined}")
        else:
            _emit("classical")
            _emit(str(classical))
    else:
        _emit(f"classical count for {delta.label}, n = {n}: {classical}")
        if args.refined:
            _emit(f"refined count: {refined}")
    return 0


def _cmd_gw(args, parser) -> int:
    delta = _parse_surface(args, parser)
    n = _parse_points(delta, args)
    make = log_series if args.command == "log-gw" else gw_relative_series
    series = make(delta, n, args.order)
    _print_gw(series, args.format, f"{series.kind} series for {delta.label}, n = {n}")
    return 0


def _cmd_vertex(args, parser) -> int:
    mu = _parse_partition(args.mu, "--mu", parser)
    nu = _parse_partition(args.nu, "--nu", parser)
    series = vertex_series(mu, nu, args.order)
    _print_gw(series, args.format, f"vertex series for mu={tuple(mu)}, nu={tuple(nu)}")
    return 0


def _cmd_verify_degeneration(args, parser) -> int:
    delta = _parse_surface(args, parser)
    n = _parse_points(delta, args)
    report = degeneration_cross_check(delta, n, args.order)
    if args.format == "json":
        _emit(json.dumps(report.to_json()))
    else:
        _emit(f"degeneration cross-check for {delta.label}, n = {n}, order {args.order}")
        _emit(f"  diagram sum : {report.diagram_sum}")
        _emit(f"  from refined: {report.from_refined}")
        _emit(f"  equal: {report.equal}")
    return 0 if report.equal else 1


def _cmd_verify_ab(args, parser) -> int:
    report = ab_identity_check(args.a, args.b, args.points, args.order)
    if args.format == "json":
        _emit(json.dumps(report.to_json()))
    else:
        _emit(f"Abramovich-Bertram check for a={args.a}, b={args.b}, n={args.points}")
        _emit(f"  polynomial: {report.lhs_polynomial} vs {report.rhs_polynomial}"
              f" -> {report.polynomial_equal}")
        _emit(f"  series    : equal -> {report.series_equal}")
    return 0 if report.equal else 1


def _cmd_verify_oracle(args, parser) -> int:
    delta = _parse_surface(args, parser)
    n = _parse_points(delta, args)
    # the oracle's cap on n first: it needs no count
    check_cap(n)
    _check_listing_cap(delta, n)
    brute_diagrams = brute_force_enumerate(delta, n)
    sweep_diagrams = enumerate_marked(delta, n)
    diagrams_equal = Counter(sweep_diagrams) == Counter(brute_diagrams)
    sweep = refined_count(delta, n)
    brute = refined_sum(brute_diagrams)
    equal = diagrams_equal and sweep == brute
    if args.format == "json":
        _emit(json.dumps({
            "target": "oracle",
            "delta": delta.to_json(),
            "n": n,
            "sweep_diagrams": len(sweep_diagrams),
            "brute_force_diagrams": len(brute_diagrams),
            "diagrams_equal": diagrams_equal,
            "sweep": sweep.to_json(),
            "brute_force": brute.to_json(),
            "equal": equal,
        }))
    else:
        _emit(f"oracle check for {delta.label}, n = {n}")
        _emit(f"  diagrams   : sweep {len(sweep_diagrams)}, "
              f"brute force {len(brute_diagrams)}, equal {diagrams_equal}")
        _emit(f"  sweep      : {sweep}")
        _emit(f"  brute force: {brute}")
        _emit(f"  equal: {equal}")
    return 0 if equal else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floorgw",
        description="Floor diagrams, refined counts and Gromov-Witten series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, surface=True, points=True, order=True):
        p.set_defaults(run=run)
        if surface:
            _add_surface_args(p)
        if points:
            _add_points_args(p)
        if order:
            # vertex and verify ab have always listed --order without help text
            p.add_argument("--order", type=int, default=16,
                           help="u-truncation order" if surface else None)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p = sub.add_parser("enumerate", help="list all marked floor diagrams")
    common(p, _cmd_enumerate, order=False)

    p = sub.add_parser("count", help="classical (and refined) diagram counts")
    common(p, _cmd_count, order=False)
    p.add_argument("--refined", action="store_true", help="include the refined count")

    p = sub.add_parser("gw", help="relative invariant series")
    common(p, _cmd_gw)

    p = sub.add_parser("log-gw", help="log invariant series")
    common(p, _cmd_gw)

    p = sub.add_parser("vertex", help="vertex contribution series")
    p.add_argument("--mu", default="", help="outgoing partition, e.g. 2,1")
    p.add_argument("--nu", default="", help="incoming partition, e.g. 1")
    common(p, _cmd_vertex, surface=False, points=False)

    verify = sub.add_parser("verify", help="identity checkers (exit 0 iff equal)")
    vsub = verify.add_subparsers(dest="target", required=True)

    p = vsub.add_parser("degeneration", help="diagram sum vs refined-count route")
    common(p, _cmd_verify_degeneration)

    p = vsub.add_parser("ab", help="Abramovich-Bertram F0/F2 identity")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    common(p, _cmd_verify_ab, surface=False, points=False)

    p = vsub.add_parser("oracle", help="sweep vs brute-force enumeration")
    common(p, _cmd_verify_oracle, order=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except (AlgebraError, DiagramError, GwError, OracleLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
