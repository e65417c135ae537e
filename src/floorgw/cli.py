"""Command-line front end.

Subcommands: ``enumerate``, ``count``, ``gw``, ``log-gw``, ``vertex`` and
``verify`` (with targets ``degeneration``, ``ab`` and ``oracle``).  Surfaces
are selected with ``--surface p2 --degree D`` or
``--surface fk --k K --h H --d D``; the point count comes from exactly one
of ``--points N`` or ``--genus G``.  ``--order`` is the u-truncation of the
reported series and must exceed the series' lowest exponent; a smaller order
is a domain error naming the minimum, and so is an order over 500.  Formats:
``text`` (default), ``json``, ``csv`` (not for ``verify``).  Exit codes: 0
success (and, for ``verify``, identity holds), 1 domain error, 2 usage
error.  Rationals are strings ("num/den") so no JSON consumer can lose
precision; identical invocations produce byte-identical output.

``build_parser(argv)`` gives arguments only to the subcommand that argv
names: argparse makes a help formatter for every ``add_argument``, and the
whole tree took about 2 ms on a 2-vCPU x86-64 host, most of a small job.
Help, usage errors and argument handling are those of the whole tree, which
is still built when argv names no subcommand first.  Nothing is cached across
``main`` calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from collections.abc import Sequence

from .algebra import AlgebraError, Partition, lp_eval_at_one, rational_to_str
from .diagrams import (
    DiagramError,
    degree_hirzebruch,
    degree_p2,
    diagram_count,
    enumerate_marked,
    fold_refined,
    points_for_genus,
    refined_count,
    weight_profiles,
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


def _parse_partition(text: str, flag: str, parser: argparse.ArgumentParser) -> Partition:
    text = text.strip()
    if not text:
        return Partition()
    try:
        return Partition(int(p) for p in text.split(","))
    except ValueError:
        parser.error(f"{flag} must be a comma-separated list of positive integers, got {text!r}")


def _emit(*lines: str) -> None:
    """Write ``lines``, all rendered before the call, so that a rendering
    error leaves stdout empty: one join, one write."""
    sys.stdout.write("\n".join([*lines, ""]))


def _print_gw(gw, fmt: str, header: str) -> None:
    if fmt == "json":
        _emit(json.dumps(gw.to_json()))
        return
    rows = [(g, rational_to_str(v)) for g, v in gw.invariants()]
    if fmt == "csv":
        _emit("g,value", *(f"{g},{v}" for g, v in rows))
    else:
        _emit(header, f"  series: {gw.series}", *(f"  g={g} -> {v}" for g, v in rows))


def _check_listing_cap(delta, n: int, count: int) -> None:
    """Refuse to list (delta, n) when its ``count`` of diagrams, counted
    without listing them, is over LISTING_CAP."""
    if count > LISTING_CAP:
        raise DiagramError(f"{delta.label}, n = {n} has {count} diagrams, "
                           f"over the listing cap LISTING_CAP = {LISTING_CAP}")


def _cmd_enumerate(args, parser) -> int:
    delta, n = args.delta, args.n
    _check_listing_cap(delta, n, diagram_count(delta, n))
    diagrams = enumerate_marked(delta, n)
    if args.format == "json":
        # json.dumps of the payload, joined once: head and tail ride the end texts;
        # the diagrams go once their texts exist, and the texts once joined
        texts = [d.json_text() for d in diagrams] or [""]
        texts[0] = f'{{"count": {len(diagrams)}, "diagrams": [' + texts[0]
        texts[-1] += "]}\n"
        diagrams.clear()
        text = ", ".join(texts)
        del texts
        sys.stdout.write(text)
    elif args.format == "csv":
        rows = (f"{i},{d.n},{';'.join(map(str, d.vertex_positions))},"
                + ";".join(f"{p}:{s}->{t}*{w}" for p, s, t, w in d.edges)
                for i, d in enumerate(diagrams))
        _emit("index,n,vertices,edges", *rows)
    else:
        lines = [f"{len(diagrams)} marked diagram(s) for {delta.label}, n = {n}"]
        for i, d in enumerate(diagrams):
            lines.append(f"  #{i}: vertices {list(d.vertex_positions)}")
            lines.extend(f"      edge@{p}: {s} -> {t}, weight {w}" for p, s, t, w in d.edges)
        _emit(*lines)
    return 0


def _cmd_count(args, parser) -> int:
    delta, n = args.delta, args.n
    refined = refined_count(delta, n)
    classical = lp_eval_at_one(refined)
    if args.format == "json":
        payload: dict = {"classical": classical}
        if args.refined:
            payload["refined"] = refined.to_json()
        _emit(json.dumps(payload))
    elif args.format == "csv":
        if args.refined:
            _emit("classical,refined", f"{classical},{refined}")
        else:
            _emit("classical", str(classical))
    else:
        _emit(f"classical count for {delta.label}, n = {n}: {classical}",
              *([f"refined count: {refined}"] if args.refined else []))
    return 0


def _cmd_gw(args, parser) -> int:
    make = log_series if args.command == "log-gw" else gw_relative_series
    series = make(args.delta, args.n, args.order)
    _print_gw(series, args.format, f"{series.kind} series for {args.delta.label}, n = {args.n}")
    return 0


def _cmd_vertex(args, parser) -> int:
    mu = _parse_partition(args.mu, "--mu", parser)
    nu = _parse_partition(args.nu, "--nu", parser)
    series = vertex_series(mu, nu, args.order)
    _print_gw(series, args.format, f"vertex series for mu={tuple(mu)}, nu={tuple(nu)}")
    return 0


def _cmd_verify_degeneration(args, parser) -> int:
    delta, n = args.delta, args.n
    report = degeneration_cross_check(delta, n, args.order)
    if args.format == "json":
        _emit(json.dumps(report.to_json()))
    else:
        _emit(f"degeneration cross-check for {delta.label}, n = {n}, order {args.order}",
              f"  diagram sum : {report.diagram_sum}",
              f"  from refined: {report.from_refined}",
              f"  equal: {report.equal}")
    return 0 if report.equal else 1


def _cmd_verify_ab(args, parser) -> int:
    report = ab_identity_check(args.a, args.b, args.points, args.order)
    if args.format == "json":
        _emit(json.dumps(report.to_json()))
    else:
        _emit(f"Abramovich-Bertram check for a={args.a}, b={args.b}, n={args.points}",
              f"  polynomial: {report.lhs_polynomial} vs {report.rhs_polynomial}"
              f" -> {report.polynomial_equal}",
              f"  series    : equal -> {report.series_equal}")
    return 0 if report.equal else 1


def _cmd_verify_oracle(args, parser) -> int:
    delta, n = args.delta, args.n
    # the oracle's cap on n first: it needs no count
    check_cap(n)
    profiles = weight_profiles(delta, n)
    _check_listing_cap(delta, n, sum(profiles.values()))
    brute_diagrams = brute_force_enumerate(delta, n)
    sweep_diagrams = enumerate_marked(delta, n)
    diagrams_equal = Counter(sweep_diagrams) == Counter(brute_diagrams)
    sweep = fold_refined(profiles)
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
        _emit(f"oracle check for {delta.label}, n = {n}",
              f"  diagrams   : sweep {len(sweep_diagrams)}, "
              f"brute force {len(brute_diagrams)}, equal {diagrams_equal}",
              f"  sweep      : {sweep}",
              f"  brute force: {brute}",
              f"  equal: {equal}")
    return 0 if equal else 1


def _common(p, run, surface=True, points=True, order=True, csv=True):
    p.set_defaults(run=run)
    if surface:
        _add_surface_args(p)
    if points:
        _add_points_args(p)
    if order:
        # vertex and verify ab have always listed --order without help text
        p.add_argument("--order", type=int, default=16,
                       help="u-truncation order" if surface else None)
    p.add_argument("--format", default="text",
                   choices=("json", "csv", "text") if csv else ("json", "text"))


def _add_count_args(p):
    _common(p, _cmd_count, order=False)
    p.add_argument("--refined", action="store_true", help="include the refined count")


def _add_vertex_args(p):
    p.add_argument("--mu", default="", help="outgoing partition, e.g. 2,1")
    p.add_argument("--nu", default="", help="incoming partition, e.g. 1")
    _common(p, _cmd_vertex, surface=False, points=False)


def _add_ab_args(p):
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    _common(p, _cmd_verify_ab, surface=False, points=False, csv=False)


# name -> (help, function adding its arguments); verify's entry is a table of targets
_TARGETS = {
    "degeneration": ("diagram sum vs refined-count route",
                     lambda p: _common(p, _cmd_verify_degeneration, csv=False)),
    "ab": ("Abramovich-Bertram F0/F2 identity", _add_ab_args),
    "oracle": ("sweep vs brute-force enumeration",
               lambda p: _common(p, _cmd_verify_oracle, order=False, csv=False)),
}
_COMMANDS = {
    "enumerate": ("list all marked floor diagrams",
                  lambda p: _common(p, _cmd_enumerate, order=False)),
    "count": ("classical (and refined) diagram counts", _add_count_args),
    "gw": ("relative invariant series", lambda p: _common(p, _cmd_gw)),
    "log-gw": ("log invariant series", lambda p: _common(p, _cmd_gw)),
    "vertex": ("vertex contribution series", _add_vertex_args),
    "verify": ("identity checkers (exit 0 iff equal)", _TARGETS),
}


def _add_subcommands(parser, dest, table, argv) -> None:
    """Give ``parser`` the subcommands of ``table``.  When ``argv[0]`` names one,
    argparse hands it the rest of argv, so only that one gets its arguments;
    otherwise (-h, no name, an unknown name, an option before the name) every
    one does, so usage errors and help read as they always have."""
    if argv and argv[0] in table:
        # the full choice list keeps the usage line of the whole tree
        names, rest, metavar = argv[:1], argv[1:], "{%s}" % ",".join(table)
    else:
        names, rest, metavar = table, (), None
    sub = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    for name in names:
        text, add = table[name]
        p = sub.add_parser(name, help=text)
        if isinstance(add, dict):
            _add_subcommands(p, "target", add, rest)
        else:
            add(p)


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for ``argv``: the top level and the subcommand it names (the
    whole tree when it names none, as for the default)."""
    parser = argparse.ArgumentParser(
        prog="floorgw",
        description="Floor diagrams, refined counts and Gromov-Witten series",
    )
    _add_subcommands(parser, "command", _COMMANDS, argv)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        if "surface" in args:  # the one place a request's class is built
            delta = args.delta = _parse_surface(args, parser)
            args.n = points_for_genus(delta, args.genus) if args.points is None else args.points
        return args.run(args, parser)
    except (AlgebraError, DiagramError, GwError, OracleLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
