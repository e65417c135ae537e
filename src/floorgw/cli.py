"""Command-line front end.

Subcommands: ``enumerate``, ``count``, ``gw``, ``log-gw``, ``vertex`` and
``verify`` (with targets ``degeneration``, ``ab`` and ``oracle``).  Surfaces
are selected with ``--surface p2 --degree D`` or
``--surface fk --k K --h H --d D``; the point count comes from exactly one
of ``--points N`` or ``--genus G``.  ``--order`` is the u-truncation of the
reported series and must exceed the series' lowest exponent; a smaller order
is a domain error naming the minimum, and so is an order over 500.  An
integer flag, like each part of ``--mu`` and ``--nu``, takes only the text
that ``str`` writes of an int, as the JSON readers do (``algebra._int_text``):
"12" or "-3", not "1_2", "+3", " 3", "012" or "-0".  Formats: ``text``
(default), ``json``, ``csv`` (not for ``verify``).  Exit codes: 0 success
(and, for ``verify``, identity holds), 1 domain error, 2 usage error.
Rationals are strings ("num/den") so no JSON consumer can lose precision;
identical invocations produce byte-identical output.  Each command renders
its whole output and then hands the pieces to ``_emit``, the one writer of
stdout, which writes them a slice at a time.  ``main`` runs each command with
the cyclic garbage collector paused, and restores the caller's setting on
every exit: no command leaves a reference cycle, so the collector's passes
over a command's objects would find nothing.

A request is read from one table, ``_COMMANDS``, of each leaf command's
flags and the keyword arguments of their ``add_argument``.  ``_read`` takes a
well-formed request (exact long flags, each once, with values that do not
start with "-" and that their type and choices accept), such as every
floorbench job, straight from it, with no parser built.  Anything else (help,
a usage error, ``--flag=value``, an abbreviation, a repeated flag, a negative
value) and a ``UsageError`` (an incomplete surface, a malformed partition) go
to the whole argparse tree that ``build_parser()`` builds from the same table,
so help and usage errors read as they always have.  Nothing is cached.

A well-formed request loads neither ``argparse`` (nor its ``gettext``) nor
``fractions`` (nor its ``decimal`` and ``numbers``): ``argparse`` is imported
by ``build_parser()`` and by ``_int``'s refusal only, and no command builds a
``Fraction`` (``algebra`` imports ``fractions`` only where one is built or
recognised).  An interpreter start plus this import is most of a small
request's time.
"""

from __future__ import annotations

import gc
import json
import sys
from collections.abc import Sequence
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .algebra import AlgebraError, Partition, _int_text, _Memo, lp_eval_at_one
from .diagrams import (
    DiagramError,
    _listed,
    degree_hirzebruch,
    degree_p2,
    points_for_genus,
    refined_count,
)
from .gw import (
    GwError,
    ab_identity_check,
    degeneration_cross_check,
    gw_relative_series,
    log_series,
    oracle_cross_check,
    vertex_series,
)
from .oracle import OracleLimitError

if TYPE_CHECKING:
    import argparse

_SLICE = 1 << 17  # pieces per write of ``_emit``


class UsageError(Exception):
    """A request that reads well but cannot be served as given: reported as
    argparse reports a usage error, with exit code 2."""


def _parse_surface(args: SimpleNamespace):
    if args.surface == "p2":
        if args.degree is None:
            raise UsageError("--surface p2 requires --degree")
        return degree_p2(args.degree)
    if args.k is None or args.h is None or args.d is None:
        raise UsageError("--surface fk requires --k, --h and --d")
    return degree_hirzebruch(args.k, args.h, args.d)


def _parse_partition(text: str, flag: str) -> Partition:
    text = text.strip()
    try:
        return Partition(_int_text(p.strip()) for p in (text.split(",") if text else ()))
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated list of positive integers, "
                         f"got {text!r}") from None


def _int(text: str) -> int:
    """An integer flag's value by ``_int_text``, refused in argparse's words."""
    try:
        return _int_text(text)
    except ValueError:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"invalid int value: {text!r}") from None


def _emit(pieces: Sequence[str], end: str = "\n") -> None:
    """Write each piece followed by ``end``, ``_SLICE`` pieces a write (one for
    a small output), so no output is held whole as text and as bytes.  The
    pieces are rendered before the call: an error leaves stdout empty."""
    for start in range(0, len(pieces), _SLICE):
        sys.stdout.write(end.join([*pieces[start:start + _SLICE], ""]))


def _json_texts(n: int, div: int) -> tuple:
    """The JSON listing's texts for :func:`_pieces`: ``json.dumps`` of each
    ``to_json`` (floors distinct, fields ints or None), ", " between them."""
    head = '{"n": %s, "vertices": [%s], "divergences": {%s}, "edges": ['
    edge = '{"position": %s, "source": %s, "target": %s, "weight": %s}'
    return (lambda i: ", " if i else "",
            _Memo(lambda floors: head % (n, ", ".join(map(str, floors)),
                                         ", ".join(['"%s": %s' % (p, div) for p in floors]))),
            _Memo(lambda e: (edge % e).replace("None", "null") + ", "),
            _Memo(lambda e: (edge % e).replace("None", "null") + "]}"), "]}")


def _csv_texts(n: int) -> tuple:
    """The CSV listing's texts for :func:`_pieces`: one row per diagram."""
    return (str, _Memo(lambda floors: f",{n},{';'.join(map(str, floors))},"),
            _Memo(lambda e: "%s:%s->%s*%s;" % e), _Memo(lambda e: "%s:%s->%s*%s\n" % e), "\n")


def _text_texts() -> tuple:
    """The text listing's texts for :func:`_pieces`: a line per diagram and per edge."""
    lines = _Memo(lambda e: "      edge@%s: %s -> %s, weight %s\n" % e)
    return (lambda i: f"  #{i}", _Memo(lambda floors: f": vertices {list(floors)}\n"), lines,
            lines, "")


def _pieces(pieces: list[str], block, first, heads, inner, last, bare) -> list[str]:
    """``pieces`` followed by those of each diagram of a root block
    (``diagrams._root_block``), in listing order: ``first(i)`` for the i-th
    diagram, ``heads[floors]``, ``inner[e]`` for each edge but the last,
    ``last[e]`` for the last edge, or ``bare`` for a diagram with no edge.
    Each distinct head and edge text is rendered once and each shared list
    of tails once; the diagrams share the pieces."""
    ends, i = {}, 0
    for floors, _, edges, tails in block:
        if not tails[0]:  # one empty tail: the diagram's last edge, if any, is in ``edges``
            pieces += ([first(i), heads[floors], *map(inner.__getitem__, edges[:-1]),
                        last[edges[-1]]] if edges else [first(i), heads[floors], bare])
            i += 1
            continue
        if (texts := ends.get(id(tails))) is None:
            texts = ends[id(tails)] = [[*map(inner.__getitem__, tail[:-1]), last[tail[-1]]]
                                       for tail in tails]
        body = [heads[floors], *map(inner.__getitem__, edges)]
        for text in texts:
            pieces.append(first(i))
            pieces += body
            pieces += text
            i += 1
    return pieces


def _listing(delta, n: int, fmt: str) -> list[str]:
    """``enumerate``'s pieces, rendered from the root block."""
    profiles, block = _listed(delta, n)
    count = sum(profiles.values())
    if fmt == "json":  # json.dumps of the payload
        pieces = _pieces([f'{{"count": {count}, "diagrams": ['], block,
                         *_json_texts(n, delta.divergence))
        pieces.append("]}\n")
        return pieces
    if fmt == "csv":
        return _pieces(["index,n,vertices,edges\n"], block, *_csv_texts(n))
    return _pieces([f"{count} marked diagram(s) for {delta.label}, n = {n}\n"], block,
                   *_text_texts())


def _cmd_enumerate(args) -> int:
    _emit(_listing(args.delta, args.n, args.format), "")
    return 0


def _cmd_count(args) -> int:
    delta, n = args.delta, args.n
    refined = refined_count(delta, n)
    classical = lp_eval_at_one(refined)
    if args.format == "json":
        payload: dict = {"classical": classical}
        if args.refined:
            payload["refined"] = refined.to_json()
        _emit([json.dumps(payload)])
    elif args.format == "csv":
        _emit(["classical,refined", f"{classical},{refined}"] if args.refined
              else ["classical", str(classical)])
    else:
        _emit([f"classical count for {delta.label}, n = {n}: {classical}",
               *([f"refined count: {refined}"] if args.refined else [])])
    return 0


def _cmd_series(args) -> int:
    """gw, log-gw and vertex: a series and its invariants, in one of three formats."""
    if args.command == "vertex":
        mu, nu = _parse_partition(args.mu, "--mu"), _parse_partition(args.nu, "--nu")
        gw = vertex_series(mu, nu, args.order)
        header = f"vertex series for mu={tuple(mu)}, nu={tuple(nu)}"
    else:
        make = log_series if args.command == "log-gw" else gw_relative_series
        gw = make(args.delta, args.n, args.order)
        header = f"{gw.kind} series for {args.delta.label}, n = {args.n}"
    if args.format == "json":
        _emit([json.dumps(gw.to_json())])
        return 0
    rows = gw._invariant_texts()
    if args.format == "csv":
        _emit(["g,value", *(f"{g},{v}" for g, v in rows)])
    else:
        _emit([header, f"  series: {gw.series}", *(f"  g={g} -> {v}" for g, v in rows)])
    return 0


def _verdict(fmt: str, report, lines) -> int:
    """Write a ``verify`` report from ``gw``, rendering only the format asked
    for: JSON of its ``to_json()`` or the text ``lines(report)``.  Exit code 0
    iff it is equal."""
    _emit([json.dumps(report.to_json())] if fmt == "json" else lines(report))
    return 0 if report.equal else 1


def _cmd_verify_degeneration(args) -> int:
    return _verdict(args.format, degeneration_cross_check(args.delta, args.n, args.order),
                    lambda report: (
        f"degeneration cross-check for {report.delta.label}, n = {report.n}, order {args.order}",
        f"  diagram sum : {report.diagram_sum}",
        f"  from refined: {report.from_refined}",
        f"  equal: {report.equal}"))


def _cmd_verify_ab(args) -> int:
    return _verdict(args.format, ab_identity_check(args.a, args.b, args.points, args.order),
                    lambda report: (
        f"Abramovich-Bertram check for a={args.a}, b={args.b}, n={args.points}",
        f"  polynomial: {report.lhs_polynomial} vs {report.rhs_polynomial}"
        f" -> {report.polynomial_equal}",
        f"  series    : equal -> {report.series_equal}"))


def _cmd_verify_oracle(args) -> int:
    return _verdict(args.format, oracle_cross_check(args.delta, args.n), lambda report: (
        f"oracle check for {report.delta.label}, n = {report.n}",
        f"  diagrams   : sweep {report.sweep_diagrams}, "
        f"brute force {report.brute_force_diagrams}, equal {report.diagrams_equal}",
        f"  sweep      : {report.sweep}",
        f"  brute force: {report.brute_force}",
        f"  equal: {report.equal}"))


_SURFACE = (
    ("--surface", {"choices": ("p2", "fk"), "required": True}),
    ("--degree", {"type": _int, "help": "degree for --surface p2"}),
    ("--k", {"type": _int, "help": "Hirzebruch index for --surface fk"}),
    ("--h", {"type": _int, "help": "height for --surface fk"}),
    ("--d", {"type": _int, "help": "fiber coefficient for --surface fk"}),
    ("--points", {"type": _int, "help": "number of point constraints n"}),
    ("--genus", {"type": _int, "help": "genus g (sets n = g - 1 + |delta|)"}),
)
_ORDER = ("--order", {"type": _int, "default": 16, "help": "u-truncation order"})
# vertex and verify ab have always listed --order without help text
_BARE_ORDER = ("--order", {"type": _int, "default": 16})
_FORMAT = ("--format", {"default": "text", "choices": ("json", "csv", "text")})
_REPORT_FORMAT = ("--format", {"default": "text", "choices": ("json", "text")})


def _surface_leaf(text, run, *flags):
    return text, run, (*_SURFACE, *flags), ("--points", "--genus")


# name -> a leaf command (help, handler, flags, one_of): each flag with the
# keyword arguments of its add_argument, in that order, and the flags of its
# required mutually exclusive group.  verify's entry is (help, its targets).
_TARGETS = {
    "degeneration": _surface_leaf("diagram sum vs refined-count route",
                                  _cmd_verify_degeneration, _ORDER, _REPORT_FORMAT),
    "ab": ("Abramovich-Bertram F0/F2 identity", _cmd_verify_ab, (
        ("--a", {"type": _int, "required": True}),
        ("--b", {"type": _int, "required": True}),
        ("--points", {"type": _int, "required": True}),
        _BARE_ORDER, _REPORT_FORMAT), ()),
    "oracle": _surface_leaf("sweep vs brute-force enumeration", _cmd_verify_oracle,
                            _REPORT_FORMAT),
}
_COMMANDS = {
    "enumerate": _surface_leaf("list all marked floor diagrams", _cmd_enumerate, _FORMAT),
    "count": _surface_leaf("classical (and refined) diagram counts", _cmd_count, _FORMAT,
                           ("--refined", {"action": "store_true",
                                          "help": "include the refined count"})),
    "gw": _surface_leaf("relative invariant series", _cmd_series, _ORDER, _FORMAT),
    "log-gw": _surface_leaf("log invariant series", _cmd_series, _ORDER, _FORMAT),
    "vertex": ("vertex contribution series", _cmd_series, (
        ("--mu", {"default": "", "help": "outgoing partition, e.g. 2,1"}),
        ("--nu", {"default": "", "help": "incoming partition, e.g. 1"}),
        _BARE_ORDER, _FORMAT), ()),
    "verify": ("identity checkers (exit 0 iff equal)", _TARGETS),
}


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The attributes of ``build_parser().parse_args(argv)`` when argv is a
    well-formed request in its plainest spelling (see the module docstring),
    else None.  An int flag is read by ``_int_text``, so no argparse is loaded."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    args = {"command": argv[0]}
    leaf, rest = _COMMANDS[argv[0]], argv[1:]
    if isinstance(leaf[1], dict):
        targets = leaf[1]
        if not rest or rest[0] not in targets:
            return None
        args["target"], leaf, rest = rest[0], targets[rest[0]], rest[1:]
    _, run, flags, one_of = leaf
    known = dict(flags)
    given = {}
    tokens = iter(rest)
    for flag in tokens:
        kwargs = known.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if "type" in kwargs:  # every typed flag is an _int
            try:
                value = _int_text(value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    if one_of and sum(flag in given for flag in one_of) != 1:
        return None
    for flag, kwargs in flags:
        if flag not in given:
            if kwargs.get("required"):
                return None
            # argparse's default: None, or False for the one store_true flag
            given[flag] = kwargs.get("default", False if "action" in kwargs else None)
        args[flag[2:]] = given[flag]
    return SimpleNamespace(run=run, **args)


def _add_subcommands(parser, dest, table) -> None:
    """Give ``parser`` every subcommand of ``table``, each with its arguments."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, entry in table.items():
        p = sub.add_parser(name, help=entry[0])
        if isinstance(entry[1], dict):
            _add_subcommands(p, "target", entry[1])
            continue
        _, run, flags, one_of = entry
        p.set_defaults(run=run)
        group = p.add_mutually_exclusive_group(required=True) if one_of else None
        for flag, kwargs in flags:
            (group if flag in one_of else p).add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, every subcommand built from ``_COMMANDS``:
    the one place ``argparse`` is imported but ``_int``'s refusal."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="floorgw",
        description="Floor diagrams, refined counts and Gromov-Witten series",
    )
    _add_subcommands(parser, "command", _COMMANDS)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv) or build_parser().parse_args(argv)
    # no command leaves a reference cycle (the tests pin it): the collector would find nothing
    paused = gc.isenabled()
    gc.disable()
    try:
        if "surface" in vars(args):  # the one place a request's class is built
            delta = args.delta = _parse_surface(args)
            args.n = points_for_genus(delta, args.genus) if args.points is None else args.points
        return args.run(args)
    except UsageError as exc:
        build_parser().error(str(exc))
    except (AlgebraError, DiagramError, GwError, OracleLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        if paused:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
