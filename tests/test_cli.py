"""Command-line behavior: payloads, exit codes, determinism."""

import gc
import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floorgw.cli as cli
import floorgw.diagrams as diagrams
import floorgw.gw as gw
import floorgw.oracle as oracle
from floorgw.algebra import LaurentPolyS, USeries
from floorgw.cli import main
from helpers import acceptance_grid, assert_same_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_json_payload(capsys):
    code, out, err = run_cli(
        capsys,
        "count", "--surface", "p2", "--degree", "3", "--genus", "0",
        "--refined", "--format", "json",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload == {
        "classical": 12,
        "refined": {"valuation": -2, "coefficients": ["1", "0", "10", "0", "1"]},
    }


def test_count_without_refined_flag(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--surface", "fk", "--k", "2", "--h", "1", "--d", "0",
        "--points", "3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"classical": 1}


def test_gw_table(capsys):
    code, out, _ = run_cli(
        capsys, "gw", "--surface", "p2", "--degree", "1", "--points", "2",
        "--order", "6",
    )
    assert code == 0
    assert "g=0 -> 1" in out
    assert "g=1 -> 1/24" in out
    assert "g=2 -> 7/5760" in out


def test_gw_json_round_trips_schema(capsys):
    code, out, _ = run_cli(
        capsys, "gw", "--surface", "p2", "--degree", "3", "--points", "8",
        "--order", "8", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "relative"
    assert payload["n"] == 8
    assert {"g": 2, "value": "21/160"} in payload["invariants"]


def test_log_gw_and_vertex(capsys):
    code, out, _ = run_cli(
        capsys, "log-gw", "--surface", "p2", "--degree", "1", "--points", "2",
        "--order", "8", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["kind"] == "log"

    code, out, _ = run_cli(capsys, "vertex", "--mu", "2", "--nu", "", "--order", "7")
    assert code == 0
    assert "g=0 -> 1" in out
    assert "g=1 -> -1/6" in out


def test_enumerate_json(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--surface", "p2", "--degree", "2", "--points", "5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["diagrams"][0]["vertices"] == [3, 5]


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--surface", "p2", "--degree", "1", "--points", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,n,vertices,edges"
    assert lines[1] == "0,2,2,1:None->2*1"


@pytest.mark.parametrize("delta,surface,g", [
    (diagrams.degree_p2(3), ["--surface", "p2", "--degree", "3"], 0),
    (diagrams.degree_p2(4), ["--surface", "p2", "--degree", "4"], 1),
    (diagrams.degree_hirzebruch(2, 3, 0), ["--surface", "fk", "--k", "2", "--h", "3", "--d", "0"], 1),
    (diagrams.degree_p2(3), ["--surface", "p2", "--degree", "3"], 2),
    # one diagram, with one floor and no edge: {"n": 1, ..., "edges": []}; then no diagram
    (diagrams.degree_hirzebruch(0, 1, 0), ["--surface", "fk", "--k", "0", "--h", "1", "--d", "0"], 0),
    (diagrams.degree_p2(1), ["--surface", "p2", "--degree", "1"], 1),
])
def test_enumerate_json_is_the_dumped_payload(capsys, delta, surface, g):
    code, out, _ = run_cli(capsys, "enumerate", *surface, "--genus", str(g), "--format", "json")
    listing = diagrams.enumerate_marked(delta, diagrams.points_for_genus(delta, g))
    payload = {"count": len(listing), "diagrams": [d.to_json() for d in listing]}
    assert code == 0
    assert_same_text(out, json.dumps(payload) + "\n")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--surface", "p2", "--degree", "3", "--genus", "0", "--format", fmt]
    for fmt in ("json", "csv", "text")
] + [
    ["verify", "oracle", "--surface", "p2", "--degree", "3", "--genus", "0", "--format", fmt]
    for fmt in ("json", "text")
] + [
    ["count", "--surface", "p2", "--degree", "3", "--genus", "0", *refined, "--format", fmt]
    for fmt in ("json", "csv", "text") for refined in ([], ["--refined"])
], ids=" ".join)
def test_each_command_writes_stdout_once(monkeypatch, argv):
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(argv) == 0
    assert len(writes) == 1 and writes[0].endswith("\n")


# SHA-256 of enumerate's stdout, taken when the JSON listing was one join
# written once and the other formats one "\n".join written once
ENUMERATE_DIGESTS = {
    ("p2 --degree 4", "json"): "acef1866ec97198cf5a2964de14f6199ff9cafd92b0b2418589e0ce60fac6bec",
    ("p2 --degree 4", "csv"): "66a8512a7e5195ae9cd75d3f65fec650605dc96d4f1d1a072649dbcf2eb62ead",
    ("p2 --degree 4", "text"): "51d82195a59a2d94af739384e6c526bef0b12ca69819feaad0e081ca73c7a7eb",
    # F1 (h=2, d=3): three outgoing ends after the last floor
    ("fk --k 1 --h 2 --d 3", "json"):
        "a8c1002a677cf04109210aeab4d33b941f69a6e805e167cf7ac34da60afb49b3",
    ("fk --k 1 --h 2 --d 3", "csv"):
        "f38968da10c7ab4c560585fd29951c1368e3a90586e710917619775a848cc5af",
    ("fk --k 1 --h 2 --d 3", "text"):
        "05ee511620dc3afb49dc6d8481cf6ba7d0500edd4619137cfd64621a4f5bda94",
}


def enumerate_argv(surface, fmt):
    return ["enumerate", "--surface", *surface.split(), "--genus", "0", "--format", fmt]


ENUMERATE_IDS = [f"{surface.split()[0]}-{fmt}" for surface, fmt in ENUMERATE_DIGESTS]


@pytest.mark.parametrize("surface,fmt", ENUMERATE_DIGESTS, ids=ENUMERATE_IDS)
def test_enumerate_output_is_pinned(capsys, surface, fmt):
    code, out, err = run_cli(capsys, *enumerate_argv(surface, fmt))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[surface, fmt]


@pytest.mark.parametrize("surface,fmt", ENUMERATE_DIGESTS, ids=ENUMERATE_IDS)
def test_output_is_written_a_slice_of_pieces_at_a_time(monkeypatch, surface, fmt):
    """With slices of 3 pieces, a listing of 303 or 325 diagrams takes many
    writes, each a str, and they join to the pinned bytes."""
    writes = []
    monkeypatch.setattr(cli, "_SLICE", 3)
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(enumerate_argv(surface, fmt)) == 0
    assert len(writes) > 100 and all(type(w) is str for w in writes)
    text = "".join(writes)
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATE_DIGESTS[surface, fmt]


# ------------------------------------------------- the listing's block renderers

# the acceptance grid (F_k classes with d = 1, 2 have outgoing ends, so lists of
# several tails) and F1 (h=2, d=3) at genus 0, with three ends after the last floor
BLOCK_CLASSES = acceptance_grid() + [(diagrams.degree_hirzebruch(1, 2, 3), 11)]


def per_diagram_render(delta, n, fmt):
    """``enumerate``'s stdout rendered diagram by diagram from
    ``enumerate_marked``, as it was rendered before the block renderers."""
    listing = diagrams.enumerate_marked(delta, n)
    if fmt == "json":
        payload = {"count": len(listing), "diagrams": [d.to_json() for d in listing]}
        return json.dumps(payload) + "\n"
    if fmt == "csv":
        lines = ["index,n,vertices,edges", *(
            f"{i},{d.n},{';'.join(map(str, d.vertex_positions))},"
            + ";".join(f"{p}:{s}->{t}*{w}" for p, s, t, w in d.edges)
            for i, d in enumerate(listing))]
    else:
        lines = [f"{len(listing)} marked diagram(s) for {delta.label}, n = {n}"]
        for i, d in enumerate(listing):
            lines.append(f"  #{i}: vertices {list(d.vertex_positions)}")
            lines.extend(f"      edge@{p}: {s} -> {t}, weight {w}" for p, s, t, w in d.edges)
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_block_renderers_equal_the_per_diagram_render(fmt):
    for delta, n in BLOCK_CLASSES:
        assert_same_text("".join(cli._listing(delta, n, fmt)), per_diagram_render(delta, n, fmt),
                         delta, n)


def json_body(n, div, block):
    """The JSON texts of the diagrams of ``block``, joined by ", "."""
    return "".join(cli._pieces([], block, *cli._json_texts(n, div)))


def test_block_renderers_share_each_head_edge_and_line():
    """The text pieces are a fresh index per diagram, one head per distinct
    floors and one line per distinct edge; the JSON pieces one per distinct
    head, two per distinct edge (followed by ", " or "]}") and the three
    constants "", ", " and "]}"."""
    several = 0  # lists of more than one tail, whose texts are rendered once
    for delta, n in BLOCK_CLASSES:
        listing, block = diagrams.enumerate_marked(delta, n), diagrams._root_block(delta, n)
        heads = {d.vertex_positions for d in listing}
        edges = {e for d in listing for e in d.edges}
        lines = cli._pieces([], block, *cli._text_texts())
        assert len({id(line) for line in lines if line.startswith("      edge@")}) == len(edges)
        assert len({id(line) for line in lines}) <= len(listing) + len(heads) + len(edges) + 1
        pieces = cli._pieces([], block, *cli._json_texts(n, delta.divergence))
        assert len({id(p) for p in pieces}) <= len(heads) + 2 * len(edges) + 3
        several += sum(len(tails) > 1 for *_, tails in block)
    assert several > 50


@pytest.mark.parametrize("argv", [
    ["enumerate", "--surface", *surface.split(), "--genus", "0", "--format", fmt]
    for surface in ("p2 --degree 3", "fk --k 1 --h 2 --d 3") for fmt in ("json", "csv", "text")
] + [
    ["verify", "oracle", "--surface", "fk", "--k", "1", "--h", "2", "--d", "2", "--genus", "1",
     "--format", fmt] for fmt in ("json", "text")
], ids=" ".join)
def test_listing_builds_no_diagram_objects(capsys, monkeypatch, argv):
    """``enumerate`` renders and ``verify oracle`` compares the root block:
    the only diagrams built are the brute-force oracle's, one per diagram."""
    delta = diagrams.degree_hirzebruch(1, 2, 2)
    oracle_built = (len(oracle.brute_force_enumerate(delta, diagrams.points_for_genus(delta, 1)))
                    if argv[0] == "verify" else 0)
    built, new = [], diagrams.MarkedFloorDiagram.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(diagrams.MarkedFloorDiagram, "__new__", counted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and out
    assert len(built) == oracle_built


@pytest.mark.parametrize("argv", [
    [*command.split(), "--order", "40", "--format", fmt]
    for command in ("gw --surface p2 --degree 3 --genus 1",
                    "log-gw --surface fk --k 1 --h 2 --d 1 --genus 0",
                    "vertex --mu 3,2,1 --nu 1,1", "gw --surface p2 --degree 1 --points 2")
    for fmt in ("json", "csv", "text")
] + [
    [*command.split(), "--order", "40", "--format", fmt]
    for command in ("verify degeneration --surface p2 --degree 3 --genus 1",
                    "verify ab --a 2 --b 1 --points 9")
    for fmt in ("json", "text")
], ids=" ".join)
def test_series_commands_build_no_fractions(capsys, monkeypatch, argv):
    """The series commands write each coefficient from its integer pair: with
    ``USeries.coefficients`` and ``USeries.coefficient`` raising, every format
    writes what it writes without them."""
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0 and expected[2] == "" and expected[1]

    def refuse(*args):
        raise AssertionError("a Fraction coefficient was read")

    monkeypatch.setattr(USeries, "coefficients", property(refuse))
    monkeypatch.setattr(USeries, "coefficient", refuse)
    assert run_cli(capsys, *argv) == expected


def _one(diagram):
    """The root block of the one ``diagram``: an entry with one empty tail."""
    return [(diagram.vertex_positions, (), diagram.edges, [()])]


def test_one_diagram_json_pieces_are_the_dumped_dict_and_read_back():
    for delta, n in acceptance_grid():
        for diagram in diagrams.enumerate_marked(delta, n):
            text = json_body(n, delta.divergence, _one(diagram))
            assert text == json.dumps(diagram.to_json())
            assert diagrams.MarkedFloorDiagram.from_json(json.loads(text)) == diagram


_FIELD = st.integers(-10**6, 10**6)


@given(_FIELD, st.lists(_FIELD, max_size=5, unique=True), _FIELD,
       st.lists(st.tuples(_FIELD, st.none() | _FIELD, st.none() | _FIELD, _FIELD), max_size=6))
@settings(max_examples=200, deadline=None)
def test_one_diagram_json_pieces_are_the_dumped_dict_for_any_fields(n, vertices, divergence,
                                                                   edges):
    diagram = diagrams.MarkedFloorDiagram(n, tuple(vertices), divergence,
                                          tuple(map(diagrams.Edge._make, edges)))
    text = json_body(n, divergence, _one(diagram))
    assert text == json.dumps(diagram.to_json())


_SMALL = st.integers(-2, 3)  # a small range, so that heads and edges repeat
_EDGE = st.tuples(_SMALL, st.none() | _SMALL, st.none() | _SMALL, _SMALL).map(diagrams.Edge._make)
# a list of tails is one empty tail, or tails of one or more outgoing ends
_TAILS = st.just([()]) | st.lists(st.lists(_EDGE, min_size=1, max_size=2).map(tuple),
                                  min_size=1, max_size=3)
_ENTRIES = st.lists(st.tuples(st.lists(_SMALL, max_size=3, unique=True).map(tuple),
                              st.lists(_EDGE, max_size=3).map(tuple), st.integers(0, 2)),
                    max_size=5)


@given(_SMALL, _SMALL, st.lists(_TAILS, min_size=1, max_size=3), _ENTRIES)
@settings(max_examples=300, deadline=None)
def test_json_pieces_join_to_the_dumped_dicts_and_are_shared(n, div, pool, entries):
    """Entries share lists of tails, as the walk's entries do."""
    block = [(floors, (), edges, pool[i % len(pool)]) for floors, edges, i in entries]
    listing = [diagrams.MarkedFloorDiagram(n, floors, div, edges + tail)
               for floors, _, edges, tails in block for tail in tails]
    pieces = cli._pieces([], block, *cli._json_texts(n, div))
    assert_same_text("".join(pieces), ", ".join(json.dumps(d.to_json()) for d in listing))
    # one text per distinct head, two per distinct edge (followed by ", " or "]}"),
    # and the three constants "", ", " and "]}"
    distinct = len({d[1] for d in listing}) + 2 * len({e for d in listing for e in d.edges})
    assert len({id(p) for p in pieces}) <= distinct + 3


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "ab", "--a", "1", "--b", "0", "--points", "3")
    assert code == 0
    code, out, _ = run_cli(
        capsys, "verify", "degeneration", "--surface", "p2", "--degree", "1",
        "--points", "2", "--order", "12", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["equal"] is True
    code, out, _ = run_cli(
        capsys, "verify", "oracle", "--surface", "p2", "--degree", "2", "--points", "5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def _plus_one(value):
    """A refined count plus 1, or a profile dict with one more diagram of no
    bounded edge, which adds 1 to its fold."""
    if isinstance(value, LaurentPolyS):
        return value + LaurentPolyS.one()
    return {**value, (): value.get((), 0) + 1}


def _plus_one_result(right):
    return lambda *args: _plus_one(right(*args))


def _plus_one_profiles(right):
    """A listing that fills its profile dict by the ``_plus_one`` rule."""
    def listing(delta, n, profiles=None):
        diagrams = right(delta, n, profiles)
        if profiles is not None:
            profiles.update(_plus_one(profiles))
        return diagrams
    return listing


@pytest.mark.parametrize("command,module,route,wrong", [
    ("verify degeneration --surface p2 --degree 3 --genus 1 --order 12", gw, "fold_refined",
     _plus_one_result),
    ("verify ab --a 1 --b 0 --points 3", gw, "_count", _plus_one_result),
    # the oracle's profiles come from the dict that its listing fills
    ("verify oracle --surface p2 --degree 2 --points 5", gw, "brute_force_enumerate",
     _plus_one_profiles),
])
def test_verify_reports_a_failing_identity_with_exit_1(capsys, monkeypatch, command,
                                                       module, route, wrong):
    """A route that adds 1 to every refined count it gives makes each identity
    fail: the report says so in both formats, with exit code 1."""
    monkeypatch.setattr(module, route, wrong(getattr(module, route)))
    code, out, err = run_cli(capsys, *command.split(), "--format", "json")
    assert (code, err) == (1, "") and json.loads(out)["equal"] is False
    code, out, err = run_cli(capsys, *command.split())
    # verify ab's text report gives the two levels of its identity, the series level last
    last = "  series    : equal -> False\n" if "ab" in command else "  equal: False\n"
    assert (code, err) == (1, "") and out.endswith(last)


def test_verify_oracle_refuses_wrong_profiles_with_an_equal_fold(capsys, monkeypatch):
    """P2 d=3 n=8's eight diagrams with one bounded edge of weight 1 filed
    under (1,) and not (1, 1): the fold is the same, s^-2 + 10 + s^2, but
    the profile dicts differ, and so the check fails."""
    right = diagrams.weight_profiles

    def wrong(delta, n):
        profiles = right(delta, n)
        assert profiles.pop((1, 1)) == 8
        return {**profiles, (1,): 8}

    monkeypatch.setattr(diagrams, "weight_profiles", wrong)
    report = gw.oracle_cross_check(diagrams.degree_p2(3), 8)
    assert (report.equal, report.diagrams_equal) == (False, True)
    command = "verify oracle --surface p2 --degree 3 --points 8".split()
    code, out, err = run_cli(capsys, *command, "--format", "json")
    report = json.loads(out)
    assert (code, err, report["equal"], report["diagrams_equal"]) == (1, "", False, True)
    assert report["sweep"] == report["brute_force"] == {
        "valuation": -2, "coefficients": ["1", "0", "10", "0", "1"],
    }
    code, out, err = run_cli(capsys, *command)
    assert (code, err) == (1, "") and out.endswith("  equal: False\n")


def test_domain_error_exits_1(capsys):
    code, out, err = run_cli(capsys, "count", "--surface", "p2", "--degree", "0",
                             "--points", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    # negative genus
    code, _, err = run_cli(capsys, "count", "--surface", "p2", "--degree", "1",
                           "--points", "1")
    assert code == 1 and "genus" in err


@pytest.mark.parametrize("command", ["count", "enumerate", "gw", "log-gw", "verify degeneration",
                                     "verify oracle"])
def test_every_route_refuses_a_negative_genus_with_one_line(capsys, command):
    code, out, err = run_cli(capsys, *command.split(), "--surface", "p2", "--degree", "3",
                             "--points", "5")
    assert (code, out) == (1, "")
    assert err == "error: no diagrams: n = 5 gives negative genus -3 for P2(d=3)\n"


@pytest.mark.parametrize("command,line", [
    ("verify ab --a 1 --b 0 --points 2", "n = 2 gives negative genus -1 for F0(h=1,d=1)"),
    ("gw --surface fk --k 0 --h 1 --d 1 --points 2",
     "n = 2 gives negative genus -1 for F0(h=1,d=1)"),
    ("count --surface p2 --degree 3 --genus -1", "n = 7 gives negative genus -1 for P2(d=3)"),
])
def test_verify_ab_and_a_negative_genus_refuse_with_the_one_line(capsys, command, line):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, out) == (1, "")
    assert err == f"error: no diagrams: {line}\n"


@pytest.mark.parametrize("command,n", [
    ("count --surface p2 --degree 99999 --genus 0", 299996),
    # the maximal genus of degree 60, which the window-capacity prune reaches
    ("count --surface p2 --degree 60 --genus 1711", 1890),
    ("enumerate --surface p2 --degree 60 --genus 1711", 1890),
])
def test_class_deeper_than_the_recursion_limit_is_refused(capsys, monkeypatch, command, n):
    def no_work(*args, **kwargs):
        raise AssertionError("counted or listed before the point cap was checked")

    monkeypatch.setattr(diagrams, "_walk", no_work)
    monkeypatch.setattr(diagrams, "_state_sum", no_work)
    code, out, err = run_cli(capsys, *command.split())
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"error: n = {n} for P2(d=") and "over the point cap" in err
    assert f"_MAX_POINTS = {diagrams._MAX_POINTS}" in err


def test_maximal_genus_of_a_high_degree_counts_one(capsys):
    # n = 860: within the point cap, and one floor chain the prune walks at once
    code, out, err = run_cli(capsys, "count", "--surface", "p2", "--degree", "40",
                             "--genus", "741")
    assert code == 0 and err == ""
    assert out == "classical count for P2(d=40), n = 860: 1\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--surface", "p2", "--degree", "3"])  # missing --points/--genus
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--surface", "p2", "--points", "2"])  # missing --degree
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv,code", [
    ("count --surface p2 --degree 3 --genus 0", 0),
    ("verify ab --a 1 --b 0 --points 2", 1),  # a negative genus, refused in the command
    ("count --surface p2 --points 2", 2),  # an incomplete surface, refused in main's try
    ("count --surface p2 --degree 3", 2),  # refused by argparse, before the command
])
def test_main_restores_the_collector_on_every_exit(capsys, monkeypatch, enabled, argv, code):
    """The command runs with the cyclic collector off, and ``main`` leaves it
    as the caller had it, on a normal return, a domain error and a usage
    error (a ``SystemExit``) alike."""
    seen = []
    real = cli.refined_count
    monkeypatch.setattr(cli, "refined_count",
                        lambda delta, n: seen.append(gc.isenabled()) or real(delta, n))
    (gc.enable if enabled else gc.disable)()
    try:
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                main(argv.split())
            assert exc.value.code == 2
        else:
            assert main(argv.split()) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    capsys.readouterr()
    assert seen == ([False] if code == 0 else [])


def run_usage(capsys, monkeypatch, argv):
    """(exit code, stdout, stderr) of a call that argparse ends, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# SHA-256 of the -h output at 80 columns, taken when build_parser still built
# every subcommand on every call (Python 3.10.13, 3.11.7 and 3.12.1; 3.13.0
# wraps the usage of `verify degeneration` after "[--d D]" instead).  The
# verify targets' digests were retaken when their --format lost csv, the only
# change to their text.
HELP_DIGESTS = {
    "-h": "f475704fc0b00708c9d990280779a0cff68122d4a54e7ae64476ccab0b90b93b",
    "enumerate -h": "ec41661b4385612b29cc28d363ebfe696de788d9e44def6c0e7558e7d3880215",
    "count -h": "8de745c00b492fb5c8e56181adf7ca4c79e2bea8437273cb306192398d146169",
    "gw -h": "e83abf34ee623be089f6c995e1225473fffc009f55469e809466072c01f76a11",
    "log-gw -h": "f6ecb297209fdc51b4b9be4dab158715dfacd6cd6369060cfc296130ff29cfe2",
    "vertex -h": "4be5ad0f4be40fc75a5835dc55674c12e712e9d2d0b0c198325385cb9a112bec",
    "verify -h": "a4f1e74f11cbc1ad5f6cf289100289fcfc4a27d336e98686ecb91238f9ea4225",
    "verify degeneration -h":
        "7f3c209c22cc139c7d136ef8937bc18c229ee7291530447032f0b30acbd85bec"
        if sys.version_info >= (3, 13) else
        "d6231fa3b45a5201062d09414abc20e9320da2fea556cc5db376b026c57089e2",
    "verify ab -h": "412f2d1b03bbe72510f962cc379e112b659f8f9f182c31e5e178e1ddbe96e4ed",
    "verify oracle -h": "b1ad770b0f6b588dc8dd397a64106d4ca41c175f2929144b3257a949225d7527",
}


@pytest.mark.parametrize("command", HELP_DIGESTS)
def test_help_output_is_pinned(capsys, monkeypatch, command):
    code, out, err = run_usage(capsys, monkeypatch, command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]


TOP_USAGE = "usage: floorgw [-h] {enumerate,count,gw,log-gw,vertex,verify} ...\n"
VERIFY_USAGE = "usage: floorgw verify [-h] {degeneration,ab,oracle} ...\n"

# stderr of usage errors, taken with the parser of every subcommand built
USAGE_ERRORS = {
    "frobnicate": TOP_USAGE + (
        "floorgw: error: argument command: invalid choice: 'frobnicate' (choose from "
        "'enumerate', 'count', 'gw', 'log-gw', 'vertex', 'verify')\n"),
    "": TOP_USAGE + "floorgw: error: the following arguments are required: command\n",
    "verify": VERIFY_USAGE
    + "floorgw verify: error: the following arguments are required: target\n",
    "verify bogus": VERIFY_USAGE + (
        "floorgw verify: error: argument target: invalid choice: 'bogus' (choose from "
        "'degeneration', 'ab', 'oracle')\n"),
    "count --surface p2 --degree 3 --genus 0 extra":
        TOP_USAGE + "floorgw: error: unrecognized arguments: extra\n",
    "verify oracle --surface p2 --degree 2 --genus 0 extra":
        TOP_USAGE + "floorgw: error: unrecognized arguments: extra\n",
    # parser.error from a subcommand reports through the top-level parser
    "count --surface p2 --points 2": TOP_USAGE + "floorgw: error: --surface p2 requires --degree\n",
}


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_usage_error_text_is_pinned(capsys, monkeypatch, command):
    code, out, err = run_usage(capsys, monkeypatch, command.split())
    assert code == 2 and out == ""
    assert err == USAGE_ERRORS[command]


@pytest.mark.parametrize("target", [
    "degeneration --surface p2 --degree 3 --genus 0",
    "ab --a 1 --b 0 --points 3",
    "oracle --surface p2 --degree 3 --genus 0",
])
def test_verify_has_no_csv_format(capsys, monkeypatch, target):
    """A verify report has a json and a text form only: csv is a usage
    error, not the text report."""
    monkeypatch.setenv("COLUMNS", "1000")  # the usage on one line
    with pytest.raises(SystemExit) as exc:
        main(["verify", *target.split(), "--format", "csv"])
    captured = capsys.readouterr()
    name = "floorgw verify " + target.split()[0]
    assert exc.value.code == 2 and captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith(f"usage: {name} ") and usage.endswith("[--format {json,text}]")
    assert error == (f"{name}: error: argument --format: invalid choice: 'csv' "
                     "(choose from 'json', 'text')")


@pytest.mark.parametrize("flag,text", [("--mu", "a"), ("--nu", "1,x"), ("--mu", "0")])
def test_malformed_partition_exits_2(capsys, flag, text):
    with pytest.raises(SystemExit) as exc:
        main(["vertex", flag, text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"floorgw: error: {flag} ")


# texts that int() reads but str(int) never writes, the refusals of the JSON readers
NOT_INT_TEXT = ["1_0", " 3", "+3", "\u0663", "-0", "016"]


# each request, were the flag read as int() reads it, would end at once
@pytest.mark.parametrize("template,flag", [
    ("count --surface p2 --degree {} --points 2", "--degree"),
    ("count --surface p2 --degree={} --points 2", "--degree"),
    ("gw --surface p2 --degree 3 --genus 0 --order {}", "--order"),
    ("verify ab --a 2 --b {} --points 9", "--b"),
])
@pytest.mark.parametrize("text", NOT_INT_TEXT)
def test_integer_flag_takes_only_what_str_writes(capsys, monkeypatch, template, flag, text):
    """`--degree 1_0` once counted P2(d=10); now `_read` and argparse both refuse it."""
    argv = [token.replace("{}", text) for token in template.split()]
    assert cli._read(argv) is None
    code, out, err = run_usage(capsys, monkeypatch, argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(f": error: argument {flag}: invalid int value: {text!r}")


# a part is stripped of spaces first, so " 3" is a part 3
@pytest.mark.parametrize("text", [text for text in NOT_INT_TEXT if text == text.strip()])
def test_partition_part_takes_only_what_str_writes(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["vertex", "--mu", f"2,{text}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"floorgw: error: --mu must be a comma-separated list of positive integers, "
        f"got {f'2,{text}'!r}")


def test_partition_parts_are_stripped_of_spaces(capsys):
    assert run_cli(capsys, "vertex", "--mu", " 2, 1 ", "--order", "6") == \
        run_cli(capsys, "vertex", "--mu", "2,1", "--order", "6")


def test_byte_identical_reruns(capsys):
    args = ["gw", "--surface", "fk", "--k", "1", "--h", "2", "--d", "1",
            "--genus", "1", "--order", "14", "--format", "json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_too_small_order_is_one_line_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "verify", "degeneration", "--surface", "p2", "--degree", "2",
        "--points", "5", "--order", "2",
    )
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and "at least 5" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int-to-str digit limit")
@pytest.mark.parametrize("command", [
    "vertex --mu 1 --order 320",
    "vertex --mu 1 --order 320 --format json",
    "vertex --mu 1 --order 320 --format csv",
    "gw --surface p2 --degree 1 --points 2 --order 320 --format csv",
    "verify degeneration --surface p2 --degree 1 --points 2 --order 320",
])
def test_coefficient_past_the_int_to_str_limit_is_one_line_domain_error(capsys, command):
    # 2^m m! passes 640 digits below u^320, so these cheap jobs hit the limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, *command.split())
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "int-to-str limit" in err


@pytest.mark.parametrize("command,message", [
    ("gw --surface p2 --degree 4 --genus 0 --order 501", "order 501 is over the order cap 500"),
    ("log-gw --surface p2 --degree 3 --genus 0 --order 9999", "order 9999 is over the order cap"),
    ("verify degeneration --surface p2 --degree 4 --genus 0 --order 501", "order cap 500"),
    ("verify ab --a 3 --b 0 --points 11 --order 501", "order cap 500"),
    ("vertex --mu 5,4,3 --nu 6,6 --order 3000", "order 3000 is over the order cap 500"),
    ("vertex --mu 1000000000 --order 16", "|mu| + |nu| = 1000000000 is over the vertex size cap"),
    ("vertex --mu 5000,4999 --nu 2 --order 16", "|mu| + |nu| = 10001 is over the vertex size cap 10000"),
])
def test_series_request_over_a_cap_exits_1_before_any_work(capsys, monkeypatch, command, message):
    def no_work(*args, **kwargs):
        raise AssertionError("built a polynomial or a series past a cap")

    monkeypatch.setattr(diagrams, "_state_sum", no_work)
    monkeypatch.setattr(gw, "_sine_series", no_work)
    monkeypatch.setattr(gw.LaurentPolyS, "__init__", no_work)
    monkeypatch.setattr(gw.USeries, "__init__", no_work)
    code, out, err = run_cli(capsys, *command.split())
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err


def test_order_and_vertex_at_their_caps_are_accepted(capsys):
    code, out, err = run_cli(capsys, "vertex", "--mu", "5000,4998", "--nu", "2",
                             "--order", "500", "--format", "csv")
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("248,")


def test_order_may_end_below_zero_for_a_laurent_series(capsys):
    # P2 degree 1 starts at u^-1, so order 0 still carries the genus-0 term
    code, out, err = run_cli(
        capsys, "gw", "--surface", "p2", "--degree", "1", "--points", "2",
        "--order", "0",
    )
    assert code == 0 and err == ""
    assert "g=0 -> 1" in out


def test_verify_oracle_lists_once_with_each_enumerator(capsys, monkeypatch):
    calls = {"brute": 0, "sweep": 0}
    brute, sweep = oracle.brute_force_enumerate, diagrams._root_block

    def counted_brute(*args, **kwargs):
        calls["brute"] += 1
        return brute(*args, **kwargs)

    def counted_sweep(*args, **kwargs):
        calls["sweep"] += 1
        return sweep(*args, **kwargs)

    # both names: brute_force_refined_count would reach the oracle's own
    monkeypatch.setattr(gw, "brute_force_enumerate", counted_brute)
    monkeypatch.setattr(oracle, "brute_force_enumerate", counted_brute)
    monkeypatch.setattr(diagrams, "_root_block", counted_sweep)
    code, out, _ = run_cli(
        capsys, "verify", "oracle", "--surface", "p2", "--degree", "3", "--points", "8",
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["equal"] is True
    assert json.loads(out)["brute_force"] == {
        "valuation": -2, "coefficients": ["1", "0", "10", "0", "1"],
    }
    assert calls == {"brute": 1, "sweep": 1}


def test_verify_oracle_checks_the_cap_before_the_sweep_lists(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("counted or listed before the oracle's cap was checked")

    # P2 d=10 g=0 has 628,328,131,956,250,729 diagrams: counting them takes seconds
    monkeypatch.setattr(diagrams, "weight_profiles", no_work)
    monkeypatch.setattr(diagrams, "_root_block", no_work)
    for degree, genus, n in (("5", "3", 17), ("10", "0", 29)):
        code, out, err = run_cli(
            capsys, "verify", "oracle", "--surface", "p2", "--degree", degree, "--genus", genus,
        )
        assert code == 1 and out == ""
        assert err == f"error: n = {n} exceeds the brute-force cap 16\n"


def test_verify_oracle_refuses_a_negative_genus_before_its_cap(capsys, monkeypatch):
    """n = 17 on P2 d=10 is over the oracle's cap and of genus -12: the
    negative genus is refused first, with the count's line."""
    def no_work(*args, **kwargs):
        raise AssertionError("counted or listed a class of negative genus")

    monkeypatch.setattr(diagrams, "_state_sum", no_work)
    monkeypatch.setattr(diagrams, "_walk", no_work)
    monkeypatch.setattr(oracle, "_shapes", no_work)
    line = "error: no diagrams: n = 17 gives negative genus -12 for P2(d=10)\n"
    for command in ("count", "enumerate", "verify oracle"):
        code, out, err = run_cli(capsys, *command.split(), "--surface", "p2", "--degree", "10",
                                 "--points", "17")
        assert (code, out, err) == (1, "", line)


def test_library_listings_refuse_a_class_over_the_cap_without_listing(capsys, monkeypatch):
    """``enumerate_marked`` and ``oracle_cross_check`` refuse through the
    one guard of ``diagrams._listed``, with the CLI's line."""
    def no_listing(*args, **kwargs):
        raise AssertionError("listed past the cap")

    monkeypatch.setattr(diagrams, "_walk", no_listing)
    monkeypatch.setattr(gw, "brute_force_enumerate", no_listing)
    monkeypatch.setattr(oracle, "brute_force_enumerate", no_listing)
    for check, args, command in (
        (diagrams.enumerate_marked, (diagrams.degree_p2(7), 20),
         "enumerate --surface p2 --degree 7 --points 20"),
        (gw.oracle_cross_check, (diagrams.degree_hirzebruch(3, 3, 1), 16),
         "verify oracle --surface fk --k 3 --h 3 --d 1 --points 16"),
    ):
        with pytest.raises(diagrams.DiagramError) as exc:
            check(*args)
        assert f"LISTING_CAP = {diagrams.LISTING_CAP}" in str(exc.value)
        assert run_cli(capsys, *command.split()) == (1, "", f"error: {exc.value}\n")


def test_verify_oracle_json_is_the_report_of_oracle_cross_check(capsys):
    for delta, n in acceptance_grid():
        name = dict(delta.name)
        surface = (["p2", "--degree", str(name["degree"])] if name["family"] == "p2" else
                   ["fk", *(text for key in "khd" for text in (f"--{key}", str(name[key])))])
        code, out, err = run_cli(capsys, "verify", "oracle", "--surface", *surface,
                                 "--points", str(n), "--format", "json")
        assert (code, err) == (0, "")
        assert gw.oracle_cross_check(delta, n).to_json() == json.loads(out)


@pytest.mark.parametrize("flag,value", [("--max-weight", "1"), ("--max-elements", "17")])
def test_verify_oracle_has_no_options(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "oracle", "--surface", "p2", "--degree", "3", "--points", "8",
              flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"floorgw: error: unrecognized arguments: {flag} {value}"


@pytest.mark.parametrize("command,count", [
    ("enumerate --surface fk --k 3 --h 3 --d 3 --genus 0", 243320417),
    # n = 16 is within the oracle's own cap
    ("verify oracle --surface fk --k 3 --h 3 --d 1 --genus 0", 1020699),
])
def test_listing_over_the_cap_exits_1_without_listing(capsys, monkeypatch, command, count):
    def no_listing(*args, **kwargs):
        raise AssertionError("listed past the cap")

    monkeypatch.setattr(diagrams, "_root_block", no_listing)
    monkeypatch.setattr(diagrams, "_walk", no_listing)
    monkeypatch.setattr(gw, "brute_force_enumerate", no_listing)
    code, out, err = run_cli(capsys, *command.split())
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert f"has {count} diagrams," in err and f"LISTING_CAP = {diagrams.LISTING_CAP}" in err


@pytest.mark.parametrize("command", [
    # 1,020,699 diagrams, over the listing cap
    "--surface fk --k 3 --h 3 --d 1 --genus 0 --order 23",
    "--surface p2 --degree 6 --genus 0 --order 24",
    "--surface p2 --degree 6 --genus 10 --order 44",
    "--surface p2 --degree 7 --genus 0 --order 27",
])
def test_verify_degeneration_lists_nothing(capsys, monkeypatch, command):
    """Both routes read the weight profiles, so classes far past the listing
    cap are checked at order 2g + offset + 8 without listing a diagram."""
    def no_listing(*args, **kwargs):
        raise AssertionError("verify degeneration listed a diagram")

    monkeypatch.setattr(diagrams, "_walk", no_listing)
    monkeypatch.setattr(diagrams, "enumerate_marked", no_listing)
    code, out, err = run_cli(capsys, "verify", "degeneration", *command.split(),
                             "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["equal"] is True


def test_listing_cap_counts_diagrams_not_multiplicities(capsys, monkeypatch):
    """P2 d=3 g=0 has 9 diagrams and classical count 12."""
    command = "enumerate --surface p2 --degree 3 --genus 0".split()
    monkeypatch.setattr(diagrams, "LISTING_CAP", 9)
    code, out, err = run_cli(capsys, *command)
    assert code == 0 and err == ""
    assert out.startswith("9 marked diagram(s) for P2(d=3), n = 8\n")
    monkeypatch.setattr(diagrams, "LISTING_CAP", 8)
    code, out, err = run_cli(capsys, *command)
    assert code == 1 and out == ""
    assert err == ("error: P2(d=3), n = 8 has 9 diagrams, "
                   "over the listing cap LISTING_CAP = 8\n")


@pytest.mark.parametrize("command", [
    "verify degeneration --surface p2 --degree 3 --genus 1",
    "verify oracle --surface p2 --degree 3 --genus 1",
])
def test_verify_sums_the_refined_count_once(capsys, monkeypatch, command):
    # verify oracle takes the listing cap's count and the sweep's refined sum,
    # verify degeneration both its routes, from one weight_profiles call
    calls = []
    counted = diagrams.weight_profiles

    def counting(*args, **kwargs):
        calls.append(args)
        return counted(*args, **kwargs)

    for module in (gw, diagrams):
        monkeypatch.setattr(module, "weight_profiles", counting)
    code, _, _ = run_cli(capsys, *command.split())
    assert code == 0 and len(calls) == 1


# SHA-256 of the JSON stdout of high-order series jobs, whose coefficients
# have large denominators; the digests were taken before the integer
# convolution kernel replaced the per-term Fraction product.
SERIES_DIGESTS = {
    "gw --surface p2 --degree 3 --genus 0 --order 120":
        "1d5e1a4fd1abf26bad1e808b30181507e75e8a44a3eb7a70be5b5a713e9d4db2",
    "log-gw --surface fk --k 1 --h 2 --d 1 --genus 1 --order 60":
        "482a10d78b6c92fd48538193de807e06d1b50f5ad29a342273e30880aa6c25c3",
    "vertex --mu 3,2,1 --nu 1,1 --order 120":
        "e0215d97e94462b0d5e5d3ccc10a0ab605198156f19938a5cd5f9120b168ad4f",
    "verify ab --a 2 --b 1 --points 9 --order 40":
        "3b52a8c2a01db47c85ee346b0c4671cea6ec3fa44029bbc70231316fe769da33",
    "verify degeneration --surface p2 --degree 3 --genus 1 --order 48":
        "a0b8ea244629fb6a1f016c4f3a24c34518880ae214223d93fcb4236a70dbc60c",
    # high orders, and sine powers S^-6 (AB) and S^-1 (plane lines)
    "verify degeneration --surface p2 --degree 4 --genus 0 --order 160":
        "0ae3ab289dd36ec18a652f0168b49beb379ccb8d5a11a54faf8e03168df159b8",
    "verify ab --a 3 --b 0 --points 11 --order 120":
        "f607d62e79e1cfac93eb1caa6aca5cef2a12a8a37ff7127c57b26fcda2a2b943",
    "vertex --mu 5,4,3 --nu 6,6 --order 200":
        "c4fdc394f565b524d27319c4afa943495aa2383cce60fcc508fd058228f90a6b",
    "gw --surface p2 --degree 1 --points 2 --order 40":
        "691c9a4b5a75afdbf6edaf6a81a6d8a89343b42f561b5f89fb45f558b4fc617f",
}


@pytest.mark.parametrize("command", SERIES_DIGESTS)
def test_series_json_output_is_pinned(capsys, command):
    code, out, err = run_cli(capsys, *command.split(), "--format", "json")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_DIGESTS[command]


# SHA-256 of the text and CSV stdout of series jobs, and of all three formats at the
# order cap; the digests were taken while every USeries held one Fraction per
# coefficient, before the integer numerators over one denominator.
SERIES_FORMAT_DIGESTS = {
    "gw --surface p2 --degree 3 --genus 0 --order 120 --format text":
        "45dbc4fedcaa21fbd7149ca2bd35b3a22455774bd8522aba5252eb91e98557d1",
    "gw --surface p2 --degree 3 --genus 0 --order 120 --format csv":
        "63920b7848120fd64b79150578645e0472656e056691a1c34052edad0733a478",
    "log-gw --surface fk --k 1 --h 2 --d 1 --genus 1 --order 60 --format text":
        "8ee823fb5b6b51537013ff336d32a328471cebc4832fb43016a4d413ec80854d",
    "log-gw --surface fk --k 1 --h 2 --d 1 --genus 1 --order 60 --format csv":
        "a2bd9a492333a1b2e9a3db12d66380d0bf1645ef870f5b47bca4aab4661c9125",
    "vertex --mu 3,2,1 --nu 1,1 --order 120 --format text":
        "6a06c679b86732fa579d36023e8136a7b6ce4e197b3d10e417cac6b9918c6311",
    "vertex --mu 3,2,1 --nu 1,1 --order 120 --format csv":
        "6e7b803ffed824bc6677d5c69c0616a7ec97cbb2fd9a08fe8d3e1bd87e8cf1cc",
    "gw --surface p2 --degree 1 --points 2 --order 40 --format text":
        "66937502a887d7e15515e9def5299ec91fb7d70e3cbf48f58fbce3da1feb8483",
    "gw --surface p2 --degree 1 --points 2 --order 40 --format csv":
        "a6875ff20429d0ca939c02117120c34c7ae5240946bd07de9f444d134fe04106",
    "verify ab --a 2 --b 1 --points 9 --order 40 --format text":
        "c71ba90002012a27a572443e833e1bccac33c586ba7e69088efcabb7e7ea5a2e",
    "verify degeneration --surface p2 --degree 3 --genus 1 --order 48 --format text":
        "1cf30d27685e57916770d424964ecdbc7279d2d2c845b89382805f6114393023",
    "gw --surface p2 --degree 4 --genus 0 --order 500 --format json":
        "01d93a74937cdee057d1ae77bab61eac78449bf1792119743c9cbede9b24a7f7",
    "gw --surface p2 --degree 4 --genus 0 --order 500 --format text":
        "577769a5ae8b9c3021b35d548be3e0f5084c8b11155129108aa01e1b51f940b8",
    "gw --surface p2 --degree 4 --genus 0 --order 500 --format csv":
        "fc8d9bfdbbba50f93b452358cda968a2f64b43fc136e0de158edfe8981c82aa7",
    "log-gw --surface fk --k 1 --h 3 --d 1 --genus 0 --order 500 --format json":
        "ac45b2a6516356583cb56a5b8e353e807a1c838fabeb6733a2b7c154aa37b867",
    "log-gw --surface fk --k 1 --h 3 --d 1 --genus 0 --order 500 --format text":
        "d3491b92f81dad224d060fc0b058ef01ed092c408fcfcc9eb54f7387dbc8d954",
    "log-gw --surface fk --k 1 --h 3 --d 1 --genus 0 --order 500 --format csv":
        "85e1f71020f33e94db2e37c7558b85d3b050992ea3b0639c1fa0371ffe851151",
    "vertex --mu 5,4,3,2,1 --nu 3,3 --order 500 --format json":
        "2a3683c202c4968276b435fb77803d5ab843515ee8c42a7b778d9b9363b57ea1",
    "vertex --mu 5,4,3,2,1 --nu 3,3 --order 500 --format text":
        "04243390c07e215ccfad4d505207866b4ef3750b3e783320a3002ca791805964",
    "vertex --mu 5,4,3,2,1 --nu 3,3 --order 500 --format csv":
        "c15e97bd5c46344d69626da4bc65f96171a90f39d8001cd6f9ee7f285a1da3b1",
}


@pytest.mark.parametrize("command", SERIES_FORMAT_DIGESTS)
def test_series_text_csv_and_order_cap_output_is_pinned(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_FORMAT_DIGESTS[command]


COMMANDS = ("enumerate", "count", "gw", "log-gw", "vertex",
            "verify degeneration", "verify ab", "verify oracle")


SRC = str(Path(cli.__file__).parents[1])
# modules that no well-formed request runs: argparse with gettext, fractions with
# decimal and numbers; pytest itself imports argparse, so only a fresh process shows them
LAZY = ("argparse", "gettext", "fractions", "decimal", "numbers")


def test_import_loads_no_introspection_modules():
    # dataclasses would load inspect, ast, dis and tokenize into every floorgw
    # process, most of the package's own import time; -S keeps site hooks out
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import floorgw.cli; "
            f"print(sorted({{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', *{LAZY!r}}}"
            " & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True)
    assert run.stdout == "[]\n"


def fresh_cli(argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)`` in a fresh ``python -S`` at
    80 columns; when ``main`` returns, stderr ends with the LAZY modules loaded."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); from floorgw.cli import main; "
            f"code = main({argv!r}); "
            f"print(sorted(set({LAZY!r}) & set(sys.modules)), file=sys.stderr); sys.exit(code)")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={"COLUMNS": "80"})
    return run.returncode, run.stdout, run.stderr


def in_process(capsys, monkeypatch, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)`` here, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", [
    *(f"{leaf} --format {fmt}" for leaf in (
        "enumerate --surface p2 --degree 2 --genus 1",
        "count --surface fk --k 2 --h 3 --d 1 --genus 0 --refined",
        "gw --surface p2 --degree 3 --genus 1 --order 24",
        "log-gw --surface fk --k 1 --h 3 --d 1 --genus 0 --order 24",
        "vertex --mu 3,2,1 --nu 1,1 --order 24") for fmt in ("json", "csv", "text")),
    *(f"{leaf} --format {fmt}" for leaf in (
        "verify degeneration --surface p2 --degree 3 --genus 1 --order 48",
        "verify ab --a 2 --b 1 --points 9 --order 40",
        "verify oracle --surface p2 --degree 2 --genus 1") for fmt in ("json", "text")),
])
def test_well_formed_request_in_a_fresh_process_loads_no_argparse_or_fractions(
        capsys, monkeypatch, command):
    code, out, err = fresh_cli(command.split())
    assert (code, out) == in_process(capsys, monkeypatch, command.split())[:2]
    assert code == 0 and out and err == "[]\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command,code,pinned", [
    ("--help", 0, lambda out, err: _sha(out) == HELP_DIGESTS["-h"] and err == ""),
    ("verify --help", 0, lambda out, err: _sha(out) == HELP_DIGESTS["verify -h"] and err == ""),
    ("frobnicate", 2, lambda out, err: out == "" and err == USAGE_ERRORS["frobnicate"]),
    # argparse reads it, as _read reads --degree 2; main returns, so the report follows
    ("count --surface p2 --degree=2 --points 5", 0,
     lambda out, err: out == "classical count for P2(d=2), n = 5: 1\n"
     and err == "['argparse', 'gettext']\n"),
    ("count --surface p2 --degree 1_0 --points 2", 2, lambda out, err: out == ""
     and err.endswith("floorgw count: error: argument --degree: invalid int value: '1_0'\n")),
])
def test_help_usage_and_unusual_spellings_in_a_fresh_process(capsys, monkeypatch, command,
                                                             code, pinned):
    """What the lazily imported argparse serves keeps its bytes and exit code
    in a process that had not loaded argparse before."""
    fresh = fresh_cli(command.split())
    assert fresh[0] == code and pinned(*fresh[1:])
    here = in_process(capsys, monkeypatch, command.split())
    assert fresh[:2] == here[:2] and fresh[2].startswith(here[2])


# one well-formed request per leaf command, in the shapes of the floorbench jobs
WELL_FORMED = [
    "enumerate --surface p2 --degree 2 --genus 1 --format json",
    "count --surface fk --k 2 --h 3 --d 1 --genus 0 --refined --format json",
    "gw --surface p2 --degree 3 --genus 1 --order 24 --format json",
    "log-gw --surface fk --k 1 --h 3 --d 1 --genus 0 --order 24 --format json",
    "vertex --mu 3,2,1 --nu 1,1 --order 24 --format json",
    "verify degeneration --surface p2 --degree 3 --genus 1 --order 48 --format json",
    "verify ab --a 2 --b 1 --points 9 --order 40 --format json",
    "verify oracle --surface p2 --degree 2 --genus 1 --format json",
    "count --surface p2 --degree 3 --points 8",
]


# the whole tree, built once for every request compared with it
PARSER = cli.build_parser()


@pytest.mark.parametrize("command", WELL_FORMED)
def test_well_formed_request_is_read_as_argparse_reads_it(command):
    argv = command.split()
    args = cli._read(argv)
    assert args is not None
    assert vars(args) == vars(PARSER.parse_args(argv))


@pytest.mark.parametrize("command", WELL_FORMED)
def test_well_formed_request_builds_no_parser(capsys, monkeypatch, command):
    def no_parser(*args, **kwargs):
        raise AssertionError("built the argparse tree for a well-formed request")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0 and out and err == ""


@st.composite
def small_argv(draw):
    """argv for one subcommand with small, zero or negative values.  A flag
    the subcommand requires is left out now and then, and --points and
    --genus sometimes come together.  Now and then one flag is spelled as
    only argparse reads it: as --flag=value, as a unique prefix (--gen) or
    twice; or -h joins the flags."""

    def flag(name, values, present=st.integers(0, 9).map(bool)):
        return [[name, str(draw(values))]] if draw(present) else []

    def optional(name, values):
        return flag(name, values, st.booleans())

    small = st.integers(-1, 3)
    points = st.integers(-2, 10)
    partition = st.lists(st.integers(-1, 3), max_size=3).map(
        lambda parts: ",".join(map(str, parts))
    )
    command = draw(st.sampled_from(COMMANDS))
    flags = []
    if command == "vertex":
        flags += optional("--mu", partition) + optional("--nu", partition)
    elif command == "verify ab":
        flags += flag("--a", small) + flag("--b", small) + flag("--points", points)
    else:
        if draw(st.booleans()):
            flags += [["--surface", "p2"], *flag("--degree", small)]
        else:
            flags += [["--surface", "fk"], *flag("--k", small), *flag("--h", small),
                      *flag("--d", small)]
        which = draw(st.sampled_from(("points", "points", "genus", "genus", "both", "none")))
        if which in ("points", "both"):
            flags.append(["--points", str(draw(points))])
        if which in ("genus", "both"):
            flags.append(["--genus", str(draw(st.integers(-2, 3)))])
    if command in ("gw", "log-gw", "vertex", "verify degeneration", "verify ab"):
        flags += optional("--order", st.integers(-3, 12))
    if command == "count" and draw(st.booleans()):
        flags.append(["--refined"])
    flags += optional("--format", st.sampled_from(("text", "json", "csv")))
    spelling = draw(st.sampled_from(("plain",) * 4 + ("=", "prefix", "twice", "-h")))
    if flags and spelling != "plain":
        i = draw(st.integers(0, len(flags) - 1))
        if spelling == "=" and len(flags[i]) == 2:
            flags[i] = ["=".join(flags[i])]
        elif spelling == "prefix" and len(flags[i][0]) > 5:
            flags[i] = [flags[i][0][:5], *flags[i][1:]]
        elif spelling == "twice":
            flags.append(list(flags[i]))
        elif spelling == "-h":
            flags.insert(i, ["-h"])
    return command.split() + [token for pair in flags for token in pair]


@given(small_argv())
@settings(max_examples=400, deadline=None)
def test_read_agrees_with_argparse(argv):
    """Wherever ``_read`` answers, it answers as argparse does."""
    args = cli._read(argv)
    if args is not None:
        parsed = PARSER.parse_args(argv)
        assert vars(args) == vars(parsed) and args.run is parsed.run, argv


@given(small_argv())
@settings(max_examples=250, deadline=None)
def test_cli_fuzz_exits_with_a_code_and_no_traceback(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
