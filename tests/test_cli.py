"""Command-line behavior: payloads, exit codes, determinism."""

import json

import pytest

from floorgw.cli import main


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


@pytest.mark.parametrize("flag,text", [("--mu", "a"), ("--nu", "1,x"), ("--mu", "0")])
def test_malformed_partition_exits_2(capsys, flag, text):
    with pytest.raises(SystemExit) as exc:
        main(["vertex", flag, text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"floorgw: error: {flag} ")


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


def test_order_may_end_below_zero_for_a_laurent_series(capsys):
    # P2 degree 1 starts at u^-1, so order 0 still carries the genus-0 term
    code, out, err = run_cli(
        capsys, "gw", "--surface", "p2", "--degree", "1", "--points", "2",
        "--order", "0",
    )
    assert code == 0 and err == ""
    assert "g=0 -> 1" in out
