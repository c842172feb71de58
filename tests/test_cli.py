"""End-to-end command-line checks, driven through run() so exit codes
and emitted payloads are observable without a subprocess."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cyclodiff.cli import _split_prime_power, build_parser, run
from cyclodiff.errors import NotPrime

README = Path(__file__).resolve().parent.parent / "README.md"


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


# -- exit code contract ------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    for argv in (["frobnicate"], ["field"], ["field", "info"],
                 ["ds", "check", "--q", "7"],
                 # gb solve has no --strategy flag
                 ["gb", "solve", "--m", "6", "--theta", "0",
                  "--strategy", "block"]):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 1, argv
        capsys.readouterr()


def test_readme_cli_tour_parses():
    # parse only, run nothing: a flag the parser no longer knows cannot
    # linger in the README
    text = README.read_text()
    tour = re.search(r"## CLI tour\n+```sh\n(.*?)```", text, re.S).group(1)
    lines = [l for l in tour.splitlines() if l.startswith("cyclodiff ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_split_prime_power():
    assert _split_prime_power(49) == (7, 2)
    assert _split_prime_power(1024) == (2, 10)
    assert _split_prime_power(1048573) == (1048573, 1)
    with pytest.raises(NotPrime, match="1 is not a prime power"):
        _split_prime_power(1)
    for q in (6, 12):
        with pytest.raises(NotPrime, match="field order must be a prime"):
            _split_prime_power(q)


def test_runtime_errors_exit_1(capsys):
    # not a prime power
    assert run(["field", "info", "--p", "6"]) == 1
    assert "cyclodiff:" in capsys.readouterr().err
    # jacobi needs both characters
    assert run(["sums", "jacobi", "--q", "13", "--m", "4", "--s", "1"]) == 1
    capsys.readouterr()
    # unknown --limits key
    assert run(["gb", "probe-zero", "--m", "4", "--theta", "1",
                "--limits", '{"spairs": 1}']) == 1
    assert "unknown limit keys" in capsys.readouterr().err
    # malformed --limits JSON
    assert run(["gb", "probe-zero", "--m", "4", "--theta", "1",
                "--limits", "{oops"]) == 1
    capsys.readouterr()


def test_ds_check_rejects_an_order_that_does_not_divide(capsys):
    assert run(["ds", "check", "--q", "13", "--m", "0"]) == 1
    assert capsys.readouterr().err == "cyclodiff: m=0 does not divide q-1=12\n"
    # the same from a fresh interpreter: a clean message, no traceback
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "cyclodiff.cli", "ds", "check",
                           "--q", "13", "--m", "0"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr == "cyclodiff: m=0 does not divide q-1=12\n"


# -- field and sums ----------------------------------------------------------------


def test_field_info(capsys):
    assert run(["field", "info", "--p", "3", "--e", "2"]) == 0
    payload = _json_out(capsys)
    assert payload["p"] == 3 and payload["e"] == 2 and payload["q"] == 9
    assert payload["modulus"] == [1, 0, 1]
    assert isinstance(payload["generator"], int)


def test_sums_gauss_shape(capsys):
    assert run(["sums", "gauss", "--q", "13", "--m", "4", "--s", "1"]) == 0
    payload = _json_out(capsys)
    assert payload["value"]["order"] == 52
    assert len(payload["value"]["coeffs"]) == 24     # phi(52)
    assert run(["sums", "gauss", "--q", "13", "--m", "4", "--s", "1",
                "--numeric"]) == 0
    payload = _json_out(capsys)
    re, im = payload["numeric"]
    assert abs(re * re + im * im - 13) < 1e-6        # |G|^2 = q


def test_sums_jacobi_value(capsys):
    assert run(["sums", "jacobi", "--q", "13", "--m", "4",
                "--s", "1", "--t", "1"]) == 0
    payload = _json_out(capsys)
    assert payload["value"] == {"order": 4, "coeffs": [3, -2]}


# -- difference sets ---------------------------------------------------------------


def test_ds_check_known_hit(capsys):
    assert run(["ds", "check", "--q", "73", "--m", "8",
                "--methods", "direct,charsum,jacobi,gauss"]) == 0
    payload = _json_out(capsys)
    assert payload["verdict"] == "difference_set"
    assert payload["family"] == "lehmer_octic"
    assert set(payload["methods"].values()) == {"difference_set"}


def test_ds_check_negative(capsys):
    assert run(["ds", "check", "--q", "53", "--m", "4",
                "--methods", "direct,charsum,jacobi,gauss"]) == 0
    payload = _json_out(capsys)
    assert payload["verdict"] == "not_difference_set"
    assert payload["family"] is None


def test_ds_check_keeps_method_order_and_skips_past_bounds(capsys):
    # m = 2052 exceeds the ring bound; the payload follows --methods order
    assert run(["ds", "check", "--q", "2053", "--m", "2052",
                "--methods", "gauss,direct,jacobi"]) == 0
    payload = _json_out(capsys)
    assert list(payload["methods"].items()) == [
        ("gauss", "skipped"), ("direct", "difference_set"),
        ("jacobi", "skipped")]
    assert payload["verdict"] == "difference_set"


def test_ds_check_with_no_deciding_route_is_undecided(capsys):
    # m = 130 is past gauss_check_m_max, so the only route named is skipped
    assert run(["ds", "check", "--q", "131", "--m", "130",
                "--methods", "gauss"]) == 1
    payload = _json_out(capsys)
    assert payload["verdict"] == "undecided"
    assert payload["methods"] == {"gauss": "skipped"}
    # a route that decides still settles the instance
    assert run(["ds", "check", "--q", "131", "--m", "130",
                "--methods", "gauss,direct"]) == 0
    assert _json_out(capsys)["verdict"] == "difference_set"


def test_ds_check_with_no_methods_is_a_usage_error(capsys):
    for methods in ("", ",", " , "):
        assert run(["ds", "check", "--q", "13", "--m", "3",
                    "--methods", methods]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "cyclodiff: --methods names no route\n"


def test_ds_scan_order_bounds_are_ranges(capsys):
    # a huge --m-max is a range, never a list: same rows as no bound
    assert run(["ds", "scan", "--m-max", str(10 ** 15), "--q-max", "100",
                "--all-rows"]) == 0
    bounded = _json_out(capsys)
    assert run(["ds", "scan", "--q-max", "100", "--all-rows"]) == 0
    assert _json_out(capsys) == bounded
    # --even alone spans 1..q_max - 1; past scan_q_max it stops on the bound
    assert run(["ds", "scan", "--even", "--q-max", str(10 ** 12)]) == 1
    assert "exceeds" in capsys.readouterr().err
    for parity, want in (("--even", {4, 6, 8}), ("--odd", {3, 5, 7, 9})):
        assert run(["ds", "scan", parity, "--m-min", "3", "--m-max", "9",
                    "--q-max", "400", "--all-rows"]) == 0
        assert {r["m"] for r in _json_out(capsys)["rows"]} == want, parity
    assert run(["ds", "scan", "--m", "5", "--even", "--q-max", "100",
                "--all-rows"]) == 0
    assert _json_out(capsys)["rows"] == []


def test_ds_scan_rejects_fewer_than_one_worker(capsys):
    for workers in ("0", "-3"):
        assert run(["ds", "scan", "--m", "2", "--q-max", "30",
                    "--workers", workers]) == 1
        assert "workers must be at least 1" in capsys.readouterr().err


def test_ds_scan_quadratic(capsys):
    assert run(["ds", "scan", "--m", "2", "--q-max", "60",
                "--modified-mode", "plain"]) == 0
    payload = _json_out(capsys)
    hits = {row["q"] for row in payload["nontrivial_hits"]}
    assert hits == {7, 11, 19, 23, 27, 31, 43, 47, 59}
    assert payload["hits"] == 10          # q = 3 hits trivially
    assert payload["unexplained"] == []


def test_ds_check_text_format(capsys):
    assert run(["ds", "check", "--q", "7", "--m", "2",
                "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "verdict: difference_set" in out


# -- systems through files ---------------------------------------------------------


def test_sys_gen_parse_round_trip(tmp_path, capsys):
    first = tmp_path / "sys.txt"
    second = tmp_path / "reparse.txt"
    assert run(["sys", "gen", "--m", "6", "--format", "text",
                "--output", str(first)]) == 0
    assert run(["sys", "parse", "--system", str(first), "--format", "text",
                "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_sys_verify_pipeline(tmp_path, capsys):
    system = tmp_path / "sys.txt"
    sol = tmp_path / "sol.json"
    assert run(["sys", "gen", "--m", "6", "--format", "text",
                "--output", str(system)]) == 0
    assert run(["sys", "explicit", "--m", "6", "--output", str(sol)]) == 0
    assert run(["sys", "verify", "--system", str(system),
                "--solution", str(sol), "--mode", "exact"]) == 0
    payload = _json_out(capsys)
    assert payload["ok"] is True

    # a well-formed point off the variety is a discrepancy, not a crash
    data = json.loads(sol.read_text())
    data["values"][0]["coeffs"][0] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["sys", "verify", "--system", str(system),
                "--solution", str(bad), "--mode", "exact"]) == 2
    assert _json_out(capsys)["ok"] is False


def test_sys_verify_rejects_malformed_solution_json(tmp_path, capsys):
    system = tmp_path / "sys.txt"
    sol = tmp_path / "sol.json"
    assert run(["sys", "gen", "--m", "6", "--format", "text",
                "--output", str(system)]) == 0
    assert run(["sys", "explicit", "--m", "6", "--output", str(sol)]) == 0
    no_coeffs = json.loads(sol.read_text())
    del no_coeffs["values"][2]["coeffs"]
    for data, missing in (({}, "'values'"), (no_coeffs, "'coeffs'")):
        sol.write_text(json.dumps(data))
        assert run(["sys", "verify", "--system", str(system),
                    "--solution", str(sol)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"cyclodiff: solution JSON lacks the key {missing}\n"


def test_sys_from_field_over_an_extension_field(capsys):
    assert run(["sys", "from-field", "--q", "9", "--m", "8"]) == 0
    provenance = _json_out(capsys)["provenance"]
    assert (provenance["p"], provenance["e"]) == (3, 2)
    assert provenance["is_difference_set"] is True


def test_sys_from_field_bridge_verify(tmp_path, capsys):
    gsol = tmp_path / "g.json"
    ghat = tmp_path / "ghat.json"
    system = tmp_path / "sys.txt"
    assert run(["sys", "from-field", "--q", "7", "--m", "6",
                "--output", str(gsol)]) == 0
    assert run(["sys", "bridge", "--m", "6", "--theta", "2",
                "--solution", str(gsol), "--output", str(ghat)]) == 0
    assert run(["sys", "gen", "--m", "6", "--level", "ghat", "--theta", "2",
                "--format", "text", "--output", str(system)]) == 0
    assert run(["sys", "verify", "--system", str(system),
                "--solution", str(ghat), "--mode", "scaled"]) == 0
    assert _json_out(capsys)["ok"] is True
    # theta mismatch between flag and recovered branch
    assert run(["sys", "bridge", "--m", "6", "--theta", "1",
                "--solution", str(gsol)]) == 1
    capsys.readouterr()


# -- basis pipeline ----------------------------------------------------------------


def test_gb_solve_unit_ideal(capsys):
    assert run(["gb", "solve", "--m", "4", "--theta", "0"]) == 0
    payload = _json_out(capsys)
    assert payload["coeffs"] == [1]
    assert "stats" in payload


def test_gb_solve_text_line(capsys):
    assert run(["gb", "solve", "--m", "6", "--theta", "1",
                "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "F 6 1 : -1 0 7"


def test_gb_solve_undecided(capsys):
    assert run(["gb", "solve", "--m", "6", "--theta", "0",
                "--limits", '{"gb_max_spairs": 5}']) == 1
    payload = _json_out(capsys)
    assert payload["result"] == "undecided"
    assert payload["stats"]["spairs_reduced"] >= 1


def test_gb_table_fixtures(capsys):
    assert run(["gb", "table", "--m", "16", "--fixtures-only"]) == 0
    payload = _json_out(capsys)
    assert payload["checks"]["gate"]["gate_holds"] is True
    assert payload["checks"]["product"]["combined_divides_product"] is True
    thetas = {row["theta"] for row in payload["rows"]}
    assert thetas == {0, 1, 2, 4}
    assert run(["gb", "table", "--m", "16", "--fixtures-only",
                "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "gate_ok=True" in out and "theta  2  17*x^2 - 1" in out


def test_gb_probe_zero(capsys):
    assert run(["gb", "probe-zero", "--m", "4", "--theta", "1"]) == 0
    assert _json_out(capsys)["result"] == "nonempty"
