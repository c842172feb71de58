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


def test_readme_library_use_runs():
    # run the block as written: a removed export cannot linger there
    text = README.read_text()
    block = re.search(r"Typical library use:\n+```python\n(.*?)```", text,
                      re.S).group(1)
    assert "import" in block and "assert" in block
    exec(compile(block, "README.md", "exec"), {})


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


def test_ds_scan_rejects_an_empty_order_range(capsys):
    # an empty range would print "instances": 0 and pass as a clean scan;
    # a parity flag can empty a range that its bounds alone do not
    for bounds in (["--m-min", "5", "--m-max", "2"], ["--m-max", "0"],
                   ["--m-min", "50"], ["--m", "5", "--even", "--all-rows"],
                   ["--m-min", "4", "--m-max", "4", "--odd"]):
        assert run(["ds", "scan", *bounds, "--q-max", "50"]) == 1, bounds
        out = capsys.readouterr()
        assert out.out == "", bounds
        assert "no order to scan" in out.err, bounds
    # no m <= 0 and no m >= q_max divides any q - 1 with q <= q_max
    for bounds in (["--m", "0"], ["--m", "-4"], ["--m-min", "-3", "--m-max", "0"],
                   ["--m", "500"], ["--m-min", "-9", "--m-max", "1", "--even"]):
        assert run(["ds", "scan", *bounds, "--q-max", "100"]) == 1, bounds
        out = capsys.readouterr()
        assert out.out == "", bounds
        assert "no order to scan" in out.err, bounds
    for q_max in ("1", "0", "-5"):
        for bounds in ([], ["--m", "2"]):
            assert run(["ds", "scan", *bounds, "--q-max", q_max]) == 1, q_max
            out = capsys.readouterr()
            assert out.out == "", q_max
            assert "no field to scan" in out.err, q_max
    assert run(["ds", "scan", "--m-min", "2", "--m-max", "2",
                "--q-max", "50"]) == 0
    assert _json_out(capsys)["instances"] > 0


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


def test_sys_verify_refuses_a_tolerance_outside_zero_to_infinity(
        tmp_path, capsys):
    # g1 = 5 is far off the variety (max_bound 24.5); --tol inf used to
    # certify it, and -1 or nan reported a usage error as a discrepancy
    system = tmp_path / "sys.txt"
    sol = tmp_path / "sol.json"
    assert run(["sys", "gen", "--m", "6", "--format", "text",
                "--output", str(system)]) == 0
    assert run(["sys", "explicit", "--m", "6", "--output", str(sol)]) == 0
    data = json.loads(sol.read_text())
    data["values"][1]["coeffs"] = [5, 0, 0, 0]
    sol.write_text(json.dumps(data))
    argv = ["sys", "verify", "--system", str(system), "--solution", str(sol),
            "--mode", "numeric", "--tol"]
    assert run(argv + ["1e-9"]) == 2
    assert _json_out(capsys)["ok"] is False
    for tol in ("inf", "-1", "nan"):
        assert run(argv + [tol]) == 1, tol
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("cyclodiff: tolerance must be finite")


def test_sys_parse_refuses_a_repeated_variable_name(tmp_path, capsys):
    text = tmp_path / "sys.txt"
    for names in ("g0 g0", "h g0 h"):
        text.write_text("# cyclodiff-system v1 m=2 level=g theta=-\n"
                        f"vars: {names}\npoly: 1*g0^2\n")
        assert run(["sys", "parse", "--system", str(text)]) == 1, names
        out = capsys.readouterr()
        assert out.out == ""
        assert "repeated variable name" in out.err


def test_sys_verify_rejects_malformed_solution_json(tmp_path, capsys):
    system = tmp_path / "sys.txt"
    sol = tmp_path / "sol.json"
    assert run(["sys", "gen", "--m", "6", "--format", "text",
                "--output", str(system)]) == 0
    assert run(["sys", "explicit", "--m", "6", "--output", str(sol)]) == 0
    no_coeffs = json.loads(sol.read_text())
    del no_coeffs["values"][2]["coeffs"]
    zero_den = json.loads(sol.read_text())
    zero_den["values"][2]["den"] = 0
    bad_level = json.loads(sol.read_text())
    bad_level["level"] = "foo"
    frac = json.loads(sol.read_text())
    c = frac["values"][2]["coeffs"][0]
    frac["values"][2]["coeffs"][0] = c + (0.25 if c >= 0 else -0.25)
    for data, message in (({}, "lacks the key 'values'"),
                          (no_coeffs, "lacks the key 'coeffs'"),
                          (zero_den, "has a zero denominator"),
                          (bad_level, "has an unknown level 'foo'")):
        sol.write_text(json.dumps(data))
        assert run(["sys", "verify", "--system", str(system),
                    "--solution", str(sol)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"cyclodiff: solution JSON {message}\n"
    # truncated toward zero, this coefficient used to verify as the point
    sol.write_text(json.dumps(frac))
    assert run(["sys", "verify", "--system", str(system),
                "--solution", str(sol)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("cyclodiff: malformed solution JSON: "
                              "non-integral coefficients")


def test_sys_bridge_rejects_a_solution_of_the_wrong_length(tmp_path, capsys):
    # m = 4 needs 5 values at level g and 4 at level ghat; two are refused
    sol = tmp_path / "sol.json"
    short = [{"order": 1, "coeffs": [1]}] * 2
    for level, theta, want in (("ghat", 1, 4), ("g", None, 5)):
        sol.write_text(json.dumps({"level": level, "m": 4, "theta": theta,
                                   "provenance": {}, "values": short}))
        assert run(["sys", "bridge", "--m", "4", "--theta", "1",
                    "--solution", str(sol)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"cyclodiff: {level}-level solution at m=4 "
                           f"needs {want} values, got 2\n")


def test_sys_from_field_rejects_an_order_that_does_not_divide(capsys):
    assert run(["sys", "from-field", "--q", "7", "--m", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "cyclodiff: m=0 does not divide q-1=6\n"


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


def test_gb_solve_timeout_reason_states_the_limit(capsys):
    # a limit below one second is printed as given, not rounded to 0s
    assert run(["gb", "solve", "--m", "4", "--theta", "0",
                "--limits", '{"gb_timeout": 1e-9}']) == 1
    payload = _json_out(capsys)
    assert payload["result"] == "undecided"
    assert payload["reason"] == "timeout after 1e-09s"


def test_gb_table_undecided_rows_say_why(capsys):
    limits = ["--limits", '{"gb_max_spairs": 1}']
    assert run(["gb", "table", "--m", "6"] + limits) == 0
    rows = _json_out(capsys)["rows"]
    assert [row["status"] for row in rows] == ["undecided"] * 2
    for row in rows:
        assert row["reason"] == "S-pair budget 1 exhausted"
        assert row["stats"]["spairs_reduced"] == 1
    assert run(["gb", "table", "--m", "6", "--format", "text"] + limits) == 0
    out = capsys.readouterr().out
    assert "x^2 - 4  [undecided: S-pair budget 1 exhausted]" in out


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


def test_gb_table_checks_limits_without_computing(capsys):
    # --fixtures-only computes no row, yet a bad --limits still exits 1
    for limits in ("{bad", '{"gb_max_spairs": 0}'):
        assert run(["gb", "table", "--m", "6", "--fixtures-only",
                    "--limits", limits]) == 1, limits
        assert "cyclodiff:" in capsys.readouterr().err


def test_gb_probe_zero(capsys):
    assert run(["gb", "probe-zero", "--m", "4", "--theta", "1"]) == 0
    assert _json_out(capsys)["result"] == "nonempty"


def test_gb_probe_zero_limit_exits_1_with_reason_and_stats(capsys):
    # as gb solve: a limit is undecided, says why, and exits 1
    assert run(["gb", "probe-zero", "--m", "6", "--theta", "0",
                "--limits", '{"gb_max_spairs": 1}']) == 1
    payload = _json_out(capsys)
    assert payload["result"] == "undecided"
    assert payload["reason"] == "S-pair budget 1 exhausted"
    assert payload["stats"]["spairs_reduced"] == 1
