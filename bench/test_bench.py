"""Tests of the benchmark itself: the tail rule, self-time arithmetic,
answer digests, the comparison rule, the span recorder, and each
workload at a tiny size.  Run with PYTHONPATH=src from the repo root:

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import stats
import workloads
from spans import TARGETS, Recorder, layer_totals

cyclodiff = pytest.importorskip("cyclodiff")
import cyclodiff.cli  # noqa: E402,F401  (workloads reach the CLI as cd.cli)

ROOT = Path(__file__).resolve().parent.parent


def test_tail_is_highest_percentile_with_ten_items_beyond():
    lat = list(range(1, 691))
    random.Random(1).shuffle(lat)
    value, pct, n = stats.tail(lat)
    assert (value, n) == (680, 690)
    assert sum(1 for x in lat if x > value) == 10
    assert round(pct, 1) == 98.4
    assert stats.tail(list(range(11))) == (0, 0.0, 11)
    assert stats.tail([3.0, 9.0, 1.0]) == (9.0, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def test_self_time_subtracts_direct_children_only():
    def span(i, parent, name, start, end, tag=None, error=None):
        return {"id": i, "parent": parent, "name": name, "start": start,
                "end": end, "tag": tag, "error": error}
    spans = [span(0, None, "cli.run", 0.0, 10.0),
             span(1, 0, "diffsets.scan", 1.0, 9.0),
             span(2, 1, "ff.field_build", 2.0, 3.0, tag="ext"),
             span(3, 1, "ff.field_build", 4.0, 4.5),
             span(4, 1, "diffsets.check_gauss", 5.0, 7.0,
                  error="BoundExceeded"),
             span(5, None, "diffsets.check_direct", 11.0, 12.0)]
    own = stats.self_times(spans)
    assert own == {0: 2.0, 1: 4.5, 2: 1.0, 3: 0.5, 4: 2.0, 5: 1.0}
    totals = layer_totals(spans)
    assert totals["calls"]["ff.field_build"] == 2
    assert totals["self_s"]["ff.field_build"] == 1.5
    assert totals["ext_self_s"] == 1.0
    assert totals["roots_s"] == 11.0
    assert totals["errors"][("diffsets.check_gauss", "BoundExceeded")] == 1


def test_digest_ignores_order_and_gate_reports_first_difference():
    answers = [[[q, m], [q * m]] for q in range(5) for m in range(3)]
    shuffled = answers[:]
    random.Random(3).shuffle(shuffled)
    assert stats.digest(answers) == stats.digest(shuffled)
    expected = {stats.canonical(k): v for k, v in answers}
    assert stats.gate(shuffled, expected) == (15, 0, None)
    changed = [a[:] for a in shuffled if a[0] != [4, 2]] + [[[4, 2], [0]]]
    assert stats.digest(changed) != stats.digest(answers)
    attempted, failed, first = stats.gate(changed + [[[9, 9], [0]]], expected)
    assert (attempted, failed) == (16, 2)
    assert first.startswith("item [4,2]")


def test_compare_rule():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p * 0.8 for p in parent]
    slower = [p * 1.3 for p in parent]
    same = [p * 1.01 for p in parent]
    assert stats.compare(parent, faster, "lower", 0.1)[0] == "improved"
    assert stats.compare(parent, slower, "lower", 0.1)[0] == "worse"
    assert stats.compare(parent, same, "lower", 0.1)[0] == "within bound"
    noisy = [5.0, 15.0, 5.0, 15.0, 10.0, 5.0, 15.0, 10.0, 5.0, 15.0]
    assert stats.compare(noisy, same, "lower", 0.1)[0] == "unresolved"
    assert stats.compare(parent, slower, "higher", 0.1)[0] == "improved"


def _records(workload, walls, correct=True):
    return [{"workload": workload, "trace": 0, "correct": correct,
             "metrics": {name: wall for name in run.END_TO_END}}
            for wall in walls]


def test_compare_records_needs_ten_even_pairs_and_correct_answers():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p * 0.8 for p in parent]
    rows = run.compare_records(_records("agree", parent),
                               _records("agree", faster))
    assert [(w, row) for w, row, _ in rows] == [("agree", "improved")]
    # one lucky pair is not an improvement: its spread reads as zero
    rows = run.compare_records(_records("agree", parent[:1]),
                               _records("agree", faster[:1]))
    assert rows[0][1] == "unresolved"
    rows = run.compare_records(_records("agree", parent),
                               _records("agree", faster[:9]))
    assert rows[0][1] == "unresolved"
    # a faster change with a wrong answer is worse
    wrong = _records("agree", faster)
    wrong[4]["correct"] = False
    rows = run.compare_records(_records("agree", parent), wrong)
    assert rows[0][1] == "worse"
    assert "1 of 10 change results not correct" in rows[0][2][0]


def _check_answers(res, name):
    assert res.checks == []
    assert len(res.latencies) >= 1
    assert abs(sum(res.latencies) - res.wall) < 1e-6
    for key, value in res.answers:
        assert "error" not in value and "disagree" not in value, (name, key)


def test_agree_tiny_and_digest_independent_of_field_order():
    a = workloads.agree(cyclodiff, 0, q_max=50)
    b = workloads.agree(cyclodiff, 7, q_max=50)
    _check_answers(a, "agree")
    assert [k for k, _ in a.answers] != [k for k, _ in b.answers]
    assert stats.digest(a.answers) == stats.digest(b.answers)
    assert len(a.latencies) == len(a.answers) > 20


def test_identities_tiny():
    res = workloads.identities(cyclodiff, 3, q_max=50)
    _check_answers(res, "identities")
    assert all(value[1] == [] for _, value in res.answers)


def test_scan_even_tiny():
    res = workloads.scan_even(cyclodiff, 0, m_min=10, m_max=22, q_max=200,
                              workers=1)
    _check_answers(res, "scan_even")
    assert len(res.latencies) == 1 and len(res.answers) > 0


def test_elim_tiny_and_a_failing_item_does_not_stop_the_rest():
    # at order 4 theta = 1 is a curve, so compute_f_poly raises
    res = workloads.elim6(cyclodiff, 5, m=4, thetas=[1, 0],
                          strategy="quotient")
    assert res.answers[0][0] == [4, 1] and res.answers[0][1][0] == "error"
    assert res.answers[1] == [[4, 0], [1]]
    assert len(res.latencies) == 2 and res.stats[1]["generators"] == 1


def test_recorder_covers_agree_and_reports_missing_targets():
    rec = Recorder()
    rec.install(TARGETS + [("x.y", "cyclodiff.ff", "no_such_function")])
    try:
        res = workloads.agree(cyclodiff, 0, q_max=60)
    finally:
        rec.uninstall()
    assert rec.missing == ["cyclodiff.ff.no_such_function"]
    # every lookup is restored, including the by-name imports
    assert cyclodiff.charsums.reduction_rows is cyclodiff.cyclotomic.reduction_rows
    assert not hasattr(cyclodiff.diffsets.check_direct, "__wrapped__")
    totals = layer_totals(rec.as_dicts())
    calls = totals["calls"]
    n = len(res.answers)
    for name in ("diffsets.check_direct", "diffsets.check_charsum",
                 "diffsets.check_jacobi", "diffsets.check_gauss",
                 "diffsets.cyclotomic_class"):
        assert calls[name] == n, name
    # make_field caches fields across tests, so some may be built already
    assert calls["ff.field_build"] <= len(workloads.prime_powers(60))
    assert calls["cyclotomic.reduction_rows"] > 0
    assert res.wall - totals["roots_s"] <= 0.1 * res.wall


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run.WORKLOADS) == set(workloads.RUNNERS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    predictions = json.loads((ROOT / "bench" / "predictions.json").read_text())
    assert set(predictions["layers"]) == set(run.PER_LAYER)
    assert set(predictions["workloads"]) == set(run.WORKLOADS)
    reference = run.load_reference()
    assert set(reference) == set(run.WORKLOADS)
    for workload, entry in reference.items():
        answers = [[json.loads(k), v] for k, v in entry["items"].items()]
        assert stats.digest(answers) == entry["digest"], workload
    assert {json.loads(k)[1]: v for k, v in
            reference["elim6"]["items"].items()} == workloads.F6_ROWS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "agree", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
