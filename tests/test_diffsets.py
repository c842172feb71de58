"""Difference-set checkers, parameter logic, families, multipliers, scans."""

import json

import numpy as np
import pytest

from cyclodiff import diffsets
from cyclodiff.cli import run as cli_run
from cyclodiff.diffsets import (ROUTES, ClassificationTable, DSParams,
                                VERDICT_DS, VERDICT_INFEASIBLE, VERDICT_NOT,
                                check_charsum, check_direct, check_gauss,
                                check_jacobi, cyclotomic_class,
                                difference_counts, known_family_match,
                                multiplier_check, prime_powers,
                                run_all_checkers, run_routes, scan)
from cyclodiff.errors import (BoundExceeded, OrderDoesNotDivide, ZeroGamma,
                              ZeroMultiplier)
from cyclodiff.ff import make_field


def test_params_known_instances():
    p = DSParams.from_instance(7, 2, False)
    assert (p.v, p.k, p.lam, p.n) == (7, 3, 1, 2)
    assert p.feasible and not p.trivial
    p = DSParams.from_instance(11, 2, False)
    assert (p.v, p.k, p.lam) == (11, 5, 2)
    p = DSParams.from_instance(16, 3, True)
    assert (p.v, p.k, p.lam) == (16, 6, 2)
    p = DSParams.from_instance(13, 4, True)
    assert (p.v, p.k, p.lam) == (13, 4, 1)
    p = DSParams.from_instance(73, 8, False)
    assert (p.v, p.k, p.lam) == (73, 9, 1)


def test_params_feasibility_and_trivial():
    assert not DSParams.from_instance(13, 4, False).feasible   # 4 does not divide 2
    assert DSParams.from_instance(53, 4, False).feasible
    assert DSParams.from_instance(5, 4, False).trivial         # k = 1
    assert not DSParams.from_instance(5, 2, True).feasible     # 2 does not divide 3
    assert DSParams.from_instance(3, 2, True).feasible
    assert DSParams.from_instance(3, 2, True).trivial          # n = 1


def test_class_construction():
    field = make_field(13)
    h = cyclotomic_class(field, 4, False)
    assert h.codes.tolist() == [1, 3, 9]
    m = cyclotomic_class(field, 4, True)
    assert m.codes.tolist() == [0, 1, 3, 9]
    assert field.element(3) in h and field.element(5) not in h
    assert len(h) == 3 and len(m) == 4
    with pytest.raises(OrderDoesNotDivide):
        cyclotomic_class(field, 5, False)


KNOWN_POSITIVES = [(7, 2, False), (11, 2, False), (37, 4, False),
                   (101, 4, False), (73, 8, False), (13, 4, True),
                   (16, 3, True)]


def _field_of(q):
    p, e = {16: (2, 4), 9: (3, 2), 27: (3, 3), 25: (5, 2)}.get(q, (q, 1))
    return make_field(p, e)


def test_classes_refuse_another_fields_elements():
    # the class of F_7 used to contain F_5's element 4, and H(11, 2), a
    # Paley set, was judged not to be one through the class of F_7
    f7, f11 = make_field(7), make_field(11)
    h7 = cyclotomic_class(f7, 2)
    assert f7.element(4) in h7 and 4 in h7
    with pytest.raises(ValueError):
        make_field(5).element(4) in h7
    for call in (lambda: check_direct(f11, h7),
                 lambda: run_routes(f11, h7, ROUTES),
                 lambda: run_routes(f11, h7, ("charsum",)),
                 lambda: multiplier_check(f11, h7, 3)):
        with pytest.raises(ValueError):
            call()
    assert check_direct(f11, cyclotomic_class(f11, 2)).verdict == VERDICT_DS


def test_direct_on_known_positives():
    for q, m, modified in KNOWN_POSITIVES:
        field = _field_of(q)
        report = check_direct(field, cyclotomic_class(field, m, modified))
        assert report.verdict == VERDICT_DS, (q, m, modified)
        assert report.family is not None
        assert report.witness is None


def test_direct_negative_and_witness():
    field = make_field(53)
    report = check_direct(field, cyclotomic_class(field, 4, False))
    assert report.verdict == VERDICT_NOT
    gamma, count = report.witness
    # recount at the witness and compare
    _, b, _ = difference_counts(field, 4, gamma)
    assert b == count != report.params.lam


def test_direct_coset_counts_match_the_full_histogram():
    # the slow oracle: every ordered pair of class members, one histogram
    for p, e, q in prime_powers(1024):
        field = make_field(p, e)
        for m in [d for d in range(1, q) if (q - 1) % d == 0]:
            reps = field.exp_table[:m]
            coset = field.log_table[1:] % m
            for modified in (False, True):
                cls = cyclotomic_class(field, m, modified)
                hist = field.codes_difference_counts(cls.codes)[1:]
                per_coset = hist[reps - 1]
                assert np.array_equal(hist, per_coset[coset]), (q, m)
                assert np.array_equal(
                    diffsets._pairs_at(field, cls.codes, reps), per_coset)
                report = check_direct(field, cls)
                lam = report.params.lam
                deviant = np.flatnonzero(hist != lam)
                if lam is None:
                    want = (VERDICT_INFEASIBLE, None, None)
                elif len(deviant):
                    gamma = int(deviant[0]) + 1
                    want = (VERDICT_NOT, (gamma, int(hist[gamma - 1])), None)
                else:
                    want = (VERDICT_DS, None,
                            known_family_match(q, m, modified))
                assert (report.verdict, report.witness,
                        report.family) == want, (q, m, modified)


def test_pairs_at_counts_in_blocks(monkeypatch):
    field = make_field(3, 3)
    codes = cyclotomic_class(field, 2, True).codes
    gammas = np.arange(field.q)
    want = [sum(int(field.codes_add(y, g)) in set(codes.tolist())
                for y in codes.tolist()) for g in range(field.q)]
    for block in (1, 5, len(codes) + 1):
        monkeypatch.setattr(diffsets, "_PAIRS_BLOCK", block)
        assert diffsets._pairs_at(field, codes, gammas).tolist() == want


def test_direct_infeasible():
    field = make_field(13)
    report = check_direct(field, cyclotomic_class(field, 4, False))
    assert report.verdict == VERDICT_INFEASIBLE


def test_checkers_require_a_dividing_order():
    # m = 0 used to divide by zero, and m = 5 on F_13 answered "infeasible"
    field = make_field(13)
    for m in (0, 5):
        with pytest.raises(OrderDoesNotDivide):
            DSParams.from_instance(13, m, False)
        for check in (check_charsum, check_jacobi, check_gauss):
            for modified in (False, True):
                with pytest.raises(OrderDoesNotDivide):
                    check(field, m, modified)


def test_checkers_agree_on_a_grid():
    for q in (7, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 37):
        field = _field_of(q) if q in (16, 9) else None
        if field is None:
            p = {25: 5, 27: 3}.get(q, q)
            e = {25: 2, 27: 3}.get(q, 1)
            field = make_field(p, e)
        for m in range(2, q):
            if (q - 1) % m:
                continue
            for modified in (False, True):
                verdicts = run_all_checkers(field, m, modified)
                votes = {v for v in verdicts.values() if v != "skipped"}
                assert len(votes) == 1, (q, m, modified, verdicts)


def test_gauss_skips_past_order_budget():
    field = make_field(103)
    verdicts = run_all_checkers(field, 102, False)
    assert verdicts["gauss"] == "skipped"
    assert verdicts["direct"] == VERDICT_DS      # H = {1}, trivially lambda=0


def test_gauss_budgets_name_their_bounds(monkeypatch):
    with pytest.raises(BoundExceeded, match="caps m at 64 .* got m=102"):
        check_gauss(make_field(103), 102, False)
    # (11 - 1)^2 = 100 pairs, past a pair budget patched to 50; 6^2 is not
    monkeypatch.setattr(diffsets, "_PAIRS_MAX", 50)
    with pytest.raises(BoundExceeded, match="pairs at 50; got m=2, q=11"):
        check_gauss(make_field(11), 2, False)
    assert check_gauss(make_field(7), 2, False) == VERDICT_DS


def test_gauss_decides_prime_fields_past_the_ring_bound():
    # p = 2053 > cyclotomic_n_max; gauss reduces in zeta_p by one fold
    field = make_field(2053)
    assert check_gauss(field, 4, False) == VERDICT_NOT
    assert run_all_checkers(field, 4, False) == {
        "direct": VERDICT_NOT, "charsum": VERDICT_NOT,
        "jacobi": VERDICT_NOT, "gauss": VERDICT_NOT}


def test_routes_past_the_ring_bound_are_skipped():
    # m = 2052 exceeds the ring bound 2048; only direct can decide
    field = make_field(2053)
    verdicts = run_all_checkers(field, 2052, False)
    assert verdicts == {"direct": VERDICT_DS, "charsum": "skipped",
                        "jacobi": "skipped", "gauss": "skipped"}
    table = scan([2052], 2053, full_methods=True)
    assert [(r["q"], r["verdict"], r["methods"]) for r in table.rows] == [
        (2053, VERDICT_DS, ["direct"])]
    assert table.rows[0]["skipped"] == ["charsum", "jacobi", "gauss"]
    assert cli_run(["ds", "scan", "--m", "2052", "--q-max", "2053",
                    "--full-methods"]) == 0


def test_full_methods_scan_exits_2_when_a_route_disagrees(monkeypatch,
                                                          capsys):
    # a route that decides against direct is a discrepancy, as in ds check:
    # it is dropped from methods, named under disagree, and fails the scan
    flip = {VERDICT_DS: VERDICT_NOT, VERDICT_NOT: VERDICT_DS}
    check = diffsets.check_charsum

    def flipped(field, m, modified):
        verdict = check(field, m, modified)
        return flip[verdict] if field.q == 7 else verdict

    argv = ["ds", "scan", "--m", "2", "--q-max", "12", "--full-methods",
            "--all-rows"]
    assert cli_run(argv) == 0
    honest = json.loads(capsys.readouterr().out)
    assert honest["disagreements"] == []
    monkeypatch.setattr(diffsets, "check_charsum", flipped)
    assert cli_run(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    bad = [r for r in honest["rows"] if r["q"] == 7]
    for r in bad:
        r["methods"].remove("charsum")
        r["disagree"] = ["charsum"]
    assert len(bad) == 2 and payload["disagreements"] == bad
    # rows without a disagreement are unchanged, with no disagree key
    assert payload["rows"] == honest["rows"]


def test_difference_counts_brute_force():
    for q, m in [(13, 4), (11, 2), (16, 3), (27, 2), (25, 3)]:
        field = _field_of(q)
        h = set(cyclotomic_class(field, m, False).codes.tolist())
        mod = h | {0}
        for gamma in range(1, q):
            ge = field.element(gamma)
            a, b, c = difference_counts(field, m, ge)
            want_b = sum(1 for x in h for y in h
                         if (field.element(x) - field.element(y)).code == gamma)
            want_c = sum(1 for x in mod for y in mod
                         if (field.element(x) - field.element(y)).code == gamma)
            gh = {(ge * field.element(x)).code for x in h}
            want_a = sum(1 for al in h
                         if (field.one - field.element(al)).code in gh)
            assert (a, b, c) == (want_a, want_b, want_c), (q, m, gamma)


def test_difference_counts_modified_identity():
    # M adds the pairs (gamma, 0) and (0, -gamma): c = b + [g in H] + [-g in H]
    field = make_field(17)
    h = cyclotomic_class(field, 4, False)
    for gamma in range(1, 17):
        ge = field.element(gamma)
        _, b, c = difference_counts(field, 4, ge)
        assert c == b + (ge in h) + (field.neg(ge) in h)
    with pytest.raises(ZeroGamma):
        difference_counts(field, 4, 0)


def test_difference_counts_validates_gamma():
    field = make_field(13)
    for gamma in (13, -1, make_field(7).one):
        with pytest.raises(ValueError):
            difference_counts(field, 4, gamma)
    assert difference_counts(field, 4, 12) == difference_counts(
        field, 4, field.element(12))


def test_difference_counts_total():
    field = make_field(29)
    k = (29 - 1) // 4
    total = sum(difference_counts(field, 4, g)[1] for g in range(1, 29))
    assert total == k * (k - 1)


def test_known_family_match():
    assert known_family_match(7, 2, False) == "paley_quadratic"
    assert known_family_match(7, 2, True) == "paley_quadratic"
    assert known_family_match(13, 2, False) is None            # 13 = 1 mod 4
    assert known_family_match(16, 3, True) == "M16_3"
    assert known_family_match(16, 3, False) is None
    assert known_family_match(37, 4, False) == "chowla_quartic"     # 37 = 1+4*9
    assert known_family_match(101, 4, False) == "chowla_quartic"    # 1+4*25
    assert known_family_match(17, 4, False) is None                 # t = 2 even
    assert known_family_match(13, 4, True) == "modified_quartic"    # 9+4*1
    assert known_family_match(29, 4, True) is None                  # t even
    assert known_family_match(73, 8, False) == "lehmer_octic"       # 1+8*9, 9+64*1
    assert known_family_match(73, 8, True) is None


def test_multiplier_check():
    f7 = make_field(7)
    h = cyclotomic_class(f7, 2, False)
    assert [t for t in range(1, 7) if multiplier_check(f7, h, t)] == [1, 2, 4]
    f11 = make_field(11)
    h11 = cyclotomic_class(f11, 2, False)
    assert multiplier_check(f11, h11, 3)
    assert not multiplier_check(f11, h11, 2)
    f13 = make_field(13)
    m13 = cyclotomic_class(f13, 4, True)
    assert multiplier_check(f13, m13, 3)
    with pytest.raises(ZeroMultiplier):
        multiplier_check(f13, m13, 13)


def test_prime_powers_sieve():
    got = prime_powers(32)
    assert [q for _, _, q in got] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17,
                                      19, 23, 25, 27, 29, 31, 32]
    assert (2, 5, 32) in got and (3, 3, 27) in got
    assert all(p ** e == q for p, e, q in got)


def test_scan_small_quadratic():
    table = scan([2], 100, modified_mode="plain")
    hits = {r["q"] for r in table.nontrivial_hits()}
    # prime powers 3 mod 4 (27 included; 3 itself is trivial)
    assert hits == {7, 11, 19, 23, 27, 31, 43, 47, 59, 67, 71, 79, 83}
    assert all(r["family"] == "paley_quadratic" for r in table.nontrivial_hits())
    assert table.unexplained() == []


def test_scan_finds_m16_3():
    table = scan([3], 100, modified_mode="modified", full_methods=True)
    nontrivial = table.nontrivial_hits()
    assert [(r["q"], r["family"]) for r in nontrivial] == [(16, "M16_3")]
    assert set(nontrivial[0]["methods"]) == {"direct", "charsum", "jacobi",
                                             "gauss"}
    # only a row with a skipped route carries the key
    assert not any("skipped" in r for r in table.rows)


def test_full_methods_scan_counts_differences_once(monkeypatch):
    calls = []

    def counting(field, cls):
        calls.append((field.q, cls.m, cls.modified))
        return check_direct(field, cls)

    monkeypatch.setattr(diffsets, "check_direct", counting)
    table = scan([3], 100, full_methods=True)
    assert len(table) == 12
    assert sorted(calls) == sorted((r["q"], r["m"], r["modified"])
                                   for r in table.rows)


def test_scan_ignores_orders_that_divide_no_q_minus_1():
    # 0 and orders >= q divide no q - 1; 61 and 10**4 exceed every q here
    table = scan({0, 2, 4, 61, 10 ** 4}, 60)
    assert table.rows == scan([2, 4], 60).rows
    assert {r["m"] for r in table.rows} == {2, 4}


def test_scan_rows_are_feasible_only_and_sorted():
    table = scan(None, 30)
    assert all(DSParams.from_instance(r["q"], r["m"], r["modified"]).feasible
               for r in table.rows)
    keys = [(r["m"], r["q"], r["modified"]) for r in table.rows]
    assert keys == sorted(keys)
    assert isinstance(table, ClassificationTable)
    assert table.to_json().startswith("[")


def test_feasible_instances_are_every_feasible_divisor():
    for _, _, q in prime_powers(2000):
        want = [(m, modified) for m in range(1, q) if (q - 1) % m == 0
                for modified in (False, True)
                if DSParams.from_instance(q, m, modified).feasible]
        assert diffsets._feasible_instances(q, None, (False, True)) == want


def test_scan_builds_a_field_only_for_a_q_with_rows(monkeypatch):
    built = []

    def counting(p, e=1):
        built.append(p ** e)
        return make_field(p, e)

    monkeypatch.setattr(diffsets, "make_field", counting)
    table = scan(range(10, 23, 2), 3000)
    assert len(table) > 0
    assert built == sorted({r["q"] for r in table.rows})
    built.clear()
    assert scan({0, 61, 10 ** 4}, 60).rows == [] and built == []


def test_parallel_scan_matches_serial(monkeypatch):
    # two usable CPUs even on a one-CPU runner, so the pool path always runs
    monkeypatch.setattr(diffsets, "_usable_cpus", lambda: 2)
    for m_range, bound in ((range(10, 23, 2), 3000), (None, 400),
                           ({0, 2, 4, 61, 10 ** 4}, 60)):
        assert scan(m_range, bound, workers=2).rows == \
            scan(m_range, bound, workers=1).rows


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def test_scan_caps_the_pool_at_tasks_and_cpus(monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(diffsets, "_usable_cpus", lambda: 3)
    serial = scan(range(10, 23, 2), 3000).rows
    assert scan(range(10, 23, 2), 3000, workers=10 ** 6).rows == serial
    assert scan(range(10, 23, 2), 3000, workers=2).rows == serial
    assert _RecordingPool.sizes == [3, 2]
    # one task (F_3, two rows) needs no pool, nor does one CPU
    assert len(scan([2], 3, workers=8)) == 2
    monkeypatch.setattr(diffsets, "_usable_cpus", lambda: 1)
    assert scan(range(10, 23, 2), 3000, workers=8).rows == serial
    assert _RecordingPool.sizes == [3, 2]
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            scan([2], 30, workers=workers)


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(diffsets.os, "sched_getaffinity", lambda pid: {0, 5},
                        raising=False)
    monkeypatch.setattr(diffsets.os, "cpu_count", lambda: 64)
    assert diffsets._usable_cpus() == 2
    monkeypatch.delattr(diffsets.os, "sched_getaffinity", raising=False)
    assert diffsets._usable_cpus() == 64
    monkeypatch.setattr(diffsets.os, "cpu_count", lambda: None)
    assert diffsets._usable_cpus() == 1


def test_scan_takes_a_range_as_it_is(monkeypatch):
    def no_range_copies(*args):
        assert not (args and isinstance(args[0], range)), "range copied"
        return set(*args)

    monkeypatch.setattr(diffsets, "set", no_range_copies, raising=False)
    assert scan(range(1, 10 ** 15), 100).rows == scan(None, 100).rows
    assert scan(range(2, 10 ** 12, 2), 100).rows == \
        scan(range(2, 100, 2), 100).rows
    assert scan([2, 4], 100).rows == scan(range(2, 5, 2), 100).rows
