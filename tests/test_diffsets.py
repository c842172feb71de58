"""Difference-set checkers, parameter logic, families, multipliers, scans."""

import numpy as np
import pytest

from cyclodiff.cli import run as cli_run
from cyclodiff.diffsets import (ClassificationTable, DSParams, VERDICT_DS,
                                VERDICT_INFEASIBLE, VERDICT_NOT, check_charsum,
                                check_direct, check_gauss, check_jacobi,
                                cyclotomic_class, difference_counts,
                                known_family_match, multiplier_check,
                                prime_powers, run_all_checkers, scan)
from cyclodiff.errors import (OrderDoesNotDivide, ZeroGamma, ZeroMultiplier)
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
    p, e = {16: (2, 4), 9: (3, 2)}.get(q, (q, 1))
    return make_field(p, e)


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


def test_direct_infeasible():
    field = make_field(13)
    report = check_direct(field, cyclotomic_class(field, 4, False))
    assert report.verdict == VERDICT_INFEASIBLE


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
        (2053, VERDICT_DS, ["direct", "charsum", "jacobi", "gauss"])]
    assert cli_run(["ds", "scan", "--m", "2052", "--q-max", "2053",
                    "--full-methods"]) == 0


def test_difference_counts_brute_force():
    for q, m in [(13, 4), (11, 2), (16, 3)]:
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


def test_scan_rows_are_feasible_only_and_sorted():
    table = scan(None, 30)
    assert all(DSParams.from_instance(r["q"], r["m"], r["modified"]).feasible
               for r in table.rows)
    keys = [(r["m"], r["q"], r["modified"]) for r in table.rows]
    assert keys == sorted(keys)
    assert isinstance(table, ClassificationTable)
    assert table.to_json().startswith("[")
