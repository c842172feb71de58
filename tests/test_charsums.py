"""Character sums: Gauss, Jacobi, class sums, and the identity suite."""

from collections import Counter

import pytest

from cyclodiff.charsums import (_class_pairs, _class_sum_counts, character,
                                chi_eval, gauss_sum, h_class_sum,
                                jacobi_row_sum, jacobi_sum,
                                verify_identity_suite,
                                verify_jacobi_duplication)
from cyclodiff.cyclotomic import CycInt, cyc_lift, embed
from cyclodiff.errors import OddOrder, OrderDoesNotDivide
from cyclodiff.ff import dlog, make_field


def test_character_requires_divisibility():
    with pytest.raises(OrderDoesNotDivide):
        character(make_field(7), 4)
    chi = character(make_field(7), 3)
    assert chi.m == 3


def test_chi_eval_tracks_discrete_log():
    field = make_field(11)
    chi = character(field, 5)
    g = field.generator
    for k in range(10):
        x = field.pow(g, k)
        assert chi_eval(chi, 1, x) == CycInt.root(5, k % 5)
        assert chi_eval(chi, 3, x) == CycInt.root(5, (3 * k) % 5)
    # zero convention: 0 for a nontrivial power, 1 in the trivial sector
    assert chi_eval(chi, 1, field.zero).is_zero()
    assert chi_eval(chi, 5, field.zero).as_integer() == 1


def test_quadratic_gauss_sum_squares():
    # classical: G^2 = chi(-1) q for the quadratic character
    for p, want in [(5, 5), (13, 13), (17, 17), (7, -7), (11, -11), (19, -19)]:
        chi = character(make_field(p), 2)
        g = gauss_sum(chi, 1).value
        assert (g * g).as_integer() == want


def test_trivial_sector_gauss_sum_is_zero():
    chi = character(make_field(13), 4)
    assert gauss_sum(chi, 0).value.is_zero()
    assert gauss_sum(chi, 4).value.is_zero()
    assert gauss_sum(chi, 8).value.is_zero()


def test_gauss_sum_norm_is_q():
    for q, m in [(13, 4), (16, 3), (9, 8), (11, 10)]:
        p = {16: 2, 9: 3}.get(q, q)
        e = {16: 4, 9: 2}.get(q, 1)
        field = make_field(p, e)
        chi = character(field, m)
        for s in range(1, m):
            g = gauss_sum(chi, s).value
            assert (g * g.conjugate()).as_integer() == q


def test_jacobi_known_value():
    # 13 = 3^2 + 2^2; quartic J(chi, chi) lands on 3 - 2i
    chi = character(make_field(13), 4)
    j = jacobi_sum(chi, 1, 1).value
    assert j == CycInt(4, [3, -2])
    assert (j * j.conjugate()).as_integer() == 13


def test_jacobi_gauss_quotient():
    # G_s G_t = J(s,t) G_{s+t} whenever s, t, s+t are all nontrivial
    for q, m in [(13, 4), (7, 6), (16, 5)]:
        p = 2 if q == 16 else q
        e = 4 if q == 16 else 1
        field = make_field(p, e)
        chi = character(field, m)
        for s in range(1, m):
            for t in range(1, m):
                if (s + t) % m == 0:
                    continue
                gs = gauss_sum(chi, s).value
                gt = gauss_sum(chi, t).value
                gst = gauss_sum(chi, s + t).value
                j = cyc_lift(jacobi_sum(chi, s, t).value, gs.n)
                assert gs * gt == j * gst


def test_jacobi_opposite_pair():
    # J(s, -s) collapses to -chi^s(-1) for nontrivial chi^s
    field = make_field(13)
    chi = character(field, 4)
    minus_one = field.neg(field.one)
    for s in (1, 2, 3):
        j = jacobi_sum(chi, s, 4 - s).value
        want = chi_eval(chi, s, minus_one) * (-1)
        assert j == cyc_lift(want, j.n)


def test_class_sum_values():
    # H_{7,2} is a difference set: its shifted class sums vanish
    assert h_class_sum(character(make_field(7), 2), 1).value.is_zero()
    # H_{5,2} is infeasible and the sum is -1
    assert h_class_sum(character(make_field(5), 2), 1).value.as_integer() == -1


def test_jacobi_row_sum_difference_set_case():
    # row sums hit the plain target value 1 exactly on a difference set
    chi = character(make_field(37), 4)
    for s in (1, 2, 3):
        assert jacobi_row_sum(chi, s).value.as_integer() == 1


def test_class_pairs_count_literally():
    # prime fields, extension fields (e > 1) and characteristic 2
    for p, e in [(13, 1), (3, 2), (2, 4), (2, 5), (5, 2), (3, 3)]:
        field = make_field(p, e)
        q = field.q
        for m in [d for d in range(1, q) if (q - 1) % d == 0]:
            want = Counter()
            class_sum = [0] * m
            for code in range(2, q):
                alpha = field.element(code)
                i = dlog(field, alpha) % m
                j = dlog(field, field.one - alpha) % m
                want[i, j] += 1
                if i == 0:
                    class_sum[j] += 1
            a, b = _class_pairs(field, m)
            assert Counter(zip(a.tolist(), b.tolist())) == want, (q, m)
            assert _class_sum_counts(field, m).tolist() == class_sum, (q, m)


def test_jacobi_row_sum_matches_literal_sum():
    # orders on both sides of 64, where the row sum used to switch from
    # adding Jacobi sums literally to the collapsed count
    for q, m in [(13, 4), (16, 5), (9, 8), (193, 64), (131, 65), (67, 66),
                 (97, 96)]:
        p = {16: 2, 9: 3}.get(q, q)
        field = make_field(p, {16: 4, 9: 2}.get(q, 1))
        chi = character(field, m)
        for s in {1, 2, m // 2, m - 1}:
            literal = CycInt.zero(m)
            for t in range(1, m):
                literal = literal + jacobi_sum(chi, s, t).value
            assert jacobi_row_sum(chi, s).value == literal, (q, m, s)


def test_identity_suite_requires_a_dividing_order():
    with pytest.raises(OrderDoesNotDivide):
        verify_identity_suite(make_field(7), 4)
    with pytest.raises(OrderDoesNotDivide):
        verify_jacobi_duplication(make_field(7), 4)
    with pytest.raises(OddOrder):
        verify_jacobi_duplication(make_field(7), 3)


def test_identity_suite_small_fields():
    for p, e, m in [(13, 1, 4), (13, 1, 12), (7, 1, 6), (2, 4, 3), (2, 4, 15),
                    (3, 2, 8), (11, 1, 10), (31, 1, 6)]:
        field = make_field(p, e)
        results = verify_identity_suite(field, m)
        assert all(results.values()), (p, e, m, results)


def test_identity_suite_past_the_ring_bound_in_p():
    # p = 2053 > cyclotomic_n_max: the zeta_p reductions are one fold
    results = verify_identity_suite(make_field(2053), 4)
    assert all(results.values()), results


def test_gauss_sum_numeric_modulus():
    field = make_field(11)
    chi = character(field, 5)
    for s in range(1, 5):
        mid = embed(gauss_sum(chi, s).value).midpoint()
        assert abs(abs(mid) ** 2 - 11) < 1e-9
