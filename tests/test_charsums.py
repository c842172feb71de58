"""Character sums: Gauss, Jacobi, class sums, and the identity suite."""

import random
from collections import Counter
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest
from sympy import mobius, totient

from cyclodiff import charsums, cyclotomic, diffsets
from cyclodiff.charsums import (_class_pairs, _class_sum_counts,
                                _gauss_slices, _quotient_slabs, _tables,
                                _vanishes_at_powers,
                                character, chi_eval,
                                gauss_sum, h_class_sum, jacobi_row_sum,
                                jacobi_sum, verify_class_difference_counts,
                                verify_class_difference_sums,
                                verify_gauss_conjugate_norm,
                                verify_gauss_opposite_product,
                                verify_identity_suite,
                                verify_jacobi_duplication,
                                verify_jacobi_quotient, verify_row_sums)
from cyclodiff.config import current_limits
from cyclodiff.cyclotomic import CycInt, cyc_lift, embed, reduce_counts
from cyclodiff.diffsets import (VERDICT_DS, check_charsum, check_direct,
                               check_gauss, check_jacobi, cyclotomic_class,
                               run_all_checkers)
from cyclodiff.errors import BoundExceeded, OddOrder, OrderDoesNotDivide
from cyclodiff.ff import FiniteField, dlog, is_prime, make_field, trace

# prime, extension and characteristic-2 fields for the differential tests
SWEEP_FIELDS = [(13, 1), (3, 2), (2, 4), (31, 1), (13, 2)]


def _orders(q, low=1):
    return [d for d in range(low, q) if (q - 1) % d == 0]


def _code_order(field):
    """The oracles' data in code order, read from the field itself and not
    from the charsums tables they check: the nonzero codes, the traces of
    all q codes and of the nonzero ones, the dlogs of the nonzero codes,
    dlog(-1), and the dlogs of a and 1 - a over the codes a outside
    {0, 1}."""
    q, log = field.q, field.log_table
    codes, a = np.arange(1, q), np.arange(2, q)
    trace_all = field.codes_trace(np.arange(q))
    return SimpleNamespace(
        codes=codes, trace_all=trace_all, trace=trace_all[1:],
        dlog=log[codes], dlog_neg_one=int(log[field.codes_sub(0, 1)]),
        pair_dlog=log[a], pair_dlog_om=log[field.codes_sub(1, a)])


def _pair_tensor(field, m):
    """T[i, j, w] = pairs of nonzero (alpha, beta) with dlogs i and j mod m
    and tr(alpha) + tr(beta) = w mod p, counted whole: the oracle of the
    class slabs.  Entry (i, j, w) counts zeta_m^(s i + t j) zeta_p^w in
    G(chi^s) G(chi^t)."""
    p, t = field.p, _code_order(field)
    cls = t.dlog % m
    return charsums._pair_counts(len(cls), len(cls), m * m * p, lambda r: (
        (t.trace[r, None] + t.trace[None, :]) % p
        + (cls[r, None] * m + cls[None, :]) * p)).reshape(m, m, p)


def _clear_count_caches():
    """Forget every count charsums keeps per (field, m)."""
    for cached in (charsums._gauss_counts, charsums._norm_counts,
                   charsums._power_differences):
        cached.cache_clear()


@pytest.fixture
def fresh_counts():
    """For tests that patch what the cached counts are made from
    (_PAIR_BLOCK, _tables, _class_pairs) or record the counting: the
    caches are cleared before and after the test, so that no count made
    under other data is read, and the clearing function is given to the
    test to call again after each patch."""
    _clear_count_caches()
    yield _clear_count_caches
    _clear_count_caches()


def test_tables_follow_their_definitions():
    # the count layer's one enumeration, alpha = g^k, against the scalar API
    for p, e in SWEEP_FIELDS:
        field = make_field(p, e)
        q, g, t = field.q, field.generator, _tables(field)
        assert t.trace.tolist() == [trace(field, g ** k)
                                    for k in range(q - 1)], q
        assert t.zech.tolist() == [dlog(field, field.one - g ** k)
                                   for k in range(1, q - 1)], q
        assert t.dlog_neg_one == dlog(field, -field.one), q


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


def test_chi_eval_refuses_another_fields_element():
    # F_7's element 4 used to give -1 under the quartic character of F_5,
    # and its element 6 an IndexError
    chi, f7 = character(make_field(5), 4), make_field(7)
    for code in (0, 4, 6):
        with pytest.raises(ValueError):
            chi_eval(chi, 1, f7.element(code))


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


def test_h_class_sum_matches_literal_sum():
    # every power s, units and non-units alike, in prime and extension
    # fields
    for p, e in [(13, 1), (3, 2), (2, 4), (37, 1)]:
        field = make_field(p, e)
        q = field.q
        powers = [field.element(code) for code in range(1, q)]
        for m in [d for d in range(1, q) if (q - 1) % d == 0]:
            chi = character(field, m)
            cls = [a for a in powers if dlog(field, a) % m == 0]
            for s in range(-1, m + 1):
                literal = CycInt.zero(m)
                for alpha in cls:
                    literal = literal + chi_eval(chi, s, field.one - alpha)
                assert h_class_sum(chi, s).value == literal, (q, m, s)


def test_identity_suite_requires_a_dividing_order():
    with pytest.raises(OrderDoesNotDivide):
        verify_identity_suite(make_field(7), 4)
    with pytest.raises(OrderDoesNotDivide):
        verify_jacobi_duplication(make_field(7), 4)
    with pytest.raises(OddOrder):
        verify_jacobi_duplication(make_field(7), 3)


def test_every_identity_check_requires_a_dividing_order():
    # 5 does not divide 12; each check used to answer False here
    for check in (verify_gauss_conjugate_norm, verify_gauss_opposite_product,
                  verify_jacobi_quotient, verify_row_sums,
                  verify_class_difference_counts,
                  verify_class_difference_sums):
        with pytest.raises(OrderDoesNotDivide):
            check(make_field(13), 5)


def test_identity_suite_small_fields():
    for p, e, m in [(13, 1, 4), (13, 1, 12), (7, 1, 6), (2, 4, 3), (2, 4, 15),
                    (3, 2, 8), (11, 1, 10), (31, 1, 6)]:
        field = make_field(p, e)
        results = verify_identity_suite(field, m)
        assert all(results.values()), (p, e, m, results)


def _decimate(vec, s, m):
    """out[i] = sum of vec[j] over j with s*j = i mod m: the counts of
    the power chi^s."""
    out = np.zeros(vec.shape, dtype=np.int64)
    np.add.at(out, (s % m) * np.arange(m) % m, vec)
    return out


def test_decimated_unit_vectors_sum_to_the_orthogonality_relation():
    # sum over s < m of zeta_m^(s d) is m when d = 0 mod m and 0 otherwise;
    # keeps reduce_counts at composite orders under test
    for m in range(1, 65):
        for d in range(m):
            unit = np.zeros(m, dtype=np.int64)
            unit[d] = 1
            total = sum(_decimate(unit, s, m) for s in range(m))
            want = np.zeros(len(reduce_counts(total, m)), dtype=np.int64)
            want[0] = m if d == 0 else 0
            assert np.array_equal(reduce_counts(total, m), want), (m, d)


def _loop_reference(base, m, powers, p=0):
    """The per-power loop the checks ran before the sweep: decimate, reduce
    (in zeta_p, then in zeta_m), stop at the first nonzero power.  The
    decimation runs over Python ints so that huge entries stay exact."""
    for s in powers:
        vec = np.zeros(base.shape, dtype=object)
        np.add.at(vec, (s % m) * np.arange(m) % m, base.astype(object))
        if p:
            vec = reduce_counts(reduce_counts(vec, p).T, m)
        else:
            vec = reduce_counts(vec, m)
        if np.any(vec):
            return False
    return True


def _ramanujan_rows(m):
    """{g: row} over divisors g of m, row[j] = c_(m/g)(j), the Ramanujan sum.

    Its decimation by s is m at exponent 0 when gcd(s, m) = g (gcd(0, m)
    = m) and zero otherwise, so it vanishes at exactly the other powers.
    """
    rows = {}
    for g in (d for d in range(1, m + 1) if m % d == 0):
        n = m // g
        rows[g] = np.array([int(mobius(n // gcd(n, j)) * totient(n)
                                // totient(n // gcd(n, j)))
                            for j in range(m)], dtype=np.int64)
    return rows


def _sweep_cases(m, p, rng):
    """(base, powers, p, expected) cases for one order m."""
    rows = _ramanujan_rows(m)
    lists = {"divisors": [d for d in range(1, m) if m % d == 0],
             "nontrivial": range(1, m), "all": range(m)}
    # for each list, a class holding exactly one of its powers
    lone = {"divisors": max((g for g in rows if g < m), default=None),
            "nontrivial": m // 2 if m % 2 == 0 else None, "all": m}
    for name, powers in lists.items():
        classes = {gcd(s, m) for s in powers}
        bases = []
        for _ in range(3):
            picked = {g: rng.choice((0, 0, 1, -2)) for g in rows}
            base = sum(c * rows[g] for g, c in picked.items())
            bases.append((base, all(picked[g] == 0 for g in classes)))
        bases.append((sum((rows[g] for g in rows if g not in classes),
                          np.zeros(m, dtype=np.int64)), True))
        if lone[name] is not None and lone[name] in classes:
            bases.append((rows[lone[name]].copy(), False))
        if name == "nontrivial":
            # nonzero at exactly one orbit each, so every divisor counts
            bases.extend((rows[g].copy(), False) for g in rows if g < m)
        bases.append((np.array([rng.randint(-3, 3) for _ in range(m)]), None))
        # huge entries take the Python-int paths of decimation and reduction
        bases.append((np.full(m, 2 ** 62 - 1, dtype=np.int64),
                      all(gcd(s, m) != m for s in powers)))
        for scale in (2 ** 62 - 3, 2 ** 70 + 1):
            base, want = bases[0]
            bases.append((base.astype(object) * scale, want))
        for base, want in bases:
            yield base, powers, 0, want
            # an (m, p) matrix: the base at trace 1, plus rows constant in
            # the trace, which vanish in zeta_p
            mat = np.zeros((m, p), dtype=base.dtype)
            mat[:, 1] = base
            mat += np.array([rng.randint(-4, 4) for _ in range(m)])[:, None]
            yield mat, powers, p, want
        # r[j] + c[w] vanishes at every nontrivial power, though it is
        # constant along the m axis only after the fold in zeta_p
        r = np.array([rng.randint(-4, 4) for _ in range(m)])
        c = np.array([rng.randint(-4, 4) for _ in range(p)])
        yield r[:, None] + c, powers, p, None if 0 in powers else True


def test_sweep_matches_the_per_power_loop():
    # the sweep compares the counts for constancy; the oracle decimates
    # and reduces at every nontrivial power
    rng = random.Random(20261018)
    for p, e in SWEEP_FIELDS:
        field = make_field(p, e)
        q = field.q
        for m in [d for d in range(1, q) if (q - 1) % d == 0]:
            for base, powers, pp, want in _sweep_cases(m, p, rng):
                if want is not None:
                    assert _loop_reference(base, m, powers, pp) == want, \
                        (q, m, list(powers), pp)
                ref = _loop_reference(base, m, range(1, m), pp)
                assert _vanishes_at_powers(base, m, pp) == ref, (q, m, pp)


def test_routes_build_no_composite_reduction_table(monkeypatch):
    # the routes and the identity suite test every power by constancy, so
    # the only reductions left are the folds in zeta_p, at a prime order
    orders = []
    rows = cyclotomic.reduction_rows
    monkeypatch.setattr(cyclotomic, "reduction_rows",
                        lambda n: orders.append(n) or rows(n))
    for p, e in SWEEP_FIELDS:
        field = make_field(p, e)
        for m in _orders(field.q):
            for check in (check_charsum, check_jacobi, check_gauss):
                for modified in (False, True):
                    try:
                        check(field, m, modified)
                    except BoundExceeded:
                        pass  # the gauss route past gauss_check_m_max
            assert all(verify_identity_suite(field, m).values()), (p, e, m)
    assert orders and all(is_prime(n) for n in orders), sorted(set(orders))


def test_pair_tensor_matches_the_pair_sum_construction(monkeypatch,
                                                       fresh_counts):
    # reference: add every pair of nonzero codes in the field, read the
    # trace of the sum, and key it by the two classes; a block of 1 counts
    # the pairs in as many row blocks as the tensor size allows
    blocks = (charsums._PAIR_BLOCK, 1)
    for p, e in SWEEP_FIELDS:
        field = make_field(p, e)
        q, t = field.q, _code_order(field)
        sum_codes = field.codes_add(np.repeat(t.codes, q - 1),
                                    np.tile(t.codes, q - 1))
        w = t.trace_all[sum_codes]
        for m in [d for d in range(1, q) if (q - 1) % d == 0]:
            cls = t.dlog % m
            key = (np.repeat(cls, q - 1) * m + np.tile(cls, q - 1)) * p + w
            want = np.bincount(key, minlength=m * m * p).reshape(m, m, p)
            for block in blocks:
                monkeypatch.setattr(charsums, "_PAIR_BLOCK", block)
                assert np.array_equal(_pair_tensor(field, m), want), \
                    (q, m, block)


def test_gauss_slices_match_the_pair_tensor(monkeypatch, fresh_counts):
    # the slices the gauss route reads, against the full tensor: the
    # diagonal T[j - dlog(-1), j]; a, the per-class trace histogram,
    # against a literal count; and both marginals (T is symmetric) against
    # (q/p) f - a, the form check_gauss folds them into.  The oracle
    # tensor is counted in one block and in blocks of one row
    blocks = (charsums._PAIR_BLOCK, 1)
    for p, e in SWEEP_FIELDS:
        field = make_field(p, e)
        q, t = field.q, _code_order(field)
        for m in [d for d in range(1, q) if (q - 1) % d == 0]:
            j = np.arange(m)
            want_a = np.zeros((m, p), dtype=np.int64)
            np.add.at(want_a, (t.dlog % m, t.trace), 1)
            for block in blocks:
                monkeypatch.setattr(charsums, "_PAIR_BLOCK", block)
                tensor = _pair_tensor(field, m)
                fresh_counts()
                a, m1 = _gauss_slices(field, m)
                assert np.array_equal(a, want_a), (q, m, block)
                assert np.array_equal(
                    m1, tensor[(j - t.dlog_neg_one) % m, j]), (q, m, block)
                marginal = (q // p) * a.sum(axis=1, keepdims=True) - a
                assert np.array_equal(tensor.sum(axis=0), marginal), (q, m)
                assert np.array_equal(tensor.sum(axis=1), marginal), (q, m)


def test_pair_tensor_is_invariant_under_scaling_by_the_prime_field():
    # the symmetry the gauss slices are built from: (alpha, beta) ->
    # (u alpha, u beta) for u in F_p^* moves both classes by dlog(u) and
    # scales the trace sum by u, so T[i, j, w] = T[i + c, j + c, u w]
    # with c = dlog(u) mod m; read on the oracle tensor, every u and m
    for p, e in SWEEP_FIELDS:
        field = make_field(p, e)
        q, t = field.q, _code_order(field)
        for m in _orders(q):
            tensor = _pair_tensor(field, m)
            for u in range(1, p):
                # the code of the constant u is u, and codes[u - 1] = u
                shift = (np.arange(m) + t.dlog[u - 1]) % m
                scaled = tensor[shift][:, shift][:, :, u * np.arange(p) % p]
                assert np.array_equal(scaled, tensor), (q, m, u)


def test_plain_and_modified_gauss_checks_share_one_count(fresh_counts):
    # both classes are feasible at m = 2 on these fields; the modified
    # check reads the slices the plain check counted
    for q in (31, 47):
        field = make_field(q)
        fresh_counts()
        assert check_gauss(field, 2, False) == VERDICT_DS
        misses = charsums._gauss_counts.cache_info().misses
        for modified in (False, True):
            direct = check_direct(field, cyclotomic_class(field, 2, modified))
            assert check_gauss(field, 2, modified) == direct.verdict, q
        assert misses == 1, (q, misses)
        assert charsums._gauss_counts.cache_info().misses == misses, q


def test_cached_gauss_slices_are_read_only():
    field = make_field(31)
    for m in (2, 3, 5):
        a, m1 = _gauss_slices(field, m)
        assert _gauss_slices(field, m)[1] is m1
        for arr in (a, m1):
            with pytest.raises(ValueError):
                arr[0, 0] = 1
            with pytest.raises(ValueError):
                arr += 1
        assert np.array_equal(m1, _gauss_slices(field, m)[1])


def _guard_the_gauss_route(mp, field):
    """Patch away what the charsum and jacobi routes share, so that the
    gauss route fails on reading it: _pair_counts and _class_pairs raise,
    and _tables is a namespace without the Zech logarithms."""
    def shared(*args):
        raise AssertionError("the gauss route read shared data")

    t = _tables(field)
    own = SimpleNamespace(trace=t.trace, dlog_neg_one=t.dlog_neg_one)
    mp.setattr(charsums, "_pair_counts", shared)
    mp.setattr(charsums, "_class_pairs", shared)
    for module in (charsums, diffsets):
        mp.setattr(module, "_tables", lambda f: own)


def test_gauss_diagonal_matches_the_tensor_in_every_dlog_case(
        monkeypatch, fresh_counts):
    # m1[j] = T[j - L, j] with L = dlog(-1) on every field and order, read
    # without the data the other routes share; "half", L = m/2 mod m (m
    # even, f odd), "L = 0" (even q) and "whole", L = 0 mod m with L != 0,
    # all occur here
    cases = set()
    for p, e in SWEEP_FIELDS:
        field = make_field(p, e)
        q, L = field.q, _tables(field).dlog_neg_one
        for m in _orders(q):
            shifted = L % m != 0
            assert shifted == (m % 2 == 0 and (q - 1) // m % 2 == 1), (q, m)
            cases.add("half" if shifted else "L = 0" if L == 0 else "whole")
            j = np.arange(m)
            tensor = _pair_tensor(field, m)
            fresh_counts()
            with monkeypatch.context() as mp:
                _guard_the_gauss_route(mp, field)
                _, m1 = _gauss_slices(field, m)
            assert np.array_equal(m1, tensor[(j - L) % m, j]), (q, m)
    assert cases == {"half", "L = 0", "whole"}, cases


def test_gauss_route_reads_nothing_the_other_routes_share(monkeypatch,
                                                          fresh_counts):
    # the gauss route must stay an independent cross-check: with the
    # shared counter, the class pairs and the Zech logarithms gone, its
    # slices are built and its verdicts still match the literal count
    m_max = current_limits().gauss_check_m_max
    checked = 0
    for p, e in SWEEP_FIELDS:
        field = make_field(p, e)
        for m in _orders(field.q):
            direct = {modified: check_direct(
                field, cyclotomic_class(field, m, modified)).verdict
                for modified in (False, True)}
            fresh_counts()
            with monkeypatch.context() as mp:
                _guard_the_gauss_route(mp, field)
                _gauss_slices(field, m)
                for modified in (False, True) if m <= m_max else ():
                    assert check_gauss(field, m, modified) == \
                        direct[modified], (field.q, m, modified)
                    checked += 1
    assert checked > 0


def test_no_pair_count_is_larger_than_one_class_slab(monkeypatch,
                                                     fresh_counts):
    # no (m, m, p) tensor is counted in the package: every _pair_counts
    # histogram of the identity suite and the gauss route has at most m p
    # bins, and the gauss verdicts still match the literal count
    sizes = []
    counted = charsums._pair_counts

    def recording(rows, cols, size, keys):
        sizes.append(size)
        return counted(rows, cols, size, keys)

    monkeypatch.setattr(charsums, "_pair_counts", recording)
    m_max = current_limits().gauss_check_m_max
    for p, e in SWEEP_FIELDS:
        field = make_field(p, e)
        for m in _orders(field.q, 2):
            sizes.clear()
            assert all(verify_identity_suite(field, m).values()), (field.q, m)
            for modified in (False, True) if m <= m_max else ():
                direct = check_direct(field,
                                      cyclotomic_class(field, m, modified))
                assert check_gauss(field, m, modified) == direct.verdict, \
                    (field.q, m, modified)
            assert max(sizes) <= m * p, (field.q, m, max(sizes))


def _literal_v(field, m):
    """V[i, j, w] in one piece: every (a, gamma) with a outside {0, 1} and
    gamma != 0, multiplied out to alpha = a gamma and beta = (1 - a) gamma,
    keyed by their classes and tr(alpha + beta); plus the pairs
    beta = -alpha, f in each class of alpha."""
    q, p, t = field.q, field.p, _code_order(field)
    exp, log = field.exp_table, field.log_table
    a = np.arange(2, q)
    gamma = t.codes
    alpha = exp[(log[a][:, None] + log[gamma]) % (q - 1)]
    one_minus = field.codes_sub(np.ones_like(a), a)
    beta = exp[(log[one_minus][:, None] + log[gamma]) % (q - 1)]
    w = t.trace_all[field.codes_add(alpha, beta)]
    key = (log[alpha] % m * m + log[beta] % m) * p + w
    want = np.bincount(key.ravel(), minlength=m * m * p).reshape(m, m, p)
    neg = field.codes_sub(np.zeros_like(gamma), gamma)
    np.add.at(want, (log[gamma] % m, log[neg] % m, 0), 1)
    return want


def test_quotient_slabs_match_the_tensor_oracles(monkeypatch,
                                                 fresh_counts):
    # stacked over the classes, the U slabs are the pair tensor and the V
    # slabs the literal Jacobi expansion, in one block or one row a block
    blocks = (charsums._PAIR_BLOCK, 1)
    for p, e in SWEEP_FIELDS:
        field = make_field(p, e)
        for m in _orders(field.q):
            want_u, want_v = _pair_tensor(field, m), _literal_v(field, m)
            for block in blocks:
                monkeypatch.setattr(charsums, "_PAIR_BLOCK", block)
                u, v = (np.stack(x) for x in zip(*_quotient_slabs(field, m)))
                assert np.array_equal(u, want_u), (field.q, m, block)
                assert np.array_equal(v, want_v), (field.q, m, block)


def _gauss_product_references(field, m):
    """The one-piece literal histograms of the conjugate-norm and
    opposite-product bases and of the quotient tensor V, the last without
    and with its beta = -alpha diagonal."""
    p, t = field.p, _code_order(field)
    ldiff = (t.dlog[:, None] - t.dlog[None, :]) % m
    wdiff = (t.trace[:, None] - t.trace[None, :]) % p
    wsum = (t.trace[:, None] + t.trace[None, :]) % p
    a_cls, om_cls = t.pair_dlog % m, t.pair_dlog_om % m
    cls = t.dlog % m
    j1 = (a_cls[:, None] + cls[None, :]) % m
    j2 = (om_cls[:, None] + cls[None, :]) % m
    key = (j1 * m + j2) * p + t.trace[None, :]
    quotient = np.bincount(key.ravel(), minlength=m * m * p)
    neg = field.log_table[field.codes_sub(0, t.codes)]
    diagonal = np.bincount((cls * m + neg % m) * p, minlength=m * m * p)
    return {"norm": np.bincount((ldiff * p + wdiff).ravel(), minlength=m * p),
            "opposite": np.bincount((ldiff * p + wsum).ravel(),
                                    minlength=m * p),
            "quotient": quotient, "quotient_diagonal": quotient + diagonal}


def _sparse_quotient(field, m):
    """Whether verify_jacobi_quotient compares sorted keys: a class slab
    has more bins, m p, than pairs, f (q - 1)."""
    q = field.q
    return m * field.p > (q - 1) // m * (q - 1)


def _recorded_key_groups(monkeypatch):
    """Patch _quotient_key_groups to record every group it yields; the
    list is returned."""
    groups = []
    grouped = charsums._quotient_key_groups

    def recording(field, m):
        for group in grouped(field, m):
            groups.append(group)
            yield group

    monkeypatch.setattr(charsums, "_quotient_key_groups", recording)
    return groups


def test_gauss_product_histograms_count_in_blocks(monkeypatch,
                                                  fresh_counts):
    # one block row at a time, and the default block, must give the
    # one-piece histograms; the opposite product counts nothing of its
    # own, and its literal histogram is the norm's, counted just before,
    # with the class axis rolled by dlog(-1); the quotient tensor is read
    # from the _pair_counts slabs on dense orders and from a histogram of
    # the compared V keys on sparse ones, and both kinds of order occur
    counted = []
    blocked = charsums._pair_counts

    def recording(*args):
        out = blocked(*args)
        counted.append(out.copy())
        return out

    monkeypatch.setattr(charsums, "_pair_counts", recording)
    groups = _recorded_key_groups(monkeypatch)
    kinds = set()
    for block in (charsums._PAIR_BLOCK, 1):
        monkeypatch.setattr(charsums, "_PAIR_BLOCK", block)
        for p, e in SWEEP_FIELDS:
            field = make_field(p, e)
            neg = _code_order(field).dlog_neg_one
            for m in _orders(field.q):
                want = _gauss_product_references(field, m)
                fresh_counts()
                for name, check in (("norm", verify_gauss_conjugate_norm),
                                    ("opposite",
                                     verify_gauss_opposite_product),
                                    ("quotient", verify_jacobi_quotient)):
                    counted.clear()
                    groups.clear()
                    assert check(field, m), (field.q, m, name, block)
                    ref = want[name]
                    if name == "norm":
                        got = norm = counted[-1]
                    elif name == "opposite":
                        assert not counted, (field.q, m, block)
                        got = np.roll(norm.reshape(m, p), neg, axis=0).ravel()
                    elif _sparse_quotient(field, m):
                        # the V keys hold the f pairs beta = -alpha too
                        kinds.add("sparse")
                        assert not counted, (field.q, m, block)
                        ref = want["quotient_diagonal"]
                        pairs = (field.q - 1) // m * (field.q - 1)
                        got = np.concatenate([
                            np.bincount(v, minlength=len(v) // pairs * m * p)
                            for _, _, v in groups])
                    else:
                        # the slabs U[i], then V[i], for each class i;
                        # V's f diagonal is added after the count
                        kinds.add("dense")
                        assert not groups, (field.q, m, block)
                        got = np.stack(counted[1::2]).ravel()
                    assert np.array_equal(got, ref), (field.q, m, name, block)
    assert kinds == {"sparse", "dense"}, kinds


def test_identity_suite_counts_each_histogram_once(monkeypatch,
                                                   fresh_counts):
    # the opposite product reads the conjugate norm's histogram of the
    # (q - 1)^2 pairs, and the class-difference sums the class-difference
    # counts' literal histogram of H, so one suite call counts the pairs
    # once and differences twice: over H, and over H with 0 for check (ii)
    grids, differences = [], []
    counted = charsums._pair_counts
    differ = FiniteField.codes_difference_counts

    def recording(rows, cols, size, keys):
        grids.append((rows, cols))
        return counted(rows, cols, size, keys)

    monkeypatch.setattr(charsums, "_pair_counts", recording)
    monkeypatch.setattr(FiniteField, "codes_difference_counts", lambda
                        field, codes: differences.append(len(codes))
                        or differ(field, codes))
    for p, e in SWEEP_FIELDS:
        field = make_field(p, e)
        q = field.q
        for m in _orders(q, 2):
            fresh_counts()
            grids.clear()
            differences.clear()
            assert all(verify_identity_suite(field, m).values()), (q, m)
            assert grids.count((q - 1, q - 1)) == 1, (q, m, grids)
            f = (q - 1) // m
            assert differences == [f, f + 1], (q, m, differences)


def test_opposite_product_rejects_one_trace_off(monkeypatch, fresh_counts):
    # the opposite product reads the norm histogram, counted from the
    # traces; one trace entry off must turn its verdict on every field and
    # order where there is a nontrivial power
    tables = charsums._tables

    def off_by_one(field):
        t = tables(field)
        trace = t.trace.copy()
        trace[len(trace) // 2] = (trace[len(trace) // 2] + 1) % field.p
        return SimpleNamespace(trace=trace, zech=t.zech,
                               dlog_neg_one=t.dlog_neg_one)

    cases = [(make_field(p, e), m) for p, e in SWEEP_FIELDS
             for m in _orders(p ** e, 2)]
    assert all(verify_gauss_opposite_product(*case) for case in cases)
    monkeypatch.setattr(charsums, "_tables", off_by_one)
    for field, m in cases:
        fresh_counts()
        assert verify_gauss_opposite_product(field, m) is False, (field.q, m)


def test_quotient_key_groups_match_the_tensor_oracles(monkeypatch,
                                                      fresh_counts):
    # group by group, the histograms of the U and V keys are the rows
    # i0..i1 - 1 of the pair tensor and of the literal Jacobi expansion,
    # on every order (dense ones included), in one block or one class a
    # group; F_2, F_3 and F_4 have at most two values of a
    blocks = (charsums._PAIR_BLOCK, 1)
    for p, e in SWEEP_FIELDS + [(2, 1), (3, 1), (2, 2)]:
        field = make_field(p, e)
        q = field.q
        for m in _orders(q):
            want_u, want_v = _pair_tensor(field, m), _literal_v(field, m)
            pairs = (q - 1) // m * (q - 1)
            for block in blocks:
                monkeypatch.setattr(charsums, "_PAIR_BLOCK", block)
                next_class = 0
                for i0, u, v in charsums._quotient_key_groups(field, m):
                    n = len(u) // pairs
                    assert i0 == next_class and n >= 1, (q, m, block, i0)
                    assert len(u) == len(v) == n * pairs, (q, m, block, i0)
                    assert len(u) <= max(block, pairs), (q, m, block, i0)
                    assert u.dtype == v.dtype == np.int32, (q, m)
                    for keys, want in ((u, want_u), (v, want_v)):
                        got = np.bincount(keys, minlength=n * m * p)
                        assert np.array_equal(
                            got.reshape(n, m, p), want[i0:i0 + n]), \
                            (q, m, block, i0)
                    next_class = i0 + n
                assert next_class == m, (q, m, block)


def test_quotient_check_rejects_one_class_off_by_one(monkeypatch,
                                                     fresh_counts):
    # one dlog(1 - a) class off by one leaves U and V the same size, so
    # only their contents tell them apart; both the sorted keys of a
    # sparse order and the slab histograms of a dense one must see it.
    # The degenerate-pair test is made to pass, so that only the tensor
    # comparison can reject
    cases = {(31, 15): "sparse", (31, 2): "dense"}
    for q, m in cases:
        assert verify_jacobi_quotient(make_field(q), m), (q, m)
    paths = []
    slabs, groups = charsums._quotient_slabs, charsums._quotient_key_groups
    pairs = charsums._class_pairs

    def off_by_one(field, m):
        a, b = pairs(field, m)
        b = b.copy()
        b[len(b) // 2] = (b[len(b) // 2] + 1) % m
        return a, b

    monkeypatch.setattr(charsums, "_class_pairs", off_by_one)
    monkeypatch.setattr(charsums, "_vanishes_at_powers", lambda *_: True)
    monkeypatch.setattr(charsums, "_quotient_slabs", lambda *args: (
        paths.append("dense") or slabs(*args)))
    monkeypatch.setattr(charsums, "_quotient_key_groups", lambda *args: (
        paths.append("sparse") or groups(*args)))
    for (q, m), path in cases.items():
        paths.clear()
        assert verify_jacobi_quotient(make_field(q), m) is False, (q, m)
        assert paths == [path], (q, m, paths)


def test_tensor_budget_raises_before_counting(monkeypatch, fresh_counts):
    # both Gauss-product paths bound the m slabs of m p bins; the default
    # budget skips m = 2052 on F_2053, as the whole tensor's did, and the
    # identity suite raises at m = 396 on F_397 before any check counts
    with monkeypatch.context() as mp:
        mp.setattr(charsums, "_pair_counts", None)   # never reached
        with pytest.raises(BoundExceeded):
            verify_jacobi_quotient(make_field(2053), 2052)
        with pytest.raises(BoundExceeded):
            verify_identity_suite(make_field(397), 396)
    # below, the budget is patched low, so no test asks for a huge count
    field, m = make_field(37), 4
    size = m * m * 37
    monkeypatch.setattr(charsums, "_TENSOR_MAX", size)
    assert verify_jacobi_quotient(field, m)              # at the budget
    assert check_gauss(field, m, False) == VERDICT_DS
    monkeypatch.setattr(charsums, "_TENSOR_MAX", size - 1)
    monkeypatch.setattr(charsums, "_pair_counts", None)   # never reached
    for call in (lambda: _gauss_slices(field, m),
                 lambda: verify_jacobi_quotient(field, m),
                 lambda: check_gauss(field, m, False)):
        with pytest.raises(BoundExceeded):
            call()
    assert run_all_checkers(field, m, False) == {
        "direct": VERDICT_DS, "charsum": VERDICT_DS, "jacobi": VERDICT_DS,
        "gauss": "skipped"}


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
