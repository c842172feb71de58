"""Buchberger engine and the elimination pipeline that produces the
univariate aggregate polynomials."""

from math import gcd
from types import SimpleNamespace

import pytest
import sympy as sp
from hypothesis import given, strategies as st

from cyclodiff import groebner
from cyclodiff.errors import (CyclodiffError, LimitExceeded,
                              NotZeroDimensional, OrderMismatch,
                              UncertifiedBasis)
from cyclodiff.groebner import (_B, GBasis, _eliminate, _gen_triple,
                                _Packing, buchberger, certify,
                                compute_f_poly, eliminate_to_univariate,
                                is_zero_dimensional, normal_form,
                                probe_g0_zero, staircase)
from cyclodiff.intpoly import IntPoly
from cyclodiff.polysys import MPoly, gen_g_system, gen_ghat_system
from cyclodiff.tables import f_table


def _grevlex_key(exps) -> tuple:
    """Sort key of grevlex on exponent tuples, the definition the packed
    order is checked against: ascending keys are ascending monomials."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _to_sympy(q, syms):
    expr = sp.Integer(0)
    for exps, c in q.terms.items():
        term = sp.Rational(c)
        for s, e in zip(syms, exps):
            term *= s ** e
        expr += term
    return expr


def _monic_set(polys, syms):
    return {sp.Poly(_to_sympy(p, syms), *syms).monic() for p in polys}


CYCLIC3 = [MPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}),
           MPoly(3, {(1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}),
           MPoly(3, {(1, 1, 1): 1, (0, 0, 0): -1})]


# -- polynomials and the order ------------------------------------------------------


def test_generators_are_primitive_with_positive_leads():
    # content and sign of the input normalize away
    for scale in (1, 3, -2):
        basis = buchberger([MPoly(1, {(2,): 2 * scale, (0,): 4 * scale})])
        assert basis.generators == (MPoly(1, {(2,): 1, (0,): 2}),)
    # the lead is the grevlex max, y^2 here, not the lex max x
    basis = buchberger([MPoly(2, {(1, 0): 6, (0, 2): -4})])
    assert basis.generators == (MPoly(2, {(0, 2): 2, (1, 0): -3}),)
    with pytest.raises(ValueError, match="empty"):
        buchberger([])
    # every generator packs in the same number of variables
    with pytest.raises(OrderMismatch, match="2 and 3 variables"):
        buchberger([MPoly(2, {(1, 0): 1}), MPoly(3, {(0, 0, 1): 1})])


def test_monomial_orders():
    # grevlex is the only order: degree first, then the smaller power of
    # the last variable wins
    x2y, xy2, x3 = (2, 1), (1, 2), (3, 0)
    assert max([x2y, xy2], key=_grevlex_key) == x2y
    assert max([x2y, x3], key=_grevlex_key) == x3
    assert max([(1, 0, 1), (0, 2, 0)], key=_grevlex_key) == (0, 2, 0)
    assert max([(2, 0), (0, 3)], key=_grevlex_key) == (0, 3)


# -- packed monomials against the tuple definitions ---------------------------------


def _exponent_pairs(cap):
    """Two exponent tuples in 1 to 6 variables, each exponent at most
    cap(n), so that their total degrees stay within the packed bound."""
    def pair(n):
        vec = st.lists(st.integers(0, cap(n)), min_size=n, max_size=n)
        return st.tuples(st.just(n), vec.map(tuple), vec.map(tuple))
    return st.integers(1, 6).flatmap(pair)


@given(_exponent_pairs(lambda n: _B // n))
def test_packed_order_is_grevlex(case):
    n, a, b = case
    packing = _Packing(n)
    ka, kb = packing.pack(a), packing.pack(b)
    assert packing.unpack(ka) == a and packing.unpack(kb) == b
    assert (ka < kb) == (_grevlex_key(a) < _grevlex_key(b))
    assert (ka == kb) == (a == b)


@given(_exponent_pairs(lambda n: _B // n))
def test_packed_divisibility_and_lcm(case):
    n, a, b = case
    packing = _Packing(n)
    ka, kb = packing.pack(a), packing.pack(b)
    assert packing.divides(ka, kb) == _divides(a, b)
    assert packing.divides(kb, ka) == _divides(b, a)
    lcm = packing.lcm(ka, kb)
    assert lcm == packing.pack(tuple(map(max, a, b)))
    assert packing.divides(ka, lcm) and packing.divides(kb, lcm)
    assert packing.divides(packing.pack(tuple(map(min, a, b))), ka)
    coprime = all(min(x, y) == 0 for x, y in zip(a, b))
    assert (ka + kb - packing.base == lcm) == coprime


@given(_exponent_pairs(lambda n: _B // (2 * n)))
def test_packed_product_and_shift(case):
    n, a, b = case
    packing = _Packing(n)
    ka, kb = packing.pack(a), packing.pack(b)
    ab = packing.pack(tuple(x + y for x, y in zip(a, b)))
    assert ka + kb - packing.base == ab
    # the reducer's shift of b by the quotient ab / a
    assert kb + (ab - ka) == packing.pack(tuple(2 * y for y in b))


def test_packing_reaches_the_bound_in_every_field():
    for n in (1, 3, 7):
        packing = _Packing(n)
        for v in range(n):
            top = tuple(_B if i == v else 0 for i in range(n))
            assert packing.unpack(packing.pack(top)) == top
            assert packing.divides(packing.pack((0,) * n), packing.pack(top))


# -- the elimination step ------------------------------------------------------------


_EXPS = st.tuples(*[st.integers(0, 3)] * 3)
_COEFFS = st.integers(-60, 60).filter(bool)


@given(st.dictionaries(_EXPS, _COEFFS, min_size=1, max_size=6),
       st.dictionaries(_EXPS, _COEFFS, max_size=6), _EXPS, _COEFFS)
def test_elimination_step_matches_the_dict_oracle(gen, work, shift, c):
    # work gets c at gen's lead times shift, which the step must cancel:
    # work <- scale * work - factor * shift * gen, with scale > 0 and
    # gcd(scale, factor) = 1, checked on exponent tuples
    packing = _Packing(3)
    gterms, glead, glc = _gen_triple(packing.pack_terms(gen))
    target = tuple(x + y for x, y in zip(packing.unpack(glead), shift))
    work = {**work, target: c}
    packed = packing.pack_terms(work)
    lead = packing.pack(target)
    scale = _eliminate(packed, lead, (gterms, glead, glc))
    factor, rest = divmod(scale * c, glc)
    assert scale > 0 and rest == 0 and gcd(scale, factor) == 1
    want = {e: scale * v for e, v in work.items()}
    for e, v in gen.items():
        key = tuple(x + y for x, y in zip(e, shift))
        want[key] = want.get(key, 0) - factor * v
    want = {e: v for e, v in want.items() if v}
    assert packing.unpack_terms(packed) == want
    assert lead not in packed


# -- the degree bound ----------------------------------------------------------------


def test_input_past_the_degree_bound_is_refused():
    with pytest.raises(LimitExceeded, match="total degree 32768 exceeds"
                                            " 32767") as info:
        buchberger([MPoly(2, {(1, 0): 1}),
                    MPoly(2, {(0, _B + 1): 1, (0, 0): 1})])
    partial = info.value.partial
    assert isinstance(partial, GBasis) and not partial.certified
    assert partial.generators == (MPoly(2, {(1, 0): 1}),)
    # normal forms pack through the same check
    basis = buchberger([MPoly(2, {(1, 0): 1})])
    with pytest.raises(LimitExceeded, match="exceeds"):
        normal_form(MPoly(2, {(_B, 1): 1}), basis)


def test_spair_lcm_past_the_degree_bound_is_refused():
    # both inputs are of degree 20001, their lcm of degree 40000; the
    # S-polynomial's y^39999 would not fit in a field
    f = MPoly(2, {(20000, 1): 1, (0, 20000): 1})
    g = MPoly(2, {(1, 20000): 1, (0, 0): 1})
    with pytest.raises(LimitExceeded, match="lcm of total degree 40000") \
            as info:
        buchberger([f, g], timeout=5)
    partial = info.value.partial
    assert isinstance(partial, GBasis) and not partial.certified
    assert set(partial.generators) == {f, g}
    assert info.value.stats["spairs_reduced"] == 0
    with pytest.raises(LimitExceeded, match="lcm of total degree 40000"):
        certify(GBasis((f, g), 2, certified=False))


def test_minimal_polynomial_shift_past_the_degree_bound_is_refused(
        monkeypatch):
    # with the bound of 8-bit fields, 127, the search on the order-4
    # curve (test_positive_dimension_detected) runs its powers of the
    # aggregate past the bound before it gives up at power 128
    monkeypatch.setattr(groebner, "_B", 127)
    with pytest.raises(LimitExceeded, match="minimal-polynomial shift to "
                                            "total degree 128 exceeds 127"):
        compute_f_poly(4, 1)


# -- Buchberger ---------------------------------------------------------------------


def test_textbook_basis():
    gens = [MPoly(2, {(3, 0): 1, (1, 1): -2}),
            MPoly(2, {(2, 1): 1, (0, 2): -2, (1, 0): 1})]
    basis = buchberger(gens)
    assert basis.certified
    expected = {MPoly(2, {(2, 0): 1}),
                MPoly(2, {(1, 1): 1}),
                MPoly(2, {(0, 2): 2, (1, 0): -1})}
    assert set(basis.generators) == expected
    assert certify(basis)


def test_cyclic3_matches_sympy():
    syms = sp.symbols("x y z")
    ours = buchberger(CYCLIC3)
    theirs = sp.groebner([_to_sympy(g, syms) for g in CYCLIC3],
                         *syms, order="grevlex")
    assert _monic_set(ours.generators, syms) == \
        {sp.Poly(e, *syms).monic() for e in theirs.exprs}


def test_seed_changes_route_not_basis():
    runs = [buchberger(CYCLIC3, seed=s) for s in (0, 1, 5, 11)]
    for other in runs[1:]:
        assert set(other.generators) == set(runs[0].generators)


def test_unit_ideal():
    basis = buchberger([MPoly(1, {(1,): 1}), MPoly(1, {(1,): 1, (0,): 1})])
    assert basis.is_unit_ideal()
    assert is_zero_dimensional(basis)
    assert staircase(basis) == []


def test_stats_populated():
    basis = buchberger(CYCLIC3)
    for key in ("spairs_reduced", "spairs_discarded", "max_coeff_bits",
                "generators", "seconds"):
        assert key in basis.stats
    assert basis.stats["generators"] == len(basis)
    assert basis.stats["max_coeff_bits"] >= 1


def test_limit_exceeded_carries_partial():
    system = gen_ghat_system(6, 0)
    with pytest.raises(LimitExceeded) as info:
        buchberger(system, max_spairs=10)
    exc = info.value
    assert exc.stats["spairs_reduced"] >= 1
    assert isinstance(exc.partial, GBasis)
    assert not exc.partial.certified
    with pytest.raises(UncertifiedBasis):
        is_zero_dimensional(exc.partial)
    with pytest.raises(UncertifiedBasis):
        staircase(exc.partial)


@pytest.mark.parametrize("keyword", ["max_spairs", "max_coeff_bits",
                                     "timeout"])
@pytest.mark.parametrize("value", [0, -1, True])
def test_limit_keywords_are_validated_not_defaulted(keyword, value):
    # a given limit passes the CYCLODIFF_LIMITS check, so 0 cannot read
    # as "use the default" nor -1 as a budget that is already spent
    with pytest.raises(CyclodiffError, match="gb_" + keyword):
        buchberger(gen_ghat_system(4, 0), **{keyword: value})


def test_timeout_stops_inside_the_reducer(monkeypatch):
    raised_inside = []
    reduce_full = groebner._reduce_full

    def spy(*args, **kwargs):
        try:
            return reduce_full(*args, **kwargs)
        except LimitExceeded:
            raised_inside.append(args[0])
            raise

    monkeypatch.setattr(groebner, "_reduce_full", spy)
    with pytest.raises(LimitExceeded) as info:
        buchberger(gen_ghat_system(6, 0), timeout=1e-9)
    exc = info.value
    assert "timeout" in str(exc)
    assert len(raised_inside) == 1
    assert exc.stats["spairs_reduced"] == 0
    assert isinstance(exc.partial, GBasis) and not exc.partial.certified
    assert len(exc.partial) == len(gen_ghat_system(6, 0).polys)


def test_reducer_reads_the_clock_on_every_step(monkeypatch):
    # x^300 on division by x - 1 takes 300 steps, down to the remainder 1;
    # a clock that passes the deadline on its fourth read must stop the
    # reducer before its fourth step
    packing = _Packing(1)
    gen = _gen_triple(packing.pack_terms({(1,): 1, (0,): -1}))
    f = packing.pack_terms({(300,): 1})
    assert groebner._reduce_full(f, groebner._Divisors([gen]), packing) == \
        ({packing.pack((0,)): 1}, 1)
    reads = []
    monkeypatch.setattr(groebner, "time", SimpleNamespace(
        monotonic=lambda: reads.append(None) or len(reads)))
    with pytest.raises(LimitExceeded, match="after 3 reduction steps"):
        groebner._reduce_full(f, groebner._Divisors([gen]), packing,
                              deadline=3.5)
    assert len(reads) == 4


# -- normal form and quotient data ---------------------------------------------------


def test_normal_form_membership():
    basis = buchberger(CYCLIC3)
    e1, e2, _ = CYCLIC3
    assert normal_form(e1 * e2, basis).is_zero()
    # the remainder comes back primitive with a positive lead
    assert normal_form(MPoly(3, {(0, 1, 0): -4, (0, 0, 1): 2}), basis) == \
        MPoly(3, {(0, 1, 0): 2, (0, 0, 1): -1})
    with pytest.raises(OrderMismatch):
        normal_form(MPoly(2, {(1, 0): 1}), basis)


def test_zero_dimensionality_detection():
    square = buchberger([MPoly(2, {(2, 0): 1, (0, 0): -1}),
                         MPoly(2, {(0, 3): 1, (1, 0): -1})])
    assert is_zero_dimensional(square)
    hyperbola = buchberger([MPoly(2, {(1, 1): 1, (0, 0): -1})])
    assert not is_zero_dimensional(hyperbola)


def test_staircase_of_box_ideal():
    basis = buchberger([MPoly(2, {(2, 0): 1, (0, 0): -1}),
                        MPoly(2, {(0, 3): 1, (1, 0): -1})])
    cells = staircase(basis)
    assert sorted(cells) == [(a, b) for a in range(2) for b in range(3)]
    with pytest.raises(LimitExceeded):
        staircase(basis, cap=3)


def _tuple_staircase(basis):
    """The staircase walk on exponent tuples: the same depth-first order
    as staircase, with no packing and no degree bound."""
    leads = [max(g.terms, key=_grevlex_key) for g in basis.generators]
    start = (0,) * basis.nvars
    seen, queue, out = {start}, [start], []
    while queue:
        mono = queue.pop()
        if any(_divides(lead, mono) for lead in leads):
            continue
        out.append(mono)
        for v in range(basis.nvars):
            nxt = mono[:v] + (mono[v] + 1,) + mono[v + 1:]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return out


def test_staircase_walks_in_the_tuple_order():
    # the packed walk returns the same monomials in the same order
    box = [MPoly(3, {(2, 0, 0): 1, (0, 0, 0): -1}),
           MPoly(3, {(0, 3, 0): 1, (1, 0, 0): -1}),
           MPoly(3, {(0, 0, 2): 1, (0, 1, 1): 1})]
    for gens in (box, CYCLIC3, gen_ghat_system(6, 1).polys):
        basis = buchberger(gens)
        assert is_zero_dimensional(basis)
        assert staircase(basis) == _tuple_staircase(basis)


def test_staircase_stops_at_the_degree_bound():
    # xy - 1 leaves every pure power outside its lead ideal; the walk
    # climbs one of them and must stop before a field wraps, well inside
    # the default cap
    basis = buchberger([MPoly(2, {(1, 1): 1, (0, 0): -1})])
    assert not is_zero_dimensional(basis)
    with pytest.raises(LimitExceeded, match="staircase step to total "
                                            "degree 32768 exceeds 32767"):
        staircase(basis)


# -- elimination --------------------------------------------------------------------


def test_empty_variety_gives_unit_poly():
    assert eliminate_to_univariate(gen_ghat_system(4, 0)) == IntPoly([1])
    assert compute_f_poly(4, 0) == IntPoly([1])


def test_positive_dimension_detected():
    # the twist-1 variety at order 4 is a curve, so no univariate
    # relation on the aggregate exists
    with pytest.raises(NotZeroDimensional):
        compute_f_poly(4, 1)


def test_compute_f_poly_takes_only_the_quotient_strategy():
    assert compute_f_poly(4, 0, strategy="quotient") == IntPoly([1])
    for strategy in ("block", "magic"):
        with pytest.raises(ValueError, match="strategy"):
            compute_f_poly(4, 0, strategy=strategy)


def test_each_aggregate_refuses_the_other_level():
    # g0 is a variable of the g level only, the mean of the ghats of the
    # ghat level only; neither target falls back to the other
    with pytest.raises(ValueError, match="g-level"):
        eliminate_to_univariate(gen_ghat_system(4, 0), "g0")
    with pytest.raises(ValueError, match="ghat-level"):
        eliminate_to_univariate(gen_g_system(4), "mean_ghat")


def test_order6_aggregate_polynomials():
    stats = {}
    f0 = compute_f_poly(6, 0, stats_sink=stats)
    assert f0 == IntPoly([-4, 0, 1])
    assert stats["generators"] >= 1 and stats["seconds"] > 0
    f1 = compute_f_poly(6, 1)
    assert f1 == IntPoly([-1, 0, 7])
    assert compute_f_poly(6, 1, seed=3) == f1
    rows = dict(f_table(6)[0])
    assert f0 == rows[0]
    assert f1 == rows[1]


def _route(m, theta, **kw):
    """(outcome, spairs_reduced, spairs_discarded, max_coeff_bits,
    generators) of compute_f_poly(m, theta): the outcome is the
    coefficients, or the exception's class name and message."""
    stats = {}
    try:
        outcome = list(compute_f_poly(m, theta, stats_sink=stats,
                                      **kw).coeffs)
    except LimitExceeded as exc:
        outcome, stats = (type(exc).__name__, str(exc)), exc.stats
    except NotZeroDimensional as exc:
        outcome = (type(exc).__name__, str(exc))
    return (outcome, stats["spairs_reduced"], stats["spairs_discarded"],
            stats["max_coeff_bits"], stats["generators"])


def _assert_budget_is_exact(m, theta, outcome, reduced):
    # the heap holds only pairs that will be reduced, so a budget of
    # exactly the reductions a run makes finishes it, and one less stops
    # it on the budget
    assert _route(m, theta, max_spairs=reduced)[0] == outcome
    assert _route(m, theta, max_spairs=reduced - 1)[0] == \
        ("LimitExceeded", f"S-pair budget {reduced - 1} exhausted")


# _route(6, theta) for every seed 0 to 10
ORDER6_RUNS = {0: ([-4, 0, 1], 120, 1710, 564, 17),
               1: ([-1, 0, 7], 122, 1648, 855, 17)}


@pytest.mark.parametrize("theta", sorted(ORDER6_RUNS))
def test_order6_polynomials_and_counters_hold_for_every_seed(theta):
    for seed in range(11):
        assert _route(6, theta, seed=seed) == ORDER6_RUNS[theta], seed
    poly, reduced = ORDER6_RUNS[theta][:2]
    _assert_budget_is_exact(6, theta, poly, reduced)


# _route(m, theta) at seed 0 past order 6.  A change to the reducer or
# the pair queue that alters the route changes a counter.
ROUTE_RUNS = {
    (4, 0): ([1], 6, 39, 4, 1),
    (4, 1): (("NotZeroDimensional",
              "no univariate relation on the aggregate was found"),
             14, 64, 5, 7),
    (8, 0): (("NotZeroDimensional",
              "no univariate relation on the aggregate was found"),
             279, 3726, 19, 40),
    (8, 1): ([1], 10, 180, 8, 1),
    (8, 2): (("LimitExceeded", "coefficient growth 5115 bits exceeds 4096"),
             145, 8339, 5115, 133),
    (8, 3): ([1], 12, 219, 10, 1),
}


@pytest.mark.parametrize("m,theta", sorted(ROUTE_RUNS))
def test_route_outcomes_and_counters_hold_at_orders_4_and_8(m, theta):
    assert _route(m, theta, seed=0) == ROUTE_RUNS[m, theta]
    outcome, reduced = ROUTE_RUNS[m, theta][:2]
    if outcome[0] != "LimitExceeded":
        # the basis was finished, whatever the elimination made of it
        _assert_budget_is_exact(m, theta, outcome, reduced)


@pytest.mark.parametrize("m,theta", [(12, 0), (12, 2), (16, 1), (20, 0),
                                     (20, 2)])
def test_empty_branches_past_order_10(m, theta):
    # the reference rows whose branch the Q engine certifies empty in
    # under a second; the only tests of the engine on 12 to 20 variables
    assert dict(f_table(m)[0])[theta] == IntPoly([1])
    assert compute_f_poly(m, theta) == IntPoly([1])


def test_probe_aggregate_zero():
    assert probe_g0_zero(6, 0) == "empty"
    assert probe_g0_zero(6, 1) == "empty"
    assert probe_g0_zero(4, 1) == "nonempty"
    assert probe_g0_zero(6, 0, max_spairs=3) == "undecided"
