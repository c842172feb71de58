"""Buchberger engine and the elimination pipeline that produces the
univariate aggregate polynomials."""

from fractions import Fraction

import pytest
import sympy as sp

from cyclodiff import groebner
from cyclodiff.errors import (CyclodiffError, LimitExceeded,
                              NotZeroDimensional, OrderMismatch,
                              UncertifiedBasis)
from cyclodiff.groebner import (GREVLEX, LEX, GBasis, MonomialOrder, QPoly,
                                buchberger, certify, compute_f_poly,
                                eliminate_to_univariate, f_table,
                                is_zero_dimensional, normal_form,
                                probe_g0_zero, staircase)
from cyclodiff.intpoly import IntPoly
from cyclodiff.polysys import gen_ghat_system


def _q(nvars, d):
    return QPoly.from_dict(nvars, d)


def _to_sympy(q, syms):
    expr = sp.Integer(0)
    for exps, c in q.terms:
        term = sp.Rational(c)
        for s, e in zip(syms, exps):
            term *= s ** e
        expr += term
    return expr


def _monic_set(qpolys, syms):
    return {sp.Poly(_to_sympy(q, syms), *syms).monic() for q in qpolys}


CYCLIC3 = [_q(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}),
           _q(3, {(1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}),
           _q(3, {(1, 1, 1): 1, (0, 0, 0): -1})]


# -- polynomials and orders --------------------------------------------------------


def test_qpoly_content_normalization():
    a = _q(1, {(2,): Fraction(2, 3), (0,): Fraction(4, 3)})
    b = _q(1, {(2,): 1, (0,): 2})
    assert a == b
    # sign of the content normalizes away too
    assert _q(1, {(2,): -2, (0,): -4}) == b
    assert _q(2, {}).is_zero()


def test_monomial_orders():
    x2y, xy2, x3 = (2, 1), (1, 2), (3, 0)
    assert max([x2y, xy2], key=GREVLEX.key) == x2y
    assert max([x2y, x3], key=LEX.key) == x3
    assert max([x2y, x3], key=GREVLEX.key) == x3
    assert MonomialOrder("grevlex") == GREVLEX != LEX
    # grevlex and lex are the only kinds
    with pytest.raises(ValueError):
        MonomialOrder("magic")
    with pytest.raises(ValueError):
        MonomialOrder("block")
    with pytest.raises(TypeError):
        MonomialOrder("block", elim=1)


# -- Buchberger ---------------------------------------------------------------------


def test_textbook_basis():
    gens = [_q(2, {(3, 0): 1, (1, 1): -2}),
            _q(2, {(2, 1): 1, (0, 2): -2, (1, 0): 1})]
    basis = buchberger(gens)
    assert basis.certified
    expected = {_q(2, {(2, 0): 1}),
                _q(2, {(1, 1): 1}),
                _q(2, {(0, 2): 2, (1, 0): -1})}
    assert set(basis.generators) == expected
    assert certify(basis)


def test_cyclic3_matches_sympy():
    syms = sp.symbols("x y z")
    for order_name, order in (("grevlex", GREVLEX), ("lex", LEX)):
        ours = buchberger(CYCLIC3, order)
        theirs = sp.groebner([_to_sympy(g, syms) for g in CYCLIC3],
                             *syms, order=order_name)
        assert _monic_set(ours.generators, syms) == \
            {sp.Poly(e, *syms).monic() for e in theirs.exprs}, order_name


def test_seed_changes_route_not_basis():
    runs = [buchberger(CYCLIC3, seed=s) for s in (0, 1, 5, 11)]
    for other in runs[1:]:
        assert set(other.generators) == set(runs[0].generators)


def test_unit_ideal():
    basis = buchberger([_q(1, {(1,): 1}), _q(1, {(1,): 1, (0,): 1})])
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


# -- normal form and quotient data ---------------------------------------------------


def test_normal_form_membership():
    basis = buchberger(CYCLIC3)
    e1, e2, _ = CYCLIC3
    acc = {}
    for ea, ca in e1.terms:
        for eb, cb in e2.terms:
            key = tuple(a + b for a, b in zip(ea, eb))
            acc[key] = acc.get(key, 0) + ca * cb
    assert normal_form(_q(3, acc), basis).is_zero()
    assert not normal_form(_q(3, {(1, 0, 0): 1}), basis).is_zero()
    with pytest.raises(OrderMismatch):
        normal_form(_q(2, {(1, 0): 1}), basis)


def test_zero_dimensionality_detection():
    square = buchberger([_q(2, {(2, 0): 1, (0, 0): -1}),
                         _q(2, {(0, 3): 1, (1, 0): -1})])
    assert is_zero_dimensional(square)
    hyperbola = buchberger([_q(2, {(1, 1): 1, (0, 0): -1})])
    assert not is_zero_dimensional(hyperbola)


def test_staircase_of_box_ideal():
    basis = buchberger([_q(2, {(2, 0): 1, (0, 0): -1}),
                        _q(2, {(0, 3): 1, (1, 0): -1})])
    cells = staircase(basis)
    assert sorted(cells) == [(a, b) for a in range(2) for b in range(3)]
    with pytest.raises(LimitExceeded):
        staircase(basis, cap=3)


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


def test_probe_aggregate_zero():
    assert probe_g0_zero(6, 0) == "empty"
    assert probe_g0_zero(6, 1) == "empty"
    assert probe_g0_zero(4, 1) == "nonempty"
    assert probe_g0_zero(6, 0, max_spairs=3) == "undecided"
