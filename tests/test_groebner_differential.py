"""The Buchberger engine against sympy on small random ideals.

Every ideal comes from one fixed random.Random seed, so the run is
deterministic.  sympy's groebner, reduced and is_groebner are the slow
oracles for buchberger, the fraction-free reducer, normal_form and
certify, and the univariate element of sympy's lex basis is the oracle
for eliminate_to_univariate.
"""

import random

import pytest
import sympy as sp
from sympy.polys.groebnertools import is_groebner

from cyclodiff.errors import NotZeroDimensional
from cyclodiff.groebner import (GREVLEX, LEX, GBasis, QPoly, _basis_triples,
                                _reduce_full, buchberger, certify,
                                eliminate_to_univariate, normal_form)
from cyclodiff.intpoly import IntPoly
from cyclodiff.polysys import MPoly, PolySystem

ORDERS = (("grevlex", GREVLEX), ("lex", LEX))


def _random_poly(rng, nv, terms, max_deg=3):
    d = {}
    for _ in range(terms):
        e = [0] * nv
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nv)] += 1
        d[tuple(e)] = d.get(tuple(e), 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    return QPoly.from_dict(nv, d)


def _random_ideals(count=20, seed=20261018):
    """(nvars, generators): 3 or 4 variables, 2 or 3 generators of 2 to 4
    terms, total degree at most 3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nv = rng.choice((3, 4))
        gens = [_random_poly(rng, nv, rng.randint(2, 4))
                for _ in range(rng.choice((2, 3)))]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            out.append((nv, gens))
    return out


IDEALS = _random_ideals()


def _syms(nv):
    return sp.symbols(f"x0:{nv}")


def _expr(q, syms):
    return sp.Add(*[c * sp.Mul(*[s ** k for s, k in zip(syms, e)])
                    for e, c in q.terms])


def _sympy_dict(poly):
    return {e: c for e, c in poly.terms() if c}


@pytest.mark.parametrize("name,order", ORDERS)
def test_reduced_bases_match_sympy(name, order):
    sizes = []
    for nv, gens in IDEALS:
        syms = _syms(nv)
        ours = buchberger(gens, order)
        theirs = sp.groebner([_expr(g, syms) for g in gens], *syms,
                             order=name)
        assert {sp.Poly(_expr(g, syms), *syms).monic()
                for g in ours.generators} == \
            {sp.Poly(e, *syms).monic() for e in theirs.exprs}, (name, gens)
        sizes.append(len(ours))
    # the sample reaches past the trivial one-generator answers
    assert max(sizes) >= 4


def test_seed_keeps_the_reduced_basis():
    for nv, gens in IDEALS:
        for _, order in ORDERS:
            bases = [set(buchberger(gens, order, seed=s).generators)
                     for s in range(4)]
            assert all(b == bases[0] for b in bases[1:]), gens


def test_reducer_remainder_is_a_positive_multiple_of_the_rational_one():
    rng = random.Random(7)
    for nv, gens in IDEALS:
        syms = _syms(nv)
        for name, order in ORDERS:
            basis = buchberger(gens, order)
            # division by the raw generators depends on their order, so
            # it checks the division route step for step; division by
            # the basis checks the normal form
            for divisors in (gens, list(basis.generators)):
                f = _random_poly(rng, nv, 6, max_deg=4)
                triples = _basis_triples(GBasis(tuple(divisors), order, nv,
                                                certified=False))
                rem, mult = _reduce_full(dict(f.terms), triples, order)
                assert isinstance(mult, int) and mult > 0
                assert all(isinstance(c, int) for c in rem.values())
                _, r = sp.reduced(_expr(f, syms),
                                  [_expr(g, syms) for g in divisors],
                                  *syms, order=name)
                want = _sympy_dict(sp.Poly(r, *syms, domain="QQ"))
                assert rem == {e: mult * c for e, c in want.items()}, \
                    (name, f, divisors)


def test_normal_form_and_certify_agree_with_sympy():
    rng = random.Random(11)
    for nv, gens in IDEALS:
        syms = _syms(nv)
        for name, order in ORDERS:
            basis = buchberger(gens, order)
            theirs = sp.groebner([_expr(g, syms) for g in gens], *syms,
                                 order=name)
            f = _random_poly(rng, nv, 6, max_deg=4)
            nf = normal_form(f, basis)
            _, r = theirs.reduce(_expr(f, syms))
            assert nf == QPoly.from_dict(
                nv, _sympy_dict(sp.Poly(r, *syms, domain="QQ"))), (name, f)
            assert certify(basis)
            raw = GBasis(tuple(gens), order, nv, certified=False)
            ring, *_ = sp.ring(syms, sp.QQ, order=name)
            elems = [ring.from_dict(dict(g.terms)) for g in gens]
            assert certify(raw) == is_groebner(elems, ring), (name, gens)


def _g_systems(count=40, seed=20261019):
    """g-level systems of nv generators in nv = 2 or 3 variables, each of
    2 to 4 terms and total degree at most 2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nv = rng.choice((2, 3))
        gens = [_random_poly(rng, nv, rng.randint(2, 4), max_deg=2)
                for _ in range(nv)]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            out.append(PolySystem(2, "g", None, tuple(map(str, _syms(nv))),
                                  tuple(MPoly(nv, dict(g.terms))
                                        for g in gens)))
    return out


def test_elimination_matches_the_univariate_lex_element():
    # with x0 last in lex, the reduced basis meets Q[x0] in at most one
    # element, the generator of the elimination ideal; the default
    # target of a g-level system is g0, here x0
    kinds = {"relation": 0, "none": 0}
    for system in _g_systems():
        syms = _syms(len(system.var_names))
        exprs = [_expr(QPoly.from_mpoly(p), syms) for p in system.polys]
        lex = sp.groebner(exprs, *syms[1:], syms[0], order="lex")
        uni = [g for g in lex.exprs if g.free_symbols <= {syms[0]}]
        if not uni:
            kinds["none"] += 1
            with pytest.raises(NotZeroDimensional):
                eliminate_to_univariate(system)
            continue
        kinds["relation"] += 1
        coeffs = sp.Poly(uni[0], syms[0]).all_coeffs()[::-1]
        want = IntPoly([int(c) for c in coeffs]).primitive()
        assert eliminate_to_univariate(system) == want, system.polys
    # both outcomes occur in the sample
    assert kinds["relation"] >= 30 and kinds["none"] >= 1
