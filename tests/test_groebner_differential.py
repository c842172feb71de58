"""The Buchberger engine against sympy on small random ideals.

Every ideal comes from one fixed random.Random seed, so the run is
deterministic.  sympy's grevlex order is the oracle for the tuple
grevlex key and the engine's packed keys; sympy's groebner, reduced and is_groebner, all in grevlex,
are the slow oracles for buchberger, the fraction-free reducer,
normal_form and certify; and the univariate element of sympy's lex
basis is the oracle for eliminate_to_univariate.  A division without a
memo, written out here, is the oracle for the reducer's shared
first-divisor memo.  Besides the random ideals, the basis comparisons
take the ghat systems of orders 4 and 6.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy as sp
from sympy.polys.groebnertools import is_groebner
from sympy.polys.orderings import grevlex

from cyclodiff.errors import NotZeroDimensional
from cyclodiff.groebner import (GBasis, _basis_triples, _Divisors,
                                _gen_triple, _Packing, _reduce_full,
                                buchberger, certify,
                                eliminate_to_univariate, normal_form)
from cyclodiff.intpoly import IntPoly
from cyclodiff.polysys import MPoly, PolySystem, gen_ghat_system


def _grevlex_key(exps) -> tuple:
    """Sort key of grevlex on exponent tuples: ascending keys are
    ascending monomials."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _random_poly(rng, nv, terms, max_deg=3):
    d = {}
    for _ in range(terms):
        e = [0] * nv
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nv)] += 1
        d[tuple(e)] = d.get(tuple(e), 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    return MPoly(nv, d)


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

# the paper's own ghat systems, the inputs the engine exists for and
# larger than any random ideal above
PAPER_SYSTEMS = [(system.polys[0].nvars, list(system.polys))
                 for system in (gen_ghat_system(m, theta)
                                for m, theta in ((4, 0), (4, 1), (6, 0),
                                                 (6, 1)))]


def _syms(nv):
    return sp.symbols(f"x0:{nv}")


def _expr(p, syms):
    return sp.Add(*[c * sp.Mul(*[s ** k for s, k in zip(syms, e)])
                    for e, c in p.terms.items()])


def _sympy_dict(poly):
    return {e: c for e, c in poly.terms() if c}


def _primitive(nv, poly):
    """Primitive part of a sympy QQ polynomial, its grevlex lead positive
    by sympy's own order."""
    d = {e: Fraction(int(c.numerator), int(c.denominator))
         for e, c in _sympy_dict(poly).items()}
    if not d:
        return MPoly(nv)
    den = lcm(*(c.denominator for c in d.values()))
    ints = {e: int(c * den) for e, c in d.items()}
    g = gcd(*ints.values())
    if ints[max(ints, key=grevlex)] < 0:
        g = -g
    return MPoly(nv, {e: c // g for e, c in ints.items()})


def test_grevlex_key_matches_sympy():
    # half of the pairs are permutations of each other, so equal degrees
    # and the reverse-lexicographic tie-break are well sampled
    rng = random.Random(20261020)
    for _ in range(20000):
        nv = rng.randint(1, 8)
        a = tuple(rng.randint(0, 4) for _ in range(nv))
        if rng.random() < 0.5:
            b = tuple(rng.sample(a, nv))
        else:
            b = tuple(rng.randint(0, 4) for _ in range(nv))
        ka, kb = _grevlex_key(a), _grevlex_key(b)
        sa, sb = grevlex(a), grevlex(b)
        assert ((ka > kb) - (ka < kb)) == ((sa > sb) - (sa < sb)), (a, b)
        # and the engine's packed keys, directly
        pa, pb = _Packing(nv).pack(a), _Packing(nv).pack(b)
        assert ((pa > pb) - (pa < pb)) == ((sa > sb) - (sa < sb)), (a, b)


def test_reduced_bases_match_sympy():
    sizes = []
    for nv, gens in IDEALS + PAPER_SYSTEMS:
        syms = _syms(nv)
        ours = buchberger(gens)
        theirs = sp.groebner([_expr(g, syms) for g in gens], *syms,
                             order="grevlex")
        assert {sp.Poly(_expr(g, syms), *syms).monic()
                for g in ours.generators} == \
            {sp.Poly(e, *syms).monic() for e in theirs.exprs}, gens
        assert certify(ours)
        sizes.append(len(ours))
    # the sample reaches past the trivial one-generator answers
    assert max(sizes) >= 4


def test_seed_keeps_the_reduced_basis():
    for nv, gens in IDEALS + PAPER_SYSTEMS:
        bases = [set(buchberger(gens, seed=s).generators) for s in range(4)]
        assert all(b == bases[0] for b in bases[1:]), gens
        assert certify(GBasis(tuple(bases[0]), nv, certified=False))


def test_reducer_remainder_is_a_positive_multiple_of_the_rational_one():
    rng = random.Random(7)
    for nv, gens in IDEALS:
        syms = _syms(nv)
        basis = buchberger(gens)
        # division by the raw generators depends on their order, so it
        # checks the division route step for step; division by the basis
        # checks the normal form
        for divisors in (gens, list(basis.generators)):
            f = _random_poly(rng, nv, 6, max_deg=4)
            # the reducer works on packed monomials: pack f and the
            # divisors on the way in, unpack the remainder on the way out
            packing = _Packing(nv)
            triples = _basis_triples(GBasis(tuple(divisors), nv,
                                            certified=False), packing)
            packed, mult = _reduce_full(packing.pack_terms(f.terms),
                                        _Divisors(triples), packing)
            rem = packing.unpack_terms(packed)
            assert isinstance(mult, int) and mult > 0
            assert all(isinstance(c, int) for c in rem.values())
            _, r = sp.reduced(_expr(f, syms),
                              [_expr(g, syms) for g in divisors],
                              *syms, order="grevlex")
            want = _sympy_dict(sp.Poly(r, *syms, domain="QQ"))
            assert rem == {e: mult * c for e, c in want.items()}, \
                (f, divisors)


def _plain_division(f: dict, gens: list, packing) -> tuple[dict, int]:
    """The reducer without a memo: scan every generator for the first
    lead that divides, and scale the remainder on every step."""
    remainder, work, mult = {}, {e: c for e, c in f.items() if c}, 1
    while work:
        lead = max(work)
        for gterms, glead, glc in gens:
            if packing.divides(glead, lead):
                c = work[lead]
                g = gcd(c, glc)
                scale, factor = glc // g, c // g
                if scale < 0:
                    scale, factor = -scale, -factor
                mult *= scale
                work = {e: scale * v for e, v in work.items()}
                remainder = {e: scale * v for e, v in remainder.items()}
                for e, v in gterms.items():
                    key = e + lead - glead
                    work[key] = work.get(key, 0) - factor * v
                    if not work[key]:
                        del work[key]
                break
        else:
            remainder[lead] = work.pop(lead)
    return remainder, mult


def test_shared_divisor_memo_matches_fresh_division_as_the_list_grows():
    # one memo serves every division while generators are appended
    # between calls, as in buchberger's main loop; each (remainder,
    # mult) must be that of a fresh division by the list as it stands
    rng = random.Random(11)
    settled = 0                 # memo misses that a later append resolved
    for nv, gens in IDEALS:
        packing = _Packing(nv)
        extra = list(buchberger(gens).generators) \
            + [_random_poly(rng, nv, 3, max_deg=2) for _ in range(3)]
        extra = [g for g in extra if not g.is_zero()]
        divisors = _Divisors(_basis_triples(GBasis(tuple(gens), nv,
                                                   certified=False), packing))
        for new in [None] + extra:
            if new is not None:
                misses = {k for k, i in divisors.first.items() if i < 0}
                divisors.gens.append(_gen_triple(packing.pack_terms(new.terms)))
            for _ in range(3):
                f = packing.pack_terms(_random_poly(rng, nv, 6,
                                                    max_deg=4).terms)
                got = _reduce_full(f, divisors, packing)
                assert got == _plain_division(f, list(divisors.gens),
                                              packing), (gens, new)
            if new is not None:
                settled += sum(divisors.first[k] >= 0 for k in misses)
    # the rescan of generators appended after a miss was exercised
    assert settled > 0


def test_normal_form_and_certify_agree_with_sympy():
    rng = random.Random(11)
    for nv, gens in IDEALS:
        syms = _syms(nv)
        basis = buchberger(gens)
        theirs = sp.groebner([_expr(g, syms) for g in gens], *syms,
                             order="grevlex")
        f = _random_poly(rng, nv, 6, max_deg=4)
        nf = normal_form(f, basis)
        _, r = theirs.reduce(_expr(f, syms))
        assert nf == _primitive(nv, sp.Poly(r, *syms, domain="QQ")), f
        assert certify(basis)
        raw = GBasis(tuple(gens), nv, certified=False)
        ring, *_ = sp.ring(syms, sp.QQ, order="grevlex")
        elems = [ring.from_dict(g.terms) for g in gens]
        assert certify(raw) == is_groebner(elems, ring), gens


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
                                  tuple(gens)))
    return out


def test_elimination_matches_the_univariate_lex_element():
    # with x0 last in lex, the reduced basis meets Q[x0] in at most one
    # element, the generator of the elimination ideal; the default
    # target of a g-level system is g0, here x0
    kinds = {"relation": 0, "none": 0}
    for system in _g_systems():
        syms = _syms(len(system.var_names))
        exprs = [_expr(p, syms) for p in system.polys]
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
