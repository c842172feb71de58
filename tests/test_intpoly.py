"""Integer polynomial layer: arithmetic, gcd, Sturm, cyclotomics."""

import random
from fractions import Fraction

import pytest
import sympy

from cyclodiff.errors import ZeroPolynomial
from cyclodiff.intpoly import (IntPoly, count_real_roots,
                               cyclotomic_polynomial_unbounded, euler_phi,
                               poly_gcd, prime_factors, rational_roots,
                               real_root_bound, squarefree_part)


def test_construction_strips_leading_zeros():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()
    assert IntPoly([]).is_zero()
    assert IntPoly([5]).degree == 0
    assert IntPoly([]).degree == -1


def test_arithmetic():
    f = IntPoly([1, 2, 1])          # (x+1)^2
    g = IntPoly([-1, 1])            # x - 1
    assert f + g == IntPoly([0, 3, 1])
    assert f - f == IntPoly([])
    assert g * g == IntPoly([1, -2, 1])
    assert (-g).coeffs == (1, -1)
    assert f(3) == 16
    assert f(Fraction(1, 2)) == Fraction(9, 4)
    assert IntPoly.x_power(3).coeffs == (0, 0, 0, 1)
    assert IntPoly.const(7).coeffs == (7,)


def test_shift_and_derivative():
    f = IntPoly([3, 0, 1])
    assert f.shift(2) == IntPoly([0, 0, 3, 0, 1])
    assert f.derivative() == IntPoly([0, 2])
    assert IntPoly([5]).derivative().is_zero()


def test_divexact_and_pseudo_rem():
    f = IntPoly([-4, 0, 1])
    assert f.divexact(IntPoly([-2, 1])) == IntPoly([2, 1])
    assert f.pseudo_rem(IntPoly([-2, 1])).is_zero()
    r = IntPoly([1, 0, 1]).pseudo_rem(IntPoly([-2, 1]))
    assert not r.is_zero() and r.degree == 0


def test_content_primitive():
    f = IntPoly([-6, 0, 2])
    assert f.content() == 2
    assert f.primitive() == IntPoly([-3, 0, 1])
    assert IntPoly([6, 0, -2]).primitive() == IntPoly([-3, 0, 1])


def test_poly_gcd_matches_sympy():
    x = sympy.symbols("x")
    cases = [
        ([(1, -2, 1), (-1, 1)]),
        ([(-4, 0, 1), (2, 1)]),
        ([(6, 11, 6, 1), (2, 3, 1)]),
        ([(1, 0, 0, 0, 1), (1, 1)]),
    ]
    for ca, cb in cases:
        a, b = IntPoly(ca), IntPoly(cb)
        got = poly_gcd(a, b)
        want = sympy.gcd(sympy.Poly(list(reversed(ca)), x),
                         sympy.Poly(list(reversed(cb)), x))
        want_coeffs = tuple(int(c) for c in reversed(sympy.Poly(want, x).all_coeffs()))
        assert got.coeffs == IntPoly(want_coeffs).primitive().coeffs


def test_squarefree_part():
    assert squarefree_part(IntPoly([4, 0, -5, 0, 1])) == IntPoly([4, 0, -5, 0, 1])
    sq = IntPoly([-2, 1]) * IntPoly([-2, 1]) * IntPoly([2, 1])
    assert squarefree_part(sq) == IntPoly([-4, 0, 1])
    assert squarefree_part(IntPoly([0, 0, 0, 1])) == IntPoly([0, 1])
    assert squarefree_part(IntPoly([-1, 0, 7]) * IntPoly([-1, 0, 7])) == IntPoly([-1, 0, 7])
    with pytest.raises(ZeroPolynomial):
        squarefree_part(IntPoly([]))


def test_sturm_root_counts():
    f = IntPoly([-4, 0, 1]) * IntPoly([-1, 0, 7])
    # roots: -2, 2, +-1/sqrt(7)
    assert count_real_roots(f, Fraction(-3), Fraction(3)) == 4
    assert count_real_roots(f, Fraction(-1), Fraction(1)) == 2
    assert count_real_roots(f, Fraction(0), Fraction(3)) == 2
    assert count_real_roots(IntPoly([3, 0, 4]), Fraction(-10), Fraction(10)) == 0
    assert count_real_roots(IntPoly([243, 0, -60, 0, 4]),
                            Fraction(-100), Fraction(100)) == 0
    b = real_root_bound(f)
    assert count_real_roots(f, -b, b) == 4


def _random_products(rng, count):
    """Nonconstant products of up to three small integer factors, each to a
    power of 1 to 3, so that repeated and rational roots occur."""
    while count:
        f = IntPoly([rng.choice((-3, -2, -1, 1, 2, 3))])
        for _ in range(rng.randint(1, 3)):
            factor = IntPoly([rng.randint(-4, 4)
                              for _ in range(rng.randint(2, 4))])
            for _ in range(rng.randint(1, 3) if factor.degree > 0 else 0):
                f = f * factor
        if f.degree > 0:
            count -= 1
            yield f


def test_squarefree_part_and_root_counts_match_sympy():
    # sympy counts on the closed [lo, hi], count_real_roots on (lo, hi]
    x = sympy.symbols("x")
    rng = random.Random(20261018)
    for f in _random_products(rng, 400):
        g = sympy.Poly(list(reversed(f.coeffs)), x)
        want = sympy.Poly(sympy.sqf_part(g), x).all_coeffs()
        assert squarefree_part(f) == \
            IntPoly(int(c) for c in reversed(want)).primitive(), f
        for _ in range(6):
            lo, hi = sorted(Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                            for _ in range(2))
            closed = g.count_roots(lo, hi)
            assert count_real_roots(f, lo, hi) == closed - (g.eval(lo) == 0), \
                (f, lo, hi)


def test_rational_roots():
    f = IntPoly([-7, 5]) * IntPoly([7, 5]) * IntPoly([-3, 1])
    assert rational_roots(f) == sorted([Fraction(7, 5), Fraction(-7, 5),
                                        Fraction(3)])
    assert rational_roots(IntPoly([0, 0, 1])) == [Fraction(0)]
    assert rational_roots(IntPoly([1, 0, 1])) == []


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.symbols("x")
    for n in [1, 2, 3, 4, 6, 8, 10, 12, 15, 16, 21, 36, 105]:
        got = cyclotomic_polynomial_unbounded(n)
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        assert list(got.coeffs) == [int(c) for c in reversed(want.all_coeffs())]


def test_euler_phi_and_prime_factors():
    assert [euler_phi(n) for n in (1, 2, 6, 10, 12, 36)] == [1, 1, 2, 4, 4, 12]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(1) == []
    assert [euler_phi(n) for n in range(1, 2000)] == \
        [int(sympy.totient(n)) for n in range(1, 2000)]
