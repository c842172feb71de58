"""Cyclotomic integers: reduced power-basis arithmetic and numerics."""

import cmath
import random
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from cyclodiff.config import current_limits
from cyclodiff.cyclotomic import (ComplexInterval, CycInt, CycNum, cyc_arith,
                                  cyc_lift, cyclotomic_polynomial, embed,
                                  galois, reduce_counts, zeta_interval)
from cyclodiff.errors import (BoundExceeded, NotAMultiple, NotCoprime,
                              OrderMismatch)
from cyclodiff.intpoly import cyclotomic_polynomial_unbounded, euler_phi


def _close(a: CycInt, z: complex, eps=1e-12) -> bool:
    return abs(embed(a).midpoint() - z) < eps


def test_bounded_matches_unbounded():
    for n in (1, 2, 6, 12, 30, 100):
        assert cyclotomic_polynomial(n) == cyclotomic_polynomial_unbounded(n)


def _sympy_phi(n):
    x = sympy.Symbol("x")
    return sympy.Poly(sympy.cyclotomic_poly(n, x), x)


def _sympy_reduce(vec, n):
    """Power-basis coefficients of sum vec[k] x^k mod Phi_n, by sympy."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed([int(c) for c in vec])), x)
    rem = sympy.rem(poly, _sympy_phi(n)).all_coeffs()[::-1]
    phi = _sympy_phi(n).degree()
    return rem + [0] * (phi - len(rem)) if any(rem) else [0] * phi


def test_phi_matches_sympy():
    # all n <= 300, then orders with large coefficients or many divisors
    for n in list(range(1, 301)) + [385, 1155, 1365, 1536, 1785, 2002, 2048]:
        want = _sympy_phi(n).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial_unbounded(n).coeffs) == want, n


def test_reduce_counts_matches_sympy_rem():
    rng = random.Random(5)
    for n in (1, 2, 7, 12, 30, 105, 128, 210, 385):
        for _ in range(3):
            vec = [rng.randint(-50, 50) for _ in range(n)]
            got = reduce_counts(np.array(vec), n)
            assert got.tolist() == _sympy_reduce(vec, n), n
        batch = np.array([[rng.randint(-9, 9) for _ in range(n)]
                          for _ in range(4)])
        got = reduce_counts(batch, n)
        assert got.tolist() == [_sympy_reduce(row, n) for row in batch]


def test_reduce_counts_python_int_path():
    # 2^62 - 1 times the row bound overflows int64, so Python ints are used
    n = 105
    vec = np.zeros(n, dtype=np.int64)
    vec[[3, 48, 104]] = [2 ** 62 - 1, -(2 ** 62 - 1), 7]
    got = reduce_counts(vec, n)
    assert got.dtype == object
    assert got.tolist() == _sympy_reduce(vec.tolist(), n)
    big = [2 ** 70 + k for k in range(n)]
    assert reduce_counts(np.array(big, dtype=object), n).tolist() \
        == _sympy_reduce(big, n)


def test_prime_orders_reduce_past_the_ring_bound():
    # Phi_p needs one row, so a prime past cyclotomic_n_max still reduces;
    # a composite order past it is refused
    bound = current_limits().cyclotomic_n_max
    rng = random.Random(7)
    for p in (2053, 5477):
        vec = np.array([rng.randint(-9, 9) for _ in range(p)])
        got = reduce_counts(vec, p)
        assert got.tolist() == (vec[:-1] - vec[-1]).tolist()
    with pytest.raises(BoundExceeded):
        reduce_counts(np.zeros(bound + 2, dtype=np.int64), bound + 2)


def test_cycint_refuses_non_integral_coefficients():
    # int() used to truncate 1.5 to 1 and parse "2" as 2
    for coeffs in ([1.5, 0], ["2", 0], [0, -0.25]):
        with pytest.raises(ValueError, match="non-integral"):
            CycInt(4, coeffs)
    assert CycInt(4, [2.0, np.int64(-3)]).coeffs == (2, -3)


def test_huge_coefficients_stay_exact():
    n = 15
    a = CycInt(n, [2 ** 61 * (k + 1) for k in range(8)])
    b = CycInt.root(n, 4) * 3 - CycInt.integer(2 ** 40, n)
    x = sympy.Symbol("x")
    prod = sympy.Poly(list(reversed(a.coeffs)), x) * \
        sympy.Poly(list(reversed(b.coeffs)), x)
    want = _sympy_reduce(prod.all_coeffs()[::-1], n)
    assert list((a * b).coeffs) == want
    assert galois(galois(a, 7), 13) == a          # 7 * 13 = 1 mod 15
    assert cyc_lift(a, 45) * 2 == cyc_lift(a * 2, 45)


def test_roots_embed_on_the_unit_circle():
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 30):
        for k in range(n):
            want = cmath.exp(2j * cmath.pi * k / n)
            assert _close(CycInt.root(n, k), want)


def test_minimal_polynomial_annihilates_the_root():
    for n in (3, 4, 5, 6, 8, 12, 15):
        z = CycInt.root(n)
        phi = cyclotomic_polynomial(n)
        acc = CycInt.zero(n)
        power = CycInt.integer(1, n)
        for c in phi.coeffs:
            acc = acc + power * c
            power = power * z
        assert acc.is_zero()


def test_root_sums_and_integers():
    for n in (2, 3, 6, 10):
        total = CycInt.zero(n)
        for k in range(n):
            total = total + CycInt.root(n, k)
        assert total.is_zero()
    assert CycInt.root(4, 2).as_integer() == -1
    assert CycInt.root(2, 1).as_integer() == -1
    assert CycInt.root(5, 0).as_integer() == 1
    assert CycInt.root(5, 1).as_integer() is None


def test_power_reduction_identity():
    # zeta_6^2 = zeta_6 - 1 in the reduced basis
    z = CycInt.root(6)
    assert z * z == CycInt.root(6, 2)
    assert z * z == z - CycInt.integer(1, 6)
    assert CycInt.root(4) * CycInt.root(4, 3) == CycInt.integer(1, 4)


def test_conjugate():
    for n in (5, 7, 12):
        z = CycInt.root(n, 1) + CycInt.root(n, 3) * 2
        assert z.conjugate() == galois(z, -1)
        mid = embed(z).midpoint()
        assert abs(embed(z.conjugate()).midpoint() - mid.conjugate()) < 1e-12
        prod = z * z.conjugate()
        assert abs(embed(prod).midpoint().imag) < 1e-12


def test_galois_action():
    z = CycInt.root(12)
    for k in (1, 5, 7, 11):
        assert galois(z, k) == CycInt.root(12, k)
    two = galois(z, 5) * galois(z, 5)
    assert two == CycInt.root(12, 10)
    with pytest.raises(NotCoprime):
        galois(z, 4)


def test_galois_is_multiplicative():
    a = CycInt.root(10, 1) + CycInt.integer(2, 10)
    b = CycInt.root(10, 3) - CycInt.integer(1, 10)
    assert galois(a * b, 3) == galois(a, 3) * galois(b, 3)
    assert galois(a + b, 3) == galois(a, 3) + galois(b, 3)


def test_lift():
    a = CycInt.root(3, 1)
    assert cyc_lift(a, 6) == CycInt.root(6, 2)
    assert cyc_lift(a, 12) == CycInt.root(12, 4)
    assert cyc_lift(CycInt.integer(5, 1), 8).as_integer() == 5
    with pytest.raises(NotAMultiple):
        cyc_lift(a, 8)


def test_cyc_arith_is_strict():
    a, b = CycInt.root(3), CycInt.root(4)
    with pytest.raises(OrderMismatch):
        cyc_arith("add", a, b)
    assert cyc_arith("mul", a, a) == CycInt.root(3, 2)
    assert cyc_arith("scalar_mul", a, 3) == a * 3
    with pytest.raises(TypeError):
        cyc_arith("scalar_mul", a, a)
    with pytest.raises(TypeError):
        cyc_arith("add", a, 1)


def test_order_bound_enforced():
    bound = current_limits().cyclotomic_n_max
    with pytest.raises(BoundExceeded):
        CycInt.root(bound + 1)


def test_cycnum():
    half = CycNum(CycInt.root(8), 2)
    assert (half + half).is_zero() is False
    two_halves = half.scaled_by(2)
    assert two_halves == CycNum(CycInt.root(8), 1)
    assert CycNum.of(3) == CycNum(CycInt.integer(3), 1)
    z = CycNum.of(CycInt.root(6))
    assert z.den == 1 and z.num == CycInt.root(6)


def test_intervals():
    iv = zeta_interval(7, 1)
    want = cmath.exp(2j * cmath.pi / 7)
    assert abs(iv.midpoint() - want) < 1e-15
    assert not iv.contains_zero()
    assert embed(CycInt.zero(9)).contains_zero()
    assert embed(CycInt.zero(9)).abs_upper() < 1e-30
    a = embed(CycInt.root(5))
    assert 1 - 1e-12 < a.abs_upper() < 1 + 1e-12
    total = a + ComplexInterval(1, 0)
    assert abs(total.midpoint() - (want := cmath.exp(2j * cmath.pi / 5) + 1)) < 1e-12
    assert abs((a * a).midpoint() - cmath.exp(4j * cmath.pi / 5)) < 1e-12
    assert abs((-a).midpoint() + a.midpoint()) < 1e-15


# -- properties (hypothesis) ------------------------------------------------------
#
# Derandomized, so every run draws the same examples and tier-1 stays
# deterministic; the example counts keep the whole block to a few seconds.

PROPERTIES = settings(derandomize=True, deadline=None, database=None,
                      max_examples=60,
                      suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _cycints(draw, n):
    phi = euler_phi(n)
    return CycInt(n, draw(st.lists(st.integers(-50, 50), min_size=phi,
                                   max_size=phi)))


@st.composite
def _orders_and_triples(draw):
    n = draw(st.integers(1, 36))
    return n, draw(_cycints(n)), draw(_cycints(n)), draw(_cycints(n))


def _decimate(vec, s, m):
    """out[i] = sum of vec[j] over j with s*j = i mod m: the counts of
    the power chi^s."""
    out = np.zeros(vec.shape, dtype=np.int64)
    np.add.at(out, (s % m) * np.arange(m) % m, vec)
    return out


@PROPERTIES
@given(st.data())
def test_decimation_by_a_unit_is_the_galois_action(data):
    # h_class_sum and jacobi_row_sum decimate by s; at a unit s that is
    # the Galois action
    n = data.draw(st.integers(1, 300), label="n")
    k = data.draw(st.integers(-2 * n, 2 * n).filter(lambda k: gcd(k, n) == 1),
                  label="k")
    vec = np.array(data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                      min_size=n, max_size=n)), dtype=np.int64)
    want = galois(CycInt.from_counts(vec), k).coeffs
    assert tuple(reduce_counts(_decimate(vec, k, n), n).tolist()) == want


@PROPERTIES
@given(_orders_and_triples(), st.data())
def test_galois_is_a_ring_homomorphism(case, data):
    n, x, y, _ = case
    units = st.integers(-2 * n, 2 * n).filter(lambda k: gcd(k, n) == 1)
    k, k2 = data.draw(units, label="k"), data.draw(units, label="k2")
    assert galois(x + y, k) == galois(x, k) + galois(y, k)
    assert galois(x * y, k) == galois(x, k) * galois(y, k)
    assert galois(galois(x, k), k2) == galois(x, k * k2)


@PROPERTIES
@given(_orders_and_triples())
def test_cycint_ring_laws(case):
    n, x, y, z = case
    one = CycInt.integer(1, n)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * one == x and one * x == x


@PROPERTIES
@given(_orders_and_triples(), st.integers(1, 6))
def test_lift_commutes_with_multiplication(case, factor):
    n, x, y, _ = case
    n2 = n * factor
    assert cyc_lift(x * y, n2) == cyc_lift(x, n2) * cyc_lift(y, n2)
