"""Finite field layer: construction determinism, laws, dlog, trace."""

import random
from collections import Counter

import numpy as np
import pytest
import sympy

from cyclodiff import ff
from cyclodiff.errors import BoundExceeded, NotPrime, ZeroArgument
from cyclodiff.ff import FiniteField, arith, dlog, is_prime, make_field, trace


def test_is_prime():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(91)
    assert [n for n in range(-2, 5000) if is_prime(n)] == \
        [n for n in range(-2, 5000) if sympy.isprime(n)]


def test_constructor_validation():
    with pytest.raises(NotPrime):
        FiniteField(6, 1)
    with pytest.raises(NotPrime):
        FiniteField(7, 0)
    with pytest.raises(BoundExceeded):
        FiniteField(2, 21)


def test_deterministic_modulus_and_generator():
    # frozen: first irreducible / first primitive element in code order
    assert make_field(7).modulus == (0, 1)
    assert make_field(7).generator.code == 3
    f9 = make_field(3, 2)
    assert f9.modulus == (1, 0, 1)
    assert f9.generator.code == 4
    f16 = make_field(2, 4)
    assert f16.modulus == (1, 1, 0, 0, 1)
    assert f16.generator.code == 2


def test_field_laws_exhaustive_f9():
    field = make_field(3, 2)
    elems = list(field.elements())
    for a in elems:
        assert (a + field.zero).code == a.code
        assert (a * field.one).code == a.code
        assert (a - a).code == 0
        if a.code != 0:
            assert (a * field.inv(a)).code == 1
    for a in elems:
        for b in elems:
            assert (a + b).code == (b + a).code
            assert (a * b).code == (b * a).code
            for c in (elems[2], elems[5]):
                assert ((a + b) * c).code == (a * c + b * c).code


def test_frobenius_is_additive():
    field = make_field(2, 4)
    for a in field.elements():
        for b in field.elements():
            lhs = field.pow(a + b, 2)
            rhs = field.pow(a, 2) + field.pow(b, 2)
            assert lhs.code == rhs.code


def test_pow_matches_repeated_multiplication():
    field = make_field(5, 2)
    g = field.generator
    acc = field.one
    for k in range(30):
        assert field.pow(g, k).code == acc.code
        acc = acc * g


def test_dlog_inverts_exp():
    for p, e in [(7, 1), (3, 2), (2, 4), (13, 1)]:
        field = make_field(p, e)
        g = field.generator
        for x in field.elements():
            if x.code == 0:
                continue
            assert field.pow(g, dlog(field, x)).code == x.code
    with pytest.raises(ZeroArgument):
        dlog(make_field(7), make_field(7).zero)


def test_trace_properties():
    f9 = make_field(3, 2)
    # tr(c) = e*c for prime-field constants; tr additive; onto F_p
    assert trace(f9, f9.one) == 2
    assert trace(f9, f9.element(3)) == 0      # the adjoined root x
    for a in f9.elements():
        for b in f9.elements():
            assert trace(f9, a + b) == (trace(f9, a) + trace(f9, b)) % 3
    images = {trace(f9, a) for a in f9.elements()}
    assert images == {0, 1, 2}
    f16 = make_field(2, 4)
    assert sum(trace(f16, a) for a in f16.elements()) == 8


def test_element_plumbing():
    field = make_field(3, 2)
    with pytest.raises(ValueError):
        field.element(9)
    assert field.from_rep([2, 1]).code == 5
    assert field.from_rep([2, 1]).rep == (2, 1)
    other = make_field(7)
    with pytest.raises(ValueError):
        arith(field, "add", field.one, other.one)
    assert arith(field, "pow", field.generator, 8).code == 1
    with pytest.raises(ValueError):
        arith(field, "frobnicate", field.one)


def test_scalar_arithmetic_refuses_another_fields_elements():
    # an F_7 element used to be read as an F_5 code: 3 + 4 gave code 2
    f5, f7 = make_field(5), make_field(7)
    x, y = f5.element(3), f7.element(4)
    for call in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: y * x,
                 lambda: f5.mul(f5.zero, y), lambda: f5.neg(y),
                 lambda: f5.inv(y), lambda: f5.pow(y, 2),
                 lambda: dlog(f5, f7.zero), lambda: trace(f5, y),
                 lambda: arith(f5, "mul", x, y), lambda: arith(f5, "inv", y)):
        with pytest.raises(ValueError):
            call()
    assert (x + f5.element(4)).code == 2 and arith(f5, "neg", x).code == 2


def test_difference_counts_match_literal_pairs(monkeypatch):
    # reference: subtract every ordered pair of elements one at a time
    rng = random.Random(11)
    monkeypatch.setattr(ff, "_DIFF_CHUNK", 3)   # several chunks per set
    for p, e in [(13, 1), (3, 2), (2, 4), (3, 3)]:
        field = make_field(p, e)
        q = field.q
        sets = [list(range(q)), [], [0], list(field.exp_table[::2][:7])]
        sets += [rng.sample(range(q), rng.randint(1, q)) for _ in range(4)]
        for codes in sets:
            want = Counter((field.element(int(x)) - field.element(int(y))).code
                           for x in codes for y in codes)
            got = field.codes_difference_counts(np.array(codes, dtype=np.int64))
            assert got.tolist() == [want[c] for c in range(q)], (q, codes)


def test_make_field_is_cached():
    assert make_field(11) is make_field(11)
    # one cache entry however (p, e) is spelled
    field = make_field(13)
    assert make_field(13, 1) is field
    assert make_field(p=13, e=1) is field
    assert make_field(13, e=1) is field
    assert make_field(e=1, p=13) is field


def test_make_field_keeps_at_most_eight_fields():
    # a scan asks for each field once, so the cache keeps only the few
    # fields used last rather than every field's exp/log tables
    for p in (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        make_field(p)
    assert ff._cached_field.cache_info().currsize <= 8
    assert make_field(11) is make_field(11)
