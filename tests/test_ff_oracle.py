"""The field layer against a slow oracle: literal polynomial arithmetic
over F_p from sympy.polys.galoistools, for every prime power q <= 1024.

Each check restates a construction rule of cyclodiff.ff in the plainest
form: the modulus is the first irreducible in code order, the generator
the first code of order q - 1, exp[k] is g^k by repeated multiplication,
the trace is the Frobenius sum, and addition works digit by digit.
The irreducibility test is also checked on every small monic input,
reducible ones included.
"""

import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_add, gf_irreducible_p, gf_mul,
                                     gf_pow_mod, gf_rem, gf_sub)

from cyclodiff.diffsets import prime_powers
from cyclodiff.ff import _is_irreducible, make_field
from cyclodiff.intpoly import prime_factors

FIELDS = [(p, e) for p, e, _ in prime_powers(1024)]


def _poly(code, p, e):
    """Code -> sympy dense polynomial (high degree first, stripped)."""
    digits = [(code // p ** i) % p for i in range(e)]
    while digits and digits[-1] == 0:
        digits.pop()
    return digits[::-1]


def _code(poly, p):
    return sum(c * p ** i for i, c in enumerate(reversed(poly)))


@pytest.mark.parametrize("p,e", FIELDS, ids=lambda v: str(v))
def test_field_matches_literal_polynomial_arithmetic(p, e):
    field = make_field(p, e)
    q = field.q
    f = list(field.modulus)[::-1]
    assert gf_irreducible_p(f, p, ZZ)
    for low in range(_code(f[1:], p)):
        monic = [1] + [(low // p ** i) % p for i in reversed(range(e))]
        assert not gf_irreducible_p(monic, p, ZZ)

    def order_is_full(code):
        return all(gf_pow_mod(_poly(code, p, e), (q - 1) // r, f, p, ZZ) != [1]
                   for r in prime_factors(q - 1))

    gen = field.generator_code
    assert order_is_full(gen)
    assert not any(order_is_full(c) for c in range(1, gen))

    g, acc, exp = _poly(gen, p, e), [1], []
    for _ in range(q - 1):
        exp.append(_code(acc, p))
        acc = gf_rem(gf_mul(acc, g, p, ZZ), f, p, ZZ)
    assert acc == [1]
    assert field.exp_table.tolist() == exp
    assert field.log_table[exp].tolist() == list(range(q - 1))

    traces = []
    for code in range(q):
        x, total = _poly(code, p, e), []
        for _ in range(e):
            total = gf_add(total, x, p, ZZ)
            x = gf_pow_mod(x, p, f, p, ZZ)
        assert len(total) <= 1
        traces.append(total[0] if total else 0)
    assert field.codes_trace(np.arange(q)).tolist() == traces
    assert [field.trace_code(c) for c in range(min(q, 50))] == traces[:50]

    rng = np.random.default_rng(q)
    a = rng.integers(0, q, 400)
    b = rng.integers(0, q, 400)
    add = [_code(gf_add(_poly(x, p, e), _poly(y, p, e), p, ZZ), p)
           for x, y in zip(a.tolist(), b.tolist())]
    sub = [_code(gf_sub(_poly(x, p, e), _poly(y, p, e), p, ZZ), p)
           for x, y in zip(a.tolist(), b.tolist())]
    assert field.codes_add(a, b).tolist() == add
    assert field.codes_sub(a, b).tolist() == sub
    x, y = field.element(int(a[0])), field.element(int(b[0]))
    assert (x + y).code == add[0] and (x - y).code == sub[0]
    assert (-y).code == _code(gf_sub([], _poly(int(b[0]), p, e), p, ZZ), p)


def test_pinned_modulus_and_generator():
    # frozen values of the construction rules above on larger fields
    pinned = {
        (2, 10): ((1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2),
        (3, 7): ((2, 0, 1, 0, 0, 0, 0, 1), 5),
        (101, 2): ((2, 0, 1), 102),
        (5, 5): ((1, 4, 0, 0, 0, 1), 10),
        (7, 4): ((1, 1, 0, 0, 1), 12),
        (2, 14): ((1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 7),
    }
    for (p, e), (modulus, gen) in pinned.items():
        field = make_field(p, e)
        assert (field.modulus, field.generator_code) == (modulus, gen), (p, e)


@pytest.mark.parametrize("p,degrees", [(2, range(2, 7)), (3, range(2, 5)),
                                       (5, range(2, 4)), (7, range(2, 4))])
def test_irreducibility_matches_galoistools(p, degrees):
    for e in degrees:
        hits = 0
        for low in range(p ** e):
            f = [(low // p ** i) % p for i in range(e)] + [1]
            got = _is_irreducible(f, p)
            assert got == gf_irreducible_p(f[::-1], p, ZZ), (p, f)
            hits += got
        assert 0 < hits < p ** e
