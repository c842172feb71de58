"""Dense univariate polynomials with integer coefficients.

Coefficients are stored low degree first with the leading coefficient
nonzero (the zero polynomial is the empty tuple).  This is enough for the
cyclotomic polynomials Phi_n, the univariate outputs of elimination, and
the exact real-root bookkeeping the fixture checks need; nothing here
aspires to general computer algebra.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd

from .errors import ZeroPolynomial


class IntPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(int(c) for c in cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- basics ------------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def x_power(cls, k: int) -> "IntPoly":
        return cls((0,) * k + (1,))

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{i}" if mag == 1 else f"{mag}*x^{i}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate at an int or Fraction by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    # -- division ------------------------------------------------------------

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """Exact quotient; raises ValueError if the division is not exact.

        >>> (IntPoly((-1, 0, 1))).divexact(IntPoly((1, 1)))
        IntPoly([-1, 1])
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        db = other.degree
        lb = other.lead
        q = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            if c % lb != 0:
                raise ValueError("inexact polynomial division")
            f = c // lb
            q[i - db] = f
            for j, cb in enumerate(other.coeffs):
                rem[i - db + j] -= f * cb
        if any(rem[:db] if db else rem):
            raise ValueError("inexact polynomial division")
        return IntPoly(q)

    def pseudo_rem(self, other: "IntPoly") -> "IntPoly":
        """Pseudo-remainder of self by other (used by the primitive PRS gcd)."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        db, lb = other.degree, other.lead
        while len(rem) - 1 >= db and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < db:
                break
            c = rem[-1]
            shift = len(rem) - 1 - db
            rem = [r * lb for r in rem]
            for j, cb in enumerate(other.coeffs):
                rem[shift + j] -= c * cb
            rem.pop()
        return IntPoly(rem)

    # -- normal forms ----------------------------------------------------------

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "IntPoly":
        """Content-free with positive leading coefficient; 0 stays 0."""
        if self.is_zero():
            return self
        g = self.content()
        if self.lead < 0:
            g = -g
        return IntPoly(tuple(c // g for c in self.coeffs))


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd via the primitive polynomial remainder sequence."""
    a, b = a.primitive(), b.primitive()
    while not b.is_zero():
        r = a.pseudo_rem(b).primitive()
        a, b = b, r
    return a.primitive()


def squarefree_part(f: IntPoly) -> IntPoly:
    """f / gcd(f, f'), primitive, positive leading coefficient.

    Gauss's lemma makes the quotient of the primitive parts integral, so
    the exact division below cannot fail.
    """
    if f.is_zero():
        raise ZeroPolynomial("squarefree part of 0")
    g = poly_gcd(f, f.derivative())
    if g.degree <= 0:
        return f.primitive()
    return f.primitive().divexact(g).primitive()


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial_unbounded(n: int) -> IntPoly:
    """Phi_n as the Moebius product of (1 - x^d)^mu(n/d) over d | n.

    The product is an exact polynomial of degree phi(n), so every factor
    is applied as a power series truncated past that degree: multiplying
    by 1 - x^d subtracts a shifted copy, dividing adds one back.  For
    n > 1 the signs of the factors x^d - 1 cancel.

    >>> cyclotomic_polynomial_unbounded(12)
    IntPoly([1, 0, -1, 0, 1])
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return IntPoly((-1, 1))
    top = euler_phi(n)
    c = [1] + [0] * top
    factors = [(n, 1)]                  # (d, mu(n/d)) for squarefree n/d
    for p in prime_factors(n):
        factors += [(d // p, -mu) for d, mu in factors]
    for d, mu in factors:
        if d > top:
            continue
        if mu == 1:
            for i in range(top, d - 1, -1):
                c[i] -= c[i - d]
        else:
            for i in range(d, top + 1):
                c[i] += c[i - d]
    return IntPoly(c)


def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division; the
    one integer factoriser of the package ([] for n < 2)."""
    out, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


# -- exact real-root location (Sturm) ------------------------------------------


def _sturm_chain(f: IntPoly) -> list[IntPoly]:
    """f, f' and the negated remainders, each a positive multiple of the
    classical Sturm polynomial, so every sign is the classical one.

    pseudo_rem by a divisor with positive lead is a power of that lead
    times the remainder, and the remainder by -b is the remainder by b;
    dividing out the (positive) content scales by a positive number too.
    """
    chain = [f, f.derivative()]
    while chain[-1].degree > 0:
        b = chain[-1]
        r = -chain[-2].pseudo_rem(b if b.lead > 0 else -b)
        if r.is_zero():
            break
        g = r.content()
        chain.append(IntPoly(c // g for c in r.coeffs))
    return chain


def _sign_changes(chain: list[IntPoly], x: Fraction) -> int:
    signs = [v > 0 for v in (poly(x) for poly in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_real_roots(f: IntPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of f in the half-open interval (lo, hi].

    f is replaced by its squarefree part, so multiplicities do not matter.
    """
    if f.is_zero():
        raise ZeroPolynomial("root counting on 0")
    sf = squarefree_part(f)
    if sf.degree <= 0:
        return 0
    chain = _sturm_chain(sf)
    return _sign_changes(chain, Fraction(lo)) - _sign_changes(chain, Fraction(hi))


def real_root_bound(f: IntPoly) -> Fraction:
    """Cauchy bound: all real roots lie in [-B, B]."""
    if f.degree < 1:
        return Fraction(0)
    lead = abs(f.lead)
    return Fraction(1) + max(Fraction(abs(c), lead) for c in f.coeffs[:-1])


def rational_roots(f: IntPoly) -> list[Fraction]:
    """All rational roots (without multiplicity), by divisor search.

    Fine for fixture-sized polynomials; not meant for big inputs.
    """
    if f.is_zero():
        raise ZeroPolynomial("rational roots of 0")
    coeffs = list(f.coeffs)
    roots = []
    k = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        k += 1
    if k:
        roots.append(Fraction(0))
    if len(coeffs) <= 1:
        return roots
    a0, an = abs(coeffs[0]), abs(coeffs[-1])
    g = IntPoly(coeffs)
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and g(cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
