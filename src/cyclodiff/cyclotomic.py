"""Exact arithmetic in Z[zeta_n] and rigorous complex enclosures.

Elements are integer vectors over the power basis 1, z, ..., z^(phi(n)-1)
reduced modulo the n-th cyclotomic polynomial, so equality is coefficient
comparison and zero-testing is exact.  Mixed-order expressions lift both
sides to the lcm of their orders; the strict dispatcher cyc_arith refuses
to do that silently.
"""

from __future__ import annotations

import functools
from math import gcd, lcm

import numpy as np
from mpmath import iv

from .config import current_limits
from .errors import BoundExceeded, NotAMultiple, NotCoprime, OrderMismatch
from .intpoly import IntPoly, cyclotomic_polynomial_unbounded, euler_phi


def _check_order(n: int) -> None:
    limit = current_limits().cyclotomic_n_max
    if not 1 <= n <= limit:
        raise BoundExceeded(f"cyclotomic order {n} outside [1, {limit}]")


def cyclotomic_polynomial(n: int) -> IntPoly:
    """Phi_n, bound-checked."""
    _check_order(n)
    return cyclotomic_polynomial_unbounded(n)


# Entries of every reduction table stay below this; reduce_counts relies on it.
_ROW_MAX = 2 ** 20


def check_count_order(n: int) -> None:
    """Hold a count-vector order n to cyclotomic_n_max, unless n is prime.

    A prime n reduces by one row, no larger than the vectors it reduces,
    so only composite orders are held to the bound.  reduction_rows and
    the all-powers test of charsums (_vanishes_at_powers) both apply it.
    """
    if euler_phi(n) != n - 1:
        _check_order(n)


def reduction_rows(n: int) -> np.ndarray:
    """(n - phi(n), phi(n)) int64 matrix whose row k is x^(phi(n)+k) mod Phi_n.

    The powers below phi(n) are basis elements already, and x^n = 1 mod
    Phi_n, so these rows reduce any exponent.  Read-only and cached for
    the last few orders only, so a scan cannot pin one table per order.
    The order is bound-checked by check_count_order.
    """
    check_count_order(n)
    return _build_rows(n)


@functools.lru_cache(maxsize=4)
def _build_rows(n: int) -> np.ndarray:
    phi = euler_phi(n)   # Phi_n = 1 + x + ... + x^(n-1) when n is prime
    coeffs = ((1,) * n if phi == n - 1
              else cyclotomic_polynomial_unbounded(n).coeffs)
    head = -np.array(coeffs[:phi], dtype=np.int64)   # x^phi, as Phi_n is monic
    rows = np.zeros((n - phi, phi), dtype=np.int64)
    row = head
    for k in range(n - phi):
        rows[k] = row
        row = np.concatenate(([0], row[:-1])) + row[-1] * head
    if np.abs(rows).max(initial=0) >= _ROW_MAX:
        raise BoundExceeded(f"reduction rows of order {n} exceed {_ROW_MAX}")
    rows.flags.writeable = False
    return rows


def reduce_counts(vec, n: int) -> np.ndarray:
    """Power-basis coefficients of sum_k vec[..., k] zeta_n^k, exactly.

    vec holds integers along a last axis of length n; leading axes are
    reduced independently.  The product with reduction_rows(n) runs in
    int64 while a bound on every output entry stays below 2^62, and over
    Python ints otherwise, so no input can overflow.
    """
    rows = reduction_rows(n)
    phi = rows.shape[1]
    vec = np.asarray(vec)
    top = max(int(vec.max(initial=0)), -int(vec.min(initial=0)))
    if top * (1 + rows.shape[0] * _ROW_MAX) < 2 ** 62:
        vec = vec.astype(np.int64, copy=False)
        return vec[..., :phi] + vec[..., phi:] @ rows
    vec = vec.astype(object)
    return vec[..., :phi] + vec[..., phi:] @ rows.astype(object)


class CycInt:
    """An element of Z[zeta_n] in reduced power-basis form."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        _check_order(n)
        raw = tuple(coeffs)
        cs = tuple(map(int, raw))
        # int() truncates 1.5 and parses "2"; refuse both, as MPoly does
        if cs != raw:
            raise ValueError(f"non-integral coefficients {list(raw)!r}")
        if len(cs) != euler_phi(n):
            raise ValueError(f"need {euler_phi(n)} coefficients for order {n}")
        self.n = n
        self.coeffs = cs

    @classmethod
    def zero(cls, n: int) -> "CycInt":
        return cls(n, (0,) * euler_phi(n))

    @classmethod
    def integer(cls, c: int, n: int = 1) -> "CycInt":
        v = [0] * euler_phi(n)
        v[0] = c
        return cls(n, v)

    @classmethod
    def root(cls, n: int, k: int = 1) -> "CycInt":
        """zeta_n^k."""
        vec = np.zeros(n, dtype=np.int64)
        vec[k % n] = 1
        return cls.from_counts(vec)

    @classmethod
    def from_counts(cls, vec) -> "CycInt":
        """sum_k vec[k] zeta_n^k with n = len(vec)."""
        return cls(len(vec), reduce_counts(vec, len(vec)).tolist())

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_integer(self):
        """The rational integer this element equals, or None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, int):
            return self.as_integer() == other
        if not isinstance(other, CycInt):
            return NotImplemented
        if self.n == other.n:
            return self.coeffs == other.coeffs
        a, b = _common(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __repr__(self):
        return f"CycInt(n={self.n}, coeffs={list(self.coeffs)})"

    # arithmetic; binary ops lift to the lcm order when the orders differ

    def __add__(self, other):
        other = _coerce(other, self.n)
        a, b = _common(self, other)
        return CycInt(a.n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.n, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(other, self.n))

    def __rsub__(self, other):
        return _coerce(other, self.n) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.n, tuple(c * other for c in self.coeffs))
        if not isinstance(other, CycInt):
            return NotImplemented
        a, b = _common(self, other)
        return _mul_reduced(a, b)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined in Z[zeta_n]")
        result = CycInt.integer(1, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "CycInt":
        return galois(self, -1)


def _coerce(x, n: int) -> CycInt:
    if isinstance(x, CycInt):
        return x
    if isinstance(x, int):
        return CycInt.integer(x, n)
    raise TypeError(f"cannot combine CycInt with {type(x).__name__}")


def _common(a: CycInt, b: CycInt) -> tuple[CycInt, CycInt]:
    if a.n == b.n:
        return a, b
    n = lcm(a.n, b.n)
    return cyc_lift(a, n), cyc_lift(b, n)


def _mul_reduced(a: CycInt, b: CycInt) -> CycInt:
    n, phi = a.n, len(a.coeffs)
    top = max(map(abs, a.coeffs)) * max(map(abs, b.coeffs))
    if not top:
        return CycInt.zero(n)
    # the int64 convolution is exact while its folded sums stay below 2^62
    dtype = np.int64 if 2 * phi * top < 2 ** 62 else object
    full = np.convolve(np.array(a.coeffs, dtype=dtype),
                       np.array(b.coeffs, dtype=dtype))
    vec = np.zeros(2 * n, dtype=dtype)
    vec[:len(full)] = full
    return CycInt.from_counts(vec[:n] + vec[n:])


def cyc_arith(op: str, a: CycInt, b) -> CycInt:
    """Strict dispatcher: operand orders must already agree.

    op is one of add, sub, mul, scalar_mul (b is an int for scalar_mul).
    """
    if op == "scalar_mul":
        if not isinstance(b, int):
            raise TypeError("scalar_mul takes an integer scalar")
        return a * b
    if not isinstance(b, CycInt):
        raise TypeError("cyc_arith operands must be CycInt")
    if a.n != b.n:
        raise OrderMismatch(f"orders {a.n} and {b.n} differ; lift first")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def cyc_lift(a: CycInt, n2: int) -> CycInt:
    """Image of a under zeta_{a.n} -> zeta_{n2}^(n2/a.n)."""
    if n2 % a.n != 0:
        raise NotAMultiple(f"{n2} is not a multiple of {a.n}")
    if n2 == a.n:
        return a
    vec = np.zeros(n2, dtype=object)
    vec[np.arange(len(a.coeffs)) * (n2 // a.n)] = a.coeffs
    return CycInt.from_counts(vec)


def galois(a: CycInt, k: int) -> CycInt:
    """The automorphism zeta -> zeta^k; k = -1 is complex conjugation."""
    n = a.n
    if gcd(k, n) != 1:
        raise NotCoprime(f"{k} is not coprime to {n}")
    vec = np.zeros(n, dtype=object)
    vec[np.arange(len(a.coeffs)) * (k % n) % n] = a.coeffs
    return CycInt.from_counts(vec)


# -- rational multiples of cyclotomic integers ----------------------------------


class CycNum:
    """num/den with num a CycInt and den a positive integer."""

    __slots__ = ("num", "den")

    def __init__(self, num: CycInt, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = 0
        for c in num.coeffs:
            g = gcd(g, c)
        g = gcd(g, den)
        if g > 1:
            num = CycInt(num.n, tuple(c // g for c in num.coeffs))
            den //= g
        self.num = num
        self.den = den

    @classmethod
    def of(cls, x) -> "CycNum":
        if isinstance(x, CycNum):
            return x
        if isinstance(x, CycInt):
            return cls(x)
        if isinstance(x, int):
            return cls(CycInt.integer(x))
        raise TypeError(f"cannot convert {type(x).__name__} to CycNum")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        try:
            other = CycNum.of(other)
        except TypeError:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        raise TypeError("CycNum is unhashable; compare explicitly")

    def __repr__(self):
        return f"CycNum({self.num!r}, den={self.den})"

    def __add__(self, other):
        other = CycNum.of(other)
        return CycNum(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(-self.num, self.den)

    def __sub__(self, other):
        return self + (-CycNum.of(other))

    def __rsub__(self, other):
        return CycNum.of(other) - self

    def __mul__(self, other):
        other = CycNum.of(other)
        return CycNum(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def scaled_by(self, num: int, den: int = 1) -> "CycNum":
        if den < 0:
            num, den = -num, -den
        return CycNum(self.num * num, self.den * den)


# -- certified complex enclosures -----------------------------------------------


class ComplexInterval:
    """Rectangle [re] + i[im] with mpmath interval endpoints."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = iv.mpf(re)
        self.im = iv.mpf(im)

    def __add__(self, other):
        if not isinstance(other, ComplexInterval):
            other = ComplexInterval(other, 0)
        return ComplexInterval(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ComplexInterval):
            other = ComplexInterval(other, 0)
        return ComplexInterval(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, ComplexInterval):
            return ComplexInterval(self.re * other.re - self.im * other.im,
                                   self.re * other.im + self.im * other.re)
        return ComplexInterval(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __neg__(self):
        return ComplexInterval(-self.re, -self.im)

    def __repr__(self):
        return f"ComplexInterval({self.re}, {self.im})"

    def abs_interval(self):
        # square via abs so an interval straddling zero cannot produce a
        # spurious negative lower bound under interval multiplication
        re, im = abs(self.re), abs(self.im)
        return iv.sqrt(re * re + im * im)

    def abs_upper(self) -> float:
        return float(self.abs_interval().b)

    def contains_zero(self) -> bool:
        return 0 in self.re and 0 in self.im

    def midpoint(self) -> complex:
        return complex(float(self.re.mid), float(self.im.mid))


class _ivprec:
    """Temporarily raise the interval context precision."""

    def __init__(self, precision: int):
        self.precision = precision

    def __enter__(self):
        self.saved = iv.prec
        iv.prec = max(self.precision, iv.prec)

    def __exit__(self, *exc):
        iv.prec = self.saved
        return False


def zeta_interval(n: int, k: int, precision: int = 128) -> ComplexInterval:
    """Enclosure of e^(2 pi i k / n)."""
    with _ivprec(precision):
        t = 2 * iv.pi * (k % n) / n
        return ComplexInterval(iv.cos(t), iv.sin(t))


def embed(a, precision: int = 128) -> ComplexInterval:
    """Rigorous enclosure of a CycInt or CycNum under zeta_n -> e^(2 pi i/n)."""
    if precision < 53:
        raise ValueError("precision must be at least 53 bits")
    if isinstance(a, CycNum):
        box = embed(a.num, precision)
        with _ivprec(precision):
            inv = 1 / iv.mpf(a.den)
            return ComplexInterval(box.re * inv, box.im * inv)
    with _ivprec(precision):
        total = ComplexInterval(iv.mpf(0), iv.mpf(0))
        for i, c in enumerate(a.coeffs):
            if c:
                z = zeta_interval(a.n, i, precision)
                total = total + z * c
        return total
