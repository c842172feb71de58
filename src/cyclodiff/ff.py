"""Finite fields F_q, q = p^e, with dense discrete-log tables.

Elements are stored as integer codes sum(c_i * p^i) for the coefficient
vector (c_0, ..., c_{e-1}) in the polynomial basis.  Fields are small by
configuration, so construction eagerly builds exp/log tables and every
multiplicative operation afterwards is a table lookup.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import current_limits
from .errors import (
    BoundExceeded,
    DivisionByZero,
    NotPrime,
    ZeroArgument,
)
from .intpoly import prime_factors


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- polynomial helpers over F_p (dense low-first lists of ints) ---------------


def _pmod_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmod_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _pmod_rem(out, f, p)


def _pmod_rem(a: list[int], f: list[int], p: int) -> list[int]:
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p) if f[-1] != 1 else 1
    while len(a) - 1 >= df:
        if a[-1] == 0:
            a.pop()
            continue
        g = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for j, cf in enumerate(f):
            a[shift + j] = (a[shift + j] - g * cf) % p
        a.pop()
    return _pmod_trim(a)


def _pmod_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _pmod_rem(a, b, p)
    return a


def _pmod_powmod_x(exp: int, f: list[int], p: int) -> list[int]:
    """x^exp mod f, by square and multiply."""
    result = [1]
    base = _pmod_rem([0, 1], f, p)
    while exp:
        if exp & 1:
            result = _pmod_mulmod(result, base, f, p)
        base = _pmod_mulmod(base, base, f, p)
        exp >>= 1
    return result


def _is_irreducible(f: list[int], p: int) -> bool:
    """Monic f of degree e >= 1 irreducible over F_p.

    Criterion: x^(p^e) = x mod f, and gcd(x^(p^(e/r)) - x, f) = 1 for each
    prime r dividing e.
    """
    e = len(f) - 1
    if e == 1:
        return True
    xq = _pmod_powmod_x(p ** e, f, p)
    if _pmod_trim([(a - b) % p for a, b in _zip_pad(xq, [0, 1])]):
        return False
    for r in prime_factors(e):
        xs = _pmod_powmod_x(p ** (e // r), f, p)
        d = [(a - b) % p for a, b in _zip_pad(xs, [0, 1])]
        g = _pmod_gcd(list(f), _pmod_trim(d), p)
        if len(g) != 1:
            return False
    return True


def _zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


# -- elements -----------------------------------------------------------------


class FFElement:
    """One element of a fixed finite field, identified by its code."""

    __slots__ = ("field", "code")

    def __init__(self, field: "FiniteField", code: int):
        self.field = field
        self.code = code

    @property
    def rep(self) -> tuple[int, ...]:
        """Coefficient vector, low degree first, length e."""
        f = self.field
        c, out = self.code, []
        for _ in range(f.e):
            out.append(c % f.p)
            c //= f.p
        return tuple(out)

    def is_zero(self) -> bool:
        return self.code == 0

    def __eq__(self, other):
        return (
            isinstance(other, FFElement)
            and self.code == other.code
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.code))

    def __repr__(self):
        return f"FFElement(q={self.field.q}, code={self.code})"

    def __add__(self, other):
        return self.field.add(self, other)

    def __sub__(self, other):
        return self.field.sub(self, other)

    def __mul__(self, other):
        return self.field.mul(self, other)

    def __neg__(self):
        return self.field.neg(self)

    def __pow__(self, k: int):
        return self.field.pow(self, k)


class FiniteField:
    """F_q with q = p^e, deterministic modulus and generator.

    The modulus is the first monic irreducible of degree e when coefficient
    vectors are ordered by their integer code sum(c_i * p^i); the generator
    is the first element in the same code order whose multiplicative order
    is q - 1.  Both choices are reproducible across runs.
    """

    def __init__(self, p: int, e: int):
        limits = current_limits()
        if e < 1:
            raise NotPrime(f"extension degree must be >= 1, got {e}")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        q = p ** e
        if q > limits.field_q_max:
            raise BoundExceeded(f"q = {q} exceeds bound {limits.field_q_max}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = self._find_modulus()
        self._build_tables()
        self._basis_traces = self._compute_basis_traces()

    # construction --------------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, e = self.p, self.e
        if e == 1:
            return (0, 1)
        for low in range(p ** e):
            f = [0] * e + [1]
            c = low
            for i in range(e):
                f[i] = c % p
                c //= p
            if _is_irreducible(f, p):
                return tuple(f)
        raise ArithmeticError("no irreducible polynomial found")

    def _mul_codes_slow(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        va = [(a // p ** i) % p for i in range(e)]
        vb = [(b // p ** i) % p for i in range(e)]
        prod = _pmod_mulmod(_pmod_trim(va), _pmod_trim(vb), list(self.modulus), p)
        return sum(c * p ** i for i, c in enumerate(prod))

    def _pow_code_slow(self, a: int, k: int) -> int:
        result, base = 1, a
        while k:
            if k & 1:
                result = self._mul_codes_slow(result, base)
            base = self._mul_codes_slow(base, base)
            k >>= 1
        return result

    def _order_is_full(self, a: int) -> bool:
        n = self.q - 1
        for r in prime_factors(n):
            if self._pow_code_slow(a, n // r) == 1:
                return False
        return True

    def _build_tables(self):
        q = self.q
        gen = None
        for code in range(1, q):
            if self._order_is_full(code):
                gen = code
                break
        if gen is None:
            raise ArithmeticError(f"no element of order {q - 1} in F_{q}")
        self.generator_code = gen
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        acc = 1
        if self.e == 1:
            p = self.p
            for i in range(q - 1):
                exp[i] = acc
                log[acc] = i
                acc = (acc * gen) % p
        else:
            for i in range(q - 1):
                exp[i] = acc
                log[acc] = i
                acc = self._mul_codes_slow(acc, gen)
        if acc != 1:
            raise ArithmeticError("generator order is not q-1")
        self.exp_table = exp
        self.log_table = log

    def _compute_basis_traces(self) -> tuple[int, ...]:
        # tr(w^i) for the basis powers w^i; trace of sum(c_i w^i) is then
        # sum(c_i tr(w^i)) mod p by linearity
        p, e = self.p, self.e
        out = []
        for i in range(e):
            basis_code = p ** i
            acc = [0] * e
            x = basis_code
            for _ in range(e):
                for j in range(e):
                    acc[j] = (acc[j] + (x // p ** j) % p) % p
                x = self._pow_code_slow(x, p)
            if any(acc[1:]):
                raise ArithmeticError("trace left the prime subfield")
            out.append(acc[0])
        return tuple(out)

    # identity ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"FiniteField(p={self.p}, e={self.e})"

    # element plumbing ------------------------------------------------------

    @property
    def zero(self) -> FFElement:
        return FFElement(self, 0)

    @property
    def one(self) -> FFElement:
        return FFElement(self, 1)

    @property
    def generator(self) -> FFElement:
        return FFElement(self, self.generator_code)

    def element(self, code: int) -> FFElement:
        if not 0 <= code < self.q:
            raise ValueError(f"code {code} out of range for q = {self.q}")
        return FFElement(self, code)

    def from_rep(self, coeffs) -> FFElement:
        cs = list(coeffs)
        if len(cs) > self.e:
            raise ValueError("coefficient vector longer than extension degree")
        code = sum((c % self.p) * self.p ** i for i, c in enumerate(cs))
        return FFElement(self, code)

    def elements(self):
        for code in range(self.q):
            yield FFElement(self, code)

    def _check(self, x: FFElement) -> FFElement:
        if x.field != self:
            raise ValueError("element belongs to a different field")
        return x

    # scalar arithmetic -----------------------------------------------------

    def add(self, a: FFElement, b: FFElement) -> FFElement:
        return FFElement(self, self._add_codes(a.code, b.code))

    def sub(self, a: FFElement, b: FFElement) -> FFElement:
        return FFElement(self, self._sub_codes(a.code, b.code))

    def neg(self, a: FFElement) -> FFElement:
        return FFElement(self, self._sub_codes(0, a.code))

    def mul(self, a: FFElement, b: FFElement) -> FFElement:
        if a.code == 0 or b.code == 0:
            return self.zero
        log = self.log_table
        k = (int(log[a.code]) + int(log[b.code])) % (self.q - 1)
        return FFElement(self, int(self.exp_table[k]))

    def inv(self, a: FFElement) -> FFElement:
        if a.code == 0:
            raise DivisionByZero("inverse of zero")
        k = (-int(self.log_table[a.code])) % (self.q - 1)
        return FFElement(self, int(self.exp_table[k]))

    def pow(self, a: FFElement, k: int) -> FFElement:
        if a.code == 0:
            if k == 0:
                return self.one
            if k < 0:
                raise DivisionByZero("negative power of zero")
            return self.zero
        j = (int(self.log_table[a.code]) * k) % (self.q - 1)
        return FFElement(self, int(self.exp_table[j]))

    def _add_codes(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        out, mult = 0, 1
        for _ in range(self.e):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _sub_codes(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a - b) % p
        if p == 2:
            return a ^ b
        out, mult = 0, 1
        for _ in range(self.e):
            out += ((a % p - b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    # bulk code arithmetic (numpy), used by the counting fast paths ----------

    def codes_to_matrix(self, codes: np.ndarray) -> np.ndarray:
        """Decode an int array of codes into an (len, e) coefficient matrix."""
        cols = []
        c = codes.astype(np.int64)
        for _ in range(self.e):
            cols.append(c % self.p)
            c = c // self.p
        return np.stack(cols, axis=1)

    def matrix_to_codes(self, mat: np.ndarray) -> np.ndarray:
        weights = self.p ** np.arange(self.e, dtype=np.int64)
        return (mat % self.p) @ weights

    def codes_sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (a - b) % self.p
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self.matrix_to_codes(self.codes_to_matrix(a) - self.codes_to_matrix(b))

    def codes_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self.matrix_to_codes(self.codes_to_matrix(a) + self.codes_to_matrix(b))

    # trace -----------------------------------------------------------------

    def trace_code(self, code: int) -> int:
        if self.e == 1:
            return code
        p, acc = self.p, 0
        for t in self._basis_traces:
            acc += (code % p) * t
            code //= p
        return acc % p


@functools.lru_cache(maxsize=128)
def make_field(p: int, e: int = 1) -> FiniteField:
    """Construct (or fetch the cached) F_{p^e}."""
    return FiniteField(p, e)


def arith(field: FiniteField, op: str, *args) -> FFElement:
    """Dispatcher for scalar field arithmetic.

    op is one of add, sub, mul, neg, inv, pow; pow takes (element, int).
    """
    if op in ("add", "sub", "mul"):
        a, b = args
        return getattr(field, op)(field._check(a), field._check(b))
    if op == "neg":
        (a,) = args
        return field.neg(field._check(a))
    if op == "inv":
        (a,) = args
        return field.inv(field._check(a))
    if op == "pow":
        a, k = args
        return field.pow(field._check(a), int(k))
    raise ValueError(f"unknown op {op!r}")


def dlog(field: FiniteField, x: FFElement) -> int:
    if x.code == 0:
        raise ZeroArgument("discrete log of zero")
    return int(field.log_table[field._check(x).code])


def trace(field: FiniteField, x: FFElement) -> int:
    return field.trace_code(field._check(x).code)
