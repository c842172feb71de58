"""Finite fields F_q, q = p^e, with dense discrete-log tables.

Elements are stored as integer codes sum(c_i * p^i) for the coefficient
vector (c_0, ..., c_{e-1}) in the polynomial basis 1, x, ..., x^(e-1) of
F_p[x]/(f).  Fields are small by configuration, so construction eagerly
builds exp/log tables and every operation afterwards is a table lookup or
one of the bulk codes_* operations.

A prime field (e = 1) is built with scalar arithmetic: the code of an
element is its residue, the generator test is pow(c, (p-1)/r, p), the exp
table is filled by doubling (exp[k:2k] = g^k exp[:k], one product mod p
per step) and the trace is the identity.

An extension field is built only with F_p-linear maps.  Multiplication
by x is the companion matrix C of the modulus f, so the element
sum(a_i x^i) acts as the e x e matrix sum(a_i C^i) mod p, and its trace
over F_p is the trace of that matrix.  The generator test takes powers of
these matrices, the same doubling fills the exp table with the matrix of
g^k applied to bounded blocks of codes, and tr(x^i) = trace(C^i) mod p.
In both cases the log table is the inverse permutation of the exp table.
The modulus search goes through C as well: Rabin's irreducibility test
reads powers C^(p^k) and exact ranks mod p, so no polynomial arithmetic
over F_p is needed.
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

_GEN_BATCH = 32           # candidate generators tested per stacked power
_EXP_BLOCK = 1 << 12      # codes per block when filling the exp table
_DIFF_CHUNK = 512         # rows of pairs per block when counting differences


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def _mat_pow(mats: np.ndarray, k: int, p: int) -> np.ndarray:
    """mats^k mod p for a stack of square matrices, by square and multiply."""
    out = np.broadcast_to(np.eye(mats.shape[-1], dtype=np.int64),
                          mats.shape).copy()
    while k:
        if k & 1:
            out = out @ mats % p
        k >>= 1
        if k:
            mats = mats @ mats % p
    return out


def _companion(f, p: int) -> np.ndarray:
    """Companion matrix of the monic f (coefficients low degree first):
    column j holds the code digits of x * x^j mod f."""
    e = len(f) - 1
    comp = np.zeros((e, e), dtype=np.int64)
    comp[1:, :-1] = np.eye(e - 1, dtype=np.int64)
    comp[:, -1] = np.negative(f[:e]) % p
    return comp


def _rank_mod(mat: np.ndarray, p: int) -> int:
    """Rank over F_p of an int64 matrix with entries in [0, p), by exact
    Gaussian elimination."""
    mat = mat.copy()
    rank = 0
    for col in range(mat.shape[1]):
        rows = np.flatnonzero(mat[rank:, col]) + rank
        if not len(rows):
            continue
        mat[[rank, rows[0]]] = mat[[rows[0], rank]]
        mat[rank] = mat[rank] * pow(int(mat[rank, col]), -1, p) % p
        others = np.arange(len(mat)) != rank
        mat[others] = (mat[others]
                       - np.outer(mat[others, col], mat[rank])) % p
        rank += 1
    return rank


def _is_irreducible(f, p: int) -> bool:
    """Monic f of degree e >= 1 irreducible over F_p (Rabin's test).

    x^k mod f acts as C^k for the companion matrix C, and g mod f is a
    unit iff g(C) is invertible.  So f is irreducible iff C^(p^e) = C
    and C^(p^(e/r)) - C has rank e for each prime r dividing e.
    """
    e = len(f) - 1
    if e == 1:
        return True
    comp = _companion(f, p)
    if np.any(_mat_pow(comp, p ** e, p) != comp):
        return False
    return all(_rank_mod((_mat_pow(comp, p ** (e // r), p) - comp) % p, p) == e
               for r in prime_factors(e))


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
        return tuple(int(c) for c in self.field.codes_to_matrix(self.code))

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
    is q - 1 (for a prime field, the least primitive root mod p).  Both
    choices are reproducible across runs.  Prime fields build their tables
    from residues and scalar powers, extension fields from the companion
    matrix of the modulus; only the generator test and the step of the
    exp table's doubling differ.
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
        self._weights = p ** np.arange(e, dtype=np.int64)
        self.modulus = self._find_modulus()
        self._build_tables()

    # construction --------------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, e = self.p, self.e
        for low in range(p ** e):
            f = [int(c) for c in self.codes_to_matrix(low)] + [1]
            if _is_irreducible(f, p):
                return tuple(f)
        raise ArithmeticError("no irreducible polynomial found")

    def _companion_powers(self) -> np.ndarray:
        """C^0, ..., C^(e-1) mod p, stacked, for C the companion matrix of
        the modulus: column j of C holds the code digits of x * x^j."""
        p, e = self.p, self.e
        comp = _companion(self.modulus, p)
        powers = [np.eye(e, dtype=np.int64)]
        for _ in range(e - 1):
            powers.append(comp @ powers[-1] % p)
        return np.stack(powers)

    def _mul_matrices(self, codes, cpow: np.ndarray) -> np.ndarray:
        """The matrices sum(a_i C^i) mod p of multiplication by each code."""
        return np.tensordot(self.codes_to_matrix(codes), cpow, axes=1) % self.p

    def _first_generator(self, cpow) -> int:
        """The first code of order q - 1: its power (q-1)/r is not 1 for any
        prime r dividing q - 1.  A residue mod p is tested alone with pow,
        since the least primitive root is small; an extension code through
        its matrix M (M^((q-1)/r) != I), a batch of codes per stacked power."""
        q, p = self.q, self.p
        exps = [(q - 1) // r for r in prime_factors(q - 1)]
        if self.e == 1:
            for code in range(1, q):
                if all(pow(code, k, p) != 1 for k in exps):
                    return code
        else:
            eye = np.eye(self.e, dtype=np.int64)
            for lo in range(1, q, _GEN_BATCH):
                codes = np.arange(lo, min(lo + _GEN_BATCH, q), dtype=np.int64)
                mats = self._mul_matrices(codes, cpow)
                full = np.ones(len(codes), dtype=bool)
                for k in exps:
                    full &= np.any(_mat_pow(mats, k, p) != eye, axis=(1, 2))
                hits = np.flatnonzero(full)
                if len(hits):
                    return int(codes[hits[0]])
        raise ArithmeticError(f"no element of order {q - 1} in F_{q}")

    def _times_step(self, codes: np.ndarray, step, out: np.ndarray):
        """out = codes * g^k, with step acting as g^k: the residue itself
        when e = 1, else the matrix of multiplication by g^k, applied to
        bounded blocks of codes."""
        if self.e == 1:
            np.multiply(codes, step, out=out)
            out %= self.p
            return
        for lo in range(0, len(codes), _EXP_BLOCK):
            digits = self.codes_to_matrix(codes[lo:lo + _EXP_BLOCK])
            out[lo:lo + _EXP_BLOCK] = self.matrix_to_codes(digits @ step.T)

    def _build_tables(self):
        q, p = self.q, self.p
        if self.e == 1:
            # the code of a residue is the residue, and tr is the identity
            self._basis_traces = np.ones(1, dtype=np.int64)
            self.generator_code = step = self._first_generator(None)
        else:
            cpow = self._companion_powers()
            # tr(x^i) is the trace of the map "times x^i"
            self._basis_traces = np.trace(cpow, axis1=1, axis2=2) % p
            self.generator_code = self._first_generator(cpow)
            step = self._mul_matrices(self.generator_code, cpow)
        # exp[k:2k] = g^k * exp[:k], squaring the step g^k each time
        exp = np.empty(q - 1, dtype=np.int64)
        exp[0] = 1
        k = 1
        while k < q - 1:
            width = min(k, q - 1 - k)
            self._times_step(exp[:width], step, exp[k:k + width])
            step = step * step % p if self.e == 1 else step @ step % p
            k *= 2
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        if log[0] != -1 or np.any(log[1:] < 0):
            raise ArithmeticError("exp table is not a permutation of 1..q-1")
        self.exp_table = exp
        self.log_table = log

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
        vec = np.zeros(self.e, dtype=np.int64)
        vec[:len(cs)] = [c % self.p for c in cs]
        return FFElement(self, int(self.matrix_to_codes(vec)))

    def elements(self):
        for code in range(self.q):
            yield FFElement(self, code)

    def _check(self, x: FFElement) -> FFElement:
        if x.field != self:
            raise ValueError("element belongs to a different field")
        return x

    # scalar arithmetic -----------------------------------------------------

    def add(self, a: FFElement, b: FFElement) -> FFElement:
        return FFElement(self, int(self.codes_add(self._check(a).code,
                                                  self._check(b).code)))

    def sub(self, a: FFElement, b: FFElement) -> FFElement:
        return FFElement(self, int(self.codes_sub(self._check(a).code,
                                                  self._check(b).code)))

    def neg(self, a: FFElement) -> FFElement:
        return FFElement(self, int(self.codes_sub(0, self._check(a).code)))

    def mul(self, a: FFElement, b: FFElement) -> FFElement:
        a, b = self._check(a), self._check(b)
        if a.code == 0 or b.code == 0:
            return self.zero
        log = self.log_table
        k = (int(log[a.code]) + int(log[b.code])) % (self.q - 1)
        return FFElement(self, int(self.exp_table[k]))

    def inv(self, a: FFElement) -> FFElement:
        if self._check(a).code == 0:
            raise DivisionByZero("inverse of zero")
        k = (-int(self.log_table[a.code])) % (self.q - 1)
        return FFElement(self, int(self.exp_table[k]))

    def pow(self, a: FFElement, k: int) -> FFElement:
        if self._check(a).code == 0:
            if k == 0:
                return self.one
            if k < 0:
                raise DivisionByZero("negative power of zero")
            return self.zero
        j = (int(self.log_table[a.code]) * k) % (self.q - 1)
        return FFElement(self, int(self.exp_table[j]))

    # bulk code arithmetic (numpy), used by the counting fast paths ----------

    def codes_to_matrix(self, codes) -> np.ndarray:
        """Decode codes into coefficient vectors along a new last axis of
        length e: an (len, e) matrix for an array, an (e,) vector for a code."""
        return np.asarray(codes, dtype=np.int64)[..., None] // self._weights % self.p

    def matrix_to_codes(self, mat: np.ndarray) -> np.ndarray:
        return (mat % self.p) @ self._weights

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

    def codes_difference_counts(self, codes: np.ndarray) -> np.ndarray:
        """counts[c] = ordered pairs in codes x codes whose difference has
        code c, taking _DIFF_CHUNK rows of pairs at a time.  O(k^2): the
        literal oracle for the direct route's per-coset counts."""
        counts = np.zeros(self.q, dtype=np.int64)
        k = len(codes)
        for lo in range(0, k, _DIFF_CHUNK):
            block = codes[lo:lo + _DIFF_CHUNK]
            diffs = self.codes_sub(np.repeat(block, k), np.tile(codes, len(block)))
            counts += np.bincount(diffs, minlength=self.q)
        return counts

    # trace -----------------------------------------------------------------

    def codes_trace(self, codes) -> np.ndarray:
        """Tr_{F_q/F_p} of each code: by linearity, sum(c_i tr(x^i)) mod p."""
        return self.codes_to_matrix(codes) @ self._basis_traces % self.p

    def trace_code(self, code: int) -> int:
        return int(self.codes_trace(code))


def make_field(p: int, e: int = 1) -> FiniteField:
    """Construct (or fetch the cached) F_{p^e}.  The cache is keyed on
    (p, e) however the call spells them, so make_field(11),
    make_field(11, 1) and make_field(p=11, e=1) share one field.  It
    keeps the 8 fields used last, as charsums._tables does: a scan asks
    for each field once, and every field retains its exp/log tables."""
    return _cached_field(p, e)


@functools.lru_cache(maxsize=8)
def _cached_field(p: int, e: int) -> FiniteField:
    return FiniteField(p, e)


def arith(field: FiniteField, op: str, *args) -> FFElement:
    """Dispatcher for scalar field arithmetic.

    op is one of add, sub, mul, neg, inv, pow; pow takes (element, int).
    Each operation refuses an element of another field.
    """
    if op in ("add", "sub", "mul", "neg", "inv"):
        return getattr(field, op)(*args)
    if op == "pow":
        a, k = args
        return field.pow(a, int(k))
    raise ValueError(f"unknown op {op!r}")


def dlog(field: FiniteField, x: FFElement) -> int:
    if field._check(x).code == 0:
        raise ZeroArgument("discrete log of zero")
    return int(field.log_table[x.code])


def trace(field: FiniteField, x: FFElement) -> int:
    return field.trace_code(field._check(x).code)
