"""Multiplicative character sums over finite fields, computed exactly.

The public sums (Gauss, Jacobi, power-class sums and Jacobi row sums)
return cyclotomic integers.  The verify_* family at the bottom re-proves
the classical product and row-sum identities on a concrete field by
integer counting: both sides of an identity are expanded into vectors of
root-of-unity exponent counts, and the difference is tested for zero
exactly.  A passing verdict is therefore a statement about integers, not
floats.

The count layer enumerates the nonzero elements one way only, as
alpha = g^k for k = 0..q-2, so the class of alpha is k mod m and no
table is kept in code order (_tables): the traces tr(g^k), the Zech
logarithms dlog(1 - g^k) and dlog(-1).  Every class-sum and Jacobi-row
count is a histogram of the cyclotomic numbers (i, j)_m, read from the
pairs (k mod m, dlog(1 - g^k) mod m) of _class_pairs.  Every condition
on all nontrivial powers chi^s is one base count vector and one exact
comparison, _vanishes_at_powers: by Fourier inversion over Z/m the sum
vanishes at every nontrivial power exactly when the counts are constant,
so no power is decimated and nothing is reduced in Z[zeta_m].  The routes
of diffsets and the identity suite all test through it; the only
reduction left here is the fold in zeta_p at the prime p, and only CycInt
values reduce modulo a composite Phi_n.  Every histogram over pairs of
field elements is counted by _pair_counts, a block of rows at a time,
each caller with its own literal key.  Each histogram the identity suite
reads twice is built once per (field, m): both Gauss-product identities
read the conjugate-norm histogram of _norm_counts, as beta -> -beta turns
the opposite product's pairs into its pairs with the class axis rolled by
dlog(-1), and both class-difference identities read the literal
difference histogram of the m-th powers, _power_differences.  The products
G(chi^s) G(chi^t) expand into the (m, m, p) pair tensor of traces by
class, which is never built.  The gauss route of diffsets reads the
diagonal slab T[j - dlog(-1), j] and the per-class trace histogram
(through _gauss_slices), once per (field, m), and counts no pair:
scaling by u in F_p^* moves both classes by dlog(u) and multiplies the
trace sum by u, so every column w != 0 of the slab is the column w = 1
rolled along the class axis, and only the columns w = 0 and 1 are summed
from the histogram, in O(m p); the tensor's marginals follow from the
histogram too.  The quotient identity counts (m, p) slabs of the tensor
from the trace grid, _class_grid, a reshape of tr(g^k) whose row i holds
class i, and compares them with its Jacobi expansion class by class,
from one definition of the pairs' keys (_quotient_keys): as slab
histograms where a slab of m p bins holds no more than its f (q - 1)
pairs, and otherwise, where most bins would be empty, as the sorted keys
of about one block of pairs at a time, which are equal exactly when the
histograms are.  The direct route of diffsets counts differences with
its own counter and shares nothing.
"""

from __future__ import annotations

import functools
from math import lcm
from types import SimpleNamespace

import numpy as np

from .config import current_limits
from .cyclotomic import CycInt, check_count_order, reduce_counts
# reduction_rows is unused here but stays importable from this module:
# bench/test_bench.py checks that the traced run restores it on charsums.
from .cyclotomic import reduction_rows  # noqa: F401
from .errors import BoundExceeded, OddOrder, OrderDoesNotDivide, TrivialPower
from .ff import FFElement, FiniteField


class Character:
    """The canonical order-m character sending the field generator to zeta_m.

    Every character of order m is a power of this one, so suites that
    quantify over characters iterate over exponents instead.
    """

    __slots__ = ("field", "m")

    def __init__(self, field: FiniteField, m: int):
        _require_order(field, m)
        self.field = field
        self.m = m

    def __repr__(self):
        return f"Character(q={self.field.q}, m={self.m})"

    def __eq__(self, other):
        return (isinstance(other, Character)
                and self.field == other.field and self.m == other.m)

    def __hash__(self):
        return hash((self.field, self.m))


def _require_order(field: FiniteField, m: int) -> None:
    if m < 1 or (field.q - 1) % m != 0:
        raise OrderDoesNotDivide(f"m={m} does not divide q-1={field.q - 1}")


def character(field: FiniteField, m: int) -> Character:
    return Character(field, m)


class CharSumValue:
    """An exact character-sum value with its provenance (q, m, s[, t])."""

    __slots__ = ("value", "meta")

    def __init__(self, value: CycInt, meta: tuple):
        self.value = value
        self.meta = meta

    def __repr__(self):
        return f"CharSumValue(meta={self.meta}, value={self.value!r})"

    def __eq__(self, other):
        if isinstance(other, CharSumValue):
            return self.value == other.value
        return self.value == other


def chi_eval(chi: Character, s: int, alpha: FFElement) -> CycInt:
    """chi^s(alpha).  At alpha = 0 this is 1 when chi^s is trivial, else 0.

    The zero convention belongs to the power chi^s as a character in its
    own right; it is not the s-th power of chi(0).
    """
    m = chi.m
    if chi.field._check(alpha).code == 0:
        return CycInt.integer(1 if s % m == 0 else 0, m)
    j = int(chi.field.log_table[alpha.code])
    return CycInt.root(m, s * j)


# -- count vectors -------------------------------------------------------------
#
# A sum of m-th roots of unity is held as a length-m integer vector of
# exponent counts.  Mixed Gauss-type sums use an (m, p) matrix of counts
# for zeta_m^j zeta_p^w.

# Pairs per block of rows in _pair_counts.
_PAIR_BLOCK = 1 << 18

# Bins of the m class slabs, m m p, past which the Gauss-product paths raise
# BoundExceeded, and pairs of nonzero elements, (q - 1)^2, past which the
# gauss route does.  The quotient identity's keys are int32 and lie below
# m m p, so _TENSOR_MAX must stay below 2^31.  _PAIRS_MAX bounds no count,
# as _gauss_counts sums O(m p) products and counts no pair; it is kept so
# that the gauss route's skip set does not depend on how m1 is built.
_TENSOR_MAX = 3 * 10 ** 7
_PAIRS_MAX = 3 * 10 ** 7


def _vanishes_at_powers(base: np.ndarray, m: int, p: int = 0) -> bool:
    """Whether sum_j base[j] zeta_m^(s j) vanishes at every nontrivial
    power s.

    base is a count vector, or an (m, p) count matrix of zeta_m^j zeta_p^w
    when p > 0; the value is linear in base, so callers fold their
    targets in.  The value at s is the discrete Fourier transform of base
    over Z/m at frequency s.  By Fourier inversion it vanishes at every
    s != 0 exactly when base is constant, so the test is one exact
    comparison, for int64 and Python-int entries alike.  A matrix
    is first folded in zeta_p by reduce_counts.  As gcd(m, p) = 1 whenever
    m | q - 1, the powers 1, zeta_p, ..., zeta_p^(p-2) are linearly
    independent over Q(zeta_m), so each folded column must be constant on
    its own.  Composite m past cyclotomic_n_max raises BoundExceeded
    (check_count_order), which is what the routes report as skipped.
    """
    check_count_order(m)
    if p:
        base = reduce_counts(base, p)
    return bool(np.all(base == base[0]))


@functools.lru_cache(maxsize=8)
def _tables(field: FiniteField) -> SimpleNamespace:
    """The count layer's one enumeration of the nonzero elements,
    alpha = g^k for k = 0..q-2, so that the class of alpha is k mod m:

    trace[k]      = tr(g^k), for k = 0..q-2;
    zech[k - 1]   = dlog(1 - g^k), the Zech logarithm, for k = 1..q-2
                    (1 - g^0 = 0 has none);
    dlog_neg_one  = dlog(-1).

    Both arrays are read-only, as every caller shares them.
    """
    exp = field.exp_table
    trace = field.codes_trace(exp)
    zech = field.log_table[field.codes_sub(np.ones_like(exp[1:]), exp[1:])]
    trace.flags.writeable = zech.flags.writeable = False
    return SimpleNamespace(
        trace=trace, zech=zech,
        dlog_neg_one=int(field.log_table[field.neg(field.one).code]))


def _class_pairs(field: FiniteField, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(k mod m, dlog(1 - g^k) mod m) for k = 1..q-2: the classes of each
    alpha = g^k outside {0, 1} and of 1 - alpha.

    The number of alphas at the pair (i, j) is the cyclotomic number
    (i, j)_m, so every class-sum, Jacobi and row-sum count is a histogram
    of these pairs.  They take O(q) memory whatever m is, and the count
    vectors below never build the (m, m) matrix of those numbers,
    because m can be as large as q - 1.
    """
    zech = _tables(field).zech
    return np.arange(1, len(zech) + 1) % m, zech % m


def _class_sum_counts(field: FiniteField, m: int, s: int = 1) -> np.ndarray:
    """Exponent counts of S_s without its alpha = 1 term: the alphas
    g^m, g^(2m), ... of class 0, every m-th entry of the Zech logarithms,
    counted at s dlog(1 - alpha) mod m."""
    b = _tables(field).zech[m - 1::m] % m
    return np.bincount(s % m * b % m, minlength=m)


def _row_sum_counts(field: FiniteField, m: int, s: int = 1) -> np.ndarray:
    """Exponent counts of the Jacobi row sum at the power s.

    The inner sum over t of chi^t(1 - alpha) is m - 1 when 1 - alpha is
    an m-th power and -1 otherwise, so the row sum collapses to
    m (i, 0)_m minus the number of alphas in class i, each counted at
    s i mod m, the exponent of chi^s(alpha).
    """
    a, b = _class_pairs(field, m)
    a = s % m * a % m
    return m * np.bincount(a[b == 0], minlength=m) - np.bincount(a, minlength=m)


def _pair_counts(rows: int, cols: int, size: int, keys) -> np.ndarray:
    """The histogram of keys over a rows x cols grid of pairs: keys maps a
    slice of rows to its (block, cols) keys, and each block holds at most
    max(_PAIR_BLOCK, size) pairs, so memory is O(block + size), not O(q^2).
    """
    step = max(1, max(_PAIR_BLOCK, size) // cols)
    # the first block is the total: a single-block count holds one histogram
    total = np.bincount(keys(slice(0, step)).ravel(), minlength=size)
    for lo in range(step, rows, step):
        total += np.bincount(keys(slice(lo, lo + step)).ravel(),
                             minlength=size)
    return total


def _require_tensor_budget(m: int, p: int) -> None:
    """Raise BoundExceeded when m class slabs of m p bins each, the work of
    expanding every G(chi^s) G(chi^t), pass _TENSOR_MAX entries.  Both
    Gauss-product paths check it before counting anything."""
    if m * m * p > _TENSOR_MAX:
        raise BoundExceeded(f"{m}x{m}x{p} pair tensor past {_TENSOR_MAX}")


def _class_grid(field: FiniteField, m: int) -> np.ndarray:
    """grid[i, c] = tr(g^(i + m c)): row i holds the traces of class i,
    copied so that the counts read contiguous rows."""
    return _tables(field).trace.reshape(-1, m).T.copy()


def _gauss_slices(field: FiniteField, m: int):
    """What the gauss route reads of the pair tensor
    T[i, j, w] = #{nonzero alpha, beta in classes i, j : tr alpha + tr beta = w},
    in O(m p) time and memory beyond one pass over the traces:

    a[i, w]  = #{alpha != 0 : dlog alpha = i mod m, tr alpha = w};
    m1[j]    = T[j - dlog(-1), j], the diagonal slab.

    No pair is counted: m1 is summed from a at w = 0 and w = 1, and the
    scaling symmetry of T under F_p^* gives the other columns (see
    _gauss_counts).  The marginals of T need no count either: they are
    (q/p) f - a (see diffsets.check_gauss).  Raises BoundExceeded where
    verify_jacobi_quotient does, so both skip the same instances; the
    budget is checked on every call, before the cache of _gauss_counts is
    read, so a lowered budget raises even for a (field, m) counted before.
    Both arrays are shared by every caller and read-only.
    """
    _require_tensor_budget(m, field.p)
    return _gauss_counts(field, m)


# At most 4 entries of two m p int64 arrays: 22.4 MB at the route's caps of
# m <= 64 and (q - 1)^2 <= 3e7 (p <= 5478), a few kB in practice; counting
# one entry allocates a few more m p arrays and nothing of size m m.  The
# plain and the modified check of one (field, m) read one entry.
@functools.lru_cache(maxsize=4)
def _gauss_counts(field: FiniteField, m: int):
    """(a, m1) of _gauss_slices, once per (field, m), in O(m p) beyond the
    histogram a: each class sums two trace convolutions, at w = 0 and
    w = 1, and the F_p^* scaling symmetry of T fills the other columns of
    m1 by rolling the w = 1 column along the class axis.
    """
    p, t = field.p, _tables(field)
    a = np.bincount(np.arange(field.q - 1) % m * p + t.trace,
                    minlength=m * p).reshape(m, p)
    # With L = dlog(-1), m1[j, w] = sum_t a[j - L, t] a[j, w - t mod p].
    # For u in F_p^*, (alpha, beta) -> (u alpha, u beta) moves both classes
    # by c(u) = dlog(u) mod m and, the trace being F_p-linear, scales
    # tr alpha + tr beta by u: T[i, j, w] = T[i + c(u), j + c(u), u w], so
    # m1[j, w] = m1[j - c(w), 1] for w != 0, with c(w) = dlog(w) mod m as
    # the code of the constant w is w.  Only s0 = m1[:, 0] and s1 = m1[:, 1]
    # are summed, p products per class: twice[j, p + w - t] = a[j, w - t].
    # m1 gathers s0 at 2 m + j and s1 at j - c(w) + m from (s1, s1, s0),
    # so no index is reduced mod m.
    lhs = np.roll(a, t.dlog_neg_one, axis=0)
    twice = np.concatenate((a, a), axis=1)
    s0 = np.einsum("jt,jt->j", lhs, twice[:, p:0:-1])
    s1 = np.einsum("jt,jt->j", lhs, twice[:, p + 1:1:-1])
    col = np.concatenate(([2 * m], m - field.log_table[1:p] % m))
    m1 = np.concatenate((s1, s1, s0))[np.arange(m)[:, None] + col]
    a.flags.writeable = m1.flags.writeable = False
    return a, m1


def _quotient_keys(field: FiniteField, m: int) -> SimpleNamespace:
    """The pairs of the quotient identity's tensors U and V as int32 keys
    j p + w into an (m, p) slab, for the classes i of a slice cls, one
    axis of keys per class:

    u(cls, r)  U[i] = T[i]: alpha from rows r of class i's traces, paired
               with every nonzero beta, at the class j of beta and
               w = tr alpha + tr beta;
    v(cls, r)  V[i] without its diagonal: each a outside {0, 1} in rows r
               of the pairs, with the gamma in class i - cls(a), at
               j = cls((1 - a) gamma) and w = tr gamma;
    diag[i]    the key of V[i]'s f pairs beta = -alpha, at
               (i + dlog(-1), 0).

    Rows of u run over the f elements of a class and rows of v over the
    q - 2 values of a, so u(cls, :), and v(cls, :) with the diagonal, hold
    f (q - 1) pairs per class.  Raises BoundExceeded first.
    """
    p = field.p
    _require_tensor_budget(m, p)
    f = (field.q - 1) // m
    grid = _class_grid(field, m).astype(np.int32)
    every = grid.ravel()  # every nonzero beta, class by class
    beta_cls = np.repeat(np.arange(m, dtype=np.int32) * p, f)
    a_cls, om_cls = _class_pairs(field, m)
    # cls((1 - a) gamma) - cls(a gamma)
    shift = (om_cls - a_cls).astype(np.int32)
    classes = np.arange(m, dtype=np.int32)

    def u(cls, r):
        return (grid[cls, r, None] + every) % p + beta_cls

    def v(cls, r):
        i = classes[cls, None]
        return grid[(i - a_cls[r]) % m] + ((shift[r] + i) % m * p)[..., None]

    diag = (classes + _tables(field).dlog_neg_one) % m * p
    return SimpleNamespace(u=u, v=v, diag=diag, pairs=len(a_cls))


def _quotient_slabs(field: FiniteField, m: int):
    """(U[i], V[i]) for each class i, the two (m, p) slabs of the quotient
    identity's tensors (see _quotient_keys), each a histogram counted by
    _pair_counts.  Raises BoundExceeded first."""
    p, f = field.p, (field.q - 1) // m
    keys = _quotient_keys(field, m)
    for i in range(m):
        cls = slice(i, i + 1)
        u = _pair_counts(f, m * f, m * p, lambda r: keys.u(cls, r))
        v = _pair_counts(keys.pairs, f, m * p, lambda r: keys.v(cls, r))
        v[keys.diag[i]] += f
        yield u.reshape(m, p), v.reshape(m, p)


def _quotient_key_groups(field: FiniteField, m: int):
    """(i0, u, v) for each group of classes i0..i1 - 1: the keys of
    U[i0:i1] and of V[i0:i1] with its diagonal (see _quotient_keys), each
    offset by (i - i0) m p into one flat int32 array.  A group holds
    max(1, _PAIR_BLOCK // (f (q - 1))) classes, so neither array has more
    than max(_PAIR_BLOCK, f (q - 1)) keys; every key lies below m m p,
    which the tensor budget keeps within _TENSOR_MAX < 2^31.  Raises
    BoundExceeded first."""
    f = (field.q - 1) // m
    keys = _quotient_keys(field, m)
    per = max(1, _PAIR_BLOCK // (f * (field.q - 1)))
    all_rows = slice(None)
    for i0 in range(0, m, per):
        cls = slice(i0, min(i0 + per, m))
        offset = np.arange(cls.stop - i0, dtype=np.int32) * (m * field.p)
        u, v = keys.u(cls, all_rows), keys.v(cls, all_rows)
        u += offset[:, None, None]
        v += offset[:, None, None]
        yield i0, u.ravel(), np.concatenate(
            (v.ravel(), np.repeat(keys.diag[cls] + offset, f)))


# One entry each: the identity suite reads each histogram twice in a row,
# the conjugate norm and then the opposite product, the class-difference
# counts and then their sums, and moves on to the next (field, m).  The
# entry kept is no larger than what its count allocates anyway.
@functools.lru_cache(maxsize=1)
def _norm_counts(field: FiniteField, m: int) -> np.ndarray:
    """N[d, w] = #{alpha, beta != 0 : dlog(alpha/beta) = d mod m,
    tr alpha - tr beta = w}, the (m, p) pair histogram that both
    Gauss-product identities read, counted once per (field, m) by
    _pair_counts.  Read-only."""
    q, p = field.q, field.p
    k, w = np.arange(q - 1), _tables(field).trace
    h = _pair_counts(q - 1, q - 1, m * p, lambda r: (
        (k[r, None] - k) % m * p + (w[r, None] - w) % p)).reshape(m, p)
    h.flags.writeable = False
    return h


@functools.lru_cache(maxsize=1)
def _power_differences(field: FiniteField, m: int) -> np.ndarray:
    """b[k] = ordered pairs of nonzero m-th powers at difference g^k, for
    k = 0..q-2: the literal O(k^2) difference histogram of H
    (codes_difference_counts) read at g^k, once per (field, m).
    Read-only."""
    exp = field.exp_table
    b = field.codes_difference_counts(exp[::m])[exp]
    b.flags.writeable = False
    return b


# -- the sums themselves ---------------------------------------------------------


def gauss_sum(chi: Character, s: int = 1) -> CharSumValue:
    """Sum of chi^s(alpha) zeta_p^tr(alpha) over the whole field."""
    field, m, p = chi.field, chi.m, chi.field.p
    n = lcm(m, p)
    limit = current_limits().cyclotomic_n_max
    if n > limit:
        raise BoundExceeded(
            f"ambient cyclotomic order lcm({m},{p})={n} exceeds {limit}")
    k = np.arange(field.q - 1)
    exps = ((s * k % m) * (n // m) + _tables(field).trace * (n // p)) % n
    vec = np.bincount(exps, minlength=n)
    if s % m == 0:
        vec[0] += 1  # alpha = 0 contributes chi^s(0) = 1 for trivial powers
    return CharSumValue(CycInt.from_counts(vec), (field.q, m, s % m))


def jacobi_sum(chi: Character, s: int, t: int) -> CharSumValue:
    """Sum of chi^s(alpha) chi^t(1-alpha) over the whole field, in Z[zeta_m]."""
    field, m = chi.field, chi.m
    a, b = _class_pairs(field, m)
    vec = np.bincount(((s % m) * a + (t % m) * b) % m, minlength=m)
    if s % m == 0:
        vec[0] += 1  # alpha = 0
    if t % m == 0:
        vec[0] += 1  # alpha = 1
    return CharSumValue(CycInt.from_counts(vec), (field.q, m, s % m, t % m))


def h_class_sum(chi: Character, s: int) -> CharSumValue:
    """S_s: sum of chi^s(1-alpha) over the nonzero m-th powers alpha."""
    field, m = chi.field, chi.m
    vec = _class_sum_counts(field, m, s)
    if s % m == 0:
        vec[0] += 1  # alpha = 1 lies in the class; chi^s(0) = 1 there
    return CharSumValue(CycInt.from_counts(vec), (field.q, m, s % m))


def jacobi_row_sum(chi: Character, s: int) -> CharSumValue:
    """Sum of jacobi_sum(s, t) over t = 1..m-1, for a nontrivial power s."""
    field, m = chi.field, chi.m
    if s % m == 0:
        raise TrivialPower(f"s={s} is a multiple of m={m}")
    vec = _row_sum_counts(field, m, s)
    return CharSumValue(CycInt.from_counts(vec), (field.q, m, s % m))


# -- identity verification by exact counting -------------------------------------


def verify_gauss_conjugate_norm(field: FiniteField, m: int) -> bool:
    """G(chi^s) times its complex conjugate image equals q for every
    nontrivial power s, and the trivial-power Gauss sum vanishes.

    The product expands over the pairs (alpha, beta) at
    (dlog(alpha/beta), tr alpha - tr beta), the histogram N of
    _norm_counts, which verify_gauss_opposite_product reads too.
    """
    _require_order(field, m)
    q, p = field.q, field.p
    # trivial power: over the prime p, the sum of zeta_p^tr(alpha) over
    # the whole field, alpha = 0 at tr 0 included, vanishes exactly when
    # the trace counts are constant
    counts = np.bincount(_tables(field).trace, minlength=p)
    counts[0] += 1
    if not _vanishes_at_powers(counts, p):
        return False
    base = _norm_counts(field, m).copy()
    base[0, 0] -= q
    return _vanishes_at_powers(base, m, p)


def verify_gauss_opposite_product(field: FiniteField, m: int) -> bool:
    """G(chi^s) G(chi^-s) = chi^s(-1) q for every nontrivial power s.

    The pairs (alpha, beta) of G(chi^s) G(chi^-s) sit at
    (dlog(alpha/beta), tr alpha + tr beta).  With L = dlog(-1),
    beta -> -beta maps them onto the pairs of the conjugate norm at
    (dlog(alpha/beta) + L, tr alpha - tr beta), so their histogram is N
    of _norm_counts with its class axis rolled by L (a roll by -L is the
    same, as 2 L = 0 mod m), and nothing is counted here.
    """
    _require_order(field, m)
    L = _tables(field).dlog_neg_one
    base = np.roll(_norm_counts(field, m), L, axis=0)
    base[L % m, 0] -= field.q
    return _vanishes_at_powers(base, m, field.p)


def verify_jacobi_quotient(field: FiniteField, m: int) -> bool:
    """The Gauss-sum factorization of Jacobi sums, for every exponent pair.

    Checked at the level of exponent counts, class by class (see
    _quotient_keys): the pair tensor U, the literal expansion of
    G(chi^s) G(chi^t), must equal the tensor V built from (a, gamma) with
    alpha = a gamma, beta = (1-a) gamma, plus the beta = -alpha diagonal.
    Each class slab has m p bins and f (q - 1) pairs.  Where the bins are
    no more than the pairs, the slabs are compared as histograms
    (_quotient_slabs); otherwise the pairs of a group of classes are
    compared as sorted keys (_quotient_key_groups), equal exactly when
    their histograms are, so the verdict is the same exact statement.
    Equality of the tensors implies G(chi^s)G(chi^t) = J(chi^s,chi^t)
    G(chi^(s+t)) for every s, t with s, t, s+t all nontrivial, since each
    instance is a fixed linear functional of the three tensors.  The
    complementary case J(chi^s, chi^-s) = -chi^s(-1) is checked per
    exponent.  Raises BoundExceeded past the tensor budget.
    """
    _require_order(field, m)
    q = field.q
    if m * field.p > (q - 1) // m * (q - 1):
        same = all(np.array_equal(np.sort(u), np.sort(v))
                   for _, u, v in _quotient_key_groups(field, m))
    else:
        same = all(np.array_equal(u, v) for u, v in _quotient_slabs(field, m))
    if not same:
        return False
    # degenerate pairs: J(chi^s, chi^-s) = -chi^s(-1)
    a_cls, om_cls = _class_pairs(field, m)
    base = np.bincount((a_cls - om_cls) % m, minlength=m)
    base[_tables(field).dlog_neg_one % m] += 1
    return _vanishes_at_powers(base, m)


def verify_jacobi_duplication(field: FiniteField, m: int) -> bool:
    """chi^s(4) J(chi^s,chi^s) = J(chi^s,chi^(m/2)) for even m, nontrivial s.

    An even m dividing q - 1 forces odd q, so 4 is nonzero.  The quadratic
    character is not raised to s: chi^(m/2)(1 - alpha) = (-1)^b, so the
    right side is the decimation of signed class counts.
    """
    _require_order(field, m)
    if m % 2:
        raise OddOrder(f"duplication needs an even order, got m={m}")
    dlog4 = int(field.log_table[field.element(4 % field.p).code])
    a, b = _class_pairs(field, m)
    odd = b % 2 == 1
    base = (np.bincount((a + b + dlog4) % m, minlength=m)
            - np.bincount(a[~odd], minlength=m)
            + np.bincount(a[odd], minlength=m))
    return _vanishes_at_powers(base, m)


def verify_row_sums(field: FiniteField, m: int) -> bool:
    """Row sums of Jacobi sums against 1 + m S_s, for every nontrivial s."""
    _require_order(field, m)
    base = _row_sum_counts(field, m) - m * _class_sum_counts(field, m)
    base[0] -= 1
    return _vanishes_at_powers(base, m)


def verify_class_difference_counts(field: FiniteField, m: int) -> bool:
    """The two counting facts behind the class sums, exhaustively in gamma,
    read from the literal difference histograms at gamma = g^k, k = 0..q-2.

    (i) ordered pairs of m-th powers at difference gamma are counted by
    the class of gamma alone, via (beta, delta) -> delta/beta, so the
    counts are the class sums without their alpha = 1 term, tiled f
    times;
    (ii) appending 0 to the class adds the indicators of gamma and of
    -gamma = g^(k + dlog(-1)) lying in it.  (That the character-averaged
    class sums recover m times the pair count plus one holds for any
    counts, by orthogonality, so it needs no check.)
    """
    _require_order(field, m)
    exp = field.exp_table
    f = (field.q - 1) // m
    b = _power_differences(field, m)
    # by class of gamma: alpha in H, alpha != 1, with 1 - alpha in gamma H
    if not np.array_equal(b, np.tile(_class_sum_counts(field, m), f)):
        return False
    # modified class: differences over (H u {0})^2
    c = field.codes_difference_counts(np.concatenate(([0], exp[::m])))[exp]
    k = np.arange(field.q - 1)
    expected = (b + (k % m == 0)
                + ((k + _tables(field).dlog_neg_one) % m == 0))
    return bool(np.array_equal(c, expected))


def verify_class_difference_sums(field: FiniteField, m: int) -> bool:
    """Sum of chi^s(beta-gamma) over pairs from the power class is f S_s."""
    _require_order(field, m)
    f = (field.q - 1) // m
    # nonzero differences by class
    w = _power_differences(field, m).reshape(f, m).sum(axis=0)
    # the beta = gamma diagonal and f times the alpha = 1 term of S_s are
    # both f when the power is trivial and 0 otherwise, so they cancel;
    # decimating by s = 0 leaves only the total, at exponent 0
    base = w - f * _class_sum_counts(field, m)
    return int(base.sum()) == 0 and _vanishes_at_powers(base, m)


def verify_identity_suite(field: FiniteField, m: int) -> dict[str, bool]:
    """Run every exact identity check for one (field, m); all should pass.

    Raises BoundExceeded past the tensor budget before anything is
    counted, as the quotient check would raise after the others.
    """
    _require_order(field, m)
    _require_tensor_budget(m, field.p)
    out = {
        "gauss_conjugate_norm": verify_gauss_conjugate_norm(field, m),
        "gauss_opposite_product": verify_gauss_opposite_product(field, m),
        "jacobi_quotient": verify_jacobi_quotient(field, m),
        "row_sums": verify_row_sums(field, m),
        "class_difference_counts": verify_class_difference_counts(field, m),
        "class_difference_sums": verify_class_difference_sums(field, m),
    }
    if m % 2 == 0:
        out["jacobi_duplication"] = verify_jacobi_duplication(field, m)
    return out
