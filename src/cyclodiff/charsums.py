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
each caller with its own literal key.  The products
G(chi^s) G(chi^t) expand into the (m, m, p) pair tensor of traces by
class, which is never built; its users count (m, p) slabs of it from the
trace grid, _class_grid, a reshape of tr(g^k) whose row i holds class i.
The gauss route of diffsets reads the diagonal slab T[j - dlog(-1), j]
and the per-class trace histogram (through _gauss_slices), counted once
per (field, m) and, where the symmetry of T allows, over half the
diagonal; the tensor's marginals follow from the histogram.  The
quotient identity compares the tensor with its Jacobi expansion one
class slab at a time.  The direct route of diffsets counts differences
with its own counter and shares nothing.
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
# gauss route does.
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
    counted in O(m p + block) memory:

    a[i, w]  = #{alpha != 0 : dlog alpha = i mod m, tr alpha = w};
    m1[j]    = T[j - dlog(-1), j], the diagonal slab.

    The marginals of T need no count: they are (q/p) f - a (see
    diffsets.check_gauss).  Raises BoundExceeded where
    verify_jacobi_quotient does, so both skip the same instances; the
    budget is checked on every call, before the cache of _gauss_counts is
    read, so a lowered budget raises even for a (field, m) counted before.
    Both arrays are shared by every caller and read-only.
    """
    _require_tensor_budget(m, field.p)
    return _gauss_counts(field, m)


# At most 4 entries of two m p int64 arrays: 22.4 MB at the route's caps of
# m <= 64 and (q - 1)^2 <= 3e7 (p <= 5478), a few kB in practice.  The plain
# and the modified check of one (field, m) read one entry.
@functools.lru_cache(maxsize=4)
def _gauss_counts(field: FiniteField, m: int):
    """(a, m1) of _gauss_slices, counted once per (field, m).

    m1 is counted over half the diagonal when it can be.  With
    L = dlog(-1), 2 L = 0 mod m (2 L = q - 1 for odd q, L = 0 for even q),
    and T is symmetric in its class axes, so
    m1[j - L] = T[j - 2 L, j - L] = T[j, j - L] = m1[j].
    When L != 0 mod m, that is m even and f = (q - 1)/m odd, L = m/2 mod m:
    the rows j < m/2 are counted and tiled.  Otherwise all m rows are.
    """
    p, f = field.p, (field.q - 1) // m
    t = _tables(field)
    a = np.bincount(np.arange(field.q - 1) % m * p + t.trace,
                    minlength=m * p).reshape(m, p)
    grid = _class_grid(field, m)
    lhs = np.roll(grid, t.dlog_neg_one, axis=0)  # lhs[j] = grid[j - L]
    rows = m // 2 if t.dlog_neg_one % m else m
    # classes per _pair_counts call: about one block of pairs, and at most
    # max(1, m // 2) of 2 p bins each, so no histogram passes max(m, 2) p
    # bins; past one block per class, _pair_counts splits a class's rows
    per = min(max(1, m // 2), max(1, _PAIR_BLOCK // (f * f)))
    parts = []
    for j0 in range(0, rows, per):
        cls = slice(j0, min(j0 + per, rows))
        left = lhs[cls]
        # class j - j0 keys its trace sums from 2 p (j - j0): each sum
        # tr alpha + tr beta lies in [0, 2 p - 2], so no modulo is taken
        right = grid[cls] + 2 * p * np.arange(len(left))[:, None]
        h = _pair_counts(f, len(left) * f, 2 * p * len(left), lambda r: (
            left[:, r, None] + right[:, None, :])).reshape(-1, 2, p)
        # fold: a sum w + p reduces to w mod p, so bins w and w + p merge
        parts.append(h[:, 0] + h[:, 1])
    m1 = np.concatenate(parts)
    if rows < m:
        m1 = np.tile(m1, (2, 1))
    a.flags.writeable = m1.flags.writeable = False
    return a, m1


def _quotient_slabs(field: FiniteField, m: int):
    """(U[i], V[i]) for each class i, two (m, p) slabs of the quotient
    identity's tensors.  U[i] = T[i] pairs alpha in class i with every
    nonzero beta, keyed by the class of beta and tr alpha + tr beta; V[i]
    pairs each a outside {0, 1} with the gamma in class i - cls(a), keyed
    by cls((1 - a) gamma) and tr gamma, plus the f pairs beta = -alpha at
    (i + dlog(-1), 0).  Raises BoundExceeded first."""
    p = field.p
    _require_tensor_budget(m, p)
    t = _tables(field)
    f = (field.q - 1) // m
    grid = _class_grid(field, m)
    every = grid.ravel()  # every nonzero beta, class by class
    beta_cls = np.repeat(np.arange(m) * p, f)
    a_cls, om_cls = _class_pairs(field, m)
    shift = om_cls - a_cls  # cls((1 - a) gamma) - cls(a gamma)
    for i in range(m):
        alpha = grid[i]
        u = _pair_counts(f, m * f, m * p, lambda r: (
            (alpha[r, None] + every) % p + beta_cls)).reshape(m, p)
        v = _pair_counts(len(a_cls), f, m * p, lambda r: (
            (shift[r, None] + i) % m * p
            + grid[(i - a_cls[r]) % m])).reshape(m, p)
        v[(i + t.dlog_neg_one) % m, 0] += f
        yield u, v


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
    nontrivial power s, and the trivial-power Gauss sum vanishes."""
    _require_order(field, m)
    q, p = field.q, field.p
    k, w = np.arange(q - 1), _tables(field).trace
    # trivial power: over the prime p, the sum of zeta_p^tr(alpha) over
    # the whole field, alpha = 0 at tr 0 included, vanishes exactly when
    # the trace counts are constant
    counts = np.bincount(w, minlength=p)
    counts[0] += 1
    if not _vanishes_at_powers(counts, p):
        return False
    base = _pair_counts(q - 1, q - 1, m * p, lambda r: (
        (k[r, None] - k) % m * p + (w[r, None] - w) % p)).reshape(m, p)
    base[0, 0] -= q
    return _vanishes_at_powers(base, m, p)


def verify_gauss_opposite_product(field: FiniteField, m: int) -> bool:
    """G(chi^s) G(chi^-s) = chi^s(-1) q for every nontrivial power s."""
    _require_order(field, m)
    q, p = field.q, field.p
    t = _tables(field)
    k, w = np.arange(q - 1), t.trace
    base = _pair_counts(q - 1, q - 1, m * p, lambda r: (
        (k[r, None] - k) % m * p + (w[r, None] + w) % p)).reshape(m, p)
    base[t.dlog_neg_one % m, 0] -= q
    return _vanishes_at_powers(base, m, p)


def verify_jacobi_quotient(field: FiniteField, m: int) -> bool:
    """The Gauss-sum factorization of Jacobi sums, for every exponent pair.

    Checked at the level of exponent counts, one class slab at a time (see
    _quotient_slabs): the pair tensor U, the literal expansion of
    G(chi^s) G(chi^t), must equal the tensor V built from (a, gamma) with
    alpha = a gamma, beta = (1-a) gamma, plus the beta = -alpha diagonal.
    Equality of the tensors implies G(chi^s)G(chi^t) = J(chi^s,chi^t)
    G(chi^(s+t)) for every s, t with s, t, s+t all nontrivial, since each
    instance is a fixed linear functional of the three tensors.  The
    complementary case J(chi^s, chi^-s) = -chi^s(-1) is checked per
    exponent.  Raises BoundExceeded past the tensor budget.
    """
    _require_order(field, m)
    if not all(np.array_equal(u, v) for u, v in _quotient_slabs(field, m)):
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
    h_codes = exp[::m]  # the nonzero m-th powers
    b = field.codes_difference_counts(h_codes)[exp]
    # by class of gamma: alpha in H, alpha != 1, with 1 - alpha in gamma H
    if not np.array_equal(b, np.tile(_class_sum_counts(field, m), f)):
        return False
    # modified class: differences over (H u {0})^2
    c = field.codes_difference_counts(np.concatenate(([0], h_codes)))[exp]
    k = np.arange(field.q - 1)
    expected = (b + (k % m == 0)
                + ((k + _tables(field).dlog_neg_one) % m == 0))
    return bool(np.array_equal(c, expected))


def verify_class_difference_sums(field: FiniteField, m: int) -> bool:
    """Sum of chi^s(beta-gamma) over pairs from the power class is f S_s."""
    _require_order(field, m)
    exp = field.exp_table
    f = (field.q - 1) // m
    counts = field.codes_difference_counts(exp[::m])[exp]
    w = counts.reshape(f, m).sum(axis=0)  # nonzero differences by class
    # the beta = gamma diagonal and f times the alpha = 1 term of S_s are
    # both f when the power is trivial and 0 otherwise, so they cancel;
    # decimating by s = 0 leaves only the total, at exponent 0
    base = w - f * _class_sum_counts(field, m)
    return int(base.sum()) == 0 and _vanishes_at_powers(base, m)


def verify_identity_suite(field: FiniteField, m: int) -> dict[str, bool]:
    """Run every exact identity check for one (field, m); all should pass."""
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
