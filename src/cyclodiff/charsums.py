"""Multiplicative character sums over finite fields, computed exactly.

The public sums (Gauss, Jacobi, power-class sums and Jacobi row sums)
return cyclotomic integers.  The verify_* family at the bottom re-proves
the classical product and row-sum identities on a concrete field by
integer counting: both sides of an identity are expanded into vectors of
root-of-unity exponent counts, and the difference is reduced modulo the
relevant cyclotomic polynomial by cyclotomic.reduce_counts.  A passing
verdict is therefore a statement about integers, not floats.

Every class-sum and Jacobi-row count is a slice of the cyclotomic numbers
(i, j)_m, counted in one place, _class_pairs.  Every condition on all
nontrivial powers chi^s is one base count vector and one exact sweep,
_vanishes_at_powers, which alone picks the powers (one per Galois orbit);
the routes of diffsets and the identity suite all test through it.  Every
histogram over pairs of field elements is counted by _pair_counts, a block
of rows at a time, each caller with its own literal key.  The products
G(chi^s) G(chi^t) expand into the (m, m, p) pair tensor of traces by
class, which is never built: _class_pair_sums counts one (m, p) slab of it
from the dlog-ordered trace grid, _class_grid.  The gauss route of
diffsets reads one such slab (through _gauss_slices), and the quotient
identity compares the tensor with its Jacobi expansion one class slab at a
time.  The direct route of diffsets counts differences with its own
counter and shares nothing.
"""

from __future__ import annotations

import functools
from math import lcm
from types import SimpleNamespace

import numpy as np

from .config import current_limits
# reduction_rows is unused here but stays importable from this module:
# bench/test_bench.py checks that the traced run restores it on charsums.
from .cyclotomic import CycInt, reduce_counts, reduction_rows  # noqa: F401
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
# for zeta_m^j zeta_p^w, reduced in zeta_p and then in zeta_m.

# Counts per decimated block in _vanishes_at_powers, so a sweep over many
# powers never holds the whole (powers, m, p) stack.
_SWEEP_BLOCK = 1 << 20

# Pairs per block of rows in _pair_counts.
_PAIR_BLOCK = 1 << 18

# Bins of the m class slabs, m m p, past which the Gauss-product paths raise
# BoundExceeded, and pairs of nonzero elements, (q - 1)^2, past which the
# gauss route does.
_TENSOR_MAX = 3 * 10 ** 7
_PAIRS_MAX = 3 * 10 ** 7


def _decimate(vec: np.ndarray, s, m: int) -> np.ndarray:
    """out[i] = sum of vec[j] over j with s*j = i mod m (also for matrices).

    s may be a 1-D array of powers; out then stacks one decimation per
    power along a new leading axis.  The sums run over Python ints when
    int64 could overflow, so every entry is exact.
    """
    powers = np.atleast_1d(np.asarray(s, dtype=np.int64)) % m
    top = max(int(vec.max(initial=0)), -int(vec.min(initial=0)))
    exact = vec.dtype != object and top * m < 2 ** 63
    out = np.zeros((len(powers),) + vec.shape,
                   dtype=np.int64 if exact else object)
    np.add.at(out, (np.arange(len(powers))[:, None],
                    powers[:, None] * np.arange(m) % m), vec)
    return out if np.ndim(s) else out[0]


def _vanishes(counts: np.ndarray, m: int, p: int = 0) -> bool:
    """Whether each length-m count vector along the last axis is zero in
    Z[zeta_m]; with p > 0, whether each (m, p) count matrix in the last two
    axes is zero in Z[zeta_m, zeta_p], reduced in zeta_p and then in zeta_m."""
    if p:
        counts = reduce_counts(counts, p).swapaxes(-1, -2)
    return not np.any(reduce_counts(counts, m))


def _vanishes_at_powers(base: np.ndarray, m: int, p: int = 0) -> bool:
    """Whether _decimate(base, s, m) is zero for every nontrivial power s.

    base is a count vector, or an (m, p) count matrix when p > 0 (see
    _vanishes); decimation is linear, so callers fold their targets in.
    Only the powers d | m, d < m are tested, one per Galois orbit.  For an
    integer base, decimating by k s is decimating by s and then applying
    sigma_k: zeta_m -> zeta_m^k, which for a unit k mod m is an automorphism
    fixing zeta_p, as gcd(m, p) = 1 whenever m | q - 1.  Every nontrivial s
    is such a k times d = gcd(s, m), so d decides its whole orbit.  The
    powers are decimated _SWEEP_BLOCK counts at a time, one reduction each.
    """
    powers = np.array([d for d in range(1, m) if m % d == 0], dtype=np.int64)
    step = max(1, _SWEEP_BLOCK // base.size)
    return all(_vanishes(_decimate(base, powers[lo:lo + step], m), m, p)
               for lo in range(0, len(powers), step))


@functools.lru_cache(maxsize=8)
def _tables(field: FiniteField) -> SimpleNamespace:
    """Dlog and trace arrays over the q-1 nonzero codes, and the dlogs of
    alpha and 1 - alpha over the q-2 codes alpha outside {0, 1}."""
    q = field.q
    codes = np.arange(1, q, dtype=np.int64)
    dlog = field.log_table[1:q].astype(np.int64)
    trace_all = field.codes_trace(np.arange(q, dtype=np.int64))
    one_minus = field.codes_sub(np.ones_like(codes), codes)
    inner = one_minus != 0
    neg_one = int(field.codes_sub(np.zeros(1, dtype=np.int64),
                                  np.ones(1, dtype=np.int64))[0])
    return SimpleNamespace(
        codes=codes,
        dlog=dlog,
        trace=trace_all[1:q],
        trace_all=trace_all,
        pair_dlog=dlog[inner],
        pair_dlog_om=field.log_table[one_minus[inner]].astype(np.int64),
        dlog_neg_one=int(field.log_table[neg_one]),
    )


def _class_pairs(field: FiniteField, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(dlog(alpha) mod m, dlog(1 - alpha) mod m) for each alpha outside {0, 1}.

    The number of alphas at the pair (i, j) is the cyclotomic number
    (i, j)_m.  The pairs take O(q) memory whatever m is, and the count
    vectors below never build the (m, m) matrix of those numbers,
    because m can be as large as q - 1.
    """
    t = _tables(field)
    return t.pair_dlog % m, t.pair_dlog_om % m


def _class_sum_counts(field: FiniteField, m: int) -> np.ndarray:
    """Exponent counts of S_1 without its alpha = 1 term: (0, j)_m over j."""
    a, b = _class_pairs(field, m)
    return np.bincount(b[a == 0], minlength=m)


def _row_sum_counts(field: FiniteField, m: int) -> np.ndarray:
    """Exponent counts of the Jacobi row sum at s = 1.

    The inner sum over t of chi^t(1 - alpha) is m - 1 when 1 - alpha is
    an m-th power and -1 otherwise, so the row sum collapses to
    m (i, 0)_m minus the number of alphas in class i, over i.
    """
    a, b = _class_pairs(field, m)
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
    """grid[i, k] = tr(g^(i + m k)): row i holds the traces of class i, in
    dlog order, copied so that the counts gather contiguous rows."""
    return _tables(field).trace_all[field.exp_table].reshape(-1, m).T.copy()


def _class_pair_sums(grid: np.ndarray, left: np.ndarray, p: int) -> np.ndarray:
    """out[j, w] = #{alpha in class left[j], beta in class j :
    tr alpha + tr beta = w}, one (m, p) slab over (q - 1)^2 / m pairs."""
    m, f = grid.shape
    lhs = grid[left].ravel()
    row_cls = np.repeat(np.arange(m), f)
    return _pair_counts(m * f, f, m * p, lambda r: (
        (lhs[r, None] + grid[row_cls[r]]) % p
        + row_cls[r, None] * p)).reshape(m, p)


def _gauss_slices(field: FiniteField, m: int):
    """What the gauss route reads of the pair tensor
    T[i, j, w] = #{nonzero alpha, beta in classes i, j : tr alpha + tr beta = w},
    counted in O(m p + block) memory:

    a[i, w]  = #{alpha != 0 : dlog alpha = i mod m, tr alpha = w};
    m1[j]    = T[j - dlog(-1), j], one _class_pair_sums slab;
    m2[j]    = sum over i of T[i, j] = h * a[j], the cyclic convolution over
               traces with the trace histogram h of the nonzero elements.

    h takes at most two values on a field, but nothing here assumes it:
    m2 is c sum(a[j]) for the commonest value c of h, plus one roll of a
    for each trace where h differs from c.  Raises BoundExceeded where
    verify_jacobi_quotient does, so both skip the same instances.
    """
    p = field.p
    _require_tensor_budget(m, p)
    t = _tables(field)
    a = np.bincount(t.dlog % m * p + t.trace, minlength=m * p).reshape(m, p)
    m1 = _class_pair_sums(_class_grid(field, m),
                          (np.arange(m) - t.dlog_neg_one) % m, p)
    h = a.sum(axis=0)
    values, counts = np.unique(h, return_counts=True)
    c = int(values[np.argmax(counts)])
    m2 = np.repeat(c * a.sum(axis=1, keepdims=True), p, axis=1)
    for u in np.flatnonzero(h != c):
        m2 += (int(h[u]) - c) * np.roll(a, u, axis=1)
    return a, m1, m2


def _quotient_slabs(field: FiniteField, m: int):
    """(U[i], V[i]) for each class i, two (m, p) slabs of the quotient
    identity's tensors.  U[i] = T[i] pairs alpha in class i with every
    nonzero beta; V[i] pairs each a outside {0, 1} with the gamma in class
    i - cls(a), keyed by cls((1 - a) gamma) and tr gamma, plus the f pairs
    beta = -alpha at (i + dlog(-1), 0).  Raises BoundExceeded first."""
    p = field.p
    _require_tensor_budget(m, p)
    t = _tables(field)
    f = (field.q - 1) // m
    grid = _class_grid(field, m)
    a_cls, om_cls = _class_pairs(field, m)
    shift = om_cls - a_cls  # cls((1 - a) gamma) - cls(a gamma)
    for i in range(m):
        u = _class_pair_sums(grid, np.full(m, i), p)
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
    t = _tables(field)
    exps = ((s * t.dlog % m) * (n // m) + t.trace * (n // p)) % n
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
    vec = _decimate(_class_sum_counts(field, m), s, m)
    if s % m == 0:
        vec[0] += 1  # alpha = 1 lies in the class; chi^s(0) = 1 there
    return CharSumValue(CycInt.from_counts(vec), (field.q, m, s % m))


def jacobi_row_sum(chi: Character, s: int) -> CharSumValue:
    """Sum of jacobi_sum(s, t) over t = 1..m-1, for a nontrivial power s."""
    field, m = chi.field, chi.m
    if s % m == 0:
        raise TrivialPower(f"s={s} is a multiple of m={m}")
    vec = _decimate(_row_sum_counts(field, m), s, m)
    return CharSumValue(CycInt.from_counts(vec), (field.q, m, s % m))


# -- identity verification by exact counting -------------------------------------


def verify_gauss_conjugate_norm(field: FiniteField, m: int) -> bool:
    """G(chi^s) times its complex conjugate image equals q for every
    nontrivial power s, and the trivial-power Gauss sum vanishes."""
    _require_order(field, m)
    q, p = field.q, field.p
    t = _tables(field)
    # trivial power: counts of tr(alpha) over all of F_q reduce to zero
    if not _vanishes(np.bincount(t.trace_all, minlength=p), p):
        return False
    base = _pair_counts(q - 1, q - 1, m * p, lambda r: (
        (t.dlog[r, None] - t.dlog[None, :]) % m * p
        + (t.trace[r, None] - t.trace[None, :]) % p)).reshape(m, p)
    base[0, 0] -= q
    return _vanishes_at_powers(base, m, p)


def verify_gauss_opposite_product(field: FiniteField, m: int) -> bool:
    """G(chi^s) G(chi^-s) = chi^s(-1) q for every nontrivial power s."""
    _require_order(field, m)
    q, p = field.q, field.p
    t = _tables(field)
    base = _pair_counts(q - 1, q - 1, m * p, lambda r: (
        (t.dlog[r, None] - t.dlog[None, :]) % m * p
        + (t.trace[r, None] + t.trace[None, :]) % p)).reshape(m, p)
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


def _twisted_class_sums(a_cls: np.ndarray) -> np.ndarray:
    """out[c, j]: exponent counts of the sum over s of zeta^(-s c) S_s, where
    S_s has the counts _decimate(a_cls, s, m) plus 1 at exponent 0 when
    s = 0 (its alpha = 1 term).  Decimating by s moves exponent d to s d,
    so out[c] = a_cls[(d + c) mod m] @ hits with hits[d, j] =
    #{s : s d = j mod m}, which is gcd(d, m) where that divides j and 0
    elsewhere; entries stay below q m^2, exact in int64.
    """
    m = len(a_cls)
    k = np.arange(m)
    g = np.gcd(k, m)[:, None]
    out = a_cls[(k[:, None] + k) % m] @ np.where(k % g == 0, g, 0)
    out[:, 0] += 1
    return out


def verify_class_difference_counts(field: FiniteField, m: int) -> bool:
    """The three counting facts behind the class sums, exhaustively in gamma.

    (i) ordered pairs of m-th powers at difference gamma are counted by
    the class of gamma alone, via (beta, delta) -> delta/beta;
    (ii) appending 0 to the class adds indicator corrections for gamma
    and -gamma; (iii) the character-averaged class sums recover m times
    the pair count plus one.
    """
    _require_order(field, m)
    q = field.q
    t = _tables(field)
    h_codes = t.codes[t.dlog % m == 0]  # the nonzero m-th powers
    b = field.codes_difference_counts(h_codes)
    # a by class of gamma: alpha in H, alpha != 1, with 1-alpha in gamma H
    a_cls = _class_sum_counts(field, m)
    if not np.array_equal(b[1:], a_cls[t.dlog % m]):
        return False
    # modified class: differences over (H u {0})^2
    c = field.codes_difference_counts(np.concatenate(([0], h_codes)))
    in_h = np.zeros(q, dtype=np.int64)
    in_h[h_codes] = 1
    neg = field.codes_sub(np.zeros(q - 1, dtype=np.int64), t.codes)
    expected = b[1:] + in_h[t.codes] + in_h[neg]
    if not np.array_equal(c[1:], expected):
        return False
    # character-averaged recovery of the pair counts, one gamma class a row
    twisted = _twisted_class_sums(a_cls)
    twisted[:, 0] -= m * a_cls + 1
    return _vanishes(twisted, m)


def verify_class_difference_sums(field: FiniteField, m: int) -> bool:
    """Sum of chi^s(beta-gamma) over pairs from the power class is f S_s."""
    _require_order(field, m)
    t = _tables(field)
    f = (field.q - 1) // m
    counts = field.codes_difference_counts(t.codes[t.dlog % m == 0])
    w = np.zeros(m, dtype=np.int64)
    np.add.at(w, t.dlog % m, counts[1:])  # nonzero differences by class
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
