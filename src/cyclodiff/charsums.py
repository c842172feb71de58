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
of rows at a time, each caller with its own literal key.  The direct route
of diffsets counts differences with its own counter and shares nothing.
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
    if alpha.code == 0:
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

# Entries of an (m, m, p) tensor past which _pair_tensor raises BoundExceeded,
# and pairs of nonzero elements, (q - 1)^2, past which the gauss route does.
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


def _pair_tensor(field: FiniteField, m: int) -> np.ndarray:
    """T[i, j, w] = pairs of nonzero (alpha, beta) with dlogs i and j mod m
    and tr(alpha) + tr(beta) = w mod p.  It expands G(chi^s) G(chi^t) for
    every s, t at once: entry (i, j, w) counts zeta_m^(s i + t j) zeta_p^w.

    Raises BoundExceeded past _TENSOR_MAX entries.
    """
    p = field.p
    size = m * m * p
    if size > _TENSOR_MAX:
        raise BoundExceeded(f"{m}x{m}x{p} pair tensor past {_TENSOR_MAX}")
    t = _tables(field)
    cls = t.dlog % m
    # the trace sum first, as a temporary the class key is added into
    return _pair_counts(len(cls), len(cls), size, lambda r: (
        (t.trace[r, None] + t.trace[None, :]) % p
        + (cls[r, None] * m + cls[None, :]) * p)).reshape(m, m, p)


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

    Checked at the level of exponent counts: the pair tensor U of
    _pair_tensor, the literal expansion of G(chi^s) G(chi^t), must equal
    the tensor built from (a, gamma) with alpha = a gamma,
    beta = (1-a) gamma, plus the beta = -alpha diagonal.  Equality of the
    tensors implies G(chi^s)G(chi^t) = J(chi^s,chi^t) G(chi^(s+t)) for
    every s, t with s, t, s+t all nontrivial, since each instance is a
    fixed linear functional of the three tensors.  The complementary case
    J(chi^s, chi^-s) = -chi^s(-1) is checked per exponent.
    """
    _require_order(field, m)
    p = field.p
    t = _tables(field)
    f = (field.q - 1) // m
    cls = t.dlog % m
    a_cls, om_cls = _class_pairs(field, m)
    u = _pair_tensor(field, m)  # first: V has U's shape and budget
    v = _pair_counts(len(a_cls), len(cls), m * m * p, lambda r: (
        ((a_cls[r, None] + cls[None, :]) % m * m
         + (om_cls[r, None] + cls[None, :]) % m) * p
        + t.trace[None, :])).reshape(m, m, p)
    j = np.arange(m)
    v[j, (j + t.dlog_neg_one) % m, 0] += f  # the beta = -alpha pairs
    if not np.array_equal(u, v):
        return False
    # degenerate pairs: J(chi^s, chi^-s) = -chi^s(-1)
    base = np.bincount((a_cls - om_cls) % m, minlength=m)
    base[t.dlog_neg_one % m] += 1
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


def _twisted_class_sum_counts(s_mat: np.ndarray, c_gamma: int) -> np.ndarray:
    """Exponent counts of the sum over s of zeta^(-s c_gamma) S_s, where
    row s of s_mat holds the counts of S_s: out[j] is the sum over s of
    s_mat[s, j + s c_gamma mod m], one (m, m) gather."""
    m = len(s_mat)
    rows = np.arange(m)[:, None]
    cols = (np.arange(m)[None, :] + rows * c_gamma) % m
    return s_mat[rows, cols].sum(axis=0)


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
    s_mat = _decimate(a_cls, np.arange(m), m)
    s_mat[0, 0] += 1  # alpha = 1 term of the trivial power
    twisted = np.array([_twisted_class_sum_counts(s_mat, c_gamma)
                        for c_gamma in range(m)])
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
