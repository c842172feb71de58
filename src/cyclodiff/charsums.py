"""Multiplicative character sums over finite fields, computed exactly.

The public sums (Gauss, Jacobi, power-class sums and Jacobi row sums)
return cyclotomic integers.  The verify_* family at the bottom re-proves
the classical product and row-sum identities on a concrete field by
integer counting: both sides of an identity are expanded into vectors of
root-of-unity exponent counts, and the difference is reduced modulo the
relevant cyclotomic polynomial by cyclotomic.reduce_counts.  A passing
verdict is therefore a statement about integers, not floats.

Every class-sum and Jacobi-row count is a slice of the cyclotomic numbers
(i, j)_m, so all of them are counted from one place, _class_pairs.
"""

from __future__ import annotations

import functools
from math import gcd, lcm
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


def _decimate(vec: np.ndarray, s: int, m: int) -> np.ndarray:
    """out[i] = sum of vec[j] over j with s*j = i mod m (also for matrices)."""
    shape = (m,) + vec.shape[1:]
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, (s % m) * np.arange(m) % m, vec)
    return out


@functools.lru_cache(maxsize=8)
def _tables(field: FiniteField) -> SimpleNamespace:
    """Dlog and trace arrays over the q-1 nonzero codes, and the dlogs of
    alpha and 1 - alpha over the q-2 codes alpha outside {0, 1}."""
    q = field.q
    codes = np.arange(1, q, dtype=np.int64)
    dlog = field.log_table[1:q].astype(np.int64)
    if field.e == 1:
        trace_all = np.arange(q, dtype=np.int64)
    else:
        mat = field.codes_to_matrix(np.arange(q, dtype=np.int64))
        weights = np.array(field._basis_traces, dtype=np.int64)
        trace_all = (mat @ weights) % field.p
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


def _h_positions(field: FiniteField, m: int) -> np.ndarray:
    """Boolean mask over codes 1..q-1 marking the nonzero m-th powers."""
    return _tables(field).dlog % m == 0


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
    q, p = field.q, field.p
    t = _tables(field)
    # trivial power: counts of tr(alpha) over all of F_q reduce to zero
    tvec = np.bincount(t.trace_all, minlength=p)
    if np.any(reduce_counts(tvec, p)):
        return False
    if m == 1:
        return True
    ldiff = (t.dlog[:, None] - t.dlog[None, :]) % m
    wdiff = (t.trace[:, None] - t.trace[None, :]) % p
    base = np.bincount((ldiff * p + wdiff).ravel(),
                       minlength=m * p).reshape(m, p)
    for s in range(1, m):
        mat = _decimate(base, s, m)
        mat[0, 0] -= q
        if np.any(reduce_counts(reduce_counts(mat, p).T, m)):
            return False
    return True


def verify_gauss_opposite_product(field: FiniteField, m: int) -> bool:
    """G(chi^s) G(chi^-s) = chi^s(-1) q for every nontrivial power s."""
    q, p = field.q, field.p
    if m == 1:
        return True
    t = _tables(field)
    ldiff = (t.dlog[:, None] - t.dlog[None, :]) % m
    wsum = (t.trace[:, None] + t.trace[None, :]) % p
    base = np.bincount((ldiff * p + wsum).ravel(),
                       minlength=m * p).reshape(m, p)
    for s in range(1, m):
        mat = _decimate(base, s, m)
        mat[(s * t.dlog_neg_one) % m, 0] -= q
        if np.any(reduce_counts(reduce_counts(mat, p).T, m)):
            return False
    return True


def verify_jacobi_quotient(field: FiniteField, m: int) -> bool:
    """The Gauss-sum factorization of Jacobi sums, for every exponent pair.

    Checked at the level of exponent counts: the pair tensor
    U[j1,j2,w] = #{(alpha,beta) nonzero: dlogs j1,j2, tr(alpha+beta)=w}
    must equal the tensor built from (a, gamma) with alpha = a gamma,
    beta = (1-a) gamma, plus the beta = -alpha diagonal.  Equality of the
    tensors implies G(chi^s)G(chi^t) = J(chi^s,chi^t) G(chi^(s+t)) for
    every s, t with s, t, s+t all nontrivial, since each instance is a
    fixed linear functional of the three tensors.  The complementary case
    J(chi^s, chi^-s) = -chi^s(-1) is checked per exponent.
    """
    q, p = field.q, field.p
    if m == 1:
        return True
    t = _tables(field)
    f = (q - 1) // m
    cls = t.dlog % m
    sum_codes = field.codes_add(
        np.repeat(t.codes, q - 1), np.tile(t.codes, q - 1))
    w = t.trace_all[sum_codes]
    key = (np.repeat(cls, q - 1) * m + np.tile(cls, q - 1)) * p + w
    u = np.bincount(key, minlength=m * m * p)
    a_cls, om_cls = _class_pairs(field, m)
    j1 = (a_cls[:, None] + cls[None, :]) % m
    j2 = (om_cls[:, None] + cls[None, :]) % m
    key = (j1 * m + j2) * p + t.trace[None, :]
    v = np.bincount(key.ravel(), minlength=m * m * p).reshape(m, m, p)
    j = np.arange(m)
    v[j, (j + t.dlog_neg_one) % m, 0] += f  # the beta = -alpha pairs
    if not np.array_equal(u.reshape(m, m, p), v):
        return False
    # degenerate pairs: J(chi^s, chi^-s) = -chi^s(-1)
    base = np.bincount((a_cls - om_cls) % m, minlength=m)
    for s in range(1, m):
        vec = _decimate(base, s, m)
        vec[(s * t.dlog_neg_one) % m] += 1
        if np.any(reduce_counts(vec, m)):
            return False
    return True


def verify_jacobi_duplication(field: FiniteField, m: int) -> bool:
    """chi^s(4) J(chi^s,chi^s) = J(chi^s,chi^(m/2)) for even m, nontrivial s.

    An even m dividing q - 1 forces odd q, so 4 is nonzero.
    """
    _require_order(field, m)
    if m % 2:
        raise OddOrder(f"duplication needs an even order, got m={m}")
    four = field.element(1) + field.element(1)
    four = (four + four).code
    dlog4 = int(field.log_table[four])
    a, b = _class_pairs(field, m)
    half = m // 2
    for s in range(1, m):
        vec = np.bincount((s * (a + b + dlog4)) % m, minlength=m)
        vec -= np.bincount((s * a + half * b) % m, minlength=m)
        if np.any(reduce_counts(vec, m)):
            return False
    return True


def verify_row_sums(field: FiniteField, m: int) -> bool:
    """Row sums of Jacobi sums against 1 + m S_s, for every nontrivial s."""
    if m == 1:
        return True
    c_row = _row_sum_counts(field, m)
    s_base = _class_sum_counts(field, m)
    for s in range(1, m):
        vec = _decimate(c_row, s, m) - m * _decimate(s_base, s, m)
        vec[0] -= 1
        if np.any(reduce_counts(vec, m)):
            return False
    return True


def verify_class_difference_counts(field: FiniteField, m: int) -> bool:
    """The three counting facts behind the class sums, exhaustively in gamma.

    (i) ordered pairs of m-th powers at difference gamma are counted by
    the class of gamma alone, via (beta, delta) -> delta/beta;
    (ii) appending 0 to the class adds indicator corrections for gamma
    and -gamma; (iii) the character-averaged class sums recover m times
    the pair count plus one.
    """
    q = field.q
    t = _tables(field)
    f = (q - 1) // m
    mask = _h_positions(field, m)
    h_codes = t.codes[mask]
    diffs = field.codes_sub(np.repeat(h_codes, f), np.tile(h_codes, f))
    b = np.bincount(diffs, minlength=q)
    # a by class of gamma: alpha in H, alpha != 1, with 1-alpha in gamma H
    a_cls = _class_sum_counts(field, m)
    gamma_cls = t.dlog % m
    if not np.array_equal(b[1:], a_cls[gamma_cls]):
        return False
    # modified class: differences over (H u {0})^2
    m_codes = np.concatenate(([0], h_codes))
    diffs = field.codes_sub(np.repeat(m_codes, f + 1), np.tile(m_codes, f + 1))
    c = np.bincount(diffs, minlength=q)
    in_h = np.zeros(q, dtype=np.int64)
    in_h[h_codes] = 1
    neg = field.codes_sub(np.zeros(q - 1, dtype=np.int64), t.codes)
    expected = b[1:] + in_h[t.codes] + in_h[neg]
    if not np.array_equal(c[1:], expected):
        return False
    # character-averaged recovery of the pair counts, one gamma class each
    s_mat = np.array([_decimate(a_cls, s, m) for s in range(m)])
    s_mat[0, 0] += 1  # alpha = 1 term of the trivial power
    for c_gamma in range(m):
        vec = np.zeros(m, dtype=np.int64)
        for s in range(m):
            np.add.at(vec, (np.arange(m) - s * c_gamma) % m, s_mat[s])
        vec[0] -= m * int(a_cls[c_gamma]) + 1
        if np.any(reduce_counts(vec, m)):
            return False
    return True


def verify_class_difference_sums(field: FiniteField, m: int) -> bool:
    """Sum of chi^s(beta-gamma) over pairs from the power class is f S_s."""
    q = field.q
    t = _tables(field)
    f = (q - 1) // m
    mask = _h_positions(field, m)
    h_codes = t.codes[mask]
    diffs = field.codes_sub(np.repeat(h_codes, f), np.tile(h_codes, f))
    diffs = diffs[diffs != 0]
    w = np.bincount(field.log_table[diffs].astype(np.int64) % m, minlength=m)
    s_base = _class_sum_counts(field, m)
    # the beta = gamma diagonal and f times the alpha = 1 term of S_s are
    # both f when the power is trivial and 0 otherwise, so they cancel
    for s in range(m):
        vec = _decimate(w, s, m) - f * _decimate(s_base, s, m)
        if np.any(reduce_counts(vec, m)):
            return False
    return True


def verify_identity_suite(field: FiniteField, m: int) -> dict[str, bool]:
    """Run every exact identity check for one (field, m); all should pass."""
    _require_order(field, m)
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
