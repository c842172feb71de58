"""Power classes of finite fields as candidate difference sets.

H is the multiplicative subgroup of nonzero m-th powers in F_q, and M is
H with zero appended.  Four routes decide whether such a class is a
difference set: literal difference counting, class sums, Jacobi row
sums, and a Gauss-sum product relation.  The class-sum and Jacobi routes
count from the same class pairs (charsums._class_pairs); the direct
route shares nothing with them, and the Gauss route builds its own
trace tensors.  All four work in exact integer arithmetic; the scanner
sweeps prime powers and flags any nontrivial hit that no known family
explains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt
from typing import Optional

import numpy as np

from .config import current_limits
from .errors import BoundExceeded, ZeroGamma, ZeroMultiplier
from .ff import FFElement, FiniteField, is_prime, make_field
from .charsums import (_class_sum_counts, _decimate, _require_order,
                       _row_sum_counts, _tables)
from .cyclotomic import reduce_counts

VERDICT_DS = "difference_set"
VERDICT_NOT = "not_difference_set"
VERDICT_INFEASIBLE = "infeasible_params"


@dataclass(frozen=True)
class DSParams:
    """(v, k, lambda) data for a power class, from q = m f + 1."""

    v: int
    k: int
    lam: Optional[int]
    n: Optional[int]
    m: int
    f: int
    modified: bool

    @classmethod
    def from_instance(cls, q: int, m: int, modified: bool) -> "DSParams":
        f = (q - 1) // m
        k = f + 1 if modified else f
        # k(k-1) = lam(v-1) forces m | f+1 or m | f-1 respectively
        num = f + 1 if modified else f - 1
        if num % m == 0:
            lam = k * (k - 1) // (q - 1)
            n = k - lam
        else:
            lam = None
            n = None
        return cls(q, k, lam, n, m, f, modified)

    @property
    def feasible(self) -> bool:
        return self.lam is not None

    @property
    def trivial(self) -> bool:
        """A difference set of order n <= 1 carries no design information."""
        return self.n is not None and self.n <= 1


@dataclass(frozen=True)
class DSReport:
    params: DSParams
    verdict: str
    methods_agreeing: tuple
    witness: Optional[tuple] = None  # (gamma code, observed count)
    family: Optional[str] = None


class CyclotomicClass:
    """H_{q,m} or M_{q,m} with elements kept as a sorted code array."""

    __slots__ = ("field", "m", "modified", "codes")

    def __init__(self, field: FiniteField, m: int, modified: bool,
                 codes: np.ndarray):
        self.field = field
        self.m = m
        self.modified = modified
        self.codes = codes

    def __len__(self):
        return len(self.codes)

    def __contains__(self, x):
        code = x.code if isinstance(x, FFElement) else int(x)
        i = np.searchsorted(self.codes, code)
        return i < len(self.codes) and self.codes[i] == code

    def elements(self):
        return [self.field.element(int(c)) for c in self.codes]

    def __repr__(self):
        tag = "M" if self.modified else "H"
        return f"{tag}({self.field.q},{self.m}) size={len(self.codes)}"


def cyclotomic_class(field: FiniteField, m: int,
                     modified: bool = False) -> CyclotomicClass:
    """The nonzero m-th powers of F_q; modified appends zero."""
    _require_order(field, m)
    codes = np.sort(field.exp_table[::m].copy())
    if modified:
        codes = np.concatenate(([0], codes))
    return CyclotomicClass(field, m, modified, codes)


def _difference_count_vector(field: FiniteField, codes: np.ndarray,
                             chunk: int = 512) -> np.ndarray:
    """counts[c] = ordered pairs in codes x codes whose difference has code c."""
    q = field.q
    counts = np.zeros(q, dtype=np.int64)
    k = len(codes)
    for lo in range(0, k, chunk):
        block = codes[lo:lo + chunk]
        diffs = field.codes_sub(np.repeat(block, k), np.tile(codes, len(block)))
        counts += np.bincount(diffs, minlength=q)
    return counts


def check_direct(field: FiniteField, cls: CyclotomicClass) -> DSReport:
    """Count every difference literally; the oracle the other routes answer to."""
    params = DSParams.from_instance(field.q, cls.m, cls.modified)
    if not params.feasible:
        return DSReport(params, VERDICT_INFEASIBLE, ("direct",))
    counts = _difference_count_vector(field, cls.codes)[1:]
    deviant = np.flatnonzero(counts != params.lam)
    if len(deviant) == 0:
        family = known_family_match(field.q, cls.m, cls.modified)
        return DSReport(params, VERDICT_DS, ("direct",), family=family)
    gamma = int(deviant[0]) + 1
    return DSReport(params, VERDICT_NOT, ("direct",),
                    witness=(gamma, int(counts[gamma - 1])))


def _orbit_reps(m: int):
    """One exponent per orbit of (Z/m)* acting on nontrivial powers.

    The checked conditions are Galois-equivariant: the value at exponent
    k*s is the zeta_m -> zeta_m^k image of the value at s, and each
    target transforms the same way, so one representative (a divisor of
    m) decides the whole orbit.
    """
    return [d for d in range(1, m) if m % d == 0]


def check_charsum(field: FiniteField, m: int, modified: bool) -> str:
    """Difference set iff every nontrivial class sum hits its target value
    (0 unmodified, -1 - chi^s(-1) modified)."""
    params = DSParams.from_instance(field.q, m, modified)
    if not params.feasible:
        return VERDICT_INFEASIBLE
    base = _class_sum_counts(field, m)
    lneg = _tables(field).dlog_neg_one
    for s in _orbit_reps(m):
        vec = _decimate(base, s, m)
        if modified:
            vec[0] += 1
            vec[(s * lneg) % m] += 1
        if np.any(reduce_counts(vec, m)):
            return VERDICT_NOT
    return VERDICT_DS


def check_jacobi(field: FiniteField, m: int, modified: bool) -> str:
    """Difference set iff every Jacobi row sum is 1 (unmodified) or
    1 - m - m chi^s(-1) (modified), computed by direct aggregation."""
    params = DSParams.from_instance(field.q, m, modified)
    if not params.feasible:
        return VERDICT_INFEASIBLE
    base = _row_sum_counts(field, m)
    lneg = _tables(field).dlog_neg_one
    for s in _orbit_reps(m):
        vec = _decimate(base, s, m)
        vec[0] -= 1
        if modified:
            vec[0] += m
            vec[(s * lneg) % m] += m
        if np.any(reduce_counts(vec, m)):
            return VERDICT_NOT
    return VERDICT_DS


def check_gauss(field: FiniteField, m: int, modified: bool) -> str:
    """Difference set iff the Gauss-sum convolution relation holds:
    sum over t != s of chi^t(-1) G_t G_{s-t} equals (1 + chi^s(-1)) G_s,
    times (1 - m) in the modified case, for every nontrivial s.

    Works on exponent-count tensors, so nothing is ever rounded; raises
    BoundExceeded when the tensors would not fit the configured budget.
    """
    params = DSParams.from_instance(field.q, m, modified)
    if not params.feasible:
        return VERDICT_INFEASIBLE
    q, p = field.q, field.p
    limits = current_limits()
    if m > limits.gauss_check_m_max or m * m * p > 3 * 10 ** 7 \
            or (q - 1) ** 2 > 3 * 10 ** 7:
        raise BoundExceeded(
            f"gauss route needs an {m}x{m}x{p} count tensor for q={q}")
    if m == 1:
        return VERDICT_DS
    t = _tables(field)
    cls = t.dlog % m
    wsum = (t.trace[:, None] + t.trace[None, :]) % p
    key = (cls[:, None] * m + cls[None, :]) * p + wsum
    tensor = np.bincount(key.ravel(), minlength=m * m * p).reshape(m, m, p)
    idx = np.arange(m)
    lneg = t.dlog_neg_one
    m1 = tensor[(idx - lneg) % m, idx, :]          # j1 = j2 - dlog(-1)
    m2 = tensor.sum(axis=0)                        # marginal over j1
    m3 = tensor.sum(axis=1)[(idx - lneg) % m, :]   # marginal, re-centred
    gvec = np.zeros((m, p), dtype=np.int64)
    np.add.at(gvec, (cls, t.trace), 1)
    scale = 1 - m if modified else 1
    for s in _orbit_reps(m):
        lhs = m * _decimate(m1, s, m) - _decimate(m2, s, m) - _decimate(m3, s, m)
        gs = _decimate(gvec, s, m)
        rhs = gs + np.roll(gs, (s * lneg) % m, axis=0)
        if np.any(reduce_counts(reduce_counts(lhs - scale * rhs, p).T, m)):
            return VERDICT_NOT
    return VERDICT_DS


def difference_counts(field: FiniteField, m: int, gamma) -> tuple[int, int, int]:
    """(a, b, c) for one gamma: a = members alpha of H with 1 - alpha in
    gamma H; b, c = ordered pairs of H (resp. M) at difference gamma."""
    code = gamma.code if isinstance(gamma, FFElement) else int(gamma)
    if code == 0:
        raise ZeroGamma("gamma must be nonzero")
    h = cyclotomic_class(field, m, False)
    a = int(_class_sum_counts(field, m)[int(field.log_table[code]) % m])
    b_vec = _difference_count_vector(field, h.codes)
    b = int(b_vec[code])
    mod = cyclotomic_class(field, m, True)
    c = int(_difference_count_vector(field, mod.codes)[code])
    return a, b, c


def known_family_match(q: int, m: int, modified: bool) -> Optional[str]:
    """Tag for the classically known difference-set families, else None."""
    if m == 2 and q % 4 == 3:
        return "paley_quadratic"
    if (q, m, modified) == (16, 3, True):
        return "M16_3"
    if m == 4 and is_prime(q):
        t2, rem = divmod(q - 1 if not modified else q - 9, 4)
        if rem == 0 and t2 >= 0:
            t = isqrt(t2)
            if t * t == t2 and t % 2 == 1:
                return "modified_quartic" if modified else "chowla_quartic"
    if m == 8 and is_prime(q):
        if not modified:
            u2, ru = divmod(q - 1, 8)
            v2, rv = divmod(q - 9, 64)
            if ru == 0 and rv == 0 and u2 >= 0 and v2 >= 0:
                u, v = isqrt(u2), isqrt(v2)
                if u * u == u2 and v * v == v2 and u % 2 == 1 and v % 2 == 1:
                    return "lehmer_octic"
        else:
            u2, ru = divmod(q - 49, 8)
            v2, rv = divmod(q - 441, 64)
            if ru == 0 and rv == 0 and u2 >= 0 and v2 >= 0:
                u, v = isqrt(u2), isqrt(v2)
                if u * u == u2 and v * v == v2 and u % 2 == 1 and v % 2 == 0:
                    return "modified_octic"
    return None


def multiplier_check(field: FiniteField, cls: CyclotomicClass, t: int) -> bool:
    """Whether multiplication by the field image of t maps the class to a
    translate of itself."""
    p, q = field.p, field.q
    if t % p == 0:
        raise ZeroMultiplier(f"t={t} vanishes in characteristic {p}")
    tcode = t % p
    logs = field.log_table
    shift = int(logs[tcode])
    scaled = np.zeros_like(cls.codes)
    nz = cls.codes != 0
    scaled[nz] = field.exp_table[(logs[cls.codes[nz]] + shift) % (q - 1)]
    scaled = np.sort(scaled)
    for s in range(q):
        translated = np.sort(field.codes_add(cls.codes,
                                             np.full_like(cls.codes, s)))
        if np.array_equal(scaled, translated):
            return True
    return False


def run_all_checkers(field: FiniteField, m: int, modified: bool) -> dict:
    """All four verdicts for one instance; a route reports "skipped" when
    the instance exceeds its configured bound (the ring order, or the
    gauss count-tensor budget)."""
    cls = cyclotomic_class(field, m, modified)
    out = {"direct": check_direct(field, cls).verdict}
    for name, check in (("charsum", check_charsum), ("jacobi", check_jacobi),
                        ("gauss", check_gauss)):
        try:
            out[name] = check(field, m, modified)
        except BoundExceeded:
            out[name] = "skipped"
    return out


# -- scanning --------------------------------------------------------------------


def prime_powers(bound: int) -> list[tuple[int, int, int]]:
    """(p, e, q) for every prime power q <= bound, ascending in q."""
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    out = []
    for pr in np.flatnonzero(sieve):
        pr = int(pr)
        q, e = pr, 1
        while q <= bound:
            out.append((pr, e, q))
            q *= pr
            e += 1
    out.sort(key=lambda t: t[2])
    return out


class ClassificationTable:
    """Scan results: one row per feasible (q, m, modified) instance."""

    def __init__(self, rows: list[dict]):
        self.rows = sorted(rows, key=lambda r: (r["m"], r["q"], r["modified"]))

    def hits(self) -> list[dict]:
        return [r for r in self.rows if r["verdict"] == VERDICT_DS]

    def nontrivial_hits(self) -> list[dict]:
        return [r for r in self.hits() if r["n"] is not None and r["n"] > 1]

    def unexplained(self) -> list[dict]:
        return [r for r in self.nontrivial_hits() if r["family"] == "unexplained"]

    def to_json(self, indent=None) -> str:
        return json.dumps(self.rows, indent=indent)

    def __len__(self):
        return len(self.rows)

    def __repr__(self):
        return (f"ClassificationTable({len(self.rows)} rows, "
                f"{len(self.hits())} hits, "
                f"{len(self.nontrivial_hits())} nontrivial)")


def _scan_rows_for_q(p: int, e: int, q: int, m_set, modified_flags,
                     full_methods: bool) -> list[dict]:
    rows = []
    divisors = [d for d in range(1, q) if (q - 1) % d == 0]
    wanted = [d for d in divisors if m_set is None or d in m_set]
    if not wanted:
        return rows
    field = make_field(p, e)
    for m in wanted:
        for modified in modified_flags:
            params = DSParams.from_instance(q, m, modified)
            if not params.feasible:
                continue
            report = check_direct(field, cyclotomic_class(field, m, modified))
            methods = ["direct"]
            if full_methods:
                agreed = run_all_checkers(field, m, modified)
                methods = [name for name, v in agreed.items()
                           if v in (report.verdict, "skipped")]
            family = report.family
            if report.verdict == VERDICT_DS and family is None \
                    and not params.trivial:
                family = "unexplained"
            rows.append({
                "q": q, "p": p, "e": e, "m": m, "modified": modified,
                "v": params.v, "k": params.k, "lambda": params.lam,
                "n": params.n, "verdict": report.verdict,
                "family": family, "methods": methods,
            })
    return rows


def scan(m_range, q_bound: int, modified_mode: str = "both",
         full_methods: bool = False, workers: int = 1) -> ClassificationTable:
    """Classify every feasible instance with q <= q_bound and m in m_range.

    m_range may be any container of ints, or None for all divisors of
    q - 1.  modified_mode picks plain classes, modified ones, or both.
    """
    limits = current_limits()
    if q_bound > limits.scan_q_max:
        raise BoundExceeded(f"q_bound {q_bound} exceeds {limits.scan_q_max}")
    if modified_mode not in ("plain", "modified", "both"):
        raise ValueError(f"unknown modified_mode {modified_mode!r}")
    flags = {"plain": (False,), "modified": (True,),
             "both": (False, True)}[modified_mode]
    m_set = None if m_range is None else set(m_range)
    tasks = prime_powers(q_bound)
    rows: list[dict] = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_scan_rows_for_q, p, e, q, m_set, flags,
                                   full_methods) for p, e, q in tasks]
            for fut in futures:
                rows.extend(fut.result())
    else:
        for p, e, q in tasks:
            rows.extend(_scan_rows_for_q(p, e, q, m_set, flags, full_methods))
    return ClassificationTable(rows)
