"""Power classes of finite fields as candidate difference sets.

H is the multiplicative subgroup of nonzero m-th powers in F_q, and M is
H with zero appended.  Four routes decide whether such a class is a
difference set: literal difference counting, class sums, Jacobi row
sums, and a Gauss-sum product relation.  The class-sum and Jacobi routes
count from the same class pairs (charsums._class_pairs), and the Gauss
route sums the diagonal slab of the trace pair tensor from the per-class
trace histogram of the traces tr(g^k), once per (field, m), with no pair
counted (charsums._gauss_slices).
All three test every nontrivial power at once with
charsums._vanishes_at_powers: by
Fourier inversion over Z/m their counts vanish at every such power
exactly when they are constant (after a fold in zeta_p for gauss, sound
as gcd(m, p) = 1), so no route reduces in Z[zeta_m].  The direct route
counts differences literally and shares nothing with them: it reads only
the class codes and field addition, and counts at one representative of
each coset of H (_pairs_at), because the count is constant on cosets.
The full histogram, FiniteField.codes_difference_counts, is the slow
oracle it is tested against.  All four work in exact integer
arithmetic.  The scanner sweeps prime powers, builds a field only for a q
with a feasible instance, and flags any nontrivial hit that no known
family explains.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import repeat
from math import isqrt
from typing import Optional

import numpy as np

from .config import current_limits
from .errors import BoundExceeded, OrderDoesNotDivide, ZeroGamma, ZeroMultiplier
from .ff import FFElement, FiniteField, is_prime, make_field
from .charsums import (_PAIRS_MAX, _class_sum_counts, _gauss_slices,
                       _require_order, _row_sum_counts, _tables,
                       _vanishes_at_powers)

VERDICT_DS = "difference_set"
VERDICT_NOT = "not_difference_set"
VERDICT_INFEASIBLE = "infeasible_params"

# Sums per block in _pairs_at, so counting at many gammas never holds
# more than this many codes at once.
_PAIRS_BLOCK = 1 << 16

# Chunks of scan tasks per pool worker.  Tasks run in ascending q and a
# large q costs the most, so several chunks a worker keep the last chunk a
# small share of the work.
_CHUNKS_PER_WORKER = 8


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
        if m < 1 or (q - 1) % m:
            raise OrderDoesNotDivide(f"m={m} does not divide q-1={q - 1}")
        f = (q - 1) // m
        k = f + 1 if modified else f
        # k(k-1) = lam(v-1) forces m | f+1 or m | f-1 respectively
        num = f + 1 if modified else f - 1
        lam = k * (k - 1) // (q - 1) if num % m == 0 else None
        n = None if lam is None else k - lam
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
        code = (self.field._check(x).code if isinstance(x, FFElement)
                else int(x))
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


def _require_class_of(field: FiniteField, cls: CyclotomicClass) -> None:
    if cls.field != field:
        raise ValueError(f"class of F_{cls.field.q} checked in F_{field.q}")


def check_direct(field: FiniteField, cls: CyclotomicClass) -> DSReport:
    """Count differences literally; the oracle the other routes answer to.

    Multiplying by a member of H maps H and M onto themselves, so the
    count N(gamma) = #{b in class : b + gamma in class} is constant on
    each coset g^i H.  It is counted once per coset, at the m
    representatives g^0, ..., g^(m-1); the witness is the smallest code
    whose coset deviates.
    """
    _require_class_of(field, cls)
    params = DSParams.from_instance(field.q, cls.m, cls.modified)
    if not params.feasible:
        return DSReport(params, VERDICT_INFEASIBLE, ("direct",))
    m = cls.m
    counts = _pairs_at(field, cls.codes, field.exp_table[:m])
    deviant = counts != params.lam
    if not deviant.any():
        family = known_family_match(field.q, m, cls.modified)
        return DSReport(params, VERDICT_DS, ("direct",), family=family)
    # scan codes 1, 2, ... in doubling blocks for the first deviant coset;
    # every coset holds a nonzero code, so a block finds one
    log = field.log_table
    lo, size = 1, 16
    while not (hit := deviant[log[lo:lo + size] % m]).any():
        lo, size = lo + size, 2 * size
    gamma = lo + int(np.argmax(hit))
    return DSReport(params, VERDICT_NOT, ("direct",),
                    witness=(gamma, int(counts[log[gamma] % m])))


def check_charsum(field: FiniteField, m: int, modified: bool) -> str:
    """Difference set iff every nontrivial class sum hits its target value
    (0 unmodified, -1 - chi^s(-1) modified)."""
    params = DSParams.from_instance(field.q, m, modified)
    if not params.feasible:
        return VERDICT_INFEASIBLE
    base = _class_sum_counts(field, m)
    if modified:
        base[0] += 1
        base[_tables(field).dlog_neg_one % m] += 1
    return VERDICT_DS if _vanishes_at_powers(base, m) else VERDICT_NOT


def check_jacobi(field: FiniteField, m: int, modified: bool) -> str:
    """Difference set iff every Jacobi row sum is 1 (unmodified) or
    1 - m - m chi^s(-1) (modified), computed by direct aggregation."""
    params = DSParams.from_instance(field.q, m, modified)
    if not params.feasible:
        return VERDICT_INFEASIBLE
    base = _row_sum_counts(field, m)
    base[0] -= 1
    if modified:
        base[0] += m
        base[_tables(field).dlog_neg_one % m] += m
    return VERDICT_DS if _vanishes_at_powers(base, m) else VERDICT_NOT


def check_gauss(field: FiniteField, m: int, modified: bool) -> str:
    """Difference set iff the Gauss-sum convolution relation holds:
    sum over t != s of chi^t(-1) G_t G_{s-t} equals (1 + chi^s(-1)) G_s,
    times (1 - m) in the modified case, for every nontrivial s.

    Works on exponent counts, so nothing is ever rounded.  The pair
    tensor T[i, j, w] of traces by class expands every G_s G_t, but the
    relation reads only its slice T[j - dlog(-1), j], its two marginals
    and the per-class trace histogram a.  The marginals follow from a and
    drop out of the constancy test (see below), so charsums._gauss_slices
    builds only a and the slice.  It counts no pair: scaling by F_p^*
    makes every column w != 0 of the slice a class-rolled copy of column
    1, so two trace convolutions per class, at w = 0 and 1, give the
    slice in O(m p).  The plain and the modified check of one (field, m)
    share that one count.  Raises BoundExceeded past gauss_check_m_max,
    the (q - 1)^2 pair budget or the m m p slab budget that the Jacobi
    quotient identity also obeys; the slice no longer costs what those
    budgets measure, and they are kept so that the skipped instances
    stay the same.
    """
    params = DSParams.from_instance(field.q, m, modified)
    if not params.feasible:
        return VERDICT_INFEASIBLE
    q = field.q
    m_max = current_limits().gauss_check_m_max
    if m > m_max or (q - 1) ** 2 > _PAIRS_MAX:
        raise BoundExceeded(f"gauss route caps m at {m_max} and (q-1)^2 pairs "
                            f"at {_PAIRS_MAX}; got m={m}, q={q}")
    a, m1 = _gauss_slices(field, m)
    # With L = dlog(-1) and f = (q - 1)/m, the relation's counts are
    #   m m1 - m2 - m3 - scale (a + roll(a, L)),  scale = 1 or 1 - m,
    # where the marginals m2, m3 are the convolutions of a and of
    # roll(a, L) with the trace histogram of the nonzero elements.  The
    # trace maps F_q onto F_p with fibres of q/p elements, so that
    # histogram is q/p - [w = 0], and each row of a sums to f: m2 = (q/p) f
    # - a and m3 = (q/p) f - roll(a, L).  The counts are then
    #   m m1 + (1 - scale) (a + roll(a, L)) - 2 (q/p) f.
    # A constant matrix folds to zero in zeta_p and the factor m != 0 does
    # not change constancy, so only m1, plus a + roll(a, L) when modified,
    # is tested.
    base = m1
    if modified:
        base = m1 + a + np.roll(a, _tables(field).dlog_neg_one, axis=0)
    return VERDICT_DS if _vanishes_at_powers(base, m, field.p) else VERDICT_NOT


def difference_counts(field: FiniteField, m: int, gamma) -> tuple[int, int, int]:
    """(a, b, c) for one gamma: a = members alpha of H with 1 - alpha in
    gamma H; b, c = ordered pairs of H (resp. M) at difference gamma,
    that is, the members y with y + gamma in the class as well."""
    _require_order(field, m)
    code = (field._check(gamma) if isinstance(gamma, FFElement)
            else field.element(int(gamma))).code
    if code == 0:
        raise ZeroGamma("gamma must be nonzero")
    a = int(_class_sum_counts(field, m)[int(field.log_table[code]) % m])
    b, c = (int(_pairs_at(field, cyclotomic_class(field, m, modified).codes,
                          [code])[0])
            for modified in (False, True))
    return a, b, c


def _pairs_at(field: FiniteField, codes: np.ndarray,
              gammas) -> np.ndarray:
    """#{y in codes : y + gamma in codes} for each gamma in gammas: one
    shift of the codes per gamma and a lookup in a membership bitmap,
    taking _PAIRS_BLOCK sums at a time."""
    member = np.zeros(field.q, dtype=bool)
    member[codes] = True
    gammas = np.asarray(gammas, dtype=np.int64)
    out = np.empty(len(gammas), dtype=np.int64)
    step = max(1, _PAIRS_BLOCK // max(len(codes), 1))
    for lo in range(0, len(gammas), step):
        sums = field.codes_add(codes[None, :], gammas[lo:lo + step, None])
        out[lo:lo + step] = np.count_nonzero(member[sums], axis=1)
    return out


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
        # q = 8u^2 + a = 64v^2 + b, u odd, v odd exactly when odd_v
        a, b, odd_v = (49, 441, 0) if modified else (1, 9, 1)
        u2, ru = divmod(q - a, 8)
        v2, rv = divmod(q - b, 64)
        if ru == 0 and rv == 0 and u2 >= 0 and v2 >= 0:
            u, v = isqrt(u2), isqrt(v2)
            if u * u == u2 and v * v == v2 and u % 2 == 1 and v % 2 == odd_v:
                return "modified_octic" if modified else "lehmer_octic"
    return None


def multiplier_check(field: FiniteField, cls: CyclotomicClass, t: int) -> bool:
    """Whether multiplication by the field image of t maps the class to a
    translate of itself."""
    _require_class_of(field, cls)
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


ROUTES = ("direct", "charsum", "jacobi", "gauss")


def run_routes(field: FiniteField, cls: CyclotomicClass, names) -> dict:
    """The verdict of each named route on one class, in the order named.

    A route reports "skipped" when the instance exceeds its configured
    bound (the ring order, or the gauss route's pair and slab budgets).
    """
    _require_class_of(field, cls)
    m, modified = cls.m, cls.modified
    checks = {"direct": lambda: check_direct(field, cls).verdict,
              "charsum": lambda: check_charsum(field, m, modified),
              "jacobi": lambda: check_jacobi(field, m, modified),
              "gauss": lambda: check_gauss(field, m, modified)}
    out = {}
    for name in names:
        try:
            out[name] = checks[name]()
        except BoundExceeded:
            out[name] = "skipped"
    return out


def run_all_checkers(field: FiniteField, m: int, modified: bool) -> dict:
    """All four verdicts for one instance; see run_routes for "skipped"."""
    return run_routes(field, cyclotomic_class(field, m, modified), ROUTES)


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


def _feasible_instances(q: int, m_range,
                        modified_flags) -> list[tuple[int, bool]]:
    """The feasible (m, modified) pairs of one q, m ascending.

    Feasibility asks m | f - 1 (plain) or m | f + 1 (modified), with
    f = (q - 1)/m, so f >= m - 1 and m(m - 1) <= q - 1, except for the
    plain class at f = 1, m = q - 1.  Only those orders are tried: O(sqrt q)
    work for each q, however large m_range is.
    """
    top = (isqrt(4 * q - 3) + 1) // 2          # largest m with m(m-1) <= q-1
    orders = [m for m in range(1, top + 1) if (q - 1) % m == 0]
    if q - 1 > top:
        orders.append(q - 1)
    return [(m, modified) for m in orders if m_range is None or m in m_range
            for modified in modified_flags
            if DSParams.from_instance(q, m, modified).feasible]


def _scan_rows_for_q(p: int, e: int, q: int, instances,
                     full_methods: bool) -> list[dict]:
    """One row for each (m, modified) pair of instances, all on F_q."""
    field = make_field(p, e)
    names = ROUTES if full_methods else ("direct",)
    rows = []
    for m, modified in instances:
        params = DSParams.from_instance(q, m, modified)
        verdicts = run_routes(field, cyclotomic_class(field, m, modified),
                              names)
        verdict = verdicts["direct"]
        methods = [n for n, v in verdicts.items() if v == verdict]
        skipped = [n for n, v in verdicts.items() if v == "skipped"]
        disagree = [n for n, v in verdicts.items()
                    if v not in (verdict, "skipped")]
        family = None
        if verdict == VERDICT_DS:
            family = known_family_match(q, m, modified)
            if family is None and not params.trivial:
                family = "unexplained"
        row = {
            "q": q, "p": p, "e": e, "m": m, "modified": modified,
            "v": params.v, "k": params.k, "lambda": params.lam,
            "n": params.n, "verdict": verdict,
            "family": family, "methods": methods,
        }
        if skipped:
            row["skipped"] = skipped
        if disagree:
            row["disagree"] = disagree
        rows.append(row)
    return rows


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scan(m_range, q_bound: int, modified_mode: str = "both",
         full_methods: bool = False, workers: int = 1) -> ClassificationTable:
    """Classify every feasible instance with q <= q_bound and m in m_range.

    m_range may be any container of ints, or None for all divisors of
    q - 1; it is used as it is, never copied.  modified_mode picks
    plain classes, modified ones, or both.  The feasible instances are
    listed first, so a field is built only for a q that has one; the
    fields go to a pool of min(workers, tasks, usable CPUs) processes, in
    chunks of consecutive q, when that is more than one.
    """
    limits = current_limits()
    if q_bound > limits.scan_q_max:
        raise BoundExceeded(f"q_bound {q_bound} exceeds {limits.scan_q_max}")
    if modified_mode not in ("plain", "modified", "both"):
        raise ValueError(f"unknown modified_mode {modified_mode!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    flags = {"plain": (False,), "modified": (True,),
             "both": (False, True)}[modified_mode]
    tasks = []
    for p, e, q in prime_powers(q_bound):
        instances = _feasible_instances(q, m_range, flags)
        if instances:
            tasks.append((p, e, q, instances))
    rows: list[dict] = []
    workers = min(workers, len(tasks), _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(tasks) // (_CHUNKS_PER_WORKER * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_scan_rows_for_q, *zip(*tasks),
                                 repeat(full_methods), chunksize=chunk):
                rows.extend(part)
    else:
        for task in tasks:
            rows.extend(_scan_rows_for_q(*task, full_methods))
    return ClassificationTable(rows)
