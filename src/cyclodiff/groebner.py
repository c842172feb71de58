"""A Buchberger engine over the rationals, sized for desk-scale systems.

The target workload is the twist-indexed quadratic systems of polysys:
append an aggregate variable, eliminate everything else, and read off
the univariate polynomial whose roots are the admissible g0 values.
Elimination has one route: a grevlex basis, then the first linear
dependence among normal forms of powers of the aggregate.  grevlex is
the one monomial order and polysys.MPoly the one polynomial type.
Pairs are ranked once, when they are created, and kept in a heap, so
selection costs a logarithm rather than a pass over every pending
pair.  Stored coefficients are measured after content removal, which
keeps the intermediate growth observable.

Every step works in one representation: a polynomial is a dict from
packed monomials to int coefficients.  A monomial is one int (Bachmann
and Schoenemann's packed representation): a 16-bit field per variable
holds B - e_i, with B = 32767, and the total degree sits above the
fields, so integer order is grevlex order, the lead of a term dict is
its max, and a product, a shift, a divisibility test or an lcm is a
few integer operations (see _Packing).  Arithmetic is fraction-free:
generators are primitive, the reducer scales the working polynomial by
the cofactor of each leading coefficient instead of dividing by it, and
the minimal-polynomial search eliminates with integer rows.  The
reducer, the S-polynomial and the row step all subtract a multiple of
a shifted polynomial through one helper, _sub_shifted, and content
comes off through _strip_content.  MPoly stays the type at the
boundary: exponents are packed on entry and unpacked into every GBasis
and staircase.

A field holds no exponent above B, so the engine holds no monomial of
total degree above B.  Reduction never raises a term's degree above
its lead's, so degree can grow only at packing, at an S-pair's lcm, at
each shift of the minimal-polynomial search and at each step of the
staircase walk; each raises LimitExceeded past B (callers report
undecided) rather than let a field wrap.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field as dc_field, replace as dc_replace
from math import gcd
from typing import Optional

from .config import check_limit_values, current_limits
from .errors import (LimitExceeded, NotZeroDimensional, OrderMismatch,
                     UncertifiedBasis)
from .intpoly import IntPoly, squarefree_part
from .polysys import MPoly, PolySystem, gen_ghat_system


# -- packed monomials ------------------------------------------------------------

_W = 16                         # bits per exponent field
_B = (1 << (_W - 1)) - 1        # largest total degree the engine holds
_FIELD = (1 << _W) - 1


class _Packing:
    """Exponent tuples in n variables as ints whose order is grevlex.

    K(e) = deg(e) << W*n | sum((B - e_i) << W*i): the degree decides
    first, then the smaller power of the last variable wins, which is
    grevlex.  With every exponent at most B the top bit of each W-bit
    field is clear, and the arithmetic below never borrows from one
    field into the next:

    - product: K(a*b) = K(a) + K(b) - base, when deg(a*b) <= B; a shift
      by b/a is K(e) + (K(b) - K(a)), and by x_v it is K(e) + times(v);
    - a divides b iff ((K(a) | borrow) - K(b)) & borrow == borrow, since
      the field of B - a_i + 2^(W-1) - (B - b_i) keeps its top bit
      exactly when a_i <= b_i;
    - lcm: the same borrow mask picks each field from one side.
    """

    __slots__ = ("n", "top", "base", "borrow", "low")

    def __init__(self, n: int):
        ones = sum(1 << (_W * i) for i in range(n))
        self.n = n
        self.top = _W * n
        self.base = _B * ones                   # K(1), the constant monomial
        self.borrow = (1 << (_W - 1)) * ones
        self.low = (1 << self.top) - 1

    def pack(self, exps) -> int:
        return (sum(exps) << self.top) + self.base \
            - sum(e << (_W * i) for i, e in enumerate(exps))

    def unpack(self, key: int) -> tuple:
        return tuple(_B - (key >> (_W * i) & _FIELD) for i in range(self.n))

    def pack_terms(self, terms: dict) -> dict:
        """Packed copy of an exponent-tuple dict; LimitExceeded past B."""
        deg = max((sum(e) for e in terms), default=0)
        if deg > _B:
            raise LimitExceeded(f"total degree {deg} exceeds {_B}")
        return {self.pack(e): c for e, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        return {self.unpack(k): c for k, c in terms.items()}

    def degree(self, key: int) -> int:
        return key >> self.top

    def times(self, v: int) -> int:
        """The shift K(x_v * e) - K(e): one more degree, one less B - e_v."""
        return (1 << self.top) - (1 << (_W * v))

    def divides(self, a: int, b: int) -> bool:
        borrow = self.borrow
        return ((a | borrow) - b) & borrow == borrow

    def lcm(self, a: int, b: int) -> int:
        """K(lcm(a, b)) of two packed monomials of degree at most B."""
        take_b = (((a | self.borrow) - b) & self.borrow) >> (_W - 1)
        mask = take_b * _FIELD
        low = (b & mask) | (a & (self.low ^ mask))
        # deg = n*B - (sum of low's fields), and low is that sum modulo
        # 2^W - 1, since 2^W = 1 there; deg lies in [hi, hi + the lower
        # degree], a window of at most B + 1 < 2^W - 1 values
        hi = max(a, b) >> self.top
        deg = hi + (self.n * _B - low - hi) % _FIELD
        return (deg << self.top) | low


# -- polynomials -----------------------------------------------------------------


def _strip_content(d: dict) -> dict:
    """Primitive part of a packed int-coefficient dict: divided by its
    content, with a positive leading coefficient."""
    if not d:
        return {}
    g = 0
    for c in d.values():
        g = gcd(g, c)
    if d[max(d)] < 0:
        g = -g
    return {e: c // g for e, c in d.items()}


def _max_bits(d: dict) -> int:
    return max(abs(c).bit_length() for c in d.values())


def _gen_triple(d: dict) -> tuple:
    """(terms, leading key, leading coeff) of a packed int dict."""
    lead = max(d)
    return d, lead, d[lead]


def _sub_shifted(dst: dict, factor: int, src: dict, shift: int) -> None:
    """dst -= factor * src shifted by shift, in place, dropping each key
    that cancels.  Every elimination step of the engine goes through
    here: the reducer's, the S-polynomial's and the minimal-polynomial
    row step's."""
    for e, c in src.items():
        key = e + shift
        val = dst.get(key, 0) - factor * c
        if val:
            dst[key] = val
        else:
            dst.pop(key, None)


# The reducer reads the clock on its first step and then once per this
# many steps, so a deadline is overrun by at most that many steps.
_DEADLINE_STEPS = 256


class _Divisors:
    """A list of generator triples that only grows, with a memo of the
    first generator whose lead divides each key the reducer has met.

    While the list only grows, the first divisor of a key in list order
    never changes, so first[key] = i >= 0 is final.  first[key] = ~n < 0
    records that no lead of gens[:n] divides key, and a later division
    scans only the generators appended since.  The list and its memo
    live in one object so that no memo is read against another list.
    """

    __slots__ = ("gens", "first")

    def __init__(self, gens: list):
        self.gens = gens            # append to it, never edit or reorder
        self.first: dict = {}


def _reduce_full(f: dict, gens, packing: _Packing,
                 deadline: Optional[float] = None) -> tuple[dict, int]:
    """Fraction-free remainder of the packed int polynomial f on division
    by gens.

    gens is a list of (packed terms, leading key, leading coeff) triples
    with int coefficients, or a _Divisors over such a list, whose memo
    then outlives the call: buchberger shares one over its growing basis
    for every S-polynomial, and certify and the minimal-polynomial search
    one each over their fixed generators.  A plain list gets a memo of
    its own for this call only, so inter-reduction and normal_form scan
    afresh.  Each step divides by the first generator in list order
    whose lead divides the current lead.  Returns (r, mult): mult is a
    positive integer, every term of r is irreducible, and r is exactly
    mult times the remainder that the same division over Q leaves.  To
    cancel a leading term c against a generator with leading coefficient
    glc, the working polynomial is scaled by glc / gcd(c, glc) and c /
    gcd(c, glc) times the shifted generator is subtracted.  A remainder
    term is kept with the multiplier in force when it moved there, and
    scaled once, at the end, by mult over that multiplier.  Past deadline
    (a time.monotonic() value) it raises LimitExceeded.
    """
    if isinstance(gens, _Divisors):
        gens, first = gens.gens, gens.first
    else:
        first = {}
    borrow = packing.borrow
    remainder: dict = {}            # key -> (coeff, multiplier then)
    work = {e: c for e, c in f.items() if c}
    mult = 1
    steps = 0
    while work:
        if deadline is not None and steps % _DEADLINE_STEPS == 0 \
                and time.monotonic() > deadline:
            raise LimitExceeded(f"deadline passed after {steps} reduction "
                                f"steps")
        steps += 1
        lead = max(work)
        i = first.get(lead, -1)
        if i < 0:
            for i in range(~i, len(gens)):
                # _Packing.divides(gens[i][1], lead), inlined in the hot loop
                if ((gens[i][1] | borrow) - lead) & borrow == borrow:
                    break
            else:
                i = ~len(gens)
            first[lead] = i
        if i < 0:
            remainder[lead] = (work.pop(lead), mult)
            continue
        gterms, glead, glc = gens[i]
        c = work[lead]
        g = gcd(c, glc)
        scale, factor = glc // g, c // g
        if scale < 0:
            scale, factor = -scale, -factor
        if scale != 1:
            mult *= scale
            work = {e: scale * v for e, v in work.items()}
        _sub_shifted(work, factor, gterms, lead - glead)
    return {e: c * (mult // then)
            for e, (c, then) in remainder.items()}, mult


def _spoly(a, b, packing: _Packing) -> dict:
    """S-polynomial of two packed int (terms, lead, lc) triples, times
    ac * bc / gcd(ac, bc) so that no coefficient is divided.  Raises
    LimitExceeded when the lcm of the leads is past the packed bound."""
    (at, al, ac), (bt, bl, bc) = a, b
    lcm = packing.lcm(al, bl)
    if packing.degree(lcm) > _B:
        raise LimitExceeded(f"S-pair lcm of total degree "
                            f"{packing.degree(lcm)} exceeds {_B}")
    sa, sb = lcm - al, lcm - bl
    g = gcd(ac, bc)
    fa, fb = bc // g, ac // g
    out = {e + sa: fa * c for e, c in at.items()}
    _sub_shifted(out, fb, bt, sb)
    return out


@dataclass
class GBasis:
    generators: tuple            # primitive MPoly, ascending by lead
    nvars: int
    certified: bool
    stats: dict = dc_field(default_factory=dict)

    def __len__(self):
        return len(self.generators)

    def is_unit_ideal(self) -> bool:
        return (len(self.generators) == 1
                and list(self.generators[0].terms) == [(0,) * self.nvars])


def _basis_triples(basis: GBasis, packing: _Packing) -> list:
    return [_gen_triple(packing.pack_terms(g.terms))
            for g in basis.generators]


def buchberger(system, seed: int = 0,
               max_spairs: Optional[int] = None,
               max_coeff_bits: Optional[int] = None,
               timeout: Optional[float] = None) -> GBasis:
    """Reduced grevlex Groebner basis of a PolySystem or an iterable of
    MPoly, with normal pair selection and both of the classical
    pair-discarding criteria.

    The seed only permutes tie-breaking among equally ranked pairs, so
    it changes the route, never the reduced basis: a property the tests
    lean on.  Limits fall back to the configured defaults; exceeding one
    raises LimitExceeded carrying the partial, uncertified basis, and so
    does a monomial of total degree above 32767, the packed bound.  A
    given limit must pass the same check as CYCLODIFF_LIMITS, so 0, a
    negative value or a bool is refused, never read as the default.

    The main loop only appends to the basis, so every S-polynomial is
    divided through one _Divisors over it, whose memo keeps the first
    divisor of each lead key met so far; the reducer scales each
    remainder once, at the end.  Inter-reduction divides each generator
    by a list of the others made for it, with a memo of its own.  The
    chain criterion tests divisibility and looks up the two side pairs
    without building a tuple per candidate.
    """
    given = {k: v for k, v in (("gb_max_spairs", max_spairs),
                               ("gb_max_coeff_bits", max_coeff_bits),
                               ("gb_timeout", timeout)) if v is not None}
    check_limit_values(given)
    limits = dc_replace(current_limits(), **given)
    max_spairs = limits.gb_max_spairs
    max_coeff_bits = limits.gb_max_coeff_bits
    timeout = limits.gb_timeout
    polys = list(system.polys if isinstance(system, PolySystem) else system)
    if not polys:
        raise ValueError("empty generating set")
    nvars = polys[0].nvars
    for p in polys:
        if p.nvars != nvars:
            raise OrderMismatch(f"generators in {nvars} and {p.nvars} "
                                f"variables")
    packing = _Packing(nvars)
    t0 = time.monotonic()
    deadline = t0 + timeout
    stats = {"spairs_reduced": 0, "spairs_discarded": 0,
             "max_coeff_bits": 0, "generators": 0, "seconds": 0.0}

    # (packed terms, lead key, lead coeff), primitive int coefficients
    basis: list = []

    def partial_basis():
        gens = tuple(MPoly(nvars, packing.unpack_terms(d))
                     for d, _, _ in basis)
        return GBasis(gens, nvars, certified=False, stats=stats)

    def bail(reason):
        stats["seconds"] = time.monotonic() - t0
        stats["generators"] = len(basis)
        raise LimitExceeded(reason, stats=stats, partial=partial_basis())

    for p in polys:
        if p.is_zero():
            continue
        try:
            terms = packing.pack_terms(p.terms)
        except LimitExceeded as exc:
            bail(str(exc))
        basis.append(_gen_triple(_strip_content(terms)))

    # a pair's rank, (lcm key, seeded tie), is fixed once both
    # generators exist, so each pair is ranked once, on creation; pending
    # is the membership index that the chain criterion reads
    queue: list = []
    pending: set = set()

    def add_pairs(new):
        lead = basis[new][1]
        for t in range(new):
            tie = ((t * 2654435761 + new * 40503) ^ seed) & 0xFFFFFFFF
            heapq.heappush(queue,
                           (packing.lcm(basis[t][1], lead), tie, t, new))
            pending.add((t, new))

    for new in range(len(basis)):
        add_pairs(new)

    # from here on basis only grows, which a shared memo needs
    divisors = _Divisors(basis)

    def reduce(f, gens):
        try:
            rem, _ = _reduce_full(f, gens, packing, deadline)
        except LimitExceeded:
            bail(f"timeout after {timeout:g}s")
        return _strip_content(rem)

    borrow = packing.borrow
    while queue:
        if stats["spairs_reduced"] >= max_spairs:
            bail(f"S-pair budget {max_spairs} exhausted")
        lcm, _, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        # coprime leading monomials: S-polynomial reduces to zero
        if basis[i][1] + basis[j][1] - packing.base == lcm:
            stats["spairs_discarded"] += 1
            continue
        # chain criterion: a third generator divides the lcm and both
        # side pairs are already settled; i < j, and the divisibility
        # test is _Packing.divides, inlined
        settled = False
        for k, (_, lk, _) in enumerate(basis):
            if ((lk | borrow) - lcm) & borrow == borrow \
                    and k != i and k != j \
                    and ((i, k) if i < k else (k, i)) not in pending \
                    and ((j, k) if j < k else (k, j)) not in pending:
                settled = True
                break
        if settled:
            stats["spairs_discarded"] += 1
            continue
        try:
            spoly = _spoly(basis[i], basis[j], packing)
        except LimitExceeded as exc:
            bail(str(exc))
        rem = reduce(spoly, divisors)
        stats["spairs_reduced"] += 1
        if not rem:
            continue
        bits = _max_bits(rem)
        stats["max_coeff_bits"] = max(stats["max_coeff_bits"], bits)
        if bits > max_coeff_bits:
            bail(f"coefficient growth {bits} bits exceeds {max_coeff_bits}")
        basis.append(_gen_triple(rem))
        add_pairs(len(basis) - 1)

    # minimalize: drop generators whose lead another lead divides
    divides = packing.divides
    keep = []
    for i, (_, li, _) in enumerate(basis):
        if not any(k != i and divides(basis[k][1], li)
                   for k in range(len(basis)) if k in keep or k > i):
            keep.append(i)
    minimal = [basis[i] for i in keep]
    # inter-reduce tails
    reduced = []
    for i, (d, li, lc) in enumerate(minimal):
        others = [minimal[k] for k in range(len(minimal)) if k != i]
        rem = reduce(d, others) if others else _strip_content(d)
        if rem:
            reduced.append(rem)
    reduced.sort(key=max)
    gens = tuple(MPoly(nvars, packing.unpack_terms(d)) for d in reduced)
    stats["seconds"] = time.monotonic() - t0
    stats["generators"] = len(gens)
    return GBasis(gens, nvars, certified=True, stats=stats)


def normal_form(f: MPoly, basis: GBasis) -> MPoly:
    """The primitive part of the remainder of f modulo the basis, with a
    positive leading coefficient; zero iff f is in the ideal when the
    basis is certified."""
    if f.nvars != basis.nvars:
        raise OrderMismatch(f"{f.nvars} variables against basis in "
                            f"{basis.nvars}")
    packing = _Packing(f.nvars)
    rem, _ = _reduce_full(packing.pack_terms(f.terms),
                          _basis_triples(basis, packing), packing)
    return MPoly(f.nvars, packing.unpack_terms(_strip_content(rem)))


def certify(basis: GBasis) -> bool:
    """Independent check: every S-polynomial reduces to zero."""
    packing = _Packing(basis.nvars)
    gens = _basis_triples(basis, packing)
    divisors = _Divisors(gens)
    for i in range(len(gens)):
        for j in range(i):
            if _reduce_full(_spoly(gens[i], gens[j], packing), divisors,
                            packing)[0]:
                return False
    return True


def is_zero_dimensional(basis: GBasis) -> bool:
    """True iff every variable shows a pure power among the leading
    monomials, which for a certified basis characterizes finitely many
    complex solutions."""
    if not basis.certified:
        raise UncertifiedBasis("zero-dimension test needs a certified basis")
    if basis.is_unit_ideal():
        return True
    packing = _Packing(basis.nvars)
    leads = [lead for _, lead, _ in _basis_triples(basis, packing)]
    # x_v^d, d > 0, is the one key of degree d at K(1) + d * times(v)
    return all(any(key > packing.base and key - packing.base
                   == packing.degree(key) * packing.times(v) for key in leads)
               for v in range(basis.nvars))


# -- elimination to the aggregate variable ---------------------------------------


def staircase(basis: GBasis, cap: int = 65536) -> list:
    """Monomials outside the leading-term ideal: a Q-vector-space basis of
    the quotient ring when the ideal is zero-dimensional.  Raises
    LimitExceeded past cap monomials, and before a step past total
    degree 32767, the packed bound."""
    if not basis.certified:
        raise UncertifiedBasis("staircase needs a certified basis")
    packing = _Packing(basis.nvars)
    leads = [lead for _, lead, _ in _basis_triples(basis, packing)]
    divides = packing.divides
    steps = [packing.times(v) for v in range(basis.nvars)]
    seen = {packing.base}
    queue = [packing.base]
    out = []
    while queue:
        mono = queue.pop()
        if any(divides(lead, mono) for lead in leads):
            continue
        out.append(mono)
        if len(out) > cap:
            raise LimitExceeded(f"quotient dimension exceeds {cap}",
                                stats=dict(basis.stats))
        if packing.degree(mono) >= _B:
            raise LimitExceeded(f"staircase step to total degree "
                                f"{packing.degree(mono) + 1} exceeds {_B}",
                                stats=dict(basis.stats))
        for step in steps:
            nxt = mono + step
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return [packing.unpack(key) for key in out]


def _minimal_polynomial_of_var(basis: GBasis, var: int,
                               max_power: int) -> Optional[IntPoly]:
    """Primitive generator of {p in Q[y] : p(x_var) in ideal}, found as
    the first linear dependence among normal forms of successive powers.

    Rows are primitive int dicts.  The row of x_var^k starts as scale
    times the normal form of x_var^k, scale being the product of the
    reducer's multipliers so far, plus scale at the key -1 - k; packed
    keys are positive, so these tags sort below every monomial and record
    the combination of powers that a row holds.  Eliminating a pivot
    takes row[pivot] * vec - vec[pivot] * row.  Once no monomial is left
    the tags are the relation.  Raises LimitExceeded once a shift would
    pass the packed degree bound.
    """
    packing = _Packing(basis.nvars)
    divisors = _Divisors(_basis_triples(basis, packing))
    times_var = packing.times(var)
    rows: dict = {}                 # pivot key -> row, positive there
    current, scale = _reduce_full({packing.base: 1}, divisors, packing)
    for k in range(max_power + 1):
        vec = _strip_content({**current, -1 - k: scale})
        while (pivot := max(vec)) >= 0:
            row = rows.get(pivot)
            if row is None:
                rows[pivot] = vec
                break
            factor = vec[pivot]
            vec = {e: row[pivot] * c for e, c in vec.items()}
            _sub_shifted(vec, factor, row, 0)
            vec = _strip_content(vec)
        else:
            return IntPoly([vec.get(-1 - i, 0)
                            for i in range(k + 1)]).primitive()
        deg = packing.degree(max(current)) + 1
        if deg > _B:
            raise LimitExceeded(f"minimal-polynomial shift to total degree "
                                f"{deg} exceeds {_B}",
                                stats=dict(basis.stats))
        shifted = {e + times_var: c for e, c in current.items()}
        current, mult = _reduce_full(shifted, divisors, packing)
        scale *= mult
    return None


def eliminate_to_univariate(system: PolySystem, target: str = "auto",
                            seed: int = 0,
                            stats_sink: Optional[dict] = None,
                            **limit_kw) -> IntPoly:
    """Adjoin the aggregate variable y and eliminate everything else.

    ghat level: y is the mean of the ghat values (m*y = sum ghat_t), the
    quantity the tabulated univariate polynomials vanish on.  g level: y
    is g0 itself.  Returns the primitive positive-leading generator of
    the ideal's intersection with Q[y].

    The one route: a grevlex basis, then the first linear dependence
    among normal forms of powers of y.  The tests check it against the
    univariate element of sympy's lex basis.
    """
    if target == "auto":
        target = "mean_ghat" if system.level == "ghat" else "g0"
    nv = len(system.var_names)
    polys = [MPoly(nv + 1, {e + (0,): c for e, c in p.terms.items()})
             for p in system.polys]
    if target == "mean_ghat":
        if system.level != "ghat":
            raise ValueError("mean_ghat aggregate needs a ghat-level system")
        agg = {(0,) * nv + (1,): system.m}
        for i in range(nv):
            e = [0] * (nv + 1)
            e[i] = 1
            agg[tuple(e)] = -1
    elif target == "g0":
        agg = {(0,) * nv + (1,): 1, (1,) + (0,) * nv: -1}
    else:
        raise ValueError(f"unknown aggregate {target!r}")
    polys.append(MPoly(nv + 1, agg))

    basis = buchberger(polys, seed=seed, **limit_kw)
    if stats_sink is not None:
        stats_sink.update(basis.stats)
    if basis.is_unit_ideal():
        return IntPoly([1])
    if is_zero_dimensional(basis):
        max_power = len(staircase(basis)) + 1
    else:
        max_power = 128
    poly = _minimal_polynomial_of_var(basis, nv, max_power)
    if poly is None:
        raise NotZeroDimensional(
            "no univariate relation on the aggregate was found")
    return poly


def compute_f_poly(m: int, theta: int, squarefree: bool = True,
                   strategy: str = "quotient", seed: int = 0,
                   stats_sink: Optional[dict] = None,
                   **limit_kw) -> IntPoly:
    """The univariate polynomial vanishing on the aggregate of the twist-
    theta system; the unit ideal gives the constant 1.

    strategy accepts only "quotient", the one elimination route; the
    keyword stays for callers that still name it.
    """
    if strategy != "quotient":
        raise ValueError(f"unknown strategy {strategy!r}")
    system = gen_ghat_system(m, theta)
    poly = eliminate_to_univariate(system, "mean_ghat", seed=seed,
                                   stats_sink=stats_sink, **limit_kw)
    return squarefree_part(poly) if squarefree and poly.degree > 0 else poly


def decide_g0_zero(m: int, theta: int, seed: int = 0, **limit_kw) -> str:
    """Can the aggregate vanish?  Adds sum(ghat_t) = 0 to the twist-theta
    system and reads the answer off the basis: "empty" for the unit
    ideal, which means no solution anywhere over C, else "nonempty".
    A limit raises LimitExceeded with the partial basis's stats."""
    system = gen_ghat_system(m, theta)
    nv = len(system.var_names)
    polys = list(system.polys)
    polys.append(MPoly(nv, {tuple(int(i == k) for k in range(nv)): 1
                            for i in range(nv)}))
    basis = buchberger(polys, seed=seed, **limit_kw)
    return "empty" if basis.is_unit_ideal() else "nonempty"


def probe_g0_zero(m: int, theta: int, seed: int = 0, **limit_kw) -> str:
    """decide_g0_zero, with "undecided" in place of a limit."""
    try:
        return decide_g0_zero(m, theta, seed=seed, **limit_kw)
    except LimitExceeded:
        return "undecided"
