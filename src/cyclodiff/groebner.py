"""A Buchberger engine over the rationals, sized for desk-scale systems.

The target workload is the twist-indexed quadratic systems of polysys:
append an aggregate variable, eliminate everything else, and read off
the univariate polynomial whose roots are the admissible g0 values.
Elimination has one route: a grevlex basis, then the first linear
dependence among normal forms of powers of the aggregate.  grevlex is
the one monomial order and polysys.MPoly the one polynomial type.
Pairs are ranked once, when they are created, and kept in one heap, so
selection costs a logarithm rather than a pass over every pending
pair.  The Gebauer-Moeller update prunes that heap and the new pairs
whenever a generator is appended, so the heap holds exactly the pairs
still to be reduced and the main loop tests none.  Stored coefficients
are measured after content removal, which keeps the intermediate
growth observable.

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
reducer, the S-polynomial and the row step all take one fraction-free
elimination step, _eliminate, which scales by the cofactor of a
leading coefficient and subtracts a shifted multiple of a generator
through _sub_shifted; content comes off through _strip_content, and
these two are the only places a gcd is taken.  buchberger's final pass
minimalizes and inter-reduces in one ascending sweep over the leads.
MPoly stays the type at the boundary: exponents are packed on entry
and unpacked into every GBasis and staircase.

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
    that cancels.  The subtraction of _eliminate, the one elimination
    step of the engine."""
    for e, c in src.items():
        key = e + shift
        val = dst.get(key, 0) - factor * c
        if val:
            dst[key] = val
        else:
            dst.pop(key, None)


def _eliminate(work: dict, lead: int, gen: tuple) -> int:
    """Cancel work[lead] in place against the generator triple gen =
    (terms, glead, glc), whose lead divides lead, and return scale.

    With c = work[lead] and g = gcd(c, glc), scale = |glc| / g and factor
    = scale * c / glc, so scale > 0, gcd(scale, factor) = 1 and no
    coefficient is divided: work becomes scale * work - factor * gen
    shifted to lead.  The reducer's step, the S-polynomial and the
    minimal-polynomial row step are all this step.
    """
    gterms, glead, glc = gen
    c = work[lead]
    g = gcd(c, glc)
    scale, factor = glc // g, c // g
    if scale < 0:
        scale, factor = -scale, -factor
    if scale != 1:
        for e, v in work.items():
            work[e] = scale * v
    _sub_shifted(work, factor, gterms, lead - glead)
    return scale


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


def _reduce_full(f: dict, divisors: _Divisors, packing: _Packing,
                 deadline: Optional[float] = None) -> tuple[dict, int]:
    """Fraction-free remainder of the packed int polynomial f on division
    by the generator triples of divisors, whose memo outlives the call.

    buchberger shares one _Divisors over its growing basis for every
    S-polynomial and another over the reduced basis as its final pass
    builds it; certify, normal_form and the minimal-polynomial search
    each make one over their fixed generators.  Each step divides by the
    first generator in list order whose lead divides the current lead,
    through _eliminate, and multiplies mult by its scale.  Returns (r,
    mult): mult is a positive integer, every term of r is irreducible,
    and r is exactly mult times the remainder that the same division
    over Q leaves.  A remainder term is kept with the multiplier in force
    when it moved there, and scaled once, at the end, by mult over that
    multiplier.  It reads the clock on every step, and past deadline (a
    time.monotonic() value) it raises LimitExceeded.
    """
    gens, first = divisors.gens, divisors.first
    borrow = packing.borrow
    remainder: dict = {}            # key -> (coeff, multiplier then)
    work = {e: c for e, c in f.items() if c}
    mult = 1
    steps = 0
    while work:
        if deadline is not None and time.monotonic() > deadline:
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
        mult *= _eliminate(work, lead, gens[i])
    return {e: c * (mult // then)
            for e, (c, then) in remainder.items()}, mult


def _spoly(a, b, packing: _Packing) -> dict:
    """S-polynomial of two packed int (terms, lead, lc) triples: a shifted
    to the lcm of the leads, eliminated against b, so that no coefficient
    is divided.  Raises LimitExceeded when the lcm of the leads is past
    the packed bound."""
    at, al, _ = a
    lcm = packing.lcm(al, b[1])
    if packing.degree(lcm) > _B:
        raise LimitExceeded(f"S-pair lcm of total degree "
                            f"{packing.degree(lcm)} exceeds {_B}")
    shift = lcm - al
    out = {e + shift: c for e, c in at.items()}
    _eliminate(out, lcm, b)
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
    MPoly, with normal pair selection and the Gebauer-Moeller update
    (Gebauer & Moeller 1988; UPDATE in Becker & Weispfenning, 1993).

    The seed only permutes tie-breaking among equally ranked pairs, so
    it changes the route, never the reduced basis: a property the tests
    lean on.  Limits fall back to the configured defaults; exceeding one
    raises LimitExceeded carrying the partial, uncertified basis, and so
    does a monomial of total degree above 32767, the packed bound.  A
    given limit must pass the same check as CYCLODIFF_LIMITS, so 0, a
    negative value or a bool is refused, never read as the default.

    The update runs whenever a generator h is appended, on the input
    generators too.  B drops each queued pair whose lcm the lead of h
    divides, unless that lcm equals the lcm of h with one of the pair's
    two generators.  Of the new pairs (g, h), M keeps those whose lcm no
    smaller new lcm divides, and F pushes, of the pairs that share one
    lcm, the one with the least seeded tie, or none when one of them has
    coprime leads.  spairs_discarded counts the pairs dropped at creation
    or by B.  The heap is the only pair container and holds only pairs
    that will be reduced, so the S-pair budget counts reductions: a run
    that reduces n pairs finishes with max_spairs = n.

    The main loop only pops, reduces and appends to the basis, so every
    S-polynomial is divided through one _Divisors over it, whose memo
    keeps the first divisor of each lead key met so far; the reducer
    scales each remainder once, at the end.  The final pass minimalizes
    and inter-reduces at once: in ascending order of lead it skips a
    generator whose lead a kept lead divides and appends the rest,
    reduced by those kept, to one growing _Divisors.  A term below a
    lead is divisible only by a smaller lead, so each generator meets
    every lead that could divide its tail, and the result is the unique
    reduced basis, ascending by lead.
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
    # generators exist, so each pair is ranked once, on creation; the
    # heap holds exactly the pairs still to be reduced
    queue: list = []

    def update(new):
        """The Gebauer-Moeller update for the generator basis[new]."""
        lead, lcm, divides = basis[new][1], packing.lcm, packing.divides
        offered = len(queue) + new
        # B: a queued pair whose lcm the new lead divides is settled by
        # its two pairs with the new generator, unless one shares its lcm
        queue[:] = [p for p in queue if not divides(lead, p[0])
                    or p[0] == lcm(basis[p[2]][1], lead)
                    or p[0] == lcm(basis[p[3]][1], lead)]
        heapq.heapify(queue)
        groups: dict = {}
        for t in range(new):
            groups.setdefault(lcm(basis[t][1], lead), []).append(t)
        minimal: list = []
        for key in sorted(groups):      # a proper divisor sorts first
            # M: drop an lcm that a smaller new lcm divides; then a kept
            # one divides it too, since divisibility is transitive
            if any(divides(low, key) for low in minimal):
                continue
            minimal.append(key)
            # F: one pair per lcm, the least seeded tie, and none when a
            # pair of that lcm has coprime leads
            if all(basis[t][1] + lead - packing.base != key
                   for t in groups[key]):
                heapq.heappush(queue, min(
                    (key, ((t * 2654435761 + new * 40503) ^ seed)
                     & 0xFFFFFFFF, t, new) for t in groups[key]))
        stats["spairs_discarded"] += offered - len(queue)

    for new in range(len(basis)):
        update(new)

    # from here on basis only grows, which a shared memo needs
    divisors = _Divisors(basis)

    def reduce(f, gens):
        try:
            rem, _ = _reduce_full(f, gens, packing, deadline)
        except LimitExceeded:
            bail(f"timeout after {timeout:g}s")
        return _strip_content(rem)

    while queue:
        if stats["spairs_reduced"] >= max_spairs:
            bail(f"S-pair budget {max_spairs} exhausted")
        _, _, i, j = heapq.heappop(queue)
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
        update(len(basis) - 1)

    # minimalize and inter-reduce in one ascending pass over the leads
    reduced = _Divisors([])
    for d, lead, _ in sorted(basis, key=lambda gen: gen[1]):
        if not any(packing.divides(kept, lead)
                   for _, kept, _ in reduced.gens):
            reduced.gens.append(_gen_triple(reduce(d, reduced)))
    gens = tuple(MPoly(nvars, packing.unpack_terms(d))
                 for d, _, _ in reduced.gens)
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
                          _Divisors(_basis_triples(basis, packing)), packing)
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
    the combination of powers that a row holds.  A row is stored as a
    (terms, pivot, coeff) triple, positive at its pivot, and eliminating
    a pivot is _eliminate against it followed by _strip_content.  Once
    no monomial is left the tags are the relation.  Raises
    LimitExceeded once a shift would pass the packed degree bound.
    """
    packing = _Packing(basis.nvars)
    divisors = _Divisors(_basis_triples(basis, packing))
    times_var = packing.times(var)
    rows: dict = {}                 # pivot key -> row triple
    current, scale = _reduce_full({packing.base: 1}, divisors, packing)
    for k in range(max_power + 1):
        vec = _strip_content({**current, -1 - k: scale})
        while (pivot := max(vec)) >= 0:
            row = rows.get(pivot)
            if row is None:
                rows[pivot] = _gen_triple(vec)
                break
            _eliminate(vec, pivot, row)
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
        if system.level != "g":
            raise ValueError("g0 aggregate needs a g-level system")
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
