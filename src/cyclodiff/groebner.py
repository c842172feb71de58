"""A Buchberger engine over the rationals, sized for desk-scale systems.

The target workload is the twist-indexed quadratic systems of polysys:
append an aggregate variable, eliminate everything else, and read off
the univariate polynomial whose roots are the admissible g0 values.
Elimination has one route: a grevlex basis, then the first linear
dependence among normal forms of powers of the aggregate.  grevlex and
lex are the only monomial orders; lex serves the sympy differential
tests.
Basis arithmetic is in integers: generators are stored as primitive
integer polynomials, and reduction is fraction-free, scaling the working
polynomial by the cofactor of each leading coefficient instead of
dividing by it.  Pairs are ranked once, when they are created, and kept
in a heap, so selection costs a logarithm rather than a pass over every
pending pair.  Stored coefficients are measured after content removal,
which keeps the intermediate growth observable.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field as dc_field, replace as dc_replace
from fractions import Fraction
from math import gcd
from typing import Optional

from .config import check_limit_values, current_limits
from .errors import (LimitExceeded, NotZeroDimensional, OrderMismatch,
                     UncertifiedBasis)
from .intpoly import IntPoly, squarefree_part
from .polysys import MPoly, PolySystem, gen_ghat_system
from .tables import f_table


# -- monomial orders -------------------------------------------------------------


class MonomialOrder:
    """grevlex or lex.

    key(exps) returns a tuple that sorts monomials ascending, so the
    leading monomial of a set is the max under key.
    """

    def __init__(self, kind: str):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind

    @staticmethod
    def _grevlex_key(exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def key(self, exps):
        if self.kind == "lex":
            return exps
        return self._grevlex_key(exps)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __repr__(self):
        return f"MonomialOrder({self.kind})"


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


# -- polynomials -----------------------------------------------------------------


@dataclass(frozen=True)
class QPoly:
    """Primitive-integer sparse polynomial; the rational scalars a basis
    computation passes through are normalized away on storage."""

    nvars: int
    terms: tuple     # ((exps, coeff), ...) sorted by no particular order

    @classmethod
    def from_dict(cls, nvars: int, d: dict) -> "QPoly":
        items = _strip_content(d)
        return cls(nvars, tuple(sorted(items.items())))

    @classmethod
    def from_mpoly(cls, p: MPoly) -> "QPoly":
        return cls.from_dict(p.nvars, dict(p.terms))

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def leading(self, order: MonomialOrder):
        return max((e for e, _ in self.terms), key=order.key)


def _strip_content(d: dict) -> dict:
    """Clear denominators, divide by integer content, make leading-ish sign
    deterministic (largest exps tuple positive)."""
    live = {e: Fraction(c) for e, c in d.items() if c != 0}
    if not live:
        return {}
    den = 1
    for c in live.values():
        den = den * c.denominator // gcd(den, c.denominator)
    ints = {e: int(c * den) for e, c in live.items()}
    g = 0
    for c in ints.values():
        g = gcd(g, c)
    ints = {e: c // g for e, c in ints.items()}
    if ints[max(ints)] < 0:
        ints = {e: -c for e, c in ints.items()}
    return ints


def _max_bits(d: dict) -> int:
    return max(abs(c).bit_length() for c in d.values())


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _gen_triple(d: dict, order: MonomialOrder) -> tuple:
    """(terms, leading exps, leading coeff) of an int-coefficient dict."""
    lead = max(d, key=order.key)
    return d, lead, d[lead]


# The reducer reads the clock on its first step and then once per this
# many steps, so a deadline is overrun by at most that many steps.
_DEADLINE_STEPS = 256


def _reduce_full(f: dict, gens: list, order: MonomialOrder,
                 deadline: Optional[float] = None) -> tuple[dict, int]:
    """Fraction-free remainder of the int polynomial f on division by gens.

    gens entries are (terms dict, leading exps, leading coeff) with int
    coefficients.  Returns (r, mult): mult is a positive integer, every
    term of r is irreducible, and r is exactly mult times the remainder
    that the same division over Q leaves.  To cancel a leading term c
    against a generator with leading coefficient glc, the working
    polynomial and the remainder so far are scaled by glc / gcd(c, glc)
    and c / gcd(c, glc) times the shifted generator is subtracted.
    Past deadline (a time.monotonic() value) it raises LimitExceeded.
    """
    okey = order.key
    remainder: dict = {}
    work = {e: c for e, c in f.items() if c}
    mult = 1
    steps = 0
    while work:
        if deadline is not None and steps % _DEADLINE_STEPS == 0 \
                and time.monotonic() > deadline:
            raise LimitExceeded(f"deadline passed after {steps} reduction "
                                f"steps")
        steps += 1
        lead = max(work, key=okey)
        for gterms, glead, glc in gens:
            if _divides(glead, lead):
                c = work[lead]
                g = gcd(c, glc)
                scale, factor = glc // g, c // g
                if scale < 0:
                    scale, factor = -scale, -factor
                if scale != 1:
                    mult *= scale
                    work = {e: scale * v for e, v in work.items()}
                    remainder = {e: scale * v for e, v in remainder.items()}
                shift = tuple(a - b for a, b in zip(lead, glead))
                for ge, gc in gterms.items():
                    key = tuple(a + b for a, b in zip(ge, shift))
                    val = work.get(key, 0) - factor * gc
                    if val:
                        work[key] = val
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[lead] = work.pop(lead)
    return remainder, mult


def _spoly(a, b, order: MonomialOrder) -> dict:
    """S-polynomial of two int (terms, lead, lc) triples, times
    ac * bc / gcd(ac, bc) so that no coefficient is divided."""
    (at, al, ac), (bt, bl, bc) = a, b
    lcm = tuple(max(x, y) for x, y in zip(al, bl))
    sa = tuple(l - x for l, x in zip(lcm, al))
    sb = tuple(l - x for l, x in zip(lcm, bl))
    g = gcd(ac, bc)
    fa, fb = bc // g, ac // g
    out: dict = {}
    for e, c in at.items():
        key = tuple(x + y for x, y in zip(e, sa))
        out[key] = out.get(key, 0) + fa * c
    for e, c in bt.items():
        key = tuple(x + y for x, y in zip(e, sb))
        out[key] = out.get(key, 0) - fb * c
    return {e: c for e, c in out.items() if c}


@dataclass
class GBasis:
    generators: tuple            # QPoly, reduced
    order: MonomialOrder
    nvars: int
    certified: bool
    stats: dict = dc_field(default_factory=dict)

    def __len__(self):
        return len(self.generators)

    def is_unit_ideal(self) -> bool:
        # terms are stored ascending, so a constant term alone does not
        # settle it: the whole polynomial must be that constant
        return (len(self.generators) == 1
                and len(self.generators[0].terms) == 1
                and self.generators[0].terms[0][0] == (0,) * self.nvars)


def _basis_triples(basis: GBasis) -> list:
    return [_gen_triple(q.as_dict(), basis.order) for q in basis.generators]


def _as_qpolys(system) -> tuple[int, list]:
    if isinstance(system, PolySystem):
        return len(system.var_names), [QPoly.from_mpoly(p)
                                       for p in system.polys]
    polys = list(system)
    if not polys:
        raise ValueError("empty generating set")
    return polys[0].nvars, polys


def buchberger(system, order: MonomialOrder = GREVLEX, seed: int = 0,
               max_spairs: Optional[int] = None,
               max_coeff_bits: Optional[int] = None,
               timeout: Optional[float] = None) -> GBasis:
    """Reduced Groebner basis with normal pair selection and both of the
    classical pair-discarding criteria.

    The seed only permutes tie-breaking among equally ranked pairs, so
    it changes the route, never the reduced basis: a property the tests
    lean on.  Limits fall back to the configured defaults; exceeding one
    raises LimitExceeded carrying the partial, uncertified basis.  A
    given limit must pass the same check as CYCLODIFF_LIMITS, so 0, a
    negative value or a bool is refused, never read as the default.
    """
    given = {k: v for k, v in (("gb_max_spairs", max_spairs),
                               ("gb_max_coeff_bits", max_coeff_bits),
                               ("gb_timeout", timeout)) if v is not None}
    check_limit_values(given)
    limits = dc_replace(current_limits(), **given)
    max_spairs = limits.gb_max_spairs
    max_coeff_bits = limits.gb_max_coeff_bits
    timeout = limits.gb_timeout
    nvars, qpolys = _as_qpolys(system)
    t0 = time.monotonic()
    deadline = t0 + timeout
    stats = {"spairs_reduced": 0, "spairs_discarded": 0,
             "max_coeff_bits": 0, "generators": 0, "seconds": 0.0}

    # (terms dict, lead exps, lead coeff), int coefficients
    basis = [_gen_triple(qp.as_dict(), order) for qp in qpolys
             if not qp.is_zero()]

    def lcm_of(i, j):
        return tuple(max(x, y) for x, y in zip(basis[i][1], basis[j][1]))

    def pair_rank(i, j):
        lcm = lcm_of(i, j)
        tie = ((i * 2654435761 + j * 40503) ^ seed) & 0xFFFFFFFF
        return (sum(lcm), order.key(lcm), tie)

    # a pair's rank is fixed once both generators exist, so each pair is
    # ranked once, on creation; pending is the membership index that the
    # chain criterion reads
    queue: list = []
    pending: set = set()

    def add_pairs(new):
        for t in range(new):
            heapq.heappush(queue, (pair_rank(t, new), t, new))
            pending.add((t, new))

    for new in range(len(basis)):
        add_pairs(new)

    def partial_basis():
        gens = tuple(QPoly.from_dict(nvars, d) for d, _, _ in basis)
        return GBasis(gens, order, nvars, certified=False, stats=stats)

    def bail(reason):
        stats["seconds"] = time.monotonic() - t0
        stats["generators"] = len(basis)
        raise LimitExceeded(reason, stats=stats, partial=partial_basis())

    def reduce(f, gens):
        try:
            rem, _ = _reduce_full(f, gens, order, deadline)
        except LimitExceeded:
            bail(f"timeout after {timeout:.0f}s")
        return _strip_content(rem)

    while queue:
        if stats["spairs_reduced"] >= max_spairs:
            bail(f"S-pair budget {max_spairs} exhausted")
        _, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        li, lj = basis[i][1], basis[j][1]
        lcm = lcm_of(i, j)
        # coprime leading monomials: S-polynomial reduces to zero
        if all(x + y == z for x, y, z in zip(li, lj, lcm)):
            stats["spairs_discarded"] += 1
            continue
        # chain criterion: a third generator divides the lcm and both
        # side pairs are already settled
        settled = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(basis[k][1], lcm) \
                    and tuple(sorted((i, k))) not in pending \
                    and tuple(sorted((j, k))) not in pending:
                settled = True
                break
        if settled:
            stats["spairs_discarded"] += 1
            continue
        rem = reduce(_spoly(basis[i], basis[j], order), basis)
        stats["spairs_reduced"] += 1
        if not rem:
            continue
        bits = _max_bits(rem)
        stats["max_coeff_bits"] = max(stats["max_coeff_bits"], bits)
        if bits > max_coeff_bits:
            bail(f"coefficient growth {bits} bits exceeds {max_coeff_bits}")
        basis.append(_gen_triple(rem, order))
        add_pairs(len(basis) - 1)

    # minimalize: drop generators whose lead another lead divides
    keep = []
    for i, (_, li, _) in enumerate(basis):
        if not any(k != i and _divides(basis[k][1], li)
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
    gens = tuple(sorted(
        (QPoly.from_dict(nvars, d) for d in reduced),
        key=lambda q: order.key(q.leading(order))))
    stats["seconds"] = time.monotonic() - t0
    stats["generators"] = len(gens)
    return GBasis(gens, order, nvars, certified=True, stats=stats)


def normal_form(f: QPoly, basis: GBasis) -> QPoly:
    """Remainder of f modulo the basis; zero iff f is in the ideal when
    the basis is certified."""
    if f.nvars != basis.nvars:
        raise OrderMismatch(f"{f.nvars} variables against basis in "
                            f"{basis.nvars}")
    rem, _ = _reduce_full(dict(f.terms), _basis_triples(basis), basis.order)
    return QPoly.from_dict(f.nvars, rem)


def certify(basis: GBasis) -> bool:
    """Independent check: every S-polynomial reduces to zero."""
    gens = _basis_triples(basis)
    for i in range(len(gens)):
        for j in range(i):
            s = _spoly(gens[i], gens[j], basis.order)
            if _reduce_full(s, gens, basis.order)[0]:
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
    leads = [q.leading(basis.order) for q in basis.generators]
    for v in range(basis.nvars):
        if not any(e[v] > 0 and all(x == 0 for k, x in enumerate(e) if k != v)
                   for e in leads):
            return False
    return True


# -- elimination to the aggregate variable ---------------------------------------


def staircase(basis: GBasis, cap: int = 65536) -> list:
    """Monomials outside the leading-term ideal: a Q-vector-space basis of
    the quotient ring when the ideal is zero-dimensional."""
    if not basis.certified:
        raise UncertifiedBasis("staircase needs a certified basis")
    leads = [q.leading(basis.order) for q in basis.generators]
    nv = basis.nvars
    seen = {(0,) * nv}
    queue = [(0,) * nv]
    out = []
    while queue:
        mono = queue.pop()
        if any(_divides(l, mono) for l in leads):
            continue
        out.append(mono)
        if len(out) > cap:
            raise LimitExceeded(f"quotient dimension exceeds {cap}",
                                stats=dict(basis.stats))
        for v in range(nv):
            nxt = mono[:v] + (mono[v] + 1,) + mono[v + 1:]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return out


def _minimal_polynomial_of_var(basis: GBasis, var: int,
                               max_power: int) -> Optional[IntPoly]:
    """Monic generator of {p in Q[y] : p(x_var) in ideal}, found as the
    first linear dependence among normal forms of successive powers."""
    gens = _basis_triples(basis)
    nv = basis.nvars
    rows: dict = {}                 # pivot monomial -> (vec, combo)
    # current is scale times the normal form of x_var^k, scale being the
    # product of the reducer's multipliers so far
    current, scale = _reduce_full({(0,) * nv: 1}, gens, basis.order)
    for k in range(max_power + 1):
        vec = {e: Fraction(c, scale) for e, c in current.items()}
        combo = [Fraction(0)] * k + [Fraction(1)]
        while vec:
            pivot = max(vec)
            if pivot not in rows:
                inv = 1 / vec[pivot]
                vec = {e: c * inv for e, c in vec.items()}
                combo = [c * inv for c in combo]
                rows[pivot] = (vec, combo)
                break
            rvec, rcombo = rows[pivot]
            factor = vec.pop(pivot)
            for e, c in rvec.items():
                if e == pivot:
                    continue
                val = vec.get(e, 0) - factor * c
                if val:
                    vec[e] = val
                else:
                    vec.pop(e, None)
            combo = [a - factor * b for a, b in
                     zip(combo, rcombo + [Fraction(0)] * len(combo))]
        else:
            den = 1
            for c in combo:
                den = den * c.denominator // gcd(den, c.denominator)
            return IntPoly([int(c * den) for c in combo]).primitive()
        shifted = {e[:var] + (e[var] + 1,) + e[var + 1:]: c
                   for e, c in current.items()}
        current, mult = _reduce_full(shifted, gens, basis.order)
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
    polys = [QPoly.from_dict(nv + 1, {e + (0,): c for e, c in p.terms.items()})
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
    polys.append(QPoly.from_dict(nv + 1, agg))

    basis = buchberger(polys, GREVLEX, seed=seed, **limit_kw)
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


def probe_g0_zero(m: int, theta: int, seed: int = 0, **limit_kw) -> str:
    """Can the aggregate vanish?  Adds sum(ghat_t) = 0 to the twist-theta
    system and reads the answer off the basis: the unit ideal means no
    solution anywhere over C."""
    system = gen_ghat_system(m, theta)
    nv = len(system.var_names)
    polys = [QPoly.from_mpoly(p) for p in system.polys]
    polys.append(QPoly.from_dict(nv, {tuple(int(i == k) for k in range(nv)): 1
                                      for i in range(nv)}))
    try:
        basis = buchberger(polys, GREVLEX, seed=seed, **limit_kw)
    except LimitExceeded:
        return "undecided"
    return "empty" if basis.is_unit_ideal() else "nonempty"
