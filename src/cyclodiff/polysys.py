"""Polynomial systems satisfied by scaled Gauss-sum vectors.

For even m, the Gauss sums of an m-th power class, divided by sqrt(q)
and extended by h = chi(4), satisfy one fixed system of integer
polynomials depending only on m.  A discrete Fourier change of
variables trades the root-of-unity variable h for a twist index theta,
giving m/2 affine systems whose real solution structure decides
difference-set existence questions.  Everything here stays in exact
arithmetic; floating point appears only as certified enclosures in the
numeric verification mode.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from math import gcd, inf
from typing import Optional

from mpmath import iv

from .config import current_limits
from .charsums import character, chi_eval, gauss_sum
from .cyclotomic import CycInt, CycNum, _ivprec, embed
from .diffsets import VERDICT_DS, check_direct, cyclotomic_class
from .errors import (ArityMismatch, BoundExceeded, ModeUnsupported,
                     NotCoprime, OddOrder, ParseError)
from .ff import FiniteField, is_prime, make_field


def _pow_by_squaring(v, e: int):
    out = None
    base = v
    while e:
        if e & 1:
            out = base if out is None else out * base
        e >>= 1
        if e:
            base = base * base
    return out


class MPoly:
    """Sparse multivariate polynomial with integer coefficients.

    Terms map exponent tuples to nonzero coefficients; display order is
    degree-lexicographic, highest term first.  A coefficient that is not
    an integer (1/2, 2.7), an exponent that is not a nonnegative integer
    (1.5, -1) and an exponent tuple whose length is not nvars each raise
    ValueError rather than being truncated or kept.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            ci = int(c)
            if ci != c:
                raise ValueError(f"non-integral coefficient {c!r}")
            key = tuple(int(e) for e in exps)
            if len(key) != nvars:
                raise ValueError(f"exponent tuple {tuple(exps)!r} in "
                                 f"{nvars} variables")
            if key != tuple(exps) or min(key, default=0) < 0:
                raise ValueError(f"exponents {tuple(exps)!r} are not "
                                 f"nonnegative integers")
            if ci:
                clean[key] = ci
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars)

    @classmethod
    def const(cls, c: int, nvars: int) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, i: int, nvars: int, power: int = 1, coeff: int = 1) -> "MPoly":
        exps = [0] * nvars
        exps[i] = power
        return cls(nvars, {tuple(exps): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = MPoly.const(other, self.nvars)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = MPoly.const(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return MPoly(self.nvars,
                         {e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def canonical(self) -> "MPoly":
        """Sign-normalized copy: the deglex-leading coefficient is positive."""
        if not self.terms:
            return self
        if self.sorted_terms()[0][1] < 0:
            return -self
        return self

    def evaluate(self, values):
        """Plug values in (any ring with +, * and integer coercion)."""
        total = None
        for exps, coeff in self.terms.items():
            term = None
            for i, e in enumerate(exps):
                if e:
                    p = _pow_by_squaring(values[i], e)
                    term = p if term is None else term * p
            term = coeff if term is None else term * coeff
            total = term if total is None else total + term
        return 0 if total is None else total

    def __repr__(self):
        return f"MPoly({self.nvars}, {dict(self.sorted_terms())})"


@dataclass
class PolySystem:
    m: int
    level: str                  # "g" or "ghat"
    theta: Optional[int]
    var_names: tuple
    polys: tuple
    meta: dict = dc_field(default_factory=dict)

    def __len__(self):
        return len(self.polys)


def _check_system_order(m: int) -> None:
    if m % 2 != 0:
        raise OddOrder(f"system order must be even, got {m}")
    limit = current_limits().polysys_m_max
    if not 2 <= m <= limit:
        raise BoundExceeded(f"system order {m} outside [2, {limit}]")


def gen_g_system(m: int) -> PolySystem:
    """The defining equations of the scaled Gauss-sum variety in the
    variables g0..g_{m-1}, h; exactly 3m/2 - 1 polynomials."""
    _check_system_order(m)
    half = m // 2
    nv = m + 1
    g = [MPoly.var(i, nv) for i in range(m)]
    h = MPoly.var(m, nv)
    polys = []
    for s in range(1, half):
        acc = MPoly.zero(nv)
        for t in range(m):
            acc = acc + g[t] * g[(2 * s - t) % m] * (-1 if t % 2 else 1)
        polys.append(acc.canonical())
    for s in range(1, half + 1):
        polys.append((g[s] * g[m - s] - (-1) ** s).canonical())
    for s in range(1, half):
        polys.append((MPoly.var(m, nv, power=s) * g[s] * g[half + s]
                      - g[(2 * s) % m] * g[half]).canonical())
    polys.append((MPoly.var(m, nv, power=half) - 1).canonical())
    names = tuple(f"g{i}" for i in range(m)) + ("h",)
    return PolySystem(m, "g", None, names, tuple(polys))


def gen_ghat_system(m: int, theta: int) -> PolySystem:
    """The Fourier-side equations with twist index theta; 3m/2 polynomials
    in ghat0..ghat_{m-1}."""
    _check_system_order(m)
    half = m // 2
    theta = theta % half
    gh = [MPoly.var(i, m) for i in range(m)]
    big_s = MPoly.zero(m)
    alt = MPoly.zero(m)
    for t in range(m):
        big_s = big_s + gh[t]
        alt = alt + gh[t] * (-1 if t % 2 else 1)
    s_sq = big_s * big_s
    polys = []
    for s in range(half):
        p = gh[s] * gh[half + s] * (m * m) - s_sq - m * m * (m - 1)
        polys.append(p.canonical())
    for s in range(half):
        acc = MPoly.zero(m)
        for t in range(m):
            acc = acc + gh[t] * gh[(s + t) % m]
        polys.append((acc * m - s_sq + m * m).canonical())
    for s in range(half):
        acc = MPoly.zero(m)
        for t in range(m):
            acc = acc + gh[t] * gh[(2 * s - 2 * theta - t) % m] \
                * (-1 if t % 2 else 1)
        polys.append((acc - (gh[s] + gh[half + s]) * alt).canonical())
    names = tuple(f"ghat{i}" for i in range(m))
    return PolySystem(m, "ghat", theta, names, tuple(polys))


def planar_system(m: int) -> PolySystem:
    """The g-level system specialized to h = 1, the case forced when 2
    multiplies the class onto a translate; q = m^2 + m + 1 in meta."""
    base = gen_g_system(m)
    polys = []
    for p in base.polys:
        folded: dict = {}
        for exps, c in p.terms.items():
            key = exps[:m]
            folded[key] = folded.get(key, 0) + c
        np_ = MPoly(m, folded)
        if not np_.is_zero():
            polys.append(np_.canonical())
    q = m * m + m + 1
    return PolySystem(m, "g", None, base.var_names[:m], tuple(polys),
                      meta={"variant": "planar", "q": q,
                            "q_is_prime": is_prime(q)})


# -- solution vectors ------------------------------------------------------------


def cyc_json(value) -> dict:
    """The JSON form of a CycInt, or of a CycNum with its denominator."""
    if isinstance(value, CycNum):
        return {"order": value.num.n, "coeffs": list(value.num.coeffs),
                "den": value.den}
    return {"order": value.n, "coeffs": list(value.coeffs)}


# the levels a solution may live at: the g system and its Fourier image
_LEVELS = ("g", "ghat")


@dataclass
class SolutionVector:
    level: str
    m: int
    theta: Optional[int]
    values: tuple               # CycInt or CycNum entries
    provenance: dict

    def to_json(self, indent=None) -> str:
        return json.dumps({"level": self.level, "m": self.m,
                           "theta": self.theta, "provenance": self.provenance,
                           "values": [cyc_json(v) for v in self.values]},
                          indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SolutionVector":
        data = json.loads(text)
        vals = []
        try:
            for item in data["values"]:
                c = CycInt(item["order"], item["coeffs"])
                den = item.get("den", 1)
                if den == 0:
                    raise ParseError("solution JSON has a zero denominator")
                vals.append(CycNum(c, den) if den != 1 else c)
            if data["level"] not in _LEVELS:
                raise ParseError(f"solution JSON has an unknown level "
                                 f"{data['level']!r}")
            return cls(data["level"], data["m"], data["theta"], tuple(vals),
                       data["provenance"])
        except KeyError as exc:
            raise ParseError(f"solution JSON lacks the key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed solution JSON: {exc}") from exc


def explicit_solution(m: int) -> SolutionVector:
    """A root-of-unity point of the g-level system with g0 = m/2 - 1.

    The phases below check out directly against the generated equations;
    when the closed form lands on g0 = -(m/2 - 1) the whole g-vector is
    negated, which is a symmetry of the system.
    """
    _check_system_order(m)
    half = m // 2
    if m % 4 == 0:
        g = [CycInt.integer(half - 1)]
        for s in range(1, m):
            sign = -1 if ((s - 1) * (s - 2) // 2) % 2 else 1
            g.append(CycInt.root(half, s) * sign)
        h = CycInt.integer(-1)
    else:
        sign0 = -1 if ((m + 6) * (m - 6) // 32) % 2 else 1
        g = [CycInt.integer(sign0 * (half - 1))]
        for s in range(1, m):
            sign = -1 if ((4 * s + m + 2) * (4 * s + m - 2) // 32) % 2 else 1
            g.append(CycInt.root(2 * m, s) * sign)
        h = CycInt.integer(1)
        if sign0 < 0:
            g = [-x for x in g]
    return SolutionVector("g", m, None, tuple(g) + (h,),
                          {"kind": "explicit"})


def gauss_solution(field: FiniteField, m: int,
                   modified: bool = False) -> SolutionVector:
    """The Gauss-sum vector of H_{q,m} or M_{q,m}, stored scaled by
    sqrt(q): values[s] = sqrt(q) * g_s for s >= 1 exactly, values[0] is
    the exact integer sqrt(q) * g0, and the last entry is h = chi(4).

    provenance records whether the class actually is a difference set,
    so a verifier knows whether zero residuals are expected.
    """
    if m % 2 != 0:
        raise OddOrder(f"gauss solutions feed even-order systems, got m={m}")
    q = field.q
    chi = character(field, m)
    vals = [CycInt.integer(m - 1 if modified else -1)]
    for s in range(1, m):
        vals.append(gauss_sum(chi, s).value)
    # a prime-subfield constant c has code c
    h = chi_eval(chi, 1, field.element(4 % field.p))
    report = check_direct(field, cyclotomic_class(field, m, modified))
    return SolutionVector(
        "g", m, None, tuple(vals) + (h,),
        {"kind": "gauss", "q": q, "p": field.p, "e": field.e,
         "modified": modified, "scale_sq": q,
         "is_difference_set": report.verdict == VERDICT_DS})


# -- verification ----------------------------------------------------------------


@dataclass
class Residuals:
    mode: str
    zeros: Optional[tuple] = None     # exact modes: per-polynomial flags
    bounds: Optional[tuple] = None    # numeric mode: |residual| upper bounds
    membership: Optional[dict] = None
    tol: Optional[float] = None

    @property
    def ok(self) -> bool:
        if self.zeros is not None:
            base = all(self.zeros)
        else:
            base = all(b <= self.tol for b in self.bounds)
        if self.membership is not None:
            base = base and all(self.membership.values())
        return base

    @property
    def max_bound(self) -> Optional[float]:
        return max(self.bounds) if self.bounds else None


def _is_zero_exact(r) -> bool:
    if isinstance(r, int):
        return r == 0
    return r.is_zero()


def _g_indices(system: PolySystem):
    return [i for i, nm in enumerate(system.var_names) if nm != "h"]


def verify_solution(system: PolySystem, sol: SolutionVector,
                    mode: str = "exact", tol: float = 1e-9,
                    precision: int = 128) -> Residuals:
    """Evaluate every system polynomial at the solution.

    exact: residuals must vanish in Z[zeta].  scaled_exact: values carry
    a sqrt(q) scale (gauss solutions); each polynomial is rebalanced by
    integer powers of q, legal because every term has g-degree 0 or 2.
    numeric: certified interval evaluation, plus the real-and-modulus
    membership checks at the g level.  tol must satisfy 0 <= tol < inf,
    else ValueError: an infinite tolerance would pass any point.
    """
    if not 0 <= tol < inf:
        raise ValueError(f"tolerance must be finite and non-negative, "
                         f"got {tol!r}")
    if len(sol.values) != len(system.var_names):
        raise ArityMismatch(f"{len(sol.values)} values for "
                            f"{len(system.var_names)} variables")
    if mode == "exact":
        return Residuals("exact", zeros=tuple(
            _is_zero_exact(p.evaluate(sol.values)) for p in system.polys))
    if mode == "scaled_exact":
        qscale = sol.provenance.get("scale_sq")
        if qscale is None:
            raise ModeUnsupported("solution carries no sqrt scale")
        gidx = _g_indices(system)
        zeros = []
        for p in system.polys:
            degs = {sum(exps[i] for i in gidx) for exps in p.terms}
            if not degs <= {0, 2}:
                raise ModeUnsupported(
                    "scaled check needs terms of scaled degree 0 or 2")
            dmax = max(degs, default=0)
            balanced = MPoly(p.nvars, {
                exps: c * qscale ** ((dmax - sum(exps[i] for i in gidx)) // 2)
                for exps, c in p.terms.items()})
            zeros.append(_is_zero_exact(balanced.evaluate(sol.values)))
        return Residuals("scaled_exact", zeros=tuple(zeros))
    if mode == "numeric":
        qscale = sol.provenance.get("scale_sq")
        with _ivprec(precision):
            inv = 1 / iv.sqrt(iv.mpf(qscale)) if qscale is not None else None
            vals = []
            for nm, v in zip(system.var_names, sol.values):
                ival = embed(v, precision)
                if inv is not None and nm != "h":
                    ival = ival * inv
                vals.append(ival)
            bounds = []
            for p in system.polys:
                r = p.evaluate(vals)
                bounds.append(0.0 if isinstance(r, int) else r.abs_upper())
            membership = None
            if system.level == "g":
                membership = {}
                for nm, ival in zip(system.var_names, vals):
                    if nm == "g0":
                        hi = float(max(abs(ival.im.a), abs(ival.im.b)))
                        membership["g0_real"] = hi <= tol
                    else:
                        a = ival.abs_interval()
                        membership[f"{nm}_unit"] = (
                            float(a.a) >= 1 - tol and float(a.b) <= 1 + tol)
        return Residuals("numeric", bounds=tuple(bounds),
                         membership=membership, tol=tol)
    raise ModeUnsupported(f"unknown verification mode {mode!r}")


# -- symmetries ------------------------------------------------------------------


def _check_arity(sol: SolutionVector) -> None:
    """A g-level solution carries m + 1 values (g_0..g_{m-1}, h), a
    ghat-level one m values; any other level is refused."""
    if sol.level not in _LEVELS:
        raise ModeUnsupported(f"solution level {sol.level!r} is not one of "
                              f"{', '.join(_LEVELS)}")
    want = sol.m + 1 if sol.level == "g" else sol.m
    if len(sol.values) != want:
        raise ArityMismatch(f"{sol.level}-level solution at m={sol.m} needs "
                            f"{want} values, got {len(sol.values)}")


def symmetry_transform(sol: SolutionVector, transform) -> SolutionVector:
    """Apply one of the solution-set symmetries.

    transform is ("negate",), ("twist", r) or ("reindex", r).  At the g
    level: negation flips every g and keeps h; twist multiplies g_s by
    zeta_m^{sr} and keeps h; reindex permutes g_s -> g_{rs mod m} and
    raises h to the r-th power (r coprime to m, hence odd).  At the ghat
    level the same names act through the Fourier dictionary: twist is
    the shift ghat_t -> ghat_{t-r} with theta fixed, reindex permutes
    ghat_t -> ghat_{rt mod m} and divides theta by r.
    """
    _check_arity(sol)
    name = transform[0]
    m = sol.m
    vals = list(sol.values)
    prov = dict(sol.provenance)
    entry = [name] + [int(x) for x in transform[1:]]
    prov["transformed_by"] = prov.get("transformed_by", []) + [entry]
    if sol.level == "g":
        g, h = vals[:m], vals[m]
        if name == "negate":
            g = [-x for x in g]
        elif name == "twist":
            r = int(transform[1]) % m
            g = [x * CycInt.root(m, (s * r) % m) for s, x in enumerate(g)]
        elif name == "reindex":
            r = int(transform[1]) % m
            if gcd(r, m) != 1:
                raise NotCoprime(f"reindex exponent {transform[1]} shares a "
                                 f"factor with {m}")
            g = [g[(s * r) % m] for s in range(m)]
            h = _pow_by_squaring(h, r)
        else:
            raise ValueError(f"unknown transform {name!r}")
        return SolutionVector("g", m, None, tuple(g) + (h,), prov)
    if name == "negate":
        return SolutionVector("ghat", m, sol.theta,
                              tuple(-x for x in vals), prov)
    if name == "twist":
        r = int(transform[1]) % m
        return SolutionVector("ghat", m, sol.theta,
                              tuple(vals[(t - r) % m] for t in range(m)), prov)
    if name == "reindex":
        r = int(transform[1]) % m
        if gcd(r, m) != 1:
            raise NotCoprime(f"reindex exponent {transform[1]} shares a "
                             f"factor with {m}")
        half = m // 2
        rinv = pow(r, -1, half) if half > 1 else 0
        theta = (rinv * sol.theta) % half if sol.theta is not None else None
        return SolutionVector("ghat", m, theta,
                              tuple(vals[(t * r) % m] for t in range(m)), prov)
    raise ValueError(f"unknown transform {name!r}")


# -- the Fourier dictionary ------------------------------------------------------


def dft(values, inverse: bool = False) -> list:
    """Forward: X_hat(s) = sum_t zeta_r^{-st} X(t).  Inverse divides by r
    and therefore returns fractions."""
    r = len(values)
    out = []
    for s in range(r):
        acc = None
        for t, v in enumerate(values):
            k = (s * t) % r if inverse else (-s * t) % r
            term = v * CycInt.root(r, k)
            acc = term if acc is None else acc + term
        if inverse:
            acc = CycNum.of(acc).scaled_by(1, r)
        out.append(acc)
    return out


def dft_bridge(sol: SolutionVector) -> SolutionVector:
    """ghat-level solution with twist theta  ->  g-level solution with
    g_s = (1/m) sum_t zeta_m^{st} ghat_t and h = zeta_{m/2}^theta."""
    if sol.level != "ghat" or sol.theta is None:
        raise ModeUnsupported("bridge runs from a ghat-level solution "
                              "with a twist index")
    _check_arity(sol)
    m = sol.m
    g = dft(list(sol.values), inverse=True)
    h = CycInt.root(m // 2, sol.theta)
    prov = {"kind": "dft_bridge", "from_theta": sol.theta,
            "base": sol.provenance}
    if "scale_sq" in sol.provenance:
        prov["scale_sq"] = sol.provenance["scale_sq"]
    return SolutionVector("g", m, None, tuple(g) + (h,), prov)


def dft_bridge_inverse(sol: SolutionVector) -> SolutionVector:
    """g-level solution  ->  ghat-level solution, recovering theta from h."""
    if sol.level != "g":
        raise ModeUnsupported("inverse bridge runs from a g-level solution")
    _check_arity(sol)
    m = sol.m
    half = m // 2
    h = sol.values[m]
    theta = next((t for t in range(half)
                  if CycNum.of(h) == CycInt.root(half, t)), None)
    if theta is None:
        raise ValueError("h is not a power of zeta_{m/2}")
    ghat = dft(list(sol.values[:m]), inverse=False)
    prov = {"kind": "dft_bridge_inverse", "base": sol.provenance}
    if "scale_sq" in sol.provenance:
        prov["scale_sq"] = sol.provenance["scale_sq"]
    return SolutionVector("ghat", m, theta, tuple(ghat), prov)


def theta_reduce(m: int, theta: int) -> tuple[int, int]:
    """(r, d): reindexing by r carries twist theta to its canonical
    divisor representative d = gcd(theta, m/2), with d = 0 standing for
    the full class m/2.  Only these d need solving; every other twist
    transports over by the returned unit."""
    _check_system_order(m)
    half = m // 2
    theta = theta % half
    if theta == 0:
        return 1, 0
    d = gcd(theta, half)
    step = half // d
    r = (theta // d) % step
    while gcd(r, half) != 1:
        r += step
    if r % 2 == 0:
        r += half
    if gcd(r, m) != 1 or (r * d - theta) % half != 0:
        raise ArithmeticError(
            f"no unit carries theta={theta} to d={d} at m={m}")
    return r, d


# -- planar probe ----------------------------------------------------------------


def planar_probe(m: int) -> dict:
    """Feasibility report for a cyclic projective plane of order m coming
    from an m-th power class: q = m^2 + m + 1 must be prime, 2 must land
    in the class, h must equal 1, and the scaled Gauss vector must then
    satisfy the h = 1 system exactly."""
    q = m * m + m + 1
    out = {"m": m, "q": q, "q_is_prime": is_prime(q)}
    if not out["q_is_prime"]:
        return out
    field = make_field(q, 1)
    cls = cyclotomic_class(field, m, False)
    out["two_is_power"] = field.element(2 % q) in cls
    chi = character(field, m)
    out["h_is_one"] = chi_eval(chi, 1, field.element(4 % q)) == 1
    report = check_direct(field, cls)
    out["is_difference_set"] = report.verdict == VERDICT_DS
    try:
        gsol = gauss_solution(field, m, False)
    except BoundExceeded:
        # Gauss vector lives in a ring past the order bound; the cheap
        # flags above already settle the probe, so just mark it
        out["scaled_exact_ok"] = None
        return out
    trimmed = SolutionVector("g", m, None, gsol.values[:m], gsol.provenance)
    out["scaled_exact_ok"] = verify_solution(planar_system(m), trimmed,
                                             "scaled_exact").ok
    return out


# -- text serialization ----------------------------------------------------------


_HEADER_RE = re.compile(r"# cyclodiff-system v1 m=(\d+) level=(g|ghat) "
                        r"theta=(-|\d+)$")
_MONO_RE = re.compile(r"(\d+)((?:\*[A-Za-z_][A-Za-z0-9_]*\^\d+)*)$")


def _poly_to_text(poly: MPoly, names) -> str:
    terms = poly.sorted_terms()
    if not terms:
        return "0"
    parts = []
    for idx, (exps, c) in enumerate(terms):
        mono = "*".join([str(abs(c))] + [f"{names[i]}^{e}"
                                         for i, e in enumerate(exps) if e])
        if idx == 0:
            parts.append(mono if c > 0 else f"- {mono}")
        else:
            parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
    return " ".join(parts)


def _poly_from_text(text: str, name_index: dict) -> MPoly:
    nvars = len(name_index)
    text = text.strip()
    if text == "0":
        return MPoly.zero(nvars)
    toks = text.split()
    terms: dict = {}
    sign = 1
    i = 0
    if toks and toks[0] == "-":
        sign = -1
        i = 1
    while i < len(toks):
        match = _MONO_RE.match(toks[i])
        if not match:
            raise ParseError(f"bad monomial {toks[i]!r}")
        i += 1
        exps = [0] * nvars
        for piece in match.group(2).split("*")[1:]:
            name, _, expo = piece.partition("^")
            if name not in name_index:
                raise ParseError(f"unknown variable {name!r}")
            exps[name_index[name]] += int(expo)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + sign * int(match.group(1))
        if i < len(toks):
            if toks[i] == "+":
                sign = 1
            elif toks[i] == "-":
                sign = -1
            else:
                raise ParseError(f"expected + or - before {toks[i]!r}")
            i += 1
            if i == len(toks):
                raise ParseError("dangling sign at end of polynomial")
    return MPoly(nvars, terms)


def system_to_text(system: PolySystem) -> str:
    theta = "-" if system.theta is None else str(system.theta)
    lines = [f"# cyclodiff-system v1 m={system.m} level={system.level} "
             f"theta={theta}",
             "vars: " + " ".join(system.var_names)]
    for p in system.polys:
        lines.append("poly: " + _poly_to_text(p, system.var_names))
    return "\n".join(lines) + "\n"


def system_from_text(text: str) -> PolySystem:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty system text")
    header = _HEADER_RE.match(lines[0].strip())
    if not header:
        raise ParseError(f"bad header line {lines[0]!r}")
    m = int(header.group(1))
    level = header.group(2)
    theta = None if header.group(3) == "-" else int(header.group(3))
    if len(lines) < 2 or not lines[1].startswith("vars: "):
        raise ParseError("missing vars line")
    names = tuple(lines[1][len("vars: "):].split())
    index = {nm: i for i, nm in enumerate(names)}
    if len(index) != len(names):
        raise ParseError(f"repeated variable name in {lines[1]!r}")
    polys = []
    for ln in lines[2:]:
        if not ln.startswith("poly: "):
            raise ParseError(f"expected poly line, got {ln!r}")
        polys.append(_poly_from_text(ln[len("poly: "):], index))
    return PolySystem(m, level, theta, names, tuple(polys))
