"""Stored univariate reference polynomials for the even-order systems.

For each tabulated even order m and each canonical twist index theta,
we keep the primitive integer polynomial whose roots are the admissible
values of the class average g0 (a constant 1 marks an empty solution
branch), together with the combined product over all canonical theta.
These are regression fixtures, transcribed once by hand and never
recomputed here; the elimination engine is checked against them where
it can finish, and the nonexistence gate is re-derived from them
mechanically.

The combined row drops factors without real roots when they cannot
affect the real-root analysis (the m=16 row omits 4x^2+3), so
product_check() asserts divisibility plus a real-root-free quotient
rather than literal equality.
"""

from fractions import Fraction
from functools import reduce
from typing import Dict, List, Tuple

from .errors import NotTabulated
from .intpoly import IntPoly, count_real_roots, prime_factors

# factors as coefficient tuples, low degree first
_ROWS: Dict[int, List[Tuple[int, List[tuple]]]] = {
    6: [
        (0, [(-2, 1), (2, 1)]),
        (1, [(-1, 0, 7)]),
    ],
    10: [
        (0, [(0, 1), (-4, 1), (4, 1)]),
        (1, [(-1, 0, 11)]),
    ],
    12: [
        (0, [(1,)]),
        (1, [(-1, 0, 13)]),
        (2, [(1,)]),
        (3, [(-3, 1), (3, 1), (-5, 1), (5, 1), (-7, 5), (7, 5)]),
    ],
    14: [
        (0, [(-6, 1), (6, 1), (3, 0, 4)]),
        (1, [(1,)]),
    ],
    16: [
        (0, [(-17, 7), (17, 7), (3, 0, 4)]),
        (1, [(1,)]),
        (2, [(-1, 0, 17)]),
        (4, [(-7, 1), (7, 1)]),
    ],
    18: [
        (0, [(0, 1), (-8, 1), (8, 1)]),
        (1, [(-1, 0, 19)]),
        (3, [(1,)]),
    ],
    20: [
        (0, [(1,)]),
        (1, [(1,)]),
        (2, [(1,)]),
        (5, [(-7, 1), (7, 1), (-9, 1), (9, 1), (-31, 9), (31, 9),
             (-67, 13), (67, 13)]),
    ],
    22: [
        (0, [(-10, 1), (10, 1), (243, 0, -60, 0, 4)]),
        (1, [(-1, 0, 23)]),
    ],
}

_COMBINED: Dict[int, List[tuple]] = {
    6: [(-2, 1), (2, 1), (-1, 0, 7)],
    10: [(0, 1), (-4, 1), (4, 1), (-1, 0, 11)],
    12: [(-3, 1), (3, 1), (-5, 1), (5, 1), (-7, 5), (7, 5), (-1, 0, 13)],
    14: [(-6, 1), (6, 1), (3, 0, 4)],
    16: [(-7, 1), (7, 1), (-17, 7), (17, 7), (-1, 0, 17)],
    18: [(0, 1), (-8, 1), (8, 1), (-1, 0, 19)],
    20: [(-7, 1), (7, 1), (-9, 1), (9, 1), (-31, 9), (31, 9),
         (-67, 13), (67, 13)],
    22: [(-10, 1), (10, 1), (243, 0, -60, 0, 4), (-1, 0, 23)],
}

TABULATED_ORDERS = tuple(sorted(_ROWS))


def _product(factors: List[tuple]) -> IntPoly:
    return reduce(lambda a, b: a * b, (IntPoly(f) for f in factors),
                  IntPoly([1]))


def f_table(m: int) -> Tuple[List[Tuple[int, IntPoly]], IntPoly]:
    """Per-theta reference rows and the combined product for order m."""
    if m not in _ROWS:
        raise NotTabulated(f"no stored rows for order {m}; "
                           f"available: {TABULATED_ORDERS}")
    rows = [(theta, _product(factors)) for theta, factors in _ROWS[m]]
    return rows, _product(_COMBINED[m])


def _divides(a: IntPoly, f: IntPoly) -> bool:
    if f.degree < a.degree:
        return False
    return f.pseudo_rem(a).is_zero()


def product_check(m: int) -> dict:
    """Compare the product of per-theta rows with the combined row.

    The combined row may omit factors with no real roots, so the check
    is: combined divides the row product, and the quotient has no real
    roots (hence the two agree on every real-root question).
    """
    rows, combined = f_table(m)
    prod = reduce(lambda a, b: a * b, (f for _, f in rows), IntPoly([1]))
    out = {"m": m, "verbatim_equal": prod == combined,
           "combined_divides_product": _divides(combined, prod),
           "quotient_real_roots": 0}
    if not out["verbatim_equal"] and out["combined_divides_product"]:
        quot = prod.divexact(combined)
        bound = 1 + max(abs(c) for c in quot.coeffs)
        out["quotient_real_roots"] = count_real_roots(
            quot, Fraction(-bound), Fraction(bound))
    return out


def _is_prime_power(n: int) -> bool:
    return len(prime_factors(n)) == 1


def nonexistence_gate(m: int) -> dict:
    """Mechanical coherence checks on the combined row for order m.

    The average of the shifted-class sums at a difference set lands on
    a root of the combined polynomial, so nonexistence follows once
    every real root rho with rho != 0 has rho^2 >= 1 or
    rho^2 = 1/(m+1).  (rho = 0 is excluded by the nonzero-average
    hypothesis; the zero branch is what probe_g0_zero interrogates.)
    Checked by Sturm counting inside (-1, 1]: the only roots allowed
    there are the pair of roots of (m+1)x^2 - 1, plus 0 itself when x
    divides the row.
    """
    rows, combined = f_table(m)
    special = IntPoly([-1, 0, m + 1])
    has_special = _divides(special, combined)
    has_x = combined.coeffs[0] == 0
    inside = count_real_roots(combined, Fraction(-1), Fraction(1))
    expected_inside = (1 if has_x else 0) + (2 if has_special else 0)
    return {
        "m": m,
        "value_at_half": combined(Fraction(m // 2 - 1, 1)),
        "has_special_quadratic": has_special,
        "special_matches_prime_power": has_special == _is_prime_power(m + 1),
        "has_zero_root": has_x,
        "zero_root_expected": m in (10, 18),
        "roots_inside_unit_interval": inside,
        "gate_holds": inside == expected_inside,
    }
