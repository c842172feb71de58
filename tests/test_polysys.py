"""Quadratic systems on normalized Gauss sums: generation, solutions,
verification modes, the symmetry group, and the DFT change of level."""

import json
from fractions import Fraction

import pytest

from cyclodiff.config import current_limits
from cyclodiff.cyclotomic import CycInt, CycNum
from cyclodiff.errors import (ArityMismatch, ModeUnsupported, NotCoprime,
                              OddOrder, OrderDoesNotDivide, ParseError)
from cyclodiff.ff import make_field
from cyclodiff.polysys import (MPoly, PolySystem, SolutionVector, dft,
                               dft_bridge, dft_bridge_inverse,
                               explicit_solution, gauss_solution,
                               gen_g_system, gen_ghat_system, planar_probe,
                               planar_system, symmetry_transform,
                               system_from_text, system_to_text, theta_reduce,
                               verify_solution)


# -- polynomials -----------------------------------------------------------------


def test_mpoly_arithmetic():
    x = MPoly.var(0, 2)
    y = MPoly.var(1, 2)
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert (f - f).is_zero()
    assert f.evaluate([3, 2]) == 5
    assert (x * 2 + 1).evaluate([CycInt.root(6)]) == \
        CycInt.root(6) * 2 + CycInt.integer(1, 6)
    g = MPoly.var(0, 1, power=3, coeff=-2)
    assert g.total_degree() == 3
    assert g.canonical().sorted_terms()[0][1] > 0


def test_mpoly_refuses_non_integral_coefficients():
    # nothing is truncated: 1/2 is not dropped, 2.7 does not become 2
    for c in (Fraction(1, 2), 2.7):
        with pytest.raises(ValueError, match="non-integral"):
            MPoly(1, {(1,): c, (0,): 1})
    # integral values of other types are kept, and zeros dropped
    assert MPoly(1, {(1,): Fraction(4, 2), (0,): 3.0, (2,): 0}) == \
        MPoly(1, {(1,): 2, (0,): 3})
    assert MPoly(2, {(2.0, 1): 3}).terms == {(2, 1): 3}


@pytest.mark.parametrize("nvars, exps, message", [
    (1, (1.5,), "nonnegative integers"),   # used to become (1,)
    (1, (-1,), "nonnegative integers"),    # used to be kept
    (2, (1,), "in 2 variables"),           # a short tuple, kept
    (1, (1, 0), "in 1 variables"),         # a long tuple, kept
])
def test_mpoly_refuses_bad_exponents(nvars, exps, message):
    with pytest.raises(ValueError, match=message):
        MPoly(nvars, {exps: 1})


def test_mpoly_canonical_sign():
    x = MPoly.var(0, 1)
    assert (-(x * x) + 1).canonical() == (x * x - 1).canonical()


# -- system generation -----------------------------------------------------------


def test_g_system_shape():
    system = gen_g_system(6)
    assert system.level == "g"
    assert system.var_names == ("g0", "g1", "g2", "g3", "g4", "g5", "h")
    assert len(system.polys) == 8                 # 3m/2 - 1
    assert all(p.total_degree() <= 1 + 6 // 2 for p in system.polys)
    with pytest.raises(OddOrder):
        gen_g_system(5)


def test_ghat_system_shape_and_theta_normalization():
    system = gen_ghat_system(6, 1)
    assert len(system.polys) == 9                 # 3m/2
    assert system.var_names == tuple(f"ghat{t}" for t in range(6))
    assert gen_ghat_system(6, 4).theta == 1       # reduced mod m/2
    assert gen_ghat_system(6, 3).theta == 0


def test_planar_system_shape():
    system = planar_system(8)
    assert len(system.polys) == 10                # 3m/2 - 2 after h = 1
    assert system.meta["q"] == 73
    assert system.meta["q_is_prime"] is True
    assert "h" not in system.var_names


# -- solutions -------------------------------------------------------------------


def test_explicit_solution_exact_small():
    for m in (4, 6, 8, 10, 12, 14):
        sol = explicit_solution(m)
        res = verify_solution(gen_g_system(m), sol, mode="exact")
        assert res.ok, m
        assert sol.values[0].as_integer() == m // 2 - 1


def test_gauss_solution_scaled_exact():
    field = make_field(13)
    sol = gauss_solution(field, 4, True)
    assert sol.provenance["scale_sq"] == 13
    assert sol.provenance["is_difference_set"] is True
    assert sol.values[0].as_integer() == 3        # m - 1 on the modified side
    res = verify_solution(gen_g_system(4), sol, mode="scaled_exact")
    assert res.ok
    sol11 = gauss_solution(make_field(11), 10, False)
    assert sol11.values[0].as_integer() == -1     # plain side constant
    assert verify_solution(gen_g_system(10), sol11, mode="scaled_exact").ok


def test_gauss_solution_needs_an_order_dividing_q_minus_1():
    # the character's own guard, so m = 0 is refused the same way
    for m in (0, 4):
        with pytest.raises(OrderDoesNotDivide,
                           match=f"m={m} does not divide q-1=6"):
            gauss_solution(make_field(7), m)


def test_gauss_solution_over_extension_fields():
    # residuals vanish exactly when the class is a difference set
    cases = 0
    for p, e in [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)]:
        field = make_field(p, e)
        for m in range(2, current_limits().polysys_m_max + 1, 2):
            if (field.q - 1) % m:
                continue
            system = gen_g_system(m)
            for modified in (False, True):
                sol = gauss_solution(field, m, modified)
                res = verify_solution(system, sol, mode="scaled_exact")
                assert all(res.zeros) == sol.provenance["is_difference_set"], \
                    (field.q, m, modified)
                cases += 1
    assert cases == 50


def test_gauss_solution_numeric():
    field = make_field(11)
    sol = gauss_solution(field, 10, False)
    res = verify_solution(gen_g_system(10), sol, mode="numeric", tol=1e-8)
    assert res.ok
    assert res.max_bound < 1e-8
    assert res.membership["g0_real"]


def test_verify_mode_errors():
    sol = explicit_solution(6)
    with pytest.raises(ModeUnsupported):
        verify_solution(gen_g_system(6), sol, mode="scaled_exact")
    with pytest.raises(ArityMismatch):
        verify_solution(gen_g_system(8), sol, mode="exact")


@pytest.mark.parametrize("tol", [float("inf"), -1.0, float("nan")])
def test_verify_refuses_a_tolerance_outside_zero_to_infinity(tol):
    # an infinite tolerance used to pass a point far off the variety
    bad = SolutionVector("g", 6, None,
                         (CycInt.integer(5),) + explicit_solution(6).values[1:],
                         {})
    with pytest.raises(ValueError):
        verify_solution(gen_g_system(6), bad, mode="numeric", tol=tol)


def test_exact_verify_rejects_wrong_point():
    sol = explicit_solution(6)
    bad = SolutionVector("g", 6, None,
                         (CycInt.integer(5),) + sol.values[1:],
                         dict(sol.provenance))
    res = verify_solution(gen_g_system(6), bad, mode="exact")
    assert not res.ok
    assert not all(res.zeros)


# -- symmetries ------------------------------------------------------------------


def test_negate_twist_reindex_preserve_membership():
    system = gen_g_system(6)
    sol = explicit_solution(6)
    for transform in [("negate",), ("twist", 1), ("twist", 5), ("reindex", 5)]:
        moved = symmetry_transform(sol, transform)
        assert verify_solution(system, moved, mode="exact").ok, transform
        assert moved.provenance["transformed_by"][-1][0] == transform[0]


def test_reindex_requires_coprime():
    # at the g level and, through the Fourier dictionary, at the ghat level
    g = explicit_solution(6)
    for sol in (g, dft_bridge_inverse(g)):
        with pytest.raises(NotCoprime):
            symmetry_transform(sol, ("reindex", 2))


def test_reindex_powers_h():
    # decisive case: the Gauss point of F_11 at order 10 has h = zeta_5^2;
    # relabeling g_s -> g_{rs} only stays on the variety with h -> h^r
    field = make_field(11)
    system = gen_g_system(10)
    sol = gauss_solution(field, 10, False)
    for r in (3, 7, 9):
        moved = symmetry_transform(sol, ("reindex", r))
        assert verify_solution(system, moved, mode="scaled_exact").ok, r
        assert moved.values[10] == sol.values[10] ** r


def test_reindex_on_ghat_adjusts_theta():
    sol = dft_bridge_inverse(explicit_solution(6))
    assert sol.level == "ghat"
    moved = symmetry_transform(sol, ("reindex", 5))
    # r^{-1} theta mod m/2 with r = 5, m = 6
    assert moved.theta == (pow(5, -1, 3) * sol.theta) % 3
    assert verify_solution(gen_ghat_system(6, moved.theta), moved,
                           mode="exact").ok


def test_bridges_and_symmetries_check_the_arity():
    # a g-level solution has m + 1 values, a ghat-level one m
    g = explicit_solution(4)
    ghat = dft_bridge_inverse(g)
    short_g = SolutionVector("g", 4, None, g.values[:2], {})
    short_ghat = SolutionVector("ghat", 4, 1, ghat.values[:2], {})
    long_ghat = SolutionVector("ghat", 4, 1, g.values, {})
    for bad in (short_ghat, long_ghat):
        with pytest.raises(ArityMismatch, match="needs 4 values"):
            dft_bridge(bad)
    with pytest.raises(ArityMismatch, match="needs 5 values, got 2"):
        dft_bridge_inverse(short_g)
    for bad in (short_g, short_ghat, long_ghat):
        for transform in (("negate",), ("twist", 1), ("reindex", 3)):
            with pytest.raises(ArityMismatch):
                symmetry_transform(bad, transform)
    # the right lengths still pass
    assert len(dft_bridge(ghat).values) == 5
    assert len(symmetry_transform(ghat, ("negate",)).values) == 4


# -- DFT bridge ------------------------------------------------------------------


def test_dft_round_trip():
    values = tuple(CycInt.root(12, k) for k in (0, 3, 5, 7))
    hat = dft(values)
    back = dft(hat, inverse=True)
    for a, b in zip(values, back):
        assert CycNum.of(a) == CycNum.of(b)


def test_bridge_and_inverse_are_mutual():
    for m, theta_vehicle in [(4, explicit_solution(4)),
                             (6, explicit_solution(6))]:
        ghat = dft_bridge_inverse(theta_vehicle)
        assert ghat.level == "ghat" and ghat.m == m
        assert verify_solution(gen_ghat_system(m, ghat.theta), ghat,
                               mode="exact").ok
        g_again = dft_bridge(ghat)
        assert verify_solution(gen_g_system(m), g_again, mode="exact").ok
        for a, b in zip(theta_vehicle.values, g_again.values):
            assert CycNum.of(a) == CycNum.of(b)


def test_bridge_gauss_point():
    sol = gauss_solution(make_field(7), 6, False)
    ghat = dft_bridge_inverse(sol)
    assert ghat.theta == 2
    assert ghat.provenance["scale_sq"] == 7
    assert verify_solution(gen_ghat_system(6, 2), ghat,
                           mode="scaled_exact").ok


def test_theta_reduce():
    assert theta_reduce(6, 0) == (1, 0)
    assert theta_reduce(6, 1) == (1, 1)
    assert theta_reduce(6, 2) == (5, 1)
    assert theta_reduce(12, 9) == (1, 3)
    assert theta_reduce(16, 6) == (3, 2)
    assert theta_reduce(10, 7) == (7, 1)
    for m, theta in [(6, 2), (16, 6), (10, 7), (12, 10), (20, 6)]:
        r, d = theta_reduce(m, theta)
        half = m // 2
        assert (half % d == 0) or d == 0
        # transporting by r must land the vehicle on the canonical branch
        from math import gcd
        assert gcd(r, m) == 1
        if d:
            assert (r * d) % half == theta % half


def test_theta_reduce_transports_vehicle():
    # order 6 Gauss point sits at theta = 2; the canonical branch is 1
    sol = dft_bridge_inverse(gauss_solution(make_field(7), 6, False))
    r, d = theta_reduce(6, sol.theta)
    moved = symmetry_transform(sol, ("reindex", pow(r, -1, 6) % 6))
    assert moved.theta == d == 1
    assert verify_solution(gen_ghat_system(6, 1), moved,
                           mode="scaled_exact").ok


# -- serialization ---------------------------------------------------------------


def test_system_text_round_trip():
    for system in (gen_g_system(6), gen_ghat_system(8, 3), planar_system(8),
                   gen_g_system(2)):
        text = system_to_text(system)
        parsed = system_from_text(text)
        assert system_to_text(parsed) == text
        assert parsed.m == system.m
        assert parsed.level == system.level
        assert parsed.theta == system.theta
        assert parsed.polys == system.polys


def test_system_text_errors():
    good = system_to_text(gen_g_system(4))
    with pytest.raises(ParseError):
        system_from_text(good.replace("cyclodiff-system v1", "who-knows"))
    with pytest.raises(ParseError):
        system_from_text(good.replace("g1", "g9", 1))
    with pytest.raises(ParseError):
        system_from_text(good + "poly: 3*\n")
    # a repeated name would leave the polynomials short of var_names
    header = "# cyclodiff-system v1 m=2 level=g theta=-\n"
    for text in ("vars: g0 g0\npoly: 1*g0^2\n",
                 "vars: h g0 h\npoly: 1*h^1 - 1*g0^1\n"):
        with pytest.raises(ParseError, match="repeated variable"):
            system_from_text(header + text)


def test_solution_json_round_trip():
    for sol in (explicit_solution(6),
                gauss_solution(make_field(13), 4, True),
                dft_bridge_inverse(explicit_solution(6))):
        back = SolutionVector.from_json(sol.to_json())
        assert back.level == sol.level
        assert back.m == sol.m
        assert back.theta == sol.theta
        assert back.values == sol.values
        assert back.provenance == json.loads(json.dumps(sol.provenance))


def test_solution_json_errors():
    good = json.loads(explicit_solution(6).to_json())
    del good["values"][1]["coeffs"]
    zero_den = json.loads(explicit_solution(6).to_json())
    zero_den["values"][1]["den"] = 0
    half = json.loads(explicit_solution(6).to_json())
    half["values"][1]["coeffs"][0] += 0.5   # used to be truncated
    for text in ("{}", json.dumps(good), "[]", '{"values": 5}',
                 json.dumps(zero_den), json.dumps(half)):
        with pytest.raises(ParseError):
            SolutionVector.from_json(text)
    for level in ("foo", "G", None, 1):
        data = json.loads(explicit_solution(6).to_json())
        data["level"] = level
        with pytest.raises(ParseError, match="unknown level"):
            SolutionVector.from_json(json.dumps(data))


def test_symmetries_refuse_an_unknown_level():
    # a 4-value solution at m = 4 with level "foo" used to come back from
    # negate relabelled "ghat"
    sol = SolutionVector("foo", 4, None, (CycInt.integer(1),) * 4, {})
    for transform in (("negate",), ("twist", 1), ("reindex", 3)):
        with pytest.raises(ModeUnsupported, match="'foo' is not one of"):
            symmetry_transform(sol, transform)


def test_planar_probe_values():
    probe = planar_probe(8)
    assert probe == {"m": 8, "q": 73, "q_is_prime": True, "two_is_power": True,
                     "h_is_one": True, "is_difference_set": True,
                     "scaled_exact_ok": True}
    assert planar_probe(10) == {"m": 10, "q": 111, "q_is_prime": False}
    big = planar_probe(12)
    assert big["q_is_prime"] and not big["two_is_power"]
    # Z[zeta_1884] lies inside the ring bound, so the Gauss vector is checked
    assert big["scaled_exact_ok"] is False
    # Z[zeta_2954] does not: the cheap flags settle the probe alone
    past = planar_probe(14)
    assert past["q_is_prime"] and not past["two_is_power"]
    assert past["scaled_exact_ok"] is None
