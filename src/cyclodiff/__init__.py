"""Exact arithmetic for power-residue difference sets and their character sums."""

from .config import Limits, current_limits, reload_limits
from .errors import (ArityMismatch, BoundExceeded, CyclodiffError,
                     DivisionByZero, LimitExceeded, ModeUnsupported,
                     NotAMultiple, NotCoprime, NotPrime, NotTabulated,
                     NotZeroDimensional, OddOrder, OrderDoesNotDivide,
                     OrderMismatch, ParseError, TrivialPower,
                     UncertifiedBasis, ZeroArgument, ZeroGamma,
                     ZeroMultiplier, ZeroPolynomial)
from .ff import FFElement, FiniteField, dlog, is_prime, make_field, trace
from .intpoly import (IntPoly, count_real_roots, cyclotomic_polynomial_unbounded,
                      poly_gcd, rational_roots, squarefree_part)
from .cyclotomic import (ComplexInterval, CycInt, CycNum, cyc_lift,
                         cyclotomic_polynomial, embed, galois, zeta_interval)
from .charsums import (Character, CharSumValue, character, chi_eval,
                       gauss_sum, h_class_sum, jacobi_row_sum, jacobi_sum,
                       verify_identity_suite)
from .diffsets import (ClassificationTable, CyclotomicClass, DSParams,
                       DSReport, VERDICT_DS, VERDICT_INFEASIBLE, VERDICT_NOT,
                       check_charsum, check_direct, check_gauss, check_jacobi,
                       cyclotomic_class, difference_counts, known_family_match,
                       multiplier_check, prime_powers, run_all_checkers, scan)
from .polysys import (MPoly, PolySystem, Residuals, SolutionVector, dft,
                      dft_bridge, dft_bridge_inverse, explicit_solution,
                      gauss_solution, gen_g_system, gen_ghat_system,
                      planar_probe, planar_system, symmetry_transform,
                      system_from_text, system_to_text, theta_reduce,
                      verify_solution)
from .groebner import (GBasis, buchberger, certify, compute_f_poly,
                       eliminate_to_univariate, is_zero_dimensional,
                       normal_form, probe_g0_zero, staircase)
from .tables import (TABULATED_ORDERS, f_table, nonexistence_gate,
                     product_check)

__version__ = "0.1.0"
