"""cancelsum: exact and arbitrary-precision tools for high-cancellation
alternating sums over quadratic index sets.

Submodules:
  numerics   precision policy, exact conversions
  partition  exact partition table, pentagonal checksum, p1..p4 kernels
  oscsum     quadratic forms, kernel specs, alternating sums and bounds
  primes     prime-power sieve, Chebyshev psi sums, interval halving, LSIV files
  pte        power-sum difference pairs and the alternating polynomial law
  contour    rectangular-contour quadrature for residue identities
  cli        command-line front end
"""

from .errors import (CancelsumError, DegenerateFitError, DegreeMismatchError,
                     DomainError, EmptyRangeError, PrecisionError,
                     QuadratureError, ResourceError)
from .numerics import (PrecisionContext, context_for, nstr_for_bits, rate_value,
                       required_bits, to_fraction_exact, to_mpf_exact)
from .partition import (ExactPartitionTable, p1, p2, p3, p4, partition_exact,
                        pentagonal, pnt_checksum)
from .oscsum import (KernelSpec, QuadraticForm, SumReport, alternating_sum,
                     bound_main1, bound_main2, complex_exp_kernel, delta,
                     empirical_exponent, exp_sqrt_kernel, maximize_delta,
                     pentagonal_form, power_kernel, rademacher_kernel,
                     square_form)
from .primes import (IntervalHalfReport, LambdaSieve, build_sieve,
                     coefficients_value, interval_union_measure,
                     lambda_coefficients, load_sieve, psi,
                     psi_interval_half, psi_weak_pentagonal, save_sieve)
from .pte import (IntegerPolynomial, PTEPair, PTERow, coefficient_bound_check,
                  construct_pair, detect_degree, empirical_constant,
                  f_r_exact, integer_root, k_regime, lemma_bound, lemma_sum,
                  pigeonhole_c, power_sum_diff, verify_pte_bound)
from .contour import (QuadratureResult, RectContour, ResidueReport,
                      build_contour, gauss_legendre_nodes,
                      integrate_rectangle, kernel_integrand,
                      residue_identity_check)

__version__ = "0.1.0"
