"""cancelsum: exact and arbitrary-precision tools for high-cancellation
alternating sums over quadratic index sets.

Submodules:
  numerics   precision policy, exact conversions
  partition  exact partition table, pentagonal checksum, Rademacher kernels
  oscsum     quadratic forms, kernel specs, alternating sums and bounds
  primes     prime-power sieve, Chebyshev psi sums, interval halving, LSIV files
  pte        power-sum difference pairs and the alternating polynomial law
  contour    rectangular-contour quadrature for residue identities
  cli        command-line front end

Importing the package executes only `errors`.  Every other submodule is
registered in sys.modules and on the package by importlib's LazyLoader
and executes on its first attribute access, so a command runs only the
modules it uses.  `from cancelsum import X` resolves X through _EXPORTS.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import errors

# Each public name and the submodule that defines it: the one list of
# the package's exports.
_EXPORTS = {name: module for module, names in {
    "errors": "CancelsumError DegenerateFitError DegreeMismatchError DomainError "
              "EmptyRangeError PrecisionError QuadratureError ResourceError",
    "numerics": "PrecisionContext context_for nstr_for_bits rate_value required_bits "
                "to_fraction_exact to_mpf_exact",
    "partition": "ExactPartitionTable partition_exact pentagonal pnt_checksum",
    "oscsum": "KernelSpec QuadraticForm SumReport alternating_sum bound_main1 "
              "bound_main2 complex_exp_kernel delta empirical_exponent exp_sqrt_kernel "
              "maximize_delta pentagonal_form power_kernel rademacher_kernel square_form",
    "primes": "IntervalHalfReport LambdaSieve PrimeCoefficients build_sieve "
              "coefficients_value interval_union_measure lambda_coefficients load_sieve "
              "psi psi_interval_half psi_weak_pentagonal save_sieve",
    "pte": "IntegerPolynomial PTEPair PTERow coefficient_bound_check construct_pair "
           "detect_degree empirical_constant f_r_exact integer_root k_regime lemma_bound "
           "lemma_sum pigeonhole_c power_sum_diff verify_pte_bound",
    "contour": "QuadratureResult RectContour ResidueReport build_contour "
               "gauss_legendre_nodes integrate_rectangle kernel_integrand "
               "residue_identity_check",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)


def _lazy(name: str):
    """The submodule `name`, in sys.modules and unexecuted until an
    attribute of it is read."""
    spec = find_spec(__name__ + "." + name)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


numerics = _lazy("numerics")
partition = _lazy("partition")
oscsum = _lazy("oscsum")
primes = _lazy("primes")
pte = _lazy("pte")
contour = _lazy("contour")


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *_EXPORTS})


__version__ = "0.1.0"
