"""The package's public names: each resolves through `from cancelsum
import X` to its owner module's object, whichever submodules have
executed, and importing the package executes none of the lazy ones."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cancelsum

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The exports as the package listed them when it imported every
# submodule eagerly; none may go missing or change owner.
OWNERS = {
    "errors": "CancelsumError DegenerateFitError DegreeMismatchError DomainError "
              "EmptyRangeError PrecisionError QuadratureError ResourceError",
    "numerics": "PrecisionContext context_for nstr_for_bits rate_value required_bits "
                "to_fraction_exact to_mpf_exact",
    "partition": "ExactPartitionTable partition_exact pentagonal pnt_checksum",
    "oscsum": "KernelSpec QuadraticForm SumReport alternating_sum bound_main1 "
              "bound_main2 complex_exp_kernel delta empirical_exponent exp_sqrt_kernel "
              "maximize_delta pentagonal_form power_kernel rademacher_kernel square_form",
    "primes": "IntervalHalfReport LambdaSieve build_sieve "
              "coefficients_value interval_union_measure lambda_coefficients load_sieve "
              "psi psi_interval_half psi_weak_pentagonal save_sieve",
    "pte": "IntegerPolynomial PTEPair PTERow coefficient_bound_check construct_pair "
           "detect_degree empirical_constant f_r_exact integer_root k_regime lemma_bound "
           "lemma_sum pigeonhole_c power_sum_diff verify_pte_bound",
    "contour": "QuadratureResult RectContour ResidueReport build_contour "
               "gauss_legendre_nodes integrate_rectangle kernel_integrand "
               "residue_identity_check",
}
EXPORTS = [(owner, name) for owner, names in OWNERS.items() for name in names.split()]


def test_every_export_resolves_to_its_owner():
    wrong = []
    for owner, name in EXPORTS:
        namespace = {}
        exec("from cancelsum import %s" % name, namespace)
        module = importlib.import_module("cancelsum." + owner)
        if namespace[name] is not getattr(module, name) or name not in dir(cancelsum):
            wrong.append(name)
    assert wrong == []


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        cancelsum.no_such_name
    with pytest.raises(ImportError):
        exec("from cancelsum import no_such_name", {})


def test_package_import_executes_only_errors():
    # a lazy submodule is in sys.modules unexecuted; reading any attribute
    # of it would execute it, so only its type is read
    probe = """
import sys, types
executed = lambda: [name for name, module in sorted(sys.modules.items())
                    if name.startswith('cancelsum.') and type(module) is types.ModuleType]
import cancelsum
print(*executed())
from cancelsum import pigeonhole_c
assert pigeonhole_c is sys.modules['cancelsum.pte'].pigeonhole_c
print(*executed())
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "cancelsum.errors",
        # pte imports numerics and oscsum only inside the functions
        # that report floats
        "cancelsum.errors cancelsum.pte"]
