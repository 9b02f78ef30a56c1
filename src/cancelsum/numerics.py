"""Arbitrary-precision arithmetic policy and shared special functions.

Everything downstream sums quantities of size e^{c*sqrt(x)} that cancel
down to e^{w*c*sqrt(x)} with w < 1, so the working precision must scale
with c*sqrt(x).  The policy here is

    bits = max(128, ceil(c*sqrt(x)*log2(e)) + 96)

which keeps at least 96 significant fractional bits (about 28 decimal
digits) in the cancelled result at the scales this package targets.

mpmath supplies the big-float type; this module owns the precision
policy, the principal square root convention (Re >= 0, ties broken
toward Im >= 0) and a direct-series Bessel I0/I1 used by the kernel
modules.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_rational

from .errors import DomainError, ResourceError

# The largest grid in use needs about 1,300 bits; beyond this ceiling a
# single multiplication outgrows any run this package is meant for.
MAX_PRECISION_BITS = 100_000


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in binary bits plus guard bits for accumulation.

    All operations accumulate at bits + guard_bits and are quoted as
    accurate to roughly bits - 8 significant bits.
    """

    bits: int
    guard_bits: ClassVar[int] = 32

    def __post_init__(self):
        if self.bits < 128:
            raise DomainError("PrecisionContext.bits must be >= 128, got %r" % (self.bits,))
        if self.bits > MAX_PRECISION_BITS:
            raise ResourceError("precision of %s bits exceeds budget %d"
                                % (mp.nstr(mpf(self.bits), 6), MAX_PRECISION_BITS))

    @contextmanager
    def workprec(self):
        """mpmath context at bits + guard_bits binary precision."""
        with mp.workprec(self.bits + self.guard_bits):
            yield mp


def context_for(x, c) -> PrecisionContext:
    """PrecisionContext satisfying the policy for growth e^{c*sqrt(x)}."""
    return PrecisionContext(bits=required_bits(x, c))


def required_bits(x, c) -> int:
    """Policy bits for a sum whose largest term is about e^{c*sqrt(x)}.

    c is a growth rate (see rate_value).  The policy reads it as a
    double, so every caller passing the same rate gets the same bits.

    required_bits(0, 1) = 128, required_bits(100, growth_p1) = 134.
    """
    xf = to_fraction_exact(x)
    with mp.workprec(53):
        cf = to_fraction_exact(rate_value(c))
    if xf < 0 or cf < 0:
        raise DomainError("required_bits needs x >= 0 and c >= 0")
    with mp.workprec(80):
        needed = mp.ceil(to_mpf_exact(cf) * mp.sqrt(to_mpf_exact(xf)) / mp.ln(2))
    return max(128, int(needed) + 96)


def rate_value(c) -> mpf:
    """A growth rate at the current working precision.  A rate is an
    exact number (int, Fraction, decimal string, mpf) or a zero-argument
    callable that returns the constant at the working precision, such
    as partition.growth_p1."""
    return c() if callable(c) else to_mpf_exact(c)


def bessel_i(alpha: int, z, ctx: PrecisionContext) -> mpf:
    """Modified Bessel I_alpha(z) for alpha in {0, 1}, z >= 0, by the
    ascending series sum_m (z/2)^{2m+alpha} / (m! (m+alpha)!).

    Terms are added until one falls below 2^-(bits+guard) relative to
    the running partial sum.  Arguments stay moderate (z <= ~10^3) at
    the scales used here, where the series is well conditioned because
    every term is positive.
    """
    if alpha not in (0, 1):
        raise DomainError("bessel_i supports alpha in {0, 1}, got %r" % (alpha,))
    if z < 0:
        raise DomainError("bessel_i needs z >= 0")
    with ctx.workprec():
        zz = mpf(z)
        if zz == 0:
            return mpf(1) if alpha == 0 else mpf(0)
        half = zz / 2
        # term at m=0: half^alpha / alpha!
        term = half ** alpha if alpha else mpf(1)
        total = term
        eps = mpf(2) ** (-(ctx.bits + ctx.guard_bits))
        m = 0
        while True:
            m += 1
            term = term * half * half / (m * (m + alpha))
            total += term
            if term < eps * total:
                break
        return total


def complex_sqrt_principal(w) -> mpc:
    """Principal square root: the root with Re >= 0; if Re = 0, the one
    with Im >= 0.  mpmath's mpc_sqrt is already this branch: off the
    real axis its real part is sqrt((|w| + Re w)/2) or |Im w| /
    sqrt(2 (|w| - Re w)), both > 0; on it, a negative w gives
    (0, sqrt(-w)); and mpmath has no signed zero.  The cut lies on the
    negative reals, off the contour legs (the contour module is
    responsible for placement)."""
    return mp.sqrt(mpc(w))


def to_mpf_exact(value) -> mpf:
    """Convert int/Fraction/str/mpf to mpf at the current working
    precision with a single correct rounding (Fractions by one exact
    big-int division, rounded once, never a float round-trip)."""
    if isinstance(value, (int, mpf)):
        return mpf(value)
    num = getattr(value, "numerator", None)
    den = getattr(value, "denominator", None)
    if num is not None and den is not None:
        return mp.make_mpf(from_rational(num, den, mp.prec, "n"))
    return mpf(value)


def to_fraction_exact(value) -> Fraction:
    """Exact rational from int/Fraction/float/str/mpf (all binary or
    decimal rationals); rejects non-finite values."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError("non-finite value %r" % (value,))
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError as exc:
            raise DomainError("cannot parse %r as a rational" % (value,)) from exc
    if isinstance(value, mpf):
        if not mp.isfinite(value):
            raise DomainError("non-finite value %r" % (value,))
        sign, man, exp, _ = value._mpf_
        frac = Fraction(man) * Fraction(2) ** exp
        return -frac if sign else frac
    num = getattr(value, "numerator", None)
    den = getattr(value, "denominator", None)
    if num is not None and den is not None:
        return Fraction(num, den)
    raise DomainError("cannot convert %r to an exact rational" % (value,))


def nstr_for_bits(value, bits: int) -> str:
    """Decimal-string rendering carrying the full precision of `bits`."""
    digits = int(math.ceil(bits * 0.30103)) + 3
    with mp.workprec(bits + 8):
        return mp.nstr(value, digits, strip_zeros=False)
