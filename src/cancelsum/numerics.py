"""Arbitrary-precision arithmetic policy and exact conversions.

Everything downstream sums quantities of size e^{c*sqrt(x)} that cancel
down to e^{w*c*sqrt(x)} with w < 1, so the working precision must scale
with c*sqrt(x).  The policy here is

    bits = max(128, ceil(c*sqrt(x)*log2(e)) + 96)

which keeps at least 96 significant fractional bits (about 28 decimal
digits) in the cancelled result at the scales this package targets.

mpmath supplies the big-float type; this module owns the precision
policy and the conversions between exact rationals and mpf.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from mpmath import mp, mpf
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
