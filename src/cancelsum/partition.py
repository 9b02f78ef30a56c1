"""Exact partition numbers and the truncated asymptotic kernels that the
oscillating-sum machinery feeds on.

The exact table is the oracle everything else is checked against: it is
grown by Euler's pentagonal recurrence

    p(k) = sum_{j>=1} (-1)^{j+1} (p(k - j(3j-1)/2) + p(k - j(3j+1)/2))

and the alternating checksum over all pentagonal shifts of a given x
must vanish identically, which is the first acceptance gate.

The kernels p1..p4 are the explicitly printed one/two/four-term
truncations of the Hardy-Ramanujan-Rademacher series; q1_kernel and
p5_kernel are the distinct-part and mod-5 analogues, and
meinardus_kernel is the generic template (g(n))^q e^{(k(n))^theta}
(1 - h(n)^{-r}) that specializes to p2 for the usual partition
parameters.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from mpmath import mp, mpf

from .errors import DomainError
from .numerics import PrecisionContext, bessel_i, to_mpf_exact

# growth constants c in kernel ~ e^{c*sqrt(y)}, consumed by the precision policy
GROWTH_P1 = math.pi * math.sqrt(2.0 / 3.0)
GROWTH_P2 = GROWTH_P1
GROWTH_P4 = GROWTH_P1
GROWTH_P3 = math.pi / math.sqrt(6.0)
GROWTH_SQRT_P1 = GROWTH_P3


def growth_p1() -> mpf:
    """pi sqrt(2/3) at the current working precision."""
    return mp.pi * mp.sqrt(mpf(2) / 3)


def growth_p3() -> mpf:
    """pi / sqrt(6) at the current working precision."""
    return mp.pi / mp.sqrt(mpf(6))


def pentagonal(n: int) -> int:
    """Generalized pentagonal number n(3n-1)/2 for n in Z."""
    return n * (3 * n - 1) // 2


class ExactPartitionTable:
    """Append-only table of exact p(0..n_max), grown behind a lock.

    Reads of already-computed prefixes are safe concurrently; growth is
    serialized.  values[0] = 1 and the sequence is nondecreasing.
    """

    def __init__(self, values: Sequence[int] | None = None):
        self._values = list(values) if values else [1]
        self._lock = threading.Lock()
        if self._values[0] != 1:
            raise DomainError("partition table must start with p(0) = 1")

    @property
    def n_max(self) -> int:
        return len(self._values) - 1

    def grow(self, n_max: int) -> None:
        with self._lock:
            values = self._values
            for k in range(len(values), n_max + 1):
                total = 0
                j = 1
                while True:
                    g1 = k - j * (3 * j - 1) // 2
                    if g1 < 0:
                        break
                    term = values[g1]
                    g2 = k - j * (3 * j + 1) // 2
                    if g2 >= 0:
                        term += values[g2]
                    total += term if j % 2 else -term
                    j += 1
                values.append(total)

    def partition(self, n: int) -> int:
        if n < 0:
            raise DomainError("partition argument must be >= 0")
        if n >= len(self._values):
            self.grow(n)
        return self._values[n]


_TABLE = ExactPartitionTable()


def partition_exact(n: int) -> int:
    """Exact p(n) from the shared incrementally-cached table."""
    return _TABLE.partition(n)


def pnt_checksum(x: int, table: ExactPartitionTable | None = None) -> int:
    """sum over all n in Z (including n=0) with pentagonal(n) <= x of
    (-1)^n p(x - pentagonal(n)); identically 0 for x >= 1."""
    if x < 1:
        raise DomainError("pnt_checksum needs x >= 1")
    tab = table if table is not None else _TABLE
    total = tab.partition(x)  # n = 0 term
    n = 1
    while pentagonal(n) <= x or pentagonal(-n) <= x:
        sign = 1 if n % 2 == 0 else -1
        for g in (pentagonal(n), pentagonal(-n)):
            if g <= x:
                total += sign * tab.partition(x - g)
        n += 1
    return total


def _as_positive_int(x) -> int:
    """Accept int or an exactly-integral rational/mpf; the sign factor
    (-1)^x in p3 is only defined at integers."""
    if isinstance(x, bool):
        raise DomainError("x must be a positive integer")
    if isinstance(x, int):
        xi = x
    else:
        num = getattr(x, "numerator", None)
        den = getattr(x, "denominator", None)
        if num is not None and den == 1:
            xi = int(num)
        elif isinstance(x, mpf) and x == int(x):
            xi = int(x)
        elif isinstance(x, float) and x == int(x):
            xi = int(x)
        else:
            raise DomainError("rademacher kernels are defined at integer arguments only, got %r" % (x,))
    if xi < 1:
        raise DomainError("rademacher kernels need x >= 1")
    return xi


def p1(x, ctx: PrecisionContext) -> mpf:
    """First Rademacher term e^{pi sqrt(2x/3)} / (4x sqrt(3))."""
    xi = _as_positive_int(x)
    with ctx.workprec():
        xx = mpf(xi)
        return mp.exp(mp.pi * mp.sqrt(2 * xx / 3)) / (4 * xx * mp.sqrt(3))


def p2(x, ctx: PrecisionContext) -> mpf:
    """Two-term truncation: the dominant pair of the main Rademacher term."""
    xi = _as_positive_int(x)
    with ctx.workprec():
        v = mpf(24 * xi - 1)
        pre = mp.sqrt(12) / v - 6 * mp.sqrt(12) / (mp.pi * v ** mpf("1.5"))
        return pre * mp.exp(mp.pi / 6 * mp.sqrt(v))


def p3(x, ctx: PrecisionContext) -> mpf:
    """Second pair of Rademacher terms, carrying the sign (-1)^x."""
    xi = _as_positive_int(x)
    with ctx.workprec():
        v = mpf(24 * xi - 1)
        pre = mp.sqrt(6) / v - 12 * mp.sqrt(6) / (mp.pi * v ** mpf("1.5"))
        val = pre * mp.exp(mp.pi / 12 * mp.sqrt(v))
        return val if xi % 2 == 0 else -val


def p4(x, ctx: PrecisionContext) -> mpf:
    """Four-term truncation p2 + p3."""
    with ctx.workprec():
        return p2(x, ctx) + p3(x, ctx)


def q1_kernel(n, ctx: PrecisionContext) -> mpf:
    """Derivative kernel of the distinct-part count:
    d/dn I0(pi sqrt((n + 1/24)/3)) = pi/(2 sqrt(3) sqrt(n + 1/24)) * I1(...).

    The overall multiplicative constant is taken as 1; it scales the
    whole sum and cannot affect cancellation exponents.
    """
    if n <= 0:
        raise DomainError("q1_kernel needs n > 0")
    with ctx.workprec():
        shifted = to_mpf_exact(n) + mpf(1) / 24
        arg = mp.pi * mp.sqrt(shifted / 3)
        return mp.pi / (2 * mp.sqrt(3) * mp.sqrt(shifted)) * bessel_i(1, arg, ctx)


def p5_kernel(n, a: int, ctx: PrecisionContext, shift: int = 1) -> mpf:
    """Mod-5 partition kernel csc(pi a/5) (60n - A)^{-3/8} e^{(pi/15) sqrt(60n - A)}.

    The additive constant A (default 1) and the overall scale are not
    pinned down by the asymptotic being modeled, so A is configurable;
    only the exponent structure matters for cancellation tests.
    """
    if n < 1:
        raise DomainError("p5_kernel needs n >= 1")
    if a not in (1, 2, 3, 4):
        raise DomainError("p5_kernel needs a in 1..4")
    with ctx.workprec():
        v = 60 * to_mpf_exact(n) - shift
        if v <= 0:
            raise DomainError("p5_kernel argument 60n - A must be positive")
        return mp.csc(mp.pi * a / 5) * v ** mpf("-0.375") * mp.exp(mp.pi / 15 * mp.sqrt(v))


Coefficient = Union[int, float, str, Callable[[], mpf]]
RationalDescriptor = tuple[Sequence[Coefficient], Sequence[Coefficient]]


def _eval_poly(coeffs: Sequence[Coefficient], t: mpf) -> mpf:
    total = mpf(0)
    power = mpf(1)
    for c in coeffs:
        value = c() if callable(c) else mpf(c)
        total += value * power
        power *= t
    return total


@dataclass(frozen=True)
class MeinardusParams:
    """Parameters of the template (g(n))^q e^{(k(n))^theta} (1 - h(n)^{-r}).

    g, h, k are rational functions given as (numerator, denominator)
    coefficient sequences, low degree first.  Coefficients may be
    numbers or zero-argument callables producing an mpf at working
    precision, so irrational constants like pi^2/36 survive refinement.
    s_exp describes the regime the template models (0 < s < 1) and is
    carried as metadata; it does not enter the evaluated formula.
    """

    q_exp: float
    theta: float
    r_exp: float
    s_exp: float
    g: RationalDescriptor
    h: RationalDescriptor
    k: RationalDescriptor

    def __post_init__(self):
        if not (self.theta > 0 and self.r_exp > 0 and self.q_exp > 0):
            raise DomainError("MeinardusParams needs theta, r_exp, q_exp > 0")
        if not (0 < self.s_exp < 1):
            raise DomainError("MeinardusParams needs 0 < s_exp < 1")


def meinardus_kernel(params: MeinardusParams) -> Callable[[object, PrecisionContext], mpf]:
    """Kernel closure (g(n))^q e^{(k(n))^theta} (1 - h(n)^{-r}).

    Raises DomainError if any of g, h, k is nonpositive at the
    evaluation point.
    """

    def kernel(n, ctx: PrecisionContext) -> mpf:
        with ctx.workprec():
            t = to_mpf_exact(n)
            values = {}
            for name, (num, den) in (("g", params.g), ("h", params.h), ("k", params.k)):
                d = _eval_poly(den, t)
                if d == 0:
                    raise DomainError("meinardus %s(n) has zero denominator at n=%s" % (name, n))
                v = _eval_poly(num, t) / d
                if v <= 0:
                    raise DomainError("meinardus %s(n) must be positive at n=%s" % (name, n))
                values[name] = v
            return (
                values["g"] ** mpf(params.q_exp)
                * mp.exp(values["k"] ** mpf(params.theta))
                * (1 - values["h"] ** (-mpf(params.r_exp)))
            )

    return kernel


def usual_partition_params() -> MeinardusParams:
    """Instantiation reproducing p2: g = sqrt(12)/(24n-1),
    h = k = (pi^2/36)(24n-1), q=1, theta=r=s=1/2."""
    return MeinardusParams(
        q_exp=1.0,
        theta=0.5,
        r_exp=0.5,
        s_exp=0.5,
        g=((lambda: mp.sqrt(12),), (-1, 24)),
        h=((lambda: -(mp.pi ** 2) / 36, lambda: 24 * (mp.pi ** 2) / 36), (1,)),
        k=((lambda: -(mp.pi ** 2) / 36, lambda: 24 * (mp.pi ** 2) / 36), (1,)),
    )

