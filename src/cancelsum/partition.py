"""Exact partition numbers and the truncated Rademacher kernels that the
oscillating-sum machinery feeds on.

The exact table is the oracle everything else is checked against: it is
grown by Euler's pentagonal recurrence

    p(k) = sum_{j>=1} (-1)^{j+1} (p(k - j(3j-1)/2) + p(k - j(3j+1)/2))

and the alternating checksum over all pentagonal shifts of a given x
must vanish identically, which is the first acceptance gate.

The kernels p1..p4 are the explicitly printed one/two/four-term
truncations of the Hardy-Ramanujan-Rademacher series.
"""

from __future__ import annotations

from typing import Sequence

from mpmath import mp, mpf

from .errors import DomainError, ResourceError
from .numerics import PrecisionContext, to_fraction_exact

# Largest n of an exact table; the largest in use is 10,101 (pnt-verify in
# the cli-mix benchmark); pnt-verify at the cap takes about 40 s (CPython
# 3.11, one core).
MAX_PARTITION_N = 100_000


def growth_p1() -> mpf:
    """The growth rate c of p1, p2 and p4 (kernel ~ e^{c sqrt(y)}):
    pi sqrt(2/3) at the current working precision."""
    return mp.pi * mp.sqrt(mpf(2) / 3)


def growth_p3() -> mpf:
    """The growth rate of p3 and sqrt(p1): pi / sqrt(6) at the current
    working precision."""
    return mp.pi / mp.sqrt(mpf(6))


def pentagonal(n: int) -> int:
    """Generalized pentagonal number n(3n-1)/2 for n in Z."""
    return n * (3 * n - 1) // 2


class ExactPartitionTable:
    """Append-only table of exact p(0..n_max); values[0] = 1 and the
    sequence is nondecreasing."""

    def __init__(self, values: Sequence[int] | None = None):
        self._values = list(values) if values else [1]
        if self._values[0] != 1:
            raise DomainError("partition table must start with p(0) = 1")

    @property
    def n_max(self) -> int:
        return len(self._values) - 1

    def grow(self, n_max: int) -> None:
        if n_max > MAX_PARTITION_N:
            raise ResourceError("partition table to %d exceeds budget %d"
                                % (n_max, MAX_PARTITION_N))
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
    """Accept int or an exactly-integral rational, float or mpf; the sign
    factor (-1)^x in p3 is only defined at integers."""
    if isinstance(x, (bool, str)):
        raise DomainError("x must be a positive integer")
    xf = to_fraction_exact(x)
    if xf.denominator != 1:
        raise DomainError("rademacher kernels are defined at integer arguments only, got %r" % (x,))
    if xf < 1:
        raise DomainError("rademacher kernels need x >= 1")
    return xf.numerator


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
