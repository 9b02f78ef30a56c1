"""Exact partition numbers and the truncated Rademacher kernels that the
oscillating-sum machinery feeds on.

The exact table is the oracle everything else is checked against: it is
grown by Euler's pentagonal recurrence

    p(k) = sum_{j>=1} (-1)^{j+1} (p(k - j(3j-1)/2) + p(k - j(3j+1)/2))

and the alternating checksum over all pentagonal shifts of a given x
must vanish identically, which is the first acceptance gate.

The kernels p1..p4 are the explicitly printed one/two/four-term
truncations of the Hardy-Ramanujan-Rademacher series; RADEMACHER lists
them, and sqrt(p1), each with its binder and growth rate.

The exact half (the table, pentagonal, pnt_checksum) is integers only,
so importing this module loads no mpmath.  mpmath and numerics enter
inside the growth rates, the binders and the kernels they return.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import DomainError, ResourceError

if TYPE_CHECKING:
    from mpmath import mpf

    from .numerics import PrecisionContext

# Largest n of an exact table; the largest in use is 10,101 (pnt-verify in
# the cli-mix benchmark); pnt-verify at the cap takes about 10 s, 5 s of
# it growing the table (CPython 3.11, one core of a 2-core Xeon).
MAX_PARTITION_N = 100_000


def growth_p1() -> mpf:
    """The growth rate c of p1, p2 and p4 (kernel ~ e^{c sqrt(y)}):
    pi sqrt(2/3) at the current working precision."""
    from mpmath import mp, mpf
    return mp.pi * mp.sqrt(mpf(2) / 3)


def growth_p3() -> mpf:
    """The growth rate of p3 and sqrt(p1): pi / sqrt(6) at the current
    working precision."""
    from mpmath import mp, mpf
    return mp.pi / mp.sqrt(mpf(6))


def pentagonal(n: int) -> int:
    """Generalized pentagonal number n(3n-1)/2 for n in Z."""
    return n * (3 * n - 1) // 2


def _pentagonal_shifts(values: Sequence[int], k: int) -> int:
    """sum_{j>=1} (-1)^{j+1} (p(k - j(3j-1)/2) + p(k - j(3j+1)/2)) over
    values[i] = p(i), i < k: p(k) by Euler's recurrence."""
    total = 0
    j, g1 = 1, 1  # g1 = pentagonal(j), g1 + j = pentagonal(-j)
    while g1 <= k:
        term = values[k - g1]
        if g1 + j <= k:
            term += values[k - g1 - j]
        total += term if j % 2 else -term
        g1 += 3 * j + 1
        j += 1
    return total


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
            values.append(_pentagonal_shifts(values, k))

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
    return tab.partition(x) - _pentagonal_shifts(tab._values, x)  # partition grows the table


def _as_positive_int(x) -> int:
    """Accept int or an exactly-integral rational, float or mpf; the sign
    factor (-1)^x in p3 is only defined at integers."""
    if type(x) is int and x >= 1:
        return x
    if isinstance(x, (bool, str)):
        raise DomainError("x must be a positive integer")
    from .numerics import to_fraction_exact
    xf = to_fraction_exact(x)
    if xf.denominator != 1:
        raise DomainError("rademacher kernels are defined at integer arguments only, got %r" % (x,))
    if xf < 1:
        raise DomainError("rademacher kernels need x >= 1")
    return xf.numerator


# Each binder rounds its kernel's constants once, at the context's working
# precision, and returns y -> kernel(y) as an mpf.  The kernel makes the
# mpmath.libmp calls, rounded "n", that the mpf operators of the printed
# formula make, so its values are theirs bit for bit.  In particular
# v^1.5 stays mpf_pow, which rounds sqrt(v) at 10 extra bits and cubes
# it: v * sqrt(v) would round differently.

_THREE_HALVES = (0, 3, -1, 2)  # raw mpf 3/2: (sign, mantissa, exponent, bit count)


def _p1(prec: int):
    """Raw e^{pi sqrt(2x/3)} / (4x sqrt(3)) at prec."""
    from mpmath.libmp import from_int, mpf_div, mpf_exp, mpf_mul, mpf_mul_int, mpf_pi, mpf_sqrt
    pi, three = mpf_pi(prec, "n"), from_int(3)
    root3 = mpf_sqrt(three, prec, "n")

    def p1(y):
        x = from_int(_as_positive_int(y), prec, "n")
        arg = mpf_sqrt(mpf_div(mpf_mul_int(x, 2, prec, "n"), three, prec, "n"), prec, "n")
        return mpf_div(mpf_exp(mpf_mul(pi, arg, prec, "n"), prec, "n"),
                       mpf_mul(mpf_mul_int(x, 4, prec, "n"), root3, prec, "n"), prec, "n")
    return p1


def _pair(root: int, k: int, alternating: bool, prec: int):
    """Raw Rademacher pair (sqrt(root)/v - k sqrt(root)/(pi v^1.5))
    e^{(pi/k) sqrt(v)} at v = 24x - 1, times (-1)^x when alternating, as
    a function of (x, v, sqrt(v), v^1.5)."""
    from mpmath.libmp import (from_int, mpf_div, mpf_exp, mpf_mul, mpf_mul_int, mpf_neg,
                              mpf_pi, mpf_sqrt, mpf_sub)
    s = mpf_sqrt(from_int(root), prec, "n")
    ks, pi = mpf_mul_int(s, k, prec, "n"), mpf_pi(prec, "n")
    pi_k = mpf_div(pi, from_int(k), prec, "n")

    def pair(x, v, root_v, v_15):
        pre = mpf_sub(mpf_div(s, v, prec, "n"),
                      mpf_div(ks, mpf_mul(pi, v_15, prec, "n"), prec, "n"), prec, "n")
        val = mpf_mul(pre, mpf_exp(mpf_mul(pi_k, root_v, prec, "n"), prec, "n"), prec, "n")
        return mpf_neg(val) if alternating and x % 2 else val
    return pair


_P2 = (12, 6, False)  # the dominant pair of the main Rademacher term
_P3 = (6, 12, True)  # the second pair, carrying the sign (-1)^x


def _bind_pairs(ctx: PrecisionContext, *pairs):
    """y -> the sum of the given pairs at v = 24y - 1, as an mpf."""
    from mpmath import mp
    from mpmath.libmp import from_int, mpf_add, mpf_pow, mpf_sqrt
    prec = ctx.work_bits
    terms = [_pair(root, k, alternating, prec) for root, k, alternating in pairs]

    def kernel(y):
        x = _as_positive_int(y)
        v = from_int(24 * x - 1, prec, "n")
        args = (x, v, mpf_sqrt(v, prec, "n"), mpf_pow(v, _THREE_HALVES, prec, "n"))
        total = terms[0](*args)
        for term in terms[1:]:
            total = mpf_add(total, term(*args), prec, "n")
        return mp.make_mpf(total)
    return kernel


def bind_p1(ctx: PrecisionContext):
    """First Rademacher term e^{pi sqrt(2x/3)} / (4x sqrt(3))."""
    from mpmath import mp
    p1 = _p1(ctx.work_bits)
    return lambda y: mp.make_mpf(p1(y))


def bind_sqrt_p1(ctx: PrecisionContext):
    """sqrt(p1(x)), whose growth rate is p3's."""
    from mpmath import mp
    from mpmath.libmp import mpf_sqrt
    prec = ctx.work_bits
    p1 = _p1(prec)
    return lambda y: mp.make_mpf(mpf_sqrt(p1(y), prec, "n"))


# Every Rademacher kernel: name -> (binder, growth rate), in the order
# --kernel lists them.
RADEMACHER = {
    "p1": (bind_p1, growth_p1),
    "p2": (lambda ctx: _bind_pairs(ctx, _P2), growth_p1),
    "p3": (lambda ctx: _bind_pairs(ctx, _P3), growth_p3),
    "p4": (lambda ctx: _bind_pairs(ctx, _P2, _P3), growth_p1),  # p2 + p3
    "sqrt_p1": (bind_sqrt_p1, growth_p3),
}
# The Rademacher kernels that carry the sign (-1)^x, through _P3.
PARITY_SIGNED = ("p3", "p4")
