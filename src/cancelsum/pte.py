"""Exact-integer Prouhet-Tarry-Escott machinery.

construct_pair builds the approximate-solution family

    xs[i] = N^{2m+1} - (2i-2)^2,   ys[i] = N^{2m+1} - (2i-1)^2

with N = floor((2n)^{2m/(2m+1)}), whose power-sum differences
sum xs^r - sum ys^r stay far below max(xs)^r for small r.  Everything
here is exact big-integer or rational arithmetic; the only floats are
the reported ratios against the N^{r(2m+1/2)} reference bound.

f_r_exact and detect_degree cover the companion polynomial fact: the
alternating sum f_r(M) = sum_{|l|<2M} (-1)^l (4M^2 - l^2)^r collapses
to a polynomial in M of degree r-1 for even r (r for odd r), found by
exact forward differences and certified by integer interpolation.
f_r and the even-order lemma sums share one integer walk,
_square_powers: sum_{|l|<=L} (-1)^l (N - l^2 D)^h.  The lemma sums take
x - l^2/T from oscsum's QuadraticForm.cleared, in integers over one
common denominator, and the odd-order ones accumulate in
oscsum.alternating_walk, the walk of every alternating sum.

The pair, f_r, the degree and the pigeonhole exponent need only integers
and Fractions, so importing this module loads no mpmath.  mpmath, with
numerics and oscsum, enters inside the functions that report floats:
verify_pte_bound, PTERow.to_json_dict, lemma_sum and lemma_bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import DegreeMismatchError, DomainError, ResourceError

if TYPE_CHECKING:
    from mpmath import mpf

    from .numerics import PrecisionContext

# Largest power r of a power-sum row or of f_r; the largest in use is 16
# (frm-degree --r-max 16); frm-degree at the cap takes about 0.3 s
# (CPython 3.11, one core of a 2-core Xeon).
MAX_POWER = 64

# Largest n of a pair; the largest in use is about 105.
MAX_PAIR_N = 1_000_000

# Largest m of a pair; the largest in use is 2; pte-construct at this cap
# and n = MAX_PAIR_N takes about 0.4 s and 190 MB (CPython 3.11).
MAX_PAIR_M = 8

# Largest n * r_max of a power-sum table: n powers for each r <= r_max.
# The largest in use is about 420 (pte-verify --n 105 --m 1); at this cap
# and the m cap, pte-verify --n 1562 --m 8 --r-max 64 takes about 2 s
# (CPython 3.11, one core of a 2-core Xeon).
MAX_POWER_SUM_TERMS = 100_000

# Bits of an even lemma sum's numerator or denominator, bounded before
# its walk; the largest in use has about 70.  CPython prints an int of
# at most 4,300 digits (about 14,300 bits) by default.
MAX_LEMMA_BITS = 10_000


def integer_root(k: int, value: int) -> int:
    """Largest r >= 0 with r^k <= value, exact for any size: integer
    Newton steps from 2^ceil(bits/k), which is above the root, fall
    monotonically onto it."""
    if value < 0 or k < 1:
        raise DomainError("integer_root needs value >= 0 and k >= 1")
    if value < 2:
        return value
    r = 1 << -(-value.bit_length() // k)
    while True:
        s = ((k - 1) * r + value // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


class PTEPair(NamedTuple):
    """Two disjoint strictly-decreasing integer sequences with equal
    length and construction parameters (n, m, N)."""

    n: int
    m: int
    N: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    adjusted: bool


def construct_pair(n: int, m: int) -> PTEPair:
    """Build the pair; N is bumped by one (flagged) when the bare floor
    violates positivity, which a single increment always repairs since
    (N+1)^{2m+1} > (2n)^{2m} >= (2n-1)^2."""
    if n < 2 or m < 1:
        raise DomainError("construct_pair needs n >= 2 and m >= 1")
    if n > MAX_PAIR_N:
        raise ResourceError("n = %d exceeds budget %d" % (n, MAX_PAIR_N))
    if m > MAX_PAIR_M:
        raise ResourceError("m = %d exceeds budget %d" % (m, MAX_PAIR_M))
    N = integer_root(2 * m + 1, (2 * n) ** (2 * m))
    power = N ** (2 * m + 1)
    adjusted = power <= (2 * n - 1) ** 2
    if adjusted:
        N += 1
        power = N ** (2 * m + 1)
    xs = tuple(power - (2 * i - 2) ** 2 for i in range(1, n + 1))
    ys = tuple(power - (2 * i - 1) ** 2 for i in range(1, n + 1))
    return PTEPair(n=n, m=m, N=N, xs=xs, ys=ys, adjusted=adjusted)


def power_sum_diff(pair: PTEPair, r: int) -> int:
    """Exact sum(xs^r) - sum(ys^r); r = 0 is the degenerate 0."""
    if r < 0:
        raise DomainError("power_sum_diff needs r >= 0")
    return sum(x ** r for x in pair.xs) - sum(y ** r for y in pair.ys)


def k_regime(n: int, m: int) -> int:
    """floor(n^(1 - 1/(2m+1)) / log n) for n >= 2, the r-range the construction targets."""
    if n < 2:
        raise DomainError("k_regime needs n >= 2")
    return int(n ** (1.0 - 1.0 / (2 * m + 1)) / math.log(n))


class PTERow(NamedTuple):
    r: int
    diff: int
    bound: mpf
    ratio: mpf
    within_regime: bool

    def to_json_dict(self) -> dict:
        from .numerics import nstr_for_bits
        return {
            "r": self.r,
            "diff": str(self.diff),
            "bound": nstr_for_bits(self.bound, 128),
            "ratio": float(self.ratio),
            "within_regime": self.within_regime,
        }


def check_power_sum_budget(n: int, r_max: int) -> None:
    """ResourceError when verify_pte_bound's table of n powers for each
    r <= r_max exceeds MAX_POWER or MAX_POWER_SUM_TERMS; it needs only
    the sizes, so callers can run it before any work."""
    if r_max > MAX_POWER:
        raise ResourceError("r = %d exceeds budget %d" % (r_max, MAX_POWER))
    if n * r_max > MAX_POWER_SUM_TERMS:
        raise ResourceError("n * r_max = %d exceeds budget %d"
                            % (n * r_max, MAX_POWER_SUM_TERMS))


def verify_pte_bound(pair: PTEPair, r_max: int) -> list[PTERow]:
    """For each 1 <= r <= r_max: the exact difference, the reference
    bound N^{r(2m+1/2)}, and their ratio.  Rows beyond the k regime are
    flagged; the max ratio over in-regime rows is the empirical constant."""
    from mpmath import mp, mpf
    if r_max < 1:
        raise DomainError("verify_pte_bound needs r_max >= 1")
    check_power_sum_budget(pair.n, r_max)
    k = k_regime(pair.n, pair.m)
    rows = []
    bits = max(128, int(r_max * (2 * pair.m + 1) * math.log2(max(pair.N, 2))) + 64)
    with mp.workprec(bits):
        for r in range(1, r_max + 1):
            diff = power_sum_diff(pair, r)
            bound = mpf(pair.N) ** (mpf(r) * (2 * pair.m + mpf(1) / 2))
            ratio = abs(mpf(diff)) / bound
            rows.append(PTERow(r=r, diff=diff, bound=bound, ratio=ratio,
                               within_regime=r <= k))
    return rows


def empirical_constant(rows: list[PTERow]) -> mpf:
    """Max ratio over the rows inside the k regime."""
    inside = [row.ratio for row in rows if row.within_regime]
    if not inside:
        raise DomainError("no rows inside the k regime")
    return max(inside)


def _square_powers(N: int, D: int, L: int, h: int) -> int:
    """sum_{|l| <= L} (-1)^l (N - l^2 D)^h in integers, l and -l together."""
    total = 0
    for l in range(1, L + 1):
        term = (N - l * l * D) ** h
        total += -term if l % 2 else term
    return N ** h + 2 * total


def f_r_exact(M: int, r: int) -> int:
    """sum_{|l| < 2M} (-1)^l (4M^2 - l^2)^r, exact."""
    if M < 1:
        raise DomainError("f_r_exact needs M >= 1")
    if r < 0:
        raise DomainError("f_r_exact needs r >= 0")
    return _square_powers(4 * M * M, 1, 2 * M - 1, r)


class IntegerPolynomial(NamedTuple):
    """coeffs[j] is the coefficient of M^j; all integers."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        for j in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[j]:
                return j
        return -1

    def evaluate(self, M: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * M + c
        return total

    def __str__(self) -> str:
        if self.degree < 0:
            return "0"
        parts = []
        for j in range(self.degree, -1, -1):
            c = self.coeffs[j]
            if not c:
                continue
            term = "%d" % c if j == 0 else ("M" if j == 1 else "M^%d" % j)
            if j > 0 and abs(c) != 1:
                term = "%d%s" % (c, term)
            elif j > 0 and c == -1:
                term = "-%s" % term
            parts.append(term)
        out = " + ".join(parts).replace("+ -", "- ")
        return out


def detect_degree(r: int) -> tuple[int, IntegerPolynomial]:
    """Exact degree of M -> f_r(M) from forward differences of the
    samples M = 1 .. r + 4, plus the integer Newton interpolant.

    r + 4 samples leave room for the stabilization row (an all-zero
    difference row); raises DegreeMismatchError if the differences never
    stabilize or the detected degree violates the parity law (r-1 for
    even r, r for odd r).
    """
    if r < 1:
        raise DomainError("detect_degree needs r >= 1")
    if r > MAX_POWER:
        raise ResourceError("r = %d exceeds budget %d" % (r, MAX_POWER))
    samples = [f_r_exact(M, r) for M in range(1, r + 5)]
    diff_rows = [samples]
    while diff_rows[-1] and any(diff_rows[-1]):
        row = diff_rows[-1]
        if len(row) == 1:
            raise DegreeMismatchError(
                "differences of f_%d did not stabilize within %d samples" % (r, len(samples)))
        diff_rows.append([row[i + 1] - row[i] for i in range(len(row) - 1)])
    degree = len(diff_rows) - 2  # last row is all zeros

    # Newton forward interpolant from M = 1, in powers of M
    m_coeffs = [Fraction(0)] * (degree + 1)
    basis = [1]  # integer coefficients of prod_{i<j} (M - 1 - i)
    for j in range(degree + 1):
        lead = Fraction(diff_rows[j][0], math.factorial(j))
        for idx, c in enumerate(basis):
            m_coeffs[idx] += lead * c
        basis = [a - (j + 1) * b for a, b in zip([0] + basis, basis + [0])]  # times M - (j + 1)
    ints = []
    for c in m_coeffs:
        if c.denominator != 1:
            raise DegreeMismatchError("interpolant of f_%d has non-integer coefficient %s" % (r, c))
        ints.append(int(c))
    poly = IntegerPolynomial(tuple(ints))
    for M, s in enumerate(samples, start=1):
        if poly.evaluate(M) != s:
            raise DegreeMismatchError("interpolant of f_%d fails to reproduce its samples" % (r,))
    expected = r - 1 if r % 2 == 0 else r
    if degree != expected:
        raise DegreeMismatchError(
            "f_%d degree %d violates the parity law (expected %d)" % (r, degree, expected))
    return degree, poly


def coefficient_bound_check(r: int, poly: IntegerPolynomial) -> bool:
    """max |coefficient| <= 100 (2r)!."""
    if not poly.coeffs:
        return True
    return max(abs(c) for c in poly.coeffs) <= 100 * math.factorial(2 * r)


def pigeonhole_c(n: int, k: int) -> Fraction:
    """max(0, 1 - 2n/(k(k+1))), the pigeonhole baseline exponent."""
    if n < 1 or k < 1:
        raise DomainError("pigeonhole_c needs n, k >= 1")
    value = 1 - Fraction(2 * n, k * (k + 1))
    return value if value > 0 else Fraction(0)


def lemma_sum(x, T, k: int, ctx: PrecisionContext | None = None):
    """sum_{l^2 < xT} (-1)^l (x - l^2/T)^{k/2}: exact Fraction for even k
    and rational x, T; high-precision mpf for odd k (ctx required).
    The range is square_form(T)'s, so x > 0 and T > 0 (l = 0 alone when
    xT <= 1).  ResourceError when an even sum could pass MAX_LEMMA_BITS."""
    from .numerics import to_fraction_exact
    from .oscsum import alternating_walk, power_kernel, square_form
    if k < 0:
        raise DomainError("lemma_sum needs k >= 0")
    q = square_form(to_fraction_exact(T))
    _, L = q.index_range(x)
    if k % 2 == 0:
        # x - l^2/T = (-C - l^2 A) / scale, and each of the 2L + 1 terms
        # is at most (-C)^h, so these bits bound the sum before the walk
        scale, A, _, C = q.cleared(x)
        h = k // 2
        if h * max(-C, scale).bit_length() + (2 * L + 1).bit_length() > MAX_LEMMA_BITS:
            raise ResourceError("lemma sum at k = %d exceeds budget of %d bits"
                                % (k, MAX_LEMMA_BITS))
        return Fraction(_square_powers(-C, A, L, h), scale ** h)
    if ctx is None:
        raise DomainError("odd k needs a PrecisionContext")
    with ctx.workprec():
        K = power_kernel(Fraction(k, 2)).bind_real(ctx)
        return alternating_walk(K, q, x, range(-L, L + 1)).real


def lemma_bound(x, T, k: int, u, ctx: PrecisionContext) -> mpf:
    """Reference ceiling sqrt(xT) (e^{k log(x)/2 - pi u sqrt(x)}
    + ((u^4 + 4 u^2 T) x^2)^{1/4} / sqrt(T)) with free height u > 0."""
    from mpmath import mp, mpf

    from .numerics import to_fraction_exact, to_mpf_exact
    if to_fraction_exact(u) <= 0:
        raise DomainError("lemma_bound needs u > 0")
    with ctx.workprec():
        xv = to_mpf_exact(to_fraction_exact(x))
        Tv = to_mpf_exact(to_fraction_exact(T))
        uv = to_mpf_exact(u)
        first = mp.exp(k * mp.log(xv) / 2 - mp.pi * uv * mp.sqrt(xv))
        second = ((uv ** 4 + 4 * uv ** 2 * Tv) * xv ** 2) ** mpf("0.25") / mp.sqrt(Tv)
        return mp.sqrt(xv * Tv) * (first + second)
