"""Von Mangoldt sieve, Chebyshev psi, and the alternating psi sums over
scaled-square indices.

The sieve stores the prime powers as one ascending array of integers,
and Lambda(n) = log p is taken lazily at any working precision: one
sieve serves every precision context.

Every psi value counts prime powers by one rule: n lies inside cutoff j
iff n <= N_j = floor(e^{sqrt(x - j^2/T)}), an exact integer computed
once per index.  A double exp(sqrt(t_j)) gives N_j whenever it lies
farther than 2^-32 relative from every integer, about 10^4 times its
error; any other index takes the exact interval refinement of _cutoff,
which defines the cutoff.

psi_weak_pentagonal aggregates per prime power (bucket method: each n
contributes Lambda(n) * (-1)^{J(n)} where J(n) is the largest j with
n <= N_j) or per index j (direct method, one prefix count per j).
Both give each prime power inside cutoff 0 its sign (-1)^{J(n)} in one
byte array and fold each higher power's sign onto its prime in place:
an exact integer coefficient per prime, so their results agree bit for
bit, which is what the oracle-equivalence gate checks.
Precision enters only through the sums of log p, and each is one log
per coefficient class or cutoff band, of an exact product folded at
working precision (the grouped products of Bernstein, "Fast
multiplication and its applications", 2008).
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, compress, islice, repeat, starmap
from math import exp, isqrt, sqrt
from operator import eq, neg
from typing import NamedTuple

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, from_rational, mpf_exp, mpf_log, mpf_sqrt, to_int

from .errors import DomainError, ResourceError
from .numerics import PrecisionContext, nstr_for_bits, to_fraction_exact, to_mpf_exact
from .oscsum import SumReport, square_form

# Peak RSS of a psi run (CPython 3.11): psi-half peaks in the build, at
# half a byte per integer (flags for the odd ones) plus 8 per prime
# power (the index); psi-sum peaks after it, at the index plus 16 bytes
# per prime for its two coefficient arrays and 1 per prime power for the
# signs that fill them.  psi-half and psi-sum take 41 and 48 MB at x=280,
# and 57 and 69 MB for the 2.05M prime powers at x=300 (either method);
# by these rates about 0.12 and 0.16 GB at the cap.
MAX_SIEVE_LIMIT = 100_000_000
PSI_METHODS = ("bucket", "direct")
# Bits above the working precision that psi_interval_half sums psi at
# first: lhs - rhs cancels about 5 bits at x = 40 and 11 at x = 200, and
# a deeper cancellation takes a second pass.
HALF_HEADROOM_BITS = 24


def _log_products(factors, marks, prec: int) -> list:
    """[log(prod(factors[:k])) for k in marks] at binary precision `prec`,
    for ascending `marks`.  Factors multiply as exact integers; once a
    chunk reaches 2^prec it is folded into the product, man * 2^e, and
    man * chunk is rounded half to even to prec bits inline, bit for bit
    the value of mpf_mul_int(product, chunk, prec, "n").  Each mark
    takes one log of product * chunk through mpmath.libmp, rounded "n",
    so every bit is that of the mpf operators product *= chunk and
    mp.log(product * chunk).  The bits of each value depend only on
    factors[:k], never on the other marks."""
    logs = []
    factors = iter(factors)
    done = 0
    top = 1 << prec
    man, e, chunk = 1, 0, 1
    for k in marks:
        for f in islice(factors, k - done):
            chunk *= f
            if chunk >= top:
                m = man * chunk
                drop = m.bit_length() - prec
                kept = m >> drop - 1  # the kept bits, then the first dropped one
                man = kept >> 1
                if kept & 1 and (man & 1 or m & (1 << drop - 1) - 1):
                    man += 1
                e += drop
                chunk = 1
        done = k
        logs.append(mp.make_mpf(mpf_log(from_man_exp(man * chunk, e, prec, "n"), prec, "n")))
    return logs


def _higher_powers(p: int, limit: int):
    """(p^k, p) for each k >= 2 with p^k <= limit."""
    pk = p * p
    while pk <= limit:
        yield pk, p
        pk *= p


class LambdaSieve:
    """Immutable index of prime powers up to `limit`.

    entries: ascending array('Q') of the prime powers.  Lambda(n) = log p
    for n = p^k in entries; Lambda is zero off it.  A higher power p^k,
    k >= 2, needs p <= isqrt(limit), so the map from each higher power
    to its prime is small; every other entry is its own prime.
    """

    def __init__(self, limit: int, entries: array):
        self.limit = limit
        self.entries = entries
        self._base: dict[int, int] = {}
        # ascending, so each prime comes before its powers enter the map
        for p in islice(entries, bisect_right(entries, isqrt(limit))):
            if p not in self._base:
                self._base.update(_higher_powers(p, limit))

    def primes(self):
        """The prime p of each entry p^k, in entry order."""
        return map(self._base.get, self.entries, self.entries)

    def arrays_at(self, counts, prec: int) -> list:
        """psi just below the k-th prime power, for each prefix count k in
        `counts` (any order), at binary precision `prec`: one walk over the
        prime powers and one log per distinct count."""
        marks = sorted(set(counts))
        logs = _log_products(self.primes(), marks, prec)
        at = dict(zip(marks, logs))
        return [at[k] for k in counts]


def build_sieve(limit: int) -> LambdaSieve:
    """Sieve of Eratosthenes over the odd numbers plus the prime-power
    index: one flag byte per odd integer, odd[i] for 2i + 1, and the
    powers of 2 inserted into the entries afterwards."""
    if limit < 2:
        raise DomainError("build_sieve needs limit >= 2")
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceError("sieve limit %d exceeds budget %d" % (limit, MAX_SIEVE_LIMIT))
    root = isqrt(limit)
    odd = bytearray([1]) * ((limit + 1) // 2)
    odd[0] = 0
    for p in range(3, root + 1, 2):
        if odd[p // 2]:
            # the odd multiples p^2, p^2 + 2p, ... lie p flags apart
            odd[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(odd), p)))
    # only primes up to root have a higher power within the limit; once
    # those powers are flagged too, one pass yields every odd entry in order
    for p in compress(range(3, root + 1, 2), odd[1 : (root + 1) // 2]):
        for pk, _ in _higher_powers(p, limit):
            odd[pk // 2] = 1
    entries = array("Q", compress(range(1, limit + 1, 2), odd))
    pk = 2
    while pk <= limit:
        entries.insert(bisect_left(entries, pk), pk)
        pk *= 2
    return LambdaSieve(limit, entries)


def sieve_limit(x) -> int:
    """A sieve limit covering every cutoff of the psi sums at x,
    ceil(e^sqrt(x)) + 1.  ResourceError past MAX_SIEVE_LIMIT, decided
    on a 64-bit value before any integer of that size exists."""
    xf = to_fraction_exact(x)
    if xf <= 0:
        raise DomainError("psi sums need x > 0")
    with mp.workprec(64):
        xv = to_mpf_exact(xf)
        if xv > mp.log(MAX_SIEVE_LIMIT) ** 2:
            raise ResourceError("psi sums at x=%s need a sieve to e^sqrt(x), beyond budget %d"
                                % (x, MAX_SIEVE_LIMIT))
        return int(mp.ceil(mp.exp(mp.sqrt(xv)))) + 1


def psi(y, sieve: LambdaSieve, ctx: PrecisionContext) -> mpf:
    """Chebyshev psi(y) = sum of Lambda(n) over n <= y."""
    if y > sieve.limit:
        raise DomainError("psi argument %s exceeds sieve limit %d" % (y, sieve.limit))
    yf = to_fraction_exact(y)
    count = bisect_right(sieve.entries, yf.numerator // yf.denominator)
    return sieve.arrays_at([count], ctx.work_bits)[0]


def _ell_max(x, T) -> int:
    """Largest L with L^2 < x*T (square_form(T).index_range(x));
    DomainError unless T > 0 and x*T >= 1, ResourceError when the index
    range exceeds oscsum.MAX_INDEX_RANGE."""
    Tf = to_fraction_exact(T)
    if Tf <= 0 or to_fraction_exact(x) * Tf < 1:
        raise DomainError("need T > 0 and x*T >= 1 so the index range is nonempty")
    return square_form(Tf).index_range(x)[1]


def _beyond_limit(t: Fraction, limit: int) -> DomainError:
    return DomainError("cutoff e^sqrt(%s) lies beyond the sieve limit %d" % (t, limit))


def _cutoff(t: Fraction, limit: int) -> int:
    """floor(e^sqrt(t)) for rational t > 0, exactly; DomainError when it
    exceeds `limit`.  A lower and an upper bound, each step rounded down
    ("f") or up ("c"), start at 64 bits and double until both floors
    agree.  That always ends: e^sqrt(t) is transcendental
    (Lindemann-Weierstrass), so it is never an integer.  This is the
    definition of a cutoff; _cutoffs answers from a double wherever the
    double decides it, and asks here everywhere else."""
    def floor_of_bound(prec, rnd):
        root = mpf_sqrt(from_rational(t.numerator, t.denominator, prec, rnd), prec, rnd)
        return to_int(mpf_exp(root, prec, rnd), "f")

    prec = 64
    while True:
        lo = floor_of_bound(prec, "f")
        if lo > limit:
            raise _beyond_limit(t, limit)
        if lo == floor_of_bound(prec, "c"):
            return lo
        prec *= 2


# Relative distance from every integer at which a double y ~ e^sqrt(t)
# fixes floor(e^sqrt(t)); see _cutoffs for the error it must exceed.
_CUTOFF_GUARD = 2.0 ** -32


def _cutoffs(x, T, sieve: LambdaSieve) -> list[int]:
    """[N_0, ..., N_L], N_j = floor(e^{sqrt(x - j^2/T)}): a prime power n
    lies inside cutoff j iff n <= N_j.  DomainError when N_0 exceeds the
    sieve limit.

    Each t_j = x - j^2/T is an exact ratio of integers, and a double
    y = exp(sqrt(t_j)) decides N_j when it can.  int / int and math.sqrt
    are correctly rounded, so the root of t is off by at most 1.5 * 2^-53
    (1.7e-16) relative; exp turns that into sqrt(t) times as much, at
    most 3e-15 within MAX_SIEVE_LIMIT (sqrt(t) <= ln 1e8 ~ 18.4) and
    1.2e-13 for any finite y (sqrt(t) < 710), and adds its own few ulp
    (glibc documents at most 1).  _CUTOFF_GUARD, 2.3e-10 relative, is
    about 10^4 times that budget: when y lies farther than y * guard from
    every integer, floor(y) is N_j, and when y * (1 - guard) >= limit + 1,
    N_j lies beyond the limit, decided before any integer the size of
    e^sqrt(t) exists.  A t or e^sqrt(t) past the doubles reads as the
    largest double, a lower bound.  Every other index has y within the
    guard of an integer and takes the exact route of _cutoff."""
    Tf = to_fraction_exact(T)
    limit = sieve.limit
    L = _ell_max(x, Tf)
    scale, A, _, C = square_form(Tf).cleared(x)  # t_j = (-C - A j^2) / scale
    cut = []
    for j in range(L + 1):
        num = -C - A * j * j
        try:
            y = exp(sqrt(num / scale))
        except OverflowError:
            y = sys.float_info.max
        margin = y * _CUTOFF_GUARD
        if y - margin >= limit + 1:
            raise _beyond_limit(Fraction(num, scale), limit)
        # accepted, n < y - margin < limit + 1, so n <= limit
        n = int(y)
        if y - n > margin and n + 1 - y > margin:
            cut.append(n)
        else:
            cut.append(_cutoff(Fraction(num, scale), limit))
    return cut


class PrimeCoefficients(Mapping):
    """Read-only map prime -> nonzero integer coefficient, held as an
    ascending array('Q') of primes and a parallel array('q') of counts:
    16 bytes per prime where a dict takes about 100."""

    __slots__ = ("primes", "counts")

    def __init__(self, primes: array, counts: array):
        self.primes = primes
        self.counts = counts

    @classmethod
    def from_mapping(cls, coeff) -> "PrimeCoefficients":
        """Sorted once into the array form; zero entries are kept."""
        primes = array("Q", sorted(coeff))
        return cls(primes, array("q", map(coeff.__getitem__, primes)))

    def __getitem__(self, p):
        i = bisect_left(self.primes, p)
        if i == len(self.primes) or self.primes[i] != p:
            raise KeyError(p)
        return self.counts[i]

    def __iter__(self):
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)


def lambda_coefficients(x, T, sieve: LambdaSieve, method: str = "bucket") -> PrimeCoefficients:
    """Exact integer coefficient per prime p in
    sum_{l^2 < xT} (-1)^l Psi(e^{sqrt(x - l^2/T)}) = sum_p coeff[p] log p,
    as a PrimeCoefficients map of the nonzero coefficients.

    A prime power n inside cutoffs 0..J(n) and no further carries
    sum_{|l| <= J(n)} (-1)^l = (-1)^{J(n)}, a sign.  method="bucket"
    bisects the cutoffs once per prime power for J(n); method="direct"
    walks the index j, counts a prefix per j, and gives each cutoff
    band, the prime powers between consecutive prefix counts, the
    running sum of the index weights.  Either way the signs of the prime
    powers inside cutoff 0 fill one byte array in entry order, and each
    higher power p^k, k >= 2, is then folded onto p's slot in place.
    """
    if method not in PSI_METHODS:
        raise DomainError("unknown method %r" % (method,))
    cut = _cutoffs(x, T, sieve)
    entries = sieve.entries
    n_inside = bisect_right(entries, cut[0])
    if method == "bucket":
        # bisecting -pp in the ascending -N_j gives 1 + the largest j
        # with pp <= N_j, and sign maps that to (-1)^j
        ascending = [-n for n in cut]
        sign = [0] + [1 if j % 2 == 0 else -1 for j in range(len(cut))]
        signs = map(sign.__getitem__,
                    map(bisect_right, repeat(ascending), map(neg, islice(entries, n_inside))))
    else:
        # band j, the prime powers inside cutoff j and outside j+1, takes
        # the sum of the index weights up to j; bands ascend as j descends
        inside = [bisect_right(entries, n, 0, n_inside) for n in cut] + [0]
        bands, running = [], 0
        for j in range(len(cut)):
            running += (1 if j % 2 == 0 else -1) * (1 if j == 0 else 2)
            bands.append((running, inside[j] - inside[j + 1]))
        bands.reverse()
        signs = chain.from_iterable(starmap(repeat, bands))
    coeff = array("b", signs)
    # a prime's total is at most its number of powers up to the sieve
    # limit, 26 (p = 2) within MAX_SIEVE_LIMIT, so a signed byte holds it
    for pp, p in sieve._base.items():
        i = bisect_left(entries, pp, 0, n_inside)
        if i < n_inside:
            coeff[bisect_left(entries, p)] += coeff[i]
            coeff[i] = 0
    return PrimeCoefficients(array("Q", compress(entries, coeff)), array("q", filter(None, coeff)))


def coefficients_value(coeff, ctx: PrecisionContext) -> mpf:
    """sum coeff[p] log p as sum_c c log(prod of the primes with
    coefficient c): one log per class, each product taken in ascending
    prime order and the classes added in ascending c, so the bits depend
    only on the map, not on its insertion order.  `coeff` is a
    PrimeCoefficients or any mapping prime -> int, sorted once into one;
    each class streams from the arrays, so no per-class list exists."""
    if not isinstance(coeff, PrimeCoefficients):
        coeff = PrimeCoefficients.from_mapping(coeff)
    primes, counts = coeff.primes, coeff.counts
    prec = ctx.work_bits
    with ctx.workprec():
        total = mpf(0)
        for c, size in sorted(Counter(counts).items()):
            members = compress(primes, map(eq, counts, repeat(c)))
            total += c * _log_products(members, [size], prec)[0]
        return total


def psi_weak_pentagonal(x, T, sieve: LambdaSieve, ctx: PrecisionContext,
                        method: str = "bucket") -> SumReport:
    """sum over integers l with l^2 < xT of (-1)^l Psi(e^{sqrt(x - l^2/T)})."""
    coeff = lambda_coefficients(x, T, sieve, method=method)
    value = coefficients_value(coeff, ctx)
    L = _ell_max(x, T)
    with ctx.workprec():
        # conversion rounds at working precision; at ambient precision it
        # would silently truncate the high-precision total
        value_c = mpc(value)
        abs_value = abs(value)
    return SumReport(x=x, value=value_c, abs_value=abs_value,
                     term_count=2 * L + 1, precision_bits=ctx.bits)


class IntervalHalfReport(NamedTuple):
    """Interval-union psi sum versus half of psi(e^sqrt(x))."""

    lhs: mpf
    rhs: mpf
    rel_err: mpf
    boundary: mpf      # psi at the last odd cutoff when L is odd, else 0
    ell_max: int
    psi_full: mpf      # psi(e^sqrt(x))
    precision_bits: int

    def to_json_dict(self) -> dict:
        bits = self.precision_bits
        return {
            "lhs": nstr_for_bits(self.lhs, bits),
            "rhs": nstr_for_bits(self.rhs, bits),
            "rel_err": nstr_for_bits(self.rel_err, bits),
            "boundary": nstr_for_bits(self.boundary, bits),
            "ell_max": self.ell_max,
            "psi_full": nstr_for_bits(self.psi_full, bits),
            "bits": bits,
        }


def psi_interval_half(x, T, sieve: LambdaSieve, ctx: PrecisionContext) -> IntervalHalfReport:
    """lhs = sum_{l=1}^{floor(L/2)} [psi at cutoff 2l-1 minus psi at cutoff 2l],
    i.e. psi over the union of intervals (e^{sqrt(x-(2l)^2/T)}, e^{sqrt(x-(2l-1)^2/T)}];
    rhs = psi(e^{sqrt(x)})/2.

    The identity sums over 0 <= 2l < sqrt(xT).  Its l = 0 interval,
    [e^{sqrt x}, e^{sqrt(x - 1/T)}], has reversed endpoints, so it is
    empty and contributes nothing; the first nondegenerate interval is
    the 2l = 2 one, and 2l <= L keeps every cutoff inside that range.
    All L+1 psi values come from one walk over the prime powers, whose
    product grows band by band between cutoffs: one log per cutoff.  The
    algebraic bridge to the alternating sum S is
      lhs - rhs = -S/2 - boundary,
    with boundary = psi at cutoff L when L is odd, else 0.

    rel_err = |lhs - rhs| / psi_full loses the log2(psi_full / |lhs - rhs|)
    bits that cancel, so psi is summed with that many bits above the
    working precision: HALF_HEADROOM_BITS in a first pass, and the
    measured cancellation in a second when it is more.  boundary takes no
    part in rel_err and is psi at the working precision, as psi gives it.
    """
    counts = [bisect_right(sieve.entries, n) for n in _cutoffs(x, T, sieve)]
    L = len(counts) - 1
    extra = HALF_HEADROOM_BITS
    for _ in range(2):
        prec = ctx.work_bits + extra
        psi_at = sieve.arrays_at(counts, prec)
        with mp.workprec(prec):
            lhs = mpf(0)
            for l in range(1, L // 2 + 1):
                lhs += psi_at[2 * l - 1] - psi_at[2 * l]
            full = psi_at[0]
            rhs = full / 2
            gap = abs(lhs - rhs)
            rel_err = gap / full if full > 0 else mpf(0)
            cancelled = mp.mag(full) - mp.mag(gap) if rel_err > 0 else 0
        if cancelled <= extra:
            break
        extra = cancelled
    boundary = sieve.arrays_at(counts[L:], ctx.work_bits)[0] if L % 2 else mpf(0)
    return IntervalHalfReport(lhs=lhs, rhs=rhs, rel_err=rel_err, boundary=boundary,
                              ell_max=L, psi_full=full, precision_bits=ctx.bits)


def interval_union_measure(x, T, ctx: PrecisionContext) -> mpf:
    """Lebesgue measure of the interval union, normalized by e^{sqrt(x)}."""
    Tf = to_fraction_exact(T)
    L = _ell_max(x, Tf)
    with ctx.workprec():
        reach = [mp.exp(mp.sqrt(to_mpf_exact(t))) for _, t in square_form(Tf).gaps(x, range(L + 1))]
        total = mpf(0)
        for l in range(1, L // 2 + 1):
            total += reach[2 * l - 1] - reach[2 * l]
        return total / reach[0]


LSIV_MAGIC = b"LSIV"
LSIV_VERSION = 3
# magic, version, limit, entry count, crc32; native byte order, as the
# body is, so a file from a host of the other order fails the version
_LSIV_HEADER = struct.Struct("=4sIQQI")


def _lsiv_crc(limit: int, count: int, body) -> int:
    """CRC-32 of the limit and entry count, then of the body: a corrupt
    limit would let a sieve stand in for one that covers more."""
    return zlib.crc32(body, zlib.crc32(struct.pack("=QQ", limit, count)))


def save_sieve(sieve: LambdaSieve, path: str) -> None:
    """Cache file: header {magic "LSIV", version u32, limit u64, entry
    count u64, crc32 of limit, count and body u32} then the body, the
    ascending prime powers as u64, all in the host's byte order.  Written
    to a temporary file and renamed into place, so a reader never sees a
    partial file."""
    count = len(sieve.entries)
    header = _LSIV_HEADER.pack(LSIV_MAGIC, LSIV_VERSION, sieve.limit, count,
                               _lsiv_crc(sieve.limit, count, sieve.entries))
    tmp = "%s.%d.tmp" % (path, os.getpid())
    with open(tmp, "wb") as fh:
        fh.write(header)
        sieve.entries.tofile(fh)
    os.replace(tmp, path)


def load_sieve(path: str) -> LambdaSieve:
    """Read a save_sieve file; DomainError unless the magic, version,
    entry count and checksum all match."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _LSIV_HEADER.size or blob[:4] != LSIV_MAGIC:
        raise DomainError("not an LSIV file: %r" % (path,))
    _, version, limit, count, crc = _LSIV_HEADER.unpack_from(blob)
    if version != LSIV_VERSION:
        raise DomainError("unsupported LSIV version %d" % version)
    body = memoryview(blob)[_LSIV_HEADER.size:]
    if len(body) != 8 * count or _lsiv_crc(limit, count, body) != crc:
        raise DomainError("truncated or corrupt LSIV file: %r" % (path,))
    entries = array("Q")
    entries.frombytes(body)
    return LambdaSieve(limit, entries)
