import hashlib
import math
import random
import struct
import sys
import tracemalloc
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import fone, mpf_log, mpf_mul_int

from cancelsum import (DomainError, LambdaSieve, PrecisionContext,
                       ResourceError, build_sieve, coefficients_value,
                       interval_union_measure, lambda_coefficients,
                       load_sieve, nstr_for_bits, psi, psi_interval_half,
                       psi_weak_pentagonal, save_sieve, square_form,
                       to_fraction_exact)
from cancelsum import oscsum, primes


@pytest.fixture(scope="module")
def sieve100k():
    return build_sieve(100_000)


@pytest.fixture(scope="module")
def sieve1m():
    return build_sieve(1_000_000)


def bool_prime_sieve(limit: int) -> bytearray:
    """Independent oracle sieve (one flag byte per integer)."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = 0
    return flags


# ---------------------------------------------------------------------------
# sieve structure


def pairs(sieve):
    return list(zip(sieve.entries, sieve.primes()))


def test_prime_powers_to_ten():
    sieve = build_sieve(10)
    assert sieve.entries == array("Q", [2, 3, 4, 5, 7, 8, 9])
    assert pairs(sieve) == [(2, 2), (3, 3), (4, 2), (5, 5), (7, 7), (8, 2), (9, 3)]


def test_sieve_against_independent_oracle():
    limit = 3000
    flags = bool_prime_sieve(limit)
    oracle = []
    for p in range(2, limit + 1):
        if flags[p]:
            pp = p
            while pp <= limit:
                oracle.append((pp, p))
                pp *= p
    oracle.sort()
    # every limit, so each square and higher power p^k = limit, where
    # isqrt(limit) admits a new prime to the power loop, is an edge, and
    # so is each power of 2 (1024, 2048), which the odd flags leave out
    for n in range(2, limit + 1):
        assert pairs(build_sieve(n)) == [e for e in oracle if e[0] <= n]


def test_sieve_million_bytes_pinned(sieve1m):
    # the entries of build_sieve(10^6) as first recorded, little-endian
    entries = array("Q", sieve1m.entries)
    if sys.byteorder == "big":
        entries.byteswap()
    assert (hashlib.sha256(entries.tobytes()).hexdigest()
            == "3987ee31c9a627c8a02c2dff1fe1599245e8be295d902d11c34df1fcc8da607c")


def test_prime_count_million(sieve1m):
    assert sum(1 for pp, p in pairs(sieve1m) if pp == p) == 78498
    assert sum(bool_prime_sieve(1_000_000)) == 78498


def _log_products_by_operators(factors, marks, prec):
    # the mpf operator formulation the raw folds replaced
    logs = []
    factors = iter(factors)
    done = 0
    with mp.workprec(prec):
        product, chunk = mpf(1), 1
        for k in marks:
            for f in islice(factors, k - done):
                chunk *= f
                if chunk.bit_length() > prec:
                    product *= chunk
                    chunk = 1
            done = k
            logs.append(mp.log(product * chunk))
    return logs


@pytest.mark.parametrize("prec", [53, 128, 160, 184, 1000])
def test_log_products_match_operators(sieve100k, prec):
    factors = list(sieve100k.primes())
    n = len(factors)
    # a fold's rounding moves a log by less than its last bit, so a
    # dense run of marks gives a wrong fold many chances to show
    marks = [0, 0, 1, 2, 3, 17, 17] + list(range(500, 2500)) + [n // 2, n - 1, n, n]
    got = primes._log_products(factors, marks, prec)
    want = _log_products_by_operators(factors, marks, prec)
    assert [v._mpf_ for v in got] == [v._mpf_ for v in want]
    assert all(type(v) is mpf for v in got)


def _log_products_by_mpf_mul_int(factors, marks, prec):
    # the raw loop the inline folds replaced: each fold through mpf_mul_int
    logs = []
    factors = iter(factors)
    done = 0
    product, chunk = fone, 1
    for k in marks:
        for f in islice(factors, k - done):
            chunk *= f
            if chunk >= 1 << prec:
                product = mpf_mul_int(product, chunk, prec, "n")
                chunk = 1
        done = k
        logs.append(mp.make_mpf(mpf_log(mpf_mul_int(product, chunk, prec, "n"), prec, "n")))
    return logs


@pytest.mark.parametrize("prec", [8, 16, 53, 64, 65, 128, 333, 1000])
def test_log_products_round_like_mpf_mul_int(prec):
    # factors whose folds round exactly half-way, down to an even
    # mantissa and up to one, and carry into 2^prec, against the
    # mpf_mul_int loop, with marks at every prefix.  A fold that rounds
    # one unit off moves the log of a product near 2^prec by about
    # 1/(prec log 2) of its last bit, so a wrong tie rule shows in some
    # of the 64 ties of each kind, certainly at 8 and 16 bits
    top = 1 << prec
    cases = [
        *([top + 2 * k + 1] for k in range(64)),  # ties, both ways
        *([top, top + 2 * k + 1] for k in range(64)),  # on the second fold, the first exact
        [2 * top - 1],  # rounds up and carries to 2^prec
        [2 * top - 1, top + 3, 2 * top - 1, 3, 5, top - 1, 7],
        [3, 5, 7, 11, top // 3 + 1, 2 * top - 3, 13, top + 5, 2, 2, top + 1],
    ]
    for factors in cases:
        marks = list(range(len(factors) + 1))
        got = primes._log_products(factors, marks, prec)
        want = _log_products_by_mpf_mul_int(factors, marks, prec)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


def test_sieve_limit_validation():
    with pytest.raises(DomainError):
        build_sieve(1)
    with pytest.raises(ResourceError):
        build_sieve(200_000_000)


# ---------------------------------------------------------------------------
# Chebyshev psi


def test_psi_at_ten(sieve600, ctx192):
    with ctx192.workprec():
        want = 3 * mp.log(2) + 2 * mp.log(3) + mp.log(5) + mp.log(7)
        got = psi(10, sieve600, ctx192)
        assert abs(got - want) < mpf(2) ** -180
        assert abs(got - mpf("7.8320")) < mpf("1e-4")


def test_psi_below_two(sieve600, ctx192):
    assert psi(1, sieve600, ctx192) == 0
    assert psi(Fraction(3, 2), sieve600, ctx192) == 0


def test_psi_steps_follow_von_mangoldt(sieve600, ctx192):
    # oracle by trial division: n is a prime power exactly when dividing
    # it by its smallest prime factor p until p no longer divides leaves 1
    with ctx192.workprec():
        prev = mpf(0)
        for n in range(2, 61):
            cur = psi(n, sieve600, ctx192)
            gap = cur - prev
            p = next(d for d in range(2, n + 1) if n % d == 0)
            m = n
            while m % p == 0:
                m //= p
            if m != 1:
                assert gap == 0
            else:
                assert abs(gap - mp.log(p)) < mpf(2) ** -180
            prev = cur


def test_psi_million_ratio(sieve1m, ctx128):
    ratio = psi(1_000_000, sieve1m, ctx128) / 1_000_000
    assert 0.9 < float(ratio) < 1.1


def test_psi_beyond_limit(sieve600, ctx128):
    with pytest.raises(DomainError):
        psi(601, sieve600, ctx128)


def test_psi_million_against_fsum(sieve1m, ctx128):
    # one log of a folded product against the sum of every log p at 64
    # more bits; 78,498 primes fold the product many times over
    got = psi(10 ** 6, sieve1m, ctx128)
    with mp.workprec(ctx128.bits + ctx128.guard_bits + 64):
        want = mp.fsum(mp.log(p) for p in sieve1m.primes())
        assert abs(got - want) <= mpf(2) ** -(ctx128.bits - 8) * want


def test_psi_value_independent_of_other_cutoffs(sieve100k, ctx128):
    # psi at a prefix count has the same bits whatever else is asked for
    counts = [0, 17, 17, 5000, 2, 9592, 1]
    both = sieve100k.arrays_at(counts, 160)
    alone = [sieve100k.arrays_at([k], 160)[0] for k in counts]
    assert both == alone
    assert both[0] == 0


# ---------------------------------------------------------------------------
# alternating psi sums


def test_weak_sum_single_term(sieve600, ctx192):
    # x*T = 1 keeps only l = 0, so the sum is psi(e^sqrt(40)) itself
    rep = psi_weak_pentagonal(40, Fraction(1, 40), sieve600, ctx192)
    assert rep.term_count == 1
    (cut,) = primes._cutoffs(40, Fraction(1, 40), sieve600)
    full = psi(cut, sieve600, ctx192)
    with ctx192.workprec():
        # coefficient path and prefix path accumulate logs in different
        # orders, so agreement is to accumulation tolerance only
        assert abs(rep.value.real - full) <= full * mpf(2) ** -(192 - 16)
    # e^sqrt(40) = 558.11, and 557 is the last prime power below it
    assert psi(557, sieve600, ctx192) == full


def test_weak_sum_anchor_40_3000(sieve600, ctx192):
    rep = psi_weak_pentagonal(40, 3000, sieve600, ctx192)
    assert rep.term_count == 693
    assert abs(rep.value.real - mpf("40.7685498")) < mpf("1e-6")


def test_weak_sum_requires_nonempty_range(sieve600, ctx192):
    # the range of square_form(T) is empty only at x <= 0; 0 < xT < 1
    # keeps l = 0, as xT = 1 does
    below = psi_weak_pentagonal(40, Fraction(1, 41), sieve600, ctx192)
    one = psi_weak_pentagonal(40, Fraction(1, 40), sieve600, ctx192)
    assert (below.term_count, below.value) == (1, one.value)
    for x, T in ((0, 1), (-1, 1), (40, 0), (40, -1)):
        with pytest.raises(DomainError):
            psi_weak_pentagonal(x, T, sieve600, ctx192)


def test_weak_sum_requires_sieve_coverage(sieve600, ctx192):
    with pytest.raises(DomainError):
        psi_weak_pentagonal(45, 3000, sieve600, ctx192)


def test_unknown_method_rejected(sieve600):
    with pytest.raises(DomainError):
        lambda_coefficients(40, 3000, sieve600, method="nope")


def test_bucket_equals_direct_seeded(sieve100k, ctx128):
    # identical predicate, independent aggregation: exact same coefficient
    # dict and bit-identical value on random instances with e^sqrt(x) <= 1e5
    rng = random.Random(31337)
    for _ in range(20):
        x = Fraction(rng.randint(20, 1300), 10)  # x in [2, 130]
        if float(x) < 2:
            x += 2
        choice = rng.random()
        if choice < 0.3:
            T = Fraction(1, rng.randint(1, max(1, int(x))))
        elif choice < 0.6:
            T = rng.randint(1, 5000)
        else:
            T = Fraction(rng.randint(1, 40000), rng.randint(1, 7))
        if x * T < 1:
            T = Fraction(2, 1) / x
        bucket = lambda_coefficients(x, T, sieve100k, method="bucket")
        direct = lambda_coefficients(x, T, sieve100k, method="direct")
        assert bucket == direct
        vb = coefficients_value(*bucket, ctx128)
        vd = coefficients_value(*direct, ctx128)
        assert vb == vd


def _class_map(sieve, seed=2718):
    # three large classes whose products fold many times, plus one-prime
    # classes with |c| >= 2 whose small terms make the class order matter
    # to the rounding of the total
    rng = random.Random(seed)
    coeff = {p: rng.choice((-1, -1, 1, 1, 1, 2)) for pp, p in pairs(sieve) if pp == p}
    coeff.update({3: 7, 5: -9, 7: 11, 11: -5, 13: 13, 17: -17})
    return coeff


def _arrays(coeff):
    # a map prime -> coefficient in lambda_coefficients' form: ascending
    # primes and the parallel coefficients
    primes = array("Q", sorted(coeff))
    return primes, array("q", map(coeff.__getitem__, primes))


def _value_by_class_lists(coeff, ctx):
    # the dict-of-lists form the arrays replaced: the same products and
    # the same ascending class order, so the bits must match
    classes = {}
    for p in sorted(coeff):
        classes.setdefault(coeff[p], []).append(p)
    prec = ctx.bits + ctx.guard_bits
    with ctx.workprec():
        total = mpf(0)
        for c in sorted(classes):
            total += c * primes._log_products(classes[c], [len(classes[c])], prec)[0]
        return total


def test_coefficients_value_matches_class_lists(sieve100k, ctx128):
    # classes taken in another order than ascending c change the last bit
    # of the total for about one seed in four
    maps = [_class_map(sieve100k, seed) for seed in range(8)]
    for coeff in maps + [dict(zip(*lambda_coefficients(90, 3000, sieve100k)))]:
        assert coefficients_value(*_arrays(coeff), ctx128) == _value_by_class_lists(coeff, ctx128)


def test_coefficients_value_against_fsum(sieve100k, ctx128):
    coeff = _class_map(sieve100k)
    classes = set(coeff.values())
    assert len(classes) >= 5 and any(abs(c) >= 2 for c in classes)
    ones = math.prod(p for p, c in coeff.items() if c == 1)
    assert ones.bit_length() > 2 * (ctx128.bits + ctx128.guard_bits)  # folds twice or more
    got = coefficients_value(*_arrays(coeff), ctx128)
    with mp.workprec(ctx128.bits + ctx128.guard_bits + 64):
        want = mp.fsum(c * mp.log(p) for p, c in coeff.items())
        scale = mp.fsum(abs(c) * mp.log(p) for p, c in coeff.items())
        assert abs(got - want) <= mpf(2) ** -(ctx128.bits - 8) * scale


def test_coefficients_are_bounded_counts(sieve600):
    # each prime's coefficient is a signed count of sub-cutoffs, bounded
    # by the number of admissible powers times the index count
    _, counts = lambda_coefficients(40, 3000, sieve600)
    L = 346
    for c in counts:
        assert isinstance(c, int)
        assert abs(c) <= 2 * L + 1


def _coefficients_by_definition(x, T, limit):
    # c_p straight from the definition: each l with l^2 < xT adds (-1)^l
    # for each prime power n <= N_|l| = floor(e^sqrt(x - l^2/T)) to the
    # coefficient of its prime; cutoffs at 256 bits, prime powers from
    # the independent flag sieve
    flags = bool_prime_sieve(limit)
    powers = []
    for p in range(2, limit + 1):
        if flags[p]:
            pp = p
            while pp <= limit:
                powers.append((pp, p))
                pp *= p
    xf, Tf = Fraction(x), Fraction(T)
    coeff = {}
    j = 0
    while j * j < xf * Tf:
        t = xf - Fraction(j * j) / Tf
        with mp.workprec(256):
            N = int(mp.floor(mp.exp(mp.sqrt(mpf(t.numerator) / t.denominator))))
        weight = (-1) ** j * (1 if j == 0 else 2)
        for pp, p in powers:
            if pp <= N:
                coeff[p] = coeff.get(p, 0) + weight
        j += 1
    return {p: c for p, c in coeff.items() if c}


# x from below isqrt(600) = 24, where only primes that have several
# powers occur, to e^sqrt(40) ~ 558; one l, few l and hundreds of l; at
# x = 39.4 the last prime power inside, 529 = 23^2, is a higher power;
# 529 lies just outside cutoff 0 at x = 39.31 (N_0 = 528) and is its
# last prime power at x = 39.33 (N_0 = 529)
ORACLE_CASES = [(5, 7), (Fraction(19, 2), 40), (20, Fraction(1000, 3)), (33, 17),
                (Fraction(301, 10), 5000), (Fraction(197, 5), 100), (40, Fraction(1, 40)),
                (40, 3000), (Fraction(3931, 100), 1), (Fraction(3933, 100), 1)]


@pytest.mark.parametrize("method", primes.PSI_METHODS)
def test_coefficients_match_definition(sieve600, method):
    dropped = False
    for x, T in ORACLE_CASES:
        want = _coefficients_by_definition(x, T, 600)
        got_primes, got_counts = lambda_coefficients(x, T, sieve600, method=method)
        assert (got_primes.typecode, got_counts.typecode) == ("Q", "q")
        assert list(got_primes) == sorted(want) and len(got_counts) == len(want)
        assert list(got_counts) == [want[p] for p in sorted(want)]
        # a prime whose powers cancel is absent, not zero
        dropped |= any(p not in got_primes for pp, p in pairs(sieve600) if pp <= 24)
        for absent in (1, 4, 25, 601):
            assert absent not in got_primes
    assert dropped


def test_coefficients_peak_memory(sieve1m, ctx128):
    # two 8-byte arrays over the primes: about 18 bytes per prime power
    # at the peak of both steps, where a dict over the primes took about
    # 90; x = 160 keeps 27,070 prime powers, few enough that tracing every
    # allocation stays fast
    n_inside = bisect_right(sieve1m.entries, primes._cutoffs(160, 30, sieve1m)[0])
    for method in primes.PSI_METHODS:
        tracemalloc.start()
        try:
            coefficients_value(*lambda_coefficients(160, 30, sieve1m, method=method), ctx128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * n_inside, (method, peak / n_inside)


# ---------------------------------------------------------------------------
# interval-union halving


def test_interval_half_anchor(sieve600, ctx192):
    rep = psi_interval_half(40, 3000, sieve600, ctx192)
    assert rep.ell_max == 346
    assert rep.boundary == 0  # even L
    assert abs(rep.psi_full - mpf("549.369561059901")) < mpf("1e-11")
    assert abs(rep.rel_err - mpf("0.0371048")) < mpf("1e-6")
    # Theorem-scale bound: |lhs - rhs| <= 25 + boundary absolute, i.e.
    # rel_err <= 50/psi_full at this x
    assert rep.rel_err <= 50 / rep.psi_full


def test_interval_half_bridge_even_L(sieve600, ctx192):
    # lhs - rhs = -S/2 - boundary ties the union sum to the alternating sum
    rep = psi_interval_half(40, 3000, sieve600, ctx192)
    weak = psi_weak_pentagonal(40, 3000, sieve600, ctx192)
    with ctx192.workprec():
        lhs_minus_rhs = rep.lhs - rep.rhs
        bridge = -weak.value.real / 2 - rep.boundary
        assert abs(lhs_minus_rhs - bridge) <= rep.psi_full * mpf(2) ** -(192 - 16)


def test_interval_half_bridge_odd_L(sieve600, ctx192):
    # x*T = 400 gives L = 19 (odd) with final threshold 3.9, so the
    # boundary term psi(e^sqrt(3.9)) is live
    rep = psi_interval_half(40, 10, sieve600, ctx192)
    assert rep.ell_max == 19
    assert rep.boundary > 0
    weak = psi_weak_pentagonal(40, 10, sieve600, ctx192)
    with ctx192.workprec():
        bridge = -weak.value.real / 2 - rep.boundary
        assert abs((rep.lhs - rep.rhs) - bridge) <= rep.psi_full * mpf(2) ** -(192 - 16)
        assert rep.boundary == psi(primes._cutoffs(40, 10, sieve600)[19], sieve600, ctx192)


def test_interval_half_telescoping_complement(sieve600, ctx192):
    # union intervals plus their complement telescope to
    # psi(thr_1) - psi(thr_L) for even L
    x, T = 40, 3000
    rep = psi_interval_half(x, T, sieve600, ctx192)
    L = rep.ell_max
    psi_at = [psi(n, sieve600, ctx192) for n in primes._cutoffs(x, T, sieve600)]
    with ctx192.workprec():
        complement = mpf(0)
        for l in range(1, (L - 1) // 2 + 1):
            complement += psi_at[2 * l] - psi_at[2 * l + 1]
        total = rep.lhs + complement
        want = psi_at[1] - psi_at[L]
        assert abs(total - want) <= rep.psi_full * mpf(2) ** -(192 - 16)


def count_exact_cutoffs(monkeypatch) -> list:
    """Record the t of every call to the exact route primes._cutoff."""
    calls = []
    exact = primes._cutoff

    def counted(t, limit):
        calls.append(t)
        return exact(t, limit)

    monkeypatch.setattr(primes, "_cutoff", counted)
    return calls


def test_cutoff_near_tie(monkeypatch, sieve1m):
    # t within 2^-400 of (log n)^2: e^sqrt(t) sits just below or just
    # above the prime n, far inside any rounding of (log n)^2 at 128 bits,
    # and far inside the guard of the double, so the exact route decides
    calls = count_exact_cutoffs(monkeypatch)
    n = 999983
    with mp.workprec(2000):
        lg2 = to_fraction_exact(mp.log(n) ** 2)
    eps = Fraction(1, 2 ** 400)
    assert primes._cutoffs(lg2 - eps, 1, sieve1m)[0] == n - 1
    assert calls[0] == lg2 - eps
    calls.clear()
    assert primes._cutoffs(lg2 + eps, 1, sieve1m)[0] == n
    assert calls[0] == lg2 + eps


def test_cutoffs_against_floor_oracle(monkeypatch, sieve600):
    # every cutoff of (40, 3000) against floor(e^sqrt(40 - j^2/3000)) at
    # 256 bits; none lies within 2^-32 relative of an integer, so the
    # double decides all 347
    calls = count_exact_cutoffs(monkeypatch)
    with mp.workprec(256):
        want = [int(mp.floor(mp.exp(mp.sqrt(40 - mpf(j * j) / 3000)))) for j in range(347)]
    assert primes._cutoffs(40, 3000, sieve600) == want
    assert calls == []


def test_cutoff_at_the_limit(monkeypatch):
    # e^sqrt(40) = 558.11 is far from an integer, so the double decides
    # limits 557 and 558 alone, and says what the exact route says
    with pytest.raises(DomainError) as exact:
        primes._cutoff(Fraction(40), 557)
    calls = count_exact_cutoffs(monkeypatch)
    with pytest.raises(DomainError) as info:
        primes._cutoffs(40, Fraction(1, 40), LambdaSieve(557, array("Q")))
    assert str(info.value) == str(exact.value)
    assert primes._cutoffs(40, Fraction(1, 40), LambdaSieve(558, array("Q"))) == [558]
    assert calls == []


def test_cutoff_near_tie_at_the_limit_takes_the_exact_route(monkeypatch):
    # e^sqrt(t) just above 999983 with the limit just below it: only the
    # exact route can put the cutoff past the limit
    calls = count_exact_cutoffs(monkeypatch)
    with mp.workprec(2000):
        t = to_fraction_exact(mp.log(999983) ** 2) + Fraction(1, 2 ** 400)
    with pytest.raises(DomainError, match="beyond the sieve limit 999982"):
        primes._cutoffs(t, 1, LambdaSieve(999982, array("Q")))
    assert calls == [t]


@pytest.mark.parametrize("psi_sum", [
    lambda x, T, sieve, ctx: lambda_coefficients(x, T, sieve),
    psi_weak_pentagonal,
    psi_interval_half,
], ids=["coefficients", "weak", "half"])
def test_cutoff_far_past_the_limit_is_decided_on_the_double(sieve600, ctx128, psi_sum):
    # e^sqrt(10^20) = e^(10^10) has about 1.4e10 bits: the double rules
    # it out before any integer of that size exists
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as info:
            psi_sum(10 ** 20, Fraction(1, 10 ** 9), sieve600, ctx128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == ("cutoff e^sqrt(100000000000000000000) lies beyond "
                               "the sieve limit 600")
    assert peak < 1 << 20


@st.composite
def _cutoff_case(draw):
    # rational x in (0, 340], T > 0 with 0 < xT <= 40,000 (L < 200)
    xd = draw(st.integers(1, 10 ** 4))
    x = Fraction(draw(st.integers(1, 340 * xd)), xd)
    td = draw(st.integers(1, 10 ** 4))
    T = Fraction(draw(st.integers(1, max(1, math.floor(40_000 * td / x)))), td)
    limit = draw(st.sampled_from([600, 10 ** 6, primes.MAX_SIEVE_LIMIT, 2 * 10 ** 8]))
    return x, T, limit


@settings(max_examples=150, deadline=None)
@given(_cutoff_case())
def test_cutoffs_equal_the_exact_route(case):
    x, T, limit = case
    sieve = LambdaSieve(limit, array("Q"))

    def outcome(compute):
        try:
            return compute()
        except DomainError as exc:
            return str(exc)

    got = outcome(lambda: primes._cutoffs(x, T, sieve))
    _, L = square_form(T).index_range(x)
    want = outcome(lambda: [primes._cutoff(x - Fraction(j * j) / T, limit)
                            for j in range(L + 1)])
    assert got == want


def test_ell_max_is_the_square_form_range(sieve600, ctx192):
    # L^2 < xT strictly; ResourceError exactly when 4xT > MAX_INDEX_RANGE^2,
    # the root gap bound index_range applies to every form
    for x, T, L in ((40, 10, 19), (Fraction(401, 10), 10, 20), (1, 1, 0),
                    (1, Fraction(99, 100), 0)):
        assert len(primes._cutoffs(x, T, sieve600)) == L + 1
        assert psi_weak_pentagonal(x, T, sieve600, ctx192).term_count == 2 * L + 1
    edge = Fraction(oscsum.MAX_INDEX_RANGE ** 2, 4)
    assert square_form(1).index_range(edge)[1] == oscsum.MAX_INDEX_RANGE // 2 - 1
    # the edge's range is accepted, and its first cutoff is past the sieve
    with pytest.raises(DomainError, match="beyond the sieve limit"):
        primes._cutoffs(edge, 1, sieve600)
    with pytest.raises(ResourceError):
        primes._cutoffs(edge + Fraction(1, 10 ** 9), 1, sieve600)
    with pytest.raises(ResourceError):
        interval_union_measure(edge + Fraction(1, 10 ** 9), 1, ctx192)
    for T in (0, -1):
        with pytest.raises(DomainError, match="square_form needs T > 0"):
            primes._cutoffs(1, T, sieve600)
        with pytest.raises(DomainError, match="square_form needs T > 0"):
            interval_union_measure(1, T, ctx192)
    with pytest.raises(DomainError):
        interval_union_measure(0, 1, ctx192)
    # the union is empty until xT > 4 puts l = 1 in it
    assert interval_union_measure(1, Fraction(1, 2), ctx192) == 0
    assert interval_union_measure(2, 2, ctx192) == 0


def test_interval_union_measure(ctx192):
    val = interval_union_measure(40, 3000, ctx192)
    assert 0.4 < float(val) < 0.6


def test_interval_half_json(sieve600, ctx192):
    d = psi_interval_half(40, 3000, sieve600, ctx192).to_json_dict()
    assert set(d) == {"lhs", "rhs", "rel_err", "boundary", "ell_max",
                      "psi_full", "bits"}
    float(d["lhs"])
    assert d["ell_max"] == 346
    assert d["bits"] == 192


@pytest.mark.parametrize("headroom", [primes.HALF_HEADROOM_BITS, 0],
                         ids=["one-pass", "two-pass"])
def test_interval_half_digits_carried(monkeypatch, headroom):
    # lhs - rhs cancels about 11 bits of psi at (1601/8, 3023), the psi
    # benchmark's seed-1 pair, and 23 at (1599/8, 3443), where summing psi
    # at the working precision alone printed rel_err 3 units off in its
    # last digit.  Every printed digit must survive a 320-bit rerun;
    # headroom 0 makes each run take its second pass.
    monkeypatch.setattr(primes, "HALF_HEADROOM_BITS", headroom)
    sieve = build_sieve(primes.sieve_limit(Fraction(1601, 8)))
    for x, T in ((Fraction(1601, 8), 3023), (Fraction(1599, 8), 3443)):
        low = psi_interval_half(x, T, sieve, PrecisionContext(bits=128))
        high = psi_interval_half(x, T, sieve, PrecisionContext(bits=320))
        for key in ("lhs", "rhs", "rel_err", "boundary", "psi_full"):
            assert (nstr_for_bits(getattr(low, key), 128)
                    == nstr_for_bits(getattr(high, key), 128)), (x, T, key)


# ---------------------------------------------------------------------------
# cache files


def test_lsiv_roundtrip(tmp_path, sieve600):
    path = str(tmp_path / "s.lsiv")
    save_sieve(sieve600, path)
    loaded = load_sieve(path)
    assert loaded.limit == sieve600.limit
    assert loaded.entries == sieve600.entries
    assert pairs(loaded) == pairs(sieve600)


def test_lsiv_bad_magic(tmp_path):
    path = str(tmp_path / "bad.lsiv")
    with open(path, "wb") as fh:
        fh.write(b"XXXX" + b"\x00" * 12)
    with pytest.raises(DomainError):
        load_sieve(path)


def test_lsiv_truncated(tmp_path, sieve600):
    path = str(tmp_path / "t.lsiv")
    save_sieve(sieve600, path)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-7])
    with pytest.raises(DomainError):
        load_sieve(path)


def test_lsiv_truncated_at_every_record_boundary(tmp_path):
    sieve = build_sieve(100)
    path = str(tmp_path / "t.lsiv")
    save_sieve(sieve, path)
    blob = open(path, "rb").read()
    header = len(blob) - 8 * len(sieve.entries)
    cuts = list(range(header)) + [header + 8 * k for k in range(len(sieve.entries))]
    for cut in cuts:
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(DomainError):
            load_sieve(path)


def test_lsiv_flipped_byte(tmp_path, sieve600):
    path = str(tmp_path / "f.lsiv")
    save_sieve(sieve600, path)
    blob = bytearray(open(path, "rb").read())
    blob[-3] ^= 1
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(DomainError):
        load_sieve(path)


def test_lsiv_corrupt_limit(tmp_path, sieve600):
    # the checksum covers the limit too: a limit raised from 600 to 1,624
    # would pass this sieve off as covering psi-sum --x 50's cutoffs
    path = str(tmp_path / "h.lsiv")
    save_sieve(sieve600, path)
    blob = open(path, "rb").read()
    fields = list(primes._LSIV_HEADER.unpack_from(blob))
    fields[2] += 1024
    with open(path, "wb") as fh:
        fh.write(primes._LSIV_HEADER.pack(*fields) + blob[primes._LSIV_HEADER.size:])
    with pytest.raises(DomainError):
        load_sieve(path)


def test_lsiv_header_in_other_byte_order(tmp_path, sieve600):
    # the header and body are in the writing host's byte order; a file
    # from a host of the other order fails the version check
    path = str(tmp_path / "o.lsiv")
    save_sieve(sieve600, path)
    blob = open(path, "rb").read()
    size = primes._LSIV_HEADER.size
    fields = primes._LSIV_HEADER.unpack_from(blob)
    other = ">" if sys.byteorder == "little" else "<"
    with open(path, "wb") as fh:
        fh.write(struct.pack(other + "4sIQQI", *fields) + blob[size:])
    with pytest.raises(DomainError, match="version"):
        load_sieve(path)
