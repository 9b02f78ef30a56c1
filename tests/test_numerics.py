import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from cancelsum import (DomainError, PrecisionContext, ResourceError, bessel_i,
                       complex_sqrt_principal, context_for, nstr_for_bits,
                       required_bits, to_fraction_exact, to_mpf_exact)
from cancelsum.numerics import MAX_PRECISION_BITS
from cancelsum.partition import growth_p1

# I0(2) to 40 digits, computed once by summing 60 series terms with
# Fraction arithmetic (sum 1/(j!^2), exact) and converting at the end.
I0_OF_2 = "2.279585302336067267437204440811533353286"


def test_required_bits_floor():
    assert required_bits(0, 1) == 128
    assert required_bits(1, "0.001") == 128


def test_required_bits_frozen_values():
    assert required_bits(100, growth_p1) == 134
    assert required_bits(10**4, growth_p1) == 467


def test_required_bits_monotone():
    prev = 0
    for x in (0, 10, 100, 500, 1000, 5000, 10**4, 10**5):
        b = required_bits(x, growth_p1)
        assert b >= prev
        prev = b


def test_context_floor_and_guard():
    with pytest.raises(DomainError):
        PrecisionContext(bits=64)
    with pytest.raises(ResourceError):
        PrecisionContext(bits=MAX_PRECISION_BITS + 1)
    assert PrecisionContext(bits=MAX_PRECISION_BITS).bits == MAX_PRECISION_BITS
    ctx = PrecisionContext(bits=192)
    assert ctx.guard_bits == 32
    before = mp.prec
    with ctx.workprec():
        assert mp.prec == 192 + 32
    assert mp.prec == before


def test_context_for_matches_policy():
    ctx = context_for(10**4, growth_p1)
    assert ctx.bits == 467


def oracle_i0_of_2() -> Fraction:
    # I0(2) = sum_j 1/(j!)^2, exact rationals
    total = Fraction(0)
    fact = 1
    for j in range(60):
        if j:
            fact *= j
        total += Fraction(1, fact * fact)
    return total


def test_bessel_frozen_value(ctx192):
    value = bessel_i(0, 2, ctx192)
    with ctx192.workprec():
        want = to_mpf_exact(oracle_i0_of_2())
        assert abs(value - want) / want < mpf(2) ** (-(192 - 8))
    assert nstr_for_bits(value, 128).startswith(I0_OF_2[:30])


def test_bessel_zero_argument(ctx128):
    assert bessel_i(0, 0, ctx128) == 1
    assert bessel_i(1, 0, ctx128) == 0


def test_bessel_rejects_bad_order_and_argument(ctx128):
    with pytest.raises(DomainError):
        bessel_i(2, 1, ctx128)
    with pytest.raises(DomainError):
        bessel_i(0, -1, ctx128)


def test_bessel_against_mpmath(ctx192):
    rng = random.Random(1001)
    with ctx192.workprec():
        tol = mpf(2) ** (-(192 - 8))
        for _ in range(40):
            z = mpf(rng.uniform(0.01, 80.0))
            alpha = rng.choice((0, 1))
            ours = bessel_i(alpha, z, ctx192)
            ref = mp.besseli(alpha, z)
            assert abs(ours - ref) / ref < tol


def test_bessel_precision_refinement(ctx128, ctx192):
    # +64 bits moves the value by no more than 2^-(bits-16)
    with ctx192.workprec():
        tol = mpf(2) ** (-(128 - 16))
        for z in (mpf("0.5"), mpf(3), mpf(25), mpf(60)):
            lo = bessel_i(0, z, ctx128)
            hi = bessel_i(0, z, ctx192)
            assert abs(lo - hi) / hi < tol


def test_bessel_derivative_is_i1(ctx128):
    # d/dz I0 = I1, central difference with h = 2^(-bits/4)
    with ctx128.workprec():
        h = mpf(2) ** (-128 // 4)
        for z in (mpf("0.1"), mpf(1), mpf(10), mpf(50)):
            fd = (bessel_i(0, z + h, ctx128) - bessel_i(0, z - h, ctx128)) / (2 * h)
            i1 = bessel_i(1, z, ctx128)
            assert abs(fd - i1) / i1 < mpf(2) ** (-40)


def test_principal_sqrt_negative_axis():
    with mp.workprec(160):
        assert complex_sqrt_principal(mpf(-4)) == mpc(0, 2)
        assert complex_sqrt_principal(mpc(-9, 0)) == mpc(0, 3)
        assert complex_sqrt_principal(0) == 0


def test_principal_sqrt_roundtrip_seeded(ctx128):
    rng = random.Random(42)
    with ctx128.workprec():
        tol = mpf(2) ** (-(128 - 8))
        for _ in range(10**4):
            w = mpc(rng.uniform(-50, 50), rng.uniform(-50, 50))
            s = complex_sqrt_principal(w)
            assert s.real >= 0
            back = s * s
            assert abs(back - w) <= tol * abs(w)


def test_to_fraction_exact_cases():
    assert to_fraction_exact(0.5) == Fraction(1, 2)
    assert to_fraction_exact(7) == Fraction(7)
    assert to_fraction_exact("2.5") == Fraction(5, 2)
    assert to_fraction_exact(Fraction(3, 7)) == Fraction(3, 7)
    with mp.workprec(100):
        v = mpf("1.375")
    assert to_fraction_exact(v) == Fraction(11, 8)
    with pytest.raises(DomainError):
        to_fraction_exact(float("nan"))
    with pytest.raises(DomainError):
        to_fraction_exact(float("inf"))


def test_to_mpf_exact_single_rounding():
    with mp.workprec(128):
        assert to_mpf_exact(Fraction(1, 3)) == mpf(1) / mpf(3)
        assert to_mpf_exact(10**40) == mpf(10) ** 40
        assert to_mpf_exact("0.125") == mpf("0.125")


def test_mpf_fraction_roundtrip_seeded():
    rng = random.Random(7)
    with mp.workprec(160):
        for _ in range(200):
            v = mpf(rng.uniform(-1e6, 1e6)) / 3
            assert to_mpf_exact(to_fraction_exact(v)) == v


def test_nstr_for_bits_roundtrip(ctx192):
    rng = random.Random(9)
    with mp.workprec(192 + 64):
        for _ in range(50):
            v = mpf(rng.uniform(1e-8, 1e8)) * mp.sqrt(2)
            s = nstr_for_bits(v, 192)
            back = mpf(s)
            assert abs(back - v) / abs(v) < mpf(2) ** (-190)
