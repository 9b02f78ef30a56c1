import math

import pytest
from mpmath import mp, mpf

from cancelsum import (DomainError, ExactPartitionTable, MeinardusParams,
                       meinardus_kernel, p1, p2, p3, p4, partition_exact,
                       pentagonal, pnt_checksum, q1_kernel,
                       usual_partition_params)
from cancelsum.numerics import bessel_i, to_mpf_exact
from cancelsum.partition import p5_kernel


def dp_partition_table(n_max: int) -> list:
    """Brute-force oracle: DP over part sizes, no pentagonal recurrence."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            table[total] += table[total - part]
    return table


def test_partition_small_values():
    assert partition_exact(0) == 1
    assert partition_exact(5) == 7
    assert partition_exact(20) == 627


def test_partition_matches_dp_oracle():
    oracle = dp_partition_table(200)
    assert [partition_exact(n) for n in range(201)] == oracle


def test_table_monotone():
    table = ExactPartitionTable()
    table.grow(300)
    values = [table.partition(k) for k in range(301)]
    assert values[0] == 1
    assert all(values[k] >= values[k - 1] for k in range(1, 301))


def test_pentagonal_sequence():
    got = []
    for n in (1, -1, 2, -2, 3, -3, 4, -4):
        got.append(pentagonal(n))
    assert got == [1, 2, 5, 7, 12, 15, 22, 26]


def test_pnt_checksum_small_decompositions():
    # x=6: p(6) - p(5) - p(4) + p(1) = 11 - 7 - 5 + 1
    assert 11 - 7 - 5 + 1 == 0
    assert pnt_checksum(6) == 0
    assert pnt_checksum(1) == 0
    assert pnt_checksum(1000) == 0


def test_pnt_checksum_prefix_range():
    table = ExactPartitionTable()
    for x in range(1, 301):
        assert pnt_checksum(x, table) == 0


def test_pnt_checksum_detects_corruption():
    table = ExactPartitionTable()
    table.grow(60)
    values = [table.partition(k) for k in range(61)]
    values[30] += 1
    bad = ExactPartitionTable(values)
    assert any(pnt_checksum(x, bad) != 0 for x in range(1, 61))


def test_pnt_checksum_rejects_bad_argument():
    with pytest.raises(DomainError):
        pnt_checksum(0)
    with pytest.raises(DomainError):
        pnt_checksum(-3)


def test_p1_ratio_at_5000(ctx192):
    ratio = p1(5000, ctx192) / to_mpf_exact(partition_exact(5000))
    assert 0.98 < float(ratio) < 1.02


def test_p2_relative_error_band(ctx192):
    for x in (1000, 10000):
        with ctx192.workprec():
            ratio = p2(x, ctx192) / to_mpf_exact(partition_exact(x))
            assert abs(float(ratio) - 1) <= x ** -0.5


def test_p2_absolute_error_at_100(ctx192):
    with ctx192.workprec():
        err = abs(p2(100, ctx192) - partition_exact(100))
        assert err <= 3 * mp.sqrt(partition_exact(100))


def test_p3_sign_alternation(ctx192):
    for x in range(10, 21):
        assert p3(x + 1, ctx192) * p3(x, ctx192) < 0


def test_p4_is_sum(ctx192):
    with ctx192.workprec():
        for x in (10, 57, 123):
            assert p4(x, ctx192) == p2(x, ctx192) + p3(x, ctx192)


def test_kernels_increasing_beyond_threshold(ctx192):
    for fn in (p1, p2, p4):
        prev = fn(5, ctx192)
        for x in range(6, 61):
            cur = fn(x, ctx192)
            assert cur > prev > 0
            prev = cur
    prev = abs(p3(5, ctx192))
    for x in range(6, 61):
        cur = abs(p3(x, ctx192))
        assert cur > prev > 0
        prev = cur


def test_p_kernels_reject_bad_x(ctx192):
    with pytest.raises(DomainError):
        p1(0, ctx192)
    with pytest.raises(DomainError):
        p3(2.5, ctx192)  # sign factor defined at integers only


def test_q1_derivative_consistency(ctx192):
    # q1 is d/dn I0(pi sqrt((n + 1/24)/3)) via the chain rule
    with ctx192.workprec():
        h = mpf(2) ** -40

        def outer(n):
            return bessel_i(0, mp.pi * mp.sqrt((n + mpf(1) / 24) / 3), ctx192)

        n0 = mpf(10)
        fd = (outer(n0 + h) - outer(n0 - h)) / (2 * h)
        exact = q1_kernel(10, ctx192)
        assert abs(fd - exact) / exact < mpf("1e-10")


def test_q1_positive(ctx192):
    for n in (1, 7, 100, 5000):
        assert q1_kernel(n, ctx192) > 0


def test_q1_log_asymptote(ctx192):
    # log q1(n)/sqrt(n) -> pi/sqrt(3); subleading terms still ~4.5% at 1e4
    with ctx192.workprec():
        target = float(mp.pi / mp.sqrt(3))
        at4 = float(mp.log(q1_kernel(10**4, ctx192))) / 10**2
        at5 = float(mp.log(q1_kernel(10**5, ctx192))) / 10**2.5
        assert abs(at4 / target - 1) < 0.05
        assert abs(at5 / target - 1) < 0.02


def test_p5_positive_and_symmetric(ctx192):
    for n in (1, 10, 1000):
        for a in (1, 2, 3, 4):
            assert p5_kernel(n, a, ctx192) > 0
    with ctx192.workprec():
        for n in (3, 50):
            assert abs(p5_kernel(n, 1, ctx192) - p5_kernel(n, 4, ctx192)) < mpf(2) ** -150
            assert abs(p5_kernel(n, 2, ctx192) - p5_kernel(n, 3, ctx192)) < mpf(2) ** -150


def test_p5_log_asymptote(ctx192):
    with ctx192.workprec():
        target = float(2 * mp.pi / mp.sqrt(15))
        at4 = float(mp.log(p5_kernel(10**4, 1, ctx192))) / 10**2
        at5 = float(mp.log(p5_kernel(10**5, 1, ctx192))) / 10**2.5
        assert abs(at4 / target - 1) < 0.05
        assert abs(at5 / target - 1) < 0.02


def test_p5_rejects_bad_a(ctx192):
    with pytest.raises(DomainError):
        p5_kernel(10, 5, ctx192)


def test_meinardus_usual_matches_p2(ctx192):
    kernel = meinardus_kernel(usual_partition_params())
    with ctx192.workprec():
        for n in (10, 100, 1000):
            a = kernel(n, ctx192)
            b = p2(n, ctx192)
            assert abs(a - b) / b < mpf("1e-20")


def test_meinardus_r_limit(ctx192):
    # large r_exp: the (1 - h^-r) factor becomes 1
    base = MeinardusParams(q_exp=1.0, theta=0.5, r_exp=500.0, s_exp=0.5,
                           g=((1,), (1,)), h=((2,), (1,)), k=((0, 1), (1,)))
    kernel = meinardus_kernel(base)
    with ctx192.workprec():
        n = mpf(9)
        want = mp.exp(mp.sqrt(n))
        assert abs(kernel(9, ctx192) - want) / want < mpf(2) ** -150


def test_meinardus_theta_one(ctx192):
    # theta=1, k(n)=n, g=1, h(n)=n+1, r=1: kernel = e^n (1 - 1/(n+1))
    params = MeinardusParams(q_exp=1.0, theta=1.0, r_exp=1.0, s_exp=0.5,
                             g=((1,), (1,)), h=((1, 1), (1,)), k=((0, 1), (1,)))
    kernel = meinardus_kernel(params)
    with ctx192.workprec():
        for n in (2, 5):
            want = mp.exp(n) * (1 - mpf(1) / (n + 1))
            assert abs(kernel(n, ctx192) - want) / want < mpf(2) ** -150


def test_meinardus_domain_errors(ctx192):
    with pytest.raises(DomainError):
        MeinardusParams(q_exp=1.0, theta=0.5, r_exp=0.5, s_exp=1.5,
                        g=((1,), (1,)), h=((1,), (1,)), k=((1,), (1,)))
    with pytest.raises(DomainError):
        MeinardusParams(q_exp=1.0, theta=0.0, r_exp=0.5, s_exp=0.5,
                        g=((1,), (1,)), h=((1,), (1,)), k=((1,), (1,)))
    # g(n) = n - 10 goes nonpositive at n = 5
    params = MeinardusParams(q_exp=1.0, theta=0.5, r_exp=0.5, s_exp=0.5,
                             g=((-10, 1), (1,)), h=((1,), (1,)), k=((0, 1), (1,)))
    kernel = meinardus_kernel(params)
    with pytest.raises(DomainError):
        kernel(5, ctx192)

