from fractions import Fraction

import pytest
from mpmath import mp, mpf

from cancelsum import (DomainError, ExactPartitionTable, ResourceError, p1, p2, p3,
                       p4, partition_exact, pentagonal, pnt_checksum)
from cancelsum.partition import MAX_PARTITION_N
from cancelsum.numerics import to_mpf_exact


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
    with pytest.raises(ResourceError):  # before any entry is added
        table.grow(MAX_PARTITION_N + 1)
    assert table.n_max == 300


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
    for bad in (True, False, "3", -3, 0.0, Fraction(5, 2), mpf("3.5"), mpf(0),
                float("inf"), mpf("nan"), None):
        with pytest.raises(DomainError):
            p3(bad, ctx192)
    # an exactly integral rational, float or mpf is that integer
    for same in (3.0, Fraction(6, 2), mpf(3)):
        assert p3(same, ctx192) == p3(3, ctx192)
