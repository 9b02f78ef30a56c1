import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from cancelsum import (DomainError, ExactPartitionTable, PrecisionContext, ResourceError,
                       partition_exact, pentagonal, pnt_checksum, rademacher_kernel)
from cancelsum.partition import MAX_PARTITION_N, RADEMACHER
from cancelsum.numerics import to_mpf_exact


def _at_one_argument(name):
    """(x, ctx) -> the Rademacher kernel `name` at x, bound for that call."""
    bind, _ = RADEMACHER[name]
    return lambda x, ctx: bind(ctx)(x)


p1, p2, p3, p4 = map(_at_one_argument, ("p1", "p2", "p3", "p4"))


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


def _printed_formula(name: str, x: int, ctx: PrecisionContext) -> mpf:
    """The kernels as printed, on mpf operators: the oracle for the bound
    kernels' bits."""
    with ctx.workprec():
        if name in ("p1", "sqrt_p1"):
            xx = mpf(x)
            val = mp.exp(mp.pi * mp.sqrt(2 * xx / 3)) / (4 * xx * mp.sqrt(3))
            return mp.sqrt(val) if name == "sqrt_p1" else val
        v = mpf(24 * x - 1)
        pre2 = mp.sqrt(12) / v - 6 * mp.sqrt(12) / (mp.pi * v ** mpf("1.5"))
        val2 = pre2 * mp.exp(mp.pi / 6 * mp.sqrt(v))
        pre3 = mp.sqrt(6) / v - 12 * mp.sqrt(6) / (mp.pi * v ** mpf("1.5"))
        val3 = pre3 * mp.exp(mp.pi / 12 * mp.sqrt(v))
        val3 = val3 if x % 2 == 0 else -val3
        return {"p2": val2, "p3": val3, "p4": val2 + val3}[name]


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "p4", "sqrt_p1"])
@pytest.mark.parametrize("bits", [128, 214, 467, 1267])
def test_bound_kernel_matches_printed_formula(name, bits):
    ctx = PrecisionContext(bits=bits)
    with ctx.workprec():
        K = rademacher_kernel(name).bind_real(ctx)
    for x in (1, 2, 3, 24, 1001, 10**5):
        want = _printed_formula(name, x, ctx)._mpf_
        for y in (x, Fraction(x)):
            got = K(y)
            assert isinstance(got, mpf)
            assert got._mpf_ == want, (name, bits, y)


def _checksum_by_definition(x: int, table: ExactPartitionTable) -> int:
    """sum over n in Z with pentagonal(n) <= x of (-1)^n p(x - pentagonal(n))."""
    total = table.partition(x)
    n = 1
    while pentagonal(n) <= x or pentagonal(-n) <= x:
        sign = 1 if n % 2 == 0 else -1
        for g in (pentagonal(n), pentagonal(-n)):
            if g <= x:
                total += sign * table.partition(x - g)
        n += 1
    return total


def test_pnt_checksum_matches_definition_on_perturbed_tables():
    rng = random.Random(20191)
    base = ExactPartitionTable()
    base.grow(400)
    for _ in range(8):
        values = list(base._values[:rng.randrange(2, 401)])
        for k in rng.sample(range(1, len(values)), min(3, len(values) - 1)):
            values[k] += rng.choice((-2, -1, 1, 3))
        mine, reference = ExactPartitionTable(values), ExactPartitionTable(values)
        n_max = mine.n_max
        # x above n_max grows both tables from the perturbed values
        for x in list(range(1, n_max + 1)) + [n_max + 1, n_max + 37]:
            assert pnt_checksum(x, mine) == _checksum_by_definition(x, reference), x
        assert mine._values == reference._values
