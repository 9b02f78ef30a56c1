import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from cancelsum import (DegreeMismatchError, DomainError, IntegerPolynomial,
                       PTEPair, ResourceError, coefficient_bound_check, construct_pair,
                       detect_degree, empirical_constant, f_r_exact,
                       integer_root, k_regime, lemma_bound, lemma_sum,
                       pigeonhole_c, power_sum_diff, verify_pte_bound)
from cancelsum.oscsum import MAX_INDEX_RANGE
from cancelsum.pte import MAX_POWER


def f_r_oracle(M: int, r: int) -> int:
    """Unfolded brute force: literal sum over l = -(2M-1) .. 2M-1."""
    total = 0
    for l in range(-(2 * M - 1), 2 * M):
        term = (4 * M * M - l * l) ** r
        total += term if l % 2 == 0 else -term
    return total


# ---------------------------------------------------------------------------
# integer roots and the constructor


def test_integer_root_exact():
    assert integer_root(3, 26) == 2
    assert integer_root(3, 27) == 3
    assert integer_root(3, 28) == 3
    assert integer_root(2, 10**40) == 10**20
    assert integer_root(2, 10**40 - 1) == 10**20 - 1
    assert integer_root(5, 0) == 0
    with pytest.raises(DomainError):
        integer_root(0, 5)
    with pytest.raises(DomainError):
        integer_root(2, -1)


def test_constructor_bare_floor_fails_small_n():
    # N^{2m+1} <= (2n-1)^2 for these, so the bare floor violates
    # positivity and N is bumped
    for n in (2, 8, 100, 200):
        assert construct_pair(n, 1).adjusted is True


def test_constructor_adjusted_n100():
    pair = construct_pair(100, 1)
    assert pair.N == 35
    assert pair.adjusted is True
    assert pair.N ** 3 == 42875
    assert len(pair.xs) == len(pair.ys) == 100
    assert pair.xs[0] == 42875
    assert pair.ys[0] == 42874
    assert pair.ys[-1] == 42875 - 199 ** 2


def test_constructor_adjusted_n2():
    pair = construct_pair(2, 1)
    assert pair.N == 3 and pair.adjusted
    assert pair.xs == (27, 23)
    assert pair.ys == (26, 18)


def test_constructor_bare_valid_m2():
    # m = 2: N = floor(100^{4/5}) = 39, 39^5 >> 99^2, no adjustment
    pair = construct_pair(50, 2)
    assert pair.N == 39
    assert pair.adjusted is False


def test_constructor_validation():
    with pytest.raises(DomainError):
        construct_pair(1, 1)
    with pytest.raises(DomainError):
        construct_pair(5, 0)
    with pytest.raises(ResourceError):  # before any list is built
        construct_pair(MAX_INDEX_RANGE + 1, 1)


def test_pair_structure():
    for n, m in ((2, 1), (100, 1), (200, 1), (50, 2)):
        pair = construct_pair(n, m)
        assert all(v > 0 for v in pair.xs + pair.ys)
        assert all(pair.xs[i] > pair.xs[i + 1] for i in range(n - 1))
        assert all(pair.ys[i] > pair.ys[i + 1] for i in range(n - 1))
        assert not set(pair.xs) & set(pair.ys)
        # interleaving: xs[i] > ys[i] > xs[i+1]
        assert all(pair.xs[i] > pair.ys[i] for i in range(n))
        assert all(pair.ys[i] > pair.xs[i + 1] for i in range(n - 1))


def test_sign_alternation_same_sign():
    # consecutive differences xs[i] - ys[i] = 4i - 3 share one sign, the
    # structural reason these are only approximate PTE solutions
    pair = construct_pair(100, 1)
    gaps = [x - y for x, y in zip(pair.xs, pair.ys)]
    assert gaps == [4 * i - 3 for i in range(1, 101)]
    assert all(g > 0 for g in gaps)


# ---------------------------------------------------------------------------
# power-sum differences


def test_hand_pair_diffs():
    hand = PTEPair(n=2, m=1, N=2, xs=(8, 4), ys=(7, 5), adjusted=False)
    assert power_sum_diff(hand, 0) == 0
    assert power_sum_diff(hand, 1) == 0
    assert power_sum_diff(hand, 2) == 6
    with pytest.raises(DomainError):
        power_sum_diff(hand, -1)


def test_r1_closed_form():
    # telescoping: sum((2i-1)^2 - (2i-2)^2) = sum(4i-3) = 2n^2 - n
    for n, m in ((2, 1), (100, 1), (200, 1), (50, 2), (1000, 1)):
        pair = construct_pair(n, m)
        assert power_sum_diff(pair, 1) == 2 * n * n - n


def test_k_regime():
    assert k_regime(100, 1) == 4
    assert k_regime(1000, 1) == 14
    with pytest.raises(DomainError):
        k_regime(2, 1)


def test_verify_bound_rows_n100():
    pair = construct_pair(100, 1)
    rows = verify_pte_bound(pair, 4)
    assert [row.r for row in rows] == [1, 2, 3, 4]
    assert all(row.within_regime for row in rows)
    assert rows[0].diff == 19900
    want_ratios = (2.7458889, 17.410363, 103.49368, 612.4842)
    for row, want in zip(rows, want_ratios):
        assert abs(float(row.ratio) / want - 1) < 1e-6
        with mp.workprec(160):
            bound = mpf(35) ** (mpf(row.r) * mpf(5) / 2)
            assert abs(row.bound - bound) <= bound * mpf(2) ** -100
    assert abs(float(empirical_constant(rows)) / 612.4842 - 1) < 1e-6


def test_verify_bound_flags_beyond_regime():
    pair = construct_pair(100, 1)
    rows = verify_pte_bound(pair, 6)
    assert [row.within_regime for row in rows] == [True] * 4 + [False] * 2
    # flagged rows never feed the empirical constant
    assert empirical_constant(rows) == empirical_constant(rows[:4])


def test_verify_bound_validation():
    pair = construct_pair(100, 1)
    with pytest.raises(DomainError):
        verify_pte_bound(pair, 0)
    with pytest.raises(ResourceError):
        verify_pte_bound(pair, MAX_POWER + 1)
    with pytest.raises(DomainError):
        empirical_constant([])


def test_pte_row_json():
    pair = construct_pair(100, 1)
    row = verify_pte_bound(pair, 1)[0]
    d = row.to_json_dict()
    assert set(d) == {"r", "diff", "bound", "ratio", "within_regime"}
    assert d["diff"] == "19900"
    assert isinstance(d["ratio"], float)
    float(d["bound"])


# ---------------------------------------------------------------------------
# the alternating polynomial family


def test_f_r_hand_values():
    assert f_r_exact(1, 1) == -2
    assert f_r_exact(1, 2) == -2
    assert f_r_exact(2, 1) == -4
    assert f_r_exact(3, 1) == -6


def test_f_r_matches_unfolded_oracle():
    for r in range(0, 7):
        for M in range(1, 11):
            assert f_r_exact(M, r) == f_r_oracle(M, r)


def test_f_1_is_minus_2M():
    for M in range(1, 21):
        assert f_r_exact(M, 1) == -2 * M


def test_detect_degree_small_cases():
    degree, poly = detect_degree(2)
    assert degree == 1
    assert poly.coeffs == (0, -2)
    assert str(poly) == "-2M"
    degree, poly = detect_degree(1)
    assert degree == 1
    assert poly.coeffs == (0, -2)
    degree, poly = detect_degree(4)
    assert degree == 3
    assert poly.coeffs == (0, -34, 0, 128)
    degree, poly = detect_degree(3)
    assert degree == 3
    assert poly.coeffs == (0, -6, 0, 16)


def test_parity_law_and_vanishing_differences():
    for r in range(1, 17):
        degree, poly = detect_degree(r)
        assert degree == (r - 1 if r % 2 == 0 else r)
        assert poly.degree == degree
        # (r+1)-th forward differences of exact samples vanish identically
        row = [f_r_exact(M, r) for M in range(1, r + 5)]
        for _ in range(r + 1):
            row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        assert all(v == 0 for v in row)


def test_interpolant_out_of_sample():
    for r in (2, 3, 4, 5, 16, 33, 64):
        _, poly = detect_degree(r)
        for M in range(50, 60):
            assert poly.evaluate(M) == f_r_exact(M, r)


def _degree(values: list) -> int:
    """Exact forward differences of samples at consecutive integers
    until the row is constant: the degree of their polynomial."""
    degree = 0
    while len(set(values)) > 1:
        values = [b - a for a, b in zip(values, values[1:])]
        degree += 1
    return degree


def test_abstract_identity_both_readings():
    # sum_{|l|<=x} (4x^2 - 4l^2)^{2r} - sum_{|l|<x} (4x^2 - (2l+1)^2)^{2r}.
    # As printed, the odd side leaves out 2l+1 = 1 - 2x, whose term is
    # (4x - 1)^{2r}, and the difference has degree 2r.  Over every odd
    # 2l+1 with |2l+1| < 2x it is f_{2r}(x), of degree 2r - 1: the
    # reading criterion 04 checks.  (The even side's l = +-x terms are 0.)
    for r in range(1, 5):
        printed, every_odd = [], []
        for x in range(1, 2 * r + 4):
            even = sum((4 * x * x - 4 * l * l) ** (2 * r) for l in range(-x, x + 1))
            odd_printed = sum((4 * x * x - (2 * l + 1) ** 2) ** (2 * r) for l in range(1 - x, x))
            odd_all = sum((4 * x * x - j * j) ** (2 * r) for j in range(1 - 2 * x, 2 * x, 2))
            printed.append(even - odd_printed)
            every_odd.append(even - odd_all)
            assert even - odd_all == f_r_exact(x, 2 * r)
            assert even - odd_printed == f_r_exact(x, 2 * r) + (4 * x - 1) ** (2 * r)
        assert (_degree(printed), _degree(every_odd)) == (2 * r, 2 * r - 1)


def test_detect_degree_validation():
    with pytest.raises(DomainError):
        detect_degree(0)
    with pytest.raises(ResourceError):
        detect_degree(MAX_POWER + 1)


def test_coefficient_bounds():
    _, poly2 = detect_degree(2)
    assert coefficient_bound_check(2, poly2)          # 2 <= 24 * 100
    _, poly1 = detect_degree(1)
    assert coefficient_bound_check(1, poly1)          # 2 <= 2 * 100
    _, poly8 = detect_degree(8)
    assert coefficient_bound_check(8, poly8)
    assert not coefficient_bound_check(1, IntegerPolynomial((0, 300)))


# ---------------------------------------------------------------------------
# pigeonhole exponent and the lemma sums


def test_pigeonhole_values():
    assert pigeonhole_c(10, 4) == 0
    assert isinstance(pigeonhole_c(10, 4), Fraction)
    assert pigeonhole_c(100, 20) == Fraction(11, 21)
    assert abs(float(pigeonhole_c(100, 20)) - 0.5238) < 1e-4
    # k just below sqrt(2n): negative raw value clamps to 0
    assert pigeonhole_c(50, 9) == 0
    with pytest.raises(DomainError):
        pigeonhole_c(0, 4)


def test_lemma_sum_k0_pairing():
    for x, T in ((1, 4), (10, 10), (40, 3000), (Fraction(5, 2), 7)):
        val = lemma_sum(x, T, 0)
        assert val in (Fraction(-1), Fraction(0), Fraction(1))


def test_lemma_sum_k2_hand():
    val = lemma_sum(1, 4, 2)
    assert val == Fraction(-1, 2)
    assert isinstance(val, Fraction)


def test_lemma_sum_even_exact_rational():
    val = lemma_sum(Fraction(7, 2), Fraction(8, 3), 4)
    assert isinstance(val, Fraction)
    # against one Fraction per term, at seeded random rational x and T
    rng = random.Random(4)
    for _ in range(40):
        x = Fraction(rng.randrange(1, 400), rng.choice((1, 2, 3, 7)))
        T = Fraction(rng.randrange(1, 300), rng.choice((1, 3)))
        if x * T < 1:
            continue
        k = 2 * rng.randrange(6)
        oracle = sum((-1) ** abs(l) * (x - Fraction(l * l) / T) ** (k // 2)
                     for l in range(-400, 401) if l * l < x * T)
        assert lemma_sum(x, T, k) == oracle


def test_lemma_sum_odd_needs_ctx(ctx192):
    with pytest.raises(DomainError):
        lemma_sum(1, 4, 1)
    val = lemma_sum(1, 4, 1, ctx192)
    with ctx192.workprec():
        # l in {-1, 0, 1}: 1 - 2 (3/4)^{1/2} = 1 - sqrt(3)
        assert abs(val - (1 - mp.sqrt(3))) < mpf(2) ** -150


def test_lemma_sum_validation(ctx192):
    with pytest.raises(DomainError):
        lemma_sum(Fraction(1, 2), 1, 2)
    with pytest.raises(DomainError):
        lemma_sum(1, 4, -1, ctx192)


def test_lemma_bound_anchor(ctx192):
    with ctx192.workprec():
        val = lemma_bound(1, 4, 2, 1, ctx192)
        assert abs(val - mpf("2.11697102139647")) < mpf("1e-13")


def test_lemma_sum_within_bound(ctx192):
    # growth check on a small grid, u = 1; constant stays modest
    worst = 0.0
    for x in (4, 9, 16, 25):
        for T in (1, 4):
            for k in (0, 1, 2, 3):
                val = lemma_sum(x, T, k, ctx192)
                with ctx192.workprec():
                    mag = abs(to_mpf(val))
                    bnd = lemma_bound(x, T, k, 1, ctx192)
                    worst = max(worst, float(mag / bnd))
    assert worst <= 10


def to_mpf(value):
    if isinstance(value, Fraction):
        from cancelsum.numerics import to_mpf_exact
        return to_mpf_exact(value)
    return value
