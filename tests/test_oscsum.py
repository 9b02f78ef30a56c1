import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from cancelsum import (DegenerateFitError, DomainError, EmptyRangeError,
                       PrecisionContext, PrecisionError, QuadraticForm,
                       alternating_sum, bound_main1, bound_main2,
                       complex_exp_kernel, delta, empirical_exponent,
                       exp_sqrt_kernel, maximize_delta, pentagonal_form,
                       power_kernel, rademacher_kernel, square_form)
from cancelsum import oscsum
from cancelsum.numerics import to_mpf_exact
from cancelsum.partition import growth_p1, growth_p3, partition_exact


# ---------------------------------------------------------------------------
# quadratic forms and index ranges


def test_pentagonal_form_values():
    q = pentagonal_form()
    assert q.evaluate(1) == Fraction(1)
    assert q.evaluate(-1) == Fraction(2)
    assert q.evaluate(4) == Fraction(22)
    assert q.evaluate(-8) == Fraction(100)


def test_index_range_strict_exclusion():
    q = pentagonal_form()
    lo, hi = q.index_range(Fraction(100))
    # q(-8) = 100 is excluded under the strict inequality
    assert lo == -7
    assert q.evaluate(lo) < 100
    assert q.evaluate(lo - 1) >= 100
    assert q.evaluate(hi) < 100
    assert q.evaluate(hi + 1) >= 100


def test_index_range_square_form_boundary():
    # q(l) = l^2/100 at x = 10^4: l = 1000 hits equality and is excluded
    q = square_form(100)
    lo, hi = q.index_range(Fraction(10**4))
    assert (lo, hi) == (-999, 999)


def test_index_range_empty():
    q = pentagonal_form()
    with pytest.raises(EmptyRangeError):
        q.index_range(Fraction(-1, 2))


_small = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@settings(deadline=None, max_examples=100)
@given(a=st.fractions(min_value=Fraction(1, 4), max_value=20, max_denominator=12),
       b=_small, d=_small, x=st.fractions(min_value=-30, max_value=200, max_denominator=12),
       on_point=st.one_of(st.none(), st.integers(-20, 20)))
def test_index_range_matches_enumeration(a, b, d, x, on_point):
    # a >= 1/4, |b| <= 30 and x - d <= 230 put both roots of q = x inside
    # (-150, 150); on_point puts x exactly on q(n) for an integer n
    q = QuadraticForm(a, b, d)
    if on_point is not None:
        x = q.evaluate(on_point)
    inside = [n for n in range(-160, 161) if q.evaluate(n) < x]
    if not inside:
        with pytest.raises(EmptyRangeError):
            q.index_range(x)
        return
    assert q.index_range(x) == (inside[0], inside[-1])
    assert len(inside) == inside[-1] - inside[0] + 1 and -150 < inside[0]
    assert inside[-1] < 150
    # the summed arguments x - q(n), exact, and an int where integral
    for n, y in q.gaps(x, inside):
        assert y == x - q.evaluate(n)
        assert type(y) is (int if y.denominator == 1 else Fraction)


@pytest.mark.parametrize("q,one", [
    (pentagonal_form(), False),
    (square_form(1), True),
    (square_form(2), False),
    (square_form(Fraction(1, 2)), False),
    (QuadraticForm(1, 0, 1), True),
    (QuadraticForm(2, 1, 0), True),
    (QuadraticForm(Fraction(1, 2), Fraction(-3, 2)), False),  # n + q(n) is 0, 0, 1, 3
    (QuadraticForm(Fraction(3, 2), Fraction(3, 2)), False),
], ids=["pentagonal", "square-T1", "square-T2", "square-T-half", "n2+1", "2n2+n",
        "n-choose-2-minus-n", "three-triangular"])
def test_one_parity_against_enumeration(q, one):
    # n = 0..3 decides it; the enumeration over a long range agrees
    values = [n + q.evaluate(n) for n in range(-40, 41)]
    assert q.one_parity() == one
    assert one == (all(v.denominator == 1 for v in values)
                   and len({v % 2 for v in values}) == 1)


def test_form_validation():
    with pytest.raises(DomainError):
        QuadraticForm(Fraction(0), Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        QuadraticForm(Fraction(-1), Fraction(0), Fraction(0))


# ---------------------------------------------------------------------------
# delta and its maximization


def test_delta_hand_value():
    # a = 1, c = pi, r = 1: sqrt(golden ratio) - 1
    with mp.workprec(192):
        val = delta(1, 1, mp.pi)
        want = mp.sqrt((1 + mp.sqrt(5)) / 2) - 1
        assert abs(val - want) < mpf(2) ** -150
        assert abs(val - mpf("0.27202")) < mpf("1e-5")


def test_delta_negative_far_out():
    # pi/c > sqrt(a) strictly makes Delta eventually negative
    assert delta(10, 1, 2) < 0
    # at the boundary a c^2 = pi^2 Delta decays to 0 from above instead
    with mp.workprec(192):
        near = delta(10, 1, mp.pi)
        far = delta(100, 1, mp.pi)
        assert 0 < far < near < mpf("0.1")


def test_delta_zero_at_origin():
    assert delta(0, 1, mp.pi) == 0


def test_delta_resolves_constants():
    # callable and decimal-string rates are resolved before validation
    with mp.workprec(192):
        sqrt_phi = mp.sqrt((1 + mp.sqrt(5)) / 2)
        assert abs(delta(1, 1, growth_p1) - (sqrt_phi - mp.pi / growth_p1())) < mpf(2) ** -180
        assert abs(delta(1, 1, "2.5") - (sqrt_phi - mp.pi / mpf("2.5"))) < mpf(2) ** -180


def test_delta_validation():
    with pytest.raises(DomainError):
        delta(-1, 1, 1)
    with pytest.raises(DomainError):
        delta(1, 0, 1)
    with pytest.raises(DomainError):
        maximize_delta(-1, 1)
    with pytest.raises(DomainError):
        maximize_delta(1, 0)


def test_maximize_delta_stationarity():
    with mp.workprec(192):
        for a, c in ((mpf(1), mpf(1)), (mpf(3) / 2, growth_p1()),
                     (mpf(1), growth_p3())):
            alpha, w = maximize_delta(a, c)
            h = mpf("1e-7")
            d1 = (delta(alpha + h, a, c) - delta(alpha - h, a, c)) / (2 * h)
            assert abs(d1) < mpf("1e-5")
            assert 0 < w <= 1
            assert w <= delta(alpha, a, c) + mpf("1e-20")


def test_maximize_delta_grid_crosscheck():
    # dense-grid oracle: coarse global scan, then exhaustive 1e-6 steps near
    # the coarse argmax; must agree with maximize_delta to 1e-5
    with mp.workprec(192):
        a, c = mpf(3) / 2, growth_p1()
        alpha, w = maximize_delta(a, c)
        r_max = 4 * c / mp.pi * (1 + 1 / mp.sqrt(a)) + 4
        coarse_step = mpf("2e-4")
        best_r, best_v = mpf(0), mpf(0)
        r = coarse_step
        while r <= r_max:
            v = delta(r, a, c)
            if v > best_v:
                best_r, best_v = r, v
            r += coarse_step
        fine_best_r, fine_best_v = best_r, best_v
        r = best_r - 4 * coarse_step
        stop = best_r + 4 * coarse_step
        step = mpf("1e-6")
        while r <= stop:
            v = delta(r, a, c)
            if v > fine_best_v:
                fine_best_r, fine_best_v = r, v
            r += step
        assert abs(fine_best_r - alpha) < mpf("1e-5")
        assert abs(min(mpf(1), fine_best_v) - w) < mpf("1e-9")


def test_maximize_delta_small_c_limit():
    # Delta ~ a^{1/4} sqrt(r) - pi r / c stays positive near 0 for every
    # c > 0, so the max never vanishes; it shrinks like c/(4 pi) instead
    alpha, w = maximize_delta(1, "0.01")
    assert 0 < float(alpha) < 1e-5
    assert 0 < float(w) < 1e-3
    _, w_tiny = maximize_delta(1, "0.0001")
    assert float(w_tiny) < float(w) / 50


def test_maximize_delta_partition_regime():
    _, w = maximize_delta(Fraction(3, 2), growth_p1)
    assert abs(float(w) - 0.30) < 0.02


def test_maximize_delta_partition_exact():
    # a c^2 = pi^2 reduces the stationarity cubic to pi^2 (e^2 + e - 1), so
    # the radicand is 1/phi: alpha_star = sqrt(2/3) phi^{-3/2}, w = phi^{-5/2}
    alpha, w = maximize_delta(Fraction(3, 2), growth_p1)
    with mp.workprec(400):
        phi = (1 + mp.sqrt(5)) / 2
        assert abs(alpha / (mp.sqrt(mpf(2) / 3) * phi ** mpf(-1.5)) - 1) < mpf(2) ** -180
        assert abs(w / phi ** mpf(-2.5) - 1) < mpf(2) ** -180
    # bound_main1 carries w at the context's precision: at x = 1 the bound
    # is e^{w c}, so w = log(bound) / c
    bound = bound_main1(Fraction(3, 2), growth_p1, 1, PrecisionContext(bits=1100))
    with mp.workprec(2400):
        phi = (1 + mp.sqrt(5)) / 2
        w_used = mp.log(bound) / growth_p1()
        assert abs(w_used / phi ** mpf(-2.5) - 1) < mpf(2) ** -1000


def test_maximize_delta_endpoint_w_is_1():
    # c sqrt(a) = 16/5 > pi: Delta is unbounded and still increasing at
    # R_max, so w is 1 although Delta(R_max) is only about 0.26
    alpha, w = maximize_delta(1, Fraction(16, 5))
    with mp.workprec(192):
        r_max = 4 * (mpf(16) / 5) / mp.pi * 2 + 4
        assert abs(alpha - r_max) < mpf(2) ** -180
        assert delta(alpha, 1, Fraction(16, 5)) < mpf("0.3")
    assert w == 1


# ---------------------------------------------------------------------------
# alternating sums


def test_single_term_window(ctx192):
    # x = 3/2 over the pentagonal form keeps only n = 0 and n = 1
    kernel = exp_sqrt_kernel(1)
    rep = alternating_sum(kernel, pentagonal_form(), Fraction(3, 2), ctx192)
    assert rep.term_count == 2
    with ctx192.workprec():
        want = mp.exp(mp.sqrt(mpf(3) / 2)) - mp.exp(mp.sqrt(mpf(1) / 2))
        assert abs(rep.value - want) < mpf(2) ** -150


def test_interleaved_order():
    # every index once, by distance from the start (0 clipped into the
    # range), the upper of each pair first
    for lo in range(-12, 14):
        for hi in range(lo, 14):
            start = min(max(0, lo), hi)
            want = sorted(range(lo, hi + 1), key=lambda n: (abs(n - start), n < start))
            assert list(oscsum._interleaved(lo, hi)) == want, (lo, hi)


def test_precision_error_on_low_bits():
    ctx = PrecisionContext(bits=128)
    with pytest.raises(PrecisionError):
        alternating_sum(rademacher_kernel("p2"), pentagonal_form(), 10**4, ctx)


def test_reordering_invariance():
    # accumulation tolerance is relative to the largest summand (the sum
    # itself cancels to ~1e-2 while terms reach ~1e49)
    x = 2000
    kernel = rademacher_kernel("p2")
    ctx = PrecisionContext(bits=300)
    q = pentagonal_form()
    rep = alternating_sum(kernel, q, x, ctx)
    lo, hi = q.index_range(x)
    with ctx.workprec():
        K = kernel.bind_real(ctx)
        ascending = mpf(0)
        for n in range(lo, hi + 1):
            term = K(x - q.evaluate(n))
            ascending += term if n % 2 == 0 else -term
        scale = K(x)
        assert abs(rep.value - ascending) <= scale * mpf(2) ** -(300 - 16)


def test_precision_refinement():
    x = 2000
    kernel = rademacher_kernel("p2")
    lo = alternating_sum(kernel, pentagonal_form(), x, PrecisionContext(bits=300))
    hi = alternating_sum(kernel, pentagonal_form(), x, PrecisionContext(bits=364))
    hi_ctx = PrecisionContext(bits=364)
    with hi_ctx.workprec():
        scale = kernel.bind_real(hi_ctx)(x)
    with mp.workprec(380):
        assert abs(lo.value - hi.value) <= scale * mpf(2) ** -(300 - 16)
        # the cancelled value itself is stable to ~40 digits here
        assert abs(lo.value - hi.value) <= abs(hi.value) * mpf("1e-40")


def test_p4_square_cancellation_band(ctx320):
    # |S| / (2^{-3/4} x^{-1/4} sqrt(p(x))) stays near 1
    x = 1000
    rep = alternating_sum(rademacher_kernel("p4"), square_form(1), x, ctx320)
    with ctx320.workprec():
        denom = 2 ** mpf("-0.75") * mpf(x) ** mpf("-0.25") * \
            mp.sqrt(to_mpf_exact(partition_exact(x)))
        ratio = abs(rep.value) / denom
        assert 0.5 < float(ratio) < 2


def test_p2_pentagonal_exponent(ctx320):
    x = 2000
    rep = alternating_sum(rademacher_kernel("p2"), pentagonal_form(), x, ctx320)
    with ctx320.workprec():
        expo = mp.log(abs(rep.value)) / mp.log(to_mpf_exact(partition_exact(x)))
        assert float(expo) <= 0.12


def test_kernel_real_on_positive_reals():
    assert exp_sqrt_kernel(1).real and power_kernel(3).real
    assert complex_exp_kernel(1, 0, 100).real
    assert not complex_exp_kernel(1, 10, 100).real
    assert not complex_exp_kernel(1, Fraction(-1, 3), 100).real


def test_complex_kernel_beta_zero_matches_real(ctx320):
    q = square_form(10**4)
    a = alternating_sum(complex_exp_kernel(1, 0, 10**4), q, 100, ctx320)
    b = alternating_sum(exp_sqrt_kernel(1), q, 100, ctx320)
    with ctx320.workprec():
        assert abs(a.value - b.value) <= abs(b.value) * mpf(2) ** -280


def test_complex_kernel_unit_terms(ctx320):
    # alpha = beta = 0 collapses each term to +-1; over the symmetric window
    # l^2 < 5000 the alternating sum telescopes to exactly 1
    rep = alternating_sum(complex_exp_kernel(0, 0, 100), square_form(100),
                          50, ctx320)
    assert rep.term_count == 141
    assert rep.value.real == 1
    assert rep.value.imag == 0


def test_complex_kernel_validation():
    with pytest.raises(DomainError):
        complex_exp_kernel(-1, 0, 100)
    with pytest.raises(DomainError):
        complex_exp_kernel(1, 11, 100)  # beta^2 > T


def test_complex_instance_within_bound(ctx320):
    x, T, alpha, beta = 100, 10**4, 1, 50
    rep = alternating_sum(complex_exp_kernel(alpha, beta, T), square_form(T), x, ctx320)
    bnd = bound_main2(alpha, beta, T, x, "0.01")
    assert abs(rep.value) <= 10 * bnd


# ---------------------------------------------------------------------------
# bounds


def test_bound_main1_small_c_limit(ctx192):
    # w*c -> 0 quadratically as c -> 0, so the bound collapses to sqrt(x)
    with ctx192.workprec():
        val = bound_main1(1, "1e-8", 400, ctx192)
        assert abs(val - 20) < mpf("1e-13")
        assert val >= 20


def test_bound_main1_log_identity(ctx192):
    # log(bound)/sqrt(x) = w c + log(sqrt(x))/sqrt(x)
    with ctx192.workprec():
        a, c, x = Fraction(3, 2), growth_p1(), 10**4
        _, w = maximize_delta(a, c)
        val = bound_main1(a, c, x, ctx192)
        sx = mp.sqrt(mpf(x))
        lhs = mp.log(val) / sx
        rhs = w * c + mp.log(sx) / sx
        assert abs(lhs - rhs) < mpf(2) ** -120


def test_bound_main1_monotone(ctx192):
    prev = mpf(0)
    for x in (100, 200, 400, 800, 1600):
        cur = bound_main1(Fraction(3, 2), growth_p1, x, ctx192)
        assert cur > prev
        prev = cur


def test_bound_main2_alpha_zero_exact():
    with mp.workprec(192):
        T, beta = 10**4, 7
        val = bound_main2(0, beta, T, 100, "0.01")
        want = mp.sqrt(mpf(T) / (beta + 1)) + mp.sqrt(mpf(T))
        assert abs(val - want) < mpf(2) ** -150


def test_bound_main2_constant_digits():
    # sqrt(2/(2+pi^2)) = 0.4104846...
    with mp.workprec(192):
        const = mp.sqrt(mpf(2) / (2 + mp.pi ** 2))
        assert mp.nstr(const, 7) == "0.4104846"


def test_bound_main2_decreasing_in_beta():
    vals = [bound_main2(1, b, 10**4, 100, "0.01") for b in (0, 5, 50, 99)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_bound_main2_validation():
    # delta_slack > 0, x >= 0 and complex_exp_kernel's regime
    slack = Fraction(1, 100)
    for alpha, beta, T, x, delta in ((1, 0, 100, 100, 0), (1, 0, -1, 10, slack),
                                     (1, 0, 0, 10, slack), (1, 5, 1, 10, slack),
                                     (5, 0, 1, 10, slack), (-1, 0, 1, 10, slack),
                                     (1, 0, 1, -10, slack)):
        with pytest.raises(DomainError):
            bound_main2(alpha, beta, T, x, delta)


def test_sumreport_json_keys(ctx192):
    rep = alternating_sum(exp_sqrt_kernel(1), pentagonal_form(), 50, ctx192)
    d = rep.to_json_dict()
    assert set(d) == {"x", "re", "im", "abs", "terms", "bound", "ratio", "bits"}
    float(d["re"])
    float(d["abs"])
    assert d["terms"] == rep.term_count
    assert d["bound"] is None and d["ratio"] is None


def test_sumreport_bound_ratio(ctx192):
    rep = alternating_sum(exp_sqrt_kernel(1), pentagonal_form(), 50, ctx192,
                          predicted_bound=bound_main1(Fraction(3, 2), 1, 50, ctx192))
    assert rep.predicted_bound is not None
    with ctx192.workprec():
        assert abs(rep.ratio - rep.abs_value / rep.predicted_bound) < mpf(2) ** -150


# ---------------------------------------------------------------------------
# exponent fitting


def test_empirical_exponent_exact_line():
    # log |S(x)| = 0.5 sqrt(x) + 3 exactly
    pts = [(x, mp.exp(mpf("0.5") * mp.sqrt(x) + 3)) for x in
           (100, 400, 900, 1600, 2500)]
    w_hat, intercept, rms = empirical_exponent(pts)
    assert abs(w_hat - 0.5) < 1e-12
    assert abs(intercept - 3) < 1e-10
    assert rms < 1e-12


def test_empirical_exponent_correctly_rounded():
    # uncentred normal equations (Cramer's rule) in exact rationals give
    # the same least-squares solution; the fit must be its float rounding
    rng = random.Random(7)
    xs = [k * k for k in range(10, 90, 7)]
    pts = [(x, mpf(rng.uniform(0.5, 2.0)) * mp.exp(mpf("0.1") * k))
           for x, k in zip(xs, range(10, 90, 7))]
    with mp.workprec(128):
        ts = [Fraction(float(mp.sqrt(x))) for x, _ in pts]
        ys = [Fraction(float(mp.log(v))) for _, v in pts]
    n = len(ts)
    st, sy = sum(ts), sum(ys)
    stt = sum(t * t for t in ts)
    sty = sum(t * y for t, y in zip(ts, ys))
    det = n * stt - st * st
    w = (n * sty - st * sy) / det
    b = (stt * sy - st * sty) / det
    w_hat, intercept, rms = empirical_exponent(pts)
    assert w_hat == float(w)
    assert intercept == float(b)
    mean_sq = sum((w * t + b - y) ** 2 for t, y in zip(ts, ys)) / n
    assert rms == float(mp.sqrt(mpf(float(mean_sq))))


def test_empirical_exponent_errors():
    with pytest.raises(DomainError):
        empirical_exponent([(100, mpf(1))])
    with pytest.raises(DomainError):
        empirical_exponent([(100, mpf(0)), (200, mpf(1)), (300, mpf(2))])
    with pytest.raises(DegenerateFitError):
        empirical_exponent([(100, mpf(1)), (100, mpf(2)), (100, mpf(3))])


def test_empirical_exponent_pipeline(ctx320):
    # measured cancellation exponent sits below the proven envelope w
    pts = []
    for x in range(100, 2001, 100):
        rep = alternating_sum(exp_sqrt_kernel(1), square_form(1), x, ctx320)
        pts.append((x, abs(rep.value)))
    w_hat, _, _ = empirical_exponent(pts)
    _, w = maximize_delta(1, 1)
    assert w_hat < float(w)


def test_empirical_exponent_seeded_noise():
    rng = random.Random(2024)
    w_true = 0.31
    pts = []
    for x in range(200, 3001, 200):
        jitter = 1 + 0.01 * (rng.random() - 0.5)
        pts.append((x, mp.exp(mpf(w_true) * mp.sqrt(x)) * jitter))
    w_hat, _, rms = empirical_exponent(pts)
    assert abs(w_hat - w_true) < 0.005
    assert rms < 0.01
