import math
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import mpc_sin

from cancelsum import (DomainError, QuadraticForm, QuadratureError,
                       RectContour, ResourceError, build_contour,
                       complex_exp_kernel, exp_sqrt_kernel,
                       gauss_legendre_nodes, integrate_rectangle,
                       kernel_integrand, maximize_delta, pentagonal_form,
                       power_kernel, residue_identity_check, square_form,
                       to_mpf_exact)
from cancelsum.contour import (MAX_INITIAL_PANELS, _cos_sin, _cosh_sinh, _initial_panels,
                               _node_cache, _panel, _sin)
from cancelsum.partition import growth_p1


def csc(z):
    # integrands take and return raw _mpc_ pairs
    return (1 / mp.sin(mp.pi * mp.make_mpc(z)))._mpc_


# ---------------------------------------------------------------------------
# quadrature building blocks


def test_gauss_legendre_exactness():
    with mp.workprec(192):
        pairs = gauss_legendre_nodes()
        assert len(pairs) == 32
        total_w = sum(w for _, w in pairs)
        assert abs(total_w - 2) < mpf(2) ** -170
        # symmetric nodes
        nodes = sorted(n for n, _ in pairs)
        for i in range(16):
            assert abs(nodes[i] + nodes[31 - i]) < mpf(2) ** -170
        # exact for polynomials of degree <= 63
        for k in (2, 17, 40, 62, 63):
            got = sum(w * n ** k for n, w in pairs)
            want = mpf(0) if k % 2 else mpf(2) / (k + 1)
            assert abs(got - want) < mpf(2) ** -160


def _nodes_by_plain_newton(npts):
    # Newton on the Legendre recurrence at the working precision plus 32
    # bits from a cosine start, with no precision ladder
    with mp.workprec(mp.prec + 32):
        tol = mpf(2) ** (-mp.prec + 16)
        pairs = []
        for i in range(1, npts // 2 + 1):
            x = mp.cos(mp.pi * (i - mpf(1) / 4) / (npts + mpf(1) / 2))
            dp = mpf(1)
            for _ in range(200):
                p0, p1 = mpf(1), x
                for j in range(2, npts + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = npts * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < tol:
                    break
            w = 2 / ((1 - x * x) * dp * dp)
            pairs.append((x, w))
            pairs.append((-x, w))
    return tuple((+n, +w) for n, w in pairs)


@pytest.mark.parametrize("prec", [53, 54, 63, 64, 65, 85, 96, 112, 113, 128, 144, 160, 192,
                                  200, 224, 256, 288, 320, 352, 384, 448, 512, 640, 768,
                                  1000, 1024, 1200, 1536, 2048, 4096])
def test_gauss_legendre_ladder_matches_plain_newton(prec):
    # the precision ladder and the fixed-point integers change the cost,
    # not one bit
    with mp.workprec(prec):
        _node_cache.pop(prec, None)
        assert gauss_legendre_nodes() == _nodes_by_plain_newton(32)


def test_rect_contour_validation():
    with pytest.raises(DomainError):
        RectContour(x_half_width=mpf(1), height_u=mpf("0.2"))
    with pytest.raises(DomainError):
        RectContour(x_half_width=mpf(0), height_u=mpf(1))


def test_legs_counterclockwise_closed():
    c = RectContour(x_half_width=mpf(2), height_u=mpf(1), shift=mpf("0.5"))
    legs = c.legs()
    assert len(legs) == 4
    for i in range(4):
        assert legs[i][1] == legs[(i + 1) % 4][0]
    # leg 2 (1-based) is the right vertical, traversed upward
    (z0, z1) = legs[1]
    assert z0.real == z1.real == c.x_right
    assert z0.imag < z1.imag


def _exp_of_sqrt(s):
    return lambda w: mp.exp(s * mp.sqrt(w))


@pytest.mark.parametrize("kernel,q,x,object_kernel", [
    (exp_sqrt_kernel(growth_p1), pentagonal_form(), 50, lambda: _exp_of_sqrt(growth_p1())),
    (complex_exp_kernel(1, 10, 100), square_form(100), 100, lambda: _exp_of_sqrt(mpc(1, 10))),
    (power_kernel(3), square_form(1), 30, lambda: lambda w: mpc(w) ** mpf(3)),
    (exp_sqrt_kernel(1), square_form(1), 50, lambda: _exp_of_sqrt(1)),
    (exp_sqrt_kernel(1), QuadraticForm(2, Fraction(-7, 3), Fraction(1, 7)), 50,
     lambda: _exp_of_sqrt(1)),
], ids=["exp_sqrt", "complex_exp", "power", "exp_sqrt-square-T1", "exp_sqrt-custom-b-d"])
def test_pair_integrand_is_the_object_formula(ctx320, kernel, q, x, object_kernel):
    # at every node of a horizontal panel, of a vertical panel above the
    # axis, of one across it and of a slanted one, the pair integrand's
    # bits are those of the mpc formula it stands for, with q's zero
    # terms (b, d) skipped or not; so are the panel sum's bits, whose
    # nodes keep the fixed half of an axis-parallel panel as it is
    f = kernel_integrand(kernel, q, x, ctx320)
    c = build_contour(q, x, 1, ctx320)
    with ctx320.workprec():
        K, pi, xv = object_kernel(), +mp.pi, to_mpf_exact(x)
        a, b, d = (to_mpf_exact(v) for v in (q.a, q.b, q.d))
        nodes = gauss_legendre_nodes()
        raw_nodes = tuple((t._mpf_, w._mpf_) for t, w in nodes)
        xr, h = c.x_right, c.height_u
        panels = ((mpc(xr, h), mpc(xr - 8, h)),
                  (mpc(xr, h / 4), mpc(xr, h)),
                  (mpc(xr, -h / 2), mpc(xr, h / 2)),
                  (mpc(xr - 1, h / 4), mpc(xr, h)))
        for za, zb in panels:
            mid, half = (za + zb) / 2, (zb - za) / 2
            s = mpc(0)
            for t, w in nodes:
                z = mid + half * t
                want = pi * K(xv - (a * z * z + b * z + d)) / mp.sin(pi * z)
                assert f(z._mpc_) == want._mpc_
                s += want * w
            assert _panel(f, za._mpc_, zb._mpc_, raw_nodes, mp.prec) == (half * s)._mpc_


def test_cached_sin_half_is_mpc_sin():
    # a horizontal run of points holds Im fixed, a vertical run Re: the
    # first point of each run misses the fixed half's cache, the rest hit,
    # and each gives mpc_sin's bits; so does a new precision, which misses
    for prec in (352, 224):
        with mp.workprec(prec):
            _cos_sin.cache_clear()
            _cosh_sinh.cache_clear()
            fixed = mp.pi * mpf(7) / 3
            horizontal = [mpc(mp.pi * k / 5, fixed)._mpc_ for k in (-3, -2, -1, 1, 2, 3)]
            vertical = [mpc(fixed, mp.pi * k / 5)._mpc_ for k in (1, 2, 3, 4)]
            for z in horizontal:
                assert _sin(z, prec) == mpc_sin(z, prec, "n")
            assert _cosh_sinh.cache_info()[:2] == (len(horizontal) - 1, 1)
            for z in vertical:
                assert _sin(z, prec) == mpc_sin(z, prec, "n")
            assert _cos_sin.cache_info()[:2] == (len(vertical) - 1, len(horizontal) + 1)
            # a zero component goes to mpc_sin itself
            for z in (mpc(0, fixed), mpc(fixed, 0), mpc(0)):
                assert _sin(z._mpc_, prec) == mpc_sin(z._mpc_, prec, "n")


# ---------------------------------------------------------------------------
# bare rectangle integration


def test_csc_square_residue(ctx192):
    contour = RectContour(x_half_width=mpf("0.6"), height_u=mpf("0.6"))
    res = integrate_rectangle(csc, contour, ctx192, "1e-30")
    with ctx192.workprec():
        assert abs(res.value - mpc(0, 2)) < mpf("1e-28")
    assert len(res.leg_values) == 4
    # 2 initial panels per leg, each split once into 32-point halves
    assert res.evaluations == 4 * (2 * 32 + 4 * 32)
    assert res.levels == (1, 1, 1, 1)


@pytest.mark.parametrize("kernel,q,x,evaluations", [
    (exp_sqrt_kernel(growth_p1), pentagonal_form(), 50, 832),  # criterion 08
    (exp_sqrt_kernel(1), square_form(1), 50, 896),  # README contour-check
], ids=["pentagonal-x50", "square-x50"])
def test_evaluation_counts(ctx320, kernel, q, x, evaluations):
    # the halves error estimate makes the count exact; a weaker
    # estimator, an extra rule per panel or a lost symmetry shows here first
    res = integrate_rectangle(kernel_integrand(kernel, q, x, ctx320),
                              build_contour(q, x, 1, ctx320), ctx320, "1e-14",
                              real=kernel.real, odd=q.b == 0)
    assert res.evaluations == evaluations


def test_initial_panel_width_rule():
    L, big = 50, 8 * MAX_INITIAL_PANELS
    # a horizontal leg at height Y starts 2|Y| wide once 2|Y| >= 8, in
    # either direction and on either side of the real axis
    for Y, want in ((10, 3), (-10, 3), (25, 2), (100, 2), (4, 7)):
        assert _initial_panels(mpc(-L / 2, Y), mpc(L / 2, Y)) == want
        assert _initial_panels(mpc(L / 2, Y), mpc(-L / 2, Y)) == want
        assert want == max(2, math.ceil(L / (2 * abs(Y))))
    # closer than 4, and across the axis, the width floor of 8 holds
    assert _initial_panels(mpc(0, 1), mpc(L, 1)) == math.ceil(L / 8)
    assert _initial_panels(mpc(3, -10), mpc(3, 10)) == math.ceil(20 / 8)
    assert _initial_panels(mpc(3, -1), mpc(3, 1)) == 2
    # the budget holds at exactly MAX_INITIAL_PANELS and fails one above
    assert _initial_panels(mpc(0, -big / 2), mpc(0, big / 2)) == MAX_INITIAL_PANELS
    with pytest.raises(ResourceError):
        _initial_panels(mpc(0, -big / 2), mpc(0, big / 2 + 8))
    assert _initial_panels(mpc(0, 10), mpc(20 * MAX_INITIAL_PANELS, 10)) == MAX_INITIAL_PANELS
    with pytest.raises(ResourceError):
        _initial_panels(mpc(0, 10), mpc(20 * MAX_INITIAL_PANELS + 20, 10))


@pytest.mark.parametrize("kernel,q,x,real,odd", [
    (exp_sqrt_kernel(growth_p1), pentagonal_form(), 50, True, False),
    (complex_exp_kernel(1, 3, 16), square_form(16), 20, False, True),
    (power_kernel(3), square_form(1), 30, True, True),
], ids=["real", "odd", "real-odd"])
def test_symmetric_paths_match_four_legs(ctx192, kernel, q, x, real, odd):
    # each leg rebuilt from the fundamental paths against the leg itself
    assert (kernel.real, q.b == 0) == (real, odd)
    f = kernel_integrand(kernel, q, x, ctx192)
    contour = build_contour(q, x, 1, ctx192)
    tol = mpf("1e-14")
    full = integrate_rectangle(f, contour, ctx192, tol)
    sym = integrate_rectangle(f, contour, ctx192, tol, real=real, odd=odd)
    with ctx192.workprec():
        for got, want in zip(sym.leg_values, full.leg_values):
            assert abs(got - want) <= tol * abs(want)
        assert abs(sym.value - full.value) <= tol * abs(full.value)
    assert sym.evaluations < full.evaluations
    bottom, right, top, left = sym.levels
    assert bottom == top and (right == left or not odd)


def test_complex_kernel_off_square_form_takes_four_legs(ctx320):
    # e^{(1 + i) sqrt(y)} is not real and the pentagonal form is not
    # even: no symmetry holds, so every leg is integrated
    kernel, q, x = complex_exp_kernel(1, 1, 100), pentagonal_form(), 50
    report = residue_identity_check(kernel, q, x, 1, ctx320)
    full = integrate_rectangle(kernel_integrand(kernel, q, x, ctx320),
                               build_contour(q, x, 1, ctx320), ctx320, "1e-14")
    assert (report.evaluations, report.levels) == (full.evaluations, full.levels)
    assert float(report.rel_err) <= 1e-12
    # assuming f(conj z) = conj f(z) for it breaks the identity
    wrong = residue_identity_check(kernel._replace(real=True), q, x, 1, ctx320)
    assert float(wrong.rel_err) > 1e-12


def test_odd_needs_centred_rectangle(ctx192):
    contour = RectContour(mpf("0.6"), mpf("0.6"), shift=mpf("0.5"))
    with pytest.raises(DomainError):
        integrate_rectangle(csc, contour, ctx192, "1e-10", odd=True)


@pytest.mark.parametrize("kernel,q,x", [
    *[(exp_sqrt_kernel(growth_p1), pentagonal_form(), x) for x in (48, 52, 396, 404)],
    *[(complex_exp_kernel(1, 10, 100), square_form(100), x) for x in (99, 101)],
], ids=["pent-x48", "pent-x52", "pent-x396", "pent-x404", "complex-x99", "complex-x101"])
def test_residue_margin_at_benchmark_edges(ctx320, kernel, q, x):
    # the edges of the residue benchmark's draw ranges: an initial width
    # that lets refinement stop on a false agreement shows here first
    report = residue_identity_check(kernel, q, x, 1, ctx320)
    assert float(report.rel_err) <= 1e-12


def test_csc_square_height_independent(ctx192):
    tol = mpf("1e-20")
    low = integrate_rectangle(csc,
                              RectContour(mpf("0.6"), mpf("0.6")), ctx192, tol)
    high = integrate_rectangle(csc,
                               RectContour(mpf("0.6"), mpf("1.2")), ctx192, tol)
    with ctx192.workprec():
        assert abs(low.value - high.value) <= 10 * tol * abs(low.value)


def test_pole_proximity_precheck(ctx192):
    # vertical legs at integer abscissae sit on poles
    contour = RectContour(x_half_width=mpf(1), height_u=mpf(1))
    with pytest.raises(QuadratureError):
        integrate_rectangle(csc, contour, ctx192, "1e-10")


class _InnerRightRoot(QuadraticForm):
    """Reports its right branch point one unit inside the true one."""

    def roots_at(self, x):
        r_lo, r_hi = super().roots_at(x)
        return r_lo, r_hi - 1


def test_leg_on_or_beyond_branch_point(ctx192):
    # x = 10^-100 just above q(0) = 0: at 224 bits the left root -2x
    # rounds onto 0, the enclosed pole, so the left leg lands on it
    with pytest.raises(QuadratureError):
        build_contour(pentagonal_form(), Fraction(1, 10**100), 1, ctx192)
    # x = 100: the right leg at 49/6 lies beyond a branch point at 22/3
    with pytest.raises(QuadratureError):
        build_contour(_InnerRightRoot(Fraction(3, 2), Fraction(-1, 2)), 100, 1, ctx192)


def test_off_centre_vertex_forms_pass_the_cut_check(ctx192):
    # b != 0 moves the vertex line s = -b/(2a) off 0; the legs must still
    # sit strictly between the branch points and the enclosed poles
    forms = [QuadraticForm(1, Fraction(3, 5), 0),
             QuadraticForm(2, Fraction(-7, 3), Fraction(1, 7)),
             QuadraticForm(Fraction(1, 3), 5, -2),
             QuadraticForm(Fraction(5, 2), Fraction(9, 4), Fraction(-3, 8))]
    for q in forms:
        vertex_min = q.d - q.b * q.b / (4 * q.a)
        for t in (Fraction(3, 2), 7, 50, 400):
            x = max(vertex_min, 0) + t
            c = build_contour(q, x, 1, ctx192)
            lo, hi = q.index_range(x)
            with ctx192.workprec():
                r_lo, r_hi = q.roots_at(x)
                assert r_lo < c.x_left < lo and hi < c.x_right < r_hi


def test_tol_validation(ctx192):
    contour = RectContour(mpf("0.6"), mpf("0.6"))
    with pytest.raises(DomainError):
        integrate_rectangle(csc, contour, ctx192, 0)


# ---------------------------------------------------------------------------
# contour placement


def test_build_contour_x100(ctx320):
    c = build_contour(pentagonal_form(), 100, 1, ctx320)
    # left: half-integer just outside the n = -7 pole fits inside the gap
    assert c.x_left == mpf("-7.5")
    # right: 8.5 would overshoot the branch point 25/3, so the midpoint
    # of (8, 25/3) is used
    with ctx320.workprec():
        assert abs(c.x_right - mpf(49) / 6) < mpf(2) ** -300
        assert c.height_u == 10


def test_build_contour_x400(ctx320):
    c = build_contour(pentagonal_form(), 400, 1, ctx320)
    assert abs(float(c.x_left) + 16.0820) < 2e-4
    assert abs(float(c.x_right) - 16.2487) < 2e-4


def test_build_contour_validation(ctx192):
    with pytest.raises(DomainError):
        build_contour(pentagonal_form(), 100, 0, ctx192)


# ---------------------------------------------------------------------------
# residue identity checks


def test_square_form_x50_identity(ctx320):
    # e^{sqrt(50 - z^2)}/sin(pi z) against the discrete alternating sum
    report = residue_identity_check(exp_sqrt_kernel(1), square_form(1),
                                    50, 1, ctx320)
    assert float(report.rel_err) <= 1e-15
    assert report.term_count == 15  # n in -7..7
    assert len(report.leg_mags) == 4


def test_pentagonal_x100_identity(ctx320):
    kernel = exp_sqrt_kernel(growth_p1)
    report = residue_identity_check(kernel, pentagonal_form(), 100, 1, ctx320)
    assert float(report.rel_err) <= 1e-12


def test_single_residue_window(ctx192):
    # x barely above q(0): only the n = 0 residue is enclosed
    report = residue_identity_check(exp_sqrt_kernel(1), pentagonal_form(),
                                    Fraction(1, 10), 1, ctx192)
    assert report.term_count == 1
    assert float(report.rel_err) <= 1e-12
    with ctx192.workprec():
        want = 2j * mp.pi * mp.exp(mp.sqrt(mpf(1) / 10))
        assert abs(report.discrete - want) < mpf(2) ** -150


def test_leg_mags_at_working_precision(ctx320):
    kernel, q, x = exp_sqrt_kernel(1), pentagonal_form(), Fraction(1, 10)
    report = residue_identity_check(kernel, q, x, 1, ctx320)
    quad = integrate_rectangle(kernel_integrand(kernel, q, x, ctx320),
                               build_contour(q, x, 1, ctx320), ctx320, "1e-14",
                               real=True)
    with mp.workprec(320):
        want = abs(quad.leg_values[1])
        assert abs(report.leg_mags[1] - want) <= mpf(2) ** -300 * want
    assert (report.evaluations, report.levels) == (quad.evaluations, quad.levels)


def test_rel_err_tracks_tol(ctx192):
    rels = []
    for tol in ("1e-6", "1e-9", "1e-12"):
        report = residue_identity_check(exp_sqrt_kernel(1), square_form(1),
                                        50, 1, ctx192, tol=tol)
        rels.append(float(report.rel_err))
        assert rels[-1] <= 10 * float(tol)
    assert rels[2] <= rels[0]


def test_leg2_exponent_band_x400(ctx320):
    # vertical legs dominate with exponent close to w*c
    kernel = exp_sqrt_kernel(growth_p1)
    report = residue_identity_check(kernel, pentagonal_form(), 400,
                                    mpf("1.5"), ctx320)
    assert float(report.rel_err) <= 1e-12
    wc = float(maximize_delta(Fraction(3, 2), growth_p1)[1]) * float(growth_p1())
    observed = math.log(float(report.leg_mags[1])) / math.sqrt(400)
    assert wc - 0.1 <= observed <= wc + 0.1


def test_report_json(ctx192):
    report = residue_identity_check(exp_sqrt_kernel(1), pentagonal_form(),
                                    Fraction(1, 10), 1, ctx192)
    d = report.to_json_dict()
    assert set(d) == {"x", "quad_re", "quad_im", "discrete_re", "discrete_im",
                      "rel_err", "leg_mags"}
    assert len(d["leg_mags"]) == 4
    for s in d["leg_mags"]:
        float(s)
    assert isinstance(d["rel_err"], float)
