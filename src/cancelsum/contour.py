"""Rectangular-contour quadrature for residue identities.

The checked identity: for a kernel K with a complex continuation and a
positive-definite quadratic q,

    integral over the rectangle of  pi K(x - q(z)) / sin(pi z) dz
        = 2 pi i  sum_{q(n) < x} (-1)^n K(x - q(n)),

counterclockwise, with the rectangle enclosing exactly the integers n
with q(n) < x and staying strictly inside the branch points of
sqrt(x - q(z)).  The residue of csc at an integer n is (-1)^n / pi,
hence the pi factor in the integrand.

The kernel's continuation takes its cut where x - q(z) is real and
<= 0.  Writing z = s + i t, Im(x - q(z)) = -t (2 a s + b), which
vanishes only on the real axis (t = 0) and on the vertex line
s = -b / (2a).  On the real axis the rectangle spans [x_left, x_right];
build_contour requires r_lo < x_left and x_right < r_hi for the real
roots r_lo < r_hi of q = x, so q(s) < x there.  On the vertex line
Re(x - q(z)) = x - min q + a t^2 > 0 because a > 0 and q has two real
roots.  So x - q(z) stays off the cut on the whole closed rectangle,
not only at the quadrature nodes, and no node needs a check.

The same argument halves the work.  Off its cut the principal square
root commutes with conjugation, so a kernel that is real on the
positive reals satisfies K(conj w) = conj K(w) there (Schwarz
reflection); q has real coefficients and sin(pi conj z) = conj
sin(pi z), so f(conj z) = conj f(z) for the integrand f.  The
rectangle is symmetric about the real axis, so the bottom leg is
-conj of the top leg and each vertical leg is 2i Im of its upper half.
When b = 0, q is even and sin is odd, so f(-z) = -f(z) for any kernel;
build_contour then centres the rectangle at exactly 0 (its roots and
enclosed integers are symmetric), so the top and left legs equal the
bottom and right legs.  integrate_rectangle integrates only the paths
these symmetries leave: about half the evaluations with one of them, a
quarter with both.

Vertical legs sit at half-integer abscissae when the gap between the
outermost enclosed pole and the branch point allows it, else at the
gap midpoint.  Quadrature is per-leg adaptive composite Gauss-Legendre
with 32-point panels.  Every singularity of the integrand lies on the
real axis: the poles at the integers and the branch points, the real
roots of q = x.  An n-point rule on a panel converges like rho^(-2n),
where rho is the sum of the semi-axes of the largest Bernstein ellipse
about the panel that holds no singularity (Trefethen & Weideman, SIAM
Review 56, 2014).  So a leg at clearance d from the real axis starts
with panels max(8, 2d) wide: a panel 2d wide at distance d has
rho = 1 + sqrt(2), and the 32-point rule gives about 3e-25 before any
refinement.  A leg that crosses the axis has d = 0 and starts 8 wide.
Splitting a panel yields the error estimate |parent - (left + right)|,
which both halves carry; the initial panels have none, so the first
sweep splits them all.  A path converges when two successive refinement
sweeps agree to the requested relative tolerance.  A half path converges
on its complex value U, of which only 2i Im U is kept; at 320 bits and
tol 1e-14, |Im U| was at least 0.2 |U| on the pentagonal contours at
x = 48, 99 and 402 and the square one at x = 50, and every rebuilt leg
was within a relative 6e-18 of its value at tol 1e-40, the four-leg
integration's own worst.

The integrand and each panel's sum run on mpmath's raw _mpc_ pairs
(mpmath.libmp): each step is the libmp call, at the same precision and
rounding "n", that the mpc and mpf operators of pi K(x - q(z)) /
sin(pi z) and of s += w f(mid + half t) make, so every value is theirs
bit for bit, without an object or a type dispatch per operation.  A
call whose result is known without it is skipped: q's zero terms (b on
an even form, d on both built-in forms) are not added, and a node of a
horizontal or vertical panel is formed on the half of mid + half t that
varies, since adding 0 (or 0 times t) to a value already rounded at the
working precision returns that value.  The nodes and weights come from
Newton's method on fixed-point integers (gauss_legendre_nodes), rounded
once each to the working precision.
sin(pi z) is mpc_sin's own formula, sin a cosh b + i cos a sinh b at
prec + 6 bits and two rounded products.  Along a horizontal leg Im(pi z)
is exactly the same at every node (the panel's midpoint keeps the leg's
height and its half-width has imaginary part 0), along a vertical leg
Re(pi z) is; so the half a leg holds fixed, cosh/sinh or cos/sin, is
computed once per leg through a cache keyed on its exact argument and
precision, and a hit returns the bits a miss computes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from mpmath import mp, mpc, mpf
from mpmath.libmp import (from_int, from_man_exp, fzero, mpc_abs, mpc_add, mpc_add_mpf, mpc_div,
                          mpc_div_mpf, mpc_mul, mpc_mul_int, mpc_mul_mpf, mpc_sin, mpc_sub,
                          mpf_add, mpf_cos_sin, mpf_cosh_sinh, mpf_gt, mpf_mul)

from .errors import DomainError, QuadratureError, ResourceError
from .numerics import PrecisionContext, nstr_for_bits, to_mpf_exact
from .oscsum import KernelSpec, QuadraticForm, SumReport, alternating_sum

MIN_SIN_CLEARANCE = mpf("1e-3")
MAX_REFINEMENT_LEVELS = 20
MAX_INITIAL_PANELS = 200_000  # per leg; each panel costs NPTS evaluations
NPTS = 32  # Gauss-Legendre points per panel

_node_cache: dict[int, tuple] = {}

# An integrand maps a point z, as mpmath's raw _mpc_ pair, to the pair of
# f(z); it runs at the working precision it was built for.
Integrand = Callable[[tuple], tuple]

_ZERO = (fzero, fzero)
_TWO = from_int(2)

# The two halves of sin(a + bi) = sin a cosh b + i cos a sinh b, each
# keyed on its exact argument and precision; a leg holds one of a, b
# fixed (module docstring), so that half is computed once per leg.
_cos_sin = lru_cache(maxsize=1)(mpf_cos_sin)
_cosh_sinh = lru_cache(maxsize=1)(mpf_cosh_sinh)


def _sin(z: tuple, prec: int) -> tuple:
    """mpc_sin(z, prec, "n") bit for bit: its formula at prec + 6 bits,
    each transcendental half through its one-entry cache; mpc_sin itself
    when a component is zero."""
    a, b = z
    if a == fzero or b == fzero:
        return mpc_sin(z, prec, "n")
    wp = prec + 6
    c, s = _cos_sin(a, wp)
    ch, sh = _cosh_sinh(b, wp)
    return mpf_mul(s, ch, prec, "n"), mpf_mul(c, sh, prec, "n")


def _legendre_newton_fixed(x: int, f: int) -> tuple:
    """One Newton step towards a root of P_NPTS from x, by the three-term
    recurrence on fixed-point integers with f fractional bits: x stands
    for x / 2^f, and so do both results, (new x, P_NPTS'(x)).  Each
    product drops its low f bits with >> f, each quotient rounds down."""
    one = 1 << f
    p0, p1 = one, x
    for j in range(2, NPTS + 1):
        p0, p1 = p1, ((2 * j - 1) * (x * p1 >> f) - (j - 1) * p0) // j
    dp = (NPTS * ((x * p1 >> f) - p0) << f) // ((x * x >> f) - one)
    return x - (p1 << f) // dp, dp


def _legendre_root(x: int, f: int) -> tuple:
    """Newton steps at f fractional bits from x until one moves x by
    less than 2^(32 - f): (x, P_NPTS' at the step's start)."""
    for _ in range(200):
        x_prev = x
        x, dp = _legendre_newton_fixed(x, f)
        if abs(x - x_prev) >> 32 == 0:
            break
    return x, dp


def gauss_legendre_nodes() -> tuple:
    """The NPTS nodes and weights on [-1, 1] at the current working
    precision, cached per precision.  Newton iteration on the Legendre
    recurrence (Johansson & Mezzarobba, SIAM J. Sci. Comput. 40, 2018)
    on fixed-point integers, up a ladder of precisions that about
    doubles to F = precision + 48 fractional bits: from the cosine
    guess at the bottom rung until a step moves the node by less than
    2^(32 - rung), one step at each rung above, then at F until a step
    moves it by less than 2^-(precision + 16); that step's derivative
    gives the weight 2 / ((1 - x^2) P'(x)^2).  Each node and weight is
    rounded once, to nearest, at the working precision.  These are the
    values of the same Newton iteration on mpf at precision + 32 bits,
    bit for bit at every precision from 53 to 1,200 bits and at 2,048
    and 4,096 (tests/test_contour.py pins a spread of them)."""
    prec = mp.prec
    cached = _node_cache.get(prec)
    if cached is not None:
        return cached
    F = prec + 48
    rungs = [F]
    while rungs[0] > 112:
        rungs.insert(0, rungs[0] // 2 + 8)
    pairs = []
    for i in range(1, NPTS // 2 + 1):
        f = rungs[0]
        x = _legendre_root(int(math.ldexp(math.cos(math.pi * (i - 0.25) / (NPTS + 0.5)), f)), f)[0]
        for g in rungs[1:-1]:
            x = _legendre_newton_fixed(x << g - f, g)[0]
            f = g
        x, dp = _legendre_root(x << F - f, F)
        w = (1 << 4 * F + 1) // (((1 << F) - (x * x >> F)) * dp * dp)
        node, w = (mp.make_mpf(from_man_exp(v, -F, prec, "n")) for v in (x, w))
        pairs += [(node, w), (-node, w)]
    result = tuple(pairs)
    _node_cache[prec] = result
    return result


class RectContour(NamedTuple("RectContour", [("x_half_width", mpf), ("height_u", mpf),
                                             ("shift", mpf)])):
    """Rectangle with vertical legs at shift +- x_half_width and
    horizontal legs at +- height_u (vertical half-extent, u*sqrt(x) in
    the residue checks).  Horizontal legs keep distance >= 0.25 from
    the pole line; vertical legs may cross it transversally between
    poles."""

    __slots__ = ()

    def __new__(cls, x_half_width: mpf, height_u: mpf, shift: mpf = mpf(0)):
        if x_half_width <= 0:
            raise DomainError("x_half_width must be positive")
        if height_u < mpf("0.25"):
            raise DomainError("height_u below the 0.25 pole-clearance floor")
        return super().__new__(cls, x_half_width, height_u, shift)

    @property
    def x_left(self) -> mpf:
        return self.shift - self.x_half_width

    @property
    def x_right(self) -> mpf:
        return self.shift + self.x_half_width

    def legs(self) -> tuple:
        """Counterclockwise: bottom, right, top, left."""
        xl, xr, h = self.x_left, self.x_right, self.height_u
        return (
            (mpc(xl, -h), mpc(xr, -h)),
            (mpc(xr, -h), mpc(xr, h)),
            (mpc(xr, h), mpc(xl, h)),
            (mpc(xl, h), mpc(xl, -h)),
        )


def build_contour(q: QuadraticForm, x, u, ctx: PrecisionContext) -> RectContour:
    """Place the rectangle for sqrt(x - q(z)): vertical legs in the gap
    between the outermost enclosed pole and the branch point, at the
    half-integer inside the gap when there is one, else the gap
    midpoint; horizontal legs at +- u sqrt(x).  QuadratureError when a
    vertical leg does not lie strictly inside the branch points at the
    working precision, which keeps the rectangle off the cut (see the
    module docstring)."""
    with ctx.workprec():
        uv = to_mpf_exact(u)
        if uv <= 0:
            raise DomainError("contour height factor u must be positive")
        xv = to_mpf_exact(x)
        if xv <= 0:
            raise DomainError("contour height u sqrt(x) needs x > 0")
        r_lo, r_hi = q.roots_at(x)
        lo, hi = q.index_range(x)
        cand = mpf(lo) - mpf(1) / 2
        xl = cand if cand > r_lo else (r_lo + lo) / 2
        cand = mpf(hi) + mpf(1) / 2
        xr = cand if cand < r_hi else (r_hi + hi) / 2
        if not (r_lo < xl and xr < r_hi):
            raise QuadratureError(
                "vertical legs at %s and %s do not lie strictly inside the "
                "branch points %s and %s" % (mp.nstr(xl, 12), mp.nstr(xr, 12),
                                             mp.nstr(r_lo, 12), mp.nstr(r_hi, 12)))
        height = uv * mp.sqrt(xv)
        return RectContour(x_half_width=(xr - xl) / 2, height_u=height,
                           shift=(xr + xl) / 2)


class QuadratureResult(NamedTuple):
    value: mpc
    leg_values: tuple
    evaluations: int
    levels: tuple

    @property
    def leg_mags(self) -> tuple:
        return tuple(abs(v) for v in self.leg_values)


def _panel(f: Integrand, za: tuple, zb: tuple, nodes: tuple, prec: int) -> tuple:
    """The NPTS-point Gauss-Legendre value of the panel za -> zb on _mpc_
    pairs: the libmp calls of mid + half * t, s += w * f(...) and
    half * s, with mid = (za + zb) / 2 and half = (zb - za) / 2, over
    nodes as (t, w) mpf pairs.  mid + half * t is formed one half at a
    time, as mpc_add and mpc_mul_mpf do; a half of `half` that is
    exactly zero leaves mid's matching half unchanged, so that half
    (the fixed one on a horizontal or vertical panel) is not computed."""
    mid = mpc_div_mpf(mpc_add(za, zb, prec, "n"), _TWO, prec, "n")
    half = mpc_div_mpf(mpc_sub(zb, za, prec, "n"), _TWO, prec, "n")
    (mre, mim), (hre, him) = mid, half
    s = _ZERO
    for t, w in nodes:
        z = (mre if hre == fzero else mpf_add(mre, mpf_mul(hre, t, prec, "n"), prec, "n"),
             mim if him == fzero else mpf_add(mim, mpf_mul(him, t, prec, "n"), prec, "n"))
        s = mpc_add(s, mpc_mul_mpf(f(z), w, prec, "n"), prec, "n")
    return mpc_mul(half, s, prec, "n")


def _initial_panels(z0: mpc, z1: mpc) -> int:
    """Initial panel count of the leg z0 -> z1: panels max(8, 2d) wide,
    at least 2, where d is the leg's clearance from the real axis (0 for
    a leg that meets it), which holds every singularity.  ResourceError
    past MAX_INITIAL_PANELS, before any evaluation."""
    d = min(abs(z0.imag), abs(z1.imag)) if z0.imag * z1.imag > 0 else mpf(0)
    length = abs(z1 - z0)
    n0 = max(2, mp.ceil(length / max(8, 2 * d)))
    if n0 > MAX_INITIAL_PANELS:
        raise ResourceError("a leg of length %s needs more than %d initial panels"
                            % (mp.nstr(length, 6), MAX_INITIAL_PANELS))
    return int(n0)


def _leg_integral(f: Integrand, z0: mpc, z1: mpc, tol: mpf,
                  scale_hint: mpf) -> tuple:
    """Adaptive refinement sweeps from _initial_panels' width, which the
    leg's distance from the real-axis singularities sets (see the module
    docstring); converged when two successive sweep totals agree to tol
    relative.  A sweep splits the panels whose halves estimate (None
    before their first split) exceeds their share of tol, or every panel
    when none does.  Panels, their values and their estimates are raw
    libmp values, the sweep totals mpc; each rounds as the mpc operators
    would."""
    n0 = _initial_panels(z0, z1)
    prec = mp.prec
    nodes = tuple((t._mpf_, w._mpf_) for t, w in gauss_legendre_nodes())
    start, step = z0._mpc_, ((z1 - z0) / n0)._mpc_
    panels = []
    for i in range(n0):
        za = mpc_add(start, mpc_mul_int(step, i, prec, "n"), prec, "n")
        zb = mpc_add(start, mpc_mul_int(step, i + 1, prec, "n"), prec, "n")
        panels.append((za, zb, _panel(f, za, zb, nodes, prec), None))
    evals = NPTS * n0
    floor = scale_hint * mpf(2) ** (16 - prec)
    s_prev = None
    for level in range(MAX_REFINEMENT_LEVELS + 1):
        total = _ZERO
        for p in panels:
            total = mpc_add(total, p[2], prec, "n")
        s = mp.make_mpc(total)
        if s_prev is not None and abs(s - s_prev) <= tol * max(abs(s), abs(s_prev), floor):
            return s, evals, level
        s_prev = s
        if level == MAX_REFINEMENT_LEVELS:
            break
        threshold = (tol * max(abs(s), floor) / (8 * len(panels)))._mpf_
        split = [err is None or mpf_gt(err, threshold) for _, _, _, err in panels]
        if not any(split):
            split = [True] * len(panels)
        refined = []
        for (za, zb, val, err), do_split in zip(panels, split):
            if not do_split:
                refined.append((za, zb, val, err))
                continue
            zm = mpc_div_mpf(mpc_add(za, zb, prec, "n"), _TWO, prec, "n")
            left, right = _panel(f, za, zm, nodes, prec), _panel(f, zm, zb, nodes, prec)
            err = mpc_abs(mpc_sub(val, mpc_add(left, right, prec, "n"), prec, "n"), prec, "n")
            refined.append((za, zm, left, err))
            refined.append((zm, zb, right, err))
            evals += 2 * NPTS
        panels = refined
    raise QuadratureError("leg quadrature did not converge after %d refinement levels"
                          % MAX_REFINEMENT_LEVELS)


def _mirror(u: mpc) -> mpc:
    """u - conj(u) = 2i Im u: a leg made of a path whose integral is u and
    of that path's mirror image, whose integral the symmetry makes
    -conj(u)."""
    return u - u.conjugate()


def integrate_rectangle(f: Integrand, contour: RectContour,
                        ctx: PrecisionContext, tol, *, real: bool = False,
                        odd: bool = False) -> QuadratureResult:
    """Counterclockwise sum of the four leg integrals (bottom, right, top,
    left); pole clearance is prechecked in closed form: |sin(pi z)| on a
    vertical leg at abscissa X is >= |sin(pi X)|, on a horizontal leg at
    height Y is >= sinh(pi |Y|) >= sinh(pi/4), since RectContour keeps
    |Y| >= 0.25.

    Only the legs the integrand's symmetries do not fix are integrated:
    - real, f(conj z) = conj f(z): the upper halves U of the vertical
      legs and the top leg T; bottom = -conj(T), a vertical leg is
      U - conj(U) = 2i Im U;
    - odd, f(-z) = -f(z), on a rectangle centred at 0: the bottom and
      right legs; top = bottom, left = right;
    - both: the upper half U of the right leg and the right half H of
      the top leg; right = left = U - conj(U), top = bottom = H - conj(H);
    - neither: all four legs.
    A rebuilt leg repeats its source path's refinement level, and
    evaluations counts only the evaluations made."""
    with ctx.workprec():
        tol_v = to_mpf_exact(tol)
        if tol_v <= 0:
            raise DomainError("tol must be positive")
        if odd and contour.shift != 0:
            raise DomainError("an odd integrand needs a rectangle centred at 0")
        for X in (contour.x_left, contour.x_right):
            if abs(mp.sin(mp.pi * X)) < MIN_SIN_CLEARANCE:
                raise QuadratureError(
                    "vertical leg at %s passes within the pole clearance"
                    % mp.nstr(X, 12))
        xl, xr, h = contour.x_left, contour.x_right, contour.height_u
        bottom, right, top, left = contour.legs()
        if real and odd:
            paths = ((mpc(xr), mpc(xr, h)), (mpc(xr, h), mpc(0, h)))
        elif real:
            paths = ((mpc(xr), mpc(xr, h)), top, (mpc(xl, h), mpc(xl)))
        elif odd:
            paths = (bottom, right)
        else:
            paths = (bottom, right, top, left)
        values = []
        levels = []
        evals = 0
        hint = mpf(0)
        for z0, z1 in paths:
            value, n, level = _leg_integral(f, z0, z1, tol_v, hint)
            values.append(value)
            levels.append(level)
            evals += n
            hint = max(hint, abs(value))
        if real and odd:
            (u, t), (lu, lt) = values, levels
            leg_values, levels = (_mirror(t), _mirror(u)) * 2, (lt, lu) * 2
        elif real:
            (u, t, w), (lu, lt, lw) = values, levels
            leg_values = (-t.conjugate(), _mirror(u), t, _mirror(w))
            levels = (lt, lu, lt, lw)
        elif odd:
            leg_values, levels = tuple(values) * 2, tuple(levels) * 2
        else:
            leg_values, levels = tuple(values), tuple(levels)
        total = mpc(0)
        for v in leg_values:
            total += v
        return QuadratureResult(value=total, leg_values=leg_values,
                                evaluations=evals, levels=levels)


class ResidueReport(NamedTuple):
    """One residue identity check.  evaluations and levels are the
    quadrature's own counts (QuadratureResult); to_json_dict leaves them
    out, so contour-check's stdout does not depend on them."""

    x: float
    quad: mpc
    discrete: mpc
    rel_err: mpf
    leg_mags: tuple
    contour: RectContour
    term_count: int
    precision_bits: int
    evaluations: int
    levels: tuple

    def to_json_dict(self) -> dict:
        bits = self.precision_bits
        return {
            "x": self.x,
            "quad_re": nstr_for_bits(self.quad.real, bits),
            "quad_im": nstr_for_bits(self.quad.imag, bits),
            "discrete_re": nstr_for_bits(self.discrete.real, bits),
            "discrete_im": nstr_for_bits(self.discrete.imag, bits),
            "rel_err": float(self.rel_err),
            "leg_mags": [nstr_for_bits(m, bits) for m in self.leg_mags],
        }


def kernel_integrand(kernel: KernelSpec, q: QuadraticForm, x,
                     ctx: PrecisionContext) -> Integrand:
    """z -> pi K(x - q(z)) / sin(pi z) on _mpc_ pairs, at ctx's working
    precision.  x, the coefficients of q, pi and the kernel's constants
    are rounded once, at that precision.  Each step makes the libmp call
    that the mpc operators of pi * K(x - (a*z*z + b*z + d)) /
    mp.sin(pi*z) make, rounded "n", so every value is theirs bit for
    bit; sin goes through _sin.  A zero b or d is not added: adding
    zero to a value already rounded at the working precision returns
    that value unchanged."""
    if kernel.bind_complex is None:
        raise DomainError("kernel family %r has no complex continuation" % (kernel.family,))
    with ctx.workprec():
        xv = to_mpf_exact(x)._mpf_
        a, b, d = (to_mpf_exact(v)._mpf_ for v in (q.a, q.b, q.d))
        pi = (+mp.pi)._mpf_
        K = kernel.bind_complex(ctx)
        prec = mp.prec

    def f(z: tuple) -> tuple:
        qz = mpc_mul(mpc_mul_mpf(z, a, prec, "n"), z, prec, "n")
        if b != fzero:
            qz = mpc_add(qz, mpc_mul_mpf(z, b, prec, "n"), prec, "n")
        if d != fzero:
            qz = mpc_add_mpf(qz, d, prec, "n")
        num = mpc_mul_mpf(K(mpc_sub((xv, fzero), qz, prec, "n")), pi, prec, "n")
        return mpc_div(num, _sin(mpc_mul_mpf(z, pi, prec, "n"), prec), prec, "n")

    return f


def residue_identity_check(kernel: KernelSpec, q: QuadraticForm, x, u,
                           ctx: PrecisionContext, tol="1e-14") -> ResidueReport:
    """Quadrature around the enclosing rectangle vs 2 pi i times the
    alternating sum over the enclosed integers; rel_err is their
    relative gap.  The identity is exact, so rel_err measures only the
    quadrature."""
    contour = build_contour(q, x, u, ctx)
    quad = integrate_rectangle(kernel_integrand(kernel, q, x, ctx), contour, ctx, tol,
                               real=kernel.real, odd=q.b == 0)
    report: SumReport = alternating_sum(kernel, q, x, ctx)
    with ctx.workprec():
        discrete = 2j * mp.pi * report.value
        denom = abs(discrete)
        if denom == 0:
            raise DomainError("discrete side is zero; relative error undefined")
        rel_err = abs(quad.value - discrete) / denom
        leg_mags = quad.leg_mags
    return ResidueReport(x=float(to_mpf_exact(x)), quad=quad.value,
                         discrete=discrete, rel_err=rel_err,
                         leg_mags=leg_mags, contour=contour,
                         term_count=report.term_count,
                         precision_bits=ctx.bits,
                         evaluations=quad.evaluations, levels=quad.levels)
