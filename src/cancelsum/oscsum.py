"""Alternating sums over quadratic-constrained integer indices, the
cancellation bound machinery, and empirical exponent fits.

The central object is

    S(x) = sum over integers n with q(n) < x of (-1)^n kernel(x - q(n))

where q(n) = a n^2 + b n + d with a > 0.
The coefficients of q are kept as exact Fractions so the strict index
constraint q(n) < x is decided by rational arithmetic, never by a
rounded float: sums like the pentagonal checksum live exactly on such
boundaries (q(-8) = 100 at x = 100) and one wrongly included index
destroys the cancellation being measured.  QuadraticForm.cleared is the
one exact form of the gaps x - q(n), over the integers, and
alternating_walk is the one loop that accumulates (-1)^n K(x - q(n)):
alternating_sum walks n by increasing |n|, pte.lemma_sum at odd k from
-L to L, each keeping the order its digits were first recorded in.

The predicted ceiling for real exponential kernels is
sqrt(x) e^{w c sqrt(x)} where w = min(1, max_r Delta(r)) and

    Delta(r) = sqrt(sqrt(a) r (sqrt(a r^2 + 4) + r sqrt(a)) / 2) - pi r / c,

and for the complex-exponent family e^{(alpha + i beta) sqrt(x - l^2/T)}
it is sqrt(T/(|beta|+1)) e^{alpha (sqrt(2/(2+pi^2)) + delta) sqrt(x)} + sqrt(T).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, zip_longest
from math import isfinite, isqrt, lcm, sqrt
from typing import Callable, NamedTuple, Optional, Union

from mpmath import mp, mpc, mpf
from mpmath.libmp import (fzero, mpc_exp, mpc_mul, mpc_mul_mpf, mpc_pow_mpf, mpc_sqrt, mpf_add,
                          mpf_sub)

from . import partition
from .errors import (DegenerateFitError, DomainError, EmptyRangeError, PrecisionError,
                     ResourceError)
from .numerics import (PrecisionContext, nstr_for_bits, rate_value, required_bits,
                       to_fraction_exact as _to_fraction, to_mpf_exact)

Rational = Union[int, Fraction]

MAX_INDEX_RANGE = 1_000_000  # widest index interval a sum or contour may span


class QuadraticForm(NamedTuple("QuadraticForm",
                                [("a", Fraction), ("b", Fraction), ("d", Fraction)])):
    """q(n) = a n^2 + b n + d with exact rational coefficients, a > 0."""

    __slots__ = ()

    def __new__(cls, a, b=0, d=0):
        a, b, d = _to_fraction(a), _to_fraction(b), _to_fraction(d)
        if a <= 0:
            raise DomainError("QuadraticForm needs a > 0")
        return super().__new__(cls, a, b, d)

    def evaluate(self, n: int) -> Fraction:
        return self.a * n * n + self.b * n + self.d

    def roots_at(self, x) -> tuple[mpf, mpf]:
        """Real solutions of q(t) = x (branch points of sqrt(x - q));
        requires x above the parabola minimum."""
        xf = _to_fraction(x)
        disc = self.b * self.b - 4 * self.a * (self.d - xf)
        if disc <= 0:
            raise EmptyRangeError("q(t) = x has no two real roots for x = %s" % (x,))
        s = mp.sqrt(to_mpf_exact(disc))
        return (
            (-to_mpf_exact(self.b) - s) / (2 * to_mpf_exact(self.a)),
            (-to_mpf_exact(self.b) + s) / (2 * to_mpf_exact(self.a)),
        )

    def one_parity(self) -> bool:
        """Whether n + q(n) is an integer of one parity at every integer n.
        Checked at n = 0..3: integers at 0, 1 and 2 make q integer-valued,
        and the parity of an integer-valued quadratic repeats with
        period 4."""
        values = [n + self.evaluate(n) for n in range(4)]
        return all(v.denominator == 1 for v in values) and len({v % 2 for v in values}) == 1

    def cleared(self, x) -> tuple[int, int, int, int]:
        """(scale, A, B, C) with scale (q(n) - x) = A n^2 + B n + C, all integers."""
        xf = _to_fraction(x)
        scale = lcm(self.a.denominator, self.b.denominator, (self.d - xf).denominator)
        return (scale,) + tuple(int(v * scale) for v in (self.a, self.b, self.d - xf))

    def gaps(self, x, indices):
        """(n, x - q(n)) for each n of indices, x - q(n) an int where it is
        integral and a Fraction elsewhere."""
        scale, A, B, C = self.cleared(x)
        for n in indices:
            num = -(A * n + B) * n - C
            yield n, (num // scale if num % scale == 0 else Fraction(num, scale))

    def index_range(self, x) -> tuple[int, int]:
        """Integer interval [n_lo, n_hi] where q(n) < x strictly;
        boundary integers with q(n) = x exactly are excluded; ResourceError
        when the interval is wider than MAX_INDEX_RANGE.

        Decided in integers: with denominators cleared, q(n) < x reads
        A n^2 + B n + C < 0, that is (2 A n + B)^2 < disc = B^2 - 4 A C,
        so |2 A n + B| <= s for the largest integer s with s^2 < disc."""
        _, A, B, C = self.cleared(x)
        disc = B * B - 4 * A * C
        if disc <= 0:
            raise EmptyRangeError("no integer n satisfies q(n) < %s" % (x,))
        if disc > (A * MAX_INDEX_RANGE) ** 2:  # root gap sqrt(disc)/A
            raise ResourceError("q(n) < %s spans more than %d indices" % (x, MAX_INDEX_RANGE))
        s = isqrt(disc)
        if s * s == disc:
            s -= 1
        lo, hi = -((s + B) // (2 * A)), (s - B) // (2 * A)
        if lo > hi:
            raise EmptyRangeError("no integer n satisfies q(n) < %s" % (x,))
        return lo, hi


def pentagonal_form() -> QuadraticForm:
    """q(n) = n(3n-1)/2, the pentagonal-number constraint."""
    return QuadraticForm(Fraction(3, 2), Fraction(-1, 2), Fraction(0))


def square_form(T: Rational = 1) -> QuadraticForm:
    """q(l) = l^2 / T, the scaled-square constraint."""
    if T <= 0:
        raise DomainError("square_form needs T > 0")
    return QuadraticForm(Fraction(1, 1) / Fraction(T), Fraction(0), Fraction(0))


class KernelSpec(NamedTuple):
    """A named kernel family.

    `growth` is the rate c in kernel(y) ~ e^{c sqrt(y)} as given: an int,
    a Fraction or a growth callable (numerics.rate_value).  The precision
    policy and the predicted bound both read this one value.

    `real` says whether the kernel is real on the positive reals.  Its
    continuation then satisfies K(conj w) = conj K(w) off the cut
    (Schwarz reflection), which halves a contour check (contour module).

    `bind_real` and `bind_complex` bind the kernel to a context.  Called
    inside ctx.workprec(), each rounds the kernel's constants once and
    returns a function that runs at that precision: y -> K(y) at a
    nonnegative rational y, respectively w -> K(w) at a complex point
    w = x - q(z) during contour checks.  The complex function takes and
    returns mpmath's raw `_mpc_` pairs and makes the same mpmath.libmp
    calls, rounded "n", as the mpc operators it stands for, so its
    values are theirs bit for bit.  bind_complex is None when the
    family has no complex continuation wired up.  A Rademacher kernel's
    bind_real is its binder in partition.RADEMACHER.
    """

    family: str
    growth: object
    real: bool
    bind_real: Callable[[PrecisionContext], Callable]
    bind_complex: Optional[Callable[[PrecisionContext], Callable]] = None


def _exp_sqrt_family(family: str, growth, real: bool, exponent) -> KernelSpec:
    """kernel(y) = e^{s sqrt(y)}, s = exponent() at the working precision;
    the continuation takes the principal square root."""
    def bind_real(ctx):
        s = exponent()
        return lambda y: mp.exp(s * mp.sqrt(to_mpf_exact(y)))

    def bind_complex(ctx):
        # mp.exp(s * mp.sqrt(w)) on pairs; mpc_sqrt is the principal root
        s, prec = exponent(), mp.prec
        if isinstance(s, mpc):
            s = s._mpc_
            return lambda w: mpc_exp(mpc_mul(s, mpc_sqrt(w, prec, "n"), prec, "n"), prec, "n")
        s = s._mpf_
        return lambda w: mpc_exp(mpc_mul_mpf(mpc_sqrt(w, prec, "n"), s, prec, "n"), prec, "n")

    return KernelSpec(family, growth, real, bind_real, bind_complex)


def exp_sqrt_kernel(c) -> KernelSpec:
    """kernel(y) = e^{c sqrt(y)} for a growth rate c > 0: a number,
    decimal string, or a zero-argument callable producing an mpf at
    working precision."""
    if rate_value(c) <= 0:
        raise DomainError("exp_sqrt needs c > 0")
    return _exp_sqrt_family("exp_sqrt", c, True, lambda: rate_value(c))


def rademacher_kernel(name: str) -> KernelSpec:
    """Truncated Hardy-Ramanujan-Rademacher kernels p1, p2, p3, p4 and
    the square-root variant sqrt_p1, as partition.RADEMACHER binds them."""
    if name not in partition.RADEMACHER:
        raise DomainError("unknown rademacher kernel %r" % (name,))
    bind_real, growth = partition.RADEMACHER[name]
    return KernelSpec("rademacher", growth, True, bind_real)


def power_kernel(k_half) -> KernelSpec:
    """kernel(y) = y^{k/2}; polynomially bounded (growth constant 0)."""
    exponent = Fraction(k_half)

    def bind_real(ctx):
        e = to_mpf_exact(exponent)
        return lambda y: to_mpf_exact(y) ** e

    def bind_complex(ctx):
        # mpc(w) ** e on pairs
        e, prec = to_mpf_exact(exponent)._mpf_, mp.prec
        return lambda w: mpc_pow_mpf(w, e, prec, "n")

    return KernelSpec("power", 0, True, bind_real, bind_complex)


def _complex_exp_regime(alpha, beta, T) -> tuple[Fraction, Fraction, Fraction]:
    """(alpha, beta, T) as Fractions, checked to lie in the regime of the
    complex-exponent bound: 0 <= alpha <= 2, T > 0 and beta^2 <= T."""
    alpha_f, beta_f, T_f = _to_fraction(alpha), _to_fraction(beta), _to_fraction(T)
    if not (0 <= alpha_f <= 2):
        raise DomainError("complex_exp needs 0 <= alpha <= 2 (theorem regime is alpha <= ~1)")
    if T_f <= 0:
        raise DomainError("complex_exp needs T > 0")
    if beta_f * beta_f > T_f:
        raise DomainError("complex_exp needs |beta| <= sqrt(T)")
    return alpha_f, beta_f, T_f


def complex_exp_kernel(alpha, beta, T) -> KernelSpec:
    """kernel(y) = e^{(alpha + i beta) sqrt(y)} in the regime of the
    complex-exponent bound (_complex_exp_regime)."""
    alpha_f, beta_f, T_f = _complex_exp_regime(alpha, beta, T)
    return _exp_sqrt_family("complex_exp", alpha_f, beta_f == 0,
                            lambda: mpc(to_mpf_exact(alpha_f), to_mpf_exact(beta_f)))


class SumReport(NamedTuple):
    """One evaluated oscillating sum with its optional predicted bound."""

    x: object
    value: mpc
    abs_value: mpf
    term_count: int
    precision_bits: int
    predicted_bound: Optional[mpf] = None
    ratio: Optional[mpf] = None

    def to_json_dict(self) -> dict:
        bits = self.precision_bits
        return {
            "x": str(self.x),
            "re": nstr_for_bits(self.value.real, bits),
            "im": nstr_for_bits(self.value.imag, bits),
            "abs": nstr_for_bits(self.abs_value, bits),
            "terms": self.term_count,
            "bound": None if self.predicted_bound is None else nstr_for_bits(self.predicted_bound, bits),
            "ratio": None if self.ratio is None else nstr_for_bits(self.ratio, bits),
            "bits": bits,
        }


def _interleaved(lo: int, hi: int):
    """0, 1, -1, 2, -2, ... clipped to [lo, hi] (increasing |n|)."""
    start = min(max(0, lo), hi)
    pairs = zip_longest(range(start + 1, hi + 1), range(start - 1, lo - 1, -1))
    return chain((start,), (n for pair in pairs for n in pair if n is not None))


def alternating_walk(K, q: QuadraticForm, x, indices) -> mpc:
    """sum over n of indices of (-1)^n K(x - q(n)) for a bound kernel K,
    in the order of indices, at mp.prec.  The terms accumulate on raw
    values with the mpf_add/mpf_sub calls that mpc addition makes, so
    the total is the mpc sum's bit for bit."""
    prec = mp.prec
    re = im = fzero
    for n, y in q.gaps(x, indices):
        add = mpf_sub if n % 2 else mpf_add
        term = K(y)
        if isinstance(term, mpc):
            t_re, t_im = term._mpc_
            im = add(im, t_im, prec, "n")
        else:
            t_re = term._mpf_
        re = add(re, t_re, prec, "n")
    return mp.make_mpc((re, im))


def alternating_sum(kernel: KernelSpec, q: QuadraticForm, x, ctx: PrecisionContext,
                    predicted_bound=None) -> SumReport:
    """Evaluate S(x) = sum_{q(n) < x} (-1)^n kernel(x - q(n)).

    alternating_walk accumulates the terms at bits + guard_bits in order
    of increasing |n|.  Raises
    PrecisionError when the precision policy for the kernel's growth
    constant exceeds ctx.bits, and EmptyRangeError when no index
    satisfies the constraint.
    """
    need = required_bits(x, kernel.growth)
    if need > ctx.bits:
        raise PrecisionError("sum at x=%s of a %s kernel needs %d bits, context has %d"
                             % (x, kernel.family, need, ctx.bits))
    lo, hi = q.index_range(x)
    with ctx.workprec():
        total = alternating_walk(kernel.bind_real(ctx), q, x, _interleaved(lo, hi))
        abs_value = abs(total)
        bound_v = None
        ratio = None
        if predicted_bound is not None:
            bound_v = to_mpf_exact(predicted_bound)
            if bound_v > 0:
                ratio = abs_value / bound_v
    return SumReport(x=x, value=total, abs_value=abs_value, term_count=hi - lo + 1,
                     precision_bits=ctx.bits, predicted_bound=bound_v, ratio=ratio)


def delta(r, a, c) -> mpf:
    """Delta(r) = sqrt(sqrt(a) r (sqrt(a r^2 + 4) + r sqrt(a)) / 2) - pi r / c."""
    with mp.workprec(192):
        rr, aa, cc = to_mpf_exact(r), to_mpf_exact(a), rate_value(c)
        if rr < 0:
            raise DomainError("delta needs r >= 0")
        if aa <= 0 or cc <= 0:
            raise DomainError("delta needs a, c > 0")
        sa = mp.sqrt(aa)
        inner = sa * rr * (mp.sqrt(aa * rr * rr + 4) + rr * sa) / 2
        return mp.sqrt(inner) - mp.pi * rr / cc


def maximize_delta(a, c) -> tuple[mpf, mpf]:
    """Maximizer alpha_star of Delta over [0, R_max] and w = min(1, Delta(alpha_star)).

    In terms of Delta's radicand e = sqrt(a) r (sqrt(a r^2 + 4) + r sqrt(a)) / 2,
    which increases with r and inverts as r = e / (sqrt(a) sqrt(1 + e)),
    Delta'(r) = 0 exactly where the cubic

        g(e) = pi^2 e (e + 2)^2 - a c^2 (1 + e)^3

    vanishes, and Delta' > 0 exactly where g < 0.  g has at most two
    positive roots (Descartes' rule of signs) and g(0) = -a c^2 < 0, so a
    sign change g(e_max) > 0 at R_max = 4c/pi (1 + 1/sqrt(a)) + 4 brackets
    exactly one root of g, which is the maximizer.  For the partition
    case a = 3/2, c = pi sqrt(2/3) the cubic reduces to pi^2 (e^2 + e - 1),
    so e = 1/phi, alpha_star = sqrt(2/3) phi^{-3/2} and w = phi^{-5/2}.
    If g(e_max) <= 0, Delta is still increasing at R_max (it is unbounded
    when c sqrt(a) > pi): alpha_star = R_max and w = 1.

    Computed at the current working precision, never below 192 bits.
    """
    with mp.workprec(max(mp.prec, 192)):
        aa, cc = to_mpf_exact(a), rate_value(c)
        if aa <= 0 or cc <= 0:
            raise DomainError("maximize_delta needs a, c > 0")
        sa, pi2, ac2 = mp.sqrt(aa), mp.pi ** 2, aa * cc * cc
        g = lambda e: pi2 * e * (e + 2) ** 2 - ac2 * (1 + e) ** 3
        r_max = 4 * cc / mp.pi * (1 + 1 / sa) + 4
        s = sa * r_max
        e_max = s * (mp.sqrt(s * s + 4) + s) / 2
        if g(e_max) <= 0:
            return r_max, mpf(1)
        e = mp.findroot(g, (0, e_max), solver="anderson")
        alpha_star = e / (sa * mp.sqrt(1 + e))
        return alpha_star, min(mpf(1), mp.sqrt(e) - mp.pi * alpha_star / cc)


def bound_main1(a, c, x, ctx: PrecisionContext) -> mpf:
    """Predicted ceiling sqrt(x) e^{w c sqrt(x)} for the real-kernel sum,
    for x >= 0.

    w comes from maximize_delta at the context's working precision, so
    every digit of the bound is carried by the exact stationarity root.
    """
    xf = _to_fraction(x)
    if xf < 0:
        raise DomainError("bound_main1 needs x >= 0")
    with ctx.workprec():
        _, w = maximize_delta(a, c)
        sx = mp.sqrt(to_mpf_exact(xf))
        return sx * mp.exp(w * rate_value(c) * sx)


def bound_main2(alpha, beta, T, x, delta_slack) -> mpf:
    """sqrt(T/(|beta|+1)) e^{alpha (sqrt(2/(2+pi^2)) + delta) sqrt(x)} + sqrt(T)
    for x >= 0, in the regime of complex_exp_kernel."""
    alpha_f, beta_f, T_f = _complex_exp_regime(alpha, beta, T)
    xf = _to_fraction(x)
    if xf < 0:
        raise DomainError("bound_main2 needs x >= 0")
    with mp.workprec(192):
        slack = to_mpf_exact(delta_slack)
        if slack <= 0:
            raise DomainError("bound_main2 needs delta_slack > 0")
        Tf = to_mpf_exact(T_f)
        af = to_mpf_exact(alpha_f)
        bf = abs(to_mpf_exact(beta_f))
        base = mp.sqrt(2 / (2 + mp.pi ** 2)) + slack
        sx = mp.sqrt(to_mpf_exact(xf))
        return mp.sqrt(Tf / (bf + 1)) * mp.exp(af * base * sx) + mp.sqrt(Tf)


def empirical_exponent(samples) -> tuple[float, float, float]:
    """Least-squares fit log|S| = w_hat sqrt(x) + intercept over (x, |S|)
    samples; returns (w_hat, intercept, RMS residual).

    Each sqrt(x), taken from the exact x, and each log|S| is rounded to
    a double; DomainError when a sqrt(x) is past the doubles.  The fit
    is solved exactly over those doubles (centred sums in Fraction), so
    w_hat and intercept are correctly rounded and the RMS residual is
    the square root of the correctly rounded mean square.
    """
    pts = list(samples)
    if len(pts) < 3:
        raise DomainError("empirical_exponent needs at least 3 samples")
    roots = []
    logs = []
    with mp.workprec(128):
        for x, abs_value in pts:
            av = abs_value if isinstance(abs_value, mpf) else to_mpf_exact(abs_value)
            if av <= 0:
                raise DomainError("empirical_exponent needs abs_value > 0")
            root = float(mp.sqrt(to_mpf_exact(_to_fraction(x))))
            if not isfinite(root):
                raise DomainError("empirical_exponent needs sqrt(x) within the doubles")
            roots.append(root)
            logs.append(float(mp.log(av)))
    if max(roots) - min(roots) < 1e-12:
        raise DegenerateFitError("all sqrt(x) values coincide; slope is undetermined")
    ts = [Fraction(t) for t in roots]
    ys = [Fraction(v) for v in logs]
    n = len(ts)
    t_mean, y_mean = sum(ts) / n, sum(ys) / n
    stt = sum((t - t_mean) ** 2 for t in ts)
    sty = sum((t - t_mean) * (v - y_mean) for t, v in zip(ts, ys))
    w = sty / stt
    b = y_mean - w * t_mean
    mean_sq = sum((w * t + b - v) ** 2 for t, v in zip(ts, ys)) / n
    return float(w), float(b), sqrt(float(mean_sq))
