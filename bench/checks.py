"""Cross-checks: each command's output recomputed or constrained by a
route that does not go through the code that produced it.

A check takes (command, stdout, shared) and returns None when the output
is right, else a one-line reason.  `shared` carries earlier outputs of
the same pass (the psi-half bridge needs the psi-sum value; direct
psi-sum must match bucket psi-sum byte for byte).  Reference values are
memoised, so later passes over the same inputs check almost for free.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpc, mpf

def rows_of(stdout: str) -> list:
    return list(csv.DictReader(io.StringIO(stdout)))


def _one_row(stdout: str) -> dict:
    rows = rows_of(stdout)
    if len(rows) != 1:
        raise ValueError("expected one CSV row, got %d" % len(rows))
    return rows[0]


def _rate(c) -> mpf:
    """A kernel rate as the CLI reads it: the token growth-p1 or a number."""
    if c == "growth-p1":
        return mp.pi * mp.sqrt(mpf(2) / 3)
    return mpf(Fraction(c).numerator) / Fraction(c).denominator


def _frac_mpf(value: Fraction) -> mpf:
    return mpf(value.numerator) / value.denominator


def expand_grid(spec: str) -> list:
    """The CLI's documented geometric grid: n points lo*(hi/lo)^t rounded."""
    _, lo_s, hi_s, n_s = spec.split(":")
    lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    return [int(round(lo * (hi / lo) ** (i / (n - 1)))) for i in range(n)]


# ------------------------------------------------------------ reference sums


def pentagonal_indices(x) -> list:
    """Integers n with n(3n-1)/2 < x, by exact comparison."""
    x = Fraction(x)
    out = []
    n = 0
    while Fraction(n * (3 * n - 1), 2) < x:  # q(-n) >= q(n) for n >= 0
        for m in {n, -n}:
            if Fraction(m * (3 * m - 1), 2) < x:
                out.append(m)
        n += 1
    return sorted(out)


def p2_reference(y: int) -> mpf:
    """Two-term Rademacher truncation at integer y >= 1, at the ambient
    precision: (sqrt12/v - 6 sqrt12/(pi v^1.5)) e^{pi sqrt(v)/6}, v=24y-1."""
    v = mpf(24 * y - 1)
    s12 = mp.sqrt(12)
    return (s12 / v - 6 * s12 / (mp.pi * v * mp.sqrt(v))) * mp.exp(mp.pi * mp.sqrt(v) / 6)


@lru_cache(maxsize=None)
def p2_pentagonal_sum(x: int, prec: int) -> tuple:
    """(S, largest |term|) for S = sum_{q(n) < x} (-1)^n p2(x - q(n))."""
    with mp.workprec(prec):
        total = mpf(0)
        for n in pentagonal_indices(x):
            term = p2_reference(x - n * (3 * n - 1) // 2)
            total += term if n % 2 == 0 else -term
        return total, p2_reference(x)


def ell_max(x: Fraction, T: Fraction) -> int:
    """Largest L with L^2 < xT."""
    L = math.isqrt(int(x * T))
    while L * L >= x * T:
        L -= 1
    return L


def policy_bits(x, c: float) -> int:
    """The README's precision policy max(128, ceil(c sqrt(x) log2 e) + 96)."""
    return max(128, math.ceil(c * math.sqrt(x) / math.log(2)) + 96)


@lru_cache(maxsize=None)
def contour_discrete(items: tuple, prec: int) -> tuple:
    """(2 pi i sum_{q(n) < x} (-1)^n K(x - q(n)), largest |term| times 2 pi);
    `items` are the command's params."""
    with mp.workprec(prec):
        return _contour_discrete(dict(items))


def _contour_discrete(p: dict) -> tuple:
    x = Fraction(p["x"])
    if p["form"] == "pentagonal":
        pairs = [(n, x - Fraction(n * (3 * n - 1), 2)) for n in pentagonal_indices(x)]
    else:
        T = Fraction(p["T"])
        L = ell_max(x, T)
        pairs = [(l, x - Fraction(l * l) / T) for l in range(-L, L + 1)]
    if p["kernel"] == "exp_sqrt":
        rate = mpc(_rate(p["c"]), 0)
    else:
        rate = mpc(p["alpha"], p["beta"])
    total = mpc(0)
    biggest = mpf(0)
    for n, y in pairs:
        term = mp.exp(rate * mp.sqrt(_frac_mpf(y)))
        biggest = max(biggest, abs(term))
        total += term if n % 2 == 0 else -term
    return 2j * mp.pi * total, 2 * mp.pi * biggest


@lru_cache(maxsize=None)
def psi_reference(x, T) -> tuple:
    """(S, psi(e^sqrt x), 2L+1) straight from the definition: an
    Eratosthenes sieve, cutoffs N_l = floor(e^sqrt(x - l^2/T)), and
    S = sum_{|l| <= L} (-1)^l psi(N_l).  Small x only (O(e^sqrt x))."""
    x, T = Fraction(x), Fraction(T)
    L = ell_max(x, T)
    with mp.workprec(256):
        cut = []
        for l in range(L + 1):
            v = mp.exp(mp.sqrt(_frac_mpf(x - Fraction(l * l) / T)))
            n = int(mp.floor(v))
            if abs(v - mp.nint(v)) < mpf(2) ** -200:
                raise ValueError("cutoff %d sits on an integer" % l)
            cut.append(n)
        limit = cut[0]
        flags = bytearray([1]) * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p::p] = bytearray(len(range(p * p, limit + 1, p)))
        weight = {}  # prime -> integer coefficient of log p in S
        full = {}
        for p in range(2, limit + 1):
            if not flags[p]:
                continue
            pp = p
            while pp <= limit:
                full[p] = full.get(p, 0) + 1
                for l in range(L + 1):
                    if cut[l] < pp:
                        break
                    s = (1 if l % 2 == 0 else -1) * (1 if l == 0 else 2)
                    weight[p] = weight.get(p, 0) + s
                pp *= p
        S = mp.fsum(c * mp.log(p) for p, c in weight.items() if c)
        psi_full = mp.fsum(c * mp.log(p) for p, c in full.items())
        return S, psi_full, 2 * L + 1


def closed_form_fit(points: list) -> tuple:
    """Least squares y = w t + b over (t, y): centred sums, no numpy."""
    n = len(points)
    tm = sum(t for t, _ in points) / n
    ym = sum(y for _, y in points) / n
    stt = sum((t - tm) ** 2 for t, _ in points)
    sty = sum((t - tm) * (y - ym) for t, y in points)
    w = sty / stt
    b = ym - w * tm
    rms = math.sqrt(sum((w * t + b - y) ** 2 for t, y in points) / n)
    return w, b, rms


# -------------------------------------------------------------------- checks


def _close(a: mpf, b: mpf, tol: mpf, what: str):
    if abs(a - b) > tol:
        return "%s off by %s (tolerance %s)" % (what, mp.nstr(abs(a - b), 5), mp.nstr(tol, 5))
    return None


def check_pnt(cmd, out, shared):
    row = _one_row(out)
    if int(row["x_max"]) != cmd.params["x_max"]:
        return "x_max echoed as %s" % row["x_max"]
    if row["failures"] != "0" or row["status"] != "ok" or row["first_failure"] != "":
        return "pentagonal checksum failures: %s" % row["failures"]
    return None


def check_osc_sum(cmd, out, shared):
    rows = rows_of(out)
    grid = expand_grid(cmd.args[cmd.args.index("--x-grid") + 1])
    if [int(r["x"]) for r in rows] != grid:
        return "rows do not follow the requested grid"
    for r in rows:
        x, bits = int(r["x"]), int(r["bits"])
        policy = policy_bits(x, math.pi * math.sqrt(2 / 3))
        if bits != policy:
            return "x=%d ran at %d bits, policy says %d" % (x, bits, policy)
        if int(r["terms"]) != len(pentagonal_indices(x)):
            return "x=%d counted %s terms" % (x, r["terms"])
        S, biggest = p2_pentagonal_sum(x, bits + 64)
        with mp.workprec(bits + 64):
            tol = mpf(2) ** (16 - bits) * biggest
            bad = (_close(mpf(r["re"]), S, tol, "x=%d re" % x)
                   or _close(mpf(r["abs"]), abs(S), tol, "x=%d abs" % x)
                   or _close(mpf(r["im"]), mpf(0), tol, "x=%d im" % x))
        if bad:
            return bad
    return None


def check_exponent_fit(cmd, out, shared):
    row = _one_row(out)
    points = []
    c = math.pi * math.sqrt(2 / 3)
    for x in expand_grid(cmd.params["grid"]):
        S, _ = p2_pentagonal_sum(x, policy_bits(x, c) + 64)
        points.append((math.sqrt(x), float(mp.log(abs(S)))))
    w, b, rms = closed_form_fit(points)
    if int(row["points"]) != len(points):
        return "fit used %s points" % row["points"]
    if abs(float(row["w_hat"]) - w) > 1e-9 * max(1.0, abs(w)):
        return "w_hat %s, closed-form fit %r" % (row["w_hat"], w)
    if abs(float(row["intercept"]) - b) > 1e-7 * max(1.0, abs(b)):
        return "intercept %s, closed-form fit %r" % (row["intercept"], b)
    if abs(float(row["rms"]) - rms) > 1e-7 * max(1.0, rms):
        return "rms %s, closed-form fit %r" % (row["rms"], rms)
    return None


def check_bound(cmd, out, shared):
    row = _one_row(out)
    with mp.workprec(256):
        a = mpf(3) / 2
        c = _rate("growth-p1")
        sa = mp.sqrt(a)

        def delta(r):
            return mp.sqrt(sa * r * (mp.sqrt(a * r * r + 4) + r * sa) / 2) - mp.pi * r / c

        alpha, w = mpf(row["alpha_star"]), mpf(row["w"])
        if w < 1:
            bad = _close(delta(alpha), w, mpf("1e-35"), "Delta(alpha_star) vs w")
            if bad:
                return bad
        h = mpf("1e-3")
        if max(delta(alpha - h), delta(alpha + h)) >= delta(alpha):
            return "alpha_star is not a local maximum of Delta"
        sx = mp.sqrt(cmd.params["x"])
        expect = sx * mp.exp(w * c * sx)
        return _close(mpf(row["bound"]), expect, mpf("1e-35") * expect, "bound")


def check_psi_bucket(cmd, out, shared):
    row = _one_row(out)
    p = cmd.params
    shared[("psi", p["x"], p["T"])] = out
    if Fraction(row["im"]) != 0:
        return "psi sum has an imaginary part"
    if Fraction(p["x"]) > 60:
        return None  # checked against direct aggregation and the half bridge
    with mp.workprec(256):
        S, _, terms = psi_reference(p["x"], p["T"])
        if int(row["terms"]) != terms:
            return "terms %s, definition gives %d" % (row["terms"], terms)
        return _close(mpf(row["re"]), S, mpf(2) ** (16 - int(row["bits"])) * max(abs(S), 1),
                      "psi sum")


def _without_method(out: str) -> list:
    rows = rows_of(out)
    for r in rows:
        r.pop("method", None)
    return rows


def check_psi_direct(cmd, out, shared):
    p = cmd.params
    bucket = shared.get(("psi", p["x"], p["T"]))
    if bucket is None:
        return "no bucket psi-sum output to compare with"
    if _without_method(out) != _without_method(bucket):
        return "direct and bucket psi-sum differ"
    return None


def check_psi_half(cmd, out, shared):
    row = _one_row(out)
    p = cmd.params
    bucket = shared.get(("psi", p["x"], p["T"]))
    if bucket is None:
        return "no psi-sum output for the bridge"
    bits = int(row["bits"])
    lhs, rhs, boundary = (Fraction(row[k]) for k in ("lhs", "rhs", "boundary"))
    full = Fraction(row["psi_full"])
    gap = lhs - rhs + Fraction(_one_row(bucket)["re"]) / 2 + boundary
    if abs(gap) > full * Fraction(1, 2 ** (bits - 8)):
        return "bridge lhs - rhs = -S/2 - boundary misses by %.3e of psi_full" % float(abs(gap) / full)
    if Fraction(p["x"]) <= 60:
        with mp.workprec(256):
            _, psi_full, _ = psi_reference(p["x"], p["T"])
            return _close(mpf(row["psi_full"]), psi_full,
                          mpf(2) ** (16 - bits) * psi_full, "psi_full")
    return None


CONTOUR_BITS = 320  # contour-check's default, also passed as --bits in residue


def check_contour(cmd, out, shared):
    row = _one_row(out)
    with mp.workprec(CONTOUR_BITS + 64):
        D, scale = contour_discrete(tuple(sorted(cmd.params.items())), CONTOUR_BITS + 64)
        tol = mpf(2) ** (16 - CONTOUR_BITS) * scale
        got = mpc(mpf(row["discrete_re"]), mpf(row["discrete_im"]))
        bad = _close(got, D, tol, "discrete side")
        if bad:
            return bad
        quad = mpc(mpf(row["quad_re"]), mpf(row["quad_im"]))
        if abs(quad - D) > mpf("1e-12") * abs(D):
            return "quadrature misses the independent residue sum by %s" % mp.nstr(
                abs(quad - D) / abs(D), 5)
    if float(row["rel_err"]) > 1e-12:
        return "rel_err %s above the gate" % row["rel_err"]
    return None


def _integer_root(k: int, value: int) -> int:
    r = int(round(value ** (1.0 / k)))
    while r ** k > value:
        r -= 1
    while (r + 1) ** k <= value:
        r += 1
    return r


def _pte_N(n: int, m: int) -> tuple:
    N = _integer_root(2 * m + 1, (2 * n) ** (2 * m))
    if N ** (2 * m + 1) <= (2 * n - 1) ** 2:
        return N + 1, True
    return N, False


def _k_regime(n: int, m: int) -> int:
    return int(n ** (1.0 - 1.0 / (2 * m + 1)) / math.log(n))


def check_pte_construct(cmd, out, shared):
    row = _one_row(out)
    n, m = cmd.params["n"], cmd.params["m"]
    N, adjusted = _pte_N(n, m)
    if int(row["N"]) != N or row["adjusted"] != str(adjusted):
        return "N=%s adjusted=%s, definition gives %d %s" % (row["N"], row["adjusted"], N, adjusted)
    if int(row["k_regime"]) != _k_regime(n, m):
        return "k_regime %s" % row["k_regime"]
    return None


def check_pte_verify(cmd, out, shared):
    rows = rows_of(out)
    n, m = cmd.params["n"], cmd.params["m"]
    N, _ = _pte_N(n, m)
    k = _k_regime(n, m)
    power = N ** (2 * m + 1)
    xs = [power - (2 * i - 2) ** 2 for i in range(1, n + 1)]
    ys = [power - (2 * i - 1) ** 2 for i in range(1, n + 1)]
    if [int(r["r"]) for r in rows] != list(range(1, k + 1)):
        return "rows do not cover r = 1..%d" % k
    for r in rows:
        e = int(r["r"])
        diff = sum(v ** e for v in xs) - sum(v ** e for v in ys)
        if int(r["diff"]) != diff:
            return "r=%d diff %s, exact %d" % (e, r["diff"], diff)
        ratio = math.exp(math.log(abs(diff)) - e * (2 * m + 0.5) * math.log(N)) if diff else 0.0
        if abs(float(r["ratio"]) - ratio) > 1e-9 * max(ratio, 1e-300):
            return "r=%d ratio %s, recomputed %r" % (e, r["ratio"], ratio)
    return None


def _f_r(M: int, r: int) -> int:
    return sum((-1) ** abs(l) * (4 * M * M - l * l) ** r for l in range(-2 * M + 1, 2 * M))


def check_frm_degree(cmd, out, shared):
    rows = rows_of(out)
    if [int(r["r"]) for r in rows] != list(range(1, cmd.params["r_max"] + 1)):
        return "rows do not cover r = 1..r_max"
    for row in rows:
        r = int(row["r"])
        coeffs = [int(c) for c in row["coeffs"].split(";")]
        if int(row["degree"]) != (r - 1 if r % 2 == 0 else r):
            return "f_%d degree %s breaks the parity law" % (r, row["degree"])
        for M in range(1, r + 4):
            if sum(c * M ** j for j, c in enumerate(coeffs)) != _f_r(M, r):
                return "f_%d polynomial disagrees with the brute-force sum at M=%d" % (r, M)
    return None


def check_lemma_sum(cmd, out, shared):
    row = _one_row(out)
    x, T, k = (Fraction(cmd.params[key]) for key in ("x", "T", "k"))
    L = ell_max(x, T)
    expect = sum((-1) ** abs(l) * (x - Fraction(l * l) / T) ** int(k // 2)
                 for l in range(-L, L + 1))
    if Fraction(row["value"]) != expect:
        return "lemma sum %s, definition gives %s" % (row["value"], expect)
    return None


def check_pigeonhole(cmd, out, shared):
    row = _one_row(out)
    n, k = cmd.params["n"], cmd.params["k"]
    expect = max(Fraction(0), 1 - Fraction(2 * n, k * (k + 1)))
    if Fraction(row["c"]) != expect:
        return "c %s, definition gives %s" % (row["c"], expect)
    return None


CHECKS = {
    "pnt": check_pnt,
    "osc_sum": check_osc_sum,
    "exponent_fit": check_exponent_fit,
    "bound": check_bound,
    "psi_bucket": check_psi_bucket,
    "psi_direct": check_psi_direct,
    "psi_half": check_psi_half,
    "contour": check_contour,
    "pte_construct": check_pte_construct,
    "pte_verify": check_pte_verify,
    "frm_degree": check_frm_degree,
    "lemma_sum": check_lemma_sum,
    "pigeonhole": check_pigeonhole,
}


def check(cmd, returncode: int, out: str, shared: dict):
    """None when the command succeeded and its output checks out."""
    if returncode != 0:
        return "exit code %d" % returncode
    try:
        return CHECKS[cmd.check](cmd, out, shared)
    except (ValueError, KeyError, IndexError, ZeroDivisionError, TypeError, csv.Error) as exc:
        return "unparseable output: %s: %s" % (type(exc).__name__, exc)
