"""Command-line front end: every experiment as a subcommand emitting
CSV or JSON rows.

argparse is the one input layer.  Each flag is declared once, with its
type, default and choices, on the subcommands that read it: --format on
all of them, --bits on those that choose a working precision, and
--sieve-cache on psi-sum and psi-half.  High-precision values serialize
as decimal strings, never binary floats, and identical arguments
produce byte-identical output.

Exit codes: 0 success, 1 violated identity or failed check,
2 usage/domain error, 3 resource error.  Every error, argparse usage
errors included, prints one {"error": ...} line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import contour as contour_mod
from . import oscsum, partition, primes, pte
from .errors import CancelsumError, DomainError, PrecisionError, ResourceError
from .numerics import (PrecisionContext, context_for, nstr_for_bits,
                       required_bits, to_fraction_exact, to_mpf_exact)

# Named growth constants usable wherever a kernel rate is expected;
# resolved lazily at working precision.
_RATE_TOKENS = {
    "growth-p1": partition.growth_p1,
    "growth-p3": partition.growth_p3,
}

# Points in one generated --x-grid; the largest grid in use has 20.
MAX_GRID_POINTS = 1_000


def _input_parser(convert):
    """The type= of one flag: malformed input becomes an argparse usage
    error (exit 2, one {"error": ...} line).  argparse alone would let an
    ArithmeticError (--x 1/0) escape as a traceback."""
    def parse(text):
        try:
            return convert(text)
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise argparse.ArgumentTypeError("bad input %r: %s" % (text, exc)) from None
    return parse


_int = _input_parser(int)


@_input_parser
def _number(text):
    """Exact rational: int, Fraction ("3/2") or decimal ("2.5", "1e-14")."""
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    if "." in text or "e" in text or "E" in text:
        return to_fraction_exact(text)
    return int(text)


def _rate(text):
    """A kernel growth rate: named growth constant, else exact number."""
    if text in _RATE_TOKENS:
        return _RATE_TOKENS[text]
    return _number(text)


@_input_parser
def _bits(text):
    """Working precision in bits; None for 'auto'."""
    return None if text == "auto" else int(text)


@_input_parser
def _x_grid(text: str) -> list:
    """'geom:lo:hi:n' (rounded to integers) | 'a,b,c'."""
    if not text.startswith("geom:"):
        return [_number(v) for v in text.split(",")]
    _, lo_s, hi_s, n_s = text.split(":")
    lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    if n < 1 or lo <= 0 or hi < lo:
        raise DomainError("needs n >= 1 and 0 < lo <= hi")
    if n > MAX_GRID_POINTS:
        raise ResourceError("grid of %d points exceeds budget %d" % (n, MAX_GRID_POINTS))
    if n == 1:
        return [int(round(lo))]
    pts = []
    for i in range(n):
        t = i / (n - 1)
        pts.append(int(round(lo * (hi / lo) ** t)))
    return pts


def _resolve_ctx(bits, x, rate) -> PrecisionContext:
    return context_for(x, rate) if bits is None else PrecisionContext(bits=bits)


def _rademacher(args) -> oscsum.KernelSpec:
    return oscsum.rademacher_kernel(args.kernel)


# --kernel and --form: each name and the constructor it selects, in the
# order --help lists them
_KERNELS = {
    "p1": _rademacher, "p2": _rademacher, "p3": _rademacher, "p4": _rademacher,
    "sqrt_p1": _rademacher,
    "exp_sqrt": lambda args: oscsum.exp_sqrt_kernel(args.c),
    "power": lambda args: oscsum.power_kernel(args.k_half),
    "complex_exp": lambda args: oscsum.complex_exp_kernel(args.alpha, args.beta, args.T),
}
_FORMS = {
    "pentagonal": lambda args: oscsum.pentagonal_form(),
    "square": lambda args: oscsum.square_form(args.T),
    "custom": lambda args: oscsum.QuadraticForm(args.a, args.b, args.d),
}


def _emit(rows: list, columns: list, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: "" if row.get(k) is None else row[k] for k in columns})


def _sieve_for(limit: int, path) -> primes.LambdaSieve:
    if path and os.path.exists(path):
        sieve = primes.load_sieve(path)
        if sieve.limit >= limit:
            return sieve
    sieve = primes.build_sieve(limit)
    if path:
        primes.save_sieve(sieve, path)
    return sieve


# ---------------------------------------------------------------- commands


def cmd_pnt_verify(args) -> int:
    x_max = args.x_max
    if x_max < 1:
        raise DomainError("x_max must be >= 1")
    table = partition.ExactPartitionTable()
    table.grow(x_max)  # checks the table budget before any checksum
    if args.inject_corruption:
        values = [table.partition(i) for i in range(x_max + 1)]
        values[max(1, x_max // 2)] += 1
        table = partition.ExactPartitionTable(values)
    failures = 0
    first = ""
    for x in range(1, x_max + 1):
        if partition.pnt_checksum(x, table) != 0:
            failures += 1
            if first == "":
                first = x
    status = "ok" if failures == 0 else "violated"
    _emit([{"x_max": x_max, "failures": failures, "first_failure": first,
            "status": status}],
          ["x_max", "failures", "first_failure", "status"], args.format)
    return 0 if failures == 0 else 1


_SUM_COLUMNS = ["x", "re", "im", "abs", "terms", "bound", "ratio", "bits"]


def cmd_osc_sum(args) -> int:
    kernel = _KERNELS[args.kernel](args)
    q = _FORMS[args.form](args)
    rows = []
    for x in args.x:
        ctx = _resolve_ctx(args.bits, x, kernel.growth)
        bound = None
        if kernel.growth:
            bound = oscsum.bound_main1(q.a, kernel.growth, x, ctx)
        report = oscsum.alternating_sum(kernel, q, x, ctx, predicted_bound=bound)
        rows.append(report.to_json_dict())
    _emit(rows, _SUM_COLUMNS, args.format)
    return 0


def cmd_bound(args) -> int:
    rows = []
    if args.family == "main1":
        a, c = args.a, args.c
        alpha_star, w = oscsum.maximize_delta(a, c)
        for x in args.x:
            ctx = _resolve_ctx(args.bits, x, c)
            b = oscsum.bound_main1(a, c, x, ctx)
            rows.append({"x": str(x), "a": str(Fraction(a)),
                         "alpha_star": nstr_for_bits(alpha_star, 128),
                         "w": nstr_for_bits(w, 128),
                         "bound": nstr_for_bits(b, ctx.bits)})
        _emit(rows, ["x", "a", "alpha_star", "w", "bound"], args.format)
        return 0
    alpha, beta, T, slack = args.alpha, args.beta, args.T, args.delta_slack
    for x in args.x:
        b = oscsum.bound_main2(alpha, beta, T, x, slack)
        rows.append({"x": str(x), "alpha": str(alpha), "beta": str(beta),
                     "T": str(T), "delta_slack": str(slack),
                     "bound": nstr_for_bits(b, 192)})
    _emit(rows, ["x", "alpha", "beta", "T", "delta_slack", "bound"], args.format)
    return 0


def cmd_psi_sum(args) -> int:
    x, T = args.x, args.T
    ctx = _resolve_ctx(args.bits, x, 0)
    sieve = _sieve_for(primes.sieve_limit(x), args.sieve_cache)
    report = primes.psi_weak_pentagonal(x, T, sieve, ctx, method=args.method)
    row = report.to_json_dict()
    row["T"] = str(T)
    row["method"] = args.method
    _emit([row], ["x", "T", "method"] + _SUM_COLUMNS[1:], args.format)
    return 0


def cmd_psi_half(args) -> int:
    x, T = args.x, args.T
    ctx = _resolve_ctx(args.bits, x, 0)
    sieve = _sieve_for(primes.sieve_limit(x), args.sieve_cache)
    report = primes.psi_interval_half(x, T, sieve, ctx)
    row = {"x": str(x), "T": str(T)}
    row.update(report.to_json_dict())
    _emit([row], ["x", "T", "lhs", "rhs", "rel_err", "boundary", "ell_max",
                  "psi_full", "bits"], args.format)
    return 0


def cmd_pte_construct(args) -> int:
    pair = pte.construct_pair(args.n, args.m)
    _emit([{"n": args.n, "m": args.m, "N": pair.N, "adjusted": pair.adjusted,
            "k_regime": pte.k_regime(args.n, args.m)}],
          ["n", "m", "N", "adjusted", "k_regime"], args.format)
    return 0


def cmd_pte_verify(args) -> int:
    r_max = args.r_max if args.r_max is not None else pte.k_regime(args.n, args.m)
    pte.check_power_sum_budget(args.n, r_max)  # before any work
    pair = pte.construct_pair(args.n, args.m)
    rows = [row.to_json_dict() for row in pte.verify_pte_bound(pair, r_max)]
    _emit(rows, ["r", "diff", "bound", "ratio", "within_regime"], args.format)
    return 0


def cmd_frm_degree(args) -> int:
    r_values = [args.r] if args.r is not None else range(1, args.r_max + 1)
    if r_values and r_values[-1] > pte.MAX_POWER:  # before any work
        raise ResourceError("r = %d exceeds budget %d" % (r_values[-1], pte.MAX_POWER))
    as_json = args.format == "json"
    rows = []
    for r in r_values:
        degree, poly = pte.detect_degree(r)
        coeffs = [str(c) for c in poly.coeffs]
        rows.append({"r": r, "degree": degree,
                     "coeffs": coeffs if as_json else ";".join(coeffs),
                     "max_abs_coeff": str(max(abs(c) for c in poly.coeffs)),
                     "bound_ok": pte.coefficient_bound_check(r, poly),
                     "poly": str(poly)})
    _emit(rows, ["r", "degree", "coeffs", "max_abs_coeff", "bound_ok", "poly"],
          args.format)
    return 0


def cmd_lemma_sum(args) -> int:
    x, T, k, u = args.x, args.T, args.k, args.u
    ctx = _resolve_ctx(args.bits, x, 0)
    value = pte.lemma_sum(x, T, k, ctx)
    exact = k % 2 == 0
    text = str(value) if exact else nstr_for_bits(value, ctx.bits)
    bound = pte.lemma_bound(x, T, k, u, ctx)
    _emit([{"x": str(x), "T": str(T), "k": k, "u": str(u), "value": text,
            "exact_rational": exact, "bound": nstr_for_bits(bound, ctx.bits)}],
          ["x", "T", "k", "u", "value", "exact_rational", "bound"], args.format)
    return 0


def cmd_contour_check(args) -> int:
    x, u = args.x, args.u
    kernel = _KERNELS[args.kernel](args)
    q = _FORMS[args.form](args)
    # auto never goes below 320 bits, where every contour tolerance and
    # evaluation count in use was set; steeper kernels get the policy bits
    bits = args.bits
    if bits is None:
        bits = max(320, required_bits(x, kernel.growth))
    ctx = PrecisionContext(bits=bits)
    report = contour_mod.residue_identity_check(kernel, q, x, u, ctx)
    row = report.to_json_dict()
    row["u"] = str(u)
    if args.format == "csv":
        flat = dict(row)
        mags = flat.pop("leg_mags")
        for i, m in enumerate(mags, start=1):
            flat["leg%d" % i] = m
        _emit([flat], ["x", "u", "quad_re", "quad_im", "discrete_re",
                       "discrete_im", "rel_err", "leg1", "leg2", "leg3",
                       "leg4"], args.format)
    else:
        _emit([row], [], args.format)
    threshold = args.max_rel_err
    if threshold is not None and report.rel_err > to_mpf_exact(threshold):
        return 1
    return 0


def cmd_exponent_fit(args) -> int:
    kernel = _KERNELS[args.kernel](args)
    q = _FORMS[args.form](args)
    samples = []
    for x in args.x:
        ctx = _resolve_ctx(args.bits, x, kernel.growth)
        report = oscsum.alternating_sum(kernel, q, x, ctx)
        samples.append((float(x), report.abs_value))
    w_hat, intercept, rms = oscsum.empirical_exponent(samples)
    _emit([{"points": len(samples), "w_hat": repr(w_hat),
            "intercept": repr(intercept), "rms": repr(rms)}],
          ["points", "w_hat", "intercept", "rms"], args.format)
    return 0


def cmd_pigeonhole(args) -> int:
    c = pte.pigeonhole_c(args.n, args.k)
    _emit([{"n": args.n, "k": args.k, "c": str(c), "c_float": float(c)}],
          ["n", "k", "c", "c_float"], args.format)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise DomainError (exit 2, one {"error": ...} line)."""

    def error(self, message):
        raise DomainError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cancelsum", description="high-cancellation sum toolkit",
                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, precision=False, sieve_cache=False):
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.set_defaults(run=run)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if precision:
            sp.add_argument("--bits", type=_bits, default="auto",
                            help="precision bits or 'auto'")
        if sieve_cache:
            sp.add_argument("--sieve-cache", help="prime-power table cache path")
        return sp

    def required(sp, *names, type=_number):
        for name in names:
            sp.add_argument(name, type=type, required=True)

    def x_grid(sp):
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--x", type=_number, action="append")
        group.add_argument("--x-grid", dest="x", type=_x_grid, metavar="SPEC")

    def kernel(sp):
        sp.add_argument("--kernel", choices=_KERNELS, default="p2")
        sp.add_argument("--c", type=_rate, default="1")
        sp.add_argument("--form", choices=_FORMS, default="pentagonal")
        for name, default in (("--k-half", "1"), ("--alpha", "1"), ("--beta", "0"),
                              ("--T", "1"), ("--a", "1"), ("--b", "0"), ("--d", "0")):
            sp.add_argument(name, type=_number, default=default)

    sp = add("pnt-verify", cmd_pnt_verify)
    sp.add_argument("--x-max", type=_int, default="2000")
    sp.add_argument("--inject-corruption", action="store_true")

    sp = add("osc-sum", cmd_osc_sum, precision=True)
    x_grid(sp)
    kernel(sp)

    sp = add("bound", cmd_bound, precision=True)
    x_grid(sp)
    sp.add_argument("--family", choices=("main1", "main2"), default="main1")
    sp.add_argument("--a", type=_number, default="3/2")
    sp.add_argument("--c", type=_rate, default="growth-p1")
    sp.add_argument("--alpha", type=_number, default="1")
    sp.add_argument("--beta", type=_number, default="0")
    sp.add_argument("--T", type=_number, default="1")
    sp.add_argument("--delta-slack", type=_number, default="1/100")

    sp = add("psi-sum", cmd_psi_sum, precision=True, sieve_cache=True)
    required(sp, "--x", "--T")
    sp.add_argument("--method", choices=primes.PSI_METHODS, default="bucket")

    sp = add("psi-half", cmd_psi_half, precision=True, sieve_cache=True)
    required(sp, "--x", "--T")

    sp = add("pte-construct", cmd_pte_construct)
    required(sp, "--n", "--m", type=_int)

    sp = add("pte-verify", cmd_pte_verify)
    required(sp, "--n", "--m", type=_int)
    sp.add_argument("--r-max", type=_int)

    sp = add("frm-degree", cmd_frm_degree)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=_int)
    group.add_argument("--r-max", type=_int)

    sp = add("lemma-sum", cmd_lemma_sum, precision=True)
    required(sp, "--x", "--T")
    required(sp, "--k", type=_int)
    sp.add_argument("--u", type=_number, default="1")

    sp = add("contour-check", cmd_contour_check, precision=True)
    required(sp, "--x")
    sp.add_argument("--u", type=_number, default="1")
    sp.add_argument("--max-rel-err", type=_number)
    kernel(sp)

    sp = add("exponent-fit", cmd_exponent_fit, precision=True)
    x_grid(sp)
    kernel(sp)

    sp = add("pigeonhole", cmd_pigeonhole)
    required(sp, "--n", "--k", type=_int)
    return parser


# First match wins; QuadratureError, DegreeMismatchError and any other
# CancelsumError are a failed check.
_EXIT_CODES = ((DomainError, 2), (PrecisionError, 2), (ResourceError, 3),
               (OSError, 3), (CancelsumError, 1))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (CancelsumError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
