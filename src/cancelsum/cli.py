"""Command-line front end: every experiment as a subcommand emitting
CSV rows.

argparse is the one input layer.  Each flag is declared once, with its
type, default and choices, on the subcommands that read it: --bits on
those that choose a working precision, and --sieve-cache on psi-sum and
psi-half.  Each row is a dict whose keys, in order, are the CSV header.
High-precision values serialize as decimal strings, never binary
floats, and identical arguments produce byte-identical output.

Exit codes: 0 success, 1 violated identity or failed check,
2 usage/domain error, 3 resource error.  Every error, argparse usage
errors included, prints one {"error": ...} line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction

from . import contour as contour_mod
from . import numerics, oscsum, partition, primes, pte
from .errors import CancelsumError, DomainError, PrecisionError, ResourceError

# Named growth constants usable wherever a kernel rate is expected;
# resolved lazily at working precision.
_RATE_TOKENS = {
    "growth-p1": partition.growth_p1,
    "growth-p3": partition.growth_p3,
}

# Points in one generated --x-grid; the largest grid in use has 20.
MAX_GRID_POINTS = 1_000

# Digits of one input number, its text and its decimal exponent together;
# the largest in use is 1e30.  CPython prints an int of at most 4,300
# digits by default, and bound --family main2 takes 52 s at --x 1e1000000
# (CPython 3.11, one core of a 2-core Xeon).
MAX_NUMBER_DIGITS = 1_000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # as Fraction reads it

# primes.PSI_METHODS, spelled out so that building the parser does not
# execute primes; a test keeps the two equal
PSI_METHODS = ("bucket", "direct")


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


def _sized(text: str) -> str:
    """text, once its number is known to fit MAX_NUMBER_DIGITS: the size
    is read off the text, before Fraction expands a decimal exponent."""
    exponent = _EXPONENT.search(text)
    if len(text) > MAX_NUMBER_DIGITS or (
            exponent and abs(int(exponent[1])) > MAX_NUMBER_DIGITS - len(text)):
        raise ResourceError("number %.40s exceeds budget of %d digits" % (text, MAX_NUMBER_DIGITS))
    return text


@_input_parser
def _number(text):
    """The one number rule: Fraction(text) ("7", "3/2", "2.5", "1e-14"),
    as an int when it is integral."""
    value = Fraction(_sized(text))
    return value.numerator if value.denominator == 1 else value


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
    return [int(round(lo * (hi / lo) ** (i / max(n - 1, 1)))) for i in range(n)]


def _resolve_ctx(bits, x, rate) -> numerics.PrecisionContext:
    return numerics.context_for(x, rate) if bits is None else numerics.PrecisionContext(bits=bits)


# --kernel and --form: each name and the constructor it selects, in the
# order --help lists them
_KERNELS = {
    **dict.fromkeys(partition.RADEMACHER, lambda args: oscsum.rademacher_kernel(args.kernel)),
    "exp_sqrt": lambda args: oscsum.exp_sqrt_kernel(args.c),
    "power": lambda args: oscsum.power_kernel(args.k_half),
    "complex_exp": lambda args: oscsum.complex_exp_kernel(args.alpha, args.beta, args.T),
}
_FORMS = {
    "pentagonal": lambda args: oscsum.pentagonal_form(),
    "square": lambda args: oscsum.square_form(args.T),
    "custom": lambda args: oscsum.QuadraticForm(args.a, args.b, args.d),
}


def _emit(rows: list) -> None:
    """CSV on stdout: the first row's keys are the header, and None prints
    as an empty field."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(row.values() for row in rows)


def _psi_inputs(args):
    """(x, T, ctx, sieve) of psi-sum and psi-half: the context first, then
    a sieve to sieve_limit(x), read from --sieve-cache when that covers
    it, else built and written there."""
    ctx = _resolve_ctx(args.bits, args.x, 0)
    limit, path = primes.sieve_limit(args.x), args.sieve_cache
    sieve = primes.load_sieve(path) if path and os.path.exists(path) else None
    if sieve is None or sieve.limit < limit:
        sieve = primes.build_sieve(limit)
        if path:
            primes.save_sieve(sieve, path)
    return args.x, args.T, ctx, sieve


def _sums(args, with_bound):
    """(x, report) for each x of the grid, the kernel and form built once;
    with_bound attaches main1's bound, stated for real kernels whose
    terms cancel, to each report of a real kernel with growth, unless
    the kernel carries (-1)^y (partition.PARITY_SIGNED), which cancels
    the sum's own sign on a form where n + q(n) has one parity."""
    kernel = _KERNELS[args.kernel](args)
    q = _FORMS[args.form](args)
    with_bound = (with_bound and kernel.real and kernel.growth
                  and not (args.kernel in partition.PARITY_SIGNED and q.one_parity()))
    for x in args.x:
        ctx = _resolve_ctx(args.bits, x, kernel.growth)
        bound = None
        if with_bound:
            bound = oscsum.bound_main1(q.a, kernel.growth, x, ctx)
        yield x, oscsum.alternating_sum(kernel, q, x, ctx, predicted_bound=bound)


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
            "status": status}])
    return 0 if failures == 0 else 1


def cmd_osc_sum(args) -> int:
    _emit([report.to_json_dict() for _, report in _sums(args, with_bound=True)])
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
                         "alpha_star": numerics.nstr_for_bits(alpha_star, 128),
                         "w": numerics.nstr_for_bits(w, 128),
                         "bound": numerics.nstr_for_bits(b, ctx.bits)})
        _emit(rows)
        return 0
    if args.bits is not None:
        raise DomainError("--bits applies to --family main1 only")
    alpha, beta, T, slack = args.alpha, args.beta, args.T, args.delta_slack
    for x in args.x:
        b = oscsum.bound_main2(alpha, beta, T, x, slack)
        rows.append({"x": str(x), "alpha": str(alpha), "beta": str(beta),
                     "T": str(T), "delta_slack": str(slack),
                     "bound": numerics.nstr_for_bits(b, 192)})
    _emit(rows)
    return 0


def cmd_psi_sum(args) -> int:
    x, T, ctx, sieve = _psi_inputs(args)
    report = primes.psi_weak_pentagonal(x, T, sieve, ctx, method=args.method)
    row = report.to_json_dict()
    _emit([{"x": row.pop("x"), "T": str(T), "method": args.method, **row}])
    return 0


def cmd_psi_half(args) -> int:
    x, T, ctx, sieve = _psi_inputs(args)
    report = primes.psi_interval_half(x, T, sieve, ctx)
    _emit([{"x": str(x), "T": str(T), **report.to_json_dict()}])
    return 0


def cmd_pte_construct(args) -> int:
    pair = pte.construct_pair(args.n, args.m)
    _emit([{"n": args.n, "m": args.m, "N": pair.N, "adjusted": pair.adjusted,
            "k_regime": pte.k_regime(args.n, args.m)}])
    return 0


def cmd_pte_verify(args) -> int:
    r_max = args.r_max if args.r_max is not None else pte.k_regime(args.n, args.m)
    pte.check_power_sum_budget(args.n, r_max)  # before any work
    pair = pte.construct_pair(args.n, args.m)
    _emit([row.to_json_dict() for row in pte.verify_pte_bound(pair, r_max)])
    return 0


def cmd_frm_degree(args) -> int:
    if args.r_max is not None and args.r_max < 1:
        raise DomainError("r_max must be >= 1")
    r_values = [args.r] if args.r is not None else range(1, args.r_max + 1)
    if r_values[-1] > pte.MAX_POWER:  # before any work
        raise ResourceError("r = %d exceeds budget %d" % (r_values[-1], pte.MAX_POWER))
    rows = []
    for r in r_values:
        degree, poly = pte.detect_degree(r)
        rows.append({"r": r, "degree": degree,
                     "coeffs": ";".join(str(c) for c in poly.coeffs),
                     "max_abs_coeff": str(max(abs(c) for c in poly.coeffs)),
                     "bound_ok": pte.coefficient_bound_check(r, poly),
                     "poly": str(poly)})
    _emit(rows)
    return 0


def cmd_lemma_sum(args) -> int:
    x, T, k, u = args.x, args.T, args.k, args.u
    ctx = _resolve_ctx(args.bits, x, 0)
    value = pte.lemma_sum(x, T, k, ctx)
    exact = k % 2 == 0
    text = str(value) if exact else numerics.nstr_for_bits(value, ctx.bits)
    bound = pte.lemma_bound(x, T, k, u, ctx)
    _emit([{"x": str(x), "T": str(T), "k": k, "u": str(u), "value": text,
            "exact_rational": exact, "bound": numerics.nstr_for_bits(bound, ctx.bits)}])
    return 0


def cmd_contour_check(args) -> int:
    x, u = args.x, args.u
    kernel = _KERNELS[args.kernel](args)
    q = _FORMS[args.form](args)
    # auto never goes below 320 bits, where every contour tolerance and
    # evaluation count in use was set; steeper kernels get the policy bits
    bits = args.bits
    if bits is None:
        bits = max(320, numerics.required_bits(x, kernel.growth))
    ctx = numerics.PrecisionContext(bits=bits)
    report = contour_mod.residue_identity_check(kernel, q, x, u, ctx)
    row = report.to_json_dict()
    legs = row.pop("leg_mags")
    _emit([{"x": row.pop("x"), "u": str(u), **row,
            **{"leg%d" % i: m for i, m in enumerate(legs, start=1)}}])
    threshold = args.max_rel_err
    if threshold is not None and report.rel_err > numerics.to_mpf_exact(threshold):
        return 1
    return 0


def cmd_exponent_fit(args) -> int:
    samples = [(x, report.abs_value) for x, report in _sums(args, with_bound=False)]
    w_hat, intercept, rms = oscsum.empirical_exponent(samples)
    _emit([{"points": len(samples), "w_hat": repr(w_hat),
            "intercept": repr(intercept), "rms": repr(rms)}])
    return 0


def cmd_pigeonhole(args) -> int:
    c = pte.pigeonhole_c(args.n, args.k)
    _emit([{"n": args.n, "k": args.k, "c": str(c), "c_float": float(c)}])
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
    sp.add_argument("--method", choices=PSI_METHODS, default="bucket")

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
