"""Command-line front end: every experiment as a subcommand emitting
CSV or JSON rows.

Global flags --bits/--format/--out/--sieve-cache apply to every
subcommand; --config points at a JSON file whose keys mirror the flag
names (explicit flags win).  High-precision values serialize as
decimal strings, never binary floats, and identical configurations
produce byte-identical output.

Exit codes: 0 success, 1 violated identity or failed check,
2 usage/domain error, 3 resource error.  Every error, argparse usage
errors included, prints one {"error": ...} line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import contour as contour_mod
from . import oscsum, partition, primes, pte
from .errors import (CancelsumError, DegreeMismatchError, DomainError,
                     PrecisionError, QuadratureError, ResourceError)
from .numerics import (PrecisionContext, context_for, nstr_for_bits,
                       required_bits, to_fraction_exact, to_mpf_exact)

# Named growth constants usable wherever a kernel rate is expected;
# resolved lazily at working precision.
_RATE_TOKENS = {
    "growth-p1": partition.growth_p1,
    "growth-p3": partition.growth_p3,
}


def _input_parser(convert):
    """The parser for one CLI/config input: malformed input becomes a
    DomainError (exit 2 with an {"error": ...} line), never a traceback."""
    def parse(value):
        try:
            return convert(value)
        except DomainError:
            raise
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise DomainError("bad input %r: %s" % (value, exc)) from None
    return parse


_parse_int = _input_parser(int)


@_input_parser
def _parse_number(value):
    """Exact rational from CLI/config input: int, Fraction string
    ("3/2"), or decimal string ("2.5")."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        return to_fraction_exact(value)
    text = str(value).strip()
    if "/" in text:
        return Fraction(text)
    if "." in text or "e" in text or "E" in text:
        return to_fraction_exact(text)
    return int(text)


def _parse_rate(value):
    """A kernel growth rate: named token, else exact number."""
    if isinstance(value, str) and value in _RATE_TOKENS:
        return _RATE_TOKENS[value]
    return _parse_number(value)


def _parse_grid(opts) -> list:
    """--x (repeatable) or --x-grid 'geom:lo:hi:n' | 'lin:lo:hi:n' |
    'a,b,c'; geometric/linear grids round to integers."""
    if "x" in opts:
        xs = opts["x"]
        if not isinstance(xs, list):
            xs = [xs]
        return [_parse_number(v) for v in xs]
    spec = opts.get("x_grid")
    if spec is None:
        raise DomainError("missing --x or --x-grid")
    text = str(spec)
    if text.startswith(("geom:", "lin:")):
        return _grid_points(text)
    return [_parse_number(v) for v in text.split(",")]


@_input_parser
def _grid_points(text: str) -> list:
    kind, lo_s, hi_s, n_s = text.split(":")
    lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    if n < 1 or lo <= 0 or hi < lo:
        raise DomainError("bad grid spec %r" % text)
    if n == 1:
        return [int(round(lo))]
    pts = []
    for i in range(n):
        t = i / (n - 1)
        v = lo * (hi / lo) ** t if kind == "geom" else lo + (hi - lo) * t
        pts.append(int(round(v)))
    return pts


def _resolve_ctx(opts, x, growth) -> PrecisionContext:
    bits = opts.get("bits", "auto")
    if bits == "auto":
        g = growth() if callable(growth) else growth
        return context_for(x, float(g) if g else 0.0)
    return PrecisionContext(bits=_parse_int(bits))


def _form_from(opts) -> oscsum.QuadraticForm:
    name = opts.get("form", "pentagonal")
    if name == "pentagonal":
        return oscsum.pentagonal_form()
    if name == "square":
        return oscsum.square_form(_parse_number(opts.get("T", 1)))
    if name == "custom":
        return oscsum.QuadraticForm(_parse_number(opts.get("a", 1)),
                                    _parse_number(opts.get("b", 0)),
                                    _parse_number(opts.get("d", 0)))
    raise DomainError("unknown form %r" % name)


def _kernel_from(opts) -> oscsum.KernelSpec:
    name = opts.get("kernel", "p2")
    if name in ("p1", "p2", "p3", "p4", "sqrt_p1"):
        return oscsum.rademacher_kernel(name)
    if name == "exp_sqrt":
        return oscsum.exp_sqrt_kernel(_parse_rate(opts.get("c", 1)))
    if name == "bessel":
        return oscsum.bessel_kernel(_parse_int(opts.get("alpha_order", 0)),
                                    _parse_rate(opts.get("c", 1)))
    if name == "power":
        return oscsum.power_kernel(_parse_number(opts.get("k_half", 1)))
    if name == "complex_exp":
        return oscsum.complex_exp_kernel(_parse_number(opts.get("alpha", 1)),
                                         _parse_number(opts.get("beta", 0)),
                                         _parse_number(opts.get("T", 1)))
    raise DomainError("unknown kernel %r" % name)


def _blank_none(row: dict) -> dict:
    return {k: ("" if v is None else v) for k, v in row.items()}


def _emit(rows: list, columns: list, opts) -> None:
    fmt = opts.get("format", "csv")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(_blank_none({k: row.get(k, "") for k in columns}))
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        raise DomainError("unknown format %r" % fmt)
    path = opts.get("out")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sieve_for(limit: int, opts) -> primes.LambdaSieve:
    path = opts.get("sieve_cache")
    if path and os.path.exists(path):
        sieve = primes.load_sieve(path)
        if sieve.limit >= limit:
            return sieve
    sieve = primes.build_sieve(limit)
    if path:
        primes.save_sieve(sieve, path)
    return sieve


# ---------------------------------------------------------------- commands


def cmd_pnt_verify(opts) -> int:
    x_max = _parse_int(opts.get("x_max", 2000))
    if x_max < 1:
        raise DomainError("x_max must be >= 1")
    table = partition.ExactPartitionTable()
    if opts.get("inject_corruption"):
        table.grow(x_max)
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
          ["x_max", "failures", "first_failure", "status"], opts)
    return 0 if failures == 0 else 1


_SUM_COLUMNS = ["x", "re", "im", "abs", "terms", "bound", "ratio", "bits"]


def cmd_osc_sum(opts) -> int:
    kernel = _kernel_from(opts)
    q = _form_from(opts)
    rows = []
    for x in _parse_grid(opts):
        ctx = _resolve_ctx(opts, x, kernel.growth)
        bound = None
        if kernel.growth:
            bound = oscsum.bound_main1(q.a, kernel.growth, x, ctx)
        report = oscsum.alternating_sum(kernel, q, x, ctx, predicted_bound=bound)
        rows.append(report.to_json_dict())
    _emit(rows, _SUM_COLUMNS, opts)
    return 0


def cmd_bound(opts) -> int:
    family = opts.get("family", "main1")
    rows = []
    if family == "main1":
        a = _parse_number(opts.get("a", Fraction(3, 2)))
        c = _parse_rate(opts.get("c", "growth-p1"))
        alpha_star, w = oscsum.maximize_delta(a, c)
        for x in _parse_grid(opts):
            ctx = _resolve_ctx(opts, x, c)
            b = oscsum.bound_main1(a, c, x, ctx)
            rows.append({"x": str(x), "a": str(Fraction(a)),
                         "alpha_star": nstr_for_bits(alpha_star, 128),
                         "w": nstr_for_bits(w, 128),
                         "bound": nstr_for_bits(b, ctx.bits)})
        _emit(rows, ["x", "a", "alpha_star", "w", "bound"], opts)
        return 0
    if family == "main2":
        alpha = _parse_number(opts.get("alpha", 1))
        beta = _parse_number(opts.get("beta", 0))
        T = _parse_number(opts.get("T", 1))
        slack = _parse_number(opts.get("delta_slack", Fraction(1, 100)))
        for x in _parse_grid(opts):
            b = oscsum.bound_main2(alpha, beta, T, x, slack)
            rows.append({"x": str(x), "alpha": str(alpha), "beta": str(beta),
                         "T": str(T), "delta_slack": str(slack),
                         "bound": nstr_for_bits(b, 192)})
        _emit(rows, ["x", "alpha", "beta", "T", "delta_slack", "bound"], opts)
        return 0
    raise DomainError("unknown bound family %r" % family)


def cmd_psi_sum(opts) -> int:
    if "x" not in opts or "T" not in opts:
        raise DomainError("psi-sum needs --x and --T")
    x = _parse_number(opts["x"])
    T = _parse_number(opts["T"])
    method = opts.get("method", "bucket")
    if method not in primes.PSI_METHODS:
        raise DomainError("unknown method %r" % (method,))
    ctx = _resolve_ctx(opts, x, 0.0)
    sieve = _sieve_for(primes.sieve_limit(x), opts)
    report = primes.psi_weak_pentagonal(x, T, sieve, ctx, method=method)
    row = report.to_json_dict()
    row["T"] = str(T)
    row["method"] = method
    _emit([row], ["x", "T", "method"] + _SUM_COLUMNS[1:], opts)
    return 0


def cmd_psi_half(opts) -> int:
    if "x" not in opts or "T" not in opts:
        raise DomainError("psi-half needs --x and --T")
    x = _parse_number(opts["x"])
    T = _parse_number(opts["T"])
    ctx = _resolve_ctx(opts, x, 0.0)
    sieve = _sieve_for(primes.sieve_limit(x), opts)
    report = primes.psi_interval_half(x, T, sieve, ctx)
    row = {"x": str(x), "T": str(T)}
    row.update(report.to_json_dict())
    _emit([row], ["x", "T", "lhs", "rhs", "rel_err", "boundary", "ell_max",
                  "psi_full", "bits"], opts)
    return 0


def cmd_pte_construct(opts) -> int:
    if "n" not in opts or "m" not in opts:
        raise DomainError("pte-construct needs --n and --m")
    n, m = _parse_int(opts["n"]), _parse_int(opts["m"])
    pair = pte.construct_pair(n, m)
    _emit([{"n": n, "m": m, "N": pair.N, "adjusted": pair.adjusted,
            "k_regime": pte.k_regime(n, m)}],
          ["n", "m", "N", "adjusted", "k_regime"], opts)
    return 0


def cmd_pte_verify(opts) -> int:
    if "n" not in opts or "m" not in opts:
        raise DomainError("pte-verify needs --n and --m")
    n, m = _parse_int(opts["n"]), _parse_int(opts["m"])
    pair = pte.construct_pair(n, m)
    r_max = _parse_int(opts.get("r_max", pte.k_regime(n, m)))
    rows = [row.to_json_dict() for row in pte.verify_pte_bound(pair, r_max)]
    _emit(rows, ["r", "diff", "bound", "ratio", "within_regime"], opts)
    return 0


def cmd_frm_degree(opts) -> int:
    if "r" in opts:
        r_values = [_parse_int(opts["r"])]
    elif "r_max" in opts:
        r_values = list(range(1, _parse_int(opts["r_max"]) + 1))
    else:
        raise DomainError("frm-degree needs --r or --r-max")
    as_json = opts.get("format", "csv") == "json"
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
          opts)
    return 0


def cmd_lemma_sum(opts) -> int:
    for key in ("x", "T", "k"):
        if key not in opts:
            raise DomainError("lemma-sum needs --x, --T and --k")
    x = _parse_number(opts["x"])
    T = _parse_number(opts["T"])
    k = _parse_int(opts["k"])
    u = _parse_number(opts.get("u", 1))
    ctx = _resolve_ctx(opts, x, 0.0)
    value = pte.lemma_sum(x, T, k, ctx)
    exact = k % 2 == 0
    text = str(value) if exact else nstr_for_bits(value, ctx.bits)
    bound = pte.lemma_bound(x, T, k, u, ctx)
    _emit([{"x": str(x), "T": str(T), "k": k, "u": str(u), "value": text,
            "exact_rational": exact, "bound": nstr_for_bits(bound, ctx.bits)}],
          ["x", "T", "k", "u", "value", "exact_rational", "bound"], opts)
    return 0


def cmd_contour_check(opts) -> int:
    if "x" not in opts:
        raise DomainError("contour-check needs --x")
    x = _parse_number(opts["x"])
    u = _parse_number(opts.get("u", 1))
    kernel = _kernel_from(opts)
    q = _form_from(opts)
    tol = _parse_number(opts.get("tol", "1e-14"))
    threshold = opts.get("max_rel_err")
    if threshold is not None:
        threshold = _parse_number(threshold)
    # auto never goes below 320 bits, where every contour tolerance and
    # evaluation count in use was set; steeper kernels get the policy bits
    bits = opts.get("bits", "auto")
    if bits == "auto":
        bits = max(320, required_bits(x, kernel.growth))
    ctx = PrecisionContext(bits=_parse_int(bits))
    report = contour_mod.residue_identity_check(kernel, q, x, u, ctx, tol=tol)
    row = report.to_json_dict()
    row["u"] = str(u)
    if opts.get("format", "csv") == "csv":
        flat = dict(row)
        mags = flat.pop("leg_mags")
        for i, m in enumerate(mags, start=1):
            flat["leg%d" % i] = m
        _emit([flat], ["x", "u", "quad_re", "quad_im", "discrete_re",
                       "discrete_im", "rel_err", "leg1", "leg2", "leg3",
                       "leg4"], opts)
    else:
        _emit([row], [], opts)
    if threshold is not None and report.rel_err > to_mpf_exact(threshold):
        return 1
    return 0


@_input_parser
def _float_pair(text: str) -> tuple:
    first, second = text.split(",")
    return float(first), float(second)


def cmd_exponent_fit(opts) -> int:
    samples = []
    if "synthetic" in opts:
        w_true, intercept = _float_pair(str(opts["synthetic"]))
        xs = _parse_grid(opts)
        try:
            for x in xs:
                samples.append((float(x), math.exp(w_true * math.sqrt(float(x)) + intercept)))
        except OverflowError:
            raise DomainError("synthetic samples overflow a float") from None
    else:
        kernel = _kernel_from(opts)
        q = _form_from(opts)
        for x in _parse_grid(opts):
            ctx = _resolve_ctx(opts, x, kernel.growth)
            report = oscsum.alternating_sum(kernel, q, x, ctx)
            samples.append((float(x), report.abs_value))
    w_hat, intercept, rms = oscsum.empirical_exponent(samples)
    _emit([{"points": len(samples), "w_hat": repr(w_hat),
            "intercept": repr(intercept), "rms": repr(rms)}],
          ["points", "w_hat", "intercept", "rms"], opts)
    return 0


def cmd_pigeonhole(opts) -> int:
    if "n" not in opts or "k" not in opts:
        raise DomainError("pigeonhole needs --n and --k")
    n, k = _parse_int(opts["n"]), _parse_int(opts["k"])
    c = pte.pigeonhole_c(n, k)
    _emit([{"n": n, "k": k, "c": str(c), "c_float": float(c)}],
          ["n", "k", "c", "c_float"], opts)
    return 0


_DISPATCH = {
    "pnt-verify": cmd_pnt_verify,
    "osc-sum": cmd_osc_sum,
    "bound": cmd_bound,
    "psi-sum": cmd_psi_sum,
    "psi-half": cmd_psi_half,
    "pte-construct": cmd_pte_construct,
    "pte-verify": cmd_pte_verify,
    "frm-degree": cmd_frm_degree,
    "lemma-sum": cmd_lemma_sum,
    "contour-check": cmd_contour_check,
    "exponent-fit": cmd_exponent_fit,
    "pigeonhole": cmd_pigeonhole,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise DomainError (exit 2, one {"error": ...} line)."""

    def error(self, message):
        raise DomainError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--bits", help="precision bits or 'auto'")
    common.add_argument("--format", choices=["csv", "json"])
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--sieve-cache", dest="sieve_cache",
                        help="prime-power table cache path")
    common.add_argument("--config", help="JSON config mirroring flags; flags win")

    parser = _Parser(prog="cancelsum", description="high-cancellation sum toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *flags):
        sp = sub.add_parser(name, parents=[common],
                            argument_default=argparse.SUPPRESS)
        for args, kwargs in flags:
            sp.add_argument(*args, **kwargs)
        return sp

    grid = [(("--x",), {"action": "append"}), (("--x-grid",), {"dest": "x_grid"})]
    kern = [(("--kernel",), {}), (("--c",), {}), (("--alpha-order",), {"dest": "alpha_order"}),
            (("--k-half",), {"dest": "k_half"}), (("--alpha",), {}), (("--beta",), {}),
            (("--T",), {}), (("--form",), {}), (("--a",), {}), (("--b",), {}),
            (("--d",), {})]

    add("pnt-verify", (("--x-max",), {"dest": "x_max"}),
        (("--inject-corruption",), {"dest": "inject_corruption",
                                    "action": "store_true"}))
    add("osc-sum", *grid, *kern)
    add("bound", *grid, (("--family",), {}), (("--a",), {}), (("--c",), {}),
        (("--alpha",), {}), (("--beta",), {}), (("--T",), {}),
        (("--delta-slack",), {"dest": "delta_slack"}))
    add("psi-sum", (("--x",), {}), (("--T",), {}), (("--method",), {}))
    add("psi-half", (("--x",), {}), (("--T",), {}))
    add("pte-construct", (("--n",), {}), (("--m",), {}))
    add("pte-verify", (("--n",), {}), (("--m",), {}), (("--r-max",), {"dest": "r_max"}))
    add("frm-degree", (("--r",), {}), (("--r-max",), {"dest": "r_max"}))
    add("lemma-sum", (("--x",), {}), (("--T",), {}), (("--k",), {}), (("--u",), {}))
    add("contour-check", (("--x",), {}), (("--u",), {}), (("--tol",), {}),
        (("--max-rel-err",), {"dest": "max_rel_err"}), *kern)
    add("exponent-fit", *grid, *kern, (("--synthetic",), {}))
    add("pigeonhole", (("--n",), {}), (("--k",), {}))
    return parser


def _merge_config(opts: dict) -> dict:
    path = opts.get("config")
    if not path:
        return opts
    with open(path) as fh:
        try:
            loaded = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DomainError("config %s is not JSON: %s" % (path, exc)) from None
    if not isinstance(loaded, dict):
        raise DomainError("config must be a JSON object")
    merged = dict(loaded)
    merged.update(opts)  # explicit flags win
    return merged


def main(argv=None) -> int:
    try:
        opts = vars(_build_parser().parse_args(argv))
        command = opts.pop("command")
        opts = _merge_config(opts)
        return _DISPATCH[command](opts)
    except (DomainError, PrecisionError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except ResourceError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 3
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 3
    except (QuadratureError, DegreeMismatchError, CancelsumError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
