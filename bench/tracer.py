"""Run one cancelsum CLI command with its module boundaries traced.

Usage: python3 bench/tracer.py SPANS_OUT CLI_ARG...

The command runs exactly as `python3 -m cancelsum.cli CLI_ARG...` does:
the same `cli.main`, the same public calls in the same order, the same
stdout.  Before `main` runs, the public functions named in WRAPPED are
replaced, in every cancelsum module that binds them, by wrappers that
record a span (name, start, end, parent) plus counts read from the
returned objects.  The spans stay in memory and are written to
SPANS_OUT as one JSON line when the command ends, followed by a line
with the time that writing took.  Nothing inside src/ changes.

Timestamps are time.perf_counter(), which on Linux reads the system-wide
monotonic clock, so the parent can place them on its own timeline.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPANS: list = []  # [name, start, end, parent_index, counts]
_STACK: list = []


def _record(name, func, counts_of=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = [name(args, kwargs) if callable(name) else name,
                time.perf_counter(), None,
                _STACK[-1] if _STACK else None, None]
        SPANS.append(span)
        _STACK.append(len(SPANS) - 1)
        try:
            result = func(*args, **kwargs)
        finally:
            _STACK.pop()
            span[2] = time.perf_counter()
        if counts_of is not None:
            span[4] = counts_of(args, kwargs, result)
        return result

    return wrapper


def _method_name(args, kwargs):
    method = kwargs.get("method", args[4] if len(args) > 4 else "bucket")
    return "primes.%s" % method


# (module, attribute or Class.method, span name, counts from (args, kwargs, result))
WRAPPED = [
    ("primes", "build_sieve", "primes.sieve_build",
     lambda a, k, r: {"sieve_entries": len(r.entries)}),
    ("primes", "save_sieve", "primes.sieve_save", None),
    ("primes", "load_sieve", "primes.sieve_load",
     lambda a, k, r: {"sieve_entries": len(r.entries)}),
    ("primes", "LambdaSieve.arrays_at", "primes.arrays_at", None),
    ("primes", "lambda_coefficients", _method_name, None),
    ("primes", "coefficients_value", "primes.value",
     lambda a, k, r: {"coeffs": len(a[0])}),
    ("primes", "psi_weak_pentagonal", "primes.psi_sum",
     lambda a, k, r: {"cutoffs": (r.term_count + 1) // 2}),
    ("primes", "psi_interval_half", "primes.half",
     lambda a, k, r: {"cutoffs": r.ell_max + 1}),
    ("contour", "residue_identity_check", "contour.check", None),
    ("contour", "integrate_rectangle", "contour.quad",
     lambda a, k, r: {"evals": r.evaluations, "levels_max": max(r.levels)}),
    ("contour", "gauss_legendre_nodes", "contour.nodes", None),
    ("contour", "alternating_sum", "contour.discrete",
     lambda a, k, r: {"bits": r.precision_bits}),
    ("oscsum", "alternating_sum", "oscsum.sum",
     lambda a, k, r: {"terms": r.term_count, "bits": r.precision_bits}),
    ("oscsum", "QuadraticForm.index_range", "oscsum.index_range", None),
    ("oscsum", "bound_main1", "oscsum.bound", None),
    ("oscsum", "bound_main2", "oscsum.bound", None),
    ("oscsum", "maximize_delta", "oscsum.bound", None),
    ("oscsum", "empirical_exponent", "oscsum.fit", None),
    ("numerics", "context_for", "numerics.context",
     lambda a, k, r: {"bits": r.bits}),
    ("numerics", "nstr_for_bits", "cli.serialize", None),
    ("oscsum", "SumReport.to_json_dict", "cli.serialize", None),
    ("primes", "IntervalHalfReport.to_json_dict", "cli.serialize", None),
    ("contour", "ResidueReport.to_json_dict", "cli.serialize", None),
    ("pte", "PTERow.to_json_dict", "cli.serialize", None),
    ("partition", "ExactPartitionTable.grow", "partition.grow", None),
    ("partition", "pnt_checksum", "partition.checksum", None),
    ("pte", "construct_pair", "pte.construct", None),
    ("pte", "verify_pte_bound", "pte.verify", None),
    ("pte", "detect_degree", "pte.detect_degree", None),
    ("pte", "lemma_sum", "pte.lemma", None),
    ("pte", "lemma_bound", "pte.lemma", None),
    ("pte", "pigeonhole_c", "pte.pigeonhole", None),
]


def install(package) -> None:
    """Replace each WRAPPED callable in its owner module or class.  When
    the owner defines the function, also rebind its module-level aliases
    (`from .numerics import nstr_for_bits`), except those WRAPPED lists
    under their own name, as it does contour's alternating_sum, traced
    as contour.discrete."""
    prefix = package.__name__ + "."
    modules = [mod for name, mod in list(sys.modules.items())
               if name == package.__name__ or name.startswith(prefix)]
    listed = {(prefix + mod_name, attr) for mod_name, attr, _, _ in WRAPPED}
    for mod_name, attr, span_name, counts_of in WRAPPED:
        owner = sys.modules[prefix + mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, _record(span_name, cls.__dict__[meth], counts_of))
            continue
        original = getattr(owner, attr)
        wrapper = _record(span_name, original, counts_of)
        setattr(owner, attr, wrapper)
        if original.__module__ != owner.__name__:
            continue
        for mod in modules:
            if getattr(mod, attr, None) is original and (mod.__name__, attr) not in listed:
                setattr(mod, attr, wrapper)


def main(argv: list) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    t_import = time.perf_counter()
    import cancelsum
    import cancelsum.cli as cli
    SPANS.append(["cli.import", t_import, time.perf_counter(), None, None])
    install(cancelsum)
    main_span = ["cli.main", time.perf_counter(), None, None, None]
    SPANS.append(main_span)
    _STACK.append(len(SPANS) - 1)
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors exit through here
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        _STACK.pop()
        main_span[2] = time.perf_counter()
        sys.stdout.flush()
        t_dump = time.perf_counter()
        with open(spans_out, "w") as fh:
            json.dump({"spans": SPANS}, fh)
            # the dump's own time, so the runner can book it as tracing cost
            fh.write("\n%r\n" % (time.perf_counter() - t_dump))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
