"""Seeded workload generators.

Each workload is a fixed list of cancelsum CLI commands drawn from a
seed.  The draws come from narrow ranges, so every seed does about the
same work; the CLI only ever sees the generated arguments (never the
seed).  See bench/README.md for why each workload exists and how it
scales to the full-size cases it stands in for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SIEVE_CACHE = "sieve.lsiv"  # relative to the per-run work directory


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  `label` names it in reports; `check` names
    the cross-check in checks.py; `params` carries what the check needs
    to recompute the result by its own route."""

    label: str
    args: tuple
    check: str
    params: dict = field(default_factory=dict)


def _grid(lo: int, hi: int, n: int) -> str:
    return "geom:%d:%d:%d" % (lo, hi, n)


def psi(rng: random.Random) -> list:
    """The prime layer at x ~ 200, T ~ 3000: ~106k prime powers and
    ~775 cutoffs.  One cold sieve-cache write, two warm reads."""
    x = "%.4f" % (200 + rng.randrange(-4, 5) / 16)
    T = str(rng.randrange(2900, 3101))
    common = ("--x", x, "--T", T, "--sieve-cache", SIEVE_CACHE)
    p = {"x": x, "T": T}
    return [
        Command("psi-sum.bucket.cold", ("psi-sum",) + common, "psi_bucket", p),
        Command("psi-sum.direct.warm", ("psi-sum",) + common + ("--method", "direct"),
                "psi_direct", p),
        Command("psi-half.warm", ("psi-half",) + common, "psi_half", p),
    ]


_CONTOUR_GATE = ("--bits", "320", "--max-rel-err", "1e-12")


def residue(rng: random.Random) -> list:
    """The contour layer: three short, tall pentagonal contours and one
    long, thin complex one (criterion 08's dominant case at T=100)."""
    cmds = []
    for lo, hi in ((48, 52), (98, 102), (396, 404)):
        x = str(rng.randrange(lo, hi + 1))
        cmds.append(Command(
            "contour-check.exp_sqrt.x%d" % ((lo + hi) // 2),
            ("contour-check",) + _CONTOUR_GATE + ("--x", x, "--kernel", "exp_sqrt",
                                                  "--c", "growth-p1", "--form", "pentagonal"),
            "contour", {"x": x, "kernel": "exp_sqrt", "c": "growth-p1", "form": "pentagonal"}))
    x = str(rng.randrange(99, 102))
    cmds.append(Command(
        "contour-check.complex_exp.T100",
        ("contour-check",) + _CONTOUR_GATE + ("--x", x, "--kernel", "complex_exp", "--alpha", "1",
                                              "--beta", "10", "--T", "100", "--form", "square"),
        "contour", {"x": x, "kernel": "complex_exp", "alpha": 1, "beta": 10, "T": 100,
                    "form": "square"}))
    return cmds


def cli_mix(rng: random.Random) -> list:
    """The README's twelve commands plus two heavier ones, each with its
    size drawn near the README value."""
    r = rng.randrange
    pnt = r(1950, 2051)
    osc_lo, osc_hi = r(95, 106), r(9800, 10201)
    bound_x = r(950, 1051)
    psi_x, psi_T = r(39, 42), r(2900, 3101)
    pte_n = r(96, 105)
    lemma_x, lemma_T = r(1, 4), r(4, 7)
    contour_x = r(49, 52)
    fit_lo, fit_hi = r(480, 521), r(3900, 4101)
    pig_n = r(95, 106)
    big_lo, big_hi = r(980, 1021), r(98000, 102001)
    pnt_big = r(9900, 10101)
    psi_p = {"x": str(psi_x), "T": str(psi_T)}
    return [
        Command("pnt-verify", ("pnt-verify", "--x-max", str(pnt)), "pnt", {"x_max": pnt}),
        Command("osc-sum", ("osc-sum", "--kernel", "p2", "--form", "pentagonal",
                            "--x-grid", _grid(osc_lo, osc_hi, 20)), "osc_sum", {}),
        Command("bound", ("bound", "--family", "main1", "--a", "3/2", "--c", "growth-p1",
                          "--x", str(bound_x)), "bound", {"x": bound_x}),
        Command("psi-sum", ("psi-sum", "--x", str(psi_x), "--T", str(psi_T)),
                "psi_bucket", psi_p),
        Command("psi-half", ("psi-half", "--x", str(psi_x), "--T", str(psi_T)),
                "psi_half", psi_p),
        Command("pte-construct", ("pte-construct", "--n", str(pte_n), "--m", "1"),
                "pte_construct", {"n": pte_n, "m": 1}),
        Command("pte-verify", ("pte-verify", "--n", str(pte_n), "--m", "1"),
                "pte_verify", {"n": pte_n, "m": 1}),
        Command("frm-degree", ("frm-degree", "--r-max", "16"), "frm_degree", {"r_max": 16}),
        Command("lemma-sum", ("lemma-sum", "--x", str(lemma_x), "--T", str(lemma_T),
                              "--k", "2"),
                "lemma_sum", {"x": lemma_x, "T": lemma_T, "k": 2}),
        Command("contour-check", ("contour-check", "--x", str(contour_x), "--kernel",
                                  "exp_sqrt", "--c", "1", "--form", "square",
                                  "--max-rel-err", "1e-12"),
                "contour", {"x": str(contour_x), "kernel": "exp_sqrt", "c": "1",
                            "form": "square", "T": 1}),
        Command("exponent-fit", ("exponent-fit", "--kernel", "p2", "--form", "pentagonal",
                                 "--x-grid", _grid(fit_lo, fit_hi, 8)),
                "exponent_fit", {"grid": _grid(fit_lo, fit_hi, 8)}),
        Command("pigeonhole", ("pigeonhole", "--n", str(pig_n), "--k", "20"),
                "pigeonhole", {"n": pig_n, "k": 20}),
        Command("osc-sum.big", ("osc-sum", "--kernel", "p2", "--form", "pentagonal",
                                "--x-grid", _grid(big_lo, big_hi, 20)), "osc_sum", {}),
        Command("pnt-verify.big", ("pnt-verify", "--x-max", str(pnt_big)), "pnt",
                {"x_max": pnt_big}),
    ]


WORKLOADS = {"psi": psi, "residue": residue, "cli-mix": cli_mix}


def generate(name: str, seed: int) -> list:
    return WORKLOADS[name](random.Random("%s:%d" % (name, seed)))
