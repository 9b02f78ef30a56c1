"""Quick self-check of the benchmark itself: workload generation, the
runner, every cross-check (on good and on corrupted output), the traced
run and the result format.  Small inputs; about half a minute.

    python3 bench/smoke.py

Kept out of the test suite (pytest collects only tests/).  Exits 0 when
every check holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time

import run
from workloads import Command, WORKLOADS, generate

SMALL = [
    Command("pnt-verify", ("pnt-verify", "--x-max", "300"), "pnt", {"x_max": 300}),
    Command("osc-sum", ("osc-sum", "--kernel", "p2", "--form", "pentagonal",
                        "--x-grid", "geom:100:900:3"), "osc_sum", {}),
    Command("bound", ("bound", "--family", "main1", "--a", "3/2", "--c", "growth-p1",
                      "--x", "500"), "bound", {"x": 500}),
    Command("psi-sum", ("psi-sum", "--x", "30", "--T", "200", "--sieve-cache", "sieve.lsiv"),
            "psi_bucket", {"x": "30", "T": "200"}),
    Command("psi-sum.direct", ("psi-sum", "--x", "30", "--T", "200", "--sieve-cache",
                               "sieve.lsiv", "--method", "direct"),
            "psi_direct", {"x": "30", "T": "200"}),
    Command("psi-half", ("psi-half", "--x", "30", "--T", "200", "--sieve-cache", "sieve.lsiv"),
            "psi_half", {"x": "30", "T": "200"}),
    Command("pte-construct", ("pte-construct", "--n", "30", "--m", "1"), "pte_construct",
            {"n": 30, "m": 1}),
    Command("pte-verify", ("pte-verify", "--n", "30", "--m", "1"), "pte_verify",
            {"n": 30, "m": 1}),
    Command("frm-degree", ("frm-degree", "--r-max", "6"), "frm_degree", {"r_max": 6}),
    Command("lemma-sum", ("lemma-sum", "--x", "3", "--T", "5", "--k", "2"), "lemma_sum",
            {"x": 3, "T": 5, "k": 2}),
    Command("contour-check", ("contour-check", "--x", "12", "--kernel", "exp_sqrt", "--c", "1",
                              "--form", "square", "--max-rel-err", "1e-12"),
            "contour", {"x": "12", "kernel": "exp_sqrt", "c": "1", "form": "square", "T": 1}),
    Command("exponent-fit", ("exponent-fit", "--kernel", "p2", "--form", "pentagonal",
                             "--x-grid", "geom:100:400:4"),
            "exponent_fit", {"grid": "geom:100:400:4"}),
    Command("pigeonhole", ("pigeonhole", "--n", "50", "--k", "20"), "pigeonhole",
            {"n": 50, "k": 20}),
]

# the field whose corruption each check must catch
CORRUPT = {"pnt": "failures", "osc_sum": "re", "bound": "bound", "psi_bucket": "re",
           "psi_direct": "re", "psi_half": "lhs", "pte_construct": "N",
           "pte_verify": "diff", "frm_degree": "coeffs", "lemma_sum": "value",
           "contour": "quad_im", "exponent_fit": "w_hat", "pigeonhole": "c"}


def corrupt(stdout: bytes, column: str) -> bytes:
    """Change the first nonzero digit of `column` in the first data row."""
    lines = stdout.decode().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    i = header.index(column)
    text = cells[i]
    for j, ch in enumerate(text):
        if ch in "123456789":
            cells[i] = text[:j] + ("1" if ch == "9" else str(int(ch) + 1)) + text[j + 1:]
            break
    else:
        cells[i] = "1"
    lines[1] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def main() -> int:
    problems = []

    for name in WORKLOADS:
        a, b, c = generate(name, 1), generate(name, 1), generate(name, 2)
        if a != b:
            problems.append("%s: same seed gave different commands" % name)
        if a == c:
            problems.append("%s: seeds 1 and 2 gave the same commands" % name)
        if not all(isinstance(arg, str) for cmd in a for arg in cmd.args):
            problems.append("%s: non-string CLI argument" % name)

    work = run.BENCH / "_work" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = run.child_env()
    deadline = time.perf_counter() + 150
    try:
        with run.HostClock() as clock:
            plain = run.run_pass(SMALL, work, env, False, clock, deadline)
            run.verify_pass(SMALL, plain)
            bad = [c["check"] for c in plain["commands"] if c["check"] != "ok"]
            if bad:
                problems.append("good output rejected: %s" % bad)
            if not plain["host_s"] > 0:
                problems.append("the host clock did not run during a pass")
            for k, cmd in enumerate(SMALL):
                for label in ("corrupted", "nonzero exit"):
                    p = copy.deepcopy(plain)
                    res = p["commands"][k]
                    if label == "corrupted":
                        res["stdout"] = corrupt(res["stdout"], CORRUPT[cmd.check])
                    else:
                        res["rc"] = 1
                    run.verify_pass(SMALL, p)
                    if res["check"] == "ok":
                        problems.append("%s output of %s passed its check" % (label, cmd.label))

            traced = run.run_pass(SMALL, work, env, True, clock, deadline)
            if ([c["sha256"] for c in traced["commands"]]
                    != [c["sha256"] for c in plain["commands"]]):
                problems.append("traced stdout differs from untraced stdout")
            m = run.trace_metrics(traced)
            missing = {n for n, _ in run.per_layer_names()} - set(m) - {"trace.overhead_s"}
            if missing:
                problems.append("trace metrics missing: %s" % sorted(missing))
            if any(m["%s.self_s" % layer] < 0 for layer in run.LAYERS):
                problems.append("negative layer self time")
            total = sum(m["%s.share_pct" % layer] for layer in run.LAYERS)
            if not 90.0 <= total <= 100.5:
                problems.append("layer shares add up to %.1f%% of the traced pass" % total)
            for key in ("primes.sieve_entries", "contour.evals", "oscsum.terms", "primes.cutoffs"):
                if not m[key] > 0:
                    problems.append("%s not counted" % key)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(e["name"], e["unit"]) for e in spec["end_to_end"]] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(e["name"], e["unit"]) for e in spec["per_layer"]] != run.per_layer_names():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_names()")

    # a directory holding only BENCHMARK.json and the benchmark must fail cleanly
    bare = run.BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(spec["command"] + ["--workload", "psi", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout))
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
