"""The cancelsum benchmark: seeded CLI workloads, one fresh process per
command, every output cross-checked.

    python3 bench/run.py --workload psi|residue|cli-mix --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/cancelsum).  One
client runs the commands one at a time, in a closed loop, as a user
would.  A run first times interpreter set-up, then repeats passes over
the workload's commands while the next pass still fits in --seconds.

--trace 0 reports the end-to-end metrics (medians over passes), timed on
the host clock of bench/clock.py, which the host's speed drift does not
move.
--trace 1 alternates untraced passes with passes in which every command
runs under bench/tracer.py, and reports per-layer self times, counts and
the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A fuller record (environment, per-command times, stdout
sha256, check verdicts) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# Children and the checks both use mpmath's pure-Python backend, the
# configuration every number in ROADMAP.md was measured with.
os.environ["MPMATH_NOGMPY"] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402  (imports mpmath, so after MPMATH_NOGMPY is set)
from clock import UNIT_S, HostClock  # noqa: E402
import mpmath  # noqa: E402
import mpmath.libmp  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = (6, 3)  # before the first pass (after one warm-up), after each pass
MIN_PASSES = 2  # a median needs company; with --trace 1, one untraced and one traced
DEADLINE_S = 170.0  # the whole run, including set-up, must end within 180 s
SWAP_S = 0.1  # a running command and the host clock swap cores this often

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# metric -> the span name whose self times it sums over a pass
SPAN_TIMES = {
    "primes.arrays_at_s": "primes.arrays_at",
    "primes.bucket_s": "primes.bucket",
    "primes.direct_s": "primes.direct",
    "primes.value_s": "primes.value",
    "primes.half_s": "primes.half",
    "primes.sieve_build_s": "primes.sieve_build",
    "primes.sieve_save_s": "primes.sieve_save",
    "primes.sieve_load_s": "primes.sieve_load",
    "contour.quad_s": "contour.quad",
    "contour.nodes_s": "contour.nodes",
    "contour.discrete_s": "contour.discrete",
    "cli.import_s": "cli.import",
    "cli.serialize_s": "cli.serialize",
    "oscsum.sum_s": "oscsum.sum",
    "oscsum.index_range_s": "oscsum.index_range",
    "oscsum.bound_s": "oscsum.bound",
    "oscsum.fit_s": "oscsum.fit",
    "partition.grow_s": "partition.grow",
    "partition.checksum_s": "partition.checksum",
    "pte.verify_s": "pte.verify",
    "pte.detect_degree_s": "pte.detect_degree",
}
LAYERS = ["process", "cli", "numerics", "partition", "oscsum", "primes", "pte", "contour"]


def per_layer_names() -> list:
    """(name, unit) of every --trace 1 metric, in report order."""
    names = [(m, "s") for m in SPAN_TIMES]
    names += [("primes.sieve_entries", "count"), ("primes.cutoffs", "count"),
              ("primes.coeffs", "count"), ("contour.evals", "count"),
              ("contour.levels_max", "count"), ("contour.us_per_eval", "us"),
              ("oscsum.terms", "count"), ("oscsum.us_per_term", "us"),
              ("numerics.bits_max", "bits")]
    names += [("%s.self_s" % layer, "s") for layer in LAYERS]
    names += [("%s.share_pct" % layer, "%") for layer in LAYERS]
    names += [("startup.share_pct", "%"), ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return names


# ---------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, cwd: Path, env: dict, stdout, clock, deadline: float) -> tuple:
    """Run one process to completion; (wall seconds, seconds on the host
    clock, exit code, peak RSS in MB of that process alone, from wait4's
    rusage).  While it runs, it and the clock swap cores every SWAP_S.  A
    process still running at the deadline is killed and reported as exit
    code -9."""
    clock.swap()
    t0 = time.perf_counter()
    c0 = clock.read()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout,
                            stderr=subprocess.DEVNULL)
    done = threading.Event()

    def mind():
        while not done.wait(SWAP_S):
            if time.perf_counter() >= deadline:
                proc.kill()
                return
            clock.swap(proc.pid)

    minder = threading.Thread(target=mind)
    minder.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        done.set()
        minder.join()
    wall = time.perf_counter() - t0
    host = clock.read() - c0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, host, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(n: int, work: Path, env: dict, clock, deadline: float) -> list:
    """Host-clock times of n fresh interpreters that import cancelsum.cli,
    build the parser and parse (--help)."""
    argv = [sys.executable, "-m", "cancelsum.cli", "--help"]
    times = []
    for _ in range(n):
        _, host, rc, _ = spawn(argv, work, env, subprocess.DEVNULL, clock, deadline)
        if rc != 0:
            raise RuntimeError("cancelsum.cli --help exited %d" % rc)
        times.append(host)
    return times


def run_pass(commands: list, work: Path, env: dict, traced: bool, clock,
             deadline: float) -> dict:
    """One pass over the workload: each command in its own process.  The
    pass's wall_s and host_s sum its commands' times (the runner's own
    bookkeeping between commands is not in them)."""
    cache = work / workloads.SIEVE_CACHE
    if cache.exists():
        cache.unlink()  # every pass starts with a cold sieve cache
    results = []
    for i, cmd in enumerate(commands):
        out_path = work / ("out%02d.txt" % i)
        spans_path = work / ("spans%02d.json" % i)
        if traced:
            spans_path.unlink(missing_ok=True)  # never read an earlier pass's spans
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path)] + list(cmd.args)
        else:
            argv = [sys.executable, "-m", "cancelsum.cli"] + list(cmd.args)
        t_spawn = time.perf_counter()
        with open(out_path, "wb") as fh:
            wall, host, rc, rss = spawn(argv, work, env, fh, clock, deadline)
        out = out_path.read_bytes()
        res = {"label": cmd.label, "wall_s": wall, "host_s": host, "rc": rc, "rss_mb": rss,
               "stdout": out, "sha256": hashlib.sha256(out).hexdigest()}
        if traced and spans_path.exists():
            spans_json, dump_s = spans_path.read_text().splitlines()
            res["spans"] = json.loads(spans_json)["spans"]
            res["dump_s"] = float(dump_s)
            res["proc"] = (t_spawn, t_spawn + wall)
        results.append(res)
        if rc == -9:
            break
    return {"wall_s": sum(r["wall_s"] for r in results),
            "host_s": sum(r["host_s"] for r in results), "traced": traced, "commands": results}


# ------------------------------------------------------------------- checks


def verify_pass(commands: list, p: dict) -> int:
    """Cross-check every command of a pass; returns the failure count,
    counting commands a killed pass never reached."""
    shared = {}
    failed = 0
    for cmd, res in zip(commands, p["commands"]):
        reason = checks.check(cmd, res["rc"], res["stdout"].decode("utf-8", "replace"), shared)
        res["check"] = reason or "ok"
        failed += reason is not None
    return failed + len(commands) - len(p["commands"])


# -------------------------------------------------------------------- trace


def trace_metrics(p: dict) -> dict:
    """Per-layer numbers of one traced pass: self time per span name and
    layer (a span's duration minus its direct children), counts, and
    shares of the traced pass's wall time."""
    self_by_name, counts, inclusive = {}, {}, {}
    for res in p["commands"]:
        if "spans" not in res:  # killed before it could write them
            continue
        spans = res["spans"]
        child = [0.0] * len(spans)
        top = 0.0
        for name, start, end, parent, _ in spans:
            if parent is None:
                top += end - start
            else:
                child[parent] += end - start
        proc_start, proc_end = res["proc"]
        self_by_name["process"] = (self_by_name.get("process", 0.0)
                                   + (proc_end - proc_start) - top - res["dump_s"])
        for i, (name, start, end, parent, cnt) in enumerate(spans):
            self_by_name[name] = self_by_name.get(name, 0.0) + (end - start) - child[i]
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            for key, value in (cnt or {}).items():
                if key in ("levels_max", "bits"):
                    counts[key] = max(counts.get(key, 0), value)
                else:
                    counts[key] = counts.get(key, 0) + value
    wall = p["wall_s"]
    m = {metric: self_by_name.get(span, 0.0) for metric, span in SPAN_TIMES.items()}
    m["primes.sieve_entries"] = counts.get("sieve_entries", 0)
    m["primes.cutoffs"] = counts.get("cutoffs", 0)
    m["primes.coeffs"] = counts.get("coeffs", 0)
    m["contour.evals"] = counts.get("evals", 0)
    m["contour.levels_max"] = counts.get("levels_max", 0)
    m["contour.us_per_eval"] = (1e6 * inclusive.get("contour.quad", 0.0) / m["contour.evals"]
                                if m["contour.evals"] else 0.0)
    m["oscsum.terms"] = counts.get("terms", 0)
    m["oscsum.us_per_term"] = (1e6 * inclusive.get("oscsum.sum", 0.0) / m["oscsum.terms"]
                               if m["oscsum.terms"] else 0.0)
    m["numerics.bits_max"] = counts.get("bits", 0)
    for layer in LAYERS:
        t = sum(v for name, v in self_by_name.items() if name.split(".")[0] == layer)
        m["%s.self_s" % layer] = t
        m["%s.share_pct" % layer] = 100.0 * t / wall
    startup = self_by_name.get("process", 0.0) + self_by_name.get("cli.import", 0.0)
    m["startup.share_pct"] = 100.0 * startup / wall
    m["trace.wall_s"] = wall
    return m


# -------------------------------------------------------------- environment


def git_commit() -> str:
    """HEAD of the checkout read from .git directly (no git process, so
    nothing outside the checkout is consulted)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2_installed": importlib.util.find_spec("gmpy2") is not None,
        "numpy": version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# --------------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r; choose from %s" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "cancelsum" / "cli.py").is_file():
        print("no cancelsum sources under %s; run from a source checkout" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    # a terminated run unwinds, so it stops the clock and the running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.perf_counter() + DEADLINE_S
    commands = workloads.generate(args.workload, args.seed)
    work = BENCH / "_work" / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    env_record = environment(args.seed)  # before the clock takes a core
    try:
        with HostClock() as clock:
            # the first interpreter may write bytecode caches: not a sample
            setup = measure_setup(1 + SETUP_SAMPLES[0], work, env, clock, deadline)[1:]
            passes = []
            failed = attempted = 0
            t_begin = time.perf_counter()
            longest = 0.0
            while True:
                traced = bool(args.trace) and len(passes) % 2 == 1
                t_pass = time.perf_counter()
                p = run_pass(commands, work, env, traced, clock, deadline)
                attempted += len(commands)
                failed += verify_pass(commands, p)
                passes.append(p)
                # spread over the run, set-up samples see more than one moment's load
                setup += measure_setup(SETUP_SAMPLES[1], work, env, clock, deadline)
                longest = max(longest, time.perf_counter() - t_pass)
                now = time.perf_counter()
                need_more = len(passes) < MIN_PASSES
                fits = now + longest <= min(t_begin + args.seconds, deadline)
                if not (need_more or fits) or now + longest > deadline:
                    break
            host_speed = clock.speed()
            ticking = clock.ticking
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        per_pass = [trace_metrics(p) for p in traced]
        metrics = {name: median([m[name] for m in per_pass]) for name, _ in per_layer_names()
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (median([p["host_s"] for p in traced])
                                       - median([p["host_s"] for p in plain]))
        units = dict(per_layer_names())
    else:
        # times on the host clock (bench/clock.py), which the host's drift
        # does not move
        metrics = {
            "wall_s": median([p["host_s"] for p in plain]),
            "setup_s": median(setup),
            "peak_rss_mb": median([max(c["rss_mb"] for c in p["commands"]) for p in plain]),
        }
        units = dict(END_TO_END)

    per_command = {}
    for p in plain:
        for c in p["commands"]:
            per_command.setdefault(c["label"], []).append((c["wall_s"], c["host_s"]))
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_record,
        "clock": {"host_clock": ticking, "unit_s": UNIT_S, "host_speed": host_speed},
        "setup_samples_s": setup,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "host_s": p["host_s"],
                    "commands": [{k: c[k] for k in ("label", "wall_s", "host_s", "rc", "rss_mb",
                                                    "sha256", "check")}
                                 for c in p["commands"]]}
                   for p in passes],
        "commands": [{"label": c.label, "args": list(c.args)} for c in commands],
        "metrics": metrics,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1) + "\n")

    for label, times in per_command.items():
        print("%-34s median %8.3f s wall, %8.3f s host clock, over %d pass(es)"
              % (label, median([w for w, _ in times]), median([h for _, h in times]), len(times)))
    for p in passes:
        for c in p["commands"]:
            if c["check"] != "ok":
                print("FAILED %s: %s" % (c["label"], c["check"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
