"""bench/tracer.py reads counts off the values that traced functions
return; psi-sum's `coeffs` count is len() of what lambda_coefficients
returns.  A change of that type must fail here rather than in a
`bench/run.py --trace 1` run.  The tracer also looks every wrapped
module up in sys.modules right after importing the CLI, so the package
must register each submodule there, whether a command uses it or not."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cancelsum import cli, lambda_coefficients

ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_tracer_psi_sum_spans(tmp_path, capsys, sieve600):
    argv = ["psi-sum", "--x", "40", "--T", "3000"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    spans_out = tmp_path / "spans.json"
    env = _env()
    tracer = [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans_out)]
    proc = subprocess.run(tracer + argv, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == untraced
    spans = json.loads(spans_out.read_text().splitlines()[0])["spans"]
    names = [span[0] for span in spans]
    assert "primes.bucket" in names and "primes.value" in names
    (counts,) = [span[4] for span in spans if span[0] == "primes.value"]
    assert counts["coeffs"] == len(lambda_coefficients(40, 3000, sieve600)) > 0


@pytest.mark.parametrize("argv, span", [
    (["pigeonhole", "--n", "10", "--k", "2"], "pte.pigeonhole"),
    (["psi-sum", "--x", "20", "--T", "100"], "primes.psi_sum"),
], ids=["pigeonhole", "psi-sum"])
def test_tracer_wraps_lazily_loaded_modules(tmp_path, argv, span):
    # install() runs after `import cancelsum.cli` and looks every wrapped
    # module up in sys.modules, including those the command never uses
    env = _env()
    plain = subprocess.run([sys.executable, "-m", "cancelsum.cli"] + argv, cwd=tmp_path,
                           env=env, capture_output=True, text=True, timeout=120)
    assert plain.returncode == 0, plain.stderr
    spans_out = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"),
                             str(spans_out)] + argv, cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    spans = json.loads(spans_out.read_text().splitlines()[0])["spans"]
    assert {"cli.import", "cli.main", span} <= {s[0] for s in spans}
