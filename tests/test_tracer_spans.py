"""bench/tracer.py reads counts off the values that traced functions
return; psi-sum's `coeffs` count is len() of what lambda_coefficients
returns.  A change of that type must fail here rather than in a
`bench/run.py --trace 1` run."""

import json
import os
import subprocess
import sys
from pathlib import Path

from cancelsum import cli, lambda_coefficients

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_psi_sum_spans(tmp_path, capsys, sieve600):
    argv = ["psi-sum", "--x", "40", "--T", "3000"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    spans_out = tmp_path / "spans.json"
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
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
