import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# each demo by the sha256 of its stdout as first recorded: every line of
# its table or trace, in a fresh interpreter as README's Demos run it
_DEMO_STDOUT = {
    "pentagonal_checksum": "c69c2ce50b3d0804202071bfc5c8f413f009333bb2506b9ad27f737ea7bace31",
    "cancellation_exponents": "534d9c4aa169b2c3da667441da97cb8616d7de979ad1637fc9363872a784a316",
    "prime_interval_halving": "85e04d3a17d8fd37326cfef2daa8911b5e3b421655e9091f85182b2844134c0b",
    "pte_power_sums": "e2052e275ccca21d1c1780f79198cac521c313e166379d5edd5dd25d443640a4",
    "residue_contour": "cf159875c6c73300997b62d68ef45e88084fe96e89e28016c2d2c43ea3da7cbc",
}


@pytest.mark.parametrize("demo", list(_DEMO_STDOUT))
def test_demo_stdout_pinned(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / (demo + ".py"))], env=env,
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == _DEMO_STDOUT[demo]
