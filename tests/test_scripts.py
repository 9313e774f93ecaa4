"""Smoke tests: each script under scripts/ runs to completion and prints its
headline result."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, headline", [
    ("counterexample_tables.py", "eigenvector jump angle, n=2..10: all pi/8, spread 0.00e+00"),
    ("crossing_demo.py", "max deviation from the lines t and -t: 0.000e+00"),
    ("schrodinger_sweep.py", "tracked 51 points on [0, 1]: 0 crossings, "),
])
def test_script_runs(script, headline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith(headline) for line in proc.stdout.splitlines()), proc.stdout
