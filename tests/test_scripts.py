"""Smoke tests: each experiment script runs to its success line."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, success",
    [
        ("convergence_sweep.py", ["dp6", "--box", "2", "--order", "8"],
         "all 10 reports pass"),
        ("oracle_gate.py", ["--fans", "p2"], "s  ok"),
        ("constrained_trend.py", ["p2", "--p", "3", "--kmax", "1"],
         "main term:"),
        ("oracle_gate.py", ["--fans", "p3", "--primes", "5", "7", "--limit", "2"],
         "s  ok"),
        ("convergence_sweep.py", ["dp6", "--box", "2", "--order", "64"],
         "all 10 reports pass"),
    ],
)
def test_script_runs(script, args, success):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert success in proc.stdout, proc.stdout
