"""Smoke tests: each experiment script runs to its success line or
refuses with an error line."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


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
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert success in proc.stdout, proc.stdout


def test_convergence_sweep_with_no_diagonal_degrees():
    proc = run_script("convergence_sweep.py", "p2", "--diagonal", "0")
    assert proc.returncode == 1, proc.stderr
    assert "no degrees" in proc.stdout, proc.stdout


def test_convergence_sweep_reads_a_fan_file(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text((ROOT / "src" / "toricurves" / "fans" / "p2.json").read_text())
    proc = run_script("convergence_sweep.py", str(path), "--diagonal", "2")
    assert proc.returncode == 0, proc.stderr
    assert "all 2 reports pass" in proc.stdout, proc.stdout


def test_oracle_gate_refuses_beyond_the_budget():
    proc = run_script("oracle_gate.py", "--fans", "p2", "--budget", "10")
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
