"""Smoke tests: each experiment script runs to its success line or
refuses with an error line."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from reference import load_oracle_gate
from toricurves.cli import EXIT_INTERNAL, EXIT_USAGE
from toricurves.errors import InternalCheckError

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


@pytest.mark.parametrize("script, args, message", [
    ("oracle_gate.py", ["--primes", "11"], "error: prime must be one of"),
    ("oracle_gate.py", ["--budget", "-1"], "error: budget -1 from"),
    ("oracle_gate.py", ["--fans", "p1", "--limit", "-1"],
     "error: --limit must be nonnegative"),
    ("constrained_trend.py", ["p2", "--p", "4"], "error: prime must be one of"),
    ("constrained_trend.py", ["p2", "--point", "1:1:1"],
     "error: point (1, 1, 1) does not have two coordinates"),
    ("constrained_trend.py", ["nowhere"], "error: cannot read fan description"),
    ("convergence_sweep.py", ["p2", "--order", "-1"],
     "error: --order must be nonnegative"),
    ("convergence_sweep.py", ["nowhere"], "error: cannot read fan description"),
    ("oracle_gate.py", ["--fans", "p1", "--generated", "-1"],
     "error: --generated must be nonnegative"),
])
def test_script_refuses_bad_input(script, args, message):
    """Each ended in a traceback with exit status 1; now each refuses as
    the CLI does, with its error line, exit status 2 and no output."""
    proc = run_script(script, *args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(message), proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("script, args, message", [
    ("oracle_gate.py", ["--fans"], "expected at least one argument"),
    ("oracle_gate.py", ["--primes"], "expected at least one argument"),
    ("oracle_gate.py", ["--fans", "nowhere"], "invalid choice: 'nowhere'"),
    ("oracle_gate.py", ["--budget", "1_0"], "invalid int value: '1_0'"),
    ("constrained_trend.py", ["p2", "--p", "3_0"], "invalid int value: '3_0'"),
    ("convergence_sweep.py", ["p2", "--order", " 4"], "invalid int value"),
])
def test_script_refuses_bad_options(script, args, message):
    """An empty --fans or --primes gated nothing and printed "ok", and
    int() read "1_0" as 10: the CLI's parser now refuses each, with the
    CLI's usage status 1, not the validation status 2."""
    proc = run_script(script, *args)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert message in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_oracle_gate_sweeps_generated_fans():
    """--generated N gates the generated fans 0..N-1 after the fixtures,
    each at its default entry box, and exits 0 when all agree."""
    proc = run_script("oracle_gate.py", "--fans", "p1", "--primes", "2",
                      "--generated", "3")
    assert proc.returncode == 0, proc.stderr
    names = [line.split(":")[0].strip() for line in proc.stdout.splitlines()]
    assert names == ["p1", "g0", "g1", "g2"], proc.stdout
    assert proc.stdout.count("s  ok") == 4, proc.stdout


def test_oracle_gate_exits_1_on_a_mismatch(monkeypatch, capsys):
    """A generated fan whose prediction is off by one is a mismatch:
    its line names it and the gate exits 1."""
    gate = load_oracle_gate()
    compare = gate.oracle_compare

    def off_by_one(p, fan, **kwargs):
        rep = compare(p, fan, **kwargs)
        if fan.nrays > 2:  # g0, not p1
            rep = dataclasses.replace(rep, predicted=rep.predicted + 1,
                                      equal=False)
        return rep

    monkeypatch.setattr(gate, "oracle_compare", off_by_one)
    assert gate.main(["--fans", "p1", "--primes", "2", "--limit", "0",
                      "--generated", "1"]) == 1
    out = capsys.readouterr().out
    assert "    p1: 1 config + 1 hom counts" in out and "  ok" in out
    assert "g0: 1 config + 1 hom counts" in out and "2 MISMATCHES" in out


def test_oracle_gate_fails_its_internal_checks_as_the_cli_does(
        monkeypatch, capsys):
    """A failed internal check exits 4 with the CLI's line."""
    gate = load_oracle_gate()

    def tripwire(*args, **kwargs):
        raise InternalCheckError("gate tripwire")

    monkeypatch.setattr(gate, "oracle_compare", tripwire)
    assert gate.main(["--fans", "p1"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal check failed: gate tripwire\n"
