"""Benchmark for toricurves: run one workload, check its answers, print its
metrics.

    python3 perfbench/run.py --workload convergence --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it puts ``src`` on PYTHONPATH
for the processes it starts.  One client issues one op at a time (a
closed loop, ``jobs=1``, the default budget).  A run repeats whole rounds
of the workload until ``--seconds`` have passed (at least one round, three
on ``cli``); each library round runs in a fresh interpreter, so the
library's caches start cold, and each ``cli`` op is a fresh
``python -m toricurves.cli`` process.
Every time is reported in seconds at a reference machine speed, scaled
by a fixed probe run beside the timed work (speed.py), and the run keeps
to one CPU so that the probe and the work share it.
With ``--trace 1`` it runs one untraced and one traced round and prints
the per-layer metrics.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; raw round records
and span dumps go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

import speed
import tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent
WORKER = str(HERE / "worker.py")
CLIOP = str(HERE / "cliop.py")
SETUP_PROBES = 11
# cli ops are short single processes whose latency swings by a fifth with
# the machine's speed, so a cli run makes at least three rounds
MIN_ROUNDS = {"cli": 3}
TIMEOUT_S = 170
TAIL_BEYOND = 10  # ops above the tail percentile
CLI_IMPORT = ("import json, time, toricurves.cli; "
              "print(json.dumps({'ready': time.monotonic()}))")


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts the benchmark's processes, one at a time, and waits for each."""

    def __init__(self, root: pathlib.Path):
        self.root = root
        self.out = root / "perfbench" / "out"
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return speed.run_watched(argv, TIMEOUT_S, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True,
                                 env=self.env, cwd=self.root)

    def record(self, argv: list[str]) -> dict:
        """Run a worker and read the JSON record it prints last."""
        proc = self.run(argv)
        if proc.returncode != 0:
            raise BenchError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setups(self, workload: str) -> dict:
        """Seconds from starting an interpreter to the workload's first op,
        ``SETUP_PROBES`` times, each after a spawned speed probe."""
        if workload == "cli":
            argv = [sys.executable, "-c", CLI_IMPORT]
        else:
            argv = [sys.executable, WORKER, "setup", workload]
        starts, times, probes = [], [], []
        for _ in range(SETUP_PROBES):
            probes.append(speed.spawn_probe(str(HERE)))
            spawned, t0 = time.monotonic(), time.perf_counter()
            starts.append(t0)
            times.append(self.record(argv)["ready"] - spawned)
        probes.append(speed.spawn_probe(str(HERE)))
        return {"starts": starts, "latencies": times, "probes": probes,
                "scaled": speed.scaled(probes, speed.SPAWN_NOMINAL_S, starts, times)}

    def library_round(self, workload: str, seed: int, trace: bool) -> dict:
        argv = [sys.executable, WORKER, "round", workload, "--seed", str(seed)]
        if trace:
            argv += ["--trace", str(self.out)]
        return self.record(argv)

    def cli_round(self, argv_by_slug: dict, seed: int, trace: bool) -> dict:
        """Each command in a fresh process that runs the speed sampler and
        writes its probes (and, traced, its spans) to ``op.json``."""
        op_file = self.out / "op.json"
        starts, latencies, probes = [], [], []
        errors, failures, totals, main_s, outputs = [], [], [], {}, {}
        order = workloads.shuffled(list(argv_by_slug), seed)
        for slug in order:
            argv = argv_by_slug[slug] + ["--format", "json"]
            if trace:
                cmd = [sys.executable, WORKER, "cli", str(op_file), "--", *argv]
            else:
                cmd = [sys.executable, CLIOP, str(op_file), *argv]
            op_file.unlink(missing_ok=True)
            t0 = time.perf_counter()
            proc = self.run(cmd)
            elapsed = time.perf_counter() - t0
            try:
                doc = json.loads(op_file.read_text())
                if proc.returncode != 0:
                    raise ValueError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
                output = json.loads(proc.stdout)
            except (OSError, ValueError) as exc:
                errors.append(f"{slug}: {exc}")
                continue
            finally:
                starts.append(t0)
                latencies.append(elapsed)
            latencies[-1] -= doc["busy_s"]
            probes += doc["probes"]
            outputs[slug] = output
            if trace:
                totals.append(doc["totals"])
                main_s[slug] = doc["main_s"]
                op_file.rename(self.out / f"spans-cli-{slug}-seed{seed}.json")
        for slug, output in outputs.items():
            failures += workloads.check_cli(slug, output)
        return {"starts": starts, "latencies": latencies, "probes": probes,
                "attempted": len(order),
                "failed": len(errors), "errors": errors, "check_failures": failures,
                "totals": tracing.merge(totals), "main_s": main_s, "outputs": outputs}


def tail(latencies: list[float]) -> float:
    """The highest percentile with at least TAIL_BEYOND ops above it; with
    fewer than four times that many ops (the cli workload) the slowest op."""
    ordered = sorted(latencies)
    if len(ordered) < 4 * TAIL_BEYOND:
        return ordered[-1]
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def scaled(rnd: dict) -> list[float]:
    """The round's op latencies in seconds at the reference speed."""
    return speed.scaled(rnd["probes"], speed.NOMINAL_S, rnd["starts"], rnd["latencies"])


def end_to_end(rounds: list[dict], setups: dict) -> dict:
    """A round's wall time is the sum of its ops' scaled latencies; each
    op's latency is its median over the rounds, which all issue the ops in
    the same order, and p50 and tail are taken over those."""
    med = statistics.median
    by_round = [scaled(r) for r in rounds]
    per_op = [med(lats) for lats in zip(*by_round)]
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "wall_s": (med(sum(lats) for lats in by_round), "s"),
        "op_p50_ms": (1000 * med(per_op), "ms"),
        "op_tail_ms": (1000 * tail(per_op), "ms"),
        "setup_s": (med(setups["scaled"]), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(workload: str, plain: dict, traced: dict, setups: dict) -> dict:
    extra = {"trace.overhead_s": sum(scaled(traced)) - sum(scaled(plain))}
    if workload == "cli":
        extra["cli.start_s"] = statistics.median(setups["scaled"])
        extra.update({f"cli.main_s.{k}": v for k, v in traced["main_s"].items()})
    return tracing.per_layer_metrics(traced["totals"], extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.LIBRARY) + ["cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "toricurves" / "__init__.py").is_file():
        print("perfbench: run from the root of a toricurves checkout "
              "(src/toricurves is missing)", file=sys.stderr)
        return 2
    # a spawned probe must share a CPU with the set-up it scales
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = Runner(root)
    runner.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "cli":
        argv_by_slug = workloads.cli_setup(root, runner.out)

        def one_round(trace):
            return runner.cli_round(argv_by_slug, args.seed, trace)
    else:
        def one_round(trace):
            return runner.library_round(args.workload, args.seed, trace)

    try:
        setups = runner.setups(args.workload)
        if args.trace:
            rounds = [one_round(False), one_round(True)]
        else:
            rounds, start = [], time.monotonic()
            least = MIN_ROUNDS.get(args.workload, 1)
            while len(rounds) < least or time.monotonic() - start < args.seconds:
                rounds.append(one_round(False))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    raw = runner.out / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"setups": setups, "rounds": rounds}))
    for r in rounds:
        for line in r["errors"] + r["check_failures"]:
            print(f"perfbench: {line}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(args.workload, rounds[0], rounds[1], setups)
    else:
        metrics = end_to_end(rounds, setups)
    print(json.dumps({
        "correct": not any(r["check_failures"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
