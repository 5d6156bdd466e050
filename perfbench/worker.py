"""One round of a library workload, or one traced CLI command, in a fresh
interpreter, so that the library's caches start cold as in a user's run.

    python3 perfbench/worker.py round convergence --seed 3 [--trace DIR]
    python3 perfbench/worker.py setup oracle_gate
    python3 perfbench/worker.py cli SPANS.json -- tamagawa dp6 --order 12

``round`` and ``setup`` print one JSON record as their last line; ``cli``
prints the command's own output and writes its spans to SPANS.json.
Rounds and traced commands run under the speed sampler of speed.py, and
every latency they record has the sampler's probes taken out.
``toricurves`` must be importable (``run.py`` puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import sys
import time
import traceback

import speed
import workloads

MAX_ERRORS_SHOWN = 5


def library_round(workload: str, seed: int, trace_dir: str | None) -> dict:
    make_ops, order, check = workloads.LIBRARY[workload]
    fans = workloads.fixtures()
    ops = order(make_ops(fans), seed)
    ready = time.monotonic()
    recorder = None
    if trace_dir:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    results, starts, ends, errors = {}, [], [], []
    sampler = speed.Sampler()
    sampler.start()
    for op in ops:
        t0 = time.perf_counter()
        try:
            results[op] = workloads.run_op(fans, op)
        except Exception as exc:  # a failed op is counted, not fatal
            trace = "".join(traceback.format_exception(exc, limit=-2))
            errors.append(f"{op}: {trace}")
        starts.append(t0)
        ends.append(time.perf_counter())
    sampler.stop()
    latencies = [e - s - sampler.inside(s, e) for s, e in zip(starts, ends)]
    record = {"ready": ready, "starts": starts, "latencies": latencies,
              "probes": sampler.probes, "attempted": len(ops),
              "failed": len(errors), "errors": errors[:MAX_ERRORS_SHOWN]}
    if recorder is not None:
        record["totals"] = tracing.aggregate(recorder)
        path = pathlib.Path(trace_dir) / f"spans-{workload}-seed{seed}.json"
        path.write_text(json.dumps(tracing.span_dump(recorder)))
    record["check_failures"] = check(fans, results)
    return record


def setup_only(workload: str) -> dict:
    make_ops, order, _ = workloads.LIBRARY[workload]
    order(make_ops(workloads.fixtures()), 0)
    return {"ready": time.monotonic()}


def traced_cli(spans_path: str, argv: list[str]) -> int:
    import tracing

    recorder = tracing.Recorder()
    tracing.install(recorder)
    from toricurves import cli

    buf = io.StringIO()
    sampler = speed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    t1 = time.perf_counter()
    sampler.stop()
    doc = {"main_s": t1 - t0 - sampler.inside(t0, t1), "probes": sampler.probes,
           "busy_s": sampler.busy_s, "totals": tracing.aggregate(recorder),
           **tracing.span_dump(recorder)}
    pathlib.Path(spans_path).write_text(json.dumps(doc))
    sys.stdout.write(buf.getvalue())
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("round")
    p.add_argument("workload", choices=sorted(workloads.LIBRARY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", default=None, help="directory for the span dump")
    p = sub.add_parser("setup")
    p.add_argument("workload", choices=sorted(workloads.LIBRARY))
    p = sub.add_parser("cli")
    p.add_argument("spans")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return traced_cli(args.spans, argv)
    if args.mode == "setup":
        record = setup_only(args.workload)
    else:
        record = library_round(args.workload, args.seed, args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
