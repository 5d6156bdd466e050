"""Run one toricurves CLI command as ``python -m toricurves.cli`` does,
with the speed sampler of speed.py running inside it.

    python3 perfbench/cliop.py PROBES.json tamagawa dp6 --order 12 --format json

The command's output, errors and exit code are its own.  When it ends,
the probes it ran and the time they took go to PROBES.json, so that the
runner can scale the command's latency and take the probes out of it.
"""

import json
import runpy
import sys

import speed


def main() -> None:
    path, argv = sys.argv[1], sys.argv[2:]
    sys.argv = [sys.argv[0], *argv]
    sampler = speed.Sampler()
    sampler.start()
    try:
        runpy.run_module("toricurves.cli", run_name="__main__", alter_sys=True)
    finally:
        sampler.stop()
        with open(path, "w") as f:
            json.dump({"probes": sampler.probes, "busy_s": sampler.busy_s}, f)


if __name__ == "__main__":
    main()
