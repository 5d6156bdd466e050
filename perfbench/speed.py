"""The machine's speed while a run measures, from fixed probes.

The benchmark's machine shares its cores with other tenants, and the
speed of a fixed piece of Python moves by a third or more within
seconds.  So the benchmark measures the speed beside the work it times,
with a fixed probe of the kinds of work the program does (dict updates
on tuple keys, bit arithmetic, a Laurent-polynomial product), and
``scaled`` turns each measured time into seconds at the reference speed:
the speed at which the probe takes its nominal time.

- ``Sampler`` runs ``probe`` inside the process that does the timed
  work, from an interval-timer signal every ``PROBE_EVERY_S``, so it
  sees the speed during an op and not only between ops.  The time the
  probes take is taken out of every latency.  Library rounds run under
  it, and so does every ``cli`` command (``cliop.py``).
- ``spawn_probe`` starts a fresh interpreter that runs the probe and
  times it from start to exit.  It scales the set-up probes, which are
  fresh processes of 0.2 s whose time goes mostly into starting up.

The probes never call the program, so a change to the program moves the
scaled times exactly as it moves the measured ones.  Only ``signal`` and
``time`` are imported at module level: a ``cli`` command imports this
module, and its start-up time is measured.
"""

from __future__ import annotations

import signal
import time

NOMINAL_S = 0.0025  # one probe at the reference speed
SPAWN_NOMINAL_S = 0.085  # one spawned probe at the reference speed
PROBE_EVERY_S = 0.1
WINDOW_S = 0.5  # probes this far before or after an op set its scale
_LAURENT = {e: (e * 7) % 11 - 5 for e in range(-6, 7)}


def probe() -> float:
    """Seconds for one fixed piece of work."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 1
    for i in range(2000):
        key = (i & 255, acc & 15)
        acc = (acc * 31 + table.get(key, i)) % 1_000_003
        table[key] = acc
    for m in range(1000):
        v = m * 0x9E3779B1 & 0xFFFFFFFF
        acc += bin(v).count("1") + (v >> 3 & m)
    x = _LAURENT
    for _ in range(4):
        c: dict = {}
        for e1, v1 in x.items():
            for e2, v2 in _LAURENT.items():
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        x = {e: v for e, v in c.items() if e > -30}
    return time.perf_counter() - t0


class Sampler:
    """Probes taken every ``PROBE_EVERY_S`` from a SIGALRM handler, which
    Python runs in the main thread between two bytecodes of the timed
    work; and one probe as it starts and one as it stops."""

    def __init__(self):
        self.probes: list = []  # [start, seconds]
        self.busy_s = 0.0  # all time spent in probes, warm-up included

    def _probe(self, *_):
        t0 = time.perf_counter()
        self.probes.append([t0, probe()])
        self.busy_s += time.perf_counter() - t0

    def start(self) -> None:
        t0 = time.perf_counter()
        probe()  # warms a fresh process up
        self.busy_s += time.perf_counter() - t0
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def inside(self, start: float, end: float) -> float:
        """Seconds of probes that began within [start, end)."""
        return sum(s for t, s in self.probes if start <= t < end)


def scaled(probes: list, nominal: float, starts: list, latencies: list) -> list:
    """Each latency in seconds at the reference speed, scaled by the median
    of the probes within ``WINDOW_S`` of it (or by the nearest probe)."""
    import statistics

    out = []
    for start, lat in zip(starts, latencies):
        end = start + lat
        near = [s for t, s in probes if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(probes, key=lambda p: min(abs(p[0] - start), abs(p[0] - end)))[1]]
        out.append(lat * nominal / statistics.median(near))
    return out


def run_watched(argv: list, timeout: float, **popen):
    """``subprocess.run`` with a watchdog thread in place of a timeout:
    waiting with a timeout polls at up to 50 ms intervals, which would
    round every measured end up to the next poll."""
    import subprocess
    import threading

    expired = threading.Event()

    def expire():
        expired.set()
        proc.kill()

    with subprocess.Popen(argv, **popen) as proc:
        watchdog = threading.Timer(timeout, expire)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    if expired.is_set():
        raise subprocess.TimeoutExpired(argv, timeout)
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


SPAWN_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import speed; "
               "speed.probe(); speed.probe()")


def spawn_probe(here: str) -> list:
    """``[start, seconds]`` of a fresh interpreter that imports this module
    from ``here`` and runs the probe twice."""
    import subprocess
    import sys

    t0 = time.perf_counter()
    proc = run_watched([sys.executable, "-c", SPAWN_PROBE, here], 60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return [t0, elapsed]
