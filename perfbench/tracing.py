"""Per-module spans and counts for the traced run, from outside the program.

``install`` wraps the public functions of each ``toricurves`` module in
every module namespace that holds them, so calls made through
``from .x import f`` are caught too.  Spans (name, start, end, parent)
are kept in memory and summed by ``aggregate`` when the process ends.
Untraced runs never call ``install``.
"""

from __future__ import annotations

import functools
import math
import sys
import time

from workloads import CLI_COMMANDS

# (span name, module, attribute); one span name may cover several functions
SPANNED = (
    ("grothendieck.evaluate", "toricurves.grothendieck", "evaluate"),
    ("toric.validate", "toricurves.toric", "validate"),
    ("toric.pattern_set", "toricurves.toric", "pattern_set"),
    ("mobius.mobius_table", "toricurves.mobius", "mobius_table"),
    ("eulerprod.euler_product_p1", "toricurves.eulerprod", "euler_product_p1"),
    ("eulerprod.euler_product_at_Linv", "toricurves.eulerprod", "euler_product_at_Linv"),
    ("eulerprod.global_mobius", "toricurves.eulerprod", "global_mobius"),
    ("moduli.pattern_config_class", "toricurves.moduli", "pattern_config_class"),
    ("moduli.tamagawa", "toricurves.moduli", "tamagawa"),
    ("moduli.convergence_report", "toricurves.moduli", "convergence_report"),
    ("moduli.hom_class", "toricurves.moduli", "hom_class"),
    ("moduli.constrained_main_term", "toricurves.moduli", "constrained_main_term"),
    ("oracle.count", "toricurves.oracle", "ff_pattern_count"),
    ("oracle.count", "toricurves.oracle", "ff_hom_count"),
    ("oracle.constrained", "toricurves.oracle", "ff_constrained_count"),
)

# per-layer metric -> unit, in the order of BENCHMARK.json
PER_LAYER = {
    "grothendieck.laurent_mul.calls": "count",
    "grothendieck.evaluate.s": "s",
    "toric.validate.s": "s",
    "toric.validate.calls": "count",
    "toric.pattern_set.s": "s",
    "mobius.mobius_table.s": "s",
    "mobius.mobius_table.calls": "count",
    "eulerprod.euler_product_p1.self_s": "s",
    "eulerprod.euler_product_p1.calls": "count",
    "eulerprod.euler_product_p1.terms": "count",
    "eulerprod.euler_product_at_Linv.s": "s",
    "eulerprod.global_mobius.calls": "count",
    "moduli.pattern_config_class.self_s": "s",
    "moduli.pattern_config_class.calls": "count",
    "moduli.tamagawa.s": "s",
    "moduli.convergence_report.s": "s",
    "moduli.hom_class.calls": "count",
    "moduli.constrained_main_term.s": "s",
    "oracle.count.s": "s",
    "oracle.count.calls": "count",
    "oracle.count.pairs_s": "s",
    "oracle.count.wide_s": "s",
    "oracle.tuples": "count",
    "oracle.tuples_per_s": "1/s",
    "oracle.constrained.s": "s",
    "cli.start_s": "s",
    **{f"cli.main_s.{slug}": "s" for slug, _ in CLI_COMMANDS},
    "trace.overhead_s": "s",
}


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        # [name, start, end, parent index, outermost of its name, extra]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def wrap(self, name, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            outer = not self._open.get(name)
            span = [name, 0.0, 0.0, parent, outer, None]
            self.spans.append(span)
            self._stack.append(idx)
            self._open[name] = self._open.get(name, 0) + 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted


def _terms_extra(args, kwargs, result):
    return {"terms": len(result.coeffs)}


def install(recorder: Recorder) -> None:
    """Swap every traced function for its wrapper in all toricurves modules."""
    import toricurves.cli  # noqa: F401  (loads every module of the package)
    from toricurves.grothendieck import LaurentClass
    from toricurves.toric import pattern_set

    def oracle_extra(args, kwargs, result):
        """Tuples the budget measures, and the counting path the fan takes."""
        p, fan, vec = args[0], args[1], args[2]
        tuples = math.prod((p ** (x + 1) - 1) // (p - 1) for x in vec)
        pairs = all(len(j) == 2 for j in pattern_set(fan).minimal)
        return {"tuples": tuples, "kind": "pairs" if pairs else "wide"}

    modules = [m for n, m in sys.modules.items()
               if n == "toricurves" or n.startswith("toricurves.")]
    extras = {"oracle.count": oracle_extra,
              "eulerprod.euler_product_p1": _terms_extra}
    for name, modname, attr in SPANNED:
        original = getattr(sys.modules[modname], attr)
        wrapper = recorder.wrap(name, original, extras.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    mul = recorder.counter("grothendieck.laurent_mul.calls", LaurentClass.__mul__)
    LaurentClass.__mul__ = mul
    LaurentClass.__rmul__ = mul


def aggregate(recorder: Recorder) -> dict:
    """Sum the spans of one process into totals that add across processes.

    ``<name>.s`` sums outermost spans of a name, ``<name>.self_s`` sums
    each span's duration minus that of its direct children, and
    ``<name>.calls`` counts outermost spans.
    """
    child_time = [0.0] * len(recorder.spans)
    for name, start, end, parent, outer, extra in recorder.spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = dict(recorder.counts)

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for idx, (name, start, end, parent, outer, extra) in enumerate(recorder.spans):
        dur = end - start
        add(f"{name}.self_s", dur - child_time[idx])
        if outer:
            add(f"{name}.s", dur)
            add(f"{name}.calls", 1)
            if extra and "terms" in extra:
                add(f"{name}.terms", extra["terms"])
            if extra and "kind" in extra:
                add(f"{name}.{extra['kind']}_s", dur)
                add("oracle.tuples", extra["tuples"])
    return totals


def merge(parts: list[dict]) -> dict:
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    return out


def per_layer_metrics(totals: dict, extra: dict) -> dict:
    """Pick the per-layer metrics out of merged totals; absent ones read 0."""
    values = dict(totals)
    count_s = values.get("oracle.count.s", 0.0)
    values["oracle.tuples_per_s"] = (
        values.get("oracle.tuples", 0) / count_s if count_s else 0.0)
    values.update(extra)
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER.items()}


def span_dump(recorder: Recorder) -> dict:
    return {"spans": [
        {"name": n, "start": s, "end": e, "parent": p, **(x or {})}
        for n, s, e, p, _, x in recorder.spans
    ], "counts": recorder.counts}
