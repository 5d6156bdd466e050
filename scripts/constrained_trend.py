#!/usr/bin/env python3
"""Track jet-constrained counts against the predicted main term.

Fix one rational point and a jet order, then walk a diagonal family of
degrees: for each degree the brute-force count of maps with the
prescribed jet, normalized by p^|d|, is compared with the value of the
truncated constrained constant at L = p.  The gap is expected to
shrink as the minimal degree grows.

    python scripts/constrained_trend.py p2 --p 3 --kmax 3
    python scripts/constrained_trend.py p1 --p 5 --point 0:1 --order 1
"""

import pathlib
import sys
import time
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from toricurves.cli import _load_fan, _Parser, _refusing
from toricurves.errors import _int
from toricurves.moduli import JetCondition, constrained_main_term
from toricurves.oracle import JetSpec, ff_constrained_count, reduce_point
from toricurves.toric import eff_dual_contains


def main(argv=None):
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("fan", help="fixture name or fan JSON path")
    parser.add_argument("--p", type=_int, default=3, help="prime (default 3)")
    parser.add_argument("--point", default="1:1",
                        help="marked point x0:x1 (default 1:1)")
    parser.add_argument("--order", type=_int, default=0,
                        help="jet order m (default 0)")
    parser.add_argument("--kmax", type=_int, default=3,
                        help="diagonal degrees k*(1,...,1), k = 1..kmax")
    parser.add_argument("--euler-order", type=_int, default=16,
                        help="truncation order for the main term")
    parser.add_argument("--budget", type=_int, default=None)
    return _refusing(trend, parser.parse_args(argv))


def trend(args):
    fan = _load_fan(args.fan)
    pt = tuple(_int(tok) for tok in args.point.split(":"))
    # the prime and the point are checked before anything is printed
    jet = JetSpec.identity(fan.nrays, reduce_point(pt, args.p), args.order)
    jc = JetCondition.torus_point(pt, args.order)
    main_series = constrained_main_term(fan, jc, args.euler_order)
    main_value = main_series.known.evaluate(args.p)
    print(f"main term: {main_series}")
    print(f"value at p={args.p}: {main_value} "
          f"(~{float(main_value):.6f})")

    print(f"{'k':>2}  {'degree sum':>10}  {'count':>12}  "
          f"{'normalized':>14}  {'gap':>12}  time")
    previous = None
    for k in range(1, args.kmax + 1):
        d = (k,) * fan.nrays
        if not eff_dual_contains(fan, d):
            print(f"{k:>2}  (diagonal degree not in the dual cone; skipped)")
            continue
        start = time.perf_counter()
        count = ff_constrained_count(args.p, fan, d, jet, budget=args.budget)
        elapsed = time.perf_counter() - start
        normalized = Fraction(count, args.p ** sum(d))
        gap = abs(normalized - main_value)
        trend = ""
        if previous is not None:
            trend = "  <=" if gap <= previous else "  INCREASED"
        print(f"{k:>2}  {sum(d):>10}  {count:>12}  "
              f"{float(normalized):>14.8f}  {float(gap):>12.3e}  "
              f"{elapsed:5.1f}s{trend}")
        previous = gap
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
