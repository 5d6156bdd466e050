#!/usr/bin/env python3
"""Sweep convergence reports over a family of degrees.

For one fan, walk the degrees of the dual effective cone inside one of
two families (the diagonal ray, or every cone point in a box) and
tabulate how far each normalized map-space class sits from the
truncated limiting constant.

Typical runs:

    python scripts/convergence_sweep.py p2 --diagonal 6
    python scripts/convergence_sweep.py dp6 --box 3 --order 12 --json out.json
"""

import itertools
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from toricurves.cli import _load_fan, _nonnegative, _Parser, _refusing
from toricurves.errors import _int
from toricurves.grothendieck import MINUS_INFINITY
from toricurves.moduli import convergence_report
from toricurves.toric import eff_dual_contains


def diagonal_family(fan, kmax):
    for k in range(1, kmax + 1):
        d = (k,) * fan.nrays
        if eff_dual_contains(fan, d):
            yield d


def box_family(fan, top):
    for d in itertools.product(range(1, top + 1), repeat=fan.nrays):
        if eff_dual_contains(fan, d):
            yield d


def main(argv=None):
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("fan", help="fixture name or fan JSON path")
    parser.add_argument("--order", type=_int, default=12,
                        help="Euler-product truncation order (default 12)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--diagonal", type=_int, metavar="K",
                       help="degrees k*(1,...,1) for k = 1..K")
    group.add_argument("--box", type=_int, metavar="T",
                       help="all cone degrees with entries in [1, T]")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="also dump the reports to this file")
    return _refusing(sweep, parser.parse_args(argv))


def sweep(args):
    _nonnegative("--order", args.order)
    fan = _load_fan(args.fan)
    if args.box is not None:
        degrees = list(box_family(fan, args.box))
    else:
        kmax = 6 if args.diagonal is None else args.diagonal
        degrees = list(diagonal_family(fan, kmax))
    if not degrees:
        print("no degrees in the dual effective cone for this family")
        return 1

    rows = []
    width = max(len(str(list(d))) for d in degrees)
    print(f"{'degree':<{width}}  {'min':>3}  {'delta_dim':>9}  "
          f"{'bound':>7}  status")
    worst = None
    for d in degrees:
        rep = convergence_report(fan, d, args.order)
        rows.append(rep.to_json())
        delta = "-inf" if rep.delta_dim is MINUS_INFINITY else str(rep.delta_dim)
        print(f"{str(list(d)):<{width}}  {min(d):>3}  {delta:>9}  "
              f"{str(rep.bound):>7}  {rep.status}")
        if rep.status != "pass":
            worst = rep
    if args.json:
        args.json.write_text(json.dumps(rows, indent=2))
        print(f"wrote {len(rows)} reports to {args.json}")
    if worst is not None:
        print(f"worst status: {worst.status} at {list(worst.degree)}")
        return 1
    print(f"all {len(rows)} reports pass")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
