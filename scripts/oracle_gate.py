#!/usr/bin/env python3
"""Run the finite-field gate over the bundled fans.

Every configuration class and every map-space class within an entry
box is evaluated at L = p and compared against the brute-force count.
Any mismatch is a correctness bug somewhere between the Euler-product
engine and the enumerative counter, so the script exits nonzero on the
first discrepancy summary.  Bad input, a count beyond the budget and a
failed internal check stop the gate with an error line and exit status
2, 3 or 4, as the CLI does.

    python scripts/oracle_gate.py                 # default box, p in {2,3}
    python scripts/oracle_gate.py --fans p3 --primes 5 7 --limit 2
"""

import itertools
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from toricurves import FIXTURE_NAMES, fixture_fan
from toricurves.cli import _nonnegative, _Parser, _refusing
from toricurves.errors import _int
from toricurves.oracle import oracle_compare
from toricurves.toric import eff_dual_contains


def gate_fan(name, primes, limit, budget):
    fan = fixture_fan(name)
    top = limit if limit is not None else (3 if fan.nrays <= 4 else 2)
    mismatches = []
    n_config = n_hom = 0
    start = time.perf_counter()
    for e in itertools.product(range(top + 1), repeat=fan.nrays):
        for p in primes:
            rep = oracle_compare(p, fan, e=e, budget=budget)
            n_config += 1
            if not rep.equal:
                mismatches.append(rep)
    for d in itertools.product(range(top + 1), repeat=fan.nrays):
        if not eff_dual_contains(fan, d):
            continue
        for p in primes:
            rep = oracle_compare(p, fan, d=d, budget=budget)
            n_hom += 1
            if not rep.equal:
                mismatches.append(rep)
    elapsed = time.perf_counter() - start
    return n_config, n_hom, mismatches, elapsed


def main(argv=None):
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--fans", nargs="+", default=list(FIXTURE_NAMES),
                        choices=FIXTURE_NAMES, metavar="FAN",
                        help="fixtures to gate (default: all)")
    parser.add_argument("--primes", nargs="+", type=_int, default=[2, 3])
    parser.add_argument("--limit", type=_int, default=None,
                        help="entry box top (default 3 for <=4 rays, else 2)")
    parser.add_argument("--budget", type=_int, default=None)
    return _refusing(gate, parser.parse_args(argv))


def gate(args):
    _nonnegative("--limit", args.limit)
    bad = 0
    for name in args.fans:
        n_config, n_hom, mismatches, elapsed = gate_fan(
            name, args.primes, args.limit, args.budget
        )
        verdict = "ok" if not mismatches else f"{len(mismatches)} MISMATCHES"
        print(f"{name:>6}: {n_config} config + {n_hom} hom counts "
              f"in {elapsed:6.1f}s  {verdict}")
        for rep in mismatches[:5]:
            print(f"        {rep.kind} {rep.vector} p={rep.p}: brute "
                  f"{rep.brute} != predicted {rep.predicted}")
        bad += len(mismatches)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
