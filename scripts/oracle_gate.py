#!/usr/bin/env python3
"""Run the finite-field gate over the bundled fans.

Every configuration class and every map-space class within an entry
box is evaluated at L = p and compared against the brute-force count.
Any mismatch is a correctness bug somewhere between the Euler-product
engine and the enumerative counter, so the script exits nonzero on the
first discrepancy summary.  Bad input, a count beyond the budget and a
failed internal check stop the gate with an error line and exit status
2, 3 or 4, as the CLI does.

With --generated N the gate goes on over N generated fans: seeded runs
of star subdivisions of P^2, P^3 and P^2 x P^1 (generated_fan), each
read by parse_fan; the comparisons check that it is smooth and complete.

    python scripts/oracle_gate.py                 # default box, p in {2,3}
    python scripts/oracle_gate.py --fans p3 --primes 5 7 --limit 2
    python scripts/oracle_gate.py --fans p1 --generated 60
"""

import itertools
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from toricurves import FIXTURE_NAMES, fixture_fan
from toricurves.cli import _nonnegative, _Parser, _refusing
from toricurves.errors import _int
from toricurves.oracle import oracle_compare
from toricurves.toric import eff_dual_contains, parse_fan

# the smooth complete fans the generated ones subdivide, as (rays, max cones)
BASES = (
    ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]]),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
     [list(c) for c in itertools.combinations(range(4), 3)]),
    ([[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]],
     [[i, j, k] for i, j in ((0, 1), (1, 2), (0, 2)) for k in (3, 4)]),
)


def star_subdivision(rays, cones, face):
    """The fan blown up along the cone of the rays in face: the new ray
    is their sum, and each maximal cone holding the face gives way to
    one cone per ray of the face, with that ray replaced by the new one.
    A star subdivision of a smooth complete fan is smooth and complete
    (Fulton, Introduction to Toric Varieties, 2.4)."""
    new = len(rays)
    rays = rays + [[sum(col) for col in zip(*(rays[a] for a in face))]]
    out = []
    for cone in cones:
        if set(face) <= set(cone):
            out += [sorted(new if b == a else b for b in cone) for a in face]
        else:
            out.append(cone)
    return rays, out


def generated_fan(index):
    """The fan document numbered index: base index % 3 (P^2, P^3 or
    P^2 x P^1) subdivided along faces of two rays or more, each drawn by
    random.Random(index), as is the final ray count, from one more than
    the base's to 9."""
    rng = random.Random(index)
    rays, cones = BASES[index % 3]
    size = rng.randint(len(rays) + 1, 9)
    while len(rays) < size:
        cone = rng.choice(cones)
        face = rng.sample(cone, rng.randint(2, len(cone)))
        rays, cones = star_subdivision(rays, cones, face)
    return {"rays": rays, "max_cones": cones}


def gate_fan(fan, primes, limit, budget):
    if limit is None:
        limit = 3 if fan.nrays <= 4 else 2 if fan.nrays <= 6 else 1
    mismatches = []
    n_config = n_hom = 0
    start = time.perf_counter()
    for e in itertools.product(range(limit + 1), repeat=fan.nrays):
        for p in primes:
            rep = oracle_compare(p, fan, e=e, budget=budget)
            n_config += 1
            if not rep.equal:
                mismatches.append(rep)
    for d in itertools.product(range(limit + 1), repeat=fan.nrays):
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
                        help="entry box top (default 3 for <=4 rays, "
                        "2 for <=6, else 1)")
    parser.add_argument("--budget", type=_int, default=None)
    parser.add_argument("--generated", type=_int, default=0, metavar="N",
                        help="also gate the generated fans 0..N-1")
    return _refusing(gate, parser.parse_args(argv))


def gate(args):
    _nonnegative("--limit", args.limit)
    _nonnegative("--generated", args.generated)
    fans = [(name, fixture_fan(name)) for name in args.fans]
    fans += [(f"g{i}", parse_fan(generated_fan(i)))
             for i in range(args.generated)]
    bad = 0
    for name, fan in fans:
        n_config, n_hom, mismatches, elapsed = gate_fan(
            fan, args.primes, args.limit, args.budget
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
