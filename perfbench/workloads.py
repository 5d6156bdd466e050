"""The benchmark's workloads: their fixed op lists and their answer checks.

The input families are fixed; the seed only fixes the order in which a
round issues them.  ``toricurves`` is imported inside the functions
that need it, so ``run.py`` never loads it for the ``cli`` workload.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import checks as ref

E_CONVERGENCE = 12
FIXTURES = ("p1", "p2", "p3", "p1xp1", "bl1p2", "dp6")

# Each fixture's dimension, Picard rank and Mobius polynomial on the
# diagonal P(u, ..., u), from its primitive collections.
DIAGONAL = {
    "p1": (1, 1, [1, 0, -1]),
    "p2": (2, 1, [1, 0, 0, -1]),
    "p3": (3, 1, [1, 0, 0, 0, -1]),
    "p1xp1": (2, 2, [1, 0, -2, 0, 1]),
    "bl1p2": (2, 2, [1, 0, -2, 0, 1]),
    "dp6": (2, 4, [1, 0, -9, 16, -9, 0, 1]),
}
DIAGONALS = {
    "p2": [(k,) * 3 for k in range(1, 7)],
    "bl1p2": [(k, k, k, 2 * k) for k in (1, 2, 3)],
    "dp6": [(k,) * 6 for k in (1, 2, 3, 4)],
}
# degrees whose brute-force count at p = 2 stays below this many tuples
# are cross-checked against the oracle after the timed section
QUICK_TUPLES = 20_000


def shuffled(ops: list, seed: int) -> list:
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


def interleaved(ops: list, seed: int) -> list:
    """Each fan's ops in the order given, the fans interleaved at random:
    several sweeps, each in increasing degree, issued in turn."""
    turns = [op[1] for op in ops]
    random.Random(seed).shuffle(turns)
    queues = {name: iter([op for op in ops if op[1] == name]) for name in turns}
    return [next(queues[name]) for name in turns]


def fixtures() -> dict:
    from toricurves import fixture_fan

    return {name: fixture_fan(name) for name in FIXTURES}


# ---------------------------------------------------------------------------
# convergence: the acceptance convergence families at E = 12


def convergence_ops(fans: dict) -> list:
    from toricurves.toric import eff_dual_contains

    families = {
        "p1": [(d, d) for d in range(1, 7)],
        "p2": [(k,) * 3 for k in range(1, 7)],
        "p3": [(k,) * 4 for k in range(1, 7)],
        "p1xp1": [(a, a, b, b) for a in range(1, 7) for b in range(1, 7)],
        "bl1p2": [(a, b, a, a + b)
                  for a in range(1, 7) for b in range(1, 7) if a + b <= 6],
        "dp6": [d for d in itertools.product(range(1, 5), repeat=6)
                if eff_dual_contains(fans["dp6"], d)],
    }
    return [("report", name, d) for name, ds in families.items() for d in ds]


def check_convergence(fans: dict, results: dict) -> list:
    from toricurves.oracle import ff_hom_count

    failures, constants = [], {}
    for (_, name, d), rep in results.items():
        if rep.status != "pass":
            failures.append(f"{name} {d}: status {rep.status}")
        n, rank, P = DIAGONAL[name]
        tau = rep.tau_trunc
        if tau.floor > floor_limit(n, E_CONVERGENCE):
            failures.append(f"{name} {d}: floor {tau.floor} above "
                            f"{floor_limit(n, E_CONVERGENCE)}")
        if (name, tau.floor) not in constants:
            constants[name, tau.floor] = ref.tamagawa_diagonal(P, n, rank, tau.floor)
        want = constants[name, tau.floor]
        if tau.known.coeffs != want:
            failures.append(f"{name} {d}: constant {tau.known} is not the "
                            f"diagonal Euler product {want}")
        if name in ("p2", "p3") and tau.known.coeffs != ref.above(
                ref.projective_constant(n), tau.floor):
            failures.append(f"{name}: constant {tau.known} != [P^n](1 - L^-n)")
        normalized = rep.normalized.coeffs
        if name == "p1" and normalized != {1: 1, -1: -1}:
            failures.append(f"p1 {d}: normalized {rep.normalized}")
        if name == "p1xp1" and normalized != {2: 1, 0: -2, -2: 1}:
            failures.append(f"p1xp1 {d}: normalized {rep.normalized}")
        tuples = 1
        for x in d:
            tuples *= 2 ** (x + 1) - 1
        if tuples <= QUICK_TUPLES:
            brute = ff_hom_count(2, fans[name], d)
            if ref.evaluate(normalized, 2) != Fraction(brute, 2 ** sum(d)):
                failures.append(f"{name} {d}: normalized class at L = 2 is "
                                f"not the brute count {brute} / 2^|d|")
    for name, diagonal in DIAGONALS.items():
        dims = [results[op].to_json()["delta_dim"]
                for op in (("report", name, d) for d in diagonal) if op in results]
        ranks = [float("-inf") if x is None else x for x in dims]
        if any(a < b for a, b in zip(ranks, ranks[1:])):
            failures.append(f"{name}: delta_dim grows along the diagonal {dims}")
    return failures


# ---------------------------------------------------------------------------
# oracle_gate: the acceptance oracle family at p in {2, 3}


def oracle_gate_ops(fans: dict) -> list:
    from toricurves.toric import eff_dual_contains

    ops = []
    for name in FIXTURES:
        fan = fans[name]
        top = 3 if fan.nrays <= 4 else 2
        box = list(itertools.product(range(top + 1), repeat=fan.nrays))
        ops += [("config", name, e, p) for e in box for p in (2, 3)]
        ops += [("hom", name, d, p) for d in box
                if eff_dual_contains(fan, d) for p in (2, 3)]
    ops += [("anchor", "p2", (1, 1, 1), p) for p in (2, 3)]
    return ops


# configurations of degree (1,1,1) on P^2 by hand: three rational points of
# P^1 that are not all equal, (p + 1)^3 - (p + 1)
ANCHORS = {2: 24, 3: 60}


def check_oracle_gate(fans: dict, results: dict) -> list:
    failures = []
    for (kind, name, vec, p), rep in results.items():
        if kind == "anchor":
            if rep != ANCHORS[p]:
                failures.append(f"anchor p={p}: {rep} != {ANCHORS[p]}")
            continue
        if not rep.equal or rep.brute != rep.predicted:
            failures.append(f"{kind} {name} {vec} p={p}: brute {rep.brute} "
                            f"predicted {rep.predicted}")
        if kind == "hom" and name == "p1" and vec[0] >= 1:
            d = vec[0]
            want = p ** (2 * d + 1) - p ** (2 * d - 1)
            if rep.brute != want:
                failures.append(f"p1 maps of degree {vec} at p={p}: "
                                f"{rep.brute} != {want}")
    return failures


def run_op(fans: dict, op):
    from toricurves.moduli import convergence_report
    from toricurves.oracle import ff_pattern_count, oracle_compare

    kind, name, vec = op[0], op[1], op[2]
    fan = fans[name]
    if kind == "report":
        return convergence_report(fan, vec, E_CONVERGENCE)
    if kind == "config":
        return oracle_compare(op[3], fan, e=vec)
    if kind == "hom":
        return oracle_compare(op[3], fan, d=vec)
    return ff_pattern_count(op[3], fan, vec)


# workload -> (op list, order for a seed, answer check).  A convergence
# op pays for the Euler-product tables it is the first to need, so a full
# shuffle would make its latency depend on the seed; each fan's degrees
# go in increasing order, as in a user's sweep and the acceptance suite.
LIBRARY = {
    "convergence": (convergence_ops, interleaved, check_convergence),
    "oracle_gate": (oracle_gate_ops, shuffled, check_oracle_gate),
}


# ---------------------------------------------------------------------------
# cli: fixed commands, each in a fresh `python -m toricurves.cli` process

PRODUCT_FAN = "dp6xdp6.json"
CLI_COMMANDS = (
    ("analyze_p2", ["analyze", "p2"]),
    ("analyze_dp6", ["analyze", "dp6"]),
    ("analyze_dp6xdp6", ["analyze", PRODUCT_FAN]),
    ("mobius_dp6", ["mobius", "dp6", "--cap", "6"]),
    ("hom_p1", ["hom", "p1", "--degree", "2,2", "--normalized"]),
    ("tamagawa_dp6", ["tamagawa", "dp6", "--order", "12"]),
    ("tamagawa_p3", ["tamagawa", "p3", "--order", "16"]),
    ("converge_dp6", ["converge", "dp6", "--degree", "3,3,3,3,3,3",
                      "--order", "12"]),
    ("oracle_p3_p3", ["oracle", "p3", "--p", "3", "--degree", "3,3,3,3"]),
    ("oracle_p3_p5", ["oracle", "p3", "--p", "5", "--degree", "2,2,2,2"]),
    ("oracle_dp6_config", ["oracle", "dp6", "--p", "3", "--config",
                           "2,2,2,2,2,2"]),
    ("oracle_p2_jet", ["oracle", "p2", "--p", "3", "--degree", "3,3,3",
                       "--jet", "1,1"]),
    ("constrained_p2", ["constrained", "p2", "--order", "16",
                        "--points", "1:1@0"]),
)


def product_fan(doc: dict) -> dict:
    """The fan of X x X from the fan of X: rays (r, 0) and (0, r), and
    maximal cones the unions of one maximal cone from each factor."""
    rays, cones, n = doc["rays"], doc["max_cones"], len(doc["rays"])
    zero = [0] * len(rays[0])
    return {
        "rays": [r + zero for r in rays] + [zero + r for r in rays],
        "max_cones": [a + [n + j for j in b] for a in cones for b in cones],
    }


def floor_limit(n: int, E: int) -> int:
    """The floor a constant truncated at total degree E can claim: the
    dropped Euler terms have dimension at most -ceil((E + 1) / 2)."""
    return n + 1 - (E + 2) // 2


def _series_failures(label, doc, want, limit):
    """A truncated series must match above its floor, and claim a floor no
    higher than its truncation order allows (else the match is empty)."""
    got, floor = ref.from_json(doc), doc["floor"]
    f = []
    if floor > limit:
        f.append(f"{label}: floor {floor} above {limit}")
    if got != ref.above(want, floor):
        f.append(f"{label}: {got} (floor {floor}) != {ref.above(want, floor)}")
    return f


def _tamagawa_failures(label, doc, E):
    n, rank, P = DIAGONAL["dp6"]
    limit = floor_limit(n, E)
    want = ref.tamagawa_diagonal(P, n, rank, min(doc["floor"], limit))
    return _series_failures(label, doc, want, limit)


def check_cli(slug: str, out: dict) -> list:
    """Failures of one command's JSON output against independent values."""
    f = []
    if slug.startswith("analyze"):
        want = {
            "analyze_p2": ({2: 1, 1: 1, 0: 1}, [1, 3, 3], 1),
            "analyze_dp6": ({2: 1, 1: 4, 0: 1}, [1, 6, 6], 4),
            "analyze_dp6xdp6": (ref.pmul({2: 1, 1: 4, 0: 1}, {2: 1, 1: 4, 0: 1}),
                                [1, 12, 48, 72, 36], 8),
        }[slug]
        got = (ref.parse_class(out["class"]), out["f_vector"], out["picard_rank"])
        if got != want:
            f.append(f"{slug}: class, f-vector, rank {got} != {want}")
        if out["local_identity"] is not True:
            f.append(f"{slug}: local identity fails")
    elif slug == "mobius_dp6":
        # diagonal sums of the global coefficients are the univariate
        # Euler product's coefficients
        M = ref.euler_product_diagonal(DIAGONAL["dp6"][2], 6)
        want = {k: m for k, m in enumerate(M) if m}
        sums: dict = {}
        for item in out["global"]:
            k = sum(item["e"])
            sums[k] = ref.padd(sums.get(k, {}), ref.from_json(item["mu"]))
        if {k: v for k, v in sums.items() if v} != want:
            f.append(f"{slug}: diagonal sums {sums} != {want}")
    elif slug == "hom_p1":
        if ref.from_json(out["coeffs"]) != {1: 1, -1: -1}:
            f.append(f"{slug}: {out['class']} != L - L^-1")
    elif slug == "tamagawa_p3":
        f += _series_failures(slug, out["coeffs"], ref.projective_constant(3),
                              floor_limit(3, 16))
    elif slug == "tamagawa_dp6":
        f += _tamagawa_failures(slug, out["coeffs"], 12)
    elif slug == "converge_dp6":
        f += _tamagawa_failures(slug, out["tau_truncated"], 12)
        if out["status"] != "pass":
            f.append(f"{slug}: status {out['status']}")
    elif slug == "oracle_p2_jet":
        if int(out["count"]) != ref.JET_COUNT_P2_P3_D333_AT1_ORDER1:
            f.append(f"{slug}: count {out['count']} != "
                     f"{ref.JET_COUNT_P2_P3_D333_AT1_ORDER1}")
    elif slug.startswith("oracle"):
        if out["equal"] is not True or out["brute"] != out["predicted"]:
            f.append(f"{slug}: brute {out['brute']} predicted {out['predicted']}")
    elif slug == "constrained_p2":
        # a marked point of jet order m lowers the floor by n (m + 1) = 2
        f += _series_failures(slug, out["coeffs"], {0: 1, -2: -1},
                              floor_limit(2, 16) - 2)
    return f


def cli_setup(root, out_dir) -> dict:
    """Write the product fan the `cli` workload reads; return argv by slug."""
    src = root / "src" / "toricurves" / "fans" / "dp6.json"
    path = out_dir / PRODUCT_FAN
    path.write_text(json.dumps(product_fan(json.loads(src.read_text()))))
    return {slug: [str(path) if a == PRODUCT_FAN else a for a in argv]
            for slug, argv in CLI_COMMANDS}
