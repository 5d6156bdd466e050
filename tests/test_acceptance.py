"""End-to-end acceptance gates for the whole pipeline.

Each test covers one headline guarantee, prints a single [PASS]/[FAIL]
verdict line, and enforces the runtime envelope it is expected to meet.
Golden values here were either checked by hand, derived from published
tables, or cross-validated by the finite-field oracle; none may be
weakened without a recorded decision.
"""

import itertools
import time
from fractions import Fraction

from reference import fan_product, mu_grouped_by_subgraph, truncate
from toricurves.grothendieck import (
    MINUS_INFINITY,
    L,
    ONE,
    ZERO,
    LaurentClass,
    SeriesCap,
    evaluate,
)
from toricurves.mobius import (
    IntPoly,
    fan_mobius_polynomial,
    local_identity_check,
    local_identity_sides,
)
from toricurves.toric import eff_dual_contains
from toricurves.eulerprod import euler_product_p1, global_mobius
from toricurves.moduli import (
    JetCondition,
    constrained_main_term,
    convergence_report,
    hom_class,
    normalized_hom_class,
    tamagawa,
)
from toricurves.oracle import (
    JetSpec,
    ff_constrained_count,
    ff_hom_count,
    ff_pattern_count,
)

from test_eulerprod import as_reference, ser_mul


def _verdict(failures, label):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
    assert ok, (label, failures[:10])


def _ones(positions, nvars):
    return tuple(1 if i in positions else 0 for i in range(nvars))


# frozen del Pezzo generating polynomial, in the fixture's ray order
DP6_PAIRS = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
             (0, 3), (1, 4), (2, 5)]
DP6_TRIPLES_COEFF2 = [(0, 1, 2), (3, 4, 5)]
DP6_TRIPLES_COEFF1 = [
    (1, 3, 4), (0, 3, 1), (0, 2, 3), (2, 3, 5), (1, 2, 4), (2, 4, 5),
    (0, 3, 4), (0, 1, 4), (0, 2, 5), (0, 3, 5), (1, 2, 5), (1, 4, 5),
]
DP6_QUADS = [
    (0, 1, 3, 4), (0, 2, 3, 5), (1, 2, 4, 5),
    (0, 1, 2, 5), (2, 3, 4, 5), (0, 1, 2, 3),
    (0, 3, 4, 5), (0, 1, 2, 4), (1, 3, 4, 5),
]


def test_golden_mobius_polynomials_and_subgraph_grouping(fans):
    start = time.perf_counter()
    failures = []

    for name, n in (("p1", 1), ("p2", 2), ("p3", 3)):
        nv = n + 1
        want = IntPoly(nv, {(0,) * nv: 1, (1,) * nv: -1})
        if fan_mobius_polynomial(fans[name]) != want:
            failures.append(name)

    want = IntPoly(4, {(0, 0, 0, 0): 1, (1, 0, 1, 0): -1,
                       (0, 1, 0, 1): -1, (1, 1, 1, 1): 1})
    if fan_mobius_polynomial(fans["bl1p2"]) != want:
        failures.append("bl1p2")

    terms = {(0,) * 6: 1, (1,) * 6: 1}
    for pair in DP6_PAIRS:
        terms[_ones(pair, 6)] = -1
    for triple in DP6_TRIPLES_COEFF2:
        terms[_ones(triple, 6)] = 2
    for triple in DP6_TRIPLES_COEFF1:
        terms[_ones(triple, 6)] = 1
    for quad in DP6_QUADS:
        terms[_ones(quad, 6)] = -1
    if fan_mobius_polynomial(fans["dp6"]) != IntPoly(6, terms):
        failures.append("dp6 polynomial")

    grouped = mu_grouped_by_subgraph(fans["dp6"])
    by_size = {}
    for (size, edges), values in grouped.items():
        by_size.setdefault(size, {})[edges] = values
    representative_checks = (
        by_size[0] == {(): [1]},
        by_size[2] == {((0, 1),): [-1]},
        by_size[3][((0, 1), (0, 2), (1, 2))] == [2],
        by_size[4][((0, 1), (0, 2), (1, 3), (2, 3))] == [-1],
        all(v == [0] for v in by_size[5].values()),
        list(by_size[6].values()) == [[1]],
    )
    for i, ok in enumerate(representative_checks):
        if not ok:
            failures.append(f"subgraph grouping check {i}")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s")
    _verdict(failures, "golden Mobius polynomials and del Pezzo subgraph "
                       "grouping reproduced term by term")


def test_local_factor_identity_on_all_fixtures(fans):
    start = time.perf_counter()
    failures = []
    for name, fan in fans.items():
        lhs, rhs = local_identity_sides(fan)
        if lhs != rhs or not local_identity_check(fan):
            failures.append((name, str(lhs), str(rhs)))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s")
    _verdict(failures, "local factor identity P(L^-1) = [V] L^-n (1 - L^-1)^r "
                       "holds exactly on all six fixtures")


def test_normalized_classes_reach_projective_space_limits(fans):
    start = time.perf_counter()
    failures = []

    stationary = (L + ONE) * (ONE - LaurentClass({-1: 1}))
    for d in range(1, 7):
        if normalized_hom_class(fans["p1"], (d, d)) != stationary:
            failures.append(("p1", d))

    for name, n, E in (("p2", 2, 12), ("p3", 3, 16)):
        fan = fans[name]
        cls = sum((LaurentClass({k: 1}) for k in range(n + 1)), ZERO)
        limit = cls * (ONE - LaurentClass({-n: 1}))
        tau = tamagawa(fan, E)
        if tau.known != limit.truncate_below(tau.floor):
            failures.append((name, str(tau)))

    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s")
    _verdict(failures, "line classes are stationary at the limit and "
                       "projective-space constants match [P^n](1 - L^-n)")


def test_finite_field_oracle_gate(fans):
    start = time.perf_counter()
    failures = []
    n_config = n_hom = 0

    # hand-checkable anchors: 3^3 - 3 and 4^3 - 4
    if ff_pattern_count(2, fans["p2"], (1, 1, 1)) != 24:
        failures.append("anchor p=2")
    if ff_pattern_count(3, fans["p2"], (1, 1, 1)) != 60:
        failures.append("anchor p=3")

    for name, fan in fans.items():
        lim = 3 if fan.nrays <= 4 else 2
        for e in itertools.product(range(lim + 1), repeat=fan.nrays):
            for p in (2, 3):
                from toricurves.moduli import pattern_config_class

                predicted = evaluate(pattern_config_class(fan, e), p)
                if predicted != ff_pattern_count(p, fan, e):
                    failures.append(("config", name, e, p))
                n_config += 1
        for d in itertools.product(range(lim + 1), repeat=fan.nrays):
            if not eff_dual_contains(fan, d):
                continue
            for p in (2, 3):
                predicted = evaluate(hom_class(fan, d), p)
                if predicted != ff_hom_count(p, fan, d):
                    failures.append(("hom", name, d, p))
                n_hom += 1

    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.2f}s")
    _verdict(failures, f"finite-field oracle gate: {n_config} configuration "
                       f"and {n_hom} map-space counts match exactly "
                       f"({elapsed:.0f}s)")


def test_finite_field_oracle_gate_large_primes(fans):
    from toricurves.moduli import pattern_config_class

    start = time.perf_counter()
    failures = []
    n_config = n_hom = 0

    for name, fan in fans.items():
        lim = 2 if fan.nrays <= 4 else 1
        for e in itertools.product(range(lim + 1), repeat=fan.nrays):
            for p in (5, 7):
                predicted = evaluate(pattern_config_class(fan, e), p)
                if predicted != ff_pattern_count(p, fan, e):
                    failures.append(("config", name, e, p))
                n_config += 1
            if not eff_dual_contains(fan, e):
                continue
            for p in (5, 7):
                predicted = evaluate(hom_class(fan, e), p)
                if predicted != ff_hom_count(p, fan, e):
                    failures.append(("hom", name, e, p))
                n_hom += 1

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s")
    _verdict(failures, f"finite-field oracle gate at p = 5, 7: {n_config} "
                       f"configuration and {n_hom} map-space counts match "
                       f"exactly ({elapsed:.0f}s)")


def test_convergence_reports_pass_and_tighten(fans):
    start = time.perf_counter()
    failures = []
    E = 12

    families = {
        "p1": [(d, d) for d in range(1, 7)],
        "p2": [(k,) * 3 for k in range(1, 7)],
        "p3": [(k,) * 4 for k in range(1, 7)],
        "p1xp1": [(a, a, b, b)
                  for a in range(1, 7) for b in range(1, 7)],
        "bl1p2": [(a, b, a, a + b)
                  for a in range(1, 7) for b in range(1, 7) if a + b <= 6],
        # six variables: the box is capped at 4 to stay inside the
        # series truncation that E = 12 affords
        "dp6": [d for d in itertools.product(range(1, 5), repeat=6)
                if eff_dual_contains(fans["dp6"], d)],
    }
    n_reports = 0
    for name, vecs in families.items():
        fan = fans[name]
        for d in vecs:
            rep = convergence_report(fan, d, E)
            if rep.status != "pass":
                failures.append((name, d, rep.status, rep.delta_dim))
            n_reports += 1

    for name, fam in (("p2", [(k,) * 3 for k in range(1, 7)]),
                      ("bl1p2", [(k, k, k, 2 * k) for k in (1, 2, 3)]),
                      ("dp6", [(k,) * 6 for k in (1, 2, 3, 4)])):
        dims = [convergence_report(fans[name], d, E).delta_dim for d in fam]
        if not all(a >= b for a, b in zip(dims, dims[1:])):
            failures.append((name, "not monotone", dims))

    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.2f}s")
    _verdict(failures, f"all {n_reports} convergence reports pass their "
                       f"error bound and tighten along diagonals "
                       f"({elapsed:.0f}s)")


def test_convergence_reports_at_large_order(fans):
    """At E = 64 the floor sits far below every bound, so the diagonal
    reports settle what E = 12 leaves below its floor."""
    start = time.perf_counter()
    failures = []
    E = 64

    diagonals = {
        "p2": [(k,) * 3 for k in range(1, 7)],
        "p3": [(k,) * 4 for k in range(1, 7)],
        "bl1p2": [(k, k, k, 2 * k) for k in (1, 2, 3)],
        "dp6": [(k,) * 6 for k in (1, 2, 3, 4)],
    }
    dims = {}
    for name, fam in diagonals.items():
        dims[name] = []
        for d in fam:
            rep = convergence_report(fans[name], d, E)
            if rep.status != "pass":
                failures.append((name, d, rep.status, rep.delta_dim))
            dims[name].append(rep.delta_dim)

    for name in ("p2", "bl1p2", "dp6"):
        seq = dims[name]
        if not all(a >= b for a, b in zip(seq, seq[1:])):
            failures.append((name, "not monotone", seq))
    # E = 12 puts this below its floor of -4
    if dims["dp6"][-1] != -5:
        failures.append(("dp6", (4,) * 6, dims["dp6"][-1]))

    for name, n in (("p2", 2), ("p3", 3)):
        tau = tamagawa(fans[name], E)
        proj = sum((L**i for i in range(1, n + 1)), ONE)
        want = proj * (ONE - LaurentClass({-n: 1}))
        if tau.known != want.truncate_below(tau.floor):
            failures.append((name, str(tau)))

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s")
    n_reports = sum(len(fam) for fam in diagonals.values())
    _verdict(failures, f"all {n_reports} diagonal convergence reports pass "
                       f"at E = {E} and the projective constants are exact "
                       f"({elapsed:.0f}s)")


def test_virtual_dimension_is_anticanonical_degree_plus_n(fans):
    failures = []
    n_checked = 0
    for name, fan in fans.items():
        lim = 3 if fan.nrays <= 4 else 2
        for d in itertools.product(range(lim + 1), repeat=fan.nrays):
            if not eff_dual_contains(fan, d):
                continue
            cls = hom_class(fan, d)
            if not cls:
                continue
            if cls.virtual_dimension != sum(d) + fan.dim:
                failures.append((name, d, cls.virtual_dimension))
            n_checked += 1
    _verdict(failures, f"virtual dimension equals |d| + n on all "
                       f"{n_checked} computed nonzero map classes")


def test_product_fan_multiplicativity(fans):
    failures = []
    p1 = fans["p1"]
    square = fan_product(p1, p1)

    for a in range(4):
        for b in range(4):
            want = hom_class(p1, (a, a)) * hom_class(p1, (b, b))
            if hom_class(square, (a, a, b, b)) != want:
                failures.append(("hom", a, b))

    tau_sq = tamagawa(square, 8)
    prod = tamagawa(p1, 8) * tamagawa(p1, 8)
    floor = max(tau_sq.floor, prod.floor)
    if truncate(tau_sq, floor).known != truncate(prod, floor).known:
        failures.append(("tamagawa", str(tau_sq), str(prod)))

    _verdict(failures, "map classes and the limiting constant are "
                       "multiplicative on the product of two lines")


def test_euler_engine_structural_identities(fans):
    failures = []

    cap6 = SeriesCap((6,))
    got = euler_product_p1(IntPoly(1, {(0,): 1, (1,): -1}), 0, cap6)
    if got.coeffs != {(0,): ONE, (1,): -(L + ONE), (2,): L}:
        failures.append("inverse Kapranov product")

    cap4 = SeriesCap((4,))
    for coeffs in ({(0,): 1, (1,): -1}, {(0,): 1, (1,): 1},
                   {(0,): 1, (1,): 1, (2,): 1}):
        F = IntPoly(1, coeffs)
        f_series = {e: {0: Fraction(c)} for e, c in F.items()}
        left = ser_mul(as_reference(euler_product_p1(F, 1, cap4)),
                       f_series, cap4)
        right = as_reference(euler_product_p1(F, 0, cap4))
        if left != right:
            failures.append(("cut and paste", coeffs))

    for name, fan in fans.items():
        gm = global_mobius(fan)
        for e, value in gm.items():
            if not value:
                continue
            total = sum(e)
            if value.virtual_dimension - total > -((total + 1) // 2):
                failures.append(("dimension bound", name, e))

    _verdict(failures, "Euler engine: inverse Kapranov product, "
                       "cut-and-paste at one removed point, and the "
                       "coefficient dimension bound all hold")


def test_constrained_counts_track_the_main_term(fans):
    start = time.perf_counter()
    failures = []
    p = 3
    p2 = fans["p2"]
    jc = JetCondition.torus_point((1, 1), 0)
    main = constrained_main_term(p2, jc, 16).known.evaluate(p)
    if main != Fraction(8, 9):
        failures.append(("main term", main))

    spec = JetSpec.identity(3, 1, 0)
    errors = []
    counts = []
    for k in (1, 2, 3):
        cnt = ff_constrained_count(p, p2, (k,) * 3, spec)
        counts.append(cnt)
        errors.append(abs(Fraction(cnt, p ** (3 * k)) - main))
    if counts != [24, 648, 17496]:
        failures.append(("counts", counts))
    if not all(a >= b for a, b in zip(errors, errors[1:])):
        failures.append(("errors not decreasing", errors))
    # strengthening by at least sqrt(p), compared in squares to stay exact
    if errors[2] ** 2 * p > errors[0] ** 2:
        failures.append(("error ratio", errors))

    elapsed = time.perf_counter() - start
    if elapsed >= 900.0:
        failures.append(f"runtime {elapsed:.2f}s")
    _verdict(failures, "jet-constrained counts track the predicted main "
                       "term with errors shrinking along the diagonal")
