"""Independent reference routes that the tests compare the library against.

None of this is on a path that a command or a script runs.  Each helper
computes a quantity a second way (linear systems over the rationals by
Gauss-Jordan elimination, the Picard projection, the torsor
class by counting zero sets, the Mobius values grouped by subgraph
shape, the Euler factors by the binomial expansion, common roots of
binary forms by a gcd, oracle counts by the walk without its orbit
merge over forms listed one by one, the orbit of a walk's group by
binary strings, orbit keys by one tuple per permutation, the torus
class by the binomial theorem, the punctured-line zeta
coefficients from their closed form, configuration classes from the
uniform box of the fan's whole pattern set) or builds test inputs
(fan documents, product fans, effective degrees, the generated fans
of scripts/oracle_gate.py, the acceptance convergence families).
``clear_caches`` empties every cache of the library, for tests that
count work from cold caches, ``record_work`` counts the work of a call,
and ``fresh_report`` and ``fresh_comparison`` assemble a convergence
report and an oracle comparison from the public classes and counts.
"""

import functools
import importlib.util
import itertools
import math
import pathlib
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from operator import add, and_, sub

from toricurves.errors import InternalCheckError
from toricurves.eulerprod import (
    _Keys,
    _config_terms,
    _majorant,
    _read_back,
    _weight_raw,
    _width,
)
from toricurves.grothendieck import (
    MINUS_INFINITY,
    ONE,
    ZERO,
    DimSeries,
    LaurentClass,
    evaluate,
)
from toricurves.mobius import mobius_table
from toricurves.moduli import (
    DegreeVector,
    ErrorReport,
    JetCondition,
    hom_class,
    normalized_hom_class,
    pattern_config_class,
    tamagawa,
)
from toricurves.toric import (
    Fan,
    PatternSet,
    _orbit_key,
    _orbit_keys,
    det_int,
    eff_dual_contains,
    parse_fan,
    pattern_set,
    require_valid,
)
from toricurves import oracle, toric


def clear_caches() -> None:
    """Empty every functools cache in the modules of toricurves, found by
    looking through their namespaces, so that no cache needs naming."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "toricurves":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def record_work(monkeypatch) -> dict[str, list]:
    """From here on, record each degree vector built ("vectors"), each
    vector keyed by toric._orbit_key ("keys"), each Fraction built
    ("fractions"), each class built by the constructor or by a power
    ("classes"), as the torus class (L - 1)^n once was per map class,
    each product of classes ("products"), as the torus times the
    configuration class once was, and each class an oracle comparison
    reads at L = p (oracle._predicted, "predictions").  Counts of work
    repeat exactly where timings do not."""
    work = {"vectors": [], "keys": [], "fractions": [], "classes": [],
            "products": [], "predictions": []}
    post_init = DegreeVector.__post_init__
    monkeypatch.setattr(DegreeVector, "__post_init__",
                        lambda dv: work["vectors"].append(dv) or post_init(dv))
    orbit_key = toric._orbit_key
    monkeypatch.setattr(toric, "_orbit_key",
                        lambda e, sym: work["keys"].append(e)
                        or orbit_key(e, sym))
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: work["fractions"].append(args)
                        or new(cls, *args, **kw))
    init, power = LaurentClass.__init__, LaurentClass.__pow__
    monkeypatch.setattr(LaurentClass, "__init__",
                        lambda x, *args: work["classes"].append(args)
                        or init(x, *args))
    monkeypatch.setattr(LaurentClass, "__pow__",
                        lambda x, n: work["classes"].append((x, n))
                        or power(x, n))
    times = LaurentClass.__mul__
    monkeypatch.setattr(LaurentClass, "__mul__",
                        lambda x, y: work["products"].append((x, y))
                        or times(x, y))
    predicted = oracle._predicted
    monkeypatch.setattr(oracle, "_predicted",
                        lambda cls, p: work["predictions"].append((cls, p))
                        or predicted(cls, p))
    return work


def fresh_report(fan: Fan, d, E: int) -> ErrorReport:
    """convergence_report(fan, d, E) assembled from its public pieces,
    tamagawa, normalized_hom_class and the bound (4n - min d) / 4, as the
    report was built on every call before it was kept per orbit key."""
    tau = tamagawa(fan, E)
    normalized = normalized_hom_class(fan, d)
    bound = Fraction(4 * fan.dim - min(d), 4)
    delta = (tau.known - normalized).truncate_below(tau.floor)
    dim = delta.virtual_dimension
    inconclusive = tau.floor > bound
    passed = not inconclusive and (dim is MINUS_INFINITY or dim <= bound)
    return ErrorReport(tuple(d), tau, normalized, dim, bound, passed,
                       inconclusive)


def fresh_comparison(p: int, fan: Fan, e=None, d=None) -> tuple:
    """The (brute, predicted) pair of oracle_compare from the public
    counts and classes, with the class read at L = p by ``evaluate``; a
    map degree outside the dual effective cone compares 0 with 0."""
    if d is None:
        return (oracle.ff_pattern_count(p, fan, e),
                evaluate(pattern_config_class(fan, e), p))
    if not eff_dual_contains(fan, d):
        return 0, 0
    return oracle.ff_hom_count(p, fan, d), evaluate(hom_class(fan, d), p)


def convergence_families(fans: dict) -> dict:
    """The degrees of the acceptance convergence sweep, per fixture: the
    diagonals, two-parameter families, and the dp6 cone points with
    entries 1 to 4, which the series truncation at E = 12 affords."""
    return {
        "p1": [(d, d) for d in range(1, 7)],
        "p2": [(k,) * 3 for k in range(1, 7)],
        "p3": [(k,) * 4 for k in range(1, 7)],
        "p1xp1": [(a, a, b, b) for a in range(1, 7) for b in range(1, 7)],
        "bl1p2": [(a, b, a, a + b)
                  for a in range(1, 7) for b in range(1, 7) if a + b <= 6],
        "dp6": [d for d in itertools.product(range(1, 5), repeat=6)
                if eff_dual_contains(fans["dp6"], d)],
    }


def load_oracle_gate():
    """A fresh module of scripts/oracle_gate.py, for tests that call its
    functions or patch its names."""
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "oracle_gate", root / "scripts" / "oracle_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


# ---------------------------------------------------------------------------
# fans and patterns

# the Hirzebruch surface F_2: its ray coordinate 2 raises jets past +-1,
# and the twin swap (1 3) moves a degree out of the dual effective cone
HIRZEBRUCH_2 = parse_fan({
    "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
})


def cone_ray_sets(fan: Fan) -> list[frozenset[int]]:
    return [frozenset(c) for c in fan.max_cones]


def lies_above(patterns: PatternSet, m) -> bool:
    """Does supp(m) contain some minimal member of the pattern set?"""
    return any(all(m[i] > 0 for i in J) for J in patterns.minimal)


def fan_document(fan: Fan) -> dict:
    """The fan as the JSON document that parse_fan reads."""
    return {"rays": [list(r) for r in fan.rays],
            "max_cones": [list(c) for c in fan.max_cones]}


def fan_product(f1: Fan, f2: Fan) -> Fan:
    """Fan of the product variety: block-embedded rays, pairwise unions of
    maximal cones."""
    require_valid(f1)
    require_valid(f2)
    n1, n2 = f1.dim, f2.dim
    rays = [r + (0,) * n2 for r in f1.rays]
    rays += [(0,) * n1 + r for r in f2.rays]
    off = f1.nrays
    cones = []
    for c1 in f1.max_cones:
        for c2 in f2.max_cones:
            cones.append(tuple(sorted(c1 + tuple(i + off for i in c2))))
    return Fan(dim=n1 + n2, rays=tuple(rays), max_cones=tuple(cones))


def eff_dual_enumerate(fan: Fan, bound: int) -> list[tuple[int, ...]]:
    """All nonnegative degree vectors with entry sum <= bound and vanishing
    weighted ray sum, in lexicographic order."""
    nu = fan.nrays
    out = []

    def rec(prefix, remaining):
        if len(prefix) == nu:
            if eff_dual_contains(fan, prefix):
                out.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v)

    rec([], bound)
    return out


# ---------------------------------------------------------------------------
# the Picard projection


def solve_rational(matrix_cols: list[list[int]], target: list[int]):
    """Solve M x = target exactly, M given by columns.

    Returns the solution as a list of Fractions, or None if M is singular.
    """
    n = len(target)
    aug = [[Fraction(matrix_cols[j][i]) for j in range(len(matrix_cols))]
           + [Fraction(target[i])] for i in range(n)]
    cols = len(matrix_cols)
    if cols != n:
        return None
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if piv is None:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        pv = aug[k][k]
        aug[k] = [x / pv for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    return [aug[i][n] for i in range(n)]


def _hermite_rows(mat: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form (positive pivots, reduced above)."""
    a = [list(r) for r in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        while True:
            nz = [i for i in range(r + 1, rows) if a[i][c] != 0]
            if not nz:
                break
            for i in nz:
                q = a[i][c] // a[r][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                if a[i][c] != 0:
                    a[r], a[i] = a[i], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return a


def picard_projection(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """Cokernel of the character-to-divisor map, as an explicit projection.

    The rays of cone 0 are a lattice basis, so each other ray alpha is an
    integer combination sum c_i v_i of them, and the rows
    e_alpha - sum c_i e_i are a basis of the integer relations among the
    rays.  Their Hermite reduction, which depends only on the lattice
    they span, is the projection.
    """
    require_valid(fan)
    nu, n = fan.nrays, fan.dim
    basis = fan.max_cones[0]
    cols = [list(fan.rays[i]) for i in basis]
    outside = [a for a in range(nu) if a not in basis]
    relations = []
    for a in outside:
        row = [0] * nu
        row[a] = 1
        for i, c in zip(basis, solve_rational(cols, list(fan.rays[a]))):
            row[i] = -int(c)
        relations.append(row)
    proj = _hermite_rows(relations)
    kills = all(sum(row[a] * fan.rays[a][j] for a in range(nu)) == 0
                for row in proj for j in range(n))
    assert kills, "cokernel projection does not kill the ray matrix"
    minor = det_int([[row[a] for a in outside] for row in proj])
    assert abs(minor) == 1, "cokernel projection is not surjective over Z"
    return tuple(tuple(row) for row in proj)


# ---------------------------------------------------------------------------
# Mobius data


def torsor_class(patterns: PatternSet) -> LaurentClass:
    """Class of the complement of the pattern coordinate subspaces in
    affine space, computed two independent ways and compared.

    Route one: a point lies off every pattern subspace exactly when its
    zero set Z contains no minimal pattern, and the points with zero set
    Z form a torus (L - 1)^(nvars - |Z|); such Z are grown one variable
    at a time in ascending order.  Route two: L^nvars times the diagonal
    value of the generating polynomial at L^-1.
    """
    nu = patterns.nvars
    masks = [sum(1 << i for i in J) for J in patterns.minimal]
    sizes = [0] * (nu + 1)
    stack = [(0, 0)]
    while stack:
        zeros, start = stack.pop()
        sizes[zeros.bit_count()] += 1
        for r in range(start, nu):
            grown = zeros | 1 << r
            if not any(grown & m == m for m in masks):
                stack.append((grown, r + 1))
    lm1 = LaurentClass({1: 1, 0: -1})
    route1 = ZERO
    for k, count in enumerate(sizes):
        route1 = route1 + lm1 ** (nu - k) * count
    poly = mobius_table(patterns)
    route2 = poly.evaluate_diagonal(LaurentClass({-1: 1})).shift(nu)
    if route1 != route2:
        raise InternalCheckError(
            f"torsor class mismatch: zero-set count gives {route1}, "
            f"generating polynomial gives {route2}")
    return route1


def nonintersection_graph(fan: Fan) -> set[frozenset[int]]:
    """Edges = ray pairs spanning no common cone (disjoint divisors)."""
    cone_sets = cone_ray_sets(fan)
    nu = fan.nrays
    edges = set()
    for i in range(nu):
        for j in range(i + 1, nu):
            if not any({i, j} <= c for c in cone_sets):
                edges.add(frozenset((i, j)))
    return edges


def _canonical_graph(vertices: tuple[int, ...], edges: set[frozenset[int]]):
    """Lexicographically smallest edge list over all relabelings."""
    k = len(vertices)
    best = None
    for perm in itertools.permutations(range(k)):
        relabel = {v: perm[i] for i, v in enumerate(vertices)}
        cand = tuple(sorted(tuple(sorted((relabel[a], relabel[b])))
                            for a, b in (tuple(e) for e in edges)))
        if best is None or cand < best:
            best = cand
    return k, best


def _is_connected(vertices: tuple[int, ...], edges: set[frozenset[int]]) -> bool:
    if not vertices:
        return True
    adj = {v: set() for v in vertices}
    for e in edges:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(vertices)


def mu_grouped_by_subgraph(fan: Fan, connected_only: bool = True) -> dict:
    """Group mu over supports by the shape of the induced subgraph of the
    non-intersection graph.

    Returns {(size, canonical_edges): sorted list of distinct mu values}.
    The empty support contributes {(0, ()): [1]}.
    """
    mu = mobius_table(pattern_set(fan)).coeffs
    edges = nonintersection_graph(fan)
    groups: dict[tuple, set[int]] = {}
    for n in itertools.product((0, 1), repeat=fan.nrays):
        v = mu.get(n, 0)
        support = tuple(i for i, x in enumerate(n) if x)
        sub_edges = {e for e in edges if e <= set(support)}
        if connected_only and not _is_connected(support, sub_edges):
            continue
        key = _canonical_graph(support, sub_edges)
        groups.setdefault(key, set()).add(v)
    return {key: sorted(vals) for key, vals in groups.items()}


# ---------------------------------------------------------------------------
# binary forms over F_p


def common_projective_root(p: int, forms) -> bool:
    """Whether binary forms over F_p, given as reduced coefficient tuples
    (coeffs[i] multiplies x^(deg - i) y^i), vanish at a common point of
    P^1, extensions included: every form vanishes at [0:1], or the gcd
    of the dehomogenizations f(1, t) has positive degree."""
    if all(f[-1] == 0 for f in forms):
        return True
    g = oracle._trim(forms[0])
    for f in forms[1:]:
        b = oracle._trim(f)
        while b:
            g, b = b, oracle._poly_rem(g, b, p)
    return len(g) > 1


def count_unmerged(p, degrees, patterns, forms=None, times=None) -> int:
    """oracle._count without the orbit merge, and with the forms per
    root mask of a plain count listed one by one (``_root_masks``), not
    read off the zeta function of P^1: the walk in ``_walk_order``
    keeps one state per AND tuple and value, folding the patterns that
    end at a ray into their OR first, and nothing more."""
    patterns = tuple(pat for pat in patterns if all(degrees[a] for a in pat))
    order = oracle._walk_order(len(degrees), patterns)
    place = {ray: t for t, ray in enumerate(order)}
    degrees = [degrees[ray] for ray in order]
    patterns = [tuple(sorted(place[a] for a in pat)) for pat in patterns]
    cuts = [
        max((min(degrees[b] for b in pat) for pat in patterns if a in pat),
            default=0)
        for a in range(len(degrees))
    ]
    states = {((), 0): 1}
    live: list[int] = []
    for t, (e, k) in enumerate(zip(degrees, cuts)):
        if forms is None:
            keys = Counter((m, 0) for m in oracle._root_masks(p, e, k))
        else:
            keys = forms(order[t], e, k)
        slots = list(enumerate(live)) + [
            (len(live), i) for i, pat in enumerate(patterns) if pat[0] == t
        ]
        closing, src, hit, kept = [], [], [], []
        for slot, i in slots:
            if t == patterns[i][-1]:
                closing.append(slot)
                continue
            src.append(slot)
            hit.append(t in patterns[i])
            kept.append(i)
        groups: dict = defaultdict(int)
        for (ands, value), n in states.items():
            ext = ands + (-1,)
            forbidden = 0
            for s in closing:
                forbidden |= ext[s]
            groups[forbidden, tuple(map(ext.__getitem__, src)), value] += n
        step = [
            (m, fv, c, tuple(m if h else -1 for h in hit))
            for (m, fv), c in keys.items()
        ]
        nxt: dict = defaultdict(int)
        for (forbidden, carried, value), n in groups.items():
            for m, fv, c, masks in step:
                if not forbidden & m:
                    nxt[tuple(map(and_, carried, masks)),
                        times[value, fv] if fv else value] += n * c
        states, live = nxt, kept
    return sum(n for (_, value), n in states.items() if not value)


# ---------------------------------------------------------------------------
# series and classes


def tuple_min_orbit_key(e, sym) -> tuple[int, ...]:
    """The orbit key of e as toric once built it: the entries of each
    twin class sorted, then the least of one tuple per permutation."""
    e = list(e)
    for cls in sym.twins:
        for a, x in zip(cls, sorted(e[a] for a in cls)):
            e[a] = x
    return min(tuple(map(e.__getitem__, perm)) for perm in sym.perms)


def binomial_torus(n: int) -> LaurentClass:
    """(L - 1)^n by the binomial theorem."""
    return LaurentClass({i: (-1) ** (n - i) * math.comb(n, i)
                         for i in range(n + 1)})


def string_orbit_key(p: int, k: int, group) -> str:
    """The orbit of a plain count's group under the permutations of the
    points of degree at most k that keep degrees, as binary strings: each
    mask written with one character per tracked point, the strings zipped
    into one column per point, and the columns of each degree class
    sorted and joined."""
    # sized by listing the monic irreducibles, not by the zeta function
    sizes = [len(oracle._irreducibles(p, j)) + (j == 1) for j in range(1, k + 1)]
    width = sum(sizes)
    tracked, fmt = (1 << width) - 1, f"0{width}b"
    # the binary string of a mask lists bit width - 1 first
    spans = [(width - b, width - a) for a, b in
             itertools.pairwise(itertools.accumulate(sizes, initial=0))]
    forbidden, carried, _ = group
    columns = list(map("".join, zip(*[format(m & tracked, fmt)
                                      for m in (forbidden, *carried)])))
    return "".join(itertools.chain(*[sorted(columns[a:b]) for a, b in spans]))


def laurent_from_json(doc: dict) -> LaurentClass:
    """The class that LaurentClass.to_json wrote."""
    return LaurentClass({int(e): int(v) for e, v in doc["coeffs"].items()})


def dim_series_from_json(doc: dict) -> DimSeries:
    """The series that DimSeries.to_json wrote."""
    floor = doc["floor"]
    return DimSeries(laurent_from_json(doc),
                     None if floor == "exact" else int(floor))


def is_exact(series: DimSeries) -> bool:
    return series.floor is None


def truncate(series: DimSeries, floor: int) -> DimSeries:
    """The series known only down to floor; the floor never drops."""
    f = floor if series.floor is None else max(series.floor, floor)
    return DimSeries(series.known, f)


def binomial_factors(F, s: int, cap, reach: int | None = None) -> tuple:
    """The Euler product's factors by the binomial expansion, as the
    keys, width, majorant, rest and first that eulerprod._read_product
    reads back: each factor is sum_k binom(a_d, k) (F - 1)^k (t^(.d)),
    with every integer power (F - 1)^k formed once over the full cap."""
    keys = _Keys(cap)
    total = cap.total
    coeffs_in = {e: c for e, c in F.items() if any(e) and cap.admits(e)}
    majorant = _majorant(coeffs_in, s, total)
    w = _width(majorant, reach)
    if not coeffs_in:
        return keys, w, majorant, {0: 1}, {0: 1}
    base = {keys.pack(e): c for e, c in coeffs_in.items()}
    powers = [base]
    while True:
        nxt = keys.times(powers[-1], base, {})
        if not nxt:
            break
        powers.append(nxt)
    valuation = min(sum(e) for e in coeffs_in)

    def factor(d: int) -> dict[int, int]:
        den, num = _weight_raw(d, s)
        a_d = sum(c << (w * i) for i, c in enumerate(num)) // den
        fac: dict[int, int] = {}
        for k, power in enumerate(powers[: total // (d * valuation)], start=1):
            binom = math.comb(a_d, k)
            for key, c in power.items():
                if (key >> keys.top) * d <= total and keys.admits(key * d):
                    fac[key * d] = fac.get(key * d, 0) + binom * c
        return fac

    rest = {0: 1}
    for d in range(total // valuation, 1, -1):
        rest = keys.times(rest, factor(d), dict(rest))
    first = factor(1)
    first[0] = 1
    return keys, w, majorant, rest, first


def dense_power_by_cells(terms: dict[int, int], a: int, keys: _Keys) -> list[int]:
    """_dense_power pulling every cell, none shared across an orbit:
    F^a in the uniform box of keys as a dense list, axis i at stride
    (b + 1)^i, for F = 1 + terms with exponents 0 and 1.

    Miller's recurrence (eulerprod's docstring) read in pull form.  A term f
    lies below e exactly when its support lies in that of e, and then
    G_(e - f) sits pos(f) cells before G_e; so each cell, in increasing
    position, gathers
    G_e = ((a + 1) sum_f F_f |f| G_(e - f)) / |e|  -  sum_f F_f G_(e - f)
    over the terms whose support fits in its own.  A remainder, or an
    exponent above 1, raises InternalCheckError.
    """
    n = keys.nvars
    side = max(keys.cap.box, default=0) + 1
    # per support mask, the offsets of the terms that fit in it, grouped
    # by the weights F_f |f| and F_f they share
    fits: list[dict[tuple[int, int], list[int]]] = [{} for _ in range(1 << n)]
    for key, c in terms.items():
        f = keys.unpack(key)
        if max(f) > 1:
            raise InternalCheckError(f"power term at {f} has an exponent above 1")
        mask = sum(x << i for i, x in enumerate(f))
        offset = sum(x * side**i for i, x in enumerate(f))
        for m in range(1 << n):
            if m & mask == mask:
                fits[m].setdefault((c * sum(f), c), []).append(offset)
    groups = [list(fit.items()) for fit in fits]
    # the total degree and the support mask of every cell
    degree, support = [0], [0]
    for i in range(n):
        degree = [d + x for x in range(side) for d in degree]
        support = [m | (1 << i if x else 0) for x in range(side) for m in support]
    dense = [0] * len(degree)
    dense[0] = 1
    lift = a + 1
    for pos in range(1, len(dense)):
        h = g = 0
        for (weight, c), offsets in groups[support[pos]]:
            x = 0
            for o in offsets:
                x += dense[pos - o]
            h += weight * x
            g += c * x
        value, remainder = divmod(lift * h, degree[pos])
        if remainder:
            e = tuple(pos // side**i % side for i in range(n))
            raise InternalCheckError(
                f"power coefficient at {e} is not divisible by its total "
                f"degree {degree[pos]}"
            )
        dense[pos] = value - g
    return dense


def walk_by_runs(box: list[int], side: int, s: int, w: int) -> None:
    """_walk one run of step cells at a time: multiply a dense box of
    values at L = 2^w, side cells to an axis, by the zeta factor
    (1 - t)^(s-1) / (1 - L t) of every axis, in place."""
    cells = len(box)
    step = 1
    while step < cells:
        block = step * side
        starts = [j for b in range(0, cells, block)
                  for j in range(b + step, b + block, step)]
        for _ in range(s - 1):
            # times 1 - t: descending, so every box[j - step] is still old
            for j in reversed(starts):
                box[j:j + step] = map(sub, box[j:j + step], box[j - step:j])
        if s == 0:
            # over 1 - t: ascending, so every box[j - step] is final
            for j in starts:
                box[j:j + step] = map(add, box[j:j + step], box[j - step:j])
        for j in starts:
            box[j:j + step] = [a + (b << w) for a, b in
                               zip(box[j:j + step], box[j - step:j])]
        step = block


def zeta_p1_coeffs(s: int, jmax: int) -> tuple[LaurentClass, ...]:
    """Coefficients up to t^jmax of the zeta factor of P^1 minus s
    rational points, (1 - t)^(s-1) (1 - L t)^(-1); for s = 0 the j-th is
    the class of Sym^j P^1, 1 + L + ... + L^j."""
    if s == 0:
        return tuple(LaurentClass({i: 1 for i in range(j + 1)})
                     for j in range(jmax + 1))
    out = []
    for j in range(jmax + 1):
        acc = ZERO
        for i in range(min(j, s - 1) + 1):
            acc = acc + LaurentClass({j - i: (-1) ** i * math.comb(s - 1, i)})
        out.append(acc)
    return tuple(out)


def packed_class(value: LaurentClass, w: int) -> int:
    """The value of a polynomial class at L = 2^w."""
    return sum(c << (w * k) for k, c in value.coeffs.items())


@functools.lru_cache(maxsize=None)
def whole_fan_box(fan: Fan, s: int, side: int):
    """The uniform box of side `side` of the fan's whole pattern set,
    built by the engine's _config_terms and cached here."""
    return _config_terms(pattern_set(fan), s, side)


def whole_fan_class(fan: Fan, e, s: int) -> LaurentClass:
    """The configuration class by the route that split no vector: the
    whole fan's box at side max(e) (whole_fan_box), read at the orbit
    key of e under the bound that fixes its width."""
    patterns = pattern_set(fan)
    key = _orbit_key(tuple(e), _orbit_keys(patterns).sym)
    terms = whole_fan_box(fan, s, max(key, default=0))
    return _read_back(terms.at(key), terms.width, 1 << (terms.width - 2), e,
                      "whole-fan class at {} exceeds its bound")


def config_series(fan: Fan, cap, s: int = 0) -> dict:
    """{e: pattern_config_class(fan, e, s)} over every exponent the cap
    admits, zero classes dropped."""
    out = {}
    for e in itertools.product(*(range(b + 1) for b in cap.box)):
        if cap.admits(e):
            value = pattern_config_class(fan, e, s)
            if value:
                out[e] = value
    return out


def expected_dimension_check(
    fan: Fan,
    d,
    jc: JetCondition | None = None,
    primes=(2, 3, 5),
) -> bool:
    """Check that the computed dimension matches the expected one.

    Unconstrained: the class of maps has virtual dimension |d| + n
    exactly.  Constrained: only a point-counting trend is available; the
    counts over the given primes are compared against p^(expected dim)
    and must agree up to a factor of four across the primes.
    """
    dv = DegreeVector.of(d)
    require_valid(fan)
    if jc is None or not jc.points:
        cls = hom_class(fan, dv)
        return cls.virtual_dimension == dv.total + fan.dim
    if jc.npoints != 1 or jc.W_dim != 0 or jc.W_class != ONE:
        raise ValueError(
            "constrained dimension checks support a single point with a "
            "one-jet target (W_class 1, W_dim 0) only"
        )
    (pt, order), = jc.points
    expected = dv.total + fan.dim * (1 - jc.length) + jc.W_dim
    ratios = []
    for p in primes:
        jet = oracle.JetSpec.identity(
            fan.nrays, oracle.reduce_point(pt, p), order
        )
        count = oracle.ff_constrained_count(p, fan, dv.entries, jet)
        if count <= 0:
            return False
        ratios.append(Fraction(count) / Fraction(p) ** expected)
    return max(ratios) <= 4 * min(ratios)
