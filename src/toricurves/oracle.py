"""Brute-force verification over small prime fields.

Every motivic class this package produces can be specialized by sending
L to a prime p; the result must equal an honest count of tuples of
binary forms over F_p.  This module performs those counts from scratch,
sharing no series code with the engine, so agreement is meaningful.

Normalized forms (first nonzero coefficient 1) biject with effective
divisors on the projective line; scaling orbits relate them to the raw
nonzero-form counts that the torsor quotient needs.  Each form has a
root bitmask over the closed points of P^1 (bit 0 is [0:1], then the
monic irreducibles over F_p by degree), and a set of forms has a common
root exactly when their masks share a bit.  One transfer DP, ``_count``,
walks the rays keeping the running AND of the masks per open minimal
pattern; a tuple is dropped when a pattern's last ray leaves a nonzero
AND.  The count is a sum over all tuples, so the walk may take the rays
in any order: it takes one that ends patterns early, which keeps few
patterns open.  Before a ray, the ANDs of the patterns it ends fold
into their OR, and states equal after the fold merge, since the ray
reads those ANDs only through whether that OR meets its form's mask.
Plain counts list no form and no polynomial: by unique factorization
the number of forms whose roots among the tracked points are a given
set comes from the zeta function of P^1, and depends only on how many
points of each degree the set holds, which the same zeta function
gives.  So a plain step at a ray is one table per prime, degree, cut
and set of carried patterns the ray is on, shared by every ray and
count.  Their walk also keeps one state per orbit of the points under
the permutations that keep degrees, [0:1] counting as a rational point,
with the orbit's summed count.  The orbit is read off bit counts: the
points of each degree are split by the state's masks in turn, and the
orbit is how many points of each part each mask holds.
Jet-constrained counts key each form by its mask and the values of
the characters of the dense torus on its jet relative to the target;
the characters are a homomorphism, so the walk carries the product of
the values so far, and a tuple counts when that product is the
identity.  Plain counts carry the identity throughout, so every count
has one state shape and one final test.  A budget guard refuses
enumerations that are too large rather than sampling.  Hom and jet
counts are 0 outside the dual effective cone, as the classes are, once
the checks (moduli's checked_degrees) and the budget have run.

Plain counts are shared within an orbit of the pattern automorphisms,
the ray permutations that map the minimal patterns onto themselves.
Moving the degrees with such a permutation keeps the count exactly:
the count is a sum over all tuples, and relabelling the rays together
with the degrees maps the tuples that avoid the patterns one to one
onto those that avoid their images, the same patterns.  Each degree
vector is counted as the least vector of its orbit over the
automorphisms that a bounded search finds, once per process; a search
that misses some only shares fewer counts.  The search, the orbit key
and a memo of the keys per pattern set live in toric; the memo checks
each permutation against the patterns before its first key.  The
engine takes the same automorphisms to pull one cell per orbit of its
dense box, and the same memo to read back one configuration class per
orbit, so neither side shares a value under a wrong automorphism.  The
counts here still share no series code with the engine.  Hom counts,
like the engine's hom classes, test each degree against the dual
effective cone, which the automorphisms need not keep.

The plain count of an orbit key is a product: a tuple avoids the
patterns when each pattern's forms do, which only links rays that
share a live pattern, one whose rays all have positive degree.  A ray
of degree 0 contributes its one form, a ray on no live pattern all its
(p^(e+1) - 1)/(p - 1) forms, and each connected component of the live
patterns the count of its own pattern set at its own orbit key.  The
split is toric's ``_components``, which the engine reads its
configuration classes by too.  One count of a pair thus answers P^1,
P^1 x P^1 and the blow-up of P^2 alike.  Jet counts are never shared or
split, as the target jets and the ray vectors single out each ray.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import and_, itemgetter
from typing import Sequence

from .errors import BudgetError, InternalCheckError, _integer, _resolve_budget
from .grothendieck import LaurentClass, evaluate
from .toric import (
    Fan,
    _Memo,
    _components,
    _orbit_keys,
    eff_dual_contains,
    pattern_set,
)
from .moduli import (
    DegreeVector,
    _hom_class,
    _maps_exist,
    _record,
    checked_degrees,
    pattern_config_class,
)

ALLOWED_PRIMES = (2, 3, 5, 7)

__all__ = [
    "ALLOWED_PRIMES",
    "JetSpec",
    "OracleReport",
    "ff_pattern_count",
    "ff_hom_count",
    "ff_constrained_count",
    "oracle_compare",
    "reduce_point",
]


def _check_prime(p: int) -> None:
    # a plain int needs no call to be known an integer
    if type(p) is not int:
        _integer(p, "prime")
    if p not in ALLOWED_PRIMES:
        raise ValueError(f"prime must be one of {ALLOWED_PRIMES}, got {p}")


def _trim(poly: Sequence[int]) -> tuple[int, ...]:
    t = tuple(poly)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def _poly_rem(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    inv_lead = pow(b[-1], p - 2, p)
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a.pop()
    return _trim(a)


@functools.lru_cache(maxsize=None)
def _form_table(p: int, e: int) -> tuple[tuple[int, ...], ...]:
    """All normalized degree-e coefficient vectors over F_p, in lex order."""
    forms = []
    for lead in range(e, -1, -1):
        prefix = (0,) * lead + (1,)
        for rest in itertools.product(range(p), repeat=e - lead):
            forms.append(prefix + rest)
    return tuple(forms)


@functools.lru_cache(maxsize=None)
def _irreducibles(p: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Monic irreducible polynomials of degree k over F_p, ascending
    coefficients, in lex order."""
    smaller = [g for j in range(1, k // 2 + 1) for g in _irreducibles(p, j)]
    return tuple(
        f for f in (rest + (1,) for rest in itertools.product(range(p), repeat=k))
        if all(_poly_rem(f, g, p) for g in smaller)
    )


@functools.lru_cache(maxsize=None)
def _root_masks(p: int, e: int, k: int) -> tuple[int, ...]:
    """Root bitmask per normalized degree-e form, over points of degree <= k.

    Bit 0 is [0:1]; then come the monic irreducibles of degree 1, ..., k
    in the order of ``_irreducibles``, so the masks of forms of any
    degrees share their low bits.  Index-aligned with ``_form_table``.
    """
    points = [g for j in range(1, k + 1) for g in _irreducibles(p, j)]
    masks = []
    for f in _form_table(p, e):
        dehom = _trim(f)
        mask = int(k > 0 and f[-1] == 0)
        for bit, g in enumerate(points, 1):
            if len(g) <= len(dehom) and not _poly_rem(dehom, g, p):
                mask |= 1 << bit
        masks.append(mask)
    return tuple(masks)


def _zeta_peel(p: int, k: int, e: int) -> tuple[tuple[int, ...], list[int]]:
    """The number of points of each degree 1, ..., k that masks track,
    [0:1] among the rational ones, and the zeta function of P^1 up to
    t^e, e >= k, with those points taken out.  1/((1 - t)(1 - pt)) is the
    product of 1/(1 - t^deg(x)) over the points x, so with the points of
    degree < j taken out its t^j coefficient counts those of degree j."""
    series = [(p ** (j + 1) - 1) // (p - 1) for j in range(e + 1)]
    sizes = []
    for deg in range(1, k + 1):
        size = series[deg]
        sizes.append(size)
        for _ in range(size):
            for j in range(e, deg - 1, -1):
                series[j] -= series[j - deg]
    return tuple(sizes), series


@functools.lru_cache(maxsize=None)
def _mask_counts(p: int, e: int, k: int) -> dict[int, int]:
    """Number of normalized degree-e forms per root mask of ``_root_masks``.

    Forms are the effective degree-e divisors of P^1.  With T the points
    of degree at most k, those whose roots in T are exactly M number
    [t^e] prod_{x in M} t^deg(x) / (1 - t^deg(x)) * R(t), where
    R(t) = prod_{x in T} (1 - t^deg(x)) / ((1 - t)(1 - pt)) by unique
    factorization, the zeta function of P^1 with T taken out.  The
    count depends on M only through how many points of each degree it
    holds; no form is listed.  Masks whose count is 0 are left out.
    """
    sizes, series = _zeta_peel(p, k, e)
    counts: dict[int, int] = {}

    def choose(cls, low, left, series, masks):
        # take a points of degree cls + 1, each a factor t^deg / (1 - t^deg)
        if cls == len(sizes):
            if series[e]:
                counts.update(dict.fromkeys(masks, series[e]))
            return
        deg, size = cls + 1, sizes[cls]
        for a in range(min(size, left // deg) + 1):
            if a:
                shifted = [0] * (e + 1)
                for j in range(deg, e + 1):
                    shifted[j] = series[j - deg] + shifted[j - deg]
                series = shifted
            picks = [sum(1 << (low + i) for i in c)
                     for c in itertools.combinations(range(size), a)]
            choose(cls + 1, low + size, left - a * deg, series,
                   [m | b for m in masks for b in picks])

    choose(0, 0, e, series, [0])
    return counts


@functools.lru_cache(maxsize=None)
def _plain_step(p: int, e: int, k: int, hit: tuple[bool, ...]) -> tuple:
    """A plain count's step at a ray of degree e whose masks cover the
    points of degree at most k: (mask, value 0, number of forms, the
    mask in each carried slot the ray is on and -1 in the others) per
    root mask of ``_mask_counts``.  Every ray and every count with the
    same (p, e, k, hit) shares one table, built once per process."""
    return tuple((m, 0, c, tuple(m if h else -1 for h in hit))
                 for m, c in _mask_counts(p, e, k).items())


@functools.lru_cache(maxsize=None)
def _walk_order(
    nrays: int, patterns: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    """The order in which ``_count`` walks the rays.

    Greedy: the next ray is the one that leaves the fewest walked rays
    still waiting on an unfinished pattern, ties broken by index.  The
    rays waiting bound the patterns open at once, and so the states.
    """
    walked: set[int] = set()
    order = []

    def waiting(rays):
        unfinished = [pat for pat in patterns if not rays.issuperset(pat)]
        return len(rays & set().union(*unfinished))

    for _ in range(nrays):
        ray = min((r for r in range(nrays) if r not in walked),
                  key=lambda r: waiting(walked | {r}))
        walked.add(ray)
        order.append(ray)
    return tuple(order)


@functools.lru_cache(maxsize=None)
def _orbit_reps(p: int, k: int) -> _Memo:
    """Group of a plain count -> the group that stands for its orbit.

    A permutation of the points of degree at most k that keeps degrees,
    with [0:1] among the rational points, keeps every ray's mask counts
    (``_mask_counts``) and commutes with the fold and the step, so the
    groups of one orbit have equal continuations.  A point's column is
    whether the forbidden mask and each carried AND hold it, and a
    group's orbit is how many points of each degree class have each
    column.  The classes are split by the forbidden mask, then by each
    carried AND: each part into the points the mask holds, by one AND,
    and the rest, by an XOR, the empty ones dropped.  The signature is
    the number of carried ANDs and, mask by mask, how many points of
    each part the mask holds.  Those numbers give the sizes of the next
    parts, so two groups of as many masks share a signature exactly
    when each part of one has as many points as the part in its place
    in the other, with the same column: when they share an orbit.  The
    number of ANDs is kept since one memo serves every step of every
    count, and groups of different lengths could list the same numbers.
    The parts start inside the tracked points, so the bits above them,
    as in the all-ones entries, are never read.  The first group seen
    stands for its orbit; the same groups recur across counts, so each
    is looked at once per process.
    """
    classes = [(1 << b) - (1 << a) for a, b in itertools.pairwise(
        itertools.accumulate(_zeta_peel(p, k, k)[0], initial=0))]
    first: dict = {}

    def rep(group):
        forbidden, carried, _ = group
        parts = classes
        orbit = [len(carried)]
        for m in (forbidden, *carried):
            split = []
            for part in parts:
                inside = part & m
                orbit.append(inside.bit_count())
                if inside:
                    split.append(inside)
                if inside != part:
                    split.append(part ^ inside)
            parts = split
        return first.setdefault(tuple(orbit), group)

    return _Memo(rep)


def _count(p, degrees, patterns, forms=None, times=None) -> int:
    """Number of form tuples, one per ray, that avoid the patterns and
    whose values multiply to the identity.

    A tuple avoids a pattern when the root masks of the pattern's rays
    have no common bit.  Each form has a value, a small int standing
    for an element of a group, 0 for the identity.  A plain count
    (no ``forms``) gives every form the value 0.  A jet count gets
    ``forms(ray, e, k)``, {(root mask, value): number of forms}, and
    ``times``, which maps a pair of values to the value of their
    product; a form of value 0 moves no state, so ``times`` is never
    asked for it.

    The walk over the rays merges tuples by state: per pattern begun
    and not ended, the AND of the masks so far, and the product of the
    values so far.  The rays go in the order of ``_walk_order``, which
    ends patterns early; the count is a sum over all tuples, so the
    order does not change it.  Before each ray the ANDs of the patterns
    that end there fold into one mask, the OR of them, and states that
    agree on it and on the rest merge: the ray and the later ones read
    those ANDs only through whether that OR meets the new form's mask.
    A ray's masks only cover points of degree at most the smallest
    degree of some pattern through it, the only points those forms can
    share.  The count sums the final states of value 0.

    A plain count lists no form: the number of forms per mask comes
    from the zeta function of P^1 (``_mask_counts``) and depends on the
    points a mask holds only through their degrees.  So its step at a
    ray is one table for every ray and count of the same prime, degree,
    cut and slots hit (``_plain_step``), and a permutation of the points
    that keeps degrees maps states onto states with the same
    continuations: after the fold the groups merge once more, one per
    orbit of the points, stepped with the orbit's summed count
    (``_orbit_reps``).  Jet counts build their step from ``forms`` at
    each ray and keep every group, since the marked point and the values
    single out points.
    """
    patterns = tuple(pat for pat in patterns if all(degrees[a] for a in pat))
    order = _walk_order(len(degrees), patterns)
    place = {ray: t for t, ray in enumerate(order)}
    degrees = [degrees[ray] for ray in order]
    patterns = [tuple(sorted(place[a] for a in pat)) for pat in patterns]
    cuts = [
        max((min(degrees[b] for b in pat) for pat in patterns if a in pat),
            default=0)
        for a in range(len(degrees))
    ]
    reps = _orbit_reps(p, max(cuts)) if forms is None and patterns else None
    states = {((), 0): 1}
    live: list[int] = []
    for t, (e, k) in enumerate(zip(degrees, cuts)):
        # slots index the old state plus a trailing all-ones entry, where
        # the patterns beginning at ray t start
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
        # one getter of the carried slots; of one index it would give the
        # entry itself, so none or one slot is taken as a slice
        take = itemgetter(*src) if len(src) > 1 else itemgetter(
            slice(src[0], src[0] + 1) if src else slice(0))
        groups: dict = defaultdict(int)
        for (ands, value), n in states.items():
            ext = ands + (-1,)
            forbidden = 0
            for s in closing:
                forbidden |= ext[s]
            groups[forbidden, take(ext), value] += n
        if reps is not None and len(groups) > 1:
            merged: dict = defaultdict(int)
            for group, n in groups.items():
                merged[reps[group]] += n
            groups = merged
        step = _plain_step(p, e, k, tuple(hit)) if forms is None else [
            (m, fv, c, tuple(m if h else -1 for h in hit))
            for (m, fv), c in forms(order[t], e, k).items()
        ]
        nxt: dict = defaultdict(int)
        for (forbidden, carried, value), n in groups.items():
            for m, fv, c, masks in step:
                if not forbidden & m:
                    nxt[tuple(map(and_, carried, masks)),
                        times[value, fv] if fv else value] += n * c
        states, live = nxt, kept
    return sum(n for (_, value), n in states.items() if not value)


@functools.lru_cache(maxsize=None)
def _orbit_count(p: int, key: tuple[int, ...], patterns) -> int:
    """The plain count of one orbit representative, once per process.

    Avoiding the patterns only links rays that share a live pattern, so
    the count is a product.  A ray of degree 0 has one form and kills
    the patterns through it; a ray on no live pattern contributes all
    its normalized forms; each component (``_components``) is counted
    at its own orbit key.  A key whose live patterns are all of them, in
    one component, is walked by ``_count``.
    """
    free, split = _components(
        frozenset(a for a, x in enumerate(key) if x), patterns)
    if split == ((tuple(range(patterns.nvars)), patterns),):
        return _count(p, key, patterns.minimal)
    count = math.prod((p ** (key[a] + 1) - 1) // (p - 1) for a in free)
    for rays, sub in split:
        count *= _pattern_count(p, sub, tuple(key[a] for a in rays))
    return count


def _pattern_count(p: int, patterns, e: tuple[int, ...]) -> int:
    """The plain count of a checked degree vector, at its orbit key."""
    return _orbit_count(p, _orbit_keys(patterns)[e], patterns)


def _checked_degrees(
    p: int,
    fan: Fan,
    e: Sequence[int],
    budget: int | None,
    jet: "JetSpec | None" = None,
) -> DegreeVector:
    """The degree vector, after the checks every count makes.

    Refuses with BudgetError when the product of the form-space sizes
    exceeds the budget.
    """
    _check_prime(p)
    dv = checked_degrees(fan, e)
    if jet is not None:
        jet.validate_for(p, fan.nrays)
    limit = _resolve_budget(budget)
    # a degree x of at least the limit's bit length has p^x > limit forms
    # on its own, so no form count past that is built
    bits = limit.bit_length()
    required = 1
    for x in dv.entries:
        if x >= bits:
            raise _budget_refusal(p, dv.entries, limit)
        required *= _form_count(p, x)
        if required > limit:
            raise _budget_refusal(p, dv.entries, limit)
    return dv


@functools.lru_cache(maxsize=None)
def _form_count(p: int, x: int) -> int:
    """The number of normalized forms of degree x over F_p.  Asked only
    for degrees below the bit length of a budget, so the cache holds a
    few dozen counts per prime."""
    return (p ** (x + 1) - 1) // (p - 1)


def _budget_refusal(p: int, entries: tuple[int, ...],
                    limit: int) -> BudgetError:
    """The refusal of a degree vector whose form tuples pass the limit,
    with their number when it has at most 4,300 digits, as many as
    Python turns into text by default.  Each form count of degree x is
    at least p^x >= 2^x, so past a degree sum of 4 * 4,300 the number
    has more digits and is not built: the message gives the lower bound
    p^sum instead, and ``required`` is None."""
    total = sum(entries)
    if total <= 4 * 4300:
        required = math.prod((p ** (x + 1) - 1) // (p - 1) for x in entries)
        if required < 10 ** 4300:
            return BudgetError(required, limit)
    return BudgetError(None, limit, f"at least {p}^{total}")


def ff_pattern_count(
    p: int,
    fan: Fan,
    e: Sequence[int],
    budget: int | None = None,
) -> int:
    """Number of divisor tuples of multidegree e avoiding all patterns.

    Tuples of normalized forms, one per ray, such that no minimal
    forbidden set of them has a common projective root.  Refuses to run
    when the product of the form-space sizes exceeds the budget, before
    any cached count is looked up.  Degree vectors in one orbit of the
    pattern automorphisms share one count, at the key that toric's memo
    for the fan's pattern set holds for e (``_orbit_keys``).  That count
    is the product over the rays of degree 0, the rays on no live
    pattern and the components of the live patterns (``_orbit_count``);
    components are shared across vectors and fans.  Jet counts
    (``ff_constrained_count``) are never split.
    """
    e = _checked_degrees(p, fan, e, budget).entries
    return _pattern_count(p, pattern_set(fan), e)


def ff_hom_count(
    p: int,
    fan: Fan,
    d: Sequence[int],
    budget: int | None = None,
) -> int:
    """Point count of the space of degree-d maps over F_p.

    Counts tuples of nonzero forms (all scalings of the normalized
    tuples) avoiding the patterns, then divides by the order of the
    Neron-Severi torus, which divides every such count (``_hom_count``).
    Zero outside the dual effective cone, once the checks and the budget
    have run.
    """
    d = _checked_degrees(p, fan, d, budget).entries
    return _hom_count(p, fan, d) if eff_dual_contains(fan, d) else 0


def _hom_count(p: int, fan: Fan, d: tuple[int, ...]) -> int:
    """ff_hom_count of a degree vector that _checked_degrees passed, in
    the dual effective cone.  That checked the fan, so its Picard rank
    is nrays - dim (toric.picard_rank): the count of normalized tuples
    times the (p - 1)^nrays scalings of each, over the torus order
    (p - 1)^(nrays - dim), is the count times (p - 1)^dim."""
    return _pattern_count(p, pattern_set(fan), d) * (p - 1) ** fan.dim


def reduce_point(pt: Sequence[int], p: int) -> int | None:
    """Reduce a primitive (x0, x1) point of P^1(Q) modulo p.

    Returns the affine value x1/x0 in F_p, or None for the point at
    infinity [0:1].  The prime is checked first, for Fermat's inverse.
    """
    _check_prime(p)
    if len(pt) != 2:
        raise ValueError(f"point {tuple(pt)} does not have two coordinates")
    x0, x1 = (_integer(x, "point coordinate") % p for x in pt)
    if x0:
        return (x1 * pow(x0, p - 2, p)) % p
    if x1:
        return None
    raise ValueError(f"point {tuple(pt)} is not primitive modulo {p}")


@dataclass(frozen=True)
class JetSpec:
    """A jet target at one rational point of P^1 over F_p.

    ``point`` is an affine value (int) or None for infinity; ``target``
    gives, per ray, the m+1 coefficients of a unit truncated series in
    the local parameter at the point.
    """

    point: int | None
    order: int
    target: tuple[tuple[int, ...], ...]

    @classmethod
    def identity(
        cls, nrays: int, point: int | None, order: int = 0
    ) -> "JetSpec":
        jet = (1,) + (0,) * order
        return cls(point, order, (jet,) * nrays)

    def validate_for(self, p: int, nrays: int) -> None:
        if _integer(self.order, "jet order") < 0:
            raise ValueError("jet order must be nonnegative")
        if self.point is not None and not (
            0 <= _integer(self.point, "jet point") < p
        ):
            raise ValueError(f"point {self.point} is not reduced modulo {p}")
        if len(self.target) != nrays:
            raise ValueError(
                f"target arity {len(self.target)} does not match "
                f"ray count {nrays}"
            )
        for comp in self.target:
            if len(comp) != self.order + 1:
                raise ValueError("each target component needs order+1 entries")
            for x in comp:
                _integer(x, "target entry")
            if comp[0] % p == 0:
                raise ValueError(
                    "target is not a torus jet (component with zero "
                    "constant term)"
                )


def _series_mul(a, b, p, n):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def _series_inv(a, p, n):
    inv0 = pow(a[0] % p, p - 2, p)
    out = [inv0] + [0] * (n - 1)
    for j in range(1, n):
        acc = 0
        for i in range(1, j + 1):
            if i < len(a):
                acc += a[i] * out[j - i]
        out[j] = (-inv0 * acc) % p
    return tuple(out)


def _series_pow(a, k, p, n):
    if k < 0:
        return _series_pow(_series_inv(a, p, n), -k, p, n)
    result = (1,) + (0,) * (n - 1)
    base = tuple(x % p for x in a[:n]) + (0,) * max(0, n - len(a))
    while k:
        if k & 1:
            result = _series_mul(result, base, p, n)
        k >>= 1
        if k:
            base = _series_mul(base, base, p, n)
    return result


def _taylor_jet(coeffs: tuple[int, ...], point: int | None, m: int, p: int):
    """First m+1 Taylor coefficients of the dehomogenized form at the point."""
    e = len(coeffs) - 1
    if point is None:
        return tuple(coeffs[e - j] % p if e - j >= 0 else 0 for j in range(m + 1))
    out = []
    for j in range(m + 1):
        acc = 0
        for i in range(j, e + 1):
            acc += math.comb(i, j) * coeffs[i] * pow(point, i - j, p)
        out.append(acc % p)
    return tuple(out)


def ff_constrained_count(
    p: int,
    fan: Fan,
    d: Sequence[int],
    jet: JetSpec,
    budget: int | None = None,
) -> int:
    """Count degree-d maps whose jet at one point hits a torus-jet orbit.

    Tuples of nonzero forms avoiding the patterns whose truncated Taylor
    expansion at the marked point lies in the torus orbit of the target
    jet, divided by the order of the Neron-Severi torus.  Each form's
    relative jet (jet times target inverse) is scaled to constant term
    1, and forms with a zero constant term are left out.  The orbit is
    the kernel of the characters of the dense torus: a tuple counts
    when, for every coordinate i, the product of its relative jets to
    the powers v_alpha[i] of the rays is 1.  The characters are a
    homomorphism, so each form's value is its tuple of rel^(v_alpha[i])
    over the coordinates, and ``_count`` carries the running product of
    the values, tuples that agree on it merging.  Zero outside the dual
    effective cone, as for ff_hom_count.
    """
    d = _checked_degrees(p, fan, d, budget, jet).entries
    if not eff_dual_contains(fan, d):
        return 0
    n = jet.order + 1
    one = (1,) + (0,) * jet.order
    target_inv = [
        _series_inv(tuple(c % p for c in comp), p, n) for comp in jet.target
    ]

    # The unimodular cones make the rays span the lattice, so
    # 0 -> M -> Z^rays -> Pic -> 0 is exact with Pic free, and the image
    # of the Neron-Severi torus in the ray-indexed units is the common
    # kernel of the n characters x -> prod_alpha x_alpha^(v_alpha[i]).
    # A constant scaling moves each character by a constant only, so a
    # tuple of constant-term-1 jets meets the orbit exactly when all its
    # characters are 1, and then for (p-1)^rank scalings, which is the
    # torus order the count is divided by.  Values are numbered in order
    # of first sight, the identity 0, and the same (jet, exponent) pairs
    # and products recur across forms and states, so each is formed once.
    values = [(one,) * fan.dim]
    number = _Memo(lambda chars: values.append(chars) or len(values) - 1)
    number[values[0]] = 0
    powers = _Memo(lambda key: _series_pow(*key, p, n))
    times = _Memo(lambda pair: number[tuple(
        _series_mul(a, b, p, n) for a, b in zip(*map(values.__getitem__, pair))
    )])

    def forms(ray, e, k):
        keys = Counter()
        for f, m in zip(_form_table(p, e), _root_masks(p, e, k)):
            jet_at = _taylor_jet(f, jet.point, jet.order, p)
            if jet_at[0]:
                rel = _series_mul(jet_at, target_inv[ray], p, n)
                inv0 = pow(rel[0], p - 2, p)
                rel = tuple((x * inv0) % p for x in rel)
                keys[m, number[tuple(
                    powers[rel, x] if x else one for x in fan.rays[ray]
                )]] += 1
        return keys

    return _count(p, d, pattern_set(fan).minimal, forms, times)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one brute-force vs motivic comparison."""

    p: int
    kind: str
    vector: tuple[int, ...]
    brute: int
    predicted: int
    equal: bool
    elapsed_ms: int

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "e_or_d": list(self.vector),
            "brute": str(self.brute),
            "predicted": str(self.predicted),
            "equal": self.equal,
            "elapsed_ms": self.elapsed_ms,
        }


def _predicted(cls: LaurentClass, p: int) -> int:
    """The class at L = p, which must be an integer, summed in integers:
    the sum runs over the terms times p^-low, low the least exponent so
    far and at most 0, so it is the value times p^-low.  A remainder
    refuses, naming the exact value (``evaluate``)."""
    value = low = 0
    for e, v in cls.coeffs.items():
        if e < low:
            value *= p ** (low - e)
            low = e
        value += v * p ** (e - low)
    den = p ** -low
    if value % den:
        raise InternalCheckError(
            f"motivic prediction {evaluate(cls, p)} is not an integer at q={p}")
    return value // den


def oracle_compare(
    p: int,
    fan: Fan,
    e: Sequence[int] | None = None,
    d: Sequence[int] | None = None,
    budget: int | None = None,
) -> OracleReport:
    """Compare a motivic class against its brute-force count at L = p.

    Pass ``e`` to compare the configuration class, ``d`` to compare the
    map-space class; exactly one of the two.  The vector is checked
    once, as the counts check it, the budget refuses before any cached
    value is read, and a map degree is tested against the dual effective
    cone once; outside it both sides are 0.  The count and the
    prediction are then one record per p, kind and orbit key
    (moduli's ``_record``), since the orbit keeps both; the first
    comparison of an orbit builds it (``_compared``).
    """
    if (e is None) == (d is None):
        raise ValueError("pass exactly one of e (configurations) or d (maps)")
    start = time.perf_counter()
    dv = _checked_degrees(p, fan, e if d is None else d, budget)
    vec = dv.entries
    kind = "config" if d is None else "hom"
    brute = predicted = 0
    if d is None or _maps_exist(fan, vec):
        brute, predicted = _record(fan, ("compare", p, kind), vec,
                                   lambda: _compared(p, fan, dv, kind))
    elapsed = int((time.perf_counter() - start) * 1000)
    return OracleReport(
        p, kind, vec, brute, predicted, brute == predicted, elapsed
    )


def _compared(p: int, fan: Fan, dv: DegreeVector,
              kind: str) -> tuple[int, int]:
    """The count and the prediction of a checked vector, in the cone for
    a map degree.  The prediction is the class at L = p, summed in
    integers (``_predicted``), with no Fraction built; the configuration
    class is read through pattern_config_class, which checks the fan and
    the vector again, on this first comparison of the orbit only."""
    vec = dv.entries
    if kind == "config":
        brute = _pattern_count(p, pattern_set(fan), vec)
        cls = pattern_config_class(fan, dv, 0)
    else:
        brute, cls = _hom_count(p, fan, vec), _hom_class(fan, vec)
    return brute, _predicted(cls, p)
