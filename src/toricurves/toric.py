"""Fan ingestion and combinatorics for smooth complete split toric data.

A fan is given by its primitive ray vectors and its maximal cones (as ray
index sets).  Everything downstream keys off the ray order, which is never
permuted: ray i is variable t_i in every polynomial and series produced by
the other modules.

Validation is exact and integer-only: smoothness and the walls are
determinants, and a point lies in a cone by Cramer's rule.  The caches of
the package are keyed by the fan or by its pattern set, each of which
takes the hash of its fields once and keeps it.  The search for the
pattern automorphisms and the orbit key of a degree vector live here,
with one memo of the keys per pattern set (_orbit_keys), which checks
the automorphisms, shared by the oracle and the engine.  So does the
split of a vector's live patterns into connected components, each a
pattern set of its own (_components), by which both read a count or a
class as a product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter, mul
from typing import NamedTuple

from .errors import (FanValidationError, InternalCheckError, LimitError,
                     _integer, _is_int)
from .grothendieck import ZERO, LaurentClass

MAX_RAYS = 24
# the most class images the search for pattern automorphisms tries
SYMMETRY_NODES = 512


@dataclass(frozen=True)
class Fan:
    """dim = ambient lattice rank n; rays = primitive integer vectors;
    max_cones = sorted tuples of ray indices."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __hash__(self) -> int:
        # every cache keyed by a fan hashes it, so the hash of the fields
        # is taken once and kept on the instance, outside the fields
        try:
            return self._hash
        except AttributeError:
            value = hash((self.dim, self.rays, self.max_cones))
            object.__setattr__(self, "_hash", value)
            return value

    @property
    def nrays(self) -> int:
        return len(self.rays)


@dataclass(frozen=True)
class FanReport:
    smooth: bool
    complete: bool
    details: tuple[str, ...]

    def to_json(self) -> dict:
        return {"smooth": self.smooth, "complete": self.complete,
                "details": list(self.details)}


@dataclass(frozen=True)
class PatternSet:
    """The sets of rays contained in no cone, encoded by minimal members,
    each an ascending tuple of ray indices, by size and then in order."""

    nvars: int
    minimal: tuple[tuple[int, ...], ...]

    def __hash__(self) -> int:
        # the engine's caches are keyed by pattern sets, so the hash is
        # kept on the instance as the fan's is
        try:
            return self._hash
        except AttributeError:
            value = hash((self.nvars, self.minimal))
            object.__setattr__(self, "_hash", value)
            return value


# ---------------------------------------------------------------------------
# exact integer linear algebra


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    Args:
        rows: n lists of n ints.

    Returns:
        The exact determinant.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    assert all(len(r) == n for r in m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _cone_contains(cols: list[tuple[int, ...]], point: list[int]) -> bool:
    """Does the cone spanned by the n columns of M hold the point?

    By Cramer's rule the point's coordinate k in the columns is
    det(M_k) / det(M), M_k being M with column k replaced by the point,
    so it lies in the cone when det(M) != 0 and every det(M) det(M_k)
    >= 0; dependent columns give False.  A matrix and its transpose
    share their determinant, so the columns go to det_int as rows.
    """
    d = det_int(cols)
    return d != 0 and all(d * det_int(cols[:k] + [point] + cols[k + 1:]) >= 0
                          for k in range(len(cols)))


# ---------------------------------------------------------------------------
# parsing and validation


def parse_fan(document: dict) -> Fan:
    """Build a Fan from {"rays": [...], "max_cones": [...]}.

    Raises FanValidationError for malformed data, non-primitive or
    duplicate rays, and out-of-range cone indices, and LimitError for a
    well-formed fan with more than MAX_RAYS rays.
    """
    if not isinstance(document, dict):
        raise FanValidationError("fan document must be a JSON object")
    for key in ("rays", "max_cones"):
        if key not in document:
            raise FanValidationError(f"fan document lacks the '{key}' field")
    rays_in = document["rays"]
    if not isinstance(rays_in, list) or not rays_in:
        raise FanValidationError("'rays' must be a nonempty list of integer vectors")
    rays = []
    dim = None
    for idx, vec in enumerate(rays_in):
        if not isinstance(vec, list) or not all(map(_is_int, vec)):
            raise FanValidationError(f"ray at index {idx} is not an integer vector")
        if dim is None:
            dim = len(vec)
            if dim == 0:
                raise FanValidationError("rays must have positive length")
        elif len(vec) != dim:
            raise FanValidationError(f"ray at index {idx} has length {len(vec)}, expected {dim}")
        g = math.gcd(*(abs(x) for x in vec)) if len(vec) > 1 else abs(vec[0])
        if g != 1:
            raise FanValidationError(f"non-primitive ray at index {idx} (gcd {g})")
        rays.append(tuple(vec))
    if len(set(rays)) != len(rays):
        dup = next(r for r in rays if rays.count(r) > 1)
        raise FanValidationError(f"duplicate ray {list(dup)}")
    cones_in = document["max_cones"]
    if not isinstance(cones_in, list) or not cones_in:
        raise FanValidationError("'max_cones' must be a nonempty list of index lists")
    cones = []
    for cdx, cone in enumerate(cones_in):
        if not isinstance(cone, list) or not all(map(_is_int, cone)):
            raise FanValidationError(f"cone at index {cdx} is not an index list")
        for i in cone:
            if not 0 <= i < len(rays):
                raise FanValidationError(f"cone at index {cdx} references ray {i}, "
                                         f"but there are {len(rays)} rays")
        if len(set(cone)) != len(cone):
            raise FanValidationError(f"cone at index {cdx} repeats a ray index")
        cones.append(tuple(sorted(cone)))
    if len(rays) > MAX_RAYS:
        raise LimitError(f"{len(rays)} rays exceed the supported maximum {MAX_RAYS}")
    return Fan(dim=dim, rays=tuple(rays), max_cones=tuple(cones))


FIXTURE_NAMES = ("p1", "p2", "p3", "p1xp1", "bl1p2", "dp6")


def fixture_fan(name: str) -> Fan:
    """Load one of the bundled fans by short name (see FIXTURE_NAMES)."""
    import json
    from importlib import resources

    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture fan {name!r}; have {FIXTURE_NAMES}")
    path = resources.files(__package__).joinpath(f"fans/{name}.json")
    return parse_fan(json.loads(path.read_text()))


@lru_cache(maxsize=None)
def validate(fan: Fan) -> FanReport:
    """Check smoothness and completeness, both exactly.

    Smooth: every maximal cone has dim-many rays forming a matrix of
    determinant +-1.  Complete: every facet of a maximal cone is shared
    with exactly one other maximal cone, the wall-adjacency graph is
    connected, the two cones on each wall lie on opposite sides of it,
    and the barycenter (sum of rays) of cone 0 lies in no other maximal
    cone, so the cones cover space exactly once.
    """
    n = fan.dim
    details = []
    smooth = True
    for cdx, cone in enumerate(fan.max_cones):
        if len(cone) != n:
            smooth = False
            details.append(f"cone {cdx} has {len(cone)} rays, expected {n}")
            continue
        d = det_int([list(fan.rays[i]) for i in cone])
        if abs(d) != 1:
            smooth = False
            details.append(f"cone {cdx} has determinant {d}")

    complete = True
    facets: dict[frozenset, list[int]] = {}
    for cdx, cone in enumerate(fan.max_cones):
        for facet in itertools.combinations(cone, max(len(cone) - 1, 0)):
            facets.setdefault(frozenset(facet), []).append(cdx)
    for facet, owners in facets.items():
        if len(owners) != 2:
            complete = False
            details.append(f"facet {sorted(facet)} lies in {len(owners)} maximal cones")
    if complete and len(fan.max_cones) > 1:
        adjacency = {i: set() for i in range(len(fan.max_cones))}
        for owners in facets.values():
            if len(owners) == 2:
                adjacency[owners[0]].add(owners[1])
                adjacency[owners[1]].add(owners[0])
        seen = {0}
        stack = [0]
        while stack:
            for nb in adjacency[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(fan.max_cones):
            complete = False
            details.append("wall-adjacency graph is disconnected")
    if complete and all(len(cone) == n for cone in fan.max_cones):
        for facet, owners in facets.items():
            wall = [list(fan.rays[i]) for i in sorted(facet)]
            sides = [
                det_int(wall + [list(fan.rays[i])])
                for cdx in owners
                for i in fan.max_cones[cdx] if i not in facet
            ]
            if sides[0] * sides[1] >= 0:
                complete = False
                details.append(f"cones {owners[0]} and {owners[1]} lie on one "
                               f"side of their wall {sorted(facet)}")
        # Once every wall lies in exactly two cones on opposite sides and
        # the wall graph is connected, crossing a wall swaps its two cones,
        # so every point off the codimension-2 faces lies in the same
        # number d >= 1 of cones.  The barycenter of cone 0 is interior to
        # it, and it lies in a second cone exactly when d >= 2.
        barycenter = [sum(fan.rays[i][j] for i in fan.max_cones[0]) for j in range(n)]
        for other, cone in enumerate(fan.max_cones[1:], start=1):
            if _cone_contains([fan.rays[i] for i in cone], barycenter):
                complete = False
                details.append(f"the barycenter of cone 0 lies in cone {other}")
                break
    return FanReport(smooth=smooth, complete=complete, details=tuple(details))


def require_valid(fan: Fan) -> FanReport:
    report = validate(fan)
    if not (report.smooth and report.complete):
        flaws = "; ".join(report.details) or "fan is not smooth and complete"
        raise FanValidationError(flaws)
    return report


# ---------------------------------------------------------------------------
# derived data


def _faces(fan: Fan) -> frozenset[int]:
    """Every cone of the fan as a ray bitmask (bit i = ray i).

    Faces of a smooth (hence simplicial) cone are the subsets of its rays.
    """
    faces = set()
    for cone in fan.max_cones:
        mask = sum(1 << i for i in cone)
        sub = mask
        while True:
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & mask
    return frozenset(faces)


def enumerate_cones(fan: Fan) -> tuple[int, ...]:
    """f-vector (f_0, ..., f_n): numbers of cones of each dimension."""
    require_valid(fan)
    fv = [0] * (fan.dim + 1)
    for face in _faces(fan):
        fv[face.bit_count()] += 1
    return tuple(fv)


def class_of_variety(fan: Fan) -> LaurentClass:
    """Sum over cones of (L-1)^(n - dim cone), via the f-vector."""
    fv = enumerate_cones(fan)
    n = fan.dim
    lm1 = LaurentClass({1: 1, 0: -1})
    total = ZERO
    for k, fk in enumerate(fv):
        total = total + lm1 ** (n - k) * fk
    return total


def picard_rank(fan: Fan) -> int:
    """Rank of the Picard group: nrays - dim for a smooth complete fan
    (Cox-Little-Schenck, Toric Varieties, Thm 4.1.3)."""
    require_valid(fan)
    return fan.nrays - fan.dim


@lru_cache(maxsize=None)
def pattern_set(fan: Fan) -> PatternSet:
    """Minimal ray sets contained in no maximal cone.

    Each is a face plus one more ray: a set that is not a face, but
    becomes one when any one of its rays is dropped.  The added ray is
    taken above every ray of the face, so each set is found once, and
    its rays come in ascending order.
    """
    require_valid(fan)
    faces = _faces(fan)
    minimal: list[tuple[int, ...]] = []
    for face in faces:
        rays = [i for i in range(face.bit_length()) if face >> i & 1]
        for r in range(face.bit_length(), fan.nrays):
            s = face | 1 << r
            if s not in faces and all(s & ~(1 << i) in faces for i in rays):
                minimal.append((*rays, r))
    minimal.sort(key=lambda s: (len(s), s))
    return PatternSet(nvars=fan.nrays, minimal=tuple(minimal))


class _Symmetries(NamedTuple):
    """What ``_symmetries`` found: the twin classes of two or more rays,
    one permutation per coset of the twin swaps, and the nodes visited."""

    twins: tuple[tuple[int, ...], ...]
    perms: tuple[tuple[int, ...], ...]
    nodes: int


def _symmetries(
    nrays: int, patterns: tuple[tuple[int, ...], ...]
) -> _Symmetries:
    """Ray permutations that map the pattern set onto itself.

    Rays i and j are twins when swapping them keeps the patterns.  Being
    twins is an equivalence, and an automorphism s turns the swap (i j)
    into the swap (s(i) s(j)), so the twin swaps generate a normal
    subgroup T and each automorphism maps twin classes onto twin
    classes.  Each coset of T then holds exactly one automorphism that
    is increasing on every twin class; ``perms`` lists those, as tuples
    perm with ray a going to perm[a], the identity first.

    A depth-first search picks the image of each twin class in turn,
    among the unused classes of the same size whose rays lie on
    patterns of the same sizes.  It drops a partial map when a pattern
    inside the classes placed so far goes to a non-pattern, or when the
    image of those classes holds a different number of patterns.  The
    search tries at most SYMMETRY_NODES class images, so on a large
    group (that of (P^1)^8 has 8! cosets) it may list only some of the
    cosets.  The identity is found after one node per class, at most
    24, so it is always listed.
    """
    masks = {sum(1 << a for a in pat) for pat in patterns}

    def swap_keeps(i, j):
        both = 1 << i | 1 << j
        return all(
            (m ^ both if m & both not in (0, both) else m) in masks
            for m in masks
        )

    classes: list[list[int]] = []
    for ray in range(nrays):
        for cls in classes:
            if swap_keeps(cls[0], ray):
                cls.append(ray)
                break
        else:
            classes.append([ray])
    owner = {ray: c for c, cls in enumerate(classes) for ray in cls}
    shape = [
        (len(cls), sorted(len(pat) for pat in patterns if cls[0] in pat))
        for cls in classes
    ]
    class_mask = [sum(1 << a for a in cls) for cls in classes]
    touching = [[m for m in masks if m & cm] for cm in class_mask]
    # the patterns whose last class is c
    closing: list[list[tuple[int, ...]]] = [[] for _ in classes]
    for pat in patterns:
        closing[max(owner[a] for a in pat)].append(pat)

    image = list(range(nrays))
    used = [False] * len(classes)
    perms: list[tuple[int, ...]] = []
    nodes = 0

    def place(c, covered):
        nonlocal nodes
        if c == len(classes):
            perms.append(tuple(image))
            return
        for d, cls in enumerate(classes):
            if used[d] or shape[d] != shape[c]:
                continue
            if nodes == SYMMETRY_NODES:
                return
            nodes += 1
            for a, b in zip(classes[c], cls):
                image[a] = b
            now = covered | class_mask[d]
            if sum(m & now == m for m in touching[d]) == len(closing[c]) \
                    and all(sum(1 << image[a] for a in pat) in masks
                            for pat in closing[c]):
                used[d] = True
                place(c + 1, now)
                used[d] = False

    place(0, 0)
    twins = tuple(tuple(cls) for cls in classes if len(cls) > 1)
    return _Symmetries(twins, tuple(perms), nodes)


def _orbit_key(e: tuple[int, ...], twins: tuple[tuple[int, ...], ...],
               getters: tuple[itemgetter, ...]) -> tuple[int, ...]:
    """The least relabelling of e under the automorphisms found: the twin
    classes and one itemgetter per permutation of ``_symmetries``.

    Relabelling the rays together with the degrees keeps an oracle
    count and a configuration class: each takes at the vector with entry
    e[perm[a]] at ray a its value at e.  With each twin class's
    entries of e sorted first, that vector is sorted on the twin classes
    too (perm is increasing on them), the least one over perm's coset.
    Equal keys mean the same orbit, so a search that missed some
    automorphisms only shares fewer values.  Sorting and relabelling
    keep the entries, so the key has the largest entry of e.  Each
    relabelling is one getter, itemgetter(*perm) (a pattern set has two
    or more rays, so each gives a tuple).
    """
    if twins:
        e = list(e)
        for cls in twins:
            for a, x in zip(cls, sorted(e[a] for a in cls)):
                e[a] = x
    return min([get(e) for get in getters])


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)``."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


@lru_cache(maxsize=None)
def _orbit_keys(patterns: PatternSet) -> _Memo:
    """{e: its orbit key} for the degree vectors of a pattern set, each
    key computed on first use by ``_orbit_key`` with one itemgetter per
    checked permutation, built once per memo, and the automorphisms the
    search lists kept as ``sym``.
    One memo per pattern set: the oracle and the engine share it, so
    each vector is keyed once per process.

    Each listed permutation and each swap of two twin rays must map the
    patterns onto themselves, or InternalCheckError names it; every
    relabelling ``_orbit_key`` makes is a product of these.  This is as
    strong as a check of P = prod_J (1 - x^J) (mobius): the collections
    J form an antichain, so the terms of P of minimal support are the
    -x^J, and P is built from them, so a permutation keeps P exactly
    when it keeps the patterns.
    """
    sym = _symmetries(patterns.nvars, patterns.minimal)
    masks = {sum(1 << a for a in pat) for pat in patterns.minimal}
    swaps = [tuple(j if a == i else i if a == j else a
                   for a in range(patterns.nvars))
             for cls in sym.twins for i, j in itertools.combinations(cls, 2)]
    for perm in (*sym.perms, *swaps):
        if {sum(1 << perm[a] for a in pat) for pat in patterns.minimal} != masks:
            raise InternalCheckError(
                f"ray permutation {perm} does not keep the patterns")
    keys = _Memo(partial(_orbit_key, twins=sym.twins, getters=tuple(
        itemgetter(*perm) for perm in sym.perms)))
    keys.sym = sym
    return keys


@lru_cache(maxsize=None)
def _components(support: frozenset[int], patterns: PatternSet):
    """The rays of ``support`` on no live pattern, and the components.

    A pattern is live when all its rays are in the support, and two
    live patterns are in one component when a chain of live patterns,
    each sharing a ray with the next, joins them.  A component is its
    rays in ascending order and its pattern set, the patterns relabelled
    0..k-1 in that order and sorted as ``pattern_set`` sorts them.
    """
    parts: list[tuple[set[int], list]] = []
    for pat in patterns.minimal:
        if not support.issuperset(pat):
            continue
        rays, pats = set(pat), [pat]
        for part in [q for q in parts if not q[0].isdisjoint(pat)]:
            parts.remove(part)
            rays |= part[0]
            pats += part[1]
        parts.append((rays, pats))
    free = tuple(sorted(support.difference(*[rays for rays, _ in parts])))
    split = []
    for rays, pats in parts:
        rays = tuple(sorted(rays))
        place = {a: i for i, a in enumerate(rays)}
        relabelled = sorted((tuple(place[a] for a in pat) for pat in pats),
                            key=lambda s: (len(s), s))
        split.append((rays, PatternSet(len(rays), tuple(relabelled))))
    return free, tuple(split)


@lru_cache(maxsize=None)
def _columns(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """The ray vectors' coordinates, one tuple per coordinate."""
    return tuple(zip(*fan.rays))


def eff_dual_contains(fan: Fan, d) -> bool:
    """Does the weighted ray sum vanish?  (Membership in the dual of the
    cone of effective divisor classes, for multidegrees of actual curves.)
    Each coordinate of the sum is d against one of the fan's columns."""
    d = tuple(d)
    for x in d:
        # a plain int needs no call to be known an integer
        if type(x) is not int:
            _integer(x, "degree entry")
    if len(d) != fan.nrays:
        raise ValueError(f"degree vector needs {fan.nrays} entries")
    if min(d) < 0:
        return False
    return not any(sum(map(mul, d, col)) for col in _columns(fan))

