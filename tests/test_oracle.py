"""Finite-field brute force against independent reference computations.

The references here share as little as possible with the production
counters: common roots are decided by Sylvester resultants, counts by
raw itertools enumeration over coefficient vectors, jets by the Taylor
formula written out directly.
"""

import functools
import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from toricurves.errors import BudgetError, FanValidationError, InternalCheckError
from toricurves.grothendieck import LaurentClass, evaluate
from toricurves import FIXTURE_NAMES, moduli, oracle, toric
from reference import (
    HIRZEBRUCH_2,
    clear_caches,
    common_projective_root,
    count_unmerged,
    fan_product,
    picard_projection,
    record_work,
    string_orbit_key,
)
from toricurves.toric import (
    PatternSet,
    eff_dual_contains,
    parse_fan,
    pattern_set,
    picard_rank,
)
from toricurves.moduli import (
    JetCondition,
    constrained_main_term,
    convergence_report,
    hom_class,
    normalized_hom_class,
    pattern_config_class,
    tamagawa,
)
from toricurves.cli import main
from toricurves.oracle import (
    _form_table,
    _irreducibles,
    _root_masks,
    _trim,
    ALLOWED_PRIMES,
    JetSpec,
    ff_constrained_count,
    ff_hom_count,
    ff_pattern_count,
    oracle_compare,
    reduce_point,
)

# ---------------------------------------------------------------------------
# reference helpers


def sylvester_resultant_mod_p(f, g, p):
    """Resultant of two binary forms from full coefficient tuples.

    Zero exactly when the forms share a projective root over the
    algebraic closure.  Gaussian elimination mod p.
    """
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(f):
            row[i + j] = c % p
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(g):
            row[i + j] = c % p
        rows.append(row)
    det = 1
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = (-det) % p
        inv = pow(rows[col][col], p - 2, p)
        det = (det * rows[col][col]) % p
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = (rows[r][col] * inv) % p
                for c in range(col, size):
                    rows[r][c] = (rows[r][c] - factor * rows[col][c]) % p
    return det


def reference_pattern_count(p, fan, e):
    patterns = pattern_set(fan).minimal
    tables = [_form_table(p, x) for x in e]
    count = 0
    for tup in itertools.product(*tables):
        if any(
            common_projective_root(p, [tup[i] for i in pat])
            for pat in patterns
        ):
            continue
        count += 1
    return count


def smul(a, b, p, n):
    out = [0] * n
    for i in range(min(n, len(a))):
        for j in range(min(n - i, len(b))):
            out[i + j] = (out[i + j] + a[i] * b[j]) % p
    return tuple(out)


def sinv(a, p, n):
    out = [pow(a[0], p - 2, p)] + [0] * (n - 1)
    for j in range(1, n):
        acc = sum(a[i] * out[j - i] for i in range(1, min(j, len(a) - 1) + 1))
        out[j] = (-out[0] * acc) % p
    return tuple(out)


def spow(a, k, p, n):
    if k < 0:
        a, k = sinv(a, p, n), -k
    out = (1,) + (0,) * (n - 1)
    for _ in range(k):
        out = smul(out, a, p, n)
    return out


def taylor(coeffs, point, m, p):
    e = len(coeffs) - 1
    if point is None:
        return tuple(coeffs[e - j] if e - j >= 0 else 0 for j in range(m + 1))
    return tuple(
        sum(
            math.comb(i, j) * coeffs[i] * point ** (i - j)
            for i in range(j, e + 1)
        ) % p
        for j in range(m + 1)
    )


def reference_constrained_count(p, fan, d, jet):
    """Raw enumeration of form tuples whose jet lies in the target orbit;
    0 outside the dual effective cone, where there are no maps."""
    if not eff_dual_contains(fan, d):
        return 0
    rank = picard_rank(fan)
    projection = picard_projection(fan)
    m = jet.order
    n = m + 1
    patterns = pattern_set(fan).minimal
    unit_jets = [
        (c,) + rest
        for c in range(1, p)
        for rest in itertools.product(range(p), repeat=m)
    ]
    image = set()
    for us in itertools.product(unit_jets, repeat=rank):
        vec = []
        for a in range(fan.nrays):
            acc = (1,) + (0,) * m
            for r in range(rank):
                w = projection[r][a]
                if w:
                    acc = smul(acc, spow(us[r], w, p, n), p, n)
            vec.append(acc)
        image.add(tuple(vec))
    orbit = {
        tuple(smul(t, v, p, n) for t, v in zip(jet.target, vec))
        for vec in image
    }
    raws = [
        [c for c in itertools.product(range(p), repeat=x + 1) if any(c)]
        for x in d
    ]
    count = 0
    for tup in itertools.product(*raws):
        jets = tuple(taylor(c, jet.point, m, p) for c in tup)
        if any(j[0] == 0 for j in jets):
            continue
        if any(
            common_projective_root(p, [tup[i] for i in pat])
            for pat in patterns
        ):
            continue
        if jets in orbit:
            count += 1
    div = (p - 1) ** rank
    assert count % div == 0
    return count // div


# ---------------------------------------------------------------------------


class TestForms:
    @pytest.mark.parametrize("p,e", [(2, 0), (2, 3), (3, 2), (5, 1)])
    def test_enumeration_count_and_order(self, p, e):
        vecs = list(_form_table(p, e))
        assert len(vecs) == (p ** (e + 1) - 1) // (p - 1)
        assert vecs == sorted(vecs)
        assert len(set(vecs)) == len(vecs)

    def test_dehomogenization(self):
        f = (0, 1, 2, 0)
        assert _trim(f) == (0, 1, 2)
        # bit 0 of a root mask is the point [0:1]
        assert _root_masks(3, 3, 1)[_form_table(3, 3).index(f)] & 1

    @pytest.mark.parametrize("p,top", [(2, 6), (3, 6), (5, 3), (7, 3)])
    def test_zeta_formula_matches_the_enumeration(self, p, top):
        """The forms per root mask of a plain count, read off the zeta
        function of P^1, are the forms listed and trial-divided."""
        for e in range(top + 1):
            for k in range(e + 1):
                listed = dict(Counter(_root_masks(p, e, k)))
                assert oracle._mask_counts(p, e, k) == listed, (e, k)

    @pytest.mark.parametrize("p", ALLOWED_PRIMES)
    def test_class_sizes_from_the_zeta_function_match_the_listing(self, p):
        """The points of each degree, read off the zeta function of P^1,
        are [0:1] with the monic irreducibles listed by trial division,
        whatever the length of the series peeled with them."""
        for k in range(5):
            listed = tuple(len(_irreducibles(p, j)) + (j == 1)
                           for j in range(1, k + 1))
            for e in range(k, k + 3):
                assert oracle._zeta_peel(p, k, e)[0] == listed, (k, e)

    def test_plain_counts_list_no_polynomial(self, p2, monkeypatch):
        """Listing the irreducibles of degree 5 over F_7 took about 1 s;
        plain counts now size the degree classes without it."""
        clear_caches()

        def listing(p, k):
            raise AssertionError(f"listed the irreducibles of degree {k}")

        monkeypatch.setattr(oracle, "_irreducibles", listing)
        assert ff_pattern_count(7, p2, (3, 3, 3)) > 0


class TestOrbitMerge:
    @pytest.mark.parametrize("name", [*FIXTURE_NAMES, "F2", "p1xp2"])
    def test_merged_walk_matches_the_unmerged_walk(self, fans, name):
        """Every plain count of the gate box at p = 2, 3, by the whole
        walk and by the product over components (``ff_pattern_count``)."""
        fan = fan_named(fans, name)
        patterns = toric.pattern_set(fan).minimal
        top = 3 if fan.nrays <= 4 else 2
        for e in itertools.product(range(top + 1), repeat=fan.nrays):
            for p in (2, 3):
                want = count_unmerged(p, e, patterns)
                assert oracle._count(p, e, patterns) == want, (e, p)
                assert ff_pattern_count(p, fan, e) == want, (e, p)

    def test_product_matches_the_unmerged_walk_on_a_mixed_component(self):
        """A pair and a triple on one ray make a component whose count
        changes when its degrees move, unlike a lone pattern's; ray 4
        lies on no pattern."""
        patterns = PatternSet(5, ((0, 1), (0, 2, 3)))
        for e in itertools.product(range(3), repeat=5):
            for p in (2, 3):
                assert (oracle._orbit_count(p, e, patterns)
                        == count_unmerged(p, e, patterns.minimal)), (e, p)

    def test_merged_walk_matches_at_a_larger_prime(self, dp6):
        patterns = toric.pattern_set(dp6).minimal
        e = (2,) * 6
        assert (oracle._count(5, e, patterns)
                == count_unmerged(5, e, patterns) == 139873560)

    def test_rays_and_counts_share_each_plain_step_table(self, p2, fans):
        """One plain step table per (p, e, k, slots hit): on p2 at
        (2, 2, 2) the first two rays carry the one pattern and share a
        table, and the last ends it; p3 at (2, 2, 2, 2) then meets only
        those two, and builds none."""
        clear_caches()
        plane, space = (toric.pattern_set(fan).minimal
                        for fan in (p2, fans["p3"]))
        assert (oracle._count(3, (2, 2, 2), plane)
                == count_unmerged(3, (2, 2, 2), plane))
        info = oracle._plain_step.cache_info()
        assert (info.misses, info.hits) == (2, 1)
        assert (oracle._count(3, (2,) * 4, space)
                == count_unmerged(3, (2,) * 4, space))
        info = oracle._plain_step.cache_info()
        assert (info.misses, info.hits) == (2, 5)

    def test_groups_of_one_orbit_share_a_representative(self):
        # p = 3, degree 1 only: bit 0 is [0:1], bits 1-3 the rational points
        reps = oracle._orbit_reps(3, 1)
        assert reps[0b0001, (0b0011,), ()] is reps[0b1000, (0b1100,), ()]
        assert reps[0b0001, (0b0011,), ()] != reps[0b0001, (0b0110,), ()]
        # bits above the tracked points are never read
        assert reps[0, (-1,), ()] is reps[0, (0b1111,), ()]
        # p = 2, degrees 1 and 2: the one quadratic point has no partner
        reps = oracle._orbit_reps(2, 2)
        assert reps[0b0001, (), ()] is reps[0b0100, (), ()]
        assert reps[0b0001, (), ()] != reps[0b1000, (), ()]

    def test_groups_with_different_numbers_of_masks_never_share_a_key(
            self, monkeypatch):
        """One memo per (p, k) serves every step of every count, and a
        split path names the degree class of a part only among groups of
        as many masks: without their number, the first group below
        stood for the second, and the triangle's count read 0."""
        reps = oracle._orbit_reps.__wrapped__(2, 1)
        assert reps[0, (), ()] != reps[0, (0,), ()]
        assert reps[0b111, (), ()] != reps[0, (0b111,), ()]
        fresh = functools.lru_cache(oracle._orbit_reps.__wrapped__)
        monkeypatch.setattr(oracle, "_orbit_reps", fresh)
        assert oracle._count(2, (1, 1, 1), ((0, 1, 2),)) == 24

    def test_the_key_groups_as_the_string_key_does(self, fans, monkeypatch):
        """Every group that the gate's plain counts meet at p = 2 and 3,
        and p2 (3,3,3) and dp6 (2,...,2) at p = 5 and 7, with the count
        cache emptied: two groups share a representative exactly when
        their binary-string orbits (``string_orbit_key``) are equal."""
        shared = oracle._orbit_reps
        seen = {}

        def recording(p, k):
            if (p, k) not in seen:
                seen[p, k] = toric._Memo(shared(p, k).__getitem__)
            return seen[p, k]

        monkeypatch.setattr(oracle, "_orbit_reps", recording)
        monkeypatch.setattr(oracle, "_orbit_count", functools.lru_cache(
            oracle._orbit_count.__wrapped__))
        for name in FIXTURE_NAMES:
            fan = fans[name]
            top = 3 if fan.nrays <= 4 else 2
            for e in itertools.product(range(top + 1), repeat=fan.nrays):
                for p in (2, 3):
                    ff_pattern_count(p, fan, e)
        for p in (5, 7):
            ff_pattern_count(p, fans["p2"], (3, 3, 3), budget=10**12)
            ff_pattern_count(p, fans["dp6"], (2,) * 6, budget=10**12)
        assert {p for p, _ in seen} == {2, 3, 5, 7}
        for (p, k), memo in seen.items():
            pairs = {(rep, string_orbit_key(p, k, group))
                     for group, rep in memo.items()}
            assert (len({rep for rep, _ in pairs}) == len(pairs)
                    == len({key for _, key in pairs})), (p, k)


class TestCommonRoots:
    def test_coordinate_forms_meet_nowhere(self):
        assert not common_projective_root(2, [(1, 0), (0, 1)])

    def test_shared_linear_factor(self):
        # x*y and x*y + y^2 = y(x + y)
        assert common_projective_root(2, [(0, 1, 0), (0, 1, 1)])

    def test_irreducible_quadratic_vs_line(self):
        assert not common_projective_root(2, [(1, 1, 1), (1, 1)])

    def test_root_only_in_an_extension(self):
        # x^2 + y^2 is irreducible over F_3; the pair below shares its
        # roots in F_9 and nothing rational
        a, b = (1, 0, 1), (1, 1, 1, 1)  # b = (x^2 + y^2)(x + y)
        assert common_projective_root(3, [a, b])
        assert not common_projective_root(3, [a, (1, 0, 2)])

    def test_common_point_at_infinity(self):
        a, b = (0, 1, 0), (1, 0)
        assert a[-1] == 0 and b[-1] == 0
        assert common_projective_root(3, [a, b])

    @pytest.mark.parametrize("p,ds,dt", [(2, 1, 1), (2, 1, 2), (2, 2, 2),
                                         (2, 2, 3), (3, 1, 2), (3, 2, 2)])
    def test_agrees_with_resultants_exhaustively(self, p, ds, dt):
        for f in _form_table(p, ds):
            for g in _form_table(p, dt):
                want = sylvester_resultant_mod_p(f, g, p) == 0
                got = common_projective_root(p, [f, g])
                assert got == want, (f, g)

    @pytest.mark.parametrize("p,ds,dt", [(2, 1, 3), (2, 3, 3), (3, 1, 3),
                                         (3, 2, 3), (5, 1, 2), (5, 2, 2)])
    def test_root_masks_meet_iff_resultant_vanishes(self, p, ds, dt):
        """The counting kernel's root bitmasks share a bit exactly when
        the forms share a projective root."""
        masks_s = _root_masks(p, ds, ds)
        masks_t = _root_masks(p, dt, dt)
        for f, ms in zip(_form_table(p, ds), masks_s):
            for g, mt in zip(_form_table(p, dt), masks_t):
                want = sylvester_resultant_mod_p(f, g, p) == 0
                assert bool(ms & mt) == want, (f, g)


def fan_named(fans, name):
    if name == "p1xp2":
        # one pair and one triple
        return fan_product(fans["p1"], fans["p2"])
    return HIRZEBRUCH_2 if name == "F2" else fans[name]


class TestPatternCounts:
    @pytest.mark.parametrize("p", [2.0, 3.0, True, "2"])
    def test_refuses_a_prime_that_is_not_an_integer(self, p2, p):
        # 2.0 used to return the count of p = 2 once that was cached
        ff_pattern_count(2, p2, (1, 1, 1))
        with pytest.raises(ValueError, match=f"prime {p!r} is not an integer"):
            ff_pattern_count(p, p2, (1, 1, 1))

    CASES = [
        ("p1", (1, 1), 2),
        ("p1", (1, 1), 3),
        ("p1", (2, 2), 2),
        ("p1", (3, 2), 2),
        ("p2", (1, 1, 1), 2),
        ("p2", (1, 1, 1), 3),
        ("p1xp1", (1, 1, 1, 1), 2),
        ("bl1p2", (1, 0, 1, 1), 3),
        ("dp6", (1, 1, 1, 1, 1, 1), 2),
        ("p2", (1, 1, 1), 5),
        ("p1xp1", (1, 0, 1, 1), 5),
        ("p3", (1, 1, 1, 1), 7),
        # patterns (0, 2) and (1, 3): the walk goes 0, 2, 1, 3
        ("bl1p2", (2, 1, 2, 1), 3),
        ("F2", (1, 2, 2, 1), 3),
    ]

    @pytest.mark.parametrize("name,e,p", CASES)
    def test_matches_raw_enumeration(self, fans, name, e, p):
        fan = fan_named(fans, name)
        assert ff_pattern_count(p, fan, e) == reference_pattern_count(p, fan, e)

    def test_matches_motivic_class(self, fans):
        for name, e, p in self.CASES:
            fan = fan_named(fans, name)
            predicted = evaluate(pattern_config_class(fan, e), p)
            assert predicted == ff_pattern_count(p, fan, e), (name, e, p)

    def test_zero_degree(self, p2, p1xp1):
        for fan in (p2, p1xp1):
            for p in (2, 3, 5):
                assert ff_pattern_count(p, fan, (0,) * fan.nrays) == 1

    def test_repeatable(self, bl1p2):
        a = ff_pattern_count(3, bl1p2, (1, 1, 1, 2))
        b = ff_pattern_count(3, bl1p2, (1, 1, 1, 2))
        assert a == b

    def test_walk_order_ends_patterns_early(self):
        assert oracle._walk_order(4, ((0, 2), (1, 3))) == (0, 2, 1, 3)
        assert oracle._walk_order(3, ((0, 1, 2),)) == (0, 1, 2)
        assert oracle._walk_order(3, ()) == (0, 1, 2)

    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "p1xp1", "bl1p2",
                                      "dp6", "F2"])
    def test_relabelling_rays_keeps_every_count(self, fans, name):
        fan = fan_named(fans, name)
        n = fan.nrays
        rng = random.Random(name)
        perm = list(range(n))
        while perm == sorted(perm):
            rng.shuffle(perm)
        place = {old: new for new, old in enumerate(perm)}
        moved = parse_fan({
            "rays": [list(fan.rays[a]) for a in perm],
            "max_cones": [sorted(place[a] for a in c) for c in fan.max_cones],
        })
        top = 2 if n <= 4 else 1
        for e in itertools.product(range(top + 1), repeat=n):
            e_moved = [e[a] for a in perm]
            for p in (2, 3):
                assert (ff_pattern_count(p, moved, e_moved)
                        == ff_pattern_count(p, fan, e)), (e, p)
        # at order 2 the count depends on which target goes with which ray
        target = tuple((rng.randrange(1, 3), rng.randrange(3),
                        rng.randrange(3)) for _ in range(n))
        spec = JetSpec(1, 2, target)
        moved_spec = JetSpec(1, 2, tuple(target[a] for a in perm))
        assert (ff_constrained_count(3, moved, (2,) * n, moved_spec)
                == ff_constrained_count(3, fan, (2,) * n, spec))

    def test_arity_and_negativity(self, p2):
        with pytest.raises(ValueError):
            ff_pattern_count(3, p2, (1, 1))
        with pytest.raises(ValueError):
            ff_pattern_count(3, p2, (1, -1, 1))
        with pytest.raises(ValueError):
            ff_pattern_count(11, p2, (1, 1, 1))

    @pytest.mark.parametrize("entry", [1.5, 1.9, "1", True])
    def test_refuses_entries_that_are_not_integers(self, p2, entry):
        """Each used to count as if it were 1 (24 at p = 2)."""
        vec = (entry, 1, 1)
        match = f"degree entry {entry!r} is not an integer"
        with pytest.raises(ValueError, match=match):
            ff_pattern_count(2, p2, vec)
        with pytest.raises(ValueError, match=match):
            ff_hom_count(2, p2, vec)
        with pytest.raises(ValueError, match=match):
            ff_constrained_count(2, p2, vec, JetSpec.identity(3, 1))
        with pytest.raises(ValueError, match=match):
            oracle_compare(2, p2, e=vec)
        with pytest.raises(ValueError, match=match):
            oracle_compare(2, p2, d=vec)

    def test_shared_counts_equal_direct_counts(self, fans):
        """Every vector of the p = 2 gate box, counted through its orbit
        representative, against ``_count`` on the vector itself."""
        moved = 0
        for name in ["p1", "p2", "p3", "p1xp1", "bl1p2", "dp6", "F2"]:
            fan = fan_named(fans, name)
            patterns = toric.pattern_set(fan).minimal
            keys = toric._orbit_keys(toric.pattern_set(fan))
            top = 3 if fan.nrays <= 4 else 2
            for e in itertools.product(range(top + 1), repeat=fan.nrays):
                moved += keys[e] != e
                assert (ff_pattern_count(2, fan, e)
                        == oracle._count(2, e, patterns)), (name, e)
        assert moved > 1000

    def test_components_are_shared_and_closed_forms_walk_nothing(
        self, fans, monkeypatch
    ):
        """From cold caches, p1 at (2, 3) walks once; the pairs of p1xp1
        and bl1p2 read that count back, p2 with a ray of degree 0 is
        free rays only, and dp6 at (1, ..., 1) is one component."""
        clear_caches()
        walks = []
        count = oracle._count

        def counted(p, degrees, patterns, *rest):
            walks.append(degrees)
            return count(p, degrees, patterns, *rest)

        monkeypatch.setattr(oracle, "_count", counted)
        line = ff_pattern_count(3, fans["p1"], (2, 3))
        assert walks == [(2, 3)]
        assert ff_pattern_count(3, fans["p1xp1"], (2, 3, 3, 2)) == line**2
        assert ff_pattern_count(3, fans["bl1p2"], (3, 2, 2, 3)) == line**2
        assert ff_pattern_count(3, fans["p2"], (0, 2, 3)) == 13 * 40
        assert walks == [(2, 3)]
        ff_pattern_count(3, fans["dp6"], (1,) * 6)
        assert walks == [(2, 3), (1,) * 6]

    def test_one_count_cache_holds_the_shared_pair(self, fans):
        """From cold caches, counted by _orbit_count's cache with no
        clock: p1 at (2, 3) is one entry, the pair at its orbit key.
        p1xp1 and bl1p2, at keys of their own, each read that entry for
        both of their pairs, and so does a lone pair at (3, 2) on rays
        that no automorphism swaps, as its own orbit key is (2, 3)."""
        clear_caches()
        pair = pattern_set(fans["p1"])
        line = ff_pattern_count(3, fans["p1"], (2, 3))
        info = oracle._orbit_count.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        for name, e in (("p1xp1", (2, 3, 3, 2)), ("bl1p2", (3, 2, 2, 3))):
            assert ff_pattern_count(3, fans[name], e) == line**2
            before, info = info, oracle._orbit_count.cache_info()
            assert info.misses - before.misses == 1, name
            assert info.hits - before.hits == 2, name
        assert oracle._orbit_count(3, (2, 3), pair) == line
        assert oracle._orbit_count.cache_info().hits == info.hits + 1
        mixed = PatternSet(5, ((0, 1), (0, 2, 3)))
        assert oracle._orbit_count(3, (3, 2, 0, 1, 1), mixed) == line * 4**2
        after = oracle._orbit_count.cache_info()
        assert (after.misses, after.hits) == (info.misses + 1, info.hits + 2)


def brute_automorphisms(nrays, patterns):
    """Every ray permutation that maps the pattern set onto itself."""
    pats = {frozenset(pat) for pat in patterns}
    return {
        perm for perm in itertools.permutations(range(nrays))
        if {frozenset(perm[a] for a in pat) for pat in pats} == pats
    }


def projective_space(n):
    rays = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
    cones = [list(c) for c in itertools.combinations(range(n + 1), n)]
    return parse_fan({"rays": rays, "max_cones": cones})


def power_of_the_line(k):
    rays = [[s * (j == i) for j in range(k)] for i in range(k) for s in (1, -1)]
    cones = [[2 * i + b for i, b in enumerate(bits)]
             for bits in itertools.product((0, 1), repeat=k)]
    return parse_fan({"rays": rays, "max_cones": cones})


class TestSymmetries:
    ORDERS = {"p1": 2, "p2": 6, "p3": 24, "p1xp1": 8, "bl1p2": 8, "dp6": 12,
              "F2": 8}

    @pytest.mark.parametrize("name", sorted(ORDERS))
    def test_fixture_groups_are_found_whole(self, fans, name):
        """The coset representatives, the identity first, times the swaps
        within twin classes give every automorphism once: the whole
        group, of the order listed."""
        fan = fan_named(fans, name)
        patterns = toric.pattern_set(fan).minimal
        sym = toric._symmetries(fan.nrays, patterns)
        assert sym.perms[0] == tuple(range(fan.nrays))
        swaps = [
            [dict(zip(cls, order)) for order in itertools.permutations(cls)]
            for cls in sym.twins
        ]
        group = []
        for perm in sym.perms:
            for moves in itertools.product(*swaps):
                inner = {a: b for move in moves for a, b in move.items()}
                group.append(tuple(perm[inner.get(a, a)]
                                   for a in range(fan.nrays)))
        assert len(group) == len(set(group)) == self.ORDERS[name]
        assert set(group) == brute_automorphisms(fan.nrays, patterns)
        assert sym.nodes <= toric.SYMMETRY_NODES

    @pytest.mark.parametrize("build,k,want", [
        (projective_space, 11, 531438),  # 3^12 - 3 at degree (1, ..., 1)
        (power_of_the_line, 8, 1679616),  # (3^2 - 3)^8
    ], ids=["P^11", "(P^1)^8"])
    def test_large_groups_stay_within_the_bound(self, build, k, want):
        """P^11's group has order 12!, that of (P^1)^8 order 2^8 8!; the
        search stops at its bound and the counts stay exact."""
        fan = build(k)
        patterns = toric.pattern_set(fan).minimal
        sym = toric._symmetries(fan.nrays, patterns)
        assert sym.nodes <= toric.SYMMETRY_NODES
        assert sym.perms[0] == tuple(range(fan.nrays))
        pats = {frozenset(pat) for pat in patterns}
        for perm in sym.perms:
            assert {frozenset(perm[a] for a in pat) for pat in pats} == pats
        ones = (1,) * fan.nrays
        assert ff_pattern_count(2, fan, ones) == want
        assert oracle._count(2, ones, patterns) == want

    def test_jet_counts_are_not_shared(self, dp6):
        """Two degree vectors of one orbit share their plain count, but
        with a target that differs per ray their jet counts differ, and
        each matches the raw enumeration."""
        spec = JetSpec(1, 1, ((1, 0), (1, 1), (1, 1), (2, 0), (2, 0), (1, 1)))
        for d, want in (((0, 1, 0, 0, 1, 0), 3), ((1, 0, 0, 1, 0, 0), 0)):
            assert ff_pattern_count(3, dp6, d) == 12
            assert ff_constrained_count(3, dp6, d, spec) == want
            assert reference_constrained_count(3, dp6, d, spec) == want


class TestBudget:
    def test_budget_error_carries_sizes(self, p2):
        with pytest.raises(BudgetError) as exc:
            ff_pattern_count(3, p2, (3, 3, 3), budget=10)
        assert exc.value.required == 40**3
        assert exc.value.budget == 10

    @pytest.mark.parametrize("p", ALLOWED_PRIMES)
    def test_budget_error_is_exact_for_every_printable_count(self, p2, p):
        """Up to the last degree whose count Python prints (4300 digits),
        the refusal carries the exact count and prints it; past it, it
        names the lower bound p^sum(e) and carries no count."""
        def count(x):
            return (p ** (x + 1) - 1) // (p - 1)

        x = 0
        while count(x + 1) < 10 ** 4300:
            x += 1
        with pytest.raises(BudgetError) as exc:
            ff_pattern_count(p, p2, (x, 0, 0))
        assert exc.value.required == count(x)
        assert f"needs {count(x)} tuples" in str(exc.value)
        with pytest.raises(BudgetError, match=rf"needs at least {p}\^{x + 1} "):
            ff_pattern_count(p, p2, (x + 1, 0, 0))

    def test_budget_stops_before_a_huge_form_count(self, p2, monkeypatch):
        """A degree of 10^8 is refused at once, where the refusal once
        built the 56 MB count 2^(10^8+1): no form count is asked for
        past the budget's bit length, and none after the refusal."""
        asked = []
        form_count = oracle._form_count
        monkeypatch.setattr(oracle, "_form_count",
                            lambda p, x: asked.append(x) or form_count(p, x))
        start = time.perf_counter()
        for e, power in (((10**8, 0, 0), "2^100000000"),
                         ((0, 3, 10**8), "2^100000003")):
            with pytest.raises(BudgetError) as exc:
                ff_pattern_count(2, p2, e)
            assert exc.value.required is None
            assert f"needs at least {power} tuples" in str(exc.value)
        assert time.perf_counter() - start < 0.5
        assert asked == [0, 3]

    def test_budget_is_checked_before_a_shared_count(self, p2, p1xp1):
        assert ff_pattern_count(3, p2, (3, 2, 3)) > 0
        for e in ((3, 2, 3), (3, 3, 2)):
            with pytest.raises(BudgetError):
                ff_pattern_count(3, p2, e, budget=10)
        # a vector that splits into two components, both counted already
        assert ff_pattern_count(3, p1xp1, (3, 3, 3, 3)) > 0
        with pytest.raises(BudgetError):
            ff_pattern_count(3, p1xp1, (3, 3, 3, 3), budget=10)

    def test_bool_budget_is_refused(self, p2):
        with pytest.raises(ValueError, match="is not a nonnegative integer"):
            ff_pattern_count(2, p2, (1, 1, 1), budget=True)

    def test_environment_budget(self, p2, monkeypatch):
        monkeypatch.setenv("TORICURVES_BUDGET", "10")
        with pytest.raises(BudgetError):
            ff_pattern_count(2, p2, (1, 1, 1))
        # an explicit argument wins over the environment
        assert ff_pattern_count(2, p2, (1, 1, 1), budget=10**6) > 0


class TestHomCounts:
    def test_line_goldens(self, p1):
        assert ff_hom_count(2, p1, (1, 1)) == 6
        assert ff_hom_count(3, p1, (1, 1)) == 24

    def test_plane_golden(self, p2):
        assert ff_hom_count(3, p2, (1, 1, 1)) == 240

    def test_degree_zero_gives_torus_points(self, p2, p1xp1, dp6):
        for fan in (p2, p1xp1, dp6):
            for p in (2, 3, 5):
                want = (p - 1) ** fan.dim
                assert ff_hom_count(p, fan, (0,) * fan.nrays) == want

    def test_matches_motivic_class_on_the_cone(self, fans):
        cases = [
            ("p1", (2, 2), 3),
            ("p1xp1", (1, 1, 2, 2), 2),
            ("bl1p2", (1, 1, 1, 2), 3),
            ("dp6", (1, 1, 1, 1, 1, 1), 2),
        ]
        for name, d, p in cases:
            fan = fans[name]
            predicted = evaluate(hom_class(fan, d), p)
            assert predicted == ff_hom_count(p, fan, d), (name, d, p)


JET_CASES = [
    ("p1", (1, 1), 2, 0, 0, None),
    ("p1", (1, 1), 3, 1, 0, None),
    ("p1", (2, 2), 2, None, 0, None),
    ("p1", (2, 2), 3, 0, 1, None),
    ("p1", (2, 2), 3, 1, 1, ((1, 2), (2, 1))),
    ("p2", (0, 0, 0), 3, 1, 0, None),
    ("p2", (1, 1, 1), 3, 1, 0, None),
    ("p2", (1, 1, 1), 2, None, 1, None),
    ("bl1p2", (1, 1, 1, 2), 3, 1, 0, None),
    ("dp6", (1, 1, 1, 1, 1, 1), 2, 1, 1, None),
    ("p2", (2, 2, 2), 3, None, 1, ((1, 1), (2, 0), (1, 2))),
    ("p1", (2, 2), 3, 0, 2, None),
    ("F2", (1, 2, 1, 2), 3, 1, 1, ((1, 2), (2, 0), (1, 1), (2, 2))),
    ("F2", (2, 2, 2, 2), 2, None, 2,
     ((1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 0, 0))),
    # rank 4 at order 2
    ("dp6", (1, 1, 1, 1, 1, 1), 2, 1, 2, None),
    # the two F2 cases above lie outside the dual effective cone, where
    # there are no maps; these two lie inside it
    ("F2", (1, 0, 1, 2), 3, 1, 1, ((1, 2), (2, 0), (1, 1), (2, 2))),
    ("F2", (2, 0, 2, 4), 2, None, 2,
     ((1, 1, 0), (1, 0, 1), (1, 1, 1), (1, 0, 0))),
    # skewed targets on four and five rays, whose values the walk
    # multiplies as it goes; each count is nonzero
    ("p1xp1", (1, 1, 1, 1), 3, 1, 1, ((1, 0), (1, 1), (2, 0), (2, 2))),
    ("bl1p2", (1, 1, 1, 2), 3, 0, 1, ((2, 1), (2, 2), (2, 0), (2, 1))),
    ("bl1p2", (1, 1, 1, 2), 3, 0, 2,
     ((1, 1, 0), (1, 2, 0), (1, 0, 1), (2, 2, 1))),
    ("p1xp2", (2, 2, 1, 1, 1), 2, None, 1,
     ((1, 1), (1, 1), (1, 0), (1, 0), (1, 1))),
    ("p1xp2", (2, 2, 1, 1, 1), 2, None, 2,
     ((1, 1, 0), (1, 0, 1), (1, 1, 0), (1, 0, 1), (1, 1, 0))),
]


class TestOutsideTheCone:
    """Outside the dual effective cone the space of maps is empty, and
    its class is 0: so are the hom and jet counts, once the checks and
    the budget have run.  Configurations are no maps and keep their
    count."""

    @pytest.mark.parametrize("name,d,configs", [
        ("p2", (1, 0, 0), 3),
        ("p1xp1", (1, 0, 1, 0), 9),
    ])
    def test_hom_counts_and_comparisons_are_zero(self, fans, name, d,
                                                 configs):
        fan = fans[name]
        assert not eff_dual_contains(fan, d)
        assert ff_pattern_count(2, fan, d) == configs
        assert ff_hom_count(2, fan, d) == 0
        rep = oracle_compare(2, fan, d=d)
        assert rep.equal and rep.brute == rep.predicted == 0

    def test_jet_counts_are_zero(self, p2):
        spec = JetSpec.identity(3, 1, 0)
        assert ff_constrained_count(3, p2, (1, 0, 0), spec) == 0
        assert ff_constrained_count(3, p2, (1, 1, 1), spec) == 24

    def test_the_checks_and_the_budget_run_first(self, p2):
        spec = JetSpec.identity(3, 1, 0)
        with pytest.raises(BudgetError):
            ff_hom_count(2, p2, (9, 0, 0), budget=10)
        with pytest.raises(BudgetError):
            oracle_compare(2, p2, d=(9, 0, 0), budget=10)
        with pytest.raises(BudgetError):
            ff_constrained_count(3, p2, (9, 0, 0), spec, budget=10)
        with pytest.raises(ValueError, match="prime must be one of"):
            ff_hom_count(11, p2, (1, 0, 0))
        with pytest.raises(ValueError, match="degree entry -1 is negative"):
            ff_hom_count(2, p2, (1, -1, 0))
        with pytest.raises(ValueError, match="target arity 2"):
            ff_constrained_count(3, p2, (1, 0, 0), JetSpec.identity(2, 1, 0))

    @pytest.mark.parametrize("argv,line", [
        (["p2", "--p", "2", "--degree", "1,0,0"],
         "equal: brute 0 predicted 0 ("),
        (["p1xp1", "--p", "2", "--degree", "1,0,1,0"],
         "equal: brute 0 predicted 0 ("),
        (["p2", "--p", "3", "--degree", "1,0,0", "--jet", "1,0"],
         "constrained count 0 ("),
    ], ids=["p2", "p1xp1", "p2-jet"])
    def test_cli_lines(self, capsys, argv, line):
        assert main(["oracle", *argv]) == 0
        assert capsys.readouterr().out.startswith(line)


class TestConstrainedCounts:
    @pytest.mark.parametrize("name,d,p,point,order,target", JET_CASES)
    def test_matches_raw_enumeration(self, fans, name, d, p, point, order,
                                     target):
        fan = fan_named(fans, name)
        if target is None:
            spec = JetSpec.identity(fan.nrays, point, order)
        else:
            spec = JetSpec(point, order, target)
        got = ff_constrained_count(p, fan, d, spec)
        want = reference_constrained_count(p, fan, d, spec)
        assert got == want, (name, d, p)

    @pytest.mark.parametrize("name,d,p,point,order,target", JET_CASES)
    def test_jet_counts_keep_the_unmerged_walk(self, fans, monkeypatch, name,
                                               d, p, point, order, target):
        fan = fan_named(fans, name)
        if target is None:
            spec = JetSpec.identity(fan.nrays, point, order)
        else:
            spec = JetSpec(point, order, target)
        got = ff_constrained_count(p, fan, d, spec)
        monkeypatch.setattr(oracle, "_count", count_unmerged)
        assert ff_constrained_count(p, fan, d, spec) == got, (name, d, p)

    @pytest.mark.parametrize("name,d,p,point,order,target", JET_CASES)
    def test_jet_counts_ignore_the_plain_step_tables(
            self, fans, name, d, p, point, order, target):
        """A jet count builds its step from its forms at each ray, so it
        is the same after a plain count of its degrees has filled the
        plain step tables of the same (p, e, k, slots hit)."""
        fan = fan_named(fans, name)
        if target is None:
            spec = JetSpec.identity(fan.nrays, point, order)
        else:
            spec = JetSpec(point, order, target)
        clear_caches()
        got = ff_constrained_count(p, fan, d, spec)
        oracle._count(p, d, toric.pattern_set(fan).minimal)
        assert oracle._plain_step.cache_info().currsize > 0
        assert ff_constrained_count(p, fan, d, spec) == got, (name, d, p)

    def test_orbit_test_makes_few_series_products(self, dp6, monkeypatch):
        calls = []
        mul = oracle._series_mul
        monkeypatch.setattr(oracle, "_series_mul",
                            lambda *args: calls.append(1) or mul(*args))
        spec = JetSpec.identity(6, 1, 1)
        assert ff_constrained_count(3, dp6, (1,) * 6, spec) == 12
        assert len(calls) <= 1000

    def test_powers_stop_squaring_after_the_last_bit(self, dp6, monkeypatch):
        calls = []
        mul = oracle._series_mul
        monkeypatch.setattr(oracle, "_series_mul",
                            lambda *args: calls.append(1) or mul(*args))
        spec = JetSpec.identity(6, 1, 1)
        assert ff_constrained_count(3, dp6, (1,) * 6, spec) == 12
        assert len(calls) <= 210
        for a in [(1, 2), (2, 1, 1)]:
            for k in range(-5, 6):
                assert oracle._series_pow(a, k, 3, 3) == spow(a, k, 3, 3)

    def test_regression_values(self, p2, bl1p2, dp6):
        spec = JetSpec.identity(3, 1, 0)
        assert ff_constrained_count(3, p2, (1, 1, 1), spec) == 24
        spec4 = JetSpec.identity(4, 1, 0)
        assert ff_constrained_count(3, bl1p2, (1, 1, 1, 2), spec4) == 108
        # under the default budget, as `oracle dp6 --jet 1,2` runs it
        spec6 = JetSpec.identity(6, 1, 2)
        assert ff_constrained_count(3, dp6, (2,) * 6, spec6) == 408

    def test_orbit_sums_recover_the_unconstrained_total(self, p1):
        """Summing constrained counts over one representative per jet
        orbit partitions the count of maps with a unit value at the
        point."""
        p, d, point = 3, (2, 2), 1
        projection = picard_projection(p1)
        image = set()
        for u in range(1, p):
            image.add(tuple(pow(u, projection[0][a], p) for a in range(2)))
        seen, reps = set(), []
        for vec in itertools.product(range(1, p), repeat=2):
            coset = frozenset(
                tuple((v * w) % p for v, w in zip(vec, im)) for im in image
            )
            if coset not in seen:
                seen.add(coset)
                reps.append(vec)
        total = 0
        for rep in reps:
            spec = JetSpec(point, 0, tuple((v,) for v in rep))
            total += ff_constrained_count(p, p1, d, spec)
        raws = [
            [c for c in itertools.product(range(p), repeat=x + 1) if any(c)]
            for x in d
        ]
        direct = 0
        for tup in itertools.product(*raws):
            if any(taylor(c, point, 0, p)[0] == 0 for c in tup):
                continue
            if common_projective_root(p, [tup[i] for i in (0, 1)]):
                continue
            direct += 1
        assert total == direct // (p - 1) ** picard_rank(p1)

    def test_budget_applies(self, p2):
        spec = JetSpec.identity(3, 1, 0)
        with pytest.raises(BudgetError):
            ff_constrained_count(3, p2, (3, 3, 3), spec, budget=10)

    def test_each_character_power_is_formed_once(self, fans, monkeypatch):
        """The forms meet 18 distinct (jet, exponent) pairs with a
        nonzero exponent, 9 relative jets to the powers 1 and -1; each
        power is formed once per count, none for the exponent 0, and the
        counts stay those of the uncached character test."""
        real = oracle._series_pow
        calls, depth = [], [0]

        def counting(a, k, p, n):
            if not depth[0]:  # a negative exponent recurses once
                calls.append((a, k))
            depth[0] += 1
            try:
                return real(a, k, p, n)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(oracle, "_series_pow", counting)
        p1xp1 = fans["p1xp1"]
        skewed = ((1, 1, 2), (2, 0, 1), (1, 2, 0), (1, 0, 0))
        for target, want in ((((1, 0, 0),) * 4, 0), (skewed, 36)):
            calls.clear()
            spec = JetSpec(None, 2, target)
            assert ff_constrained_count(3, p1xp1, (2, 2, 2, 2), spec) == want
            assert len(calls) == len(set(calls)) == 18


class TestJetSpec:
    def test_identity(self):
        spec = JetSpec.identity(3, None, 2)
        assert spec.point is None
        assert spec.target == ((1, 0, 0),) * 3
        spec.validate_for(3, 3)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            JetSpec.identity(2, 5, 0).validate_for(3, 2)
        with pytest.raises(ValueError):
            JetSpec.identity(2, 1, 0).validate_for(3, 3)
        with pytest.raises(ValueError):
            JetSpec(1, 0, ((0,), (1,))).validate_for(3, 2)
        with pytest.raises(ValueError):
            JetSpec(1, 1, ((1,), (1,))).validate_for(3, 2)
        with pytest.raises(ValueError):
            JetSpec.identity(2, 1, -1).validate_for(3, 2)

    @pytest.mark.parametrize("spec,bad", [
        (JetSpec(True, 0, ((1,),) * 3), "jet point True"),
        (JetSpec(1.5, 0, ((1,),) * 3), "jet point 1.5"),
        (JetSpec(1, True, ((1, 0),) * 3), "jet order True"),
        (JetSpec(1, 0.0, ((1,),) * 3), "jet order 0.0"),
        (JetSpec(1, 0, ((1,), (1.0,), (1,))), "target entry 1.0"),
        (JetSpec(None, 1, ((1, "0"),) * 3), "target entry '0'"),
    ])
    def test_refuses_entries_that_are_not_integers(self, p2, spec, bad):
        """A bool point and order passed and were read as 1, and a float
        point failed inside pow()."""
        with pytest.raises(ValueError, match=f"{bad} is not an integer"):
            spec.validate_for(3, 3)
        with pytest.raises(ValueError, match=f"{bad} is not an integer"):
            ff_constrained_count(3, p2, (1, 1, 1), spec)


class TestReducePoint:
    def test_affine_values(self):
        assert reduce_point((1, 5), 3) == 2
        assert reduce_point((2, 1), 5) == 3
        assert reduce_point((1, 0), 2) == 0

    def test_infinity(self):
        assert reduce_point((0, 7), 3) is None

    def test_nonprimitive_rejected(self):
        with pytest.raises(ValueError):
            reduce_point((3, 6), 3)
        with pytest.raises(ValueError):
            reduce_point((5, 0), 5)

    @pytest.mark.parametrize("pt,bad", [
        ((1.5, 2), "1.5"), ((True, 2), "True"), ((1, "2"), "'2'"),
    ])
    def test_refuses_coordinates_that_are_not_integers(self, pt, bad):
        """(1.5, 2) was truncated to (1, 2), and True read as 1."""
        with pytest.raises(ValueError,
                           match=f"point coordinate {bad} is not an integer"):
            reduce_point(pt, 3)

    @pytest.mark.parametrize("p,bad", [
        (0, "prime must be one of"), (2.0, "prime 2.0 is not an integer"),
        (4, "prime must be one of"), (True, "prime True is not an integer"),
    ])
    def test_checks_the_prime_first(self, p, bad):
        """p = 0 divided by zero, 2.0 failed inside pow(), and 4 gave 1:
        Fermat's inverse holds for a prime modulus only."""
        with pytest.raises(ValueError, match=bad):
            reduce_point((3, 1), p)

    @pytest.mark.parametrize("pt", [(1, 1, 1), (1,), ()])
    def test_refuses_a_point_without_two_coordinates(self, pt):
        with pytest.raises(ValueError, match="does not have two coordinates"):
            reduce_point(pt, 3)


class TestOracleCompare:
    def test_config_kind(self, p2):
        rep = oracle_compare(3, p2, e=(1, 1, 1))
        assert rep.kind == "config"
        assert rep.equal and rep.brute == rep.predicted == 60
        doc = rep.to_json()
        assert doc["e_or_d"] == [1, 1, 1]
        assert doc["brute"] == "60" and doc["equal"] is True
        assert isinstance(doc["elapsed_ms"], int)

    def test_hom_kind(self, p1):
        rep = oracle_compare(2, p1, d=(1, 1))
        assert rep.kind == "hom"
        assert rep.equal and rep.brute == 6

    # P^2 with one of its three cones left out: two walls lie in one cone
    INCOMPLETE = {"rays": [[1, 0], [0, 1], [-1, -1]],
                  "max_cones": [[0, 1], [1, 2]]}

    @pytest.mark.parametrize("kind", ["e", "d"])
    @pytest.mark.parametrize("p,fan,vec,budget,error,match", [
        (2, "p2", (1, 1), None, ValueError,
         "degree arity 2 does not match ray count 3"),
        (2, "p2", (1, -1, 1), None, ValueError, "degree entry -1 is negative"),
        (11, "p2", (1, 1, 1), None, ValueError,
         r"prime must be one of \(2, 3, 5, 7\), got 11"),
        (2, "p2", (1, 1, 1), 1, BudgetError, "needs 27 tuples, budget is 1"),
        (2, "incomplete", (1, 1, 1), None, FanValidationError,
         "lies in 1 maximal cones"),
        # wrong in two ways: the first check the count makes names it
        (2, "p2", (1, -1), None, ValueError, "degree entry -1 is negative"),
        (11, "p2", (1, 1), None, ValueError, "prime must be one of"),
        (2, "incomplete", (1, -1, 1), None, FanValidationError,
         "lies in 1 maximal cones"),
        (4, "incomplete", (1, 1, 1), None, ValueError, "got 4"),
        (2, "p2", (1, 1), 1, ValueError, "degree arity 2"),
        (2, "p2", (5, 5, -1), 1, ValueError, "degree entry -1 is negative"),
        (2, "p2", (1.5, -1, 1), None, ValueError,
         "degree entry 1.5 is not an integer"),
    ])
    def test_refusals(self, p2, kind, p, fan, vec, budget, error, match):
        """Each bad input is refused with the fault that ff_pattern_count
        and ff_hom_count name, in their order of checks."""
        fan = p2 if fan == "p2" else parse_fan(self.INCOMPLETE)
        with pytest.raises(error, match=match):
            oracle_compare(p, fan, budget=budget, **{kind: vec})
        count = ff_pattern_count if kind == "e" else ff_hom_count
        with pytest.raises(error, match=match):
            count(p, fan, vec, budget=budget)

    @pytest.mark.parametrize("kind", ["e", "d"])
    def test_warm_comparison_builds_one_vector_and_no_key(
            self, dp6, kind, monkeypatch):
        """The oracle and the engine share one memo of orbit keys per
        pattern set: a first comparison keys its vector once (and the
        engine, with no box of dp6 cached, the degrees of each component
        in the memo of its own pattern set), and the same comparison
        again builds one degree vector and keys nothing.  Nor does it
        build a Fraction, a class or a product of classes, or read a
        class at L = p: the count and the prediction are one record per
        orbit key."""
        clear_caches()
        work = record_work(monkeypatch)
        vec = (2, 0, 1, 2, 0, 1)
        first = oracle_compare(3, dp6, **{kind: vec})
        keyed = work["keys"]
        assert first.equal and keyed[0] == vec
        assert all(len(e) < len(vec) for e in keyed[1:]), keyed
        for log in work.values():
            log.clear()
        second = oracle_compare(3, dp6, **{kind: vec})
        assert (second.brute, second.predicted) == (first.brute, first.predicted)
        assert len(work["vectors"]) <= 1 and keyed == []
        assert work["fractions"] == [] and work["classes"] == []
        assert work["products"] == [] and work["predictions"] == []

    def test_prediction_is_the_class_at_p(self, fans):
        """The prediction summed in integers is the exact value at L = p
        (``evaluate``) for every configuration class and map class of
        the oracle_gate boxes, and for classes with negative powers
        whose values are integers."""
        for name in FIXTURE_NAMES:
            fan = fans[name]
            top = 3 if fan.nrays <= 4 else 2
            for e in itertools.product(range(top + 1), repeat=fan.nrays):
                classes = [pattern_config_class(fan, e)]
                if eff_dual_contains(fan, e):
                    classes.append(hom_class(fan, e))
                for cls in classes:
                    for p in (2, 3):
                        value = evaluate(cls, p)
                        assert value.denominator == 1
                        assert oracle._predicted(cls, p) == value, (name, e)
        # the first lists a lower power after a higher one
        for coeffs, p, value in (({2: 1, -1: 2}, 2, 5), ({-2: 9, -1: 3}, 3, 2),
                                 ({-3: 8, 0: -1, 4: 1}, 2, 16)):
            cls = LaurentClass(coeffs)
            assert oracle._predicted(cls, p) == evaluate(cls, p) == value

    @pytest.mark.parametrize("cls, p, value", [
        (LaurentClass({-1: 1, 1: 1}), 3, "10/3"),
        # the fraction is reduced, as evaluate reduced it
        (LaurentClass({-2: 2, 0: 1}), 2, "3/2"),
    ])
    def test_prediction_that_is_no_integer_is_refused(
            self, p2, monkeypatch, cls, p, value):
        # the class is read only for the first vector of an orbit, so no
        # comparison of (1, 1, 1) may be kept from an earlier test
        clear_caches()
        monkeypatch.setattr(oracle, "pattern_config_class",
                            lambda fan, dv, s: cls)
        with pytest.raises(InternalCheckError, match=(
                f"^motivic prediction {value} is not an integer at q={p}$")):
            oracle_compare(p, p2, e=(1, 1, 1))

    def test_exactly_one_vector(self, p1):
        with pytest.raises(ValueError):
            oracle_compare(2, p1, e=(1, 1), d=(1, 1))
        with pytest.raises(ValueError):
            oracle_compare(2, p1)

    @pytest.mark.parametrize("p", [5, 7])
    def test_pairs_only_fan_at_primes_beyond_the_gate(self, dp6, p):
        """dp6, whose primitive collections are all pairs, at degree
        (2,...,2): the count matches the class with an explicit budget,
        and the default budget still refuses it."""
        e = (2,) * 6
        assert oracle_compare(p, dp6, e=e, budget=10**11).equal
        with pytest.raises(BudgetError):
            ff_pattern_count(p, dp6, e)

    def test_high_degree_on_the_line(self, p1):
        """Listing the forms of degree 20 took about half a minute."""
        assert oracle_compare(2, p1, e=(20, 1)).equal

    def test_allowed_primes_is_conservative(self):
        assert set(ALLOWED_PRIMES) == {2, 3, 5, 7}


# a warm call of each public entry at D, and the fan checks and cone
# tests it makes: the vector is checked once, and the hom counts read
# the Picard rank with no second check; a warm oracle_compare reads its
# record, so it calls pattern_config_class, which checks again, only on
# a miss; a warm tamagawa is a cache hit
D = (1, 1, 1)
JET = JetCondition.torus_point((1, 1))
ENTRIES = {
    "pattern_config_class": (1, 0, lambda fan: pattern_config_class(fan, D)),
    "hom_class": (1, 1, lambda fan: hom_class(fan, D)),
    "normalized_hom_class": (1, 1, lambda fan: normalized_hom_class(fan, D)),
    "convergence_report": (1, 1, lambda fan: convergence_report(fan, D, 6)),
    "ff_pattern_count": (1, 0, lambda fan: ff_pattern_count(2, fan, D)),
    "oracle_compare_e": (1, 0, lambda fan: oracle_compare(2, fan, e=D)),
    "ff_hom_count": (1, 1, lambda fan: ff_hom_count(2, fan, D)),
    "oracle_compare_d": (1, 1, lambda fan: oracle_compare(2, fan, d=D)),
    "constrained_main_term": (1, 0,
                              lambda fan: constrained_main_term(fan, JET, 6)),
    "tamagawa": (0, 0, lambda fan: tamagawa(fan, 6)),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_fan_checks_of_a_warm_call(p2, monkeypatch, entry):
    """Each public entry checks its vector once, with the fan, and tests
    a map degree against the dual effective cone once.  A warm
    convergence report used to check its fan twice, and a warm
    comparison of a map space three times."""
    checks, cones, call = ENTRIES[entry]
    call(p2)
    tests = []
    for module in (moduli, oracle):
        monkeypatch.setattr(
            module, "eff_dual_contains",
            lambda fan, d: tests.append(d) or eff_dual_contains(fan, d))

    def lookups():
        info = toric.validate.cache_info()
        return info.hits + info.misses

    before = lookups()
    call(p2)
    assert lookups() - before == checks
    assert len(tests) == cones
