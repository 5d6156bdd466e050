"""Fan parsing, validation, and lattice bookkeeping."""

import dataclasses
import itertools
import json
import math
import random
import re

import pytest

from reference import (
    cone_ray_sets,
    eff_dual_enumerate,
    fan_document,
    fan_product,
    lies_above,
    picard_projection,
    solve_rational,
    tuple_min_orbit_key,
)
from toricurves import toric
from toricurves.cli import EXIT_VALIDATION, main
from toricurves.errors import FanValidationError
from toricurves.grothendieck import L, ONE
from toricurves.toric import (
    Fan,
    class_of_variety,
    det_int,
    eff_dual_contains,
    enumerate_cones,
    parse_fan,
    pattern_set,
    picard_rank,
    require_valid,
    validate,
)

EXPECTED_F_VECTORS = {
    "p1": (1, 2),
    "p2": (1, 3, 3),
    "p3": (1, 4, 6, 4),
    "p1xp1": (1, 4, 4),
    "bl1p2": (1, 4, 4),
    "dp6": (1, 6, 6),
}

EXPECTED_RANKS = {
    "p1": 1, "p2": 1, "p3": 1, "p1xp1": 2, "bl1p2": 2, "dp6": 4,
}


def test_all_fixtures_validate(fans):
    for name, fan in fans.items():
        report = validate(fan)
        assert report.smooth and report.complete, (name, report.details)


def test_f_vectors(fans):
    for name, fan in fans.items():
        assert enumerate_cones(fan) == EXPECTED_F_VECTORS[name], name


def test_picard_ranks(fans):
    for name, fan in fans.items():
        rank = picard_rank(fan)
        assert rank == EXPECTED_RANKS[name], name
        assert rank == fan.nrays - fan.dim


def test_projection_kills_ray_matrix(fans):
    for name, fan in fans.items():
        for row in picard_projection(fan):
            for j in range(fan.dim):
                assert sum(
                    row[a] * fan.rays[a][j] for a in range(fan.nrays)
                ) == 0, name


def test_projection_golden_values(p1, p2, bl1p2, dp6):
    assert picard_projection(p1) == ((1, 1),)
    assert picard_projection(p2) == ((1, 1, 1),)
    assert picard_projection(bl1p2) == ((1, 0, 1, 1), (0, 1, 0, 1))
    dp6_rows = ((1, 0, 0, 0, -1, -1), (0, 1, 0, 0, 1, 0),
                (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1))
    assert picard_projection(dp6) == dp6_rows
    zeros = (0,) * 6
    assert picard_projection(fan_product(dp6, dp6)) == (
        tuple(row + zeros for row in dp6_rows)
        + tuple(zeros + row for row in dp6_rows))
    p1_3 = fan_product(fan_product(p1, p1), p1)
    assert picard_projection(p1_3) == (
        (1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1))


def test_classes_of_varieties(fans):
    expected = {
        "p1": L + ONE,
        "p2": L**2 + L + ONE,
        "p3": L**3 + L**2 + L + ONE,
        "p1xp1": (L + ONE) ** 2,
        "bl1p2": L**2 + 2 * L + ONE,
        "dp6": L**2 + 4 * L + ONE,
    }
    for name, fan in fans.items():
        assert class_of_variety(fan) == expected[name], name


def test_primitive_collections(fans):
    got = {
        name: sorted(sorted(s) for s in pattern_set(fan).minimal)
        for name, fan in fans.items()
    }
    assert got["p1"] == [[0, 1]]
    assert got["p2"] == [[0, 1, 2]]
    assert got["p3"] == [[0, 1, 2, 3]]
    assert got["p1xp1"] == [[0, 1], [2, 3]]
    assert got["bl1p2"] == [[0, 2], [1, 3]]
    assert len(got["dp6"]) == 9 and all(len(s) == 2 for s in got["dp6"])


def test_pattern_lies_above(p1xp1):
    pats = pattern_set(p1xp1)
    assert lies_above(pats, (1, 1, 0, 0))
    assert lies_above(pats, (2, 1, 1, 0))
    assert not lies_above(pats, (1, 0, 1, 0))
    assert not lies_above(pats, (0, 0, 0, 0))


def test_eff_dual_membership(p1, p2, bl1p2):
    assert eff_dual_contains(p1, (2, 2))
    assert not eff_dual_contains(p1, (1, 2))
    assert eff_dual_contains(p2, (3, 3, 3))
    assert not eff_dual_contains(p2, (1, 1, 0))
    # blow-up degrees are (a, b, a, a+b)
    assert eff_dual_contains(bl1p2, (1, 2, 1, 3))
    assert not eff_dual_contains(bl1p2, (1, 1, 1, 1))


@pytest.mark.parametrize("entry", [1.5, 1.0, "1", True])
def test_eff_dual_refuses_entries_that_are_not_integers(p2, entry):
    # int() would read each of them as 1, and (1, 1, 1) is in the cone
    with pytest.raises(ValueError, match=f"degree entry {entry!r} is not"):
        eff_dual_contains(p2, (entry, 1, 1))


def test_eff_dual_refuses_a_vector_of_the_wrong_length(p2):
    with pytest.raises(ValueError, match="degree vector needs 3 entries"):
        eff_dual_contains(p2, (1, 1))


PLANE_RAYS = [[1, 0], [0, 1], [-1, -1]]


@pytest.mark.parametrize("document, message", [
    ({"rays": [], "max_cones": [[0]]},
     "'rays' must be a nonempty list of integer vectors"),
    ({"rays": [[]], "max_cones": [[0]]}, "rays must have positive length"),
    ({"rays": [[1, 0], [1]], "max_cones": [[0, 1]]},
     "ray at index 1 has length 1, expected 2"),
    ({"rays": [[1, 0], [1, 0]], "max_cones": [[0, 1]]},
     r"duplicate ray \[1, 0\]"),
    ({"rays": PLANE_RAYS, "max_cones": []},
     "'max_cones' must be a nonempty list of index lists"),
    ({"rays": PLANE_RAYS, "max_cones": [[0, 0]]},
     "cone at index 0 repeats a ray index"),
    ({"rays": PLANE_RAYS, "max_cones": [[0, 1, 2]]},
     "cone 0 has 3 rays, expected 2"),
    ({"rays": [[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1], [1, 1]],
      "max_cones": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]},
     "wall-adjacency graph is disconnected"),
], ids=["no-rays", "empty-ray", "ragged", "duplicate", "no-cones",
        "repeated-index", "three-rays-in-the-plane", "disconnected"])
def test_fan_refusals(document, message, tmp_path, capsys):
    """Each document is refused with its message, in the library and by
    analyze, which exits 2 and prints nothing to stdout."""
    with pytest.raises(FanValidationError, match=message):
        require_valid(parse_fan(document))
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(document))
    assert main(["analyze", str(path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(message, captured.err), captured.err


def test_eff_dual_enumerate(p1, bl1p2):
    assert eff_dual_enumerate(p1, 4) == [(0, 0), (1, 1), (2, 2)]
    degrees = eff_dual_enumerate(bl1p2, 5)
    assert (1, 1, 1, 2) in degrees
    assert all(eff_dual_contains(bl1p2, d) for d in degrees)
    assert all(sum(d) <= 5 for d in degrees)


def test_fan_product_is_p1xp1(p1, p1xp1):
    prod = fan_product(p1, p1)
    require_valid(prod)
    assert prod.dim == 2 and prod.nrays == 4
    assert class_of_variety(prod) == class_of_variety(p1xp1)
    assert picard_rank(prod) == 2


def test_parse_round_trip(p2):
    assert parse_fan(fan_document(p2)).rays == p2.rays


def test_fan_hash_is_taken_once_and_keeps_the_dataclass(dp6):
    """Two fans parsed from one document are equal and hash equal, so
    the second finds the first one's validation; the hash, kept on the
    instance, is that of the fields, and the fields, the repr and the
    JSON form are the dataclass's own."""
    doc = fan_document(dp6)
    first, second = parse_fan(doc), parse_fan(json.loads(json.dumps(doc)))
    assert first is not second and first == second
    assert hash(first) == hash(second) == hash(
        (first.dim, first.rays, first.max_cones))
    report = validate(first)
    before = validate.cache_info()
    assert validate(second) is report
    after = validate.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert [f.name for f in dataclasses.fields(Fan)] == [
        "dim", "rays", "max_cones"]
    assert repr(second) == (f"Fan(dim=2, rays={dp6.rays!r}, "
                            f"max_cones={dp6.max_cones!r})")
    assert fan_document(second) == doc
    assert dataclasses.replace(second) == second


def test_orbit_keys_are_the_least_relabelling(fans):
    """The memo's keys, one itemgetter per permutation, are the least
    tuple over the permutations, the twin classes sorted first, on each
    fixture's box of entries 0 to 2, and on dp6 x dp6 (28 listed
    permutations) for entries 0 and 1."""
    dp6 = fans["dp6"]
    boxes = [(fan, 2) for fan in fans.values()]
    for fan, top in (*boxes, (fan_product(dp6, dp6), 1)):
        keys = toric._orbit_keys(pattern_set(fan))
        for e in itertools.product(range(top + 1), repeat=fan.nrays):
            assert keys[e] == tuple_min_orbit_key(e, keys.sym), e


def test_incomplete_fan_rejected():
    doc = {"name": "a2", "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
    fan = parse_fan(doc)
    report = validate(fan)
    assert not report.complete
    with pytest.raises(FanValidationError):
        require_valid(fan)


def test_singular_fan_rejected():
    doc = {
        "name": "weighted",
        "rays": [[1, 0], [0, 1], [-1, -2]],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
    }
    report = validate(parse_fan(doc))
    assert not report.smooth


def test_nonprimitive_ray_rejected():
    doc = {"name": "bad", "rays": [[2, 0], [0, 1], [-2, -1]],
           "max_cones": [[0, 1], [1, 2], [2, 0]]}
    with pytest.raises(FanValidationError):
        parse_fan(doc)


def test_malformed_document_rejected():
    with pytest.raises(FanValidationError):
        parse_fan({"rays": [[1, 0]]})


def test_boolean_ray_entry_rejected():
    doc = {"rays": [[True, 0], [0, 1], [-1, -1]],
           "max_cones": [[0, 1], [1, 2], [2, 0]]}
    with pytest.raises(FanValidationError, match="ray at index 0 is not"):
        parse_fan(doc)


def test_boolean_cone_index_rejected():
    doc = {"rays": [[1, 0], [0, 1], [-1, -1]],
           "max_cones": [[False, True], [1, 2], [2, 0]]}
    with pytest.raises(FanValidationError, match="cone at index 0 is not"):
        parse_fan(doc)


# ten smooth cones that wind twice around the origin: every wall has its
# two cones on opposite sides, yet every direction is covered twice
DOUBLY_WOUND = {
    "rays": [[1, 0], [-2, 1], [-1, 0], [-2, -1], [-1, -1], [-1, -2],
             [1, 1], [0, 1], [-1, 1], [0, -1]],
    "max_cones": [[i, (i + 1) % 10] for i in range(10)],
}


def test_doubly_wound_fan_rejected(tmp_path):
    from toricurves.cli import EXIT_VALIDATION, main

    fan = parse_fan(DOUBLY_WOUND)
    report = validate(fan)
    assert report.smooth and not report.complete, report.details
    with pytest.raises(FanValidationError):
        require_valid(fan)
    path = tmp_path / "wound.json"
    path.write_text(json.dumps(DOUBLY_WOUND))
    assert main(["analyze", str(path)]) == EXIT_VALIDATION


def test_cones_on_one_side_of_a_wall_rejected():
    # three smooth cones in the right half-plane, glued along every wall
    fan = parse_fan({"rays": [[1, 0], [0, 1], [1, 1]],
                     "max_cones": [[0, 1], [1, 2], [0, 2]]})
    report = validate(fan)
    assert report.smooth and not report.complete
    assert any("side of their wall" in line for line in report.details)


def subset_scan(fan):
    """Reference primitive collections: every ray subset by size, kept
    when it lies in no maximal cone and holds no smaller kept subset."""
    cone_sets = cone_ray_sets(fan)
    minimal = []
    for size in range(1, fan.nrays + 1):
        for combo in itertools.combinations(range(fan.nrays), size):
            s = frozenset(combo)
            if any(s <= c for c in cone_sets) or any(m <= s for m in minimal):
                continue
            minimal.append(s)
    return tuple(sorted((tuple(sorted(s)) for s in minimal),
                        key=lambda s: (len(s), s)))


def test_pattern_set_matches_subset_scan(fans, polygon_document):
    p1, dp6 = fans["p1"], fans["dp6"]
    p1_6 = p1
    for _ in range(5):
        p1_6 = fan_product(p1_6, p1)
    cases = dict(fans)
    cases["dp6xdp6"] = fan_product(dp6, dp6)
    cases["p1^6"] = p1_6
    for nrays in range(3, 17):
        cases[f"{nrays}-gon"] = parse_fan(polygon_document(nrays))
    for name, fan in cases.items():
        assert pattern_set(fan).minimal == subset_scan(fan), name


def test_pattern_set_of_the_20_gon(polygon_document):
    # the primitive collections of an n-gon are its n(n-3)/2 diagonals
    minimal = pattern_set(parse_fan(polygon_document(20))).minimal
    assert len(minimal) == 170 == 20 * 17 // 2
    assert set(minimal) == {(i, j) for i in range(20)
                            for j in range(i + 2, 20) if (i, j) != (0, 19)}


def all_pairs_complete(fan):
    """Reference completeness flag for fans of full-dimensional cones:
    the wall conditions of validate, then the barycenter of every
    maximal cone tested against every other maximal cone."""
    cones = fan.max_cones
    facets = {}
    for cdx, cone in enumerate(cones):
        for facet in itertools.combinations(cone, len(cone) - 1):
            facets.setdefault(frozenset(facet), []).append(cdx)
    if any(len(owners) != 2 for owners in facets.values()):
        return False
    seen, stack = {0}, [0]
    while stack:
        cdx = stack.pop()
        for owners in facets.values():
            if cdx in owners:
                stack += [o for o in owners if o not in seen]
                seen.update(owners)
    if len(seen) != len(cones):
        return False
    for facet, owners in facets.items():
        wall = [list(fan.rays[i]) for i in sorted(facet)]
        sides = [det_int(wall + [list(fan.rays[i])])
                 for cdx in owners for i in cones[cdx] if i not in facet]
        if sides[0] * sides[1] >= 0:
            return False
    for cdx, cone in enumerate(cones):
        barycenter = [sum(fan.rays[i][j] for i in cone) for j in range(fan.dim)]
        for other, cols in enumerate(cones):
            if other != cdx:
                sol = solve_rational([list(fan.rays[i]) for i in cols], barycenter)
                if sol is not None and all(x >= 0 for x in sol):
                    return False
    return True


def _perturbed(rng, fan):
    """The fan with one or two rays moved to random primitive vectors."""
    rays = list(fan.rays)
    for _ in range(rng.randint(1, 2)):
        while True:
            vec = tuple(rng.randint(-3, 3) for _ in range(fan.dim))
            g = math.gcd(*vec)
            if g and tuple(x // g for x in vec) not in rays:
                break
        rays[rng.randrange(len(rays))] = tuple(x // g for x in vec)
    return Fan(dim=fan.dim, rays=tuple(rays), max_cones=fan.max_cones)


def _wound(rng, winding):
    """A cycle of plane cones turning `winding` times around the origin,
    with every turn between 0.3 and 3 radians."""
    while True:
        m = rng.randint(3 * winding, 5 * winding + 2)
        gaps = [rng.uniform(0.3, 3.0) for _ in range(m)]
        scale = 2 * math.pi * winding / sum(gaps)
        if not all(0.3 <= g * scale <= 3.0 for g in gaps):
            continue
        angles = itertools.accumulate(g * scale for g in gaps)
        rays = []
        for t in angles:
            x, y = round(50 * math.cos(t)), round(50 * math.sin(t))
            g = math.gcd(x, y)
            rays.append((x // g, y // g))
        if len(set(rays)) == m:
            cones = tuple(tuple(sorted((i, (i + 1) % m))) for i in range(m))
            return Fan(dim=2, rays=tuple(rays), max_cones=cones)


def test_validate_matches_all_pairs_barycenters(fans):
    rng = random.Random(20231)
    bases = [fans[name] for name in ("p2", "p3", "p1xp1", "bl1p2", "dp6")]
    bases.append(fan_product(fans["p1"], fans["p2"]))
    outcomes = set()
    for _ in range(150):
        fan = _perturbed(rng, rng.choice(bases))
        complete = validate(fan).complete
        assert complete == all_pairs_complete(fan), fan
        outcomes.add(complete)
    for winding in (1, 2, 3):
        for _ in range(40):
            fan = _wound(rng, winding)
            complete = validate(fan).complete
            assert complete == all_pairs_complete(fan) == (winding == 1), fan
    assert outcomes == {True, False}


def test_cone_contains_matches_the_rational_solve():
    """Cramer's rule against Gauss-Jordan over the rationals, on random
    integer systems of sizes 1 to 4, singular ones included."""
    rng = random.Random(2302)
    outcomes = set()
    for _ in range(3000):
        n = rng.randint(1, 4)
        cols = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        point = [rng.randint(-3, 3) for _ in range(n)]
        sol = solve_rational([list(c) for c in cols], point)
        want = sol is not None and all(x >= 0 for x in sol)
        assert toric._cone_contains(cols, point) == want, (cols, point)
        outcomes.add((sol is None, want))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_validate_solves_for_one_barycenter(p1, monkeypatch):
    p1_6 = p1
    for _ in range(5):
        p1_6 = fan_product(p1_6, p1)
    solves = []
    cone_contains = toric._cone_contains

    def counting_contains(cols, point):
        solves.append(point)
        return cone_contains(cols, point)

    monkeypatch.setattr(toric, "_cone_contains", counting_contains)
    report = validate.__wrapped__(p1_6)
    assert report.smooth and report.complete
    assert len(solves) <= len(p1_6.max_cones) - 1 == 63
