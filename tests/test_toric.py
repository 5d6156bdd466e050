"""Fan parsing, validation, and lattice bookkeeping."""

import json

import pytest

from toricurves.errors import FanValidationError
from toricurves.grothendieck import L, ONE
from toricurves.toric import (
    class_of_variety,
    eff_dual_contains,
    eff_dual_enumerate,
    enumerate_cones,
    fan_product,
    parse_fan,
    pattern_set,
    picard_data,
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
        pd = picard_data(fan)
        assert pd.rank == EXPECTED_RANKS[name], name
        assert pd.rank == fan.nrays - fan.dim


def test_projection_kills_ray_matrix(fans):
    for name, fan in fans.items():
        pd = picard_data(fan)
        for row in pd.projection:
            for j in range(fan.dim):
                assert sum(
                    row[a] * fan.rays[a][j] for a in range(fan.nrays)
                ) == 0, name


def test_projection_golden_values(p1, p2):
    assert picard_data(p1).projection == ((1, 1),)
    assert picard_data(p2).projection == ((1, 1, 1),)


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
    assert pats.lies_above((1, 1, 0, 0))
    assert pats.lies_above((2, 1, 1, 0))
    assert not pats.lies_above((1, 0, 1, 0))
    assert not pats.lies_above((0, 0, 0, 0))


def test_eff_dual_membership(p1, p2, bl1p2):
    assert eff_dual_contains(p1, (2, 2))
    assert not eff_dual_contains(p1, (1, 2))
    assert eff_dual_contains(p2, (3, 3, 3))
    assert not eff_dual_contains(p2, (1, 1, 0))
    # blow-up degrees are (a, b, a, a+b)
    assert eff_dual_contains(bl1p2, (1, 2, 1, 3))
    assert not eff_dual_contains(bl1p2, (1, 1, 1, 1))


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
    assert picard_data(prod).rank == 2


def test_parse_round_trip(p2):
    assert parse_fan(p2.to_json()).rays == p2.rays


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


def test_validation_deterministic_across_seeds(fans):
    for fan in fans.values():
        reports = [validate(fan, seed=s) for s in (0, 1, 2)]
        assert all(r.smooth and r.complete for r in reports)


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
    for seed in (0, 1, 7):
        report = validate(fan, seed=seed)
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
