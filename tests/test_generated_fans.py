"""A gate over generated fans: seeded star subdivisions of P^2, P^3 and
P^2 x P^1 (generated_fan in scripts/oracle_gate.py), each read by
parse_fan and checked smooth and complete, then compared with the
oracle at p = 2 over entries 0 and 1, for configurations and maps, and
with the uniform box of the whole pattern set, which splits no vector
(reference.whole_fan_class), at s = 0 and 1.  That box is read at
entries 0 to 2 on fans of up to 6 rays: at entries 0 and 1 every live
ray has degree 1, so a component's degrees in the wrong order would go
unseen.  The fixtures hold one fan of dimension 3 and no component
that mixes patterns of sizes 2 and 3; these hold both, so they reach
the split, the closed form and the orbit keys on shapes the fixtures
miss."""

import itertools

import pytest

from reference import count_unmerged, load_oracle_gate, whole_fan_class
from toricurves import oracle
from toricurves.moduli import pattern_config_class
from toricurves.toric import _components, parse_fan, pattern_set, validate

COUNT = 24
GATE = load_oracle_gate()
DOCUMENTS = [GATE.generated_fan(i) for i in range(COUNT)]


def test_generated_fans_cover_both_dimensions_and_mixed_components():
    fans = [parse_fan(doc) for doc in DOCUMENTS]
    assert len(fans) >= 20 and {fan.dim for fan in fans} == {2, 3}
    mixed = 0
    for fan in fans:
        patterns = pattern_set(fan)
        _, split = _components(frozenset(range(fan.nrays)), patterns)
        mixed += any({len(pat) for pat in sub.minimal} >= {2, 3}
                     for _, sub in split)
    assert mixed >= 5, mixed


@pytest.mark.parametrize("index", range(COUNT))
def test_generated_fan_agrees_with_the_oracle_and_the_whole_box(index):
    fan = parse_fan(DOCUMENTS[index])
    report = validate(fan)
    assert report.smooth and report.complete, report.details
    n_config, n_hom, mismatches, _ = GATE.gate_fan(fan, (2,), 1, None)
    assert n_config == 2**fan.nrays and n_hom > 0
    assert mismatches == []
    side = 2 if fan.nrays <= 6 else 1
    for s in (0, 1):
        for e in itertools.product(range(side + 1), repeat=fan.nrays):
            assert (pattern_config_class(fan, e, s)
                    == whole_fan_class(fan, e, s)), (s, e)


@pytest.mark.parametrize("index", range(COUNT))
def test_generated_fan_walk_matches_the_unmerged_walk(index):
    """The oracle's walk, with its orbit merge and shared plain step
    tables, against the walk that merges no orbit and lists the forms
    (reference.count_unmerged), at p = 2 and 3 over entries 0 and 1."""
    fan = parse_fan(DOCUMENTS[index])
    patterns = pattern_set(fan).minimal
    for e in itertools.product((0, 1), repeat=fan.nrays):
        for p in (2, 3):
            assert (oracle._count(p, e, patterns)
                    == count_unmerged(p, e, patterns)), (p, e)
