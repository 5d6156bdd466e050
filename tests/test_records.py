"""Warm convergence reports and oracle comparisons are read from one
record per orbit key, kept in the engine's cache of the pattern set.
Each answer served that way equals the one assembled afresh from the
public classes and counts (reference.fresh_report and
fresh_comparison): over the acceptance convergence families at E = 6
and 12, over every comparison of scripts/oracle_gate.py at p = 2 and 3,
whichever vector of an orbit is asked first, and for a second fan with
the same pattern set, which reads the first fan's records."""

import itertools
from dataclasses import replace

from reference import (
    clear_caches,
    convergence_families,
    fan_document,
    fresh_comparison,
    fresh_report,
    load_oracle_gate,
)
from toricurves.eulerprod import _shared_classes
from toricurves.moduli import convergence_report
from toricurves.oracle import oracle_compare
from toricurves.toric import (
    _orbit_keys,
    eff_dual_contains,
    parse_fan,
    pattern_set,
)


def assert_comparison(rep, p, fan, e=None, d=None):
    brute, predicted = fresh_comparison(p, fan, e=e, d=d)
    assert (rep.p, rep.kind) == (p, "config" if d is None else "hom")
    assert rep.vector == (e if d is None else d)
    assert (rep.brute, rep.predicted) == (brute, predicted), (rep, e, d)
    assert rep.equal


def test_reports_match_fresh_ones_over_the_convergence_families(fans):
    for E in (6, 12):
        for name, degrees in convergence_families(fans).items():
            fan = fans[name]
            for d in degrees:
                assert convergence_report(fan, d, E) == fresh_report(
                    fan, d, E), (name, d, E)


def test_comparisons_match_fresh_ones_over_the_oracle_gate(
        fans, monkeypatch):
    gate = load_oracle_gate()
    seen = []
    monkeypatch.setattr(gate, "oracle_compare", lambda p, fan, **kw: seen.append(
        (p, fan, kw, oracle_compare(p, fan, **kw))) or seen[-1][-1])
    for fan in fans.values():
        gate.gate_fan(fan, (2, 3), None, None)
    assert len(seen) == 3320
    for p, fan, kw, rep in seen:
        assert_comparison(rep, p, fan, kw.get("e"), kw.get("d"))


def orbits(fan, top):
    """The orbits of two or more degree vectors with entries 0 to top
    that hold a vector of the dual effective cone, each in the order of
    itertools.product."""
    keys = _orbit_keys(pattern_set(fan))
    members = {}
    for e in itertools.product(range(top + 1), repeat=fan.nrays):
        members.setdefault(keys[e], []).append(e)
    return [vecs for vecs in members.values() if len(vecs) > 1
            and any(eff_dual_contains(fan, e) for e in vecs)]


def test_the_second_vector_of_an_orbit_asked_first(fans):
    """From cold caches, a later vector of an orbit builds its records
    and the first reads them, and each answer is still its own."""
    for name in ("p1xp1", "bl1p2", "dp6"):
        fan = fans[name]
        chosen = orbits(fan, 2)[:3]
        assert len(chosen) == 3
        for vecs in chosen:
            clear_caches()
            for e in reversed(vecs):
                if eff_dual_contains(fan, e):
                    assert convergence_report(fan, e, 6) == fresh_report(
                        fan, e, 6), (name, e)
                for p in (2, 3):
                    assert_comparison(oracle_compare(p, fan, e=e), p, fan, e=e)
                    assert_comparison(oracle_compare(p, fan, d=e), p, fan, d=e)


def test_a_fan_with_the_same_pattern_set_reads_the_same_records(dp6):
    """The image of dp6 under a unimodular matrix has the same maximal
    cones, so the same pattern set, and the same dual effective cone:
    its reports and comparisons read dp6's records, add none, and equal
    dp6's but for the time they took."""
    doc = fan_document(dp6)
    doc["rays"] = [[2 * x + y, x + y] for x, y in doc["rays"]]
    image = parse_fan(doc)
    assert image != dp6 and pattern_set(image) == pattern_set(dp6)
    records = _shared_classes(pattern_set(dp6))[0]

    def answers(fan):
        out = []
        for e in itertools.product(range(3), repeat=6):
            out += [replace(oracle_compare(2, fan, **{kind: e}), elapsed_ms=0)
                    for kind in ("e", "d")]
            if eff_dual_contains(fan, e):
                out.append(convergence_report(fan, e, 12))
        return out

    first = answers(dp6)
    held = len(records)
    assert answers(image) == first
    assert len(records) == held
    assert convergence_report(image, (1,) * 6, 12) == fresh_report(
        image, (1,) * 6, 12)
