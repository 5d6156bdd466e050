"""Moduli classes, the limiting constant, and convergence reports."""

import functools
import itertools
import logging
import random
from fractions import Fraction

import pytest

from reference import (
    HIRZEBRUCH_2,
    binomial_torus,
    clear_caches,
    config_series,
    expected_dimension_check,
    fan_product,
    laurent_from_json,
    lies_above,
    record_work,
    truncate,
    whole_fan_box,
    whole_fan_class,
    zeta_p1_coeffs,
)
from toricurves.grothendieck import (
    MINUS_INFINITY,
    L,
    ONE,
    ZERO,
    LaurentClass,
    SeriesCap,
    unpack_class,
)
from toricurves.eulerprod import (
    euler_product_at_Linv,
    euler_product_p1,
    global_mobius,
)
from toricurves.mobius import IntPoly, fan_mobius_polynomial, mobius_table
from toricurves.toric import eff_dual_contains, pattern_set
from toricurves.moduli import (
    DegreeVector,
    ErrorReport,
    JetCondition,
    constrained_main_term,
    convergence_report,
    hom_class,
    normalized_hom_class,
    pattern_config_class,
    tamagawa,
)
from toricurves import eulerprod, moduli, oracle, toric
from toricurves.cli import EXIT_INTERNAL, main
from toricurves.errors import InternalCheckError


def check_reads_by_exponents(fan, side):
    """Every cell of the fan's uniform box of the given side reads, from
    _WalkTerms.at, the sum over the terms of R whose exponents lie below
    it, found by comparing exponent tuples among all the terms."""
    terms = eulerprod._config_terms(toric.pattern_set(fan), 0, side)
    rest = [(terms.keys.unpack(key), offset, value)
            for key, offset, value in terms.rest]
    for e in itertools.product(range(side + 1), repeat=fan.nrays):
        pos = sum(x * st for x, st in zip(e, terms.strides))
        want = sum(value * terms.dense[pos - offset]
                   for prior, offset, value in rest
                   if all(a <= b for a, b in zip(prior, e)))
        assert terms.at(e) == want, e


def open_curve_config_series(fan, cap, s=0):
    """Tripwire route for the configuration series on the open curve.

    Instead of splitting off the zeta factors, feed the engine the
    truncated avoidance indicator itself (1 on exponents dominating no
    forbidden pattern, 0 elsewhere).  Agrees with pattern_config_class
    on every admitted exponent; the input here is dense, so this route
    is only meant for small caps.
    """
    patterns = pattern_set(fan)
    coeffs = {}
    for e in itertools.product(*(range(b + 1) for b in cap.box)):
        if cap.admits(e) and not lies_above(patterns, e):
            coeffs[e] = 1
    return euler_product_p1(IntPoly(fan.nrays, coeffs), s, cap)


@functools.cache
def box_mobius(fan, s, top):
    """The global Mobius table in the box of side top, once per test run
    and not once per exponent, as the library keeps no copy of it."""
    return global_mobius(fan, s, SeriesCap((top,) * fan.nrays))


def direct_config_class(fan, e, s=0):
    """Reference route: convolve the box-capped global Mobius table with
    one punctured-line zeta coefficient per ray, exponent by exponent."""
    top = max(e) if e else 0
    table = box_mobius(fan, s, top)
    zeta = zeta_p1_coeffs(s, top)
    acc = ZERO
    for prior, mu in table.items():
        if any(a > b for a, b in zip(prior, e)):
            continue
        term = mu
        for a, b in zip(prior, e):
            term = term * zeta[b - a]
        acc = acc + term
    return acc


class TestDegreeVector:
    def test_of_accepts_sequences_and_itself(self):
        dv = DegreeVector.of([1, 2, 0])
        assert dv.entries == (1, 2, 0)
        assert DegreeVector.of(dv) is dv

    def test_totals(self):
        dv = DegreeVector.of((3, 1, 2))
        assert dv.total == 6
        assert dv.minimum == 1
        assert dv.entries == (3, 1, 2)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            DegreeVector.of((1, -1))

    @pytest.mark.parametrize("entry", [1.5, 1.0, "1", True])
    def test_refuses_entries_that_are_not_integers(self, p2, entry):
        """int() would truncate 1.5 and parse '1'; a bool is an int to
        isinstance.  Each is refused by name, not read as 1."""
        with pytest.raises(ValueError, match=f"degree entry {entry!r} "):
            DegreeVector.of((entry, 1, 1))
        with pytest.raises(ValueError, match=f"degree entry {entry!r} "):
            pattern_config_class(p2, (entry, 1, 1))


class TestConfigClasses:
    def test_disjoint_point_pairs_on_the_line(self, p1):
        assert pattern_config_class(p1, (1, 1)) == L**2 + L

    def test_disjoint_divisor_pairs_degree_two(self, p1):
        # checked by hand over F_2: 24 disjoint pairs of degree-2 divisors
        got = pattern_config_class(p1, (2, 2))
        assert got == L**4 + L**3
        assert got.evaluate(2) == 24

    def test_empty_degree_gives_one(self, p2):
        assert pattern_config_class(p2, (0, 0, 0)) == ONE

    def test_arity_mismatch(self, p2):
        with pytest.raises(ValueError):
            pattern_config_class(p2, (1, 1))

    @pytest.mark.parametrize("s", [True, 1.5, 1.0, "1"])
    def test_refuses_a_point_count_that_is_not_an_integer(self, p1, p2, s):
        # True used to give the s = 1 class, and the engine's s = 1
        # coefficients; 1.5 raised TypeError in the engine
        pattern_config_class(p2, (1, 1, 1), 1)
        global_mobius(p1, 1)
        P, cap = fan_mobius_polynomial(p1), SeriesCap.total_cap(2, 4)
        for route in (lambda: pattern_config_class(p2, (1, 1, 1), s),
                      lambda: global_mobius(p1, s),
                      lambda: euler_product_p1(P, s, cap),
                      lambda: euler_product_at_Linv(p1, s, 4)):
            with pytest.raises(ValueError,
                               match=f"count {s!r} is not an integer"):
                route()

    def test_series_matches_per_degree_classes(self, p1xp1):
        cap = SeriesCap((2, 2, 2, 2), total=4)
        series = open_curve_config_series(p1xp1, cap)
        assert series.coeffs.keys() == config_series(p1xp1, cap).keys()
        for e, value in series.items():
            assert value == pattern_config_class(p1xp1, e), e

    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_dense_route_agrees(self, p1, p2, p1xp1, s):
        """The avoidance-indicator route and the factored route compute
        the same configuration series."""
        for fan, cap in (
            (p1, SeriesCap((3, 3))),
            (p2, SeriesCap((2, 2, 2))),
            (p2, SeriesCap((3, 1, 2))),
            (p1xp1, SeriesCap((2, 1, 2, 2), total=4)),
            # 495 admitted exponents in a box of 5^8
            (fan_product(p1xp1, p1xp1), SeriesCap.total_cap(8, 4)),
        ):
            a = config_series(fan, cap, s)
            b = open_curve_config_series(fan, cap, s)
            assert a == b.coeffs, (cap, s)

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_packed_route_matches_direct_convolution(self, fans, dp6, s):
        """Every exponent of every fixture's box up to 2, a seeded sample
        of the dp6 box at 3 and two P^3 degrees at 40, against the
        reference convolution."""
        for name, fan in fans.items():
            for e in itertools.product(range(3), repeat=fan.nrays):
                want = direct_config_class(fan, e, s)
                assert pattern_config_class(fan, e, s) == want, (name, e)
        rng = random.Random(11)
        for _ in range(12):
            e = tuple(rng.randrange(4) for _ in range(dp6.nrays))
            want = direct_config_class(dp6, e, s)
            assert pattern_config_class(dp6, e, s) == want, e
        # P = 1 - t1 t2 t3 t4: 41 Mobius terms in a box of side 40
        for e in ((40, 40, 40, 40), (40, 37, 40, 39)):
            want = direct_config_class(fans["p3"], e, s)
            assert pattern_config_class(fans["p3"], e, s) == want, e

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_closed_form_matches_direct_convolution(self, fans, s):
        """Single patterns read in closed form: every vector of P^1, P^2,
        P^3, and of p1xp1 and bl1p2, whose components are pairs, with
        entries up to 4, against the reference convolution."""
        for name in ("p1", "p2", "p3", "p1xp1", "bl1p2"):
            fan = fans[name]
            for e in itertools.product(range(5), repeat=fan.nrays):
                want = direct_config_class(fan, e, s)
                assert pattern_config_class(fan, e, s) == want, (name, e)

    def test_closed_form_gives_the_line_maps_of_high_degree(self, p1):
        """The classical [Hom_d(P^1, P^1)] = L^(2d+1) - L^(2d-1) at
        d = 300, with no box of side 300 built."""
        assert hom_class(p1, (300, 300)) == L**601 - L**599

    def test_walk_route_matches_direct_convolution_at_box_four(self, dp6):
        """The dp6 box of side 4, where R has 1,084 terms, against the
        reference convolution of the full table."""
        rng = random.Random(4)
        for e in ((1, 1, 1, 4, 4, 4), (4,) * 6,
                  *(tuple(rng.randrange(5) for _ in range(6)) for _ in range(2))):
            assert pattern_config_class(dp6, e) == direct_config_class(dp6, e), e

    def test_route_follows_the_sizes(self, fans):
        """Every box is walked: the fixtures of several patterns at
        s = 0..3 and sides 0..7 (0..4 on dp6).  A pattern set of one
        pattern builds no box (test_boxes_are_built_per_component)."""
        for (name, fan), s in itertools.product(fans.items(), range(4)):
            patterns = toric.pattern_set(fan)
            if len(patterns.minimal) == 1:
                continue
            for side in range(5 if name == "dp6" else 8):
                terms = eulerprod._config_terms(patterns, s, side)
                assert type(terms) is eulerprod._WalkTerms, (name, s, side)

    def test_walk_mask_test_matches_the_exponent_comparison(self, dp6):
        """_WalkTerms.at picks the terms of R below e by one mask test
        on packed keys, among the terms up to pos(e); here they are
        picked by comparing exponent tuples among all the terms, at
        every cell of the dp6 box of side 3."""
        check_reads_by_exponents(dp6, 3)

    @pytest.mark.parametrize("name, side", [
        ("p1xp1", 5), ("bl1p2", 5), ("5-gon", 2)])
    def test_walk_reads_stop_at_their_position(
            self, fans, polygon_document, name, side):
        """As above on the boxes of other shapes, where a read stops at
        the first term of R past its position."""
        fan = (toric.parse_fan(polygon_document(5)) if name == "5-gon"
               else fans[name])
        check_reads_by_exponents(fan, side)

    def test_specializes_to_point_counts(self, p2, bl1p2):
        for fan, e, p in ((p2, (1, 1, 1), 2), (p2, (2, 2, 2), 3),
                          (bl1p2, (1, 1, 1, 2), 3)):
            predicted = pattern_config_class(fan, e).evaluate(p)
            assert predicted == oracle.ff_pattern_count(p, fan, e), (e, p)


@pytest.fixture
def cold_config_cache():
    """Caches emptied before and after, so that no entry built under a
    monkeypatch outlives the test."""
    clear_caches()
    yield
    clear_caches()


def test_readback_refuses_digits_beyond_the_bound(
        dp6, monkeypatch, capsys, cold_config_cache):
    # at 8 bits a digit must stay below 2^6, and the class at (2,...,2)
    # has the coefficient -1128 at L^2
    monkeypatch.setattr(eulerprod, "_width", lambda majorant, reach: 8)
    with pytest.raises(InternalCheckError, match="exceeds its bound"):
        pattern_config_class(dp6, (2,) * 6)
    assert main(["hom", "dp6", "--degree", "2,2,2,2,2,2"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == "" and "exceeds its bound" in captured.err


def test_product_route_runs_the_mobius_checks(
        p2, monkeypatch, capsys, cold_config_cache):
    # the Euler product at L^-1 under the constant checks its table
    def tripwire(series):
        raise InternalCheckError("Mobius tripwire")

    monkeypatch.setattr(eulerprod, "_checked_mobius", tripwire)
    with pytest.raises(InternalCheckError, match="Mobius tripwire"):
        tamagawa(p2, 4)
    jc = JetCondition.torus_point((1, 1))
    with pytest.raises(InternalCheckError, match="Mobius tripwire"):
        constrained_main_term(p2, jc, 4)
    for args in (["tamagawa", "p2", "--order", "4"],
                 ["constrained", "p2", "--order", "4"]):
        assert main(args) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == "" and "Mobius tripwire" in captured.err


def _shared_cases(fans, polygon_document):
    """(fan, degree vectors), each read at s = 0, 1, 2: every fixture and
    F_2 over a box, and the 12-gon and dp6 x dp6, whose search lists part
    of their group, at the degrees of at most two 1s, where one class
    costs a few ms."""
    for fan in (*fans.values(), HIRZEBRUCH_2):
        top = 2 if fan.nrays > 4 else 3
        yield fan, list(itertools.product(range(top + 1), repeat=fan.nrays))
    for fan in (toric.parse_fan(polygon_document(12)),
                fan_product(fans["dp6"], fans["dp6"])):
        yield fan, [e for e in itertools.product((0, 1), repeat=12)
                    if sum(e) <= 2]


def test_sharing_changes_no_class(fans, polygon_document, cold_config_cache):
    """Every class, read once per orbit at its key as a product over the
    free rays and the components of the live patterns, equals the class
    that the box of the fan's whole pattern set at side max(e) gives at
    e, and at the orbit key of e (reference.whole_fan_class, the route
    that split no vector): every vector of the oracle gate's boxes, and
    of F_2's, and the 0/1 vectors of the 12-gon and dp6 x dp6."""
    for fan, degrees in _shared_cases(fans, polygon_document):
        keys = toric._orbit_keys(toric.pattern_set(fan))
        assert any(keys[e] != e for e in degrees), fan
        for s in (0, 1, 2):
            for e in degrees:
                terms = whole_fan_box(fan, s, max(e))
                want = unpack_class(terms.at(e), terms.width)
                assert whole_fan_class(fan, e, s) == want, (fan, s, e)
                assert pattern_config_class(fan, e, s) == want, (fan, s, e)


def test_split_classes_keep_the_answers_of_the_whole_fan_route(p1xp1, dp6, p2):
    """Classes the whole-fan route gave, each in seconds: the split reads
    them off one pair, two free rays and one free ray."""
    assert pattern_config_class(dp6, (7, 1, 0, 0, 0, 0)) == L**8 + L**7
    assert pattern_config_class(p2, (200, 0, 0)) == LaurentClass(
        dict.fromkeys(range(201), 1))
    assert hom_class(p1xp1, (40, 40, 1, 1)) == L**84 - 2 * L**82 + L**80


def test_free_ray_classes_are_the_zeta_coefficients(p1xp1, cold_config_cache):
    """A ray on no live pattern gives [t^j] of its zeta factor, and two
    such rays the product of theirs, here against the sums of
    reference.zeta_p1_coeffs.  The patterns of P^1 x P^1 are {0, 1} and
    {2, 3}, so rays 0 and 2 alone make no pattern live."""
    for s in range(4):
        zeta = zeta_p1_coeffs(s, 9)
        for j in range(10):
            got = pattern_config_class(p1xp1, (j, 0, 0, 0), s)
            assert got == zeta[j], (s, j)
            got = pattern_config_class(p1xp1, (j, 0, 9 - j, 0), s)
            assert got == zeta[j] * zeta[9 - j], (s, j)


def test_one_pattern_classes_match_the_products_of_zeta_classes():
    """The closed form of a single pattern, kept as dense lists, equals
    sum_k c_k prod_alpha zeta_(key_alpha - k) taken as LaurentClass
    products, with sum_k c_k u^k = (1 - L u) (1 - u)^(1-s) expanded
    here by multiplying or dividing by 1 - u, on keys of a few hundred
    at s = 0, ..., 3."""
    for s in range(4):
        zeta = zeta_p1_coeffs(s, 300)
        for key in [(300, 297), (3, 250, 120)]:
            top = min(key) + 1
            b = [1] + [0] * top
            for _ in range(abs(1 - s)):
                if s < 1:
                    b = [x - y for x, y in zip(b, [0] + b)]
                else:
                    b = list(itertools.accumulate(b))
            want = ZERO
            for k in range(top):
                c = b[k] - L * (b[k - 1] if k else 0)
                term = ONE
                for x in key:
                    term *= zeta[x - k]
                want += c * term
            assert eulerprod._one_pattern_class(key, s) == want, (key, s)


def test_hom_classes_of_the_line_at_large_degree(p1):
    """[Hom_d(P^1, P^1)] = L^(2d+1) - L^(2d-1), at d = 1000 in closed
    form."""
    assert hom_class(p1, (1000, 1000)) == L**2001 - L**1999


def test_boxes_are_built_per_component(fans, monkeypatch, cold_config_cache):
    """Counted by the calls to the box builder, with no clock: p1 and
    p1xp1, whose components are single patterns, read their classes in
    closed form and build no box, and dp6 x dp6 at (2, ..., 2) builds
    none of more than 6 rays."""
    built = []
    build = eulerprod._config_terms

    def counted(patterns, s, side):
        built.append((patterns.nvars, side))
        return build(patterns, s, side)

    monkeypatch.setattr(eulerprod, "_config_terms", counted)
    hom_class(fans["p1xp1"], (40, 40, 1, 1))
    hom_class(fans["p1"], (3, 3))
    hom_class(fans["p1xp1"], (3, 3, 5, 5))
    assert built == []
    hom_class(fan_product(fans["dp6"], fans["dp6"]), (2,) * 12)
    assert built and max(n for n, _ in built) == 6


def test_one_pattern_polynomial_per_pattern_set(
        dp6, monkeypatch, cold_config_cache):
    """Counted by mobius_table's cache, with no clock: from cold caches,
    the class of dp6 at (2, ..., 2) builds the pattern polynomial once,
    for its one box, and a second box builds none."""
    boxes = []
    box = eulerprod._config_terms
    monkeypatch.setattr(eulerprod, "_config_terms",
                        lambda *args: boxes.append(args[1:]) or box(*args))
    patterns = toric.pattern_set(dp6)
    pattern_config_class(dp6, (2,) * 6)
    info = mobius_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and boxes == [(0, 2)]
    box(patterns, 1, 3)
    mobius_table(patterns)
    assert mobius_table.cache_info().misses == 1


def test_product_fans_build_no_whole_pattern_polynomial(
        fans, monkeypatch, cold_config_cache):
    """Counted by the calls, with no clock: from cold caches, the class
    of dp6 x dp6 at (2, ..., 2) splits into two dp6 components and
    builds no pattern polynomial in 12 variables."""
    built = []
    build = mobius_table
    monkeypatch.setattr(eulerprod, "mobius_table",
                        lambda pats: built.append(pats.nvars) or build(pats))
    hom_class(fan_product(fans["dp6"], fans["dp6"]), (2,) * 12)
    assert built == [6] and mobius_table.cache_info().misses == 1


def test_one_box_per_pattern_set_and_s(dp6, monkeypatch, cold_config_cache):
    """Counted by the calls to the box builder, with no clock: after keys
    of side 2 and then 3, dp6 keeps one box, of side 3, which answers a
    later key of side 2 with no build.  The box of side 2 is dropped
    before the one of side 3 is built, so the two are never held at
    once."""
    built = []
    build = eulerprod._config_terms
    boxes = eulerprod._shared_classes(toric.pattern_set(dp6))[1]

    def counted(patterns, s, side):
        built.append((side, s in boxes))
        return build(patterns, s, side)

    monkeypatch.setattr(eulerprod, "_config_terms", counted)
    pattern_config_class(dp6, (2,) * 6)
    pattern_config_class(dp6, (3,) * 6)
    assert built == [(2, False), (3, False)]
    assert list(boxes) == [0] and boxes[0][0] == 3
    e = (2, 1, 2, 2, 1, 2)
    assert pattern_config_class(dp6, e) == whole_fan_class(dp6, e, 0)
    assert len(built) == 2 and boxes[0][0] == 3


def test_hom_classes_keep_the_cone_test_per_degree():
    """The twin swap (1 3) of F_2 keeps the configuration class but moves
    (1, 1, 1, 3), inside the dual effective cone, to (1, 3, 1, 1),
    outside it."""
    patterns = toric.pattern_set(HIRZEBRUCH_2).minimal
    assert toric._symmetries(4, patterns).twins == ((0, 2), (1, 3))
    assert hom_class(HIRZEBRUCH_2, (1, 3, 1, 1)) == ZERO
    assert hom_class(HIRZEBRUCH_2, (1, 1, 1, 3)) != ZERO
    assert (pattern_config_class(HIRZEBRUCH_2, (1, 3, 1, 1))
            == pattern_config_class(HIRZEBRUCH_2, (1, 1, 1, 3)))


def test_shared_classes_check_each_permutation(
        p1xp1, monkeypatch, capsys, cold_config_cache):
    """A listed permutation of p1xp1 that does not keep the patterns is
    refused by the orbit-key memo before any class is shared: (0 2)
    moves the pattern {0, 1}."""
    found = toric._symmetries(4, toric.pattern_set(p1xp1).minimal)
    swap = (2, 1, 0, 3)
    monkeypatch.setattr(
        toric, "_symmetries",
        lambda nrays, patterns: found._replace(perms=found.perms + (swap,)))
    with pytest.raises(InternalCheckError, match=r"\(2, 1, 0, 3\)"):
        pattern_config_class(p1xp1, (1, 1, 1, 1))
    assert main(["hom", "p1xp1", "--degree", "1,1,1,1"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == "" and "(2, 1, 0, 3)" in captured.err


@pytest.mark.parametrize("field, bogus", [
    ("perms", ((0, 1, 2, 3), (2, 3, 0, 1), (2, 1, 0, 3))),
    ("twins", ((0, 2), (1, 3))),
])
def test_orbit_keys_refuse_a_bogus_automorphism(
        p1xp1, monkeypatch, cold_config_cache, field, bogus):
    """With the permutation (0 2), listed or as a twin swap, the count
    and the class both refuse, where the count once shared 36 for the 42
    tuples at (1, 1, 0, 2): the memo of the keys, which the oracle and
    the engine share, checks every permutation and twin swap."""
    search = toric._symmetries
    whole = toric.pattern_set(p1xp1).minimal
    bad = search(4, whole)._replace(**{field: bogus})
    # the components, pairs, keep their own search
    monkeypatch.setattr(
        toric, "_symmetries",
        lambda nrays, patterns: bad if patterns == whole
        else search(nrays, patterns))
    with pytest.raises(InternalCheckError, match=r"\(2, 1, 0, 3\)"):
        oracle.ff_pattern_count(2, p1xp1, (1, 1, 0, 2))
    with pytest.raises(InternalCheckError, match=r"\(2, 1, 0, 3\)"):
        pattern_config_class(p1xp1, (1, 1, 0, 2))


def convergence_families(fans):
    """The degree families of the benchmark's convergence workload."""
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


def test_convergence_family_reads_one_class_per_orbit(
        fans, monkeypatch, cold_config_cache):
    """The 205 convergence reports at E = 12 read back 35 configuration
    classes from boxes, one per orbit of dp6's pattern set, for its 136
    reports.  p1, p2, p3 and the pairs of p1xp1 and bl1p2 are single
    patterns, read in closed form with no box to read back."""
    read = []
    read_back = eulerprod._read_back

    def counted(x, w, bound, e, message):
        if message.startswith("configuration class"):
            read.append(e)
        return read_back(x, w, bound, e, message)

    monkeypatch.setattr(eulerprod, "_read_back", counted)
    reads = {}
    for name, degrees in convergence_families(fans).items():
        before = len(read)
        for d in degrees:
            assert convergence_report(fans[name], d, 12).passed, (name, d)
        reads[name] = (len(degrees), len(read) - before)
    assert reads["dp6"] == (136, 35)
    assert reads["p1xp1"] == (36, 0) and reads["bl1p2"] == (15, 0)
    assert sum(n for n, _ in reads.values()) == 205
    assert sum(k for _, k in reads.values()) == 35


class TestHomClasses:
    def test_line_to_line_degree_one(self, p1):
        assert hom_class(p1, (1, 1)) == L**3 - L

    def test_degree_zero_maps_are_torus_points(self, p1, p2, p1xp1):
        assert hom_class(p1, (0, 0)) == L - ONE
        assert hom_class(p2, (0, 0, 0)) == (L - ONE) ** 2
        assert hom_class(p1xp1, (0, 0, 0, 0)) == (L - ONE) ** 2

    def test_plane_degree_one(self, p2):
        want = (L - ONE) ** 2 * L * (L + ONE) * (L + 2 * ONE)
        assert hom_class(p2, (1, 1, 1)) == want
        assert want.evaluate(3) == 240

    def test_off_cone_is_zero_with_warning(self, p2, caplog):
        with caplog.at_level(logging.WARNING, logger="toricurves.moduli"):
            assert hom_class(p2, (1, 0, 1)) == ZERO
        assert any("dual effective cone" in r.message for r in caplog.records)

    def test_normalized_line_is_stationary(self, p1):
        for d in range(1, 7):
            got = normalized_hom_class(p1, (d, d))
            assert got == L - LaurentClass({-1: 1}), d

    def test_normalized_plane_degree_one(self, p2):
        got = normalized_hom_class(p2, (1, 1, 1))
        assert got == LaurentClass({2: 1, 1: 1, 0: -3, -1: -1, -2: 2})

    def test_expected_dimension(self, p1, p2, bl1p2, dp6):
        assert expected_dimension_check(p1, (2, 2))
        assert expected_dimension_check(p2, (1, 1, 1))
        assert expected_dimension_check(bl1p2, (1, 1, 1, 2))
        assert expected_dimension_check(dp6, (1, 1, 1, 1, 1, 1))
        # empty moduli space off the cone: dimension check fails honestly
        assert not expected_dimension_check(p2, (2, 1, 1))

    def test_product_fans_multiply(self, p1):
        square = fan_product(p1, p1)
        for d in ((1, 1), (2, 2), (1, 2)):
            da, db = (d[0], d[0]), (d[1], d[1])
            want = hom_class(p1, da) * hom_class(p1, db)
            assert hom_class(square, da + db) == want, d


class TestTamagawa:
    def test_line_constant_is_exact(self, p1):
        tau = tamagawa(p1, 6)
        assert tau.known == L - LaurentClass({-1: 1})
        assert tau.floor == -2

    def test_plane_constant(self, p2):
        tau = tamagawa(p2, 12)
        limit = (L**2 + L + ONE) * (ONE - LaurentClass({-2: 1}))
        assert tau.known == limit.truncate_below(tau.floor)
        assert tau.floor == -4

    def test_floor_tracks_truncation_order(self, fans):
        for name, fan in fans.items():
            for E in (0, 4, 9):
                tau = tamagawa(fan, E)
                assert tau.floor == 1 - ((E + 2) // 2) + fan.dim, (name, E)

    @pytest.mark.parametrize("E", [True, 12.5, 1.0, "1"])
    def test_refuses_an_order_that_is_not_an_integer(self, p2, E):
        # the cache used to answer True with the constant of E = 1
        tamagawa(p2, 1)
        with pytest.raises(ValueError, match=f"cutoff {E!r} is not an integer"):
            tamagawa(p2, E)

    def test_product_constant_multiplies(self, p1):
        square = fan_product(p1, p1)
        tau_sq = tamagawa(square, 8)
        tau_line = tamagawa(p1, 8)
        prod = tau_line * tau_line
        floor = max(tau_sq.floor, prod.floor)
        assert truncate(tau_sq, floor).known == truncate(prod, floor).known


class TestConvergenceReports:
    def test_line_reports_exact_agreement(self, p1):
        rep = convergence_report(p1, (3, 3), 8)
        assert rep.status == "pass" and rep.passed
        assert rep.delta_dim is MINUS_INFINITY
        doc = rep.to_json()
        assert doc["delta_dim"] is None
        assert doc["status"] == "pass"

    def test_plane_degree_one(self, p2):
        rep = convergence_report(p2, (1, 1, 1), 12)
        assert rep.status == "pass"
        assert rep.delta_dim == 0
        assert rep.bound == Fraction(7, 4)
        doc = rep.to_json()
        assert doc["bound"] == "7/4"
        assert doc["degree"] == [1, 1, 1]

    def test_error_shrinks_along_diagonal(self, p2):
        dims = []
        for k in (1, 2, 3, 4):
            rep = convergence_report(p2, (k, k, k), 12)
            assert rep.status == "pass", k
            dims.append(rep.delta_dim)
        assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_coarse_truncation_is_inconclusive(self, p2):
        rep = convergence_report(p2, (1, 1, 1), 0)
        assert rep.status == "inconclusive"
        assert not rep.passed
        assert rep.to_json()["status"] == "inconclusive"

    def test_off_cone_degree_rejected(self, p2):
        with pytest.raises(ValueError):
            convergence_report(p2, (1, 1, 0), 8)

    def test_warm_report_builds_one_vector(self, dp6, monkeypatch):
        """A warm report builds one degree vector; it keys nothing, and
        builds no Fraction, no class and no product of classes: its
        bound, normalized class and verdict are one record per E and
        orbit key."""
        d = (2, 1, 1, 2, 1, 1)
        first = convergence_report(dp6, d, 12)
        assert first.bound == Fraction(7, 4)
        work = record_work(monkeypatch)
        second = convergence_report(dp6, d, 12)
        assert second == first
        assert len(work["vectors"]) == 1 and work["keys"] == []
        assert work["fractions"] == [] and work["classes"] == []
        assert work["products"] == []


def test_torus_is_the_binomial_expansion():
    for n in range(1, 7):
        assert moduli._torus(n) == binomial_torus(n) == (L - 1) ** n


class TestJetCondition:
    def test_point_canonicalization(self):
        jc = JetCondition((((2, 4), 1), ((0, 3), 0)), ONE, 0)
        assert jc.points == (((1, 2), 1), ((0, 1), 0))
        assert jc.npoints == 2
        assert jc.length == 3

    def test_negative_coordinates_normalize(self):
        jc = JetCondition.torus_point((-1, 5), 2)
        assert jc.points == (((1, -5), 2),)

    def test_repeated_points_rejected(self):
        with pytest.raises(ValueError):
            JetCondition((((1, 2), 0), ((2, 4), 1)), ONE, 0)

    def test_degenerate_point_rejected(self):
        with pytest.raises(ValueError):
            JetCondition.torus_point((0, 0), 0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            JetCondition.torus_point((1, 1), -1)

    @pytest.mark.parametrize("coordinate", [1.7, "1", True])
    def test_point_coordinates_must_be_integers(self, coordinate):
        # int() would read (1.7, 2.2) as the point (1, 2)
        with pytest.raises(ValueError,
                           match=f"point coordinate {coordinate!r} is not"):
            moduli._canonical_point((coordinate, 2))
        with pytest.raises(ValueError,
                           match=f"point coordinate {coordinate!r} is not"):
            JetCondition.torus_point((1, coordinate))

    @pytest.mark.parametrize("order", [1.9, "1", True])
    def test_jet_orders_must_be_integers(self, p2, order):
        # int() would keep 1.9 as order 1
        with pytest.raises(ValueError, match=f"jet order {order!r} is not"):
            JetCondition.full_jets(p2, [((1, 1), order)])
        with pytest.raises(ValueError, match=f"jet order {order!r} is not"):
            JetCondition.torus_point((1, 1), order)

    def test_w_class_type_enforced(self):
        with pytest.raises(ValueError):
            JetCondition((((1, 0), 0),), 1, 0)

    @pytest.mark.parametrize("dim, message", [
        (1.5, "W_dim 1.5 is not an integer"),
        (True, "W_dim True is not an integer"),
        ("1", "W_dim '1' is not an integer"),
        (-3, "W_dim must be nonnegative"),
    ])
    def test_w_dim_must_be_a_nonnegative_integer(self, dim, message):
        # 1.5 and -3 were kept as the dimension of the allowed locus
        with pytest.raises(ValueError, match=message):
            JetCondition((((1, 0), 0),), ONE, dim)

    def test_validate_against_dimension_budget(self, p2):
        bad = JetCondition((((1, 0), 0),), ONE, 5)
        with pytest.raises(ValueError):
            bad.validate_against(p2)
        JetCondition.full_jets(p2, [((1, 0), 1)]).validate_against(p2)

    def test_json_shape(self):
        jc = JetCondition.torus_point((1, 3), 1)
        doc = jc.to_json()
        assert doc["points"] == [{"point": [1, 3], "order": 1}]
        assert doc["W_dim"] == 0
        assert laurent_from_json(doc["W_class"]) == ONE


class TestConstrainedMainTerm:
    def test_no_points_reduces_to_tamagawa(self, p1, p2):
        for fan, E in ((p1, 8), (p2, 10)):
            got = constrained_main_term(fan, JetCondition.empty(), E)
            tau = tamagawa(fan, E)
            assert got.known == tau.known and got.floor == tau.floor

    @pytest.mark.parametrize("order", [0, 1])
    def test_full_jets_impose_nothing(self, p1, p2, order):
        """Allowing the entire jet space at a marked point leaves the
        limiting constant unchanged."""
        for fan, E in ((p1, 8), (p2, 12)):
            jc = JetCondition.full_jets(fan, [((1, 1), order)])
            got = constrained_main_term(fan, jc, E)
            tau = tamagawa(fan, E)
            assert got.known == tau.known, (fan.nrays, order)
            assert got.floor == tau.floor

    def test_single_torus_jet_main_term(self, p2):
        jc = JetCondition.torus_point((1, 1), 0)
        got = constrained_main_term(p2, jc, 16)
        # the correction factor (1 - L^-1) L^-2 has dimension -2, so the
        # floor drops from 1 - 9 + 2 to -8
        assert got.floor == -8
        assert got.known == ONE - LaurentClass({-2: 1})
        assert got.known.evaluate(3) == Fraction(8, 9)

    def test_rejects_overweight_condition(self, p2):
        bad = JetCondition((((1, 1), 0),), ONE, 9)
        with pytest.raises(ValueError):
            constrained_main_term(p2, bad, 6)


class TestConstrainedDimensionCheck:
    def test_single_point_trend(self, p1):
        jc = JetCondition.torus_point((1, 1), 0)
        assert expected_dimension_check(p1, (1, 1), jc)

    def test_rejects_nontrivial_targets(self, p1):
        two_points = JetCondition(
            (((1, 0), 0), ((0, 1), 0)), ONE, 0
        )
        with pytest.raises(ValueError):
            expected_dimension_check(p1, (1, 1), two_points)
        fat = JetCondition.full_jets(p1, [((1, 1), 0)])
        with pytest.raises(ValueError):
            expected_dimension_check(p1, (1, 1), fat)
