"""Command-line interface: text goldens, JSON payloads, exit statuses."""

import ast
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import toricurves
from reference import (
    binomial_factors,
    clear_caches,
    fan_document,
    fan_product,
    laurent_from_json,
)
from toricurves import cli
from toricurves.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from toricurves.errors import InternalCheckError, LimitError
from toricurves.grothendieck import L, ONE, LaurentClass, SeriesCap
from toricurves import mobius
from toricurves.eulerprod import _read_product
from toricurves.mobius import fan_mobius_polynomial
from toricurves.moduli import convergence_report, hom_class, tamagawa
from toricurves.oracle import JetSpec, ff_constrained_count, oracle_compare
from toricurves.toric import parse_fan, require_valid, validate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


class TestAnalyze:
    def test_plane_text(self, capsys):
        code, out, err = run(capsys, "analyze", "p2")
        assert code == 0
        assert "P = 1 - t1*t2*t3" in out
        assert "local identity: holds" in out
        assert "smooth: True  complete: True" in out

    def test_plane_json(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", "p2")
        assert code == 0
        assert doc["dim"] == 2
        assert doc["picard_rank"] == 1
        assert doc["f_vector"] == [1, 3, 3]
        assert doc["class"] == "L^2 + L + 1"
        assert doc["primitive_collections"] == [[0, 1, 2]]
        assert doc["local_identity"] is True

    @pytest.mark.parametrize("flag", ["--seed", "--jobs"])
    def test_seed_and_jobs_flags_refused(self, capsys, flag):
        # both were accepted with no effect
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "p1xp1", flag, "7"])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and captured.out == ""
        assert f"unrecognized arguments: {flag} 7" in captured.err

    def test_fan_from_file(self, capsys):
        path = pathlib.Path(toricurves.__file__).parent / "fans" / "p2.json"
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0 and "P = 1 - t1*t2*t3" in out

    @pytest.mark.parametrize("name", ["p1", "p1.json"])
    def test_refuses_a_fixture_name_that_is_also_a_file(
            self, capsys, tmp_path, monkeypatch, name):
        plane = pathlib.Path(toricurves.__file__).parent / "fans" / "p2.json"
        (tmp_path / name).write_text(plane.read_text())
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "analyze", name)
        assert code == EXIT_VALIDATION and out == ""
        assert f"write ./{name} for the file" in err
        code, out, _ = run(capsys, "analyze", f"./{name}")
        assert code == 0 and "dim: 2  picard rank: 1" in out

    def test_builds_the_mobius_table_once(self, capsys):
        # the one cache of mu is keyed by the pattern set
        clear_caches()
        code, _, _ = run(capsys, "analyze", "p1xp1")
        assert code == 0
        info = mobius.mobius_table.cache_info()
        assert info.misses == 1 and info.hits >= 1

    def test_validates_the_fan_once(self, capsys):
        clear_caches()
        code, _, _ = run(capsys, "analyze", "p1xp1")
        assert code == 0
        assert validate.cache_info().misses == 1

    def test_builds_the_polynomial_once(self, capsys, tmp_path):
        # the Hirzebruch surface F_3, read from a file
        path = tmp_path / "f3.json"
        path.write_text(json.dumps({
            "rays": [[1, 0], [0, 1], [-1, 3], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
        }))
        clear_caches()
        code, _, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert mobius.mobius_table.cache_info().misses == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_formats_the_polynomial_once(self, capsys, monkeypatch, fmt):
        calls = []
        fmt_poly = mobius.IntPoly.__str__
        monkeypatch.setattr(mobius.IntPoly, "__str__",
                            lambda poly: calls.append(1) or fmt_poly(poly))
        code, out, _ = run(capsys, "analyze", "p2", "--format", fmt)
        assert code == 0 and "1 - t1*t2*t3" in out
        assert len(calls) == 1

    def test_too_many_rays_is_a_limit(self, capsys, tmp_path, polygon_document):
        path = tmp_path / "26gon.json"
        path.write_text(json.dumps(polygon_document(26)))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_BUDGET
        assert out == ""
        assert "26 rays exceed the supported maximum 24" in err

    def test_malformed_fan_over_the_ray_limit_is_invalid(
            self, capsys, tmp_path, polygon_document):
        doc = polygon_document(26)
        doc["max_cones"][0] = [0, 26]
        path = tmp_path / "26gon.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "references ray 26" in err

    def test_incomplete_fan_rejected(self, capsys, tmp_path):
        doc = {"rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
        bad = tmp_path / "half.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(bad))
        assert code == EXIT_VALIDATION
        assert out == ""
        # the refusal is the library's own
        with pytest.raises(ValueError) as exc:
            require_valid(parse_fan(doc))
        assert err == f"error: {exc.value}\n"

    def test_boolean_ray_entry_rejected(self, capsys, tmp_path):
        bad = tmp_path / "p2_bool.json"
        bad.write_text('{"rays": [[true, 0], [0, 1], [-1, -1]], '
                       '"max_cones": [[0, 1], [1, 2], [2, 0]]}')
        code, out, err = run(capsys, "analyze", str(bad))
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "ray at index 0 is not an integer vector" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "no/such/fan.json")
        assert code == EXIT_VALIDATION and "error:" in err

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "analyze", "p9")
        assert code == EXIT_VALIDATION and "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == EXIT_VALIDATION and "error:" in err


class TestUsage:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "p2", "--frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tamagawa", "p1"])
        assert exc.value.code == EXIT_USAGE


class TestMobius:
    def test_refuses_a_negative_cap(self, capsys):
        # the refusal names the option, not the cap's box
        code, out, err = run(capsys, "mobius", "dp6", "--cap", "-1")
        assert code == EXIT_VALIDATION and out == ""
        assert err == "error: --cap must be nonnegative, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["tamagawa", "p2"],
        ["converge", "p2", "--degree", "1,1,1"],
        ["constrained", "p2"],
    ])
    def test_refuses_a_negative_order(self, capsys, argv):
        # as with --cap, the refusal names the option, not the cutoff
        code, out, err = run(capsys, *argv, "--order", "-1")
        assert code == EXIT_VALIDATION and out == ""
        assert err == "error: --order must be nonnegative, got -1\n"

    def test_table_text(self, capsys):
        code, out, _ = run(capsys, "mobius", "p2")
        assert code == 0
        assert "P = 1 - t1*t2*t3" in out

    def test_global_cap(self, capsys):
        code, doc, _ = run_json(capsys, "mobius", "p1", "--cap", "4")
        assert code == 0
        entries = {tuple(item["e"]): item["mu"] for item in doc["global"]}
        assert laurent_from_json(entries[(1, 1)]) == -(
            L + ONE
        )

    def test_global_cap_text(self, capsys):
        code, out, _ = run(capsys, "mobius", "p1", "--cap", "4")
        assert code == 0
        assert "mu(1, 1) = -L - 1" in out
        assert "mu(2, 2) = L" in out

    def test_global_listing_in_degree_order(self, capsys):
        # two primitive collections, so several exponents share a total
        # degree and the order within one degree is pinned too
        code, out, _ = run(capsys, "mobius", "p1xp1", "--cap", "4")
        assert code == 0
        lines = [ast.literal_eval(line.strip()[2:].split(" = ")[0])
                 for line in out.splitlines() if line.startswith("  mu(")]
        code, doc, _ = run_json(capsys, "mobius", "p1xp1", "--cap", "4")
        assert code == 0
        listed = [tuple(item["e"]) for item in doc["global"]]
        assert len({sum(e) for e in lines}) < len(lines)
        for order in (lines, listed):
            assert order == sorted(order, key=lambda e: (sum(e), e))
        assert set(lines) <= set(listed)

    @pytest.mark.parametrize("name", ["p1xp1", "dp6"])
    def test_global_listing_matches_the_binomial_route(self, capsys, fans,
                                                       name):
        fan = fans[name]
        code, doc, _ = run_json(capsys, "mobius", name, "--cap", "4")
        assert code == 0
        series = _read_product(*binomial_factors(
            fan_mobius_polynomial(fan), 0, SeriesCap.total_cap(fan.nrays, 4)))
        want = [{"e": list(e), "mu": value.to_json()} for e, value in
                sorted(series.items(), key=lambda kv: (sum(kv[0]), kv[0]))]
        assert doc["global"] == want

    def test_text_builds_no_json_listing(self, capsys, monkeypatch):
        calls = []

        def listing(poly, build=cli._mobius_listing):
            calls.append("listing")
            return build(poly)

        def to_json(self, build=LaurentClass.to_json):
            calls.append("LaurentClass")
            return build(self)

        monkeypatch.setattr(cli, "_mobius_listing", listing)
        monkeypatch.setattr(LaurentClass, "to_json", to_json)
        code, _, _ = run(capsys, "mobius", "p1xp1", "--cap", "4")
        assert code == 0 and calls == []
        code, _, _ = run_json(capsys, "mobius", "p1xp1", "--cap", "4")
        assert code == 0 and sorted(set(calls)) == ["LaurentClass", "listing"]


class TestHom:
    def test_line_degree_one(self, capsys, p1):
        code, out, _ = run(capsys, "hom", "p1", "--degree", "1,1")
        assert code == 0 and out.strip() == "L^3 - L"

    def test_normalized(self, capsys):
        code, out, _ = run(capsys, "hom", "p1", "--degree", "2,2",
                           "--normalized")
        assert code == 0 and out.strip() == "L - L^-1"

    def test_off_cone_is_reported_empty(self, capsys):
        code, out, _ = run(capsys, "hom", "p2", "--degree", "1,1,0")
        assert code == 0 and out.strip() == "empty: degree not in Eff^v"
        code, doc, _ = run_json(capsys, "hom", "p2", "--degree", "1,1,0")
        assert doc["empty"] is True

    def test_json_round_trip(self, capsys, p2):
        code, doc, _ = run_json(capsys, "hom", "p2", "--degree", "1,1,1")
        assert code == 0
        assert laurent_from_json(doc["coeffs"]) == hom_class(p2, (1, 1, 1))
        assert doc["virtual_dimension"] == 5

    @pytest.mark.parametrize("degree", ["1,0,1", "1,1,1"])
    def test_invalid_fan_is_refused_before_the_cone_test(
            self, capsys, tmp_path, degree):
        # P^2 less one cone: (1, 0, 1) is off its cone, so the fan must
        # be refused before the cone is tested
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"rays": [[1, 0], [0, 1], [-1, -1]],
                                    "max_cones": [[0, 1], [1, 2]]}))
        code, out, err = run(capsys, "hom", str(path), "--degree", degree)
        assert code == EXIT_VALIDATION and out == ""
        assert "lies in 1 maximal cones" in err

    def test_arity_mismatch(self, capsys):
        code, out, err = run(capsys, "hom", "p2", "--degree", "1,1")
        assert code == EXIT_VALIDATION and out == "" and "error:" in err

    def test_negative_degree(self, capsys):
        code, _, err = run(capsys, "hom", "p1", "--degree", "1,-1")
        assert code == EXIT_VALIDATION and "error" in err

    def test_huge_degree_is_a_size_limit(self, capsys):
        # the closed form's dense list cannot be that long; this was a
        # traceback and exit status 1
        big = ",".join(["9" * 23] * 3)
        code, out, err = run(capsys, "hom", "p2", "--degree", big)
        assert code == EXIT_BUDGET and out == ""
        assert err == "error: cannot fit 'int' into an index-sized integer\n"


class TestTamagawa:
    def test_line_text(self, capsys):
        code, out, _ = run(capsys, "tamagawa", "p1", "--order", "6")
        assert code == 0 and out.strip() == "L - L^-1 (floor -2)"

    def test_plane_json(self, capsys, p2):
        code, doc, _ = run_json(capsys, "tamagawa", "p2", "--order", "12")
        assert code == 0
        tau = tamagawa(p2, 12)
        assert doc["floor"] == tau.floor == -4
        assert doc["series"] == str(tau.known)


class TestConverge:
    def test_plane_degree_one(self, capsys):
        code, out, _ = run(capsys, "converge", "p2", "--degree", "1,1,1",
                           "--order", "12")
        assert code == 0
        assert out.strip() == "pass: degree [1, 1, 1] delta_dim 0 bound 1.75"

    def test_exact_case_prints_minus_inf(self, capsys):
        code, out, _ = run(capsys, "converge", "p1", "--degree", "3,3",
                           "--order", "8")
        assert code == 0 and "delta_dim -inf" in out

    def test_json_payload(self, capsys):
        code, doc, _ = run_json(capsys, "converge", "p2", "--degree", "1,1,1",
                                "--order", "12")
        assert code == 0
        assert doc["status"] == "pass" and doc["passed"] is True
        assert doc["bound"] == "7/4" and doc["bound_float"] == 1.75
        assert doc["delta_dim"] == 0

    def test_off_cone_degree(self, capsys):
        code, _, err = run(capsys, "converge", "p2", "--degree", "1,1,0",
                           "--order", "8")
        assert code == EXIT_VALIDATION and "error:" in err

    def test_inconclusive_status(self, capsys):
        code, out, _ = run(capsys, "converge", "p2", "--degree", "1,1,1",
                           "--order", "0")
        assert code == 0 and out.startswith("inconclusive:")


class TestOracle:
    def test_config_comparison(self, capsys):
        code, out, _ = run(capsys, "oracle", "p2", "--p", "3",
                           "--config", "1,1,1")
        assert code == 0
        assert out.startswith("equal: brute 60 predicted 60")

    def test_hom_comparison_json(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "p2", "--p", "3",
                                "--degree", "1,1,1")
        assert code == 0
        assert doc["equal"] is True
        assert int(doc["brute"]) == int(doc["predicted"]) == 240

    def test_requires_exactly_one_vector(self, capsys):
        code, _, err = run(capsys, "oracle", "p2", "--p", "3")
        assert code == EXIT_VALIDATION and "error:" in err
        code, _, err = run(capsys, "oracle", "p2", "--p", "3",
                           "--degree", "1,1,1", "--config", "1,1,1")
        assert code == EXIT_VALIDATION and "error:" in err

    def test_jet_requires_degree(self, capsys):
        code, _, err = run(capsys, "oracle", "p2", "--p", "3", "--jet", "1,0",
                           "--config", "1,1,1")
        assert code == EXIT_VALIDATION and "error:" in err

    def test_constrained_count(self, capsys, p2):
        code, doc, _ = run_json(capsys, "oracle", "p2", "--p", "3",
                                "--degree", "1,1,1", "--jet", "1,0")
        assert code == 0
        want = ff_constrained_count(3, p2, (1, 1, 1), JetSpec.identity(3, 1, 0))
        assert int(doc["count"]) == want == 24
        assert doc["jet"] == {"point": 1, "order": 0,
                              "target": [[1], [1], [1]]}

    def test_jet_at_infinity(self, capsys, p1):
        code, doc, _ = run_json(capsys, "oracle", "p1", "--p", "2",
                                "--degree", "2,2", "--jet", "inf,0")
        assert code == 0
        want = ff_constrained_count(2, p1, (2, 2), JetSpec.identity(2, None, 0))
        assert int(doc["count"]) == want
        assert doc["jet"]["point"] == "inf"

    @pytest.mark.parametrize("jet, chunk", [
        ("x,1", "x"), ("1,y", "y"), ("1,1,1:a,1:0,1:0", "1:a")])
    def test_malformed_jet_is_named(self, capsys, jet, chunk):
        code, out, err = run(capsys, "oracle", "p2", "--p", "3",
                             "--degree", "1,1,1", "--jet", jet)
        assert code == EXIT_VALIDATION and out == ""
        assert (f"jet part {chunk!r} is not of the form "
                "point,order[,c0:c1:...]") in err

    def test_budget_exit(self, capsys):
        code, out, err = run(capsys, "oracle", "p2", "--p", "3",
                             "--degree", "3,3,3", "--budget", "10")
        assert code == EXIT_BUDGET
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("degree, power", [
        ("20000,0,0", "2^20000"), ("100000000,0,0", "2^100000000")])
    def test_budget_exit_on_a_huge_degree(self, capsys, degree, power):
        """A count of more digits than Python prints once failed to turn
        into the message (exit 2), and a degree of 10^8 built 2^(10^8+1)
        before it refused: the refusal names a lower bound, builds no
        count past the budget, and is quick."""
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", "p2", "--p", "2",
                             "--degree", degree)
        assert time.perf_counter() - start < 1
        assert code == EXIT_BUDGET and out == ""
        assert err == (f"error: enumeration needs at least {power} tuples, "
                       "budget is 100000000 (raise TORICURVES_BUDGET or the "
                       "--budget flag to allow it)\n")

    @pytest.mark.parametrize("p", ["5", "7"])
    def test_budget_exit_on_a_pairs_only_fan(self, capsys, p):
        """The count itself takes well under a second; the budget still
        bounds the tuples."""
        argv = ["oracle", "dp6", "--p", p, "--degree", "2,2,2,2,2,2"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BUDGET and out == ""
        code, out, err = run(capsys, *argv, "--budget", str(10**11))
        assert code == 0 and out.startswith("equal:")

    def test_negative_budget_flag_is_refused(self, capsys):
        code, out, err = run(capsys, "oracle", "p2", "--p", "3",
                             "--degree", "1,1,1", "--budget", "-1")
        assert code == EXIT_VALIDATION and out == ""
        assert "budget -1 from the budget argument (--budget)" in err

    @pytest.mark.parametrize("command", [
        ["hom", "p2", "--degree", "1,1,1"],
        ["tamagawa", "p2", "--order", "4"],
        ["analyze", "p2"],
    ], ids=["hom", "tamagawa", "analyze"])
    def test_every_command_refuses_a_negative_budget(self, capsys, command):
        """Each used to print its answer and exit 0."""
        code, out, err = run(capsys, *command, "--budget", "-5")
        assert code == EXIT_VALIDATION and out == ""
        assert "budget -5 from the budget argument (--budget)" in err

    # int() alone took the last three
    @pytest.mark.parametrize("value", ["abc", "1e3", "-5", "1_000", " 100 ",
                                       "\u0661\u0660\u0660"])
    def test_bad_budget_variable_is_refused(self, capsys, monkeypatch, value):
        monkeypatch.setenv("TORICURVES_BUDGET", value)
        code, out, err = run(capsys, "oracle", "p2", "--p", "3",
                             "--degree", "1,1,1")
        assert code == EXIT_VALIDATION and out == ""
        assert f"budget {value!r} from TORICURVES_BUDGET" in err

    def test_internal_limit_exit(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise LimitError("over the internal limit")

        monkeypatch.setattr("toricurves.moduli.tamagawa", boom)
        code, out, err = run(capsys, "tamagawa", "p2", "--order", "4")
        assert code == EXIT_BUDGET
        assert out == ""
        assert "over the internal limit" in err

    def test_large_order_answered(self, capsys):
        code, doc, _ = run_json(capsys, "tamagawa", "p2", "--order", "200")
        assert code == 0
        assert doc["floor"] == -98
        want = (L**2 + L + ONE) * (ONE - LaurentClass({-2: 1}))
        assert laurent_from_json(doc["coeffs"]) == want

    @pytest.mark.parametrize("query", [
        ("p2", "--p", "11", "--degree", "1,1,1"),
        # the jet reduces modulo p, which divided by 0 before the check
        ("p1", "--p", "0", "--degree", "1,1", "--jet", "1,0"),
    ], ids=["degree", "jet"])
    def test_bad_prime(self, capsys, query):
        code, out, err = run(capsys, "oracle", *query)
        assert code == EXIT_VALIDATION and out == "" and "error:" in err
        assert "prime must be one of (2, 3, 5, 7)" in err

    def test_internal_check_exit(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise InternalCheckError("tripwire")

        monkeypatch.setattr("toricurves.oracle.oracle_compare", boom)
        code, out, err = run(capsys, "oracle", "p2", "--p", "3",
                             "--degree", "1,1,1")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert "internal check failed" in err


class TestConstrained:
    def test_no_points_equals_tamagawa(self, capsys, p2):
        code, doc, _ = run_json(capsys, "constrained", "p2", "--order", "10")
        assert code == 0
        tau = tamagawa(p2, 10)
        assert doc["series"] == str(tau.known) and doc["floor"] == tau.floor

    def test_full_jet_point_changes_nothing(self, capsys, p1):
        code, doc, _ = run_json(capsys, "constrained", "p1", "--order", "8",
                                "--points", "1:1", "--mode", "full")
        assert code == 0
        tau = tamagawa(p1, 8)
        assert doc["series"] == str(tau.known)

    def test_torus_jet_payload(self, capsys):
        code, doc, _ = run_json(capsys, "constrained", "p2", "--order", "16",
                                "--points", "1:1@0")
        assert code == 0
        assert doc["jet_condition"]["points"] == [
            {"point": [1, 1], "order": 0}
        ]
        assert doc["floor"] == -8
        assert doc["series"] == "1 - L^-2"

    @pytest.mark.parametrize("points", ["1:1:1@1", "1:x@1", "1:1@"])
    def test_malformed_point_is_named(self, capsys, points):
        code, out, err = run(capsys, "constrained", "p2", "--order", "16",
                             "--points", f"0:1@0,{points}")
        assert code == EXIT_VALIDATION and out == ""
        assert f"point {points!r} is not of the form x0:x1[@m]" in err

    def test_empty_points_refused(self, capsys):
        code, out, err = run(capsys, "constrained", "p2", "--order", "16",
                             "--points", "")
        assert code == EXIT_VALIDATION and out == ""
        assert "point '' is not of the form x0:x1[@m]" in err

    def test_repeated_points_rejected(self, capsys):
        code, _, err = run(capsys, "constrained", "p1", "--order", "6",
                           "--points", "1:1@0,2:2@1")
        assert code == EXIT_VALIDATION and "error:" in err


class TestMalformedIntegers:
    """Only an optional sign and ASCII digits make an integer: int()
    alone would read "1_0" as 10, and take blanks and other scripts'
    digits."""

    @pytest.mark.parametrize("argv", [
        ["hom", "p1", "--degree", "1_0,1_0"],
        ["hom", "p1", "--degree", "1, 1"],
        ["hom", "p1", "--degree", "\u0661,\u0661"],
        ["converge", "p1", "--degree", "+1,1_0", "--order", "4"],
        ["oracle", "p1", "--p", "3", "--config", "1,\uff11"],
        ["oracle", "p1", "--p", "3", "--degree", "1,1", "--jet", "1_0,1"],
        ["oracle", "p1", "--p", "3", "--degree", "1,1", "--jet", "1,0,1:1_0,1"],
        ["constrained", "p1", "--order", "4", "--points", "1:1@1_0"],
        ["constrained", "p1", "--order", "4", "--points", "1:\u0662"],
    ])
    def test_a_list_entry_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION and out == "" and "error:" in err

    @pytest.mark.parametrize("argv", [
        ["tamagawa", "p2", "--order", "1_0"],
        ["tamagawa", "p2", "--order", " 4"],
        ["mobius", "p2", "--cap", "\u0664"],
        ["hom", "p1", "--degree", "1,1", "--budget", "1_000"],
        ["oracle", "p1", "--p", "0_3", "--degree", "1,1"],
    ])
    def test_an_option_value_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE and captured.out == ""
        assert "invalid int value" in captured.err

    def test_signs_and_digits_are_read(self, capsys):
        code, out, _ = run(capsys, "hom", "p1", "--degree", "+1,01")
        assert code == 0 and out == "L^3 - L\n"
        code, out, _ = run(capsys, "tamagawa", "p2", "--order", "+4")
        assert code == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "dp6"],
    ["analyze", "dp6xdp6.json"],
    ["mobius", "dp6", "--cap", "6"],
], ids=["analyze_dp6", "analyze_dp6xdp6", "mobius_dp6_cap6"])
def test_json_is_printed_as_the_indented_dump(
        capsys, tmp_path, monkeypatch, dp6, argv):
    """The 2^n listing of mu is written from a template per entry; the
    output is still json.dumps(payload, indent=2), byte for byte."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dp6xdp6.json").write_text(
        json.dumps(fan_document(fan_product(dp6, dp6))))
    argv = [*argv, "--format", "json"]
    args = cli.build_parser().parse_args(argv)
    payload, _ = args.func(args)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(payload["mobius"]) == 2 ** (
        12 if "dp6xdp6.json" in argv else 6)
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("argv, call", [
    (["hom", "p2", "--degree", "1,1"], lambda fan: hom_class(fan, (1, 1))),
    (["hom", "p2", "--degree", "1,-1,1"],
     lambda fan: hom_class(fan, (1, -1, 1))),
    (["converge", "p2", "--degree", "1,1", "--order", "4"],
     lambda fan: convergence_report(fan, (1, 1), 4)),
    (["converge", "p2", "--degree", "1,-1,1", "--order", "4"],
     lambda fan: convergence_report(fan, (1, -1, 1), 4)),
    (["oracle", "p2", "--p", "3", "--degree", "1,1"],
     lambda fan: oracle_compare(3, fan, d=(1, 1))),
    (["oracle", "p2", "--p", "3", "--config", "1,-1,1"],
     lambda fan: oracle_compare(3, fan, e=(1, -1, 1))),
    (["oracle", "p2", "--p", "3", "--degree", "1,1", "--jet", "1,0"],
     lambda fan: ff_constrained_count(3, fan, (1, 1), JetSpec.identity(3, 1))),
    (["oracle", "p2", "--p", "3", "--degree", "1,-1,1", "--jet", "1,0"],
     lambda fan: ff_constrained_count(3, fan, (1, -1, 1),
                                      JetSpec.identity(3, 1))),
    (["oracle", "p2", "--p", "3", "--degree", "1,1,1", "--jet", "1,1,1:0,1:0"],
     lambda fan: ff_constrained_count(3, fan, (1, 1, 1),
                                      JetSpec(1, 1, ((1, 0), (1, 0))))),
    (["oracle", "p2", "--p", "4", "--degree", "1,1"],
     lambda fan: oracle_compare(4, fan, d=(1, 1))),
], ids=["hom_arity", "hom_negative", "converge_arity", "converge_negative",
        "oracle_arity", "oracle_negative", "jet_degree_arity",
        "jet_negative", "jet_target_arity", "oracle_prime_first"])
def test_a_value_is_refused_by_the_library(capsys, p2, argv, call):
    """The CLI parses text only: each refusal of a value is the message
    of the library function it calls, after "error: "."""
    with pytest.raises(ValueError) as exc:
        call(p2)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_VALIDATION and out == ""
    assert err == f"error: {exc.value}\n"


def test_stdout_stays_clean_on_every_failure_path(capsys, tmp_path):
    """No partial output: failing invocations write to stderr only."""
    bad = tmp_path / "dud.json"
    bad.write_text("[]")
    for argv in (
        ["analyze", str(bad)],
        ["hom", "p2", "--degree", "9"],
        ["oracle", "p2", "--p", "3", "--degree", "3,3,3", "--budget", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code != 0 and out == "" and err


def test_quiet_exit_when_the_reader_leaves_early():
    """A reader that closes the pipe after one line, as `| head -1`
    does, ends the command with status 0 and nothing on stderr."""
    src = pathlib.Path(toricurves.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    # about 170 kB of JSON, more than a pipe holds, so the command is
    # still writing when the reader leaves
    proc = subprocess.Popen(
        [sys.executable, "-m", "toricurves.cli", "mobius", "dp6",
         "--cap", "8", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
