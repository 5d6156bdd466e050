"""Tests of the benchmark itself: every answer check rejects a perturbed
answer, the reference values are right on cases known by hand, a run
prints exactly the metrics that BENCHMARK.json names, and the speed
scaling and the op orders do what the README says.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of the checkout; it takes about 90 s,
most of it two real runs of the ``cli`` workload.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks as ref  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def cli_run():
    result = run_bench("cli", 0)
    raw = json.loads((ROOT / "perfbench/out/run-cli-seed5-trace0.json").read_text())
    return result, raw["rounds"][0]["outputs"]


# ---------------------------------------------------------------------------
# metric names


def test_untraced_run_prints_the_end_to_end_metrics(cli_run):
    result, _ = cli_run
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # at least three rounds, of all the commands each
    assert result["attempted"] % len(workloads.CLI_COMMANDS) == 0
    assert result["attempted"] >= 3 * len(workloads.CLI_COMMANDS)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_the_per_layer_metrics():
    result = run_bench("cli", 1)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for slug, _ in workloads.CLI_COMMANDS:
        assert result["metrics"][f"cli.main_s.{slug}"]["value"] > 0
    assert result["metrics"]["toric.validate.calls"]["value"] > 0


# ---------------------------------------------------------------------------
# speed scaling and op order


def test_scaled_times_follow_the_probes_near_each_op():
    nominal = speed.NOMINAL_S
    # the machine runs at the reference speed for 10 s, then at half of it
    probes = [[t / 10, nominal] for t in range(100)]
    probes += [[10 + t / 10, 2 * nominal] for t in range(100)]
    starts, lats = [2.0, 15.0, 9.9], [0.5, 1.0, 0.2]
    got = speed.scaled(probes, nominal, starts, lats)
    assert got[0] == pytest.approx(0.5) and got[1] == pytest.approx(0.5)
    # an op at the switch is scaled by the median of the probes around it
    assert 0.1 <= got[2] <= 0.2
    # with no probe within the window, the nearest one sets the scale
    assert speed.scaled(probes, nominal, [40.0], [2.0]) == [pytest.approx(1.0)]


def test_sampler_probes_during_the_work_and_takes_its_time_out():
    import time

    sampler = speed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.5:
        pass
    t1 = time.perf_counter()
    sampler.stop()
    inside = [t for t, _ in sampler.probes if t0 <= t < t1]
    assert len(inside) >= 3
    assert 0 < sampler.inside(t0, t1) < 0.25 * (t1 - t0)
    assert sampler.busy_s > sampler.inside(t0, t1)


def test_watched_run_times_out_without_polling():
    with pytest.raises(subprocess.TimeoutExpired):
        speed.run_watched([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
    done = speed.run_watched([sys.executable, "-c", "print(7)"], 30,
                             stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0 and done.stdout == "7\n"


def test_op_orders_keep_every_op_and_repeat_for_a_seed(fans):
    ops = workloads.convergence_ops(fans)
    order = workloads.interleaved(ops, 3)
    assert sorted(order) == sorted(ops) and order != ops
    assert order == workloads.interleaved(ops, 3) != workloads.interleaved(ops, 4)
    # each fan's sweep keeps its increasing order
    for name in workloads.FIXTURES:
        assert [op for op in order if op[1] == name] == [op for op in ops if op[1] == name]
    gate = workloads.oracle_gate_ops(fans)
    assert sorted(workloads.shuffled(gate, 3)) == sorted(gate)


# ---------------------------------------------------------------------------
# reference values


def test_euler_product_of_one_minus_u_is_the_inverse_zeta_of_the_line():
    # prod over closed points of (1 - u^deg) = (1 - u)(1 - L u)
    assert ref.euler_product_diagonal([1, -1], 6) == [
        {0: 1}, {1: -1, 0: -1}, {1: 1}, {}, {}, {}, {}]


def test_closed_points_of_the_line_add_up_to_its_point_counts():
    for k in range(1, 9):
        total = ref.padd(*(ref.pscale(ref.closed_points(d), d)
                           for d in range(1, k + 1) if k % d == 0))
        assert total == {k: 1, 0: 1}


def test_stored_jet_count_is_made_anew_by_enumeration():
    assert ref.jet_count_projective_space(3, (3, 3, 3), 1, 1) == \
        ref.JET_COUNT_P2_P3_D333_AT1_ORDER1
    # order-0 counts that the acceptance suite fixes for p2 at p = 3
    assert [ref.jet_count_projective_space(3, (k,) * 3, 1, 0)
            for k in (1, 2, 3)] == [24, 648, 17496]


def test_parse_class_reads_the_printed_form():
    assert ref.parse_class("L^2 + 4*L + 1") == {2: 1, 1: 4, 0: 1}
    assert ref.parse_class("-L^3 - 2*L^-1 + 5") == {3: -1, -1: -2, 0: 5}


# ---------------------------------------------------------------------------
# perturbed answers


def _bump(doc: dict) -> None:
    """Add one to the first coefficient of a {"coeffs": {...}} document."""
    key = sorted(doc["coeffs"])[0]
    doc["coeffs"][key] = str(int(doc["coeffs"][key]) + 1)


PERTURB = {
    "analyze_p2": lambda o: o.update({"class": "L^2 + 2*L + 1"}),
    "analyze_dp6": lambda o: o["f_vector"].__setitem__(1, 7),
    "analyze_dp6xdp6": lambda o: o.update({"picard_rank": 9}),
    "mobius_dp6": lambda o: _bump(o["global"][-1]["mu"]),
    "hom_p1": lambda o: _bump(o["coeffs"]),
    "tamagawa_dp6": lambda o: _bump(o["coeffs"]),
    "tamagawa_p3": lambda o: _bump(o["coeffs"]),
    "converge_dp6": lambda o: _bump(o["tau_truncated"]),
    "oracle_p3_p3": lambda o: o.update({"brute": str(int(o["brute"]) + 1)}),
    "oracle_p3_p5": lambda o: o.update({"equal": False}),
    "oracle_dp6_config": lambda o: o.update({"predicted": "1"}),
    "oracle_p2_jet": lambda o: o.update({"count": str(int(o["count"]) + 1)}),
    "constrained_p2": lambda o: _bump(o["coeffs"]),
}


@pytest.mark.parametrize("slug", ["tamagawa_dp6", "tamagawa_p3", "constrained_p2"])
def test_cli_check_rejects_a_floor_that_hides_every_term(cli_run, slug):
    _, outputs = cli_run
    bad = copy.deepcopy(outputs[slug])
    bad["coeffs"] = {"coeffs": {}, "floor": 100}
    assert workloads.check_cli(slug, bad)


@pytest.mark.parametrize("slug", [slug for slug, _ in workloads.CLI_COMMANDS])
def test_cli_check_rejects_a_perturbed_answer(cli_run, slug):
    _, outputs = cli_run
    assert workloads.check_cli(slug, outputs[slug]) == []
    bad = copy.deepcopy(outputs[slug])
    PERTURB[slug](bad)
    assert workloads.check_cli(slug, bad)


@pytest.fixture(scope="module")
def fans():
    return workloads.fixtures()


def _bumped(cls):
    from toricurves.grothendieck import LaurentClass

    coeffs = cls.coeffs
    key = min(coeffs)
    coeffs[key] += 1
    return LaurentClass(coeffs)


def test_convergence_checks_reject_perturbed_reports(fans):
    ops = [("report", "p1", (2, 2)), ("report", "p2", (1, 1, 1)),
           ("report", "p2", (2, 2, 2)), ("report", "p1xp1", (1, 1, 2, 2)),
           ("report", "bl1p2", (1, 1, 1, 2))]
    results = {op: workloads.run_op(fans, op) for op in ops}
    assert workloads.check_convergence(fans, results) == []

    def rejects(op, **changes):
        bad = dict(results)
        bad[op] = dataclasses.replace(results[op], **changes)
        return workloads.check_convergence(fans, bad) != []

    p1, p2, p2b, sq, bl = ops
    # p1's class is also counted at L = 2 by the oracle
    assert rejects(p1, normalized=_bumped(results[p1].normalized))
    assert rejects(sq, normalized=_bumped(results[sq].normalized))
    tau = results[bl].tau_trunc
    assert rejects(bl, tau_trunc=type(tau)(_bumped(tau.known), tau.floor))
    assert rejects(p2, passed=False)
    assert rejects(bl, tau_trunc=type(tau)(type(tau.known)(), 100))
    # along the p2 diagonal the error may not grow
    assert rejects(p2b, delta_dim=100)


def test_oracle_checks_reject_perturbed_counts(fans):
    ops = [("config", "p2", (1, 2, 0), 3), ("hom", "p1", (2, 2), 2),
           ("anchor", "p2", (1, 1, 1), 3)]
    results = {op: workloads.run_op(fans, op) for op in ops}
    assert workloads.check_oracle_gate(fans, results) == []
    config, hom, anchor = ops

    def rejects(op, value):
        return workloads.check_oracle_gate(fans, {**results, op: value}) != []

    assert rejects(config, dataclasses.replace(results[config],
                                               brute=results[config].brute + 1))
    # a p1 map count off by one on both sides is still caught by p^5 - p^3
    rep = results[hom]
    assert rejects(hom, dataclasses.replace(rep, brute=rep.brute + 1,
                                            predicted=rep.predicted + 1))
    assert rejects(anchor, results[anchor] + 1)


def test_library_workloads_have_the_documented_sizes(fans):
    assert len(workloads.convergence_ops(fans)) == 205
    ops = workloads.oracle_gate_ops(fans)
    assert len(ops) == 3322
    assert sum(op[0] != "anchor" for op in ops) == 3320
